//! Admission control: load-shed-before-collapse for the gateway.
//!
//! A clinical gateway under overload must keep answering the requests it
//! admits within a bounded latency and reject the excess with a typed
//! [`crate::ErrorCode::Overloaded`] error — never stall every caller behind
//! an unbounded backlog, and never fall over. Three mechanisms compose:
//!
//! 1. **Per-model token buckets** ([`TokenBucket`]): each shard admits at
//!    most `rate_per_sec` individual requests per second with a burst
//!    allowance of `burst` (a `SuggestBatch` of 16 charges 16 tokens).
//! 2. **Per-model in-flight quotas**: a hard cap on the routed calls a
//!    single shard may have executing at once, so one hot shard cannot
//!    monopolise every worker.
//! 3. **A bounded global request queue**: at most `max_in_flight` routed
//!    calls execute concurrently across the whole gateway; when every slot
//!    is busy a call may wait — but only while fewer than `max_queue_depth`
//!    callers are already waiting and never longer than `queue_wait` — and
//!    is shed otherwise. The queue is the *only* place admission blocks,
//!    and both its depth and its wait are bounded, which is what turns
//!    overload into fast typed rejections instead of collapse.
//!
//! Shed requests are counted per shard (`shed_requests` in
//! [`crate::ModelStats`]) and are *not* counted as served requests or
//! errors: they never reached the model. The deterministic
//! [`TokenBucket::try_acquire_at`] core takes explicit nanosecond
//! timestamps so its invariants are property-testable without wall clocks.

use std::time::{Duration, Instant};

use dssddi_core::sync;

use crate::router::ModelKey;
use crate::ServingError;

/// A per-model admission rate: sustained requests per second plus a burst
/// allowance (the bucket capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate in individual requests per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: how many requests may be admitted instantaneously
    /// after an idle period. Clamped to at least 1 token so a conforming
    /// single request is always admissible.
    pub burst: f64,
}

impl RateLimit {
    /// Validates and builds a rate limit. Rates must be positive and
    /// finite; the burst is clamped to at least one token.
    pub fn new(rate_per_sec: f64, burst: f64) -> Result<Self, ServingError> {
        if !rate_per_sec.is_finite() || rate_per_sec <= 0.0 {
            return Err(ServingError::InvalidKey {
                what: format!("rate limit must be a positive finite rate, got {rate_per_sec}"),
            });
        }
        if !burst.is_finite() || burst < 0.0 {
            return Err(ServingError::InvalidKey {
                what: format!("rate-limit burst must be finite and non-negative, got {burst}"),
            });
        }
        Ok(Self {
            rate_per_sec,
            burst: burst.max(1.0),
        })
    }
}

/// A deterministic token bucket over explicit nanosecond timestamps.
///
/// The bucket starts full (`tokens == capacity`). Refill is *monotone*: a
/// timestamp earlier than one already observed refills nothing (time never
/// runs backwards inside the bucket), and available tokens never exceed the
/// capacity. Over any interval `[t0, t1]` the bucket admits at most
/// `capacity + rate_per_sec · (t1 - t0)` tokens — the invariant the
/// property tests pin down.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_nano: f64,
    capacity: f64,
    tokens: f64,
    last_nanos: u64,
}

impl TokenBucket {
    /// A full bucket with the given limit, with `now_nanos` as its epoch.
    pub fn new(limit: RateLimit, now_nanos: u64) -> Self {
        Self {
            rate_per_nano: limit.rate_per_sec / 1e9,
            capacity: limit.burst,
            tokens: limit.burst,
            last_nanos: now_nanos,
        }
    }

    /// The bucket's capacity (maximum burst).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Tokens available at the last observed timestamp (no refill).
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Refills for the time elapsed since the last observed timestamp.
    /// Monotone: an out-of-order (earlier) timestamp refills nothing.
    fn refill(&mut self, now_nanos: u64) {
        if now_nanos > self.last_nanos {
            let elapsed = (now_nanos - self.last_nanos) as f64;
            self.tokens = (self.tokens + elapsed * self.rate_per_nano).min(self.capacity);
            self.last_nanos = now_nanos;
        }
    }

    /// Tries to admit `n` tokens at `now_nanos`: refills, then either
    /// debits and admits, or rejects leaving the bucket unchanged (beyond
    /// the refill). `n` larger than the capacity can never be admitted.
    pub fn try_acquire_at(&mut self, n: f64, now_nanos: u64) -> bool {
        self.refill(now_nanos);
        if n <= self.tokens {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

/// Configuration of the gateway's admission control. The default
/// configuration admits everything — each limit opts in separately.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Maximum routed calls executing concurrently across the gateway
    /// (`None` = unbounded).
    pub max_in_flight: Option<usize>,
    /// Callers allowed to wait for a free slot when all `max_in_flight`
    /// slots are busy; arrivals beyond this are shed immediately.
    pub max_queue_depth: usize,
    /// Longest a queued caller waits for a slot before it is shed.
    pub queue_wait: Duration,
    /// Rate limit applied to every model without an explicit entry in
    /// [`AdmissionConfig::rates`] (`None` = unlimited).
    pub default_rate: Option<RateLimit>,
    /// Per-model rate limits, overriding `default_rate`.
    pub rates: Vec<(ModelKey, RateLimit)>,
    /// Per-model in-flight quotas: the most routed calls one shard may have
    /// executing at once.
    pub quotas: Vec<(ModelKey, u64)>,
}

impl AdmissionConfig {
    /// The rate limit that applies to `key` (explicit entry, else default).
    pub(crate) fn rate_for(&self, key: &ModelKey) -> Option<RateLimit> {
        self.rates
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, limit)| limit)
            .or(self.default_rate)
    }

    /// The in-flight quota that applies to `key`.
    pub(crate) fn quota_for(&self, key: &ModelKey) -> Option<u64> {
        self.quotas
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, quota)| quota)
    }

    /// True when every limit is disabled (the default), so admission lets
    /// every frame through. The router still runs its admission step for
    /// each frame; only `dssddi-serve`'s startup message reads this.
    pub fn is_unlimited(&self) -> bool {
        self.max_in_flight.is_none() && self.default_rate.is_none() && self.rates.is_empty() && {
            self.quotas.is_empty()
        }
    }
}

/// State of the bounded global request queue.
#[derive(Debug)]
struct QueueState {
    in_flight: usize,
    waiting: usize,
}

/// The gateway-wide half of admission control: the bounded request queue.
/// Per-model buckets and quotas live on the catalog entries so their
/// counters surface in per-model stats.
#[derive(Debug)]
pub(crate) struct GlobalQueue {
    state: std::sync::Mutex<QueueState>,
    freed: std::sync::Condvar,
    max_in_flight: usize,
    max_queue_depth: usize,
    queue_wait: Duration,
}

impl GlobalQueue {
    pub(crate) fn new(max_in_flight: usize, max_queue_depth: usize, queue_wait: Duration) -> Self {
        Self {
            state: std::sync::Mutex::new(QueueState {
                in_flight: 0,
                waiting: 0,
            }),
            freed: std::sync::Condvar::new(),
            max_in_flight: max_in_flight.max(1),
            max_queue_depth,
            queue_wait,
        }
    }

    /// Acquires one execution slot, waiting (bounded in depth and time)
    /// when all slots are busy. Returns the queue depth observed on entry
    /// (for the high-water mark) or `Err(())` when the call must be shed.
    pub(crate) fn acquire(&self) -> Result<usize, ()> {
        let mut state = sync::lock(&self.state);
        if state.in_flight < self.max_in_flight {
            state.in_flight += 1;
            return Ok(state.waiting);
        }
        if state.waiting >= self.max_queue_depth {
            return Err(());
        }
        state.waiting += 1;
        let depth = state.waiting;
        let deadline = Instant::now() + self.queue_wait;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                state.waiting -= 1;
                return Err(());
            }
            let (next, timeout) = state.wait_timeout(&self.freed, remaining);
            state = next;
            if state.in_flight < self.max_in_flight {
                state.waiting -= 1;
                state.in_flight += 1;
                return Ok(depth);
            }
            if timeout.timed_out() {
                state.waiting -= 1;
                return Err(());
            }
        }
    }

    /// Releases one execution slot and wakes one queued caller.
    pub(crate) fn release(&self) {
        let mut state = sync::lock(&self.state);
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        self.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limits_validate() {
        assert!(RateLimit::new(0.0, 1.0).is_err());
        assert!(RateLimit::new(f64::NAN, 1.0).is_err());
        assert!(RateLimit::new(10.0, f64::INFINITY).is_err());
        assert!(RateLimit::new(10.0, -1.0).is_err());
        // Burst clamps up to one token.
        assert_eq!(RateLimit::new(10.0, 0.0).unwrap().burst, 1.0);
    }

    #[test]
    fn token_bucket_admits_burst_then_refills_at_rate() {
        // 1000 req/s, burst 4.
        let limit = RateLimit::new(1000.0, 4.0).unwrap();
        let mut bucket = TokenBucket::new(limit, 0);
        for _ in 0..4 {
            assert!(bucket.try_acquire_at(1.0, 0));
        }
        assert!(!bucket.try_acquire_at(1.0, 0), "burst exhausted");
        // 1 ms at 1000 req/s refills one token.
        assert!(bucket.try_acquire_at(1.0, 1_000_000));
        assert!(!bucket.try_acquire_at(1.0, 1_000_000));
        // Time running backwards refills nothing.
        assert!(!bucket.try_acquire_at(1.0, 500_000));
        // A long idle period refills to capacity, never beyond.
        assert!(!bucket.try_acquire_at(5.0, u64::MAX / 2), "n > capacity");
        assert!((bucket.available() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn global_queue_sheds_beyond_depth_and_wait() {
        let queue = GlobalQueue::new(1, 0, Duration::from_millis(1));
        assert!(queue.acquire().is_ok());
        // Slot busy, zero queue depth: immediate shed.
        assert!(queue.acquire().is_err());
        queue.release();
        assert!(queue.acquire().is_ok());
        queue.release();

        // With queue depth 1, a waiter times out after queue_wait.
        let queue = GlobalQueue::new(1, 1, Duration::from_millis(10));
        assert!(queue.acquire().is_ok());
        let start = Instant::now();
        assert!(queue.acquire().is_err(), "no slot freed within the wait");
        assert!(start.elapsed() >= Duration::from_millis(10));
        // ... but is admitted when a slot frees in time.
        let queue = std::sync::Arc::new(GlobalQueue::new(1, 1, Duration::from_secs(5)));
        assert!(queue.acquire().is_ok());
        let waiter = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || queue.acquire())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.release();
        assert!(waiter.join().unwrap().is_ok(), "freed slot reaches waiter");
    }
}
