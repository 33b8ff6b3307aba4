//! Log-bucketed latency histogram.
//!
//! Open-loop load generators record one latency per request at high rates,
//! so the recorder must be O(1) per sample with a fixed memory footprint —
//! no sorting a `Vec` of millions of samples afterwards. [`Histogram`]
//! buckets values on a log₂ scale with 16 linear sub-buckets per power of
//! two (the HDR-histogram layout), which bounds the relative quantile
//! error at half a sub-bucket ≈ 3% while covering the full `u64` range in
//! under a thousand buckets.
//!
//! The histogram is unit-agnostic; the serving path and the load generator
//! both record latencies in **microseconds**.

/// log₂ of the number of linear sub-buckets per power of two.
const SUB_BITS: u32 = 4;

/// Values below this are bucketed exactly (bucket width 1).
const LINEAR_CUTOFF: u64 = 1 << (SUB_BITS + 1);

/// Bucket index of a value: identity below [`LINEAR_CUTOFF`], then the
/// exponent selects the octave and the top [`SUB_BITS`] mantissa bits the
/// sub-bucket. Adjacent at the cutoff: `bucket_of(31) == 31`,
/// `bucket_of(32) == 32`.
const fn bucket_of(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS + 1
        let mantissa = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        ((((exp - SUB_BITS) as u64) << SUB_BITS) + mantissa) as usize + (1 << SUB_BITS)
    }
}

/// Smallest value mapping to bucket `idx` (inverse of [`bucket_of`]).
const fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let base = (idx - (1 << SUB_BITS)) as u64;
        let exp = (base >> SUB_BITS) as u32 + SUB_BITS;
        let mantissa = base & ((1 << SUB_BITS) - 1);
        ((1 << SUB_BITS) | mantissa) << (exp - SUB_BITS)
    }
}

const NUM_BUCKETS: usize = bucket_of(u64::MAX) + 1;

/// Fixed-size log₂ histogram with O(1) recording and merging.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        // `bucket_of` maps every u64 into `0..NUM_BUCKETS`, so the slot is
        // always present; the checked access keeps the path panic-free.
        if let Some(slot) = self.buckets.get_mut(bucket_of(value)) {
            *slot += 1;
        }
        self.count += 1;
        self.sum += u128::from(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Folds another histogram into this one (for merging per-worker
    /// recorders after a run).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded samples (exact, not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of the recorded samples (exact, from the running
    /// sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (0.0 ..= 1.0), to within half a sub-bucket
    /// (~3% relative error). Returns the midpoint of the bucket holding the
    /// rank — not its upper edge, which would bias every quantile high by
    /// up to a full sub-bucket — clamped to the exact observed maximum;
    /// `q >= 1.0` reports the exact maximum, and an empty histogram `0`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let floor = bucket_floor(idx);
                let ceil = if idx + 1 < NUM_BUCKETS {
                    bucket_floor(idx + 1) - 1
                } else {
                    u64::MAX
                };
                return (floor + (ceil - floor) / 2).min(self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_invertible() {
        // Every bucket's floor maps back to that bucket, floors are
        // strictly increasing, and small values are bucketed exactly.
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let floor = bucket_floor(idx);
            assert_eq!(bucket_of(floor), idx, "floor of bucket {idx}");
            if let Some(p) = prev {
                assert!(floor > p, "floors must increase at {idx}");
            }
            prev = Some(floor);
        }
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_of(v) as u64, v);
        }
        // Boundary values land in their own bucket, one past the previous.
        assert_eq!(bucket_of(31) + 1, bucket_of(32));
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_half_a_sub_bucket() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        // Midpoint interpolation bounds the relative error at half a
        // sub-bucket (1/32 ≈ 3%); pin the bound at 6% so the test stays
        // robust to rank rounding while still rejecting the upper-edge
        // estimate (which errs by a full sub-bucket, beyond 6% at q0.5).
        for &(q, exact) in &[(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let approx = h.value_at_quantile(q) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(err < 0.06, "q{q}: {approx} vs {exact} (err {err})");
        }
        // The extreme quantile is exact: it reports the observed max.
        assert_eq!(h.value_at_quantile(1.0), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1e-6);
    }

    #[test]
    fn quantile_midpoint_beats_the_upper_edge() {
        // Two samples in one bucket (floor 4864, width 256): the median
        // estimate must land at the bucket midpoint, strictly below the
        // upper edge the old interpolation reported.
        let mut h = Histogram::new();
        h.record(4_864); // exactly the bucket floor
        h.record(5_000); // same bucket, keeps the max clamp out of play
        let q50 = h.value_at_quantile(0.5);
        assert_eq!(q50, 4_864 + 127, "midpoint of the 4864..=5119 bucket");
        assert!(q50 < 5_119, "must not report the bucket's upper edge");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..1_000u64 {
            let scaled = v * 37 + 5;
            if v % 2 == 0 { &mut a } else { &mut b }.record(scaled);
            whole.record(scaled);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q));
        }
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
