//! The per-gateway anti-entropy agent.
//!
//! One [`ReplicaAgent`] runs inside every replicated gateway process. Each
//! *sync round* it polls every peer of its [`ReplicaGroup`] with one
//! `PeerStatus` exchange, plans pulls with [`plan_pulls`] wherever the peer
//! is ahead, fetches the whole `DSSD`/`DSKB` containers with `PeerSync`,
//! and applies them through the router's monotone sync paths (which refuse
//! to move a shard backwards, so rounds are idempotent and races with
//! concurrent reloads or other agents are benign). Unreachable peers cost
//! one bounded timeout and are retried next round — anti-entropy is a
//! repair loop, not a transaction.
//!
//! [`ReplicaAgent::sync_round`] is synchronous so tests can drive
//! convergence deterministically; [`ReplicaAgent::spawn`] wraps it in a
//! background thread with a seeded, jittered interval for production use.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dssddi_serving::{Client, ReplicaState, Router, SyncArtifact};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::group::ReplicaGroup;
use crate::plan::{plan_pulls, version_lag};

/// What one sync round did — returned by [`ReplicaAgent::sync_round`] so
/// tests and operators can assert on a round's outcome directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncRoundReport {
    /// Peers that answered the `PeerStatus` exchange.
    pub peers_polled: usize,
    /// Peers that could not be reached (or failed mid-exchange); each is
    /// retried on the next round.
    pub peers_unreachable: usize,
    /// Pulls planned because a peer advertised a newer artifact.
    pub pulls_planned: usize,
    /// Pulls fetched *and* applied (the local shard actually moved).
    pub pulls_applied: usize,
    /// Pulls that failed (transport fault, or the fetched container was
    /// rejected — e.g. foreign formulary).
    pub pulls_failed: usize,
    /// Container bytes fetched by the applied pulls.
    pub bytes_pulled: u64,
    /// The largest per-key version gap this replica sat behind any peer at
    /// the start of the round (0 = converged).
    pub max_lag: u64,
}

/// The anti-entropy agent of one replicated gateway.
#[derive(Debug)]
pub struct ReplicaAgent {
    router: Arc<Router>,
    state: ReplicaState,
    group: ReplicaGroup,
}

impl ReplicaAgent {
    /// Builds the agent and stamps the group's peer count into `state`, the
    /// counters `Router::attach_replica` returned, so `Stats` responses
    /// report them.
    pub fn new(group: ReplicaGroup, router: Arc<Router>, state: ReplicaState) -> Self {
        state.set_peers(group.len());
        Self {
            router,
            state,
            group,
        }
    }

    /// The agent's group configuration.
    pub fn group(&self) -> &ReplicaGroup {
        &self.group
    }

    /// Runs one full anti-entropy round against every peer, synchronously.
    ///
    /// Peer failures are contained: an unreachable peer (bounded by the
    /// group's peer timeout) or a failed pull is counted in the report and
    /// retried next round, never propagated. The local version vector is
    /// re-read per peer, so a pull applied from one peer is not re-pulled
    /// from the next.
    pub fn sync_round(&self) -> SyncRoundReport {
        let mut report = SyncRoundReport::default();
        let mut max_lag = 0u64;
        for peer in self.group.peers() {
            let local = self.router.version_vector();
            let mut client = match Client::connect_any(&[*peer], self.group.peer_timeout()) {
                Ok(client) => client,
                Err(_) => {
                    report.peers_unreachable += 1;
                    continue;
                }
            };
            let theirs = match client.peer_status(&local) {
                Ok(versions) => versions,
                Err(_) => {
                    report.peers_unreachable += 1;
                    continue;
                }
            };
            report.peers_polled += 1;
            max_lag = max_lag.max(version_lag(&local, &theirs));
            for action in plan_pulls(&local, &theirs) {
                report.pulls_planned += 1;
                let pulled = client.peer_sync(&action.key, action.artifact).and_then(
                    |(version, container)| {
                        let applied = match action.artifact {
                            SyncArtifact::Model => {
                                self.router
                                    .sync_model_bytes(&action.key, version, &container)?
                            }
                            SyncArtifact::Kb => {
                                self.router.sync_kb_bytes(&action.key, &container)?
                            }
                        };
                        Ok((applied, container.len() as u64))
                    },
                );
                match pulled {
                    Ok((true, bytes)) => {
                        report.pulls_applied += 1;
                        report.bytes_pulled += bytes;
                        self.state.record_sync(bytes);
                    }
                    // A concurrent reload or another agent already moved
                    // the shard at least this far — converged, not failed.
                    Ok((false, _)) => {}
                    Err(_) => report.pulls_failed += 1,
                }
            }
        }
        report.max_lag = max_lag;
        self.state.set_lag(max_lag);
        report
    }

    /// Moves the agent onto a background thread that runs
    /// [`ReplicaAgent::sync_round`] forever, pausing the group's sync
    /// interval (scaled by a seeded jitter factor in `[0.75, 1.25)` so
    /// replicas drift apart instead of polling in lock-step) between
    /// rounds. The returned handle stops and joins the thread on
    /// [`ReplicaHandle::stop`] or drop.
    pub fn spawn(self) -> ReplicaHandle {
        let gate = Arc::new(Gate {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_gate = Arc::clone(&gate);
        let mut rng = StdRng::seed_from_u64(self.group.seed());
        let thread = std::thread::spawn(move || loop {
            self.sync_round();
            let interval = self.group.sync_interval();
            let jitter = rng.gen_range(0.75f64..1.25);
            let pause = Duration::from_secs_f64(interval.as_secs_f64() * jitter);
            let stopped = thread_gate
                .stopped
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let (stopped, _timed_out) = thread_gate
                .wake
                .wait_timeout_while(stopped, pause, |stopped| !*stopped)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if *stopped {
                break;
            }
        });
        ReplicaHandle {
            gate,
            thread: Some(thread),
        }
    }
}

/// The stop flag and wake-up channel shared between a spawned agent and
/// its handle. The flag lives under the mutex the agent's timed wait uses,
/// so a stop can never race past a sleeping agent.
#[derive(Debug)]
struct Gate {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// Handle to a spawned [`ReplicaAgent`]; stops and joins it on
/// [`ReplicaHandle::stop`] or drop.
#[derive(Debug)]
pub struct ReplicaHandle {
    gate: Arc<Gate>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// Stops the agent after its current round and joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        {
            let mut stopped = self
                .gate
                .stopped
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *stopped = true;
            self.gate.wake.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            // A panicked agent thread surfaces here as Err; the agent is
            // stopping either way, so the join result carries no decision.
            let _ = thread.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.halt();
    }
}
