//! Static replica-group configuration.
//!
//! A [`ReplicaGroup`] is the one piece of deployment configuration a
//! replicated gateway needs: the addresses of its *peers* (every other
//! replica of the same logical deployment — the local listen address is
//! not in the list), how often to run the anti-entropy loop, how long to
//! wait on an unreachable peer, and a seed for the loop's jitter. Peer
//! lists are static: replicas join by being restarted with a longer list,
//! exactly like the model catalog itself is configured at startup.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use dssddi_serving::ServingError;

/// Default pause between anti-entropy rounds (pre-jitter).
pub const DEFAULT_SYNC_INTERVAL: Duration = Duration::from_millis(500);

/// Default bound on connecting to a peer and on waiting for each of its
/// responses. Replication is a background repair path, so the bound is
/// tight: a stalled peer costs one round, not a hung agent.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// The static peer list and timing knobs of one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaGroup {
    peers: Vec<SocketAddr>,
    sync_interval: Duration,
    peer_timeout: Duration,
    seed: u64,
}

impl ReplicaGroup {
    /// A group with the given peers and default timing (sync every
    /// [`DEFAULT_SYNC_INTERVAL`], peer I/O bounded by
    /// [`DEFAULT_PEER_TIMEOUT`], seed 0). An empty peer list is valid and
    /// makes the agent a no-op — a single-replica deployment.
    pub fn new(peers: Vec<SocketAddr>) -> Self {
        Self {
            peers,
            sync_interval: DEFAULT_SYNC_INTERVAL,
            peer_timeout: DEFAULT_PEER_TIMEOUT,
            seed: 0,
        }
    }

    /// Resolves a list of `host:port` peer specs (the `--peer` flags of
    /// `dssddi-serve`) into a group, taking the first address each spec
    /// resolves to.
    pub fn parse(specs: &[String]) -> Result<Self, ServingError> {
        let mut peers = Vec::with_capacity(specs.len());
        for spec in specs {
            let addr = spec
                .to_socket_addrs()
                .map_err(|e| ServingError::Io {
                    what: format!("resolving peer {spec:?}: {e}"),
                })?
                .next()
                .ok_or_else(|| ServingError::Io {
                    what: format!("peer {spec:?} resolved to no socket addresses"),
                })?;
            peers.push(addr);
        }
        Ok(Self::new(peers))
    }

    /// Replaces the pause between anti-entropy rounds.
    pub fn with_sync_interval(mut self, interval: Duration) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Replaces the per-peer connect/response timeout.
    pub fn with_peer_timeout(mut self, timeout: Duration) -> Self {
        self.peer_timeout = timeout;
        self
    }

    /// Replaces the jitter seed. Give each replica of a deployment a
    /// distinct seed so their sync loops drift apart instead of polling in
    /// lock-step.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The peer addresses (not including the local replica).
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True for a single-replica deployment (no peers to sync with).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The pause between anti-entropy rounds (pre-jitter).
    pub fn sync_interval(&self) -> Duration {
        self.sync_interval
    }

    /// The per-peer connect/response timeout.
    pub fn peer_timeout(&self) -> Duration {
        self.peer_timeout
    }

    /// The jitter seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_resolves_literal_addresses() {
        let group =
            ReplicaGroup::parse(&["127.0.0.1:7879".to_string(), "127.0.0.1:7880".to_string()])
                .unwrap();
        assert_eq!(group.len(), 2);
        assert_eq!(
            group.peers().first().map(|a| a.port()),
            Some(7879),
            "peer order is preserved"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        let error = ReplicaGroup::parse(&["not an address".to_string()]).unwrap_err();
        assert!(matches!(error, ServingError::Io { .. }));
    }
}
