//! Pure version-vector merge logic of the anti-entropy loop.
//!
//! A replica's state, as far as replication is concerned, is its *version
//! vector*: one [`KeyVersions`] per shard, carrying the monotone model
//! version the gateway assigns on every swap and the knowledge base's own
//! version (which travels inside the `DSKB` container). This module decides
//! what one replica should pull after seeing a peer's vector — and nothing
//! else: no sockets, no clocks, no randomness, so the convergence property
//! ("any interleaving of reloads and sync rounds reaches the element-wise
//! maximum") is property-testable without a network.

use dssddi_serving::{KeyVersions, ModelKey, SyncArtifact};

/// One artifact a replica should pull from a peer that is ahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PullAction {
    /// The shard whose artifact is stale locally.
    pub key: ModelKey,
    /// Which container to pull (`DSSD` model or `DSKB` knowledge base).
    pub artifact: SyncArtifact,
    /// The version the peer advertised. The pull re-reads the peer's
    /// current version with the bytes, so a peer that moved further ahead
    /// in the meantime is still applied correctly.
    pub version: u64,
}

/// The pulls that bring `local` up to `peer` wherever the peer is ahead.
///
/// Per shared key, the model and the knowledge base are compared (and
/// pulled) independently. Keys the local replica does not hold are skipped:
/// replicas of one group are launched with the same static shard set, and
/// `PeerSync` swaps an artifact into a *live* entry rather than creating
/// one, so an unknown key is a configuration mismatch, not work.
pub fn plan_pulls(local: &[KeyVersions], peer: &[KeyVersions]) -> Vec<PullAction> {
    let mut actions = Vec::new();
    for theirs in peer {
        let Some(ours) = local.iter().find(|entry| entry.key == theirs.key) else {
            continue;
        };
        if theirs.model_version > ours.model_version {
            actions.push(PullAction {
                key: theirs.key.clone(),
                artifact: SyncArtifact::Model,
                version: theirs.model_version,
            });
        }
        if theirs.kb_version > ours.kb_version {
            actions.push(PullAction {
                key: theirs.key.clone(),
                artifact: SyncArtifact::Kb,
                version: theirs.kb_version,
            });
        }
    }
    actions
}

/// The largest per-key version gap `local` sits *behind* `peer` — 0 when
/// converged (or ahead everywhere). This is what a replica reports as
/// `max_lag` in its `ReplicaStats`, taken over all peers at the start of a
/// sync round.
pub fn version_lag(local: &[KeyVersions], peer: &[KeyVersions]) -> u64 {
    let mut lag = 0u64;
    for theirs in peer {
        if let Some(ours) = local.iter().find(|entry| entry.key == theirs.key) {
            lag = lag
                .max(theirs.model_version.saturating_sub(ours.model_version))
                .max(theirs.kb_version.saturating_sub(ours.kb_version));
        }
    }
    lag
}

/// The vector `local` reaches after pulling every action of [`plan_pulls`]
/// from this peer: the element-wise maximum over `local`'s keys. This is
/// the *model* of a completed sync round — the convergence proptest drives
/// simulated replicas through it and asserts the group meets at the maximum.
pub fn merged(local: &[KeyVersions], peer: &[KeyVersions]) -> Vec<KeyVersions> {
    local
        .iter()
        .map(|ours| {
            let (model_version, kb_version) = peer
                .iter()
                .find(|entry| entry.key == ours.key)
                .map(|theirs| {
                    (
                        ours.model_version.max(theirs.model_version),
                        ours.kb_version.max(theirs.kb_version),
                    )
                })
                .unwrap_or((ours.model_version, ours.kb_version));
            KeyVersions {
                key: ours.key.clone(),
                model_version,
                kb_version,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(key: &str, model_version: u64, kb_version: u64) -> KeyVersions {
        KeyVersions {
            key: ModelKey::new(key).unwrap(),
            model_version,
            kb_version,
        }
    }

    #[test]
    fn converged_vectors_plan_nothing() {
        let local = vec![kv("chronic", 3, 7), kv("critique", 1, 1)];
        assert!(plan_pulls(&local, &local).is_empty());
        assert_eq!(version_lag(&local, &local), 0);
    }

    #[test]
    fn ahead_peer_yields_independent_model_and_kb_pulls() {
        let local = vec![kv("chronic", 3, 7), kv("critique", 1, 1)];
        let peer = vec![kv("chronic", 5, 7), kv("critique", 1, 4)];
        let actions = plan_pulls(&local, &peer);
        assert_eq!(
            actions,
            vec![
                PullAction {
                    key: ModelKey::new("chronic").unwrap(),
                    artifact: SyncArtifact::Model,
                    version: 5,
                },
                PullAction {
                    key: ModelKey::new("critique").unwrap(),
                    artifact: SyncArtifact::Kb,
                    version: 4,
                },
            ]
        );
        assert_eq!(version_lag(&local, &peer), 3);
    }

    #[test]
    fn behind_peer_and_unknown_keys_are_ignored() {
        let local = vec![kv("chronic", 3, 7)];
        let peer = vec![kv("chronic", 2, 6), kv("other", 9, 9)];
        assert!(plan_pulls(&local, &peer).is_empty());
        assert_eq!(version_lag(&local, &peer), 0);
    }

    #[test]
    fn merged_is_the_elementwise_maximum_over_local_keys() {
        let local = vec![kv("chronic", 3, 7), kv("critique", 1, 1)];
        let peer = vec![kv("chronic", 5, 2), kv("other", 9, 9)];
        assert_eq!(
            merged(&local, &peer),
            vec![kv("chronic", 5, 7), kv("critique", 1, 1)]
        );
    }
}
