//! Version-convergence property for the anti-entropy planner.
//!
//! Three simulated replica agents, an arbitrary interleaving of hot
//! reloads (model and KB version bumps on any agent) and pairwise
//! anti-entropy pulls, followed by one full round of gossip over the
//! complete peer graph: every agent ends at the element-wise maximum
//! version per key, and a converged group plans zero further pulls.
//!
//! The simulation exercises exactly the pure functions the real
//! [`dssddi_replica::ReplicaAgent`] drives — `plan_pulls` to decide what
//! to fetch and the per-key version adoption that a pull through
//! `ModelCatalog::install` performs — with `merged` as the independent model of what a pull must
//! produce.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dssddi_replica::{merged, plan_pulls, KeyVersions, SyncArtifact};
use dssddi_serving::ModelKey;
use proptest::prelude::*;

const KEYS: [&str; 3] = ["chronic", "cardio", "renal"];
const AGENTS: usize = 3;

fn fresh_vector() -> Vec<KeyVersions> {
    KEYS.iter()
        .map(|name| KeyVersions {
            key: ModelKey::new(*name).expect("key"),
            model_version: 1,
            kb_version: 1,
        })
        .collect()
}

/// What the real agent does after `plan_pulls`: fetch each planned
/// artifact and adopt its version (a pull through `ModelCatalog::install`
/// is monotone, so adoption is exactly "set to the advertised version").
fn apply_pulls(local: &mut [KeyVersions], peer: &[KeyVersions]) {
    for action in plan_pulls(local, peer) {
        let entry = local
            .iter_mut()
            .find(|entry| entry.key == action.key)
            .expect("planned pulls only name local keys");
        match action.artifact {
            SyncArtifact::Model => entry.model_version = action.version,
            SyncArtifact::Kb => entry.kb_version = action.version,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A hot model reload lands on one agent: its gateway bumps the
    /// shard's monotone model version.
    ReloadModel { agent: usize, key: usize },
    /// An operator ships a newer KB container to one agent.
    ReloadKb { agent: usize, key: usize },
    /// One anti-entropy exchange: `puller` polls `source` and pulls
    /// everything `source` is ahead on.
    Sync { puller: usize, source: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..AGENTS, 0..KEYS.len()).prop_map(|(agent, key)| Op::ReloadModel { agent, key }),
        (0..AGENTS, 0..KEYS.len()).prop_map(|(agent, key)| Op::ReloadKb { agent, key }),
        (0..AGENTS, 0..AGENTS - 1).prop_map(|(puller, other)| Op::Sync {
            puller,
            // Map onto the agents that are not the puller, so a sync
            // never targets itself.
            source: (puller + 1 + other) % AGENTS,
        }),
    ]
}

proptest! {
    /// Any interleaving of reloads and pairwise syncs, then one full
    /// gossip round, converges every agent to the element-wise maximum.
    #[test]
    fn any_interleaving_converges_to_the_elementwise_max(
        ops in proptest::collection::vec(op_strategy(), 0..64),
    ) {
        let mut agents = vec![fresh_vector(); AGENTS];
        for op in &ops {
            match *op {
                Op::ReloadModel { agent, key } => {
                    agents[agent][key].model_version += 1;
                }
                Op::ReloadKb { agent, key } => {
                    agents[agent][key].kb_version += 1;
                }
                Op::Sync { puller, source } => {
                    let theirs = agents[source].clone();
                    let before = agents[puller].clone();
                    apply_pulls(&mut agents[puller], &theirs);
                    // A pull produces exactly the element-wise merge of
                    // the two vectors — never less, never more.
                    prop_assert_eq!(&agents[puller], &merged(&before, &theirs));
                }
            }
        }

        // The target state: the element-wise maximum over all agents.
        let expected = agents
            .iter()
            .skip(1)
            .fold(agents[0].clone(), |acc, vector| merged(&acc, vector));

        // One full anti-entropy round over the complete peer graph (what
        // every spawned agent does once per sync interval).
        for puller in 0..AGENTS {
            for source in 0..AGENTS {
                if puller == source {
                    continue;
                }
                let theirs = agents[source].clone();
                apply_pulls(&mut agents[puller], &theirs);
            }
        }

        for agent in &agents {
            prop_assert_eq!(agent, &expected);
        }

        // Idempotence: the converged group plans nothing more, i.e. the
        // anti-entropy loop goes quiet instead of ping-ponging.
        for puller in 0..AGENTS {
            for source in 0..AGENTS {
                if puller == source {
                    continue;
                }
                prop_assert!(plan_pulls(&agents[puller], &agents[source]).is_empty());
            }
        }
    }
}
