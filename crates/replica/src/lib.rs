//! # dssddi-replica
//!
//! Replica groups and catalog replication: from a *process* to a
//! *deployment*. A single `dssddi-serve` gateway is a single point of
//! failure for a clinical decision-support workflow; this crate turns N
//! gateway processes into one logical deployment per
//! [`ModelKey`](dssddi_serving::ModelKey):
//!
//! * [`group`] — [`ReplicaGroup`]: the static peer list plus sync-interval,
//!   peer-timeout and jitter-seed knobs. Peers are configured at startup
//!   (`dssddi-serve --peer ADDR`, repeatable), like the catalog itself.
//! * [`plan`] — the pure version-vector merge logic: every shard carries a
//!   monotone `(model_version, kb_version)` pair (the model version is
//!   assigned by the gateway on every swap; the KB version travels inside
//!   the `DSKB` container), and [`plan_pulls`] decides what a replica
//!   should pull after seeing a peer's vector. No sockets, no clocks — the
//!   convergence property is proptested directly.
//! * [`agent`] — [`ReplicaAgent`]: the seeded anti-entropy loop. Each
//!   round it exchanges `PeerStatus` vectors with every peer, pulls whole
//!   `DSSD`/`DSKB` containers with `PeerSync` wherever a peer is ahead,
//!   and applies them through the router's monotone sync paths — reusing
//!   the exact hot-reload machinery a direct `ReloadModel`/`ReloadKb`
//!   uses, so a synced replica is bit-identical to a reloaded one.
//!
//! Callers talk to a group with the serving [`Client`](dssddi_serving::Client):
//! `Client::connect_any` over every replica's address plus a
//! [`RetryPolicy`](dssddi_serving::RetryPolicy) that also retries
//! connection faults makes reads fail over to the healthiest replica, while
//! reloads go to the one connected replica (they are never retried on
//! transport faults) and anti-entropy carries them to the rest.
//!
//! Convergence is *eventual and monotone*: a reload lands on one replica,
//! and within a few sync intervals every replica reports the same per-key
//! versions in its `ReplicaStats` (on the `Stats` response) and serves
//! byte-identical responses. A replica that was down during the reload
//! pulls the missed artifacts on its first round back.
//!
//! ```no_run
//! use std::time::Duration;
//!
//! use dssddi_replica::{ReplicaAgent, ReplicaGroup};
//! use dssddi_serving::demo::demo_catalog;
//! use dssddi_serving::{Client, RetryPolicy, Router, Server};
//!
//! // One replica process (repeat per replica, each listing the OTHERS as
//! // peers; `dssddi-serve --demo --peer ...` is exactly this wiring):
//! let (catalog, _world) = demo_catalog(7)?;
//! let mut router = Router::new(catalog);
//! let state = router.attach_replica();
//! let server = Server::bind("127.0.0.1:7878", router)?;
//! let group = ReplicaGroup::parse(&[
//!     "127.0.0.1:7879".to_string(),
//!     "127.0.0.1:7880".to_string(),
//! ])?
//! .with_seed(1);
//! let agent = ReplicaAgent::new(group, server.router_arc(), state).spawn();
//! std::thread::spawn(move || server.run());
//!
//! // A clinical caller sees the deployment, not a process:
//! let endpoints: Vec<std::net::SocketAddr> = vec![
//!     "127.0.0.1:7878".parse()?,
//!     "127.0.0.1:7879".parse()?,
//!     "127.0.0.1:7880".parse()?,
//! ];
//! // Reads fail over to the healthiest replica: connection faults are
//! // retried, and the seed drives the retry jitter.
//! let mut client = Client::connect_any(&endpoints, Duration::from_secs(1))?;
//! let fail_over = RetryPolicy::new(4, Duration::from_millis(25), Duration::from_millis(400))
//!     .retry_connection_faults(true);
//! client.set_retry_policy(Some(fail_over), 42);
//! # agent.stop();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Replication is a background repair path inside a long-lived gateway: it
// must degrade into counted, retried failures, never panics. The
// `unwrap_used`/`expect_used` denies are inherited from `[workspace.lints]`.

pub mod agent;
pub mod group;
pub mod plan;

pub use agent::{ReplicaAgent, ReplicaHandle, SyncRoundReport};
pub use group::{ReplicaGroup, DEFAULT_PEER_TIMEOUT, DEFAULT_SYNC_INTERVAL};
pub use plan::{merged, plan_pulls, version_lag, PullAction};

// The vocabulary shared with the serving layer, re-exported so replica
// deployments can be wired from this crate alone.
pub use dssddi_serving::{KeyVersions, ReplicaState, ReplicaStats, ServingError, SyncArtifact};
