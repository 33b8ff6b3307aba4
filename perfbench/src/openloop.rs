//! The open-loop load generator: one thread and one `Client` per
//! connection, each sending its frames when they are due, whatever the
//! gateway's pace.
//! Latency is timed from the due time, so a stall also charges the
//! requests queued behind it; how late each frame went out is kept too.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use dssddi_core::{InteractionReport, SuggestResponse};
use dssddi_serving::{Client, KbInfo, ModelInfo, ModelKey, ServingError};

use crate::fixture::Fixtures;
use crate::gateway::CLIENT_TIMEOUT;
use crate::traffic::{Frame, Plan, Planned};

/// Lead time between starting the threads and the first due time.
const START_LEAD: Duration = Duration::from_millis(20);

/// A gateway answer kept for the output check.
pub enum Answer {
    Suggest(SuggestResponse),
    SuggestBatch(Vec<SuggestResponse>),
    Check(InteractionReport),
    ModelReloaded(ModelInfo),
    KbReloaded(KbInfo),
}

/// Why a frame failed.
pub enum Failure {
    /// The gateway answered with a typed error frame.
    Typed(String),
    /// The connection or the protocol broke.
    Transport(String),
}

/// What happened to one planned frame.
pub struct Sent<'p> {
    pub planned: &'p Planned,
    /// How late the frame went out against its due time.
    pub late: Duration,
    /// From the due time to the answer.
    pub latency: Duration,
    /// From the actual send to the answer.
    pub service: Duration,
    /// Start of the send, from the phase start.
    pub start: Duration,
    /// The answer (kept only for checked frames) or the failure.
    pub outcome: Result<Option<Answer>, Failure>,
}

/// Runs one phase against the gateway at `addr` and returns every frame's
/// record, in per-connection order. `traced` turns on wire trace ids.
pub fn run<'p>(
    addr: SocketAddr,
    shard: &ModelKey,
    fixtures: &Fixtures,
    plan: &'p Plan,
    traced: bool,
) -> Result<Vec<Sent<'p>>, String> {
    let clients = plan
        .connections
        .iter()
        .map(|_| {
            let mut client = Client::connect_timeout(addr, CLIENT_TIMEOUT)
                .map_err(|e| format!("connecting to the gateway: {e}"))?;
            client.set_tracing(traced);
            Ok(client)
        })
        .collect::<Result<Vec<Client>, String>>()?;
    let start = Instant::now() + START_LEAD;
    let per_connection: Vec<Vec<Sent<'p>>> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plan.connections)
            .map(|(mut client, frames)| {
                s.spawn(move || {
                    frames
                        .iter()
                        .map(|planned| send_when_due(&mut client, shard, fixtures, start, planned))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    Ok(per_connection.into_iter().flatten().collect())
}

fn send_when_due<'p>(
    client: &mut Client,
    shard: &ModelKey,
    fixtures: &Fixtures,
    start: Instant,
    planned: &'p Planned,
) -> Sent<'p> {
    let due = start + planned.due;
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
    let sent = Instant::now();
    let outcome = send(client, shard, fixtures, &planned.frame);
    let done = Instant::now();
    Sent {
        planned,
        late: sent.saturating_duration_since(due),
        latency: done.saturating_duration_since(due),
        service: done - sent,
        start: sent.saturating_duration_since(start),
        outcome: match outcome {
            Ok(answer) => Ok(planned.checked.then_some(answer)),
            Err(e @ ServingError::Remote { .. }) => Err(Failure::Typed(e.to_string())),
            Err(e) => Err(Failure::Transport(e.to_string())),
        },
    }
}

/// Sends one frame and waits for its answer.
pub fn send(
    client: &mut Client,
    shard: &ModelKey,
    fixtures: &Fixtures,
    frame: &Frame,
) -> Result<Answer, ServingError> {
    Ok(match frame {
        Frame::Suggest(request) => Answer::Suggest(client.suggest(shard, request)?),
        Frame::SuggestBatch(requests) => {
            Answer::SuggestBatch(client.suggest_batch(shard, requests)?)
        }
        Frame::Check(request) => Answer::Check(client.check_prescription(shard, request)?),
        Frame::ReloadModel => Answer::ModelReloaded(client.reload_model(shard, &fixtures.fitted)?),
        Frame::ReloadKb => Answer::KbReloaded(client.reload_kb(shard, &fixtures.kb)?),
    })
}
