//! The three workloads and the seeded traffic they offer.
//!
//! Every phase is an open loop over [`CONNECTIONS`] connections: each
//! connection gets its own Poisson arrival schedule at half the phase rate
//! (two independent Poisson streams superpose to one at the full rate), and
//! the frames are drawn from one seeded generator in a fixed order, so the
//! same seed always offers the same frames at the same offsets.

use std::time::Duration;

use dssddi_baselines::{PopulationIter, PopulationSpec};
use dssddi_core::{CheckPrescriptionRequest, DrugId, PatientId, SuggestRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{FITTED_KEY, FIXTURE_SEED, SUPPORT_KEY};

/// Client connections, one generator thread each.
pub const CONNECTIONS: usize = 2;

/// Share of frames whose answers are checked against the in-process service.
const CHECKED_SHARE: f64 = 0.125;

/// Requests in one `SuggestBatch` frame of `clinic_mixed`.
pub const BATCH: usize = 16;

/// A `clinic_mixed` frame kind.
#[derive(Clone, Copy)]
enum Kind {
    Suggest,
    Batch,
    Check,
    Write,
}

/// `clinic_mixed` reads per block of 100 frames; the block's write follows.
const CLINIC_READS: [(Kind, usize); 3] =
    [(Kind::Suggest, 55), (Kind::Batch, 20), (Kind::Check, 24)];

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `CheckPrescription` of 2–4 random drugs on the support-only shard.
    Critique,
    /// `Suggest` for streamed synthetic patients on the fitted shard.
    Suggest,
    /// Suggest, batch, regimen critique and model/KB reloads on the fitted shard.
    ClinicMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Critique, Workload::Suggest, Workload::ClinicMixed];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Critique => "critique",
            Workload::Suggest => "suggest",
            Workload::ClinicMixed => "clinic_mixed",
        }
    }

    /// Offered frame rates of the light and heavy phases, frames/s, chosen
    /// to keep the gateway near half a core or below. At the light rate
    /// the gateway spends about 1.1 ms of CPU per critique, 0.25 ms per
    /// suggestion and 1.7 ms per `clinic_mixed` frame (cohort regimens are
    /// larger than random critiques), so the `clinic_mixed` heavy phase
    /// takes 0.5–0.7 of a core.
    pub fn rates(self) -> [f64; 2] {
        match self {
            Workload::Critique => [150.0, 400.0],
            Workload::Suggest => [500.0, 1500.0],
            Workload::ClinicMixed => [100.0, 300.0],
        }
    }

    /// The shard every frame of the workload is routed to.
    pub fn shard(self) -> &'static str {
        match self {
            Workload::Critique => SUPPORT_KEY,
            Workload::Suggest | Workload::ClinicMixed => FITTED_KEY,
        }
    }
}

/// One frame the client sends.
#[derive(Clone, Debug)]
pub enum Frame {
    Suggest(SuggestRequest),
    SuggestBatch(Vec<SuggestRequest>),
    Check(CheckPrescriptionRequest),
    /// Ship the fixture `DSSD` and hot-swap it in.
    ReloadModel,
    /// Ship the fixture `DSKB` and hot-swap it in.
    ReloadKb,
}

impl Frame {
    /// Individual data-plane requests the frame carries (a batch counts
    /// each of its requests; writes count none).
    pub fn requests(&self) -> u64 {
        match self {
            Frame::Suggest(_) | Frame::Check(_) => 1,
            Frame::SuggestBatch(batch) => batch.len() as u64,
            Frame::ReloadModel | Frame::ReloadKb => 0,
        }
    }

    /// Whether the frame is a control-plane write.
    pub fn is_write(&self) -> bool {
        matches!(self, Frame::ReloadModel | Frame::ReloadKb)
    }

    /// The operation's name, as used in span names.
    pub fn op(&self) -> &'static str {
        match self {
            Frame::Suggest(_) => "suggest",
            Frame::SuggestBatch(_) => "suggest_batch",
            Frame::Check(_) => "check_prescription",
            Frame::ReloadModel => "reload_model",
            Frame::ReloadKb => "reload_kb",
        }
    }
}

/// A frame with its place in the open-loop schedule.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Request id, unique within a run; client and replay spans carry it.
    pub id: u64,
    /// Offset of the frame's due time from the phase start.
    pub due: Duration,
    pub frame: Frame,
    /// Whether the answer is compared with the in-process service.
    pub checked: bool,
}

/// One phase's schedule: a frame list per connection, in due order.
pub struct Plan {
    pub rate: f64,
    pub duration: Duration,
    pub connections: Vec<Vec<Planned>>,
}

impl Plan {
    /// Every planned frame, merged across connections in due order.
    pub fn merged(&self) -> Vec<&Planned> {
        let mut all: Vec<&Planned> = self.connections.iter().flatten().collect();
        all.sort_by_key(|p| (p.due, p.id));
        all
    }
}

/// The seeded source of every frame a run offers.
pub struct TrafficGen<'a> {
    workload: Workload,
    seed: u64,
    rng: StdRng,
    patients: std::iter::Skip<PopulationIter>,
    regimens: &'a [Vec<usize>],
    n_drugs: usize,
    next_id: u64,
    next_plan: u64,
    /// Remaining kinds of the current `clinic_mixed` block, last first.
    block: Vec<Kind>,
    writes: u64,
}

impl<'a> TrafficGen<'a> {
    /// A generator for `workload` seeded by the traffic seed. Patients are
    /// streamed from the fixture [`PopulationSpec`], starting at a
    /// seed-chosen offset: the seed resamples the clinic's patients but
    /// cannot change who the population is. Critique drug sets come from
    /// the `n_drugs` formulary, and `clinic_mixed` draws regimens from the
    /// fixture cohort.
    pub fn new(
        workload: Workload,
        seed: u64,
        n_features: usize,
        n_drugs: usize,
        regimens: &'a [Vec<usize>],
    ) -> Self {
        Self {
            workload,
            seed,
            rng: StdRng::seed_from_u64(seed),
            patients: PopulationSpec::new(FIXTURE_SEED, n_features)
                .patients()
                .skip((seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 47) as usize),
            regimens,
            n_drugs,
            next_id: 0,
            next_plan: 0,
            block: Vec::new(),
            writes: 0,
        }
    }

    /// Plans the next phase: `duration` of Poisson arrivals at `rate`
    /// frames/s, split evenly over the connections.
    pub fn plan(&mut self, rate: f64, duration: Duration) -> Plan {
        self.next_plan += 1;
        let connections = (0..CONNECTIONS)
            .map(|c| {
                let mut arrivals = StdRng::seed_from_u64(
                    self.seed ^ (self.next_plan << 32) ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9),
                );
                let per_connection = rate / CONNECTIONS as f64;
                let mut at = 0.0f64;
                let mut frames = Vec::new();
                loop {
                    // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
                    let u: f64 = arrivals.gen();
                    at += -(1.0 - u).ln() / per_connection;
                    if at >= duration.as_secs_f64() {
                        break;
                    }
                    let frame = self.frame();
                    self.next_id += 1;
                    frames.push(Planned {
                        id: self.next_id,
                        due: Duration::from_secs_f64(at),
                        frame,
                        checked: self.rng.gen_bool(CHECKED_SHARE),
                    });
                }
                frames
            })
            .collect();
        Plan {
            rate,
            duration,
            connections,
        }
    }

    fn frame(&mut self) -> Frame {
        match self.workload {
            Workload::Critique => Frame::Check(self.random_critique()),
            Workload::Suggest => Frame::Suggest(self.suggestion()),
            Workload::ClinicMixed => {
                if self.block.is_empty() {
                    self.refill_block();
                }
                match self.block.pop().expect("a refilled block is not empty") {
                    Kind::Suggest => Frame::Suggest(self.suggestion()),
                    Kind::Batch => {
                        Frame::SuggestBatch((0..BATCH).map(|_| self.suggestion()).collect())
                    }
                    Kind::Check => Frame::Check(self.regimen_critique()),
                    Kind::Write => {
                        self.writes += 1;
                        if self.writes % 2 == 1 {
                            Frame::ReloadModel
                        } else {
                            Frame::ReloadKb
                        }
                    }
                }
            }
        }
    }

    /// A block of 100 `clinic_mixed` kinds in the exact mix ratio: the
    /// reads shuffled, then the write, so writes come exactly 100 frames
    /// apart and every write is followed by the same number of reads.
    fn refill_block(&mut self) {
        // Kinds are popped from the back, so the write goes in front.
        self.block = vec![Kind::Write];
        let first_read = self.block.len();
        self.block.extend(
            CLINIC_READS
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n)),
        );
        for i in (first_read + 1..self.block.len()).rev() {
            let j = self.rng.gen_range(first_read..=i);
            self.block.swap(i, j);
        }
    }

    /// Top-k for the next streamed patient, k uniform in 1..=5.
    fn suggestion(&mut self) -> SuggestRequest {
        let k = self.rng.gen_range(1..=5usize);
        let patient = self
            .patients
            .next()
            .expect("population streams are infinite");
        SuggestRequest::new(PatientId::new(patient.id as usize), patient.features, k)
    }

    /// 2–4 distinct drugs drawn uniformly from the formulary.
    fn random_critique(&mut self) -> CheckPrescriptionRequest {
        let n = self.rng.gen_range(2..=4usize);
        let mut drugs: Vec<DrugId> = Vec::with_capacity(n);
        while drugs.len() < n {
            let d = DrugId::new(self.rng.gen_range(0..self.n_drugs));
            if !drugs.contains(&d) {
                drugs.push(d);
            }
        }
        CheckPrescriptionRequest::new(drugs)
    }

    /// The regimen of a uniformly drawn fixture-cohort patient.
    fn regimen_critique(&mut self) -> CheckPrescriptionRequest {
        let patient = self.rng.gen_range(0..self.regimens.len());
        let drugs = self.regimens[patient]
            .iter()
            .map(|&d| DrugId::new(d))
            .collect();
        CheckPrescriptionRequest::new(drugs).for_patient(PatientId::new(patient))
    }
}
