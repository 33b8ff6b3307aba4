//! Workload composition: which operation each generated request performs
//! and which model shard it targets.
//!
//! * [`WorkloadMix`] — weighted mix over the four data/maintenance
//!   operations a clinical gateway serves ([`OpKind`]).
//! * [`Zipf`] — Zipf-distributed shard choice, the classic hot-shard skew:
//!   with exponent `s`, shard `i` (0-based popularity rank) is picked with
//!   probability ∝ 1/(i+1)^s. Exponent `0` degenerates to uniform.

use rand::rngs::StdRng;
use rand::Rng;

/// One kind of generated gateway operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Single top-k medication suggestion (`Suggest` frame).
    Suggest,
    /// Batched suggestions in one frame (`SuggestBatch`).
    SuggestBatch,
    /// Prescription critique (`CheckPrescription`).
    CheckPrescription,
    /// Knowledge-base hot reload (`ReloadKb`) — the rare maintenance write
    /// mixed into read traffic.
    ReloadKb,
}

impl OpKind {
    /// All kinds, in [`OpKind::index`] order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Suggest,
        OpKind::SuggestBatch,
        OpKind::CheckPrescription,
        OpKind::ReloadKb,
    ];

    /// Stable index into per-kind tally arrays.
    pub fn index(self) -> usize {
        match self {
            OpKind::Suggest => 0,
            OpKind::SuggestBatch => 1,
            OpKind::CheckPrescription => 2,
            OpKind::ReloadKb => 3,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Suggest => "suggest",
            OpKind::SuggestBatch => "suggest_batch",
            OpKind::CheckPrescription => "check_prescription",
            OpKind::ReloadKb => "reload_kb",
        }
    }
}

/// Relative weights of the operation kinds in the generated traffic.
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    weights: [f64; 4],
}

impl WorkloadMix {
    /// Builds a mix from per-kind weights. Weights must be finite and
    /// non-negative with a positive total; they need not sum to 1.
    pub fn new(
        suggest: f64,
        suggest_batch: f64,
        check_prescription: f64,
        reload_kb: f64,
    ) -> Result<Self, String> {
        let weights = [suggest, suggest_batch, check_prescription, reload_kb];
        for (kind, w) in OpKind::ALL.iter().zip(weights) {
            if !w.is_finite() || w < 0.0 {
                return Err(format!(
                    "{} weight must be finite and >= 0, got {w}",
                    kind.name()
                ));
            }
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err("workload mix must have a positive total weight".to_string());
        }
        Ok(WorkloadMix { weights })
    }

    /// Parses a `S:B:C:R` weight spec, e.g. `55:20:24:1`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 4 {
            return Err(format!(
                "mix spec must be S:B:C:R (four weights), got {spec:?}"
            ));
        }
        let mut w = [0.0f64; 4];
        for (slot, part) in w.iter_mut().zip(&parts) {
            *slot = part
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("bad mix weight {part:?}: {e}"))?;
        }
        WorkloadMix::new(w[0], w[1], w[2], w[3])
    }

    /// The weight of one kind.
    #[expect(
        clippy::indexing_slicing,
        reason = "`OpKind::index` is below 4, the number of weights"
    )]
    pub fn weight(&self, kind: OpKind) -> f64 {
        self.weights[kind.index()]
    }

    /// Moves a kind's weight onto `CheckPrescription` — used when a target
    /// gateway cannot serve that kind (no fitted shard for suggestions, no
    /// formulary-compatible shard for reloads), so the offered request
    /// *rate* is preserved even though the composition degrades.
    #[expect(
        clippy::indexing_slicing,
        reason = "`OpKind::index` is below 4, the number of weights"
    )]
    pub fn fold_into_check(&mut self, kind: OpKind) {
        let w = self.weights[kind.index()];
        self.weights[kind.index()] = 0.0;
        self.weights[OpKind::CheckPrescription.index()] += w;
    }

    /// Samples one kind, weight-proportionally.
    #[expect(
        clippy::indexing_slicing,
        reason = "`OpKind::index` is below 4, the number of weights"
    )]
    pub fn sample(&self, rng: &mut StdRng) -> OpKind {
        let total: f64 = self.weights.iter().sum();
        let mut u = rng.gen::<f64>() * total;
        for kind in OpKind::ALL {
            let w = self.weights[kind.index()];
            if w > 0.0 {
                if u < w {
                    return kind;
                }
                u -= w;
            }
        }
        // Rounding fell off the end: return the last positively weighted
        // kind (total > 0 guarantees one exists).
        for kind in OpKind::ALL.iter().rev() {
            if self.weights[kind.index()] > 0.0 {
                return *kind;
            }
        }
        OpKind::CheckPrescription
    }
}

impl Default for WorkloadMix {
    /// A read-heavy clinical mix: mostly single suggestions, a fifth
    /// batches, a quarter prescription critiques, 1% KB reloads.
    fn default() -> Self {
        WorkloadMix {
            weights: [55.0, 20.0, 24.0, 1.0],
        }
    }
}

/// Zipf-distributed choice over `n` popularity-ranked items, sampled by
/// inverting the precomputed CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `n >= 1` items with exponent
    /// `s >= 0` (0 = uniform).
    pub fn new(n: usize, exponent: f64) -> Result<Self, String> {
        if n == 0 {
            return Err("zipf needs at least one item".to_string());
        }
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(format!(
                "zipf exponent must be finite and >= 0, got {exponent}"
            ));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Ok(Zipf { cdf })
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples an item index (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>();
        // First index whose CDF value reaches u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_validates_weights() {
        assert!(WorkloadMix::new(1.0, 0.0, 0.0, 0.0).is_ok());
        assert!(WorkloadMix::new(0.0, 0.0, 0.0, 0.0).is_err());
        assert!(WorkloadMix::new(-1.0, 2.0, 0.0, 0.0).is_err());
        assert!(WorkloadMix::new(f64::NAN, 1.0, 0.0, 0.0).is_err());
        assert!(WorkloadMix::parse("55:20:24:1").is_ok());
        assert!(WorkloadMix::parse("55:20:24").is_err());
        assert!(WorkloadMix::parse("a:b:c:d").is_err());
    }

    #[test]
    fn mix_samples_follow_the_weights() {
        let mix = WorkloadMix::new(3.0, 0.0, 1.0, 0.0).expect("mix");
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 4];
        for _ in 0..4_000 {
            counts[mix.sample(&mut rng).index()] += 1;
        }
        assert_eq!(counts[OpKind::SuggestBatch.index()], 0);
        assert_eq!(counts[OpKind::ReloadKb.index()], 0);
        let suggest = counts[OpKind::Suggest.index()] as f64;
        let check = counts[OpKind::CheckPrescription.index()] as f64;
        let ratio = suggest / check;
        assert!((2.2..4.0).contains(&ratio), "3:1 mix drifted to {ratio}");
    }

    #[test]
    fn folding_preserves_total_weight() {
        let mut mix = WorkloadMix::default();
        let total: f64 = OpKind::ALL.iter().map(|&k| mix.weight(k)).sum();
        mix.fold_into_check(OpKind::Suggest);
        mix.fold_into_check(OpKind::ReloadKb);
        assert_eq!(mix.weight(OpKind::Suggest), 0.0);
        assert_eq!(mix.weight(OpKind::ReloadKb), 0.0);
        let after: f64 = OpKind::ALL.iter().map(|&k| mix.weight(k)).sum();
        assert!((total - after).abs() < 1e-12);
        // Sampling a fully folded mix never emits the folded kinds.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let kind = mix.sample(&mut rng);
            assert!(kind == OpKind::SuggestBatch || kind == OpKind::CheckPrescription);
        }
    }

    #[test]
    fn zipf_skews_toward_the_head() {
        let zipf = Zipf::new(8, 1.2).expect("zipf");
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > 2 * counts[3],
            "rank 0 ({}) must dominate rank 3 ({})",
            counts[0],
            counts[3]
        );
        assert!(counts.iter().all(|&c| c > 0), "tail must still be sampled");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let zipf = Zipf::new(4, 0.0).expect("zipf");
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_600..=2_400).contains(&c), "uniform drifted: {counts:?}");
        }
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(4, f64::NAN).is_err());
    }

    #[test]
    fn zipf_single_item_always_picks_it() {
        let zipf = Zipf::new(1, 1.5).expect("zipf");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }
}
