//! Benchmark fixtures: the containers the gateway serves and the cohort
//! regimens `clinic_mixed` critiques. Everything here derives from
//! [`FIXTURE_SEED`] alone, so the traffic seed can never change what the
//! gateway serves.

use std::fs;
use std::path::{Path, PathBuf};

use dssddi_core::{DecisionService, KnowledgeBase};
use dssddi_data::{generate_chronic_cohort, ChronicConfig};
use dssddi_serving::demo::{demo_catalog, demo_world};
use dssddi_serving::ModelKey;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the fixture world: formulary, DDI graph, trained model, cohort
/// and the patient population suggestions are drawn from.
pub const FIXTURE_SEED: u64 = 7;

/// Shard serving the fitted model (suggestions, and `clinic_mixed` critiques).
pub const FITTED_KEY: &str = "chronic";

/// Shard serving the support-only service (the `critique` workload).
pub const SUPPORT_KEY: &str = "critique";

/// Patients in the cohort whose regimens `clinic_mixed` critiques.
const COHORT_PATIENTS: usize = 2000;

/// Keeps the regimen cohort's random stream apart from the demo world's.
const COHORT_SALT: u64 = 0xc0_4047;

const FITTED_FILE: &str = "chronic.dssd";
const SUPPORT_FILE: &str = "critique.dssd";
const KB_FILE: &str = "formulary.dskb";

/// The gateway's artifacts, as files and as bytes, plus the cohort regimens.
pub struct Fixtures {
    dir: PathBuf,
    /// The fitted `DSSD` container (served under [`FITTED_KEY`], shipped by
    /// `ReloadModel`).
    pub fitted: Vec<u8>,
    /// The support-only `DSSD` container (served under [`SUPPORT_KEY`]).
    pub support: Vec<u8>,
    /// The `DSKB` container paired with both shards (shipped by `ReloadKb`).
    pub kb: Vec<u8>,
    /// Non-empty drug regimens of the fixture cohort, one per patient.
    pub regimens: Vec<Vec<usize>>,
}

impl Fixtures {
    /// Loads the fixture containers from `dir`, training and saving them
    /// first when absent (the first run in a checkout).
    pub fn load_or_build(dir: &Path) -> Result<Self, String> {
        let world = demo_world(FIXTURE_SEED).map_err(|e| format!("building fixture world: {e}"))?;
        let paths = [FITTED_FILE, SUPPORT_FILE, KB_FILE].map(|f| dir.join(f));
        if !paths.iter().all(|p| p.is_file()) {
            fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let (catalog, _) =
                demo_catalog(FIXTURE_SEED).map_err(|e| format!("training fixtures: {e}"))?;
            let key = |k: &str| ModelKey::new(k).map_err(|e| e.to_string());
            let fitted_key = key(FITTED_KEY)?;
            let service = |k: &ModelKey| {
                catalog
                    .service(k)
                    .ok_or_else(|| format!("fixture catalog lacks shard {k}"))
            };
            let kb = catalog
                .kb(&fitted_key)
                .ok_or("fixture catalog lacks a knowledge base")?;
            let bytes = [
                service(&fitted_key)?.to_container_bytes(),
                service(&key(SUPPORT_KEY)?)?.to_container_bytes(),
                kb.to_container_bytes(),
            ];
            for (path, bytes) in paths.iter().zip(&bytes) {
                write_atomically(path, bytes)?;
            }
        }
        let [fitted, support, kb] = paths
            .map(|p| fs::read(&p).map_err(|e| format!("reading fixture {}: {e}", p.display())));
        let cohort = generate_chronic_cohort(
            &world.registry,
            &world.ddi,
            &ChronicConfig {
                n_patients: COHORT_PATIENTS,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(FIXTURE_SEED ^ COHORT_SALT),
        )
        .map_err(|e| format!("generating fixture cohort: {e}"))?;
        let regimens = (0..cohort.n_patients())
            .map(|p| cohort.drugs_of(p))
            .filter(|drugs| !drugs.is_empty())
            .collect();
        Ok(Self {
            dir: dir.to_path_buf(),
            fitted: fitted?,
            support: support?,
            kb: kb?,
            regimens,
        })
    }

    /// `dssddi-serve` arguments that load both shards and pair each with
    /// the fixture knowledge base.
    pub fn gateway_args(&self) -> Vec<String> {
        let path = |file: &str| self.dir.join(file).display().to_string();
        vec![
            format!("{FITTED_KEY}={}", path(FITTED_FILE)),
            format!("{SUPPORT_KEY}={}", path(SUPPORT_FILE)),
            "--kb".to_string(),
            format!("{FITTED_KEY}={}", path(KB_FILE)),
            "--kb".to_string(),
            format!("{SUPPORT_KEY}={}", path(KB_FILE)),
        ]
    }

    /// The fitted service, decoded in-process.
    pub fn fitted_service(&self) -> Result<DecisionService, String> {
        DecisionService::load_with_embedded_registry_bytes(&self.fitted)
            .map_err(|e| format!("decoding fitted fixture: {e}"))
    }

    /// The support-only service, decoded in-process.
    pub fn support_service(&self) -> Result<DecisionService, String> {
        DecisionService::load_with_embedded_registry_bytes(&self.support)
            .map_err(|e| format!("decoding support fixture: {e}"))
    }

    /// The knowledge base, decoded in-process.
    pub fn knowledge_base(&self) -> Result<KnowledgeBase, String> {
        KnowledgeBase::from_container_bytes(&self.kb)
            .map_err(|e| format!("decoding fixture knowledge base: {e}"))
    }
}

/// Writes through a temporary file and a rename, so an interrupted first
/// run never leaves a truncated fixture behind for later runs to load.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("renaming to {}: {e}", path.display()))
}
