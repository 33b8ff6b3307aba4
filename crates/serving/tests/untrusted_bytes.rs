//! Resealed mutants of every sealed artifact a gateway accepts from the
//! network: the demo `DSSD` model containers, the demo `DSKB` knowledge base
//! and one `DSWR` frame per request variant.
//!
//! A CRC-32 detects damage, not intent: any sender can reseal a body. So each
//! mutant — bit flips, an 8-byte window overwritten with a small, huge or
//! `u64::MAX` value, or a truncation — is resealed under its own magic and
//! version with a fresh CRC, and reaches the body decoder. Every case must
//! end in a typed error, or in a working load that then serves requests.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use dssddi_core::{CheckPrescriptionRequest, CoreError, DecisionService, DrugId, SuggestRequest};
use dssddi_kb::KnowledgeBase;
use dssddi_serving::demo::{
    demo_catalog, demo_requests, DEMO_FITTED_KEY, DEMO_SEED, DEMO_SUPPORT_KEY,
};
use dssddi_serving::wire::{decode_request, encode_request, open_wire_frame, RequestTag};
use dssddi_serving::{
    KeyVersions, ModelCatalog, ModelKey, Request, Response, Router, ServingError, SyncArtifact,
};
use dssddi_tensor::serde::{open_frame, seal_frame, FRAME_HEADER_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutants drawn per container, and per request frame.
const CONTAINER_MUTANTS: usize = 300;
const FRAME_MUTANTS: usize = 50;

/// What an 8-byte window is overwritten with: small, length-like and huge
/// values, read as a little-endian `u64`.
const WINDOW_VALUES: [u64; 6] = [0, 1, 255, 1 << 32, u64::MAX / 2, u64::MAX];

/// The demo artifacts, trained once and shared by every test.
struct Fixture {
    chronic: Vec<u8>,
    critique: Vec<u8>,
    kb: Vec<u8>,
    /// Sixteen suggestion requests for held-out patients.
    requests: Vec<SuggestRequest>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (catalog, world) = demo_catalog(DEMO_SEED).unwrap();
        let service = |key| catalog.service(&ModelKey::new(key).unwrap()).unwrap();
        let held_out = demo_requests(&world, world.held_out.len(), 3);
        Fixture {
            chronic: service(DEMO_FITTED_KEY).to_container_bytes(),
            critique: service(DEMO_SUPPORT_KEY).to_container_bytes(),
            kb: catalog
                .kb(&ModelKey::new(DEMO_FITTED_KEY).unwrap())
                .unwrap()
                .to_container_bytes(),
            requests: held_out.into_iter().cycle().take(16).collect(),
        }
    })
}

fn check_request() -> CheckPrescriptionRequest {
    CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59), DrugId::new(3)])
}

/// A router over both demo shards, each paired with the demo KB.
fn demo_router() -> Router {
    let fixture = fixture();
    let mut catalog = ModelCatalog::new();
    for (key, container) in [
        (DEMO_FITTED_KEY, &fixture.chronic),
        (DEMO_SUPPORT_KEY, &fixture.critique),
    ] {
        let service = DecisionService::load_with_embedded_registry_bytes(container).unwrap();
        let kb = KnowledgeBase::from_container_bytes(&fixture.kb).unwrap();
        catalog
            .insert_with_kb(ModelKey::new(key).unwrap(), service, kb)
            .unwrap();
    }
    Router::new(catalog)
}

/// One way of damaging a payload.
#[derive(Debug)]
enum Mutation {
    /// Flip bit `.1` of byte `.0`, for each pair.
    Flips(Vec<(usize, u8)>),
    /// Overwrite the (up to) 8 bytes at `at` with `value`, little-endian.
    Window { at: usize, value: u64 },
    /// Cut the payload to this many bytes.
    Truncate(usize),
}

impl Mutation {
    fn draw(rng: &mut StdRng, len: usize) -> Self {
        match rng.gen_range(0..3) {
            0 => Mutation::Flips(
                (0..rng.gen_range(1..=3))
                    .map(|_| (rng.gen_range(0..len), rng.gen_range(0..8u8)))
                    .collect(),
            ),
            1 => Mutation::Window {
                at: rng.gen_range(0..len),
                value: WINDOW_VALUES[rng.gen_range(0..WINDOW_VALUES.len())],
            },
            _ => Mutation::Truncate(rng.gen_range(0..len)),
        }
    }

    fn apply(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        match self {
            Mutation::Flips(flips) => {
                for &(at, bit) in flips {
                    out[at] ^= 1 << bit;
                }
            }
            Mutation::Window { at, value } => {
                for (byte, new) in out[*at..].iter_mut().zip(value.to_le_bytes()) {
                    *byte = new;
                }
            }
            Mutation::Truncate(len) => out.truncate(*len),
        }
        out
    }
}

/// Runs `check` on `n` seeded mutants of the payload of `frame`, each
/// resealed under the frame's own magic and version with a fresh CRC. A
/// panic is reported with the mutant that caused it.
fn for_each_mutant(seed: u64, n: usize, frame: &[u8], mut check: impl FnMut(&[u8])) {
    let magic: [u8; 4] = frame[..4].try_into().unwrap();
    let version = u16::from_le_bytes([frame[4], frame[5]]);
    let (_, payload) = open_frame(magic, &[version], frame).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let mutation = Mutation::draw(&mut rng, payload.len());
        let sealed = seal_frame(magic, version, &mutation.apply(payload));
        if catch_unwind(AssertUnwindSafe(|| check(&sealed))).is_err() {
            let what = String::from_utf8_lossy(&magic);
            panic!("{what} mutant {i} of seed {seed} ({mutation:?}) panicked");
        }
    }
}

/// Loads each resealed mutant of a `DSSD` container; one that loads must
/// answer a suggestion, a 16-request batch and a critique.
fn model_mutants_fail_typed_or_load_and_serve(seed: u64, container: &[u8]) {
    let fixture = fixture();
    let kb = KnowledgeBase::from_container_bytes(&fixture.kb).unwrap();
    let check = check_request();
    let load_and_serve =
        |sealed: &[u8]| match DecisionService::load_with_embedded_registry_bytes(sealed) {
            Err(CoreError::Persistence { .. }) => {}
            Err(other) => panic!("a damaged container is not a persistence error: {other:?}"),
            Ok(service) => {
                let kb = Some(&kb);
                let _ = service.suggest_with_kb(&fixture.requests[0], kb);
                let _ = service.suggest_batch_with_kb(&fixture.requests, kb);
                let _ = service.check_prescription_with_kb(&check, kb);
            }
        };
    // Loading and serving a model is the costliest check of the suite, so
    // each half of the mutants runs on its own thread.
    std::thread::scope(|scope| {
        for half in [seed, seed + 100] {
            scope.spawn(move || {
                for_each_mutant(half, CONTAINER_MUTANTS / 2, container, load_and_serve)
            });
        }
    });
}

#[test]
fn resealed_fitted_model_mutants_fail_typed_or_load_and_serve() {
    model_mutants_fail_typed_or_load_and_serve(1, &fixture().chronic);
}

#[test]
fn resealed_support_model_mutants_fail_typed_or_load_and_serve() {
    model_mutants_fail_typed_or_load_and_serve(2, &fixture().critique);
}

#[test]
fn resealed_kb_mutants_fail_typed_or_install_and_serve() {
    let fixture = fixture();
    let router = demo_router();
    let model = ModelKey::new(DEMO_FITTED_KEY).unwrap();
    let critique = Request::CheckPrescription {
        model: model.clone(),
        request: check_request(),
    };
    let batch = Request::SuggestBatch {
        model: model.clone(),
        requests: fixture.requests.clone(),
    };
    for_each_mutant(3, CONTAINER_MUTANTS, &fixture.kb, |sealed| {
        let installed = router
            .catalog()
            .install(&model, SyncArtifact::Kb, sealed, None);
        match installed {
            Err(ServingError::Kb(_) | ServingError::FormularyMismatch { .. }) => {}
            Err(other) => panic!("a damaged KB is not a KB error: {other:?}"),
            Ok(_) => {
                let answer = router.serve(&critique);
                assert!(
                    matches!(answer, Response::CheckPrescription(_)),
                    "{answer:?}"
                );
                let answer = router.serve(&batch);
                assert!(matches!(answer, Response::SuggestBatch(_)), "{answer:?}");
            }
        }
    });
}

#[test]
fn resealed_request_frame_mutants_fail_typed_or_serve() {
    let fixture = fixture();
    let router = demo_router();
    let fitted = || ModelKey::new(DEMO_FITTED_KEY).unwrap();
    let support = || ModelKey::new(DEMO_SUPPORT_KEY).unwrap();
    let requests = [
        Request::Suggest {
            model: fitted(),
            request: fixture.requests[0].clone(),
        },
        Request::SuggestBatch {
            model: fitted(),
            requests: fixture.requests[..4].to_vec(),
        },
        Request::CheckPrescription {
            model: support(),
            request: check_request(),
        },
        Request::ListModels,
        Request::Stats,
        Request::Shutdown,
        Request::ReloadModel {
            model: support(),
            container: fixture.critique.clone(),
        },
        Request::ReloadKb {
            model: fitted(),
            container: fixture.kb.clone(),
        },
        Request::KbInfo { model: fitted() },
        Request::Ping,
        Request::PeerStatus {
            versions: vec![KeyVersions {
                key: fitted(),
                model_version: 2,
                kb_version: 1,
            }],
        },
        Request::PeerSync {
            model: support(),
            artifact: SyncArtifact::Kb,
        },
        Request::TraceDump { limit: 4 },
    ];
    let frames = requests.map(|request| encode_request(&request));
    // One frame per request variant: an untraced payload opens with its tag.
    let tags: Vec<_> = frames
        .iter()
        .map(|frame| RequestTag::from_u8(frame[FRAME_HEADER_LEN]))
        .collect();
    assert_eq!(tags, RequestTag::ALL.map(Some));

    for (seed, frame) in (100..).zip(&frames) {
        for_each_mutant(seed, FRAME_MUTANTS, frame, |sealed| {
            let payload = open_wire_frame(sealed).unwrap();
            if let Ok(request) = decode_request(payload) {
                if !matches!(request, Request::Shutdown) {
                    router.serve(&request);
                }
            }
        });
    }
}
