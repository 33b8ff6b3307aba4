//! Golden wire frames: one byte-exact `DSWR` frame for every request and
//! response variant, plus a traced (version 2) request and response.
//!
//! The round-trip proptests would still pass if both ends renumbered a tag
//! or reordered a field together; these frames would not. Each one must be
//! reproduced byte for byte by the encoder and decode back to its message,
//! so a change to any tag, field order, length prefix or CRC shows up here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)] // tests may panic freely

use std::collections::BTreeSet;

use dssddi_core::{
    CheckPrescriptionRequest, DrugId, Explanation, InteractionReport, PairInteraction, PatientId,
    ScoredDrug, SignedEdge, SuggestFilters, SuggestRequest, SuggestResponse,
};
use dssddi_graph::{Community, Interaction};
use dssddi_kb::{AlertPolicy, KbInfo, Severity};
use dssddi_serving::wire::{
    decode_request, decode_response, encode_request, encode_request_traced, encode_response,
    encode_response_traced, open_wire_frame, open_wire_frame_traced,
};
use dssddi_serving::{
    ErrorCode, GatewayStats, KeyVersions, ModelInfo, ModelKey, ModelStats, ReplicaStats, Request,
    Response, StatsReport, SyncArtifact, TraceExemplar,
};

/// Trace ID carried by the two traced frames.
const TRACE: u64 = 0x0102_0304_0506_0708;

fn key() -> ModelKey {
    ModelKey::new("ck").unwrap()
}

fn versions() -> Vec<KeyVersions> {
    vec![KeyVersions {
        key: key(),
        model_version: 3,
        kb_version: 7,
    }]
}

fn model_info() -> ModelInfo {
    ModelInfo {
        key: key(),
        fitted: true,
        n_drugs: 86,
        n_features: Some(12),
        registry_digest: 0xABCD,
        backbone: "SGCN".into(),
        kb_version: 2,
    }
}

fn kb_info() -> KbInfo {
    KbInfo {
        version: 4,
        n_facts: 10,
        facts_by_severity: [1, 2, 3, 4],
        registry_digest: 0xABCD,
        n_drugs: 86,
    }
}

fn explanation() -> Explanation {
    Explanation {
        suggested: vec![1],
        community: Community {
            nodes: BTreeSet::from([1, 2]),
            edges: vec![(1, 2)],
            trussness: 2,
            diameter: 1,
        },
        edges: vec![SignedEdge {
            u: 1,
            v: 2,
            interaction: Interaction::Synergistic,
        }],
        internal_synergy: 1,
        internal_antagonism: 0,
        external_antagonism: 0,
        suggestion_satisfaction: 0.5,
    }
}

fn suggest_response() -> SuggestResponse {
    SuggestResponse {
        patient: PatientId::new(3),
        drugs: vec![ScoredDrug {
            id: DrugId::new(1),
            name: "a".into(),
            score: 0.75,
        }],
        explanation: explanation(),
        suggestion_satisfaction: 0.5,
    }
}

fn pair(interaction: Interaction, severity: Severity, management: Option<&str>) -> PairInteraction {
    PairInteraction {
        a: DrugId::new(1),
        a_name: "a".into(),
        b: DrugId::new(2),
        b_name: "b".into(),
        interaction,
        severity,
        management: management.map(String::from),
    }
}

/// Every request variant with its frame.
fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Suggest {
                model: key(),
                request: SuggestRequest::new(PatientId::new(3), vec![0.5, -1.25], 2).with_filters(
                    SuggestFilters {
                        exclude: vec![DrugId::new(1)],
                        avoid_antagonists_of: vec![DrugId::new(2)],
                        exclude_contraindicated_with: vec![DrugId::new(4)],
                    },
                ),
            },
            "4453575201005b00000000000000010200000000000000636b030000000000000002000000000000\
             000000003f0000a0bf02000000000000000100000000000000010000000000000001000000000000\
             0002000000000000000100000000000000040000000000000067f155b5",
        ),
        (
            Request::SuggestBatch {
                model: key(),
                requests: vec![SuggestRequest::new(PatientId::new(5), vec![1.0], 1)],
            },
            "4453575201004700000000000000020200000000000000636b010000000000000005000000000000\
             0001000000000000000000803f010000000000000000000000000000000000000000000000000000\
             0000000000a9223a5b",
        ),
        (
            Request::CheckPrescription {
                model: key(),
                request: CheckPrescriptionRequest::new(vec![DrugId::new(1), DrugId::new(2)])
                    .with_policy(AlertPolicy {
                        min_severity: Severity::Major,
                        contraindicated_always_fires: true,
                    })
                    .for_patient(PatientId::new(9)),
            },
            "4453575201002e00000000000000030200000000000000636b010900000000000000020000000000\
             00000100000000000000020000000000000002015b3b1643",
        ),
        (
            Request::ReloadModel {
                model: key(),
                container: b"DSSD".to_vec(),
            },
            "4453575201001700000000000000080200000000000000636b0400000000000000445353440f8e62\
             dc",
        ),
        (
            Request::ReloadKb {
                model: key(),
                container: b"DSKB".to_vec(),
            },
            "4453575201001700000000000000090200000000000000636b040000000000000044534b42b75969\
             2c",
        ),
        (
            Request::KbInfo { model: key() },
            "4453575201000b000000000000000a0200000000000000636be1b96d19",
        ),
        (
            Request::ListModels,
            "445357520100010000000000000004942b6fd5",
        ),
        (Request::Stats, "445357520100010000000000000005021b68a2"),
        (Request::Ping, "44535752010001000000000000000b0536d045"),
        (
            Request::PeerStatus {
                versions: versions(),
            },
            "44535752010023000000000000000c01000000000000000200000000000000636b03000000000000\
             0007000000000000000454c092",
        ),
        (
            Request::PeerSync {
                model: key(),
                artifact: SyncArtifact::Kb,
            },
            "4453575201000c000000000000000d0200000000000000636b01c3898906",
        ),
        (
            Request::TraceDump { limit: 16 },
            "44535752010009000000000000000e100000000000000017fe7052",
        ),
        (Request::Shutdown, "445357520100010000000000000006b84a613b"),
    ]
}

/// Every response variant with its frame.
fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Suggest(suggest_response()),
            "445357520100b7000000000000000103000000000000000100000000000000010000000000000001\
             00000000000000610000403f01000000000000000100000000000000020000000000000001000000\
             00000000020000000000000001000000000000000100000000000000020000000000000002000000\
             00000000010000000000000001000000000000000100000000000000020000000000000001010000\
             000000000000000000000000000000000000000000000000000000e03f000000000000e03f81a410\
             b6",
        ),
        (
            Response::SuggestBatch(vec![suggest_response()]),
            "445357520100bf000000000000000201000000000000000300000000000000010000000000000001\
             000000000000000100000000000000610000403f0100000000000000010000000000000002000000\
             00000000010000000000000002000000000000000100000000000000010000000000000002000000\
             00000000020000000000000001000000000000000100000000000000010000000000000002000000\
             0000000001010000000000000000000000000000000000000000000000000000000000e03f000000\
             000000e03fe971bfb1",
        ),
        (
            Response::CheckPrescription(InteractionReport {
                patient: Some(PatientId::new(9)),
                drugs: suggest_response().drugs,
                antagonistic: vec![pair(
                    Interaction::Antagonistic,
                    Severity::Contraindicated,
                    Some("space"),
                )],
                synergistic: vec![pair(Interaction::Synergistic, Severity::Minor, None)],
                explanation: explanation(),
                suggestion_satisfaction: -0.25,
                kb_version: Some(4),
            }),
            "44535752010028010000000000000301090000000000000001000000000000000100000000000000\
             0100000000000000610000403f010000000000000001000000000000000100000000000000610200\
             00000000000001000000000000006202030105000000000000007370616365010000000000000001\
             00000000000000010000000000000061020000000000000001000000000000006201000001000000\
             00000000010000000000000002000000000000000100000000000000020000000000000001000000\
             00000000010000000000000002000000000000000200000000000000010000000000000001000000\
             00000000010000000000000002000000000000000101000000000000000000000000000000000000\
             0000000000000000000000e03f000000000000d0bf010400000000000000b370ac66",
        ),
        (
            Response::ListModels(vec![model_info()]),
            "44535752010041000000000000000401000000000000000200000000000000636b01560000000000\
             0000010c00000000000000cdab00000000000004000000000000005347434e0200000000000000e7\
             db9a95",
        ),
        (
            Response::Stats(StatsReport {
                models: vec![(
                    key(),
                    ModelStats {
                        requests: 10,
                        errors: 2,
                        errors_by_code: vec![
                            (ErrorCode::UnknownDrug, 1),
                            (ErrorCode::Overloaded, 1),
                        ],
                        cache_hits: 3,
                        cache_misses: 4,
                        p50_ms: 0.25,
                        p99_ms: 1.5,
                        shed_requests: 5,
                        in_flight: 1,
                        queue_depth_hwm: 2,
                        samples: 8,
                    },
                )],
                gateway: GatewayStats {
                    connections_accepted: 1,
                    connections_active: 2,
                    connections_shed: 3,
                    stalled_reaped: 4,
                },
                replica: Some(ReplicaStats {
                    peers: 2,
                    syncs: 5,
                    bytes_shipped: 4096,
                    max_lag: 1,
                    versions: versions(),
                }),
            }),
            "445357520100e0000000000000000501000000000000000200000000000000636b0a000000000000\
             00020000000000000002000000000000000301000000000000000801000000000000000300000000\
             0000000400000000000000000000000000d03f000000000000f83f05000000000000000100000000\
             00000002000000000000000800000000000000010000000000000002000000000000000300000000\
             00000004000000000000000102000000000000000500000000000000001000000000000001000000\
             0000000001000000000000000200000000000000636b03000000000000000700000000000000cdff\
             7b05",
        ),
        (
            Response::ModelReloaded(model_info()),
            "4453575201003900000000000000080200000000000000636b015600000000000000010c00000000\
             000000cdab00000000000004000000000000005347434e0200000000000000620ddf71",
        ),
        (
            Response::KbReloaded(kb_info()),
            "44535752010041000000000000000904000000000000000a00000000000000010000000000000002\
             0000000000000003000000000000000400000000000000cdab000000000000560000000000000098\
             b1f02f",
        ),
        (
            Response::KbInfo(kb_info()),
            "44535752010041000000000000000a04000000000000000a00000000000000010000000000000002\
             0000000000000003000000000000000400000000000000cdab0000000000005600000000000000f3\
             40bf75",
        ),
        (Response::Pong, "44535752010001000000000000000b0536d045"),
        (
            Response::PeerStatus {
                versions: versions(),
            },
            "44535752010023000000000000000c01000000000000000200000000000000636b03000000000000\
             0007000000000000000454c092",
        ),
        (
            Response::PeerSync {
                model: key(),
                artifact: SyncArtifact::Model,
                version: 4,
                container: vec![0xDE, 0xAD],
            },
            "4453575201001e000000000000000d0200000000000000636b000400000000000000020000000000\
             0000dead844c5e8e",
        ),
        (
            Response::TraceDump(vec![TraceExemplar {
                trace_id: 7,
                model: "ck".into(),
                op: "suggest".into(),
                total_micros: 1234,
                stage_micros: [10, 2, 0, 1200, 22],
            }]),
            "4453575201005a000000000000000e01000000000000000700000000000000020000000000000063\
             6b070000000000000073756767657374d2040000000000000a000000000000000200000000000000\
             0000000000000000b0040000000000001600000000000000a948f42f",
        ),
        (
            Response::ShuttingDown,
            "4453575201000100000000000000072e7a664c",
        ),
        (
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "busy".into(),
            },
            "4453575201000e0000000000000000080400000000000000627573794be76066",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// The message tag: the first payload byte of a version-1 frame.
fn tag(frame: &[u8]) -> u8 {
    open_wire_frame(frame).unwrap()[0]
}

#[test]
fn every_request_variant_encodes_to_its_golden_frame() {
    let golden = golden_requests();
    for (request, frame) in &golden {
        assert_eq!(hex(&encode_request(request)), *frame, "{request:?}");
        let bytes = unhex(frame);
        assert_eq!(
            decode_request(open_wire_frame(&bytes).unwrap()).unwrap(),
            *request
        );
    }
    // One frame per tag: 13 request variants, tag 7 unassigned.
    let tags: BTreeSet<u8> = golden.iter().map(|(_, f)| tag(&unhex(f))).collect();
    assert_eq!(
        tags,
        BTreeSet::from([1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14])
    );
}

#[test]
fn every_response_variant_encodes_to_its_golden_frame() {
    let golden = golden_responses();
    for (response, frame) in &golden {
        assert_eq!(hex(&encode_response(response)), *frame, "{response:?}");
        let bytes = unhex(frame);
        assert_eq!(
            decode_response(open_wire_frame(&bytes).unwrap()).unwrap(),
            *response
        );
    }
    // One frame per tag: 14 response variants, tag 6 unassigned.
    let tags: BTreeSet<u8> = golden.iter().map(|(_, f)| tag(&unhex(f))).collect();
    assert_eq!(
        tags,
        BTreeSet::from([0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14])
    );
}

#[test]
fn traced_frames_match_their_golden_bytes() {
    let request = Request::PeerSync {
        model: key(),
        artifact: SyncArtifact::Kb,
    };
    let frame = "445357520200170000000000000001010808070605040302010d0200000000000000636b01acdad6\
                 72";
    assert_eq!(hex(&encode_request_traced(&request, Some(TRACE))), frame);
    let bytes = unhex(frame);
    let (trace, payload) = open_wire_frame_traced(&bytes).unwrap();
    assert_eq!(trace, Some(TRACE));
    assert_eq!(decode_request(payload).unwrap(), request);

    let response = Response::Error {
        code: ErrorCode::Overloaded,
        message: "busy".into(),
    };
    let frame = "44535752020019000000000000000101080807060504030201000804000000000000006275737932\
                 e46776";
    assert_eq!(hex(&encode_response_traced(&response, Some(TRACE))), frame);
    let bytes = unhex(frame);
    let (trace, payload) = open_wire_frame_traced(&bytes).unwrap();
    assert_eq!(trace, Some(TRACE));
    assert_eq!(decode_response(payload).unwrap(), response);
}
