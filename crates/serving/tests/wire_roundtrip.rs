//! Property-based coverage of the serving wire protocol: random requests
//! and responses round-trip bit-exactly through encode→frame→decode, and
//! random truncation or bit-flips of frames yield typed errors — never
//! panics, never a wrong-but-accepted message (the CRC catches payload
//! damage; the header checks catch the rest).

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use dssddi_core::{
    CheckPrescriptionRequest, DrugId, Explanation, InteractionReport, PairInteraction, PatientId,
    ScoredDrug, SignedEdge, SuggestFilters, SuggestRequest, SuggestResponse,
};
use dssddi_graph::{Community, Interaction};
use dssddi_kb::{AlertPolicy, KbInfo, Severity};
use dssddi_obs::trace::STAGE_COUNT;
use dssddi_serving::wire::{
    decode_request, decode_response, encode_request, encode_request_traced, encode_response,
    encode_response_traced, open_wire_frame, open_wire_frame_traced, RequestTag, ResponseTag,
    WireError,
};
use dssddi_serving::{
    ErrorCode, GatewayStats, KeyVersions, ModelInfo, ModelKey, ModelStats, ReplicaStats, Request,
    Response, StatsReport, SyncArtifact, TraceExemplar,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies. Floats are drawn as raw bit patterns so NaNs, infinities and
// negative zero all appear; equality below is always on bits.
// ---------------------------------------------------------------------------

fn arb_f32_bits() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(f32::from_bits)
}

fn arb_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_model_key() -> impl Strategy<Value = ModelKey> {
    (1usize..12, any::<u64>()).prop_map(|(len, salt)| {
        let alphabet: Vec<char> = ('a'..='z').chain("0123456789-_./".chars()).collect();
        let key: String = (0..len)
            .map(|i| {
                let mix = salt
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(i as u32);
                alphabet[(mix as usize) % alphabet.len()]
            })
            .collect();
        ModelKey::new(key).expect("alphabet chars are always valid")
    })
}

fn arb_drug_ids() -> impl Strategy<Value = Vec<DrugId>> {
    proptest::collection::vec(0usize..200, 0..5)
        .prop_map(|ids| ids.into_iter().map(DrugId::new).collect())
}

fn arb_suggest_request() -> impl Strategy<Value = SuggestRequest> {
    (
        0usize..10_000,
        proptest::collection::vec(arb_f32_bits(), 0..40),
        0usize..10,
        arb_drug_ids(),
        arb_drug_ids(),
        arb_drug_ids(),
    )
        .prop_map(|(patient, features, k, exclude, avoid, contraindicated)| {
            SuggestRequest::new(PatientId::new(patient), features, k).with_filters(SuggestFilters {
                exclude,
                avoid_antagonists_of: avoid,
                exclude_contraindicated_with: contraindicated,
            })
        })
}

fn arb_severity() -> impl Strategy<Value = Severity> {
    (0u8..4).prop_map(|t| Severity::from_u8(t).expect("tags 0..4 are valid"))
}

fn arb_alert_policy() -> impl Strategy<Value = AlertPolicy> {
    (arb_severity(), any::<bool>()).prop_map(|(min_severity, contraindicated_always_fires)| {
        AlertPolicy {
            min_severity,
            contraindicated_always_fires,
        }
    })
}

fn arb_kb_info() -> impl Strategy<Value = KbInfo> {
    (
        any::<u64>(),
        0usize..100_000,
        proptest::collection::vec(0usize..1000, 4),
        any::<u64>(),
        0usize..10_000,
    )
        .prop_map(
            |(version, n_facts, by_severity, registry_digest, n_drugs)| KbInfo {
                version,
                n_facts,
                facts_by_severity: [
                    by_severity[0],
                    by_severity[1],
                    by_severity[2],
                    by_severity[3],
                ],
                registry_digest,
                n_drugs,
            },
        )
}

fn arb_interaction() -> impl Strategy<Value = Interaction> {
    (0u8..3).prop_map(|t| match t {
        0 => Interaction::None,
        1 => Interaction::Synergistic,
        _ => Interaction::Antagonistic,
    })
}

fn arb_scored_drug() -> impl Strategy<Value = ScoredDrug> {
    (0usize..200, 0usize..30, arb_f32_bits()).prop_map(|(id, name_len, score)| ScoredDrug {
        id: DrugId::new(id),
        name: "drüg-".chars().cycle().take(name_len).collect(),
        score,
    })
}

fn arb_explanation() -> impl Strategy<Value = Explanation> {
    (
        proptest::collection::vec(0usize..100, 0..5),
        proptest::collection::vec(0usize..100, 0..8),
        proptest::collection::vec((0usize..100, 0usize..100), 0..8),
        (0usize..10, 0usize..1000),
        proptest::collection::vec((0usize..100, 0usize..100, arb_interaction()), 0..8),
        (0usize..5, 0usize..5, 0usize..5),
        arb_f64_bits(),
    )
        .prop_map(
            |(suggested, nodes, comm_edges, (trussness, diameter), edges, counts, ss)| {
                Explanation {
                    suggested,
                    community: Community {
                        nodes: nodes.into_iter().collect(),
                        edges: comm_edges,
                        trussness,
                        diameter,
                    },
                    edges: edges
                        .into_iter()
                        .map(|(u, v, interaction)| SignedEdge { u, v, interaction })
                        .collect(),
                    internal_synergy: counts.0,
                    internal_antagonism: counts.1,
                    external_antagonism: counts.2,
                    suggestion_satisfaction: ss,
                }
            },
        )
}

fn arb_suggest_response() -> impl Strategy<Value = SuggestResponse> {
    (
        0usize..10_000,
        proptest::collection::vec(arb_scored_drug(), 0..6),
        arb_explanation(),
        arb_f64_bits(),
    )
        .prop_map(|(patient, drugs, explanation, ss)| SuggestResponse {
            patient: PatientId::new(patient),
            drugs,
            explanation,
            suggestion_satisfaction: ss,
        })
}

fn arb_pair() -> impl Strategy<Value = PairInteraction> {
    (
        0usize..200,
        0usize..200,
        arb_interaction(),
        arb_severity(),
        (any::<bool>(), 0usize..20),
    )
        .prop_map(
            |(a, b, interaction, severity, (has_hint, hint_len))| PairInteraction {
                a: DrugId::new(a),
                a_name: format!("drug-{a}"),
                b: DrugId::new(b),
                b_name: format!("drug-{b}"),
                interaction,
                severity,
                management: has_hint.then(|| "hint-".chars().cycle().take(hint_len).collect()),
            },
        )
}

fn arb_report() -> impl Strategy<Value = InteractionReport> {
    (
        any::<bool>(),
        0usize..10_000,
        proptest::collection::vec(arb_scored_drug(), 0..6),
        proptest::collection::vec(arb_pair(), 0..4),
        proptest::collection::vec(arb_pair(), 0..4),
        arb_explanation(),
        arb_f64_bits(),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(
                has_patient,
                patient,
                drugs,
                antagonistic,
                synergistic,
                explanation,
                ss,
                (has_kb, kb_version),
            )| {
                InteractionReport {
                    patient: has_patient.then_some(PatientId::new(patient)),
                    drugs,
                    antagonistic,
                    synergistic,
                    explanation,
                    suggestion_satisfaction: ss,
                    kb_version: has_kb.then_some(kb_version),
                }
            },
        )
}

fn arb_container() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64)
}

fn arb_check_request() -> impl Strategy<Value = CheckPrescriptionRequest> {
    (
        (any::<bool>(), 0usize..10_000),
        arb_drug_ids(),
        arb_alert_policy(),
    )
        .prop_map(|((has_patient, patient), drugs, policy)| {
            let check = CheckPrescriptionRequest::new(drugs).with_policy(policy);
            if has_patient {
                check.for_patient(PatientId::new(patient))
            } else {
                check
            }
        })
}

fn arb_key_versions() -> impl Strategy<Value = Vec<KeyVersions>> {
    proptest::collection::vec((arb_model_key(), any::<u64>(), any::<u64>()), 0..4).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(key, model_version, kb_version)| KeyVersions {
                    key,
                    model_version,
                    kb_version,
                })
                .collect()
        },
    )
}

fn arb_sync_artifact() -> impl Strategy<Value = SyncArtifact> {
    any::<bool>().prop_map(|kb| {
        if kb {
            SyncArtifact::Kb
        } else {
            SyncArtifact::Model
        }
    })
}

/// One arm per request variant, drawn with equal probability.
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_model_key(), arb_suggest_request())
            .prop_map(|(model, request)| Request::Suggest { model, request }),
        (
            arb_model_key(),
            proptest::collection::vec(arb_suggest_request(), 0..4)
        )
            .prop_map(|(model, requests)| Request::SuggestBatch { model, requests }),
        (arb_model_key(), arb_check_request())
            .prop_map(|(model, request)| Request::CheckPrescription { model, request }),
        (arb_model_key(), arb_container())
            .prop_map(|(model, container)| Request::ReloadModel { model, container }),
        (arb_model_key(), arb_container())
            .prop_map(|(model, container)| Request::ReloadKb { model, container }),
        arb_model_key().prop_map(|model| Request::KbInfo { model }),
        any::<bool>().prop_map(|_| Request::ListModels),
        any::<bool>().prop_map(|_| Request::Stats),
        any::<bool>().prop_map(|_| Request::Ping),
        arb_key_versions().prop_map(|versions| Request::PeerStatus { versions }),
        (arb_model_key(), arb_sync_artifact())
            .prop_map(|(model, artifact)| Request::PeerSync { model, artifact }),
        any::<u64>().prop_map(|limit| Request::TraceDump { limit }),
        any::<bool>().prop_map(|_| Request::Shutdown),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0usize..ErrorCode::ALL.len()).prop_map(|i| ErrorCode::ALL[i])
}

fn arb_model_stats() -> impl Strategy<Value = ModelStats> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((arb_error_code(), any::<u64>()), 0..4),
        any::<u64>(),
        any::<u64>(),
        arb_f64_bits(),
        arb_f64_bits(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                requests,
                errors,
                errors_by_code,
                cache_hits,
                cache_misses,
                p50_ms,
                p99_ms,
                (shed_requests, in_flight, queue_depth_hwm, samples),
            )| {
                ModelStats {
                    requests,
                    errors,
                    errors_by_code,
                    cache_hits,
                    cache_misses,
                    p50_ms,
                    p99_ms,
                    shed_requests,
                    in_flight,
                    queue_depth_hwm,
                    samples,
                }
            },
        )
}

fn arb_model_info() -> impl Strategy<Value = ModelInfo> {
    (arb_model_key(), arb_model_stats(), any::<u64>()).prop_map(|(key, s, kb_version)| ModelInfo {
        key,
        fitted: s.requests % 2 == 0,
        n_drugs: (s.errors % 100) as usize,
        n_features: (s.cache_hits % 2 == 0).then_some((s.cache_hits % 50) as usize),
        registry_digest: s.cache_misses,
        backbone: "SGCN".to_string(),
        kb_version,
    })
}

fn arb_stats_report() -> impl Strategy<Value = StatsReport> {
    (
        proptest::collection::vec((arb_model_key(), arb_model_stats()), 0..4),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), 0usize..5, any::<u64>(), arb_key_versions()),
    )
        .prop_map(|(models, gateway, (replicated, peers, lag, versions))| {
            StatsReport {
                models,
                gateway: GatewayStats {
                    connections_accepted: gateway.0,
                    connections_active: gateway.1,
                    connections_shed: gateway.2,
                    stalled_reaped: gateway.3,
                },
                // Half the generated reports are replicated so the optional
                // trailer round-trips in both states.
                replica: replicated.then_some(ReplicaStats {
                    peers,
                    syncs: gateway.2,
                    bytes_shipped: gateway.3,
                    max_lag: lag,
                    versions,
                }),
            }
        })
}

fn arb_trace_exemplar() -> impl Strategy<Value = TraceExemplar> {
    (
        any::<u64>(),
        (0usize..12, 0usize..20),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), STAGE_COUNT),
    )
        .prop_map(|(trace_id, (model_len, op_len), total_micros, stages)| {
            let mut stage_micros = [0u64; STAGE_COUNT];
            stage_micros.copy_from_slice(&stages);
            // Control-plane exemplars carry an empty model name.
            TraceExemplar {
                trace_id,
                model: "ck-".chars().cycle().take(model_len).collect(),
                op: "op-".chars().cycle().take(op_len).collect(),
                total_micros,
                stage_micros,
            }
        })
}

/// One arm per response variant, drawn with equal probability.
fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_suggest_response().prop_map(Response::Suggest),
        proptest::collection::vec(arb_suggest_response(), 0..3).prop_map(Response::SuggestBatch),
        arb_report().prop_map(Response::CheckPrescription),
        proptest::collection::vec(arb_model_info(), 0..4).prop_map(Response::ListModels),
        arb_stats_report().prop_map(Response::Stats),
        arb_model_info().prop_map(Response::ModelReloaded),
        arb_kb_info().prop_map(Response::KbReloaded),
        arb_kb_info().prop_map(Response::KbInfo),
        any::<bool>().prop_map(|_| Response::Pong),
        arb_key_versions().prop_map(|versions| Response::PeerStatus { versions }),
        (
            arb_model_key(),
            arb_sync_artifact(),
            any::<u64>(),
            arb_container()
        )
            .prop_map(|(model, artifact, version, container)| Response::PeerSync {
                model,
                artifact,
                version,
                container,
            }),
        proptest::collection::vec(arb_trace_exemplar(), 0..3).prop_map(Response::TraceDump),
        any::<bool>().prop_map(|_| Response::ShuttingDown),
        (arb_error_code(), 0usize..40).prop_map(|(code, msg_len)| Response::Error {
            code,
            message: "e".repeat(msg_len),
        }),
    ]
}

// ---------------------------------------------------------------------------
// Bit-exact equality. Derived PartialEq is wrong for NaN-bearing floats, so
// requests/responses are compared through their wire bytes: the encoder is
// deterministic, so value equality (bit-level) implies byte equality.
// ---------------------------------------------------------------------------

fn request_bytes(r: &Request) -> Vec<u8> {
    encode_request(r)
}

fn response_bytes(r: &Response) -> Vec<u8> {
    encode_response(r)
}

proptest! {
    // About seven cases per message kind: the generators draw 13-14 kinds.
    #![proptest_config(ProptestConfig::with_cases(92))]

    /// Requests survive encode→frame-validate→decode bit-exactly.
    #[test]
    fn requests_round_trip_bit_exactly(request in arb_request()) {
        let frame = encode_request(&request);
        let payload = open_wire_frame(&frame).expect("fresh frame validates");
        let back = decode_request(payload).expect("fresh payload decodes");
        prop_assert_eq!(request_bytes(&back), frame);
    }

    /// Responses survive encode→frame-validate→decode bit-exactly,
    /// including NaN/infinity scores and satisfaction values.
    #[test]
    fn responses_round_trip_bit_exactly(response in arb_response()) {
        let frame = encode_response(&response);
        let payload = open_wire_frame(&frame).expect("fresh frame validates");
        let back = decode_response(payload).expect("fresh payload decodes");
        prop_assert_eq!(response_bytes(&back), frame);
    }

    /// Any trace ID rides the version-2 extension block losslessly, and a
    /// `None` trace produces the version-1 frame bit-identically — a traced
    /// client with tracing off is indistinguishable from an old client.
    #[test]
    fn trace_ids_round_trip_through_the_frame_extension(
        request in arb_request(),
        response in arb_response(),
        trace in any::<u64>(),
    ) {
        // Requests.
        let traced = encode_request_traced(&request, Some(trace));
        let (got, payload) = open_wire_frame_traced(&traced).expect("traced frame validates");
        prop_assert_eq!(got, Some(trace));
        let back = decode_request(payload).expect("traced payload decodes");
        prop_assert_eq!(request_bytes(&back), request_bytes(&request));
        let untraced = encode_request_traced(&request, None);
        prop_assert_eq!(&untraced, &encode_request(&request));
        let (got, _) = open_wire_frame_traced(&untraced).expect("v1 frame validates");
        prop_assert_eq!(got, None);

        // Responses, same contract.
        let traced = encode_response_traced(&response, Some(trace));
        let (got, payload) = open_wire_frame_traced(&traced).expect("traced frame validates");
        prop_assert_eq!(got, Some(trace));
        let back = decode_response(payload).expect("traced payload decodes");
        prop_assert_eq!(response_bytes(&back), response_bytes(&response));
        prop_assert_eq!(
            encode_response_traced(&response, None),
            encode_response(&response)
        );
    }

    /// Truncating a traced frame anywhere yields a typed error, never a
    /// panic — the extension block is length-checked like everything else.
    #[test]
    fn truncated_traced_frames_are_typed_errors(
        response in arb_response(),
        trace in any::<u64>(),
        cut_at in any::<proptest::sample::Index>(),
    ) {
        let frame = encode_response_traced(&response, Some(trace));
        let cut = cut_at.index(frame.len());
        prop_assert!(open_wire_frame_traced(&frame[..cut]).is_err());
    }

    /// Truncating a frame anywhere yields a typed error, never a panic.
    #[test]
    fn truncated_frames_are_typed_errors(
        response in arb_response(),
        cut_at in any::<proptest::sample::Index>(),
    ) {
        let frame = encode_response(&response);
        let cut = cut_at.index(frame.len());
        prop_assert!(open_wire_frame(&frame[..cut]).is_err());
        // The streaming reader agrees with the buffer validator.
        let mut stream = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(dssddi_serving::wire::read_frame(&mut stream, 1, None).is_err());
    }

    /// Flipping any single bit of a frame yields a typed error — the header
    /// checks catch damage before the payload, the CRC catches damage inside
    /// it. (Flips confined to the CRC trailer itself also fail, as a
    /// checksum mismatch.)
    #[test]
    fn bit_flips_are_typed_errors(
        request in arb_request(),
        byte_at in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = encode_request(&request);
        let index = byte_at.index(frame.len());
        let mut damaged = frame.clone();
        damaged[index] ^= 1 << bit;
        match open_wire_frame(&damaged) {
            Err(_) => {}
            Ok(payload) => {
                // The only survivable flip is inside the *declared length
                // high bytes*? No: any length change truncates or extends
                // and fails. A flip that still validates must decode to a
                // different message or fail decoding — accepting damaged
                // bytes as the original message is the one forbidden
                // outcome.
                let reencoded = decode_request(payload).map(|r| encode_request(&r));
                prop_assert!(
                    reencoded.map(|bytes| bytes != frame).unwrap_or(true),
                    "bit flip at byte {} bit {} was silently absorbed",
                    index,
                    bit
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The generators draw every registered tag, so the round trips above
    /// cover the whole protocol rather than a subset of it.
    #[test]
    fn generators_draw_every_variant(
        requests in proptest::collection::vec(arb_request(), 256),
        responses in proptest::collection::vec(arb_response(), 256),
    ) {
        let tags = |frames: Vec<Vec<u8>>| -> BTreeSet<u8> {
            frames.iter().map(|f| open_wire_frame(f).expect("validates")[0]).collect()
        };
        let registry = |bytes: &[u8]| bytes.iter().copied().collect::<BTreeSet<u8>>();
        prop_assert_eq!(
            tags(requests.iter().map(encode_request).collect()),
            registry(&RequestTag::ALL.map(|tag| tag as u8))
        );
        prop_assert_eq!(
            tags(responses.iter().map(encode_response).collect()),
            registry(&ResponseTag::ALL.map(|tag| tag as u8))
        );
    }
}

#[test]
fn error_frames_from_wire_module_decode_everywhere() {
    // The server's typed error mapping must survive the wire.
    let error = dssddi_serving::ServingError::UnknownModel {
        key: "nope".to_string(),
        available: vec!["chronic".to_string()],
    };
    let response = dssddi_serving::wire::error_response(&error);
    let frame = encode_response(&response);
    let decoded = decode_response(open_wire_frame(&frame).expect("validates")).expect("decodes");
    match decoded {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnknownModel);
            assert!(message.contains("nope") && message.contains("chronic"));
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn oversized_declared_lengths_error_before_allocation() {
    let frame = encode_request(&Request::ListModels);
    let mut bad = frame;
    bad[6..14].copy_from_slice(&(u64::MAX - 100).to_le_bytes());
    assert!(matches!(
        open_wire_frame(&bad),
        Err(WireError::Oversized { .. })
    ));
    let mut stream = std::io::Cursor::new(bad);
    assert!(matches!(
        dssddi_serving::wire::read_frame(&mut stream, 1, None),
        Err(WireError::Oversized { .. })
    ));
}
