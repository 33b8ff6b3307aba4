//! Property-based coverage of the knowledge-base subsystem: TSV ingestion
//! never panics (malformed rows are typed errors), `DSKB` containers
//! round-trip bit-exactly and reject truncation/bit-flips, and the severity
//! ordering is total.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dssddi_data::DrugRegistry;
use dssddi_kb::{EvidenceLevel, KbError, KbFact, KnowledgeBase, Severity};
use proptest::prelude::*;

fn arb_severity() -> impl Strategy<Value = Severity> {
    (0usize..4).prop_map(|i| Severity::ALL[i])
}

fn arb_evidence() -> impl Strategy<Value = EvidenceLevel> {
    (0usize..4).prop_map(|i| EvidenceLevel::ALL[i])
}

/// Free text with multibyte characters, quotes and separators-adjacent
/// bytes — everything a mechanism/management cell may carry.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..12, 0..12).prop_map(|picks| {
        const ALPHABET: [&str; 12] = ["a", "B", "7", " ", "ü", "血", "-", "_", "\"", "'", ";", "é"];
        picks.iter().map(|&i| ALPHABET[i]).collect()
    })
}

fn arb_fact() -> impl Strategy<Value = KbFact> {
    (arb_severity(), arb_evidence(), arb_text(), arb_text()).prop_map(
        |(severity, evidence, mechanism, management)| KbFact {
            severity,
            evidence,
            mechanism,
            management,
        },
    )
}

/// A populated KB over the standard registry with random facts and a
/// version history.
fn arb_kb() -> impl Strategy<Value = KnowledgeBase> {
    proptest::collection::vec((0usize..86, 0usize..86, arb_fact()), 0..20).prop_map(|facts| {
        let registry = DrugRegistry::standard();
        let mut kb = KnowledgeBase::new(&registry);
        for (a, b, fact) in facts {
            if a != b {
                kb.upsert(a, b, fact).expect("in-range distinct pair");
            }
        }
        kb
    })
}

/// Raw text lines: arbitrary cells joined by tabs, sometimes with the
/// wrong cell count, unknown severities, unresolvable drugs.
fn arb_tsv_source() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(arb_text(), 0..8), 0..8).prop_map(|lines| {
        lines
            .iter()
            .map(|cells| cells.join("\t"))
            .collect::<Vec<_>>()
            .join("\n")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary text fed to the TSV parser is a typed result, never a
    /// panic — and a failed ingest never mutates the KB.
    #[test]
    fn tsv_ingestion_never_panics(source in arb_tsv_source()) {
        let registry = DrugRegistry::standard();
        let mut kb = KnowledgeBase::new(&registry);
        match kb.ingest_tsv(&source, &registry) {
            Ok(_) => {}
            Err(
                KbError::Parse { line, .. }
                | KbError::UnknownDrug { line, .. }
                | KbError::SelfInteraction { line, .. },
            ) => {
                prop_assert!(line >= 1, "error lines are 1-based");
                prop_assert!(kb.is_empty(), "failed ingest must not mutate");
                prop_assert_eq!(kb.version(), 0);
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// Well-formed rows ingest, and the ingested facts read back exactly.
    #[test]
    fn well_formed_rows_ingest_and_read_back(
        pairs in proptest::collection::vec(
            (0usize..86, 0usize..86, arb_severity(), arb_evidence()),
            1..10,
        ),
    ) {
        let registry = DrugRegistry::standard();
        let mut kb = KnowledgeBase::new(&registry);
        let mut rows = String::from("# generated\n");
        let mut expected: std::collections::BTreeMap<(usize, usize), Severity> =
            std::collections::BTreeMap::new();
        for (a, b, severity, evidence) in &pairs {
            if a == b {
                continue;
            }
            rows.push_str(&format!(
                "DID {a}\t{b}\t{}\t{}\tmech\thint\n",
                severity.name().to_uppercase(),
                evidence.name(),
            ));
            expected.insert((*a.min(b), *a.max(b)), *severity);
        }
        let summary = kb.ingest_tsv(&rows, &registry).expect("well-formed rows ingest");
        prop_assert_eq!(summary.added, expected.len());
        prop_assert_eq!(kb.len(), expected.len());
        prop_assert_eq!(kb.version(), u64::from(!expected.is_empty()));
        for (&(a, b), &severity) in &expected {
            let fact = kb.lookup(a, b).expect("ingested fact present");
            prop_assert_eq!(fact.severity, severity);
            prop_assert_eq!(fact.management.as_str(), "hint");
        }
    }

    /// `DSKB` containers round-trip exactly: facts, version and formulary
    /// identity all survive, byte-for-byte re-encoding included.
    #[test]
    fn dskb_containers_round_trip_bit_exactly(kb in arb_kb()) {
        let bytes = kb.to_container_bytes();
        let back = KnowledgeBase::from_container_bytes(&bytes).expect("fresh container decodes");
        prop_assert_eq!(&back, &kb);
        prop_assert_eq!(back.to_container_bytes(), bytes);
    }

    /// Truncating a container anywhere is a typed error, never a panic.
    #[test]
    fn truncated_containers_are_typed_errors(
        kb in arb_kb(),
        cut_at in any::<proptest::sample::Index>(),
    ) {
        let bytes = kb.to_container_bytes();
        let cut = cut_at.index(bytes.len());
        prop_assert!(KnowledgeBase::from_container_bytes(&bytes[..cut]).is_err());
    }

    /// Flipping any single bit of a container is a typed error: header
    /// damage fails the header checks, payload damage fails the CRC, CRC
    /// damage fails the comparison. Accepting damaged bytes is the one
    /// forbidden outcome.
    #[test]
    fn bit_flipped_containers_are_typed_errors(
        kb in arb_kb(),
        byte_at in any::<proptest::sample::Index>(),
        bit in 0usize..8,
    ) {
        let bytes = kb.to_container_bytes();
        let index = byte_at.index(bytes.len());
        let mut damaged = bytes.clone();
        damaged[index] ^= 1 << bit;
        prop_assert!(
            KnowledgeBase::from_container_bytes(&damaged).is_err(),
            "flip at byte {} bit {} was absorbed",
            index,
            bit
        );
    }

    /// The severity order is total and agrees with the byte encoding:
    /// antisymmetric, transitive, and every pair is comparable.
    #[test]
    fn severity_ordering_is_total(
        a in arb_severity(),
        b in arb_severity(),
        c in arb_severity(),
    ) {
        // Comparability + antisymmetry.
        prop_assert_eq!(a.cmp(&b), a.to_u8().cmp(&b.to_u8()));
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        prop_assert_eq!(a == b, a.to_u8() == b.to_u8());
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Round trips through every representation preserve the order.
        prop_assert_eq!(Severity::from_u8(a.to_u8()), Some(a));
        prop_assert_eq!(Severity::parse(a.name()), Some(a));
    }
}
