//! The clinical knowledge-base workflow end to end: ingest a TSV source
//! into a versioned [`KnowledgeBase`], grade prescription critiques with
//! it under different alert policies, persist it to a `DSKB` container,
//! diff two versions, and hot-reload the update into a live serving
//! gateway — all without training a model (the critique path is
//! support-only).
//!
//! Run with: `cargo run --release --example kb_critique`
#![allow(clippy::expect_used)]

use dssddi::kb::{KbChange, KnowledgeBase};
use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let registry = DrugRegistry::standard();
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).expect("ddi");
    let service = ServiceBuilder::fast()
        .build_support(&ddi)
        .expect("support service");

    // --- Ingest: DDI graph seed + curated TSV facts ----------------------
    // Seeding from the graph grades every known edge by its sign
    // (antagonistic -> moderate); the TSV then overrides the pairs a
    // clinician has actually reviewed.
    let mut kb = KnowledgeBase::from_ddi_graph(&ddi, &registry).expect("kb from ddi graph");
    let baseline = kb.clone();
    let tsv = std::fs::read_to_string("examples/data/ddi_kb.tsv").expect("read examples TSV");
    let summary = kb.ingest_tsv(&tsv, &registry).expect("ingest TSV");
    println!(
        "knowledge base v{}: {} facts ({} added, {} updated from the TSV)",
        kb.version(),
        kb.len(),
        summary.added,
        summary.updated
    );

    // --- Diff: what did the curated source change? -----------------------
    let diff = baseline.diff(&kb).expect("same formulary");
    println!("\nreview before shipping — {diff}:");
    for change in diff.changes.iter().take(5) {
        match change {
            KbChange::Added { pair, fact } => println!(
                "  + {} / {}: {} ({})",
                registry.name_of(pair.0).unwrap_or("?"),
                registry.name_of(pair.1).unwrap_or("?"),
                fact.severity,
                fact.evidence,
            ),
            KbChange::Changed { pair, old, new } => println!(
                "  ~ {} / {}: {} -> {}",
                registry.name_of(pair.0).unwrap_or("?"),
                registry.name_of(pair.1).unwrap_or("?"),
                old.severity,
                new.severity,
            ),
            KbChange::Removed { pair, .. } => println!("  - {:?}", pair),
        }
    }

    // --- Critique under alert policies -----------------------------------
    let prescription: Vec<DrugId> = ["Gabapentin", "Isosorbide Mononitrate", "Indapamide"]
        .iter()
        .map(|name| service.resolve_drug(name).expect("drug in formulary"))
        .collect();
    for (label, policy) in [
        ("report everything", AlertPolicy::default()),
        (
            "major and up (outpatient)",
            AlertPolicy::at_least(Severity::Major),
        ),
    ] {
        let report = service
            .check_prescription_with_kb(
                &CheckPrescriptionRequest::new(prescription.clone()).with_policy(policy),
                Some(&kb),
            )
            .expect("critique");
        println!("\npolicy: {label} (kb v{})", report.kb_version.unwrap_or(0));
        for pair in report.antagonistic.iter().chain(&report.synergistic) {
            println!(
                "  [{}] {} + {}: {}{}",
                pair.severity,
                pair.a_name,
                pair.b_name,
                match pair.interaction {
                    Interaction::Antagonistic => "antagonistic",
                    Interaction::Synergistic => "synergistic",
                    Interaction::None => "none",
                },
                pair.management
                    .as_deref()
                    .map(|hint| format!(" — {hint}"))
                    .unwrap_or_default(),
            );
        }
        println!(
            "  max severity: {:?}, SS = {:.3}",
            report.max_severity(),
            report.suggestion_satisfaction
        );
    }

    // --- Persist: save, reload, verify -----------------------------------
    let dir = std::env::temp_dir().join("dssddi-kb-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("clinic.dskb");
    kb.save(&path).expect("save DSKB");
    let reloaded = KnowledgeBase::load(&path).expect("load DSKB");
    assert_eq!(reloaded, kb, "DSKB containers round-trip exactly");
    println!(
        "\nsaved and reloaded {} ({} bytes, v{})",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        reloaded.version()
    );

    // --- Serve and hot-reload under a live key ---------------------------
    let mut catalog = ModelCatalog::new();
    let key = ModelKey::new("clinic").expect("key");
    let gateway_service = ServiceBuilder::fast()
        .build_support(&ddi)
        .expect("gateway shard");
    catalog
        .insert(key.clone(), gateway_service)
        .expect("insert shard");
    let server = Server::bind("127.0.0.1:0", Router::new(catalog)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let mut client =
        Client::connect_timeout(addr, std::time::Duration::from_secs(5)).expect("connect");
    let before = client.kb_info(&key).expect("kb info");
    let container = std::fs::read(&path).expect("read DSKB");
    let after = client.reload_kb(&key, &container).expect("hot reload");
    println!(
        "gateway KB hot-reloaded under live key {key}: v{} -> v{} ({} facts)",
        before.version, after.version, after.n_facts
    );
    let report = client
        .check_prescription(
            &key,
            &CheckPrescriptionRequest::new(prescription)
                .with_policy(AlertPolicy::at_least(Severity::Major)),
        )
        .expect("remote critique");
    assert!(report.has_contraindicated(), "the upgraded grade is live");
    println!(
        "remote critique now grades {} finding(s), max severity {:?}",
        report.antagonistic.len(),
        report.max_severity()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("no panic").expect("clean exit");
    std::fs::remove_file(&path).ok();
    println!("\nkb workflow complete: ingest -> diff -> critique -> save -> serve -> reload");
}
