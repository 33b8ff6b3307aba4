//! Persistence: train a [`DecisionService`] once, save it to a `DSSD`
//! container file, reload it (as a serving host would after receiving the
//! file), and verify the reloaded service produces identical suggestions.
//!
//! Run with: `cargo run --release --example save_load`

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. Train a service on the synthetic chronic-disease world (the
    //    "offline training host" half of the deployment).
    let registry = DrugRegistry::standard();
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).expect("ddi");
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 200,
            ..Default::default()
        },
        &mut rng,
    )
    .expect("cohort");
    let drug_features = pretrained_drug_embeddings(
        &registry,
        &DrkgConfig {
            dim: 32,
            epochs: 20,
            ..Default::default()
        },
        &mut rng,
    )
    .expect("TransE embeddings");
    let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng).expect("split");
    let service = ServiceBuilder::fast()
        .hidden_dim(32)
        .fit_chronic(&cohort, &split.train, &drug_features, &ddi, &mut rng)
        .expect("DSSDDI training");

    // 2. Save the fitted service. The file is a versioned `DSSD` container:
    //    magic bytes, format version, payload length, payload, CRC-32.
    let path = std::env::temp_dir().join("dssddi-quicksave.dssd");
    service.save(&path).expect("save");
    let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "Saved fitted service to {} ({file_len} bytes)",
        path.display()
    );

    // 3. Reload it, handing back the registry so typed DrugIds resolve to
    //    the same drugs (the "serving host" half). Loading validates the
    //    registry against the persisted formulary and checksums the file.
    let reloaded = DecisionService::load(&path, DrugRegistry::standard()).expect("load");
    println!("Reloaded service: {reloaded:?}");

    // 4. The reloaded service is byte-identical in behaviour.
    let requests: Vec<SuggestRequest> = split.test[..4]
        .iter()
        .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
        .collect();
    let before = service
        .suggest_batch_with_kb(&requests, None)
        .expect("suggest (original)");
    let after = reloaded
        .suggest_batch_with_kb(&requests, None)
        .expect("suggest (reloaded)");
    for (a, b) in before.iter().zip(&after) {
        println!("{}", a.patient);
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.id, db.id, "rankings must survive the round trip");
            assert_eq!(
                da.score.to_bits(),
                db.score.to_bits(),
                "scores must be bit-identical"
            );
            println!(
                "  {:<24} score {:.4}  (reloaded: {:.4})",
                da.name, da.score, db.score
            );
        }
        assert_eq!(
            a.suggestion_satisfaction.to_bits(),
            b.suggestion_satisfaction.to_bits()
        );
    }
    println!(
        "Original and reloaded services agree bit-for-bit on {} patients.",
        before.len()
    );

    // 5. Damaged files are rejected with typed errors, never panics.
    let mut bytes = std::fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("write corrupted");
    match DecisionService::load(&path, DrugRegistry::standard()) {
        Err(e) => println!("Corrupted file correctly rejected: {e}"),
        Ok(_) => panic!("corrupted file must not load"),
    }
    std::fs::remove_file(&path).ok();
}
