//! Fixture-based integration tests: each analyzer pass gets a good tree
//! (no findings) and a bad tree (exact finding codes), built in memory via
//! [`SourceTree::from_parts`]. A final self-check loads the real workspace
//! with the checked-in baseline and asserts the ratchet is clean both ways
//! — no new findings, no stale entries.
#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use dssddi_analyze::baseline::{apply_baseline, Baseline};
use dssddi_analyze::findings::FindingCode;
use dssddi_analyze::workspace::SourceTree;
use dssddi_analyze::{analyze, kernels, locks, panics};

fn codes(findings: &[dssddi_analyze::findings::Finding]) -> Vec<FindingCode> {
    findings.iter().map(|f| f.code).collect()
}

// ---------------------------------------------------------------------------
// Pass 1: lock order
// ---------------------------------------------------------------------------

const LOCK_GOOD: &str = r#"
// LOCK ORDER:
//   1. S.a  outer
//   2. S.b  inner

use std::sync::Mutex;

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl S {
    pub fn nested(&self) {
        let ga = self.a.lock();
        let _gb = self.b.lock();
        drop(ga);
    }
}
"#;

const LOCK_BAD_CYCLE: &str = r#"
// LOCK ORDER:
//   1. S.a  outer
//   2. S.b  inner

use std::sync::Mutex;

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl S {
    pub fn forward(&self) {
        let ga = self.a.lock();
        let _gb = self.b.lock();
        drop(ga);
    }
    pub fn backward(&self) {
        let gb = self.b.lock();
        let _ga = self.a.lock();
        drop(gb);
    }
}
"#;

#[test]
fn lock_fixture_good_tree_is_clean() {
    let tree = SourceTree::from_parts(&[("crates/serving/src/fix.rs", LOCK_GOOD)]);
    let findings = locks::check_with_prefixes(&tree, &["crates/serving/src/"]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn lock_fixture_cycle_is_flagged() {
    let tree = SourceTree::from_parts(&[("crates/serving/src/fix.rs", LOCK_BAD_CYCLE)]);
    let findings = locks::check_with_prefixes(&tree, &["crates/serving/src/"]);
    let got = codes(&findings);
    // The reversed acquisition is both a cycle and an order violation.
    assert!(got.contains(&FindingCode::Lock001), "no LOCK001 in {got:?}");
    assert!(got.contains(&FindingCode::Lock005), "no LOCK005 in {got:?}");
}

// ---------------------------------------------------------------------------
// Pass 2: panic policy (through the baseline ratchet)
// ---------------------------------------------------------------------------

const PANIC_BAD: &str = r#"
pub fn parse(s: &str) -> u32 {
    s.parse().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let _: u32 = "7".parse().unwrap();
    }
}
"#;

#[test]
fn panic_fixture_unbaselined_unwrap_is_new() {
    let tree = SourceTree::from_parts(&[("crates/core/src/fix.rs", PANIC_BAD)]);
    let findings = panics::check(&tree);
    // Only the non-test unwrap fires; the #[cfg(test)] one is skipped.
    assert_eq!(
        codes(&findings),
        vec![FindingCode::Panic001],
        "{findings:?}"
    );

    // Through the ratchet with an empty baseline, it surfaces as NEW.
    let all = analyze(&tree);
    let ratchet = apply_baseline(&all, &Baseline::default());
    assert_eq!(ratchet.new.len(), 1);
    assert!(ratchet.baselined.is_empty());

    // With a matching baseline entry it is tolerated.
    let base = Baseline::from_findings(&all);
    let rebaselined = apply_baseline(&all, &base);
    assert!(rebaselined.new.is_empty());
    assert_eq!(rebaselined.baselined.len(), 1);
    assert!(rebaselined.stale.is_empty());
}

// ---------------------------------------------------------------------------
// Pass 3: kernel convention
// ---------------------------------------------------------------------------

const KERNEL_BAD: &str = r#"
/// Adds `a` and `b` elementwise.
pub fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _ = (a, b, out);
}
"#;

#[test]
fn kernel_fixture_output_last_is_flagged() {
    let tree = SourceTree::from_parts(&[("crates/tensor/src/fix.rs", KERNEL_BAD)]);
    let findings = kernels::check(&tree);
    let got = codes(&findings);
    // Output buffer is last (KERNEL001) and the doc lacks the
    // `fully overwrites` marker (KERNEL002).
    assert_eq!(got, vec![FindingCode::Kernel001, FindingCode::Kernel002]);
}

// ---------------------------------------------------------------------------
// Self-check: the real workspace against the checked-in baseline
// ---------------------------------------------------------------------------

#[test]
fn real_workspace_is_clean_against_checked_in_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let base = Baseline::load(&root.join("analysis/baseline.toml")).expect("baseline parses");
    let analysis = dssddi_analyze::analyze_root(&root, &base).expect("workspace loads");
    assert!(
        analysis.ratchet.new.is_empty(),
        "un-baselined findings — fix them or run `dssddi-analyze --update-baseline`:\n{}",
        analysis
            .ratchet
            .new
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        analysis.ratchet.stale.is_empty(),
        "stale baseline entries — run `dssddi-analyze --update-baseline`:\n{}",
        analysis
            .ratchet
            .stale
            .iter()
            .map(|(f, c, want, got)| format!("{f} {c}: baseline allows {want}, saw {got}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
