//! `dssddi-analyze` — the workspace's own static-analysis gate.
//!
//! The serving path has invariants no compiler checks: locks must nest in
//! one documented order, production code must not panic, and `*_into`
//! kernels must honor the scratch-pool contract. This crate walks the
//! workspace's Rust sources with a small hand-rolled lexer ([`lexer`]) — no
//! `syn`, no dependencies — and enforces three passes:
//!
//! 1. **Lock order** ([`locks`]) — extracts every `.read()`/`.write()`/
//!    `.lock()` acquisition on named `RwLock`/`Mutex` fields in
//!    `crates/serving` and `crates/core`, models guard lifetimes, follows
//!    calls between workspace functions, and checks the resulting
//!    acquisition graph for cycles, read→write upgrades and violations of
//!    the canonical `LOCK ORDER:` block in `router.rs`.
//! 2. **Panic policy** ([`panics`]) — flags `.unwrap()`, `.expect()`,
//!    panic!-family macros and slice indexing in non-test library/binary
//!    code, ratcheted by `analysis/baseline.toml`.
//! 3. **Kernel conventions** ([`kernels`]) — every `*_into` kernel in
//!    `crates/tensor`/`crates/gnn` takes its output buffer first and
//!    carries the `fully overwrites` doc marker.
//!
//! The wire registries need no pass: the `DSWR` message tags, error codes
//! and sync artifacts are `#[repr(u8)]` enums in `crates/serving/src/wire.rs`,
//! so rustc rejects a duplicate value (E0081) and the encoder and decoder
//! match on them exhaustively. The serving crate's tests pin the rest: the
//! retired request tag, distinct container magics, golden frames and
//! full-variant round trips.
//!
//! ## Finding codes
//!
//! | Code | Meaning |
//! |------|---------|
//! | `LOCK001` | lock-acquisition cycle (potential deadlock) |
//! | `LOCK002` | read guard upgraded to write in the same scope |
//! | `LOCK003` | lock field missing from the `LOCK ORDER:` block |
//! | `LOCK004` | `LOCK ORDER:` entry names a nonexistent field |
//! | `LOCK005` | acquisition edge contradicts the documented order |
//! | `LOCK006` | lock field name shared by two structs (ambiguous) |
//! | `PANIC001` | `.unwrap()` in non-test code |
//! | `PANIC002` | `.expect()` in non-test code |
//! | `PANIC003` | panic!-family macro in non-test code |
//! | `PANIC004` | slice/array indexing in non-test code |
//! | `KERNEL001` | `*_into` kernel output buffer not first |
//! | `KERNEL002` | `*_into` kernel missing `fully overwrites` marker |
//!
//! `dssddi-analyze --explain CODE` prints the long rationale for any code.
//!
//! ## The ratchet
//!
//! Existing findings live in `analysis/baseline.toml` as per-`(file, code)`
//! counts. A run fails when any count is *exceeded* (new finding) and — in
//! CI, which passes `--deny-stale` — when any count is no longer reached
//! (stale entry; tighten with `--update-baseline`). The baseline only goes
//! down over time.

pub mod baseline;
pub mod findings;
pub mod kernels;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod workspace;

use std::path::Path;

use baseline::{apply_baseline, Baseline, Ratchet};
use findings::{sort_findings, Finding};
use workspace::SourceTree;

/// Runs all three passes over a source tree, returning sorted findings.
pub fn analyze(tree: &SourceTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(locks::check(tree));
    findings.extend(panics::check(tree));
    findings.extend(kernels::check(tree));
    sort_findings(&mut findings);
    findings
}

/// The result of a full workspace run.
pub struct Analysis {
    /// All findings, sorted.
    pub findings: Vec<Finding>,
    /// The ratchet split against the baseline.
    pub ratchet: Ratchet,
}

/// Loads the tree rooted at `root`, runs every pass and applies `base`.
pub fn analyze_root(root: &Path, base: &Baseline) -> std::io::Result<Analysis> {
    let tree = SourceTree::load(root)?;
    let findings = analyze(&tree);
    let ratchet = apply_baseline(&findings, base);
    Ok(Analysis { findings, ratchet })
}
