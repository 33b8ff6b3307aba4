//! Finding codes, findings and the stable report format.
//!
//! Every analysis pass emits [`Finding`]s tagged with a [`FindingCode`].
//! Findings sort by `(file, code, line, message)` so the analyzer's output
//! is deterministic and diffable; CI compares runs textually.

use std::fmt;

/// Every finding code the analyzer can emit, grouped by pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingCode {
    /// Lock-acquisition graph contains a cycle (potential deadlock).
    Lock001,
    /// A read guard is upgraded to a write on the same lock in one scope.
    Lock002,
    /// A lock field is missing from the `LOCK ORDER:` documentation block.
    Lock003,
    /// A `LOCK ORDER:` entry names a field that does not exist.
    Lock004,
    /// A lock-acquisition edge contradicts the documented canonical order.
    Lock005,
    /// Two structs in the scanned crates share a lock field name, making
    /// name-based acquisition attribution ambiguous.
    Lock006,
    /// `.unwrap()` in non-test library/binary code.
    Panic001,
    /// `.expect(...)` in non-test library/binary code.
    Panic002,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code.
    Panic003,
    /// Slice/array indexing (`x[i]`) in non-test library/binary code.
    Panic004,
    /// A `*_into` kernel does not take its output buffer as the first
    /// non-`self` parameter.
    Kernel001,
    /// A `*_into` kernel's doc comment lacks the `fully overwrites` marker.
    Kernel002,
}

/// All codes, in report order.
pub const ALL_CODES: [FindingCode; 12] = [
    FindingCode::Lock001,
    FindingCode::Lock002,
    FindingCode::Lock003,
    FindingCode::Lock004,
    FindingCode::Lock005,
    FindingCode::Lock006,
    FindingCode::Panic001,
    FindingCode::Panic002,
    FindingCode::Panic003,
    FindingCode::Panic004,
    FindingCode::Kernel001,
    FindingCode::Kernel002,
];

impl FindingCode {
    /// The stable textual code (`LOCK001`, `PANIC004`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            FindingCode::Lock001 => "LOCK001",
            FindingCode::Lock002 => "LOCK002",
            FindingCode::Lock003 => "LOCK003",
            FindingCode::Lock004 => "LOCK004",
            FindingCode::Lock005 => "LOCK005",
            FindingCode::Lock006 => "LOCK006",
            FindingCode::Panic001 => "PANIC001",
            FindingCode::Panic002 => "PANIC002",
            FindingCode::Panic003 => "PANIC003",
            FindingCode::Panic004 => "PANIC004",
            FindingCode::Kernel001 => "KERNEL001",
            FindingCode::Kernel002 => "KERNEL002",
        }
    }

    /// Parses a textual code back into a [`FindingCode`].
    pub fn parse(s: &str) -> Option<FindingCode> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }

    /// One-line summary, shown by `--list`.
    pub fn summary(self) -> &'static str {
        match self {
            FindingCode::Lock001 => "lock-acquisition graph contains a cycle (potential deadlock)",
            FindingCode::Lock002 => "read guard upgraded to write on the same lock in one scope",
            FindingCode::Lock003 => "lock field missing from the LOCK ORDER documentation block",
            FindingCode::Lock004 => "LOCK ORDER entry names a field that does not exist",
            FindingCode::Lock005 => "acquisition edge contradicts the documented canonical order",
            FindingCode::Lock006 => "lock field name shared by two structs; attribution ambiguous",
            FindingCode::Panic001 => ".unwrap() in non-test library/binary code",
            FindingCode::Panic002 => ".expect(...) in non-test library/binary code",
            FindingCode::Panic003 => "panic!-family macro in non-test library/binary code",
            FindingCode::Panic004 => "slice/array indexing in non-test library/binary code",
            FindingCode::Kernel001 => "*_into kernel output buffer is not the first parameter",
            FindingCode::Kernel002 => "*_into kernel doc lacks the `fully overwrites` marker",
        }
    }

    /// The long explanation printed by `--explain CODE`.
    pub fn explain(self) -> &'static str {
        match self {
            FindingCode::Lock001 => {
                "LOCK001: lock-acquisition cycle.\n\
                 \n\
                 The analyzer extracts every `.read()`/`.write()`/`.lock()` call on a\n\
                 named RwLock/Mutex field in crates/serving and crates/core, models how\n\
                 long each guard is held (to the end of the statement, or to the end of\n\
                 the enclosing block when let-bound or used in an `if let`/`while let`/\n\
                 `match` header), and adds an edge A -> B whenever lock B is acquired —\n\
                 directly or through a call to another workspace function — while A is\n\
                 held. A cycle in that graph means two threads can acquire the same\n\
                 locks in opposite orders and deadlock.\n\
                 \n\
                 Fix: restructure so one of the edges disappears (drop the first guard\n\
                 before taking the second), or take the locks in the canonical order\n\
                 documented in the `LOCK ORDER:` block in crates/serving/src/router.rs."
            }
            FindingCode::Lock002 => {
                "LOCK002: read-to-write upgrade.\n\
                 \n\
                 A scope that holds a read guard on an RwLock and then calls `.write()`\n\
                 on the same lock self-deadlocks on std's RwLock (writers wait for all\n\
                 readers, including the caller's own guard).\n\
                 \n\
                 Fix: drop the read guard first (end the statement, or an explicit\n\
                 `drop(guard)`), then reacquire for writing; re-validate any state read\n\
                 under the old guard after reacquiring."
            }
            FindingCode::Lock003 => {
                "LOCK003: undocumented lock.\n\
                 \n\
                 Every RwLock/Mutex field in crates/serving and crates/core must appear\n\
                 in the canonical `LOCK ORDER:` comment block (router.rs) so the order\n\
                 check (LOCK005) covers it. Condvars are exempt: they are waited on,\n\
                 not held.\n\
                 \n\
                 Fix: add the field to the LOCK ORDER block at the position consistent\n\
                 with how it nests with the existing locks."
            }
            FindingCode::Lock004 => {
                "LOCK004: stale LOCK ORDER entry.\n\
                 \n\
                 The `LOCK ORDER:` block names a `Struct.field` that no longer exists\n\
                 (renamed or removed). Stale documentation is worse than none — it\n\
                 makes readers reason about locks that are not there.\n\
                 \n\
                 Fix: update or remove the entry."
            }
            FindingCode::Lock005 => {
                "LOCK005: order violation.\n\
                 \n\
                 An acquisition edge A -> B (B acquired while A is held) runs against\n\
                 the canonical order in the `LOCK ORDER:` block, which lists locks in\n\
                 the order they may be nested. Even without a full cycle today, an\n\
                 order violation is a latent deadlock: the reverse edge only has to\n\
                 appear once.\n\
                 \n\
                 Fix: acquire in the documented order, or — if the new nesting is the\n\
                 right one — change the documented order everywhere it is relied on."
            }
            FindingCode::Lock006 => {
                "LOCK006: ambiguous lock field name.\n\
                 \n\
                 Two structs in the scanned crates declare lock fields with the same\n\
                 name. The analyzer attributes `.name.lock()` acquisitions by field\n\
                 name, so shared names make every report about either lock suspect.\n\
                 \n\
                 Fix: rename one of the fields."
            }
            FindingCode::Panic001 | FindingCode::Panic002 | FindingCode::Panic003 => {
                "PANIC001/002/003: panic in library/binary code.\n\
                 \n\
                 The serving path's contract is that malformed input, poisoned locks\n\
                 and overload degrade into typed errors, never panics (a panicking\n\
                 worker thread takes the whole gateway down). `.unwrap()` (PANIC001),\n\
                 `.expect()` (PANIC002) and the panic!-family macros (PANIC003) in\n\
                 non-test, non-example code violate that.\n\
                 \n\
                 Existing occurrences in research/experiment crates are ratcheted in\n\
                 analysis/baseline.toml: the count may go down, never up. New code\n\
                 returns Result instead. For a genuinely impossible state, prefer a\n\
                 typed internal error over expect(); if panic truly is the design\n\
                 (test-support code), move the code under #[cfg(test)] or into tests/."
            }
            FindingCode::Panic004 => {
                "PANIC004: slice/array indexing.\n\
                 \n\
                 `x[i]` panics on out-of-bounds. In kernels this is idiomatic (bounds\n\
                 are checked once per call, then indexing is the fastest correct\n\
                 loop body) — which is why this lint is ratcheted per file in\n\
                 analysis/baseline.toml rather than denied outright. The ratchet\n\
                 keeps serving-path code at zero and stops indexing from creeping\n\
                 into new modules unreviewed.\n\
                 \n\
                 Fix for new findings: use .get()/.get_mut() and handle None, iterate\n\
                 instead of indexing, or — when the bounds proof is genuinely local —\n\
                 raise the file's baseline count in the same commit and say why."
            }
            FindingCode::Kernel001 => {
                "KERNEL001: output buffer not first.\n\
                 \n\
                 Every `*_into` kernel in crates/tensor and crates/gnn takes its\n\
                 output buffer as the first non-`self` parameter (matmul_into,\n\
                 fused_linear_into, matmul_dense_into, ...). Mixed conventions\n\
                 at call sites that pass several `&mut Matrix` scratch buffers\n\
                 are how outputs and inputs get swapped silently.\n\
                 \n\
                 Fix: reorder the parameters (and all call sites) so the output\n\
                 comes first."
            }
            FindingCode::Kernel002 => {
                "KERNEL002: missing overwrite marker.\n\
                 \n\
                 A `*_into` kernel's doc comment must contain the literal phrase\n\
                 `fully overwrites`, documenting that the caller need not zero the\n\
                 buffer (the ScratchPool hands out dirty buffers on purpose). A\n\
                 kernel that actually accumulates into its output must not carry the\n\
                 marker — and must not be named `*_into`.\n\
                 \n\
                 Fix: add the sentence \"... takes its output buffer as the first\n\
                 argument and fully overwrites it\" to the kernel's doc comment —\n\
                 after checking it is true."
            }
        }
    }
}

impl fmt::Display for FindingCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code anchored at a file/line with a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The finding code.
    pub code: FindingCode,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number (0 when the finding is file-scoped).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Builds a finding, normalizing the path separators.
    pub fn new(code: FindingCode, file: &str, line: u32, message: String) -> Finding {
        Finding {
            code,
            file: file.replace('\\', "/"),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.code.as_str(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// Sorts findings into the stable report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.code, a.line, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.code,
            b.line,
            b.message.as_str(),
        ))
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_have_docs() {
        for code in ALL_CODES {
            assert_eq!(FindingCode::parse(code.as_str()), Some(code));
            assert!(!code.summary().is_empty());
            assert!(code.explain().contains(code.as_str()) || code.explain().contains("PANIC"));
        }
        assert_eq!(FindingCode::parse("NOPE999"), None);
    }

    #[test]
    fn findings_sort_stably() {
        let mut findings = vec![
            Finding::new(FindingCode::Panic001, "b.rs", 3, "x".into()),
            Finding::new(FindingCode::Panic001, "a.rs", 9, "y".into()),
            Finding::new(FindingCode::Lock001, "b.rs", 1, "z".into()),
        ];
        sort_findings(&mut findings);
        assert_eq!(findings[0].file, "a.rs");
        assert_eq!(findings[1].code, FindingCode::Lock001);
        assert_eq!(findings[2].line, 3);
    }
}
