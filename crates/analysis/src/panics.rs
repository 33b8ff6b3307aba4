//! Pass 3: the panic-policy lint.
//!
//! Scans every library/binary source file for `.unwrap()` (PANIC001),
//! `.expect(...)` (PANIC002), the panic!-family macros (PANIC003) and
//! slice/array indexing (PANIC004). Test regions (`#[cfg(test)]` items,
//! `#[test]` functions) are skipped; `tests/`, `examples/` and `benches/`
//! directories never enter the [`SourceTree`] in the first place. Comments and string literals cannot trigger findings
//! because the lexer strips them before this pass runs.
//!
//! The pass is workspace-wide and ratcheted: existing occurrences in
//! research/experiment crates live in `analysis/baseline.toml`; serving-path
//! crates are additionally held at zero by the `[workspace.lints]` clippy
//! denies, so the two mechanisms cross-check each other.

use crate::findings::{Finding, FindingCode};
use crate::lexer::{in_regions, test_regions, TokKind};
use crate::workspace::SourceTree;

/// The macros PANIC003 reports.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Runs the panic-policy pass over every file in the tree.
pub fn check(tree: &SourceTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &tree.files {
        let tokens = &file.lexed.tokens;
        let skip = test_regions(tokens);
        for (i, tok) in tokens.iter().enumerate() {
            if in_regions(&skip, i) {
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
            let next = tokens.get(i + 1);
            match tok.kind {
                TokKind::Ident
                    if tok.text == "unwrap"
                        && prev.is_some_and(|p| p.is_punct('.'))
                        && next.is_some_and(|n| n.is_punct('(')) =>
                {
                    findings.push(Finding::new(
                        FindingCode::Panic001,
                        &file.rel,
                        tok.line,
                        ".unwrap() call".to_string(),
                    ));
                }
                TokKind::Ident
                    if tok.text == "expect"
                        && prev.is_some_and(|p| p.is_punct('.'))
                        && next.is_some_and(|n| n.is_punct('(')) =>
                {
                    findings.push(Finding::new(
                        FindingCode::Panic002,
                        &file.rel,
                        tok.line,
                        ".expect() call".to_string(),
                    ));
                }
                // `name!` — but not `assert!`-style containing the word, and
                // not a path segment like `std::panic::catch_unwind` (there
                // `panic` is followed by `::`, not `!`).
                TokKind::Ident
                    if PANIC_MACROS.contains(&tok.text.as_str())
                        && next.is_some_and(|n| n.is_punct('!')) =>
                {
                    findings.push(Finding::new(
                        FindingCode::Panic003,
                        &file.rel,
                        tok.line,
                        format!("{}! macro", tok.text),
                    ));
                }
                TokKind::Punct if tok.is_punct('[') => {
                    // Indexing: `expr[...]` — the `[` directly follows an
                    // identifier, `)` or `]`. Attributes (`#[`, `#![`) have
                    // `#` or `!` before the bracket and never match; array
                    // literals / types follow `=`, `(`, `,`, `:` etc.
                    let indexing = prev.is_some_and(|p| {
                        (p.kind == TokKind::Ident && !is_keyword_before_bracket(&p.text))
                            || p.is_punct(')')
                            || p.is_punct(']')
                    });
                    if indexing {
                        findings.push(Finding::new(
                            FindingCode::Panic004,
                            &file.rel,
                            tok.line,
                            "slice/array indexing".to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    findings
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, `else [..]`...).
fn is_keyword_before_bracket(ident: &str) -> bool {
    matches!(
        ident,
        "return" | "break" | "in" | "else" | "match" | "if" | "while" | "mut" | "dyn" | "as"
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn finds_each_panic_kind_outside_tests() {
        let src = r#"
//! Doc with .unwrap() that must not count.
fn bad(v: Option<u32>, s: &[u32]) -> u32 {
    let a = v.unwrap();
    let b = v.expect("present");
    if a > 9 { panic!("boom"); }
    let c = s[0];
    a + b + c
}

#[cfg(test)]
mod tests {
    #[test]
    fn free_to_panic() {
        let x: Option<u32> = None;
        x.unwrap();
    }
}
"#;
        let tree = SourceTree::from_parts(&[("crates/x/src/lib.rs", src)]);
        let findings = check(&tree);
        let codes: Vec<_> = findings.iter().map(|f| f.code).collect();
        assert_eq!(
            codes,
            vec![
                FindingCode::Panic001,
                FindingCode::Panic002,
                FindingCode::Panic003,
                FindingCode::Panic004,
            ]
        );
    }

    #[test]
    fn clean_code_yields_nothing() {
        let src = r#"
fn good(v: Option<u32>, s: &[u32]) -> Option<u32> {
    let arr = [1u32, 2, 3];
    let first = s.first().copied()?;
    let ty: [u8; 4] = [0; 4];
    Some(v? + first + u32::from(ty[0].min(arr.len() as u8)))
}
"#;
        // Note: `ty[0]` and `arr.len()` — `ty[0]` IS indexing and must be
        // found; adjust expectation accordingly.
        let tree = SourceTree::from_parts(&[("crates/x/src/lib.rs", src)]);
        let findings = check(&tree);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, FindingCode::Panic004);
    }

    #[test]
    fn attributes_and_macro_paths_do_not_count() {
        let src = r#"
#![allow(dead_code)]
#[derive(Debug)]
struct S;
fn f() {
    let caught = std::panic::catch_unwind(|| 1);
    drop(caught);
    let v = vec![1, 2, 3];
    drop(v);
}
"#;
        let tree = SourceTree::from_parts(&[("crates/x/src/lib.rs", src)]);
        assert!(check(&tree).is_empty());
    }
}
