//! Workspace source discovery: which `.rs` files each pass sees.
//!
//! The analyzer operates on a [`SourceTree`] — a list of files with
//! workspace-relative paths and pre-lexed token streams. The real tree is
//! built by [`SourceTree::load`] walking `crates/*/src` and the root `src/`
//! (vendored crates, `tests/`, `examples/` and `benches/` are excluded:
//! the panic policy governs library and binary code, and vendor code is
//! not ours). Fixture trees in the analyzer's own tests are built with
//! [`SourceTree::from_parts`] from in-memory files.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Lexed};

/// One source file: its workspace-relative path (always `/`-separated) and
/// its lexed content.
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/serving/src/router.rs`.
    pub rel: String,
    /// Raw text (passes that scan doc claims need it rarely; comments are
    /// already split out in `lexed`).
    pub text: String,
    /// The lexed token stream and comments.
    pub lexed: Lexed,
}

/// The set of files under analysis.
pub struct SourceTree {
    /// All files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

impl SourceTree {
    /// Builds a tree from `(relative_path, source_text)` pairs — the entry
    /// point for fixture-based tests.
    pub fn from_parts(parts: &[(&str, &str)]) -> SourceTree {
        let mut files: Vec<SourceFile> = parts
            .iter()
            .map(|(rel, text)| SourceFile {
                rel: rel.replace('\\', "/"),
                text: (*text).to_string(),
                lexed: lexer::lex(text),
            })
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        SourceTree { files }
    }

    /// Walks the workspace rooted at `root`, loading every `.rs` file under
    /// `crates/*/src` and the root `src/`, excluding `vendor/` and any
    /// `tests`, `examples` or `benches` directories.
    pub fn load(root: &Path) -> io::Result<SourceTree> {
        let mut rs_files: Vec<PathBuf> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for crate_dir in crate_dirs {
                let src = crate_dir.join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut rs_files)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, &mut rs_files)?;
        }
        rs_files.sort();

        let mut files = Vec::with_capacity(rs_files.len());
        for path in rs_files {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let lexed = lexer::lex(&text);
            files.push(SourceFile { rel, text, lexed });
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(SourceTree { files })
    }

    /// The files whose relative path starts with any of `prefixes`.
    pub fn with_prefixes<'a>(
        &'a self,
        prefixes: &'a [&'a str],
    ) -> impl Iterator<Item = &'a SourceFile> {
        self.files
            .iter()
            .filter(move |f| prefixes.iter().any(|p| f.rel.starts_with(p)))
    }
}

/// Recursively collects `.rs` files under `dir`, skipping excluded
/// directory names.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            if matches!(name.as_str(), "tests" | "examples" | "benches" | "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to find the workspace root (the first
/// directory whose `Cargo.toml` contains a `[workspace]` table).
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn from_parts_sorts_and_lexes() {
        let tree = SourceTree::from_parts(&[
            ("crates/b/src/lib.rs", "fn b() {}"),
            ("crates/a/src/lib.rs", "fn a() {}"),
        ]);
        assert_eq!(tree.files[0].rel, "crates/a/src/lib.rs");
        assert_eq!(tree.files[1].rel, "crates/b/src/lib.rs");
        assert_eq!(
            tree.with_prefixes(&["crates/a/"]).count(),
            1,
            "prefix filter selects one file"
        );
        assert!(!tree.files[0].lexed.tokens.is_empty());
    }
}
