//! The checked-in baseline: a per-file, per-code finding ratchet.
//!
//! `analysis/baseline.toml` is parsed with a small hand-rolled reader for
//! the TOML subset the file actually uses (`[[allow]]` table headers and
//! `key = value` with integer and string values). The baseline is a
//! *ratchet*: for each `(file, code)` pair it records how many findings are
//! tolerated. Fewer findings than baselined is a *stale* entry (tighten the
//! baseline); more is a *new* finding (fix it or consciously raise the
//! count in the same commit).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::findings::{sort_findings, Finding, FindingCode};

/// The parsed baseline file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Tolerated finding counts keyed by `(file, code)`.
    pub allow: BTreeMap<(String, FindingCode), u32>,
}

/// A baseline parse error with its line number.
#[derive(Debug)]
pub struct BaselineError {
    /// 1-based line of the offending entry (0 for file-level problems).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "baseline.toml:{}: {}", self.line, self.message)
    }
}

impl Baseline {
    /// Reads and parses the baseline file. A missing file is an empty
    /// baseline (the analyzer then reports every finding as new).
    pub fn load(path: &Path) -> Result<Baseline, BaselineError> {
        match fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(BaselineError {
                line: 0,
                message: format!("cannot read {}: {e}", path.display()),
            }),
        }
    }

    /// Parses the baseline TOML subset.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let mut baseline = Baseline::default();
        let mut entry: Option<AllowEntry> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                flush_entry(&mut baseline, entry.take(), lineno)?;
                entry = Some(AllowEntry::default());
                continue;
            }
            if line.starts_with('[') {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("unknown section {line}"),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("expected `key = value`, got {line}"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let Some(e) = entry.as_mut() else {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("key {key:?} outside an [[allow]] entry"),
                });
            };
            match key {
                "file" => e.file = Some(parse_string(value, lineno)?),
                "code" => {
                    let s = parse_string(value, lineno)?;
                    e.code = Some(FindingCode::parse(&s).ok_or(BaselineError {
                        line: lineno,
                        message: format!("unknown finding code {s:?}"),
                    })?);
                }
                "count" => e.count = Some(parse_int(value, lineno)? as u32),
                _ => {
                    return Err(BaselineError {
                        line: lineno,
                        message: format!("unknown [[allow]] key {key:?}"),
                    })
                }
            }
        }
        let end = text.lines().count() as u32;
        flush_entry(&mut baseline, entry.take(), end)?;
        Ok(baseline)
    }

    /// Serializes the baseline back to its canonical on-disk form.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# dssddi-analyze baseline — the finding ratchet.\n\
             #\n\
             # Each [[allow]] entry tolerates `count` findings of `code` in `file`.\n\
             # Counts may only go DOWN: fewer findings than baselined fails the run\n\
             # as a stale entry (run `dssddi-analyze --update-baseline`), more fails\n\
             # it as new findings. Raising a count is a reviewed decision — do it in\n\
             # the commit that adds the finding and justify it there.\n",
        );
        for ((file, code), count) in &self.allow {
            if *count == 0 {
                continue;
            }
            out.push_str("\n[[allow]]\n");
            out.push_str(&format!("file = \"{file}\"\n"));
            out.push_str(&format!("code = \"{}\"\n", code.as_str()));
            out.push_str(&format!("count = {count}\n"));
        }
        out
    }

    /// Builds a baseline that exactly covers `findings`.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut allow: BTreeMap<(String, FindingCode), u32> = BTreeMap::new();
        for f in findings {
            *allow.entry((f.file.clone(), f.code)).or_insert(0) += 1;
        }
        Baseline { allow }
    }
}

/// The outcome of comparing a run's findings against the baseline.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// Findings in `(file, code)` groups that exceed their baseline count.
    /// Every finding of an exceeded group is listed (the analyzer cannot
    /// know which occurrence is "the new one").
    pub new: Vec<Finding>,
    /// Findings fully covered by the baseline.
    pub baselined: Vec<Finding>,
    /// Baseline entries whose count exceeds the actual findings:
    /// `(file, code, baselined_count, actual_count)`.
    pub stale: Vec<(String, FindingCode, u32, u32)>,
}

/// Applies the ratchet: splits findings into new vs baselined and detects
/// stale baseline entries.
pub fn apply_baseline(findings: &[Finding], baseline: &Baseline) -> Ratchet {
    let mut actual: BTreeMap<(String, FindingCode), u32> = BTreeMap::new();
    for f in findings {
        *actual.entry((f.file.clone(), f.code)).or_insert(0) += 1;
    }
    let mut ratchet = Ratchet::default();
    for f in findings {
        let key = (f.file.clone(), f.code);
        let allowed = baseline.allow.get(&key).copied().unwrap_or(0);
        let count = actual.get(&key).copied().unwrap_or(0);
        if count > allowed {
            ratchet.new.push(f.clone());
        } else {
            ratchet.baselined.push(f.clone());
        }
    }
    for ((file, code), &allowed) in &baseline.allow {
        let count = actual.get(&(file.clone(), *code)).copied().unwrap_or(0);
        if count < allowed {
            ratchet.stale.push((file.clone(), *code, allowed, count));
        }
    }
    sort_findings(&mut ratchet.new);
    sort_findings(&mut ratchet.baselined);
    ratchet.stale.sort();
    ratchet
}

#[derive(Default)]
struct AllowEntry {
    file: Option<String>,
    code: Option<FindingCode>,
    count: Option<u32>,
}

fn flush_entry(
    baseline: &mut Baseline,
    entry: Option<AllowEntry>,
    lineno: u32,
) -> Result<(), BaselineError> {
    let Some(e) = entry else { return Ok(()) };
    match (e.file, e.code, e.count) {
        (Some(file), Some(code), Some(count)) => {
            let key = (file, code);
            if baseline.allow.contains_key(&key) {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("duplicate [[allow]] entry for {} {}", key.0, key.1.as_str()),
                });
            }
            baseline.allow.insert(key, count);
            Ok(())
        }
        _ => Err(BaselineError {
            line: lineno,
            message: "[[allow]] entry needs file, code and count".to_string(),
        }),
    }
}

/// Removes a `#`-to-end-of-line comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: u32) -> Result<String, BaselineError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(BaselineError {
            line,
            message: format!("expected a quoted string, got {v}"),
        })
    }
}

fn parse_int(value: &str, line: u32) -> Result<u64, BaselineError> {
    value.trim().parse::<u64>().map_err(|_| BaselineError {
        line,
        message: format!("expected an integer, got {}", value.trim()),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment

[[allow]]
file = "crates/experiments/src/lib.rs"
code = "PANIC001"
count = 3 # trailing comment

[[allow]]
file = "crates/ml/src/ecc.rs"
code = "PANIC002"
count = 1
"#;

    #[test]
    fn parse_and_serialize_round_trip() {
        let b = Baseline::parse(SAMPLE).unwrap();
        assert_eq!(
            b.allow.get(&(
                "crates/experiments/src/lib.rs".to_string(),
                FindingCode::Panic001
            )),
            Some(&3)
        );
        let text = b.serialize();
        let b2 = Baseline::parse(&text).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn ratchet_splits_new_baselined_and_stale() {
        let b = Baseline::parse(SAMPLE).unwrap();
        let findings = vec![
            // 4 PANIC001 in experiments (baseline 3) -> all 4 new.
            Finding::new(
                FindingCode::Panic001,
                "crates/experiments/src/lib.rs",
                1,
                "a".into(),
            ),
            Finding::new(
                FindingCode::Panic001,
                "crates/experiments/src/lib.rs",
                2,
                "b".into(),
            ),
            Finding::new(
                FindingCode::Panic001,
                "crates/experiments/src/lib.rs",
                3,
                "c".into(),
            ),
            Finding::new(
                FindingCode::Panic001,
                "crates/experiments/src/lib.rs",
                4,
                "d".into(),
            ),
            // 0 PANIC002 in ecc.rs (baseline 1) -> stale entry.
        ];
        let r = apply_baseline(&findings, &b);
        assert_eq!(r.new.len(), 4);
        assert_eq!(r.baselined.len(), 0);
        assert_eq!(
            r.stale,
            vec![(
                "crates/ml/src/ecc.rs".to_string(),
                FindingCode::Panic002,
                1,
                0
            )]
        );
    }

    #[test]
    fn covered_findings_are_baselined() {
        let b = Baseline::parse(SAMPLE).unwrap();
        let findings = vec![
            Finding::new(
                FindingCode::Panic001,
                "crates/experiments/src/lib.rs",
                1,
                "a".into(),
            ),
            Finding::new(FindingCode::Panic002, "crates/ml/src/ecc.rs", 9, "e".into()),
        ];
        let r = apply_baseline(&findings, &b);
        assert!(r.new.is_empty());
        assert_eq!(r.baselined.len(), 2);
        // 1 < 3 for PANIC001 -> that entry is stale too.
        assert_eq!(r.stale.len(), 1);
        assert_eq!(r.stale[0].1, FindingCode::Panic001);
    }

    #[test]
    fn parse_errors_carry_lines() {
        let err = Baseline::parse("[[allow]]\nfile = \"x\"\n").unwrap_err();
        assert!(err.message.contains("needs file, code and count"));
        let err = Baseline::parse("[unknown]\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn missing_file_is_empty_baseline() {
        let b = Baseline::load(Path::new("/nonexistent/baseline.toml")).unwrap();
        assert!(b.allow.is_empty());
    }
}
