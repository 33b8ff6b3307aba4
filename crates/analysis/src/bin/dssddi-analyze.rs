//! `dssddi-analyze` — run the workspace static-analysis passes.
//!
//! ```text
//! dssddi-analyze [--root DIR] [--baseline FILE] [--deny-new] [--deny-stale]
//!                [--update-baseline] [--explain CODE] [--list] [--quiet]
//! ```
//!
//! Exit status: `0` when clean, `1` on new findings (and, with
//! `--deny-stale`, on stale baseline entries), `2` on usage or I/O errors.
//! Output is sorted and stable so CI logs diff cleanly between runs.

use std::path::PathBuf;
use std::process::ExitCode;

use dssddi_analyze::baseline::Baseline;
use dssddi_analyze::findings::{FindingCode, ALL_CODES};
use dssddi_analyze::workspace::discover_root;

const USAGE: &str = "\
dssddi-analyze: static-analysis gate for the dssddi workspace

USAGE:
    dssddi-analyze [OPTIONS]

OPTIONS:
    --root DIR          workspace root (default: discovered from cwd)
    --baseline FILE     baseline path (default: ROOT/analysis/baseline.toml)
    --deny-new          fail on non-baselined findings (default behavior,
                        spelled out for CI readability)
    --deny-stale        also fail on stale baseline entries
    --update-baseline   rewrite the baseline to match current findings
    --explain CODE      print the rationale for a finding code and exit
    --list              list all finding codes and exit
    --quiet             suppress baselined findings in the report
    --help              show this help
";

struct Options {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    deny_stale: bool,
    update_baseline: bool,
    explain: Option<String>,
    list: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        baseline: None,
        deny_stale: false,
        update_baseline: false,
        explain: None,
        list: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ))
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a path")?))
            }
            "--deny-new" => {} // the default; accepted so CI invocations self-document
            "--deny-stale" => opts.deny_stale = true,
            "--update-baseline" => opts.update_baseline = true,
            "--explain" => opts.explain = Some(args.next().ok_or("--explain needs a CODE")?),
            "--list" => opts.list = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dssddi-analyze: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for code in ALL_CODES {
            println!("{:<10} {}", code.as_str(), code.summary());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(code_str) = &opts.explain {
        match FindingCode::parse(code_str) {
            Some(code) => {
                println!("{}", code.explain());
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("dssddi-analyze: unknown code {code_str:?} (try --list)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match opts
        .root
        .clone()
        .or_else(|| std::env::current_dir().ok().and_then(|d| discover_root(&d)))
    {
        Some(r) => r,
        None => {
            eprintln!("dssddi-analyze: no workspace root found (use --root)");
            return ExitCode::from(2);
        }
    };
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("analysis").join("baseline.toml"));

    let base = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("dssddi-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let analysis = match dssddi_analyze::analyze_root(&root, &base) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dssddi-analyze: cannot load sources: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.update_baseline {
        let updated = Baseline::from_findings(&analysis.findings);
        if let Some(parent) = baseline_path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("dssddi-analyze: cannot create {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, updated.serialize()) {
            eprintln!(
                "dssddi-analyze: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "dssddi-analyze: baseline updated with {} findings across {} entries",
            analysis.findings.len(),
            updated.allow.len()
        );
        return ExitCode::SUCCESS;
    }

    let r = &analysis.ratchet;
    for f in &r.new {
        println!("NEW  {f}");
    }
    if !opts.quiet {
        for f in &r.baselined {
            println!("ok   {f}");
        }
    }
    for (file, code, allowed, actual) in &r.stale {
        println!(
            "STALE {} {} baseline allows {allowed}, found {actual} (run --update-baseline)",
            code.as_str(),
            file
        );
    }
    println!(
        "dssddi-analyze: {} findings ({} new, {} baselined), {} stale baseline entries",
        analysis.findings.len(),
        r.new.len(),
        r.baselined.len(),
        r.stale.len()
    );

    if !r.new.is_empty() || (opts.deny_stale && !r.stale.is_empty()) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
