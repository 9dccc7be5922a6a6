//! `tta-detlint` CLI: lint workspace sources for determinism and
//! concurrency-hygiene hazards.
//!
//! Exit codes follow the other lint CLIs in this tree: `0` clean under
//! the gate, `1` denied findings, `2` usage error.

use std::process::ExitCode;
use tta_detlint::{check_baseline, discover, run, Gate};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tta-detlint [PATHS...] [OPTIONS]\n\
         \n\
         Lints Rust sources for nondeterminism hazards (DL01-DL04),\n\
         concurrency hygiene (DL10-DL12) and audit bookkeeping (DL2x/DL30).\n\
         PATHS are files or directories (default: crates src), searched\n\
         recursively for .rs files; target/, third_party/, fixtures/ and\n\
         golden/ directories are skipped unless named explicitly.\n\
         \n\
         options:\n\
           --json                 line-oriented JSON output (byte-stable)\n\
           --deny warnings|CODE   fail on warnings, or on a specific code\n\
           --allow CODE           never fail on CODE (wins over --deny)\n\
           --threads N            worker threads (0 = auto; output identical)\n\
           --baseline PATH        compare allow inventory against PATH (drift = DL30)\n\
           --write-baseline PATH  write the current allow inventory to PATH\n\
           --list-codes           print the DL code catalog and exit\n\
           -q, --quiet            suppress non-denied diagnostics on stdout"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut json = false;
    let mut quiet = false;
    let mut threads = 0usize;
    let mut gate = Gate::default();
    let mut baseline: Option<String> = None;
    let mut write_baseline: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "-q" | "--quiet" => quiet = true,
            "--deny" => match args.next() {
                Some(v) if v == "warnings" => gate.deny_warnings = true,
                Some(v) => {
                    if tta_detlint::find_code(&v).is_none() {
                        eprintln!("tta-detlint: unknown code in --deny: {v}");
                        return usage();
                    }
                    gate.deny_codes.push(v);
                }
                None => return usage(),
            },
            "--allow" => match args.next() {
                Some(v) => {
                    if tta_detlint::find_code(&v).is_none() {
                        eprintln!("tta-detlint: unknown code in --allow: {v}");
                        return usage();
                    }
                    gate.allow_codes.push(v);
                }
                None => return usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => return usage(),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(v),
                None => return usage(),
            },
            "--write-baseline" => match args.next() {
                Some(v) => write_baseline = Some(v),
                None => return usage(),
            },
            "--list-codes" => {
                for code in tta_detlint::CATALOG {
                    println!(
                        "{:<7} {:<28} {:<8} {}",
                        code.id,
                        code.slug,
                        code.default_severity.name(),
                        code.summary
                    );
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => return usage(),
            other if other.starts_with('-') => {
                eprintln!("tta-detlint: unknown option: {other}");
                return usage();
            }
            other => paths.push(other.to_string()),
        }
    }

    if paths.is_empty() {
        paths = vec!["crates".into(), "src".into()];
    }
    let files = discover(&paths);
    if files.is_empty() {
        eprintln!("tta-detlint: no .rs files under {paths:?}");
        return ExitCode::from(2);
    }

    let mut audit = run(&files, threads);

    if let Some(path) = &write_baseline {
        let text = tta_detlint::render_baseline(&audit.allows_used);
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("tta-detlint: cannot write baseline {path}: {err}");
            return ExitCode::from(2);
        }
        eprintln!(
            "tta-detlint: wrote {} allow entr{} to {path}",
            audit.allows_used.len(),
            if audit.allows_used.len() == 1 {
                "y"
            } else {
                "ies"
            }
        );
    }

    if let Some(path) = &baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => check_baseline(&mut audit, &text, path),
            Err(err) => {
                eprintln!("tta-detlint: cannot read baseline {path}: {err}");
                return ExitCode::from(2);
            }
        }
    }

    let output = if json {
        audit.render_json(&gate)
    } else {
        audit.render(&gate)
    };
    if !quiet || audit.report.denied(&gate).next().is_some() {
        print!("{output}");
    }

    if audit.report.denied(&gate).next().is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
