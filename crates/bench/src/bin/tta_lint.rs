//! `tta_lint` — static analysis of scenarios, properties and fault
//! plans (see `tta-modellint`).
//!
//! Usage:
//!
//! ```text
//! tta_lint [OPTIONS] [PATHS...]
//!
//!   PATHS                scenario files, or directories expanded to
//!                        their *.toml entries (sorted)
//!   --s4                 also lint the built-in S4 property set (the
//!                        per-node liveness/recovery properties across
//!                        all four authority levels)
//!   --json               emit line-oriented JSON instead of rendered
//!                        diagnostics
//!   --deny warnings      fail on any warning-severity diagnostic
//!   --deny CODE          fail on CODE regardless of severity
//!   --allow CODE         never fail on CODE (wins over --deny)
//!   --threads N          worker threads (0 = one per target)
//!   --max-states N       state budget per reachable-space analysis
//!   --evidence           also print per-target evidence (reachable
//!                        states, antecedent witness counts, fault-mode
//!                        coverage); always included in --json output
//! ```
//!
//! Exit status: 0 when nothing is denied, 1 when any denied diagnostic
//! remains (parse errors are always denied), 2 on usage errors.

use std::path::PathBuf;
use tta_modellint::{catalog, lint, AnalysisOptions, Gate, LintOptions};

fn main() {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut gate = Gate::default();
    let mut opts = LintOptions::default();
    let mut json = false;
    let mut evidence = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--s4" => opts.include_s4 = true,
            "--json" => json = true,
            "--evidence" => evidence = true,
            "--deny" => {
                let what = iter
                    .next()
                    .unwrap_or_else(|| usage("--deny needs an argument"));
                if what.eq_ignore_ascii_case("warnings") {
                    gate.deny_warnings = true;
                } else {
                    let code = catalog::find(&what)
                        .unwrap_or_else(|| usage(&format!("unknown lint code `{what}`")));
                    gate.deny_codes.push(code.id.to_string());
                }
            }
            "--allow" => {
                let what = iter
                    .next()
                    .unwrap_or_else(|| usage("--allow needs an argument"));
                let code = catalog::find(&what)
                    .unwrap_or_else(|| usage(&format!("unknown lint code `{what}`")));
                gate.allow_codes.push(code.id.to_string());
            }
            "--threads" => {
                let n = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a number"));
                opts.threads = n
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad thread count `{n}`")));
            }
            "--max-states" => {
                let n = iter
                    .next()
                    .unwrap_or_else(|| usage("--max-states needs a number"));
                opts.analysis = AnalysisOptions {
                    max_states: n
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad state budget `{n}`"))),
                };
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() && !opts.include_s4 {
        usage("nothing to lint: pass scenario paths and/or --s4");
    }

    let run = lint(&paths, &opts);
    if json {
        print!("{}", run.render_json(&gate));
        for ev in &run.evidence {
            println!("{}", ev.render_json());
        }
    } else {
        print!("{}", run.render(&gate));
        if evidence {
            for ev in &run.evidence {
                println!("evidence: {}", ev.render_json());
            }
        }
    }

    if run.report.denied(&gate).next().is_some() {
        std::process::exit(1);
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: tta_lint [--s4] [--json] [--evidence] [--deny warnings|CODE] \
         [--allow CODE] [--threads N] [--max-states N] [PATHS...]"
    );
    std::process::exit(2);
}
