//! Experiments E1/E2 and E5 — Section 5.2 verification results and the
//! time the two counterexample traces take.
//!
//! Checks the paper's safety property (*no single coupler fault may
//! prevent any node from integrating or cost it its membership — an
//! integrated node never freezes*) for all four star-coupler authority
//! levels, printing verdicts, state-space sizes and wall-clock times,
//! then times the configurations behind the paper's two narrated traces
//! (E5: the paper generated both "in less than a minute").
//!
//! Paper rows reproduced: passive / time windows / small shifting →
//! property **holds**; full shifting → **counterexample** (frames
//! replayed out of slot).
//!
//! Flags:
//!
//! * `--json [PATH]` — additionally record the four rows (`rows`) and
//!   the two traces (`traces`) machine-readably — verdict,
//!   counterexample length, full exploration statistics, seconds — to
//!   `PATH` (default `verification.json`).

use std::time::Instant;
use tta_analysis::tables::Table;
use tta_base::json::{json_obj, json_rounded, Json};
use tta_bench::{fmt_secs, heading, write_snapshot};
use tta_core::{verify_cluster, ClusterConfig, Verdict, VerificationReport};
use tta_guardian::CouplerAuthority;

fn parse_args() -> Option<String> {
    let mut json = None;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                // Optional path operand, like exp_liveness --bench-json.
                let path = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "verification.json".to_string(),
                };
                json = Some(path);
            }
            other => {
                eprintln!("error: unknown argument {other}");
                eprintln!("usage: exp_verification [--json [PATH]]");
                std::process::exit(2);
            }
        }
    }
    json
}

fn verdict_word(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Holds => "holds",
        Verdict::Violated => "violated",
        Verdict::BudgetExhausted => "budget_exhausted",
    }
}

/// One verification, timed.
fn timed(config: &ClusterConfig) -> (VerificationReport, f64) {
    // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
    let started = Instant::now();
    let report = verify_cluster(config);
    (report, started.elapsed().as_secs_f64())
}

/// One snapshot row: `key: name` first, then the verdict, the
/// exploration statistics and the time.
fn json_row(key: &str, name: &str, report: &VerificationReport, seconds: f64) -> Json {
    let stats = &report.stats;
    json_obj([
        (key, Json::str(name)),
        ("verdict", Json::str(verdict_word(report.verdict))),
        (
            "counterexample_len",
            report
                .counterexample_len()
                .map_or(Json::Null, |l| Json::UInt(l as u64)),
        ),
        ("states_explored", Json::UInt(stats.states_explored)),
        ("transitions", Json::UInt(stats.transitions)),
        ("frontier_peak", Json::UInt(stats.frontier_peak)),
        ("depth_reached", Json::UInt(stats.depth_reached)),
        ("visited_bytes", Json::UInt(stats.visited_bytes)),
        ("seconds", json_rounded(seconds, 6)),
    ])
}

fn trace_len(report: &VerificationReport) -> String {
    report
        .counterexample_len()
        .map_or_else(|| "—".to_string(), |l| format!("{l} slots"))
}

fn main() {
    let json_path = parse_args();
    heading("E1/E2 — star-coupler authority vs. the Section 5 property (4-node cluster)");
    println!("property: AG ((state = active ∨ state = passive) → next(state) ≠ freeze)");
    println!("fault hypothesis: at most one faulty coupler per slot\n");

    let mut table = Table::new([
        "coupler authority",
        "verdict",
        "states explored",
        "trace length",
        "time",
    ]);
    let mut rows = Vec::new();
    for authority in CouplerAuthority::all() {
        let (report, seconds) = timed(&ClusterConfig::paper(authority));
        let verdict = match report.verdict {
            Verdict::Holds => "holds".to_string(),
            Verdict::Violated => "VIOLATED".to_string(),
            Verdict::BudgetExhausted => "budget exhausted".to_string(),
        };
        table.row([
            authority.to_string(),
            verdict,
            report.stats.states_explored.to_string(),
            trace_len(&report),
            fmt_secs(seconds),
        ]);
        rows.push(json_row("authority", authority.token(), &report, seconds));
    }
    println!("{table}");
    println!(
        "paper: \"For the passive, time windows, and small shifting couplers we verify that\n\
         the property above holds. For the configuration that allows any star coupler to\n\
         buffer full frames and replay them in a later time slot, we obtain counter\n\
         examples from the model checker.\""
    );

    heading("E5 — counterexample generation time (paper: \"less than a minute\")");
    let mut table = Table::new(["trace", "states explored", "trace length", "time"]);
    let mut traces = Vec::new();
    for (name, config) in [
        (
            "cold_start_duplication",
            ClusterConfig::paper_trace_cold_start(),
        ),
        ("cstate_duplication", ClusterConfig::paper_trace_cstate()),
    ] {
        let (report, seconds) = timed(&config);
        table.row([
            name.to_string(),
            report.stats.states_explored.to_string(),
            trace_len(&report),
            fmt_secs(seconds),
        ]);
        traces.push(json_row("trace", name, &report, seconds));
    }
    println!("{table}");

    if let Some(path) = json_path {
        let snapshot = json_obj([
            ("snapshot", Json::str("verification_results")),
            ("config", Json::str("paper/4-node")),
            ("rows", Json::Arr(rows)),
            ("traces", Json::Arr(traces)),
        ]);
        write_snapshot(&path, &snapshot);
    }
}
