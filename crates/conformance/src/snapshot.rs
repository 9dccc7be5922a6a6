//! Golden-trace snapshots: deterministic text renderings of
//! verification reports, compared line-by-line against checked-in
//! fixtures so the paper's counterexamples cannot drift silently.
//!
//! Fixtures are plain text built from the crate's `Display` impls. The renderings are
//! deterministic because `verify_cluster` uses sequential BFS, which
//! always finds the same shortest counterexample.
//!
//! To regenerate fixtures after an *intentional* model change, run the
//! affected test with `TTA_BLESS=1`; the test rewrites the fixture and
//! fails once, so blessing is always a visible, deliberate step.

use std::fmt::Write as _;
use std::path::Path;
use tta_core::VerificationReport;
use tta_modelcheck::Verdict;

/// Renders a verification report into the golden fixture format: the
/// config line, the verdict, and the counterexample states step by step.
#[must_use]
pub fn render_verification(report: &VerificationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "config: {}", report.config);
    let _ = writeln!(out, "verdict: {}", verdict_name(report.verdict));
    match &report.counterexample {
        None => {
            let _ = writeln!(out, "counterexample: none");
        }
        Some(trace) => {
            let _ = writeln!(out, "transitions: {}", trace.transition_count());
            for (i, state) in trace.states().iter().enumerate() {
                let _ = writeln!(out, "step {i:>2}: {state}");
            }
        }
    }
    out
}

/// Stable lowercase verdict names (`Verdict` has no `Display`).
#[must_use]
pub fn verdict_name(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Holds => "holds",
        Verdict::Violated => "violated",
        Verdict::BudgetExhausted => "budget exhausted",
    }
}

/// Compares `actual` against the fixture at `path`.
///
/// With `TTA_BLESS=1` in the environment the fixture is rewritten to
/// match and an error is still returned, so a blessing run is visible.
///
/// # Errors
///
/// Returns a per-line diff on mismatch, or the I/O error text if the
/// fixture cannot be read or written.
pub fn compare_golden(path: &Path, actual: &str) -> Result<(), String> {
    let bless = std::env::var_os("TTA_BLESS").is_some_and(|v| v == "1");
    let expected = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if bless => {
            write_fixture(path, actual)?;
            return Err(format!(
                "golden fixture {} did not exist ({err}); wrote it — rerun without TTA_BLESS",
                path.display()
            ));
        }
        Err(err) => {
            return Err(format!(
                "cannot read golden fixture {}: {err} (set TTA_BLESS=1 to create it)",
                path.display()
            ))
        }
    };
    if expected == actual {
        return Ok(());
    }
    if bless {
        write_fixture(path, actual)?;
        return Err(format!(
            "golden fixture {} updated — rerun without TTA_BLESS",
            path.display()
        ));
    }
    Err(format!(
        "golden fixture {} drifted:\n{}",
        path.display(),
        diff_lines(&expected, actual)
    ))
}

fn write_fixture(path: &Path, actual: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, actual).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Unified-ish per-line diff: every differing line as `- expected` /
/// `+ actual`, with line numbers.
#[must_use]
pub fn diff_lines(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..exp.len().max(act.len()) {
        match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => {}
            (e, a) => {
                if let Some(e) = e {
                    let _ = writeln!(out, "  line {:>3} - {e}", i + 1);
                }
                if let Some(a) = a {
                    let _ = writeln!(out, "  line {:>3} + {a}", i + 1);
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("  (difference is in trailing whitespace)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_core::{verify_cluster, ClusterConfig};

    #[test]
    fn rendering_is_deterministic_and_structured() {
        let config = ClusterConfig::paper_trace_cold_start();
        let a = render_verification(&verify_cluster(&config));
        let b = render_verification(&verify_cluster(&config));
        assert_eq!(a, b, "sequential BFS renders identically every run");
        assert!(a.starts_with("config: "), "{a}");
        assert!(a.contains("verdict: violated"), "{a}");
        assert!(a.contains("transitions: "), "{a}");
        assert!(a.contains("step  0: "), "{a}");
    }

    #[test]
    fn holding_configs_render_without_counterexample() {
        let config = ClusterConfig {
            forbid_cold_start_replay: true,
            ..ClusterConfig::paper_trace_cold_start()
        };
        let rendered = render_verification(&verify_cluster(&ClusterConfig {
            out_of_slot_budget: tta_core::FaultBudget::AtMost(0),
            ..config
        }));
        assert!(rendered.contains("verdict: holds"), "{rendered}");
        assert!(rendered.contains("counterexample: none"), "{rendered}");
    }

    #[test]
    fn diff_reports_changed_lines_with_numbers() {
        let diff = diff_lines("a\nb\nc\n", "a\nX\nc\nd\n");
        assert!(diff.contains("line   2 - b"), "{diff}");
        assert!(diff.contains("line   2 + X"), "{diff}");
        assert!(diff.contains("line   4 + d"), "{diff}");
        assert!(!diff.contains("line   1"), "{diff}");
    }

    #[test]
    fn compare_golden_reports_missing_fixture() {
        let err = compare_golden(Path::new("/nonexistent/fixture.trace"), "x").unwrap_err();
        assert!(err.contains("TTA_BLESS"), "{err}");
    }
}
