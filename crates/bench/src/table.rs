//! Campaign tables, golden-fixture comparison, and the experiment
//! binaries' shared CLI options: the table shape and comparator behind
//! `exp_fault_injection`, `exp_recovery` and `exp_fuzz` and their
//! `--check` fixtures.

use std::path::{Path, PathBuf};
use tta_base::json::json_string;
use tta_conformance::diff_lines;

/// One cell of a campaign JSON table: a scenario × configuration
/// combination with its outcome counts and derived metrics.
///
/// The experiment binaries that emit machine-readable campaign results
/// (`exp_fault_injection`, `exp_recovery`) share this shape so CI can
/// diff them against golden fixtures with one comparator.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Scenario name (the campaign's `Display` form).
    pub scenario: String,
    /// Topology name.
    pub topology: String,
    /// Guardian authority name.
    pub authority: String,
    /// Restart policy, for recovery campaigns (omitted from the JSON
    /// when `None`).
    pub policy: Option<String>,
    /// Outcome counts in fixed report order.
    pub outcomes: Vec<(&'static str, u64)>,
    /// Derived metrics in fixed report order; `None` renders as `null`.
    pub metrics: Vec<(&'static str, Option<f64>)>,
}

/// A full campaign table destined for JSON output.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJson {
    /// Experiment identifier ("E9", "E10", "E10-smoke").
    pub experiment: String,
    /// Trials per cell.
    pub trials: u32,
    /// All cells, in sweep order.
    pub cells: Vec<CampaignCell>,
}

impl CampaignJson {
    /// Renders the table as deterministic, line-oriented JSON: one cell
    /// per line, floats fixed to four decimals, keys in declaration
    /// order. Laid out by hand (one cell per line) so golden diffs stay
    /// cell-granular; strings go through the codec's escaper.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"experiment\": {},\n",
            json_string(&self.experiment)
        ));
        out.push_str(&format!("  \"trials\": {},\n", self.trials));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let mut fields = vec![
                format!("\"scenario\": {}", json_string(&cell.scenario)),
                format!("\"topology\": {}", json_string(&cell.topology)),
                format!("\"authority\": {}", json_string(&cell.authority)),
            ];
            if let Some(policy) = &cell.policy {
                fields.push(format!("\"policy\": {}", json_string(policy)));
            }
            let outcomes = cell
                .outcomes
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_string(k)))
                .collect::<Vec<_>>()
                .join(", ");
            fields.push(format!("\"outcomes\": {{{outcomes}}}"));
            let metrics = cell
                .metrics
                .iter()
                .map(|(k, v)| {
                    let rendered = v.map_or_else(|| "null".to_string(), |x| format!("{x:.4}"));
                    format!("{}: {rendered}", json_string(k))
                })
                .collect::<Vec<_>>()
                .join(", ");
            fields.push(format!("\"metrics\": {{{metrics}}}"));
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Checks rendered campaign JSON against the golden fixture at `path`,
/// printing a verdict. Returns `false` (and prints
/// [`tta_conformance::diff_lines`]'s per-line diff, so CI failures point
/// at the drifted cells) on drift — callers exit nonzero so CI fails.
#[must_use]
pub fn check_against_golden(path: &Path, actual: &str) -> bool {
    match std::fs::read_to_string(path) {
        Err(e) => {
            eprintln!("error: cannot read golden fixture {}: {e}", path.display());
            false
        }
        Ok(golden) if golden == actual => {
            println!("golden fixture {}: ok", path.display());
            true
        }
        Ok(golden) => {
            eprint!(
                "golden fixture {} drifted:\n{}",
                path.display(),
                diff_lines(&golden, actual)
            );
            false
        }
    }
}

/// Command-line options shared by the campaign experiment binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignArgs {
    /// `--threads N`: pin the campaign worker count.
    pub threads: Option<usize>,
    /// `--json [PATH]`: emit the campaign JSON (to PATH, or stdout).
    pub json: bool,
    /// The PATH given to `--json`, if any.
    pub json_path: Option<PathBuf>,
    /// `--check GOLDEN`: diff the JSON against a golden fixture and
    /// exit nonzero on drift.
    pub check: Option<PathBuf>,
    /// `--smoke`: run the reduced deterministic sweep (only accepted
    /// when the binary offers one).
    pub smoke: bool,
    /// `--daemon [SOCKET]`: route the campaign through the
    /// `tta-campaignd` service instead of running trials inline. With a
    /// SOCKET, talk to the daemon listening there; without one, spin up
    /// a private in-process daemon on a temporary state directory and
    /// tear it down afterwards. Only `exp_recovery` and
    /// `exp_fault_injection` honour it; `exp_fuzz` rejects it.
    pub daemon: bool,
    /// The SOCKET given to `--daemon`, if any.
    pub daemon_socket: Option<PathBuf>,
}

impl CampaignArgs {
    /// Parses `std::env::args`, exiting with the usage string on
    /// errors. `allow_smoke` gates the `--smoke` flag.
    #[must_use]
    pub fn parse(usage: &str, allow_smoke: bool) -> CampaignArgs {
        let mut args = CampaignArgs::default();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => args.threads = Some(n),
                    _ => die(usage, "--threads needs a positive integer"),
                },
                "--json" => {
                    args.json = true;
                    // An optional PATH: consume the next token unless it
                    // is another flag.
                    if let Some(next) = iter.peek() {
                        if !next.starts_with("--") {
                            args.json_path = Some(PathBuf::from(iter.next().expect("peeked")));
                        }
                    }
                }
                "--check" => match iter.next() {
                    Some(path) => args.check = Some(PathBuf::from(path)),
                    None => die(usage, "--check needs a fixture path"),
                },
                "--daemon" => {
                    args.daemon = true;
                    // Like --json: an optional operand.
                    if let Some(next) = iter.peek() {
                        if !next.starts_with("--") {
                            args.daemon_socket = Some(PathBuf::from(iter.next().expect("peeked")));
                        }
                    }
                }
                "--smoke" if allow_smoke => args.smoke = true,
                other => die(usage, &format!("unknown argument {other}")),
            }
        }
        args
    }
}

/// Prints `error: WHY` and the usage line, then exits with status 2 —
/// how every campaign binary rejects its command line.
pub fn die(usage: &str, why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> CampaignJson {
        CampaignJson {
            experiment: "E10-smoke".to_string(),
            trials: 12,
            cells: vec![
                CampaignCell {
                    scenario: "SOS sender".to_string(),
                    topology: "star".to_string(),
                    authority: "passive".to_string(),
                    policy: Some("never".to_string()),
                    outcomes: vec![("contained", 12), ("recovered", 0)],
                    metrics: vec![("availability", Some(0.98765)), ("mean_ttr", None)],
                },
                CampaignCell {
                    scenario: "coupler replay (out-of-slot)".to_string(),
                    topology: "star".to_string(),
                    authority: "passive".to_string(),
                    policy: None,
                    outcomes: vec![("contained", 0)],
                    metrics: vec![],
                },
            ],
        }
    }

    #[test]
    fn campaign_json_is_line_oriented_and_stable() {
        let rendered = sample_json().render();
        assert!(rendered.contains("\"experiment\": \"E10-smoke\""));
        assert!(rendered.contains("\"policy\": \"never\""));
        // Floats pinned to four decimals, None to null.
        assert!(rendered.contains("\"availability\": 0.9877"));
        assert!(rendered.contains("\"mean_ttr\": null"));
        // The policy-free cell omits the key entirely.
        assert_eq!(rendered.matches("\"policy\"").count(), 1);
        // One cell per line keeps golden diffs cell-granular.
        assert_eq!(rendered.lines().count(), 4 + sample_json().cells.len() + 2);
    }

    #[test]
    fn diff_points_at_the_first_drifted_line() {
        let golden = sample_json().render();

        let mut drifted = sample_json();
        drifted.cells[1].outcomes[0].1 = 1;
        let diff = diff_lines(&golden, &drifted.render());
        assert!(diff.contains("line   6 - "), "{diff}");
        assert!(diff.contains("line   6 + "), "{diff}");
        assert!(diff.contains("\"contained\": 1"), "{diff}");
        assert_eq!(diff.lines().count(), 2, "{diff}");

        // One cell fewer: the new last cell loses its comma, and the
        // golden's closing line has no counterpart.
        let mut truncated = sample_json();
        truncated.cells.pop();
        let diff = diff_lines(&golden, &truncated.render());
        let last = golden.lines().count();
        assert!(diff.contains(&format!("line {last:>3} - ")), "{diff}");
        assert!(!diff.contains(&format!("line {last:>3} + ")), "{diff}");
    }
}
