//! The lint engine: file discovery, per-file rule runs with allow
//! merging on the ordered pool ([`tta_base::map_chunks`]), and baseline
//! comparison.
//!
//! Determinism contract (the linter holds itself to the invariant it
//! checks): discovered files are sorted, each file is linted
//! independently, results are reassembled in file order, and no
//! timing or thread identity reaches the output — so `--json` output
//! is byte-stable across runs and `--threads` values.

use crate::annot::{self, AllowSite};
use crate::catalog;
use crate::lex;
use crate::rules;
use std::fs;
use std::path::{Path, PathBuf};
use tta_base::diag::{Diagnostic, Gate, LintReport, Tool};
use tta_base::{default_threads, map_chunks};

/// Directory names never descended into: build output, vendored stubs
/// (not first-party code), and the linter's own deliberately-dirty
/// fixtures and golden outputs.
const SKIP_DIRS: &[&str] = &["target", "third_party", "fixtures", "golden", ".git"];

/// Recursively discovers `.rs` files under each of `paths` (a path that
/// is itself a file is taken as-is, even under a skipped name — an
/// explicit argument is an explicit request). Returns `/`-separated
/// display paths, sorted and deduplicated.
#[must_use]
pub fn discover(paths: &[String]) -> Vec<String> {
    let mut found: Vec<String> = Vec::new();
    for path in paths {
        let p = Path::new(path);
        if p.is_file() {
            found.push(display_path(p));
        } else if p.is_dir() {
            walk(p, &mut found);
        }
    }
    found.sort();
    found.dedup();
    found
}

fn walk(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        let name = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if entry.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&entry, out);
            }
        } else if name.ends_with(".rs") {
            out.push(display_path(&entry));
        }
    }
}

fn display_path(p: &Path) -> String {
    let s = p.to_string_lossy().replace('\\', "/");
    s.strip_prefix("./").unwrap_or(&s).to_string()
}

/// Whole-file test context: the path runs through a `tests/`,
/// `benches/` or `examples/` directory. A `fixtures/` segment overrides
/// that — fixture files model production code (they are skipped during
/// discovery and only linted when named explicitly, precisely to be
/// judged by production rules).
#[must_use]
pub fn path_is_test(path: &str) -> bool {
    let mut is_test = false;
    for seg in path.split('/') {
        match seg {
            "tests" | "benches" | "examples" => is_test = true,
            "fixtures" => return false,
            _ => {}
        }
    }
    is_test
}

/// The outcome of linting one file: findings that survived their
/// allows, plus the allows that were actually used.
#[derive(Debug, Default)]
struct FileOutcome {
    diagnostics: Vec<Diagnostic>,
    allows_used: Vec<AllowSite>,
}

/// Lints one file's text (separated from I/O for tests).
fn lint_text(path: &str, text: &str) -> FileOutcome {
    let file = lex::scan(path, text, path_is_test(path));
    let found = rules::check_file(&file);
    let allows = annot::collect(&file);

    let mut out = FileOutcome::default();
    for bad in &allows.bad {
        out.diagnostics.push(
            Diagnostic::new(catalog::DL21, path, bad.problem.clone())
                .line(bad.line)
                .help("write `// detlint: allow(DLxx) reason=<why this site is sound>`"),
        );
    }

    let mut used = vec![false; allows.allows.len()];
    for diag in found {
        let allowed = diag.line.is_some_and(|line| {
            allows
                .allows
                .iter()
                .enumerate()
                .find(|(_, a)| a.line == line && a.code == diag.code.id)
                .map(|(i, _)| {
                    used[i] = true;
                })
                .is_some()
        });
        if !allowed {
            out.diagnostics.push(diag);
        }
    }
    for (i, allow) in allows.allows.iter().enumerate() {
        if used[i] {
            out.allows_used.push(allow.clone());
        } else {
            out.diagnostics.push(
                Diagnostic::new(
                    catalog::DL22,
                    path,
                    format!(
                        "allow({}) suppresses nothing on line {} — the site it excused is gone",
                        allow.code, allow.line
                    ),
                )
                .line(allow.line)
                .help("delete the stale annotation and regenerate the baseline"),
            );
        }
    }
    out
}

/// How `tta-detlint` reports render: `detlint summary: …`, targets
/// under the JSON key `"file"`, plus the count of allows in effect.
const TOOL: Tool = Tool {
    label: "detlint",
    target_key: "file",
};

/// The result of an audit run: the diagnostics in deterministic (file,
/// line, code) order, plus the audit inventory of allow sites.
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// All findings.
    pub report: LintReport,
    /// Every allow annotation that suppressed a finding, in (file,
    /// line) order — the audit trail the baseline is built from.
    pub allows_used: Vec<AllowSite>,
}

impl Audit {
    /// Renders every diagnostic rustc-style plus a one-line summary.
    #[must_use]
    pub fn render(&self, gate: &Gate) -> String {
        self.report
            .render(gate, &TOOL, Some(self.allows_used.len()))
    }

    /// Renders the audit as line-oriented JSON.
    #[must_use]
    pub fn render_json(&self, gate: &Gate) -> String {
        self.report
            .render_json(gate, &TOOL, Some(self.allows_used.len()))
    }

    fn sort_diagnostics(&mut self) {
        self.report.diagnostics.sort_by(|a, b| {
            (a.target.as_str(), a.line.unwrap_or(0), a.code.id).cmp(&(
                b.target.as_str(),
                b.line.unwrap_or(0),
                b.code.id,
            ))
        });
    }
}

/// Runs every rule over every file in `files`, on `threads` workers
/// (`0` = the host's available parallelism), returning diagnostics in
/// deterministic (file, line, code) order.
#[must_use]
pub fn run(files: &[String], threads: usize) -> Audit {
    let threads = match threads {
        0 => default_threads(),
        n => n,
    };
    let outcomes = map_chunks(files, 1, threads, &|_, chunk: &[String]| {
        lint_file(&chunk[0])
    });

    let mut audit = Audit::default();
    for outcome in outcomes {
        audit.report.diagnostics.extend(outcome.diagnostics);
        audit.allows_used.extend(outcome.allows_used);
    }
    audit.sort_diagnostics();
    audit.allows_used.sort();
    audit
}

fn lint_file(path: &str) -> FileOutcome {
    match fs::read_to_string(path) {
        Ok(text) => lint_text(path, &text),
        Err(err) => FileOutcome {
            diagnostics: vec![Diagnostic::new(
                catalog::DL20,
                path,
                format!("cannot read source file: {err}"),
            )],
            allows_used: Vec::new(),
        },
    }
}

/// Compares the audit's in-effect allows against a baseline text,
/// appending a [`catalog::DL30`] note per drifted entry.
pub fn check_baseline(audit: &mut Audit, baseline_text: &str, baseline_path: &str) {
    let current: Vec<(String, String, String)> = {
        let mut v: Vec<_> = audit
            .allows_used
            .iter()
            .map(|a| (a.code.clone(), a.file.clone(), a.reason.clone()))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let recorded = annot::parse_baseline(baseline_text);

    for entry in &current {
        if !recorded.contains(entry) {
            audit.report.diagnostics.push(
                Diagnostic::new(
                    catalog::DL30,
                    entry.1.clone(),
                    format!(
                        "allow({}) `{}` is in effect but absent from the baseline",
                        entry.0, entry.2
                    ),
                )
                .note(format!("baseline: {baseline_path}"))
                .help("review the new annotation, then regenerate with --write-baseline"),
            );
        }
    }
    for entry in &recorded {
        if !current.contains(entry) {
            audit.report.diagnostics.push(
                Diagnostic::new(
                    catalog::DL30,
                    entry.1.clone(),
                    format!(
                        "baseline records allow({}) `{}` but no such annotation is in effect",
                        entry.0, entry.2
                    ),
                )
                .note(format!("baseline: {baseline_path}"))
                .help("the annotation was removed or reworded; regenerate with --write-baseline"),
            );
        }
    }
    audit.sort_diagnostics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_and_registers() {
        let out = lint_text(
            "x.rs",
            "fn f() {\n    // detlint: allow(DL02) reason=supervision only\n    let t = std::time::Instant::now();\n}\n",
        );
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.allows_used.len(), 1);
        assert_eq!(out.allows_used[0].code, "DL02");
    }

    #[test]
    fn unused_allow_is_dl22() {
        let out = lint_text(
            "x.rs",
            "fn f() {\n    // detlint: allow(DL02) reason=stale\n    let t = 3;\n}\n",
        );
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code.id, "DL22");
        assert!(out.allows_used.is_empty());
    }

    #[test]
    fn malformed_allow_is_dl21_error() {
        let out = lint_text("x.rs", "// detlint: allow(DL02)\nfn f() {}\n");
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code.id, "DL21");
    }

    #[test]
    fn wrong_code_allow_does_not_suppress() {
        let out = lint_text(
            "x.rs",
            "fn f() {\n    // detlint: allow(DL03) reason=wrong code\n    let t = std::time::Instant::now();\n}\n",
        );
        let codes: Vec<&str> = out.diagnostics.iter().map(|d| d.code.id).collect();
        assert!(codes.contains(&"DL02"), "{codes:?}");
        assert!(codes.contains(&"DL22"), "{codes:?}");
    }

    #[test]
    fn baseline_drift_fires_both_ways() {
        let mut audit = Audit::default();
        audit.allows_used.push(AllowSite {
            file: "a.rs".into(),
            line: 1,
            code: "DL02".into(),
            reason: "new".into(),
        });
        check_baseline(&mut audit, "DL03\tb.rs\tgone\n", "base.tsv");
        let codes: Vec<&str> = audit.report.diagnostics.iter().map(|d| d.code.id).collect();
        assert_eq!(codes, vec!["DL30", "DL30"]);
    }

    #[test]
    fn path_test_classification() {
        assert!(path_is_test("crates/x/tests/foo.rs"));
        assert!(path_is_test("crates/x/benches/foo.rs"));
        assert!(!path_is_test("crates/x/src/lib.rs"));
        assert!(
            !path_is_test("crates/x/tests/fixtures/dirty.rs"),
            "fixtures are judged as production code"
        );
    }

    #[test]
    fn threads_do_not_change_output() {
        // Lint this crate's own sources at 1 and 4 threads; reports
        // must be byte-identical.
        let files = discover(&["src".into()]);
        assert!(!files.is_empty());
        let gate = Gate::default();
        let a = run(&files, 1).render_json(&gate);
        let b = run(&files, 4).render_json(&gate);
        assert_eq!(a, b);
    }
}
