//! Integration tests for the determinism audit: the seeded dirty
//! fixture must fire every rule family and be denied (its JSON pinned
//! as a golden file), the workspace's own first-party sources must lint
//! clean under `--deny warnings` with the checked-in baseline, and the
//! JSON output must be byte-identical across runs and `--threads`
//! values.
//!
//! Regenerate the golden JSON deliberately with `TTA_BLESS=1` after
//! confirming the new diagnostics are the intended ones.

use std::path::{Path, PathBuf};
use std::process::Command;
use tta_detlint::{discover, run, Diagnostic, Gate};

/// The repository root (this crate lives at `crates/detlint`).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn deny_warnings() -> Gate {
    Gate {
        deny_warnings: true,
        ..Gate::default()
    }
}

/// Golden comparison with the workspace's `TTA_BLESS=1` regeneration
/// convention (hand-rolled so this crate stays dependency-free).
fn compare_golden(golden: &Path, rendered: &str) {
    if std::env::var_os("TTA_BLESS").is_some() {
        std::fs::write(golden, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n(seed it with TTA_BLESS=1)",
            golden.display()
        )
    });
    assert!(
        expected == rendered,
        "golden drift against {}\n--- expected ---\n{expected}\n--- actual ---\n{rendered}\n\
         (regenerate deliberately with TTA_BLESS=1 if the change is intended)",
        golden.display()
    );
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tta-detlint"))
}

// ---------------------------------------------------------------------
// The dirty fixture.
// ---------------------------------------------------------------------

#[test]
fn dirty_fixture_matches_golden_json() {
    // Lint with a path relative to this crate so the JSON is stable.
    let report = run(&["tests/fixtures/dirty.rs".into()], 1);
    let rendered = report.render_json(&deny_warnings());
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dirty_diagnostics.json");
    compare_golden(&golden, &rendered);
}

#[test]
fn dirty_fixture_fires_every_rule_family() {
    let report = run(&["tests/fixtures/dirty.rs".into()], 1);
    let fired: Vec<&str> = report
        .report
        .diagnostics
        .iter()
        .map(|d| d.code.id)
        .collect();
    for code in [
        "DL01", "DL02", "DL03", "DL04", "DL05", "DL10", "DL11", "DL12", "DL22",
    ] {
        assert!(
            fired.contains(&code),
            "{code} must fire on dirty.rs, got {fired:?}"
        );
    }
}

#[test]
fn dirty_fixture_is_denied_by_the_binary() {
    let out = bin()
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["tests/fixtures/dirty.rs", "--deny", "warnings"])
        .output()
        .expect("run tta-detlint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "dirty fixture must exit 1 under --deny warnings\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn malformed_allow_is_denied_even_without_deny_flags() {
    let dir = std::env::temp_dir().join(format!("detlint-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("bad.rs");
    std::fs::write(&path, "// detlint: allow(DL02)\nfn f() {}\n").expect("write fixture");
    let out = bin()
        .arg(path.display().to_string())
        .output()
        .expect("run tta-detlint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a reasonless allow is a DL21 error and errors always deny\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The workspace audit itself.
// ---------------------------------------------------------------------

/// First-party lint targets, as absolute paths.
fn workspace_targets() -> Vec<String> {
    let root = repo_root();
    vec![
        root.join("crates").display().to_string(),
        root.join("src").display().to_string(),
    ]
}

#[test]
fn workspace_lints_clean_under_deny_warnings() {
    let report = run(&discover(&workspace_targets()), 0);
    let gate = deny_warnings();
    let denied: Vec<String> = report
        .report
        .denied(&gate)
        .map(Diagnostic::render)
        .collect();
    assert!(
        denied.is_empty(),
        "first-party sources must lint clean under --deny warnings:\n{}",
        denied.join("\n")
    );
}

#[test]
fn every_workspace_allow_carries_a_reason() {
    // By construction a reasonless allow is a DL21 error (caught by the
    // clean-run test above); this pins the stronger audit property: the
    // in-effect inventory is non-trivial and every entry's reason is
    // non-empty prose, not filler. The floor is the current inventory,
    // so a change that retires allows lowers it with them.
    let report = run(&discover(&workspace_targets()), 0);
    assert!(
        report.allows_used.len() >= 13,
        "the audited workspace carries a substantial allow inventory, got {}",
        report.allows_used.len()
    );
    for allow in &report.allows_used {
        assert!(
            allow.reason.split_whitespace().count() >= 2,
            "allow({}) in {} has a filler reason: `{}`",
            allow.code,
            allow.file,
            allow.reason
        );
    }
}

#[test]
fn workspace_allow_inventory_matches_checked_in_baseline() {
    let root = repo_root();
    let baseline_path = root.join("crates/detlint/detlint.baseline");
    let baseline = std::fs::read_to_string(&baseline_path).expect("read checked-in baseline");
    let mut report = run(&discover(&workspace_targets()), 0);
    // Baseline entries are keyed by repo-relative paths; re-run through
    // the binary's working directory instead of rewriting — simplest is
    // to lint with repo-relative targets from the repo root.
    let out = bin()
        .current_dir(&root)
        .args([
            "crates",
            "src",
            "--baseline",
            "crates/detlint/detlint.baseline",
            "--deny",
            "DL30",
            "-q",
        ])
        .output()
        .expect("run tta-detlint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "allow inventory drifted from crates/detlint/detlint.baseline \
         (review, then regenerate with --write-baseline):\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    // And the library-level inventory agrees in size with the baseline.
    report.allows_used.sort();
    report.allows_used.dedup();
    let entries = baseline
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .count();
    let mut keys: Vec<(String, String, String)> = report
        .allows_used
        .iter()
        .map(|a| (a.code.clone(), a.file.clone(), a.reason.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(
        keys.len(),
        entries,
        "baseline entry count must match the deduplicated in-effect inventory"
    );
}

// ---------------------------------------------------------------------
// Determinism of the linter itself.
// ---------------------------------------------------------------------

#[test]
fn json_output_is_byte_stable_across_threads_and_runs() {
    let files = discover(&workspace_targets());
    let gate = deny_warnings();
    let reference = run(&files, 1).render_json(&gate);
    for threads in [2usize, 4, 8] {
        let rendered = run(&files, threads).render_json(&gate);
        assert_eq!(
            reference, rendered,
            "--threads {threads} changed the JSON output"
        );
    }
    let rerun = run(&files, 1).render_json(&gate);
    assert_eq!(reference, rerun, "a second run changed the JSON output");
}

#[test]
fn list_codes_covers_the_catalog() {
    let out = bin().arg("--list-codes").output().expect("run tta-detlint");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for code in tta_detlint::CATALOG {
        assert!(text.contains(code.id), "--list-codes omits {}", code.id);
    }
}
