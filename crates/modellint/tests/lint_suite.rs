//! Integration tests for the lint engine against the shipped scenario
//! corpus: the seeded vacuous fixture must fire a witness-backed ML01
//! whose JSON rendering is pinned as a golden file, the five shipped
//! scenarios must lint clean under `--deny warnings`, and the rendered
//! output must be byte-identical for every `--threads` value.
//!
//! Regenerate the golden JSON deliberately with `TTA_BLESS=1` after
//! confirming the new diagnostics are the intended ones.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use tta_base::json::Json;
use tta_conformance::compare_golden;
use tta_modellint::{lint, AnalysisOptions, Gate, LintOptions};

/// The repository root, canonicalized so scenario paths (and therefore
/// diagnostic targets) are absolute and can be rewritten to the stable
/// `$REPO` token before golden comparison.
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

/// Full JSON rendering of a lint run — diagnostics, summary, and
/// per-target evidence — with the absolute repo root replaced by
/// `$REPO` so the output is machine-independent.
fn render_run(paths: &[PathBuf], opts: &LintOptions, gate: &Gate) -> String {
    let run = lint(paths, opts);
    let mut out = run.render_json(gate);
    for evidence in &run.evidence {
        out.push_str(&evidence.render_json());
        out.push('\n');
    }
    out.replace(&repo_root().display().to_string(), "$REPO")
}

#[test]
fn vacuous_fixture_matches_golden_json() {
    let fixture = repo_root().join("scenarios/lint_fixtures/vacuous.toml");
    let gate = deny_warnings();
    let rendered = render_run(&[fixture], &LintOptions::default(), &gate);
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vacuous_diagnostics.json");
    if let Err(drift) = compare_golden(&golden, &rendered) {
        panic!("{drift}");
    }
}

#[test]
fn vacuous_fixture_is_denied_with_a_witness_backed_ml01() {
    let fixture = repo_root().join("scenarios/lint_fixtures/vacuous.toml");
    let gate = deny_warnings();
    let run = lint(&[fixture], &LintOptions::default());
    let denied: Vec<_> = run.report.denied(&gate).collect();
    assert!(
        denied.iter().any(|d| d.code.id == "ML01"),
        "the seeded vacuous fixture must be denied via ML01, got: {denied:?}"
    );
    let ml01 = denied.iter().find(|d| d.code.id == "ML01").unwrap();
    assert!(
        ml01.message.contains("0 of"),
        "ML01 must carry an exhaustive witness count, got: {}",
        ml01.message
    );
    // The witness search covered the whole reachable space, so this is
    // a proof of vacuity, not a budget artifact.
    let evidence = &run.evidence[0];
    assert!(!evidence.truncated, "fixture space must explore fully");
}

#[test]
fn json_lines_stay_valid_when_the_target_path_needs_escaping() {
    // The target path is spliced into every diagnostic and evidence
    // line; a `"` or `\` in it must come out escaped, never as a broken
    // line.
    let root = std::env::temp_dir().join(format!("modellint-escape-{}", std::process::id()));
    let dir = root.join("a \"quoted\" \\ dir");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let copy = dir.join("vacuous.toml");
    std::fs::copy(
        repo_root().join("scenarios/lint_fixtures/vacuous.toml"),
        &copy,
    )
    .expect("copy fixture");
    let rendered = render_run(
        std::slice::from_ref(&copy),
        &LintOptions::default(),
        &deny_warnings(),
    );
    let _ = std::fs::remove_dir_all(&root);

    let target = copy.display().to_string();
    let mut anchored = 0;
    for line in rendered.lines() {
        let value = Json::parse(line).unwrap_or_else(|e| panic!("invalid JSON ({e}): {line}"));
        let object = value.get("evidence").unwrap_or(&value);
        if let Some(t) = object.get("target") {
            assert_eq!(t.as_str(), Some(target.as_str()), "{line}");
            anchored += 1;
        }
    }
    // Three diagnostics (as in the golden) plus the evidence line.
    assert_eq!(anchored, 4, "{rendered}");
}

#[test]
fn shipped_scenarios_lint_clean_under_deny_warnings() {
    // A reduced state budget keeps this test quick in debug builds;
    // truncation only ever *downgrades* findings (never invents
    // warnings), so a clean verdict here is meaningful and the full
    // release-mode run in CI confirms the untruncated result.
    let opts = LintOptions {
        analysis: AnalysisOptions {
            max_states: 1 << 15,
        },
        ..LintOptions::default()
    };
    let gate = deny_warnings();
    let run = lint(&[repo_root().join("scenarios")], &opts);
    let denied: Vec<_> = run.report.denied(&gate).collect();
    assert!(
        denied.is_empty(),
        "shipped scenarios must lint clean, got: {denied:?}"
    );
    assert_eq!(
        run.evidence.len(),
        8,
        "eight shipped scenarios analyzed (five hand-written + three fuzzer-pinned)"
    );
}

/// Baseline single-threaded rendering for the determinism proptest,
/// computed once.
fn determinism_baseline() -> &'static (Vec<PathBuf>, LintOptions, Gate, String) {
    static BASELINE: OnceLock<(Vec<PathBuf>, LintOptions, Gate, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        // Nine targets (eight shipped scenarios + the vacuous fixture)
        // so the worker pool has scheduling freedom to get wrong.
        let paths = vec![
            repo_root().join("scenarios"),
            repo_root().join("scenarios/lint_fixtures/vacuous.toml"),
        ];
        let opts = LintOptions {
            analysis: AnalysisOptions {
                max_states: 1 << 10,
            },
            threads: 1,
            ..LintOptions::default()
        };
        let gate = deny_warnings();
        let rendered = render_run(&paths, &opts, &gate);
        (paths, opts, gate, rendered)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine reassembles per-target results in target order, so
    /// the rendered report must be byte-identical for every thread
    /// count — the property `--threads` documents.
    #[test]
    fn lint_output_is_deterministic_across_threads(threads in 1usize..=6) {
        let (paths, base_opts, gate, expected) = determinism_baseline();
        let opts = LintOptions {
            threads,
            ..base_opts.clone()
        };
        let rendered = render_run(paths, &opts, gate);
        prop_assert_eq!(&rendered, expected, "threads={} diverged", threads);
    }
}
