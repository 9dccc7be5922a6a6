//! End-to-end acceptance: `seed 7` deterministically rediscovers the
//! seeded availability cliff, shrinks it to a tiny plan, and emits
//! scenarios that pass the lint gate and replay to their pinned
//! expectations in the conformance runner — the exact pipeline CI's
//! fuzz-smoke job exercises through the `tta_fuzz` binary.

use std::path::Path;
use std::time::{Duration, Instant};

use tta_conformance::{run_scenario, Scenario};
use tta_fuzz::{fuzz, FindKind, FuzzConfig};
use tta_modellint::{lint_scenario, AnalysisOptions, Severity};
use tta_sim::RecoveryOutcome;

#[test]
fn seed_seven_rediscovers_shrinks_and_pins_a_cliff() {
    let cfg = FuzzConfig {
        seed: 7,
        max_finds: 3,
        deadline: Some(Instant::now() + Duration::from_secs(60)),
        ..FuzzConfig::default()
    };
    let outcome = fuzz(&cfg);

    // The seeded cliff is rediscovered: some find is an availability
    // cliff of at least the configured delta.
    let cliff = outcome
        .finds
        .iter()
        .find(|f| matches!(f.kind, FindKind::Cliff { .. }))
        .expect("seed 7 finds an availability cliff");
    if let FindKind::Cliff {
        parent_availability,
        availability,
        ..
    } = cliff.kind
    {
        assert!(
            parent_availability - availability >= cfg.delta,
            "cliff too shallow: {parent_availability} -> {availability}"
        );
    }

    // Shrunk to a tiny plan.
    assert!(
        cliff.input.events.len() <= 3,
        "shrunk plan has {} events",
        cliff.input.events.len()
    );

    // Every emitted scenario, cliffs and flips, parses, lints clean at
    // the deny-warnings bar, and replays from its finished TOML through
    // the full conformance runner to the same pinned recovery outcome.
    // Emission measures its expectations on the scenario body and does
    // not replay the finished file, so this is the replay's guarantee.
    assert!(
        outcome
            .finds
            .iter()
            .any(|f| matches!(f.kind, FindKind::Flip { .. })),
        "seed 7 also finds an outcome flip"
    );
    for find in &outcome.finds {
        let emitted = &find.emitted;
        let scenario = Scenario::parse(&emitted.toml, Path::new("scenarios"))
            .expect("emitted scenario parses");
        let (diags, _) = lint_scenario(&emitted.name, &scenario, &AnalysisOptions::default());
        for diag in &diags {
            assert_eq!(
                diag.severity,
                Severity::Note,
                "{} must lint clean: {} {}",
                emitted.name,
                diag.code.id,
                diag.message
            );
        }
        let replay = run_scenario(&scenario);
        assert!(
            replay.passed,
            "conformance replay of {} failed:\n{}",
            emitted.name, replay.report
        );
        assert_eq!(
            replay.sim.map(|sim| sim.recovery),
            Some(emitted.expected_outcome),
            "{}: replayed recovery outcome drifted from the pinned one",
            emitted.name
        );
        // The runner measured on a traced run; an untraced one, which
        // skips the rounds of a settled run, classifies alike.
        let report = scenario.sim_builder().build().run();
        assert_eq!(
            RecoveryOutcome::classify(&report),
            emitted.expected_outcome,
            "{}: the untraced run classifies differently",
            emitted.name
        );
    }

    // Rerun-and-thread determinism of the same pipeline is pinned
    // separately (and more cheaply) by tests/determinism.rs.
}
