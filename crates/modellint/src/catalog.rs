//! The stable lint-code registry.
//!
//! Codes are grouped by analysis family: `ML0x` property analysis,
//! `ML1x` model coverage, `ML2x` artifact syntax, `ML3x` scenario and
//! fault-plan semantics. Codes are append-only — a shipped code never
//! changes meaning or disappears, so `--deny`/`--allow` lists and CI
//! configurations stay valid across releases.

pub use tta_base::diag::LintCode;

tta_base::codes! {
    // ── property analysis ──────────────────────────────────────────
    ML01 = "ML01", "vacuous-property", Warning,
        "a leads-to antecedent (or invariant guard) is satisfied by zero reachable states: the property holds without constraining anything";
    ML02 = "ML02", "unsatisfiable-predicate", Warning,
        "a predicate used as a goal (consequent, F/G/GF operand) is satisfied by zero reachable states";
    ML03 = "ML03", "tautological-predicate", Note,
        "a predicate is satisfied by every reachable state, so the property it appears in is discharged trivially";
    ML04 = "ML04", "unused-fairness", Warning,
        "a weak-fairness constraint labels zero edges of the reachable graph: it constrains no cycle";
    // ── model coverage ─────────────────────────────────────────────
    ML10 = "ML10", "dead-transition", Warning,
        "a coupler fault mode the configured authority admits is never taken anywhere in the explored space";
    ML11 = "ML11", "never-fired-guard", Note,
        "a model guard (replay budget cap, cold-start-replay filter, victim latch) never fires in the explored space";
    // ── artifact syntax ────────────────────────────────────────────
    ML20 = "ML20", "duplicate-key", Error,
        "a scenario file repeats a key or table, which the old parser silently resolved by drop";
    ML21 = "ML21", "invalid-artifact", Error,
        "a scenario file fails to parse or validate";
    ML22 = "ML22", "unknown-predicate", Error,
        "a [[property]] or expect block names a predicate the catalog does not define";
    // ── scenario & fault-plan semantics ────────────────────────────
    ML30 = "ML30", "window-beyond-horizon", Warning,
        "a fault window lies (partly) beyond the simulation horizon and can never (fully) fire";
    ML31 = "ML31", "shadowed-event", Warning,
        "a fault event is never the first active match on its channel: first-match-wins dispatch means it never takes effect";
    ML32 = "ML32", "degenerate-intermittent", Note,
        "an intermittent fault's period/duty make it equivalent to a transient burst within its window";
    ML33 = "ML33", "inconsistent-expectation", Warning,
        "an expect key can never be checked given the declared authority, topology or verdict";
    ML34 = "ML34", "unreachable-expect-predicate", Warning,
        "a predicate underlying expect.liveness/expect.recovery is satisfied by zero reachable states";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_sorted() {
        for pair in CATALOG.windows(2) {
            assert!(pair[0].id < pair[1].id, "{} !< {}", pair[0].id, pair[1].id);
        }
    }

    #[test]
    fn find_accepts_all_spellings() {
        assert_eq!(find("ML01").unwrap().slug, "vacuous-property");
        assert_eq!(find("vacuous-property").unwrap().id, "ML01");
        assert_eq!(find("ml31-shadowed-event").unwrap().id, "ML31");
        assert!(find("ML99").is_none());
    }
}
