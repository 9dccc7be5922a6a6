//! The stable DL lint-code registry.
//!
//! Codes are grouped by family: `DL0x` nondeterminism sources reachable
//! from deterministic-stream code, `DL1x` concurrency hygiene, `DL2x`
//! lint-artifact problems (unreadable files, malformed or unused allow
//! annotations), `DL3x` baseline bookkeeping. Like `tta-modellint`'s
//! ML codes, DL codes are append-only: a shipped code never changes
//! meaning or disappears, so `--deny`/`--allow` lists, annotation
//! sites, and the checked-in baseline stay valid across releases.

pub use tta_base::diag::LintCode;

tta_base::codes! {
    // ── nondeterminism sources ─────────────────────────────────────
    DL01 = "DL01", "hash-iteration-order", Warning,
        "iteration over a HashMap/HashSet with no deterministic sink (sort, BTree collect, order-insensitive reduction): the visit order varies per process and can leak into output, cache keys, or goldens";
    DL02 = "DL02", "wall-clock-read", Warning,
        "an Instant::now()/SystemTime::now() read outside test code: wall-clock values must stay in out-of-band stats/supervision paths, never in the deterministic stream";
    DL03 = "DL03", "thread-environment-read", Warning,
        "logic reads the thread environment (available_parallelism, thread::current, ThreadId): output must be bit-identical at any worker count, so this may only pick a schedule, never a result";
    DL04 = "DL04", "float-accumulation-order", Note,
        "a float sum/fold whose result depends on accumulation order: fine over an ordered source, a silent divergence over an unordered one";
    // ── concurrency hygiene ────────────────────────────────────────
    DL10 = "DL10", "undocumented-unsafe", Warning,
        "an unsafe block/fn/impl without a `// SAFETY:` comment justifying it";
    DL11 = "DL11", "undocumented-atomic-ordering", Warning,
        "an Atomic* declaration whose comment does not state the memory-ordering rationale (why Relaxed suffices, or what an Acquire/Release pairing protects)";
    DL12 = "DL12", "unbounded-recv", Warning,
        "a blocking channel recv() with no timeout: a dead sender pool strands the receiver — supervisor/emitter paths must use recv_timeout plus a liveness check";
    // ── lint artifacts ─────────────────────────────────────────────
    DL20 = "DL20", "unreadable-source", Error,
        "a source file cannot be read";
    DL21 = "DL21", "malformed-allow", Error,
        "a `detlint: allow(...)` annotation names an unknown code or carries no reason= justification";
    DL22 = "DL22", "unused-allow", Warning,
        "an allow annotation that suppressed nothing: the site it excused is gone, so the annotation is stale";
    // ── baseline bookkeeping ───────────────────────────────────────
    DL30 = "DL30", "baseline-drift", Note,
        "the allow-annotation inventory drifted from the checked-in baseline (new or removed allows); regenerate with --write-baseline after review";
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
        assert_eq!(find("DL01").unwrap().slug, "hash-iteration-order");
        assert_eq!(find("hash-iteration-order").unwrap().id, "DL01");
        assert_eq!(
            find("dl11-undocumented-atomic-ordering").unwrap().id,
            "DL11"
        );
        assert!(find("DL99").is_none());
    }
}
