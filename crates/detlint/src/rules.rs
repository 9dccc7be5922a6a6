//! The DL rule implementations: token-level checks over one scanned
//! file.
//!
//! Each rule walks the code view ([`crate::lex::Line::code`]) with
//! word-boundary matching, so strings and comments can never produce a
//! false site. Nondeterminism rules (DL01–DL04, DL12) are skipped in
//! test context (`tests/`, `benches/`, `examples/`, `#[cfg(test)]`
//! spans) — tests may time things and block freely; hygiene rules
//! (DL10 SAFETY, DL11 atomic ordering) apply everywhere except that
//! DL11 also relaxes in test context, where ad-hoc atomics are
//! scaffolding, not protocol.

use crate::catalog;
use crate::lex::{find_word, word_at, Line, SourceFile};
use tta_base::diag::Diagnostic;

/// Runs every DL rule over `file`, returning raw findings (allow
/// filtering happens in the engine).
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let hash_idents = collect_hash_idents(file);
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if !line.has_code {
            continue;
        }
        if !line.in_test {
            check_hash_iteration(file, idx, &hash_idents, &mut out);
            check_wall_clock(file, lineno, line, &mut out);
            check_thread_env(file, lineno, line, &mut out);
            check_float_accumulation(file, lineno, line, &mut out);
            check_unbounded_recv(file, lineno, line, &mut out);
        }
        check_unsafe(file, idx, &mut out);
        if !line.in_test {
            check_atomic_decl(file, idx, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------
// DL01: hash iteration order.
// ---------------------------------------------------------------------

/// Identifiers this file declares (or receives) with a `HashMap`/
/// `HashSet` type: `let m = HashMap::new()`, `m: HashMap<…>`,
/// `m: &mut HashSet<…>`, fields and params alike.
fn collect_hash_idents(file: &SourceFile) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            for pos in find_word(code, ty) {
                if let Some(ident) = declared_ident(code, pos) {
                    if !idents.contains(&ident) {
                        idents.push(ident);
                    }
                }
            }
        }
    }
    idents
}

/// Walks left from a `HashMap`/`HashSet` type token to the identifier
/// it declares: the token before the last `:` or `=` preceding the
/// type, skipping reference/wrapper noise.
fn declared_ident(code: &str, type_pos: usize) -> Option<String> {
    let before = &code[..type_pos];
    let sep = before.rfind([':', '='])?;
    // `::` is path syntax (e.g. `collections::HashMap`), not an
    // ascription — walk past it to the real separator.
    let sep = if sep > 0 && before.as_bytes()[sep - 1] == b':' {
        before[..sep - 1].rfind([':', '='])?
    } else {
        sep
    };
    let head = before[..sep].trim_end();
    let ident: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty()
        || ident.chars().next().is_some_and(|c| c.is_ascii_digit())
        || ["mut", "let", "pub", "in", "where", "dyn", "impl", "for"].contains(&ident.as_str())
    {
        return None;
    }
    Some(ident)
}

/// Iteration methods whose visit order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Sinks that make hash-order iteration deterministic (sorting, ordered
/// re-collection) or order-insensitive (commutative reductions).
const ORDER_SINKS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "is_empty",
    "any",
    "all",
    "sum",
    "product",
    "min",
    "max",
];

fn check_hash_iteration(
    file: &SourceFile,
    idx: usize,
    hash_idents: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let line = &file.lines[idx];
    let code = &line.code;
    for ident in hash_idents {
        for pos in find_word(code, ident) {
            let after = &code[pos + ident.len()..];
            let iter_method_at = |rest: &str| {
                ITER_METHODS
                    .iter()
                    .any(|m| word_at(rest, 0, m) && rest[m.len()..].starts_with('('))
            };
            let is_method_iter = after.strip_prefix('.').is_some_and(iter_method_at)
                // rustfmt wraps long chains: the receiver ends the line
                // and `.iter()` opens the next code line.
                || (after.trim().is_empty()
                    && file
                        .lines
                        .iter()
                        .skip(idx + 1)
                        .find(|l| l.has_code)
                        .is_some_and(|l| {
                            l.code
                                .trim_start()
                                .strip_prefix('.')
                                .is_some_and(iter_method_at)
                        }));
            // `for x in &map {` / `for x in map {`: the ident is the
            // loop's iterated expression.
            let is_for_iter = !is_method_iter
                && code[..pos].contains(" in ")
                && code[..pos].trim_start().starts_with("for ")
                && matches!(after.trim_start().chars().next(), Some('{') | None);
            if !is_method_iter && !is_for_iter {
                continue;
            }
            if statement_has_sink(file, idx, pos) {
                continue;
            }
            out.push(
                Diagnostic::new(
                    catalog::DL01,
                    file.path.clone(),
                    format!(
                        "`{ident}` is declared as a Hash{{Map,Set}} and iterated here \
                         with no deterministic sink in the statement"
                    ),
                )
                .line(idx + 1)
                .help(
                    "sort the entries (or collect into a BTreeMap/BTreeSet) before anything \
                     order-dependent, switch the container, or annotate with \
                     `// detlint: allow(DL01) reason=…` if the order provably cannot escape",
                ),
            );
            break; // One finding per ident per line.
        }
    }
}

/// Scans the statement around `(idx, pos)` — back to the previous
/// `;`/`{`/`}` and forward to the next `;` or block open — for an
/// order sink.
fn statement_has_sink(file: &SourceFile, idx: usize, pos: usize) -> bool {
    let mut text = String::new();
    // Backward: up to 6 lines, stopping at a statement boundary.
    let start_line = idx.saturating_sub(6);
    let mut collected_back: Vec<&str> = Vec::new();
    let before = &file.lines[idx].code[..pos];
    let back_stop = before.rfind([';', '{', '}']);
    match back_stop {
        Some(b) => collected_back.push(&before[b + 1..]),
        None => {
            collected_back.push(before);
            for j in (start_line..idx).rev() {
                let code = &file.lines[j].code;
                match code.rfind([';', '{', '}']) {
                    Some(b) => {
                        collected_back.push(&code[b + 1..]);
                        break;
                    }
                    None => collected_back.push(code),
                }
            }
        }
    }
    for part in collected_back.iter().rev() {
        text.push_str(part);
        text.push(' ');
    }
    // Forward: up to 6 lines, through the end of the *next* statement
    // (the `collect(); sort();` remediation idiom spans two), stopping
    // at any `{` — a loop body's contents are not a sink on the
    // iterator itself.
    let mut semis = 0u32;
    let mut push_until_stop = |text: &mut String, code: &str| -> bool {
        for (i, c) in code.char_indices() {
            match c {
                '{' => {
                    text.push_str(&code[..i]);
                    text.push(' ');
                    return true;
                }
                ';' => {
                    semis += 1;
                    if semis == 2 {
                        text.push_str(&code[..i]);
                        text.push(' ');
                        return true;
                    }
                }
                _ => {}
            }
        }
        text.push_str(code);
        text.push(' ');
        false
    };
    if !push_until_stop(&mut text, &file.lines[idx].code[pos..]) {
        for line in file
            .lines
            .iter()
            .skip(idx + 1)
            .take(6.min(file.lines.len() - idx - 1))
        {
            if push_until_stop(&mut text, &line.code) {
                break;
            }
        }
    }
    ORDER_SINKS.iter().any(|s| !find_word(&text, s).is_empty())
}

// ---------------------------------------------------------------------
// DL02 / DL03 / DL04 / DL12: simple token rules.
// ---------------------------------------------------------------------

fn check_wall_clock(file: &SourceFile, lineno: usize, line: &Line, out: &mut Vec<Diagnostic>) {
    for pat in ["Instant::now", "SystemTime::now"] {
        if line.code.contains(pat) {
            out.push(
                Diagnostic::new(
                    catalog::DL02,
                    file.path.clone(),
                    format!("wall-clock read `{pat}()` in non-test code"),
                )
                .line(lineno)
                .help(
                    "keep clock values in out-of-band stats/supervision paths only, and annotate \
                     the site with `// detlint: allow(DL02) reason=…` naming that path",
                ),
            );
            return;
        }
    }
}

fn check_thread_env(file: &SourceFile, lineno: usize, line: &Line, out: &mut Vec<Diagnostic>) {
    for pat in ["available_parallelism", "thread::current", "ThreadId"] {
        let hit = if pat.contains("::") {
            line.code.contains(pat)
        } else {
            !find_word(&line.code, pat).is_empty()
        };
        if hit {
            out.push(
                Diagnostic::new(
                    catalog::DL03,
                    file.path.clone(),
                    format!("thread-environment read `{pat}` in non-test code"),
                )
                .line(lineno)
                .help(
                    "worker counts may pick a schedule, never a result; annotate with \
                     `// detlint: allow(DL03) reason=…` stating why output stays identical",
                ),
            );
            return;
        }
    }
}

fn check_float_accumulation(
    file: &SourceFile,
    lineno: usize,
    line: &Line,
    out: &mut Vec<Diagnostic>,
) {
    let float_reduce = [
        "sum::<f32>",
        "sum::<f64>",
        "product::<f32>",
        "product::<f64>",
    ]
    .iter()
    .any(|p| line.code.contains(p))
        || [
            "fold(0.0",
            "fold(0f32",
            "fold(0f64",
            "fold(0_f32",
            "fold(0_f64",
        ]
        .iter()
        .any(|p| line.code.contains(p));
    if float_reduce {
        out.push(
            Diagnostic::new(
                catalog::DL04,
                file.path.clone(),
                "float accumulation whose result depends on visit order",
            )
            .line(lineno)
            .note(
                "harmless over an index-ordered source; a silent divergence over an unordered one",
            ),
        );
    }
}

fn check_unbounded_recv(file: &SourceFile, lineno: usize, line: &Line, out: &mut Vec<Diagnostic>) {
    for pos in find_word(&line.code, "recv") {
        let preceded_by_dot = line.code[..pos].ends_with('.');
        if preceded_by_dot && line.code[pos + 4..].starts_with("()") {
            out.push(
                Diagnostic::new(
                    catalog::DL12,
                    file.path.clone(),
                    "blocking `recv()` with no timeout in non-test code",
                )
                .line(lineno)
                .help(
                    "a dead sender pool strands this receiver; use `recv_timeout` plus a \
                     liveness check (see campaignd's emitter), or annotate with \
                     `// detlint: allow(DL12) reason=…`",
                ),
            );
            return;
        }
    }
}

// ---------------------------------------------------------------------
// DL10: unsafe without SAFETY.
// ---------------------------------------------------------------------

fn check_unsafe(file: &SourceFile, idx: usize, out: &mut Vec<Diagnostic>) {
    let line = &file.lines[idx];
    if find_word(&line.code, "unsafe").is_empty() {
        return;
    }
    if nearby_comments(file, idx)
        .iter()
        .any(|c| c.contains("SAFETY"))
    {
        return;
    }
    out.push(
        Diagnostic::new(
            catalog::DL10,
            file.path.clone(),
            "`unsafe` without a `// SAFETY:` comment",
        )
        .line(idx + 1)
        .help("state the invariant that makes this sound in a `// SAFETY:` comment directly above"),
    );
}

// ---------------------------------------------------------------------
// DL11: atomic declarations without an ordering rationale.
// ---------------------------------------------------------------------

/// The atomic types the rule recognizes.
const ATOMICS: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Words that count as an ordering rationale in a comment.
const ORDERING_WORDS: &[&str] = &[
    "ordering", "Ordering", "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst",
];

fn check_atomic_decl(file: &SourceFile, idx: usize, out: &mut Vec<Diagnostic>) {
    let line = &file.lines[idx];
    let code = &line.code;
    let trimmed = code.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return;
    }
    let mut site: Option<&str> = None;
    for ty in ATOMICS {
        for pos in find_word(code, ty) {
            let is_ctor = code[pos + ty.len()..].starts_with("::new");
            let is_let_or_static = !find_word(trimmed, "let").is_empty()
                || trimmed.starts_with("static ")
                || trimmed.starts_with("pub static ");
            // A bare `Atomic*::new(…)` inside a struct literal is
            // initialization, not declaration — the rationale lives at
            // the field's declaration, which this rule also visits.
            if is_ctor && !is_let_or_static {
                continue;
            }
            site = Some(ty);
            break;
        }
        if site.is_some() {
            break;
        }
    }
    let Some(ty) = site else { return };
    if nearby_comments(file, idx)
        .iter()
        .any(|c| ORDERING_WORDS.iter().any(|w| c.contains(w)))
    {
        return;
    }
    out.push(
        Diagnostic::new(
            catalog::DL11,
            file.path.clone(),
            format!("`{ty}` declared without a memory-ordering rationale in its comment"),
        )
        .line(idx + 1)
        .help(
            "document why the orderings used on this atomic are sufficient (e.g. \
             \"Relaxed: monotone counter, read only after join\") in the declaration's comment",
        ),
    );
}

/// Comments attached to line `idx`: its own trailing comments plus the
/// contiguous block of comment-only / attribute lines directly above.
fn nearby_comments(file: &SourceFile, idx: usize) -> Vec<String> {
    let mut comments: Vec<String> = file.lines[idx].comments.clone();
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &file.lines[j];
        let attr_only = line.has_code && {
            let t = line.code.trim();
            t.starts_with("#[") || t.starts_with("#![")
        };
        if line.has_code && !attr_only {
            break;
        }
        if !line.has_code && line.comments.is_empty() && line.code.trim().is_empty() {
            break; // Blank line ends the attached block.
        }
        comments.extend(line.comments.iter().cloned());
    }
    comments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::scan;

    fn codes(src: &str) -> Vec<(&'static str, usize)> {
        let file = scan("t.rs", src, false);
        check_file(&file)
            .into_iter()
            .map(|d| (d.code.id, d.line.unwrap_or(0)))
            .collect()
    }

    #[test]
    fn hash_iteration_without_sink_fires() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) {\n\
                   \x20   for (k, v) in m.iter() {\n\
                   \x20       println!(\"{k} {v}\");\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(codes(src), vec![("DL01", 3)]);
    }

    #[test]
    fn sorted_hash_iteration_is_clean() {
        // `collect(); sort();` — the sink lands on the next statement,
        // which the scan includes (the standard remediation idiom).
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) {\n\
                   \x20   let mut v: Vec<_> = m.keys().collect();\n\
                   \x20   v.sort();\n\
                   }\n";
        // A BTreeMap collect is a sink in the same statement.
        let src2 = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) {\n\
                   \x20   let v: std::collections::BTreeMap<_, _> = m.iter().collect();\n\
                   \x20   drop(v);\n\
                   }\n";
        // But a sink *two* statements later is out of reach: the scan
        // covers exactly one follow-up statement.
        let src3 = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) {\n\
                   \x20   let mut v: Vec<_> = m.keys().collect();\n\
                   \x20   let n = 1;\n\
                   \x20   v.sort();\n\
                   \x20   drop(n);\n\
                   }\n";
        assert_eq!(codes(src), Vec::<(&str, usize)>::new());
        assert_eq!(codes(src2), Vec::<(&str, usize)>::new());
        assert_eq!(codes(src3), vec![("DL01", 3)]);
    }

    #[test]
    fn order_insensitive_reductions_are_clean() {
        let src = "use std::collections::HashSet;\n\
                   fn f(s: &HashSet<u32>) -> usize {\n\
                   \x20   s.iter().filter(|x| **x > 3).count()\n\
                   }\n";
        assert_eq!(codes(src), Vec::<(&str, usize)>::new());
    }

    #[test]
    fn for_loop_over_hash_ref_fires() {
        let src = "use std::collections::HashSet;\n\
                   fn f(seen: &HashSet<u32>) {\n\
                   \x20   for x in seen {\n\
                   \x20       println!(\"{x}\");\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(codes(src), vec![("DL01", 3)]);
    }

    #[test]
    fn wall_clock_and_thread_env_fire_outside_tests() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() -> usize { std::thread::available_parallelism().map_or(1, usize::from) }\n";
        assert_eq!(codes(src), vec![("DL02", 1), ("DL03", 2)]);
    }

    #[test]
    fn test_modules_relax_nondeterminism_rules() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let t = std::time::Instant::now(); }\n}\n";
        assert_eq!(codes(src), Vec::<(&str, usize)>::new());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let dirty = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(codes(dirty), vec![("DL10", 1)]);
        let clean = "// SAFETY: guarded by the check above.\nfn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(codes(clean), Vec::<(&str, usize)>::new());
        let trailing = "fn f() { unsafe { x() } } // SAFETY: x is sound here\n";
        assert_eq!(codes(trailing), Vec::<(&str, usize)>::new());
    }

    #[test]
    fn atomic_declarations_require_ordering_rationale() {
        let dirty = "struct S {\n    count: AtomicU64,\n}\n";
        assert_eq!(codes(dirty), vec![("DL11", 2)]);
        let clean = "struct S {\n    /// Relaxed: monotone counter read after join.\n    count: AtomicU64,\n}\n";
        assert_eq!(codes(clean), Vec::<(&str, usize)>::new());
        // Struct-literal initialization alone doesn't re-fire.
        let init = "fn f() -> S { S { count: AtomicU64::new(0) } }\n";
        assert_eq!(codes(init), Vec::<(&str, usize)>::new());
        // But an undocumented local does.
        let local = "fn f() { let next = AtomicUsize::new(0); }\n";
        assert_eq!(codes(local), vec![("DL11", 1)]);
    }

    #[test]
    fn blocking_recv_fires_and_recv_timeout_does_not() {
        assert_eq!(
            codes("fn f(rx: R) { let x = rx.recv(); }\n"),
            vec![("DL12", 1)]
        );
        assert_eq!(
            codes("fn f(rx: R) { let x = rx.recv_timeout(d); }\n"),
            Vec::<(&str, usize)>::new()
        );
    }

    #[test]
    fn float_sum_is_a_note() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().copied().sum::<f64>() }\n";
        assert_eq!(codes(src), vec![("DL04", 1)]);
    }
}
