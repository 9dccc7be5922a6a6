//! The rustc-style diagnostics core shared by `tta-modellint` and
//! `tta-detlint`: severities, stable lint codes, deny/allow gates, and
//! text and JSON rendering.
//!
//! A diagnostic has a stable code, a severity, a primary message
//! anchored to a lint target (and line, when the construct has one),
//! and attached `note:`/`help:` lines. Rendering is deterministic — no
//! timings, no hash-ordered maps — so the JSON form can be pinned as a
//! golden fixture. The tools differ only in the data of [`Tool`]: the
//! summary label, the JSON key of the target, and whether an allow
//! count is reported.

use crate::json::Json;
use std::fmt;

/// Diagnostic severity, ordered from least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: evidence, audit-trail entries, degenerate but
    /// harmless constructs. Never denied by `--deny warnings`.
    Note,
    /// Probably a mistake or a hazard.
    Warning,
    /// Definitely broken: an unreadable or unparsable input.
    Error,
}

impl Severity {
    /// Lowercase name used in rendered and JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One registered lint: stable id, human slug, default severity and a
/// one-line summary.
#[derive(Debug)]
pub struct LintCode {
    /// Stable short id, e.g. `ML01`.
    pub id: &'static str,
    /// Human-readable slug, e.g. `vacuous-property`.
    pub slug: &'static str,
    /// Severity unless the analysis overrides it.
    pub default_severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

impl LintCode {
    /// `id-slug`, the form rendered in brackets: `ML01-vacuous-property`.
    #[must_use]
    pub fn full_name(&self) -> String {
        format!("{}-{}", self.id, self.slug)
    }
}

/// Declares a tool's code registry: one `pub static` per code, the
/// id-ordered `CATALOG`, and `find`, which looks a code up by id
/// (`ML01`), slug (`vacuous-property`) or full name, case-insensitively.
///
/// ```
/// tta_base::codes! {
///     XX01 = "XX01", "example", Warning, "an example lint";
/// }
/// assert_eq!(find("example").unwrap().id, "XX01");
/// ```
#[macro_export]
macro_rules! codes {
    ($($name:ident = $id:literal, $slug:literal, $sev:ident, $summary:literal;)*) => {
        $(
            #[doc = $summary]
            pub static $name: &$crate::diag::LintCode = &$crate::diag::LintCode {
                id: $id,
                slug: $slug,
                default_severity: $crate::diag::Severity::$sev,
                summary: $summary,
            };
        )*
        /// Every registered lint, id order.
        pub static CATALOG: &[&$crate::diag::LintCode] = &[$($name),*];

        /// Looks up a code by id, slug or full name, case-insensitively.
        #[must_use]
        pub fn find(name: &str) -> Option<&'static $crate::diag::LintCode> {
            CATALOG.iter().copied().find(|c| {
                c.id.eq_ignore_ascii_case(name)
                    || c.slug.eq_ignore_ascii_case(name)
                    || c.full_name().eq_ignore_ascii_case(name)
            })
        }
    };
}

/// What distinguishes one tool's rendered report from another's.
#[derive(Debug, Clone, Copy)]
pub struct Tool {
    /// Prefix of the text summary line (`lint` → `lint summary: …`).
    pub label: &'static str,
    /// JSON key the diagnostic's target renders under.
    pub target_key: &'static str,
}

/// One finding, anchored to a lint target.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable lint code this finding instantiates.
    pub code: &'static LintCode,
    /// Severity after any catalog default (gates may deny on top, they
    /// do not rewrite the severity).
    pub severity: Severity,
    /// The lint target: a scenario path, `builtin:s4/…`, a source file.
    pub target: String,
    /// 1-based line within the target, when the construct has one.
    pub line: Option<usize>,
    /// Primary message.
    pub message: String,
    /// Attached `= note:` lines (witness evidence goes here).
    pub notes: Vec<String>,
    /// Attached `= help:` line.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic at the code's default severity.
    #[must_use]
    pub fn new(
        code: &'static LintCode,
        target: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity,
            target: target.into(),
            line: None,
            message: message.into(),
            notes: Vec::new(),
            help: None,
        }
    }

    /// Overrides the default severity.
    #[must_use]
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Anchors the diagnostic to a 1-based line.
    #[must_use]
    pub fn line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Attaches a `= note:` line.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attaches the `= help:` line.
    #[must_use]
    pub fn help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Renders the diagnostic in the rustc style:
    ///
    /// ```text
    /// warning[ML01-vacuous-property]: antecedent `replay_used` ...
    ///   --> scenarios/lint_fixtures/vacuous.toml:18
    ///   = note: search exhausted the full reachable space ...
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n",
            self.severity,
            self.code.full_name(),
            self.message
        );
        match self.line {
            Some(line) => out.push_str(&format!("  --> {}:{line}\n", self.target)),
            None => out.push_str(&format!("  --> {}\n", self.target)),
        }
        for note in &self.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        out
    }

    /// Renders the diagnostic as one deterministic JSON object (one
    /// line, keys in fixed order), the target under `target_key`.
    #[must_use]
    pub fn render_json(&self, target_key: &str) -> String {
        let text = |s: &str| Json::str(s);
        let field = |key: &str, value: Json| (key.to_string(), value);
        Json::Obj(vec![
            field("code", text(self.code.id)),
            field("slug", text(self.code.slug)),
            field("severity", text(self.severity.name())),
            field(target_key, text(&self.target)),
            field(
                "line",
                self.line.map_or(Json::Null, |l| Json::UInt(l as u64)),
            ),
            field("message", text(&self.message)),
            field(
                "notes",
                Json::Arr(self.notes.iter().map(|n| text(n)).collect()),
            ),
            field("help", self.help.as_deref().map_or(Json::Null, text)),
        ])
        .render()
    }
}

/// Which diagnostics fail the run: `--deny` / `--allow` gates.
///
/// `allow` wins over `deny` for specific codes; `deny_warnings` denies
/// every non-allowed diagnostic at warning severity or above. Errors
/// are always denied — an input that cannot be read or parsed cannot be
/// waved through.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Deny every warning-or-worse diagnostic (`--deny warnings`).
    pub deny_warnings: bool,
    /// Codes denied regardless of severity (`--deny ML31`).
    pub deny_codes: Vec<String>,
    /// Codes never denied (`--allow ML32`). Wins over `deny`.
    pub allow_codes: Vec<String>,
}

impl Gate {
    /// Whether `diag` fails the run under this gate.
    #[must_use]
    pub fn denies(&self, diag: &Diagnostic) -> bool {
        let code = diag.code.id;
        if self
            .allow_codes
            .iter()
            .any(|c| c.eq_ignore_ascii_case(code) && diag.severity != Severity::Error)
        {
            return false;
        }
        if diag.severity == Severity::Error {
            return true;
        }
        if self.deny_codes.iter().any(|c| c.eq_ignore_ascii_case(code)) {
            return true;
        }
        self.deny_warnings && diag.severity >= Severity::Warning
    }
}

/// The result of a full lint run: every diagnostic, in the tool's
/// deterministic order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Diagnostics failing under `gate`.
    pub fn denied<'a>(&'a self, gate: &'a Gate) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| gate.denies(d))
    }

    /// Number of diagnostics at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Renders every diagnostic plus a one-line summary; `allows_used`,
    /// when given, is reported as the number of allows in effect.
    #[must_use]
    pub fn render(&self, gate: &Gate, tool: &Tool, allows_used: Option<usize>) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} summary: {} error(s), {} warning(s), {} note(s); ",
            tool.label,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        ));
        if let Some(allows) = allows_used {
            out.push_str(&format!("{allows} allow(s) in effect; "));
        }
        out.push_str(&format!("{} denied\n", self.denied(gate).count()));
        out
    }

    /// Renders the whole report as line-oriented JSON: one object per
    /// diagnostic, then a summary object.
    #[must_use]
    pub fn render_json(&self, gate: &Gate, tool: &Tool, allows_used: Option<usize>) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render_json(tool.target_key));
            out.push('\n');
        }
        let count = |n: usize| Json::UInt(n as u64);
        let mut summary = vec![
            ("errors".to_string(), count(self.count(Severity::Error))),
            ("warnings".to_string(), count(self.count(Severity::Warning))),
            ("notes".to_string(), count(self.count(Severity::Note))),
        ];
        if let Some(allows) = allows_used {
            summary.push(("allows_used".to_string(), count(allows)));
        }
        summary.push(("denied".to_string(), count(self.denied(gate).count())));
        out.push_str(&Json::Obj(vec![("summary".to_string(), Json::Obj(summary))]).render());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod catalog {
        crate::codes! {
            XX01 = "XX01", "vacuous-property", Warning, "a warning";
            XX11 = "XX11", "never-fired-guard", Note, "a note";
            XX21 = "XX21", "invalid-artifact", Error, "an error";
        }
    }

    const TOOL: Tool = Tool {
        label: "lint",
        target_key: "target",
    };

    #[test]
    fn render_includes_code_target_notes_and_help() {
        let diag = Diagnostic::new(catalog::XX01, "x.toml", "antecedent `p` never enabled")
            .line(7)
            .note("0 of 100 reachable states")
            .help("drop the property");
        let text = diag.render();
        assert!(
            text.starts_with("warning[XX01-vacuous-property]:"),
            "{text}"
        );
        assert!(text.contains("--> x.toml:7"), "{text}");
        assert!(text.contains("= note: 0 of 100"), "{text}");
        assert!(text.contains("= help: drop the property"), "{text}");
    }

    #[test]
    fn json_escapes_orders_keys_and_names_the_target() {
        let diag = Diagnostic::new(catalog::XX21, "a\"b.toml", "dup \"key\"");
        for key in ["target", "file"] {
            let json = diag.render_json(key);
            assert!(json.starts_with("{\"code\":\"XX21\""), "{json}");
            assert!(
                json.contains(&format!("\"{key}\":\"a\\\"b.toml\"")),
                "{json}"
            );
            assert!(json.contains("\"line\":null"), "{json}");
            assert!(Json::parse(&json).is_ok(), "{json}");
        }
    }

    #[test]
    fn summary_carries_the_tool_data() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::new(catalog::XX01, "x", "w"),
                Diagnostic::new(catalog::XX11, "x", "n"),
            ],
        };
        let gate = Gate::default();
        assert!(report
            .render(&gate, &TOOL, None)
            .ends_with("lint summary: 0 error(s), 1 warning(s), 1 note(s); 0 denied\n"));
        let detlint = Tool {
            label: "detlint",
            target_key: "file",
        };
        assert!(report.render(&gate, &detlint, Some(3)).ends_with(
            "detlint summary: 0 error(s), 1 warning(s), 1 note(s); 3 allow(s) in effect; 0 denied\n"
        ));
        assert!(report
            .render_json(&gate, &TOOL, None)
            .ends_with("{\"summary\":{\"errors\":0,\"warnings\":1,\"notes\":1,\"denied\":0}}\n"));
        assert!(report.render_json(&gate, &detlint, Some(3)).ends_with(
            "{\"summary\":{\"errors\":0,\"warnings\":1,\"notes\":1,\"allows_used\":3,\"denied\":0}}\n"
        ));
    }

    #[test]
    fn gate_semantics() {
        let warn = Diagnostic::new(catalog::XX01, "x", "w");
        let note = Diagnostic::new(catalog::XX11, "x", "n");
        let err = Diagnostic::new(catalog::XX21, "x", "e");
        assert_eq!(note.severity, Severity::Note);

        let gate = Gate::default();
        assert!(!gate.denies(&warn));
        assert!(gate.denies(&err), "errors are always denied");

        let gate = Gate {
            deny_warnings: true,
            ..Gate::default()
        };
        assert!(gate.denies(&warn));
        assert!(!gate.denies(&note), "notes survive --deny warnings");

        let gate = Gate {
            deny_codes: vec!["xx11".into()],
            ..Gate::default()
        };
        assert!(gate.denies(&note), "--deny CODE denies notes too");

        let gate = Gate {
            deny_warnings: true,
            allow_codes: vec!["XX01".into(), "XX21".into()],
            ..Gate::default()
        };
        assert!(!gate.denies(&warn), "--allow wins over --deny warnings");
        assert!(gate.denies(&err), "--allow never excuses an error");
    }

    #[test]
    fn find_accepts_all_spellings() {
        assert_eq!(catalog::find("XX01").unwrap().slug, "vacuous-property");
        assert_eq!(catalog::find("vacuous-property").unwrap().id, "XX01");
        assert_eq!(catalog::find("xx11-never-fired-guard").unwrap().id, "XX11");
        assert!(catalog::find("XX99").is_none());
        assert_eq!(catalog::CATALOG.len(), 3);
    }
}
