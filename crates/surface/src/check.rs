//! Whole-script static analysis: the engine behind `itq --check FILE`.
//!
//! [`check_script`] walks a script statement by statement *without executing
//! anything*: definitions are parsed and analyzed (every query and algebra
//! expression runs the full [`itq_analyze`] pass pipeline, with spans offset
//! to script-absolute coordinates so caret snippets point into the original
//! file), reference statements (`eval`, `watch`, `plan`, …) are validated
//! against the names defined so far, and parse errors are reported with a
//! snippet and then skipped so one bad statement does not hide the rest of
//! the script's diagnostics.

use crate::error::Pos;
use crate::script::{offset_error, parse_stmt, split_statements, Stmt};
use crate::spans::{offset_span, SpanTable};
use itq_analyze::{
    analyze_algebra, analyze_query, render_snippet, Budgets, Report, Severity, Span,
};
use itq_object::{Schema, Universe};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of checking one script: printable lines plus severity counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptCheck {
    /// Human-readable diagnostic lines, in script order.
    pub lines: Vec<String>,
    /// Number of error-severity diagnostics (including parse errors).
    pub errors: usize,
    /// Number of warning-severity diagnostics.
    pub warnings: usize,
    /// Number of info-severity diagnostics.
    pub infos: usize,
}

impl ScriptCheck {
    /// The most severe diagnostic level present, or `None` for a clean script.
    pub fn max_severity(&self) -> Option<Severity> {
        if self.errors > 0 {
            Some(Severity::Error)
        } else if self.warnings > 0 {
            Some(Severity::Warning)
        } else if self.infos > 0 {
            Some(Severity::Info)
        } else {
            None
        }
    }

    /// The `itq --check` process exit code: 0 for clean or info-only, 1 when
    /// the worst diagnostic is a warning, 2 when any error was found.
    pub fn exit_code(&self) -> i32 {
        match self.max_severity() {
            Some(Severity::Error) => 2,
            Some(Severity::Warning) => 1,
            _ => 0,
        }
    }

    /// `"1 error, 2 warnings"`-style summary; `"no diagnostics"` when clean.
    pub fn summary(&self) -> String {
        if self.errors == 0 && self.warnings == 0 && self.infos == 0 {
            return "no diagnostics".to_string();
        }
        let mut parts = Vec::new();
        for (n, singular) in [
            (self.errors, "error"),
            (self.warnings, "warning"),
            (self.infos, "info"),
        ] {
            if n == 1 {
                parts.push(format!("1 {singular}"));
            } else if n > 1 {
                parts.push(format!("{n} {singular}s"));
            }
        }
        parts.join(", ")
    }

    fn count(&mut self, severity: Severity) {
        match severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
            Severity::Info => self.infos += 1,
        }
    }
}

/// Names a script has defined so far, for reference validation.
#[derive(Default)]
struct Defined {
    schemas: BTreeMap<String, Schema>,
    databases: BTreeSet<String>,
    queries: BTreeSet<String>,
    algebras: BTreeSet<String>,
}

impl Defined {
    fn is_evaluable(&self, name: &str) -> bool {
        self.queries.contains(name) || self.algebras.contains(name)
    }

    fn is_anything(&self, name: &str) -> bool {
        self.is_evaluable(name) || self.schemas.contains_key(name) || self.databases.contains(name)
    }
}

/// Statically analyze a whole script without executing it.
///
/// ```
/// use itq_analyze::Budgets;
/// use itq_surface::check_script;
///
/// let check = check_script(
///     "schema G {P : [U, U]};\n\
///      query q : G {t/[U, U] | ∃x/[U, U] (P(t) ∧ ⊤)};\n\
///      eval q on nowhere;",
///     &Budgets::default(),
/// );
/// // The unused quantifier and the vacuous conjunct are warnings; the
/// // unknown database is an error.
/// assert!(check.errors >= 1 && check.warnings >= 1);
/// assert_eq!(check.exit_code(), 2);
/// ```
pub fn check_script(src: &str, budgets: &Budgets) -> ScriptCheck {
    let mut check = ScriptCheck::default();
    let mut defined = Defined::default();
    let mut universe = Universe::new();
    for (chunk, base) in split_statements(src) {
        let stmt = match parse_stmt(&chunk, &defined.schemas, &mut universe) {
            Ok(stmt) => stmt,
            Err(e) => {
                let e = offset_error(e, base);
                check.count(Severity::Error);
                check.lines.push(format!("error: {}", e.message));
                let at = (e.pos.line, e.pos.column);
                let span = (at, (at.0, at.1 + 1));
                indent_snippet(&mut check.lines, src, span);
                continue;
            }
        };
        match stmt {
            Stmt::DefSchema { name, schema } => {
                defined.schemas.insert(name, schema);
            }
            Stmt::DefDatabase { name, .. } => {
                defined.databases.insert(name);
            }
            Stmt::DefQuery {
                name, query, spans, ..
            } => {
                let report = analyze_query(&query, budgets);
                emit(&mut check, &name, &report, src, &spans, base);
                defined.queries.insert(name);
            }
            Stmt::DefAlgebra {
                name,
                schema,
                expr,
                spans,
                ..
            } => {
                let schema = defined.schemas[&schema].clone();
                let report = analyze_algebra(&expr, &schema, budgets);
                emit(&mut check, &name, &report, src, &spans, base);
                defined.algebras.insert(name);
            }
            Stmt::Eval { name, database, .. }
            | Stmt::ExplainAnalyze { name, database, .. }
            | Stmt::Watch { name, database, .. } => {
                require(&mut check, defined.is_evaluable(&name), base, src, || {
                    format!("no query or algebra expression named `{name}`")
                });
                require(
                    &mut check,
                    defined.databases.contains(&database),
                    base,
                    src,
                    || format!("unknown database `{database}`"),
                );
            }
            Stmt::Classify { name }
            | Stmt::Typecheck { name }
            | Stmt::Check { name }
            | Stmt::Plan { name } => {
                require(&mut check, defined.is_evaluable(&name), base, src, || {
                    format!("no query or algebra expression named `{name}`")
                });
            }
            Stmt::Show { name } => {
                require(&mut check, defined.is_anything(&name), base, src, || {
                    format!("nothing named `{name}`")
                });
            }
            Stmt::Insert { database, .. } | Stmt::Delete { database, .. } => {
                require(
                    &mut check,
                    defined.databases.contains(&database),
                    base,
                    src,
                    || format!("unknown database `{database}`"),
                );
            }
            Stmt::Compile { name, target } => {
                require(&mut check, defined.is_evaluable(&name), base, src, || {
                    format!("no query or algebra expression named `{name}`")
                });
                // `compile` defines its target, so later statements may
                // reference it even though nothing was executed here.
                defined
                    .queries
                    .insert(target.unwrap_or_else(|| format!("{name}_calc")));
            }
            // `unwatch` state, `set` limits, `list`, `help`, and `quit` have
            // nothing to validate statically.
            Stmt::Unwatch { .. } | Stmt::Set { .. } | Stmt::List | Stmt::Help | Stmt::Quit => {}
        }
    }
    check
}

/// Render one definition's analysis report into the check output, offsetting
/// each statement-relative span by the statement's base position so snippets
/// index into the full script source.
fn emit(
    check: &mut ScriptCheck,
    name: &str,
    report: &Report,
    src: &str,
    spans: &SpanTable,
    base: Pos,
) {
    for d in &report.diagnostics {
        check.count(d.severity);
        check.lines.push(format!(
            "{}[{}] in {name}: {}",
            d.severity, d.code, d.message
        ));
        for note in &d.notes {
            check.lines.push(format!("    note: {note}"));
        }
        if let Some(span) = d.node.and_then(|n| spans.get(n)) {
            indent_snippet(&mut check.lines, src, offset_span(span, base));
        }
    }
}

/// Record a reference-validation error (with a snippet pointing at the
/// statement head) unless the reference resolves.
fn require(
    check: &mut ScriptCheck,
    ok: bool,
    base: Pos,
    src: &str,
    message: impl FnOnce() -> String,
) {
    if !ok {
        check.count(Severity::Error);
        check.lines.push(format!("error: {}", message()));
        let at = (base.line, base.column);
        indent_snippet(&mut check.lines, src, (at, (at.0, at.1 + 1)));
    }
}

fn indent_snippet(lines: &mut Vec<String>, src: &str, span: Span) {
    lines.extend(
        render_snippet(src, span)
            .into_iter()
            .map(|l| format!("    {l}")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(src: &str) -> ScriptCheck {
        check_script(src, &Budgets::default())
    }

    #[test]
    fn clean_scripts_have_no_diagnostics_above_info() {
        let check = checked(
            "schema Gen {PAR : [U, U]};\n\
             database d : Gen {PAR = {[Tom, Mary], [Mary, Sue]}};\n\
             query gp : Gen {t/[U, U] | ∃x/[U, U] ∃y/[U, U] \
             (PAR(x) ∧ PAR(y) ∧ x.2 ≈ y.1 ∧ t.1 ≈ x.1 ∧ t.2 ≈ y.2)};\n\
             eval gp on d;\nlist; help; quit",
        );
        assert_eq!(check.errors, 0, "{:?}", check.lines);
        assert_eq!(check.warnings, 0, "{:?}", check.lines);
        // The stratum report is always emitted.
        assert!(check.infos >= 1);
        assert_eq!(check.exit_code(), 0);
    }

    #[test]
    fn parse_errors_are_reported_and_skipped() {
        let check = checked("frobnicate x;\nschema G {P : U};\nshow G;");
        assert_eq!(check.errors, 1);
        assert!(
            check.lines[0].contains("unknown statement"),
            "{:?}",
            check.lines
        );
        // The statements after the bad one were still checked (no extra errors).
        assert_eq!(check.exit_code(), 2);
    }

    #[test]
    fn unknown_references_are_errors_with_snippets() {
        let check = checked(
            "schema G {P : [U, U]};\n\
             query q : G {t/[U, U] | P(t)};\n\
             eval q on nowhere;\n\
             eval nope on nowhere;\n\
             plan q;\n\
             plan missing;\n\
             show mystery;\n\
             insert into ghost.P {[Tom, Mary]};",
        );
        // nowhere ×2, nope, missing, mystery, ghost (`plan` takes queries too).
        assert_eq!(check.errors, 6, "{:?}", check.lines);
        assert!(check
            .lines
            .iter()
            .any(|l| l.contains("unknown database `nowhere`")));
        assert!(check.lines.iter().any(|l| l.contains("`nope`")));
        assert!(check
            .lines
            .iter()
            .any(|l| l.contains("no query or algebra expression named `missing`")));
        assert!(!check.lines.iter().any(|l| l.contains("`q`")));
        assert!(check
            .lines
            .iter()
            .any(|l| l.contains("nothing named `mystery`")));
        assert!(check
            .lines
            .iter()
            .any(|l| l.contains("unknown database `ghost`")));
        // Each error points somewhere: a ` --> line:col` snippet line follows.
        assert!(check.lines.iter().filter(|l| l.contains("-->")).count() >= 6);
    }

    #[test]
    fn definition_diagnostics_carry_script_absolute_spans() {
        let check = checked(
            "schema G {P : [U, U]};\n\
             query q : G {t/[U, U] | ∃x/[U, U] (P(t) ∧ t ≈ t)};",
        );
        assert!(check.warnings >= 2, "{:?}", check.lines); // unused x, foldable t ≈ t
        assert!(
            check.lines.iter().any(|l| l.contains("ITQ0101")),
            "{:?}",
            check.lines
        );
        assert!(
            check.lines.iter().any(|l| l.contains("ITQ0103")),
            "{:?}",
            check.lines
        );
        // Spans point into line 2 of the script, not line 1 of the statement.
        assert!(
            check
                .lines
                .iter()
                .any(|l| l.trim_start().starts_with("--> 2:")),
            "{:?}",
            check.lines
        );
        assert_eq!(check.exit_code(), 1);
    }

    #[test]
    fn compile_defines_its_target_for_later_references() {
        let check = checked(
            "schema G {P : [U, U]};\n\
             database d : G {P = {[Tom, Mary]}};\n\
             algebra a : G P ∪ P;\n\
             compile a;\n\
             eval a_calc on d;\n\
             compile a as b;\n\
             eval b on d;",
        );
        assert_eq!(check.errors, 0, "{:?}", check.lines);
    }

    #[test]
    fn nothing_is_ever_executed() {
        // A budget-exceeding powerset tower type-checks fine; `--check` must
        // report the forecast without evaluating anything (executing this
        // would take effectively forever).
        let check = checked(
            "schema G {P : U};\n\
             database d : G {P = {a0}};\n\
             algebra tower : G 𝒫(𝒫(𝒫(𝒫(𝒫(𝒫(P))))));\n\
             eval tower on d;",
        );
        assert_eq!(check.errors, 0, "{:?}", check.lines);
        assert!(
            check.lines.iter().any(|l| l.contains("ITQ0302")),
            "{:?}",
            check.lines
        );
    }
}
