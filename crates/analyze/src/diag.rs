//! The diagnostics model: stable `ITQ####` codes, severities, and reports.
//!
//! Every diagnostic the analyzer can emit is registered in [`REGISTRY`] with a
//! stable numeric code, a default severity, and a one-line summary. Codes are
//! grouped by the hundreds digit:
//!
//! * `ITQ01xx` — calculus formula hygiene (variables, constant subformulas)
//! * `ITQ02xx` — algebra expression defects (relations, typing, selections)
//! * `ITQ03xx` — static budget predictions (quantifier domains, cardinality)
//! * `ITQ04xx` — CALC_{k,i} stratum / intermediate-type reports

use std::fmt;

/// How serious a diagnostic is. `Error` means the construct is guaranteed to
/// be rejected before or during execution; `Warning` means it executes but is
/// almost certainly not what the author meant; `Info` is a report, not a
/// defect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A stable diagnostic code, rendered as `ITQ0101`-style. The numeric value
/// never changes once a code has shipped; retired codes are not reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ITQ{:04}", self.0)
    }
}

/// Registry entry for one diagnostic code.
#[derive(Clone, Copy, Debug)]
pub struct CodeInfo {
    pub code: Code,
    /// Short kebab-case name, stable like the code itself.
    pub name: &'static str,
    pub severity: Severity,
    /// One-line summary used in documentation tables.
    pub summary: &'static str,
}

/// Unused quantified variable.
pub const UNUSED_VARIABLE: Code = Code(101);
/// Quantifier shadows an enclosing binding (or the query target).
pub const SHADOWED_VARIABLE: Code = Code(102);
/// Subformula is always true.
pub const ALWAYS_TRUE: Code = Code(103);
/// Subformula is always false.
pub const ALWAYS_FALSE: Code = Code(104);
/// Reference to a relation the schema does not define.
pub const UNDEFINED_RELATION: Code = Code(201);
/// Operator applied to an operand of the wrong type.
pub const TYPE_MISMATCH: Code = Code(202);
/// Coordinate-free selection over a non-tuple operand (the PR-5 typing hole).
pub const VACUOUS_SELECTION: Code = Code(203);
/// Selection formula can never hold.
pub const SELECTION_ALWAYS_FALSE: Code = Code(204);
/// Selection formula always holds.
pub const SELECTION_ALWAYS_TRUE: Code = Code(205);
/// Expression is empty for every database instance.
pub const ALWAYS_EMPTY: Code = Code(206);
/// A quantifier domain is guaranteed to exceed the evaluation budget.
pub const QUANTIFIER_BUDGET: Code = Code(301);
/// An operator's output cardinality is guaranteed to exceed the budget.
pub const CARDINALITY_BUDGET: Code = Code(302);
/// CALC_{k,i} stratum report for the whole query / expression.
pub const STRATUM_REPORT: Code = Code(401);
/// A quantifier ranges over an intermediate type (drives the `i` in
/// CALC_{k,i}).
pub const INTERMEDIATE_TYPE: Code = Code(402);

/// Every registered diagnostic code. Documentation and the README table are
/// tested against this list.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: UNUSED_VARIABLE,
        name: "unused-variable",
        severity: Severity::Warning,
        summary: "a quantified variable is never used in the quantifier body",
    },
    CodeInfo {
        code: SHADOWED_VARIABLE,
        name: "shadowed-variable",
        severity: Severity::Warning,
        summary: "a quantifier rebinds a variable already bound in scope",
    },
    CodeInfo {
        code: ALWAYS_TRUE,
        name: "always-true",
        severity: Severity::Warning,
        summary: "a subformula is true for every database instance",
    },
    CodeInfo {
        code: ALWAYS_FALSE,
        name: "always-false",
        severity: Severity::Warning,
        summary: "a subformula is false for every database instance",
    },
    CodeInfo {
        code: UNDEFINED_RELATION,
        name: "undefined-relation",
        severity: Severity::Error,
        summary: "the expression references a relation the schema does not define",
    },
    CodeInfo {
        code: TYPE_MISMATCH,
        name: "type-mismatch",
        severity: Severity::Error,
        summary: "an operator is applied to an operand of the wrong type",
    },
    CodeInfo {
        code: VACUOUS_SELECTION,
        name: "vacuous-selection",
        severity: Severity::Error,
        summary: "a coordinate-free selection is applied to a non-tuple operand",
    },
    CodeInfo {
        code: SELECTION_ALWAYS_FALSE,
        name: "selection-always-false",
        severity: Severity::Warning,
        summary: "a selection formula is contradictory, so the selection is empty",
    },
    CodeInfo {
        code: SELECTION_ALWAYS_TRUE,
        name: "selection-always-true",
        severity: Severity::Info,
        summary: "a selection formula always holds, so the selection is the identity",
    },
    CodeInfo {
        code: ALWAYS_EMPTY,
        name: "always-empty",
        severity: Severity::Warning,
        summary: "the expression evaluates to the empty set on every instance",
    },
    CodeInfo {
        code: QUANTIFIER_BUDGET,
        name: "quantifier-budget",
        severity: Severity::Warning,
        summary: "a quantifier domain must exceed the evaluation budget",
    },
    CodeInfo {
        code: CARDINALITY_BUDGET,
        name: "cardinality-budget",
        severity: Severity::Warning,
        summary: "an operator's output must exceed the instance-size budget",
    },
    CodeInfo {
        code: STRATUM_REPORT,
        name: "stratum-report",
        severity: Severity::Info,
        summary: "CALC_{k,i} classification of the query or expression",
    },
    CodeInfo {
        code: INTERMEDIATE_TYPE,
        name: "intermediate-type",
        severity: Severity::Info,
        summary: "a quantifier ranges over an intermediate type",
    },
];

/// All registered codes, in code order.
pub fn all_codes() -> &'static [CodeInfo] {
    REGISTRY
}

/// Registry metadata for `code`, if registered.
pub fn code_info(code: Code) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|info| info.code == code)
}

/// One diagnostic produced by an analysis pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub message: String,
    /// Pre-order index of the subterm the diagnostic points at (an index into
    /// [`crate::walk::formula_preorder`] for queries or
    /// [`crate::walk::algebra_preorder`] for algebra expressions). `None`
    /// anchors the diagnostic to the whole definition.
    pub node: Option<usize>,
    /// Secondary free-form notes rendered under the message.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with the registry's default severity for `code`.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        let severity = code_info(code)
            .map(|i| i.severity)
            .unwrap_or(Severity::Warning);
        Diagnostic {
            code,
            severity,
            message: message.into(),
            node: None,
            notes: Vec::new(),
        }
    }

    pub fn at(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// The outcome of analyzing one query or algebra expression: the diagnostics
/// of every pass, in pass order then subterm order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// The most severe diagnostic level present, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Diagnostics at `severity` or above.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity >= severity)
    }

    /// `"2 errors, 1 warning"`-style summary; `"no diagnostics"` when clean.
    pub fn summary(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no diagnostics".to_string();
        }
        let count = |sev: Severity| {
            self.diagnostics
                .iter()
                .filter(|d| d.severity == sev)
                .count()
        };
        let mut parts = Vec::new();
        for (sev, singular) in [
            (Severity::Error, "error"),
            (Severity::Warning, "warning"),
            (Severity::Info, "info"),
        ] {
            let n = count(sev);
            if n == 1 {
                parts.push(format!("1 {singular}"));
            } else if n > 1 {
                parts.push(format!("{n} {singular}s"));
            }
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_zero_padded_and_stable() {
        assert_eq!(UNUSED_VARIABLE.to_string(), "ITQ0101");
        assert_eq!(CARDINALITY_BUDGET.to_string(), "ITQ0302");
    }

    #[test]
    fn registry_is_sorted_and_duplicate_free() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "registry out of order at {}",
                pair[1].code
            );
        }
    }

    #[test]
    fn every_code_constant_is_registered() {
        for code in [
            UNUSED_VARIABLE,
            SHADOWED_VARIABLE,
            ALWAYS_TRUE,
            ALWAYS_FALSE,
            UNDEFINED_RELATION,
            TYPE_MISMATCH,
            VACUOUS_SELECTION,
            SELECTION_ALWAYS_FALSE,
            SELECTION_ALWAYS_TRUE,
            ALWAYS_EMPTY,
            QUANTIFIER_BUDGET,
            CARDINALITY_BUDGET,
            STRATUM_REPORT,
            INTERMEDIATE_TYPE,
        ] {
            assert!(code_info(code).is_some(), "{code} missing from REGISTRY");
        }
    }

    #[test]
    fn severity_orders_info_below_warning_below_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_summary_counts_by_severity() {
        let mut report = Report::default();
        assert_eq!(report.summary(), "no diagnostics");
        assert_eq!(report.max_severity(), None);
        report
            .diagnostics
            .push(Diagnostic::new(UNUSED_VARIABLE, "x"));
        report
            .diagnostics
            .push(Diagnostic::new(SHADOWED_VARIABLE, "y"));
        report
            .diagnostics
            .push(Diagnostic::new(STRATUM_REPORT, "CALC"));
        assert_eq!(report.summary(), "2 warnings, 1 info");
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        report
            .diagnostics
            .push(Diagnostic::new(UNDEFINED_RELATION, "R"));
        assert_eq!(report.summary(), "1 error, 2 warnings, 1 info");
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }
}
