//! The statement layer of the surface language.
//!
//! A *script* is a sequence of `;`-terminated statements:
//!
//! ```text
//! schema Gen {PAR : [U, U]};                    # declare a schema
//! database d : Gen {PAR = {[Tom, Mary]}};       # a database instance over it
//! query gp : Gen {t/[U, U] | ...};              # a named calculus query
//! algebra ga : Gen pi_{1,4}(sigma_{$2 = $3}(PAR * PAR));
//! typecheck gp;                                 # re-check and print the typing
//! classify gp;                                  # minimal CALC_{k,i} class
//! eval gp on d;                                 # limited interpretation
//! eval gp on d with finite-invention;           # Section 6 semantics
//! eval gp on d under ti;                        # `under` ≡ `with`; fi/ti aliases
//! explain analyze gp on d;                      # execute + annotated trace tree
//! compile ga as gc;                             # algebra -> calculus (Thm 3.8)
//! insert into d.PAR {[Sue, Ann]};               # mutate a database in place
//! delete from d.PAR {[Tom, Mary]};
//! watch gp on d;                                # keep the answer warm under mutation
//! unwatch gp;                                   # (or `unwatch gp on d;`)
//! show gc;  list;  help;  quit;
//! ```
//!
//! Statement keywords are *contextual*: they are ordinary identifiers to the
//! lexer, so `eval`, `show`, … remain legal predicate or database names.
//! Comments (`#`, `//`, `--`) and blank statements are skipped.
//!
//! Because a statement may reference schemas declared earlier in the same
//! script, parsing is incremental: [`split_statements`] cuts the source into
//! statement chunks (respecting quotes and comments), and [`parse_stmt`]
//! parses one chunk against the session's current schema table and universe.
//! [`crate::Session`] drives the two and executes each statement as it parses.

use crate::error::{ParseError, Pos, Result};
use crate::parser::Parser;
use crate::spans::{algebra_span_table, formula_span_table, SpanTable};
use itq_algebra::AlgExpr;
use itq_calculus::Query;
use itq_core::engine::Semantics;
use itq_object::{Database, Schema, Universe, Value};
use std::collections::BTreeMap;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `schema NAME {P : T, …};`
    DefSchema {
        /// The schema's name.
        name: String,
        /// The declared schema.
        schema: Schema,
    },
    /// `database NAME : SCHEMA {P = {…}, …};` (alias `db`).
    DefDatabase {
        /// The database's name.
        name: String,
        /// Name of the governing schema.
        schema: String,
        /// The (already validated) instance.
        database: Database,
    },
    /// `query NAME : SCHEMA {t/T | φ};`
    DefQuery {
        /// The query's name.
        name: String,
        /// Name of the input schema.
        schema: String,
        /// The (already validated) query.
        query: Query,
        /// The statement's source text, for diagnostic snippets.
        src: String,
        /// Statement-relative spans of the body's subformulas, indexed like
        /// [`itq_analyze::formula_preorder`].
        spans: SpanTable,
    },
    /// `algebra NAME : SCHEMA EXPR;` (alias `alg`).
    DefAlgebra {
        /// The expression's name.
        name: String,
        /// Name of the input schema.
        schema: String,
        /// The expression (typed at execution time).
        expr: AlgExpr,
        /// The statement's source text, for diagnostic snippets.
        src: String,
        /// Statement-relative spans of the expression's subterms, indexed like
        /// [`itq_analyze::algebra_preorder`].
        spans: SpanTable,
    },
    /// `show NAME;` — print a named object.
    Show {
        /// The object to print.
        name: String,
    },
    /// `list;` — enumerate everything declared so far.
    List,
    /// `classify NAME;` — minimal `CALC_{k,i}` / `ALG_{k,i}` class.
    Classify {
        /// A query or algebra name.
        name: String,
    },
    /// `typecheck NAME;` — re-validate and print the typing.
    Typecheck {
        /// A query or algebra name.
        name: String,
    },
    /// `check NAME;` — run the static analyzer and print every diagnostic
    /// with caret snippets, without executing anything.
    Check {
        /// A query or algebra name.
        name: String,
    },
    /// `plan NAME;` — pretty-print the physical plan of an algebra
    /// expression or a conjunctive calculus query (joins extracted,
    /// selections pushed down, projections fused), or the Datalog rules of a
    /// least-fixpoint calculus query.
    Plan {
        /// A query or algebra name.
        name: String,
    },
    /// `eval NAME on DB [with SEMANTICS];`
    Eval {
        /// A query or algebra name.
        name: String,
        /// The database to evaluate on.
        database: String,
        /// Which semantics to use (default [`Semantics::Limited`]).
        semantics: Semantics,
    },
    /// `explain analyze NAME on DB [with SEMANTICS];` — execute and print
    /// the plan/evaluation tree annotated with actual per-operator row counts
    /// and timings.
    ExplainAnalyze {
        /// A query or algebra name.
        name: String,
        /// The database to execute on.
        database: String,
        /// Which semantics to use (default [`Semantics::Limited`]).
        semantics: Semantics,
    },
    /// `insert into DB.PRED {v, …};` — add tuples to a relation; watched
    /// views on `DB` refresh.
    Insert {
        /// The mutated database.
        database: String,
        /// The mutated relation.
        pred: String,
        /// The tuples to add (a set literal, or one bare value).
        values: Vec<Value>,
    },
    /// `delete from DB.PRED {v, …};` — remove tuples from a relation.
    Delete {
        /// The mutated database.
        database: String,
        /// The mutated relation.
        pred: String,
        /// The tuples to remove.
        values: Vec<Value>,
    },
    /// `watch NAME on DB [with SEMANTICS];` — keep a query's answer warm
    /// under mutation of `DB`.
    Watch {
        /// A query or algebra name.
        name: String,
        /// The database to watch it on.
        database: String,
        /// Which semantics to watch under (default [`Semantics::Limited`]).
        semantics: Semantics,
    },
    /// `unwatch NAME [on DB];` — stop watching (everywhere if no `on`).
    Unwatch {
        /// The watched query's name.
        name: String,
        /// Restrict to one database.
        database: Option<String>,
    },
    /// `compile NAME [as NEW];` — translate between the languages.
    Compile {
        /// The object to translate.
        name: String,
        /// Name to bind the result to (default `NAME_calc`).
        target: Option<String>,
    },
    /// `set deadline <millis>|off;` / `set memory <bytes>|off;` — arm or
    /// disarm a resource-governor limit on the session engine.
    Set {
        /// Which limit to adjust.
        knob: SetKnob,
        /// The new limit, or `None` for `off`.
        value: Option<u64>,
    },
    /// `help;`
    Help,
    /// `quit;` / `exit;`
    Quit,
}

/// The resource-governor limits adjustable with `set` (see [`Stmt::Set`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetKnob {
    /// `set deadline <millis>;` — wall-clock deadline per execution.
    Deadline,
    /// `set memory <bytes>;` — interned-bytes ceiling per execution.
    Memory,
}

/// Split a script into `;`-terminated statement chunks, each paired with the
/// position of its first character.  Quoted literals and comments are opaque
/// to the splitter, so a `;` inside them does not end a statement.  The final
/// chunk needs no trailing `;`.  Empty chunks (stray `;;`, trailing comments)
/// are dropped.
pub fn split_statements(src: &str) -> Vec<(String, Pos)> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut start: Option<Pos> = None;
    let mut pos = Pos::start();
    let mut chars = src.chars().peekable();
    // The character consumed by the previous iteration — `#` and `'` only act
    // as comment/quote openers at a token start, mirroring the lexer, which
    // treats both as identifier-continuation characters (`v#0`, `x'`).
    let mut prev: Option<char> = None;

    // Append `c` to the open chunk; text before a chunk opens is dropped so a
    // chunk starts exactly at its first significant character and the
    // chunk-relative error positions in `offset_error` line up.
    fn push(current: &mut String, start: &Option<Pos>, c: char) {
        if start.is_some() {
            current.push(c);
        }
    }

    fn continues_identifier(prev: Option<char>) -> bool {
        prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '\'' || c == '#')
    }

    while let Some(c) = chars.next() {
        let here = pos;
        if c == '\n' {
            pos.line += 1;
            pos.column = 1;
        } else {
            pos.column += 1;
        }
        let mut last = c;
        match c {
            ';' => {
                if let Some(s) = start.take() {
                    out.push((std::mem::take(&mut current), s));
                }
            }
            // Comments (`#`, `//`, `--`) run to end of line; they are replaced
            // by the newline that ends them, preserving the line structure on
            // which error positions rely.
            '#' if !continues_identifier(prev) => {
                consume_comment(&mut chars, &mut pos, &mut current, &start);
                last = '\n';
            }
            '/' | '-' if chars.peek() == Some(&c) => {
                chars.next();
                pos.column += 1;
                consume_comment(&mut chars, &mut pos, &mut current, &start);
                last = '\n';
            }
            '\'' if continues_identifier(prev) => {
                // A prime continuing an identifier (`x'`), not a quote.
                push(&mut current, &start, c);
            }
            '"' | '\'' => {
                if start.is_none() {
                    start = Some(here);
                }
                current.push(c);
                for q in chars.by_ref() {
                    if q == '\n' {
                        pos.line += 1;
                        pos.column = 1;
                    } else {
                        pos.column += 1;
                    }
                    current.push(q);
                    last = q;
                    if q == c {
                        break;
                    }
                }
            }
            _ => {
                if start.is_none() && !c.is_whitespace() {
                    start = Some(here);
                    current.push(c);
                } else {
                    push(&mut current, &start, c);
                }
            }
        }
        prev = Some(last);
    }
    if let Some(s) = start {
        out.push((current, s));
    }
    out
}

/// True if the buffered text ends with a statement terminator (outside quotes
/// and comments) or contains nothing but whitespace/comments — the "is this
/// input ready to execute?" probe shared by the REPL and the `itq serve`
/// connection loop.
pub fn statement_complete(buffered: &str) -> bool {
    let chunks = split_statements(buffered);
    if chunks.is_empty() {
        return true;
    }
    // The splitter drops the terminator itself; re-scan for a trailing `;`
    // after the start of the last chunk by checking whether appending a
    // harmless statement would merge with it.
    let mut probe = buffered.to_string();
    probe.push_str("\nlist");
    let probed = split_statements(&probe);
    probed.len() > chunks.len()
}

/// Skip to end of line, appending the terminating newline to the open chunk.
fn consume_comment(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    pos: &mut Pos,
    current: &mut String,
    start: &Option<Pos>,
) {
    for c in chars.by_ref() {
        if c == '\n' {
            pos.line += 1;
            pos.column = 1;
            if start.is_some() {
                current.push('\n');
            }
            return;
        }
        pos.column += 1;
    }
}

/// Parse one statement chunk against the current schema table, interning named
/// atoms in `universe`.  Error positions are relative to the chunk; callers
/// offset them by the chunk's base position (see [`offset_error`]).
pub fn parse_stmt(
    src: &str,
    schemas: &BTreeMap<String, Schema>,
    universe: &mut Universe,
) -> Result<Stmt> {
    let mut p = Parser::with_universe(src, universe)?;
    let (head, head_pos) = ident_head(&mut p)?;
    let stmt = match head.as_str() {
        "schema" => {
            let (name, _) = named(&mut p, "a schema name")?;
            let schema = p.schema_literal()?;
            Stmt::DefSchema { name, schema }
        }
        "database" | "db" => {
            let (name, _) = named(&mut p, "a database name")?;
            let (schema_name, schema) = schema_ref(&mut p, schemas)?;
            let database = p.database_literal(&schema)?;
            Stmt::DefDatabase {
                name,
                schema: schema_name,
                database,
            }
        }
        "query" => {
            let (name, _) = named(&mut p, "a query name")?;
            let (schema_name, schema) = schema_ref(&mut p, schemas)?;
            let query = p.query(&schema)?;
            let spans = formula_span_table(query.body(), &p.take_span_events());
            Stmt::DefQuery {
                name,
                schema: schema_name,
                query,
                src: src.to_string(),
                spans,
            }
        }
        "algebra" | "alg" => {
            let (name, _) = named(&mut p, "an expression name")?;
            let (schema_name, _) = schema_ref(&mut p, schemas)?;
            let expr = p.alg_expr()?;
            let spans = algebra_span_table(&expr, &p.take_span_events());
            Stmt::DefAlgebra {
                name,
                schema: schema_name,
                expr,
                src: src.to_string(),
                spans,
            }
        }
        "show" => Stmt::Show {
            name: named(&mut p, "a name to show")?.0,
        },
        "list" => Stmt::List,
        "classify" => Stmt::Classify {
            name: named(&mut p, "a query or algebra name")?.0,
        },
        "typecheck" => Stmt::Typecheck {
            name: named(&mut p, "a query or algebra name")?.0,
        },
        "check" => Stmt::Check {
            name: named(&mut p, "a query or algebra name")?.0,
        },
        "plan" => Stmt::Plan {
            name: named(&mut p, "an algebra expression name")?.0,
        },
        "eval" => {
            let (name, database, semantics) = query_on_database(&mut p)?;
            Stmt::Eval {
                name,
                database,
                semantics,
            }
        }
        "explain" => {
            let (kw, kw_pos) = named(&mut p, "`analyze`")?;
            if kw != "analyze" {
                return Err(ParseError::new(
                    "expected `analyze` after `explain` (as in \
                     `explain analyze NAME on DB [with SEMANTICS]`)",
                    kw_pos,
                ));
            }
            let (name, database, semantics) = query_on_database(&mut p)?;
            Stmt::ExplainAnalyze {
                name,
                database,
                semantics,
            }
        }
        "insert" | "delete" => {
            let inserting = head == "insert";
            let joiner = if inserting { "into" } else { "from" };
            let (kw, kw_pos) = named(&mut p, &format!("`{joiner}`"))?;
            if kw != joiner {
                return Err(ParseError::new(
                    format!("expected `{joiner} DB.PRED` after `{head}`"),
                    kw_pos,
                ));
            }
            let (database, _) = named(&mut p, "a database name")?;
            p.expect_dot()?;
            let (pred, _) = named(&mut p, "a relation name")?;
            let values = match p.value()? {
                // A set literal is the bulk form; a bare value mutates one tuple.
                Value::Set(items) => items.into_iter().collect(),
                single => vec![single],
            };
            if inserting {
                Stmt::Insert {
                    database,
                    pred,
                    values,
                }
            } else {
                Stmt::Delete {
                    database,
                    pred,
                    values,
                }
            }
        }
        "watch" => {
            let (name, database, semantics) = query_on_database(&mut p)?;
            Stmt::Watch {
                name,
                database,
                semantics,
            }
        }
        "unwatch" => {
            let (name, _) = named(&mut p, "a watched query name")?;
            let database = if p.at_end() {
                None
            } else {
                let (on, on_pos) = named(&mut p, "`on`")?;
                if on != "on" {
                    return Err(ParseError::new("expected `on <database>`", on_pos));
                }
                Some(named(&mut p, "a database name")?.0)
            };
            Stmt::Unwatch { name, database }
        }
        "compile" => {
            let (name, _) = named(&mut p, "a query or algebra name")?;
            let target = if p.at_end() {
                None
            } else {
                let (kw, kw_pos) = named(&mut p, "`as`")?;
                if kw != "as" {
                    return Err(ParseError::new("expected `as <name>`", kw_pos));
                }
                Some(named(&mut p, "a target name")?.0)
            };
            Stmt::Compile { name, target }
        }
        "set" => {
            let (knob, knob_pos) = named(&mut p, "`deadline` or `memory`")?;
            let knob = match knob.as_str() {
                "deadline" => SetKnob::Deadline,
                "memory" => SetKnob::Memory,
                other => {
                    return Err(ParseError::new(
                        format!(
                            "unknown limit `{other}`; expected `set deadline <millis>|off` \
                             or `set memory <bytes>|off`"
                        ),
                        knob_pos,
                    ));
                }
            };
            let off_pos = p.pos();
            let value = match p.ident_or_none() {
                Some(word) if word == "off" => None,
                Some(word) => {
                    return Err(ParseError::new(
                        format!("expected a number or `off`, found `{word}`"),
                        off_pos,
                    ));
                }
                None => Some(p.nat("a number or `off`")?),
            };
            Stmt::Set { knob, value }
        }
        "help" => Stmt::Help,
        "quit" | "exit" => Stmt::Quit,
        other => {
            return Err(ParseError::new(
                format!(
                    "unknown statement `{other}`; expected one of schema, database, query, \
                     algebra, show, list, classify, typecheck, check, plan, eval, explain, \
                     insert, delete, watch, unwatch, compile, set, help, quit"
                ),
                head_pos,
            ));
        }
    };
    p.finish()?;
    Ok(stmt)
}

/// Shift a chunk-relative error to script-absolute coordinates.
pub fn offset_error(mut err: ParseError, base: Pos) -> ParseError {
    if err.pos.line == 1 {
        err.pos.column += base.column - 1;
    }
    err.pos.line += base.line - 1;
    err
}

fn ident_head(p: &mut Parser<'_>) -> Result<(String, Pos)> {
    named(p, "a statement keyword")
}

fn named(p: &mut Parser<'_>, what: &str) -> Result<(String, Pos)> {
    let pos = p.pos();
    match p.ident_or_none() {
        Some(name) => Ok((name, pos)),
        None => Err(ParseError::new(format!("expected {what}"), pos)),
    }
}

/// Parse the `NAME on DB [with|under SEMANTICS]` tail shared by `eval`,
/// `watch`, and `explain analyze`.
fn query_on_database(p: &mut Parser<'_>) -> Result<(String, String, Semantics)> {
    let (name, _) = named(p, "a query or algebra name")?;
    let (on, on_pos) = named(p, "`on`")?;
    if on != "on" {
        return Err(ParseError::new(
            "expected `on` after the query name",
            on_pos,
        ));
    }
    let (database, _) = named(p, "a database name")?;
    let semantics = if p.at_end() {
        Semantics::Limited
    } else {
        let (with, with_pos) = named(p, "`with` or `under`")?;
        if with != "with" && with != "under" {
            return Err(ParseError::new(
                "expected `with <semantics>` or `under <semantics>` after the \
                 database name",
                with_pos,
            ));
        }
        semantics_name(p)?
    };
    Ok((name, database, semantics))
}

fn schema_ref(p: &mut Parser<'_>, schemas: &BTreeMap<String, Schema>) -> Result<(String, Schema)> {
    p.expect_colon()?;
    let (name, pos) = named(p, "a schema name")?;
    match schemas.get(&name) {
        Some(s) => Ok((name, s.clone())),
        None => Err(ParseError::new(format!("unknown schema `{name}`"), pos)),
    }
}

/// Parse a (possibly hyphenated) semantics keyword: `limited`,
/// `finite-invention`, `terminal-invention`, or the case-insensitive short
/// aliases `fi`, `ti`, `finite`, `terminal` (see [`Semantics::from_str`]).
fn semantics_name(p: &mut Parser<'_>) -> Result<Semantics> {
    let (mut word, pos) = named(p, "a semantics keyword")?;
    while p.eat_minus() {
        let (next, _) = named(p, "the rest of the semantics keyword")?;
        word.push('-');
        word.push_str(&next);
    }
    word.parse::<Semantics>()
        .map_err(|e| ParseError::new(e, pos))
}

/// Parse a whole script into statements.  Schema definitions take effect
/// immediately so later statements in the same script can reference them; the
/// updated schema table is *not* persisted (the [`crate::Session`] keeps its
/// own).  Error positions are script-absolute.
pub fn parse_script(src: &str, universe: &mut Universe) -> Result<Vec<Stmt>> {
    let mut schemas = BTreeMap::new();
    let mut out = Vec::new();
    for (chunk, base) in split_statements(src) {
        let stmt = parse_stmt(&chunk, &schemas, universe).map_err(|e| offset_error(e, base))?;
        if let Stmt::DefSchema { name, schema } = &stmt {
            schemas.insert(name.clone(), schema.clone());
        }
        out.push(stmt);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_object::Type;

    #[test]
    fn split_respects_comments_and_quotes() {
        let src = "schema G {P : U}; # c;omment\nshow G;\neval q on 'd;b'";
        let parts = split_statements(src);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1, Pos { line: 1, column: 1 });
        assert_eq!(parts[1].1, Pos { line: 2, column: 1 });
        assert!(parts[2].0.contains("'d;b'"));
        assert!(split_statements("  ;; # only comments\n").is_empty());
    }

    #[test]
    fn split_keeps_identifier_hashes_and_primes() {
        // `v#0` (translator fresh names) and `x'` (primes) are identifier
        // material, not comment/quote openers — the paste-back guarantee for
        // `compile` output depends on this.
        let parts = split_statements("show v#0; eval x' on d' # real comment\n; list");
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].0, "show v#0");
        assert_eq!(parts[1].0.trim_end(), "eval x' on d'");
        assert_eq!(parts[2].0, "list");
    }

    #[test]
    fn compiled_queries_paste_back_through_the_statement_layer() {
        // The full loop: a query whose text contains `v#0`, exactly as
        // `compile` prints it, must survive split → parse → validate.
        let mut u = Universe::new();
        let stmts = parse_script(
            "schema Gen {PAR : [U, U]};\n\
             query q : Gen {t/[U, U] | ∃v#0/[U, U] ((PAR(v#0) ∧ t.1 ≈ v#0.1 ∧ t.2 ≈ v#0.2))};",
            &mut u,
        )
        .unwrap();
        assert!(matches!(&stmts[1], Stmt::DefQuery { query, .. }
            if query.body().quantifier_count() == 1));
    }

    #[test]
    fn scripts_parse_incremental_schemas() {
        let mut u = Universe::new();
        let stmts = parse_script(
            "schema Gen {PAR : [U, U]};\n\
             database d : Gen {PAR = {[Tom, Mary], [Mary, Sue]}};\n\
             query q : Gen {t/[U, U] | PAR(t)};\n\
             algebra e : Gen PAR union PAR;\n\
             eval q on d with finite-invention;\n\
             compile e as ec;\n\
             list; help; quit",
            &mut u,
        )
        .unwrap();
        assert_eq!(stmts.len(), 9);
        assert!(matches!(&stmts[0], Stmt::DefSchema { name, schema }
            if name == "Gen" && schema.type_of("PAR") == Some(&Type::flat_tuple(2))));
        assert!(matches!(&stmts[1], Stmt::DefDatabase { database, .. }
            if database.relation("PAR").unwrap().len() == 2));
        assert!(matches!(&stmts[4], Stmt::Eval { semantics, .. }
            if *semantics == Semantics::FiniteInvention));
        assert!(matches!(&stmts[5], Stmt::Compile { target: Some(t), .. } if t == "ec"));
        assert_eq!(stmts[8], Stmt::Quit);
    }

    #[test]
    fn eval_accepts_under_and_semantics_aliases() {
        let mut u = Universe::new();
        for (clause, expect) in [
            ("with limited", Semantics::Limited),
            ("under limited", Semantics::Limited),
            ("under fi", Semantics::FiniteInvention),
            ("with FI", Semantics::FiniteInvention),
            ("under Finite-Invention", Semantics::FiniteInvention),
            ("under ti", Semantics::TerminalInvention),
            ("with TERMINAL", Semantics::TerminalInvention),
            ("under terminal_invention", Semantics::TerminalInvention),
        ] {
            let src = format!("eval q on d {clause}");
            let stmts = parse_script(&src, &mut u).expect(&src);
            assert!(
                matches!(&stmts[0], Stmt::Eval { semantics, .. } if *semantics == expect),
                "{src}"
            );
        }
        // A bogus joiner and a bogus semantics keyword both fail cleanly.
        assert!(parse_script("eval q on d using limited", &mut u).is_err());
        assert!(parse_script("eval q on d under naive", &mut u).is_err());
    }

    #[test]
    fn explain_analyze_parses_like_eval() {
        let mut u = Universe::new();
        let stmts = parse_script(
            "explain analyze gp on d;\n\
             explain analyze gp on d with finite-invention;\n\
             explain analyze gp on d under ti",
            &mut u,
        )
        .unwrap();
        assert!(
            matches!(&stmts[0], Stmt::ExplainAnalyze { name, database, semantics }
            if name == "gp" && database == "d" && *semantics == Semantics::Limited)
        );
        assert!(matches!(&stmts[1], Stmt::ExplainAnalyze { semantics, .. }
            if *semantics == Semantics::FiniteInvention));
        assert!(matches!(&stmts[2], Stmt::ExplainAnalyze { semantics, .. }
            if *semantics == Semantics::TerminalInvention));
        // `explain` alone is not a statement; `analyze` is required.
        assert!(parse_script("explain gp on d", &mut u).is_err());
        assert!(parse_script("explain analyze gp at d", &mut u).is_err());
    }

    #[test]
    fn mutation_and_watch_statements_parse() {
        let mut u = Universe::new();
        let stmts = parse_script(
            "insert into d.PAR {[Tom, Mary], [Mary, Sue]};\n\
             delete from d.PAR [Tom, Mary];\n\
             watch gp on d;\n\
             watch gp on d under fi;\n\
             unwatch gp;\n\
             unwatch gp on d",
            &mut u,
        )
        .unwrap();
        assert!(matches!(&stmts[0], Stmt::Insert { database, pred, values }
            if database == "d" && pred == "PAR" && values.len() == 2));
        assert!(matches!(&stmts[1], Stmt::Delete { values, .. } if values.len() == 1));
        assert!(matches!(&stmts[2], Stmt::Watch { semantics, .. }
            if *semantics == Semantics::Limited));
        assert!(matches!(&stmts[3], Stmt::Watch { semantics, .. }
            if *semantics == Semantics::FiniteInvention));
        assert!(matches!(&stmts[4], Stmt::Unwatch { database: None, .. }));
        assert!(matches!(&stmts[5], Stmt::Unwatch { database: Some(db), .. } if db == "d"));
        // The joiner keywords are checked, and `DB.PRED` needs its dot.
        assert!(parse_script("insert from d.PAR {[a0, a1]}", &mut u).is_err());
        assert!(parse_script("delete into d.PAR {[a0, a1]}", &mut u).is_err());
        assert!(parse_script("insert into d PAR {[a0, a1]}", &mut u).is_err());
        assert!(parse_script("watch gp at d", &mut u).is_err());
        assert!(parse_script("unwatch gp from d", &mut u).is_err());
    }

    #[test]
    fn set_statements_parse() {
        let mut u = Universe::new();
        let stmts = parse_script(
            "set deadline 500;\nset memory 1048576;\nset deadline off;\nset memory off",
            &mut u,
        )
        .unwrap();
        assert_eq!(
            stmts[0],
            Stmt::Set {
                knob: SetKnob::Deadline,
                value: Some(500)
            }
        );
        assert_eq!(
            stmts[1],
            Stmt::Set {
                knob: SetKnob::Memory,
                value: Some(1_048_576)
            }
        );
        assert_eq!(
            stmts[2],
            Stmt::Set {
                knob: SetKnob::Deadline,
                value: None
            }
        );
        assert_eq!(
            stmts[3],
            Stmt::Set {
                knob: SetKnob::Memory,
                value: None
            }
        );
        for bad in ["set;", "set frobs 3;", "set deadline;", "set deadline on;"] {
            assert!(parse_script(bad, &mut u).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn errors_are_script_absolute() {
        let mut u = Universe::new();
        // The bogus statement starts at line 2; the bad token is mid-line.
        let err =
            parse_script("schema G {P : U};\nquery q : Missing {t/U | ⊤}", &mut u).unwrap_err();
        assert_eq!(
            err.pos,
            Pos {
                line: 2,
                column: 11
            }
        );
        let err = parse_script("frobnicate x", &mut u).unwrap_err();
        assert_eq!(err.pos, Pos { line: 1, column: 1 });
        assert!(err.to_string().contains("unknown statement"));
    }
}
