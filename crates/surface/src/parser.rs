//! Recursive-descent parser for the surface language.
//!
//! The grammar is the inverse of the engine's `Display` impls: for every
//! [`Term`], [`Formula`], [`Query`], and [`AlgExpr`] value `x`,
//! `parse(display(x)) == x` (property-tested in `tests/surface_roundtrip.rs`).
//! On top of the printed forms the parser accepts ASCII operator aliases
//! (see [`crate::token`]) and hand-written precedence:
//!
//! ```text
//! formula   := iff
//! iff       := imp (↔ imp)*                  left-associative
//! imp       := or (→ imp)?                   right-associative
//! or        := and (∨ and)*                  n-ary, collected
//! and       := unary (∧ unary)*              n-ary, collected
//! unary     := ¬unary | ∃x/T unary | ∀x/T unary | ⊤ | ⊥
//!            | ⋀(formula, …) | ⋁(formula, …) | (formula)
//!            | P(term) | term ≈ term | term ∈ term
//! term      := a<id> | 'name' | x | x.i
//! type      := U | {type} | [type, …]
//! alg       := alg_unary ((∪|∩|−|×) alg_unary)*   left-assoc, one precedence
//! alg_unary := π_{i, …}(alg) | σ_{sel}(alg) | μ(alg) | 𝒞(alg) | 𝒫(alg)
//!            | {atom} | P | (alg)
//! sel       := like `formula` minus quantifiers/↔, atoms `$i = $j`, `$i ∈ $j`
//! value     := atom | [value, …] | {value, …}
//! schema    := { P : type, … }
//! database  := { P = {value, …}, … }
//! ```
//!
//! Quantifiers and `¬` bind their body at `unary` strength, exactly matching
//! the printers (which always parenthesize quantifier bodies); write
//! `∃x/U (φ ∧ ψ)` to extend a scope over a connective.
//!
//! Named atoms (`'Tom'` in terms and selection constants, bare `Tom` in value
//! literals) are interned through a [`Universe`] supplied via
//! [`Parser::with_universe`]; the spelling `a<id>` always denotes the raw atom
//! with that id and is reserved — a variable or named atom may not use it,
//! and the universe reserves the id, so no name interned later takes it.

use crate::error::{ParseError, Pos, Result};
use crate::token::{lex, Tok, Token};
use itq_algebra::{AlgExpr, SelFormula, SelTerm};
use itq_calculus::{Formula, Query, Term};
use itq_object::{Atom, Database, Instance, Schema, Type, Universe, Value};

/// True if `s` is the reserved raw-atom spelling `a<digits>`.
pub fn is_atom_shape(s: &str) -> bool {
    s.len() > 1 && s.starts_with('a') && s.as_bytes()[1..].iter().all(u8::is_ascii_digit)
}

/// The recursive-descent parser.  One instance parses one source text; the
/// grammar entry points (`ty`, `term`, `formula`, `query`, `alg_expr`,
/// `value`, …) may be called in sequence to parse concatenated fragments,
/// with [`Parser::finish`] asserting the text is exhausted.
pub struct Parser<'u> {
    toks: Vec<Token>,
    at: usize,
    end: Pos,
    depth: usize,
    universe: Option<&'u mut Universe>,
    /// Span events: one `(start, end)` per formula / algebra / selection node,
    /// pushed immediately after the node is constructed, so the list is the
    /// post-order of the final tree (see [`crate::spans`]).
    events: Vec<(Pos, Pos)>,
}

/// Hard bound on grammatical nesting: recursive descent uses the call stack,
/// so pathological inputs (thousands of nested parentheses) must fail with a
/// parse error rather than overflow the stack and abort the process.  The
/// bound is sized so the deepest statement fits in a 2 MiB thread stack (the
/// Rust test-runner default, and what `itq serve` gives a session) even in
/// debug builds — through the parser and every layer behind it; real queries
/// in the repo nest well under 100 levels.
pub const MAX_DEPTH: usize = 200;

/// The levels of [`MAX_DEPTH`] one algebra operator costs.  Behind the
/// parser an operator takes far more stack than a formula level: the
/// planner, the Theorem 3.8 translation and its `compile`d slots each recurse
/// once per operator, and in a debug build on a 2 MiB stack the planner
/// overflowed at about 125 operators while every formula production ran at
/// 199 levels.
const ALGEBRA_LEVELS: usize = 2;

impl<'u> Parser<'u> {
    /// Parser without a universe: named atoms are rejected, `a<id>` works.
    pub fn new(src: &str) -> Result<Parser<'static>> {
        Ok(Parser {
            toks: lex(src)?,
            at: 0,
            end: end_pos(src),
            depth: 0,
            universe: None,
            events: Vec::new(),
        })
    }

    /// Parser that interns named atoms (`'Tom'`, bare `Tom` in values) in the
    /// given universe.
    pub fn with_universe(src: &str, universe: &'u mut Universe) -> Result<Parser<'u>> {
        Ok(Parser {
            toks: lex(src)?,
            at: 0,
            end: end_pos(src),
            depth: 0,
            universe: Some(universe),
            events: Vec::new(),
        })
    }

    // ----- token plumbing -----------------------------------------------------

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.at + 1).map(|t| &t.tok)
    }

    /// Position of the next token (or of end-of-input).
    pub fn pos(&self) -> Pos {
        self.toks.get(self.at).map(|t| t.pos).unwrap_or(self.end)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.toks.get(self.at).cloned();
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    /// Enter `levels` nesting levels of a recursive production; see
    /// [`MAX_DEPTH`].
    fn descend(&mut self, levels: usize) -> Result<()> {
        self.depth += levels;
        if self.depth > MAX_DEPTH {
            Err(ParseError::new(
                format!("expression nests deeper than {MAX_DEPTH} levels"),
                self.pos(),
            ))
        } else {
            Ok(())
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let msg = msg.into();
        match self.peek() {
            Some(t) => ParseError::new(format!("{msg}, found {}", t.describe()), self.pos()),
            None => ParseError::new(format!("{msg}, found end of input"), self.pos()),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Pos> {
        if self.peek() == Some(&tok) {
            let pos = self.pos();
            self.at += 1;
            Ok(pos)
        } else {
            Err(self.err_here(format!("expected {}", tok.describe())))
        }
    }

    /// Record a span event for a node the calling production just built:
    /// `start` is the position of its first token, the end is the position of
    /// the next unconsumed token (exclusive).
    fn mark(&mut self, start: Pos) {
        let end = self.pos();
        self.events.push((start, end));
    }

    /// Take the span events accumulated so far (one per formula / algebra /
    /// selection node, in construction = post-order). The statement layer
    /// pairs them with the parsed tree via [`crate::spans`].
    pub fn take_span_events(&mut self) -> Vec<(Pos, Pos)> {
        std::mem::take(&mut self.events)
    }

    /// True if the whole input has been consumed.
    pub fn at_end(&self) -> bool {
        self.at >= self.toks.len()
    }

    /// Error unless the whole input has been consumed.
    pub fn finish(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err_here("expected end of input"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Pos)> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                let pos = self.pos();
                match self.advance().map(|t| t.tok) {
                    Some(Tok::Ident(s)) => Ok((s, pos)),
                    _ => unreachable!(),
                }
            }
            _ => Err(self.err_here(format!("expected {what}"))),
        }
    }

    /// Expect a natural-number literal (statement arguments such as
    /// `set deadline 500`).
    pub fn nat(&mut self, what: &str) -> Result<u64> {
        match self.peek() {
            Some(Tok::Nat(_)) => match self.advance().map(|t| t.tok) {
                Some(Tok::Nat(n)) => Ok(n),
                _ => unreachable!(),
            },
            _ => Err(self.err_here(format!("expected {what}"))),
        }
    }

    /// Consume and return an identifier if one is next — the statement layer's
    /// lookahead for contextual keywords.
    pub fn ident_or_none(&mut self) -> Option<String> {
        match self.peek() {
            Some(Tok::Ident(_)) => match self.advance().map(|t| t.tok) {
                Some(Tok::Ident(s)) => Some(s),
                _ => unreachable!(),
            },
            _ => None,
        }
    }

    /// Expect a `:` (schema references in statements).
    pub fn expect_colon(&mut self) -> Result<()> {
        self.expect(Tok::Colon).map(|_| ())
    }

    /// Consume a `-` if one is next (hyphenated semantics keywords).
    pub fn eat_minus(&mut self) -> bool {
        self.eat(&Tok::Minus)
    }

    /// Expect a `.` (the `DB.PRED` form of mutation statements).
    pub fn expect_dot(&mut self) -> Result<()> {
        self.expect(Tok::Dot).map(|_| ())
    }

    /// Resolve an atom spelling: `a<id>` is the raw atom, which the
    /// universe (if any) reserves so no new name takes its id; any other
    /// name is interned.
    fn intern(&mut self, name: &str, pos: Pos) -> Result<Atom> {
        if is_atom_shape(name) {
            let atom = name.parse::<Atom>().map_err(|e| ParseError::new(e, pos))?;
            if let Some(u) = self.universe.as_deref_mut() {
                u.reserve(atom);
            }
            return Ok(atom);
        }
        match self.universe.as_deref_mut() {
            Some(u) => Ok(u.atom(name)),
            None => Err(ParseError::new(
                format!(
                    "named atom `{name}` needs a session universe; use the `a<id>` spelling here"
                ),
                pos,
            )),
        }
    }

    // ----- types --------------------------------------------------------------

    /// Parse a type: `U`, `{T}`, or `[T1, …, Tn]`.
    pub fn ty(&mut self) -> Result<Type> {
        self.descend(1)?;
        let result = self.ty_inner();
        self.depth -= 1;
        result
    }

    fn ty_inner(&mut self) -> Result<Type> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == "U" => {
                self.advance();
                Ok(Type::Atomic)
            }
            Some(Tok::LBrace) => {
                self.advance();
                let inner = self.ty()?;
                self.expect(Tok::RBrace)?;
                Ok(Type::set(inner))
            }
            Some(Tok::LBracket) => {
                let pos = self.pos();
                self.advance();
                let mut components = vec![self.ty()?];
                while self.eat(&Tok::Comma) {
                    components.push(self.ty()?);
                }
                self.expect(Tok::RBracket)?;
                let ty = Type::Tuple(components);
                ty.validate()
                    .map_err(|e| ParseError::new(format!("invalid type: {e}"), pos))?;
                Ok(ty)
            }
            _ => Err(self.err_here("expected a type (`U`, `{…}`, or `[…]`)")),
        }
    }

    // ----- terms --------------------------------------------------------------

    /// Parse a term: `a<id>`, `'name'`, `x`, or `x.i`.
    pub fn term(&mut self) -> Result<Term> {
        match self.peek() {
            Some(Tok::SQuoted(_)) => {
                let pos = self.pos();
                let name = match self.advance().map(|t| t.tok) {
                    Some(Tok::SQuoted(s)) => s,
                    _ => unreachable!(),
                };
                Ok(Term::Const(self.intern(&name, pos)?))
            }
            Some(Tok::Ident(_)) => {
                let (name, pos) = self.ident("a term")?;
                if is_atom_shape(&name) {
                    return Ok(Term::Const(self.intern(&name, pos)?));
                }
                if self.eat(&Tok::Dot) {
                    let i = self.nat("a 1-based coordinate after `.`")?;
                    return Ok(Term::Proj(name, i as usize));
                }
                Ok(Term::Var(name))
            }
            _ => Err(self.err_here("expected a term (constant, variable, or projection)")),
        }
    }

    // ----- formulas -----------------------------------------------------------

    /// Parse a formula at the loosest precedence level.
    pub fn formula(&mut self) -> Result<Formula> {
        let start = self.pos();
        let mut f = self.formula_imp()?;
        while self.eat(&Tok::Iff) {
            let rhs = self.formula_imp()?;
            f = Formula::iff(f, rhs);
            self.mark(start);
        }
        Ok(f)
    }

    fn formula_imp(&mut self) -> Result<Formula> {
        let start = self.pos();
        let lhs = self.formula_or()?;
        if self.eat(&Tok::Implies) {
            let rhs = self.formula_imp()?;
            let f = Formula::implies(lhs, rhs);
            self.mark(start);
            return Ok(f);
        }
        Ok(lhs)
    }

    fn formula_or(&mut self) -> Result<Formula> {
        let start = self.pos();
        let first = self.formula_and()?;
        if self.peek() != Some(&Tok::Or) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(&Tok::Or) {
            parts.push(self.formula_and()?);
        }
        self.mark(start);
        Ok(Formula::Or(parts))
    }

    fn formula_and(&mut self) -> Result<Formula> {
        let start = self.pos();
        let first = self.formula_unary()?;
        if self.peek() != Some(&Tok::And) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(&Tok::And) {
            parts.push(self.formula_unary()?);
        }
        self.mark(start);
        Ok(Formula::And(parts))
    }

    fn formula_unary(&mut self) -> Result<Formula> {
        self.descend(1)?;
        let result = self.formula_unary_inner();
        self.depth -= 1;
        result
    }

    /// One unary formula.  Every nesting level of a formula passes through
    /// this function, so it keeps a small stack frame: the productions that
    /// need many temporaries live in their own functions, which are off the
    /// path of a parenthesis or `¬` chain (see [`MAX_DEPTH`]).
    fn formula_unary_inner(&mut self) -> Result<Formula> {
        let start = self.pos();
        match self.peek() {
            Some(Tok::Not) => {
                self.advance();
                let f = Formula::not(self.formula_unary()?);
                self.mark(start);
                Ok(f)
            }
            Some(Tok::Exists) | Some(Tok::Forall) => self.formula_quantified(start),
            Some(Tok::Top) => {
                self.advance();
                self.mark(start);
                Ok(Formula::truth())
            }
            Some(Tok::Bottom) => {
                self.advance();
                self.mark(start);
                Ok(Formula::falsity())
            }
            Some(Tok::BigAnd) | Some(Tok::BigOr) => self.formula_connective(start),
            Some(Tok::LParen) => {
                self.advance();
                let f = self.formula()?;
                self.expect(Tok::RParen)?;
                // Parenthesization creates no node, so no span event.
                Ok(f)
            }
            Some(Tok::Ident(_)) | Some(Tok::SQuoted(_)) => self.formula_atomic(start),
            _ => Err(self.err_here("expected a formula")),
        }
    }

    /// `∃x/T φ` or `∀x/T φ`, the quantifier token next.
    fn formula_quantified(&mut self, start: Pos) -> Result<Formula> {
        let quantifier = self.advance().map(|t| t.tok);
        let (var, _) = self.ident("a quantified variable")?;
        self.expect(Tok::Slash)?;
        let ty = self.ty()?;
        let body = self.formula_unary()?;
        let f = match quantifier {
            Some(Tok::Exists) => Formula::Exists(var, ty, Box::new(body)),
            _ => Formula::Forall(var, ty, Box::new(body)),
        };
        self.mark(start);
        Ok(f)
    }

    /// `⋀(φ, …)` or `⋁(φ, …)`, the connective token next.
    fn formula_connective(&mut self, start: Pos) -> Result<Formula> {
        let connective = self.advance().map(|t| t.tok);
        self.expect(Tok::LParen)?;
        let mut parts = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            parts.push(self.formula()?);
            while self.eat(&Tok::Comma) {
                parts.push(self.formula()?);
            }
        }
        self.expect(Tok::RParen)?;
        let f = match connective {
            Some(Tok::BigAnd) => Formula::And(parts),
            _ => Formula::Or(parts),
        };
        self.mark(start);
        Ok(f)
    }

    /// A predicate application `P(t)` — an identifier directly followed by
    /// `(` — or an atomic formula `t1 ≈ t2` / `t1 ∈ t2`.
    fn formula_atomic(&mut self, start: Pos) -> Result<Formula> {
        if matches!(self.peek(), Some(Tok::Ident(_))) && self.peek2() == Some(&Tok::LParen) {
            let (name, _) = self.ident("a predicate name")?;
            self.expect(Tok::LParen)?;
            let arg = self.term()?;
            self.expect(Tok::RParen)?;
            self.mark(start);
            return Ok(Formula::Pred(name, arg));
        }
        let t1 = self.term()?;
        match self.peek() {
            Some(Tok::Approx) => {
                self.advance();
                let f = Formula::Eq(t1, self.term()?);
                self.mark(start);
                Ok(f)
            }
            Some(Tok::In) => {
                self.advance();
                let f = Formula::Member(t1, self.term()?);
                self.mark(start);
                Ok(f)
            }
            _ => Err(self.err_here("expected `≈` or `∈` after a term")),
        }
    }

    // ----- queries ------------------------------------------------------------

    /// Parse and validate a calculus query `{t/T | φ}` over a schema.
    ///
    /// Validation failures (stray free variables, unknown predicates, type
    /// errors) are reported at the query's opening brace.
    pub fn query(&mut self, schema: &Schema) -> Result<Query> {
        let start = self.pos();
        self.expect(Tok::LBrace)?;
        let (target, _) = self.ident("the target variable")?;
        self.expect(Tok::Slash)?;
        let target_type = self.ty()?;
        self.expect(Tok::Pipe)?;
        let body = self.formula()?;
        self.expect(Tok::RBrace)?;
        Query::new(&target, target_type, body, schema.clone())
            .map_err(|e| ParseError::new(format!("invalid query: {e}"), start))
    }

    // ----- algebra ------------------------------------------------------------

    /// Parse an algebra expression.  All binary operators share one precedence
    /// level and associate to the left; the printers parenthesize fully, so
    /// printed forms never rely on this.
    pub fn alg_expr(&mut self) -> Result<AlgExpr> {
        let start = self.pos();
        let mut e = self.alg_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Union) => Tok::Union,
                Some(Tok::Intersect) => Tok::Intersect,
                Some(Tok::Minus) => Tok::Minus,
                Some(Tok::Times) => Tok::Times,
                _ => break,
            };
            self.advance();
            let rhs = self.alg_unary()?;
            e = match op {
                Tok::Union => e.union(rhs),
                Tok::Intersect => e.intersect(rhs),
                Tok::Minus => e.diff(rhs),
                _ => e.product(rhs),
            };
            self.mark(start);
        }
        Ok(e)
    }

    fn alg_unary(&mut self) -> Result<AlgExpr> {
        self.descend(ALGEBRA_LEVELS)?;
        let result = self.alg_unary_inner();
        self.depth -= ALGEBRA_LEVELS;
        result
    }

    fn alg_unary_inner(&mut self) -> Result<AlgExpr> {
        let start = self.pos();
        match self.peek() {
            Some(Tok::Pi) => {
                self.advance();
                self.eat(&Tok::Underscore);
                self.expect(Tok::LBrace)?;
                let mut coords = Vec::new();
                if self.peek() != Some(&Tok::RBrace) {
                    coords.push(self.nat("a coordinate")? as usize);
                    while self.eat(&Tok::Comma) {
                        coords.push(self.nat("a coordinate")? as usize);
                    }
                }
                self.expect(Tok::RBrace)?;
                self.expect(Tok::LParen)?;
                let e = self.alg_expr()?;
                self.expect(Tok::RParen)?;
                let e = e.project(coords);
                self.mark(start);
                Ok(e)
            }
            Some(Tok::Sigma) => {
                self.advance();
                self.eat(&Tok::Underscore);
                self.expect(Tok::LBrace)?;
                let f = self.sel_formula()?;
                self.expect(Tok::RBrace)?;
                self.expect(Tok::LParen)?;
                let e = self.alg_expr()?;
                self.expect(Tok::RParen)?;
                let e = e.select(f);
                self.mark(start);
                Ok(e)
            }
            Some(Tok::Mu) | Some(Tok::ScriptC) | Some(Tok::ScriptP) => {
                let op = self.advance().map(|t| t.tok);
                self.expect(Tok::LParen)?;
                let e = self.alg_expr()?;
                self.expect(Tok::RParen)?;
                let e = match op {
                    Some(Tok::Mu) => e.untuple(),
                    Some(Tok::ScriptC) => e.collapse(),
                    _ => e.powerset(),
                };
                self.mark(start);
                Ok(e)
            }
            Some(Tok::LBrace) => {
                self.advance();
                let atom = self.atom_ref()?;
                self.expect(Tok::RBrace)?;
                self.mark(start);
                Ok(AlgExpr::Singleton(atom))
            }
            Some(Tok::LParen) => {
                self.advance();
                let e = self.alg_expr()?;
                self.expect(Tok::RParen)?;
                // Parenthesization creates no node, so no span event.
                Ok(e)
            }
            Some(Tok::Ident(_)) => {
                let (name, _) = self.ident("a predicate name")?;
                self.mark(start);
                Ok(AlgExpr::Pred(name))
            }
            _ => Err(self.err_here("expected an algebra expression")),
        }
    }

    /// An atom reference: `a<id>`, `'name'`, or a bare name.
    fn atom_ref(&mut self) -> Result<Atom> {
        match self.peek() {
            Some(Tok::SQuoted(_)) | Some(Tok::Ident(_)) => {
                let pos = self.pos();
                let name = match self.advance().map(|t| t.tok) {
                    Some(Tok::SQuoted(s)) | Some(Tok::Ident(s)) => s,
                    _ => unreachable!(),
                };
                self.intern(&name, pos)
            }
            _ => Err(self.err_here("expected an atom")),
        }
    }

    // ----- selection formulas -------------------------------------------------

    /// Parse a selection formula (the `F` of `σ_F`).
    pub fn sel_formula(&mut self) -> Result<SelFormula> {
        let start = self.pos();
        let lhs = self.sel_or()?;
        if self.eat(&Tok::Implies) {
            let rhs = self.sel_formula()?;
            let f = SelFormula::implies(lhs, rhs);
            self.mark(start);
            return Ok(f);
        }
        Ok(lhs)
    }

    fn sel_or(&mut self) -> Result<SelFormula> {
        let start = self.pos();
        let first = self.sel_and()?;
        if self.peek() != Some(&Tok::Or) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(&Tok::Or) {
            parts.push(self.sel_and()?);
        }
        self.mark(start);
        Ok(SelFormula::Or(parts))
    }

    fn sel_and(&mut self) -> Result<SelFormula> {
        let start = self.pos();
        let first = self.sel_unary()?;
        if self.peek() != Some(&Tok::And) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(&Tok::And) {
            parts.push(self.sel_unary()?);
        }
        self.mark(start);
        Ok(SelFormula::And(parts))
    }

    fn sel_unary(&mut self) -> Result<SelFormula> {
        self.descend(1)?;
        let result = self.sel_unary_inner();
        self.depth -= 1;
        result
    }

    fn sel_unary_inner(&mut self) -> Result<SelFormula> {
        let start = self.pos();
        match self.peek() {
            Some(Tok::Not) => {
                self.advance();
                let f = SelFormula::negate(self.sel_unary()?);
                self.mark(start);
                Ok(f)
            }
            Some(Tok::Top) => {
                self.advance();
                self.mark(start);
                Ok(SelFormula::And(vec![]))
            }
            Some(Tok::Bottom) => {
                self.advance();
                self.mark(start);
                Ok(SelFormula::Or(vec![]))
            }
            Some(Tok::BigAnd) | Some(Tok::BigOr) => {
                let connective = self.advance().map(|t| t.tok);
                self.expect(Tok::LParen)?;
                let mut parts = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    parts.push(self.sel_formula()?);
                    while self.eat(&Tok::Comma) {
                        parts.push(self.sel_formula()?);
                    }
                }
                self.expect(Tok::RParen)?;
                let f = match connective {
                    Some(Tok::BigAnd) => SelFormula::And(parts),
                    _ => SelFormula::Or(parts),
                };
                self.mark(start);
                Ok(f)
            }
            Some(Tok::LParen) => {
                self.advance();
                let f = self.sel_formula()?;
                self.expect(Tok::RParen)?;
                // Parenthesization creates no node, so no span event.
                Ok(f)
            }
            Some(Tok::Dollar) | Some(Tok::DQuoted(_)) => {
                let t1 = self.sel_term()?;
                match self.peek() {
                    Some(Tok::Assign) | Some(Tok::Approx) => {
                        self.advance();
                        let f = SelFormula::Eq(t1, self.sel_term()?);
                        self.mark(start);
                        Ok(f)
                    }
                    Some(Tok::In) => {
                        self.advance();
                        let f = SelFormula::In(t1, self.sel_term()?);
                        self.mark(start);
                        Ok(f)
                    }
                    _ => Err(self.err_here("expected `=` or `∈` after a selection term")),
                }
            }
            _ => Err(self.err_here("expected a selection formula")),
        }
    }

    fn sel_term(&mut self) -> Result<SelTerm> {
        match self.peek() {
            Some(Tok::Dollar) => {
                self.advance();
                Ok(SelTerm::Coord(self.nat("a coordinate after `$`")? as usize))
            }
            Some(Tok::DQuoted(_)) => {
                let pos = self.pos();
                let name = match self.advance().map(|t| t.tok) {
                    Some(Tok::DQuoted(s)) => s,
                    _ => unreachable!(),
                };
                Ok(SelTerm::Const(self.intern(&name, pos)?))
            }
            _ => Err(self.err_here("expected a selection term (`$i` or `\"a\"`)")),
        }
    }

    // ----- values, instances, schemas, databases --------------------------------

    /// Parse a complex object value: an atom, `[v, …]`, or `{v, …}`.
    pub fn value(&mut self) -> Result<Value> {
        self.descend(1)?;
        let result = self.value_inner();
        self.depth -= 1;
        result
    }

    fn value_inner(&mut self) -> Result<Value> {
        match self.peek() {
            Some(Tok::LBracket) => {
                self.advance();
                if self.peek() == Some(&Tok::RBracket) {
                    return Err(self.err_here("tuples need at least one component"));
                }
                let mut components = vec![self.value()?];
                while self.eat(&Tok::Comma) {
                    components.push(self.value()?);
                }
                self.expect(Tok::RBracket)?;
                Ok(Value::Tuple(components))
            }
            Some(Tok::LBrace) => {
                self.advance();
                let mut items = Vec::new();
                if self.peek() != Some(&Tok::RBrace) {
                    items.push(self.value()?);
                    while self.eat(&Tok::Comma) {
                        items.push(self.value()?);
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Value::set(items))
            }
            Some(Tok::Ident(_)) | Some(Tok::SQuoted(_)) => Ok(Value::Atom(self.atom_ref()?)),
            _ => Err(self.err_here("expected a value (atom, `[…]`, or `{…}`)")),
        }
    }

    /// Parse a schema literal `{P : T, …}`.
    pub fn schema_literal(&mut self) -> Result<Schema> {
        let start = self.pos();
        self.expect(Tok::LBrace)?;
        let mut entries = Vec::new();
        if self.peek() != Some(&Tok::RBrace) {
            loop {
                let (name, _) = self.ident("a predicate name")?;
                self.expect(Tok::Colon)?;
                entries.push((name, self.ty()?));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Schema::new(entries).map_err(|e| ParseError::new(format!("invalid schema: {e}"), start))
    }

    /// Parse a database literal `{P = {v, …}, …}` and validate it against a
    /// schema.
    pub fn database_literal(&mut self, schema: &Schema) -> Result<Database> {
        let start = self.pos();
        self.expect(Tok::LBrace)?;
        let mut db = Database::empty();
        if self.peek() != Some(&Tok::RBrace) {
            loop {
                let (name, pos) = self.ident("a predicate name")?;
                self.expect(Tok::Assign)?;
                let relation = self.value()?;
                let instance = Instance::from_set_value(&relation).ok_or_else(|| {
                    ParseError::new(
                        format!("relation `{name}` must be a set literal `{{…}}`"),
                        pos,
                    )
                })?;
                db = db.with(&name, instance);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RBrace)?;
        db.validate_against(schema)
            .map_err(|e| ParseError::new(format!("invalid database: {e}"), start))?;
        Ok(db)
    }
}

/// Position just past the end of the text.
fn end_pos(src: &str) -> Pos {
    let mut pos = Pos::start();
    for c in src.chars() {
        if c == '\n' {
            pos.line += 1;
            pos.column = 1;
        } else {
            pos.column += 1;
        }
    }
    pos
}

// ----- one-shot entry points ----------------------------------------------------

macro_rules! one_shot {
    ($(#[$doc:meta])* $name:ident, $with:ident, $method:ident, $out:ty) => {
        $(#[$doc])*
        pub fn $name(src: &str) -> Result<$out> {
            let mut p = Parser::new(src)?;
            let out = p.$method()?;
            p.finish()?;
            Ok(out)
        }

        /// Like the plain version, interning named atoms in `universe`.
        pub fn $with(src: &str, universe: &mut Universe) -> Result<$out> {
            let mut p = Parser::with_universe(src, universe)?;
            let out = p.$method()?;
            p.finish()?;
            Ok(out)
        }
    };
}

one_shot!(
    /// Parse a complete type, e.g. `{[U, U]}`.
    parse_type, parse_type_with, ty, Type
);
one_shot!(
    /// Parse a complete term, e.g. `x.2` or `a7`.
    parse_term, parse_term_with, term, Term
);
one_shot!(
    /// Parse a complete formula, e.g. `∃x/[U, U] (PAR(x) ∧ x.1 ≈ t.1)`.
    parse_formula, parse_formula_with, formula, Formula
);
one_shot!(
    /// Parse a complete algebra expression, e.g. `π_{1,4}((PAR × PAR))`.
    parse_alg_expr, parse_alg_expr_with, alg_expr, AlgExpr
);
one_shot!(
    /// Parse a complete selection formula, e.g. `($2 = $3 ∧ ¬($1 = "a0"))`.
    parse_sel_formula, parse_sel_formula_with, sel_formula, SelFormula
);
one_shot!(
    /// Parse a complete value, e.g. `{[a0, a1], [a1, a2]}`.
    parse_value, parse_value_with, value, Value
);
one_shot!(
    /// Parse a schema literal, e.g. `{PAR : [U, U], PERSON : U}`.
    parse_schema, parse_schema_with, schema_literal, Schema
);

/// Parse and validate a complete query `{t/T | φ}` over `schema`.
pub fn parse_query(src: &str, schema: &Schema) -> Result<Query> {
    let mut p = Parser::new(src)?;
    let q = p.query(schema)?;
    p.finish()?;
    Ok(q)
}

/// Like [`parse_query`], interning named atoms in `universe`.
pub fn parse_query_with(src: &str, schema: &Schema, universe: &mut Universe) -> Result<Query> {
    let mut p = Parser::with_universe(src, universe)?;
    let q = p.query(schema)?;
    p.finish()?;
    Ok(q)
}

/// Parse a database literal `{P = {…}, …}` against `schema`, interning named
/// atoms in `universe`.
pub fn parse_database_with(
    src: &str,
    schema: &Schema,
    universe: &mut Universe,
) -> Result<Database> {
    let mut p = Parser::with_universe(src, universe)?;
    let db = p.database_literal(schema)?;
    p.finish()?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_calculus::Formula as F;

    #[test]
    fn types_round_trip() {
        for src in ["U", "{U}", "[U, U]", "{[U, {U}]}", "{{[U, U]}}"] {
            let ty = parse_type(src).unwrap();
            assert_eq!(ty.to_string(), src);
            assert_eq!(parse_type(&ty.to_string()).unwrap(), ty);
        }
        for bad in ["", "V", "[U", "[]", "{U", "U]", "[[U], U]", "U U"] {
            assert!(parse_type(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn terms_round_trip_and_reserve_atom_shape() {
        assert_eq!(parse_term("x").unwrap(), Term::var("x"));
        assert_eq!(parse_term("x.2").unwrap(), Term::proj("x", 2));
        assert_eq!(parse_term("a9").unwrap(), Term::constant(Atom(9)));
        // `a<digits>` is reserved for constants: an id too large for an
        // `Atom` is an error, never a variable.
        for bad in ["", "7x", "x.", "x.y", ".1", "x y", "a4294967296"] {
            assert!(parse_term(bad).is_err(), "`{bad}` should not parse");
        }
        // Named atoms need a universe.
        assert!(parse_term("'Tom'").is_err());
        let mut u = Universe::new();
        let tom = u.atom("Tom");
        assert_eq!(parse_term_with("'Tom'", &mut u).unwrap(), Term::Const(tom));
    }

    #[test]
    fn formula_display_forms_reparse_exactly() {
        let sample = F::exists(
            "x",
            Type::flat_tuple(2),
            F::and(vec![
                F::pred("PAR", Term::var("x")),
                F::eq(Term::proj("x", 1), Term::proj("t", 1)),
                F::member(Term::constant(Atom(0)), Term::var("s")),
            ]),
        );
        assert_eq!(parse_formula(&sample.to_string()).unwrap(), sample);
        for f in [
            F::truth(),
            F::falsity(),
            F::and(vec![F::truth()]),
            F::or(vec![F::falsity()]),
            F::not(F::truth()),
            F::implies(F::truth(), F::falsity()),
            F::iff(F::truth(), F::falsity()),
            F::forall("y", Type::universal(), F::pred("P", Term::var("y"))),
        ] {
            assert_eq!(parse_formula(&f.to_string()).unwrap(), f, "{f}");
        }
    }

    #[test]
    fn ascii_alias_forms_parse_to_the_same_formula() {
        let unicode = parse_formula("∃x/U (¬(x ≈ a0) ∨ x ∈ s)").unwrap();
        let ascii = parse_formula("exists x/U (!(x == a0) || x in s)").unwrap();
        assert_eq!(unicode, ascii);
    }

    #[test]
    fn precedence_binds_and_tighter_than_or_than_implies() {
        let f = parse_formula("x ≈ y ∧ y ≈ z ∨ x ≈ z → x ∈ s").unwrap();
        match f {
            Formula::Implies(lhs, _) => match *lhs {
                Formula::Or(parts) => {
                    assert_eq!(parts.len(), 2);
                    assert!(matches!(parts[0], Formula::And(_)));
                }
                other => panic!("expected Or on the left, got {other}"),
            },
            other => panic!("expected Implies at the top, got {other}"),
        }
    }

    #[test]
    fn quantifier_body_binds_at_unary_strength() {
        // The printers rely on this: `∃x/U (φ) ∧ ψ` conjoins outside the scope.
        let f = parse_formula("∃x/U (P(x)) ∧ Q(t)").unwrap();
        match f {
            Formula::And(parts) => {
                assert!(matches!(parts[0], Formula::Exists(..)));
                assert!(matches!(parts[1], Formula::Pred(..)));
            }
            other => panic!("expected top-level And, got {other}"),
        }
    }

    #[test]
    fn queries_validate_during_parsing() {
        let schema = Schema::single("PAR", Type::flat_tuple(2));
        let q = parse_query("{t/[U, U] | PAR(t)}", &schema).unwrap();
        assert_eq!(q.target(), "t");
        assert_eq!(q.to_string(), "{t/[U, U] | PAR(t)}");
        // Unknown predicate, stray free variable, type mismatch: all rejected
        // with the query's position.
        for bad in [
            "{t/[U, U] | NOPE(t)}",
            "{t/[U, U] | PAR(u)}",
            "{t/U | PAR(t)}",
        ] {
            let err = parse_query(bad, &schema).unwrap_err();
            assert_eq!(err.pos, Pos { line: 1, column: 1 }, "{bad}");
        }
    }

    #[test]
    fn algebra_display_forms_reparse_exactly() {
        let e = AlgExpr::pred("PAR")
            .product(AlgExpr::pred("PAR"))
            .select(SelFormula::all(vec![
                SelFormula::coords_eq(2, 3),
                SelFormula::coord_is(1, Atom(9)),
            ]))
            .project(vec![1, 4])
            .union(AlgExpr::singleton(Atom(5)).powerset().collapse().untuple());
        assert_eq!(parse_alg_expr(&e.to_string()).unwrap(), e);
        let ascii =
            parse_alg_expr("pi_{1,4}(sigma_{($2 = $3 and $1 = \"a9\")}(PAR * PAR)) union untuple(collapse(powerset({a5})))")
                .unwrap();
        assert_eq!(ascii, e);
    }

    #[test]
    fn sel_formula_singletons_round_trip() {
        for f in [
            SelFormula::all(vec![SelFormula::coords_eq(1, 2)]),
            SelFormula::any(vec![SelFormula::coord_in(1, 2)]),
            SelFormula::implies(SelFormula::And(vec![]), SelFormula::Or(vec![])),
            SelFormula::negate(SelFormula::coord_is(2, Atom(7))),
        ] {
            assert_eq!(parse_sel_formula(&f.to_string()).unwrap(), f, "{f}");
        }
        // A selection term is `$i` or a quoted atom; a named atom needs a
        // universe.
        for bad in ["$x = $1", "$1 = a3", "$1 = \"Tom\""] {
            assert!(parse_sel_formula(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn values_parse_with_named_atoms() {
        let mut u = Universe::new();
        let (tom, mary) = (u.atom("Tom"), u.atom("Mary"));
        let v = parse_value_with("{[Tom, Mary], [Mary, Tom]}", &mut u).unwrap();
        assert_eq!(
            v,
            Value::set(vec![Value::pair(tom, mary), Value::pair(mary, tom)])
        );
        assert_eq!(parse_value("{}").unwrap(), Value::empty_set());
        assert!(parse_value("[]").is_err());
        assert!(parse_value("{Tom}").is_err(), "names need a universe");
    }

    #[test]
    fn schema_and_database_literals_validate() {
        let schema = parse_schema("{PAR : [U, U], PERSON : U}").unwrap();
        assert_eq!(schema.names(), vec!["PAR", "PERSON"]);
        assert!(parse_schema("{PAR : U, PAR : U}").is_err());
        let mut u = Universe::new();
        let db = parse_database_with(
            "{PAR = {[Tom, Mary]}, PERSON = {Tom, Mary}}",
            &schema,
            &mut u,
        )
        .unwrap();
        assert_eq!(db.relation("PAR").unwrap().len(), 1);
        assert_eq!(db.relation("PERSON").unwrap().len(), 2);
        // A relation of the wrong type is rejected.
        assert!(parse_database_with("{PAR = {Tom}, PERSON = {}}", &schema, &mut u).is_err());
        // Missing relations are rejected too.
        assert!(parse_database_with("{PAR = {}}", &schema, &mut u).is_err());
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Stay a parse error (not a stack-overflow abort) on deep input.
        let deep = format!("{}R{}", "(".repeat(100_000), ")".repeat(100_000));
        let err = parse_alg_expr(&deep).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        let deep = format!("{}x ≈ y{}", "¬(".repeat(100_000), ")".repeat(100_000));
        assert!(parse_formula(&deep).is_err());
        let deep = format!("{}U{}", "{".repeat(100_000), "}".repeat(100_000));
        assert!(parse_type(&deep).is_err());
        let deep = format!("{}a0{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(parse_value(&deep).is_err());
        // Well below the bound, deep-but-sane input still parses.
        let sane = format!("{}{{a0}}{}", "𝒫(".repeat(90), ")".repeat(90));
        assert!(parse_alg_expr(&sane).is_ok());
    }

    /// Parse `src` with `parse` on a thread with a 2 MiB stack, the stack
    /// `itq serve` gives a session.
    fn on_a_session_stack<T: Send + 'static>(
        src: String,
        parse: fn(&str) -> Result<T>,
    ) -> Result<T> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&src))
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("the parse returns")
    }

    #[test]
    fn the_deepest_parenthesised_formula_fits_a_session_stack() {
        // Each parenthesis re-enters every precedence level of the formula
        // grammar; 199 of them once overflowed a 2 MiB stack in debug builds.
        let deepest = format!("{}R(t){}", "(".repeat(199), ")".repeat(199));
        assert!(on_a_session_stack(deepest, parse_formula).is_ok());
        let deeper = format!("{}R(t){}", "(".repeat(200), ")".repeat(200));
        let err = on_a_session_stack(deeper, parse_formula).unwrap_err();
        assert!(err.message.contains("nests deeper than 200"), "{err}");
    }

    #[test]
    fn an_algebra_operator_costs_two_levels() {
        // A 150-operator chain once parsed, then overflowed the planner on a
        // 2 MiB stack in debug builds.
        let chain = |n: usize| format!("{}PAR{}", "π_{1,2}(".repeat(n), ")".repeat(n));
        assert!(on_a_session_stack(chain(99), parse_alg_expr).is_ok());
        let err = on_a_session_stack(chain(100), parse_alg_expr).unwrap_err();
        assert!(err.message.contains("nests deeper than 200"), "{err}");
        let err = on_a_session_stack(chain(150), parse_alg_expr).unwrap_err();
        assert!(err.message.contains("nests deeper than 200"), "{err}");
    }

    #[test]
    fn only_an_identifier_applies_as_a_predicate() {
        let mut u = Universe::new();
        let err = parse_formula_with("'Tom'(x)", &mut u).unwrap_err();
        assert!(
            err.message.starts_with("expected `≈` or `∈` after a term"),
            "{err}"
        );
    }

    #[test]
    fn errors_carry_token_positions() {
        let err = parse_formula("x ≈\n  ∧").unwrap_err();
        assert_eq!(err.pos, Pos { line: 2, column: 3 });
        let err = parse_formula("x").unwrap_err();
        assert_eq!(err.pos, Pos { line: 1, column: 2 });
        let err = parse_alg_expr("π_{1}(").unwrap_err();
        assert_eq!(err.pos, Pos { line: 1, column: 7 });
    }
}
