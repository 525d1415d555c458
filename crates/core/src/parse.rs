//! Concrete syntax for types, terms, and signatures.
//!
//! The grammar follows λProlog/LF conventions:
//!
//! ```text
//! sig   ::= { "type" IDENT "." | "const" IDENT ":" ty "." }
//! ty    ::= ty1 [ "->" ty ]                  (right associative)
//! ty1   ::= ty2 [ "*" ty2 ]                  (right associative)
//! ty2   ::= IDENT | "int" | "unit" | TYVAR | "(" ty ")"
//! term  ::= "\" IDENT "." term | app
//! app   ::= atom { atom }
//! atom  ::= IDENT | META | INT | "()" | "(" term ")" | "(" term "," term ")"
//!         | "fst" atom | "snd" atom
//! ```
//!
//! Identifiers are resolved against the enclosing binders first (yielding
//! de Bruijn variables; the innermost binder of a name wins, found in O(1)
//! through a [`crate::scope::Scope`]), then against the signature's
//! constants.
//! Metavariables are written `?Name`; parse results report the mapping
//! from names to [`MVar`]s so that rule left- and right-hand sides can
//! share metavariables via a [`MetaTable`].
//!
//! Comments run from `%` or `//` to end of line.
//!
//! Tokens borrow their text from the source, a constant resolves to the
//! signature's own [`Sym`], and a whole term is interned in one
//! [`crate::store`] session, one borrowed-view probe per node. Terms are
//! parsed with an explicit stack, so any nesting depth parses; types
//! nest at most [`MAX_TY_NESTING`] levels.

use crate::error::Error;
use crate::intern::Sym;
use crate::scope::Scope;
use crate::sig::Signature;
use crate::store::{self, InternSession, NodeView};
use crate::term::{MVar, Term, TermRef};
use crate::ty::{Ty, TyScheme};
use crate::MAX_TY_NESTING;
use std::collections::HashMap;

// ---------------------------------------------------------------- lexer --

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'s> {
    Ident(&'s str),
    TyVar(&'s str),
    Meta(&'s str),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    Arrow,
    Star,
    Backslash,
    Eof,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::TyVar(s) => write!(f, "`'{s}`"),
            Tok::Meta(s) => write!(f, "`?{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Arrow => f.write_str("`->`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Backslash => f.write_str("`\\`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Spanned<'s> {
    tok: Tok<'s>,
    line: u32,
    col: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// A position in the source: a byte offset for slicing tokens out, and a
/// 0-based line and column — counted in characters — for errors.
struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn peek(&self) -> Option<char> {
        match self.src.as_bytes().get(self.pos) {
            Some(&b) if b.is_ascii() => Some(b as char),
            Some(_) => self.src[self.pos..].chars().next(),
            None => None,
        }
    }

    /// Moves past `c`, the character [`Lexer::peek`] returned.
    fn advance(&mut self, c: char) {
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
    }

    /// Consumes characters while `keep` holds and returns them.
    fn eat_while(&mut self, keep: impl Fn(char) -> bool) -> &'s str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if !keep(c) {
                break;
            }
            self.advance(c);
        }
        &self.src[start..self.pos]
    }
}

fn lex(src: &str) -> Result<Vec<Spanned<'_>>, Error> {
    let mut out = Vec::new();
    let mut lx = Lexer {
        src,
        pos: 0,
        line: 0,
        col: 0,
    };
    while let Some(c) = lx.peek() {
        let (line, col, start) = (lx.line, lx.col, lx.pos);
        let err = |msg: String| Error::Parse { line, col, msg };
        let int = |digits: &str| {
            digits
                .parse::<i64>()
                .map(Tok::Int)
                .map_err(|_| err(format!("integer literal `{digits}` out of range")))
        };
        let tok = match c {
            c if c.is_whitespace() => {
                lx.advance(c);
                continue;
            }
            '%' => {
                lx.eat_while(|c| c != '\n');
                continue;
            }
            '/' => {
                lx.advance(c);
                if lx.peek() != Some('/') {
                    return Err(err("unexpected `/` (use `//` for comments)".into()));
                }
                lx.eat_while(|c| c != '\n');
                continue;
            }
            '-' => {
                lx.advance(c);
                match lx.peek() {
                    Some('>') => {
                        lx.advance('>');
                        Tok::Arrow
                    }
                    Some(d) if d.is_ascii_digit() => {
                        lx.eat_while(|d| d.is_ascii_digit());
                        int(&src[start..lx.pos])?
                    }
                    _ => return Err(err("expected `->` or a negative integer after `-`".into())),
                }
            }
            '\'' => {
                lx.advance(c);
                match lx.eat_while(|d| is_ident_cont(d) && d != '\'') {
                    "" => return Err(err("expected a type-variable name after `'`".into())),
                    name => Tok::TyVar(name),
                }
            }
            '?' => {
                lx.advance(c);
                match lx.eat_while(is_ident_cont) {
                    "" => return Err(err("expected a metavariable name after `?`".into())),
                    name => Tok::Meta(name),
                }
            }
            d if d.is_ascii_digit() => int(lx.eat_while(|d| d.is_ascii_digit()))?,
            c if is_ident_start(c) => Tok::Ident(lx.eat_while(is_ident_cont)),
            _ => {
                lx.advance(c);
                match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    ',' => Tok::Comma,
                    '.' => Tok::Dot,
                    ':' => Tok::Colon,
                    '*' => Tok::Star,
                    '\\' => Tok::Backslash,
                    other => return Err(err(format!("unexpected character `{other}`"))),
                }
            }
        };
        out.push(Spanned { tok, line, col });
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line: lx.line,
        col: lx.col,
    });
    Ok(out)
}

// --------------------------------------------------------------- parser --

/// Shared metavariable naming across several [`parse_term_with`] calls, so
/// that `?P` in a rule's left- and right-hand sides denotes the same
/// [`MVar`].
#[derive(Clone, Debug, Default)]
pub struct MetaTable {
    by_name: HashMap<String, MVar>,
    next: u32,
}

impl MetaTable {
    /// An empty table.
    pub fn new() -> MetaTable {
        MetaTable::default()
    }

    /// The metavariable for `name`, allocating one on first use.
    pub fn get_or_insert(&mut self, name: &str) -> MVar {
        if let Some(m) = self.by_name.get(name) {
            return m.clone();
        }
        let m = MVar::new(self.next, name);
        self.next += 1;
        self.by_name.insert(name.to_string(), m.clone());
        m
    }

    /// The metavariable previously allocated for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MVar> {
        self.by_name.get(name)
    }

    /// Iterates `(name, mvar)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MVar)> {
        self.by_name.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct metavariables allocated.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether no metavariable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// Result of parsing a term: the term plus the metavariables it mentions.
#[derive(Clone, Debug)]
pub struct ParsedTerm {
    /// The parsed term.
    pub term: Term,
    /// Names of the metavariables, in the shared table.
    pub metas: MetaTable,
}

/// A parsed subterm that is not interned yet. Its parent interns it (in
/// source order, so first-interned binder hints and node ids come out
/// as if each node were built with the smart constructors); the root is
/// returned without a store probe. A constant stays a borrow of the
/// signature's symbol until then.
enum Node<'g> {
    Const(&'g Sym),
    Built(Term),
}

impl Node<'_> {
    fn share(self, s: &mut InternSession<'_>) -> TermRef {
        match self {
            Node::Const(c) => s.intern_view(&NodeView::Const(c)),
            Node::Built(t) => s.intern_view(&NodeView::of(&t)),
        }
    }

    fn into_term(self) -> Term {
        match self {
            Node::Const(c) => Term::Const(c.clone()),
            Node::Built(t) => t,
        }
    }
}

/// A term whose parse is under way: the application read so far, and
/// how many binders were in scope before its λ-run.
struct Level<'g> {
    app: Option<Node<'g>>,
    outer: usize,
}

/// Where a nested term or atom goes once parsed: the term parser's
/// explicit stack, which makes nesting cost heap instead of host stack.
enum Frame<'g> {
    /// `(`, inside the suspended level: a parenthesized term or a pair's
    /// first component.
    Paren(Level<'g>),
    /// `( a ,`: a pair's second component.
    PairSnd(Node<'g>, Level<'g>),
    /// `fst` (`true`) or `snd`, awaiting its atom.
    Proj(bool),
}

struct Parser<'s, 'g> {
    toks: Vec<Spanned<'s>>,
    pos: usize,
    sig: Option<&'g Signature>,
    /// The binders in scope, outermost first.
    binders: Scope<&'s str>,
    metas: MetaTable,
    tyvars: HashMap<&'s str, u32>,
    /// Enclosing type constructs, bounded by [`MAX_TY_NESTING`].
    ty_depth: u32,
}

impl<'s, 'g> Parser<'s, 'g> {
    fn new(src: &'s str, sig: Option<&'g Signature>, metas: MetaTable) -> Result<Self, Error> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            sig,
            binders: Scope::new(),
            metas,
            tyvars: HashMap::new(),
            ty_depth: 0,
        })
    }

    fn peek(&self) -> Tok<'s> {
        self.toks[self.pos].tok
    }

    fn here(&self) -> (u32, u32) {
        (self.toks[self.pos].line, self.toks[self.pos].col)
    }

    fn bump(&mut self) -> Tok<'s> {
        let t = self.peek();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let (line, col) = self.here();
        Error::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }

    /// "expected `what`, found …" at the current token.
    #[cold]
    fn expected(&self, what: impl std::fmt::Display) -> Error {
        self.err(format!("expected {what}, found {}", self.peek()))
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<(), Error> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.expected(tok))
        }
    }

    fn expect_ident(&mut self) -> Result<&'s str, Error> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.expected("an identifier")),
        }
    }

    /// Enters one level of type nesting, failing past
    /// [`MAX_TY_NESTING`]. The caller leaves it (`ty_depth -= 1`) once the
    /// nested part is parsed; an error ends the whole parse, so error
    /// paths need not.
    fn enter(&mut self) -> Result<(), Error> {
        if self.ty_depth >= MAX_TY_NESTING {
            return Err(self.err(format!("type nested deeper than {MAX_TY_NESTING} levels")));
        }
        self.ty_depth += 1;
        Ok(())
    }

    // ---- types ----

    fn tyvar_id(&mut self, name: &'s str) -> Result<u32, Error> {
        if let Some(&v) = self.tyvars.get(name) {
            return Ok(v);
        }
        let v = if name.len() == 1 {
            let c = name.as_bytes()[0];
            if c.is_ascii_lowercase() {
                (c - b'a') as u32
            } else {
                return Err(self.err(format!("invalid type variable `'{name}`")));
            }
        } else if let Some(num) = name.strip_prefix('t') {
            num.parse::<u32>()
                .map_err(|_| self.err(format!("invalid type variable `'{name}`")))?
        } else {
            return Err(self.err(format!(
                "invalid type variable `'{name}` (use `'a`..`'z` or `'tN`)"
            )));
        };
        self.tyvars.insert(name, v);
        Ok(v)
    }

    fn ty(&mut self) -> Result<Ty, Error> {
        let lhs = self.ty_prod()?;
        if self.peek() == Tok::Arrow {
            self.bump();
            self.enter()?;
            let rhs = self.ty()?;
            self.ty_depth -= 1;
            Ok(Ty::arrow(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> Result<Ty, Error> {
        let lhs = self.ty_atom()?;
        if self.peek() == Tok::Star {
            self.bump();
            self.enter()?;
            let rhs = self.ty_prod()?;
            self.ty_depth -= 1;
            Ok(Ty::prod(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ty_atom(&mut self) -> Result<Ty, Error> {
        match self.peek() {
            Tok::Ident(name) => {
                self.bump();
                Ok(match name {
                    "int" => Ty::Int,
                    "unit" => Ty::Unit,
                    _ => Ty::base(name),
                })
            }
            Tok::TyVar(name) => {
                self.bump();
                Ok(Ty::Var(self.tyvar_id(name)?))
            }
            Tok::LParen => {
                self.bump();
                self.enter()?;
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                self.ty_depth -= 1;
                Ok(t)
            }
            _ => Err(self.expected("a type")),
        }
    }

    // ---- terms ----

    /// Parses a term with an explicit stack of [`Frame`]s, so any nesting
    /// depth parses. Children are interned as their parent is built, in
    /// source order.
    fn term(&mut self, s: &mut InternSession<'_>) -> Result<Node<'g>, Error> {
        let mut stack = Vec::new();
        let mut level = self.open_term()?;
        loop {
            let mut atom = match self.peek() {
                Tok::LParen => {
                    self.bump();
                    if self.peek() == Tok::RParen {
                        self.bump();
                        Node::Built(Term::Unit)
                    } else {
                        let inner = self.open_term()?;
                        stack.push(Frame::Paren(std::mem::replace(&mut level, inner)));
                        continue;
                    }
                }
                Tok::Ident(proj @ ("fst" | "snd")) => {
                    self.bump();
                    stack.push(Frame::Proj(proj == "fst"));
                    continue;
                }
                Tok::Ident(_) | Tok::Meta(_) | Tok::Int(_) => self.leaf()?,
                // No atom starts here, so the level's term ends — unless
                // an atom is required.
                _ => {
                    if let Some(Frame::Proj(fst)) = stack.last() {
                        let proj = if *fst { "fst" } else { "snd" };
                        return Err(self.err(format!("expected an argument after `{proj}`")));
                    }
                    let Some(mut t) = level.app.take() else {
                        return Err(self.expected("a term"));
                    };
                    while self.binders.len() > level.outer {
                        let name = self.binders.pop().expect("a binder in scope");
                        t = Node::Built(Term::Lam(Sym::new(name), t.share(s)));
                    }
                    match stack.pop() {
                        None => return Ok(t),
                        Some(Frame::Paren(enclosing)) => {
                            if self.peek() == Tok::Comma {
                                self.bump();
                                level = self.open_term()?;
                                stack.push(Frame::PairSnd(t, enclosing));
                                continue;
                            }
                            self.expect(Tok::RParen)?;
                            level = enclosing;
                            t
                        }
                        Some(Frame::PairSnd(a, enclosing)) => {
                            self.expect(Tok::RParen)?;
                            level = enclosing;
                            let a = a.share(s);
                            Node::Built(Term::Pair(a, t.share(s)))
                        }
                        Some(Frame::Proj(_)) => unreachable!("checked above"),
                    }
                }
            };
            // An atom: apply the projections awaiting it, then extend the
            // application.
            while let Some(&Frame::Proj(fst)) = stack.last() {
                stack.pop();
                let arg = atom.share(s);
                atom = Node::Built(if fst { Term::Fst(arg) } else { Term::Snd(arg) });
            }
            level.app = Some(match level.app.take() {
                None => atom,
                Some(f) => {
                    let f = f.share(s);
                    Node::Built(Term::App(f, atom.share(s)))
                }
            });
        }
    }

    /// Reads a term's λ-run, binding its names, and opens its level.
    fn open_term(&mut self) -> Result<Level<'g>, Error> {
        let outer = self.binders.len();
        while self.peek() == Tok::Backslash {
            self.bump();
            let name = self.expect_ident()?;
            self.expect(Tok::Dot)?;
            self.binders.push(name);
        }
        Ok(Level { app: None, outer })
    }

    /// An identifier, metavariable, or integer literal.
    fn leaf(&mut self) -> Result<Node<'g>, Error> {
        Ok(match self.bump() {
            Tok::Ident(name) => {
                // The innermost binder of that name wins.
                if let Some(index) = self.binders.index_of(name) {
                    Node::Built(Term::Var(index))
                } else if let Some(c) = self.sig.and_then(|g| g.const_sym(name)) {
                    Node::Const(c)
                } else {
                    return Err(self.err(format!(
                        "`{name}` is neither a bound variable nor a declared constant"
                    )));
                }
            }
            Tok::Meta(name) => Node::Built(Term::Meta(self.metas.get_or_insert(name))),
            Tok::Int(n) => Node::Built(Term::Int(n)),
            other => unreachable!("{other} is not a leaf"),
        })
    }

    fn eof(&mut self) -> Result<(), Error> {
        if self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected {} after the term", self.peek())))
        }
    }
}

/// Parses a closed term against a signature.
///
/// # Errors
///
/// Syntax errors and unresolved identifiers (not a binder, not a
/// constant).
pub fn parse_term(sig: &Signature, src: &str) -> Result<ParsedTerm, Error> {
    parse_term_with(sig, src, MetaTable::new())
}

/// Parses a term, threading an existing [`MetaTable`] so that several
/// parses share metavariable identities.
///
/// # Errors
///
/// As for [`parse_term`].
pub fn parse_term_with(sig: &Signature, src: &str, metas: MetaTable) -> Result<ParsedTerm, Error> {
    let mut p = Parser::new(src, Some(sig), metas)?;
    let term = store::with_session(|s| {
        let t = p.term(s)?;
        p.eof()?;
        Ok::<_, Error>(t.into_term())
    })?;
    Ok(ParsedTerm {
        term,
        metas: p.metas,
    })
}

/// Parses a type.
///
/// # Errors
///
/// Syntax errors and nesting deeper than [`MAX_TY_NESTING`]; base types
/// are not checked against a signature (use [`Signature::check_ty_wf`] for
/// that).
pub fn parse_ty(src: &str) -> Result<Ty, Error> {
    let mut p = Parser::new(src, None, MetaTable::new())?;
    let t = p.ty()?;
    p.eof()?;
    Ok(t)
}

/// Parses a signature (a sequence of `type`/`const` declarations).
///
/// Constant types are generalized over their free type variables.
///
/// # Errors
///
/// Syntax errors, types nested deeper than [`MAX_TY_NESTING`],
/// redeclarations, and references to undeclared base types.
pub fn parse_sig(src: &str) -> Result<Signature, Error> {
    let mut p = Parser::new(src, None, MetaTable::new())?;
    let mut sig = Signature::new();
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Ident("type") => {
                p.bump();
                let name = p.expect_ident()?;
                p.expect(Tok::Dot)?;
                sig.declare_type(name)?;
            }
            Tok::Ident("const") => {
                p.bump();
                let name = p.expect_ident()?;
                p.expect(Tok::Colon)?;
                p.tyvars.clear();
                let ty = p.ty()?;
                p.expect(Tok::Dot)?;
                sig.declare_const(name, TyScheme::generalize(&ty))?;
            }
            other => {
                return Err(p.err(format!("expected `type` or `const`, found {other}")));
            }
        }
    }
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        parse_sig(
            "type tm.
             % the two constructors of the untyped λ-calculus
             const lam : (tm -> tm) -> tm.
             const app : tm -> tm -> tm.
             const pairc : 'a -> 'b -> 'a * 'b.  // polymorphic",
        )
        .unwrap()
    }

    #[test]
    fn parses_signature_with_comments() {
        let s = sig();
        assert!(s.has_type("tm"));
        assert_eq!(s.const_ty("lam").unwrap().to_string(), "(tm -> tm) -> tm");
        assert_eq!(s.const_ty("pairc").unwrap().arity(), 2);
    }

    #[test]
    fn parses_lambda_and_resolves_binders() {
        let s = sig();
        let t = parse_term(&s, r"lam (\x. app x x)").unwrap().term;
        assert_eq!(
            t,
            Term::app(
                Term::cnst("lam"),
                Term::lam(
                    "x",
                    Term::apps(Term::cnst("app"), [Term::Var(0), Term::Var(0)])
                )
            )
        );
    }

    #[test]
    fn innermost_binder_wins() {
        let s = sig();
        let t = parse_term(&s, r"\x. \x. x").unwrap().term;
        assert_eq!(t, Term::lam("x", Term::lam("x", Term::Var(0))));
    }

    #[test]
    fn shadowing_ends_with_the_inner_binder() {
        // Leaving the inner `\x. x` must make `x` the outer binder again.
        let s = sig();
        let names: Vec<String> = (0..20).map(|i| format!("a{i}")).collect();
        let src = format!(
            r"{} \x. app (lam (\x. x)) (app x a0)",
            names.iter().map(|n| format!(r"\{n}.")).collect::<String>()
        );
        let app = |f: Term, a: Term| Term::apps(Term::cnst("app"), [f, a]);
        let body = app(
            Term::app(Term::cnst("lam"), Term::lam("x", Term::Var(0))),
            app(Term::Var(0), Term::Var(20)),
        );
        let hints = names.iter().map(String::as_str).chain(["x"]);
        assert_eq!(
            parse_term(&s, &src).unwrap().term,
            Term::lams(hints.collect::<Vec<_>>(), body)
        );
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let s = sig();
        let err = parse_term(&s, "mystery").unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn metavariables_shared_via_table() {
        let s = sig();
        let lhs = parse_term(&s, "app ?P ?P").unwrap();
        let rhs = parse_term_with(&s, "?P", lhs.metas.clone()).unwrap();
        assert_eq!(lhs.term.metas().len(), 1);
        assert_eq!(lhs.term.metas()[0], rhs.term.metas()[0]);
        // A fresh table gives a distinct mvar id-space but same hint.
        let other = parse_term(&s, "?P").unwrap();
        assert_eq!(other.metas.len(), 1);
    }

    #[test]
    fn pairs_units_ints() {
        let s = sig();
        let t = parse_term(&s, "pairc (1, ()) -3").unwrap().term;
        assert_eq!(
            t,
            Term::apps(
                Term::cnst("pairc"),
                [Term::pair(Term::Int(1), Term::Unit), Term::Int(-3)]
            )
        );
    }

    #[test]
    fn fst_snd_prefix() {
        let s = sig();
        let t = parse_term(&s, "fst (pairc 1 2)").unwrap().term;
        assert_eq!(
            t,
            Term::fst(Term::apps(
                Term::cnst("pairc"),
                [Term::Int(1), Term::Int(2)]
            ))
        );
    }

    #[test]
    fn ty_parsing_matches_printing() {
        for src in [
            "tm",
            "tm -> tm",
            "(tm -> tm) -> tm",
            "tm * tm -> int",
            "tm * (tm * unit)",
            "'a -> 'b -> 'a * 'b",
        ] {
            let t = parse_ty(src).unwrap();
            assert_eq!(t.to_string(), src, "round-trip failed for {src}");
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let s = sig();
        let err = parse_term(&s, "app (").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 0),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let s = sig();
        assert!(parse_term(&s, "lam )").is_err());
        assert!(parse_ty("tm tm").is_err());
    }

    #[test]
    fn printer_parser_roundtrip() {
        let s = sig();
        for src in [
            r"\x. x",
            r"lam (\x. app x x)",
            r"\f. \x. f (f x)",
            r"app (lam (\x. x)) (lam (\y. app y y))",
            "(1, (2, ()))",
        ] {
            let t = parse_term(&s, src).unwrap().term;
            let printed = t.to_string();
            let t2 = parse_term(&s, &printed).unwrap().term;
            assert_eq!(
                t, t2,
                "round-trip failed for `{src}` printed as `{printed}`"
            );
        }
    }

    /// Asserts the exact `Error::Parse` a source produces.
    fn parse_err(r: Result<impl std::fmt::Debug, Error>) -> (u32, u32, String) {
        match r {
            Err(Error::Parse { line, col, msg }) => (line, col, msg),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn error_position_after_comments_counts_lines_and_chars() {
        let s = sig();
        let src = "% comment: λ-terms\n// and more\n\n  lam (\\é. é) $ y";
        assert_eq!(
            parse_err(parse_term(&s, src)),
            (3, 14, "unexpected character `$`".into())
        );
    }

    #[test]
    fn error_position_dash_without_arrow_or_digit() {
        let s = sig();
        assert_eq!(
            parse_err(parse_term(&s, "app - x")),
            (0, 4, "expected `->` or a negative integer after `-`".into())
        );
    }

    #[test]
    fn error_position_integer_out_of_range() {
        let s = sig();
        assert_eq!(
            parse_err(parse_term(&s, "app 99999999999999999999 x")),
            (
                0,
                4,
                "integer literal `99999999999999999999` out of range".into()
            )
        );
        assert_eq!(
            parse_err(parse_term(&s, "app\n -9223372036854775809")),
            (
                1,
                1,
                "integer literal `-9223372036854775809` out of range".into()
            )
        );
    }

    #[test]
    fn error_position_sigil_without_name() {
        let s = sig();
        assert_eq!(
            parse_err(parse_term(&s, "app ? x")),
            (0, 4, "expected a metavariable name after `?`".into())
        );
        assert_eq!(
            parse_err(parse_ty("tm -> ' a")),
            (0, 6, "expected a type-variable name after `'`".into())
        );
    }

    #[test]
    fn error_position_counts_chars_after_non_ascii_identifier() {
        let s = sig();
        // The unknown identifier is reported at the token after it; the
        // column counts characters, not bytes (each `é` is two bytes).
        assert_eq!(
            parse_err(parse_term(&s, r"\é. app é mystery é")),
            (
                0,
                18,
                "`mystery` is neither a bound variable nor a declared constant".into()
            )
        );
    }

    #[test]
    fn error_position_trailing_garbage() {
        let s = sig();
        assert_eq!(
            parse_err(parse_term(&s, r"lam (\x. x) )")),
            (0, 12, "unexpected `)` after the term".into())
        );
        assert_eq!(
            parse_err(parse_ty("tm tm")),
            (0, 3, "unexpected `tm` after the term".into())
        );
    }
}
