//! Textual grammar declarations — the surface syntax of the Ergo-style
//! facility.
//!
//! ```text
//! language lc {
//!   sort tm;
//!   prod lam : (tm) tm -> tm;     // one binder of sort tm over a tm body
//!   prod app : tm tm -> tm;
//! }
//! ```
//!
//! An argument position is a sort name, the keyword `int`, or a scope
//! `(b₁ … bₙ) body` binding variables of sorts `b₁ … bₙ` in a body of
//! sort `body`. Comments run from `//` or `%` to end of line.
//!
//! [`parse_language_def`] produces a [`LanguageDef`];
//! [`LanguageDef`]'s [`Display`](std::fmt::Display) impl prints this
//! syntax back, and the two round-trip.

use crate::def::{Arg, LanguageDef};
use std::fmt;

/// Errors from parsing a textual grammar.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GrammarError {
    /// 0-based line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grammar error at line {}: {}", self.line + 1, self.msg)
    }
}

impl std::error::Error for GrammarError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Semi,
    Arrow,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Arrow => f.write_str("`->`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, u32)>, GrammarError> {
    let mut out = Vec::new();
    let mut line = 0u32;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '%' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                }
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    while let Some(&c) = chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        chars.next();
                    }
                } else {
                    return Err(GrammarError {
                        line,
                        msg: "unexpected `/` (use `//` for comments)".into(),
                    });
                }
            }
            '{' => {
                chars.next();
                out.push((Tok::LBrace, line));
            }
            '}' => {
                chars.next();
                out.push((Tok::RBrace, line));
            }
            '(' => {
                chars.next();
                out.push((Tok::LParen, line));
            }
            ')' => {
                chars.next();
                out.push((Tok::RParen, line));
            }
            ':' => {
                chars.next();
                out.push((Tok::Colon, line));
            }
            ';' => {
                chars.next();
                out.push((Tok::Semi, line));
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'>') {
                    chars.next();
                    out.push((Tok::Arrow, line));
                } else {
                    return Err(GrammarError {
                        line,
                        msg: "expected `->` after `-`".into(),
                    });
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut name = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        name.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(name), line));
            }
            other => {
                return Err(GrammarError {
                    line,
                    msg: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    out.push((Tok::Eof, line));
    Ok(out)
}

struct P {
    toks: Vec<(Tok, u32)>,
    pos: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }
    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }
    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }
    fn err(&self, msg: impl Into<String>) -> GrammarError {
        GrammarError {
            line: self.line(),
            msg: msg.into(),
        }
    }
    fn expect(&mut self, t: Tok) -> Result<(), GrammarError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }
    fn ident(&mut self) -> Result<String, GrammarError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected an identifier, found {other}"))),
        }
    }
}

/// Parses a textual grammar declaration.
///
/// # Errors
///
/// [`GrammarError`] with a line number. (Semantic validation — duplicate
/// sorts, unknown sort references — happens in
/// [`LanguageDef::validate`]/[`LanguageDef::compile`], not here.)
///
/// ```
/// use hoas_syntaxdef::grammar::parse_language_def;
/// let def = parse_language_def(
///     "language lc {
///        sort tm;
///        prod lam : (tm) tm -> tm;
///        prod app : tm tm -> tm;
///      }",
/// )?;
/// let sig = def.compile()?;
/// assert_eq!(sig.const_ty("lam").unwrap().to_string(), "(tm -> tm) -> tm");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_language_def(src: &str) -> Result<LanguageDef, GrammarError> {
    let mut p = P {
        toks: lex(src)?,
        pos: 0,
    };
    match p.ident()?.as_str() {
        "language" => {}
        other => {
            return Err(p.err(format!("expected `language`, found `{other}`")));
        }
    }
    let name = p.ident()?;
    p.expect(Tok::LBrace)?;
    let mut def = LanguageDef::new(name);
    loop {
        match p.peek().clone() {
            Tok::RBrace => {
                p.bump();
                break;
            }
            Tok::Ident(kw) if kw == "sort" => {
                p.bump();
                let s = p.ident()?;
                p.expect(Tok::Semi)?;
                def = def.sort(s);
            }
            Tok::Ident(kw) if kw == "prod" => {
                p.bump();
                let pname = p.ident()?;
                p.expect(Tok::Colon)?;
                let mut args = Vec::new();
                loop {
                    match p.peek().clone() {
                        Tok::Arrow => {
                            p.bump();
                            break;
                        }
                        Tok::Ident(s) => {
                            p.bump();
                            if s == "int" {
                                args.push(Arg::Int);
                            } else {
                                args.push(Arg::sort(s));
                            }
                        }
                        Tok::LParen => {
                            p.bump();
                            let mut binders = Vec::new();
                            loop {
                                match p.peek().clone() {
                                    Tok::RParen => {
                                        p.bump();
                                        break;
                                    }
                                    Tok::Ident(_) => binders.push(p.ident()?),
                                    other => {
                                        return Err(p.err(format!(
                                            "expected a binder sort or `)`, found {other}"
                                        )))
                                    }
                                }
                            }
                            if binders.is_empty() {
                                return Err(p.err("a scope must bind at least one variable"));
                            }
                            let body = p.ident()?;
                            args.push(Arg::binding_many(binders, body));
                        }
                        other => {
                            return Err(
                                p.err(format!("expected an argument or `->`, found {other}"))
                            )
                        }
                    }
                }
                let sort = p.ident()?;
                p.expect(Tok::Semi)?;
                def = def.prod(pname, sort, args);
            }
            other => {
                return Err(p.err(format!("expected `sort`, `prod`, or `}}`, found {other}")));
            }
        }
    }
    if p.peek() != &Tok::Eof {
        return Err(p.err(format!("unexpected {} after `}}`", p.peek())));
    }
    Ok(def)
}

impl fmt::Display for LanguageDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "language {} {{", self.name())?;
        for s in self.sorts() {
            writeln!(f, "  sort {s};")?;
        }
        for p in self.productions() {
            write!(f, "  prod {} :", p.name)?;
            for a in &p.args {
                match a {
                    Arg::Sort(s) => write!(f, " {s}")?,
                    Arg::Int => write!(f, " int")?,
                    Arg::Binding { binders, body } => write!(f, " ({}) {body}", binders.join(" "))?,
                }
            }
            writeln!(f, " -> {};", p.sort)?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMP: &str = "language imp {
        sort loc; sort aexp; sort bexp; sort cmd;
        prod lit : int -> aexp;
        prod deref : loc -> aexp;
        prod add : aexp aexp -> aexp;
        prod sub : aexp aexp -> aexp;
        prod mul : aexp aexp -> aexp;
        prod le : aexp aexp -> bexp;
        prod eqb : aexp aexp -> bexp;
        prod notb : bexp -> bexp;
        prod andb : bexp bexp -> bexp;
        prod skip : -> cmd;
        prod assign : loc aexp -> cmd;
        prod seq : cmd cmd -> cmd;
        prod ifc : bexp cmd cmd -> cmd;
        prod while : bexp cmd -> cmd;
        prod print : aexp -> cmd;
        prod local : aexp (loc) cmd -> cmd;
    }";

    #[test]
    fn parses_the_imp_grammar_to_its_signature() {
        let def = parse_language_def(IMP).unwrap();
        let sig = def.compile().unwrap();
        assert_eq!(sig.const_ty("lit").unwrap().to_string(), "int -> aexp");
        assert_eq!(
            sig.const_ty("local").unwrap().to_string(),
            "aexp -> (loc -> cmd) -> cmd"
        );
        assert_eq!((sig.num_types(), sig.num_consts()), (4, 16));
    }

    #[test]
    fn display_parse_roundtrip() {
        let def = parse_language_def(IMP).unwrap();
        let printed = def.to_string();
        let reparsed = parse_language_def(&printed).unwrap();
        assert_eq!(reparsed.to_string(), printed);
        assert_eq!(
            reparsed.compile().unwrap().to_string(),
            def.compile().unwrap().to_string()
        );
    }

    #[test]
    fn multi_binder_scopes_parse() {
        let def =
            parse_language_def("language x { sort e; prod let2 : e e (e e) e -> e; }").unwrap();
        let sig = def.compile().unwrap();
        assert_eq!(
            sig.const_ty("let2").unwrap().to_string(),
            "e -> e -> (e -> e -> e) -> e"
        );
    }

    #[test]
    fn comments_both_styles() {
        let def = parse_language_def(
            "language c { % percent comment
               sort e;   // slash comment
               prod k : -> e; }",
        )
        .unwrap();
        assert_eq!(def.sorts().len(), 1);
        assert_eq!(def.productions().len(), 1);
    }

    #[test]
    fn error_positions_are_line_based() {
        let err = parse_language_def("language x {\n  sort e;\n  prod bad e; }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_language_def("grammar x {}").is_err());
        assert!(parse_language_def("language x { sort e; } trailing").is_err());
        assert!(parse_language_def("language x { prod p : () e -> e; }").is_err());
        assert!(parse_language_def("language x { sort e; prod p : ?? -> e; }").is_err());
    }

    #[test]
    fn semantic_errors_deferred_to_compile() {
        // Unknown sort parses fine but fails to compile.
        let def = parse_language_def("language x { sort e; prod p : ghost -> e; }").unwrap();
        assert!(def.compile().is_err());
    }
}
