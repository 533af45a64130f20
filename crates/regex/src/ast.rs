//! Regular expressions over element-type alphabets.
//!
//! DTD productions map element types to regular expressions over `Γ − {r}`
//! (paper §2). The grammar used by the textual parser is DTD-flavoured:
//!
//! ```text
//! alt  := cat ('|' cat)*
//! cat  := rep (',' rep)*
//! rep  := atom ('*' | '+' | '?')*
//! atom := name | '(' alt ')' | 'eps' | 'empty'
//! ```
//!
//! so `teach, supervise`, `course, course`, `prof*`, `b1|b2` and
//! `c1?, c2?, c3?` all parse as in the paper.

use std::collections::BTreeSet;
use std::fmt;
use xmlmap_trees::Name;

/// A regular expression over an alphabet of [`Name`]s.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single symbol.
    Symbol(Name),
    /// Concatenation.
    Concat(Box<Regex>, Box<Regex>),
    /// Alternation.
    Alt(Box<Regex>, Box<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more.
    Plus(Box<Regex>),
    /// Zero or one.
    Opt(Box<Regex>),
}

impl Regex {
    /// `Symbol` from anything name-like.
    pub fn symbol(s: impl Into<Name>) -> Regex {
        Regex::Symbol(s.into())
    }

    /// Concatenation of a sequence (empty sequence is ε).
    pub fn concat(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut it = parts.into_iter();
        match it.next() {
            None => Regex::Epsilon,
            Some(first) => it.fold(first, |acc, r| Regex::Concat(Box::new(acc), Box::new(r))),
        }
    }

    /// Alternation of a sequence (empty sequence is ∅).
    pub fn alt(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut it = parts.into_iter();
        match it.next() {
            None => Regex::Empty,
            Some(first) => it.fold(first, |acc, r| Regex::Alt(Box::new(acc), Box::new(r))),
        }
    }

    /// Kleene star.
    pub fn star(self) -> Regex {
        Regex::Star(Box::new(self))
    }

    /// One-or-more.
    pub fn plus(self) -> Regex {
        Regex::Plus(Box::new(self))
    }

    /// Zero-or-one.
    pub fn opt(self) -> Regex {
        Regex::Opt(Box::new(self))
    }

    /// The set of symbols mentioned (not necessarily all usable).
    pub fn symbols(&self) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut BTreeSet<Name>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Symbol(n) => {
                out.insert(n.clone());
            }
            Regex::Concat(a, b) | Regex::Alt(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
            Regex::Star(a) | Regex::Plus(a) | Regex::Opt(a) => a.collect_symbols(out),
        }
    }

    /// A shortest word in the language, if the language is non-empty.
    pub fn shortest_word(&self) -> Option<Vec<Name>> {
        match self {
            Regex::Empty => None,
            Regex::Epsilon => Some(Vec::new()),
            Regex::Symbol(n) => Some(vec![n.clone()]),
            Regex::Concat(a, b) => {
                let mut w = a.shortest_word()?;
                w.extend(b.shortest_word()?);
                Some(w)
            }
            Regex::Alt(a, b) => match (a.shortest_word(), b.shortest_word()) {
                (Some(x), Some(y)) => Some(if x.len() <= y.len() { x } else { y }),
                (Some(x), None) => Some(x),
                (None, y) => y,
            },
            Regex::Star(_) | Regex::Opt(_) => Some(Vec::new()),
            Regex::Plus(a) => a.shortest_word(),
        }
    }
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: alt (1) < cat (2) < postfix (3).
        fn go(r: &Regex, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match r {
                Regex::Empty => write!(f, "empty"),
                Regex::Epsilon => write!(f, "eps"),
                Regex::Symbol(n) => write!(f, "{n}"),
                Regex::Alt(a, b) => {
                    let need = prec > 1;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, 1)?;
                    write!(f, "|")?;
                    go(b, f, 1)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Concat(a, b) => {
                    let need = prec > 2;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, 2)?;
                    write!(f, ", ")?;
                    go(b, f, 2)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Star(a) => {
                    go(a, f, 3)?;
                    write!(f, "*")
                }
                Regex::Plus(a) => {
                    go(a, f, 3)?;
                    write!(f, "+")
                }
                Regex::Opt(a) => {
                    go(a, f, 3)?;
                    write!(f, "?")
                }
            }
        }
        go(self, f, 0)
    }
}

/// Errors raised by the regex parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RegexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for RegexParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, RegexParseError> {
        Err(RegexParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.input.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn alt(&mut self) -> Result<Regex, RegexParseError> {
        let mut r = self.cat()?;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'|') {
                self.pos += 1;
                let rhs = self.cat()?;
                r = Regex::Alt(Box::new(r), Box::new(rhs));
            } else {
                return Ok(r);
            }
        }
    }

    fn cat(&mut self) -> Result<Regex, RegexParseError> {
        let mut r = self.rep()?;
        loop {
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
                let rhs = self.rep()?;
                r = Regex::Concat(Box::new(r), Box::new(rhs));
            } else {
                return Ok(r);
            }
        }
    }

    fn rep(&mut self) -> Result<Regex, RegexParseError> {
        let mut r = self.atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    r = r.star();
                }
                Some(b'+') => {
                    self.pos += 1;
                    r = r.plus();
                }
                Some(b'?') => {
                    self.pos += 1;
                    r = r.opt();
                }
                _ => return Ok(r),
            }
        }
    }

    fn atom(&mut self) -> Result<Regex, RegexParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let r = self.alt()?;
                self.skip_ws();
                if self.peek() == Some(b')') {
                    self.pos += 1;
                    Ok(r)
                } else {
                    self.err("expected ')'")
                }
            }
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let word = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
                match word {
                    "eps" | "epsilon" => Ok(Regex::Epsilon),
                    "empty" => Ok(Regex::Empty),
                    _ => Ok(Regex::symbol(word)),
                }
            }
            _ => self.err("expected a symbol, '(' or 'eps'"),
        }
    }
}

/// Parses the DTD-flavoured regex syntax described at the module level.
pub fn parse(input: &str) -> Result<Regex, RegexParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    // An entirely empty production body denotes ε, matching `ℓ → ε` DTD rules.
    if p.pos == p.input.len() {
        return Ok(Regex::Epsilon);
    }
    let r = p.alt()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.err("trailing input");
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Regex {
        parse(s).unwrap()
    }

    #[test]
    fn parses_paper_productions() {
        assert_eq!(p("prof*"), Regex::symbol("prof").star());
        assert_eq!(
            p("teach, supervise"),
            Regex::concat([Regex::symbol("teach"), Regex::symbol("supervise")])
        );
        assert_eq!(
            p("course, course"),
            Regex::concat([Regex::symbol("course"), Regex::symbol("course")])
        );
        assert_eq!(
            p("b1|b2"),
            Regex::alt([Regex::symbol("b1"), Regex::symbol("b2")])
        );
        assert_eq!(
            p("c1?, c2?, c3?"),
            Regex::concat([
                Regex::symbol("c1").opt(),
                Regex::symbol("c2").opt(),
                Regex::symbol("c3").opt()
            ])
        );
        assert_eq!(p(""), Regex::Epsilon);
        assert_eq!(p("eps"), Regex::Epsilon);
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "prof*",
            "teach, supervise",
            "(a|b)*, c+",
            "a, (b, c)?",
            "a|b|c",
            "eps",
            "empty",
            "course, student*",
        ] {
            let r = p(s);
            assert_eq!(p(&r.to_string()), r, "round-tripping {s}");
        }
    }

    #[test]
    fn shortest_words() {
        assert_eq!(p("a*").shortest_word(), Some(vec![]));
        assert_eq!(
            p("a, b|c").shortest_word().map(|w| w.len()),
            Some(1) // alternation binds loosest: (a,b)|c — shortest is "c"
        );
        assert_eq!(p("a+, b").shortest_word().map(|w| w.len()), Some(2));
        assert_eq!(Regex::Empty.shortest_word(), None);
    }

    #[test]
    fn precedence() {
        // comma binds tighter than |
        assert_eq!(
            p("a, b|c"),
            Regex::alt([
                Regex::concat([Regex::symbol("a"), Regex::symbol("b")]),
                Regex::symbol("c")
            ])
        );
        // postfix binds tighter than comma
        assert_eq!(
            p("a, b*"),
            Regex::concat([Regex::symbol("a"), Regex::symbol("b").star()])
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse("(a").is_err());
        assert!(parse("a,,b").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("*").is_err());
    }

    #[test]
    fn symbol_collection() {
        let syms = p("(a|b)*, c, a").symbols();
        let names: Vec<&str> = syms.iter().map(|n| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
