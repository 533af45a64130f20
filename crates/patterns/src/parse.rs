//! Textual pattern syntax.
//!
//! Mirrors how the paper writes patterns:
//!
//! ```text
//! r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]],
//!           supervise[student(s)]]]
//! ```
//!
//! Grammar:
//!
//! ```text
//! pattern := label vars? list?
//! label   := name | '_'
//! vars    := '(' name (',' name)* ')'
//! list    := '[' item (',' item)* ']'
//! item    := '//' pattern | seq
//! seq     := pattern (('->*' | '->') pattern)*
//! ```
//!
//! Abbreviations from the paper are accepted too: `a/b` for `a[b]` and
//! `a//b` for `a[//b]` (at any depth, e.g. `r/a(x)/b(y)`).

use crate::ast::{LabelTest, ListItem, Pattern, SeqOp, Var};
use std::fmt;
use xmlmap_trees::Name;

/// Errors raised by the pattern parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for PatternParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, PatternParseError> {
        Err(PatternParseError {
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

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn name(&mut self) -> Result<Name, PatternParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(Name::new(
            std::str::from_utf8(&self.input[start..self.pos]).unwrap(),
        ))
    }

    fn pattern(&mut self) -> Result<Pattern, PatternParseError> {
        self.skip_ws();
        // Label test: `_` alone is the wildcard; `_` may also start a name,
        // so peek the following byte.
        let label = if self.peek() == Some(b'_')
            && !self
                .input
                .get(self.pos + 1)
                .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.'))
        {
            self.pos += 1;
            LabelTest::Wildcard
        } else {
            LabelTest::Label(self.name()?)
        };

        // Optional variable tuple.
        let mut vars: Vec<Var> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'(') {
            self.pos += 1;
            self.skip_ws();
            if self.peek() == Some(b')') {
                self.pos += 1;
            } else {
                loop {
                    self.skip_ws();
                    vars.push(self.name()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return self.err("expected ',' or ')' in variable tuple"),
                    }
                }
            }
        }

        let mut pat = Pattern {
            label,
            vars,
            list: Vec::new(),
        };

        // Optional list, or the `/`, `//` path abbreviations.
        self.skip_ws();
        if self.starts_with("//") {
            self.pos += 2;
            let sub = self.pattern()?;
            pat.list.push(ListItem::Descendant(sub));
        } else if self.peek() == Some(b'/') {
            self.pos += 1;
            let sub = self.pattern()?;
            pat.list.push(ListItem::Seq {
                members: vec![sub],
                ops: Vec::new(),
            });
        } else if self.peek() == Some(b'[') {
            self.pos += 1;
            loop {
                let item = self.item()?;
                pat.list.push(item);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or ']' in list"),
                }
            }
        }
        Ok(pat)
    }

    fn item(&mut self) -> Result<ListItem, PatternParseError> {
        self.skip_ws();
        if self.starts_with("//") {
            self.pos += 2;
            return Ok(ListItem::Descendant(self.pattern()?));
        }
        let first = self.pattern()?;
        let mut members = vec![first];
        let mut ops = Vec::new();
        loop {
            self.skip_ws();
            if self.starts_with("->*") {
                self.pos += 3;
                ops.push(SeqOp::Following);
            } else if self.starts_with("->") {
                self.pos += 2;
                ops.push(SeqOp::Next);
            } else {
                break;
            }
            members.push(self.pattern()?);
        }
        Ok(ListItem::Seq { members, ops })
    }
}

/// Parses the textual pattern syntax described at the module level.
pub fn parse(input: &str) -> Result<Pattern, PatternParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    let pat = p.pattern()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.err("trailing input after pattern");
    }
    Ok(pat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Pattern {
        parse(s).unwrap()
    }

    #[test]
    fn parses_paper_pi3() {
        let pat =
            p("r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]");
        let vars: Vec<String> = pat.variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(vars, ["x", "y", "cn1", "cn2", "s"]);
        assert!(pat.features().next_sibling);
        assert_eq!(pat.size(), 8);
    }

    #[test]
    fn parses_paper_pi4() {
        // Target side (4): following-sibling between the two courses.
        let pat = p(
            "r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], \
             student(s)[supervisor(x)]]",
        );
        assert!(pat.features().following_sibling);
        assert!(pat.features().repeated_variable); // x and y reused
    }

    #[test]
    fn display_parse_round_trip() {
        for s in [
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]",
            "r[a(x) ->* b(y) -> c(z)]",
            "r[//a(x), b]",
            "_[_(x)]",
            "r",
            "a(x, y, z)",
            "r[//_[a -> b]]",
        ] {
            let pat = p(s);
            assert_eq!(p(&pat.to_string()), pat, "round-tripping {s}");
        }
    }

    #[test]
    fn path_abbreviations() {
        assert_eq!(p("r/a(x)"), p("r[a(x)]"));
        assert_eq!(p("r//a(x)"), p("r[//a(x)]"));
        assert_eq!(p("r/a(x)/b(y)"), p("r[a(x)[b(y)]]"));
        assert_eq!(p("r/_//b"), p("r[_[//b]]"));
    }

    #[test]
    fn wildcard_vs_underscore_names() {
        assert_eq!(p("_").label, LabelTest::Wildcard);
        assert_eq!(p("_x").label, LabelTest::Label(Name::new("_x")));
    }

    #[test]
    fn empty_var_tuple() {
        let pat = p("a()");
        assert!(pat.vars.is_empty());
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("r[").is_err());
        assert!(parse("r[a,]").is_err());
        assert!(parse("r](").is_err());
        assert!(parse("r[a] trailing").is_err());
        assert!(parse("r(x").is_err());
        assert!(parse("r[a ->]").is_err());
    }

    #[test]
    fn descendant_inside_sequences_is_rejected() {
        // `a -> //b` is not grammatical: sequences contain patterns only.
        assert!(parse("r[a -> //b]").is_err());
    }
}
