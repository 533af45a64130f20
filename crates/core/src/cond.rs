//! Equality/inequality conditions `α₌,≠` over pattern variables.
//!
//! The paper keeps data-value comparisons *outside* patterns: an std is
//! `π(x̄,ȳ), α₌,≠(x̄,ȳ) → π′(x̄,z̄), α′₌,≠(x̄,z̄)` where each α is a
//! conjunction of equalities and inequalities among variables.

use std::fmt;
use xmlmap_patterns::{Valuation, Var};

/// A single comparison between two variables.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Comparison {
    /// Left variable.
    pub left: Var,
    /// The comparison operator.
    pub op: CompOp,
    /// Right variable.
    pub right: Var,
}

/// Equality or inequality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `≠`
    Neq,
}

impl Comparison {
    /// `left = right`.
    pub fn eq(left: impl Into<Var>, right: impl Into<Var>) -> Comparison {
        Comparison {
            left: left.into(),
            op: CompOp::Eq,
            right: right.into(),
        }
    }

    /// `left ≠ right`.
    pub fn neq(left: impl Into<Var>, right: impl Into<Var>) -> Comparison {
        Comparison {
            left: left.into(),
            op: CompOp::Neq,
            right: right.into(),
        }
    }

    /// Evaluates the comparison under a valuation. Unbound variables make
    /// the comparison fail (conditions range over the pattern's variables,
    /// which are always bound by a match).
    pub fn holds(&self, v: &Valuation) -> bool {
        match (v.get(&self.left), v.get(&self.right)) {
            (Some(a), Some(b)) => match self.op {
                CompOp::Eq => a == b,
                CompOp::Neq => a != b,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            CompOp::Eq => "=",
            CompOp::Neq => "!=",
        };
        write!(f, "{} {} {}", self.left, op, self.right)
    }
}

/// Evaluates a conjunction of comparisons.
pub fn all_hold(conds: &[Comparison], v: &Valuation) -> bool {
    conds.iter().all(|c| c.holds(v))
}

/// Parses a condition list: `x = y, a != b` (empty string ⇒ no conditions).
pub(crate) fn parse_conditions(input: &str) -> Result<Vec<Comparison>, String> {
    let input = input.trim();
    if input.is_empty() {
        return Ok(Vec::new());
    }
    input
        .split(',')
        .map(|part| {
            let part = part.trim();
            let (op, pieces) = if part.contains("!=") {
                (CompOp::Neq, part.splitn(2, "!=").collect::<Vec<_>>())
            } else if part.contains('=') {
                (CompOp::Eq, part.splitn(2, '=').collect::<Vec<_>>())
            } else {
                return Err(format!("bad comparison {part:?}: expected `=` or `!=`"));
            };
            let left = pieces[0].trim();
            let right = pieces[1].trim();
            if left.is_empty() || right.is_empty() {
                return Err(format!("bad comparison {part:?}"));
            }
            Ok(Comparison {
                left: Var::new(left),
                op,
                right: Var::new(right),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_trees::Value;

    fn val(pairs: &[(&str, &str)]) -> Valuation {
        pairs
            .iter()
            .map(|(k, v)| (Var::new(k), Value::str(v)))
            .collect()
    }

    #[test]
    fn evaluation() {
        let v = val(&[("x", "1"), ("y", "1"), ("z", "2")]);
        assert!(Comparison::eq("x", "y").holds(&v));
        assert!(!Comparison::eq("x", "z").holds(&v));
        assert!(Comparison::neq("x", "z").holds(&v));
        assert!(!Comparison::neq("x", "y").holds(&v));
        // Unbound variables fail both ways.
        assert!(!Comparison::eq("x", "w").holds(&v));
        assert!(!Comparison::neq("x", "w").holds(&v));
    }

    #[test]
    fn conjunction() {
        let v = val(&[("x", "1"), ("y", "1"), ("z", "2")]);
        assert!(all_hold(
            &[Comparison::eq("x", "y"), Comparison::neq("y", "z")],
            &v
        ));
        assert!(!all_hold(
            &[Comparison::eq("x", "y"), Comparison::eq("y", "z")],
            &v
        ));
        assert!(all_hold(&[], &v));
    }

    #[test]
    fn parsing() {
        let cs = parse_conditions("x = y, a != b").unwrap();
        assert_eq!(
            cs,
            vec![Comparison::eq("x", "y"), Comparison::neq("a", "b")]
        );
        assert_eq!(parse_conditions("").unwrap(), vec![]);
        assert_eq!(parse_conditions("  ").unwrap(), vec![]);
        assert!(parse_conditions("x < y").is_err());
        assert!(parse_conditions("= y").is_err());
        assert_eq!(cs[0].to_string(), "x = y");
        assert_eq!(cs[1].to_string(), "a != b");
    }

    #[test]
    fn nulls_compare_by_label() {
        let mut v = Valuation::new();
        v.insert(Var::new("x"), Value::null(0));
        v.insert(Var::new("y"), Value::null(0));
        v.insert(Var::new("z"), Value::null(1));
        assert!(Comparison::eq("x", "y").holds(&v));
        assert!(Comparison::neq("x", "z").holds(&v));
    }
}
