//! Schema mappings with Skolem functions (paper §8).
//!
//! To close mappings under composition the paper follows \[17\] (Fagin,
//! Kolaitis, Popa, Tan): target positions may hold *terms* built from
//! source variables and function symbols, existentially quantified at the
//! mapping level. The closed class (Thm 8.2) is: **strictly**
//! nested-relational DTDs (only starred element types carry attributes),
//! **fully-specified** stds, equalities only.
//!
//! This module defines the mapping class and a reference semantics.
//! Deciding `(T, T′) ∈ ⟦M⟧` requires guessing the Skolem functions (by
//! Fagin's theorem the problem is NP); [`SkolemMapping::is_solution`]
//! searches function tables over the target's active domain, which is
//! exhaustive for this class — every term occurrence must land on an
//! attribute of `T′`, and the only other constraints are equalities, which
//! never force values outside the domain.

use crate::cond::{CompOp, Comparison};
use crate::stds::Mapping;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use xmlmap_dtd::Dtd;
use xmlmap_patterns::{eval, LabelTest, ListItem, Pattern, Valuation, Var};
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// A term over source variables and Skolem function symbols.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A (source) variable.
    Var(Var),
    /// A function application `f(t₁, …, tₙ)`. Composition produces nested
    /// applications, so arguments are terms, not just variables.
    App(Name, Vec<Term>),
}

impl Term {
    /// Applies a variable renaming.
    pub fn rename(&self, f: &mut impl FnMut(&Var) -> Var) -> Term {
        match self {
            Term::Var(v) => Term::Var(f(v)),
            Term::App(g, args) => Term::App(g.clone(), args.iter().map(|t| t.rename(f)).collect()),
        }
    }

    /// Substitutes variables by terms.
    pub fn substitute(&self, s: &BTreeMap<Var, Term>) -> Term {
        match self {
            Term::Var(v) => s.get(v).cloned().unwrap_or_else(|| Term::Var(v.clone())),
            Term::App(g, args) => {
                Term::App(g.clone(), args.iter().map(|t| t.substitute(s)).collect())
            }
        }
    }

    /// The variables occurring in the term.
    pub fn variables(&self, out: &mut BTreeSet<Var>) {
        match self {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::App(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::App(g, args) => {
                write!(f, "{g}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A fully-specified target pattern whose attribute positions hold terms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TermPattern {
    /// Node label (concrete; the closed class has no wildcards).
    pub label: Name,
    /// The terms filling this node's attribute tuple.
    pub terms: Vec<Term>,
    /// Child pattern nodes.
    pub children: Vec<TermPattern>,
}

impl TermPattern {
    /// A leaf node.
    pub fn leaf(label: impl Into<Name>, terms: Vec<Term>) -> TermPattern {
        TermPattern {
            label: label.into(),
            terms,
            children: Vec::new(),
        }
    }

    /// Adds a child (builder style).
    pub fn child(mut self, c: TermPattern) -> TermPattern {
        self.children.push(c);
        self
    }

    /// Converts a fully-specified [`Pattern`] (variables only) into a
    /// `TermPattern`. Fails on wildcard, `//` or horizontal operators.
    pub(crate) fn from_pattern(p: &Pattern) -> Result<TermPattern, String> {
        let LabelTest::Label(label) = &p.label else {
            return Err("wildcard label in a term pattern".into());
        };
        let mut children = Vec::new();
        for item in &p.list {
            match item {
                ListItem::Seq { members, ops } if ops.is_empty() && members.len() == 1 => {
                    children.push(TermPattern::from_pattern(&members[0])?);
                }
                ListItem::Seq { .. } => return Err("horizontal operators in a term pattern".into()),
                ListItem::Descendant(_) => return Err("descendant in a term pattern".into()),
            }
        }
        Ok(TermPattern {
            label: label.clone(),
            terms: p.vars.iter().map(|v| Term::Var(v.clone())).collect(),
            children,
        })
    }

    /// Applies a substitution to all terms.
    pub fn substitute(&self, s: &BTreeMap<Var, Term>) -> TermPattern {
        TermPattern {
            label: self.label.clone(),
            terms: self.terms.iter().map(|t| t.substitute(s)).collect(),
            children: self.children.iter().map(|c| c.substitute(s)).collect(),
        }
    }

    /// Number of pattern nodes.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TermPattern::size).sum::<usize>()
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)?;
        if !self.terms.is_empty() {
            write!(f, "(")?;
            for (i, t) in self.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        if !self.children.is_empty() {
            write!(f, "[")?;
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// An std with Skolem terms on the target side:
/// `φ(x̄), α₌(x̄), eqs(terms) → ψ(terms), eqs′(terms)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SkolemStd {
    /// Source pattern (fully specified).
    pub source: Pattern,
    /// Source variable equalities (`=` only in the closed class).
    pub source_cond: Vec<Comparison>,
    /// Premise equalities among terms (produced by composition).
    pub source_term_eqs: Vec<(Term, Term)>,
    /// Target term pattern.
    pub target: TermPattern,
    /// Conclusion equalities among terms.
    pub target_term_eqs: Vec<(Term, Term)>,
}

impl fmt::Display for SkolemStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)?;
        for c in &self.source_cond {
            write!(f, ", {c}")?;
        }
        for (a, b) in &self.source_term_eqs {
            write!(f, ", {a} = {b}")?;
        }
        write!(f, " --> {}", self.target)?;
        for (a, b) in &self.target_term_eqs {
            write!(f, ", {a} = {b}")?;
        }
        Ok(())
    }
}

/// A schema mapping with Skolem functions (§8).
#[derive(Clone, Debug)]
pub struct SkolemMapping {
    /// Source DTD (strictly nested-relational in the closed class).
    pub source_dtd: Dtd,
    /// Target DTD (strictly nested-relational in the closed class).
    pub target_dtd: Dtd,
    /// The stds.
    pub stds: Vec<SkolemStd>,
}

impl SkolemMapping {
    /// Skolemises an ordinary mapping: each existential target variable `z`
    /// of each std becomes `f_z(x̄)` applied to *all* of the std's source
    /// variables — like the employee-id example of §8.
    ///
    /// Requires fully-specified stds with at most `=` conditions.
    pub fn from_mapping(m: &Mapping) -> Result<SkolemMapping, String> {
        let mut stds = Vec::new();
        for (i, s) in m.stds.iter().enumerate() {
            if s.source_cond.iter().any(|c| c.op == CompOp::Neq)
                || s.target_cond.iter().any(|c| c.op == CompOp::Neq)
            {
                return Err(format!("std #{i} uses ≠, outside the closed class"));
            }
            let target =
                TermPattern::from_pattern(&s.target).map_err(|e| format!("std #{i}: {e}"))?;
            if !s.source.is_fully_specified() {
                return Err(format!("std #{i}: source is not fully specified"));
            }
            let source_vars = s.source.variables();
            let subst: BTreeMap<Var, Term> = s
                .existential_vars()
                .into_iter()
                .map(|z| {
                    let f = Name::new(format!("f_{z}_{i}"));
                    (
                        z,
                        Term::App(f, source_vars.iter().cloned().map(Term::Var).collect()),
                    )
                })
                .collect();
            let target = target.substitute(&subst);
            let as_term = |v: &Var| -> Term {
                subst
                    .get(v)
                    .cloned()
                    .unwrap_or_else(|| Term::Var(v.clone()))
            };
            // Target `=` conditions become term equalities.
            let target_term_eqs = s
                .target_cond
                .iter()
                .map(|c| (as_term(&c.left), as_term(&c.right)))
                .collect();
            stds.push(SkolemStd {
                source: s.source.clone(),
                source_cond: s.source_cond.clone(),
                source_term_eqs: Vec::new(),
                target,
                target_term_eqs,
            });
        }
        Ok(SkolemMapping {
            source_dtd: m.source_dtd.clone(),
            target_dtd: m.target_dtd.clone(),
            stds,
        })
    }

    /// Is the mapping inside the closed class of Thm 8.2 (strictly
    /// nested-relational DTDs, fully-specified stds)?
    pub fn in_closed_class(&self) -> bool {
        self.source_dtd.is_strictly_nested_relational()
            && self.target_dtd.is_strictly_nested_relational()
            && self.stds.iter().all(|s| s.source.is_fully_specified())
    }

    /// Reference semantics: `(T, T′) ∈ ⟦M⟧`? Searches Skolem function
    /// tables over the active domain of `T′` (exhaustive for the closed
    /// class: all term occurrences must equal attributes of `T′`).
    ///
    /// Exponential in the number of distinct ground applications — this is
    /// the NP guess of Fagin's theorem, used as the reference oracle.
    pub fn is_solution(&self, source: &Tree, target: &Tree) -> bool {
        if !self.source_dtd.conforms(source) || !self.target_dtd.conforms(target) {
            return false;
        }
        // Collect ground applications appearing in any firing.
        let mut firings: Vec<(usize, Valuation)> = Vec::new();
        for (i, s) in self.stds.iter().enumerate() {
            for m in eval::all_matches(source, &s.source) {
                if crate::cond::all_hold(&s.source_cond, &m) {
                    firings.push((i, m));
                }
            }
        }
        let mut domain: Vec<Value> = target.data_values().cloned().collect();
        domain.sort();
        domain.dedup();
        if domain.is_empty() {
            domain.push(Value::str("•"));
        }

        // Lazy backtracking over function tables: run the check, and when
        // it hits a ground application not yet in the table, branch on its
        // value. The key space is finite (functions × domain tuples), so
        // this terminates; it is the NP guess of Fagin's theorem.
        fn search(
            this: &SkolemMapping,
            target: &Tree,
            firings: &[(usize, Valuation)],
            domain: &[Value],
            table: &mut BTreeMap<(Name, Vec<Value>), Value>,
        ) -> bool {
            match this.check_with_table(target, firings, table) {
                Check::Satisfied => true,
                Check::Violated => false,
                Check::Missing(key) => {
                    for v in domain {
                        table.insert(key.clone(), v.clone());
                        if search(this, target, firings, domain, table) {
                            return true;
                        }
                    }
                    table.remove(&key);
                    false
                }
            }
        }
        search(self, target, &firings, &domain, &mut BTreeMap::new())
    }

    fn check_with_table(
        &self,
        target: &Tree,
        firings: &[(usize, Valuation)],
        table: &BTreeMap<(Name, Vec<Value>), Value>,
    ) -> Check {
        for (i, m) in firings {
            let s = &self.stds[*i];
            // Premise term equalities must hold for the firing to oblige.
            let mut premise_holds = true;
            for (a, b) in &s.source_term_eqs {
                let x = match eval_ground(a, m, table) {
                    Ok(v) => v,
                    Err(key) => return Check::Missing(key),
                };
                let y = match eval_ground(b, m, table) {
                    Ok(v) => v,
                    Err(key) => return Check::Missing(key),
                };
                if x != y {
                    premise_holds = false;
                    break;
                }
            }
            if !premise_holds {
                continue;
            }
            // Conclusion equalities.
            for (a, b) in &s.target_term_eqs {
                let x = match eval_ground(a, m, table) {
                    Ok(v) => v,
                    Err(key) => return Check::Missing(key),
                };
                let y = match eval_ground(b, m, table) {
                    Ok(v) => v,
                    Err(key) => return Check::Missing(key),
                };
                if x != y {
                    return Check::Violated;
                }
            }
            // Embed the ground target pattern.
            match ground_pattern(&s.target, m, table) {
                Ok(ground) => {
                    if !embeds(&ground, target, Tree::ROOT) {
                        return Check::Violated;
                    }
                }
                Err(key) => return Check::Missing(key),
            }
        }
        Check::Satisfied
    }
}

/// Outcome of a single table check.
enum Check {
    Satisfied,
    Violated,
    /// A ground application is not in the table yet.
    Missing((Name, Vec<Value>)),
}

/// Evaluates a ground term; `Err` carries the first missing table key.
fn eval_ground(
    t: &Term,
    m: &Valuation,
    table: &BTreeMap<(Name, Vec<Value>), Value>,
) -> Result<Value, (Name, Vec<Value>)> {
    match t {
        Term::Var(v) => Ok(m
            .get(v)
            .cloned()
            .expect("std variables are bound by the firing")),
        Term::App(f, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_ground(a, m, table))
                .collect::<Result<_, _>>()?;
            let key = (f.clone(), vals);
            table.get(&key).cloned().ok_or(key)
        }
    }
}

/// A ground (fully evaluated) version of a term pattern.
struct GroundPattern {
    label: Name,
    values: Vec<Value>,
    children: Vec<GroundPattern>,
}

fn ground_pattern(
    p: &TermPattern,
    m: &Valuation,
    table: &BTreeMap<(Name, Vec<Value>), Value>,
) -> Result<GroundPattern, (Name, Vec<Value>)> {
    Ok(GroundPattern {
        label: p.label.clone(),
        values: p
            .terms
            .iter()
            .map(|t| eval_ground(t, m, table))
            .collect::<Result<Vec<_>, _>>()?,
        children: p
            .children
            .iter()
            .map(|c| ground_pattern(c, m, table))
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// Does the ground pattern embed at `node` (children may share targets)?
fn embeds(g: &GroundPattern, tree: &Tree, node: NodeId) -> bool {
    if tree.label(node) != &g.label {
        return false;
    }
    if !g.values.is_empty() {
        let attrs: Vec<&Value> = tree.attr_values(node).collect();
        if attrs.len() != g.values.len() || attrs.iter().zip(&g.values).any(|(a, b)| *a != b) {
            return false;
        }
    }
    g.children.iter().all(|c| {
        tree.children(node)
            .iter()
            .any(|&child| embeds(c, tree, child))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stds::Std;
    use xmlmap_trees::tree;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn skolemized(ds: &str, dt: &str, stds: &[&str]) -> SkolemMapping {
        let m = Mapping::new(
            dtd(ds),
            dtd(dt),
            stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
        );
        SkolemMapping::from_mapping(&m).unwrap()
    }

    #[test]
    fn skolemisation_replaces_existentials() {
        // §8's employee example: S(name, proj) → T(id, name, office) with
        // id = f(name) — here id is a plain existential, so it becomes
        // f_z(x, y).
        let m = skolemized(
            "root r\nr -> s*\ns @ name, proj",
            "root r\nr -> t*\nt @ id, name, office",
            &["r/s(x, y) --> r/t(z, x, w)"],
        );
        let s = &m.stds[0];
        assert!(matches!(&s.target.children[0].terms[0], Term::App(_, args) if args.len() == 2));
        assert!(matches!(&s.target.children[0].terms[1], Term::Var(v) if v.as_str() == "x"));
        assert!(m.in_closed_class());
    }

    #[test]
    fn is_solution_matches_plain_semantics_when_no_existentials() {
        let plain = Mapping::new(
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> b*\nb @ w"),
            vec![Std::parse("r/a(x) --> r/b(x)").unwrap()],
        );
        let sk = SkolemMapping::from_mapping(&plain).unwrap();
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let good = tree!("r" [ "b"("w" = "1"), "b"("w" = "2") ]);
        let bad = tree!("r"["b"("w" = "1")]);
        assert_eq!(plain.is_solution(&src, &good), sk.is_solution(&src, &good));
        assert_eq!(plain.is_solution(&src, &bad), sk.is_solution(&src, &bad));
        assert!(sk.is_solution(&src, &good));
        assert!(!sk.is_solution(&src, &bad));
    }

    #[test]
    fn skolem_functions_force_functional_choices() {
        // r/s(x, y) → r/t(f(x,y), x): same (x, y) ⇒ same id. With the
        // WRONG target (two different ids for equal source tuples after
        // dedup this cannot happen), check the functional constraint via
        // same x different y.
        let m = skolemized(
            "root r\nr -> s*\ns @ name, proj",
            "root r\nr -> t*\nt @ id, name",
            &["r/s(x, y) --> r/t(z, x)"],
        );
        let src = tree! {
            "r" [ "s"("name" = "ada", "proj" = "p1"),
                  "s"("name" = "ada", "proj" = "p2") ]
        };
        // Two distinct ids for the two (name, proj) pairs: allowed, since
        // f_z(ada,p1) and f_z(ada,p2) may differ.
        let two_ids = tree! {
            "r" [ "t"("id" = "i1", "name" = "ada"),
                  "t"("id" = "i2", "name" = "ada") ]
        };
        assert!(m.is_solution(&src, &two_ids));
        // One id reused: also fine (functions may collide).
        let one_id = tree!("r"["t"("id" = "i", "name" = "ada")]);
        assert!(m.is_solution(&src, &one_id));
        // No tuple for ada at all: violated.
        let none = tree!("r"["t"("id" = "i", "name" = "bob")]);
        assert!(!m.is_solution(&src, &none));
    }

    #[test]
    fn shared_function_across_stds() {
        // Hand-built: two stds share f, forcing the same null for the same
        // argument — r/a(x) → r/b(f(x)) and r/a(x) → r/c(f(x)).
        let source = xmlmap_patterns::parse("r/a(x)").unwrap();
        let f = |x: &str| Term::App(Name::new("f"), vec![Term::Var(Var::new(x))]);
        let m = SkolemMapping {
            source_dtd: dtd("root r\nr -> a*\na @ v"),
            target_dtd: dtd("root r\nr -> b*, c*\nb @ w\nc @ w"),
            stds: vec![
                SkolemStd {
                    source: source.clone(),
                    source_cond: vec![],
                    source_term_eqs: vec![],
                    target: TermPattern::leaf("r", vec![])
                        .child(TermPattern::leaf("b", vec![f("x")])),
                    target_term_eqs: vec![],
                },
                SkolemStd {
                    source,
                    source_cond: vec![],
                    source_term_eqs: vec![],
                    target: TermPattern::leaf("r", vec![])
                        .child(TermPattern::leaf("c", vec![f("x")])),
                    target_term_eqs: vec![],
                },
            ],
        };
        let src = tree!("r"["a"("v" = "1")]);
        // b and c must carry the SAME value (both are f(1)).
        let same = tree!("r" [ "b"("w" = "k"), "c"("w" = "k") ]);
        let diff = tree!("r" [ "b"("w" = "k"), "c"("w" = "j") ]);
        assert!(m.is_solution(&src, &same));
        assert!(!m.is_solution(&src, &diff));
    }

    #[test]
    fn term_display() {
        let t = Term::App(
            Name::new("f"),
            vec![
                Term::Var(Var::new("x")),
                Term::App(Name::new("g"), vec![Term::Var(Var::new("y"))]),
            ],
        );
        assert_eq!(t.to_string(), "f(x, g(y))");
        let tp = TermPattern::leaf("r", vec![]).child(TermPattern::leaf("b", vec![t]));
        assert_eq!(tp.to_string(), "r[b(f(x, g(y)))]");
    }

    #[test]
    fn rejects_inequalities() {
        let m = Mapping::new(
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> b*\nb @ w"),
            vec![Std::parse("r[a(x), a(y)] ; x != y --> r/b(x)").unwrap()],
        );
        assert!(SkolemMapping::from_mapping(&m).is_err());
    }
}
