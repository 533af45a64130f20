//! Tree patterns — grammar (2) of the paper:
//!
//! ```text
//! π := ℓ(x̄)[λ]                        patterns
//! λ := ε | μ | //π | λ, λ             lists
//! μ := π | π → μ | π →* μ             sequences
//! ```
//!
//! where ℓ is a label or the wildcard `_` and x̄ is a tuple of variables for
//! the node's attributes. Fully-specified patterns (grammar (5), used by
//! the tractable fragments) additionally ban wildcard, descendant `//` and
//! the horizontal operators.

use crate::compiled::CompiledPattern;
use std::collections::BTreeSet;
use std::fmt;
use xmlmap_trees::Name;

/// A variable standing for an attribute value.
pub type Var = Name;

/// The label test at a pattern node: a concrete label or the wildcard `_`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LabelTest {
    /// Must be labelled with this element type.
    Label(Name),
    /// Any element type (`_`).
    Wildcard,
}

impl LabelTest {
    /// Does the test accept `label`?
    pub fn accepts(&self, label: &Name) -> bool {
        match self {
            LabelTest::Label(l) => l == label,
            LabelTest::Wildcard => true,
        }
    }
}

/// The horizontal operator between consecutive members of a sequence `μ`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SeqOp {
    /// `→` — the very next sibling.
    Next,
    /// `→*` — some following sibling (strictly to the right).
    Following,
}

/// An item of a list `λ`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ListItem {
    /// A sequence `μ = π₁ op₁ π₂ op₂ …` anchored at some child.
    /// `ops.len() == members.len() - 1`.
    Seq {
        /// The member patterns, left to right.
        members: Vec<Pattern>,
        /// The operator between member `i` and member `i+1`.
        ops: Vec<SeqOp>,
    },
    /// `//π` — π matches at some proper descendant.
    Descendant(Pattern),
}

/// A pattern node `π = ℓ(x̄)[λ]`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pattern {
    /// The label test ℓ (or `_`).
    pub label: LabelTest,
    /// The variable tuple x̄; its length must equal the matched node's
    /// attribute count (the paper's semantics binds x̄ to *the* tuple of
    /// attributes of the node).
    pub vars: Vec<Var>,
    /// The list λ of child/descendant requirements.
    pub list: Vec<ListItem>,
}

impl Pattern {
    /// A leaf pattern `ℓ(x̄)` (empty list).
    pub fn leaf<V, I>(label: impl Into<Name>, vars: I) -> Pattern
    where
        V: Into<Var>,
        I: IntoIterator<Item = V>,
    {
        Pattern {
            label: LabelTest::Label(label.into()),
            vars: vars.into_iter().map(Into::into).collect(),
            list: Vec::new(),
        }
    }

    /// A leaf wildcard pattern `_(x̄)`.
    pub fn wildcard<V, I>(vars: I) -> Pattern
    where
        V: Into<Var>,
        I: IntoIterator<Item = V>,
    {
        Pattern {
            label: LabelTest::Wildcard,
            vars: vars.into_iter().map(Into::into).collect(),
            list: Vec::new(),
        }
    }

    /// Appends a single-pattern child item (builder style).
    pub fn child(mut self, child: Pattern) -> Pattern {
        self.list.push(ListItem::Seq {
            members: vec![child],
            ops: Vec::new(),
        });
        self
    }

    /// Appends a `//π` item (builder style).
    pub fn descendant(mut self, desc: Pattern) -> Pattern {
        self.list.push(ListItem::Descendant(desc));
        self
    }

    /// Appends a sequence item (builder style).
    pub fn seq(mut self, members: Vec<Pattern>, ops: Vec<SeqOp>) -> Pattern {
        assert_eq!(members.len(), ops.len() + 1, "sequence arity mismatch");
        self.list.push(ListItem::Seq { members, ops });
        self
    }

    /// All variables, in left-to-right order of first occurrence.
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.collect_vars(&mut seen, &mut out);
        out
    }

    fn collect_vars(&self, seen: &mut BTreeSet<Var>, out: &mut Vec<Var>) {
        for v in &self.vars {
            if seen.insert(v.clone()) {
                out.push(v.clone());
            }
        }
        for item in &self.list {
            match item {
                ListItem::Seq { members, .. } => {
                    for m in members {
                        m.collect_vars(seen, out);
                    }
                }
                ListItem::Descendant(p) => p.collect_vars(seen, out),
            }
        }
    }

    /// Does any variable occur more than once? (Implicit equality; stds of
    /// Definition 3.1 require source variables to occur exactly once unless
    /// the signature includes `=`.)
    pub fn has_repeated_variable(&self) -> bool {
        let mut seen = BTreeSet::new();
        !self.each_var_occurrence(&mut |v| seen.insert(v.clone()))
    }

    /// Calls `f` on every variable occurrence; stops (returning false) when
    /// `f` returns false.
    fn each_var_occurrence(&self, f: &mut impl FnMut(&Var) -> bool) -> bool {
        for v in &self.vars {
            if !f(v) {
                return false;
            }
        }
        for item in &self.list {
            match item {
                ListItem::Seq { members, .. } => {
                    for m in members {
                        if !m.each_var_occurrence(f) {
                            return false;
                        }
                    }
                }
                ListItem::Descendant(p) => {
                    if !p.each_var_occurrence(f) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Does the pattern use the wildcard label test anywhere?
    pub fn uses_wildcard(&self) -> bool {
        matches!(self.label, LabelTest::Wildcard)
            || self.list.iter().any(|item| match item {
                ListItem::Seq { members, .. } => members.iter().any(Pattern::uses_wildcard),
                ListItem::Descendant(p) => p.uses_wildcard(),
            })
    }

    /// Does the pattern use `//` anywhere?
    pub fn uses_descendant(&self) -> bool {
        self.list.iter().any(|item| match item {
            ListItem::Seq { members, .. } => members.iter().any(Pattern::uses_descendant),
            ListItem::Descendant(_) => true,
        })
    }

    /// Does the pattern use `→` anywhere?
    pub fn uses_next_sibling(&self) -> bool {
        self.list.iter().any(|item| match item {
            ListItem::Seq { members, ops } => {
                ops.contains(&SeqOp::Next) || members.iter().any(Pattern::uses_next_sibling)
            }
            ListItem::Descendant(p) => p.uses_next_sibling(),
        })
    }

    /// Does the pattern use `→*` anywhere?
    pub fn uses_following_sibling(&self) -> bool {
        self.list.iter().any(|item| match item {
            ListItem::Seq { members, ops } => {
                ops.contains(&SeqOp::Following)
                    || members.iter().any(Pattern::uses_following_sibling)
            }
            ListItem::Descendant(p) => p.uses_following_sibling(),
        })
    }

    /// See [`CompiledPattern::label_footprint`].
    pub fn label_footprint(&self) -> Option<BTreeSet<Name>> {
        CompiledPattern::new(self).label_footprint()
    }

    /// Is this pattern *fully specified* (grammar (5)): no wildcard, no
    /// descendant, no horizontal operators?
    pub fn is_fully_specified(&self) -> bool {
        !self.uses_wildcard()
            && !self.uses_descendant()
            && !self.uses_next_sibling()
            && !self.uses_following_sibling()
    }

    /// Number of pattern nodes.
    pub fn size(&self) -> usize {
        1 + self
            .list
            .iter()
            .map(|item| match item {
                ListItem::Seq { members, .. } => members.iter().map(Pattern::size).sum(),
                ListItem::Descendant(p) => p.size(),
            })
            .sum::<usize>()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            LabelTest::Label(l) => write!(f, "{l}")?,
            LabelTest::Wildcard => write!(f, "_")?,
        }
        if !self.vars.is_empty() {
            write!(f, "(")?;
            for (i, v) in self.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        if !self.list.is_empty() {
            write!(f, "[")?;
            for (i, item) in self.list.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match item {
                    ListItem::Descendant(p) => write!(f, "//{p}")?,
                    ListItem::Seq { members, ops } => {
                        write!(f, "{}", members[0])?;
                        for (m, op) in members[1..].iter().zip(ops) {
                            match op {
                                SeqOp::Next => write!(f, " -> {m}")?,
                                SeqOp::Following => write!(f, " ->* {m}")?,
                            }
                        }
                    }
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// π₃ from the paper, eq. (3):
    /// r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]
    pub(crate) fn pi3() -> Pattern {
        Pattern::leaf("r", Vec::<Var>::new()).child(
            Pattern::leaf("prof", ["x"])
                .child(Pattern::leaf("teach", Vec::<Var>::new()).child(
                    Pattern::leaf("year", ["y"]).seq(
                        vec![
                            Pattern::leaf("course", ["cn1"]),
                            Pattern::leaf("course", ["cn2"]),
                        ],
                        vec![SeqOp::Next],
                    ),
                ))
                .child(
                    Pattern::leaf("supervise", Vec::<Var>::new())
                        .child(Pattern::leaf("student", ["s"])),
                ),
        )
    }

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(
            pi3().to_string(),
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]"
        );
    }

    #[test]
    fn variable_collection_in_order() {
        let vars: Vec<String> = pi3().variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(vars, ["x", "y", "cn1", "cn2", "s"]);
        assert!(!pi3().has_repeated_variable());

        let reuse = Pattern::leaf("r", Vec::<Var>::new())
            .child(Pattern::leaf("a", ["x"]))
            .child(Pattern::leaf("b", ["x"]));
        assert!(reuse.has_repeated_variable());
        assert_eq!(reuse.variables().len(), 1);
    }

    #[test]
    fn feature_detection() {
        let p = pi3();
        assert!(p.uses_next_sibling());
        assert!(!p.uses_following_sibling());
        assert!(!p.uses_descendant());
        assert!(!p.uses_wildcard());
        assert!(!p.is_fully_specified()); // uses →

        let fs = Pattern::leaf("r", Vec::<Var>::new()).child(Pattern::leaf("a", ["x"]));
        assert!(fs.is_fully_specified());

        let desc = Pattern::leaf("r", Vec::<Var>::new()).descendant(Pattern::wildcard(["z"]));
        assert!(desc.uses_descendant());
        assert!(desc.uses_wildcard());

        let fol = Pattern::leaf("r", Vec::<Var>::new()).seq(
            vec![Pattern::leaf("a", ["x"]), Pattern::leaf("b", ["y"])],
            vec![SeqOp::Following],
        );
        assert!(fol.uses_following_sibling());
        assert!(!fol.uses_next_sibling());
    }

    #[test]
    fn label_footprint_collects_all_labels() {
        let labels: Vec<String> = pi3()
            .label_footprint()
            .unwrap()
            .iter()
            .map(|l| l.to_string())
            .collect();
        assert_eq!(
            labels,
            [
                "course",
                "prof",
                "r",
                "student",
                "supervise",
                "teach",
                "year"
            ]
        );
        // A wildcard anywhere kills the footprint.
        let w = Pattern::leaf("r", Vec::<Var>::new()).descendant(Pattern::wildcard(["z"]));
        assert_eq!(w.label_footprint(), None);
        assert_eq!(Pattern::wildcard(Vec::<Var>::new()).label_footprint(), None);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(pi3().size(), 8);
        assert_eq!(Pattern::leaf("a", ["x"]).size(), 1);
    }

    #[test]
    #[should_panic(expected = "sequence arity mismatch")]
    fn bad_seq_arity_panics() {
        let _ = Pattern::leaf("r", Vec::<Var>::new()).seq(
            vec![Pattern::leaf("a", Vec::<Var>::new())],
            vec![SeqOp::Next],
        );
    }
}
