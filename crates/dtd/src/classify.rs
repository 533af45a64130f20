//! DTD classification: recursion, nested-relational shape, starred element
//! types, and rigidity.
//!
//! The paper's tractability results hinge on *nested-relational* DTDs
//! (productions `ℓ → ℓ̂₁…ℓ̂ₘ` with distinct ℓᵢ and ℓ̂ᵢ ∈ {ℓᵢ, ℓᵢ?, ℓᵢ*, ℓᵢ⁺};
//! non-recursive) and, for composition closure (§8), *strictly*
//! nested-relational DTDs where only **starred** element types (those under
//! a `*` or `+`) carry attributes.
//!
//! For the PTIME absolute-consistency algorithm (Thm 6.3) we also need the
//! *rigidity* analysis described in DESIGN.md §3.4: an element type is
//! **rigid** when the DTD guarantees at most one node with that label in any
//! conforming document — i.e. it occurs in exactly one production, exactly
//! once, its parent chain is unique, and no label on the chain is starred.

use crate::dtd::Dtd;
use std::collections::{BTreeMap, BTreeSet};
use xmlmap_regex::Regex;
use xmlmap_trees::Name;

/// Multiplicity of a child slot in a nested-relational production.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Mult {
    /// Exactly one (`ℓ`).
    One,
    /// Zero or one (`ℓ?`).
    Opt,
    /// Zero or more (`ℓ*`).
    Star,
    /// One or more (`ℓ⁺`).
    Plus,
}

impl Mult {
    /// Can this slot hold two or more occurrences?
    pub fn repeatable(self) -> bool {
        matches!(self, Mult::Star | Mult::Plus)
    }

    /// Can this slot be empty?
    pub fn optional(self) -> bool {
        matches!(self, Mult::Opt | Mult::Star)
    }
}

impl Dtd {
    /// Does the production graph contain a cycle?
    pub fn is_recursive(&self) -> bool {
        // Colours: 0 unvisited, 1 on stack, 2 done.
        fn dfs(d: &Dtd, l: &Name, colour: &mut BTreeMap<Name, u8>) -> bool {
            match colour.get(l) {
                Some(1) => return true,
                Some(2) => return false,
                _ => {}
            }
            colour.insert(l.clone(), 1);
            for s in d.production(l).symbols() {
                if dfs(d, &s, colour) {
                    return true;
                }
            }
            colour.insert(l.clone(), 2);
            false
        }
        let mut colour = BTreeMap::new();
        self.alphabet().any(|l| dfs(self, l, &mut colour))
    }

    /// Element types occurring under the scope of `*` or `+` in some
    /// production ("starred" in the sense of §8).
    pub fn starred_labels(&self) -> BTreeSet<Name> {
        fn walk(r: &Regex, under_star: bool, out: &mut BTreeSet<Name>) {
            match r {
                Regex::Empty | Regex::Epsilon => {}
                Regex::Symbol(n) => {
                    if under_star {
                        out.insert(n.clone());
                    }
                }
                Regex::Concat(a, b) | Regex::Alt(a, b) => {
                    walk(a, under_star, out);
                    walk(b, under_star, out);
                }
                Regex::Star(a) | Regex::Plus(a) => walk(a, true, out),
                Regex::Opt(a) => walk(a, under_star, out),
            }
        }
        let mut out = BTreeSet::new();
        for (_, r) in self.productions() {
            walk(r, false, &mut out);
        }
        out
    }

    /// Returns the nested-relational view if this DTD is nested-relational.
    pub fn nested_relational(&self) -> Option<NestedRelationalView> {
        if self.is_recursive() {
            return None;
        }
        let mut children: BTreeMap<Name, Vec<(Name, Mult)>> = BTreeMap::new();
        for (lhs, body) in self.productions() {
            let items = nr_items(body)?;
            let mut seen = BTreeSet::new();
            for (l, _) in &items {
                if !seen.insert(l.clone()) {
                    return None; // ℓᵢ's must be distinct
                }
            }
            children.insert(lhs.clone(), items);
        }
        // Labels without productions have ε bodies: empty child lists.
        for l in self.alphabet() {
            children.entry(l.clone()).or_default();
        }

        // Occurrence map: for each label, its (parent, mult) occurrences.
        let mut occurs: BTreeMap<Name, Vec<(Name, Mult)>> = BTreeMap::new();
        for (p, items) in &children {
            for (l, m) in items {
                occurs.entry(l.clone()).or_default().push((p.clone(), *m));
            }
        }
        let tree_shaped = self
            .reachable()
            .iter()
            .filter(|l| *l != self.root())
            .all(|l| occurs.get(l).map(|v| v.len()) == Some(1));

        Some(NestedRelationalView {
            root: self.root().clone(),
            children,
            occurs,
            tree_shaped,
        })
    }

    /// Is this DTD nested-relational?
    pub fn is_nested_relational(&self) -> bool {
        self.nested_relational().is_some()
    }

    /// Is this DTD *strictly* nested-relational (nested-relational and only
    /// starred element types have attributes)?
    pub fn is_strictly_nested_relational(&self) -> bool {
        match self.nested_relational() {
            None => false,
            Some(_) => {
                let starred = self.starred_labels();
                self.alphabet()
                    .all(|l| self.arity(l) == 0 || starred.contains(l))
            }
        }
    }
}

/// Decomposes a regex as a nested-relational item list, if it has that shape.
fn nr_items(r: &Regex) -> Option<Vec<(Name, Mult)>> {
    fn item(r: &Regex) -> Option<(Name, Mult)> {
        match r {
            Regex::Symbol(n) => Some((n.clone(), Mult::One)),
            Regex::Opt(inner) => leaf(inner).map(|n| (n, Mult::Opt)),
            Regex::Star(inner) => leaf(inner).map(|n| (n, Mult::Star)),
            Regex::Plus(inner) => leaf(inner).map(|n| (n, Mult::Plus)),
            _ => None,
        }
    }
    fn leaf(r: &Regex) -> Option<Name> {
        match r {
            Regex::Symbol(n) => Some(n.clone()),
            _ => None,
        }
    }
    fn flatten(r: &Regex, out: &mut Vec<(Name, Mult)>) -> Option<()> {
        match r {
            Regex::Epsilon => Some(()),
            Regex::Concat(a, b) => {
                flatten(a, out)?;
                flatten(b, out)
            }
            other => {
                out.push(item(other)?);
                Some(())
            }
        }
    }
    let mut out = Vec::new();
    flatten(r, &mut out)?;
    Some(out)
}

/// Structured view of a nested-relational DTD.
#[derive(Clone, Debug)]
pub struct NestedRelationalView {
    root: Name,
    /// Ordered child slots per element type.
    children: BTreeMap<Name, Vec<(Name, Mult)>>,
    /// For each non-root label, its (parent, mult) occurrences.
    occurs: BTreeMap<Name, Vec<(Name, Mult)>>,
    tree_shaped: bool,
}

impl NestedRelationalView {
    /// The ordered child slots of an element type.
    pub fn slots(&self, label: &Name) -> &[(Name, Mult)] {
        self.children
            .get(label)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Does every non-root reachable label occur in exactly one production,
    /// exactly once? (Then parent chains are unique.)
    pub fn is_tree_shaped(&self) -> bool {
        self.tree_shaped
    }

    /// The unique parent of `label`, when tree-shaped.
    pub fn parent(&self, label: &Name) -> Option<&Name> {
        match self.occurs.get(label) {
            Some(v) if v.len() == 1 => Some(&v[0].0),
            _ => None,
        }
    }

    /// The multiplicity of `label` under its unique parent.
    pub fn mult(&self, label: &Name) -> Option<Mult> {
        match self.occurs.get(label) {
            Some(v) if v.len() == 1 => Some(v[0].1),
            _ => None,
        }
    }

    /// The unique root-to-`label` path (inclusive), when tree-shaped.
    pub fn path(&self, label: &Name) -> Option<Vec<Name>> {
        let mut path = vec![label.clone()];
        let mut cur = label.clone();
        while cur != self.root {
            let p = self.parent(&cur)?.clone();
            path.push(p.clone());
            // Paths in a non-recursive DTD are bounded by the alphabet size.
            if path.len() > self.children.len() + 1 {
                return None;
            }
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Is `label` **rigid**: guaranteed at most one occurrence in any
    /// conforming document? Requires a unique parent chain with no
    /// repeatable multiplicity anywhere on it.
    pub fn is_rigid(&self, label: &Name) -> bool {
        let Some(path) = self.path(label) else {
            return false;
        };
        path.iter()
            .skip(1) // the root itself is always unique
            .all(|l| self.mult(l).is_some_and(|m| !m.repeatable()))
    }

    /// Is `label` guaranteed to occur (at least once) in *every* conforming
    /// document? Requires a unique parent chain whose multiplicities are all
    /// mandatory (`One` or `Plus`).
    pub fn is_guaranteed(&self, label: &Name) -> bool {
        let Some(path) = self.path(label) else {
            return false;
        };
        path.iter()
            .skip(1)
            .all(|l| matches!(self.mult(l), Some(Mult::One | Mult::Plus)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Dtd {
        crate::parse(s).unwrap()
    }

    #[test]
    fn d1_is_not_nested_relational() {
        // `year -> course, course` repeats `course`, so D1 of the paper is
        // NOT nested-relational.
        let d1 = parse(
            "root r
             r -> prof*
             prof -> teach, supervise
             teach -> year
             year -> course, course
             supervise -> student*",
        );
        assert!(!d1.is_nested_relational());
        assert!(!d1.is_recursive());
    }

    #[test]
    fn d2_is_nested_relational() {
        // D2 from the introduction: r -> course*, student*.
        let d2 = parse(
            "root r
             r -> course*, student*
             course -> taughtby
             student -> supervisor
             course @ cno, year
             student @ sid
             taughtby @ teacher
             supervisor @ name",
        );
        let nr = d2.nested_relational().expect("D2 is nested-relational");
        assert!(nr.is_tree_shaped());
        assert_eq!(nr.mult(&Name::new("course")), Some(Mult::Star));
        assert_eq!(nr.mult(&Name::new("taughtby")), Some(Mult::One));
        assert_eq!(
            nr.parent(&Name::new("supervisor")),
            Some(&Name::new("student"))
        );
        assert_eq!(
            nr.path(&Name::new("taughtby")).unwrap(),
            vec![Name::new("r"), Name::new("course"), Name::new("taughtby")]
        );
    }

    #[test]
    fn recursion_detection() {
        let rec = parse("root r\nr -> a\na -> b?\nb -> a*");
        assert!(rec.is_recursive());
        assert!(!rec.is_nested_relational());
        let self_rec = parse("root r\nr -> r0\nr0 -> r0?");
        assert!(self_rec.is_recursive());
    }

    #[test]
    fn disjunction_is_not_nested_relational() {
        let d = parse("root r\nr -> a|b");
        assert!(!d.is_nested_relational());
    }

    #[test]
    fn starred_labels_through_nesting() {
        let d = parse("root r\nr -> (a, b?)*, c+, d?");
        let starred: Vec<String> = d
            .starred_labels()
            .iter()
            .map(|n| n.as_str().to_owned())
            .collect();
        assert_eq!(starred, ["a", "b", "c"]);
    }

    #[test]
    fn strictly_nested_relational() {
        // Attributes only on starred labels: OK.
        let good = parse("root r\nr -> a*, b\na @ x");
        assert!(good.is_strictly_nested_relational());
        // Attribute on the unstarred b: not strict.
        let bad = parse("root r\nr -> a*, b\nb @ x");
        assert!(bad.is_nested_relational());
        assert!(!bad.is_strictly_nested_relational());
    }

    #[test]
    fn rigidity() {
        let d = parse(
            "root r
             r -> a, b*, c?
             a -> d
             b -> e
             c -> f",
        );
        let nr = d.nested_relational().unwrap();
        for (label, rigid) in [
            ("a", true),  // mandatory chain
            ("d", true),  // child of rigid a
            ("b", false), // starred
            ("e", false), // below a starred label
            ("c", true),  // optional but not repeatable
            ("f", true),
            ("r", true),
        ] {
            assert_eq!(nr.is_rigid(&Name::new(label)), rigid, "{label}");
        }
        assert!(nr.is_guaranteed(&Name::new("d")));
        assert!(!nr.is_guaranteed(&Name::new("c"))); // optional
        assert!(!nr.is_guaranteed(&Name::new("f")));
        assert!(!nr.is_guaranteed(&Name::new("b")));
    }

    #[test]
    fn shared_label_is_not_tree_shaped() {
        // c occurs under both a and b.
        let d = parse("root r\nr -> a, b\na -> c?\nb -> c?");
        assert!(
            !d.is_nested_relational() || {
                let nr = d.nested_relational().unwrap();
                !nr.is_tree_shaped()
                    && nr.parent(&Name::new("c")).is_none()
                    && !nr.is_rigid(&Name::new("c"))
            }
        );
    }
}
