//! Unranked (hedge) tree automata.
//!
//! A nondeterministic bottom-up automaton over unranked trees: a finite set
//! of states, and rules `(ℓ, q, L)` where `L` is a regular *horizontal
//! language* over states. A run assigns state `q` to an ℓ-labelled node iff
//! some rule `(ℓ, q, L)` accepts the left-to-right word of its children's
//! states. The paper's EXPTIME consistency procedures (Thm 5.2, Thm 7.1)
//! are "non-emptiness of a product of tree automata"; this module provides
//! exactly those primitives: membership, product, emptiness — the latter
//! with witness-tree extraction, which is also how consistency checkers
//! produce concrete counterexample documents.

use crate::compiled::{self, CompiledAutomaton};
use xmlmap_dtd::Dtd;
use xmlmap_regex::Nfa;
use xmlmap_trees::{Name, Tree};

/// A transition rule: an ℓ-labelled node may take state `state` if the word
/// of its children's states belongs to `horizontal`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Node label this rule applies to.
    pub label: Name,
    /// State assigned to the node.
    pub state: usize,
    /// Horizontal language over child states.
    pub horizontal: Nfa<usize>,
}

/// A nondeterministic bottom-up hedge automaton.
#[derive(Clone, Debug)]
pub struct HedgeAutomaton {
    /// Number of states (`0..num_states`).
    pub num_states: usize,
    /// Transition rules.
    pub rules: Vec<Rule>,
    /// `accepting[q]` iff a tree whose root evaluates to `q` is accepted.
    pub accepting: Vec<bool>,
}

impl HedgeAutomaton {
    /// Compiles a DTD into an equivalent automaton: one state per element
    /// type, the root's state accepting. Attribute lists are not modelled
    /// (automata see only the label structure).
    ///
    /// State `q` is the element type with DTD label id `q`, so each rule's
    /// horizontal language is the DTD's own compiled content model
    /// ([`xmlmap_dtd::DenseNfa::to_nfa`]); labels used without a
    /// declaration have the ε production.
    pub fn from_dtd(dtd: &Dtd) -> HedgeAutomaton {
        let rules = dtd
            .labels()
            .iter()
            .zip(dtd.content_models())
            .enumerate()
            .map(|(q, (l, model))| Rule {
                label: l.clone(),
                state: q,
                horizontal: model.to_nfa(),
            })
            .collect();
        let mut accepting = vec![false; dtd.labels().len()];
        // The root is always in the alphabet.
        accepting[dtd.label_id(dtd.root()).unwrap() as usize] = true;
        HedgeAutomaton {
            num_states: dtd.labels().len(),
            rules,
            accepting,
        }
    }

    /// Does the automaton accept `tree`?
    ///
    /// Routed through the compiled engine (`crate::compiled`): rules are
    /// interned and their horizontals determinized, then each node runs a
    /// bitset DFA-subset simulation over its children's state sets.
    pub fn accepts(&self, tree: &Tree) -> bool {
        CompiledAutomaton::from_hedge(self).accepts(tree)
    }

    /// Product automaton: accepts the intersection of the two languages.
    ///
    /// Built by the compiled engine: a fixpoint discovers the *inhabited*
    /// state pairs and only those become states of the result, so rules
    /// for unreachable pairs are never materialized (the restriction is
    /// language-preserving — every state in any run is realized by its
    /// subtree). The reference construction over the full pair space
    /// survives as [`crate::reference::product`].
    pub fn product(&self, other: &HedgeAutomaton) -> HedgeAutomaton {
        compiled::product(self, other)
    }

    /// Emptiness check with witness extraction: returns a smallest-effort
    /// accepted tree, or `None` when the language is empty.
    ///
    /// Routed through the compiled engine: a dependency-driven worklist
    /// over the determinized rule tables (a rule is re-examined only when
    /// a vertical state its DFA reads becomes inhabited).
    pub fn witness(&self) -> Option<Tree> {
        CompiledAutomaton::from_hedge(self).witness()
    }

    /// Is the language empty?
    pub fn is_empty(&self) -> bool {
        self.witness().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_trees::tree;

    fn d1() -> Dtd {
        xmlmap_dtd::parse(
            "root r
             r -> prof*
             prof -> teach, supervise
             teach -> year
             year -> course, course
             supervise -> student*",
        )
        .unwrap()
    }

    #[test]
    fn dtd_automaton_membership() {
        let a = HedgeAutomaton::from_dtd(&d1());
        let good = tree! {
            "r" [ "prof" [
                "teach" [ "year" [ "course", "course" ] ],
                "supervise" [ "student", "student" ],
            ] ]
        };
        assert!(a.accepts(&good));
        assert!(a.accepts(&tree!("r")));
        assert!(!a.accepts(&tree!("prof")));
        let bad = tree!("r" [ "prof" [ "teach", "supervise" ] ]);
        assert!(!a.accepts(&bad)); // teach must contain a year
    }

    #[test]
    fn witness_conforms_to_dtd() {
        let d = d1();
        let a = HedgeAutomaton::from_dtd(&d);
        let w = a.witness().expect("DTD language non-empty");
        // Attributes are not modelled; compare label structure only.
        let stripped = xmlmap_dtd::parse(
            "root r
             r -> prof*
             prof -> teach, supervise
             teach -> year
             year -> course, course
             supervise -> student*",
        )
        .unwrap();
        assert!(stripped.conforms(&w));
        // Smallest witness: r alone (prof* allows zero professors).
        assert_eq!(w.size(), 1);
    }

    #[test]
    fn mandatory_children_in_witness() {
        let d = xmlmap_dtd::parse("root r\nr -> a+\na -> b, c").unwrap();
        let a = HedgeAutomaton::from_dtd(&d);
        let w = a.witness().unwrap();
        assert!(d.conforms(&w));
        assert_eq!(w.size(), 4); // r, a, b, c
    }

    #[test]
    fn empty_language() {
        // r needs an `a` child, and `a` needs an `r`... which is forbidden.
        // Simpler: mutual recursion with no base case.
        let d = xmlmap_dtd::parse("root r\nr -> a\na -> b\nb -> a").unwrap();
        let auto = HedgeAutomaton::from_dtd(&d);
        assert!(auto.is_empty());
    }

    #[test]
    fn product_is_intersection() {
        let da = xmlmap_dtd::parse("root r\nr -> a*, b?").unwrap();
        let db = xmlmap_dtd::parse("root r\nr -> a?, b").unwrap();
        let pa = HedgeAutomaton::from_dtd(&da);
        let pb = HedgeAutomaton::from_dtd(&db);
        let prod = pa.product(&pb);

        let both = tree!("r" [ "a", "b" ]);
        let only_a = tree!("r" [ "a", "a" ]);
        let only_b = tree!("r"["b"]);
        assert!(prod.accepts(&both));
        assert!(prod.accepts(&only_b));
        assert!(!prod.accepts(&only_a)); // db forbids two a's
        let w = prod.witness().unwrap();
        assert!(pa.accepts(&w) && pb.accepts(&w));
    }

    #[test]
    fn product_emptiness() {
        let da = xmlmap_dtd::parse("root r\nr -> a").unwrap();
        let db = xmlmap_dtd::parse("root r\nr -> b").unwrap();
        let prod = HedgeAutomaton::from_dtd(&da).product(&HedgeAutomaton::from_dtd(&db));
        assert!(prod.is_empty());
    }

    #[test]
    fn recursive_dtd_witness() {
        let d = xmlmap_dtd::parse("root r\nr -> a\na -> a?").unwrap();
        let auto = HedgeAutomaton::from_dtd(&d);
        let w = auto.witness().unwrap();
        assert!(d.conforms(&w));
        assert_eq!(w.size(), 2); // r[a]
    }
}
