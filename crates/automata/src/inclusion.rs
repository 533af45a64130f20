//! Language inclusion for hedge automata, with counterexample extraction —
//! the engine behind DTD *subschema* checking
//! ([`AutomataCache::subschema`](crate::AutomataCache::subschema)).
//!
//! Inclusion `L(A) ⊆ L(B)` is decided by the classic product-with-
//! determinised-complement construction, specialised to unranked trees:
//! the algorithm computes the realizable pairs `(q_A, S_B)` — some tree has
//! an `A`-run reaching `q_A` while the (deterministic) subset of `B`-states
//! reachable on it is exactly `S_B` — as a least fixpoint. A realizable
//! pair with `q_A` accepting and `S_B` disjoint from `B`'s accepting states
//! is a counterexample, reconstructed as an actual tree.
//!
//! The state space is exponential in `B` (inclusion for tree automata is
//! EXPTIME-complete), so the exploration carries an explicit budget.
//!
//! The fixpoint itself runs in the compiled engine (`crate::compiled`):
//! horizontals pre-determinized into flat DFA tables, `S_B` as hash-consed
//! bitsets, realizable pairs pruned to per-`q_A` antichains. The original
//! set-based exploration is preserved as
//! [`crate::reference::inclusion_counterexample`] for differential testing.

use crate::compiled::{self, CompiledAutomaton};
use crate::hedge::HedgeAutomaton;
use xmlmap_trees::{Name, Tree};

/// The inclusion exploration exceeded its budget; the answer is unknown.
///
/// Mirrors `xmlmap_patterns`' `BudgetExceeded`: the exhausted budget, the
/// states actually explored at abort, and the operation that gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionBudgetExceeded {
    /// The exhausted budget (machine states explored).
    pub budget: usize,
    /// States actually explored when the engine gave up (≥ budget).
    pub states_explored: usize,
    /// Which operation blew the budget (`"inclusion check"` or
    /// `"subschema check"`).
    pub operation: String,
}

impl std::fmt::Display for InclusionBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} exceeded its budget of {} states ({} states explored at abort)",
            self.operation, self.budget, self.states_explored
        )
    }
}

impl std::error::Error for InclusionBudgetExceeded {}

/// Decides `L(a) ⊆ L(b)` over trees labelled from `alphabet`.
///
/// Returns `Ok(None)` when included, `Ok(Some(t))` with `t ∈ L(a) ∖ L(b)`
/// otherwise. Both automata's rules on labels outside `alphabet` are
/// ignored (such trees are outside the compared universe).
///
/// Compiles both automata and runs the engine's antichain fixpoint; for
/// repeated checks against the same pair of schemas, prefer
/// [`crate::AutomataCache`], which compiles once and memoizes verdicts.
pub fn inclusion_counterexample(
    a: &HedgeAutomaton,
    b: &HedgeAutomaton,
    alphabet: &[Name],
    budget: usize,
) -> Result<Option<Tree>, InclusionBudgetExceeded> {
    let ca = CompiledAutomaton::new(a, alphabet);
    let cb = CompiledAutomaton::new(b, alphabet);
    compiled::inclusion(&ca, &cb, budget)
}

/// Why one DTD is not a subschema of another (see
/// [`AutomataCache::subschema`](crate::AutomataCache::subschema)).
#[derive(Debug, Clone)]
pub enum SubschemaViolation {
    /// A document conforming to the first DTD but not the second (labels
    /// only; its attributes are filled per the first DTD).
    Document(Tree),
    /// A label reachable in the first DTD whose attribute list differs.
    AttributeMismatch {
        /// The offending element type.
        label: Name,
        /// Attribute list in the first DTD.
        left: Vec<Name>,
        /// Attribute list in the second DTD.
        right: Vec<Name>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutomataCache;
    use xmlmap_dtd::Dtd;

    const BUDGET: usize = 1_000_000;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn subschema(
        d1: &Dtd,
        d2: &Dtd,
        budget: usize,
    ) -> Result<Option<SubschemaViolation>, InclusionBudgetExceeded> {
        AutomataCache::new(d1, d2).subschema(budget)
    }

    #[test]
    fn widening_a_production_is_a_superschema() {
        let narrow = dtd("root r\nr -> a, b");
        let wide = dtd("root r\nr -> a?, b+, c*");
        assert!(subschema(&narrow, &wide, BUDGET).unwrap().is_none());
        // The converse fails; the counterexample conforms to wide only.
        let v = subschema(&wide, &narrow, BUDGET)
            .unwrap()
            .expect("violation");
        let SubschemaViolation::Document(t) = v else {
            panic!("expected a document violation");
        };
        assert!(wide.conforms(&t));
        assert!(!narrow.conforms(&t));
    }

    #[test]
    fn identical_schemas_include_both_ways() {
        let d = dtd("root r\nr -> (a|b)*, c?\na -> c*");
        assert!(subschema(&d, &d, BUDGET).unwrap().is_none());
    }

    #[test]
    fn attribute_mismatch_detected() {
        let d1 = dtd("root r\nr -> a\na @ x");
        let d2 = dtd("root r\nr -> a\na @ x, y");
        let v = subschema(&d1, &d2, BUDGET).unwrap().expect("violation");
        assert!(matches!(v, SubschemaViolation::AttributeMismatch { .. }));
    }

    #[test]
    fn unreachable_labels_do_not_matter() {
        // `orphan` differs but is unreachable in d1.
        let d1 = dtd("root r\nr -> a\norphan @ z");
        let d2 = dtd("root r\nr -> a|b");
        assert!(subschema(&d1, &d2, BUDGET).unwrap().is_none());
    }

    #[test]
    fn recursive_schema_inclusion() {
        let list = dtd("root r\nr -> item\nitem -> item?");
        let tree_shape = dtd("root r\nr -> item\nitem -> item*");
        assert!(subschema(&list, &tree_shape, BUDGET).unwrap().is_none());
        let v = subschema(&tree_shape, &list, BUDGET)
            .unwrap()
            .expect("violation");
        let SubschemaViolation::Document(t) = v else {
            panic!()
        };
        // Some node has two item children.
        assert!(t.nodes().any(|n| t.children(n).len() >= 2));
    }

    #[test]
    fn horizontal_order_differences() {
        let ab = dtd("root r\nr -> a, b");
        let ba = dtd("root r\nr -> b, a");
        let v = subschema(&ab, &ba, BUDGET).unwrap().expect("violation");
        let SubschemaViolation::Document(t) = v else {
            panic!()
        };
        assert!(ab.conforms(&t) && !ba.conforms(&t));
    }

    #[test]
    fn raw_inclusion_counterexample() {
        let a = HedgeAutomaton::from_dtd(&dtd("root r\nr -> x*"));
        let b = HedgeAutomaton::from_dtd(&dtd("root r\nr -> x?"));
        let alphabet = vec![Name::new("r"), Name::new("x")];
        // r[x,x] ∈ L(a) ∖ L(b).
        let t = inclusion_counterexample(&a, &b, &alphabet, BUDGET)
            .unwrap()
            .expect("not included");
        assert!(a.accepts(&t));
        assert!(!b.accepts(&t));
        // And the converse inclusion holds.
        assert!(inclusion_counterexample(&b, &a, &alphabet, BUDGET)
            .unwrap()
            .is_none());
    }

    #[test]
    fn budget_error_reports_operation_and_exploration() {
        let a = HedgeAutomaton::from_dtd(&dtd("root r\nr -> x*"));
        let b = HedgeAutomaton::from_dtd(&dtd("root r\nr -> x?"));
        let alphabet = vec![Name::new("r"), Name::new("x")];
        let err = inclusion_counterexample(&a, &b, &alphabet, 1).unwrap_err();
        assert_eq!(err.budget, 1);
        assert!(err.states_explored > err.budget);
        assert_eq!(
            err.to_string(),
            format!(
                "inclusion check exceeded its budget of 1 states \
                 ({} states explored at abort)",
                err.states_explored
            )
        );
        // Through `subschema`, the operation name reflects the caller.
        let err = subschema(&dtd("root r\nr -> x*"), &dtd("root r\nr -> x?"), 1).unwrap_err();
        assert_eq!(err.operation, "subschema check");
        assert!(err.to_string().starts_with("subschema check exceeded"));
    }
}
