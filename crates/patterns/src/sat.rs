//! The type-fixpoint satisfiability engine.
//!
//! This is the workhorse behind the paper's decidable static-analysis
//! results (Lemma 4.1, Thm 5.2, Prop 6.1): given a DTD `D` and patterns
//! `π₁, …, πₖ` (data values ignored — only variable-tuple *arity* matters),
//! it computes which **match sets** `J ⊆ {1..k}` are achievable, i.e. for
//! which `J` some `T ⊨ D` matches exactly the patterns in `J` at its root,
//! together with a witness document for each.
//!
//! ## How it works
//!
//! Fix the closure of all pattern nodes. The *type* of a subtree is the set
//! of **components** true at its root:
//!
//! * `NodeMatch(p)` — pattern node `p` matches at this node;
//! * `SubtreeMatch(p)` — `p` matches somewhere in this subtree (tracked only
//!   for nodes referenced by a `//` item).
//!
//! A node's type is a *deterministic* function of its label and the word of
//! its children's `(label, type)` pairs: each list item of each pattern node
//! becomes a small word acceptor over that pair alphabet (`//π` → "some
//! symbol carries `SubtreeMatch(π)`"; a sequence → a chain automaton with
//! `→` forcing adjacency and `→*` allowing gaps). The engine computes the
//! least fixpoint of *achievable* pairs `(ℓ, τ)`: a pair is achievable iff
//! some word over achievable pairs lies in `L(P_D(ℓ))` and induces `τ`.
//! Exactness (a candidate word induces `τ` and nothing else) comes for free
//! from determinism — this is what lets the same engine answer both the
//! existential (`CONS`) and universal (`ABSCONS°`) questions.
//!
//! The machine-state space is worst-case exponential in the pattern size —
//! as it must be: the problems are EXPTIME-/Π₂ᵖ-complete. A configurable
//! budget bounds the exploration and reports overruns explicitly.
//!
//! ## Two engines
//!
//! The entry points below run the **compiled** engine
//! ([`crate::sat_compiled`]): interned labels and type bitsets, flat-word
//! machine states with hashed dedup, a dependency-driven worklist instead
//! of whole-alphabet re-sweeps, and an optional gated parallel frontier
//! (see DESIGN.md §8). Repeated probes against one schema should go
//! through [`SatCache`], which compiles the DTD and each pattern set once
//! and memoizes match-set results. The original engine survives unchanged
//! as [`mod@reference`] and is differentially tested against the compiled
//! one in `tests/sat_equiv.rs`.
//!
//! Downward patterns over nested-relational DTDs need neither: the
//! per-DTD [`NrKernel`] decides them in PTIME (see [`satisfiable_nr`]).

use crate::ast::Pattern;
use std::collections::BTreeSet;
use xmlmap_dtd::Dtd;
use xmlmap_trees::Tree;

pub mod nr;
pub mod reference;

pub use crate::sat_compiled::{SatCache, SatEngine};
pub use nr::NrKernel;

/// The exploration exceeded its state budget; the answer is unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exhausted (machine states explored).
    pub budget: usize,
    /// States actually explored when the engine gave up (≥ budget).
    pub states_explored: usize,
    /// Which operation blew the budget (caller-supplied, e.g.
    /// `"consistency check"` or `"reference engine"`).
    pub context: String,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "type-fixpoint exploration ({}) exceeded its budget of {} states \
             ({} states explored at abort)",
            self.context, self.budget, self.states_explored
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Pattern satisfiability w.r.t. a DTD (Lemma 4.1): is there `T ⊨ D` with
/// `π(T) ≠ ∅`? Returns a witness document.
pub fn satisfiable(
    dtd: &Dtd,
    pattern: &Pattern,
    budget: usize,
) -> Result<Option<Tree>, BudgetExceeded> {
    SatEngine::new(dtd, &[pattern], budget)
        .with_context("pattern satisfiability")
        .satisfiable_conj()
}

/// Joint satisfiability of a pattern conjunction w.r.t. a DTD.
pub fn satisfiable_all(
    dtd: &Dtd,
    patterns: &[&Pattern],
    budget: usize,
) -> Result<Option<Tree>, BudgetExceeded> {
    SatEngine::new(dtd, patterns, budget)
        .with_context("conjunctive satisfiability")
        .satisfiable_conj()
}

/// All achievable root match sets with witnesses (see module docs).
pub fn achievable_match_sets(
    dtd: &Dtd,
    patterns: &[&Pattern],
    budget: usize,
) -> Result<Vec<(BTreeSet<usize>, Tree)>, BudgetExceeded> {
    SatEngine::new(dtd, patterns, budget)
        .with_context("match-set enumeration")
        .root_match_sets()
}

/// Default exploration budget: generous for interactive use, bounded enough
/// to fail fast on adversarial instances.
pub const DEFAULT_BUDGET: usize = 2_000_000;

/// The paper's §9 open problem, solved exactly by the type-fixpoint
/// engine: given a DTD and pattern sets `P⁺`/`P⁻`, is there `T ⊨ D`
/// matching **all** of `P⁺` and **none** of `P⁻`? Returns a witness.
///
/// (The paper observes the problem is in EXPTIME and NP-hard and that its
/// exact complexity would close several gaps; this implementation is the
/// EXPTIME upper bound made executable — match sets are computed exactly,
/// so negative requirements cost nothing extra.)
pub fn satisfiable_with_negations(
    dtd: &Dtd,
    positive: &[&Pattern],
    negative: &[&Pattern],
    budget: usize,
) -> Result<Option<Tree>, BudgetExceeded> {
    let mut all: Vec<&Pattern> = positive.to_vec();
    all.extend_from_slice(negative);
    let sets = achievable_match_sets(dtd, &all, budget)?;
    let n_pos = positive.len();
    Ok(sets
        .into_iter()
        .find(|(j, _)| {
            (0..n_pos).all(|i| j.contains(&i)) && (n_pos..all.len()).all(|i| !j.contains(&i))
        })
        .map(|(_, w)| w))
}

/// Pattern containment relative to a DTD: does every `T ⊨ D` matching `p`
/// also match `q`? Decided via [`satisfiable_with_negations`] (a
/// counterexample matches `p` but not `q`).
pub fn contained_in(
    dtd: &Dtd,
    p: &Pattern,
    q: &Pattern,
    budget: usize,
) -> Result<bool, BudgetExceeded> {
    Ok(satisfiable_with_negations(dtd, &[p], &[q], budget)?.is_none())
}

/// Pattern equivalence relative to a DTD: mutual containment.
pub fn equivalent(
    dtd: &Dtd,
    p: &Pattern,
    q: &Pattern,
    budget: usize,
) -> Result<bool, BudgetExceeded> {
    Ok(contained_in(dtd, p, q, budget)? && contained_in(dtd, q, p, budget)?)
}

/// Polynomial-time satisfiability over **nested-relational** DTDs for
/// **downward** patterns (no `→`/`→*`) — the engine behind the PTIME cells
/// of Figure 1 (Fact 5.1 and Thm 6.3).
///
/// Returns `None` when the inputs are outside the fragment (the DTD is not
/// nested-relational, or the pattern uses a horizontal axis); callers then
/// fall back to the general engine.
///
/// Compiles a fresh [`NrKernel`] for `dtd`; repeated probes against one
/// schema should hold the kernel, or ask [`SatCache::nr_kernel`].
pub fn satisfiable_nr(dtd: &Dtd, pattern: &Pattern) -> Option<bool> {
    NrKernel::new(dtd)?.satisfiable(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::parse::parse;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn pat(s: &str) -> Pattern {
        parse(s).unwrap()
    }

    const D1: &str = "root r
        r -> prof*
        prof -> teach, supervise
        teach -> year
        year -> course, course
        supervise -> student*
        prof @ name
        student @ sid
        year @ y
        course @ cno";

    #[test]
    fn satisfiable_basic() {
        let d = dtd(D1);
        let p =
            pat("r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]");
        let w = satisfiable(&d, &p, DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(d.conforms(&w));
        assert!(eval::matches(&w, &p), "witness must match:\n{w:?}");
    }

    #[test]
    fn unsatisfiable_wrong_shape() {
        let d = dtd(D1);
        // Three courses under one year is impossible (production: exactly 2).
        let p = pat("r//year(y)[course(a) -> course(b) -> course(c)]");
        assert_eq!(satisfiable(&d, &p, DEFAULT_BUDGET).unwrap(), None);
        // student below teach is impossible.
        let q = pat("r//teach[//student(s)]");
        assert_eq!(satisfiable(&d, &q, DEFAULT_BUDGET).unwrap(), None);
    }

    #[test]
    fn arity_mismatch_is_unsatisfiable() {
        let d = dtd(D1);
        // course has one attribute, not two.
        let p = pat("r//course(a, b)");
        assert_eq!(satisfiable(&d, &p, DEFAULT_BUDGET).unwrap(), None);
        // bare course (zero variables) carries no arity requirement.
        let q = pat("r//course");
        assert!(satisfiable(&d, &q, DEFAULT_BUDGET).unwrap().is_some());
    }

    #[test]
    fn wildcard_satisfiability() {
        let d = dtd(D1);
        // r/prof/teach/year(y); wildcards must respect arities (prof has
        // one attribute, teach none).
        let p = pat("r[_(x)[_[_(y)]]]");
        let w = satisfiable(&d, &p, DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(eval::matches(&w, &p));
    }

    #[test]
    fn next_sibling_order_constraints() {
        let d = dtd("root r\nr -> a, b\na @ v\nb @ v");
        assert!(satisfiable(&d, &pat("r[a(x) -> b(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_some());
        assert!(satisfiable(&d, &pat("r[b(x) -> a(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_none());
        assert!(satisfiable(&d, &pat("r[a(x) ->* b(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_some());
        assert!(satisfiable(&d, &pat("r[b(x) ->* a(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_none());
    }

    #[test]
    fn following_needs_strictness() {
        let d = dtd("root r\nr -> a");
        // a ->* a needs two distinct a-children; the DTD allows only one.
        assert!(satisfiable(&d, &pat("r[a ->* a]"), DEFAULT_BUDGET)
            .unwrap()
            .is_none());
        let d2 = dtd("root r\nr -> a, a");
        assert!(satisfiable(&d2, &pat("r[a ->* a]"), DEFAULT_BUDGET)
            .unwrap()
            .is_some());
    }

    #[test]
    fn conjunction_of_patterns() {
        let d = dtd("root r\nr -> a*, b?");
        let pa = pat("r/a");
        let pb = pat("r/b");
        let w = satisfiable_all(&d, &[&pa, &pb], DEFAULT_BUDGET)
            .unwrap()
            .expect("both satisfiable together");
        assert!(eval::matches(&w, &pa) && eval::matches(&w, &pb));

        // a and c cannot coexist (c not even in the DTD).
        let pc = pat("r/c");
        assert!(satisfiable_all(&d, &[&pa, &pc], DEFAULT_BUDGET)
            .unwrap()
            .is_none());
    }

    #[test]
    fn match_sets_enumeration() {
        let d = dtd("root r\nr -> a?, b?");
        let pa = pat("r/a");
        let pb = pat("r/b");
        let sets = achievable_match_sets(&d, &[&pa, &pb], DEFAULT_BUDGET).unwrap();
        let js: BTreeSet<BTreeSet<usize>> = sets.iter().map(|(j, _)| j.clone()).collect();
        let expect: BTreeSet<BTreeSet<usize>> = [
            BTreeSet::new(),
            BTreeSet::from([0]),
            BTreeSet::from([1]),
            BTreeSet::from([0, 1]),
        ]
        .into_iter()
        .collect();
        assert_eq!(js, expect);
        // Each witness realises exactly its match set.
        for (j, w) in &sets {
            assert!(d.conforms(w));
            assert_eq!(eval::matches(w, &pa), j.contains(&0));
            assert_eq!(eval::matches(w, &pb), j.contains(&1));
        }
    }

    #[test]
    fn forced_match_set() {
        // b is mandatory: the empty match set is NOT achievable.
        let d = dtd("root r\nr -> b");
        let pb = pat("r/b");
        let sets = achievable_match_sets(&d, &[&pb], DEFAULT_BUDGET).unwrap();
        let js: Vec<BTreeSet<usize>> = sets.into_iter().map(|(j, _)| j).collect();
        assert_eq!(js, vec![BTreeSet::from([0])]);
    }

    #[test]
    fn recursive_dtd_descendant() {
        let d = dtd("root r\nr -> a\na -> a?, b?\nb -> ");
        let p = pat("r//b");
        let w = satisfiable(&d, &p, DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(d.conforms(&w));
        assert!(eval::matches(&w, &p));
    }

    #[test]
    fn budget_exhaustion_reports() {
        let d = dtd(D1);
        let p = pat("r//course(c)");
        let err = satisfiable(&d, &p, 2).unwrap_err();
        assert_eq!(err.budget, 2);
        assert!(err.states_explored > 2);
        let msg = err.to_string();
        assert!(msg.contains("pattern satisfiability"), "{msg}");
        assert!(msg.contains("budget of 2"), "{msg}");
    }

    #[test]
    fn negation_satisfiability_open_problem() {
        let d = dtd("root r\nr -> a?, b?, c?");
        let pa = pat("r/a");
        let pb = pat("r/b");
        let pc = pat("r/c");
        // Match a and b but not c.
        let w = satisfiable_with_negations(&d, &[&pa, &pb], &[&pc], DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(crate::eval::matches(&w, &pa));
        assert!(crate::eval::matches(&w, &pb));
        assert!(!crate::eval::matches(&w, &pc));
        // Matching a without matching the wildcard child test is impossible.
        let any_child = pat("r/_");
        assert!(
            satisfiable_with_negations(&d, &[&pa], &[&any_child], DEFAULT_BUDGET)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn containment_and_equivalence() {
        let d = dtd("root r\nr -> a*\na -> b?\nb @ v");
        // a with a b-child implies a exists.
        assert!(contained_in(&d, &pat("r/a/b(x)"), &pat("r/a"), DEFAULT_BUDGET).unwrap());
        assert!(!contained_in(&d, &pat("r/a"), &pat("r/a/b(x)"), DEFAULT_BUDGET).unwrap());
        // Under this DTD, //b and a/b are equivalent (b only under a).
        assert!(equivalent(&d, &pat("r//b(x)"), &pat("r/a/b(x)"), DEFAULT_BUDGET).unwrap());
        // Structural containment uses the DTD: every a-child is matched by
        // the wildcard child test.
        assert!(contained_in(&d, &pat("r/a"), &pat("r/_"), DEFAULT_BUDGET).unwrap());
    }

    #[test]
    fn sat_cache_repeated_probes() {
        let d = dtd(D1);
        let cache = SatCache::new(&d);
        let p = pat("r//course(c)");
        let q = pat("r//teach[//student(s)]");
        for _ in 0..3 {
            assert!(cache.satisfiable(&p, DEFAULT_BUDGET).unwrap().is_some());
            assert!(cache.satisfiable(&q, DEFAULT_BUDGET).unwrap().is_none());
        }
        // Cached witnesses still conform and match.
        let w = cache.satisfiable(&p, DEFAULT_BUDGET).unwrap().unwrap();
        assert!(d.conforms(&w));
        assert!(eval::matches(&w, &p));
    }

    #[test]
    fn nr_satisfiability_agrees_with_engine() {
        let d = dtd("root r
             r -> a, b*, c?
             a -> d?
             b -> e
             c @ v
             e @ w");
        for (text, expect) in [
            ("r/a", true),
            ("r/a/d", true),
            ("r//d", true),
            ("r[a, b[e(x)], c(y)]", true),
            ("r//e(x)", true),
            ("r/e(x)", false), // e is not a child of r
            ("r//c(x)", true),
            ("r/c(x, y)", false), // arity mismatch
            ("r[//d, //e(x)]", true),
            ("r/b/d", false), // d not under b
            ("_[a]", true),   // wildcard root still sits at r
        ] {
            let pat = parse(text).unwrap();
            let fast = satisfiable_nr(&d, &pat).expect("inside fragment");
            let slow = satisfiable(&d, &pat, DEFAULT_BUDGET).unwrap().is_some();
            assert_eq!(fast, slow, "{text}");
            assert_eq!(fast, expect, "{text}");
        }
    }

    #[test]
    fn nr_satisfiability_rejects_out_of_fragment() {
        let d = dtd("root r
r -> a, b");
        assert!(satisfiable_nr(&d, &pat("r[a -> b]")).is_none());
        assert!(satisfiable_nr(&d, &pat("r[a ->* b]")).is_none());
        let not_nr = dtd("root r
r -> a|b");
        assert!(satisfiable_nr(&not_nr, &pat("r/a")).is_none());
    }

    #[test]
    fn deep_descendant_nesting() {
        let d = dtd("root r\nr -> a\na -> a?, b?\nb -> c\nc @ v");
        let p = pat("r//a[//c(x)]");
        let w = satisfiable(&d, &p, DEFAULT_BUDGET).unwrap().expect("sat");
        assert!(eval::matches(&w, &p));
        // //c directly under r also requires the a/b chain.
        let q = pat("r[//c(x)]");
        assert!(satisfiable(&d, &q, DEFAULT_BUDGET).unwrap().is_some());
    }
}
