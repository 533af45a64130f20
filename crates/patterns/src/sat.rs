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
//! ## One entry point
//!
//! Every question goes through [`SatCache`], built once per DTD: it
//! compiles the DTD's [`xmlmap_dtd::DtdIndex`] once, each pattern set's
//! closure once, and memoizes complete match-set results. Satisfiability,
//! conjunctive satisfiability, the §9 negation problem, containment and
//! equivalence are all read off those memoized match sets. The engine
//! underneath is the **compiled** one ([`crate::sat_compiled`]): interned
//! labels and type bitsets, flat-word machine states with hashed dedup, a
//! dependency-driven worklist instead of whole-alphabet re-sweeps, with
//! every round expanded on the calling thread (see DESIGN.md §8). The
//! original engine survives unchanged as [`mod@reference`] and is
//! differentially tested against the compiled one in `tests/sat_equiv.rs`.
//!
//! Downward patterns over nested-relational DTDs need neither: the
//! per-DTD [`NrKernel`] decides them in PTIME ([`SatCache::nr_kernel`]
//! builds and shares one).

pub mod nr;
pub mod reference;

pub use crate::sat_compiled::SatCache;
pub use nr::NrKernel;

/// The exploration exceeded its state budget; the answer is unknown.
///
/// Its message is one fixed text whichever procedure ran the engine:
/// `xmlmap-core` shares one [`SatCache`] per DTD across procedures through
/// its `EngineContext`, and batch output across worker counts depends on an
/// overrun reading the same whichever procedure compiled the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exhausted (machine states explored).
    pub budget: usize,
    /// States actually explored when the engine gave up (≥ budget).
    pub states_explored: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "type-fixpoint exploration (shared EngineContext probe) exceeded its \
             budget of {} states ({} states explored at abort)",
            self.budget, self.states_explored
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Default exploration budget: generous for interactive use, bounded enough
/// to fail fast on adversarial instances.
pub const DEFAULT_BUDGET: usize = 2_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pattern;
    use crate::eval;
    use crate::parse::parse;
    use std::collections::BTreeSet;
    use xmlmap_dtd::Dtd;

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
        let w = SatCache::new(&d)
            .satisfiable(&p, DEFAULT_BUDGET)
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
        assert_eq!(
            SatCache::new(&d).satisfiable(&p, DEFAULT_BUDGET).unwrap(),
            None
        );
        // student below teach is impossible.
        let q = pat("r//teach[//student(s)]");
        assert_eq!(
            SatCache::new(&d).satisfiable(&q, DEFAULT_BUDGET).unwrap(),
            None
        );
    }

    #[test]
    fn arity_mismatch_is_unsatisfiable() {
        let d = dtd(D1);
        // course has one attribute, not two.
        let p = pat("r//course(a, b)");
        assert_eq!(
            SatCache::new(&d).satisfiable(&p, DEFAULT_BUDGET).unwrap(),
            None
        );
        // bare course (zero variables) carries no arity requirement.
        let q = pat("r//course");
        assert!(SatCache::new(&d)
            .satisfiable(&q, DEFAULT_BUDGET)
            .unwrap()
            .is_some());
    }

    #[test]
    fn wildcard_satisfiability() {
        let d = dtd(D1);
        // r/prof/teach/year(y); wildcards must respect arities (prof has
        // one attribute, teach none).
        let p = pat("r[_(x)[_[_(y)]]]");
        let w = SatCache::new(&d)
            .satisfiable(&p, DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(eval::matches(&w, &p));
    }

    #[test]
    fn next_sibling_order_constraints() {
        let d = dtd("root r\nr -> a, b\na @ v\nb @ v");
        assert!(SatCache::new(&d)
            .satisfiable(&pat("r[a(x) -> b(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_some());
        assert!(SatCache::new(&d)
            .satisfiable(&pat("r[b(x) -> a(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_none());
        assert!(SatCache::new(&d)
            .satisfiable(&pat("r[a(x) ->* b(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_some());
        assert!(SatCache::new(&d)
            .satisfiable(&pat("r[b(x) ->* a(y)]"), DEFAULT_BUDGET)
            .unwrap()
            .is_none());
    }

    #[test]
    fn following_needs_strictness() {
        let d = dtd("root r\nr -> a");
        // a ->* a needs two distinct a-children; the DTD allows only one.
        assert!(SatCache::new(&d)
            .satisfiable(&pat("r[a ->* a]"), DEFAULT_BUDGET)
            .unwrap()
            .is_none());
        let d2 = dtd("root r\nr -> a, a");
        assert!(SatCache::new(&d2)
            .satisfiable(&pat("r[a ->* a]"), DEFAULT_BUDGET)
            .unwrap()
            .is_some());
    }

    #[test]
    fn conjunction_of_patterns() {
        let d = dtd("root r\nr -> a*, b?");
        let pa = pat("r/a");
        let pb = pat("r/b");
        let w = SatCache::new(&d)
            .satisfiable_all(&[&pa, &pb], DEFAULT_BUDGET)
            .unwrap()
            .expect("both satisfiable together");
        assert!(eval::matches(&w, &pa) && eval::matches(&w, &pb));

        // a and c cannot coexist (c not even in the DTD).
        let pc = pat("r/c");
        assert!(SatCache::new(&d)
            .satisfiable_all(&[&pa, &pc], DEFAULT_BUDGET)
            .unwrap()
            .is_none());
    }

    #[test]
    fn match_sets_enumeration() {
        let d = dtd("root r\nr -> a?, b?");
        let pa = pat("r/a");
        let pb = pat("r/b");
        let sets = SatCache::new(&d)
            .achievable_match_sets(&[&pa, &pb], DEFAULT_BUDGET)
            .unwrap();
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
        for (j, w) in sets.iter() {
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
        let sets = SatCache::new(&d)
            .achievable_match_sets(&[&pb], DEFAULT_BUDGET)
            .unwrap();
        let js: Vec<BTreeSet<usize>> = sets.iter().map(|(j, _)| j.clone()).collect();
        assert_eq!(js, vec![BTreeSet::from([0])]);
    }

    #[test]
    fn recursive_dtd_descendant() {
        let d = dtd("root r\nr -> a\na -> a?, b?\nb -> ");
        let p = pat("r//b");
        let w = SatCache::new(&d)
            .satisfiable(&p, DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(d.conforms(&w));
        assert!(eval::matches(&w, &p));
    }

    #[test]
    fn budget_exhaustion_reports() {
        let d = dtd(D1);
        let p = pat("r//course(c)");
        let err = SatCache::new(&d).satisfiable(&p, 2).unwrap_err();
        assert_eq!(err.budget, 2);
        assert!(err.states_explored > 2);
        assert_eq!(
            err.to_string(),
            format!(
                "type-fixpoint exploration (shared EngineContext probe) exceeded its budget \
                 of 2 states ({} states explored at abort)",
                err.states_explored
            )
        );
    }

    #[test]
    fn negation_satisfiability_open_problem() {
        let d = dtd("root r\nr -> a?, b?, c?");
        let pa = pat("r/a");
        let pb = pat("r/b");
        let pc = pat("r/c");
        // Match a and b but not c.
        let w = SatCache::new(&d)
            .satisfiable_with_negations(&[&pa, &pb], &[&pc], DEFAULT_BUDGET)
            .unwrap()
            .expect("satisfiable");
        assert!(crate::eval::matches(&w, &pa));
        assert!(crate::eval::matches(&w, &pb));
        assert!(!crate::eval::matches(&w, &pc));
        // Matching a without matching the wildcard child test is impossible.
        let any_child = pat("r/_");
        assert!(SatCache::new(&d)
            .satisfiable_with_negations(&[&pa], &[&any_child], DEFAULT_BUDGET)
            .unwrap()
            .is_none());
    }

    #[test]
    fn containment_and_equivalence() {
        let d = dtd("root r\nr -> a*\na -> b?\nb @ v");
        // a with a b-child implies a exists.
        assert!(SatCache::new(&d)
            .contained_in(&pat("r/a/b(x)"), &pat("r/a"), DEFAULT_BUDGET)
            .unwrap());
        assert!(!SatCache::new(&d)
            .contained_in(&pat("r/a"), &pat("r/a/b(x)"), DEFAULT_BUDGET)
            .unwrap());
        // Under this DTD, //b and a/b are equivalent (b only under a).
        assert!(SatCache::new(&d)
            .equivalent(&pat("r//b(x)"), &pat("r/a/b(x)"), DEFAULT_BUDGET)
            .unwrap());
        // Structural containment uses the DTD: every a-child is matched by
        // the wildcard child test.
        assert!(SatCache::new(&d)
            .contained_in(&pat("r/a"), &pat("r/_"), DEFAULT_BUDGET)
            .unwrap());
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
        let kernel = NrKernel::new(&d).expect("nested-relational");
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
            let fast = kernel.satisfiable(&pat).expect("inside fragment");
            let slow = SatCache::new(&d)
                .satisfiable(&pat, DEFAULT_BUDGET)
                .unwrap()
                .is_some();
            assert_eq!(fast, slow, "{text}");
            assert_eq!(fast, expect, "{text}");
        }
    }

    #[test]
    fn nr_satisfiability_rejects_out_of_fragment() {
        let d = dtd("root r
r -> a, b");
        let kernel = NrKernel::new(&d).expect("nested-relational");
        assert!(kernel.satisfiable(&pat("r[a -> b]")).is_none());
        assert!(kernel.satisfiable(&pat("r[a ->* b]")).is_none());
        let not_nr = dtd("root r
r -> a|b");
        assert!(NrKernel::new(&not_nr).is_none());
    }

    #[test]
    fn deep_descendant_nesting() {
        let d = dtd("root r\nr -> a\na -> a?, b?\nb -> c\nc @ v");
        let p = pat("r//a[//c(x)]");
        let w = SatCache::new(&d)
            .satisfiable(&p, DEFAULT_BUDGET)
            .unwrap()
            .expect("sat");
        assert!(eval::matches(&w, &p));
        // //c directly under r also requires the a/b chain.
        let q = pat("r[//c(x)]");
        assert!(SatCache::new(&d)
            .satisfiable(&q, DEFAULT_BUDGET)
            .unwrap()
            .is_some());
    }
}
