#![warn(missing_docs)]

//! # xmlmap-patterns
//!
//! Tree patterns of *XML Schema Mappings* (PODS 2009): the extended grammar
//! (2) with all four axes and wildcard, their semantics over data trees,
//! and the type-fixpoint satisfiability engine powering the paper's
//! decidable static-analysis procedures.
//!
//! * [`ast`] — pattern syntax trees, feature detection, fully-specified
//!   check (grammar (5));
//! * [`parse()`](parse()) — the textual pattern syntax used throughout the examples;
//! * [`eval`] — `(T, s) ⊨ π(ā)`: match enumeration `π(T)` and matching
//!   under partial valuations (Prop 4.2);
//! * [`compiled`] — the evaluation kernel behind [`eval`]: interned
//!   variables, trail-based backtracking, bitset feasibility tables
//!   reusable across probes;
//! * [`mod@reference`] — the naive spec evaluator kept for differential tests;
//! * [`sat`] — satisfiability of patterns w.r.t. a DTD and achievable
//!   match-set enumeration (Lemma 4.1, and the engine behind Thm 5.2 /
//!   Prop 6.1 in `xmlmap-core`), all asked through the per-DTD
//!   [`SatCache`], plus the per-DTD [`NrKernel`] that decides the
//!   nested-relational downward fragment in PTIME (Fact 5.1, Thm 6.3);
//! * [`stream`] — streaming membership for the downward fragment over SAX
//!   events in O(depth) memory, with diagnostics at the fragment boundary;
//! * [`sat_compiled`] — the compiled fixpoint engine behind [`sat`]:
//!   interned type bitsets, a dependency-driven worklist, and
//!   [`SatCache`], the engine's one entry point. The original engine
//!   survives as [`sat::reference`] for differential tests.

pub mod ast;
pub mod compiled;
pub mod eval;
pub mod minimize;
pub mod parse;
pub mod reference;
pub mod sat;
pub mod sat_compiled;
pub mod stream;

pub use ast::{Features, LabelTest, ListItem, Pattern, SeqOp, Var};
pub use compiled::{CompiledPattern, LiveRows, Matcher};
pub use eval::{
    all_matches, for_each_match, matches, matches_at, matches_structural, matches_with, Valuation,
};
pub use minimize::minimize;
pub use parse::{parse, PatternParseError};
pub use sat::{BudgetExceeded, NrKernel, SatCache, DEFAULT_BUDGET};
pub use stream::{
    CanonicalAttrs, LabelMasks, StreamEnumerator, StreamMatcher, StreamPattern, UnstreamablePattern,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xmlmap_dtd::Dtd;
    use xmlmap_trees::{Name, Tree, Value};

    /// Random small DTD from a fixed family over labels {r, a, b, c}.
    fn arb_dtd() -> impl Strategy<Value = Dtd> {
        let bodies = prop_oneof![
            Just("a*"),
            Just("a, b?"),
            Just("a|b"),
            Just("a?, b?, c?"),
            Just("(a|b)*"),
            Just("a, a"),
            Just("b+"),
        ];
        let inner = prop_oneof![Just(""), Just("c?"), Just("c*"), Just("c, c")];
        (bodies, inner.clone(), inner).prop_map(|(rb, ab, bb)| {
            Dtd::builder("r")
                .production("r", rb)
                .production("a", ab)
                .production("b", bb)
                .attrs("c", ["v"])
                .build()
                .unwrap()
        })
    }

    /// Random pattern over the same label set (single attribute on c).
    fn arb_pattern() -> impl Strategy<Value = Pattern> {
        let leaf = prop_oneof![
            Just(Pattern::leaf("a", Vec::<Var>::new())),
            Just(Pattern::leaf("b", Vec::<Var>::new())),
            Just(Pattern::leaf("c", ["x"])),
            Just(Pattern::leaf("c", ["y"])),
            Just(Pattern::wildcard(Vec::<Var>::new())),
            Just(Pattern::wildcard(["z"])),
        ];
        let sub = leaf.prop_recursive(3, 12, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.child(q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.descendant(q)),
                (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                    |(p, q, s, nx)| {
                        p.seq(
                            vec![q, s],
                            vec![if nx { SeqOp::Next } else { SeqOp::Following }],
                        )
                    }
                ),
            ]
        });
        sub.prop_map(|body| Pattern::leaf("r", Vec::<Var>::new()).child(body))
    }

    /// Exhaustively enumerates small trees over the DTD's alphabet and
    /// checks whether any conforming one matches the pattern.
    fn brute_force_satisfiable(dtd: &Dtd, pattern: &Pattern, max_nodes: usize) -> bool {
        let root_attrs: Vec<(Name, Value)> = dtd
            .attrs(dtd.root())
            .iter()
            .map(|a| (a.clone(), Value::str("d")))
            .collect();
        let mut frontier = vec![Tree::with_root_attrs(dtd.root().clone(), root_attrs)];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(t) = frontier.pop() {
            if !seen.insert(format!("{t:?}")) {
                continue;
            }
            if dtd.conforms(&t) && matches(&t, pattern) {
                return true;
            }
            if t.size() >= max_nodes {
                continue;
            }
            // Extend by one child anywhere, any non-root label.
            let nodes: Vec<_> = t.nodes().collect();
            for n in nodes {
                for label in dtd.alphabet() {
                    if label == dtd.root() {
                        continue;
                    }
                    let mut t2 = t.clone();
                    t2.add_child(
                        n,
                        label.clone(),
                        dtd.attrs(label)
                            .iter()
                            .map(|a| (a.clone(), Value::str("d"))),
                    );
                    frontier.push(t2);
                }
            }
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The type-fixpoint engine agrees with brute-force enumeration of
        /// small trees — when the engine says satisfiable, its witness
        /// matches; when it says no, no small tree matches.
        #[test]
        fn sat_engine_agrees_with_brute_force(d in arb_dtd(), p in arb_pattern()) {
            let engine_answer = SatCache::new(&d).satisfiable(&p, DEFAULT_BUDGET).unwrap();
            match engine_answer {
                Some(w) => {
                    prop_assert!(d.conforms(&w), "witness must conform:\n{w:?}\n{d}");
                    prop_assert!(matches(&w, &p), "witness must match {p}:\n{w:?}");
                }
                None => {
                    prop_assert!(
                        !brute_force_satisfiable(&d, &p, 5),
                        "engine says UNSAT but a small tree matches {p} under\n{d}"
                    );
                }
            }
        }

        /// Match-set witnesses realise exactly their match set.
        #[test]
        fn match_set_witnesses_are_exact(d in arb_dtd(), p in arb_pattern(), q in arb_pattern()) {
            let sets = SatCache::new(&d).achievable_match_sets(&[&p, &q], DEFAULT_BUDGET).unwrap();
            for (j, w) in sets.iter() {
                prop_assert!(d.conforms(w));
                prop_assert_eq!(matches(w, &p), j.contains(&0), "J={:?} w=\n{:?}", j, w);
                prop_assert_eq!(matches(w, &q), j.contains(&1), "J={:?} w=\n{:?}", j, w);
            }
        }
    }
}
