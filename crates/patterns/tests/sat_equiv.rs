//! Differential tests: the compiled fixpoint engine (`sat_compiled`) versus
//! the original reference engine (`sat::reference`) over random DTD ×
//! pattern-set instances.
//!
//! The reference engine is the paper-faithful oracle kept verbatim from the
//! pre-compiled implementation; the compiled engine must agree with it on
//! single-pattern satisfiability, conjunctive satisfiability of a pattern
//! set, and the full collection of achievable match sets — and every
//! compiled witness tree must conform to the DTD and realise exactly the
//! match set it was returned for. The questions `SatCache` reads off its
//! memoized match sets (the §9 negation problem, DTD-relative containment
//! and equivalence) must agree with the same answers read off the
//! reference engine's match sets.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xmlmap_dtd::Dtd;
use xmlmap_patterns::sat::reference;
use xmlmap_patterns::{matches, Pattern, SatCache, SeqOp, Var};

const BUDGET: usize = xmlmap_patterns::DEFAULT_BUDGET;

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
        Just("a, (b|c)*"),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-pattern satisfiability: compiled and reference agree, and
    /// the compiled witness conforms and matches.
    #[test]
    fn satisfiable_agrees_with_reference(d in arb_dtd(), p in arb_pattern()) {
        let compiled = SatCache::new(&d).satisfiable(&p, BUDGET).unwrap();
        let oracle = reference::satisfiable(&d, &p, BUDGET).unwrap();
        prop_assert_eq!(
            compiled.is_some(),
            oracle.is_some(),
            "engines disagree on {} under\n{}",
            p,
            d
        );
        if let Some(w) = compiled {
            prop_assert!(d.conforms(&w), "witness must conform:\n{w:?}\n{d}");
            prop_assert!(matches(&w, &p), "witness must match {p}:\n{w:?}");
        }
    }

    /// Conjunctive satisfiability over a two-pattern set: engines agree,
    /// and the compiled witness matches every pattern in the set.
    #[test]
    fn satisfiable_all_agrees_with_reference(
        d in arb_dtd(),
        p in arb_pattern(),
        q in arb_pattern(),
    ) {
        let pats = [&p, &q];
        let compiled = SatCache::new(&d).satisfiable_all(&pats, BUDGET).unwrap();
        let oracle = reference::satisfiable_all(&d, &pats, BUDGET).unwrap();
        prop_assert_eq!(
            compiled.is_some(),
            oracle.is_some(),
            "engines disagree on {} ∧ {} under\n{}",
            p,
            q,
            d
        );
        if let Some(w) = compiled {
            prop_assert!(d.conforms(&w));
            prop_assert!(matches(&w, &p), "witness must match {p}:\n{w:?}");
            prop_assert!(matches(&w, &q), "witness must match {q}:\n{w:?}");
        }
    }

    /// Achievable match sets: both engines enumerate exactly the same
    /// collection of J ⊆ {0, 1}, and every compiled witness realises
    /// exactly its J (conforms, matches pattern i iff i ∈ J).
    #[test]
    fn match_sets_agree_with_reference(
        d in arb_dtd(),
        p in arb_pattern(),
        q in arb_pattern(),
    ) {
        let pats = [&p, &q];
        let compiled = SatCache::new(&d).achievable_match_sets(&pats, BUDGET).unwrap();
        let oracle = reference::achievable_match_sets(&d, &pats, BUDGET).unwrap();
        let compiled_js: BTreeSet<BTreeSet<usize>> =
            compiled.iter().map(|(j, _)| j.clone()).collect();
        let oracle_js: BTreeSet<BTreeSet<usize>> =
            oracle.iter().map(|(j, _)| j.clone()).collect();
        prop_assert_eq!(
            &compiled_js,
            &oracle_js,
            "achievable match sets differ for ({}, {}) under\n{}",
            p,
            q,
            d
        );
        for (j, w) in compiled.iter() {
            prop_assert!(d.conforms(w), "witness for J={j:?} must conform:\n{w:?}");
            prop_assert_eq!(matches(w, &p), j.contains(&0), "J={:?} w=\n{:?}", j, w);
            prop_assert_eq!(matches(w, &q), j.contains(&1), "J={:?} w=\n{:?}", j, w);
        }
    }

    /// `SatCache::{satisfiable_with_negations, contained_in, equivalent}`
    /// agree with the answers read off the reference engine's match sets
    /// of `[p, q]`: `p ∧ ¬q` is satisfiable iff `{0}` is achievable, `p`
    /// is contained in `q` iff it is not, and `p ≡ q` iff neither `{0}` nor
    /// `{1}` is. A negation witness matches `p` and not `q`.
    #[test]
    fn derived_questions_agree_with_reference(
        d in arb_dtd(),
        p in arb_pattern(),
        q in arb_pattern(),
    ) {
        let oracle: BTreeSet<BTreeSet<usize>> = reference::achievable_match_sets(&d, &[&p, &q], BUDGET)
            .unwrap()
            .into_iter()
            .map(|(j, _)| j)
            .collect();
        let only_p = oracle.contains(&BTreeSet::from([0]));
        let only_q = oracle.contains(&BTreeSet::from([1]));

        let cache = SatCache::new(&d);
        let negation = cache.satisfiable_with_negations(&[&p], &[&q], BUDGET).unwrap();
        prop_assert_eq!(negation.is_some(), only_p, "{} ∧ ¬{} under\n{}", p, q, d);
        if let Some(w) = negation {
            prop_assert!(d.conforms(&w), "witness must conform:\n{w:?}\n{d}");
            prop_assert!(matches(&w, &p), "witness must match {p}:\n{w:?}");
            prop_assert!(!matches(&w, &q), "witness must not match {q}:\n{w:?}");
        }
        prop_assert_eq!(
            cache.contained_in(&p, &q, BUDGET).unwrap(),
            !only_p,
            "{} ⊆ {} under\n{}",
            p,
            q,
            d
        );
        prop_assert_eq!(
            cache.contained_in(&q, &p, BUDGET).unwrap(),
            !only_q,
            "{} ⊆ {} under\n{}",
            q,
            p,
            d
        );
        prop_assert_eq!(
            cache.equivalent(&p, &q, BUDGET).unwrap(),
            !only_p && !only_q,
            "{} ≡ {} under\n{}",
            p,
            q,
            d
        );
    }
}
