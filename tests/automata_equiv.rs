//! Differential tests: the compiled automata engine (reached through the
//! public `HedgeAutomaton` / `inclusion_counterexample` / `AutomataCache`
//! entry points) against the pre-optimization reference
//! implementations preserved in `xmlmap::automata::reference`, on randomly
//! generated DTDs and documents.
//!
//! The engines must agree on every verdict — membership bit, product
//! emptiness, inclusion `None`/`Some` — and every counterexample or witness
//! tree must be *genuine*, i.e. checked against the reference engine (a
//! tree returned by the compiled inclusion need not equal the reference's
//! tree, but it must be accepted by `A` and rejected by `B`). The DTD
//! generator deliberately draws productions over a tiny shared label pool
//! with alternation, nesting, and all four multiplicities, and leaves some
//! referenced labels undeclared (exercising the ε-production path); the
//! antichain pruning and pre-determinization in the compiled engine must
//! never change an answer, only how fast it is found.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlmap::automata::{
    inclusion_counterexample, reference, AutomataCache, HedgeAutomaton, SubschemaViolation,
};
use xmlmap::dtd::Dtd;
use xmlmap::gen::TreeGenConfig;
use xmlmap::trees::{Name, Tree};

/// Exploration cap for the generated cases. Inclusion is EXPTIME-complete
/// and the generator does occasionally produce genuinely explosive pairs;
/// when *either* engine overruns this cap the case is skipped (verdicts
/// can only be compared where both engines finish).
const BUDGET: usize = 50_000;

/// Labels that random productions draw from. `r` is always the root;
/// labels may be referenced without being declared (ε production).
const POOL: &[&str] = &["a", "b", "c", "d"];

/// An atom for the production of the label at stratification `level`
/// (`r` is level 0, `POOL[i]` is level `i + 1`). Self- and backward
/// references are forced optional so every *mandatory* occurrence points
/// strictly forward: the mandatory dependency graph stays acyclic, every
/// language is nonempty, and document sampling terminates — while optional
/// recursion (`a -> a?`, `a -> (a|b)*`) is still generated.
fn rand_atom(rng: &mut StdRng, level: usize) -> String {
    let j = rng.gen_range(0..POOL.len());
    let label = POOL[j];
    let suffix = if j < level {
        ["?", "*"][rng.gen_range(0..2usize)]
    } else {
        ["", "?", "*", "+"][rng.gen_range(0..4usize)]
    };
    format!("{label}{suffix}")
}

fn rand_regex(rng: &mut StdRng, depth: usize, level: usize) -> String {
    if depth == 0 {
        return rand_atom(rng, level);
    }
    match rng.gen_range(0..4usize) {
        0 => rand_atom(rng, level),
        1 => format!(
            "{}, {}",
            rand_regex(rng, depth - 1, level),
            rand_regex(rng, depth - 1, level)
        ),
        2 => {
            let suffix = ["", "?", "*"][rng.gen_range(0..3usize)];
            format!(
                "({}|{}){suffix}",
                rand_regex(rng, depth - 1, level),
                rand_regex(rng, depth - 1, level)
            )
        }
        _ => format!("({})*", rand_atom(rng, level)),
    }
}

/// A random DTD over the shared pool: the root always has a production;
/// each pool label gets one with probability 2/3 (otherwise it is ε if
/// referenced).
fn rand_dtd(rng: &mut StdRng) -> Dtd {
    let mut text = format!("root r\nr -> {}\n", rand_regex(rng, 2, 0));
    for (i, label) in POOL.iter().enumerate() {
        if rng.gen_range(0..3) < 2 {
            text.push_str(&format!("{label} -> {}\n", rand_regex(rng, 1, i + 1)));
        }
    }
    xmlmap::dtd::parse(&text).expect("generated DTD parses")
}

/// A conforming document of `d`, with a chance of an extra-child mutation
/// that usually breaks conformance.
fn rand_doc(d: &Dtd, rng: &mut StdRng) -> Tree {
    let config = TreeGenConfig {
        continue_probability: 0.4,
        value_pool: 2,
        max_nodes: 40,
    };
    let mut t = xmlmap::gen::random_tree(d, &config, rng);
    if rng.gen_bool(0.4) {
        let nodes: Vec<_> = t.nodes().collect();
        let node = nodes[rng.gen_range(0..nodes.len())];
        t.add_elem(node, Name::new(POOL[rng.gen_range(0..POOL.len())]));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Membership: the compiled bitset/DFA simulation agrees with the
    /// reference `HashSet` simulation on conforming and mutated documents.
    #[test]
    fn membership_matches_reference(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let d = rand_dtd(&mut rng);
        let auto = HedgeAutomaton::from_dtd(&d);
        for _ in 0..4 {
            let doc = rand_doc(&d, &mut rng);
            let compiled = auto.accepts(&doc);
            let expected = reference::accepts(&auto, &doc);
            prop_assert_eq!(
                compiled, expected,
                "membership disagrees on {:?} for DTD {:?}", doc, d
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Inclusion: verdicts agree with the reference fixpoint in both
    /// directions, and every counterexample is genuine per the reference
    /// engine. Also checks the memoizing `AutomataCache` path.
    #[test]
    fn inclusion_matches_reference(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let d1 = rand_dtd(&mut rng);
        let d2 = rand_dtd(&mut rng);
        let a = HedgeAutomaton::from_dtd(&d1);
        let b = HedgeAutomaton::from_dtd(&d2);
        let mut alphabet: Vec<Name> = d1.alphabet().cloned().collect();
        for l in d2.alphabet() {
            if !alphabet.contains(l) {
                alphabet.push(l.clone());
            }
        }
        let cache = AutomataCache::new(&d1, &d2);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let compiled = inclusion_counterexample(x, y, &alphabet, BUDGET);
            let expected = reference::inclusion_counterexample(x, y, &alphabet, BUDGET);
            let (Ok(compiled), Ok(expected)) = (compiled, expected) else {
                continue; // one engine overran the cap; nothing to compare
            };
            prop_assert_eq!(
                compiled.is_some(), expected.is_some(),
                "inclusion verdicts differ: compiled {:?} vs reference {:?}\n\
                 d1: {:?}\nd2: {:?}", compiled, expected, d1, d2
            );
            if let Some(t) = &compiled {
                prop_assert!(
                    reference::accepts(x, t),
                    "counterexample not accepted by A: {:?}", t
                );
                prop_assert!(
                    !reference::accepts(y, t),
                    "counterexample accepted by B: {:?}", t
                );
            }
        }
        // The cache is the same engine with compilation hoisted; repeated
        // calls hit the memo and must return the same verdict.
        if let Ok(first) = cache.inclusion(BUDGET) {
            let second = cache.inclusion(BUDGET).unwrap();
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(
                first.is_some(),
                inclusion_counterexample(&a, &b, &alphabet, BUDGET).unwrap().is_some()
            );
        }
        // Subschema layers attribute checks on inclusion; the violation
        // document must separate the two DTDs for real.
        if let Ok(Some(SubschemaViolation::Document(t))) = cache.subschema(BUDGET) {
            prop_assert!(d1.conforms(&t) && !d2.conforms(&t));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Product: the inhabited-pairs construction accepts the same trees as
    /// the reference full-pair-space construction, agrees on emptiness,
    /// and produces genuine witnesses.
    #[test]
    fn product_matches_reference(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let d1 = rand_dtd(&mut rng);
        let d2 = rand_dtd(&mut rng);
        let a = HedgeAutomaton::from_dtd(&d1);
        let b = HedgeAutomaton::from_dtd(&d2);
        let compiled_prod = a.product(&b);
        let reference_prod = reference::product(&a, &b);

        let compiled_witness = compiled_prod.witness();
        let reference_empty = reference::is_empty(&reference_prod);
        prop_assert_eq!(
            compiled_witness.is_none(), reference_empty,
            "product emptiness differs\nd1: {:?}\nd2: {:?}", d1, d2
        );
        if let Some(w) = &compiled_witness {
            prop_assert!(
                reference::accepts(&a, w) && reference::accepts(&b, w),
                "product witness not in the intersection: {:?}", w
            );
        }
        // Language agreement on sampled documents, with both membership
        // engines run against both product automata.
        for _ in 0..3 {
            let doc = rand_doc(&d1, &mut rng);
            let expected = reference::accepts(&reference_prod, &doc);
            prop_assert_eq!(compiled_prod.accepts(&doc), expected);
            prop_assert_eq!(reference::accepts(&compiled_prod, &doc), expected);
        }
    }
}

/// Recursive DTDs, which the generator deliberately keeps out of the
/// *mandatory* dependency graph (their languages can be empty, so no
/// conforming document can be sampled): both engines must still agree on
/// emptiness, inclusion, and witnesses for them.
#[test]
fn recursive_dtds_match_reference() {
    // `a -> a` has no finite derivation: L(empty) = ∅.
    let empty = xmlmap::dtd::parse("root r\nr -> a\na -> a").unwrap();
    // Mutual mandatory recursion, likewise empty.
    let mutual = xmlmap::dtd::parse("root r\nr -> a\na -> b\nb -> a+").unwrap();
    // Optional recursion: unary `item` chains of any depth.
    let chain = xmlmap::dtd::parse("root r\nr -> item\nitem -> item?").unwrap();
    // Optional recursion: arbitrary `item` trees — a strict superlanguage.
    let tree = xmlmap::dtd::parse("root r\nr -> item\nitem -> item*").unwrap();
    let alphabet: Vec<Name> = ["r", "a", "b", "item"].iter().map(Name::new).collect();
    let autos: Vec<HedgeAutomaton> = [&empty, &mutual, &chain, &tree]
        .iter()
        .map(|d| HedgeAutomaton::from_dtd(d))
        .collect();

    for (i, x) in autos.iter().enumerate() {
        // Emptiness and witnesses agree engine-to-engine.
        let w = x.witness();
        assert_eq!(
            w.is_none(),
            reference::is_empty(x),
            "emptiness differs ({i})"
        );
        assert_eq!(w.is_none(), i < 2, "wrong emptiness verdict ({i})");
        for (j, y) in autos.iter().enumerate() {
            // Inclusion: the empty languages are included in everything;
            // `chain` ⊆ `tree` but not conversely.
            let verdict = inclusion_counterexample(x, y, &alphabet, BUDGET).unwrap();
            let expected = reference::inclusion_counterexample(x, y, &alphabet, BUDGET).unwrap();
            assert_eq!(
                verdict.is_some(),
                expected.is_some(),
                "inclusion verdicts differ ({i} ⊆ {j})"
            );
            let included = i < 2 || i == j || (i, j) == (2, 3);
            assert_eq!(verdict.is_none(), included, "wrong verdict ({i} ⊆ {j})");
            if let Some(t) = &verdict {
                assert!(reference::accepts(x, t) && !reference::accepts(y, t));
            }
            // Product: intersection with an empty language is empty;
            // `chain` ∩ `tree` = `chain`, which is inhabited.
            let prod = x.product(y);
            let pw = prod.witness();
            assert_eq!(pw.is_none(), reference::is_empty(&reference::product(x, y)));
            assert_eq!(
                pw.is_none(),
                i < 2 || j < 2,
                "wrong product emptiness ({i} × {j})"
            );
            if let Some(t) = &pw {
                assert!(reference::accepts(x, t) && reference::accepts(y, t));
            }
        }
    }
}

/// Budget exhaustion reports the right operation and a truthful
/// exploration count, through both entry points.
#[test]
fn tiny_budget_reports_operation_and_exploration() {
    let d1 = xmlmap::dtd::parse("root r\nr -> (a|b)*, a, (a|b), (a|b), (a|b)").unwrap();
    let d2 = xmlmap::dtd::parse("root r\nr -> (b|a)*, a, (a|b), (a|b), (a|b)").unwrap();
    let a = HedgeAutomaton::from_dtd(&d1);
    let b = HedgeAutomaton::from_dtd(&d2);
    let alphabet: Vec<Name> = vec![Name::new("r"), Name::new("a"), Name::new("b")];
    for budget in [1, 2, 5] {
        let err = inclusion_counterexample(&a, &b, &alphabet, budget).unwrap_err();
        assert_eq!(err.operation, "inclusion check");
        assert_eq!(err.budget, budget);
        assert!(
            err.states_explored >= err.budget,
            "explored {} under budget {}",
            err.states_explored,
            err.budget
        );

        // The cache reports the subschema operation and does not memoize
        // overruns: a retry with a real budget still computes the verdict
        // (the two DTDs describe the same language, so inclusion holds).
        let cache = AutomataCache::new(&d1, &d2);
        let err = cache.subschema(budget).unwrap_err();
        assert_eq!(err.operation, "subschema check");
        assert_eq!(err.budget, budget);
        assert!(err.states_explored >= err.budget);
        assert!(cache.subschema(BUDGET).unwrap().is_none());
        let err2 = cache.inclusion(budget).unwrap_err();
        assert_eq!(err2.operation, "inclusion check");
        assert!(cache.inclusion(BUDGET).unwrap().is_none());
    }
}
