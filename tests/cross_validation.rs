//! Cross-validation: the fast fragment algorithms against the bounded
//! brute-force oracles, on randomly generated instances.
//!
//! These tests are the strongest evidence that the reconstructed
//! algorithms (the PTIME absolute-consistency rigidity analysis of
//! Thm 6.3, the PTIME consistency of Fact 5.1, the chase, and the
//! syntactic composition of Thm 8.2) implement the paper's semantics: every
//! disagreement with exhaustive small-model search is a bug in one of them.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xmlmap::core::bounded::{self, BoundedOutcome};
use xmlmap::gen::{MappingGenConfig, TreeGenConfig};
use xmlmap::prelude::*;

/// One shared engine context for the whole differential binary — the
/// production session pattern: every proptest case (and every test thread)
/// fetches compiled caches from here instead of hoisting its own per case.
fn ctx() -> &'static EngineContext {
    static CTX: std::sync::OnceLock<EngineContext> = std::sync::OnceLock::new();
    CTX.get_or_init(EngineContext::new)
}

/// Keeps the brute-force search space manageable: the mapping's DTDs must
/// generate few small shapes and few attribute slots.
fn small_enough(m: &Mapping, max_nodes: usize) -> bool {
    let shapes = bounded::tree_shapes(&m.source_dtd, max_nodes);
    if shapes.len() > 40 {
        return false;
    }
    shapes.iter().all(|s| bounded::attr_slot_count(s) <= 4)
        && bounded::tree_shapes(&m.target_dtd, max_nodes + 1)
            .iter()
            .all(|s| bounded::attr_slot_count(s) <= 4)
}

fn random_mapping(seed: u64) -> Option<Mapping> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = xmlmap::gen::random_nr_dtd(2, 2, 0.5, &mut rng);
    let dt = xmlmap::gen::random_nr_dtd(2, 2, 0.5, &mut rng);
    xmlmap::gen::random_nr_mapping(
        &ds,
        &dt,
        &MappingGenConfig {
            stds: 2,
            depth: 2,
            branch_probability: 0.6,
        },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thm 6.3's PTIME rigidity analysis agrees with the bounded oracle.
    #[test]
    fn abscons_ptime_vs_bounded_oracle(seed in any::<u64>()) {
        let Some(m) = random_mapping(seed) else { return Ok(()) };
        prop_assume!(small_enough(&m, 4));
        let Some(fast) = xmlmap::core::abscons_nr_ptime(&m) else { return Ok(()) };
        match bounded::abscons_violation_bounded(&m, 4, 6) {
            BoundedOutcome::Witness(w) => {
                // The oracle's target bound can be too small for genuine
                // solutions (mandatory skeletons grow with the DTD); the
                // chase adjudicates: a real violation is one the chase
                // fails on too.
                if ctx().canonical_solution(&m, &w).is_ok() {
                    return Ok(()); // bound artefact, not a violation
                }
                prop_assert!(
                    !fast.holds(),
                    "oracle found violation but rigidity analysis says OK\n{m}\nwitness:\n{w:?}"
                );
            }
            BoundedOutcome::ExhaustedBounds => {
                // No violation among small sources. If the fast procedure
                // claims a violation, it must be real: reproduce it with
                // the chase on SOME source (the analysis doesn't produce a
                // witness, so only sanity-check the direction on holds()).
                // A false "violated" would show up as the symmetric case
                // above on other seeds; here we only require that "holds"
                // answers are consistent with the oracle.
                let _ = fast;
            }
        }
    }

    /// Fact 5.1's PTIME consistency agrees with the general engine.
    #[test]
    fn cons_nr_ptime_vs_engine(seed in any::<u64>()) {
        let Some(m) = random_mapping(seed) else { return Ok(()) };
        let Some(fast) = xmlmap::core::consistent_nr_ptime(&m) else { return Ok(()) };
        let slow = ctx().consistent(&m, 2_000_000).unwrap();
        prop_assert_eq!(fast, slow.is_consistent(), "\n{}", m);
        // And the engine's own witnesses are genuine.
        if let ConsAnswer::Consistent { source, target } = slow {
            prop_assert!(m.is_solution(&source, &target), "\n{}", m);
        }
    }

    /// The chase (canonical solution) agrees with bounded solution search:
    /// chase success produces a verified solution; chase failure means no
    /// small solution exists.
    #[test]
    fn chase_vs_bounded_solutions(seed in any::<u64>()) {
        let Some(m) = random_mapping(seed) else { return Ok(()) };
        prop_assume!(small_enough(&m, 4));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let source = xmlmap::gen::random_tree(
            &m.source_dtd,
            &TreeGenConfig { continue_probability: 0.4, value_pool: 2, max_nodes: 8 },
            &mut rng,
        );
        prop_assume!(bounded::attr_slot_count(&source) <= 5);
        match ctx().canonical_solution(&m, &source) {
            Ok(solution) => {
                prop_assert!(
                    m.is_solution(&source, &solution),
                    "chase output is not a solution\n{}\nsource:\n{:?}\nsolution:\n{:?}",
                    m, source, solution
                );
            }
            Err(xmlmap::core::ChaseError::OutsideFragment(_)) => {}
            Err(e) => {
                // No solution should exist, up to a generous bound.
                let found = ctx().solution_exists(&m, &source, 7);
                prop_assert!(
                    found.is_none(),
                    "chase failed ({e}) but a solution exists\n{}\nsource:\n{:?}\nsolution:\n{:?}",
                    m, source, found
                );
            }
        }
    }

    /// Thm 8.2: the syntactically composed mapping has the same solutions
    /// as the semantic composition, on sampled document pairs.
    #[test]
    fn syntactic_composition_vs_semantic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Closed-class schemas: strict NR, star-only multiplicities.
        let ds = xmlmap::dtd::parse("root r\nr -> a*, b*\na @ v\nb @ w").unwrap();
        let dm = xmlmap::dtd::parse("root m\nm -> hub?, p*, q*\np @ x\nq @ y").unwrap();
        let dt = xmlmap::dtd::parse("root w\nw -> out*\nout @ u, t").unwrap();

        // Random Σ12 from a small catalogue.
        let cat12 = [
            "r/a(x) --> m/p(x)",
            "r/b(x) --> m/q(x)",
            "r/a(x) --> m[p(x), q(z)]",
            "r/a(x) --> m/hub",
            "r[a(x), b(y)] --> m[p(x), q(y)]",
        ];
        let cat23 = [
            "m/p(x) --> w/out(x, z)",
            "m[p(x), q(y)] --> w/out(x, y)",
            "m/hub --> w/out(z1, z2)",
            "m/q(y) --> w/out(y, y)",
        ];
        use rand::Rng as _;
        let pick = |rng: &mut StdRng, cat: &[&str], n: usize| -> Vec<Std> {
            (0..n).map(|_| Std::parse(cat[rng.gen_range(0..cat.len())]).unwrap()).collect()
        };
        let m12 = Mapping::new(ds.clone(), dm.clone(), pick(&mut rng, &cat12, 2));
        let m23 = Mapping::new(dm, dt, pick(&mut rng, &cat23, 2));
        let s12 = SkolemMapping::from_mapping(&m12).unwrap();
        let s23 = SkolemMapping::from_mapping(&m23).unwrap();
        let s13 = compose(&s12, &s23).unwrap();

        // Sample source and final documents.
        let t1 = xmlmap::gen::random_tree(
            &ds,
            &TreeGenConfig { continue_probability: 0.4, value_pool: 2, max_nodes: 5 },
            &mut rng,
        );
        let t3 = {
            let dt = xmlmap::dtd::parse("root w\nw -> out*\nout @ u, t").unwrap();
            xmlmap::gen::random_tree(
                &dt,
                &TreeGenConfig { continue_probability: 0.4, value_pool: 2, max_nodes: 5 },
                &mut rng,
            )
        };
        let semantic = ctx().composition_member(&m12, &m23, &t1, &t3, 7).is_some();
        let syntactic = s13.is_solution(&t1, &t3);
        prop_assert_eq!(
            semantic, syntactic,
            "Thm 8.2 violated\nM12:\n{}\nM23:\n{}\ncomposed stds:\n{}\nT1:\n{:?}\nT3:\n{:?}",
            m12, m23,
            s13.stds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join("\n"),
            t1, t3
        );
    }

    /// Skolemisation preserves semantics when every target variable is
    /// shared (no existentials — no function symbols introduced).
    #[test]
    fn skolemisation_conservative(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = xmlmap::dtd::parse("root r\nr -> a*\na @ v").unwrap();
        let dt = xmlmap::dtd::parse("root w\nw -> c*\nc @ u").unwrap();
        let m = Mapping::new(ds.clone(), dt.clone(),
            vec![Std::parse("r/a(x) --> w/c(x)").unwrap()]);
        let sk = SkolemMapping::from_mapping(&m).unwrap();
        let t1 = xmlmap::gen::random_tree(
            &ds, &TreeGenConfig { continue_probability: 0.5, value_pool: 2, max_nodes: 5 },
            &mut rng);
        let t2 = xmlmap::gen::random_tree(
            &dt, &TreeGenConfig { continue_probability: 0.5, value_pool: 2, max_nodes: 5 },
            &mut rng);
        prop_assert_eq!(m.is_solution(&t1, &t2), sk.is_solution(&t1, &t2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hedge-automaton compilation of a DTD accepts exactly the
    /// conforming label structures (attributes are not modelled, so the
    /// DTD used for conformance here is attribute-free).
    #[test]
    fn dtd_automaton_equals_conformance(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let with_attrs = xmlmap::gen::random_nr_dtd(2, 3, 0.0, &mut rng);
        let automaton = xmlmap::automata::HedgeAutomaton::from_dtd(&with_attrs);
        // Random conforming documents are accepted…
        for _ in 0..5 {
            let t = xmlmap::gen::random_tree(
                &with_attrs,
                &TreeGenConfig { continue_probability: 0.5, value_pool: 1, max_nodes: 20 },
                &mut rng,
            );
            prop_assert!(automaton.accepts(&t), "automaton rejects a conforming tree");
        }
        // …and mutated documents agree with `conforms` either way.
        for _ in 0..5 {
            let mut t = xmlmap::gen::random_tree(
                &with_attrs,
                &TreeGenConfig { continue_probability: 0.5, value_pool: 1, max_nodes: 12 },
                &mut rng,
            );
            // Mutate: append a random-label child somewhere.
            use rand::Rng as _;
            let nodes: Vec<_> = t.nodes().collect();
            let at = nodes[rng.gen_range(0..nodes.len())];
            let labels: Vec<_> = with_attrs.alphabet().cloned().collect();
            let l = labels[rng.gen_range(0..labels.len())].clone();
            t.add_child(at, l, std::iter::empty::<(xmlmap::trees::Name, Value)>());
            prop_assert_eq!(automaton.accepts(&t), with_attrs.conforms(&t));
        }
    }

    /// Product automata decide joint conformance, and their witnesses
    /// conform to both DTDs.
    #[test]
    fn automaton_product_matches_joint_conformance(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d1 = xmlmap::gen::random_nr_dtd(1, 2, 0.0, &mut rng);
        let d2 = xmlmap::gen::random_nr_dtd(1, 2, 0.0, &mut rng);
        let product = xmlmap::automata::HedgeAutomaton::from_dtd(&d1)
            .product(&xmlmap::automata::HedgeAutomaton::from_dtd(&d2));
        match product.witness() {
            Some(w) => {
                prop_assert!(d1.conforms(&w) && d2.conforms(&w));
            }
            None => {
                // Then no sampled document of d1 conforms to d2.
                for _ in 0..5 {
                    let t = xmlmap::gen::random_tree(
                        &d1,
                        &TreeGenConfig { continue_probability: 0.4, value_pool: 1, max_nodes: 10 },
                        &mut rng,
                    );
                    prop_assert!(!d2.conforms(&t), "product empty but joint tree exists");
                }
            }
        }
    }
}

/// Random *general* (non-NR) DTDs and full-featured patterns, for
/// validating the consistency engine beyond the nested-relational world.
mod general_engine {
    use super::*;
    use xmlmap::patterns::{Pattern, SeqOp, Var};

    fn arb_general_dtd() -> impl Strategy<Value = Dtd> {
        let bodies = prop_oneof![
            Just("a*"),
            Just("a, b?"),
            Just("a|b"),
            Just("(a|b)*"),
            Just("a, a"),
            Just("b+, a?"),
        ];
        let inner = prop_oneof![Just(""), Just("c?"), Just("c*"), Just("c, c"), Just("a?")];
        (bodies, inner).prop_map(|(rb, ab)| {
            xmlmap::dtd::Dtd::builder("r")
                .production("r", rb)
                .production("a", ab)
                .attrs("c", ["v"])
                .build()
                .unwrap()
        })
    }

    fn arb_feature_pattern() -> impl Strategy<Value = Pattern> {
        let leaf = prop_oneof![
            Just(Pattern::leaf("a", Vec::<Var>::new())),
            Just(Pattern::leaf("b", Vec::<Var>::new())),
            Just(Pattern::leaf("c", ["x"])),
            Just(Pattern::wildcard(Vec::<Var>::new())),
        ];
        let sub = leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.child(q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.descendant(q)),
                (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(p, q, nx)| {
                    Pattern::leaf("r", Vec::<Var>::new()).seq(
                        vec![p, q],
                        vec![if nx { SeqOp::Next } else { SeqOp::Following }],
                    )
                }),
            ]
        });
        sub.prop_map(|body| match body.label {
            // Sequences built above are already rooted at r.
            xmlmap::patterns::LabelTest::Label(ref l) if l.as_str() == "r" => body,
            _ => Pattern::leaf("r", Vec::<Var>::new()).child(body),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The EXPTIME consistency engine vs. exhaustive small-model search
        /// on full-featured (⇓,⇒, wildcard) data-free mappings.
        #[test]
        fn engine_vs_bounded_on_general_mappings(
            ds in arb_general_dtd(),
            dt in arb_general_dtd(),
            src_pat in arb_feature_pattern(),
            tgt_pat in arb_feature_pattern(),
        ) {
            let m = Mapping::new(ds, dt, vec![Std::new(src_pat, tgt_pat)]);
            let ans = match ctx().consistent(&m, 2_000_000) {
                Ok(a) => a,
                Err(_) => return Ok(()), // budget blowup: skip
            };
            match ans {
                ConsAnswer::Consistent { source, target } => {
                    prop_assert!(
                        m.is_solution(&source, &target),
                        "engine witness fails verification\n{m}"
                    );
                }
                ConsAnswer::Inconsistent => {
                    // No small witness pair may exist.
                    let found = bounded::consistent_bounded(&m, 4, 4);
                    prop_assert!(
                        matches!(found, BoundedOutcome::ExhaustedBounds),
                        "engine says inconsistent but bounded search found a witness\n{m}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `subschema` agrees with document sampling: if D1 ⊆ D2, every sampled
    /// D1 document conforms to D2; otherwise the counterexample is genuine.
    #[test]
    fn subschema_vs_sampling(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d1 = xmlmap::gen::random_nr_dtd(2, 2, 0.0, &mut rng);
        let d2 = xmlmap::gen::random_nr_dtd(2, 2, 0.0, &mut rng);
        match ctx().subschema(&d1, &d2, 2_000_000) {
            Err(_) => {} // budget: skip
            Ok(None) => {
                for _ in 0..8 {
                    let t = xmlmap::gen::random_tree(
                        &d1,
                        &TreeGenConfig { continue_probability: 0.5, value_pool: 1, max_nodes: 15 },
                        &mut rng,
                    );
                    prop_assert!(
                        d2.conforms(&t),
                        "subschema claimed but a sampled document violates d2\n{d1}\n{d2}\n{t:?}"
                    );
                }
            }
            Ok(Some(xmlmap::automata::SubschemaViolation::Document(t))) => {
                prop_assert!(d1.conforms(&t), "counterexample must conform to d1");
                prop_assert!(!d2.conforms(&t), "counterexample must violate d2");
            }
            Ok(Some(xmlmap::automata::SubschemaViolation::AttributeMismatch { .. })) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Std::satisfied` implements Definition 3.1 exactly: a spec-level
    /// check built directly from `all_matches` on both sides must agree.
    #[test]
    fn std_satisfaction_matches_definition(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = xmlmap::dtd::parse("root r\nr -> a*, b*\na @ v\nb @ v, w").unwrap();
        let dt = xmlmap::dtd::parse("root w\nw -> c*\nc @ u, t").unwrap();
        let catalogue = [
            "r/a(x) --> w/c(x, z)",
            "r[a(x), b(y, u)] ; x = y --> w/c(x, u)",
            "r[a(x), a(y)] ; x != y --> w[c(x, z) ->* c(y, z)]",
            "r/b(x, y) --> w/c(x, z) ; z != y",
            "r[a(x) -> a(y)] --> w[c(x, q), c(y, q)]",
        ];
        use rand::Rng as _;
        let std = Std::parse(catalogue[rng.gen_range(0..catalogue.len())]).unwrap();
        let t1 = xmlmap::gen::random_tree(
            &ds,
            &TreeGenConfig { continue_probability: 0.5, value_pool: 2, max_nodes: 6 },
            &mut rng,
        );
        let t2 = xmlmap::gen::random_tree(
            &dt,
            &TreeGenConfig { continue_probability: 0.5, value_pool: 2, max_nodes: 6 },
            &mut rng,
        );

        // Spec: ∀ source match with α — ∃ target match extending the shared
        // bindings with α′.
        let shared: std::collections::BTreeSet<_> =
            std.shared_vars().into_iter().collect();
        let spec = xmlmap::patterns::all_matches(&t1, &std.source)
            .into_iter()
            .filter(|m| xmlmap::core::all_hold(&std.source_cond, m))
            .all(|m| {
                xmlmap::patterns::all_matches(&t2, &std.target)
                    .into_iter()
                    .any(|tm| {
                        shared.iter().all(|v| tm.get(v) == m.get(v))
                            && xmlmap::core::all_hold(&std.target_cond, &tm)
                    })
            });
        prop_assert_eq!(std.satisfied(&t1, &t2), spec, "std: {}\n{:?}\n{:?}", std, t1, t2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two independent implementations of P⁺/P⁻ satisfiability — the
    /// type-fixpoint engine and the automata route (pattern compilation +
    /// product + inclusion against the union of negatives) — must agree.
    #[test]
    fn engine_vs_automata_satisfiability(seed in any::<u64>()) {
        use xmlmap::automata::{inclusion_counterexample, pattern_automaton, HedgeAutomaton};
        let mut rng = StdRng::seed_from_u64(seed);
        let d = xmlmap::dtd::parse(
            "root r\nr -> (a|b)*\na -> c?\nb -> c?, a?\nc @ v",
        ).unwrap();
        let catalogue = [
            "r/a", "r/b", "r//c(x)", "r/a/c(x)", "r[a -> b]", "r[b ->* a]",
            "r[a, b]", "r/_[c(x)]", "r/b/a",
        ];
        use rand::Rng as _;
        let mut pick = || xmlmap::patterns::parse(
            catalogue[rng.gen_range(0..catalogue.len())]).unwrap();
        let pos = [pick(), pick()];
        let neg = [pick()];

        // Engine route.
        let engine = xmlmap::patterns::SatCache::new(&d).satisfiable_with_negations(
            &[&pos[0], &pos[1]], &[&neg[0]], 5_000_000,
        ).unwrap();

        // Automata route: DTD × A(pos…) ⊆ A(neg) ?  A counterexample is a
        // conforming tree matching all positives and no negative.
        let mut product = HedgeAutomaton::from_dtd(&d);
        for p in &pos {
            product = product.product(&pattern_automaton(&d, p));
        }
        let negatives = pattern_automaton(&d, &neg[0]);
        let alphabet: Vec<_> = d.alphabet().cloned().collect();
        let automata = inclusion_counterexample(&product, &negatives, &alphabet, 5_000_000)
            .expect("budget");

        prop_assert_eq!(
            engine.is_some(), automata.is_some(),
            "engine and automata disagree: pos={:?} neg={:?}",
            pos.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
            neg[0].to_string()
        );
        // Both witnesses check out against the evaluator (attribute-blind
        // automata witness needs attributes filled per the DTD).
        if let Some(w) = engine {
            prop_assert!(d.conforms(&w));
            for p in &pos {
                prop_assert!(xmlmap::patterns::matches(&w, p));
            }
            prop_assert!(!xmlmap::patterns::matches(&w, &neg[0]));
        }
    }
}
