//! Differential tests: the compiled chase engine (`chase::compiled`,
//! reached through `canonical_solution`) against the naive reference
//! chaser (`chase::reference`), on randomly generated mappings × documents.
//!
//! The two engines must agree on the *outcome variant* — success, or which
//! [`ChaseError`] the chase fails with — and, on success, produce solutions
//! that are identical up to a renaming of the fresh nulls
//! ([`isomorphic_mod_nulls`]). The generated block drives fully-specified
//! downward mappings sampled from random nested-relational DTDs with a
//! deliberately tiny value pool (so rigid-slot `ValueConflict`s and α′₌
//! merges actually happen); the catalogue block adds hand-written stds with
//! source `=`/`≠` filters and target `=`/`≠` conditions, which the
//! generator never emits. Every disagreement is a bug in one engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlmap::core::chase::{reference, ChaseCache};
use xmlmap::core::{canonical_solution, canonical_solution_cached};
use xmlmap::gen::{MappingGenConfig, TreeGenConfig};
use xmlmap::prelude::*;
use xmlmap::trees::isomorphic_mod_nulls;

/// Checks one (mapping, source) case against the reference engine, using
/// `cache` for the compiled side (callers reuse it across sources to also
/// exercise cache sharing).
fn check_case(m: &Mapping, source: &xmlmap::trees::Tree, cache: &ChaseCache) {
    let expected = reference::canonical_solution(m, source);
    let got = canonical_solution_cached(m, source, cache);
    match (&expected, &got) {
        (Ok(a), Ok(b)) => {
            assert!(
                isomorphic_mod_nulls(a, b),
                "solutions differ beyond null renaming\nmapping: {m:?}\n\
                 source: {source:?}\nreference:\n{a:?}\ncompiled:\n{b:?}"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "error variants differ\nmapping: {m:?}\nsource: {source:?}\n\
                 reference: {a}\ncompiled: {b}"
            );
        }
        _ => panic!(
            "outcome mismatch\nmapping: {m:?}\nsource: {source:?}\n\
             reference: {expected:?}\ncompiled: {got:?}"
        ),
    }
    // The uncached wrapper is the same engine with a fresh cache.
    let uncached = canonical_solution(m, source);
    match (&got, &uncached) {
        (Ok(a), Ok(b)) => assert!(isomorphic_mod_nulls(a, b)),
        (Err(a), Err(b)) => {
            assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b))
        }
        _ => panic!("cached and uncached compiled runs disagree"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Generated nested-relational mappings over generated documents.
    #[test]
    fn compiled_chase_matches_reference(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let ds = xmlmap::gen::random_nr_dtd(2, 2, 0.7, &mut rng);
        let dt = xmlmap::gen::random_nr_dtd(rng.gen_range(1..=3), 2, 0.7, &mut rng);
        let Some(m) = xmlmap::gen::random_nr_mapping(
            &ds,
            &dt,
            &MappingGenConfig {
                stds: rng.gen_range(1..=3),
                depth: 3,
                branch_probability: 0.7,
            },
            &mut rng,
        ) else {
            return Ok(());
        };
        let config = TreeGenConfig {
            continue_probability: 0.6,
            value_pool: 2, // collisions galore: rigid slots conflict often
            max_nodes: 60,
        };
        let cache = ChaseCache::new(&m);
        for _ in 0..3 {
            let source = xmlmap::gen::random_tree(&ds, &config, &mut rng);
            check_case(&m, &source, &cache);
        }
    }
}

/// Hand-written stds covering what the generator never produces: source
/// `=`/`≠` filters, target `=`/`≠` conditions, repeated labels in
/// productions, rigid (non-repeatable) target slots, unembeddable and
/// outside-fragment target patterns.
const CATALOGUE: &[(&str, &str, &[&str])] = &[
    // Source ≠ filter into a rigid slot: fires 0, 1 or 2 times.
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b\nb @ w",
        &["r[a(x) ->* a(y)] ; x != y --> r/b(x)"],
    ),
    // Source = filter, repeatable target.
    (
        "root r\nr -> a*\na @ v, w",
        "root r\nr -> b*\nb @ u",
        &["r/a(x, y) ; x = y --> r/b(x)"],
    ),
    // Target equality chains an existential to a source value.
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b*\nb @ x, y",
        &["r/a(x) --> r[b(x, z)] ; z = x"],
    ),
    // Target inequality: violated exactly when the chain closes.
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b*\nb @ x, y",
        &["r/a(x) --> r[b(x, z)] ; z = x, z != x"],
    ),
    // Satisfiable target inequality between two existentials.
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b*\nb @ x, y",
        &["r/a(x) --> r[b(x, z)] ; z != x"],
    ),
    // Two stds sharing a rigid slot: cross-std value conflicts.
    (
        "root r\nr -> a*, c?\na @ v\nc @ u",
        "root r\nr -> b\nb @ w",
        &["r/a(x) --> r/b(x)", "r/c(y) --> r/b(y)"],
    ),
    // Equalities forced by α′₌ between two shared variables.
    (
        "root r\nr -> a*\na @ v, w",
        "root r\nr -> b*\nb @ u",
        &["r/a(x, y) --> r[b(x)] ; x = y"],
    ),
    // Unembeddable target pattern (only reached if the std fires).
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b\nb @ w",
        &["r/a(x) --> r/nosuch(x)"],
    ),
    // Outside the fragment: descendant in the target.
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b*\nb @ w",
        &["r/a(x) --> r//b(x)"],
    ),
    // Deep completion: mandatory grandchildren materialize unfired.
    (
        "root r\nr -> a*\na @ v",
        "root r\nr -> b, c?\nb -> d\nd @ w\nc @ u",
        &["r/a(x) --> r/b/d(x)"],
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Catalogue mappings over random conforming documents.
    #[test]
    fn catalogue_chase_matches_reference(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let (ds, dt, stds) = CATALOGUE[rng.gen_range(0..CATALOGUE.len())];
        let m = Mapping::new(
            xmlmap::dtd::parse(ds).unwrap(),
            xmlmap::dtd::parse(dt).unwrap(),
            stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
        );
        let config = TreeGenConfig {
            continue_probability: 0.55,
            value_pool: 2,
            max_nodes: 30,
        };
        let cache = ChaseCache::new(&m);
        for _ in 0..3 {
            let source = xmlmap::gen::random_tree(&m.source_dtd, &config, &mut rng);
            check_case(&m, &source, &cache);
        }
    }
}

/// Solution reduction's duplicate test as it was before it hashed
/// subtrees: a `{:?}` fingerprint per repeatable child, checked by a
/// linear scan over the earlier siblings' fingerprints.
fn fingerprint_reduce(m: &Mapping, solution: &Tree) -> Tree {
    use xmlmap::dtd::{Mult, NestedRelationalView};
    fn rebuild(src: &Tree, node: NodeId, nr: &NestedRelationalView, out: &mut Tree, at: NodeId) {
        let mut seen: Vec<(Name, String)> = Vec::new();
        for &child in src.children(node) {
            let label = src.label(child).clone();
            if nr.mult(&label).is_some_and(Mult::repeatable) {
                let fingerprint = format!("{:?}", src.subtree(child));
                if seen.contains(&(label.clone(), fingerprint.clone())) {
                    continue;
                }
                seen.push((label.clone(), fingerprint));
            }
            let new_child = out.add_child(at, label, src.attrs(child).iter().cloned());
            rebuild(src, child, nr, out, new_child);
        }
    }
    let nr = m
        .target_dtd
        .nested_relational()
        .expect("nested-relational target");
    let mut out = Tree::with_root_attrs(
        solution.label(Tree::ROOT).clone(),
        solution.attrs(Tree::ROOT).iter().cloned(),
    );
    rebuild(solution, Tree::ROOT, &nr, &mut out, Tree::ROOT);
    out
}

/// The hashed reduction keeps exactly the children the fingerprint scan
/// kept, on seeded university and exchange sources whose professors are
/// duplicated — verbatim, which the chase's firing dedup absorbs, and
/// renamed, which only the reduction can merge — under the paper's stds
/// and under stds that project the professor away or invent nulls (whose
/// ids keep otherwise equal subtrees apart).
#[test]
fn reduction_matches_the_fingerprint_dedup() {
    const COURSES: &str = "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]]]]";
    const STUDENTS: &str = "r[prof(x)[supervise[student(s)]]]";
    let std_sets = [
        [
            format!("{COURSES} --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)]]"),
            format!("{STUDENTS} --> r[student(s)[supervisor(x)]]"),
        ],
        [
            format!("{COURSES} --> r[course(cn1, y)[taughtby(y)], course(cn2, y)[taughtby(t)]]"),
            format!("{STUDENTS} --> r[student(s)[supervisor(n)]]"),
        ],
    ];
    let (mut merged, mut nulls) = (0, 0);
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let profs = rng.gen_range(1..=6);
        let students = rng.gen_range(0..=3);
        let exchange = seed % 2 == 1;
        let (source_dtd, mut src) = if exchange {
            let pads = rng.gen_range(0..=3);
            let tree = xmlmap::gen::trees::exchange_tree(profs, students, pads);
            (xmlmap::gen::trees::exchange_source_dtd(), tree)
        } else {
            let tree = xmlmap::gen::university_tree(profs, students);
            (xmlmap::gen::university_dtd(), tree)
        };
        for copy in 0..rng.gen_range(1..=2 * profs) {
            let original = src.children(Tree::ROOT)[rng.gen_range(0..profs)];
            let mut twin = src.subtree(original);
            if rng.gen_range(0..2) == 1 {
                twin.set_attr(Tree::ROOT, "name", format!("copy{copy}"));
            }
            let at = rng.gen_range(0..=profs);
            src.graft_at(Tree::ROOT, at, &twin);
        }
        for stds in &std_sets {
            let m = Mapping::new(
                source_dtd.clone(),
                xmlmap::gen::university_target_dtd(),
                stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
            );
            let solution = canonical_solution(&m, &src).unwrap();
            let reduced = xmlmap::core::reduce_solution(&m, &solution);
            let expected = fingerprint_reduce(&m, &solution);
            assert_eq!(
                format!("{reduced:?}"),
                format!("{expected:?}"),
                "seed {seed}"
            );
            merged += solution.size() - reduced.size();
            nulls += solution.data_values().filter(|v| v.is_null()).count();
        }
    }
    assert!(merged > 0, "some duplicates were merged");
    assert!(nulls > 0, "some solutions hold nulls");
}
