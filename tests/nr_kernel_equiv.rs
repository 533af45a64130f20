//! Differential test: the nested-relational kernel (`NrKernel`, Fact 5.1
//! and Thm 6.3) against the general type-fixpoint engine
//! (`SatCache::satisfiable`, Lemma 4.1) on seeded random schemas.
//!
//! The patterns are the std sources and targets of `random_nr_mapping`,
//! each asked of its own schema and of the other one (the generator
//! reuses label names, so many are unsatisfiable there), plus variants
//! the generator never emits: `//` items, `_` labels, arity-mismatched
//! variable tuples and labels outside the alphabet. The kernel's rigidity,
//! repeatability and tree-shape bits are checked against the
//! `NestedRelationalView` they are derived from.
//! Outside the fragment — horizontal axes, DTDs that are not
//! nested-relational — the kernel must answer `None`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlmap::dtd::Dtd;
use xmlmap::gen::mappings::{random_nr_dtd, random_nr_mapping, MappingGenConfig};
use xmlmap::patterns::{LabelTest, ListItem, NrKernel, Pattern, SatCache, SeqOp};
use xmlmap::trees::Name;

const BUDGET: usize = 1_000_000;
const SEEDS: u64 = 16;

/// Nested-relational but not tree-shaped: `c` sits under `a`, `b` and `d`.
const SHARED: &str = "root r
r -> a*, b?, e
a -> c
b -> c+, d
d -> c?
e -> d*
c @ v
d @ u, w";

/// Applies `f` to the pattern node at preorder index `target`.
fn at_node(p: &mut Pattern, target: usize, next: &mut usize, f: &mut dyn FnMut(&mut Pattern)) {
    if *next == target {
        f(p);
    }
    *next += 1;
    for item in &mut p.list {
        match item {
            ListItem::Seq { members, .. } => {
                for m in members {
                    at_node(m, target, next, f);
                }
            }
            ListItem::Descendant(d) => at_node(d, target, next, f),
        }
    }
}

/// `p` with `f` applied at a random node.
fn mutate(p: &Pattern, rng: &mut StdRng, f: &mut dyn FnMut(&mut Pattern)) -> Pattern {
    let mut q = p.clone();
    let target = rng.gen_range(0..p.size());
    at_node(&mut q, target, &mut 0, f);
    q
}

/// The variants of `p`: a wildcard node, a child item turned into `//`,
/// an extra `//ℓ` item, a variable tuple one too long, one too short (when
/// that leaves it non-empty), and a child outside the alphabet.
fn variants(p: &Pattern, labels: &[Name], rng: &mut StdRng) -> Vec<Pattern> {
    let label = labels[rng.gen_range(0..labels.len())].clone();
    let mut out = vec![
        mutate(p, rng, &mut |n| n.label = LabelTest::Wildcard),
        mutate(p, rng, &mut |n| {
            if let Some(ListItem::Seq { members, .. }) = n.list.first() {
                n.list[0] = ListItem::Descendant(members[0].clone());
            }
        }),
        mutate(p, rng, &mut |n| {
            n.list.push(ListItem::Descendant(Pattern::leaf(
                label.clone(),
                [] as [Name; 0],
            )))
        }),
        mutate(p, rng, &mut |n| n.vars.push(Name::new("extra"))),
        mutate(p, rng, &mut |n| {
            if n.vars.len() >= 2 {
                n.vars.pop();
            }
        }),
        mutate(p, rng, &mut |n| {
            n.list.push(ListItem::Seq {
                members: vec![Pattern::leaf("nosuch", [] as [Name; 0])],
                ops: Vec::new(),
            })
        }),
    ];
    // Wildcards with variables: arity is still checked at `_`.
    out.push(mutate(p, rng, &mut |n| {
        n.label = LabelTest::Wildcard;
        n.vars.push(Name::new("extra"));
    }));
    out
}

fn check(dtd: &Dtd, kernel: &NrKernel, cache: &SatCache, p: &Pattern, ctx: &str) -> bool {
    let fast = kernel.satisfiable(p).expect("downward pattern, NR DTD");
    let slow = SatCache::new(dtd).satisfiable(p, BUDGET).unwrap().is_some();
    assert_eq!(fast, slow, "{ctx}: {p} over\n{dtd}");
    // A freshly compiled kernel answers what the reused one does.
    let fresh = NrKernel::new(dtd).expect("NR DTD").satisfiable(p);
    assert_eq!(fresh, Some(fast), "{ctx}: {p}");
    assert_eq!(
        cache.nr_kernel().expect("NR DTD").satisfiable(p),
        Some(fast),
        "{ctx}: {p}"
    );
    fast
}

#[test]
fn nr_kernel_agrees_with_type_fixpoint_on_random_schemas() {
    let config = MappingGenConfig {
        stds: 4,
        depth: 3,
        branch_probability: 0.6,
    };
    let (mut yes, mut no) = (0usize, 0usize);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let d1 = random_nr_dtd(3, 3, 0.5, &mut rng);
        let d2 = if seed % 4 == 0 {
            xmlmap::dtd::parse(SHARED).unwrap()
        } else {
            random_nr_dtd(3, 3, 0.5, &mut rng)
        };
        let m = random_nr_mapping(&d1, &d2, &config, &mut rng).expect("NR DTDs");
        let schemas = [&m.source_dtd, &m.target_dtd];
        let kernels = schemas.map(|d| NrKernel::new(d).expect("NR DTD"));
        let caches = schemas.map(SatCache::new);
        // The kernel's bits equal the view's answers: the memoized
        // rigidity pass its path walk.
        for (d, kernel) in schemas.iter().zip(&kernels) {
            let view = d.nested_relational().unwrap();
            assert_eq!(kernel.is_tree_shaped(), view.is_tree_shaped());
            for l in d.labels() {
                assert_eq!(kernel.is_rigid(l), view.is_rigid(l), "seed {seed}: {l}");
                let repeatable = view.mult(l).is_some_and(|m| m.repeatable());
                assert_eq!(kernel.is_repeatable(l), repeatable, "seed {seed}: {l}");
            }
        }
        for (i, std) in m.stds.iter().enumerate() {
            for (side, p) in [("source", &std.source), ("target", &std.target)] {
                let mut patterns = vec![p.clone()];
                for d in schemas {
                    patterns.extend(variants(p, d.labels(), &mut rng));
                }
                for (k, q) in patterns.iter().enumerate() {
                    for (s, d) in schemas.iter().enumerate() {
                        let ctx = format!("seed {seed} std #{i} {side} variant {k} schema {s}");
                        if check(d, &kernels[s], &caches[s], q, &ctx) {
                            yes += 1;
                        } else {
                            no += 1;
                        }
                    }
                }
            }
        }
    }
    // Both verdicts are well represented, so agreement means something.
    assert!(yes > 300 && no > 300, "{yes} satisfiable, {no} not");
}

#[test]
fn nr_kernel_is_none_outside_the_fragment() {
    let mut rng = StdRng::seed_from_u64(7);
    let d = random_nr_dtd(2, 3, 0.5, &mut rng);
    let kernel = NrKernel::new(&d).expect("NR DTD");
    let kids = d.nested_relational().unwrap().slots(d.root()).to_vec();
    let (a, b) = (&kids[0].0, &kids[kids.len() - 1].0);
    for op in [SeqOp::Next, SeqOp::Following] {
        let seq = Pattern::leaf(d.root().clone(), [] as [Name; 0]).seq(
            vec![
                Pattern::leaf(a.clone(), [] as [Name; 0]),
                Pattern::leaf(b.clone(), [] as [Name; 0]),
            ],
            vec![op],
        );
        assert_eq!(kernel.satisfiable(&seq), None, "{seq}");
        // Nested below a `//` item, too.
        let deep = Pattern::wildcard([] as [Name; 0]).descendant(seq.clone());
        assert_eq!(kernel.satisfiable(&deep), None, "{deep}");
        let fresh = NrKernel::new(&d).expect("NR DTD").satisfiable(&deep);
        assert_eq!(fresh, None, "{deep}");
    }
    for not_nr in [
        "root r\nr -> a|b",
        "root r\nr -> a, a",
        "root r\nr -> a\na -> a?",
        "root r\nr -> (a, b)*",
    ] {
        let d = xmlmap::dtd::parse(not_nr).unwrap();
        assert!(NrKernel::new(&d).is_none(), "{not_nr}");
        assert!(SatCache::new(&d).nr_kernel().is_none(), "{not_nr}");
    }
}
