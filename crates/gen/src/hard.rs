//! Hard instance families.
//!
//! The paper's lower bounds (EXPTIME-, PSPACE-, NEXPTIME-, Π₂ᵖ-hardness)
//! are statements about *families* of inputs; these constructors build
//! families that exhibit the corresponding blow-ups in our implementations,
//! so the benches can plot the growth shapes behind Figures 1 and 2.

use xmlmap_core::{Mapping, Std};
use xmlmap_dtd::Dtd;
use xmlmap_patterns::{Pattern, SeqOp, Var};
use xmlmap_trees::Tree;

fn dtd(s: &str) -> Dtd {
    xmlmap_dtd::parse(s).expect("static DTD")
}

fn pat(s: &str) -> Pattern {
    xmlmap_patterns::parse(s).expect("static pattern")
}

/// `CONS(⇓)` worst case (Fact 5.1, EXPTIME): `n` independent optional
/// source patterns whose target sides are all unsatisfiable — deciding
/// *inconsistent* forces the procedure through every achievable match set
/// (2ⁿ − 1 of them; only the empty set has a satisfiable target side, and
/// the root production forbids the empty document).
pub fn cons_exptime(n: usize) -> Mapping {
    let labels: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let ds = dtd(&format!("root r\nr -> ({})+", labels.join("|")));
    let dt = dtd("root r\nr -> c");
    let stds = (0..n)
        .map(|i| Std::new(pat(&format!("r/a{i}")), pat("r/impossible")))
        .collect();
    Mapping::new(ds, dt, stds)
}

/// `CONS(⇓,→)` over nested-relational DTDs (Prop 5.3, PSPACE-hard):
/// next-sibling chains of growing length over a starred slot. The sequence
/// acceptors multiply inside the type-fixpoint machine.
pub fn cons_nextsib(n: usize) -> Mapping {
    let ds = dtd("root r\nr -> (a|b)*");
    let dt = dtd("root r\nr -> t?");
    let stds = (1..=n)
        .map(|i| {
            // source: a chain a → b → a → b … of length i+1.
            let members: Vec<Pattern> = (0..=i)
                .map(|k| Pattern::leaf(if k % 2 == 0 { "a" } else { "b" }, Vec::<Var>::new()))
                .collect();
            let ops = vec![SeqOp::Next; i];
            let source = Pattern::leaf("r", Vec::<Var>::new()).seq(members, ops);
            Std::new(source, pat("r/t"))
        })
        .collect();
    Mapping::new(ds, dt, stds)
}

/// Pattern-satisfiability blow-up (Lemma 4.1, NP): `n` descendant
/// obligations over a recursive DTD — the engine's subtree-type lattice has
/// 2ⁿ achievable points. Returns `(dtd, pattern)`.
pub fn sat_hard(n: usize) -> (Dtd, Pattern) {
    let leaves: Vec<String> = (0..n).map(|i| format!("a{i}?")).collect();
    let d = dtd(&format!("root r\nr -> u\nu -> u?, {}", leaves.join(", ")));
    let mut p = Pattern::leaf("r", Vec::<Var>::new());
    for i in 0..n {
        p = p.descendant(Pattern::leaf(format!("a{i}").as_str(), Vec::<Var>::new()));
    }
    (d, p)
}

/// Membership combined-complexity family (Thm 4.3, Π₂ᵖ): one std with `n`
/// source variables — an adjacent source window whose target demands the
/// same values in document order. Checking a pair of documents matches an
/// `n`-variable conjunctive pattern on both sides.
pub fn membership_vars(n: usize) -> Mapping {
    let ds = dtd("root r\nr -> a*\na @ v");
    let dt = dtd("root r\nr -> b*\nb @ w");
    let src_members: Vec<Pattern> = (0..n)
        .map(|i| Pattern::leaf("a", [format!("x{i}")]))
        .collect();
    let source = if n == 0 {
        Pattern::leaf("r", Vec::<Var>::new())
    } else {
        let ops = vec![SeqOp::Next; n - 1];
        Pattern::leaf("r", Vec::<Var>::new()).seq(src_members, ops)
    };
    let tgt_members: Vec<Pattern> = (0..n)
        .map(|i| Pattern::leaf("b", [format!("x{i}")]))
        .collect();
    let target = if n == 0 {
        Pattern::leaf("r", Vec::<Var>::new())
    } else {
        let ops = vec![SeqOp::Following; n - 1];
        Pattern::leaf("r", Vec::<Var>::new()).seq(tgt_members, ops)
    };
    Mapping::new(ds, dt, vec![Std::new(source, target)])
}

/// A genuinely hard membership family (Thm 4.3, Π₂ᵖ): `n` *independent*
/// source variables — every combination of source values is a firing — with
/// an order-constrained target. Checking membership enumerates `kⁿ`
/// firings over `k` distinct source values.
pub fn membership_vars_hard(n: usize) -> Mapping {
    let ds = dtd("root r\nr -> a*\na @ v");
    let dt = dtd("root r\nr -> b*\nb @ w");
    let mut source = Pattern::leaf("r", Vec::<Var>::new());
    for i in 0..n {
        source = source.child(Pattern::leaf("a", [format!("x{i}")]));
    }
    let members: Vec<Pattern> = (0..n)
        .map(|i| Pattern::leaf("b", [format!("x{i}")]))
        .collect();
    let target = if n == 0 {
        Pattern::leaf("r", Vec::<Var>::new())
    } else {
        let ops = vec![SeqOp::Following; n - 1];
        Pattern::leaf("r", Vec::<Var>::new()).seq(members, ops)
    };
    Mapping::new(ds, dt, vec![Std::new(source, target)])
}

/// A positive instance for [`membership_vars_hard`]: `k` distinct source
/// values; the target repeats the full value block `n` times, so every
/// length-`n` value sequence occurs in order.
pub fn membership_hard_instance(n: usize, k: usize) -> (Tree, Tree) {
    let mut t1 = Tree::new("r");
    let mut t3 = Tree::new("r");
    for i in 0..k {
        t1.add_child(
            Tree::ROOT,
            "a",
            [("v", xmlmap_trees::Value::str(format!("v{i}")))],
        );
    }
    for _ in 0..n.max(1) {
        for i in 0..k {
            t3.add_child(
                Tree::ROOT,
                "b",
                [("w", xmlmap_trees::Value::str(format!("v{i}")))],
            );
        }
    }
    (t1, t3)
}

/// Source/target documents for [`membership_vars`]: `k` source values and
/// the target holding them in order (a positive instance).
pub fn membership_instance(k: usize) -> (Tree, Tree) {
    let mut t1 = Tree::new("r");
    let mut t3 = Tree::new("r");
    for i in 0..k {
        t1.add_child(
            Tree::ROOT,
            "a",
            [("v", xmlmap_trees::Value::str(format!("v{i}")))],
        );
        t3.add_child(
            Tree::ROOT,
            "b",
            [("w", xmlmap_trees::Value::str(format!("v{i}")))],
        );
    }
    (t1, t3)
}

/// A copy chain for composition benches: `M₁₂ : a→b`, `M₂₃ : b→c` over
/// starred slots, with `extra` additional independent stds on each side to
/// grow the mapping size.
pub fn compose_chain(extra: usize) -> (Mapping, Mapping) {
    let mk_labels = |prefix: &str| -> String {
        let mut parts = vec![format!("{prefix}0*")];
        parts.extend((1..=extra).map(|i| format!("{prefix}{i}*")));
        parts.join(", ")
    };
    let ds = dtd(&format!(
        "root r\nr -> {}\n{}",
        mk_labels("a"),
        (0..=extra)
            .map(|i| format!("a{i} @ v"))
            .collect::<Vec<_>>()
            .join("\n")
    ));
    let dm = dtd(&format!(
        "root m\nm -> {}\n{}",
        mk_labels("b"),
        (0..=extra)
            .map(|i| format!("b{i} @ w"))
            .collect::<Vec<_>>()
            .join("\n")
    ));
    let dt = dtd(&format!(
        "root w\nw -> {}\n{}",
        mk_labels("c"),
        (0..=extra)
            .map(|i| format!("c{i} @ u"))
            .collect::<Vec<_>>()
            .join("\n")
    ));
    let m12 = Mapping::new(
        ds,
        dm.clone(),
        (0..=extra)
            .map(|i| Std::parse(&format!("r/a{i}(x) --> m/b{i}(x)")).unwrap())
            .collect(),
    );
    let m23 = Mapping::new(
        dm,
        dt,
        (0..=extra)
            .map(|i| Std::parse(&format!("m/b{i}(x) --> w/c{i}(x)")).unwrap())
            .collect(),
    );
    (m12, m23)
}

/// Absolute-consistency PTIME family (Thm 6.3): chain DTDs of depth `n`
/// with one std per level, all inside the tractable fragment.
pub fn abscons_chain(n: usize) -> Mapping {
    let mut src_lines = vec!["root r".to_string()];
    let mut parent = "r".to_string();
    for i in 0..n {
        src_lines.push(format!("{parent} -> s{i}*"));
        src_lines.push(format!("s{i} @ v"));
        parent = format!("s{i}");
    }
    let mut tgt_lines = vec!["root r".to_string()];
    let mut tparent = "r".to_string();
    for i in 0..n {
        tgt_lines.push(format!("{tparent} -> t{i}*"));
        tgt_lines.push(format!("t{i} @ w"));
        tparent = format!("t{i}");
    }
    let ds = dtd(&src_lines.join("\n"));
    let dt = dtd(&tgt_lines.join("\n"));
    let stds = (0..n)
        .map(|i| {
            let src_path: String = (0..=i).fold("r".to_string(), |acc, k| {
                if k == i {
                    format!("{acc}/s{k}(x)")
                } else {
                    format!("{acc}/s{k}(y{k})")
                }
            });
            let tgt_path: String = (0..=i).fold("r".to_string(), |acc, k| {
                if k == i {
                    format!("{acc}/t{k}(x)")
                } else {
                    format!("{acc}/t{k}(z{k})")
                }
            });
            Std::parse(&format!("{src_path} --> {tgt_path}")).unwrap()
        })
        .collect();
    Mapping::new(ds, dt, stds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_core::EngineContext;

    #[test]
    fn cons_exptime_family_is_inconsistent() {
        for n in 1..=3 {
            let m = cons_exptime(n);
            let ans = EngineContext::new().consistent(&m, 2_000_000).unwrap();
            assert!(!ans.is_consistent(), "n={n}");
        }
    }

    #[test]
    fn cons_nextsib_family_is_consistent() {
        for n in 1..=3 {
            let m = cons_nextsib(n);
            let ans = EngineContext::new().consistent(&m, 2_000_000).unwrap();
            assert!(ans.is_consistent(), "n={n}");
        }
    }

    #[test]
    fn sat_hard_family_is_satisfiable() {
        for n in 1..=4 {
            let (d, p) = sat_hard(n);
            let w = xmlmap_patterns::SatCache::new(&d)
                .satisfiable(&p, 2_000_000)
                .unwrap()
                .expect("satisfiable");
            assert!(d.conforms(&w));
            assert!(xmlmap_patterns::matches(&w, &p));
        }
    }

    #[test]
    fn membership_family_behaves() {
        for n in 1..=3 {
            let m = membership_vars(n);
            let (t1, t3) = membership_instance(n);
            assert!(m.is_solution(&t1, &t3), "n={n}");
            // Reversed target violates the order constraint for n ≥ 2
            // (two or more values must appear in document order).
            if n >= 2 {
                let mut rev = Tree::new("r");
                for i in (0..n).rev() {
                    rev.add_child(
                        Tree::ROOT,
                        "b",
                        [("w", xmlmap_trees::Value::str(format!("v{i}")))],
                    );
                }
                assert!(!m.is_solution(&t1, &rev), "n={n}");
            }
        }
    }

    #[test]
    fn membership_hard_family_behaves() {
        for n in 1..=3 {
            let m = membership_vars_hard(n);
            let (t1, t3) = membership_hard_instance(n, 2);
            assert!(m.is_solution(&t1, &t3), "n={n}");
        }
        // A target missing a value is not a solution.
        let m = membership_vars_hard(2);
        let (t1, _) = membership_hard_instance(2, 2);
        let mut bad = Tree::new("r");
        bad.add_child(Tree::ROOT, "b", [("w", xmlmap_trees::Value::str("v0"))]);
        assert!(!m.is_solution(&t1, &bad));
    }

    #[test]
    fn compose_chain_composes() {
        let (m12, m23) = compose_chain(1);
        let s12 = xmlmap_core::SkolemMapping::from_mapping(&m12).unwrap();
        let s23 = xmlmap_core::SkolemMapping::from_mapping(&m23).unwrap();
        let s13 = xmlmap_core::compose(&s12, &s23).unwrap();
        assert_eq!(s13.stds.len(), 2);
    }

    #[test]
    fn abscons_chain_is_absolutely_consistent() {
        for n in 1..=4 {
            let m = abscons_chain(n);
            let ans = xmlmap_core::abscons_nr_ptime(&m).expect("fragment");
            assert!(ans.holds(), "n={n}");
        }
    }
}
