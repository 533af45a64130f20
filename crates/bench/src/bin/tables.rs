//! Prints the paper-style empirical grids (Figures 1 and 2) with measured
//! wall-clock times per cell. The output of this binary (in `--release`) is
//! what `EXPERIMENTS.md` records.

use std::hint::black_box;
use xmlmap_bench::{fmt_duration, median, time_cell};
use xmlmap_core::{bounded, consistency, EngineContext, SkolemMapping};
use xmlmap_gen::hard;
use xmlmap_patterns::{NrKernel, Pattern, SatCache, Valuation, Var};
use xmlmap_trees::{Tree, Value};

const BUDGET: usize = 200_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--json") {
        let capture = args.iter().any(|a| a == "--capture-baseline");
        let gate = args
            .iter()
            .position(|a| a == "--gate")
            .and_then(|i| args.get(i + 1))
            .cloned();
        if !xmlmap_bench::micro::run_json(capture, gate.as_deref()) {
            std::process::exit(1);
        }
        return;
    }
    figure1();
    figure2();
    lemma41();
    thm82();
    ablation();
}

fn header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// The copy chain's documents over `k` values: `r` with `k` `a0(v)`
/// children and `w` with the matching `c0(u)` children.
fn copy_chain_docs(k: usize) -> (Tree, Tree) {
    let mut t1 = Tree::new("r");
    let mut t3 = Tree::new("w");
    for i in 0..k {
        t1.add_child(Tree::ROOT, "a0", [("v", Value::str(format!("v{i}")))]);
        t3.add_child(Tree::ROOT, "c0", [("u", Value::str(format!("v{i}")))]);
    }
    (t1, t3)
}

fn figure1() {
    header("Figure 1 — consistency results (measured growth per cell)");

    println!("\nCONS(⇓) over nested-relational DTDs — paper: PTIME (cubic)");
    println!("{:>8} {:>12} {:>14}", "n", "stds", "time");
    for n in [4usize, 8, 16, 32, 64, 128] {
        let m = hard::abscons_chain(n);
        assert!(consistency::consistent_nr_ptime(&m).unwrap());
        let d = median(|| {
            black_box(consistency::consistent_nr_ptime(&m));
        });
        println!("{n:>8} {:>12} {:>14}", m.stds.len(), fmt_duration(d));
    }

    println!("\nCONS(⇓) over arbitrary DTDs, hard family — paper: EXPTIME-complete");
    println!("{:>8} {:>12} {:>14}", "n", "match sets", "time");
    for n in [2usize, 4, 6, 8, 10] {
        let m = hard::cons_exptime(n);
        let cons = || EngineContext::new().consistent(&m, BUDGET).unwrap();
        assert!(!cons().is_consistent());
        let d = median(|| {
            black_box(cons());
        });
        println!("{n:>8} {:>12} {:>14}", (1u64 << n) - 1, fmt_duration(d));
    }

    println!("\nCONS(⇓,→) over NR DTDs, chain family — paper: PSPACE-hard");
    println!("{:>8} {:>14}", "n", "time");
    for n in [1usize, 2, 3, 4, 5] {
        let m = hard::cons_nextsib(n);
        let cons = || EngineContext::new().consistent(&m, BUDGET).unwrap();
        assert!(cons().is_consistent());
        let d = median(|| {
            black_box(cons());
        });
        println!("{n:>8} {:>14}", fmt_duration(d));
    }

    println!("\nCONS(⇓,∼) — paper: undecidable (Thm 5.4); bounded semi-procedure");
    println!("(inconsistent instance: the search exhausts all documents up to the bound)");
    println!("{:>8} {:>14}", "bound", "time");
    let m = xmlmap_core::Mapping::new(
        xmlmap_dtd::parse("root r\nr -> a+\na @ v").unwrap(),
        xmlmap_dtd::parse("root r\nr -> b\nb @ w").unwrap(),
        vec![
            xmlmap_core::Std::parse("r/a(x) --> r/b(x)").unwrap(),
            xmlmap_core::Std::parse("r[a(x), a(y)] ; x != y --> r/nosuch(x)").unwrap(),
            xmlmap_core::Std::parse("r[a(x), a(y)] ; x = y --> r/nosuch(x)").unwrap(),
        ],
    );
    for bound in [2usize, 3, 4, 5] {
        let (out, d) = time_cell(|| bounded::consistent_bounded(&m, bound, bound + 1));
        assert!(matches!(out, bounded::BoundedOutcome::ExhaustedBounds));
        println!("{bound:>8} {:>14}", fmt_duration(d));
    }

    println!("\nABSCONS(⇓), NR + fully-specified — paper: PTIME (Thm 6.3)");
    println!("{:>8} {:>12} {:>14}", "n", "stds", "time");
    for n in [4usize, 8, 16, 32, 64, 128] {
        let m = hard::abscons_chain(n);
        assert!(xmlmap_core::abscons_nr_ptime(&m).unwrap().holds());
        let d = median(|| {
            black_box(xmlmap_core::abscons_nr_ptime(&m));
        });
        println!("{n:>8} {:>12} {:>14}", m.stds.len(), fmt_duration(d));
    }

    println!("\nABSCONS°(⇓) (value-free) — paper: Π₂ᵖ-complete (Prop 6.1)");
    println!("{:>8} {:>12} {:>14}", "n", "match sets", "time");
    for n in [2usize, 4, 6, 8, 10] {
        let labels: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let ds = xmlmap_dtd::parse(&format!("root r\nr -> ({})*", labels.join("|"))).unwrap();
        let dt = xmlmap_dtd::parse("root r\nr -> c*").unwrap();
        let stds = (0..n)
            .map(|i| xmlmap_core::Std::parse(&format!("r/a{i} --> r/c")).unwrap())
            .collect();
        let m = xmlmap_core::Mapping::new(ds, dt, stds);
        let abscons = || {
            EngineContext::new()
                .abscons_structural(&m, BUDGET)
                .unwrap()
                .unwrap()
        };
        assert!(abscons().holds());
        let d = median(|| {
            black_box(abscons());
        });
        println!("{n:>8} {:>12} {:>14}", 1u64 << n, fmt_duration(d));
    }

    println!("\nCONSCOMP over SM(⇓) — paper: EXPTIME-complete (Thm 7.1)");
    println!("{:>8} {:>14}", "n stds", "time");
    for n in [1usize, 2, 3, 4] {
        let (m12, m23) = hard::compose_chain(n);
        let conscomp = || {
            EngineContext::new()
                .composition_consistent(&m12, &m23, BUDGET)
                .unwrap()
        };
        assert!(conscomp());
        let d = median(|| {
            black_box(conscomp());
        });
        println!("{:>8} {:>14}", n + 1, fmt_duration(d));
    }
}

fn figure2() {
    header("Figure 2 — complexity results (measured growth per cell)");

    println!("\nTree-pattern evaluation, data complexity — paper: DLOGSPACE");
    println!("{:>10} {:>10} {:>14}", "doc nodes", "matches", "time");
    let pattern = xmlmap_patterns::parse(
        "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]",
    )
    .unwrap();
    for profs in [10usize, 40, 160, 640, 2560] {
        let tree = xmlmap_gen::university_tree(profs, 3);
        let (ms, d) = time_cell(|| xmlmap_patterns::all_matches(&tree, &pattern));
        println!(
            "{:>10} {:>10} {:>14}",
            tree.size(),
            ms.len(),
            fmt_duration(d)
        );
    }

    println!("\nTree-pattern evaluation, combined complexity — paper: PTIME");
    println!("(pattern and document grow together: n student conjuncts, n students per professor)");
    println!("{:>8} {:>10} {:>14}", "n", "doc nodes", "time");
    for n in [2usize, 4, 8, 16] {
        let tree = xmlmap_gen::university_tree(n, n);
        let mut supervise = Pattern::leaf("supervise", Vec::<Var>::new());
        for i in 0..n {
            supervise = supervise.child(Pattern::leaf("student", [format!("s{i}")]));
        }
        let pattern = Pattern::leaf("r", Vec::<Var>::new())
            .child(Pattern::leaf("prof", ["x"]).child(supervise));
        // Boolean matching: the decision problem the PTIME bound is about.
        let d = median(|| {
            assert!(xmlmap_patterns::matches_with(
                black_box(&tree),
                black_box(&pattern),
                &Valuation::new()
            ))
        });
        println!("{n:>8} {:>10} {:>14}", tree.size(), fmt_duration(d));
    }

    println!("\n⟦M⟧ membership, data complexity (fixed 2-var mapping) — paper: DLOGSPACE");
    println!("{:>10} {:>14}", "doc nodes", "time");
    let m2 = hard::membership_vars(2);
    for k in [16usize, 64, 256, 1024] {
        let (t1, t3) = hard::membership_instance(k);
        let (ok, d) = time_cell(|| m2.is_solution(&t1, &t3));
        assert!(ok);
        println!("{:>10} {:>14}", t1.size() + t3.size(), fmt_duration(d));
    }

    println!("\n⟦M⟧ membership, combined complexity (growing #vars) — paper: Π₂ᵖ-complete");
    println!("(independent variables: kⁿ firings over k = 4 source values)");
    println!("{:>10} {:>14}", "#vars", "time");
    for n in [2usize, 4, 6, 8] {
        let m = hard::membership_vars_hard(n);
        let (t1, t3) = hard::membership_hard_instance(n, 4);
        let (ok, d) = time_cell(|| m.is_solution(&t1, &t3));
        assert!(ok);
        println!("{n:>10} {:>14}", fmt_duration(d));
    }
    println!("… and with the number of variables FIXED at 2, the same check is");
    println!("polynomial in the documents (Thm 4.3(3)) — see the data-complexity row.");

    println!("\nComposition membership over SM(⇓,⇒), data complexity — paper: EXPTIME-complete");
    println!("(copy chain: the chase fast path applies, cost stays low …)");
    println!("{:>10} {:>14}", "values", "time");
    let (m12, m23) = hard::compose_chain(0);
    // Compile the chase and middle-shape caches before the timed cells.
    let ctx = EngineContext::new();
    ctx.chase_cache(&m12);
    ctx.shape_cache(&m12.target_dtd);
    for k in [2usize, 4, 8, 16, 32] {
        let (t1, t3) = copy_chain_docs(k);
        let (middle, d) = time_cell(|| ctx.composition_member(&m12, &m23, &t1, &t3, k + 2));
        assert!(middle.is_some());
        println!("{k:>10} {:>14}", fmt_duration(d));
    }

    println!("(… and with a horizontal middle constraint the fast path is unsound,");
    println!("so the exhaustive middle search shows the exponential wall)");
    println!("{:>10} {:>14}", "bound", "time");
    let m12h = xmlmap_core::Mapping::new(
        xmlmap_dtd::parse("root r\nr -> a*\na @ v").unwrap(),
        xmlmap_dtd::parse("root m\nm -> b*\nb @ w").unwrap(),
        vec![xmlmap_core::Std::parse("r/a(x) --> m/b(x)").unwrap()],
    );
    let m23h = xmlmap_core::Mapping::new(
        xmlmap_dtd::parse("root m\nm -> b*\nb @ w").unwrap(),
        xmlmap_dtd::parse("root w\nw -> c*\nc @ u").unwrap(),
        vec![xmlmap_core::Std::parse("m[b(x) -> b(y)] --> w[c(x), c(y)]").unwrap()],
    );
    // Two source values force ≥2 b's into every middle, so the horizontal
    // std always fires — and the empty final document can never satisfy it.
    let t1 = {
        let mut t = xmlmap_trees::Tree::new("r");
        t.add_child(
            xmlmap_trees::Tree::ROOT,
            "a",
            [("v", xmlmap_trees::Value::str("p"))],
        );
        t.add_child(
            xmlmap_trees::Tree::ROOT,
            "a",
            [("v", xmlmap_trees::Value::str("q"))],
        );
        t
    };
    let t3_neg = xmlmap_trees::Tree::new("w"); // no c at all: membership fails
    ctx.chase_cache(&m12h);
    ctx.shape_cache(&m12h.target_dtd);
    for bound in [2usize, 3, 4, 5] {
        let (out, d) = time_cell(|| ctx.composition_member(&m12h, &m23h, &t1, &t3_neg, bound));
        assert!(out.is_none());
        println!("{bound:>10} {:>14}", fmt_duration(d));
    }
}

fn lemma41() {
    header("Lemma 4.1 — pattern satisfiability (NP-complete; PTIME on the NR fragment)");

    println!("\nhard family (descendant obligations, general engine)");
    println!("{:>8} {:>14}", "n", "time");
    for n in [2usize, 4, 6, 8, 10] {
        let (dtd, pattern) = hard::sat_hard(n);
        // A fresh cache per call: the cell times a cold compile and run.
        let (w, d) = time_cell(|| SatCache::new(&dtd).satisfiable(&pattern, BUDGET).unwrap());
        assert!(w.is_some());
        println!("{n:>8} {:>14}", fmt_duration(d));
    }

    println!("\nNR fragment (chain DTDs, NrKernel)");
    println!("{:>8} {:>14}", "depth", "time");
    for n in [8usize, 16, 32, 64, 128] {
        let mut lines = vec!["root r".to_string()];
        let mut parent = "r".to_string();
        for i in 0..n {
            lines.push(format!("{parent} -> e{i}?"));
            parent = format!("e{i}");
        }
        let dtd = xmlmap_dtd::parse(&lines.join("\n")).unwrap();
        let pattern = xmlmap_patterns::parse(&format!("r//e{}", n - 1)).unwrap();
        // A fresh kernel per call: the cell times a cold compile and query.
        let (ans, d) = time_cell(|| NrKernel::new(&dtd).unwrap().satisfiable(&pattern).unwrap());
        assert!(ans);
        println!("{n:>8} {:>14}", fmt_duration(d));
    }
}

fn thm82() {
    header("Theorem 8.2 — syntactic composition (closed class)");

    println!("\ncomposition cost and output size vs. #stds");
    println!("{:>8} {:>12} {:>14}", "n stds", "composed", "time");
    for n in [1usize, 2, 4, 8, 16, 32] {
        let (m12, m23) = hard::compose_chain(n);
        let s12 = SkolemMapping::from_mapping(&m12).unwrap();
        let s23 = SkolemMapping::from_mapping(&m23).unwrap();
        let (s13, d) = time_cell(|| xmlmap_core::compose(&s12, &s23).unwrap());
        println!(
            "{:>8} {:>12} {:>14}",
            n + 1,
            s13.stds.len(),
            fmt_duration(d)
        );
    }

    println!("\ncomposed-mapping membership vs. #values (no middle document is searched)");
    println!("{:>8} {:>14}", "values", "time");
    let (m12, m23) = hard::compose_chain(1);
    let s13 = xmlmap_core::compose(
        &SkolemMapping::from_mapping(&m12).unwrap(),
        &SkolemMapping::from_mapping(&m23).unwrap(),
    )
    .unwrap();
    for k in [2usize, 4, 8, 16] {
        let (t1, t3) = copy_chain_docs(k);
        let d = median(|| assert!(s13.is_solution(black_box(&t1), black_box(&t3))));
        println!("{k:>8} {:>14}", fmt_duration(d));
    }
}

/// A failing pattern with `n` independent `//`-obligations over a flat
/// tree of `width` children: exponential for a naive backtracking
/// evaluator, linear for the structural DP.
fn adversarial(n: usize, width: usize) -> (Tree, Pattern) {
    let mut t = Tree::new("r");
    for i in 0..width {
        t.add_child(Tree::ROOT, "a", [("v", Value::int(i as i64))]);
    }
    let mut p = Pattern::leaf("r", Vec::<Var>::new());
    for i in 0..n {
        p = p.descendant(Pattern::leaf("a", [format!("u{i}")]));
    }
    p = p.descendant(Pattern::leaf("zz", Vec::<Var>::new())); // always fails
    (t, p)
}

fn ablation() {
    header("Ablation — implementation design choices (DESIGN.md)");

    println!("\nBoolean matching of failing patterns: backtracking vs. structural DP");
    println!("(n independent //-obligations over a 24-node document)");
    println!("{:>8} {:>14} {:>14}", "n", "backtracking", "dp");
    for n in [1usize, 2, 3, 4, 8, 16] {
        let (t, p) = adversarial(n, 24);
        // A seeded (empty) search takes the backtracking path.
        let backtracking = median(|| {
            assert!(!xmlmap_patterns::matches_with(
                black_box(&t),
                black_box(&p),
                &Valuation::new()
            ))
        });
        let dp = median(|| {
            assert_eq!(
                xmlmap_patterns::matches_structural(black_box(&t), black_box(&p)),
                Some(false)
            )
        });
        println!(
            "{n:>8} {:>14} {:>14}",
            fmt_duration(backtracking),
            fmt_duration(dp)
        );
    }

    println!("\nper-document solution existence: chase vs. bounded search");
    println!("{:>8} {:>14} {:>14}", "values", "chase", "bounded");
    let copy = xmlmap_core::Mapping::new(
        xmlmap_dtd::parse("root r\nr -> a*\na @ v").unwrap(),
        xmlmap_dtd::parse("root r\nr -> b*\nb @ w").unwrap(),
        vec![xmlmap_core::Std::parse("r/a(x) --> r/b(x)").unwrap()],
    );
    for k in [1usize, 2, 3] {
        let mut src = Tree::new("r");
        for i in 0..k {
            src.add_child(Tree::ROOT, "a", [("v", Value::str(format!("v{i}")))]);
        }
        let chase = median(|| {
            let solution = xmlmap_core::canonical_solution(black_box(&copy), black_box(&src));
            assert_eq!(solution.unwrap().size(), k + 1);
        });
        let exhaustive = median(|| {
            let solution =
                EngineContext::new().solution_exists(black_box(&copy), black_box(&src), k + 1);
            assert!(solution.is_some());
        });
        println!(
            "{k:>8} {:>14} {:>14}",
            fmt_duration(chase),
            fmt_duration(exhaustive)
        );
    }

    println!("\ncanonical solution vs. reduced solution on the university mapping");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "profs", "src nodes", "canonical", "reduced", "chase time", "reduce time"
    );
    let m = xmlmap_core::Mapping::new(
        xmlmap_gen::university_dtd(),
        xmlmap_gen::university_target_dtd(),
        vec![
            xmlmap_core::Std::parse(
                "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]]]] \
                 --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)]]",
            )
            .unwrap(),
            xmlmap_core::Std::parse(
                "r[prof(x)[supervise[student(s)]]] --> r[student(s)[supervisor(x)]]",
            )
            .unwrap(),
        ],
    );
    for profs in [5usize, 20, 80, 320] {
        let src = xmlmap_gen::university_tree(profs, 3);
        let (solution, d_chase) = time_cell(|| xmlmap_core::canonical_solution(&m, &src).unwrap());
        let (reduced, d_reduce) = time_cell(|| xmlmap_core::reduce_solution(&m, &solution));
        println!(
            "{profs:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            src.size(),
            solution.size(),
            reduced.size(),
            fmt_duration(d_chase),
            fmt_duration(d_reduce)
        );
    }
}
