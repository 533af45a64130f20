//! Concurrency determinism suite for the shared [`EngineContext`].
//!
//! The batch driver's contract is that the worker count is a throughput
//! knob, never a semantics knob: the same job list over a shared context
//! must produce byte-identical results on 1, 2, and 8 workers, budget
//! errors included, and interleaved threads hammering all three cache
//! families must see exactly the answers a fresh single-threaded run
//! computes. Every batch here uses *uniform budgets per cache key* — the
//! one documented determinism carve-out is same-key jobs with different
//! budgets (see `xmlmap_core::batch` module docs), which these tests
//! deliberately avoid and `budget_errors_are_deterministic_across_worker_counts`
//! pins from the safe side.

use std::sync::Arc;
use xmlmap::core::{
    canonical_solution, render_batch, run_batch, BatchJob, ConsAnswer, EngineContext, JobKind,
    JobResult,
};
use xmlmap::gen::hard;
use xmlmap::prelude::*;

/// Uniform state budget for every budgeted job (never hit by these inputs).
const BUDGET: usize = 10_000_000;

/// Uniform middle-document bound for composition-membership jobs.
const MAX_MIDDLE: usize = 5;

fn copy_mapping() -> Mapping {
    Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap()
}

/// A chain instance for `hard::compose_chain(0)`: `r` with `k` `a0(v·)`
/// children and `w` with the same values under `c0(u·)` — in the
/// composition with a `k+1`-node middle document.
fn chain_instance(k: usize, shift: usize) -> (Tree, Tree) {
    let mut t1 = Tree::new("r");
    let mut t3 = Tree::new("w");
    for i in 0..k {
        t1.add_child(
            Tree::ROOT,
            "a0",
            [("v", Value::str(format!("v{}", i + shift)))],
        );
        t3.add_child(
            Tree::ROOT,
            "c0",
            [("u", Value::str(format!("v{}", i + shift)))],
        );
    }
    (t1, t3)
}

/// ≥200 mixed jobs over a handful of schemas/mappings — cache-heavy by
/// construction (every iteration reuses the same `Arc`-shared artifacts,
/// only the documents vary), and hitting all four cache families: sat
/// (consistency), chase + shapes (composition membership), automata
/// (subschema).
fn job_list() -> Vec<BatchJob> {
    let copy = Arc::new(copy_mapping());
    let mv2 = Arc::new(hard::membership_vars(2));
    let ce = Arc::new(hard::cons_exptime(4));
    let cn = Arc::new(hard::cons_nextsib(3));
    let ac2 = Arc::new(hard::abscons_chain(2));
    let (c12, c23) = hard::compose_chain(0);
    let (c12, c23) = (Arc::new(c12), Arc::new(c23));
    let ce_src = Arc::new(ce.source_dtd.clone());
    let cn_src = Arc::new(cn.source_dtd.clone());
    let copy_src = Arc::new(copy.source_dtd.clone());

    let mut jobs = Vec::new();
    let mut push = |label: String, kind: JobKind| jobs.push(BatchJob { label, kind });
    for i in 0..24 {
        let k = 2 + i % 4;
        // Positive membership: k adjacent source values, target in order.
        let (src, tgt) = hard::membership_instance(k);
        push(
            format!("member vars2 k={k}"),
            JobKind::Membership {
                mapping: mv2.clone(),
                source: src,
                target: tgt,
            },
        );
        // Negative membership: the target misses the last source window.
        let (src, _) = hard::membership_instance(k + 1);
        let (_, tgt) = hard::membership_instance(k);
        push(
            format!("member vars2 k={k} short target"),
            JobKind::Membership {
                mapping: mv2.clone(),
                source: src,
                target: tgt,
            },
        );
        push(
            format!("consistent copy #{i}"),
            JobKind::Consistent {
                mapping: copy.clone(),
                budget: BUDGET,
            },
        );
        push(
            format!("consistent exptime4 #{i}"),
            JobKind::Consistent {
                mapping: ce.clone(),
                budget: BUDGET,
            },
        );
        push(
            format!("consistent nextsib3 #{i}"),
            JobKind::Consistent {
                mapping: cn.clone(),
                budget: BUDGET,
            },
        );
        push(
            format!("abscons chain2 #{i}"),
            JobKind::AbsCons {
                mapping: ac2.clone(),
                budget: BUDGET,
            },
        );
        push(
            format!("subschema exptime/exptime #{i}"),
            JobKind::Subschema {
                d1: ce_src.clone(),
                d2: ce_src.clone(),
                budget: BUDGET,
            },
        );
        push(
            format!("subschema nextsib/exptime #{i}"),
            JobKind::Subschema {
                d1: cn_src.clone(),
                d2: ce_src.clone(),
                budget: BUDGET,
            },
        );
        push(
            format!("subschema copy/nextsib #{i}"),
            JobKind::Subschema {
                d1: copy_src.clone(),
                d2: cn_src.clone(),
                budget: BUDGET,
            },
        );
        // Composition membership: positive (same values) and negative
        // (target value the source never produces).
        let (t1, t3) = chain_instance(1 + i % 3, i);
        push(
            format!("compose-member chain0 #{i} yes"),
            JobKind::CompositionMember {
                m12: c12.clone(),
                m23: c23.clone(),
                source: t1,
                target: t3,
                max_middle_nodes: MAX_MIDDLE,
            },
        );
        let (t1, _) = chain_instance(2, i);
        let (_, t3) = chain_instance(2, i + 100);
        push(
            format!("compose-member chain0 #{i} no"),
            JobKind::CompositionMember {
                m12: c12.clone(),
                m23: c23.clone(),
                source: t1,
                target: t3,
                max_middle_nodes: MAX_MIDDLE,
            },
        );
    }
    jobs
}

#[test]
fn batch_results_are_identical_on_1_2_and_8_workers() {
    let jobs = job_list();
    assert!(
        jobs.len() >= 200,
        "need a ≥200-job batch, got {}",
        jobs.len()
    );

    let mut runs: Vec<(Vec<JobResult>, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        let ctx = EngineContext::new();
        let results = run_batch(&ctx, &jobs, workers);
        let rendered = render_batch(&jobs, &results);
        runs.push((results, rendered));
    }
    let (reference, reference_render) = &runs[0];
    for (results, rendered) in &runs[1..] {
        assert_eq!(
            results, reference,
            "JobResult vectors differ across worker counts"
        );
        assert_eq!(
            rendered, reference_render,
            "rendered output differs across worker counts"
        );
    }

    // Exercise every verdict class at least once so the equality above is
    // comparing something nontrivial.
    let yes = reference
        .iter()
        .filter(|r| matches!(r, JobResult::Answer { yes: true, .. }))
        .count();
    let no = reference
        .iter()
        .filter(|r| matches!(r, JobResult::Answer { yes: false, .. }))
        .count();
    assert!(
        yes > 0 && no > 0,
        "batch should mix yes ({yes}) and no ({no}) answers"
    );
    assert!(
        !reference
            .iter()
            .any(|r| matches!(r, JobResult::Failed { .. })),
        "these budgets should never be hit"
    );
}

#[test]
fn warm_context_rerun_matches_cold_results() {
    let jobs = job_list();
    let cold_ctx = EngineContext::new();
    let cold = run_batch(&cold_ctx, &jobs, 1);

    let ctx = EngineContext::new();
    let first = run_batch(&ctx, &jobs, 8);
    let warm = run_batch(&ctx, &jobs, 2);
    assert_eq!(first, cold);
    assert_eq!(warm, cold, "memo hits must not change any verdict");

    // The rerun is answered from the shared caches: no second compilation
    // of any artifact, and plenty of hits.
    let stats = ctx.stats();
    assert_eq!(
        stats.sat.misses, stats.sat.entries,
        "one compilation per distinct schema"
    );
    assert_eq!(stats.chase.misses, 1, "one chase plan (m12 of the chain)");
    assert_eq!(
        stats.automata.misses, 3,
        "one automata pair per distinct subschema query"
    );
    assert_eq!(
        stats.shapes.misses, 1,
        "one shape cache (the chain's middle schema)"
    );
    assert!(stats.sat.hits > 0 && stats.automata.hits > 0 && stats.chase.hits > 0);
}

#[test]
fn eight_threads_compile_each_artifact_exactly_once() {
    let ctx = EngineContext::new();
    let d1 = xmlmap::gen::university_dtd();
    let d2 = xmlmap::gen::university_target_dtd();
    let m = copy_mapping();

    let arcs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    (
                        ctx.sat_cache(&d1),
                        ctx.chase_cache(&m),
                        ctx.automata_cache(&d1, &d2),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (sat0, chase0, auto0) = &arcs[0];
    for (sat, chase, auto) in &arcs[1..] {
        assert!(
            Arc::ptr_eq(sat, sat0),
            "all threads must share one SatCache"
        );
        assert!(
            Arc::ptr_eq(chase, chase0),
            "all threads must share one ChaseCache"
        );
        assert!(
            Arc::ptr_eq(auto, auto0),
            "all threads must share one AutomataCache"
        );
    }

    let stats = ctx.stats();
    for (family, counters) in [
        ("sat", stats.sat),
        ("chase", stats.chase),
        ("automata", stats.automata),
    ] {
        assert_eq!(
            counters.misses, 1,
            "{family}: exactly one compilation for 8 racers"
        );
        assert_eq!(
            counters.hits, 7,
            "{family}: the other seven threads hit the shared entry"
        );
        assert_eq!(counters.entries, 1, "{family}: one resident entry");
    }
}

#[test]
fn interleaved_mixed_workload_agrees_with_fresh_single_thread_answers() {
    let copy = copy_mapping();
    let ce = hard::cons_exptime(4);
    let cn = hard::cons_nextsib(3);
    let chase_src = xmlmap::trees::xml::parse(r#"<r><a v="1"/><a v="2"/><a v="3"/></r>"#).unwrap();

    // Reference answers, each on a fresh context of its own.
    let ref_ce = EngineContext::new()
        .consistent(&ce, BUDGET)
        .unwrap()
        .is_consistent();
    let ref_cn = EngineContext::new()
        .consistent(&cn, BUDGET)
        .unwrap()
        .is_consistent();
    let ref_chase = canonical_solution(&copy, &chase_src).unwrap();
    let ref_sub = xmlmap::automata::AutomataCache::new(&cn.source_dtd, &ce.source_dtd)
        .subschema(BUDGET)
        .unwrap()
        .is_some();

    // Eight threads interleave all three cache families, each starting the
    // op cycle at a different offset so compilations race across families.
    let ctx = EngineContext::new();
    std::thread::scope(|scope| {
        for offset in 0..8usize {
            let (ctx, copy, ce, cn, chase_src, ref_chase) =
                (&ctx, &copy, &ce, &cn, &chase_src, &ref_chase);
            scope.spawn(move || {
                for round in 0..12usize {
                    match (round + offset) % 4 {
                        0 => {
                            assert_eq!(ctx.consistent(ce, BUDGET).unwrap().is_consistent(), ref_ce)
                        }
                        1 => {
                            assert_eq!(ctx.consistent(cn, BUDGET).unwrap().is_consistent(), ref_cn)
                        }
                        2 => {
                            let sol = ctx.canonical_solution(copy, chase_src).unwrap();
                            assert!(xmlmap::trees::tree::isomorphic_mod_nulls(&sol, ref_chase));
                        }
                        _ => assert_eq!(
                            ctx.subschema(&cn.source_dtd, &ce.source_dtd, BUDGET)
                                .unwrap()
                                .is_some(),
                            ref_sub
                        ),
                    }
                }
            });
        }
    });

    let stats = ctx.stats();
    // 96 operations total; every family compiled each key exactly once.
    assert_eq!(stats.sat.misses, stats.sat.entries);
    assert_eq!(stats.chase.misses, 1);
    assert_eq!(stats.automata.misses, 1);
}

#[test]
fn budget_errors_are_deterministic_across_worker_counts() {
    // All jobs share one cache key *and* one (tiny) budget, so every run —
    // any worker count, any interleaving — must fail identically. (Mixing
    // budgets on one key is the documented nondeterminism carve-out; a
    // uniform budget is the contract these jobs keep.)
    let ce = Arc::new(hard::cons_exptime(6));
    let jobs: Vec<BatchJob> = (0..16)
        .map(|i| BatchJob {
            label: format!("tiny-budget probe {i}"),
            kind: JobKind::Consistent {
                mapping: ce.clone(),
                budget: 2,
            },
        })
        .collect();

    let r1 = run_batch(&EngineContext::new(), &jobs, 1);
    let r8 = run_batch(&EngineContext::new(), &jobs, 8);
    assert_eq!(r1, r8, "budget errors must not depend on the worker count");
    assert_eq!(render_batch(&jobs, &r1), render_batch(&jobs, &r8));

    for r in &r1 {
        let JobResult::Failed { error } = r else {
            panic!("a 2-state budget must fail on cons_exptime(6), got {r}");
        };
        assert!(
            error.contains("budget"),
            "error should name the budget: {error}"
        );
    }

    // And a retry with an adequate budget on the *same* context succeeds —
    // the failed probes must not have poisoned the shared caches.
    let ctx = EngineContext::new();
    let tiny = run_batch(&ctx, &jobs, 8);
    assert!(tiny.iter().all(|r| matches!(r, JobResult::Failed { .. })));
    let retry = BatchJob {
        label: "adequate budget".to_string(),
        kind: JobKind::Consistent {
            mapping: ce.clone(),
            budget: BUDGET,
        },
    };
    let ok = run_batch(&ctx, std::slice::from_ref(&retry), 1);
    assert_eq!(
        ok[0],
        JobResult::Answer {
            yes: false,
            detail: "INCONSISTENT".to_string()
        }
    );
}

/// A DTD of `root` over four levels of four labels each (17 labels): every
/// label of a level holds any number of the next level's labels, and the
/// last level carries `@v`. Type-fixpoint and inclusion rounds on it keep
/// four or more labels (machines) dirty for several rounds.
fn layered_dtd_text(root: &str) -> String {
    let name = |l: usize, j: usize| format!("{}{l}", ['a', 'b', 'c', 'd'][j]);
    let level = |l: usize| (0..4).map(|j| name(l, j)).collect::<Vec<_>>().join("|");
    let mut s = format!("root {root}\n{root} -> ({})*\n", level(0));
    for l in 0..3 {
        for j in 0..4 {
            s.push_str(&format!("{} -> ({})*\n", name(l, j), level(l + 1)));
        }
    }
    for j in 0..4 {
        s.push_str(&format!("{} @ v\n", name(3, j)));
    }
    s
}

#[test]
fn budget_errors_of_wide_fixpoints_are_deterministic() {
    // Each budget runs out in the fourth round of its fixpoint, a round
    // with four dirty labels (machines) over a 17-label alphabet: the
    // reported count is a function of the input alone.
    let stds = [
        "r//a3(x)",
        "r//b3(x)",
        "r[a0//c3(x)]",
        "r[b0/a1//d3(x)]",
        "r[c0//a2/b3(x)]",
        "r[d0/d1/d2/d3(x)]",
    ]
    .map(|p| format!("{p} --> t/b(x)\n"))
    .concat();
    let mapping = Arc::new(
        Mapping::parse(&format!(
            "[source]\n{}[target]\nroot t\nt -> b*\nb @ w\n[stds]\n{stds}",
            layered_dtd_text("r")
        ))
        .unwrap(),
    );
    let d1 = Arc::new(xmlmap::dtd::parse(&layered_dtd_text("r")).unwrap());
    let d2 = Arc::new(
        xmlmap::dtd::parse(
            &layered_dtd_text("r").replace("d2 -> (a3|b3|c3|d3)*", "d2 -> (a3|b3|c3)*"),
        )
        .unwrap(),
    );
    let jobs: Vec<BatchJob> = (0..2)
        .flat_map(|i| {
            [
                BatchJob {
                    label: format!("consistent layered #{i}"),
                    kind: JobKind::Consistent {
                        mapping: mapping.clone(),
                        budget: 1_200,
                    },
                },
                BatchJob {
                    label: format!("subschema layered #{i}"),
                    kind: JobKind::Subschema {
                        d1: d1.clone(),
                        d2: d2.clone(),
                        budget: 95,
                    },
                },
            ]
        })
        .collect();

    let expected = render_batch(&jobs, &run_batch(&EngineContext::new(), &jobs, 1));
    for line in expected.lines().take(jobs.len()) {
        assert!(
            line.contains("exceeded its budget") && line.contains("states explored at abort"),
            "every job must overrun its budget: {line}"
        );
    }
    for workers in [1usize, 2, 8].into_iter().cycle().take(20) {
        let results = run_batch(&EngineContext::new(), &jobs, workers);
        assert_eq!(
            render_batch(&jobs, &results),
            expected,
            "budget errors must not depend on the run or on {workers} workers"
        );
    }
}

#[test]
fn batch_matches_sequential_run_job_dispatch() {
    // The driver maps run_job over its worker pool; pin that the pool adds no
    // semantics of its own by comparing against a hand-rolled loop.
    let jobs: Vec<BatchJob> = job_list().into_iter().take(40).collect();
    let ctx = EngineContext::new();
    let sequential: Vec<JobResult> = jobs
        .iter()
        .map(|j| xmlmap::core::run_job(&ctx, j))
        .collect();
    let fanned = run_batch(&ctx, &jobs, 8);
    assert_eq!(fanned, sequential);

    // Order is job order, not completion order: labels lined up 1:1.
    let rendered = render_batch(&jobs, &fanned);
    for (i, job) in jobs.iter().enumerate() {
        assert!(
            rendered.contains(&format!("[{}] {}:", i + 1, job.label)),
            "job {i} missing or out of order in:\n{rendered}"
        );
    }
}

#[test]
fn consanswer_witnesses_are_deterministic_too() {
    // Consistency witnesses (not just the boolean) must be identical
    // across worker counts — render_batch prints the witness size.
    let cn = hard::cons_nextsib(3);
    let mut sizes = Vec::new();
    for workers in [1usize, 8] {
        let ctx = EngineContext::new();
        let jobs = vec![BatchJob {
            label: format!("nextsib on {workers} workers"),
            kind: JobKind::Consistent {
                mapping: Arc::new(cn.clone()),
                budget: BUDGET,
            },
        }];
        match &run_batch(&ctx, &jobs, workers)[0] {
            JobResult::Answer { yes: true, detail } => sizes.push(detail.clone()),
            other => panic!("cons_nextsib(3) should be consistent, got {other}"),
        }
    }
    assert_eq!(sizes[0], sizes[1]);
    let direct = match EngineContext::new().consistent(&cn, BUDGET).unwrap() {
        ConsAnswer::Consistent { source, .. } => source.size(),
        ConsAnswer::Inconsistent => panic!("cons_nextsib(3) is consistent"),
    };
    assert!(
        sizes[0].contains(&format!("{direct} nodes")),
        "{} vs {direct}",
        sizes[0]
    );
}
