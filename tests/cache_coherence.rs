//! Cache-coherence differential tests.
//!
//! For each compiled-engine cache ([`SatCache`], [`ChaseCache`],
//! [`AutomataCache`]) two invariants keep the shared [`EngineContext`]
//! honest:
//!
//! 1. **hit = fresh** — a memoized answer equals a fresh uncached compute
//!    (isomorphic modulo null renaming for chase outputs, which invent
//!    nulls);
//! 2. **budget errors are never cached** — a budget-exceeded verdict is
//!    recomputed on retry, so a bigger budget can succeed, while
//!    *successful* verdicts are budget-independent and may be answered
//!    from the memo whatever budget the later caller passes.

use std::sync::Arc;
use xmlmap::automata::AutomataCache;
use xmlmap::core::{
    abscons_nr_ptime, canonical_solution, canonical_solution_cached, consistent_nr_ptime,
    AbsConsProcedure, ChaseCache, EngineContext, ShapeCache,
};
use xmlmap::gen::hard;
use xmlmap::patterns::SatCache;
use xmlmap::prelude::*;
use xmlmap::trees::tree::isomorphic_mod_nulls;

const BUDGET: usize = 10_000_000;

// ---- SatCache -----------------------------------------------------------

#[test]
fn sat_cache_hit_equals_fresh_compute() {
    let (d, p) = hard::sat_hard(6);
    let cache = SatCache::new(&d);
    let first = cache.satisfiable(&p, BUDGET).unwrap();
    let memoized = cache.satisfiable(&p, BUDGET).unwrap();
    let fresh = SatCache::new(&d).satisfiable(&p, BUDGET).unwrap();
    assert!(first.is_some(), "sat_hard patterns are satisfiable");
    assert_eq!(first, memoized, "memo hit must equal the first compute");
    assert_eq!(first, fresh, "memo hit must equal a fresh uncached compute");

    // The second lookup really was a memo hit: the match-set table hands
    // back the same Arc, not a recomputed copy.
    let a1 = cache.achievable_match_sets(&[&p], BUDGET).unwrap();
    let a2 = cache.achievable_match_sets(&[&p], BUDGET).unwrap();
    assert!(Arc::ptr_eq(&a1, &a2));
}

#[test]
fn sat_budget_errors_are_never_cached() {
    let (d, p) = hard::sat_hard(6);
    let cache = SatCache::new(&d);

    let err = cache.satisfiable(&p, 1).unwrap_err();
    assert_eq!(err.budget, 1);
    assert!(err.states_explored >= 1);

    // The failure was not memoized: an adequate budget recomputes and
    // succeeds on the very same cache.
    let ok = cache.satisfiable(&p, BUDGET).unwrap();
    assert!(ok.is_some());

    // Once a *successful* verdict is resident it is budget-independent:
    // even a 1-state budget is answered from the memo.
    let from_memo = cache.satisfiable(&p, 1).unwrap();
    assert_eq!(from_memo, ok);
}

// ---- ChaseCache ---------------------------------------------------------

/// A mapping whose chase invents a null per firing (`y` is unbound on the
/// source side), so output comparison must be modulo null renaming.
fn null_inventing_mapping() -> Mapping {
    Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r[b(x), b(y)]\n",
    )
    .unwrap()
}

#[test]
fn chase_cache_repeat_is_isomorphic_to_fresh_compute() {
    let m = null_inventing_mapping();
    let src = xmlmap::trees::xml::parse(r#"<r><a v="1"/><a v="2"/></r>"#).unwrap();
    let cache = ChaseCache::new(&m);

    let first = canonical_solution_cached(&m, &src, &cache).unwrap();
    let repeat = canonical_solution_cached(&m, &src, &cache).unwrap();
    let fresh = canonical_solution(&m, &src).unwrap();
    assert!(isomorphic_mod_nulls(&first, &repeat));
    assert!(isomorphic_mod_nulls(&first, &fresh));
    assert!(m.is_solution(&src, &first));
}

#[test]
fn chase_cache_has_no_verdict_memo_to_poison() {
    // Audit: `ChaseCache` holds *compiled plans only* — it takes no budget
    // parameter and memoizes no verdicts, so there is no budget-exceeded
    // verdict it could ever cache. What must still hold: chase *errors*
    // recompute identically through the shared plan.
    let narrow = Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> a\na @ v\n\
         [stds]\nr/a(x) --> r/a(x)\n",
    )
    .unwrap();
    // Two distinct source values cannot fit a target that allows one `a`.
    let src = xmlmap::trees::xml::parse(r#"<r><a v="1"/><a v="2"/></r>"#).unwrap();
    let cache = ChaseCache::new(&narrow);

    let e1 = canonical_solution_cached(&narrow, &src, &cache).unwrap_err();
    let e2 = canonical_solution_cached(&narrow, &src, &cache).unwrap_err();
    let fresh = canonical_solution(&narrow, &src).unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string());
    assert_eq!(e1.to_string(), fresh.to_string());

    // The failed chases leave the plan fully usable for sources that do
    // have solutions.
    let good = xmlmap::trees::xml::parse(r#"<r><a v="1"/></r>"#).unwrap();
    let sol = canonical_solution_cached(&narrow, &good, &cache).unwrap();
    assert!(narrow.is_solution(&good, &sol));
}

// ---- AutomataCache ------------------------------------------------------

#[test]
fn automata_cache_verdicts_equal_fresh_compute() {
    // A pair that is *not* a subschema: r -> (a|b)* admits documents the
    // (a0|…|a3)+ schema rejects.
    let d1 = hard::cons_nextsib(3).source_dtd;
    let d2 = hard::cons_exptime(4).source_dtd;
    let cache = AutomataCache::new(&d1, &d2);

    let first = cache.subschema(BUDGET).unwrap();
    let memoized = cache.subschema(BUDGET).unwrap();
    let fresh = AutomataCache::new(&d1, &d2).subschema(BUDGET).unwrap();
    assert!(first.is_some(), "(a|b)* is not a subschema of (a0|…|a3)+");
    assert_eq!(format!("{first:?}"), format!("{memoized:?}"));
    assert_eq!(format!("{first:?}"), format!("{fresh:?}"));

    let i_first = cache.inclusion(BUDGET).unwrap();
    let i_memo = cache.inclusion(BUDGET).unwrap();
    let i_fresh = AutomataCache::new(&d1, &d2).inclusion(BUDGET).unwrap();
    assert_eq!(i_first, i_memo);
    assert_eq!(i_first, i_fresh);

    // And a pair where the verdict is positive, for the other branch.
    let refl = AutomataCache::new(&d2, &d2);
    assert!(refl.subschema(BUDGET).unwrap().is_none());
    assert!(refl.subschema(BUDGET).unwrap().is_none());
    assert!(AutomataCache::new(&d2, &d2)
        .subschema(BUDGET)
        .unwrap()
        .is_none());
}

#[test]
fn automata_budget_errors_are_never_cached() {
    let d1 = hard::cons_nextsib(3).source_dtd;
    let d2 = hard::cons_exptime(4).source_dtd;

    let cache = AutomataCache::new(&d1, &d2);
    let err = cache.subschema(1).unwrap_err();
    assert_eq!(err.budget, 1);
    assert_eq!(err.operation, "subschema check");

    // Retry with an adequate budget recomputes and completes…
    let verdict = cache.subschema(BUDGET).unwrap();
    assert!(verdict.is_some());
    // …and the resident verdict is budget-independent from then on.
    let from_memo = cache.subschema(1).unwrap();
    assert_eq!(format!("{verdict:?}"), format!("{from_memo:?}"));

    // Same discipline on the inclusion memo.
    let cache = AutomataCache::new(&d1, &d2);
    let err = cache.inclusion(1).unwrap_err();
    assert_eq!(err.budget, 1);
    assert_eq!(err.operation, "inclusion check");
    let verdict = cache.inclusion(BUDGET).unwrap();
    assert_eq!(cache.inclusion(1).unwrap(), verdict);
}

// ---- ShapeCache ---------------------------------------------------------

#[test]
fn shape_cache_memoized_equals_fresh_enumeration() {
    let d = xmlmap::dtd::parse("root r\nr -> a*\na -> b?").unwrap();
    let cache = ShapeCache::new(&d);
    let first = cache.shapes(5);
    let memoized = cache.shapes(5);
    assert!(
        Arc::ptr_eq(&first, &memoized),
        "second lookup is a memo hit"
    );
    let fresh = xmlmap::core::tree_shapes(&d, 5);
    assert_eq!(first.len(), fresh.len());
    for (a, b) in first.iter().zip(&fresh) {
        assert!(isomorphic_mod_nulls(a, b));
    }
    // Distinct bounds are distinct memo entries.
    assert_ne!(cache.shapes(3).len(), first.len());
}

// ---- serialized artifacts behave like fresh compiles --------------------

#[test]
fn automata_cache_deserialized_equals_fresh() {
    let d1 = hard::cons_nextsib(3).source_dtd;
    let d2 = hard::cons_exptime(4).source_dtd;
    let cache = AutomataCache::new(&d1, &d2);
    let restored = AutomataCache::from_bytes(&cache.to_bytes()).expect("round trip");
    let fresh = cache.subschema(BUDGET).unwrap();
    let loaded = restored.subschema(BUDGET).unwrap();
    assert_eq!(fresh.is_some(), loaded.is_some());
    assert_eq!(
        cache.inclusion(BUDGET).unwrap(),
        restored.inclusion(BUDGET).unwrap()
    );
    assert_eq!(restored.d1().to_string(), d1.to_string());
    assert_eq!(restored.d2().to_string(), d2.to_string());
}

/// `r -> (x|y)*, x, (x|y)^n` against its `y|x` spelling: the same
/// language, whose determinized horizontals have 2^(n+1) states.
fn nthlast_dtd(n: usize, flipped: bool) -> Dtd {
    let alt = if flipped { "y|x" } else { "x|y" };
    let tail = format!(", ({alt})").repeat(n);
    xmlmap::dtd::parse(&format!("root r\nr -> ({alt})*, x{tail}")).unwrap()
}

/// A decoded pair is accounted at the bytes of the same pair compiled
/// fresh, so a bounded context evicts alike before and after a restart.
#[test]
fn automata_cache_deserialized_is_accounted_like_fresh() {
    let parse = |text: &str| xmlmap::dtd::parse(text).unwrap();
    let pairs = [
        (
            parse("root r\nr -> a*\na @ v"),
            parse("root r\nr -> a?\na @ v"),
        ),
        (
            parse("root r\nr -> a*\na @ v"),
            parse("root r\nr -> a*\na @ v"),
        ),
        (xmlmap::gen::university_dtd(), xmlmap::gen::university_dtd()),
        (
            xmlmap::gen::university_dtd(),
            xmlmap::gen::university_target_dtd(),
        ),
        (nthlast_dtd(10, false), nthlast_dtd(10, true)),
    ];
    for (d1, d2) in &pairs {
        let fresh = AutomataCache::new(d1, d2);
        let restored = AutomataCache::from_bytes(&fresh.to_bytes()).expect("round trip");
        assert_eq!(
            restored.approx_bytes(),
            fresh.approx_bytes(),
            "{d1}\nvs\n{d2}"
        );
    }
}

#[test]
fn shape_cache_deserialized_restores_memoized_bounds() {
    let d = xmlmap::dtd::parse("root r\nr -> a*\na -> b?").unwrap();
    let cache = ShapeCache::new(&d);
    let s4 = cache.shapes(4);
    let s2 = cache.shapes(2);
    let restored = ShapeCache::from_bytes(&cache.to_bytes()).expect("round trip");
    let r4 = restored.shapes(4);
    let r2 = restored.shapes(2);
    assert_eq!(s4.len(), r4.len());
    assert_eq!(s2.len(), r2.len());
    for (a, b) in s4.iter().zip(r4.iter()) {
        assert!(isomorphic_mod_nulls(a, b));
    }
    // An empty cache round-trips to an empty cache.
    let empty = ShapeCache::from_bytes(&ShapeCache::new(&d).to_bytes()).unwrap();
    assert!(!empty.has_content());
}

// ---- bounded contexts: evict, recompile, agree --------------------------

/// Accounted bytes must respect the budget once operations settle, and a
/// budget far below the working set must force evictions — while every
/// verdict stays identical to an unbounded context's.
#[test]
fn bounded_context_sat_family_evicts_and_agrees() {
    let bounded = EngineContext::new().with_memory_budget(4_000);
    let unbounded = EngineContext::new();
    for round in 0..2 {
        for k in [3, 4, 5] {
            let m = hard::cons_exptime(k);
            let a = bounded.consistent(&m, BUDGET).unwrap();
            let b = unbounded.consistent(&m, BUDGET).unwrap();
            assert_eq!(
                a.is_consistent(),
                b.is_consistent(),
                "cons_exptime({k}) round {round}"
            );
        }
    }
    let stats = bounded.stats();
    assert!(stats.sat.evictions > 0, "budget below working set: {stats}");
    assert!(stats.total_bytes() <= 4_000, "{stats}");
    // The unbounded context never evicts and never re-compiles.
    let stats = unbounded.stats();
    assert_eq!(stats.sat.evictions, 0);
    assert_eq!(stats.sat.misses, stats.sat.entries);
}

#[test]
fn bounded_context_chase_family_evicts_and_agrees() {
    let bounded = EngineContext::new().with_memory_budget(500);
    let unbounded = EngineContext::new();
    let src = xmlmap::trees::xml::parse(r#"<r><a v="1"/><a v="2"/></r>"#).unwrap();
    let mappings = [
        null_inventing_mapping(),
        Mapping::parse(
            "[source]\nroot r\nr -> a*\na @ v\n\
             [target]\nroot r\nr -> b*\nb @ w\n\
             [stds]\nr/a(x) --> r/b(x)\n",
        )
        .unwrap(),
    ];
    for _ in 0..2 {
        for m in &mappings {
            let a = bounded.canonical_solution(m, &src).unwrap();
            let b = unbounded.canonical_solution(m, &src).unwrap();
            assert!(isomorphic_mod_nulls(&a, &b));
        }
    }
    let stats = bounded.stats();
    assert!(stats.chase.evictions > 0, "{stats}");
    assert!(stats.total_bytes() <= 500, "{stats}");
    assert!(
        stats.chase.misses > stats.chase.entries,
        "entries recompiled"
    );
}

#[test]
fn bounded_context_automata_family_evicts_and_agrees() {
    let bounded = EngineContext::new().with_memory_budget(2_000);
    let unbounded = EngineContext::new();
    let d1 = hard::cons_nextsib(3).source_dtd;
    let d2 = hard::cons_exptime(4).source_dtd;
    for _ in 0..2 {
        for (a, b) in [(&d1, &d2), (&d2, &d2), (&d1, &d1)] {
            let x = bounded.subschema(a, b, BUDGET).unwrap();
            let y = unbounded.subschema(a, b, BUDGET).unwrap();
            assert_eq!(x.is_some(), y.is_some());
        }
    }
    let stats = bounded.stats();
    assert!(stats.automata.evictions > 0, "{stats}");
    assert!(stats.total_bytes() <= 2_000, "{stats}");
}

#[test]
fn bounded_context_shape_family_evicts_and_agrees() {
    let bounded = EngineContext::new().with_memory_budget(300);
    let unbounded = EngineContext::new();
    let m1 = null_inventing_mapping();
    let m2 = Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> c*\nc @ w\n\
         [stds]\nr/a(x) --> r/c(x)\n",
    )
    .unwrap();
    let src = xmlmap::trees::xml::parse(r#"<r><a v="1"/></r>"#).unwrap();
    for _ in 0..2 {
        for m in [&m1, &m2] {
            let a = bounded.solution_exists(m, &src, 4);
            let b = unbounded.solution_exists(m, &src, 4);
            assert_eq!(a.is_some(), b.is_some());
        }
    }
    let stats = bounded.stats();
    assert!(stats.shapes.evictions > 0, "{stats}");
    assert!(stats.total_bytes() <= 300, "{stats}");
}

/// The chase tables of a mapping are shared by the delta and
/// streaming-chase plans built over them. A budget that evicts the chase
/// entry leaves those plans resident with their own `Arc` to the tables,
/// and every verdict still matches an unbounded context's: the session
/// after each update, the streamed chase, and the tree chase (which
/// recompiles the evicted tables).
#[test]
fn bounded_context_evicts_shared_chase_tables_under_live_plans() {
    use xmlmap::core::Update;
    let m = xmlmap::gen::trees::exchange_mapping();
    let doc = xmlmap::gen::trees::exchange_tree(4, 2, 3);
    let text = xmlmap::trees::xml::to_string(&doc);
    let unbounded = EngineContext::new();
    let mut reference = unbounded.delta_session(&m, doc.clone());
    let streamed = unbounded.chase_stream(&m, text.as_bytes()).unwrap();
    let full = unbounded.stats();
    // Room for everything but half the chase tables: the chase family is
    // the heaviest, so the sweep evicts it first and stops there.
    let budget = full.total_bytes() - full.chase.bytes / 2;
    let bounded = EngineContext::new().with_memory_budget(budget);
    let mut session = bounded.delta_session(&m, doc.clone());
    assert_eq!(
        bounded.chase_stream(&m, text.as_bytes()).unwrap().solution,
        streamed.solution
    );
    let stats = bounded.stats();
    assert!(stats.chase.evictions > 0, "{stats}");
    assert_eq!(
        (stats.chase.entries, stats.delta.entries),
        (0, 1),
        "{stats}"
    );
    assert_eq!(stats.stream_chase.entries, 1, "{stats}");
    let prof = doc.subtree(doc.children(Tree::ROOT)[1]);
    let updates = [
        Update::DeleteSubtree { path: vec![0] },
        Update::InsertSubtree {
            parent: vec![],
            pos: 2,
            subtree: prof,
        },
        Update::DeleteSubtree { path: vec![3] },
    ];
    for update in &updates {
        session.apply(update).unwrap();
        reference.apply(update).unwrap();
        let got = session.canonical_solution().unwrap();
        assert_eq!(got, reference.canonical_solution().unwrap());
        assert_eq!(*got, bounded.canonical_solution(&m, session.doc()).unwrap());
    }
    assert!(
        bounded.stats().total_bytes() <= budget,
        "{}",
        bounded.stats()
    );
}

// ---- disk-backed contexts -----------------------------------------------

fn temp_cache_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlmap-coherence-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store holds the two costly families only: every file a run
/// leaves is an automata or shape artifact.
fn assert_only_costly_families_stored(dir: &std::path::Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            name.starts_with("automata-") || name.starts_with("shapes-"),
            "unexpected store file {name}"
        );
    }
}

/// A second context over the same store loads every persisted artifact
/// (automata, shapes) from disk instead of compiling it — and agrees with
/// the first on every verdict. The memory-only families recompile.
#[test]
fn disk_cache_warm_restart_skips_compilation() {
    let dir = temp_cache_dir("warm");
    let m = null_inventing_mapping();
    let src = xmlmap::trees::xml::parse(r#"<r><a v="1"/><a v="2"/></r>"#).unwrap();
    let d2 = hard::cons_exptime(4).source_dtd;

    let cold = EngineContext::new().with_disk_cache(&dir).unwrap();
    let sol_cold = cold.canonical_solution(&m, &src).unwrap();
    let cons_cold = cold.consistent(&m, BUDGET).unwrap();
    let sub_cold = cold.subschema(&d2, &d2, BUDGET).unwrap();
    let sol_exists_cold = cold.solution_exists(&m, &src, 6);
    cold.flush_disk_cache();
    let stats = cold.stats();
    assert_eq!(stats.total_disk_hits(), 0);
    assert!(stats.total_compiled() >= 4);
    assert_only_costly_families_stored(&dir);

    // "Restart": a fresh context, same directory.
    let warm = EngineContext::new().with_disk_cache(&dir).unwrap();
    let sol_warm = warm.canonical_solution(&m, &src).unwrap();
    let cons_warm = warm.consistent(&m, BUDGET).unwrap();
    let sub_warm = warm.subschema(&d2, &d2, BUDGET).unwrap();
    let sol_exists_warm = warm.solution_exists(&m, &src, 6);
    assert!(isomorphic_mod_nulls(&sol_cold, &sol_warm));
    assert_eq!(cons_cold.is_consistent(), cons_warm.is_consistent());
    assert_eq!(sub_cold.is_some(), sub_warm.is_some());
    assert_eq!(sol_exists_cold.is_some(), sol_exists_warm.is_some());

    let stats = warm.stats();
    for (family, c) in [("automata", stats.automata), ("shapes", stats.shapes)] {
        assert_eq!(c.compiled(), 0, "warm {family} compiles nothing: {stats}");
        assert_eq!(c.disk_hits, 1, "warm {family} loads from disk: {stats}");
    }
    assert_eq!(stats.automata.compile_time, std::time::Duration::ZERO);
}

/// Damaged artifacts are a diagnostic counter and a silent recompile,
/// never an error.
#[test]
fn disk_cache_corruption_falls_back_to_compile() {
    let dir = temp_cache_dir("corrupt");
    let d1 = hard::cons_nextsib(3).source_dtd;
    let d2 = hard::cons_exptime(4).source_dtd;

    let cold = EngineContext::new().with_disk_cache(&dir).unwrap();
    let verdict = cold.inclusion(&d1, &d2, BUDGET).unwrap();

    // Truncate every stored artifact.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }

    let warm = EngineContext::new().with_disk_cache(&dir).unwrap();
    assert_eq!(warm.inclusion(&d1, &d2, BUDGET).unwrap(), verdict);
    let stats = warm.stats();
    assert_eq!(stats.total_disk_hits(), 0);
    assert!(stats.automata.disk_errors > 0, "{stats}");
    assert_eq!(stats.automata.compiled(), 1);
}

/// An eviction under a disk-backed context refills from the store, not the
/// compiler.
#[test]
fn evicted_entries_refill_from_disk() {
    let dir = temp_cache_dir("refill");
    let ctx = EngineContext::new()
        .with_memory_budget(2_000)
        .with_disk_cache(&dir)
        .unwrap();
    let d1 = hard::cons_nextsib(3).source_dtd;
    let d2 = hard::cons_exptime(4).source_dtd;
    for _ in 0..3 {
        for (a, b) in [(&d1, &d2), (&d2, &d1)] {
            assert!(ctx.subschema(a, b, BUDGET).is_ok());
        }
    }
    let stats = ctx.stats();
    assert!(stats.automata.evictions > 0, "{stats}");
    assert_eq!(
        stats.automata.compiled(),
        2,
        "each pair compiled once: {stats}"
    );
    assert!(
        stats.automata.disk_hits > 0,
        "refills came from disk: {stats}"
    );
}

// ---- EngineContext ------------------------------------------------------

#[test]
fn engine_context_budget_retry_recomputes() {
    let ctx = EngineContext::new();
    let ce = hard::cons_exptime(6);

    // Consistency: a starved probe fails with a budget error…
    let err = ctx.consistent(&ce, 2).unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    // …and the retry on the same context succeeds, proving the error was
    // not memoized anywhere behind the shared SatCaches.
    assert!(!ctx.consistent(&ce, BUDGET).unwrap().is_consistent());

    // Subschema: same discipline through the shared AutomataCache, and the
    // failed probe must not have cost a second compilation.
    let cn = hard::cons_nextsib(3);
    let err = ctx
        .subschema(&cn.source_dtd, &ce.source_dtd, 1)
        .unwrap_err();
    assert_eq!(err.budget, 1);
    assert!(ctx
        .subschema(&cn.source_dtd, &ce.source_dtd, BUDGET)
        .unwrap()
        .is_some());
    assert_eq!(ctx.stats().automata.misses, 1);
    assert_eq!(ctx.stats().automata.entries, 1);
}

#[test]
fn engine_context_abscons_agrees_with_uncached_procedure() {
    let ctx = EngineContext::new();
    // Value-free (SM°), so the structural procedure applies; every source
    // document fires an std with an unsatisfiable target side, so the
    // verdict is Violated.
    let narrow = hard::cons_exptime(3);
    let via_ctx = ctx.abscons_structural(&narrow, BUDGET);
    let fresh = xmlmap::core::abscons_structural(&narrow, BUDGET);
    match (via_ctx, fresh) {
        (Ok(Ok(a)), Ok(Ok(b))) => assert_eq!(a.holds(), b.holds()),
        (a, b) => panic!("context and fresh disagree: {a:?} vs {b:?}"),
    }
    // Repeat from the warm caches: same verdict, strictly more hits.
    let hits_before = ctx.stats().sat.hits;
    let again = ctx.abscons_structural(&narrow, BUDGET).unwrap().unwrap();
    assert!(!again.holds());
    assert!(ctx.stats().sat.hits > hits_before);
    assert_eq!(ctx.stats().sat.misses, ctx.stats().sat.entries);
}

// ---- one compile per artifact -------------------------------------------

/// One context builds each compiled form once: the tree chase, the
/// streaming chase and a delta session share one set of chase tables,
/// the streaming chase's per-std plans are the `stream_plans` family's,
/// and one DTD index serves every streaming pass over the source schema.
#[test]
fn each_compiled_form_is_built_once_per_context() {
    let ctx = EngineContext::new();
    let m = xmlmap::gen::trees::exchange_mapping();
    let doc = xmlmap::gen::trees::exchange_tree(3, 2, 2);
    let text = xmlmap::trees::xml::to_string(&doc);
    let solution = ctx.canonical_solution(&m, &doc).unwrap();
    let streamed = ctx.chase_stream(&m, text.as_bytes()).unwrap();
    assert_eq!(streamed.solution.unwrap().unwrap(), solution);
    let mut session = ctx.delta_session(&m, doc.clone());
    assert_eq!(*session.canonical_solution().unwrap(), solution);
    let pass = ctx.stream_document(&m.source_dtd, None, text.as_bytes());
    assert_eq!(pass.unwrap().violation, None);
    assert!(ctx.consistent(&m, BUDGET).unwrap().is_consistent());
    let before = ctx.stats();
    assert_eq!(before.chase.misses, 1, "{before}");
    assert_eq!(before.stream_index.misses, 1, "{before}");
    for s in &m.stds {
        ctx.stream_plan(&s.source).unwrap();
    }
    let after = ctx.stats();
    assert_eq!(after.stream_plans.misses, before.stream_plans.misses);
    assert_eq!(
        after.stream_plans.hits,
        before.stream_plans.hits + m.stds.len() as u64,
        "each std source's plan is already cached"
    );
    assert!(after.delta.bytes < after.chase.bytes, "{after}");
    assert!(
        after.stream_chase.bytes < after.stream_plans.bytes,
        "{after}"
    );
}

// ---- Thm 6.3 over the shared nested-relational kernels ------------------

/// `abscons_chain(n)` for `n` in `2..=40`, which all hold.
const CHAINS: usize = 39;

/// The [`CHAINS`] chain mappings, then seeded random nested-relational
/// mappings.
fn thm63_instances() -> Vec<Mapping> {
    use rand::{Rng, SeedableRng};
    use xmlmap::gen::mappings::{random_nr_dtd, random_nr_mapping, MappingGenConfig};
    let mut out: Vec<Mapping> = (2..=40).map(hard::abscons_chain).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let dtds: Vec<Dtd> = (0..6).map(|_| random_nr_dtd(3, 3, 0.5, &mut rng)).collect();
    let config = MappingGenConfig {
        stds: 3,
        depth: 3,
        branch_probability: 0.7,
    };
    for _ in 0..24 {
        let (s, t) = (rng.gen_range(0..dtds.len()), rng.gen_range(0..dtds.len()));
        out.push(random_nr_mapping(&dtds[s], &dtds[t], &config, &mut rng).unwrap());
    }
    out
}

/// The context's Thm 6.3 verdict and its detail line, which `batch` and
/// the daemon print.
fn context_abscons(ctx: &EngineContext, m: &Mapping) -> (bool, String) {
    let (answer, procedure) = ctx.abscons(m, BUDGET).unwrap().unwrap();
    assert_eq!(procedure, AbsConsProcedure::NestedRelational, "{m}");
    (answer.holds(), procedure.detail(&answer))
}

/// `EngineContext::abscons` reads the two schemas' shared kernels; its
/// answers and detail lines equal a fresh `abscons_nr_ptime`'s, cold,
/// warm, and with every `SatCache` (and so its kernel) evicted between
/// calls. Fact 5.1's `consistent_nr_ptime` agrees with the context's
/// type-fixpoint `consistent` on the same instances.
#[test]
fn abscons_over_shared_kernels_equals_fresh_thm63() {
    let instances = thm63_instances();
    let fresh: Vec<(bool, String)> = instances
        .iter()
        .map(|m| {
            let answer = abscons_nr_ptime(m).expect("Thm 6.3 fragment");
            (
                answer.holds(),
                AbsConsProcedure::NestedRelational.detail(&answer),
            )
        })
        .collect();
    assert!(fresh[..CHAINS].iter().all(|(holds, _)| *holds));
    let random = &fresh[CHAINS..];
    let violated = random.iter().filter(|(holds, _)| !holds).count();
    assert!(
        violated > 0 && violated < random.len(),
        "both verdicts among the random mappings: {violated} violated"
    );
    let ctx = EngineContext::new();
    for round in ["cold", "warm"] {
        for (m, expect) in instances.iter().zip(&fresh) {
            assert_eq!(&context_abscons(&ctx, m), expect, "{round}: {m}");
        }
    }
    let evicting = EngineContext::new().with_memory_budget(1);
    for (m, expect) in instances.iter().zip(&fresh) {
        assert_eq!(&context_abscons(&evicting, m), expect, "evicting: {m}");
    }
    let stats = evicting.stats();
    assert_eq!(stats.sat.entries, 0, "{stats}");
    assert!(stats.sat.evictions >= 2 * instances.len() as u64, "{stats}");

    // The type-fixpoint side grows fast on long chains: chains up to 12.
    for m in instances[..11].iter().chain(&instances[CHAINS..]) {
        let fast = consistent_nr_ptime(m).expect("Fact 5.1 fragment");
        assert_eq!(
            fast,
            ctx.consistent(m, BUDGET).unwrap().is_consistent(),
            "{m}"
        );
    }
}

/// The kernel is built by the first nested-relational query, not by the
/// cache fill, and is accounted once built.
#[test]
fn nested_relational_kernel_is_built_lazily_and_accounted() {
    let ctx = EngineContext::new().with_memory_budget(1 << 30);
    let m = hard::abscons_chain(24);
    ctx.sat_cache(&m.source_dtd);
    ctx.sat_cache(&m.target_dtd);
    let before = ctx.stats().sat.bytes;
    assert!(context_abscons(&ctx, &m).0);
    let after = ctx.stats();
    assert_eq!(after.sat.misses, 2, "{after}");
    assert!(after.sat.bytes > before, "{before} -> {after}");
}
