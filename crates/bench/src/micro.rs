//! The `--json` micro-benchmark suite behind `BENCH_eval.json`.
//!
//! Measures median ns/op for the hot paths of the evaluation kernel
//! (Figure 2 workloads): pattern enumeration, seeded backtracking probes,
//! the structural DP, mapping membership, the chase, and certain answers.
//!
//! Baseline workflow: `tables --json --capture-baseline` stores the current
//! medians in `BENCH_baseline.txt`; later plain `--json` runs re-measure and
//! write `BENCH_eval.json` with `baseline`, `current` and per-benchmark
//! `speedup` sections, so a perf change carries its own before/after
//! evidence in one artefact.

use crate::measure_median_ns;
use std::time::Duration;
use xmlmap_automata::HedgeAutomaton;
use xmlmap_core::consistency;
use xmlmap_dtd::Dtd;
use xmlmap_gen::hard;
use xmlmap_patterns::{Pattern, Valuation, Var};
use xmlmap_trees::{Name, Tree, Value};

/// Samples per micro-benchmark (median of these is reported).
const SAMPLES: usize = 9;
/// Target measurement time per micro-benchmark.
const BUDGET: Duration = Duration::from_millis(250);
/// States budget for the type-fixpoint rows (never hit by these families).
const SAT_BUDGET: usize = 50_000_000;
/// States budget for the automata rows (never hit by these families).
const AUTO_BUDGET: usize = 50_000_000;

/// Satisfiability probes against the university DTD: the repeated-probe
/// workload of the consistency procedures (N sat calls against one schema).
const UNI_PROBES: [&str; 16] = [
    "r/prof(x)",
    "r//course(c)",
    "r//student(s)",
    "r/prof(x)[teach[year(y)]]",
    "r[prof(x)[supervise[student(s)]]]",
    "r[prof(x)[teach[year(y)[course(c1) -> course(c2)]]]]",
    "r//year(y)[course(c)]",
    "r[prof(a), prof(b)]",
    "r[prof(x)[teach[year(y)[course(c1) ->* course(c2)]]]]",
    "r//teach[year(y)]",
    "r[prof(x), prof(z)[supervise]]",
    "r//supervise[student(s1), student(s2)]",
    "r/prof(x)[teach[year(y)[course(c)]], supervise]",
    "r//year(y)[course(c1), course(c2)]",
    "r/prof(x)[supervise[student(s1) -> student(s2)]]",
    "r//prof(p)[teach[year(q)]]",
];

/// The value-free Π₂ᵖ family from the ABSCONS° grid row: `n` source labels
/// under `(a0|…|an-1)*`, each mapped to `r/c` (2ⁿ source match sets).
fn valuefree_mapping(n: usize) -> xmlmap_core::Mapping {
    let labels: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let ds = xmlmap_dtd::parse(&format!("root r\nr -> ({})*", labels.join("|"))).unwrap();
    let dt = xmlmap_dtd::parse("root r\nr -> c*").unwrap();
    let stds = (0..n)
        .map(|i| xmlmap_core::Std::parse(&format!("r/a{i} --> r/c")).unwrap())
        .collect();
    xmlmap_core::Mapping::new(ds, dt, stds)
}

/// A failing pattern with `n` independent `//`-obligations over a flat
/// tree — exponential for backtracking, linear for the structural DP
/// (same family as the ablation bench).
fn adversarial(n: usize, width: usize) -> (Tree, Pattern) {
    let mut t = Tree::new("r");
    for i in 0..width {
        t.add_child(Tree::ROOT, "a", [("v", Value::int(i as i64))]);
    }
    let mut p = Pattern::leaf("r", Vec::<Var>::new());
    for i in 0..n {
        p = p.descendant(Pattern::leaf("a", [format!("u{i}")]));
    }
    p = p.descendant(Pattern::leaf("zz", Vec::<Var>::new()));
    (t, p)
}

/// DTD whose root production is the classic "n-th symbol from the end"
/// language `(x|y)*, x, (x|y)ⁿ` — its horizontal DFA has ~2ⁿ subset
/// states, so inclusion pays the full subset construction. `flipped`
/// spells the same language `y|x`.
pub fn nthlast_dtd(n: usize, flipped: bool) -> Dtd {
    let (alt, tail) = if flipped {
        ("y|x", ", (y|x)".repeat(n))
    } else {
        ("x|y", ", (x|y)".repeat(n))
    };
    xmlmap_dtd::parse(&format!("root r\nr -> ({alt})*, x{tail}")).unwrap()
}

/// A `k`-label DTD `r -> (a0|…|ak-1)*, last` for the product-emptiness
/// rows: two instances with different `last` have an empty intersection,
/// and a naive product pays O(k²) pair symbols per horizontal rule.
fn alt_tail_dtd(k: usize, last: usize) -> Dtd {
    let alts: Vec<String> = (0..k).map(|i| format!("a{i}")).collect();
    xmlmap_dtd::parse(&format!("root r\nr -> ({})*, a{last}", alts.join("|"))).unwrap()
}

/// A widened university DTD: every `xmlmap_gen::university_dtd` document
/// conforms to it (same attributes on reachable labels), so `subschema`
/// runs the full inclusion fixpoint and answers "yes".
fn university_evolved_dtd() -> Dtd {
    xmlmap_dtd::parse(
        "root r
         r -> prof*, visitor*
         prof -> teach, supervise, award?
         teach -> year+
         year -> course, course, course?
         supervise -> student*
         prof @ name
         student @ sid
         year @ y
         course @ cno",
    )
    .unwrap()
}

/// The university exchange mapping used by the chase/certain-answers rows.
fn university_mapping() -> xmlmap_core::Mapping {
    xmlmap_core::Mapping::new(
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
    )
}

/// A 200-job cache-heavy batch over a handful of compiled artifacts: the
/// workload the shared [`EngineContext`](xmlmap_core::EngineContext) is
/// designed for — six schemas and one automata pair compile once, and the
/// remaining ~195 jobs are answered from the caches.
fn engine_batch_jobs() -> Vec<xmlmap_core::BatchJob> {
    use std::sync::Arc;
    use xmlmap_core::{BatchJob, JobKind};
    let ce = Arc::new(hard::cons_exptime(5));
    let cn = Arc::new(hard::cons_nextsib(4));
    let vf = Arc::new(valuefree_mapping(6));
    let d1 = Arc::new(nthlast_dtd(6, false));
    let d2 = Arc::new(nthlast_dtd(6, true));
    let mut jobs = Vec::new();
    for i in 0..50 {
        jobs.push(BatchJob {
            label: format!("cons exptime5 {i}"),
            kind: JobKind::Consistent {
                mapping: ce.clone(),
                budget: SAT_BUDGET,
            },
        });
        jobs.push(BatchJob {
            label: format!("cons nextsib4 {i}"),
            kind: JobKind::Consistent {
                mapping: cn.clone(),
                budget: SAT_BUDGET,
            },
        });
        jobs.push(BatchJob {
            label: format!("abscons valuefree6 {i}"),
            kind: JobKind::AbsCons {
                mapping: vf.clone(),
                budget: SAT_BUDGET,
            },
        });
        jobs.push(BatchJob {
            label: format!("subschema nthlast6 {i}"),
            kind: JobKind::Subschema {
                d1: d1.clone(),
                d2: d2.clone(),
                budget: SAT_BUDGET,
            },
        });
    }
    jobs
}

/// Runs every micro-benchmark, returning `(name, median ns/op)` rows.
pub fn run_suite() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut bench = |name: &'static str, f: &mut dyn FnMut()| {
        let ns = measure_median_ns(SAMPLES, BUDGET, f);
        eprintln!("  {name:<40} {:>12.0} ns/op", ns);
        out.push((name, ns));
    };

    // Pattern enumeration over the intro document (Fig. 2 row 1).
    let pi1 = xmlmap_patterns::parse(
        "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]]",
    )
    .unwrap();
    let uni160 = xmlmap_gen::university_tree(160, 3);
    bench("eval/all_matches_university160", &mut || {
        assert_eq!(xmlmap_patterns::all_matches(&uni160, &pi1).len(), 480);
    });

    // Seeded existential probe: the target-side check an std performs.
    let student = xmlmap_patterns::parse("r//student(s)").unwrap();
    let seed: Valuation = [(Var::new("s"), Value::str("s159_2"))]
        .into_iter()
        .collect();
    bench("eval/matches_with_seeded_probe", &mut || {
        assert!(xmlmap_patterns::matches_with(&uni160, &student, &seed));
    });

    // Failing multi-item pattern, backtracking forced via the seeded path.
    let (advt, advp) = adversarial(3, 24);
    bench("eval/matches_with_adversarial3", &mut || {
        assert!(!xmlmap_patterns::matches_with(
            &advt,
            &advp,
            &Valuation::new()
        ));
    });

    // The polynomial structural DP on a wide instance.
    let (dpt, dpp) = adversarial(16, 24);
    bench("eval/structural_dp16", &mut || {
        assert_eq!(xmlmap_patterns::matches_structural(&dpt, &dpp), Some(false));
    });

    // Membership, data complexity (fixed 2-var mapping; Fig. 2 row 2).
    let m2 = xmlmap_gen::hard::membership_vars(2);
    let (md1, md3) = xmlmap_gen::hard::membership_instance(256);
    bench("membership/data_k256", &mut || {
        assert!(m2.is_solution(&md1, &md3));
    });

    // Membership, combined complexity (k^n firings; Fig. 2 row 3).
    let mh = xmlmap_gen::hard::membership_vars_hard(4);
    let (mh1, mh3) = xmlmap_gen::hard::membership_hard_instance(4, 4);
    bench("membership/combined_n4_k4", &mut || {
        assert!(mh.is_solution(&mh1, &mh3));
    });

    // The chase: canonical solution of the university mapping, through a
    // per-mapping ChaseCache (the intended repeated-chase usage).
    let m = university_mapping();
    let chase_cache = xmlmap_core::ChaseCache::new(&m);
    let uni80 = xmlmap_gen::university_tree(80, 3);
    bench("chase/university_profs80", &mut || {
        let sol = xmlmap_core::canonical_solution_cached(&m, &uni80, &chase_cache).unwrap();
        assert!(sol.size() > 1);
    });
    let uni320 = xmlmap_gen::university_tree(320, 3);
    bench("chase/university_profs320", &mut || {
        let sol = xmlmap_core::canonical_solution_cached(&m, &uni320, &chase_cache).unwrap();
        assert!(sol.size() > 1);
    });

    // Certain answers: chase + enumeration + null filtering.
    let uni20 = xmlmap_gen::university_tree(20, 3);
    let query = xmlmap_patterns::parse("r/course(c, y)[taughtby(t)]").unwrap();
    bench("exchange/certain_answers_profs20", &mut || {
        let ans = xmlmap_core::certain_answers_cached(&m, &uni20, &query, &chase_cache).unwrap();
        assert_eq!(ans.len(), 40);
    });
    let uni80q = xmlmap_gen::university_tree(80, 3);
    bench("exchange/certain_answers_profs80", &mut || {
        let ans = xmlmap_core::certain_answers_cached(&m, &uni80q, &query, &chase_cache).unwrap();
        assert_eq!(ans.len(), 160);
    });

    // ---- consistency micro-suite (type-fixpoint engine workloads) ----

    // Repeated satisfiability probes against one schema: N probes pay the
    // schema compilation once under the SatCache.
    let uni_dtd = xmlmap_gen::university_dtd();
    let probes: Vec<Pattern> = UNI_PROBES
        .iter()
        .map(|s| xmlmap_patterns::parse(s).unwrap())
        .collect();
    let cache = xmlmap_patterns::SatCache::new(&uni_dtd).with_context("bench probes");
    bench("sat/probes_university_x16", &mut || {
        let n_sat = probes
            .iter()
            .filter(|p| cache.satisfiable(p, SAT_BUDGET).unwrap().is_some())
            .count();
        assert_eq!(n_sat, 16);
    });

    // Achievable match sets over 8 patterns (the CONS/ABSCONS primitive).
    let vf8 = valuefree_mapping(8);
    let srcs8: Vec<&Pattern> = vf8.stds.iter().map(|s| &s.source).collect();
    bench("sat/match_sets_n8", &mut || {
        let sets =
            xmlmap_patterns::achievable_match_sets(&vf8.source_dtd, &srcs8, SAT_BUDGET).unwrap();
        assert_eq!(sets.len(), 256);
    });

    // CONS on the EXPTIME family (2ⁿ−1 source match sets, inconsistent).
    let ce = hard::cons_exptime(6);
    bench("cons/exptime_n6", &mut || {
        let ans = consistency::consistent(&ce, SAT_BUDGET).unwrap();
        assert!(!ans.is_consistent());
    });

    // CONS with next-sibling chains (the PSPACE-hard family).
    let cn = hard::cons_nextsib(4);
    bench("cons/nextsib_n4", &mut || {
        let ans = consistency::consistent(&cn, SAT_BUDGET).unwrap();
        assert!(ans.is_consistent());
    });

    // ABSCONS° on the value-free Π₂ᵖ family.
    let vf6 = valuefree_mapping(6);
    bench("abscons/structural_n6", &mut || {
        let ans = xmlmap_core::abscons_structural(&vf6, SAT_BUDGET)
            .unwrap()
            .unwrap();
        assert!(ans.holds());
    });

    // Composition consistency: joint engine runs over the middle schema.
    let (m12, m23) = hard::compose_chain(3);
    bench("cons/compose_chain3", &mut || {
        assert!(consistency::composition_consistent(&m12, &m23, SAT_BUDGET).unwrap());
    });

    // ---- automata micro-suite (hedge-automata engine workloads) ----

    // Inclusion, miss path: a fresh check compiles both automata and runs
    // the (q_A, S_B) fixpoint from scratch every time.
    let inc_d1 = nthlast_dtd(8, false);
    let inc_d2 = nthlast_dtd(8, true);
    let inc_alphabet: Vec<Name> = inc_d1.alphabet().cloned().collect();
    bench("automata/inclusion_miss_nthlast8", &mut || {
        let a = HedgeAutomaton::from_dtd(&inc_d1);
        let b = HedgeAutomaton::from_dtd(&inc_d2);
        let verdict =
            xmlmap_automata::inclusion_counterexample(&a, &b, &inc_alphabet, AUTO_BUDGET).unwrap();
        assert!(verdict.is_none());
    });

    // Inclusion, hit path: repeated checks against one schema pair (the
    // AutomataCache workload — every check after the first reuses the
    // compiled tables and the memoized verdict).
    let inc_cache = xmlmap_automata::AutomataCache::new(&inc_d1, &inc_d2);
    bench("automata/inclusion_hit_nthlast8", &mut || {
        assert!(inc_cache.inclusion(AUTO_BUDGET).unwrap().is_none());
    });

    // Subschema at two sizes: the subset-blowup family and the schema-
    // evolution workload (university DTD vs a widened revision).
    let sub_d1 = nthlast_dtd(5, false);
    let sub_d2 = nthlast_dtd(5, true);
    bench("automata/subschema_nthlast5", &mut || {
        let v = xmlmap_automata::AutomataCache::new(&sub_d1, &sub_d2)
            .subschema(AUTO_BUDGET)
            .unwrap();
        assert!(v.is_none());
    });
    let uni = xmlmap_gen::university_dtd();
    let uni_evolved = university_evolved_dtd();
    bench("automata/subschema_uni_evolved", &mut || {
        let v = xmlmap_automata::AutomataCache::new(&uni, &uni_evolved)
            .subschema(AUTO_BUDGET)
            .unwrap();
        assert!(v.is_none());
    });

    // Product emptiness at two sizes: disjoint `(a0|…|ak)*, last`
    // languages; the verdict needs the inhabited-pair fixpoint only.
    let prod_a8 = HedgeAutomaton::from_dtd(&alt_tail_dtd(8, 0));
    let prod_b8 = HedgeAutomaton::from_dtd(&alt_tail_dtd(8, 1));
    bench("automata/product_empty_k8", &mut || {
        assert!(prod_a8.product(&prod_b8).is_empty());
    });
    let prod_a24 = HedgeAutomaton::from_dtd(&alt_tail_dtd(24, 0));
    let prod_b24 = HedgeAutomaton::from_dtd(&alt_tail_dtd(24, 1));
    bench("automata/product_empty_k24", &mut || {
        assert!(prod_a24.product(&prod_b24).is_empty());
    });

    // ---- engine micro-suite (shared EngineContext / batch driver) ----

    // The same 200-job mixed batch two ways, single worker both times so
    // the comparison isolates cache sharing from thread fan-out: `shared`
    // routes every job through one context (compile once, ~195 cache
    // hits); `fresh_ctx_per_job` rebuilds the caches for every job — the
    // per-call-cache workload the context replaces. The committed baseline
    // for the shared row is the fresh-per-job median, so the `speedup`
    // section of BENCH_eval.json records shared-vs-per-call directly.
    let batch_jobs = engine_batch_jobs();
    let no_failures = |results: &[xmlmap_core::JobResult]| {
        assert!(
            results
                .iter()
                .all(|r| !matches!(r, xmlmap_core::JobResult::Failed { .. })),
            "engine batch rows must complete every job"
        );
    };
    bench("engine/batch200_shared_ctx", &mut || {
        let ctx = xmlmap_core::EngineContext::new();
        no_failures(&xmlmap_core::run_batch(&ctx, &batch_jobs, 1));
    });
    bench("engine/batch200_fresh_ctx_per_job", &mut || {
        let results: Vec<xmlmap_core::JobResult> = batch_jobs
            .iter()
            .map(|job| xmlmap_core::run_job(&xmlmap_core::EngineContext::new(), job))
            .collect();
        no_failures(&results);
    });

    // Steady state: one probe against a fully warm context (every lookup a
    // cache hit — the marginal cost of a job inside a long session).
    let warm = xmlmap_core::EngineContext::new();
    let warm_cn = hard::cons_nextsib(4);
    assert!(warm
        .consistent(&warm_cn, SAT_BUDGET)
        .unwrap()
        .is_consistent());
    bench("engine/ctx_hit_consistent", &mut || {
        assert!(warm
            .consistent(&warm_cn, SAT_BUDGET)
            .unwrap()
            .is_consistent());
    });

    // Cold start with a warm artifact store: the restart workload the
    // persistent store targets. One throwaway run populates the store;
    // every measured iteration then builds a *fresh* context (cold memo
    // caches) over the same directory, so the automata become disk loads
    // while the memory-only families recompile. Compare against
    // `engine/batch200_shared_ctx`, whose fresh context compiles all.
    let disk_dir = std::env::temp_dir().join(format!("xmlmap-bench-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    {
        let ctx = xmlmap_core::EngineContext::new()
            .with_disk_cache(&disk_dir)
            .expect("bench disk-cache dir");
        no_failures(&xmlmap_core::run_batch(&ctx, &batch_jobs, 1));
        ctx.flush_disk_cache();
    }
    bench("engine/batch200_disk_warm", &mut || {
        let ctx = xmlmap_core::EngineContext::new()
            .with_disk_cache(&disk_dir)
            .expect("bench disk-cache dir");
        no_failures(&xmlmap_core::run_batch(&ctx, &batch_jobs, 1));
        let automata = ctx.stats().automata;
        assert_eq!(automata.compiled(), 0, "warm store compiles no automata");
        assert!(automata.disk_hits > 0, "warm automata come off disk");
    });
    let _ = std::fs::remove_dir_all(&disk_dir);

    // Cache churn under a memory budget far below the working set: every
    // artifact is repeatedly evicted and recompiled, yet accounted bytes
    // stay bounded. This is the worst case for the bounded context — the
    // row exists to keep the eviction machinery's overhead visible, not to
    // be fast.
    bench("engine/batch200_bounded_churn", &mut || {
        let ctx = xmlmap_core::EngineContext::new().with_memory_budget(10_000);
        no_failures(&xmlmap_core::run_batch(&ctx, &batch_jobs, 1));
        let stats = ctx.stats();
        assert!(stats.total_bytes() <= 10_000, "budget respected: {stats}");
        assert!(
            stats.sat.evictions + stats.automata.evictions > 0,
            "churn row must actually evict: {stats}"
        );
    });

    // Streaming rows: the O(depth) engines of `xmlmap stream`. Both are
    // self-asserting — the membership row checks the streaming verdict
    // against the tree-based evaluator on the 1x bench document, and the
    // RSS row checks that peak live streaming state over a 100x corpus
    // stays within 2x of the 1x run (flat in document size). Corpora are
    // streamed from temp files, never materialised.
    let uni_idx = std::sync::Arc::new(xmlmap_dtd::DtdIndex::new(&xmlmap_gen::university_dtd()));
    let stream_dir =
        std::env::temp_dir().join(format!("xmlmap-bench-stream-{}", std::process::id()));
    std::fs::create_dir_all(&stream_dir).expect("bench corpus dir");
    let corpus = |scale: usize| {
        let path = stream_dir.join(format!("university_{scale}x.xml"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).expect("bench corpus"));
        xmlmap_gen::write_university_xml(160 * scale, 3, &mut w).expect("bench corpus");
        std::io::Write::flush(&mut w).expect("bench corpus");
        path
    };
    let stream_file = |path: &std::path::Path, plan: Option<&xmlmap_patterns::StreamPattern>| {
        let src = std::io::BufReader::new(std::fs::File::open(path).expect("bench corpus"));
        let out = xmlmap_core::stream_document(&uni_idx, plan, src).expect("well-formed corpus");
        assert_eq!(out.violation, None, "bench corpora conform");
        out
    };
    let (corpus_1x, corpus_100x) = (corpus(1), corpus(100));

    // Membership verdict parity on the 1x document, measured streaming.
    let stream_probe = xmlmap_patterns::parse("r//year(y)[course(c1), course(c2)]").unwrap();
    let stream_plan = xmlmap_patterns::StreamPattern::compile(&stream_probe).unwrap();
    let mut tree_1x = xmlmap_gen::university_tree(160, 3);
    uni_idx.dtd().normalize_attrs(&mut tree_1x).unwrap();
    let tree_verdict = xmlmap_patterns::matches(&tree_1x, &stream_probe);
    bench("stream/membership_vs_tree_1x", &mut || {
        let out = stream_file(&corpus_1x, Some(&stream_plan));
        assert_eq!(out.matched, Some(tree_verdict), "stream vs tree verdict");
    });

    // Flat-RSS conformance: peak live state over 100x within 2x of 1x.
    let state_1x = stream_file(&corpus_1x, None).stats.peak_state_bytes;
    bench("stream/conformance_100x_flat_rss", &mut || {
        let out = stream_file(&corpus_100x, None);
        assert!(
            out.stats.peak_state_bytes <= 2 * state_1x,
            "streaming state grew with document size: {} bytes at 100x vs {} at 1x",
            out.stats.peak_state_bytes,
            state_1x
        );
    });
    // Streaming-chase rows (DESIGN.md §8.8). Both self-asserting: the
    // parity row checks that the streamed canonical solution equals the
    // tree chase's exactly (same canonical firing order ⇒ equal trees)
    // and that a streamed pass stays within 10x of a parse-then-chase
    // tree run on the same bytes; the flat-RSS row chases an exchange
    // corpus whose pad tail is 100x bigger and checks that firings and
    // peak live streaming state do not grow with the pad count.
    let ex_map = xmlmap_gen::exchange_mapping();
    let ex_idx = std::sync::Arc::new(xmlmap_dtd::DtdIndex::new(&ex_map.source_dtd));
    let ex_plan = xmlmap_core::EngineContext::new().stream_chase_plan(&ex_map);
    assert!(ex_plan.unstreamable().is_none(), "exchange stds stream");
    let ex_corpus = |scale: usize, pads: usize| {
        let path = stream_dir.join(format!("exchange_{scale}x.xml"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).expect("bench corpus"));
        xmlmap_gen::write_exchange_xml(160, 3, pads, &mut w).expect("bench corpus");
        std::io::Write::flush(&mut w).expect("bench corpus");
        path
    };
    let chase_file = |path: &std::path::Path| {
        let src = std::io::BufReader::new(std::fs::File::open(path).expect("bench corpus"));
        let out = xmlmap_core::chase_stream(&ex_idx, &ex_plan, src).expect("streamable plan");
        assert_eq!(out.violation, None, "bench corpora conform");
        out
    };
    let (ex_1x, ex_100x) = (ex_corpus(1, 4_000), ex_corpus(100, 400_000));

    // The bare tokenizer over the 1x exchange corpus: one `SaxReader`
    // pass, no validation or matching, so this row isolates the cost
    // every streamed row above and below pays first.
    let tokenize = || {
        let src = std::io::BufReader::new(std::fs::File::open(&ex_1x).expect("bench corpus"));
        let mut reader = xmlmap_trees::SaxReader::new(src);
        let mut events = 0usize;
        while reader.next_event().expect("well-formed corpus").is_some() {
            events += 1;
        }
        events
    };
    let events_1x = tokenize();
    bench("stream/sax_tokenize_1x", &mut || {
        assert_eq!(tokenize(), events_1x, "same corpus, same events");
    });

    let started = std::time::Instant::now();
    let expected = {
        let text = std::fs::read_to_string(&ex_1x).expect("bench corpus");
        let mut tree = xmlmap_trees::xml::parse(&text).expect("bench corpus");
        ex_map
            .source_dtd
            .normalize_attrs(&mut tree)
            .expect("conforms");
        xmlmap_core::canonical_solution(&ex_map, &tree).expect("in fragment")
    };
    let tree_chase = started.elapsed();
    let started = std::time::Instant::now();
    let out_1x = chase_file(&ex_1x);
    let stream_chase = started.elapsed();
    assert!(
        stream_chase <= tree_chase.max(Duration::from_millis(1)) * 10,
        "streamed chase ({stream_chase:?}) fell behind parse+chase ({tree_chase:?}) by over 10x"
    );
    bench("stream/chase_vs_tree_1x", &mut || {
        let out = chase_file(&ex_1x);
        let sol = out.solution.expect("conforming").expect("in fragment");
        assert!(sol == expected, "stream vs tree chase solutions differ");
    });

    // Flat-RSS chase: 100x the pads, same professors — identical firings,
    // peak live state within 2x of the 1x run.
    let live_1x = out_1x.peak_live_bytes();
    let firings_1x = out_1x.firings;
    bench("stream/chase_100x_flat_rss", &mut || {
        let out = chase_file(&ex_100x);
        assert_eq!(out.firings, firings_1x, "pads must fire nothing");
        assert!(
            out.peak_live_bytes() <= 2 * live_1x,
            "live chase state grew with corpus size: {} bytes at 100x vs {} at 1x",
            out.peak_live_bytes(),
            live_1x
        );
    });
    // Incremental-chase row (DESIGN.md §8.9): one single-op update against
    // a live delta session vs a from-scratch re-chase of the same 100x
    // exchange document. The edit rewrites an inert pad attribute, so the
    // session's refire frontier skips every std and the read returns the
    // kept solution; the one-shot self-assert pins the ≥5x
    // headline of the EXPERIMENTS.md updates/sec table.
    let mut ex_tree_100x = {
        let text = std::fs::read_to_string(&ex_100x).expect("bench corpus");
        xmlmap_trees::xml::parse(&text).expect("bench corpus")
    };
    ex_map
        .source_dtd
        .normalize_attrs(&mut ex_tree_100x)
        .expect("conforms");
    // Tree conformance on the same document: 400,000 pads under one root
    // is the children word a delta session's `revalidate` runs.
    bench("dtd/check_exchange_100x", &mut || {
        assert!(ex_map.source_dtd.check(&ex_tree_100x).is_ok());
    });
    let started = std::time::Instant::now();
    let expected_100x =
        xmlmap_core::canonical_solution(&ex_map, &ex_tree_100x).expect("in fragment");
    let rechase = started.elapsed();
    let mut session = xmlmap_core::IncrementalChase::new(&ex_map, ex_tree_100x);
    // Flip the first pad's `a` attribute back and forth (its seeded value
    // is `a0`), so every iteration really edits the document.
    let flips = [
        xmlmap_core::parse_updates("settext 160 a a7").expect("static update"),
        xmlmap_core::parse_updates("settext 160 a a0").expect("static update"),
    ];
    let started = std::time::Instant::now();
    session.apply(&flips[0][0]).expect("valid update");
    assert!(
        *session.canonical_solution().expect("in fragment") == expected_100x,
        "a pad edit must not change the solution"
    );
    let delta_update = started.elapsed();
    assert!(
        delta_update <= rechase.max(Duration::from_millis(5)) / 5,
        "single-op delta update ({delta_update:?}) is not ≥5x faster than re-chase ({rechase:?})"
    );
    let mut flip = 0usize;
    bench("chase/delta_vs_rechase", &mut || {
        flip ^= 1;
        session.apply(&flips[flip][0]).expect("valid update");
        let sol = session.canonical_solution().expect("in fragment");
        assert!(*sol == expected_100x, "delta vs re-chase solutions differ");
    });
    // Professor-commit row (ROADMAP item 7), on the same session: delete
    // professor 0 and reinsert it with its `name` flipped between two
    // values, then read. The professor stds are diffed at each edit, the
    // root's children word is re-stepped from the edit, and the arena
    // replays from the first changed firing, once per commit, so the read
    // materializes a fresh solution. Both states are checked against a
    // from-scratch chase once, outside the timed closure.
    let prof0 = session.doc().children(Tree::ROOT)[0];
    let original = session.doc().subtree(prof0);
    let mut renamed = original.clone();
    renamed.set_attr(Tree::ROOT, "name", Value::str("p0_renamed"));
    let prof_commits = [renamed, original].map(|prof| {
        [
            xmlmap_core::Update::DeleteSubtree { path: vec![0] },
            xmlmap_core::Update::InsertSubtree {
                parent: Vec::new(),
                pos: 0,
                subtree: prof,
            },
        ]
    });
    for commit in &prof_commits {
        for u in commit {
            session.apply(u).expect("valid update");
        }
        let want = xmlmap_core::canonical_solution(&ex_map, session.doc());
        assert!(
            session.canonical_solution().as_deref() == want.as_ref(),
            "professor commit vs re-chase solutions differ"
        );
    }
    let mut next = 0usize;
    bench("chase/delta_prof_commit_100x", &mut || {
        for u in &prof_commits[next] {
            session.apply(u).expect("valid update");
        }
        next ^= 1;
        session.canonical_solution().expect("in fragment");
    });
    let _ = std::fs::remove_dir_all(&stream_dir);

    out
}

/// Stores medians as `name<TAB>ns` lines (the committed baseline format).
pub fn write_baseline(path: &str, rows: &[(&'static str, f64)]) -> std::io::Result<()> {
    let mut s = String::new();
    for (name, ns) in rows {
        s.push_str(&format!("{name}\t{ns:.1}\n"));
    }
    std::fs::write(path, s)
}

/// Reads a baseline file written by [`write_baseline`]; `None` if absent.
pub fn read_baseline(path: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let (name, ns) = line.split_once('\t')?;
        rows.push((name.to_string(), ns.trim().parse().ok()?));
    }
    Some(rows)
}

/// Renders the `BENCH_eval.json` document.
pub fn render_json(baseline: Option<&[(String, f64)]>, current: &[(&'static str, f64)]) -> String {
    fn obj(rows: &[(&str, f64)]) -> String {
        let fields: Vec<String> = rows
            .iter()
            .map(|(name, ns)| format!("    \"{name}\": {ns:.1}"))
            .collect();
        format!("{{\n{}\n  }}", fields.join(",\n"))
    }
    let mut s = String::from("{\n");
    s.push_str("  \"unit\": \"median ns per op\",\n");
    s.push_str("  \"command\": \"cargo run --release -p xmlmap-bench --bin tables -- --json\",\n");
    if let Some(base) = baseline {
        let base_rows: Vec<(&str, f64)> = base.iter().map(|(n, ns)| (n.as_str(), *ns)).collect();
        s.push_str(&format!("  \"baseline\": {},\n", obj(&base_rows)));
        let speedups: Vec<(&str, f64)> = current
            .iter()
            .filter_map(|(name, ns)| {
                let b = base.iter().find(|(bn, _)| bn == name)?.1;
                Some((*name, b / ns))
            })
            .collect();
        s.push_str(&format!(
            "  \"current\": {},\n  \"speedup\": {}\n",
            obj(current),
            obj(&speedups)
        ));
    } else {
        s.push_str(&format!("  \"current\": {}\n", obj(current)));
    }
    s.push_str("}\n");
    s
}

/// Parses the `"current"` section of a committed `BENCH_eval.json`-style
/// document (the gate's reference medians). `None` if the file is absent or
/// has no parseable `"current"` object.
pub fn read_committed_current(path: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let start = text.find("\"current\"")?;
    let open = start + text[start..].find('{')?;
    let close = open + text[open..].find('}')?;
    let mut rows = Vec::new();
    for line in text[open + 1..close].lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let (name, ns) = line.rsplit_once(':')?;
        rows.push((
            name.trim().trim_matches('"').to_string(),
            ns.trim().parse().ok()?,
        ));
    }
    if rows.is_empty() {
        None
    } else {
        Some(rows)
    }
}

/// Regression-gate comparison: rows whose fresh median exceeds
/// `threshold ×` the committed median. Benchmarks present on only one side
/// are skipped (new rows can't regress; removed rows can't be measured).
pub fn regressions(
    committed: &[(String, f64)],
    current: &[(&'static str, f64)],
    threshold: f64,
) -> Vec<(String, f64, f64)> {
    current
        .iter()
        .filter_map(|(name, ns)| {
            let committed_ns = committed.iter().find(|(cn, _)| cn == name)?.1;
            (committed_ns > 0.0 && *ns > threshold * committed_ns)
                .then(|| (name.to_string(), committed_ns, *ns))
        })
        .collect()
}

/// The factor by which a benchmark median may exceed the committed
/// reference before the `--gate` run fails.
pub const GATE_THRESHOLD: f64 = 2.0;

/// The `--json` entry point: measure, optionally (re)capture the baseline,
/// and write `BENCH_eval.json` next to the current directory.
///
/// With `gate = Some(path)`, the committed reference medians are read from
/// `path` *before* measuring (the run overwrites `BENCH_eval.json`), and the
/// return value is `false` if any shared benchmark regressed by more than
/// [`GATE_THRESHOLD`]×.
pub fn run_json(capture_baseline: bool, gate: Option<&str>) -> bool {
    // Read the committed reference first: measuring rewrites BENCH_eval.json,
    // and the gate file is usually that same committed artefact.
    let committed = gate.map(|path| {
        read_committed_current(path)
            .unwrap_or_else(|| panic!("--gate {path}: no parseable \"current\" section"))
    });
    eprintln!("running eval micro-benchmarks ({SAMPLES} samples each)…");
    let current = run_suite();
    if capture_baseline {
        write_baseline("BENCH_baseline.txt", &current).expect("write BENCH_baseline.txt");
        eprintln!("captured baseline -> BENCH_baseline.txt");
    }
    let baseline = read_baseline("BENCH_baseline.txt");
    let json = render_json(baseline.as_deref(), &current);
    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    println!("{json}");
    eprintln!("wrote BENCH_eval.json");
    if let Some(committed) = committed {
        let bad = regressions(&committed, &current, GATE_THRESHOLD);
        if bad.is_empty() {
            eprintln!(
                "bench gate: OK ({} shared benchmarks within {GATE_THRESHOLD}x)",
                current
                    .iter()
                    .filter(|(n, _)| committed.iter().any(|(cn, _)| cn == n))
                    .count()
            );
        } else {
            eprintln!("bench gate: FAILED — regressions over {GATE_THRESHOLD}x:");
            for (name, was, now) in &bad {
                eprintln!(
                    "  {name:<40} {was:>12.0} -> {now:>12.0} ns/op ({:.2}x)",
                    now / was
                );
            }
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_with_baseline() {
        let base = vec![("a/b".to_string(), 300.0)];
        let cur = vec![("a/b", 100.0)];
        let json = render_json(Some(&base), &cur);
        assert!(json.contains("\"baseline\""));
        assert!(json.contains("\"a/b\": 3.0"), "{json}");
    }

    #[test]
    fn committed_current_roundtrip_and_gate() {
        let base = vec![("a/b".to_string(), 300.0), ("c/d".to_string(), 50.0)];
        let cur = vec![("a/b", 100.0), ("c/d", 120.0), ("new/row", 7.0)];
        let json = render_json(Some(&base), &cur);
        let dir = std::env::temp_dir().join("xmlmap_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("committed.json");
        std::fs::write(&path, &json).unwrap();
        let committed = read_committed_current(path.to_str().unwrap()).unwrap();
        assert_eq!(
            committed,
            vec![
                ("a/b".to_string(), 100.0),
                ("c/d".to_string(), 120.0),
                ("new/row".to_string(), 7.0)
            ]
        );
        // Fresh run: a/b fine, c/d regressed 3x, extra/row ignored.
        let fresh = vec![("a/b", 150.0), ("c/d", 360.0), ("extra/row", 1.0)];
        let bad = regressions(&committed, &fresh, GATE_THRESHOLD);
        assert_eq!(bad, vec![("c/d".to_string(), 120.0, 360.0)]);
    }

    #[test]
    fn baseline_roundtrip() {
        let dir = std::env::temp_dir().join("xmlmap_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.txt");
        let path = path.to_str().unwrap();
        write_baseline(path, &[("x/y", 12.5)]).unwrap();
        let back = read_baseline(path).unwrap();
        assert_eq!(back, vec![("x/y".to_string(), 12.5)]);
    }
}
