//! `schema-audit`: static analysis over a pool of mappings and schemas.
//!
//! The job list is fixed by the seed: consistency and absolute
//! consistency of random nested-relational mappings, subschema checks
//! between random schemas and their relaxations, and `gen::hard`
//! instances (`cons_nextsib`, `cons_exptime`, `abscons_chain`,
//! `compose_chain`) sized to take milliseconds each. Each op is one
//! in-memory `BatchJob` run by `batch::run_job` on one worker.
//!
//! The engines memoize verdicts, so a query asked twice of one context
//! is a cache hit. The timed phase therefore runs in rounds: each round
//! sets up a fresh context (parse every mapping and DTD text, compile
//! every schema's artifacts; that set-up is what `setup_s` reports) and
//! then asks every query once. This is the only workload where the
//! type-fixpoint and hedge-automata engines do real work.

use crate::calib::{timings, HostClock};
use crate::{rng, shuffle, stats, timed, trace::ROOT, Outcome, Run};
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;
use xmlmap_automata::SubschemaViolation;
use xmlmap_core::bounded::{consistent_bounded, BoundedOutcome};
use xmlmap_core::{
    run_job, AbsConsAnswer, BatchJob, ChaseError, ConsAnswer, EngineContext, JobKind, JobResult,
    Mapping,
};
use xmlmap_dtd::Dtd;
use xmlmap_gen::mappings::{random_nr_dtd, random_nr_mapping, MappingGenConfig};
use xmlmap_trees::{Tree, Value};

/// Rounds per second the timed phase is sized for.
const ROUNDS_PER_S: f64 = 1.2;
/// Jobs per calibration segment (about 0.1 s).
const SEGMENT_OPS: usize = 24;
/// Random nested-relational schemas.
const DTDS: usize = 16;
/// Random mappings asked `consistent`, and asked `abscons`.
const CONSISTENT: usize = 16;
const ABSCONS: usize = 6;
/// Shape of the random mappings.
const MAPPING_CONFIG: MappingGenConfig = MappingGenConfig {
    stds: 3,
    depth: 3,
    branch_probability: 0.7,
};
/// Schemas checked against their relaxation (both directions), and
/// random ordered schema pairs.
const RELAXED: usize = 3;
const RANDOM_PAIRS: usize = 4;
/// `cons_nextsib(n)` sizes: one instance per `n` (each a distinct query).
const NEXTSIB: std::ops::Range<usize> = 30..78;
/// `cons_exptime(n)` sizes.
const EXPTIME: [usize; 5] = [7, 8, 9, 10, 11];
/// `abscons_chain(n)` instances, `n` stratified over `CHAIN_MIN..CHAIN_MAX`.
const CHAIN: usize = 40;
const CHAIN_MIN: f64 = 12.0;
const CHAIN_MAX: f64 = 40.0;
/// `compose_chain(extra)` instances, `extra` stratified over
/// `0..COMPOSE_EXTRA`, each with 2 or 3 source values.
const COMPOSE: usize = 8;
const COMPOSE_EXTRA: usize = 6;
/// Node bounds of the oracle's brute-force searches.
const ORACLE_NODES: usize = 4;
/// Budget of every budgeted job.
const BUDGET: usize = xmlmap_core::batch::DEFAULT_BUDGET;

/// The generated inputs, as texts (parsed again by every set-up).
struct Texts {
    /// `(verb, label, mapping text)` for consistent/abscons jobs.
    mappings: Vec<(&'static str, String, String)>,
    /// `(label, d1 text, d2 text)` for subschema jobs.
    pairs: Vec<(String, String, String)>,
    /// `(label, m12, m23, source, target, expected)` for compose-member.
    compose: Vec<(String, String, String, Tree, Tree, bool)>,
}

/// Relaxes a nested-relational DTD text: `x+` becomes `x*` and a bare
/// `x` becomes `x?`, so the original is a subschema of the result.
fn relax(dtd: &str) -> String {
    dtd.lines()
        .map(|line| match line.split_once(" -> ") {
            Some((lhs, rhs)) if !rhs.contains(['(', '|']) => {
                let items: Vec<String> = rhs
                    .split(", ")
                    .map(|t| match t.strip_suffix('+') {
                        Some(x) => format!("{x}*"),
                        None if t.ends_with(['*', '?']) => t.to_string(),
                        None => format!("{t}?"),
                    })
                    .collect();
                format!("{lhs} -> {}", items.join(", "))
            }
            _ => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn generate(run: &Run) -> Texts {
    let mut r = rng(run.seed, 31);
    let dtds: Vec<Dtd> = (0..DTDS)
        .map(|_| random_nr_dtd(3, 3, 0.5, &mut r))
        .collect();
    let mut mappings = Vec::new();
    for i in 0..CONSISTENT + ABSCONS {
        let (s, t) = (r.gen_range(0..DTDS), r.gen_range(0..DTDS));
        let m = random_nr_mapping(&dtds[s], &dtds[t], &MAPPING_CONFIG, &mut r)
            .expect("nested-relational DTDs");
        let verb = if i < CONSISTENT {
            "consistent"
        } else {
            "abscons"
        };
        mappings.push((verb, format!("{verb} nr{i}"), m.to_string()));
    }
    for n in NEXTSIB {
        let m = xmlmap_gen::hard::cons_nextsib(n);
        mappings.push((
            "consistent",
            format!("consistent cons_nextsib({n})"),
            m.to_string(),
        ));
    }
    for n in EXPTIME {
        let m = xmlmap_gen::hard::cons_exptime(n);
        mappings.push((
            "consistent",
            format!("consistent cons_exptime({n})"),
            m.to_string(),
        ));
    }
    for k in 0..CHAIN {
        let u = (k as f64 + r.gen::<f64>()) / CHAIN as f64;
        let n = (CHAIN_MIN + (CHAIN_MAX - CHAIN_MIN) * u).round() as usize;
        let m = xmlmap_gen::hard::abscons_chain(n);
        mappings.push((
            "abscons",
            format!("abscons abscons_chain({n}) #{k}"),
            m.to_string(),
        ));
    }
    let mut pairs = Vec::new();
    for (i, d) in dtds.iter().take(RELAXED).enumerate() {
        let (d, wide) = (d.to_string(), relax(&d.to_string()));
        pairs.push((
            format!("subschema d{i} relax(d{i})"),
            d.clone(),
            wide.clone(),
        ));
        pairs.push((format!("subschema relax(d{i}) d{i}"), wide, d));
    }
    for _ in 0..RANDOM_PAIRS {
        let (i, j) = (r.gen_range(0..DTDS), r.gen_range(0..DTDS));
        pairs.push((
            format!("subschema d{i} d{j}"),
            dtds[i].to_string(),
            dtds[j].to_string(),
        ));
    }
    let mut compose = Vec::new();
    for k in 0..COMPOSE {
        let extra = k * COMPOSE_EXTRA / COMPOSE;
        let values = r.gen_range(2..=3);
        let (m12, m23) = xmlmap_gen::hard::compose_chain(extra);
        // The target copies the source's a0 values, but for a seeded
        // coin flip that drops one of them: then no middle document
        // exists.
        let keep_all = r.gen_bool(0.5);
        let mut t1 = Tree::new("r");
        let mut t3 = Tree::new("w");
        for v in 0..values {
            let value = Value::str(format!("v{}", r.gen_range(0..1000u32)));
            t1.add_child(Tree::ROOT, "a0", [("v", value.clone())]);
            if keep_all || v > 0 {
                t3.add_child(Tree::ROOT, "c0", [("u", value)]);
            }
        }
        compose.push((
            format!("compose-member chain({extra}) x{values} #{k}"),
            m12.to_string(),
            m23.to_string(),
            t1,
            t3,
            keep_all,
        ));
    }
    Texts {
        mappings,
        pairs,
        compose,
    }
}

fn parse_mapping(text: &str) -> Arc<Mapping> {
    Arc::new(Mapping::parse(text).expect("generated mapping parses"))
}

fn parse_dtd(text: &str) -> Arc<Dtd> {
    Arc::new(xmlmap_dtd::parse(text).expect("generated DTD parses"))
}

/// One set-up: parse every text into jobs and compile every schema's
/// artifacts on a fresh context.
fn setup(texts: &Texts) -> (EngineContext, Vec<BatchJob>) {
    let ctx = EngineContext::new();
    let mut jobs = Vec::new();
    for (verb, label, text) in &texts.mappings {
        let mapping = parse_mapping(text);
        ctx.sat_cache(&mapping.source_dtd);
        ctx.sat_cache(&mapping.target_dtd);
        let kind = if *verb == "consistent" {
            JobKind::Consistent {
                mapping,
                budget: BUDGET,
            }
        } else {
            JobKind::AbsCons {
                mapping,
                budget: BUDGET,
            }
        };
        jobs.push(BatchJob {
            label: label.clone(),
            kind,
        });
    }
    for (label, d1, d2) in &texts.pairs {
        let (d1, d2) = (parse_dtd(d1), parse_dtd(d2));
        ctx.automata_cache(&d1, &d2);
        jobs.push(BatchJob {
            label: label.clone(),
            kind: JobKind::Subschema {
                d1,
                d2,
                budget: BUDGET,
            },
        });
    }
    for (label, m12, m23, t1, t3, _) in &texts.compose {
        let (m12, m23) = (parse_mapping(m12), parse_mapping(m23));
        ctx.chase_cache(&m12);
        ctx.shape_cache(&m12.target_dtd);
        jobs.push(BatchJob {
            label: label.clone(),
            kind: JobKind::CompositionMember {
                m12,
                m23,
                source: t1.clone(),
                target: t3.clone(),
                max_middle_nodes: xmlmap_core::batch::DEFAULT_MAX_MIDDLE_NODES,
            },
        });
    }
    (ctx, jobs)
}

fn verb(job: &BatchJob) -> &'static str {
    match job.kind {
        JobKind::Consistent { .. } => "consistent",
        JobKind::AbsCons { .. } => "abscons",
        JobKind::Subschema { .. } => "subschema",
        JobKind::CompositionMember { .. } => "compose-member",
        _ => "other",
    }
}

/// The oracle for one job's verdict: witnesses are checked against their
/// schemas, and "no" answers by bounded brute-force search.
fn verified(ctx: &EngineContext, job: &BatchJob, result: &JobResult, texts: &Texts) -> bool {
    let JobResult::Answer { yes, .. } = result else {
        return false;
    };
    match &job.kind {
        JobKind::Consistent { mapping: m, budget } => match ctx.consistent(m, *budget) {
            Ok(ConsAnswer::Consistent { source, target }) => {
                *yes && m.source_dtd.conforms(&source) && m.is_solution(&source, &target)
            }
            Ok(ConsAnswer::Inconsistent) => {
                !*yes
                    && !matches!(
                        consistent_bounded(m, ORACLE_NODES, ORACLE_NODES),
                        BoundedOutcome::Witness(_)
                    )
            }
            Err(_) => false,
        },
        JobKind::AbsCons { mapping: m, .. } => match xmlmap_core::abscons_nr_ptime(m) {
            Some(AbsConsAnswer::Violated {
                witness: Some(t), ..
            }) => !*yes && m.source_dtd.conforms(&t) && ctx.canonical_solution(m, &t).is_err(),
            Some(AbsConsAnswer::Violated { .. }) => {
                !*yes && doubled_pattern_without_solution(ctx, m)
            }
            _ => *yes && small_sources_have_solutions(ctx, m),
        },
        JobKind::Subschema { d1, d2, budget } => match ctx.subschema(d1, d2, *budget) {
            Ok(None) => {
                *yes && xmlmap_core::bounded::tree_shapes(d1, ORACLE_NODES + 2)
                    .iter()
                    .all(|t| d2.conforms(t))
            }
            Ok(Some(SubschemaViolation::Document(t))) => {
                !*yes && d1.conforms(&t) && !d2.conforms(&t)
            }
            Ok(Some(SubschemaViolation::AttributeMismatch { .. })) => !*yes,
            Err(_) => false,
        },
        JobKind::CompositionMember {
            m12,
            m23,
            source,
            target,
            max_middle_nodes,
        } => {
            let expected = texts
                .compose
                .iter()
                .find(|c| c.0 == job.label)
                .is_some_and(|c| c.5);
            match ctx.composition_member(m12, m23, source, target, *max_middle_nodes) {
                Some(mid) => {
                    *yes && expected
                        && m12.is_solution(source, &mid)
                        && m23.is_solution(&mid, target)
                }
                None => !*yes && !expected,
            }
        }
        _ => false,
    }
}

/// Some std's source pattern, twice over in one source document with
/// every attribute a distinct value, leaves the mapping without a
/// solution: the document conforms and its chase fails. This is the shape
/// of a witness to a rigid target slot read from a repeatable source
/// position, and it is often larger than exhaustive search reaches. The
/// document is built by chasing the pattern, twice, into the source
/// schema from an empty document.
fn doubled_pattern_without_solution(ctx: &EngineContext, m: &Mapping) -> bool {
    m.stds.iter().any(|std| {
        let text = format!(
            "[source]\nroot r\n\n[target]\n{}\n\n[stds]\nr --> {}\nr --> {}\n",
            m.source_dtd, std.source, std.source
        );
        let Ok(builder) = Mapping::parse(&text) else {
            return false;
        };
        let Ok(mut t) = ctx.canonical_solution(&builder, &Tree::new("r")) else {
            return false;
        };
        let slots: Vec<_> = t
            .nodes()
            .flat_map(|n| {
                t.attrs(n)
                    .iter()
                    .map(move |(a, _)| (n, a.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (i, (n, a)) in slots.iter().enumerate() {
            t.set_attr(*n, a.as_str(), Value::str(format!("v{i}")));
        }
        m.source_dtd.conforms(&t)
            && matches!(
                ctx.canonical_solution(m, &t),
                Err(e) if !matches!(e, ChaseError::OutsideFragment(_))
            )
    })
}

/// Every source document of at most [`ORACLE_NODES`] nodes has a
/// solution: its canonical solution exists and satisfies the mapping
/// (mappings outside the chaseable fragment are not checked).
fn small_sources_have_solutions(ctx: &EngineContext, m: &Mapping) -> bool {
    xmlmap_core::bounded::tree_shapes(&m.source_dtd, ORACLE_NODES)
        .iter()
        .all(|source| match ctx.canonical_solution(m, source) {
            Ok(target) => m.is_solution(source, &target),
            Err(ChaseError::OutsideFragment(_)) => true,
            Err(_) => false,
        })
}

pub fn run(run: &Run) -> Outcome {
    let texts = generate(run);
    let rounds = run.op_count(ROUNDS_PER_S);
    let tracer = run.tracer;
    let (mut setups, mut clock, mut ops) = (HostClock::start(), HostClock::start(), Vec::new());
    let mut order: Option<Vec<usize>> = None;
    let mut reference: Vec<JobResult> = Vec::new();
    let mut failed = 0u64;
    let mut last = None;
    let mut names: Vec<(String, String)> = Vec::new();
    crate::stats::reset_peak_rss();
    for round in 0..rounds {
        drop(last.take());
        let ((ctx, jobs), s) = timed(|| setup(&texts));
        setups.end_segment(s);
        let order = order.get_or_insert_with(|| {
            let mut o: Vec<usize> = (0..jobs.len()).collect();
            shuffle(&mut o, &mut rng(run.seed, 32));
            o
        });
        if names.is_empty() {
            names = jobs
                .iter()
                .map(|j| {
                    (
                        format!("op.{}", verb(j)),
                        format!("core.batch.run_job.{}", verb(j)),
                    )
                })
                .collect();
        }
        let mut results = vec![None; jobs.len()];
        ops.extend(clock.run_ops(jobs.len(), SEGMENT_OPS, |i| {
            let j = order[i];
            let op = (round * jobs.len() + i) as u64;
            let t = Instant::now();
            let res = tracer.span(&names[j].0, ROOT, op, |id| {
                tracer.span(&names[j].1, id, op, |_| run_job(&ctx, &jobs[j]))
            });
            results[j] = Some(res);
            t.elapsed().as_secs_f64() * 1e3
        }));
        let results: Vec<JobResult> = results
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect();
        if round == 0 {
            reference = results;
        } else {
            failed += results
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        last = Some((ctx, jobs));
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let (ctx, jobs) = last.expect("at least one round");
    // Snapshot before the oracle, whose chases compile artifacts too.
    let engine = ctx.stats();
    let unverified = jobs
        .iter()
        .zip(&reference)
        .filter(|(job, res)| {
            let ok = verified(&ctx, job, res, &texts);
            if !ok {
                eprintln!("oracle rejects {}: {res}", job.label);
            }
            !ok
        })
        .count() as u64;
    failed += unverified * rounds as u64;

    let layer = if tracer.enabled() {
        let verb_ms = |verb: &str| tracer.durations_ms(&format!("core.batch.run_job.{verb}"));
        let mut layer = Vec::new();
        for (name, verb) in [
            ("patterns.sat_compiled.consistent_ms", "consistent"),
            ("core.abscons_ms", "abscons"),
            ("automata.compiled.subschema_ms", "subschema"),
            ("core.compose.member_ms", "compose-member"),
        ] {
            let ms = verb_ms(verb);
            layer.push((format!("{name}.p50"), stats::quantile(&ms, 0.5), "ms"));
            layer.push((format!("{name}.p95"), stats::quantile(&ms, 0.95), "ms"));
        }
        let s = engine;
        let compile_ms = |c: &xmlmap_core::CacheCounters| c.compile_time.as_secs_f64() * 1e3;
        layer.push((
            "core.engine.compile_ms.sat".into(),
            compile_ms(&s.sat),
            "ms",
        ));
        layer.push((
            "core.engine.compile_ms.automata".into(),
            compile_ms(&s.automata),
            "ms",
        ));
        layer.push((
            "core.engine.compile_ms.chase".into(),
            compile_ms(&s.chase),
            "ms",
        ));
        layer.push((
            "core.engine.compile_ms.shapes".into(),
            compile_ms(&s.shapes),
            "ms",
        ));
        layer
    } else {
        Vec::new()
    };
    Outcome {
        timing: timings(&setups, &clock, &ops),
        kernel_ms: clock.median_kernel_ms(),
        peak_rss_mb,
        failed,
        layer,
    }
}
