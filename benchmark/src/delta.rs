//! `delta-storm`: commits against one incremental-chase session.
//!
//! Set-up parses an exchange document (160 professors, 8000 inert pads)
//! and opens `EngineContext::delta_session` on a fresh context. Each op
//! is one commit of identical makeup: three seeded pad attribute
//! rewrites, one professor delete and reinsert (restoring it byte for
//! byte), then one `canonical_solution()` read. Every commit leaves the
//! document's shape unchanged, so the whole update list is generated in
//! the `parse_updates` grammar before timing. This is the write path
//! next to ingest's reads on the same chase code: the firing index,
//! arena rewind/replay and compiled-matcher refires do the work.

use crate::calib::{timings, HostClock};
use crate::{rng, timed, trace::ROOT, Outcome, Run};
use rand::Rng;
use std::time::Instant;
use xmlmap_core::{parse_updates, EngineContext, IncrementalChase, Mapping, Update};
use xmlmap_patterns::{CompiledPattern, Matcher};
use xmlmap_trees::{xml, Tree};

const PROFS: usize = 160;
const STUDENTS: usize = 2;
const PADS: usize = 8000;
/// Pad rewrites per commit.
const PAD_EDITS: usize = 3;
/// Commits per second the timed phase is sized for.
const OPS_PER_S: f64 = 140.0;
/// Fresh-context set-ups per run; the median is reported.
const SETUPS: usize = 15;
/// Commits per calibration segment (about 0.1 s).
const SEGMENT_OPS: usize = 16;
/// Commits checked against a from-scratch chase, besides the last.
const CHECKPOINTS: usize = 8;
/// Repetitions of each probe call.
const PROBE_REPS: usize = 5;
/// Op ids of probe spans start here, above any timed op.
const PROBE_OPS: u64 = 1 << 32;

/// Professor `p` as one line of XML: the content `write_exchange_xml`
/// gives it, so a delete/reinsert pair restores the document.
fn professor_xml(p: usize) -> String {
    let students: String = (0..STUDENTS)
        .map(|s| format!("<student sid=\"s{p}_{s}\"/>"))
        .collect();
    format!(
        "<prof name=\"p{p}\"><teach><year y=\"y{}\"><course cno=\"c{}\"/><course cno=\"c{}\"/>\
         </year></teach><supervise>{students}</supervise></prof>",
        p % 4,
        2 * p,
        2 * p + 1
    )
}

/// The commit list, each commit in the updatefile grammar.
fn commits(run: &Run, n: usize) -> Vec<Vec<Update>> {
    let mut r = rng(run.seed, 11);
    (0..n)
        .map(|_| {
            let mut text = String::new();
            for _ in 0..PAD_EDITS {
                let pos = PROFS + r.gen_range(0..PADS);
                let attr = if r.gen_bool(0.5) { "a" } else { "b" };
                text.push_str(&format!(
                    "settext {pos} {attr} {attr}{}\n",
                    r.gen_range(0..10u32)
                ));
            }
            let p = r.gen_range(0..PROFS);
            text.push_str(&format!("delete {p}\ninsert . {p} {}\n", professor_xml(p)));
            parse_updates(&text).expect("generated updates parse")
        })
        .collect()
}

fn open(text: &str, m: &Mapping) -> (EngineContext, IncrementalChase) {
    let ctx = EngineContext::new();
    let mut doc = xml::parse(text).expect("generated XML parses");
    m.source_dtd
        .normalize_attrs(&mut doc)
        .expect("generated XML conforms");
    let session = ctx.delta_session(m, doc);
    (ctx, session)
}

pub fn run(run: &Run) -> Outcome {
    let m = xmlmap_gen::trees::exchange_mapping();
    let mut bytes = Vec::new();
    xmlmap_gen::trees::write_exchange_xml(PROFS, STUDENTS, PADS, &mut bytes)
        .expect("write to memory");
    let text = String::from_utf8(bytes).expect("generated XML is UTF-8");

    let n = run.op_count(OPS_PER_S);
    let commits = commits(run, n);
    let mut r = rng(run.seed, 12);
    let mut checks: Vec<usize> = (0..CHECKPOINTS).map(|_| r.gen_range(0..n)).collect();
    checks.push(n - 1);

    crate::stats::reset_peak_rss();
    let mut setups = HostClock::start();
    let mut warm = None;
    for _ in 0..SETUPS {
        drop(warm.take());
        let (built, s) = timed(|| open(&text, &m));
        setups.end_segment(s);
        warm = Some(built);
    }
    let (ctx, mut session) = warm.expect("at least one set-up");

    let tracer = run.tracer;
    let mut failed = 0u64;
    let before = session.stats();
    let mut peak_rss_mb = 0.0f64;
    let mut clock = HostClock::start();
    let ops = clock.run_ops(n, SEGMENT_OPS, |op| {
        let commit = &commits[op];
        let op_id = op as u64;
        let t = Instant::now();
        let solution = tracer.span("op.commit", ROOT, op_id, |id| {
            for u in commit {
                let refires = session.stats().refires;
                tracer
                    .span_named_after(id, op_id, |_| {
                        let applied = session.apply(u);
                        let kind = if session.stats().refires > refires {
                            "core.chase.delta.refire_apply"
                        } else {
                            "core.chase.delta.skip_apply"
                        };
                        (applied, kind)
                    })
                    .expect("generated update applies");
            }
            tracer.span("core.chase.delta.read", id, op_id, |_| {
                session.canonical_solution()
            })
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = solution.is_ok();
        if checks.contains(&op) {
            // The from-scratch chase below would raise the peak.
            peak_rss_mb = peak_rss_mb.max(crate::stats::peak_rss_mb());
            let want = ctx.canonical_solution(&m, session.doc());
            let same = match (&solution, &want) {
                (Ok(a), Ok(b)) => xml::to_string(a) == xml::to_string(b),
                _ => false,
            };
            failed += u64::from(!same);
            drop(want);
            crate::stats::reset_peak_rss();
        } else {
            failed += u64::from(!ok);
        }
        ms
    });
    let peak_rss_mb = peak_rss_mb.max(crate::stats::peak_rss_mb());
    let after = session.stats();
    ctx.record_delta(after);

    let layer = if tracer.enabled() {
        let updates = (after.updates - before.updates) as f64;
        let refires = (after.refires - before.refires) as f64;
        let skips = (after.skips - before.skips) as f64;
        let replays = (after.replays - before.replays) as f64;
        let mut layer = vec![
            (
                "core.chase.delta.refires_per_update".into(),
                refires / updates,
                "count",
            ),
            (
                "core.chase.delta.skips_per_update".into(),
                skips / updates,
                "count",
            ),
            (
                "core.chase.delta.replays_per_update".into(),
                replays / updates,
                "count",
            ),
            (
                "core.chase.delta.skip_ratio".into(),
                skips / (skips + refires),
                "share",
            ),
        ];
        layer.extend(probes(run, &ctx, &m, &text, session.doc()));
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

fn probes(
    run: &Run,
    ctx: &EngineContext,
    m: &Mapping,
    text: &str,
    doc: &Tree,
) -> Vec<(String, f64, &'static str)> {
    let tracer = run.tracer;
    let sources: Vec<CompiledPattern> = m
        .stds
        .iter()
        .map(|s| CompiledPattern::new(&s.source))
        .collect();
    for rep in 0..PROBE_REPS {
        let op = PROBE_OPS + rep as u64;
        tracer
            .span("probe.session", ROOT, op, |id| {
                let parsed = tracer.span("trees.xml.parse", id, op, |_| {
                    xml::parse(text).expect("generated XML parses")
                });
                tracer.span("core.chase.delta.open", id, op, |_| {
                    ctx.delta_session(m, parsed)
                });
                for cp in &sources {
                    tracer.span("patterns.compiled.match", id, op, |_| {
                        Matcher::new(doc, cp).all_match_tuples().len()
                    });
                }
                tracer.span("core.chase.rechase", id, op, |_| {
                    ctx.canonical_solution(m, doc)
                })
            })
            .expect("exchange chase succeeds");
    }
    let med = |name: &str| crate::stats::median(&tracer.durations_ms(name));
    let refire = tracer.durations_ms("core.chase.delta.refire_apply");
    let skip = tracer.durations_ms("core.chase.delta.skip_apply");
    vec![
        (
            "trees.xml.parse_mb_per_s".into(),
            text.len() as f64 / 1e6 / (med("trees.xml.parse") / 1e3),
            "MB/s",
        ),
        (
            "core.chase.delta.open_ms".into(),
            med("core.chase.delta.open"),
            "ms",
        ),
        (
            "core.chase.delta.refire_apply_ms.p50".into(),
            crate::stats::quantile(&refire, 0.5),
            "ms",
        ),
        (
            "core.chase.delta.refire_apply_ms.p95".into(),
            crate::stats::quantile(&refire, 0.95),
            "ms",
        ),
        (
            "core.chase.delta.skip_apply_us".into(),
            crate::stats::median(&skip) * 1e3,
            "us",
        ),
        (
            "core.chase.delta.read_ms".into(),
            med("core.chase.delta.read"),
            "ms",
        ),
        (
            "patterns.compiled.match_ms".into(),
            med("patterns.compiled.match"),
            "ms",
        ),
        (
            "core.chase.rechase_ms".into(),
            med("core.chase.rechase"),
            "ms",
        ),
    ]
}
