//! `exchange-ingest`: streamed chase jobs over exchange documents.
//!
//! Set-up writes and syncs a seeded set of exchange documents (sizes
//! stratified over 10 KB–0.5 MB on a log scale, professor counts
//! stratified over 4–40, the pairing shuffled by the seed). The timed
//! phase runs a fixed list of `chase-stream` job lines, each through
//! `batch::run_job` on one worker; every document appears equally often.
//! This is the read path of `xmlmap batch` and `serve`, and it is
//! tokenizer-bound.

use crate::calib::{timings, HostClock};
use crate::{rng, shuffle, timed, trace::ROOT, write_synced, Outcome, Run};
use rand::Rng;
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;
use xmlmap_core::{run_job, BatchJob, EngineContext, JobParser, JobResult, Mapping};
use xmlmap_trees::{xml, SaxReader};

/// Documents per run.
const DOCS: usize = 64;
/// Smallest and largest document size, bytes.
const MIN_BYTES: f64 = 10e3;
const MAX_BYTES: f64 = 500e3;
/// Professor counts span `MIN_PROFS..MIN_PROFS + PROF_SPAN`.
const MIN_PROFS: f64 = 4.0;
const PROF_SPAN: f64 = 36.0;
/// Students per professor.
const STUDENTS: usize = 2;
/// Bytes of one pad line in `write_exchange_xml` output (`  <pad a="a3" b="b3"/>`).
const PAD_BYTES: f64 = 25.0;
/// Bytes of one professor record with [`STUDENTS`] students (about).
const PROF_BYTES: f64 = 290.0;
/// Ops per second the timed phase is sized for.
const OPS_PER_S: f64 = 130.0;
/// Op ids of probe spans start here, above any timed op.
const PROBE_OPS: u64 = 1 << 32;
/// Fresh-context set-ups per run; the median is reported.
const SETUPS: usize = 101;
/// Ops per calibration segment (about 0.1 s).
const SEGMENT_OPS: usize = 16;

/// One generated document.
struct Doc {
    file: String,
    bytes: u64,
}

fn generate(run: &Run) -> Vec<Doc> {
    let mut r = rng(run.seed, 1);
    let mut profs: Vec<f64> = (0..DOCS)
        .map(|k| MIN_PROFS + PROF_SPAN * (k as f64 + r.gen::<f64>()) / DOCS as f64)
        .collect();
    shuffle(&mut profs, &mut r);
    (0..DOCS)
        .map(|k| {
            let u = (k as f64 + r.gen::<f64>()) / DOCS as f64;
            let target = MIN_BYTES * (MAX_BYTES / MIN_BYTES).powf(u);
            let profs = profs[k].floor() as usize;
            let pads = ((target - profs as f64 * PROF_BYTES) / PAD_BYTES).max(1.0) as usize;
            let mut text = Vec::new();
            xmlmap_gen::trees::write_exchange_xml(profs, STUDENTS, pads, &mut text)
                .expect("write to memory");
            let file = format!("doc{k}.xml");
            write_synced(&run.dir.join(&file), &text);
            Doc {
                file,
                bytes: text.len() as u64,
            }
        })
        .collect()
}

/// The cold set-up a user pays: a fresh context, the mapping and every
/// job line parsed, and the streaming artifacts compiled.
fn setup(run: &Run, docs: &[Doc]) -> (EngineContext, Vec<BatchJob>) {
    let ctx = EngineContext::new();
    let mut parser = JobParser::new(&run.dir);
    let jobs: Vec<BatchJob> = docs
        .iter()
        .map(|d| {
            parser
                .parse(&format!("chase-stream exchange.map {}", d.file))
                .expect("valid job line")
        })
        .collect();
    let m = parser.load_mapping("exchange.map").expect("mapping loads");
    ctx.stream_index(&m.source_dtd);
    ctx.stream_chase_plan(&m);
    (ctx, jobs)
}

/// The oracle: each document's streamed solution must equal, byte for
/// byte, the tree chase of the parsed document; returns the verified
/// job result per document (`None` where the check failed).
fn oracle(
    ctx: &EngineContext,
    m: &Mapping,
    run: &Run,
    docs: &[Doc],
    jobs: &[BatchJob],
) -> Vec<Option<JobResult>> {
    docs.iter()
        .zip(jobs)
        .map(|(d, job)| {
            let path = run.dir.join(&d.file);
            let text = std::fs::read_to_string(&path).expect("read input");
            let mut tree = xml::parse(&text).expect("generated XML parses");
            m.source_dtd
                .normalize_attrs(&mut tree)
                .expect("generated XML conforms");
            let want = ctx
                .canonical_solution(m, &tree)
                .expect("exchange chase succeeds");
            let streamed = ctx
                .chase_stream(m, BufReader::new(File::open(&path).expect("open input")))
                .expect("stream chase runs");
            let same = match &streamed.solution {
                Some(Ok(t)) => xml::to_string(t) == xml::to_string(&want),
                _ => false,
            };
            let result = run_job(ctx, job);
            let sized = matches!(&result, JobResult::Answer { yes: true, detail }
                if detail.ends_with(&format!("target has {} nodes)", want.size())));
            (same && sized).then_some(result)
        })
        .collect()
}

pub fn run(run: &Run) -> Outcome {
    let docs = generate(run);
    let mapping = xmlmap_gen::trees::exchange_mapping();
    write_synced(
        &run.dir.join("exchange.map"),
        mapping.to_string().as_bytes(),
    );

    crate::stats::reset_peak_rss();
    let mut setups = HostClock::start();
    let mut warm = None;
    for _ in 0..SETUPS {
        drop(warm.take());
        let (built, s) = timed(|| setup(run, &docs));
        setups.end_segment(s);
        warm = Some(built);
    }
    let (ctx, jobs) = warm.expect("at least one set-up");
    let m = Mapping::parse(&mapping.to_string()).expect("mapping round-trips");

    let n = run.op_count(OPS_PER_S);
    let mut r = rng(run.seed, 2);
    let mut order: Vec<usize> = Vec::with_capacity(n + DOCS);
    while order.len() < n {
        let mut round: Vec<usize> = (0..DOCS).collect();
        shuffle(&mut round, &mut r);
        order.extend(round);
    }
    order.truncate(n);

    let tracer = run.tracer;
    let mut results = Vec::with_capacity(n);
    let mut clock = HostClock::start();
    let ops = clock.run_ops(n, SEGMENT_OPS, |op| {
        let k = order[op];
        let t = Instant::now();
        let res = tracer.span("op.chase-stream", ROOT, op as u64, |id| {
            tracer.span("core.batch.run_job", id, op as u64, |_| {
                run_job(&ctx, &jobs[k])
            })
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        results.push(res);
        ms
    });
    let peak_rss_mb = crate::stats::peak_rss_mb();

    let expected = oracle(&ctx, &m, run, &docs, &jobs);
    let failed = order
        .iter()
        .zip(&results)
        .filter(|(&k, res)| expected[k].as_ref() != Some(*res))
        .count() as u64;

    let layer = if tracer.enabled() {
        probes(run, &ctx, &m, &docs, &jobs)
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

/// Per-layer passes over every document: a bare tokenizer pass, a
/// validate-only stream, the streamed chase and the whole job, each a
/// separate call into the layer's public function.
fn probes(
    run: &Run,
    ctx: &EngineContext,
    m: &Mapping,
    docs: &[Doc],
    jobs: &[BatchJob],
) -> Vec<(String, f64, &'static str)> {
    let tracer = run.tracer;
    let open = |d: &Doc| BufReader::new(File::open(run.dir.join(&d.file)).expect("open input"));
    let (mut firings, mut live_peak, mut mb) = (0u64, 0u64, 0.0f64);
    for (k, (d, job)) in docs.iter().zip(jobs).enumerate() {
        let op = PROBE_OPS + k as u64;
        tracer.span("probe.document", ROOT, op, |id| {
            tracer.span("trees.sax", id, op, |_| {
                let mut sax = SaxReader::new(open(d));
                while sax.next_event().expect("well-formed input").is_some() {}
            });
            tracer.span("dtd.stream", id, op, |_| {
                ctx.stream_document(&m.source_dtd, None, open(d))
                    .expect("stream validation runs")
            });
            let out = tracer.span("core.stream.chase_stream", id, op, |_| {
                ctx.chase_stream(m, open(d)).expect("stream chase runs")
            });
            firings += out.firings;
            live_peak = live_peak.max(out.peak_live_valuations);
            tracer.span("core.batch.run_job", id, op, |_| run_job(ctx, job));
        });
        mb += d.bytes as f64 / 1e6;
    }
    let sax = tracer.total_s("trees.sax");
    let validate = tracer.total_s("dtd.stream");
    let chase = tracer.total_s("core.stream.chase_stream");
    let job = tracer
        .durations_ms_in("core.batch.run_job", PROBE_OPS..u64::MAX)
        .iter()
        .sum::<f64>()
        / 1e3;
    vec![
        ("trees.sax.mb_per_s".into(), mb / sax, "MB/s"),
        ("trees.sax.share".into(), sax / job, "share"),
        (
            "dtd.stream.ms_per_mb".into(),
            (validate - sax) * 1e3 / mb,
            "ms/MB",
        ),
        (
            "core.stream.chase_ms_per_mb".into(),
            (chase - validate) * 1e3 / mb,
            "ms/MB",
        ),
        ("patterns.stream.firings".into(), firings as f64, "count"),
        (
            "core.stream.peak_live_valuations".into(),
            live_peak as f64,
            "count",
        ),
    ]
}
