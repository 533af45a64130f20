//! `daemon-mix`: a closed-loop request mix against the in-process daemon.
//!
//! Set-up starts `serve::serve` on a unix socket with two workers over a
//! fresh context and sends every distinct request line once, so the
//! timed phase compiles nothing. Two `ServeClient` connections then each
//! send their half of a fixed, seeded request list, each waiting for the
//! reply before sending the next (a closed loop, as a front end that
//! waits for each answer does). Request classes, by share of requests:
//!
//! * 63% warm decisions: `consistent`, `abscons`, `subschema`;
//! * 21% `member` and `stream` on few-KB documents;
//! * 16% `chase-stream` and `delta-apply` on small exchange documents.
//!
//! The class shares keep p50 13 points and p95 11 points away from the
//! class boundaries (63 and 84). This is the only workload where frame
//! codec, the daemon's shared job-line parser, queueing and cache lookups
//! dominate.

use crate::calib::{timings, HostClock};
use crate::trace::ROOT;
use crate::{rng, shuffle, stats, write_synced, Outcome, Run};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use xmlmap_core::serve::{decode_request, encode_request};
use xmlmap_core::{
    run_job, serve, Endpoint, EngineContext, EngineStats, JobParser, JobResult, Response,
    ServeClient, ServeConfig, ShutdownHandle,
};
use xmlmap_gen::mappings::{random_nr_dtd, random_nr_mapping, MappingGenConfig};
use xmlmap_trees::xml;

/// Requests per second the timed phase is sized for.
const OPS_PER_S: f64 = 5000.0;
/// Daemon workers.
const WORKERS: usize = 2;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Shares of the decision and light classes; the heavy class gets the rest.
const DECISION_SHARE: f64 = 0.63;
const LIGHT_SHARE: f64 = 0.21;
/// Fresh daemons set up per run; the median set-up is reported.
const SETUPS: usize = 21;
/// Requests per client per calibration segment (about 0.1 s).
const SEGMENT_OPS: usize = 250;
/// Decision-query mappings and subschema DTDs.
const MAPPINGS: usize = 16;
const DTDS: usize = 5;
/// Shape of the decision mappings: small, so warming them up (part of
/// set-up) costs about the same on every seed.
const MAPPING_CONFIG: MappingGenConfig = MappingGenConfig {
    stds: 2,
    depth: 3,
    branch_probability: 0.7,
};
/// Small exchange documents for the light and heavy classes.
const DOCS: usize = 4;
/// Repetitions of each probe call.
const PROBE_REPS: usize = 20;
/// Verbs whose in-process `run_job` time the traced run reports.
const VERBS: [&str; 7] = [
    "consistent",
    "abscons",
    "subschema",
    "member",
    "stream",
    "chase-stream",
    "delta-apply",
];

/// The distinct request lines, by class.
struct Lines {
    decision: Vec<String>,
    light: Vec<String>,
    heavy: Vec<String>,
}

impl Lines {
    fn all(&self) -> Vec<String> {
        [&self.decision, &self.light, &self.heavy]
            .into_iter()
            .flatten()
            .cloned()
            .collect()
    }
}

/// Writes the daemon's root directory and returns the request lines.
fn generate(run: &Run) -> Lines {
    let dir = &run.dir;
    let mut r = rng(run.seed, 21);
    let dtds: Vec<_> = (0..DTDS + 2 * MAPPINGS)
        .map(|_| random_nr_dtd(3, 3, 0.5, &mut r))
        .collect();
    for (i, d) in dtds.iter().take(DTDS).enumerate() {
        write_synced(&dir.join(format!("d{i}.dtd")), d.to_string().as_bytes());
    }
    for i in 0..MAPPINGS {
        let (s, t) = (&dtds[DTDS + 2 * i], &dtds[DTDS + 2 * i + 1]);
        let m = random_nr_mapping(s, t, &MAPPING_CONFIG, &mut r).expect("nested-relational DTDs");
        write_synced(&dir.join(format!("m{i}.map")), m.to_string().as_bytes());
    }
    let m = xmlmap_gen::trees::exchange_mapping();
    write_synced(&dir.join("exchange.map"), m.to_string().as_bytes());
    write_synced(&dir.join("source.dtd"), m.source_dtd.to_string().as_bytes());
    for k in 0..DOCS {
        let profs = 3 + k;
        let pads = 40 + 10 * k;
        let mut text = Vec::new();
        xmlmap_gen::trees::write_exchange_xml(profs, 2, pads, &mut text).expect("write to memory");
        write_synced(&dir.join(format!("s{k}.xml")), &text);
        let tree = xml::parse(std::str::from_utf8(&text).expect("UTF-8")).expect("parses");
        let target = xmlmap_core::canonical_solution(&m, &tree).expect("exchange chase succeeds");
        write_synced(
            &dir.join(format!("t{k}.xml")),
            xml::to_string(&target).as_bytes(),
        );
        let mut updates = Vec::new();
        xmlmap_gen::trees::write_exchange_updates(
            profs,
            2,
            pads,
            6,
            run.seed + k as u64,
            &mut updates,
        )
        .expect("write to memory");
        write_synced(&dir.join(format!("u{k}.upd")), &updates);
    }
    let mut decision = Vec::new();
    for i in 0..MAPPINGS {
        decision.push(format!("consistent m{i}.map"));
        decision.push(format!("abscons m{i}.map"));
    }
    for i in 0..DTDS {
        for j in 0..DTDS {
            if i != j {
                decision.push(format!("subschema d{i}.dtd d{j}.dtd"));
            }
        }
    }
    let mut light = Vec::new();
    let mut heavy = Vec::new();
    for k in 0..DOCS {
        light.push(format!("member exchange.map s{k}.xml t{k}.xml"));
        light.push(format!("stream source.dtd s{k}.xml"));
        light.push(format!("stream source.dtd s{k}.xml r/prof(x)"));
        heavy.push(format!("chase-stream exchange.map s{k}.xml"));
        heavy.push(format!("delta-apply exchange.map s{k}.xml u{k}.upd"));
    }
    Lines {
        decision,
        light,
        heavy,
    }
}

/// The fixed request list (indices into `Lines::all`), exact class
/// counts, each class cycling over its lines, shuffled by the seed.
fn op_list(run: &Run, lines: &Lines) -> Vec<usize> {
    let n = run.op_count(OPS_PER_S);
    let n_dec = (n as f64 * DECISION_SHARE).round() as usize;
    let n_light = (n as f64 * LIGHT_SHARE).round() as usize;
    let (d, l) = (lines.decision.len(), lines.light.len());
    let mut ops: Vec<usize> = (0..n_dec).map(|i| i % d).collect();
    ops.extend((0..n_light).map(|i| d + i % l));
    ops.extend((0..n - n_dec - n_light).map(|i| d + l + i % lines.heavy.len()));
    shuffle(&mut ops, &mut rng(run.seed, 22));
    ops
}

/// Raises the shutdown flag when dropped, so a panicking client never
/// leaves the daemon thread running.
struct Stop<'a>(&'a ShutdownHandle);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.raise();
    }
}

/// Starts a daemon over a fresh context on `socket`, runs `f` against
/// it, then drains the daemon and waits for it to stop.
fn with_daemon<T>(
    root: &Path,
    socket: PathBuf,
    f: impl FnOnce(&EngineContext, &Endpoint) -> T,
) -> T {
    let ctx = EngineContext::new();
    let endpoint = Endpoint::Unix(socket);
    let shutdown = ShutdownHandle::new();
    let cfg = ServeConfig {
        workers: WORKERS,
        deadline_ms: 0,
        queue_depth: 0,
        root: root.to_path_buf(),
    };
    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(&endpoint, &ctx, &cfg, &shutdown));
        let out = {
            let _stop = Stop(&shutdown);
            f(&ctx, &endpoint)
        };
        daemon
            .join()
            .expect("daemon thread panicked")
            .expect("daemon ran");
        out
    })
}

/// One answered request of the timed phase.
struct Answer {
    /// Calibration segment of the timed phase it was sent in.
    segment: usize,
    rtt_ms: f64,
    /// Server-side time the response reports.
    elapsed_us: u64,
    /// Whether the answer matched the oracle's.
    ok: bool,
}

fn connect(endpoint: &Endpoint) -> ServeClient {
    let mut c =
        ServeClient::connect_with_retry(endpoint, Duration::from_secs(10)).expect("connect");
    c.roundtrip("PING", 0).expect("ping");
    c
}

/// Sends `ops` (indices into `lines`) over one connection in a closed
/// loop: the next request goes out only when the previous reply is back.
/// `on_reply` gets each request's line index, round-trip time in ms and
/// response (`None` when the round trip failed). Spans get op ids `first_op + stride * i`.
fn closed_loop(
    run: &Run,
    client: &mut ServeClient,
    lines: &[String],
    ops: &[usize],
    (first_op, stride): (u64, u64),
    mut on_reply: impl FnMut(usize, f64, Option<Response>),
) {
    let tracer = run.tracer;
    for (i, &line) in ops.iter().enumerate() {
        let op = first_op + stride * i as u64;
        let t = Instant::now();
        let response = tracer.span("op.request", ROOT, op, |id| {
            tracer.span("core.serve.roundtrip", id, op, |_| {
                client.roundtrip(&lines[line], 0)
            })
        });
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        on_reply(line, rtt_ms, response.ok());
    }
}

pub fn run(run: &Run) -> Outcome {
    let lines = generate(run);
    let all = lines.all();
    let ops = op_list(run, &lines);

    // The oracle: every distinct line run in-process on a fresh context.
    let mut parser = JobParser::new(&run.dir);
    let oracle_ctx = EngineContext::new();
    let expected: Vec<JobResult> = all
        .iter()
        .map(|l| run_job(&oracle_ctx, &parser.parse(l).expect("valid job line")))
        .collect();
    drop((parser, oracle_ctx));
    stats::reset_peak_rss();

    let mut setups = HostClock::start();
    let mut mismatches = 0u64;
    let mut timed_phase = None;
    for rep in 0..SETUPS {
        let socket = run.dir.join(format!("d{rep}.sock"));
        with_daemon(&run.dir, socket, |ctx, endpoint| {
            let mut clients: Vec<ServeClient> = (0..CLIENTS).map(|_| connect(endpoint)).collect();
            let t = Instant::now();
            let every: Vec<usize> = (0..all.len()).collect();
            let mut warm = Vec::with_capacity(all.len());
            closed_loop(
                run,
                &mut clients[0],
                &all,
                &every,
                (1 << 40, 1),
                |_, _, r| warm.push(r.expect("daemon answers")),
            );
            setups.end_segment(t.elapsed().as_secs_f64());
            mismatches += warm
                .iter()
                .zip(&expected)
                .filter(|(w, e)| &w.result != *e)
                .count() as u64;
            if rep + 1 == SETUPS {
                timed_phase = Some(phase(run, ctx, &mut clients, &all, &ops, &warm, &expected));
            }
        });
    }
    let (answers, clock, peak_rss_mb, layer) = timed_phase.expect("last set-up runs the phase");
    let failed = mismatches + answers.iter().filter(|a| !a.ok).count() as u64;
    let ops: Vec<(usize, f64)> = answers.iter().map(|a| (a.segment, a.rtt_ms)).collect();
    Outcome {
        timing: timings(&setups, &clock, &ops),
        kernel_ms: clock.median_kernel_ms(),
        peak_rss_mb,
        failed,
        layer,
    }
}

/// The answers, the phase's calibrated clock and peak RSS, and the
/// layer metrics.
type Phase = (
    Vec<Answer>,
    HostClock,
    f64,
    Vec<(String, f64, &'static str)>,
);

fn phase(
    run: &Run,
    ctx: &EngineContext,
    clients: &mut [ServeClient],
    all: &[String],
    ops: &[usize],
    warm: &[Response],
    expected: &[JobResult],
) -> Phase {
    let before = ctx.stats();
    // The phase runs in segments. Clients start a segment together, send
    // their share of it, and wait at its end; the main thread times the
    // segment and, while every client and worker is idle, calibrates.
    let per_client: Vec<Vec<usize>> = (0..clients.len())
        .map(|c| ops.iter().skip(c).step_by(CLIENTS).copied().collect())
        .collect();
    let segments = per_client[0].len().div_ceil(SEGMENT_OPS);
    let barrier = Barrier::new(clients.len() + 1);
    let mut clock = HostClock::start();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&per_client)
            .enumerate()
            .map(|(c, (client, mine))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut answers = Vec::with_capacity(mine.len());
                    // Every client passes every segment's two barriers,
                    // even where its share of the segment is empty.
                    for segment in 0..segments {
                        let at = |k: usize| (k * SEGMENT_OPS).min(mine.len());
                        let chunk = &mine[at(segment)..at(segment + 1)];
                        barrier.wait();
                        let first = (c + segment * SEGMENT_OPS * CLIENTS) as u64;
                        closed_loop(
                            run,
                            client,
                            all,
                            chunk,
                            (first, CLIENTS as u64),
                            |line, rtt_ms, r| {
                                // A lost answer counts as failed rather than
                                // panicking, which would strand the other
                                // threads at the barrier.
                                let ok = r.as_ref().is_some_and(|r| {
                                    r.result == expected[line]
                                        && !matches!(r.result, JobResult::Failed { .. })
                                });
                                answers.push(Answer {
                                    segment,
                                    rtt_ms,
                                    elapsed_us: r.map_or(0, |r| r.elapsed_us),
                                    ok,
                                });
                            },
                        );
                        barrier.wait();
                    }
                    answers
                })
            })
            .collect();
        for _ in 0..segments {
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            clock.end_segment(start.elapsed().as_secs_f64());
        }
        let mut answers = Vec::with_capacity(ops.len());
        for h in handles {
            answers.extend(h.join().expect("client thread panicked"));
        }
        answers
    });
    let peak_rss_mb = stats::peak_rss_mb();
    let after = ctx.stats();
    let layer = if run.tracer.enabled() {
        probes(run, ctx, &answers, all, warm, &before, &after)
    } else {
        Vec::new()
    };
    (answers, clock, peak_rss_mb, layer)
}

fn family_totals(s: &EngineStats) -> (u64, u64) {
    let families = [
        s.sat,
        s.chase,
        s.automata,
        s.shapes,
        s.stream_index,
        s.stream_plans,
        s.stream_chase,
        s.delta,
    ];
    families
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses))
}

fn probes(
    run: &Run,
    ctx: &EngineContext,
    answers: &[Answer],
    all: &[String],
    warm: &[Response],
    before: &EngineStats,
    after: &EngineStats,
) -> Vec<(String, f64, &'static str)> {
    let tracer = run.tracer;
    let overhead: Vec<f64> = answers
        .iter()
        .map(|a| a.rtt_ms * 1e3 - a.elapsed_us as f64)
        .collect();
    let exec: Vec<f64> = answers.iter().map(|a| a.elapsed_us as f64 / 1e3).collect();

    // Codec, job-line parsing and in-process execution, per distinct line.
    let mut parser = JobParser::new(&run.dir);
    let jobs: Vec<_> = all
        .iter()
        .map(|l| parser.parse(l).expect("valid job line"))
        .collect();
    for rep in 0..PROBE_REPS {
        for (i, line) in all.iter().enumerate() {
            let op = (1u64 << 32) + (rep * all.len() + i) as u64;
            tracer.span("probe.line", ROOT, op, |id| {
                tracer.span("core.serve.codec", id, op, |_| {
                    let frame = encode_request(op, 0, line);
                    decode_request(&frame).expect("request round-trips");
                    Response::parse(warm[i].raw.as_bytes()).expect("response parses")
                });
                tracer
                    .span("core.batch.parse_line", id, op, |_| parser.parse(line))
                    .expect("valid job line");
                let verb = line.split_whitespace().next().unwrap_or_default();
                tracer.span(&format!("core.batch.run_job.{verb}"), id, op, |_| {
                    run_job(ctx, &jobs[i])
                });
            });
        }
    }
    let (h0, m0) = family_totals(before);
    let (h1, m1) = family_totals(after);
    let mut layer = vec![
        (
            "core.serve.overhead_us.p50".into(),
            stats::quantile(&overhead, 0.5),
            "us",
        ),
        (
            "core.serve.overhead_us.p95".into(),
            stats::quantile(&overhead, 0.95),
            "us",
        ),
        ("core.serve.exec_ms".into(), stats::median(&exec), "ms"),
        (
            "core.serve.codec_us".into(),
            stats::median(&tracer.durations_ms("core.serve.codec")) * 1e3,
            "us",
        ),
        (
            "core.batch.parse_line_us".into(),
            stats::median(&tracer.durations_ms("core.batch.parse_line")) * 1e3,
            "us",
        ),
        (
            "core.engine.hit_ratio".into(),
            (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64,
            "share",
        ),
        (
            "core.engine.compiled".into(),
            (after.total_compiled() - before.total_compiled()) as f64,
            "count",
        ),
    ];
    for verb in VERBS {
        let ms = stats::median(&tracer.durations_ms(&format!("core.batch.run_job.{verb}")));
        layer.push((format!("core.batch.run_job_ms.{verb}"), ms, "ms"));
    }
    let compile_ms = |c: &xmlmap_core::CacheCounters| c.compile_time.as_secs_f64() * 1e3;
    layer.push((
        "core.engine.compile_ms.stream_index".into(),
        compile_ms(&after.stream_index),
        "ms",
    ));
    layer.push((
        "core.engine.compile_ms.stream_plans".into(),
        compile_ms(&after.stream_plans),
        "ms",
    ));
    layer.push((
        "core.engine.compile_ms.stream_chase".into(),
        compile_ms(&after.stream_chase),
        "ms",
    ));
    layer.push((
        "core.engine.compile_ms.delta".into(),
        compile_ms(&after.delta),
        "ms",
    ));
    layer
}
