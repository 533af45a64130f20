//! The xmlmap benchmark: four seeded workloads, six end-to-end metrics
//! each, and a traced run that times calls into every layer's public
//! functions from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <exchange-ingest|delta-storm|daemon-mix|schema-audit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! lines before it are the same numbers for people. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off, their
//! times scaled to a reference host speed (see `calib.rs`); with
//! `--trace 1` they are the per-layer ones (see README.md next to this
//! file).

mod audit;
mod calib;
mod daemon;
mod delta;
mod ingest;
mod stats;
mod trace;

use calib::Timing;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order the traced run probes them.
const WORKLOADS: [&str; 4] = [
    "exchange-ingest",
    "delta-storm",
    "daemon-mix",
    "schema-audit",
];

/// Timed-phase length, in seconds, of the short traced passes a traced
/// run makes over the workloads it was not asked for, so every traced
/// run reports every per-layer metric.
const PROBE_SECONDS: f64 = 1.0;

/// Where generated inputs live while a run lasts (removed at exit).
const DATA_DIR: &str = ".bench_data";

/// Where traced runs write their spans.
const TRACE_DIR: &str = ".bench_traces";

/// What one workload run is given.
pub struct Run<'a> {
    /// Input seed.
    pub seed: u64,
    /// Nominal timed-phase length; sizes the fixed op list.
    pub seconds: f64,
    /// Scratch directory for generated inputs (exists, empty).
    pub dir: PathBuf,
    /// Span recorder (disabled for end-to-end runs).
    pub tracer: &'a Tracer,
}

impl Run<'_> {
    /// The fixed op count for a workload whose ops run at about `per_s`
    /// per second on the reference machine.
    pub fn op_count(&self, per_s: f64) -> usize {
        ((self.seconds * per_s).round() as usize).max(1)
    }
}

/// What one workload run measured.
pub struct Outcome {
    /// The timings as measured, and scaled to the reference host (see
    /// `calib.rs`); the end-to-end metrics report the scaled ones.
    pub timing: [Timing; 2],
    /// Median time of the calibration kernel over the timed phase, ms.
    pub kernel_ms: f64,
    /// Peak resident set size of the set-ups and the timed phase, MB,
    /// read before the oracle runs (see [`stats::reset_peak_rss`]).
    pub peak_rss_mb: f64,
    /// Timed ops that failed, were refused or disagreed with the oracle.
    pub failed: u64,
    /// Per-layer metrics `(name, value, unit)`; empty when untraced.
    pub layer: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn scaled(&self) -> &Timing {
        &self.timing[1]
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A fresh seeded generator for one purpose within a run.
pub fn rng(seed: u64, stream: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Writes `bytes` to `path` and syncs it to disk.
pub fn write_synced(path: &Path, bytes: &[u8]) {
    use std::io::Write;
    let mut f = std::fs::File::create(path).expect("create input file");
    f.write_all(bytes).expect("write input file");
    f.sync_all().expect("sync input file");
}

fn run_workload(name: &str, run: &Run) -> Outcome {
    match name {
        "exchange-ingest" => ingest::run(run),
        "delta-storm" => delta::run(run),
        "daemon-mix" => daemon::run(run),
        "schema-audit" => audit::run(run),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = Path::new(DATA_DIR).join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

/// Pins this process to the last CPU it may use and returns that CPU.
/// Every thread of the run then shares one CPU. On a shared 2-core VM, a
/// run whose threads hand work to each other across two CPUs (the
/// daemon's clients and workers) paid 5–35% hypervisor steal, varying
/// from run to run, and its throughput and p95 swung by 40–70%; pinned,
/// steal stays near 1%. The first CPU is avoided because it takes most
/// device interrupts. Must be called before any thread is spawned, so
/// every thread inherits the mask.
fn pin_to_last_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?
        .trim();
    let cpu: usize = list
        .rsplit([',', '-'])
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or(format!("cannot parse Cpus_allowed_list {list:?}"))?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn main() {
    let (args, cpu) = match parse_args().and_then(|a| Ok((a, pin_to_last_cpu()?))) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let steal_before = stats::cpu_jiffies();
    // A traced run splits its time between an untraced and a traced pass
    // of the workload, so it lasts about as long as an untraced run.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let off = Tracer::new(false);
    let base = Run {
        seed: args.seed,
        seconds,
        dir: fresh_dir(&args.workload),
        tracer: &off,
    };
    let plain = run_workload(&args.workload, &base);
    let _ = std::fs::remove_dir_all(&base.dir);
    let (mut attempted, mut failed) = (plain.scaled().latencies_ms.len() as u64, plain.failed);

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !args.trace {
        let t = plain.scaled();
        metrics.push(("setup_s".into(), t.setup_s, "s"));
        metrics.push(("ops_per_s".into(), t.ops_per_s(), "1/s"));
        metrics.push(("latency_p50_ms".into(), t.latency_ms(0.50), "ms"));
        metrics.push(("latency_p95_ms".into(), t.latency_ms(0.95), "ms"));
        metrics.push(("peak_rss_mb".into(), plain.peak_rss_mb, "MB"));
        let raw = &plain.timing[0];
        println!(
            "{}: pinned to CPU {cpu}, {attempted} ops in {:.3}s, {failed} failed, host.steal_share {:.4}",
            args.workload,
            raw.phase_s,
            stats::steal_share(steal_before, stats::cpu_jiffies())
        );
        println!(
            "as measured: setup_s {:.6} s, ops_per_s {:.3} 1/s, latency_p50_ms {:.4} ms, \
             latency_p95_ms {:.4} ms; calibration kernel median {:.4} ms (reference {} ms)",
            raw.setup_s,
            raw.ops_per_s(),
            raw.latency_ms(0.50),
            raw.latency_ms(0.95),
            plain.kernel_ms,
            calib::REF_MS
        );
    } else {
        let mut spans = Vec::new();
        for name in WORKLOADS {
            let tracer = Tracer::new(true);
            let run = Run {
                seed: args.seed,
                seconds: if name == args.workload {
                    seconds
                } else {
                    PROBE_SECONDS
                },
                dir: fresh_dir(name),
                tracer: &tracer,
            };
            let out = run_workload(name, &run);
            let _ = std::fs::remove_dir_all(&run.dir);
            attempted += out.scaled().latencies_ms.len() as u64;
            failed += out.failed;
            if name == args.workload {
                metrics.push((
                    "bench.trace_overhead".into(),
                    out.scaled().latency_ms(0.5) / plain.scaled().latency_ms(0.5),
                    "ratio",
                ));
            }
            metrics.extend(out.layer);
            spans.extend(tracer.spans().into_iter().map(|mut s| {
                s.name = format!("{name}/{}", s.name);
                s
            }));
        }
        metrics.push((
            "host.steal_share".into(),
            stats::steal_share(steal_before, stats::cpu_jiffies()),
            "share",
        ));
        let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.tsv", args.workload, args.seed));
        trace::write_spans(&spans, &path).expect("write spans");
        println!(
            "pinned to CPU {cpu}; spans: {} written to {}",
            spans.len(),
            path.display()
        );
        print!("{}", trace::self_time_report(&spans));
    }
    let _ = std::fs::remove_dir(DATA_DIR);

    // error_rate is printed with the metrics but left out of the JSON
    // object: it is failed / attempted there, and it should read 0.
    let error_rate = failed as f64 / attempted.max(1) as f64;
    for (name, value, unit) in metrics
        .iter()
        .chain([&("error_rate".into(), error_rate, "share")])
    {
        println!(
            "{:<44} {value:>14.6} {unit}",
            format!("{}/{name}", args.workload)
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
