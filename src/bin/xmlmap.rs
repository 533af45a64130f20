//! `xmlmap` — command-line front end for the schema-mapping toolkit.
//!
//! ```text
//! xmlmap validate  <dtd-file> <xml-file>         check T ⊨ D
//! xmlmap match     <pattern> <xml-file>          evaluate π(T)
//! xmlmap check     <mapping-file> <src> <tgt>    (T,T') ∈ ⟦M⟧ ?
//! xmlmap chase     <mapping-file> <src>          print a canonical solution
//! xmlmap delta     <mapping-file> <src> <updatefile> [--dump-source FILE]
//!                                                incremental chase: apply an
//!                                                update script, print the
//!                                                final canonical solution
//! xmlmap certain   <mapping-file> <src> <query>  certain answers
//! xmlmap consistent <mapping-file>               CONS(σ)
//! xmlmap abscons   <mapping-file>                ABSCONS(σ)
//! xmlmap compose   <mapping-file> <mapping-file> syntactic composition
//! xmlmap subschema <dtd-file> <dtd-file>         every D1 doc conforms to D2?
//! xmlmap stream    <dtd-file> [--pattern P] [--stats] <xml-file|->
//!                                                O(depth) streaming validation
//! xmlmap stream    --chase <mapping-file> [--stats] <xml-file|->
//!                                                streaming chase: canonical
//!                                                solution without the tree
//! xmlmap batch     <jobfile> [--workers N] [--stats]
//!                  [--cache-budget BYTES] [--cache-dir DIR]
//!                                                run a job list in parallel
//! xmlmap serve     <socket> [--tcp] [--workers N] [--deadline-ms T]
//!                  [--queue N] [--root DIR]
//!                  [--cache-budget BYTES] [--cache-dir DIR]
//!                                                long-lived request daemon
//! xmlmap client    <socket> [jobfile] [--tcp] [--job LINE]... [--stats]
//!                  [--deadline-ms T] [--wait-ms N]
//!                                                drive a running daemon
//! ```
//!
//! Mapping files use the `[source]`/`[target]`/`[stds]` format of
//! `Mapping::parse`; exit status is 0 for "yes" answers, 1 for "no",
//! 2 for usage or input errors.
//!
//! `stream` validates a document against a DTD — and, with `--pattern`,
//! decides pattern membership in the same single pass — in O(depth)
//! memory: the document is read as a byte stream (from a file, or stdin
//! when the operand is `-`) and never materialised as a tree, so it
//! works on documents far larger than memory. Patterns must lie in the
//! streamable downward fragment (child `/`, descendant `//`, wildcard,
//! within-tuple repeated variables); sibling-order operators and
//! cross-node variable joins are rejected with a diagnostic pointing at
//! the arena evaluator (`xmlmap match`). Exit status 0 = valid (and
//! matching), 1 = invalid or non-matching, 2 = parse/usage errors.
//!
//! `stream --chase` runs the *streaming chase*: the same single pass
//! enumerates std firings (one valuation enumerator per std) and chases
//! them into the canonical solution, printing the reduced target XML —
//! byte-identical to `xmlmap chase` on the same inputs — in
//! O(depth + firings) memory, never materialising the source tree.
//! Every std source pattern must lie in the streamable fragment; with
//! `--stats`, firing/live-valuation/depth counters go to stderr. For `batch` (jobfile syntax:
//! `xmlmap::core::batch::parse_jobfile`), exit status is 0 when every job
//! completed, 1 when some job failed, 2 for usage/jobfile errors; jobs run
//! on `--workers` threads (default: the available parallelism) over one
//! shared [`EngineContext`], and `--stats` prints the per-cache
//! hit/miss/compile-time counters to stderr. `--cache-budget` bounds the
//! bytes of resident compiled artifacts (suffixes `K`/`M`/`G` accepted),
//! evicting least-recently-used entries past the limit; `--cache-dir`
//! attaches a persistent store of determinized automata and shape lists
//! so a later run against the same schemas skips subset construction and
//! shape enumeration.
//!
//! `delta` opens an incremental-chase session (`xmlmap::core::chase::
//! delta`) over the source document, applies the updatefile — one op per
//! line: `insert <path> <pos> <xml>`, `delete <path>`, `settext <path>
//! <attr> <value>`, with `/`-separated child-index paths and `.` for the
//! root — re-matching only the stds whose compiled plans can reach each
//! edited region, and prints the final reduced solution: the exact bytes
//! `xmlmap chase` prints for the mutated document. `--dump-source FILE`
//! additionally writes the mutated source XML (for differential checks).
//! Exit status mirrors `chase`: 0 with a solution, 1 without.
//!
//! `serve` keeps one shared context alive across any number of requests:
//! it listens on a unix socket (or, with `--tcp`, a TCP address), fans
//! requests — job lines in the batch grammar, plus `STATS` and
//! `PING [ms]` — over a fixed worker pool, and answers with JSON frames
//! (wire format: `xmlmap::core::serve`). SIGTERM/SIGINT drain in-flight
//! requests, flush the artifact store, and exit 0. `client` connects,
//! pipelines a jobfile (and/or `--job` lines), and prints responses in
//! the exact `batch` output format — byte-equivalent for the same
//! jobfile; `--stats` additionally fetches the daemon's `STATS` snapshot
//! and prints the JSON to stderr.
//!
//! [`EngineContext`]: xmlmap::core::EngineContext

use std::process::ExitCode;
use xmlmap::core::EngineContext;
use xmlmap::prelude::*;

const BUDGET: usize = 50_000_000;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_tree(path: &str) -> Result<Tree, String> {
    xmlmap::trees::xml::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn load_mapping(path: &str) -> Result<Mapping, String> {
    Mapping::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (decimal).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, scale) = match s.char_indices().last() {
        Some((i, 'K' | 'k')) => (&s[..i], 1_000),
        Some((i, 'M' | 'm')) => (&s[..i], 1_000_000),
        Some((i, 'G' | 'g')) => (&s[..i], 1_000_000_000),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| n * scale)
        .map_err(|_| format!("`{s}` is not a byte count (try 64M, 2G, 1000000)"))
}

/// Prints the engine-cache counter block to stderr — shared by `batch`
/// (`--stats`, on every exit path) and `serve` (at drain), so failed runs
/// stay as diagnosable as clean ones.
fn print_engine_stats(ctx: &EngineContext, heading: &str) {
    let snapshot = ctx.stats();
    eprintln!("-- engine cache stats ({heading})");
    eprintln!("{snapshot}");
    eprintln!(
        "-- totals: {} compiled, {} loaded from disk",
        snapshot.total_compiled(),
        snapshot.total_disk_hits()
    );
}

/// Builds an [`EngineContext`] from the shared `--cache-budget` /
/// `--cache-dir` options.
fn build_context(budget: Option<u64>, cache_dir: Option<&str>) -> Result<EngineContext, String> {
    let mut ctx = EngineContext::new();
    if let Some(b) = budget {
        ctx = ctx.with_memory_budget(b);
    }
    if let Some(dir) = cache_dir {
        ctx = ctx
            .with_disk_cache(dir)
            .map_err(|e| format!("--cache-dir {dir}: {e}"))?;
    }
    Ok(ctx)
}

/// Runs a jobfile over a shared [`EngineContext`] on `--workers` threads.
/// The context is built here — `--cache-budget` and `--cache-dir` shape it.
fn run_batch_command(args: &[&str]) -> Result<bool, String> {
    let mut jobfile: Option<&str> = None;
    let mut workers = xmlmap::core::batch::default_workers();
    let mut stats = false;
    let mut budget: Option<u64> = None;
    let mut cache_dir: Option<&str> = None;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--workers" => {
                let n = it
                    .next()
                    .ok_or_else(|| "--workers needs a number".to_string())?;
                workers = n
                    .parse::<usize>()
                    .map_err(|_| format!("--workers: `{n}` is not a number"))?;
            }
            "--stats" => stats = true,
            "--cache-budget" => {
                let b = it
                    .next()
                    .ok_or_else(|| "--cache-budget needs a byte count".to_string())?;
                budget = Some(parse_bytes(b).map_err(|e| format!("--cache-budget: {e}"))?);
            }
            "--cache-dir" => {
                cache_dir = Some(
                    *it.next()
                        .ok_or_else(|| "--cache-dir needs a directory".to_string())?,
                );
            }
            _ if jobfile.is_none() => jobfile = Some(arg),
            _ => return Err(format!("batch: unexpected argument `{arg}`")),
        }
    }
    let jobfile = jobfile.ok_or_else(|| {
        "usage: xmlmap batch <jobfile> [--workers N] [--stats] \
         [--cache-budget BYTES] [--cache-dir DIR]"
            .to_string()
    })?;
    let ctx = build_context(budget, cache_dir)?;
    // The counter block prints on *every* exit path past this point —
    // exit 1 (failed jobs) and exit 2 (malformed jobfile) included — so a
    // failed batch is still diagnosable from its cache behaviour.
    let outcome = run_batch_jobs(&ctx, jobfile, workers);
    if stats {
        print_engine_stats(&ctx, &format!("{workers} workers"));
    }
    outcome
}

/// The jobfile-to-rendered-results part of `batch`, separated so stats
/// printing wraps all of its exit paths.
fn run_batch_jobs(ctx: &EngineContext, jobfile: &str, workers: usize) -> Result<bool, String> {
    let text = read(jobfile)?;
    let dir = std::path::Path::new(jobfile)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let jobs = xmlmap::core::parse_jobfile(&text, &dir).map_err(|errors| {
        let mut msg = format!("{jobfile}: {} malformed job(s)", errors.len());
        for e in &errors {
            msg.push_str(&format!("\n  {e}"));
        }
        msg
    })?;
    let results = xmlmap::core::run_batch(ctx, &jobs, workers);
    ctx.flush_disk_cache();
    print!("{}", xmlmap::core::render_batch(&jobs, &results));
    Ok(results
        .iter()
        .all(|r| !matches!(r, xmlmap::core::JobResult::Failed { .. })))
}

/// Registers SIGTERM/SIGINT handlers that raise the daemon's shutdown
/// flag (a single atomic store — async-signal-safe). Pure-std FFI against
/// the platform `signal(2)`; the build has no `libc` crate.
#[cfg(unix)]
fn install_signal_handlers(handle: xmlmap::core::ShutdownHandle) {
    use std::sync::OnceLock;
    static HANDLE: OnceLock<xmlmap::core::ShutdownHandle> = OnceLock::new();
    extern "C" fn on_signal(_signum: i32) {
        if let Some(h) = HANDLE.get() {
            h.raise();
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let _ = HANDLE.set(handle);
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers(_handle: xmlmap::core::ShutdownHandle) {}

/// `xmlmap serve <socket>` — the long-lived daemon over one context.
fn run_serve_command(args: &[&str]) -> Result<bool, String> {
    let mut socket: Option<&str> = None;
    let mut tcp = false;
    let mut cfg = xmlmap::core::ServeConfig::default();
    let mut budget: Option<u64> = None;
    let mut cache_dir: Option<&str> = None;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let n = it.next().ok_or_else(|| format!("{flag} needs a number"))?;
            n.parse::<u64>()
                .map_err(|_| format!("{flag}: `{n}` is not a number"))
        };
        match arg {
            "--tcp" => tcp = true,
            "--workers" => cfg.workers = num("--workers")? as usize,
            "--deadline-ms" => cfg.deadline_ms = num("--deadline-ms")?,
            "--queue" => cfg.queue_depth = num("--queue")? as usize,
            "--root" => {
                cfg.root = std::path::PathBuf::from(
                    *it.next()
                        .ok_or_else(|| "--root needs a directory".to_string())?,
                );
            }
            "--cache-budget" => {
                let b = it
                    .next()
                    .ok_or_else(|| "--cache-budget needs a byte count".to_string())?;
                budget = Some(parse_bytes(b).map_err(|e| format!("--cache-budget: {e}"))?);
            }
            "--cache-dir" => {
                cache_dir = Some(
                    *it.next()
                        .ok_or_else(|| "--cache-dir needs a directory".to_string())?,
                );
            }
            _ if socket.is_none() => socket = Some(arg),
            _ => return Err(format!("serve: unexpected argument `{arg}`")),
        }
    }
    let socket = socket.ok_or_else(|| {
        "usage: xmlmap serve <socket> [--tcp] [--workers N] [--deadline-ms T] [--queue N] \
         [--root DIR] [--cache-budget BYTES] [--cache-dir DIR]"
            .to_string()
    })?;
    let endpoint = xmlmap::core::Endpoint::parse(socket, tcp)?;
    let ctx = build_context(budget, cache_dir)?;
    let shutdown = xmlmap::core::ShutdownHandle::new();
    install_signal_handlers(shutdown.clone());
    eprintln!(
        "xmlmap serve: listening on {endpoint} ({} workers, deadline {}, root {})",
        cfg.workers.max(1),
        if cfg.deadline_ms == 0 {
            "none".to_string()
        } else {
            format!("{}ms", cfg.deadline_ms)
        },
        cfg.root.display()
    );
    let summary =
        xmlmap::core::serve(&endpoint, &ctx, &cfg, &shutdown).map_err(|e| format!("serve: {e}"))?;
    eprintln!("xmlmap serve: drained — {summary}");
    print_engine_stats(&ctx, &format!("serve, {} workers", cfg.workers.max(1)));
    Ok(true)
}

/// `xmlmap client <socket>` — drive a running daemon with a jobfile
/// and/or `--job` lines, printing responses in the `batch` format.
fn run_client_command(args: &[&str]) -> Result<bool, String> {
    let mut socket: Option<&str> = None;
    let mut jobfile: Option<&str> = None;
    let mut tcp = false;
    let mut stats = false;
    let mut deadline_ms = 0u64;
    let mut wait_ms = 5_000u64;
    let mut extra_jobs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--tcp" => tcp = true,
            "--stats" => stats = true,
            "--job" => {
                extra_jobs.push(
                    it.next()
                        .ok_or_else(|| "--job needs a job line".to_string())?
                        .to_string(),
                );
            }
            "--deadline-ms" => {
                let n = it
                    .next()
                    .ok_or_else(|| "--deadline-ms needs a number".to_string())?;
                deadline_ms = n
                    .parse::<u64>()
                    .map_err(|_| format!("--deadline-ms: `{n}` is not a number"))?;
            }
            "--wait-ms" => {
                let n = it
                    .next()
                    .ok_or_else(|| "--wait-ms needs a number".to_string())?;
                wait_ms = n
                    .parse::<u64>()
                    .map_err(|_| format!("--wait-ms: `{n}` is not a number"))?;
            }
            _ if socket.is_none() => socket = Some(arg),
            _ if jobfile.is_none() => jobfile = Some(arg),
            _ => return Err(format!("client: unexpected argument `{arg}`")),
        }
    }
    let socket = socket.ok_or_else(|| {
        "usage: xmlmap client <socket> [jobfile] [--tcp] [--job LINE]... [--stats] \
         [--deadline-ms T] [--wait-ms N]"
            .to_string()
    })?;
    let endpoint = xmlmap::core::Endpoint::parse(socket, tcp)?;
    // Job lines: the jobfile's (filtered exactly like `batch` filters
    // them, so the rendering is byte-equivalent), then any `--job` lines.
    let mut lines: Vec<String> = Vec::new();
    if let Some(path) = jobfile {
        for raw in read(path)?.lines() {
            let line = raw.trim();
            if !line.is_empty() && !line.starts_with('#') {
                lines.push(line.to_string());
            }
        }
    }
    lines.extend(extra_jobs);
    let mut client = xmlmap::core::ServeClient::connect_with_retry(
        &endpoint,
        std::time::Duration::from_millis(wait_ms),
    )
    .map_err(|e| format!("client: cannot connect to {endpoint}: {e}"))?;
    // Windowed pipelining: keep up to `WINDOW` requests in flight so the
    // daemon's worker pool sees real concurrency from one connection,
    // while response frames can never overfill the socket buffer.
    const WINDOW: usize = 32;
    let total = lines.len();
    let mut results: Vec<Option<xmlmap::core::JobResult>> = vec![None; total];
    let (mut sent, mut received) = (0usize, 0usize);
    while received < total {
        while sent < total && sent - received < WINDOW {
            client
                .send(&lines[sent], deadline_ms)
                .map_err(|e| format!("client: send failed: {e}"))?;
            sent += 1;
        }
        let response = client.recv().map_err(|e| format!("client: {e}"))?;
        let id = response.id as usize;
        if id == 0 || id > total || results[id - 1].is_some() {
            return Err(format!("client: unexpected response id {id}"));
        }
        results[id - 1] = Some(response.result);
        received += 1;
    }
    let labeled: Vec<(String, xmlmap::core::JobResult)> = lines
        .into_iter()
        .zip(results.into_iter().map(|r| r.expect("all ids received")))
        .collect();
    print!("{}", xmlmap::core::render_results(&labeled));
    if stats {
        let snapshot = client.stats().map_err(|e| format!("client: STATS: {e}"))?;
        eprintln!("{snapshot}");
    }
    Ok(labeled
        .iter()
        .all(|(_, r)| !matches!(r, xmlmap::core::JobResult::Failed { .. })))
}

/// `xmlmap stream <dtd-file> [--pattern P] [--stats] <xml-file|->` —
/// O(depth) streaming validation (and optional membership) that never
/// builds the document tree. With `--chase <mapping-file>` the pass
/// instead enumerates std firings and chases them into the canonical
/// solution (printed as reduced XML, exactly like `xmlmap chase`)
/// without ever materialising the source.
fn run_stream_command(ctx: &EngineContext, args: &[&str]) -> Result<bool, String> {
    let mut schema: Option<&str> = None;
    let mut doc: Option<&str> = None;
    let mut pattern_text: Option<&str> = None;
    let mut chase_mapping: Option<&str> = None;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--pattern" => {
                pattern_text = Some(
                    *it.next()
                        .ok_or_else(|| "--pattern needs a pattern".to_string())?,
                );
            }
            "--chase" => {
                chase_mapping = Some(
                    *it.next()
                        .ok_or_else(|| "--chase needs a mapping file".to_string())?,
                );
            }
            "--stats" => stats = true,
            _ if chase_mapping.is_none() && schema.is_none() => schema = Some(arg),
            _ if doc.is_none() => doc = Some(arg),
            _ => return Err(format!("stream: unexpected argument `{arg}`")),
        }
    }
    if let Some(map) = chase_mapping {
        if pattern_text.is_some() || schema.is_some() {
            return Err(
                "stream: --chase takes a mapping and a document; it cannot be combined \
                 with a schema operand or --pattern"
                    .to_string(),
            );
        }
        let doc = doc.ok_or_else(|| {
            "usage: xmlmap stream --chase <mapping-file> [--stats] <xml-file|->".to_string()
        })?;
        return run_stream_chase(ctx, map, doc, stats);
    }
    let (Some(schema), Some(doc)) = (schema, doc) else {
        return Err(
            "usage: xmlmap stream <dtd-file> [--pattern P] [--stats] <xml-file|->\n\
             \x20      xmlmap stream --chase <mapping-file> [--stats] <xml-file|->"
                .to_string(),
        );
    };
    let dtd = xmlmap::dtd::parse(&read(schema)?).map_err(|e| e.to_string())?;
    let pattern = pattern_text
        .map(|t| xmlmap::patterns::parse(t).map_err(|e| e.to_string()))
        .transpose()?;
    let outcome = if doc == "-" {
        let stdin = std::io::stdin();
        ctx.stream_document(&dtd, pattern.as_ref(), stdin.lock())
    } else {
        let file = std::fs::File::open(doc).map_err(|e| format!("cannot read {doc}: {e}"))?;
        ctx.stream_document(&dtd, pattern.as_ref(), std::io::BufReader::new(file))
    }
    .map_err(|e| format!("{doc}: {e}"))?;
    if stats {
        print_engine_stats(ctx, "stream");
    }
    if let Some(violation) = &outcome.violation {
        println!("{violation}");
        return Ok(false);
    }
    let shape = format!(
        "{} elements, depth {}, peak stream state {} bytes",
        outcome.stats.elements,
        outcome.stats.peak_depth,
        outcome.stats.peak_state_bytes + outcome.pattern_state_bytes
    );
    match outcome.matched {
        None => {
            println!("valid: {shape}");
            Ok(true)
        }
        Some(true) => {
            println!("valid, matches: {shape}");
            Ok(true)
        }
        Some(false) => {
            println!("valid, does NOT match: {shape}");
            Ok(false)
        }
    }
}

/// The `--chase` arm of `xmlmap stream`: one pass enumerates firings and
/// the chase builds the canonical solution, printed reduced — the exact
/// bytes `xmlmap chase` prints for the same (mapping, document) pair.
fn run_stream_chase(
    ctx: &EngineContext,
    mapping_path: &str,
    doc: &str,
    stats: bool,
) -> Result<bool, String> {
    let m = load_mapping(mapping_path)?;
    let outcome = if doc == "-" {
        let stdin = std::io::stdin();
        ctx.chase_stream(&m, stdin.lock())
    } else {
        let file = std::fs::File::open(doc).map_err(|e| format!("cannot read {doc}: {e}"))?;
        ctx.chase_stream(&m, std::io::BufReader::new(file))
    }
    .map_err(|e| format!("{doc}: {e}"))?;
    if stats {
        print_engine_stats(ctx, "stream --chase");
        eprintln!(
            "-- stream: {} firing(s), peak live valuations {}, \
             {} elements, peak depth {}, peak stream state {} bytes",
            outcome.firings,
            outcome.peak_live_valuations,
            outcome.stats.elements,
            outcome.peak_depth(),
            outcome.peak_live_bytes()
        );
    }
    if let Some(violation) = &outcome.violation {
        println!("{violation}");
        return Ok(false);
    }
    match outcome.solution.expect("no violation implies a verdict") {
        Ok(solution) => {
            let reduced = xmlmap::core::reduce_solution(&m, &solution);
            print!("{}", xmlmap::trees::xml::to_string(&reduced));
            Ok(true)
        }
        Err(e) => {
            eprintln!("no solution: {e}");
            Ok(false)
        }
    }
}

/// `xmlmap delta <mapping> <src> <updatefile>` — open an incremental
/// session, run the update script, print the final reduced solution
/// (byte-identical to `xmlmap chase` on the mutated document).
fn run_delta_command(ctx: &EngineContext, args: &[&str]) -> Result<bool, String> {
    let mut operands: Vec<&str> = Vec::new();
    let mut dump_source: Option<&str> = None;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--dump-source" => {
                dump_source = Some(
                    *it.next()
                        .ok_or_else(|| "--dump-source needs a file".to_string())?,
                );
            }
            _ if operands.len() < 3 => operands.push(arg),
            _ => return Err(format!("delta: unexpected argument `{arg}`")),
        }
    }
    let [mapping_path, src_path, updates_path] = operands.as_slice() else {
        return Err(
            "usage: xmlmap delta <mapping-file> <src> <updatefile> [--dump-source FILE]"
                .to_string(),
        );
    };
    let m = load_mapping(mapping_path)?;
    let mut src = load_tree(src_path)?;
    let _ = m.source_dtd.normalize_attrs(&mut src);
    let updates = xmlmap::core::parse_updates(&read(updates_path)?)
        .map_err(|e| format!("{updates_path}: {e}"))?;
    let mut session = ctx.delta_session(&m, src);
    let applied = session
        .apply_all(&updates)
        .map_err(|e| format!("{updates_path}: {e}"))?;
    ctx.record_delta(session.stats());
    let s = session.stats();
    eprintln!(
        "delta: {applied} update(s), {} std refire(s), {} skip(s), {} replay(s)",
        s.refires, s.skips, s.replays
    );
    if let Some(path) = dump_source {
        std::fs::write(path, xmlmap::trees::xml::to_string(session.doc()))
            .map_err(|e| format!("--dump-source {path}: {e}"))?;
    }
    match session.canonical_solution() {
        Ok(solution) => {
            let reduced = xmlmap::core::reduce_solution(&m, &solution);
            print!("{}", xmlmap::trees::xml::to_string(&reduced));
            Ok(true)
        }
        Err(e) => {
            eprintln!("no solution: {e}");
            Ok(false)
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    // One shared context for the whole invocation: single queries get the
    // compile-once caches too, and `batch` fans out over it.
    let ctx = EngineContext::new();
    match strs.as_slice() {
        ["batch", rest @ ..] => run_batch_command(rest),
        ["stream", rest @ ..] => run_stream_command(&ctx, rest),
        ["serve", rest @ ..] => run_serve_command(rest),
        ["client", rest @ ..] => run_client_command(rest),
        ["validate", dtd_path, xml_path] => {
            let dtd = xmlmap::dtd::parse(&read(dtd_path)?).map_err(|e| e.to_string())?;
            let mut tree = load_tree(xml_path)?;
            let _ = dtd.normalize_attrs(&mut tree); // tolerate attribute order
            match dtd.check(&tree) {
                Ok(()) => {
                    println!("valid: {} nodes conform", tree.size());
                    Ok(true)
                }
                Err(e) => {
                    println!("invalid: {e}");
                    Ok(false)
                }
            }
        }
        ["match", pattern_text, xml_path] => {
            let pattern = xmlmap::patterns::parse(pattern_text).map_err(|e| e.to_string())?;
            let tree = load_tree(xml_path)?;
            let matches = xmlmap::patterns::all_matches(&tree, &pattern);
            for m in &matches {
                let row: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v}")).collect();
                println!("{}", row.join(", "));
            }
            println!("-- {} match(es)", matches.len());
            Ok(!matches.is_empty())
        }
        ["check", mapping_path, src_path, tgt_path] => {
            let m = load_mapping(mapping_path)?;
            let mut src = load_tree(src_path)?;
            let mut tgt = load_tree(tgt_path)?;
            let _ = m.source_dtd.normalize_attrs(&mut src);
            let _ = m.target_dtd.normalize_attrs(&mut tgt);
            let ok = m.is_solution(&src, &tgt);
            println!("{}", if ok { "solution" } else { "NOT a solution" });
            Ok(ok)
        }
        ["chase", mapping_path, src_path] => {
            let m = load_mapping(mapping_path)?;
            let mut src = load_tree(src_path)?;
            let _ = m.source_dtd.normalize_attrs(&mut src);
            match ctx.canonical_solution(&m, &src) {
                Ok(solution) => {
                    let reduced = xmlmap::core::reduce_solution(&m, &solution);
                    print!("{}", xmlmap::trees::xml::to_string(&reduced));
                    Ok(true)
                }
                Err(e) => {
                    eprintln!("no solution: {e}");
                    Ok(false)
                }
            }
        }
        ["delta", rest @ ..] => run_delta_command(&ctx, rest),
        ["certain", mapping_path, src_path, query_text] => {
            let m = load_mapping(mapping_path)?;
            let mut src = load_tree(src_path)?;
            let _ = m.source_dtd.normalize_attrs(&mut src);
            let query = xmlmap::patterns::parse(query_text).map_err(|e| e.to_string())?;
            let answers = ctx
                .certain_answers(&m, &src, &query)
                .map_err(|e| e.to_string())?;
            for a in &answers {
                let row: Vec<String> = a.iter().map(|(k, v)| format!("{k}={v}")).collect();
                println!("{}", row.join(", "));
            }
            println!("-- {} certain answer(s)", answers.len());
            Ok(!answers.is_empty())
        }
        ["consistent", mapping_path] => {
            let m = load_mapping(mapping_path)?;
            println!("class: {}", m.signature());
            match ctx.consistent(&m, BUDGET) {
                Ok(ConsAnswer::Consistent { source, .. }) => {
                    println!("consistent (witness source has {} nodes)", source.size());
                    Ok(true)
                }
                Ok(ConsAnswer::Inconsistent) => {
                    println!("INCONSISTENT");
                    Ok(false)
                }
                Err(e) => {
                    println!("exact procedure not applicable: {e}");
                    match xmlmap::core::bounded::consistent_bounded(&m, 3, 4) {
                        xmlmap::core::BoundedOutcome::Witness(w) => {
                            println!("consistent (bounded witness, {} nodes)", w.size());
                            Ok(true)
                        }
                        xmlmap::core::BoundedOutcome::ExhaustedBounds => {
                            println!("unknown: no witness up to the search bounds");
                            Ok(false)
                        }
                    }
                }
            }
        }
        ["abscons", mapping_path] => {
            let m = load_mapping(mapping_path)?;
            println!("class: {}", m.signature());
            if let Ok(Ok((answer, procedure))) = ctx.abscons(&m, BUDGET) {
                println!("{}", procedure.detail(&answer));
                Ok(answer.holds())
            } else {
                match xmlmap::core::bounded::abscons_violation_bounded(&m, 3, 4) {
                    xmlmap::core::BoundedOutcome::Witness(w) => {
                        println!(
                            "NOT absolutely consistent: {}-node source has no solution",
                            w.size()
                        );
                        Ok(false)
                    }
                    xmlmap::core::BoundedOutcome::ExhaustedBounds => {
                        println!("holds up to the search bounds (general problem: Thm 6.2)");
                        Ok(true)
                    }
                }
            }
        }
        ["subschema", d1_path, d2_path] => {
            let d1 = xmlmap::dtd::parse(&read(d1_path)?).map_err(|e| e.to_string())?;
            let d2 = xmlmap::dtd::parse(&read(d2_path)?).map_err(|e| e.to_string())?;
            match ctx.subschema(&d1, &d2, BUDGET).map_err(|e| e.to_string())? {
                None => {
                    println!("subschema: every {d1_path} document conforms to {d2_path}");
                    Ok(true)
                }
                Some(xmlmap::automata::SubschemaViolation::Document(t)) => {
                    println!("NOT a subschema; counterexample document:");
                    print!("{}", xmlmap::trees::xml::to_string(&t));
                    Ok(false)
                }
                Some(xmlmap::automata::SubschemaViolation::AttributeMismatch {
                    label,
                    left,
                    right,
                }) => {
                    println!(
                        "NOT a subschema: element {label} has attributes {left:?} vs {right:?}"
                    );
                    Ok(false)
                }
            }
        }
        ["compose", m12_path, m23_path] => {
            let m12 = load_mapping(m12_path)?;
            let m23 = load_mapping(m23_path)?;
            let s12 = SkolemMapping::from_mapping(&m12)?;
            let s23 = SkolemMapping::from_mapping(&m23)?;
            let s13 = compose(&s12, &s23).map_err(|e| e.to_string())?;
            println!("# composed mapping ({} stds)", s13.stds.len());
            for s in &s13.stds {
                println!("{s}");
            }
            Ok(true)
        }
        _ => Err("usage: xmlmap <validate|match|check|chase|delta|certain|consistent|abscons|compose|subschema|stream|batch|serve|client> …\n\
                  see `xmlmap` module docs for argument lists"
            .to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
