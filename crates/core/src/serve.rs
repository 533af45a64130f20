//! `xmlmap serve` — a long-lived daemon over one shared [`EngineContext`].
//!
//! The batch driver (`core::batch`) proves that a shared context wins
//! ~13x over a fresh context per job, but a `batch` process still dies
//! after one jobfile and throws its warm caches away. This module keeps
//! the context alive: a [`serve`] loop accepts connections on a unix
//! socket (or a TCP address), reads length-delimited requests, dispatches
//! them to a fixed worker pool, and writes JSON responses. Requests reuse
//! the *jobfile grammar* — one job line per request — so anything a
//! jobfile can ask, a client can ask interactively.
//!
//! ## Wire format
//!
//! Both directions are length-delimited frames
//! ([`xmlmap_codec::frame`]): a 4-byte little-endian payload length, then
//! the payload. A **request** payload is an `xmlmap-codec` record:
//!
//! ```text
//! magic "XMRQ" · u64 id · u64 deadline_ms · str command
//! ```
//!
//! where `command` is one job line (`consistent m.map`, `member m.map
//! s.xml t.xml`, …) resolved against the server's root directory, or one
//! of the service commands `STATS` (counter snapshot) and `PING [ms]`
//! (health probe, optionally delayed — useful for latency testing and
//! for deterministic queue-wait tests). `deadline_ms` of 0 means "use
//! the server default"; ids are chosen by the client (use ids ≥ 1; the
//! server reserves id 0 for protocol errors) and echoed back verbatim,
//! so clients may pipeline requests and match responses out of order.
//!
//! A **response** payload is one JSON object:
//!
//! ```text
//! {"id":7,"ok":true,"yes":true,"detail":"consistent (…)",
//!  "elapsed_us":412,"compiled":1,"disk_loaded":0}
//! {"id":8,"ok":false,"error":"state budget exceeded …","elapsed_us":93}
//! {"id":9,"ok":true,"stats":{…},"elapsed_us":2}
//! ```
//!
//! `compiled`/`disk_loaded` count the artifacts this request's own
//! engine lookups compiled or loaded from the artifact store. The tally
//! is per thread (a request runs on one worker, and a fill counts only on
//! the thread that ran it), so it is exact under any concurrency: a warm
//! answer reports `"compiled":0` however many cold requests compile
//! beside it. Every payload, error replies included, comes from one
//! writer, `Response::to_json`, which [`Response::parse`] inverts.
//!
//! ## Semantics
//!
//! * **Backpressure** — requests flow through a bounded queue; when the
//!   pool falls behind, connection readers block on the queue, socket
//!   buffers fill, and clients stall at `write` — no unbounded buffering
//!   anywhere in the daemon.
//! * **Deadlines** — a per-request wall-clock deadline (request field,
//!   else the server's `--deadline-ms`) is enforced on top of the
//!   engines' own step budgets: expired-in-queue requests fail without
//!   running, and a request whose execution overruns its deadline gets a
//!   budget-style error response — except `DELTA OPEN`/`APPLY`/`CLOSE`,
//!   which by then have committed their session change and report their
//!   real outcome. Deadline failures never poison the caches — artifacts
//!   compiled along the way stay valid (budget errors were already never
//!   cached).
//! * **Graceful drain** — when shutdown is requested (SIGTERM in the
//!   CLI, [`ShutdownHandle::raise`] in-process), the daemon stops
//!   accepting, stops reading new frames, finishes every request already
//!   read off a socket, writes those responses, flushes the shape caches
//!   to the artifact store, and returns an exit-0 summary.
//!
//! ## Delta sessions
//!
//! Beyond stateless job lines, the daemon holds named incremental-chase
//! sessions ([`crate::chase::delta`]) that live across requests:
//!
//! ```text
//! DELTA OPEN <name> <mapping> <doc>   open a session over doc
//! DELTA APPLY <name> <updatefile>     apply an update script incrementally
//! DELTA SOLUTION <name>               current reduced canonical solution
//! DELTA CLOSE <name>                  drop the session, tally its stats
//! ```
//!
//! Paths resolve against the server root exactly like job-line paths.
//! `SOLUTION` returns the reduced canonical solution serialized as XML in
//! the response detail, or a `yes:false` answer when the updated source
//! has no solution — the same verdict a from-scratch `xmlmap chase` of
//! the session's current document would produce. Each session guards its
//! state with its own lock, so applies to distinct sessions proceed in
//! parallel; sessions still open at shutdown are tallied into the engine
//! stats during the drain.
//!
//! See DESIGN.md §8.6 for the architecture discussion.

use crate::batch::{run_job, JobParser, JobResult};
use crate::chase::{parse_updates, IncrementalChase};
use crate::engine::{thread_fills, CacheCounters, EngineContext, EngineStats};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xmlmap_codec::frame::{self, ReadFrame};
use xmlmap_codec::{Decoder, Encoder};

/// Magic marker opening every request payload.
pub(crate) const REQUEST_MAGIC: [u8; 4] = *b"XMRQ";

/// Ceiling on the artificial `PING <ms>` delay, so a hostile client
/// cannot park a worker for minutes.
pub(crate) const MAX_PING_DELAY_MS: u64 = 10_000;

/// How long the daemon sleeps between accept polls and how long
/// connection readers wait before re-checking the shutdown flag. Bounds
/// shutdown latency; small enough to be invisible next to any engine
/// call.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Where a daemon listens, or a client connects.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A unix-domain socket at this path (the default transport).
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address, `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// Parses a CLI endpoint spec: a socket path, or `host:port` when
    /// `tcp` is set. On platforms without unix sockets only `--tcp`
    /// endpoints are accepted.
    pub fn parse(spec: &str, tcp: bool) -> Result<Endpoint, String> {
        if tcp {
            return Ok(Endpoint::Tcp(spec.to_string()));
        }
        #[cfg(unix)]
        {
            Ok(Endpoint::Unix(PathBuf::from(spec)))
        }
        #[cfg(not(unix))]
        {
            Err("unix sockets are unavailable on this platform; use --tcp host:port".to_string())
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Configuration for one [`serve`] loop.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing requests (≥ 1).
    pub workers: usize,
    /// Default per-request deadline in milliseconds; 0 = none.
    pub deadline_ms: u64,
    /// Bound of the request queue between connection readers and the
    /// pool; 0 derives `max(32, workers * 8)`.
    pub queue_depth: usize,
    /// Directory job-line paths resolve against.
    pub root: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: crate::batch::default_workers(),
            deadline_ms: 0,
            queue_depth: 0,
            root: PathBuf::from("."),
        }
    }
}

/// A cloneable flag that asks a running [`serve`] loop to drain and
/// exit. Raising it is a single atomic store, safe to do from a signal
/// handler.
#[derive(Clone, Default)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// A fresh, unraised handle.
    pub fn new() -> ShutdownHandle {
        ShutdownHandle::default()
    }

    /// Requests shutdown (idempotent).
    pub fn raise(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    pub(crate) fn is_raised(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// What one [`serve`] run did, reported after a clean drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed requests dispatched to the pool.
    pub requests: u64,
    /// Error responses written (malformed frames, parse failures, budget
    /// and deadline errors).
    pub failed: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} connection(s), {} request(s), {} error response(s)",
            self.connections, self.requests, self.failed
        )
    }
}

/// Shared atomic tallies behind a [`ServeSummary`].
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    failed: AtomicU64,
}

impl Counters {
    fn summary(&self) -> ServeSummary {
        ServeSummary {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// Encodes one request payload (the client side of the wire format).
pub fn encode_request(id: u64, deadline_ms: u64, command: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.magic(&REQUEST_MAGIC);
    e.u64(id);
    e.u64(deadline_ms);
    e.str(command);
    e.finish()
}

/// Decodes one request payload into `(id, deadline_ms, command)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, u64, String), String> {
    let mut d = Decoder::new(payload);
    match d.take_magic() {
        Some(m) if m == REQUEST_MAGIC => {}
        _ => return Err("bad request magic".to_string()),
    }
    let id = d.u64().map_err(|e| e.to_string())?;
    let deadline_ms = d.u64().map_err(|e| e.to_string())?;
    let command = d.str().map_err(|e| e.to_string())?;
    d.expect_end().map_err(|e| e.to_string())?;
    Ok((id, deadline_ms, command))
}

// ---- JSON emission --------------------------------------------------------

/// Escapes `s` for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn counters_json(c: &CacheCounters) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"compiled\":{},\"disk_hits\":{},\
         \"disk_errors\":{},\"evictions\":{},\"bytes\":{},\"entries\":{},\
         \"compile_ns\":{}}}",
        c.hits,
        c.misses,
        c.compiled(),
        c.disk_hits,
        c.disk_errors,
        c.evictions,
        c.bytes,
        c.entries,
        c.compile_time.as_nanos()
    )
}

/// Renders an [`EngineStats`] snapshot (plus server tallies) as the JSON
/// object the `STATS` request returns. The key CI and warm-restart
/// checks grep for is `"total_compiled"`.
pub(crate) fn stats_json(stats: &EngineStats, requests: u64, connections: u64) -> String {
    let mut fields = Vec::new();
    for (key, _, counters) in stats.families() {
        fields.push(format!("\"{key}\":{}", counters_json(&counters)));
        // The streaming and delta tallies follow the family they count.
        match key {
            "stream_chase" => fields.push(format!(
                "\"stream_jobs\":{},\"stream_peak_depth\":{},\
                 \"stream_firings\":{},\"stream_live_peak\":{}",
                stats.stream_jobs,
                stats.stream_peak_depth,
                stats.stream_firings,
                stats.stream_live_peak
            )),
            "delta" => fields.push(format!(
                "\"delta_sessions\":{},\"delta_updates\":{},\
                 \"delta_refires\":{},\"delta_skips\":{}",
                stats.delta_sessions, stats.delta_updates, stats.delta_refires, stats.delta_skips
            )),
            _ => {}
        }
    }
    let budget = match stats.memory_budget {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    fields.push(format!(
        "\"memory_budget\":{budget},\"total_bytes\":{},\"total_compiled\":{},\
         \"total_disk_hits\":{},\"requests\":{requests},\"connections\":{connections}",
        stats.total_bytes(),
        stats.total_compiled(),
        stats.total_disk_hits(),
    ));
    format!("{{{}}}", fields.join(","))
}

// ---- listener / stream abstraction ----------------------------------------

type BoxedRead = Box<dyn Read + Send>;
type BoxedWrite = Box<dyn Write + Send>;

enum AnyListener {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl AnyListener {
    fn bind(endpoint: &Endpoint) -> io::Result<AnyListener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                use std::os::unix::net::{UnixListener, UnixStream};
                match UnixListener::bind(path) {
                    Ok(l) => Ok(AnyListener::Unix(l)),
                    Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                        // A live daemon answers a connect; a stale socket
                        // file (crashed predecessor) refuses it and is
                        // safe to replace.
                        if UnixStream::connect(path).is_ok() {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("{} is already being served", path.display()),
                            ));
                        }
                        std::fs::remove_file(path)?;
                        Ok(AnyListener::Unix(UnixListener::bind(path)?))
                    }
                    Err(e) => Err(e),
                }
            }
            Endpoint::Tcp(addr) => Ok(AnyListener::Tcp(std::net::TcpListener::bind(addr)?)),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            AnyListener::Unix(l) => l.set_nonblocking(true),
            AnyListener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    /// One accept poll: `Ok(None)` when no connection is pending. The
    /// returned reader carries a [`POLL_INTERVAL`] read timeout so the
    /// connection loop can watch the shutdown flag between frames.
    fn accept(&self) -> io::Result<Option<(BoxedRead, BoxedWrite)>> {
        match self {
            #[cfg(unix)]
            AnyListener::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(POLL_INTERVAL))?;
                    let writer = stream.try_clone()?;
                    Ok(Some((Box::new(stream), Box::new(writer))))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            AnyListener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(POLL_INTERVAL))?;
                    let writer = stream.try_clone()?;
                    Ok(Some((Box::new(stream), Box::new(writer))))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// Per-connection shared state: the response writer, locked per frame so
/// workers can interleave responses for pipelined requests without
/// tearing frames.
struct Conn {
    writer: Mutex<BoxedWrite>,
}

impl Conn {
    fn write_frame(&self, payload: &[u8]) -> io::Result<()> {
        frame::write(&mut *self.writer.lock().unwrap(), payload)
    }
}

/// The daemon's table of named delta-chase sessions. The outer lock is
/// held only for lookup/insert/remove; each session's own lock
/// serializes its updates, so traffic on distinct sessions runs in
/// parallel across the worker pool.
type DeltaSessions = Mutex<HashMap<String, Arc<Mutex<IncrementalChase>>>>;

/// One dispatched request.
struct Request {
    id: u64,
    /// Resolved deadline instant (arrival + effective deadline_ms).
    deadline: Option<Instant>,
    /// The effective deadline in ms, for error messages.
    deadline_ms: u64,
    line: String,
    conn: Arc<Conn>,
}

/// What a verb that ran produced: a verdict, or the `STATS` object.
enum Reply {
    Verdict(JobResult),
    Stats(String),
}

/// What every worker shares: the engine context, the job-line parser,
/// the delta-session table and the server tallies.
struct Daemon<'a> {
    ctx: &'a EngineContext,
    parser: Mutex<JobParser>,
    sessions: DeltaSessions,
    counters: Counters,
}

// ---- the server -----------------------------------------------------------

/// Runs the daemon until `shutdown` is raised: accept loop, bounded
/// request queue, `cfg.workers` executor threads over the shared `ctx`.
/// Returns the drain summary; on return every request that was read off
/// a socket has been answered and (when a disk store is attached) the
/// shape caches have been flushed.
pub fn serve(
    endpoint: &Endpoint,
    ctx: &EngineContext,
    cfg: &ServeConfig,
    shutdown: &ShutdownHandle,
) -> io::Result<ServeSummary> {
    let listener = AnyListener::bind(endpoint)?;
    listener.set_nonblocking()?;
    let workers = cfg.workers.max(1);
    let depth = if cfg.queue_depth == 0 {
        (workers * 8).max(32)
    } else {
        cfg.queue_depth
    };
    let (tx, rx) = std::sync::mpsc::sync_channel::<Request>(depth);
    let rx = Mutex::new(rx);
    let daemon = Daemon {
        ctx,
        parser: Mutex::new(JobParser::new(&cfg.root)),
        sessions: Mutex::new(HashMap::new()),
        counters: Counters::default(),
    };

    let accept_result: io::Result<()> = std::thread::scope(|scope| {
        let rx = &rx;
        let daemon = &daemon;
        let counters = &daemon.counters;
        for _ in 0..workers {
            scope.spawn(move || daemon.worker_loop(rx));
        }
        let mut conns = Vec::new();
        let mut accept_err = None;
        while !shutdown.is_raised() {
            match listener.accept() {
                Ok(Some((reader, writer))) => {
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let conn = Arc::new(Conn {
                        writer: Mutex::new(writer),
                    });
                    let tx = tx.clone();
                    let default_deadline = cfg.deadline_ms;
                    conns.push(scope.spawn(move || {
                        conn_loop(reader, conn, tx, shutdown, counters, default_deadline)
                    }));
                }
                Ok(None) => std::thread::sleep(POLL_INTERVAL),
                Err(e) => {
                    accept_err = Some(e);
                    shutdown.raise();
                }
            }
            conns.retain(|h| !h.is_finished());
        }
        // Drain: connection readers notice the flag within one poll
        // interval and stop submitting; everything already queued is
        // executed once the main sender drops and the workers run the
        // queue dry.
        for handle in conns {
            let _ = handle.join();
        }
        drop(tx);
        match accept_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    });
    // Sessions never explicitly closed still count: tally them now, while
    // the workers are gone and every lock is free.
    for (_, session) in daemon.sessions.into_inner().unwrap() {
        ctx.record_delta(session.lock().unwrap().stats());
    }
    ctx.flush_disk_cache();
    #[cfg(unix)]
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    accept_result?;
    Ok(daemon.counters.summary())
}

/// Reads frames off one connection until EOF, an unrecoverable framing
/// error, or shutdown. Malformed *payloads* get an id-0 error response
/// and the connection lives on (the length prefix kept the stream
/// synchronized); malformed *framing* closes the connection.
fn conn_loop(
    mut reader: BoxedRead,
    conn: Arc<Conn>,
    tx: SyncSender<Request>,
    shutdown: &ShutdownHandle,
    counters: &Counters,
    default_deadline_ms: u64,
) {
    loop {
        if shutdown.is_raised() {
            return;
        }
        match frame::read(&mut reader, frame::MAX_FRAME) {
            Ok(ReadFrame::Idle) => continue,
            Ok(ReadFrame::Eof) | Err(_) => return,
            Ok(ReadFrame::Frame(payload)) => match decode_request(&payload) {
                Ok((id, requested_ms, line)) => {
                    let deadline_ms = if requested_ms > 0 {
                        requested_ms
                    } else {
                        default_deadline_ms
                    };
                    let deadline = if deadline_ms > 0 {
                        Instant::now().checked_add(Duration::from_millis(deadline_ms))
                    } else {
                        None
                    };
                    counters.requests.fetch_add(1, Ordering::Relaxed);
                    let request = Request {
                        id,
                        deadline,
                        deadline_ms,
                        line,
                        conn: conn.clone(),
                    };
                    // Blocks when the queue is full: backpressure all the
                    // way to the client. Send only fails after the
                    // workers are gone, i.e. during teardown.
                    if tx.send(request).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    let error = format!("malformed request frame: {e}");
                    let json = Response::new(0, Err(error)).to_json();
                    if conn.write_frame(json.as_bytes()).is_err() {
                        return;
                    }
                }
            },
        }
    }
}

impl Daemon<'_> {
    /// Executes queued requests until the channel closes (drain complete).
    fn worker_loop(&self, rx: &Mutex<Receiver<Request>>) {
        loop {
            let request = match rx.lock().unwrap().recv() {
                Ok(r) => r,
                Err(_) => return,
            };
            let response = self.execute(&request);
            if matches!(response.result, JobResult::Failed { .. }) {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
            let _ = request.conn.write_frame(response.to_json().as_bytes());
        }
    }

    /// Runs one request to its response. The deadline is checked twice:
    /// a request that expired in the queue never runs, and one that
    /// overran answers a deadline error instead of its outcome — unless it
    /// committed a session change, which stands and is reported.
    fn execute(&self, request: &Request) -> Response {
        let start = Instant::now();
        let (compiled, disk_loaded) = thread_fills();
        let expired = |when: &str| {
            let late = request.deadline.is_some_and(|d| Instant::now() > d);
            late.then(|| {
                format!(
                    "request deadline of {}ms exceeded {when}",
                    request.deadline_ms
                )
            })
        };
        let line = request.line.trim();
        let outcome = match expired("before execution") {
            Some(error) => Err(error),
            None => {
                let outcome = self.run(line);
                match expired("during execution") {
                    Some(error) if !commits_session(line) => Err(error),
                    _ => outcome,
                }
            }
        };
        let fills = thread_fills();
        Response {
            elapsed_us: start.elapsed().as_micros().try_into().unwrap_or(u64::MAX),
            compiled: fills.0 - compiled,
            disk_loaded: fills.1 - disk_loaded,
            ..Response::new(request.id, outcome)
        }
    }

    /// Runs one verb: `STATS`, `PING [ms]`, a `DELTA` session verb, or a
    /// job line.
    fn run(&self, line: &str) -> Result<Reply, String> {
        if line == "STATS" {
            return Ok(Reply::Stats(stats_json(
                &self.ctx.stats(),
                self.counters.requests.load(Ordering::Relaxed),
                self.counters.connections.load(Ordering::Relaxed),
            )));
        }
        let verdict = if let Some(delay) = line.strip_prefix("PING") {
            ping(delay.trim())?
        } else if let Some(fields) = delta_fields(line) {
            self.delta(&fields)?
        } else {
            let job = self.parser.lock().unwrap().parse(line)?;
            run_job(self.ctx, &job)
        };
        Ok(Reply::Verdict(verdict))
    }

    /// Runs one `DELTA` session verb (`fields` follow the `DELTA`).
    /// Session-not-found, duplicate-open, and update-script failures are
    /// errors; a chase failure on `SOLUTION` is a `yes:false` *answer*,
    /// matching the batch driver's verdict shape for chase jobs.
    fn delta(&self, fields: &[&str]) -> Result<JobResult, String> {
        let no_session =
            |name: &str| format!("no delta session named `{name}` (open one with DELTA OPEN)");
        let session_of = |name: &str| {
            let table = self.sessions.lock().unwrap();
            table.get(name).cloned().ok_or_else(|| no_session(name))
        };
        let already_open =
            |name: &str| format!("delta session `{name}` is already open (DELTA CLOSE it first)");
        let detail = match fields {
            ["OPEN", name, map, doc] => {
                if self.sessions.lock().unwrap().contains_key(*name) {
                    return Err(already_open(name));
                }
                let (mapping, source) = {
                    let mut parser = self.parser.lock().unwrap();
                    let mapping = parser.load_mapping(map)?;
                    let source = parser.load_tree(doc, &mapping.source_dtd)?;
                    (mapping, source)
                };
                let session = self.ctx.delta_session(&mapping, source);
                let detail = format!(
                    "opened `{name}` ({} std(s), {}conforming source)",
                    mapping.stds.len(),
                    if session.source_conforms() {
                        ""
                    } else {
                        "non-"
                    }
                );
                let mut table = self.sessions.lock().unwrap();
                if table.contains_key(*name) {
                    return Err(already_open(name));
                }
                table.insert(name.to_string(), Arc::new(Mutex::new(session)));
                detail
            }
            ["APPLY", name, updatefile] => {
                let session = session_of(name)?;
                let script = self.parser.lock().unwrap().read_file(updatefile)?;
                let updates = parse_updates(&script).map_err(|e| format!("{updatefile}: {e}"))?;
                let mut session = session.lock().unwrap();
                let before = session.stats();
                let applied = session
                    .apply_all(&updates)
                    .map_err(|e| format!("delta session `{name}`: {e}"))?;
                let after = session.stats();
                format!(
                    "applied {applied} update(s) ({} refire(s), {} skip(s), {} replay(s))",
                    after.refires - before.refires,
                    after.skips - before.skips,
                    after.replays - before.replays
                )
            }
            ["SOLUTION", name] => {
                let session = session_of(name)?;
                let mut session = session.lock().unwrap();
                return Ok(match session.canonical_solution() {
                    Ok(solution) => {
                        let reduced =
                            crate::exchange::reduce_solution(session.mapping(), &solution);
                        JobResult::Answer {
                            yes: true,
                            detail: xmlmap_trees::xml::to_string(&reduced),
                        }
                    }
                    Err(e) => JobResult::Answer {
                        yes: false,
                        detail: format!("no solution: {e}"),
                    },
                });
            }
            ["CLOSE", name] => {
                let session = self.sessions.lock().unwrap().remove(*name);
                let stats = session
                    .ok_or_else(|| no_session(name))?
                    .lock()
                    .unwrap()
                    .stats();
                self.ctx.record_delta(stats);
                format!("closed `{name}` after {} update(s)", stats.updates)
            }
            _ => {
                return Err("bad DELTA request: expected OPEN <name> <mapping> <doc>, \
                            APPLY <name> <updatefile>, SOLUTION <name>, or CLOSE <name>"
                    .to_string())
            }
        };
        Ok(JobResult::Answer { yes: true, detail })
    }
}

/// `PING [ms]`: answers `pong` after the optional (capped) delay.
fn ping(delay: &str) -> Result<JobResult, String> {
    if !delay.is_empty() {
        let ms = delay
            .parse::<u64>()
            .map_err(|_| format!("PING delay `{delay}` is not a number"))?;
        std::thread::sleep(Duration::from_millis(ms.min(MAX_PING_DELAY_MS)));
    }
    Ok(JobResult::Answer {
        yes: true,
        detail: "pong".to_string(),
    })
}

/// The fields after `DELTA` when `line` is a session verb.
fn delta_fields(line: &str) -> Option<Vec<&str>> {
    (line == "DELTA" || line.starts_with("DELTA "))
        .then(|| line.split_whitespace().skip(1).collect())
}

/// Whether `line` is a session verb that changes daemon state when it
/// runs: its outcome is reported even past the deadline, since a client
/// told "deadline exceeded" would retry a change that already happened.
fn commits_session(line: &str) -> bool {
    delta_fields(line)
        .is_some_and(|fields| matches!(fields.first(), Some(&("OPEN" | "APPLY" | "CLOSE"))))
}

// ---- a minimal JSON reader for the daemon's own responses -----------------

/// A parsed flat JSON value. Nested objects are kept as raw text — the
/// only nested object the protocol emits is the `STATS` payload, which
/// clients pass through verbatim.
#[derive(Clone, Debug, PartialEq)]
enum JsonValue {
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
    Object(String),
}

/// Parses one of the daemon's own JSON response objects. Not a general
/// JSON parser — exactly the subset [`Response::to_json`] writes (flat
/// objects, string/number/bool/null values, one level of nesting kept
/// raw).
fn parse_flat_json(text: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    };
    let expect = |pos: &mut usize, b: u8| -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, *pos))
        }
    };
    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            *pos += 4;
                        }
                        _ => return Err("unknown escape".to_string()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = text_tail(bytes, *pos);
                    let c = s.chars().next().ok_or("invalid UTF-8")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
    fn text_tail(bytes: &[u8], pos: usize) -> &str {
        std::str::from_utf8(&bytes[pos..]).unwrap_or("")
    }
    fn parse_raw_object(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        let start = *pos;
        let mut depth = 0usize;
        let mut in_string = false;
        while *pos < bytes.len() {
            let b = bytes[*pos];
            if in_string {
                match b {
                    b'\\' => *pos += 1,
                    b'"' => in_string = false,
                    _ => {}
                }
            } else {
                match b {
                    b'"' => in_string = true,
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            *pos += 1;
                            return Ok(String::from_utf8_lossy(&bytes[start..*pos]).into_owned());
                        }
                    }
                    _ => {}
                }
            }
            *pos += 1;
        }
        Err("unterminated object".to_string())
    }
    skip_ws(&mut pos);
    expect(&mut pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        return Ok(fields);
    }
    loop {
        skip_ws(&mut pos);
        let key = parse_string(bytes, &mut pos)?;
        skip_ws(&mut pos);
        expect(&mut pos, b':')?;
        skip_ws(&mut pos);
        let value = match bytes.get(pos) {
            Some(b'"') => JsonValue::Str(parse_string(bytes, &mut pos)?),
            Some(b'{') => JsonValue::Object(parse_raw_object(bytes, &mut pos)?),
            Some(b't') if bytes[pos..].starts_with(b"true") => {
                pos += 4;
                JsonValue::Bool(true)
            }
            Some(b'f') if bytes[pos..].starts_with(b"false") => {
                pos += 5;
                JsonValue::Bool(false)
            }
            Some(b'n') if bytes[pos..].starts_with(b"null") => {
                pos += 4;
                JsonValue::Null
            }
            Some(c) if c.is_ascii_digit() => {
                let start = pos;
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    pos += 1;
                }
                let n = std::str::from_utf8(&bytes[start..pos])
                    .unwrap()
                    .parse::<u64>()
                    .map_err(|_| "number overflows u64".to_string())?;
                JsonValue::Num(n)
            }
            _ => return Err(format!("unexpected value at byte {pos}")),
        };
        fields.push((key, value));
        skip_ws(&mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok(fields),
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

// ---- the client -----------------------------------------------------------

/// One decoded daemon response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The echoed request id (0 for protocol errors).
    pub id: u64,
    /// The verdict, in the same shape the batch driver uses — so client
    /// front ends can reuse [`crate::batch::render_results`].
    pub result: JobResult,
    /// Server-side wall-clock for the request, microseconds.
    pub elapsed_us: u64,
    /// Compilations this request's own engine lookups ran.
    pub compiled: u64,
    /// Artifact-store loads this request's own engine lookups ran.
    pub disk_loaded: u64,
    /// The raw stats object, for `STATS` responses (which carry it in
    /// place of a verdict).
    pub stats: Option<String>,
    /// The raw response text, as [`Response::parse`] read it; the writer
    /// never reads it.
    pub raw: String,
}

impl Response {
    /// The response to request `id` carrying `outcome`, before timing and
    /// provenance are filled in. An `Err` is an `ok:false` reply.
    fn new(id: u64, outcome: Result<Reply, String>) -> Response {
        let (result, stats) = match outcome {
            Ok(Reply::Verdict(result)) => (result, None),
            // A stats reply has no verdict; this is what `parse` reads
            // back for one.
            Ok(Reply::Stats(stats)) => (
                JobResult::Answer {
                    yes: false,
                    detail: "ok".to_string(),
                },
                Some(stats),
            ),
            Err(error) => (JobResult::Failed { error }, None),
        };
        Response {
            id,
            result,
            elapsed_us: 0,
            compiled: 0,
            disk_loaded: 0,
            stats,
            raw: String::new(),
        }
    }

    /// Writes the response payload — the one JSON writer of the protocol,
    /// and the inverse of [`Response::parse`]: a `stats` response carries
    /// the stats object, an answer its verdict and cache provenance, an
    /// error its message. `raw` is not written.
    pub(crate) fn to_json(&self) -> String {
        let ok = self.stats.is_some() || matches!(self.result, JobResult::Answer { .. });
        let body = match (&self.stats, &self.result) {
            (Some(stats), _) => format!("\"stats\":{stats},\"elapsed_us\":{}", self.elapsed_us),
            (None, JobResult::Answer { yes, detail }) => format!(
                "\"yes\":{yes},\"detail\":\"{}\",\"elapsed_us\":{},\
                 \"compiled\":{},\"disk_loaded\":{}",
                json_escape(detail),
                self.elapsed_us,
                self.compiled,
                self.disk_loaded
            ),
            (None, JobResult::Failed { error }) => format!(
                "\"error\":\"{}\",\"elapsed_us\":{}",
                json_escape(error),
                self.elapsed_us
            ),
        };
        format!("{{\"id\":{},\"ok\":{ok},{body}}}", self.id)
    }

    /// Decodes one response payload.
    pub fn parse(payload: &[u8]) -> io::Result<Response> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
        let fields = parse_flat_json(text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}"))
        })?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let num = |k: &str| match get(k) {
            Some(JsonValue::Num(n)) => *n,
            _ => 0,
        };
        let ok = matches!(get("ok"), Some(JsonValue::Bool(true)));
        let result = if ok {
            let detail = match get("detail") {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => "ok".to_string(),
            };
            let yes = matches!(get("yes"), Some(JsonValue::Bool(true)));
            JobResult::Answer { yes, detail }
        } else {
            let error = match get("error") {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => "unspecified server error".to_string(),
            };
            JobResult::Failed { error }
        };
        let stats = match get("stats") {
            Some(JsonValue::Object(raw)) => Some(raw.clone()),
            _ => None,
        };
        Ok(Response {
            id: num("id"),
            result,
            elapsed_us: num("elapsed_us"),
            compiled: num("compiled"),
            disk_loaded: num("disk_loaded"),
            stats,
            raw: text.to_string(),
        })
    }
}

/// A blocking client for the serve protocol: connect, pipeline job
/// lines, collect responses. Used by `xmlmap client` and the end-to-end
/// tests.
pub struct ServeClient {
    reader: BoxedRead,
    writer: BoxedWrite,
    next_id: u64,
}

impl ServeClient {
    /// Connects to a running daemon.
    pub fn connect(endpoint: &Endpoint) -> io::Result<ServeClient> {
        let (reader, writer): (BoxedRead, BoxedWrite) = match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path)?;
                let writer = stream.try_clone()?;
                (Box::new(stream), Box::new(writer))
            }
            Endpoint::Tcp(addr) => {
                let stream = std::net::TcpStream::connect(addr)?;
                let writer = stream.try_clone()?;
                (Box::new(stream), Box::new(writer))
            }
        };
        Ok(ServeClient {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// [`ServeClient::connect`], retried for up to `patience` — for
    /// drivers that start the daemon themselves and race its bind.
    pub fn connect_with_retry(endpoint: &Endpoint, patience: Duration) -> io::Result<ServeClient> {
        let deadline = Instant::now() + patience;
        loop {
            match ServeClient::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    /// Sends one command without waiting for the response; returns the
    /// assigned request id. `deadline_ms` of 0 uses the server default.
    pub fn send(&mut self, command: &str, deadline_ms: u64) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        frame::write(&mut self.writer, &encode_request(id, deadline_ms, command))?;
        Ok(id)
    }

    /// Receives the next response (any request id).
    pub fn recv(&mut self) -> io::Result<Response> {
        match frame::read(&mut self.reader, frame::MAX_FRAME)? {
            ReadFrame::Frame(payload) => Response::parse(&payload),
            ReadFrame::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            ReadFrame::Idle => unreachable!("client streams have no read timeout"),
        }
    }

    /// Sends one command and waits for its response.
    pub fn roundtrip(&mut self, command: &str, deadline_ms: u64) -> io::Result<Response> {
        let id = self.send(command, deadline_ms)?;
        let response = self.recv()?;
        if response.id != id && response.id != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for request {id}", response.id),
            ));
        }
        Ok(response)
    }

    /// Fetches the daemon's `STATS` snapshot (raw JSON).
    pub fn stats(&mut self) -> io::Result<String> {
        let response = self.roundtrip("STATS", 0)?;
        response.stats.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "STATS response without stats")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_payloads_round_trip() {
        let payload = encode_request(42, 250, "consistent copy.map");
        let (id, deadline_ms, line) = decode_request(&payload).unwrap();
        assert_eq!(
            (id, deadline_ms, line.as_str()),
            (42, 250, "consistent copy.map")
        );
        assert!(decode_request(b"junk").is_err());
        let mut trailing = encode_request(1, 0, "STATS");
        trailing.push(0);
        assert!(decode_request(&trailing).is_err());
    }

    #[test]
    fn responses_parse_back_including_escapes_and_stats() {
        // Every reply shape the daemon writes, pinned byte for byte with
        // `elapsed_us` fixed, and read back field for field by `parse`.
        let tricky = "NOT a \"sub\"schema\n\ttab \\ back\r\u{1}\u{1f} café ∘ 🦀";
        let escaped = r#"NOT a \"sub\"schema\n\ttab \\ back\r\u0001\u001f café ∘ 🦀"#;
        let stats = stats_json(&EngineStats::default(), 3, 1);
        let timed = |mut r: Response| {
            r.elapsed_us = 12;
            r
        };
        let verdict = |yes, detail: &str| {
            Ok(Reply::Verdict(JobResult::Answer {
                yes,
                detail: detail.to_string(),
            }))
        };
        let cases = [
            (
                Response {
                    compiled: 1,
                    disk_loaded: 2,
                    ..timed(Response::new(7, verdict(false, tricky)))
                },
                format!(
                    "{{\"id\":7,\"ok\":true,\"yes\":false,\"detail\":\"{escaped}\",\
                     \"elapsed_us\":12,\"compiled\":1,\"disk_loaded\":2}}"
                ),
            ),
            (
                timed(Response::new(8, verdict(true, "pong"))),
                "{\"id\":8,\"ok\":true,\"yes\":true,\"detail\":\"pong\",\"elapsed_us\":12,\
                 \"compiled\":0,\"disk_loaded\":0}"
                    .to_string(),
            ),
            (
                timed(Response::new(
                    3,
                    Ok(Reply::Verdict(JobResult::Failed {
                        error: tricky.to_string(),
                    })),
                )),
                format!("{{\"id\":3,\"ok\":false,\"error\":\"{escaped}\",\"elapsed_us\":12}}"),
            ),
            (
                timed(Response::new(9, Ok(Reply::Stats(stats.clone())))),
                format!("{{\"id\":9,\"ok\":true,\"stats\":{stats},\"elapsed_us\":12}}"),
            ),
            (
                timed(Response::new(
                    4,
                    Err("request deadline of 50ms exceeded before execution".to_string()),
                )),
                "{\"id\":4,\"ok\":false,\"error\":\"request deadline of 50ms exceeded \
                 before execution\",\"elapsed_us\":12}"
                    .to_string(),
            ),
            (
                Response::new(0, Err(format!("malformed request frame: {tricky}"))),
                format!(
                    "{{\"id\":0,\"ok\":false,\"error\":\"malformed request frame: {escaped}\",\
                     \"elapsed_us\":0}}"
                ),
            ),
        ];
        for (response, bytes) in cases {
            let json = response.to_json();
            assert_eq!(json, bytes);
            let back = Response::parse(json.as_bytes()).unwrap();
            assert_eq!(back.id, response.id);
            assert_eq!(back.result, response.result, "{json}");
            assert_eq!(back.elapsed_us, response.elapsed_us);
            assert_eq!(back.stats, response.stats);
            if json.contains("\"compiled\"") {
                assert_eq!(
                    (back.compiled, back.disk_loaded),
                    (response.compiled, response.disk_loaded)
                );
            }
            assert_eq!(back.raw, json);
        }
        assert!(stats.contains("\"total_compiled\":0"));
        assert!(stats.contains("\"stream_firings\":0"));
        assert!(stats.contains("\"stream_chase\":{"));
        assert!(stats.contains("\"delta\":{"));
        assert!(stats.contains("\"delta_sessions\":0"));
    }

    #[test]
    fn error_responses_become_failed_results() {
        let r = Response::parse(
            b"{\"id\":3,\"ok\":false,\"error\":\"state budget exceeded\",\"elapsed_us\":5}",
        )
        .unwrap();
        assert_eq!(
            r.result,
            JobResult::Failed {
                error: "state budget exceeded".to_string()
            }
        );
    }
}
