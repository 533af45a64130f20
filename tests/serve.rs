//! End-to-end tests for the `xmlmap serve` daemon, driven in-process
//! through the library API (`core::serve`): correctness under concurrent
//! clients, per-request deadlines, malformed-frame recovery, graceful
//! drain, and warm-restart cache provenance.
#![cfg(unix)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xmlmap::core::{
    parse_jobfile, render_batch, render_results, run_batch, serve, Endpoint, EngineContext,
    JobResult, ServeClient, ServeConfig, ServeSummary, ShutdownHandle,
};

const COPY_MAP: &str = "[source]\nroot r\nr -> a*\na @ v\n\
                        [target]\nroot r\nr -> b*\nb @ w\n\
                        [stds]\nr/a(x) --> r/b(x)\n";

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlmap-serve-{name}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let fx = Fixture { dir };
        fx.file("copy.map", COPY_MAP);
        fx.file("d.dtd", "root r\nr -> a*\na @ v");
        fx.file("src.xml", r#"<r><a v="1"/><a v="2"/></r>"#);
        fx.file("tgt.xml", r#"<r><b w="1"/><b w="2"/></r>"#);
        fx
    }

    fn file(&self, name: &str, contents: &str) {
        std::fs::write(self.dir.join(name), contents).unwrap();
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::parse(self.dir.join("sock").to_str().unwrap(), false).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Raises a shutdown handle when dropped.
struct RaiseOnDrop<'a>(&'a ShutdownHandle);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.raise();
    }
}

/// Runs `body` against a live in-process daemon, then drains it and
/// returns the summary.
fn with_server(
    fx: &Fixture,
    ctx: &EngineContext,
    configure: impl FnOnce(&mut ServeConfig),
    body: impl FnOnce(&Endpoint, &ShutdownHandle),
) -> ServeSummary {
    let mut cfg = ServeConfig {
        root: fx.dir.clone(),
        ..ServeConfig::default()
    };
    configure(&mut cfg);
    let endpoint = fx.endpoint();
    let shutdown = ShutdownHandle::new();
    std::thread::scope(|scope| {
        let handle = {
            let endpoint = endpoint.clone();
            let shutdown = shutdown.clone();
            let cfg = &cfg;
            scope.spawn(move || serve(&endpoint, ctx, cfg, &shutdown))
        };
        {
            // Raised on unwind too, so a failing assertion in `body`
            // fails the test instead of leaving the daemon running.
            let _stop = RaiseOnDrop(&shutdown);
            body(&endpoint, &shutdown);
        }
        handle.join().expect("server thread").expect("serve result")
    })
}

fn connect(endpoint: &Endpoint) -> ServeClient {
    ServeClient::connect_with_retry(endpoint, Duration::from_secs(10)).expect("daemon reachable")
}

const JOBFILE: &str = "member copy.map src.xml tgt.xml\n\
                       consistent copy.map\n\
                       abscons copy.map\n\
                       subschema d.dtd d.dtd\n\
                       # comments and blanks are filtered on both paths\n\
                       \n\
                       consistent copy.map\n";

#[test]
fn round_trip_is_byte_equivalent_to_batch() {
    let fx = Fixture::new("roundtrip");
    // Reference rendering: the batch driver over a fresh context.
    let jobs = parse_jobfile(JOBFILE, &fx.dir).unwrap();
    let batch_ctx = EngineContext::new();
    let expected = render_batch(&jobs, &run_batch(&batch_ctx, &jobs, 1));

    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |_| {},
        |endpoint, _| {
            let mut client = connect(endpoint);
            let lines: Vec<&str> = JOBFILE
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            // Pipeline everything, then collect and reorder by id.
            for line in &lines {
                client.send(line, 0).unwrap();
            }
            let mut results: Vec<Option<JobResult>> = vec![None; lines.len()];
            for _ in 0..lines.len() {
                let response = client.recv().unwrap();
                let slot = &mut results[response.id as usize - 1];
                assert!(slot.is_none(), "duplicate response id {}", response.id);
                *slot = Some(response.result);
            }
            let labeled: Vec<(String, JobResult)> = lines
                .iter()
                .map(|l| l.to_string())
                .zip(results.into_iter().map(Option::unwrap))
                .collect();
            assert_eq!(render_results(&labeled), expected);
        },
    );
}

#[test]
fn concurrent_clients_get_correct_interleaved_responses() {
    let fx = Fixture::new("concurrent");
    let ctx = EngineContext::new();
    let summary = with_server(
        &fx,
        &ctx,
        |cfg| cfg.workers = 4,
        |endpoint, _| {
            std::thread::scope(|scope| {
                for client_no in 0..4 {
                    let endpoint = endpoint.clone();
                    scope.spawn(move || {
                        let mut client = connect(&endpoint);
                        // Distinct interleavings per client: a mix of
                        // yes-answers, no-answers, and service pings.
                        let lines: Vec<String> = (0..12)
                            .map(|i| match (client_no + i) % 4 {
                                0 => "consistent copy.map".to_string(),
                                1 => "member copy.map src.xml src.xml".to_string(),
                                2 => "subschema d.dtd d.dtd".to_string(),
                                _ => "PING".to_string(),
                            })
                            .collect();
                        for line in &lines {
                            client.send(line, 0).unwrap();
                        }
                        let mut seen = vec![false; lines.len()];
                        for _ in 0..lines.len() {
                            let response = client.recv().unwrap();
                            let idx = response.id as usize - 1;
                            assert!(!seen[idx], "duplicate id {}", response.id);
                            seen[idx] = true;
                            match response.result {
                                JobResult::Answer { yes, ref detail } => {
                                    match lines[idx].split_whitespace().next().unwrap() {
                                        "consistent" => {
                                            assert!(yes, "copy mapping is consistent")
                                        }
                                        "member" => {
                                            // A source document is not a
                                            // valid target document.
                                            assert!(!yes, "src.xml is not a solution")
                                        }
                                        "subschema" => assert!(yes && detail.contains("subschema")),
                                        "PING" => assert_eq!(detail, "pong"),
                                        other => panic!("unexpected op {other}"),
                                    }
                                }
                                JobResult::Failed { ref error } => {
                                    panic!("job `{}` failed: {error}", lines[idx])
                                }
                            }
                        }
                        assert!(seen.into_iter().all(|s| s));
                    });
                }
            });
        },
    );
    assert_eq!(summary.connections, 4);
    assert_eq!(summary.requests, 4 * 12);
    assert_eq!(summary.failed, 0);
}

#[test]
fn deadline_gives_budget_style_error_without_poisoning_caches() {
    let fx = Fixture::new("deadline");
    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |cfg| cfg.workers = 1,
        |endpoint, _| {
            let mut client = connect(endpoint);
            // One worker: the 400ms ping occupies it, so the consistency
            // probe's 50ms deadline expires while it waits in the queue.
            let ping_id = client.send("PING 400", 0).unwrap();
            let probe_id = client.send("consistent copy.map", 50).unwrap();
            let (mut ping_ok, mut probe_err) = (false, None);
            for _ in 0..2 {
                let response = client.recv().unwrap();
                if response.id == ping_id {
                    ping_ok = matches!(response.result, JobResult::Answer { yes: true, .. });
                } else {
                    assert_eq!(response.id, probe_id);
                    match response.result {
                        JobResult::Failed { error } => probe_err = Some(error),
                        other => panic!("expected a deadline error, got {other:?}"),
                    }
                }
            }
            assert!(ping_ok, "the slow ping itself succeeds");
            let error = probe_err.expect("probe response arrived");
            assert!(
                error.contains("deadline of 50ms exceeded"),
                "budget-style deadline error, got: {error}"
            );
            // The same request without a deadline now gets the real
            // answer — the failed attempt did not poison any cache.
            let retry = client.roundtrip("consistent copy.map", 0).unwrap();
            match retry.result {
                JobResult::Answer { yes, detail } => {
                    assert!(yes, "copy mapping is consistent: {detail}")
                }
                other => panic!("retry should succeed, got {other:?}"),
            }
        },
    );
}

#[test]
fn malformed_frames_get_error_responses_not_a_dropped_connection() {
    use xmlmap::codec::frame;

    let fx = Fixture::new("malformed");
    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |_| {},
        |endpoint, _| {
            let Endpoint::Unix(path) = endpoint.clone() else {
                panic!("unix endpoint expected")
            };
            let mut stream = loop {
                match std::os::unix::net::UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            };
            // A well-framed but garbage payload: error response, stream lives.
            let mut reader = stream.try_clone().unwrap();
            frame::write(&mut stream, b"not a request record").unwrap();
            let payload = match frame::read(&mut reader, frame::MAX_FRAME).unwrap() {
                frame::ReadFrame::Frame(p) => p,
                other => panic!("expected an error frame, got {other:?}"),
            };
            let response = xmlmap::core::Response::parse(&payload).unwrap();
            assert_eq!(response.id, 0, "protocol errors use the reserved id 0");
            match response.result {
                JobResult::Failed { error } => {
                    assert!(error.contains("malformed request frame"), "got: {error}")
                }
                other => panic!("expected an error, got {other:?}"),
            }
            // An unknown operation is a per-request error, same connection.
            let mut client_frame = xmlmap::core::serve::encode_request(9, 0, "frobnicate copy.map");
            frame::write(&mut stream, &client_frame).unwrap();
            let payload = match frame::read(&mut reader, frame::MAX_FRAME).unwrap() {
                frame::ReadFrame::Frame(p) => p,
                other => panic!("expected a frame, got {other:?}"),
            };
            let response = xmlmap::core::Response::parse(&payload).unwrap();
            assert_eq!(response.id, 9);
            assert!(matches!(response.result, JobResult::Failed { .. }));
            // And the connection still answers real work afterwards.
            client_frame = xmlmap::core::serve::encode_request(10, 0, "consistent copy.map");
            frame::write(&mut stream, &client_frame).unwrap();
            let payload = match frame::read(&mut reader, frame::MAX_FRAME).unwrap() {
                frame::ReadFrame::Frame(p) => p,
                other => panic!("expected a frame, got {other:?}"),
            };
            let response = xmlmap::core::Response::parse(&payload).unwrap();
            assert_eq!(response.id, 10);
            assert!(matches!(
                response.result,
                JobResult::Answer { yes: true, .. }
            ));
        },
    );
}

#[test]
fn shutdown_mid_request_drains_in_flight_work() {
    let fx = Fixture::new("drain");
    let ctx = EngineContext::new();
    let endpoint = fx.endpoint();
    let summary = with_server(
        &fx,
        &ctx,
        |cfg| cfg.workers = 2,
        |_, shutdown| {
            let mut client = connect(&endpoint);
            // Six slow pings: two run, four queue. Shutdown arrives while
            // all six are in flight; every one must still be answered.
            for _ in 0..6 {
                client.send("PING 150", 0).unwrap();
            }
            std::thread::sleep(Duration::from_millis(60));
            shutdown.raise();
            let mut answered = 0;
            for _ in 0..6 {
                let response = client.recv().unwrap();
                match response.result {
                    JobResult::Answer {
                        yes: true,
                        ref detail,
                    } if detail == "pong" => answered += 1,
                    other => panic!("expected pong, got {other:?}"),
                }
            }
            assert_eq!(answered, 6, "drain answers every accepted request");
        },
    );
    assert_eq!(summary.requests, 6);
    assert_eq!(summary.failed, 0);
    let Endpoint::Unix(path) = fx.endpoint() else {
        panic!()
    };
    assert!(!path.exists(), "socket file removed after drain");
}

#[test]
fn delta_sessions_live_across_requests_and_match_a_full_chase() {
    use xmlmap::core::{canonical_solution, reduce_solution, Mapping};
    use xmlmap::trees::xml;

    let fx = Fixture::new("delta");
    fx.file(
        "upd.txt",
        "insert . 2 <a v=\"3\"/>\ndelete 0\nsettext 0 v 9\n",
    );
    // The same edits by hand: [a1, a2] -> insert a3 -> drop a1 -> a2.v = 9.
    let final_source = xml::parse(r#"<r><a v="9"/><a v="3"/></r>"#).unwrap();
    let mapping = Mapping::parse(COPY_MAP).unwrap();
    let expected = xml::to_string(&reduce_solution(
        &mapping,
        &canonical_solution(&mapping, &final_source).unwrap(),
    ));

    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |_| {},
        |endpoint, _| {
            let mut client = connect(endpoint);
            let open = client
                .roundtrip("DELTA OPEN s1 copy.map src.xml", 0)
                .unwrap();
            match open.result {
                JobResult::Answer { yes: true, detail } => {
                    assert!(detail.contains("opened `s1`"), "got: {detail}")
                }
                other => panic!("OPEN failed: {other:?}"),
            }
            // Opening the same name again is refused.
            let dup = client
                .roundtrip("DELTA OPEN s1 copy.map src.xml", 0)
                .unwrap();
            assert!(
                matches!(dup.result, JobResult::Failed { ref error } if error.contains("already open")),
                "duplicate open must fail: {dup:?}"
            );
            // The pristine solution first, then the updated one.
            let before = client.roundtrip("DELTA SOLUTION s1", 0).unwrap();
            match before.result {
                JobResult::Answer { yes: true, detail } => {
                    assert!(detail.contains("w=\"1\"") && detail.contains("w=\"2\""));
                }
                other => panic!("SOLUTION failed: {other:?}"),
            }
            let apply = client.roundtrip("DELTA APPLY s1 upd.txt", 0).unwrap();
            match apply.result {
                JobResult::Answer { yes: true, detail } => {
                    assert!(detail.contains("applied 3 update(s)"), "got: {detail}")
                }
                other => panic!("APPLY failed: {other:?}"),
            }
            let after = client.roundtrip("DELTA SOLUTION s1", 0).unwrap();
            match after.result {
                JobResult::Answer { yes: true, detail } => assert_eq!(
                    detail, expected,
                    "incremental solution equals a full re-chase"
                ),
                other => panic!("SOLUTION failed: {other:?}"),
            }
            // Ordinary job lines interleave with session traffic.
            let probe = client.roundtrip("consistent copy.map", 0).unwrap();
            assert!(matches!(probe.result, JobResult::Answer { yes: true, .. }));
            // Close tallies the session into the engine stats.
            let close = client.roundtrip("DELTA CLOSE s1", 0).unwrap();
            match close.result {
                JobResult::Answer { yes: true, detail } => {
                    assert!(detail.contains("closed `s1` after 3 update(s)"), "{detail}")
                }
                other => panic!("CLOSE failed: {other:?}"),
            }
            let gone = client.roundtrip("DELTA SOLUTION s1", 0).unwrap();
            assert!(
                matches!(gone.result, JobResult::Failed { ref error } if error.contains("no delta session")),
                "closed session must be gone: {gone:?}"
            );
            let stats = client.stats().unwrap();
            assert!(stats.contains("\"delta_sessions\":1"), "stats: {stats}");
            assert!(stats.contains("\"delta_updates\":3"), "stats: {stats}");
            // Malformed verbs are per-request errors, not dropped frames.
            let bad = client.roundtrip("DELTA FROB s1", 0).unwrap();
            assert!(
                matches!(bad.result, JobResult::Failed { ref error } if error.contains("bad DELTA request")),
                "got: {bad:?}"
            );
        },
    );
}

#[test]
fn stats_reports_provenance_and_warm_restart_compiles_nothing() {
    let fx = Fixture::new("warm");
    let store = fx.dir.join("cache");
    let jobs = ["consistent copy.map", "subschema d.dtd d.dtd"];

    // Cold run: compiles, writes the artifact store.
    let cold_ctx = EngineContext::new().with_disk_cache(&store).unwrap();
    with_server(
        &fx,
        &cold_ctx,
        |_| {},
        |endpoint, _| {
            let mut client = connect(endpoint);
            for job in jobs {
                let response = client.roundtrip(job, 0).unwrap();
                assert!(matches!(
                    response.result,
                    JobResult::Answer { yes: true, .. }
                ));
            }
            let stats = client.stats().unwrap();
            assert!(
                stats.contains(&automata_fill(1)),
                "cold run compiled the automata: {stats}"
            );
            assert!(stats.contains("\"requests\":"), "server tallies exposed");
        },
    );

    // Warm restart against the same store: the automata are disk loads.
    let warm_ctx = EngineContext::new().with_disk_cache(&store).unwrap();
    with_server(
        &fx,
        &warm_ctx,
        |_| {},
        |endpoint, _| {
            let mut client = connect(endpoint);
            for job in jobs {
                let response = client.roundtrip(job, 0).unwrap();
                assert!(matches!(
                    response.result,
                    JobResult::Answer { yes: true, .. }
                ));
                if job.starts_with("subschema") {
                    assert_eq!(response.compiled, 0, "warm restart must not compile");
                    assert_eq!(response.disk_loaded, 1, "warm automata come off disk");
                }
            }
            let stats = client.stats().unwrap();
            assert!(
                stats.contains(&automata_fill(0)),
                "warm restart compiled the automata: {stats}"
            );
        },
    );
}

/// The `STATS` prefix of an automata family whose one slot was filled by
/// `compiled` compilations (0: by a disk load).
fn automata_fill(compiled: u64) -> String {
    format!("\"automata\":{{\"hits\":0,\"misses\":1,\"compiled\":{compiled},")
}

#[test]
fn warm_replies_report_no_compiles_while_cold_mappings_compile() {
    // Provenance is the request's own: with two workers, warm answers run
    // beside cold requests that compile, and must not be charged for them.
    const COLD: usize = 40;
    let fx = Fixture::new("provenance");
    for i in 0..COLD {
        fx.file(
            &format!("cold{i}.map"),
            &format!(
                "[source]\nroot r\nr -> a{i}*\na{i} @ v\n\
                 [target]\nroot r\nr -> b{i}*\nb{i} @ w\n\
                 [stds]\nr/a{i}(x) --> r/b{i}(x)\n"
            ),
        );
    }
    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |cfg| cfg.workers = 2,
        |endpoint, _| {
            let mut warm = connect(endpoint);
            let first = warm.roundtrip("consistent copy.map", 0).unwrap();
            assert_eq!(first.compiled, 2, "the first probe compiles both schemas");
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                let done = &done;
                let cold = scope.spawn(move || {
                    // One at a time, so no warm request queues behind a
                    // backlog of cold ones: each runs beside a compile.
                    let mut client = connect(endpoint);
                    let compiled: Vec<u64> = (0..COLD)
                        .map(|i| {
                            let line = format!("consistent cold{i}.map");
                            client.roundtrip(&line, 0).unwrap().compiled
                        })
                        .collect();
                    done.store(true, Ordering::Relaxed);
                    compiled
                });
                let mut warm_replies = 0;
                while !done.load(Ordering::Relaxed) || warm_replies < 20 {
                    let r = warm.roundtrip("consistent copy.map", 0).unwrap();
                    assert!(matches!(r.result, JobResult::Answer { yes: true, .. }));
                    assert_eq!(r.compiled, 0, "warm reply charged a compile: {}", r.raw);
                    warm_replies += 1;
                }
                let cold = cold.join().unwrap();
                assert_eq!(
                    cold,
                    vec![2; COLD],
                    "each cold mapping compiles its two schemas"
                );
            });
        },
    );
    assert_eq!(ctx.stats().total_compiled(), 2 + 2 * COLD as u64);
}

#[test]
fn delta_open_past_its_deadline_still_reports_the_committed_session() {
    // Opening a session over a few thousand nodes overruns a 1 ms
    // deadline. The session table has changed by then, so the reply must
    // say so: either it was answered ok, or it never ran.
    let fx = Fixture::new("delta-deadline");
    let mut doc = String::from("<r>");
    for i in 0..3000 {
        doc.push_str(&format!("<a v=\"{i}\"/>"));
    }
    doc.push_str("</r>");
    fx.file("big.xml", &doc);
    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |cfg| cfg.workers = 1,
        |endpoint, _| {
            let mut client = connect(endpoint);
            let open = client
                .roundtrip("DELTA OPEN s1 copy.map big.xml", 1)
                .unwrap();
            let probe = client.roundtrip("DELTA SOLUTION s1", 0).unwrap();
            match open.result {
                JobResult::Answer { yes: true, .. } => assert!(
                    matches!(probe.result, JobResult::Answer { yes: true, .. }),
                    "an open session answers: {}",
                    probe.raw
                ),
                JobResult::Failed { ref error } => {
                    assert!(error.contains("before execution"), "got: {}", open.raw);
                    assert!(
                        matches!(probe.result, JobResult::Failed { ref error }
                                 if error.contains("no delta session named")),
                        "a deadline error means no session: {}",
                        probe.raw
                    );
                }
                other => panic!("unexpected OPEN reply {other:?}"),
            }
        },
    );
}

/// `raw` with the `"elapsed_us"` value replaced by `_`.
fn mask_elapsed(raw: &str) -> String {
    let at = raw.find("\"elapsed_us\":").expect("every reply is timed") + 13;
    let end = at + raw[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}_{}", &raw[..at], &raw[end..])
}

#[test]
fn every_reply_shape_is_pinned_byte_for_byte() {
    use xmlmap::codec::frame;

    let fx = Fixture::new("shapes");
    let ctx = EngineContext::new();
    with_server(
        &fx,
        &ctx,
        |cfg| cfg.workers = 1,
        |endpoint, _| {
            let mut client = connect(endpoint);
            let mut reply = |line: &str, deadline_ms| {
                mask_elapsed(&client.roundtrip(line, deadline_ms).unwrap().raw)
            };
            assert_eq!(
                reply("PING", 0),
                r#"{"id":1,"ok":true,"yes":true,"detail":"pong","elapsed_us":_,"compiled":0,"disk_loaded":0}"#
            );
            assert_eq!(
                reply("consistent copy.map", 0),
                r#"{"id":2,"ok":true,"yes":true,"detail":"consistent (witness source has 1 nodes)","elapsed_us":_,"compiled":2,"disk_loaded":0}"#
            );
            assert_eq!(
                reply("frobnicate copy.map", 0),
                r#"{"id":3,"ok":false,"error":"unknown operation `frobnicate`","elapsed_us":_}"#
            );
            assert_eq!(
                reply("PING soon", 0),
                r#"{"id":4,"ok":false,"error":"PING delay `soon` is not a number","elapsed_us":_}"#
            );
            assert_eq!(
                reply("DELTA OPEN s copy.map src.xml", 0),
                r#"{"id":5,"ok":true,"yes":true,"detail":"opened `s` (1 std(s), conforming source)","elapsed_us":_,"compiled":1,"disk_loaded":0}"#
            );
            let stats = reply("STATS", 0);
            assert!(stats.starts_with(r#"{"id":6,"ok":true,"stats":{"sat":{"hits":"#));
            assert!(stats.ends_with(r#""requests":6,"connections":1},"elapsed_us":_}"#));

            // One worker busy with a slow ping: the probe expires queued.
            let mut client = connect(endpoint);
            client.send("PING 200", 0).unwrap();
            client.send("consistent copy.map", 20).unwrap();
            let _pong = client.recv().unwrap();
            assert_eq!(
                mask_elapsed(&client.recv().unwrap().raw),
                r#"{"id":2,"ok":false,"error":"request deadline of 20ms exceeded before execution","elapsed_us":_}"#
            );

            let Endpoint::Unix(path) = endpoint.clone() else {
                panic!("unix endpoint expected")
            };
            let mut stream = std::os::unix::net::UnixStream::connect(path).unwrap();
            frame::write(&mut stream, b"junk").unwrap();
            let frame::ReadFrame::Frame(payload) =
                frame::read(&mut stream, frame::MAX_FRAME).unwrap()
            else {
                panic!("expected an error frame")
            };
            assert_eq!(
                String::from_utf8(payload).unwrap(),
                r#"{"id":0,"ok":false,"error":"malformed request frame: bad request magic","elapsed_us":0}"#
            );
        },
    );
}
