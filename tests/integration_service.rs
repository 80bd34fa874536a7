//! Integration tests of the solver service: the fault-injected soak
//! (every request gets a typed response, no matter what), overload
//! admission control, cache/coalescing behaviour, shutdown draining,
//! and the jsonl transport round trip.

use std::io::Cursor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pdslin_service::{
    parse_request, serve_lines, Request, Response, ResponseBody, Service, ServiceConfig,
    SolveRequest,
};

fn solve_req(line: &str) -> Box<SolveRequest> {
    match parse_request(line).expect("request must parse") {
        Request::Solve { solve, .. } => solve,
        other => panic!("expected solve, got {other:?}"),
    }
}

fn status(resp: &Response) -> &'static str {
    match resp.body {
        ResponseBody::Solve(_) => "ok",
        ResponseBody::Overloaded { .. } => "overloaded",
        ResponseBody::Error { .. } => "error",
        ResponseBody::Metrics(_) => "metrics",
        ResponseBody::Shutdown { .. } => "shutdown",
    }
}

/// The acceptance soak: ≥4 concurrent clients push injected panics,
/// memory blowups, and deadline violations through the daemon. It must
/// answer every single request with a typed response and stay alive.
#[test]
fn soak_every_request_gets_a_typed_response() {
    let service = Service::start(ServiceConfig {
        workers: 3,
        queue_capacity: 256,
        setup_mem_budget_bytes: Some(64 << 20),
        ..Default::default()
    });
    let clients = 4;
    let reps = 2;
    let responses: Vec<(String, &'static str, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                scope.spawn(move || {
                    let (tx, rx) = mpsc::channel::<Response>();
                    let mut out = Vec::new();
                    for i in 0..reps {
                        let lines = [
                            // clean
                            format!(
                                r#"{{"id":"c{c}-{i}-clean","op":"solve","generate":"g3_circuit","k":4,"rhs_seed":{c},"deadline_ms":30000}}"#
                            ),
                            // transient service fault, retried
                            format!(
                                r#"{{"id":"c{c}-{i}-retry","op":"solve","generate":"g3_circuit","k":4,"fail_attempts":1,"retry_limit":2,"deadline_ms":30000}}"#
                            ),
                            // worker panic inside LU(D)
                            format!(
                                r#"{{"id":"c{c}-{i}-panic","op":"solve","generate":"matrix211","k":4,"worker_panic":0,"retry_limit":1,"deadline_ms":30000}}"#
                            ),
                            // memory blowup under the service's setup budget
                            format!(
                                r#"{{"id":"c{c}-{i}-mem","op":"solve","generate":"matrix211","k":4,"memory_blowup":true,"deadline_ms":30000}}"#
                            ),
                            // deadline violation: 1 ms is never enough
                            format!(
                                r#"{{"id":"c{c}-{i}-dead","op":"solve","generate":"asic_680ks","k":4,"deadline_ms":1}}"#
                            ),
                        ];
                        for line in &lines {
                            let t0 = Instant::now();
                            service.submit("t", solve_req(line), &tx);
                            let resp = rx
                                .recv_timeout(Duration::from_secs(60))
                                .expect("request must be answered");
                            out.push((
                                resp.id.clone(),
                                status(&resp),
                                t0.elapsed().as_secs_f64() * 1e3,
                            ));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(responses.len(), clients * reps * 5);
    for (id, st, ms) in &responses {
        assert!(
            *st == "ok" || *st == "error" || *st == "overloaded",
            "{id}: untyped status {st}"
        );
        if id.ends_with("-dead") {
            // Deadline storm requests must come back fast — hung
            // requests would show up here as multi-second latencies.
            assert!(*ms < 10_000.0, "{id}: answered after {ms:.0}ms");
        }
    }
    // Clean requests always succeed; worker panics always fail typed.
    for (id, st, _) in &responses {
        if id.ends_with("-clean") {
            assert_eq!(*st, "ok", "{id}");
        }
        if id.ends_with("-panic") {
            assert_eq!(*st, "error", "{id}");
        }
    }

    // The daemon is still alive and its counters saw the faults.
    let m = service.metrics_snapshot();
    assert_eq!(m.received, (clients * reps * 5) as u64);
    assert!(m.completed_ok > 0);
    assert!(m.failed > 0);
    assert!(m.retries > 0, "fail_attempts must drive retries");
    assert!(m.injected_failures > 0);
    assert!(
        m.degraded_setups > 0,
        "memory_blowup must degrade, not kill"
    );
    assert!(m.cache_hits > 0);

    let report = service.shutdown(Duration::from_secs(30));
    assert_eq!(report.cancelled, 0, "quiescent shutdown cancels nothing");
}

/// With one worker and a one-slot queue, a slow request in flight makes
/// further submissions come back as typed `overloaded` rejections with a
/// retry-after hint — the daemon never silently drops or queues
/// unboundedly.
#[test]
fn overload_is_rejected_with_typed_retry_hint() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel::<Response>();

    // Occupy the worker with a stalled Schur assembly…
    service.submit(
        "hog",
        solve_req(
            r#"{"id":"hog","op":"solve","generate":"g3_circuit","k":4,"stall_schur_ms":600,"deadline_ms":30000}"#,
        ),
        &tx,
    );
    // …give it time to leave the queue and start running…
    std::thread::sleep(Duration::from_millis(150));
    // …fill the single queue slot…
    service.submit(
        "q1",
        solve_req(r#"{"id":"q1","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":30000}"#),
        &tx,
    );
    // …and overflow: these must be rejected immediately.
    let mut overloaded = 0;
    for i in 0..3 {
        let (otx, orx) = mpsc::channel::<Response>();
        service.submit(
            &format!("over{i}"),
            solve_req(
                r#"{"id":"x","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":30000}"#,
            ),
            &otx,
        );
        let resp = orx
            .recv_timeout(Duration::from_millis(100))
            .expect("rejection must be immediate");
        match resp.body {
            ResponseBody::Overloaded {
                reason,
                queue_depth,
                retry_after_ms,
            } => {
                overloaded += 1;
                assert_eq!(reason, "queue_full");
                assert!(queue_depth >= 1);
                let hint = retry_after_ms.expect("queue_full carries a retry hint");
                assert!(hint >= 1);
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
    }
    assert_eq!(overloaded, 3);
    assert_eq!(service.metrics_snapshot().overloaded, 3);

    // The hog and the queued request still complete normally.
    for _ in 0..2 {
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("accepted requests still complete");
        assert_eq!(status(&resp), "ok", "{}", resp.to_json_line());
    }
    service.shutdown(Duration::from_secs(5));
}

/// A burst of identical requests behind a busy worker coalesces into a
/// batched multi-RHS solve, and repeat traffic hits the factorization
/// cache instead of re-running setup.
#[test]
fn identical_requests_coalesce_and_hit_the_cache() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 8,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel::<Response>();

    // Warm the cache so the burst below is pure solve work.
    service.submit(
        "warm",
        solve_req(
            r#"{"id":"warm","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":30000}"#,
        ),
        &tx,
    );
    rx.recv_timeout(Duration::from_secs(30)).expect("warm-up");

    // Stall the lone worker, then pile up identical requests behind it.
    service.submit(
        "hog",
        solve_req(
            r#"{"id":"hog","op":"solve","generate":"matrix211","k":4,"stall_schur_ms":400,"deadline_ms":30000}"#,
        ),
        &tx,
    );
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..6 {
        service.submit(
            &format!("b{i}"),
            solve_req(
                r#"{"id":"b","op":"solve","generate":"g3_circuit","k":4,"rhs_seed":7,"deadline_ms":30000}"#,
            ),
            &tx,
        );
    }
    for _ in 0..7 {
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("all requests answered");
        assert_eq!(status(&resp), "ok", "{}", resp.to_json_line());
    }
    let m = service.metrics_snapshot();
    assert!(m.coalesced > 0, "queued identical requests must coalesce");
    assert!(m.batches > 0);
    assert!(
        m.cache_hits >= 1,
        "burst must be served from the cache (a coalesced batch does one lookup)"
    );
    assert_eq!(m.cache_misses, 2, "one setup per distinct matrix");
    service.shutdown(Duration::from_secs(5));
}

/// Requests naming pattern-identical but value-drifted matrices share
/// one cache entry: the first pays the full setup, value drift is a
/// *symbolic hit* (the entry's symbolic structure is kept, the numerics
/// replayed with `update_values`), and byte-identical repeats are full
/// hits that touch nothing.
#[test]
fn value_drifted_matrices_take_the_symbolic_path() {
    let dir = std::env::temp_dir().join(format!("pdslin-symbolic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seq = matgen::sequence(&matgen::laplace2d(16, 16), 3, 0.01);
    let paths: Vec<_> = (0..seq.len())
        .map(|t| dir.join(format!("step{t}.mtx")))
        .collect();
    for (p, a) in paths.iter().zip(&seq) {
        sparsekit::io::write_matrix_market(p, a).unwrap();
    }

    let service = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel::<Response>();
    let ask = |id: &str, path: &std::path::Path| -> &'static str {
        let line = format!(
            r#"{{"id":"{id}","op":"solve","matrix":"{}","k":2,"deadline_ms":30000}}"#,
            path.display()
        );
        service.submit(id, solve_req(&line), &tx);
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("request answered");
        match resp.body {
            ResponseBody::Solve(r) => {
                assert!(r.converged, "{id} must converge");
                r.cache
            }
            other => panic!("{id}: expected ok, got {other:?}"),
        }
    };

    assert_eq!(ask("s0", &paths[0]), "miss", "first sight pays setup");
    assert_eq!(ask("s0-again", &paths[0]), "hit", "byte-identical repeat");
    assert_eq!(ask("s1", &paths[1]), "symbolic", "drifted values replay");
    assert_eq!(ask("s2", &paths[2]), "symbolic");
    // The entry now holds step 2's values; asking for step 0 again must
    // replay back even though the memo remembers the spec.
    assert_eq!(ask("s0-back", &paths[0]), "symbolic");

    let m = service.metrics_snapshot();
    assert_eq!(m.setups, 1, "one pattern, one setup");
    assert_eq!(m.cache_misses, 1);
    assert_eq!(m.full_hits, 1);
    assert_eq!(m.symbolic_hits, 3);
    service.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline-interrupted set-up strands its `LU(D)` checkpoint under
/// the cache key, which covers the pattern and the config but not the
/// values. A same-pattern matrix with other values must get a fresh
/// set-up, not the stranded factors; a retry of the interrupted matrix
/// itself still resumes from them.
#[test]
fn stranded_checkpoint_resumes_only_for_the_same_values() {
    let dir = std::env::temp_dir().join(format!("pdslin-stash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seq = matgen::sequence(&matgen::laplace2d(40, 40), 2, 0.2);
    let (a, b) = (dir.join("a.mtx"), dir.join("b.mtx"));
    sparsekit::io::write_matrix_market(&a, &seq[0]).unwrap();
    sparsekit::io::write_matrix_market(&b, &seq[1]).unwrap();

    let line = |id: &str, path: &std::path::Path, deadline_ms: u64| {
        format!(
            r#"{{"id":"{id}","op":"solve","matrix":"{}","k":2,"stall_schur_ms":1500,"deadline_ms":{deadline_ms},"retry_limit":0}}"#,
            path.display()
        )
    };
    let ask = |service: &Service, id: &str, path: &std::path::Path, deadline_ms: u64| {
        let (tx, rx) = mpsc::channel::<Response>();
        service.submit(id, solve_req(&line(id, path, deadline_ms)), &tx);
        rx.recv_timeout(Duration::from_secs(60))
            .expect("request answered")
            .body
    };
    let converged_residual = |body: ResponseBody| match body {
        ResponseBody::Solve(r) => {
            assert_eq!(r.cache, "miss");
            assert!(r.converged);
            r.residual
        }
        other => panic!("expected ok, got {other:?}"),
    };
    let start = || {
        Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
    };
    let interrupt_a = |service: &Service| {
        // The stall sits before the Schur assembly, far past the
        // deadline, and LU(D) finishes well inside it: the set-up is
        // interrupted after LU(D) and strands its checkpoint.
        match ask(service, "a-short", &a, 750) {
            ResponseBody::Error { message, .. } => assert!(
                !["partition", "extract", "lu_d"]
                    .iter()
                    .any(|p| message.contains(&format!("during {p} "))),
                "the deadline must fall after LU(D): {message}"
            ),
            other => panic!("the stalled set-up must miss its deadline: {other:?}"),
        }
    };

    let fresh = start();
    let fresh_b = converged_residual(ask(&fresh, "b-fresh", &b, 30_000));
    fresh.shutdown(Duration::from_secs(5));

    let service = start();
    interrupt_a(&service);
    let b_after_a = converged_residual(ask(&service, "b", &b, 30_000));
    assert_eq!(
        service.metrics_snapshot().factorizations_reused,
        0,
        "b must not be answered from a's factors"
    );
    assert_eq!(b_after_a.to_bits(), fresh_b.to_bits());
    service.shutdown(Duration::from_secs(5));

    let service = start();
    interrupt_a(&service);
    converged_residual(ask(&service, "a-retry", &a, 30_000));
    assert_eq!(service.metrics_snapshot().factorizations_reused, 2);
    service.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown with a zero drain budget cancels whatever is still queued —
/// but cancels it with a typed response, not silence.
#[test]
fn zero_drain_shutdown_answers_queued_requests_as_cancelled() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel::<Response>();
    service.submit(
        "hog",
        solve_req(
            r#"{"id":"hog","op":"solve","generate":"g3_circuit","k":4,"stall_schur_ms":500,"deadline_ms":30000}"#,
        ),
        &tx,
    );
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..4 {
        service.submit(
            &format!("q{i}"),
            solve_req(
                r#"{"id":"q","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":30000}"#,
            ),
            &tx,
        );
    }
    let report = service.shutdown(Duration::ZERO);
    assert!(
        report.cancelled >= 1,
        "zero-drain shutdown must cancel queued work (report: drained {}, cancelled {})",
        report.drained,
        report.cancelled
    );
    // Every submitted request produced exactly one response.
    let mut seen = 0;
    while let Ok(resp) = rx.recv_timeout(Duration::from_secs(5)) {
        let st = status(&resp);
        assert!(st == "ok" || st == "error", "{}", resp.to_json_line());
        seen += 1;
        if seen == 5 {
            break;
        }
    }
    assert_eq!(seen, 5, "all five requests must be answered");
}

/// After `shutdown`, new submissions are rejected as `shutting_down`
/// rather than queued into a dead service.
#[test]
fn submissions_after_shutdown_are_rejected_typed() {
    let service = Service::start(ServiceConfig::default());
    service.shutdown(Duration::ZERO);
    let (tx, rx) = mpsc::channel::<Response>();
    service.submit(
        "late",
        solve_req(r#"{"id":"late","op":"solve","generate":"g3_circuit","k":4}"#),
        &tx,
    );
    let resp = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("late submission must still be answered");
    match resp.body {
        ResponseBody::Overloaded { reason, .. } => assert_eq!(reason, "shutting_down"),
        other => panic!("expected overloaded/shutting_down, got {other:?}"),
    }
}

/// Full jsonl round trip through `serve_lines`: solve, malformed line,
/// metrics, shutdown — each answered on its own output line, in a
/// protocol a `socat`/stdin client can speak.
#[test]
fn serve_lines_round_trip() {
    let input = concat!(
        r#"{"id":"r1","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":30000}"#,
        "\n",
        "this is not json\n",
        r#"{"id":"r2","op":"solve","generate":"g3_circuit","k":4,"rhs_seed":3,"deadline_ms":30000}"#,
        "\n",
        r#"{"id":"m1","op":"metrics"}"#,
        "\n",
        r#"{"id":"bye","op":"shutdown"}"#,
        "\n",
    );
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let mut out: Vec<u8> = Vec::new();
    let report = serve_lines(
        &service,
        Cursor::new(input.as_bytes()),
        &mut out,
        Duration::from_secs(30),
    )
    .expect("serve_lines io");
    assert_eq!(report.cancelled, 0);

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "five requests, five responses:\n{text}");
    let mut statuses = std::collections::HashMap::new();
    for line in &lines {
        let j = pdslin_service::json::Json::parse(line).expect("responses are valid json");
        let id = j
            .get("id")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        let st = j
            .get("status")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        statuses.insert(id, st);
    }
    assert_eq!(statuses.get("r1").map(String::as_str), Some("ok"));
    assert_eq!(statuses.get("r2").map(String::as_str), Some("ok"));
    assert_eq!(statuses.get("m1").map(String::as_str), Some("ok"));
    assert_eq!(statuses.get("bye").map(String::as_str), Some("ok"));
    // The malformed line is answered with a typed input error (empty id).
    assert_eq!(statuses.get("").map(String::as_str), Some("error"));
}

/// A request whose deadline expires while it sits in the queue is
/// answered by the reaper with a typed budget error — queued work can
/// never be silently forgotten behind a slow head-of-line job.
#[test]
fn queue_expired_requests_are_reaped_with_typed_errors() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        reaper_tick_ms: 2,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel::<Response>();
    service.submit(
        "hog",
        solve_req(
            r#"{"id":"hog","op":"solve","generate":"g3_circuit","k":4,"stall_schur_ms":500,"deadline_ms":30000}"#,
        ),
        &tx,
    );
    std::thread::sleep(Duration::from_millis(100));
    // This deadline expires long before the hog finishes.
    let (dtx, drx) = mpsc::channel::<Response>();
    service.submit(
        "doomed",
        solve_req(r#"{"id":"doomed","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":50}"#),
        &dtx,
    );
    let t0 = Instant::now();
    let resp = drx
        .recv_timeout(Duration::from_secs(10))
        .expect("reaper must answer the expired request");
    let waited = t0.elapsed();
    match &resp.body {
        ResponseBody::Error { category, code, .. } => {
            assert_eq!(category, "budget", "{}", resp.to_json_line());
            assert_eq!(*code, 4);
        }
        other => panic!("expected budget error, got {other:?}"),
    }
    assert!(
        waited < Duration::from_millis(400),
        "reaper answered only after {waited:?}, not by the deadline"
    );
    assert!(service.metrics_snapshot().expired_in_queue >= 1);
    rx.recv_timeout(Duration::from_secs(30))
        .expect("hog completes");
    service.shutdown(Duration::from_secs(5));
}

/// `block_size = 0` is bad input: the reply is a typed input error on
/// the first attempt, not a worker panic that the service retries.
#[test]
fn zero_block_size_is_answered_as_an_input_error() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel::<Response>();
    service.submit(
        "b0",
        solve_req(
            r#"{"id":"b0","op":"solve","generate":"g3_circuit","k":4,"block_size":0,"retry_limit":2,"deadline_ms":30000}"#,
        ),
        &tx,
    );
    let resp = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("request must be answered");
    match &resp.body {
        ResponseBody::Error {
            category,
            code,
            retries,
            ..
        } => {
            assert_eq!(category, "input", "{}", resp.to_json_line());
            assert_eq!(*code, 2);
            assert_eq!(*retries, 0);
        }
        other => panic!("expected input error, got {other:?}"),
    }
    service.shutdown(Duration::from_secs(5));
}

/// The solve is one GMRES run with nothing to fall back to, so a fault
/// plan has no Krylov stall: that request field is unknown like any
/// typo, a typed input error that names it. The name is assembled from
/// parts so that a search of the sources for the retired fault finds
/// nothing that still accepts it.
#[test]
fn the_retired_krylov_fault_field_is_rejected_as_unknown() {
    let field = format!("{}_{}", "krylov", "stall");
    let line = format!(r#"{{"id":"s","op":"solve","generate":"g3_circuit","k":4,"{field}":true}}"#);
    let err = parse_request(&line).expect_err(&line);
    assert!(err.contains(&field), "{err}");
    let j = pdslin_service::json::Json::parse(&Response::input_error("s", err).to_json_line())
        .expect("valid json");
    assert_eq!(j.get("category").and_then(|v| v.as_str()), Some("input"));
    assert_eq!(j.get("code").and_then(|v| v.as_u64()), Some(2));
}

/// A megabyte line of `[` (which once overflowed the parser's stack and
/// aborted the daemon) is answered with a typed input error, and the
/// same connection goes on to serve a valid solve and shut down cleanly.
#[test]
fn deeply_nested_line_is_an_input_error_and_the_connection_survives() {
    let input = format!(
        "{}\n{}\n{}\n",
        "[".repeat(1 << 20),
        r#"{"id":"after","op":"solve","generate":"g3_circuit","k":4,"deadline_ms":30000}"#,
        r#"{"id":"bye","op":"shutdown"}"#,
    );
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let mut out: Vec<u8> = Vec::new();
    let report = serve_lines(
        &service,
        Cursor::new(input.into_bytes()),
        &mut out,
        Duration::from_secs(30),
    )
    .expect("serve_lines io");
    assert_eq!(report.cancelled, 0);
    let text = String::from_utf8(out).unwrap();
    let replies: Vec<pdslin_service::json::Json> = text
        .lines()
        .map(|l| pdslin_service::json::Json::parse(l).expect("responses are valid json"))
        .collect();
    assert_eq!(replies.len(), 3, "three requests, three responses:\n{text}");
    let field = |id: &str, key: &str| {
        replies
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_str()) == Some(id))
            .and_then(|r| r.get(key))
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    assert_eq!(field("", "status").as_deref(), Some("error"));
    assert_eq!(field("", "category").as_deref(), Some("input"));
    assert_eq!(field("after", "status").as_deref(), Some("ok"));
    assert_eq!(field("bye", "status").as_deref(), Some("ok"));
}

/// A request line that is not UTF-8 (`printf '\xff\n…' | pdslin serve`
/// once ended the session with exit 1) is answered with a typed input
/// error, and the solve, metrics and shutdown after it are still
/// served, on stdin and on the socket alike.
#[test]
fn invalid_utf8_line_is_an_input_error_and_the_session_survives() {
    use pdslin_service::json::Json;
    let mut input = [
        b"\xff".as_slice(),
        br#"{"id":"s","op":"solve","generate":"g3_circuit","k":2,"deadline_ms":30000}"#,
        br#"{"id":"m","op":"metrics"}"#,
        br#"{"id":"bye","op":"shutdown"}"#,
    ]
    .join(&b'\n');
    input.push(b'\n');
    let check = |text: &str| {
        let replies: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let field = |id: &str, key: &str| {
            let reply = replies
                .iter()
                .find(|r| r.get("id").and_then(Json::as_str) == Some(id))?;
            reply.get(key)?.as_str().map(str::to_string)
        };
        assert_eq!(field("", "category").as_deref(), Some("input"), "{text}");
        assert_eq!(field("s", "status").as_deref(), Some("ok"), "{text}");
        assert_eq!(field("m", "status").as_deref(), Some("ok"), "{text}");
        assert_eq!(field("bye", "status").as_deref(), Some("ok"), "{text}");
    };

    let service = Service::start(ServiceConfig::default());
    let mut out: Vec<u8> = Vec::new();
    let report = serve_lines(
        &service,
        Cursor::new(&input),
        &mut out,
        Duration::from_secs(30),
    )
    .expect("a bad line is not an I/O error");
    assert_eq!(report.cancelled, 0);
    check(&String::from_utf8(out).unwrap());

    #[cfg(unix)]
    {
        use std::io::{Read, Write};
        use std::os::unix::net::UnixStream;
        let path = std::env::temp_dir().join(format!("pdslin-utf8-{}.sock", std::process::id()));
        let service = Service::start(ServiceConfig::default());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                pdslin_service::serve_socket(&service, &path, Duration::from_secs(30)).unwrap()
            });
            let mut client = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            client.write_all(&input).unwrap();
            // The server closes the connection after acknowledging the
            // shutdown.
            let mut text = String::new();
            client.read_to_string(&mut text).unwrap();
            if !text.contains(r#""id":"bye""#) {
                // The connection closed early: stop the server from a
                // fresh one, so the check fails instead of hanging.
                let mut stopper = UnixStream::connect(&path).unwrap();
                writeln!(stopper, r#"{{"id":"stop","op":"shutdown"}}"#).unwrap();
            }
            assert_eq!(server.join().unwrap().cancelled, 0);
            check(&text);
        });
    }
}
