//! Service load generator: drives an in-process `pdslin_service::Service`
//! with N concurrent clients through mixed traffic — clean solves across
//! two cached matrices, fault-injected requests (service-level attempt
//! failures and worker panics), memory-pressure degradation, and a
//! deadline storm — and records latency percentiles and throughput per
//! concurrency level in `BENCH_service.json`.
//!
//! Hard assertions (what CI gates on):
//!
//! * every request receives exactly one typed response
//!   (`ok`/`overloaded`/`error`), even under injected panics and
//!   past-deadline storms;
//! * no deadline-carrying request is answered later than its deadline
//!   plus a generous cooperative-polling slack — the daemon never hangs
//!   a request past its deadline;
//! * the daemon is still serving (a metrics snapshot succeeds) after the
//!   soak, and shuts down cleanly with nothing left unanswered.
//!
//! Latency/throughput numbers are recorded for trajectory tracking, not
//! asserted — CI runners make them meaningless to gate on.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use matgen::Scale;
use pdslin_service::{
    parse_request, Request, Response, ResponseBody, Service, ServiceConfig, SolveRequest,
};

pdslin_bench::json_record! {
    struct ServiceRow {
        phase: String,
        concurrency: usize,
        requests: usize,
        ok: usize,
        typed_errors: usize,
        overloaded: usize,
        retries: u64,
        injected_failures: u64,
        batches: u64,
        coalesced: u64,
        cache_hits: u64,
        cache_misses: u64,
        degraded_setups: u64,
        deadline_violations: usize,
        p50_ms: f64,
        p99_ms: f64,
        throughput_rps: f64,
    }
}

/// Cooperative budget polling happens at phase/iteration boundaries, so
/// an in-flight request can overrun its deadline by one polling
/// interval. This slack bounds that interval; blowing through it means
/// a request was effectively hung.
const DEADLINE_SLACK_MS: f64 = 1500.0;

/// Builds a solve request from a jsonl line (single source of truth for
/// request shape: the same parser the daemon uses).
fn request(line: &str) -> Box<SolveRequest> {
    match parse_request(line).expect("benchmark request must parse") {
        Request::Solve { solve, .. } => solve,
        other => panic!("expected solve request, got {other:?}"),
    }
}

struct Sample {
    latency_ms: f64,
    status: &'static str,
    deadline_ms: Option<u64>,
}

/// One client: issues its requests back-to-back (request → response →
/// next), collecting per-request latency and status.
fn run_client(service: &Service, lines: &[String]) -> Vec<Sample> {
    let (tx, rx) = mpsc::channel::<Response>();
    let mut samples = Vec::with_capacity(lines.len());
    for line in lines {
        let solve = request(line);
        let deadline_ms = solve.deadline_ms;
        let t0 = Instant::now();
        service.submit("bench", solve, &tx);
        let resp = rx.recv().expect("every request must be answered");
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let status = match resp.body {
            ResponseBody::Solve(_) => "ok",
            ResponseBody::Overloaded { .. } => "overloaded",
            ResponseBody::Error { .. } => "error",
            other => panic!("unexpected response body {other:?}"),
        };
        samples.push(Sample {
            latency_ms,
            status,
            deadline_ms,
        });
    }
    samples
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    rows: &mut Vec<ServiceRow>,
    phase: &str,
    concurrency: usize,
    samples: &[Sample],
    wall: Duration,
    service: &Service,
) {
    let ok = samples.iter().filter(|s| s.status == "ok").count();
    let typed_errors = samples.iter().filter(|s| s.status == "error").count();
    let overloaded = samples.iter().filter(|s| s.status == "overloaded").count();
    let deadline_violations = samples
        .iter()
        .filter(|s| {
            s.deadline_ms
                .is_some_and(|d| s.latency_ms > d as f64 + DEADLINE_SLACK_MS)
        })
        .count();
    let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    let p50 = percentile(&lat, 0.50);
    let p99 = percentile(&lat, 0.99);
    let throughput = samples.len() as f64 / wall.as_secs_f64().max(1e-9);
    let m = service.metrics_snapshot();
    println!(
        "{phase:<12} c={concurrency} n={:<4} ok={ok:<4} err={typed_errors:<3} over={overloaded:<3} \
         p50={p50:>8.2}ms p99={p99:>8.2}ms {throughput:>7.1} req/s",
        samples.len()
    );
    assert_eq!(
        deadline_violations, 0,
        "{phase}: {deadline_violations} request(s) hung past deadline + {DEADLINE_SLACK_MS}ms slack"
    );
    rows.push(ServiceRow {
        phase: phase.to_string(),
        concurrency,
        requests: samples.len(),
        ok,
        typed_errors,
        overloaded,
        retries: m.retries,
        injected_failures: m.injected_failures,
        batches: m.batches,
        coalesced: m.coalesced,
        cache_hits: m.cache_hits,
        cache_misses: m.cache_misses,
        degraded_setups: m.degraded_setups,
        deadline_violations,
        p50_ms: p50,
        p99_ms: p99,
        throughput_rps: throughput,
    });
}

/// Clean mixed-key traffic at a given concurrency.
fn phase_throughput(
    rows: &mut Vec<ServiceRow>,
    service: &Service,
    concurrency: usize,
    per_client: usize,
) {
    let wall0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|c| {
                let lines: Vec<String> = (0..per_client)
                    .map(|i| {
                        // Two spec keys so the cache holds both hot
                        // entries and hits dominate after warm-up.
                        let kind = if (c + i) % 2 == 0 { "g3_circuit" } else { "matrix211" };
                        format!(
                            r#"{{"id":"t{c}-{i}","op":"solve","generate":"{kind}","k":4,"rhs_seed":{seed},"deadline_ms":30000}}"#,
                            seed = c * 100 + i
                        )
                    })
                    .collect();
                scope.spawn(move || run_client(service, &lines))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = wall0.elapsed();
    assert_eq!(samples.len(), concurrency * per_client);
    summarize(rows, "throughput", concurrency, &samples, wall, service);
}

/// Fault soak: ≥4 concurrent clients mixing clean, retry-injected,
/// panic-injected, memory-degraded, and past-deadline traffic.
fn phase_soak(rows: &mut Vec<ServiceRow>, service: &Service, concurrency: usize, reps: usize) {
    let wall0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|c| {
                let mut lines = Vec::new();
                for i in 0..reps {
                    // Clean hit traffic keeps the cache warm…
                    lines.push(format!(
                        r#"{{"id":"s{c}-{i}a","op":"solve","generate":"g3_circuit","k":4,"rhs_seed":{},"deadline_ms":30000}}"#,
                        c * 100 + i
                    ));
                    // …injected attempt failures exercise retry+backoff…
                    lines.push(format!(
                        r#"{{"id":"s{c}-{i}b","op":"solve","generate":"g3_circuit","k":4,"rhs_seed":{},"fail_attempts":1,"retry_limit":2,"deadline_ms":30000}}"#,
                        c * 100 + i
                    ));
                    // …a worker panic inside LU(D) exercises the solver's
                    // catch_unwind isolation and ends as a typed
                    // `execution` error (distinct spec key: faulted setups
                    // never share the clean cache entry)…
                    lines.push(format!(
                        r#"{{"id":"s{c}-{i}c","op":"solve","generate":"matrix211","k":4,"worker_panic":0,"rhs_seed":{},"deadline_ms":30000}}"#,
                        i
                    ));
                    // …memory pressure forces the degraded-preconditioner
                    // path (the service's setup memory budget applies)…
                    lines.push(format!(
                        r#"{{"id":"s{c}-{i}d","op":"solve","generate":"matrix211","k":4,"memory_blowup":true,"rhs_seed":{i},"deadline_ms":30000}}"#
                    ));
                    // …and a deadline storm: 1 ms budgets must come back
                    // as fast typed errors, never hang.
                    lines.push(format!(
                        r#"{{"id":"s{c}-{i}e","op":"solve","generate":"g3_circuit","k":4,"rhs_seed":{i},"deadline_ms":1}}"#
                    ));
                }
                scope.spawn(move || run_client(service, &lines))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = wall0.elapsed();
    assert_eq!(samples.len(), concurrency * reps * 5);
    summarize(rows, "fault_soak", concurrency, &samples, wall, service);
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let (levels, per_client, soak_reps): (&[usize], usize, usize) = match scale {
        Scale::Test => (&[1, 2, 4], 6, 2),
        Scale::Bench => (&[1, 2, 4, 8], 24, 6),
    };
    let service = Service::start(ServiceConfig {
        workers: 4,
        queue_capacity: 128,
        max_batch: 8,
        cache_budget_bytes: 512 << 20,
        // Low enough that `memory_blowup` requests take the degraded
        // path instead of failing outright.
        setup_mem_budget_bytes: Some(64 << 20),
        default_deadline_ms: Some(60_000),
        ..Default::default()
    });

    println!("Service benchmark: latency/throughput vs concurrency, then fault soak\n");
    let mut rows = Vec::new();
    for &c in levels {
        phase_throughput(&mut rows, &service, c, per_client);
    }
    phase_soak(&mut rows, &service, 4, soak_reps);

    // The daemon must still be alive and observable after the soak.
    let m = service.metrics_snapshot();
    assert!(m.received > 0);
    assert!(m.completed_ok > 0, "soak must complete some requests");
    assert!(m.retries > 0, "injected failures must consume retries");
    assert!(
        m.injected_failures > 0,
        "fault soak must exercise injected failures"
    );
    assert!(
        m.cache_hits > 0,
        "repeat traffic must hit the factorization cache"
    );
    println!(
        "\nmetrics: received={} ok={} failed={} retries={} cache {}h/{}m/{}e \
         batches={} coalesced={} degraded={}",
        m.received,
        m.completed_ok,
        m.failed,
        m.retries,
        m.cache_hits,
        m.cache_misses,
        m.cache_evictions,
        m.batches,
        m.coalesced,
        m.degraded_setups
    );

    let report = service.shutdown(Duration::from_secs(30));
    assert_eq!(
        report.cancelled, 0,
        "a clean shutdown after quiescence cancels nothing"
    );
    pdslin_bench::write_json("BENCH_service", &rows);
    println!("\nall requests answered with typed responses; none hung past deadline");
}
