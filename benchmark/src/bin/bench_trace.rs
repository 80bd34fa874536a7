//! `bench_trace --workload <name> --seed <u64>`: the separate traced
//! run. Rebuilds the workload's pipeline phase by phase through the
//! layers' public functions, keeps spans in memory, writes
//! `<target>/out/trace-<workload>.jsonl` at exit and prints the
//! per-layer metrics. A layer that is not on the workload's path reads 0.

use std::process::Command;
use std::time::Instant;

use pdslin::Pdslin;
use pdslin_benchmark::args::Args;
use pdslin_benchmark::fatal;
use pdslin_benchmark::host::{self, Canary};
use pdslin_benchmark::oracle::{fingerprint, Ops};
use pdslin_benchmark::pipeline::{replay_kernels, traced_refactor, traced_setup, traced_solve};
use pdslin_benchmark::report::{Metric, Report};
use pdslin_benchmark::service::{out_dir, reply_times, Daemon, Script};
use pdslin_benchmark::trace::Tracer;
use pdslin_benchmark::workloads::{drifted, rhs, Workload};
use pdslin_service::json::Json;
use sparsekit::Csr;

/// Traced repetitions kept, after one discarded warm-up.
const REPS: usize = 3;
/// Full-hit and symbolic-hit requests of one traced daemon script.
const SCRIPT_HITS: usize = 5;
const SCRIPT_SYMBOLIC: usize = 2;

/// Best wall time of `reps` untraced `Pdslin::setup` calls after one
/// warm-up, and the last solver.
fn untraced_setup(a: &Csr, cfg: pdslin::PdslinConfig, reps: usize) -> (f64, Pdslin) {
    let mut best = f64::INFINITY;
    let mut solver = None;
    for rep in 0..=reps {
        drop(solver.take());
        let t = Instant::now();
        let s = Pdslin::setup(a, cfg).unwrap_or_else(|e| fatal("setup", e));
        if rep > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
        solver = Some(s);
    }
    (best, solver.expect("at least one setup ran"))
}

/// The library pipeline of `a`, traced, checked against the driver.
/// Returns the fingerprint of the first `x`.
fn trace_library(t: &Tracer, args: &Args, a: &Csr, ops: &mut Ops) -> u64 {
    let cfg = args.workload.config();
    let a1 = &drifted(a);
    let b = rhs(args.seed, 0, a.nrows());

    // The untraced driver: the times the trace must account for and the
    // answers it must reproduce.
    let (untraced_s, mut solver) = untraced_setup(a, cfg, REPS);
    let want = solver.solve(&b);
    ops.solve(a, &b, &want);
    let want_x = want.map_or(0, |o| fingerprint(&o.x));
    let want_x1 = solver
        .update_values(a1)
        .and_then(|_| solver.solve(&b))
        .map_or(0, |o| fingerprint(&o.x));
    drop(solver);

    for rep in 0..=REPS {
        t.set_rep(rep);
        let mut f = traced_setup(t, a, &cfg).unwrap_or_else(|e| fatal("traced setup", e));
        let x = traced_solve(t, &mut f, &cfg, &b);
        ops.record(x.as_ref().is_some_and(|x| fingerprint(x) == want_x), || {
            "traced solve differs from Pdslin::solve".to_string()
        });
        replay_kernels(t, &f, &cfg);
        let stepped = traced_refactor(t, &mut f, &cfg, a1);
        // The checked solve after the step goes to a recorder of its
        // own, so it does not count into this repetition's solve spans.
        let x1 = traced_solve(&Tracer::new("discarded"), &mut f, &cfg, &b);
        ops.record(
            stepped.is_ok() && x1.as_ref().is_some_and(|x| fingerprint(x) == want_x1),
            || format!("traced refactor {stepped:?} differs from Pdslin::update_values"),
        );
    }

    let phases = [
        "partition",
        "extract",
        "lu_d",
        "interface",
        "schur.assemble",
        "lu_s",
    ];
    let covered: f64 = phases.iter().map(|p| t.best_total(p)).sum();
    t.count("trace.setup_coverage", covered / untraced_s);
    t.count("trace.overhead_ratio", t.best_total("setup") / untraced_s);

    // Two workers, ungated: on a shared 2-core host this is a record,
    // not a claim.
    std::env::set_var(pdslin::par::THREADS_ENV, "2");
    let (two_threads_s, _) = untraced_setup(a, cfg, 1);
    host::pin_threads();
    t.count("par.setup_speedup_t2", untraced_s / two_threads_s);
    want_x
}

/// The refactor step in the build without the function-alignment flag
/// (`refactor_probe`, built by `run.sh` beside this binary): what the
/// step costs in a binary built the way the root workspace builds what
/// users run. `None` when this binary was not started through `run.sh`.
fn shipped_build_refactor_s(w: Workload) -> Option<f64> {
    let probe = out_dir().parent()?.join("shipped/release/refactor_probe");
    let out = Command::new(probe)
        .args(["--workload", w.name()])
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// One counter of the daemon's `metrics` reply.
fn counter(daemon: &mut Daemon, key: &str) -> f64 {
    let metrics = daemon
        .request("{\"id\":\"m\",\"op\":\"metrics\"}")
        .unwrap_or_else(|e| fatal("metrics", e));
    metrics.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One request, its span, and the queue and solve times the daemon
/// reports about it as child spans.
fn traced_request(
    t: &Tracer,
    daemon: &mut Daemon,
    kind: &'static str,
    item: usize,
    line: &str,
) -> Json {
    let start = t.clock();
    let _s = t.span(kind, Some(item));
    let reply = daemon.request(line).unwrap_or_else(|e| fatal(kind, e));
    let (queue_s, solve_s) = reply_times(&reply);
    let queue_s = queue_s.max(0.0);
    t.closed_span("service.queue", Some(item), start, queue_s);
    t.closed_span("service.solve", Some(item), start + queue_s, solve_s);
    reply
}

/// One fixed script per repetition against a fresh daemon: a cold miss,
/// full hits, one plugged burst, symbolic hits; then replays of what
/// the daemon does before it reaches the solver.
fn trace_service(t: &Tracer, args: &Args, ops: &mut Ops) {
    let script = Script::prepare(args.seed, SCRIPT_SYMBOLIC).unwrap_or_else(|e| fatal("script", e));
    let (base, base_path) = script.base_matrix();

    for rep in 0..=REPS {
        t.set_rep(rep);
        let mut daemon = Daemon::start().unwrap_or_else(|e| fatal("daemon start", e));
        let reply = traced_request(t, &mut daemon, "service.miss", 0, &script.base_line);
        script.check_base(ops, &reply, "miss");
        for item in 1..=SCRIPT_HITS {
            let reply = traced_request(t, &mut daemon, "service.hit", item, &script.base_line);
            script.check_base(ops, &reply, "hit");
        }
        {
            let _s = t.span("service.burst", None);
            let burst = daemon
                .burst(&script.plug, &script.burst)
                .unwrap_or_else(|e| fatal("burst", e));
            script.check_burst(ops, &burst);
        }
        for (i, line) in script.symbolic.iter().enumerate() {
            let item = SCRIPT_HITS + 1 + i;
            let reply = traced_request(t, &mut daemon, "service.symbolic", item, line);
            script.check_symbolic(ops, i, &reply);
        }
        for (name, key) in [
            ("service.full_hits", "full_hits"),
            ("service.symbolic_hits", "symbolic_hits"),
            ("service.setups", "setups"),
            ("service.batches", "batches"),
        ] {
            let value = counter(&mut daemon, key);
            t.count(name, value);
        }
        daemon.stop().unwrap_or_else(|e| fatal("shutdown", e));

        {
            let _s = t.span("service.mm_read", None);
            std::hint::black_box(sparsekit::io::read_matrix_market(base_path).is_ok());
        }
        {
            let _s = t.span("service.fingerprint", None);
            std::hint::black_box((
                sparsekit::csr_pattern_fingerprint(base),
                sparsekit::csr_value_fingerprint(base),
            ));
        }
        let _s = t.span("service.parse", None);
        std::hint::black_box(pdslin_service::parse_request(&script.base_line).is_ok());
    }
}

fn main() {
    let args = Args::parse("bench_trace");
    host::pin_threads();
    let steal_at_start_s = host::steal_s();
    let mut canary = Canary::default();
    canary.tick();
    let w = args.workload;
    let t = Tracer::new(w.name());
    let mut ops = Ops::default();

    let a = w.matrix();
    let x_fingerprint = trace_library(&t, &args, &a, &mut ops);
    canary.tick();
    if w == Workload::ServiceMixed {
        trace_service(&t, &args, &mut ops);
    }
    canary.tick();
    let shipped_s = shipped_build_refactor_s(w).unwrap_or_else(|| {
        eprintln!("bench_trace: no unaligned refactor_probe (start through run.sh); reporting 0");
        0.0
    });

    let path = out_dir().join(format!("trace-{}.jsonl", w.name()));
    t.write(&path)
        .unwrap_or_else(|e| fatal("writing the trace", e));
    println!("trace written to {}", path.display());

    let time = |name, span| Metric::single(name, "s", t.best_total(span));
    let count = |name, unit| Metric::single(name, unit, t.counted(name));
    let metrics = vec![
        time("partition.time_s", "partition"),
        count("partition.separator_size", "count"),
        count("partition.dim_balance", "ratio"),
        count("partition.nnz_d_balance", "ratio"),
        count("partition.col_e_balance", "ratio"),
        count("partition.nnz_e_balance", "ratio"),
        time("extract.time_s", "extract"),
        time("lu_d.order_time_s", "lu_d.order"),
        time("lu_d.factor_time_s", "lu_d.factor"),
        Metric::single("lu_d.max_domain_time_s", "s", t.best_max("lu_d.domain")),
        count("lu_d.fill_ratio", "ratio"),
        time("rhs_order.time_s", "rhs_order"),
        count("rhs_order.padding_fraction", "ratio"),
        time("interface.time_s", "interface"),
        Metric::single(
            "interface.max_domain_time_s",
            "s",
            t.best_max("interface.domain"),
        ),
        count("interface.nnz_t", "count"),
        time("spgemm.time_s", "spgemm"),
        count("spgemm.flops", "flop"),
        count("spgemm.nnz_out", "count"),
        time("schur.assemble_time_s", "schur.assemble"),
        count("schur.nnz_s", "count"),
        time("lu_s.time_s", "lu_s"),
        count("lu_s.fill_ratio", "ratio"),
        time("solve.reduce_time_s", "solve.reduce"),
        time("solve.backsolve_time_s", "solve.backsolve"),
        time("krylov.time_s", "krylov"),
        count("krylov.iters", "count"),
        time("krylov.schur_apply_time_s", "krylov.schur_apply"),
        time("krylov.precond_time_s", "krylov.precond"),
        time("trisolve.time_s", "trisolve"),
        count("trisolve.levels", "count"),
        time("spmv.time_s", "spmv"),
        count("spmv.bytes_computed", "bytes"),
        time("refactor.time_s", "refactor"),
        Metric::single("refactor.shipped_build_time_s", "s", shipped_s),
        time("refactor.extract_time_s", "refactor.extract"),
        time("refactor.lu_d_time_s", "refactor.lu_d"),
        time("refactor.comp_s_time_s", "refactor.comp_s"),
        time("refactor.lu_s_time_s", "refactor.lu_s"),
        time("service.mm_read_time_s", "service.mm_read"),
        time("service.fingerprint_time_s", "service.fingerprint"),
        time("service.parse_time_s", "service.parse"),
        time("service.queue_time_s", "service.queue"),
        time("service.solve_time_s", "service.solve"),
        count("service.full_hits", "count"),
        count("service.symbolic_hits", "count"),
        count("service.setups", "count"),
        count("service.batches", "count"),
        count("trace.setup_coverage", "ratio"),
        count("trace.overhead_ratio", "ratio"),
        count("par.setup_speedup_t2", "ratio"),
        Metric::single("host.canary_s", "s", canary.best()),
        Metric::single("host.canary_drift", "ratio", canary.drift()),
        Metric::single("host.runq_wait_s", "s", host::runq_wait_s().unwrap_or(0.0)),
    ];
    Report {
        program: "bench_trace",
        args: &args,
        sizes: w.sizes_json(),
        x_fingerprint,
        metrics,
        ops,
        canary,
        // Left to the scheduler: par.setup_speedup_t2 needs both cores.
        cores: None,
        steal_at_start_s,
    }
    .print();
}
