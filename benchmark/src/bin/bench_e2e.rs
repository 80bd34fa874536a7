//! `bench_e2e --workload <name> --seed <u64>`: one workload in one
//! process, untraced. Prints every end-to-end metric by name with unit,
//! n, best, median and p90, then a stamp line, then the result line.
//!
//! All timings are taken here, around public calls, on the process's
//! processor-time clock (`host::cpu_s` says why not on a wall clock).

use std::hint::black_box;

use pdslin::Pdslin;
use pdslin_benchmark::args::Args;
use pdslin_benchmark::fatal;
use pdslin_benchmark::host::{self, Canary, Cores, CpuMark};
use pdslin_benchmark::oracle::{fingerprint, Ops};
use pdslin_benchmark::report::{Metric, Report, Samples};
use pdslin_benchmark::service::{Daemon, Script};
use pdslin_benchmark::workloads::{drifted, rhs, rhs_batch, Workload, BATCH};

// A run is a number of identical rounds after one discarded warm-up
// round. Every round takes one sample of every metric (a few of the
// cheap ones), so the samples of each metric are spread over the whole
// run and a burst of interference on a shared host cannot hit all the
// repetitions of one metric and none of another.
const ROUNDS: usize = 8;
const SERVICE_ROUNDS: usize = 40;
/// Full-hit round trips a round of `service_mixed`, each one `solve_s`
/// sample. The host alternates between two speeds some 1.4x apart in
/// phases of 0.1 s to seconds, so what repeats from run to run is the
/// floor, and a 1 ms sample finds it where a 10 ms one straddles a
/// switch: over ten runs the fastest of 3200 single trips spread 1.1 %,
/// the fastest of 320 means of ten 2-3 %, any quantile 15-30 %.
const HITS_PER_ROUND: usize = 80;
const BURSTS_PER_ROUND: usize = 3;

/// Warm solves and `solve_many` batches a round: more where they are
/// cheap (5-7 ms a solve), so the best-of has samples to choose from.
fn warm_reps(w: Workload) -> (usize, usize) {
    match w {
        Workload::CircuitKrylov => (3, 1),
        _ => (20, 3),
    }
}

#[derive(Default)]
struct Measured {
    setup: Samples,
    tts: Samples,
    solve: Samples,
    rhs_rate: Samples,
    refactor: Samples,
    x_fingerprint: u64,
    ops: Ops,
}

/// The three library workloads: `Pdslin` called directly.
fn run_library(args: &Args, canary: &mut Canary, cores: &mut Cores) -> Measured {
    let w = args.workload;
    let a = w.matrix();
    let a1 = &drifted(&a);
    let cfg = w.config();
    let n = a.nrows();
    let b = rhs(args.seed, 0, n);
    let batch = rhs_batch(args.seed, n);
    let mut m = Measured::default();

    let (solves, batches) = warm_reps(w);
    let mut solver: Option<Pdslin> = None;
    for round in 0..=ROUNDS {
        let keep = round > 0;
        if round == ROUNDS / 2 + 1 {
            canary.tick();
        }
        // Drop the previous solver first, so the peak resident set is
        // one solver plus its matrix.
        drop(solver.take());
        cores.settle();
        let t = CpuMark::now();
        let s =
            solver.insert(Pdslin::setup(black_box(&a), cfg).unwrap_or_else(|e| fatal("setup", e)));
        let setup_s = t.elapsed_s();
        // The first solve on a fresh solver: cold arenas, lazy plans.
        let out = s.solve(black_box(&b));
        let tts_s = t.elapsed_s();
        m.ops.solve(&a, &b, &out);
        if keep {
            m.setup.push(setup_s);
            m.tts.push(tts_s);
        } else {
            m.x_fingerprint = out.as_ref().map_or(0, |o| fingerprint(&o.x));
        }

        cores.settle();
        for _ in 0..solves {
            let t = CpuMark::now();
            let out = s.solve(black_box(&b));
            let dt = t.elapsed_s();
            m.ops.solve(&a, &b, &out);
            if keep {
                m.solve.push(dt);
            }
        }

        for _ in 0..batches {
            cores.settle();
            let t = CpuMark::now();
            let outs = s.solve_many(black_box(&batch));
            let dt = t.elapsed_s();
            match outs {
                Ok(outs) => {
                    for (bj, out) in batch.iter().zip(outs) {
                        m.ops.solve(&a, bj, &Ok(out));
                    }
                }
                Err(e) => m.ops.record(false, || format!("solve_many: {e}")),
            }
            if keep {
                m.rhs_rate.push(BATCH as f64 / dt);
            }
        }

        cores.settle();
        let t = CpuMark::now();
        let upd = s.update_values(black_box(a1));
        let dt = t.elapsed_s();
        // A step that fell back to a rebuild is a failed operation, not
        // a slow sample.
        match &upd {
            Ok(u) => m.ops.record(u.rebuilt == 0, || {
                format!("update rebuilt {} factors", u.rebuilt)
            }),
            Err(e) => m.ops.record(false, || format!("update_values: {e}")),
        }
        let out = s.solve(&b);
        m.ops.solve(a1, &b, &out);
        if keep {
            m.refactor.push(dt);
        }
    }
    m
}

/// `service_mixed`: the same four operations as daemon round trips.
fn run_service(args: &Args, canary: &mut Canary, cores: &mut Cores) -> Measured {
    let script =
        Script::prepare(args.seed, SERVICE_ROUNDS + 1).unwrap_or_else(|e| fatal("script", e));
    let mut m = Measured {
        x_fingerprint: script.x_fingerprint(),
        ..Measured::default()
    };

    for (round, symbolic_line) in script.symbolic.iter().enumerate() {
        let keep = round > 0;
        if round == SERVICE_ROUNDS / 2 + 1 {
            canary.tick();
        }
        // The daemon's threads start on, and stay on, the core the
        // harness is pinned to now.
        cores.settle();
        // Cold miss on a fresh Service: tts_s is the round trip (read +
        // fingerprint + setup + solve + reply), setup_s that plus
        // Service::start.
        let t0 = CpuMark::now();
        let mut daemon = Daemon::start().unwrap_or_else(|e| fatal("daemon start", e));
        let started_s = t0.elapsed_s();
        let reply = daemon
            .request(&script.base_line)
            .unwrap_or_else(|e| fatal("cold miss", e));
        let setup_s = t0.elapsed_s();
        script.check_base(&mut m.ops, &reply, "miss");
        if keep {
            m.setup.push(setup_s);
            m.tts.push(setup_s - started_s);
        }

        // Full hit: the same spec again, inline 3600-entry rhs.
        for _ in 0..HITS_PER_ROUND {
            let t = CpuMark::now();
            let reply = daemon
                .request(&script.base_line)
                .unwrap_or_else(|e| fatal("full hit", e));
            let dt = t.elapsed_s();
            script.check_base(&mut m.ops, &reply, "hit");
            if keep {
                m.solve.push(dt);
            }
        }

        // A pipelined burst of 16 requests behind a plug, which the
        // worker serves as one solve_many batch.
        for _ in 0..BURSTS_PER_ROUND {
            let burst = daemon
                .burst(&script.plug, &script.burst)
                .unwrap_or_else(|e| fatal("burst", e));
            script.check_burst(&mut m.ops, &burst);
            if keep {
                m.rhs_rate.push(BATCH as f64 / burst.cpu_s);
            }
        }

        // Symbolic hit: the same pattern under a fresh value set, so
        // the daemon replays numerics with update_values and solves.
        let t = CpuMark::now();
        let reply = daemon
            .request(symbolic_line)
            .unwrap_or_else(|e| fatal("symbolic hit", e));
        let dt = t.elapsed_s();
        script.check_symbolic(&mut m.ops, round, &reply);
        if keep {
            m.refactor.push(dt);
        }
        daemon.stop().unwrap_or_else(|e| fatal("shutdown", e));
    }
    m
}

fn main() {
    let args = Args::parse("bench_e2e");
    host::pin_threads();
    let mut cores = Cores::pin();
    let steal_at_start_s = host::steal_s();
    let mut canary = Canary::default();
    canary.tick();
    let m = match args.workload {
        Workload::ServiceMixed => run_service(&args, &mut canary, &mut cores),
        _ => run_library(&args, &mut canary, &mut cores),
    };
    canary.tick();
    let peak = host::peak_rss_mb().unwrap_or(f64::NAN);
    Report {
        program: "bench_e2e",
        args: &args,
        sizes: args.workload.sizes_json(),
        x_fingerprint: m.x_fingerprint,
        metrics: vec![
            Metric::sampled("setup_s", "s", m.setup.min(), m.setup),
            Metric::sampled("tts_s", "s", m.tts.min(), m.tts),
            Metric::sampled("solve_s", "s", m.solve.min(), m.solve),
            Metric::sampled("rhs_per_s", "1/s", m.rhs_rate.max(), m.rhs_rate),
            Metric::sampled("refactor_s", "s", m.refactor.min(), m.refactor),
            Metric::single("peak_rss_mb", "MB", peak),
        ],
        ops: m.ops,
        canary,
        cores: Some(cores),
        steal_at_start_s,
    }
    .print();
}
