//! Sequence-solve benchmark: incremental numeric refactorization
//! against paying a full setup per step.
//!
//! Models the time-stepping / continuation workload of the paper's
//! Newton–Krylov consumers: a drifting sequence of matrices sharing one
//! sparsity pattern. Step 0 pays a full `Pdslin::setup`; every later
//! step is applied twice — once through `update_values` (pivot replay,
//! symbolic state reused wholesale) and once through a fresh full setup
//! — and the wall-clock ratio is recorded as `speedup`.
//!
//! Correctness is asserted in-process, the same policy as
//! `bench_solve`: replaying *identical* values must reproduce the
//! original solve bit-for-bit (the `bit_identical` column), and every
//! per-step solve must converge on its own drifted matrix. A second
//! section (`kernel = "stale_probe"`) walks values *backwards* from a
//! heavily perturbed setup matrix under a tight `SequencePolicy`, which
//! must trip the staleness fallback at least once so the recorded run
//! always exercises the full-rebuild recovery path. Timing ratios are
//! recorded but never gated — CI boxes make them meaningless.

use matgen::Scale;
use pdslin::{Pdslin, PdslinConfig};
use sparsekit::Csr;
use std::time::Instant;

pdslin_bench::json_record! {
    struct SequenceRow {
        problem: String,
        kernel: String,
        workers: usize,
        step: usize,
        refactor_seconds: f64,
        full_setup_seconds: f64,
        speedup: f64,
        bit_identical: bool,
        refactorized: bool,
        stale_fallbacks: usize,
        iterations: usize,
    }
}

const WORKERS: [usize; 3] = [1, 2, 4];

fn rhs_for(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + 0.25 * ((i * 2_654_435_761 % 97) as f64 / 97.0))
        .collect()
}

/// Per-step replay-vs-full-setup timing on a forward-drifting sequence.
fn bench_refactorize(
    rows: &mut Vec<SequenceRow>,
    problem: &str,
    a: &Csr,
    steps: usize,
    drift_rate: f64,
) {
    let b = rhs_for(a.nrows());
    let mats = matgen::sequence(a, steps, drift_rate);
    for w in WORKERS {
        std::env::set_var(pdslin::par::THREADS_ENV, w.to_string());
        // `k = 2` puts most of the per-step cost in the domain
        // factorizations, where the pivot replay has the most to reuse;
        // the 1e-5 drop tolerance is the paper's practical operating
        // point and keeps the (shared, non-reusable) Schur sparse
        // products from dominating either side of the ratio.
        let cfg = PdslinConfig {
            k: 2,
            interface_drop_tol: 1e-5,
            schur_drop_tol: 1e-5,
            parallel: w > 1,
            ..Default::default()
        };

        let t0 = Instant::now();
        let mut solver = Pdslin::setup(&mats[0], cfg).expect("setup");
        let setup0 = t0.elapsed().as_secs_f64();
        let base = solver.solve(&b).expect("baseline solve");

        // Bit-identity gate: replaying the exact same values must leave
        // the factors — and therefore the solve — bitwise unchanged.
        let t0 = Instant::now();
        let upd = solver.update_values(&mats[0]).expect("identity update");
        let replay0 = t0.elapsed().as_secs_f64();
        assert_eq!(upd.rebuilt, 0, "identity update must replay every factor");
        let again = solver.solve(&b).expect("post-replay solve");
        let bit_identical = base.x == again.x && base.iterations == again.iterations;
        assert!(
            bit_identical,
            "replaying identical values must be bit-identical (workers={w})"
        );
        rows.push(SequenceRow {
            problem: problem.to_string(),
            kernel: "refactorize".to_string(),
            workers: w,
            step: 0,
            refactor_seconds: replay0,
            full_setup_seconds: setup0,
            speedup: setup0 / replay0,
            bit_identical,
            refactorized: upd.rebuilt == 0,
            stale_fallbacks: 0,
            iterations: again.iterations,
        });

        for (t, m) in mats.iter().enumerate().skip(1) {
            let t0 = Instant::now();
            let upd = solver.update_values(m).expect("update");
            let refactor_seconds = t0.elapsed().as_secs_f64();
            let out = solver.solve(&b).expect("solve after update");
            assert!(
                sparsekit::ops::residual_inf_norm(m, &out.x, &b) < 1e-6,
                "step {t} must solve its own drifted matrix (workers={w})"
            );

            let t0 = Instant::now();
            let mut fresh = Pdslin::setup(m, cfg).expect("fresh setup");
            let full_setup_seconds = t0.elapsed().as_secs_f64();
            let fresh_out = fresh.solve(&b).expect("fresh solve");

            rows.push(SequenceRow {
                problem: problem.to_string(),
                kernel: "refactorize".to_string(),
                workers: w,
                step: t,
                refactor_seconds,
                full_setup_seconds,
                speedup: full_setup_seconds / refactor_seconds,
                bit_identical: out.x == fresh_out.x,
                refactorized: upd.rebuilt == 0,
                stale_fallbacks: 0,
                iterations: out.iterations,
            });
        }
        std::env::remove_var(pdslin::par::THREADS_ENV);
    }
}

/// Reverse-drift walk that must trip the staleness policy: the setup
/// matrix is a heavy perturbation of the base, aggressive drop
/// tolerances make the frozen `S̃` a poor preconditioner for the clean
/// matrices the walk returns to, and a tight policy turns that
/// degradation into a typed stale fallback.
fn bench_stale_probe(rows: &mut Vec<SequenceRow>) {
    // The calibrated walk shared with tests/prop_sequence.rs. (The
    // forward-drift section above shows replay does NOT degrade on
    // well-behaved drifts — manufacturing staleness takes a deliberately
    // hostile setup matrix.)
    let walk = pdslin_bench::stale_walk();
    std::env::set_var(pdslin::par::THREADS_ENV, "1");
    let (mats, rhs, cfg, policy) = (walk.mats, walk.rhs, walk.config, walk.policy);
    let mut solver = Pdslin::setup(&mats[0], cfg).expect("stale-probe setup");
    let seq = solver
        .solve_sequence(&mats, &rhs, &policy)
        .expect("stale-probe sequence");
    let stale_total: usize = seq.iter().filter(|s| s.stale_fallback).count();
    assert!(
        stale_total >= 1,
        "the reverse-drift walk must trip the staleness policy at least once"
    );
    for (t, s) in seq.iter().enumerate() {
        rows.push(SequenceRow {
            problem: walk.problem.to_string(),
            kernel: "stale_probe".to_string(),
            workers: 1,
            step: t,
            refactor_seconds: s.update_seconds,
            full_setup_seconds: 0.0,
            speedup: 0.0,
            bit_identical: false,
            refactorized: s.refactorized,
            stale_fallbacks: stale_total,
            iterations: s.outcome.iterations,
        });
    }
    std::env::remove_var(pdslin::par::THREADS_ENV);
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let ((nx, ny), steps) = match scale {
        Scale::Test => ((60, 60), 4),
        Scale::Bench => ((200, 200), 8),
    };
    let a = matgen::stencil::laplace2d(nx, ny);
    let problem = format!("laplace2d({nx},{ny})");

    let mut rows = Vec::new();
    bench_refactorize(&mut rows, &problem, &a, steps, 0.02);
    bench_stale_probe(&mut rows);

    println!(
        "{:<18} {:>7} {:>4} {:>12} {:>12} {:>8}  flags",
        "problem", "workers", "step", "refactor", "full setup", "speedup"
    );
    for r in &rows {
        println!(
            "{:<18} {:>7} {:>4} {:>12} {:>12} {:>8.2}  {}{}{}",
            format!("{}/{}", r.problem, r.kernel),
            r.workers,
            r.step,
            pdslin_bench::fmt_secs(r.refactor_seconds),
            pdslin_bench::fmt_secs(r.full_setup_seconds),
            r.speedup,
            if r.bit_identical { "=" } else { "~" },
            if r.refactorized { "r" } else { "R" },
            if r.stale_fallbacks > 0 { "!" } else { "" },
        );
    }

    let refac: Vec<&SequenceRow> = rows
        .iter()
        .filter(|r| r.kernel == "refactorize" && r.step > 0)
        .collect();
    let mean_speedup = refac.iter().map(|r| r.speedup).sum::<f64>() / refac.len() as f64;
    println!("mean refactorize speedup over full setup: {mean_speedup:.2}x");

    pdslin_bench::write_json("BENCH_sequence", &rows);
}
