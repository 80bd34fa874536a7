//! Solve-phase benchmark: end-to-end `Pdslin::solve` across thread
//! counts, batched `Pdslin::solve_many` across batch sizes, and one
//! Schur apply with restricted `LU(D_ℓ)` sweeps against full sweeps on
//! every Table-I matrix, with machine-readable speedups in
//! `BENCH_solve.json`.
//!
//! A single solve runs every kernel on one thread whatever the thread
//! count, so its rows show what the thread setting costs a plain solve;
//! a batch fans its right-hand sides out over workers. Every result is
//! checked for **exact** equality against the one-thread run (the solve
//! phase promises byte-identical output); a mismatch aborts the process,
//! which is what the CI smoke step relies on. A `schur_apply` row's
//! `serial_seconds` is the full-sweep apply and its `kept_share` the
//! share of the dependency entries the restricted sweeps keep; the two
//! applies must agree bit for bit. A `plan_refresh` row times
//! `SolvePlan::refresh_numeric` (`seconds`) against `SolvePlan::build`
//! (`serial_seconds`) on every factor a value update refactorized, over
//! `dep_slots` dependency slots; the refreshed plans must equal the built
//! ones. Speedups are recorded for trajectory tracking but never asserted
//! — CI runners (and single-core hosts) make them meaningless to gate on.

use std::cell::RefCell;
use std::time::Instant;

use krylov::LinearOperator;
use matgen::{MatrixKind, Scale};
use pdslin::subdomain::FactoredDomain;
use pdslin::{DbbdSystem, ImplicitSchur, Pdslin, PdslinConfig, SchurApplyScratch, SchurSweeps};
use slu::{LuFactors, SolvePlan, TriScratch};
use sparsekit::Csr;

pdslin_bench::json_record! {
    struct SolveRow {
        problem: String,
        kernel: String,
        workers: usize,
        batch: usize,
        seconds: f64,
        serial_seconds: f64,
        speedup: f64,
        matches_serial: bool,
        iterations: usize,
        kept_share: f64,
        dep_slots: usize,
    }
}

const WORKERS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 3] = [1, 8, 64];

#[allow(clippy::too_many_arguments)]
fn push_row(
    rows: &mut Vec<SolveRow>,
    problem: &str,
    kernel: &str,
    workers: usize,
    batch: usize,
    seconds: f64,
    serial_seconds: f64,
    matches_serial: bool,
    iterations: usize,
    kept_share: f64,
    dep_slots: usize,
) {
    let speedup = if seconds > 0.0 {
        serial_seconds / seconds
    } else {
        0.0
    };
    println!(
        "{problem:<16} {kernel:<14} w={workers} b={batch:<3} {:>10.6}s  speedup {speedup:>5.2}x  \
         kept {kept_share:.3}  match={matches_serial}",
        seconds
    );
    assert!(
        matches_serial,
        "{problem}/{kernel} with {workers} workers (batch {batch}) diverged from the serial result"
    );
    rows.push(SolveRow {
        problem: problem.to_string(),
        kernel: kernel.to_string(),
        workers,
        batch,
        seconds,
        serial_seconds,
        speedup,
        matches_serial,
        iterations,
        kept_share,
        dep_slots,
    });
}

fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (((i * 31 + seed * 7) % 23) as f64) - 11.0)
        .collect()
}

/// End-to-end `Pdslin::solve` with `PDSLIN_THREADS` bounding the total
/// concurrency; the solution vector is exact-equality checked across
/// worker counts. The timed solve is the *second* one, so the arenas
/// are already grown and the measurement reflects steady state.
fn bench_solve(rows: &mut Vec<SolveRow>, problem: &str, a: &Csr) {
    let b = rhs_for(a.nrows(), 3);
    let mut serial: Option<(Vec<f64>, f64)> = None;
    for &w in &WORKERS {
        std::env::set_var(pdslin::par::THREADS_ENV, w.to_string());
        let cfg = PdslinConfig {
            k: 4,
            parallel: w > 1,
            ..Default::default()
        };
        let mut solver = Pdslin::setup(a, cfg).expect("setup");
        solver.solve(&b).expect("warm-up solve");
        let t0 = Instant::now();
        let out = solver.solve(&b).expect("solve");
        let secs = t0.elapsed().as_secs_f64();
        let (matches, serial_secs) = match &serial {
            None => {
                serial = Some((out.x.clone(), secs));
                (true, secs)
            }
            Some((ref_x, ref_secs)) => (out.x == *ref_x, *ref_secs),
        };
        push_row(
            rows,
            problem,
            "solve",
            w,
            1,
            secs,
            serial_secs,
            matches,
            out.iterations,
            solver.schur_apply_kept_share(),
            0,
        );
    }
    std::env::remove_var(pdslin::par::THREADS_ENV);
}

/// Batched `Pdslin::solve_many` vs the same solves issued sequentially,
/// exact-equality checked per right-hand side (solution and iteration
/// count both have to agree), at `PDSLIN_THREADS =
/// threads`. One thread is the lockstep-lane path alone (what the
/// end-to-end benchmark measures); four adds the fan-out across
/// workers.
fn bench_solve_many(rows: &mut Vec<SolveRow>, problem: &str, a: &Csr, threads: usize) {
    std::env::set_var(pdslin::par::THREADS_ENV, threads.to_string());
    let cfg = PdslinConfig {
        k: 4,
        parallel: true,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(a, cfg).expect("setup");
    for &batch in &BATCHES {
        let rhs: Vec<Vec<f64>> = (0..batch).map(|s| rhs_for(a.nrows(), s)).collect();
        let t0 = Instant::now();
        let seq: Vec<_> = rhs
            .iter()
            .map(|b| solver.solve(b).expect("sequential solve"))
            .collect();
        let seq_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let many = solver.solve_many(&rhs).expect("batched solve");
        let secs = t0.elapsed().as_secs_f64();
        let matches = seq.len() == many.len()
            && seq
                .iter()
                .zip(&many)
                .all(|(s, m)| s.x == m.x && s.iterations == m.iterations);
        let iterations = many.iter().map(|o| o.iterations).max().unwrap_or(0);
        push_row(
            rows,
            problem,
            "solve_many",
            threads,
            batch,
            secs,
            seq_secs,
            matches,
            iterations,
            solver.schur_apply_kept_share(),
            0,
        );
    }
    std::env::remove_var(pdslin::par::THREADS_ENV);
}

/// `out = C y − Σ_ℓ F̂_ℓ D_ℓ⁻¹ (Ê_ℓ y)` with full `LU(D_ℓ)` sweeps, the
/// kernels in the operator's order; `bufs` holds the per-domain vectors
/// so that no apply allocates.
fn full_schur_apply(
    sys: &DbbdSystem,
    factors: &[FactoredDomain],
    y: &[f64],
    out: &mut [f64],
    bufs: &mut [Vec<f64>; 4],
    tri: &mut TriScratch,
) {
    let [ysub, v, t, w] = bufs;
    sys.c.matvec_into(y, out);
    for (dom, fd) in sys.domains.iter().zip(factors) {
        let (dim, ncols, nrows) = (dom.dim(), dom.e_cols.len(), dom.f_rows.len());
        for (slot, &c) in ysub[..ncols].iter_mut().zip(&dom.e_cols) {
            *slot = y[c];
        }
        dom.e_hat.matvec_into(&ysub[..ncols], &mut v[..dim]);
        fd.lu.solve_into(&v[..dim], &mut t[..dim], tri, 1);
        dom.f_hat.matvec_into(&t[..dim], &mut w[..nrows]);
        for (wl, &r) in w[..nrows].iter().zip(&dom.f_rows) {
            out[r] -= wl;
        }
    }
}

/// Best wall times of `reps` calls each of `f` and `g`, interleaved
/// (the order alternating per rep) so that neither gets a colder host.
fn best_of_pair(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let time = |h: &mut dyn FnMut()| {
        let t0 = Instant::now();
        h();
        t0.elapsed().as_secs_f64()
    };
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        if rep % 2 == 0 {
            best_f = best_f.min(time(&mut f));
            best_g = best_g.min(time(&mut g));
        } else {
            best_g = best_g.min(time(&mut g));
            best_f = best_f.min(time(&mut f));
        }
    }
    (best_f, best_g)
}

/// One Schur apply on one thread: the operator GMRES runs (restricted
/// `LU(D_ℓ)` sweeps) against the same apply with full sweeps. Records
/// the best time per apply of both (30 interleaved reps) and the kept
/// share of the dependency entries; the two outputs must agree bit for
/// bit.
fn bench_schur_apply(rows: &mut Vec<SolveRow>, problem: &str, a: &Csr) {
    let cfg = PdslinConfig {
        k: 8,
        ..Default::default()
    };
    let solver = Pdslin::setup(a, cfg).expect("setup");
    let (sys, factors) = (&solver.sys, &solver.factors[..]);
    let sweeps = SchurSweeps::new(sys, factors);
    let scratch = RefCell::new(SchurApplyScratch::new());
    let op = ImplicitSchur::new(sys, factors, &sweeps, &scratch);
    let ns = sys.nsep();
    let y = rhs_for(ns, 5);
    let widest = sys.domains.iter().map(|d| d.dim()).max().unwrap_or(0);
    let mut bufs: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; widest.max(ns)]);
    let mut tri = TriScratch::new();
    let (mut restricted, mut full) = (vec![0.0; ns], vec![0.0; ns]);
    let (secs, full_secs) = best_of_pair(
        30,
        || op.apply(&y, &mut restricted),
        || full_schur_apply(sys, factors, &y, &mut full, &mut bufs, &mut tri),
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let matches = bits(&restricted) == bits(&full);
    let kept = sweeps.kept_share();
    push_row(
        rows,
        problem,
        "schur_apply",
        1,
        1,
        secs,
        full_secs,
        matches,
        0,
        kept,
        0,
    );
}

/// Every `LU(D_ℓ)` factor of `solver`, then its `LU(S̃)`.
fn factors_of(solver: &Pdslin) -> Vec<&LuFactors> {
    let domains = solver.factors.iter().map(|fd| &fd.lu);
    domains.chain([&solver.schur_lu]).collect()
}

/// `SolvePlan::refresh_numeric` against `SolvePlan::build` on one thread,
/// on every factor of one set-up after `update_values` replayed it under
/// values drifted by 1 %. Records the best total time of each over the
/// factors (5 interleaved reps) and the dependency slots; both the plans
/// `update_values` refreshed and stale copies refreshed here must equal
/// fresh builds.
fn bench_plan_refresh(rows: &mut Vec<SolveRow>, problem: &str, a: &Csr) {
    let cfg = PdslinConfig {
        k: 8,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(a, cfg).expect("setup");
    solver.solve(&rhs_for(a.nrows(), 1)).expect("solve");
    let mut refreshed: Vec<SolvePlan> = factors_of(&solver)
        .into_iter()
        .map(|lu| lu.solve_plan().clone())
        .collect();
    let drifted = matgen::sequence(a, 2, 0.01).swap_remove(1);
    let update = solver.update_values(&drifted).expect("update_values");
    assert_eq!(
        update.rebuilt, 0,
        "{problem}: a factor was rebuilt, not replayed"
    );
    let factors = factors_of(&solver);
    let mut built = Vec::new();
    let (secs, build_secs) = best_of_pair(
        5,
        || {
            for (plan, lu) in refreshed.iter_mut().zip(&factors) {
                plan.refresh_numeric(&lu.l, &lu.u);
            }
        },
        || {
            built = factors
                .iter()
                .map(|lu| SolvePlan::build(&lu.l, &lu.u, &lu.row_perm, &lu.col_perm))
                .collect();
        },
    );
    let matches = refreshed == built
        && factors
            .iter()
            .zip(&built)
            .all(|(lu, p)| lu.solve_plan() == p);
    let slots = built
        .iter()
        .map(|p| p.dep_entries().0 + p.dep_entries().1)
        .sum();
    push_row(
        rows,
        problem,
        "plan_refresh",
        1,
        1,
        secs,
        build_secs,
        matches,
        0,
        0.0,
        slots,
    );
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let (nx, ny) = match scale {
        Scale::Test => (50, 50),
        Scale::Bench => (200, 200),
    };
    let laplace = matgen::stencil::laplace2d(nx, ny);
    let laplace_name = format!("laplace2d({nx},{ny})");
    let circuits = [MatrixKind::G3Circuit, MatrixKind::Asic680ks];

    let mut rows = Vec::new();
    println!("Solve-phase benchmark: threads 1/2/4 against one thread\n");
    bench_solve(&mut rows, &laplace_name, &laplace);
    for threads in [1, 4] {
        bench_solve_many(&mut rows, &laplace_name, &laplace, threads);
    }
    for kind in circuits {
        bench_solve(&mut rows, kind.name(), &matgen::generate(kind, scale));
    }
    println!("\nSchur apply: restricted LU(D) sweeps against full sweeps, one thread\n");
    for kind in MatrixKind::ALL {
        bench_schur_apply(&mut rows, kind.name(), &matgen::generate(kind, scale));
    }
    println!("\nPlan refresh after update_values against a fresh plan build, one thread\n");
    for kind in MatrixKind::ALL {
        bench_plan_refresh(&mut rows, kind.name(), &matgen::generate(kind, scale));
    }
    pdslin_bench::write_json("BENCH_solve", &rows);
    println!("\nall results matched the one-thread run (or the full sweeps) exactly");
}
