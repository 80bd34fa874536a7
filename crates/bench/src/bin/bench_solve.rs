//! Solve-phase benchmark: parallel SpMV, level-scheduled triangular
//! solves, end-to-end `Pdslin::solve` across worker counts, and batched
//! `Pdslin::solve_many` across batch sizes, with machine-readable
//! speedups in `BENCH_solve.json`.
//!
//! Every parallel result is checked for **exact** equality against the
//! serial run (the solve-phase kernels promise byte-identical output);
//! a mismatch aborts the process, which is what the CI smoke step
//! relies on. Speedups are recorded for trajectory tracking but never
//! asserted — CI runners (and single-core hosts) make them meaningless
//! to gate on.

use matgen::{MatrixKind, Scale};
use pdslin::{Pdslin, PdslinConfig};
use sparsekit::Csr;
use std::time::Instant;

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
) {
    let speedup = if seconds > 0.0 {
        serial_seconds / seconds
    } else {
        0.0
    };
    println!(
        "{problem:<16} {kernel:<14} w={workers} b={batch:<3} {:>10.4}s  speedup {speedup:>5.2}x  match={matches_serial}",
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
    });
}

fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (((i * 31 + seed * 7) % 23) as f64) - 11.0)
        .collect()
}

/// Chunked SpMV (`Csr::matvec_into_workers`), exact-equality checked.
fn bench_matvec(rows: &mut Vec<SolveRow>, problem: &str, a: &Csr, reps: usize) {
    let x = rhs_for(a.ncols(), 1);
    let mut y = vec![0.0; a.nrows()];
    let mut serial: Option<(Vec<f64>, f64)> = None;
    for &w in &WORKERS {
        a.matvec_into_workers(&x, &mut y, w); // warm-up
        let t0 = Instant::now();
        for _ in 0..reps {
            a.matvec_into_workers(&x, &mut y, w);
        }
        let secs = t0.elapsed().as_secs_f64();
        let (matches, serial_secs) = match &serial {
            None => {
                serial = Some((y.clone(), secs));
                (true, secs)
            }
            Some((ref_y, ref_secs)) => (y == *ref_y, *ref_secs),
        };
        push_row(rows, problem, "matvec", w, 1, secs, serial_secs, matches, 0);
    }
}

/// Level-scheduled subdomain triangular solves on the cached `LU(D)`
/// plans, exact-equality checked on the concatenated solutions.
fn bench_trisolve(rows: &mut Vec<SolveRow>, problem: &str, a: &Csr, reps: usize) {
    let part = pdslin::compute_partition(a, 4, &pdslin::PartitionerKind::Ngd);
    let sys = pdslin::extract_dbbd(a, part);
    let factors: Vec<_> = sys
        .domains
        .iter()
        .map(|d| pdslin::subdomain::factor_domain(&d.d, 0.1).expect("subdomain LU"))
        .collect();
    let bs: Vec<Vec<f64>> = sys.domains.iter().map(|d| rhs_for(d.dim(), 2)).collect();
    let mut xs: Vec<Vec<f64>> = sys.domains.iter().map(|d| vec![0.0; d.dim()]).collect();
    let mut tris: Vec<slu::TriScratch> =
        sys.domains.iter().map(|_| slu::TriScratch::new()).collect();
    let mut serial: Option<(Vec<Vec<f64>>, f64)> = None;
    for &w in &WORKERS {
        for ((fd, b), (x, tri)) in factors.iter().zip(&bs).zip(xs.iter_mut().zip(&mut tris)) {
            fd.lu.solve_into(b, x, tri, w); // warm-up
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for ((fd, b), (x, tri)) in factors.iter().zip(&bs).zip(xs.iter_mut().zip(&mut tris)) {
                fd.lu.solve_into(b, x, tri, w);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let (matches, serial_secs) = match &serial {
            None => {
                serial = Some((xs.clone(), secs));
                (true, secs)
            }
            Some((ref_xs, ref_secs)) => (xs == *ref_xs, *ref_secs),
        };
        push_row(
            rows,
            problem,
            "trisolve",
            w,
            1,
            secs,
            serial_secs,
            matches,
            0,
        );
    }
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
        );
    }
    std::env::remove_var(pdslin::par::THREADS_ENV);
}

/// Batched `Pdslin::solve_many` vs the same solves issued sequentially,
/// exact-equality checked per right-hand side (solution, iteration
/// count, and method label all have to agree), at `PDSLIN_THREADS =
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
                .all(|(s, m)| s.x == m.x && s.iterations == m.iterations && s.method == m.method);
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
        );
    }
    std::env::remove_var(pdslin::par::THREADS_ENV);
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let (nx, ny, reps) = match scale {
        Scale::Test => (50, 50, 20),
        Scale::Bench => (200, 200, 50),
    };
    let laplace = matgen::stencil::laplace2d(nx, ny);
    let laplace_name = format!("laplace2d({nx},{ny})");
    let circuits = [MatrixKind::G3Circuit, MatrixKind::Asic680ks];

    let mut rows = Vec::new();
    println!("Solve-phase benchmark: serial vs parallel (workers 1/2/4)\n");
    bench_matvec(&mut rows, &laplace_name, &laplace, reps);
    bench_trisolve(&mut rows, &laplace_name, &laplace, reps);
    bench_solve(&mut rows, &laplace_name, &laplace);
    for threads in [1, 4] {
        bench_solve_many(&mut rows, &laplace_name, &laplace, threads);
    }
    for kind in circuits {
        let a = matgen::generate(kind, scale);
        bench_matvec(&mut rows, kind.name(), &a, reps);
        bench_trisolve(&mut rows, kind.name(), &a, reps);
    }
    pdslin_bench::write_json("BENCH_solve", &rows);
    println!("\nall parallel results matched serial exactly");
}
