//! Serial-vs-parallel kernel benchmark: blocked interface solves,
//! two-phase SpGEMM, and end-to-end preconditioner setup across worker
//! counts, with machine-readable speedups in `BENCH_kernels.json`.
//!
//! A second scenario, `lu_dense_crossover`, times the sparse `LU` loop
//! against its dense trailing-block kernel over block density × size
//! (`BENCH_lu_dense.json`); it is the measurement behind the one
//! constant that decides the hand-over (docs/kernels.md).
//!
//! A third, `reach_pruned`, times the symbolic half of the blocked
//! interface solves — `BlockedSolvePlan` for `L` and `Uᵀ` of every
//! subdomain — on the factor's own columns against its pruned
//! `ReachGraph` (`BENCH_reach.json`), asserting equal plans.
//!
//! A fourth, `trisolve_lanes`, sweeps 16 right-hand sides through every
//! subdomain's `LU(D)` plan of the `circuit_krylov` matrix (g3_like at
//! 180×180, k = 8), `W` ∈ {1, 4, 8, 16} lanes per call, against 16
//! single sweeps (`BENCH_trisolve_lanes.json`), asserting that every
//! lane matches its single sweep bit for bit.
//!
//! Every parallel result is checked for **exact** equality against the
//! serial run (the kernels promise byte-identical output); a mismatch
//! aborts the process, which is what the CI smoke step relies on.
//! Speedups are recorded for trajectory tracking but never asserted —
//! CI runners (and single-core hosts) make them meaningless to gate on.

use matgen::{MatrixKind, Scale};
use pdslin::interface::{
    compute_interface_planned, ehat_columns_pivot, fhat_rows_elim, InterfaceConfig,
};
use pdslin::rhs_order::order_columns_precomputed;
use pdslin::{Budget, Pdslin, PdslinConfig, RhsOrdering};
use slu::blocked::BlockedSolvePlan;
use slu::trisolve::lower_from_upper_transpose;
use slu::{LuConfig, LuFactors, ReachGraph};
use sparsekit::spgemm::spgemm_checked;
use sparsekit::{Coo, Csr, Perm, Rng64};
use std::time::Instant;

pdslin_bench::json_record! {
    struct KernelRow {
        problem: String,
        kernel: String,
        workers: usize,
        seconds: f64,
        serial_seconds: f64,
        speedup: f64,
        matches_serial: bool,
        nnz: usize,
        padded_zeros: u64,
    }
}

pdslin_bench::json_record! {
    struct DenseCrossoverRow {
        size: usize,
        density: f64,
        /// `off` (all sparse), `on` (dense from step 0) or `auto`
        /// (the density rule).
        switch: String,
        dense_start: usize,
        factor_seconds: f64,
        refactor_seconds: f64,
        fill: usize,
        same_fill_as_off: bool,
    }
}

pdslin_bench::json_record! {
    struct ReachRow {
        matrix: String,
        /// Below-diagonal entries of `L` and `Uᵀ`, summed over the
        /// eight subdomains, and how many the pruning rule keeps.
        full_edges: usize,
        kept_edges: usize,
        /// Building every subdomain's `G` and `W` plan (B = 60,
        /// postorder): DFS over the factor's own columns vs over the
        /// pruned graph, graph construction included. Best of `reps`.
        plan_full_seconds: f64,
        plan_pruned_seconds: f64,
        speedup: f64,
        identical: bool,
    }
}

pdslin_bench::json_record! {
    struct LanesRow {
        problem: String,
        /// Right-hand sides per `solve_lanes` call; 16 runs as two
        /// groups of `slu::MAX_LANES`.
        lanes: usize,
        rhs: usize,
        /// All `rhs` right-hand sides through every subdomain plan,
        /// `lanes` at a time, and one at a time. Best of `reps`.
        seconds: f64,
        single_seconds: f64,
        speedup: f64,
        matches_single: bool,
    }
}

const WORKERS: [usize; 3] = [1, 2, 4];

#[allow(clippy::too_many_arguments)]
fn push_row(
    rows: &mut Vec<KernelRow>,
    problem: &str,
    kernel: &str,
    workers: usize,
    seconds: f64,
    serial_seconds: f64,
    matches_serial: bool,
    nnz: usize,
    padded_zeros: u64,
) {
    let speedup = if seconds > 0.0 {
        serial_seconds / seconds
    } else {
        0.0
    };
    println!(
        "{problem:<16} {kernel:<12} w={workers}  {:>10.4}s  speedup {speedup:>5.2}x  match={matches_serial}",
        seconds
    );
    assert!(
        matches_serial,
        "{problem}/{kernel} with {workers} workers diverged from the serial result"
    );
    rows.push(KernelRow {
        problem: problem.to_string(),
        kernel: kernel.to_string(),
        workers,
        seconds,
        serial_seconds,
        speedup,
        matches_serial,
        nnz,
        padded_zeros,
    });
}

/// `A·A` with the two-phase SpGEMM, exact-equality checked.
fn bench_spgemm(rows: &mut Vec<KernelRow>, problem: &str, a: &Csr) {
    let budget = Budget::unlimited();
    let mut serial: Option<(Csr, f64)> = None;
    for &w in &WORKERS {
        let t0 = Instant::now();
        let c = spgemm_checked(a, a, &budget, w).expect("unlimited budget");
        let secs = t0.elapsed().as_secs_f64();
        let (matches, serial_secs, nnz) = match &serial {
            None => {
                let nnz = c.nnz();
                serial = Some((c, secs));
                (true, secs, nnz)
            }
            Some((ref_c, ref_secs)) => (c == *ref_c, *ref_secs, c.nnz()),
        };
        push_row(
            rows,
            problem,
            "spgemm",
            w,
            secs,
            serial_secs,
            matches,
            nnz,
            0,
        );
    }
}

/// Per-subdomain interface phase (`G`/`W` solves + `T̃` product) with
/// intra-subdomain workers, exact-equality checked on every `T̃`.
fn bench_interface(rows: &mut Vec<KernelRow>, problem: &str, a: &Csr) {
    let part = pdslin::compute_partition(a, 4, &pdslin::PartitionerKind::Ngd);
    let sys = pdslin::extract_dbbd(a, part);
    let factors: Vec<_> = sys
        .domains
        .iter()
        .map(|d| pdslin::subdomain::factor_domain(&d.d, 0.1).expect("subdomain LU"))
        .collect();
    let cfg = InterfaceConfig {
        block_size: 60,
        ordering: RhsOrdering::Postorder,
        drop_tol: 1e-8,
    };
    let budget = Budget::unlimited();
    let mut serial: Option<(Vec<Csr>, f64, u64)> = None;
    for &w in &WORKERS {
        let t0 = Instant::now();
        let mut ts = Vec::with_capacity(sys.domains.len());
        let mut padded = 0u64;
        for (dom, fd) in sys.domains.iter().zip(&factors) {
            let (out, _plan) = compute_interface_planned(fd, dom, &cfg, &budget, w, None)
                .expect("unlimited budget");
            padded += out.g_block.padded_zeros;
            ts.push(out.t_tilde);
        }
        let secs = t0.elapsed().as_secs_f64();
        let nnz = ts.iter().map(|t| t.nnz()).sum();
        let (matches, serial_secs) = match &serial {
            None => {
                serial = Some((ts, secs, padded));
                (true, secs)
            }
            Some((ref_ts, ref_secs, ref_padded)) => {
                (ts == *ref_ts && padded == *ref_padded, *ref_secs)
            }
        };
        push_row(
            rows,
            problem,
            "interface",
            w,
            secs,
            serial_secs,
            matches,
            nnz,
            padded,
        );
    }
}

/// End-to-end `Pdslin::setup` with `PDSLIN_THREADS` bounding the total
/// (outer × inner) concurrency; checked on the assembled Schur nnz.
fn bench_setup(rows: &mut Vec<KernelRow>, problem: &str, a: &Csr) {
    let mut serial: Option<(usize, f64)> = None;
    for &w in &WORKERS {
        std::env::set_var(pdslin::par::THREADS_ENV, w.to_string());
        let cfg = PdslinConfig {
            k: 4,
            parallel: w > 1,
            ..Default::default()
        };
        let t0 = Instant::now();
        let solver = Pdslin::setup(a, cfg).expect("setup");
        let secs = t0.elapsed().as_secs_f64();
        let nnz_schur = solver.stats.nnz_schur;
        let (matches, serial_secs) = match &serial {
            None => {
                serial = Some((nnz_schur, secs));
                (true, secs)
            }
            Some((ref_nnz, ref_secs)) => (nnz_schur == *ref_nnz, *ref_secs),
        };
        push_row(
            rows,
            problem,
            "setup",
            w,
            secs,
            serial_secs,
            matches,
            nnz_schur,
            0,
        );
    }
    std::env::remove_var(pdslin::par::THREADS_ENV);
}

/// A band matrix of order `m` and half-bandwidth `half`, full inside
/// the band and diagonally dominant: under the natural order its
/// factors fill exactly the band, so the density of the block the
/// kernels work on is the matrix's own, and both paths pick the
/// diagonal at every step (the fills must agree).
fn band_matrix(m: usize, half: usize, rng: &mut Rng64) -> Csr {
    let mut c = Coo::new(m, m);
    for i in 0..m {
        for j in i.saturating_sub(half)..(i + half + 1).min(m) {
            let v = if i == j {
                2.0 * (2 * half + 1) as f64
            } else {
                rng.f64_range(-1.0, 1.0)
            };
            c.push(i, j, v);
        }
    }
    c.to_csr()
}

/// Sparse loop vs dense trailing-block kernel over block density ×
/// size: `LuFactors::factorize` with the hand-over forced off, forced
/// on at step 0, and left to the density rule, each followed by a
/// `refactorize` of the same values. Best of `reps`.
fn bench_lu_dense_crossover(scale: Scale) {
    let (sizes, reps): (&[usize], usize) = match scale {
        Scale::Test => (&[96, 192], 3),
        Scale::Bench => (&[128, 256, 512, 1024], 7),
    };
    let densities: [f64; 10] = [0.01, 0.02, 0.04, 0.07, 0.10, 0.15, 0.22, 0.33, 0.5, 1.0];
    let cfg = LuConfig::default();
    let budget = Budget::unlimited();
    let mut rng = Rng64::new(0xde5e);
    let mut rows = Vec::new();
    println!("\nlu_dense_crossover: sparse loop vs dense block (best of {reps})\n");
    for &m in sizes {
        let order = Perm::identity(m);
        let mut last_half = None;
        for &target in &densities {
            // The band that holds `target · m²` cells; small blocks
            // cannot tell the lowest targets apart.
            let half = ((m as f64) * (1.0 - (1.0 - target).max(0.0).sqrt())).round() as usize;
            if last_half.replace(half) == Some(half) {
                continue;
            }
            let a = band_matrix(m, half, &mut rng);
            let density = a.nnz() as f64 / (m * m) as f64;
            let mut off_fill = 0;
            for (switch, at) in [("off", Some(m)), ("on", Some(0)), ("auto", None)] {
                let mut factor_seconds = f64::MAX;
                let mut refactor_seconds = f64::MAX;
                let mut lu = None;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let mut f = LuFactors::factorize_at(&a, &order, &cfg, &budget, at)
                        .expect("diagonally dominant");
                    factor_seconds = factor_seconds.min(t0.elapsed().as_secs_f64());
                    let t0 = Instant::now();
                    f.refactorize(&a).expect("same values");
                    refactor_seconds = refactor_seconds.min(t0.elapsed().as_secs_f64());
                    lu = Some(f);
                }
                let lu = lu.expect("reps > 0");
                if switch == "off" {
                    off_fill = lu.fill();
                }
                let dense_start = lu.dense_start();
                println!(
                    "m={m:<5} density {density:>6.3}  {switch:<4} start {dense_start:>5}  \
                     factor {:>9.3} ms  refactor {:>9.3} ms",
                    factor_seconds * 1e3,
                    refactor_seconds * 1e3
                );
                rows.push(DenseCrossoverRow {
                    size: m,
                    density,
                    switch: switch.to_string(),
                    dense_start,
                    factor_seconds,
                    refactor_seconds,
                    fill: lu.fill(),
                    same_fill_as_off: lu.fill() == off_fill,
                });
            }
        }
    }
    assert!(
        rows.iter().all(|r| r.same_fill_as_off),
        "the dense block changed the fill of a diagonally dominant band"
    );
    pdslin_bench::write_json("BENCH_lu_dense", &rows);
}

/// Symbolic phase of `Comp(S)` on the full graph vs the pruned one,
/// over the Table-I zoo under NGD with 8 subdomains.
fn bench_reach_pruned(scale: Scale) {
    let (block, reps) = (60usize, 3);
    let mut rows = Vec::new();
    println!("\nreach_pruned: blocked-solve plan build, full graph vs pruned (best of {reps})\n");
    for kind in MatrixKind::ALL {
        let (_a, sys, factors) = pdslin_bench::ngd_factored_system(kind, scale, 8);
        let mut row = ReachRow {
            matrix: kind.name().to_string(),
            full_edges: 0,
            kept_edges: 0,
            plan_full_seconds: 0.0,
            plan_pruned_seconds: 0.0,
            speedup: 0.0,
            identical: true,
        };
        for (dom, fd) in sys.domains.iter().zip(&factors) {
            let ut = lower_from_upper_transpose(&fd.lu.u);
            let sides = [
                (&fd.lu.l, ehat_columns_pivot(fd, dom)),
                (&ut, fhat_rows_elim(fd, dom)),
            ];
            for (t, cols) in &sides {
                let n = t.nrows();
                let order = order_columns_precomputed(cols, &[], n, block, RhsOrdering::Postorder);
                let graph = ReachGraph::build(t);
                row.full_edges += graph.full_edges();
                row.kept_edges += graph.edges();
                let (mut full_s, mut pruned_s) = (f64::MAX, f64::MAX);
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let full = BlockedSolvePlan::build_on(*t, n, cols, &order, block);
                    full_s = full_s.min(t0.elapsed().as_secs_f64());
                    let t0 = Instant::now();
                    let pruned = BlockedSolvePlan::build(t, cols, &order, block);
                    pruned_s = pruned_s.min(t0.elapsed().as_secs_f64());
                    row.identical &= full == pruned;
                }
                row.plan_full_seconds += full_s;
                row.plan_pruned_seconds += pruned_s;
            }
        }
        row.speedup = row.plan_full_seconds / row.plan_pruned_seconds.max(f64::MIN_POSITIVE);
        println!(
            "{:<12} edges {:>9} -> {:>7}  plan build {:>9.3} ms -> {:>8.3} ms  ({:.1}x)  identical={}",
            row.matrix,
            row.full_edges,
            row.kept_edges,
            row.plan_full_seconds * 1e3,
            row.plan_pruned_seconds * 1e3,
            row.speedup,
            row.identical
        );
        assert!(
            row.identical,
            "{}: the pruned graph changed a blocked-solve plan",
            row.matrix
        );
        rows.push(row);
    }
    pdslin_bench::write_json("BENCH_reach", &rows);
}

/// Multi-lane `LU(D)` sweeps against single sweeps, one thread, on the
/// subdomain factors of the `circuit_krylov` matrix (a smaller grid at
/// test scale).
fn bench_trisolve_lanes(scale: Scale) {
    const RHS: usize = 16;
    let (grid, reps) = match scale {
        Scale::Test => (60, 3),
        Scale::Bench => (180, 10),
    };
    let a = matgen::circuit::g3_like(grid, grid);
    let problem = format!("g3_like({grid},{grid})");
    let part = pdslin::compute_partition(&a, 8, &pdslin::PartitionerKind::Ngd);
    let sys = pdslin::extract_dbbd(&a, part);
    let factors: Vec<_> = sys
        .domains
        .iter()
        .map(|d| pdslin::subdomain::factor_domain(&d.d, 0.1).expect("subdomain LU"))
        .collect();
    let mut rng = Rng64::new(0x1a4e5);
    let bs: Vec<Vec<Vec<f64>>> = sys
        .domains
        .iter()
        .map(|d| {
            (0..RHS)
                .map(|_| (0..d.dim()).map(|_| rng.f64_range(-1.0, 1.0)).collect())
                .collect()
        })
        .collect();
    let mut tri = slu::TriScratch::new();
    let mut single: Vec<Vec<Vec<f64>>> = bs
        .iter()
        .map(|b| b.iter().map(|v| vec![0.0; v.len()]).collect())
        .collect();
    let mut single_seconds = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        for ((fd, b), x) in factors.iter().zip(&bs).zip(&mut single) {
            for (bj, xj) in b.iter().zip(x.iter_mut()) {
                fd.lu.solve_into(bj, xj, &mut tri, 1);
            }
        }
        single_seconds = single_seconds.min(t0.elapsed().as_secs_f64());
    }
    println!("\ntrisolve_lanes: {RHS} RHS through 8 LU(D) plans, one thread (best of {reps})\n");
    let mut rows = Vec::new();
    for lanes in [1usize, 4, 8, 16] {
        let mut xs = single.clone();
        xs.iter_mut()
            .flatten()
            .flatten()
            .for_each(|v| *v = f64::NAN);
        let mut seconds = f64::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            for ((fd, b), x) in factors.iter().zip(&bs).zip(&mut xs) {
                for (bg, xg) in b.chunks(lanes).zip(x.chunks_mut(lanes)) {
                    let bg: Vec<&[f64]> = bg.iter().map(Vec::as_slice).collect();
                    let mut xg: Vec<&mut [f64]> = xg.iter_mut().map(Vec::as_mut_slice).collect();
                    fd.lu.solve_lanes(&bg, &mut xg, &mut tri, 1);
                }
            }
            seconds = seconds.min(t0.elapsed().as_secs_f64());
        }
        let matches_single = xs == single;
        let speedup = single_seconds / seconds.max(f64::MIN_POSITIVE);
        println!(
            "{problem:<16} W={lanes:<2} {:>9.3} ms  single {:>9.3} ms  speedup {speedup:>5.2}x  match={matches_single}",
            seconds * 1e3,
            single_seconds * 1e3
        );
        assert!(
            matches_single,
            "{problem}: a {lanes}-lane sweep diverged from the single sweeps"
        );
        rows.push(LanesRow {
            problem: problem.clone(),
            lanes,
            rhs: RHS,
            seconds,
            single_seconds,
            speedup,
            matches_single,
        });
    }
    pdslin_bench::write_json("BENCH_trisolve_lanes", &rows);
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
    println!("Kernel benchmark: serial vs parallel (workers 1/2/4)\n");
    bench_spgemm(&mut rows, &laplace_name, &laplace);
    bench_interface(&mut rows, &laplace_name, &laplace);
    bench_setup(&mut rows, &laplace_name, &laplace);
    for kind in circuits {
        let a = matgen::generate(kind, scale);
        bench_spgemm(&mut rows, kind.name(), &a);
        bench_interface(&mut rows, kind.name(), &a);
    }
    pdslin_bench::write_json("BENCH_kernels", &rows);
    println!("\nall parallel results matched serial exactly");
    bench_lu_dense_crossover(scale);
    bench_reach_pruned(scale);
    bench_trisolve_lanes(scale);
}
