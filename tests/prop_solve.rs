//! Property tests of the solve phase: batched multi-RHS solves agreeing
//! bit for bit with sequential ones across lockstep group boundaries,
//! exhausted iteration budgets and bad inputs, typed budget interrupts
//! mid-solve, the zero-steady-state-allocation guarantee observed
//! through the arena counters, and the Schur operator's restricted
//! `LU(D_ℓ)` sweeps agreeing bit for bit with full ones.
//!
//! Each randomized test sweeps a batch of deterministic SplitMix64
//! seeds, so failures reproduce exactly.

use std::cell::RefCell;
use std::time::Duration;

use krylov::LinearOperator;
use matgen::circuit::{asic_like, g3_like};
use matgen::fusion::fusion_like;
use matgen::stencil::{cavity3d, cavity3d_graded, laplace2d, stencil3d};
use matgen::{generate, MatrixKind, Scale};
use pdslin::{
    Budget, CancelToken, ImplicitSchur, PartitionerKind, Pdslin, PdslinConfig, PdslinError,
    SchurApplyScratch, SchurSweeps, SolveOutcome,
};
use slu::TriScratch;
use sparsekit::{Csr, Rng64};

fn rhs(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.f64_range(-3.0, 3.0)).collect()
}

/// Every field of a solve a caller sees, compared bit for bit.
fn assert_same_outcome(got: &SolveOutcome, want: &SolveOutcome, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(
        got.schur_residual.to_bits(),
        want.schur_residual.to_bits(),
        "{what}: schur_residual"
    );
    assert_eq!(got.converged, want.converged, "{what}: converged");
}

/// Solves `batch` one right-hand side at a time and as one batch, and
/// checks that every outcome agrees bit for bit.
fn batch_matches_sequential(solver: &mut Pdslin, batch: &[Vec<f64>]) -> Vec<SolveOutcome> {
    let seq: Vec<_> = batch
        .iter()
        .map(|b| solver.solve(b).expect("sequential solve"))
        .collect();
    let many = solver.solve_many(batch).expect("batched solve");
    assert_eq!(many.len(), batch.len());
    for (i, (m, s)) in many.iter().zip(&seq).enumerate() {
        assert_same_outcome(m, s, &format!("batch of {}, rhs {i}", batch.len()));
    }
    many
}

#[test]
fn solve_many_matches_sequential_solves() {
    // Lockstep groups hold 8 right-hand sides: 5 and 7 give a partial
    // group, 8 a full one, 9 a full one plus a single lane, 17 two full
    // ones plus a single lane.
    let a = laplace2d(20, 20);
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let mut rng = Rng64::new(7);
    for size in [1usize, 5, 7, 8, 9, 17] {
        let mut batch: Vec<Vec<f64>> = (0..size).map(|_| rhs(&mut rng, a.nrows())).collect();
        // A zero right-hand side rides in the middle of the batch.
        batch[size / 2] = vec![0.0; a.nrows()];
        let many = batch_matches_sequential(&mut solver, &batch);
        let zero = &many[size / 2];
        assert!(zero.converged && zero.iterations == 0, "batch of {size}");
        assert!(zero.x.iter().all(|&v| v == 0.0), "batch of {size}");
    }
}

#[test]
fn a_batch_mixing_converged_and_exhausted_lanes_matches_sequential_solves() {
    // A loose preconditioner needs 17-19 GMRES iterations here, so with
    // max_iters = 18 some right-hand sides run out of iterations (and are
    // answered `converged: false` above the tolerance but under the
    // acceptance floor) while their batch-mates converge.
    let a = laplace2d(20, 20);
    let mut cfg = PdslinConfig {
        k: 4,
        interface_drop_tol: 0.3,
        schur_drop_tol: 0.3,
        ..Default::default()
    };
    cfg.gmres.max_iters = 18;
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let mut rng = Rng64::new(5);
    let mut batch: Vec<Vec<f64>> = (0..10).map(|_| rhs(&mut rng, a.nrows())).collect();
    batch[3] = vec![0.0; a.nrows()];
    let many = batch_matches_sequential(&mut solver, &batch);
    let converged = many.iter().filter(|o| o.converged).count();
    let exhausted = many.iter().filter(|o| !o.converged).collect::<Vec<_>>();
    assert!(converged > 1, "the zero rhs and some others converge");
    assert!(
        !exhausted.is_empty(),
        "some right-hand sides run out of iterations"
    );
    assert!(exhausted.iter().all(|o| o.iterations == 18));
}

#[test]
fn a_non_finite_rhs_mid_batch_surfaces_the_first_typed_error() {
    let a = laplace2d(16, 16);
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let mut rng = Rng64::new(41);
    let mut batch: Vec<Vec<f64>> = (0..11).map(|_| rhs(&mut rng, a.nrows())).collect();
    batch[4][9] = f64::NAN;
    batch[7][3] = f64::INFINITY;
    batch[9].pop();
    let err = solver
        .solve_many(&batch)
        .expect_err("a non-finite rhs fails the batch");
    assert!(
        matches!(
            err,
            PdslinError::NonFiniteInput {
                what: "b",
                index: 9
            }
        ),
        "got {err:?}"
    );
    // The same error a sequential run meets first.
    let first = batch
        .iter()
        .find_map(|b| solver.solve(b).err())
        .expect("a sequential run fails too");
    assert_eq!(format!("{first:?}"), format!("{err:?}"));
    // The valid right-hand sides still solve, batched as sequentially.
    let valid: Vec<Vec<f64>> = batch
        .iter()
        .enumerate()
        .filter(|(i, _)| ![4, 7, 9].contains(i))
        .map(|(_, b)| b.clone())
        .collect();
    batch_matches_sequential(&mut solver, &valid);
}

#[test]
fn solve_many_with_parallel_lanes_matches_serial_instance() {
    let a = laplace2d(18, 18);
    let mut rng = Rng64::new(11);
    let batch: Vec<Vec<f64>> = (0..6).map(|_| rhs(&mut rng, a.nrows())).collect();
    let serial_cfg = PdslinConfig {
        k: 4,
        parallel: false,
        ..Default::default()
    };
    let parallel_cfg = PdslinConfig {
        k: 4,
        parallel: true,
        ..Default::default()
    };
    let mut serial = Pdslin::setup(&a, serial_cfg).expect("setup serial");
    let mut parallel = Pdslin::setup(&a, parallel_cfg).expect("setup parallel");
    let want: Vec<_> = batch
        .iter()
        .map(|b| serial.solve(b).expect("serial solve"))
        .collect();
    let got = parallel.solve_many(&batch).expect("parallel batch");
    for (i, (s, p)) in want.iter().zip(&got).enumerate() {
        assert_eq!(s.x, p.x, "rhs {i}: parallel lanes diverged from serial");
        assert_eq!(s.iterations, p.iterations, "rhs {i}");
    }
}

#[test]
fn cancelled_solve_surfaces_typed_error_and_solver_survives() {
    let a = laplace2d(12, 12);
    let cfg = PdslinConfig {
        k: 2,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let b = vec![1.0; a.nrows()];
    let token = CancelToken::new();
    token.cancel();
    let err = solver
        .solve_budgeted(&b, &Budget::unlimited().with_token(token))
        .expect_err("cancelled solve must fail");
    assert!(
        matches!(err, PdslinError::Cancelled { phase: "solve" }),
        "got {err:?}"
    );
    // And the same for the batched path: first error in RHS order wins.
    let token = CancelToken::new();
    token.cancel();
    let err = solver
        .solve_many_budgeted(
            &[b.clone(), b.clone()],
            &Budget::unlimited().with_token(token),
        )
        .expect_err("cancelled batch must fail");
    assert!(
        matches!(err, PdslinError::Cancelled { phase: "solve" }),
        "got {err:?}"
    );
    // The factors are untouched: a fresh budget solves fine.
    let out = solver.solve(&b).expect("solver survives cancellation");
    assert!(out.converged);
}

#[test]
fn expired_deadline_mid_solve_keeps_partial_stats() {
    let a = laplace2d(12, 12);
    let cfg = PdslinConfig {
        k: 2,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let b = vec![1.0; a.nrows()];
    let expired = Budget::unlimited().with_deadline(Duration::ZERO);
    let err = solver
        .solve_budgeted(&b, &expired)
        .expect_err("expired deadline must fail");
    match err {
        PdslinError::DeadlineExceeded { phase, partial, .. } => {
            assert_eq!(phase, "solve");
            // The stats of the completed setup phases ride along.
            assert_eq!(partial.nnz_schur, solver.stats.nnz_schur);
            assert_eq!(partial.separator_size, solver.stats.separator_size);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let out = solver.solve(&b).expect("solver survives expiry");
    assert!(out.converged);
}

#[test]
fn steady_state_solves_do_not_grow_arenas() {
    let a = laplace2d(16, 16);
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let mut rng = Rng64::new(3);
    let b0 = rhs(&mut rng, a.nrows());
    solver.solve(&b0).expect("first solve");
    assert!(
        solver.scratch_stats().allocations > 0,
        "the first solve has to grow the arenas"
    );
    // Steady state is per lane: a lane's arenas grow during the first
    // solve routed to it, and a batch of four may fan out over lanes a
    // plain solve never touches (how many depends on the host's thread
    // count). So the batch path is warmed before the snapshot too.
    let batch =
        |rng: &mut Rng64| -> Vec<Vec<f64>> { (0..4).map(|_| rhs(rng, a.nrows())).collect() };
    solver.solve_many(&batch(&mut rng)).expect("first batch");
    let warm = solver.scratch_stats();
    assert_eq!(warm.solves, 1 + 4);
    // Every later solve — plain or batched — reuses the grown arenas:
    // `solves` (arena resets) climbs, `allocations` and `lanes` stay
    // flat.
    for _ in 0..3 {
        let b = rhs(&mut rng, a.nrows());
        solver.solve(&b).expect("steady-state solve");
    }
    solver
        .solve_many(&batch(&mut rng))
        .expect("steady-state batch");
    let steady = solver.scratch_stats();
    assert_eq!(steady.solves, warm.solves + 3 + 4);
    assert_eq!(steady.lanes, warm.lanes);
    assert_eq!(
        steady.allocations, warm.allocations,
        "steady-state solves must not allocate in the hot loops"
    );
}

#[test]
fn cancellation_racing_a_batch_is_all_or_typed_first_error() {
    // A helper thread flips the CancelToken at varying points during a
    // batched solve. Whatever the race outcome, solve_many_budgeted
    // must be atomic at the API level: either the full batch (matching
    // an uncancelled reference bitwise) or the first error in RHS
    // order — which under cancellation is the typed Cancelled error,
    // never a partial result, never a panic.
    let a = laplace2d(24, 24);
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let mut rng = Rng64::new(23);
    let batch: Vec<Vec<f64>> = (0..8).map(|_| rhs(&mut rng, a.nrows())).collect();
    let reference = solver.solve_many(&batch).expect("uncancelled reference");

    for delay_us in [0u64, 20, 50, 100, 250, 500, 1000, 5000] {
        let token = CancelToken::new();
        let racer = token.clone();
        let result = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                racer.cancel();
            });
            solver.solve_many_budgeted(&batch, &Budget::unlimited().with_token(token))
        });
        match result {
            Ok(outs) => {
                // Cancel lost the race: the batch is complete and
                // bitwise identical to the uncancelled run.
                assert_eq!(outs.len(), batch.len(), "delay {delay_us}us");
                for (i, (got, want)) in outs.iter().zip(&reference).enumerate() {
                    assert_eq!(got.x, want.x, "delay {delay_us}us, rhs {i}");
                    assert_eq!(
                        got.iterations, want.iterations,
                        "delay {delay_us}us, rhs {i}"
                    );
                }
            }
            Err(PdslinError::Cancelled { phase }) => {
                assert_eq!(phase, "solve", "delay {delay_us}us");
            }
            Err(other) => panic!("delay {delay_us}us: unexpected error {other:?}"),
        }
        // The factors survive whichever way the race went: the next
        // unbudgeted batch reproduces the reference exactly.
        let again = solver
            .solve_many(&batch)
            .expect("solver survives a raced cancellation");
        for (got, want) in again.iter().zip(&reference) {
            assert_eq!(got.x, want.x, "delay {delay_us}us: post-race drift");
        }
    }
}

/// `S y = C y − Σ_ℓ F̂_ℓ D_ℓ⁻¹ (Ê_ℓ y)` with full `LU(D_ℓ)` sweeps, one
/// right-hand side at a time: the kernels and the order of the traced
/// benchmark pipeline, independent of the operator's sweep lists.
fn reference_schur_apply(s: &Pdslin, y: &[f64]) -> Vec<f64> {
    let sys = &s.sys;
    let mut out = sys.c.matvec(y);
    let mut scratch = TriScratch::new();
    for (dom, fd) in sys.domains.iter().zip(&s.factors) {
        let ysub: Vec<f64> = dom.e_cols.iter().map(|&c| y[c]).collect();
        let v = dom.e_hat.matvec(&ysub);
        let mut t = vec![0.0; dom.dim()];
        fd.lu.solve_into(&v, &mut t, &mut scratch, 1);
        let w = dom.f_hat.matvec(&t);
        for (wl, &r) in w.iter().zip(&dom.f_rows) {
            out[r] -= wl;
        }
    }
    out
}

/// The seven Table-I families (`matgen::suite`, same generators and
/// parameters) at a fraction of `Scale::Test`, so that fourteen debug
/// set-ups stay quick; bit-identity holds at any size.
fn small_zoo() -> Vec<(&'static str, Csr)> {
    let dds_linear = [
        (1i64, 0i64, 0i64, -1.0),
        (0, 1, 0, -1.0),
        (0, 0, 1, -1.0),
        (1, 1, 0, -0.5),
        (0, 1, 1, -0.5),
        (1, 0, 1, -0.5),
        (1, 1, 1, -0.25),
    ];
    vec![
        ("tdr190k", cavity3d_graded(8, 8, 8, 4.0, 0.34)),
        ("tdr455k", cavity3d_graded(10, 10, 10, 4.0, 0.34)),
        ("dds.quad", cavity3d(8, 8, 8, 2.0, true)),
        ("dds.linear", stencil3d(10, 10, 10, &dds_linear, 5.0)),
        ("matrix211", fusion_like(8, 8, 7, 211)),
        ("ASIC_680ks", asic_like(2_000, 680)),
        ("G3_circuit", g3_like(40, 40)),
    ]
}

#[test]
fn restricted_schur_apply_matches_full_sweeps_bitwise_across_zoo() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = Rng64::new(37);
    let mut shares = Vec::new();
    for (name, a) in small_zoo() {
        for partitioner in [
            PartitionerKind::Ngd,
            PartitionerKind::Rhb(Default::default()),
        ] {
            let what = format!("{name} / {partitioner:?}");
            let cfg = PdslinConfig {
                k: 4,
                partitioner,
                ..Default::default()
            };
            let s = Pdslin::setup(&a, cfg).expect("setup");
            let share = s.schur_apply_kept_share();
            assert!(share > 0.0 && share <= 1.0, "{what}: kept share {share}");
            shares.push(share);
            let sweeps = SchurSweeps::new(&s.sys, &s.factors);
            assert_eq!(sweeps.kept_share(), share, "{what}");
            let scratch = RefCell::new(SchurApplyScratch::new());
            let op = ImplicitSchur::new(&s.sys, &s.factors, &sweeps, &scratch);
            let ns = s.sys.nsep();
            for lanes in [1usize, 3, 8] {
                let mut ys: Vec<Vec<f64>> = (0..lanes).map(|_| rhs(&mut rng, ns)).collect();
                // A zero y rides in the last lane.
                ys[lanes - 1] = vec![0.0; ns];
                let y: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
                let mut outs = vec![vec![f64::NAN; ns]; lanes];
                let mut out: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                op.apply_lanes(&y, &mut out);
                for (l, (got, y)) in outs.iter().zip(&ys).enumerate() {
                    let want = reference_schur_apply(&s, y);
                    assert_eq!(bits(got), bits(&want), "{what}: lane {l} of {lanes}");
                }
            }
        }
    }
    let restricted = shares.iter().filter(|&&s| s < 0.9).count();
    assert!(
        restricted >= 4,
        "the circuits skip part of LU(D): {shares:?}"
    );
}

#[test]
fn restricted_sweeps_survive_a_value_update() {
    // The sweep lists are built by the first solve on A₁ and carried
    // through `update_values` to A₀ and back to A₁. Replaying the same
    // values is bitwise, so the result must be a fresh set-up on A₁'s.
    for kind in [MatrixKind::G3Circuit, MatrixKind::Matrix211] {
        let a0 = generate(kind, Scale::Test);
        let a1 = matgen::sequence(&a0, 2, 0.05)
            .pop()
            .expect("a drifted step");
        let cfg = PdslinConfig {
            k: 4,
            ..Default::default()
        };
        let mut rng = Rng64::new(53);
        let batch: Vec<Vec<f64>> = (0..3).map(|_| rhs(&mut rng, a0.nrows())).collect();
        let mut updated = Pdslin::setup(&a1, cfg).expect("setup on A1");
        updated.solve_many(&batch).expect("solve on A1");
        for (step, a) in [&a0, &a1].into_iter().enumerate() {
            let upd = updated.update_values(a).expect("update");
            assert_eq!(upd.rebuilt, 0, "{}: step {step} replays", kind.name());
            let outs = updated.solve_many(&batch).expect("solve after update");
            assert!(
                outs.iter().all(|o| o.converged),
                "{}: step {step}",
                kind.name()
            );
        }
        let mut fresh = Pdslin::setup(&a1, cfg).expect("fresh setup on A1");
        let got = updated
            .solve_many(&batch)
            .expect("solve after the round trip");
        let want = fresh.solve_many(&batch).expect("fresh solve");
        assert_eq!(
            updated.schur_apply_kept_share(),
            fresh.schur_apply_kept_share()
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same_outcome(g, w, &format!("{}, rhs {i}", kind.name()));
        }
    }
}
