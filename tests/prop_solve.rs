//! Property tests of the solve phase: batched multi-RHS solves agreeing
//! bit for bit with sequential ones across lockstep group boundaries,
//! exhausted iteration budgets and bad inputs, typed budget interrupts
//! mid-solve, and the zero-steady-state-allocation guarantee observed
//! through the arena counters.
//!
//! Each randomized test sweeps a batch of deterministic SplitMix64
//! seeds, so failures reproduce exactly.

use std::time::Duration;

use matgen::stencil::laplace2d;
use pdslin::{Budget, CancelToken, Pdslin, PdslinConfig, PdslinError, SolveOutcome};
use sparsekit::Rng64;

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
