//! End-to-end tests of the budgeted-execution layer: deadlines,
//! cancellation, panic isolation, memory admission control, and setup
//! checkpoint/restart — including faults under a deadline.

use std::time::Duration;

use matgen::stencil::laplace2d;
use pdslin::{
    Budget, CancelToken, FaultPlan, PartitionerKind, Pdslin, PdslinConfig, PdslinError,
    RecoveryEvent, SetupFailure,
};
use sparsekit::ops::residual_inf_norm;
use sparsekit::Csr;

fn test_matrix() -> Csr {
    laplace2d(24, 24)
}

fn test_config() -> PdslinConfig {
    PdslinConfig {
        k: 4,
        partitioner: PartitionerKind::Ngd,
        schur_drop_tol: 1e-10,
        interface_drop_tol: 1e-12,
        ..Default::default()
    }
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 7) % 23) as f64 / 23.0).collect()
}

fn clean_solution(a: &Csr) -> Vec<f64> {
    let mut solver = Pdslin::setup(a, test_config()).expect("clean setup");
    solver.solve(&rhs(a.nrows())).expect("clean solve").x
}

#[test]
fn expired_deadline_fails_setup_with_typed_error() {
    let a = test_matrix();
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    match Pdslin::setup_budgeted(&a, test_config(), &budget) {
        Err(SetupFailure {
            error: PdslinError::DeadlineExceeded { phase, elapsed, .. },
            checkpoint,
        }) => {
            assert_eq!(phase, "partition", "must stop at the first boundary");
            assert!(elapsed >= 0.0);
            assert!(checkpoint.is_none(), "nothing to checkpoint before LU(D)");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn cancel_token_aborts_setup_with_typed_error() {
    let a = test_matrix();
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_token(token);
    match Pdslin::setup_budgeted(&a, test_config(), &budget) {
        Err(SetupFailure {
            error: PdslinError::Cancelled { .. },
            ..
        }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn expired_deadline_fails_solve_without_touching_factors() {
    let a = test_matrix();
    let mut solver = Pdslin::setup(&a, test_config()).expect("setup");
    let b = rhs(a.nrows());
    let expired = Budget::unlimited().with_deadline(Duration::ZERO);
    match solver.solve_budgeted(&b, &expired) {
        Err(PdslinError::DeadlineExceeded { phase: "solve", .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The solver stays usable: a fresh budget solves to full accuracy.
    let out = solver.solve(&b).expect("solve after interrupt");
    assert!(residual_inf_norm(&a, &out.x, &b) < 1e-5);
}

fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max)
}

#[test]
fn worker_panic_is_contained_and_answer_matches_clean_run() {
    // The panic is caught at the subdomain task and surfaces typed; it
    // does not unwind through the caller, and a fault-free set-up in the
    // same process afterwards gives the clean answer.
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        worker_panic: Some(1),
        ..Default::default()
    };
    match Pdslin::setup(&a, cfg) {
        Err(PdslinError::WorkerPanic {
            phase: "lu_d",
            domain: 1,
            message,
        }) => assert!(message.contains("injected"), "message: {message}"),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    let mut solver = Pdslin::setup(&a, test_config()).expect("setup after a contained panic");
    let b = rhs(a.nrows());
    let out = solver.solve(&b).expect("solve");
    let max_diff = max_abs_diff(&out.x, &clean_solution(&a));
    assert!(
        max_diff < 1e-6,
        "answer after the panic diverged by {max_diff}"
    );
}

#[test]
fn persistent_worker_panic_surfaces_typed_error() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        worker_panic: Some(0),
        ..Default::default()
    };
    match Pdslin::setup(&a, cfg) {
        Err(PdslinError::WorkerPanic {
            phase: "lu_d",
            domain: 0,
            message,
        }) => assert!(message.contains("injected"), "message: {message}"),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn memory_blowup_degrades_preconditioner_and_still_solves() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        memory_blowup: true,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup must degrade, not fail");
    let degraded = solver
        .stats
        .recovery
        .events
        .iter()
        .any(|e| matches!(e, RecoveryEvent::SchurMemoryDegraded { .. }));
    assert!(degraded, "events: {:?}", solver.stats.recovery.events);
    let b = rhs(a.nrows());
    let out = solver
        .solve(&b)
        .expect("solve with degraded preconditioner");
    assert!(residual_inf_norm(&a, &out.x, &b) < 1e-5);
}

#[test]
fn stalled_setup_under_deadline_checkpoints_and_resumes() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        stall_schur_ms: Some(800),
        ..Default::default()
    };
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(250));
    let failure = Pdslin::setup_budgeted(&a, cfg, &budget).unwrap_err();
    match &failure.error {
        PdslinError::DeadlineExceeded { phase, .. } => {
            assert_eq!(*phase, "schur", "the stall sits before the schur check")
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let ckpt = failure
        .checkpoint
        .expect("LU(D) completed, so a checkpoint must be attached");
    assert_eq!(ckpt.domains(), 4);

    // Resume with a fresh, unlimited budget: the subdomain factors are
    // recycled (no refactorization), and the solve matches a clean run.
    let mut solver = Pdslin::resume(*ckpt, &Budget::unlimited()).expect("resume");
    assert_eq!(
        solver.stats.factorizations, 0,
        "resume must not refactorize"
    );
    assert_eq!(solver.stats.factorizations_reused, 4);
    let b = rhs(a.nrows());
    let out = solver.solve(&b).expect("solve after resume");
    assert!(residual_inf_norm(&a, &out.x, &b) < 1e-5);
}

#[test]
fn checkpoint_of_live_solver_resumes_without_refactorizing() {
    let a = test_matrix();
    let solver = Pdslin::setup(&a, test_config()).expect("setup");
    assert_eq!(solver.stats.factorizations, 4);
    let ckpt = solver.checkpoint();
    let mut resumed = Pdslin::resume(ckpt, &Budget::unlimited()).expect("resume");
    assert_eq!(resumed.stats.factorizations, 0);
    assert_eq!(resumed.stats.factorizations_reused, 4);
    let b = rhs(a.nrows());
    let out = resumed.solve(&b).expect("solve");
    assert!(residual_inf_norm(&a, &out.x, &b) < 1e-5);
}

#[test]
fn checkpoint_bytes_round_trip_resumes_bit_identically() {
    let a = test_matrix();
    let mut solver = Pdslin::setup(&a, test_config()).expect("setup");
    let ckpt = solver.checkpoint();
    assert_eq!(ckpt.domains(), 4);
    let mut resumed = Pdslin::resume(ckpt, &Budget::unlimited()).expect("resume");
    assert_eq!(resumed.stats.factorizations, 0);
    assert_eq!(resumed.stats.factorizations_reused, 4);

    // The checkpoint carries the factors' IEEE-754 bit patterns unchanged,
    // so the resumed solver must produce the *bit-identical* answer, not
    // merely a close one.
    let b = rhs(a.nrows());
    let x0 = solver.solve(&b).expect("solve original").x;
    let x1 = resumed.solve(&b).expect("solve resumed").x;
    assert_eq!(x0.len(), x1.len());
    for (i, (u, v)) in x0.iter().zip(&x1).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "x[{i}] differs: {u} vs {v}");
    }
}

#[test]
fn singular_domain_retry_matches_clean_answer() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        singular_domain: Some(0),
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let lu_retried = solver
        .stats
        .recovery
        .events
        .iter()
        .any(|e| matches!(e, RecoveryEvent::SubdomainLuRetry { domain: 0, .. }));
    assert!(lu_retried, "events: {:?}", solver.stats.recovery.events);
    let b = rhs(a.nrows());
    let out = solver.solve(&b).expect("solve");
    let clean = clean_solution(&a);
    let max_diff = out
        .x
        .iter()
        .zip(&clean)
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-6, "faulted answer diverged by {max_diff}");
}

#[test]
fn worker_panic_under_generous_deadline_matches_clean_answer() {
    // Under a deadline the panic is still a `WorkerPanic`, not a
    // `DeadlineExceeded`, with no checkpoint since LU(D) did not finish;
    // the same budget then carries a fault-free set-up and solve to the
    // clean answer.
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        worker_panic: Some(2),
        ..Default::default()
    };
    let budget = Budget::unlimited().with_deadline(Duration::from_secs(120));
    match Pdslin::setup_budgeted(&a, cfg, &budget) {
        Err(SetupFailure {
            error:
                PdslinError::WorkerPanic {
                    phase: "lu_d",
                    domain: 2,
                    message,
                },
            checkpoint,
        }) => {
            assert!(message.contains("injected"), "message: {message}");
            assert!(checkpoint.is_none(), "LU(D) did not finish");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    let mut solver = Pdslin::setup_budgeted(&a, test_config(), &budget).expect("setup");
    let b = rhs(a.nrows());
    let out = solver.solve_budgeted(&b, &budget).expect("solve");
    let max_diff = max_abs_diff(&out.x, &clean_solution(&a));
    assert!(
        max_diff < 1e-6,
        "answer after the panic diverged by {max_diff}"
    );
}

#[test]
fn memory_limit_without_fault_is_respected() {
    // An absurdly small user-provided memory budget cannot be satisfied
    // even by degradation: the typed admission-control error surfaces,
    // with a checkpoint (the factors were fine).
    let a = test_matrix();
    let budget = Budget::unlimited().with_memory_limit(8);
    let failure = Pdslin::setup_budgeted(&a, test_config(), &budget).unwrap_err();
    match &failure.error {
        PdslinError::MemoryBudgetExceeded {
            phase,
            needed_bytes,
            budget_bytes,
        } => {
            assert_eq!(*phase, "schur");
            assert_eq!(*budget_bytes, 8);
            assert!(*needed_bytes > 8);
        }
        other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
    }
    assert!(failure.checkpoint.is_some());
}

/// Memory degradation spends a round only where it drops something: on
/// this matrix the tolerances 1e-6 and 1e-5 lie below every stored
/// `|t̃_ij|`, so their rounds are skipped; the 1e-4 round lowers the
/// prediction from 38 104 to 37 688 bytes and the 1e-3 round meets the
/// limit. The skipped rounds changed nothing, so `S̃` keeps its 1 348
/// entries and the answer still solves.
#[test]
fn schur_memory_degradation_records_only_rounds_that_drop() {
    let a = test_matrix();
    let budget = Budget::unlimited().with_memory_limit(32 * 1024);
    let mut solver = Pdslin::setup_budgeted(&a, test_config(), &budget).expect("setup degrades");
    let rounds: Vec<(usize, f64)> = solver
        .stats
        .recovery
        .events
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::SchurMemoryDegraded {
                predicted_bytes,
                drop_tol,
                ..
            } => Some((*predicted_bytes, *drop_tol)),
            _ => None,
        })
        .collect();
    assert_eq!(rounds.len(), 2, "rounds: {rounds:?}");
    assert_eq!(rounds[0].0, 38_104);
    assert_eq!(rounds[1].0, 37_688);
    assert!(
        (rounds[0].1 / 1e-4 - 1.0).abs() < 1e-12,
        "rounds: {rounds:?}"
    );
    assert_eq!(solver.stats.nnz_schur, 1348);
    let b = rhs(a.nrows());
    let out = solver.solve(&b).expect("solve");
    assert!(residual_inf_norm(&a, &out.x, &b) < 1e-5);
}
