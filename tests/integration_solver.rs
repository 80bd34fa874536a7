//! End-to-end integration tests: the full PDSLin pipeline on every
//! Table-I matrix analogue, both partitioners, at test scale.

use matgen::{generate, MatrixKind, Scale};
use pdslin::{PartitionerKind, Pdslin, PdslinConfig, RhsOrdering};
use sparsekit::ops::residual_inf_norm;
use sparsekit::Csr;

fn solve_check(a: &Csr, cfg: PdslinConfig, tol: f64) -> pdslin::SolveOutcome {
    let mut solver = Pdslin::setup(a, cfg).expect("setup");
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 1.0 + ((i * 7) % 23) as f64 / 23.0)
        .collect();
    let out = solver.solve(&b).expect("solve");
    let res = residual_inf_norm(a, &out.x, &b);
    assert!(res < tol, "residual {res} above tolerance {tol}");
    out
}

#[test]
fn solves_every_matrix_kind_with_ngd() {
    for kind in MatrixKind::ALL {
        let a = generate(kind, Scale::Test);
        let cfg = PdslinConfig {
            k: 4,
            partitioner: PartitionerKind::Ngd,
            schur_drop_tol: 1e-10,
            interface_drop_tol: 1e-12,
            ..Default::default()
        };
        let out = solve_check(&a, cfg, 1e-5);
        assert!(
            out.iterations <= 60,
            "{}: too many iterations ({})",
            kind.name(),
            out.iterations
        );
    }
}

#[test]
fn solves_cavity_with_rhb_all_metrics() {
    let a = generate(MatrixKind::Tdr190k, Scale::Test);
    for metric in [
        hypergraph::CutMetric::Con1,
        hypergraph::CutMetric::Cnet,
        hypergraph::CutMetric::Soed,
    ] {
        let cfg = PdslinConfig {
            k: 8,
            partitioner: PartitionerKind::Rhb(hypergraph::RhbConfig {
                metric,
                ..Default::default()
            }),
            ..Default::default()
        };
        solve_check(&a, cfg, 1e-5);
    }
}

#[test]
fn solves_with_all_rhs_orderings() {
    let a = generate(MatrixKind::DdsLinear, Scale::Test);
    for ordering in [
        RhsOrdering::Natural,
        RhsOrdering::Postorder,
        RhsOrdering::Hypergraph { tau: Some(0.4) },
    ] {
        let cfg = PdslinConfig {
            k: 4,
            rhs_ordering: ordering,
            ..Default::default()
        };
        solve_check(&a, cfg, 1e-5);
    }
}

#[test]
fn unsymmetric_fusion_matrix_solves() {
    let a = generate(MatrixKind::Matrix211, Scale::Test);
    assert!(!a.pattern_symmetric());
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    solve_check(&a, cfg, 1e-4);
}

#[test]
fn quasi_dense_circuit_matrix_solves() {
    let a = generate(MatrixKind::Asic680ks, Scale::Test);
    let cfg = PdslinConfig {
        k: 4,
        gmres: krylov::GmresConfig {
            restart: 100,
            max_iters: 800,
            tol: 1e-10,
        },
        ..Default::default()
    };
    solve_check(&a, cfg, 1e-4);
}

/// With both drop tolerances at 0.3 the `S̃` preconditioner is weak
/// enough that GMRES needs 137 iterations; restarted every 100 it does
/// not converge within 500. The default GMRES(200, 1000) converges
/// inside its first cycle, in one run with no recovery.
#[test]
fn loose_asic_analogue_converges_in_one_gmres_run() {
    let a = generate(MatrixKind::Asic680ks, Scale::Test);
    let cfg = PdslinConfig {
        interface_drop_tol: 0.3,
        schur_drop_tol: 0.3,
        ..Default::default()
    };
    let out = solve_check(&a, cfg, 1e-6);
    assert!(out.converged, "residual {:e}", out.schur_residual);
    assert_eq!(out.iterations, 137);
}

#[test]
fn block_size_does_not_change_the_answer() {
    let a = generate(MatrixKind::G3Circuit, Scale::Test);
    let mut xs = Vec::new();
    for block_size in [1usize, 16, 64, 256] {
        let cfg = PdslinConfig {
            k: 4,
            block_size,
            interface_drop_tol: 0.0,
            schur_drop_tol: 0.0,
            ..Default::default()
        };
        let mut solver = Pdslin::setup(&a, cfg).expect("setup");
        let b = vec![1.0; a.nrows()];
        xs.push(solver.solve(&b).expect("solve").x);
    }
    for pair in xs.windows(2) {
        for (u, v) in pair[0].iter().zip(&pair[1]) {
            assert!((u - v).abs() < 1e-7, "solutions differ across block sizes");
        }
    }
}

#[test]
fn repeated_solves_reuse_the_setup() {
    let a = generate(MatrixKind::G3Circuit, Scale::Test);
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    for trial in 0..3 {
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i + trial) % 5) as f64).collect();
        let out = solver.solve(&b).expect("solve");
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
    }
}

/// `block_size = 0` is rejected up front as bad input, before any phase
/// runs: no worker panic, no whole-setup retry on the fallback
/// partition, and the CLI's input exit code.
#[test]
fn zero_block_size_is_rejected_as_invalid_input() {
    let a = generate(MatrixKind::G3Circuit, Scale::Test);
    let cfg = PdslinConfig {
        k: 4,
        block_size: 0,
        ..Default::default()
    };
    let failure = Pdslin::setup_budgeted(&a, cfg, &pdslin::Budget::unlimited())
        .expect_err("B = 0 must be rejected");
    assert!(
        matches!(failure.error, pdslin::PdslinError::InvalidInput { .. }),
        "{failure}"
    );
    assert_eq!(failure.error.category(), pdslin::ErrorCategory::Input);
    assert_eq!(pdslin_cli::exit_code(failure.error.category()), 2);
    // No phase ran, so there is no checkpoint and no recovery event
    // (in particular no `PartitionFallback`) anywhere.
    assert!(failure.checkpoint.is_none());
}
