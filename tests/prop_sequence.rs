//! Property tests of the sequence-solve path: `LuFactors::refactorize`
//! reproducing a fresh `factorize` bit-for-bit on identical values
//! across the matgen zoo and workers 1/2/4, `Pdslin::update_values`
//! keeping solves bitwise stable under identity replay with the cached
//! solve plans asserted flat, and drifted `update_values` + `solve`
//! steps staying on the replay path and converging.
//!
//! `slu::plan_build_count` is a process-global counter, so every test
//! in this binary serialises on one mutex — a concurrently running
//! neighbour would otherwise inflate the deltas asserted here.

use std::sync::Mutex;

use matgen::circuit::{asic_like, g3_like};
use matgen::fusion::fusion_like;
use matgen::stencil::{cavity3d, cavity3d_graded, laplace2d, stencil3d};
use matgen::{generate, MatrixKind, Scale};
use pdslin::subdomain::subdomain_ordering;
use pdslin::{Pdslin, PdslinConfig};
use slu::{LuConfig, LuFactors, TriScratch};
use sparsekit::Csr;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic multiplicative perturbation (pattern untouched, no
/// entry driven to zero).
fn drift(a: &Csr, scale: f64) -> Csr {
    let mut out = a.clone();
    for (t, v) in out.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + scale * ((t % 13) as f64 - 6.0) / 6.0;
    }
    out
}

/// The seven Table-I families (`matgen::suite`, same generators and
/// parameters) at a fraction of `Scale::Test`: this file factors each
/// *whole* matrix several times in a debug build, and a replay is
/// bitwise or it is not at any size — n ≈ 500–2000 still gives every
/// factor a sparse leading part and a dense trailing block.
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

fn rhs_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 7) % 23) as f64 / 23.0).collect()
}

#[test]
fn refactorize_matches_fresh_factorize_across_zoo_and_workers() {
    let _g = lock();
    let cfg = LuConfig::default();
    for (name, a) in small_zoo() {
        let order = subdomain_ordering(&a);
        let fresh = LuFactors::factorize(&a, &order, &cfg).expect("fresh factorize");

        // Identity replay: refactorizing with the very values the
        // factors were built from must be a bitwise no-op.
        let mut replayed = LuFactors::factorize(&a, &order, &cfg).expect("factorize");
        replayed.refactorize(&a).expect("identity refactorize");
        assert_eq!(
            replayed.l.values(),
            fresh.l.values(),
            "{}: identity replay changed L",
            name
        );
        assert_eq!(
            replayed.u.values(),
            fresh.u.values(),
            "{}: identity replay changed U",
            name
        );

        // Round trip: drift the values away and replay back. The pivot
        // sequence is frozen from `a`'s own factorization and the
        // replay overwrites every stored entry, so returning to the
        // original values must reproduce the original factors exactly.
        let mut round = LuFactors::factorize(&a, &order, &cfg).expect("factorize");
        round.refactorize(&drift(&a, 0.05)).expect("drift replay");
        round.refactorize(&a).expect("return replay");
        assert_eq!(
            round.l.values(),
            fresh.l.values(),
            "{}: drift round trip changed L",
            name
        );
        assert_eq!(
            round.u.values(),
            fresh.u.values(),
            "{}: drift round trip changed U",
            name
        );

        // And the solves agree bitwise.
        let b = rhs_for(a.nrows());
        let mut want = vec![f64::NAN; a.nrows()];
        fresh.solve_into(&b, &mut want, &mut TriScratch::new(), 1);
        let mut got = vec![f64::NAN; a.nrows()];
        round.solve_into(&b, &mut got, &mut TriScratch::new(), 1);
        assert_eq!(got, want, "{}: solve diverged", name);
    }
}

#[test]
fn update_values_identity_is_bitwise_and_plans_stay_cached() {
    let _g = lock();
    for (name, a, k) in [
        ("laplace2d(30,30)", laplace2d(30, 30), 4usize),
        ("matrix211", generate(MatrixKind::Matrix211, Scale::Test), 4),
    ] {
        let cfg = PdslinConfig {
            k,
            ..Default::default()
        };
        let b = rhs_for(a.nrows());
        let mut solver = Pdslin::setup(&a, cfg).expect("setup");
        let base = solver.solve(&b).expect("baseline solve");

        // Steady state: replaying the same values and re-solving must
        // neither rebuild any factor nor rebuild any solve plan.
        let plans_before = slu::plan_build_count();
        let upd = solver.update_values(&a).expect("identity update");
        assert_eq!(upd.rebuilt, 0, "{name}: identity update rebuilt a factor");
        assert!(upd.refactorized > 0, "{name}: nothing was refactorized");
        assert!(
            upd.recovery.is_empty(),
            "{name}: identity update logged recovery events"
        );
        let again = solver.solve(&b).expect("post-replay solve");
        assert_eq!(
            slu::plan_build_count(),
            plans_before,
            "{name}: update or solve rebuilt a cached solve plan"
        );
        assert_eq!(
            again.x, base.x,
            "{name}: identity replay changed the solution"
        );
        assert_eq!(again.iterations, base.iterations, "{name}");
        assert_eq!(again.schur_residual, base.schur_residual, "{name}");
    }
}

#[test]
fn update_values_identity_is_bitwise_with_parallel_config() {
    let _g = lock();
    let a = laplace2d(24, 24);
    let cfg = PdslinConfig {
        k: 4,
        parallel: true,
        ..Default::default()
    };
    let b = rhs_for(a.nrows());
    let mut solver = Pdslin::setup(&a, cfg).expect("setup");
    let base = solver.solve(&b).expect("baseline solve");
    let upd = solver.update_values(&a).expect("identity update");
    assert_eq!(upd.rebuilt, 0);
    let again = solver.solve(&b).expect("post-replay solve");
    assert_eq!(
        again.x, base.x,
        "parallel identity replay changed the solution"
    );
    assert_eq!(again.iterations, base.iterations);
}

#[test]
fn drifted_sequence_refactorizes_every_step_and_converges() {
    let _g = lock();
    let a = laplace2d(28, 28);
    let cfg = PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mats = matgen::sequence(&a, 4, 0.02);
    let b = rhs_for(a.nrows());
    let mut solver = Pdslin::setup(&mats[0], cfg).expect("setup");
    for (t, m) in mats.iter().enumerate() {
        let upd = solver.update_values(m).expect("update");
        assert_eq!(upd.rebuilt, 0, "step {t} fell off the replay path");
        let out = solver.solve(&b).expect("solve");
        assert!(out.converged, "step {t} did not converge");
        let res = sparsekit::ops::residual_inf_norm(m, &out.x, &b);
        assert!(res < 1e-6, "step {t}: residual {res}");
    }
}

/// GMRES judges convergence on the true residual at the top of every
/// restart cycle. On this drifted step the Givens recurrence reaches
/// `tol` after 26 iterations while the true residual is still 6.7e-9;
/// a solver that stopped there reported non-convergence. Restarting
/// instead converges within the one GMRES run.
#[test]
fn gmres_restarts_when_its_recurrence_residual_undershoots() {
    let _g = lock();
    let a = asic_like(600, 1);
    let cfg = PdslinConfig {
        k: 4,
        interface_drop_tol: 0.03,
        schur_drop_tol: 0.03,
        ..Default::default()
    };
    let mats = matgen::sequence(&a, 3, 0.2);
    let b = vec![1.0; a.nrows()];
    let mut solver = Pdslin::setup(&mats[0], cfg).expect("setup");
    for m in &mats[1..] {
        solver.update_values(m).expect("update");
    }
    let out = solver.solve(&b).expect("solve");
    assert!(out.converged, "residual {:e}", out.schur_residual);
    let res = sparsekit::ops::residual_inf_norm(&mats[2], &out.x, &b);
    assert!(res < 1e-4, "residual {res}");
}
