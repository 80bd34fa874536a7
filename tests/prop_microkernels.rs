//! Property tests of the lane-vectorized kernels and the HBMC trisolve
//! schedule (see `docs/kernels.md`): the lane loops must be
//! **bit-identical** to their scalar references on the full Table-I
//! matrix zoo, and the opt-in HBMC schedule must pass its tolerance gate
//! (or be rejected with a typed error when it cannot).

use matgen::{generate, MatrixKind, Scale};
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind};
use sparsekit::Csr;

/// Subdomain 0 of an NGD 8-way partition — the matrix shape every
/// subdomain kernel in the solver actually runs on.
fn zoo_subdomain(kind: MatrixKind) -> Csr {
    let a = generate(kind, Scale::Test);
    let part = compute_partition(&a, 8, &PartitionerKind::Ngd);
    extract_dbbd(&a, part).domains[0].d.clone()
}

#[test]
fn lane_spmv_bit_identical_to_scalar_on_zoo() {
    for kind in MatrixKind::ALL {
        let a = zoo_subdomain(kind);
        let n = a.nrows();
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 83 % 101) as f64) * 0.37 - 18.0)
            .collect();
        // Scalar reference: one strict left-to-right fold per row — the
        // exact op sequence the pre-lane loop performed.
        let mut y_ref = vec![0f64; n];
        for r in 0..n {
            let mut acc = 0f64;
            for (c, v) in a.row_iter(r) {
                acc += v * x[c];
            }
            y_ref[r] = acc;
        }
        let mut y = vec![f64::NAN; n];
        a.matvec_into(&x, &mut y);
        assert_eq!(y, y_ref, "{kind:?}: matvec_into");
        for workers in [2usize, 4] {
            let mut yw = vec![f64::NAN; n];
            a.matvec_into_workers(&x, &mut yw, workers);
            assert_eq!(yw, y_ref, "{kind:?}: {workers} workers");
        }
        // matvec_acc folds alpha·(row · x) onto an existing vector.
        let mut acc_ref = y_ref.clone();
        for r in 0..n {
            let mut dot = 0f64;
            for (c, v) in a.row_iter(r) {
                dot += v * x[c];
            }
            acc_ref[r] += -0.5 * dot;
        }
        let mut acc = y_ref.clone();
        a.matvec_acc(-0.5, &x, &mut acc);
        assert_eq!(acc, acc_ref, "{kind:?}: matvec_acc");
    }
}

#[test]
fn lane_trisolve_bit_identical_to_scalar_substitution_on_zoo() {
    for kind in MatrixKind::ALL {
        let d = zoo_subdomain(kind);
        let n = d.nrows();
        let fd = factor_domain(&d, 0.1).expect("zoo subdomain must factor");
        let f = &fd.lu;
        let b: Vec<f64> = (0..n).map(|i| ((i * 29 % 13) as f64) - 6.0).collect();
        // Scalar reference: plain forward/backward substitution in pivot
        // order, dependencies folded in ascending column order — exactly
        // the op sequence the level plan schedules (its dependency lists
        // are built column-ascending).
        let mut lrows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut urows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut udiag = vec![0f64; n];
        for j in 0..n {
            for (r, v) in f.l.col_iter(j) {
                if r > j {
                    lrows[r].push((j, v));
                }
            }
            for (r, v) in f.u.col_iter(j) {
                if r < j {
                    urows[r].push((j, v));
                } else if r == j {
                    udiag[j] = v;
                }
            }
        }
        let mut y = vec![0f64; n];
        for r in 0..n {
            let mut acc = b[f.row_perm.to_old(r)];
            for &(j, v) in &lrows[r] {
                acc -= v * y[j];
            }
            y[r] = acc;
        }
        let mut z = vec![0f64; n];
        for j in (0..n).rev() {
            let mut acc = y[j];
            for &(k, v) in &urows[j] {
                acc -= v * z[k];
            }
            z[j] = acc / udiag[j];
        }
        let mut x_ref = vec![0f64; n];
        for j in 0..n {
            x_ref[f.col_perm.to_old(j)] = z[j];
        }
        let x = f.solve(&b);
        assert_eq!(x, x_ref, "{kind:?}: laned solve vs scalar substitution");
    }
}

#[test]
fn hbmc_passes_tolerance_gate_on_zoo() {
    for kind in MatrixKind::ALL {
        let d = zoo_subdomain(kind);
        let n = d.nrows();
        let mut fd = factor_domain(&d, 0.1).expect("zoo subdomain must factor");
        let level_x = {
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            fd.lu.solve(&b)
        };
        fd.lu
            .set_schedule(slu::TrisolveSchedule::Hbmc)
            .unwrap_or_else(|e| panic!("{kind:?}: hbmc probe should pass: {e}"));
        assert_eq!(fd.lu.schedule(), slu::TrisolveSchedule::Hbmc);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let hbmc_x = fd.lu.solve(&b);
        // Tolerance-equivalent to the level schedule...
        let denom = level_x.iter().fold(0f64, |m, v| m.max(v.abs())).max(1e-300);
        let err = level_x
            .iter()
            .zip(&hbmc_x)
            .fold(0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            err / denom < 1e-6,
            "{kind:?}: hbmc deviates rel {}",
            err / denom
        );
        // ...and byte-identical across worker counts (the dependency
        // order is fixed per position; worker splits land on block
        // boundaries).
        let mut scratch = slu::TriScratch::new();
        let mut serial = vec![0f64; n];
        fd.lu.solve_into(&b, &mut serial, &mut scratch, 1);
        for workers in [2usize, 4, 7] {
            let mut par = vec![f64::NAN; n];
            fd.lu.solve_into(&b, &mut par, &mut scratch, workers);
            assert_eq!(par, serial, "{kind:?}: hbmc {workers} workers");
        }
    }
}

#[test]
fn hbmc_rejection_is_typed_and_leaves_factors_untouched() {
    let d = zoo_subdomain(MatrixKind::G3Circuit);
    let n = d.nrows();
    let mut fd = factor_domain(&d, 0.1).expect("LU");
    let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    let before = fd.lu.solve(&b);
    // A negative tolerance rejects any deviation, forcing the gate shut.
    let err = fd
        .lu
        .set_schedule_with_tol(slu::TrisolveSchedule::Hbmc, -1.0)
        .expect_err("impossible tolerance must reject");
    assert!(err.rel_err >= 0.0);
    assert_eq!(err.tol, -1.0);
    assert!(err.to_string().contains("hbmc schedule rejected"));
    assert_eq!(fd.lu.schedule(), slu::TrisolveSchedule::Level);
    // The plan is untouched: solves are still byte-identical.
    assert_eq!(fd.lu.solve(&b), before);
}

#[test]
fn driver_accepts_hbmc_schedule_end_to_end() {
    let a = generate(MatrixKind::DdsLinear, Scale::Test);
    let n = a.nrows();
    let cfg = pdslin::PdslinConfig {
        k: 4,
        trisolve_schedule: pdslin::TrisolveSchedule::Hbmc,
        ..Default::default()
    };
    let mut solver = pdslin::Pdslin::setup(&a, cfg).expect("setup with hbmc schedule");
    for fd in &solver.factors {
        assert_eq!(fd.lu.schedule(), pdslin::TrisolveSchedule::Hbmc);
    }
    assert_eq!(solver.schur_lu.schedule(), pdslin::TrisolveSchedule::Hbmc);
    let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) / 11.0 - 0.5).collect();
    let out = solver.solve(&b).expect("solve under hbmc schedule");
    let r = sparsekit::ops::residual_inf_norm(&a, &out.x, &b);
    let bnorm = b.iter().fold(0f64, |m, v| m.max(v.abs()));
    assert!(r / bnorm < 1e-8, "relative residual {}", r / bnorm);
}
