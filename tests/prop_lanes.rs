//! Property tests of the lane-vectorized kernels (see
//! `docs/kernels.md`): SpMV and the pivot-order triangular solve must
//! be **bit-identical** to their scalar references on the full Table-I
//! matrix zoo.

use matgen::{generate, MatrixKind, Scale};
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind};
use sparsekit::Csr;

/// Subdomain 0 of an NGD `k`-way partition — the matrix shape every
/// subdomain kernel in the solver actually runs on.
fn zoo_subdomain(kind: MatrixKind, k: usize) -> Csr {
    let a = generate(kind, Scale::Test);
    let part = compute_partition(&a, k, &PartitionerKind::Ngd);
    extract_dbbd(&a, part).domains[0].d.clone()
}

#[test]
fn lane_spmv_bit_identical_to_scalar_on_zoo() {
    for kind in MatrixKind::ALL {
        let a = zoo_subdomain(kind, 8);
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
        let d = zoo_subdomain(kind, 4);
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
