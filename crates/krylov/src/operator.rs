//! Operator and preconditioner abstractions.

use sparsekit::Csr;

/// A square linear operator `y = A x` applied matrix-free.
pub trait LinearOperator {
    /// Operator dimension.
    fn n(&self) -> usize;
    /// Computes `y = A x` (`y` is pre-sized to `n`).
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Computes `ys[l] = A xs[l]` for every lane `l`. The default runs
    /// one [`LinearOperator::apply`] per lane; an operator that can
    /// serve several vectors per pass over its data overrides it, and
    /// every lane must then stay bit-identical to its single apply.
    fn apply_lanes(&self, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.apply(x, y);
        }
    }
}

/// A preconditioner application `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Computes `z = M⁻¹ r` (`z` is pre-sized).
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Computes `zs[l] = M⁻¹ rs[l]` for every lane `l`; the same
    /// contract as [`LinearOperator::apply_lanes`].
    fn apply_lanes(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            self.apply(r, z);
        }
    }
}

/// The trivial preconditioner `M = I`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Jacobi (diagonal) preconditioner.
#[derive(Clone, Debug)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds `diag(A)⁻¹`; zero diagonals are treated as 1.
    pub fn new(a: &Csr) -> Self {
        let n = a.nrows();
        let inv_diag = (0..n)
            .map(|i| {
                let d = a.get(i, i);
                if d == 0.0 {
                    1.0
                } else {
                    1.0 / d
                }
            })
            .collect();
        JacobiPrecond { inv_diag }
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

/// Wraps an explicit sparse matrix as a [`LinearOperator`].
///
/// Built with [`CsrOperator::with_workers`], the operator computes
/// nnz-balanced row chunks **once** and reuses them on every apply, so
/// the per-iteration cost of a parallel SpMV is just the scoped-thread
/// dispatch. The parallel result is byte-identical to the serial one
/// (each output row is produced by the same accumulation loop).
#[derive(Clone, Debug)]
pub struct CsrOperator<'a> {
    a: &'a Csr,
    chunks: Vec<std::ops::Range<usize>>,
}

impl<'a> CsrOperator<'a> {
    /// Wraps `a` (must be square) for serial application.
    pub fn new(a: &'a Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        CsrOperator {
            a,
            chunks: Vec::new(),
        }
    }

    /// Wraps `a` with row chunks balanced for `workers` threads; with
    /// `workers <= 1` this is identical to [`CsrOperator::new`].
    pub fn with_workers(a: &'a Csr, workers: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        let chunks = if workers > 1 {
            a.nnz_balanced_chunks(workers)
        } else {
            Vec::new()
        };
        CsrOperator { a, chunks }
    }

    /// Number of threads an apply will use.
    pub fn workers(&self) -> usize {
        self.chunks.len().max(1)
    }
}

impl LinearOperator for CsrOperator<'_> {
    fn n(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        if self.chunks.len() > 1 {
            self.a.matvec_into_chunks(x, y, &self.chunks);
        } else {
            self.a.matvec_into(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    #[test]
    fn csr_operator_applies_matvec() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 2.0);
        c.push(1, 1, 3.0);
        let a = c.to_csr();
        let op = CsrOperator::new(&a);
        let mut y = vec![0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn jacobi_inverts_diagonal() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 4.0);
        c.push(1, 1, 0.5);
        let a = c.to_csr();
        let m = JacobiPrecond::new(&a);
        let mut z = vec![0.0; 2];
        m.apply(&[8.0, 1.0], &mut z);
        assert_eq!(z, vec![2.0, 2.0]);
    }

    #[test]
    fn identity_precond_copies() {
        let m = IdentityPrecond;
        let mut z = vec![0.0; 3];
        m.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn chunked_operator_matches_serial_exactly() {
        let n = 300;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0 + (i % 7) as f64);
            if i + 1 < n {
                c.push_sym(i, i + 1, -1.0);
            }
        }
        let a = c.to_csr();
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        let serial = CsrOperator::new(&a);
        let mut y_ref = vec![0.0; n];
        serial.apply(&x, &mut y_ref);
        for w in [1usize, 2, 4, 7] {
            let par = CsrOperator::with_workers(&a, w);
            let mut y = vec![f64::NAN; n];
            par.apply(&x, &mut y);
            assert_eq!(y, y_ref, "workers {w}");
        }
    }
}
