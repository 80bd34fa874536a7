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
#[derive(Clone, Debug)]
pub struct CsrOperator<'a> {
    a: &'a Csr,
}

impl<'a> CsrOperator<'a> {
    /// Wraps `a` (must be square).
    pub fn new(a: &'a Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        CsrOperator { a }
    }
}

impl LinearOperator for CsrOperator<'_> {
    fn n(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.matvec_into(x, y);
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
}
