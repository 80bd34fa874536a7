//! Dense-vector helpers and miscellaneous structural operations.

use crate::Csr;

/// Euclidean norm of a dense vector.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Dot product of two dense vectors.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Infinity norm of the residual `b − A x`.
///
/// Allocation-free: each row's `(Ax)_r` is accumulated on the stack —
/// with exactly the same per-row loop as [`Csr::matvec_into`], so the
/// result is byte-identical to the materialised form — and folded into
/// the running maximum directly. Residual checks run once per Krylov
/// attempt, so a fresh `Ax` vector here was a steady-state allocation.
pub fn residual_inf_norm(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(x.len(), a.ncols(), "residual dimension mismatch");
    assert_eq!(b.len(), a.nrows(), "residual rhs mismatch");
    let mut worst = 0.0f64;
    for r in 0..a.nrows() {
        let mut acc = 0f64;
        for (c, v) in a.row_iter(r) {
            acc += v * x[c];
        }
        worst = worst.max((acc - b[r]).abs());
    }
    worst
}

/// Sparse matrix sum `C = A + beta·B` (patterns merged).
pub fn add_scaled(a: &Csr, beta: f64, b: &Csr) -> Csr {
    assert_eq!(a.nrows(), b.nrows(), "add_scaled row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "add_scaled col mismatch");
    let n = a.nrows();
    let mut indptr = vec![0usize; n + 1];
    let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for r in 0..n {
        let (ai, av) = (a.row_indices(r), a.row_values(r));
        let (bi, bv) = (b.row_indices(r), b.row_values(r));
        let (mut p, mut q) = (0usize, 0usize);
        while p < ai.len() || q < bi.len() {
            let ca = if p < ai.len() { ai[p] } else { usize::MAX };
            let cb = if q < bi.len() { bi[q] } else { usize::MAX };
            if ca < cb {
                indices.push(ca);
                values.push(av[p]);
                p += 1;
            } else if cb < ca {
                indices.push(cb);
                values.push(beta * bv[q]);
                q += 1;
            } else {
                indices.push(ca);
                values.push(av[p] + beta * bv[q]);
                p += 1;
                q += 1;
            }
        }
        indptr[r + 1] = indices.len();
    }
    Csr::from_parts(n, a.ncols(), indptr, indices, values)
}

/// Row nnz histogram helper: returns `(min, max, sum)` of row counts.
pub fn row_nnz_stats(a: &Csr) -> (usize, usize, usize) {
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    for r in 0..a.nrows() {
        let c = a.row_nnz(r);
        min = min.min(c);
        max = max.max(c);
        sum += c;
    }
    if a.nrows() == 0 {
        min = 0;
    }
    (min, max, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn vector_kernels() {
        let x = vec![3.0, 4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(dot(&x, &[1.0, 2.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = Csr::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(residual_inf_norm(&a, &x, &x), 0.0);
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let mut c1 = Coo::new(2, 3);
        c1.push(0, 0, 1.0);
        c1.push(1, 2, 2.0);
        let a = c1.to_csr();
        let mut c2 = Coo::new(2, 3);
        c2.push(0, 1, 3.0);
        c2.push(1, 2, 4.0);
        let b = c2.to_csr();
        let s = add_scaled(&a, -0.5, &b);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), -1.5);
        assert_eq!(s.get(1, 2), 0.0);
        assert_eq!(s.nnz(), 3, "union pattern kept (explicit zero)");
    }

    #[test]
    fn add_scaled_identity_shift() {
        let a = Csr::identity(3);
        let s = add_scaled(&a, 2.0, &a);
        for i in 0..3 {
            assert_eq!(s.get(i, i), 3.0);
        }
    }

    #[test]
    fn row_stats() {
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(0, 1, 1.0);
        c.push(2, 2, 1.0);
        let a = c.to_csr();
        assert_eq!(row_nnz_stats(&a), (0, 2, 3));
    }
}
