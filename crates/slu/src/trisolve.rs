//! Sparse triangular solves with sparse right-hand sides.
//!
//! The nonzero pattern of `x = L⁻¹ b` for sparse `b` is the *reach* of
//! `b`'s pattern in the DAG of `L` (Gilbert's theorem); the symbolic
//! phase computes it once per column and the numeric phase only touches
//! those positions. This is the kernel PDSLin uses to form
//! `G = L⁻¹ P Ê` and `W = F̂ P̄ U⁻¹` (equation (5) of the paper).

use crate::reach::reach_in;
use sparsekit::Csc;

/// A sparse vector: parallel `(indices, values)`, indices unordered
/// unless stated otherwise.
#[derive(Clone, Debug, Default)]
pub struct SparseVec {
    /// Nonzero positions.
    pub indices: Vec<usize>,
    /// Values parallel to `indices`.
    pub values: Vec<f64>,
}

impl SparseVec {
    /// Creates a sparse vector from parallel arrays.
    pub fn new(indices: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len());
        SparseVec { indices, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Drops entries with `|v| <= tol`, returning the number removed.
    pub fn drop_small(&mut self, tol: f64) -> usize {
        let before = self.indices.len();
        let mut w = 0usize;
        for r in 0..self.indices.len() {
            if self.values[r].abs() > tol {
                self.indices[w] = self.indices[r];
                self.values[w] = self.values[r];
                w += 1;
            }
        }
        self.indices.truncate(w);
        self.values.truncate(w);
        before - w
    }
}

/// Workspace for repeated sparse triangular solves on one matrix.
///
/// Holds the dense scatter array and visit marks so per-column solves
/// allocate nothing.
#[derive(Clone, Debug)]
pub struct SolveWorkspace {
    x: Vec<f64>,
    pub(crate) mark: Vec<usize>,
    pub(crate) stamp: usize,
    pub(crate) stack: Vec<(usize, usize)>,
    pub(crate) topo: Vec<usize>,
}

impl SolveWorkspace {
    /// Workspace for order-`n` solves.
    pub fn new(n: usize) -> Self {
        SolveWorkspace {
            x: vec![0.0; n],
            mark: vec![usize::MAX; n],
            stamp: 0,
            stack: Vec::new(),
            topo: Vec::new(),
        }
    }

    /// The reach left behind by the most recent symbolic pass
    /// ([`compute_reach`] or any solve), in topological order. Borrow
    /// this instead of [`solve_pattern`] when the caller only needs to
    /// *read* the pattern — it avoids the per-call allocation.
    pub fn topo(&self) -> &[usize] {
        &self.topo
    }
}

/// Solves `T x = b` where `T` is lower triangular in CSC (such as `L`
/// from the LU, or `Uᵀ`), with a **sparse** right-hand side.
///
/// If `unit_diag` is set the diagonal is taken as 1 regardless of stored
/// values; otherwise the diagonal entry of every reached column must be
/// present. Returns `x` with indices in topological order.
pub fn sparse_lower_solve(
    l: &Csc,
    unit_diag: bool,
    b: &SparseVec,
    ws: &mut SolveWorkspace,
) -> SparseVec {
    reach_in(l, &b.indices, ws);
    for &i in &ws.topo {
        ws.x[i] = 0.0;
    }
    for (&i, &v) in b.indices.iter().zip(&b.values) {
        ws.x[i] = v;
    }
    let mut out = SparseVec::default();
    out.indices.reserve(ws.topo.len());
    out.values.reserve(ws.topo.len());
    // `ws.topo` is read via index to appease the borrow on `ws.x`.
    for t in 0..ws.topo.len() {
        let j = ws.topo[t];
        let mut xj = ws.x[j];
        if !unit_diag {
            let col = l.col_indices(j);
            let d = col
                .binary_search(&j)
                .expect("missing diagonal in triangular solve");
            xj /= l.col_values(j)[d];
            ws.x[j] = xj;
        }
        if xj != 0.0 {
            for (r, v) in l.col_iter(j) {
                if r > j {
                    ws.x[r] -= v * xj;
                }
            }
        }
        out.indices.push(j);
        out.values.push(xj);
    }
    out
}

/// Symbolic-only variant: the pattern of `T⁻¹ b` (topological order).
pub fn solve_pattern(l: &Csc, b_pattern: &[usize], ws: &mut SolveWorkspace) -> Vec<usize> {
    reach_in(l, b_pattern, ws);
    ws.topo.clone()
}

/// Allocation-free [`solve_pattern`]: computes the reach of `b_pattern`
/// in the DAG of `l` (an edge from column `j` to every row `> j` of
/// that column) and leaves it, in topological order, in the workspace,
/// readable via [`SolveWorkspace::topo`]. Callers that take many
/// reaches on one factor build a [`crate::ReachGraph`] instead.
pub fn compute_reach(l: &Csc, b_pattern: &[usize], ws: &mut SolveWorkspace) {
    reach_in(l, b_pattern, ws);
}

/// Builds the lower-triangular CSC view of `Uᵀ` from an upper-triangular
/// CSC `U` (column `j` of `Uᵀ` is row `j` of `U`).
pub fn lower_from_upper_transpose(u: &Csc) -> Csc {
    // CSR of U = CSC of Uᵀ.
    let ucsr = u.to_csr();
    Csc::from_parts(
        u.ncols(),
        u.nrows(),
        ucsr.indptr().to_vec(),
        ucsr.indices().to_vec(),
        ucsr.values().to_vec(),
    )
}

/// [`lower_from_upper_transpose`] that also records each transpose
/// entry's source position in `u`'s value array: `ut.values()[i] ==
/// u.values()[src[i]]`. A caller transposing a factor that is refreshed
/// in place across a solve sequence (same pattern, new values) keeps the
/// structure and replays only the value permutation.
pub fn transpose_with_sources(u: &Csc) -> (Csc, Vec<usize>) {
    let nnz = u.nnz();
    let mut colptr = vec![0usize; u.nrows() + 1];
    for &r in u.rowind() {
        colptr[r + 1] += 1;
    }
    for i in 0..u.nrows() {
        colptr[i + 1] += colptr[i];
    }
    let mut cursor = colptr[..u.nrows()].to_vec();
    let mut rowind = vec![0usize; nnz];
    let mut values = vec![0f64; nnz];
    let mut src = vec![0usize; nnz];
    for j in 0..u.ncols() {
        let base = u.colptr()[j];
        for (k, (&r, &v)) in u.col_indices(j).iter().zip(u.col_values(j)).enumerate() {
            let dst = cursor[r];
            cursor[r] += 1;
            rowind[dst] = j;
            values[dst] = v;
            src[dst] = base + k;
        }
    }
    let ut = Csc::from_parts(u.ncols(), u.nrows(), colptr, rowind, values);
    (ut, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    /// Lower bidiagonal L with unit diagonal and subdiagonal -0.5.
    fn bidiag_l(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
            if i + 1 < n {
                c.push(i + 1, i, -0.5);
            }
        }
        c.to_csr().to_csc()
    }

    #[test]
    fn sparse_solve_matches_dense_forward_substitution() {
        let n = 10;
        let l = bidiag_l(n);
        let b = SparseVec::new(vec![3], vec![2.0]);
        let mut ws = SolveWorkspace::new(n);
        let x = sparse_lower_solve(&l, true, &b, &mut ws);
        // Dense reference.
        let mut xd = vec![0.0; n];
        xd[3] = 2.0;
        for i in 4..n {
            xd[i] = 0.5 * xd[i - 1];
        }
        for (&i, &v) in x.indices.iter().zip(&x.values) {
            assert!((v - xd[i]).abs() < 1e-14);
        }
        // Pattern = fill path 3..n.
        let mut idx = x.indices.clone();
        idx.sort_unstable();
        assert_eq!(idx, (3..n).collect::<Vec<_>>());
    }

    #[test]
    fn reach_is_topological() {
        let l = bidiag_l(8);
        let mut ws = SolveWorkspace::new(8);
        let pat = solve_pattern(&l, &[2, 5], &mut ws);
        // Every index appears after its dependencies (here simply
        // ascending within each chain).
        let pos: std::collections::HashMap<usize, usize> =
            pat.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        for w in 2..8usize {
            if let (Some(&a), Some(&b)) = (pos.get(&w.saturating_sub(1)), pos.get(&w)) {
                assert!(a < b, "node {} must precede {}", w - 1, w);
            }
        }
    }

    #[test]
    fn non_unit_diagonal_divides() {
        // L = [2 0; 1 4]
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 2.0);
        c.push(1, 0, 1.0);
        c.push(1, 1, 4.0);
        let l = c.to_csr().to_csc();
        let mut ws = SolveWorkspace::new(2);
        let x = sparse_lower_solve(&l, false, &SparseVec::new(vec![0], vec![2.0]), &mut ws);
        let mut m = std::collections::HashMap::new();
        for (&i, &v) in x.indices.iter().zip(&x.values) {
            m.insert(i, v);
        }
        assert!((m[&0] - 1.0).abs() < 1e-14);
        assert!((m[&1] + 0.25).abs() < 1e-14);
    }

    #[test]
    fn upper_transpose_is_lower() {
        // U = [1 2; 0 3] -> Uᵀ = [1 0; 2 3]
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 1, 2.0);
        c.push(1, 1, 3.0);
        let u = c.to_csr().to_csc();
        let lt = lower_from_upper_transpose(&u);
        assert_eq!(lt.get(0, 0), 1.0);
        assert_eq!(lt.get(1, 0), 2.0);
        assert_eq!(lt.get(1, 1), 3.0);
        assert_eq!(lt.get(0, 1), 0.0);
    }

    #[test]
    fn transpose_with_sources_matches_and_replays_values() {
        // A ragged upper factor with a dense-ish last column.
        let mut c = Coo::new(4, 4);
        for j in 0..4 {
            c.push(j, j, 1.0 + j as f64);
        }
        c.push(0, 2, 5.0);
        c.push(1, 3, 6.0);
        c.push(0, 3, 7.0);
        let mut u = c.to_csr().to_csc();
        let (ut, src) = transpose_with_sources(&u);
        assert_eq!(ut, lower_from_upper_transpose(&u));
        for (i, &s) in src.iter().enumerate() {
            assert_eq!(ut.values()[i], u.values()[s]);
        }
        // Refresh the values in place (same pattern) and replay the
        // permutation: the result must equal a from-scratch transpose.
        for v in u.values_mut() {
            *v *= -2.0;
        }
        let mut replayed = ut.clone();
        for (i, &s) in src.iter().enumerate() {
            replayed.values_mut()[i] = u.values()[s];
        }
        assert_eq!(replayed, lower_from_upper_transpose(&u));
    }

    #[test]
    fn drop_small_removes_entries() {
        let mut v = SparseVec::new(vec![0, 1, 2], vec![1.0, 1e-12, -2.0]);
        let dropped = v.drop_small(1e-8);
        assert_eq!(dropped, 1);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.indices, vec![0, 2]);
    }
}
