//! Compressed sparse row storage — the workhorse matrix type.

use crate::{Coo, Csc, Perm};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Invariants (enforced by [`Csr::from_parts`]):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, nondecreasing;
/// * column indices within each row are strictly increasing (sorted,
///   duplicate-free) and `< ncols`;
/// * `indices.len() == values.len() == indptr[nrows]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length mismatch");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr end mismatch"
        );
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        for r in 0..nrows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be nondecreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r} indices not strictly increasing");
            }
            if let Some(&last) = row.last() {
                assert!(last < ncols, "column index out of bounds in row {r}");
            }
        }
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Concatenated column indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Concatenated values, parallel to [`Csr::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of row `i`.
    pub fn row_indices(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, parallel to [`Csr::row_indices`].
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_indices(i)
            .iter()
            .copied()
            .zip(self.row_values(i).iter().copied())
    }

    /// Value at `(i, j)`, or `0.0` if not stored. `O(log row_nnz)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = self.row_indices(i);
        match row.binary_search(&j) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => 0.0,
        }
    }

    /// Structural transpose (also transposes values). `O(nnz)`.
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut next = indptr.clone();
        for r in 0..self.nrows {
            for (c, v) in self.row_iter(r) {
                let dst = next[c];
                indices[dst] = r;
                values[dst] = v;
                next[c] += 1;
            }
        }
        // Rows of the transpose are filled in increasing source-row order,
        // so indices are already sorted.
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Converts to compressed sparse column storage.
    pub fn to_csc(&self) -> Csc {
        let t = self.transpose();
        Csc::from_transposed_csr(self.nrows, self.ncols, t)
    }

    /// Converts back to triplet form.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for r in 0..self.nrows {
            for (c, v) in self.row_iter(r) {
                coo.push(r, c, v);
            }
        }
        coo
    }

    /// Structural symmetrisation `|A| + |Aᵀ|` (square matrices only).
    ///
    /// Values become `|a_ij| + |a_ji|`; the pattern is the union of the
    /// pattern and its transpose. This is the matrix the partitioners and
    /// the elimination-tree code operate on, exactly as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize_abs(&self) -> Csr {
        assert_eq!(
            self.nrows, self.ncols,
            "symmetrize_abs requires a square matrix"
        );
        let t = self.transpose();
        // Merge row r of |A| and row r of |Aᵀ|.
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(2 * self.nnz());
        let mut values = Vec::with_capacity(2 * self.nnz());
        for r in 0..self.nrows {
            let (ai, av) = (self.row_indices(r), self.row_values(r));
            let (bi, bv) = (t.row_indices(r), t.row_values(r));
            let (mut p, mut q) = (0usize, 0usize);
            while p < ai.len() || q < bi.len() {
                let ca = if p < ai.len() { ai[p] } else { usize::MAX };
                let cb = if q < bi.len() { bi[q] } else { usize::MAX };
                if ca < cb {
                    indices.push(ca);
                    values.push(av[p].abs());
                    p += 1;
                } else if cb < ca {
                    indices.push(cb);
                    values.push(bv[q].abs());
                    q += 1;
                } else {
                    indices.push(ca);
                    values.push(av[p].abs() + bv[q].abs());
                    p += 1;
                    q += 1;
                }
            }
            indptr[r + 1] = indices.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Returns `P A Qᵀ`: row `i` of the result is row `p.to_old(i)` of `A`
    /// and column `j` corresponds to old column `q.to_old(j)`.
    ///
    /// With `q == p` on a square symmetric matrix, this is the usual
    /// symmetric permutation `P A Pᵀ`.
    pub fn permute(&self, p: &Perm, q: &Perm) -> Csr {
        assert_eq!(p.len(), self.nrows, "row permutation size mismatch");
        assert_eq!(q.len(), self.ncols, "column permutation size mismatch");
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for new_r in 0..self.nrows {
            let old_r = p.to_old(new_r);
            scratch.clear();
            for (c, v) in self.row_iter(old_r) {
                scratch.push((q.to_new(c), v));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v);
            }
            indptr[new_r + 1] = indices.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Extracts the submatrix with the given rows and columns (in the given
    /// order). `rows` and `cols` must contain valid, duplicate-free indices.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Csr {
        let mut col_map = vec![usize::MAX; self.ncols];
        for (new, &old) in cols.iter().enumerate() {
            assert!(col_map[old] == usize::MAX, "duplicate column in submatrix");
            col_map[old] = new;
        }
        let mut indptr = vec![0usize; rows.len() + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for (new_r, &old_r) in rows.iter().enumerate() {
            scratch.clear();
            for (c, v) in self.row_iter(old_r) {
                let nc = col_map[c];
                if nc != usize::MAX {
                    scratch.push((nc, v));
                }
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v);
            }
            indptr[new_r + 1] = indices.len();
        }
        Csr {
            nrows: rows.len(),
            ncols: cols.len(),
            indptr,
            indices,
            values,
        }
    }

    /// Drops entries with `|a_ij| <= tol`, returning the pruned matrix and
    /// the number of dropped entries. Diagonal entries are always kept when
    /// `keep_diagonal` is set (useful before factorisation).
    pub fn drop_small(&self, tol: f64, keep_diagonal: bool) -> (Csr, usize) {
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut dropped = 0usize;
        for r in 0..self.nrows {
            for (c, v) in self.row_iter(r) {
                if v.abs() > tol || (keep_diagonal && c == r) {
                    indices.push(c);
                    values.push(v);
                } else {
                    dropped += 1;
                }
            }
            indptr[r + 1] = indices.len();
        }
        (
            Csr {
                nrows: self.nrows,
                ncols: self.ncols,
                indptr,
                indices,
                values,
            },
            dropped,
        )
    }

    /// This matrix's values on `pattern`'s sparsity: entries outside the
    /// pattern are dropped, pattern entries absent here become zero. Both
    /// matrices must have the same shape.
    pub fn values_in_pattern(&self, pattern: &Csr) -> Csr {
        assert_eq!(
            (self.nrows, self.ncols),
            (pattern.nrows, pattern.ncols),
            "pattern shape mismatch"
        );
        let mut values = vec![0.0; pattern.nnz()];
        for r in 0..self.nrows {
            let (lo, hi) = (pattern.indptr[r], pattern.indptr[r + 1]);
            for (c, v) in self.row_iter(r) {
                if let Ok(pos) = pattern.indices[lo..hi].binary_search(&c) {
                    values[lo + pos] = v;
                }
            }
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: pattern.indptr.clone(),
            indices: pattern.indices.clone(),
            values,
        }
    }

    /// Indices of columns that contain at least one nonzero.
    pub fn nonzero_columns(&self) -> Vec<usize> {
        let mut seen = vec![false; self.ncols];
        for &c in &self.indices {
            seen[c] = true;
        }
        (0..self.ncols).filter(|&c| seen[c]).collect()
    }

    /// Indices of rows that contain at least one nonzero.
    pub fn nonzero_rows(&self) -> Vec<usize> {
        (0..self.nrows).filter(|&r| self.row_nnz(r) > 0).collect()
    }

    /// `y = A x` (allocating).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        let mut y = vec![0f64; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A x` into a caller-provided buffer. The per-row dot product
    /// runs through the lane kernel ([`crate::lanes::row_dot`]), which
    /// is bit-identical to the plain left-to-right loop.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for r in 0..self.nrows {
            y[r] = crate::lanes::row_dot(self.row_indices(r), self.row_values(r), x);
        }
    }

    /// `y += alpha * A x`.
    pub fn matvec_acc(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for r in 0..self.nrows {
            let acc = crate::lanes::row_dot(self.row_indices(r), self.row_values(r), x);
            y[r] += alpha * acc;
        }
    }

    /// `y = Aᵀ x` into a caller-provided buffer. `O(nnz)`, no transpose
    /// materialised; `y` is fully overwritten.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "transpose matvec dimension mismatch");
        assert_eq!(y.len(), self.ncols, "transpose matvec output mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for r in 0..self.nrows {
            let xr = x[r];
            if xr != 0.0 {
                for (c, v) in self.row_iter(r) {
                    y[c] += v * xr;
                }
            }
        }
    }

    /// Splits the rows into at most `max_chunks` contiguous ranges of
    /// near-equal **nonzero count** (not row count), so a parallel
    /// row-sweep gets balanced work even when row densities are skewed.
    /// Every range is nonempty and the ranges cover `0..nrows` exactly.
    pub fn nnz_balanced_chunks(&self, max_chunks: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.nrows;
        if n == 0 {
            return Vec::new();
        }
        let chunks = max_chunks.max(1).min(n);
        if chunks == 1 {
            return std::iter::once(0..n).collect();
        }
        let total = self.nnz() as u128;
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0usize;
        for c in 0..chunks {
            if start >= n {
                break;
            }
            let end = if c + 1 == chunks {
                n
            } else {
                // First row boundary whose cumulative nnz reaches the
                // c+1-th share of the total.
                let target = (total * (c as u128 + 1) / chunks as u128) as usize;
                self.indptr
                    .partition_point(|&p| p < target)
                    .clamp(start + 1, n)
            };
            out.push(start..end);
            start = end;
        }
        if let Some(last) = out.last_mut() {
            last.end = n;
        }
        out
    }

    /// `y = A x` with the row sweep split across `workers` scoped
    /// threads (nnz-balanced ranges). Byte-identical to
    /// [`Csr::matvec_into`]: each row is accumulated by exactly the same
    /// loop, and every worker writes a disjoint slice of `y`.
    pub fn matvec_into_workers(&self, x: &[f64], y: &mut [f64], workers: usize) {
        if workers <= 1 {
            return self.matvec_into(x, y);
        }
        self.matvec_into_chunks(x, y, &self.nnz_balanced_chunks(workers));
    }

    /// [`Csr::matvec_into_workers`] with precomputed row ranges (see
    /// [`Csr::nnz_balanced_chunks`]), so repeated applications — a Krylov
    /// iteration — pay the chunking cost once.
    pub fn matvec_into_chunks(&self, x: &[f64], y: &mut [f64], chunks: &[std::ops::Range<usize>]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        if chunks.len() <= 1 {
            return self.matvec_into(x, y);
        }
        debug_assert_eq!(chunks.iter().map(|r| r.len()).sum::<usize>(), self.nrows);
        let mut tasks: Vec<(std::ops::Range<usize>, &mut [f64])> = Vec::with_capacity(chunks.len());
        let mut rest: &mut [f64] = y;
        for r in chunks {
            let (head, tail) = rest.split_at_mut(r.len());
            tasks.push((r.clone(), head));
            rest = tail;
        }
        std::thread::scope(|sc| {
            for (range, out) in tasks {
                sc.spawn(move || {
                    for (k, r) in range.enumerate() {
                        out[k] = crate::lanes::row_dot(self.row_indices(r), self.row_values(r), x);
                    }
                });
            }
        });
    }

    /// True if the sparsity pattern is symmetric (square matrices only).
    pub fn pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.indptr == t.indptr && self.indices == t.indices
    }

    /// True if the matrix equals its transpose up to `tol`.
    pub fn value_symmetric(&self, tol: f64) -> bool {
        if !self.pattern_symmetric() {
            return false;
        }
        let t = self.transpose();
        self.values
            .iter()
            .zip(t.values.iter())
            .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 1, 3.0);
        c.push(2, 0, 4.0);
        c.push(2, 2, 5.0);
        c.to_csr()
    }

    #[test]
    fn values_in_pattern_drops_outside_and_zero_fills_inside() {
        // Pattern: the diagonal plus (0, 1), which `small` lacks.
        let mut p = Coo::new(3, 3);
        for (r, c) in [(0, 0), (0, 1), (1, 1), (2, 2)] {
            p.push(r, c, 9.0);
        }
        let got = small().values_in_pattern(&p.to_csr());
        assert_eq!(got.indices(), p.to_csr().indices());
        assert_eq!(got.values(), &[1.0, 0.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_entries() {
        let a = small().transpose();
        assert_eq!(a.get(0, 2), 4.0);
        assert_eq!(a.get(2, 0), 2.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn identity_matvec_is_id() {
        let i = Csr::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_small() {
        let a = small();
        let y = a.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn matvec_transpose_into_overwrites_stale_buffer() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![99.0; 3];
        a.matvec_transpose_into(&x, &mut y);
        assert_eq!(y, a.transpose().matvec(&x));
    }

    /// Skewed test matrix: row r has `r + 1` entries.
    fn lower_dense_triangle(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for r in 0..n {
            for j in 0..=r {
                c.push(r, j, (r * n + j + 1) as f64);
            }
        }
        c.to_csr()
    }

    #[test]
    fn nnz_balanced_chunks_cover_and_balance() {
        let a = lower_dense_triangle(64);
        for w in [1usize, 2, 3, 4, 7, 16] {
            let chunks = a.nnz_balanced_chunks(w);
            assert!(chunks.len() <= w.max(1));
            let mut next = 0;
            for r in &chunks {
                assert_eq!(r.start, next, "contiguous");
                assert!(!r.is_empty(), "no empty chunks");
                next = r.end;
            }
            assert_eq!(next, a.nrows(), "full coverage");
            if w > 1 && chunks.len() == w {
                // nnz per chunk stays near total/w despite the skewed
                // row densities (row-count chunking would be 4x off).
                let per: Vec<usize> = chunks
                    .iter()
                    .map(|r| a.indptr()[r.end] - a.indptr()[r.start])
                    .collect();
                let ideal = a.nnz() / w;
                for p in per {
                    assert!(p <= 2 * ideal + 64, "chunk nnz {p} vs ideal {ideal}");
                }
            }
        }
    }

    #[test]
    fn nnz_balanced_chunks_edge_cases() {
        assert!(Coo::new(0, 0).to_csr().nnz_balanced_chunks(4).is_empty());
        // Empty rows at the tail still get covered.
        let mut c = Coo::new(6, 6);
        c.push(0, 0, 1.0);
        let a = c.to_csr();
        let chunks = a.nnz_balanced_chunks(3);
        assert_eq!(chunks.iter().map(|r| r.len()).sum::<usize>(), 6);
    }

    #[test]
    fn parallel_matvec_is_byte_identical() {
        let a = lower_dense_triangle(40);
        let x: Vec<f64> = (0..40).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let mut serial = vec![0.0; 40];
        a.matvec_into(&x, &mut serial);
        for w in [1usize, 2, 3, 4, 7] {
            let mut par = vec![f64::NAN; 40];
            a.matvec_into_workers(&x, &mut par, w);
            assert_eq!(par, serial, "workers {w}");
            let chunks = a.nnz_balanced_chunks(w);
            let mut par2 = vec![f64::NAN; 40];
            a.matvec_into_chunks(&x, &mut par2, &chunks);
            assert_eq!(par2, serial, "cached chunks, workers {w}");
        }
    }

    #[test]
    fn symmetrize_abs_pattern_union() {
        let a = small();
        let s = a.symmetrize_abs();
        assert!(s.pattern_symmetric());
        assert_eq!(s.get(0, 2), 2.0 + 4.0);
        assert_eq!(s.get(2, 0), 2.0 + 4.0);
        assert_eq!(s.get(1, 1), 2.0 * 3.0);
    }

    #[test]
    fn permute_symmetric() {
        let a = small();
        let p = Perm::from_to_old(vec![2, 0, 1]);
        let b = a.permute(&p, &p);
        // new (0,0) is old (2,2)
        assert_eq!(b.get(0, 0), 5.0);
        // new (0,1) is old (2,0)
        assert_eq!(b.get(0, 1), 4.0);
        assert_eq!(b.get(1, 2), 0.0); // old (0,1) == 0
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn permute_rectangular() {
        let mut c = Coo::new(2, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 2.0);
        c.push(1, 1, 3.0);
        let a = c.to_csr();
        let p = Perm::from_to_old(vec![1, 0]);
        let q = Perm::from_to_old(vec![2, 0, 1]);
        let b = a.permute(&p, &q);
        // new row 0 = old row 1; new col 0 = old col 2.
        assert_eq!(b.get(0, 2), 3.0); // old (1,1) -> new col of old 1 = 2
        assert_eq!(b.get(1, 1), 1.0); // old (0,0) -> new col of old 0 = 1
        assert_eq!(b.get(1, 0), 2.0); // old (0,2) -> new col of old 2 = 0
    }

    #[test]
    fn submatrix_extraction() {
        let a = small();
        let s = a.submatrix(&[0, 2], &[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 0), 4.0);
        assert_eq!(s.get(1, 1), 5.0);
    }

    #[test]
    fn drop_small_keeps_diagonal() {
        let a = small();
        let (d, dropped) = a.drop_small(2.5, true);
        // 1.0 (diag kept), 2.0 dropped, 3.0 kept, 4.0 kept, 5.0 kept
        assert_eq!(dropped, 1);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 2), 0.0);
    }

    #[test]
    fn nonzero_columns_and_rows() {
        let mut c = Coo::new(3, 4);
        c.push(0, 1, 1.0);
        c.push(2, 3, 1.0);
        let m = c.to_csr();
        assert_eq!(m.nonzero_columns(), vec![1, 3]);
        assert_eq!(m.nonzero_rows(), vec![0, 2]);
    }

    #[test]
    fn symmetry_checks() {
        let mut c = Coo::new(2, 2);
        c.push_sym(0, 1, 2.0);
        c.push(0, 0, 1.0);
        c.push(1, 1, 1.0);
        let m = c.to_csr();
        assert!(m.pattern_symmetric());
        assert!(m.value_symmetric(1e-14));
        // small() has a symmetric pattern but unsymmetric values.
        let a = small();
        assert!(a.pattern_symmetric());
        assert!(!a.value_symmetric(1e-14));
        // A genuinely unsymmetric pattern.
        let mut c2 = Coo::new(2, 2);
        c2.push(0, 1, 1.0);
        assert!(!c2.to_csr().pattern_symmetric());
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_unsorted() {
        Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }
}
