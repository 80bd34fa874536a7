//! Triplet (coordinate) format matrix builder.
//!
//! [`Coo`] is the assembly format: entries may be pushed in any order and
//! duplicates are summed when converting to [`Csr`].

use crate::Csr;

/// A sparse matrix in coordinate (triplet) format.
///
/// Used for assembly only; convert to [`Csr`] for computation.
#[derive(Clone, Debug, Default)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Coo {
    /// Creates an empty `nrows × ncols` triplet matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty triplet matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// A triplet matrix over already bounds-checked parallel arrays.
    pub(crate) fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        Coo {
            nrows,
            ncols,
            rows,
            cols,
            vals,
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

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends the entry `(i, j, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows,
            "row index {i} out of bounds ({})",
            self.nrows
        );
        assert!(
            j < self.ncols,
            "col index {j} out of bounds ({})",
            self.ncols
        );
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Appends an entry and, if off-diagonal, its transpose mirror.
    ///
    /// Convenience for assembling symmetric matrices from one triangle.
    pub fn push_sym(&mut self, i: usize, j: usize, v: f64) {
        self.push(i, j, v);
        if i != j {
            self.push(j, i, v);
        }
    }

    /// Iterates over the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&i, &j), &v)| (i, j, v))
    }

    /// Converts to CSR, summing duplicate entries and sorting each row.
    ///
    /// Entries whose sum is exactly zero are *kept* (explicit zeros can be
    /// structurally meaningful for symbolic analysis); use
    /// [`Csr::drop_small`](crate::Csr::drop_small) to prune.
    pub fn to_csr(&self) -> Csr {
        // Counting sort by row.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let indptr_raw = counts.clone();
        let nnz = self.vals.len();
        let mut cols = vec![0usize; nnz];
        let mut vals = vec![0f64; nnz];
        let mut next = indptr_raw.clone();
        for k in 0..nnz {
            let r = self.rows[k];
            let dst = next[r];
            cols[dst] = self.cols[k];
            vals[dst] = self.vals[k];
            next[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_indptr = vec![0usize; self.nrows + 1];
        let mut out_cols = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            let (s, e) = (indptr_raw[r], indptr_raw[r + 1]);
            scratch.clear();
            scratch.extend(cols[s..e].iter().copied().zip(vals[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut last_col = usize::MAX;
            for &(c, v) in scratch.iter() {
                if c == last_col {
                    let lv = out_vals.last_mut().expect("duplicate implies prior entry");
                    *lv += v;
                } else {
                    out_cols.push(c);
                    out_vals.push(v);
                    last_col = c;
                }
            }
            out_indptr[r + 1] = out_cols.len();
        }
        Csr::from_parts(self.nrows, self.ncols, out_indptr, out_cols, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let c = Coo::new(3, 4);
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.ncols(), 4);
        assert_eq!(c.nnz(), 0);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(0, 1, 2.5);
        c.push(1, 0, -1.0);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn rows_sorted_after_conversion() {
        let mut c = Coo::new(1, 5);
        for &j in &[4usize, 0, 2, 1, 3] {
            c.push(0, j, j as f64);
        }
        let m = c.to_csr();
        assert_eq!(m.row_indices(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn push_sym_mirrors_offdiagonal() {
        let mut c = Coo::new(3, 3);
        c.push_sym(0, 1, 2.0);
        c.push_sym(2, 2, 5.0);
        let m = c.to_csr();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_row_panics() {
        let mut c = Coo::new(2, 2);
        c.push(2, 0, 1.0);
    }

    #[test]
    fn iter_yields_inserted_triplets() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 1, 2.0);
        let v: Vec<_> = c.iter().collect();
        assert_eq!(v, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    }
}
