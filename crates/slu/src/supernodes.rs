//! Supernode detection and supernodal padding accounting.
//!
//! SuperLU-family solvers group columns with (nearly) identical
//! structure into *supernodes* and run dense kernels on them. The
//! paper's triangular solver is supernodal, and its Fig. 4 counts the
//! padded zeros *in the supernodal blocks*: when a right-hand side
//! reaches any column of a supernode, the whole supernode participates.
//! This module reproduces that accounting on top of our column-oriented
//! factor: fundamental supernode detection (with a subset relaxation)
//! and [`supernodal_padding`], the padding of one block rounded up to
//! supernode boundaries. The numeric blocked solve stays
//! column-granular ([`crate::blocked`]); `docs/kernels.md` records why.

use crate::reach::ReachGraph;
use crate::trisolve::{SolveWorkspace, SparseVec};
use crate::BlockSolveStats;
use sparsekit::Csc;

/// A partition of the columns `0..n` into supernodes of consecutive
/// columns.
#[derive(Clone, Debug)]
pub struct Supernodes {
    /// `sn_ptr[s]..sn_ptr[s+1]` is the column range of supernode `s`.
    pub sn_ptr: Vec<usize>,
    /// `sn_of[j]` = supernode containing column `j`.
    pub sn_of: Vec<usize>,
}

impl Supernodes {
    /// Number of supernodes.
    pub fn count(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Column range of supernode `s`.
    pub fn columns(&self, s: usize) -> std::ops::Range<usize> {
        self.sn_ptr[s]..self.sn_ptr[s + 1]
    }

    /// Size of the largest supernode (traverses every supernode).
    pub fn max_size(&self) -> usize {
        (0..self.count())
            .map(|s| self.columns(s).len())
            .max()
            .unwrap_or(0)
    }
}

/// Detects supernodes in a lower-triangular factor.
///
/// Column `j+1` joins the supernode of column `j` when its pattern is a
/// subset of `pattern(L(:,j)) \ {j}` missing at most `relax` rows (the
/// strict fundamental-supernode rule is `relax == 0`, where the two
/// patterns must match exactly).
pub fn detect_supernodes(l: &Csc, relax: usize) -> Supernodes {
    let n = l.ncols();
    let mut sn_ptr = vec![0usize];
    let mut sn_of = vec![0usize; n];
    if n == 0 {
        return Supernodes { sn_ptr, sn_of };
    }
    let mut current = 0usize;
    for j in 1..n {
        let prev = l.col_indices(j - 1);
        let cur = l.col_indices(j);
        // prev[0] is the diagonal j-1; the remainder must cover `cur`.
        let prev_tail = if prev.first() == Some(&(j - 1)) {
            &prev[1..]
        } else {
            prev
        };
        let joined = prev_tail.len() >= cur.len()
            && prev_tail.len() - cur.len() <= relax
            && is_subset(cur, prev_tail);
        if joined {
            sn_of[j] = current;
        } else {
            sn_ptr.push(j);
            current += 1;
            sn_of[j] = current;
        }
    }
    sn_ptr.push(n);
    Supernodes { sn_ptr, sn_of }
}

/// True if sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[usize], b: &[usize]) -> bool {
    let mut ib = 0usize;
    for &x in a {
        while ib < b.len() && b[ib] < x {
            ib += 1;
        }
        if ib == b.len() || b[ib] != x {
            return false;
        }
        ib += 1;
    }
    true
}

/// Padding of one block of right-hand sides `cols` when the blocked
/// solve pads whole supernodes of `sn` (the paper's §IV setting), on the
/// pruned graph `l` of the factor.
///
/// One reach per column gives the true nonzero count and the set of
/// supernodes any reach touches. That set is exactly the supernode
/// rounding of the block's union reach — reach distributes over seed
/// unions — so no union reach runs. `union_rows` counts the columns of
/// the touched supernodes and `padded_zeros = union_rows · B − true_nnz`
/// with `B = cols.len()`; nothing numeric runs, so `flops` is 0.
pub fn supernodal_padding(
    l: &ReachGraph,
    sn: &Supernodes,
    cols: &[SparseVec],
    ws: &mut SolveWorkspace,
) -> BlockSolveStats {
    let mut touched = vec![false; sn.count()];
    let mut true_nnz = 0u64;
    for c in cols {
        l.reach(&c.indices, ws);
        true_nnz += ws.topo().len() as u64;
        for &j in ws.topo() {
            touched[sn.sn_of[j]] = true;
        }
    }
    let union_rows: usize = (0..sn.count())
        .filter(|&s| touched[s])
        .map(|s| sn.columns(s).len())
        .sum();
    BlockSolveStats {
        union_rows,
        true_nnz,
        padded_zeros: (union_rows * cols.len()) as u64 - true_nnz,
        flops: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    /// A factor with two clear supernodes: columns {0,1} share structure
    /// (rows 0..4), columns {2,3} share structure (rows 2..4), column 4
    /// is a singleton.
    fn two_supernode_l() -> Csc {
        let mut c = Coo::new(5, 5);
        for j in 0..5 {
            c.push(j, j, 1.0);
        }
        for &(i, j) in &[
            (1, 0),
            (2, 0),
            (3, 0),
            (2, 1),
            (3, 1),
            (3, 2),
            (4, 2),
            (4, 3),
        ] {
            c.push(i, j, -0.5);
        }
        c.to_csr().to_csc()
    }

    #[test]
    fn fundamental_detection() {
        let l = two_supernode_l();
        let sn = detect_supernodes(&l, 0);
        // Column 1 pattern {1,2,3} == col 0 tail {1,2,3}: joined.
        // Column 2 pattern {2,3,4} != col 1 tail {2,3}: new supernode.
        // Column 3 pattern {3,4} == col 2 tail {3,4}: joined.
        // Column 4 pattern {4} == col 3 tail {4}: joined.
        assert_eq!(sn.sn_ptr, vec![0, 2, 5]);
        assert_eq!(sn.sn_of, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn identity_factor_has_singleton_supernodes() {
        // Identity L: every column's tail is empty while the next column
        // still holds its own diagonal, so nothing merges.
        let l = sparsekit::Csr::identity(4).to_csc();
        let sn = detect_supernodes(&l, 0);
        assert_eq!(sn.count(), 4);
        assert_eq!(sn.max_size(), 1);
    }

    #[test]
    fn relaxation_merges_near_matches() {
        // col0: rows {0,1,2,3}; col1: rows {1,3} (misses 2).
        let mut c = Coo::new(4, 4);
        for j in 0..4 {
            c.push(j, j, 1.0);
        }
        c.push(1, 0, -0.5);
        c.push(2, 0, -0.5);
        c.push(3, 0, -0.5);
        c.push(3, 1, -0.5);
        let l = c.to_csr().to_csc();
        let strict = detect_supernodes(&l, 0);
        let relaxed = detect_supernodes(&l, 1);
        assert!(strict.count() >= relaxed.count());
        // With relax=1 column 1 ({1,3}) joins col 0's tail ({1,2,3}).
        assert_eq!(relaxed.sn_of[1], relaxed.sn_of[0]);
    }

    #[test]
    fn supernode_rounding_expands_pattern() {
        let l = two_supernode_l();
        let sn = detect_supernodes(&l, 0);
        let graph = ReachGraph::build(&l);
        let mut ws = SolveWorkspace::new(5);
        // Seeding column 3 only: column reach {3,4}, but supernode 1 is
        // {2,3,4} → the rounded pattern has 3 rows.
        let cols = vec![SparseVec::new(vec![3], vec![1.0])];
        let stats = supernodal_padding(&graph, &sn, &cols, &mut ws);
        assert_eq!(stats.union_rows, 3);
        assert_eq!(stats.true_nnz, 2);
        assert_eq!(stats.padded_zeros, 1);
        // Rounding can only add to the column padding of the same block.
        let cols = vec![
            SparseVec::new(vec![0], vec![1.0]),
            SparseVec::new(vec![2], vec![-2.0]),
        ];
        let stats = supernodal_padding(&graph, &sn, &cols, &mut ws);
        let (_x, column) = crate::solve_in_blocks(&l, true, &cols, 2);
        assert_eq!(stats.true_nnz, column.true_nnz);
        assert!(stats.padded_zeros >= column.padded_zeros);
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
    }
}
