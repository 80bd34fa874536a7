//! Supernode detection and supernodal blocked triangular solves.
//!
//! SuperLU-family solvers group columns with (nearly) identical
//! structure into *supernodes* and run dense kernels on them. The
//! paper's triangular solver is supernodal, and its Fig. 4 counts the
//! padded zeros *in the supernodal blocks*: when a right-hand side
//! reaches any column of a supernode, the whole supernode participates.
//! This module provides the same machinery on top of our
//! column-oriented factor: fundamental supernode detection (with a
//! subset relaxation), a [`SupernodePlan`] that packs each supernode's
//! diagonal block and below-rows into dense microkernel-ready blocks
//! **once**, and a blocked solve that runs `dtrsm`/`dgemm`-like panel
//! kernels ([`crate::microkernel`]) over those blocks — bit-identical
//! to the scalar reference ([`supernodal_blocked_solve_reference`]).

use crate::microkernel::{rank_update_row, trsm_unit_lower};
use crate::reach::{reach_in, ReachAdjacency, ReachGraph};
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

    /// Size of the largest supernode.
    ///
    /// This traverses every supernode on each call; hot loops should use
    /// the width hoisted into a [`SupernodePlan`] instead.
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

/// The build-once execution plan of the supernodal blocked solve: the
/// supernode partition plus, per supernode, everything the hot loop
/// used to recompute per call — hoisted column ranges and widths, the
/// shared below-the-block row list, and the factor values packed into
/// dense microkernel-ready blocks.
///
/// Supernodes of width ≥ 2 get a column-major `w × w` diagonal block
/// (for the `dtrsm`-like panel solve) and a row-major `n_below × w`
/// below-block (one contiguous coefficient row per destination — the
/// layout the register-tiled rank-`w` update wants). Singletons carry
/// no packed data and fall back to the scalar path.
#[derive(Clone, Debug)]
pub struct SupernodePlan {
    sn: Supernodes,
    /// Pruned graph of the factor, for the per-column reaches.
    reach: ReachGraph,
    /// Hoisted `sn_ptr[s]` (start column of supernode `s`).
    start: Vec<usize>,
    /// Hoisted `sn_ptr[s+1] - sn_ptr[s]`.
    width: Vec<usize>,
    max_width: usize,
    /// Below-rows lists, CSR-like over supernodes (empty for width 1).
    rows_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Packed diagonal blocks (column-major `w × w`), offsets per
    /// supernode (empty range for width 1).
    diag_ptr: Vec<usize>,
    diag: Vec<f64>,
    /// Packed below blocks (row-major `n_below × w`).
    below_ptr: Vec<usize>,
    below: Vec<f64>,
}

impl SupernodePlan {
    /// Detects supernodes in `l` with the given relaxation and packs
    /// their dense blocks. `O(nnz(L))` time and at most `O(nnz(L))`
    /// extra storage (plus padding for relaxed supernodes).
    ///
    /// The blocked solve requires the rounding closure property the
    /// scalar path already relied on: every row of a supernode's leading
    /// column must lie inside the rounded pattern whenever any column of
    /// the supernode is reached. Strict fundamental supernodes
    /// (`relax == 0`) guarantee it; relaxed detection is only safe for
    /// padding *accounting*, not for this solver.
    pub fn build(l: &Csc, relax: usize) -> SupernodePlan {
        let sn = detect_supernodes(l, relax);
        Self::from_supernodes(l, sn)
    }

    /// Packs the plan for an already-detected partition (see
    /// [`SupernodePlan::build`] for the closure requirement).
    pub fn from_supernodes(l: &Csc, sn: Supernodes) -> SupernodePlan {
        let n = l.ncols();
        let count = sn.count();
        let mut start = Vec::with_capacity(count);
        let mut width = Vec::with_capacity(count);
        let mut max_width = 0usize;
        let mut rows_ptr = vec![0usize];
        let mut rows: Vec<usize> = Vec::new();
        let mut diag_ptr = vec![0usize];
        let mut diag: Vec<f64> = Vec::new();
        let mut below_ptr = vec![0usize];
        let mut below: Vec<f64> = Vec::new();
        // Scatter map: matrix row -> index in the current supernode's
        // below-row list (build-time only).
        let mut bi_of = vec![usize::MAX; n];
        for s in 0..count {
            let (j0, j1) = (sn.sn_ptr[s], sn.sn_ptr[s + 1]);
            let w = j1 - j0;
            start.push(j0);
            width.push(w);
            max_width = max_width.max(w);
            if w >= 2 {
                // The leading column's pattern covers every later
                // column's (subset rule), so its tail past the diagonal
                // block is the shared below-row list.
                let first_below = rows.len();
                for &r in l.col_indices(j0) {
                    if r >= j1 {
                        bi_of[r] = rows.len() - first_below;
                        rows.push(r);
                    }
                }
                let nbelow = rows.len() - first_below;
                let d0 = diag.len();
                let b0 = below.len();
                diag.resize(d0 + w * w, 0.0);
                below.resize(b0 + nbelow * w, 0.0);
                for j in j0..j1 {
                    let jj = j - j0;
                    for (r, v) in l.col_iter(j) {
                        if r < j1 {
                            diag[d0 + jj * w + (r - j0)] = v;
                        } else {
                            below[b0 + bi_of[r] * w + jj] = v;
                        }
                    }
                }
                for &r in &rows[first_below..] {
                    bi_of[r] = usize::MAX;
                }
            }
            rows_ptr.push(rows.len());
            diag_ptr.push(diag.len());
            below_ptr.push(below.len());
        }
        SupernodePlan {
            sn,
            reach: ReachGraph::build(l),
            start,
            width,
            max_width,
            rows_ptr,
            rows,
            diag_ptr,
            diag,
            below_ptr,
            below,
        }
    }

    /// The underlying supernode partition.
    pub fn supernodes(&self) -> &Supernodes {
        &self.sn
    }

    /// Number of supernodes.
    pub fn count(&self) -> usize {
        self.width.len()
    }

    /// Width of the widest supernode (hoisted; `O(1)`).
    pub fn max_width(&self) -> usize {
        self.max_width
    }
}

/// Symbolic half shared by the supernodal entry points: one reach per
/// column on `adj` (the factor itself, or its pruned graph), giving the
/// true nonzero count and the set of supernodes any reach touches. That
/// set is exactly the supernode rounding of the block's union reach —
/// reach distributes over seed unions — so no second, union reach runs.
fn touched_supernodes<A: ReachAdjacency>(
    adj: &A,
    sn: &Supernodes,
    cols: &[SparseVec],
    ws: &mut SolveWorkspace,
) -> (Vec<bool>, u64) {
    let mut sn_touched = vec![false; sn.count()];
    let mut true_nnz = 0u64;
    for c in cols {
        reach_in(adj, &c.indices, ws);
        true_nnz += ws.topo().len() as u64;
        for &j in ws.topo() {
            sn_touched[sn.sn_of[j]] = true;
        }
    }
    (sn_touched, true_nnz)
}

/// Expands the touched supernodes into the rounded union pattern
/// (ascending columns — a valid topological order for a lower solve)
/// and scatters the right-hand sides into its dense row-major panel.
/// Returns `(pattern, pos, panel)` with `pos` the matrix-row → panel-row
/// map.
fn scatter_rounded(
    n: usize,
    sn: &Supernodes,
    cols: &[SparseVec],
    sn_touched: &[bool],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let bsize = cols.len();
    let mut pattern: Vec<usize> = Vec::new();
    for (s, &touched) in sn_touched.iter().enumerate() {
        if touched {
            pattern.extend(sn.columns(s));
        }
    }
    let mut pos = vec![usize::MAX; n];
    for (t, &row) in pattern.iter().enumerate() {
        pos[row] = t;
    }
    let mut panel = vec![0f64; pattern.len() * bsize];
    for (c, col) in cols.iter().enumerate() {
        for (&i, &v) in col.indices.iter().zip(&col.values) {
            panel[pos[i] * bsize + c] = v;
        }
    }
    (pattern, pos, panel)
}

fn rounded_stats(union_rows: usize, bsize: usize, true_nnz: u64, flops: u64) -> BlockSolveStats {
    BlockSolveStats {
        union_rows,
        true_nnz,
        padded_zeros: (union_rows * bsize) as u64 - true_nnz,
        flops,
    }
}

/// Blocked lower solve with the symbolic pattern rounded up to supernode
/// boundaries (the paper's §IV setting), running the dense microkernel
/// tier over the plan's packed blocks.
///
/// Returns `(expanded_pattern, panel, stats)` like
/// [`crate::blocked_lower_solve`], with `stats.padded_zeros` counted
/// against the *supernodal* union pattern (so it includes both the
/// block-union padding and the supernode rounding). Bit-identical to
/// [`supernodal_blocked_solve_reference`]; faster because the
/// per-column reaches walk the plan's pruned [`ReachGraph`] and the
/// numeric sweep runs packed dense panels instead of per-entry scatter
/// updates.
pub fn supernodal_blocked_solve(
    l: &Csc,
    plan: &SupernodePlan,
    cols: &[SparseVec],
    ws: &mut SolveWorkspace,
) -> (Vec<usize>, Vec<f64>, BlockSolveStats) {
    if cols.is_empty() {
        return (Vec::new(), Vec::new(), BlockSolveStats::default());
    }
    let (sn_touched, true_nnz) = touched_supernodes(&plan.reach, &plan.sn, cols, ws);
    solve_rounded(l, plan, cols, &sn_touched, true_nnz)
}

/// [`supernodal_blocked_solve`] with the per-column reaches supplied by
/// the caller (the RHS-ordering pass, `column_reaches` upstream, has
/// already computed exactly those), skipping the symbolic pass entirely.
/// `reaches[c]` must be the reach of `cols[c].indices` in `l` (any
/// order); output is bit-identical to the self-reaching entry points.
pub fn supernodal_blocked_solve_precomputed(
    l: &Csc,
    plan: &SupernodePlan,
    cols: &[SparseVec],
    reaches: &[Vec<usize>],
) -> (Vec<usize>, Vec<f64>, BlockSolveStats) {
    assert_eq!(cols.len(), reaches.len());
    if cols.is_empty() {
        return (Vec::new(), Vec::new(), BlockSolveStats::default());
    }
    let mut sn_touched = vec![false; plan.count()];
    let mut true_nnz = 0u64;
    for reach in reaches {
        true_nnz += reach.len() as u64;
        for &j in reach {
            sn_touched[plan.sn.sn_of[j]] = true;
        }
    }
    solve_rounded(l, plan, cols, &sn_touched, true_nnz)
}

/// Numeric phase of the microkernel entry points: the dense sweep over
/// the rounded union pattern of the touched supernodes.
fn solve_rounded(
    l: &Csc,
    plan: &SupernodePlan,
    cols: &[SparseVec],
    sn_touched: &[bool],
    true_nnz: u64,
) -> (Vec<usize>, Vec<f64>, BlockSolveStats) {
    let bsize = cols.len();
    let (pattern, pos, mut panel) = scatter_rounded(l.nrows(), &plan.sn, cols, sn_touched);
    let mut flops = 0u64;
    let mut t = 0usize;
    for (s, &touched) in sn_touched.iter().enumerate() {
        if !touched {
            continue;
        }
        let w = plan.width[s];
        if w == 1 {
            // Scalar fallback for singleton supernodes.
            let j = plan.start[s];
            let (head, tail) = panel.split_at_mut((t + 1) * bsize);
            let xrow = &head[t * bsize..];
            for (r, v) in l.col_iter(j) {
                if r <= j {
                    continue;
                }
                let pr = pos[r];
                debug_assert!(
                    pr != usize::MAX && pr > t,
                    "supernodal pattern must be closed"
                );
                sparsekit::lanes::axpy_neg(
                    &mut tail[(pr - t - 1) * bsize..(pr - t) * bsize],
                    xrow,
                    v,
                );
                flops += 2 * bsize as u64;
            }
            t += 1;
            continue;
        }
        // Dense tier: trsm over the diagonal block, then a rank-w
        // register-tiled update of every below row.
        let (head, tail) = panel.split_at_mut((t + w) * bsize);
        let sn_panel = &mut head[t * bsize..];
        trsm_unit_lower(
            &plan.diag[plan.diag_ptr[s]..plan.diag_ptr[s + 1]],
            w,
            sn_panel,
            bsize,
        );
        let sn_panel = &head[t * bsize..];
        let rows = &plan.rows[plan.rows_ptr[s]..plan.rows_ptr[s + 1]];
        let below = &plan.below[plan.below_ptr[s]..plan.below_ptr[s + 1]];
        for (bi, &r) in rows.iter().enumerate() {
            let pr = pos[r];
            debug_assert!(
                pr != usize::MAX && pr >= t + w,
                "supernodal pattern must be closed"
            );
            let dst = &mut tail[(pr - t - w) * bsize..(pr - t - w + 1) * bsize];
            rank_update_row(dst, sn_panel, &below[bi * w..(bi + 1) * w], bsize);
        }
        flops += (2 * bsize * (w * (w - 1) / 2 + rows.len() * w)) as u64;
        t += w;
    }
    debug_assert_eq!(t, pattern.len());
    let stats = rounded_stats(pattern.len(), bsize, true_nnz, flops);
    (pattern, panel, stats)
}

/// The pre-microkernel scalar path, kept as the bit-identity reference
/// for [`supernodal_blocked_solve`]: reaches on the factor's own
/// columns and a per-entry scatter update loop. `bench_kernels` times
/// the two against each other and the property tests assert exact
/// equality of pattern, panel, and stats.
pub fn supernodal_blocked_solve_reference(
    l: &Csc,
    sn: &Supernodes,
    cols: &[SparseVec],
    ws: &mut SolveWorkspace,
) -> (Vec<usize>, Vec<f64>, BlockSolveStats) {
    let bsize = cols.len();
    if bsize == 0 {
        return (Vec::new(), Vec::new(), BlockSolveStats::default());
    }
    let (sn_touched, true_nnz) = touched_supernodes(l, sn, cols, ws);
    let (pattern, pos, mut panel) = scatter_rounded(l.nrows(), sn, cols, &sn_touched);
    let mut flops = 0u64;
    for (t, &j) in pattern.iter().enumerate() {
        let (head, tail) = panel.split_at_mut((t + 1) * bsize);
        let xrow = &head[t * bsize..];
        for (r, v) in l.col_iter(j) {
            if r <= j {
                continue;
            }
            let pr = pos[r];
            debug_assert!(
                pr != usize::MAX && pr > t,
                "supernodal pattern must be closed"
            );
            let dst = &mut tail[(pr - t - 1) * bsize..(pr - t) * bsize];
            for c in 0..bsize {
                dst[c] -= v * xrow[c];
            }
            flops += 2 * bsize as u64;
        }
    }
    let stats = rounded_stats(pattern.len(), bsize, true_nnz, flops);
    (pattern, panel, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::blocked_lower_solve;
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
        let plan = SupernodePlan::from_supernodes(&l, sn);
        assert_eq!(plan.max_width(), 1);
        assert!(plan.diag.is_empty() && plan.below.is_empty());
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
        assert!(strict.count() > relaxed.count() || strict.count() == relaxed.count());
        // With relax=1 column 1 ({1,3}) joins col 0's tail ({1,2,3}).
        assert_eq!(relaxed.sn_of[1], relaxed.sn_of[0]);
    }

    #[test]
    fn plan_hoists_ranges_and_packs_blocks() {
        let l = two_supernode_l();
        let plan = SupernodePlan::build(&l, 0);
        assert_eq!(plan.count(), 2);
        assert_eq!(plan.max_width(), 3);
        assert_eq!(plan.start, vec![0, 2]);
        assert_eq!(plan.width, vec![2, 3]);
        // Supernode 0 = cols {0,1}, diag block 2×2 (unit diag + L[1,0]),
        // below rows {2,3}.
        assert_eq!(&plan.rows[plan.rows_ptr[0]..plan.rows_ptr[1]], &[2, 3]);
        let d = &plan.diag[plan.diag_ptr[0]..plan.diag_ptr[1]];
        assert_eq!(d[1], -0.5); // L[1,0], column-major position (0·w + 1)
        let b = &plan.below[plan.below_ptr[0]..plan.below_ptr[1]];
        // Row-major per below row: row 2 gets [L[2,0], L[2,1]].
        assert_eq!(b, &[-0.5, -0.5, -0.5, -0.5]);
    }

    #[test]
    fn supernodal_solve_matches_columnwise_solve() {
        let l = two_supernode_l();
        let plan = SupernodePlan::build(&l, 0);
        let cols = vec![
            SparseVec::new(vec![0], vec![1.0]),
            SparseVec::new(vec![2], vec![-2.0]),
        ];
        let mut ws = SolveWorkspace::new(5);
        let (pat_s, panel_s, stats_s) = supernodal_blocked_solve(&l, &plan, &cols, &mut ws);
        let mut bws = crate::blocked::BlockWorkspace::new(5);
        let (pat_c, panel_c, stats_c) = blocked_lower_solve(&l, true, &cols, &mut bws);
        // Values agree on the common pattern.
        let mut dense_c = vec![vec![0.0; 5]; 2];
        for (t, &row) in pat_c.iter().enumerate() {
            for c in 0..2 {
                dense_c[c][row] = panel_c[t * 2 + c];
            }
        }
        for (t, &row) in pat_s.iter().enumerate() {
            for c in 0..2 {
                assert!(
                    (panel_s[t * 2 + c] - dense_c[c][row]).abs() < 1e-13,
                    "value mismatch at row {row} col {c}"
                );
            }
        }
        // Supernodal padding ≥ column padding (rounding can only add).
        assert!(stats_s.padded_zeros >= stats_c.padded_zeros);
        assert_eq!(stats_s.true_nnz, stats_c.true_nnz);
    }

    #[test]
    fn microkernel_solve_bit_identical_to_reference() {
        let l = two_supernode_l();
        let plan = SupernodePlan::build(&l, 0);
        let sn = detect_supernodes(&l, 0);
        for cols in [
            vec![SparseVec::new(vec![0], vec![1.25])],
            vec![
                SparseVec::new(vec![0], vec![1.0]),
                SparseVec::new(vec![2], vec![-2.0]),
                SparseVec::new(vec![1, 3], vec![0.3, 7.5]),
            ],
        ] {
            let mut ws = SolveWorkspace::new(5);
            let fast = supernodal_blocked_solve(&l, &plan, &cols, &mut ws);
            let slow = supernodal_blocked_solve_reference(&l, &sn, &cols, &mut ws);
            assert_eq!(fast.0, slow.0, "pattern");
            assert_eq!(fast.1, slow.1, "panel bits");
            assert_eq!(fast.2, slow.2, "stats");
        }
    }

    #[test]
    fn supernode_rounding_expands_pattern() {
        let l = two_supernode_l();
        let plan = SupernodePlan::build(&l, 0);
        // Seeding column 3 only: column reach {3,4}, but supernode 1 is
        // {2,3,4} → expanded pattern has 3 rows.
        let cols = vec![SparseVec::new(vec![3], vec![1.0])];
        let mut ws = SolveWorkspace::new(5);
        let (pat, _panel, stats) = supernodal_blocked_solve(&l, &plan, &cols, &mut ws);
        assert_eq!(pat, vec![2, 3, 4]);
        assert_eq!(stats.true_nnz, 2);
        assert_eq!(stats.padded_zeros, 1);
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
    }
}
