//! Blocked sparse triangular solution with multiple sparse right-hand
//! sides — the §IV kernel of the paper.
//!
//! PDSLin partitions the columns of `Ê` into blocks of `B` columns and
//! solves each block *simultaneously*: the block's columns share one
//! symbolic pattern (the union of their reaches), the `L`-factor is
//! walked once per block, and the inner update loops run over dense
//! `B`-wide panels. The price is **padded zeros**: positions present in
//! the union pattern but absent from an individual column's true
//! pattern. The reordering strategies of §IV exist precisely to shrink
//! that padding.
//!
//! There is one symbolic path and one numeric path: a
//! [`BlockedSolvePlan`] (block decomposition, per-block union reach,
//! padding accounting — taken on the factor's pruned
//! [`ReachGraph`]) and
//! [`solve_in_blocks_planned`], which runs the panel substitutions of a
//! plan, concurrently when asked. Every other entry point builds a plan
//! and calls it.

use crate::reach::{reach_in, ReachAdjacency, ReachGraph};
use crate::trisolve::{SolveWorkspace, SparseVec};
use sparsekit::budget::{Budget, BudgetInterrupt};
use sparsekit::Csc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Accounting for one blocked solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockSolveStats {
    /// Rows in the union pattern of the block.
    pub union_rows: usize,
    /// Total *structural* nonzeros over the block's true column patterns.
    pub true_nnz: u64,
    /// Padded zeros: `union_rows · B − true_nnz`.
    pub padded_zeros: u64,
    /// Floating-point operations performed by the numeric phase.
    pub flops: u64,
}

impl BlockSolveStats {
    /// Fraction of the dense panel that is padding.
    pub fn padding_fraction(&self) -> f64 {
        let total = self.true_nnz + self.padded_zeros;
        if total == 0 {
            0.0
        } else {
            self.padded_zeros as f64 / total as f64
        }
    }

    /// Accumulates another block's statistics.
    pub fn merge(&mut self, other: &BlockSolveStats) {
        self.union_rows += other.union_rows;
        self.true_nnz += other.true_nnz;
        self.padded_zeros += other.padded_zeros;
        self.flops += other.flops;
    }
}

/// Pooled numeric scratch for repeated blocked solves on one `n×n`
/// factor: the O(n) scatter map and the reusable dense panel. One of
/// these per worker is the entire steady-state memory traffic of the
/// blocked solver — solving a block allocates nothing beyond its output
/// columns.
#[derive(Clone, Debug)]
struct BlockWorkspace {
    /// Matrix row → panel row for the current block; `usize::MAX`
    /// everywhere between blocks (reset by walking the union pattern,
    /// O(union) not O(n)).
    pos: Vec<usize>,
    panel: Vec<f64>,
}

impl BlockWorkspace {
    /// Workspace for blocked solves on an order-`n` factor.
    fn new(n: usize) -> Self {
        BlockWorkspace {
            pos: vec![usize::MAX; n],
            panel: Vec::new(),
        }
    }
}

/// One block of a [`BlockedSolvePlan`]: which columns it solves and its
/// symbolic state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlannedBlock {
    /// Indices into `cols` (one `block_size` chunk of the caller's
    /// column order).
    cols: Vec<usize>,
    /// Union reach of the block's columns, topological order.
    pattern: Vec<usize>,
    /// Total structural nonzeros over the true per-column patterns
    /// (padding accounting).
    true_nnz: u64,
}

/// Value-independent symbolic schedule of one blocked solve: the block
/// decomposition of the column order plus each block's union reach and
/// padding accounting. It depends only on the *patterns* of `L` and the
/// right-hand sides — so a sequence of solves against factors refreshed
/// by pivot replay (identical pattern, new values) builds the plan once
/// and replays numerics via [`solve_in_blocks_planned`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedSolvePlan {
    ncols: usize,
    blocks: Vec<PlannedBlock>,
}

impl BlockedSolvePlan {
    /// Runs the symbolic half of the blocked solve — per-column reaches
    /// for padding accounting and the per-block union reach — on the
    /// pruned [`ReachGraph`] of `l`. Valid for any later solve against a
    /// factor with the same pattern and right-hand sides with the same
    /// patterns in the same order.
    pub fn build(l: &Csc, cols: &[SparseVec], order: &[usize], block_size: usize) -> Self {
        Self::build_on(&ReachGraph::build(l), l.nrows(), cols, order, block_size)
    }

    /// [`BlockedSolvePlan::build`] over a caller-supplied graph of an
    /// order-`n` factor: the factor itself (full graph) or its
    /// [`ReachGraph`]. Both give the same plan, field for field.
    pub fn build_on<A: ReachAdjacency>(
        adj: &A,
        n: usize,
        cols: &[SparseVec],
        order: &[usize],
        block_size: usize,
    ) -> Self {
        assert!(block_size > 0);
        let mut ws = SolveWorkspace::new(n);
        let mut seeds: Vec<usize> = Vec::new();
        let blocks = order
            .chunks(block_size)
            .map(|chunk| {
                let mut true_nnz = 0u64;
                seeds.clear();
                for &ci in chunk {
                    let c = &cols[ci];
                    reach_in(adj, &c.indices, &mut ws);
                    true_nnz += ws.topo().len() as u64;
                    seeds.extend_from_slice(&c.indices);
                }
                seeds.sort_unstable();
                seeds.dedup();
                reach_in(adj, &seeds, &mut ws);
                PlannedBlock {
                    cols: chunk.to_vec(),
                    pattern: ws.topo().to_vec(),
                    true_nnz,
                }
            })
            .collect();
        BlockedSolvePlan {
            ncols: order.len(),
            blocks,
        }
    }

    /// Number of columns the plan solves.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Heap bytes held by the cached patterns (capacity accounting).
    pub fn memory_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| (b.cols.capacity() + b.pattern.capacity()) * std::mem::size_of::<usize>())
            .sum()
    }
}

/// Numeric panel substitution of one planned block, leaving the dense
/// row-major `union_rows × B` panel in `ws.panel`. Expects `ws.pos` to
/// be all-MAX and restores it before returning.
fn numeric_on_pattern(
    l: &Csc,
    unit_diag: bool,
    cols: &[SparseVec],
    pb: &PlannedBlock,
    ws: &mut BlockWorkspace,
) -> BlockSolveStats {
    let bsize = pb.cols.len();
    let union_rows = pb.pattern.len();
    // Scatter map: matrix row -> panel row.
    for (t, &row) in pb.pattern.iter().enumerate() {
        ws.pos[row] = t;
    }
    ws.panel.clear();
    ws.panel.resize(union_rows * bsize, 0.0);
    for (c, &ci) in pb.cols.iter().enumerate() {
        let col = &cols[ci];
        for (&i, &v) in col.indices.iter().zip(&col.values) {
            ws.panel[ws.pos[i] * bsize + c] = v;
        }
    }
    // Forward substitution over the union pattern, all columns at once.
    let mut flops = 0u64;
    for t in 0..union_rows {
        let j = pb.pattern[t];
        if !unit_diag {
            let cix = l.col_indices(j);
            let d = cix.binary_search(&j).expect("missing diagonal");
            let dv = l.col_values(j)[d];
            sparsekit::lanes::scale_div(&mut ws.panel[t * bsize..(t + 1) * bsize], dv);
            flops += bsize as u64;
        }
        let (head, tail) = ws.panel.split_at_mut((t + 1) * bsize);
        let xrow = &head[t * bsize..];
        for (r, v) in l.col_iter(j) {
            if r <= j {
                continue;
            }
            let pr = ws.pos[r];
            debug_assert!(pr != usize::MAX && pr > t, "union pattern must be closed");
            // Lane-vectorized panel update, bit-identical to the scalar
            // per-entry loop (independent destinations).
            sparsekit::lanes::axpy_neg(&mut tail[(pr - t - 1) * bsize..(pr - t) * bsize], xrow, v);
            flops += 2 * bsize as u64;
        }
    }
    // Leave `pos` all-MAX for the next block (O(union), not O(n)).
    for &row in &pb.pattern {
        ws.pos[row] = usize::MAX;
    }
    BlockSolveStats {
        union_rows,
        true_nnz: pb.true_nnz,
        padded_zeros: (union_rows * bsize) as u64 - pb.true_nnz,
        flops,
    }
}

/// Copies a solved panel out as one [`SparseVec`] per column (on the
/// block-union pattern, padded zeros stored explicitly).
fn extract_columns(pb: &PlannedBlock, panel: &[f64], out: &mut Vec<SparseVec>) {
    let bsize = pb.cols.len();
    for c in 0..bsize {
        let values = (0..pb.pattern.len())
            .map(|t| panel[t * bsize + c])
            .collect();
        out.push(SparseVec::new(pb.pattern.clone(), values));
    }
}

/// Solves all columns in blocks of `block_size`, returning the solution
/// columns (on their block-union patterns) and merged statistics.
pub fn solve_in_blocks(
    l: &Csc,
    unit_diag: bool,
    cols: &[SparseVec],
    block_size: usize,
) -> (Vec<SparseVec>, BlockSolveStats) {
    let order: Vec<usize> = (0..cols.len()).collect();
    solve_in_blocks_ordered(
        l,
        unit_diag,
        cols,
        &order,
        block_size,
        1,
        &Budget::unlimited(),
    )
    .expect("unlimited budget never interrupts")
}

/// Blocked solve through an index permutation: builds a
/// [`BlockedSolvePlan`] for `order` and runs
/// [`solve_in_blocks_planned`] on it.
///
/// Position `p` of the output holds the solution of `cols[order[p]]` —
/// the caller applies a column ordering *by index* instead of cloning
/// columns into permuted order. Blocks are `block_size`-wide chunks of
/// `order`.
pub fn solve_in_blocks_ordered(
    l: &Csc,
    unit_diag: bool,
    cols: &[SparseVec],
    order: &[usize],
    block_size: usize,
    workers: usize,
    budget: &Budget,
) -> Result<(Vec<SparseVec>, BlockSolveStats), BudgetInterrupt> {
    budget.check()?;
    let plan = BlockedSolvePlan::build(l, cols, order, block_size);
    solve_in_blocks_planned(l, unit_diag, cols, &plan, workers, budget)
}

/// Numeric half of the blocked solve: panel substitution over the
/// plan's blocks, no reach DFS. The plan must have been built against a
/// factor with the same pattern and the same column patterns/order.
///
/// Blocks are mutually independent, so up to `workers` threads pull
/// block indices from a shared counter, each with its own pooled
/// `BlockWorkspace` — the steady state performs **zero per-block heap
/// allocation** beyond the output columns themselves. Results are
/// merged in block order, making the output byte-identical to the
/// serial path. The budget is polled once per block; the first
/// interrupt (lowest block index) wins, and remaining workers stop
/// claiming blocks cooperatively.
pub fn solve_in_blocks_planned(
    l: &Csc,
    unit_diag: bool,
    cols: &[SparseVec],
    plan: &BlockedSolvePlan,
    workers: usize,
    budget: &Budget,
) -> Result<(Vec<SparseVec>, BlockSolveStats), BudgetInterrupt> {
    budget.check()?;
    let n = l.nrows();
    let nblocks = plan.blocks.len();
    let mut out = Vec::with_capacity(plan.ncols);
    let mut stats = BlockSolveStats::default();
    if workers <= 1 || nblocks <= 1 {
        let mut ws = BlockWorkspace::new(n);
        for pb in &plan.blocks {
            budget.check()?;
            stats.merge(&numeric_on_pattern(l, unit_diag, cols, pb, &mut ws));
            extract_columns(pb, &ws.panel, &mut out);
        }
        return Ok((out, stats));
    }

    type BlockResult = Result<(Vec<SparseVec>, BlockSolveStats), BudgetInterrupt>;
    let nworkers = workers.min(nblocks);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let per_worker: Vec<Vec<(usize, BlockResult)>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..nworkers)
            .map(|_| {
                let (next, abort) = (&next, &abort);
                sc.spawn(move || {
                    let mut ws = BlockWorkspace::new(n);
                    let mut got: Vec<(usize, BlockResult)> = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= nblocks || abort.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Err(e) = budget.check() {
                            abort.store(true, Ordering::Relaxed);
                            got.push((b, Err(e)));
                            break;
                        }
                        let pb = &plan.blocks[b];
                        let st = numeric_on_pattern(l, unit_diag, cols, pb, &mut ws);
                        let mut sols = Vec::with_capacity(pb.cols.len());
                        extract_columns(pb, &ws.panel, &mut sols);
                        got.push((b, Ok((sols, st))));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    let mut slots: Vec<Option<BlockResult>> = (0..nblocks).map(|_| None).collect();
    for (b, r) in per_worker.into_iter().flatten() {
        slots[b] = Some(r);
    }
    // First interrupt in block order wins (deterministic error identity).
    if let Some(e) = slots.iter().find_map(|s| match s {
        Some(Err(e)) => Some(*e),
        _ => None,
    }) {
        return Err(e);
    }
    for slot in slots {
        let (sols, st) = slot
            .expect("every block is claimed when no worker aborts")
            .expect("errors were returned above");
        stats.merge(&st);
        out.extend(sols);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trisolve::sparse_lower_solve;
    use sparsekit::{CancelToken, Coo};

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
    fn blocked_solve_matches_column_solves() {
        let n = 12;
        let l = bidiag_l(n);
        let cols = vec![
            SparseVec::new(vec![2], vec![1.0]),
            SparseVec::new(vec![5], vec![-2.0]),
            SparseVec::new(vec![2, 7], vec![0.5, 3.0]),
        ];
        let (xs, _stats) = solve_in_blocks(&l, true, &cols, cols.len());
        let mut sws = SolveWorkspace::new(n);
        for (c, (col, xc)) in cols.iter().zip(&xs).enumerate() {
            let x = sparse_lower_solve(&l, true, col, &mut sws);
            let mut dense = vec![0f64; n];
            for (&i, &v) in x.indices.iter().zip(&x.values) {
                dense[i] = v;
            }
            for (&row, &v) in xc.indices.iter().zip(&xc.values) {
                assert!((v - dense[row]).abs() < 1e-13, "mismatch col {c} row {row}");
            }
        }
    }

    #[test]
    fn padding_counts_are_exact() {
        let l = bidiag_l(10);
        // Reaches: col0 = {2..10} (8 rows), col1 = {7..10} (3 rows).
        let cols = vec![
            SparseVec::new(vec![2], vec![1.0]),
            SparseVec::new(vec![7], vec![1.0]),
        ];
        let (_xs, stats) = solve_in_blocks(&l, true, &cols, 2);
        assert_eq!(stats.union_rows, 8); // union = {2..10}
        assert_eq!(stats.true_nnz, 8 + 3);
        assert_eq!(stats.padded_zeros, 8 * 2 - 11);
        assert!((stats.padding_fraction() - 5.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn identical_patterns_have_zero_padding() {
        let l = bidiag_l(8);
        let cols = vec![
            SparseVec::new(vec![3], vec![1.0]),
            SparseVec::new(vec![3], vec![2.0]),
        ];
        let (_xs, stats) = solve_in_blocks(&l, true, &cols, 2);
        assert_eq!(stats.padded_zeros, 0);
    }

    #[test]
    fn workspace_is_reusable_across_blocks() {
        // Two one-column blocks through the one serial workspace.
        let l = bidiag_l(16);
        let cols = vec![
            SparseVec::new(vec![1], vec![1.0]),
            SparseVec::new(vec![9], vec![2.0]),
        ];
        let (xs, _stats) = solve_in_blocks(&l, true, &cols, 1);
        assert_eq!(xs[0].indices.len(), 15);
        assert_eq!(xs[1].indices.len(), 7); // stale scatter state would corrupt this
        assert!((xs[1].values[0] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn block_size_one_has_zero_padding() {
        let l = bidiag_l(16);
        let cols: Vec<SparseVec> = (0..6)
            .map(|i| SparseVec::new(vec![i * 2], vec![1.0]))
            .collect();
        let (_x, stats) = solve_in_blocks(&l, true, &cols, 1);
        assert_eq!(stats.padded_zeros, 0, "B=1 never pads (paper §V-B)");
    }

    #[test]
    fn bigger_blocks_pad_at_least_as_much() {
        let l = bidiag_l(32);
        let cols: Vec<SparseVec> = (0..8)
            .map(|i| SparseVec::new(vec![i * 4], vec![1.0]))
            .collect();
        let (_x1, s1) = solve_in_blocks(&l, true, &cols, 2);
        let (_x2, s2) = solve_in_blocks(&l, true, &cols, 4);
        let (_x3, s3) = solve_in_blocks(&l, true, &cols, 8);
        assert!(s1.padded_zeros <= s2.padded_zeros);
        assert!(s2.padded_zeros <= s3.padded_zeros);
    }

    #[test]
    fn solve_in_blocks_returns_all_columns() {
        let l = bidiag_l(10);
        let cols: Vec<SparseVec> = (0..5).map(|i| SparseVec::new(vec![i], vec![1.0])).collect();
        let (xs, _stats) = solve_in_blocks(&l, true, &cols, 2);
        assert_eq!(xs.len(), 5);
        // First value of each solution equals the seed value (unit diag).
        for (i, x) in xs.iter().enumerate() {
            let mut m = std::collections::HashMap::new();
            for (&r, &v) in x.indices.iter().zip(&x.values) {
                m.insert(r, v);
            }
            assert!((m[&i] - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn planned_solve_is_byte_identical_to_ordered() {
        let l = bidiag_l(40);
        let cols: Vec<SparseVec> = (0..12)
            .map(|i| SparseVec::new(vec![(i * 3) % 40], vec![1.0 + i as f64]))
            .collect();
        let order: Vec<usize> = (0..12).map(|p| (p * 5) % 12).collect();
        let budget = Budget::unlimited();
        let (adhoc, astats) =
            solve_in_blocks_ordered(&l, true, &cols, &order, 3, 1, &budget).unwrap();
        let plan = BlockedSolvePlan::build(&l, &cols, &order, 3);
        assert_eq!(plan.ncols(), 12);
        assert!(plan.memory_bytes() > 0);
        for w in [1usize, 4] {
            let (planned, pstats) =
                solve_in_blocks_planned(&l, true, &cols, &plan, w, &budget).unwrap();
            assert_eq!(pstats, astats, "workers {w}");
            assert_eq!(planned.len(), adhoc.len());
            for (p, (a, b)) in planned.iter().zip(&adhoc).enumerate() {
                assert_eq!(a.indices, b.indices, "pattern col {p} workers {w}");
                assert_eq!(a.values, b.values, "values col {p} workers {w}");
            }
        }
    }

    #[test]
    fn plan_survives_value_changes_on_a_fixed_pattern() {
        // Build the plan against one set of factor values, then solve
        // with different values on the same pattern — the sequence-solve
        // replay situation. The planned solve must match a fresh ad-hoc
        // solve against the new values exactly.
        let mut l = bidiag_l(24);
        let cols: Vec<SparseVec> = (0..6)
            .map(|i| SparseVec::new(vec![i * 4], vec![1.0 + i as f64]))
            .collect();
        let order: Vec<usize> = (0..6).collect();
        let plan = BlockedSolvePlan::build(&l, &cols, &order, 2);
        for v in l.values_mut() {
            *v *= 1.5;
        }
        let budget = Budget::unlimited();
        let (adhoc, astats) =
            solve_in_blocks_ordered(&l, true, &cols, &order, 2, 1, &budget).unwrap();
        let (planned, pstats) =
            solve_in_blocks_planned(&l, true, &cols, &plan, 1, &budget).unwrap();
        assert_eq!(pstats, astats);
        for (a, b) in planned.iter().zip(&adhoc) {
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn parallel_ordered_solve_is_byte_identical_to_serial() {
        let l = bidiag_l(40);
        let cols: Vec<SparseVec> = (0..12)
            .map(|i| SparseVec::new(vec![(i * 3) % 40], vec![1.0 + i as f64]))
            .collect();
        // A non-trivial permutation.
        let order: Vec<usize> = (0..12).map(|p| (p * 5) % 12).collect();
        let budget = Budget::unlimited();
        let (serial, sstats) =
            solve_in_blocks_ordered(&l, true, &cols, &order, 3, 1, &budget).unwrap();
        for w in [2usize, 4, 7] {
            let (par, pstats) =
                solve_in_blocks_ordered(&l, true, &cols, &order, 3, w, &budget).unwrap();
            assert_eq!(pstats, sstats, "stats merge associative, workers {w}");
            assert_eq!(par.len(), serial.len());
            for (p, (a, b)) in par.iter().zip(&serial).enumerate() {
                assert_eq!(a.indices, b.indices, "pattern col {p} workers {w}");
                assert_eq!(a.values, b.values, "values col {p} workers {w}");
            }
        }
    }

    #[test]
    fn cancelled_budget_interrupts_parallel_solve() {
        let l = bidiag_l(20);
        let cols: Vec<SparseVec> = (0..8).map(|i| SparseVec::new(vec![i], vec![1.0])).collect();
        let order: Vec<usize> = (0..8).collect();
        let tok = CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_token(tok);
        for w in [1usize, 4] {
            let r = solve_in_blocks_ordered(&l, true, &cols, &order, 2, w, &budget);
            assert_eq!(r.unwrap_err(), BudgetInterrupt::Cancelled, "workers {w}");
        }
    }
}
