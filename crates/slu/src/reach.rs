//! Symbolic reach (Gilbert's fill-path theorem) and the pruned graph
//! that makes repeated reaches on one factor cost `O(|reach|)`.
//!
//! The pattern of `x = T⁻¹ b` is the set of nodes reachable from
//! `struct(b)` in the DAG of lower-triangular `T` (an edge `j → r` for
//! every stored `T(r,j)`, `r > j`). Walking the factor's own columns
//! visits every stored entry of every reached column — as many edge
//! visits as the numeric solve has multiply-adds. That is the right
//! price for a one-shot solve, and a wasteful one when the same factor
//! is reached hundreds of times only to learn a pattern (the blocked
//! solver's padding accounting, the §IV-B orderings). [`ReachGraph`]
//! keeps, per column, only the edges a DFS would actually follow.
//! See `docs/kernels.md`, "Pruned reach graph".

use crate::trisolve::SolveWorkspace;
use sparsekit::Csc;

/// Successor lists of a DAG over `0..n` whose edges all point to larger
/// node numbers: what [`reach_in`] walks.
pub trait ReachAdjacency {
    /// Nodes that `node` updates. Entries `<= node` (a stored diagonal)
    /// are ignored by the DFS.
    fn successors(&self, node: usize) -> &[usize];
}

/// The full graph of a lower-triangular factor: its own columns.
impl ReachAdjacency for Csc {
    fn successors(&self, node: usize) -> &[usize] {
        self.col_indices(node)
    }
}

impl ReachAdjacency for ReachGraph {
    fn successors(&self, node: usize) -> &[usize] {
        &self.adj[self.ptr[node]..self.ptr[node + 1]]
    }
}

/// Computes the reach of `seeds` in `adj`, leaving it in `ws.topo()` in
/// **topological order** (every node before the nodes it updates).
///
/// Iterative DFS with a per-node cursor; seeds and successors are taken
/// in the order given, so the result is a deterministic function of
/// that order.
pub fn reach_in<A: ReachAdjacency + ?Sized>(adj: &A, seeds: &[usize], ws: &mut SolveWorkspace) {
    ws.stamp = ws.stamp.wrapping_add(1);
    let stamp = ws.stamp;
    ws.topo.clear();
    for &seed in seeds {
        if ws.mark[seed] == stamp {
            continue;
        }
        ws.mark[seed] = stamp;
        ws.stack.push((seed, 0));
        while let Some(&(node, child)) = ws.stack.last() {
            let succ = adj.successors(node);
            let mut advanced = false;
            let mut c = child;
            while c < succ.len() {
                let r = succ[c];
                c += 1;
                if r > node && ws.mark[r] != stamp {
                    ws.mark[r] = stamp;
                    ws.stack.last_mut().expect("loop guard").1 = c;
                    ws.stack.push((r, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                ws.topo.push(node);
                ws.stack.pop();
            }
        }
    }
    ws.topo.reverse();
}

/// The DAG of a lower-triangular factor with every edge removed that a
/// DFS can never be the first to follow.
///
/// Let `p` be the first below-diagonal row of column `j`. Column `j`
/// keeps `p` and those rows of `T(:,j)` that are **not** in
/// `struct(T(:,p))`. A dropped row `r` is a successor of `p`, so it is
/// still reachable from `j` (through `p`), and no kept edge is new:
/// reach sets are unchanged. The DFS order is unchanged too — `p` is
/// the first successor visited, and once `p` is finished everything in
/// `struct(T(:,p))` is already marked, so the full-graph DFS skips
/// exactly the edges dropped here. [`reach_in`] therefore produces the
/// same `topo`, element for element, on either graph.
///
/// On a factor whose column patterns are elimination-tree-closed (a
/// Cholesky pattern, or an LU factor that is structurally one) this is
/// the elimination tree: one edge per column. On an arbitrary lower
/// triangular pattern it keeps whatever the one-step rule cannot drop,
/// in the worst case every edge.
#[derive(Clone, Debug)]
pub struct ReachGraph {
    ptr: Vec<usize>,
    adj: Vec<usize>,
    full_edges: usize,
}

impl ReachGraph {
    /// Builds the pruned graph of lower-triangular `l` in
    /// `O(nnz(l) + n)`: columns are grouped by their first
    /// below-diagonal row `p`, `struct(l(:,p))` is scattered into a mark
    /// array once per group, and every column of the group is filtered
    /// against it.
    pub fn build(l: &Csc) -> ReachGraph {
        let n = l.ncols();
        let below = |j: usize| {
            let col = l.col_indices(j);
            &col[col.partition_point(|&r| r <= j)..]
        };
        // Columns grouped by parent (counting sort, ascending within a
        // group); `n` stands for "no below-diagonal row".
        let mut group_ptr = vec![0usize; n + 2];
        let mut full_edges = 0usize;
        let parent: Vec<usize> = (0..n)
            .map(|j| {
                let b = below(j);
                full_edges += b.len();
                let p = b.first().copied().unwrap_or(n);
                group_ptr[p + 1] += 1;
                p
            })
            .collect();
        for p in 0..=n {
            group_ptr[p + 1] += group_ptr[p];
        }
        let mut cursor = group_ptr.clone();
        let mut grouped = vec![0usize; n];
        for (j, &p) in parent.iter().enumerate() {
            grouped[cursor[p]] = j;
            cursor[p] += 1;
        }
        // Rows that survive the rule, as (column, row) in group order;
        // the rows of one column are contiguous and ascending.
        let mut extra: Vec<(usize, usize)> = Vec::new();
        let mut ptr = vec![0usize; n + 1];
        let mut mark = vec![usize::MAX; n];
        for p in 0..n {
            let group = &grouped[group_ptr[p]..group_ptr[p + 1]];
            if group.is_empty() {
                continue;
            }
            for &r in below(p) {
                mark[r] = p;
            }
            for &j in group {
                ptr[j + 1] = 1;
                for &r in &below(j)[1..] {
                    if mark[r] != p {
                        extra.push((j, r));
                        ptr[j + 1] += 1;
                    }
                }
            }
        }
        for j in 0..n {
            ptr[j + 1] += ptr[j];
        }
        let mut adj = vec![0usize; ptr[n]];
        let mut cursor = ptr.clone();
        for (j, &p) in parent.iter().enumerate() {
            if p < n {
                adj[cursor[j]] = p;
                cursor[j] += 1;
            }
        }
        for (j, r) in extra {
            adj[cursor[j]] = r;
            cursor[j] += 1;
        }
        ReachGraph {
            ptr,
            adj,
            full_edges,
        }
    }

    /// Order of the factor.
    pub fn n(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Edges kept by the pruning rule.
    pub fn edges(&self) -> usize {
        self.adj.len()
    }

    /// Below-diagonal entries of the factor the graph was built from.
    pub fn full_edges(&self) -> usize {
        self.full_edges
    }

    /// Reach of `seeds`, left in `ws.topo()`; identical, in order, to
    /// [`crate::trisolve::compute_reach`] on the factor itself.
    pub fn reach(&self, seeds: &[usize], ws: &mut SolveWorkspace) {
        reach_in(self, seeds, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    fn lower(n: usize, below: &[(usize, usize)]) -> Csc {
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 1.0);
        }
        for &(i, j) in below {
            assert!(i > j);
            c.push(i, j, -0.5);
        }
        c.to_csr().to_csc()
    }

    #[test]
    fn tree_closed_factor_prunes_to_its_elimination_tree() {
        // Arrow-like fill: struct(0) = {1,2,3}, struct(1) = {2,3},
        // struct(2) = {3}. Every column keeps only its parent.
        let l = lower(4, &[(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)]);
        let g = ReachGraph::build(&l);
        assert_eq!(g.full_edges(), 6);
        assert_eq!(g.edges(), 3);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(3), &[] as &[usize]);
    }

    #[test]
    fn rows_outside_the_parent_pattern_are_kept() {
        // Column 0 = {1, 3}; column 1 = {2}: row 3 is not in struct(1),
        // although it is reachable from 1 through 2 → 3.
        let l = lower(4, &[(1, 0), (3, 0), (2, 1), (3, 2)]);
        let g = ReachGraph::build(&l);
        assert_eq!(g.successors(0), &[1, 3]);
        assert_eq!(g.edges(), g.full_edges());
        let mut a = SolveWorkspace::new(4);
        let mut b = SolveWorkspace::new(4);
        for seeds in [&[0usize][..], &[1], &[3, 0], &[2, 1, 0]] {
            reach_in(&l, seeds, &mut a);
            g.reach(seeds, &mut b);
            assert_eq!(a.topo(), b.topo(), "seeds {seeds:?}");
        }
    }

    #[test]
    fn empty_and_diagonal_factors() {
        let g = ReachGraph::build(&lower(0, &[]));
        assert_eq!((g.n(), g.edges()), (0, 0));
        let g = ReachGraph::build(&lower(3, &[]));
        assert_eq!((g.n(), g.edges(), g.full_edges()), (3, 0, 0));
    }
}
