//! Phase 4a: reordering sparse right-hand sides for the blocked
//! triangular solve (§IV of the paper).
//!
//! Four strategies are implemented:
//!
//! * **Natural** — keep the incoming (global nested-dissection) order;
//! * **Postorder** (§IV-A) — sort columns by the position of their first
//!   nonzero; the subdomain factor rows are already in a postorder of the
//!   elimination tree (see [`crate::subdomain`]), so first-nonzero order
//!   clusters columns whose fill paths overlap;
//! * **Hypergraph** (§IV-B) — build the row-net model of the *symbolic
//!   solution pattern* `G` with net cost `B`, optionally remove empty and
//!   quasi-dense rows (§V-B(c)), and partition the columns into blocks of
//!   exactly `B` columns minimising con1 ≡ padded zeros;
//! * **Rgb** — recursive graph bisection over the solution patterns
//!   ([`graphpart::rgb_order`]): a sequence-layout alternative to the
//!   row-net partitioner that clusters columns with overlapping reaches
//!   by a log-gap cost, then refines under the exact padding objective.

use graphpart::{rgb_order, RgbConfig};
use hypergraph::bisect::BisectConfig;
use hypergraph::models::row_net_model;
use hypergraph::recursive::recursive_partition_exact_seeded;
use hypergraph::sparsify::sparsify;
use slu::reach::ReachGraph;
use slu::trisolve::{SolveWorkspace, SparseVec};
use sparsekit::{Coo, Csc};

/// Column-ordering strategy for the blocked triangular solves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RhsOrdering {
    /// Keep the natural (global nested-dissection) column order.
    Natural,
    /// Postorder-of-e-tree first-nonzero ordering (§IV-A).
    Postorder,
    /// Hypergraph partitioning of the solution pattern (§IV-B) with an
    /// optional quasi-dense row threshold τ (§V-B(c)); `None` keeps all
    /// rows.
    Hypergraph {
        /// Quasi-dense row-density threshold τ.
        tau: Option<f64>,
    },
    /// Recursive graph bisection of the solution patterns (BP-style
    /// sequence layout), refined under the exact padding objective and
    /// guarded to never pad more than the natural order. Runs with the
    /// fixed [`RgbConfig::default`] tuning (10 swap iterations per level,
    /// depth 24, windows of ≤ 8 columns become leaves).
    Rgb,
}

impl RhsOrdering {
    /// Label used by the experiment harnesses (paper figure legends).
    pub fn label(&self) -> &'static str {
        match self {
            RhsOrdering::Natural => "natural",
            RhsOrdering::Postorder => "postorder",
            RhsOrdering::Hypergraph { .. } => "hypergraph",
            RhsOrdering::Rgb => "rgb",
        }
    }
}

/// Computes the column order for a set of sparse RHS columns (given in
/// pivot-row coordinates of the subdomain factor `l`).
///
/// Returns a permutation of `0..cols.len()`: position `p` of the blocked
/// solve takes column `order[p]`.
pub fn order_columns(
    cols: &[SparseVec],
    l: &Csc,
    block_size: usize,
    ordering: RhsOrdering,
    ws: &mut SolveWorkspace,
) -> Vec<usize> {
    match ordering {
        RhsOrdering::Hypergraph { .. } | RhsOrdering::Rgb => {
            let reaches = column_reaches(cols, l, ws);
            order_columns_precomputed(cols, &reaches, l.nrows(), block_size, ordering)
        }
        _ => order_columns_precomputed(cols, &[], l.nrows(), block_size, ordering),
    }
}

/// Symbolic solution patterns (reaches) of every column — compute once
/// per subdomain and share across block sizes and orderings. Walks the
/// pruned [`ReachGraph`] of `l`, so each reach costs its own length,
/// not the flops of the solve it predicts.
pub fn column_reaches(cols: &[SparseVec], l: &Csc, ws: &mut SolveWorkspace) -> Vec<Vec<usize>> {
    let graph = ReachGraph::build(l);
    cols.iter()
        .map(|c| {
            graph.reach(&c.indices, ws);
            ws.topo().to_vec()
        })
        .collect()
}

/// Exact padded-zero accounting of a column order under block size
/// `block_size`, from precomputed reaches: returns
/// `(padded_zeros, true_nnz)` summed over the blocks (equation (14)).
pub fn padding_of_order(
    reaches: &[Vec<usize>],
    n: usize,
    order: &[usize],
    block_size: usize,
) -> (u64, u64) {
    let nw = words(n);
    let mut union_bits = vec![0u64; nw];
    let mut padded = 0u64;
    let mut true_nnz = 0u64;
    for chunk in order.chunks(block_size) {
        union_bits.iter_mut().for_each(|w| *w = 0);
        let mut chunk_true = 0u64;
        for &j in chunk {
            chunk_true += reaches[j].len() as u64;
            for &i in &reaches[j] {
                union_bits[i / 64] |= 1u64 << (i % 64);
            }
        }
        let rows = popcount(&union_bits);
        padded += rows * chunk.len() as u64 - chunk_true;
        true_nnz += chunk_true;
    }
    (padded, true_nnz)
}

/// [`order_columns`] with precomputed reaches (`reaches` may be empty for
/// the natural/postorder strategies, which never use it).
pub fn order_columns_precomputed(
    cols: &[SparseVec],
    reaches: &[Vec<usize>],
    n: usize,
    block_size: usize,
    ordering: RhsOrdering,
) -> Vec<usize> {
    let m = cols.len();
    match ordering {
        RhsOrdering::Natural => (0..m).collect(),
        RhsOrdering::Postorder => {
            let mut order: Vec<usize> = (0..m).collect();
            // Rows are already postordered, so the paper's key is simply
            // the minimum row index of each column.
            let keys: Vec<usize> = cols
                .iter()
                .map(|c| c.indices.iter().copied().min().unwrap_or(usize::MAX))
                .collect();
            order.sort_by_key(|&j| (keys[j], j));
            order
        }
        RhsOrdering::Hypergraph { tau } => {
            if m <= block_size {
                return (0..m).collect();
            }
            assert_eq!(reaches.len(), m, "hypergraph ordering needs reaches");
            // Symbolic solution pattern G (rows × columns).
            let mut coo = Coo::new(n, m);
            for (j, pat) in reaches.iter().enumerate() {
                for &i in pat {
                    coo.push(i, j, 1.0);
                }
            }
            let g = coo.to_csr();
            // Quasi-dense / empty row removal.
            let g = match tau {
                Some(t) => sparsify(&g, t).0,
                None => {
                    // Always drop empty rows: they carry no nets.
                    sparsify(&g, 1.1).0
                }
            };
            let h = row_net_model(&g, block_size as i64);
            // Exact block sizes: ⌊m/B⌋ blocks of B plus a remainder.
            let nfull = m / block_size;
            let mut sizes = vec![block_size; nfull];
            let rem = m - nfull * block_size;
            if rem > 0 {
                sizes.push(rem);
            }
            // Seed the recursive bisection with the postorder layout so
            // the partitioner starts from (and improves on) the §IV-A
            // heuristic.
            let keys: Vec<usize> = cols
                .iter()
                .map(|c| c.indices.iter().copied().min().unwrap_or(usize::MAX))
                .collect();
            let mut seed: Vec<usize> = (0..m).collect();
            seed.sort_by_key(|&j| (keys[j], j));
            let part =
                recursive_partition_exact_seeded(&h, &sizes, &BisectConfig::default(), &seed);
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by_key(|&j| (part[j], keys[j], j));
            // Final refinement directly on the padded-zeros objective
            // (equation (14)): swap columns between blocks while the
            // total padding decreases. This plays the role of PaToH's
            // stronger refinement in the paper.
            refine_blocks_by_padding(reaches, n, block_size, &mut order);
            // The recursive bisection optimises a per-level *proxy* (the
            // cut-net cost); guard against proxy/objective divergence by
            // never returning anything worse than the postorder layout
            // under the true padding count.
            if padding_of_order(reaches, n, &order, block_size).0
                > padding_of_order(reaches, n, &seed, block_size).0
            {
                seed
            } else {
                order
            }
        }
        RhsOrdering::Rgb => {
            if m <= block_size {
                return (0..m).collect();
            }
            assert_eq!(reaches.len(), m, "rgb ordering needs reaches");
            let mut order = rgb_order(reaches, n, &RgbConfig::default());
            // RGB optimises a gap-cost proxy; refine the resulting layout
            // under the true padding objective, then guard against ever
            // padding more than the natural (identity) order.
            refine_blocks_by_padding(reaches, n, block_size, &mut order);
            let natural: Vec<usize> = (0..m).collect();
            if padding_of_order(reaches, n, &order, block_size).0
                > padding_of_order(reaches, n, &natural, block_size).0
            {
                natural
            } else {
                order
            }
        }
    }
}

/// Number of `u64` words for an `n`-bit set.
fn words(n: usize) -> usize {
    n.div_ceil(64)
}

fn popcount(bits: &[u64]) -> u64 {
    bits.iter().map(|w| w.count_ones() as u64).sum()
}

/// Greedy block-pair swap refinement of a column order under the exact
/// padded-zeros objective. Blocks are the consecutive `block_size`-sized
/// chunks of `order`; the routine swaps columns between blocks whenever
/// that shrinks `Σ_blocks |union(block)| · |block|`.
pub fn refine_blocks_by_padding(
    reaches: &[Vec<usize>],
    n: usize,
    block_size: usize,
    order: &mut [usize],
) {
    let m = reaches.len();
    if m <= block_size || block_size < 2 {
        return;
    }
    let nw = words(n);
    // Reach bitsets per column.
    let mut bits: Vec<Vec<u64>> = Vec::with_capacity(m);
    for pat in reaches {
        let mut b = vec![0u64; nw];
        for &i in pat {
            b[i / 64] |= 1u64 << (i % 64);
        }
        bits.push(b);
    }
    // Block layout over `order`.
    let nblocks = m.div_ceil(block_size);
    let block_of_pos = |p: usize| p / block_size;
    // Per-block union bitset and per-row coverage count.
    let mut unions: Vec<Vec<u64>> = vec![vec![0u64; nw]; nblocks];
    let mut counts: Vec<Vec<u16>> = vec![vec![0u16; n]; nblocks];
    let mut sizes = vec![0usize; nblocks];
    for (p, &j) in order.iter().enumerate() {
        let b = block_of_pos(p);
        sizes[b] += 1;
        for (w, &word) in bits[j].iter().enumerate() {
            unions[b][w] |= word;
        }
        for (w, &word) in bits[j].iter().enumerate() {
            let mut ww = word;
            while ww != 0 {
                let bit = ww.trailing_zeros() as usize;
                counts[b][w * 64 + bit] += 1;
                ww &= ww - 1;
            }
        }
    }
    // Rows uniquely covered by column j inside block b.
    let unique_bits = |j: usize, b: usize, counts: &[Vec<u16>]| -> Vec<u64> {
        let mut u = vec![0u64; nw];
        for (w, &word) in bits[j].iter().enumerate() {
            let mut ww = word;
            while ww != 0 {
                let bit = ww.trailing_zeros() as usize;
                if counts[b][w * 64 + bit] == 1 {
                    u[w] |= 1u64 << bit;
                }
                ww &= ww - 1;
            }
        }
        u
    };
    const CANDIDATES: usize = 8;
    const MAX_PASSES: usize = 3;
    for _pass in 0..MAX_PASSES {
        let mut improved = false;
        for b1 in 0..nblocks {
            for b2 in (b1 + 1)..nblocks {
                // Candidate columns: the most "misfit" ones — largest
                // uniquely-covered row sets.
                let pick = |b: usize, counts: &[Vec<u16>]| -> Vec<usize> {
                    let lo = b * block_size;
                    let hi = (lo + block_size).min(m);
                    let mut scored: Vec<(u64, usize)> = (lo..hi)
                        .map(|p| {
                            let j = order[p];
                            (popcount(&unique_bits(j, b, counts)), p)
                        })
                        .collect();
                    scored.sort_unstable_by_key(|s| std::cmp::Reverse(s.0));
                    scored
                        .into_iter()
                        .take(CANDIDATES)
                        .map(|(_, p)| p)
                        .collect()
                };
                let cand1 = pick(b1, &counts);
                let cand2 = pick(b2, &counts);
                let u1 = popcount(&unions[b1]) as i64;
                let u2 = popcount(&unions[b2]) as i64;
                let mut best: Option<(i64, usize, usize)> = None;
                for &p1 in &cand1 {
                    let j1 = order[p1];
                    let uniq1 = unique_bits(j1, b1, &counts);
                    for &p2 in &cand2 {
                        let j2 = order[p2];
                        let uniq2 = unique_bits(j2, b2, &counts);
                        // New unions after swapping j1 <-> j2.
                        let mut new_u1 = 0i64;
                        let mut new_u2 = 0i64;
                        for w in 0..nw {
                            let base1 = unions[b1][w] & !uniq1[w];
                            new_u1 += (base1 | bits[j2][w]).count_ones() as i64;
                            let base2 = unions[b2][w] & !uniq2[w];
                            new_u2 += (base2 | bits[j1][w]).count_ones() as i64;
                        }
                        let delta =
                            (new_u1 - u1) * sizes[b1] as i64 + (new_u2 - u2) * sizes[b2] as i64;
                        if delta < best.map_or(0, |(d, _, _)| d) {
                            best = Some((delta, p1, p2));
                        }
                    }
                }
                if let Some((_d, p1, p2)) = best {
                    let (j1, j2) = (order[p1], order[p2]);
                    order.swap(p1, p2);
                    // Rebuild the two blocks' bookkeeping.
                    for &(b, jin, jout) in &[(b1, j2, j1), (b2, j1, j2)] {
                        for (w, &word) in bits[jout].iter().enumerate() {
                            let mut ww = word;
                            while ww != 0 {
                                let bit = ww.trailing_zeros() as usize;
                                counts[b][w * 64 + bit] -= 1;
                                ww &= ww - 1;
                            }
                        }
                        for (w, &word) in bits[jin].iter().enumerate() {
                            let mut ww = word;
                            while ww != 0 {
                                let bit = ww.trailing_zeros() as usize;
                                counts[b][w * 64 + bit] += 1;
                                ww &= ww - 1;
                            }
                        }
                        // Recompute the union from counts.
                        for w in 0..nw {
                            unions[b][w] = 0;
                        }
                        for r in 0..n {
                            if counts[b][r] > 0 {
                                unions[b][r / 64] |= 1u64 << (r % 64);
                            }
                        }
                    }
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    /// Bidiagonal unit-lower L: reach of seed i is {i..n}.
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

    fn seeded_cols(seeds: &[usize]) -> Vec<SparseVec> {
        seeds
            .iter()
            .map(|&s| SparseVec::new(vec![s], vec![1.0]))
            .collect()
    }

    #[test]
    fn natural_is_identity() {
        let l = bidiag_l(10);
        let cols = seeded_cols(&[5, 1, 7]);
        let mut ws = SolveWorkspace::new(10);
        assert_eq!(
            order_columns(&cols, &l, 2, RhsOrdering::Natural, &mut ws),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn postorder_sorts_by_first_nonzero() {
        let l = bidiag_l(10);
        let cols = seeded_cols(&[5, 1, 7, 3]);
        let mut ws = SolveWorkspace::new(10);
        let ord = order_columns(&cols, &l, 2, RhsOrdering::Postorder, &mut ws);
        assert_eq!(ord, vec![1, 3, 0, 2]); // seeds 1,3,5,7
    }

    #[test]
    fn hypergraph_groups_identical_columns() {
        let l = bidiag_l(20);
        // Columns with seeds {2,2,15,15}: a perfect B=2 grouping puts the
        // duplicates together (zero padding), any other pairing pads.
        let cols = seeded_cols(&[2, 15, 2, 15]);
        let mut ws = SolveWorkspace::new(20);
        let ord = order_columns(&cols, &l, 2, RhsOrdering::Hypergraph { tau: None }, &mut ws);
        let first_pair: std::collections::HashSet<usize> = ord[..2].iter().copied().collect();
        assert!(
            first_pair == [0usize, 2].into_iter().collect()
                || first_pair == [1usize, 3].into_iter().collect(),
            "identical-reach columns must share a block, got {ord:?}"
        );
    }

    #[test]
    fn hypergraph_with_tau_filters_and_still_orders() {
        let l = bidiag_l(16);
        let cols = seeded_cols(&[1, 9, 2, 10, 3, 11]);
        let mut ws = SolveWorkspace::new(16);
        let ord = order_columns(
            &cols,
            &l,
            2,
            RhsOrdering::Hypergraph { tau: Some(0.5) },
            &mut ws,
        );
        let mut sorted = ord.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "must be a permutation");
    }

    #[test]
    fn rgb_groups_identical_columns() {
        let l = bidiag_l(20);
        let cols = seeded_cols(&[2, 15, 2, 15]);
        let mut ws = SolveWorkspace::new(20);
        let ord = order_columns(&cols, &l, 2, RhsOrdering::Rgb, &mut ws);
        let first_pair: std::collections::HashSet<usize> = ord[..2].iter().copied().collect();
        assert!(
            first_pair == [0usize, 2].into_iter().collect()
                || first_pair == [1usize, 3].into_iter().collect(),
            "identical-reach columns must share a block, got {ord:?}"
        );
    }

    #[test]
    fn rgb_never_pads_more_than_natural() {
        let l = bidiag_l(32);
        let cols = seeded_cols(&[31, 1, 17, 3, 29, 5, 19, 7]);
        let mut ws = SolveWorkspace::new(32);
        let reaches = column_reaches(&cols, &l, &mut ws);
        for block in [2usize, 3, 4] {
            let ord = order_columns_precomputed(&cols, &reaches, 32, block, RhsOrdering::Rgb);
            let natural: Vec<usize> = (0..cols.len()).collect();
            assert!(
                padding_of_order(&reaches, 32, &ord, block).0
                    <= padding_of_order(&reaches, 32, &natural, block).0
            );
        }
    }

    #[test]
    fn small_blocks_fall_back_to_natural() {
        let l = bidiag_l(8);
        let cols = seeded_cols(&[3, 1]);
        let mut ws = SolveWorkspace::new(8);
        let ord = order_columns(&cols, &l, 4, RhsOrdering::Hypergraph { tau: None }, &mut ws);
        assert_eq!(ord, vec![0, 1]);
    }
}
