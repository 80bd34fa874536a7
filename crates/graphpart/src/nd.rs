//! Nested graph dissection (NGD) — the paper's baseline partitioner.
//!
//! Recursively bisects the graph with the multilevel pipeline
//! (coarsen → initial partition → FM-refine → project) and converts each
//! edge bisection into a vertex separator. The leaves become the `k`
//! interior subdomains `D_ℓ`; the union of separators becomes the border
//! `C` of the doubly-bordered block-diagonal (DBBD) form (1) in the paper.

use crate::coarsen::coarsen_once;
use crate::fm::{refine_with, FmLimits, FmScratch};
use crate::initpart::{grow_bisection, Bisection};
use crate::separator::{is_valid_separator, vertex_separator, SIDE_SEP};
use crate::Graph;
use sparsekit::Perm;

/// Part id used for separator vertices in [`DbbdPartition::part_of`].
pub const SEPARATOR: usize = usize::MAX;

/// Configuration for nested dissection.
#[derive(Clone, Copy, Debug)]
pub struct NdConfig {
    /// Allowed imbalance for each bisection (`ε` in constraint (6)).
    pub eps: f64,
    /// Coarsening stops when the graph has at most this many vertices.
    pub coarse_target: usize,
}

impl Default for NdConfig {
    fn default() -> Self {
        NdConfig {
            eps: 0.05,
            coarse_target: 96,
        }
    }
}

/// A k-way DBBD partition of a square matrix / graph.
#[derive(Clone, Debug)]
pub struct DbbdPartition {
    /// Number of interior subdomains.
    pub k: usize,
    /// `part_of[v] ∈ 0..k` or [`SEPARATOR`].
    pub part_of: Vec<usize>,
}

impl DbbdPartition {
    /// Vertices of subdomain `l`, in ascending order.
    pub fn part_rows(&self, l: usize) -> Vec<usize> {
        (0..self.part_of.len())
            .filter(|&v| self.part_of[v] == l)
            .collect()
    }

    /// Separator vertices, in ascending order.
    pub fn separator_rows(&self) -> Vec<usize> {
        (0..self.part_of.len())
            .filter(|&v| self.part_of[v] == SEPARATOR)
            .collect()
    }

    /// Number of vertices in each subdomain.
    pub fn subdomain_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.part_of {
            if p != SEPARATOR {
                sizes[p] += 1;
            }
        }
        sizes
    }

    /// Separator size (`n_S`).
    pub fn separator_size(&self) -> usize {
        self.part_of.iter().filter(|&&p| p == SEPARATOR).count()
    }

    /// The DBBD permutation: subdomain 0 first, …, subdomain k−1, then the
    /// separator block last (ordering inside each block is ascending).
    pub fn permutation(&self) -> Perm {
        let mut to_old = Vec::with_capacity(self.part_of.len());
        for l in 0..self.k {
            to_old.extend(self.part_rows(l));
        }
        to_old.extend(self.separator_rows());
        Perm::from_to_old(to_old)
    }

    /// Max/min ratio of subdomain sizes (∞ mapped to `f64::INFINITY`).
    pub fn size_imbalance(&self) -> f64 {
        let sizes = self.subdomain_sizes();
        let min = *sizes.iter().min().unwrap_or(&0);
        let max = *sizes.iter().max().unwrap_or(&0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Multilevel edge bisection: coarsen to `cfg.coarse_target`, bisect the
/// coarsest graph greedily, then project back refining with FM.
pub fn multilevel_bisect(g: &Graph, cfg: &NdConfig) -> Bisection {
    bisect_level(g, cfg, &mut FmScratch::default())
}

fn bisect_level(g: &Graph, cfg: &NdConfig, ws: &mut FmScratch) -> Bisection {
    let total = g.total_vertex_weight();
    let limits = FmLimits::from_eps(total, cfg.eps);
    if g.nvertices() <= cfg.coarse_target {
        let mut b = grow_bisection(g, total / 2);
        refine_with(g, &mut b, limits, ws);
        return b;
    }
    let lvl = coarsen_once(g);
    // Coarsening stalled (heavy matching failed to shrink): bisect directly.
    if lvl.graph.nvertices() as f64 > 0.95 * g.nvertices() as f64 {
        let mut b = grow_bisection(g, total / 2);
        refine_with(g, &mut b, limits, ws);
        return b;
    }
    let coarse_bis = bisect_level(&lvl.graph, cfg, ws);
    // Project to the fine level.
    let side: Vec<u8> = (0..g.nvertices())
        .map(|v| coarse_bis.side[lvl.coarse_of[v]])
        .collect();
    let mut b = Bisection::recompute(g, side);
    refine_with(g, &mut b, limits, ws);
    b
}

/// Computes a k-way DBBD partition by nested dissection.
///
/// `k` must be a power of two (the paper uses 8 and 32).
pub fn nested_dissection(g: &Graph, k: usize, cfg: &NdConfig) -> DbbdPartition {
    assert!(
        k.is_power_of_two(),
        "nested dissection requires k to be a power of two"
    );
    assert!(k >= 1);
    let n = g.nvertices();
    let mut part_of = vec![SEPARATOR; n];
    let all: Vec<usize> = (0..n).collect();
    recurse(g, &all, k, 0, cfg, &mut part_of);
    DbbdPartition { k, part_of }
}

fn recurse(
    root: &Graph,
    vertices: &[usize],
    k: usize,
    first_part: usize,
    cfg: &NdConfig,
    part_of: &mut [usize],
) {
    if k == 1 {
        for &v in vertices {
            part_of[v] = first_part;
        }
        return;
    }
    let (sub, map) = root.subgraph(vertices);
    if sub.nvertices() == 0 {
        return;
    }
    let bis = multilevel_bisect(&sub, cfg);
    let vs = vertex_separator(&sub, &bis);
    debug_assert!(is_valid_separator(&sub, &vs.assign));
    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    for (local, &global) in map.iter().enumerate() {
        match vs.assign[local] {
            0 => side0.push(global),
            1 => side1.push(global),
            SIDE_SEP => part_of[global] = SEPARATOR,
            _ => unreachable!(),
        }
    }
    recurse(root, &side0, k / 2, first_part, cfg, part_of);
    recurse(root, &side1, k / 2, first_part + k / 2, cfg, part_of);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    fn grid(nx: usize, ny: usize) -> Graph {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut c = Coo::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                c.push(idx(i, j), idx(i, j), 4.0);
                if i + 1 < nx {
                    c.push_sym(idx(i, j), idx(i + 1, j), -1.0);
                }
                if j + 1 < ny {
                    c.push_sym(idx(i, j), idx(i, j + 1), -1.0);
                }
            }
        }
        Graph::from_matrix(&c.to_csr())
    }

    #[test]
    fn two_way_dissection_of_grid() {
        let g = grid(12, 12);
        let p = nested_dissection(&g, 2, &NdConfig::default());
        assert_eq!(p.k, 2);
        let sizes = p.subdomain_sizes();
        assert!(sizes[0] > 0 && sizes[1] > 0);
        assert!(p.separator_size() > 0);
        assert!(
            p.separator_size() <= 30,
            "separator too big: {}",
            p.separator_size()
        );
        // Separator actually separates: no edge between part 0 and 1.
        for v in 0..g.nvertices() {
            if p.part_of[v] == SEPARATOR {
                continue;
            }
            for &u in g.neighbors(v) {
                if p.part_of[u] != SEPARATOR {
                    assert_eq!(p.part_of[u], p.part_of[v], "edge crosses parts");
                }
            }
        }
    }

    #[test]
    fn four_way_dissection_covers_all_vertices() {
        let g = grid(16, 16);
        let p = nested_dissection(&g, 4, &NdConfig::default());
        let total: usize = p.subdomain_sizes().iter().sum::<usize>() + p.separator_size();
        assert_eq!(total, 256);
        assert!(p.size_imbalance() < 2.0, "imbalance {}", p.size_imbalance());
    }

    #[test]
    fn eight_way_on_larger_grid() {
        let g = grid(24, 24);
        let p = nested_dissection(&g, 8, &NdConfig::default());
        assert_eq!(p.subdomain_sizes().len(), 8);
        assert!(p.subdomain_sizes().iter().all(|&s| s > 0));
        // Permutation is a valid permutation grouping parts contiguously.
        let perm = p.permutation();
        assert_eq!(perm.len(), 576);
        let mut last_part = 0usize;
        for new in 0..perm.len() {
            let part = p.part_of[perm.to_old(new)];
            let ord = if part == SEPARATOR { p.k } else { part };
            assert!(ord >= last_part, "parts not contiguous in permutation");
            last_part = ord;
        }
    }

    #[test]
    fn dbbd_permutation_blocks_match_part_rows() {
        let g = grid(8, 8);
        let p = nested_dissection(&g, 2, &NdConfig::default());
        let perm = p.permutation();
        let s0 = p.part_rows(0);
        for (i, &old) in s0.iter().enumerate() {
            assert_eq!(perm.to_old(i), old);
        }
    }
}
