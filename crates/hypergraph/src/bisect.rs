//! Multilevel hypergraph bisection.

use crate::coarsen::coarsen_once;
use crate::fm::{
    count_pins, initial_gains, move_across_net, refine_with, HBisection, HFmLimits, HFmScratch,
};
use crate::Hypergraph;

/// Configuration for a multilevel bisection.
#[derive(Clone, Copy, Debug)]
pub struct BisectConfig {
    /// Allowed imbalance per constraint (equation (6)).
    pub eps: f64,
    /// Coarsening stops at this many vertices.
    pub coarse_target: usize,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            eps: 0.05,
            coarse_target: 128,
        }
    }
}

/// Greedy growing initial bisection: vertices are absorbed into side 0 in
/// a net-connected BFS order until side 0 holds about half of the
/// first-constraint weight.
pub fn grow_bisection(h: &Hypergraph) -> HBisection {
    let n = h.nvertices();
    let total0: i64 = h.total_weights()[0];
    let target0 = total0 / 2;
    let mut side = vec![1u8; n];
    let mut w0 = 0i64;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut next_seed = 0usize;
    // Start from a low-degree vertex (periphery-ish).
    let start = (0..n).min_by_key(|&v| (h.vertex_degree(v), v)).unwrap_or(0);
    visited[start] = true;
    queue.push_back(start);
    while w0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                while next_seed < n && visited[next_seed] {
                    next_seed += 1;
                }
                if next_seed == n {
                    break;
                }
                visited[next_seed] = true;
                next_seed
            }
        };
        let wv = h.vertex_weight(v, 0);
        if w0 + wv - target0 > target0 - w0 {
            break;
        }
        side[v] = 0;
        w0 += wv;
        for &net in h.nets_of(v) {
            if h.net_size(net) > 256 {
                continue; // huge nets give no locality signal
            }
            for &u in h.pins_of(net) {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    HBisection::recompute(h, side)
}

/// Multilevel bisection: coarsen to `cfg.coarse_target` vertices, grow an
/// initial bisection, refine with FM while projecting back up.
pub fn multilevel_bisect(h: &Hypergraph, cfg: &BisectConfig) -> HBisection {
    bisect_level(h, cfg, &mut HFmScratch::default())
}

fn bisect_level(h: &Hypergraph, cfg: &BisectConfig, ws: &mut HFmScratch) -> HBisection {
    let limits = HFmLimits::from_eps(h, cfg.eps);
    if h.nvertices() <= cfg.coarse_target {
        let mut b = grow_bisection(h);
        refine_with(h, &mut b, &limits, ws);
        return b;
    }
    let lvl = coarsen_once(h);
    if lvl.hg.nvertices() as f64 > 0.95 * h.nvertices() as f64 {
        let mut b = grow_bisection(h);
        refine_with(h, &mut b, &limits, ws);
        return b;
    }
    let coarse = bisect_level(&lvl.hg, cfg, ws);
    let side: Vec<u8> = (0..h.nvertices())
        .map(|v| coarse.side[lvl.coarse_of[v]])
        .collect();
    let mut b = HBisection::recompute(h, side);
    refine_with(h, &mut b, &limits, ws);
    b
}

/// Forces side 0 of a bisection to contain exactly `target0` vertices
/// (unit-count semantics; used by the §IV-B right-hand-side partitioning
/// where every part must have exactly `B` columns, ε = 0).
///
/// Vertices are shifted from the overfull side picking, at each step, the
/// vertex whose move increases the cut the least (lowest index on ties).
pub fn repair_to_exact_count(h: &Hypergraph, bis: &mut HBisection, target0: usize) {
    let count0 = bis.side.iter().filter(|&&s| s == 0).count();
    if count0 == target0 {
        return;
    }
    // The overfull side stays the same until the count is reached, so a
    // shifted vertex is never a candidate again.
    let from = if count0 > target0 { 0usize } else { 1 };
    let mut cnt = Vec::new();
    count_pins(h, &bis.side, &mut cnt);
    let mut gains = Vec::new();
    initial_gains(h, &bis.side, &cnt, &mut gains);
    for _ in 0..count0.abs_diff(target0) {
        let best = (0..h.nvertices())
            .filter(|&v| bis.side[v] as usize == from)
            .min_by_key(|&v| (std::cmp::Reverse(gains[v]), v));
        let Some(v) = best else {
            break; // nothing movable (side empty)
        };
        for &net in h.nets_of(v) {
            move_across_net(h, &bis.side, &mut cnt, net, v, from, |u, delta| {
                gains[u] += delta;
            });
        }
        bis.flip(h, v);
        bis.cut -= gains[v];
    }
    bis.debug_check(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D chain of `n` vertices with pair nets — the optimal bisection
    /// cuts exactly one net.
    fn chain(n: usize) -> Hypergraph {
        let pins: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        let ncost = vec![1i64; pins.len()];
        Hypergraph::from_pin_lists(n, &pins, vec![1; n], 1, ncost)
    }

    #[test]
    fn multilevel_bisects_chain_cheaply() {
        let h = chain(200);
        let b = multilevel_bisect(&h, &BisectConfig::default());
        assert!(b.cut <= 4, "chain cut should be tiny, got {}", b.cut);
        assert!(b.imbalance(0) <= 0.10, "imbalance {}", b.imbalance(0));
    }

    #[test]
    fn small_graph_direct_bisection() {
        let h = chain(10);
        let b = multilevel_bisect(&h, &BisectConfig::default());
        assert_eq!(b.weights[0][0] + b.weights[1][0], 10);
        assert!(b.cut >= 1);
    }

    #[test]
    fn repair_reaches_exact_count() {
        let h = chain(20);
        let mut b = multilevel_bisect(&h, &BisectConfig::default());
        repair_to_exact_count(&h, &mut b, 7);
        assert_eq!(b.side.iter().filter(|&&s| s == 0).count(), 7);
        let fresh = HBisection::recompute(&h, b.side.clone());
        assert_eq!(fresh.cut, b.cut);
    }

    #[test]
    fn repair_with_exact_half() {
        let h = chain(16);
        let mut b = multilevel_bisect(&h, &BisectConfig::default());
        repair_to_exact_count(&h, &mut b, 8);
        assert_eq!(b.side.iter().filter(|&&s| s == 0).count(), 8);
        // Chain split into two halves of 8 — best cut is 1.
        assert!(b.cut <= 3);
    }
}
