//! Fiduccia–Mattheyses refinement of a graph bisection.

use std::collections::BinaryHeap;

use crate::initpart::Bisection;
use crate::Graph;

/// Balance bound for FM: each side must keep weight `<= max_side`.
#[derive(Clone, Copy, Debug)]
pub struct FmLimits {
    /// Hard upper bound on either side's vertex weight.
    pub max_side: i64,
    /// Maximum number of hill-climbing passes.
    pub max_passes: usize,
}

impl FmLimits {
    /// Standard limits from an imbalance tolerance `eps`:
    /// `max_side = (1+eps) * total/2`.
    pub fn from_eps(total: i64, eps: f64) -> Self {
        let max_side = ((total as f64) * (1.0 + eps) / 2.0).ceil() as i64;
        FmLimits {
            max_side,
            max_passes: 8,
        }
    }
}

/// Gain of moving `v` to the other side: external − internal edge weight.
fn gain_of(g: &Graph, side: &[u8], v: usize) -> i64 {
    let s = side[v];
    let mut gain = 0i64;
    for (u, w) in g.edges(v) {
        if side[u] == s {
            gain -= w;
        } else {
            gain += w;
        }
    }
    gain
}

/// Scratch of the FM passes, kept across the passes of one [`refine`]
/// call and, through `nd::multilevel_bisect`, across its levels.
#[derive(Default)]
pub(crate) struct FmScratch {
    gains: Vec<i64>,
    locked: Vec<bool>,
    /// Max-heap over `(gain, vertex)`; an entry whose gain is no longer
    /// the vertex's is skipped when popped.
    heap: BinaryHeap<(i64, usize)>,
    moves: Vec<usize>,
}

/// Refines a bisection in place with FM passes; returns the total cut
/// improvement (non-negative).
pub fn refine(g: &Graph, bis: &mut Bisection, limits: FmLimits) -> i64 {
    refine_with(g, bis, limits, &mut FmScratch::default())
}

/// [`refine`] on caller-owned scratch.
pub(crate) fn refine_with(
    g: &Graph,
    bis: &mut Bisection,
    limits: FmLimits,
    ws: &mut FmScratch,
) -> i64 {
    let initial_cut = bis.edgecut;
    for _pass in 0..limits.max_passes {
        if !pass(g, bis, limits, ws) {
            break; // no improvement this pass
        }
    }
    initial_cut - bis.edgecut
}

/// One FM pass: moves vertices in `(gain, vertex)` order, each at most
/// once, then keeps the shortest prefix of moves with the smallest cut.
/// Returns whether that cut is below the pass's start.
///
/// An edge whose endpoints are locked on opposite sides stays cut until
/// the pass ends. The weight of those edges, `dead_cost`, is therefore a
/// lower bound on the cut after every later move, and since a prefix is
/// kept only for a cut *strictly* below `best_cut`, the pass ends as soon
/// as `dead_cost >= best_cut`: the moves it skips could not have been
/// kept. (Edge weights are non-negative: [`Graph::from_parts`] checks.)
fn pass(g: &Graph, bis: &mut Bisection, limits: FmLimits, ws: &mut FmScratch) -> bool {
    let n = g.nvertices();
    let FmScratch {
        gains,
        locked,
        heap,
        moves,
    } = ws;
    gains.clear();
    gains.extend((0..n).map(|v| gain_of(g, &bis.side, v)));
    locked.clear();
    locked.resize(n, false);
    moves.clear();
    let mut entries = std::mem::take(heap).into_vec();
    entries.clear();
    entries.extend((0..n).map(|v| (gains[v], v)));
    *heap = BinaryHeap::from(entries);

    let start_cut = bis.edgecut;
    let mut cur_cut = start_cut;
    let mut best_cut = start_cut;
    let mut best_prefix = 0usize;
    let mut dead_cost = 0i64;
    while dead_cost < best_cut {
        let Some((gain, v)) = heap.pop() else { break };
        if locked[v] || gain != gains[v] {
            continue; // stale
        }
        let from = bis.side[v] as usize;
        let to = 1 - from;
        let wv = g.vertex_weight(v);
        locked[v] = true;
        if bis.weights[to] + wv > limits.max_side {
            // Cannot move without violating balance: v stays locked on
            // `from`, and so do its edges to vertices locked on `to`.
            for (u, w) in g.edges(v) {
                if locked[u] && bis.side[u] as usize == to {
                    dead_cost += w;
                }
            }
            debug_assert!(cur_cut >= dead_cost);
            continue;
        }
        // Apply the move.
        bis.side[v] = to as u8;
        bis.weights[from] -= wv;
        bis.weights[to] += wv;
        cur_cut -= gain;
        moves.push(v);
        // Update neighbour gains.
        for (u, w) in g.edges(v) {
            if locked[u] {
                if bis.side[u] as usize == from {
                    dead_cost += w;
                }
                continue;
            }
            // v changed sides: if u is now on v's (new) side, the edge
            // became internal for u (gain -2w relative to before);
            // otherwise it became external (+2w).
            if bis.side[u] as usize == to {
                gains[u] -= 2 * w;
            } else {
                gains[u] += 2 * w;
            }
            heap.push((gains[u], u));
        }
        debug_assert!(cur_cut >= dead_cost);
        if cur_cut < best_cut {
            best_cut = cur_cut;
            best_prefix = moves.len();
        }
    }
    // Undo the moves past the best prefix.
    for &v in &moves[best_prefix..] {
        let to = bis.side[v] as usize;
        let wv = g.vertex_weight(v);
        bis.side[v] = 1 - to as u8;
        bis.weights[to] -= wv;
        bis.weights[1 - to] += wv;
    }
    bis.edgecut = best_cut;
    debug_assert_eq!(bis.edgecut, g.edge_cut(&bis.side));
    best_cut < start_cut
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
    fn fm_never_worsens_cut() {
        let g = grid(6, 6);
        // Bad interleaved start.
        let side: Vec<u8> = (0..36).map(|v| (v % 2) as u8).collect();
        let mut b = Bisection::recompute(&g, side);
        let before = b.edgecut;
        let gain = refine(
            &g,
            &mut b,
            FmLimits::from_eps(g.total_vertex_weight(), 0.05),
        );
        assert!(gain >= 0);
        assert!(b.edgecut <= before);
        assert_eq!(b.edgecut, g.edge_cut(&b.side), "cut bookkeeping consistent");
    }

    #[test]
    fn fm_reaches_good_cut_on_grid() {
        let g = grid(8, 8);
        let side: Vec<u8> = (0..64).map(|v| ((v / 3) % 2) as u8).collect();
        let mut b = Bisection::recompute(&g, side);
        refine(
            &g,
            &mut b,
            FmLimits::from_eps(g.total_vertex_weight(), 0.05),
        );
        // The optimal straight-line cut is 8; FM from a poor start should
        // get within a factor of ~3.
        assert!(b.edgecut <= 24, "cut {} too large", b.edgecut);
    }

    #[test]
    fn fm_respects_balance_bound() {
        let g = grid(6, 6);
        let side: Vec<u8> = (0..36).map(|v| (v % 2) as u8).collect();
        let mut b = Bisection::recompute(&g, side);
        let limits = FmLimits::from_eps(g.total_vertex_weight(), 0.05);
        refine(&g, &mut b, limits);
        assert!(b.weights[0] <= limits.max_side);
        assert!(b.weights[1] <= limits.max_side);
    }

    #[test]
    fn fm_on_already_optimal_bisection_is_stable() {
        let g = grid(4, 4);
        let side: Vec<u8> = (0..16).map(|v| if v / 4 < 2 { 0u8 } else { 1u8 }).collect();
        let mut b = Bisection::recompute(&g, side);
        let before = b.edgecut;
        assert_eq!(before, 4);
        refine(
            &g,
            &mut b,
            FmLimits::from_eps(g.total_vertex_weight(), 0.05),
        );
        assert_eq!(b.edgecut, 4);
    }
}
