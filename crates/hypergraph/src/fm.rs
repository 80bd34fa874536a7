//! Fiduccia–Mattheyses refinement for hypergraph bisections.
//!
//! Gains follow the classical FM cut-net rules with net costs. Inside a
//! *bisection* the con1 and cut-net objectives coincide (λ ∈ {1,2}), so a
//! single gain structure serves every metric; the metrics differ across
//! recursion levels through net splitting / discarding and the soed
//! cost-halving trick (see [`crate::recursive`]).

use std::collections::BinaryHeap;

use crate::Hypergraph;

/// A hypergraph bisection with per-constraint side weights.
#[derive(Clone, Debug)]
pub struct HBisection {
    /// Side (0/1) of each vertex.
    pub side: Vec<u8>,
    /// Total cost of cut nets.
    pub cut: i64,
    /// `weights[s][c]` = weight of side `s` under constraint `c`.
    pub weights: [Vec<i64>; 2],
}

impl HBisection {
    /// Builds the bookkeeping from a side assignment.
    pub fn recompute(h: &Hypergraph, side: Vec<u8>) -> Self {
        let ncon = h.nconstraints();
        let mut weights = [vec![0i64; ncon], vec![0i64; ncon]];
        for v in 0..h.nvertices() {
            for c in 0..ncon {
                weights[side[v] as usize][c] += h.vertex_weight(v, c);
            }
        }
        let mut cut = 0i64;
        for n in 0..h.nnets() {
            let pins = h.pins_of(n);
            if pins.is_empty() {
                continue;
            }
            let s0 = side[pins[0]];
            if pins.iter().any(|&v| side[v] != s0) {
                cut += h.net_cost(n);
            }
        }
        HBisection { side, cut, weights }
    }

    /// Moves `v` to the other side: `side` and `weights`, not `cut`.
    pub(crate) fn flip(&mut self, h: &Hypergraph, v: usize) {
        let from = self.side[v] as usize;
        self.side[v] = 1 - from as u8;
        for c in 0..h.nconstraints() {
            let w = h.vertex_weight(v, c);
            self.weights[from][c] -= w;
            self.weights[1 - from][c] += w;
        }
    }

    /// Debug builds: `cut` and `weights` equal a fresh [`Self::recompute`].
    pub(crate) fn debug_check(&self, h: &Hypergraph) {
        if cfg!(debug_assertions) {
            let fresh = HBisection::recompute(h, self.side.clone());
            assert_eq!(fresh.cut, self.cut, "incremental cut bookkeeping diverged");
            assert_eq!(fresh.weights, self.weights);
        }
    }

    /// Imbalance of constraint `c`.
    pub fn imbalance(&self, c: usize) -> f64 {
        let total = (self.weights[0][c] + self.weights[1][c]) as f64;
        if total == 0.0 {
            return 0.0;
        }
        let avg = total / 2.0;
        let max = self.weights[0][c].max(self.weights[1][c]) as f64;
        (max - avg) / avg
    }
}

/// Balance limits for FM (per constraint) and pass count.
#[derive(Clone, Debug)]
pub struct HFmLimits {
    /// Per-constraint upper bound on either side's weight.
    pub max_side: Vec<i64>,
    /// Maximum number of passes.
    pub max_passes: usize,
}

impl HFmLimits {
    /// `max_side[c] = (1+eps) * total[c] / 2` for every constraint.
    pub fn from_eps(h: &Hypergraph, eps: f64) -> Self {
        let max_side = h
            .total_weights()
            .iter()
            .map(|&t| ((t as f64) * (1.0 + eps) / 2.0).ceil() as i64)
            .collect();
        HFmLimits {
            max_side,
            max_passes: 6,
        }
    }
}

/// Scratch of the FM passes, kept across the passes of one [`refine`]
/// call and, through `bisect::multilevel_bisect`, across its levels.
#[derive(Default)]
pub(crate) struct HFmScratch {
    /// Pins of each net on side 0 / side 1.
    cnt: Vec<[usize; 2]>,
    /// Whether the net has a locked pin on side 0 / side 1.
    locked_on: Vec<[bool; 2]>,
    gains: Vec<i64>,
    locked: Vec<bool>,
    /// Max-heap over `(gain, vertex)`; an entry whose gain is no longer
    /// the vertex's is skipped when popped.
    heap: BinaryHeap<(i64, usize)>,
    /// Vertices whose gain the current move changed, each once.
    touched: Vec<usize>,
    in_touched: Vec<bool>,
    moves: Vec<usize>,
}

/// Pins of every net on side 0 / side 1.
pub(crate) fn count_pins(h: &Hypergraph, side: &[u8], cnt: &mut Vec<[usize; 2]>) {
    cnt.clear();
    cnt.resize(h.nnets(), [0, 0]);
    for net in 0..h.nnets() {
        for &v in h.pins_of(net) {
            cnt[net][side[v] as usize] += 1;
        }
    }
}

/// FM gain of every vertex: cost of the nets its move uncuts minus cost
/// of the nets its move cuts.
pub(crate) fn initial_gains(h: &Hypergraph, side: &[u8], cnt: &[[usize; 2]], gains: &mut Vec<i64>) {
    gains.clear();
    gains.extend((0..h.nvertices()).map(|v| {
        let s = side[v] as usize;
        let mut g = 0i64;
        for &n in h.nets_of(v) {
            let c = h.net_cost(n);
            if cnt[n][s] == 1 {
                g += c; // moving v uncuts the net
            }
            if cnt[n][1 - s] == 0 {
                g -= c; // moving v cuts the net
            }
        }
        g
    }));
}

/// Moves `v` from side `from` to the other side within `net`: updates
/// the net's pin counts and reports the classical FM delta gain of every
/// other pin it changes through `bump(u, delta)`. `side[v]` may hold
/// either side; every other pin's `side` must be current.
pub(crate) fn move_across_net(
    h: &Hypergraph,
    side: &[u8],
    cnt: &mut [[usize; 2]],
    net: usize,
    v: usize,
    from: usize,
    mut bump: impl FnMut(usize, i64),
) {
    let to = 1 - from;
    let c = h.net_cost(net);
    let others = || h.pins_of(net).iter().copied().filter(|&u| u != v);
    // Before the move.
    if cnt[net][to] == 0 {
        others().for_each(|u| bump(u, c));
    } else if cnt[net][to] == 1 {
        others()
            .filter(|&u| side[u] as usize == to)
            .for_each(|u| bump(u, -c));
    }
    cnt[net][from] -= 1;
    cnt[net][to] += 1;
    // After the move.
    if cnt[net][from] == 0 {
        others().for_each(|u| bump(u, -c));
    } else if cnt[net][from] == 1 {
        others()
            .filter(|&u| side[u] as usize == from)
            .for_each(|u| bump(u, c));
    }
}

/// Runs FM passes on a bisection; returns the cut improvement (≥ 0).
pub fn refine(h: &Hypergraph, bis: &mut HBisection, limits: &HFmLimits) -> i64 {
    refine_with(h, bis, limits, &mut HFmScratch::default())
}

/// [`refine`] on caller-owned scratch.
pub(crate) fn refine_with(
    h: &Hypergraph,
    bis: &mut HBisection,
    limits: &HFmLimits,
    ws: &mut HFmScratch,
) -> i64 {
    let initial_cut = bis.cut;
    for _pass in 0..limits.max_passes {
        if !pass(h, bis, limits, ws) {
            break;
        }
    }
    initial_cut - bis.cut
}

/// One FM pass: moves vertices in `(gain, vertex)` order, each at most
/// once, then keeps the shortest prefix of moves with the smallest cut.
/// Returns whether that cut is below the pass's start.
///
/// A net with a locked pin on each side stays cut until the pass ends.
/// The cost of those nets, `dead_cost`, is therefore a lower bound on the
/// cut after every later move, and since a prefix is kept only for a cut
/// *strictly* below `best_cut`, the pass ends as soon as
/// `dead_cost >= best_cut`: the moves it skips could not have been kept.
fn pass(h: &Hypergraph, bis: &mut HBisection, limits: &HFmLimits, ws: &mut HFmScratch) -> bool {
    let n = h.nvertices();
    let ncon = h.nconstraints();
    let HFmScratch {
        cnt,
        locked_on,
        gains,
        locked,
        heap,
        touched,
        in_touched,
        moves,
    } = ws;
    count_pins(h, &bis.side, cnt);
    initial_gains(h, &bis.side, cnt, gains);
    locked_on.clear();
    locked_on.resize(h.nnets(), [false, false]);
    locked.clear();
    locked.resize(n, false);
    in_touched.clear();
    in_touched.resize(n, false);
    moves.clear();
    let mut entries = std::mem::take(heap).into_vec();
    entries.clear();
    entries.extend((0..n).map(|v| (gains[v], v)));
    *heap = BinaryHeap::from(entries);

    // Locks `v` on side `s` of `net`; returns the net's cost if that
    // leaves it with locked pins on both sides.
    let lock_pin = |locked_on: &mut [[bool; 2]], net: usize, s: usize| -> i64 {
        if locked_on[net][s] {
            return 0;
        }
        locked_on[net][s] = true;
        if locked_on[net][1 - s] {
            h.net_cost(net)
        } else {
            0
        }
    };

    let start_cut = bis.cut;
    let mut cur_cut = start_cut;
    let mut best_cut = start_cut;
    let mut best_prefix = 0usize;
    let mut dead_cost = 0i64;
    while dead_cost < best_cut {
        let Some((gain, v)) = heap.pop() else { break };
        if locked[v] || gain != gains[v] {
            continue;
        }
        let from = bis.side[v] as usize;
        let to = 1 - from;
        locked[v] = true;
        // Balance: target must stay within bounds for all constraints
        // (unless the source side already violates them, in which case
        // the move reduces the violation).
        let ok = (0..ncon).all(|c| {
            bis.weights[to][c] + h.vertex_weight(v, c) <= limits.max_side[c]
                || bis.weights[from][c] > limits.max_side[c]
        });
        if !ok {
            for &net in h.nets_of(v) {
                dead_cost += lock_pin(locked_on, net, from);
            }
            debug_assert!(cur_cut >= dead_cost);
            continue;
        }
        for &net in h.nets_of(v) {
            if locked_on[net] == [true, true] {
                // Each side keeps a locked pin, so no pin count of this
                // net reaches 0, and a count of 1 is that locked pin: the
                // move changes no unlocked gain, and `cnt` of a dead net
                // is not read again in this pass.
                continue;
            }
            move_across_net(h, &bis.side, cnt, net, v, from, |u, delta| {
                if !locked[u] {
                    gains[u] += delta;
                    if !in_touched[u] {
                        in_touched[u] = true;
                        touched.push(u);
                    }
                }
            });
            dead_cost += lock_pin(locked_on, net, to);
        }
        // One heap entry per vertex whose gain changed, at its final
        // value; the entries it supersedes are skipped when popped.
        for u in touched.drain(..) {
            in_touched[u] = false;
            heap.push((gains[u], u));
        }
        bis.flip(h, v);
        cur_cut -= gain;
        moves.push(v);
        debug_assert!(cur_cut >= dead_cost);
        if cur_cut < best_cut {
            best_cut = cur_cut;
            best_prefix = moves.len();
        }
    }
    // Undo the moves past the best prefix.
    for &v in &moves[best_prefix..] {
        bis.flip(h, v);
    }
    bis.cut = best_cut;
    bis.debug_check(h);
    best_cut < start_cut
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cliques of nets joined by one bridge net.
    fn two_cluster_hg() -> Hypergraph {
        let mut pins: Vec<Vec<usize>> = Vec::new();
        // Cluster A: vertices 0..5, dense pairwise nets.
        for i in 0..5usize {
            for j in (i + 1)..5 {
                pins.push(vec![i, j]);
            }
        }
        // Cluster B: vertices 5..10.
        for i in 5..10usize {
            for j in (i + 1)..10 {
                pins.push(vec![i, j]);
            }
        }
        // Bridge.
        pins.push(vec![4, 5]);
        let ncost = vec![1i64; pins.len()];
        Hypergraph::from_pin_lists(10, &pins, vec![1; 10], 1, ncost)
    }

    #[test]
    fn fm_finds_the_natural_split() {
        let h = two_cluster_hg();
        // Interleaved bad start.
        let side: Vec<u8> = (0..10).map(|v| (v % 2) as u8).collect();
        let mut b = HBisection::recompute(&h, side);
        let before = b.cut;
        refine(&h, &mut b, &HFmLimits::from_eps(&h, 0.1));
        assert!(b.cut < before);
        assert_eq!(b.cut, 1, "only the bridge net should remain cut");
        // Verify against a fresh recompute.
        let fresh = HBisection::recompute(&h, b.side.clone());
        assert_eq!(fresh.cut, b.cut);
    }

    #[test]
    fn fm_respects_balance() {
        let h = two_cluster_hg();
        let side: Vec<u8> = (0..10).map(|v| (v % 2) as u8).collect();
        let mut b = HBisection::recompute(&h, side);
        let limits = HFmLimits::from_eps(&h, 0.1);
        refine(&h, &mut b, &limits);
        assert!(b.weights[0][0] <= limits.max_side[0]);
        assert!(b.weights[1][0] <= limits.max_side[0]);
    }

    #[test]
    fn fm_never_increases_cut() {
        let h = two_cluster_hg();
        let side: Vec<u8> = (0..10).map(|v| if v < 5 { 0 } else { 1 }).collect();
        let mut b = HBisection::recompute(&h, side);
        assert_eq!(b.cut, 1);
        refine(&h, &mut b, &HFmLimits::from_eps(&h, 0.1));
        assert_eq!(b.cut, 1, "optimal bisection must stay optimal");
    }

    #[test]
    fn recompute_counts_cut_nets_with_costs() {
        let h = Hypergraph::from_pin_lists(
            3,
            &[vec![0, 1], vec![1, 2], vec![0, 2]],
            vec![1; 3],
            1,
            vec![2, 3, 5],
        );
        let b = HBisection::recompute(&h, vec![0, 0, 1]);
        assert_eq!(b.cut, 3 + 5);
    }
}
