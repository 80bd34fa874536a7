//! Heavy-connectivity matching coarsening for hypergraphs.

use crate::Hypergraph;

/// One hypergraph coarsening level.
#[derive(Clone, Debug)]
pub struct CoarseHg {
    /// The contracted hypergraph.
    pub hg: Hypergraph,
    /// `coarse_of[fine_v]` = coarse vertex id.
    pub coarse_of: Vec<usize>,
}

/// Nets larger than this are skipped when scoring matches (they carry
/// little locality signal and are expensive to traverse).
const MATCH_NET_CAP: usize = 64;

/// Heavy-connectivity matching: vertices are matched to the unmatched
/// neighbour with which they share the largest total net cost (nets
/// capped at [`MATCH_NET_CAP`] pins). Returns `mate` with
/// `mate[v] == v` for unmatched vertices.
pub fn heavy_connectivity_matching(h: &Hypergraph) -> Vec<usize> {
    let n = h.nvertices();
    let mut mate: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| h.vertex_degree(v));
    let mut score = vec![0i64; n];
    let mut touched: Vec<usize> = Vec::new();
    for &v in &order {
        if mate[v] != v {
            continue;
        }
        touched.clear();
        for &net in h.nets_of(v) {
            if h.net_size(net) > MATCH_NET_CAP {
                continue;
            }
            let c = h.net_cost(net);
            for &u in h.pins_of(net) {
                if u != v && mate[u] == u {
                    if score[u] == 0 {
                        touched.push(u);
                    }
                    score[u] += c;
                }
            }
        }
        let mut best = usize::MAX;
        let mut best_s = 0i64;
        for &u in &touched {
            if score[u] > best_s || (score[u] == best_s && u < best) {
                best = u;
                best_s = score[u];
            }
            score[u] = 0;
        }
        if best != usize::MAX {
            mate[v] = best;
            mate[best] = v;
        }
    }
    mate
}

/// Contracts a hypergraph along a matching. Coarse vertex weights are the
/// sums of their members' weights (all constraints); nets keep their
/// costs, with pins mapped to coarse ids and de-duplicated. Nets that
/// shrink to a single pin are dropped (they cannot be cut).
pub fn contract(h: &Hypergraph, mate: &[usize]) -> CoarseHg {
    let n = h.nvertices();
    let ncon = h.nconstraints();
    let mut coarse_of = vec![usize::MAX; n];
    let mut nc = 0usize;
    for v in 0..n {
        if coarse_of[v] != usize::MAX {
            continue;
        }
        coarse_of[v] = nc;
        if mate[v] != v {
            coarse_of[mate[v]] = nc;
        }
        nc += 1;
    }
    let mut vwgt = vec![0i64; nc * ncon];
    for v in 0..n {
        let cv = coarse_of[v];
        for c in 0..ncon {
            vwgt[cv * ncon + c] += h.vertex_weight(v, c);
        }
    }
    let mut nptr = vec![0usize];
    let mut npins: Vec<usize> = Vec::with_capacity(h.npins());
    let mut ncost: Vec<i64> = Vec::new();
    let mut mark = vec![usize::MAX; nc];
    for net in 0..h.nnets() {
        let start = npins.len();
        for &v in h.pins_of(net) {
            let cv = coarse_of[v];
            if mark[cv] != net {
                mark[cv] = net;
                npins.push(cv);
            }
        }
        if npins.len() - start > 1 {
            npins[start..].sort_unstable();
            nptr.push(npins.len());
            ncost.push(h.net_cost(net));
        } else {
            npins.truncate(start);
        }
    }
    CoarseHg {
        hg: Hypergraph::from_flat_pins(nc, nptr, npins, vwgt, ncon, ncost),
        coarse_of,
    }
}

/// Match + contract in one step.
pub fn coarsen_once(h: &Hypergraph) -> CoarseHg {
    let mate = heavy_connectivity_matching(h);
    contract(h, &mate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_hg(n: usize) -> Hypergraph {
        // Nets {i, i+1} — a path-like hypergraph.
        let pins: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        let ncost = vec![1i64; pins.len()];
        Hypergraph::from_pin_lists(n, &pins, vec![1; n], 1, ncost)
    }

    #[test]
    fn matching_is_involutive_and_local() {
        let h = chain_hg(10);
        let mate = heavy_connectivity_matching(&h);
        for v in 0..10 {
            assert_eq!(mate[mate[v]], v);
        }
        // Matched pairs must share a net.
        for v in 0..10 {
            if mate[v] != v {
                let shares = h
                    .nets_of(v)
                    .iter()
                    .any(|&n| h.pins_of(n).contains(&mate[v]));
                assert!(shares, "matched pair ({v},{}) shares no net", mate[v]);
            }
        }
    }

    #[test]
    fn contraction_preserves_weight_and_shrinks() {
        let h = chain_hg(12);
        let lvl = coarsen_once(&h);
        assert_eq!(lvl.hg.total_weights(), h.total_weights());
        assert!(lvl.hg.nvertices() < h.nvertices());
    }

    #[test]
    fn single_pin_nets_dropped() {
        // Net {0,1} contracts to a single coarse vertex -> net dropped.
        let h = Hypergraph::from_pin_lists(2, &[vec![0, 1]], vec![1, 1], 1, vec![1]);
        let lvl = contract(&h, &[1, 0]);
        assert_eq!(lvl.hg.nvertices(), 1);
        assert_eq!(lvl.hg.nnets(), 0);
    }

    #[test]
    fn multiconstraint_weights_summed() {
        let h = Hypergraph::from_pin_lists(2, &[vec![0, 1]], vec![1, 10, 2, 20], 2, vec![1]);
        let lvl = contract(&h, &[1, 0]);
        assert_eq!(lvl.hg.vertex_weights(0), &[3, 30]);
    }
}
