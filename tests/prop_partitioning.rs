//! Randomized property tests of the partitioning and reordering layers
//! on randomly structured inputs (deterministic SplitMix64 seeds).

use std::collections::{BTreeMap, BinaryHeap};

use graphpart::fm::FmLimits;
use graphpart::initpart::Bisection;
use graphpart::separator::{is_valid_separator, vertex_separator};
use graphpart::{nested_dissection, Graph, NdConfig, WeightScheme, SEPARATOR};
use hypergraph::fm::{HBisection, HFmLimits};
use hypergraph::{rhb_partition, Hypergraph, RhbConfig};
use sparsekit::{Coo, Csr, Fnv64, Rng64};

/// Random connected-ish symmetric sparse matrix with a full diagonal.
fn random_symmetric(rng: &mut Rng64, n_max: usize) -> Csr {
    let n = rng.range(8, n_max);
    let extra = rng.range(n / 2, 2 * n);
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 4.0);
        // A backbone path keeps the graph connected.
        if i + 1 < n {
            c.push_sym(i, i + 1, -1.0);
        }
    }
    for _ in 0..extra {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            c.push_sym(u, v, -0.5);
        }
    }
    c.to_csr()
}

fn dbbd_is_valid(a: &Csr, part: &graphpart::DbbdPartition) -> bool {
    for i in 0..a.nrows() {
        let pi = part.part_of[i];
        if pi == SEPARATOR {
            continue;
        }
        for &j in a.row_indices(i) {
            let pj = part.part_of[j];
            if pj != SEPARATOR && pj != pi {
                return false;
            }
        }
    }
    true
}

#[test]
fn ngd_always_yields_valid_dbbd() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let a = random_symmetric(&mut rng, 80);
        let g = Graph::from_matrix(&a);
        let part = nested_dissection(&g, 4, &NdConfig::default());
        assert!(dbbd_is_valid(&a, &part), "seed {seed}");
        let total: usize = part.subdomain_sizes().iter().sum::<usize>() + part.separator_size();
        assert_eq!(total, a.nrows(), "seed {seed}");
    }
}

#[test]
fn rhb_always_yields_valid_dbbd() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let a = random_symmetric(&mut rng, 80);
        let part = rhb_partition(&a, 4, &RhbConfig::default(), WeightScheme::Unit);
        assert!(dbbd_is_valid(&a, &part), "seed {seed}");
        let total: usize = part.subdomain_sizes().iter().sum::<usize>() + part.separator_size();
        assert_eq!(total, a.nrows(), "seed {seed}");
    }
}

/// Random symmetric matrix with strongly heterogeneous magnitudes:
/// a handful of couplings are 100× the background, so value-scaled
/// weights genuinely differ from unit weights.
fn random_heterogeneous(rng: &mut Rng64, n_max: usize) -> Csr {
    let n = rng.range(48, n_max);
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 4.0);
        if i + 1 < n {
            let v = if rng.below(8) == 0 { -100.0 } else { -1.0 };
            c.push_sym(i, i + 1, v);
        }
    }
    for _ in 0..2 * n {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            let w = if rng.below(8) == 0 { -50.0 } else { -0.5 };
            c.push_sym(u, v, w);
        }
    }
    c.to_csr()
}

/// Value-weighted ND and RHB must keep every DBBD invariant of the unit
/// path — validity, full coverage — and stay balanced: no subdomain may
/// swallow most of the interior. This is the regression net for the
/// `WeightScheme::ValueScaled` plumbing through both partitioners.
#[test]
fn value_weighted_partitions_stay_valid_and_balanced() {
    use pdslin::{compute_partition_weighted, PartitionerKind, WeightScheme};
    let k = 4usize;
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let a = random_heterogeneous(&mut rng, 96);
        let n = a.nrows();
        for kind in [
            PartitionerKind::Ngd,
            PartitionerKind::Rhb(Default::default()),
        ] {
            for weights in [WeightScheme::Unit, WeightScheme::ValueScaled] {
                let part = compute_partition_weighted(&a, k, &kind, weights);
                assert!(dbbd_is_valid(&a, &part), "seed {seed} {kind:?} {weights:?}");
                let sizes = part.subdomain_sizes();
                let interior: usize = sizes.iter().sum();
                assert_eq!(
                    interior + part.separator_size(),
                    n,
                    "seed {seed} {kind:?} {weights:?}"
                );
                // Balance: recursive bisection halves the interior at
                // every level, so with k = 4 no single subdomain may
                // hold more than ~three quarters of it. Tiny interiors
                // (wide separator on a near-random graph) are exempt —
                // there the bound is dominated by integer effects.
                let max = sizes.iter().copied().max().unwrap_or(0);
                if interior >= 24 {
                    assert!(
                        max * 4 <= interior * 3,
                        "seed {seed} {kind:?} {weights:?}: subdomain {max} of {interior}"
                    );
                }
            }
        }
    }
}

#[test]
fn vertex_separator_always_separates() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let a = random_symmetric(&mut rng, 60);
        let g = Graph::from_matrix(&a);
        let bis = graphpart::nd::multilevel_bisect(&g, &NdConfig::default());
        let vs = vertex_separator(&g, &bis);
        assert!(is_valid_separator(&g, &vs.assign), "seed {seed}");
        // Accounting: weights partition the total.
        assert_eq!(
            vs.side_weights[0] + vs.side_weights[1] + vs.sep_weight,
            g.total_vertex_weight(),
            "seed {seed}"
        );
    }
}

#[test]
fn dbbd_permutation_is_bijective() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let a = random_symmetric(&mut rng, 60);
        let g = Graph::from_matrix(&a);
        let part = nested_dissection(&g, 2, &NdConfig::default());
        let perm = part.permutation();
        let mut seen = vec![false; a.nrows()];
        for p in 0..perm.len() {
            let old = perm.to_old(p);
            assert!(!seen[old], "seed {seed}");
            seen[old] = true;
        }
    }
}

/// Padding invariants on random lower-triangular factors: postorder and
/// hypergraph orderings never pad more than natural, and B = 1 is
/// padding-free — for arbitrary random column patterns.
#[test]
fn ordering_padding_invariants() {
    for seed in 0..16 {
        let mut rng = Rng64::new(seed);
        let n = 40usize;
        let ncols = rng.range(6, 20);
        let subdiag_skip = rng.range(1, 4);
        // A lower factor with chain structure of stride `subdiag_skip`.
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
            if i + subdiag_skip < n {
                c.push(i + subdiag_skip, i, -0.5);
            }
        }
        let l = c.to_csr().to_csc();
        let cols: Vec<slu::SparseVec> = (0..ncols)
            .map(|_| {
                let len = rng.range(1, 4);
                let mut idx: Vec<usize> = (0..len).map(|_| rng.below(n)).collect();
                idx.sort_unstable();
                idx.dedup();
                let k = idx.len();
                slu::SparseVec::new(idx, vec![1.0; k])
            })
            .collect();
        let mut ws = slu::trisolve::SolveWorkspace::new(n);
        let reaches = pdslin::rhs_order::column_reaches(&cols, &l, &mut ws);
        let b = 4usize;
        let nat = pdslin::rhs_order::order_columns_precomputed(
            &cols,
            &reaches,
            n,
            b,
            pdslin::RhsOrdering::Natural,
        );
        let post = pdslin::rhs_order::order_columns_precomputed(
            &cols,
            &reaches,
            n,
            b,
            pdslin::RhsOrdering::Postorder,
        );
        let hyp = pdslin::rhs_order::order_columns_precomputed(
            &cols,
            &reaches,
            n,
            b,
            pdslin::RhsOrdering::Hypergraph { tau: None },
        );
        let p_post = pdslin::rhs_order::padding_of_order(&reaches, n, &post, b).0;
        let p_hyp = pdslin::rhs_order::padding_of_order(&reaches, n, &hyp, b).0;
        // B=1 never pads.
        let one = pdslin::rhs_order::padding_of_order(&reaches, n, &nat, 1).0;
        assert_eq!(one, 0, "seed {seed}");
        // The hypergraph ordering is seeded with the postorder layout and
        // only refined downward.
        assert!(
            p_hyp <= p_post + 1,
            "seed {seed}: hypergraph {p_hyp} vs postorder {p_post}"
        );
        // All orderings are permutations.
        for ord in [&nat, &post, &hyp] {
            let mut s = (*ord).clone();
            s.sort_unstable();
            assert_eq!(s, (0..cols.len()).collect::<Vec<_>>(), "seed {seed}");
        }
    }
}

/// The FM refiner `hypergraph::fm::refine` replaced: every pass drains
/// its heap (moves or balance-locks every vertex), then keeps the best
/// prefix. The oracle for the bounded passes. Returns the number of
/// balance-locks, so the caller can check that the inputs produce some.
fn full_pass_hfm(h: &Hypergraph, bis: &mut HBisection, limits: &HFmLimits) -> usize {
    let n = h.nvertices();
    let ncon = h.nconstraints();
    let mut balance_locks = 0usize;
    for _pass in 0..limits.max_passes {
        let mut side = bis.side.clone();
        let mut weights = bis.weights.clone();
        let mut cnt = vec![[0usize; 2]; h.nnets()];
        for net in 0..h.nnets() {
            for &v in h.pins_of(net) {
                cnt[net][side[v] as usize] += 1;
            }
        }
        let mut gains = vec![0i64; n];
        for v in 0..n {
            let s = side[v] as usize;
            for &net in h.nets_of(v) {
                if cnt[net][s] == 1 {
                    gains[v] += h.net_cost(net);
                }
                if cnt[net][1 - s] == 0 {
                    gains[v] -= h.net_cost(net);
                }
            }
        }
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<(i64, usize)> = (0..n).map(|v| (gains[v], v)).collect();
        let mut cur_cut = bis.cut;
        let mut best_cut = bis.cut;
        let mut moves: Vec<usize> = Vec::new();
        let mut best_prefix = 0usize;
        while let Some((gain, v)) = heap.pop() {
            if locked[v] || gain != gains[v] {
                continue;
            }
            let from = side[v] as usize;
            let to = 1 - from;
            locked[v] = true;
            let ok = (0..ncon).all(|c| {
                weights[to][c] + h.vertex_weight(v, c) <= limits.max_side[c]
                    || weights[from][c] > limits.max_side[c]
            });
            if !ok {
                balance_locks += 1;
                continue;
            }
            for &net in h.nets_of(v) {
                let c = h.net_cost(net);
                if cnt[net][to] == 0 {
                    for &u in h.pins_of(net) {
                        if !locked[u] {
                            gains[u] += c;
                            heap.push((gains[u], u));
                        }
                    }
                } else if cnt[net][to] == 1 {
                    for &u in h.pins_of(net) {
                        if !locked[u] && side[u] as usize == to {
                            gains[u] -= c;
                            heap.push((gains[u], u));
                        }
                    }
                }
                cnt[net][from] -= 1;
                cnt[net][to] += 1;
                if cnt[net][from] == 0 {
                    for &u in h.pins_of(net) {
                        if !locked[u] {
                            gains[u] -= c;
                            heap.push((gains[u], u));
                        }
                    }
                } else if cnt[net][from] == 1 {
                    for &u in h.pins_of(net) {
                        if !locked[u] && side[u] as usize == from {
                            gains[u] += c;
                            heap.push((gains[u], u));
                        }
                    }
                }
            }
            side[v] = to as u8;
            for c in 0..ncon {
                let w = h.vertex_weight(v, c);
                weights[from][c] -= w;
                weights[to][c] += w;
            }
            cur_cut -= gain;
            moves.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
            }
        }
        if best_cut >= bis.cut {
            break;
        }
        let mut new_side = bis.side.clone();
        for &v in &moves[..best_prefix] {
            new_side[v] = 1 - new_side[v];
        }
        *bis = HBisection::recompute(h, new_side);
        assert_eq!(bis.cut, best_cut);
    }
    balance_locks
}

/// The graph twin of [`full_pass_hfm`]: what `graphpart::fm::refine`
/// replaced.
fn full_pass_fm(g: &Graph, bis: &mut Bisection, limits: FmLimits) -> usize {
    let n = g.nvertices();
    let mut balance_locks = 0usize;
    for _pass in 0..limits.max_passes {
        let mut side = bis.side.clone();
        let mut weights = bis.weights;
        let mut gains = vec![0i64; n];
        for v in 0..n {
            for (u, w) in g.edges(v) {
                gains[v] += if side[u] == side[v] { -w } else { w };
            }
        }
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<(i64, usize)> = (0..n).map(|v| (gains[v], v)).collect();
        let mut cur_cut = bis.edgecut;
        let mut best_cut = bis.edgecut;
        let mut moves: Vec<usize> = Vec::new();
        let mut best_prefix = 0usize;
        while let Some((gain, v)) = heap.pop() {
            if locked[v] || gain != gains[v] {
                continue;
            }
            let from = side[v] as usize;
            let to = 1 - from;
            let wv = g.vertex_weight(v);
            locked[v] = true;
            if weights[to] + wv > limits.max_side {
                balance_locks += 1;
                continue;
            }
            side[v] = to as u8;
            weights[from] -= wv;
            weights[to] += wv;
            cur_cut -= gain;
            moves.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
            }
            for (u, w) in g.edges(v) {
                if locked[u] {
                    continue;
                }
                gains[u] += if side[u] == side[v] { -2 * w } else { 2 * w };
                heap.push((gains[u], u));
            }
        }
        if best_cut >= bis.edgecut {
            break;
        }
        let mut new_side = bis.side.clone();
        for &v in &moves[..best_prefix] {
            new_side[v] = 1 - new_side[v];
        }
        *bis = Bisection::recompute(g, new_side);
        assert_eq!(bis.edgecut, best_cut);
    }
    balance_locks
}

/// How a random FM instance starts.
#[derive(Clone, Copy, Debug)]
enum Start {
    /// Independent fair coin per vertex.
    Random,
    /// Every vertex on side 0: `cut == 0`, `max_side` violated.
    OneSided,
    /// About four in five vertices on side 0: `max_side` violated.
    Skewed,
    /// Nets / edges stay inside one half of the index range and the
    /// start puts each half on its own side: `cut == 0`, balanced.
    Clustered,
}

const STARTS: [Start; 4] = [
    Start::Random,
    Start::OneSided,
    Start::Skewed,
    Start::Clustered,
];

fn start_side(rng: &mut Rng64, n: usize, start: Start) -> Vec<u8> {
    (0..n)
        .map(|v| match start {
            Start::Random => rng.below(2) as u8,
            Start::OneSided => 0,
            Start::Skewed => (rng.below(5) == 0) as u8,
            Start::Clustered => (v >= n / 2) as u8,
        })
        .collect()
}

/// A random pin / endpoint: under [`Start::Clustered`] from the half of
/// the index range that `anchor` is in, otherwise from all of it.
fn pick(rng: &mut Rng64, n: usize, start: Start, anchor: usize) -> usize {
    match start {
        Start::Clustered if anchor < n / 2 => rng.below(n / 2),
        Start::Clustered => n / 2 + rng.below(n - n / 2),
        _ => rng.below(n),
    }
}

/// Random hypergraph with weighted nets (cost 0 included), empty and
/// 1-pin nets, and `ncon` vertex weights in `1..=4`.
fn random_hypergraph(rng: &mut Rng64, n: usize, ncon: usize, start: Start) -> Hypergraph {
    let nnets = rng.range(1, 3 * n);
    let pins: Vec<Vec<usize>> = (0..nnets)
        .map(|_| {
            let anchor = rng.below(n);
            let mut p: Vec<usize> = (0..rng.below(6))
                .map(|_| pick(rng, n, start, anchor))
                .collect();
            p.sort_unstable();
            p.dedup();
            p
        })
        .collect();
    let ncost = (0..nnets).map(|_| rng.below(5) as i64).collect();
    let vwgt = (0..n * ncon).map(|_| 1 + rng.below(4) as i64).collect();
    Hypergraph::from_pin_lists(n, &pins, vwgt, ncon, ncost)
}

/// Random graph with edge weights in `1..=4` and vertex weights in `1..=3`.
fn random_graph(rng: &mut Rng64, n: usize, start: Start) -> Graph {
    let mut edges: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    for _ in 0..rng.range(1, 3 * n) {
        let u = rng.below(n);
        let v = pick(rng, n, start, u);
        if u != v {
            let w = 1 + rng.below(4) as i64;
            edges.insert((u, v), w);
            edges.insert((v, u), w);
        }
    }
    let mut xadj = vec![0usize; n + 1];
    let mut adj = Vec::new();
    let mut ewgt = Vec::new();
    for (&(u, v), &w) in &edges {
        adj.push(v);
        ewgt.push(w);
        xadj[u + 1] = adj.len();
    }
    for v in 0..n {
        xadj[v + 1] = xadj[v + 1].max(xadj[v]);
    }
    let vwgt = (0..n).map(|_| 1 + rng.below(3) as i64).collect();
    Graph::from_parts(xadj, adj, ewgt, vwgt)
}

/// The bounded FM passes must return what the full passes they replaced
/// return — same `side`, `cut`, `weights` — on hypergraphs with weighted,
/// empty and 1-pin nets, one and two constraints, balance bounds tight
/// enough to lock vertices, and starts with `cut == 0` or a violated
/// `max_side`.
#[test]
fn bounded_hypergraph_fm_matches_full_passes() {
    let mut balance_locks = 0usize;
    let mut improved = 0usize;
    for seed in 0..240u64 {
        let mut rng = Rng64::new(seed);
        let start = STARTS[seed as usize % 4];
        let ncon = 1 + (seed as usize / 4) % 2;
        let n = rng.range(2, 48);
        let h = random_hypergraph(&mut rng, n, ncon, start);
        let eps = [0.0, 0.02, 0.3][rng.below(3)];
        let limits = HFmLimits::from_eps(&h, eps);
        let side = start_side(&mut rng, n, start);
        let mut bounded = HBisection::recompute(&h, side.clone());
        let mut full = HBisection::recompute(&h, side);
        let start_cut = full.cut;
        if matches!(start, Start::OneSided | Start::Clustered) {
            assert_eq!(start_cut, 0, "seed {seed}");
        }
        let gain = hypergraph::fm::refine(&h, &mut bounded, &limits);
        balance_locks += full_pass_hfm(&h, &mut full, &limits);
        improved += (full.cut < start_cut) as usize;
        assert_eq!(bounded.side, full.side, "seed {seed} {start:?}");
        assert_eq!(bounded.cut, full.cut, "seed {seed} {start:?}");
        assert_eq!(bounded.weights, full.weights, "seed {seed} {start:?}");
        assert_eq!(gain, start_cut - bounded.cut, "seed {seed} {start:?}");
    }
    assert!(balance_locks > 100, "only {balance_locks} balance-locks");
    assert!(improved > 40, "only {improved} instances improved");
}

/// The graph twin of [`bounded_hypergraph_fm_matches_full_passes`].
#[test]
fn bounded_graph_fm_matches_full_passes() {
    let mut balance_locks = 0usize;
    let mut improved = 0usize;
    for seed in 0..240u64 {
        let mut rng = Rng64::new(seed);
        let start = STARTS[seed as usize % 4];
        let n = rng.range(2, 48);
        let g = random_graph(&mut rng, n, start);
        let eps = [0.0, 0.02, 0.3][rng.below(3)];
        let limits = FmLimits::from_eps(g.total_vertex_weight(), eps);
        let side = start_side(&mut rng, n, start);
        let mut bounded = Bisection::recompute(&g, side.clone());
        let mut full = Bisection::recompute(&g, side);
        let start_cut = full.edgecut;
        if matches!(start, Start::OneSided | Start::Clustered) {
            assert_eq!(start_cut, 0, "seed {seed}");
        }
        let gain = graphpart::fm::refine(&g, &mut bounded, limits);
        balance_locks += full_pass_fm(&g, &mut full, limits);
        improved += (full.edgecut < start_cut) as usize;
        assert_eq!(bounded.side, full.side, "seed {seed} {start:?}");
        assert_eq!(bounded.edgecut, full.edgecut, "seed {seed} {start:?}");
        assert_eq!(bounded.weights, full.weights, "seed {seed} {start:?}");
        assert_eq!(gain, start_cut - bounded.edgecut, "seed {seed} {start:?}");
    }
    assert!(balance_locks > 100, "only {balance_locks} balance-locks");
    assert!(improved > 40, "only {improved} instances improved");
}

/// On tiny instances (n ≤ 12) `refine` never returns a cut above its
/// start, and the `cut` / `weights` it leaves equal a fresh `recompute`.
#[test]
fn refine_never_worsens_and_keeps_its_books() {
    for seed in 0..400u64 {
        let mut rng = Rng64::new(seed);
        let start = STARTS[seed as usize % 4];
        let n = rng.range(2, 13);
        let eps = [0.0, 0.1, 0.5][rng.below(3)];

        let ncon = 1 + rng.below(2);
        let h = random_hypergraph(&mut rng, n, ncon, start);
        let mut hb = HBisection::recompute(&h, start_side(&mut rng, n, start));
        let before = hb.cut;
        hypergraph::fm::refine(&h, &mut hb, &HFmLimits::from_eps(&h, eps));
        assert!(hb.cut <= before, "seed {seed}");
        let fresh = HBisection::recompute(&h, hb.side.clone());
        assert_eq!(
            (fresh.cut, fresh.weights),
            (hb.cut, hb.weights),
            "seed {seed}"
        );

        let g = random_graph(&mut rng, n, start);
        let mut gb = Bisection::recompute(&g, start_side(&mut rng, n, start));
        let before = gb.edgecut;
        let limits = FmLimits::from_eps(g.total_vertex_weight(), eps);
        graphpart::fm::refine(&g, &mut gb, limits);
        assert!(gb.edgecut <= before, "seed {seed}");
        let fresh = Bisection::recompute(&g, gb.side.clone());
        assert_eq!(
            (fresh.edgecut, fresh.weights),
            (gb.edgecut, gb.weights),
            "seed {seed}"
        );
    }
}

/// `part_of` of the four benchmark matrices (k = 8), folded with FNV-1a;
/// the values were taken on the commit before the FM passes were bounded.
/// Partition identity is what makes every downstream count and solution
/// of the benchmark identical, so it is pinned here and not only observed
/// there.
#[test]
fn benchmark_partitions_are_pinned() {
    use pdslin::{compute_partition, PartitionerKind};
    let rhb = PartitionerKind::Rhb(Default::default());
    let ngd = PartitionerKind::Ngd;
    let cases: [(&str, Csr, &PartitionerKind, u64); 4] = [
        (
            "fusion_like(32,32,7,211) RHB",
            matgen::fusion::fusion_like(32, 32, 7, 211),
            &rhb,
            0xbe85_24ba_dd37_5d17,
        ),
        (
            "cavity3d_graded(18,18,18,4.0,0.34) NGD",
            matgen::stencil::cavity3d_graded(18, 18, 18, 4.0, 0.34),
            &ngd,
            0x46bd_9ca8_79ea_4e88,
        ),
        (
            "g3_like(180,180) NGD",
            matgen::circuit::g3_like(180, 180),
            &ngd,
            0x73c1_3cd3_2e48_ed9b,
        ),
        (
            "g3_like(60,60) NGD",
            matgen::circuit::g3_like(60, 60),
            &ngd,
            0xe30f_7488_ce03_bb8c,
        ),
    ];
    for (name, a, kind, want) in &cases {
        let part = compute_partition(a, 8, kind);
        let mut h = Fnv64::new();
        for &p in &part.part_of {
            h.write_u64(p as u64);
        }
        assert_eq!(h.finish(), *want, "{name}: {:#018x}", h.finish());
    }
}

/// `(separator size, nnz(S̃), Σ T̃ multiply-adds, Σ nnz(T̃))` of
/// `Pdslin::setup` on the three library workloads of the repository
/// benchmark, with the Schur apply's `(kept, total)` `LU(D_ℓ)`
/// dependency entries and the summed forward and backward level counts
/// of every factor (the benchmark's `trisolve.levels`). The generator
/// calls and settings are copied, not imported, from
/// `benchmark/src/workloads.rs`. A change that moves the separator, the
/// dropped Schur complement, the work of the local updates
/// `T̃_ℓ = W̃_ℓ G̃_ℓ` or the work of a sweep fails here, where the drift
/// is measured, and not in a pin that only reads the old figures.
#[test]
fn benchmark_schur_complements_are_pinned() {
    use pdslin::{PartitionerKind, Pdslin, PdslinConfig};
    let base = PdslinConfig::default();
    // (separator size, nnz(S̃), Σ T̃ multiply-adds, Σ nnz(T̃),
    //  Schur apply (kept, total) dependency entries, Σ levels)
    type Pins = (usize, usize, u64, usize, (usize, usize), usize);
    let cases: [(&str, Csr, PdslinConfig, Pins); 3] = [
        (
            "cavity_schur",
            matgen::stencil::cavity3d_graded(18, 18, 18, 4.0, 0.34),
            base,
            (
                1127,
                594_913,
                141_076_393,
                739_937,
                (635_869, 660_594),
                6_456,
            ),
        ),
        (
            "fusion_rhb",
            matgen::fusion::fusion_like(32, 32, 7, 211),
            PdslinConfig {
                partitioner: PartitionerKind::Rhb(RhbConfig::default()),
                ..base
            },
            (
                1526,
                206_592,
                22_730_040,
                507_274,
                (548_751, 578_585),
                8_711,
            ),
        ),
        (
            "circuit_krylov",
            matgen::circuit::g3_like(180, 180),
            PdslinConfig {
                interface_drop_tol: 1e-2,
                schur_drop_tol: 1e-2,
                ..base
            },
            (701, 8_517, 222_281, 35_352, (595_521, 897_060), 5_396),
        ),
    ];
    for (name, a, cfg, want) in cases {
        let solver = Pdslin::setup(&a, cfg).expect("setup");
        let stats = &solver.stats;
        let madds = stats.interface.iter().map(|s| s.product_madds).sum();
        let nnz_t = stats.nnz_t.iter().sum();
        let levels = |lu: &slu::LuFactors| {
            let plan = lu.solve_plan();
            plan.forward_levels().0 + plan.backward_levels().0
        };
        let factors = solver.factors.iter().map(|f| &f.lu);
        let levels = factors.chain([&solver.schur_lu]).map(levels).sum();
        let got = (
            stats.separator_size,
            stats.nnz_schur,
            madds,
            nnz_t,
            solver.schur_apply_dep_entries(),
            levels,
        );
        assert_eq!(got, want, "{name}");
    }
}
