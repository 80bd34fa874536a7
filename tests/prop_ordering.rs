//! Oracle property tests for the orderings: the three RHS ordering
//! strategies (natural, postorder, hypergraph) and the
//! approximate-minimum-degree fill-reducing ordering, on randomized
//! inputs with deterministic SplitMix64 seeds.
//!
//! Every RHS ordering must (a) be a valid permutation, (b) report padding
//! that matches an independent brute-force `HashSet` oracle, and
//! (c) leave the blocked-solve *results* bit-identical — reordering is
//! a layout optimisation, never a numerical one.
//!
//! The minimum-degree ordering must be a permutation on degenerate and
//! random graphs, find zero fill on chordal graphs, stay within 1.3× of
//! an exact minimum-degree oracle's fill, not regress the Table-I fill,
//! and stay pinned on the benchmark matrices.

use std::collections::HashSet;

use graphpart::{min_degree_order, Adjacency, Graph};
use pdslin::interface::{compute_interface, InterfaceConfig};
use pdslin::rhs_order::{column_reaches, order_columns_precomputed, padding_of_order};
use pdslin::schur::assemble_schur;
use pdslin::subdomain::{factor_domain, ordering_and_etree, subdomain_ordering};
use pdslin::RhsOrdering;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind, PdslinConfig};
use slu::blocked::solve_in_blocks_ordered;
use slu::etree::{etree, postorder};
use slu::trisolve::SolveWorkspace;
use slu::SparseVec;
use sparsekit::budget::Budget;
use sparsekit::{Coo, Csc, Csr, Fnv64, Perm, Rng64};

fn all_orderings() -> [RhsOrdering; 3] {
    [
        RhsOrdering::Natural,
        RhsOrdering::Postorder,
        RhsOrdering::Hypergraph { tau: Some(0.4) },
    ]
}

/// Lower-triangular chain factor with stride `skip`: column `j` has a
/// single subdiagonal entry at row `j + skip`. Every solution entry
/// receives at most one update and all values are powers of two, so the
/// numeric solve is *exactly* order independent — any bitwise
/// difference between orderings is a real bug, not rounding.
fn chain_factor(n: usize, skip: usize) -> Csc {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 1.0);
        if i + skip < n {
            c.push(i + skip, i, -0.5);
        }
    }
    c.to_csr().to_csc()
}

/// Random sparse RHS columns with power-of-two values.
fn random_cols(rng: &mut Rng64, n: usize, ncols: usize) -> Vec<SparseVec> {
    (0..ncols)
        .map(|_| {
            let len = rng.range(1, 5);
            let mut idx: Vec<usize> = (0..len).map(|_| rng.below(n)).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals: Vec<f64> = idx
                .iter()
                .map(|_| [0.5, 1.0, 2.0, 4.0][rng.below(4)])
                .collect();
            SparseVec::new(idx, vals)
        })
        .collect()
}

/// Brute-force padding oracle: per block, the union pattern via a
/// `HashSet`, padding = `|union| · |block| − Σ |reach|`.
fn oracle_padding(reaches: &[Vec<usize>], order: &[usize], block_size: usize) -> (u64, u64) {
    let mut padded = 0u64;
    let mut true_nnz = 0u64;
    for chunk in order.chunks(block_size) {
        let mut union: HashSet<usize> = HashSet::new();
        let mut chunk_true = 0u64;
        for &j in chunk {
            chunk_true += reaches[j].len() as u64;
            union.extend(reaches[j].iter().copied());
        }
        padded += union.len() as u64 * chunk.len() as u64 - chunk_true;
        true_nnz += chunk_true;
    }
    (padded, true_nnz)
}

fn is_permutation(order: &[usize], m: usize) -> bool {
    let mut seen = vec![false; m];
    order.len() == m
        && order
            .iter()
            .all(|&j| j < m && !std::mem::replace(&mut seen[j], true))
}

#[test]
fn padding_matches_bruteforce_oracle() {
    for seed in 0..16u64 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(24, 48);
        let skip = rng.range(1, 4);
        let l = chain_factor(n, skip);
        let ncols = rng.range(8, 24);
        let cols = random_cols(&mut rng, n, ncols);
        let mut ws = SolveWorkspace::new(n);
        let reaches = column_reaches(&cols, &l, &mut ws);
        for &b in &[2usize, 3, 5, 8] {
            for ord in all_orderings() {
                let order = order_columns_precomputed(&cols, &reaches, n, b, ord);
                assert!(
                    is_permutation(&order, cols.len()),
                    "seed {seed} B={b} {}: not a permutation: {order:?}",
                    ord.label()
                );
                let fast = padding_of_order(&reaches, n, &order, b);
                let slow = oracle_padding(&reaches, &order, b);
                assert_eq!(
                    fast,
                    slow,
                    "seed {seed} B={b} {}: bitset padding disagrees with oracle",
                    ord.label()
                );
            }
        }
    }
}

#[test]
fn blocked_solve_identical_across_orderings() {
    for seed in 0..16u64 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(24, 48);
        let skip = rng.range(1, 4);
        let l = chain_factor(n, skip);
        let ncols = rng.range(8, 24);
        let cols = random_cols(&mut rng, n, ncols);
        let mut ws = SolveWorkspace::new(n);
        let reaches = column_reaches(&cols, &l, &mut ws);
        let b = rng.range(2, 6);
        // Reference: natural order, densified per original column.
        let mut reference: Option<Vec<Vec<f64>>> = None;
        for ord in all_orderings() {
            let order = order_columns_precomputed(&cols, &reaches, n, b, ord);
            let (sols, _) =
                solve_in_blocks_ordered(&l, false, &cols, &order, b, 1, &Budget::unlimited())
                    .expect("unlimited budget never interrupts");
            // Position p of the output solves `cols[order[p]]`: un-permute
            // into original column index, then densify.
            let mut dense = vec![vec![0.0f64; n]; cols.len()];
            for (p, sol) in sols.iter().enumerate() {
                let j = order[p];
                for (&i, &v) in sol.indices.iter().zip(&sol.values) {
                    dense[j][i] = v;
                }
            }
            match &reference {
                None => reference = Some(dense),
                Some(r) => {
                    for (j, (got, want)) in dense.iter().zip(r).enumerate() {
                        assert!(
                            got.iter()
                                .zip(want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "seed {seed} {}: column {j} differs from natural order",
                            ord.label()
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Approximate minimum degree (`graphpart::min_degree_order`).
// ---------------------------------------------------------------------

/// Graph of an undirected edge list; loops and repeated edges are kept
/// in the matrix and dropped by `Adjacency::from_matrix`.
fn graph_of(n: usize, edges: &[(usize, usize)]) -> Adjacency {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 1.0);
    }
    for &(u, v) in edges {
        c.push_sym(u, v, 1.0);
    }
    Adjacency::from_matrix(&c.to_csr())
}

fn random_edges(rng: &mut Rng64, n: usize, m: usize) -> Vec<(usize, usize)> {
    (0..m)
        .map(|_| (rng.below(n), rng.below(n)))
        .filter(|&(u, v)| u != v)
        .collect()
}

fn random_tree(rng: &mut Rng64, n: usize) -> Vec<(usize, usize)> {
    (1..n).map(|i| (rng.below(i), i)).collect()
}

fn assert_permutation(p: &Perm, n: usize, what: &str) {
    assert_eq!(p.len(), n, "{what}");
    let order: Vec<usize> = (0..n).map(|i| p.to_old(i)).collect();
    assert!(is_permutation(&order, n), "{what}: {order:?}");
}

/// Dense adjacency of `g`, loops excluded.
fn dense_adjacency(g: &Adjacency) -> Vec<Vec<bool>> {
    let n = g.nvertices();
    let mut adj = vec![vec![false; n]; n];
    for v in 0..n {
        for &u in g.neighbors(v) {
            if u != v {
                adj[v][u] = true;
            }
        }
    }
    adj
}

/// Fill edges created by eliminating `g` in the order `to_old`.
fn fill_of(g: &Adjacency, to_old: &[usize]) -> usize {
    let n = g.nvertices();
    let mut adj = dense_adjacency(g);
    let mut gone = vec![false; n];
    let mut fill = 0;
    for &p in to_old {
        gone[p] = true;
        let nb: Vec<usize> = (0..n).filter(|&u| !gone[u] && adj[p][u]).collect();
        for (a, &u) in nb.iter().enumerate() {
            for &w in &nb[a + 1..] {
                if !adj[u][w] {
                    adj[u][w] = true;
                    adj[w][u] = true;
                    fill += 1;
                }
            }
        }
    }
    fill
}

/// Exact minimum degree by dense symbolic elimination: always eliminate
/// a vertex of least true degree in the current filled graph (lowest
/// index on ties). Returns the elimination order.
fn exact_min_degree(g: &Adjacency) -> Vec<usize> {
    let n = g.nvertices();
    let mut adj = dense_adjacency(g);
    let mut gone = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let degree = |v: usize| (0..n).filter(|&u| !gone[u] && adj[v][u]).count();
        let p = (0..n)
            .filter(|&v| !gone[v])
            .min_by_key(|&v| (degree(v), v))
            .unwrap();
        gone[p] = true;
        order.push(p);
        let nb: Vec<usize> = (0..n).filter(|&u| !gone[u] && adj[p][u]).collect();
        for &u in &nb {
            for &w in &nb {
                if u != w {
                    adj[u][w] = true;
                }
            }
        }
    }
    order
}

fn amd_order(g: &Adjacency) -> Vec<usize> {
    let p = min_degree_order(g);
    (0..p.len()).map(|i| p.to_old(i)).collect()
}

fn grid_edges(dims: &[usize]) -> (usize, Vec<(usize, usize)>) {
    let n: usize = dims.iter().product();
    let mut edges = Vec::new();
    for v in 0..n {
        let mut stride = 1;
        for &d in dims {
            if (v / stride) % d + 1 < d {
                edges.push((v, v + stride));
            }
            stride *= d;
        }
    }
    (n, edges)
}

#[test]
fn min_degree_returns_a_permutation_on_degenerate_and_random_graphs() {
    let empty = Graph::from_parts(vec![0], vec![], vec![], vec![]);
    assert_permutation(&min_degree_order(empty.adjacency()), 0, "empty");
    assert_permutation(&min_degree_order(&graph_of(1, &[])), 1, "single vertex");
    assert_permutation(&min_degree_order(&graph_of(7, &[])), 7, "isolated");
    let pieces = [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (7, 8), (8, 9)];
    assert_permutation(&min_degree_order(&graph_of(11, &pieces)), 11, "pieces");
    // Repeated adjacency entries straight into the graph arrays.
    let dup = Graph::from_parts(
        vec![0, 3, 6, 8],
        vec![1, 1, 2, 0, 0, 2, 0, 1],
        vec![1; 8],
        vec![1; 3],
    );
    assert_permutation(&min_degree_order(dup.adjacency()), 3, "duplicates");
    let loops = graph_of(5, &[(0, 1), (0, 1), (1, 2), (3, 4), (4, 3)]);
    assert_permutation(&min_degree_order(&loops), 5, "loops and repeats");
    let complete: Vec<(usize, usize)> = (0..12)
        .flat_map(|u| (u + 1..12).map(move |v| (u, v)))
        .collect();
    assert_permutation(&min_degree_order(&graph_of(12, &complete)), 12, "complete");
    let star: Vec<(usize, usize)> = (1..20).map(|i| (0, i)).collect();
    assert_permutation(&min_degree_order(&graph_of(20, &star)), 20, "star");
    // Arrow: one dense row over a tridiagonal band.
    let mut arrow: Vec<(usize, usize)> = (1..40).map(|i| (0, i)).collect();
    arrow.extend((1..39).map(|i| (i, i + 1)));
    let g = graph_of(40, &arrow);
    assert_permutation(&min_degree_order(&g), 40, "arrow");
    for seed in 0..40u64 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(2, 200);
        let m = rng.range(0, 4 * n);
        let g = graph_of(n, &random_edges(&mut rng, n, m));
        assert_permutation(&min_degree_order(&g), n, &format!("random seed {seed}"));
    }
}

#[test]
fn min_degree_finds_zero_fill_on_trees_paths_and_stars() {
    for seed in 0..30u64 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(2, 80);
        let tree = graph_of(n, &random_tree(&mut rng, n));
        assert_eq!(fill_of(&tree, &amd_order(&tree)), 0, "tree seed {seed}");
        let mut ids: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ids);
        let path: Vec<(usize, usize)> = ids.windows(2).map(|w| (w[0], w[1])).collect();
        let path = graph_of(n, &path);
        assert_eq!(fill_of(&path, &amd_order(&path)), 0, "path seed {seed}");
        let star: Vec<(usize, usize)> = ids[1..].iter().map(|&v| (ids[0], v)).collect();
        let star = graph_of(n, &star);
        assert_eq!(fill_of(&star, &amd_order(&star)), 0, "star seed {seed}");
    }
}

#[test]
fn min_degree_fill_is_within_1_3x_of_exact_minimum_degree() {
    let mut cases: Vec<(String, Adjacency)> = Vec::new();
    for dims in [
        vec![5, 5],
        vec![6, 7],
        vec![7, 8],
        vec![3, 20],
        vec![3, 3, 3],
        vec![3, 4, 5],
        vec![4, 4, 3],
    ] {
        let (n, edges) = grid_edges(&dims);
        cases.push((format!("grid {dims:?}"), graph_of(n, &edges)));
    }
    for seed in 0..20u64 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(20, 61);
        let m = rng.range(n, 3 * n);
        cases.push((
            format!("random seed {seed}"),
            graph_of(n, &random_edges(&mut rng, n, m)),
        ));
    }
    for (what, g) in &cases {
        let exact = fill_of(g, &exact_min_degree(g));
        let amd = fill_of(g, &amd_order(g));
        assert!(
            10 * amd <= 13 * exact,
            "{what}: AMD fill {amd} vs exact minimum degree {exact}"
        );
    }
}

/// `Σ fill(LU(D_ℓ))` at `Scale::Test`, NGD `k = 8`, pivot threshold 0.1,
/// under the minimum-degree loop this ordering replaced. The ordering
/// must not give any of it back.
#[test]
fn table_one_subdomain_fill_does_not_regress() {
    use matgen::{generate, MatrixKind, Scale};
    let before: [(MatrixKind, usize); 7] = [
        (MatrixKind::Tdr190k, 203_286),
        (MatrixKind::Tdr455k, 817_290),
        (MatrixKind::DdsQuad, 78_884),
        (MatrixKind::DdsLinear, 274_677),
        (MatrixKind::Matrix211, 89_376),
        (MatrixKind::Asic680ks, 22_942),
        (MatrixKind::G3Circuit, 104_842),
    ];
    for (kind, parent) in before {
        let a = generate(kind, Scale::Test);
        let sys = extract_dbbd(&a, compute_partition(&a, 8, &PartitionerKind::Ngd));
        let fill: usize = sys
            .domains
            .iter()
            .map(|d| factor_domain(&d.d, 0.1).expect("LU(D)").lu.fill())
            .sum();
        assert!(fill <= parent, "{kind:?}: fill {fill} > {parent}");
    }
}

/// `subdomain_ordering` of every `D_ℓ` and of `S̃` for the four benchmark
/// matrices under their benchmark configurations, folded with FNV-1a.
/// Any drift in the ordering changes every downstream count of the
/// benchmark, so it is pinned here and not only observed there.
#[test]
fn benchmark_orderings_are_pinned() {
    let hash_of = |h: &mut Fnv64, p: &Perm| {
        h.write_u64(p.len() as u64);
        for i in 0..p.len() {
            h.write_u64(p.to_old(i) as u64);
        }
    };
    let tight = PdslinConfig::default();
    let rhb = PdslinConfig {
        partitioner: PartitionerKind::Rhb(hypergraph::RhbConfig::default()),
        ..PdslinConfig::default()
    };
    let loose = PdslinConfig {
        interface_drop_tol: 1e-2,
        schur_drop_tol: 1e-2,
        ..PdslinConfig::default()
    };
    let cases: [(&str, Csr, PdslinConfig, u64, u64); 4] = [
        (
            "cavity3d_graded(18,18,18,4.0,0.34)",
            matgen::stencil::cavity3d_graded(18, 18, 18, 4.0, 0.34),
            tight,
            0xf4f7_3d3f_9593_c1ef,
            0x18e7_a086_38a5_c3e5,
        ),
        (
            "fusion_like(32,32,7,211) RHB",
            matgen::fusion::fusion_like(32, 32, 7, 211),
            rhb,
            0x08fc_7c3a_218b_b275,
            0xedc4_1b97_febb_5df9,
        ),
        (
            "g3_like(180,180) loose drops",
            matgen::circuit::g3_like(180, 180),
            loose,
            0x7ea2_265a_63fb_21b8,
            0xe7c6_40d2_a4c7_06a0,
        ),
        (
            "g3_like(60,60)",
            matgen::circuit::g3_like(60, 60),
            tight,
            0x3b86_5907_d022_8c0b,
            0x5b19_8ea2_97e7_e565,
        ),
    ];
    let mut got = Vec::new();
    for (name, a, cfg, want_d, want_s) in &cases {
        let sys = extract_dbbd(a, compute_partition(a, cfg.k, &cfg.partitioner));
        let icfg = InterfaceConfig {
            block_size: cfg.block_size,
            ordering: cfg.rhs_ordering,
            drop_tol: cfg.interface_drop_tol,
        };
        let mut hd = Fnv64::new();
        let mut t_tildes = Vec::new();
        for dom in &sys.domains {
            hash_of(&mut hd, &subdomain_ordering(&dom.d));
            let fd = factor_domain(&dom.d, cfg.pivot_threshold).expect("LU(D)");
            t_tildes.push(compute_interface(&fd, dom, &icfg).t_tilde);
        }
        let s_tilde = assemble_schur(&sys, &t_tildes)
            .drop_small(cfg.schur_drop_tol, true)
            .0;
        let mut hs = Fnv64::new();
        hash_of(&mut hs, &subdomain_ordering(&s_tilde));
        got.push((name, hd.finish(), *want_d, hs.finish(), *want_s));
    }
    for (name, got_d, want_d, got_s, want_s) in got {
        assert_eq!(got_d, want_d, "{name}: D_ℓ orderings {got_d:#018x}");
        assert_eq!(got_s, want_s, "{name}: S̃ ordering {got_s:#018x}");
    }
}

// ---------------------------------------------------------------------
// The pattern-only ordering against the valued composition it replaced.
// ---------------------------------------------------------------------

/// `subdomain_ordering` and its elimination tree as they were computed
/// from values: symmetrise `D` (a clone when the pattern already is),
/// build the graph from the rows of the result minus the diagonal, run
/// AMD, take the tree of the permuted matrix, postorder it. The final
/// tree is taken straight from the matrix permuted by the final order.
fn valued_ordering_and_etree(d: &Csr) -> (Perm, Vec<usize>) {
    let sym = if d.pattern_symmetric() {
        d.clone()
    } else {
        d.symmetrize_abs()
    };
    let n = sym.nrows();
    let mut xadj = vec![0];
    let mut adj = Vec::new();
    for v in 0..n {
        adj.extend(sym.row_indices(v).iter().filter(|&&u| u != v));
        xadj.push(adj.len());
    }
    let edges = adj.len();
    let g = Graph::from_parts(xadj, adj, vec![1; edges], vec![1; n]);
    let md = min_degree_order(g.adjacency());
    let po = postorder(&etree(&sym.permute(&md, &md)));
    let order = po.compose(&md);
    let parent = etree(&sym.permute(&order, &order));
    (order, parent)
}

fn assert_same_ordering(what: &str, d: &Csr) {
    let (order, parent) = ordering_and_etree(d);
    let (want_order, want_parent) = valued_ordering_and_etree(d);
    assert_eq!(order, want_order, "{what}: ordering");
    assert_eq!(parent, want_parent, "{what}: elimination tree");
    assert_eq!(subdomain_ordering(d), order, "{what}: subdomain_ordering");
}

/// A random unsymmetric pattern: about `density · n²` entries, a
/// quarter of the rows empty (no diagonal either), and a third of the
/// stored values exact zeros.
fn random_pattern(rng: &mut Rng64, n: usize, density: f64) -> Csr {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        if rng.below(4) == 0 {
            continue;
        }
        for j in 0..n {
            if rng.f64() < density {
                let v = if rng.below(3) == 0 {
                    0.0
                } else {
                    rng.f64_range(-1.0, 1.0)
                };
                c.push(i, j, v);
            }
        }
    }
    c.to_csr()
}

#[test]
fn pattern_only_ordering_matches_the_valued_composition() {
    use matgen::{generate, MatrixKind, Scale};
    for kind in MatrixKind::ALL {
        let a = generate(kind, Scale::Test);
        let sys = extract_dbbd(&a, compute_partition(&a, 8, &PartitionerKind::Ngd));
        for (l, dom) in sys.domains.iter().enumerate() {
            assert_same_ordering(&format!("{kind:?} D_{l}"), &dom.d);
        }
    }
    let small: [(&str, Csr); 4] = [
        ("fusion_like", matgen::fusion::fusion_like(8, 8, 7, 211)),
        ("asic_like", matgen::circuit::asic_like(400, 680)),
        ("g3_like", matgen::circuit::g3_like(20, 20)),
        (
            "cavity3d_graded",
            matgen::stencil::cavity3d_graded(7, 7, 7, 4.0, 0.34),
        ),
    ];
    for (what, a) in &small {
        assert_same_ordering(what, a);
    }
    for seed in 0..30u64 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(1, 120);
        let density = [0.01, 0.03, 0.08, 0.2][rng.below(4)];
        let a = random_pattern(&mut rng, n, density);
        assert_same_ordering(&format!("random seed {seed} ({n}, {density})"), &a);
    }
    // Dense enough that AMD's supervariables and absorption do most of
    // the work, as on a Schur complement that goes dense at step 0.
    let mut rng = Rng64::new(40);
    let dense = random_pattern(&mut rng, 150, 0.45);
    assert!(dense.nnz() as f64 >= 0.3 * 150.0 * 150.0);
    assert!(!dense.pattern_symmetric());
    assert_same_ordering("45 % dense unsymmetric", &dense);
}
