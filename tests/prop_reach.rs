//! Property tests of `slu::reach::ReachGraph` (docs/kernels.md, "Pruned
//! reach graph") against the DFS over the factor's own columns,
//! `slu::trisolve::compute_reach`: reaches must agree **as ordered
//! vectors** — same nodes, same topological order — for single seeds,
//! arbitrary seed sets and block unions, on the factors of the matgen
//! zoo and on random lower-triangular patterns that are not
//! elimination-tree-closed. A `BlockedSolvePlan` built on either graph
//! must be equal field by field.

use matgen::circuit::{asic_like, g3_like};
use matgen::fusion::fusion_like;
use matgen::stencil::{cavity3d, cavity3d_graded, laplace2d, offsets_27pt, stencil3d};
use pdslin::subdomain::subdomain_ordering;
use slu::blocked::BlockedSolvePlan;
use slu::trisolve::{compute_reach, lower_from_upper_transpose, SolveWorkspace, SparseVec};
use slu::{LuConfig, LuFactors, ReachGraph};
use sparsekit::{Coo, Csc, Csr, Rng64};

/// One instance of every `matgen` family, large enough that the factors
/// have both a sparse leading part and the dense trailing block.
fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("laplace2d", laplace2d(30, 30)),
        ("cavity3d", cavity3d(8, 8, 8, 2.0, true)),
        ("cavity3d_graded", cavity3d_graded(9, 9, 9, 4.0, 0.34)),
        (
            "stencil3d_27pt",
            stencil3d(8, 8, 8, &offsets_27pt(-1.0), 30.0),
        ),
        ("fusion_like", fusion_like(8, 8, 7, 211)),
        ("asic_like", asic_like(1200, 680)),
        ("g3_like", g3_like(35, 35)),
    ]
}

/// Lower-triangular CSC with the given strictly-below entries.
fn lower_from_entries(n: usize, below: &[(usize, usize)], store_diagonal: bool) -> Csc {
    let mut c = Coo::new(n, n);
    if store_diagonal {
        for j in 0..n {
            c.push(j, j, 1.0);
        }
    }
    for &(i, j) in below {
        assert!(i > j && i < n);
        c.push(i, j, 1.0);
    }
    c.to_csr().to_csc()
}

/// A random lower-triangular pattern that is *not* tree-closed: entries
/// are independent, so a column's rows are rarely covered by its first
/// row's column. Planted on top (when `n` allows): column 0 = {1, n−1}
/// with column 1 = {2} (a row that skips the parent's pattern), an
/// empty column in the middle, and a fully dense trailing block of
/// `tail` columns (the shape PR 14's dense kernel leaves behind).
fn random_lower(rng: &mut Rng64, n: usize, density: f64, tail: usize) -> Csc {
    let mut below: Vec<(usize, usize)> = Vec::new();
    let empty_col = n / 2;
    let tail_start = n.saturating_sub(tail);
    for j in 0..n {
        if j == empty_col && j < tail_start {
            continue;
        }
        for i in j + 1..n {
            let planted = match j {
                0 if n >= 4 => Some(i == 1 || i == n - 1),
                1 if n >= 4 => Some(i == 2),
                _ => None,
            };
            let keep = planted.unwrap_or_else(|| j >= tail_start || rng.f64() < density);
            if keep {
                below.push((i, j));
            }
        }
    }
    lower_from_entries(n, &below, rng.below(2) == 0)
}

fn full_reach(l: &Csc, seeds: &[usize], ws: &mut SolveWorkspace) -> Vec<usize> {
    compute_reach(l, seeds, ws);
    ws.topo().to_vec()
}

fn pruned_reach(g: &ReachGraph, seeds: &[usize], ws: &mut SolveWorkspace) -> Vec<usize> {
    g.reach(seeds, ws);
    ws.topo().to_vec()
}

fn random_seeds(rng: &mut Rng64, n: usize, max_len: usize) -> Vec<usize> {
    let len = rng.range(1, max_len + 1);
    (0..len).map(|_| rng.below(n)).collect()
}

/// The properties every lower-triangular pattern must satisfy. Returns
/// `(kept, full)` edge counts.
fn check_factor(name: &str, l: &Csc, rng: &mut Rng64, single_seeds: usize) -> (usize, usize) {
    let n = l.ncols();
    let g = ReachGraph::build(l);
    assert_eq!(g.n(), n, "{name}");
    let full: usize = (0..n)
        .map(|j| l.col_indices(j).iter().filter(|&&r| r > j).count())
        .sum();
    assert_eq!(g.full_edges(), full, "{name}: full edge count");
    assert!(
        g.edges() <= full,
        "{name}: kept {} > full {full}",
        g.edges()
    );
    if n == 0 {
        return (0, 0);
    }
    // Separate workspaces: stale marks of one graph must not help the other.
    let mut wa = SolveWorkspace::new(n);
    let mut wb = SolveWorkspace::new(n);

    // Single seeds (all of them on small patterns, a sample otherwise).
    for t in 0..single_seeds.min(n) {
        let seed = if single_seeds >= n { t } else { rng.below(n) };
        assert_eq!(
            pruned_reach(&g, &[seed], &mut wb),
            full_reach(l, &[seed], &mut wa),
            "{name}: single seed {seed}"
        );
    }
    // Arbitrary seed sets: unsorted, duplicates allowed.
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for _ in 0..24 {
        let seeds = random_seeds(rng, n, 9);
        assert_eq!(
            pruned_reach(&g, &seeds, &mut wb),
            full_reach(l, &seeds, &mut wa),
            "{name}: seed set {seeds:?}"
        );
        sets.push(seeds);
    }
    // Block unions, as the blocked solver forms them: sorted, deduplicated.
    for block in sets.chunks(5) {
        let mut union: Vec<usize> = block.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(
            pruned_reach(&g, &union, &mut wb),
            full_reach(l, &union, &mut wa),
            "{name}: block union"
        );
    }
    // The plan the interface phase stores: same blocks, same union
    // patterns, same true-nonzero counts, on either graph.
    let cols: Vec<SparseVec> = sets
        .into_iter()
        .map(|mut idx| {
            idx.sort_unstable();
            idx.dedup();
            let vals = vec![1.0; idx.len()];
            SparseVec::new(idx, vals)
        })
        .collect();
    let mut order: Vec<usize> = (0..cols.len()).collect();
    rng.shuffle(&mut order);
    for b in [1usize, 7, 60] {
        assert_eq!(
            BlockedSolvePlan::build(l, &cols, &order, b),
            BlockedSolvePlan::build_on(l, n, &cols, &order, b),
            "{name}: plan, B = {b}"
        );
    }
    (g.edges(), full)
}

#[test]
fn zoo_factors_reach_identically_on_the_pruned_graph() {
    let mut rng = Rng64::new(0x5eac4);
    for (name, a) in zoo() {
        let lu = LuFactors::factorize(&a, &subdomain_ordering(&a), &LuConfig::default())
            .expect("zoo matrix factorizes");
        let ut = lower_from_upper_transpose(&lu.u);
        for (which, t) in [("L", &lu.l), ("Ut", &ut)] {
            let (kept, full) = check_factor(&format!("{name} {which}"), t, &mut rng, 64);
            // These factors are all but elimination-tree-closed: about
            // one edge per column must survive, or the pruning is void.
            assert!(
                kept < 2 * t.ncols(),
                "{name} {which}: kept {kept} of {full} edges, n = {}",
                t.ncols()
            );
        }
    }
}

#[test]
fn random_patterns_that_are_not_tree_closed() {
    let mut kept_extra = 0usize;
    let mut kept_all = 0usize;
    for seed in 0..160u64 {
        let mut rng = Rng64::new(0x9e37 + seed);
        let n = rng.range(1, 61);
        let density = [0.02, 0.08, 0.2, 0.5, 1.0][rng.below(5)];
        let tail = [0, 0, 1, 5, n][rng.below(5)].min(n);
        let l = random_lower(&mut rng, n, density, tail);
        let name = format!("seed {seed} (n {n}, density {density}, tail {tail})");
        let (kept, full) = check_factor(&name, &l, &mut rng, n);
        let parented = (0..n)
            .filter(|&j| l.col_indices(j).iter().any(|&r| r > j))
            .count();
        assert!(kept >= parented, "{name}: every parent edge is kept");
        kept_extra += usize::from(kept > parented);
        kept_all += usize::from(kept == full && full > parented);
    }
    // The generator must reach both regimes the rule distinguishes.
    assert!(
        kept_extra > 40,
        "only {kept_extra} patterns kept a non-parent edge"
    );
    assert!(kept_all > 0, "no pattern degenerated to the full graph");
}

/// Symbolic Cholesky of a random symmetric pattern: every column's
/// pattern, minus its first row, is merged into that row's column.
fn cholesky_pattern(rng: &mut Rng64, n: usize, density: f64) -> Vec<Vec<usize>> {
    let mut cols: Vec<Vec<usize>> = (0..n)
        .map(|j| (j + 1..n).filter(|_| rng.f64() < density).collect())
        .collect();
    for j in 0..n {
        if let Some((&p, rest)) = cols[j].clone().split_first() {
            cols[p].extend_from_slice(rest);
            cols[p].sort_unstable();
            cols[p].dedup();
        }
    }
    cols
}

#[test]
fn cholesky_pattern_prunes_to_exactly_the_elimination_tree() {
    for seed in 0..40u64 {
        let mut rng = Rng64::new(0xc401 + seed);
        let n = rng.range(2, 80);
        let density = [0.01, 0.05, 0.15][rng.below(3)];
        let cols = cholesky_pattern(&mut rng, n, density);
        let below: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .flat_map(|(j, rows)| rows.iter().map(move |&i| (i, j)))
            .collect();
        let l = lower_from_entries(n, &below, true);
        let (kept, _full) = check_factor(&format!("cholesky seed {seed}"), &l, &mut rng, n);
        let childless = cols.iter().filter(|c| c.is_empty()).count();
        assert_eq!(
            kept,
            n - childless,
            "seed {seed}: one edge per parented column"
        );
    }
}
