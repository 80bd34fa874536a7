//! `slu::supernodal_padding` — the paper's padded-zero accounting with
//! each block's pattern rounded up to whole supernodes — against an
//! independent brute-force oracle that lives only in this file: per-column
//! reaches by a plain DFS over the factor's stored columns, their union
//! rounded up to the `sn_ptr` ranges, padding = rows × B − true. Checked
//! on the Table-I zoo subdomains and on random lower-triangular patterns,
//! including ones that are not elimination-tree closed, for strict and
//! relaxed supernodes at several block sizes. On every block the
//! supernodal padding must be at least the column padding of the driver's
//! blocked solve, with the same true nonzero count.

use matgen::{generate, MatrixKind, Scale};
use pdslin::interface::ehat_columns_pivot;
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind};
use slu::trisolve::{SolveWorkspace, SparseVec};
use slu::{detect_supernodes, supernodal_padding, ReachGraph, Supernodes};
use sparsekit::{Coo, Csc, Rng64};

/// Oracle reach of `seeds`: every row reachable along stored entries
/// `l(r, j)`, `r > j`, as a dense flag vector.
fn dense_reach(l: &Csc, seeds: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; l.ncols()];
    let mut stack: Vec<usize> = Vec::new();
    for &s in seeds {
        if !seen[s] {
            seen[s] = true;
            stack.push(s);
        }
    }
    while let Some(j) = stack.pop() {
        for &r in l.col_indices(j) {
            if r > j && !seen[r] {
                seen[r] = true;
                stack.push(r);
            }
        }
    }
    seen
}

/// Oracle accounting of one block, `(union_rows, true_nnz, padded_zeros)`,
/// from the per-column reaches of its columns.
fn oracle_padding(sn: &Supernodes, reaches: &[Vec<bool>]) -> (usize, u64, u64) {
    let n = sn.sn_ptr[sn.sn_ptr.len() - 1];
    let mut union = vec![false; n];
    let mut true_nnz = 0u64;
    for reach in reaches {
        for (u, &r) in union.iter_mut().zip(reach) {
            *u |= r;
            true_nnz += u64::from(r);
        }
    }
    let rows: usize = sn
        .sn_ptr
        .windows(2)
        .filter(|w| (w[0]..w[1]).any(|j| union[j]))
        .map(|w| w[1] - w[0])
        .sum();
    (rows, true_nnz, (rows * reaches.len()) as u64 - true_nnz)
}

/// Checks every block of `cols` (natural order) at each block size, for
/// strict and relaxed supernodes. Returns how many blocks the rounding
/// padded beyond the column padding.
fn check_factor(name: &str, l: &Csc, cols: &[SparseVec], block_sizes: &[usize]) -> usize {
    let graph = ReachGraph::build(l);
    let mut ws = SolveWorkspace::new(l.ncols());
    let reaches: Vec<Vec<bool>> = cols.iter().map(|c| dense_reach(l, &c.indices)).collect();
    let mut rounded = 0usize;
    for relax in [0usize, 2] {
        let sn = detect_supernodes(l, relax);
        for &b in block_sizes {
            for (k, (block, block_reaches)) in cols.chunks(b).zip(reaches.chunks(b)).enumerate() {
                let at = format!("{name}: relax {relax}, B = {b}, block {k}");
                let got = supernodal_padding(&graph, &sn, block, &mut ws);
                assert_eq!(
                    (got.union_rows, got.true_nnz, got.padded_zeros),
                    oracle_padding(&sn, block_reaches),
                    "{at}"
                );
                let (_x, col) = slu::solve_in_blocks(l, true, block, block.len());
                assert_eq!(got.true_nnz, col.true_nnz, "{at}: true nonzeros");
                assert!(
                    got.padded_zeros >= col.padded_zeros,
                    "{at}: supernodal {} < column {}",
                    got.padded_zeros,
                    col.padded_zeros
                );
                rounded += usize::from(got.padded_zeros > col.padded_zeros);
            }
        }
    }
    rounded
}

#[test]
fn supernodal_padding_matches_the_oracle_on_zoo_subdomains() {
    let mut rounded = 0usize;
    for kind in MatrixKind::ALL {
        let a = generate(kind, Scale::Test);
        let part = compute_partition(&a, 8, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, part);
        let dom = &sys.domains[0];
        let fd = factor_domain(&dom.d, 0.1).expect("zoo subdomain must factor");
        let cols = ehat_columns_pivot(&fd, dom);
        rounded += check_factor(&format!("{kind:?}"), &fd.lu.l, &cols, &[1, 7, 60]);
    }
    assert!(rounded > 0, "no zoo block was padded by the rounding");
}

/// A random lower-triangular pattern that is not tree-closed (entries are
/// independent), with a dense trailing block of `tail` columns so that
/// strict supernodes wider than one column exist. The diagonal is stored
/// or not at random: the accounting must not depend on it.
fn random_lower(rng: &mut Rng64, n: usize, density: f64, tail: usize) -> Csc {
    let mut c = Coo::new(n, n);
    let store_diagonal = rng.below(2) == 0;
    for j in 0..n {
        if store_diagonal {
            c.push(j, j, 1.0);
        }
        for i in j + 1..n {
            if j + tail >= n || rng.f64() < density {
                c.push(i, j, 0.5);
            }
        }
    }
    c.to_csr().to_csc()
}

#[test]
fn supernodal_padding_matches_the_oracle_on_random_patterns() {
    let mut rounded = 0usize;
    for seed in 0..120u64 {
        let mut rng = Rng64::new(0x5a9e + seed);
        let n = rng.range(1, 61);
        let density = [0.02, 0.08, 0.2, 0.5][rng.below(4)];
        let tail = [0, 3, 10, n][rng.below(4)].min(n);
        let l = random_lower(&mut rng, n, density, tail);
        let ncols = rng.range(1, 40);
        let cols: Vec<SparseVec> = (0..ncols)
            .map(|_| {
                let len = rng.range(1, 5);
                let mut idx: Vec<usize> = (0..len).map(|_| rng.below(n)).collect();
                idx.sort_unstable();
                idx.dedup();
                let vals = vec![1.0; idx.len()];
                SparseVec::new(idx, vals)
            })
            .collect();
        let name = format!("seed {seed} (n {n}, density {density}, tail {tail})");
        rounded += check_factor(&name, &l, &cols, &[1, 3, 8, 64]);
    }
    assert!(rounded > 0, "no random block was padded by the rounding");
}
