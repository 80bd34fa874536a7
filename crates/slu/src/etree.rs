//! Elimination trees and postorders (Liu's algorithms).
//!
//! The e-tree of a symmetric matrix encodes column dependencies of its
//! factorisation and — via Gilbert's fill-path theorem — where fill
//! appears when solving `D⁻¹b` with a sparse `b`: if `b(i) ≠ 0`, fill
//! occurs on the path from node `i` to the root (§IV-A of the paper).

use sparsekit::{Csr, Perm};

/// Marker for tree roots in a parent array.
pub const NO_PARENT: usize = usize::MAX;

/// Computes the elimination tree of a matrix with symmetric pattern
/// (pass `|D| + |Dᵀ|` for unsymmetric `D`, as the paper does).
///
/// Returns `parent[v]` with [`NO_PARENT`] at roots. Uses Liu's ancestor
/// path-compression algorithm, `O(nnz · α)`.
pub fn etree(a: &Csr) -> Vec<usize> {
    assert_eq!(a.nrows(), a.ncols(), "etree requires a square matrix");
    let n = a.nrows();
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    for i in 0..n {
        for &k in a.row_indices(i) {
            if k >= i {
                break; // only the lower triangle drives the recurrence
            }
            link(&mut parent, &mut ancestor, k, i);
        }
    }
    parent
}

/// [`etree`] of `P·A·Pᵀ` for a symmetric pattern given by its
/// neighbour lists in the original labels, without forming the permuted
/// matrix: row `i` of `P·A·Pᵀ` holds `p.to_new(u)` for every neighbour
/// `u` of `p.to_old(i)`. The tree is unique, so the order of a
/// neighbour list does not matter, and diagonal entries may be present
/// or not.
pub fn etree_permuted<'a>(p: &Perm, neighbors: impl Fn(usize) -> &'a [usize]) -> Vec<usize> {
    let n = p.len();
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    for i in 0..n {
        for &u in neighbors(p.to_old(i)) {
            let k = p.to_new(u);
            if k < i {
                link(&mut parent, &mut ancestor, k, i);
            }
        }
    }
    parent
}

/// One step of Liu's recurrence for the entry `(i, k)`, `k < i`: walks
/// from `k` to the root of its current subtree, compressing the
/// ancestor path onto `i`, and hangs that root under `i`.
fn link(parent: &mut [usize], ancestor: &mut [usize], k: usize, i: usize) {
    let mut j = k;
    while ancestor[j] != NO_PARENT && ancestor[j] != i {
        let next = ancestor[j];
        ancestor[j] = i;
        j = next;
    }
    if ancestor[j] == NO_PARENT {
        ancestor[j] = i;
        parent[j] = i;
    }
}

/// Computes a postorder of a forest given by `parent`.
///
/// Children are visited in ascending order, iteratively (no recursion, so
/// deep chains are fine). Returns a [`Perm`] whose `to_old(p)` is the
/// vertex at postorder position `p`.
pub fn postorder(parent: &[usize]) -> Perm {
    let n = parent.len();
    // Build child lists.
    let mut head = vec![usize::MAX; n];
    let mut next = vec![usize::MAX; n];
    // Insert children in reverse so lists come out ascending.
    for v in (0..n).rev() {
        let p = parent[v];
        if p != NO_PARENT {
            next[v] = head[p];
            head[p] = v;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for root in (0..n).rev() {
        if parent[root] == NO_PARENT {
            stack.push((root, false));
        }
    }
    while let Some((v, expanded)) = stack.pop() {
        if expanded {
            order.push(v);
            continue;
        }
        stack.push((v, true));
        // Push children (they pop in ascending order because the list is
        // ascending and the stack reverses it — push in reverse).
        let mut kids = Vec::new();
        let mut c = head[v];
        while c != usize::MAX {
            kids.push(c);
            c = next[c];
        }
        for &k in kids.iter().rev() {
            stack.push((k, false));
        }
    }
    debug_assert_eq!(order.len(), n);
    Perm::from_to_old(order)
}

/// The fill path from node `v` to its root (inclusive): the positions
/// where fill appears when solving `D⁻¹b` with `b(v) ≠ 0` (§IV-A of the
/// paper, after Gilbert's theorem).
pub fn path_to_root(parent: &[usize], v: usize) -> Vec<usize> {
    let mut path = vec![v];
    let mut cur = v;
    while parent[cur] != NO_PARENT {
        cur = parent[cur];
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    /// Tridiagonal matrix: the e-tree is a path 0 → 1 → … → n−1.
    fn tridiag(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i + 1 < n {
                c.push_sym(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = tridiag(6);
        let p = etree(&a);
        assert_eq!(p, vec![1, 2, 3, 4, 5, NO_PARENT]);
    }

    #[test]
    fn etree_of_diagonal_is_a_forest_of_roots() {
        let a = Csr::identity(4);
        let p = etree(&a);
        assert!(p.iter().all(|&x| x == NO_PARENT));
    }

    #[test]
    fn etree_arrow_matrix() {
        // Arrow pointing to the last row/col: every node's parent is n-1
        // …but through the chain: parent[i] = n-1 directly for i < n-1.
        let n = 5;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i + 1 < n {
                c.push_sym(i, n - 1, 1.0);
            }
        }
        let a = c.to_csr();
        let p = etree(&a);
        for i in 0..n - 1 {
            assert_eq!(p[i], n - 1);
        }
        assert_eq!(p[n - 1], NO_PARENT);
    }

    #[test]
    fn permuted_etree_matches_the_etree_of_the_permuted_matrix() {
        // A symmetric pattern with a cycle, a chord and an isolated vertex.
        let n = 7;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
        }
        for (u, v) in [(0, 3), (3, 5), (5, 1), (1, 0), (2, 4), (4, 1), (0, 5)] {
            c.push_sym(u, v, 1.0);
        }
        let a = c.to_csr();
        for to_old in [vec![6, 5, 4, 3, 2, 1, 0], vec![2, 0, 6, 4, 1, 5, 3]] {
            let p = Perm::from_to_old(to_old);
            // Neighbour lists in reverse, diagonal included.
            let rows: Vec<Vec<usize>> = (0..n)
                .map(|v| a.row_indices(v).iter().rev().copied().collect())
                .collect();
            let got = etree_permuted(&p, |v| rows[v].as_slice());
            assert_eq!(got, etree(&a.permute(&p, &p)), "{p:?}");
        }
    }

    #[test]
    fn postorder_is_bottom_up() {
        let a = tridiag(5);
        let parent = etree(&a);
        let post = postorder(&parent);
        // In a postorder every child precedes its parent.
        for v in 0..5 {
            if parent[v] != NO_PARENT {
                assert!(post.to_new(v) < post.to_new(parent[v]));
            }
        }
    }

    #[test]
    fn postorder_of_balanced_tree() {
        // parent array: 0,1 -> 2; 3,4 -> 5; 2,5 -> 6
        let parent = vec![2, 2, 6, 5, 5, 6, NO_PARENT];
        let post = postorder(&parent);
        for v in 0..7 {
            if parent[v] != NO_PARENT {
                assert!(post.to_new(v) < post.to_new(parent[v]));
            }
        }
        // Root is last.
        assert_eq!(post.to_old(6), 6);
    }

    #[test]
    fn postorder_handles_forest() {
        let parent = vec![NO_PARENT, 0, NO_PARENT, 2];
        let post = postorder(&parent);
        assert_eq!(post.len(), 4);
        assert!(post.to_new(1) < post.to_new(0));
        assert!(post.to_new(3) < post.to_new(2));
    }

    #[test]
    fn path_to_root_on_chain() {
        let parent = vec![1, 2, NO_PARENT, NO_PARENT];
        assert_eq!(path_to_root(&parent, 0), vec![0, 1, 2]);
        assert_eq!(path_to_root(&parent, 3), vec![3]);
    }
}
