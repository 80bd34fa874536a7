//! Approximate minimum degree (AMD) ordering on a quotient graph.
//!
//! This is the fill-reducing ordering applied to each subdomain `D_ℓ` and
//! to `S̃` before their LU factorisations (the paper uses "a minimum
//! degree ordering on each subdomain", §V-B). It follows Amestoy, Davis
//! and Duff, "An approximate minimum degree ordering algorithm" (SIAM J.
//! Matrix Anal. Appl. 17(4), 1996):
//!
//! * **Quotient graph.** Eliminating a pivot `p` turns it into an
//!   *element* whose variable list `Lp` is the clique the elimination
//!   creates; a variable `i` keeps its remaining variable neighbours `Ai`
//!   and its adjacent elements `Ei`, so the graph never grows.
//! * **Approximate external degree.** For `i ∈ Lp`,
//!   `d̄i = min(n − k, d̄i_old + |Lp \ i|, |Ai| + |Lp \ i| + Σ_{e∈Ei\p} |Le \ Lp|)`,
//!   where every `w(e) = |Le \ Lp|` comes from one pass over the elements
//!   of `Lp`'s variables (a stamp array holds the running count).
//! * **Absorption.** Every element adjacent to `p` is absorbed into `p`;
//!   an element with `w(e) = 0` (so `Le ⊆ Lp`) is absorbed as well
//!   (aggressive absorption). `Ai` drops every variable of `Lp`.
//! * **Supervariables.** Variables of `Lp` with identical pruned lists are
//!   found through a hash of those lists and merged; a variable left
//!   adjacent to `p` alone is eliminated with it (mass elimination). All
//!   degrees and list sizes are weighted by supervariable size, and the
//!   members of a supervariable are output together.
//!
//! Degrees live in bucket lists, so picking the pivot costs O(1)
//! amortised.

use crate::Adjacency;
use sparsekit::Perm;

const NONE: usize = usize::MAX;

/// What an index of the quotient graph currently is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A principal (super)variable, not yet eliminated.
    Var,
    /// A live element: an eliminated pivot with a non-empty `Le`.
    Elem,
    /// Gone: eliminated with another pivot, merged into a supervariable,
    /// or an absorbed element.
    Dead,
}

/// Doubly linked lists of variables, one per degree.
struct Buckets {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    min: usize,
}

impl Buckets {
    fn new(n: usize) -> Self {
        Buckets {
            head: vec![NONE; n + 1],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            min: 0,
        }
    }

    fn insert(&mut self, i: usize, deg: usize) {
        let h = self.head[deg];
        self.next[i] = h;
        self.prev[i] = NONE;
        if h != NONE {
            self.prev[h] = i;
        }
        self.head[deg] = i;
        self.min = self.min.min(deg);
    }

    fn remove(&mut self, i: usize, deg: usize) {
        let (p, nx) = (self.prev[i], self.next[i]);
        if p == NONE {
            self.head[deg] = nx;
        } else {
            self.next[p] = nx;
        }
        if nx != NONE {
            self.prev[nx] = p;
        }
    }

    /// Removes and returns a variable of minimum degree.
    fn pop_min(&mut self) -> usize {
        while self.head[self.min] == NONE {
            self.min += 1;
        }
        let i = self.head[self.min];
        self.remove(i, self.min);
        i
    }
}

/// Computes an approximate minimum-degree elimination ordering.
///
/// Returns the permutation in `to_old` form: the vertex eliminated first
/// is `to_old(0)`. Only the adjacency is read: AMD has no use for edge
/// or vertex weights.
pub fn min_degree_order(g: &Adjacency) -> Perm {
    let n = g.nvertices();
    let mut kind = vec![Kind::Var; n];
    // Supervariable weight of a principal variable (0 once it is gone).
    let mut nv = vec![1usize; n];
    // Variable: `Ai`, its variable neighbours. Element: `Le`.
    let mut vars: Vec<Vec<usize>> = Vec::with_capacity(n);
    // Variable: `Ei`, its adjacent elements.
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Variable: approximate external degree. Element: weighted `|Le|`.
    let mut degree = vec![0usize; n];
    // Member chains of supervariables (head = principal variable).
    let mut chain_next = vec![NONE; n];
    let mut chain_tail: Vec<usize> = (0..n).collect();
    // Stamp arrays: `in_lp` marks `Lp`, `w_at`/`w` hold `|Le \ Lp|` for
    // the current pivot, `seen` dedupes input lists and compares lists.
    let mut in_lp = vec![NONE; n];
    let mut w_at = vec![NONE; n];
    let mut w = vec![0usize; n];
    let mut seen = vec![NONE; n];
    let mut buckets = Buckets::new(n);

    for i in 0..n {
        let mut a = Vec::with_capacity(g.degree(i));
        for &j in g.neighbors(i) {
            if j != i && seen[j] != i {
                seen[j] = i;
                a.push(j);
            }
        }
        degree[i] = a.len();
        buckets.insert(i, a.len());
        vars.push(a);
    }
    let mut seen_tag = n; // `seen` stamps below are > every vertex id

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let emit = |head: usize, order: &mut Vec<usize>, chain_next: &[usize]| {
        let mut v = head;
        while v != NONE {
            order.push(v);
            v = chain_next[v];
        }
    };

    while order.len() < n {
        let p = buckets.pop_min();
        let step = p; // each vertex is a pivot at most once
        kind[p] = Kind::Elem;
        emit(p, &mut order, &chain_next);

        // Lp = (Ap ∪ ⋃_{e∈Ep} Le) minus everything gone; absorb every e.
        let mut sources = vec![std::mem::take(&mut vars[p])];
        for e in std::mem::take(&mut elems[p]) {
            if kind[e] == Kind::Elem {
                sources.push(std::mem::take(&mut vars[e]));
                kind[e] = Kind::Dead;
            }
        }
        let mut lp: Vec<usize> = Vec::new();
        let mut degme = 0usize;
        for &i in sources.iter().flatten() {
            if kind[i] == Kind::Var && in_lp[i] != step {
                in_lp[i] = step;
                lp.push(i);
                degme += nv[i];
                buckets.remove(i, degree[i]);
            }
        }
        drop(sources);

        // w(e) = |Le \ Lp| for every element adjacent to Lp.
        for &i in &lp {
            for &e in &elems[i] {
                if kind[e] == Kind::Elem {
                    if w_at[e] != step {
                        w_at[e] = step;
                        w[e] = degree[e];
                    }
                    w[e] -= nv[i];
                }
            }
        }

        // Prune each list, bound its degree, hash it; mass-eliminate the
        // variables adjacent to p alone.
        let mut hashed: Vec<(u64, usize)> = Vec::with_capacity(lp.len());
        for &i in &lp {
            let mut deg = 0usize;
            let mut hash = p as u64;
            let ei = &mut elems[i];
            let mut k = 0;
            for t in 0..ei.len() {
                let e = ei[t];
                if kind[e] != Kind::Elem {
                    continue;
                }
                if w[e] == 0 {
                    // Le ⊆ Lp: aggressive absorption into p.
                    kind[e] = Kind::Dead;
                    vars[e] = Vec::new();
                    continue;
                }
                deg += w[e];
                hash = hash.wrapping_add(e as u64);
                ei[k] = e;
                k += 1;
            }
            ei.truncate(k);
            ei.push(p);
            let ai = &mut vars[i];
            ai.retain(|&j| kind[j] == Kind::Var && in_lp[j] != step);
            for &j in ai.iter() {
                deg += nv[j];
                hash = hash.wrapping_add(j as u64);
            }
            if ei.len() == 1 && ai.is_empty() {
                kind[i] = Kind::Dead;
                degme -= nv[i];
                elems[i] = Vec::new();
                vars[i] = Vec::new();
                emit(i, &mut order, &chain_next);
                continue;
            }
            degree[i] = degree[i].min(deg);
            hashed.push((hash, i));
        }

        // Supervariables: equal hash, equal lengths, equal sets.
        hashed.sort_unstable();
        let mut lo = 0;
        while lo < hashed.len() {
            let mut hi = lo + 1;
            while hi < hashed.len() && hashed[hi].0 == hashed[lo].0 {
                hi += 1;
            }
            for a in lo..hi {
                let i = hashed[a].1;
                if kind[i] != Kind::Var || hi - a < 2 {
                    continue;
                }
                seen_tag += 1;
                for &x in elems[i].iter().chain(&vars[i]) {
                    seen[x] = seen_tag;
                }
                for &(_, j) in &hashed[a + 1..hi] {
                    let same = kind[j] == Kind::Var
                        && elems[j].len() == elems[i].len()
                        && vars[j].len() == vars[i].len()
                        && elems[j]
                            .iter()
                            .chain(&vars[j])
                            .all(|&x| seen[x] == seen_tag);
                    if same {
                        nv[i] += nv[j];
                        nv[j] = 0;
                        kind[j] = Kind::Dead;
                        elems[j] = Vec::new();
                        vars[j] = Vec::new();
                        chain_next[chain_tail[i]] = j;
                        chain_tail[i] = chain_tail[j];
                    }
                }
            }
            lo = hi;
        }

        // Finalise: the new element and the degrees of its variables.
        lp.retain(|&i| kind[i] == Kind::Var);
        let left = n - order.len();
        for &i in &lp {
            let d = (degree[i] + degme - nv[i]).min(left - nv[i]);
            degree[i] = d;
            buckets.insert(i, d);
        }
        degree[p] = degme;
        if lp.is_empty() {
            kind[p] = Kind::Dead;
        }
        vars[p] = lp;
    }
    debug_assert_eq!(order.len(), n);
    Perm::from_to_old(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    fn graph_from_sym_edges(n: usize, edges: &[(usize, usize)]) -> Adjacency {
        let mut c = Coo::new(n, n);
        for &(u, v) in edges {
            c.push_sym(u, v, 1.0);
        }
        for i in 0..n {
            c.push(i, i, 1.0);
        }
        Adjacency::from_matrix(&c.to_csr())
    }

    /// Counts fill produced by eliminating in the given order (dense
    /// simulation, for small graphs only).
    fn fill_count(g: &Adjacency, p: &Perm) -> usize {
        let n = g.nvertices();
        let mut adj = vec![vec![false; n]; n];
        for v in 0..n {
            for &u in g.neighbors(v) {
                adj[v][u] = true;
            }
        }
        let mut fill = 0usize;
        let mut gone = vec![false; n];
        for step in 0..n {
            let p0 = p.to_old(step);
            gone[p0] = true;
            let nbrs: Vec<usize> = (0..n).filter(|&u| !gone[u] && adj[p0][u]).collect();
            for (a, &u) in nbrs.iter().enumerate() {
                for &w in &nbrs[a + 1..] {
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

    #[test]
    fn star_graph_eliminates_leaves_first() {
        // Star: centre 0 with leaves 1..=5. MD must eliminate leaves first
        // (degree 1) producing zero fill.
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let g = graph_from_sym_edges(6, &edges);
        let p = min_degree_order(&g);
        assert_eq!(fill_count(&g, &p), 0);
        // The centre ties with the final leaf once only two vertices
        // remain, so it must appear among the last two eliminated.
        let centre_pos = p.to_new(0);
        assert!(
            centre_pos >= 4,
            "centre eliminated too early (pos {centre_pos})"
        );
    }

    #[test]
    fn path_has_zero_fill() {
        let edges: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
        let g = graph_from_sym_edges(8, &edges);
        let p = min_degree_order(&g);
        assert_eq!(
            fill_count(&g, &p),
            0,
            "paths are perfect-elimination under MD"
        );
    }

    #[test]
    fn tree_has_zero_fill() {
        let edges = [(0usize, 1usize), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
        let g = graph_from_sym_edges(7, &edges);
        let p = min_degree_order(&g);
        assert_eq!(
            fill_count(&g, &p),
            0,
            "trees are chordal: MD finds zero fill"
        );
    }

    #[test]
    fn grid_fill_beats_natural_order() {
        let nx = 6;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut edges = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                if i + 1 < nx {
                    edges.push((idx(i, j), idx(i + 1, j)));
                }
                if j + 1 < nx {
                    edges.push((idx(i, j), idx(i, j + 1)));
                }
            }
        }
        let g = graph_from_sym_edges(nx * nx, &edges);
        let p = min_degree_order(&g);
        let natural = fill_count(&g, &Perm::identity(nx * nx));
        let md = fill_count(&g, &p);
        assert!(
            md < natural,
            "MD fill {md} should beat natural fill {natural}"
        );
    }

    #[test]
    fn produces_valid_permutation() {
        let g = graph_from_sym_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let p = min_degree_order(&g);
        assert_eq!(p.len(), 5);
        let mut seen = [false; 5];
        for i in 0..5 {
            seen[p.to_old(i)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
