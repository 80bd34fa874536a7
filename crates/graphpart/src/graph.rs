//! Undirected weighted graph in adjacency (CSR) layout.

use sparsekit::Csr;

/// How edge/net weights are derived from the matrix (Vecharynski–Saad–
/// Sosonkina-style value-aware partitioning).
///
/// `Unit` reproduces the purely structural partitioners of the paper;
/// `ValueScaled` derives integer weights from coefficient magnitudes via
/// [`magnitude_weight`], so the partitioners avoid cutting
/// large-magnitude couplings — the entries whose loss most degrades the
/// dropped-`S̃` preconditioner on heterogeneous-coefficient matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// Structural (unit) weights — the paper's baseline.
    #[default]
    Unit,
    /// Magnitude-scaled integer weights.
    ValueScaled,
}

impl WeightScheme {
    /// Label used by the experiment harnesses and CLI.
    pub fn label(&self) -> &'static str {
        match self {
            WeightScheme::Unit => "unit",
            WeightScheme::ValueScaled => "value",
        }
    }
}

/// Integer weight of a coefficient of magnitude `v_abs` relative to a
/// reference magnitude (typically the median off-diagonal magnitude):
/// `1 + round(log2(1 + v/ref))`, clamped to `[1, 16]`. Logarithmic so a
/// few huge entries cannot drown the structural term, clamped so weights
/// stay comparable to the unit scheme's balance tolerances.
pub fn magnitude_weight(v_abs: f64, ref_mag: f64) -> i64 {
    if !(v_abs.is_finite() && ref_mag.is_finite()) || ref_mag <= 0.0 || v_abs <= 0.0 {
        return 1;
    }
    let w = 1.0 + (1.0 + v_abs / ref_mag).log2().round();
    (w as i64).clamp(1, 16)
}

/// Median of the absolute off-diagonal values of `a` (0.0 if there are
/// none) — the reference magnitude for [`magnitude_weight`].
pub fn median_offdiag_magnitude(a: &Csr) -> f64 {
    let mut mags: Vec<f64> = Vec::with_capacity(a.nnz());
    for i in 0..a.nrows() {
        for (j, v) in a.row_iter(i) {
            if j != i && v != 0.0 {
                mags.push(v.abs());
            }
        }
    }
    if mags.is_empty() {
        return 0.0;
    }
    let mid = mags.len() / 2;
    mags.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    mags[mid]
}

/// The unweighted adjacency structure of an undirected graph — all a
/// fill-reducing ordering reads.
///
/// Stored like CSR: `adj[xadj[v]..xadj[v+1]]` are the neighbours of `v`.
/// Every edge appears twice (once per endpoint).
#[derive(Clone, Debug)]
pub struct Adjacency {
    xadj: Vec<usize>,
    adj: Vec<usize>,
}

impl Adjacency {
    /// The pattern of `|A| + |Aᵀ|` minus the diagonal, built from the
    /// index arrays alone: one indices-only transpose and one merge per
    /// row, no values and no copy of `a`. Each neighbour list is sorted,
    /// and an explicitly stored zero is an edge like any other entry.
    pub fn from_matrix(a: &Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "graph requires square matrix");
        let n = a.nrows();
        // Aᵀ's pattern; rows are visited in order, so each of its rows
        // comes out sorted.
        let mut tptr = vec![0usize; n + 1];
        for &j in a.indices() {
            tptr[j + 1] += 1;
        }
        for j in 0..n {
            tptr[j + 1] += tptr[j];
        }
        let mut fill = tptr[..n].to_vec();
        let mut trows = vec![0usize; a.nnz()];
        for i in 0..n {
            for &j in a.row_indices(i) {
                trows[fill[j]] = i;
                fill[j] += 1;
            }
        }
        drop(fill);
        // Row `v` of the union, diagonal excluded, in ascending order.
        let union = |v: usize, emit: &mut dyn FnMut(usize)| {
            let (x, y) = (a.row_indices(v), &trows[tptr[v]..tptr[v + 1]]);
            let (mut p, mut q) = (0, 0);
            while p < x.len() || q < y.len() {
                let cx = x.get(p).copied().unwrap_or(usize::MAX);
                let cy = y.get(q).copied().unwrap_or(usize::MAX);
                let u = cx.min(cy);
                p += usize::from(cx == u);
                q += usize::from(cy == u);
                if u != v {
                    emit(u);
                }
            }
        };
        // Counted first, so the arrays are allocated at their size.
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            let mut count = 0;
            union(v, &mut |_| count += 1);
            xadj[v + 1] = xadj[v] + count;
        }
        let mut adj = Vec::with_capacity(xadj[n]);
        for v in 0..n {
            union(v, &mut |u| adj.push(u));
        }
        Adjacency { xadj, adj }
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree (number of neighbours) of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }
}

/// An undirected graph with integer vertex and edge weights: an
/// [`Adjacency`] with edge weights `ewgt` parallel to its neighbour
/// lists and one weight per vertex. Self-loops are not stored.
#[derive(Clone, Debug)]
pub struct Graph {
    adjacency: Adjacency,
    ewgt: Vec<i64>,
    vwgt: Vec<i64>,
}

impl Graph {
    /// Builds a graph from adjacency parts.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent array lengths, out-of-range neighbours,
    /// self-loops, or a negative edge weight (the FM pass bound needs
    /// `w ≥ 0`). Symmetry of the adjacency is the caller's duty (checked
    /// in debug builds).
    pub fn from_parts(xadj: Vec<usize>, adj: Vec<usize>, ewgt: Vec<i64>, vwgt: Vec<i64>) -> Self {
        let n = vwgt.len();
        assert_eq!(xadj.len(), n + 1, "xadj length mismatch");
        assert_eq!(*xadj.last().unwrap(), adj.len());
        assert_eq!(adj.len(), ewgt.len());
        assert!(ewgt.iter().all(|&w| w >= 0), "negative edge weight");
        for v in 0..n {
            assert!(xadj[v] <= xadj[v + 1]);
            for &u in &adj[xadj[v]..xadj[v + 1]] {
                assert!(u < n, "neighbour out of range");
                assert!(u != v, "self-loop at {v}");
            }
        }
        #[cfg(debug_assertions)]
        {
            use std::collections::HashSet;
            let mut set = HashSet::new();
            for v in 0..n {
                for &u in &adj[xadj[v]..xadj[v + 1]] {
                    set.insert((v, u));
                }
            }
            for &(v, u) in &set {
                debug_assert!(set.contains(&(u, v)), "asymmetric edge ({v},{u})");
            }
        }
        Graph {
            adjacency: Adjacency { xadj, adj },
            ewgt,
            vwgt,
        }
    }

    /// Builds the adjacency graph of a square sparse matrix.
    ///
    /// The matrix is symmetrised structurally (`|A|+|Aᵀ|`) first; the
    /// diagonal is ignored. Vertex weights are 1, edge weights are 1.
    pub fn from_matrix(a: &Csr) -> Self {
        Graph::from_matrix_weighted(a, WeightScheme::Unit)
    }

    /// [`Graph::from_matrix`] with a [`WeightScheme`]: under
    /// `ValueScaled`, each edge carries [`magnitude_weight`] of the
    /// symmetrised coefficient, so refinement prefers cutting weak
    /// couplings. Vertex weights stay 1 under both schemes (subdomain
    /// balance remains a row-count balance). `Unit` reads only the
    /// pattern ([`Adjacency::from_matrix`]).
    pub fn from_matrix_weighted(a: &Csr, scheme: WeightScheme) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "graph requires square matrix");
        let n = a.nrows();
        if scheme == WeightScheme::Unit {
            let adjacency = Adjacency::from_matrix(a);
            return Graph {
                ewgt: vec![1; adjacency.adj.len()],
                vwgt: vec![1; n],
                adjacency,
            };
        }
        // Value-scaled weights need value-symmetric input: a symmetric
        // *pattern* does not guarantee symmetric *values*, and the edge
        // (v,u) must weigh the same from both endpoints.
        let s = a.symmetrize_abs();
        let ref_mag = median_offdiag_magnitude(&s);
        let mut xadj = vec![0usize; n + 1];
        let mut adj = Vec::with_capacity(s.nnz());
        let mut ewgt = Vec::with_capacity(s.nnz());
        for v in 0..n {
            for (u, val) in s.row_iter(v) {
                if u != v {
                    adj.push(u);
                    // Symmetric values of the symmetrised matrix give the
                    // same weight to (v,u) and (u,v).
                    ewgt.push(magnitude_weight(val.abs(), ref_mag));
                }
            }
            xadj[v + 1] = adj.len();
        }
        Graph {
            adjacency: Adjacency { xadj, adj },
            ewgt,
            vwgt: vec![1; n],
        }
    }

    /// The unweighted adjacency structure.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adjacency
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        self.adjacency.neighbors(v)
    }

    /// Edge weights parallel to [`Graph::neighbors`].
    pub fn edge_weights(&self, v: usize) -> &[i64] {
        &self.ewgt[self.adjacency.xadj[v]..self.adjacency.xadj[v + 1]]
    }

    /// Iterates `(neighbour, edge_weight)` for `v`.
    pub fn edges(&self, v: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Degree (number of neighbours) of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency.degree(v)
    }

    /// Weight of vertex `v`.
    pub fn vertex_weight(&self, v: usize) -> i64 {
        self.vwgt[v]
    }

    /// All vertex weights.
    pub fn vertex_weights(&self) -> &[i64] {
        &self.vwgt
    }

    /// Total vertex weight.
    pub fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Induced subgraph on `keep` (order defines new vertex ids).
    ///
    /// Returns the subgraph and the map `new → old`.
    pub fn subgraph(&self, keep: &[usize]) -> (Graph, Vec<usize>) {
        let mut new_of = vec![usize::MAX; self.nvertices()];
        for (new, &old) in keep.iter().enumerate() {
            debug_assert!(new_of[old] == usize::MAX, "duplicate vertex in subgraph");
            new_of[old] = new;
        }
        let mut xadj = vec![0usize; keep.len() + 1];
        let mut adj = Vec::new();
        let mut ewgt = Vec::new();
        let mut vwgt = Vec::with_capacity(keep.len());
        for (new, &old) in keep.iter().enumerate() {
            for (u, w) in self.edges(old) {
                let nu = new_of[u];
                if nu != usize::MAX {
                    adj.push(nu);
                    ewgt.push(w);
                }
            }
            xadj[new + 1] = adj.len();
            vwgt.push(self.vwgt[old]);
        }
        (
            Graph {
                adjacency: Adjacency { xadj, adj },
                ewgt,
                vwgt,
            },
            keep.to_vec(),
        )
    }

    /// Sum of edge weights crossing the bisection `side` (0/1 per vertex).
    pub fn edge_cut(&self, side: &[u8]) -> i64 {
        assert_eq!(side.len(), self.nvertices());
        let mut cut = 0i64;
        for v in 0..self.nvertices() {
            for (u, w) in self.edges(v) {
                if u > v && side[u] != side[v] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// BFS from `start`, returning `(order, level)` where `order` lists the
    /// reachable vertices in visit order.
    pub fn bfs(&self, start: usize) -> (Vec<usize>, Vec<usize>) {
        let n = self.nvertices();
        let mut level = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        level[start] = 0;
        order.push(start);
        let mut head = 0usize;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &u in self.neighbors(v) {
                if level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    order.push(u);
                }
            }
        }
        (order, level)
    }

    /// A pseudo-peripheral vertex found by repeated BFS sweeps, starting
    /// the search at `seed` (restricted to `seed`'s connected component).
    pub fn pseudo_peripheral(&self, seed: usize) -> usize {
        let mut v = seed;
        let mut ecc = 0usize;
        for _ in 0..8 {
            let (order, level) = self.bfs(v);
            let last = *order.last().expect("bfs visits at least the start");
            let new_ecc = level[last];
            if new_ecc <= ecc && v != seed {
                break;
            }
            ecc = new_ecc;
            // Among the deepest vertices prefer the smallest degree — the
            // classical GPS heuristic.
            let far: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&u| level[u] == new_ecc)
                .collect();
            v = far.into_iter().min_by_key(|&u| self.degree(u)).unwrap();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    /// Path graph 0-1-2-3.
    pub(crate) fn path4() -> Graph {
        let mut c = Coo::new(4, 4);
        for i in 0..3 {
            c.push_sym(i, i + 1, 1.0);
        }
        for i in 0..4 {
            c.push(i, i, 1.0);
        }
        Graph::from_matrix(&c.to_csr())
    }

    #[test]
    fn from_matrix_strips_diagonal() {
        let g = path4();
        assert_eq!(g.nvertices(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
    }

    /// An unsymmetric pattern with an empty row, an explicit zero and a
    /// missing diagonal entry.
    fn unsymmetric() -> Csr {
        let mut c = Coo::new(5, 5);
        for (i, j, v) in [
            (0, 0, 2.0),
            (0, 3, -1.0),
            (1, 1, 3.0),
            (1, 0, 0.0),
            (3, 4, 4.0),
            (4, 4, 1.0),
            (4, 1, -2.0),
            (4, 3, 0.5),
        ] {
            c.push(i, j, v);
        }
        c.to_csr()
    }

    #[test]
    fn adjacency_is_the_pattern_of_the_symmetrised_matrix() {
        for a in [unsymmetric(), unsymmetric().symmetrize_abs()] {
            let adj = Adjacency::from_matrix(&a);
            let s = a.symmetrize_abs();
            for v in 0..a.nrows() {
                let want: Vec<usize> = s
                    .row_indices(v)
                    .iter()
                    .copied()
                    .filter(|&u| u != v)
                    .collect();
                assert_eq!(adj.neighbors(v), want.as_slice(), "vertex {v}");
            }
        }
        assert_eq!(
            Adjacency::from_matrix(&unsymmetric()).neighbors(2),
            &[] as &[usize]
        );
    }

    #[test]
    fn value_scaled_weights_do_not_depend_on_a_prior_symmetrisation() {
        let a = unsymmetric();
        let (g, h) = (
            Graph::from_matrix_weighted(&a, WeightScheme::ValueScaled),
            Graph::from_matrix_weighted(&a.symmetrize_abs(), WeightScheme::ValueScaled),
        );
        for v in 0..a.nrows() {
            assert_eq!(g.neighbors(v), h.neighbors(v));
            assert_eq!(g.edge_weights(v), h.edge_weights(v));
        }
    }

    #[test]
    fn edge_cut_on_path() {
        let g = path4();
        assert_eq!(g.edge_cut(&[0, 0, 1, 1]), 1);
        assert_eq!(g.edge_cut(&[0, 1, 0, 1]), 3);
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn bfs_levels() {
        let g = path4();
        let (order, level) = g.bfs(0);
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(level, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pseudo_peripheral_of_path_is_endpoint() {
        let g = path4();
        let v = g.pseudo_peripheral(1);
        assert!(v == 0 || v == 3);
    }

    #[test]
    fn subgraph_induces_edges() {
        let g = path4();
        let (s, map) = g.subgraph(&[1, 2, 3]);
        assert_eq!(s.nvertices(), 3);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!(s.neighbors(0), &[1]); // old 1 — old 2
        assert_eq!(s.neighbors(1), &[0, 2]);
    }
}
