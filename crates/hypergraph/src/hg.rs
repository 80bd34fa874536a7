//! The hypergraph store.

/// A hypergraph `H = (V, N)` with multi-weight vertices and costed nets.
///
/// Pins are stored twice for O(1) traversal in both directions:
/// `vnets[vptr[v]..vptr[v+1]]` lists the nets of vertex `v`, and
/// `npins[nptr[n]..nptr[n+1]]` lists the vertices of net `n`.
///
/// Vertices carry `ncon` weights each (multi-constraint partitioning);
/// weight `c` of vertex `v` is `vwgt[v * ncon + c]`.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    ncon: usize,
    vptr: Vec<usize>,
    vnets: Vec<usize>,
    nptr: Vec<usize>,
    npins: Vec<usize>,
    vwgt: Vec<i64>,
    ncost: Vec<i64>,
}

impl Hypergraph {
    /// Builds a hypergraph from net pin lists.
    ///
    /// `pins[n]` is the vertex list of net `n` (duplicate-free). `vwgt` is
    /// row-major `nvert × ncon`. `ncost[n]` is the cost of net `n`.
    ///
    /// # Panics
    ///
    /// As [`Hypergraph::from_flat_pins`], which it flattens into.
    pub fn from_pin_lists(
        nvert: usize,
        pins: &[Vec<usize>],
        vwgt: Vec<i64>,
        ncon: usize,
        ncost: Vec<i64>,
    ) -> Self {
        let mut nptr = Vec::with_capacity(pins.len() + 1);
        let mut npins = Vec::with_capacity(pins.iter().map(Vec::len).sum());
        nptr.push(0);
        for p in pins {
            npins.extend_from_slice(p);
            nptr.push(npins.len());
        }
        Hypergraph::from_flat_pins(nvert, nptr, npins, vwgt, ncon, ncost)
    }

    /// Builds a hypergraph from pins already in CSR layout: net `n` has
    /// the (duplicate-free) pins `npins[nptr[n]..nptr[n + 1]]`. `vwgt` is
    /// row-major `nvert × ncon`. `ncost[n]` is the cost of net `n`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions, out-of-range pins or a negative
    /// net cost (the FM pass bound needs `cost ≥ 0`).
    pub fn from_flat_pins(
        nvert: usize,
        nptr: Vec<usize>,
        npins: Vec<usize>,
        vwgt: Vec<i64>,
        ncon: usize,
        ncost: Vec<i64>,
    ) -> Self {
        assert!(ncon >= 1, "at least one constraint required");
        assert_eq!(
            vwgt.len(),
            nvert * ncon,
            "vertex weight array size mismatch"
        );
        assert_eq!(nptr.len(), ncost.len() + 1, "net cost array size mismatch");
        assert_eq!(nptr[0], 0, "net pointers must start at 0");
        assert_eq!(
            nptr[ncost.len()],
            npins.len(),
            "net pointers must end at the pin count"
        );
        let nnets = ncost.len();
        let mut vdeg = vec![0usize; nvert];
        for n in 0..nnets {
            assert!(nptr[n] <= nptr[n + 1], "net pointers must not decrease");
            assert!(ncost[n] >= 0, "negative cost on net {n}");
            for &v in &npins[nptr[n]..nptr[n + 1]] {
                assert!(v < nvert, "pin {v} out of range in net {n}");
                vdeg[v] += 1;
            }
        }
        let mut vptr = vec![0usize; nvert + 1];
        for v in 0..nvert {
            vptr[v + 1] = vptr[v] + vdeg[v];
        }
        let mut vnets = vec![0usize; npins.len()];
        let mut next = vptr[..nvert].to_vec();
        for n in 0..nnets {
            for &v in &npins[nptr[n]..nptr[n + 1]] {
                vnets[next[v]] = n;
                next[v] += 1;
            }
        }
        Hypergraph {
            ncon,
            vptr,
            vnets,
            nptr,
            npins,
            vwgt,
            ncost,
        }
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.vptr.len() - 1
    }

    /// Number of nets.
    pub fn nnets(&self) -> usize {
        self.nptr.len() - 1
    }

    /// Number of pins.
    pub fn npins(&self) -> usize {
        self.npins.len()
    }

    /// Number of balance constraints (weights per vertex).
    pub fn nconstraints(&self) -> usize {
        self.ncon
    }

    /// Nets incident to vertex `v`.
    pub fn nets_of(&self, v: usize) -> &[usize] {
        &self.vnets[self.vptr[v]..self.vptr[v + 1]]
    }

    /// Pins (vertices) of net `n`.
    pub fn pins_of(&self, n: usize) -> &[usize] {
        &self.npins[self.nptr[n]..self.nptr[n + 1]]
    }

    /// Size (pin count) of net `n`.
    pub fn net_size(&self, n: usize) -> usize {
        self.nptr[n + 1] - self.nptr[n]
    }

    /// Cost of net `n`.
    pub fn net_cost(&self, n: usize) -> i64 {
        self.ncost[n]
    }

    /// Weight `c` of vertex `v`.
    pub fn vertex_weight(&self, v: usize, c: usize) -> i64 {
        self.vwgt[v * self.ncon + c]
    }

    /// All weights of vertex `v`.
    pub fn vertex_weights(&self, v: usize) -> &[i64] {
        &self.vwgt[v * self.ncon..(v + 1) * self.ncon]
    }

    /// Total weight per constraint.
    pub fn total_weights(&self) -> Vec<i64> {
        let mut t = vec![0i64; self.ncon];
        for v in 0..self.nvertices() {
            for c in 0..self.ncon {
                t[c] += self.vertex_weight(v, c);
            }
        }
        t
    }

    /// Degree (number of incident nets) of vertex `v`.
    pub fn vertex_degree(&self, v: usize) -> usize {
        self.vptr[v + 1] - self.vptr[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        // 4 vertices, 3 nets: {0,1}, {1,2,3}, {0,3}
        Hypergraph::from_pin_lists(
            4,
            &[vec![0, 1], vec![1, 2, 3], vec![0, 3]],
            vec![1, 2, 3, 4],
            1,
            vec![1, 1, 1],
        )
    }

    #[test]
    fn dual_views_are_consistent() {
        let h = sample();
        assert_eq!(h.nvertices(), 4);
        assert_eq!(h.nnets(), 3);
        assert_eq!(h.npins(), 7);
        // Vertex -> nets inverted correctly.
        assert_eq!(h.nets_of(0), &[0, 2]);
        assert_eq!(h.nets_of(1), &[0, 1]);
        assert_eq!(h.nets_of(2), &[1]);
        assert_eq!(h.nets_of(3), &[1, 2]);
        // Cross-check: v appears in pins_of(n) iff n appears in nets_of(v).
        for v in 0..4 {
            for &n in h.nets_of(v) {
                assert!(h.pins_of(n).contains(&v));
            }
        }
    }

    #[test]
    fn weights_and_costs() {
        let h = sample();
        assert_eq!(h.vertex_weight(2, 0), 3);
        assert_eq!(h.total_weights(), vec![10]);
        assert_eq!(h.net_cost(1), 1);
        assert_eq!(h.net_size(1), 3);
        assert_eq!(h.vertex_degree(3), 2);
    }

    #[test]
    fn multiconstraint_weights() {
        let h = Hypergraph::from_pin_lists(2, &[vec![0, 1]], vec![1, 10, 2, 20], 2, vec![5]);
        assert_eq!(h.vertex_weights(0), &[1, 10]);
        assert_eq!(h.vertex_weights(1), &[2, 20]);
        assert_eq!(h.total_weights(), vec![3, 30]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_pin() {
        Hypergraph::from_pin_lists(2, &[vec![0, 2]], vec![1, 1], 1, vec![1]);
    }

    #[test]
    #[should_panic(expected = "negative cost")]
    fn rejects_negative_net_cost() {
        Hypergraph::from_pin_lists(2, &[vec![0, 1]], vec![1, 1], 1, vec![-1]);
    }

    #[test]
    fn flat_pins_build_the_same_hypergraph() {
        let a = sample();
        let b = Hypergraph::from_flat_pins(
            4,
            vec![0, 2, 5, 7],
            vec![0, 1, 1, 2, 3, 0, 3],
            vec![1, 2, 3, 4],
            1,
            vec![1, 1, 1],
        );
        for n in 0..3 {
            assert_eq!(a.pins_of(n), b.pins_of(n));
        }
        for v in 0..4 {
            assert_eq!(a.nets_of(v), b.nets_of(v));
        }
    }

    #[test]
    fn empty_net_is_allowed() {
        let h = Hypergraph::from_pin_lists(2, &[vec![], vec![0]], vec![1, 1], 1, vec![1, 1]);
        assert_eq!(h.net_size(0), 0);
        assert_eq!(h.net_size(1), 1);
    }
}
