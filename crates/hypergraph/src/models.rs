//! Column-net and row-net hypergraph models of sparse matrices (§II of
//! the paper, after Çatalyürek & Aykanat).

use crate::Hypergraph;
use sparsekit::Csr;

/// Column-net model `H_C(M)`: one vertex per **row**, one net per
/// **column**; row-vertex `i` is a pin of column-net `j` iff `m_ij ≠ 0`.
///
/// Unit vertex weights (one constraint) and unit net costs.
pub fn column_net_model(m: &Csr) -> Hypergraph {
    column_net_model_weighted(m, &vec![1i64; m.nrows()], 1, 1)
}

/// Column-net model with caller-supplied vertex weights (row-major,
/// `ncon` per row) and a uniform net cost.
pub fn column_net_model_weighted(m: &Csr, vwgt: &[i64], ncon: usize, net_cost: i64) -> Hypergraph {
    let (nptr, npins) = column_nets(m);
    let ncost = vec![net_cost; m.ncols()];
    Hypergraph::from_flat_pins(m.nrows(), nptr, npins, vwgt.to_vec(), ncon, ncost)
}

/// The column nets of `m` in the layout of [`Hypergraph::from_flat_pins`]:
/// the pattern of `mᵀ`, the rows of every column ascending.
pub(crate) fn column_nets(m: &Csr) -> (Vec<usize>, Vec<usize>) {
    let mut nptr = vec![0usize; m.ncols() + 1];
    for &j in m.indices() {
        nptr[j + 1] += 1;
    }
    for j in 0..m.ncols() {
        nptr[j + 1] += nptr[j];
    }
    let mut npins = vec![0usize; m.nnz()];
    let mut next = nptr[..m.ncols()].to_vec();
    for i in 0..m.nrows() {
        for &j in m.row_indices(i) {
            npins[next[j]] = i;
            next[j] += 1;
        }
    }
    (nptr, npins)
}

/// Row-net model `H_R(M)`: one vertex per **column**, one net per
/// **row** — the column-net model of `Mᵀ`.
///
/// Used in §IV-B to partition right-hand-side columns by the row
/// structure of the solution vectors `G`: `net_cost` is the block size
/// `B` (the paper shows minimising con1 with cost-`B` nets equals
/// minimising padded zeros up to a constant).
pub fn row_net_model(m: &Csr, net_cost: i64) -> Hypergraph {
    let ncost = vec![net_cost; m.nrows()];
    Hypergraph::from_flat_pins(
        m.ncols(),
        m.indptr().to_vec(),
        m.indices().to_vec(),
        vec![1i64; m.ncols()],
        1,
        ncost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Coo;

    fn sample() -> Csr {
        // 3x4:
        // [x . x .]
        // [. x x .]
        // [x . . x]
        let mut c = Coo::new(3, 4);
        c.push(0, 0, 1.0);
        c.push(0, 2, 1.0);
        c.push(1, 1, 1.0);
        c.push(1, 2, 1.0);
        c.push(2, 0, 1.0);
        c.push(2, 3, 1.0);
        c.to_csr()
    }

    #[test]
    fn column_net_pins_follow_columns() {
        let h = column_net_model(&sample());
        assert_eq!(h.nvertices(), 3);
        assert_eq!(h.nnets(), 4);
        assert_eq!(h.pins_of(0), &[0, 2]);
        assert_eq!(h.pins_of(1), &[1]);
        assert_eq!(h.pins_of(2), &[0, 1]);
        assert_eq!(h.pins_of(3), &[2]);
        assert_eq!(h.npins(), 6);
    }

    #[test]
    fn row_net_is_column_net_of_transpose() {
        let m = sample();
        let h1 = row_net_model(&m, 1);
        let h2 = column_net_model(&m.transpose());
        assert_eq!(h1.nvertices(), h2.nvertices());
        assert_eq!(h1.nnets(), h2.nnets());
        for n in 0..h1.nnets() {
            assert_eq!(h1.pins_of(n), h2.pins_of(n));
        }
    }

    #[test]
    fn weighted_model_carries_weights() {
        let m = sample();
        let w = vec![5i64, 6, 7];
        let h = column_net_model_weighted(&m, &w, 1, 3);
        assert_eq!(h.vertex_weight(1, 0), 6);
        assert_eq!(h.net_cost(2), 3);
    }
}
