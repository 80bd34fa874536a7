//! Phase 2: extracting the local systems `A_ℓ = [D_ℓ Ê_ℓ; F̂_ℓ 0]`.

use graphpart::DbbdPartition;
use sparsekit::Csr;

/// One interior subdomain with its interfaces.
#[derive(Clone, Debug)]
pub struct LocalDomain {
    /// Global row/column ids of the subdomain's vertices (ascending).
    pub rows: Vec<usize>,
    /// `D_ℓ` — the interior block.
    pub d: Csr,
    /// Local separator indices (into `DbbdSystem::sep_rows`) of the
    /// nonzero columns of `E_ℓ`.
    pub e_cols: Vec<usize>,
    /// `Ê_ℓ` — nonzero columns of `E_ℓ` (`dim(D) × e_cols.len()`).
    pub e_hat: Csr,
    /// Local separator indices of the nonzero rows of `F_ℓ`.
    pub f_rows: Vec<usize>,
    /// `F̂_ℓ` — nonzero rows of `F_ℓ` (`f_rows.len() × dim(D)`).
    pub f_hat: Csr,
}

impl LocalDomain {
    /// Subdomain dimension.
    pub fn dim(&self) -> usize {
        self.rows.len()
    }
}

/// The matrix in DBBD form: interior subdomains plus the separator block.
#[derive(Clone, Debug)]
pub struct DbbdSystem {
    /// The partition that produced this system.
    pub part: DbbdPartition,
    /// The subdomains.
    pub domains: Vec<LocalDomain>,
    /// Global ids of the separator vertices (ascending).
    pub sep_rows: Vec<usize>,
    /// `C` — the separator block (`n_S × n_S`).
    pub c: Csr,
}

impl DbbdSystem {
    /// Separator size `n_S`.
    pub fn nsep(&self) -> usize {
        self.sep_rows.len()
    }
}

/// Extracts all local systems from `a` under `part`.
///
/// # Panics
///
/// Panics (in debug builds) if `part` is not a valid DBBD partition of
/// `a`, i.e. if an entry couples two different subdomains.
pub fn extract_dbbd(a: &Csr, part: DbbdPartition) -> DbbdSystem {
    let k = part.k;
    let sep_rows = part.separator_rows();
    let c = a.submatrix(&sep_rows, &sep_rows);
    let mut domains = Vec::with_capacity(k);
    for l in 0..k {
        let rows = part.part_rows(l);
        let d = a.submatrix(&rows, &rows);
        // E_ℓ = A[rows, sep]; keep only its nonzero columns.
        let e_full = a.submatrix(&rows, &sep_rows);
        let e_cols = e_full.nonzero_columns();
        let e_hat = e_full.submatrix(&(0..rows.len()).collect::<Vec<_>>(), &e_cols);
        // F_ℓ = A[sep, rows]; keep only its nonzero rows.
        let f_full = a.submatrix(&sep_rows, &rows);
        let f_rows = f_full.nonzero_rows();
        let f_hat = f_full.submatrix(&f_rows, &(0..rows.len()).collect::<Vec<_>>());
        #[cfg(debug_assertions)]
        {
            // Validity: interior nnz must equal D + E contributions.
            let interior_nnz: usize = rows.iter().map(|&r| a.row_nnz(r)).sum();
            debug_assert_eq!(
                interior_nnz,
                d.nnz() + e_full.nnz(),
                "subdomain {l} has entries outside D and E — invalid DBBD partition"
            );
        }
        domains.push(LocalDomain {
            rows,
            d,
            e_cols,
            e_hat,
            f_rows,
            f_hat,
        });
    }
    DbbdSystem {
        part,
        domains,
        sep_rows,
        c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{compute_partition, PartitionerKind};
    use matgen::stencil::laplace2d;

    fn system() -> (Csr, DbbdSystem) {
        let a = laplace2d(12, 12);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        (a, sys)
    }

    #[test]
    fn blocks_cover_the_matrix() {
        let (a, sys) = system();
        let interior: usize = sys.domains.iter().map(|d| d.dim()).sum();
        assert_eq!(interior + sys.nsep(), a.nrows());
        // nnz bookkeeping: D + E + F + C = nnz(A).
        let nnz_d: usize = sys.domains.iter().map(|d| d.d.nnz()).sum();
        let nnz_e: usize = sys.domains.iter().map(|d| d.e_hat.nnz()).sum();
        let nnz_f: usize = sys.domains.iter().map(|d| d.f_hat.nnz()).sum();
        assert_eq!(nnz_d + nnz_e + nnz_f + sys.c.nnz(), a.nnz());
    }

    #[test]
    fn e_hat_has_no_empty_columns() {
        let (_a, sys) = system();
        for d in &sys.domains {
            for j in 0..d.e_hat.ncols() {
                let col_nnz = (0..d.e_hat.nrows())
                    .filter(|&i| d.e_hat.get(i, j) != 0.0)
                    .count();
                assert!(col_nnz > 0, "Ê must not contain empty columns");
            }
            assert_eq!(d.e_hat.ncols(), d.e_cols.len());
            assert_eq!(d.f_hat.nrows(), d.f_rows.len());
        }
    }

    #[test]
    fn values_match_original_matrix() {
        let (a, sys) = system();
        let d0 = &sys.domains[0];
        // Spot-check D entries.
        for (li, &gi) in d0.rows.iter().enumerate().take(5) {
            for (lj, &gj) in d0.rows.iter().enumerate().take(5) {
                assert_eq!(d0.d.get(li, lj), a.get(gi, gj));
            }
        }
        // Spot-check Ê entries against global coordinates.
        for (li, &gi) in d0.rows.iter().enumerate() {
            for (lj, &sep_local) in d0.e_cols.iter().enumerate() {
                let gj = sys.sep_rows[sep_local];
                assert_eq!(d0.e_hat.get(li, lj), a.get(gi, gj));
            }
        }
    }

    #[test]
    fn symmetric_matrix_has_matching_interfaces() {
        let (_a, sys) = system();
        // For a symmetric matrix, Ê and F̂ᵀ have the same pattern.
        for d in &sys.domains {
            assert_eq!(d.e_cols, d.f_rows);
            assert_eq!(d.e_hat.nnz(), d.f_hat.nnz());
        }
    }
}
