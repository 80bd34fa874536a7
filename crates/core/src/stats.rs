//! Statistics records shared by the driver and the experiment harnesses.

use crate::recovery::RecoveryReport;

/// Wall-clock seconds of each PDSLin phase (the stacked bars of Fig. 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Computing the DBBD partition.
    pub partition: f64,
    /// Extracting the local systems.
    pub extract: f64,
    /// `LU(D)`: factorisation of the interior subdomains.
    pub lu_d: f64,
    /// `Comp(S)`: interface solves + `T̃` products + assembly of `S̃`.
    pub comp_s: f64,
    /// `LU(S)`: factorisation of the approximate Schur complement.
    pub lu_s: f64,
    /// Iterative solution + back-substitution.
    pub solve: f64,
}

impl PhaseTimes {
    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.partition + self.extract + self.lu_d + self.comp_s + self.lu_s + self.solve
    }

    /// Preconditioner-construction portion (everything before `solve`).
    pub fn setup(&self) -> f64 {
        self.total() - self.solve
    }
}

/// Per-subdomain cost observations (feed the Fig. 1 schedule model).
#[derive(Clone, Debug, Default)]
pub struct DomainCosts {
    /// Seconds to factor each `D_ℓ`.
    pub lu_d: Vec<f64>,
    /// Seconds of interface work (`G`, `W`, `T̃`) per subdomain.
    pub comp_s: Vec<f64>,
}

/// Interface-solve statistics per subdomain (Table III columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct InterfaceStats {
    /// Structural nonzeros of `G_ℓ`.
    pub nnz_g: u64,
    /// Columns of `G_ℓ` with at least one nonzero.
    pub nnzcol_g: usize,
    /// Rows of `G_ℓ` with at least one nonzero.
    pub nnzrow_g: usize,
    /// Structural nonzeros of `Ê_ℓ`.
    pub nnz_e: u64,
    /// Padded zeros incurred by the blocked solve of `G_ℓ`.
    pub padded_zeros: u64,
    /// Padding fraction `padded / (padded + true)` for `G_ℓ`.
    pub padding_fraction: f64,
    /// Seconds spent in the blocked triangular solves (numeric only).
    pub solve_seconds: f64,
    /// Seconds spent building the symbolic scaffolding of those solves:
    /// RHS ordering, blocked-solve plans, the `Uᵀ` transpose. On a
    /// replayed [`crate::interface::InterfacePlan`] only the `Uᵀ` value
    /// refresh remains.
    pub symbolic_seconds: f64,
    /// Seconds spent in the `T̃_ℓ = W̃_ℓ G̃_ℓ` product.
    pub product_seconds: f64,
    /// Multiply-adds of that product, `Σ_{w̃_ik ≠ 0} nnz(G̃_{k,:})`
    /// ([`sparsekit::spgemm::spgemm_nnz_bound`]): a work count that
    /// depends only on the patterns, so host noise cannot move it.
    pub product_madds: u64,
}

impl InterfaceStats {
    /// Effective density `nnz_G / (nnzcol_G × nnzrow_G)` (Table III).
    pub fn effective_density(&self) -> f64 {
        let d = self.nnzcol_g as f64 * self.nnzrow_g as f64;
        if d == 0.0 {
            0.0
        } else {
            self.nnz_g as f64 / d
        }
    }

    /// Fill ratio `nnz_G / nnz_E` (Table III).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz_e == 0 {
            0.0
        } else {
            self.nnz_g as f64 / self.nnz_e as f64
        }
    }
}

/// Everything recorded during `Pdslin::setup`.
#[derive(Clone, Debug, Default)]
pub struct SetupStats {
    /// Phase wall-clock times.
    pub times: PhaseTimes,
    /// Per-subdomain cost observations.
    pub domain_costs: DomainCosts,
    /// Separator size `n_S`.
    pub separator_size: usize,
    /// Dimension of each subdomain.
    pub dims: Vec<usize>,
    /// Nonzeros of each `D_ℓ`.
    pub nnz_d: Vec<usize>,
    /// Nonzero columns of each `Ê_ℓ`.
    pub nnzcol_e: Vec<usize>,
    /// Nonzeros of each `E_ℓ`.
    pub nnz_e: Vec<usize>,
    /// Interface statistics per subdomain.
    pub interface: Vec<InterfaceStats>,
    /// nnz of the assembled approximate Schur complement `S̃`.
    pub nnz_schur: usize,
    /// nnz of each subdomain's update matrix `T̃_ℓ` (gather volume).
    pub nnz_t: Vec<usize>,
    /// Subdomain factorisations actually computed during this setup.
    /// Zero when every factor came from a checkpoint.
    pub factorizations: usize,
    /// Subdomain factorisations reused from a checkpoint instead of
    /// being recomputed (see `Pdslin::resume`).
    pub factorizations_reused: usize,
    /// Incremental numeric refactorizations performed by
    /// `Pdslin::update_values` (subdomain and Schur factors combined).
    pub refactorizations: usize,
    /// Refactorizations that could not replay the stored pivot sequence
    /// and fell back to a full factorization of that factor.
    pub refactorization_fallbacks: usize,
    /// Every recovery action taken during setup (empty on a clean run).
    pub recovery: RecoveryReport,
}

/// `max/min` balance ratio of a sequence (∞ if the minimum is zero).
pub fn balance_ratio<T: Into<f64> + Copy>(xs: &[T]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for &x in xs {
        let v: f64 = x.into();
        min = min.min(v);
        max = max.max(v);
    }
    if xs.is_empty() {
        return 0.0;
    }
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals() {
        let t = PhaseTimes {
            partition: 1.0,
            extract: 0.5,
            lu_d: 2.0,
            comp_s: 3.0,
            lu_s: 1.5,
            solve: 1.0,
        };
        assert!((t.total() - 9.0).abs() < 1e-12);
        assert!((t.setup() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn balance_ratio_basics() {
        assert!((balance_ratio(&[2.0f64, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(balance_ratio(&[0.0f64, 1.0]), f64::INFINITY);
        assert_eq!(balance_ratio::<f64>(&[]), 0.0);
    }

    #[test]
    fn interface_derived_quantities() {
        let s = InterfaceStats {
            nnz_g: 50,
            nnzcol_g: 5,
            nnzrow_g: 20,
            nnz_e: 10,
            ..Default::default()
        };
        assert!((s.effective_density() - 0.5).abs() < 1e-12);
        assert!((s.fill_ratio() - 5.0).abs() < 1e-12);
    }
}
