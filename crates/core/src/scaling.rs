//! The two-level parallel schedule model behind the Fig. 1 core sweep.
//!
//! The paper runs PDSLin on a Cray XE6 with up to 1024 cores in a
//! *two-level* configuration: `k` subdomains, `p/k` processes per
//! subdomain (SuperLU_DIST inside each). This workspace executes on a
//! single node, so core counts beyond the host are **modelled**: we
//! measure every subdomain's sequential phase cost (`LU(D_ℓ)`,
//! `Comp(S_ℓ)`) and predict the parallel makespan with an
//! Amdahl/communication model calibrated to the published SuperLU_DIST
//! scaling character (sub-linear speedup `p^α` plus a log-p latency
//! term). The *relative* behaviour across partitioners — who wins and
//! why — comes from the measured per-subdomain cost distribution, not
//! from the model constants. See DESIGN.md §3.

use crate::stats::{DomainCosts, PhaseTimes};

/// Model constants.
#[derive(Clone, Copy, Debug)]
pub struct ScalingModel {
    /// Intra-domain speedup exponent for the LU factorisation
    /// (`speedup(p) = p^alpha_lu`).
    pub alpha_lu: f64,
    /// Intra-domain speedup exponent for triangular solves / SpGEMM.
    pub alpha_solve: f64,
    /// Per-level communication latency (seconds per `log₂ p`).
    pub comm_latency: f64,
    /// Fraction of each phase that does not parallelise.
    pub serial_fraction: f64,
}

impl Default for ScalingModel {
    fn default() -> Self {
        ScalingModel {
            alpha_lu: 0.75,
            alpha_solve: 0.55,
            comm_latency: 5e-3,
            serial_fraction: 0.02,
        }
    }
}

/// Predicted phase breakdown at a given core count (one Fig. 1 bar).
#[derive(Clone, Copy, Debug)]
pub struct PredictedTimes {
    /// Total cores.
    pub cores: usize,
    /// `LU(D)` seconds.
    pub lu_d: f64,
    /// `Comp(S)` seconds.
    pub comp_s: f64,
    /// `LU(S)` seconds.
    pub lu_s: f64,
    /// Iterative-solve seconds.
    pub solve: f64,
}

impl PredictedTimes {
    /// Sum over phases.
    pub fn total(&self) -> f64 {
        self.lu_d + self.comp_s + self.lu_s + self.solve
    }
}

/// Speedup of each sweep point relative to the first (Fig.-1 analysis
/// helper).
pub fn speedups(sweep: &[PredictedTimes]) -> Vec<f64> {
    match sweep.first() {
        None => Vec::new(),
        Some(base) => sweep.iter().map(|p| base.total() / p.total()).collect(),
    }
}

impl ScalingModel {
    fn speedup(&self, cost: f64, procs: f64, alpha: f64) -> f64 {
        let par = cost * (1.0 - self.serial_fraction);
        let ser = cost * self.serial_fraction;
        ser + par / procs.powf(alpha)
    }

    /// Predicts the schedule at `cores` total cores with `k` subdomains:
    /// each subdomain gets `cores/k` processes, subdomain phases run
    /// concurrently (makespan = slowest subdomain), and the Schur phases
    /// use all cores.
    pub fn predict(
        &self,
        costs: &DomainCosts,
        sequential: &PhaseTimes,
        k: usize,
        cores: usize,
    ) -> PredictedTimes {
        assert!(k >= 1 && cores >= 1);
        let per_dom = (cores as f64 / k as f64).max(1.0);
        let comm = self.comm_latency * (cores as f64).log2().max(0.0);
        let lu_d = costs
            .lu_d
            .iter()
            .map(|&c| self.speedup(c, per_dom, self.alpha_lu))
            .fold(0.0f64, f64::max)
            + comm;
        let comp_s = costs
            .comp_s
            .iter()
            .map(|&c| self.speedup(c, per_dom, self.alpha_solve))
            .fold(0.0f64, f64::max)
            + comm;
        let lu_s = self.speedup(sequential.lu_s, cores as f64, self.alpha_lu) + comm;
        let solve = self.speedup(sequential.solve, cores as f64, self.alpha_solve) + comm;
        PredictedTimes {
            cores,
            lu_d,
            comp_s,
            lu_s,
            solve,
        }
    }

    /// Predicts the whole Fig. 1 sweep.
    pub fn sweep(
        &self,
        costs: &DomainCosts,
        sequential: &PhaseTimes,
        k: usize,
        core_counts: &[usize],
    ) -> Vec<PredictedTimes> {
        core_counts
            .iter()
            .map(|&p| self.predict(costs, sequential, k, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> (DomainCosts, PhaseTimes) {
        let dc = DomainCosts {
            lu_d: vec![4.0, 5.0, 3.0, 4.5],
            comp_s: vec![8.0, 12.0, 7.0, 9.0],
        };
        let seq = PhaseTimes {
            lu_s: 6.0,
            solve: 2.0,
            ..Default::default()
        };
        (dc, seq)
    }

    #[test]
    fn more_cores_never_slower_in_core_range() {
        let (dc, seq) = costs();
        let m = ScalingModel::default();
        let sweep = m.sweep(&dc, &seq, 4, &[8, 32, 128, 512]);
        for w in sweep.windows(2) {
            assert!(
                w[1].total() <= w[0].total() + 1e-9,
                "total must not increase: {} -> {}",
                w[0].total(),
                w[1].total()
            );
        }
    }

    #[test]
    fn makespan_tracks_slowest_subdomain() {
        let (mut dc, seq) = costs();
        let m = ScalingModel::default();
        let base = m.predict(&dc, &seq, 4, 8);
        // Making one subdomain dominant should grow the phase makespan.
        dc.comp_s[1] = 50.0;
        let skewed = m.predict(&dc, &seq, 4, 8);
        assert!(skewed.comp_s > base.comp_s * 2.0);
    }

    #[test]
    fn balanced_costs_beat_imbalanced_at_equal_work() {
        // Same total work, different balance: the balanced distribution
        // must win — this is exactly the RHB-vs-NGD effect of Fig. 3.
        let m = ScalingModel::default();
        let seq = PhaseTimes::default();
        let balanced = DomainCosts {
            lu_d: vec![5.0; 4],
            comp_s: vec![10.0; 4],
        };
        let skewed = DomainCosts {
            lu_d: vec![2.0, 2.0, 2.0, 14.0],
            comp_s: vec![4.0, 4.0, 4.0, 28.0],
        };
        let b = m.predict(&balanced, &seq, 4, 32);
        let s = m.predict(&skewed, &seq, 4, 32);
        assert!(b.total() < s.total());
    }

    #[test]
    fn speedups_behave() {
        let (dc, seq) = costs();
        let m = ScalingModel::default();
        let sweep = m.sweep(&dc, &seq, 4, &[8, 64, 512]);
        let s = speedups(&sweep);
        assert_eq!(s[0], 1.0);
        assert!(s[1] > 1.0 && s[2] >= s[1]);
    }

    #[test]
    fn one_core_recovers_serial_cost_scale() {
        let (dc, seq) = costs();
        let m = ScalingModel::default();
        let p = m.predict(&dc, &seq, 4, 4); // one core per subdomain
                                            // With one process per domain there is no intra-domain speedup.
        assert!((p.lu_d - (5.0 + m.comm_latency * 2.0)).abs() < 1e-9);
    }
}
