//! The four workloads: pinned matrices, solver settings and seeded
//! right-hand sides. Sizes are constants, not scaled by any environment
//! variable. The seed feeds the right-hand sides only: reseeding the
//! `fusion_like` generator moved set-up time, refactor time and peak
//! memory of `fusion_rhb` by 10–25 % between seeds (different fill),
//! which would drown any change to the code, so its seed is pinned too.

use hypergraph::RhbConfig;
use pdslin::{PartitionerKind, PdslinConfig};
use sparsekit::{Csr, Rng64};

/// Right-hand sides of one `solve_many` batch.
pub const BATCH: usize = 16;

/// Generator seed of the `fusion_rhb` matrix (the matrix211 analogue).
const FUSION_SEED: u64 = 211;

/// One workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Graded 3-D cavity, tight drop tolerances: separator, Schur
    /// assembly and `LU(S̃)` dominate; GMRES converges in 2 iterations.
    CavitySchur,
    /// Unsymmetric multi-field grid under RHB: the only workload where
    /// `hypergraph` does most of the work and `graphpart::nd` none.
    FusionRhb,
    /// Large circuit grid, loose drop tolerances: a weak preconditioner,
    /// so Krylov, SpMV and the triangular sweeps dominate the solves.
    CircuitKrylov,
    /// The same operations through the daemon's jsonl transport.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CavitySchur,
        Workload::FusionRhb,
        Workload::CircuitKrylov,
        Workload::ServiceMixed,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CavitySchur => "cavity_schur",
            Workload::FusionRhb => "fusion_rhb",
            Workload::CircuitKrylov => "circuit_krylov",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's matrix.
    pub fn matrix(self) -> Csr {
        match self {
            Workload::CavitySchur => matgen::stencil::cavity3d_graded(18, 18, 18, 4.0, 0.34),
            Workload::FusionRhb => matgen::fusion::fusion_like(32, 32, 7, FUSION_SEED),
            Workload::CircuitKrylov => matgen::circuit::g3_like(180, 180),
            Workload::ServiceMixed => matgen::circuit::g3_like(60, 60),
        }
    }

    /// The pinned generator call and solver settings, as JSON fields.
    pub fn sizes_json(self) -> &'static str {
        match self {
            Workload::CavitySchur => {
                "\"matrix\":\"cavity3d_graded(18,18,18,4.0,0.34)\",\"n\":5832,\"k\":8,\
                 \"block_size\":60,\"partitioner\":\"ngd\",\"drop_tol\":1e-8"
            }
            Workload::FusionRhb => {
                "\"matrix\":\"fusion_like(32,32,7,211)\",\"n\":7168,\"k\":8,\
                 \"block_size\":60,\"partitioner\":\"rhb\",\"drop_tol\":1e-8"
            }
            Workload::CircuitKrylov => {
                "\"matrix\":\"g3_like(180,180)\",\"n\":32400,\"k\":8,\
                 \"block_size\":60,\"partitioner\":\"ngd\",\"drop_tol\":1e-2"
            }
            Workload::ServiceMixed => {
                "\"matrix\":\"g3_like(60,60)\",\"n\":3600,\"k\":8,\
                 \"block_size\":60,\"partitioner\":\"ngd\",\"drop_tol\":1e-8"
            }
        }
    }

    /// Solver settings: the defaults (`k = 8`, `B = 60`, NGD, postorder
    /// RHS ordering, drop tolerances 1e-8) except where the workload's
    /// point is the exception.
    pub fn config(self) -> PdslinConfig {
        let base = PdslinConfig::default();
        match self {
            Workload::CavitySchur | Workload::ServiceMixed => base,
            // The RHS ordering stays at postorder: the row-net
            // hypergraph ordering lifts Comp(S) fivefold here and would
            // bury the partitioner this workload exists to show.
            Workload::FusionRhb => PdslinConfig {
                partitioner: PartitionerKind::Rhb(RhbConfig::default()),
                ..base
            },
            Workload::CircuitKrylov => PdslinConfig {
                interface_drop_tol: 1e-2,
                schur_drop_tol: 1e-2,
                ..base
            },
        }
    }
}

/// A₁ of a refactor step: `a`'s pattern under values drifted by 1 %.
/// Every refactor sample is the step A₀ → A₁ on a fresh solver, so each
/// replays the same pattern, values and flop count (noise rule 2).
pub fn drifted(a: &Csr) -> Csr {
    matgen::sequence(a, 2, 0.01).swap_remove(1)
}

/// The `index`-th right-hand side of a run: uniform in `[-1, 1)`, a
/// function of `(seed, index)` only.
pub fn rhs(seed: u64, index: usize, n: usize) -> Vec<f64> {
    let mut rng = Rng64::new(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| rng.f64_range(-1.0, 1.0)).collect()
}

/// The right-hand sides of one batch (indices `1..=BATCH`; index 0 is
/// the single-solve vector).
pub fn rhs_batch(seed: u64, n: usize) -> Vec<Vec<f64>> {
    (1..=BATCH).map(|j| rhs(seed, j, n)).collect()
}
