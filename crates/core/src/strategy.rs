//! Automatic strategy selection: cheap structural features of the input
//! matrix → partitioner + weighting + RHS ordering + block size.
//!
//! The paper's experiments (Tables I–II, Figs. 3–4) show that no single
//! configuration wins across the Table-I suite: graded cavity meshes
//! want RHB's multi-constraint balancing, circuit matrices with
//! quasi-dense rails want value-scaled net costs, and the best RHS
//! ordering flips between postorder and the hypergraph/RGB layouts with
//! the density of the interface columns. [`select_strategy`] encodes
//! those observations as deterministic thresholds over features sampled
//! in `O(nnz of sampled rows)` time, so the CLI and the service can pick
//! a sensible configuration without a trial factorization.
//!
//! Everything here is deterministic: sampling uses a fixed stride, never
//! randomness, so the same matrix always maps to the same [`Strategy`]
//! from any thread.

use graphpart::WeightScheme;
use hypergraph::RhbConfig;
use sparsekit::Csr;

use crate::partition::PartitionerKind;
use crate::rhs_order::RhsOrdering;

/// Cheap structural features of a matrix, sampled deterministically.
#[derive(Clone, Copy, Debug)]
pub struct MatrixFeatures {
    /// Matrix dimension.
    pub n: usize,
    /// Total stored nonzeros.
    pub nnz: usize,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
    /// Maximum nonzeros in a single row.
    pub max_row_nnz: usize,
    /// `max_row_nnz / avg_row_nnz` — row-density skew; rails and hubs in
    /// circuit matrices push this far above the ~1–3 of mesh stencils.
    pub row_skew: f64,
    /// Largest sampled `|i − j| / n` — the relative bandwidth.
    pub bandwidth_frac: f64,
    /// Fraction of sampled off-diagonal entries whose structural mirror
    /// `(j, i)` is also stored (1.0 for symmetric patterns).
    pub symmetry: f64,
    /// `log10(max |a_ij| / min |a_ij|)` over sampled nonzero
    /// off-diagonal entries — the dynamic range (in decades) of the
    /// coefficients. Weak couplings far below the typical magnitude
    /// (power rails, controlled sources) push this up.
    pub value_spread: f64,
}

/// Rows sampled (evenly strided) when measuring per-row features.
const SAMPLE_ROWS: usize = 512;

/// Samples [`MatrixFeatures`] from `a` with a fixed stride — the same
/// matrix always yields the same features.
pub fn sample_features(a: &Csr) -> MatrixFeatures {
    let n = a.nrows();
    let nnz = a.nnz();
    if n == 0 {
        return MatrixFeatures {
            n,
            nnz,
            avg_row_nnz: 0.0,
            max_row_nnz: 0,
            row_skew: 1.0,
            bandwidth_frac: 0.0,
            symmetry: 1.0,
            value_spread: 0.0,
        };
    }
    let avg_row_nnz = nnz as f64 / n as f64;
    // max row nnz is exact (indptr diff is O(n) and branch-free).
    let mut max_row_nnz = 0usize;
    for i in 0..n {
        max_row_nnz = max_row_nnz.max(a.row_nnz(i));
    }
    let stride = (n / SAMPLE_ROWS).max(1);
    let mut band = 0usize;
    let mut mirrored = 0usize;
    let mut offdiag = 0usize;
    let mut max_abs = 0.0f64;
    let mut min_abs = f64::INFINITY;
    let mut i = 0usize;
    while i < n {
        for (j, v) in a.row_iter(i) {
            if j == i {
                continue;
            }
            offdiag += 1;
            band = band.max(i.abs_diff(j));
            if a.row_indices(j).binary_search(&i).is_ok() {
                mirrored += 1;
            }
            let m = v.abs();
            if m > 0.0 && m.is_finite() {
                max_abs = max_abs.max(m);
                min_abs = min_abs.min(m);
            }
        }
        i += stride;
    }
    let symmetry = if offdiag == 0 {
        1.0
    } else {
        mirrored as f64 / offdiag as f64
    };
    let value_spread = if min_abs.is_finite() && max_abs > 0.0 {
        (max_abs / min_abs).log10().max(0.0)
    } else {
        0.0
    };
    MatrixFeatures {
        n,
        nnz,
        avg_row_nnz,
        max_row_nnz,
        row_skew: if avg_row_nnz > 0.0 {
            max_row_nnz as f64 / avg_row_nnz
        } else {
            1.0
        },
        bandwidth_frac: band as f64 / n as f64,
        symmetry,
        value_spread,
    }
}

/// A complete configuration choice made by the selector.
#[derive(Clone, Copy, Debug)]
pub struct Strategy {
    /// Chosen DBBD partitioner.
    pub partitioner: PartitionerKind,
    /// Chosen edge/net weighting.
    pub weights: WeightScheme,
    /// Chosen RHS ordering for the interface solves.
    pub ordering: RhsOrdering,
    /// Chosen block size `B`.
    pub block_size: usize,
    /// Why this strategy was picked (for logs and the bench harness).
    pub rationale: &'static str,
}

impl Strategy {
    /// Applies the choice onto a [`crate::PdslinConfig`], leaving the
    /// unrelated fields (tolerances, Krylov, fault plan) untouched.
    pub fn apply(&self, cfg: &mut crate::PdslinConfig) {
        cfg.partitioner = self.partitioner;
        cfg.weights = self.weights;
        cfg.rhs_ordering = self.ordering;
        cfg.block_size = self.block_size;
    }
}

/// Row-density skew above which a matrix is treated as "circuit-like"
/// (hubs / rails) rather than mesh-like.
pub const SKEW_CIRCUIT: f64 = 8.0;
/// Structural-symmetry fraction below which postorder (which never
/// inspects the unsymmetric pattern twice) is preferred. Symmetric
/// patterns sample exactly 1.0, so the margin only has to separate
/// "truly unsymmetric" from sampling noise.
pub const SYMMETRY_MESH: f64 = 0.95;
/// Coefficient dynamic range (decades) above which value-scaled weights
/// are worth the extra symbolic work.
pub const SPREAD_VALUE_SCALED: f64 = 2.0;
/// Mean row density above which the dense-stencil block size applies.
pub const DENSE_ROW_NNZ: f64 = 20.0;

/// Selects a full [`Strategy`] for `a` from sampled features.
///
/// Deterministic: same matrix → same strategy, on every run and thread.
pub fn select_strategy(a: &Csr) -> Strategy {
    let f = sample_features(a);
    select_from_features(&f)
}

/// The decision tree behind [`select_strategy`], exposed so tests (and
/// docs/partitioning.md) can pin its behaviour feature-by-feature.
pub fn select_from_features(f: &MatrixFeatures) -> Strategy {
    // Block size: dense stencil rows saturate the union-pattern earlier,
    // so smaller blocks pad less; sparse rows amortise better at B=60.
    let block_size = if f.avg_row_nnz >= DENSE_ROW_NNZ || f.n < 4096 {
        30
    } else {
        60
    };
    let weights = if f.value_spread > SPREAD_VALUE_SCALED {
        WeightScheme::ValueScaled
    } else {
        WeightScheme::Unit
    };
    if f.row_skew > SKEW_CIRCUIT {
        // Circuit-like: hubs blow up NGD separators (Fig. 3); RHB's
        // net-cost model isolates them, and the quasi-dense τ filter
        // keeps the rails out of the RHS hypergraph.
        return Strategy {
            partitioner: PartitionerKind::Rhb(RhbConfig::default()),
            weights,
            ordering: RhsOrdering::Hypergraph { tau: Some(0.4) },
            block_size,
            rationale: "circuit-like row skew: RHB + quasi-dense filter",
        };
    }
    if f.symmetry < SYMMETRY_MESH {
        // Unsymmetric mesh (fusion): the symmetrised hypergraph model is
        // a poor proxy, postorder on the factor rows is more reliable.
        return Strategy {
            partitioner: PartitionerKind::Ngd,
            weights,
            ordering: RhsOrdering::Postorder,
            block_size,
            rationale: "unsymmetric pattern: NGD + postorder",
        };
    }
    if f.avg_row_nnz < 10.0 {
        // Sparse symmetric grids (power grid): reaches are long and
        // thin, the RGB sequence layout clusters them well and its
        // natural-order guard makes it safe.
        return Strategy {
            partitioner: PartitionerKind::Rhb(RhbConfig::default()),
            weights,
            ordering: RhsOrdering::Rgb,
            block_size,
            rationale: "sparse symmetric grid: RHB + RGB layout",
        };
    }
    // Dense symmetric stencils (cavities): the paper's headline RHB +
    // hypergraph-ordering configuration.
    Strategy {
        partitioner: PartitionerKind::Rhb(RhbConfig::default()),
        weights,
        ordering: RhsOrdering::Hypergraph { tau: None },
        block_size,
        rationale: "dense symmetric mesh: RHB + hypergraph ordering",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgen::suite::{generate, MatrixKind, Scale};

    #[test]
    fn features_detect_symmetry_and_skew() {
        let g3 = generate(MatrixKind::G3Circuit, Scale::Test);
        let f = sample_features(&g3);
        assert!(f.symmetry > 0.99, "G3 is symmetric, got {}", f.symmetry);
        let m211 = generate(MatrixKind::Matrix211, Scale::Test);
        let f = sample_features(&m211);
        assert!(
            f.symmetry < SYMMETRY_MESH,
            "m211 unsymmetric, got {}",
            f.symmetry
        );
        let asic = generate(MatrixKind::Asic680ks, Scale::Test);
        let f = sample_features(&asic);
        assert!(f.row_skew > SKEW_CIRCUIT, "ASIC rails, got {}", f.row_skew);
    }

    #[test]
    fn empty_matrix_does_not_panic() {
        let a = sparsekit::Coo::new(0, 0).to_csr();
        let f = sample_features(&a);
        assert_eq!(f.n, 0);
        let _ = select_from_features(&f);
    }

    #[test]
    fn print_features_for_threshold_tuning() {
        for kind in MatrixKind::ALL {
            for scale in [Scale::Test, Scale::Bench] {
                let a = generate(kind, scale);
                let f = sample_features(&a);
                let s = select_from_features(&f);
                println!(
                    "{:12} {:?}: n={:6} avg={:5.1} skew={:5.1} sym={:.3} spread={:.2} -> {} {} {} B={}",
                    kind.name(),
                    scale,
                    f.n,
                    f.avg_row_nnz,
                    f.row_skew,
                    f.symmetry,
                    f.value_spread,
                    s.partitioner.label(),
                    s.weights.label(),
                    s.ordering.label(),
                    s.block_size
                );
            }
        }
    }
}
