//! The paper's Table-I matrix suite, as named synthetic analogues.

use sparsekit::Csr;

use crate::circuit::{asic_like, g3_like};
use crate::fusion::fusion_like;
use crate::stencil::{cavity3d, cavity3d_graded};

/// The seven test matrices of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatrixKind {
    /// Accelerator cavity, 1.1M rows, 39 nnz/row, symmetric, indefinite.
    Tdr190k,
    /// Accelerator cavity, 2.7M rows, 41 nnz/row, symmetric, indefinite.
    Tdr455k,
    /// Accelerator cavity (quadratic elements), 42 nnz/row.
    DdsQuad,
    /// Accelerator cavity (linear elements), 16 nnz/row.
    DdsLinear,
    /// Tokamak fusion (CEMM), 70 nnz/row, unsymmetric pattern.
    Matrix211,
    /// Circuit simulation, ~2 nnz/row, quasi-dense rails.
    Asic680ks,
    /// Circuit simulation (power grid), ~5 nnz/row, SPD.
    G3Circuit,
}

impl MatrixKind {
    /// All seven kinds, in Table-I order.
    pub const ALL: [MatrixKind; 7] = [
        MatrixKind::Tdr190k,
        MatrixKind::Tdr455k,
        MatrixKind::DdsQuad,
        MatrixKind::DdsLinear,
        MatrixKind::Matrix211,
        MatrixKind::Asic680ks,
        MatrixKind::G3Circuit,
    ];

    /// The paper's name of the matrix.
    pub fn name(&self) -> &'static str {
        match self {
            MatrixKind::Tdr190k => "tdr190k",
            MatrixKind::Tdr455k => "tdr455k",
            MatrixKind::DdsQuad => "dds.quad",
            MatrixKind::DdsLinear => "dds.linear",
            MatrixKind::Matrix211 => "matrix211",
            MatrixKind::Asic680ks => "ASIC_680ks",
            MatrixKind::G3Circuit => "G3_circuit",
        }
    }

    /// Resolves a kind by its paper name, ignoring case and `.`/`_`/`-`
    /// (`"dds.quad"`, `"ddsquad"` and `"DDS_QUAD"` are the same kind).
    /// The error lists the valid names.
    pub fn from_name(name: &str) -> Result<MatrixKind, String> {
        let norm = |s: &str| s.to_ascii_lowercase().replace(['.', '_', '-'], "");
        let wanted = norm(name);
        MatrixKind::ALL
            .into_iter()
            .find(|kind| norm(kind.name()) == wanted)
            .ok_or_else(|| {
                format!(
                    "unknown matrix '{name}' (expected one of: {})",
                    MatrixKind::ALL.map(|k| k.name()).join(", ")
                )
            })
    }
}

/// Generation scale: analogue sizes are reduced from the paper's
/// million-row originals to workstation scale (see DESIGN.md §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small instances for unit/integration tests (n ≈ 2–10 k).
    Test,
    /// Benchmark instances for the experiment harnesses (n ≈ 30–130 k).
    Bench,
}

impl Scale {
    /// Resolves `"test"` or `"bench"`.
    pub fn from_name(name: &str) -> Result<Scale, String> {
        match name {
            "test" => Ok(Scale::Test),
            "bench" => Ok(Scale::Bench),
            other => Err(format!("unknown scale '{other}' (test|bench)")),
        }
    }
}

/// Generates the analogue of a Table-I matrix at the given scale.
///
/// All generators are deterministic.
pub fn generate(kind: MatrixKind, scale: Scale) -> Csr {
    match (kind, scale) {
        // Cavity matrices: indefinite high-order 3-D stencils. The tdr
        // pair is graded (locally refined), which is what produces the
        // NGD nnz-imbalance of Fig. 3.
        (MatrixKind::Tdr190k, Scale::Test) => cavity3d_graded(14, 14, 14, 4.0, 0.34),
        (MatrixKind::Tdr190k, Scale::Bench) => cavity3d_graded(30, 30, 30, 4.0, 0.34),
        (MatrixKind::Tdr455k, Scale::Test) => cavity3d_graded(18, 18, 18, 4.0, 0.34),
        (MatrixKind::Tdr455k, Scale::Bench) => cavity3d_graded(38, 38, 38, 4.0, 0.34),
        (MatrixKind::DdsQuad, Scale::Test) => cavity3d(12, 12, 12, 2.0, true),
        (MatrixKind::DdsQuad, Scale::Bench) => cavity3d(26, 26, 26, 2.0, true),
        (MatrixKind::DdsLinear, Scale::Test) => {
            // Linear elements: 7-pt + a few diagonal couplings (~16/row).
            let offs = vec![
                (1i64, 0i64, 0i64, -1.0),
                (0, 1, 0, -1.0),
                (0, 0, 1, -1.0),
                (1, 1, 0, -0.5),
                (0, 1, 1, -0.5),
                (1, 0, 1, -0.5),
                (1, 1, 1, -0.25),
            ];
            crate::stencil::stencil3d(16, 16, 16, &offs, 5.0)
        }
        (MatrixKind::DdsLinear, Scale::Bench) => {
            let offs = vec![
                (1i64, 0i64, 0i64, -1.0),
                (0, 1, 0, -1.0),
                (0, 0, 1, -1.0),
                (1, 1, 0, -0.5),
                (0, 1, 1, -0.5),
                (1, 0, 1, -0.5),
                (1, 1, 1, -0.25),
            ];
            crate::stencil::stencil3d(34, 34, 34, &offs, 5.0)
        }
        (MatrixKind::Matrix211, Scale::Test) => fusion_like(16, 16, 7, 211),
        (MatrixKind::Matrix211, Scale::Bench) => fusion_like(44, 44, 7, 211),
        (MatrixKind::Asic680ks, Scale::Test) => asic_like(6_000, 680),
        (MatrixKind::Asic680ks, Scale::Bench) => asic_like(40_000, 680),
        (MatrixKind::G3Circuit, Scale::Test) => g3_like(60, 60),
        (MatrixKind::G3Circuit, Scale::Bench) => g3_like(220, 220),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::avg_nnz_per_row;

    #[test]
    fn matrix_kind_resolution() {
        for (name, kind) in [
            ("tdr190k", MatrixKind::Tdr190k),
            ("dds.quad", MatrixKind::DdsQuad),
            ("ddsquad", MatrixKind::DdsQuad),
            ("ASIC_680ks", MatrixKind::Asic680ks),
        ] {
            assert_eq!(MatrixKind::from_name(name), Ok(kind), "{name}");
        }
        let err = MatrixKind::from_name("nope").unwrap_err();
        assert!(err.contains("G3_circuit"), "{err}");
        assert_eq!(Scale::from_name("bench").unwrap(), Scale::Bench);
        assert!(Scale::from_name("huge").is_err());
    }

    #[test]
    fn all_test_scale_matrices_generate() {
        for kind in MatrixKind::ALL {
            let a = generate(kind, Scale::Test);
            assert!(a.nrows() > 1000, "{} too small: {}", kind.name(), a.nrows());
            assert_eq!(a.nrows(), a.ncols());
            assert!(
                a.nnz() > a.nrows(),
                "{} must be more than diagonal",
                kind.name()
            );
        }
    }

    #[test]
    fn fingerprints_match_table1_shape() {
        // nnz/row ordering between families must follow Table I:
        // matrix211 > tdr/dds.quad > dds.linear > G3 > ASIC.
        let tdr = avg_nnz_per_row(&generate(MatrixKind::Tdr190k, Scale::Test));
        let m211 = avg_nnz_per_row(&generate(MatrixKind::Matrix211, Scale::Test));
        let lin = avg_nnz_per_row(&generate(MatrixKind::DdsLinear, Scale::Test));
        let g3 = avg_nnz_per_row(&generate(MatrixKind::G3Circuit, Scale::Test));
        let asic = avg_nnz_per_row(&generate(MatrixKind::Asic680ks, Scale::Test));
        assert!(m211 > tdr, "fusion denser than cavity ({m211} vs {tdr})");
        assert!(tdr > lin, "quad cavity denser than linear ({tdr} vs {lin})");
        assert!(lin > g3, "cavity denser than power grid ({lin} vs {g3})");
        assert!(g3 > asic, "grid denser than ASIC ({g3} vs {asic})");
    }

    #[test]
    fn symmetry_fingerprints() {
        assert!(generate(MatrixKind::Tdr190k, Scale::Test).value_symmetric(1e-12));
        assert!(!generate(MatrixKind::Matrix211, Scale::Test).pattern_symmetric());
        assert!(generate(MatrixKind::Asic680ks, Scale::Test).pattern_symmetric());
        assert!(generate(MatrixKind::G3Circuit, Scale::Test).value_symmetric(1e-12));
    }

    #[test]
    fn bench_scale_is_larger() {
        let t = generate(MatrixKind::G3Circuit, Scale::Test);
        let b = generate(MatrixKind::G3Circuit, Scale::Bench);
        assert!(b.nrows() > 10 * t.nrows());
    }
}
