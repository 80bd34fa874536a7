//! **Partitioning + ordering summary** — one machine-checkable record
//! per (matrix, block size): total padded zeros of the three RHS
//! orderings (natural, postorder, hypergraph) over the NGD
//! subdomains, separator sizes of unit- vs value-weighted NGD and RHB
//! with the unit-weighted partitioning times (best of 3; recorded, never
//! gated).
//!
//! The CI bench-smoke job runs this at test scale and
//! `scripts/summarize_results.py` hard-validates the output shape.

use matgen::MatrixKind;
use pdslin::interface::ehat_columns_pivot;
use pdslin::rhs_order::{column_reaches, order_columns_precomputed, padding_of_order};
use pdslin::{compute_partition_weighted, PartitionerKind, RhsOrdering, WeightScheme};
use slu::trisolve::SolveWorkspace;

pdslin_bench::json_record! {
    struct PartitionRow {
        matrix: String,
        block_size: usize,
        natural: u64,
        postorder: u64,
        hypergraph: u64,
        true_nnz: u64,
        ngd_sep: usize,
        ngd_vw_sep: usize,
        rhb_sep: usize,
        rhb_vw_sep: usize,
        ngd_time_s: f64,
        rhb_time_s: f64,
    }
}

/// Separator size and wall time of one partitioning.
fn separator(a: &sparsekit::Csr, kind: &PartitionerKind, w: WeightScheme) -> (usize, f64) {
    let t = std::time::Instant::now();
    let sep = compute_partition_weighted(a, 8, kind, w).separator_size();
    (sep, t.elapsed().as_secs_f64())
}

/// Unit-weighted separator size and best-of-3 wall time.
fn unit_separator(a: &sparsekit::Csr, kind: &PartitionerKind) -> (usize, f64) {
    let runs = [(); 3].map(|()| separator(a, kind, WeightScheme::Unit));
    let best = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    (runs[0].0, best)
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let kinds = [
        MatrixKind::Tdr190k,
        MatrixKind::DdsLinear,
        MatrixKind::Matrix211,
        MatrixKind::G3Circuit,
    ];
    let blocks = [30usize, 60, 120];
    let orderings = [
        RhsOrdering::Natural,
        RhsOrdering::Postorder,
        RhsOrdering::Hypergraph { tau: Some(0.4) },
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let (a, sys, factors) = pdslin_bench::ngd_factored_system(kind, scale, 8);
        let (ngd_sep, ngd_time_s) = unit_separator(&a, &PartitionerKind::Ngd);
        let ngd_vw_sep = separator(&a, &PartitionerKind::Ngd, WeightScheme::ValueScaled).0;
        let rhb = PartitionerKind::Rhb(Default::default());
        let (rhb_sep, rhb_time_s) = unit_separator(&a, &rhb);
        let rhb_vw_sep = separator(&a, &rhb, WeightScheme::ValueScaled).0;
        let domain_data: Vec<_> = sys
            .domains
            .iter()
            .zip(&factors)
            .map(|(dom, fd)| {
                let n = fd.lu.n();
                let mut ws = SolveWorkspace::new(n);
                let cols = ehat_columns_pivot(fd, dom);
                let reaches = column_reaches(&cols, &fd.lu.l, &mut ws);
                (cols, reaches, n)
            })
            .collect();
        println!(
            "\n{}: separators NGD {} / {} (vw) in {:.4} s, RHB {} / {} (vw) in {:.4} s",
            kind.name(),
            ngd_sep,
            ngd_vw_sep,
            ngd_time_s,
            rhb_sep,
            rhb_vw_sep,
            rhb_time_s
        );
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12}",
            "B", "natural", "postorder", "hypergraph", "true_nnz"
        );
        for &b in &blocks {
            let mut padded = [0u64; 3];
            let mut true_nnz = 0u64;
            for (i, &ord) in orderings.iter().enumerate() {
                let mut tn = 0u64;
                for (cols, reaches, n) in &domain_data {
                    let order = order_columns_precomputed(cols, reaches, *n, b, ord);
                    let (p, t) = padding_of_order(reaches, *n, &order, b);
                    padded[i] += p;
                    tn += t;
                }
                true_nnz = tn;
            }
            println!(
                "{:<6} {:>12} {:>12} {:>12} {:>12}",
                b, padded[0], padded[1], padded[2], true_nnz
            );
            rows.push(PartitionRow {
                matrix: kind.name().to_string(),
                block_size: b,
                natural: padded[0],
                postorder: padded[1],
                hypergraph: padded[2],
                true_nnz,
                ngd_sep,
                ngd_vw_sep,
                rhb_sep,
                rhb_vw_sep,
                ngd_time_s,
                rhb_time_s,
            });
        }
    }
    pdslin_bench::write_json("BENCH_partition", &rows);
}
