//! **Fig. 4 (a–d)** — fraction of padded zeros vs block size `B` for the
//! four RHS reordering techniques (natural, postorder, hypergraph, RGB),
//! reported as min/avg/max over the eight subdomains, on the tdr190k,
//! dds.quad, dds.linear and matrix211 analogues.
//!
//! Purely symbolic: per-column reaches are computed once per subdomain
//! and padding is counted from equation (14) for every (ordering, B).

use matgen::MatrixKind;
use pdslin::interface::ehat_columns_pivot;
use pdslin::rhs_order::{column_reaches, order_columns_precomputed, padding_of_order};
use pdslin::RhsOrdering;
use slu::trisolve::SolveWorkspace;

pdslin_bench::json_record! {
    struct Fig4Row {
        matrix: String,
        ordering: String,
        block_size: usize,
        min: f64,
        avg: f64,
        max: f64,
    }
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let kinds = [
        MatrixKind::Tdr190k,
        MatrixKind::DdsQuad,
        MatrixKind::DdsLinear,
        MatrixKind::Matrix211,
    ];
    let blocks = [10usize, 30, 60, 90, 120, 180, 240, 300];
    let orderings = [
        RhsOrdering::Natural,
        RhsOrdering::Postorder,
        RhsOrdering::Hypergraph { tau: Some(0.4) },
        RhsOrdering::Rgb,
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let (_a, sys, factors) = pdslin_bench::ngd_factored_system(kind, scale, 8);
        // Reaches once per subdomain.
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
            "\nFig 4 ({}): fraction of padded zeros (min/avg/max over 8 subdomains)",
            kind.name()
        );
        println!(
            "{:<6} {:>28} {:>28} {:>28} {:>28}",
            "B", "natural", "postorder", "hypergraph", "rgb"
        );
        for &b in &blocks {
            let mut cells = Vec::new();
            for &ord in &orderings {
                let fractions: Vec<f64> = domain_data
                    .iter()
                    .map(|(cols, reaches, n)| {
                        let order = order_columns_precomputed(cols, reaches, *n, b, ord);
                        let (padded, true_nnz) = padding_of_order(reaches, *n, &order, b);
                        if padded + true_nnz == 0 {
                            0.0
                        } else {
                            padded as f64 / (padded + true_nnz) as f64
                        }
                    })
                    .collect();
                let (lo, av, hi) = pdslin_bench::min_avg_max(&fractions);
                cells.push(format!("{lo:.3}/{av:.3}/{hi:.3}"));
                rows.push(Fig4Row {
                    matrix: kind.name().to_string(),
                    ordering: ord.label().to_string(),
                    block_size: b,
                    min: lo,
                    avg: av,
                    max: hi,
                });
            }
            println!(
                "{:<6} {:>28} {:>28} {:>28} {:>28}",
                b, cells[0], cells[1], cells[2], cells[3]
            );
        }
    }
    pdslin_bench::write_json("fig4_padding", &rows);
}
