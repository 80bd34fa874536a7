//! **Fig. 5 (a–d)** — blocked sparse triangular solution time vs block
//! size `B` for the three RHS reordering techniques, min/avg/max over
//! the eight subdomains, on the tdr190k, dds.quad, dds.linear and
//! matrix211 analogues.

use matgen::MatrixKind;
use pdslin::RhsOrdering;
use pdslin_bench::g_solve_experiment;

pdslin_bench::json_record! {
    struct Fig5Row {
        matrix: String,
        ordering: String,
        block_size: usize,
        min_seconds: f64,
        avg_seconds: f64,
        max_seconds: f64,
        /// Speedup of this ordering's avg time over natural at the same B
        /// (filled for non-natural orderings).
        speedup_vs_natural: f64,
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
    let blocks = [10usize, 30, 60, 120, 240];
    let orderings = [
        RhsOrdering::Natural,
        RhsOrdering::Postorder,
        RhsOrdering::Hypergraph { tau: Some(0.4) },
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let (_a, sys, factors) = pdslin_bench::ngd_factored_system(kind, scale, 8);
        println!(
            "\nFig 5 ({}): triangular solve seconds (min/avg/max over 8 subdomains)",
            kind.name()
        );
        println!(
            "{:<6} {:>28} {:>28} {:>28}",
            "B", "natural", "postorder", "hypergraph"
        );
        for &b in &blocks {
            let mut cells = Vec::new();
            let mut natural_avg = 0.0;
            for &ord in &orderings {
                let secs: Vec<f64> = sys
                    .domains
                    .iter()
                    .zip(&factors)
                    .map(|(dom, fd)| g_solve_experiment(fd, dom, b, ord).1)
                    .collect();
                let (lo, av, hi) = pdslin_bench::min_avg_max(&secs);
                if ord == RhsOrdering::Natural {
                    natural_avg = av;
                }
                let speedup = if av > 0.0 { natural_avg / av } else { 0.0 };
                cells.push(format!("{lo:.3}/{av:.3}/{hi:.3}"));
                rows.push(Fig5Row {
                    matrix: kind.name().to_string(),
                    ordering: ord.label().to_string(),
                    block_size: b,
                    min_seconds: lo,
                    avg_seconds: av,
                    max_seconds: hi,
                    speedup_vs_natural: speedup,
                });
            }
            println!(
                "{:<6} {:>28} {:>28} {:>28}",
                b, cells[0], cells[1], cells[2]
            );
        }
    }
    pdslin_bench::write_json("fig5_trisolve", &rows);
}
