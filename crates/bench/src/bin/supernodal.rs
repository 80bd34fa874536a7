//! Ablation: padding at **column** granularity (our Fig. 4 accounting)
//! vs **supernodal** granularity (the paper's solver pads whole
//! supernodes). Shows how much extra padding supernode rounding adds on
//! top of the block-union padding, per RHS ordering. The column padding
//! is that of the driver's blocked solve; the supernodal padding is
//! symbolic (`slu::supernodal_padding`) on the same blocks.

use matgen::MatrixKind;
use pdslin::interface::ehat_columns_pivot;
use pdslin::rhs_order::{column_reaches, order_columns_precomputed};
use pdslin::{Budget, RhsOrdering};
use slu::supernodes::{detect_supernodes, supernodal_padding};
use slu::trisolve::{SolveWorkspace, SparseVec};
use slu::{BlockSolveStats, ReachGraph};

pdslin_bench::json_record! {
    struct SupernodalRow {
        matrix: String,
        ordering: String,
        block_size: usize,
        column_padding_fraction: f64,
        supernodal_padding_fraction: f64,
        supernode_count: usize,
        max_supernode: usize,
    }
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let kind = MatrixKind::Tdr190k;
    let (_a, sys, factors) = pdslin_bench::ngd_factored_system(kind, scale, 8);
    let orderings = [RhsOrdering::Natural, RhsOrdering::Postorder];
    let blocks = [30usize, 60, 120];
    let unlimited = Budget::unlimited();
    let mut rows = Vec::new();
    println!("Supernodal vs column padding (tdr190k analogue, NGD k=8)");
    println!(
        "{:<12} {:<6} {:>14} {:>16} {:>8} {:>8}",
        "ordering", "B", "column pad", "supernodal pad", "#sn", "max sn"
    );
    for (dom, fd) in sys.domains.iter().zip(&factors).take(2) {
        let n = fd.lu.n();
        let l = &fd.lu.l;
        let sn = detect_supernodes(l, 0);
        let graph = ReachGraph::build(l);
        let mut ws = SolveWorkspace::new(n);
        let cols = ehat_columns_pivot(fd, dom);
        let reaches = column_reaches(&cols, l, &mut ws);
        for &ord in &orderings {
            for &b in &blocks {
                let order = order_columns_precomputed(&cols, &reaches, n, b, ord);
                let (_sols, col_stats) =
                    slu::solve_in_blocks_ordered(l, true, &cols, &order, b, &unlimited)
                        .expect("an unlimited budget never interrupts");
                let ordered: Vec<SparseVec> = order.iter().map(|&j| cols[j].clone()).collect();
                let mut sn_stats = BlockSolveStats::default();
                for chunk in ordered.chunks(b) {
                    sn_stats.merge(&supernodal_padding(&graph, &sn, chunk, &mut ws));
                }
                println!(
                    "{:<12} {:<6} {:>14.4} {:>16.4} {:>8} {:>8}",
                    ord.label(),
                    b,
                    col_stats.padding_fraction(),
                    sn_stats.padding_fraction(),
                    sn.count(),
                    sn.max_size()
                );
                rows.push(SupernodalRow {
                    matrix: kind.name().to_string(),
                    ordering: ord.label().to_string(),
                    block_size: b,
                    column_padding_fraction: col_stats.padding_fraction(),
                    supernodal_padding_fraction: sn_stats.padding_fraction(),
                    supernode_count: sn.count(),
                    max_supernode: sn.max_size(),
                });
            }
        }
    }
    pdslin_bench::write_json("supernodal_padding", &rows);
}
