//! Demonstrates the §IV sparse right-hand-side reorderings: natural vs
//! postorder vs hypergraph, with the padded-zero fractions and blocked
//! triangular-solve times they produce on one PDSLin subdomain.
//!
//! ```sh
//! cargo run --release --example rhs_reordering
//! ```

use pdslin::interface::ehat_columns_pivot;
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind, RhsOrdering};
use pdslin_bench::g_solve_experiment;

fn main() {
    let a = matgen::generate(matgen::MatrixKind::Tdr190k, matgen::Scale::Test);
    let part = compute_partition(&a, 8, &PartitionerKind::Ngd);
    let sys = extract_dbbd(&a, part);
    let dom = &sys.domains[0];
    let fd = factor_domain(&dom.d, 0.1).expect("subdomain LU");
    let ncols = ehat_columns_pivot(&fd, dom).len();
    println!(
        "subdomain 0: dim(D) = {}, Ê has {} columns to solve (G = L⁻¹PÊ)\n",
        dom.dim(),
        ncols
    );
    println!(
        "{:<8} {:<12} {:>16} {:>12}",
        "B", "ordering", "padded zeros", "time (s)"
    );
    for &b in &[10usize, 60, 150] {
        for ord in [
            RhsOrdering::Natural,
            RhsOrdering::Postorder,
            RhsOrdering::Hypergraph { tau: Some(0.4) },
        ] {
            let (stats, secs, _order_secs) = g_solve_experiment(&fd, dom, b, ord);
            println!(
                "{:<8} {:<12} {:>9} ({:>5.1}%) {:>12.4}",
                b,
                ord.label(),
                stats.padded_zeros,
                100.0 * stats.padding_fraction(),
                secs
            );
        }
        println!();
    }
    println!("(B = 1 is padding-free by construction; larger B pads more but amortises");
    println!(" the symbolic work — the paper's default is B = 60)");
}
