//! **§V-B(c)** — effect of removing quasi-dense rows before the
//! hypergraph RHS partitioning: setup (partitioning) time and padded-zero
//! fraction as a function of the density threshold τ, on the tdr190k
//! analogue (NGD, k = 8, B = 60).

use matgen::MatrixKind;
use pdslin::RhsOrdering;
use pdslin_bench::g_solve_experiment;

pdslin_bench::json_record! {
    struct QdRow {
        tau: f64,
        avg_padding_fraction: f64,
        total_order_seconds: f64,
        total_solve_seconds: f64,
    }
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let (_a, sys, factors) = pdslin_bench::ngd_factored_system(MatrixKind::Tdr190k, scale, 8);
    let b = 60usize;
    // τ = 1.1 keeps every nonempty row (density can't exceed 1.0).
    let taus = [1.1f64, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05];
    let mut rows = Vec::new();
    println!("Quasi-dense row removal (tdr190k analogue, B=60, hypergraph ordering)");
    println!(
        "{:<8} {:>14} {:>16} {:>16}",
        "tau", "avg padding", "order time (s)", "solve time (s)"
    );
    for &tau in &taus {
        let mut fracs = Vec::new();
        let mut order_secs = 0.0;
        let mut solve_secs = 0.0;
        for (dom, fd) in sys.domains.iter().zip(&factors) {
            let (stats, solve_s, order_s) =
                g_solve_experiment(fd, dom, b, RhsOrdering::Hypergraph { tau: Some(tau) });
            fracs.push(stats.padding_fraction());
            order_secs += order_s;
            solve_secs += solve_s;
        }
        let (_lo, avg, _hi) = pdslin_bench::min_avg_max(&fracs);
        println!("{tau:<8} {avg:>14.4} {order_secs:>16.3} {solve_secs:>16.3}");
        rows.push(QdRow {
            tau,
            avg_padding_fraction: avg,
            total_order_seconds: order_secs,
            total_solve_seconds: solve_secs,
        });
    }
    pdslin_bench::write_json("quasidense", &rows);
}
