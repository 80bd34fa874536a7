//! **Fig. 3 (a–d)** — load balance (max/min of dim(D), nnz(D), col(E),
//! nnz(E)), separator size and normalised PDSLin time for `tdr190k`,
//! with k = 8 and k = 32, single- and multi-constraint RHB under the
//! three cut metrics, against the NGD baseline.

use hypergraph::{ConstraintMode, CutMetric, RhbConfig};
use pdslin::{PartitionStats, PartitionerKind, Pdslin, PdslinConfig};

pdslin_bench::json_record! {
    struct Fig3Row {
        k: usize,
        constraint: String,
        algorithm: String,
        separator: usize,
        dim_balance: f64,
        nnz_d_balance: f64,
        col_e_balance: f64,
        nnz_e_balance: f64,
        total_seconds: f64,
        normalized_time: f64,
        iterations: usize,
    }
}

fn run(a: &sparsekit::Csr, k: usize, kind: PartitionerKind) -> (PartitionStats, f64, usize) {
    let cfg = PdslinConfig {
        k,
        partitioner: kind,
        parallel: false,
        schur_drop_tol: 1e-4,
        interface_drop_tol: 1e-6,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(a, cfg).expect("setup");
    let b = vec![1.0; a.nrows()];
    let out = solver.solve(&b).expect("solve");
    let part = solver.sys.part.clone();
    let stats = PartitionStats::compute(a, &part);
    // The paper's §V configuration: one process per subdomain, so the
    // subdomain phases cost their maximum and imbalance shows up as time.
    let one_level = pdslin_bench::one_level_parallel_setup(&solver.stats) + out.seconds;
    (stats, one_level, out.iterations)
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let a = matgen::generate(matgen::MatrixKind::Tdr190k, scale);
    eprintln!("tdr190k analogue: n={} nnz={}", a.nrows(), a.nnz());
    let metrics = [CutMetric::Con1, CutMetric::Cnet, CutMetric::Soed];
    let mut rows: Vec<Fig3Row> = Vec::new();
    for &k in &[8usize, 32] {
        // NGD baseline first: its time normalises the group.
        let (ngd_stats, ngd_time, ngd_iters) = run(&a, k, PartitionerKind::Ngd);
        for constraint in [ConstraintMode::Single, ConstraintMode::Multi] {
            let cname = if constraint == ConstraintMode::Single {
                "single"
            } else {
                "multi"
            };
            println!("\nFig 3: k={k}, {cname}-constraint (time normalised to NGD)");
            println!(
                "{:<10} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}",
                "alg", "sep", "dim(D)", "nnz(D)", "col(E)", "nnz(E)", "time", "iters"
            );
            for &metric in &metrics {
                let cfg = RhbConfig {
                    metric,
                    constraint,
                    ..Default::default()
                };
                let (st, time, iters) = run(&a, k, PartitionerKind::Rhb(cfg));
                let mname = match metric {
                    CutMetric::Con1 => "CON1",
                    CutMetric::Cnet => "CNET",
                    CutMetric::Soed => "SOED",
                };
                println!(
                    "{:<10} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>6}",
                    mname,
                    st.separator_size,
                    st.dim_balance(),
                    st.nnz_d_balance(),
                    st.col_e_balance(),
                    st.nnz_e_balance(),
                    time / ngd_time,
                    iters
                );
                rows.push(Fig3Row {
                    k,
                    constraint: cname.to_string(),
                    algorithm: mname.to_string(),
                    separator: st.separator_size,
                    dim_balance: st.dim_balance(),
                    nnz_d_balance: st.nnz_d_balance(),
                    col_e_balance: st.col_e_balance(),
                    nnz_e_balance: st.nnz_e_balance(),
                    total_seconds: time,
                    normalized_time: time / ngd_time,
                    iterations: iters,
                });
            }
            println!(
                "{:<10} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>6}",
                "PT-SCOTCH*",
                ngd_stats.separator_size,
                ngd_stats.dim_balance(),
                ngd_stats.nnz_d_balance(),
                ngd_stats.col_e_balance(),
                ngd_stats.nnz_e_balance(),
                1.0,
                ngd_iters
            );
            rows.push(Fig3Row {
                k,
                constraint: cname.to_string(),
                algorithm: "NGD".to_string(),
                separator: ngd_stats.separator_size,
                dim_balance: ngd_stats.dim_balance(),
                nnz_d_balance: ngd_stats.nnz_d_balance(),
                col_e_balance: ngd_stats.col_e_balance(),
                nnz_e_balance: ngd_stats.nnz_e_balance(),
                total_seconds: ngd_time,
                normalized_time: 1.0,
                iterations: ngd_iters,
            });
        }
    }
    println!("\n(* our from-scratch multilevel NGD stands in for PT-Scotch)");
    pdslin_bench::write_json("fig3_balance", &rows);
}
