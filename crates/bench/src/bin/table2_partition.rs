//! **Table II** — partitioning statistics of the eight interior
//! subdomains with NGD vs RHB (single constraint, soed): solution time
//! (preconditioner + iterations), iteration count, separator size, and
//! min/max of dim(D), nnz(D), nnzcol(E), nnz(E), for the dds.quad,
//! dds.linear, matrix211, ASIC_680ks and G3_circuit analogues.

use matgen::MatrixKind;
use pdslin::{PartitionStats, PartitionerKind, Pdslin, PdslinConfig};

pdslin_bench::json_record! {
    struct Table2Row {
        matrix: String,
        algorithm: String,
        precond_seconds: f64,
        iter_seconds: f64,
        iterations: usize,
        separator: usize,
        dim_min: usize,
        dim_max: usize,
        nnz_d_min: usize,
        nnz_d_max: usize,
        nnzcol_e_min: usize,
        nnzcol_e_max: usize,
        nnz_e_min: usize,
        nnz_e_max: usize,
    }
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let kinds = [
        MatrixKind::DdsQuad,
        MatrixKind::DdsLinear,
        MatrixKind::Matrix211,
        MatrixKind::Asic680ks,
        MatrixKind::G3Circuit,
    ];
    let mut rows = Vec::new();
    println!("Table II: NGD vs RHB(soed, single constraint), k=8");
    println!(
        "{:<12} {:<5} {:>13} {:>6} {:>7} {:>13} {:>17} {:>13} {:>15}",
        "matrix",
        "alg",
        "time(P+it)",
        "#iter",
        "n_S",
        "dim min/max",
        "nnzD min/max",
        "colE min/max",
        "nnzE min/max"
    );
    for kind in kinds {
        let a = matgen::generate(kind, scale);
        for pk in [
            PartitionerKind::Ngd,
            PartitionerKind::Rhb(hypergraph::RhbConfig::default()),
        ] {
            let alg = if matches!(pk, PartitionerKind::Ngd) {
                "NGD"
            } else {
                "RHB"
            };
            let cfg = PdslinConfig {
                k: 8,
                partitioner: pk,
                parallel: false,
                schur_drop_tol: 1e-4,
                interface_drop_tol: 1e-6,
                ..Default::default()
            };
            let mut solver = match Pdslin::setup(&a, cfg) {
                Ok(s) => s,
                Err(e) => {
                    println!("{:<12} {:<5} setup failed: {e}", kind.name(), alg);
                    continue;
                }
            };
            let b = vec![1.0; a.nrows()];
            let out = solver.solve(&b).expect("solve");
            let st = PartitionStats::compute(&a, &solver.sys.part);
            // One-level parallel configuration (§V): one process per
            // subdomain; the preconditioner time is the makespan.
            let precond = pdslin_bench::one_level_parallel_setup(&solver.stats);
            let row = Table2Row {
                matrix: kind.name().to_string(),
                algorithm: alg.to_string(),
                precond_seconds: precond,
                iter_seconds: out.seconds,
                iterations: out.iterations,
                separator: st.separator_size,
                dim_min: *st.dims.iter().min().unwrap(),
                dim_max: *st.dims.iter().max().unwrap(),
                nnz_d_min: *st.nnz_d.iter().min().unwrap(),
                nnz_d_max: *st.nnz_d.iter().max().unwrap(),
                nnzcol_e_min: *st.nnzcol_e.iter().min().unwrap(),
                nnzcol_e_max: *st.nnzcol_e.iter().max().unwrap(),
                nnz_e_min: *st.nnz_e.iter().min().unwrap(),
                nnz_e_max: *st.nnz_e.iter().max().unwrap(),
            };
            println!(
                "{:<12} {:<5} {:>6}+{:<6} {:>6} {:>7} {:>6}/{:<6} {:>8}/{:<8} {:>6}/{:<6} {:>7}/{:<7}",
                row.matrix,
                row.algorithm,
                pdslin_bench::fmt_secs(row.precond_seconds),
                pdslin_bench::fmt_secs(row.iter_seconds),
                row.iterations,
                row.separator,
                row.dim_min,
                row.dim_max,
                row.nnz_d_min,
                row.nnz_d_max,
                row.nnzcol_e_min,
                row.nnzcol_e_max,
                row.nnz_e_min,
                row.nnz_e_max,
            );
            rows.push(row);
        }
    }
    pdslin_bench::write_json("table2_partition", &rows);
}
