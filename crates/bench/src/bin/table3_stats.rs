//! **Table III** — statistics of the eight interior subdomains and
//! interfaces: nnz(G), nnzcol(G), nnzrow(G), effective density and
//! fill-ratio (min/max over the subdomains) for the tdr190k, dds.quad,
//! dds.linear and matrix211 analogues, under the Table-III setting
//! (NGD with 8 subdomains, minimum-degree ordering per subdomain).

use matgen::MatrixKind;
use pdslin::interface::{compute_interface, InterfaceConfig};

pdslin_bench::json_record! {
    struct Table3Row {
        matrix: String,
        which: String, // "min" or "max" over the 8 subdomains
        nnz_g: u64,
        nnzcol_g: usize,
        nnzrow_g: usize,
        eff_density: f64,
        fill_ratio: f64,
        // Blocked G/W solves of that subdomain (B = 60, postorder):
        // numeric seconds, and the symbolic scaffolding beside them.
        solve_seconds: f64,
        symbolic_seconds: f64,
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
    let mut rows = Vec::new();
    println!("Table III: subdomain/interface statistics (NGD, k=8)");
    println!(
        "{:<12} {:<4} {:>12} {:>10} {:>10} {:>11} {:>11} {:>9} {:>9}",
        "matrix", "", "nnzG", "nnzcolG", "nnzrowG", "eff.dens.", "fill-ratio", "solve s", "symb. s"
    );
    for kind in kinds {
        let (_a, sys, factors) = pdslin_bench::ngd_factored_system(kind, scale, 8);
        // Per-subdomain G statistics, as the driver records them.
        let per: Vec<_> = sys
            .domains
            .iter()
            .zip(&factors)
            .map(|(dom, fd)| compute_interface(fd, dom, &InterfaceConfig::default()).stats)
            .collect();
        for which in ["min", "max"] {
            // Min/max by nnzG (the paper reports row-wise min/max
            // per-column; we follow its convention of extremal
            // subdomains).
            let sel = if which == "min" {
                per.iter().min_by_key(|p| p.nnz_g).unwrap()
            } else {
                per.iter().max_by_key(|p| p.nnz_g).unwrap()
            };
            println!(
                "{:<12} {:<4} {:>12} {:>10} {:>10} {:>11.4} {:>11.1} {:>9.4} {:>9.4}",
                if which == "min" { kind.name() } else { "" },
                which,
                sel.nnz_g,
                sel.nnzcol_g,
                sel.nnzrow_g,
                sel.effective_density(),
                sel.fill_ratio(),
                sel.solve_seconds,
                sel.symbolic_seconds
            );
            rows.push(Table3Row {
                matrix: kind.name().to_string(),
                which: which.to_string(),
                nnz_g: sel.nnz_g,
                nnzcol_g: sel.nnzcol_g,
                nnzrow_g: sel.nnzrow_g,
                eff_density: sel.effective_density(),
                fill_ratio: sel.fill_ratio(),
                solve_seconds: sel.solve_seconds,
                symbolic_seconds: sel.symbolic_seconds,
            });
        }
    }
    pdslin_bench::write_json("table3_stats", &rows);
}
