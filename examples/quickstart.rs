//! Quickstart: solve a sparse linear system with the PDSLin-style hybrid
//! solver in a few lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pdslin::{Pdslin, PdslinConfig};
use sparsekit::ops::residual_inf_norm;

fn main() {
    // A 3-D Poisson problem (n = 13 824).
    let a = matgen::stencil::laplace3d(24, 24, 24);
    println!("matrix: n = {}, nnz = {}", a.nrows(), a.nnz());

    // Configure the hybrid solver: 8 interior subdomains, defaults
    // everywhere else (NGD partitioner, postorder RHS ordering, B = 60).
    let cfg = PdslinConfig {
        k: 8,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(&a, cfg).expect("setup failed");
    println!(
        "setup: separator = {}, nnz(S̃) = {}, phases (s): partition {:.2}, LU(D) {:.2}, Comp(S) {:.2}, LU(S) {:.2}",
        solver.stats.separator_size,
        solver.stats.nnz_schur,
        solver.stats.times.partition,
        solver.stats.times.lu_d,
        solver.stats.times.comp_s,
        solver.stats.times.lu_s,
    );

    // Solve A x = b.
    let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let out = solver.solve(&b).expect("solve failed");
    println!(
        "solve: {} GMRES iterations on the Schur system, {:.2}s",
        out.iterations, out.seconds
    );
    println!(
        "residual ‖b − Ax‖∞ = {:.3e}",
        residual_inf_norm(&a, &out.x, &b)
    );
}
