//! Shows the approximate-Schur preconditioner at work: GMRES on the
//! implicit Schur complement with and without `LU(S̃)`, across drop
//! thresholds (the sparsity/iterations trade-off of PDSLin).
//!
//! ```sh
//! cargo run --release --example schur_gmres
//! ```

use std::cell::RefCell;

use krylov::{gmres, GmresConfig, IdentityPrecond};
use pdslin::interface::{compute_interface, InterfaceConfig};
use pdslin::precond::{ImplicitSchur, SchurApplyScratch, SchurPrecond, SchurSweeps};
use pdslin::schur::{assemble_schur, factor_schur};
use pdslin::subdomain::factor_domain;
use pdslin::{compute_partition, extract_dbbd, PartitionerKind, RhsOrdering};

fn main() {
    let a = matgen::stencil::laplace3d(14, 14, 14);
    let part = compute_partition(&a, 4, &PartitionerKind::Ngd);
    let sys = extract_dbbd(&a, part);
    let factors: Vec<_> = sys
        .domains
        .iter()
        .map(|d| factor_domain(&d.d, 0.1).expect("LU(D)"))
        .collect();
    let icfg = InterfaceConfig {
        block_size: 60,
        ordering: RhsOrdering::Postorder,
        drop_tol: 0.0,
    };
    let t_tildes: Vec<_> = sys
        .domains
        .iter()
        .zip(&factors)
        .map(|(d, f)| compute_interface(f, d, &icfg).t_tilde)
        .collect();
    let s_hat = assemble_schur(&sys, &t_tildes);
    println!(
        "Schur system: n_S = {}, nnz(Ŝ) = {} (density {:.1}%)\n",
        sys.nsep(),
        s_hat.nnz(),
        100.0 * s_hat.nnz() as f64 / (sys.nsep() * sys.nsep()) as f64
    );
    let sweeps = SchurSweeps::new(&sys, &factors);
    let apply_scratch = RefCell::new(SchurApplyScratch::new());
    let op = ImplicitSchur::new(&sys, &factors, &sweeps, &apply_scratch);
    let b = vec![1.0; sys.nsep()];
    let cfg = GmresConfig {
        restart: 60,
        max_iters: 300,
        tol: 1e-10,
    };

    let r0 = gmres(&op, &IdentityPrecond, &b, None, &cfg);
    println!(
        "{:<26} {:>6} iterations   residual {:.1e}",
        "no preconditioner", r0.iterations, r0.residual
    );
    for drop_tol in [0.0, 1e-6, 1e-3, 1e-2] {
        let (s_tilde, lu) = factor_schur(&s_hat, drop_tol, 0.1).expect("LU(S̃)");
        let tri = RefCell::new(slu::TriScratch::new());
        let m = SchurPrecond::new(&lu, &tri);
        let r = gmres(&op, &m, &b, None, &cfg);
        println!(
            "{:<26} {:>6} iterations   residual {:.1e}   nnz(S̃) = {}",
            format!("LU(S̃), drop {drop_tol:.0e}"),
            r.iterations,
            r.residual,
            s_tilde.nnz()
        );
    }
    println!("\nAggressive dropping shrinks the preconditioner but costs iterations —");
    println!("the trade-off PDSLin navigates when building S̃ (paper §I).");
}
