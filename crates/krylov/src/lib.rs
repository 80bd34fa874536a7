//! `krylov` — preconditioned iterative solvers for the Schur complement
//! system (equation (2) of the paper).
//!
//! PDSLin never forms the global Schur complement `S` explicitly: GMRES
//! only needs `y ↦ S·y`, supplied through the [`LinearOperator`] trait,
//! and the preconditioner `LU(S̃)` through [`Preconditioner`].
//!
//! # Example
//!
//! ```
//! use krylov::{gmres, CsrOperator, GmresConfig, IdentityPrecond};
//!
//! let a = sparsekit::Csr::identity(4);
//! let op = CsrOperator::new(&a);
//! let b = vec![1.0, 2.0, 3.0, 4.0];
//! let r = gmres(&op, &IdentityPrecond, &b, None, &GmresConfig::default());
//! assert!(r.converged);
//! assert!((r.x[2] - 3.0).abs() < 1e-10);
//! ```

pub mod gmres;
pub mod operator;

pub use gmres::{
    gmres, gmres_lanes, gmres_with_workspace, GmresConfig, GmresResult, GmresWorkspace,
};
pub use operator::{CsrOperator, IdentityPrecond, JacobiPrecond, LinearOperator, Preconditioner};

/// Why a Krylov iteration stopped making progress before converging.
///
/// GMRES detects this *early* — the moment a residual or inner product
/// stops being a finite number — instead of iterating on poisoned
/// vectors until the budget runs out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Breakdown {
    /// A residual norm or inner product became NaN or ±Inf (the operator
    /// or right-hand side carries non-finite values, or the recurrence
    /// overflowed).
    NonFinite,
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Breakdown::NonFinite => write!(f, "non-finite residual (NaN/Inf detected)"),
        }
    }
}
