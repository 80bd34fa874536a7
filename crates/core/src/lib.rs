//! `pdslin` — a Schur-complement hybrid (direct/iterative) linear solver,
//! reproducing the system studied in
//! *"On Partitioning and Reordering Problems in a Hierarchically Parallel
//! Hybrid Linear Solver"* (Yamazaki, Li, Rouet, Uçar — IPDPSW 2013).
//!
//! # Pipeline
//!
//! 1. **Partition** `A` into doubly-bordered block-diagonal form (1) with
//!    `k` interior subdomains `D_ℓ` and a separator block `C`, using
//!    either nested graph dissection (NGD baseline) or the paper's
//!    Recursive Hypergraph Bisection (RHB) — [`partition`].
//! 2. **Extract** the local systems `A_ℓ = [D_ℓ Ê_ℓ; F̂_ℓ 0]` —
//!    [`extract`].
//! 3. **Factor** each `D_ℓ = P_ℓᵀ L_ℓ U_ℓ Q_ℓᵀ` in parallel (scoped
//!    threads, one task per subdomain — [`par`]) — [`subdomain`].
//! 4. **Interface solves**: `G_ℓ = L⁻¹ P Ê_ℓ`, `W_ℓ = F̂ P̄ U⁻¹` with
//!    blocked sparse triangular solves (block size `B`), the §IV
//!    right-hand-side orderings, and threshold dropping — [`rhs_order`],
//!    [`interface`].
//! 5. **Schur assembly**: `T̃_ℓ = W̃_ℓ G̃_ℓ`, gathered into
//!    `Ŝ = C − Σ R_F T̃ R_Eᵀ`, dropped to `S̃`, factored as the
//!    preconditioner — [`schur`].
//! 6. **Iterative solve** of `S y = ĝ` with right-preconditioned GMRES on
//!    the *implicit* `S`, then back-substitution for the interiors —
//!    [`precond`], [`driver`].
//!
//! [`scaling`] adds the two-level parallel schedule model used to
//! reproduce the paper's Fig. 1 core-count sweep beyond the physical
//! cores of the host (see DESIGN.md §3).

pub mod budget;
pub mod checkpoint;
pub mod codec;
pub mod driver;
pub mod error;
pub mod extract;
pub mod fault;
pub mod interface;
pub mod par;
pub mod partition;
mod phases;
pub mod precond;
pub mod recovery;
pub mod rhs_order;
pub mod scaling;
pub mod schur;
pub mod stats;
pub mod strategy;
pub mod subdomain;

pub use budget::{Budget, BudgetInterrupt, CancelToken};
pub use checkpoint::SetupCheckpoint;
pub use driver::{
    KrylovKind, Pdslin, PdslinConfig, ScratchStats, SequencePolicy, SequenceStep, SetupFailure,
    SolveOutcome, UpdateOutcome,
};
pub use error::{ErrorCategory, PdslinError};
pub use extract::{extract_dbbd, DbbdSystem, LocalDomain};
pub use fault::FaultPlan;
pub use graphpart::{RgbConfig, WeightScheme};
pub use partition::{
    compute_partition, compute_partition_weighted, PartitionStats, PartitionerKind,
};
pub use precond::{ImplicitSchur, SchurApplyScratch, SchurPrecond};
pub use recovery::{RecoveryEvent, RecoveryReport};
pub use rhs_order::RhsOrdering;
pub use slu::{ScheduleError, TrisolveSchedule};
pub use stats::{PhaseTimes, SetupStats};
pub use strategy::{sample_features, select_strategy, MatrixFeatures, Strategy};
