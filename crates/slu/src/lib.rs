//! `slu` — a from-scratch sequential sparse LU solver.
//!
//! This crate is the workspace's substitute for SuperLU_DIST. It provides
//! everything PDSLin needs from a subdomain direct solver:
//!
//! * elimination trees, postorders and fill paths ([`mod@etree`]);
//! * Gilbert–Peierls left-looking LU with threshold partial pivoting
//!   ([`lu`]);
//! * sparse triangular solves with **sparse right-hand sides** via
//!   symbolic reach (Gilbert's fill-path theorem) ([`trisolve`]), and
//!   the pruned graph that makes repeated reaches on one factor cost
//!   `O(|reach|)` ([`reach`]);
//! * blocked multi-RHS triangular solves with zero padding and
//!   padded-zero accounting — the §IV kernel of the paper ([`blocked`]) —
//!   and the same accounting rounded up to supernodes ([`supernodes`]).
//!
//! # Example
//!
//! ```
//! use slu::{LuConfig, LuFactors};
//! use sparsekit::{Coo, Perm};
//!
//! let mut coo = Coo::new(3, 3);
//! for i in 0..3 { coo.push(i, i, 2.0); }
//! coo.push_sym(0, 1, -1.0);
//! coo.push_sym(1, 2, -1.0);
//! let a = coo.to_csr();
//! let lu = LuFactors::factorize(&a, &Perm::identity(3), &LuConfig::default()).unwrap();
//! let x = lu.solve(&[1.0, 0.0, 1.0]);
//! let r = sparsekit::ops::residual_inf_norm(&a, &x, &[1.0, 0.0, 1.0]);
//! assert!(r < 1e-12);
//! ```

pub mod blocked;
mod dense;
pub mod etree;
pub mod levels;
pub mod lu;
pub mod reach;
pub mod supernodes;
pub mod trisolve;

pub use blocked::{solve_in_blocks, solve_in_blocks_ordered, BlockSolveStats};
pub use dense::dense_kernel_isa;
pub use etree::{etree, etree_permuted, postorder};
pub use levels::{plan_build_count, PositionRuns, SolvePlan, TriScratch, MAX_LANES};
pub use lu::{LuConfig, LuError, LuFactors, RefactorizeError};
pub use reach::ReachGraph;
pub use supernodes::{detect_supernodes, supernodal_padding, Supernodes};
pub use trisolve::{sparse_lower_solve, SparseVec};
