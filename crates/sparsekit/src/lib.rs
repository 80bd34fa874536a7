//! `sparsekit` — from-scratch sparse-matrix kernels for `pdslin-rs`.
//!
//! This crate supplies the sparse linear-algebra substrate the rest of the
//! workspace is built on: triplet (COO) assembly, compressed sparse row /
//! column storage, permutations, structural operations (transpose,
//! symmetrisation, submatrix extraction), sparse matrix–matrix products,
//! and Matrix Market I/O.
//!
//! Everything here is deliberately dependency-free and deterministic; the
//! higher layers (`graphpart`, `hypergraph`, `slu`, `pdslin`) only consume
//! the types exported from this crate root.
//!
//! # Conventions
//!
//! * Indices are `usize`, values are `f64`.
//! * CSR/CSC column (row) indices are **sorted** within each row (column)
//!   and duplicate-free; constructors enforce this.
//! * A [`Perm`] maps *new* indices to *old* indices (`to_old`), with the
//!   inverse map (`to_new`) precomputed.
//!
//! # Example
//!
//! ```
//! use sparsekit::Coo;
//!
//! // Assemble a 2x2 matrix [[2, -1], [-1, 2]] from triplets.
//! let mut coo = Coo::new(2, 2);
//! coo.push(0, 0, 2.0);
//! coo.push_sym(0, 1, -1.0);
//! coo.push(1, 1, 2.0);
//! let a = coo.to_csr();
//! assert_eq!(a.matvec(&[1.0, 1.0]), vec![1.0, 1.0]);
//! assert!(a.value_symmetric(1e-12));
//! ```

pub mod budget;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod fingerprint;
pub mod io;
pub mod isa;
pub mod lanes;
pub mod ops;
pub mod par;
pub mod perm;
pub mod rng;
pub mod spgemm;

pub use budget::{Budget, BudgetInterrupt, CancelToken};
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use fingerprint::{csr_fingerprint, csr_pattern_fingerprint, csr_value_fingerprint, Fnv64};
pub use perm::Perm;
pub use rng::Rng64;
