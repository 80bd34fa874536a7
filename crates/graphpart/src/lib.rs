//! `graphpart` — multilevel graph partitioning and fill-reducing orderings.
//!
//! This crate is the workspace's substitute for PT-Scotch / ParMETIS: it
//! provides the **nested graph dissection (NGD)** baseline the paper
//! compares against, built from the classical multilevel toolbox:
//!
//! * heavy-edge matching coarsening ([`matching`], [`coarsen`]);
//! * greedy graph-growing initial bisection ([`initpart`]);
//! * Fiduccia–Mattheyses boundary refinement ([`fm`]);
//! * edge-separator → vertex-separator conversion ([`separator`]);
//! * the recursive [`nd`] driver producing doubly-bordered block-diagonal
//!   (DBBD) partitions and full nested-dissection orderings;
//! * fill-reducing orderings for subdomain factorisation
//!   ([`ordering::mindeg`]).
//!
//! All algorithms are deterministic.
//!
//! # Example
//!
//! ```
//! use graphpart::{nested_dissection, Graph, NdConfig, SEPARATOR};
//! use sparsekit::Coo;
//!
//! // A 4x4 grid graph, dissected into 2 subdomains + separator.
//! let mut coo = Coo::new(16, 16);
//! for i in 0..4usize {
//!     for j in 0..4usize {
//!         let v = i * 4 + j;
//!         coo.push(v, v, 4.0);
//!         if i + 1 < 4 { coo.push_sym(v, v + 4, -1.0); }
//!         if j + 1 < 4 { coo.push_sym(v, v + 1, -1.0); }
//!     }
//! }
//! let g = Graph::from_matrix(&coo.to_csr());
//! let part = nested_dissection(&g, 2, &NdConfig::default());
//! assert!(part.separator_size() > 0);
//! assert!(part.subdomain_sizes().iter().all(|&s| s > 0));
//! ```

pub mod coarsen;
pub mod fm;
pub mod graph;
pub mod initpart;
pub mod matching;
pub mod nd;
pub mod ordering;
pub mod separator;
pub mod trim;

pub use graph::{magnitude_weight, median_offdiag_magnitude, Adjacency, Graph, WeightScheme};
pub use nd::{nested_dissection, DbbdPartition, NdConfig, SEPARATOR};
pub use ordering::mindeg::min_degree_order;
pub use trim::trim_separator;
