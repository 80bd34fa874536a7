//! The implicit Schur operator and its `LU(S̃)` preconditioner.
//!
//! Both are built for the steady-state solve path: they *borrow* the
//! factors (no per-solve clone of `LU(S̃)`), carry caller-owned scratch
//! so repeated applies allocate nothing, and route every triangular
//! solve through the level-scheduled plans cached in [`LuFactors`] —
//! parallel when `workers > 1`, byte-identical to serial either way.

use std::cell::RefCell;

use krylov::{LinearOperator, Preconditioner};
use slu::{LuFactors, TriScratch};

use crate::extract::DbbdSystem;
use crate::subdomain::FactoredDomain;

/// Right preconditioner `z = S̃⁻¹ r` backed by borrowed LU factors of
/// the approximate Schur complement.
#[derive(Debug)]
pub struct SchurPrecond<'a> {
    lu: &'a LuFactors,
    scratch: &'a RefCell<TriScratch>,
    workers: usize,
}

impl<'a> SchurPrecond<'a> {
    /// Wraps the factors of `S̃` for serial application.
    pub fn new(lu: &'a LuFactors, scratch: &'a RefCell<TriScratch>) -> Self {
        Self::with_workers(lu, scratch, 1)
    }

    /// Wraps the factors with `workers` threads per triangular solve.
    pub fn with_workers(
        lu: &'a LuFactors,
        scratch: &'a RefCell<TriScratch>,
        workers: usize,
    ) -> Self {
        SchurPrecond {
            lu,
            scratch,
            workers,
        }
    }
}

impl Preconditioner for SchurPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.lu
            .solve_into(r, z, &mut self.scratch.borrow_mut(), self.workers);
    }
}

/// Per-domain buffers of one [`ImplicitSchur`] application.
#[derive(Debug, Default)]
struct DomainApplyScratch {
    ysub: Vec<f64>,
    v: Vec<f64>,
    t: Vec<f64>,
    w: Vec<f64>,
    tri: TriScratch,
}

/// Reusable buffers for [`ImplicitSchur::apply`]: the per-domain
/// restriction/solve/product vectors plus the nnz-balanced chunks of
/// `C` (computed once per worker count). One instance per concurrently
/// solving caller; wrapped in a `RefCell` so the `&self` operator trait
/// can still mutate it.
#[derive(Debug, Default)]
pub struct SchurApplyScratch {
    domains: Vec<DomainApplyScratch>,
    c_chunks: Vec<std::ops::Range<usize>>,
    chunk_workers: usize,
    allocations: u64,
    resets: u64,
}

impl SchurApplyScratch {
    /// Fresh, empty scratch.
    pub fn new() -> SchurApplyScratch {
        SchurApplyScratch::default()
    }

    fn prepare(&mut self, sys: &DbbdSystem, workers: usize) {
        self.resets += 1;
        let mut grew = false;
        if self.domains.len() != sys.domains.len() {
            self.domains.clear();
            self.domains
                .resize_with(sys.domains.len(), DomainApplyScratch::default);
            grew = true;
        }
        for (ds, dom) in self.domains.iter_mut().zip(&sys.domains) {
            if ds.ysub.len() != dom.e_cols.len() {
                ds.ysub.resize(dom.e_cols.len(), 0.0);
                grew = true;
            }
            if ds.v.len() != dom.dim() {
                ds.v.resize(dom.dim(), 0.0);
                ds.t.resize(dom.dim(), 0.0);
                grew = true;
            }
            if ds.w.len() != dom.f_rows.len() {
                ds.w.resize(dom.f_rows.len(), 0.0);
                grew = true;
            }
        }
        // A single-worker apply ignores the chunks but keeps them: a
        // lane alternates between plain solves (all threads inside the
        // kernels) and batches (one thread per lane), and must not
        // rebuild them at every change.
        if workers > 1 && self.chunk_workers != workers {
            self.c_chunks = sys.c.nnz_balanced_chunks(workers);
            self.chunk_workers = workers;
            grew = true;
        }
        if grew {
            self.allocations += 1;
        }
    }

    /// Number of times the buffers actually grew (flat in steady state).
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of operator applications served.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// The *implicit* global Schur complement
/// `S y = C y − Σ_ℓ F̂_ℓ D_ℓ⁻¹ (Ê_ℓ y)` (equation (3)) — PDSLin never
/// forms `S`; GMRES only applies it.
pub struct ImplicitSchur<'a> {
    sys: &'a DbbdSystem,
    factors: &'a [FactoredDomain],
    scratch: &'a RefCell<SchurApplyScratch>,
    workers: usize,
}

impl<'a> ImplicitSchur<'a> {
    /// Builds the serial operator from the extracted system, the
    /// subdomain factors (one per subdomain, same order) and a
    /// caller-owned scratch.
    pub fn new(
        sys: &'a DbbdSystem,
        factors: &'a [FactoredDomain],
        scratch: &'a RefCell<SchurApplyScratch>,
    ) -> Self {
        Self::with_workers(sys, factors, scratch, 1)
    }

    /// [`ImplicitSchur::new`] with `workers` threads for the `C`
    /// matvec and each subdomain triangular solve. The result is
    /// byte-identical for every worker count.
    pub fn with_workers(
        sys: &'a DbbdSystem,
        factors: &'a [FactoredDomain],
        scratch: &'a RefCell<SchurApplyScratch>,
        workers: usize,
    ) -> Self {
        assert_eq!(sys.domains.len(), factors.len());
        ImplicitSchur {
            sys,
            factors,
            scratch,
            workers,
        }
    }
}

impl LinearOperator for ImplicitSchur<'_> {
    fn n(&self) -> usize {
        self.sys.nsep()
    }

    fn apply(&self, y: &[f64], out: &mut [f64]) {
        let mut s = self.scratch.borrow_mut();
        s.prepare(self.sys, self.workers);
        // out = C y
        if self.workers > 1 && s.c_chunks.len() > 1 {
            self.sys.c.matvec_into_chunks(y, out, &s.c_chunks);
        } else {
            self.sys.c.matvec_into(y, out);
        }
        // out -= Σ F̂ D⁻¹ (Ê y)
        for ((dom, fd), ds) in self
            .sys
            .domains
            .iter()
            .zip(self.factors)
            .zip(s.domains.iter_mut())
        {
            // Restrict y to the columns Ê touches.
            for (slot, &c) in ds.ysub.iter_mut().zip(&dom.e_cols) {
                *slot = y[c];
            }
            dom.e_hat.matvec_into(&ds.ysub, &mut ds.v);
            fd.lu
                .solve_into(&ds.v, &mut ds.t, &mut ds.tri, self.workers);
            dom.f_hat.matvec_into(&ds.t, &mut ds.w);
            for (rl, &rg) in dom.f_rows.iter().enumerate() {
                out[rg] -= ds.w[rl];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_dbbd;
    use crate::interface::{compute_interface, InterfaceConfig};
    use crate::partition::{compute_partition, PartitionerKind};
    use crate::rhs_order::RhsOrdering;
    use crate::schur::{assemble_schur, factor_schur};
    use crate::subdomain::factor_domain;
    use krylov::{gmres, GmresConfig};
    use matgen::stencil::laplace2d;

    #[test]
    fn implicit_schur_matches_assembled_schur() {
        let a = laplace2d(9, 9);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let factors: Vec<_> = sys
            .domains
            .iter()
            .map(|d| factor_domain(&d.d, 0.1).unwrap())
            .collect();
        let cfg = InterfaceConfig {
            block_size: 8,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let ts: Vec<_> = sys
            .domains
            .iter()
            .zip(&factors)
            .map(|(d, f)| compute_interface(f, d, &cfg).t_tilde)
            .collect();
        let s_hat = assemble_schur(&sys, &ts);
        let scratch = RefCell::new(SchurApplyScratch::new());
        let op = ImplicitSchur::new(&sys, &factors, &scratch);
        let ns = sys.nsep();
        // Compare the operator against the explicit matrix on basis-ish
        // vectors.
        let mut y = vec![0.0; ns];
        let mut out = vec![0.0; ns];
        for trial in 0..3.min(ns) {
            y.iter_mut().for_each(|v| *v = 0.0);
            y[trial * (ns - 1) / 2] = 1.0;
            op.apply(&y, &mut out);
            let reference = s_hat.matvec(&y);
            for i in 0..ns {
                assert!(
                    (out[i] - reference[i]).abs() < 1e-8,
                    "implicit/explicit S disagree at {i}"
                );
            }
        }
    }

    #[test]
    fn parallel_apply_is_byte_identical_to_serial() {
        let a = laplace2d(14, 14);
        let p = compute_partition(&a, 4, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let factors: Vec<_> = sys
            .domains
            .iter()
            .map(|d| factor_domain(&d.d, 0.1).unwrap())
            .collect();
        let ns = sys.nsep();
        let y: Vec<f64> = (0..ns).map(|i| ((i * 13 % 23) as f64) - 11.0).collect();
        let serial_scratch = RefCell::new(SchurApplyScratch::new());
        let serial = ImplicitSchur::new(&sys, &factors, &serial_scratch);
        let mut out_ref = vec![0.0; ns];
        serial.apply(&y, &mut out_ref);
        for w in [2usize, 4, 7] {
            let scratch = RefCell::new(SchurApplyScratch::new());
            let op = ImplicitSchur::with_workers(&sys, &factors, &scratch, w);
            let mut out = vec![f64::NAN; ns];
            op.apply(&y, &mut out);
            assert_eq!(out, out_ref, "workers {w}");
        }
    }

    #[test]
    fn apply_scratch_is_reused_across_applications() {
        let a = laplace2d(9, 9);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let factors: Vec<_> = sys
            .domains
            .iter()
            .map(|d| factor_domain(&d.d, 0.1).unwrap())
            .collect();
        let scratch = RefCell::new(SchurApplyScratch::new());
        let op = ImplicitSchur::new(&sys, &factors, &scratch);
        let ns = sys.nsep();
        let y = vec![1.0; ns];
        let mut out = vec![0.0; ns];
        op.apply(&y, &mut out);
        let after_first = scratch.borrow().allocations();
        for _ in 0..5 {
            op.apply(&y, &mut out);
        }
        assert_eq!(scratch.borrow().allocations(), after_first);
        assert_eq!(scratch.borrow().resets(), 6);
    }

    #[test]
    fn preconditioned_gmres_on_schur_converges_fast() {
        let a = laplace2d(12, 12);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let factors: Vec<_> = sys
            .domains
            .iter()
            .map(|d| factor_domain(&d.d, 0.1).unwrap())
            .collect();
        let cfg = InterfaceConfig {
            block_size: 16,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let ts: Vec<_> = sys
            .domains
            .iter()
            .zip(&factors)
            .map(|(d, f)| compute_interface(f, d, &cfg).t_tilde)
            .collect();
        let s_hat = assemble_schur(&sys, &ts);
        let (_st, lu) = factor_schur(&s_hat, 0.0, 0.1).unwrap();
        let op_scratch = RefCell::new(SchurApplyScratch::new());
        let op = ImplicitSchur::new(&sys, &factors, &op_scratch);
        let pre_scratch = RefCell::new(TriScratch::new());
        let m = SchurPrecond::new(&lu, &pre_scratch);
        let b = vec![1.0; sys.nsep()];
        let r = gmres(&op, &m, &b, None, &GmresConfig::default());
        assert!(r.converged);
        // Exact preconditioner ⇒ a couple of iterations.
        assert!(r.iterations <= 3, "took {} iterations", r.iterations);
    }
}
