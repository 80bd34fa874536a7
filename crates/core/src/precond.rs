//! The implicit Schur operator and its `LU(S̃)` preconditioner.
//!
//! Both are built for the steady-state solve path: they *borrow* the
//! factors (no per-solve clone of `LU(S̃)`), carry caller-owned scratch
//! so repeated applies allocate nothing, and route every triangular
//! solve through the pivot-order plans cached in [`LuFactors`].
//! Both serve several right-hand sides per call (`apply_lanes`): the
//! lanes go through each `LU(D_ℓ)` / `LU(S̃)` factor in one sweep, and
//! a single apply is the one-lane instance. Every kernel runs on the
//! calling thread; a batch gets its threads from workers that each own
//! one operator and take their own groups of right-hand sides.
//!
//! The operator's `LU(D_ℓ)` sweeps are restricted ([`SchurSweeps`]): the
//! forward sweep runs only the positions `Ê_ℓ`'s nonzero rows reach, the
//! backward sweep only the positions `F̂_ℓ`'s columns depend on, and the
//! result is bit-identical to full sweeps
//! ([`slu::SolvePlan::solve_lanes_restricted`]).

use std::cell::{RefCell, RefMut};

use krylov::{LinearOperator, Preconditioner};
use slu::{LuFactors, PositionRuns, TriScratch, MAX_LANES};

use crate::extract::{DbbdSystem, LocalDomain};
use crate::subdomain::FactoredDomain;

/// Right preconditioner `z = S̃⁻¹ r` backed by borrowed LU factors of
/// the approximate Schur complement.
#[derive(Debug)]
pub struct SchurPrecond<'a> {
    lu: &'a LuFactors,
    scratch: &'a RefCell<TriScratch>,
}

impl<'a> SchurPrecond<'a> {
    /// Wraps the factors of `S̃`.
    pub fn new(lu: &'a LuFactors, scratch: &'a RefCell<TriScratch>) -> Self {
        SchurPrecond { lu, scratch }
    }
}

impl Preconditioner for SchurPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_lanes(&[r], &mut [z]);
    }

    fn apply_lanes(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.lu.solve_lanes(rs, zs, &mut self.scratch.borrow_mut());
    }
}

/// One lane's subdomain buffers, sized for the largest subdomain and
/// reused by every subdomain in turn.
#[derive(Debug, Default)]
struct LaneApplyScratch {
    /// Gather of `y` at the subdomain's interface columns.
    ysub: Vec<f64>,
    /// The right-hand side of the `LU(D_ℓ)` solve.
    v: Vec<f64>,
    /// Its solution.
    t: Vec<f64>,
    /// `F̂_ℓ t`.
    w: Vec<f64>,
}

/// Reusable buffers of every subdomain pass over a lockstep group — the
/// [`ImplicitSchur`] applies, the reduce and the back-substitution: one
/// set of restriction/solve/product vectors per lane (up to
/// [`MAX_LANES`]) and one triangular-solve arena shared by every
/// subdomain's `LU(D_ℓ)` sweeps. One instance per concurrently solving
/// caller; wrapped in a `RefCell` so the `&self` operator trait can
/// still mutate it.
#[derive(Debug, Default)]
pub struct SchurApplyScratch {
    lanes: Vec<LaneApplyScratch>,
    tri: TriScratch,
    allocations: u64,
    resets: u64,
}

impl SchurApplyScratch {
    /// Fresh, empty scratch.
    pub fn new() -> SchurApplyScratch {
        SchurApplyScratch::default()
    }

    fn prepare(&mut self, sys: &DbbdSystem, lanes: usize) {
        self.resets += 1;
        let lanes = lanes.min(MAX_LANES);
        let mut grew = false;
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, LaneApplyScratch::default);
            grew = true;
        }
        let widest = |f: fn(&LocalDomain) -> usize| sys.domains.iter().map(f).max().unwrap_or(0);
        let dim = widest(LocalDomain::dim);
        let (ncols, nrows) = (widest(|d| d.e_cols.len()), widest(|d| d.f_rows.len()));
        for ls in &mut self.lanes[..lanes] {
            for (buf, len) in [
                (&mut ls.ysub, ncols),
                (&mut ls.v, dim),
                (&mut ls.t, dim),
                (&mut ls.w, nrows),
            ] {
                if buf.len() < len {
                    buf.resize(len, 0.0);
                    grew = true;
                }
            }
        }
        if grew {
            self.allocations += 1;
        }
    }

    /// Number of times the buffers actually grew (flat in steady state),
    /// the triangular-solve arena included.
    pub fn allocations(&self) -> u64 {
        self.allocations + self.tri.allocations()
    }

    /// Number of subdomain passes served (one per `apply`,
    /// `apply_lanes`, reduce or back-substitution, whatever its lane
    /// count).
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// The positions of one subdomain's `LU(D_ℓ)` sweeps that the Schur
/// operator runs.
#[derive(Clone, Debug)]
struct DomainSweeps {
    /// Forward positions reachable from `Ê_ℓ`'s nonzero rows.
    fwd: PositionRuns,
    /// Backward positions in the dependency closure of `F̂_ℓ`'s columns.
    bwd: PositionRuns,
}

/// Which of a subdomain's sweep positions a pass over the subdomains
/// runs (`None`: all of them).
type SweepChoice = fn(&DomainSweeps) -> (Option<&PositionRuns>, Option<&PositionRuns>);

impl DomainSweeps {
    /// `D⁻¹ (Ê y)` read through `F̂`: both sweeps restricted.
    fn apply(&self) -> (Option<&PositionRuns>, Option<&PositionRuns>) {
        (Some(&self.fwd), Some(&self.bwd))
    }

    /// `D⁻¹ f` read through `F̂`: a dense right-hand side, so only the
    /// backward sweep is restricted.
    fn reduce(&self) -> (Option<&PositionRuns>, Option<&PositionRuns>) {
        (None, Some(&self.bwd))
    }

    /// The back-substitution reads every interior value.
    fn full(&self) -> (Option<&PositionRuns>, Option<&PositionRuns>) {
        (None, None)
    }
}

/// Per-subdomain restricted-sweep lists of [`ImplicitSchur`], built
/// once from the subdomains' solve plans and the patterns of `Ê_ℓ` and
/// `F̂_ℓ`. They depend on structure only, so they stay valid across a
/// value update that keeps every pivot order.
#[derive(Clone, Debug, Default)]
pub struct SchurSweeps {
    domains: Vec<DomainSweeps>,
    /// Dependency entries one apply sweeps, and the full sweeps'.
    kept: usize,
    total: usize,
    /// Position runs one apply sweeps.
    runs: usize,
}

impl SchurSweeps {
    /// Builds the lists for every subdomain (same order as `factors`).
    pub fn new(sys: &DbbdSystem, factors: &[FactoredDomain]) -> SchurSweeps {
        assert_eq!(sys.domains.len(), factors.len());
        let mut out = SchurSweeps {
            domains: Vec::with_capacity(factors.len()),
            ..SchurSweeps::default()
        };
        for (dom, fd) in sys.domains.iter().zip(factors) {
            let plan = fd.lu.solve_plan();
            let e_rows = (0..dom.dim()).filter(|&r| dom.e_hat.row_nnz(r) > 0);
            let fwd = plan.forward_reach(e_rows);
            let bwd = plan.backward_closure(dom.f_hat.indices().iter().copied());
            let (fwd_all, bwd_all) = plan.dep_entries();
            out.kept += fwd.dep_entries() + bwd.dep_entries();
            out.total += fwd_all + bwd_all;
            out.runs += fwd.run_count() + bwd.run_count();
            out.domains.push(DomainSweeps { fwd, bwd });
        }
        out
    }

    /// Share of the `LU(D_ℓ)` dependency entries one Schur apply sweeps
    /// (1 when every subdomain is empty).
    pub fn kept_share(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.kept as f64 / self.total as f64
        }
    }

    /// `(kept, total)`: the `LU(D_ℓ)` dependency entries one Schur apply
    /// sweeps, and those of the full sweeps.
    pub(crate) fn dep_entries(&self) -> (usize, usize) {
        (self.kept, self.total)
    }

    /// Position runs one Schur apply sweeps, over every subdomain and
    /// both sweeps.
    pub(crate) fn run_count(&self) -> usize {
        self.runs
    }
}

/// The *implicit* global Schur complement
/// `S y = C y − Σ_ℓ F̂_ℓ D_ℓ⁻¹ (Ê_ℓ y)` (equation (3)) — PDSLin never
/// forms `S`; GMRES only applies it.
pub struct ImplicitSchur<'a> {
    sys: &'a DbbdSystem,
    factors: &'a [FactoredDomain],
    sweeps: &'a SchurSweeps,
    scratch: &'a RefCell<SchurApplyScratch>,
}

impl<'a> ImplicitSchur<'a> {
    /// Builds the operator from the extracted system, the subdomain
    /// factors (one per subdomain, same order), their restricted-sweep
    /// lists and a caller-owned scratch.
    pub fn new(
        sys: &'a DbbdSystem,
        factors: &'a [FactoredDomain],
        sweeps: &'a SchurSweeps,
        scratch: &'a RefCell<SchurApplyScratch>,
    ) -> Self {
        assert_eq!(sys.domains.len(), factors.len());
        assert_eq!(sweeps.domains.len(), factors.len());
        ImplicitSchur {
            sys,
            factors,
            sweeps,
            scratch,
        }
    }

    /// The scratch, sized for `lanes` lanes (at most [`MAX_LANES`]).
    fn scratch_for(&self, lanes: usize) -> RefMut<'a, SchurApplyScratch> {
        let mut s = self.scratch.borrow_mut();
        s.prepare(self.sys, lanes);
        s
    }

    /// One pass over the subdomains for `lanes` lanes (at most
    /// [`MAX_LANES`]): per subdomain, `fill(dom, l, buffers)` writes lane
    /// `l`'s right-hand side into `v`, every lane goes through `LU(D_ℓ)`
    /// in one sweep (over the positions `choice` picks) into `t`, and
    /// `drain(dom, l, buffers)` consumes `t`.
    fn sweep_domains(
        &self,
        s: &mut SchurApplyScratch,
        lanes: usize,
        choice: SweepChoice,
        mut fill: impl FnMut(&LocalDomain, usize, &mut LaneApplyScratch),
        mut drain: impl FnMut(&LocalDomain, usize, &mut LaneApplyScratch),
    ) {
        let SchurApplyScratch {
            lanes: buffers,
            tri,
            ..
        } = s;
        let buffers = &mut buffers[..lanes];
        let domains = self.sys.domains.iter().zip(self.factors);
        for ((dom, fd), ds) in domains.zip(&self.sweeps.domains) {
            let dim = dom.dim();
            let mut vs: [&[f64]; MAX_LANES] = [&[]; MAX_LANES];
            let mut ts: [&mut [f64]; MAX_LANES] = Default::default();
            for (l, ls) in buffers.iter_mut().enumerate() {
                fill(dom, l, ls);
                vs[l] = &ls.v[..dim];
                ts[l] = &mut ls.t[..dim];
            }
            let (fwd, bwd) = choice(ds);
            let plan = fd.lu.solve_plan();
            plan.solve_lanes_restricted(&vs[..lanes], &mut ts[..lanes], tri, fwd, bwd);
            for (l, ls) in buffers.iter_mut().enumerate() {
                drain(dom, l, ls);
            }
        }
    }

    /// The reduce of equation (4): splits every lane's `b` into interior
    /// parts `f_ℓ` and the separator part `g`, and writes
    /// `ĝ = g − Σ F̂ D⁻¹ f` into `ghats`.
    pub(crate) fn reduce_lanes(&self, bs: &[&[f64]], ghats: &mut [Vec<f64>]) {
        for (bs, ghats) in bs.chunks(MAX_LANES).zip(ghats.chunks_mut(MAX_LANES)) {
            for (ghat, b) in ghats.iter_mut().zip(bs) {
                for (slot, &r) in ghat.iter_mut().zip(&self.sys.sep_rows) {
                    *slot = b[r];
                }
            }
            self.sweep_domains(
                &mut self.scratch_for(bs.len()),
                bs.len(),
                DomainSweeps::reduce,
                |dom, l, ls| {
                    for (slot, &r) in ls.v.iter_mut().zip(&dom.rows) {
                        *slot = bs[l][r];
                    }
                },
                |dom, l, ls| subtract_f_hat(dom, ls, &mut ghats[l]),
            );
        }
    }

    /// Back-substitutes the interiors, `u_ℓ = D⁻¹ (f_ℓ − Ê_ℓ y)`, and
    /// assembles every lane's `x` from its `b` and separator solution
    /// `y`.
    pub(crate) fn back_substitute_lanes(&self, bs: &[&[f64]], ys: &[&[f64]], xs: &mut [Vec<f64>]) {
        for ((bs, ys), xs) in bs
            .chunks(MAX_LANES)
            .zip(ys.chunks(MAX_LANES))
            .zip(xs.chunks_mut(MAX_LANES))
        {
            self.sweep_domains(
                &mut self.scratch_for(bs.len()),
                bs.len(),
                DomainSweeps::full,
                |dom, l, ls| {
                    let ey = &mut ls.t[..dom.dim()];
                    restrict_e_hat(dom, ys[l], &mut ls.ysub, ey);
                    for ((slot, &r), ei) in ls.v.iter_mut().zip(&dom.rows).zip(ey.iter()) {
                        *slot = bs[l][r] - ei;
                    }
                },
                |dom, l, ls| {
                    for (&gi, &u) in dom.rows.iter().zip(&ls.t) {
                        xs[l][gi] = u;
                    }
                },
            );
            for (x, y) in xs.iter_mut().zip(ys) {
                for (&gi, &yl) in self.sys.sep_rows.iter().zip(y.iter()) {
                    x[gi] = yl;
                }
            }
        }
    }
}

/// `out = Ê_ℓ y`, through the gather of `y` at the columns `Ê_ℓ` touches.
fn restrict_e_hat(dom: &LocalDomain, y: &[f64], ysub: &mut [f64], out: &mut [f64]) {
    let ysub = &mut ysub[..dom.e_cols.len()];
    for (slot, &c) in ysub.iter_mut().zip(&dom.e_cols) {
        *slot = y[c];
    }
    dom.e_hat.matvec_into(ysub, out);
}

/// `sep -= F̂_ℓ t` on the separator rows `F̂_ℓ` touches.
fn subtract_f_hat(dom: &LocalDomain, ls: &mut LaneApplyScratch, sep: &mut [f64]) {
    let w = &mut ls.w[..dom.f_rows.len()];
    dom.f_hat.matvec_into(&ls.t[..dom.dim()], w);
    for (wl, &rg) in w.iter().zip(&dom.f_rows) {
        sep[rg] -= wl;
    }
}

impl LinearOperator for ImplicitSchur<'_> {
    fn n(&self) -> usize {
        self.sys.nsep()
    }

    fn apply(&self, y: &[f64], out: &mut [f64]) {
        self.apply_lanes(&[y], &mut [out]);
    }

    fn apply_lanes(&self, ys: &[&[f64]], outs: &mut [&mut [f64]]) {
        assert_eq!(ys.len(), outs.len());
        for (ys, outs) in ys.chunks(MAX_LANES).zip(outs.chunks_mut(MAX_LANES)) {
            let mut s = self.scratch_for(ys.len());
            // out = C y
            for (y, out) in ys.iter().zip(outs.iter_mut()) {
                self.sys.c.matvec_into(y, out);
            }
            // out -= Σ F̂ D⁻¹ (Ê y), every lane through each D_ℓ at once.
            self.sweep_domains(
                &mut s,
                ys.len(),
                DomainSweeps::apply,
                |dom, l, ls| restrict_e_hat(dom, ys[l], &mut ls.ysub, &mut ls.v[..dom.dim()]),
                |dom, l, ls| subtract_f_hat(dom, ls, outs[l]),
            );
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
        let sweeps = SchurSweeps::new(&sys, &factors);
        let scratch = RefCell::new(SchurApplyScratch::new());
        let op = ImplicitSchur::new(&sys, &factors, &sweeps, &scratch);
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
    fn apply_scratch_is_reused_across_applications() {
        let a = laplace2d(9, 9);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let factors: Vec<_> = sys
            .domains
            .iter()
            .map(|d| factor_domain(&d.d, 0.1).unwrap())
            .collect();
        let sweeps = SchurSweeps::new(&sys, &factors);
        let scratch = RefCell::new(SchurApplyScratch::new());
        let op = ImplicitSchur::new(&sys, &factors, &sweeps, &scratch);
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
        let sweeps = SchurSweeps::new(&sys, &factors);
        let op_scratch = RefCell::new(SchurApplyScratch::new());
        let op = ImplicitSchur::new(&sys, &factors, &sweeps, &op_scratch);
        let pre_scratch = RefCell::new(TriScratch::new());
        let m = SchurPrecond::new(&lu, &pre_scratch);
        let b = vec![1.0; sys.nsep()];
        let r = gmres(&op, &m, &b, None, &GmresConfig::default());
        assert!(r.converged);
        // Exact preconditioner ⇒ a couple of iterations.
        assert!(r.iterations <= 3, "took {} iterations", r.iterations);
    }
}
