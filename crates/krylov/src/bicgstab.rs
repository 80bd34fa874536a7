//! BiCGSTAB with right preconditioning.
//!
//! PDSLin's outer solver is configurable; BiCGSTAB is the usual
//! alternative to restarted GMRES for unsymmetric systems when memory
//! for a long Arnoldi basis is unwelcome.

use crate::operator::{LinearOperator, Preconditioner};
use crate::Breakdown;
use sparsekit::budget::{Budget, BudgetInterrupt};
use sparsekit::ops::{axpy, dot, norm2};

/// BiCGSTAB parameters.
#[derive(Clone, Copy, Debug)]
pub struct BicgstabConfig {
    /// Iteration budget.
    pub max_iters: usize,
    /// Relative residual tolerance.
    pub tol: f64,
}

impl Default for BicgstabConfig {
    fn default() -> Self {
        BicgstabConfig {
            max_iters: 500,
            tol: 1e-10,
        }
    }
}

/// Outcome of a BiCGSTAB run.
#[derive(Clone, Debug)]
pub struct BicgstabResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final true relative residual.
    pub residual: f64,
    /// Whether the tolerance was met (judged on the true residual
    /// `‖b − Ax‖/‖b‖`, not the recursion residual).
    pub converged: bool,
    /// Set when the recurrence broke down (`rho`/`omega` collapse or a
    /// non-finite residual) and restarting did not help; the returned
    /// iterate is the best one available.
    pub breakdown: Option<Breakdown>,
    /// Set when the execution budget (deadline/cancellation) stopped the
    /// iteration. The returned iterate is the best one available.
    pub interrupted: Option<BudgetInterrupt>,
}

/// Reusable BiCGSTAB arenas: every per-solve vector of the recurrence,
/// hoisted so repeated solves allocate nothing after the first call
/// (only the returned [`BicgstabResult`] is fresh).
#[derive(Debug, Default)]
pub struct BicgstabWorkspace {
    x: Vec<f64>,
    work: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    z: Vec<f64>,
    r: Vec<f64>,
    r0: Vec<f64>,
    allocations: u64,
    resets: u64,
}

impl BicgstabWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> BicgstabWorkspace {
        BicgstabWorkspace::default()
    }

    fn prepare(&mut self, n: usize) {
        self.resets += 1;
        if self.x.len() < n {
            self.allocations += 1;
            self.x.resize(n, 0.0);
            self.work.resize(n, 0.0);
            self.v.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.r.resize(n, 0.0);
            self.r0.resize(n, 0.0);
        }
    }

    /// Number of times the arenas actually grew — flat after the first
    /// solve of the largest size seen.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of solves served through this workspace.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// Solves `A x = b` with right-preconditioned BiCGSTAB.
pub fn bicgstab<O: LinearOperator, P: Preconditioner>(
    op: &O,
    precond: &P,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &BicgstabConfig,
) -> BicgstabResult {
    let mut ws = BicgstabWorkspace::new();
    bicgstab_with_workspace(op, precond, b, x0, cfg, &Budget::unlimited(), &mut ws)
}

/// [`bicgstab`] under an execution [`Budget`], with caller-owned arenas.
///
/// The deadline and cancel token are polled once per iteration, and an
/// interrupt stops the recurrence with the current iterate (recorded in
/// [`BicgstabResult::interrupted`]). After the first call of a given
/// size nothing in the recurrence allocates, and the numerics are
/// identical to [`bicgstab`].
pub fn bicgstab_with_workspace<O: LinearOperator, P: Preconditioner>(
    op: &O,
    precond: &P,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &BicgstabConfig,
    budget: &Budget,
    ws: &mut BicgstabWorkspace,
) -> BicgstabResult {
    let n = op.n();
    assert_eq!(b.len(), n);
    ws.prepare(n);
    let BicgstabWorkspace {
        x,
        work,
        v,
        p,
        z,
        r,
        r0,
        ..
    } = ws;
    let x = &mut x[..n];
    let work = &mut work[..n];
    let v = &mut v[..n];
    let p = &mut p[..n];
    let z = &mut z[..n];
    let r = &mut r[..n];
    let r0 = &mut r0[..n];
    match x0 {
        Some(x0) => x.copy_from_slice(x0),
        None => x.fill(0.0),
    }
    let bnorm = {
        let t = norm2(b);
        if t == 0.0 {
            1.0
        } else {
            t
        }
    };
    let mut breakdown: Option<Breakdown> = None;
    let mut interrupted: Option<BudgetInterrupt> = None;
    let mut iterations = 0usize;
    // Outer cycles restart the recurrence from the *true* residual: both
    // when the recursion residual claims convergence (so the convergence
    // decision is never taken on a drifted recursion vector) and as the
    // classical remedy for a rho/omega collapse.
    'outer: while iterations < cfg.max_iters {
        if let Err(i) = budget.check() {
            interrupted = Some(i);
            break;
        }
        op.apply(x, work);
        for (ri, (bi, wi)) in r.iter_mut().zip(b.iter().zip(work.iter())) {
            *ri = bi - wi;
        }
        let rnorm = norm2(r);
        if !rnorm.is_finite() {
            breakdown = Some(Breakdown::NonFinite);
            break;
        }
        if rnorm / bnorm <= cfg.tol {
            break;
        }
        r0.copy_from_slice(r);
        let mut rho = 1.0f64;
        let mut alpha = 1.0f64;
        let mut omega = 1.0f64;
        v.iter_mut().for_each(|t| *t = 0.0);
        p.iter_mut().for_each(|t| *t = 0.0);
        let cycle_start = iterations;
        // On a scalar collapse: restart if this cycle made progress,
        // otherwise report the breakdown (a restart already failed).
        macro_rules! collapse {
            ($kind:expr) => {{
                if iterations > cycle_start {
                    continue 'outer;
                }
                breakdown = Some($kind);
                break 'outer;
            }};
        }
        while iterations < cfg.max_iters {
            if let Err(i) = budget.check() {
                interrupted = Some(i);
                break 'outer;
            }
            let rho_new = dot(r0, r);
            if !rho_new.is_finite() {
                breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if rho_new.abs() < 1e-300 {
                collapse!(Breakdown::RhoCollapse);
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            // p = r + beta (p − omega v)
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            // v = A M⁻¹ p
            precond.apply(p, z);
            op.apply(z, v);
            let r0v = dot(r0, v);
            if !r0v.is_finite() {
                breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if r0v.abs() < 1e-300 {
                collapse!(Breakdown::RhoCollapse);
            }
            alpha = rho / r0v;
            // s = r − alpha v  (reuse r)
            axpy(-alpha, v, r);
            // x += alpha M⁻¹ p
            axpy(alpha, z, x);
            iterations += 1;
            let snorm = norm2(r);
            if !snorm.is_finite() {
                breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if snorm / bnorm <= cfg.tol {
                continue 'outer;
            }
            // t = A M⁻¹ s
            precond.apply(r, z);
            op.apply(z, work);
            let tt = dot(work, work);
            if !tt.is_finite() {
                breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if tt == 0.0 {
                collapse!(Breakdown::OmegaCollapse);
            }
            omega = dot(work, r) / tt;
            if omega.abs() < 1e-300 {
                collapse!(Breakdown::OmegaCollapse);
            }
            // x += omega M⁻¹ s ; r = s − omega t
            axpy(omega, z, x);
            axpy(-omega, work, r);
            iterations += 1;
            let rn = norm2(r);
            if !rn.is_finite() {
                breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if rn / bnorm <= cfg.tol {
                continue 'outer;
            }
        }
    }
    op.apply(x, work);
    let mut res_sq = 0.0f64;
    for (bi, wi) in b.iter().zip(work.iter()) {
        let d = bi - wi;
        res_sq += d * d;
    }
    let residual = res_sq.sqrt() / bnorm;
    BicgstabResult {
        x: x.to_vec(),
        iterations,
        residual,
        converged: residual <= cfg.tol,
        breakdown,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CsrOperator, IdentityPrecond, JacobiPrecond};
    use sparsekit::ops::residual_inf_norm;
    use sparsekit::{Coo, Csr};

    fn laplace2d(nx: usize) -> Csr {
        let idx = |i: usize, j: usize| i * nx + j;
        let mut c = Coo::new(nx * nx, nx * nx);
        for i in 0..nx {
            for j in 0..nx {
                c.push(idx(i, j), idx(i, j), 4.0);
                if i + 1 < nx {
                    c.push_sym(idx(i, j), idx(i + 1, j), -1.0);
                }
                if j + 1 < nx {
                    c.push_sym(idx(i, j), idx(i, j + 1), -1.0);
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn solves_identity_immediately() {
        let a = Csr::identity(8);
        let op = CsrOperator::new(&a);
        let b: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let r = bicgstab(&op, &IdentityPrecond, &b, None, &BicgstabConfig::default());
        assert!(r.converged);
        for (xi, bi) in r.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn solves_2d_laplacian() {
        let a = laplace2d(10);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 100];
        let r = bicgstab(&op, &IdentityPrecond, &b, None, &BicgstabConfig::default());
        assert!(r.converged, "residual {}", r.residual);
        assert!(residual_inf_norm(&a, &r.x, &b) < 1e-7);
    }

    #[test]
    fn jacobi_preconditioning_helps_scaled_system() {
        let n = 60;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0 + 50.0 * i as f64);
            if i + 1 < n {
                c.push_sym(i, i + 1, -0.5);
            }
        }
        let a = c.to_csr();
        let op = CsrOperator::new(&a);
        let b = vec![1.0; n];
        let plain = bicgstab(&op, &IdentityPrecond, &b, None, &BicgstabConfig::default());
        let m = JacobiPrecond::new(&a);
        let pre = bicgstab(&op, &m, &b, None, &BicgstabConfig::default());
        assert!(pre.converged);
        assert!(pre.iterations <= plain.iterations.max(1));
    }

    #[test]
    fn unsymmetric_system_converges() {
        let n = 40;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0);
            if i + 1 < n {
                c.push(i, i + 1, -1.5); // convective skew
                c.push(i + 1, i, -0.5);
            }
        }
        let a = c.to_csr();
        let op = CsrOperator::new(&a);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let r = bicgstab(&op, &IdentityPrecond, &b, None, &BicgstabConfig::default());
        assert!(r.converged);
        assert!(residual_inf_norm(&a, &r.x, &b) < 1e-7);
    }

    #[test]
    fn cancelled_budget_stops_iteration_with_typed_interrupt() {
        let a = laplace2d(10);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 100];
        let tok = sparsekit::CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_token(tok);
        let r = bicgstab_with_workspace(
            &op,
            &IdentityPrecond,
            &b,
            None,
            &BicgstabConfig::default(),
            &budget,
            &mut BicgstabWorkspace::new(),
        );
        assert_eq!(r.interrupted, Some(BudgetInterrupt::Cancelled));
        assert!(!r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.residual.is_finite());
    }

    #[test]
    fn reused_workspace_matches_plain_solver() {
        // The second solve runs on arenas the first one left dirty.
        let a = laplace2d(8);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 64];
        let cfg = BicgstabConfig::default();
        let plain = bicgstab(&op, &IdentityPrecond, &b, None, &cfg);
        let mut ws = BicgstabWorkspace::new();
        let other: Vec<f64> = (0..64).map(|i| (i % 5) as f64 - 2.0).collect();
        let unlimited = Budget::unlimited();
        bicgstab_with_workspace(
            &op,
            &IdentityPrecond,
            &other,
            None,
            &cfg,
            &unlimited,
            &mut ws,
        );
        let reused =
            bicgstab_with_workspace(&op, &IdentityPrecond, &b, None, &cfg, &unlimited, &mut ws);
        assert!(reused.interrupted.is_none());
        assert_eq!(plain.iterations, reused.iterations);
        assert_eq!(plain.x, reused.x);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplace2d(4);
        let op = CsrOperator::new(&a);
        let b = vec![0.0; 16];
        let r = bicgstab(&op, &IdentityPrecond, &b, None, &BicgstabConfig::default());
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.iterations, 0);
    }
}
