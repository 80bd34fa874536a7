//! Restarted GMRES with right preconditioning.
//!
//! Arnoldi with modified Gram–Schmidt; the least-squares problem is
//! updated incrementally with Givens rotations so the residual norm is
//! available at every inner step.

use crate::operator::{LinearOperator, Preconditioner};
use crate::Breakdown;
use sparsekit::budget::{Budget, BudgetInterrupt};
use sparsekit::ops::{axpy, norm2};

/// GMRES parameters.
#[derive(Clone, Copy, Debug)]
pub struct GmresConfig {
    /// Restart length `m` in GMRES(m).
    pub restart: usize,
    /// Total iteration budget (across restarts).
    pub max_iters: usize,
    /// Relative residual tolerance `‖b − Ax‖ / ‖b‖`.
    pub tol: f64,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            restart: 50,
            max_iters: 500,
            tol: 1e-10,
        }
    }
}

/// Outcome of a GMRES run.
#[derive(Clone, Debug)]
pub struct GmresResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed (matvec count, excluding residual checks).
    pub iterations: usize,
    /// Final *true* relative residual norm.
    pub residual: f64,
    /// Whether the tolerance was met (judged on the true residual).
    pub converged: bool,
    /// Set when the iteration stopped on a numerical breakdown rather
    /// than convergence or budget exhaustion.
    pub breakdown: Option<Breakdown>,
    /// Set when the execution budget (deadline/cancellation) stopped the
    /// iteration. The returned iterate is the best one available.
    pub interrupted: Option<BudgetInterrupt>,
    /// Estimated relative residual after each iteration.
    pub history: Vec<f64>,
}

/// Reusable GMRES arenas: the Arnoldi basis, Hessenberg matrix, Givens
/// rotations and every intermediate vector, hoisted out of the restart
/// loop so repeated solves against one operator allocate nothing after
/// the first call (only the returned [`GmresResult`] is fresh).
#[derive(Debug, Default)]
pub struct GmresWorkspace {
    v: Vec<Vec<f64>>,
    h: Vec<f64>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    x: Vec<f64>,
    work: Vec<f64>,
    z: Vec<f64>,
    w: Vec<f64>,
    y: Vec<f64>,
    update: Vec<f64>,
    history: Vec<f64>,
    allocations: u64,
    resets: u64,
}

impl GmresWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> GmresWorkspace {
        GmresWorkspace::default()
    }

    fn prepare(&mut self, n: usize, m: usize) {
        self.resets += 1;
        let mut grew = false;
        if self.v.len() < m + 1 {
            self.v.resize_with(m + 1, Vec::new);
            grew = true;
        }
        for vi in &mut self.v {
            if vi.len() < n {
                vi.resize(n, 0.0);
                grew = true;
            }
        }
        if self.h.len() < (m + 1) * m {
            self.h.resize((m + 1) * m, 0.0);
            self.cs.resize(m, 0.0);
            self.sn.resize(m, 0.0);
            self.g.resize(m + 1, 0.0);
            self.y.resize(m, 0.0);
            grew = true;
        }
        if self.x.len() < n {
            self.x.resize(n, 0.0);
            self.work.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.w.resize(n, 0.0);
            self.update.resize(n, 0.0);
            grew = true;
        }
        if grew {
            self.allocations += 1;
        }
        self.history.clear();
    }

    /// Number of times the arenas actually grew — flat after the first
    /// solve of the largest `(n, restart)` seen.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of solves served through this workspace.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// Solves `A x = b` with right-preconditioned restarted GMRES:
/// iterates on `A M⁻¹ u = b`, returning `x = M⁻¹ u`-corrected iterates.
pub fn gmres<O: LinearOperator, P: Preconditioner>(
    op: &O,
    precond: &P,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &GmresConfig,
) -> GmresResult {
    let mut ws = GmresWorkspace::new();
    gmres_with_workspace(op, precond, b, x0, cfg, &Budget::unlimited(), &mut ws)
}

/// [`gmres`] under an execution budget, with caller-owned arenas.
///
/// The budget is polled once per Arnoldi step (each step costs a matvec
/// plus a preconditioner apply, so the poll is noise); on interruption
/// the solver stops with the current iterate and
/// [`GmresResult::interrupted`] set. After the first call of a given
/// size, nothing in the iteration allocates. The numerics are identical
/// to [`gmres`] (every arena slot is written before it is read, so stale
/// contents never leak into the iteration).
pub fn gmres_with_workspace<O: LinearOperator, P: Preconditioner>(
    op: &O,
    precond: &P,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &GmresConfig,
    budget: &Budget,
    ws: &mut GmresWorkspace,
) -> GmresResult {
    let n = op.n();
    assert_eq!(b.len(), n);
    let m = cfg.restart.max(1);
    ws.prepare(n, m);
    let GmresWorkspace {
        v,
        h,
        cs,
        sn,
        g,
        x,
        work,
        z,
        w,
        y,
        update,
        history,
        ..
    } = ws;
    let x = &mut x[..n];
    let work = &mut work[..n];
    let z = &mut z[..n];
    let w = &mut w[..n];
    let update = &mut update[..n];
    match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n);
            x.copy_from_slice(x0);
        }
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
    let mut total_iters = 0usize;
    let mut breakdown = None;
    let mut interrupted: Option<BudgetInterrupt> = None;
    // Every exit happens here, on the true residual of the current
    // iterate, or with `x` unchanged since here: the Givens recurrence
    // only ends a cycle, never the solve, so a recurrence that drifted
    // below `tol` restarts instead of stopping short. `converged` is
    // judged on this residual directly — no slack factor — and NaN
    // compares false, so a poisoned run can never claim convergence.
    let mut residual;
    'outer: loop {
        // r = b − A x, normalised straight into v₀.
        op.apply(x, work);
        let mut beta_sq = 0.0f64;
        for (bi, wi) in b.iter().zip(work.iter()) {
            let d = bi - wi;
            beta_sq += d * d;
        }
        let beta = beta_sq.sqrt();
        residual = beta / bnorm;
        if !beta.is_finite() {
            // Iterating on NaN/Inf can only produce more of it; stop now
            // and report the typed breakdown.
            breakdown = Some(Breakdown::NonFinite);
            break;
        }
        if residual <= cfg.tol || total_iters >= cfg.max_iters || interrupted.is_some() {
            break;
        }
        if let Err(i) = budget.check() {
            interrupted = Some(i);
            break;
        }
        for (v0i, (bi, wi)) in v[0].iter_mut().zip(b.iter().zip(work.iter())) {
            *v0i = (bi - wi) / beta;
        }
        g[0] = beta;
        let mut inner = 0usize;
        for j in 0..m {
            if total_iters >= cfg.max_iters {
                break;
            }
            if let Err(i) = budget.check() {
                // Stop expanding the basis; the partial least-squares
                // update below still folds the completed steps into x.
                interrupted = Some(i);
                break;
            }
            // w = A M⁻¹ v_j
            precond.apply(&v[j][..n], z);
            op.apply(z, work);
            w.copy_from_slice(work);
            // Modified Gram–Schmidt.
            for i in 0..=j {
                let hij = sparsekit::ops::dot(w, &v[i][..n]);
                h[i * m + j] = hij;
                axpy(-hij, &v[i][..n], w);
            }
            let hj1 = norm2(w);
            h[(j + 1) * m + j] = hj1;
            // Apply previous Givens rotations to column j.
            for i in 0..j {
                let t = cs[i] * h[i * m + j] + sn[i] * h[(i + 1) * m + j];
                h[(i + 1) * m + j] = -sn[i] * h[i * m + j] + cs[i] * h[(i + 1) * m + j];
                h[i * m + j] = t;
            }
            // New rotation to kill h[j+1, j].
            let (c, s) = givens(h[j * m + j], h[(j + 1) * m + j]);
            cs[j] = c;
            sn[j] = s;
            h[j * m + j] = c * h[j * m + j] + s * h[(j + 1) * m + j];
            h[(j + 1) * m + j] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;
            total_iters += 1;
            inner = j + 1;
            let rel = g[j + 1].abs() / bnorm;
            history.push(rel);
            if !rel.is_finite() || !hj1.is_finite() {
                breakdown = Some(Breakdown::NonFinite);
                break 'outer;
            }
            if rel <= cfg.tol || hj1 == 0.0 {
                break;
            }
            for (vi, wi) in v[j + 1].iter_mut().zip(w.iter()) {
                *vi = wi / hj1;
            }
        }
        if inner == 0 {
            break;
        }
        // Solve the triangular system H y = g.
        for i in (0..inner).rev() {
            let mut t = g[i];
            for k in (i + 1)..inner {
                t -= h[i * m + k] * y[k];
            }
            y[i] = t / h[i * m + i];
        }
        // x += M⁻¹ (V y)
        update.fill(0.0);
        for (k, yk) in y[..inner].iter().enumerate() {
            axpy(*yk, &v[k][..n], update);
        }
        precond.apply(update, z);
        axpy(1.0, z, x);
    }
    GmresResult {
        x: x.to_vec(),
        iterations: total_iters,
        residual,
        converged: residual <= cfg.tol,
        breakdown,
        interrupted,
        history: history.clone(),
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() < b.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
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
    fn solves_identity_in_one_iteration() {
        let a = Csr::identity(10);
        let op = CsrOperator::new(&a);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let r = gmres(&op, &IdentityPrecond, &b, None, &GmresConfig::default());
        assert!(r.converged);
        assert!(r.iterations <= 2);
        for (xi, bi) in r.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_2d_laplacian() {
        let a = laplace2d(10);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 100];
        let r = gmres(&op, &IdentityPrecond, &b, None, &GmresConfig::default());
        assert!(r.converged, "residual {}", r.residual);
        assert!(residual_inf_norm(&a, &r.x, &b) < 1e-8);
    }

    #[test]
    fn jacobi_preconditioning_converges() {
        // Badly scaled diagonal matrix + off-diagonal coupling.
        let n = 50;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0 + 100.0 * i as f64);
            if i + 1 < n {
                c.push_sym(i, i + 1, -1.0);
            }
        }
        let a = c.to_csr();
        let op = CsrOperator::new(&a);
        let m = JacobiPrecond::new(&a);
        let b = vec![1.0; n];
        let rp = gmres(
            &op,
            &m,
            &b,
            None,
            &GmresConfig {
                restart: 30,
                ..Default::default()
            },
        );
        assert!(rp.converged);
        assert!(residual_inf_norm(&a, &rp.x, &b) < 1e-6);
    }

    #[test]
    fn restart_still_converges() {
        let a = laplace2d(8);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 64];
        let cfg = GmresConfig {
            restart: 5,
            max_iters: 2000,
            tol: 1e-9,
        };
        let r = gmres(&op, &IdentityPrecond, &b, None, &cfg);
        assert!(r.converged, "GMRES(5) residual {}", r.residual);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = laplace2d(8);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 64];
        let cold = gmres(&op, &IdentityPrecond, &b, None, &GmresConfig::default());
        let warm = gmres(
            &op,
            &IdentityPrecond,
            &b,
            Some(&cold.x),
            &GmresConfig::default(),
        );
        assert!(
            warm.iterations <= 1,
            "warm start from the solution should converge at once"
        );
    }

    #[test]
    fn history_is_monotone_within_cycle() {
        let a = laplace2d(6);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 36];
        let cfg = GmresConfig {
            restart: 36,
            max_iters: 36,
            tol: 1e-12,
        };
        let r = gmres(&op, &IdentityPrecond, &b, None, &cfg);
        for w in r.history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "GMRES residual must not increase within a cycle"
            );
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplace2d(4);
        let op = CsrOperator::new(&a);
        let b = vec![0.0; 16];
        let r = gmres(&op, &IdentityPrecond, &b, None, &GmresConfig::default());
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn expired_deadline_stops_with_typed_interrupt() {
        let a = laplace2d(10);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 100];
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = gmres_with_workspace(
            &op,
            &IdentityPrecond,
            &b,
            None,
            &GmresConfig::default(),
            &budget,
            &mut GmresWorkspace::new(),
        );
        assert!(matches!(
            r.interrupted,
            Some(BudgetInterrupt::DeadlineExceeded { .. })
        ));
        assert!(!r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.residual.is_finite());
    }

    #[test]
    fn mid_cycle_interrupt_keeps_partial_progress() {
        // Cancel after the solver is running: poison the token up front
        // but give the ticker a full cycle by cancelling via a token the
        // operator flips after a few applications.
        struct CountingOp<'a> {
            inner: CsrOperator<'a>,
            tok: sparsekit::CancelToken,
            calls: std::cell::Cell<usize>,
        }
        impl LinearOperator for CountingOp<'_> {
            fn n(&self) -> usize {
                self.inner.n()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                let c = self.calls.get() + 1;
                self.calls.set(c);
                if c == 5 {
                    self.tok.cancel();
                }
                self.inner.apply(x, y);
            }
        }
        let a = laplace2d(10);
        let tok = sparsekit::CancelToken::new();
        let op = CountingOp {
            inner: CsrOperator::new(&a),
            tok: tok.clone(),
            calls: std::cell::Cell::new(0),
        };
        let b = vec![1.0; 100];
        let budget = Budget::unlimited().with_token(tok);
        let r = gmres_with_workspace(
            &op,
            &IdentityPrecond,
            &b,
            None,
            &GmresConfig::default(),
            &budget,
            &mut GmresWorkspace::new(),
        );
        assert_eq!(r.interrupted, Some(BudgetInterrupt::Cancelled));
        // The completed Arnoldi steps were folded into the iterate: it is
        // strictly better than the zero initial guess.
        assert!(r.iterations >= 1);
        assert!(r.residual < 1.0);
    }

    #[test]
    fn reused_workspace_matches_plain_solver() {
        // The second solve runs on arenas the first one left dirty.
        let a = laplace2d(8);
        let op = CsrOperator::new(&a);
        let b = vec![1.0; 64];
        let plain = gmres(&op, &IdentityPrecond, &b, None, &GmresConfig::default());
        let mut ws = GmresWorkspace::new();
        let other: Vec<f64> = (0..64).map(|i| (i % 5) as f64 - 2.0).collect();
        let cfg = GmresConfig::default();
        let unlimited = Budget::unlimited();
        gmres_with_workspace(
            &op,
            &IdentityPrecond,
            &other,
            None,
            &cfg,
            &unlimited,
            &mut ws,
        );
        let reused =
            gmres_with_workspace(&op, &IdentityPrecond, &b, None, &cfg, &unlimited, &mut ws);
        assert!(reused.interrupted.is_none());
        assert_eq!(plain.iterations, reused.iterations);
        assert_eq!(plain.x, reused.x);
    }
}
