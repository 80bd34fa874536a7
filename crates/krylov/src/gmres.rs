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

/// Reusable GMRES arenas of one right-hand side: the Arnoldi basis,
/// Hessenberg matrix, Givens rotations and every intermediate vector,
/// hoisted out of the restart loop so repeated solves against one
/// operator allocate nothing after the first call (only the returned
/// [`GmresResult`] is fresh). The basis and the Hessenberg matrix grow
/// on demand, one vector and one column per Arnoldi step the deepest
/// cycle so far has reached, not eagerly to `restart + 1` vectors.
#[derive(Debug, Default)]
pub struct GmresWorkspace {
    v: Vec<Vec<f64>>,
    /// Hessenberg matrix, column-major: column `j` at `j·(m + 1)..`.
    h: Vec<f64>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    x: Vec<f64>,
    work: Vec<f64>,
    z: Vec<f64>,
    y: Vec<f64>,
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
        for vi in &mut self.v {
            if vi.len() < n {
                vi.resize(n, 0.0);
                grew = true;
            }
        }
        if self.cs.len() < m {
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
            grew = true;
        }
        if grew {
            self.allocations += 1;
        }
        self.history.clear();
    }

    /// Makes basis vector `j` (length `n`) and Hessenberg column `j`
    /// (restart `m`) exist.
    fn reach_step(&mut self, j: usize, n: usize, m: usize) {
        let mut grew = false;
        if self.v.len() <= j {
            self.v.resize_with(j + 1, || vec![0.0; n]);
            grew = true;
        }
        if self.h.len() < (j + 1) * (m + 1) {
            self.h.resize((j + 1) * (m + 1), 0.0);
            grew = true;
        }
        if grew {
            self.allocations += 1;
        }
    }

    /// Number of times the arenas actually grew — flat once a solve of
    /// the largest `(n, restart)` and the deepest Arnoldi cycle seen has
    /// run.
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

/// [`gmres`] under an execution budget, with caller-owned arenas: the
/// one-lane instance of [`gmres_lanes`].
///
/// The budget is polled once per Arnoldi step (each step costs a matvec
/// plus a preconditioner apply, so the poll is noise); on interruption
/// the solver stops with the current iterate and
/// [`GmresResult::interrupted`] set. After the first call of a given
/// size and Arnoldi depth, no arena grows (each step only collects the
/// waiting lanes' vectors into a short list). The numerics are identical
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
    let mut lanes = [Lane::new(op.n(), b, x0, cfg, ws)];
    run_lockstep(op, precond, &mut lanes, cfg, budget);
    lanes[0].result(cfg)
}

/// Runs one independent GMRES per right-hand side `bs[l]` (zero initial
/// guess, workspace `ws[l]`) in lockstep: at every step all active
/// lanes go through one [`Preconditioner::apply_lanes`] and one
/// [`LinearOperator::apply_lanes`] call, so an operator that can serve
/// several right-hand sides per pass over its data does. Restarts,
/// convergence, breakdowns and the budget are judged per lane, and a
/// lane that stops drops out of later calls. Each result is
/// bit-identical to [`gmres_with_workspace`] on that right-hand side
/// alone when the operator's lane applies are bit-identical to its
/// single applies.
pub fn gmres_lanes<O: LinearOperator, P: Preconditioner>(
    op: &O,
    precond: &P,
    bs: &[&[f64]],
    cfg: &GmresConfig,
    budget: &Budget,
    ws: &mut [GmresWorkspace],
) -> Vec<GmresResult> {
    assert!(ws.len() >= bs.len(), "one workspace per right-hand side");
    let n = op.n();
    let mut lanes: Vec<Lane<'_>> = bs
        .iter()
        .zip(ws.iter_mut())
        .map(|(b, ws)| Lane::new(n, b, None, cfg, ws))
        .collect();
    run_lockstep(op, precond, &mut lanes, cfg, budget);
    lanes.iter().map(|l| l.result(cfg)).collect()
}

/// The request a lane waits on. Every lane alternates strictly between
/// an operator request (`Residual`, `Operator`) and a preconditioner
/// request (`Precond`, `Update`), starting with `Residual`, so all
/// active lanes of a lockstep run always wait on the same kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// `work = A x`: the true residual at a (re)start.
    Residual,
    /// `z = M⁻¹ v_j`: the first half of Arnoldi step `j`.
    Precond,
    /// `work = A z`: the second half of Arnoldi step `j`.
    Operator,
    /// `z = M⁻¹ (V y)`, with `V y` in `work`: the end-of-cycle
    /// correction of `x`.
    Update,
    /// Converged, out of iterations, broken down or interrupted.
    Done,
}

/// One right-hand side's GMRES, run as a state machine between the
/// operator and preconditioner applies it waits on.
struct Lane<'a> {
    b: &'a [f64],
    ws: &'a mut GmresWorkspace,
    n: usize,
    m: usize,
    bnorm: f64,
    stage: Stage,
    /// Current Arnoldi column.
    j: usize,
    /// Completed Arnoldi steps of the current cycle.
    inner: usize,
    total_iters: usize,
    residual: f64,
    breakdown: Option<Breakdown>,
    interrupted: Option<BudgetInterrupt>,
}

impl<'a> Lane<'a> {
    fn new(
        n: usize,
        b: &'a [f64],
        x0: Option<&[f64]>,
        cfg: &GmresConfig,
        ws: &'a mut GmresWorkspace,
    ) -> Lane<'a> {
        assert_eq!(b.len(), n);
        let m = cfg.restart.max(1);
        ws.prepare(n, m);
        match x0 {
            Some(x0) => {
                assert_eq!(x0.len(), n);
                ws.x[..n].copy_from_slice(x0);
            }
            None => ws.x[..n].fill(0.0),
        }
        let bnorm = match norm2(b) {
            0.0 => 1.0,
            t => t,
        };
        Lane {
            b,
            ws,
            n,
            m,
            bnorm,
            stage: Stage::Residual,
            j: 0,
            inner: 0,
            total_iters: 0,
            residual: f64::NAN,
            breakdown: None,
            interrupted: None,
        }
    }

    /// Advances the lane once its operator request has been served
    /// (`work` holds the product).
    //
    // Every exit happens at a `Residual` stage, on the true residual of
    // the current iterate, or with `x` unchanged since one: the Givens
    // recurrence only ends a cycle, never the solve, so a recurrence
    // that drifted below `tol` restarts instead of stopping short.
    // `converged` is judged on this residual directly — no slack
    // factor — and NaN compares false, so a poisoned run can never
    // claim convergence.
    fn after_operator(&mut self, cfg: &GmresConfig, budget: &Budget) {
        match self.stage {
            Stage::Residual => self.restart(cfg, budget),
            Stage::Operator => self.arnoldi_step(cfg, budget),
            _ => {}
        }
    }

    /// Advances the lane once its preconditioner request has been
    /// served (`z` holds the product).
    fn after_precond(&mut self) {
        match self.stage {
            Stage::Precond => self.stage = Stage::Operator,
            Stage::Update => {
                // x += M⁻¹ (V y)
                let n = self.n;
                axpy(1.0, &self.ws.z[..n], &mut self.ws.x[..n]);
                self.stage = Stage::Residual;
            }
            _ => {}
        }
    }

    /// `r = b − A x`, normalised straight into `v₀`, or the end of the
    /// solve.
    fn restart(&mut self, cfg: &GmresConfig, budget: &Budget) {
        let n = self.n;
        let ws = &mut *self.ws;
        let mut beta_sq = 0.0f64;
        for (bi, wi) in self.b.iter().zip(&ws.work[..n]) {
            let d = bi - wi;
            beta_sq += d * d;
        }
        let beta = beta_sq.sqrt();
        self.residual = beta / self.bnorm;
        if !beta.is_finite() {
            // Iterating on NaN/Inf can only produce more of it; stop now
            // and report the typed breakdown.
            self.breakdown = Some(Breakdown::NonFinite);
            self.stage = Stage::Done;
            return;
        }
        if self.residual <= cfg.tol
            || self.total_iters >= cfg.max_iters
            || self.interrupted.is_some()
        {
            self.stage = Stage::Done;
            return;
        }
        if let Err(i) = budget.check() {
            self.interrupted = Some(i);
            self.stage = Stage::Done;
            return;
        }
        ws.reach_step(0, n, self.m);
        for (v0i, (bi, wi)) in ws.v[0][..n]
            .iter_mut()
            .zip(self.b.iter().zip(&ws.work[..n]))
        {
            *v0i = (bi - wi) / beta;
        }
        ws.g[0] = beta;
        self.j = 0;
        self.inner = 0;
        self.open_step(cfg, budget);
    }

    /// The head of Arnoldi step `j`: start it, or end the cycle.
    fn open_step(&mut self, cfg: &GmresConfig, budget: &Budget) {
        if self.j == self.m || self.total_iters >= cfg.max_iters {
            return self.end_cycle();
        }
        if let Err(i) = budget.check() {
            // Stop expanding the basis; the partial least-squares
            // update still folds the completed steps into x.
            self.interrupted = Some(i);
            return self.end_cycle();
        }
        self.stage = Stage::Precond;
    }

    /// Arnoldi step `j` on `w = A M⁻¹ v_j` (held in `work`).
    fn arnoldi_step(&mut self, cfg: &GmresConfig, budget: &Budget) {
        let (n, m, j) = (self.n, self.m, self.j);
        let GmresWorkspace {
            v,
            h,
            cs,
            sn,
            g,
            work,
            history,
            ..
        } = &mut *self.ws;
        let w = &mut work[..n];
        let hj = &mut h[j * (m + 1)..(j + 1) * (m + 1)];
        // Modified Gram–Schmidt.
        for i in 0..=j {
            let hij = sparsekit::ops::dot(w, &v[i][..n]);
            hj[i] = hij;
            axpy(-hij, &v[i][..n], w);
        }
        let hj1 = norm2(w);
        hj[j + 1] = hj1;
        // Apply previous Givens rotations to column j.
        for i in 0..j {
            let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
            hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
            hj[i] = t;
        }
        // New rotation to kill h[j+1, j].
        let (c, s) = givens(hj[j], hj[j + 1]);
        cs[j] = c;
        sn[j] = s;
        hj[j] = c * hj[j] + s * hj[j + 1];
        hj[j + 1] = 0.0;
        g[j + 1] = -s * g[j];
        g[j] *= c;
        self.total_iters += 1;
        self.inner = j + 1;
        let rel = g[j + 1].abs() / self.bnorm;
        history.push(rel);
        if !rel.is_finite() || !hj1.is_finite() {
            self.breakdown = Some(Breakdown::NonFinite);
            self.stage = Stage::Done;
            return;
        }
        if rel <= cfg.tol || hj1 == 0.0 {
            return self.end_cycle();
        }
        self.ws.reach_step(j + 1, n, m);
        let GmresWorkspace { v, work, .. } = &mut *self.ws;
        for (vi, wi) in v[j + 1][..n].iter_mut().zip(&work[..n]) {
            *vi = wi / hj1;
        }
        self.j += 1;
        self.open_step(cfg, budget);
    }

    /// Solves the cycle's least-squares problem and requests the
    /// correction `M⁻¹ (V y)`; a cycle with no completed step ends the
    /// solve.
    fn end_cycle(&mut self) {
        let (n, m, inner) = (self.n, self.m, self.inner);
        if inner == 0 {
            self.stage = Stage::Done;
            return;
        }
        let GmresWorkspace {
            v, h, g, y, work, ..
        } = &mut *self.ws;
        // Solve the triangular system H y = g.
        for i in (0..inner).rev() {
            let mut t = g[i];
            for k in (i + 1)..inner {
                t -= h[k * (m + 1) + i] * y[k];
            }
            y[i] = t / h[i * (m + 1) + i];
        }
        // x += M⁻¹ (V y); `work` is free until the next residual.
        let update = &mut work[..n];
        update.fill(0.0);
        for (k, yk) in y[..inner].iter().enumerate() {
            axpy(*yk, &v[k][..n], update);
        }
        self.stage = Stage::Update;
    }

    fn result(&self, cfg: &GmresConfig) -> GmresResult {
        GmresResult {
            x: self.ws.x[..self.n].to_vec(),
            iterations: self.total_iters,
            residual: self.residual,
            converged: self.residual <= cfg.tol,
            breakdown: self.breakdown,
            interrupted: self.interrupted,
            history: self.ws.history.clone(),
        }
    }
}

/// Drives `lanes` to completion: alternately one operator call for every
/// lane waiting on `A`, then one preconditioner call for every lane
/// waiting on `M⁻¹`, each lane advancing its own state in between.
fn run_lockstep<O: LinearOperator, P: Preconditioner>(
    op: &O,
    precond: &P,
    lanes: &mut [Lane<'_>],
    cfg: &GmresConfig,
    budget: &Budget,
) {
    loop {
        let mut xs: Vec<&[f64]> = Vec::with_capacity(lanes.len());
        let mut ys: Vec<&mut [f64]> = Vec::with_capacity(lanes.len());
        for lane in lanes.iter_mut() {
            let (n, ws) = (lane.n, &mut *lane.ws);
            match lane.stage {
                Stage::Residual => xs.push(&ws.x[..n]),
                Stage::Operator => xs.push(&ws.z[..n]),
                _ => continue,
            }
            ys.push(&mut ws.work[..n]);
        }
        if xs.is_empty() {
            return;
        }
        op.apply_lanes(&xs, &mut ys);
        for lane in lanes.iter_mut() {
            lane.after_operator(cfg, budget);
        }

        let mut rs: Vec<&[f64]> = Vec::with_capacity(lanes.len());
        let mut zs: Vec<&mut [f64]> = Vec::with_capacity(lanes.len());
        for lane in lanes.iter_mut() {
            let (n, j, ws) = (lane.n, lane.j, &mut *lane.ws);
            match lane.stage {
                Stage::Precond => rs.push(&ws.v[j][..n]),
                Stage::Update => rs.push(&ws.work[..n]),
                _ => continue,
            }
            zs.push(&mut ws.z[..n]);
        }
        if rs.is_empty() {
            return;
        }
        precond.apply_lanes(&rs, &mut zs);
        for lane in lanes.iter_mut() {
            lane.after_precond();
        }
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

    /// Bitwise equality of two GMRES runs, field by field.
    fn assert_same(got: &GmresResult, want: &GmresResult, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
        assert_eq!(got.iterations, want.iterations, "{what}: iterations");
        assert_eq!(
            got.residual.to_bits(),
            want.residual.to_bits(),
            "{what}: residual"
        );
        assert_eq!(got.converged, want.converged, "{what}: converged");
        assert_eq!(got.breakdown, want.breakdown, "{what}: breakdown");
        assert_eq!(got.interrupted, want.interrupted, "{what}: interrupted");
        assert_eq!(bits(&got.history), bits(&want.history), "{what}: history");
    }

    /// Runs `bs` in lockstep and each one alone, and compares.
    fn lockstep_matches_one_lane_runs<O: LinearOperator, P: Preconditioner>(
        op: impl Fn() -> O,
        m: &P,
        bs: &[Vec<f64>],
        cfg: &GmresConfig,
        budget: impl Fn() -> Budget,
    ) -> Vec<GmresResult> {
        let refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
        let mut ws: Vec<GmresWorkspace> = bs.iter().map(|_| GmresWorkspace::new()).collect();
        let lanes = gmres_lanes(&op(), m, &refs, cfg, &budget(), &mut ws);
        for (l, (got, b)) in lanes.iter().zip(bs).enumerate() {
            let alone = gmres_with_workspace(
                &op(),
                m,
                b,
                None,
                cfg,
                &budget(),
                &mut GmresWorkspace::new(),
            );
            assert_same(got, &alone, &format!("lane {l}"));
        }
        lanes
    }

    fn rhs_set(n: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|s| {
                (0..n)
                    .map(|i| ((i * 7 + s * 13) % 11) as f64 - 5.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lockstep_lanes_equal_one_lane_runs_across_restarts() {
        let a = laplace2d(8);
        let cfg = GmresConfig {
            restart: 5,
            max_iters: 2000,
            tol: 1e-9,
        };
        let mut bs = rhs_set(64, 5);
        bs.push(vec![0.0; 64]);
        let m = JacobiPrecond::new(&a);
        let out = lockstep_matches_one_lane_runs(
            || CsrOperator::new(&a),
            &m,
            &bs,
            &cfg,
            Budget::unlimited,
        );
        assert!(out[..5].iter().all(|r| r.converged && r.iterations > 5));
        assert_eq!(out[5].iterations, 0, "a zero right-hand side needs no step");
    }

    #[test]
    fn lockstep_lanes_that_exhaust_max_iters_equal_one_lane_runs() {
        let a = laplace2d(10);
        let cfg = GmresConfig {
            restart: 5,
            max_iters: 7,
            tol: 1e-12,
        };
        let out = lockstep_matches_one_lane_runs(
            || CsrOperator::new(&a),
            &IdentityPrecond,
            &rhs_set(100, 4),
            &cfg,
            Budget::unlimited,
        );
        assert!(out.iter().all(|r| !r.converged && r.iterations == 7));
    }

    #[test]
    fn a_lane_breaking_down_on_nan_leaves_healthy_lanes_untouched() {
        let a = laplace2d(8);
        let mut bs = rhs_set(64, 4);
        bs[1][17] = f64::NAN;
        let out = lockstep_matches_one_lane_runs(
            || CsrOperator::new(&a),
            &IdentityPrecond,
            &bs,
            &GmresConfig::default(),
            Budget::unlimited,
        );
        assert_eq!(out[1].breakdown, Some(Breakdown::NonFinite));
        for l in [0, 2, 3] {
            assert!(out[l].converged && out[l].breakdown.is_none(), "lane {l}");
        }
    }

    #[test]
    fn a_budget_cancelled_mid_group_stops_every_lane_as_one_lane_runs_stop() {
        // Cancels the token on the operator's 5th call, whatever its
        // lane count: the 5th step of a lockstep group is the 5th step
        // of each of its lanes.
        struct CancelOnFifth<'a> {
            inner: CsrOperator<'a>,
            tok: sparsekit::CancelToken,
            calls: std::cell::Cell<usize>,
        }
        impl LinearOperator for CancelOnFifth<'_> {
            fn n(&self) -> usize {
                self.inner.n()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.apply_lanes(&[x], &mut [y]);
            }
            fn apply_lanes(&self, xs: &[&[f64]], ys: &mut [&mut [f64]]) {
                self.calls.set(self.calls.get() + 1);
                if self.calls.get() == 5 {
                    self.tok.cancel();
                }
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    self.inner.apply(x, y);
                }
            }
        }
        let a = laplace2d(10);
        let tok = std::cell::RefCell::new(sparsekit::CancelToken::new());
        let op = || {
            // A fresh token per run: each run cancels its own.
            let fresh = sparsekit::CancelToken::new();
            *tok.borrow_mut() = fresh.clone();
            CancelOnFifth {
                inner: CsrOperator::new(&a),
                tok: fresh,
                calls: std::cell::Cell::new(0),
            }
        };
        let budget = || Budget::unlimited().with_token(tok.borrow().clone());
        let out = lockstep_matches_one_lane_runs(
            op,
            &IdentityPrecond,
            &rhs_set(100, 3),
            &GmresConfig::default(),
            budget,
        );
        for r in &out {
            assert_eq!(r.interrupted, Some(BudgetInterrupt::Cancelled));
            assert!(r.iterations >= 1 && r.residual < 1.0);
        }
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
