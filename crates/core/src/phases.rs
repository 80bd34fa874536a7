//! The set-up phase list behind every [`Pdslin`] entry point, one
//! function per phase, named by the phase labels of the trace, the typed
//! errors and [`SetupStats`]: `lu_d` → `comp_s` → `schur` (assembly) →
//! `lu_s`. The entry points differ only in what a [`Pass`] reuses;
//! DESIGN.md § 4 has the table.
//!
//! [`Pdslin`]: crate::Pdslin

use std::time::Instant;

use slu::LuFactors;
use sparsekit::budget::Budget;
use sparsekit::Csr;

use crate::budget::interrupt_error;
use crate::driver::PdslinConfig;
use crate::error::PdslinError;
use crate::extract::DbbdSystem;
use crate::fault::FaultPlan;
use crate::interface::{compute_interface_planned, InterfaceConfig, InterfacePlan};
use crate::par::map_isolated;
use crate::recovery::{RecoveryEvent, RecoveryReport};
use crate::schur::{assemble_schur, factor_schur_robust, schur_bytes_estimate};
use crate::stats::SetupStats;
use crate::subdomain::{factor_domain_robust, FactoredDomain};

/// Ceiling of the memory-degradation escalation: beyond this drop
/// threshold the preconditioner would be mostly diagonal and the outer
/// iteration would stop converging, so admission control gives up.
const MAX_DEGRADE_DROP_TOL: f64 = 1e-1;

/// Attaches the statistics gathered so far to a deadline error (other
/// errors pass through unchanged).
pub(crate) fn fill_partial(e: PdslinError, stats: &SetupStats) -> PdslinError {
    match e {
        PdslinError::DeadlineExceeded { phase, elapsed, .. } => PdslinError::DeadlineExceeded {
            phase,
            elapsed,
            partial: Box::new(stats.clone()),
        },
        e => e,
    }
}

/// A phase-boundary budget check producing the typed solver error.
pub(crate) fn phase_check(
    budget: &Budget,
    phase: &'static str,
    stats: &SetupStats,
) -> Result<(), PdslinError> {
    budget
        .check()
        .map_err(|i| fill_partial(interrupt_error(i, phase), stats))
}

/// Runs `f` once per item under [`map_isolated`], then walks the results
/// in domain order: a panicked task is the typed
/// [`PdslinError::WorkerPanic`]. Each task's recovery events are appended
/// in domain order, and the first error ends the walk.
fn per_domain<T, R, F>(
    phase: &'static str,
    items: &mut [T],
    parallel: bool,
    recovery: &mut RecoveryReport,
    f: F,
) -> Result<Vec<R>, PdslinError>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> Result<(R, Vec<RecoveryEvent>), PdslinError> + Sync,
{
    let isolated = map_isolated(items, parallel, f);
    let mut out = Vec::with_capacity(isolated.len());
    for (domain, res) in isolated.into_iter().enumerate() {
        let (r, events) = res.map_err(|message| PdslinError::WorkerPanic {
            phase,
            domain,
            message,
        })??;
        recovery.events.extend(events);
        out.push(r);
    }
    Ok(out)
}

/// One run of the phase list: its configuration, the faults it injects
/// (none on a value update) and its budget, plus the statistics and
/// recovery log it writes. Phase times accumulate.
pub(crate) struct Pass<'a> {
    pub cfg: &'a PdslinConfig,
    pub fault: FaultPlan,
    pub budget: &'a Budget,
    pub stats: &'a mut SetupStats,
    pub recovery: &'a mut RecoveryReport,
}

impl Pass<'_> {
    /// `LU(D)`, one isolated task per subdomain. `factors` is empty for a
    /// fresh pass, or holds an earlier pass's factors, whose pivot
    /// sequences are replayed in place; a factor whose replay is rejected
    /// is factored from scratch. Returns which replays held.
    /// On a replay pass `factors` keeps one factor per domain even on
    /// error.
    pub(crate) fn lu_d(
        &mut self,
        sys: &DbbdSystem,
        factors: &mut Vec<FactoredDomain>,
    ) -> Result<Vec<bool>, PdslinError> {
        phase_check(self.budget, "lu_d", self.stats)?;
        let t = Instant::now();
        let (cfg, fault, budget) = (self.cfg, self.fault, self.budget);
        let task = |l: usize, slot: &mut Option<FactoredDomain>| {
            if fault.worker_panic == Some(l) {
                panic!("injected worker panic in LU(D_{l})");
            }
            let t0 = Instant::now();
            let d = &sys.domains[l].d;
            let mut events = Vec::new();
            let replay = slot.as_mut().map(|fd| fd.lu.refactorize(d));
            if let Some(Err(err)) = &replay {
                events.push(RecoveryEvent::RefactorizationFallback {
                    target: "subdomain",
                    domain: l,
                    reason: err.to_string(),
                });
            }
            let replayed = matches!(replay, Some(Ok(())));
            if !replayed {
                let singular = fault.singular_domain == Some(l);
                let (fd, retries) =
                    factor_domain_robust(d, l, cfg.pivot_threshold, singular, budget)?;
                events.extend(retries);
                *slot = Some(fd);
            }
            Ok(((t0.elapsed().as_secs_f64(), replayed), events))
        };
        let mut slots: Vec<_> = match std::mem::take(factors) {
            fresh if fresh.is_empty() => sys.domains.iter().map(|_| None).collect(),
            stored => stored.into_iter().map(Some).collect(),
        };
        let done = per_domain("lu_d", &mut slots, cfg.parallel, self.recovery, task);
        *factors = slots.into_iter().flatten().collect();
        let done = done.map_err(|e| fill_partial(e, self.stats))?;
        let (secs, replayed) = done.into_iter().unzip();
        self.stats.times.lu_d += t.elapsed().as_secs_f64();
        self.stats.domain_costs.lu_d = secs;
        Ok(replayed)
    }

    /// The phases past `LU(D)`. `stored` is the `S̃` pattern and factors
    /// an earlier pass left for `LU(S̃)` to replay; without it the
    /// assembly passes memory admission and `S̃` is factored afresh.
    /// Returns `S̃` and, unless the replay held, its fresh factors.
    pub(crate) fn after_lu_d(
        &mut self,
        sys: &DbbdSystem,
        factors: &[FactoredDomain],
        plans: &mut [Option<InterfacePlan>],
        stored: Option<(&Csr, &mut LuFactors)>,
    ) -> Result<(Csr, Option<LuFactors>), PdslinError> {
        let t_tildes = self.comp_s(sys, factors, plans)?;
        let s_hat = self.schur(sys, t_tildes, stored.is_none())?;
        self.lu_s(&s_hat, stored)
    }

    /// `Comp(S)`: interface solves and `T̃_ℓ` products, one isolated task
    /// per subdomain, each on one thread. `plans[ℓ]` (blocked-solve
    /// plans, column orders, `Uᵀ` structure) is replayed when present and
    /// filled when missing. A non-finite `T̃_ℓ` (an overflowing product)
    /// carries into `Ŝ`, and `LU(S̃)` rejects it, typed.
    fn comp_s(
        &mut self,
        sys: &DbbdSystem,
        factors: &[FactoredDomain],
        plans: &mut [Option<InterfacePlan>],
    ) -> Result<Vec<Csr>, PdslinError> {
        phase_check(self.budget, "comp_s", self.stats)?;
        let t = Instant::now();
        let (cfg, budget) = (self.cfg, self.budget);
        let icfg = InterfaceConfig {
            block_size: cfg.block_size,
            ordering: cfg.rhs_ordering,
            drop_tol: cfg.interface_drop_tol,
        };
        let task = |l: usize, plan: &mut Option<InterfacePlan>| {
            let t0 = Instant::now();
            let (fd, dom) = (&factors[l], &sys.domains[l]);
            let (out, built) = compute_interface_planned(fd, dom, &icfg, budget, 1, plan.as_ref())
                .map_err(|i| interrupt_error(i, "comp_s"))?;
            if built.is_some() {
                *plan = built;
            }
            let secs = t0.elapsed().as_secs_f64();
            Ok(((out.t_tilde, (out.stats, secs)), Vec::new()))
        };
        let done = per_domain("comp_s", plans, cfg.parallel, self.recovery, task)
            .map_err(|e| fill_partial(e, self.stats))?;
        let (t_tildes, costs): (Vec<Csr>, Vec<_>) = done.into_iter().unzip();
        (self.stats.interface, self.stats.domain_costs.comp_s) = costs.into_iter().unzip();
        self.stats.times.comp_s += t.elapsed().as_secs_f64();
        Ok(t_tildes)
    }

    /// Schur assembly `Ŝ = C − Σ_ℓ R_{F_ℓ} T̃_ℓ R_{E_ℓ}ᵀ`. With `admit`,
    /// memory admission control predicts the bytes of `Ŝ` *before*
    /// forming it; over budget, the `T̃` blocks are re-dropped with an
    /// escalating threshold — a sparser, weaker preconditioner costs
    /// outer iterations, not correctness. A replay is bounded by the
    /// stored `S̃` pattern instead.
    fn schur(
        &mut self,
        sys: &DbbdSystem,
        mut t_tildes: Vec<Csr>,
        admit: bool,
    ) -> Result<Csr, PdslinError> {
        // Fault injection: stall before the assembly so a
        // deadline-limited setup deterministically runs out of time at
        // this phase boundary (with the factors checkpointable).
        if let Some(ms) = self.fault.stall_schur_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        phase_check(self.budget, "schur", self.stats)?;
        let honest_bytes = schur_bytes_estimate(sys, &t_tildes);
        let mut predicted = if self.fault.memory_blowup {
            honest_bytes.saturating_mul(1024).saturating_add(1)
        } else {
            honest_bytes
        };
        let mem_limit = self
            .budget
            .mem_limit()
            .or_else(|| self.fault.memory_blowup.then_some(honest_bytes))
            .filter(|_| admit);
        if let Some(limit) = mem_limit {
            let mut drop_tol = (self.cfg.schur_drop_tol * 10.0).max(1e-6);
            while predicted > limit {
                if drop_tol > MAX_DEGRADE_DROP_TOL {
                    return Err(PdslinError::MemoryBudgetExceeded {
                        phase: "schur",
                        needed_bytes: predicted,
                        budget_bytes: limit,
                    });
                }
                // Skip a decade below every stored |t̃_ij|: `drop_small`
                // keeps exactly the entries above it, so that round would
                // drop nothing and change no prediction.
                let keeps_all = t_tildes
                    .iter()
                    .all(|t| t.values().iter().all(|v| v.abs() > drop_tol));
                if !keeps_all {
                    for t_tilde in t_tildes.iter_mut() {
                        *t_tilde = t_tilde.drop_small(drop_tol, false).0;
                    }
                    self.recovery.push(RecoveryEvent::SchurMemoryDegraded {
                        predicted_bytes: predicted,
                        budget_bytes: limit,
                        drop_tol,
                    });
                    predicted = schur_bytes_estimate(sys, &t_tildes);
                }
                drop_tol *= 10.0;
            }
        }
        self.stats.nnz_t = t_tildes.iter().map(|t| t.nnz()).collect();
        Ok(assemble_schur(sys, &t_tildes))
    }

    /// `LU(S̃)`. With `stored`, `Ŝ`'s values are scattered into the
    /// stored `S̃` pattern (entries outside it are dropped, preserving the
    /// preconditioner's sparsity) and the stored pivots are replayed in
    /// place. Otherwise, or when the replay is rejected, `Ŝ` is dropped to
    /// `S̃` and factored afresh; a non-finite `Ŝ` then fails with a typed
    /// `NonFinite` error instead of propagating NaNs. Returns `S̃`
    /// and, unless the replay held, its fresh factors.
    fn lu_s(
        &mut self,
        s_hat: &Csr,
        stored: Option<(&Csr, &mut LuFactors)>,
    ) -> Result<(Csr, Option<LuFactors>), PdslinError> {
        let t = Instant::now();
        let mut replayed = None;
        if let Some((pattern, lu)) = stored {
            let st = s_hat.values_in_pattern(pattern);
            match lu.refactorize(&st) {
                Ok(()) => replayed = Some(st),
                Err(err) => self.recovery.push(RecoveryEvent::RefactorizationFallback {
                    target: "schur",
                    domain: 0,
                    reason: err.to_string(),
                }),
            }
        }
        let out = match replayed {
            Some(st) => (st, None),
            None => {
                let (cfg, budget) = (self.cfg, self.budget);
                let (st, lu, events) =
                    factor_schur_robust(s_hat, cfg.schur_drop_tol, cfg.pivot_threshold, budget)
                        .map_err(|e| fill_partial(e, self.stats))?;
                self.recovery.events.extend(events);
                (st, Some(lu))
            }
        };
        self.stats.times.lu_s += t.elapsed().as_secs_f64();
        self.stats.nnz_schur = out.0.nnz();
        Ok(out)
    }
}
