//! The PDSLin driver: setup (phases 1–5) and solve (phase 6), with the
//! resilience layer wrapped around every fallible stage.
//!
//! Setup validates its inputs up front (NaN/Inf, dimensions), walks the
//! partition fallback chain on degeneracy, retries failed subdomain and
//! Schur factorisations with escalating pivoting and diagonal
//! perturbation; a non-finite `Ŝ` (an overflowing interface product) is
//! rejected by `LU(S̃)`, typed. The solve is one restarted GMRES run on
//! the Schur system, with no fallback: what it does not answer within
//! the acceptance floor is a typed [`PdslinError::SolveFailed`]. Every
//! recovery action is recorded in a [`RecoveryReport`] so a clean run is
//! distinguishable from a rescued one.
//!
//! On top of the retry chains sits the budgeted-execution layer:
//!
//! * every phase boundary and every hot kernel polls the [`Budget`]
//!   (deadline + cancel token), surfacing typed
//!   [`PdslinError::Cancelled`] / [`PdslinError::DeadlineExceeded`]
//!   errors that carry the statistics of the phases that did finish;
//! * the subdomain phases run their workers under `catch_unwind`: a
//!   panicking task is contained (its siblings still finish) and becomes
//!   the typed [`PdslinError::WorkerPanic`];
//! * the Schur assembly is guarded by memory admission control: a
//!   symbolic byte predictor is checked against the budget's memory
//!   limit *before* allocating, and an over-budget assembly degrades to
//!   a sparser preconditioner (tighter drop threshold) instead of
//!   blowing up;
//! * setup failures past the `LU(D)` phase hand back a
//!   [`SetupCheckpoint`] so a restart skips the refactorization.
//!
//! The phases themselves (`LU(D)` → `Comp(S)` → assembly → `LU(S̃)`)
//! live in one list in the private `phases` module; the entry points
//! here differ only in what they hand it to reuse.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use graphpart::WeightScheme;
use krylov::{gmres_lanes, GmresConfig, GmresResult, GmresWorkspace};
use slu::{LuFactors, TriScratch, MAX_LANES};
use sparsekit::budget::Budget;
use sparsekit::{csr_pattern_fingerprint, Csr};

use crate::budget::interrupt_error;
use crate::checkpoint::SetupCheckpoint;
use crate::error::PdslinError;
use crate::extract::{extract_dbbd, DbbdSystem};
use crate::fault::FaultPlan;
use crate::interface::InterfacePlan;
use crate::par::outer_worker_count;
use crate::partition::{compute_partition_robust, PartitionerKind};
use crate::phases::{fill_partial, phase_check, Pass};
use crate::precond::{ImplicitSchur, SchurApplyScratch, SchurPrecond, SchurSweeps};
use crate::recovery::RecoveryReport;
use crate::rhs_order::RhsOrdering;
use crate::stats::SetupStats;
use crate::subdomain::FactoredDomain;

/// Full PDSLin configuration.
#[derive(Clone, Copy, Debug)]
pub struct PdslinConfig {
    /// Number of interior subdomains `k` (power of two; the paper uses 8
    /// and 32).
    pub k: usize,
    /// DBBD partitioner.
    pub partitioner: PartitionerKind,
    /// Edge/net weighting of the partitioner (unit or value-scaled).
    pub weights: WeightScheme,
    /// RHS ordering for the interface solves (§IV).
    pub rhs_ordering: RhsOrdering,
    /// Block size `B` of the simultaneous triangular solves.
    pub block_size: usize,
    /// Drop tolerance σ₁ for `W̃`, `G̃`.
    pub interface_drop_tol: f64,
    /// Drop tolerance σ₂ for `S̃`.
    pub schur_drop_tol: f64,
    /// Threshold-pivoting parameter of the subdomain LU.
    pub pivot_threshold: f64,
    /// GMRES parameters for the Schur system.
    pub gmres: GmresConfig,
    /// Run the subdomain phases in parallel (scoped threads).
    pub parallel: bool,
    /// Deterministic fault injection (testing; defaults to none).
    pub fault: FaultPlan,
}

impl Default for PdslinConfig {
    fn default() -> Self {
        PdslinConfig {
            k: 8,
            partitioner: PartitionerKind::Ngd,
            weights: WeightScheme::Unit,
            rhs_ordering: RhsOrdering::Postorder,
            block_size: 60,
            interface_drop_tol: 1e-8,
            schur_drop_tol: 1e-8,
            pivot_threshold: 0.1,
            gmres: GmresConfig {
                restart: 200,
                max_iters: 1000,
                tol: 1e-10,
            },
            parallel: true,
            fault: FaultPlan::default(),
        }
    }
}

/// The assembled solver state after `setup`.
pub struct Pdslin {
    /// The extracted DBBD system.
    pub sys: DbbdSystem,
    /// Per-subdomain LU factors.
    pub factors: Vec<FactoredDomain>,
    /// LU factors of the approximate Schur complement `S̃`.
    pub schur_lu: LuFactors,
    /// Setup statistics (phase times, balances, interface stats,
    /// recovery log).
    pub stats: SetupStats,
    cfg: PdslinConfig,
    /// Pattern fingerprint of the setup matrix: [`Pdslin::update_values`]
    /// accepts only matrices with this pattern.
    pattern_fp: u64,
    /// The dropped approximate Schur complement `S̃` whose factorisation
    /// is `schur_lu`; kept so [`Pdslin::update_values`] can rebuild its
    /// numerics into the same sparsity.
    s_tilde: Csr,
    /// Per-subdomain interface scaffolding captured during `Comp(S)`:
    /// blocked-solve plans, column orders, and the `Uᵀ` structure.
    /// [`Pdslin::update_values`] replays these so sequence steps skip
    /// the interface symbolic work entirely; entry `l` is dropped (and
    /// lazily rebuilt) whenever domain `l`'s factor is rebuilt from
    /// scratch, since a fresh pivot order voids the cached reaches.
    iface_plans: Vec<Option<InterfacePlan>>,
    /// The restricted `LU(D_ℓ)` sweep lists of the Schur operator, built
    /// on first use; they hold as long as every domain's pivot order
    /// does.
    schur_sweeps: OnceLock<SchurSweeps>,
    /// Persistent solve-phase arenas: one per concurrent solve worker,
    /// each with room for a lockstep group of right-hand sides, grown on
    /// first use and reused forever after — the N-th solve grows no
    /// arena in the Krylov or triangular-solve hot loops.
    scratch: SolveScratch,
}

impl std::fmt::Debug for Pdslin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pdslin")
            .field("domains", &self.factors.len())
            .field("separator", &self.sys.nsep())
            .field("nnz_schur", &self.stats.nnz_schur)
            .finish_non_exhaustive()
    }
}

/// Outcome of one solve.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// GMRES iterations on the Schur system.
    pub iterations: usize,
    /// Final relative residual of the Schur solve.
    pub schur_residual: f64,
    /// Whether the requested tolerance was met.
    pub converged: bool,
    /// Wall-clock seconds of the whole solve phase. A right-hand side
    /// solved in a [`Pdslin::solve_many`] batch reports the wall time of
    /// its lockstep group (up to [`slu::MAX_LANES`] right-hand sides
    /// solved together), so the `seconds` of a batch do not add up to
    /// its wall time.
    pub seconds: f64,
}

/// A failed (or interrupted) setup: the typed error, plus — when the
/// `LU(D)` phase had already completed — a [`SetupCheckpoint`] from
/// which [`Pdslin::resume`] restarts without refactorizing.
#[derive(Debug)]
pub struct SetupFailure {
    /// Why the setup stopped.
    pub error: PdslinError,
    /// Snapshot taken after `LU(D)`, if that phase completed.
    pub checkpoint: Option<Box<SetupCheckpoint>>,
}

impl std::fmt::Display for SetupFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for SetupFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<PdslinError> for SetupFailure {
    fn from(error: PdslinError) -> SetupFailure {
        SetupFailure {
            error,
            checkpoint: None,
        }
    }
}

/// Outcome of one [`Pdslin::update_values`] call.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Factors whose numerics were rebuilt in place by replaying the
    /// stored pivot sequence (subdomains plus `S̃`).
    pub refactorized: usize,
    /// Factors rebuilt from scratch because the replay was rejected.
    pub rebuilt: usize,
    /// Recovery events recorded during this update (also appended to
    /// the solver's `stats.recovery`).
    pub recovery: RecoveryReport,
    /// Wall-clock seconds of the whole update.
    pub seconds: f64,
}

/// Residual level beyond which a GMRES run that missed the tolerance is
/// reported as a failure rather than a degraded success (relative to the
/// requested tolerance).
fn acceptance_floor(tol: f64) -> f64 {
    (tol * 1e3).max(1e-6)
}

impl Pdslin {
    /// Runs phases 1–5 (partition → extract → `LU(D)` → `Comp(S)` →
    /// `LU(S)`) with no execution budget.
    pub fn setup(a: &Csr, cfg: PdslinConfig) -> Result<Pdslin, PdslinError> {
        Self::setup_budgeted(a, cfg, &Budget::unlimited()).map_err(|f| f.error)
    }

    /// [`Pdslin::setup`] under an execution [`Budget`]. On failure past
    /// the `LU(D)` phase the returned [`SetupFailure`] carries a
    /// [`SetupCheckpoint`] so [`Pdslin::resume`] can restart without
    /// refactorizing the subdomains.
    pub fn setup_budgeted(
        a: &Csr,
        cfg: PdslinConfig,
        budget: &Budget,
    ) -> Result<Pdslin, SetupFailure> {
        Self::validate_input(a, &cfg)?;
        let mut stats = SetupStats::default();
        let mut recovery = RecoveryReport::default();

        phase_check(budget, "partition", &stats)?;
        let t = Instant::now();
        let part = compute_partition_robust(
            a,
            cfg.k,
            &cfg.partitioner,
            cfg.weights,
            cfg.fault.fail_partitioner,
            &mut recovery,
        )?;
        stats.times.partition = t.elapsed().as_secs_f64();

        phase_check(budget, "extract", &stats)?;
        let t = Instant::now();
        let sys = extract_dbbd(a, part);
        stats.times.extract = t.elapsed().as_secs_f64();
        stats.separator_size = sys.nsep();
        stats.dims = sys.domains.iter().map(|d| d.dim()).collect();
        stats.nnz_d = sys.domains.iter().map(|d| d.d.nnz()).collect();
        stats.nnzcol_e = sys.domains.iter().map(|d| d.e_cols.len()).collect();
        stats.nnz_e = sys.domains.iter().map(|d| d.e_hat.nnz()).collect();

        let mut factors = Vec::new();
        Pass {
            cfg: &cfg,
            fault: cfg.fault,
            budget,
            stats: &mut stats,
            recovery: &mut recovery,
        }
        .lu_d(&sys, &mut factors)?;
        stats.factorizations = factors.len();
        Self::complete_from_factors(
            sys,
            factors,
            stats,
            recovery,
            cfg,
            budget,
            csr_pattern_fingerprint(a),
        )
    }

    /// Input validation shared by every setup entry point.
    fn validate_input(a: &Csr, cfg: &PdslinConfig) -> Result<(), PdslinError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(PdslinError::InvalidInput {
                message: format!("matrix must be square, got {n}x{}", a.ncols()),
            });
        }
        if n == 0 {
            return Err(PdslinError::InvalidInput {
                message: "matrix is empty".to_string(),
            });
        }
        if cfg.k == 0 || cfg.k > n {
            return Err(PdslinError::InvalidInput {
                message: format!("k = {} must be in 1..={n}", cfg.k),
            });
        }
        if cfg.block_size == 0 {
            return Err(PdslinError::InvalidInput {
                message: "block size B must be at least 1".to_string(),
            });
        }
        let tol = cfg.gmres.tol;
        if !(tol.is_finite() && tol > 0.0) {
            return Err(PdslinError::InvalidInput {
                message: format!("GMRES tolerance {tol} must be finite and > 0"),
            });
        }
        for (name, drop) in [
            ("interface", cfg.interface_drop_tol),
            ("Schur", cfg.schur_drop_tol),
        ] {
            if !(drop.is_finite() && drop >= 0.0) {
                return Err(PdslinError::InvalidInput {
                    message: format!("{name} drop tolerance {drop} must be finite and >= 0"),
                });
            }
        }
        if let Some(i) = (0..n).find(|&i| a.row_values(i).iter().any(|v| !v.is_finite())) {
            return Err(PdslinError::NonFiniteInput {
                what: "A",
                index: i,
            });
        }
        Ok(())
    }

    /// The phases past `LU(D)` from freshly factored (or checkpointed)
    /// subdomains, shared by [`Pdslin::setup_budgeted`] and
    /// [`Pdslin::resume`]. Every error carries a checkpoint of the
    /// incoming factors. `pattern_fp` is the setup matrix's pattern
    /// fingerprint.
    fn complete_from_factors(
        sys: DbbdSystem,
        factors: Vec<FactoredDomain>,
        mut stats: SetupStats,
        mut recovery: RecoveryReport,
        cfg: PdslinConfig,
        budget: &Budget,
        pattern_fp: u64,
    ) -> Result<Pdslin, SetupFailure> {
        // The checkpoint's statistics: the factors as they arrived, with
        // whatever recovery happened up to (and including) LU(D).
        let mut ckpt_stats = stats.clone();
        ckpt_stats.recovery = recovery.clone();
        let mut iface_plans: Vec<Option<InterfacePlan>> = factors.iter().map(|_| None).collect();
        let mut pass = Pass {
            cfg: &cfg,
            fault: cfg.fault,
            budget,
            stats: &mut stats,
            recovery: &mut recovery,
        };
        let (s_tilde, schur_lu) = match pass.after_lu_d(&sys, &factors, &mut iface_plans, None) {
            Ok((s_tilde, fresh)) => (s_tilde, fresh.expect("nothing to replay: S̃ is factored")),
            Err(error) => {
                let checkpoint = SetupCheckpoint {
                    sys,
                    factors,
                    stats: ckpt_stats,
                    cfg,
                    pattern_fp,
                };
                return Err(SetupFailure {
                    error,
                    checkpoint: Some(Box::new(checkpoint)),
                });
            }
        };
        stats.recovery = recovery;
        Ok(Pdslin {
            sys,
            factors,
            schur_lu,
            stats,
            cfg,
            pattern_fp,
            s_tilde,
            iface_plans,
            schur_sweeps: OnceLock::new(),
            scratch: SolveScratch::default(),
        })
    }

    /// Snapshots this solver's post-`LU(D)` state so a later run (e.g.
    /// with different drop tolerances, or after a failed solve) can
    /// [`Pdslin::resume`] without refactorizing the subdomains.
    pub fn checkpoint(&self) -> SetupCheckpoint {
        SetupCheckpoint {
            sys: self.sys.clone(),
            factors: self.factors.clone(),
            stats: self.stats.clone(),
            cfg: self.cfg,
            pattern_fp: self.pattern_fp,
        }
    }

    /// Restarts setup from a checkpoint: the partition, extraction and
    /// `LU(D)` phases are skipped entirely (their statistics carry over;
    /// `factorizations` is 0 and `factorizations_reused` counts the
    /// recycled factors), and only `Comp(S)` → `LU(S̃)` rerun under the
    /// given budget.
    pub fn resume(mut ckpt: SetupCheckpoint, budget: &Budget) -> Result<Pdslin, SetupFailure> {
        let stats = &mut ckpt.stats;
        stats.factorizations = 0;
        stats.factorizations_reused = ckpt.factors.len();
        // The phases resume reruns are timed afresh.
        stats.times.comp_s = 0.0;
        stats.times.lu_s = 0.0;
        let recovery = std::mem::take(&mut stats.recovery);
        let (sys, factors, cfg, fp) = (ckpt.sys, ckpt.factors, ckpt.cfg, ckpt.pattern_fp);
        Self::complete_from_factors(sys, factors, ckpt.stats, recovery, cfg, budget, fp)
    }

    /// Incrementally rebuilds this solver's numerics for a matrix with
    /// the *same sparsity pattern* but new values — the sequence-solve
    /// fast path. The partition, the DBBD extraction structure, every
    /// subdomain column ordering, and the `S̃` sparsity pattern are all
    /// reused; only numbers are recomputed:
    ///
    /// 1. the DBBD blocks are re-extracted with the stored partition;
    /// 2. every subdomain LU replays its stored pivot sequence in place
    ///    (a factor that refuses the replay — pivot-perturbed, or a
    ///    stored pivot that vanished under the new values — is rebuilt
    ///    from scratch and logged as
    ///    [`RecoveryEvent::RefactorizationFallback`]);
    /// 3. `Comp(S)` reruns over the updated factors and the new `Ŝ` is
    ///    scattered into the stored `S̃` pattern (entries outside it
    ///    are dropped, preserving the preconditioner's sparsity);
    /// 4. `LU(S̃)` replays its stored pivots (same fallback).
    ///
    /// With values bit-identical to the setup matrix the resulting
    /// solver is bit-identical to a fresh [`Pdslin::setup`] (under
    /// pattern-only partition weights, the default); with drifted
    /// values the reused preconditioner degrades gradually.
    ///
    /// A matrix whose pattern differs from the setup matrix is rejected
    /// with [`PdslinError::InvalidInput`]. On any other error the
    /// solver may hold a mix of old and new numerics; rebuild it with a
    /// fresh setup before further use.
    ///
    /// [`RecoveryEvent::RefactorizationFallback`]: crate::RecoveryEvent::RefactorizationFallback
    pub fn update_values(&mut self, a: &Csr) -> Result<UpdateOutcome, PdslinError> {
        self.update_values_budgeted(a, &Budget::unlimited())
    }

    /// [`Pdslin::update_values`] under an execution [`Budget`].
    pub fn update_values_budgeted(
        &mut self,
        a: &Csr,
        budget: &Budget,
    ) -> Result<UpdateOutcome, PdslinError> {
        let t_all = Instant::now();
        Self::validate_input(a, &self.cfg)?;
        if csr_pattern_fingerprint(a) != self.pattern_fp {
            return Err(PdslinError::InvalidInput {
                message: "matrix sparsity pattern differs from the setup matrix; \
                          sequence updates need a full setup"
                    .to_string(),
            });
        }

        // Re-extract the DBBD blocks with the stored partition: cheap,
        // and the only structural work the update performs.
        phase_check(budget, "extract", &self.stats)?;
        let t = Instant::now();
        self.sys = extract_dbbd(a, self.sys.part.clone());
        self.stats.times.extract += t.elapsed().as_secs_f64();

        // The same phase list as setup, replaying every stored factor,
        // interface plan and the S̃ pattern; no faults are injected.
        let cfg = self.cfg;
        let mut recovery = RecoveryReport::default();
        let mut pass = Pass {
            cfg: &cfg,
            fault: FaultPlan::none(),
            budget,
            stats: &mut self.stats,
            recovery: &mut recovery,
        };
        let replayed = pass.lu_d(&self.sys, &mut self.factors)?;
        // A from-scratch factorisation chooses its own pivot order,
        // voiding that domain's cached interface scaffolding; Comp(S)
        // rebuilds it.
        let plans = self.iface_plans.iter_mut().zip(&replayed);
        plans
            .filter(|(_, &kept)| !kept)
            .for_each(|(plan, _)| *plan = None);
        // So does it void the restricted sweep lists.
        if replayed.contains(&false) {
            self.schur_sweeps = OnceLock::new();
        }
        let stored = Some((&self.s_tilde, &mut self.schur_lu));
        let (s_tilde, fresh) =
            pass.after_lu_d(&self.sys, &self.factors, &mut self.iface_plans, stored)?;
        self.s_tilde = s_tilde;
        let refactorized = replayed.iter().filter(|&&r| r).count() + usize::from(fresh.is_none());
        let rebuilt = replayed.len() + 1 - refactorized;
        if let Some(lu) = fresh {
            self.schur_lu = lu;
        }
        self.stats.refactorizations += refactorized;
        self.stats.refactorization_fallbacks += rebuilt;
        self.stats
            .recovery
            .events
            .extend_from_slice(&recovery.events);
        Ok(UpdateOutcome {
            refactorized,
            rebuilt,
            recovery,
            seconds: t_all.elapsed().as_secs_f64(),
        })
    }

    /// Solves `A x = b` via the Schur complement method (equations
    /// (2)–(4) of the paper): one restarted GMRES run on the Schur
    /// system, preconditioned by `LU(S̃)`.
    pub fn solve(&mut self, b: &[f64]) -> Result<SolveOutcome, PdslinError> {
        self.solve_budgeted(b, &Budget::unlimited())
    }

    /// [`Pdslin::solve`] under an execution [`Budget`]. An interrupt
    /// mid-solve stops GMRES immediately and surfaces the phase-labelled
    /// typed error; the factors are left untouched, so the solver
    /// remains usable with a fresh budget.
    pub fn solve_budgeted(
        &mut self,
        b: &[f64],
        budget: &Budget,
    ) -> Result<SolveOutcome, PdslinError> {
        let mut out = self.solve_batch(std::slice::from_ref(&b), budget)?;
        Ok(out.pop().expect("one outcome per right-hand side"))
    }

    /// Solves the same factorization against many right-hand sides.
    ///
    /// The batch runs in lockstep groups of up to [`slu::MAX_LANES`]
    /// right-hand sides: each one has its own GMRES, and at every Krylov
    /// step all of a group's active lanes go through each `LU(D_ℓ)` and
    /// the `LU(S̃)` factor in one sweep. The batch fans out over up to
    /// the configured thread count of workers, each taking a contiguous
    /// block of right-hand sides; every kernel of a worker runs on that
    /// worker's thread. Each worker owns a private scratch arena, so
    /// workers never contend, and the per-RHS results are **identical**
    /// (bit-for-bit, including iteration counts and residuals) to
    /// issuing the same [`Pdslin::solve`] calls sequentially.
    pub fn solve_many(&mut self, rhs: &[Vec<f64>]) -> Result<Vec<SolveOutcome>, PdslinError> {
        self.solve_many_budgeted(rhs, &Budget::unlimited())
    }

    /// [`Pdslin::solve_many`] under an execution [`Budget`]. All lanes
    /// poll the same budget; on interrupt or per-RHS failure the first
    /// error in RHS order is surfaced.
    pub fn solve_many_budgeted(
        &mut self,
        rhs: &[Vec<f64>],
        budget: &Budget,
    ) -> Result<Vec<SolveOutcome>, PdslinError> {
        self.solve_batch(rhs, budget)
    }

    /// The body of every solve entry point; a single solve is the
    /// one-RHS batch (one worker, one lane).
    fn solve_batch<B: AsRef<[f64]> + Sync>(
        &mut self,
        rhs: &[B],
        budget: &Budget,
    ) -> Result<Vec<SolveOutcome>, PdslinError> {
        if rhs.is_empty() {
            return Ok(Vec::new());
        }
        let t = Instant::now();
        let outer = outer_worker_count(rhs.len(), self.cfg.parallel).max(1);
        while self.scratch.workers.len() < outer {
            self.scratch.workers.push(WorkerScratch::default());
        }
        let cx = SolveContext {
            sys: &self.sys,
            factors: &self.factors,
            sweeps: self
                .schur_sweeps
                .get_or_init(|| SchurSweeps::new(&self.sys, &self.factors)),
            schur_lu: &self.schur_lu,
            cfg: &self.cfg,
            stats: &self.stats,
            budget,
        };
        // One worker solves a contiguous block of right-hand sides, one
        // lockstep group after another.
        let run = |block: &[B], ws: &mut WorkerScratch| -> Vec<Result<SolveOutcome, PdslinError>> {
            block
                .chunks(MAX_LANES)
                .flat_map(|group| {
                    let bs: Vec<&[f64]> = group.iter().map(AsRef::as_ref).collect();
                    solve_group(&cx, &bs, ws)
                })
                .collect()
        };
        let results = if outer <= 1 {
            run(rhs, &mut self.scratch.workers[0])
        } else {
            let workers = &mut self.scratch.workers[..outer];
            std::thread::scope(|sc| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .enumerate()
                    .map(|(w, ws)| {
                        let block = &rhs[rhs.len() * w / outer..rhs.len() * (w + 1) / outer];
                        let run = &run;
                        sc.spawn(move || run(block, ws))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        let outcomes = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        self.stats.times.solve += t.elapsed().as_secs_f64();
        Ok(outcomes)
    }

    /// Aggregated arena counters across all solve workers. `allocations`
    /// only advances when some arena had to *grow*, so a steady-state
    /// workload — one whose every worker has served its largest group
    /// and deepest Krylov cycle — shows `solves` climbing while
    /// `allocations` and `lanes` stay flat: the observable form of the
    /// zero-allocation guarantee.
    pub fn scratch_stats(&self) -> ScratchStats {
        let workers = &self.scratch.workers;
        ScratchStats {
            lanes: workers.len(),
            allocations: workers.iter().map(WorkerScratch::allocation_count).sum(),
            solves: workers.iter().map(|w| w.resets).sum(),
        }
    }

    /// The configuration this solver was set up with.
    pub fn config(&self) -> &PdslinConfig {
        &self.cfg
    }

    /// Share of the `LU(D_ℓ)` dependency entries one Schur apply sweeps:
    /// the forward sweeps run only what `Ê_ℓ`'s rows reach, the backward
    /// sweeps only what `F̂_ℓ`'s columns depend on (1 = full sweeps).
    pub fn schur_apply_kept_share(&self) -> f64 {
        self.schur_apply_sweeps().kept_share()
    }

    /// `(kept, total)`: the `LU(D_ℓ)` dependency entries one Schur apply
    /// sweeps, and those of the full sweeps — the work behind
    /// [`Pdslin::schur_apply_kept_share`].
    pub fn schur_apply_dep_entries(&self) -> (usize, usize) {
        self.schur_apply_sweeps().dep_entries()
    }

    /// Position runs one Schur apply sweeps: each run is one contiguous
    /// stretch of a sweep, so this is the apply's per-run overhead.
    pub fn schur_apply_runs(&self) -> usize {
        self.schur_apply_sweeps().run_count()
    }

    fn schur_apply_sweeps(&self) -> &SchurSweeps {
        self.schur_sweeps
            .get_or_init(|| SchurSweeps::new(&self.sys, &self.factors))
    }
}

/// Aggregated [`Pdslin`] scratch counters — see [`Pdslin::scratch_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Number of concurrent solve workers materialised so far (each
    /// owns one arena).
    pub lanes: usize,
    /// Total arena *growth* events (first solve per worker ⇒ ≥ 1; steady
    /// state ⇒ flat).
    pub allocations: u64,
    /// Total right-hand sides solved across workers.
    pub solves: u64,
}

/// All reusable state one solve worker needs: per-lane separator
/// right-hand sides and Krylov workspaces, the Schur apply scratch
/// (which also serves the reduce and the back-substitution), and the
/// `LU(S̃)` arena. Grown on first use (`allocations` ticks only when a
/// buffer grows), then reused verbatim by every later group on the
/// worker.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Separator right-hand side `ĝ` per lane.
    ghats: Vec<Vec<f64>>,
    gmres: Vec<GmresWorkspace>,
    /// Arena behind [`ImplicitSchur`] (interior mutability:
    /// `LinearOperator::apply` takes `&self`).
    schur_apply: RefCell<SchurApplyScratch>,
    /// Arena behind [`SchurPrecond`] applies.
    precond_tri: RefCell<TriScratch>,
    allocations: u64,
    resets: u64,
}

impl WorkerScratch {
    /// Sizes the per-lane buffers of `lanes` lanes for `sys`, counting a
    /// growth event if any buffer actually changed size.
    fn prepare(&mut self, sys: &DbbdSystem, lanes: usize) {
        self.resets += lanes as u64;
        let mut grew = false;
        if self.ghats.len() < lanes {
            self.ghats.resize_with(lanes, Vec::new);
            self.gmres.resize_with(lanes, GmresWorkspace::default);
            grew = true;
        }
        for ghat in &mut self.ghats[..lanes] {
            if ghat.len() != sys.nsep() {
                ghat.resize(sys.nsep(), 0.0);
                grew = true;
            }
        }
        if grew {
            self.allocations += 1;
        }
    }

    /// Growth events across this worker *and* every arena nested in it.
    fn allocation_count(&self) -> u64 {
        self.allocations
            + self.schur_apply.borrow().allocations()
            + self.precond_tri.borrow().allocations()
            + self
                .gmres
                .iter()
                .map(GmresWorkspace::allocations)
                .sum::<u64>()
    }
}

/// The workers owned by a [`Pdslin`]; worker `i` serves the `i`-th
/// block of a batched solve (plain solves always use worker 0).
#[derive(Debug, Default)]
struct SolveScratch {
    workers: Vec<WorkerScratch>,
}

/// What every group of a batch shares: the borrowed factors and the
/// settings.
struct SolveContext<'a> {
    sys: &'a DbbdSystem,
    factors: &'a [FactoredDomain],
    sweeps: &'a SchurSweeps,
    schur_lu: &'a LuFactors,
    cfg: &'a PdslinConfig,
    stats: &'a SetupStats,
    budget: &'a Budget,
}

/// One lockstep group of Schur-complement solves (equations (2)–(4) of
/// the paper) against borrowed factors: every right-hand side that
/// passes validation becomes a lane, and the lanes go through the
/// reduce, GMRES and the back-substitution together. Free function (not
/// a method) so [`Pdslin::solve_many`] can run groups on several workers
/// concurrently while the factors stay shared. Every outcome reports the
/// group's wall time.
fn solve_group(
    cx: &SolveContext<'_>,
    bs: &[&[f64]],
    ws: &mut WorkerScratch,
) -> Vec<Result<SolveOutcome, PdslinError>> {
    let t = Instant::now();
    let sys = cx.sys;
    let n: usize = sys.domains.iter().map(|d| d.dim()).sum::<usize>() + sys.nsep();
    let mut out: Vec<Option<Result<GmresResult, PdslinError>>> = bs
        .iter()
        .map(|b| validate_rhs(cx, b, n).err().map(Err))
        .collect();
    let live: Vec<usize> = (0..bs.len()).filter(|&i| out[i].is_none()).collect();
    let live_bs: Vec<&[f64]> = live.iter().map(|&i| bs[i]).collect();
    ws.prepare(sys, live.len());
    let WorkerScratch {
        ghats,
        gmres,
        schur_apply,
        precond_tri,
        ..
    } = ws;
    let ghats = &mut ghats[..live.len()];
    let op = ImplicitSchur::new(sys, cx.factors, cx.sweeps, schur_apply);
    let m = SchurPrecond::new(cx.schur_lu, precond_tri);
    op.reduce_lanes(&live_bs, ghats);
    let ghats: Vec<&[f64]> = ghats.iter().map(Vec::as_slice).collect();
    let solved = solve_schur(cx, &op, &m, &ghats, gmres);
    // Back-substitute the interiors of the lanes that produced a `y`.
    let (done_bs, ys): (Vec<&[f64]>, Vec<&[f64]>) = live_bs
        .iter()
        .zip(&solved)
        .filter_map(|(&b, s)| Some((b, &s.as_ref().ok()?.x[..])))
        .unzip();
    let mut xs: Vec<Vec<f64>> = ys.iter().map(|_| vec![0.0; n]).collect();
    op.back_substitute_lanes(&done_bs, &ys, &mut xs);
    for (l, s) in solved.into_iter().enumerate() {
        out[live[l]] = Some(s);
    }
    let seconds = t.elapsed().as_secs_f64();
    let mut xs = xs.into_iter();
    out.into_iter()
        .map(|o| {
            let s = o.expect("every right-hand side has an outcome")?;
            Ok(SolveOutcome {
                x: xs.next().expect("one solution per solved lane"),
                iterations: s.iterations,
                schur_residual: s.residual,
                converged: s.converged,
                seconds,
            })
        })
        .collect()
}

/// The per-RHS checks a solve starts with: budget, length, finiteness.
fn validate_rhs(cx: &SolveContext<'_>, b: &[f64], n: usize) -> Result<(), PdslinError> {
    if let Err(i) = cx.budget.check() {
        return Err(fill_partial(interrupt_error(i, "solve"), cx.stats));
    }
    if b.len() != n {
        return Err(PdslinError::InvalidInput {
            message: format!("rhs has length {}, expected {n}", b.len()),
        });
    }
    if let Some(i) = b.iter().position(|v| !v.is_finite()) {
        return Err(PdslinError::NonFiniteInput {
            what: "b",
            index: i,
        });
    }
    Ok(())
}

/// The Schur system (2) of one lockstep group: one restarted GMRES per
/// lane, run together with the configured [`GmresConfig`], each result
/// mapped to one outcome. An interrupt is the budget error; a converged
/// lane, or one whose residual still beats the acceptance floor
/// (`converged: false`), is answered; anything else is
/// [`PdslinError::SolveFailed`].
fn solve_schur(
    cx: &SolveContext<'_>,
    op: &ImplicitSchur<'_>,
    m: &SchurPrecond<'_>,
    ghats: &[&[f64]],
    gmres_ws: &mut [GmresWorkspace],
) -> Vec<Result<GmresResult, PdslinError>> {
    let floor = acceptance_floor(cx.cfg.gmres.tol);
    gmres_lanes(op, m, ghats, &cx.cfg.gmres, cx.budget, gmres_ws)
        .into_iter()
        .map(|r| match r.interrupted {
            Some(i) => Err(fill_partial(interrupt_error(i, "solve"), cx.stats)),
            None if r.converged || r.residual <= floor => Ok(r),
            None => Err(PdslinError::SolveFailed {
                residual: r.residual,
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryEvent;
    use hypergraph::RhbConfig;
    use matgen::stencil::{laplace2d, laplace3d};
    use sparsekit::ops::residual_inf_norm;
    use sparsekit::Coo;

    fn solve_and_check(a: &Csr, cfg: PdslinConfig) -> SolveOutcome {
        let mut solver = Pdslin::setup(a, cfg).expect("setup");
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let out = solver.solve(&b).expect("solve");
        let res = residual_inf_norm(a, &out.x, &b);
        assert!(res < 1e-6, "residual {res} too large");
        out
    }

    #[test]
    fn solves_2d_poisson_with_ngd() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let out = solve_and_check(&a, cfg);
        assert!(out.iterations < 50);
    }

    #[test]
    fn solves_2d_poisson_with_rhb() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 4,
            partitioner: PartitionerKind::Rhb(RhbConfig::default()),
            ..Default::default()
        };
        solve_and_check(&a, cfg);
    }

    #[test]
    fn solves_3d_poisson_k4() {
        let a = laplace3d(8, 8, 8);
        let cfg = PdslinConfig {
            k: 4,
            ..Default::default()
        };
        solve_and_check(&a, cfg);
    }

    #[test]
    fn exact_schur_preconditioner_converges_in_few_iterations() {
        let a = laplace2d(14, 14);
        let cfg = PdslinConfig {
            k: 2,
            interface_drop_tol: 0.0,
            schur_drop_tol: 0.0,
            ..Default::default()
        };
        let out = solve_and_check(&a, cfg);
        assert!(
            out.iterations <= 3,
            "exact S̃ should converge immediately, got {}",
            out.iterations
        );
    }

    #[test]
    fn dropping_trades_iterations_for_sparsity() {
        let a = laplace2d(16, 16);
        let exact = PdslinConfig {
            k: 2,
            interface_drop_tol: 0.0,
            schur_drop_tol: 0.0,
            ..Default::default()
        };
        let dropped = PdslinConfig {
            k: 2,
            interface_drop_tol: 1e-3,
            schur_drop_tol: 1e-3,
            ..Default::default()
        };
        let s1 = Pdslin::setup(&a, exact).unwrap();
        let s2 = Pdslin::setup(&a, dropped).unwrap();
        assert!(s2.stats.nnz_schur <= s1.stats.nnz_schur);
        // Both still solve.
        let b = vec![1.0; a.nrows()];
        let mut s2 = s2;
        let out = s2.solve(&b).unwrap();
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        // Set-up runs one thread per subdomain and every kernel inside a
        // subdomain serially, so the threaded answer is the one-thread
        // answer bit for bit: at k = 1 (one domain, no separator), k = 2
        // and k = 3 (the natural-block fallback).
        let a = laplace2d(12, 12);
        let b = vec![1.0; a.nrows()];
        for k in [1usize, 2, 3] {
            let run = |parallel| {
                let cfg = PdslinConfig {
                    k,
                    parallel,
                    ..Default::default()
                };
                let mut s = Pdslin::setup(&a, cfg).unwrap();
                let x = s.solve(&b).unwrap().x;
                let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                (
                    s.stats.separator_size,
                    s.stats.nnz_schur,
                    bits,
                    s.stats.recovery,
                )
            };
            let (par, seq) = (run(true), run(false));
            assert_eq!(par.0, seq.0, "separator size, k = {k}");
            assert_eq!(par.1, seq.1, "nnz(S̃), k = {k}");
            assert!(par.2 == seq.2, "x differs in its bits, k = {k}");
            assert_eq!(par.3.is_empty(), k != 3, "fallback taken only at k = 3");
        }
    }

    #[test]
    fn stats_are_populated() {
        let a = laplace2d(12, 12);
        let solver = Pdslin::setup(
            &a,
            PdslinConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let st = &solver.stats;
        assert_eq!(st.dims.len(), 2);
        assert!(st.separator_size > 0);
        assert!(st.nnz_schur > 0);
        assert_eq!(st.interface.len(), 2);
        assert!(st.domain_costs.lu_d.len() == 2);
        assert!(st.times.lu_d > 0.0);
    }

    // ----- input validation -----

    #[test]
    fn rejects_nonsquare_and_empty_and_bad_k() {
        let rect = Csr::from_parts(2, 3, vec![0, 0, 0], vec![], vec![]);
        assert!(matches!(
            Pdslin::setup(&rect, PdslinConfig::default()),
            Err(PdslinError::InvalidInput { .. })
        ));
        let a = laplace2d(6, 6);
        assert!(matches!(
            Pdslin::setup(
                &a,
                PdslinConfig {
                    k: 0,
                    ..Default::default()
                }
            ),
            Err(PdslinError::InvalidInput { .. })
        ));
        assert!(matches!(
            Pdslin::setup(
                &a,
                PdslinConfig {
                    k: 1000,
                    ..Default::default()
                }
            ),
            Err(PdslinError::InvalidInput { .. })
        ));
    }

    #[test]
    fn rejects_tolerances_that_are_not_finite_or_are_negative() {
        // A GMRES tolerance of inf "converges" in zero iterations with a
        // wrong answer, nan or a negative one never converges, and a nan
        // drop tolerance silently drops every entry of G~, W~ and S~.
        let a = laplace2d(6, 6);
        let base = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let mut bad = Vec::new();
        for tol in [f64::INFINITY, f64::NAN, -1.0, 0.0] {
            let mut cfg = base;
            cfg.gmres.tol = tol;
            bad.push(cfg);
        }
        for drop in [f64::NAN, f64::INFINITY, -1e-8] {
            bad.push(PdslinConfig {
                interface_drop_tol: drop,
                ..base
            });
            bad.push(PdslinConfig {
                schur_drop_tol: drop,
                ..base
            });
        }
        for cfg in bad {
            match Pdslin::setup(&a, cfg) {
                Err(PdslinError::InvalidInput { message }) => {
                    assert!(message.contains("tolerance"), "{message}")
                }
                other => panic!("{cfg:?}: expected InvalidInput, got {other:?}"),
            }
        }
        let zero_drop = PdslinConfig {
            interface_drop_tol: 0.0,
            schur_drop_tol: 0.0,
            ..base
        };
        assert!(
            Pdslin::setup(&a, zero_drop).is_ok(),
            "drop 0 keeps every entry"
        );
    }

    #[test]
    fn rejects_nonfinite_matrix() {
        let mut c = Coo::new(4, 4);
        for i in 0..4 {
            c.push(i, i, 4.0);
        }
        c.push(2, 3, f64::NAN);
        c.push(3, 2, -1.0);
        let a = c.to_csr();
        match Pdslin::setup(
            &a,
            PdslinConfig {
                k: 2,
                ..Default::default()
            },
        ) {
            Err(PdslinError::NonFiniteInput { what: "A", index }) => assert_eq!(index, 2),
            Err(other) => panic!("expected NonFiniteInput, got {other:?}"),
            Ok(_) => panic!("expected NonFiniteInput, got Ok"),
        }
    }

    #[test]
    fn rejects_bad_rhs() {
        let a = laplace2d(8, 8);
        let mut s = Pdslin::setup(
            &a,
            PdslinConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(
            s.solve(&[1.0; 5]),
            Err(PdslinError::InvalidInput { .. })
        ));
        let mut b = vec![1.0; 64];
        b[17] = f64::INFINITY;
        match s.solve(&b) {
            Err(PdslinError::NonFiniteInput {
                what: "b",
                index: 17,
            }) => {}
            other => panic!("expected NonFiniteInput, got {other:?}"),
        }
    }

    // ----- fault injection / recovery paths -----

    #[test]
    fn no_fault_run_has_zero_recovery_events() {
        let a = laplace2d(16, 16);
        let mut s = Pdslin::setup(
            &a,
            PdslinConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            s.stats.recovery.is_empty(),
            "{}",
            s.stats.recovery.summary()
        );
        let b = vec![1.0; a.nrows()];
        assert!(s.solve(&b).unwrap().converged);
    }

    #[test]
    fn recovers_from_injected_singular_domain() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            fault: FaultPlan {
                singular_domain: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).expect("setup must recover");
        let retried = s
            .stats
            .recovery
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::SubdomainLuRetry { domain: 1, .. }));
        assert!(retried, "{}", s.stats.recovery.summary());
        let b = vec![1.0; a.nrows()];
        let out = s.solve(&b).unwrap();
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
    }

    /// A finite `A` whose coupling blocks `E`, `F` are ≈ 1e200 around a
    /// well-conditioned `D`: `T̃ = W̃G̃` overflows, `LU(S̃)` rejects the
    /// non-finite `Ŝ`, typed, and no rung fires on the way.
    #[test]
    fn overflowing_interface_product_fails_lu_s_typed() {
        let cfg = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let mut a = laplace2d(16, 16);
        let part = crate::partition::compute_partition(&a, cfg.k, &cfg.partitioner);
        let sep = |i: usize| part.part_of[i] == graphpart::SEPARATOR;
        let rows: Vec<usize> = (0..a.nrows())
            .flat_map(|i| std::iter::repeat_n(i, a.row_indices(i).len()))
            .collect();
        let cols = a.indices().to_vec();
        for ((v, &i), &j) in a.values_mut().iter_mut().zip(&rows).zip(&cols) {
            if sep(i) != sep(j) {
                *v *= 1e200;
            }
        }
        let non_finite_s = |e: &PdslinError| {
            matches!(
                e,
                PdslinError::SchurFactorization {
                    source: slu::LuError::NonFinite { .. },
                    ..
                }
            )
        };
        let err = Pdslin::setup(&a, cfg).err();
        assert!(err.as_ref().is_some_and(non_finite_s), "{err:?}");
        // The same phase list, with its recovery log in view.
        let sys = extract_dbbd(&a, part.clone());
        let (mut stats, mut recovery) = (SetupStats::default(), RecoveryReport::default());
        let mut pass = Pass {
            cfg: &cfg,
            fault: cfg.fault,
            budget: &Budget::unlimited(),
            stats: &mut stats,
            recovery: &mut recovery,
        };
        let mut factors = Vec::new();
        pass.lu_d(&sys, &mut factors).unwrap();
        let mut plans: Vec<_> = factors.iter().map(|_| None).collect();
        let err = pass.after_lu_d(&sys, &factors, &mut plans, None).err();
        assert!(err.as_ref().is_some_and(non_finite_s), "{err:?}");
        assert!(recovery.is_empty(), "{}", recovery.summary());
    }

    /// An injected panic is its domain's typed `WorkerPanic`; the
    /// sibling tasks still finish their factors.
    #[test]
    fn worker_panic_is_typed_and_siblings_finish() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 4,
            fault: FaultPlan {
                worker_panic: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let part = crate::partition::compute_partition(&a, cfg.k, &cfg.partitioner);
        let sys = extract_dbbd(&a, part);
        let (mut stats, mut recovery) = (SetupStats::default(), RecoveryReport::default());
        let mut factors = Vec::new();
        let out = Pass {
            cfg: &cfg,
            fault: cfg.fault,
            budget: &Budget::unlimited(),
            stats: &mut stats,
            recovery: &mut recovery,
        }
        .lu_d(&sys, &mut factors);
        let typed = matches!(
            out,
            Err(PdslinError::WorkerPanic {
                phase: "lu_d",
                domain: 1,
                ..
            })
        );
        assert!(typed, "{out:?}");
        assert_eq!(factors.len(), cfg.k - 1);
        assert!(recovery.is_empty(), "{}", recovery.summary());
    }

    #[test]
    fn recovers_from_failed_partitioner() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            fault: FaultPlan {
                fail_partitioner: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).expect("setup must recover");
        let fellback = s
            .stats
            .recovery
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::PartitionFallback { .. }));
        assert!(fellback, "{}", s.stats.recovery.summary());
        let b = vec![1.0; a.nrows()];
        let out = s.solve(&b).unwrap();
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
    }

    #[test]
    fn exhausted_gmres_is_a_typed_solve_failure() {
        // One GMRES step and a diagonal-only S̃ as the preconditioner:
        // the run stops far above the acceptance floor.
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            schur_drop_tol: 1e3,
            gmres: GmresConfig {
                restart: 1,
                max_iters: 1,
                tol: 1e-14,
            },
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).unwrap();
        match s.solve(&vec![1.0; a.nrows()]) {
            Err(PdslinError::SolveFailed { residual }) => {
                assert!(residual > acceptance_floor(1e-14), "{residual}")
            }
            other => panic!("expected SolveFailed, got {other:?}"),
        }
    }

    // ----- sequence solves / incremental refactorization -----

    fn drift(a: &Csr, scale: f64) -> Csr {
        let mut b = a.clone();
        for (t, v) in b.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + scale * ((t % 13) as f64 - 6.0) / 6.0;
        }
        b
    }

    #[test]
    fn update_values_with_identical_values_is_bit_identical() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 4,
            ..Default::default()
        };
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut fresh = Pdslin::setup(&a, cfg).unwrap();
        let mut upd = Pdslin::setup(&a, cfg).unwrap();
        let out = upd.update_values(&a).unwrap();
        assert_eq!(out.rebuilt, 0, "{}", out.recovery.summary());
        assert_eq!(out.refactorized, upd.factors.len() + 1);
        for (f, u) in fresh.factors.iter().zip(&upd.factors) {
            assert_eq!(f.lu.l.values(), u.lu.l.values());
            assert_eq!(f.lu.u.values(), u.lu.u.values());
        }
        assert_eq!(fresh.schur_lu.l.values(), upd.schur_lu.l.values());
        assert_eq!(fresh.schur_lu.u.values(), upd.schur_lu.u.values());
        let xf = fresh.solve(&b).unwrap();
        let xu = upd.solve(&b).unwrap();
        assert_eq!(xf.iterations, xu.iterations);
        for (p, q) in xf.x.iter().zip(&xu.x) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn update_values_tracks_drifting_values() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).unwrap();
        let a2 = drift(&a, 0.05);
        let out = s.update_values(&a2).unwrap();
        assert_eq!(out.rebuilt, 0, "{}", out.recovery.summary());
        let b = vec![1.0; a.nrows()];
        let sol = s.solve(&b).unwrap();
        assert!(sol.converged);
        let res = residual_inf_norm(&a2, &sol.x, &b);
        assert!(res < 1e-6, "residual {res} against the *updated* matrix");
    }

    #[test]
    fn update_values_rejects_a_different_pattern() {
        let a = laplace2d(12, 12);
        let cfg = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).unwrap();
        let other = laplace2d(13, 12);
        assert!(matches!(
            s.update_values(&other),
            Err(PdslinError::InvalidInput { .. })
        ));
        let b = laplace3d(6, 6, 4);
        assert_eq!(b.nrows(), a.nrows());
        assert!(matches!(
            s.update_values(&b),
            Err(PdslinError::InvalidInput { .. })
        ));
    }

    #[test]
    fn update_values_falls_back_per_factor_on_a_vanished_pivot() {
        let a = laplace2d(14, 14);
        let cfg = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).unwrap();
        // A first solve builds the Schur operator's sweep lists, which
        // the rebuilt factor's new pivot order voids.
        let b = vec![1.0; a.nrows()];
        s.solve(&b).unwrap();
        // Same pattern, but subdomain 0's first stored pivot becomes an
        // explicit 0.0: its replay must be refused at step 0.
        let lu = &s.factors[0].lu;
        let rows = &s.sys.domains[0].rows;
        let (i, j) = (rows[lu.row_perm.to_old(0)], rows[lu.col_perm.to_old(0)]);
        let mut z = a.clone();
        let t = z.indptr()[i] + z.row_indices(i).binary_search(&j).unwrap();
        z.values_mut()[t] = 0.0;
        let out = s.update_values(&z).unwrap();
        assert!(out.rebuilt >= 1, "{}", out.recovery.summary());
        assert!(out.recovery.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::RefactorizationFallback {
                target: "subdomain",
                domain: 0,
                ..
            }
        )));
        assert_eq!(s.stats.refactorization_fallbacks, out.rebuilt);
        let sol = s.solve(&b).unwrap();
        assert!(sol.converged);
        assert!(residual_inf_norm(&z, &sol.x, &b) < 1e-6);
    }

    #[test]
    fn update_values_after_resume_replays_every_factor() {
        let a = laplace2d(14, 14);
        let cfg = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let s = Pdslin::setup(&a, cfg).unwrap();
        let mut r = Pdslin::resume(s.checkpoint(), &Budget::unlimited())
            .map_err(|f| f.error)
            .unwrap();
        // The checkpoint holds the factors themselves, replay records
        // included, so an identity update rebuilds nothing.
        let out = r.update_values(&a).unwrap();
        assert_eq!(out.rebuilt, 0, "{}", out.recovery.summary());
        assert_eq!(out.refactorized, r.factors.len() + 1);
        assert!(out.recovery.is_empty());
        // It also carries the setup matrix's pattern guard.
        let other = laplace3d(7, 7, 4);
        assert_eq!(other.nrows(), a.nrows());
        assert!(matches!(
            r.update_values(&other),
            Err(PdslinError::InvalidInput { .. })
        ));
    }

    #[test]
    fn faulted_runs_match_clean_answers() {
        let a = laplace2d(12, 12);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let clean = {
            let mut s = Pdslin::setup(
                &a,
                PdslinConfig {
                    k: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            s.solve(&b).unwrap().x
        };
        let cfg = PdslinConfig {
            k: 2,
            fault: FaultPlan {
                singular_domain: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).unwrap();
        let x = s.solve(&b).unwrap().x;
        for (xc, xf) in clean.iter().zip(&x) {
            assert!((xc - xf).abs() < 1e-6, "the fault changed the answer");
        }
    }
}
