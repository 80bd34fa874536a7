//! The PDSLin driver: setup (phases 1–5) and solve (phase 6), with the
//! resilience layer wrapped around every fallible stage.
//!
//! Setup validates its inputs up front (NaN/Inf, dimensions), walks the
//! partition fallback chain on degeneracy, retries failed subdomain and
//! Schur factorisations with escalating pivoting and diagonal
//! perturbation, and repairs poisoned interface blocks. The solve walks
//! a Krylov fallback chain (GMRES → GMRES with a doubled restart →
//! direct `LU(S̃)` solve with iterative refinement). Every
//! recovery action is recorded in a [`RecoveryReport`] so a clean run
//! is distinguishable from a rescued one.
//!
//! On top of the retry chains sits the budgeted-execution layer:
//!
//! * every phase boundary and every hot kernel polls the [`Budget`]
//!   (deadline + cancel token), surfacing typed
//!   [`PdslinError::Cancelled`] / [`PdslinError::DeadlineExceeded`]
//!   errors that carry the statistics of the phases that did finish;
//! * the subdomain phases run their workers under `catch_unwind`; a
//!   panicking task is retried once, then the whole setup is retried on
//!   the natural-block fallback partition, then the typed
//!   [`PdslinError::WorkerPanic`] surfaces;
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
use std::time::Instant;

use graphpart::WeightScheme;
use krylov::{gmres_with_workspace, GmresConfig, GmresWorkspace, LinearOperator};
use slu::{LuFactors, TriScratch};
use sparsekit::budget::{Budget, BudgetInterrupt};
use sparsekit::ops::{axpy, norm2};
use sparsekit::{csr_pattern_fingerprint, Csr};

use crate::budget::interrupt_error;
use crate::checkpoint::SetupCheckpoint;
use crate::error::PdslinError;
use crate::extract::{extract_dbbd, DbbdSystem};
use crate::fault::FaultPlan;
use crate::interface::InterfacePlan;
use crate::par::{inner_worker_count, outer_worker_count};
use crate::partition::{compute_partition_robust, natural_block_partition, PartitionerKind};
use crate::phases::{fill_partial, phase_check, Pass};
use crate::precond::{ImplicitSchur, SchurApplyScratch, SchurPrecond};
use crate::recovery::{RecoveryEvent, RecoveryReport};
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
                restart: 100,
                max_iters: 500,
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
    /// Persistent solve-phase arenas: one lane per concurrent RHS, grown
    /// on first use and reused forever after — the N-th solve performs
    /// no heap allocation in the Krylov or triangular-solve hot loops.
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
    /// Krylov iterations on the Schur system (by the method that
    /// produced the answer).
    pub iterations: usize,
    /// Final relative residual of the Schur solve.
    pub schur_residual: f64,
    /// Whether the requested tolerance was met.
    pub converged: bool,
    /// Label of the method that produced the answer.
    pub method: String,
    /// Every recovery action taken during this solve (empty on a clean
    /// run).
    pub recovery: RecoveryReport,
    /// Wall-clock seconds of the whole solve phase.
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

/// Residual level beyond which a rescued solve is reported as a failure
/// rather than a degraded success (relative to the requested tolerance).
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
        let fresh = RecoveryReport::default();
        let first = Self::setup_attempt(a, &cfg, budget, fresh, false, cfg.fault.worker_panic);
        let Err(SetupFailure {
            error:
                PdslinError::WorkerPanic {
                    phase,
                    domain,
                    message,
                },
            ..
        }) = first
        else {
            return first;
        };
        // A task panicked twice on the same subdomain — the partition
        // itself may be feeding it pathological data, so rerun the whole
        // setup on the last element of the partition fallback chain
        // before giving up.
        let mut recovery = RecoveryReport::default();
        recovery.push(RecoveryEvent::PartitionFallback {
            from: cfg.partitioner.label(),
            to: "natural-block".to_string(),
            reason: format!("worker panic in {phase} on subdomain {domain}: {message}"),
        });
        let persistent = cfg.fault.worker_panic_persistent;
        let inject = cfg.fault.worker_panic.filter(|_| persistent);
        Self::setup_attempt(a, &cfg, budget, recovery, true, inject)
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
        if let Some(i) = (0..n).find(|&i| a.row_values(i).iter().any(|v| !v.is_finite())) {
            return Err(PdslinError::NonFiniteInput {
                what: "A",
                index: i,
            });
        }
        Ok(())
    }

    /// One full setup pass. `force_natural_block` skips the configured
    /// partitioner (used by the whole-setup retry after a double worker
    /// panic); `inject_panic` is the fault-injection target for this
    /// pass.
    fn setup_attempt(
        a: &Csr,
        cfg: &PdslinConfig,
        budget: &Budget,
        mut recovery: RecoveryReport,
        force_natural_block: bool,
        inject_panic: Option<usize>,
    ) -> Result<Pdslin, SetupFailure> {
        let mut stats = SetupStats::default();

        phase_check(budget, "partition", &stats)?;
        let t = Instant::now();
        let part = if force_natural_block {
            natural_block_partition(a, cfg.k)
        } else {
            compute_partition_robust(
                a,
                cfg.k,
                &cfg.partitioner,
                cfg.weights,
                cfg.fault.fail_partitioner,
                &mut recovery,
            )?
        };
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
            cfg,
            fault: FaultPlan {
                worker_panic: inject_panic,
                ..cfg.fault
            },
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
            *cfg,
            budget,
            csr_pattern_fingerprint(a),
        )
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
    /// (2)–(4) of the paper), falling back through the Krylov chain on
    /// stagnation or breakdown.
    pub fn solve(&mut self, b: &[f64]) -> Result<SolveOutcome, PdslinError> {
        self.solve_budgeted(b, &Budget::unlimited())
    }

    /// [`Pdslin::solve`] under an execution [`Budget`]. An interrupt
    /// mid-solve aborts the Krylov fallback chain immediately (walking
    /// further fallbacks against an expired deadline would only spin)
    /// and surfaces the phase-labelled typed error; the factors are left
    /// untouched, so the solver remains usable with a fresh budget.
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
    /// The batch fans out across RHS × subdomains under the crate's
    /// nested-worker policy: `outer` lanes each take a contiguous block
    /// of right-hand sides, and every lane's subdomain triangular solves
    /// and Schur matvecs run on `inner` threads, with
    /// `outer × inner ≤` the configured thread count. Each lane owns a
    /// private scratch arena, so lanes never contend and the
    /// per-RHS results are **identical** (bit-for-bit, including
    /// iteration counts and method labels) to issuing the same
    /// [`Pdslin::solve`] calls sequentially.
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
    /// one-RHS batch (one lane, all inner workers).
    fn solve_batch<B: AsRef<[f64]> + Sync>(
        &mut self,
        rhs: &[B],
        budget: &Budget,
    ) -> Result<Vec<SolveOutcome>, PdslinError> {
        if rhs.is_empty() {
            return Ok(Vec::new());
        }
        let outer = outer_worker_count(rhs.len(), self.cfg.parallel).max(1);
        let inner = inner_worker_count(outer, self.cfg.parallel);
        while self.scratch.lanes.len() < outer {
            self.scratch.lanes.push(LaneScratch::default());
        }
        let (sys, factors, schur_lu) = (&self.sys, &self.factors[..], &self.schur_lu);
        let (cfg, stats) = (&self.cfg, &self.stats);
        // One lane solves a contiguous block of right-hand sides in order.
        let run = |block: &[B], lane: &mut LaneScratch| -> Vec<Result<SolveOutcome, PdslinError>> {
            let solve = |b: &B| {
                solve_one(
                    sys,
                    factors,
                    schur_lu,
                    cfg,
                    stats,
                    b.as_ref(),
                    budget,
                    lane,
                    inner,
                )
            };
            block.iter().map(solve).collect()
        };
        let results = if outer <= 1 {
            run(rhs, &mut self.scratch.lanes[0])
        } else {
            let lanes = &mut self.scratch.lanes[..outer];
            std::thread::scope(|sc| {
                let handles: Vec<_> = lanes
                    .iter_mut()
                    .enumerate()
                    .map(|(w, lane)| {
                        let block = &rhs[rhs.len() * w / outer..rhs.len() * (w + 1) / outer];
                        sc.spawn(move || run(block, lane))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        let outcomes = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        self.stats.times.solve += outcomes.iter().map(|o| o.seconds).sum::<f64>();
        Ok(outcomes)
    }

    /// Aggregated arena counters across all solve lanes. `allocations`
    /// only advances when some arena had to *grow*, so a steady-state
    /// workload — one whose every lane has served a solve — shows
    /// `solves` climbing while `allocations` and `lanes` stay flat: the
    /// observable form of the zero-allocation guarantee.
    pub fn scratch_stats(&self) -> ScratchStats {
        ScratchStats {
            lanes: self.scratch.lanes.len(),
            allocations: self
                .scratch
                .lanes
                .iter()
                .map(LaneScratch::allocation_count)
                .sum(),
            solves: self.scratch.lanes.iter().map(|l| l.resets).sum(),
        }
    }

    /// The configuration this solver was set up with.
    pub fn config(&self) -> &PdslinConfig {
        &self.cfg
    }
}

/// Aggregated [`Pdslin`] scratch counters — see [`Pdslin::scratch_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Number of solve lanes materialised so far.
    pub lanes: usize,
    /// Total arena *growth* events (first solve per lane ⇒ ≥ 1; steady
    /// state ⇒ flat).
    pub allocations: u64,
    /// Total solves executed across lanes (each solve resets every
    /// arena it touches exactly once).
    pub solves: u64,
}

/// Per-domain dense buffers of one solve lane, sized to that domain.
#[derive(Debug, Default)]
struct DomainSolveScratch {
    /// Interior RHS slice `f_ℓ`.
    f: Vec<f64>,
    /// `D⁻¹ f_ℓ`.
    dinv_f: Vec<f64>,
    /// Gather of `y` at this domain's interface columns.
    ysub: Vec<f64>,
    /// `Ê_ℓ y`.
    ey: Vec<f64>,
    /// `f_ℓ − Ê_ℓ y`.
    rhs: Vec<f64>,
    /// Interior solution `u_ℓ`.
    u: Vec<f64>,
    /// `F̂ D⁻¹ f_ℓ` (length = this domain's interface rows).
    w: Vec<f64>,
    /// Triangular-solve arena for this domain's `LU(D)` plan.
    tri: TriScratch,
}

/// All reusable state one concurrent solve needs: RHS split buffers,
/// Krylov workspaces, triangular-solve arenas, and the Schur apply
/// scratch. Grown on first use (`allocations` ticks only when a buffer
/// grows), then reused verbatim by every later solve on the lane.
#[derive(Debug, Default)]
struct LaneScratch {
    domains: Vec<DomainSolveScratch>,
    /// Separator RHS `ĝ` (length `nsep`).
    ghat: Vec<f64>,
    /// `S·y` buffer for direct-fallback refinement.
    sep_work: Vec<f64>,
    /// Refinement residual buffer.
    sep_r: Vec<f64>,
    /// Refinement correction buffer.
    sep_dy: Vec<f64>,
    /// Arena behind [`ImplicitSchur`] applies (interior mutability:
    /// `LinearOperator::apply` takes `&self`).
    schur_apply: RefCell<SchurApplyScratch>,
    /// Arena behind [`SchurPrecond`] applies and the direct fallback.
    precond_tri: RefCell<TriScratch>,
    gmres: GmresWorkspace,
    allocations: u64,
    resets: u64,
}

impl LaneScratch {
    /// Sizes every buffer for `sys`, counting a growth event if any
    /// buffer actually changed size.
    fn prepare(&mut self, sys: &DbbdSystem) {
        self.resets += 1;
        let mut grew = false;
        if self.domains.len() != sys.domains.len() {
            self.domains.clear();
            self.domains
                .resize_with(sys.domains.len(), Default::default);
            grew = true;
        }
        for (ds, dom) in self.domains.iter_mut().zip(&sys.domains) {
            let dim = dom.dim();
            if ds.f.len() != dim {
                ds.f.resize(dim, 0.0);
                ds.dinv_f.resize(dim, 0.0);
                ds.ey.resize(dim, 0.0);
                ds.rhs.resize(dim, 0.0);
                ds.u.resize(dim, 0.0);
                grew = true;
            }
            if ds.ysub.len() != dom.e_cols.len() {
                ds.ysub.resize(dom.e_cols.len(), 0.0);
                grew = true;
            }
            if ds.w.len() != dom.f_rows.len() {
                ds.w.resize(dom.f_rows.len(), 0.0);
                grew = true;
            }
        }
        let ns = sys.nsep();
        if self.ghat.len() != ns {
            self.ghat.resize(ns, 0.0);
            self.sep_work.resize(ns, 0.0);
            self.sep_r.resize(ns, 0.0);
            self.sep_dy.resize(ns, 0.0);
            grew = true;
        }
        if grew {
            self.allocations += 1;
        }
    }

    /// Growth events across this lane *and* every arena nested in it.
    fn allocation_count(&self) -> u64 {
        self.allocations
            + self
                .domains
                .iter()
                .map(|d| d.tri.allocations())
                .sum::<u64>()
            + self.schur_apply.borrow().allocations()
            + self.precond_tri.borrow().allocations()
            + self.gmres.allocations()
    }
}

/// The lanes owned by a [`Pdslin`]; lane `i` serves the `i`-th
/// concurrent RHS of a batched solve (plain solves always use lane 0).
#[derive(Debug, Default)]
struct SolveScratch {
    lanes: Vec<LaneScratch>,
}

/// Buffers the direct-fallback refinement loop borrows from a lane.
struct DirectScratch<'a> {
    work: &'a mut Vec<f64>,
    r: &'a mut Vec<f64>,
    dy: &'a mut Vec<f64>,
    tri: &'a RefCell<TriScratch>,
}

/// One Schur-complement solve (equations (2)–(4) of the paper) against
/// borrowed factors, using `lane` for every intermediate buffer and
/// `workers` threads inside each SpMV / triangular sweep. Free function
/// (not a method) so [`Pdslin::solve_many`] can run it on several lanes
/// concurrently while the factors stay shared.
#[allow(clippy::too_many_arguments)]
fn solve_one(
    sys: &DbbdSystem,
    factors: &[FactoredDomain],
    schur_lu: &LuFactors,
    cfg: &PdslinConfig,
    stats: &SetupStats,
    b: &[f64],
    budget: &Budget,
    lane: &mut LaneScratch,
    workers: usize,
) -> Result<SolveOutcome, PdslinError> {
    if let Err(i) = budget.check() {
        return Err(fill_partial(interrupt_error(i, "solve"), stats));
    }
    let t = Instant::now();
    let n: usize = sys.domains.iter().map(|d| d.dim()).sum::<usize>() + sys.nsep();
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
    lane.prepare(sys);
    let LaneScratch {
        domains: dscratch,
        ghat,
        sep_work,
        sep_r,
        sep_dy,
        schur_apply,
        precond_tri,
        gmres: gmres_ws,
        ..
    } = lane;
    // Split b into interior parts f_ℓ and the separator part g, then
    // fold each domain's contribution in place: ĝ = g − Σ F̂ D⁻¹ f.
    for (slot, &r) in ghat.iter_mut().zip(&sys.sep_rows) {
        *slot = b[r];
    }
    for ((dom, fd), ds) in sys.domains.iter().zip(factors).zip(dscratch.iter_mut()) {
        for (slot, &r) in ds.f.iter_mut().zip(&dom.rows) {
            *slot = b[r];
        }
        fd.lu
            .solve_into(&ds.f, &mut ds.dinv_f, &mut ds.tri, workers);
        dom.f_hat.matvec_into(&ds.dinv_f, &mut ds.w);
        for (rl, &rg) in dom.f_rows.iter().enumerate() {
            ghat[rg] -= ds.w[rl];
        }
    }
    // Solve S y = ĝ with the preconditioned Krylov fallback chain.
    let op = ImplicitSchur::with_workers(sys, factors, schur_apply, workers);
    let m = SchurPrecond::with_workers(schur_lu, precond_tri, workers);
    let direct = DirectScratch {
        work: sep_work,
        r: sep_r,
        dy: sep_dy,
        tri: precond_tri,
    };
    let (y, iterations, schur_residual, converged, method, recovery) = solve_schur_chain(
        &op, &m, schur_lu, cfg, stats, ghat, budget, gmres_ws, direct, workers,
    )?;
    // Back-substitute the interiors: u_ℓ = D⁻¹ (f_ℓ − Ê_ℓ y).
    let mut x = vec![0.0; n];
    for ((dom, fd), ds) in sys.domains.iter().zip(factors).zip(dscratch.iter_mut()) {
        for (slot, &c) in ds.ysub.iter_mut().zip(&dom.e_cols) {
            *slot = y[c];
        }
        dom.e_hat.matvec_into(&ds.ysub, &mut ds.ey);
        for ((slot, fi), ei) in ds.rhs.iter_mut().zip(&ds.f).zip(&ds.ey) {
            *slot = fi - ei;
        }
        fd.lu.solve_into(&ds.rhs, &mut ds.u, &mut ds.tri, workers);
        for (li, &gi) in dom.rows.iter().enumerate() {
            x[gi] = ds.u[li];
        }
    }
    for (l, &gi) in sys.sep_rows.iter().enumerate() {
        x[gi] = y[l];
    }
    Ok(SolveOutcome {
        x,
        iterations,
        schur_residual,
        converged,
        method,
        recovery,
        seconds: t.elapsed().as_secs_f64(),
    })
}

/// The Krylov fallback chain on the Schur system: GMRES, then GMRES
/// with a doubled restart and iteration cap, then the direct `LU(S̃)`
/// solve refined against the implicit `S`. All vector state lives in
/// the caller's lane (`gmres_ws` / `direct`), so repeat
/// solves allocate nothing here beyond the returned `y`.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn solve_schur_chain(
    op: &ImplicitSchur<'_>,
    m: &SchurPrecond<'_>,
    schur_lu: &LuFactors,
    cfg: &PdslinConfig,
    stats: &SetupStats,
    ghat: &[f64],
    budget: &Budget,
    gmres_ws: &mut GmresWorkspace,
    direct: DirectScratch<'_>,
    workers: usize,
) -> Result<(Vec<f64>, usize, f64, bool, String, RecoveryReport), PdslinError> {
    let interrupted = |i: BudgetInterrupt| fill_partial(interrupt_error(i, "solve"), stats);
    let base = cfg.gmres;
    let tol = base.tol;
    let floor = acceptance_floor(tol);
    let mut recovery = RecoveryReport::default();
    // Best iterate seen so far: (y, iterations, residual, method).
    let mut best: Option<(Vec<f64>, usize, f64, &str)> = None;

    // Fault injection: starve the first attempt (zero iterations
    // allowed) so the fallback chain is genuinely exercised.
    let first = if cfg.fault.krylov_stall {
        GmresConfig {
            restart: 1,
            max_iters: 0,
            ..base
        }
    } else {
        base
    };
    let grown = GmresConfig {
        restart: base.restart.saturating_mul(2),
        max_iters: base.max_iters.saturating_mul(2),
        ..base
    };
    let chain = [("gmres", first), ("gmres(restart-grow)", grown)];

    // Why the previous rung was abandoned.
    let mut reason = String::new();
    for (i, &(label, c)) in chain.iter().enumerate() {
        if i > 0 {
            recovery.push(RecoveryEvent::KrylovFallback {
                from: chain[i - 1].0.to_string(),
                to: label.to_string(),
                reason: std::mem::take(&mut reason),
            });
        }
        let r = gmres_with_workspace(op, m, ghat, None, &c, budget, gmres_ws);
        if let Some(i) = r.interrupted {
            return Err(interrupted(i));
        }
        let (y, iters, residual, ok, breakdown) =
            (r.x, r.iterations, r.residual, r.converged, r.breakdown);
        if ok {
            return Ok((y, iters, residual, true, label.to_string(), recovery));
        }
        reason = match breakdown {
            Some(b) => b.to_string(),
            None => format!("residual {residual:.1e} after {iters} iterations"),
        };
        if residual.is_finite() && best.as_ref().is_none_or(|(_, _, r, _)| residual < *r) {
            best = Some((y, iters, residual, label));
        }
    }

    // Last resort: y = S̃⁻¹ ĝ, refined against the implicit S.
    let label = "direct(LU(S~)+IR)";
    recovery.push(RecoveryEvent::KrylovFallback {
        from: chain[chain.len() - 1].0.to_string(),
        to: "direct".to_string(),
        reason,
    });
    let bnorm = match norm2(ghat) {
        0.0 => 1.0,
        t => t,
    };
    let mut y = vec![0.0; ghat.len()];
    schur_lu.solve_into(ghat, &mut y, &mut direct.tri.borrow_mut(), workers);
    let mut steps = 0usize;
    let mut residual = f64::INFINITY;
    for _ in 0..=10 {
        budget.check().map_err(interrupted)?;
        op.apply(&y, direct.work);
        for ((ri, gi), wi) in direct.r.iter_mut().zip(ghat).zip(direct.work.iter()) {
            *ri = gi - wi;
        }
        residual = norm2(direct.r) / bnorm;
        if !residual.is_finite() || residual <= tol {
            break;
        }
        schur_lu.solve_into(direct.r, direct.dy, &mut direct.tri.borrow_mut(), workers);
        axpy(1.0, direct.dy, &mut y);
        steps += 1;
    }
    recovery.push(RecoveryEvent::DirectSchurSolve {
        refinement_steps: steps,
        residual,
    });
    if residual.is_finite() && best.as_ref().is_none_or(|(_, _, r, _)| residual < *r) {
        best = Some((y, steps, residual, label));
    }
    match best {
        Some((y, iters, residual, label)) if residual <= floor => Ok((
            y,
            iters,
            residual,
            residual <= tol,
            label.to_string(),
            recovery,
        )),
        _ => {
            let residual = best.map(|(_, _, r, _)| r).unwrap_or(f64::INFINITY);
            let tried = chain.iter().map(|&(l, _)| l).chain([label]);
            Err(PdslinError::SolveFailed {
                residual,
                tried: tried.map(String::from).collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let a = laplace2d(12, 12);
        let base = PdslinConfig {
            k: 2,
            ..Default::default()
        };
        let par = Pdslin::setup(
            &a,
            PdslinConfig {
                parallel: true,
                ..base
            },
        )
        .unwrap();
        let seq = Pdslin::setup(
            &a,
            PdslinConfig {
                parallel: false,
                ..base
            },
        )
        .unwrap();
        assert_eq!(par.stats.separator_size, seq.stats.separator_size);
        assert_eq!(par.stats.nnz_schur, seq.stats.nnz_schur);
        let b = vec![1.0; a.nrows()];
        let (mut par, mut seq) = (par, seq);
        let xp = par.solve(&b).unwrap().x;
        let xs = seq.solve(&b).unwrap().x;
        for (p, s) in xp.iter().zip(&xs) {
            assert!((p - s).abs() < 1e-8);
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
        let out = s.solve(&b).unwrap();
        assert!(out.recovery.is_empty(), "{}", out.recovery.summary());
        assert!(out.converged);
        assert_eq!(out.method, "gmres");
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

    #[test]
    fn recovers_from_poisoned_interface() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            fault: FaultPlan {
                poison_interface: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).expect("setup must recover");
        let repaired = s
            .stats
            .recovery
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::InterfaceRecomputed { domain: 0 }));
        assert!(repaired, "{}", s.stats.recovery.summary());
        let b = vec![1.0; a.nrows()];
        let out = s.solve(&b).unwrap();
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
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
    fn krylov_stall_walks_the_fallback_chain() {
        let a = laplace2d(16, 16);
        let cfg = PdslinConfig {
            k: 2,
            fault: FaultPlan {
                krylov_stall: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = Pdslin::setup(&a, cfg).unwrap();
        assert!(s.stats.recovery.is_empty(), "stall only affects the solve");
        let b = vec![1.0; a.nrows()];
        let out = s.solve(&b).unwrap();
        assert!(
            out.recovery
                .events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::KrylovFallback { .. })),
            "{}",
            out.recovery.summary()
        );
        assert_eq!(
            out.method, "gmres(restart-grow)",
            "the starved primary cannot have produced the answer"
        );
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
    }

    #[test]
    fn exhausted_chain_reports_every_rung_tried() {
        // One GMRES step per rung and a diagonal-only S̃ as the direct
        // rung's preconditioner: no rung reaches the acceptance floor.
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
            Err(PdslinError::SolveFailed { tried, .. }) => {
                assert_eq!(tried, ["gmres", "gmres(restart-grow)", "direct(LU(S~)+IR)"])
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
        let b = vec![1.0; a.nrows()];
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
        for fault in [
            FaultPlan {
                singular_domain: Some(0),
                ..Default::default()
            },
            FaultPlan {
                poison_interface: Some(1),
                ..Default::default()
            },
            FaultPlan {
                krylov_stall: true,
                ..Default::default()
            },
        ] {
            let cfg = PdslinConfig {
                k: 2,
                fault,
                ..Default::default()
            };
            let mut s = Pdslin::setup(&a, cfg).unwrap();
            let x = s.solve(&b).unwrap().x;
            for (xc, xf) in clean.iter().zip(&x) {
                assert!((xc - xf).abs() < 1e-6, "fault {fault:?} changed the answer");
            }
        }
    }
}
