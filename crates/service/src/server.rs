//! The service engine: bounded admission queue, worker pool, request
//! coalescing, retry with backoff, and graceful shutdown.
//!
//! # Request lifecycle
//!
//! ```text
//! submit ──> admission check ──> bounded queue ──> worker pops + coalesces
//!              │ (full/closed)                        │
//!              └─> "overloaded" (typed, immediate)    ├─> factorization cache
//!                                                     │     (hit | setup | resume)
//!                                                     ├─> solve_many (batch) or
//!                                                     │   solo solve + retry loop
//!                                                     └─> typed response
//! ```
//!
//! Every request gets exactly one response, always typed: `ok`,
//! `overloaded`, or `error` with the workspace's category/exit-code
//! taxonomy. Deadlines are enforced in three places — at pick-up
//! (queue-expired jobs are answered without touching the solver), by a
//! reaper thread that sweeps the queue so a stuck worker cannot strand
//! queued requests past their deadlines, and inside the solver through
//! the cooperative [`Budget`].
//!
//! Shutdown closes admission immediately (new requests get a typed
//! `shutting_down` rejection), then drains in-flight and queued work
//! against a drain deadline; when the deadline passes the shared
//! [`CancelToken`] is flipped and everything still running or queued is
//! answered with a typed `Cancelled` error.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdslin::{
    Budget, CancelToken, ErrorCategory, Pdslin, PdslinConfig, PdslinError, RecoveryEvent,
    SetupCheckpoint, SetupStats,
};
use sparsekit::{csr_pattern_fingerprint, csr_value_fingerprint, Csr};

use crate::cache::{CacheEntry, FactorCache};
use crate::metrics::{add, Metrics, MetricsSnapshot};
use crate::proto::{Response, ResponseBody, SolveReply, SolveRequest};
use crate::sync::{lock_recover, wait_recover};

/// Tunables for one service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Admission bound: requests beyond this depth are rejected with a
    /// typed `overloaded` response instead of queueing without limit.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one `solve_many` batch.
    pub max_batch: usize,
    /// Byte budget of the factorization cache.
    pub cache_budget_bytes: usize,
    /// Memory admission limit handed to each `setup_budgeted` (enables
    /// the driver's degrade-under-pressure path). `None` = unlimited.
    pub setup_mem_budget_bytes: Option<usize>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Base of the exponential retry backoff.
    pub retry_base_ms: u64,
    /// Reaper sweep interval.
    pub reaper_tick_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            cache_budget_bytes: 256 << 20,
            setup_mem_budget_bytes: None,
            default_deadline_ms: None,
            retry_base_ms: 5,
            reaper_tick_ms: 5,
        }
    }
}

/// What [`Service::shutdown`] observed while draining.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShutdownReport {
    /// Requests answered (ok or typed error) during the drain.
    pub drained: u64,
    /// Requests answered with a shutdown cancellation.
    pub cancelled: u64,
}

struct Job {
    id: String,
    solve: Box<SolveRequest>,
    spec_key: u64,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: Sender<Response>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    cond: Condvar,
    cache: FactorCache,
    /// spec key → (pattern cache key, value fingerprint), so repeat
    /// traffic skips matrix loading and fingerprinting entirely — as
    /// long as the cached entry still holds *this* spec's values (a
    /// same-pattern sibling spec may have value-updated it since).
    memo: Mutex<HashMap<u64, (u64, u64)>>,
    /// The latest checkpoint stranded by a deadline-interrupted setup,
    /// with the cache key and value fingerprint of the matrix it was
    /// built from. The next miss on that exact matrix resumes instead of
    /// refactorizing; a newer stranded checkpoint replaces it.
    stash: Mutex<Option<(u64, u64, Box<SetupCheckpoint>)>>,
    metrics: Metrics,
    shutdown_token: CancelToken,
    reaper_stop: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    ema_solve_ms: Mutex<f64>,
}

/// A running service instance (worker pool + reaper).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
}

impl Service {
    /// Starts the worker pool and the deadline reaper.
    pub fn start(cfg: ServiceConfig) -> Service {
        let inner = Arc::new(Inner {
            cache: FactorCache::new(cfg.cache_budget_bytes),
            cfg: cfg.clone(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            cond: Condvar::new(),
            memo: Mutex::new(HashMap::new()),
            stash: Mutex::new(None),
            metrics: Metrics::default(),
            shutdown_token: CancelToken::new(),
            reaper_stop: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            ema_solve_ms: Mutex::new(0.0),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pdslin-svc-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let reaper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("pdslin-svc-reaper".to_string())
                .spawn(move || reaper_loop(&inner))
                .expect("spawn reaper")
        };
        Service {
            inner,
            workers: Mutex::new(workers),
            reaper: Mutex::new(Some(reaper)),
        }
    }

    /// Submits a solve request. The response — acceptance is *not*
    /// guaranteed — arrives on `reply`: either a typed `overloaded`
    /// rejection (sent before this returns) or, later, the worker's
    /// answer.
    pub fn submit(&self, id: &str, solve: Box<SolveRequest>, reply: &Sender<Response>) {
        let inner = &self.inner;
        let spec_key = solve.spec_key();
        let deadline_ms = solve.deadline_ms.or(inner.cfg.default_deadline_ms);
        let mut q = lock_recover(&inner.queue);
        if !q.open {
            add(&inner.metrics.overloaded, 1);
            let depth = q.jobs.len();
            drop(q);
            let _ = reply.send(Response {
                id: id.to_string(),
                body: ResponseBody::Overloaded {
                    reason: "shutting_down",
                    queue_depth: depth,
                    retry_after_ms: None,
                },
            });
            return;
        }
        if q.jobs.len() >= inner.cfg.queue_capacity {
            add(&inner.metrics.overloaded, 1);
            let depth = q.jobs.len();
            drop(q);
            let _ = reply.send(Response {
                id: id.to_string(),
                body: ResponseBody::Overloaded {
                    reason: "queue_full",
                    queue_depth: depth,
                    retry_after_ms: Some(self.retry_after_hint(depth)),
                },
            });
            return;
        }
        let now = Instant::now();
        q.jobs.push_back(Job {
            id: id.to_string(),
            solve,
            spec_key,
            enqueued: now,
            deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            reply: reply.clone(),
        });
        add(&inner.metrics.received, 1);
        drop(q);
        inner.cond.notify_one();
    }

    fn retry_after_hint(&self, depth: usize) -> u64 {
        let ema = *lock_recover(&self.inner.ema_solve_ms);
        let per = if ema > 0.0 { ema } else { 10.0 };
        let workers = self.inner.cfg.workers.max(1) as f64;
        (((depth + 1) as f64 * per / workers).ceil() as u64).max(1)
    }

    /// A full health snapshot (counters + queue/cache gauges).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let mut s = inner.metrics.snapshot();
        s.queue_depth = lock_recover(&inner.queue).jobs.len();
        let (h, m, e) = inner.cache.counters();
        s.cache_hits = h;
        s.cache_misses = m;
        s.cache_evictions = e;
        let (entries, bytes) = inner.cache.usage();
        s.cache_entries = entries;
        s.cache_bytes = bytes;
        let (lanes, allocations, solves) = inner.cache.scratch_totals();
        s.scratch_lanes = lanes;
        s.scratch_allocations = allocations;
        s.scratch_solves = solves;
        s.ema_solve_ms = *lock_recover(&inner.ema_solve_ms);
        s
    }

    /// Closes admission, drains queued and in-flight work for at most
    /// `drain`, then cancels whatever remains. Idempotent; every
    /// accepted request is answered before this returns.
    pub fn shutdown(&self, drain: Duration) -> ShutdownReport {
        let inner = &self.inner;
        {
            let mut q = lock_recover(&inner.queue);
            q.open = false;
        }
        inner.cond.notify_all();
        *lock_recover(&inner.drain_deadline) = Some(Instant::now() + drain);

        let answered_before = inner.metrics.completed_ok.load(Ordering::Relaxed)
            + inner.metrics.failed.load(Ordering::Relaxed);
        let cancelled_before = inner.metrics.cancelled_shutdown.load(Ordering::Relaxed);

        let workers = std::mem::take(&mut *lock_recover(&self.workers));
        for w in workers {
            let _ = w.join();
        }
        inner.reaper_stop.store(true, Ordering::Release);
        if let Some(r) = lock_recover(&self.reaper).take() {
            let _ = r.join();
        }
        // Workers and reaper are gone; anything still queued (races at
        // the very end of the drain window) is flushed here.
        let leftovers: Vec<Job> = {
            let mut q = lock_recover(&inner.queue);
            q.jobs.drain(..).collect()
        };
        for job in leftovers {
            reply_cancelled(inner, &job);
        }

        ShutdownReport {
            drained: inner.metrics.completed_ok.load(Ordering::Relaxed)
                + inner.metrics.failed.load(Ordering::Relaxed)
                - answered_before,
            cancelled: inner.metrics.cancelled_shutdown.load(Ordering::Relaxed) - cancelled_before,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // A dropped service must not leak blocked workers; equivalent to
        // an explicit zero-drain shutdown (no-op if one already ran).
        let _ = self.shutdown(Duration::ZERO);
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let batch = {
            let mut q = lock_recover(&inner.queue);
            loop {
                if let Some(head) = q.jobs.pop_front() {
                    break collect_batch(inner, &mut q, head);
                }
                if !q.open {
                    return;
                }
                q = wait_recover(&inner.cond, q);
            }
        };
        process(inner, batch);
    }
}

/// Pulls queued jobs that can share `head`'s `solve_many` batch: same
/// spec key (⇒ same factorization and config), no service-level fault
/// injection, up to `max_batch`.
fn collect_batch(inner: &Arc<Inner>, q: &mut QueueState, head: Job) -> Vec<Job> {
    let mut batch = vec![head];
    let batchable = |j: &Job| j.solve.fail_attempts == 0 && j.solve.fault.is_none();
    if !batchable(&batch[0]) {
        return batch;
    }
    let key = batch[0].spec_key;
    let mut i = 0;
    while i < q.jobs.len() && batch.len() < inner.cfg.max_batch.max(1) {
        if q.jobs[i].spec_key == key && batchable(&q.jobs[i]) {
            // O(queue) removal; the queue is bounded and small.
            batch.push(q.jobs.remove(i).unwrap());
        } else {
            i += 1;
        }
    }
    batch
}

fn reaper_loop(inner: &Arc<Inner>) {
    let tick = Duration::from_millis(inner.cfg.reaper_tick_ms.max(1));
    while !inner.reaper_stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now = Instant::now();
        // Sweep queue-expired jobs so a busy worker pool cannot strand a
        // request past its deadline.
        let expired: Vec<Job> = {
            let mut q = lock_recover(&inner.queue);
            let mut out = Vec::new();
            let mut i = 0;
            while i < q.jobs.len() {
                if q.jobs[i].deadline.is_some_and(|d| d <= now) {
                    out.push(q.jobs.remove(i).unwrap());
                } else {
                    i += 1;
                }
            }
            out
        };
        for job in expired {
            add(&inner.metrics.expired_in_queue, 1);
            reply_error(
                inner,
                &job,
                &PdslinError::DeadlineExceeded {
                    phase: "queue",
                    elapsed: job.enqueued.elapsed().as_secs_f64(),
                    partial: Box::new(SetupStats::default()),
                },
                0,
            );
        }
        // Past the drain deadline: cancel in-flight work and flush the
        // remaining queue with typed cancellations.
        let drain_over = lock_recover(&inner.drain_deadline).is_some_and(|d| d <= now);
        if drain_over {
            inner.shutdown_token.cancel();
            let rest: Vec<Job> = {
                let mut q = lock_recover(&inner.queue);
                q.jobs.drain(..).collect()
            };
            for job in rest {
                reply_cancelled(inner, &job);
            }
        }
    }
}

fn reply(job: &Job, body: ResponseBody) {
    // A disconnected client is not an error; the work still completed.
    let _ = job.reply.send(Response {
        id: job.id.clone(),
        body,
    });
}

fn reply_error(inner: &Inner, job: &Job, e: &PdslinError, retries: u32) {
    if matches!(e, PdslinError::Cancelled { .. }) && inner.shutdown_token.is_cancelled() {
        add(&inner.metrics.cancelled_shutdown, 1);
    } else {
        add(&inner.metrics.failed, 1);
    }
    let resp = Response::from_error(&job.id, e, retries);
    let _ = job.reply.send(resp);
}

fn reply_cancelled(inner: &Inner, job: &Job) {
    add(&inner.metrics.cancelled_shutdown, 1);
    let _ = job.reply.send(Response::from_error(
        &job.id,
        &PdslinError::Cancelled { phase: "queue" },
        0,
    ));
}

fn reply_input_error(inner: &Inner, job: &Job, message: String) {
    add(&inner.metrics.failed, 1);
    let _ = job.reply.send(Response::input_error(&job.id, message));
}

/// A budget covering the time until `deadline`, carrying the shutdown
/// token. `Err` means the deadline has already passed.
fn budget_until(inner: &Inner, deadline: Option<Instant>) -> Result<Budget, PdslinError> {
    let mut b = Budget::unlimited().with_token(inner.shutdown_token.clone());
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(PdslinError::DeadlineExceeded {
                phase: "queue",
                elapsed: 0.0,
                partial: Box::new(SetupStats::default()),
            });
        }
        b = b.with_deadline(remaining);
    }
    Ok(b)
}

/// Builds the solver config for a request.
fn solver_config(req: &SolveRequest) -> PdslinConfig {
    PdslinConfig {
        k: req.k,
        block_size: req.block_size,
        partitioner: req.partitioner,
        weights: req.weights,
        rhs_ordering: req.ordering,
        interface_drop_tol: req.interface_drop_tol,
        schur_drop_tol: req.schur_drop_tol,
        fault: req.fault,
        ..Default::default()
    }
}

fn observe_solve_ms(inner: &Inner, ms: f64) {
    let mut e = lock_recover(&inner.ema_solve_ms);
    *e = if *e == 0.0 { ms } else { 0.8 * *e + 0.2 * ms };
}

fn process(inner: &Arc<Inner>, mut jobs: Vec<Job>) {
    // Jobs whose deadline passed while queued get a typed answer without
    // touching the solver.
    let now = Instant::now();
    jobs.retain(|job| {
        if job.deadline.is_some_and(|d| d <= now) {
            add(&inner.metrics.expired_in_queue, 1);
            reply_error(
                inner,
                job,
                &PdslinError::DeadlineExceeded {
                    phase: "queue",
                    elapsed: job.enqueued.elapsed().as_secs_f64(),
                    partial: Box::new(SetupStats::default()),
                },
                0,
            );
            false
        } else {
            true
        }
    });
    if jobs.is_empty() {
        return;
    }
    let (entry, cache_label, setup_ms, check) = match resolve_entry(inner, &jobs) {
        Some(t) => t,
        None => return, // every job was already answered
    };
    if jobs.len() > 1 {
        process_coalesced(inner, jobs, &entry, cache_label, setup_ms, &check);
    } else {
        let job = jobs.pop().unwrap();
        process_solo(inner, &job, &entry, cache_label, setup_ms, &check);
    }
}

/// The matrix values a request expects the cache entry to hold at solve
/// time. The entry is shared by every same-pattern spec, so between
/// `resolve_entry` and the solve's own lock acquisition a sibling spec
/// may have replayed different values into it; [`ensure_values`]
/// re-checks under the lock and replays ours back if so.
struct ValueCheck {
    /// Value fingerprint of this request's matrix.
    fp: u64,
    /// The loaded matrix, kept when `resolve_entry` had to load it.
    /// `None` on the memo fast path (the spec reloads it on demand in
    /// the rare event the entry was updated away underneath us).
    matrix: Option<Arc<Csr>>,
}

/// Under the entry's (held) solver lock: if the entry's values are not
/// `check.fp`, replay this request's values into it. Counted as a
/// symbolic hit — the entry's whole symbolic layer is reused either way.
fn ensure_values(
    inner: &Inner,
    entry: &CacheEntry,
    solver: &mut Pdslin,
    check: &ValueCheck,
    spec: &SolveRequest,
) -> Result<(), PdslinError> {
    if entry.value_fp.load(Ordering::Acquire) == check.fp {
        return Ok(());
    }
    let loaded;
    let a = match &check.matrix {
        Some(a) => a.as_ref(),
        None => {
            loaded = spec
                .matrix
                .load()
                .map_err(|message| PdslinError::InvalidInput { message })?;
            &loaded
        }
    };
    let out = solver.update_values(a)?;
    entry.value_fp.store(check.fp, Ordering::Release);
    add(&inner.metrics.symbolic_hits, 1);
    add(&inner.metrics.recovery_events, out.recovery.len() as u64);
    Ok(())
}

/// Finds or builds the factorization for a batch (all jobs share one
/// spec key). `None` means every job has already received a response.
///
/// Lookups are keyed by the matrix *pattern*: a request whose pattern
/// matches a resident entry but whose values drifted is a *symbolic
/// hit* — the entry's partition, orderings and factor structure are all
/// kept and only the numerics are replayed with
/// [`Pdslin::update_values`] (label `"symbolic"`). If the replay itself
/// fails, the request falls through to a full setup that replaces the
/// entry.
fn resolve_entry(
    inner: &Arc<Inner>,
    jobs: &[Job],
) -> Option<(Arc<CacheEntry>, &'static str, f64, ValueCheck)> {
    let spec = &jobs[0].solve;
    let spec_key = jobs[0].spec_key;
    if let Some(&(ck, vfp)) = lock_recover(&inner.memo).get(&spec_key) {
        if let Some(entry) = inner.cache.lookup(ck) {
            if entry.value_fp.load(Ordering::Acquire) == vfp {
                add(&inner.metrics.full_hits, 1);
                return Some((
                    entry,
                    "hit",
                    0.0,
                    ValueCheck {
                        fp: vfp,
                        matrix: None,
                    },
                ));
            }
            // A same-pattern sibling spec value-updated the entry since
            // we memoized; reload the matrix and settle below.
        }
    }
    let t0 = Instant::now();
    let a = match spec.matrix.load() {
        Ok(a) => Arc::new(a),
        Err(msg) => {
            for job in jobs {
                reply_input_error(inner, job, msg.clone());
            }
            return None;
        }
    };
    let cache_key = spec.cache_key(csr_pattern_fingerprint(&a));
    let value_fp = csr_value_fingerprint(&a);
    lock_recover(&inner.memo).insert(spec_key, (cache_key, value_fp));
    let check = ValueCheck {
        fp: value_fp,
        matrix: Some(Arc::clone(&a)),
    };
    if let Some(entry) = inner.cache.lookup(cache_key) {
        let mut solver = lock_recover(&entry.solver);
        if entry.value_fp.load(Ordering::Acquire) == value_fp {
            add(&inner.metrics.full_hits, 1);
            drop(solver);
            return Some((entry, "hit", ms_since(t0), check));
        }
        match solver.update_values(&a) {
            Ok(out) => {
                entry.value_fp.store(value_fp, Ordering::Release);
                add(&inner.metrics.symbolic_hits, 1);
                add(&inner.metrics.recovery_events, out.recovery.len() as u64);
                drop(solver);
                return Some((entry, "symbolic", ms_since(t0), check));
            }
            // The replay rejected the matrix (pattern deviation, hard
            // numeric failure mid-update, …): fall through to a full
            // setup, whose insert replaces this entry.
            Err(_) => drop(solver),
        }
    }
    // Setup under the *loosest* deadline in the batch: tighter jobs that
    // cannot wait for it will surface their own deadline at solve time.
    let deadline = jobs
        .iter()
        .map(|j| j.deadline)
        .reduce(|a, b| match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        })
        .flatten();
    let mut budget = match budget_until(inner, deadline) {
        Ok(b) => b,
        Err(e) => {
            for job in jobs {
                reply_error(inner, job, &e, 0);
            }
            return None;
        }
    };
    if let Some(mb) = inner.cfg.setup_mem_budget_bytes {
        budget = budget.with_memory_limit(mb);
    }
    // A previous deadline-interrupted setup may have stranded a
    // checkpoint with LU(D) already done: resume it instead of paying
    // the factorizations again. The cache key covers only the pattern
    // and the config, so the values must match too: a same-pattern
    // matrix with other values gets a fresh setup.
    let stashed =
        lock_recover(&inner.stash).take_if(|(key, fp, _)| *key == cache_key && *fp == value_fp);
    let result = match stashed {
        Some((_, _, ckpt)) => Pdslin::resume(*ckpt, &budget),
        None => Pdslin::setup_budgeted(&a, solver_config(spec), &budget),
    };
    match result {
        Ok(solver) => {
            add(&inner.metrics.setups, 1);
            add(
                &inner.metrics.factorizations,
                solver.stats.factorizations as u64,
            );
            add(
                &inner.metrics.factorizations_reused,
                solver.stats.factorizations_reused as u64,
            );
            add(
                &inner.metrics.recovery_events,
                solver.stats.recovery.len() as u64,
            );
            if solver
                .stats
                .recovery
                .events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::SchurMemoryDegraded { .. }))
            {
                add(&inner.metrics.degraded_setups, 1);
            }
            let entry = inner.cache.insert(cache_key, value_fp, solver);
            Some((entry, "miss", ms_since(t0), check))
        }
        Err(failure) => {
            if let Some(ckpt) = failure.checkpoint {
                *lock_recover(&inner.stash) = Some((cache_key, value_fp, ckpt));
            }
            for job in jobs {
                reply_error(inner, job, &failure.error, 0);
            }
            None
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Drives a coalesced batch through one `solve_many_budgeted` call under
/// the *tightest* deadline in the batch; if that trips (or any RHS
/// fails), each job falls back to its own solo attempt so
/// longer-deadline requests are not punished for a short-deadline
/// batchmate.
fn process_coalesced(
    inner: &Arc<Inner>,
    jobs: Vec<Job>,
    entry: &Arc<CacheEntry>,
    cache_label: &'static str,
    setup_ms: f64,
    check: &ValueCheck,
) {
    let deadline = jobs.iter().filter_map(|j| j.deadline).min();
    let t0 = Instant::now();
    let batch_result = match budget_until(inner, deadline) {
        Err(_) => None, // tightest deadline already passed; solo paths sort it out
        Ok(budget) => {
            let mut solver = lock_recover(&entry.solver);
            if ensure_values(inner, entry, &mut solver, check, &jobs[0].solve).is_err() {
                // Couldn't settle the values here; each solo fallback
                // retries and answers with its own typed error.
                drop(solver);
                for job in &jobs {
                    process_solo(inner, job, entry, cache_label, setup_ms, check);
                }
                return;
            }
            let n = solver.sys.part.part_of.len();
            let mut rhs = Vec::with_capacity(jobs.len());
            let mut bad_len = false;
            for job in &jobs {
                let b = job.solve.rhs.build(n);
                if b.len() != n {
                    bad_len = true;
                    break;
                }
                rhs.push(b);
            }
            if bad_len {
                None // mixed validity: let the solo paths answer each job
            } else {
                let outcomes = solver.solve_many_budgeted(&rhs, &budget);
                let setup_recovery = solver.stats.recovery.len();
                let degraded = setup_degraded(&solver);
                drop(solver);
                match outcomes {
                    Ok(outs) => Some((outs, setup_recovery, degraded)),
                    Err(_) => None,
                }
            }
        }
    };
    match batch_result {
        Some((outs, setup_recovery, degraded)) => {
            let batched = jobs.len();
            add(&inner.metrics.batches, 1);
            add(&inner.metrics.coalesced, batched as u64 - 1);
            let total_ms = setup_ms + ms_since(t0);
            for (job, out) in jobs.iter().zip(outs) {
                add(&inner.metrics.completed_ok, 1);
                observe_solve_ms(inner, total_ms / batched as f64);
                reply(
                    job,
                    ResponseBody::Solve(SolveReply {
                        cache: cache_label,
                        batched,
                        retries: 0,
                        degraded,
                        recovery_events: setup_recovery,
                        iterations: out.iterations,
                        residual: out.schur_residual,
                        converged: out.converged,
                        queue_ms: ms_since(job.enqueued),
                        solve_ms: total_ms,
                    }),
                );
            }
        }
        None => {
            // First error in RHS order aborted the batch (deadline,
            // cancellation, bad RHS, numerical failure). Re-run each job
            // solo under its own budget for a per-request typed answer.
            for job in &jobs {
                process_solo(inner, job, entry, cache_label, setup_ms, check);
            }
        }
    }
}

fn setup_degraded(solver: &Pdslin) -> bool {
    solver
        .stats
        .recovery
        .events
        .iter()
        .any(|e| matches!(e, RecoveryEvent::SchurMemoryDegraded { .. }))
}

/// One request through the retry loop: injected service faults and
/// worker panics (category `execution`) are retried with exponential
/// backoff while the retry budget and the deadline allow; everything
/// else surfaces immediately as a typed error.
fn process_solo(
    inner: &Arc<Inner>,
    job: &Job,
    entry: &Arc<CacheEntry>,
    cache_label: &'static str,
    setup_ms: f64,
    check: &ValueCheck,
) {
    let t0 = Instant::now();
    let mut retries: u32 = 0;
    loop {
        let attempt = if retries < job.solve.fail_attempts {
            add(&inner.metrics.injected_failures, 1);
            Err(PdslinError::WorkerPanic {
                phase: "service",
                domain: 0,
                message: format!("injected service fault (attempt {retries})"),
            })
        } else {
            match budget_until(inner, job.deadline) {
                Err(e) => Err(e),
                Ok(budget) => {
                    let mut solver = lock_recover(&entry.solver);
                    // A sibling same-pattern spec may have value-updated
                    // the entry since `resolve_entry`; settle our values
                    // under this attempt's lock before solving. A failed
                    // replay joins the retry classification below.
                    let prep = ensure_values(inner, entry, &mut solver, check, &job.solve);
                    if let Err(e) = prep {
                        drop(solver);
                        Err(e)
                    } else {
                        let n = solver.sys.part.part_of.len();
                        let b = job.solve.rhs.build(n);
                        if b.len() != n {
                            reply_input_error(
                                inner,
                                job,
                                format!("rhs has {} entries, matrix dimension is {n}", b.len()),
                            );
                            return;
                        }
                        let out = solver.solve_budgeted(&b, &budget);
                        let setup_recovery = solver.stats.recovery.len();
                        let degraded = setup_degraded(&solver);
                        drop(solver);
                        match out {
                            Ok(out) => {
                                let total_ms = setup_ms + ms_since(t0);
                                add(&inner.metrics.completed_ok, 1);
                                observe_solve_ms(inner, total_ms);
                                reply(
                                    job,
                                    ResponseBody::Solve(SolveReply {
                                        cache: cache_label,
                                        batched: 1,
                                        retries,
                                        degraded,
                                        recovery_events: setup_recovery,
                                        iterations: out.iterations,
                                        residual: out.schur_residual,
                                        converged: out.converged,
                                        queue_ms: ms_since(job.enqueued),
                                        solve_ms: total_ms,
                                    }),
                                );
                                return;
                            }
                            Err(e) => Err(e),
                        }
                    }
                }
            }
        };
        let e = match attempt {
            Ok(()) => return,
            Err(e) => e,
        };
        let deadline_left = job.deadline.is_none_or(|d| Instant::now() < d);
        let retryable = e.category() == ErrorCategory::Execution
            && retries < job.solve.retry_limit
            && deadline_left
            && !inner.shutdown_token.is_cancelled();
        if !retryable {
            reply_error(inner, job, &e, retries);
            return;
        }
        add(&inner.metrics.retries, 1);
        let backoff = Duration::from_millis((inner.cfg.retry_base_ms << retries.min(6)).min(100));
        let nap = match job.deadline {
            Some(d) => backoff.min(d.saturating_duration_since(Instant::now())),
            None => backoff,
        };
        std::thread::sleep(nap);
        retries += 1;
    }
}
