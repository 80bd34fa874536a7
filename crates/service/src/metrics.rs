//! Service health counters, exposed through the `metrics` request.
//!
//! Everything here is lock-free atomics bumped on the hot path; a
//! `metrics` request takes a consistent-enough snapshot without
//! stalling workers (the only locking is a `try_lock` sweep over cached
//! solvers to aggregate their [`pdslin::ScratchStats`]).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::num;

/// Monotonic counters and gauges for one service instance.
#[derive(Default)]
pub struct Metrics {
    /// Solve requests accepted into the queue.
    pub received: AtomicU64,
    /// Solve requests answered `"ok"`.
    pub completed_ok: AtomicU64,
    /// Solve requests answered with a typed error.
    pub failed: AtomicU64,
    /// Requests rejected at admission (queue full / shutting down).
    pub overloaded: AtomicU64,
    /// Requests whose deadline passed while still queued.
    pub expired_in_queue: AtomicU64,
    /// Requests cancelled because the shutdown drain deadline passed.
    pub cancelled_shutdown: AtomicU64,
    /// Service-level retry attempts consumed (all requests).
    pub retries: AtomicU64,
    /// Injected attempt-failures honoured (fault soak traffic).
    pub injected_failures: AtomicU64,
    /// `solve_many` batches executed (batch size > 1).
    pub batches: AtomicU64,
    /// Requests that rode a batch instead of soloing.
    pub coalesced: AtomicU64,
    /// Full `Pdslin::setup` runs performed.
    pub setups: AtomicU64,
    /// Setups that degraded the preconditioner under memory pressure.
    pub degraded_setups: AtomicU64,
    /// Subdomain/Schur factorizations performed inside those setups.
    pub factorizations: AtomicU64,
    /// Factorizations reused from checkpoints during budget resume.
    pub factorizations_reused: AtomicU64,
    /// Cache hits where pattern *and* values matched: the cached
    /// factors were reused untouched.
    pub full_hits: AtomicU64,
    /// Cache hits where only the values differed: the entry's symbolic
    /// structure was kept and the numerics replayed with
    /// `Pdslin::update_values`.
    pub symbolic_hits: AtomicU64,
    /// Recovery events recorded across all set-ups and value updates.
    pub recovery_events: AtomicU64,
}

/// Helper: relaxed add (all metrics are advisory).
pub fn add(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// A point-in-time copy of every counter plus derived gauges, ready to
/// serialize.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Counter values in declaration order (see [`Metrics`]).
    pub received: u64,
    /// See [`Metrics::completed_ok`].
    pub completed_ok: u64,
    /// See [`Metrics::failed`].
    pub failed: u64,
    /// See [`Metrics::overloaded`].
    pub overloaded: u64,
    /// See [`Metrics::expired_in_queue`].
    pub expired_in_queue: u64,
    /// See [`Metrics::cancelled_shutdown`].
    pub cancelled_shutdown: u64,
    /// See [`Metrics::retries`].
    pub retries: u64,
    /// See [`Metrics::injected_failures`].
    pub injected_failures: u64,
    /// See [`Metrics::batches`].
    pub batches: u64,
    /// See [`Metrics::coalesced`].
    pub coalesced: u64,
    /// See [`Metrics::setups`].
    pub setups: u64,
    /// See [`Metrics::degraded_setups`].
    pub degraded_setups: u64,
    /// See [`Metrics::factorizations`].
    pub factorizations: u64,
    /// See [`Metrics::factorizations_reused`].
    pub factorizations_reused: u64,
    /// See [`Metrics::full_hits`].
    pub full_hits: u64,
    /// See [`Metrics::symbolic_hits`].
    pub symbolic_hits: u64,
    /// See [`Metrics::recovery_events`].
    pub recovery_events: u64,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// Factorization-cache hits so far.
    pub cache_hits: u64,
    /// Factorization-cache misses so far.
    pub cache_misses: u64,
    /// Factorization-cache evictions so far.
    pub cache_evictions: u64,
    /// Cache entries resident right now.
    pub cache_entries: usize,
    /// Estimated cache bytes resident right now.
    pub cache_bytes: usize,
    /// Solve lanes across cached solvers (idle ones only).
    pub scratch_lanes: u64,
    /// Scratch (re)allocations across cached solvers.
    pub scratch_allocations: u64,
    /// Solves served across cached solvers.
    pub scratch_solves: u64,
    /// Exponential moving average of solver milliseconds per request.
    pub ema_solve_ms: f64,
}

impl Metrics {
    /// Copies the counters; the caller fills in the queue/cache gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            received: get(&self.received),
            completed_ok: get(&self.completed_ok),
            failed: get(&self.failed),
            overloaded: get(&self.overloaded),
            expired_in_queue: get(&self.expired_in_queue),
            cancelled_shutdown: get(&self.cancelled_shutdown),
            retries: get(&self.retries),
            injected_failures: get(&self.injected_failures),
            batches: get(&self.batches),
            coalesced: get(&self.coalesced),
            setups: get(&self.setups),
            degraded_setups: get(&self.degraded_setups),
            factorizations: get(&self.factorizations),
            factorizations_reused: get(&self.factorizations_reused),
            full_hits: get(&self.full_hits),
            symbolic_hits: get(&self.symbolic_hits),
            recovery_events: get(&self.recovery_events),
            queue_depth: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_entries: 0,
            cache_bytes: 0,
            scratch_lanes: 0,
            scratch_allocations: 0,
            scratch_solves: 0,
            ema_solve_ms: 0.0,
        }
    }
}

impl MetricsSnapshot {
    /// The snapshot as comma-joined JSON object fields (no braces), so
    /// the response writer can prepend `id`/`status`.
    pub fn json_fields(&self) -> String {
        format!(
            "\"received\":{},\"completed_ok\":{},\"failed\":{},\"overloaded\":{},\
             \"expired_in_queue\":{},\"cancelled_shutdown\":{},\"retries\":{},\
             \"injected_failures\":{},\"batches\":{},\"coalesced\":{},\"setups\":{},\
             \"degraded_setups\":{},\"factorizations\":{},\"factorizations_reused\":{},\
             \"full_hits\":{},\"symbolic_hits\":{},\
             \"recovery_events\":{},\"queue_depth\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{},\"cache_entries\":{},\"cache_bytes\":{},\
             \"scratch_lanes\":{},\"scratch_allocations\":{},\"scratch_solves\":{},\
             \"ema_solve_ms\":{}",
            self.received,
            self.completed_ok,
            self.failed,
            self.overloaded,
            self.expired_in_queue,
            self.cancelled_shutdown,
            self.retries,
            self.injected_failures,
            self.batches,
            self.coalesced,
            self.setups,
            self.degraded_setups,
            self.factorizations,
            self.factorizations_reused,
            self.full_hits,
            self.symbolic_hits,
            self.recovery_events,
            self.queue_depth,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_entries,
            self.cache_bytes,
            self.scratch_lanes,
            self.scratch_allocations,
            self.scratch_solves,
            num(self.ema_solve_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn snapshot_serializes_to_valid_json_fields() {
        let m = Metrics::default();
        add(&m.received, 3);
        add(&m.completed_ok, 2);
        add(&m.retries, 1);
        add(&m.full_hits, 4);
        add(&m.symbolic_hits, 2);
        let mut s = m.snapshot();
        s.queue_depth = 5;
        s.cache_bytes = 1024;
        s.ema_solve_ms = 12.5;
        let line = format!("{{{}}}", s.json_fields());
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("received").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("completed_ok").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("retries").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("full_hits").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("symbolic_hits").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(5));
        assert_eq!(j.get("cache_bytes").unwrap().as_u64(), Some(1024));
        assert_eq!(j.get("ema_solve_ms").unwrap().as_f64(), Some(12.5));
    }
}
