//! Setup checkpoint/restart.
//!
//! The expensive, state-heavy part of `Pdslin::setup` is the subdomain
//! factorisation phase `LU(D)`. A [`SetupCheckpoint`] snapshots the
//! pipeline right after that phase — the extracted DBBD system, the
//! per-subdomain factors, the statistics gathered so far, and the
//! configuration — so a run that is cancelled, runs out of deadline, or
//! fails later (during `Comp(S)`, the Schur assembly, or `LU(S̃)`) can
//! restart from the factors instead of refactorizing from scratch.
//!
//! The checkpoint is deliberately opaque: its contents are internal
//! pipeline state whose invariants (coordinate systems, permutations)
//! callers must not edit. It lives purely in memory; it is obtained from
//! [`crate::driver::SetupFailure::checkpoint`] on a failed setup or from
//! `Pdslin::checkpoint` on a live solver, and consumed by
//! `Pdslin::resume`.

use crate::driver::PdslinConfig;
use crate::extract::DbbdSystem;
use crate::stats::SetupStats;
use crate::subdomain::FactoredDomain;

/// An opaque snapshot of a setup taken after the `LU(D)` phase.
#[derive(Clone, Debug)]
pub struct SetupCheckpoint {
    pub(crate) sys: DbbdSystem,
    pub(crate) factors: Vec<FactoredDomain>,
    pub(crate) stats: SetupStats,
    pub(crate) cfg: PdslinConfig,
    /// Pattern fingerprint of the setup matrix.
    pub(crate) pattern_fp: u64,
}

impl SetupCheckpoint {
    /// Number of subdomains whose factors this checkpoint carries.
    pub fn domains(&self) -> usize {
        self.factors.len()
    }

    /// The configuration the checkpointed setup ran with (a resume uses
    /// the same configuration).
    pub fn config(&self) -> &PdslinConfig {
        &self.cfg
    }
}
