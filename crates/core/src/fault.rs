//! Deterministic fault injection for exercising the recovery paths.
//!
//! A [`FaultPlan`] makes a chosen pipeline stage fail. Where a recovery
//! rung exists (a singular subdomain, a failed partitioner, an
//! over-budget Schur assembly) the fault hits the first attempt only, so
//! the rung genuinely runs and the answer stays correct; a worker panic
//! has no rung and surfaces as the typed `WorkerPanic`, and a stall runs
//! a deadline out at a known phase boundary.

/// Which faults to inject into the next `setup`/`solve`.
///
/// The default plan injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Make `LU(D_i)` of this subdomain fail on the first attempt, as if
    /// the block were numerically singular.
    pub singular_domain: Option<usize>,
    /// Make the requested partitioner report failure, forcing the
    /// partition fallback chain.
    pub fail_partitioner: bool,
    /// Panic inside this subdomain's `LU(D)` task (exercises the
    /// `catch_unwind` containment and the typed `WorkerPanic` error).
    pub worker_panic: Option<usize>,
    /// Sleep this many milliseconds before the Schur assembly
    /// (`PhaseStall`): a deadline-limited setup deterministically runs
    /// out of time there.
    pub stall_schur_ms: Option<u64>,
    /// Inflate the Schur memory prediction (`MemoryBlowup`) so the
    /// admission-control degradation path runs even on small test
    /// systems.
    pub memory_blowup: bool,
}

impl FaultPlan {
    /// A plan that injects nothing (same as `Default`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        *self == FaultPlan::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
    }

    #[test]
    fn any_fault_makes_plan_non_empty() {
        assert!(!FaultPlan {
            singular_domain: Some(0),
            ..Default::default()
        }
        .is_none());
        assert!(!FaultPlan {
            fail_partitioner: true,
            ..Default::default()
        }
        .is_none());
        assert!(!FaultPlan {
            worker_panic: Some(0),
            ..Default::default()
        }
        .is_none());
        assert!(!FaultPlan {
            stall_schur_ms: Some(10),
            ..Default::default()
        }
        .is_none());
        assert!(!FaultPlan {
            memory_blowup: true,
            ..Default::default()
        }
        .is_none());
    }
}
