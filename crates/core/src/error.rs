//! The unified error taxonomy of the solver.
//!
//! Every fallible phase of the PDSLin pipeline reports through
//! [`PdslinError`]: input validation, partitioning, the subdomain and
//! Schur factorisations, and the outer Krylov solve. Callers get one
//! `std::error::Error` type with enough structure to decide whether a
//! failure is the user's (bad input) or numerical (factorisation or
//! solver breakdown after every recovery attempt was exhausted).

use crate::stats::SetupStats;
use slu::LuError;
use std::fmt;

/// Coarse classification of a [`PdslinError`], used by callers (notably
/// the CLI) to map failures to distinct exit codes and retry policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCategory {
    /// The caller's input was rejected before any numerics ran.
    Input,
    /// The numerics failed after every recovery attempt was exhausted.
    Numerical,
    /// An execution budget (deadline, cancellation, memory admission)
    /// stopped the run; the input and numerics may both be fine.
    Budget,
    /// The execution environment failed (a worker thread panicked).
    Execution,
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCategory::Input => write!(f, "input"),
            ErrorCategory::Numerical => write!(f, "numerical"),
            ErrorCategory::Budget => write!(f, "budget"),
            ErrorCategory::Execution => write!(f, "execution"),
        }
    }
}

/// Any failure of `Pdslin::setup` or `Pdslin::solve`.
///
/// Recoverable conditions (a singular subdomain pivot, a degenerate
/// partition, a stalled Krylov method) never surface here directly —
/// the driver retries through its fallback chains first and records the
/// attempts in a [`crate::recovery::RecoveryReport`]. A `PdslinError`
/// means the chain itself was exhausted.
#[derive(Clone, Debug)]
pub enum PdslinError {
    /// The caller's input is structurally invalid (dimension mismatch,
    /// `k = 0`, more subdomains than rows, ...).
    InvalidInput {
        /// What was wrong.
        message: String,
    },
    /// The matrix or right-hand side carries a NaN or ±Inf entry.
    NonFiniteInput {
        /// Which input (`"A"` or `"b"`).
        what: &'static str,
        /// Row index of the first offending entry.
        index: usize,
    },
    /// No partitioner in the fallback chain produced a usable DBBD form.
    PartitionFailed {
        /// Why the last fallback was rejected.
        reason: String,
    },
    /// A subdomain `LU(D_ℓ)` failed after every retry (threshold
    /// escalation and diagonal perturbation included).
    SubdomainFactorization {
        /// Index of the subdomain.
        domain: usize,
        /// Number of factorisation attempts made.
        attempts: usize,
        /// The error of the final attempt.
        source: LuError,
    },
    /// `LU(S̃)` failed after every retry.
    SchurFactorization {
        /// Number of factorisation attempts made.
        attempts: usize,
        /// The error of the final attempt.
        source: LuError,
    },
    /// GMRES on the Schur system stopped (iteration budget or
    /// breakdown) with a residual above the acceptance floor.
    SolveFailed {
        /// Relative residual of the final GMRES iterate.
        residual: f64,
    },
    /// The cancel token was flipped while this phase was running.
    Cancelled {
        /// The pipeline phase that observed the cancellation.
        phase: &'static str,
    },
    /// The wall-clock deadline elapsed during this phase. No partial
    /// mutation escapes: the driver only hands out a fully-constructed
    /// solver, and `solve` leaves the factors untouched on interrupt.
    DeadlineExceeded {
        /// The pipeline phase that hit the deadline.
        phase: &'static str,
        /// Seconds elapsed since the budget's clock started.
        elapsed: f64,
        /// Statistics of the phases that did complete (phase times of
        /// unreached phases are zero).
        partial: Box<SetupStats>,
    },
    /// A worker thread panicked while processing a subdomain, and the
    /// retry (plus the whole-setup partition-fallback retry) panicked
    /// again.
    WorkerPanic {
        /// The phase whose worker panicked (`"lu_d"` or `"comp_s"`).
        phase: &'static str,
        /// Index of the subdomain whose task panicked.
        domain: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The memory admission predictor found that even the sparsest
    /// acceptable Schur preconditioner exceeds the byte budget.
    MemoryBudgetExceeded {
        /// The phase whose allocation was refused.
        phase: &'static str,
        /// Predicted bytes of the refused allocation.
        needed_bytes: usize,
        /// The configured memory budget in bytes.
        budget_bytes: usize,
    },
}

impl PdslinError {
    /// The coarse class of this error (see [`ErrorCategory`]).
    pub fn category(&self) -> ErrorCategory {
        match self {
            PdslinError::InvalidInput { .. } | PdslinError::NonFiniteInput { .. } => {
                ErrorCategory::Input
            }
            PdslinError::PartitionFailed { .. }
            | PdslinError::SubdomainFactorization { .. }
            | PdslinError::SchurFactorization { .. }
            | PdslinError::SolveFailed { .. } => ErrorCategory::Numerical,
            PdslinError::Cancelled { .. }
            | PdslinError::DeadlineExceeded { .. }
            | PdslinError::MemoryBudgetExceeded { .. } => ErrorCategory::Budget,
            PdslinError::WorkerPanic { .. } => ErrorCategory::Execution,
        }
    }
}

impl fmt::Display for PdslinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdslinError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            PdslinError::NonFiniteInput { what, index } => {
                write!(f, "non-finite value (NaN/Inf) in {what} at row {index}")
            }
            PdslinError::PartitionFailed { reason } => {
                write!(f, "no usable DBBD partition: {reason}")
            }
            PdslinError::SubdomainFactorization {
                domain,
                attempts,
                source,
            } => write!(
                f,
                "LU(D_{domain}) failed after {attempts} attempt(s): {source}"
            ),
            PdslinError::SchurFactorization { attempts, source } => {
                write!(f, "LU(S~) failed after {attempts} attempt(s): {source}")
            }
            PdslinError::SolveFailed { residual } => {
                write!(f, "Schur solve failed: GMRES residual {residual:.3e}")
            }
            PdslinError::Cancelled { phase } => {
                write!(f, "cancelled during {phase}")
            }
            PdslinError::DeadlineExceeded { phase, elapsed, .. } => {
                write!(f, "deadline exceeded during {phase} ({elapsed:.3}s elapsed)")
            }
            PdslinError::WorkerPanic {
                phase,
                domain,
                message,
            } => write!(
                f,
                "worker panic in {phase} on subdomain {domain} (after retry): {message}"
            ),
            PdslinError::MemoryBudgetExceeded {
                phase,
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded in {phase}: needs {needed_bytes} bytes, budget {budget_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for PdslinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PdslinError::SubdomainFactorization { source, .. }
            | PdslinError::SchurFactorization { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_is_informative() {
        let e = PdslinError::SubdomainFactorization {
            domain: 3,
            attempts: 4,
            source: LuError::Singular { step: 7 },
        };
        let s = e.to_string();
        assert!(s.contains("LU(D_3)"), "{s}");
        assert!(s.contains("4 attempt"), "{s}");
    }

    #[test]
    fn source_chain_reaches_lu_error() {
        let e = PdslinError::SchurFactorization {
            attempts: 2,
            source: LuError::Singular { step: 0 },
        };
        assert!(e.source().is_some());
        let e = PdslinError::InvalidInput {
            message: "k = 0".into(),
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn solve_failed_reports_the_residual() {
        let e = PdslinError::SolveFailed { residual: 1.0 };
        assert!(e.to_string().contains("GMRES residual 1.000e0"), "{e}");
    }

    #[test]
    fn categories_partition_the_taxonomy() {
        use ErrorCategory::*;
        let cases: Vec<(PdslinError, ErrorCategory)> = vec![
            (
                PdslinError::InvalidInput {
                    message: "k=0".into(),
                },
                Input,
            ),
            (
                PdslinError::NonFiniteInput {
                    what: "A",
                    index: 0,
                },
                Input,
            ),
            (PdslinError::SolveFailed { residual: 1.0 }, Numerical),
            (PdslinError::Cancelled { phase: "lu_d" }, Budget),
            (
                PdslinError::DeadlineExceeded {
                    phase: "comp_s",
                    elapsed: 0.5,
                    partial: Box::default(),
                },
                Budget,
            ),
            (
                PdslinError::MemoryBudgetExceeded {
                    phase: "schur",
                    needed_bytes: 100,
                    budget_bytes: 10,
                },
                Budget,
            ),
            (
                PdslinError::WorkerPanic {
                    phase: "lu_d",
                    domain: 2,
                    message: "boom".into(),
                },
                Execution,
            ),
        ];
        for (e, cat) in cases {
            assert_eq!(e.category(), cat, "{e}");
        }
    }

    #[test]
    fn budget_errors_display_the_phase() {
        let e = PdslinError::DeadlineExceeded {
            phase: "comp_s",
            elapsed: 1.25,
            partial: Box::default(),
        };
        let s = e.to_string();
        assert!(s.contains("comp_s"), "{s}");
        assert!(s.contains("1.250"), "{s}");
        let e = PdslinError::WorkerPanic {
            phase: "lu_d",
            domain: 3,
            message: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("subdomain 3"), "{s}");
        assert!(s.contains("index out of bounds"), "{s}");
    }
}
