//! Recovery bookkeeping: every time the driver falls back, retries, or
//! repairs something, it records a [`RecoveryEvent`] so the caller can
//! audit exactly how the answer was obtained. A clean run has an empty
//! [`RecoveryReport`].

use std::fmt;

/// One recovery action taken by the driver.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryEvent {
    /// The requested partitioner produced a degenerate DBBD form (or was
    /// injected to fail) and a fallback partitioner was used instead.
    PartitionFallback {
        /// Label of the partitioner that was abandoned.
        from: String,
        /// Label of the partitioner tried next.
        to: String,
        /// Why the previous partition was rejected.
        reason: String,
    },
    /// A subdomain factorisation was retried with a new configuration
    /// after a failure.
    SubdomainLuRetry {
        /// Index of the subdomain.
        domain: usize,
        /// 1-based retry number (the initial attempt is attempt 0).
        attempt: usize,
        /// Pivot threshold used by the retry.
        pivot_threshold: f64,
        /// Diagonal perturbation ε (relative to `‖A‖_max`), if enabled.
        perturbation: Option<f64>,
        /// Number of pivots the retry had to perturb.
        perturbed_pivots: usize,
    },
    /// `LU(S̃)` was retried with a new configuration after a failure.
    SchurLuRetry {
        /// 1-based retry number.
        attempt: usize,
        /// Pivot threshold used by the retry.
        pivot_threshold: f64,
        /// Diagonal perturbation ε, if enabled.
        perturbation: Option<f64>,
        /// Number of pivots the retry had to perturb.
        perturbed_pivots: usize,
    },
    /// The predicted Schur assembly size exceeded the memory budget, so
    /// the interface blocks were re-dropped with a tighter threshold
    /// (yielding a sparser, cheaper preconditioner).
    SchurMemoryDegraded {
        /// Predicted bytes of the assembly before degradation.
        predicted_bytes: usize,
        /// The memory budget in bytes.
        budget_bytes: usize,
        /// The tightened drop threshold applied to the `T̃` blocks.
        drop_tol: f64,
    },
    /// An incremental numeric refactorization (`Pdslin::update_values`)
    /// could not replay the stored pivot sequence for one factor, so
    /// that factor was rebuilt from scratch (symbolic phase included).
    RefactorizationFallback {
        /// What was refactorized: `"subdomain"` or `"schur"`.
        target: &'static str,
        /// Index of the subdomain (0 for the Schur factor).
        domain: usize,
        /// Why the replay was rejected.
        reason: String,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::PartitionFallback { from, to, reason } => {
                write!(f, "partition fallback {from} -> {to} ({reason})")
            }
            RecoveryEvent::SubdomainLuRetry {
                domain,
                attempt,
                pivot_threshold,
                perturbation,
                perturbed_pivots,
            } => {
                write!(
                    f,
                    "LU(D_{domain}) retry #{attempt}: threshold {pivot_threshold}"
                )?;
                if let Some(eps) = perturbation {
                    write!(
                        f,
                        ", diagonal perturbation {eps:.1e} ({perturbed_pivots} pivots)"
                    )?;
                }
                Ok(())
            }
            RecoveryEvent::SchurLuRetry {
                attempt,
                pivot_threshold,
                perturbation,
                perturbed_pivots,
            } => {
                write!(f, "LU(S~) retry #{attempt}: threshold {pivot_threshold}")?;
                if let Some(eps) = perturbation {
                    write!(
                        f,
                        ", diagonal perturbation {eps:.1e} ({perturbed_pivots} pivots)"
                    )?;
                }
                Ok(())
            }
            RecoveryEvent::SchurMemoryDegraded {
                predicted_bytes,
                budget_bytes,
                drop_tol,
            } => write!(
                f,
                "Schur assembly predicted {predicted_bytes} bytes > budget {budget_bytes}; \
                 preconditioner degraded with drop tolerance {drop_tol:.1e}"
            ),
            RecoveryEvent::RefactorizationFallback {
                target,
                domain,
                reason,
            } => write!(
                f,
                "refactorization of {target} {domain} fell back to full factorization ({reason})"
            ),
        }
    }
}

/// Ordered log of every recovery action taken during setup or solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// The events, in the order they occurred.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// True when no recovery was needed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recovery events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Records one event.
    pub fn push(&mut self, e: RecoveryEvent) {
        self.events.push(e);
    }

    /// Appends every event of `other`.
    pub fn extend(&mut self, other: RecoveryReport) {
        self.events.extend(other.events);
    }

    /// One line per event, for logs and CLI output.
    pub fn summary(&self) -> String {
        if self.events.is_empty() {
            return "no recovery events".to_string();
        }
        self.events
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_reads_clean() {
        let r = RecoveryReport::default();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.summary(), "no recovery events");
    }

    #[test]
    fn events_accumulate_in_order() {
        let mut r = RecoveryReport::default();
        r.push(RecoveryEvent::RefactorizationFallback {
            target: "subdomain",
            domain: 1,
            reason: "stored pivot vanished".into(),
        });
        let mut other = RecoveryReport::default();
        other.push(RecoveryEvent::PartitionFallback {
            from: "rhb".into(),
            to: "ngd".into(),
            reason: "degenerate".into(),
        });
        r.extend(other);
        assert_eq!(r.len(), 2);
        assert!(matches!(
            r.events[0],
            RecoveryEvent::RefactorizationFallback { domain: 1, .. }
        ));
        let s = r.summary();
        assert!(s.contains("subdomain 1"), "{s}");
        assert!(s.contains("rhb -> ngd"), "{s}");
    }
}
