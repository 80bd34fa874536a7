//! Phase 3: factoring the interior subdomains.
//!
//! Each `D_ℓ` gets a fill-reducing minimum-degree ordering (as in §V-B of
//! the paper), composed with a postorder of the resulting elimination
//! tree so that the §IV-A right-hand-side ordering is available for
//! free: after composition, sorting RHS columns by their first nonzero
//! row index *is* the paper's postorder heuristic.

use graphpart::{min_degree_order, Graph};
use slu::etree::{etree, postorder, NO_PARENT};
use slu::{LuConfig, LuError, LuFactors};
use sparsekit::budget::Budget;
use sparsekit::{Csr, Perm};

use crate::budget::interrupt_error;
use crate::error::PdslinError;
use crate::recovery::RecoveryEvent;

/// A factored subdomain.
#[derive(Clone, Debug)]
pub struct FactoredDomain {
    /// The LU factors of `D_ℓ` (column order = postordered min-degree).
    pub lu: LuFactors,
    /// Parent array of the elimination tree of the *ordered* pattern.
    pub etree_parent: Vec<usize>,
}

impl FactoredDomain {
    /// Maps a local row index of `D` to the pivot-order coordinate used
    /// by the triangular solves.
    pub fn row_to_pivot(&self, local_row: usize) -> usize {
        self.lu.row_perm.to_new(local_row)
    }

    /// Maps a local column index of `D` to its elimination position.
    pub fn col_to_elim(&self, local_col: usize) -> usize {
        self.lu.col_perm.to_new(local_col)
    }
}

/// Computes the fill-reducing + postorder column permutation for `d`:
/// approximate minimum degree on the pattern of `|D| + |Dᵀ|`, composed
/// with a postorder of the elimination tree it induces.
///
/// This one ordering also serves the assembled Schur complement `S̃`,
/// whose density can reach tens of percent: supervariables and element
/// absorption keep AMD near-linear there, and it leaves less fill than
/// RCM on `S̃` (docs/performance.md).
pub fn subdomain_ordering(d: &Csr) -> Perm {
    ordering_and_etree(d).0
}

/// [`subdomain_ordering`] plus the elimination tree of the ordered
/// pattern. A postorder is a topological relabelling of the tree, so the
/// tree of the postordered pattern is the AMD tree relabelled:
/// `parent_po[i] = po.to_new(parent_md[po.to_old(i)])`.
fn ordering_and_etree(d: &Csr) -> (Perm, Vec<usize>) {
    let sym = if d.pattern_symmetric() {
        d.clone()
    } else {
        d.symmetrize_abs()
    };
    let md = min_degree_order(&Graph::from_matrix(&sym));
    // Composing with a postorder keeps the fill of the AMD ordering
    // (postorders are equivalent orderings).
    let parent_md = etree(&sym.permute(&md, &md));
    let po = postorder(&parent_md);
    let parent = (0..parent_md.len())
        .map(|i| match parent_md[po.to_old(i)] {
            NO_PARENT => NO_PARENT,
            q => po.to_new(q),
        })
        .collect();
    (po.compose(&md), parent)
}

/// Factors one subdomain with the standard ordering pipeline.
pub fn factor_domain(d: &Csr, pivot_threshold: f64) -> Result<FactoredDomain, LuError> {
    let cfg = LuConfig {
        pivot_threshold,
        ..Default::default()
    };
    // The e-tree is in elimination coordinates (used by diagnostics and
    // the postorder RHS key).
    let (order, etree_parent) = ordering_and_etree(d);
    let lu = LuFactors::factorize(d, &order, &cfg)?;
    Ok(FactoredDomain { lu, etree_parent })
}

/// Relative diagonal perturbation used by the last-resort LU retry —
/// the SuperLU_DIST recipe: failed pivots are replaced by
/// `±ε·‖A‖_max` so the factorisation completes and the outer iteration
/// absorbs the perturbation.
pub const LAST_RESORT_PERTURBATION: f64 = 1e-8;

/// Escalation schedule for a failed sparse LU: raise the pivot
/// threshold toward full partial pivoting, then enable the diagonal
/// perturbation.
pub(crate) fn lu_retry_schedule(base_threshold: f64) -> Vec<LuConfig> {
    let mut cfgs = vec![LuConfig {
        pivot_threshold: base_threshold,
        diag_perturb: None,
    }];
    for t in [0.5, 1.0] {
        if t > base_threshold {
            cfgs.push(LuConfig {
                pivot_threshold: t,
                diag_perturb: None,
            });
        }
    }
    cfgs.push(LuConfig {
        pivot_threshold: base_threshold.max(1.0),
        diag_perturb: Some(LAST_RESORT_PERTURBATION),
    });
    cfgs
}

/// Which factorisation [`factor_robust`] retries: it names the phase of
/// an interrupt, the retry event and the error once the schedule is
/// exhausted.
#[derive(Clone, Copy)]
pub(crate) enum LuTarget {
    /// Subdomain `D_ℓ` (phase `lu_d`).
    Domain(usize),
    /// The approximate Schur complement `S̃` (phase `lu_s`).
    Schur,
}

/// Factors `a` under the fixed column `order`, retrying along
/// [`lu_retry_schedule`] and recording each retry. `inject_singular`
/// fails the first attempt artificially (fault injection); retries run
/// clean. A budget interrupt aborts the schedule immediately with the
/// phase-labelled typed error — retrying against an expired deadline
/// would only spin — and so does a NaN/Inf, which no pivoting removes.
pub(crate) fn factor_robust(
    a: &Csr,
    order: &Perm,
    target: LuTarget,
    base_threshold: f64,
    inject_singular: bool,
    budget: &Budget,
) -> Result<(LuFactors, Vec<RecoveryEvent>), PdslinError> {
    let retry = |attempt: usize, cfg: &LuConfig, perturbed_pivots: usize| match target {
        LuTarget::Domain(domain) => RecoveryEvent::SubdomainLuRetry {
            domain,
            attempt,
            pivot_threshold: cfg.pivot_threshold,
            perturbation: cfg.diag_perturb,
            perturbed_pivots,
        },
        LuTarget::Schur => RecoveryEvent::SchurLuRetry {
            attempt,
            pivot_threshold: cfg.pivot_threshold,
            perturbation: cfg.diag_perturb,
            perturbed_pivots,
        },
    };
    let phase = match target {
        LuTarget::Domain(_) => "lu_d",
        LuTarget::Schur => "lu_s",
    };
    let schedule = lu_retry_schedule(base_threshold);
    let mut events = Vec::new();
    let mut last_err = LuError::Singular { step: 0 };
    let mut attempts = 0usize;
    for (attempt, cfg) in schedule.iter().enumerate() {
        attempts += 1;
        if attempt == 0 && inject_singular {
            continue;
        }
        let result = LuFactors::factorize_budgeted(a, order, cfg, budget);
        if attempt > 0 {
            let perturbed = result.as_ref().map_or(0, |lu| lu.perturbed.len());
            events.push(retry(attempt, cfg, perturbed));
        }
        match result {
            Ok(lu) => return Ok((lu, events)),
            Err(LuError::Interrupted { interrupt, .. }) => {
                return Err(interrupt_error(interrupt, phase));
            }
            Err(e) => {
                let fatal = matches!(e, LuError::NonFinite { .. });
                last_err = e;
                if fatal {
                    break;
                }
            }
        }
    }
    Err(match target {
        LuTarget::Domain(domain) => PdslinError::SubdomainFactorization {
            domain,
            attempts,
            source: last_err,
        },
        LuTarget::Schur => PdslinError::SchurFactorization {
            attempts,
            source: last_err,
        },
    })
}

/// [`factor_domain`] with the recovery layer: on failure the
/// factorisation is retried with escalating pivot thresholds and, last,
/// a diagonal perturbation ([`LAST_RESORT_PERTURBATION`]), each retry
/// recorded. `inject_singular` fails the first attempt artificially
/// (fault injection); retries run clean. A budget interrupt aborts the
/// schedule immediately with the phase-labelled typed error. The
/// ordering is computed once; every retry reuses it.
pub fn factor_domain_robust(
    d: &Csr,
    domain: usize,
    base_threshold: f64,
    inject_singular: bool,
    budget: &Budget,
) -> Result<(FactoredDomain, Vec<RecoveryEvent>), PdslinError> {
    let (order, etree_parent) = ordering_and_etree(d);
    let (lu, events) = factor_robust(
        d,
        &order,
        LuTarget::Domain(domain),
        base_threshold,
        inject_singular,
        budget,
    )?;
    Ok((FactoredDomain { lu, etree_parent }, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgen::stencil::{laplace2d, laplace3d};
    use sparsekit::ops::residual_inf_norm;
    use sparsekit::Perm;

    #[test]
    fn ordering_is_a_permutation() {
        let d = laplace2d(9, 9);
        let p = subdomain_ordering(&d);
        assert_eq!(p.len(), 81);
    }

    #[test]
    fn ordering_reduces_fill_vs_natural() {
        let d = laplace2d(16, 16);
        let n = d.nrows();
        let cfg = slu::LuConfig::default();
        let nat = LuFactors::factorize(&d, &Perm::identity(n), &cfg).unwrap();
        let ord = factor_domain(&d, cfg.pivot_threshold).unwrap();
        assert!(
            ord.lu.fill() < nat.fill(),
            "MD+postorder fill {} should beat natural {}",
            ord.lu.fill(),
            nat.fill()
        );
    }

    #[test]
    fn factored_domain_solves() {
        let d = laplace3d(6, 6, 6);
        let fd = factor_domain(&d, 0.1).unwrap();
        let b: Vec<f64> = (0..d.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let x = fd.lu.solve(&b);
        assert!(residual_inf_norm(&d, &x, &b) < 1e-9);
    }

    #[test]
    fn coordinate_maps_are_inverse_consistent() {
        let d = laplace2d(8, 8);
        let fd = factor_domain(&d, 0.1).unwrap();
        for i in 0..d.nrows() {
            let p = fd.row_to_pivot(i);
            assert_eq!(fd.lu.row_perm.to_old(p), i);
        }
    }

    #[test]
    fn robust_factor_clean_run_records_nothing() {
        let d = laplace2d(8, 8);
        let (fd, events) = factor_domain_robust(&d, 0, 0.1, false, &Budget::unlimited()).unwrap();
        assert!(events.is_empty());
        assert!(fd.lu.perturbed.is_empty());
    }

    #[test]
    fn robust_factor_recovers_from_injected_singularity() {
        let d = laplace2d(8, 8);
        let (fd, events) = factor_domain_robust(&d, 3, 0.1, true, &Budget::unlimited()).unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            RecoveryEvent::SubdomainLuRetry {
                domain: 3,
                attempt: 1,
                ..
            }
        ));
        let b: Vec<f64> = (0..64).map(|i| (i % 5) as f64).collect();
        let x = fd.lu.solve(&b);
        assert!(residual_inf_norm(&d, &x, &b) < 1e-9);
    }

    #[test]
    fn robust_factor_perturbs_truly_singular_block() {
        // Structurally deficient: an empty row makes every pivot choice
        // fail until the perturbation pass completes the factorisation.
        let mut c = sparsekit::Coo::new(4, 4);
        c.push(0, 0, 2.0);
        c.push(1, 1, 3.0);
        c.push(3, 3, 1.5);
        c.push(0, 1, -1.0);
        c.push(2, 2, 0.0); // keep row 2 present but numerically dead
        let d = c.to_csr();
        let (fd, events) = factor_domain_robust(&d, 0, 0.1, false, &Budget::unlimited()).unwrap();
        let retried = events.iter().any(|e| {
            matches!(
                e,
                RecoveryEvent::SubdomainLuRetry {
                    perturbation: Some(_),
                    ..
                }
            )
        });
        assert!(retried, "events: {events:?}");
        assert!(!fd.lu.perturbed.is_empty());
    }

    #[test]
    fn retry_schedule_escalates() {
        let s = lu_retry_schedule(0.1);
        assert_eq!(s[0].pivot_threshold, 0.1);
        assert!(s.iter().rev().skip(1).all(|c| c.diag_perturb.is_none()));
        assert_eq!(
            s.last().unwrap().diag_perturb,
            Some(LAST_RESORT_PERTURBATION)
        );
        assert!(s
            .windows(2)
            .all(|w| w[1].pivot_threshold >= w[0].pivot_threshold));
    }

    #[test]
    fn cancelled_budget_aborts_robust_factorisation_with_typed_error() {
        let d = laplace2d(12, 12);
        let tok = sparsekit::CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_token(tok);
        match factor_domain_robust(&d, 0, 0.1, false, &budget) {
            Err(crate::error::PdslinError::Cancelled { phase: "lu_d" }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn etree_parent_has_right_length() {
        let d = laplace2d(6, 6);
        let fd = factor_domain(&d, 0.1).unwrap();
        assert_eq!(fd.etree_parent.len(), 36);
    }

    #[test]
    fn relabelled_etree_equals_the_recomputed_one() {
        let mut unsym = sparsekit::Coo::new(30, 30);
        for i in 0..30 {
            unsym.push(i, i, 4.0);
            unsym.push(i, (i * 7 + 3) % 30, -1.0);
        }
        for d in [laplace2d(11, 9), laplace3d(5, 4, 6), unsym.to_csr()] {
            let (order, parent) = ordering_and_etree(&d);
            let sym = d.symmetrize_abs();
            assert_eq!(parent, etree(&sym.permute(&order, &order)));
        }
    }
}
