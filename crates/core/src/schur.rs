//! Phase 5: assembling the approximate global Schur complement
//! `Ŝ = C − Σ_ℓ R_{F_ℓ} T̃_ℓ R_{E_ℓ}ᵀ` and factoring `S̃`.

use slu::{LuError, LuFactors};
use sparsekit::budget::Budget;
use sparsekit::Csr;

use crate::error::PdslinError;
use crate::extract::DbbdSystem;
use crate::recovery::RecoveryEvent;
use crate::subdomain::{factor_robust, subdomain_ordering, LuTarget};

/// Assembles `Ŝ` from the separator block `C` and the per-subdomain
/// update matrices `T̃_ℓ` (one per subdomain, rows/columns indexed by
/// each domain's `f_rows` / `e_cols`). The interpolation matrices
/// `R_{E_ℓ}`, `R_{F_ℓ}` of the paper are realised implicitly through
/// those index maps — they are never formed.
pub fn assemble_schur(sys: &DbbdSystem, t_tildes: &[Csr]) -> Csr {
    assemble_schur_workers(sys, t_tildes, 1)
}

/// Scratch for one Schur-assembly worker: dense accumulator + stamped
/// mark vector over the separator columns.
struct SchurScratch {
    acc: Vec<f64>,
    mark: Vec<usize>,
    cols: Vec<usize>,
}

/// Row-parallel [`assemble_schur`]: each separator row is accumulated
/// independently (its `C` row plus every domain `T̃` row mapped to it),
/// so the rows distribute over `workers` ranges with the two-phase CSR
/// builder. Contributions are summed in the same order as the serial
/// COO path (`C` first, then domains in index order), so the output is
/// byte-identical for any worker count.
pub fn assemble_schur_workers(sys: &DbbdSystem, t_tildes: &[Csr], workers: usize) -> Csr {
    assert_eq!(t_tildes.len(), sys.domains.len());
    let ns = sys.nsep();
    // Separator row -> (domain, local T̃ row) contributors, domain order.
    let mut contrib: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ns];
    for (d, (dom, t)) in sys.domains.iter().zip(t_tildes).enumerate() {
        debug_assert_eq!(t.nrows(), dom.f_rows.len());
        debug_assert_eq!(t.ncols(), dom.e_cols.len());
        for (r, &gi) in dom.f_rows.iter().enumerate() {
            contrib[gi].push((d, r));
        }
    }
    sparsekit::par::build_csr_two_phase(
        ns,
        ns,
        workers,
        &Budget::unlimited(),
        64,
        || SchurScratch {
            acc: vec![0f64; ns],
            mark: vec![usize::MAX; ns],
            cols: Vec::new(),
        },
        |i, s| {
            let stamp = 2 * i;
            let mut nnz = 0usize;
            for &j in sys.c.row_indices(i) {
                if s.mark[j] != stamp {
                    s.mark[j] = stamp;
                    nnz += 1;
                }
            }
            for &(d, r) in &contrib[i] {
                let dom = &sys.domains[d];
                for &c in t_tildes[d].row_indices(r) {
                    let j = dom.e_cols[c];
                    if s.mark[j] != stamp {
                        s.mark[j] = stamp;
                        nnz += 1;
                    }
                }
            }
            nnz
        },
        |i, s, ind, val| {
            let stamp = 2 * i + 1;
            s.cols.clear();
            for (j, v) in sys.c.row_iter(i) {
                if s.mark[j] != stamp {
                    s.mark[j] = stamp;
                    s.acc[j] = 0.0;
                    s.cols.push(j);
                }
                s.acc[j] += v;
            }
            for &(d, r) in &contrib[i] {
                let dom = &sys.domains[d];
                for (c, v) in t_tildes[d].row_iter(r) {
                    let j = dom.e_cols[c];
                    if s.mark[j] != stamp {
                        s.mark[j] = stamp;
                        s.acc[j] = 0.0;
                        s.cols.push(j);
                    }
                    s.acc[j] += -v;
                }
            }
            s.cols.sort_unstable();
            for (t, &j) in s.cols.iter().enumerate() {
                ind[t] = j;
                val[t] = s.acc[j];
            }
        },
    )
    .expect("an unlimited budget never interrupts")
}

/// Upper bound on the bytes of the assembled `Ŝ` in CSR form, *before*
/// forming it: `nnz(C) + Σ nnz(T̃_ℓ)` entries (coincident entries merge
/// during assembly, so the true count can only be lower). This is the
/// admission-control predictor consulted against the memory budget.
pub fn schur_bytes_estimate(sys: &DbbdSystem, t_tildes: &[Csr]) -> usize {
    let extra: usize = t_tildes.iter().map(|t| t.nnz()).sum();
    sparsekit::spgemm::csr_bytes(sys.nsep(), sys.c.nnz().saturating_add(extra))
}

/// Sparsifies `Ŝ` into `S̃` by discarding small entries (σ₂ in PDSLin)
/// and factors it with the standard ordering pipeline, yielding the
/// preconditioner. Returns `(S̃, LU(S̃))`.
pub fn factor_schur(
    s_hat: &Csr,
    drop_tol: f64,
    pivot_threshold: f64,
) -> Result<(Csr, LuFactors), LuError> {
    let (s_tilde, _) = s_hat.drop_small(drop_tol, true);
    let order = subdomain_ordering(&s_tilde);
    let cfg = slu::LuConfig {
        pivot_threshold,
        ..Default::default()
    };
    let lu = LuFactors::factorize(&s_tilde, &order, &cfg)?;
    Ok((s_tilde, lu))
}

/// [`factor_schur`] with the recovery layer: retries along the same
/// threshold-escalation + diagonal-perturbation schedule as the
/// subdomain factorisations, recording each retry. A budget interrupt
/// aborts the schedule with the phase-labelled typed error.
pub fn factor_schur_robust(
    s_hat: &Csr,
    drop_tol: f64,
    base_threshold: f64,
    budget: &Budget,
) -> Result<(Csr, LuFactors, Vec<RecoveryEvent>), PdslinError> {
    let (s_tilde, _) = s_hat.drop_small(drop_tol, true);
    let order = subdomain_ordering(&s_tilde);
    let (lu, events) = factor_robust(
        &s_tilde,
        &order,
        LuTarget::Schur,
        base_threshold,
        false,
        budget,
    )?;
    Ok((s_tilde, lu, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_dbbd;
    use crate::interface::{compute_interface, InterfaceConfig};
    use crate::partition::{compute_partition, PartitionerKind};
    use crate::rhs_order::RhsOrdering;
    use crate::subdomain::factor_domain;
    use matgen::stencil::laplace2d;
    use sparsekit::ops::residual_inf_norm;

    /// With exact arithmetic (no dropping), Ŝ equals the true Schur
    /// complement; verify against a dense computation on a small grid.
    #[test]
    fn exact_schur_matches_dense_reference() {
        let a = laplace2d(8, 8);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let cfg = InterfaceConfig {
            block_size: 8,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let mut ts = Vec::new();
        let mut fds = Vec::new();
        for dom in &sys.domains {
            let fd = factor_domain(&dom.d, 0.1).unwrap();
            ts.push(compute_interface(&fd, dom, &cfg).t_tilde);
            fds.push(fd);
        }
        let s_hat = assemble_schur(&sys, &ts);
        // Dense reference: S = C − Σ F D⁻¹ E over the full separator.
        let ns = sys.nsep();
        let mut s_ref = vec![vec![0.0; ns]; ns];
        for i in 0..ns {
            for j in 0..ns {
                s_ref[i][j] = sys.c.get(i, j);
            }
        }
        for (dom, fd) in sys.domains.iter().zip(&fds) {
            for (jl, &jglobal) in dom.e_cols.iter().enumerate() {
                let mut b = vec![0.0; dom.dim()];
                for i in 0..dom.dim() {
                    b[i] = dom.e_hat.get(i, jl);
                }
                let x = fd.lu.solve(&b);
                let w = dom.f_hat.matvec(&x);
                for (rl, &rglobal) in dom.f_rows.iter().enumerate() {
                    s_ref[rglobal][jglobal] -= w[rl];
                }
            }
        }
        for i in 0..ns {
            for j in 0..ns {
                assert!(
                    (s_hat.get(i, j) - s_ref[i][j]).abs() < 1e-8,
                    "S mismatch at ({i},{j}): {} vs {}",
                    s_hat.get(i, j),
                    s_ref[i][j]
                );
            }
        }
    }

    #[test]
    fn parallel_assembly_is_byte_identical_to_serial() {
        let a = laplace2d(10, 10);
        let p = compute_partition(&a, 4, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let cfg = InterfaceConfig {
            block_size: 8,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let ts: Vec<Csr> = sys
            .domains
            .iter()
            .map(|dom| {
                let fd = factor_domain(&dom.d, 0.1).unwrap();
                compute_interface(&fd, dom, &cfg).t_tilde
            })
            .collect();
        let serial = assemble_schur(&sys, &ts);
        for w in [2usize, 4, 7] {
            assert_eq!(assemble_schur_workers(&sys, &ts, w), serial, "workers {w}");
        }
    }

    #[test]
    fn factored_schur_solves_schur_system() {
        let a = laplace2d(10, 10);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let cfg = InterfaceConfig {
            block_size: 16,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let ts: Vec<Csr> = sys
            .domains
            .iter()
            .map(|dom| {
                let fd = factor_domain(&dom.d, 0.1).unwrap();
                compute_interface(&fd, dom, &cfg).t_tilde
            })
            .collect();
        let s_hat = assemble_schur(&sys, &ts);
        let (s_tilde, lu) = factor_schur(&s_hat, 0.0, 0.1).unwrap();
        assert_eq!(s_tilde.nnz(), s_hat.nnz(), "no dropping requested");
        let b = vec![1.0; sys.nsep()];
        let y = lu.solve(&b);
        assert!(residual_inf_norm(&s_tilde, &y, &b) < 1e-8);
    }

    #[test]
    fn bytes_estimate_dominates_assembled_size() {
        let a = laplace2d(10, 10);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let cfg = InterfaceConfig {
            block_size: 16,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let ts: Vec<Csr> = sys
            .domains
            .iter()
            .map(|dom| {
                let fd = factor_domain(&dom.d, 0.1).unwrap();
                compute_interface(&fd, dom, &cfg).t_tilde
            })
            .collect();
        let predicted = schur_bytes_estimate(&sys, &ts);
        let s_hat = assemble_schur(&sys, &ts);
        let actual = sparsekit::spgemm::csr_bytes(s_hat.nrows(), s_hat.nnz());
        assert!(
            actual <= predicted,
            "assembled {actual} bytes exceeds prediction {predicted}"
        );
    }

    #[test]
    fn dropping_shrinks_schur() {
        let a = laplace2d(10, 10);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        let cfg = InterfaceConfig {
            block_size: 16,
            ordering: RhsOrdering::Postorder,
            drop_tol: 0.0,
        };
        let ts: Vec<Csr> = sys
            .domains
            .iter()
            .map(|dom| {
                let fd = factor_domain(&dom.d, 0.1).unwrap();
                compute_interface(&fd, dom, &cfg).t_tilde
            })
            .collect();
        let s_hat = assemble_schur(&sys, &ts);
        let (s_small, _) = factor_schur(&s_hat, 1e-2, 0.1).unwrap();
        assert!(s_small.nnz() < s_hat.nnz());
    }
}
