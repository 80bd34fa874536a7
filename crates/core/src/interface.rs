//! Phase 4: interface solves and the local update matrices
//! `T̃_ℓ = W̃_ℓ G̃_ℓ` (equation (5) of the paper).

use std::time::Instant;

use slu::blocked::{solve_in_blocks_planned, BlockSolveStats, BlockedSolvePlan};
use slu::trisolve::{transpose_with_sources, SolveWorkspace, SparseVec};
use sparsekit::budget::{Budget, BudgetInterrupt};
use sparsekit::spgemm::{spgemm_checked, spgemm_nnz_bound, SpgemmError};
use sparsekit::{Csc, Csr};

use crate::extract::LocalDomain;
use crate::rhs_order::{order_columns, RhsOrdering};
use crate::stats::InterfaceStats;
use crate::subdomain::FactoredDomain;

/// Parameters of the interface computation.
#[derive(Clone, Copy, Debug)]
pub struct InterfaceConfig {
    /// Block size `B` for the simultaneous triangular solves.
    pub block_size: usize,
    /// Column/row ordering strategy (§IV).
    pub ordering: RhsOrdering,
    /// Drop threshold for `W̃` and `G̃` entries (σ₁ in PDSLin).
    pub drop_tol: f64,
}

impl Default for InterfaceConfig {
    fn default() -> Self {
        InterfaceConfig {
            block_size: 60, // the PDSLin default noted in §V-B
            ordering: RhsOrdering::Postorder,
            drop_tol: 1e-6,
        }
    }
}

/// Result of the interface phase for one subdomain.
#[derive(Clone, Debug)]
pub struct InterfaceOutcome {
    /// `T̃_ℓ = W̃_ℓ G̃_ℓ`, rows indexed like `f_rows`, columns like
    /// `e_cols` (original order).
    pub t_tilde: Csr,
    /// Table-III style statistics.
    pub stats: InterfaceStats,
    /// Blocked-solve accounting for `G`.
    pub g_block: BlockSolveStats,
    /// Blocked-solve accounting for `W`.
    pub w_block: BlockSolveStats,
}

/// Extracts the columns of `Ê` as sparse vectors in pivot-row
/// coordinates of the subdomain factor.
pub fn ehat_columns_pivot(fd: &FactoredDomain, dom: &LocalDomain) -> Vec<SparseVec> {
    let ecsc = dom.e_hat.to_csc();
    (0..ecsc.ncols())
        .map(|j| {
            let mut idx = Vec::with_capacity(ecsc.col_nnz(j));
            let mut val = Vec::with_capacity(ecsc.col_nnz(j));
            for (i, v) in ecsc.col_iter(j) {
                idx.push(fd.row_to_pivot(i));
                val.push(v);
            }
            SparseVec::new(idx, val)
        })
        .collect()
}

/// Extracts the rows of `F̂` (columns of `F̂ᵀ`) in elimination-order
/// coordinates, ready for the `Uᵀ` lower solve.
pub fn fhat_rows_elim(fd: &FactoredDomain, dom: &LocalDomain) -> Vec<SparseVec> {
    (0..dom.f_hat.nrows())
        .map(|r| {
            let mut idx = Vec::with_capacity(dom.f_hat.row_nnz(r));
            let mut val = Vec::with_capacity(dom.f_hat.row_nnz(r));
            for (c, v) in dom.f_hat.row_iter(r) {
                idx.push(fd.col_to_elim(c));
                val.push(v);
            }
            SparseVec::new(idx, val)
        })
        .collect()
}

/// Builds an `nrows × ncols` CSR whose column `order[p]` is the sparse
/// vector `sols[p]`. Entries are scattered in ascending column order, so
/// every CSR row comes out sorted without a per-row sort — and without
/// materialising a COO copy of the whole matrix.
fn csr_from_column_solutions(
    nrows: usize,
    ncols: usize,
    order: &[usize],
    sols: &[SparseVec],
) -> Csr {
    debug_assert_eq!(order.len(), sols.len());
    let mut inv = vec![usize::MAX; ncols];
    for (p, &j) in order.iter().enumerate() {
        inv[j] = p;
    }
    let mut indptr = vec![0usize; nrows + 1];
    for s in sols {
        for &i in &s.indices {
            indptr[i + 1] += 1;
        }
    }
    for i in 0..nrows {
        indptr[i + 1] += indptr[i];
    }
    let nnz = indptr[nrows];
    let mut cursor: Vec<usize> = indptr[..nrows].to_vec();
    let mut indices = vec![0usize; nnz];
    let mut values = vec![0f64; nnz];
    for (j, &p) in inv.iter().enumerate() {
        if p == usize::MAX {
            continue;
        }
        let s = &sols[p];
        for (&i, &v) in s.indices.iter().zip(&s.values) {
            let dst = cursor[i];
            indices[dst] = j;
            values[dst] = v;
            cursor[i] += 1;
        }
    }
    Csr::from_parts(nrows, ncols, indptr, indices, values)
}

/// Builds an `nrows × ncols` CSR whose row `order[p]` is the sparse
/// vector `sols[p]` (indices sorted per row via one reused buffer).
fn csr_from_row_solutions(nrows: usize, ncols: usize, order: &[usize], sols: &[SparseVec]) -> Csr {
    debug_assert_eq!(order.len(), sols.len());
    let mut inv = vec![usize::MAX; nrows];
    for (p, &r) in order.iter().enumerate() {
        inv[r] = p;
    }
    let mut indptr = vec![0usize; nrows + 1];
    for (p, s) in sols.iter().enumerate() {
        indptr[order[p] + 1] = s.nnz();
    }
    for i in 0..nrows {
        indptr[i + 1] += indptr[i];
    }
    let nnz = indptr[nrows];
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    let mut pairs: Vec<(usize, f64)> = Vec::new();
    for &p in &inv {
        if p == usize::MAX {
            continue;
        }
        let s = &sols[p];
        pairs.clear();
        pairs.extend(s.indices.iter().zip(&s.values).map(|(&c, &v)| (c, v)));
        pairs.sort_unstable_by_key(|&(c, _)| c);
        for &(c, v) in &pairs {
            indices.push(c);
            values.push(v);
        }
    }
    Csr::from_parts(nrows, ncols, indptr, indices, values)
}

/// Computes `G̃`, `W̃` and `T̃ = W̃ G̃` for one subdomain (one worker, no
/// budget, no plan kept).
pub fn compute_interface(
    fd: &FactoredDomain,
    dom: &LocalDomain,
    cfg: &InterfaceConfig,
) -> InterfaceOutcome {
    compute_interface_planned(fd, dom, cfg, &Budget::unlimited(), 1, None)
        .expect("an unlimited budget never interrupts")
        .0
}

/// Value-independent scaffolding of the interface computation for one
/// subdomain: the column orderings, the blocked-solve plans of the `G`
/// and `W` solves (per-block union reaches — the dominant symbolic
/// cost), and the structure of `Uᵀ` with its value-refresh permutation.
///
/// Everything here depends only on *patterns*: of the subdomain factor
/// (frozen across [`crate::Pdslin::update_values`] by pivot replay) and
/// of `Ê`/`F̂` (frozen by the shared DBBD partition). A sequence solve
/// captures the plan on the first interface computation and replays
/// numerics only on every later step.
#[derive(Clone, Debug)]
pub struct InterfacePlan {
    g_order: Vec<usize>,
    g_plan: BlockedSolvePlan,
    w_order: Vec<usize>,
    w_plan: BlockedSolvePlan,
    /// Cached `Uᵀ` (structure valid across replays; values stale).
    ut: Csc,
    /// `ut.values()[i] = u.values()[ut_src[i]]` refresh permutation.
    ut_src: Vec<usize>,
}

impl InterfacePlan {
    /// Heap bytes held by the cached scaffolding.
    pub fn memory_bytes(&self) -> usize {
        let usz = std::mem::size_of::<usize>();
        (self.g_order.capacity() + self.w_order.capacity() + self.ut_src.capacity()) * usz
            + self.g_plan.memory_bytes()
            + self.w_plan.memory_bytes()
            + self.ut.nnz() * (2 * usz + std::mem::size_of::<f64>())
    }
}

/// [`compute_interface`] under an execution [`Budget`], on up to
/// `workers` threads, with plan capture/reuse.
///
/// The deadline and cancel token are checked before each of the three
/// kernels (`G` solve, `W` solve, `T̃` product); the blocked solves poll
/// them once per column block and the SpGEMM between output strips or
/// rows. The `G` and `W` blocked solves run their column blocks on up to
/// `workers` threads (per-worker pooled workspaces, results merged in
/// block order). `T̃ = W̃ G̃` goes through [`spgemm_checked`]: a compact
/// product (`m·n ≤ 1M` cells and at least `4·m·n` multiply-adds, the
/// usual separator block) runs the single-threaded register-chunked
/// kernel at any worker count, any other the row-parallel two-phase
/// SpGEMM. The output is byte-identical to `workers == 1` for any worker
/// count.
///
/// Pass `plan = None` to build the scaffolding (returned as the second
/// tuple element for the caller to keep), or `Some(plan)` from an earlier
/// call against factors refreshed in place — the reach DFS, column
/// ordering, and transpose construction are then all skipped. Outputs
/// are byte-identical either way.
pub fn compute_interface_planned(
    fd: &FactoredDomain,
    dom: &LocalDomain,
    cfg: &InterfaceConfig,
    budget: &Budget,
    workers: usize,
    plan: Option<&InterfacePlan>,
) -> Result<(InterfaceOutcome, Option<InterfacePlan>), BudgetInterrupt> {
    budget.check()?;
    let n = fd.lu.n();
    let ne = dom.e_cols.len();
    let nf = dom.f_rows.len();

    let e_cols_piv = ehat_columns_pivot(fd, dom);
    let f_rows_elim = fhat_rows_elim(fd, dom);
    // Build the scaffolding when no plan was supplied; `built` is handed
    // back to the caller so the next call can skip this entirely.
    let t_sym = Instant::now();
    let built: Option<InterfacePlan> = match plan {
        Some(_) => None,
        None => {
            let mut ws = SolveWorkspace::new(n);
            let g_order =
                order_columns(&e_cols_piv, &fd.lu.l, cfg.block_size, cfg.ordering, &mut ws);
            let g_plan = BlockedSolvePlan::build(&fd.lu.l, &e_cols_piv, &g_order, cfg.block_size);
            let (ut, ut_src) = transpose_with_sources(&fd.lu.u);
            let w_order = order_columns(&f_rows_elim, &ut, cfg.block_size, cfg.ordering, &mut ws);
            let w_plan = BlockedSolvePlan::build(&ut, &f_rows_elim, &w_order, cfg.block_size);
            Some(InterfacePlan {
                g_order,
                g_plan,
                w_order,
                w_plan,
                ut,
                ut_src,
            })
        }
    };
    let p = plan.unwrap_or_else(|| built.as_ref().expect("built when no plan supplied"));
    // A plan built a moment ago holds the current `Uᵀ`. A replayed plan
    // holds its structure with stale values: refresh a copy through the
    // recorded permutation.
    let refreshed: Option<Csc> = plan.map(|p| {
        let mut ut = p.ut.clone();
        let uv = fd.lu.u.values();
        for (dst, &s) in ut.values_mut().iter_mut().zip(&p.ut_src) {
            *dst = uv[s];
        }
        ut
    });
    let ut = refreshed.as_ref().unwrap_or(&p.ut);
    let symbolic_seconds = t_sym.elapsed().as_secs_f64();

    // --- G = L⁻¹ P Ê ---
    let t_g = Instant::now();
    let (mut g_sols, g_block) =
        solve_in_blocks_planned(&fd.lu.l, true, &e_cols_piv, &p.g_plan, workers, budget)?;
    let g_seconds = t_g.elapsed().as_secs_f64();
    // Row coverage before dropping = union of reaches.
    let mut row_touched = vec![false; n];
    for s in &g_sols {
        for &i in &s.indices {
            row_touched[i] = true;
        }
    }
    let nnzrow_g = row_touched.iter().filter(|&&t| t).count();
    // G̃ (dropped) as CSR, columns mapped back to original Ê order —
    // built directly from the per-column solutions, no COO round-trip.
    for s in &mut g_sols {
        s.drop_small(cfg.drop_tol);
    }
    let g_tilde = csr_from_column_solutions(n, ne, &p.g_order, &g_sols);
    drop(g_sols);

    // --- Wᵀ = U⁻ᵀ Qᵀ F̂ᵀ ---
    budget.check()?;
    let t_w = Instant::now();
    let (mut w_sols, w_block) =
        solve_in_blocks_planned(ut, false, &f_rows_elim, &p.w_plan, workers, budget)?;
    let w_seconds = t_w.elapsed().as_secs_f64();
    // W̃ as CSR (rows = f_rows order, columns = elimination coords).
    for s in &mut w_sols {
        s.drop_small(cfg.drop_tol);
    }
    let w_tilde = csr_from_row_solutions(nf, n, &p.w_order, &w_sols);
    drop(w_sols);

    // --- T̃ = W̃ G̃ ---
    // W̃ columns are elimination coordinates; G̃ rows are pivot
    // coordinates. These agree: U's rows (= Uᵀ's columns) and L's rows
    // both live in pivot order, and column l of U corresponds to pivot
    // step l. So the inner dimension matches directly.
    let t_t = Instant::now();
    let t_tilde = match spgemm_checked(&w_tilde, &g_tilde, budget, workers) {
        Ok(t) => t,
        Err(SpgemmError::Interrupted(i)) => return Err(i),
        // The coordinate argument above makes a mismatch a logic error.
        Err(e @ SpgemmError::DimensionMismatch { .. }) => panic!("{e}"),
    };
    let product_seconds = t_t.elapsed().as_secs_f64();

    let stats = InterfaceStats {
        nnz_g: g_block.true_nnz,
        nnzcol_g: ne,
        nnzrow_g,
        nnz_e: dom.e_hat.nnz() as u64,
        padded_zeros: g_block.padded_zeros,
        padding_fraction: g_block.padding_fraction(),
        solve_seconds: g_seconds + w_seconds,
        symbolic_seconds,
        product_seconds,
        product_madds: spgemm_nnz_bound(&w_tilde, &g_tilde) as u64,
    };
    Ok((
        InterfaceOutcome {
            t_tilde,
            stats,
            g_block,
            w_block,
        },
        built,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_dbbd;
    use crate::partition::{compute_partition, PartitionerKind};
    use crate::subdomain::factor_domain;
    use matgen::stencil::laplace2d;

    fn small_system() -> (sparsekit::Csr, crate::extract::DbbdSystem) {
        let a = laplace2d(10, 10);
        let p = compute_partition(&a, 2, &PartitionerKind::Ngd);
        let sys = extract_dbbd(&a, p);
        (a, sys)
    }

    /// Dense reference: T = F̂ D⁻¹ Ê computed column by column with the
    /// plain LU solve.
    fn dense_t(dom: &LocalDomain, fd: &FactoredDomain) -> Vec<Vec<f64>> {
        let ne = dom.e_cols.len();
        let nf = dom.f_rows.len();
        let ndom = dom.dim();
        let mut t = vec![vec![0.0; ne]; nf];
        for j in 0..ne {
            let mut b = vec![0.0; ndom];
            for i in 0..ndom {
                b[i] = dom.e_hat.get(i, j);
            }
            let x = fd.lu.solve(&b);
            let w = dom.f_hat.matvec(&x);
            for r in 0..nf {
                t[r][j] = w[r];
            }
        }
        t
    }

    #[test]
    fn t_tilde_matches_dense_reference_without_dropping() {
        let (_a, sys) = small_system();
        for dom in &sys.domains {
            let fd = factor_domain(&dom.d, 0.1).unwrap();
            let cfg = InterfaceConfig {
                block_size: 8,
                ordering: RhsOrdering::Postorder,
                drop_tol: 0.0,
            };
            let out = compute_interface(&fd, dom, &cfg);
            let tref = dense_t(dom, &fd);
            assert_eq!(out.t_tilde.nrows(), dom.f_rows.len());
            assert_eq!(out.t_tilde.ncols(), dom.e_cols.len());
            for r in 0..dom.f_rows.len() {
                for c in 0..dom.e_cols.len() {
                    let got = out.t_tilde.get(r, c);
                    assert!(
                        (got - tref[r][c]).abs() < 1e-9,
                        "T mismatch at ({r},{c}): {got} vs {}",
                        tref[r][c]
                    );
                }
            }
        }
    }

    #[test]
    fn orderings_do_not_change_t() {
        let (_a, sys) = small_system();
        let dom = &sys.domains[0];
        let fd = factor_domain(&dom.d, 0.1).unwrap();
        let mk = |ordering| InterfaceConfig {
            block_size: 4,
            ordering,
            drop_tol: 0.0,
        };
        let t_nat = compute_interface(&fd, dom, &mk(RhsOrdering::Natural)).t_tilde;
        let t_post = compute_interface(&fd, dom, &mk(RhsOrdering::Postorder)).t_tilde;
        let t_hyp = compute_interface(&fd, dom, &mk(RhsOrdering::Hypergraph { tau: None })).t_tilde;
        for r in 0..t_nat.nrows() {
            for c in 0..t_nat.ncols() {
                assert!((t_nat.get(r, c) - t_post.get(r, c)).abs() < 1e-10);
                assert!((t_nat.get(r, c) - t_hyp.get(r, c)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dropping_reduces_nnz() {
        let (_a, sys) = small_system();
        let dom = &sys.domains[0];
        let fd = factor_domain(&dom.d, 0.1).unwrap();
        let exact = compute_interface(
            &fd,
            dom,
            &InterfaceConfig {
                block_size: 8,
                ordering: RhsOrdering::Natural,
                drop_tol: 0.0,
            },
        );
        let dropped = compute_interface(
            &fd,
            dom,
            &InterfaceConfig {
                block_size: 8,
                ordering: RhsOrdering::Natural,
                drop_tol: 1e-2,
            },
        );
        assert!(dropped.t_tilde.nnz() <= exact.t_tilde.nnz());
    }

    #[test]
    fn parallel_interface_is_byte_identical_to_serial() {
        let (_a, sys) = small_system();
        let budget = Budget::unlimited();
        for dom in &sys.domains {
            let fd = factor_domain(&dom.d, 0.1).unwrap();
            let cfg = InterfaceConfig {
                block_size: 4,
                ordering: RhsOrdering::Postorder,
                drop_tol: 1e-8,
            };
            let run = |w| {
                compute_interface_planned(&fd, dom, &cfg, &budget, w, None)
                    .unwrap()
                    .0
            };
            let serial = run(1);
            for w in [2usize, 4] {
                let par = run(w);
                assert_eq!(par.t_tilde, serial.t_tilde, "workers {w}");
                assert_eq!(par.g_block, serial.g_block, "workers {w}");
                assert_eq!(par.w_block, serial.w_block, "workers {w}");
                assert_eq!(par.stats.nnzrow_g, serial.stats.nnzrow_g, "workers {w}");
            }
        }
    }
}
