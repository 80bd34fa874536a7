//! The solver pipeline rebuilt phase by phase from the layers' public
//! functions, with a span around each call, for `bench_trace`.
//!
//! `Pdslin::setup`, `solve` and `update_values` are single calls from
//! outside, so the traced run makes the same calls the driver makes, in
//! the same order, itself. `bench_trace` checks that the result is the
//! driver's bit for bit (same `x` fingerprint) and that the phase spans
//! add up to the untraced set-up time (`trace.setup_coverage`), so a
//! library change this file has not followed shows as a failed run, not
//! as a silently wrong attribution.

use std::cell::RefCell;

use krylov::{gmres_with_workspace, GmresWorkspace, LinearOperator, Preconditioner};
use pdslin::extract::{extract_dbbd, DbbdSystem};
use pdslin::interface::{
    compute_interface_planned, ehat_columns_pivot, InterfaceConfig, InterfacePlan,
};
use pdslin::partition::{compute_partition_robust, PartitionStats};
use pdslin::rhs_order::order_columns;
use pdslin::schur::{assemble_schur_workers, factor_schur_robust};
use pdslin::subdomain::{subdomain_ordering, FactoredDomain};
use pdslin::{PdslinConfig, RecoveryReport};
use slu::etree::etree;
use slu::trisolve::SolveWorkspace;
use slu::{LuConfig, LuFactors, TriScratch};
use sparsekit::spgemm::spgemm;
use sparsekit::{Budget, Csr};

use crate::trace::Tracer;

/// What a traced set-up leaves behind: everything a solve or a value
/// update needs.
pub struct Factored {
    sys: DbbdSystem,
    factors: Vec<FactoredDomain>,
    plans: Vec<InterfacePlan>,
    s_tilde: Csr,
    schur_lu: LuFactors,
    arena: SolveArena,
}

/// Scratch that persists across solves, as the driver's lanes do, so a
/// traced solve is a warm one.
#[derive(Default)]
struct SolveArena {
    tri: Vec<TriScratch>,
    precond: TriScratch,
    gmres: GmresWorkspace,
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn interface_config(cfg: &PdslinConfig) -> InterfaceConfig {
    InterfaceConfig {
        block_size: cfg.block_size,
        ordering: cfg.rhs_ordering,
        drop_tol: cfg.interface_drop_tol,
    }
}

/// Partition → extract → `LU(D)` → interface → assembly → `LU(S̃)`,
/// one span per phase and per subdomain, counts at the same boundaries.
pub fn traced_setup(t: &Tracer, a: &Csr, cfg: &PdslinConfig) -> Result<Factored, String> {
    let budget = Budget::unlimited();
    let root = t.span("setup", None);
    let mut recovery = RecoveryReport::default();
    let part = {
        let _s = t.span("partition", None);
        compute_partition_robust(
            a,
            cfg.k,
            &cfg.partitioner,
            cfg.weights,
            false,
            &mut recovery,
        )
    }
    .map_err(|e| fail("partition", e))?;
    if !recovery.is_empty() {
        return Err(format!("partitioner fell back: {recovery:?}"));
    }
    let sys = {
        let _s = t.span("extract", None);
        extract_dbbd(a, part)
    };

    let lu_cfg = LuConfig {
        pivot_threshold: cfg.pivot_threshold,
        ..LuConfig::default()
    };
    let mut factors = Vec::with_capacity(sys.domains.len());
    {
        let _phase = t.span("lu_d", None);
        for (l, dom) in sys.domains.iter().enumerate() {
            let _domain = t.span("lu_d.domain", Some(l));
            let order = {
                let _s = t.span("lu_d.order", Some(l));
                subdomain_ordering(&dom.d)
            };
            let lu = {
                let _s = t.span("lu_d.factor", Some(l));
                LuFactors::factorize(&dom.d, &order, &lu_cfg)
            }
            .map_err(|e| fail("LU(D)", e))?;
            // The elimination tree of the ordered pattern, which the
            // postorder RHS ordering keys on.
            let sym = if dom.d.pattern_symmetric() {
                dom.d.clone()
            } else {
                dom.d.symmetrize_abs()
            };
            let etree_parent = etree(&sym.permute(&order, &order));
            factors.push(FactoredDomain { lu, etree_parent });
        }
    }

    let icfg = interface_config(cfg);
    let mut t_tildes = Vec::with_capacity(factors.len());
    let mut plans = Vec::with_capacity(factors.len());
    let (mut padded, mut true_nnz) = (0u64, 0u64);
    {
        let _phase = t.span("interface", None);
        for (l, (dom, fd)) in sys.domains.iter().zip(&factors).enumerate() {
            let _domain = t.span("interface.domain", Some(l));
            let (out, plan) = compute_interface_planned(fd, dom, &icfg, &budget, 1, None)
                .map_err(|e| fail("interface", format!("{e:?}")))?;
            padded += out.g_block.padded_zeros;
            true_nnz += out.g_block.true_nnz;
            t_tildes.push(out.t_tilde);
            plans.push(plan.expect("a plan is built when none is supplied"));
        }
    }
    let s_hat = {
        let _s = t.span("schur.assemble", None);
        assemble_schur_workers(&sys, &t_tildes, 1)
    };
    let (s_tilde, schur_lu, _) = {
        let _s = t.span("lu_s", None);
        factor_schur_robust(&s_hat, cfg.schur_drop_tol, cfg.pivot_threshold, &budget)
    }
    .map_err(|e| fail("LU(S)", e))?;
    let nnz_t: usize = t_tildes.iter().map(|m| m.nnz()).sum();
    // `Pdslin::setup` frees its intermediates before it returns, so the
    // span it is compared with does too.
    drop((t_tildes, s_hat));
    drop(root);

    let stats = PartitionStats::compute(a, &sys.part);
    t.count("partition.separator_size", stats.separator_size as f64);
    t.count("partition.dim_balance", stats.dim_balance());
    t.count("partition.nnz_d_balance", stats.nnz_d_balance());
    t.count("partition.col_e_balance", stats.col_e_balance());
    t.count("partition.nnz_e_balance", stats.nnz_e_balance());
    let fill: usize = factors.iter().map(|f| f.lu.fill()).sum();
    let nnz_d: usize = sys.domains.iter().map(|d| d.d.nnz()).sum();
    t.count("lu_d.fill_ratio", fill as f64 / nnz_d as f64);
    t.count(
        "rhs_order.padding_fraction",
        padded as f64 / (padded + true_nnz).max(1) as f64,
    );
    t.count("interface.nnz_t", nnz_t as f64);
    t.count("schur.nnz_s", s_tilde.nnz() as f64);
    t.count(
        "lu_s.fill_ratio",
        schur_lu.fill() as f64 / s_tilde.nnz() as f64,
    );
    let levels = |lu: &LuFactors| {
        let plan = lu.solve_plan();
        plan.forward_levels().0 + plan.backward_levels().0
    };
    t.count(
        "trisolve.levels",
        (factors.iter().map(|f| levels(&f.lu)).sum::<usize>() + levels(&schur_lu)) as f64,
    );

    let arena = SolveArena {
        tri: factors.iter().map(|_| TriScratch::new()).collect(),
        ..SolveArena::default()
    };
    Ok(Factored {
        sys,
        factors,
        plans,
        s_tilde,
        schur_lu,
        arena,
    })
}

/// One sparse matrix–vector product, with the bytes it must move
/// computed from the array sizes (cache misses not included).
fn spmv(t: &Tracer, m: &Csr, x: &[f64], y: &mut [f64]) {
    {
        let _s = t.span("spmv", None);
        m.matvec_into(x, y);
    }
    let words = 2 * m.nnz() + (m.nrows() + 1) + m.ncols() + m.nrows();
    t.add("spmv.bytes_computed", (8 * words) as f64);
}

fn trisolve(t: &Tracer, lu: &LuFactors, b: &[f64], x: &mut [f64], scratch: &mut TriScratch) {
    let _s = t.span("trisolve", None);
    lu.solve_into(b, x, scratch, 1);
}

/// The implicit Schur operator `S y = C y − Σ F̂ D⁻¹ (Ê y)`, the same
/// kernel calls in the same order as `pdslin::ImplicitSchur`, with a
/// span around each.
struct TracedSchur<'a> {
    t: &'a Tracer,
    sys: &'a DbbdSystem,
    factors: &'a [FactoredDomain],
    tri: RefCell<&'a mut Vec<TriScratch>>,
}

impl LinearOperator for TracedSchur<'_> {
    fn n(&self) -> usize {
        self.sys.nsep()
    }

    fn apply(&self, y: &[f64], out: &mut [f64]) {
        let _s = self.t.span("krylov.schur_apply", None);
        let mut tri = self.tri.borrow_mut();
        spmv(self.t, &self.sys.c, y, out);
        for ((dom, fd), scratch) in self
            .sys
            .domains
            .iter()
            .zip(self.factors)
            .zip(tri.iter_mut())
        {
            let ysub: Vec<f64> = dom.e_cols.iter().map(|&c| y[c]).collect();
            let mut v = vec![0.0; dom.dim()];
            let mut solved = vec![0.0; dom.dim()];
            let mut w = vec![0.0; dom.f_rows.len()];
            spmv(self.t, &dom.e_hat, &ysub, &mut v);
            trisolve(self.t, &fd.lu, &v, &mut solved, scratch);
            spmv(self.t, &dom.f_hat, &solved, &mut w);
            for (rl, &rg) in dom.f_rows.iter().enumerate() {
                out[rg] -= w[rl];
            }
        }
    }
}

/// The right preconditioner `z = S̃⁻¹ r`.
struct TracedPrecond<'a> {
    t: &'a Tracer,
    lu: &'a LuFactors,
    scratch: RefCell<&'a mut TriScratch>,
}

impl Preconditioner for TracedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _s = self.t.span("krylov.precond", None);
        trisolve(self.t, self.lu, r, z, &mut self.scratch.borrow_mut());
    }
}

/// One solve: reduce to the separator, GMRES on the implicit Schur
/// system, back-substitute. Returns `x`, or `None` when GMRES did not
/// converge (the driver's fallback chain is not rebuilt here; the
/// workloads never need it).
pub fn traced_solve(
    t: &Tracer,
    f: &mut Factored,
    cfg: &PdslinConfig,
    b: &[f64],
) -> Option<Vec<f64>> {
    t.count("spmv.bytes_computed", 0.0);
    let _root = t.span("solve", None);
    let Factored {
        sys,
        factors,
        schur_lu,
        arena,
        ..
    } = f;
    let mut ghat: Vec<f64> = sys.sep_rows.iter().map(|&r| b[r]).collect();
    let mut interior: Vec<Vec<f64>> = Vec::with_capacity(factors.len());
    {
        let _s = t.span("solve.reduce", None);
        for ((dom, fd), scratch) in sys.domains.iter().zip(factors.iter()).zip(&mut arena.tri) {
            let fl: Vec<f64> = dom.rows.iter().map(|&r| b[r]).collect();
            let mut dinv_f = vec![0.0; dom.dim()];
            let mut w = vec![0.0; dom.f_rows.len()];
            trisolve(t, &fd.lu, &fl, &mut dinv_f, scratch);
            spmv(t, &dom.f_hat, &dinv_f, &mut w);
            for (rl, &rg) in dom.f_rows.iter().enumerate() {
                ghat[rg] -= w[rl];
            }
            interior.push(fl);
        }
    }
    let result = {
        let _s = t.span("krylov", None);
        let op = TracedSchur {
            t,
            sys,
            factors,
            tri: RefCell::new(&mut arena.tri),
        };
        let m = TracedPrecond {
            t,
            lu: schur_lu,
            scratch: RefCell::new(&mut arena.precond),
        };
        gmres_with_workspace(
            &op,
            &m,
            &ghat,
            None,
            &cfg.gmres,
            &Budget::unlimited(),
            &mut arena.gmres,
        )
    };
    t.count("krylov.iters", result.iterations as f64);
    if !result.converged {
        return None;
    }
    let y = result.x;
    let mut x = vec![0.0; b.len()];
    {
        let _s = t.span("solve.backsolve", None);
        for (((dom, fd), scratch), fl) in sys
            .domains
            .iter()
            .zip(factors.iter())
            .zip(&mut arena.tri)
            .zip(&interior)
        {
            let ysub: Vec<f64> = dom.e_cols.iter().map(|&c| y[c]).collect();
            let mut ey = vec![0.0; dom.dim()];
            spmv(t, &dom.e_hat, &ysub, &mut ey);
            let rhs: Vec<f64> = fl.iter().zip(&ey).map(|(fi, ei)| fi - ei).collect();
            let mut u = vec![0.0; dom.dim()];
            trisolve(t, &fd.lu, &rhs, &mut u, scratch);
            for (li, &gi) in dom.rows.iter().enumerate() {
                x[gi] = u[li];
            }
        }
    }
    for (l, &gi) in sys.sep_rows.iter().enumerate() {
        x[gi] = y[l];
    }
    Some(x)
}

/// The values of `src` laid into the sparsity pattern of `pattern`:
/// entries outside it are dropped, entries it lacks become zero.
fn scatter_into_pattern(pattern: &Csr, src: &Csr) -> Csr {
    let (ip, ix) = (pattern.indptr(), pattern.indices());
    let mut values = vec![0.0; ix.len()];
    for i in 0..pattern.nrows() {
        let row = &ix[ip[i]..ip[i + 1]];
        for (j, v) in src.row_iter(i) {
            if let Ok(pos) = row.binary_search(&j) {
                values[ip[i] + pos] = v;
            }
        }
    }
    Csr::from_parts(
        pattern.nrows(),
        pattern.ncols(),
        ip.to_vec(),
        ix.to_vec(),
        values,
    )
}

/// The sequence step of `Pdslin::update_values` for a matrix with the
/// set-up matrix's pattern: re-extract, replay every pivot sequence,
/// rerun the interface numerics on the stored plans, scatter `Ŝ` into
/// the stored `S̃` pattern and replay `LU(S̃)`. An error is a factor
/// that refused the replay: the driver would rebuild it, the benchmark
/// counts it as a failed operation.
pub fn traced_refactor(
    t: &Tracer,
    f: &mut Factored,
    cfg: &PdslinConfig,
    a: &Csr,
) -> Result<(), String> {
    let budget = Budget::unlimited();
    let _root = t.span("refactor", None);
    {
        let _s = t.span("refactor.extract", None);
        f.sys = extract_dbbd(a, f.sys.part.clone());
    }
    {
        let _s = t.span("refactor.lu_d", None);
        for (fd, dom) in f.factors.iter_mut().zip(&f.sys.domains) {
            fd.lu
                .refactorize(&dom.d)
                .map_err(|e| fail("LU(D) replay", e))?;
        }
    }
    let icfg = interface_config(cfg);
    let s_hat = {
        let _s = t.span("refactor.comp_s", None);
        let mut t_tildes = Vec::with_capacity(f.factors.len());
        for ((dom, fd), plan) in f.sys.domains.iter().zip(&f.factors).zip(&f.plans) {
            let (out, _) = compute_interface_planned(fd, dom, &icfg, &budget, 1, Some(plan))
                .map_err(|e| fail("interface replay", format!("{e:?}")))?;
            t_tildes.push(out.t_tilde);
        }
        assemble_schur_workers(&f.sys, &t_tildes, 1)
    };
    let _s = t.span("refactor.lu_s", None);
    let st = scatter_into_pattern(&f.s_tilde, &s_hat);
    f.schur_lu
        .refactorize(&st)
        .map_err(|e| fail("LU(S) replay", e))?;
    f.s_tilde = st;
    Ok(())
}

/// Kernel replays on the extracted blocks, outside the set-up span:
/// `spgemm(F̂_ℓ, Ê_ℓ)`, the shape of the `W̃ G̃` product (whose operands
/// are private to the interface phase), and the RHS column ordering of
/// the `G` solves, which the interface span contains but cannot show
/// separately.
pub fn replay_kernels(t: &Tracer, f: &Factored, cfg: &PdslinConfig) {
    let (mut flops, mut nnz_out) = (0usize, 0usize);
    for (l, dom) in f.sys.domains.iter().enumerate() {
        let product = {
            let _s = t.span("spgemm", Some(l));
            spgemm(&dom.f_hat, &dom.e_hat)
        };
        nnz_out += product.nnz();
        flops += dom
            .f_hat
            .indices()
            .iter()
            .map(|&k| 2 * dom.e_hat.row_nnz(k))
            .sum::<usize>();
    }
    t.count("spgemm.flops", flops as f64);
    t.count("spgemm.nnz_out", nnz_out as f64);
    for (l, (dom, fd)) in f.sys.domains.iter().zip(&f.factors).enumerate() {
        let columns = ehat_columns_pivot(fd, dom);
        let mut ws = SolveWorkspace::new(fd.lu.n());
        let _s = t.span("rhs_order", Some(l));
        std::hint::black_box(order_columns(
            &columns,
            &fd.lu.l,
            cfg.block_size,
            cfg.rhs_ordering,
            &mut ws,
        ));
    }
}
