//! Gilbert–Peierls left-looking sparse LU with threshold partial
//! pivoting (the algorithm family behind SuperLU), with a dense
//! trailing block.
//!
//! The sparse loop pays a DFS, an indirect scatter and a sort per
//! column, which is wasted once the columns it produces are full. So
//! the elimination watches the density of the block still to be
//! factored (see `DENSE_TAIL_DENSITY`) and, once it is dense enough,
//! finishes the remaining `m` columns in two steps: the usual sparse
//! partial solve of each column against the *head* columns only,
//! scattered into an `m × m` buffer, then the `dense` module's in-place
//! LU of that buffer under the same pivot rule. The block is emitted
//! into the same sorted CSC `L`/`U` with exact zeros dropped, so every
//! consumer of the factors sees the pattern the all-sparse loop
//! produces. [`LuFactors::refactorize`] replays the same split.
//! docs/kernels.md ("Dense trailing block") has the measurements.

use std::sync::OnceLock;

use crate::dense;
use crate::levels::{SolvePlan, TriScratch};
use sparsekit::budget::{Budget, BudgetInterrupt};
use sparsekit::{Csc, Csr, Perm};

/// Configuration for the numeric factorisation.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Threshold pivoting parameter in `(0, 1]`: the diagonal candidate is
    /// kept when `|a_dd| ≥ pivot_threshold · max_i |a_id|`. `1.0` is
    /// classical partial pivoting.
    pub pivot_threshold: f64,
    /// SuperLU_DIST-style small-pivot perturbation: when `Some(ε)` and an
    /// elimination step finds no admissible pivot (or only one with
    /// `|pivot| ≤ ε·‖A‖_max`), the pivot is *replaced* by `±ε·‖A‖_max`
    /// instead of failing. The factorisation then completes for any
    /// input, at the price of being approximate — callers are expected
    /// to compensate with iterative refinement or an outer Krylov
    /// method, and the perturbed steps are reported in
    /// [`LuFactors::perturbed`]. `None` (the default) keeps the strict
    /// behaviour: a singular step is a [`LuError::Singular`].
    pub diag_perturb: Option<f64>,
}

impl Default for LuConfig {
    fn default() -> Self {
        LuConfig {
            pivot_threshold: 0.1,
            diag_perturb: None,
        }
    }
}

/// Factorisation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuError {
    /// No admissible pivot at the given elimination step (matrix is
    /// structurally or numerically singular).
    Singular {
        /// The elimination step at which no pivot was found.
        step: usize,
    },
    /// A NaN or ±Inf was encountered — in the input matrix or generated
    /// during elimination. Factoring poison silently would let it
    /// propagate into every downstream solve.
    NonFinite {
        /// The elimination step at which the non-finite value surfaced
        /// (0 when detected during input validation).
        step: usize,
    },
    /// The execution budget (deadline or cancellation) interrupted the
    /// elimination. The factorisation is abandoned — partial factors are
    /// never returned.
    Interrupted {
        /// The elimination step at which the interrupt was observed.
        step: usize,
        /// What fired.
        interrupt: BudgetInterrupt,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular { step } => write!(f, "matrix singular at elimination step {step}"),
            LuError::NonFinite { step } => {
                write!(f, "non-finite value (NaN/Inf) at elimination step {step}")
            }
            LuError::Interrupted { step, interrupt } => {
                write!(f, "factorisation interrupted at step {step}: {interrupt}")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// Why an incremental [`LuFactors::refactorize`] was refused or
/// abandoned. On every error path the numeric payload may be partially
/// rewritten, so callers recover by re-factorising from scratch (which
/// is exactly what the driver's fallback does).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefactorizeError {
    /// The original factorisation perturbed pivots
    /// ([`LuFactors::perturbed`]); replaying a patched pivot sequence
    /// against new values is not meaningful.
    Perturbed,
    /// The new matrix is not the same order as the factored one.
    SizeMismatch {
        /// Order of the stored factors.
        expected: usize,
        /// Order of the supplied matrix.
        got: usize,
    },
    /// A NaN/Inf appeared in the input (step 0) or during replay.
    NonFinite {
        /// Elimination step (0 for input validation).
        step: usize,
    },
    /// A stored pivot position evaluated to exactly zero under the new
    /// values — the recorded pivot sequence no longer works.
    ZeroPivot {
        /// Elimination step with the vanished pivot.
        step: usize,
    },
    /// The new matrix has an entry outside the recorded sparsity
    /// pattern (refactorisation requires an identical pattern).
    PatternMismatch {
        /// Elimination step at which the foreign entry surfaced.
        step: usize,
    },
    /// Replay produced a nonzero in an `L` position the original
    /// factorisation dropped as an exact zero — the stored pattern
    /// cannot hold the new factors.
    PatternDeviation {
        /// Elimination step at which the pattern no longer fits.
        step: usize,
    },
}

impl std::fmt::Display for RefactorizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorizeError::Perturbed => {
                write!(f, "original factorisation used perturbed pivots")
            }
            RefactorizeError::SizeMismatch { expected, got } => {
                write!(
                    f,
                    "matrix order {got} does not match factored order {expected}"
                )
            }
            RefactorizeError::NonFinite { step } => {
                write!(
                    f,
                    "non-finite value (NaN/Inf) at refactorisation step {step}"
                )
            }
            RefactorizeError::ZeroPivot { step } => {
                write!(f, "stored pivot vanished at refactorisation step {step}")
            }
            RefactorizeError::PatternMismatch { step } => {
                write!(f, "entry outside the recorded pattern at step {step}")
            }
            RefactorizeError::PatternDeviation { step } => {
                write!(f, "fill escapes the recorded factor pattern at step {step}")
            }
        }
    }
}

impl std::error::Error for RefactorizeError {}

/// Density of the block still to be factored above which the rest of
/// the elimination runs on the dense kernel.
///
/// Two quantities the loop already holds are tested against it at
/// step `k`, with `m = n − k` columns to go. (1) The last `L` column:
/// its `c` entries all lie in the `m` rows still unpivoted and, for a
/// pattern that is roughly symmetric, `U`'s row fills the same
/// positions, so the step left a `c × c` clique in the block — the
/// block is at least `(c/m)²` dense. That is also the marginal rule:
/// one more sparse step costs `≈ 2c²` flops at the sparse rate, one
/// more dense step `2m²` at the dense rate, and the measured rates
/// differ by this factor (the `lu_dense_crossover` table in
/// docs/kernels.md). (2) What the loop holds: the entries of `L` and
/// `U` so far plus the entries of `A` in the columns still to come
/// must be at least this share of the `m²` buffer cells, so the buffer
/// never outgrows the sparse storage by more than `1/DENSE_TAIL_DENSITY`
/// — one dense column in an otherwise sparse matrix cannot buy an
/// `n²` allocation. At step 0 there is no `L` column and (2) alone
/// decides; there it is exactly the density of `A`.
const DENSE_TAIL_DENSITY: f64 = 0.15;

fn tail_is_dense(m: usize, held: usize, last_l_count: Option<usize>) -> bool {
    let cells = DENSE_TAIL_DENSITY * (m as f64) * (m as f64);
    held as f64 >= cells && last_l_count.is_none_or(|c| (c as f64) * (c as f64) >= cells)
}

/// A factor under construction: flat push-only row/value arrays plus
/// column pointers, which *are* the CSC arrays once every column is
/// sorted.
struct ColArena {
    ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl ColArena {
    fn with_columns(n: usize) -> Self {
        let mut ptr = Vec::with_capacity(n + 1);
        ptr.push(0);
        ColArena {
            ptr,
            rows: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn push(&mut self, row: usize, val: f64) {
        self.rows.push(row);
        self.vals.push(val);
    }

    fn close_column(&mut self) {
        self.ptr.push(self.rows.len());
    }

    fn nnz(&self) -> usize {
        self.rows.len()
    }

    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let span = self.ptr[j]..self.ptr[j + 1];
        (&self.rows[span.clone()], &self.vals[span])
    }

    /// Renames the rows of columns `..ncols` and sorts each by row.
    fn sort_columns(&mut self, ncols: usize, map_row: impl Fn(usize) -> usize) {
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..ncols {
            let span = self.ptr[j]..self.ptr[j + 1];
            scratch.clear();
            scratch.extend(
                self.rows[span.clone()]
                    .iter()
                    .zip(&self.vals[span.clone()])
                    .map(|(&r, &v)| (map_row(r), v)),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for (t, &(r, v)) in span.zip(&scratch) {
                self.rows[t] = r;
                self.vals[t] = v;
            }
        }
    }

    /// The finished factor. The growth slack of the arrays is given
    /// back: factors stay resident for the life of the solver.
    fn into_csc(mut self, n: usize) -> Csc {
        self.rows.shrink_to_fit();
        self.vals.shrink_to_fit();
        Csc::from_parts(n, n, self.ptr, self.rows, self.vals)
    }
}

/// The dense trailing block while it is being filled and factored.
struct DenseTail {
    /// First elimination step of the block.
    start: usize,
    /// `m × m` column-major buffer, `m = n − start`.
    buf: Vec<f64>,
    /// Buffer row → original row; the first `kk` are pivotal after
    /// `kk` dense steps, in pivot order.
    rows: Vec<usize>,
    /// Original row → buffer row (`usize::MAX` for rows the sparse
    /// head pivoted).
    loc: Vec<usize>,
}

impl DenseTail {
    fn new(start: usize, pinv: &[usize]) -> Self {
        let rows: Vec<usize> = (0..pinv.len()).filter(|&i| pinv[i] == usize::MAX).collect();
        let mut loc = vec![usize::MAX; pinv.len()];
        for (t, &i) in rows.iter().enumerate() {
            loc[i] = t;
        }
        DenseTail {
            start,
            buf: vec![0f64; rows.len() * rows.len()],
            rows,
            loc,
        }
    }
}

/// The symbolic record of a factorisation. For the sparse head (steps
/// before `dense_start`): the per-step topological reach, in the exact
/// order the numeric loop visited it, plus, per reach entry, the flat
/// index of the value slot it feeds in the assembled `L` or `U`.
/// Replaying elimination against this record skips the DFS, the pivot
/// search, and the CSC assembly — the entire pattern-dependent cost of
/// [`LuFactors::factorize`]. The dense tail needs no per-entry record:
/// its columns visit the head in ascending pivot order, which is the
/// stored pattern of `U`, and the block itself is replayed densely.
#[derive(Clone, Debug)]
struct LuSymbolic {
    /// First step of the dense trailing block (`n` when there is none).
    dense_start: usize,
    /// `topo_ptr[k]..topo_ptr[k + 1]` is step `k`'s reach, `k <
    /// dense_start`.
    topo_ptr: Vec<usize>,
    /// Reach entries in **pivot coordinates** (`row_perm.to_new`), in
    /// stored visit order. `L`'s assembled row indices are in the same
    /// coordinates, so the replay's inner update loop runs without any
    /// per-entry permutation lookups.
    topo_new: Vec<usize>,
    /// Per reach entry: index into `u.values` when the row was pivotal
    /// by step `k` (pivot position ≤ k), into `l.values` otherwise;
    /// `usize::MAX` marks an `L` entry the original factorisation
    /// dropped as an exact zero (no slot exists).
    slot: Vec<usize>,
}

/// The LU factorisation `L·U = P·A·Qᵀ` of a square sparse matrix.
///
/// `L` is unit lower triangular (unit diagonal stored explicitly), `U`
/// upper triangular; both are in CSC with row indices in **pivot order**.
/// `row_perm` maps pivot position → original row (`to_old`); `col_perm`
/// is the fill-reducing column permutation supplied by the caller.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Unit lower-triangular factor.
    pub l: Csc,
    /// Upper-triangular factor (diagonal = pivots).
    pub u: Csc,
    /// Row permutation from pivoting.
    pub row_perm: Perm,
    /// Column permutation (fill-reducing ordering).
    pub col_perm: Perm,
    /// Elimination steps whose pivot was replaced by `±ε·‖A‖_max`
    /// (empty unless [`LuConfig::diag_perturb`] was enabled *and* the
    /// matrix was singular or near-singular at those steps).
    pub perturbed: Vec<usize>,
    /// Execution plan for the triangular solves, built lazily on first
    /// use so factors that are never solved with pay nothing for it (see
    /// [`crate::levels`]).
    plan: OnceLock<SolvePlan>,
    /// Symbolic record enabling [`LuFactors::refactorize`].
    symbolic: LuSymbolic,
}

impl LuFactors {
    /// Factorises `a` using the given fill-reducing column permutation.
    ///
    /// For (pattern-)symmetric matrices pass the same permutation you
    /// would use symmetrically; rows are re-pivoted numerically anyway.
    pub fn factorize(a: &Csr, col_perm: &Perm, cfg: &LuConfig) -> Result<LuFactors, LuError> {
        Self::factorize_budgeted(a, col_perm, cfg, &Budget::unlimited())
    }

    /// [`LuFactors::factorize`] under an execution budget: the
    /// elimination loop polls the budget (amortised over steps) and
    /// aborts with [`LuError::Interrupted`] on a deadline overrun or
    /// cancellation, instead of running to completion.
    pub fn factorize_budgeted(
        a: &Csr,
        col_perm: &Perm,
        cfg: &LuConfig,
        budget: &Budget,
    ) -> Result<LuFactors, LuError> {
        Self::factorize_at(a, col_perm, cfg, budget, None)
    }

    /// [`LuFactors::factorize_budgeted`] with the hand-over to the dense
    /// kernel forced to step `dense_start` (`Some(n)`: never) instead of
    /// decided from the factor's density — for the crossover bench and
    /// the tests that pin both sides of the switch.
    #[doc(hidden)]
    pub fn factorize_at(
        a: &Csr,
        col_perm: &Perm,
        cfg: &LuConfig,
        budget: &Budget,
        dense_start: Option<usize>,
    ) -> Result<LuFactors, LuError> {
        assert_eq!(a.nrows(), a.ncols(), "LU requires a square matrix");
        assert_eq!(col_perm.len(), a.ncols());
        assert!(cfg.pivot_threshold > 0.0 && cfg.pivot_threshold <= 1.0);
        let n = a.nrows();
        let acsc = a.to_csc();
        // ‖A‖_max for the perturbation magnitude, plus an up-front poison
        // check (NaN never wins a `>` comparison, so it would otherwise
        // slip through pivot selection unnoticed).
        let mut anorm = 0.0f64;
        for &v in acsc.values() {
            if !v.is_finite() {
                return Err(LuError::NonFinite { step: 0 });
            }
            anorm = anorm.max(v.abs());
        }
        let tiny = cfg.diag_perturb.map(|eps| eps * anorm.max(1.0));
        let mut perturbed: Vec<usize> = Vec::new();
        // Growing factors. `L`'s row indices are *original* row ids
        // during the factorisation (unit diagonal first in each column)
        // and are renamed to pivot order at the end; `U`'s are pivot
        // steps throughout.
        let mut l = ColArena::with_columns(n);
        let mut u = ColArena::with_columns(n);
        // `U`'s rows above the dense block, per tail column.
        let mut u_head = ColArena::with_columns(0);
        let mut tail: Option<DenseTail> = None;
        let mut a_rem = acsc.nnz();
        let mut pinv = vec![usize::MAX; n]; // original row -> pivot step
        let mut x = vec![0f64; n];
        let mut mark = vec![usize::MAX; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut srcs: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        // Symbolic record for `refactorize`: each sparse step's reach in
        // visit order (slots resolved after assembly).
        let mut topo_ptr: Vec<usize> = vec![0];
        let mut topo_row: Vec<usize> = Vec::new();
        let mut ticker = budget.ticker(64);
        for k in 0..n {
            if let Err(interrupt) = ticker.tick() {
                return Err(LuError::Interrupted { step: k, interrupt });
            }
            if tail.is_none() {
                let switch = match dense_start {
                    Some(at) => k == at,
                    None => tail_is_dense(
                        n - k,
                        l.nnz() + u.nnz() + a_rem,
                        k.checked_sub(1).map(|j| l.col(j).0.len() - 1),
                    ),
                };
                if switch {
                    tail = Some(DenseTail::new(k, &pinv));
                }
            }
            let col = col_perm.to_old(k);
            a_rem -= acsc.col_nnz(col);
            // --- Symbolic: reach of A(:, col) in the graph of L. ---
            topo.clear();
            for &seed in acsc.col_indices(col) {
                if mark[seed] == k {
                    continue;
                }
                // Iterative DFS, pushing nodes in finish order.
                dfs_stack.push((seed, 0));
                mark[seed] = k;
                while let Some(&mut (node, ref mut child)) = dfs_stack.last_mut() {
                    let j = pinv[node];
                    // Past the unit diagonal, which is `node` itself.
                    let kids: &[usize] = if j == usize::MAX {
                        &[]
                    } else {
                        &l.col(j).0[1..]
                    };
                    let mut advanced = false;
                    while *child < kids.len() {
                        let r = kids[*child];
                        *child += 1;
                        if mark[r] != k {
                            mark[r] = k;
                            dfs_stack.push((r, 0));
                            advanced = true;
                            break;
                        }
                    }
                    if !advanced {
                        topo.push(node);
                        dfs_stack.pop();
                    }
                }
            }
            // Finish order is reverse-topological; reverse it so each node
            // precedes everything it updates.
            topo.reverse();
            // The pivotal reach entries are the columns of L that update
            // this one. A tail column applies them in ascending pivot
            // order (equally topological), which the replay can read off
            // the stored pattern of U.
            srcs.clear();
            srcs.extend(topo.iter().map(|&i| pinv[i]).filter(|&j| j != usize::MAX));
            if tail.is_some() {
                srcs.sort_unstable();
            }
            // --- Numeric: x = L \ A(:, col) on the reach set. ---
            for &i in &topo {
                x[i] = 0.0;
            }
            for (i, v) in acsc.col_iter(col) {
                x[i] = v;
            }
            for &j in &srcs {
                let (rows, vals) = l.col(j);
                let xi = x[rows[0]];
                if xi == 0.0 {
                    continue;
                }
                for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                    x[r] -= v * xi;
                }
            }
            if let Some(t) = tail.as_mut() {
                // The rows of the head go to U, the rest into the block.
                for &j in &srcs {
                    u_head.push(j, x[l.col(j).0[0]]);
                }
                u_head.close_column();
                let m = t.rows.len();
                let dst = &mut t.buf[(k - t.start) * m..][..m];
                for &i in &topo {
                    if pinv[i] == usize::MAX {
                        dst[t.loc[i]] = x[i];
                    }
                }
                continue;
            }
            // --- Pivot among not-yet-pivotal reach entries. ---
            let mut ipiv = usize::MAX;
            let mut amax = -1.0f64;
            for &i in &topo {
                if pinv[i] == usize::MAX {
                    let t = x[i].abs();
                    if t > amax {
                        amax = t;
                        ipiv = i;
                    }
                }
            }
            if !amax.is_finite() {
                return Err(LuError::NonFinite { step: k });
            }
            let degenerate = ipiv == usize::MAX || amax <= 0.0;
            let near_singular = tiny.is_some_and(|t| !degenerate && amax <= t);
            let pivot;
            if degenerate || near_singular {
                let Some(t) = tiny else {
                    return Err(LuError::Singular { step: k });
                };
                // SuperLU_DIST-style recovery: substitute a small pivot
                // `±ε·‖A‖_max` so elimination can continue. Prefer the
                // diagonal position; fall back to any not-yet-pivotal row
                // (one always exists: k rows are pivotal before step k).
                if pinv[col] == usize::MAX {
                    ipiv = col;
                } else if ipiv == usize::MAX {
                    ipiv = (0..n)
                        .find(|&i| pinv[i] == usize::MAX)
                        .expect("unpivoted row exists");
                }
                let old = if mark[ipiv] == k { x[ipiv] } else { 0.0 };
                pivot = if old < 0.0 { -t } else { t };
                x[ipiv] = pivot;
                if mark[ipiv] != k {
                    // Row was outside the reach set: give it a synthetic
                    // entry so the U-column split below records the pivot.
                    mark[ipiv] = k;
                    topo.push(ipiv);
                }
                perturbed.push(k);
            } else {
                // Prefer the diagonal entry when it passes the threshold
                // test.
                if pinv[col] == usize::MAX && x[col].abs() >= cfg.pivot_threshold * amax {
                    ipiv = col;
                }
                pivot = x[ipiv];
            }
            if !pivot.is_finite() {
                return Err(LuError::NonFinite { step: k });
            }
            pinv[ipiv] = k;
            // --- Split the reach into the U column and the L column. ---
            l.push(ipiv, 1.0);
            for &i in &topo {
                let pi = pinv[i];
                if i == ipiv {
                    continue;
                }
                if pi != usize::MAX {
                    u.push(pi, x[i]);
                } else {
                    let v = x[i] / pivot;
                    if v != 0.0 {
                        l.push(i, v);
                    }
                }
            }
            u.push(k, pivot);
            l.close_column();
            u.close_column();
            topo_row.extend_from_slice(&topo);
            topo_ptr.push(topo_row.len());
        }
        // --- Factor the dense block under the same pivot rule. ---
        let head = tail.as_ref().map_or(n, |t| t.start);
        if let Some(t) = tail.as_mut() {
            let DenseTail {
                start,
                buf,
                rows,
                loc,
            } = t;
            dense::lu_in_place(buf, rows.len(), |kk, cand| {
                let k = *start + kk;
                if let Err(interrupt) = ticker.tick() {
                    return Err(LuError::Interrupted { step: k, interrupt });
                }
                let mut p = 0;
                let mut amax = -1.0f64;
                for (r, v) in cand.iter().enumerate() {
                    if v.abs() > amax {
                        amax = v.abs();
                        p = r;
                    }
                }
                if !amax.is_finite() {
                    return Err(LuError::NonFinite { step: k });
                }
                // The diagonal candidate, if its row is still unpivoted:
                // rows the block has pivoted sit above `kk`.
                let diag = loc[col_perm.to_old(k)];
                let diag = (diag != usize::MAX && diag >= kk).then(|| diag - kk);
                let degenerate = amax <= 0.0;
                let pivot;
                if degenerate || tiny.is_some_and(|t| amax <= t) {
                    let Some(t) = tiny else {
                        return Err(LuError::Singular { step: k });
                    };
                    p = diag.unwrap_or(p);
                    pivot = if cand[p] < 0.0 { -t } else { t };
                    perturbed.push(k);
                } else {
                    if let Some(dp) = diag {
                        if cand[dp].abs() >= cfg.pivot_threshold * amax {
                            p = dp;
                        }
                    }
                    pivot = cand[p];
                }
                if !pivot.is_finite() {
                    return Err(LuError::NonFinite { step: k });
                }
                rows.swap(kk, kk + p);
                loc[rows[kk]] = kk;
                loc[rows[kk + p]] = kk + p;
                Ok((p, pivot))
            })?;
            for (kk, &i) in rows.iter().enumerate() {
                pinv[i] = *start + kk;
            }
        }
        // --- Assemble CSC factors in pivot order. ---
        let row_perm = Perm::from_to_new(pinv);
        l.sort_columns(head, |old_row| row_perm.to_new(old_row));
        u.sort_columns(head, |r| r);
        if let Some(t) = tail {
            // The block holds its packed factors in pivot order; exact
            // zeros (structural ones included) are not stored.
            let m = t.rows.len();
            for (kk, c) in t.buf.chunks_exact(m).enumerate() {
                let k = head + kk;
                let (rows, vals) = u_head.col(kk);
                for (&r, &v) in rows.iter().zip(vals) {
                    u.push(r, v);
                }
                for (r, &v) in c[..kk].iter().enumerate() {
                    if v != 0.0 {
                        u.push(head + r, v);
                    }
                }
                u.push(k, c[kk]);
                u.close_column();
                l.push(k, 1.0);
                for (r, &v) in c[kk + 1..].iter().enumerate() {
                    if v != 0.0 {
                        l.push(k + 1 + r, v);
                    }
                }
                l.close_column();
            }
        }
        let l = l.into_csc(n);
        let u = u.into_csc(n);
        // --- Resolve each reach entry to its value slot, converting the
        // reach to pivot coordinates along the way (the replay works
        // entirely in pivot space). ---
        let topo_new: Vec<usize> = topo_row.iter().map(|&i| row_perm.to_new(i)).collect();
        drop(topo_row);
        let mut slot = vec![usize::MAX; topo_new.len()];
        for k in 0..head {
            for (s, &pi) in slot[topo_ptr[k]..topo_ptr[k + 1]]
                .iter_mut()
                .zip(&topo_new[topo_ptr[k]..topo_ptr[k + 1]])
            {
                if pi <= k {
                    let t = u
                        .col_indices(k)
                        .binary_search(&pi)
                        .expect("pivotal reach entry present in U");
                    *s = u.colptr()[k] + t;
                } else if let Ok(t) = l.col_indices(k).binary_search(&pi) {
                    *s = l.colptr()[k] + t;
                }
            }
        }
        Ok(LuFactors {
            l,
            u,
            row_perm,
            col_perm: col_perm.clone(),
            perturbed,
            plan: OnceLock::new(),
            symbolic: LuSymbolic {
                dense_start: head,
                topo_ptr,
                topo_new,
                slot,
            },
        })
    }

    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.l.ncols()
    }

    /// The elimination step at which the dense kernel took over (`n`
    /// when it never did).
    #[doc(hidden)]
    pub fn dense_start(&self) -> usize {
        self.symbolic.dense_start
    }

    /// Fill: `nnz(L) + nnz(U)` (L's unit diagonal included).
    pub fn fill(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Solves `A x = b` (dense right-hand side).
    ///
    /// Convenience wrapper over [`LuFactors::solve_into`] with a fresh
    /// scratch and no parallelism; hot paths should hold a persistent
    /// [`TriScratch`] and call `solve_into` directly.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0f64; self.n()];
        self.solve_into(b, &mut x, &mut TriScratch::new(), 1);
        x
    }

    /// Solves `A x = b` into a caller-provided output using the cached
    /// level-scheduled plan. `x` is fully overwritten; after the first
    /// call of a given size the scratch is reused without allocating.
    /// The result is byte-identical for every `workers` value.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut TriScratch, workers: usize) {
        self.solve_plan().solve_into(b, x, scratch, workers);
    }

    /// Solves `A x[l] = b[l]` for every lane `l` in one pass over the
    /// factors per group of [`MAX_LANES`](crate::levels::MAX_LANES)
    /// lanes; every lane is bit-identical to [`LuFactors::solve_into`]
    /// on its right-hand side alone.
    pub fn solve_lanes(
        &self,
        b: &[&[f64]],
        x: &mut [&mut [f64]],
        scratch: &mut TriScratch,
        workers: usize,
    ) {
        self.solve_plan().solve_lanes(b, x, scratch, workers);
    }

    /// The level-scheduled triangular-solve plan, built on first use
    /// and cached.
    pub fn solve_plan(&self) -> &SolvePlan {
        self.plan
            .get_or_init(|| SolvePlan::build(&self.l, &self.u, &self.row_perm, &self.col_perm))
    }

    /// Re-runs the numeric elimination against `a`'s **values**, reusing
    /// every symbolic artifact of the original factorisation: the
    /// per-step reaches, the pivot sequence, the assembled `L`/`U`
    /// patterns, and the triangular-solve schedule. Only the value
    /// arrays (and the plan's numeric payload) are rewritten — no DFS,
    /// no pivot search, no assembly, no plan build. A dense trailing
    /// block is replayed by the dense kernel under the frozen pivot
    /// order and written back through the stored pattern.
    ///
    /// `a` must have the **same sparsity pattern** as the originally
    /// factored matrix (same order; entries only where the original had
    /// them — a subset pattern is accepted, the missing entries read as
    /// zero). Values may differ arbitrarily: the stored pivot order is
    /// *replayed*, so with identical values the result is bit-identical
    /// to a fresh [`LuFactors::factorize`], and with drifted values it
    /// is an exact LU of the new matrix under the old pivot sequence
    /// (numeric quality degrades gradually with drift — callers pair
    /// this with a staleness policy).
    ///
    /// On any error the numeric payload may be partially rewritten;
    /// recover by re-factorising from scratch.
    pub fn refactorize(&mut self, a: &Csr) -> Result<(), RefactorizeError> {
        let n = self.n();
        if a.nrows() != n || a.ncols() != n {
            return Err(RefactorizeError::SizeMismatch {
                expected: n,
                got: a.nrows().max(a.ncols()),
            });
        }
        if !self.perturbed.is_empty() {
            return Err(RefactorizeError::Perturbed);
        }
        let sym = &self.symbolic;
        let acsc = a.to_csc();
        if acsc.values().iter().any(|v| !v.is_finite()) {
            return Err(RefactorizeError::NonFinite { step: 0 });
        }
        let mut x = vec![0f64; n];
        let mut mark = vec![usize::MAX; n];
        let (l_colptr, l_rowind, lv) = self.l.parts_mut();
        let (u_colptr, u_rowind, uv) = self.u.parts_mut();
        let head = sym.dense_start;
        for k in 0..head {
            let col = self.col_perm.to_old(k);
            let topo = &sym.topo_new[sym.topo_ptr[k]..sym.topo_ptr[k + 1]];
            // --- Scatter A(:, col) over the stored reach, in pivot
            // coordinates. ---
            for &p in topo {
                x[p] = 0.0;
                mark[p] = k;
            }
            for (i, v) in acsc.col_iter(col) {
                let p = self.row_perm.to_new(i);
                if mark[p] != k {
                    return Err(RefactorizeError::PatternMismatch { step: k });
                }
                x[p] = v;
            }
            // --- Replay x = L \ A(:, col) in the stored visit order.
            // Update targets are distinct rows per source, all inside
            // the reach, so iterating the assembled (sorted) L column
            // instead of the original insertion order changes nothing.
            // `L`'s row indices are pivot coordinates too, so the inner
            // loop needs no permutation lookups; the unit diagonal is
            // the first entry of a sorted column and is sliced off.
            for &j in topo {
                if j >= k {
                    continue;
                }
                let xi = x[j];
                if xi == 0.0 {
                    continue;
                }
                let below = l_colptr[j] + 1..l_colptr[j + 1];
                for (&r, &v) in l_rowind[below.clone()].iter().zip(&lv[below]) {
                    x[r] -= v * xi;
                }
            }
            // --- Replay the stored pivot; write values through slots. ---
            let pivot = x[k];
            if !pivot.is_finite() {
                return Err(RefactorizeError::NonFinite { step: k });
            }
            if pivot == 0.0 {
                return Err(RefactorizeError::ZeroPivot { step: k });
            }
            for (&pi, &s) in topo
                .iter()
                .zip(&sym.slot[sym.topo_ptr[k]..sym.topo_ptr[k + 1]])
            {
                if pi < k {
                    uv[s] = x[pi];
                } else if pi == k {
                    uv[s] = pivot;
                } else {
                    let v = x[pi] / pivot;
                    if !v.is_finite() {
                        return Err(RefactorizeError::NonFinite { step: k });
                    }
                    if s == usize::MAX {
                        if v != 0.0 {
                            return Err(RefactorizeError::PatternDeviation { step: k });
                        }
                    } else {
                        lv[s] = v;
                    }
                }
            }
        }
        if head < n {
            // --- The dense block: each tail column is solved against
            // the head columns (the rows of U above the block, which
            // are sorted — the order the factorisation used), gathered
            // into the buffer in pivot order, and the block is replayed
            // by the same kernel with the pivot order frozen. ---
            let m = n - head;
            let mut buf = vec![0f64; m * m];
            // First tail column with an entry the stored pattern has no
            // slot for. It only matters if a nonzero then fails to fit
            // (an entry of the factored matrix that cancelled exactly
            // has no slot either, and must not be refused).
            let mut foreign: Option<usize> = None;
            let above = |k: usize| {
                let rows = &u_rowind[u_colptr[k]..u_colptr[k + 1]];
                rows.partition_point(|&r| r < head)
            };
            for k in head..n {
                let col = self.col_perm.to_old(k);
                let srcs = &u_rowind[u_colptr[k]..][..above(k)];
                for &p in &u_rowind[u_colptr[k]..u_colptr[k + 1]] {
                    mark[p] = k;
                }
                for &p in &l_rowind[l_colptr[k]..l_colptr[k + 1]] {
                    mark[p] = k;
                }
                for &p in srcs {
                    x[p] = 0.0;
                }
                x[head..].fill(0.0);
                for (i, v) in acsc.col_iter(col) {
                    let p = self.row_perm.to_new(i);
                    if mark[p] != k {
                        if p < head {
                            return Err(RefactorizeError::PatternMismatch { step: k });
                        }
                        foreign.get_or_insert(k);
                    }
                    x[p] = v;
                }
                for (t, &j) in srcs.iter().enumerate() {
                    let xi = x[j];
                    uv[u_colptr[k] + t] = xi;
                    if xi == 0.0 {
                        continue;
                    }
                    let below = l_colptr[j] + 1..l_colptr[j + 1];
                    for (&r, &v) in l_rowind[below.clone()].iter().zip(&lv[below]) {
                        x[r] -= v * xi;
                    }
                }
                buf[(k - head) * m..][..m].copy_from_slice(&x[head..]);
            }
            dense::lu_in_place(&mut buf, m, |kk, cand| {
                let pivot = cand[0];
                if !pivot.is_finite() {
                    return Err(RefactorizeError::NonFinite { step: head + kk });
                }
                if pivot == 0.0 {
                    return Err(RefactorizeError::ZeroPivot { step: head + kk });
                }
                Ok((0, pivot))
            })?;
            // --- Write the block through the stored pattern. ---
            for (kk, c) in buf.chunks_exact(m).enumerate() {
                let k = head + kk;
                if c.iter().any(|v| !v.is_finite()) {
                    return Err(RefactorizeError::NonFinite { step: k });
                }
                let us = u_colptr[k] + above(k)..u_colptr[k + 1];
                let ls = l_colptr[k] + 1..l_colptr[k + 1];
                let fits = write_through(&u_rowind[us.clone()], &mut uv[us], &c[..=kk], head)
                    && write_through(&l_rowind[ls.clone()], &mut lv[ls], &c[kk + 1..], k + 1);
                if !fits {
                    return Err(match foreign {
                        Some(step) => RefactorizeError::PatternMismatch { step },
                        None => RefactorizeError::PatternDeviation { step: k },
                    });
                }
            }
        }
        // --- Refresh the solve plan's numeric payload. ---
        if let Some(plan) = self.plan.get_mut() {
            plan.refresh_numeric(&self.l, &self.u);
        }
        Ok(())
    }
}

/// Writes the dense column segment `dense` (entry `t` is row
/// `first + t`) into the value slots of the stored, sorted pattern
/// `rows`. `false` when a nonzero has no slot.
fn write_through(rows: &[usize], vals: &mut [f64], dense: &[f64], first: usize) -> bool {
    let mut s = 0;
    for (t, &v) in dense.iter().enumerate() {
        if rows.get(s) == Some(&(first + t)) {
            vals[s] = v;
            s += 1;
        } else if v != 0.0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::ops::residual_inf_norm;
    use sparsekit::Coo;

    fn tridiag(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i + 1 < n {
                c.push_sym(i, i + 1, -1.0);
            }
        }
        c.to_csr()
    }

    fn laplace2d(nx: usize) -> Csr {
        let idx = |i: usize, j: usize| i * nx + j;
        let mut c = Coo::new(nx * nx, nx * nx);
        for i in 0..nx {
            for j in 0..nx {
                c.push(idx(i, j), idx(i, j), 4.0);
                if i + 1 < nx {
                    c.push_sym(idx(i, j), idx(i + 1, j), -1.0);
                }
                if j + 1 < nx {
                    c.push_sym(idx(i, j), idx(i, j + 1), -1.0);
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn step_zero_rule_separates_the_library_schur_complements() {
        // (order, nnz) of S̃ on the benchmark's cavity_schur, fusion_rhb
        // and circuit_krylov workloads (docs/kernels.md): only the
        // first is dense going in.
        for (n, nnz, dense) in [
            (1127, 594_913, true),
            (1526, 206_458, false),
            (701, 7_429, false),
        ] {
            assert_eq!(tail_is_dense(n, nnz, None), dense, "n = {n}");
        }
    }

    #[test]
    fn factor_and_solve_tridiagonal() {
        let a = tridiag(50);
        let f = LuFactors::factorize(&a, &Perm::identity(50), &LuConfig::default()).unwrap();
        let b: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b);
        assert!(residual_inf_norm(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn factor_and_solve_2d_laplacian() {
        let a = laplace2d(12);
        let n = a.nrows();
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let b = vec![1.0; n];
        let x = f.solve(&b);
        assert!(residual_inf_norm(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] has a zero diagonal and needs row pivoting.
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        let a = c.to_csr();
        let f = LuFactors::factorize(&a, &Perm::identity(2), &LuConfig::default()).unwrap();
        let x = f.solve(&[3.0, 4.0]);
        assert!((x[0] - 4.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_reports_error() {
        // Second column is structurally empty below/at its pivot search.
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 0, 1.0);
        let a = c.to_csr();
        let err = LuFactors::factorize(&a, &Perm::identity(2), &LuConfig::default());
        assert!(matches!(err, Err(LuError::Singular { .. })));
    }

    #[test]
    fn fill_reducing_permutation_reduces_fill_on_arrow() {
        // Arrow matrix with the dense row/col FIRST: natural order fills
        // completely; reversing the order gives zero fill.
        let n = 30;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0);
        }
        for i in 1..n {
            c.push_sym(0, i, 1.0);
        }
        let a = c.to_csr();
        let f_nat = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let rev = Perm::from_to_old((0..n).rev().collect());
        let f_rev = LuFactors::factorize(&a, &rev, &LuConfig::default()).unwrap();
        assert!(
            f_rev.fill() < f_nat.fill(),
            "reversed arrow should fill less: {} vs {}",
            f_rev.fill(),
            f_nat.fill()
        );
        // Both must still solve correctly.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        assert!(residual_inf_norm(&a, &f_nat.solve(&b), &b) < 1e-10);
        assert!(residual_inf_norm(&a, &f_rev.solve(&b), &b) < 1e-10);
    }

    #[test]
    fn perturbation_completes_singular_factorisation() {
        // Structurally singular (empty second column): strict mode fails,
        // perturbed mode completes and reports the patched step.
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 0, 1.0);
        let a = c.to_csr();
        let cfg = LuConfig {
            diag_perturb: Some(1e-8),
            ..Default::default()
        };
        let f = LuFactors::factorize(&a, &Perm::identity(2), &cfg).unwrap();
        assert_eq!(
            f.perturbed.len(),
            1,
            "exactly one pivot should be perturbed"
        );
        // The factors are usable: L·U is nonsingular by construction.
        let x = f.solve(&[1.0, 1.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn perturbation_untouched_on_regular_matrix() {
        let a = tridiag(30);
        let cfg = LuConfig {
            diag_perturb: Some(1e-10),
            ..Default::default()
        };
        let f = LuFactors::factorize(&a, &Perm::identity(30), &cfg).unwrap();
        assert!(
            f.perturbed.is_empty(),
            "regular matrix must not be perturbed"
        );
        let b = vec![1.0; 30];
        let x = f.solve(&b);
        assert!(residual_inf_norm(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn nan_input_reports_nonfinite() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, f64::NAN);
        c.push(1, 1, 1.0);
        let a = c.to_csr();
        let err = LuFactors::factorize(&a, &Perm::identity(2), &LuConfig::default());
        assert!(matches!(err, Err(LuError::NonFinite { .. })), "got {err:?}");
        // Perturbation must NOT mask poison — NaN is an error either way.
        let cfg = LuConfig {
            diag_perturb: Some(1e-8),
            ..Default::default()
        };
        let err = LuFactors::factorize(&a, &Perm::identity(2), &cfg);
        assert!(matches!(err, Err(LuError::NonFinite { .. })));
    }

    #[test]
    fn unsymmetric_matrix_solve() {
        let mut c = Coo::new(4, 4);
        c.push(0, 0, 3.0);
        c.push(0, 2, 1.0);
        c.push(1, 1, 2.0);
        c.push(1, 0, -1.0);
        c.push(2, 2, 5.0);
        c.push(2, 3, 2.0);
        c.push(3, 3, 4.0);
        c.push(3, 1, 1.5);
        let a = c.to_csr();
        let f = LuFactors::factorize(&a, &Perm::identity(4), &LuConfig::default()).unwrap();
        let b = vec![1.0, -2.0, 3.0, 0.0];
        let x = f.solve(&b);
        assert!(residual_inf_norm(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn cancelled_budget_interrupts_factorisation() {
        let a = laplace2d(12); // 144 elimination steps — past the tick stride
        let tok = sparsekit::CancelToken::new();
        tok.cancel();
        let budget = sparsekit::Budget::unlimited().with_token(tok);
        let err =
            LuFactors::factorize_budgeted(&a, &Perm::identity(144), &LuConfig::default(), &budget);
        assert!(
            matches!(err, Err(LuError::Interrupted { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let a = tridiag(40);
        let f = LuFactors::factorize_budgeted(
            &a,
            &Perm::identity(40),
            &LuConfig::default(),
            &sparsekit::Budget::unlimited(),
        )
        .unwrap();
        let b = vec![1.0; 40];
        assert!(residual_inf_norm(&a, &f.solve(&b), &b) < 1e-10);
    }

    #[test]
    fn l_is_unit_lower_u_is_upper() {
        let a = laplace2d(6);
        let n = a.nrows();
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        for j in 0..n {
            let lr = f.l.col_indices(j);
            assert!(
                lr.iter().all(|&r| r >= j),
                "L has entry above diagonal in col {j}"
            );
            let d = lr.binary_search(&j).expect("L diagonal missing");
            assert_eq!(f.l.col_values(j)[d], 1.0);
            let ur = f.u.col_indices(j);
            assert!(
                ur.iter().all(|&r| r <= j),
                "U has entry below diagonal in col {j}"
            );
        }
    }

    #[test]
    fn refactorize_identical_values_is_bit_identical() {
        let a = laplace2d(10);
        let n = a.nrows();
        let fresh = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let mut re = fresh.clone();
        re.refactorize(&a).unwrap();
        assert_eq!(fresh.l.values(), re.l.values());
        assert_eq!(fresh.u.values(), re.u.values());
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        assert_eq!(fresh.solve(&b), re.solve(&b));
    }

    #[test]
    fn refactorize_drifted_values_factors_the_new_matrix() {
        let a = laplace2d(9);
        let n = a.nrows();
        let mut f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let mut a2 = a.clone();
        for (t, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 1e-3 * (((t * 31 % 17) as f64) - 8.0);
        }
        f.refactorize(&a2).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = f.solve(&b);
        assert!(
            residual_inf_norm(&a2, &x, &b) < 1e-9,
            "refactorised solve must satisfy the NEW matrix"
        );
    }

    #[test]
    fn refactorize_rejects_foreign_pattern() {
        let a = tridiag(20);
        let mut f = LuFactors::factorize(&a, &Perm::identity(20), &LuConfig::default()).unwrap();
        // A matrix with an extra off-pattern entry must be refused.
        let mut c = Coo::new(20, 20);
        for i in 0..20 {
            c.push(i, i, 2.0);
            if i + 1 < 20 {
                c.push_sym(i, i + 1, -1.0);
            }
        }
        c.push(0, 19, 0.5);
        let b = c.to_csr();
        assert!(matches!(
            f.refactorize(&b),
            Err(RefactorizeError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn refactorize_refused_after_perturbation() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 0, 1.0);
        let a = c.to_csr();
        let cfg = LuConfig {
            diag_perturb: Some(1e-8),
            ..Default::default()
        };
        let mut f = LuFactors::factorize(&a, &Perm::identity(2), &cfg).unwrap();
        assert_eq!(f.refactorize(&a), Err(RefactorizeError::Perturbed));
    }

    #[test]
    fn lazy_plan_builds_once_per_factorisation() {
        // Asserts on the factor's own plan slot, not the process-wide
        // `plan_build_count`, which concurrent tests also bump. The
        // plan's heap buffers give it an identity a rebuild would change.
        let identity = |f: &LuFactors| {
            let plan = f.plan.get().expect("plan is built");
            (plan as *const SolvePlan, plan.out_dst.as_ptr())
        };
        let same = |p: (*const SolvePlan, *const usize), q: (*const SolvePlan, *const usize)| {
            std::ptr::eq(p.0, q.0) && std::ptr::eq(p.1, q.1)
        };
        let a = laplace2d(8);
        let n = a.nrows();
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        assert!(f.plan.get().is_none(), "factorisation defers the plan");
        let b = vec![1.0; n];
        let x1 = f.solve(&b);
        let first = identity(&f);
        let x2 = f.solve(&b);
        assert!(same(identity(&f), first), "plan is cached");
        assert_eq!(x1, x2);
        // A refactorize refreshes values without a plan rebuild.
        let mut g = f.clone();
        g.solve(&b);
        let before = identity(&g);
        g.refactorize(&a).unwrap();
        assert!(same(identity(&g), before), "refactorize keeps the plan");
        g.solve(&b);
        assert!(
            same(identity(&g), before),
            "refactorize must not rebuild the plan"
        );
    }
}
