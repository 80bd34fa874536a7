//! Level-scheduled triangular solves.
//!
//! A sparse triangular solve looks inherently sequential, but its
//! dependency DAG usually is not: row `i` of `L x = b` only needs the
//! entries `x[j]` with `L[i,j] ≠ 0`, so rows whose dependencies are
//! already resolved can run concurrently. Grouping rows by the length
//! of their longest dependency chain — *level scheduling*, the standard
//! formulation behind parallel triangular solves — turns the sweep into
//! a short sequence of embarrassingly parallel phases.
//!
//! The plan is built **once at factorisation time** and flattened into
//! level order: position `p` of the execution vector holds one pivot
//! row, positions within a level are contiguous, and every dependency
//! of `p` lives at a strictly smaller position (an earlier level). Each
//! position is written by exactly one worker and its accumulation loop
//! is a fixed left-to-right sweep over the dependency list, so the
//! parallel result is **byte-identical** to the serial one — the
//! property every `bench_solve`/property-test assertion relies on.
//!
//! Cross-thread value passing uses `AtomicU64` bit-casts with relaxed
//! ordering; the inter-level spin barrier provides the happens-before
//! edges. This keeps the crate free of `unsafe` while compiling to
//! plain loads and stores on mainstream targets.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sparsekit::{Csc, Perm};

/// Below this many rows a solve runs serially even when workers were
/// requested: spawning scoped threads costs more than the sweep itself.
const PAR_MIN_ROWS: usize = 256;

/// Process-wide count of [`SolvePlan::build`] executions. Plan
/// construction is the redundant symbolic work the lazy-plan and
/// refactorisation paths exist to avoid; reuse tests assert this
/// counter stays flat across repeated solves and value updates.
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of triangular-solve plans built since process start (one
/// process-wide counter). Monotone; compare two readings to count builds
/// in between.
pub fn plan_build_count() -> u64 {
    PLAN_BUILDS.load(Ordering::Relaxed)
}

/// One triangular sweep (forward `L` or backward `U`) flattened into
/// level order.
#[derive(Clone, Debug)]
pub struct LevelPlan {
    /// `level_ptr[l]..level_ptr[l + 1]` are the positions of level `l`.
    pub(crate) level_ptr: Vec<usize>,
    /// Index in the sweep's *input* vector that seeds each position's
    /// accumulation.
    pub(crate) rhs_src: Vec<usize>,
    /// Dependency lists, CSR-like: position `p` reads the already-solved
    /// positions `dep_pos[dep_ptr[p]..dep_ptr[p + 1]]` scaled by
    /// `dep_val[..]`. Every dependency sits at a strictly earlier level.
    pub(crate) dep_ptr: Vec<usize>,
    pub(crate) dep_pos: Vec<usize>,
    pub(crate) dep_val: Vec<f64>,
    /// Diagonal divisor per position; empty for the unit-diagonal
    /// forward sweep.
    pub(crate) diag: Vec<f64>,
    /// Position → pivot row (the level order itself).
    pub(crate) order: Vec<usize>,
    /// Pivot row → position (inverse of `order`).
    pub(crate) pos: Vec<usize>,
}

impl LevelPlan {
    /// Number of rows in the sweep.
    pub fn n(&self) -> usize {
        self.rhs_src.len()
    }

    /// Number of levels (longest dependency chain).
    pub fn num_levels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// Widest level — the available parallelism of the sweep.
    pub fn max_level_width(&self) -> usize {
        self.level_ptr
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Runs positions `a..b` of the sweep. All dependencies live at
    /// positions `< a` or were produced by this same call.
    ///
    /// The accumulation loop is lane-structured: products are computed
    /// in fixed-width [`LANES`](sparsekit::lanes::LANES) batches (the
    /// multiplies vectorize, the gathers pipeline) and folded into the
    /// accumulator strictly left-to-right — the exact op sequence of the
    /// plain scalar loop, so results stay byte-identical.
    #[inline]
    fn run_range(&self, a: usize, b: usize, input: &[f64], out: &[AtomicU64]) {
        use sparsekit::lanes::LANES;
        for p in a..b {
            let mut acc = input[self.rhs_src[p]];
            let deps = self.dep_ptr[p]..self.dep_ptr[p + 1];
            let dep_pos = &self.dep_pos[deps.clone()];
            let dep_val = &self.dep_val[deps];
            let mut cp = dep_pos.chunks_exact(LANES);
            let mut cv = dep_val.chunks_exact(LANES);
            for (pp, vv) in (&mut cp).zip(&mut cv) {
                let mut prod = [0f64; LANES];
                for l in 0..LANES {
                    prod[l] = vv[l] * f64::from_bits(out[pp[l]].load(Ordering::Relaxed));
                }
                for pr in prod {
                    acc -= pr;
                }
            }
            for (&dp, &dv) in cp.remainder().iter().zip(cv.remainder()) {
                acc -= dv * f64::from_bits(out[dp].load(Ordering::Relaxed));
            }
            if !self.diag.is_empty() {
                acc /= self.diag[p];
            }
            out[p].store(acc.to_bits(), Ordering::Relaxed);
        }
    }

    /// Rewrites the sweep's dependency values from (numerically
    /// updated) factor columns without touching any structure: each
    /// dependency slot of position `p` holds the factor entry at
    /// `(order[p], order[dep_pos])`.
    pub(crate) fn refresh_numeric_from(&mut self, m: &Csc) {
        for p in 0..self.n() {
            let r = self.order[p];
            for s in self.dep_ptr[p]..self.dep_ptr[p + 1] {
                let c = self.order[self.dep_pos[s]];
                let k = m
                    .col_indices(c)
                    .binary_search(&r)
                    .expect("plan dependency missing from factor pattern");
                self.dep_val[s] = m.col_values(c)[k];
            }
        }
    }

    /// Position range of level `l` assigned to worker `t` of `workers`:
    /// an even split, safe because no two positions of a level depend on
    /// each other.
    #[inline]
    fn worker_range(&self, l: usize, t: usize, workers: usize) -> (usize, usize) {
        let (s, e) = (self.level_ptr[l], self.level_ptr[l + 1]);
        let len = e - s;
        (s + len * t / workers, s + len * (t + 1) / workers)
    }

    /// Executes the sweep into `out` (position order). With `workers <= 1`
    /// (or a trivially small system) everything runs on the calling
    /// thread; otherwise each level is split across `workers` scoped
    /// threads with a spin barrier between levels. Both paths perform
    /// the same arithmetic in the same order per position, so the
    /// results are byte-identical.
    fn execute(&self, input: &[f64], out: &[AtomicU64], workers: usize) {
        let n = self.n();
        debug_assert!(out.len() >= n);
        if workers <= 1 || n < PAR_MIN_ROWS {
            self.run_range(0, n, input, out);
            return;
        }
        let barrier = SpinBarrier::new(workers);
        let nlevels = self.num_levels();
        std::thread::scope(|sc| {
            for t in 0..workers {
                let barrier = &barrier;
                sc.spawn(move || {
                    for l in 0..nlevels {
                        let (a, b) = self.worker_range(l, t, workers);
                        self.run_range(a, b, input, out);
                        barrier.wait();
                    }
                });
            }
        });
    }
}

/// The full two-sweep (`L` then `U`) execution plan of an LU solve,
/// with the row/column permutations folded into the index maps.
#[derive(Clone, Debug)]
pub struct SolvePlan {
    pub(crate) fwd: LevelPlan,
    pub(crate) bwd: LevelPlan,
    /// Backward-sweep position → index in the caller's `x`.
    pub(crate) out_dst: Vec<usize>,
}

impl SolvePlan {
    /// Builds the plan from CSC factors in pivot order (`l` unit lower
    /// triangular, `u` upper triangular with the pivots on the
    /// diagonal), composing `row_perm` into the forward gather and
    /// `col_perm` into the final scatter.
    pub fn build(l: &Csc, u: &Csc, row_perm: &Perm, col_perm: &Perm) -> SolvePlan {
        PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = l.ncols();
        // Forward sweep: x[r] = (P b)[r] − Σ_{j<r} L[r,j]·x[j].
        let fwd = build_sweep(
            n,
            |j, f| {
                for (r, v) in l.col_iter(j) {
                    if r > j {
                        f(r, j, v);
                    }
                }
            },
            false,
            |k| row_perm.to_old(k),
        );
        // Backward sweep: x[j] = (z[j] − Σ_{k>j} U[j,k]·x[k]) / U[j,j],
        // where z is the forward sweep's output (read in its position
        // order).
        let mut bwd = build_sweep(
            n,
            |k, f| {
                for (j, v) in u.col_iter(k) {
                    if j < k {
                        f(j, k, v);
                    }
                }
            },
            true,
            |j| fwd.pos[j],
        );
        let mut udiag = vec![0.0f64; n];
        for k in 0..n {
            for (j, v) in u.col_iter(k) {
                if j == k {
                    udiag[k] = v;
                }
            }
        }
        bwd.diag = bwd.order.iter().map(|&j| udiag[j]).collect();
        let out_dst = bwd.order.iter().map(|&j| col_perm.to_old(j)).collect();
        SolvePlan { fwd, bwd, out_dst }
    }

    /// Forward (`L`) sweep statistics: `(levels, widest level)`.
    pub fn forward_levels(&self) -> (usize, usize) {
        (self.fwd.num_levels(), self.fwd.max_level_width())
    }

    /// Backward (`U`) sweep statistics: `(levels, widest level)`.
    pub fn backward_levels(&self) -> (usize, usize) {
        (self.bwd.num_levels(), self.bwd.max_level_width())
    }

    /// Executes both sweeps: `x = Qᵀ U⁻¹ L⁻¹ P b`, using (and growing,
    /// on first use) the caller's scratch. `x` is fully overwritten.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut TriScratch, workers: usize) {
        let n = self.fwd.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        scratch.prepare(n);
        self.fwd.execute(b, &scratch.bits, workers);
        for (m, bit) in scratch.mid[..n].iter_mut().zip(&scratch.bits) {
            *m = f64::from_bits(bit.load(Ordering::Relaxed));
        }
        self.bwd.execute(&scratch.mid[..n], &scratch.bits, workers);
        for (q, &dst) in self.out_dst.iter().enumerate() {
            x[dst] = f64::from_bits(scratch.bits[q].load(Ordering::Relaxed));
        }
    }

    /// Rewrites the plan's numeric payload (dependency values and `U`
    /// diagonal) from refactorised `L`/`U` with the same pattern; the
    /// schedule — levels, positions, dependency structure — is reused
    /// untouched, so this costs a value sweep instead of a
    /// [`SolvePlan::build`].
    pub fn refresh_numeric(&mut self, l: &Csc, u: &Csc) {
        self.fwd.refresh_numeric_from(l);
        self.bwd.refresh_numeric_from(u);
        for p in 0..self.bwd.n() {
            let r = self.bwd.order[p];
            let k = u
                .col_indices(r)
                .binary_search(&r)
                .expect("U diagonal missing");
            self.bwd.diag[p] = u.col_values(r)[k];
        }
    }
}

/// Reusable buffers for [`SolvePlan::solve_into`]. One instance per
/// concurrently-solving caller; after the first solve of a given size,
/// subsequent solves allocate nothing (see [`TriScratch::allocations`]).
#[derive(Debug, Default)]
pub struct TriScratch {
    bits: Vec<AtomicU64>,
    mid: Vec<f64>,
    allocations: u64,
    resets: u64,
}

impl TriScratch {
    /// Fresh, empty scratch.
    pub fn new() -> TriScratch {
        TriScratch::default()
    }

    fn prepare(&mut self, n: usize) {
        self.resets += 1;
        if self.bits.len() < n {
            self.allocations += 1;
            self.bits.resize_with(n, || AtomicU64::new(0));
            self.mid.resize(n, 0.0);
        }
    }

    /// Number of times the buffers actually grew (1 after the first
    /// solve of the largest size seen; flat afterwards).
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of solves served (monotone; together with a flat
    /// [`TriScratch::allocations`] this proves the arena is being
    /// reused rather than rebuilt).
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// Builds one level-scheduled sweep.
///
/// `for_each_dep(col, f)` must call `f(row, col, value)` for every
/// strictly-off-diagonal entry `(row, col)` of the triangle, visiting
/// columns in ascending order (so each row's dependency list comes out
/// sorted by column — the fixed accumulation order). With
/// `descending_levels` the chains run from high indices down (the `U`
/// sweep); otherwise from low indices up (the `L` sweep). `rhs_of` maps
/// a pivot row to the index of its seed in the sweep's input vector.
fn build_sweep(
    n: usize,
    for_each_dep: impl Fn(usize, &mut dyn FnMut(usize, usize, f64)),
    descending_levels: bool,
    rhs_of: impl Fn(usize) -> usize,
) -> LevelPlan {
    // --- Row-major dependency lists (two-pass CSR build). ---
    let mut cnt = vec![0usize; n];
    for j in 0..n {
        for_each_dep(j, &mut |r, _c, _v| cnt[r] += 1);
    }
    let mut row_ptr = vec![0usize; n + 1];
    for i in 0..n {
        row_ptr[i + 1] = row_ptr[i] + cnt[i];
    }
    let nnz = row_ptr[n];
    let mut row_col = vec![0usize; nnz];
    let mut row_val = vec![0f64; nnz];
    let mut next = row_ptr.clone();
    for j in 0..n {
        for_each_dep(j, &mut |r, c, v| {
            row_col[next[r]] = c;
            row_val[next[r]] = v;
            next[r] += 1;
        });
    }
    // --- Levels: longest dependency chain. ---
    let mut level = vec![0usize; n];
    let rows: Box<dyn Iterator<Item = usize>> = if descending_levels {
        Box::new((0..n).rev())
    } else {
        Box::new(0..n)
    };
    for r in rows {
        let mut lvl = 0usize;
        for k in row_ptr[r]..row_ptr[r + 1] {
            lvl = lvl.max(level[row_col[k]] + 1);
        }
        level[r] = lvl;
    }
    let nlevels = level.iter().map(|&l| l + 1).max().unwrap_or(0);
    // --- Stable counting sort into level order. ---
    let mut level_ptr = vec![0usize; nlevels + 1];
    for &l in &level {
        level_ptr[l + 1] += 1;
    }
    for l in 0..nlevels {
        level_ptr[l + 1] += level_ptr[l];
    }
    let mut cursor = level_ptr.clone();
    let mut order = vec![0usize; n];
    let mut pos = vec![0usize; n];
    for r in 0..n {
        let p = cursor[level[r]];
        cursor[level[r]] += 1;
        order[p] = r;
        pos[r] = p;
    }
    // --- Remap dependencies into position space, in level order. ---
    let mut dep_ptr = vec![0usize; n + 1];
    for p in 0..n {
        dep_ptr[p + 1] = dep_ptr[p] + cnt[order[p]];
    }
    let mut dep_pos = vec![0usize; nnz];
    let mut dep_val = vec![0f64; nnz];
    for p in 0..n {
        let r = order[p];
        for (d, k) in (dep_ptr[p]..).zip(row_ptr[r]..row_ptr[r + 1]) {
            dep_pos[d] = pos[row_col[k]];
            dep_val[d] = row_val[k];
        }
    }
    let rhs_src = order.iter().map(|&r| rhs_of(r)).collect();
    LevelPlan {
        level_ptr,
        rhs_src,
        dep_ptr,
        dep_pos,
        dep_val,
        diag: Vec::new(),
        order,
        pos,
    }
}

/// A sense-reversing spin barrier for the inter-level synchronisation.
///
/// Triangular-solve levels are short (often microseconds); parking on a
/// mutex/condvar per level would dwarf the work, so workers spin. The
/// worker count is already clamped to the host's cores by the callers'
/// worker policy, so spinning never oversubscribes.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            // Spin briefly for the common case (all workers on their own
            // core, levels are short), then yield so oversubscribed hosts
            // — CI runners with fewer cores than workers — still make
            // progress at scheduler speed instead of burning whole quanta.
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{LuConfig, LuFactors};
    use sparsekit::{Coo, Csr};

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
    fn plan_levels_are_a_topological_order() {
        let a = laplace2d(8);
        let n = a.nrows();
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let plan = f.solve_plan();
        // Every dependency must sit at a strictly smaller position than
        // the row it feeds — that is the disjoint-write guarantee.
        for sweep in [&plan.fwd, &plan.bwd] {
            for p in 0..sweep.n() {
                for k in sweep.dep_ptr[p]..sweep.dep_ptr[p + 1] {
                    assert!(sweep.dep_pos[k] < p, "dependency not resolved before use");
                }
            }
            let (levels, widest) = (sweep.num_levels(), sweep.max_level_width());
            assert!(levels >= 1 && widest >= 1);
            assert_eq!(sweep.level_ptr[sweep.num_levels()], n);
        }
    }

    #[test]
    fn dependencies_stay_in_earlier_levels() {
        let a = laplace2d(6);
        let n = a.nrows();
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let plan = f.solve_plan();
        for sweep in [&plan.fwd, &plan.bwd] {
            let mut level_of_pos = vec![0usize; n];
            for l in 0..sweep.num_levels() {
                for p in sweep.level_ptr[l]..sweep.level_ptr[l + 1] {
                    level_of_pos[p] = l;
                }
            }
            for p in 0..n {
                for k in sweep.dep_ptr[p]..sweep.dep_ptr[p + 1] {
                    assert!(
                        level_of_pos[sweep.dep_pos[k]] < level_of_pos[p],
                        "level ordering violated"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_sweeps_match_serial_bit_for_bit() {
        let a = laplace2d(10); // 100 rows, below PAR_MIN_ROWS — force via larger grid
        let big = laplace2d(20); // 400 rows — exercises the threaded path
        for m in [a, big] {
            let n = m.nrows();
            let f = LuFactors::factorize(&m, &Perm::identity(n), &LuConfig::default()).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 29 % 13) as f64) - 6.0).collect();
            let mut scratch = TriScratch::new();
            let mut serial = vec![0.0; n];
            f.solve_into(&b, &mut serial, &mut scratch, 1);
            for w in [2usize, 3, 4, 7] {
                let mut par = vec![f64::NAN; n];
                f.solve_into(&b, &mut par, &mut scratch, w);
                assert_eq!(par, serial, "workers {w}, n {n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_counts_no_new_allocations() {
        let a = laplace2d(8);
        let n = a.nrows();
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut scratch = TriScratch::new();
        f.solve_into(&b, &mut x, &mut scratch, 1);
        let after_first = scratch.allocations();
        for _ in 0..5 {
            f.solve_into(&b, &mut x, &mut scratch, 1);
        }
        assert_eq!(
            scratch.allocations(),
            after_first,
            "steady-state solves must not grow the arena"
        );
        assert_eq!(scratch.resets(), 6);
    }
}
