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
//! A sweep also carries several right-hand sides at once: with `W`
//! *lanes* the values live lane-interleaved (row `i` of lane `l` at
//! `i·W + l`), every dependency load fetches `W` contiguous values, and
//! one pass over the plan's index and value arrays serves all `W`
//! right-hand sides. Each lane performs exactly the operations of a
//! single sweep in the same order, so every lane is bit-identical to
//! solving its right-hand side alone.
//!
//! Values live in plain `f64` cells when one thread runs the sweep and
//! in `AtomicU64` bit-casts (relaxed ordering) only when a level is
//! split across threads; the inter-level spin barrier provides the
//! happens-before edges. Relaxed atomic loads do not vectorise, so the
//! serial path must not pay for them. This keeps the crate free of
//! `unsafe` while compiling to plain loads and stores on mainstream
//! targets.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sparsekit::{Csc, Perm};

/// Below this many rows a solve runs serially even when workers were
/// requested: spawning scoped threads costs more than the sweep itself.
const PAR_MIN_ROWS: usize = 256;

/// Widest group of right-hand sides one sweep carries. A wider batch is
/// swept in groups of this many; a narrower group is padded with zero
/// lanes up to the next width in 1, 2, 4, 8.
pub const MAX_LANES: usize = 8;

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

    /// Runs positions `a..b` of the sweep on `W` lanes. All
    /// dependencies live at positions `< a` or were produced by this
    /// same call; `input` and `out` are lane-interleaved.
    ///
    /// The accumulation loop is lane-structured twice over: products are
    /// computed in fixed-width [`LANES`](sparsekit::lanes::LANES)
    /// batches of dependencies (the multiplies vectorize, the gathers
    /// pipeline), and each dependency load fetches the `W` right-hand
    /// sides side by side. Every lane's products are folded into its
    /// accumulator strictly left-to-right — the exact op sequence of the
    /// plain scalar loop, so results stay byte-identical.
    #[inline]
    fn run_range<const W: usize, C: Cells + ?Sized>(
        &self,
        a: usize,
        b: usize,
        input: &[f64],
        out: &C,
    ) {
        use sparsekit::lanes::LANES;
        for p in a..b {
            let src = self.rhs_src[p] * W;
            let mut acc: [f64; W] = input[src..src + W].try_into().expect("lane width");
            let deps = self.dep_ptr[p]..self.dep_ptr[p + 1];
            let dep_pos = &self.dep_pos[deps.clone()];
            let dep_val = &self.dep_val[deps];
            let mut cp = dep_pos.chunks_exact(LANES);
            let mut cv = dep_val.chunks_exact(LANES);
            for (pp, vv) in (&mut cp).zip(&mut cv) {
                let mut prod = [[0f64; W]; LANES];
                for k in 0..LANES {
                    let x = out.load::<W>(pp[k]);
                    for l in 0..W {
                        prod[k][l] = vv[k] * x[l];
                    }
                }
                for pr in prod {
                    for l in 0..W {
                        acc[l] -= pr[l];
                    }
                }
            }
            for (&dp, &dv) in cp.remainder().iter().zip(cv.remainder()) {
                let x = out.load::<W>(dp);
                for l in 0..W {
                    acc[l] -= dv * x[l];
                }
            }
            if !self.diag.is_empty() {
                let d = self.diag[p];
                for v in &mut acc {
                    *v /= d;
                }
            }
            out.store::<W>(p, acc);
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

    /// Executes the sweep on the calling thread into `out` (position
    /// order, lane-interleaved, plain `f64` storage).
    fn sweep_serial<const W: usize>(&self, input: &[f64], out: &mut [f64]) {
        let cells = Cell::from_mut(out).as_slice_of_cells();
        self.run_range::<W, _>(0, self.n(), input, cells);
    }

    /// Executes the sweep into `out` with each level split across
    /// `workers` scoped threads and a spin barrier between levels. Every
    /// position performs the same arithmetic in the same order as in
    /// [`LevelPlan::sweep_serial`], so the results are byte-identical.
    fn sweep_parallel<const W: usize>(&self, input: &[f64], out: &[AtomicU64], workers: usize) {
        let barrier = SpinBarrier::new(workers);
        let nlevels = self.num_levels();
        std::thread::scope(|sc| {
            for t in 0..workers {
                let barrier = &barrier;
                sc.spawn(move || {
                    for l in 0..nlevels {
                        let (a, b) = self.worker_range(l, t, workers);
                        self.run_range::<W, _>(a, b, input, out);
                        barrier.wait();
                    }
                });
            }
        });
    }
}

/// Lane-interleaved value storage of a sweep's output: position `p`
/// holds its `W` lanes at `p·W..p·W + W`.
trait Cells {
    fn load<const W: usize>(&self, p: usize) -> [f64; W];
    fn store<const W: usize>(&self, p: usize, v: [f64; W]);
}

/// Serial storage: plain loads and stores, which vectorize across lanes.
impl Cells for [Cell<f64>] {
    #[inline(always)]
    fn load<const W: usize>(&self, p: usize) -> [f64; W] {
        let s: &[Cell<f64>; W] = self[p * W..p * W + W].try_into().expect("lane width");
        std::array::from_fn(|l| s[l].get())
    }

    #[inline(always)]
    fn store<const W: usize>(&self, p: usize, v: [f64; W]) {
        let s: &[Cell<f64>; W] = self[p * W..p * W + W].try_into().expect("lane width");
        for (c, x) in s.iter().zip(v) {
            c.set(x);
        }
    }
}

/// Shared storage of a level split across threads: relaxed bit-casts.
impl Cells for [AtomicU64] {
    #[inline(always)]
    fn load<const W: usize>(&self, p: usize) -> [f64; W] {
        let s: &[AtomicU64; W] = self[p * W..p * W + W].try_into().expect("lane width");
        std::array::from_fn(|l| f64::from_bits(s[l].load(Ordering::Relaxed)))
    }

    #[inline(always)]
    fn store<const W: usize>(&self, p: usize, v: [f64; W]) {
        let s: &[AtomicU64; W] = self[p * W..p * W + W].try_into().expect("lane width");
        for (c, x) in s.iter().zip(v) {
            c.store(x.to_bits(), Ordering::Relaxed);
        }
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
    /// The one-lane instance of [`SolvePlan::solve_lanes`].
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut TriScratch, workers: usize) {
        self.solve_lanes(&[b], &mut [x], scratch, workers);
    }

    /// Solves `x[l] = Qᵀ U⁻¹ L⁻¹ P b[l]` for every lane `l`, sweeping up
    /// to [`MAX_LANES`] right-hand sides through one pass over the
    /// factors. Every `x[l]` is bit-identical to
    /// [`SolvePlan::solve_into`] on `b[l]` alone, for every `workers`
    /// value.
    pub fn solve_lanes(
        &self,
        b: &[&[f64]],
        x: &mut [&mut [f64]],
        scratch: &mut TriScratch,
        workers: usize,
    ) {
        assert_eq!(b.len(), x.len());
        for (bg, xg) in b.chunks(MAX_LANES).zip(x.chunks_mut(MAX_LANES)) {
            match bg.len() {
                1 => self.solve_group::<1>(bg, xg, scratch, workers),
                2 => self.solve_group::<2>(bg, xg, scratch, workers),
                3 | 4 => self.solve_group::<4>(bg, xg, scratch, workers),
                _ => self.solve_group::<MAX_LANES>(bg, xg, scratch, workers),
            }
        }
    }

    /// One group of at most `W` lanes; missing lanes are swept as zeros.
    fn solve_group<const W: usize>(
        &self,
        b: &[&[f64]],
        x: &mut [&mut [f64]],
        scratch: &mut TriScratch,
        workers: usize,
    ) {
        let n = self.fwd.n();
        for (bl, xl) in b.iter().zip(x.iter()) {
            assert_eq!(bl.len(), n);
            assert_eq!(xl.len(), n);
        }
        let parallel = workers > 1 && n >= PAR_MIN_ROWS;
        // A parallel one-lane sweep reads `b` and writes `bits` only.
        scratch.prepare(n * W, W > 1 || !parallel, parallel);
        let TriScratch {
            outer, mid, bits, ..
        } = scratch;
        let mid = &mut mid[..n * W];
        // Lane-interleave the right-hand sides into `outer` (padding
        // lanes are zero); a serial backward sweep overwrites it once the
        // forward sweep has read it.
        let input: &[f64] = if W == 1 {
            b[0]
        } else {
            let packed = &mut outer[..n * W];
            for (i, row) in packed.chunks_exact_mut(W).enumerate() {
                for (l, slot) in row.iter_mut().enumerate() {
                    *slot = b.get(l).map_or(0.0, |bl| bl[i]);
                }
            }
            packed
        };
        if parallel {
            let bits = &bits[..n * W];
            self.fwd.sweep_parallel::<W>(input, bits, workers);
            for (m, bit) in mid.iter_mut().zip(bits) {
                *m = f64::from_bits(bit.load(Ordering::Relaxed));
            }
            self.bwd.sweep_parallel::<W>(mid, bits, workers);
            self.scatter::<W>(|q| f64::from_bits(bits[q].load(Ordering::Relaxed)), x);
        } else {
            self.fwd.sweep_serial::<W>(input, mid);
            let out = &mut outer[..n * W];
            self.bwd.sweep_serial::<W>(mid, out);
            self.scatter::<W>(|q| out[q], x);
        }
    }

    /// Scatters the backward sweep's lane-interleaved output into the
    /// caller's vectors.
    #[inline]
    fn scatter<const W: usize>(&self, get: impl Fn(usize) -> f64, x: &mut [&mut [f64]]) {
        for (q, &dst) in self.out_dst.iter().enumerate() {
            for (l, xl) in x.iter_mut().enumerate() {
                xl[dst] = get(q * W + l);
            }
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

/// Reusable buffers for [`SolvePlan::solve_lanes`]. One instance per
/// concurrently-solving caller; after the first solve of a given size
/// and lane width, subsequent solves allocate nothing (see
/// [`TriScratch::allocations`]). `bits` is grown only by sweeps split
/// across threads.
#[derive(Debug, Default)]
pub struct TriScratch {
    /// The lane-interleaved right-hand sides, then the backward sweep's
    /// output (serial).
    outer: Vec<f64>,
    /// Forward sweep output, input of the backward sweep.
    mid: Vec<f64>,
    /// Sweep output shared between threads.
    bits: Vec<AtomicU64>,
    allocations: u64,
    resets: u64,
}

impl TriScratch {
    /// Fresh, empty scratch.
    pub fn new() -> TriScratch {
        TriScratch::default()
    }

    fn prepare(&mut self, len: usize, outer: bool, parallel: bool) {
        self.resets += 1;
        let mut grew = false;
        for (v, needed) in [(&mut self.outer, outer), (&mut self.mid, true)] {
            if needed && v.len() < len {
                v.resize(len, 0.0);
                grew = true;
            }
        }
        if parallel && self.bits.len() < len {
            self.bits.resize_with(len, || AtomicU64::new(0));
            grew = true;
        }
        if grew {
            self.allocations += 1;
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
    fn lane_sweeps_match_single_sweeps_bit_for_bit() {
        // A domain-like factor, and the same matrix with the dense
        // kernel forced from the middle on: a dense tail like the one
        // LU(S̃) of a cavity has. 400 rows, so workers = 2 splits levels.
        let a = laplace2d(20);
        let n = a.nrows();
        let (order, cfg) = (Perm::identity(n), LuConfig::default());
        let domain = LuFactors::factorize(&a, &order, &cfg).unwrap();
        let budget = sparsekit::Budget::unlimited();
        let dense_tail = LuFactors::factorize_at(&a, &order, &cfg, &budget, Some(n / 2)).unwrap();
        assert!(dense_tail.dense_start() < n);
        let bs: Vec<Vec<f64>> = (0..2 * MAX_LANES + 1)
            .map(|s| {
                (0..n)
                    .map(|i| ((i * 29 + s * 11) % 17) as f64 - 8.0)
                    .collect()
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for f in [&domain, &dense_tail] {
            let single: Vec<Vec<f64>> = bs.iter().map(|b| f.solve(b)).collect();
            for workers in [1usize, 2] {
                let mut scratch = TriScratch::new();
                // 3 and 5 are partial groups padded to 4 and 8 lanes;
                // 17 is two full groups and a single lane.
                for lanes in [1, 2, 3, 5, MAX_LANES, 2 * MAX_LANES + 1] {
                    let b: Vec<&[f64]> = bs[..lanes].iter().map(Vec::as_slice).collect();
                    let mut xs = vec![vec![f64::NAN; n]; lanes];
                    let mut x: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
                    f.solve_lanes(&b, &mut x, &mut scratch, workers);
                    for (l, (got, want)) in xs.iter().zip(&single).enumerate() {
                        assert_eq!(
                            bits(got),
                            bits(want),
                            "lane {l} of {lanes}, workers {workers}"
                        );
                    }
                }
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
