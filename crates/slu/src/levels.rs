//! Level-scheduled triangular solves.
//!
//! A sparse triangular solve looks inherently sequential, but its
//! dependency DAG usually is not: row `i` of `L x = b` only needs the
//! entries `x[j]` with `L[i,j] ≠ 0`. Grouping rows by the length of
//! their longest dependency chain — *level scheduling* — gives the
//! sweep's level count and widths, which the solver reports as the
//! available parallelism of each factor.
//!
//! The plan is built **once at factorisation time** and flattened into
//! level order: position `p` of the execution vector holds one pivot
//! row, positions within a level are contiguous, and every dependency
//! of `p` lives at a strictly smaller position (an earlier level). A
//! sweep runs the positions in order on the calling thread, each
//! accumulation a fixed left-to-right pass over its dependency list.
//! The solve phase's threads come from groups of right-hand sides, one
//! worker per group, never from splitting a sweep: levels are short, and
//! a barrier per level cost more than the sweep itself.
//!
//! A sweep also carries several right-hand sides at once: with `W`
//! *lanes* the values live lane-interleaved (row `i` of lane `l` at
//! `i·W + l`), every dependency load fetches `W` contiguous values, and
//! one pass over the plan's index and value arrays serves all `W`
//! right-hand sides. Each lane performs exactly the operations of a
//! single sweep in the same order, so every lane is bit-identical to
//! solving its right-hand side alone.
//!
//! A sweep runs a list of position runs ([`PositionRuns`]); the full
//! sweep is the single run `0..n`. A caller whose right-hand side is
//! nonzero only on a few entries, and who reads only a few outputs, runs
//! the forward positions those entries reach
//! ([`SolvePlan::forward_reach`]) and the backward positions those
//! outputs depend on ([`SolvePlan::backward_closure`]), and gets the
//! outputs it reads bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};

use sparsekit::{Csc, Perm};

/// Flag bits of `forward_reach` and `backward_closure`: an index seeds the walk, or
/// a position is kept.
const SEED: u8 = 1;
const KEEP: u8 = 2;

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
#[derive(Clone, Debug, PartialEq)]
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

/// A subset of one sweep's positions, stored as ascending, disjoint
/// half-open runs `start..end` so that a restricted sweep pays per run,
/// not per position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PositionRuns {
    runs: Vec<(u32, u32)>,
    /// Dependency entries of the kept positions.
    deps: usize,
}

impl PositionRuns {
    /// Dependency entries the kept positions read — the work of a
    /// restricted sweep, against [`SolvePlan::dep_entries`] for a full
    /// one.
    pub fn dep_entries(&self) -> usize {
        self.deps
    }
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

    /// Runs the positions of `runs` on `W` lanes into `out` (position
    /// order) and zeroes every position between and after them; the
    /// full sweep is the single run `0..n`. `input` and `out` are
    /// lane-interleaved.
    ///
    /// The accumulation loop is lane-structured twice over: products are
    /// computed in fixed-width [`LANES`](sparsekit::lanes::LANES)
    /// batches of dependencies (the multiplies vectorize, the gathers
    /// pipeline), and each dependency load fetches the `W` right-hand
    /// sides side by side. Every lane's products are folded into its
    /// accumulator strictly left-to-right — the exact op sequence of the
    /// plain scalar loop, so results stay byte-identical.
    fn sweep<const W: usize>(&self, runs: &[(u32, u32)], input: &[f64], out: &mut [f64]) {
        use sparsekit::lanes::LANES;
        let load = |out: &[f64], p: usize| -> [f64; W] {
            out[p * W..p * W + W].try_into().expect("lane width")
        };
        let mut done = 0;
        for &(start, end) in runs {
            let (start, end) = (start as usize, end as usize);
            out[done * W..start * W].fill(0.0);
            for p in start..end {
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
                        let x = load(out, pp[k]);
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
                    let x = load(out, dp);
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
                out[p * W..p * W + W].copy_from_slice(&acc);
            }
            done = end;
        }
        out[done * W..self.n() * W].fill(0.0);
    }

    /// The positions flagged [`KEEP`] in `flags`, as runs (allocated
    /// once, at their exact count).
    fn runs_of(&self, flags: &[u8]) -> PositionRuns {
        let keep = |p: usize| flags[p] & KEEP != 0;
        let starts = (0..flags.len()).filter(|&p| keep(p) && (p == 0 || !keep(p - 1)));
        let mut out = PositionRuns {
            runs: Vec::with_capacity(starts.count()),
            deps: 0,
        };
        for p in (0..flags.len()).filter(|&p| keep(p)) {
            let p32 = u32::try_from(p).expect("sweep positions fit in u32");
            match out.runs.last_mut() {
                Some(run) if run.1 == p32 => run.1 += 1,
                _ => out.runs.push((p32, p32 + 1)),
            }
            out.deps += self.dep_ptr[p + 1] - self.dep_ptr[p];
        }
        out
    }

    /// The single run `0..n` of the full sweep.
    fn all(&self) -> [(u32, u32); 1] {
        let n = u32::try_from(self.n()).expect("sweep positions fit in u32");
        [(0, n)]
    }

    /// The fill visit of [`build_sweep`]: writes every entry of `m`'s
    /// triangle into its dependency slot or into `diag`, columns ascending,
    /// one cursor per row. Panics if the pattern is not the plan's: each
    /// written slot must depend on the visited column (folded into
    /// `differs`, so that no slot's load waits on a branch), and each
    /// cursor must end at its row's count.
    fn fill(&mut self, m: &Csc, upper: bool) {
        let LevelPlan {
            dep_ptr,
            dep_pos,
            dep_val,
            diag,
            pos,
            ..
        } = self;
        let mut cursor: Vec<usize> = pos.iter().map(|&p| dep_ptr[p]).collect();
        diag.fill(0.0);
        let mut differs = 0;
        for j in 0..pos.len() {
            let pj = pos[j];
            for (r, v) in triangle(m, upper, j) {
                if r == j {
                    if let Some(d) = diag.get_mut(pj) {
                        *d = v;
                    }
                    continue;
                }
                let s = cursor[r];
                cursor[r] = s + 1;
                differs |= dep_pos.get(s).map_or(usize::MAX, |&d| d ^ pj);
                if let Some(slot) = dep_val.get_mut(s) {
                    *slot = v;
                }
            }
        }
        let ends = pos.iter().map(|&p| dep_ptr[p + 1]);
        assert!(
            differs == 0 && ends.eq(cursor),
            "factor pattern differs from the plan's"
        );
    }
}

/// The full two-sweep (`L` then `U`) execution plan of an LU solve,
/// with the row/column permutations folded into the index maps. Two
/// plans are equal when every index and value is (values compared as
/// `f64`).
#[derive(Clone, Debug, PartialEq)]
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
        // Forward sweep: x[r] = (P b)[r] − Σ_{j<r} L[r,j]·x[j].
        let fwd = build_sweep(l, false, |k| row_perm.to_old(k));
        // Backward sweep: x[j] = (z[j] − Σ_{k>j} U[j,k]·x[k]) / U[j,j],
        // where z is the forward sweep's output (read in its position
        // order).
        let bwd = build_sweep(u, true, |j| fwd.pos[j]);
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
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], scratch: &mut TriScratch) {
        self.solve_lanes(&[b], &mut [x], scratch);
    }

    /// Solves `x[l] = Qᵀ U⁻¹ L⁻¹ P b[l]` for every lane `l`, sweeping up
    /// to [`MAX_LANES`] right-hand sides through one pass over the
    /// factors. Every `x[l]` is bit-identical to
    /// [`SolvePlan::solve_into`] on `b[l]` alone.
    pub fn solve_lanes(&self, b: &[&[f64]], x: &mut [&mut [f64]], scratch: &mut TriScratch) {
        self.solve_lanes_restricted(b, x, scratch, None, None);
    }

    /// [`SolvePlan::solve_lanes`] sweeping only the forward positions
    /// `fwd` and the backward positions `bwd` (`None`: every position).
    ///
    /// With `fwd` from [`SolvePlan::forward_reach`] of every input entry
    /// that may be nonzero, and `bwd` from [`SolvePlan::backward_closure`]
    /// of the outputs the caller reads, every read output is
    /// bit-identical to the full solve's, for finite factors: an
    /// unreached forward position would compute `+0.0 − Σ v·(±0.0)`,
    /// an exact `+0.0`, which is what the skipped position is left at;
    /// and a kept backward position reads only kept positions, with the
    /// same operations in the same order. Outputs outside `bwd` are
    /// zero.
    pub fn solve_lanes_restricted(
        &self,
        b: &[&[f64]],
        x: &mut [&mut [f64]],
        scratch: &mut TriScratch,
        fwd: Option<&PositionRuns>,
        bwd: Option<&PositionRuns>,
    ) {
        assert_eq!(b.len(), x.len());
        let (fwd_all, bwd_all) = (self.fwd.all(), self.bwd.all());
        let fwd = fwd.map_or(&fwd_all[..], |r| &r.runs);
        let bwd = bwd.map_or(&bwd_all[..], |r| &r.runs);
        for (bg, xg) in b.chunks(MAX_LANES).zip(x.chunks_mut(MAX_LANES)) {
            match bg.len() {
                1 => self.solve_group::<1>(bg, xg, scratch, fwd, bwd),
                2 => self.solve_group::<2>(bg, xg, scratch, fwd, bwd),
                3 | 4 => self.solve_group::<4>(bg, xg, scratch, fwd, bwd),
                _ => self.solve_group::<MAX_LANES>(bg, xg, scratch, fwd, bwd),
            }
        }
    }

    /// The forward positions whose output can be nonzero when only the
    /// input entries `seeds` are: the positions those entries seed and
    /// every position downstream of one.
    pub fn forward_reach(&self, seeds: impl IntoIterator<Item = usize>) -> PositionRuns {
        let sweep = &self.fwd;
        // One byte per index: `SEED` flags an input entry, `KEEP` a
        // position (both index ranges are `0..n`).
        let mut flags = vec![0u8; sweep.n()];
        for i in seeds {
            flags[i] |= SEED;
        }
        for p in 0..sweep.n() {
            let deps = &sweep.dep_pos[sweep.dep_ptr[p]..sweep.dep_ptr[p + 1]];
            if flags[sweep.rhs_src[p]] & SEED != 0 || deps.iter().any(|&d| flags[d] & KEEP != 0) {
                flags[p] |= KEEP;
            }
        }
        sweep.runs_of(&flags)
    }

    /// The backward positions the outputs `needs` (indices into the
    /// solution) depend on: their own positions and, transitively,
    /// every position they read.
    pub fn backward_closure(&self, needs: impl IntoIterator<Item = usize>) -> PositionRuns {
        let sweep = &self.bwd;
        // `SEED` flags a needed output, `KEEP` a position.
        let mut flags = vec![0u8; sweep.n()];
        for i in needs {
            flags[i] |= SEED;
        }
        for p in (0..sweep.n()).rev() {
            if flags[self.out_dst[p]] & SEED != 0 {
                flags[p] |= KEEP;
            }
            if flags[p] & KEEP != 0 {
                for &d in &sweep.dep_pos[sweep.dep_ptr[p]..sweep.dep_ptr[p + 1]] {
                    flags[d] |= KEEP;
                }
            }
        }
        sweep.runs_of(&flags)
    }

    /// Dependency entries of the full forward and backward sweeps.
    pub fn dep_entries(&self) -> (usize, usize) {
        (self.fwd.dep_pos.len(), self.bwd.dep_pos.len())
    }

    /// One group of at most `W` lanes through the runs `fwd` and `bwd`;
    /// missing lanes are swept as zeros.
    fn solve_group<const W: usize>(
        &self,
        b: &[&[f64]],
        x: &mut [&mut [f64]],
        scratch: &mut TriScratch,
        fwd: &[(u32, u32)],
        bwd: &[(u32, u32)],
    ) {
        let n = self.fwd.n();
        for (bl, xl) in b.iter().zip(x.iter()) {
            assert_eq!(bl.len(), n);
            assert_eq!(xl.len(), n);
        }
        scratch.prepare(n * W);
        let TriScratch { outer, mid, .. } = scratch;
        let mid = &mut mid[..n * W];
        // Lane-interleave the right-hand sides into `outer` (padding
        // lanes are zero); the backward sweep overwrites it once the
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
        self.fwd.sweep::<W>(fwd, input, mid);
        let out = &mut outer[..n * W];
        self.bwd.sweep::<W>(bwd, mid, out);
        // Scatter the lane-interleaved output into the caller's vectors.
        for (q, &dst) in self.out_dst.iter().enumerate() {
            for (l, xl) in x.iter_mut().enumerate() {
                xl[dst] = out[q * W + l];
            }
        }
    }

    /// Rewrites the plan's numeric payload (dependency values and `U`
    /// diagonal) from refactorised `L`/`U` with the same pattern. The
    /// schedule — levels, positions, dependency structure — is reused
    /// untouched, and the values are written by [`SolvePlan::build`]'s own
    /// fill visit: one ordered pass over each factor, no search. Panics if
    /// a factor's pattern differs from the plan's.
    pub fn refresh_numeric(&mut self, l: &Csc, u: &Csc) {
        self.fwd.fill(l, false);
        self.bwd.fill(u, true);
    }
}

/// Reusable buffers for [`SolvePlan::solve_lanes`]. One instance per
/// concurrently-solving caller; after the first solve of a given size
/// and lane width, subsequent solves allocate nothing (see
/// [`TriScratch::allocations`]).
#[derive(Debug, Default)]
pub struct TriScratch {
    /// The lane-interleaved right-hand sides, then the backward sweep's
    /// output.
    outer: Vec<f64>,
    /// Forward sweep output, input of the backward sweep.
    mid: Vec<f64>,
    allocations: u64,
    resets: u64,
}

impl TriScratch {
    /// Fresh, empty scratch.
    pub fn new() -> TriScratch {
        TriScratch::default()
    }

    fn prepare(&mut self, len: usize) {
        self.resets += 1;
        let mut grew = false;
        for v in [&mut self.outer, &mut self.mid] {
            if v.len() < len {
                v.resize(len, 0.0);
                grew = true;
            }
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

/// The entries `(row, value)` of column `j` inside the triangle of `m` a
/// sweep reads, diagonal included: the upper one for the backward sweep,
/// the lower one for the forward sweep.
fn triangle(m: &Csc, upper: bool, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    m.col_iter(j)
        .filter(move |&(r, _)| if upper { r <= j } else { r >= j })
}

/// Builds one level-scheduled sweep of `m`'s upper or lower triangle.
///
/// Row `r` depends on column `c` for every off-diagonal entry `(r, c)`;
/// the columns are visited in ascending order, so each row's dependency
/// list comes out sorted by column — the fixed accumulation order. The
/// upper triangle's chains run from high indices down, with its diagonal
/// as divisors; the lower one's run up over a unit diagonal. `rhs_of`
/// maps a pivot row to the index of its seed in the sweep's input
/// vector. The values are written last, by [`LevelPlan::fill`].
fn build_sweep(m: &Csc, upper: bool, rhs_of: impl Fn(usize) -> usize) -> LevelPlan {
    let n = m.ncols();
    let deps = |j| {
        triangle(m, upper, j)
            .map(|(r, _)| r)
            .filter(move |&r| r != j)
    };
    // --- Row-major dependency lists (two-pass CSR build). ---
    let mut cnt = vec![0usize; n];
    for j in 0..n {
        deps(j).for_each(|r| cnt[r] += 1);
    }
    let mut row_ptr = vec![0usize; n + 1];
    for i in 0..n {
        row_ptr[i + 1] = row_ptr[i] + cnt[i];
    }
    let nnz = row_ptr[n];
    let mut row_col = vec![0usize; nnz];
    let mut next = row_ptr.clone();
    for j in 0..n {
        for r in deps(j) {
            row_col[next[r]] = j;
            next[r] += 1;
        }
    }
    // --- Levels: longest dependency chain. ---
    let mut level = vec![0usize; n];
    let rows: Box<dyn Iterator<Item = usize>> = if upper {
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
    for p in 0..n {
        let r = order[p];
        for (d, k) in (dep_ptr[p]..).zip(row_ptr[r]..row_ptr[r + 1]) {
            dep_pos[d] = pos[row_col[k]];
        }
    }
    let mut plan = LevelPlan {
        level_ptr,
        rhs_src: order.iter().map(|&r| rhs_of(r)).collect(),
        dep_ptr,
        dep_pos,
        dep_val: vec![0.0; nnz],
        diag: if upper { vec![0.0; n] } else { Vec::new() },
        order,
        pos,
    };
    plan.fill(m, upper);
    plan
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
    fn lane_sweeps_match_single_sweeps_bit_for_bit() {
        // A domain-like factor, and the same matrix with the dense
        // kernel forced from the middle on: a dense tail like the one
        // LU(S̃) of a cavity has.
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
            let mut scratch = TriScratch::new();
            // 3 and 5 are partial groups padded to 4 and 8 lanes; 17 is
            // two full groups and a single lane.
            for lanes in [1, 2, 3, 5, MAX_LANES, 2 * MAX_LANES + 1] {
                let b: Vec<&[f64]> = bs[..lanes].iter().map(Vec::as_slice).collect();
                let mut xs = vec![vec![f64::NAN; n]; lanes];
                let mut x: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
                f.solve_lanes(&b, &mut x, &mut scratch);
                for (l, (got, want)) in xs.iter().zip(&single).enumerate() {
                    assert_eq!(bits(got), bits(want), "lane {l} of {lanes}");
                }
            }
        }
    }

    /// A random unsymmetric sparse matrix with a dominant diagonal.
    fn random_matrix(rng: &mut sparsekit::Rng64, n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 8.0 + rng.f64());
            for _ in 0..3 {
                let j = rng.below(n);
                if j != i {
                    c.push(i, j, rng.f64_range(-1.0, 1.0));
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn restricted_sweeps_keep_the_full_sweeps_bits() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = sparsekit::Rng64::new(0x5eed);
        for trial in 0..10 {
            let n = rng.range(2, 160);
            let a = random_matrix(&mut rng, n);
            let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
            let plan = f.solve_plan();
            let mut subset =
                |share: f64| -> Vec<usize> { (0..n).filter(|_| rng.f64() < share).collect() };
            let sets = [
                Vec::new(),
                (0..n).collect(),
                vec![n / 2],
                subset(0.05),
                subset(0.3),
            ];
            let (fwd_all, bwd_all) = plan.dep_entries();
            assert_eq!(plan.forward_reach(0..n).dep_entries(), fwd_all);
            assert_eq!(plan.backward_closure(0..n).dep_entries(), bwd_all);
            assert!(plan.forward_reach([]).runs.is_empty());
            for (s, seeds) in sets.iter().enumerate() {
                for (t, needs) in sets.iter().enumerate() {
                    let fwd = plan.forward_reach(seeds.iter().copied());
                    let bwd = plan.backward_closure(needs.iter().copied());
                    // The solution indices the backward runs produce.
                    let mut kept = vec![false; n];
                    for &(start, end) in &bwd.runs {
                        for p in start as usize..end as usize {
                            kept[plan.out_dst[p]] = true;
                        }
                    }
                    assert!(needs.iter().all(|&i| kept[i]));
                    for w in [1, 2, 4, 8] {
                        let what = format!("trial {trial}, seeds {s}, needs {t}, {w} lanes");
                        let bs: Vec<Vec<f64>> = (0..w)
                            .map(|_| {
                                let mut b = vec![0.0; n];
                                for &i in seeds {
                                    b[i] = rng.f64_range(-2.0, 2.0);
                                }
                                b
                            })
                            .collect();
                        let b: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
                        let solve = |fwd: Option<&PositionRuns>, bwd: Option<&PositionRuns>| {
                            let mut xs = vec![vec![f64::NAN; n]; w];
                            let mut x: Vec<&mut [f64]> =
                                xs.iter_mut().map(Vec::as_mut_slice).collect();
                            let mut scratch = TriScratch::new();
                            plan.solve_lanes_restricted(&b, &mut x, &mut scratch, fwd, bwd);
                            xs
                        };
                        let full = solve(None, None);
                        // Skipping unreached forward positions alone
                        // changes no output bit.
                        for (got, want) in solve(Some(&fwd), None).iter().zip(&full) {
                            assert_eq!(bits(got), bits(want), "{what}: forward runs");
                        }
                        for (got, want) in solve(Some(&fwd), Some(&bwd)).iter().zip(&full) {
                            for i in 0..n {
                                let want = if kept[i] { want[i] } else { 0.0 };
                                assert_eq!(got[i].to_bits(), want.to_bits(), "{what}: x[{i}]");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every field of the two plans, values compared bit for bit.
    fn assert_same_plan(got: &SolvePlan, want: &SolvePlan, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (g, w) in [(&got.fwd, &want.fwd), (&got.bwd, &want.bwd)] {
            assert_eq!(g.level_ptr, w.level_ptr, "{what}: level_ptr");
            assert_eq!(g.rhs_src, w.rhs_src, "{what}: rhs_src");
            assert_eq!(g.dep_ptr, w.dep_ptr, "{what}: dep_ptr");
            assert_eq!(g.dep_pos, w.dep_pos, "{what}: dep_pos");
            assert_eq!(g.order, w.order, "{what}: order");
            assert_eq!(g.pos, w.pos, "{what}: pos");
            assert_eq!(bits(&g.dep_val), bits(&w.dep_val), "{what}: dep_val");
            assert_eq!(bits(&g.diag), bits(&w.diag), "{what}: diag");
        }
        assert_eq!(got.out_dst, want.out_dst, "{what}: out_dst");
    }

    /// `a`'s pattern with every value drifted, and the lower entries
    /// `(r, c)` with `(r + c) % 3 == 0` set to an explicit zero when
    /// `zeros` holds (each then leaves an explicit zero in `L`).
    fn drifted(a: &Csr, zeros: bool) -> Csr {
        let mut c = Coo::new(a.nrows(), a.ncols());
        for r in 0..a.nrows() {
            for (col, v) in a.row_iter(r) {
                let v = if zeros && col < r && (r + col) % 3 == 0 {
                    0.0
                } else {
                    v * (1.0 + 1e-3 * ((r * 7 + col * 3) % 11) as f64)
                };
                c.push(r, col, v);
            }
        }
        c.to_csr()
    }

    #[test]
    fn refreshed_plans_equal_fresh_builds_bit_for_bit() {
        let mut rng = sparsekit::Rng64::new(0xf111);
        let cfg = LuConfig::default();
        let budget = sparsekit::Budget::unlimited();
        let mut cases: Vec<(String, Csr, Option<usize>, bool)> = (0..12)
            .map(|t| {
                let n = rng.range(1, 140);
                (
                    format!("random {t} (n = {n})"),
                    random_matrix(&mut rng, n),
                    None,
                    false,
                )
            })
            .collect();
        let a = laplace2d(12);
        let n = a.nrows();
        cases.push(("dense tail".into(), a.clone(), Some(n / 2), false));
        cases.push(("dense from step 0".into(), a.clone(), Some(0), false));
        cases.push(("explicit zeros in L".into(), a.clone(), None, true));
        cases.push(("dense tail, explicit zeros".into(), a, Some(n / 3), true));
        for (what, a, dense_at, zeros) in &cases {
            let n = a.nrows();
            let mut f =
                LuFactors::factorize_at(a, &Perm::identity(n), &cfg, &budget, *dense_at).unwrap();
            let stale = f.solve_plan().clone();
            f.refactorize(&drifted(a, *zeros)).unwrap();
            if *zeros {
                assert!(
                    f.l.values().contains(&0.0),
                    "{what}: L keeps an explicit zero"
                );
            }
            let built = SolvePlan::build(&f.l, &f.u, &f.row_perm, &f.col_perm);
            assert_same_plan(f.solve_plan(), &built, what);
            let mut refreshed = stale;
            refreshed.refresh_numeric(&f.l, &f.u);
            assert_same_plan(&refreshed, &built, what);
        }
        // A `U` without a stored diagonal entry gets the zero divisor a
        // build gives it, not the stale one.
        let a = laplace2d(5);
        let f = LuFactors::factorize(&a, &Perm::identity(25), &cfg).unwrap();
        let mut u = Coo::new(25, 25);
        for c in 0..25 {
            for (r, v) in f.u.col_iter(c).filter(|&(r, _)| (r, c) != (7, 7)) {
                u.push(r, c, v);
            }
        }
        let u = u.to_csr().to_csc();
        let mut refreshed = f.solve_plan().clone();
        refreshed.refresh_numeric(&f.l, &u);
        let built = SolvePlan::build(&f.l, &u, &f.row_perm, &f.col_perm);
        assert_same_plan(&refreshed, &built, "U without a diagonal entry");
    }

    #[test]
    fn refresh_from_a_foreign_pattern_panics() {
        let n = 40;
        let a = random_matrix(&mut sparsekit::Rng64::new(0xd1f7), n);
        let f = LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap();
        let plan = f.solve_plan().clone();
        let l_entries: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|c| f.l.col_iter(c).map(move |(r, v)| (r, c, v)))
            .collect();
        let lower = |entries: &[(usize, usize, f64)]| {
            let mut c = Coo::new(n, n);
            entries.iter().for_each(|&(r, col, v)| c.push(r, col, v));
            c.to_csr().to_csc()
        };
        let has = |r: usize, c: usize| l_entries.iter().any(|e| (e.0, e.1) == (r, c));
        let off = || l_entries.iter().enumerate().filter(|(_, e)| e.0 > e.1);
        // One dependency more, one fewer, and two that trade columns:
        // every row and column keeps its count, so only the check that a
        // slot depends on the visited column can see it.
        let hole = (1..n)
            .flat_map(|r| (0..r).map(move |c| (r, c)))
            .find(|&(r, c)| !has(r, c))
            .expect("L has a hole");
        let more = [l_entries.clone(), vec![(hole.0, hole.1, -0.5)]].concat();
        // The dependency with the largest column is its row's last: every
        // slot still written is right, only a cursor ends short.
        let (last, _) = off().max_by_key(|(_, e)| e.1).expect("L has a dependency");
        let mut fewer = l_entries.clone();
        fewer.remove(last);
        let (s, t) = off()
            .flat_map(|(s, &(r1, c1, _))| {
                off().map(move |(t, &(r2, c2, _))| (s, t, r1, c1, r2, c2))
            })
            .find(|&(_, _, r1, c1, r2, c2)| {
                r1 != r2 && c1 != c2 && r1 > c2 && r2 > c1 && !has(r1, c2) && !has(r2, c1)
            })
            .map(|(s, t, ..)| (s, t))
            .expect("two entries that can trade columns");
        let mut traded = l_entries.clone();
        let (c1, c2) = (traded[s].1, traded[t].1);
        (traded[s].1, traded[t].1) = (c2, c1);
        for l in [lower(&more), lower(&fewer), lower(&traded)] {
            let (mut stale, u) = (plan.clone(), f.u.clone());
            let err = std::panic::catch_unwind(move || stale.refresh_numeric(&l, &u))
                .expect_err("a foreign pattern must not refresh");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(msg.contains("factor pattern differs"), "{msg}");
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
