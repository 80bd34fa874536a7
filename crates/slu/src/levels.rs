//! Triangular solves in pivot order.
//!
//! An LU solve `x = Qᵀ U⁻¹ L⁻¹ P b` is two sweeps, forward through `L`
//! and backward through `U`. The plan flattens each sweep **once**, at
//! the factor's first solve, into its execution order: forward position
//! `p` is pivot row `p`, backward position `p` is pivot row `n − 1 − p`.
//! Both sweeps run their positions in ascending order, every dependency
//! of a position sits at a strictly smaller one, and consecutive
//! positions read neighbouring rows of the factor. A sweep runs on the
//! calling thread, each accumulation a fixed left-to-right pass over its
//! dependency list (columns ascending). The solve phase's threads come
//! from groups of right-hand sides, one worker per group, never from
//! splitting a sweep.
//!
//! Level scheduling — grouping rows by the length of their longest
//! dependency chain — is the order a sweep split across threads would
//! run in. No sweep is split, so the level count and widest level are
//! only reported, as the available parallelism of each factor
//! ([`SolvePlan::forward_levels`], [`SolvePlan::backward_levels`]),
//! computed on demand in one pass over the dependencies.
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

/// One triangular sweep in execution order: the forward sweep (`UPPER`
/// false) runs the rows of unit lower `L` ascending, the backward sweep
/// (`UPPER` true) the rows of `U` descending. The `UPPER` parameter of
/// the methods says which one `self` is.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SweepPlan {
    /// Index in the forward sweep's input vector (the caller's `b`) that
    /// seeds each position's accumulation. Empty for the backward sweep,
    /// whose position `p` is seeded by the forward output's `n − 1 − p`.
    pub(crate) rhs_src: Vec<usize>,
    /// Dependency lists, CSR-like: position `p` reads the already-solved
    /// positions `dep_pos[dep_ptr[p]..dep_ptr[p + 1]]` scaled by
    /// `dep_val[..]`. Every dependency sits at a strictly smaller
    /// position.
    pub(crate) dep_ptr: Vec<usize>,
    pub(crate) dep_pos: Vec<u32>,
    pub(crate) dep_val: Vec<f64>,
    /// Diagonal divisor per position; empty for the unit-diagonal
    /// forward sweep.
    pub(crate) diag: Vec<f64>,
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

    /// Number of runs — the restricted sweep's overhead, paid once per
    /// run.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// Position of pivot row `r` in a sweep over `n` rows.
fn position<const UPPER: bool>(n: usize, r: usize) -> usize {
    if UPPER {
        n - 1 - r
    } else {
        r
    }
}

impl SweepPlan {
    /// Number of rows in the sweep.
    fn n(&self) -> usize {
        self.dep_ptr.len() - 1
    }

    /// The dependency positions of position `p`.
    fn deps(&self, p: usize) -> &[u32] {
        &self.dep_pos[self.dep_ptr[p]..self.dep_ptr[p + 1]]
    }

    /// `(levels, widest level)`: the longest dependency chain, and the
    /// most positions that share a chain length — the parallelism a
    /// level-split sweep would have.
    fn level_stats(&self) -> (usize, usize) {
        let mut level = vec![0usize; self.n()];
        let mut width: Vec<usize> = Vec::new();
        for p in 0..self.n() {
            let l = self.deps(p).iter().map(|&d| level[d as usize] + 1).max();
            level[p] = l.unwrap_or(0);
            if level[p] == width.len() {
                width.push(0);
            }
            width[level[p]] += 1;
        }
        (width.len(), width.into_iter().max().unwrap_or(0))
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
    fn sweep<const W: usize, const UPPER: bool>(
        &self,
        runs: &[(u32, u32)],
        input: &[f64],
        out: &mut [f64],
    ) {
        use sparsekit::lanes::LANES;
        let load = |out: &[f64], p: u32| -> [f64; W] {
            let p = p as usize;
            out[p * W..p * W + W].try_into().expect("lane width")
        };
        let n = self.n();
        let mut done = 0;
        for &(start, end) in runs {
            let (start, end) = (start as usize, end as usize);
            out[done * W..start * W].fill(0.0);
            for p in start..end {
                let src = if UPPER { n - 1 - p } else { self.rhs_src[p] } * W;
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
                if UPPER {
                    let d = self.diag[p];
                    for v in &mut acc {
                        *v /= d;
                    }
                }
                out[p * W..p * W + W].copy_from_slice(&acc);
            }
            done = end;
        }
        out[done * W..n * W].fill(0.0);
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
    /// one cursor per position. Panics if the pattern is not the plan's:
    /// each written slot must depend on the visited column (folded into
    /// `differs`, so that no slot's load waits on a branch), and each
    /// cursor must end at its position's count.
    fn fill<const UPPER: bool>(&mut self, m: &Csc) {
        let n = self.n();
        let SweepPlan {
            dep_ptr,
            dep_pos,
            dep_val,
            diag,
            ..
        } = self;
        let mut cursor = dep_ptr[..n].to_vec();
        diag.fill(0.0);
        let mut differs = 0;
        for j in 0..n {
            let pj = position::<UPPER>(n, j);
            for (r, v) in triangle::<UPPER>(m, j) {
                if r == j {
                    if let Some(d) = diag.get_mut(pj) {
                        *d = v;
                    }
                    continue;
                }
                let c = &mut cursor[position::<UPPER>(n, r)];
                let s = *c;
                *c += 1;
                differs |= dep_pos.get(s).map_or(u32::MAX, |&d| d ^ pj as u32);
                if let Some(slot) = dep_val.get_mut(s) {
                    *slot = v;
                }
            }
        }
        assert!(
            differs == 0 && dep_ptr[1..] == cursor[..],
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
    pub(crate) fwd: SweepPlan,
    pub(crate) bwd: SweepPlan,
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
        let fwd = build_sweep::<false>(l, (0..n).map(|r| row_perm.to_old(r)).collect());
        // Backward sweep: x[j] = (z[j] − Σ_{k>j} U[j,k]·x[k]) / U[j,j],
        // where z is the forward sweep's output.
        let bwd = build_sweep::<true>(u, Vec::new());
        let out_dst = (0..n).rev().map(|j| col_perm.to_old(j)).collect();
        SolvePlan { fwd, bwd, out_dst }
    }

    /// Forward (`L`) sweep statistics: `(levels, widest level)`.
    pub fn forward_levels(&self) -> (usize, usize) {
        self.fwd.level_stats()
    }

    /// Backward (`U`) sweep statistics: `(levels, widest level)`.
    pub fn backward_levels(&self) -> (usize, usize) {
        self.bwd.level_stats()
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
            if flags[sweep.rhs_src[p]] & SEED != 0
                || sweep.deps(p).iter().any(|&d| flags[d as usize] & KEEP != 0)
            {
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
                for &d in sweep.deps(p) {
                    flags[d as usize] |= KEEP;
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
        self.fwd.sweep::<W, false>(fwd, input, mid);
        let out = &mut outer[..n * W];
        self.bwd.sweep::<W, true>(bwd, mid, out);
        // Scatter the lane-interleaved output into the caller's vectors.
        for (q, &dst) in self.out_dst.iter().enumerate() {
            for (l, xl) in x.iter_mut().enumerate() {
                xl[dst] = out[q * W + l];
            }
        }
    }

    /// Rewrites the plan's numeric payload (dependency values and `U`
    /// diagonal) from refactorised `L`/`U` with the same pattern. The
    /// positions and dependency structure are reused untouched, and the
    /// values are written by [`SolvePlan::build`]'s own fill visit: one
    /// ordered pass over each factor, no search. Panics if a factor's
    /// pattern differs from the plan's.
    pub fn refresh_numeric(&mut self, l: &Csc, u: &Csc) {
        self.fwd.fill::<false>(l);
        self.bwd.fill::<true>(u);
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
fn triangle<const UPPER: bool>(m: &Csc, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    m.col_iter(j)
        .filter(move |&(r, _)| if UPPER { r <= j } else { r >= j })
}

/// Builds one sweep of `m`'s upper or lower triangle in execution order.
///
/// Row `r` depends on column `c` for every off-diagonal entry `(r, c)`;
/// the columns are visited in ascending order, so each row's dependency
/// list comes out sorted by column — the fixed accumulation order. The
/// upper triangle's chains run from high indices down, with its diagonal
/// as divisors; the lower one's run up over a unit diagonal. `rhs_src`
/// is the forward sweep's seed index per position. The values are
/// written last, by [`SweepPlan::fill`].
fn build_sweep<const UPPER: bool>(m: &Csc, rhs_src: Vec<usize>) -> SweepPlan {
    let n = m.ncols();
    assert!(u32::try_from(n).is_ok(), "sweep positions fit in u32");
    let deps = |j| triangle::<UPPER>(m, j).filter(move |&(r, _)| r != j);
    let mut dep_ptr = vec![0usize; n + 1];
    for j in 0..n {
        deps(j).for_each(|(r, _)| dep_ptr[position::<UPPER>(n, r) + 1] += 1);
    }
    for p in 0..n {
        dep_ptr[p + 1] += dep_ptr[p];
    }
    let mut cursor = dep_ptr[..n].to_vec();
    let mut dep_pos = vec![0u32; dep_ptr[n]];
    for j in 0..n {
        let pj = position::<UPPER>(n, j) as u32;
        for (r, _) in deps(j) {
            let s = &mut cursor[position::<UPPER>(n, r)];
            dep_pos[*s] = pj;
            *s += 1;
        }
    }
    let mut plan = SweepPlan {
        rhs_src,
        dep_ptr,
        dep_val: vec![0.0; dep_pos.len()],
        dep_pos,
        diag: if UPPER { vec![0.0; n] } else { Vec::new() },
    };
    plan.fill::<UPPER>(m);
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

    /// Factors of random matrices under random column orders, and of a
    /// grid Laplacian under the identity.
    fn sample_factors() -> Vec<LuFactors> {
        let mut rng = sparsekit::Rng64::new(0x0bde);
        let mut out: Vec<LuFactors> = (0..12)
            .map(|_| {
                let n = rng.range(1, 120);
                let a = random_matrix(&mut rng, n);
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                let order = Perm::from_to_old(order);
                LuFactors::factorize(&a, &order, &LuConfig::default()).unwrap()
            })
            .collect();
        let a = laplace2d(8);
        let n = a.nrows();
        out.push(LuFactors::factorize(&a, &Perm::identity(n), &LuConfig::default()).unwrap());
        out
    }

    /// The off-diagonal entries `(row, column)` of `m`'s lower or upper
    /// triangle, columns ascending: row depends on column.
    fn dependencies(m: &Csc, upper: bool) -> Vec<(usize, usize)> {
        (0..m.ncols())
            .flat_map(|c| m.col_iter(c).map(move |(r, _)| (r, c)))
            .filter(|&(r, c)| if upper { r < c } else { r > c })
            .collect()
    }

    #[test]
    fn plan_positions_are_pivot_order() {
        for f in sample_factors() {
            let n = f.n();
            let plan = f.solve_plan();
            // Forward position p is pivot row p, seeded by `(P b)[p]`;
            // backward position q is pivot row n − 1 − q, scattered to
            // `(Qᵀ x)`'s entry of that row.
            let rows = [(&plan.fwd, false), (&plan.bwd, true)];
            for (sweep, upper) in rows {
                let at = |r: usize| if upper { n - 1 - r } else { r };
                let mut want = vec![Vec::new(); n];
                for (r, c) in dependencies(if upper { &f.u } else { &f.l }, upper) {
                    want[at(r)].push(at(c) as u32);
                }
                for (p, want) in want.iter().enumerate() {
                    let got = sweep.deps(p);
                    assert_eq!(got, want, "position {p}: dependencies, columns ascending");
                    assert!(
                        got.iter().all(|&d| (d as usize) < p),
                        "dependency after {p}"
                    );
                }
            }
            assert!((0..n).all(|p| plan.fwd.rhs_src[p] == f.row_perm.to_old(p)));
            assert!((0..n).all(|q| plan.out_dst[q] == f.col_perm.to_old(n - 1 - q)));
        }
    }

    #[test]
    fn level_statistics_match_a_longest_chain_count() {
        for f in sample_factors() {
            let n = f.n();
            let plan = f.solve_plan();
            let got = [plan.forward_levels(), plan.backward_levels()];
            for ((m, upper), got) in [(&f.l, false), (&f.u, true)].into_iter().zip(got) {
                // Relax every edge until no chain grows.
                let deps = dependencies(m, upper);
                let mut chain = vec![0usize; n];
                let mut grew = true;
                while grew {
                    grew = false;
                    for &(r, c) in &deps {
                        if chain[r] < chain[c] + 1 {
                            chain[r] = chain[c] + 1;
                            grew = true;
                        }
                    }
                }
                let levels = chain.iter().map(|&l| l + 1).max().unwrap_or(0);
                let widest = (0..levels)
                    .map(|l| chain.iter().filter(|&&c| c == l).count())
                    .max()
                    .unwrap_or(0);
                assert_eq!(got, (levels, widest), "upper {upper}, n = {n}");
                assert!(levels >= 1 && widest >= 1);
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
            assert_eq!(plan.forward_reach([]).run_count(), 0);
            assert_eq!(plan.backward_closure(0..n).run_count(), 1);
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
            assert_eq!(g.rhs_src, w.rhs_src, "{what}: rhs_src");
            assert_eq!(g.dep_ptr, w.dep_ptr, "{what}: dep_ptr");
            assert_eq!(g.dep_pos, w.dep_pos, "{what}: dep_pos");
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
