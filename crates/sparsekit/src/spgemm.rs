//! Sparse matrix–matrix products (Gustavson's row-by-row algorithm),
//! with symbolic size prediction and budgeted (cancellable) variants.

use crate::budget::{Budget, BudgetInterrupt};
use crate::par::build_csr_two_phase;
use crate::Csr;

/// Rows between cooperative budget polls inside the product loops. Large
/// enough that a deadline budget's `Instant::now()` is amortised away,
/// small enough that interrupts still land promptly.
const BUDGET_STRIDE: u32 = 64;

/// Ceiling on `nrows × ncols` for the dense-accumulator (compact-output)
/// product path: 1M cells = 8 MB of accumulator, comfortably resident.
const COMPACT_MAX_CELLS: usize = 1 << 20;

/// Why a checked sparse product refused to run or stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpgemmError {
    /// `A` is `m×k`, `B` is `k'×n` with `k ≠ k'`.
    DimensionMismatch {
        /// Columns of the left operand.
        a_cols: usize,
        /// Rows of the right operand.
        b_rows: usize,
    },
    /// The execution budget interrupted the product mid-row.
    Interrupted(BudgetInterrupt),
}

impl std::fmt::Display for SpgemmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpgemmError::DimensionMismatch { a_cols, b_rows } => write!(
                f,
                "spgemm inner dimension mismatch: A has {a_cols} columns but B has {b_rows} rows"
            ),
            SpgemmError::Interrupted(i) => write!(f, "spgemm interrupted: {i}"),
        }
    }
}

impl std::error::Error for SpgemmError {}

fn check_dims(a: &Csr, b: &Csr) -> Result<(), SpgemmError> {
    if a.ncols() != b.nrows() {
        return Err(SpgemmError::DimensionMismatch {
            a_cols: a.ncols(),
            b_rows: b.nrows(),
        });
    }
    Ok(())
}

/// Upper bound on `nnz(A·B)` without forming the product: the Gustavson
/// flop count `Σ_{a_ik ≠ 0} nnz(B_{k,:})`, which nnz can never exceed.
/// `O(nnz(A))`; also the admission-control predictor for the Schur
/// assembly.
///
/// Returns the bound even when the inner dimensions mismatch (counting
/// only in-range inner indices), so callers can report both problems.
pub fn spgemm_nnz_bound(a: &Csr, b: &Csr) -> usize {
    let mut bound = 0usize;
    for i in 0..a.nrows() {
        for &k in a.row_indices(i) {
            if k < b.nrows() {
                bound = bound.saturating_add(b.row_nnz(k));
            }
        }
    }
    bound
}

/// Bytes needed to store a CSR matrix with the given shape and nnz
/// (index + value arrays plus the row pointer).
pub fn csr_bytes(nrows: usize, nnz: usize) -> usize {
    nnz.saturating_mul(std::mem::size_of::<usize>() + std::mem::size_of::<f64>())
        .saturating_add((nrows + 1) * std::mem::size_of::<usize>())
}

/// Numeric sparse product `C = A · B`.
///
/// Gustavson's algorithm: each row of `C` is accumulated in a sparse
/// accumulator (dense value array + occupancy list). `O(flops)`.
///
/// Panics on an inner-dimension mismatch; use [`spgemm_checked`] to get
/// a typed error instead.
pub fn spgemm(a: &Csr, b: &Csr) -> Csr {
    match spgemm_checked(a, b, &Budget::unlimited(), 1) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    }
}

/// [`spgemm`] with typed dimension validation, cooperative budget checks
/// and up to `workers` threads.
///
/// The budget is checked once before any path is chosen, then polled
/// between output rows (or inner-index strips on the compact path).
/// Compact-output products (small `m×n` result, huge inner dimension —
/// the separator blocks `T̃ = W̃·G̃` of `Comp(S)`) take an outer-product
/// walk with a dense accumulator for any worker count: row-by-row
/// Gustavson would re-stream all of `B` once per output row, which is
/// bandwidth-bound long before it is flop-bound. Otherwise `workers <= 1`
/// runs the serial Gustavson walk and more workers run it row-parallel
/// (symbolic count → prefix sum → numeric fill over contiguous row
/// ranges). Every path's output is **byte-identical** to the serial walk.
pub fn spgemm_checked(
    a: &Csr,
    b: &Csr,
    budget: &Budget,
    workers: usize,
) -> Result<Csr, SpgemmError> {
    check_dims(a, b)?;
    budget.check().map_err(SpgemmError::Interrupted)?;
    let m = a.nrows();
    let n = b.ncols();
    if m > 0 && n > 0 && m.saturating_mul(n) <= COMPACT_MAX_CELLS {
        let flops = spgemm_nnz_bound(a, b);
        if flops >= 4 * m * n {
            return spgemm_compact(a, b, budget);
        }
    }
    if workers <= 1 {
        spgemm_serial(a, b, budget)
    } else {
        spgemm_parallel(a, b, budget, workers)
    }
}

/// Serial Gustavson walk of [`spgemm_checked`].
fn spgemm_serial(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
    let m = a.nrows();
    let n = b.ncols();
    let mut indptr = vec![0usize; m + 1];
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut acc = vec![0f64; n];
    let mut mark = vec![usize::MAX; n];
    let mut row_cols: Vec<usize> = Vec::new();
    let mut ticker = budget.ticker(BUDGET_STRIDE);
    for i in 0..m {
        ticker.tick().map_err(SpgemmError::Interrupted)?;
        // Rows whose flop count dwarfs the output width (the dense
        // separator products of `Comp(S)`) take a branchless path: zero
        // the whole accumulator up front, accumulate with unconditional
        // stores, and recover the pattern by scanning the marks. The
        // per-entry sums run in the same order as the marked walk, so
        // the result is bit-identical.
        let mut flop_bound = 0usize;
        for &k in a.row_indices(i) {
            flop_bound += b.row_nnz(k);
        }
        if flop_bound >= 4 * n && n > 0 {
            acc[..n].fill(0.0);
            for (k, av) in a.row_iter(i) {
                for (j, bv) in b.row_iter(k) {
                    acc[j] += av * bv;
                    mark[j] = i;
                }
            }
            for (j, mk) in mark[..n].iter().enumerate() {
                if *mk == i {
                    indices.push(j);
                    values.push(acc[j]);
                }
            }
            indptr[i + 1] = indices.len();
            continue;
        }
        row_cols.clear();
        for (k, av) in a.row_iter(i) {
            for (j, bv) in b.row_iter(k) {
                if mark[j] != i {
                    mark[j] = i;
                    acc[j] = 0.0;
                    row_cols.push(j);
                }
                acc[j] += av * bv;
            }
        }
        if row_cols.len() * 8 >= n {
            // Dense-ish row: a full column scan emits the same sorted
            // entries cheaper than sorting the occupancy list (the
            // separator-block products of `Comp(S)` live here).
            for (j, m) in mark.iter().enumerate() {
                if *m == i {
                    indices.push(j);
                    values.push(acc[j]);
                }
            }
        } else {
            row_cols.sort_unstable();
            for &j in &row_cols {
                indices.push(j);
                values.push(acc[j]);
            }
        }
        indptr[i + 1] = indices.len();
    }
    Ok(Csr::from_parts(m, n, indptr, indices, values))
}

/// Outer-product sparse product for compact outputs: walks the inner
/// dimension once, streaming `Aᵀ` and `B` a single time each, and
/// accumulates into a dense `m×n` block that stays cache-resident.
///
/// Matches the Gustavson walk bit-for-bit on real inputs: both add the
/// contributions of each output entry in ascending inner-index order
/// (`A`'s row indices are sorted), both emit rows with ascending column
/// indices, and the pattern (tracked exactly via bitmasks) is the same.
/// The one divergence window is a stored product that underflows to a
/// signed zero, where the dense accumulation can normalise `-0.0` to
/// `+0.0`.
fn spgemm_compact(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
    let m = a.nrows();
    let n = b.ncols();
    let words = n.div_ceil(64);
    let mut acc = vec![0f64; m * n];
    let mut pat = vec![0u64; m * words];
    // Strip-mine the inner dimension: densify `STRIP` rows of `B` into a
    // cache-resident panel, then sweep every output row once per strip.
    // Each accumulator row is loaded once per strip instead of once per
    // inner index, and the per-entry update is a vectorizable dense axpy
    // plus a bitmask OR for the exact pattern. `A`'s column indices are
    // sorted, so each output entry still receives its contributions in
    // ascending inner-index order — bit-identical to the sparse walk
    // (structurally absent positions add an exact-zero term, which only
    // matters if a stored product underflows to a signed zero).
    const STRIP: usize = 64;
    let mut panel = vec![0f64; STRIP * n];
    let mut masks = vec![0u64; STRIP * words];
    // Per-output-row cursor into `A`'s sorted column indices: the
    // entries belonging to a strip are a contiguous subrange.
    let mut cursor = vec![0usize; m];
    let mut ticker = budget.ticker(BUDGET_STRIDE);
    let mut k0 = 0;
    while k0 < b.nrows() {
        let k1 = (k0 + STRIP).min(b.nrows());
        ticker.tick().map_err(SpgemmError::Interrupted)?;
        let mut any = false;
        for k in k0..k1 {
            if b.row_nnz(k) > 0 {
                any = true;
                break;
            }
        }
        if any {
            panel[..(k1 - k0) * n].fill(0.0);
            masks[..(k1 - k0) * words].fill(0);
            for k in k0..k1 {
                let prow = &mut panel[(k - k0) * n..(k - k0 + 1) * n];
                let mrow = &mut masks[(k - k0) * words..(k - k0 + 1) * words];
                for (j, bv) in b.row_iter(k) {
                    prow[j] = bv;
                    mrow[j >> 6] |= 1u64 << (j & 63);
                }
            }
        }
        for (i, cur) in cursor.iter_mut().enumerate() {
            let idx = a.row_indices(i);
            let vals = a.row_values(i);
            let start = *cur;
            let mut t = start;
            while t < idx.len() && idx[t] < k1 {
                t += 1;
            }
            *cur = t;
            if !any {
                continue;
            }
            let row = &mut acc[i * n..(i + 1) * n];
            let prow = &mut pat[i * words..(i + 1) * words];
            for (&k, &av) in idx[start..t].iter().zip(&vals[start..t]) {
                let kl = k - k0;
                if masks[kl * words..(kl + 1) * words].iter().all(|&w| w == 0) {
                    continue;
                }
                for (y, &x) in row.iter_mut().zip(&panel[kl * n..(kl + 1) * n]) {
                    *y += av * x;
                }
                for (pw, &mw) in prow.iter_mut().zip(&masks[kl * words..(kl + 1) * words]) {
                    *pw |= mw;
                }
            }
        }
        k0 = k1;
    }
    let mut indptr = vec![0usize; m + 1];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..m {
        for (w, &bits) in pat[i * words..(i + 1) * words].iter().enumerate() {
            let mut rem = bits;
            while rem != 0 {
                let j = (w << 6) + rem.trailing_zeros() as usize;
                indices.push(j);
                values.push(acc[i * n + j]);
                rem &= rem - 1;
            }
        }
        indptr[i + 1] = indices.len();
    }
    Ok(Csr::from_parts(m, n, indptr, indices, values))
}

/// Scratch for one SpGEMM worker: a dense accumulator plus a stamp-style
/// mark vector shared by the symbolic and numeric phases (stamp `2i`
/// marks row `i` during counting, `2i + 1` during filling, so the two
/// phases never confuse each other's marks).
struct SpgemmScratch {
    acc: Vec<f64>,
    mark: Vec<usize>,
    cols: Vec<usize>,
}

/// Row-parallel Gustavson walk of [`spgemm_checked`]. Each output row is
/// computed by the same walk in the same order as [`spgemm_serial`], and
/// the prefix sum puts it at the same offset, so the output is
/// byte-identical. Budget interrupts from any worker surface as
/// [`SpgemmError::Interrupted`].
fn spgemm_parallel(a: &Csr, b: &Csr, budget: &Budget, workers: usize) -> Result<Csr, SpgemmError> {
    let n = b.ncols();
    build_csr_two_phase(
        a.nrows(),
        n,
        workers,
        budget,
        BUDGET_STRIDE,
        || SpgemmScratch {
            acc: vec![0f64; n],
            mark: vec![usize::MAX; n],
            cols: Vec::new(),
        },
        |i, s| {
            let stamp = 2 * i;
            // Same dense-row shortcut as the serial path: unconditional
            // mark stores, then a scan, beat the branchy walk when the
            // row's flops dwarf the output width.
            let mut flop_bound = 0usize;
            for &k in a.row_indices(i) {
                flop_bound += b.row_nnz(k);
            }
            if flop_bound >= 4 * n && n > 0 {
                for (k, _) in a.row_iter(i) {
                    for &j in b.row_indices(k) {
                        s.mark[j] = stamp;
                    }
                }
                return s.mark[..n].iter().filter(|&&m| m == stamp).count();
            }
            let mut nnz = 0usize;
            for (k, _) in a.row_iter(i) {
                for &j in b.row_indices(k) {
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
            let mut flop_bound = 0usize;
            for &k in a.row_indices(i) {
                flop_bound += b.row_nnz(k);
            }
            if flop_bound >= 4 * n && n > 0 {
                // Branchless dense accumulation; sums run in the same
                // order as the marked walk, so values are bit-identical.
                s.acc[..n].fill(0.0);
                for (k, av) in a.row_iter(i) {
                    for (j, bv) in b.row_iter(k) {
                        s.acc[j] += av * bv;
                        s.mark[j] = stamp;
                    }
                }
                let mut t = 0;
                for (j, m) in s.mark[..n].iter().enumerate() {
                    if *m == stamp {
                        ind[t] = j;
                        val[t] = s.acc[j];
                        t += 1;
                    }
                }
                return;
            }
            s.cols.clear();
            for (k, av) in a.row_iter(i) {
                for (j, bv) in b.row_iter(k) {
                    if s.mark[j] != stamp {
                        s.mark[j] = stamp;
                        s.acc[j] = 0.0;
                        s.cols.push(j);
                    }
                    s.acc[j] += av * bv;
                }
            }
            if s.cols.len() * 8 >= n {
                // Same dense-row scan as the serial path: identical
                // sorted output, no per-row sort.
                let mut t = 0;
                for (j, m) in s.mark.iter().enumerate() {
                    if *m == stamp {
                        ind[t] = j;
                        val[t] = s.acc[j];
                        t += 1;
                    }
                }
            } else {
                s.cols.sort_unstable();
                for (t, &j) in s.cols.iter().enumerate() {
                    ind[t] = j;
                    val[t] = s.acc[j];
                }
            }
        },
    )
    .map_err(SpgemmError::Interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn dense_mul(a: &Csr, b: &Csr) -> Vec<Vec<f64>> {
        let mut c = vec![vec![0f64; b.ncols()]; a.nrows()];
        for i in 0..a.nrows() {
            for (k, av) in a.row_iter(i) {
                for (j, bv) in b.row_iter(k) {
                    c[i][j] += av * bv;
                }
            }
        }
        c
    }

    fn rand_like(n: usize, m: usize, seed: u64) -> Csr {
        // Tiny deterministic LCG so this test has no external deps.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut c = Coo::new(n, m);
        for i in 0..n {
            for _ in 0..3 {
                let j = (next() % m as u64) as usize;
                let v = ((next() % 1000) as f64) / 100.0 - 5.0;
                c.push(i, j, v);
            }
        }
        c.to_csr()
    }

    #[test]
    fn matches_dense_reference() {
        let a = rand_like(8, 6, 1);
        let b = rand_like(6, 7, 2);
        let c = spgemm(&a, &b);
        let d = dense_mul(&a, &b);
        for i in 0..8 {
            for j in 0..7 {
                assert!(
                    (c.get(i, j) - d[i][j]).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_like(5, 5, 3);
        let i = Csr::identity(5);
        let left = spgemm(&i, &a);
        let right = spgemm(&a, &i);
        for r in 0..5 {
            for c in 0..5 {
                assert!((left.get(r, c) - a.get(r, c)).abs() < 1e-14);
                assert!((right.get(r, c) - a.get(r, c)).abs() < 1e-14);
            }
        }
    }

    // ----- dimension validation / size bounds / budgets -----

    #[test]
    fn mismatched_inner_dimensions_report_typed_error() {
        let a = rand_like(4, 5, 7);
        let b = rand_like(6, 3, 8);
        let budget = crate::Budget::unlimited();
        for w in [1usize, 4] {
            match spgemm_checked(&a, &b, &budget, w) {
                Err(SpgemmError::DimensionMismatch {
                    a_cols: 5,
                    b_rows: 6,
                }) => {}
                other => panic!("workers {w}: expected DimensionMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn unchecked_spgemm_panics_with_clear_message() {
        let a = rand_like(4, 5, 9);
        let b = rand_like(6, 3, 10);
        let _ = spgemm(&a, &b);
    }

    #[test]
    fn nnz_bound_dominates_actual_nnz() {
        for seed in 0..8 {
            let a = rand_like(9, 7, seed);
            let b = rand_like(7, 8, seed + 100);
            let bound = spgemm_nnz_bound(&a, &b);
            let c = spgemm(&a, &b);
            assert!(
                c.nnz() <= bound,
                "seed {seed}: nnz {} exceeds bound {bound}",
                c.nnz()
            );
        }
    }

    #[test]
    fn nnz_bound_is_tight_for_identity() {
        let a = rand_like(6, 6, 11);
        let i = Csr::identity(6);
        // A·I touches each row of I once per entry of A: bound == nnz(A).
        assert_eq!(spgemm_nnz_bound(&a, &i), a.nnz());
    }

    #[test]
    fn parallel_product_is_byte_identical_to_serial() {
        let budget = crate::Budget::unlimited();
        for seed in 0..4 {
            let a = rand_like(40, 25, seed);
            let b = rand_like(25, 33, seed + 50);
            let serial = spgemm_checked(&a, &b, &budget, 1).unwrap();
            for w in [2usize, 3, 4, 7] {
                let par = spgemm_checked(&a, &b, &budget, w).unwrap();
                assert_eq!(par, serial, "seed {seed} workers {w}");
            }
        }
    }

    #[test]
    fn cancelled_budget_interrupts_product() {
        let a = rand_like(30, 30, 12);
        let b = rand_like(30, 30, 13);
        let tok = crate::CancelToken::new();
        tok.cancel();
        let budget = crate::Budget::unlimited().with_token(tok);
        for w in [1usize, 4] {
            match spgemm_checked(&a, &b, &budget, w) {
                Err(SpgemmError::Interrupted(crate::BudgetInterrupt::Cancelled)) => {}
                other => panic!("workers {w}: expected Interrupted, got {other:?}"),
            }
        }
    }
}
