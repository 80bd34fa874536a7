//! Sparse matrix–matrix products (Gustavson's row-by-row algorithm),
//! with symbolic size prediction and budgeted (cancellable) variants.

use crate::budget::{Budget, BudgetInterrupt};
use crate::isa::{Isa, Tier};
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
    match spgemm_checked(a, b, &Budget::unlimited()) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    }
}

/// [`spgemm`] with typed dimension validation and cooperative budget
/// checks.
///
/// The budget is checked once before any path is chosen, then polled
/// between output rows (or inner-index strips on the compact path).
/// Compact-output products (small `m×n` result, huge inner dimension —
/// the separator blocks `T̃ = W̃·G̃` of `Comp(S)`) take an outer-product
/// walk with a dense accumulator: row-by-row Gustavson would re-stream
/// all of `B` once per output row, which is bandwidth-bound long before
/// it is flop-bound. Every other product runs the Gustavson walk. Both
/// paths' outputs are **byte-identical**.
pub fn spgemm_checked(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
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
    spgemm_gustavson(a, b, budget)
}

/// Gustavson row walk of [`spgemm_checked`].
fn spgemm_gustavson(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
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
/// accumulates into a dense `m×n` block that stays cache-resident. Runs
/// at the widest tier of this CPU ([`crate::isa`]).
///
/// Matches the Gustavson walk bit for bit on finite inputs. Both add
/// the contributions of each output entry in ascending inner-index
/// order (`A`'s row indices are sorted), both emit rows with ascending
/// column indices, and the pattern (tracked exactly via bitmasks) is
/// the same. The dense walk also adds terms the sparse walk never
/// forms: `a·(+0.0)` for a position of a chunk `B`'s row does not
/// store. Each such term is `±0`. Both accumulators start at `+0.0`,
/// and under round-to-nearest a sum is `−0.0` only when both addends
/// are, so neither accumulator can ever hold `−0.0`; adding `±0` to
/// anything else leaves it unchanged. So the extra terms change no
/// bit, not even when a stored product underflows to `−0.0`.
fn spgemm_compact(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
    spgemm_compact_at(Isa::host(), a, b, budget)
}

/// [`spgemm_compact`] at the tier `isa`.
fn spgemm_compact_at(isa: Isa, a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
    match isa.tier() {
        Tier::Baseline => compact_body(a, b, budget),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: an `Isa` names AVX-512F only after
            // `is_x86_feature_detected!("avx512f")` held
            // (`Isa::supported`).
            unsafe { compact_avx512(a, b, budget) }
        }
    }
}

/// [`compact_body`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn compact_avx512(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
    compact_body(a, b, budget)
}

/// Rows of `B` densified together: one strip of the inner dimension.
const STRIP: usize = 64;

/// Output columns per register block: one pattern mask word.
const CHUNK: usize = 64;

/// The compact product, once for every tier.
///
/// The inner dimension is strip-mined: `STRIP` rows of `B` are
/// densified into a panel, with one pattern bitmask word per row and
/// column chunk. Per strip, the outer loop runs over the `CHUNK`-column
/// chunks and the inner loop over the rows of `A`, so the chunk's
/// `STRIP × CHUNK` slice of the panel stays in L1 while every output
/// row passes over it. Each output row's chunk is loaded once into a
/// `[f64; CHUNK]` register block, takes the row's strip entries in
/// ascending inner index, and is stored once; an entry whose `B` row
/// stores nothing in the chunk is skipped. Panel rows are padded to
/// whole chunks (with zeros) so the last, narrower chunk runs the same
/// block; only its first `n mod CHUNK` cells are read from and written
/// back to the unpadded accumulator.
#[inline(always)]
fn compact_body(a: &Csr, b: &Csr, budget: &Budget) -> Result<Csr, SpgemmError> {
    let m = a.nrows();
    let n = b.ncols();
    let words = n.div_ceil(CHUNK);
    let stride = words * CHUNK;
    let mut acc = vec![0f64; m * n];
    let mut pat = vec![0u64; m * words];
    let mut panel = vec![0f64; STRIP * stride];
    let mut masks = vec![0u64; STRIP * words];
    // The chunks some row of the strip stores into.
    let mut live = vec![0u64; words];
    // Each output row's entries in the strip are the contiguous range
    // `lo[i]..hi[i]` of `A`'s sorted column indices.
    let mut lo = vec![0usize; m];
    let mut hi = vec![0usize; m];
    let mut ticker = budget.ticker(BUDGET_STRIDE);
    let mut k0 = 0;
    while k0 < b.nrows() {
        let k1 = (k0 + STRIP).min(b.nrows());
        ticker.tick().map_err(SpgemmError::Interrupted)?;
        for i in 0..m {
            let idx = a.row_indices(i);
            let mut t = hi[i];
            lo[i] = t;
            while t < idx.len() && idx[t] < k1 {
                t += 1;
            }
            hi[i] = t;
        }
        if (k0..k1).all(|k| b.row_nnz(k) == 0) {
            k0 = k1;
            continue;
        }
        panel[..(k1 - k0) * stride].fill(0.0);
        masks[..(k1 - k0) * words].fill(0);
        live.fill(0);
        for k in k0..k1 {
            let prow = &mut panel[(k - k0) * stride..(k - k0 + 1) * stride];
            let mrow = &mut masks[(k - k0) * words..(k - k0 + 1) * words];
            for (j, bv) in b.row_iter(k) {
                prow[j] = bv;
                mrow[j / CHUNK] |= 1u64 << (j % CHUNK);
            }
            for (l, &mw) in live.iter_mut().zip(mrow.iter()) {
                *l |= mw;
            }
        }
        for (c, &lw) in live.iter().enumerate() {
            if lw == 0 {
                continue;
            }
            let c0 = c * CHUNK;
            let w = CHUNK.min(n - c0);
            for i in 0..m {
                let (s, t) = (lo[i], hi[i]);
                if s == t {
                    continue;
                }
                let dst = &mut acc[i * n + c0..i * n + c0 + w];
                let mut blk = [0f64; CHUNK];
                blk[..w].copy_from_slice(dst);
                let mut bits = 0u64;
                let idx = &a.row_indices(i)[s..t];
                let vals = &a.row_values(i)[s..t];
                for (&k, &av) in idx.iter().zip(vals) {
                    let kl = k - k0;
                    let mw = masks[kl * words + c];
                    if mw == 0 {
                        continue;
                    }
                    bits |= mw;
                    let p: &[f64; CHUNK] = panel[kl * stride + c0..kl * stride + c0 + CHUNK]
                        .try_into()
                        .expect("a panel row holds whole chunks");
                    for (y, &x) in blk.iter_mut().zip(p) {
                        *y += av * x;
                    }
                }
                if bits != 0 {
                    dst.copy_from_slice(&blk[..w]);
                    pat[i * words + c] |= bits;
                }
            }
        }
        k0 = k1;
    }
    let nnz: usize = pat.iter().map(|w| w.count_ones() as usize).sum();
    let mut indptr = vec![0usize; m + 1];
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for i in 0..m {
        for (c, &bits) in pat[i * words..(i + 1) * words].iter().enumerate() {
            let mut rem = bits;
            while rem != 0 {
                let j = c * CHUNK + rem.trailing_zeros() as usize;
                indices.push(j);
                values.push(acc[i * n + j]);
                rem &= rem - 1;
            }
        }
        indptr[i + 1] = indices.len();
    }
    Ok(Csr::from_parts(m, n, indptr, indices, values))
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
        match spgemm_checked(&a, &b, &budget) {
            Err(SpgemmError::DimensionMismatch {
                a_cols: 5,
                b_rows: 6,
            }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
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

    /// `A` (`m × kdim`) and `B` (`kdim × n`) with about `per_row`
    /// entries a row; `B`'s row `k` stores only in columns
    /// `span(k)`, and its rows in `empty` store nothing.
    fn oracle_pair(
        m: usize,
        kdim: usize,
        n: usize,
        per_row: usize,
        seed: u64,
        span: impl Fn(usize) -> std::ops::Range<usize>,
        empty: std::ops::Range<usize>,
    ) -> (Csr, Csr) {
        let mut rng = crate::Rng64::new(seed);
        let mut a = Coo::new(m, kdim);
        for i in 0..m {
            for _ in 0..per_row {
                a.push(i, rng.below(kdim), rng.f64_range(-2.0, 2.0));
            }
        }
        let mut b = Coo::new(kdim, n);
        for k in (0..kdim).filter(|k| !empty.contains(k)) {
            let cols = span(k);
            for _ in 0..per_row {
                let j = cols.start + rng.below(cols.len());
                b.push(k, j, rng.f64_range(-2.0, 2.0));
            }
        }
        (a.to_csr(), b.to_csr())
    }

    /// The compact kernel at every tier this CPU runs, against the
    /// Gustavson walk, bit for bit (values compared as bits, so a `−0.0`
    /// against a `+0.0` fails).
    fn assert_compact_matches_gustavson(a: &Csr, b: &Csr, what: &str) {
        let budget = Budget::unlimited();
        let want = spgemm_gustavson(a, b, &budget).unwrap();
        let bits = |c: &Csr| c.values().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for isa in Isa::supported() {
            let got = spgemm_compact_at(isa, a, b, &budget).unwrap();
            let at = format!("{what}, {}", isa.name());
            assert_eq!(
                (got.nrows(), got.ncols()),
                (want.nrows(), want.ncols()),
                "{at}"
            );
            assert_eq!(got.indptr(), want.indptr(), "{at}");
            assert_eq!(got.indices(), want.indices(), "{at}");
            assert_eq!(bits(&got), bits(&want), "{at}");
        }
    }

    #[test]
    fn compact_kernel_matches_gustavson_at_every_width() {
        for n in [1usize, 63, 64, 65, 130] {
            for (kdim, per_row) in [(5usize, 3usize), (64, 9), (200, 24)] {
                let (a, b) = oracle_pair(
                    17,
                    kdim,
                    n,
                    per_row,
                    7 * n as u64 + kdim as u64,
                    |_| 0..n,
                    0..0,
                );
                assert_compact_matches_gustavson(&a, &b, &format!("n {n}, kdim {kdim}"));
            }
        }
    }

    #[test]
    fn compact_kernel_skips_empty_strips_and_chunks() {
        // Rows 64..192 of `B` are empty: two whole strips and part of a
        // third carry nothing.
        let (a, b) = oracle_pair(23, 260, 130, 30, 3, |_| 0..130, 64..192);
        assert_compact_matches_gustavson(&a, &b, "empty strips");
        // Every `B` row stores in one chunk only (rotating over the
        // three chunks of n = 130), so most (row, chunk) pairs skip.
        let chunk = |k: usize| match k % 3 {
            0 => 0..64,
            1 => 64..128,
            _ => 128..130,
        };
        let (a, b) = oracle_pair(23, 260, 130, 12, 4, chunk, 0..0);
        assert_compact_matches_gustavson(&a, &b, "one chunk per row");
        // A product with no entry at all.
        let (a, b) = oracle_pair(9, 70, 65, 5, 5, |_| 0..65, 0..70);
        assert_eq!(b.nnz(), 0);
        assert_compact_matches_gustavson(&a, &b, "empty B");
    }

    #[test]
    fn compact_kernel_keeps_stored_zeros_and_signed_zero_products() {
        // Stored zeros of both signs in `A` and `B`, and products that
        // underflow to −0.0 (1e-200 · −1e-200) alone, beside finite
        // terms, and in the same chunk as unstored positions.
        let mut a = Coo::new(4, 3);
        let mut b = Coo::new(3, 70);
        for (i, k, v) in [
            (0, 0, 1e-200),
            (1, 0, 0.0),
            (1, 1, -0.0),
            (2, 0, 1e-200),
            (2, 2, 3.0),
            (3, 1, -1e-200),
            (3, 2, 1e-200),
        ] {
            a.push(i, k, v);
        }
        for (k, j, v) in [
            (0, 0, -1e-200),
            (0, 5, 2.0),
            (0, 69, -1e-200),
            (1, 5, 0.0),
            (1, 66, 1e-200),
            (1, 69, -0.0),
            (2, 0, 0.0),
            (2, 66, -1e-200),
            (2, 69, 1.5),
        ] {
            b.push(k, j, v);
        }
        let (a, b) = (a.to_csr(), b.to_csr());
        assert_eq!((a.nnz(), b.nnz()), (7, 9), "stored zeros are kept");
        assert_compact_matches_gustavson(&a, &b, "signed zeros");
        let t = spgemm_compact(&a, &b, &Budget::unlimited()).unwrap();
        assert_eq!(
            t.get(0, 0).to_bits(),
            0f64.to_bits(),
            "an underflow is +0.0"
        );
        assert_eq!(
            t.nnz(),
            spgemm_gustavson(&a, &b, &Budget::unlimited())
                .unwrap()
                .nnz()
        );
    }

    #[test]
    fn compact_shapes_take_the_compact_path_and_match_serial() {
        // flops ≥ 4·m·n: `spgemm_checked` routes this to the compact
        // kernel.
        let (a, b) = oracle_pair(20, 300, 70, 40, 6, |_| 0..70, 0..0);
        assert!(spgemm_nnz_bound(&a, &b) >= 4 * 20 * 70);
        let budget = Budget::unlimited();
        let want = spgemm_gustavson(&a, &b, &budget).unwrap();
        assert_eq!(spgemm_checked(&a, &b, &budget).unwrap(), want);
    }

    #[test]
    fn cancelled_budget_interrupts_product() {
        let a = rand_like(30, 30, 12);
        let b = rand_like(30, 30, 13);
        let tok = crate::CancelToken::new();
        tok.cancel();
        let budget = crate::Budget::unlimited().with_token(tok);
        match spgemm_checked(&a, &b, &budget) {
            Err(SpgemmError::Interrupted(crate::BudgetInterrupt::Cancelled)) => {}
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }
}
