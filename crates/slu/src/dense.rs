//! Dense LU kernel for the trailing block of the sparse factorisation.
//!
//! [`crate::lu`] hands the last `m` columns to this kernel once the
//! factor columns it is producing have gone dense: the block arrives
//! as an `m × m` column-major buffer already updated by every sparse
//! column before it, and leaves as the packed factors of the block
//! (`U` on and above the diagonal, the multipliers of unit-lower `L`
//! below it, rows in pivot order) — the layout of LAPACK's `getrf`.
//!
//! The elimination is left-looking over panels of [`PANEL`] columns:
//! each finished `L` column is streamed once per panel instead of once
//! per column, which is what lifts the plain axpy loop from memory
//! speed to about 7 GF/s at `m ≈ 1000` (docs/kernels.md). Blocking
//! does not touch the arithmetic: every cell still receives
//! `a -= l · u` once per earlier pivot, in ascending pivot order, each
//! operation rounded on its own — so the result is independent of
//! `PANEL` and of where rows physically sit, and a replay of the same
//! pivot sequence reproduces it bit for bit.

use sparsekit::isa::{Isa, Tier};
use sparsekit::lanes::{axpy_neg, scale_div};

/// Name of the tier the dense kernels run at on this CPU (`"avx512f"`
/// or `"baseline"`), for the kernel bench's rows.
#[doc(hidden)]
pub fn dense_kernel_isa() -> &'static str {
    Isa::host().name()
}

/// Columns updated together by each finished `L` column.
const PANEL: usize = 4;

/// Factors the column-major `m × m` buffer `a` in place, at the widest
/// tier of this CPU ([`sparsekit::isa`]).
///
/// At step `k`, `pivot(k, candidates)` sees column `k` from the
/// diagonal down (`candidates[0]` is the current diagonal) and returns
/// the offset of the row to pivot on and the pivot value to divide by
/// (the candidate itself, or a substituted perturbation). The kernel
/// swaps that row up across the whole buffer, stores the pivot on the
/// diagonal and scales the multipliers below it. A replay under a
/// frozen pivot order returns offset 0 every time.
pub(crate) fn lu_in_place<E>(
    a: &mut [f64],
    m: usize,
    pivot: impl FnMut(usize, &[f64]) -> Result<(usize, f64), E>,
) -> Result<(), E> {
    lu_in_place_at(Isa::host(), a, m, pivot)
}

/// [`lu_in_place`] at the tier `isa`.
fn lu_in_place_at<E>(
    isa: Isa,
    a: &mut [f64],
    m: usize,
    pivot: impl FnMut(usize, &[f64]) -> Result<(usize, f64), E>,
) -> Result<(), E> {
    match isa.tier() {
        Tier::Baseline => lu_body(a, m, pivot),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            // SAFETY: an `Isa` names AVX-512F only after
            // `is_x86_feature_detected!("avx512f")` held
            // (`Isa::supported`).
            unsafe { lu_avx512(a, m, pivot) }
        }
    }
}

/// [`lu_body`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lu_avx512<E>(
    a: &mut [f64],
    m: usize,
    pivot: impl FnMut(usize, &[f64]) -> Result<(usize, f64), E>,
) -> Result<(), E> {
    lu_body(a, m, pivot)
}

/// The elimination, once for every tier.
#[inline(always)]
fn lu_body<E>(
    a: &mut [f64],
    m: usize,
    mut pivot: impl FnMut(usize, &[f64]) -> Result<(usize, f64), E>,
) -> Result<(), E> {
    debug_assert_eq!(a.len(), m * m);
    // One past the last nonzero row of each finished `L` column: the
    // updates stop there, so a block with a profile (a band, say) costs
    // its profile, not its square.
    let mut ends = vec![0usize; m];
    for k0 in (0..m).step_by(PANEL) {
        let nb = PANEL.min(m - k0);
        let (done, rest) = a.split_at_mut(k0 * m);
        update_panel(done, &ends, m, &mut rest[..nb * m]);
        for k in k0..k0 + nb {
            let (prev, cur) = a.split_at_mut(k * m);
            let col = &mut cur[..m];
            for j in k0..k {
                let u = col[j];
                axpy_neg(
                    &mut col[j + 1..ends[j]],
                    &prev[j * m + j + 1..j * m + ends[j]],
                    u,
                );
            }
            let (p, piv) = pivot(k, &col[k..])?;
            if p != 0 {
                for c in 0..m {
                    a.swap(c * m + k, c * m + k + p);
                    if c < k && a[c * m + k + p] != 0.0 {
                        ends[c] = ends[c].max(k + p + 1);
                    }
                }
            }
            a[k * m + k] = piv;
            let below = &mut a[k * m + k + 1..(k + 1) * m];
            scale_div(below, piv);
            ends[k] = k + 1 + below.iter().rposition(|&v| v != 0.0).map_or(0, |t| t + 1);
        }
    }
    Ok(())
}

/// Applies the finished columns `done` (`k0 = done.len() / m` of them,
/// column `j` nonzero in rows `j + 1..ends[j]`) to the panel columns:
/// `c[j+1..] -= L[j+1.., j] · c[j]` for `j = 0..k0` ascending. A source
/// whose `U` entries are zero in every panel column is skipped, which
/// is where a block that is not structurally full gets its zeros back.
#[inline(always)]
fn update_panel(done: &[f64], ends: &[usize], m: usize, panel: &mut [f64]) {
    if panel.len() != PANEL * m {
        for col in panel.chunks_exact_mut(m) {
            for (j, lcol) in done.chunks_exact(m).enumerate() {
                let u = col[j];
                if u != 0.0 {
                    axpy_neg(&mut col[j + 1..ends[j]], &lcol[j + 1..ends[j]], u);
                }
            }
        }
        return;
    }
    let mut cols = panel.chunks_exact_mut(m);
    let (Some(c0), Some(c1), Some(c2), Some(c3)) =
        (cols.next(), cols.next(), cols.next(), cols.next())
    else {
        unreachable!("panel holds PANEL columns");
    };
    for (j, lcol) in done.chunks_exact(m).enumerate() {
        let u = [c0[j], c1[j], c2[j], c3[j]];
        if u == [0.0; PANEL] {
            continue;
        }
        let rows = j + 1..ends[j];
        let l = &lcol[rows.clone()];
        let (d0, d1, d2, d3) = (
            &mut c0[rows.clone()],
            &mut c1[rows.clone()],
            &mut c2[rows.clone()],
            &mut c3[rows],
        );
        for r in 0..l.len() {
            let lv = l[r];
            d0[r] -= lv * u[0];
            d1[r] -= lv * u[1];
            d2[r] -= lv * u[2];
            d3[r] -= lv * u[3];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook right-looking elimination with partial pivoting: the
    /// same per-cell operations in the same order, one rank-1 update
    /// per step.
    fn reference(a: &mut [f64], m: usize) {
        for k in 0..m {
            let (p, _) = argmax(&a[k * m + k..(k + 1) * m]);
            for c in 0..m {
                a.swap(c * m + k, c * m + k + p);
            }
            let piv = a[k * m + k];
            for r in k + 1..m {
                a[k * m + r] /= piv;
            }
            for c in k + 1..m {
                let u = a[c * m + k];
                for r in k + 1..m {
                    a[c * m + r] -= a[k * m + r] * u;
                }
            }
        }
    }

    fn argmax(cand: &[f64]) -> (usize, f64) {
        let mut best = (0, cand[0]);
        for (r, &v) in cand.iter().enumerate() {
            if v.abs() > best.1.abs() {
                best = (r, v);
            }
        }
        best
    }

    /// Sign-mixed, exponent-spread values with a quarter of the cells
    /// zero: any reassociation shows in the low bits, and whole-panel
    /// skips happen.
    fn matrix(m: usize) -> Vec<f64> {
        let mut rng = sparsekit::Rng64::new(m as u64);
        (0..m * m)
            .map(|_| match rng.below(4) {
                0 => 0.0,
                e => rng.f64_range(-1.0, 1.0) * 10f64.powi(e as i32 - 2),
            })
            .collect()
    }

    #[test]
    fn panels_are_bit_identical_to_rank_one_updates() {
        for m in [1usize, 2, 3, 4, 5, 7, 8, 13, 33, 64] {
            let mut a = matrix(m);
            let mut b = a.clone();
            lu_in_place(&mut a, m, |_, c| Ok::<_, ()>(argmax(c))).unwrap();
            reference(&mut b, m);
            assert!(a.iter().all(|v| v.is_finite()), "m = {m}");
            // `==`, not bits: a skipped update may leave a zero with
            // the other sign.
            assert_eq!(a, b, "m = {m}");
        }
    }

    #[test]
    fn frozen_order_replays_the_pivoted_run() {
        let m = 11;
        let a0 = matrix(m);
        let mut order: Vec<usize> = (0..m).collect();
        let mut a = a0.clone();
        lu_in_place(&mut a, m, |k, c| {
            let (p, v) = argmax(c);
            order.swap(k, k + p);
            Ok::<_, ()>((p, v))
        })
        .unwrap();
        // Same matrix with its rows already in pivot order.
        let mut b: Vec<f64> = (0..m * m).map(|t| a0[(t / m) * m + order[t % m]]).collect();
        lu_in_place(&mut b, m, |_, c| Ok::<_, ()>((0, c[0]))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_tier_gives_the_same_bits() {
        let tiers = Isa::supported();
        for m in [1usize, 3, 4, 5, 8, 13, 33, 64, 97] {
            let a0 = matrix(m);
            let run = |isa: Isa| {
                let mut a = a0.clone();
                lu_in_place_at(isa, &mut a, m, |_, c| Ok::<_, ()>(argmax(c))).unwrap();
                a.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            };
            let want = run(tiers[0]);
            for &isa in &tiers[1..] {
                assert_eq!(run(isa), want, "m = {m}, {}", isa.name());
            }
        }
    }

    #[test]
    fn pivot_errors_abort_the_elimination() {
        let mut a = vec![1.0; 9];
        let r = lu_in_place(
            &mut a,
            3,
            |k, c| if k == 1 { Err(k) } else { Ok((0, c[0])) },
        );
        assert_eq!(r, Err(1));
    }
}
