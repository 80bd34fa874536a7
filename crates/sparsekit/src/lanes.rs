//! Fixed-width f64 lane kernels for the sparse hot loops.
//!
//! Stable Rust has no portable SIMD type, but LLVM reliably
//! autovectorizes loops over fixed-size `[f64; LANES]` arrays whose trip
//! count is a compile-time constant: the `chunks_exact` body below
//! compiles to packed multiplies (and packed subtracts where the
//! destinations are independent) on every mainstream target. The trick
//! that keeps the results **bit-identical** to the scalar reference is
//! to vectorize only the *independent* arithmetic — the per-element
//! products — and keep every reduction a fixed left-to-right scalar sum.
//! IEEE-754 multiplication has no ordering freedom, so computing the
//! products in lanes and then folding them serially performs exactly the
//! same rounded operations, in the same order, as the plain scalar loop.
//!
//! The width of the registers is set by what a caller is compiled for,
//! not by [`LANES`]: the workspace builds for its target's baseline, so
//! on x86-64 a tile is two 128-bit SSE2 operations. `slu`'s dense
//! kernels inline `axpy_neg` and `scale_div` into AVX-512F clones of
//! themselves as well ([`crate::isa`]); the operations and their order
//! are the same at every width.
//!
//! See `docs/kernels.md` for the full rationale and the measured effect.

/// Compile-time tile width: the trip count LLVM vectorizes, at
/// whatever register width the caller is compiled for. Wider tiles win
/// nothing on the gather-bound loops below and bloat the
/// `chunks_exact` remainder.
pub const LANES: usize = 4;

/// Sparse row dot product `Σ vals[k] · x[cols[k]]`, bit-identical to the
/// naive left-to-right loop.
///
/// The gather `x[cols[k]]` and the products are lane-structured (the
/// multiplies vectorize; the gather at least pipelines four loads), the
/// accumulation stays strictly sequential.
#[inline]
pub fn row_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let mut acc = 0f64;
    let mut chunks_c = cols.chunks_exact(LANES);
    let mut chunks_v = vals.chunks_exact(LANES);
    for (cc, vv) in (&mut chunks_c).zip(&mut chunks_v) {
        let mut prod = [0f64; LANES];
        for l in 0..LANES {
            prod[l] = vv[l] * x[cc[l]];
        }
        // Sequential fold: same op order as the scalar reference.
        for p in prod {
            acc += p;
        }
    }
    for (&c, &v) in chunks_c.remainder().iter().zip(chunks_v.remainder()) {
        acc += v * x[c];
    }
    acc
}

/// `dst[i] -= a · src[i]` over a dense panel row. Every destination is
/// independent, so this is trivially bit-identical to the scalar loop
/// and vectorizes to packed fused loops of multiplies and subtracts.
#[inline]
pub fn axpy_neg(dst: &mut [f64], src: &[f64], a: f64) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dd, ss) in (&mut d).zip(&mut s) {
        for l in 0..LANES {
            dd[l] -= a * ss[l];
        }
    }
    for (dd, &ss) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dd -= a * ss;
    }
}

/// `dst[i] /= a` over a dense panel row (independent elements).
#[inline]
pub fn scale_div(dst: &mut [f64], a: f64) {
    let mut d = dst.chunks_exact_mut(LANES);
    for dd in &mut d {
        for l in 0..LANES {
            dd[l] /= a;
        }
    }
    for dd in d.into_remainder() {
        *dd /= a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        acc
    }

    #[test]
    fn row_dot_bit_identical_to_scalar() {
        // Adversarial values: wide exponent spread so any reassociation
        // of the sum changes the rounding.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13, 64, 65] {
            let cols: Vec<usize> = (0..n).map(|k| (k * 7) % (n.max(1))).collect();
            let vals: Vec<f64> = (0..n)
                .map(|k| ((k as f64) - 2.5) * (10f64).powi((k % 9) as i32 - 4))
                .collect();
            let x: Vec<f64> = (0..n.max(1))
                .map(|k| ((k * 13 % 7) as f64 - 3.0) * 1.7)
                .collect();
            let a = row_dot(&cols, &vals, &x);
            let b = scalar_dot(&cols, &vals, &x);
            assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn axpy_and_scale_bit_identical() {
        for n in [0usize, 1, 4, 6, 9, 33] {
            let src: Vec<f64> = (0..n).map(|k| (k as f64) * 0.3 - 1.0).collect();
            let mut d1: Vec<f64> = (0..n).map(|k| (k as f64).sin()).collect();
            let mut d2 = d1.clone();
            axpy_neg(&mut d1, &src, 0.7);
            for (d, &s) in d2.iter_mut().zip(&src) {
                *d -= 0.7 * s;
            }
            assert_eq!(d1, d2);
            scale_div(&mut d1, 3.1);
            for d in d2.iter_mut() {
                *d /= 3.1;
            }
            assert_eq!(d1, d2);
        }
    }
}
