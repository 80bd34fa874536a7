//! Content fingerprinting for sparse matrices.
//!
//! The solver service caches expensive `Pdslin` factorizations keyed by
//! the *content* of the input matrix, not by where it came from: two
//! requests naming the same generated analogue, or two paths to
//! byte-identical Matrix Market files, must map to the same cache entry.
//! [`csr_fingerprint`] hashes the full CSR image (shape, row pointers,
//! column indices, and the exact bit patterns of the values), so any
//! structural or numerical change — including a sign flip or a
//! `-0.0`/`+0.0` swap — produces a different key.
//!
//! The matrix digests fold whole 64-bit words, word `i` of a slice into
//! lane `i mod 4` of four independent multiply–xorshift lanes, so the
//! multiplies of neighbouring words overlap instead of forming one
//! dependency chain. Each step is a bijection of its lane's state for a
//! fixed word and of the word for a fixed state, and the lanes are
//! combined by the same step, so changing any single word always changes
//! the digest. The digests live only in memory (cache keys, the driver's
//! pattern check); nothing persists them.
//!
//! [`Fnv64`] is the byte-wise FNV-1a hasher for small keys (request
//! specs, drift seeds, solution fingerprints), whose values are pinned.
//!
//! Neither hash is collision-resistant against adversaries; each is a
//! cache key, not a security boundary. A collision costs a wrong cache
//! hit on deliberately crafted inputs, which the service tolerates no
//! worse than any content-addressed cache would.

use crate::Csr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over words.
///
/// Kept deliberately tiny (no `std::hash::Hasher` impl) so call sites
/// state exactly which words enter the digest, in which order.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher in the FNV-1a initial state.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Folds one byte into the digest.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Folds a 64-bit word (little-endian bytes) into the digest.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Folds a float's exact bit pattern into the digest.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds every byte of a string into the digest, length-prefixed so
    /// `("ab", "c")` and `("a", "bc")` diverge.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.as_bytes() {
            self.write_u8(*b);
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Odd multiplier of the lane step (the 64-bit golden ratio).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Four independent multiply–xorshift lanes over 64-bit words.
struct Lanes([u64; 4]);

impl Lanes {
    /// Lanes seeded apart, so equal words in different lanes diverge.
    fn new() -> Lanes {
        Lanes([
            0x243f_6a88_85a3_08d3,
            0x1319_8a2e_0370_7344,
            0xa409_3822_299f_31d0,
            0x082e_fa98_ec4e_6c89,
        ])
    }

    #[inline(always)]
    fn step(h: u64, w: u64) -> u64 {
        let x = (h ^ w).wrapping_mul(LANE_MUL);
        x ^ (x >> 29)
    }

    /// Folds `words`, word `i` into lane `i mod 4`.
    fn fold<T: Copy>(&mut self, words: &[T], bits: impl Fn(T) -> u64) {
        let mut quads = words.chunks_exact(4);
        for q in &mut quads {
            for (h, &w) in self.0.iter_mut().zip(q) {
                *h = Lanes::step(*h, bits(w));
            }
        }
        for (h, &w) in self.0.iter_mut().zip(quads.remainder()) {
            *h = Lanes::step(*h, bits(w));
        }
    }

    /// Combines the lanes (in order, by the lane step) into the digest.
    fn finish(&self) -> u64 {
        let h = self.0.iter().fold(0, |acc, &lane| Lanes::step(acc, lane));
        Lanes::step(h, h >> 32)
    }
}

/// Folds the shape, row pointers and column indices.
fn fold_pattern(h: &mut Lanes, a: &Csr) {
    h.fold(&[a.nrows(), a.ncols()], |n| n as u64);
    h.fold(a.indptr(), |p| p as u64);
    h.fold(a.indices(), |j| j as u64);
}

/// The 64-bit content fingerprint of a CSR matrix: shape, sparsity
/// pattern, and exact value bits. Equal matrices always agree;
/// distinct matrices disagree except under (astronomically unlikely,
/// non-adversarial) collisions.
pub fn csr_fingerprint(a: &Csr) -> u64 {
    let mut h = Lanes::new();
    fold_pattern(&mut h, a);
    h.fold(a.values(), f64::to_bits);
    h.finish()
}

/// Fingerprint of the *pattern* only: shape, row pointers, and column
/// indices — the part of a matrix the symbolic setup pipeline depends
/// on. Two matrices with the same pattern but different values agree
/// here and disagree on [`csr_value_fingerprint`]; sequence solvers use
/// the pair as a split cache key.
pub fn csr_pattern_fingerprint(a: &Csr) -> u64 {
    let mut h = Lanes::new();
    fold_pattern(&mut h, a);
    h.finish()
}

/// Fingerprint of the value bits only (exact `f64` bit patterns, in
/// storage order). Only meaningful alongside a matching
/// [`csr_pattern_fingerprint`]; the pair together distinguishes exactly
/// what [`csr_fingerprint`] does.
pub fn csr_value_fingerprint(a: &Csr) -> u64 {
    let mut h = Lanes::new();
    h.fold(&[a.values().len() as u64], |n| n);
    h.fold(a.values(), f64::to_bits);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr {
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 4.0);
        c.push(0, 2, -1.0);
        c.push(1, 1, 3.0);
        c.push(2, 0, -1.0);
        c.push(2, 2, 5.0);
        c.to_csr()
    }

    #[test]
    fn equal_matrices_agree() {
        assert_eq!(csr_fingerprint(&sample()), csr_fingerprint(&sample()));
    }

    #[test]
    fn value_change_changes_the_fingerprint() {
        let a = sample();
        let mut b = sample();
        b.values_mut()[1] = -1.0000001;
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&b));
    }

    #[test]
    fn sign_of_zero_is_observed() {
        let mut a = sample();
        let mut b = sample();
        a.values_mut()[0] = 0.0;
        b.values_mut()[0] = -0.0;
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&b));
    }

    #[test]
    fn structure_change_changes_the_fingerprint() {
        let a = sample();
        let mut c = Coo::new(3, 3);
        // Same values, one entry moved to a different column.
        c.push(0, 0, 4.0);
        c.push(0, 1, -1.0);
        c.push(1, 1, 3.0);
        c.push(2, 0, -1.0);
        c.push(2, 2, 5.0);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&c.to_csr()));
    }

    #[test]
    fn shape_enters_the_digest() {
        let a = Csr::from_parts(2, 3, vec![0, 0, 0], vec![], vec![]);
        let b = Csr::from_parts(3, 2, vec![0, 0, 0, 0], vec![], vec![]);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&b));
    }

    #[test]
    fn split_fingerprints_separate_pattern_from_values() {
        let a = sample();
        let mut b = sample();
        b.values_mut()[2] = 7.5;
        // Same pattern, different values.
        assert_eq!(csr_pattern_fingerprint(&a), csr_pattern_fingerprint(&b));
        assert_ne!(csr_value_fingerprint(&a), csr_value_fingerprint(&b));
        // Different pattern, same value list.
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 4.0);
        c.push(0, 1, -1.0);
        c.push(1, 1, 3.0);
        c.push(2, 0, -1.0);
        c.push(2, 2, 5.0);
        let c = c.to_csr();
        assert_ne!(csr_pattern_fingerprint(&a), csr_pattern_fingerprint(&c));
        assert_eq!(csr_value_fingerprint(&a), csr_value_fingerprint(&c));
    }

    #[test]
    fn string_hashing_is_length_prefixed() {
        let mut h1 = Fnv64::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = Fnv64::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
