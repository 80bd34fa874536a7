//! Permutation vectors with precomputed inverses.

/// A permutation of `0..n`.
///
/// Stored as `to_old`: `to_old[new] = old`, i.e. position `new` of the
/// permuted object is taken from position `old` of the original. The
/// inverse map `to_new` (`to_new[old] = new`) is precomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Perm {
    to_old: Vec<usize>,
    to_new: Vec<usize>,
}

impl Perm {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        Perm {
            to_old: v.clone(),
            to_new: v,
        }
    }

    /// Builds a permutation from its `to_old` representation.
    ///
    /// # Panics
    ///
    /// Panics if `to_old` is not a permutation of `0..n`.
    pub fn from_to_old(to_old: Vec<usize>) -> Self {
        let n = to_old.len();
        let mut to_new = vec![usize::MAX; n];
        for (new, &old) in to_old.iter().enumerate() {
            assert!(
                old < n,
                "index {old} out of range in permutation of length {n}"
            );
            assert!(
                to_new[old] == usize::MAX,
                "duplicate index {old} in permutation"
            );
            to_new[old] = new;
        }
        Perm { to_old, to_new }
    }

    /// Builds a permutation from its `to_new` (inverse) representation.
    pub fn from_to_new(to_new: Vec<usize>) -> Self {
        Perm::from_to_old(invert(&to_new))
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.to_old.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.to_old.is_empty()
    }

    /// Old index at new position `new`.
    pub fn to_old(&self, new: usize) -> usize {
        self.to_old[new]
    }

    /// New position of old index `old`.
    pub fn to_new(&self, old: usize) -> usize {
        self.to_new[old]
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Perm {
        Perm {
            to_old: self.to_new.clone(),
            to_new: self.to_old.clone(),
        }
    }

    /// Composition: applying `self` *after* `first`.
    ///
    /// `(self ∘ first).to_old(new) == first.to_old(self.to_old(new))`.
    pub fn compose(&self, first: &Perm) -> Perm {
        assert_eq!(self.len(), first.len());
        let to_old: Vec<usize> = (0..self.len())
            .map(|i| first.to_old(self.to_old(i)))
            .collect();
        Perm::from_to_old(to_old)
    }

    /// Applies the permutation to a slice: `out[new] = x[to_old(new)]`.
    pub fn apply<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.to_old.iter().map(|&old| x[old]).collect()
    }

    /// Applies the inverse permutation: `out[old] = x[to_new(old)]`.
    pub fn apply_inverse<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.to_new.iter().map(|&new| x[new]).collect()
    }
}

/// Inverts a permutation vector (panics if not a permutation).
fn invert(p: &[usize]) -> Vec<usize> {
    let n = p.len();
    let mut inv = vec![usize::MAX; n];
    for (i, &v) in p.iter().enumerate() {
        assert!(v < n, "index out of range");
        assert!(inv[v] == usize::MAX, "duplicate index");
        inv[v] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_fixed_point() {
        let p = Perm::identity(5);
        for i in 0..5 {
            assert_eq!(p.to_old(i), i);
            assert_eq!(p.to_new(i), i);
        }
        let x = [10, 20, 30, 40, 50];
        assert_eq!(p.apply(&x), x.to_vec());
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Perm::from_to_old(vec![2, 0, 3, 1]);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = p.apply(&x);
        assert_eq!(y, vec![3.0, 1.0, 4.0, 2.0]);
        assert_eq!(p.apply_inverse(&y), x.to_vec());
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn compose_matches_sequential_application() {
        let p1 = Perm::from_to_old(vec![1, 2, 0]);
        let p2 = Perm::from_to_old(vec![2, 0, 1]);
        let x = [10, 20, 30];
        let seq = p2.apply(&p1.apply(&x));
        let comp = p2.compose(&p1).apply(&x);
        assert_eq!(seq, comp);
    }

    #[test]
    fn to_new_is_inverse_of_to_old() {
        let p = Perm::from_to_old(vec![3, 1, 0, 2]);
        for new in 0..4 {
            assert_eq!(p.to_new(p.to_old(new)), new);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_duplicates() {
        Perm::from_to_old(vec![0, 0, 1]);
    }

    #[test]
    fn from_to_new_consistency() {
        let p = Perm::from_to_old(vec![2, 0, 1]);
        let q = Perm::from_to_new((0..3).map(|i| p.to_new(i)).collect());
        assert_eq!(p, q);
    }
}
