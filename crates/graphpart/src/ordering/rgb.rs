//! Recursive graph bisection (RGB) for sequence layout problems.
//!
//! The Mackenzie–Petri–Moffat / Dhulipala et al. "BP" algorithm: items
//! are laid out by recursively bisecting the current window in half and
//! greedily swapping items between the halves while the swap improves a
//! log-gap cost. The cost models the compressed size of the per-term
//! posting gaps, which is minimised exactly when items sharing terms sit
//! close together — the same locality a blocked triangular solve wants
//! when grouping right-hand-side columns with overlapping reach sets
//! (padded zeros are the price of grouping columns with *disjoint*
//! reaches).
//!
//! The implementation is generic over "items with term sets": each item
//! is a sorted list of term (row) ids. Everything is deterministic —
//! ties break on item id, and no randomised initialisation is used.

/// Tuning values of the recursive bisection. The solver's `rgb` RHS
/// ordering always runs [`RgbConfig::default`]; other values are for
/// tests and experiments that call [`rgb_order`] directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RgbConfig {
    /// Maximum swap iterations per bisection level.
    pub swap_iters: usize,
    /// Maximum recursion depth (each level halves the window).
    pub max_depth: usize,
    /// Windows at or below this size become leaves.
    pub min_partition: usize,
}

impl Default for RgbConfig {
    fn default() -> Self {
        RgbConfig {
            swap_iters: 10,
            max_depth: 24,
            min_partition: 8,
        }
    }
}

/// Orders `items` (each a sorted list of term ids `< nterms`) by
/// recursive graph bisection; returns a permutation of `0..items.len()`.
///
/// Leaves keep their items sorted by `(first term, id)` — the postorder
/// key — so the base layout inside an un-bisected window is already the
/// first-nonzero clustering heuristic.
pub fn rgb_order(items: &[Vec<usize>], nterms: usize, cfg: &RgbConfig) -> Vec<usize> {
    let m = items.len();
    let mut order: Vec<usize> = (0..m).collect();
    if m <= 1 {
        return order;
    }
    let mut scratch = Scratch {
        deg_left: vec![0i64; nterms],
        deg_right: vec![0i64; nterms],
        touched: Vec::new(),
        gains: vec![0.0f64; m],
    };
    recurse(items, &mut order, 0, m, 0, cfg, &mut scratch);
    order
}

struct Scratch {
    deg_left: Vec<i64>,
    deg_right: Vec<i64>,
    touched: Vec<usize>,
    gains: Vec<f64>,
}

/// Leaf layout: sort the window by `(min term, id)`.
fn leaf_sort(items: &[Vec<usize>], order: &mut [usize]) {
    order.sort_by_key(|&j| (items[j].first().copied().unwrap_or(usize::MAX), j));
}

fn recurse(
    items: &[Vec<usize>],
    order: &mut [usize],
    lo: usize,
    hi: usize,
    depth: usize,
    cfg: &RgbConfig,
    sc: &mut Scratch,
) {
    let len = hi - lo;
    if len <= cfg.min_partition.max(2) || depth >= cfg.max_depth {
        leaf_sort(items, &mut order[lo..hi]);
        return;
    }
    let mid = lo + len / 2;
    // Seed the split from the postorder key so the swap phase starts
    // from a sensible layout rather than the incoming (arbitrary) one.
    leaf_sort(items, &mut order[lo..hi]);
    for _ in 0..cfg.swap_iters {
        if !swap_pass(items, order, lo, mid, hi, sc) {
            break;
        }
    }
    recurse(items, order, lo, mid, depth + 1, cfg, sc);
    recurse(items, order, mid, hi, depth + 1, cfg, sc);
}

/// The BP move-gain of term `t`: the log-gap cost of the term before
/// minus after moving one of its items across, for both directions.
///
/// cost(d, n) = d · log2(n / (d + 1)) — the classical approximation of
/// the gap-encoded posting cost of `d` occurrences in a window of `n`.
fn term_cost(d: i64, n: f64) -> f64 {
    if d <= 0 {
        0.0
    } else {
        d as f64 * (n / (d as f64 + 1.0)).log2()
    }
}

/// One gain-ordered pair-swap pass over the bisection `[lo, mid) |
/// [mid, hi)`. Returns whether any swap was applied.
fn swap_pass(
    items: &[Vec<usize>],
    order: &mut [usize],
    lo: usize,
    mid: usize,
    hi: usize,
    sc: &mut Scratch,
) -> bool {
    let n1 = (mid - lo) as f64;
    let n2 = (hi - mid) as f64;
    // Per-term degrees within the window halves.
    for &t in &sc.touched {
        sc.deg_left[t] = 0;
        sc.deg_right[t] = 0;
    }
    sc.touched.clear();
    for (p, &j) in order[lo..hi].iter().enumerate() {
        let left = p < mid - lo;
        for &t in &items[j] {
            if sc.deg_left[t] == 0 && sc.deg_right[t] == 0 {
                sc.touched.push(t);
            }
            if left {
                sc.deg_left[t] += 1;
            } else {
                sc.deg_right[t] += 1;
            }
        }
    }
    // Move gain of every item: cost(now) − cost(after moving it over).
    for &j in &order[lo..hi] {
        sc.gains[j] = 0.0;
    }
    for (p, &j) in order[lo..hi].iter().enumerate() {
        let left = p < mid - lo;
        let mut g = 0.0;
        for &t in &items[j] {
            let (d1, d2) = (sc.deg_left[t], sc.deg_right[t]);
            let now = term_cost(d1, n1) + term_cost(d2, n2);
            let after = if left {
                term_cost(d1 - 1, n1) + term_cost(d2 + 1, n2)
            } else {
                term_cost(d1 + 1, n1) + term_cost(d2 - 1, n2)
            };
            g += now - after;
        }
        sc.gains[j] = g;
    }
    // Highest-gain candidates on each side, ties on id for determinism.
    let key = |j: usize| (std::cmp::Reverse(FloatOrd(sc.gains[j])), j);
    let mut left_pos: Vec<usize> = (lo..mid).collect();
    let mut right_pos: Vec<usize> = (mid..hi).collect();
    left_pos.sort_by_key(|&p| key(order[p]));
    right_pos.sort_by_key(|&p| key(order[p]));
    let mut swapped = false;
    for (&pl, &pr) in left_pos.iter().zip(&right_pos) {
        // The pairwise gain estimate ignores the interaction between the
        // two moved items; requiring a strictly positive combined gain
        // keeps the pass monotone in practice and guarantees termination
        // (gains are recomputed each pass, and a pass with no positive
        // pair stops the loop).
        if sc.gains[order[pl]] + sc.gains[order[pr]] <= 0.0 {
            break;
        }
        order.swap(pl, pr);
        swapped = true;
    }
    swapped
}

/// Total-order wrapper for finite f64 sort keys.
#[derive(PartialEq, PartialOrd)]
struct FloatOrd(f64);

impl Eq for FloatOrd {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(order: &[usize], m: usize) {
        let mut s = order.to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..m).collect::<Vec<_>>());
    }

    #[test]
    fn returns_valid_permutation() {
        let items: Vec<Vec<usize>> = (0..13).map(|j| vec![j % 5, 5 + j % 3]).collect();
        let order = rgb_order(&items, 10, &RgbConfig::default());
        is_permutation(&order, 13);
    }

    #[test]
    fn groups_identical_items_together() {
        // Two families of identical term sets, interleaved on input.
        let items: Vec<Vec<usize>> = (0..16)
            .map(|j| {
                if j % 2 == 0 {
                    vec![0, 1, 2]
                } else {
                    vec![20, 21, 22]
                }
            })
            .collect();
        let cfg = RgbConfig {
            min_partition: 2,
            ..Default::default()
        };
        let order = rgb_order(&items, 30, &cfg);
        is_permutation(&order, 16);
        // After ordering, the two families must not interleave: the
        // first half of the layout is entirely one family.
        let first_family = order[0] % 2;
        let count_first: usize = order
            .iter()
            .take(8)
            .filter(|&&j| j % 2 == first_family)
            .count();
        assert_eq!(count_first, 8, "families must separate, got {order:?}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(rgb_order(&[], 0, &RgbConfig::default()).is_empty());
        assert_eq!(rgb_order(&[vec![0]], 1, &RgbConfig::default()), vec![0]);
    }

    #[test]
    fn deterministic_across_runs() {
        let items: Vec<Vec<usize>> = (0..40)
            .map(|j| vec![(j * 7) % 17, (j * 13) % 17, (j * 3) % 17])
            .collect();
        let a = rgb_order(&items, 17, &RgbConfig::default());
        let b = rgb_order(&items, 17, &RgbConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn depth_and_min_partition_are_respected() {
        let items: Vec<Vec<usize>> = (0..32).map(|j| vec![j]).collect();
        // max_depth = 0: a single leaf, i.e. plain postorder sort.
        let cfg = RgbConfig {
            max_depth: 0,
            ..Default::default()
        };
        let order = rgb_order(&items, 32, &cfg);
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        // Huge min_partition: same.
        let cfg = RgbConfig {
            min_partition: 1000,
            ..Default::default()
        };
        assert_eq!(rgb_order(&items, 32, &cfg), (0..32).collect::<Vec<_>>());
    }
}
