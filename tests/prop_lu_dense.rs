//! Property tests of the dense trailing block inside
//! `slu::LuFactors::{factorize, refactorize}` (docs/kernels.md, "Dense
//! trailing block"), against an oracle that shares no code with it: a
//! textbook dense LU with partial pivoting written below.
//!
//! Every property is checked with the hand-over to the dense kernel at
//! step 0, mid-way, never, and wherever the density rule puts it.
//!
//! **Stated bounds.** For every matrix here (order ≤ 300, condition
//! number ≤ ~1e6) and each of the four hand-over points, the solve's
//! normwise backward error `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` is at most
//! [`BACKWARD_BOUND`] and its distance to the oracle's solution,
//! `‖x − x̂‖∞ / ‖x̂‖∞`, at most [`FORWARD_BOUND`].

use matgen::circuit::{asic_like, g3_like};
use matgen::fusion::fusion_like;
use matgen::stencil::{cavity3d, cavity3d_graded, laplace2d, offsets_27pt, stencil3d};
use pdslin::subdomain::subdomain_ordering;
use slu::{LuConfig, LuError, LuFactors, RefactorizeError};
use sparsekit::{Budget, CancelToken, Coo, Csr, Perm, Rng64};

const BACKWARD_BOUND: f64 = 1e-13;
const FORWARD_BOUND: f64 = 1e-8;

// ---------------------------------------------------------------- oracle

/// Solves `A x = b` by dense Gaussian elimination with partial
/// pivoting on a row-major copy of `a`.
fn oracle_solve(a: &Csr, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut m = vec![vec![0f64; n + 1]; n];
    for i in 0..n {
        for (j, v) in a.row_iter(i) {
            m[i][j] = v;
        }
        m[i][n] = b[i];
    }
    for k in 0..n {
        let p = (k..n)
            .max_by(|&i, &j| m[i][k].abs().total_cmp(&m[j][k].abs()))
            .expect("k < n");
        m.swap(k, p);
        assert!(m[k][k] != 0.0, "oracle: singular at step {k}");
        for i in k + 1..n {
            let f = m[i][k] / m[k][k];
            if f != 0.0 {
                for j in k..=n {
                    m[i][j] -= f * m[k][j];
                }
            }
        }
    }
    let mut x = vec![0f64; n];
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|j| m[i][j] * x[j]).sum();
        x[i] = (m[i][n] - s) / m[i][i];
    }
    x
}

fn inf_norm(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

fn matrix_inf_norm(a: &Csr) -> f64 {
    (0..a.nrows())
        .map(|i| a.row_iter(i).map(|(_, v)| v.abs()).sum())
        .fold(0.0, f64::max)
}

fn backward_error(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0f64; b.len()];
    a.matvec_into(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    inf_norm(&r) / (matrix_inf_norm(a) * inf_norm(x) + inf_norm(b))
}

// -------------------------------------------------------------- matrices

/// One small instance of every `matgen` family.
fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("laplace2d", laplace2d(15, 15)),
        ("cavity3d", cavity3d(6, 6, 6, 2.0, true)),
        ("cavity3d_graded", cavity3d_graded(6, 6, 6, 4.0, 0.34)),
        (
            "stencil3d_27pt",
            stencil3d(6, 6, 6, &offsets_27pt(-1.0), 30.0),
        ),
        ("fusion_like", fusion_like(6, 6, 7, 211)),
        ("asic_like", asic_like(300, 680)),
        ("g3_like", g3_like(17, 17)),
    ]
}

/// An unsymmetric random matrix with about `density · n²` entries and a
/// diagonal that is strong but not dominant, so off-diagonal pivots
/// happen.
fn random_matrix(rng: &mut Rng64, n: usize, density: f64) -> Csr {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                c.push(i, i, sign * rng.f64_range(1.0, 3.0));
            } else if rng.f64() < density {
                c.push(i, j, rng.f64_range(-1.0, 1.0));
            }
        }
    }
    c.to_csr()
}

/// Densities on both sides of the step-0 rule (0.15) and of the
/// last-`L`-column rule, which fill pushes most of these across
/// mid-way.
fn synthetic() -> Vec<(String, Csr)> {
    let mut rng = Rng64::new(0xd5e);
    [0.01, 0.04, 0.10, 0.14, 0.16, 0.30, 0.60, 1.0]
        .iter()
        .map(|&d| (format!("random({d})"), random_matrix(&mut rng, 120, d)))
        .collect()
}

fn all_matrices() -> Vec<(String, Csr)> {
    let mut out: Vec<(String, Csr)> = zoo().into_iter().map(|(s, a)| (s.into(), a)).collect();
    out.extend(synthetic());
    out
}

/// Hand-over points: step 0, mid-way, never, and the density rule's.
fn switches(n: usize) -> [(&'static str, Option<usize>); 4] {
    [
        ("at 0", Some(0)),
        ("mid-way", Some(n / 2)),
        ("never", Some(n)),
        ("auto", None),
    ]
}

fn factor(a: &Csr, order: &Perm, at: Option<usize>) -> LuFactors {
    LuFactors::factorize_at(a, order, &LuConfig::default(), &Budget::unlimited(), at)
        .expect("matrix factors")
}

fn rhs(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.f64_range(-1.0, 1.0)).collect()
}

fn assert_same_bits(what: &str, x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), y.len(), "{what}: length");
    for (i, (u, v)) in x.iter().zip(y).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "{what}: entry {i}: {u} vs {v}");
    }
}

fn assert_same_factors(what: &str, f: &LuFactors, g: &LuFactors) {
    assert_eq!(f.l.rowind(), g.l.rowind(), "{what}: L pattern");
    assert_eq!(f.u.rowind(), g.u.rowind(), "{what}: U pattern");
    assert_same_bits(&format!("{what}: L"), f.l.values(), g.l.values());
    assert_same_bits(&format!("{what}: U"), f.u.values(), g.u.values());
}

// ------------------------------------------------------------ properties

#[test]
fn solves_agree_with_the_oracle_on_both_sides_of_the_switch() {
    let mut rng = Rng64::new(1);
    for (name, a) in all_matrices() {
        let n = a.nrows();
        assert!(n <= 300, "{name}: oracle is cubic");
        let b = rhs(&mut rng, n);
        let reference = oracle_solve(&a, &b);
        assert!(
            backward_error(&a, &reference, &b) <= BACKWARD_BOUND,
            "{name}: the oracle itself"
        );
        for order in [subdomain_ordering(&a), Perm::identity(n)] {
            let mut fills = Vec::new();
            for (label, at) in switches(n) {
                let f = factor(&a, &order, at);
                let x = f.solve(&b);
                let eta = backward_error(&a, &x, &b);
                assert!(eta <= BACKWARD_BOUND, "{name} {label}: backward {eta:e}");
                let diff: Vec<f64> = x.iter().zip(&reference).map(|(u, v)| u - v).collect();
                let fwd = inf_norm(&diff) / inf_norm(&reference);
                assert!(fwd <= FORWARD_BOUND, "{name} {label}: forward {fwd:e}");
                fills.push(f.fill());
            }
            // Same pivot rule, zeros dropped on emit: the dense block
            // must not grow the factors (pivot ties may flip, so allow
            // 1 % either way).
            let never = fills[2] as f64;
            for (fill, (label, _)) in fills.iter().zip(switches(n)) {
                assert!(
                    (*fill as f64 - never).abs() <= 0.01 * never,
                    "{name} {label}: fill {fill} vs all-sparse {never}"
                );
            }
        }
    }
}

#[test]
fn the_density_rule_fires_at_zero_midway_and_late() {
    let mut rng = Rng64::new(2);
    let full = random_matrix(&mut rng, 80, 1.0);
    assert_eq!(
        factor(&full, &Perm::identity(80), None).dense_start(),
        0,
        "a full matrix is dense from step 0"
    );
    let grid = laplace2d(15, 15);
    let start = factor(&grid, &subdomain_ordering(&grid), None).dense_start();
    assert!(
        (100..215).contains(&start),
        "a 2-D grid goes dense in its top separator, not at {start} of 225"
    );
    // A tridiagonal matrix never does: two columns are left when the
    // last L column (one entry) first counts as dense.
    let n = 50;
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 2.0);
        if i + 1 < n {
            c.push_sym(i, i + 1, -1.0);
        }
    }
    let start = factor(&c.to_csr(), &Perm::identity(n), None).dense_start();
    assert_eq!(start, n - 2);
}

#[test]
fn refactorize_is_bitwise_factorize_across_the_switch() {
    for (name, a) in all_matrices() {
        let n = a.nrows();
        let order = subdomain_ordering(&a);
        let drifted = matgen::sequence(&a, 2, 0.01).swap_remove(1);
        let mut rng = Rng64::new(3);
        let b = rhs(&mut rng, n);
        for (label, at) in switches(n) {
            let what = format!("{name} {label}");
            let fresh = factor(&a, &order, at);
            let mut replay = fresh.clone();
            replay.refactorize(&a).expect("identical values replay");
            assert_same_factors(&what, &fresh, &replay);
            // Drift and back: the replay factors the drifted matrix,
            // and returning to the original values restores every bit.
            match replay.refactorize(&drifted) {
                Ok(()) => {
                    let x = replay.solve(&b);
                    let eta = backward_error(&drifted, &x, &b);
                    assert!(eta <= 1e-10, "{what}: drifted backward {eta:e}");
                }
                // An entry that cancelled exactly under the original
                // values has no slot; that is a typed refusal, and it
                // must not depend on where the switch fired.
                Err(RefactorizeError::PatternDeviation { .. }) => {
                    let mut sparse = factor(&a, &order, Some(n));
                    assert!(
                        matches!(
                            sparse.refactorize(&drifted),
                            Err(RefactorizeError::PatternDeviation { .. })
                        ),
                        "{what}: only the dense block refused the drift"
                    );
                }
                Err(e) => panic!("{what}: drift refused with {e}"),
            }
            replay.refactorize(&a).expect("round trip");
            assert_same_factors(&format!("{what} round trip"), &fresh, &replay);
            assert_same_bits(&what, &fresh.solve(&b), &replay.solve(&b));
        }
    }
}

/// The one way factors travel is by value: a checkpoint clones them and
/// `Pdslin::resume` solves through the clone. A clone taken before the
/// first solve builds its own lazy solve plan, and a clone taken after
/// carries the built one; both must solve bit-identically to the
/// original, on both sides of the dense switch.
#[test]
fn transported_factors_solve_bit_identically() {
    let mut rng = Rng64::new(4);
    for (name, a) in all_matrices() {
        let n = a.nrows();
        let order = subdomain_ordering(&a);
        let b = rhs(&mut rng, n);
        for (label, at) in switches(n) {
            let f = factor(&a, &order, at);
            let unplanned = f.clone();
            let x = f.solve(&b);
            let planned = f.clone();
            assert_same_bits(
                &format!("{name} {label} clone before the plan"),
                &x,
                &unplanned.solve(&b),
            );
            assert_same_bits(
                &format!("{name} {label} clone after the plan"),
                &x,
                &planned.solve(&b),
            );
        }
    }
}

#[test]
fn budget_interrupts_inside_the_dense_block() {
    // 40 columns, dense from step 0: the scatter loop ticks 40 times
    // and the budget is polled every 64th tick, so the poll that sees
    // the cancellation is the dense kernel's 24th step.
    let mut rng = Rng64::new(5);
    let a = random_matrix(&mut rng, 40, 1.0);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let expired = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
    for budget in [Budget::unlimited().with_token(cancelled), expired] {
        let err =
            LuFactors::factorize_budgeted(&a, &Perm::identity(40), &LuConfig::default(), &budget)
                .expect_err("interrupted");
        assert!(
            matches!(err, LuError::Interrupted { step: 23, .. }),
            "got {err:?}"
        );
    }
}

#[test]
fn singular_pivots_inside_the_block_are_typed_or_perturbed() {
    let n = 30;
    let mut rng = Rng64::new(6);
    let full = random_matrix(&mut rng, n, 1.0);
    let perturbing = LuConfig {
        diag_perturb: Some(1e-8),
        ..LuConfig::default()
    };
    // An empty row: it is never chosen, and is all that is left at the
    // last step.
    let mut c = Coo::new(n, n);
    for i in (0..n).filter(|&i| i != 7) {
        for (j, v) in full.row_iter(i) {
            c.push(i, j, v);
        }
    }
    let empty_row = c.to_csr();
    // Two equal columns: the second cancels to rounding noise.
    let mut c = Coo::new(n, n);
    for i in 0..n {
        for (j, v) in full.row_iter(i) {
            c.push(i, j, if j == 20 { full.get(i, 10) } else { v });
        }
    }
    let twin_columns = c.to_csr();
    for at in [Some(0), Some(12), None] {
        let run = |a: &Csr, cfg: &LuConfig| {
            LuFactors::factorize_at(a, &Perm::identity(n), cfg, &Budget::unlimited(), at)
        };
        let err = run(&empty_row, &LuConfig::default()).expect_err("singular");
        assert_eq!(err, LuError::Singular { step: n - 1 }, "{at:?}");
        let f = run(&empty_row, &perturbing).expect("perturbation completes it");
        assert_eq!(f.perturbed, vec![n - 1], "{at:?}");
        assert!(f.solve(&vec![1.0; n]).iter().all(|v| v.is_finite()));
        // Near-singular is not an error without perturbation (the
        // pivot is tiny, not zero), and a recorded step with it.
        run(&twin_columns, &LuConfig::default()).expect("tiny pivot, not zero");
        let f = run(&twin_columns, &perturbing).expect("perturbed");
        assert_eq!(f.perturbed, vec![20], "{at:?}");
    }
}

#[test]
fn off_pattern_entries_in_tail_columns_are_pattern_mismatch() {
    // Two tridiagonal chains of 15 columns, then two full 15 × 15
    // blocks, each coupled to the end of its own chain only: the
    // halves never meet, so the tail's off-diagonal blocks stay empty.
    let (h, n) = (30, 60);
    let build = |extra: Option<(usize, usize)>| {
        let mut rng = Rng64::new(7);
        let mut c = Coo::new(n, n);
        for i in 0..h {
            c.push(i, i, 4.0);
            if i + 1 < h && i != 14 {
                c.push_sym(i, i + 1, -1.0);
            }
        }
        for (chain_end, block) in [(14, 30..45), (29, 45..60)] {
            for i in block.clone() {
                c.push_sym(chain_end, i, 0.5);
                for j in block.clone() {
                    let v = rng.f64_range(-1.0, 1.0);
                    c.push(i, j, if i == j { 8.0 } else { v });
                }
            }
        }
        if let Some((i, j)) = extra {
            c.push(i, j, 0.25);
        }
        c.to_csr()
    };
    let a = build(None);
    let fresh = factor(&a, &Perm::identity(n), Some(h));
    assert_eq!(fresh.dense_start(), h);
    // A head row the tail column never reached.
    let mut f = fresh.clone();
    assert_eq!(
        f.refactorize(&build(Some((3, 50)))),
        Err(RefactorizeError::PatternMismatch { step: 50 })
    );
    // A block row the stored pattern has no slot for.
    let mut f = fresh.clone();
    assert_eq!(
        f.refactorize(&build(Some((52, 35)))),
        Err(RefactorizeError::PatternMismatch { step: 35 })
    );
    // The same pattern still replays.
    let mut f = fresh.clone();
    f.refactorize(&a).expect("same pattern");
    assert_same_factors("replay", &fresh, &f);
}
