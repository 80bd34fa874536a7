//! Randomized property tests of the core data structures and the
//! invariants the solver stack relies on. Each test sweeps a batch of
//! deterministic SplitMix64 seeds, so failures reproduce exactly.

use sparsekit::{Coo, Csr, Perm, Rng64};

/// Random sparse square matrix with a guaranteed nonzero, dominant
/// diagonal (so it is factorisable without pivoting drama).
fn diag_dominant(rng: &mut Rng64, n_max: usize) -> Csr {
    let n = rng.range(2, n_max);
    let nnz = rng.below(4 * n);
    let mut c = Coo::new(n, n);
    let mut rowsum = vec![0.0f64; n];
    for _ in 0..nnz {
        let i = rng.below(n);
        let j = rng.below(n);
        let v = rng.f64_range(-1.0, 1.0);
        if i != j {
            c.push(i, j, v);
            rowsum[i] += v.abs();
        }
    }
    for (i, rs) in rowsum.iter().enumerate() {
        c.push(i, i, 2.0 + rs);
    }
    c.to_csr()
}

fn permutation(rng: &mut Rng64, n: usize) -> Perm {
    let mut v: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut v);
    Perm::from_to_old(v)
}

#[test]
fn transpose_is_involutive() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 24);
        assert_eq!(a.transpose().transpose(), a, "seed {seed}");
    }
}

#[test]
fn transpose_preserves_entries() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 16);
        let t = a.transpose();
        for i in 0..a.nrows() {
            for (j, v) in a.row_iter(i) {
                assert_eq!(t.get(j, i), v, "seed {seed}");
            }
        }
    }
}

#[test]
fn symmetrize_abs_is_symmetric_and_dominates() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 20);
        let s = a.symmetrize_abs();
        assert!(s.pattern_symmetric(), "seed {seed}");
        assert!(s.value_symmetric(1e-12), "seed {seed}");
        // |A| + |Aᵀ| ≥ |A| entrywise.
        for i in 0..a.nrows() {
            for (j, v) in a.row_iter(i) {
                assert!(s.get(i, j) >= v.abs() - 1e-14, "seed {seed}");
            }
        }
    }
}

#[test]
fn csr_csc_roundtrip() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 24);
        assert_eq!(a.to_csc().to_csr(), a, "seed {seed}");
    }
}

#[test]
fn matvec_linearity() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 16);
        let n = a.ncols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let axy = {
            let sum: Vec<f64> = x.iter().zip(&y).map(|(u, v)| u + v).collect();
            a.matvec(&sum)
        };
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..n {
            assert!((axy[i] - ax[i] - ay[i]).abs() < 1e-10, "seed {seed}");
        }
    }
}

#[test]
fn spgemm_with_identity_is_identity() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 16);
        let i = Csr::identity(a.nrows());
        let left = sparsekit::spgemm::spgemm(&i, &a);
        assert_eq!(left, a, "seed {seed}");
    }
}

#[test]
fn lu_solves_diag_dominant() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 20);
        let n = a.nrows();
        let f = slu::LuFactors::factorize(&a, &Perm::identity(n), &slu::LuConfig::default());
        let f = f.expect("diagonally dominant matrices must factor");
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let x = f.solve(&b);
        assert!(
            sparsekit::ops::residual_inf_norm(&a, &x, &b) < 1e-8,
            "seed {seed}"
        );
    }
}

#[test]
fn lu_respects_any_column_permutation() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 14);
        let n = a.nrows();
        let q = permutation(&mut rng, n);
        let f = slu::LuFactors::factorize(&a, &q, &slu::LuConfig::default()).unwrap();
        let b = vec![1.0; n];
        let x = f.solve(&b);
        assert!(
            sparsekit::ops::residual_inf_norm(&a, &x, &b) < 1e-8,
            "seed {seed}"
        );
    }
}

#[test]
fn etree_postorder_children_precede_parents() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let a = diag_dominant(&mut rng, 24);
        let s = a.symmetrize_abs();
        let parent = slu::etree(&s);
        let post = slu::postorder(&parent);
        for v in 0..s.nrows() {
            if parent[v] != slu::etree::NO_PARENT {
                assert!(post.to_new(v) < post.to_new(parent[v]), "seed {seed}");
            }
        }
    }
}

#[test]
fn perm_apply_roundtrip() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let p = permutation(&mut rng, 12);
        let x: Vec<i64> = (0..12).map(|i| i * i).collect();
        let y = p.apply(&x);
        assert_eq!(p.apply_inverse(&y), x, "seed {seed}");
    }
}

#[test]
fn perm_compose_matches_sequential() {
    for seed in 0..48 {
        let mut rng = Rng64::new(seed);
        let p = permutation(&mut rng, 10);
        let q = permutation(&mut rng, 10);
        let x: Vec<i64> = (0..10).collect();
        let seq = q.apply(&p.apply(&x));
        let comp = q.compose(&p).apply(&x);
        assert_eq!(seq, comp, "seed {seed}");
    }
}

#[test]
fn soed_equals_con1_plus_cnet() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let nv = 12usize;
        let nparts = rng.range(2, 5);
        let nnets = rng.range(1, 20);
        let pins: Vec<Vec<usize>> = (0..nnets)
            .map(|_| {
                let len = rng.below(6);
                let mut p: Vec<usize> = (0..len).map(|_| rng.below(nv)).collect();
                p.sort_unstable();
                p.dedup();
                p
            })
            .collect();
        let ncost = vec![1i64; pins.len()];
        let h = hypergraph::Hypergraph::from_pin_lists(nv, &pins, vec![1; nv], 1, ncost);
        let part: Vec<usize> = (0..nv).map(|v| v % nparts).collect();
        let cs = hypergraph::cut_sizes(&h, &part, nparts);
        assert_eq!(cs.soed, cs.con1 + cs.cnet, "seed {seed}");
        assert!(cs.con1 >= 0 && cs.cnet >= 0, "seed {seed}");
    }
}

#[test]
fn exact_partition_always_hits_sizes() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let nv = 30usize;
        let nedges = rng.range(10, 60);
        let pins: Vec<Vec<usize>> = (0..nedges)
            .filter_map(|_| {
                let u = rng.below(nv);
                let v = rng.below(nv);
                (u != v).then(|| vec![u.min(v), u.max(v)])
            })
            .collect();
        if pins.is_empty() {
            continue;
        }
        let ncost = vec![1i64; pins.len()];
        let h = hypergraph::Hypergraph::from_pin_lists(nv, &pins, vec![1; nv], 1, ncost);
        let sizes = [10usize, 10, 10];
        let part = hypergraph::recursive::recursive_partition_exact(
            &h,
            &sizes,
            &hypergraph::bisect::BisectConfig::default(),
        );
        let mut counts = [0usize; 3];
        for &p in &part {
            counts[p] += 1;
        }
        assert_eq!(counts, sizes, "seed {seed}");
    }
}

// ----- parallel kernels ≡ serial kernels (exact equality) -----

/// Random sparse square matrix of a *fixed* dimension (so two draws can
/// be multiplied together).
fn rand_square(rng: &mut Rng64, n: usize) -> Csr {
    let nnz = rng.below(5 * n);
    let mut c = Coo::new(n, n);
    for _ in 0..nnz {
        c.push(rng.below(n), rng.below(n), rng.f64_range(-1.0, 1.0));
    }
    // Guarantee at least one entry so the product is not trivially empty.
    c.push(rng.below(n), rng.below(n), 1.0);
    c.to_csr()
}

/// Random unit-lower-triangular matrix in CSC form.
fn rand_unit_lower(rng: &mut Rng64, n: usize) -> sparsekit::Csc {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 1.0);
    }
    let extras = rng.below(3 * n);
    for _ in 0..extras {
        let j = rng.below(n.saturating_sub(1).max(1));
        let i = rng.range(j + 1, n);
        c.push(i, j, rng.f64_range(-0.9, 0.9));
    }
    c.to_csr().to_csc()
}

/// Random right-hand-side columns with sorted, unique patterns.
fn rand_sparse_cols(rng: &mut Rng64, n: usize, ncols: usize) -> Vec<slu::trisolve::SparseVec> {
    (0..ncols)
        .map(|_| {
            let len = rng.range(1, (n / 2).max(2));
            let mut idx: Vec<usize> = (0..len).map(|_| rng.below(n)).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals: Vec<f64> = idx.iter().map(|_| rng.f64_range(-1.0, 1.0)).collect();
            slu::trisolve::SparseVec::new(idx, vals)
        })
        .collect()
}

#[test]
fn parallel_spgemm_equals_serial_exactly() {
    use sparsekit::spgemm::{spgemm, spgemm_checked};
    let budget = sparsekit::Budget::unlimited();
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(2, 24);
        let a = rand_square(&mut rng, n);
        let b = rand_square(&mut rng, n);
        let serial = spgemm(&a, &b);
        for workers in [1usize, 2, 4, 7] {
            let par = spgemm_checked(&a, &b, &budget, workers).expect("unlimited budget");
            assert_eq!(par, serial, "seed {seed}, {workers} workers");
        }
    }
}

#[test]
fn parallel_blocked_solve_equals_serial_exactly() {
    let budget = sparsekit::Budget::unlimited();
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        let n = rng.range(4, 24);
        let l = rand_unit_lower(&mut rng, n);
        let ncols = rng.range(1, 12);
        let cols = rand_sparse_cols(&mut rng, n, ncols);
        let mut order: Vec<usize> = (0..ncols).collect();
        rng.shuffle(&mut order);
        let block_size = rng.range(1, 5);
        let (serial_sols, serial_stats) =
            slu::solve_in_blocks_ordered(&l, true, &cols, &order, block_size, 1, &budget)
                .expect("unlimited budget");
        for workers in [2usize, 4, 7] {
            let (par_sols, par_stats) =
                slu::solve_in_blocks_ordered(&l, true, &cols, &order, block_size, workers, &budget)
                    .expect("unlimited budget");
            assert_eq!(par_stats, serial_stats, "seed {seed}, {workers} workers");
            assert_eq!(par_sols.len(), serial_sols.len(), "seed {seed}");
            for (p, s) in par_sols.iter().zip(&serial_sols) {
                assert_eq!(p.indices, s.indices, "seed {seed}, {workers} workers");
                assert_eq!(p.values, s.values, "seed {seed}, {workers} workers");
            }
        }
    }
}

#[test]
fn cancelled_budget_interrupts_parallel_kernels() {
    use sparsekit::spgemm::{spgemm_checked, SpgemmError};
    let token = sparsekit::CancelToken::new();
    token.cancel();
    let budget = sparsekit::Budget::default().with_token(token);
    let mut rng = Rng64::new(7);
    let a = rand_square(&mut rng, 20);
    let l = rand_unit_lower(&mut rng, 20);
    let cols = rand_sparse_cols(&mut rng, 20, 8);
    let order: Vec<usize> = (0..8).collect();
    for workers in [1usize, 2, 4] {
        match spgemm_checked(&a, &a, &budget, workers) {
            Err(SpgemmError::Interrupted(sparsekit::BudgetInterrupt::Cancelled)) => {}
            other => panic!("{workers} workers: expected Cancelled, got {other:?}"),
        }
        match slu::solve_in_blocks_ordered(&l, true, &cols, &order, 3, workers, &budget) {
            Err(sparsekit::BudgetInterrupt::Cancelled) => {}
            other => panic!("{workers} workers: expected Cancelled, got {other:?}"),
        }
    }
}

#[test]
fn expired_deadline_interrupts_parallel_kernels() {
    use sparsekit::spgemm::{spgemm_checked, SpgemmError};
    let budget = sparsekit::Budget::default().with_deadline(std::time::Duration::ZERO);
    let mut rng = Rng64::new(11);
    let a = rand_square(&mut rng, 20);
    let l = rand_unit_lower(&mut rng, 20);
    let cols = rand_sparse_cols(&mut rng, 20, 8);
    let order: Vec<usize> = (0..8).collect();
    for workers in [2usize, 4] {
        match spgemm_checked(&a, &a, &budget, workers) {
            Err(SpgemmError::Interrupted(sparsekit::BudgetInterrupt::DeadlineExceeded {
                ..
            })) => {}
            other => panic!("{workers} workers: expected DeadlineExceeded, got {other:?}"),
        }
        match slu::solve_in_blocks_ordered(&l, true, &cols, &order, 3, workers, &budget) {
            Err(sparsekit::BudgetInterrupt::DeadlineExceeded { .. }) => {}
            other => panic!("{workers} workers: expected DeadlineExceeded, got {other:?}"),
        }
    }
}

#[test]
fn interrupted_budgets_stop_every_spgemm_path() {
    // A compact-shaped product (8×8 output, ≈ 1 600 flops over a 500-wide
    // inner dimension: the dense-accumulator path) and a Gustavson-shaped
    // one (tridiagonal 200×200): a cancelled or expired budget must stop
    // both before they return, at every worker count.
    use sparsekit::spgemm::{spgemm_checked, SpgemmError};
    use sparsekit::BudgetInterrupt;
    let mut wide = Coo::new(8, 500);
    for i in 0..8 {
        for k in (i..500).step_by(5) {
            wide.push(i, k, 1.0 + (i + k) as f64 * 0.01);
        }
    }
    let mut tall = Coo::new(500, 8);
    for k in 0..500 {
        tall.push(k, k % 8, 0.5);
        tall.push(k, (k + 3) % 8, -0.25);
    }
    let mut tri = Coo::new(200, 200);
    for i in 0..200 {
        tri.push(i, i, 2.0);
        if i + 1 < 200 {
            tri.push_sym(i, i + 1, -1.0);
        }
    }
    let tri = tri.to_csr();
    let products = [
        ("compact", wide.to_csr(), tall.to_csr()),
        ("gustavson", tri.clone(), tri),
    ];
    let token = sparsekit::CancelToken::new();
    token.cancel();
    let cancelled = sparsekit::Budget::default().with_token(token);
    let expired = sparsekit::Budget::default().with_deadline(std::time::Duration::ZERO);
    for (shape, a, b) in &products {
        for workers in [1usize, 2, 4] {
            match spgemm_checked(a, b, &cancelled, workers) {
                Err(SpgemmError::Interrupted(BudgetInterrupt::Cancelled)) => {}
                other => panic!("{shape}, {workers} workers: expected Cancelled, got {other:?}"),
            }
            match spgemm_checked(a, b, &expired, workers) {
                Err(SpgemmError::Interrupted(BudgetInterrupt::DeadlineExceeded { .. })) => {}
                other => panic!("{shape}, {workers} workers: expected expiry, got {other:?}"),
            }
        }
    }
}

#[test]
fn mid_solve_cancellation_is_clean_or_exact() {
    // Cancelling from another thread mid-solve must yield either a
    // clean `Cancelled` error or a result byte-identical to serial —
    // never a torn/partial output.
    let mut rng = Rng64::new(3);
    let n = 120usize;
    let l = rand_unit_lower(&mut rng, n);
    let cols = rand_sparse_cols(&mut rng, n, 48);
    let order: Vec<usize> = (0..cols.len()).collect();
    let (serial_sols, serial_stats) = slu::solve_in_blocks(&l, true, &cols, 4);
    for delay_us in [0u64, 5, 50, 500] {
        let token = sparsekit::CancelToken::new();
        let budget = sparsekit::Budget::default().with_token(token.clone());
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                token.cancel();
            })
        };
        let result = slu::solve_in_blocks_ordered(&l, true, &cols, &order, 4, 4, &budget);
        canceller.join().expect("canceller thread");
        match result {
            Err(sparsekit::BudgetInterrupt::Cancelled) => {}
            Ok((sols, stats)) => {
                assert_eq!(stats, serial_stats, "delay {delay_us}us");
                for (p, s) in sols.iter().zip(&serial_sols) {
                    assert_eq!(p.indices, s.indices, "delay {delay_us}us");
                    assert_eq!(p.values, s.values, "delay {delay_us}us");
                }
            }
            Err(other) => panic!("delay {delay_us}us: unexpected interrupt {other:?}"),
        }
    }
}

#[test]
fn sparse_lower_solve_matches_dense() {
    for seed in 0..24 {
        let mut rng = Rng64::new(seed);
        // Bidiagonal unit-lower solve vs dense forward substitution.
        let n = 10usize;
        let subdiag: Vec<f64> = (0..n - 1).map(|_| rng.f64_range(-0.9, 0.9)).collect();
        let start = rng.below(n - 1);
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
        }
        for (i, &v) in subdiag.iter().enumerate() {
            if v != 0.0 {
                c.push(i + 1, i, v);
            }
        }
        let l = c.to_csr().to_csc();
        let mut ws = slu::trisolve::SolveWorkspace::new(n);
        let b = slu::trisolve::SparseVec::new(vec![start], vec![1.0]);
        let x = slu::trisolve::sparse_lower_solve(&l, true, &b, &mut ws);
        // Dense reference.
        let mut xd = vec![0.0f64; n];
        xd[start] = 1.0;
        for i in 1..n {
            let lij = l.get(i, i - 1);
            if lij != 0.0 {
                xd[i] -= lij * xd[i - 1];
            }
        }
        let mut got = vec![0.0f64; n];
        for (&i, &v) in x.indices.iter().zip(&x.values) {
            got[i] = v;
        }
        for i in 0..n {
            assert!((got[i] - xd[i]).abs() < 1e-12, "seed {seed}");
        }
    }
}
