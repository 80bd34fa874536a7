//! Randomized recovery invariants: for arbitrary well-posed systems,
//! injected faults must never surface — setup succeeds, the recovery
//! log records what happened, and the final residual is as tight as a
//! clean run's. Plus the partition fallback, reached with no fault.

use matgen::{generate, MatrixKind, Scale};
use pdslin::{FaultPlan, PartitionerKind, Pdslin, PdslinConfig, RecoveryEvent};
use sparsekit::ops::residual_inf_norm;
use sparsekit::{Coo, Csr, Rng64};

/// Random sparse diagonally dominant system on a connected backbone, so
/// every generated instance is solvable and partitionable.
fn random_system(rng: &mut Rng64) -> Csr {
    let n = rng.range(48, 128);
    let extra = rng.range(n, 3 * n);
    let mut c = Coo::new(n, n);
    let mut offdiag = vec![0.0f64; n];
    let push_sym = |c: &mut Coo, od: &mut [f64], i: usize, j: usize, v: f64| {
        c.push(i, j, v);
        c.push(j, i, v);
        od[i] += v.abs();
        od[j] += v.abs();
    };
    for i in 0..n - 1 {
        push_sym(&mut c, &mut offdiag, i, i + 1, -1.0);
    }
    for _ in 0..extra {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            push_sym(
                &mut c,
                &mut offdiag,
                u.min(v),
                u.max(v),
                rng.f64_range(-0.5, -0.1),
            );
        }
    }
    for (i, od) in offdiag.iter().enumerate() {
        c.push(i, i, od + 1.0 + rng.f64());
    }
    c.to_csr()
}

fn faults(rng: &mut Rng64, k: usize) -> FaultPlan {
    match rng.below(2) {
        0 => FaultPlan {
            singular_domain: Some(rng.below(k)),
            ..Default::default()
        },
        _ => FaultPlan {
            fail_partitioner: true,
            ..Default::default()
        },
    }
}

#[test]
fn injected_faults_always_recover() {
    for seed in 0..16 {
        let mut rng = Rng64::new(seed);
        let a = random_system(&mut rng);
        let k = 2usize << rng.below(2);
        let fault = faults(&mut rng, k);
        let cfg = PdslinConfig {
            k,
            fault,
            ..Default::default()
        };
        let mut solver = Pdslin::setup(&a, cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: setup must recover from {fault:?}: {e}"));
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let out = solver
            .solve(&b)
            .unwrap_or_else(|e| panic!("seed {seed}: solve must recover from {fault:?}: {e}"));
        // Every injected fault is a setup fault and leaves a trace in
        // the setup's log.
        assert!(
            !solver.stats.recovery.is_empty(),
            "seed {seed}: fault {fault:?} recovered without a recovery record"
        );
        let res = residual_inf_norm(&a, &out.x, &b);
        assert!(
            res < 1e-6,
            "seed {seed}: fault {fault:?} degraded the residual to {res}"
        );
    }
}

#[test]
fn clean_runs_never_report_recovery() {
    for seed in 100..108 {
        let mut rng = Rng64::new(seed);
        let a = random_system(&mut rng);
        let cfg = PdslinConfig {
            k: 4,
            ..Default::default()
        };
        let mut solver = Pdslin::setup(&a, cfg).expect("setup");
        let b = vec![1.0; a.nrows()];
        let out = solver.solve(&b).expect("solve");
        assert!(
            solver.stats.recovery.is_empty(),
            "seed {seed}: phantom setup recovery"
        );
        assert!(out.converged, "seed {seed}");
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6, "seed {seed}");
    }
}

/// The partition fallback is reached by a real input: NGD and RHB both
/// need a power-of-two `k`, so `k = 3` routes either to the
/// natural-block split with no fault injected, and the answer still
/// meets the residual bound.
#[test]
fn non_power_of_two_k_falls_back_to_natural_block() {
    let a = generate(MatrixKind::G3Circuit, Scale::Test);
    for partitioner in [
        PartitionerKind::Ngd,
        PartitionerKind::Rhb(Default::default()),
    ] {
        let label = partitioner.label();
        let cfg = PdslinConfig {
            k: 3,
            partitioner,
            ..Default::default()
        };
        assert!(cfg.fault.is_none());
        let mut solver = Pdslin::setup(&a, cfg).expect("setup");
        let events = &solver.stats.recovery.events;
        let fallback = matches!(
            events.as_slice(),
            [RecoveryEvent::PartitionFallback { from, to, .. }]
                if *from == label && to == "natural-block"
        );
        assert!(fallback, "{label}: {}", solver.stats.recovery.summary());
        let b = vec![1.0; a.nrows()];
        let out = solver.solve(&b).expect("solve");
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6, "{label}");
    }
}
