//! End-to-end Fig.-1 pipeline test: measure a real solver setup, replay
//! it through the `parsim` event-driven model, and check the qualitative
//! claims.

use parsim::pdslin_model::{sweep, MeasuredCosts};
use parsim::Machine;
use pdslin::{Pdslin, PdslinConfig};

fn measured_costs(a: &sparsekit::Csr, k: usize) -> MeasuredCosts {
    let cfg = PdslinConfig {
        k,
        parallel: false,
        ..Default::default()
    };
    let mut solver = Pdslin::setup(a, cfg).expect("setup");
    let b = vec![1.0; a.nrows()];
    let _ = solver.solve(&b).expect("solve");
    MeasuredCosts {
        lu_d: solver.stats.domain_costs.lu_d.clone(),
        comp_s: solver.stats.domain_costs.comp_s.clone(),
        gather_bytes: solver
            .stats
            .nnz_t
            .iter()
            .map(|&n| 12.0 * n as f64)
            .collect(),
        lu_s: solver.stats.times.lu_s,
        solve: solver.stats.times.solve,
    }
}

#[test]
fn simulated_sweep_is_monotone_and_phase_consistent() {
    let a = matgen::generate(matgen::MatrixKind::Tdr190k, matgen::Scale::Test);
    let costs = measured_costs(&a, 8);
    let machine = Machine::default();
    let cores = [8usize, 32, 128, 512, 1024];
    let sim = sweep(&costs, &machine, 8, &cores);
    assert_eq!(sim.len(), cores.len());
    for w in sim.windows(2) {
        assert!(
            w[1].makespan <= w[0].makespan + 1e-9,
            "simulated total must not grow with cores"
        );
    }
    // At 8 cores (one per subdomain) the LU(D) window must be at least
    // the slowest subdomain's sequential cost.
    let max_lu = costs.lu_d.iter().cloned().fold(0.0, f64::max);
    assert!(sim[0].lu_d >= max_lu * 0.9);
    for (s, &c) in sim.iter().zip(&cores) {
        assert_eq!(s.cores, c);
    }
    let sim_speedup = sim[0].makespan / sim.last().unwrap().makespan;
    assert!(
        sim_speedup > 1.0,
        "1024 cores must beat 8, got {sim_speedup}"
    );
}

#[test]
fn comp_s_dominates_at_low_core_counts() {
    // The paper's premise: the preconditioner computation (Comp(S))
    // dominates the runtime at small core counts on cavity problems.
    let a = matgen::generate(matgen::MatrixKind::Tdr190k, matgen::Scale::Test);
    let costs = measured_costs(&a, 8);
    let machine = Machine {
        cores: 8,
        ..Default::default()
    };
    let (t, _s) = parsim::pdslin_model::simulate_config(&costs, &machine, 8);
    assert!(
        t.comp_s > t.lu_d,
        "Comp(S) {} should dominate LU(D) {} at 8 cores",
        t.comp_s,
        t.lu_d
    );
}
