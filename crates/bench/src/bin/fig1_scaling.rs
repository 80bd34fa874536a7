//! **Fig. 1** — PDSLin runtime (phases `LU(D)`, `Comp(S)`, `LU(S)`,
//! `Solve`) as a function of the core count, for `tdr455k` with k = 8,
//! comparing RHB (soed, single constraint) against the NGD baseline.
//!
//! Per-subdomain phase costs are *measured* sequentially; the core sweep
//! is produced by the event-driven simulator `parsim` (DESIGN.md §3,
//! substitution 2): gang tasks per subdomain, α–β gather messages,
//! full-machine `LU(S)`/solve.

use parsim::pdslin_model::{sweep as sim_sweep, MeasuredCosts, SimulatedTimes};
use parsim::Machine;
use pdslin::{PartitionerKind, Pdslin, PdslinConfig};

pdslin_bench::json_record! {
    struct Fig1Row {
        partitioner: String,
        cores: usize,
        lu_d: f64,
        comp_s: f64,
        lu_s: f64,
        solve: f64,
        total: f64,
    }
}

fn main() {
    let scale = pdslin_bench::scale_from_env();
    let a = matgen::generate(matgen::MatrixKind::Tdr455k, scale);
    eprintln!("tdr455k analogue: n={} nnz={}", a.nrows(), a.nnz());
    let cores = [8usize, 32, 128, 512, 1024];
    let machine = Machine::default();
    let mut rows: Vec<Fig1Row> = Vec::new();
    println!("Fig 1: PDSLin phase times for tdr455k analogue, k=8 (simulated core sweep)");
    println!(
        "{:<12} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "partitioner", "cores", "LU(D)", "Comp(S)", "LU(S)", "Solve", "total"
    );
    for kind in [
        PartitionerKind::Rhb(hypergraph::RhbConfig::default()),
        PartitionerKind::Ngd,
    ] {
        let label = kind.label();
        let cfg = PdslinConfig {
            k: 8,
            partitioner: kind,
            parallel: false, // measure clean sequential per-domain costs
            schur_drop_tol: 1e-4,
            interface_drop_tol: 1e-6,
            ..Default::default()
        };
        let mut solver = Pdslin::setup(&a, cfg).expect("setup");
        let b = vec![1.0; a.nrows()];
        let out = solver.solve(&b).expect("solve");
        eprintln!(
            "{label}: nsep={} iterations={} sequential total={:.1}s",
            solver.stats.separator_size,
            out.iterations,
            solver.stats.times.total()
        );
        // Event-driven simulation.
        let costs = MeasuredCosts {
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
        };
        let sim: Vec<SimulatedTimes> = sim_sweep(&costs, &machine, 8, &cores);
        for p in &sim {
            println!(
                "{:<12} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                label, p.cores, p.lu_d, p.comp_s, p.lu_s, p.solve, p.makespan
            );
            rows.push(Fig1Row {
                partitioner: label.clone(),
                cores: p.cores,
                lu_d: p.lu_d,
                comp_s: p.comp_s,
                lu_s: p.lu_s,
                solve: p.solve,
                total: p.makespan,
            });
        }
    }
    pdslin_bench::write_json("fig1_scaling", &rows);
}
