//! Benchmarks of the partitioners themselves: NGD vs RHB (all three
//! cut metrics) on the tdr190k analogue, plus the fill-reducing
//! ordering.
//!
//! Plain `main` harness (`harness = false`): run with `cargo bench`.

use std::hint::black_box;

use graphpart::{min_degree_order, Graph};
use hypergraph::{CutMetric, RhbConfig};
use pdslin::{compute_partition, PartitionerKind};
use pdslin_bench::bench_case;

fn bench_partitioners() {
    let a = matgen::generate(matgen::MatrixKind::Tdr190k, matgen::Scale::Test);
    bench_case("partition/ngd_k8", || {
        black_box(compute_partition(&a, 8, &PartitionerKind::Ngd));
    });
    for (name, metric) in [
        ("con1", CutMetric::Con1),
        ("cnet", CutMetric::Cnet),
        ("soed", CutMetric::Soed),
    ] {
        let cfg = RhbConfig {
            metric,
            ..Default::default()
        };
        bench_case(&format!("partition/rhb_{name}_k8"), || {
            black_box(compute_partition(&a, 8, &PartitionerKind::Rhb(cfg)));
        });
    }
}

fn bench_orderings() {
    let a = matgen::stencil::laplace3d(12, 12, 12);
    let g = Graph::from_matrix(&a);
    bench_case("ordering/min_degree_1728", || {
        black_box(min_degree_order(&g));
    });
}

fn main() {
    bench_partitioners();
    bench_orderings();
}
