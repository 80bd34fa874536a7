//! Shared plumbing for the experiment harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §2 for the experiment index) and writes both a
//! human-readable table to stdout and a JSON record under `results/`.
//!
//! Environment knobs:
//!
//! * `PDSLIN_SCALE=test|bench` — matrix sizes (default `bench`);
//! * `PDSLIN_RESULTS=<dir>` — output directory (default `results/`).

use std::fs;
use std::path::PathBuf;

use std::time::Instant;

use matgen::Scale;
use pdslin::interface::ehat_columns_pivot;
use pdslin::rhs_order::order_columns;
use pdslin::subdomain::FactoredDomain;
use pdslin::{LocalDomain, RhsOrdering, SetupStats};
use pdslin_service::json;
use slu::blocked::{solve_in_blocks_ordered, BlockSolveStats};
use slu::trisolve::SolveWorkspace;
use sparsekit::budget::Budget;

/// Scale selected via `PDSLIN_SCALE` (default: bench).
pub fn scale_from_env() -> Scale {
    match std::env::var("PDSLIN_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Bench,
    }
}

/// Results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PDSLIN_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a JSON record (an array of row objects) for one experiment.
pub fn write_json<T: JsonRecord>(name: &str, rows: &[T]) {
    let path = results_dir().join(format!("{name}.json"));
    let body = rows
        .iter()
        .map(|r| format!("  {}", r.to_json_object()))
        .collect::<Vec<_>>();
    let data = format!("[\n{}\n]\n", body.join(",\n"));
    fs::write(&path, data).expect("write results file");
    eprintln!("[wrote {}]", path.display());
}

/// A value that knows its JSON representation. Implemented for the
/// scalar types the experiment rows use; `f64` maps NaN/Inf to `null`
/// (JSON has no non-finite numbers).
pub trait JsonValue {
    /// The JSON text of this value.
    fn to_json(&self) -> String;
}

impl JsonValue for f64 {
    fn to_json(&self) -> String {
        json::num(*self)
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn to_json(&self) -> String {
                format!("{self}")
            }
        }
    )*};
}
json_int!(usize, u64, u32, i64, i32, bool);

impl JsonValue for String {
    fn to_json(&self) -> String {
        json::escape(self)
    }
}

impl JsonValue for &str {
    fn to_json(&self) -> String {
        json::escape(self)
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn to_json(&self) -> String {
        let parts: Vec<String> = self.iter().map(|v| v.to_json()).collect();
        format!("[{}]", parts.join(", "))
    }
}

/// A row type that renders itself as one JSON object (derive it with
/// [`json_record!`]).
pub trait JsonRecord {
    /// The JSON object text of this row.
    fn to_json_object(&self) -> String;
}

/// Declares a plain-struct experiment row and implements [`JsonRecord`]
/// for it — the in-tree replacement for `#[derive(Serialize)]`.
#[macro_export]
macro_rules! json_record {
    ($(#[$meta:meta])* struct $name:ident { $($(#[$fmeta:meta])* $field:ident : $ty:ty),* $(,)? }) => {
        $(#[$meta])*
        struct $name {
            $($(#[$fmeta])* $field: $ty,)*
        }
        impl $crate::JsonRecord for $name {
            fn to_json_object(&self) -> String {
                let mut parts: Vec<String> = Vec::new();
                $(parts.push(format!(
                    "{}: {}",
                    $crate::JsonValue::to_json(&stringify!($field)),
                    $crate::JsonValue::to_json(&self.$field)
                ));)*
                format!("{{{}}}", parts.join(", "))
            }
        }
    };
}

/// Partitions a matrix with NGD (k subdomains) and factors every
/// subdomain — the shared setup of the §IV / §V-B experiments (Table III,
/// Fig. 4, Fig. 5, quasi-dense study).
pub fn ngd_factored_system(
    kind: matgen::MatrixKind,
    scale: Scale,
    k: usize,
) -> (
    sparsekit::Csr,
    pdslin::DbbdSystem,
    Vec<pdslin::subdomain::FactoredDomain>,
) {
    let a = matgen::generate(kind, scale);
    let part = pdslin::compute_partition(&a, k, &pdslin::PartitionerKind::Ngd);
    let sys = pdslin::extract_dbbd(&a, part);
    let factors: Vec<_> = sys
        .domains
        .iter()
        .map(|d| pdslin::subdomain::factor_domain(&d.d, 0.1).expect("subdomain LU"))
        .collect();
    (a, sys, factors)
}

/// Runs only the `G = L⁻¹ P Ê` part of one subdomain's interface solve
/// — the Fig. 4 / Fig. 5 kernel — and returns its blocked-solve
/// statistics, the solve's wall-clock seconds and the RHS ordering's.
pub fn g_solve_experiment(
    fd: &FactoredDomain,
    dom: &LocalDomain,
    block_size: usize,
    ordering: RhsOrdering,
) -> (BlockSolveStats, f64, f64) {
    let mut ws = SolveWorkspace::new(fd.lu.n());
    let cols = ehat_columns_pivot(fd, dom);
    let t0 = Instant::now();
    let order = order_columns(&cols, &fd.lu.l, block_size, ordering, &mut ws);
    let order_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (_sols, stats) = solve_in_blocks_ordered(
        &fd.lu.l,
        true,
        &cols,
        &order,
        block_size,
        1,
        &Budget::unlimited(),
    )
    .expect("an unlimited budget never interrupts");
    (stats, t1.elapsed().as_secs_f64(), order_seconds)
}

/// The paper's §V **one-level parallel** time model: `k` processes, one
/// per subdomain, so the subdomain phases cost their *maximum* over the
/// subdomains while partitioning, extraction and `LU(S)` are shared.
/// This is the configuration behind Fig. 3 and Table II.
pub fn one_level_parallel_setup(stats: &SetupStats) -> f64 {
    let max = |xs: &[f64]| xs.iter().cloned().fold(0.0, f64::max);
    let (t, costs) = (&stats.times, &stats.domain_costs);
    t.partition + t.extract + max(&costs.lu_d) + max(&costs.comp_s) + t.lu_s
}

/// min / avg / max of a sequence of f64.
pub fn min_avg_max(xs: &[f64]) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
        sum += x;
    }
    (min, sum / xs.len() as f64, max)
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdslin::subdomain::factor_domain;
    use pdslin::{compute_partition, extract_dbbd, DbbdSystem, PartitionerKind};

    fn small_system() -> DbbdSystem {
        let a = matgen::stencil::laplace2d(10, 10);
        extract_dbbd(&a, compute_partition(&a, 2, &PartitionerKind::Ngd))
    }

    #[test]
    fn g_experiment_reports_padding() {
        let sys = small_system();
        let dom = &sys.domains[0];
        let fd = factor_domain(&dom.d, 0.1).unwrap();
        let (b1, _, _) = g_solve_experiment(&fd, dom, 1, RhsOrdering::Natural);
        assert_eq!(b1.padded_zeros, 0, "B=1 never pads");
        let (b16, _, _) = g_solve_experiment(&fd, dom, 16, RhsOrdering::Natural);
        assert!(b16.padded_zeros >= b1.padded_zeros);
    }

    #[test]
    fn hypergraph_pads_less_than_natural_and_postorder() {
        // The paper's Fig. 4 ranking. Under the approximate-minimum-degree
        // subdomain ordering the postorder heuristic alone pads more than
        // the natural order on this grid (EXPERIMENTS.md, Fig. 4), so it
        // is not compared with natural here.
        let sys = small_system();
        let mut nat = 0u64;
        let mut post = 0u64;
        let mut hyper = 0u64;
        for dom in &sys.domains {
            let fd = factor_domain(&dom.d, 0.1).unwrap();
            let pad = |ord| g_solve_experiment(&fd, dom, 8, ord).0.padded_zeros;
            nat += pad(RhsOrdering::Natural);
            post += pad(RhsOrdering::Postorder);
            hyper += pad(RhsOrdering::Hypergraph { tau: Some(0.4) });
        }
        assert!(
            hyper < nat,
            "hypergraph padding {hyper} should beat natural {nat}"
        );
        assert!(
            hyper <= post,
            "hypergraph padding {hyper} should be ≤ postorder {post}"
        );
    }

    #[test]
    fn one_level_time_charges_the_slowest_domain() {
        let mut stats = SetupStats::default();
        stats.times.partition = 1.0;
        stats.times.extract = 2.0;
        stats.times.lu_s = 4.0;
        stats.times.lu_d = 100.0;
        stats.domain_costs.lu_d = vec![8.0, 16.0];
        stats.domain_costs.comp_s = vec![64.0, 32.0];
        assert_eq!(
            one_level_parallel_setup(&stats),
            1.0 + 2.0 + 16.0 + 64.0 + 4.0
        );
    }

    #[test]
    fn min_avg_max_basic() {
        let (lo, av, hi) = min_avg_max(&[1.0, 2.0, 6.0]);
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 6.0);
        assert!((av - 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_avg_max_empty() {
        assert_eq!(min_avg_max(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.1234), "0.123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(123.4), "123");
    }

    #[test]
    fn json_values_render() {
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(42usize.to_json(), "42");
        assert_eq!(true.to_json(), "true");
        assert_eq!(vec![1usize, 2, 3].to_json(), "[1, 2, 3]");
    }

    json_record! {
        struct DemoRow {
            name: String,
            n: usize,
            secs: f64,
        }
    }

    #[test]
    fn json_record_macro_renders_object() {
        let r = DemoRow {
            name: "laplace".to_string(),
            n: 100,
            secs: 0.5,
        };
        assert_eq!(
            r.to_json_object(),
            "{\"name\": \"laplace\", \"n\": 100, \"secs\": 0.5}"
        );
    }
}
