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

use matgen::Scale;

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
        if self.is_finite() {
            format!("{self}")
        } else {
            "null".to_string()
        }
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
        json_escape(self)
    }
}

impl JsonValue for &str {
    fn to_json(&self) -> String {
        json_escape(self)
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn to_json(&self) -> String {
        let parts: Vec<String> = self.iter().map(|v| v.to_json()).collect();
        format!("[{}]", parts.join(", "))
    }
}

/// Quotes and escapes a string for JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
                    $crate::json_escape(stringify!($field)),
                    $crate::JsonValue::to_json(&self.$field)
                ));)*
                format!("{{{}}}", parts.join(", "))
            }
        }
    };
}

/// Minimal timing harness for the `cargo bench` targets (plain `main`
/// binaries with `harness = false`): warms up once, then runs the
/// closure until ~0.2 s of wall clock or 100 iterations, whichever
/// comes first, and prints min/avg per-iteration time.
pub fn bench_case<F: FnMut()>(name: &str, mut f: F) {
    f(); // warm-up (first-touch allocation, caches)
    let budget = std::time::Duration::from_millis(200);
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    while started.elapsed() < budget && samples.len() < 100 {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let (min, avg, _max) = min_avg_max(&samples);
    println!(
        "{name:<40} {:>12} {:>12}  ({} iters)",
        fmt_bench_time(min),
        fmt_bench_time(avg),
        samples.len()
    );
}

fn fmt_bench_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
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

/// A matrix sequence calibrated to go stale under a tight
/// [`pdslin::SequencePolicy`]: set up on a heavy value perturbation of
/// `laplace2d(16,16)` with loose drop tolerances, walk back to the clean
/// Laplacian, and the reused preconditioner needs ≈ 2× the baseline
/// Krylov iterations on the last step.
pub struct StaleWalk {
    /// Label of the base problem.
    pub problem: &'static str,
    /// Solver configuration (serial, `k = 4`, drop tolerances 0.1).
    pub config: pdslin::PdslinConfig,
    /// Growth cap 1.5× over a baseline of at least 4 iterations.
    pub policy: pdslin::SequencePolicy,
    /// Setup matrix, an intermediate step, the clean Laplacian.
    pub mats: Vec<sparsekit::Csr>,
    /// One right-hand side per matrix.
    pub rhs: Vec<Vec<f64>>,
}

/// Builds the [`StaleWalk`]. Iterations per step are 8, 8, 17 against a
/// cap of 12: the middle step stays 4 under the cap and the last one
/// clears it by 5.
pub fn stale_walk() -> StaleWalk {
    fn drift(a: &sparsekit::Csr, scale: f64) -> sparsekit::Csr {
        let mut out = a.clone();
        for (t, v) in out.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + scale * ((t % 13) as f64 - 6.0) / 6.0;
        }
        out
    }
    let a = matgen::stencil::laplace2d(16, 16);
    let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
    let mats = vec![drift(&a, 500.0), drift(&a, 5.0), a];
    StaleWalk {
        problem: "laplace2d(16,16)",
        config: pdslin::PdslinConfig {
            k: 4,
            interface_drop_tol: 0.1,
            schur_drop_tol: 0.1,
            parallel: false,
            ..Default::default()
        },
        policy: pdslin::SequencePolicy {
            max_iteration_growth: 1.5,
            min_baseline_iters: 4,
            ..Default::default()
        },
        rhs: vec![b; mats.len()],
        mats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
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
