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
use pdslin_service::json;

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
