//! The jsonl wire protocol: one JSON object per line, in both
//! directions.
//!
//! # Requests
//!
//! ```text
//! {"id":"r1","op":"solve","generate":"g3_circuit","scale":"test","k":4,
//!  "rhs_seed":7,"deadline_ms":2000,"retry_limit":2}
//! {"id":"r2","op":"solve","matrix":"/path/to/m.mtx","rhs":[1.0,2.0,...]}
//! {"id":"m","op":"metrics"}
//! {"id":"bye","op":"shutdown"}
//! ```
//!
//! Solve options (all optional unless noted): exactly one of `generate`
//! (+ `scale`, default `test`) or `matrix` (a Matrix Market path);
//! `k` (default 4), `block_size` (default 60), `interface_drop_tol` /
//! `schur_drop_tol` (default 1e-8); `partitioner` (`ngd`|`rhb`),
//! `weights` (`unit`|`value`), `ordering`
//! (`natural`|`postorder`|`hypergraph`, with `tau` for the
//! hypergraph variant); `rhs` (inline array), `rhs_seed`
//! (deterministic vector), or neither (all-ones); `deadline_ms`
//! (per-request wall-clock deadline); `retry_limit` (service-level
//! retry budget, default 2). Fault injection for soak testing:
//! `fail_attempts` (the service worker fails this many attempts before
//! succeeding), `worker_panic`, `memory_blowup`, `stall_schur_ms` —
//! mapped onto [`FaultPlan`]. Any other field is
//! rejected as an input error naming it, so a typo cannot silently
//! leave a request running with defaults; `metrics` and `shutdown`
//! take only `id` and `op`.
//!
//! # Responses
//!
//! Completion order, correlated by `id`. `status` is one of:
//!
//! * `"ok"` — solve result plus cache/batch/retry telemetry;
//! * `"overloaded"` — typed admission rejection (`reason` is
//!   `queue_full` with a `retry_after_ms` hint, or `shutting_down`);
//! * `"error"` — a typed failure: `category` + `code` mirror the CLI's
//!   exit-code taxonomy (2 input, 3 numerical, 4 budget, 5 execution);
//! * metrics and shutdown acknowledgements.

use std::collections::BTreeMap;

use crate::json::{escape, num, Json};
use crate::metrics::MetricsSnapshot;
use pdslin::{ErrorCategory, FaultPlan, PartitionerKind, PdslinError, RhsOrdering, WeightScheme};
use sparsekit::Fnv64;

/// Where a request's matrix comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatrixSpec {
    /// A generated Table-I analogue (`matgen` kind name + scale).
    Generate {
        /// Matrix kind name (resolved case-insensitively).
        kind: String,
        /// `"test"` or `"bench"`.
        scale: String,
    },
    /// A Matrix Market file on disk.
    Path(String),
}

/// The right-hand side of a solve request.
#[derive(Clone, Debug, PartialEq)]
pub enum RhsSpec {
    /// All-ones vector of the matrix dimension.
    Ones,
    /// A deterministic seeded vector (same formula as the benches).
    Seed(u64),
    /// Inline values (length must equal the matrix dimension).
    Values(Vec<f64>),
}

impl RhsSpec {
    /// Materialises the right-hand side for an `n`-dimensional system.
    pub fn build(&self, n: usize) -> Vec<f64> {
        match self {
            RhsSpec::Ones => vec![1.0; n],
            RhsSpec::Seed(seed) => (0..n)
                .map(|i| (((i as u64 * 31 + seed * 7) % 23) as f64) - 11.0)
                .collect(),
            RhsSpec::Values(v) => v.clone(),
        }
    }
}

/// One solve request, parsed and defaulted.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The input matrix.
    pub matrix: MatrixSpec,
    /// Number of interior subdomains.
    pub k: usize,
    /// Block size of the interface triangular solves.
    pub block_size: usize,
    /// Drop tolerance σ₁ for the interface blocks.
    pub interface_drop_tol: f64,
    /// Drop tolerance σ₂ for `S̃`.
    pub schur_drop_tol: f64,
    /// DBBD partitioner.
    pub partitioner: PartitionerKind,
    /// Edge/net weighting of the partitioner.
    pub weights: WeightScheme,
    /// RHS ordering for the interface solves.
    pub ordering: RhsOrdering,
    /// The right-hand side.
    pub rhs: RhsSpec,
    /// Per-request wall-clock deadline, if any.
    pub deadline_ms: Option<u64>,
    /// Service-level retry budget for recoverable failures.
    pub retry_limit: u32,
    /// Service-level fault injection: fail this many whole attempts
    /// before letting one through (exercises retry + backoff).
    pub fail_attempts: u32,
    /// Solver-level fault injection forwarded into `PdslinConfig`.
    pub fault: FaultPlan,
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run (or reuse) a factorization and solve.
    Solve {
        /// Correlation id, echoed on the response.
        id: String,
        /// The solve parameters.
        solve: Box<SolveRequest>,
    },
    /// Report service health counters.
    Metrics {
        /// Correlation id.
        id: String,
    },
    /// Stop accepting work and drain.
    Shutdown {
        /// Correlation id.
        id: String,
    },
}

/// Maps an error category to the workspace-wide exit/status code
/// (kept in lockstep with `pdslin_cli::exit_code`; the CLI cannot be a
/// dependency here without a cycle).
pub fn category_code(category: ErrorCategory) -> u8 {
    match category {
        ErrorCategory::Input => 2,
        ErrorCategory::Numerical => 3,
        ErrorCategory::Budget => 4,
        ErrorCategory::Execution => 5,
    }
}

impl MatrixSpec {
    /// Loads the matrix this spec names.
    pub fn load(&self) -> Result<sparsekit::Csr, String> {
        match self {
            MatrixSpec::Generate { kind, scale } => {
                let k = matgen::MatrixKind::from_name(kind)?;
                let s = matgen::Scale::from_name(scale)?;
                Ok(matgen::generate(k, s))
            }
            MatrixSpec::Path(p) => sparsekit::io::read_matrix_market(p).map_err(|e| e.to_string()),
        }
    }
}

impl SolveRequest {
    /// Hash of the matrix *spec* plus every config field that affects
    /// the factorization. Used for request coalescing (two requests with
    /// equal spec keys are guaranteed to want the same cache entry) and
    /// as the memo key that avoids re-loading matrices on cache hits.
    pub fn spec_key(&self) -> u64 {
        let mut h = Fnv64::new();
        match &self.matrix {
            MatrixSpec::Generate { kind, scale } => {
                h.write_u8(1);
                h.write_str(kind);
                h.write_str(scale);
            }
            MatrixSpec::Path(p) => {
                h.write_u8(2);
                h.write_str(p);
            }
        }
        self.fold_config(&mut h);
        h.finish()
    }

    /// Hash of the matrix *pattern* fingerprint plus the config fields —
    /// the factorization-cache key. Two specs naming pattern-identical
    /// matrices share one entry; value drift within a shared entry is
    /// settled separately against the entry's value fingerprint (a
    /// "symbolic hit" replays the numerics via `Pdslin::update_values`
    /// instead of re-running setup).
    pub fn cache_key(&self, matrix_fingerprint: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(matrix_fingerprint);
        self.fold_config(&mut h);
        h.finish()
    }

    fn fold_config(&self, h: &mut Fnv64) {
        h.write_u64(self.k as u64);
        h.write_u64(self.block_size as u64);
        h.write_f64(self.interface_drop_tol);
        h.write_f64(self.schur_drop_tol);
        // Partitioner, weighting and ordering all shape the
        // factorization; two requests differing in any of them must not
        // share a cache entry.
        match self.partitioner {
            PartitionerKind::Ngd => h.write_u8(0),
            PartitionerKind::Rhb(cfg) => {
                h.write_u8(1);
                h.write_str(&PartitionerKind::Rhb(cfg).label());
            }
        }
        h.write_u8(match self.weights {
            WeightScheme::Unit => 0,
            WeightScheme::ValueScaled => 1,
        });
        match self.ordering {
            RhsOrdering::Natural => h.write_u8(0),
            RhsOrdering::Postorder => h.write_u8(1),
            RhsOrdering::Hypergraph { tau } => {
                h.write_u8(2);
                // τ lives in [0, 1]; -1 marks "no filter".
                h.write_f64(tau.unwrap_or(-1.0));
            }
        }
        // A faulted request must not share (or poison) the clean entry
        // for the same matrix: fold the fault plan into the key.
        let f = &self.fault;
        h.write_u64(f.singular_domain.map_or(u64::MAX, |d| d as u64));
        h.write_u64(f.worker_panic.map_or(u64::MAX, |d| d as u64));
        h.write_u8(u8::from(f.fail_partitioner));
        h.write_u8(u8::from(f.memory_blowup));
        h.write_u64(f.stall_schur_ms.unwrap_or(u64::MAX));
    }
}

fn field_u64(j: &Json, key: &str, default: u64) -> Result<u64, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("bad '{key}'")),
    }
}

fn field_f64(j: &Json, key: &str, default: f64) -> Result<f64, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("bad '{key}'")),
    }
}

fn field_bool(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| format!("bad '{key}'")),
    }
}

fn opt_u64(j: &Json, key: &str) -> Result<Option<u64>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| format!("bad '{key}'")),
    }
}

/// The fields a `solve` request may carry; `metrics` and `shutdown`
/// take only `id` and `op`.
const SOLVE_FIELDS: [&str; 21] = [
    "id",
    "op",
    "generate",
    "scale",
    "matrix",
    "k",
    "block_size",
    "interface_drop_tol",
    "schur_drop_tol",
    "partitioner",
    "weights",
    "ordering",
    "tau",
    "rhs",
    "rhs_seed",
    "deadline_ms",
    "retry_limit",
    "fail_attempts",
    "worker_panic",
    "memory_blowup",
    "stall_schur_ms",
];

/// Rejects the first field outside `allowed`, naming it.
fn reject_unknown_fields(
    fields: &BTreeMap<String, Json>,
    op: &str,
    allowed: &[&str],
) -> Result<(), String> {
    match fields.keys().find(|k| !allowed.contains(&k.as_str())) {
        None => Ok(()),
        Some(k) => Err(format!("unknown field '{k}' for op '{op}'")),
    }
}

/// Parses one request line. The error string is safe to echo back to
/// the client.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = Json::parse(line)?;
    let Json::Obj(fields) = &j else {
        return Err("request must be a JSON object".into());
    };
    let id = j.get("id").and_then(Json::as_str).unwrap_or("").to_string();
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing 'op' field")?;
    match op {
        "metrics" => {
            reject_unknown_fields(fields, op, &["id", "op"])?;
            Ok(Request::Metrics { id })
        }
        "shutdown" => {
            reject_unknown_fields(fields, op, &["id", "op"])?;
            Ok(Request::Shutdown { id })
        }
        "solve" => {
            reject_unknown_fields(fields, op, &SOLVE_FIELDS)?;
            let matrix = match (j.get("generate"), j.get("matrix")) {
                (Some(g), None) => MatrixSpec::Generate {
                    kind: g.as_str().ok_or("bad 'generate'")?.to_string(),
                    scale: j
                        .get("scale")
                        .and_then(Json::as_str)
                        .unwrap_or("test")
                        .to_string(),
                },
                (None, Some(m)) => MatrixSpec::Path(m.as_str().ok_or("bad 'matrix'")?.to_string()),
                (Some(_), Some(_)) => return Err("pass 'generate' or 'matrix', not both".into()),
                (None, None) => return Err("solve needs 'generate' or 'matrix'".into()),
            };
            let rhs = match (j.get("rhs"), j.get("rhs_seed")) {
                (Some(_), Some(_)) => return Err("pass 'rhs' or 'rhs_seed', not both".into()),
                (Some(arr), None) => {
                    let items = arr.as_array().ok_or("bad 'rhs' (expected array)")?;
                    let mut v = Vec::with_capacity(items.len());
                    for it in items {
                        v.push(it.as_f64().ok_or("bad 'rhs' entry")?);
                    }
                    RhsSpec::Values(v)
                }
                (None, Some(s)) => RhsSpec::Seed(s.as_u64().ok_or("bad 'rhs_seed'")?),
                (None, None) => RhsSpec::Ones,
            };
            let partitioner = match j.get("partitioner").and_then(Json::as_str).unwrap_or("ngd") {
                "ngd" => PartitionerKind::Ngd,
                "rhb" => PartitionerKind::Rhb(Default::default()),
                other => return Err(format!("unknown partitioner '{other}' (ngd|rhb)")),
            };
            let weights = match j.get("weights").and_then(Json::as_str).unwrap_or("unit") {
                "unit" => WeightScheme::Unit,
                "value" => WeightScheme::ValueScaled,
                other => return Err(format!("unknown weights '{other}' (unit|value)")),
            };
            let ordering = match j
                .get("ordering")
                .and_then(Json::as_str)
                .unwrap_or("postorder")
            {
                "natural" => RhsOrdering::Natural,
                "postorder" => RhsOrdering::Postorder,
                "hypergraph" => RhsOrdering::Hypergraph {
                    tau: match j.get("tau") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(v.as_f64().ok_or("bad 'tau'")?),
                    },
                },
                other => return Err(format!("unknown ordering '{other}'")),
            };
            let fault = FaultPlan {
                worker_panic: opt_u64(&j, "worker_panic")?.map(|v| v as usize),
                memory_blowup: field_bool(&j, "memory_blowup")?,
                stall_schur_ms: opt_u64(&j, "stall_schur_ms")?,
                ..Default::default()
            };
            let solve = SolveRequest {
                matrix,
                k: field_u64(&j, "k", 4)? as usize,
                block_size: field_u64(&j, "block_size", 60)? as usize,
                interface_drop_tol: field_f64(&j, "interface_drop_tol", 1e-8)?,
                schur_drop_tol: field_f64(&j, "schur_drop_tol", 1e-8)?,
                partitioner,
                weights,
                ordering,
                rhs,
                deadline_ms: opt_u64(&j, "deadline_ms")?,
                retry_limit: field_u64(&j, "retry_limit", 2)? as u32,
                fail_attempts: field_u64(&j, "fail_attempts", 0)? as u32,
                fault,
            };
            Ok(Request::Solve {
                id,
                solve: Box::new(solve),
            })
        }
        other => Err(format!("unknown op '{other}'")),
    }
}

/// The successful-solve payload of a response.
#[derive(Clone, Debug)]
pub struct SolveReply {
    /// `"hit"`, `"symbolic"` (pattern hit, values replayed with
    /// `update_values`) or `"miss"` — how the factorization was found.
    pub cache: &'static str,
    /// How many requests rode in the same `solve_many` batch (1 = solo).
    pub batched: usize,
    /// Service-level retries consumed before this answer.
    pub retries: u32,
    /// Whether setup degraded the preconditioner under memory pressure.
    pub degraded: bool,
    /// Recovery events the set-up behind this request recorded (a solve
    /// records none).
    pub recovery_events: usize,
    /// GMRES iterations on the Schur system.
    pub iterations: usize,
    /// Final relative Schur residual.
    pub residual: f64,
    /// Whether the requested tolerance was met.
    pub converged: bool,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queue_ms: f64,
    /// Milliseconds of solver work (setup share included on misses).
    pub solve_ms: f64,
}

/// What a response line says.
#[derive(Clone, Debug)]
pub enum ResponseBody {
    /// The solve succeeded.
    Solve(SolveReply),
    /// Typed admission rejection: the request never entered the queue.
    Overloaded {
        /// `"queue_full"` or `"shutting_down"`.
        reason: &'static str,
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// Suggested client backoff (present for `queue_full`).
        retry_after_ms: Option<u64>,
    },
    /// A typed failure (solver error, deadline, cancellation, ...).
    Error {
        /// Coarse class (`input`|`numerical`|`budget`|`execution`).
        category: String,
        /// Exit-code-compatible numeric class (2..=5).
        code: u8,
        /// Human-readable message.
        message: String,
        /// Service-level retries consumed before giving up.
        retries: u32,
    },
    /// Health counters.
    Metrics(MetricsSnapshot),
    /// Shutdown acknowledgement.
    Shutdown {
        /// Requests completed during the drain.
        drained: u64,
        /// Requests cancelled because the drain deadline passed.
        cancelled: u64,
    },
}

/// One response line: correlation id + body.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's correlation id (empty if the line had none).
    pub id: String,
    /// The payload.
    pub body: ResponseBody,
}

impl Response {
    /// A typed error response from a solver error.
    pub fn from_error(id: &str, e: &PdslinError, retries: u32) -> Response {
        let category = e.category();
        Response {
            id: id.to_string(),
            body: ResponseBody::Error {
                category: category.to_string(),
                code: category_code(category),
                message: e.to_string(),
                retries,
            },
        }
    }

    /// A typed input-error response (bad request line, unknown matrix,
    /// wrong RHS length, ...).
    pub fn input_error(id: &str, message: String) -> Response {
        Response {
            id: id.to_string(),
            body: ResponseBody::Error {
                category: ErrorCategory::Input.to_string(),
                code: category_code(ErrorCategory::Input),
                message,
                retries: 0,
            },
        }
    }

    /// Serialises to one jsonl line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let id = escape(&self.id);
        match &self.body {
            ResponseBody::Solve(r) => format!(
                "{{\"id\":{id},\"status\":\"ok\",\"cache\":\"{}\",\"batched\":{},\"retries\":{},\
                 \"degraded\":{},\"recovery_events\":{},\"iterations\":{},\"residual\":{},\
                 \"converged\":{},\"queue_ms\":{},\"solve_ms\":{}}}",
                r.cache,
                r.batched,
                r.retries,
                r.degraded,
                r.recovery_events,
                r.iterations,
                num(r.residual),
                r.converged,
                num(r.queue_ms),
                num(r.solve_ms),
            ),
            ResponseBody::Overloaded {
                reason,
                queue_depth,
                retry_after_ms,
            } => format!(
                "{{\"id\":{id},\"status\":\"overloaded\",\"reason\":\"{reason}\",\
                 \"queue_depth\":{queue_depth},\"retry_after_ms\":{}}}",
                match retry_after_ms {
                    Some(ms) => ms.to_string(),
                    None => "null".to_string(),
                }
            ),
            ResponseBody::Error {
                category,
                code,
                message,
                retries,
            } => format!(
                "{{\"id\":{id},\"status\":\"error\",\"category\":\"{category}\",\"code\":{code},\
                 \"retries\":{retries},\"error\":{}}}",
                escape(message)
            ),
            ResponseBody::Metrics(m) => {
                format!("{{\"id\":{id},\"status\":\"ok\",{}}}", m.json_fields())
            }
            ResponseBody::Shutdown { drained, cancelled } => format!(
                "{{\"id\":{id},\"status\":\"ok\",\"op\":\"shutdown\",\"drained\":{drained},\
                 \"cancelled\":{cancelled}}}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_solve(line: &str) -> SolveRequest {
        match parse_request(line).unwrap() {
            Request::Solve { solve, .. } => *solve,
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_solve() {
        let s = parse_solve(r#"{"id":"a","op":"solve","generate":"g3_circuit"}"#);
        assert_eq!(
            s.matrix,
            MatrixSpec::Generate {
                kind: "g3_circuit".into(),
                scale: "test".into()
            }
        );
        assert_eq!(s.k, 4);
        assert_eq!(s.rhs, RhsSpec::Ones);
        assert_eq!(s.deadline_ms, None);
        assert_eq!(s.retry_limit, 2);
        assert!(s.fault.is_none());
    }

    #[test]
    fn parses_full_solve() {
        let s = parse_solve(
            r#"{"id":"b","op":"solve","matrix":"/tmp/m.mtx","k":8,"block_size":32,
                "schur_drop_tol":1e-6,"rhs_seed":9,"deadline_ms":500,
                "retry_limit":1,"fail_attempts":1,"memory_blowup":true,"worker_panic":2}"#,
        );
        assert_eq!(s.matrix, MatrixSpec::Path("/tmp/m.mtx".into()));
        assert_eq!(s.k, 8);
        assert_eq!(s.block_size, 32);
        assert_eq!(s.rhs, RhsSpec::Seed(9));
        assert_eq!(s.deadline_ms, Some(500));
        assert_eq!(s.fail_attempts, 1);
        assert!(s.fault.memory_blowup);
        assert_eq!(s.fault.worker_panic, Some(2));
    }

    #[test]
    fn rejects_contradictory_and_missing_fields() {
        assert!(parse_request(r#"{"id":"x","op":"solve"}"#).is_err());
        assert!(parse_request(r#"{"id":"x","op":"solve","generate":"a","matrix":"b"}"#).is_err());
        assert!(
            parse_request(r#"{"id":"x","op":"solve","generate":"a","rhs":[1],"rhs_seed":2}"#)
                .is_err()
        );
        assert!(parse_request(r#"{"id":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":"x","op":"dance"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"["op","solve"]"#).is_err());
    }

    #[test]
    fn metrics_and_shutdown_parse() {
        assert!(matches!(
            parse_request(r#"{"id":"m","op":"metrics"}"#).unwrap(),
            Request::Metrics { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown { .. }
        ));
    }

    #[test]
    fn spec_key_separates_configs_and_faults() {
        let a = parse_solve(r#"{"id":"a","op":"solve","generate":"g3_circuit"}"#);
        let b = parse_solve(r#"{"id":"b","op":"solve","generate":"g3_circuit"}"#);
        let c = parse_solve(r#"{"id":"c","op":"solve","generate":"g3_circuit","k":8}"#);
        let d =
            parse_solve(r#"{"id":"d","op":"solve","generate":"g3_circuit","memory_blowup":true}"#);
        assert_eq!(a.spec_key(), b.spec_key(), "same spec must coalesce");
        assert_ne!(a.spec_key(), c.spec_key(), "different k must not");
        assert_ne!(
            a.spec_key(),
            d.spec_key(),
            "faulted must not share the clean entry"
        );
        // rhs and deadline are per-request and must NOT split the key.
        let e = parse_solve(
            r#"{"id":"e","op":"solve","generate":"g3_circuit","rhs_seed":3,"deadline_ms":50}"#,
        );
        assert_eq!(a.spec_key(), e.spec_key());
    }

    #[test]
    fn parses_partitioner_weights_and_ordering_fields() {
        let s = parse_solve(
            r#"{"id":"a","op":"solve","generate":"g3_circuit","partitioner":"rhb",
                "weights":"value","ordering":"natural"}"#,
        );
        assert!(matches!(s.partitioner, PartitionerKind::Rhb(_)));
        assert_eq!(s.weights, WeightScheme::ValueScaled);
        assert_eq!(s.ordering, RhsOrdering::Natural);

        let s = parse_solve(r#"{"id":"b","op":"solve","generate":"g3_circuit"}"#);
        assert!(matches!(s.partitioner, PartitionerKind::Ngd));
        assert_eq!(s.weights, WeightScheme::Unit);
        assert_eq!(s.ordering, RhsOrdering::Postorder);

        for ordering in ["zigzag", "rgb"] {
            let line = format!(
                r#"{{"id":"x","op":"solve","generate":"g3_circuit","ordering":"{ordering}"}}"#
            );
            let j = rejection(&line);
            assert_eq!(
                j.get("category").unwrap().as_str(),
                Some("input"),
                "{ordering}"
            );
        }
        assert!(parse_request(
            r#"{"id":"x","op":"solve","generate":"g3_circuit","weights":"heavy"}"#
        )
        .is_err());
    }

    #[test]
    fn spec_key_separates_partitioner_weights_and_ordering() {
        let base = parse_solve(r#"{"id":"a","op":"solve","generate":"g3_circuit"}"#);
        let rhb =
            parse_solve(r#"{"id":"b","op":"solve","generate":"g3_circuit","partitioner":"rhb"}"#);
        let val =
            parse_solve(r#"{"id":"c","op":"solve","generate":"g3_circuit","weights":"value"}"#);
        let nat =
            parse_solve(r#"{"id":"d","op":"solve","generate":"g3_circuit","ordering":"natural"}"#);
        let tau = parse_solve(
            r#"{"id":"e","op":"solve","generate":"g3_circuit","ordering":"hypergraph","tau":0.4}"#,
        );
        let notau = parse_solve(
            r#"{"id":"f","op":"solve","generate":"g3_circuit","ordering":"hypergraph"}"#,
        );
        let keys = [
            base.spec_key(),
            rhb.spec_key(),
            val.spec_key(),
            nat.spec_key(),
            tau.spec_key(),
            notau.spec_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "configuration fields must split the cache key");
            }
        }
        // Spelling out a default configures the same solve as omitting it.
        let spelled = parse_solve(
            r#"{"id":"h","op":"solve","generate":"g3_circuit","partitioner":"ngd",
                "weights":"unit","ordering":"postorder","block_size":60}"#,
        );
        assert_eq!(base.spec_key(), spelled.spec_key());
    }

    /// The reply the transport sends for a line `parse_request` rejects.
    fn rejection(line: &str) -> Json {
        let msg = parse_request(line).expect_err(line);
        Json::parse(&Response::input_error("", msg).to_json_line()).unwrap()
    }

    #[test]
    fn unknown_solve_fields_are_input_errors() {
        // A typo must not leave the request running with defaults, and
        // there is no automatic strategy selector or second Krylov
        // method to ask for.
        for (line, field) in [
            (
                r#"{"id":"a","op":"solve","generate":"g3_circuit","blocksize":30}"#,
                "blocksize",
            ),
            (
                r#"{"id":"a","op":"solve","generate":"g3_circuit","strategy":"auto"}"#,
                "strategy",
            ),
            (
                r#"{"id":"a","op":"solve","generate":"g3_circuit","krylov":"gmres"}"#,
                "krylov",
            ),
        ] {
            let j = rejection(line);
            assert_eq!(j.get("status").unwrap().as_str(), Some("error"));
            assert_eq!(j.get("category").unwrap().as_str(), Some("input"));
            assert_eq!(j.get("code").unwrap().as_u64(), Some(2));
            let msg = j.get("error").unwrap().as_str().unwrap();
            assert!(msg.contains(field), "{line}: {msg}");
        }
    }

    #[test]
    fn control_ops_take_only_id_and_op() {
        for line in [
            r#"{"id":"m","op":"metrics","verbose":true}"#,
            r#"{"id":"bye","op":"shutdown","drain_ms":10}"#,
        ] {
            let j = rejection(line);
            assert_eq!(j.get("category").unwrap().as_str(), Some("input"));
            assert_eq!(j.get("code").unwrap().as_u64(), Some(2));
        }
    }

    #[test]
    fn every_documented_solve_field_is_accepted() {
        parse_solve(
            r#"{"id":"a","op":"solve","generate":"g3_circuit","scale":"test","k":4,
                "block_size":30,"interface_drop_tol":1e-8,"schur_drop_tol":1e-8,
                "partitioner":"rhb","weights":"value",
                "ordering":"hypergraph","tau":0.4,"rhs_seed":1,"deadline_ms":100,
                "retry_limit":1,"fail_attempts":0,"worker_panic":0,
                "memory_blowup":false,"stall_schur_ms":1}"#,
        );
        parse_solve(r#"{"id":"b","op":"solve","matrix":"/tmp/m.mtx","rhs":[1.0]}"#);
    }

    #[test]
    fn responses_serialize_to_parseable_json() {
        let r = Response {
            id: "r\"1".to_string(),
            body: ResponseBody::Overloaded {
                reason: "queue_full",
                queue_depth: 17,
                retry_after_ms: Some(40),
            },
        };
        let j = Json::parse(&r.to_json_line()).unwrap();
        assert_eq!(j.get("id").unwrap().as_str(), Some("r\"1"));
        assert_eq!(j.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(j.get("retry_after_ms").unwrap().as_u64(), Some(40));

        let e = PdslinError::Cancelled { phase: "queue" };
        let j = Json::parse(&Response::from_error("x", &e, 1).to_json_line()).unwrap();
        assert_eq!(j.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(j.get("category").unwrap().as_str(), Some("budget"));
        assert_eq!(j.get("code").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("retries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn category_codes_match_the_cli_contract() {
        assert_eq!(category_code(ErrorCategory::Input), 2);
        assert_eq!(category_code(ErrorCategory::Numerical), 3);
        assert_eq!(category_code(ErrorCategory::Budget), 4);
        assert_eq!(category_code(ErrorCategory::Execution), 5);
    }
}
