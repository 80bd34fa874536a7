//! `pdslin-cli` — argument parsing and command implementations for the
//! `pdslin` command-line driver.
//!
//! Subcommands:
//!
//! * `solve` — run the full hybrid solver on a Matrix Market file or a
//!   generated analogue;
//! * `solve-seq` — solve a drifting sequence of same-pattern matrices,
//!   reusing the symbolic setup and replaying only the numerics
//!   (`Pdslin::update_values`, then `Pdslin::solve`, per step);
//! * `partition` — compute and report a DBBD partition (NGD or RHB);
//! * `genmat` — write a Table-I analogue as a Matrix Market file;
//! * `info` — print basic statistics of a matrix.

use std::collections::HashMap;
use std::time::Duration;

use hypergraph::{ConstraintMode, CutMetric, RhbConfig};
use matgen::{MatrixKind, Scale};
use pdslin::{Budget, ErrorCategory, PartitionerKind, RhsOrdering, SolveOutcome, WeightScheme};
use sparsekit::Csr;

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs (keys without the `--` prefix).
    pub options: HashMap<String, String>,
}

/// Parses `--key value` style arguments.
///
/// Bare flags (a `--key` followed by another `--key` or nothing) get the
/// value `"true"`.
pub fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut it = argv.into_iter().peekable();
    let command = it.next().ok_or("missing subcommand (try `pdslin help`)")?;
    let mut options = HashMap::new();
    while let Some(tok) = it.next() {
        let key = tok
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{tok}'"))?
            .to_string();
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap(),
            _ => "true".to_string(),
        };
        options.insert(key, value);
    }
    Ok(Args { command, options })
}

impl Args {
    /// Option value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Option value or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parses a numeric option.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'")),
        }
    }
}

/// The options each subcommand accepts. Anything else is a usage error:
/// a typo like `--blocksize` must fail loudly (exit code 2) rather than
/// be silently ignored and leave the user running with defaults.
pub fn allowed_options(command: &str) -> Option<&'static [&'static str]> {
    const SOURCE: [&str; 3] = ["matrix", "generate", "scale"];
    const SOLVE: [&str; 16] = [
        "matrix",
        "generate",
        "scale",
        "k",
        "partitioner",
        "metric",
        "constraint",
        "weights",
        "ordering",
        "tau",
        "block-size",
        "tol",
        "interface-drop",
        "schur-drop",
        "deadline",
        "mem-budget-mb",
    ];
    const PARTITION: [&str; 8] = [
        "matrix",
        "generate",
        "scale",
        "k",
        "partitioner",
        "metric",
        "constraint",
        "weights",
    ];
    const SOLVE_SEQ: [&str; 16] = [
        "matrix",
        "generate",
        "scale",
        "steps",
        "drift",
        "k",
        "partitioner",
        "metric",
        "constraint",
        "weights",
        "ordering",
        "tau",
        "block-size",
        "tol",
        "interface-drop",
        "schur-drop",
    ];
    const GENMAT: [&str; 3] = ["generate", "scale", "out"];
    const SERVE: [&str; 8] = [
        "socket",
        "workers",
        "queue",
        "max-batch",
        "cache-budget-mb",
        "mem-budget-mb",
        "default-deadline-ms",
        "drain-ms",
    ];
    const HELP_OPTS: [&str; 0] = [];
    match command {
        "solve" => Some(&SOLVE),
        "solve-seq" => Some(&SOLVE_SEQ),
        "partition" => Some(&PARTITION),
        "genmat" => Some(&GENMAT),
        "info" => Some(&SOURCE),
        "serve" => Some(&SERVE),
        "help" | "--help" | "-h" => Some(&HELP_OPTS),
        _ => None,
    }
}

/// Rejects options the subcommand does not understand. `Ok` for unknown
/// subcommands — the dispatcher reports those itself.
pub fn validate_options(args: &Args) -> Result<(), String> {
    let Some(allowed) = allowed_options(&args.command) else {
        return Ok(());
    };
    let mut unknown: Vec<&str> = args
        .options
        .keys()
        .map(String::as_str)
        .filter(|k| !allowed.contains(k))
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    Err(format!(
        "unknown option{} for '{}': {}\nallowed: {}",
        if unknown.len() > 1 { "s" } else { "" },
        args.command,
        unknown
            .iter()
            .map(|k| format!("--{k}"))
            .collect::<Vec<_>>()
            .join(", "),
        allowed
            .iter()
            .map(|k| format!("--{k}"))
            .collect::<Vec<_>>()
            .join(" ")
    ))
}

/// Resolves the partitioner options into a [`PartitionerKind`].
pub fn partitioner(args: &Args) -> Result<PartitionerKind, String> {
    match args.get_or("partitioner", "ngd") {
        "ngd" => Ok(PartitionerKind::Ngd),
        "rhb" => {
            let metric = match args.get_or("metric", "soed") {
                "con1" => CutMetric::Con1,
                "cnet" => CutMetric::Cnet,
                "soed" => CutMetric::Soed,
                other => return Err(format!("unknown metric '{other}'")),
            };
            let constraint = match args.get_or("constraint", "single") {
                "unit" => ConstraintMode::Unit,
                "single" => ConstraintMode::Single,
                "multi" => ConstraintMode::Multi,
                other => return Err(format!("unknown constraint '{other}'")),
            };
            Ok(PartitionerKind::Rhb(RhbConfig {
                metric,
                constraint,
                ..Default::default()
            }))
        }
        other => Err(format!("unknown partitioner '{other}' (ngd|rhb)")),
    }
}

/// Resolves the `--weights` option into a [`WeightScheme`].
pub fn weight_scheme(args: &Args) -> Result<WeightScheme, String> {
    match args.get_or("weights", "unit") {
        "unit" => Ok(WeightScheme::Unit),
        "value" => Ok(WeightScheme::ValueScaled),
        other => Err(format!("unknown weights '{other}' (unit|value)")),
    }
}

/// Resolves the RHS ordering options.
pub fn rhs_ordering(args: &Args) -> Result<RhsOrdering, String> {
    match args.get_or("ordering", "postorder") {
        "natural" => Ok(RhsOrdering::Natural),
        "postorder" => Ok(RhsOrdering::Postorder),
        "hypergraph" => {
            let tau = match args.get("tau") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| format!("bad value for --tau: '{v}'"))?,
                ),
            };
            Ok(RhsOrdering::Hypergraph { tau })
        }
        "rgb" => Ok(RhsOrdering::Rgb),
        other => Err(format!("unknown ordering '{other}'")),
    }
}

/// Maps a solver error category to the CLI's exit code, so scripts can
/// distinguish bad input (2) from numerical failure (3) from an
/// exhausted budget (4) from an execution fault (5). Usage/IO errors
/// keep the generic exit code 1.
pub fn exit_code(category: ErrorCategory) -> u8 {
    match category {
        ErrorCategory::Input => 2,
        ErrorCategory::Numerical => 3,
        ErrorCategory::Budget => 4,
        ErrorCategory::Execution => 5,
    }
}

/// Builds the execution [`Budget`] from `--deadline SECS` and
/// `--mem-budget-mb MB` (absent flags leave that resource unlimited).
pub fn build_budget(args: &Args) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(v) = args.get("deadline") {
        let secs: f64 = v
            .parse()
            .map_err(|_| format!("bad value for --deadline: '{v}'"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!("bad value for --deadline: '{v}'"));
        }
        budget = budget.with_deadline(Duration::from_secs_f64(secs));
    }
    if let Some(v) = args.get("mem-budget-mb") {
        let mb: usize = v
            .parse()
            .map_err(|_| format!("bad value for --mem-budget-mb: '{v}'"))?;
        budget = budget.with_memory_limit(mb.saturating_mul(1024 * 1024));
    }
    Ok(budget)
}

/// The `solve` subcommand's result line: status, GMRES iterations, wall
/// time, Schur residual, and the share of the `LU(D)` dependency entries
/// each Schur apply sweeps ([`pdslin::Pdslin::schur_apply_kept_share`]).
pub fn solve_line(out: &SolveOutcome, kept_share: f64) -> String {
    format!(
        "solve: {}, {} GMRES iterations, {:.3}s, Schur residual {:.2e}, \
         Schur apply sweeps {:.1}% of LU(D)",
        if out.converged {
            "converged"
        } else {
            "accepted"
        },
        out.iterations,
        out.seconds,
        out.schur_residual,
        100.0 * kept_share
    )
}

/// Loads the input matrix: `--matrix FILE.mtx` or `--generate KIND`.
pub fn load_matrix(args: &Args) -> Result<Csr, String> {
    match (args.get("matrix"), args.get("generate")) {
        (Some(path), None) => sparsekit::io::read_matrix_market(path).map_err(|e| format!("{e}")),
        (None, Some(kind)) => {
            let k = MatrixKind::from_name(kind)?;
            let s = Scale::from_name(args.get_or("scale", "test"))?;
            Ok(matgen::generate(k, s))
        }
        (Some(_), Some(_)) => Err("pass either --matrix or --generate, not both".into()),
        (None, None) => Err("pass --matrix FILE.mtx or --generate KIND".into()),
    }
}

/// The `help` text.
pub const HELP: &str = "\
pdslin — Schur-complement hybrid solver (paper reproduction)

USAGE:
  pdslin solve     (--matrix F.mtx | --generate KIND [--scale test|bench])
                   [--k K] [--partitioner ngd|rhb] [--metric soed|cnet|con1]
                   [--constraint single|multi|unit] [--weights unit|value]
                   [--ordering natural|postorder|hypergraph|rgb [--tau T]]
                   [--block-size B] [--tol TOL]
                   [--deadline SECS] [--mem-budget-mb MB]
  pdslin solve-seq (--matrix F.mtx | --generate KIND [--scale test|bench])
                   [--steps N] [--drift D] [--k K] [--tol TOL]
                   [solver knobs as for `solve`]
  pdslin partition (--matrix F.mtx | --generate KIND [--scale ...])
                   [--k K] [--partitioner ...] [--weights unit|value]
  pdslin genmat    --generate KIND [--scale test|bench] --out FILE.mtx
  pdslin info      (--matrix F.mtx | --generate KIND [--scale ...])
  pdslin serve     [--socket PATH] [--workers N] [--queue N] [--max-batch N]
                   [--cache-budget-mb MB] [--mem-budget-mb MB]
                   [--default-deadline-ms MS] [--drain-ms MS]
  pdslin help

`serve` runs a persistent daemon speaking one JSON request per line
(stdin/stdout, or a unix socket with --socket). Requests:
  {\"id\":\"r1\",\"op\":\"solve\",\"generate\":\"g3_circuit\",\"k\":4,
   \"rhs_seed\":7,\"deadline_ms\":2000}
  {\"id\":\"m\",\"op\":\"metrics\"}    {\"id\":\"bye\",\"op\":\"shutdown\"}
Factorizations are cached by matrix content; compatible concurrent
requests coalesce into one batched solve. See docs/robustness.md.

`solve-seq` models a time-stepping/continuation workload: it derives a
sequence of N matrices with the base matrix's exact sparsity pattern and
deterministically drifting values, pays one full setup on step 0, then
updates only the numerics per step (`update_values`: pivot-replay
refactorization with full symbolic reuse) before solving it. See
docs/performance.md.

Unknown --options are rejected with exit code 2.

EXIT CODES:
  0 success, 1 usage/IO error, 2 invalid input matrix/config/option,
  3 numerical failure, 4 budget exhausted (deadline/cancel/memory),
  5 execution fault (worker panic)

KIND: tdr190k tdr455k dds.quad dds.linear matrix211 ASIC_680ks G3_circuit
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = parse_args(argv("solve --k 8 --partitioner rhb")).unwrap();
        assert_eq!(a.command, "solve");
        assert_eq!(a.get("k"), Some("8"));
        assert_eq!(a.get("partitioner"), Some("rhb"));
    }

    #[test]
    fn bare_flags_get_true() {
        let a = parse_args(argv("solve --verbose --k 4")).unwrap();
        assert_eq!(a.get("verbose"), Some("true"));
        assert_eq!(a.get("k"), Some("4"));
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(parse_args(Vec::<String>::new()).is_err());
    }

    #[test]
    fn numeric_parse_with_default() {
        let a = parse_args(argv("solve --k 16")).unwrap();
        assert_eq!(a.parse_or("k", 8usize).unwrap(), 16);
        assert_eq!(a.parse_or("block-size", 60usize).unwrap(), 60);
        assert!(a.parse_or::<usize>("k", 8).is_ok());
        let bad = parse_args(argv("solve --k lots")).unwrap();
        assert!(bad.parse_or::<usize>("k", 8).is_err());
    }

    #[test]
    fn partitioner_resolution() {
        let a = parse_args(argv("solve --partitioner rhb --metric cnet")).unwrap();
        match partitioner(&a).unwrap() {
            PartitionerKind::Rhb(cfg) => assert_eq!(cfg.metric, CutMetric::Cnet),
            _ => panic!("expected RHB"),
        }
        let d = parse_args(argv("solve")).unwrap();
        assert!(matches!(partitioner(&d).unwrap(), PartitionerKind::Ngd));
    }

    #[test]
    fn ordering_resolution() {
        let a = parse_args(argv("solve --ordering hypergraph --tau 0.4")).unwrap();
        assert_eq!(
            rhs_ordering(&a).unwrap(),
            RhsOrdering::Hypergraph { tau: Some(0.4) }
        );
        let b = parse_args(argv("solve --ordering hypergraph")).unwrap();
        assert_eq!(
            rhs_ordering(&b).unwrap(),
            RhsOrdering::Hypergraph { tau: None }
        );
    }

    #[test]
    fn rgb_ordering_resolution() {
        let a = parse_args(argv("solve --ordering rgb")).unwrap();
        assert_eq!(rhs_ordering(&a).unwrap(), RhsOrdering::Rgb);
    }

    #[test]
    fn weights_resolution() {
        let a = parse_args(argv("solve --weights value")).unwrap();
        assert_eq!(weight_scheme(&a).unwrap(), WeightScheme::ValueScaled);
        let d = parse_args(argv("solve")).unwrap();
        assert_eq!(weight_scheme(&d).unwrap(), WeightScheme::Unit);
        assert!(weight_scheme(&parse_args(argv("solve --weights heavy")).unwrap()).is_err());
    }

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let codes = [
            exit_code(ErrorCategory::Input),
            exit_code(ErrorCategory::Numerical),
            exit_code(ErrorCategory::Budget),
            exit_code(ErrorCategory::Execution),
        ];
        for (i, a) in codes.iter().enumerate() {
            assert!(*a > 1, "category codes must not collide with 0/1");
            for b in codes.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn budget_flags_build_a_limited_budget() {
        let a = parse_args(argv("solve --deadline 2.5 --mem-budget-mb 64")).unwrap();
        let budget = build_budget(&a).unwrap();
        assert!(budget.is_limited());
        assert_eq!(budget.mem_limit(), Some(64 * 1024 * 1024));
        let none = parse_args(argv("solve")).unwrap();
        assert!(!build_budget(&none).unwrap().is_limited());
        let bad = parse_args(argv("solve --deadline soon")).unwrap();
        assert!(build_budget(&bad).is_err());
        let neg = parse_args(argv("solve --deadline -1")).unwrap();
        assert!(build_budget(&neg).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_per_subcommand() {
        let ok = parse_args(argv("solve --generate g3_circuit --k 4 --tol 1e-8")).unwrap();
        assert!(validate_options(&ok).is_ok());
        let budgeted = parse_args(argv("solve --generate g3_circuit --deadline 30")).unwrap();
        assert!(validate_options(&budgeted).is_ok());
        // …but only for `solve`; `partition` takes no budget.
        let wrong_cmd = parse_args(argv("partition --generate g3_circuit --deadline 30")).unwrap();
        assert!(validate_options(&wrong_cmd).is_err());
        let typo = parse_args(argv("solve --generate g3_circuit --blocksize 32")).unwrap();
        let err = validate_options(&typo).unwrap_err();
        assert!(err.contains("--blocksize"), "{err}");
        assert!(err.contains("allowed:"), "{err}");
        // An option valid for one subcommand is not valid for another.
        let wrong = parse_args(argv("info --k 4 --generate g3_circuit")).unwrap();
        assert!(validate_options(&wrong).is_err());
        let serve = parse_args(argv("serve --workers 2 --queue 8")).unwrap();
        assert!(validate_options(&serve).is_ok());
        // Unknown subcommands are the dispatcher's problem, not ours.
        let other = parse_args(argv("dance --k 4")).unwrap();
        assert!(validate_options(&other).is_ok());
    }

    #[test]
    fn solve_seq_options_are_scoped() {
        let ok = parse_args(argv(
            "solve-seq --generate g3_circuit --steps 4 --drift 0.05 --schur-drop 1e-4",
        ))
        .unwrap();
        assert!(validate_options(&ok).is_ok());
        // Sequence knobs belong to solve-seq alone…
        let wrong = parse_args(argv("solve --generate g3_circuit --steps 4")).unwrap();
        assert!(validate_options(&wrong).is_err());
        // …and solve-only knobs (deadline, memory budget) are not sequence options.
        let not_seq = parse_args(argv("solve-seq --generate g3_circuit --deadline 30")).unwrap();
        assert!(validate_options(&not_seq).is_err());
    }

    #[test]
    fn load_matrix_requires_exactly_one_source() {
        let a = parse_args(argv("solve")).unwrap();
        assert!(load_matrix(&a).is_err());
        let b = parse_args(argv("solve --generate g3_circuit --scale test")).unwrap();
        let m = load_matrix(&b).unwrap();
        assert!(m.nrows() > 1000);
    }
}
