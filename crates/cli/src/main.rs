//! The `pdslin` command-line driver.

use std::process::ExitCode;

use matgen::{MatrixKind, Scale};
use pdslin::partition::compute_partition_robust;
use pdslin::{PartitionStats, Pdslin, PdslinConfig, PdslinError, RecoveryReport};
use pdslin_cli::{
    build_budget, exit_code, load_matrix, parse_args, partitioner, rhs_ordering, solve_line,
    validate_options, weight_scheme, Args, HELP,
};
use sparsekit::ops::residual_inf_norm;

/// A failed command: the message plus the process exit code (1 for
/// usage/IO errors, category-specific for solver errors).
struct CmdError {
    message: String,
    code: u8,
}

impl CmdError {
    /// A bad option value is invalid input (exit 2), like an unknown
    /// option.
    fn input(message: String) -> CmdError {
        CmdError { message, code: 2 }
    }
}

impl From<String> for CmdError {
    fn from(message: String) -> CmdError {
        CmdError { message, code: 1 }
    }
}

impl From<PdslinError> for CmdError {
    fn from(e: PdslinError) -> CmdError {
        CmdError {
            message: format!("{e}"),
            code: exit_code(e.category()),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_options(&args) {
        // A typo'd option is invalid input, not a solver failure: the
        // input exit code (2) so scripts can tell it from exit 1 IO
        // errors.
        eprintln!("error: {e}\n\n{HELP}");
        return ExitCode::from(2);
    }
    let result = match args.command.as_str() {
        "solve" => cmd_solve(&args),
        "solve-seq" => cmd_solve_seq(&args),
        "partition" => cmd_partition(&args),
        "genmat" => cmd_genmat(&args).map_err(CmdError::from),
        "info" => cmd_info(&args).map_err(CmdError::from),
        "serve" => cmd_serve(&args).map_err(CmdError::from),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{HELP}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// Prints a recovery report to stderr (where diagnostics belong; stdout
/// carries the solve results).
fn report_recovery(stage: &str, recovery: &RecoveryReport) {
    if recovery.is_empty() {
        return;
    }
    eprintln!("{stage} recovered from {}:", recovery.summary());
    for ev in &recovery.events {
        eprintln!("  - {ev}");
    }
}

fn cmd_solve(args: &Args) -> Result<(), CmdError> {
    let a = load_matrix(args)?;
    println!("matrix: n = {}, nnz = {}", a.nrows(), a.nnz());
    let cfg = solver_config(args)?;
    let budget = build_budget(args)?;
    let mut solver = Pdslin::setup_budgeted(&a, cfg, &budget).map_err(|f| f.error)?;
    report_recovery("setup", &solver.stats.recovery);
    let t = &solver.stats.times;
    println!(
        "setup: sep = {}, nnz(S̃) = {} | partition {:.2}s, extract {:.2}s, LU(D) {:.2}s, Comp(S) {:.2}s, LU(S) {:.2}s",
        solver.stats.separator_size,
        solver.stats.nnz_schur,
        t.partition,
        t.extract,
        t.lu_d,
        t.comp_s,
        t.lu_s
    );
    let b = vec![1.0; a.nrows()];
    let out = solver.solve_budgeted(&b, &budget)?;
    println!("{}", solve_line(&out, solver.schur_apply_kept_share()));
    println!("‖b − Ax‖∞ = {:.3e}", residual_inf_norm(&a, &out.x, &b));
    // Health summary on stderr: the observables the service exposes via
    // its metrics endpoint, surfaced here for one-shot runs too.
    let scratch = solver.scratch_stats();
    let iface = &solver.stats.interface;
    let (kept, total) = solver.schur_apply_dep_entries();
    eprintln!(
        "health: scratch lanes = {}, allocations = {}, solves = {} | \
         factorizations = {} (reused {}) | interface solves {:.3}s, symbolic {:.3}s, \
         product {:.3}s ({} madds) | Schur apply sweeps {} of {} LU(D) entries in {} runs | \
         setup recovery events: {}",
        scratch.lanes,
        scratch.allocations,
        scratch.solves,
        solver.stats.factorizations,
        solver.stats.factorizations_reused,
        iface.iter().map(|s| s.solve_seconds).sum::<f64>(),
        iface.iter().map(|s| s.symbolic_seconds).sum::<f64>(),
        iface.iter().map(|s| s.product_seconds).sum::<f64>(),
        iface.iter().map(|s| s.product_madds).sum::<u64>(),
        kept,
        total,
        solver.schur_apply_runs(),
        solver.stats.recovery.len()
    );
    Ok(())
}

/// Builds the solver config shared by `solve` and `solve-seq` from the
/// command-line options.
fn solver_config(args: &Args) -> Result<PdslinConfig, CmdError> {
    let resolve = || -> Result<PdslinConfig, String> {
        let mut cfg = PdslinConfig {
            k: args.parse_or("k", 8usize)?,
            partitioner: partitioner(args)?,
            weights: weight_scheme(args)?,
            rhs_ordering: rhs_ordering(args)?,
            block_size: args.parse_or("block-size", 60usize)?,
            interface_drop_tol: args.parse_or("interface-drop", 1e-8)?,
            schur_drop_tol: args.parse_or("schur-drop", 1e-8)?,
            ..Default::default()
        };
        cfg.gmres.tol = args.parse_or("tol", cfg.gmres.tol)?;
        Ok(cfg)
    };
    resolve().map_err(CmdError::input)
}

/// `solve-seq`: derive a same-pattern value-drifting sequence from the
/// input matrix, pay one full setup, then advance through the steps
/// with incremental numeric refactorization (`Pdslin::update_values`)
/// followed by a solve.
fn cmd_solve_seq(args: &Args) -> Result<(), CmdError> {
    let a = load_matrix(args)?;
    let steps: usize = args.parse_or("steps", 8usize)?;
    if steps == 0 {
        return Err(CmdError::from("--steps must be at least 1".to_string()));
    }
    let drift: f64 = args.parse_or("drift", 0.01f64)?;
    println!(
        "matrix: n = {}, nnz = {} | sequence: {steps} step(s), drift {drift}",
        a.nrows(),
        a.nnz()
    );
    let cfg = solver_config(args)?;
    let mats = matgen::sequence(&a, steps, drift);
    let t0 = std::time::Instant::now();
    let mut solver = Pdslin::setup(&mats[0], cfg)?;
    let setup_secs = t0.elapsed().as_secs_f64();
    report_recovery("setup", &solver.stats.recovery);
    println!(
        "setup: {:.2}s once | sep = {}, nnz(S̃) = {}",
        setup_secs, solver.stats.separator_size, solver.stats.nnz_schur
    );
    let b = vec![1.0; a.nrows()];
    let mut update_total = 0.0;
    for (t, m) in mats.iter().enumerate() {
        let upd = solver.update_values(m)?;
        let out = solver.solve(&b)?;
        let how = if upd.rebuilt == 0 {
            "refactorized"
        } else {
            "partially rebuilt"
        };
        update_total += upd.seconds;
        println!(
            "step {t}: {how:<17} | update {:.3}s, solve {:.3}s, {} iteration(s), residual {:.2e}{}",
            upd.seconds,
            out.seconds,
            out.iterations,
            out.schur_residual,
            if out.converged {
                ""
            } else {
                " (not converged)"
            }
        );
    }
    println!(
        "sequence: {} step(s), {} numeric refactorization(s), {} replay fallback(s)",
        mats.len(),
        solver.stats.refactorizations,
        solver.stats.refactorization_fallbacks
    );
    println!(
        "amortization: full setup {setup_secs:.3}s vs mean update {:.3}s/step",
        update_total / mats.len() as f64
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let cfg = pdslin_service::ServiceConfig {
        workers: args.parse_or("workers", 2usize)?.max(1),
        queue_capacity: args.parse_or("queue", 64usize)?.max(1),
        max_batch: args.parse_or("max-batch", 8usize)?.max(1),
        cache_budget_bytes: args
            .parse_or("cache-budget-mb", 256usize)?
            .saturating_mul(1024 * 1024),
        setup_mem_budget_bytes: match args.get("mem-budget-mb") {
            None => None,
            Some(v) => Some(
                v.parse::<usize>()
                    .map_err(|_| format!("bad value for --mem-budget-mb: '{v}'"))?
                    .saturating_mul(1024 * 1024),
            ),
        },
        default_deadline_ms: match args.get("default-deadline-ms") {
            None => None,
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("bad value for --default-deadline-ms: '{v}'"))?,
            ),
        },
        ..Default::default()
    };
    let drain = std::time::Duration::from_millis(args.parse_or("drain-ms", 10_000u64)?);
    let workers = cfg.workers;
    let service = pdslin_service::Service::start(cfg);
    let report = match args.get("socket") {
        Some(path) => {
            eprintln!("pdslin serve: listening on {path} ({workers} workers)");
            serve_on_socket(&service, path, drain)?
        }
        None => {
            eprintln!("pdslin serve: reading jsonl requests from stdin ({workers} workers)");
            let stdin = std::io::stdin();
            pdslin_service::serve_lines(&service, stdin.lock(), std::io::stdout(), drain)
                .map_err(|e| format!("serve failed: {e}"))?
        }
    };
    eprintln!(
        "pdslin serve: shut down (drained {}, cancelled {})",
        report.drained, report.cancelled
    );
    Ok(())
}

#[cfg(unix)]
fn serve_on_socket(
    service: &pdslin_service::Service,
    path: &str,
    drain: std::time::Duration,
) -> Result<pdslin_service::ShutdownReport, String> {
    pdslin_service::serve_socket(service, std::path::Path::new(path), drain)
        .map_err(|e| format!("socket serve failed: {e}"))
}

#[cfg(not(unix))]
fn serve_on_socket(
    _service: &pdslin_service::Service,
    _path: &str,
    _drain: std::time::Duration,
) -> Result<pdslin_service::ShutdownReport, String> {
    Err("--socket is only supported on unix platforms; use stdin/stdout mode".into())
}

fn cmd_partition(args: &Args) -> Result<(), CmdError> {
    let a = load_matrix(args)?;
    let k = args.parse_or("k", 8usize).map_err(CmdError::input)?;
    let kind = partitioner(args).map_err(CmdError::input)?;
    let weights = weight_scheme(args).map_err(CmdError::input)?;
    let t = std::time::Instant::now();
    let mut recovery = RecoveryReport::default();
    let part = compute_partition_robust(&a, k, &kind, weights, false, &mut recovery)?;
    let secs = t.elapsed().as_secs_f64();
    report_recovery("partition", &recovery);
    let st = PartitionStats::compute(&a, &part);
    println!(
        "{} partition of n = {} into k = {k} ({secs:.2}s)",
        kind.label(),
        a.nrows()
    );
    println!("separator: {}", st.separator_size);
    println!("dim(D):  {:?}  (balance {:.2})", st.dims, st.dim_balance());
    println!(
        "nnz(D):  {:?}  (balance {:.2})",
        st.nnz_d,
        st.nnz_d_balance()
    );
    println!(
        "col(E):  {:?}  (balance {:.2})",
        st.nnzcol_e,
        st.col_e_balance()
    );
    println!(
        "nnz(E):  {:?}  (balance {:.2})",
        st.nnz_e,
        st.nnz_e_balance()
    );
    Ok(())
}

fn cmd_genmat(args: &Args) -> Result<(), String> {
    let kind = MatrixKind::from_name(args.get("generate").ok_or("genmat needs --generate KIND")?)?;
    let s = Scale::from_name(args.get_or("scale", "test"))?;
    let out = args.get("out").ok_or("genmat needs --out FILE.mtx")?;
    let a = matgen::generate(kind, s);
    sparsekit::io::write_matrix_market(out, &a).map_err(|e| format!("{e}"))?;
    println!("wrote {} (n = {}, nnz = {})", out, a.nrows(), a.nnz());
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let a = load_matrix(args)?;
    let (min, max, _) = sparsekit::ops::row_nnz_stats(&a);
    println!(
        "n = {}, nnz = {} ({:.1}/row, min {}, max {})",
        a.nrows(),
        a.nnz(),
        a.nnz() as f64 / a.nrows().max(1) as f64,
        min,
        max
    );
    println!("pattern symmetric: {}", a.pattern_symmetric());
    println!("value symmetric:   {}", a.value_symmetric(1e-12));
    Ok(())
}
