//! End-to-end tests of the multi-process shard substrate: the full
//! process-fault matrix (worker kill, heartbeat stall, torn frame,
//! respawn exhaustion, corrupted checkpoint bytes), each asserting the
//! supervisor recovers to a result *bit-identical* to in-process
//! execution — and that no fault ever hangs the parent past its budget
//! deadline plus the supervision slack.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use matgen::stencil::laplace2d;
use pdslin::{Budget, FaultPlan, PartitionerKind, Pdslin, PdslinConfig, PdslinError};
use pdslin_shard::{shard_setup, ShardConfig};
use sparsekit::Csr;

fn test_matrix() -> Csr {
    laplace2d(24, 24)
}

fn test_config() -> PdslinConfig {
    PdslinConfig {
        k: 4,
        partitioner: PartitionerKind::Ngd,
        schur_drop_tol: 1e-10,
        interface_drop_tol: 1e-12,
        ..Default::default()
    }
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        workers: 2,
        heartbeat_interval_ms: 10,
        heartbeat_timeout_ms: 500,
        respawn_limit: 2,
        respawn_backoff_ms: 10,
        worker_bin: Some(worker_bin().clone()),
    }
}

/// Builds `pdslin-shard-worker` once per test run, in the profile and
/// target directory of this test binary, and returns its path. `cargo
/// test` does not rebuild other packages' binaries, so without this a
/// worker left over from an older build would serve the bit-identity
/// tests with stale numerics.
fn worker_bin() -> &'static PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        // The test binary lives in `<target>/<profile-dir>/deps/`.
        let exe = std::env::current_exe().expect("test executable path");
        let profile_dir = exe
            .parent()
            .and_then(|deps| deps.parent())
            .expect("test binary outside <target>/<profile>/deps");
        let target_dir = profile_dir.parent().expect("profile dir has a parent");
        let profile = match profile_dir.file_name().and_then(|s| s.to_str()) {
            Some("debug") => "dev",
            Some(other) => other,
            None => panic!("unnamed profile dir {}", profile_dir.display()),
        };
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let out = Command::new(cargo)
            .args([
                "build",
                "-p",
                "pdslin-shard",
                "--bin",
                "pdslin-shard-worker",
            ])
            .args(["--profile", profile])
            .arg("--target-dir")
            .arg(target_dir)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("run cargo build for the shard worker");
        assert!(
            out.status.success(),
            "building pdslin-shard-worker failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bin = profile_dir.join(format!(
            "pdslin-shard-worker{}",
            std::env::consts::EXE_SUFFIX
        ));
        assert!(bin.is_file(), "no worker at {}", bin.display());
        bin
    })
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 7) % 23) as f64 / 23.0).collect()
}

/// The in-process reference answer for `cfg` *without* process faults
/// (process faults only exist in the shard layer, so the reference is
/// what the same numerical configuration computes single-process).
fn reference_solution(a: &Csr, mut cfg: PdslinConfig) -> Vec<f64> {
    cfg.fault = FaultPlan::none();
    let mut solver = Pdslin::setup(a, cfg).expect("in-process setup");
    solver.solve(&rhs(a.nrows())).expect("in-process solve").x
}

fn assert_bit_identical(x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), y.len());
    for (i, (u, v)) in x.iter().zip(y).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "x[{i}] differs: {u} vs {v}");
    }
}

#[test]
fn clean_sharded_setup_is_bit_identical_to_in_process() {
    let a = test_matrix();
    let cfg = test_config();
    let (mut solver, report) =
        shard_setup(&a, cfg, &shard_config(), &Budget::unlimited()).expect("shard setup");
    assert!(
        !report.degraded_to_in_process,
        "worker binary must be found in test builds: {report:?}"
    );
    assert_eq!(report.factorizations_remote, 4, "{report:?}");
    assert_eq!(report.workers_lost, 0, "{report:?}");
    assert_eq!(solver.stats.factorizations, 4);
    assert_eq!(solver.stats.factorizations_reused, 0);

    let x = solver.solve(&rhs(a.nrows())).expect("shard solve").x;
    assert_bit_identical(&x, &reference_solution(&a, cfg));
}

#[test]
fn killed_worker_mid_setup_recovers_without_losing_completed_work() {
    let a = test_matrix();
    let mut cfg = test_config();
    // Kill on the *last* subdomain's first dispatch: with two workers,
    // at least two earlier factorizations have deterministically
    // completed by then, so recovery must reuse them.
    cfg.fault = FaultPlan {
        worker_kill: Some(3),
        ..Default::default()
    };
    let budget = Budget::unlimited().with_deadline(Duration::from_secs(120));
    let t0 = Instant::now();
    let (mut solver, report) =
        shard_setup(&a, cfg, &shard_config(), &budget).expect("recovered setup");
    assert!(
        t0.elapsed() < Duration::from_secs(130),
        "recovery must not hang past deadline + slack"
    );

    assert!(report.workers_lost >= 1, "{report:?}");
    assert!(report.reassigned_domains >= 1, "{report:?}");
    assert!(
        solver.stats.factorizations_reused > 0,
        "completed factorizations must be reused, not redone: {report:?}"
    );
    assert_eq!(
        solver.stats.factorizations + solver.stats.factorizations_reused,
        4
    );
    assert!(
        solver
            .stats
            .recovery
            .events
            .iter()
            .any(|e| matches!(e, pdslin::RecoveryEvent::WorkerProcessLost { .. })),
        "recovery log must record the process loss"
    );

    let x = solver.solve(&rhs(a.nrows())).expect("solve").x;
    assert_bit_identical(&x, &reference_solution(&a, cfg));
}

#[test]
fn stalled_worker_heartbeat_times_out_and_work_is_reassigned() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        heartbeat_stall: Some(3),
        ..Default::default()
    };
    let mut sc = shard_config();
    sc.heartbeat_timeout_ms = 300;
    let t0 = Instant::now();
    let (mut solver, report) = shard_setup(&a, cfg, &sc, &Budget::unlimited()).expect("setup");
    assert!(report.heartbeat_timeouts >= 1, "{report:?}");
    assert!(report.workers_lost >= 1, "{report:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "stall detection must be bounded by the liveness deadline"
    );
    let x = solver.solve(&rhs(a.nrows())).expect("solve").x;
    assert_bit_identical(&x, &reference_solution(&a, cfg));
}

#[test]
fn torn_response_frame_is_detected_and_recovered() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        torn_frame: Some(3),
        ..Default::default()
    };
    let (mut solver, report) =
        shard_setup(&a, cfg, &shard_config(), &Budget::unlimited()).expect("setup");
    assert!(
        report.torn_frames >= 1 || report.workers_lost >= 1,
        "the torn frame must be observed as a torn frame or a loss: {report:?}"
    );
    let x = solver.solve(&rhs(a.nrows())).expect("solve").x;
    assert_bit_identical(&x, &reference_solution(&a, cfg));
}

#[test]
fn respawn_exhaustion_degrades_to_in_process_execution() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        worker_kill: Some(0),
        ..Default::default()
    };
    let mut sc = shard_config();
    sc.workers = 1;
    sc.respawn_limit = 0;
    let (mut solver, report) = shard_setup(&a, cfg, &sc, &Budget::unlimited()).expect("setup");
    assert!(report.degraded_to_in_process, "{report:?}");
    assert_eq!(report.factorizations_local, 4, "{report:?}");
    assert!(report.workers_lost >= 1, "{report:?}");
    let x = solver.solve(&rhs(a.nrows())).expect("solve").x;
    assert_bit_identical(&x, &reference_solution(&a, cfg));
}

#[test]
fn corrupt_checkpoint_entry_is_rejected_and_recomputed() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        worker_kill: Some(3),
        corrupt_checkpoint: true,
        ..Default::default()
    };
    let (mut solver, report) =
        shard_setup(&a, cfg, &shard_config(), &Budget::unlimited()).expect("setup");
    assert!(
        report.checkpoint_rejected >= 1,
        "the corrupted ledger entry must fail validation: {report:?}"
    );
    assert!(
        solver.stats.factorizations_reused >= 1,
        "the untouched entries must still be reused: {report:?}"
    );
    let x = solver.solve(&rhs(a.nrows())).expect("solve").x;
    assert_bit_identical(&x, &reference_solution(&a, cfg));
}

#[test]
fn missing_worker_binary_degrades_instead_of_failing() {
    let a = test_matrix();
    let mut sc = shard_config();
    sc.worker_bin = Some(std::path::PathBuf::from("/nonexistent/pdslin-shard-worker"));
    let (mut solver, report) =
        shard_setup(&a, test_config(), &sc, &Budget::unlimited()).expect("setup");
    assert!(report.degraded_to_in_process, "{report:?}");
    assert_eq!(report.workers_spawned, 0, "{report:?}");
    let x = solver.solve(&rhs(a.nrows())).expect("solve").x;
    assert_bit_identical(&x, &reference_solution(&a, test_config()));
}

#[test]
fn deadline_during_stalled_shard_surfaces_typed_error_within_slack() {
    let a = test_matrix();
    let mut cfg = test_config();
    cfg.fault = FaultPlan {
        heartbeat_stall: Some(0),
        ..Default::default()
    };
    let mut sc = shard_config();
    sc.workers = 1;
    sc.respawn_limit = 0;
    // Liveness deadline far beyond the budget: only the budget can end
    // the wait, and it must do so promptly.
    sc.heartbeat_timeout_ms = 60_000;
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(800));
    let t0 = Instant::now();
    let failure = shard_setup(&a, cfg, &sc, &budget).expect_err("must hit the deadline");
    let elapsed = t0.elapsed();
    assert!(
        matches!(
            failure.error,
            PdslinError::DeadlineExceeded { .. } | PdslinError::Cancelled { .. }
        ),
        "expected a typed budget error, got {:?}",
        failure.error
    );
    assert!(
        elapsed < Duration::from_millis(800) + Duration::from_secs(3),
        "parent hung for {elapsed:?}, past deadline + slack"
    );
}

#[test]
fn invalid_input_is_rejected_before_any_worker_spawns() {
    let a = Csr::from_parts(2, 3, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]);
    let failure =
        shard_setup(&a, test_config(), &shard_config(), &Budget::unlimited()).unwrap_err();
    assert!(matches!(failure.error, PdslinError::InvalidInput { .. }));
}
