//! Tests of the `pdslin` binary itself, for behaviour that lives in its
//! own glue (`main.rs`) rather than in a library a test can call: each
//! input must end in a typed answer or error, never in a panic.

use std::process::{Command, Output};

/// Runs `pdslin` with `args`.
fn pdslin(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdslin"))
        .args(args.split_whitespace())
        .output()
        .expect("the pdslin binary runs")
}

#[test]
fn partition_with_non_power_of_two_k_reports_the_fallback() {
    // Both partitioners bisect recursively; `partition` takes the
    // fallback chain `solve` takes instead of panicking (exit 101).
    for name in ["rhb", "ngd"] {
        let out = pdslin(&format!(
            "partition --generate g3_circuit --k 3 --partitioner {name}"
        ));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        assert!(stderr.contains("-> natural-block"), "{name}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("into k = 3"));
    }
}

#[test]
fn rgb_is_not_an_ordering() {
    // A bad option value is invalid input: exit 2, like an unknown flag.
    let out = pdslin("solve --generate g3_circuit --ordering rgb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown ordering 'rgb'"), "{stderr}");
}
