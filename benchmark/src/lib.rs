//! The repository's benchmark harness: four fixed-work workloads, six
//! end-to-end metrics (`bench_e2e`) and one traced run per layer
//! (`bench_trace`). Everything is measured from here, around the
//! crates' public functions; nothing inside the crates is instrumented.
//! See `README.md` for the metric and workload tables and the noise
//! rules the code comments refer to.

pub mod args;
pub mod host;
pub mod oracle;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod trace;
pub mod workloads;

/// Prints why the run cannot go on and exits 1, without a result line:
/// a set-up that fails or a daemon that cannot be reached leaves nothing
/// to measure.
pub fn fatal(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("benchmark: {what}: {e}");
    std::process::exit(1);
}
