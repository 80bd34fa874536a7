//! `refactor_probe --workload <name>`: the refactor step of `bench_e2e`
//! and nothing else, printed as one number of seconds. `run.sh` builds
//! this binary a second time without the function-alignment flag, the
//! way the root workspace builds what users run, and `bench_trace`
//! reports that build's number as `refactor.shipped_build_time_s`
//! (noise rule 7).

use std::hint::black_box;
use std::time::Instant;

use pdslin::Pdslin;
use pdslin_benchmark::args::Args;
use pdslin_benchmark::fatal;
use pdslin_benchmark::host;
use pdslin_benchmark::workloads::drifted;

/// Steps kept, after one discarded warm-up.
const REPS: usize = 2;

fn main() {
    let args = Args::parse("refactor_probe");
    host::pin_threads();
    let a = args.workload.matrix();
    let a1 = drifted(&a);
    let mut best = f64::INFINITY;
    for rep in 0..=REPS {
        let mut solver =
            Pdslin::setup(&a, args.workload.config()).unwrap_or_else(|e| fatal("setup", e));
        let t = Instant::now();
        let step = solver.update_values(black_box(&a1));
        let dt = t.elapsed().as_secs_f64();
        match step {
            Ok(u) if u.rebuilt == 0 => {}
            Ok(u) => fatal("update_values", format!("rebuilt {} factors", u.rebuilt)),
            Err(e) => fatal("update_values", e),
        }
        if rep > 0 {
            best = best.min(dt);
        }
    }
    println!("{best}");
}
