//! The command line both binaries share.

use crate::workloads::Workload;

/// Parsed arguments.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
}

fn usage(program: &str, problem: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "{program}: {problem}\nusage: {program} --workload <name> [--seed <u64>] \
         [--seconds <1..=60>] [--trace <0|1>]\nworkloads: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

impl Args {
    /// Parses the process arguments; anything unknown exits 2 with the
    /// list of workload names. `--trace` and `--seconds` are accepted
    /// (the launcher passes its whole command line through) and checked,
    /// not used: tracing lives in its own binary (noise rule 5), and a
    /// run is fixed work, so its length is not an input (noise rule 1).
    pub fn parse(program: &str) -> Args {
        let mut workload = None;
        let mut seed = 1u64;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let Some(value) = it.next() else {
                usage(program, &format!("{flag} needs a value"));
            };
            match flag.as_str() {
                "--workload" => match Workload::parse(&value) {
                    Some(w) => workload = Some(w),
                    None => usage(program, &format!("unknown workload '{value}'")),
                },
                "--seed" => match value.parse() {
                    Ok(s) => seed = s,
                    Err(_) => usage(program, &format!("bad seed '{value}'")),
                },
                "--seconds" if value.parse().is_ok_and(|s: u64| (1..=60).contains(&s)) => {}
                "--trace" if value == "0" || value == "1" => {}
                _ => usage(program, &format!("unknown argument '{flag} {value}'")),
            }
        }
        let Some(workload) = workload else {
            usage(program, "--workload is required");
        };
        Args { workload, seed }
    }
}
