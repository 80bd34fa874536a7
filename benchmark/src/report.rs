//! Sample statistics and the output format shared by both binaries: a
//! table a person reads, one stamp line, and the result line last.

use crate::args::Args;
use crate::host::{self, Canary, Cores};
use crate::oracle::Ops;
use pdslin_service::json::num;

/// The wall times (or rates) of the repetitions of one metric. Every
/// sample is the same work (noise rule 2).
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one repetition.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of repetitions kept.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Fastest repetition: interference on a shared host only ever adds
    /// time, so this is the per-run value of a timing (noise rule 3).
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample (the best batch of a rate).
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// Middle repetition (mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        let s = self.sorted();
        let m = s.len() / 2;
        if s.len() % 2 == 1 {
            s[m]
        } else {
            0.5 * (s[m - 1] + s[m])
        }
    }

    /// Nearest-rank 90th percentile.
    pub fn p90(&self) -> f64 {
        let s = self.sorted();
        s[(s.len() * 9).div_ceil(10).max(1) - 1]
    }
}

/// One named number of the result line.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The per-run value.
    pub value: f64,
    /// The samples behind it, when it is a best-of-N.
    pub samples: Option<Samples>,
}

impl Metric {
    /// A single measured or counted value.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
        }
    }

    /// A value picked from repeated samples (their best or median),
    /// printed with n, median and p90 beside it.
    pub fn sampled(name: &'static str, unit: &'static str, value: f64, samples: Samples) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Some(samples),
        }
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), num)
}

/// Everything one run prints.
pub struct Report<'a> {
    /// The binary's name.
    pub program: &'static str,
    /// The parsed command line.
    pub args: &'a Args,
    /// Pinned sizes of the workload, already JSON (`"n":5832,...`).
    pub sizes: &'static str,
    /// Fingerprint of the workload's first `x`.
    pub x_fingerprint: u64,
    /// The metrics of the result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// The run's canary readings.
    pub canary: Canary,
    /// The cores the run was pinned to, one at a time; `None` for a run
    /// left to the scheduler.
    pub cores: Option<Cores>,
    /// [`host::steal_s`] when the run began.
    pub steal_at_start_s: Option<f64>,
}

impl Report<'_> {
    /// Prints the table, the stamp line and, last, the result line.
    pub fn print(&self) {
        let a = self.args;
        // Last core, moves between cores, seconds spent choosing.
        let pinned = self
            .cores
            .as_ref()
            .and_then(|c| Some((c.current()?, c.hops, c.settle_s)));
        let core = pinned.map_or("null".to_string(), |(c, _, _)| c.to_string());
        let (hops, settle_s) = pinned.map_or((0, 0.0), |(_, h, s)| (h, s));
        println!(
            "{} workload={} seed={} PDSLIN_THREADS={} nproc={} core={} core_hops={} settle_s={:.3}",
            self.program,
            a.workload.name(),
            a.seed,
            host::THREADS,
            host::nproc(),
            core,
            hops,
            settle_s
        );
        println!(
            "{:<30} {:>6} {:>4} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "value", "median", "p90"
        );
        for m in &self.metrics {
            match &m.samples {
                Some(s) => println!(
                    "{:<30} {:>6} {:>4} {:>14.6} {:>14.6} {:>14.6}",
                    m.name,
                    m.unit,
                    s.n(),
                    m.value,
                    s.median(),
                    s.p90()
                ),
                None => println!("{:<30} {:>6} {:>4} {:>14.6}", m.name, m.unit, 1, m.value),
            }
        }
        let runq = host::runq_wait_s();
        // Seconds the hypervisor took from this machine during the run.
        let steal = host::steal_s()
            .zip(self.steal_at_start_s)
            .map(|(end, start)| ((end - start) * 100.0).round() / 100.0);
        println!(
            "ops_attempted={} ops_failed={} host.canary_s={:.6} host.canary_drift={:.4} \
             host.runq_wait_s={} host.steal_s={}",
            self.ops.attempted,
            self.ops.failed,
            self.canary.best(),
            self.canary.drift(),
            json_opt(runq),
            json_opt(steal)
        );
        println!(
            "{{\"stamp\":{{\"program\":\"{}\",\"workload\":\"{}\",\"commit\":\"{}\",\"seed\":{},\
             \"nproc\":{},\"core\":{},\"core_hops\":{},\"settle_s\":{},\"pdslin_threads\":{},\"sizes\":{{{}}},\
             \"x_fingerprint\":\"{:016x}\",\"canary_s\":{},\"canary_drift\":{},\"runq_wait_s\":{},\"steal_s\":{}}}}}",
            self.program,
            a.workload.name(),
            host::commit(),
            a.seed,
            host::nproc(),
            core,
            hops,
            num(settle_s),
            host::THREADS,
            self.sizes,
            self.x_fingerprint,
            num(self.canary.best()),
            num(self.canary.drift()),
            json_opt(runq),
            json_opt(steal)
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ops.failed == 0,
            self.ops.attempted,
            self.ops.failed,
            metrics.join(",")
        );
    }
}
