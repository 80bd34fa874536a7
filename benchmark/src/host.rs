//! What the harness records about the machine and the run itself, so a
//! reader can tell a busy host from a slower program.

use std::hint::black_box;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

/// Thread setting every run uses (noise rule 4): on a shared 2-core
/// host two workers gave no speed-up and a bimodal wall time.
pub const THREADS: &str = "1";

/// Pins `PDSLIN_THREADS` before the first library call. The library
/// reads the variable on every fan-out, so this is the only knob.
pub fn pin_threads() {
    std::env::set_var(pdslin::par::THREADS_ENV, THREADS);
}

/// Cores the host gives this process, counted once (so before
/// [`Cores::pin`] narrows them).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Seconds of processor time the process, all its threads together, has
/// used so far (`CLOCK_PROCESS_CPUTIME_ID`): the clock of every
/// end-to-end timing.
///
/// The reference host and the host that checks the benchmark are
/// virtual machines on overcommitted hardware: for seconds to minutes
/// at a time the hypervisor runs someone else on a core for 30-90 % of
/// the time (`steal` in `/proc/stat`). A wall clock counts that, so one
/// loop of fixed arithmetic read 2.10 to 6.24 s in eight back-to-back
/// repetitions; the kernel leaves stolen time out of a thread's run
/// time, and the same repetitions read 1.95 to 2.50 s of processor
/// time. A run does its work on one thread at a time and never waits
/// for a device, so on an undisturbed machine the two clocks agree to
/// within the idle gaps the harness means to leave out anyway (the
/// back-off sleep of a burst's plug).
pub fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the pointer is to a live timespec of the layout the
    // 64-bit Linux ABI gives it.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(
        status, 0,
        "Linux always has the process's processor-time clock"
    );
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// A mark on the [`cpu_s`] clock.
pub struct CpuMark(f64);

impl CpuMark {
    /// Marks now.
    pub fn now() -> CpuMark {
        CpuMark(cpu_s())
    }

    /// Processor seconds the process has used since the mark.
    pub fn elapsed_s(&self) -> f64 {
        cpu_s() - self.0
    }
}

/// Seconds the hypervisor has run something else while a core of this
/// machine had work (the `steal` field of `/proc/stat`, all cores),
/// `None` without `/proc`. Kernel ticks: 10 ms steps.
pub fn steal_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = text
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Words of a kernel CPU mask: room for 1024 cores.
const MASK_WORDS: usize = 16;

/// Pins the calling thread, and so every thread it starts afterwards,
/// to `core`.
fn pin_to(core: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: the pointer is to `size_of_val(&mask)` bytes that outlive
    // the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// A reading of [`Cores::settle`]'s probe within this factor of the
/// fastest one seen counts as a core at full speed (the slow state is
/// 1.4x).
const FULL_SPEED: f64 = 1.08;
/// Probes one `settle` call may spend (about 2 ms each) before it gives
/// up and lets the sample run wherever it is.
const SETTLE_PROBES: usize = 50;

/// The cores the process may use, one of which an untraced run is
/// pinned to at any time.
///
/// Why pinned: such a run does its work on one thread at a time. The
/// library runs single-threaded, and the daemon's client, transport and
/// worker hand one request around in a closed loop. Left to the
/// scheduler, each hand-off wakes a thread on the other, idle core,
/// which on a virtual machine is an exit to a hypervisor whose answer
/// time follows the load of the whole host: the fastest of 300 full-hit
/// round trips read 1.10 ms on this host and 1.37 ms, spread over
/// 13-18 % between runs, on the host that checks the benchmark. On one
/// core a hand-off is a context switch, the core never idles inside a
/// sample, and the 17 lines of a burst are written and parsed in one
/// fixed order.
///
/// Why not one core for the whole run: each core of the shared host
/// drops, on its own and for 0.2 s to minutes at a time, to a state in
/// which everything, arithmetic included, runs 1.4x slower with no
/// stolen time reported (a neighbour on the sibling hardware thread,
/// most likely). The best of 8 set-ups of 1 s each is at the floor only
/// if one of them saw no such phase. So before a sample the harness
/// looks for a core that is at full speed just now. Ten interleaved
/// pairs of `fusion_rhb` runs with and without that search, in the
/// host's worst hour, spread `setup_s` over 12 % and 27 %, `solve_s`
/// over 2.4 % and 16 %, `rhs_per_s` over 5 % and 14 %.
pub struct Cores {
    allowed: Vec<usize>,
    current: usize,
    fastest_probe_s: f64,
    /// Times `settle` moved to another core.
    pub hops: usize,
    /// Seconds `settle` spent probing.
    pub settle_s: f64,
}

impl Cores {
    /// Reads the cores the process may use and pins it to the
    /// highest-numbered one (core 0 takes most interrupts). Where the
    /// kernel refuses either call the run is left to the scheduler:
    /// `current` is `None` and `settle` returns at once.
    pub fn pin() -> Cores {
        nproc();
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: as in `pin_to`.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        let mut allowed: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|c| read && mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let current = allowed.len().saturating_sub(1);
        if !allowed.last().is_some_and(|&c| pin_to(c)) {
            allowed.clear();
        }
        Cores {
            allowed,
            current,
            fastest_probe_s: f64::INFINITY,
            hops: 0,
            settle_s: 0.0,
        }
    }

    /// The core the process is pinned to now.
    pub fn current(&self) -> Option<usize> {
        self.allowed.get(self.current).copied()
    }

    /// Returns once a 2 ms slice of the canary loop runs at full speed
    /// on the pinned core, trying the next core after every slow slice;
    /// gives up after [`SETTLE_PROBES`] slices. Called before a sample,
    /// never inside one: it chooses when and where a sample starts, not
    /// what it measures.
    pub fn settle(&mut self) {
        if self.allowed.is_empty() {
            return;
        }
        let t = Instant::now();
        for _ in 0..SETTLE_PROBES {
            let probe_s = canary_loop(CANARY_STEPS / 25);
            self.fastest_probe_s = self.fastest_probe_s.min(probe_s);
            if probe_s <= self.fastest_probe_s * FULL_SPEED {
                break;
            }
            let next = (self.current + 1) % self.allowed.len();
            if next != self.current && pin_to(self.allowed[next]) {
                self.current = next;
                self.hops += 1;
            }
        }
        self.settle_s += t.elapsed().as_secs_f64();
    }
}

/// Short commit hash of the checkout, `unknown` outside git. The
/// ceiling keeps git from walking above the checkout.
pub fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd);
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One field of a `/proc/self/status` line such as `VmHWM:  1234 kB`.
fn proc_status_kb(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB, `None` without `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Seconds the main thread has spent runnable but waiting for a core
/// (second field of `/proc/self/schedstat`), `None` without `/proc`.
pub fn runq_wait_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns * 1e-9)
}

/// A fixed loop of harness-only arithmetic (no solver code, no memory
/// traffic), about 50 ms on the reference host. Timed at the start,
/// middle and end of every run: a canary that drifts means the machine
/// changed speed under the run, not the program.
fn canary_once() -> f64 {
    canary_loop(CANARY_STEPS)
}

const CANARY_STEPS: u64 = 22_000_000;

fn canary_loop(steps: u64) -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * (i | 1) as f64;
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The canary readings of one run.
#[derive(Default)]
pub struct Canary {
    readings: Vec<f64>,
}

impl Canary {
    /// Times the loop once more.
    pub fn tick(&mut self) {
        self.readings.push(canary_once());
    }

    /// Fastest reading, seconds.
    pub fn best(&self) -> f64 {
        self.readings.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest reading over fastest.
    pub fn drift(&self) -> f64 {
        self.readings.iter().copied().fold(0.0, f64::max) / self.best()
    }
}
