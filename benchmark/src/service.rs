//! The `service_mixed` plumbing: an in-process [`Service`] behind
//! [`serve_lines`] on a socket pair, one closed-loop client, matrices
//! the harness writes as Matrix Market files, and a library-side
//! reference every reply is checked against.
//!
//! The daemon's replies carry no `x`, so the oracle works in two steps:
//! the harness solves the same file contents in-process, checks *that*
//! `x` against the matrix, and requires the daemon's reply to report
//! exactly the same iteration count and Schur residual (the two paths
//! are bit-identical at one thread).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdslin::Pdslin;
use pdslin_service::json::{escape, Json};
use pdslin_service::{serve_lines, Service, ServiceConfig};
use sparsekit::io::{read_matrix_market, write_matrix_market};
use sparsekit::Csr;

use crate::host::CpuMark;
use crate::oracle::{backward_error, fingerprint, Ops, MAX_BACKWARD_ERROR};
use crate::workloads::{rhs, rhs_batch, Workload, BATCH};

/// Per-step relative value drift of the same-pattern matrices the
/// symbolic-hit requests name: small enough that every pivot sequence
/// replays.
const DRIFT: f64 = 0.002;

/// Where build outputs and run files go: the launcher's target
/// directory, so everything stays inside the checkout and ignored.
pub fn out_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target/benchmark".into());
    Path::new(&target).join("out")
}

/// The Matrix Market files of one run, removed on drop.
struct Files {
    dir: PathBuf,
    /// The base matrix, as the daemon reads it back from disk.
    base: Csr,
    base_path: String,
    /// Same-pattern drifted value sets: path and contents.
    drifted: Vec<(String, Csr)>,
}

impl Files {
    /// Writes the base matrix and `drifted` value sets of it.
    fn write(drifted: usize) -> std::io::Result<Files> {
        let dir = out_dir().join(format!("service_mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let to_io = |e: sparsekit::io::MmError| std::io::Error::other(e.to_string());
        let mats = matgen::sequence(&Workload::ServiceMixed.matrix(), drifted + 1, DRIFT);
        let mut written = Vec::with_capacity(mats.len());
        for (i, a) in mats.iter().enumerate() {
            let path = dir.join(format!("values-{i}.mtx"));
            write_matrix_market(&path, a).map_err(to_io)?;
            let back = read_matrix_market(&path).map_err(to_io)?;
            written.push((path.to_string_lossy().into_owned(), back));
        }
        let (base_path, base) = written.remove(0);
        Ok(Files {
            dir,
            base,
            base_path,
            drifted: written,
        })
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One solve request line for the matrix at `path` with an inline
/// right-hand side. Its first `fail_attempts` attempts fail by fault
/// injection and are retried.
fn request_line(id: &str, path: &str, rhs: &[f64], fail_attempts: u32) -> String {
    let values: Vec<String> = rhs.iter().map(|v| format!("{v}")).collect();
    format!(
        "{{\"id\":{},\"op\":\"solve\",\"matrix\":{},\"k\":{},\"fail_attempts\":{fail_attempts},\
         \"retry_limit\":{},\"rhs\":[{}]}}",
        escape(id),
        escape(path),
        Workload::ServiceMixed.config().k,
        fail_attempts.max(DEFAULT_RETRY_LIMIT),
        values.join(",")
    )
}

/// The daemon's retry budget for a request that names none.
const DEFAULT_RETRY_LIMIT: u32 = 2;

/// Id of the request that holds the worker while a burst queues up,
/// and how many of its attempts fail by fault injection.
const PLUG_ID: &str = "plug";
const PLUG_FAILS: u32 = 3;

/// What the library computes for one `(matrix, rhs)`; a daemon reply
/// for the same inputs must agree exactly.
struct Expected {
    iterations: u64,
    residual: f64,
    backward_error: f64,
    x_fingerprint: u64,
}

/// Solves against `a`, whose values `solver` currently holds.
fn expect(solver: &mut Pdslin, a: &Csr, b: &[f64]) -> Option<Expected> {
    let out = solver.solve(b).ok()?;
    Some(Expected {
        iterations: out.iterations as u64,
        residual: out.schur_residual,
        backward_error: if out.converged {
            backward_error(a, &out.x, b)
        } else {
            f64::INFINITY
        },
        x_fingerprint: fingerprint(&out.x),
    })
}

/// Everything one `service_mixed` run sends and what each reply must
/// say: the files, the request lines, and the library-side reference.
pub struct Script {
    files: Files,
    /// The cold-miss and full-hit request: base matrix, right-hand
    /// side 0 inline.
    pub base_line: String,
    /// The plug of a burst (see [`Daemon::burst`]).
    pub plug: String,
    /// The 16 pipelined requests of a burst: base matrix, right-hand
    /// sides 1..=16.
    pub burst: Vec<String>,
    /// One symbolic-hit request per drifted value set.
    pub symbolic: Vec<String>,
    base: Option<Expected>,
    batch: Vec<Option<Expected>>,
    drifted: Vec<Option<Expected>>,
}

impl Script {
    /// Writes the matrices, builds the request lines from `seed`, and
    /// computes the reference in-process: set-up on the base matrix,
    /// then each drifted value set replayed into the same solver, which
    /// is what a symbolic hit does to the daemon's cache entry.
    pub fn prepare(seed: u64, drifted: usize) -> Result<Script, String> {
        let files = Files::write(drifted).map_err(|e| format!("writing matrices: {e}"))?;
        let n = files.base.nrows();
        let b = rhs(seed, 0, n);
        let batch_rhs = rhs_batch(seed, n);
        let mut solver = Pdslin::setup(&files.base, Workload::ServiceMixed.config())
            .map_err(|e| format!("reference setup: {e}"))?;
        let base = expect(&mut solver, &files.base, &b);
        let batch = batch_rhs
            .iter()
            .map(|bj| expect(&mut solver, &files.base, bj))
            .collect();
        let drifted = files
            .drifted
            .iter()
            .map(|(_, a)| {
                let replayed = matches!(solver.update_values(a), Ok(out) if out.rebuilt == 0);
                replayed.then(|| expect(&mut solver, a, &b)).flatten()
            })
            .collect();
        Ok(Script {
            base_line: request_line("r", &files.base_path, &b, 0),
            plug: request_line(PLUG_ID, &files.base_path, &b, PLUG_FAILS),
            burst: batch_rhs
                .iter()
                .enumerate()
                .map(|(j, bj)| request_line(&format!("b{j}"), &files.base_path, bj, 0))
                .collect(),
            symbolic: files
                .drifted
                .iter()
                .map(|(path, _)| request_line("r", path, &b, 0))
                .collect(),
            files,
            base,
            batch,
            drifted,
        })
    }

    /// The base matrix as the daemon reads it, and its path (for the
    /// traced replays of reading and fingerprinting it).
    pub fn base_matrix(&self) -> (&Csr, &str) {
        (&self.files.base, &self.files.base_path)
    }

    /// Fingerprint of the reference `x` of the base request.
    pub fn x_fingerprint(&self) -> u64 {
        self.base.as_ref().map_or(0, |e| e.x_fingerprint)
    }

    /// Counts the reply to [`Script::base_line`]; `cache` is `miss` on a
    /// fresh daemon and `hit` afterwards.
    pub fn check_base(&self, ops: &mut Ops, reply: &Json, cache: &str) {
        check_reply(ops, reply, cache, 1, self.base.as_ref());
    }

    /// Counts the replies of one burst: the plug, then 16 full hits
    /// that rode one batch (ids are `b<index into the batch>`), and that
    /// the plug still held the worker when the last of them was queued.
    pub fn check_burst(&self, ops: &mut Ops, burst: &Burst) {
        check_reply(ops, &burst.plug, "hit", 1, self.base.as_ref());
        ops.record(0.0 < burst.held_s && burst.held_s < burst.wall_s, || {
            format!(
                "burst of {} s reports a wait of {} s behind the plug",
                burst.wall_s, burst.held_s
            )
        });
        for reply in &burst.replies {
            let expected = reply
                .get("id")
                .and_then(Json::as_str)
                .and_then(|id| id.strip_prefix('b')?.parse::<usize>().ok())
                .and_then(|j| self.batch.get(j)?.as_ref());
            check_reply(ops, reply, "hit", BATCH, expected);
        }
    }

    /// Counts the reply to `symbolic[index]`.
    pub fn check_symbolic(&self, ops: &mut Ops, index: usize, reply: &Json) {
        check_reply(ops, reply, "symbolic", 1, self.drifted[index].as_ref());
    }
}

/// One plugged burst as the client saw it.
pub struct Burst {
    /// The plug's reply.
    pub plug: Json,
    /// The other replies, in completion order.
    pub replies: Vec<Json>,
    /// From before the first line was written to the last reply read,
    /// on the wall clock.
    pub wall_s: f64,
    /// The same stretch on the processor-time clock: transmitting and
    /// parsing the 17 lines, the plug's own solve, then dequeuing,
    /// solving and answering the batch. The worker's back-off sleeps
    /// behind the plug use no processor time, so they are not in it.
    pub cpu_s: f64,
    /// How long the request queued last waited for the worker behind the
    /// plug (the shortest wait any burst reply reports).
    pub held_s: f64,
}

/// A running daemon and its one client.
pub struct Daemon {
    tx: UnixStream,
    rx: BufReader<UnixStream>,
    server: JoinHandle<()>,
}

impl Daemon {
    /// `Service::start` with one worker, then the line transport on a
    /// socket pair.
    pub fn start() -> std::io::Result<Daemon> {
        let service = Service::start(ServiceConfig {
            workers: 1,
            max_batch: BATCH,
            ..ServiceConfig::default()
        });
        let (client, server_end) = UnixStream::pair()?;
        let server_in = BufReader::new(server_end.try_clone()?);
        let server = std::thread::spawn(move || {
            let _ = serve_lines(&service, server_in, server_end, Duration::from_secs(30));
        });
        Ok(Daemon {
            rx: BufReader::new(client.try_clone()?),
            tx: client,
            server,
        })
    }

    fn read_reply(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.rx.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        Json::parse(&line).map_err(std::io::Error::other)
    }

    /// Closed loop: one request, then its reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        writeln!(self.tx, "{line}")?;
        self.read_reply()
    }

    /// Pipelined: the plug and every request written back to back, then
    /// every reply read.
    ///
    /// The plug is a solve whose first three attempts fail by fault
    /// injection, so the one worker sleeps through 5 + 10 + 20 ms of
    /// retry back-off (and cannot batch it with anything) while the
    /// transport parses and queues the 16 requests behind it. Without it
    /// the worker races the parser: the burst splits into a varying
    /// number of batches, and whether parsing overlaps solving depends
    /// on which cores the two threads land on — measured as 1000 or 1450
    /// right-hand sides per second for the same code, depending on what
    /// ran before.
    pub fn burst(&mut self, plug: &str, lines: &[String]) -> std::io::Result<Burst> {
        let t0 = Instant::now();
        let cpu0 = CpuMark::now();
        writeln!(self.tx, "{plug}")?;
        for line in lines {
            writeln!(self.tx, "{line}")?;
        }
        let mut plug_reply = None;
        let mut replies = Vec::with_capacity(lines.len());
        while plug_reply.is_none() || replies.len() < lines.len() {
            let reply = self.read_reply()?;
            if reply.get("id").and_then(Json::as_str) == Some(PLUG_ID) {
                plug_reply = Some(reply);
            } else {
                replies.push(reply);
            }
        }
        let cpu_s = cpu0.elapsed_s();
        let wall_s = t0.elapsed().as_secs_f64();
        let held_s = replies
            .iter()
            .map(|r| reply_times(r).0)
            .fold(f64::INFINITY, f64::min);
        Ok(Burst {
            plug: plug_reply.expect("the loop ends after the plug's reply"),
            replies,
            wall_s,
            cpu_s,
            held_s,
        })
    }

    /// Sends `shutdown`, reads the acknowledgement and joins the server.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.request("{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
        self.server
            .join()
            .map_err(|_| std::io::Error::other("transport thread panicked"))
    }
}

/// Counts one daemon reply: `ok`, converged, the expected cache label
/// and batch size, and the library's iteration count and residual for
/// the same inputs, whose `x` passed the backward-error bound.
fn check_reply(
    ops: &mut Ops,
    reply: &Json,
    cache: &str,
    batched: usize,
    expected: Option<&Expected>,
) {
    let field = |k: &str| reply.get(k);
    let ok = expected.is_some_and(|e| {
        field("status").and_then(Json::as_str) == Some("ok")
            && field("converged").and_then(Json::as_bool) == Some(true)
            && field("cache").and_then(Json::as_str) == Some(cache)
            && field("batched").and_then(Json::as_u64) == Some(batched as u64)
            && field("iterations").and_then(Json::as_u64) == Some(e.iterations)
            && field("residual").and_then(Json::as_f64) == Some(e.residual)
            && e.backward_error <= MAX_BACKWARD_ERROR
    });
    ops.record(ok, || {
        format!(
            "daemon reply {reply:?}; expected cache={cache} batched={batched} {}",
            expected.map_or(
                "and a reference solve, which failed".to_string(),
                |e| format!(
                    "iterations={} residual={} reference backward error {:.3e}",
                    e.iterations, e.residual, e.backward_error
                )
            )
        )
    });
}

/// Seconds a reply says its request waited for the worker, and seconds
/// the worker then spent on it. The daemon's `queue_ms` runs from
/// enqueue to reply, so the wait is `queue_ms − solve_ms`.
pub fn reply_times(reply: &Json) -> (f64, f64) {
    let seconds = |key| reply.get(key).and_then(Json::as_f64).unwrap_or(0.0) * 1e-3;
    let solve_s = seconds("solve_ms");
    (seconds("queue_ms") - solve_s, solve_s)
}
