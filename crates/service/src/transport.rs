//! Transports: jsonl over stdin/stdout (or any reader/writer pair) and
//! over a unix domain socket.
//!
//! Both transports share the same shape: a reader parses request lines
//! and submits them, a dedicated writer thread serialises responses in
//! completion order, and a `shutdown` request (or EOF on the line
//! transport) closes admission and drains.

use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::Duration;

use crate::proto::{parse_request, Request, Response, ResponseBody};
use crate::server::{Service, ShutdownReport};

/// Serves jsonl requests from `input`, writing jsonl responses to
/// `output` in completion order, until a `shutdown` request or EOF;
/// then drains for at most `drain` and acknowledges. This is the
/// `pdslin serve` stdin/stdout transport; the socket transport handles
/// its lines the same way.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    service: &Service,
    mut input: R,
    output: W,
    drain: Duration,
) -> std::io::Result<ShutdownReport> {
    let (tx, rx) = mpsc::channel::<Response>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut output = output;
            for resp in rx {
                // A vanished client cannot be answered; keep draining so
                // senders never block.
                let _ = writeln!(output, "{}", resp.to_json_line());
                let _ = output.flush();
            }
        });
        let mut line = Vec::new();
        let mut shutdown_id = None;
        while shutdown_id.is_none() {
            line.clear();
            if input.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            shutdown_id = dispatch_line(service, &line, &tx);
        }
        let report = match shutdown_id {
            Some(id) => shut_down(service, drain, id, &tx),
            None => service.shutdown(drain),
        };
        drop(tx);
        let _ = writer.join();
        Ok(report)
    })
}

/// Handles one request line for either transport: a solve is submitted,
/// metrics are answered at once, and a line that is not UTF-8 or not a
/// valid request is answered with a typed `input` error, so one bad
/// line never ends the session. Returns the id of a `shutdown` request,
/// which the caller acts on.
fn dispatch_line(service: &Service, line: &[u8], tx: &mpsc::Sender<Response>) -> Option<String> {
    let request = match std::str::from_utf8(line) {
        Ok(line) if line.trim().is_empty() => return None,
        Ok(line) => parse_request(line),
        Err(e) => Err(format!("request line is not valid UTF-8: {e}")),
    };
    match request {
        Err(msg) => {
            let _ = tx.send(Response::input_error("", msg));
        }
        Ok(Request::Metrics { id }) => {
            let _ = tx.send(Response {
                id,
                body: ResponseBody::Metrics(service.metrics_snapshot()),
            });
        }
        Ok(Request::Shutdown { id }) => return Some(id),
        Ok(Request::Solve { id, solve }) => service.submit(&id, solve, tx),
    }
    None
}

/// Closes admission, drains for at most `drain`, and acknowledges the
/// `shutdown` request `id` on `tx`.
fn shut_down(
    service: &Service,
    drain: Duration,
    id: String,
    tx: &mpsc::Sender<Response>,
) -> ShutdownReport {
    let report = service.shutdown(drain);
    let _ = tx.send(Response {
        id,
        body: ResponseBody::Shutdown {
            drained: report.drained,
            cancelled: report.cancelled,
        },
    });
    report
}

/// Unix-domain-socket transport (`pdslin serve --socket PATH`).
#[cfg(unix)]
pub mod socket {
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use super::{dispatch_line, shut_down};
    use crate::proto::Response;
    use crate::server::{Service, ShutdownReport};

    /// Accepts connections on a fresh socket at `path` (any stale file
    /// is replaced), serving each connection's jsonl stream
    /// concurrently. A `shutdown` request on any connection stops the
    /// accept loop, drains the service for at most `drain`, and
    /// acknowledges on that connection.
    pub fn serve_socket(
        service: &Service,
        path: &Path,
        drain: Duration,
    ) -> std::io::Result<ShutdownReport> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let report = std::thread::scope(|scope| -> std::io::Result<ShutdownReport> {
            let mut handles = Vec::new();
            while !stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let stop = Arc::clone(&stop);
                        handles.push(scope.spawn(move || {
                            let _ = serve_connection(service, stream, &stop, drain);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(e),
                }
            }
            for h in handles {
                let _ = h.join();
            }
            // Connections have quiesced (each drains its own in-flight
            // replies); this is a no-op unless no connection ever sent
            // `shutdown`.
            Ok(service.shutdown(drain))
        });
        let _ = std::fs::remove_file(path);
        report
    }

    fn serve_connection(
        service: &Service,
        stream: std::os::unix::net::UnixStream,
        stop: &AtomicBool,
        drain: Duration,
    ) -> std::io::Result<()> {
        stream.set_nonblocking(false)?;
        // A bounded read timeout keeps an idle connection from pinning
        // the accept loop open across a shutdown requested elsewhere. A
        // timeout mid-line keeps the fragment read so far in `line`.
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let mut write_half = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let (tx, rx) = mpsc::channel::<Response>();
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                use std::io::Write;
                for resp in rx {
                    let _ = writeln!(write_half, "{}", resp.to_json_line());
                    let _ = write_half.flush();
                }
            });
            use std::io::BufRead;
            let mut line = Vec::new();
            loop {
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        continue;
                    }
                    Err(_) => break,
                }
                let shutdown = dispatch_line(service, &line, &tx);
                line.clear();
                if let Some(id) = shutdown {
                    stop.store(true, Ordering::Release);
                    shut_down(service, drain, id, &tx);
                    break;
                }
            }
            drop(tx);
            let _ = writer.join();
        });
        Ok(())
    }
}
