//! `itq serve` — a multi-session TCP server over the surface language.
//!
//! Each accepted connection gets its own thread and its own [`Session`]
//! (schemas, databases, queries, metrics — nothing semantic is shared), so
//! concurrent clients behave exactly like concurrent REPLs.  Three things
//! *are* shared, each deliberately:
//!
//! * **The prepared-plan cache.**  A [`PlanCache`] is handed to every
//!   session: the static half of preparing a statement (typing,
//!   classification, compilation, planning) runs once per distinct parsed
//!   statement — constants resolved to the declaring session's atoms, schema
//!   included — whatever name it is declared under, and each session
//!   re-budgets the cached handle with its own governor
//!   ([`itq_core::pipeline::Prepared::with_governor`]) — one session tripping
//!   its deadline or cancelling mid-query can never affect another session
//!   running the same plan.
//! * **The per-request budgets.**  `--deadline-ms` / `--memory-limit` arm
//!   every connection's governor identically; each *execution* starts its own
//!   clock and its own interning meter, so a request that trips reports its
//!   error on its own connection and the session keeps serving.
//! * **The shutdown path.**  SIGINT (latched by the `itq-signal` shim) stops
//!   the accept loop, cancels every connection's [`CancelFlag`] so in-flight
//!   executions stop at their next governor poll with `execution cancelled`,
//!   and then joins every connection thread — a graceful drain, not an abort.
//!
//! The wire protocol is the surface language itself, line-oriented: the
//! client sends statements terminated by `;` (possibly spanning lines), and
//! the server replies with the same output lines the REPL would print —
//! errors included, prefixed `error:` — followed by a single `.` on a line of
//! its own to mark the end of the response.  `quit;` closes that connection;
//! the server keeps accepting others.  One request — the bytes that arrive
//! before a newline completes a statement — holds at most
//! [`MAX_REQUEST_BYTES`]; past that the server answers with an `error:` line
//! and `.`, and closes the connection.
//!
//! Every accepted socket is no-delay (`TCP_NODELAY`): a response leaves as
//! soon as the server flushes it, instead of its last segment waiting out the
//! client's delayed ACK under Nagle's algorithm.
//!
//! The accept loop blocks in `accept(2)`.  glibc's `signal(2)` installs the
//! SIGINT handler with `SA_RESTART`, so that call restarts instead of
//! returning when the signal lands; a small watcher thread polls the latch
//! instead, raises the shutdown flag, and wakes the accept by connecting to
//! the server itself.  Connection reads and writes use a short timeout and
//! re-check the shutdown flag each time it expires: a read resumes, and so
//! does a write while the server runs.  Once it drains, a timed-out write
//! fails, so a client that reads nothing cannot hold the drain.

use crate::script::{split_statements, statement_complete};
use crate::session::{Control, PlanCache, Session};
use itq_core::engine::Engine;
use itq_object::CancelFlag;
use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often the SIGINT watcher checks the latch, and how long a connection
/// read or write waits before it re-checks the shutdown flag.  A failed
/// accept also backs off this long before the next one.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The most bytes one request may hold before its statements complete.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Configuration for [`serve`] (the `itq serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, `host:port`.  Port `0` asks the OS for an ephemeral
    /// port; the bound address is always printed as `listening on …`.
    pub addr: String,
    /// In-query worker count for every session's engine (the
    /// [`itq_core::pipeline::EngineBuilder::parallelism`] knob) — *not* a
    /// connection limit; connections each get their own thread regardless.
    pub threads: usize,
    /// Per-execution wall-clock deadline armed on every session's governor.
    pub deadline_millis: Option<u64>,
    /// Per-execution interned-bytes ceiling armed on every session's governor.
    pub memory_ceiling: Option<u64>,
    /// Suppress per-answer output lines (headers and errors still go to the
    /// client).
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            threads: 1,
            deadline_millis: None,
            memory_ceiling: None,
            quiet: false,
        }
    }
}

/// Run the server until SIGINT (or an unrecoverable bind error).  Prints
/// `listening on HOST:PORT` once the socket is bound, drains gracefully on
/// SIGINT, and returns `Err` only for setup failures — a misbehaving client
/// never takes the server down.
pub fn serve(config: ServeConfig) -> Result<(), String> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    if !itq_signal::install() {
        eprintln!("warning: no SIGINT handler available; stop the server by killing the process");
    }
    println!("listening on {local}");

    let shutdown = Arc::new(AtomicBool::new(false));
    let watcher = {
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || watch_for_sigint(wake_address(local), &shutdown))
    };
    let cache = PlanCache::new();
    let config = Arc::new(config);
    let mut connections: Vec<(thread::JoinHandle<()>, CancelFlag)> = Vec::new();

    loop {
        let accepted = listener.accept();
        // The watcher raises the flag before it connects, so the connection
        // that woke this accept (the watcher's, or a client's that beat it)
        // is dropped unserved.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let cancel = CancelFlag::new();
                let thread_cancel = cancel.clone();
                let thread_config = Arc::clone(&config);
                let thread_cache = cache.clone();
                let thread_shutdown = Arc::clone(&shutdown);
                let handle = thread::spawn(move || {
                    handle_connection(
                        stream,
                        &thread_config,
                        thread_cache,
                        thread_cancel,
                        &thread_shutdown,
                    );
                });
                connections.push((handle, cancel));
            }
            Err(e) => {
                // Transient accept failures (connection reset mid-handshake,
                // fd pressure) should not take the whole server down.
                eprintln!("warning: accept failed: {e}");
                thread::sleep(POLL_INTERVAL);
            }
        }
        // Reap finished connection threads so a long-lived server does not
        // accumulate join handles.
        connections = connections
            .into_iter()
            .filter_map(|(handle, cancel)| {
                if handle.is_finished() {
                    let _ = handle.join();
                    None
                } else {
                    Some((handle, cancel))
                }
            })
            .collect();
    }

    // Graceful drain: stop accepting, cancel every in-flight execution, and
    // wait for each connection thread to notice and return.
    let active = connections
        .iter()
        .filter(|(handle, _)| !handle.is_finished())
        .count();
    if active > 0 {
        println!("draining {active} connection(s)");
    }
    for (_, cancel) in &connections {
        cancel.cancel();
    }
    for (handle, _) in connections {
        let _ = handle.join();
    }
    let _ = watcher.join();
    println!("shutdown complete");
    Ok(())
}

/// The SIGINT watcher: poll the latch every [`POLL_INTERVAL`]; once it is
/// set, raise `shutdown` and connect to `wake` so the blocking accept returns
/// and sees the flag.
fn watch_for_sigint(wake: SocketAddr, shutdown: &AtomicBool) {
    while !itq_signal::take() {
        thread::sleep(POLL_INTERVAL);
    }
    shutdown.store(true, Ordering::SeqCst);
    if let Err(e) = TcpStream::connect(wake) {
        eprintln!("warning: cannot wake the accept loop at {wake}: {e}");
    }
}

/// Where the watcher connects to reach the listener bound at `bound`: the
/// same address, except that an unspecified one (`0.0.0.0`, `::`) is not a
/// destination, so it becomes the loopback address of its family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Ready an accepted socket for the protocol: replies go out as soon as they
/// are flushed (no Nagle delay), and reads and writes give up after
/// [`POLL_INTERVAL`] so the connection can re-check the shutdown flag.
fn configure_socket(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(POLL_INTERVAL))
}

/// A connection's write half.  A write that times out (the client is not
/// reading and the socket's send buffer is full) is retried while the server
/// runs, and fails once it drains, so the connection thread returns.
struct Replies<'a> {
    stream: TcpStream,
    shutdown: &'a AtomicBool,
}

impl Write for Replies<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !self.shutdown.load(Ordering::SeqCst) => {}
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// One connection: a private [`Session`] fed by `;`-terminated statement
/// batches, answered with REPL-identical output lines plus a terminating `.`
/// line per batch.  Returns (closing the connection) on client EOF, `quit;`,
/// a write failure (a write still blocked when the server drains included),
/// or server shutdown.
fn handle_connection(
    stream: TcpStream,
    config: &ServeConfig,
    cache: PlanCache,
    cancel: CancelFlag,
    shutdown: &AtomicBool,
) {
    if configure_socket(&stream).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(stream) => BufWriter::new(Replies { stream, shutdown }),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    let mut builder = Engine::builder()
        .parallelism(config.threads)
        .cancel_flag(cancel.clone());
    if let Some(millis) = config.deadline_millis {
        builder = builder.deadline_millis(millis);
    }
    if let Some(bytes) = config.memory_ceiling {
        builder = builder.memory_ceiling(bytes);
    }
    let mut session = Session::with_engine(builder.build());
    session.set_quiet(config.quiet);
    session.set_shared_plans(cache);

    let mut pending = String::new();
    let mut raw: Vec<u8> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Read at most one byte past the cap and refuse the request there, so
        // a client that never completes a statement cannot grow the buffers.
        let room = (MAX_REQUEST_BYTES + 1).saturating_sub(pending.len() + raw.len());
        match (&mut reader).take(room as u64).read_until(b'\n', &mut raw) {
            Ok(_) if pending.len() + raw.len() > MAX_REQUEST_BYTES => {
                let _ = writeln!(
                    writer,
                    "error: request exceeds {MAX_REQUEST_BYTES} bytes without completing a statement\n."
                );
                let _ = writer.flush();
                return;
            }
            Ok(0) => return, // client closed its end
            Ok(_) => {
                pending.push_str(&String::from_utf8_lossy(&raw));
                raw.clear();
                if !statement_complete(&pending) {
                    continue;
                }
                let src = std::mem::take(&mut pending);
                // Lower any cancellation left over from a previous request —
                // unless the server is draining, in which case the raised
                // flag is exactly what stops this batch promptly.
                if !shutdown.load(Ordering::SeqCst) {
                    cancel.reset();
                }
                if run_batch(&mut session, &src, &mut writer) == Control::Quit {
                    return;
                }
            }
            // A timed-out read keeps any partial line it already pulled in
            // `raw`; just poll the shutdown flag and resume.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Run one statement batch against the connection's session, mirroring the
/// REPL's keep-going-after-errors behaviour, and terminate the response with
/// a `.` line.  Returns [`Control::Quit`] when the batch asked to close the
/// connection (or the client stopped reading).
fn run_batch<W: Write>(session: &mut Session, src: &str, writer: &mut W) -> Control {
    let mut control = Control::Continue;
    for (chunk, base) in split_statements(src) {
        match session.run_statement(&chunk, base) {
            Ok(output) => {
                for line in &output.lines {
                    if writeln!(writer, "{line}").is_err() {
                        return Control::Quit;
                    }
                }
                if output.control == Control::Quit {
                    control = Control::Quit;
                    break;
                }
            }
            Err(e) => {
                // Budget trips, cancellations, and parse errors answer the
                // request that caused them; the session itself keeps serving.
                if writeln!(writer, "{e}").is_err() {
                    return Control::Quit;
                }
            }
        }
    }
    if writeln!(writer, ".").is_err() || writer.flush().is_err() {
        return Control::Quit;
    }
    control
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads and writes both time out, so that each re-checks the shutdown
    /// flag.
    #[test]
    fn accepted_sockets_are_no_delay_with_a_polling_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_socket(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        // The kernel rounds each timeout up to its clock tick.
        let read = accepted.read_timeout().unwrap().expect("a read timeout");
        let write = accepted.write_timeout().unwrap().expect("a write timeout");
        for timeout in [read, write] {
            assert!(
                timeout >= POLL_INTERVAL && timeout < 2 * POLL_INTERVAL,
                "{timeout:?}"
            );
        }
    }

    #[test]
    fn the_watcher_wakes_unspecified_binds_through_loopback() {
        let wake = |addr: &str| wake_address(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7171"), "127.0.0.1:7171");
        assert_eq!(wake("[::]:7171"), "[::1]:7171");
        assert_eq!(wake("127.0.0.1:7171"), "127.0.0.1:7171");
        assert_eq!(wake("10.1.2.3:7171"), "10.1.2.3:7171");
    }
}
