//! The closed-loop client: spawns `itq serve`, drives one TCP connection per
//! script, times every statement from send to the `.` terminator, and checks
//! every response against the oracle's expectation.

use crate::stats::Digest;
use crate::workload::{instantiate, Class, Expect, Stmt, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The flags every benchmark server runs with.
pub const SERVER_FLAGS: [&str; 5] = ["serve", "--addr", "127.0.0.1:0", "--threads", "1"];

/// A running `itq serve`.
pub struct Server {
    child: Child,
    addr: String,
    // Held open so the server's own output never blocks on a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the server with the benchmark's pinned flags and environment,
    /// and wait for its `listening on HOST:PORT` line.
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(SERVER_FLAGS)
            .env_remove("ITQ_PARALLELISM")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Stop the server and wait until it has exited.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one statement and collect its response lines, up to (not
    /// including) the `.` terminator.
    pub fn request(&mut self, text: &str, lines: &mut Vec<String>) -> Result<(), String> {
        lines.clear();
        self.writer
            .write_all(format!("{text}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let line = line.trim_end_matches(['\n', '\r']);
            if line == "." {
                return Ok(());
            }
            lines.push(line.to_string());
        }
    }
}

/// Whether `lines` is the response `expect` describes.  Warning lines that a
/// fresh prepare prints are skipped.
pub fn matches(expect: &Expect, cycle: usize, lines: &[String]) -> bool {
    let lines: Vec<&str> = lines
        .iter()
        .map(String::as_str)
        .filter(|l| !l.starts_with("warning["))
        .collect();
    let starts = |prefixes: &[String], lines: &[&str]| {
        prefixes
            .iter()
            .zip(lines)
            .all(|(p, l)| l.starts_with(instantiate(p, cycle).as_ref()))
    };
    match expect {
        Expect::Answer {
            lead,
            header,
            answers,
        } => {
            let Some(head) = lines.get(lead.len()) else {
                return false;
            };
            let header = instantiate(header, cycle);
            let header_ok = *head == header || *head == format!("{header} (bounded approximation)");
            starts(lead, &lines)
                && header_ok
                && Digest::of(lines[lead.len() + 1..].iter().copied()) == *answers
        }
        Expect::Lines { prefixes, exact } => {
            let length_ok = if *exact {
                lines.len() == prefixes.len()
            } else {
                lines.len() >= prefixes.len()
            };
            length_ok && starts(prefixes, &lines) && !lines.iter().any(|l| l.starts_with("error:"))
        }
    }
}

/// One timed statement.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub micros: f64,
    pub ok: bool,
}

/// Send `stmt` for `cycle`, timing it and checking the response.  A failed
/// request (connection error) is an error; a wrong answer is a sample with
/// `ok == false`.
fn timed(
    conn: &mut Conn,
    stmt: &Stmt,
    cycle: usize,
    lines: &mut Vec<String>,
) -> Result<Sample, String> {
    let text = instantiate(&stmt.text, cycle);
    let start = Instant::now();
    conn.request(&text, lines)?;
    let micros = start.elapsed().as_secs_f64() * 1e6;
    let ok = matches(&stmt.expect, cycle, lines);
    if !ok {
        eprintln!(
            "perfbench: unexpected response to `{}`: {lines:?}",
            truncate(&text)
        );
    }
    Ok(Sample {
        class: stmt.class,
        micros,
        ok,
    })
}

fn truncate(text: &str) -> &str {
    match text.char_indices().nth(120) {
        Some((i, _)) => &text[..i],
        None => text,
    }
}

/// A server with every connection open and its declaration batch done.
pub struct Ready {
    pub server: Server,
    pub conns: Vec<Conn>,
    /// From spawning the server to the end of the slowest connection's
    /// declaration batch.
    pub setup_secs: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// How long after the server reports its address the client connects.  The
/// server polls its non-blocking listener every 25 ms; connecting once it
/// has surely gone to sleep makes every set-up wait out exactly one poll,
/// instead of racing the first `accept`.
const CONNECT_DELAY: Duration = Duration::from_millis(5);

/// Spawn a server and run every connection's declaration batch, the
/// connections concurrently.
pub fn set_up(binary: &Path, workload: &Workload) -> Result<Ready, String> {
    let start = Instant::now();
    let server = Server::spawn(binary)?;
    std::thread::sleep(CONNECT_DELAY);
    let results: Vec<Result<(Conn, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .conns
            .iter()
            .map(|script| {
                let addr = server.addr.clone();
                scope.spawn(move || -> Result<(Conn, usize), String> {
                    let mut conn = Conn::open(&addr)?;
                    let mut lines = Vec::new();
                    let mut failed = 0;
                    for stmt in &script.setup {
                        failed += usize::from(!timed(&mut conn, stmt, 0, &mut lines)?.ok);
                    }
                    Ok((conn, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("setup thread panicked"))
            .collect()
    });
    let setup_secs = start.elapsed().as_secs_f64();
    let mut conns = Vec::new();
    let mut failed = 0;
    for result in results {
        match result {
            Ok((conn, f)) => {
                conns.push(conn);
                failed += f;
            }
            Err(e) => {
                server.stop();
                return Err(e);
            }
        }
    }
    let attempted = workload.conns.iter().map(|c| c.setup.len()).sum();
    Ok(Ready {
        server,
        conns,
        setup_secs,
        attempted,
        failed,
    })
}

/// What one connection measured.
#[derive(Debug, Clone, Default)]
pub struct ConnRun {
    /// Samples of the measured cycles, in send order.
    pub samples: Vec<Sample>,
    /// Number of measured cycles (all complete).
    pub cycles: usize,
    /// Seconds the measured cycles took, every connection's turns included.
    pub elapsed_secs: f64,
    /// Wrong answers in the untimed warm-up cycle.
    pub warmup_failed: usize,
}

/// Run one untimed warm-up cycle (cycle 0), then whole cycles 1, 2, … until
/// `seconds` have passed.  One thread drives every connection as a closed
/// loop, the connections taking turns by whole cycles: connection 0 sends its
/// cycle, then connection 1 its own, and so on, each request waiting for its
/// response.
///
/// Turns, because on a shared host with two cores two statements running
/// together slow each other by a share that changes from run to run: on
/// `serve-mix` that moved `write_ms_*` by half between runs of the same seed.
/// Whole cycles, because the server leaves Nagle's algorithm on, so a long
/// response can wait out the client's delayed ACK (about 40 ms), and whether
/// the client delays its ACKs depends on how soon it sent its previous
/// request.  Turns per statement made that gap, and with it the stall, change
/// from run to run; within a cycle every request follows its previous
/// response at once, the same way every time.
pub fn measure(
    ready: &mut Ready,
    workload: &Workload,
    seconds: f64,
) -> Result<Vec<ConnRun>, String> {
    let mut runs = vec![ConnRun::default(); ready.conns.len()];
    let mut lines = Vec::new();
    let mut cycle = |number: usize, runs: &mut [ConnRun]| -> Result<(), String> {
        for ((conn, script), run) in ready.conns.iter_mut().zip(&workload.conns).zip(&mut *runs) {
            for stmt in &script.cycle {
                let sample = timed(conn, stmt, number, &mut lines)?;
                if number == 0 {
                    run.warmup_failed += usize::from(!sample.ok);
                } else {
                    run.samples.push(sample);
                }
            }
        }
        Ok(())
    };
    cycle(0, &mut runs)?;
    let start = Instant::now();
    let mut cycles = 0;
    while start.elapsed().as_secs_f64() < seconds {
        cycles += 1;
        cycle(cycles, &mut runs)?;
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    for run in &mut runs {
        run.cycles = cycles;
        run.elapsed_secs = elapsed_secs;
    }
    Ok(runs)
}
