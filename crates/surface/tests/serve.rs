//! End-to-end tests for `itq serve`: concurrent sessions over real TCP
//! connections against the shipped binary, shared-plan-cache semantics at the
//! library level, per-session budget isolation, the request cap, and the
//! SIGINT drain path, a client that reads nothing included.

use itq_surface::script::split_statements;
use itq_surface::serve::MAX_REQUEST_BYTES;
use itq_surface::{PlanCache, Session};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

// One line: the server answers one response batch per newline-completed
// input, so multi-statement batches stay on a single line.
const DECLARATIONS: &str = "schema Gen {PAR : [U, U]}; \
    database family : Gen {PAR = {[Tom, Mary], [Mary, Sue]}}; \
    query gp : Gen {t/[U, U] | exists x/[U, U] exists y/[U, U] \
    (PAR(x) and PAR(y) and x.2 == y.1 and t.1 == x.1 and t.2 == y.2)};\n";

/// A serve child whose stdout is continuously drained into a shared buffer
/// (so the `listening on` line can be parsed first and the drain banner
/// checked last, without ever blocking the server on a full pipe).
struct Server {
    child: Child,
    addr: String,
    stdout: Arc<Mutex<Vec<String>>>,
}

impl Server {
    fn spawn(extra_args: &[&str]) -> Server {
        Server::spawn_at("127.0.0.1:0", extra_args)
    }

    fn spawn_at(addr: &str, extra_args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_itq"))
            .arg("serve")
            .arg("--addr")
            .arg(addr)
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn itq serve");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let banner = lines
            .next()
            .expect("server prints a listening banner")
            .expect("banner is readable");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        let stdout = Arc::new(Mutex::new(vec![banner]));
        let sink = Arc::clone(&stdout);
        thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Server {
            child,
            addr,
            stdout,
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connect to itq serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set client read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone client stream"));
        Client { stream, reader }
    }

    fn interrupt(&self) {
        let status = Command::new("kill")
            .arg("-INT")
            .arg(self.child.id().to_string())
            .status()
            .expect("run kill -INT");
        assert!(status.success(), "kill -INT failed");
    }

    /// Wait (bounded) for the server to exit and return (status, stdout).
    fn wait(mut self) -> (std::process::ExitStatus, Vec<String>) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll server exit") {
                // Give the stdout pump a moment to drain the tail.
                thread::sleep(Duration::from_millis(100));
                let lines = self.stdout.lock().unwrap().clone();
                return (status, lines);
            }
            assert!(Instant::now() < deadline, "server did not exit in time");
            thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send(&mut self, text: &str) {
        self.stream
            .write_all(text.as_bytes())
            .expect("client write");
        self.stream.flush().expect("client flush");
    }

    /// Read one response batch: every line up to (excluding) the `.` marker.
    fn read_batch(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("client read");
            assert!(n > 0, "server closed mid-batch; got {lines:?}");
            let line = line.trim_end_matches('\n').to_string();
            if line == "." {
                return lines;
            }
            lines.push(line);
        }
    }

    /// Statements followed by the batch they produce.
    fn roundtrip(&mut self, text: &str) -> Vec<String> {
        self.send(text);
        self.read_batch()
    }

    /// Read until EOF (the server closed the connection), returning whatever
    /// arrived — used after a drain, where the final `.` still gets written.
    fn read_to_eof(mut self) -> String {
        let mut out = String::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut buf = [0u8; 1024];
        loop {
            match self.reader.read(&mut buf) {
                Ok(0) => return out,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    assert!(Instant::now() < deadline, "no EOF from server; got {out:?}");
                }
                Err(e) => panic!("client read failed: {e}; got {out:?}"),
            }
        }
    }
}

/// Eight concurrent clients declare the same schema/database/query (hitting
/// the shared plan cache), all get the right answer, one client trips its own
/// deadline without affecting anyone else, and `quit;` only closes its own
/// connection.
#[test]
fn concurrent_sessions_are_isolated_but_share_plans() {
    let server = Server::spawn(&["--threads", "2"]);

    let workers: Vec<thread::JoinHandle<()>> = (0..8)
        .map(|_| {
            let mut client = server.connect();
            thread::spawn(move || {
                let decl = client.roundtrip(DECLARATIONS);
                assert!(
                    decl.iter().all(|l| !l.starts_with("error:")),
                    "declarations failed: {decl:?}"
                );
                let eval = client.roundtrip("eval gp on family;\n");
                assert!(
                    eval.iter()
                        .any(|l| l.contains("eval gp on family with limited: 1 object")),
                    "missing result header: {eval:?}"
                );
                assert!(
                    eval.iter().any(|l| l.contains("[Tom, Sue]")),
                    "missing answer: {eval:?}"
                );
                let bye = client.roundtrip("quit;\n");
                assert!(bye.iter().any(|l| l == "bye"), "missing bye: {bye:?}");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // A ninth session arms its own zero deadline: its request trips with the
    // canonical message, and the *same* session (same connection, same cached
    // plan) recovers once the deadline is lifted — budgets are per session
    // and per execution, never baked into the shared plan.
    let mut tripped = server.connect();
    tripped.roundtrip(DECLARATIONS);
    let err = tripped.roundtrip("set deadline 0; eval gp on family;\n");
    assert!(
        err.iter()
            .any(|l| l.contains("execution deadline of 0 ms exceeded")),
        "expected deadline trip: {err:?}"
    );
    let recovered = tripped.roundtrip("set deadline 60000; eval gp on family;\n");
    assert!(
        recovered
            .iter()
            .any(|l| l.contains("eval gp on family with limited: 1 object")),
        "session did not recover after its own trip: {recovered:?}"
    );
    tripped.roundtrip("quit;\n");

    server.interrupt();
    let (status, stdout) = server.wait();
    assert!(status.success(), "server exited with {status}");
    assert!(
        stdout.iter().any(|l| l == "shutdown complete"),
        "missing shutdown banner: {stdout:?}"
    );
}

/// SIGINT with a query in flight: the execution stops with `execution
/// cancelled` on the client's connection, the server drains that connection,
/// and the process still exits cleanly.
#[cfg(unix)]
#[test]
fn sigint_cancels_in_flight_queries_and_drains() {
    let server = Server::spawn(&[]);

    // A cycle large enough that the triple join runs for several seconds —
    // long enough to interrupt, far below the step budget.  The negated atom
    // keeps it off the conjunctive route, whose hash joins would finish at
    // once: the compiled slots enumerate it.
    let n: u32 = if cfg!(debug_assertions) { 120 } else { 400 };
    let edges: Vec<String> = (0..n)
        .map(|i| format!("[a{i}, a{}]", (i + 1) % n))
        .collect();
    let decl = format!(
        "schema Gen {{PAR : [U, U]}}; \
         database big : Gen {{PAR = {{{}}}}}; \
         query tri : Gen {{t/[U, U] | exists x/[U, U] exists y/[U, U] exists z/[U, U] \
         (PAR(x) and PAR(y) and PAR(z) and x.2 == y.1 and y.2 == z.1 \
         and t.1 == x.1 and t.2 == z.2) and not PAR(t)}};\n",
        edges.join(", ")
    );

    let mut client = server.connect();
    client.roundtrip(&decl);
    client.send("eval tri on big;\n");
    // Let the evaluation actually start before interrupting it.
    thread::sleep(Duration::from_millis(750));
    server.interrupt();

    let response = client.read_to_eof();
    assert!(
        response.contains("execution cancelled"),
        "expected a cancellation on the client connection: {response:?}"
    );

    let (status, stdout) = server.wait();
    assert!(status.success(), "server exited with {status}");
    assert!(
        stdout.iter().any(|l| l == "draining 1 connection(s)"),
        "missing drain banner: {stdout:?}"
    );
    assert!(
        stdout.iter().any(|l| l == "shutdown complete"),
        "missing shutdown banner: {stdout:?}"
    );
}

/// SIGINT while a connection's thread is blocked writing to a client that
/// reads nothing: the write times out, sees the drain and fails, so the
/// thread returns and the server exits.  The client declares a 2 000-tuple
/// database and asks for it 200 times, far more than the socket buffers
/// hold.
#[cfg(unix)]
#[test]
fn sigint_drains_a_connection_that_reads_nothing() {
    let server = Server::spawn(&[]);
    let tuples: Vec<String> = (0..2000).map(|i| format!("[a{i}, b{i}]")).collect();
    let mut client = server.connect();
    client.roundtrip(&format!(
        "schema Gen {{PAR : [U, U]}}; database d : Gen {{PAR = {{{}}}}};\n",
        tuples.join(", ")
    ));
    client.send(&"show d;\n".repeat(200));
    // Let the server fill the socket buffers and block in a write.
    thread::sleep(Duration::from_millis(750));
    let start = Instant::now();
    server.interrupt();
    let (status, stdout) = server.wait();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the drain took {:?}",
        start.elapsed()
    );
    assert!(status.success(), "server exited with {status}");
    assert!(
        stdout.iter().any(|l| l == "draining 1 connection(s)"),
        "missing drain banner: {stdout:?}"
    );
    assert!(
        stdout.iter().any(|l| l == "shutdown complete"),
        "missing shutdown banner: {stdout:?}"
    );
    drop(client);
}

/// SIGINT with no client connected: the watcher thread wakes the blocking
/// accept, and the server exits cleanly with nothing to drain.  The wall
/// bound is generous: this proves the wake-up, not its latency.
#[cfg(unix)]
fn sigint_stops_an_idle_server_bound_at(addr: &str) {
    let server = Server::spawn_at(addr, &[]);
    let start = Instant::now();
    server.interrupt();
    let (status, stdout) = server.wait();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "an idle server took {:?} to stop",
        start.elapsed()
    );
    assert!(status.success(), "server exited with {status}");
    assert!(
        stdout.iter().any(|l| l == "shutdown complete"),
        "missing shutdown banner: {stdout:?}"
    );
    assert!(
        !stdout.iter().any(|l| l.starts_with("draining")),
        "nothing to drain: {stdout:?}"
    );
}

#[cfg(unix)]
#[test]
fn sigint_stops_an_idle_server() {
    sigint_stops_an_idle_server_bound_at("127.0.0.1:0");
}

/// Bound to the unspecified address, the watcher wakes the accept through
/// loopback rather than connecting to `0.0.0.0`.
#[cfg(unix)]
#[test]
fn sigint_stops_an_idle_server_bound_to_every_interface() {
    sigint_stops_an_idle_server_bound_at("0.0.0.0:0");
}

/// Run a script the way the server runs one request: every statement, its
/// error lines included.
fn run(session: &mut Session, src: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for (chunk, base) in split_statements(src) {
        match session.run_statement(&chunk, base) {
            Ok(output) => lines.extend(output.lines),
            Err(e) => lines.push(e.to_string()),
        }
    }
    lines
}

/// The [`PlanCache`] contract at the library level: the second session's
/// identical declaration is a cache hit, and the cached handle is re-budgeted
/// per session — a zero deadline in one session trips only that session.
#[test]
fn plan_cache_is_shared_and_rebudgeted_per_session() {
    let cache = PlanCache::new();

    let mut first = Session::new();
    first.set_shared_plans(cache.clone());
    let script = format!("{DECLARATIONS}eval gp on family;\n");
    let out = run(&mut first, &script);
    assert!(
        out.iter().any(|l| l.contains("limited: 1 object")),
        "{out:?}"
    );
    assert_eq!(
        (cache.hits(), cache.misses()),
        (0, 1),
        "first prepare misses"
    );

    let mut second = Session::new();
    second.engine_mut().governor_mut().deadline_millis = Some(0);
    second.set_shared_plans(cache.clone());
    let out = run(&mut second, &script);
    assert!(
        out.iter()
            .any(|l| l.contains("execution deadline of 0 ms exceeded")),
        "{out:?}"
    );
    assert_eq!(
        (cache.hits(), cache.misses()),
        (1, 1),
        "second prepare hits the shared plan"
    );

    // The first session is untouched by the second session's budget.
    let out = run(&mut first, "eval gp on family;\n");
    assert!(
        out.iter().any(|l| l.contains("limited: 1 object")),
        "shared plan leaked a governor across sessions: {out:?}"
    );
    assert_eq!(cache.len(), 1, "one distinct declaration, one cached plan");

    // The same declaration under a fresh name is the same statement: it
    // hits instead of adding an entry.
    let redeclared = DECLARATIONS.replace("query gp :", "query gp_again :");
    let out = run(
        &mut first,
        &format!("{redeclared}eval gp_again on family;\n"),
    );
    assert!(
        out.iter().any(|l| l.contains("limited: 1 object")),
        "{out:?}"
    );
    assert_eq!((cache.hits(), cache.misses()), (2, 1), "a fresh name hits");
    assert_eq!(cache.len(), 1);
}

/// Two sessions intern Tom, Mary, Sue and Ann in opposite orders, so the
/// constant `Tom` of the same declaration is a different atom id in each:
/// each session's requests, one statement each.
fn opposite_interning_orders() -> [Vec<String>; 2] {
    let evals = [
        "query kids : Gen {t/U | exists x/[U, U] (PAR(x) and x.1 == 'Tom' and t == x.2)};",
        "algebra akids : Gen pi_{2}(sigma_{$1 = \"Tom\"}(PAR));",
        "eval kids on d;",
        "eval akids on d;",
        "eval kids on d with finite-invention;",
        "eval akids on d with finite-invention;",
        "eval kids on d with terminal-invention;",
        "eval akids on d with terminal-invention;",
    ];
    [
        "{[Tom, Mary], [Mary, Sue], [Sue, Ann]}",
        "{[Ann, Sue], [Sue, Mary], [Mary, Tom], [Tom, Ann]}",
    ]
    .map(|par| {
        let mut requests = vec![
            "schema Gen {PAR : [U, U]};".to_string(),
            format!("database d : Gen {{PAR = {par}}};"),
        ];
        requests.extend(evals.iter().map(|s| s.to_string()));
        requests
    })
}

/// What a standalone session prints for each request.
fn standalone(requests: &[String]) -> Vec<Vec<String>> {
    let mut session = Session::new();
    requests.iter().map(|r| run(&mut session, r)).collect()
}

/// Sessions that intern atoms in different orders never share a plan whose
/// constants mean something else to one of them: through one `PlanCache`,
/// each prints exactly what it prints alone, under every semantics.
#[test]
fn sessions_interning_in_different_orders_get_their_own_answers() {
    let cache = PlanCache::new();
    for requests in opposite_interning_orders() {
        let mut session = Session::new();
        session.set_shared_plans(cache.clone());
        let served: Vec<Vec<String>> = requests.iter().map(|r| run(&mut session, r)).collect();
        assert_eq!(served, standalone(&requests));
    }
    assert_eq!(cache.hits(), 0, "the two `Tom`s are different atoms");
}

/// The same over real connections to one `itq serve`.
#[test]
fn served_sessions_interning_in_different_orders_get_their_own_answers() {
    let server = Server::spawn(&[]);
    let sessions = opposite_interning_orders();
    let mut clients = [server.connect(), server.connect()];
    for (client, requests) in clients.iter_mut().zip(&sessions) {
        let served: Vec<Vec<String>> = requests
            .iter()
            .map(|r| client.roundtrip(&format!("{r}\n")))
            .collect();
        assert_eq!(served, standalone(requests));
    }
}

/// One request per statement, declaring and exercising a name each plan
/// setting shows in: `parents` draws from a quantifier domain of 2^16 sets,
/// `gp` plans to a hash join only under default budgets, `kids` reports how
/// many invention levels it tried, and `ga` fails its product under a small
/// algebra budget and names its backend when explained.
fn settings_probe() -> Vec<&'static str> {
    vec![
        "schema Gen {PAR : [U, U]};",
        "database d : Gen {PAR = {[Tom, Mary], [Mary, Sue], [Sue, Ann]}};",
        "query parents : Gen {t/U | exists x/[U, U] \
         (PAR(x) and x.1 == t and exists s/{[U, U]} (x in s))};",
        "query gp : Gen {t/[U, U] | exists x/[U, U] exists y/[U, U] \
         (PAR(x) and PAR(y) and x.2 == y.1 and t.1 == x.1 and t.2 == y.2)};",
        "query kids : Gen {t/U | exists x/[U, U] (PAR(x) and x.1 == 'Tom' and t == x.2)};",
        "algebra ga : Gen pi_{1,4}(sigma_{$2 = $3}(PAR * PAR));",
        "eval parents on d;",
        "plan gp;",
        "eval kids on d with terminal-invention;",
        "eval ga on d;",
        "explain analyze ga on d;",
    ]
}

/// A session's output for each probe request, timings blanked.
fn probe_output(session: &mut Session) -> Vec<Vec<String>> {
    let untimed = |line: String| {
        let words: Vec<&str> = line.split(' ').collect();
        let blanked: Vec<&str> = (0..words.len())
            .map(|i| match words.get(i + 1) {
                Some(next) if next.starts_with("µs") => "_",
                _ => words[i],
            })
            .collect();
        blanked.join(" ")
    };
    settings_probe()
        .into_iter()
        .map(|request| run(session, request).into_iter().map(untimed).collect())
        .collect()
}

/// The plan-cache key covers every plan setting.  Sessions that change one
/// setting each — the calculus budgets, the algebra budget, the invention
/// bound, the algebra planner — share one cache with a default session and
/// declare the same statements: each misses, and prints what it prints
/// alone.  A session that differs only in its governor and worker count
/// hits.
#[test]
fn the_plan_cache_key_covers_every_plan_setting() {
    use itq_algebra::EvalConfig as AlgConfig;
    use itq_calculus::EvalConfig;
    use itq_core::engine::Engine;

    let cache = PlanCache::new();
    let shared = |engine: Engine| {
        let mut session = Session::with_engine(engine);
        session.set_shared_plans(cache.clone());
        session
    };
    let default = probe_output(&mut shared(Engine::new()));
    let prepared = cache.misses();
    assert_eq!((cache.hits(), prepared), (0, 4), "parents, gp, kids and ga");
    let line = |output: &[Vec<String>], request: usize| output[request].join("\n");
    assert!(line(&default, 6).contains("3 objects"), "{default:?}");
    assert!(line(&default, 7).contains("hash-join"), "{default:?}");
    assert!(
        line(&default, 8).contains("tried 5 invention levels"),
        "{default:?}"
    );
    assert!(line(&default, 9).contains("2 objects"), "{default:?}");
    assert!(
        line(&default, 10).contains("planned-algebra"),
        "{default:?}"
    );

    let changed = [
        (
            "tiny calculus budgets",
            Engine::builder().calc_config(EvalConfig::tiny()),
            6,
            "error: eval parents on d with limited: evaluation budget exceeded",
        ),
        (
            "a small algebra budget",
            Engine::builder().alg_config(AlgConfig { max_instance: 8 }),
            9,
            "error: eval ga on d: evaluation budget exceeded",
        ),
        (
            "one invented value",
            Engine::builder().max_invented(1),
            8,
            "tried 2 invention levels",
        ),
        (
            "the tuple-at-a-time algebra",
            Engine::builder().use_algebra_planner(false),
            10,
            "tuple-algebra",
        ),
    ];
    for (setting, builder, request, shows) in changed {
        let (hits, misses) = (cache.hits(), cache.misses());
        let served = probe_output(&mut shared(builder.clone().build()));
        assert_eq!(
            (cache.hits(), cache.misses()),
            (hits, misses + prepared),
            "{setting}: every prepare misses"
        );
        assert_eq!(
            served,
            probe_output(&mut Session::with_engine(builder.build())),
            "{setting}: the served session prints what it prints alone"
        );
        assert!(
            line(&served, request).contains(shows),
            "{setting}: {served:?}"
        );
        assert_ne!(served[request], default[request], "{setting}");
    }

    let (hits, misses) = (cache.hits(), cache.misses());
    let rebudgeted = Engine::builder()
        .deadline_millis(60_000)
        .parallelism(2)
        .build();
    let served = probe_output(&mut shared(rebudgeted));
    assert_eq!(
        (cache.hits(), cache.misses()),
        (hits + prepared, misses),
        "the governor and the worker count are not plan settings"
    );
    assert_eq!(served, default);
}

/// The resident set size of a process, in KiB.
#[cfg(target_os = "linux")]
fn rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line")
}

/// Prepared plans hold no copy of the session's atoms: over a 1 000-atom
/// database, 100 fresh-name re-declarations of one join (hits) and 100 joins
/// with distinct constants (misses), each planned, grow the server by less
/// than 16 MB.
#[cfg(target_os = "linux")]
#[test]
fn planning_over_a_large_universe_keeps_the_server_small() {
    let server = Server::spawn(&[]);
    let mut client = server.connect();
    let atoms = 1000;
    let edges: Vec<String> = (0..atoms)
        .map(|i| format!("[n{i}, n{}]", (i + 1) % atoms))
        .collect();
    let setup = format!(
        "schema Gen {{PAR : [U, U]}}; database d : Gen {{PAR = {{{}}}}};\n",
        edges.join(", ")
    );
    let ok =
        |lines: Vec<String>| assert!(lines.iter().all(|l| !l.starts_with("error:")), "{lines:?}");
    ok(client.roundtrip(&setup));
    let join = "pi_{1,4}(sigma_{$2 = $3}(PAR * PAR))";
    ok(client.roundtrip(&format!("algebra warm : Gen {join}; plan warm;\n")));
    let before = rss_kib(server.child.id());
    for i in 0..100 {
        ok(client.roundtrip(&format!("algebra j{i} : Gen {join}; plan j{i};\n")));
        ok(client.roundtrip(&format!(
            "algebra c{i} : Gen pi_{{1,4}}(sigma_{{($2 = $3 and $1 = \"n{i}\")}}(PAR * PAR)); \
             plan c{i};\n"
        )));
    }
    let grown = rss_kib(server.child.id()).saturating_sub(before);
    assert!(grown < 16 * 1024, "the server grew by {grown} KiB");
}

/// A request that never completes a statement is cut off at the cap with a
/// typed error, and the server keeps serving other connections.
#[test]
fn an_oversized_request_is_refused_and_the_server_keeps_serving() {
    let server = Server::spawn(&[]);
    let mut flooding = server.connect();
    let mut writer = flooding.stream.try_clone().expect("clone client stream");
    // 2 MiB without a newline; the write fails once the server hangs up.
    let flood = thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 * MAX_REQUEST_BYTES]);
    });
    assert_eq!(
        flooding.read_batch(),
        [format!(
            "error: request exceeds {MAX_REQUEST_BYTES} bytes without completing a statement"
        )]
    );
    flood.join().expect("flooding thread");

    let mut next = server.connect();
    next.roundtrip(DECLARATIONS);
    let eval = next.roundtrip("eval gp on family;\n");
    assert!(eval.iter().any(|l| l.contains("[Tom, Sue]")), "{eval:?}");
}
