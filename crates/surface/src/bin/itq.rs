//! `itq` — the interactive shell and script runner for the whole engine.
//!
//! ```text
//! itq                      # REPL on stdin (statements end with `;`)
//! itq --script FILE.itq    # batch mode: run a script, stop at the first error
//! itq --check FILE.itq     # static analysis only: never executes anything
//! itq -e 'STATEMENTS'      # one-shot: run statements from the command line
//! itq --quiet ...          # suppress answer-object lines (headers still print)
//! itq --trace FILE ...     # append one JSON trace span per traced event
//! itq --deadline-ms 500 ...    # resource governor: wall-clock limit per execution
//! itq --memory-limit 1048576 ... # resource governor: interned-bytes ceiling
//! itq serve --addr 127.0.0.1:7171 --threads 4   # multi-session TCP server
//! ```
//!
//! The REPL keeps going after an error; batch and one-shot modes exit with
//! status 1 on the first error so CI pipelines fail loudly.  `--check` exits
//! with the script's worst diagnostic severity: 0 for clean or info-only,
//! 1 when warnings were found, 2 on any error.
//!
//! ## Cancellation
//!
//! Ctrl-C cancels the statement that is currently executing instead of
//! terminating the process.  The `itq-signal` shim latches SIGINT into an
//! atomic flag (one `signal(2)` FFI call, the only code in the workspace
//! exempt from `forbid(unsafe_code)`); a watcher thread polls that latch
//! every ~25 ms and raises the engine's shared [`CancelFlag`], and the
//! governed execution stops at its next poll point with
//! `error: execution cancelled`.  The flag is lowered
//! again before each statement, so the session keeps going afterwards.
//! Because glibc installs the handler with `SA_RESTART`, a Ctrl-C while the
//! REPL is *idle* at its prompt (blocked in `read(2)`) does not interrupt the
//! read — it is absorbed harmlessly before the next statement runs.
//! Deadlines (`--deadline-ms`, or `set deadline <millis>;` in the session)
//! remain the way to bound a statement unattended.

use itq_object::CancelFlag;
use itq_surface::check_script;
use itq_surface::script::split_statements;
use itq_surface::serve::{serve, ServeConfig};
use itq_surface::session::{Control, Session};
use itq_surface::statement_complete;
use itq_trace::JsonLinesSink;
use std::io::{BufRead, Write};
use std::process::ExitCode;

/// What to run (after flags are stripped from the command line); `None` in
/// `main` means the interactive REPL.
enum Mode {
    Script(String),
    Check(String),
    Eval(String),
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `itq serve …` is a subcommand with its own flag set.
    if raw.first().map(String::as_str) == Some("serve") {
        return serve_main(&raw[1..]);
    }
    let mut quiet = false;
    let mut trace: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut memory_limit: Option<u64> = None;
    let mut mode: Option<Mode> = None;
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--trace" => match args.next() {
                Some(path) => trace = Some(path),
                None => return usage_error("--trace needs a file argument"),
            },
            "--deadline-ms" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(millis)) => deadline_ms = Some(millis),
                Some(Err(_)) => return usage_error("--deadline-ms needs a number of milliseconds"),
                None => return usage_error("--deadline-ms needs a number of milliseconds"),
            },
            "--memory-limit" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(bytes)) => memory_limit = Some(bytes),
                Some(Err(_)) => return usage_error("--memory-limit needs a number of bytes"),
                None => return usage_error("--memory-limit needs a number of bytes"),
            },
            "--script" => match (mode.is_none(), args.next()) {
                (true, Some(path)) => mode = Some(Mode::Script(path)),
                (true, None) => return usage_error("--script needs a file argument"),
                (false, _) => return usage_error("more than one mode given"),
            },
            "--check" => match (mode.is_none(), args.next()) {
                (true, Some(path)) => mode = Some(Mode::Check(path)),
                (true, None) => return usage_error("--check needs a file argument"),
                (false, _) => return usage_error("more than one mode given"),
            },
            "-e" | "--eval" => match (mode.is_none(), args.next()) {
                (true, Some(stmts)) => mode = Some(Mode::Eval(stmts)),
                (true, None) => return usage_error("-e needs a statement argument"),
                (false, _) => return usage_error("more than one mode given"),
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unrecognised argument `{other}`")),
        }
    }

    let mut session = Session::new();
    session.set_quiet(quiet);
    if deadline_ms.is_some() || memory_limit.is_some() {
        let governor = session.engine_mut().governor_mut();
        governor.deadline_millis = deadline_ms;
        governor.memory_ceiling = memory_limit;
    }
    let cancel = install_ctrl_c(&mut session);
    if let Some(path) = trace {
        match std::fs::File::create(&path) {
            Ok(file) => session.set_trace_sink(Box::new(JsonLinesSink::new(file))),
            Err(e) => {
                eprintln!("error: cannot open trace file `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    match mode {
        None => repl(session, &cancel),
        Some(Mode::Script(path)) => {
            batch(&mut session, &cancel, &file_contents(&path), Some(&path))
        }
        Some(Mode::Check(path)) => check(&path, &file_contents(&path)),
        Some(Mode::Eval(stmts)) => batch(&mut session, &cancel, &stmts, None),
    }
}

/// Wire Ctrl-C to cooperative cancellation: link a [`CancelFlag`] into the
/// session's governor and start a watcher thread that raises it whenever the
/// `itq-signal` latch reports a SIGINT.  The in-flight statement then stops
/// at its next governor poll with `execution cancelled`; the driver lowers
/// the flag again before the next statement.  When no handler can be
/// installed (non-unix), the flag is still returned but never raised —
/// Ctrl-C keeps its default terminate-the-process behaviour there.
fn install_ctrl_c(session: &mut Session) -> CancelFlag {
    let cancel = CancelFlag::new();
    if itq_signal::install() {
        session.engine_mut().governor_mut().cancel = Some(cancel.clone());
        let watcher = cancel.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_millis(25));
            if itq_signal::take() {
                watcher.cancel();
            }
        });
    }
    cancel
}

/// Parse `itq serve` flags and run the server.
fn serve_main(args: &[String]) -> ExitCode {
    let mut config = ServeConfig::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr.clone(),
                None => return usage_error("--addr needs a host:port argument"),
            },
            "--threads" => match args.next().map(|n| n.parse::<usize>()) {
                Some(Ok(workers)) if workers >= 1 => config.threads = workers,
                _ => return usage_error("--threads needs a worker count of at least 1"),
            },
            "--deadline-ms" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(millis)) => config.deadline_millis = Some(millis),
                _ => return usage_error("--deadline-ms needs a number of milliseconds"),
            },
            "--memory-limit" => match args.next().map(|n| n.parse::<u64>()) {
                Some(Ok(bytes)) => config.memory_ceiling = Some(bytes),
                _ => return usage_error("--memory-limit needs a number of bytes"),
            },
            "--quiet" | "-q" => config.quiet = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unrecognised serve argument `{other}`")),
        }
    }
    match serve(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--check` mode: analyze the whole script statically (never executing a
/// statement) and exit with its worst severity.
fn check(path: &str, src: &str) -> ExitCode {
    let result = check_script(src, &itq_analyze::Budgets::default());
    for line in &result.lines {
        println!("{line}");
    }
    println!("{path}: {}", result.summary());
    ExitCode::from(result.exit_code() as u8)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    println!(
        "usage: itq [--quiet] [--trace FILE] [--deadline-ms N] [--memory-limit N] \
         [--script FILE.itq | --check FILE.itq | -e 'STATEMENTS' | --help]"
    );
    println!("       itq serve [--addr HOST:PORT] [--threads N] [--deadline-ms N] [--memory-limit N] [--quiet]");
    println!("With no mode argument, reads `;`-terminated statements from stdin.");
    println!("  --quiet            print result headers only, not the answer objects");
    println!("  --trace FILE       write one JSON span per eval/epoch to FILE (JSON lines)");
    println!("  --check FILE       static analysis only; exit 0 clean/info, 1 warnings, 2 errors");
    println!("  --deadline-ms N    stop any execution after N wall-clock milliseconds");
    println!("  --memory-limit N   stop any execution interning more than N bytes");
    println!("serve mode: one session per TCP connection, a shared prepared-plan cache,");
    println!("  per-request budgets, `.`-terminated responses; SIGINT drains and exits.");
    println!("  --addr HOST:PORT   bind address (default 127.0.0.1:7171; port 0 = ephemeral)");
    println!("  --threads N        in-query worker count for every session (default 1)");
    println!("Ctrl-C cancels the in-flight statement (`error: … execution cancelled`) and");
    println!("the session continues; deadlines still bound statements left unattended.");
    println!("Type `help;` inside the session for the statement reference.");
}

fn file_contents(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        }
    }
}

/// Batch mode: run every statement, stop (exit 1) at the first error.
fn batch(session: &mut Session, cancel: &CancelFlag, src: &str, origin: Option<&str>) -> ExitCode {
    for (chunk, base) in split_statements(src) {
        cancel.reset();
        match session.run_statement(&chunk, base) {
            Ok(output) => {
                for line in &output.lines {
                    println!("{line}");
                }
                if output.control == Control::Quit {
                    break;
                }
            }
            Err(e) => {
                match origin {
                    Some(path) => eprintln!("{path}: {e}"),
                    None => eprintln!("{e}"),
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Interactive mode: prompt, accumulate input until a `;` completes at least
/// one statement, execute, report errors, continue.
fn repl(mut session: Session, cancel: &CancelFlag) -> ExitCode {
    println!("itq — intermediate-type queries (type `help;`, quit with `quit;`)");
    let stdin = std::io::stdin();
    let mut pending = String::new();
    let mut prompt;
    print!("itq> ");
    let _ = std::io::stdout().flush();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error reading input: {e}");
                return ExitCode::FAILURE;
            }
        };
        pending.push_str(&line);
        pending.push('\n');
        // Execute only once the buffered text ends in a complete statement;
        // `split_statements` is quote- and comment-aware, so a `;` inside a
        // string does not trigger execution.
        if statement_complete(&pending) {
            let src = std::mem::take(&mut pending);
            if run_and_report(&mut session, cancel, &src) == Control::Quit {
                return ExitCode::SUCCESS;
            }
            prompt = "itq> ";
        } else {
            prompt = "...> ";
        }
        print!("{prompt}");
        let _ = std::io::stdout().flush();
    }
    println!();
    ExitCode::SUCCESS
}

/// Run buffered statements against the REPL session, reporting (but not
/// aborting on) errors.  The cancellation flag is lowered before each
/// statement so a Ctrl-C aimed at one statement (or absorbed while idle)
/// never bleeds into the next.
fn run_and_report(session: &mut Session, cancel: &CancelFlag, src: &str) -> Control {
    for (chunk, base) in split_statements(src) {
        cancel.reset();
        match session.run_statement(&chunk, base) {
            Ok(output) => {
                for line in &output.lines {
                    println!("{line}");
                }
                if output.control == Control::Quit {
                    return Control::Quit;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                // Interactive sessions keep going after an error.
            }
        }
    }
    Control::Continue
}
