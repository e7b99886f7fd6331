//! `perfbench` — the end-to-end `itq serve` benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload calc-enum|watch-writes|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root.  It builds the release `itq` binary, starts
//! `itq serve --addr 127.0.0.1:0 --threads 1` (with `ITQ_PARALLELISM`
//! removed from its environment), and drives it over loopback TCP as a closed
//! loop: each connection sends its next statement only when the previous
//! response's `.` terminator has arrived, and several connections take turns
//! by whole cycles.  Every response is checked against an answer the
//! benchmark computes itself (see `workload.rs`).
//!
//! The setup (spawn, connect, declaration batch) runs nine times and the
//! median is `setup_s`; the last server is then warmed with one untimed
//! cycle and measured for `--seconds`, counting whole cycles only.  A latency
//! metric is a quantile over the fastest latencies of its class's cycle
//! positions (see `fastest_ms`).  With
//! `--trace 0` the last stdout line is a JSON object of the end-to-end
//! metrics; with `--trace 1` the same run is followed by an in-process
//! replay of the stream (`replay.rs`) and the line carries the per-layer
//! metrics instead.  The line before it records the environment: core count,
//! seed, server flags and the stream hash.  `perfbench/NOTES.md` explains
//! each workload and which layer metric should move which end-to-end metric.

mod client;
mod replay;
mod stats;
mod workload;

use crate::stats::{median, quantile};
use crate::workload::{Class, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Build the release `itq` binary from the checkout in the working
/// directory and return its path.
fn build_server() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("crates/surface/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/surface is missing)".to_string());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "itq-surface", "--bin", "itq", "--message-format=json"])
        .current_dir(&root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err("building the itq binary failed".to_string());
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter_map(|l| l.split("\"executable\":\"").nth(1)?.split('"').next())
        .find(|path| path.ends_with("/itq"))
        .map(|path| root.join(path))
        .ok_or_else(|| "cargo reported no itq executable".to_string())
}

/// A metric as it appears in the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = workload::generate(&args.workload, args.seed)?;
    let binary = build_server()?;

    let mut setup_secs = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let r = client::set_up(&binary, &workload)?;
        setup_secs.push(r.setup_secs);
        attempted += r.attempted;
        failed += r.failed;
        if rep + 1 < SETUP_REPS {
            r.server.stop();
        } else {
            ready = Some(r);
        }
    }
    let mut ready = ready.expect("at least one set-up");
    let runs = client::measure(&mut ready, &workload, args.seconds);
    let client::Ready { server, conns, .. } = ready;
    drop(conns);
    let peak_rss_mb = server.peak_rss_mb();
    server.stop();
    let runs = runs?;

    for (c, run) in runs.iter().enumerate() {
        attempted += workload.conns[c].cycle.len() + run.samples.len();
        failed += run.warmup_failed + run.samples.iter().filter(|s| !s.ok).count();
    }
    let correct = failed == 0;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"cores\":{cores},\"server\":\"itq {}\",\
         \"connections\":{},\"cycles\":{:?},\"stream_hash\":\"{:016x}\"}}}}",
        args.workload,
        args.seed,
        client::SERVER_FLAGS.join(" "),
        runs.len(),
        runs.iter().map(|r| r.cycles).collect::<Vec<_>>(),
        workload.stream_hash()
    );
    eprintln!("perfbench: set-up seconds {setup_secs:?}");
    print_positions(&workload, &runs);

    let metrics = if args.trace {
        layer_metrics(&workload, &runs, args.seconds)?
    } else {
        // A class's quantile is taken over the fastest latencies of its
        // cycle positions (see `fastest_ms`), not over raw samples: raw
        // quantiles pick whichever statement kind and host-speed state sits
        // at the rank, and both change from run to run.  Several connections
        // report the mean of their own quantiles.
        let q = |class: Class, p: f64| -> f64 {
            let v: Vec<f64> = workload
                .conns
                .iter()
                .zip(&runs)
                .filter_map(|(conn, run)| {
                    let ms: Vec<f64> = fastest_ms(conn.cycle.len(), run)
                        .into_iter()
                        .zip(&conn.cycle)
                        .filter(|(_, stmt)| stmt.class == class)
                        .map(|(ms, _)| ms)
                        .collect();
                    quantile(&ms, p)
                })
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let measured: usize = runs.iter().map(|r| r.samples.len()).sum();
        // A round of turns (one cycle of every connection), each statement
        // at its fastest latency.
        let (stmts, round_ms) =
            workload
                .conns
                .iter()
                .zip(&runs)
                .fold((0, 0.0), |(n, ms), (conn, run)| {
                    let len = conn.cycle.len();
                    (n + len, ms + fastest_ms(len, run).iter().sum::<f64>())
                });
        let throughput = stmts as f64 / (round_ms / 1e3);
        eprintln!(
            "perfbench: {measured} statements measured, failed_frac {}",
            failed as f64 / attempted as f64
        );
        vec![
            m("setup_s", median(&setup_secs), "s"),
            m("eval_ms_p50", q(Class::Eval, 0.5), "ms"),
            m("eval_ms_p90", q(Class::Eval, 0.9), "ms"),
            m("write_ms_p50", q(Class::Write, 0.5), "ms"),
            m("write_ms_p90", q(Class::Write, 0.9), "ms"),
            m("decl_ms_p50", q(Class::Decl, 0.5), "ms"),
            m("decl_ms_p90", q(Class::Decl, 0.9), "ms"),
            m("stmts_per_s", throughput, "1/s"),
            m("server_peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MiB"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(correct)
}

/// The latencies in ms of one cycle position over a connection's measured
/// cycles.
fn position_ms(len: usize, run: &client::ConnRun, pos: usize) -> Vec<f64> {
    run.samples
        .iter()
        .skip(pos)
        .step_by(len)
        .map(|s| s.micros / 1e3)
        .collect()
}

/// The fastest latency in ms of each cycle position over the measured
/// cycles.  A statement does the same work in every cycle, and on a shared
/// host contention only ever adds time to it; the fastest of its many runs is
/// the program's own cost, and it moves least when the host's load does.
fn fastest_ms(len: usize, run: &client::ConnRun) -> Vec<f64> {
    (0..len)
        .map(|pos| {
            position_ms(len, run, pos)
                .into_iter()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Latency quantiles of every cycle position, to stderr: where a workload's
/// time goes, and which positions the class quantiles read.
fn print_positions(workload: &Workload, runs: &[client::ConnRun]) {
    for (c, (conn, run)) in workload.conns.iter().zip(runs).enumerate() {
        let len = conn.cycle.len();
        for (pos, stmt) in conn.cycle.iter().enumerate() {
            let times = position_ms(len, run, pos);
            let text: String = stmt.text.chars().take(50).collect();
            let q = |p| quantile(&times, p).unwrap_or(0.0);
            eprintln!(
                "conn {c} pos {pos:2} {:?} min {:8.3} p10 {:8.3} p50 {:8.3} p90 {:8.3} ms  {text}",
                stmt.class,
                q(0.0),
                q(0.1),
                q(0.5),
                q(0.9)
            );
        }
    }
}

/// The per-layer metrics: replay the measured stream in-process untraced,
/// then traced, and read layer times and counts off the traced replay.
fn layer_metrics(
    workload: &Workload,
    runs: &[client::ConnRun],
    seconds: f64,
) -> Result<Vec<Metric>, String> {
    // Replay as many measured cycles as take about a third of the run.
    let cycle_secs = runs
        .iter()
        .map(|r| r.elapsed_secs / r.cycles.max(1) as f64)
        .fold(0.0, f64::max);
    let budget = ((seconds / 3.0) / cycle_secs).ceil().max(1.0) as usize;
    let cycles = runs.iter().map(|r| r.cycles).min().unwrap_or(0).min(budget);

    let plain = replay::replay(workload, cycles, false)?;
    let traced = replay::replay(workload, cycles, true)?;
    let (hits, lookups) = replay::plan_cache_hits(workload, cycles.min(50))?;
    write_spans(workload, &traced.tracer);

    let tr = &traced.tracer;
    let own = tr.self_micros();
    let span_us = |name: &str| -> f64 {
        let v: Vec<f64> = tr
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &us)| us)
            .collect();
        median(&v)
    };
    let ct = &traced.counters;
    let med = |v: Vec<f64>| median(&v);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let prep = |f: fn(&itq_core::pipeline::PrepareStats) -> u64| {
        med(ct.prepares.iter().map(|p| f(p) as f64).collect())
    };
    let calc = |f: fn(&itq_core::pipeline::ExecStats) -> u64| {
        med(ct.calculus.iter().map(|(s, _)| f(s) as f64).collect())
    };
    let alg = |f: fn(&itq_core::pipeline::ExecStats) -> u64| {
        med(ct.algebra.iter().map(|(s, _)| f(s) as f64).collect())
    };
    let every_exec: Vec<&itq_core::pipeline::ExecStats> = ct
        .calculus
        .iter()
        .chain(&ct.algebra)
        .map(|(s, _)| s)
        .chain(&ct.invention)
        .collect();
    let sum = |v: &[(itq_core::pipeline::ExecStats, usize)],
               f: fn(&itq_core::pipeline::ExecStats) -> u64| {
        v.iter().map(|(s, _)| f(s) as f64).sum::<f64>()
    };
    let answers = |v: &[(itq_core::pipeline::ExecStats, usize)]| {
        v.iter().map(|(_, n)| *n as f64).sum::<f64>()
    };
    // Calculus time per execution: the evals' spans plus the views a write
    // re-executed (timed by the engine inside the write).
    let calc_exec: Vec<f64> = tr
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "calculus.exec")
        .map(|(_, &us)| us)
        .chain(ct.reexec_micros.iter().copied())
        .collect();
    let views: f64 = ct.writes.iter().map(|w| w.0 as f64).sum();
    let reexecuted: f64 = ct.writes.iter().map(|w| w.1 as f64).sum();
    // What the client waited for an eval beyond the layers' own work:
    // connection handling, socket writes and the network.
    let overhead: Vec<f64> = runs
        .iter()
        .zip(&traced.layer_micros)
        .flat_map(|(run, layers)| {
            run.samples
                .iter()
                .zip(layers)
                .filter(|(s, _)| s.class == Class::Eval)
                .map(|(s, layer_us)| s.micros - layer_us)
        })
        .collect();

    Ok(vec![
        m("surface.parse_us", span_us("surface.parse"), "us"),
        m("surface.render_us", span_us("surface.render"), "us"),
        m(
            "surface.response_bytes",
            med(ct.response_bytes.iter().map(|&b| b as f64).collect()),
            "bytes",
        ),
        m("prepare.total_us", span_us("prepare"), "us"),
        m("prepare.typecheck_us", prep(|p| p.typecheck_micros), "us"),
        m("prepare.plan_us", prep(|p| p.plan_micros), "us"),
        m("prepare.classify_us", prep(|p| p.classify_micros), "us"),
        m("prepare.normalize_us", prep(|p| p.normalize_micros), "us"),
        m("prepare.compile_us", prep(|p| p.compile_micros), "us"),
        m("analyze.us", prep(|p| p.analyze_micros), "us"),
        m("analyze.check_us", span_us("analyze.check"), "us"),
        m(
            "plan_cache.hit_ratio",
            ratio(hits as f64, lookups as f64),
            "ratio",
        ),
        m("plan_cache.lookups", lookups as f64, "count"),
        m("calculus.exec_us", med(calc_exec), "us"),
        m("calculus.steps", calc(|s| s.steps), "count"),
        m(
            "calculus.quantifier_values",
            calc(|s| s.quantifier_values),
            "count",
        ),
        m(
            "calculus.candidates_checked",
            calc(|s| s.candidates_checked),
            "count",
        ),
        m(
            "calculus.answers_per_candidate",
            ratio(
                answers(&ct.calculus),
                sum(&ct.calculus, |s| s.candidates_checked),
            ),
            "ratio",
        ),
        m(
            "calculus.domain_cache_hit_ratio",
            ratio(
                sum(&ct.calculus, |s| s.domain_cache_hits),
                sum(&ct.calculus, |s| {
                    s.domain_cache_hits + s.domain_cache_misses
                }),
            ),
            "ratio",
        ),
        m("algebra.exec_us", span_us("algebra.exec"), "us"),
        m("algebra.join_probes", alg(|s| s.join_probes), "count"),
        m(
            "algebra.tuples_materialised",
            alg(|s| s.tuples_materialised),
            "count",
        ),
        m(
            "algebra.answers_per_probe",
            ratio(answers(&ct.algebra), sum(&ct.algebra, |s| s.join_probes)),
            "ratio",
        ),
        m("algebra.partitions", alg(|s| s.partitions), "count"),
        m("invention.exec_us", span_us("invention.exec"), "us"),
        m(
            "invention.levels",
            med(ct
                .invention
                .iter()
                .map(|s| s.invention_levels as f64)
                .collect()),
            "count",
        ),
        m("incremental.write_us", span_us("incremental.write"), "us"),
        m(
            "incremental.views_refreshed",
            ratio(views, ct.writes.len() as f64),
            "count",
        ),
        m(
            "incremental.reexecuted_frac",
            ratio(reexecuted, views),
            "ratio",
        ),
        m(
            "object.interrupt_polls",
            med(every_exec
                .iter()
                .map(|s| s.interrupt_polls as f64)
                .collect()),
            "count",
        ),
        m(
            "object.interned_values",
            med(every_exec
                .iter()
                .map(|s| s.interned_values as f64)
                .collect()),
            "count",
        ),
        m("serve.overhead_us", med(overhead), "us"),
        m(
            "trace.overhead_frac",
            ratio(traced.measured_secs, plain.measured_secs) - 1.0,
            "ratio",
        ),
    ])
}

/// Write the traced replay's spans as JSON lines under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`), which version control ignores.
fn write_spans(workload: &Workload, tracer: &replay::Tracer) {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("perfbench");
    let path = dir.join(format!("spans-{:016x}.jsonl", workload.stream_hash()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}
