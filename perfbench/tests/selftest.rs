//! Benchmark self-test: every workload `BENCHMARK.json` lists runs briefly,
//! untraced and traced, answers every statement correctly, and reports every
//! end-to-end and per-layer metric `BENCHMARK.json` names.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_is_correct_and_reports_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root");
    let manifest =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json is readable");
    for workload in names(&manifest, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", &workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace])
                .current_dir(root)
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\":true,"), "{result}");
            assert!(result.contains("\"failed\":0,"), "{result}");
            for name in names(&manifest, section) {
                assert!(
                    result.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} --trace {trace} lacks {name}: {result}"
                );
            }
        }
    }
}
