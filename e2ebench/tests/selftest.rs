//! Self-test of the benchmark: every workload at a tiny size prints
//! every metric `BENCHMARK.json` declares, and a planted wrong label
//! trips the verdict check.
//!
//! Needs a release `muppet-cli`: set `MUPPET_CLI`, or the test builds it
//! into the repository's target directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const WORKLOADS: [&str; 2] = ["admin-daemon", "stream-churn"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a repository subdirectory")
        .to_path_buf()
}

fn cli() -> &'static Path {
    static CLI: OnceLock<PathBuf> = OnceLock::new();
    CLI.get_or_init(|| {
        if let Some(p) = std::env::var_os("MUPPET_CLI") {
            return PathBuf::from(p);
        }
        let root = repo_root();
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target"));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "-q", "--bin", "muppet-cli"])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building muppet-cli failed");
        let target = if target.is_absolute() { target } else { root.join(target) };
        target.join("release").join("muppet-cli")
    })
}

/// Declared metric names of one kind (`end_to_end` or `per_layer`).
fn declared(kind: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let section = text
        .split(&format!("\"{kind}\""))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("section present");
    section
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Run one tiny workload; returns the exit code and the last stdout line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--cli", cli().to_str().unwrap(), "--workload", workload])
        .args(["--seed", "7", "--seconds", "1", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out.status.code().unwrap_or(-1), last)
}

fn assert_metrics(line: &str, names: &[String]) {
    assert!(line.starts_with("{\"correct\":true"), "not a correct result: {line}");
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")),
            "metric {name} missing from {line}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        let (code, line) = run(w, false, &[]);
        assert_eq!(code, 0, "{w}: {line}");
        assert_metrics(&line, &names);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let names = declared("per_layer");
    for w in WORKLOADS {
        let (code, line) = run(w, true, &[]);
        assert_eq!(code, 0, "{w}: {line}");
        assert_metrics(&line, &names);
    }
}

#[test]
fn a_planted_wrong_label_trips_the_verdict_check() {
    for w in WORKLOADS {
        let (code, line) = run(w, false, &["--plant-wrong-label"]);
        assert_eq!(code, 1, "{w} must fail: {line}");
        assert!(line.starts_with("{\"correct\":false"), "{w}: {line}");
    }
}
