//! `e2ebench` — the repository benchmark.
//!
//! Runs one workload against a release build and prints every metric by
//! name with its unit; the last stdout line is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. Usage:
//!
//! ```text
//! e2ebench --cli <muppet-cli> --workload <admin-daemon|stream-churn>
//!          --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--plant-wrong-label]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` runs the workload untraced and then traced, and reports
//! the per-layer metrics of the traced run plus the tracing overhead.
//! Any wrong verdict makes the run incorrect and the exit code 1.

mod admin;
mod churn;
mod daemon;
mod layers;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use muppet_daemon::json::Json;
use stats::Outcome;

/// Benchmark settings shared by every workload.
pub struct Config {
    pub cli: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the self-test.
    pub tiny: bool,
    /// Flip one expected label, to prove the verdict check trips.
    pub plant_wrong_label: bool,
    /// Scratch directory for sockets and trace files (inside the
    /// working directory).
    pub work_dir: PathBuf,
}

const WORKLOADS: &[&str] = &["admin-daemon", "stream-churn"];

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        cli: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        plant_wrong_label: false,
        work_dir: PathBuf::from(format!(".bench_run/{}", std::process::id())),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--plant-wrong-label" {
            cfg.plant_wrong_label = true;
            i += 1;
            continue;
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag {
            "--cli" => cfg.cli = PathBuf::from(val),
            "--workload" => cfg.workload = val,
            "--seed" => cfg.seed = val.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => cfg.seconds = val.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => cfg.trace = val == "1",
            "--size" => cfg.tiny = val == "tiny",
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    // No default: the bounds in BENCHMARK.json hold for its run_seconds.
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds needs a positive number".into());
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !cfg.cli.is_file() {
        return Err(format!("muppet-cli not found at {:?}", cfg.cli));
    }
    Ok(cfg)
}

fn run_workload(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "admin-daemon" => admin::run(cfg, traced),
        _ => churn::run(cfg, traced),
    }
}

/// The opposite label (for `--plant-wrong-label`).
pub fn flip(e: muppet_scenario::Expected) -> muppet_scenario::Expected {
    match e {
        muppet_scenario::Expected::Sat => muppet_scenario::Expected::Unsat,
        muppet_scenario::Expected::Unsat => muppet_scenario::Expected::Sat,
    }
}

/// The commit of the working directory, when it is a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the workload (twice when traced) and render the result line.
fn run(cfg: &Config) -> Result<(String, bool), String> {
    let plain = run_workload(cfg, false)?;
    let traced = if cfg.trace {
        Some(run_workload(cfg, true)?)
    } else {
        None
    };
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let (attempted, failed, correct) = match &traced {
        None => {
            plain.end_to_end(&mut metrics);
            (plain.attempted, plain.failed, plain.correct())
        }
        Some(t) => {
            metrics.extend(t.layers.iter().cloned());
            let base = plain.verdicts_per_s();
            let overhead = if base > 0.0 {
                (base - t.verdicts_per_s()) / base * 100.0
            } else {
                0.0
            };
            metrics.push(("obs.tracing_overhead_pct".into(), overhead, "%"));
            (
                plain.attempted + t.attempted,
                plain.failed + t.failed,
                plain.correct() && t.correct(),
            )
        }
    };
    for m in plain.mismatches.iter().chain(traced.iter().flat_map(|t| &t.mismatches)) {
        eprintln!("e2ebench: verdict check failed: {m}");
    }
    let main = traced.as_ref().unwrap_or(&plain);
    let (tail_pct, beyond) = main.tail_percentile();
    let mut prov = vec![
        ("commit".to_string(), Json::str(commit())),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("profile".into(), Json::str("release")),
        ("workload".into(), Json::str(&cfg.workload)),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("traced".into(), Json::Bool(cfg.trace)),
        ("size".into(), Json::str(if cfg.tiny { "tiny" } else { "full" })),
        ("verdicts".into(), Json::Num(main.latencies_ms.len() as f64)),
        ("latency_tail_percentile".into(), Json::Num(tail_pct)),
        ("latency_tail_samples_beyond".into(), Json::Num(beyond as f64)),
        ("failed_frac".into(), Json::Num(main.failed_frac())),
    ];
    prov.extend(main.provenance.iter().cloned());
    println!("{}", Json::obj([("provenance", Json::Obj(prov))]).to_line());
    for (name, value, unit) in &metrics {
        eprintln!("e2ebench: {name} = {value} {unit}");
    }
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                )
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json),
    ])
    .to_line();
    Ok((line, correct))
}
