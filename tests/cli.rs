//! Integration tests for the `muppet-cli` binary: drive the actual
//! executable over the paper's files and check verdicts, exit codes and
//! output shape. The harness tests drive `muppet-harness` the same way.

use std::path::PathBuf;
use std::process::{Command, Output};

const MESH_YAML: &str = "\
---
apiVersion: v1
kind: Service
metadata:
  name: test-frontend
spec:
  ports:
  - port: 23
---
apiVersion: v1
kind: Service
metadata:
  name: test-backend
spec:
  ports:
  - port: 25
  - port: 12000
---
apiVersion: v1
kind: Service
metadata:
  name: test-db
spec:
  ports:
  - port: 16000
";

const BAN_YAML: &str = "\
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: deny-telnet
  annotations:
    x-muppet-action: Deny
spec:
  podSelector: {}
  policyTypes:
  - Ingress
  ingress:
  - ports:
    - port: 23
";

const K8S_GOALS: &str = "port,perm,selector\n23,DENY,*\n";
const ISTIO_STRICT: &str = "\
srcService,dstService,srcPort,dstPort
test-frontend,test-backend,24,25
test-backend,test-frontend,26,23
test-backend,test-db,14000,16000
test-db,test-backend,10000,12000
";
const ISTIO_RELAXED: &str = "\
srcService,dstService,srcPort,dstPort
test-frontend,test-backend,?w,?x
test-backend,test-frontend,?y,?z
test-backend,test-db,14000,16000
test-db,test-backend,10000,12000
";

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("muppet-cli-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let f = Fixture { dir };
        f.write("mesh.yaml", MESH_YAML);
        f.write("ban.yaml", BAN_YAML);
        f.write("k8s.csv", K8S_GOALS);
        f.write("istio.csv", ISTIO_STRICT);
        f.write("relaxed.csv", ISTIO_RELAXED);
        f
    }

    fn write(&self, name: &str, content: &str) {
        std::fs::write(self.dir.join(name), content).expect("write fixture");
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_muppet-cli"))
            .args(args)
            .output()
            .expect("run muppet-cli")
    }

    /// Run `muppet-harness` with the fixture directory as its working
    /// directory, where it writes its bench files.
    fn harness(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_muppet-harness"))
            .args(args)
            .current_dir(&self.dir)
            .output()
            .expect("run muppet-harness")
    }

    fn files(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .expect("read fixture dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn reconcile_detects_the_paper_conflict() {
    let f = Fixture::new("reconcile");
    let out = f.run(&[
        "reconcile",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("istio.csv"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("UNSAT"));
    assert!(text.contains("DENY port 23"));
    assert!(text.contains("test-backend -> test-frontend"));
    // `--threads` is accepted and ignored: search is sequential.
    let threads = f.run(&[
        "reconcile",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("istio.csv"),
        "--threads",
        "4",
    ]);
    assert_eq!(threads.status.code(), Some(1), "{threads:?}");
    assert_eq!(stdout(&threads), text);
}

#[test]
fn reconcile_succeeds_on_relaxed_goals() {
    let f = Fixture::new("relaxed");
    let out = f.run(&[
        "reconcile",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("relaxed.csv"),
        "--extra-ports",
        "24,26",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("SAT"));
}

#[test]
fn check_localizes_the_outage() {
    let f = Fixture::new("check");
    // Deployed: mesh + the pushed ban; goals: the strict Istio table.
    let out = f.run(&[
        "check",
        "--manifests",
        &f.path("mesh.yaml"),
        "--manifests",
        &f.path("ban.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("istio.csv"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("[FAIL] istio-admin: istio goal 2"));
    assert!(text.contains("deny-telnet"), "trace names the culprit: {text}");
    // The other goals hold.
    assert_eq!(text.matches("[ok ]").count(), 4);
}

#[test]
fn check_passes_on_open_mesh() {
    let f = Fixture::new("check-ok");
    let out = f.run(&[
        "check",
        "--manifests",
        &f.path("mesh.yaml"),
        "--istio-goals",
        &f.path("istio.csv"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("all 4 goal(s) hold"));
}

#[test]
fn envelope_prints_fig5() {
    let f = Fixture::new("envelope");
    let out = f.run(&[
        "envelope",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("all src: Service | all dst: Service"));
    assert!(text.contains("(5) Src is explicitly allowed to send to some port"));
    assert!(text.contains("reveals 1 concrete setting(s): [\"23\"]"));
}

#[test]
fn envelope_reports_self_satisfied_provider() {
    let f = Fixture::new("selfsat");
    let out = f.run(&[
        "envelope",
        "--manifests",
        &f.path("mesh.yaml"),
        "--manifests",
        &f.path("ban.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("already guarantees its goals"), "{text}");
    assert!(text.contains("self-satisfied: k8s goal 1"));
}

#[test]
fn synthesize_emits_reparsable_verified_yaml() {
    let f = Fixture::new("synth");
    let out = f.run(&[
        "synthesize",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("relaxed.csv"),
        "--extra-ports",
        "24,26",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let yaml = stdout(&out);
    // The output is a valid multi-document manifest stream.
    let bundle = muppet_mesh::manifest::parse_manifests(&yaml).expect("emitted YAML parses");
    assert_eq!(bundle.mesh.services().len(), 3);
    // And the stderr note confirms verification ran.
    assert!(String::from_utf8_lossy(&out.stderr).contains("verified"));
}

#[test]
fn explain_names_failing_pairs_and_hatches() {
    let f = Fixture::new("explain");
    let out = f.run(&[
        "explain",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("VIOLATED"));
    assert!(text.contains("dst = test-frontend"));
    assert!(text.contains("[FAIL] dst does not listen on port 23"));
    // With the ban deployed K8s-side, the envelope is self-satisfied.
    let out = f.run(&[
        "explain",
        "--manifests",
        &f.path("mesh.yaml"),
        "--manifests",
        &f.path("ban.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("trivial"));
}

#[test]
fn exhausted_budget_gives_exit_3_and_structured_report() {
    let f = Fixture::new("budget");
    let base = [
        "reconcile",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("istio.csv"),
    ];
    // An already-expired deadline cannot prove anything: structured
    // UNKNOWN, exit 3, and a pointer at the budget knobs.
    let mut args = base.to_vec();
    args.extend(["--timeout-ms", "0"]);
    let out = f.run(&args);
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("UNKNOWN"), "{text}");
    assert!(text.contains("budget exhausted at phase"), "{text}");
    assert!(text.contains("attempt(s)"), "{text}");
    assert!(text.contains("--timeout-ms"), "{text}");
    // A generous budget reaches the real verdict (exit 1: conflict).
    let mut args = base.to_vec();
    args.extend(["--timeout-ms", "60000", "--conflict-budget", "1000000", "--retries", "3"]);
    let out = f.run(&args);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("UNSAT"));
}

/// Regression (budget overflow): an absurd `--timeout-ms` used to
/// panic in `Budget::with_timeout` on `Instant + Duration` overflow.
/// It must instead behave like "no deadline" and deliver the real
/// verdict.
#[test]
fn absurd_timeout_is_no_deadline_not_a_panic() {
    let f = Fixture::new("hugetimeout");
    for timeout in ["18446744073709551615", "9223372036854775807"] {
        let out = f.run(&[
            "reconcile",
            "--manifests",
            &f.path("mesh.yaml"),
            "--k8s-goals",
            &f.path("k8s.csv"),
            "--istio-goals",
            &f.path("istio.csv"),
            "--timeout-ms",
            timeout,
        ]);
        // Exit 1 = the strict tables' real UNSAT verdict; a panic would
        // surface as a signal/101 and no UNSAT line.
        assert_eq!(out.status.code(), Some(1), "timeout {timeout}: {out:?}");
        assert!(stdout(&out).contains("UNSAT"), "timeout {timeout}");
    }
}

/// `--trace-json` streams one schema-conforming JSON-Lines event per
/// closed span, covering the solve phases.
#[test]
fn trace_json_flag_streams_span_events() {
    let f = Fixture::new("tracejson");
    let trace = f.path("trace.jsonl");
    let out = f.run(&[
        "reconcile",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("istio.csv"),
        "--trace-json",
        &trace,
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.trim().is_empty(), "trace must not be empty");
    let mut seen = std::collections::BTreeSet::new();
    for line in text.lines() {
        let v = muppet_daemon::json::parse(line)
            .unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        for key in ["name", "path", "depth", "start_us", "elapsed_us", "counters", "attrs"] {
            assert!(v.get(key).is_some(), "event missing {key:?}: {line}");
        }
        let name = v.get("name").and_then(muppet_daemon::json::Json::as_str).unwrap();
        seen.insert(name.to_string());
        // path ends with the span's own name.
        let path = v.get("path").and_then(muppet_daemon::json::Json::as_str).unwrap();
        assert!(path.ends_with(name), "path {path:?} must end with {name:?}");
    }
    for phase in ["reconcile", "ground", "encode", "search"] {
        assert!(seen.contains(phase), "missing {phase:?} events; saw {seen:?}");
    }
}

#[test]
fn bad_inputs_give_exit_2() {
    let f = Fixture::new("bad");
    let out = f.run(&["reconcile"]);
    assert_eq!(out.status.code(), Some(2));
    let out = f.run(&["frobnicate", "--manifests", &f.path("mesh.yaml")]);
    assert_eq!(out.status.code(), Some(2));
    let out = f.run(&[
        "reconcile",
        "--manifests",
        &f.path("mesh.yaml"),
        "--k8s-goals",
        &f.path("k8s.csv"),
        "--istio-goals",
        &f.path("istio.csv"),
        "--threads",
        "many",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads needs a worker count"));
    let out = f.run(&[
        "reconcile",
        "--manifests",
        "/nonexistent/path.yaml",
    ]);
    assert_eq!(out.status.code(), Some(2));
    f.write("garbage.yaml", "kind: Widget\nmetadata:\n  name: x\n");
    let out = f.run(&["reconcile", "--manifests", &f.path("garbage.yaml")]);
    assert_eq!(out.status.code(), Some(2));
    let out = f.run(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("USAGE"));
}

/// A harness run restricted to some lanes covers only part of the
/// result table, so it must leave `BENCH_e2e.json` alone.
#[test]
fn lane_selected_harness_run_writes_no_bench_e2e() {
    let f = Fixture::new("harness-lane");
    let out = f.harness(&["--timeout-ms", "0", "e1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("budget exhausted"), "{}", stdout(&out));
    assert!(!f.dir.join("BENCH_e2e.json").exists());
}

/// A gated lane writes its own bench record and nothing else: the
/// record names its lane, the commit, the host and the build profile,
/// and carries the lane's measured numbers as numbers.
#[test]
fn lane_selected_harness_run_writes_only_its_own_bench_file() {
    use muppet_daemon::json::{parse, Json};
    let f = Fixture::new("harness-n1");
    let before = f.files();
    let out = f.harness(&["n1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let added: Vec<String> = f.files().into_iter().filter(|n| !before.contains(n)).collect();
    assert_eq!(added, ["BENCH_incremental.json"]);
    let text = std::fs::read_to_string(f.dir.join("BENCH_incremental.json")).unwrap();
    let record = parse(&text).expect("the bench record is JSON");
    assert_eq!(record.get("lane").and_then(Json::as_str), Some("N1"));
    assert_eq!(record.get("status").and_then(Json::as_str), Some("ok"));
    assert!(record.get("commit").and_then(Json::as_str).is_some_and(|c| !c.is_empty()));
    assert!(record.get("host_cores").and_then(Json::as_u64).is_some_and(|n| n >= 1));
    assert!(record.get("profile").and_then(Json::as_str).is_some());
    let rows = record.get("rows").and_then(Json::as_arr).expect("rows");
    let ratio = rows
        .iter()
        .find(|r| r.get("metric").and_then(Json::as_str) == Some("cold/warm encode ratio"))
        .expect("the encode-ratio row");
    assert!(ratio.get("value").and_then(Json::as_f64).is_some_and(|v| v >= 3.0), "{ratio:?}");
}

/// Under an exhausted budget every governed lane renders one "budget
/// exhausted" row instead of results, and the run still succeeds.
#[test]
fn exhausted_budget_gives_one_row_per_lane() {
    let f = Fixture::new("harness-exhausted");
    let out = f.harness(&["--csv", "--timeout-ms", "0", "e5", "e6", "e8", "o1", "n1", "m1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let csv = stdout(&out);
    for lane in ["E5", "E6", "E8", "O1", "N1", "M1"] {
        let rows: Vec<&str> = csv.lines().filter(|l| l.starts_with(&format!("{lane},"))).collect();
        assert_eq!(rows.len(), 1, "{lane}: {rows:?}");
        assert!(rows[0].contains(",budget exhausted,"), "{lane}: {rows:?}");
    }
}

/// O1 validates the span trees of its own solves only: the row reads
/// the same alone and after D1, whose daemon engine leaves its request
/// trees in the process-wide span ring.
#[test]
fn o1_counts_only_its_own_span_trees() {
    let f = Fixture::new("harness-o1-trees");
    let trees = |lanes: &[&str]| {
        let out = f.harness(&[&["--csv"], lanes].concat());
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        stdout(&out)
            .lines()
            .find(|l| l.starts_with("O1,span schema,trees validated,"))
            .expect("the trees-validated row")
            .to_string()
    };
    assert_eq!(trees(&["o1"]), trees(&["d1", "o1"]));
}

/// A lane filter that selects no experiment is a usage error, not an
/// empty table: a typo'd or deleted lane must not pass silently.
#[test]
fn harness_lane_filter_matching_nothing_gives_exit_2() {
    let f = Fixture::new("harness-no-lane");
    let out = f.harness(&["a4"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(!f.dir.join("BENCH_e2e.json").exists());
}
