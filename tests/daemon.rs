//! End-to-end tests for `muppetd`: a real server on a real socket,
//! concurrent clients, and verdict parity with a single-threaded
//! oracle computed directly on the core library.

use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use muppet_daemon::json::Json;
use muppet_daemon::{serve, Endpoint, Op, Request, ServerConfig, SessionSpec};

/// A unique socket path under the system temp dir.
fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("muppetd-{}-{name}.sock", std::process::id()))
}

fn start(name: &str, workers: usize) -> (muppet_daemon::ServerHandle, PathBuf) {
    let path = socket_path(name);
    // These tests exercise concurrency and cancellation, not the
    // slow-loris defense (tests/daemon_overload.rs covers that): on a
    // saturated single-core CI host a multi-hundred-KB request line can
    // legitimately dribble in slower than the production read timeout,
    // so give the test servers a generous one.
    let overload = muppet_daemon::OverloadConfig {
        read_timeout_ms: 300_000,
        ..muppet_daemon::OverloadConfig::default()
    };
    let handle = serve(ServerConfig {
        socket: Some(path.clone()),
        tcp: None,
        workers,
        engine: muppet_daemon::EngineConfig::default(),
        overload,
    })
    .expect("serve");
    (handle, path)
}

/// Single-threaded oracle verdicts, computed cold on the core library
/// (no daemon, no cache, no warm state).
struct Oracle {
    strict_reconcile: bool,
    relaxed_reconcile: bool,
    conformance_success: bool,
    istio_consistent: bool,
}

fn oracle() -> Oracle {
    let strict = SessionSpec::paper_strict().load().expect("load strict");
    let relaxed = SessionSpec::paper_relaxed().load().expect("load relaxed");
    let mut s = strict.core.model.session();
    let strict_reconcile = s
        .reconcile(muppet::ReconcileMode::HardBounds)
        .expect("reconcile")
        .success;
    let istio_consistent = s
        .local_consistency(strict.core.model.party_id("istio").expect("party"))
        .expect("consistency")
        .ok;
    let mut r = relaxed.core.model.session();
    let relaxed_reconcile = r
        .reconcile(muppet::ReconcileMode::HardBounds)
        .expect("reconcile")
        .success;
    let tenant = relaxed.core.model.party_id("istio").expect("party");
    let preferred = relaxed.core.deployed(tenant).expect("deployed");
    let conformance_success = muppet::conformance::run_conformance(
        &mut r,
        relaxed.core.model.party_id("k8s").expect("party"),
        tenant,
        Some(&preferred),
    )
    .expect("conformance")
    .success;
    Oracle {
        strict_reconcile,
        relaxed_reconcile,
        conformance_success,
        istio_consistent,
    }
}

#[test]
fn sixty_four_concurrent_clients_match_oracle() {
    let want = oracle();
    // Paper sanity: the strict tables conflict, the relaxed ones don't.
    assert!(!want.strict_reconcile);
    assert!(want.relaxed_reconcile);
    let (handle, path) = start("conc", 8);

    let mut joins = Vec::new();
    for i in 0..64u32 {
        let path = path.clone();
        joins.push(thread::spawn(move || -> (u32, Result<muppet_daemon::Response, String>) {
            let req = match i % 4 {
                0 => {
                    Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict())
                }
                1 => {
                    Request::new(Op::Reconcile).with_spec(SessionSpec::paper_relaxed())
                }
                2 => {
                    Request::new(Op::CheckConformance).with_spec(SessionSpec::paper_relaxed())
                }
                _ => {
                    let mut r = Request::new(Op::CheckConsistency)
                        .with_spec(SessionSpec::paper_strict());
                    r.party = Some("istio".into());
                    r
                }
            };
            let mut req = req;
            req.id = Some(format!("client-{i}"));
            let resp = Endpoint::Unix(path).roundtrip(&req, Some(Duration::from_secs(60)));
            (i, resp)
        }));
    }
    for j in joins {
        let (i, resp) = j.join().expect("client thread");
        let resp = resp.unwrap_or_else(|e| panic!("client {i}: {e}"));
        assert!(resp.ok, "client {i}: {:?}", resp.error);
        assert_eq!(resp.id.as_deref(), Some(format!("client-{i}").as_str()));
        let verdict = match i % 4 {
            0..=2 => resp.result.get("success").and_then(Json::as_bool),
            _ => resp.result.get("ok").and_then(Json::as_bool),
        };
        let expected = match i % 4 {
            0 => want.strict_reconcile,
            1 => want.relaxed_reconcile,
            2 => want.conformance_success,
            _ => want.istio_consistent,
        };
        assert_eq!(verdict, Some(expected), "client {i} verdict mismatch");
    }

    // Stats must be coherent after the storm.
    let stats = Endpoint::Unix(path.clone())
        .roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(10)))
        .expect("stats");
    assert!(stats.ok);
    let requests = stats.result.get("requests").and_then(Json::as_u64).unwrap();
    assert!(requests >= 64, "served {requests} < 64");
    let hits = stats
        .result
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    // 64 clients over 4 distinct requests: most are repeats.
    assert!(hits >= 32, "expected heavy cache reuse, got {hits} hits");
    assert_eq!(
        stats.result.get("sessions").and_then(Json::as_u64),
        Some(2),
        "exactly two distinct specs were in play"
    );

    handle.stop();
    handle.wait();
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

#[test]
fn shutdown_request_stops_the_server() {
    let (handle, path) = start("shutdown", 2);
    let resp = Endpoint::Unix(path)
        .roundtrip(&Request::new(Op::Shutdown), Some(Duration::from_secs(10)))
        .expect("shutdown");
    assert!(resp.ok);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_stopped() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.is_stopped(), "shutdown request must stop the server");
    handle.wait();
}

#[test]
fn tcp_listener_smoke() {
    let handle = serve(ServerConfig {
        socket: None,
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 2,
        engine: muppet_daemon::EngineConfig::default(),
        overload: muppet_daemon::OverloadConfig::default(),
    })
    .expect("serve tcp");
    let addr = handle.tcp_addr().expect("bound tcp addr");
    let req = Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict());
    let resp = Endpoint::Tcp(addr.to_string())
        .roundtrip(&req, Some(Duration::from_secs(30)))
        .expect("tcp roundtrip");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.result.get("success").and_then(Json::as_bool), Some(false));
    handle.stop();
    handle.wait();
}

#[test]
fn malformed_lines_get_error_responses_not_disconnects() {
    let (handle, path) = start("malformed", 2);
    let mut client = Endpoint::Unix(path).connect(Some(Duration::from_secs(10))).unwrap();
    for bad in ["this is not json", "{\"v\":1}", "{\"v\":99,\"op\":\"stats\"}", "[1,2,3]"] {
        // Reuse the protocol plumbing by writing raw lines through a
        // throwaway Request? No — these are intentionally invalid, so
        // go through send/recv on the raw client.
        client.send_raw(bad).unwrap();
        let resp = client.recv().unwrap();
        assert!(!resp.ok, "line {bad:?} must be rejected");
        assert!(resp.error.is_some());
    }
    // The connection is still usable afterwards.
    let resp = client
        .roundtrip(&Request::new(Op::Stats))
        .expect("stats after garbage");
    assert!(resp.ok);
    handle.stop();
    handle.wait();
}

/// Unwrap-audit regression: every client-reachable parse path (the
/// hardened JSON reader, request field coercion, spec decoding, session
/// handles) must answer adversarial input with a protocol error on the
/// same connection — never a panic, never a disconnect.
#[test]
fn adversarial_requests_get_protocol_errors() {
    let (handle, path) = start("adversarial", 2);
    let mut client = Endpoint::Unix(path).connect(Some(Duration::from_secs(10))).unwrap();
    // One probe per audited parse path in the daemon sources.
    let probes: Vec<(&str, String)> = vec![
        // json.rs: depth limit (64) on nested arrays.
        ("deep nesting", format!("{}1{}", "[".repeat(200), "]".repeat(200))),
        // json.rs: lone surrogate escape in a string.
        ("lone surrogate", r#"{"v":1,"op":"stats","id":"\ud800"}"#.to_string()),
        // json.rs: truncated escape at end of input.
        ("truncated escape", r#"{"v":1,"op":"stats","id":"\u00"#.to_string()),
        // proto.rs: numeric fields must be non-negative integers.
        ("negative n", r#"{"v":1,"op":"trace","n":-3}"#.to_string()),
        ("string timeout", r#"{"v":1,"op":"stats","timeout_ms":"soon"}"#.to_string()),
        ("float retries", r#"{"v":1,"op":"stats","retries":1.5}"#.to_string()),
        // spec.rs: spec must be an object with string content fields.
        ("spec wrong type", r#"{"v":1,"op":"reconcile","spec":"yaml"}"#.to_string()),
        ("spec missing fields", r#"{"v":1,"op":"reconcile","spec":{}}"#.to_string()),
        (
            "spec numeric manifests",
            r#"{"v":1,"op":"reconcile","spec":{"manifests":7,"k8s_goals":"","istio_goals":""}}"#
                .to_string(),
        ),
        // engine.rs: session handles must be 32 hex chars.
        ("bad handle", r#"{"v":1,"op":"reconcile","session":"zz"}"#.to_string()),
        (
            "unknown handle",
            r#"{"v":1,"op":"reconcile","session":"00000000000000000000000000000000"}"#.to_string(),
        ),
    ];
    for (what, line) in probes {
        client.send_raw(&line).unwrap_or_else(|e| panic!("{what}: send failed: {e}"));
        let resp = client.recv().unwrap_or_else(|e| panic!("{what}: daemon died: {e}"));
        assert!(!resp.ok, "{what}: must be rejected, got {:?}", resp.result.to_line());
        assert!(resp.error.is_some(), "{what}: error text required");
    }
    // The connection survived every probe.
    let resp = client.roundtrip(&Request::new(Op::Stats)).expect("stats after probes");
    assert!(resp.ok);
    handle.stop();
    handle.wait();
}

/// The observability surface over the wire: a solve leaves a span tree
/// the `trace` op can serve, and `stats` carries the engine's per-op
/// latency histogram summaries.
#[test]
fn trace_op_serves_span_trees_and_stats_carries_obs() {
    let (handle, path) = start("trace", 2);
    let ep = Endpoint::Unix(path);
    let req = Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict());
    let solved = ep.roundtrip(&req, Some(Duration::from_secs(60))).unwrap();
    assert!(solved.ok, "{:?}", solved.error);

    let mut trace_req = Request::new(Op::Trace);
    trace_req.n = Some(16);
    let traced = ep.roundtrip(&trace_req, Some(Duration::from_secs(10))).unwrap();
    assert!(traced.ok, "{:?}", traced.error);
    assert_eq!(traced.result.get("enabled").and_then(Json::as_bool), Some(true));
    let traces = traced.result.get("traces").and_then(Json::as_arr).expect("traces array");
    assert!(!traces.is_empty(), "solve must leave at least one root trace");
    // Find the reconcile request's tree: root "request" with op attr,
    // a result_key joinable against the cache, and the solve phases
    // underneath.
    let tree = traces
        .iter()
        .find(|t| {
            t.get("attrs").and_then(|a| a.get("op")).and_then(Json::as_str)
                == Some("reconcile")
        })
        .expect("a reconcile trace");
    assert_eq!(tree.get("name").and_then(Json::as_str), Some("request"));
    let attrs = tree.get("attrs").expect("attrs");
    assert!(
        attrs.get("result_key").and_then(Json::as_str).map(str::len) == Some(32),
        "span must carry the cache fingerprint: {}",
        tree.to_line()
    );
    // Phase spans are nested somewhere under the request root.
    fn find_span<'j>(node: &'j Json, name: &str) -> Option<&'j Json> {
        if node.get("name").and_then(Json::as_str) == Some(name) {
            return Some(node);
        }
        node.get("children")
            .and_then(Json::as_arr)
            .into_iter()
            .flatten()
            .find_map(|c| find_span(c, name))
    }
    for phase in ["reconcile", "ground", "encode", "search"] {
        assert!(
            find_span(tree, phase).is_some(),
            "phase {phase:?} missing from trace: {}",
            tree.to_line()
        );
    }
    let search = find_span(tree, "search").unwrap();
    assert!(
        search.get("counters").and_then(|c| c.get("propagations")).is_some(),
        "search span must carry solver counters: {}",
        search.to_line()
    );

    // Per-op latency histogram summaries in stats.
    let stats = ep.roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(10))).unwrap();
    let lat = stats
        .result
        .get("latency")
        .and_then(|l| l.get("reconcile"))
        .expect("reconcile latency");
    let n = |k: &str| lat.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(n("count"), 1, "one reconcile was served: {}", lat.to_line());
    assert!(n("p50_us") >= 1 && n("p50_us") <= n("p99_us"), "{}", lat.to_line());
    assert!(n("p99_us") >= solved.elapsed_us, "a bucket bound never underestimates");
    handle.stop();
    handle.wait();
}

#[test]
fn warm_sessions_reuse_encoded_groups_across_requests() {
    let (handle, path) = start("warm", 2);
    let ep = Endpoint::Unix(path);
    // Two reconciles of the same spec with different modes: the second
    // must reuse the warm session's encoded groups rather than
    // re-grounding from scratch.
    let mut hard = Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict());
    hard.mode = Some("hard".into());
    let mut blame = Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict());
    blame.mode = Some("blameable".into());
    let r1 = ep.roundtrip(&hard, Some(Duration::from_secs(30))).unwrap();
    let r2 = ep.roundtrip(&blame, Some(Duration::from_secs(30))).unwrap();
    assert!(r1.ok && r2.ok);
    assert!(!r2.cached, "different mode is a different result key");
    let stats = ep
        .roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(10)))
        .unwrap();
    let reused = stats
        .result
        .get("warm_groups")
        .and_then(|w| w.get("reused"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(reused > 0, "second reconcile must reuse warm groups");
    handle.stop();
    handle.wait();
}

#[test]
fn cli_serve_and_client_subprocesses() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("muppetd-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("d.sock");
    let spec = SessionSpec::paper_strict();
    let manifests = dir.join("m.yaml");
    let k8s = dir.join("k8s.csv");
    let istio = dir.join("istio.csv");
    std::fs::File::create(&manifests)
        .unwrap()
        .write_all(spec.manifests.as_bytes())
        .unwrap();
    std::fs::File::create(&k8s).unwrap().write_all(spec.k8s_goals.as_bytes()).unwrap();
    std::fs::File::create(&istio)
        .unwrap()
        .write_all(spec.istio_goals.as_bytes())
        .unwrap();

    let cli = env!("CARGO_BIN_EXE_muppet-cli");
    let mut server = Command::new(cli)
        .args(["serve", "--socket", sock.to_str().unwrap(), "--workers", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // Wait for the socket to accept connections.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if sock.exists()
            && Endpoint::Unix(sock.clone())
                .roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(5)))
                .is_ok()
        {
            break;
        }
        assert!(Instant::now() < deadline, "daemon did not come up");
        thread::sleep(Duration::from_millis(50));
    }

    // Strict goals conflict → the client maps success=false to exit 1.
    let out = Command::new(cli)
        .args([
            "client",
            "reconcile",
            "--socket",
            sock.to_str().unwrap(),
            "--manifests",
            manifests.to_str().unwrap(),
            "--k8s-goals",
            k8s.to_str().unwrap(),
            "--istio-goals",
            istio.to_str().unwrap(),
        ])
        .output()
        .expect("run client");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let line = String::from_utf8_lossy(&out.stdout);
    let resp = muppet_daemon::Response::from_line(line.trim()).expect("client prints JSON");
    assert!(resp.ok);
    assert_eq!(resp.result.get("success").and_then(Json::as_bool), Some(false));

    // stats over the CLI: exit 0.
    let out = Command::new(cli)
        .args(["client", "stats", "--socket", sock.to_str().unwrap()])
        .output()
        .expect("run client stats");
    assert_eq!(out.status.code(), Some(0));

    // shutdown stops the server process.
    let out = Command::new(cli)
        .args(["client", "shutdown", "--socket", sock.to_str().unwrap()])
        .output()
        .expect("run client shutdown");
    assert_eq!(out.status.code(), Some(0));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match server.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "serve exited with {status}");
                break;
            }
            None if Instant::now() >= deadline => {
                let _ = server.kill();
                panic!("serve did not exit after shutdown");
            }
            None => thread::sleep(Duration::from_millis(50)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that disconnects mid-solve must have its request cancelled
/// (the reader thread's per-request `CancelToken` sits in the solve's
/// budget, so one `cancel()` stops the solve). Uncancelled, the
/// 80-service scenario below takes about 45 s in a debug build on a
/// 2-vCPU host, more than half of it laying out the free-tuple
/// variables, which polls the budget like grounding and search do.
/// The worker must come back promptly, and the result cache must stay
/// empty: only a definite answer is cached, so an empty cache proves
/// the solve was cut short rather than finished. Also checks the queue
/// accounting: the request holds exactly one in-flight slot. The
/// request line carries a legacy `"threads": 4` field, which the daemon
/// accepts and ignores.
#[test]
fn client_disconnect_cancels_in_flight_solve() {
    use muppet_scenario::{generate, ScenarioParams};
    let sc = generate(ScenarioParams {
        services: 80,
        istio_goals: 48,
        k8s_goals: 4,
        conflict_fraction: 0.0,
        flexible_fraction: 0.3,
        extra_ports: 8,
        ..ScenarioParams::default()
    });
    let (manifests, k8s_goals, istio_goals, extra_ports) = sc.wire_content();
    let spec = SessionSpec {
        manifests,
        k8s_goals,
        istio_goals,
        mtls: false,
        extra_ports,
        ..SessionSpec::default()
    };
    let (handle, path) = start("kill", 2);
    let mut req = Request::new(Op::Reconcile).with_spec(spec).to_json();
    if let Json::Obj(pairs) = &mut req {
        pairs.push(("threads".into(), Json::num(4)));
    }
    let mut victim = Endpoint::Unix(path.clone())
        .connect(Some(Duration::from_secs(60)))
        .unwrap();
    victim.send_raw(&req.to_line()).unwrap();
    let ep = Endpoint::Unix(path);
    // Stats polling must itself survive a saturated host (the full
    // suite runs many test binaries at once): retry transient
    // timeouts until the caller's deadline.
    let poll_stats = |deadline: Instant| loop {
        match ep.roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(10))) {
            Ok(stats) => break stats,
            Err(e) => {
                assert!(Instant::now() < deadline, "stats roundtrip kept failing: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    };
    // Wait for a worker to pick the job up. Generous: on a saturated
    // single-core host, scenario generation, the large request line and
    // the debug-build JSON parse can all crawl.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = poll_stats(deadline);
        let busy = stats.result.get("in_flight").and_then(Json::as_u64).unwrap();
        if busy >= 1 {
            // One request, one slot.
            assert_eq!(busy, 1, "the request must count as one slot");
            break;
        }
        assert!(Instant::now() < deadline, "solve never started");
        thread::sleep(Duration::from_millis(10));
    }
    // Kill the client mid-solve.
    drop(victim);
    // The worker must come back promptly: budget cancellation polls run
    // between solver propagations and between group encodings, and the
    // reader's EOF handler fires within one read. 15 s absorbs CI noise;
    // the cache check below is what proves the solve was cut short.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = poll_stats(deadline);
        let busy = stats.result.get("in_flight").and_then(Json::as_u64).unwrap();
        if busy == 0 {
            let depth = stats.result.get("queue_depth").and_then(Json::as_u64).unwrap();
            assert_eq!(depth, 0, "queue slot must be released");
            let cached = stats.result.get("cache").and_then(|c| c.get("entries"));
            assert_eq!(
                cached.and_then(Json::as_u64),
                Some(0),
                "the cancelled solve must not have run to a definite answer"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect did not cancel the in-flight solve"
        );
        thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
    handle.wait();
}

/// Streaming watch over a real socket: one connection opens a watch and
/// pushes deltas, a second subscribes, and a verdict-flipping delta
/// arrives at the subscriber as an unsolicited `"event"` line while
/// neutral deltas stay silent.
#[test]
fn watch_subscribers_get_verdict_flip_events() {
    let (handle, path) = start("watch", 2);
    let ep = Endpoint::Unix(path);
    let mut pusher = ep.connect(Some(Duration::from_secs(60))).unwrap();
    let opened = pusher
        .roundtrip(&Request::new(Op::Watch).with_spec(SessionSpec::paper_relaxed()))
        .unwrap();
    assert!(opened.ok, "{:?}", opened.error);
    let id = opened
        .result
        .get("watch")
        .and_then(Json::as_str)
        .expect("watch id")
        .to_string();
    assert!(opened
        .result
        .get("initial")
        .and_then(|i| i.get("verdict"))
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("sat"));

    let mut subscriber = ep.connect(Some(Duration::from_secs(60))).unwrap();
    let mut sub = Request::new(Op::Subscribe);
    sub.watch = Some(id.clone());
    let s = subscriber.roundtrip(&sub).unwrap();
    assert!(s.ok, "{:?}", s.error);

    // Re-upserting the ban row that is already present changes nothing:
    // no dirtied groups, no flip — and therefore no event line.
    let mut push = Request::new(Op::PushDelta);
    push.watch = Some(id.clone());
    push.delta = Some("upsert-ban 23 *".into());
    let quiet = pusher.roundtrip(&push).unwrap();
    assert!(quiet.ok, "{:?}", quiet.error);
    assert_eq!(quiet.result.get("flipped").and_then(Json::as_bool), Some(false));

    // Banning a port a concrete goal row needs flips the verdict; the
    // subscriber's next line must be that event (nothing was pushed for
    // the quiet delta before it).
    push.delta = Some("upsert-ban 16000 *".into());
    let flip = pusher.roundtrip(&push).unwrap();
    assert!(flip.ok, "{:?}", flip.error);
    assert_eq!(flip.result.get("flipped").and_then(Json::as_bool), Some(true));
    let line = subscriber.recv_line().expect("event line");
    let event = muppet_daemon::json::parse(line.trim()).expect("event parses");
    assert_eq!(event.get("event").and_then(Json::as_str), Some("verdict_flip"));
    assert_eq!(event.get("watch").and_then(Json::as_str), Some(id.as_str()));
    assert!(event
        .get("verdict")
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("unsat"));

    // unwatch tears the stream down; further pushes error.
    let mut un = Request::new(Op::Unwatch);
    un.watch = Some(id.clone());
    assert!(pusher.roundtrip(&un).unwrap().ok);
    let gone = pusher.roundtrip(&push).unwrap();
    assert!(!gone.ok, "push after unwatch must error");
    handle.stop();
    handle.wait();
}

/// `watch` derives its universe as `open_session` does: a port that
/// only a deployed policy names (8080 here) is in both, so the stream's
/// initial verdict and `reconcile` agree. With 80 banned, `a` reaches
/// `b` only if `b` may listen on 8080.
#[test]
fn watch_and_reconcile_agree_on_policy_ports() {
    let (handle, path) = start("watch-universe", 1);
    let ep = Endpoint::Unix(path);
    let spec = SessionSpec {
        manifests: "\
apiVersion: v1
kind: Service
metadata:
  name: a
spec:
  ports:
  - port: 80
---
apiVersion: v1
kind: Service
metadata:
  name: b
spec:
  ports:
  - port: 80
---
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: allow-8080
spec:
  podSelector: {}
  ingress:
  - ports:
    - port: 8080
"
        .to_string(),
        k8s_goals: "port,perm,selector\n80,DENY,*\n".to_string(),
        istio_goals: "srcService,dstService,srcPort,dstPort\na,b,?w,?x\n".to_string(),
        ..SessionSpec::default()
    };
    let t = Some(Duration::from_secs(60));
    let rec = ep.roundtrip(&Request::new(Op::Reconcile).with_spec(spec.clone()), t).unwrap();
    assert!(rec.ok, "{:?}", rec.error);
    let watched = ep.roundtrip(&Request::new(Op::Watch).with_spec(spec), t).unwrap();
    assert!(watched.ok, "{:?}", watched.error);
    let verdict = watched
        .result
        .get("initial")
        .and_then(|i| i.get("verdict"))
        .and_then(Json::as_str)
        .expect("initial verdict");
    assert_eq!(rec.result.get("success").and_then(Json::as_bool), Some(true));
    assert!(verdict.starts_with("sat"), "watch: {verdict:.200}");
    handle.stop();
    handle.wait();
}

/// Verdicts from the daemon must be identical whether served cold,
/// warm, or from cache — spot-checked here over the socket; the
/// exhaustive randomized version lives in `daemon_cache_props.rs`.
#[test]
fn repeat_requests_are_cached_and_identical() {
    let (handle, path) = start("cached", 2);
    let ep = Endpoint::Unix(path);
    let req = Request::new(Op::CheckConformance).with_spec(SessionSpec::paper_relaxed());
    let cold = ep.roundtrip(&req, Some(Duration::from_secs(30))).unwrap();
    assert!(cold.ok && !cold.cached);
    let warm = ep.roundtrip(&req, Some(Duration::from_secs(30))).unwrap();
    assert!(warm.ok && warm.cached);
    assert_eq!(cold.result.to_line(), warm.result.to_line());
    // Oracle parity.
    let want = oracle();
    assert_eq!(
        cold.result.get("success").and_then(Json::as_bool),
        Some(want.conformance_success)
    );
    handle.stop();
    handle.wait();
}
