//! Overload-robustness tests for `muppetd` (DESIGN.md §14): bounded
//! admission, load shedding with retry hints, the server-side read
//! timeout (slow-loris), graceful drain, and the client retry path.
//!
//! These run a real server on a real Unix socket with deliberately
//! tiny limits, so test-sized bursts genuinely trip admission control.

use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use muppet_daemon::json::Json;
use muppet_daemon::{
    serve, Endpoint, Op, OverloadConfig, Request, RetryPolicy, ServerConfig, SessionSpec,
};

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("muppetd-ov-{}-{name}.sock", std::process::id()))
}

fn start(
    name: &str,
    workers: usize,
    overload: OverloadConfig,
) -> (muppet_daemon::ServerHandle, PathBuf) {
    let path = socket_path(name);
    let _ = std::fs::remove_file(&path);
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

/// A spec whose fingerprint no other test shares: distinct extra ports
/// force a cold solve instead of a cache hit, so requests genuinely
/// occupy the queue.
fn fresh_spec(port: u16) -> SessionSpec {
    let mut s = SessionSpec::paper_relaxed();
    s.extra_ports.push(port);
    s
}

/// With a single worker and a queue bound of 1, a pipelined burst of
/// cold solves must shed deterministically: at most (1 running + 1
/// queued) are admitted at any instant, every other request gets an
/// `overloaded` response carrying the configured retry hint, and every
/// request — admitted or shed — is answered exactly once.
#[test]
fn queue_full_sheds_with_retry_hint_and_answers_everything() {
    let overload = OverloadConfig {
        max_queue_depth: 1,
        max_inflight_per_conn: 64,
        retry_after_ms: 123,
        ..OverloadConfig::default()
    };
    let (handle, path) = start("qfull", 1, overload);
    let mut client = Endpoint::Unix(path).connect(Some(Duration::from_secs(60))).unwrap();
    const N: usize = 8;
    for k in 0..N {
        let mut req = Request::new(Op::CheckConformance).with_spec(fresh_spec(30_000 + k as u16));
        req.id = Some(format!("q-{k}"));
        client.send(&req).unwrap();
    }
    let mut ids: std::collections::BTreeSet<String> =
        (0..N).map(|k| format!("q-{k}")).collect();
    let mut shed = 0usize;
    let mut served = 0usize;
    for _ in 0..N {
        let resp = client.recv().expect("every pipelined request gets a response");
        assert!(ids.remove(resp.id.as_deref().unwrap()), "duplicate or unknown id");
        if resp.overloaded {
            shed += 1;
            assert!(!resp.ok);
            assert_eq!(resp.retry_after_ms, Some(123), "shed must carry the configured hint");
            assert!(resp.error.as_deref().unwrap_or("").contains("overloaded"));
        } else {
            served += 1;
            assert!(resp.ok, "admitted request failed: {:?}", resp.error);
        }
    }
    assert!(ids.is_empty(), "unanswered requests: {ids:?}");
    // The reader sheds while a cold solve occupies the single worker
    // and another fills the queue; with 8 near-instant sends at least
    // one must bounce, and at least one must be served.
    assert!(shed >= 1, "burst of {N} cold solves never tripped the queue bound");
    assert!(served >= 1, "admission control must not shed everything");

    // Shed accounting is visible over the wire.
    let stats = Endpoint::Unix(socket_path("qfull"))
        .roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(10)))
        .expect("stats");
    let total = stats
        .result
        .get("overload")
        .and_then(|o| o.get("shed"))
        .and_then(|s| s.get("total"))
        .and_then(Json::as_u64)
        .expect("overload.shed.total in stats");
    assert!(total >= shed as u64);
    handle.stop();
    handle.wait();
}

/// The per-connection cap sheds pipelined requests beyond it even when
/// the global queue has room, and only for that connection.
#[test]
fn per_connection_cap_sheds_independently_of_queue() {
    let overload = OverloadConfig {
        max_queue_depth: 64,
        max_inflight_per_conn: 1,
        retry_after_ms: 7,
        ..OverloadConfig::default()
    };
    let (handle, path) = start("conncap", 1, overload);
    // Park cold work from connection A so the single worker is busy
    // and connection B's admitted request stays in flight.
    let mut parker = Endpoint::Unix(path.clone()).connect(Some(Duration::from_secs(60))).unwrap();
    parker.send(&Request::new(Op::CheckConformance).with_spec(fresh_spec(31_000))).unwrap();

    let mut b = Endpoint::Unix(path.clone()).connect(Some(Duration::from_secs(60))).unwrap();
    const N: usize = 4;
    for k in 0..N {
        let mut req = Request::new(Op::CheckConformance).with_spec(fresh_spec(31_100 + k as u16));
        req.id = Some(format!("b-{k}"));
        b.send(&req).unwrap();
    }
    let mut shed = 0usize;
    for _ in 0..N {
        let resp = b.recv().expect("pipelined request answered");
        if resp.overloaded {
            shed += 1;
            assert_eq!(resp.retry_after_ms, Some(7));
            assert!(resp.error.as_deref().unwrap_or("").contains("connection"));
        }
    }
    // Cap 1 with the worker parked: the 2nd..Nth lines arrive while
    // B's first request is still queued behind the parked solve.
    assert!(shed >= 1, "per-connection cap never tripped");
    // A fresh connection is unaffected by B's cap.
    let ok = Endpoint::Unix(path)
        .roundtrip(&Request::new(Op::Stats), Some(Duration::from_secs(10)))
        .expect("fresh connection served");
    assert!(ok.ok);
    let conn_cap = ok
        .result
        .get("overload")
        .and_then(|o| o.get("shed"))
        .and_then(|s| s.get("conn_cap"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(conn_cap >= shed as u64, "conn-cap sheds must be attributed in stats");
    let _ = parker.recv();
    handle.stop();
    handle.wait();
}

/// Slow-loris regression: a connection that writes half a request line
/// and stalls must be killed at the read timeout (with a diagnostic
/// response), while a connection that is merely *idle between requests*
/// for longer than the timeout stays usable.
#[test]
fn stalled_mid_line_is_killed_but_idle_connections_survive() {
    let overload = OverloadConfig {
        read_timeout_ms: 200,
        ..OverloadConfig::default()
    };
    let (handle, path) = start("loris", 1, overload);

    // Idle-but-honest client: silent for 3x the read timeout, then a
    // complete request. Must be served.
    let mut idle = Endpoint::Unix(path.clone()).connect(Some(Duration::from_secs(10))).unwrap();
    thread::sleep(Duration::from_millis(600));
    let resp = idle.roundtrip(&Request::new(Op::Stats)).expect("idle connection survives");
    assert!(resp.ok);

    // Slow-loris: half a line, then silence.
    use std::io::{Read as _, Write as _};
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    raw.write_all(b"{\"op\":\"stats\"").unwrap();
    raw.flush().unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t0 = Instant::now();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("server closes the stalled connection");
    let line = String::from_utf8_lossy(&buf);
    assert!(
        line.contains("read timeout"),
        "stall must be answered with a diagnostic before the close, got: {line:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "stalled connection lingered {:?}",
        t0.elapsed()
    );
    handle.stop();
    handle.wait();
}

/// Requests arriving after `stop()` are shed with a draining notice
/// rather than silently dropped, and `wait()` returns within the drain
/// deadline even with work still queued (straggler cancellation).
#[test]
fn drain_sheds_new_work_and_meets_its_deadline() {
    let overload = OverloadConfig {
        max_queue_depth: 64,
        drain_deadline_ms: 1_000,
        ..OverloadConfig::default()
    };
    let (handle, path) = start("drain", 1, overload);
    let mut client = Endpoint::Unix(path.clone()).connect(Some(Duration::from_secs(10))).unwrap();
    // Prove the connection is live before the server stops.
    assert!(client.roundtrip(&Request::new(Op::Stats)).unwrap().ok);

    // Park cold work so the drain has something to finish or cancel.
    let mut parker = Endpoint::Unix(path).connect(Some(Duration::from_secs(60))).unwrap();
    for k in 0..3u16 {
        parker
            .send(&Request::new(Op::CheckConformance).with_spec(fresh_spec(32_000 + k)))
            .unwrap();
    }

    handle.stop();
    // Existing connections get a draining shed for new work.
    let mut req = Request::new(Op::Stats);
    req.id = Some("late".into());
    client.send(&req).unwrap();
    let resp = client.recv().expect("draining requests are answered, not dropped");
    assert!(resp.overloaded, "post-stop request must be shed: {:?}", resp.error);
    assert!(resp.error.as_deref().unwrap_or("").contains("draining"));

    let t0 = Instant::now();
    handle.wait();
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(1_000 + 2_000),
        "drain blew its deadline: {waited:?}"
    );
}

/// End-to-end retry: under a flood that keeps the queue full, a client
/// using `roundtrip_retry` still reaches the correct verdict, honoring
/// the server's backoff hints along the way.
#[test]
fn retrying_client_reaches_a_verdict_under_flood() {
    let overload = OverloadConfig {
        max_queue_depth: 1,
        max_inflight_per_conn: 64,
        retry_after_ms: 5,
        ..OverloadConfig::default()
    };
    let (handle, path) = start("retry", 1, overload);

    // Oracle verdict for the probe spec, computed directly on the core.
    let probe = fresh_spec(33_999);
    let warm = probe.clone().load().expect("load");
    let tenant = warm.core.model.party_id("istio").expect("party");
    let provider = warm.core.model.party_id("k8s").expect("party");
    let preferred = warm.core.deployed(tenant).expect("deployed");
    let expect = muppet::conformance::run_conformance(
        &mut warm.core.model.session(),
        provider,
        tenant,
        Some(&preferred),
    )
    .expect("conformance")
    .success;

    let stop_flood = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooder = {
        let path = path.clone();
        let stop_flood = stop_flood.clone();
        thread::spawn(move || {
            let ep = Endpoint::Unix(path);
            let mut k = 0u16;
            while !stop_flood.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(mut c) = ep.connect(Some(Duration::from_secs(10))) {
                    for _ in 0..4 {
                        let req = Request::new(Op::CheckConformance)
                            .with_spec(fresh_spec(33_000 + (k % 900)));
                        k = k.wrapping_add(1);
                        if c.send(&req).is_err() {
                            break;
                        }
                    }
                    // Read the burst back so response buffers drain.
                    for _ in 0..4 {
                        if c.recv().is_err() {
                            break;
                        }
                    }
                }
            }
        })
    };

    let policy = RetryPolicy {
        attempts: 20,
        base_delay: Duration::from_millis(2),
        deadline: Duration::from_secs(60),
        jitter_seed: Some(42),
        ..RetryPolicy::default()
    };
    let report = Endpoint::Unix(path)
        .roundtrip_retry(
            &Request::new(Op::CheckConformance).with_spec(probe),
            Some(Duration::from_secs(60)),
            &policy,
        )
        .expect("retrying client must not error out");
    stop_flood.store(true, std::sync::atomic::Ordering::Relaxed);
    flooder.join().unwrap();
    assert!(
        !report.response.overloaded,
        "20 attempts against a 4-deep flood must land eventually"
    );
    assert_eq!(
        report.response.result.get("success").and_then(Json::as_bool),
        Some(expect),
        "retried verdict must match the oracle"
    );
    handle.stop();
    handle.wait();
}

/// Shutdown is deliberately excluded from the safe-to-retry set; every
/// other operation either is read-only or keys a deterministic,
/// fingerprint-addressed computation. (The daemon relies on this for
/// the claim that shed responses are always safe to re-send.)
#[test]
fn only_shutdown_is_unsafe_to_retry() {
    for op in [
        Op::OpenSession,
        Op::CheckConsistency,
        Op::Reconcile,
        Op::ExtractEnvelope,
        Op::CheckConformance,
        Op::NegotiateRound,
        Op::Stats,
        Op::Trace,
    ] {
        assert!(op.safe_to_retry(), "{op:?} must be retryable");
    }
    assert!(!Op::Shutdown.safe_to_retry());
}
