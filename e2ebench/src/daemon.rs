//! A `muppet-cli serve` child process and its Unix-socket clients.
//!
//! The daemon runs under an address-space limit (`ulimit -v`), so a
//! runaway request fails inside the child instead of exhausting the
//! host. Every request carries a daemon-side `timeout_ms` and the client
//! socket a read timeout, so a hang becomes a counted failure. Requests
//! go through the daemon crate's own [`Client`] and JSON codec, the
//! same ones `muppet-cli client` uses.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use muppet_daemon::json::{parse, Json};
use muppet_daemon::{Client, Endpoint};

/// Address-space cap of the daemon child, KiB (`ulimit -v`).
pub const DAEMON_AS_LIMIT_KIB: u64 = 4 * 1024 * 1024;
/// Daemon-side budget of one request.
pub const REQUEST_TIMEOUT_MS: u64 = 30_000;
/// Client-side wait for one reply (daemon budget plus slack).
const REPLY_TIMEOUT: Duration = Duration::from_secs(45);

/// Pinned daemon configuration: 2 workers, sequential search.
const SERVE_FLAGS: &[&str] = &["--workers", "2", "--threads", "1"];

pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Start `cli serve` on `socket` (a path relative to the working
    /// directory, which keeps it under the Unix socket length limit),
    /// optionally with a `--trace-json` span sink, and wait until it
    /// accepts connections.
    pub fn start(cli: &Path, socket: &Path, trace_json: Option<&Path>) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut args: Vec<String> = vec![
            "serve".into(),
            "--socket".into(),
            socket.display().to_string(),
        ];
        args.extend(SERVE_FLAGS.iter().map(|s| s.to_string()));
        if let Some(t) = trace_json {
            args.push("--trace-json".into());
            args.push(t.display().to_string());
        }
        let child = Command::new("sh")
            .arg("-c")
            .arg(format!("ulimit -v {DAEMON_AS_LIMIT_KIB} && exec \"$0\" \"$@\""))
            .arg(cli)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                daemon.child = None;
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err("daemon did not open its socket within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let client = Endpoint::Unix(self.socket.clone()).connect(Some(REPLY_TIMEOUT))?;
        Ok(Conn(client))
    }

    /// Peak resident set of the daemon child (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The wire `spec` object for scenario wire content `(manifests, k8s
/// goals, istio goals, extra ports)`.
pub fn spec_json(content: &(String, String, String, Vec<u16>)) -> Json {
    let (manifests, k8s, istio, extras) = content;
    Json::obj([
        ("manifests", Json::str(manifests)),
        ("k8s_goals", Json::str(k8s)),
        ("istio_goals", Json::str(istio)),
        (
            "extra_ports",
            Json::Arr(extras.iter().map(|&p| Json::num(u64::from(p))).collect()),
        ),
    ])
}

/// One client connection; requests are strictly one at a time.
pub struct Conn(Client);

/// A reply and how long the client waited for it.
pub struct Reply {
    pub json: Json,
    pub latency: Duration,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.json.get("ok").and_then(Json::as_bool) == Some(true)
    }

    pub fn cached(&self) -> bool {
        self.json.get("cached").and_then(Json::as_bool) == Some(true)
    }

    pub fn result(&self) -> &Json {
        self.json.get("result").unwrap_or(&Json::Null)
    }

    /// The daemon's own time handling the request, ms.
    pub fn handled_ms(&self) -> f64 {
        self.json.get("elapsed_us").and_then(Json::as_f64).unwrap_or(0.0) / 1000.0
    }

    pub fn error(&self) -> String {
        let e = self.json.get("error").and_then(Json::as_str).unwrap_or("");
        if self.json.get("status").and_then(Json::as_str) == Some("overloaded") {
            format!("shed: {e}")
        } else {
            e.to_string()
        }
    }
}

impl Conn {
    /// Send one request (the protocol version and the per-request
    /// budget are added here) and wait for its reply.
    pub fn call(&mut self, req: Json) -> Result<Reply, String> {
        let Json::Obj(mut pairs) = req else {
            return Err("request must be an object".into());
        };
        pairs.insert(0, ("v".into(), Json::num(1)));
        pairs.push(("timeout_ms".into(), Json::num(REQUEST_TIMEOUT_MS)));
        let line = Json::Obj(pairs).to_line();
        let start = Instant::now();
        self.0.send_raw(&line)?;
        let reply = self
            .0
            .recv_line()
            .map_err(|e| format!("no reply within {REPLY_TIMEOUT:?}: {e}"))?;
        let latency = start.elapsed();
        Ok(Reply {
            json: parse(reply.trim_end())?,
            latency,
        })
    }
}

/// Replies received, their summed client latency and the summed
/// handling time the daemon reported in them (ms): what a traced run's
/// spans are checked against.
#[derive(Clone, Copy, Default)]
pub struct ReplyTimes {
    pub count: usize,
    pub client_ms: f64,
    pub handled_ms: f64,
}

impl ReplyTimes {
    pub fn note(&mut self, reply: &Reply) {
        self.count += 1;
        self.client_ms += reply.latency.as_secs_f64() * 1000.0;
        self.handled_ms += reply.handled_ms();
    }

    pub fn add(&mut self, other: ReplyTimes) {
        self.count += other.count;
        self.client_ms += other.client_ms;
        self.handled_ms += other.handled_ms;
    }
}

/// The value at `path` inside nested objects.
pub fn at<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, k| j.get(k))
}
