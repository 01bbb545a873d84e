//! The versioned JSON-Lines wire protocol.
//!
//! One request per line, one response per line. Every message carries
//! `"v": 1`; a server receiving a higher version answers with an error
//! instead of guessing. Requests name an operation (`op`) and address a
//! session either inline (`spec`, the full content) or by handle
//! (`session`, the spec fingerprint in hex returned by `open_session`).
//! Budgets ride on the wire: `timeout_ms` starts a per-request
//! deadline, `conflict_budget`/`retries` configure the escalation
//! schedule, and client disconnect cancels in-flight work through the
//! session's `CancelToken`.

use crate::json::{parse, Json};
use crate::spec::SessionSpec;

/// Protocol version this daemon speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// The operations `muppetd` answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load (or look up) a warm session for a spec; returns its handle.
    OpenSession,
    /// Alg. 1 for one party.
    CheckConsistency,
    /// Alg. 2 across all parties.
    Reconcile,
    /// Alg. 3: extract an envelope toward `to`.
    ExtractEnvelope,
    /// The Fig. 7/8 conformance workflow.
    CheckConformance,
    /// A bounded Fig. 9 negotiation.
    NegotiateRound,
    /// Daemon counters: cache hit rate, queue depth, latencies.
    Stats,
    /// The last N completed span trees (observability), as JSON.
    Trace,
    /// Open a streaming-reconfiguration watch over a spec: the daemon
    /// keeps a warm multi-shot [`muppet_stream::StreamSession`] alive
    /// and returns a watch id for `push_delta`/`subscribe`/`unwatch`.
    Watch,
    /// Apply one config delta line to a watch and re-solve warm.
    PushDelta,
    /// Mark this connection as a subscriber of a watch: verdict-flip
    /// notifications are pushed to it as unsolicited JSON lines.
    Subscribe,
    /// Tear down a watch and drop its warm solver state.
    Unwatch,
    /// Stop accepting work and shut the daemon down.
    Shutdown,
}

impl Op {
    /// Parse a wire operation name.
    pub fn parse(name: &str) -> Option<Op> {
        Some(match name {
            "open_session" => Op::OpenSession,
            "check_consistency" => Op::CheckConsistency,
            "reconcile" => Op::Reconcile,
            "extract_envelope" => Op::ExtractEnvelope,
            "check_conformance" => Op::CheckConformance,
            "negotiate_round" => Op::NegotiateRound,
            "stats" => Op::Stats,
            "trace" => Op::Trace,
            "watch" => Op::Watch,
            "push_delta" => Op::PushDelta,
            "subscribe" => Op::Subscribe,
            "unwatch" => Op::Unwatch,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// True when a client may safely re-send this op after a transport
    /// failure where the outcome is unknown (connection dropped after
    /// the request was written). Every op except `shutdown` is either
    /// read-only (`stats`, `trace`) or fingerprint-keyed — its answer
    /// is a pure function of the request content — so running it twice
    /// cannot change any outcome. `shutdown` is excluded: re-sending it
    /// to a freshly restarted daemon would take that instance down too.
    ///
    /// Note this gate only applies to ambiguous transport failures.
    /// An `overloaded` shed response means the daemon never started
    /// the work, so retrying after one is safe for *every* op.
    ///
    /// The streaming ops break the pure-function property: `watch`
    /// mints a fresh watch id per call (a blind retry would leak a
    /// second warm session) and `push_delta` advances a watch's edit
    /// sequence (re-applying an `add-service` fails as a duplicate and
    /// a re-applied goal edit double-advances the stream), so both are
    /// excluded alongside `shutdown`. `subscribe`/`unwatch` are
    /// idempotent on their watch id and stay retry-safe.
    pub fn safe_to_retry(&self) -> bool {
        !matches!(self, Op::Shutdown | Op::Watch | Op::PushDelta)
    }

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::OpenSession => "open_session",
            Op::CheckConsistency => "check_consistency",
            Op::Reconcile => "reconcile",
            Op::ExtractEnvelope => "extract_envelope",
            Op::CheckConformance => "check_conformance",
            Op::NegotiateRound => "negotiate_round",
            Op::Stats => "stats",
            Op::Trace => "trace",
            Op::Watch => "watch",
            Op::PushDelta => "push_delta",
            Op::Subscribe => "subscribe",
            Op::Unwatch => "unwatch",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// The operation.
    pub op: Op,
    /// Inline session content (alternative to `session`).
    pub spec: Option<SessionSpec>,
    /// Session handle from a previous `open_session` (hex fingerprint).
    pub session: Option<String>,
    /// `check_consistency`: which party (`"k8s"` / `"istio"`).
    pub party: Option<String>,
    /// `reconcile`: `"hard"` (default) or `"blameable"`.
    pub mode: Option<String>,
    /// `extract_envelope`: recipient (`"istio"` default, or `"k8s"`).
    pub to: Option<String>,
    /// `check_conformance`: provider party (default `"k8s"`).
    pub provider: Option<String>,
    /// `negotiate_round`: max rounds (default 4).
    pub max_rounds: Option<u64>,
    /// Per-request wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Solver conflict cap per attempt.
    pub conflict_budget: Option<u64>,
    /// Solve attempts (Luby-escalated conflict caps).
    pub retries: Option<u32>,
    /// `trace`: how many recent span trees to return (default 8).
    pub n: Option<u64>,
    /// `push_delta`/`subscribe`/`unwatch`: the watch id from `watch`.
    pub watch: Option<String>,
    /// `push_delta`: one config delta line (the `muppet-scenario`
    /// [`ConfigDelta`](muppet_scenario::ConfigDelta) text codec).
    pub delta: Option<String>,
}

impl Request {
    /// A bare request for `op` (builder-style fields are public).
    pub fn new(op: Op) -> Request {
        Request {
            id: None,
            op,
            spec: None,
            session: None,
            party: None,
            mode: None,
            to: None,
            provider: None,
            max_rounds: None,
            timeout_ms: None,
            conflict_budget: None,
            retries: None,
            n: None,
            watch: None,
            delta: None,
        }
    }

    /// Attach an inline spec.
    pub fn with_spec(mut self, spec: SessionSpec) -> Request {
        self.spec = Some(spec);
        self
    }

    /// Parse one request line. Errors are human-readable strings (they
    /// go straight into the error response).
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = parse(line)?;
        Request::from_json(&v)
    }

    /// Parse a request from an already-parsed JSON value.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("request must be a JSON object".to_string());
        }
        match v.get("v").and_then(Json::as_u64) {
            Some(ver) if ver == PROTOCOL_VERSION => {}
            Some(ver) => return Err(format!("unsupported protocol version {ver}")),
            None => return Err("missing protocol version field \"v\"".to_string()),
        }
        let op_name = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"op\"".to_string())?;
        let op = Op::parse(op_name).ok_or_else(|| format!("unknown op {op_name:?}"))?;
        let spec = match v.get("spec") {
            None | Some(Json::Null) => None,
            Some(s) => Some(SessionSpec::from_json(s)?),
        };
        let str_field = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        let num_field = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be a non-negative integer")),
            }
        };
        Ok(Request {
            id: str_field("id"),
            op,
            spec,
            session: str_field("session"),
            party: str_field("party"),
            mode: str_field("mode"),
            to: str_field("to"),
            provider: str_field("provider"),
            max_rounds: num_field("max_rounds")?,
            timeout_ms: num_field("timeout_ms")?,
            conflict_budget: num_field("conflict_budget")?,
            retries: num_field("retries")?.map(|n| n.min(u64::from(u32::MAX)) as u32),
            n: num_field("n")?,
            watch: str_field("watch"),
            delta: str_field("delta"),
        })
    }

    /// Serialize for the wire (used by the client side).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("v".into(), Json::num(PROTOCOL_VERSION)),
            ("op".into(), Json::str(self.op.name())),
        ];
        let mut put_str = |key: &str, val: &Option<String>| {
            if let Some(s) = val {
                pairs.push((key.to_string(), Json::str(s)));
            }
        };
        put_str("id", &self.id);
        put_str("session", &self.session);
        put_str("party", &self.party);
        put_str("mode", &self.mode);
        put_str("to", &self.to);
        put_str("provider", &self.provider);
        put_str("watch", &self.watch);
        put_str("delta", &self.delta);
        if let Some(spec) = &self.spec {
            pairs.push(("spec".into(), spec.to_json()));
        }
        for (key, val) in [
            ("max_rounds", self.max_rounds),
            ("timeout_ms", self.timeout_ms),
            ("conflict_budget", self.conflict_budget),
            ("n", self.n),
        ] {
            if let Some(n) = val {
                pairs.push((key.to_string(), Json::num(n)));
            }
        }
        if let Some(r) = self.retries {
            pairs.push(("retries".into(), Json::num(u64::from(r))));
        }
        Json::Obj(pairs)
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }
}

/// A response line.
#[derive(Clone, Debug)]
pub struct Response {
    /// Echo of the request's correlation id.
    pub id: Option<String>,
    /// Did the operation run? (`false` ⇒ see `error`.)
    pub ok: bool,
    /// Operation-specific result object (null on error).
    pub result: Json,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Was the result served from the content-addressed cache?
    pub cached: bool,
    /// The session handle the request resolved to, when any.
    pub session: Option<String>,
    /// Server-side handling time in microseconds.
    pub elapsed_us: u64,
    /// True when the daemon shed this request under admission control
    /// or drain instead of running it (wire: `"status":"overloaded"`).
    /// The work never started, so re-sending is always safe.
    pub overloaded: bool,
    /// Backoff hint accompanying an overloaded response: how long the
    /// client should wait before retrying, in milliseconds.
    pub retry_after_ms: Option<u64>,
}

impl Response {
    /// A success response.
    pub fn success(id: Option<String>, result: Json) -> Response {
        Response {
            id,
            ok: true,
            result,
            error: None,
            cached: false,
            session: None,
            elapsed_us: 0,
            overloaded: false,
            retry_after_ms: None,
        }
    }

    /// An error response.
    pub fn failure(id: Option<String>, error: impl Into<String>) -> Response {
        Response {
            id,
            ok: false,
            result: Json::Null,
            error: Some(error.into()),
            cached: false,
            session: None,
            elapsed_us: 0,
            overloaded: false,
            retry_after_ms: None,
        }
    }

    /// A shed response: the daemon refused to queue the request
    /// (admission limit hit, or the server is draining) and hints when
    /// to retry. Never cached, never executed.
    pub fn overloaded(
        id: Option<String>,
        reason: impl Into<String>,
        retry_after_ms: u64,
    ) -> Response {
        Response {
            id,
            ok: false,
            result: Json::Null,
            error: Some(reason.into()),
            cached: false,
            session: None,
            elapsed_us: 0,
            overloaded: true,
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs: Vec<(String, Json)> = vec![
            ("v".into(), Json::num(PROTOCOL_VERSION)),
            ("ok".into(), Json::Bool(self.ok)),
        ];
        if let Some(id) = &self.id {
            pairs.push(("id".into(), Json::str(id)));
        }
        if let Some(e) = &self.error {
            pairs.push(("error".into(), Json::str(e)));
        }
        if self.overloaded {
            pairs.push(("status".into(), Json::str("overloaded")));
        }
        if let Some(ms) = self.retry_after_ms {
            pairs.push(("retry_after_ms".into(), Json::num(ms)));
        }
        pairs.push(("cached".into(), Json::Bool(self.cached)));
        if let Some(s) = &self.session {
            pairs.push(("session".into(), Json::str(s)));
        }
        pairs.push(("elapsed_us".into(), Json::num(self.elapsed_us)));
        pairs.push(("result".into(), self.result.clone()));
        Json::Obj(pairs).to_line()
    }

    /// Parse a response line (client side).
    pub fn from_line(line: &str) -> Result<Response, String> {
        let v = parse(line)?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "response missing \"ok\"".to_string())?;
        Ok(Response {
            id: v.get("id").and_then(Json::as_str).map(str::to_string),
            ok,
            result: v.get("result").cloned().unwrap_or(Json::Null),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            session: v.get("session").and_then(Json::as_str).map(str::to_string),
            elapsed_us: v.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0),
            // Lenient on the extended fields: an absent or ill-typed
            // `status`/`retry_after_ms` degrades to "not overloaded" /
            // "no hint" instead of failing the whole line, so old
            // servers and adversarial peers both parse cleanly.
            overloaded: v.get("status").and_then(Json::as_str) == Some("overloaded"),
            retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict());
        req.id = Some("r-7".into());
        req.mode = Some("blameable".into());
        req.timeout_ms = Some(500);
        req.retries = Some(3);
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back.op, Op::Reconcile);
        assert_eq!(back.id.as_deref(), Some("r-7"));
        assert_eq!(back.mode.as_deref(), Some("blameable"));
        assert_eq!(back.timeout_ms, Some(500));
        assert_eq!(back.retries, Some(3));
        assert_eq!(back.spec.unwrap(), SessionSpec::paper_strict());
    }

    #[test]
    fn threads_field_is_accepted_and_ignored() {
        let plain = r#"{"v":1,"op":"reconcile","id":"r-1","timeout_ms":500}"#;
        let with_threads = r#"{"v":1,"op":"reconcile","id":"r-1","timeout_ms":500,"threads":4}"#;
        assert_eq!(
            Request::from_line(with_threads).unwrap(),
            Request::from_line(plain).unwrap()
        );
    }

    #[test]
    fn version_is_enforced() {
        assert!(Request::from_line(r#"{"op":"stats"}"#)
            .unwrap_err()
            .contains("version"));
        assert!(Request::from_line(r#"{"v":99,"op":"stats"}"#)
            .unwrap_err()
            .contains("version"));
        assert!(Request::from_line(r#"{"v":1,"op":"dance"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::from_line("[1,2]").is_err());
    }

    #[test]
    fn response_roundtrip() {
        let mut r = Response::success(Some("x".into()), Json::obj([("n", Json::num(3))]));
        r.cached = true;
        r.session = Some("abc".into());
        r.elapsed_us = 1234;
        let back = Response::from_line(&r.to_line()).unwrap();
        assert!(back.ok && back.cached);
        assert_eq!(back.id.as_deref(), Some("x"));
        assert_eq!(back.session.as_deref(), Some("abc"));
        assert_eq!(back.elapsed_us, 1234);
        assert_eq!(back.result.get("n").and_then(Json::as_u64), Some(3));
        let e = Response::from_line(&Response::failure(None, "boom").to_line()).unwrap();
        assert!(!e.ok);
        assert_eq!(e.error.as_deref(), Some("boom"));
    }

    #[test]
    fn overloaded_roundtrip() {
        let r = Response::overloaded(Some("q-1".into()), "queue full", 75);
        let line = r.to_line();
        assert!(line.contains("\"status\":\"overloaded\""));
        assert!(line.contains("\"retry_after_ms\":75"));
        let back = Response::from_line(&line).unwrap();
        assert!(!back.ok && back.overloaded && !back.cached);
        assert_eq!(back.id.as_deref(), Some("q-1"));
        assert_eq!(back.retry_after_ms, Some(75));
        assert_eq!(back.error.as_deref(), Some("queue full"));
        // Ordinary responses carry neither field on the wire.
        let ok_line = Response::success(None, Json::Null).to_line();
        assert!(!ok_line.contains("status") && !ok_line.contains("retry_after_ms"));
        let ok = Response::from_line(&ok_line).unwrap();
        assert!(!ok.overloaded && ok.retry_after_ms.is_none());
    }

    #[test]
    fn malformed_overload_fields_degrade_gracefully() {
        // status with the wrong type, or an unknown value, is "not
        // overloaded" — never a parse failure, never a panic.
        for line in [
            r#"{"v":1,"ok":false,"status":7,"retry_after_ms":5,"result":null}"#,
            r#"{"v":1,"ok":false,"status":"draining-ish","result":null}"#,
            r#"{"v":1,"ok":false,"status":null,"result":null}"#,
        ] {
            let r = Response::from_line(line).unwrap();
            assert!(!r.overloaded, "{line}");
        }
        // retry_after_ms must be a non-negative integer to be honored;
        // strings, negatives and floats degrade to "no hint".
        for line in [
            r#"{"v":1,"ok":false,"status":"overloaded","retry_after_ms":"soon","result":null}"#,
            r#"{"v":1,"ok":false,"status":"overloaded","retry_after_ms":-3,"result":null}"#,
            r#"{"v":1,"ok":false,"status":"overloaded","retry_after_ms":1.5,"result":null}"#,
        ] {
            let r = Response::from_line(line).unwrap();
            assert!(r.overloaded && r.retry_after_ms.is_none(), "{line}");
        }
    }

    #[test]
    fn retry_safety_is_per_op() {
        for op in [
            Op::OpenSession,
            Op::CheckConsistency,
            Op::Reconcile,
            Op::ExtractEnvelope,
            Op::CheckConformance,
            Op::NegotiateRound,
            Op::Stats,
            Op::Trace,
            Op::Subscribe,
            Op::Unwatch,
        ] {
            assert!(op.safe_to_retry(), "{} must be retry-safe", op.name());
        }
        // Shutdown would take a restarted daemon down; watch would mint
        // a duplicate watch; push_delta would double-apply an edit.
        for op in [Op::Shutdown, Op::Watch, Op::PushDelta] {
            assert!(!op.safe_to_retry(), "{} must not be retry-safe", op.name());
        }
    }

    #[test]
    fn op_names_roundtrip() {
        for op in [
            Op::OpenSession,
            Op::CheckConsistency,
            Op::Reconcile,
            Op::ExtractEnvelope,
            Op::CheckConformance,
            Op::NegotiateRound,
            Op::Stats,
            Op::Trace,
            Op::Watch,
            Op::PushDelta,
            Op::Subscribe,
            Op::Unwatch,
            Op::Shutdown,
        ] {
            assert_eq!(Op::parse(op.name()), Some(op));
        }
        assert_eq!(Op::parse("nope"), None);
    }

    #[test]
    fn watch_fields_roundtrip() {
        let mut req = Request::new(Op::PushDelta);
        req.watch = Some("w-3".into());
        req.delta = Some("edit-label canary team=blue".into());
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back.op, Op::PushDelta);
        assert_eq!(back.watch.as_deref(), Some("w-3"));
        assert_eq!(back.delta.as_deref(), Some("edit-label canary team=blue"));
        // Absent fields stay absent on the wire.
        let bare = Request::new(Op::Stats).to_line();
        assert!(!bare.contains("watch") && !bare.contains("delta"));
    }
}
