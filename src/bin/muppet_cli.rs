//! `muppet-cli` — the tool a mesh administrator actually runs.
//!
//! Inputs are the production artifacts the paper names: Kubernetes /
//! Istio YAML manifests for structure and deployed policies, and CSV
//! goal tables (Figs. 2–4). Subcommands:
//!
//! ```text
//! muppet-cli check      --manifests m.yaml --k8s-goals k.csv --istio-goals i.csv
//!     evaluate every goal against the *deployed* configuration, with
//!     dataplane traces for the violations (fault localization)
//! muppet-cli reconcile  --manifests m.yaml --k8s-goals k.csv --istio-goals i.csv
//!     Alg. 2: can the goals be jointly satisfied? UNSAT ⇒ minimal blame
//! muppet-cli envelope   --manifests m.yaml --k8s-goals k.csv [--to k8s]
//!     Alg. 3: print E_{K8s→Istio} (or the reverse) in Alloy + English
//! muppet-cli synthesize --manifests m.yaml --k8s-goals k.csv --istio-goals i.csv
//!     synthesize and print conforming YAML policy manifests
//! muppet-cli explain    --manifests m.yaml --k8s-goals k.csv
//!     apply the envelope to the deployed configuration and print a
//!     "why not": the failing (src, dst) pairs with a verdict for every
//!     escape hatch (Sec. 7's why/why-not presentation)
//! muppet-cli gen        --scenario large-1000-sat --out dir/   (or --list)
//!     materialize a corpus scenario from `crates/scenario` into the
//!     same artifacts the subcommands above consume, plus provenance
//! ```
//!
//! Common flags: `--domain <name>` picks the registered
//! [`muppet_domain::ConfigDomain`] interpreting the inputs (default:
//! `mesh`, the paper's K8s/Istio pair; `--list-domains` shows all);
//! `--goals <file>` (repeatable, one per party slot) carries goal
//! tables for non-mesh domains; `--extra-ports 24,26,…` widens the
//! port universe (spare ports for ∃-port goals); `--mtls` enables the
//! PeerAuthentication extension where the domain supports it.

use std::process::ExitCode;

use muppet::{Budget, ReconcileMode, Reconciliation, RetryPolicy, Session};
use muppet_domain::{ConfigDomain, DomainModel};
use muppet_goals::IstioGoal;
use muppet_logic::PartyId;
use muppet_mesh::{evaluate_flow_full, Flow};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("muppet-cli: {e}");
            ExitCode::from(2)
        }
    }
}

struct Opts {
    domain: Option<String>,
    manifests: Vec<String>,
    k8s_goals: Option<String>,
    istio_goals: Option<String>,
    /// Generic per-party goal-table files, in the domain's slot order
    /// (repeatable `--goals`). Wins over the two mesh alias flags.
    goals: Vec<String>,
    extra_ports: Vec<u16>,
    mtls: bool,
    to: Option<String>,
    timeout_ms: Option<u64>,
    conflict_budget: Option<u64>,
    retries: Option<u32>,
    // Daemon-mode flags (`serve` / `client`).
    socket: Option<String>,
    tcp: Option<String>,
    workers: Option<usize>,
    cache_cap: Option<usize>,
    party: Option<String>,
    mode: Option<String>,
    max_rounds: Option<u64>,
    // Overload / robustness flags (serve side).
    max_queue_depth: Option<usize>,
    max_inflight_per_conn: Option<usize>,
    retry_after_ms: Option<u64>,
    drain_deadline_ms: Option<u64>,
    read_timeout_ms: Option<u64>,
    // Client-side backoff flags.
    retry_attempts: Option<u32>,
    retry_base_ms: Option<u64>,
    retry_deadline_ms: Option<u64>,
    no_retry: bool,
    // Observability flags.
    trace_json: Option<String>,
    trace_n: Option<u64>,
    // `gen` flags.
    scenario: Option<String>,
    seed: Option<u64>,
    out: Option<String>,
    list: bool,
    // `watch` flags.
    deltas: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        domain: None,
        manifests: Vec::new(),
        k8s_goals: None,
        istio_goals: None,
        goals: Vec::new(),
        extra_ports: Vec::new(),
        mtls: false,
        to: None,
        timeout_ms: None,
        conflict_budget: None,
        retries: None,
        socket: None,
        tcp: None,
        workers: None,
        cache_cap: None,
        party: None,
        mode: None,
        max_rounds: None,
        max_queue_depth: None,
        max_inflight_per_conn: None,
        retry_after_ms: None,
        drain_deadline_ms: None,
        read_timeout_ms: None,
        retry_attempts: None,
        retry_base_ms: None,
        retry_deadline_ms: None,
        no_retry: false,
        trace_json: None,
        trace_n: None,
        scenario: None,
        seed: None,
        out: None,
        list: false,
        deltas: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--domain" => opts.domain = Some(value("--domain")?),
            "--manifests" => opts.manifests.push(value("--manifests")?),
            "--k8s-goals" => opts.k8s_goals = Some(value("--k8s-goals")?),
            "--istio-goals" => opts.istio_goals = Some(value("--istio-goals")?),
            "--goals" => opts.goals.push(value("--goals")?),
            "--to" => opts.to = Some(value("--to")?),
            "--extra-ports" => {
                for p in value("--extra-ports")?.split(',') {
                    opts.extra_ports.push(
                        p.trim()
                            .parse()
                            .map_err(|_| format!("bad port {p:?} in --extra-ports"))?,
                    );
                }
            }
            "--mtls" => opts.mtls = true,
            "--timeout-ms" => {
                opts.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms needs a number of milliseconds".to_string())?,
                )
            }
            "--conflict-budget" => {
                opts.conflict_budget = Some(
                    value("--conflict-budget")?
                        .parse()
                        .map_err(|_| "--conflict-budget needs a conflict count".to_string())?,
                )
            }
            "--retries" => {
                opts.retries = Some(
                    value("--retries")?
                        .parse()
                        .map_err(|_| "--retries needs an attempt count".to_string())?,
                )
            }
            // Accepted for compatibility and ignored: search is
            // sequential.
            "--threads" => {
                value("--threads")?
                    .parse::<usize>()
                    .map_err(|_| "--threads needs a worker count".to_string())?;
            }
            "--socket" => opts.socket = Some(value("--socket")?),
            "--tcp" => opts.tcp = Some(value("--tcp")?),
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs a thread count".to_string())?,
                )
            }
            "--cache-cap" => {
                opts.cache_cap = Some(
                    value("--cache-cap")?
                        .parse()
                        .map_err(|_| "--cache-cap needs an entry count".to_string())?,
                )
            }
            "--max-queue-depth" => {
                opts.max_queue_depth = Some(
                    value("--max-queue-depth")?
                        .parse()
                        .map_err(|_| "--max-queue-depth needs a job count".to_string())?,
                )
            }
            "--max-inflight-per-conn" => {
                opts.max_inflight_per_conn = Some(
                    value("--max-inflight-per-conn")?
                        .parse()
                        .map_err(|_| "--max-inflight-per-conn needs a request count".to_string())?,
                )
            }
            "--retry-after-ms" => {
                opts.retry_after_ms = Some(
                    value("--retry-after-ms")?.parse().map_err(|_| {
                        "--retry-after-ms needs a number of milliseconds".to_string()
                    })?,
                )
            }
            "--drain-deadline-ms" => {
                opts.drain_deadline_ms = Some(
                    value("--drain-deadline-ms")?.parse().map_err(|_| {
                        "--drain-deadline-ms needs a number of milliseconds".to_string()
                    })?,
                )
            }
            "--read-timeout-ms" => {
                opts.read_timeout_ms = Some(
                    value("--read-timeout-ms")?.parse().map_err(|_| {
                        "--read-timeout-ms needs a number of milliseconds".to_string()
                    })?,
                )
            }
            "--retry-attempts" => {
                opts.retry_attempts = Some(
                    value("--retry-attempts")?
                        .parse()
                        .map_err(|_| "--retry-attempts needs an attempt count".to_string())?,
                )
            }
            "--retry-base-ms" => {
                opts.retry_base_ms = Some(
                    value("--retry-base-ms")?.parse().map_err(|_| {
                        "--retry-base-ms needs a number of milliseconds".to_string()
                    })?,
                )
            }
            "--retry-deadline-ms" => {
                opts.retry_deadline_ms = Some(
                    value("--retry-deadline-ms")?.parse().map_err(|_| {
                        "--retry-deadline-ms needs a number of milliseconds".to_string()
                    })?,
                )
            }
            "--no-retry" => opts.no_retry = true,
            "--trace-json" => opts.trace_json = Some(value("--trace-json")?),
            "--n" => {
                opts.trace_n = Some(
                    value("--n")?
                        .parse()
                        .map_err(|_| "--n needs a trace count".to_string())?,
                )
            }
            "--scenario" => opts.scenario = Some(value("--scenario")?),
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?,
                )
            }
            "--out" => opts.out = Some(value("--out")?),
            "--deltas" => opts.deltas = Some(value("--deltas")?),
            "--list" => opts.list = true,
            "--party" => opts.party = Some(value("--party")?),
            "--mode" => opts.mode = Some(value("--mode")?),
            "--max-rounds" => {
                opts.max_rounds = Some(
                    value("--max-rounds")?
                        .parse()
                        .map_err(|_| "--max-rounds needs a round count".to_string())?,
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// The loaded inputs of a subcommand: the wire-level spec (shared with
/// the daemon, so CLI and daemon verdicts come from one pipeline) and
/// the domain-built model.
struct Loaded {
    spec: muppet_daemon::SessionSpec,
    domain: &'static dyn ConfigDomain,
    model: DomainModel,
}

fn load(opts: &Opts) -> Result<Loaded, String> {
    let spec = inline_spec(opts)?.ok_or("at least one --manifests file is required")?;
    let (domain, model) = spec.build_model()?;
    Ok(Loaded { spec, domain, model })
}

/// A recipient party from `--to`, defaulting to the domain's slot-1
/// party (for the mesh domain: `istio`, as before).
fn to_party(l: &Loaded, opts: &Opts) -> Result<PartyId, String> {
    match &opts.to {
        Some(name) => l.model.party_id(name),
        None => l
            .model
            .parties
            .get(1)
            .map(|p| p.id)
            .ok_or_else(|| "domain has no recipient party".to_string()),
    }
}

/// The full deployed configuration: structure plus every party's
/// currently-deployed snapshot (policies and owned deployment facts).
fn deployed_all(l: &Loaded) -> Result<muppet_logic::Instance, String> {
    let mut combined = l.model.structure.clone();
    for p in &l.model.parties {
        combined = combined.union(&l.domain.deployed_snapshot(&l.model, p.id)?);
    }
    Ok(combined)
}

fn build_session<'a>(l: &'a Loaded, opts: &Opts) -> Result<Session<'a>, String> {
    let mut session = l.model.session();
    // Resource governance: the deadline (if any) starts now and covers
    // every solver query this invocation runs.
    let mut budget = Budget::unlimited();
    if let Some(t) = opts.timeout_ms {
        budget = budget.with_timeout(std::time::Duration::from_millis(t));
    }
    session.set_budget(budget);
    if opts.conflict_budget.is_some() || opts.retries.is_some() {
        session.set_retry_policy(RetryPolicy::new(
            opts.conflict_budget.unwrap_or(u64::MAX),
            opts.retries.unwrap_or(1),
        ));
    }
    Ok(session)
}

/// Print the structured report for a reconciliation that ran out of
/// budget, and the knobs that raise it. Returns the exit code.
fn report_exhausted(rec: &Reconciliation) -> ExitCode {
    let ex = rec.exhausted.as_ref().expect("caller checked");
    println!("UNKNOWN: {ex}.");
    if !rec.core.is_empty() {
        println!("Partial (unminimized) blame before exhaustion:");
        for c in &rec.core {
            println!("  - {c}");
        }
    }
    println!(
        "Raise --timeout-ms, --conflict-budget, or --retries and re-run \
         for a definite verdict."
    );
    ExitCode::from(3)
}

/// Install the observability sinks `--trace-json` asks for. Tracing
/// stays off (one relaxed load per would-be span) unless the flag is
/// given.
fn init_obs(opts: &Opts) -> Result<(), String> {
    if let Some(path) = &opts.trace_json {
        muppet_obs::set_json_sink(std::path::Path::new(path))
            .map_err(|e| format!("cannot open --trace-json {path}: {e}"))?;
        muppet_obs::set_enabled(true);
    }
    Ok(())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let prep = |rest: &[String]| -> Result<Opts, String> {
        let opts = parse_opts(rest)?;
        init_obs(&opts)?;
        Ok(opts)
    };
    let code = match cmd.as_str() {
        "domains" => {
            println!("{:<10} {:<24} parties", "name", "roles");
            for d in muppet_domain::registry() {
                println!("{:<10} {:<24} {}", d.name(), d.roles().join(", "), d.roles().len());
            }
            return Ok(ExitCode::SUCCESS);
        }
        "check" => check(&prep(rest)?),
        "reconcile" => reconcile(&prep(rest)?),
        "envelope" => envelope(&prep(rest)?),
        "explain" => explain(&prep(rest)?),
        "synthesize" => synthesize(&prep(rest)?),
        "gen" => gen_cmd(&prep(rest)?),
        "serve" => serve_cmd(&prep(rest)?),
        "watch" => watch_cmd(&prep(rest)?),
        "client" => {
            let Some((op, crest)) = rest.split_first() else {
                return Err("client needs an operation (try `muppet-cli help`)".into());
            };
            client_cmd(op, &prep(crest)?)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?} (try `muppet-cli help`)")),
    };
    // Flush any trace events buffered by the JSON-Lines sink.
    muppet_obs::clear_json_sink();
    code
}

const USAGE: &str = "\
muppet-cli — solver-aided multi-party configuration

USAGE:
  muppet-cli <check|reconcile|envelope|synthesize|explain> [flags]
  muppet-cli domains
      list the registered configuration domains and their party roles
  muppet-cli gen    --scenario <name> [--seed <n>] --out <dir> | gen --list
      materialize a corpus scenario (manifests.yaml + goal CSVs +
      scenario.json provenance; DIMACS .cnf for CNF-kind entries)
  muppet-cli serve  --socket <path> [--tcp <addr>] [--workers <n>] [--cache-cap <n>]
  muppet-cli client <op> (--socket <path> | --tcp <addr>) [flags]
      <op> ∈ open_session, check_consistency, reconcile, extract_envelope,
             check_conformance, negotiate_round, stats, trace, shutdown,
             watch, push_delta, subscribe, unwatch;
      file flags below build the inline session spec; responses are
      printed as one JSON line
  muppet-cli watch  (--socket <path> | --tcp <addr>) --manifests m.yaml
                    [--k8s-goals k.csv] [--istio-goals i.csv]
                    [--deltas edits.txt]
      streaming reconfiguration: open a watch on the daemon, subscribe
      to verdict_flip events, then replay one config delta per line
      from --deltas (or stdin) as push_delta requests; every response
      and event is printed as one JSON line, and the watch is closed
      on EOF (see `gen --scenario stream-policy-churn` for a delta file)

FLAGS:
  --domain <name>        registered domain interpreting the inputs
                         (default: mesh; `muppet-cli domains` lists all)
  --manifests <file>     YAML manifests (repeatable): Services and any
                         deployed policy objects the domain understands
  --k8s-goals <file>     mesh CSV goal table: port, perm, selector
  --istio-goals <file>   mesh CSV goal table: srcService, dstService,
                         srcPort, dstPort
  --goals <file>         per-party goal table, repeatable in the
                         domain's slot order (wins over the two mesh
                         alias flags above)
  --extra-ports <list>   comma-separated spare ports for ∃-port goals
  --to <party>           envelope recipient, a role or display name
                         (default: the domain's slot-1 party, e.g. istio)
  --mtls                 enable the PeerAuthentication extension
  --timeout-ms <n>       wall-clock budget for all solver work (default: none)
  --conflict-budget <n>  solver conflict cap per attempt (default: none)
  --retries <n>          total solve attempts; each retry escalates the
                         conflict cap by the Luby sequence (default: 1)
  --threads <n>          accepted and ignored (search is sequential)
  --socket <path>        daemon Unix socket (serve: listen; client: connect)
  --tcp <addr>           daemon TCP address, e.g. 127.0.0.1:7878
  --workers <n>          serve: worker threads (default: 4)
  --cache-cap <n>        serve: result-cache entries (default: 1024)
  --max-queue-depth <n>  serve: pending jobs admitted before shedding
                         with status \"overloaded\" (default: 256)
  --max-inflight-per-conn <n> serve: outstanding requests per connection
                         before shedding (default: 32)
  --retry-after-ms <n>   serve: backoff hint attached to shed responses
                         (default: 50)
  --drain-deadline-ms <n> serve: graceful-drain budget on shutdown; in-flight
                         work past it is cancelled (default: 5000)
  --read-timeout-ms <n>  serve: kill connections whose request line stalls
                         mid-write for this long; 0 disables (default: 30000)
  --retry-attempts <n>   client: attempts when the daemon sheds with
                         \"overloaded\" or the connection fails (default: 5)
  --retry-base-ms <n>    client: base backoff delay, doubled per attempt
                         and floored by the server's retry_after_ms hint
                         (default: 25)
  --retry-deadline-ms <n> client: total budget across all attempts and
                         backoff sleeps (default: 30000)
  --no-retry             client: fail immediately instead of backing off
  --party <name>         client: party for check_consistency (a role
                         like k8s, or a display name)
  --mode <hard|blameable> client: reconcile mode (default: hard)
  --max-rounds <n>       client: negotiation rounds (default: 4)
  --deltas <file>        watch: config edits, one `ConfigDelta` line each
                         (`add-service`, `upsert-ban`, `upsert-goal`, …);
                         omitted = read deltas from stdin
  --scenario <name>      gen: corpus entry to materialize (gen --list shows all)
  --seed <n>             gen: override the generator seed (mesh / pup-sat kinds)
  --out <dir>            gen: output directory (created if missing)
  --list                 gen: print the scenario corpus and exit
  --trace-json <file>    stream one JSON-Lines event per closed span
                         (pipeline phases with timings and solver
                         counters) to <file>
  --n <count>            client trace: span trees to return (default: 8)

EXIT CODES:
  0 = compatible / satisfiable / success
  1 = conflict detected (details on stdout)
  2 = usage or input error
  3 = budget exhausted before a verdict (raise --timeout-ms,
      --conflict-budget, or --retries)";

/// `check`: evaluate the goals against the *deployed* configuration.
fn check(opts: &Opts) -> Result<ExitCode, String> {
    let l = load(opts)?;
    let session = build_session(&l, opts)?;
    let deployed = deployed_all(&l)?;
    let results = session.check_goals(&deployed);
    let mut failures = 0;
    for (name, holds) in &results {
        println!("[{}] {name}", if *holds { "ok " } else { "FAIL" });
        if !holds {
            failures += 1;
        }
    }
    if failures == 0 {
        println!("all {} goal(s) hold under the deployed configuration", results.len());
        return Ok(ExitCode::SUCCESS);
    }
    // Fault localization (mesh domain only): show dataplane traces for
    // the broken reachability rows.
    if let Some(pay) = muppet_domain::mesh::payload(&l.model) {
        println!("\n{failures} goal(s) violated. Dataplane diagnosis:");
        let rows =
            IstioGoal::parse_csv(&l.spec.goal_texts()[1]).map_err(|e| e.to_string())?;
        for g in &rows {
            if let (muppet_goals::PortSpec::Port(dp), Some(_)) =
                (&g.dst_port, pay.bundle.mesh.service(&g.dst))
            {
                let d = evaluate_flow_full(
                    &pay.bundle.mesh,
                    &pay.bundle.k8s_policies,
                    &pay.bundle.istio_policies,
                    &pay.bundle.peer_auth,
                    &Flow::new(g.src.clone(), g.dst.clone(), 0, *dp),
                );
                if !d.allowed {
                    println!("  {} → {}:{} is blocked:", g.src, g.dst, dp);
                    for line in &d.trace {
                        println!("    {line}");
                    }
                }
            }
        }
    } else {
        println!("\n{failures} goal(s) violated.");
    }
    Ok(ExitCode::from(1))
}

/// `reconcile`: Alg. 2 with blame.
fn reconcile(opts: &Opts) -> Result<ExitCode, String> {
    let l = load(opts)?;
    let mut session = build_session(&l, opts)?;
    let rec = session
        .reconcile(ReconcileMode::Blameable)
        .map_err(|e| e.to_string())?;
    if rec.exhausted.is_some() {
        return Ok(report_exhausted(&rec));
    }
    if rec.success {
        println!("SAT: the goal tables are jointly satisfiable.");
        for (party, config) in &rec.configs {
            let name = session.party(*party).map(|p| p.name.clone()).unwrap();
            println!("  {name}: {} setting(s) in a witness configuration", config.total_tuples());
        }
        Ok(ExitCode::SUCCESS)
    } else {
        println!("UNSAT: the goal tables conflict. Minimal blame:");
        for c in &rec.core {
            println!("  - {c}");
        }
        Ok(ExitCode::from(1))
    }
}

/// `envelope`: Alg. 3, both renderings.
fn envelope(opts: &Opts) -> Result<ExitCode, String> {
    let l = load(opts)?;
    let session = build_session(&l, opts)?;
    let to = to_party(&l, opts)?;
    // Every other party is a sender; each sender's fixed configuration
    // is whatever its deployed policies say. Two-party domains reduce
    // to the paper's `E_{from→to}`.
    let mut senders = Vec::new();
    for from in l.model.others(to) {
        senders.push((from, l.domain.deployed(&l.model, from)?));
    }
    let env = session
        .compute_multi_envelope(&senders, to)
        .map_err(|e| e.to_string())?;
    if env.is_trivial() {
        if env.self_satisfied.is_empty() {
            println!("(the envelope is trivial: the recipient is unconstrained)");
        } else {
            println!(
                "(the envelope is trivial: the sender's deployed configuration \
                 already guarantees its goals on its own)"
            );
            for g in &env.self_satisfied {
                println!("  self-satisfied: {g}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    }
    println!("── Alloy ──");
    print!("{}", env.render_alloy(session.vocab(), session.universe()));
    println!("── English ──");
    print!("{}", env.render_english(session.vocab(), session.universe()));
    let leak = env.leakage(session.universe());
    println!(
        "── privacy: reveals {} concrete setting(s): {:?}",
        leak.revealed_atoms.len(),
        leak.revealed_atoms
    );
    if !env.impossible.is_empty() {
        println!("IMPOSSIBLE goals (no recipient configuration can satisfy them):");
        for g in &env.impossible {
            println!("  - {g}");
        }
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// `explain`: why/why-not for the deployed configuration against the
/// sender's envelope.
fn explain(opts: &Opts) -> Result<ExitCode, String> {
    let l = load(opts)?;
    let session = build_session(&l, opts)?;
    let to = to_party(&l, opts)?;
    let mut senders = Vec::new();
    for from in l.model.others(to) {
        senders.push((from, l.domain.deployed(&l.model, from)?));
    }
    let env = session
        .compute_multi_envelope(&senders, to)
        .map_err(|e| e.to_string())?;
    if env.is_trivial() {
        println!("(the envelope is trivial; nothing to explain)");
        return Ok(ExitCode::SUCCESS);
    }
    // The recipient's deployed configuration, in its structural context.
    let recipient_config = l
        .model
        .structure
        .union(&l.domain.deployed_snapshot(&l.model, to)?);
    let mut violated = 0;
    for p in &env.predicates {
        let exp = muppet::explain::explain_predicate(
            p,
            &recipient_config,
            session.vocab(),
            session.universe(),
            5,
        );
        if !exp.holds {
            violated += 1;
        }
        print!("{}", exp.render());
    }
    Ok(if violated == 0 {
        println!("the deployed configuration satisfies the envelope");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `synthesize`: joint synthesis, emitted as YAML manifests.
fn synthesize(opts: &Opts) -> Result<ExitCode, String> {
    let l = load(opts)?;
    let mut session = build_session(&l, opts)?;
    let rec = session
        .reconcile(ReconcileMode::Blameable)
        .map_err(|e| e.to_string())?;
    if rec.exhausted.is_some() {
        return Ok(report_exhausted(&rec));
    }
    if !rec.success {
        println!("UNSAT: cannot synthesize. Minimal blame:");
        for c in &rec.core {
            println!("  - {c}");
        }
        return Ok(ExitCode::from(1));
    }
    let yaml = l
        .domain
        .emit_solution(&l.model, &rec.configs)
        .ok_or_else(|| {
            format!("domain {:?} has no manifest emitter; cannot synthesize", l.model.domain)
        })?;
    print!("{yaml}");
    // Sanity: the emitted configuration satisfies every goal.
    let mut combined = session.structure().clone();
    for c in rec.configs.values() {
        combined = combined.union(c);
    }
    let all_ok = session.check_goals(&combined).iter().all(|(_, h)| *h);
    if !all_ok {
        return Err("internal error: synthesized configuration fails verification".into());
    }
    eprintln!("# synthesized configuration verified against all goals");
    Ok(ExitCode::SUCCESS)
}

/// `gen`: materialize a corpus scenario (or a reseeded variant) into a
/// directory of the same artifacts the other subcommands consume —
/// `manifests.yaml`, `k8s-goals.csv`, `istio-goals.csv` — plus a
/// `scenario.json` provenance stamp (params, seed, expected verdict).
/// CNF-kind entries emit `<name>.cnf` in DIMACS instead of manifests.
fn gen_cmd(opts: &Opts) -> Result<ExitCode, String> {
    use muppet_scenario::corpus::{self, Kind};
    use muppet_scenario::paper::IstioTable;

    if opts.list {
        println!("{:<18} {:<6} {:<6} note", "name", "tier", "label");
        for e in corpus::CORPUS {
            println!("{:<18} {:<6} {:<6} {}", e.name, e.tier.name(), e.expected.label(), e.note);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let name = opts
        .scenario
        .as_deref()
        .ok_or("gen needs --scenario <name> (see --list) or --list")?;
    let entry = corpus::entry(name)
        .ok_or_else(|| format!("unknown scenario {name:?} (see `muppet-cli gen --list`)"))?;
    let out = opts.out.as_deref().ok_or("gen needs --out <dir>")?;
    let dir = std::path::Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    let write = |file: &str, content: &str| -> Result<(), String> {
        let path = dir.join(file);
        std::fs::write(&path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };

    match entry.kind {
        Kind::Mesh(mut params) => {
            if let Some(seed) = opts.seed {
                params.seed = seed;
            }
            let s = muppet_scenario::generate(params);
            let (manifests, k8s, istio, extras) = s.wire_content();
            write("manifests.yaml", &manifests)?;
            write("k8s-goals.csv", &k8s)?;
            write("istio-goals.csv", &istio)?;
            write("scenario.json", &(s.provenance_json(entry.name) + "\n"))?;
            let extras_csv: Vec<String> = extras.iter().map(|p| p.to_string()).collect();
            println!(
                "wrote {out}/{{manifests.yaml,k8s-goals.csv,istio-goals.csv,scenario.json}} \
                 ({} services, expected {})",
                s.mesh.services().len(),
                s.expected_label()
            );
            println!(
                "run: muppet-cli reconcile --manifests {out}/manifests.yaml \
                 --k8s-goals {out}/k8s-goals.csv --istio-goals {out}/istio-goals.csv \
                 --extra-ports {}",
                extras_csv.join(",")
            );
        }
        Kind::PaperStrict | Kind::PaperRelaxed => {
            if opts.seed.is_some() {
                return Err(format!("{name} is a fixed paper instance; --seed does not apply"));
            }
            let mesh = muppet_mesh::Mesh::paper_example();
            let manifests =
                muppet_mesh::manifest::emit_bundle(&muppet_mesh::manifest::ManifestBundle {
                    mesh,
                    ..Default::default()
                });
            let rows = match entry.kind {
                Kind::PaperStrict => IstioGoal::fig3(),
                _ => IstioGoal::fig4(),
            };
            let table = if matches!(entry.kind, Kind::PaperStrict) {
                IstioTable::Fig3
            } else {
                IstioTable::Fig4
            };
            write("manifests.yaml", &manifests)?;
            write("k8s-goals.csv", &muppet_scenario::k8s_goals_csv(&muppet_goals::fig2()))?;
            write("istio-goals.csv", &muppet_scenario::istio_goals_csv(&rows))?;
            write(
                "scenario.json",
                &format!(
                    "{{\"schema\":\"muppet-scenario-paper-v1\",\"name\":\"{}\",\
                     \"table\":\"{:?}\",\"expected\":\"{}\"}}\n",
                    entry.name,
                    table,
                    entry.expected.label()
                ),
            )?;
            println!(
                "wrote {out}/{{manifests.yaml,k8s-goals.csv,istio-goals.csv,scenario.json}} \
                 (paper tables, expected {})",
                entry.expected
            );
        }
        Kind::PhpRelational { .. } => {
            return Err(format!(
                "{name} is a relational (pre-CNF) instance with no file form; \
                 run it via the harness S1 lane"
            ));
        }
        Kind::Domain { domain } => {
            if opts.seed.is_some() {
                return Err(format!("{name} is a fixed domain fixture; --seed does not apply"));
            }
            let d = muppet_domain::lookup(domain)
                .ok_or_else(|| format!("corpus domain {domain:?} is not registered"))?;
            let (manifests, goals) = corpus::domain_wire(domain)
                .ok_or_else(|| format!("domain {domain:?} has no committed fixture"))?;
            write("manifests.yaml", &manifests)?;
            let mut goal_files = Vec::new();
            for (role, text) in d.roles().iter().zip(&goals) {
                let file = format!("{role}-goals.csv");
                write(&file, text)?;
                goal_files.push(file);
            }
            write(
                "scenario.json",
                &format!(
                    "{{\"schema\":\"muppet-scenario-domain-v1\",\"name\":\"{}\",\
                     \"domain\":\"{}\",\"expected\":\"{}\"}}\n",
                    entry.name,
                    domain,
                    entry.expected.label()
                ),
            )?;
            println!(
                "wrote {out}/{{manifests.yaml,{},scenario.json}} ({} domain, expected {})",
                goal_files.join(","),
                domain,
                entry.expected
            );
            let goal_flags: Vec<String> = goal_files
                .iter()
                .map(|f| format!("--goals {out}/{f}"))
                .collect();
            println!(
                "run: muppet-cli reconcile --domain {domain} --manifests {out}/manifests.yaml {}",
                goal_flags.join(" ")
            );
        }
        Kind::Stream(mut params) => {
            if let Some(seed) = opts.seed {
                params.seed = seed;
            }
            let stream = muppet_scenario::generate_stream(params);
            let (manifests, k8s, istio, extras) = stream.base.wire_content();
            write("manifests.yaml", &manifests)?;
            write("k8s-goals.csv", &k8s)?;
            write("istio-goals.csv", &istio)?;
            write("deltas.txt", &stream.deltas_text())?;
            write(
                "scenario.json",
                &format!(
                    "{{\"schema\":\"muppet-scenario-stream-v1\",\"name\":\"{}\",\
                     \"profile\":\"{}\",\"deltas\":{},\"seed\":{},\"expected\":\"{}\"}}\n",
                    entry.name,
                    params.profile.name(),
                    stream.deltas.len(),
                    params.seed,
                    entry.expected.label()
                ),
            )?;
            let extras_csv: Vec<String> = extras.iter().map(|p| p.to_string()).collect();
            println!(
                "wrote {out}/{{manifests.yaml,k8s-goals.csv,istio-goals.csv,deltas.txt,\
                 scenario.json}} ({} base services, {} deltas, final state expected {})",
                stream.base.mesh.services().len(),
                stream.deltas.len(),
                entry.expected
            );
            println!(
                "replay: muppet-cli watch --socket <sock> --manifests {out}/manifests.yaml \
                 --k8s-goals {out}/k8s-goals.csv --istio-goals {out}/istio-goals.csv \
                 --extra-ports {} --deltas {out}/deltas.txt",
                extras_csv.join(",")
            );
        }
        _ => {
            let mut kind = entry.kind;
            if let (Kind::PupSat { seed, .. }, Some(s)) = (&mut kind, opts.seed) {
                *seed = s;
            }
            let inst = corpus::cnf_instance(kind).expect("cnf kind");
            write(&format!("{}.cnf", entry.name), &inst.dimacs())?;
            write(
                "scenario.json",
                &format!(
                    "{{\"schema\":\"muppet-scenario-cnf-v1\",\"name\":\"{}\",\
                     \"expected\":\"{}\",\"num_vars\":{},\"clauses\":{}}}\n",
                    entry.name,
                    inst.expected.label(),
                    inst.num_vars,
                    inst.clauses.len()
                ),
            )?;
            println!(
                "wrote {out}/{{{}.cnf,scenario.json}} ({} vars, {} clauses, expected {})",
                entry.name,
                inst.num_vars,
                inst.clauses.len(),
                inst.expected
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `serve`: run `muppetd` in the foreground until a client sends
/// `shutdown`.
fn serve_cmd(opts: &Opts) -> Result<ExitCode, String> {
    let defaults = muppet_daemon::OverloadConfig::default();
    let config = muppet_daemon::ServerConfig {
        socket: opts.socket.as_ref().map(std::path::PathBuf::from),
        tcp: opts.tcp.clone(),
        workers: opts.workers.unwrap_or(4),
        engine: muppet_daemon::EngineConfig {
            cache_cap: opts.cache_cap.unwrap_or(1024),
            ..muppet_daemon::EngineConfig::default()
        },
        overload: muppet_daemon::OverloadConfig {
            max_queue_depth: opts.max_queue_depth.unwrap_or(defaults.max_queue_depth),
            max_inflight_per_conn: opts
                .max_inflight_per_conn
                .unwrap_or(defaults.max_inflight_per_conn),
            retry_after_ms: opts.retry_after_ms.unwrap_or(defaults.retry_after_ms),
            drain_deadline_ms: opts.drain_deadline_ms.unwrap_or(defaults.drain_deadline_ms),
            read_timeout_ms: opts.read_timeout_ms.unwrap_or(defaults.read_timeout_ms),
        },
    };
    let handle = muppet_daemon::serve(config)?;
    if let Some(path) = &opts.socket {
        eprintln!("muppetd: listening on {path}");
    }
    if let Some(addr) = handle.tcp_addr() {
        eprintln!("muppetd: listening on tcp {addr}");
    }
    while !handle.is_stopped() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.wait();
    eprintln!("muppetd: stopped");
    Ok(ExitCode::SUCCESS)
}

/// Resolve `--socket` / `--tcp` into a daemon endpoint.
fn endpoint_of(opts: &Opts) -> Result<muppet_daemon::Endpoint, String> {
    match (&opts.socket, &opts.tcp) {
        (Some(path), _) => Ok(muppet_daemon::Endpoint::Unix(std::path::PathBuf::from(path))),
        (None, Some(addr)) => Ok(muppet_daemon::Endpoint::Tcp(addr.clone())),
        (None, None) => Err("needs --socket or --tcp".into()),
    }
}

/// Build the inline session spec daemon ops consume from the file
/// flags, or `None` when no `--manifests` was given.
fn inline_spec(opts: &Opts) -> Result<Option<muppet_daemon::SessionSpec>, String> {
    if opts.manifests.is_empty() {
        return Ok(None);
    }
    let mut text = String::new();
    for path in &opts.manifests {
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.push_str("---\n");
        text.push_str(&content);
        text.push('\n');
    }
    let read_opt = |p: &Option<String>| -> Result<String, String> {
        match p {
            Some(p) => std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}")),
            None => Ok(String::new()),
        }
    };
    let mut goals = Vec::new();
    for p in &opts.goals {
        goals.push(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?);
    }
    Ok(Some(muppet_daemon::SessionSpec {
        domain: opts.domain.clone().unwrap_or_default(),
        manifests: text,
        k8s_goals: read_opt(&opts.k8s_goals)?,
        istio_goals: read_opt(&opts.istio_goals)?,
        goals,
        mtls: opts.mtls,
        extra_ports: opts.extra_ports.clone(),
    }))
}

/// Read protocol lines until a response arrives, printing any
/// subscription event lines (those carrying an `"event"` field;
/// responses never do) encountered on the way.
fn pump_until_response(
    client: &mut muppet_daemon::Client,
) -> Result<muppet_daemon::Response, String> {
    loop {
        let line = client.recv_line()?;
        let is_event = muppet_daemon::json::parse(&line)
            .ok()
            .is_some_and(|j| j.get("event").is_some());
        if is_event {
            println!("{}", line.trim_end());
            continue;
        }
        return muppet_daemon::Response::from_line(&line);
    }
}

/// `watch`: streaming reconfiguration against a running daemon. Opens
/// a watch session from the file flags, subscribes to `verdict_flip`
/// events on the same connection, then replays one `ConfigDelta` line
/// at a time from `--deltas <file>` (or stdin) as `push_delta`
/// requests. Every response and event is printed as one JSON line; on
/// EOF the watch is closed with `unwatch`. Rejected delta lines are
/// reported on stderr and skipped — a typo should not kill a live
/// stream. Exit code follows the final verdict: 0 sat, 1 unsat.
fn watch_cmd(opts: &Opts) -> Result<ExitCode, String> {
    use muppet_daemon::json::Json;
    use std::io::BufRead;

    let endpoint = endpoint_of(opts).map_err(|e| format!("watch {e}"))?;
    let spec = inline_spec(opts)?
        .ok_or("watch needs --manifests (the starting configuration)")?;
    let mut client = endpoint.connect(Some(std::time::Duration::from_secs(120)))?;

    let mut req = muppet_daemon::Request::new(muppet_daemon::Op::Watch);
    req.spec = Some(spec);
    client.send(&req)?;
    let resp = pump_until_response(&mut client)?;
    println!("{}", resp.to_line());
    if !resp.ok {
        return Ok(ExitCode::from(2));
    }
    let watch = resp
        .result
        .get("watch")
        .and_then(Json::as_str)
        .ok_or("daemon watch response carried no watch id")?
        .to_string();
    let mut verdict = resp
        .result
        .get("initial")
        .and_then(|i| i.get("verdict"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();

    let mut sub = muppet_daemon::Request::new(muppet_daemon::Op::Subscribe);
    sub.watch = Some(watch.clone());
    client.send(&sub)?;
    let resp = pump_until_response(&mut client)?;
    println!("{}", resp.to_line());
    if !resp.ok {
        return Ok(ExitCode::from(2));
    }

    let input: Box<dyn BufRead> = match &opts.deltas {
        Some(p) => Box::new(std::io::BufReader::new(
            std::fs::File::open(p).map_err(|e| format!("cannot read {p}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    let mut rejected = 0u64;
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading deltas: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut push = muppet_daemon::Request::new(muppet_daemon::Op::PushDelta);
        push.watch = Some(watch.clone());
        push.delta = Some(line.to_string());
        client.send(&push)?;
        let resp = pump_until_response(&mut client)?;
        println!("{}", resp.to_line());
        if resp.ok {
            if let Some(v) = resp.result.get("verdict").and_then(Json::as_str) {
                verdict = v.to_string();
            }
        } else {
            rejected += 1;
            eprintln!(
                "muppet-cli: delta {line:?} rejected: {}",
                resp.error.as_deref().unwrap_or("unknown error")
            );
        }
    }

    let mut un = muppet_daemon::Request::new(muppet_daemon::Op::Unwatch);
    un.watch = Some(watch);
    client.send(&un)?;
    let resp = pump_until_response(&mut client)?;
    println!("{}", resp.to_line());
    if rejected > 0 {
        eprintln!("muppet-cli: {rejected} delta line(s) rejected");
    }
    Ok(if verdict.starts_with("unsat") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `client`: one request against a running daemon; prints the response
/// as a JSON line and maps the verdict onto the usual exit codes.
fn client_cmd(op_name: &str, opts: &Opts) -> Result<ExitCode, String> {
    let op = muppet_daemon::Op::parse(op_name)
        .ok_or_else(|| format!("unknown daemon op {op_name:?} (try `muppet-cli help`)"))?;
    let endpoint = endpoint_of(opts).map_err(|e| format!("client {e}"))?;
    let mut req = muppet_daemon::Request::new(op);
    req.spec = inline_spec(opts)?;
    req.party = opts.party.clone();
    req.mode = opts.mode.clone();
    req.to = opts.to.clone();
    req.max_rounds = opts.max_rounds;
    req.timeout_ms = opts.timeout_ms;
    req.conflict_budget = opts.conflict_budget;
    req.retries = opts.retries;
    req.n = opts.trace_n;
    let policy = muppet_daemon::RetryPolicy {
        attempts: if opts.no_retry { 1 } else { opts.retry_attempts.unwrap_or(5) },
        base_delay: std::time::Duration::from_millis(opts.retry_base_ms.unwrap_or(25)),
        deadline: std::time::Duration::from_millis(opts.retry_deadline_ms.unwrap_or(30_000)),
        ..muppet_daemon::RetryPolicy::default()
    };
    let report =
        endpoint.roundtrip_retry(&req, Some(std::time::Duration::from_secs(120)), &policy)?;
    if report.attempts > 1 {
        eprintln!(
            "muppet-cli: {} attempt(s), backed off {:?} total",
            report.attempts, report.slept
        );
    }
    let resp = report.response;
    println!("{}", resp.to_line());
    if resp.overloaded {
        // The daemon kept shedding until the retry budget ran out: no
        // verdict was reached, which is exit code 3 like any other
        // exhausted budget.
        return Ok(ExitCode::from(3));
    }
    if !resp.ok {
        let err = resp.error.unwrap_or_default();
        return Ok(ExitCode::from(if err.contains("budget exhausted") { 3 } else { 2 }));
    }
    // A definite "no" (conflict / non-conformance) exits 1, like the
    // direct subcommands; a degraded verdict exits 3.
    if !resp.result.get("exhausted").map(muppet_daemon::json::Json::is_null).unwrap_or(true) {
        return Ok(ExitCode::from(3));
    }
    let verdict = resp
        .result
        .get("success")
        .or_else(|| resp.result.get("ok"))
        .and_then(muppet_daemon::json::Json::as_bool);
    Ok(match verdict {
        Some(false) => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    })
}
