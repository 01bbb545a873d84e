//! N=2 differential gate for the N-party generalization.
//!
//! The committed golden file (`tests/golden/nparty_paper.txt`) was
//! captured from the two-party engine immediately **before** the
//! ConfigDomain / N-party refactor. The generalized engine must
//! reproduce those verdicts, counter-offers, envelopes and negotiation
//! traces byte-identically on the paper fixtures (lex-min canonical
//! models and ordered-deletion cores make the answers independent of
//! solver heuristic state).
//!
//! Re-bless — only for a deliberate, reviewed behavior change — with:
//! `BLESS_NPARTY=1 cargo test --test nparty_differential`.

use muppet_daemon::json::Json;
use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/nparty_paper.txt");

/// Re-render only the deterministic fields of a result, in a fixed key
/// order (timings and solver statistics vary run to run; verdicts,
/// cores, canonical models, envelopes and traces must not).
fn pick(result: &Json, keys: &[&str]) -> String {
    let filtered: Vec<(String, Json)> = keys
        .iter()
        .filter_map(|&k| result.get(k).map(|v| (k.to_string(), v.clone())))
        .collect();
    Json::Obj(filtered).to_line()
}

fn dump() -> String {
    let eng = Engine::new(EngineConfig::default());
    let fixtures = [
        ("strict", SessionSpec::paper_strict()),
        ("relaxed", SessionSpec::paper_relaxed()),
    ];
    let mut out = String::new();
    for (label, spec) in fixtures {
        let mut run = |tag: &str, req: Request, keys: &[&str]| {
            let resp = eng.handle(&req, None);
            let line = match &resp.error {
                Some(e) => format!("error: {e}"),
                None => pick(&resp.result, keys),
            };
            out.push_str(&format!("{label}/{tag}: {line}\n"));
        };
        let base = |op: Op| Request::new(op).with_spec(spec.clone());
        for party in ["k8s", "istio"] {
            let mut req = base(Op::CheckConsistency);
            req.party = Some(party.into());
            run(
                &format!("consistency[{party}]"),
                req,
                &["party", "ok", "witness", "core"],
            );
        }
        for mode in ["hard", "blameable"] {
            let mut req = base(Op::Reconcile);
            req.mode = Some(mode.into());
            run(
                &format!("reconcile[{mode}]"),
                req,
                &["success", "configs", "core"],
            );
        }
        for to in ["istio", "k8s"] {
            let mut req = base(Op::ExtractEnvelope);
            req.to = Some(to.into());
            run(
                &format!("envelope[to={to}]"),
                req,
                &[
                    "trivial",
                    "predicates",
                    "alloy",
                    "english",
                    "impossible",
                    "residual_violations",
                    "self_satisfied",
                    "leakage",
                ],
            );
        }
        run(
            "conformance",
            base(Op::CheckConformance),
            &[
                "provider_consistent",
                "success",
                "envelope_trivial",
                "tenant_config",
                "blame",
                "counter_offer_distance",
            ],
        );
        let mut req = base(Op::NegotiateRound);
        req.max_rounds = Some(8);
        run(
            "negotiate",
            req,
            &["success", "rounds", "configs", "trace"],
        );
    }
    out
}

#[test]
fn n2_matches_pre_refactor_golden() {
    let cold = dump();
    if std::env::var("BLESS_NPARTY").is_ok() {
        std::fs::create_dir_all(
            std::path::Path::new(GOLDEN_PATH).parent().unwrap(),
        )
        .unwrap();
        std::fs::write(GOLDEN_PATH, &cold).unwrap();
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing golden; run with BLESS_NPARTY=1 to capture");
    assert_eq!(
        cold, golden,
        "verdicts/traces diverge from the pre-refactor engine"
    );
}

/// A second engine instance (fresh registry + cache) must produce the
/// same bytes: nothing about the dump depends on process-local state.
#[test]
fn dump_is_reproducible_within_a_process() {
    assert_eq!(dump(), dump());
}
