//! More than two parties (Sec. 7, "Extending Beyond 2 Parties") and
//! beyond networking (Sec. 7, "Beyond Microservices").
//!
//! Run with `cargo run --example multi_party`.
//!
//! Three teams compose a product from feature flags — the paper's
//! observation that "many software systems are built as compositions of
//! features, where different teams produce individual components". Each
//! team owns an `enabled_<team>(Feature)` relation; features interact:
//!
//! * platform team: telemetry must be on; legacy auth must be off;
//! * app team: wants SSO, which requires the platform's legacy auth
//!   *or* the security team's OIDC provider;
//! * security team: refuses to enable OIDC until audit logging is on —
//!   which is the platform team's telemetry flag.
//!
//! The example computes the multi-source envelope `E_{{platform,app}→
//! security}` (with per-sender obligation tags) and then runs a 3-party
//! round-robin negotiation to convergence.

use std::collections::BTreeMap;

use muppet::negotiate::{run_negotiation, FnNegotiator, Negotiator, Schedule, Stubborn};
use muppet::{NamedGoal, Party, ReconcileMode, Session};
use muppet_logic::{
    Domain, Formula, Instance, PartyId, Term, Universe, Vocabulary,
};

fn main() {
    // ── Domain: one sort of features, one relation per team ─────────
    let mut universe = Universe::new();
    let feature = universe.add_sort("Feature");
    let telemetry = universe.add_atom(feature, "telemetry");
    let legacy_auth = universe.add_atom(feature, "legacy-auth");
    let sso = universe.add_atom(feature, "sso");
    let oidc = universe.add_atom(feature, "oidc");
    let audit = universe.add_atom(feature, "audit-logging");

    let platform = PartyId(0);
    let app = PartyId(1);
    let security = PartyId(2);

    let mut vocab = Vocabulary::new();
    let en_platform = vocab.add_simple_rel(
        "enabled_platform",
        vec![feature],
        Domain::Party(platform),
    );
    let en_app = vocab.add_simple_rel("enabled_app", vec![feature], Domain::Party(app));
    let en_sec = vocab.add_simple_rel("enabled_security", vec![feature], Domain::Party(security));

    let on = |rel, atom| Formula::pred(rel, [Term::Const(atom)]);

    // ── Goals ────────────────────────────────────────────────────────
    let platform_goals = vec![
        NamedGoal::hard("telemetry always on", on(en_platform, telemetry)),
        NamedGoal::hard(
            "legacy auth retired",
            Formula::not(on(en_platform, legacy_auth)),
        ),
    ];
    let app_goals = vec![NamedGoal::hard(
        "SSO works",
        Formula::and([
            on(en_app, sso),
            Formula::or([on(en_platform, legacy_auth), on(en_sec, oidc)]),
        ]),
    )];
    // The security team initially refuses OIDC outright (hard), which
    // conflicts with the app team's SSO requirement given the platform's
    // legacy-auth retirement.
    let security_goals = vec![
        NamedGoal::hard("no OIDC without audit", {
            Formula::implies(on(en_sec, oidc), on(en_platform, audit))
        }),
        NamedGoal::soft("OIDC stays off", Formula::not(on(en_sec, oidc))),
    ];

    let mut session = Session::new(&universe, vocab, Instance::new());
    session.add_party(Party::new(platform, "platform-team").with_goals(platform_goals));
    session.add_party(Party::new(app, "app-team").with_goals(app_goals));
    session.add_party(Party::new(security, "security-team").with_goals(security_goals));

    // ── Conflict ─────────────────────────────────────────────────────
    let rec = session.reconcile(ReconcileMode::Blameable).expect("solve");
    println!("initial reconciliation: success = {}", rec.success);
    for c in &rec.core {
        println!("  conflict involves: {c}");
    }

    // ── Multi-source envelope E_{{platform,app}→security} ───────────
    // Each sender's fixed configuration is its local-consistency
    // witness.
    let wp = session
        .local_consistency(platform)
        .expect("lc")
        .witness
        .expect("consistent");
    let wa = session
        .local_consistency(app)
        .expect("lc")
        .witness
        .expect("consistent");
    let env = session
        .compute_multi_envelope(&[(platform, wp), (app, wa)], security)
        .expect("envelope");
    println!("\nE_{{platform,app}}→security ({} predicates):", env.predicates.len());
    let names = session.party_names();
    for p in &env.predicates {
        let sender = &names[&p.obligated_by];
        let mut printer =
            muppet_logic::pretty::Printer::new(session.vocab(), session.universe());
        for (v, n) in &p.var_names {
            printer.name_var(*v, n.clone());
        }
        println!(
            "  [obligation from {sender} / {}] {}",
            p.source_goal,
            printer.alloy(&p.formula)
        );
    }

    // ── 3-party round-robin negotiation ─────────────────────────────
    // The security team concedes its *soft* "OIDC stays off" goal when
    // the blame core names it; everyone else stands firm.
    let mut negotiators: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    negotiators.insert(platform, Box::new(Stubborn));
    negotiators.insert(app, Box::new(Stubborn));
    negotiators.insert(
        security,
        Box::new(FnNegotiator(|party: &mut Party, feedback| {
            if let Some(i) = party.goals.iter().position(|g| {
                !g.hard && feedback.core.iter().any(|c| c.contains(&g.name))
            }) {
                println!("  security-team concedes: {}", party.goals[i].name);
                party.goals.remove(i);
                true
            } else {
                false
            }
        })),
    );
    println!("\nnegotiation:");
    let report = run_negotiation(&mut session, &mut negotiators, 12, Schedule::RoundRobin)
        .expect("negotiation");
    for line in &report.trace {
        println!("  {line}");
    }
    assert!(report.success, "3-party negotiation must converge");

    // ── Verify the delivered feature matrix ──────────────────────────
    let mut combined = Instance::new();
    for c in report.configs.values() {
        combined = combined.union(c);
    }
    println!("\ndelivered feature flags:");
    for (rel, label) in [
        (en_platform, "platform"),
        (en_app, "app"),
        (en_sec, "security"),
    ] {
        let flags: Vec<&str> = combined
            .tuples(rel)
            .map(|t| universe.atom_name(t[0]))
            .collect();
        println!("  {label}: {flags:?}");
    }
    let all_ok = session
        .check_goals(&combined)
        .into_iter()
        .all(|(_, holds)| holds);
    println!("all remaining goals verified: {all_ok}");
    assert!(all_ok);
    // The interesting chain: SSO on ⇒ OIDC on ⇒ audit logging on.
    assert!(combined.holds(en_app, &[sso]));
    assert!(combined.holds(en_sec, &[oidc]));
    assert!(combined.holds(en_platform, &[audit]));
    println!("feature chain SSO → OIDC → audit-logging is in place ✓");
}
