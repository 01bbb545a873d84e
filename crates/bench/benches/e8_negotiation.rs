//! E8 (Fig. 9): round-robin negotiation episodes.
//!
//! Measures full negotiations to convergence on the committed corpus'
//! conflicted mesh entries (every ban targets a goal port), with soft
//! Istio goals and a goal-dropping revision strategy. Consuming the
//! corpus instead of hand-rolled fixtures keeps the negotiation
//! workload pinned to the same committed ground truth the test suite
//! validates.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet_bench::scenario::corpus::{entries, Kind, Tier};
use muppet_bench::scenario::{generate, Expected};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_negotiation");
    g.sample_size(10);
    for entry in entries(Tier::Smoke).chain(entries(Tier::Paper)) {
        let Kind::Mesh(params) = entry.kind else {
            continue;
        };
        // Negotiation is only interesting where the hard verdict is
        // unsat: the soft-goal session then converges by dropping
        // blamed rows.
        if entry.expected != Expected::Unsat {
            continue;
        }
        let scenario = generate(params);
        g.bench_with_input(
            BenchmarkId::new("to_convergence", entry.name),
            &entry.name,
            |b, _| {
                b.iter(|| {
                    // Negotiation mutates goals: rebuild per iteration.
                    let mut session = scenario.session(true);
                    let mut negs: BTreeMap<muppet_logic::PartyId, Box<dyn Negotiator>> =
                        BTreeMap::new();
                    negs.insert(scenario.mv.k8s_party, Box::new(Stubborn));
                    negs.insert(scenario.mv.istio_party, Box::new(DropBlamedSoftGoals));
                    let report =
                        run_negotiation(&mut session, &mut negs, 40, Schedule::RoundRobin)
                            .unwrap();
                    assert!(report.success);
                    report.rounds
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
