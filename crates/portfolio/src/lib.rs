//! # muppet-portfolio — parallel portfolio solving
//!
//! Runs N diversified clones of one [`muppet_sat::Solver`] over the
//! same clause set, races them first-to-finish, and cancels the losers
//! through the existing [`Budget`]/[`muppet_sat::CancelToken`]
//! machinery. Workers share learned clauses below an LBD threshold
//! through a bounded [`SharedPool`]; the winning answer (and the pool
//! contents) flow back into the master solver so warm sessions keep
//! benefiting from the race afterwards.
//!
//! Two execution modes:
//!
//! - **racing** (default): workers run freely and the first decisive
//!   answer wins; throughput is maximal but the winner identity and the
//!   exact work counters depend on OS scheduling.
//! - **deterministic**: workers advance in lockstep rounds of a fixed
//!   conflict slice, clause exchange is sealed only at round barriers
//!   (in worker-id order), and the winner is the lowest-id worker that
//!   finished in the earliest round. Two consecutive runs produce
//!   identical verdicts, winner ids and statistics — the property CI
//!   and the daemon's result cache rely on.
//!
//! Diversification per worker (worker 0 is always the undiversified
//! reference configuration, so a one-worker portfolio behaves exactly
//! like the sequential solver):
//!
//! | worker | restart base | phases     | VSIDS decay | random decisions |
//! |--------|--------------|------------|-------------|------------------|
//! | 0      | 64           | saved      | 0.95        | none             |
//! | 1      | 256          | all true   | 0.99        | none             |
//! | 2      | 32           | seeded rng | 0.90        | ~1/128           |
//! | 3      | 1024         | saved      | 0.95        | ~1/64            |
//! | 4+     | cycle of the above with per-worker seeds                  |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{PoolStats, SharedPool};

use muppet_sat::{Budget, ClauseExchange, Lit, SolveResult, Solver};
use std::sync::mpsc;
use std::sync::Arc;

/// Knobs for one portfolio solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PortfolioConfig {
    /// Number of diversified workers. `<= 1` bypasses the portfolio.
    pub threads: usize,
    /// Lockstep rounds with sealed clause exchange instead of a free
    /// race: reproducible verdicts, winner ids and statistics.
    pub deterministic: bool,
    /// Workers export learned clauses with LBD at or below this.
    pub export_lbd_max: u32,
    /// Byte bound on the shared clause pool.
    pub pool_bytes: usize,
    /// Conflicts per worker per round in deterministic mode.
    pub slice_conflicts: u64,
    /// Seed for the per-worker diversification (phases, random
    /// decisions). Always fixed by default so worker *behavior* is
    /// reproducible; only the race outcome is timing-dependent.
    pub seed: u64,
}

impl Default for PortfolioConfig {
    fn default() -> PortfolioConfig {
        PortfolioConfig {
            threads: default_threads(),
            deterministic: false,
            export_lbd_max: 6,
            pool_bytes: 4 << 20,
            slice_conflicts: 3000,
            seed: 0x4D55_5050,
        }
    }
}

impl PortfolioConfig {
    /// Default config with an explicit worker count.
    pub fn with_threads(threads: usize) -> PortfolioConfig {
        PortfolioConfig {
            threads,
            ..PortfolioConfig::default()
        }
    }

    /// `true` when this config actually fans out.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// The default worker count: available cores, clamped to 8.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Aggregated outcome of one portfolio solve, for reports and the
/// daemon stats response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortfolioSummary {
    /// Workers that ran.
    pub workers: u32,
    /// Index of the worker whose answer was used (`None` when every
    /// worker exhausted its budget).
    pub winner: Option<u32>,
    /// Learned clauses exported to the shared pool, summed over
    /// workers.
    pub exported: u64,
    /// Foreign clauses imported from the shared pool, summed over
    /// workers.
    pub imported: u64,
    /// Restarts, summed over workers.
    pub restarts: u64,
    /// Conflicts, summed over workers.
    pub conflicts: u64,
}

/// Apply worker `i`'s diversification (see the crate docs table).
/// Worker 0 is always the undiversified reference configuration.
fn diversify(s: &mut Solver, worker: usize, seed: u64) {
    let salt = (seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    match worker % 4 {
        0 => {
            if worker > 0 {
                // Workers 4, 8, …: reference heuristics, shuffled phases.
                s.randomize_polarities(salt);
            }
        }
        1 => {
            s.set_restart_base(256);
            s.set_default_polarity(true);
            s.set_var_decay(0.99);
            if worker > 1 {
                s.randomize_polarities(salt);
            }
        }
        2 => {
            s.set_restart_base(32);
            s.set_var_decay(0.90);
            s.randomize_polarities(salt);
            s.set_random_branching(salt, 128);
        }
        _ => {
            s.set_restart_base(1024);
            s.set_random_branching(salt, 64);
        }
    }
}

/// Run a portfolio solve over `master`'s clause set under `master`'s
/// installed [`Budget`].
///
/// Clones one diversified worker per thread, races (or rounds) them,
/// and returns the winning worker's answer. Side effects on `master`:
/// the shared pool is drained back into its clause database (so
/// follow-up solves — MUS shrinking, warm re-queries — reuse the
/// race's proofs) and the winning worker's counters are added to
/// `master.stats`.
///
/// With `cfg.threads <= 1` this is exactly
/// `master.solve_with_assumptions(assumptions)`.
pub fn solve_portfolio(
    master: &mut Solver,
    assumptions: &[Lit],
    cfg: &PortfolioConfig,
) -> (SolveResult, PortfolioSummary) {
    let n = cfg.threads;
    if n <= 1 {
        let result = master.solve_with_assumptions(assumptions);
        return (
            result,
            PortfolioSummary {
                workers: 1,
                winner: Some(0),
                ..PortfolioSummary::default()
            },
        );
    }
    if !master.is_ok() {
        return (
            SolveResult::Unsat(Vec::new()),
            PortfolioSummary {
                workers: 0,
                winner: None,
                ..PortfolioSummary::default()
            },
        );
    }

    let pool = Arc::new(SharedPool::new(
        n + 1, // one extra import cursor for the master drain below
        cfg.pool_bytes,
        cfg.deterministic,
    ));
    let caller_budget = master.budget().clone();
    let mut workers: Vec<Solver> = (0..n)
        .map(|i| {
            let mut w = master.clone();
            // reset_stats (not a plain `stats = default()`) also re-bases
            // the inprocessing schedule, so a worker's first inprocess
            // fires a fixed number of conflicts into *its own* run — a
            // pure function of worker state, as lockstep determinism
            // requires — rather than inheriting the master's countdown.
            w.reset_stats();
            w.set_conflict_budget(None);
            diversify(&mut w, i, cfg.seed);
            w.set_clause_exchange(
                i,
                Arc::clone(&pool) as Arc<dyn ClauseExchange>,
                cfg.export_lbd_max,
            );
            w
        })
        .collect();

    let (result, winner) = if cfg.deterministic {
        run_rounds(&mut workers, assumptions, &caller_budget, cfg, &pool)
    } else {
        run_race(&mut workers, assumptions, &caller_budget)
    };

    // Drain the pool into the master so later sequential work on it
    // (core minimization, warm re-queries) starts from the race's
    // proofs; fold the winner's counters into the master's.
    master.absorb_shared(pool.import(n));
    let agg = workers[winner.unwrap_or(0)].stats;
    master.stats.conflicts += agg.conflicts;
    master.stats.decisions += agg.decisions;
    master.stats.propagations += agg.propagations;
    master.stats.restarts += agg.restarts;
    master.stats.learned_clauses += agg.learned_clauses;
    master.stats.deleted_clauses += agg.deleted_clauses;
    master.stats.inprocessings += agg.inprocessings;
    master.stats.subsumed_clauses += agg.subsumed_clauses;
    master.stats.strengthened_clauses += agg.strengthened_clauses;
    master.stats.vivified_clauses += agg.vivified_clauses;
    master.stats.tier_demotions += agg.tier_demotions;
    master.stats.tier_promotions += agg.tier_promotions;

    let summary = PortfolioSummary {
        workers: n as u32,
        winner: winner.map(|w| w as u32),
        exported: workers.iter().map(|w| w.stats.exported_clauses).sum(),
        imported: workers.iter().map(|w| w.stats.imported_clauses).sum(),
        restarts: workers.iter().map(|w| w.stats.restarts).sum(),
        conflicts: workers.iter().map(|w| w.stats.conflicts).sum(),
    };
    // Per-worker telemetry: one child event per worker on the open
    // span (the solver's `search` span, when tracing is on). Gathered
    // after the join, so worker threads never touch the collector.
    let mut span = muppet_obs::span("portfolio");
    if span.is_recording() {
        span.record("workers", u64::from(summary.workers));
        span.record("exported", summary.exported);
        span.record("imported", summary.imported);
        if let Some(w) = summary.winner {
            span.record("winner", u64::from(w));
        }
        for (i, w) in workers.iter().enumerate() {
            span.child_event(
                "worker",
                &[
                    ("id", i as u64),
                    ("conflicts", w.stats.conflicts),
                    ("propagations", w.stats.propagations),
                    ("restarts", w.stats.restarts),
                    ("exported", w.stats.exported_clauses),
                    ("imported", w.stats.imported_clauses),
                    ("won", u64::from(winner == Some(i))),
                ],
            );
        }
    }
    drop(span);
    (result, summary)
}

/// Racing mode: all workers run freely; the first decisive answer
/// cancels the rest through a shared race token stacked on top of the
/// caller's budget (so a client-disconnect cancellation still reaches
/// every worker directly).
fn run_race(
    workers: &mut [Solver],
    assumptions: &[Lit],
    caller_budget: &Budget,
) -> (SolveResult, Option<usize>) {
    let race = muppet_sat::CancelToken::new();
    let (tx, rx) = mpsc::channel::<(usize, SolveResult)>();
    let n = workers.len();
    let mut decisive: Option<(usize, SolveResult)> = None;
    std::thread::scope(|scope| {
        for (i, w) in workers.iter_mut().enumerate() {
            let budget = caller_budget.clone().with_cancel(race.clone());
            let tx = tx.clone();
            scope.spawn(move || {
                w.set_budget(budget);
                let result = w.solve_with_assumptions(assumptions);
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        for _ in 0..n {
            let Ok((i, result)) = rx.recv() else { break };
            if decisive.is_none() && !matches!(result, SolveResult::Unknown) {
                decisive = Some((i, result));
                race.cancel(); // losers observe this at their next poll
            }
        }
    });
    match decisive {
        Some((i, result)) => (result, Some(i)),
        None => (SolveResult::Unknown, None),
    }
}

/// Deterministic mode: lockstep rounds of `slice_conflicts` per worker,
/// clause exchange sealed at round barriers, winner = lowest-id worker
/// that finished in the earliest round.
fn run_rounds(
    workers: &mut [Solver],
    assumptions: &[Lit],
    caller_budget: &Budget,
    cfg: &PortfolioConfig,
    pool: &Arc<SharedPool>,
) -> (SolveResult, Option<usize>) {
    let slice = cfg.slice_conflicts.max(1);
    let mut spent: u64 = 0; // per-worker conflicts granted so far
    loop {
        // Respect the caller's own conflict cap cumulatively.
        let round_slice = match caller_budget.conflict_cap() {
            Some(cap) if spent >= cap => return (SolveResult::Unknown, None),
            Some(cap) => slice.min(cap - spent),
            None => slice,
        };
        spent += round_slice;
        let mut results: Vec<SolveResult> = Vec::with_capacity(workers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|w| {
                    let budget = caller_budget.clone().with_conflict_cap(round_slice);
                    scope.spawn(move || {
                        w.set_budget(budget);
                        w.solve_with_assumptions(assumptions)
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap_or(SolveResult::Unknown));
            }
        });
        // Deterministic winner: lowest id with a decisive answer.
        for (i, r) in results.iter().enumerate() {
            if !matches!(r, SolveResult::Unknown) {
                return (results.swap_remove(i), Some(i));
            }
        }
        // Everyone ran out of slice; check the caller's own limits
        // before the next round (deadline / cancellation / caps).
        if caller_budget.poll().is_some() {
            return (SolveResult::Unknown, None);
        }
        pool.seal_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_sat::{CancelToken, Lit, Var};
    use std::time::{Duration, Instant};

    /// PHP(p, h): p pigeons into h holes; UNSAT iff p > h.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..holes {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause([Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
    }

    fn cfg(threads: usize) -> PortfolioConfig {
        PortfolioConfig {
            threads,
            pool_bytes: 1 << 20,
            ..PortfolioConfig::default()
        }
    }

    #[test]
    fn portfolio_agrees_with_sequential_unsat() {
        let mut seq = Solver::new();
        pigeonhole(&mut seq, 7, 6);
        let mut par = seq.clone();
        assert!(seq.solve().is_unsat());
        let (result, summary) = solve_portfolio(&mut par, &[], &cfg(4));
        assert!(result.is_unsat(), "{result:?}");
        assert_eq!(summary.workers, 4);
        assert!(summary.winner.is_some());
    }

    #[test]
    fn portfolio_agrees_with_sequential_sat() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 6);
        let (result, _) = solve_portfolio(&mut s, &[], &cfg(4));
        match result {
            SolveResult::Sat(_) => {}
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn portfolio_core_under_assumptions() {
        // x must be true; assuming ¬x yields a core containing ¬x.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x)]);
        s.add_clause([Lit::pos(y), Lit::neg(y)]);
        let assumptions = [Lit::neg(x)];
        let (result, _) = solve_portfolio(&mut s, &assumptions, &cfg(3));
        match result {
            SolveResult::Unsat(core) => assert!(core.contains(&Lit::neg(x))),
            r => panic!("expected unsat, got {r:?}"),
        }
    }

    #[test]
    fn deterministic_mode_reproduces_stats() {
        let det = PortfolioConfig {
            threads: 4,
            deterministic: true,
            slice_conflicts: 200,
            pool_bytes: 1 << 20,
            ..PortfolioConfig::default()
        };
        let run = || {
            let mut s = Solver::new();
            pigeonhole(&mut s, 8, 7);
            let (result, summary) = solve_portfolio(&mut s, &[], &det);
            (result.is_unsat(), summary)
        };
        let (unsat1, sum1) = run();
        let (unsat2, sum2) = run();
        assert!(unsat1 && unsat2);
        assert_eq!(sum1, sum2, "deterministic runs must match exactly");
        assert_eq!(sum1.winner, sum2.winner);
    }

    #[test]
    fn deterministic_mode_reproduces_stats_under_tier_pressure() {
        // A tight learnt cap keeps the workers' tiered clause DB (and
        // its reduction/demotion machinery) busy; lockstep replay must
        // still reproduce the winner and every counter byte-for-byte,
        // including the master-drained kernel counters.
        let det = PortfolioConfig {
            threads: 4,
            deterministic: true,
            slice_conflicts: 200,
            pool_bytes: 1 << 20,
            ..PortfolioConfig::default()
        };
        let run = || {
            let mut s = Solver::new();
            pigeonhole(&mut s, 8, 7);
            s.set_max_learnt(50);
            let (result, summary) = solve_portfolio(&mut s, &[], &det);
            (result.is_unsat(), summary, s.stats)
        };
        let (unsat1, sum1, stats1) = run();
        let (unsat2, sum2, stats2) = run();
        assert!(unsat1 && unsat2);
        assert_eq!(sum1, sum2, "deterministic runs must match exactly");
        assert_eq!(
            stats1.deleted_clauses, stats2.deleted_clauses,
            "tiered eviction must replay deterministically"
        );
        assert_eq!(stats1.tier_demotions, stats2.tier_demotions);
        assert_eq!(stats1.tier_promotions, stats2.tier_promotions);
        assert_eq!(stats1.inprocessings, stats2.inprocessings);
        assert_eq!(stats1.subsumed_clauses, stats2.subsumed_clauses);
        assert_eq!(stats1.strengthened_clauses, stats2.strengthened_clauses);
        assert_eq!(stats1.vivified_clauses, stats2.vivified_clauses);
    }

    #[test]
    fn caller_cancellation_reaches_all_workers() {
        // A hard instance raced under a caller token: cancelling the
        // token must bring the whole portfolio home promptly (workers
        // poll their budget at every conflict).
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                token.cancel();
            })
        };
        let mut s = Solver::new();
        pigeonhole(&mut s, 11, 10);
        s.set_budget(Budget::unlimited().with_cancel(token));
        let start = Instant::now();
        let (result, summary) = solve_portfolio(&mut s, &[], &cfg(4));
        let elapsed = start.elapsed();
        canceller.join().unwrap();
        if matches!(result, SolveResult::Unknown) {
            assert!(summary.winner.is_none());
            assert!(
                elapsed < Duration::from_secs(5),
                "cancellation took {elapsed:?}"
            );
        }
        // (If the portfolio actually solved PHP(11,10) in under 50ms,
        // the race legitimately beat the cancellation — also fine.)
    }

    #[test]
    fn clause_sharing_counts_flow() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        let share_heavy = PortfolioConfig {
            threads: 4,
            export_lbd_max: 12,
            pool_bytes: 1 << 20,
            ..PortfolioConfig::default()
        };
        let (result, summary) = solve_portfolio(&mut s, &[], &share_heavy);
        assert!(result.is_unsat());
        assert!(summary.exported > 0, "expected exports: {summary:?}");
    }

    #[test]
    fn master_keeps_working_after_portfolio() {
        // Incremental use: solve via portfolio, then add clauses and
        // solve again on the master.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        let (r1, _) = solve_portfolio(&mut s, &[], &cfg(2));
        assert!(r1.is_sat());
        s.add_clause([Lit::neg(a)]);
        s.add_clause([Lit::neg(b)]);
        let (r2, _) = solve_portfolio(&mut s, &[], &cfg(2));
        assert!(r2.is_unsat());
    }
}
