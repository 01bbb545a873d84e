//! # muppet-stream — streaming reconfiguration over live edit streams
//!
//! The incremental engine (DESIGN.md §13) made *one* edit cheap; this
//! crate makes **workloads** of edits the product (DESIGN.md §16). A
//! [`StreamSession`] holds the full two-party configuration state —
//! mesh, ban table, reachability table — plus a warm
//! [`PreparedStore`], and ingests a stream of typed
//! [`ConfigDelta`]s. After each delta it:
//!
//! 1. applies the edit to its [`StreamSpec`] (rebuilding the mesh
//!    vocabulary only when the edit touched the mesh — the vocabulary
//!    rebuild is content-driven, so an unchanged universe keeps the
//!    warm engine's variable layout byte-identical),
//! 2. names the dirtied CNF groups: those of the groups a reconcile
//!    would submit whose encoding keys the warm engine does not hold
//!    ([`muppet::Session::reconcile_group_signatures`]). Keys are a
//!    group's meaning, not its name or its bound-variable ids
//!    ([`muppet_solver::FormulaGroup::encoding_keys`]): re-translating
//!    the goal tables after a ban edit renumbers the bound variables of
//!    every later row and of the well-formedness axioms, and renames
//!    every later `k8s goal N` row, yet dirties at most the edited row,
//! 3. re-runs reconciliation multi-shot through
//!    [`muppet::Session::reconcile`] on a per-delta session that
//!    borrows the stream's store — groups the engine holds are reused
//!    from its key index, only new content is ground and encoded, and a
//!    group list the engine has solved before is answered from its
//!    memo without searching, so a ban toggled back, or a label or
//!    replica edit that leaves every goal as it was, costs neither
//!    encoding nor search — and
//! 4. hands the store the encoding keys the current state submits, so
//!    an engine whose retired groups own most of its variables is
//!    evicted and rebuilt from the live groups by the next delta
//!    ([`PreparedStore::compact`]) — without this, a stream that keeps
//!    retiring content it never brings back keeps every such group
//!    encoded forever and each solve pays for it, and
//! 5. reports a per-delta [`StreamStats`]: verdict, whether it flipped,
//!    dirtied group names, groups re-encoded vs reused, whether the
//!    answer was reused, the warm engine's size, whether it was
//!    compacted, and latency.
//!
//! Warm verdicts are **byte-identical** to re-solves of every
//! intermediate snapshot on a fresh session (canonical lex-min models +
//! ordered-deletion cores make the solve deterministic);
//! `tests/stream_props.rs` proves it differentially and the harness W1
//! lane gates it together with an amortized speedup floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::time::Instant;

use muppet::{MuppetError, ReconcileMode, Reconciliation, Session};
use muppet_domain::mesh::MeshWire;
use muppet_goals::{IstioGoal, K8sGoal};
use muppet_logic::PartyId;
use muppet_mesh::{Mesh, MeshVocab};
use muppet_scenario::stream::{ConfigDelta, DeltaError};
use muppet_scenario::Scenario;
use muppet_solver::PreparedStore;

/// The configuration state a stream session evolves: the mesh plus both
/// parties' goal tables. [`StreamSpec::session`] assembles its session
/// with the mesh domain's one builder ([`muppet_domain::mesh::session`]),
/// as [`Scenario::session`] and the daemon's `open_session` do, which is
/// what makes warm stream verdicts byte-comparable to a cold oracle.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// The service mesh.
    pub mesh: Mesh,
    /// Cluster-admin DENY rows.
    pub k8s_goals: Vec<K8sGoal>,
    /// Mesh-admin reachability rows.
    pub istio_goals: Vec<IstioGoal>,
    /// Spare ports added to the universe.
    pub extra_ports: Vec<u16>,
    /// Attach tight party offers (required at ≳500 services).
    pub bounded: bool,
}

impl From<&Scenario> for StreamSpec {
    fn from(s: &Scenario) -> StreamSpec {
        StreamSpec {
            mesh: s.mesh.clone(),
            k8s_goals: s.k8s_goals.clone(),
            istio_goals: s.istio_goals.clone(),
            extra_ports: s.extra_port_list(),
            bounded: s.params.bounded,
        }
    }
}

impl StreamSpec {
    /// Build a stream spec from wire content: concatenated YAML
    /// manifests plus the *raw* CSV goal tables (a stream edits rows,
    /// so it keeps them untranslated). The spare ports are the port set
    /// [`MeshWire::parse`] derives — goal ports,
    /// deployed-policy ports and `extra_ports` — the same universe the
    /// daemon's `open_session` builds. This is the daemon `watch` entry
    /// point; deployed policies widen the universe but are not solved
    /// against (a stream solves goals, as `reconcile` does).
    pub fn from_wire(
        manifests: &str,
        k8s_csv: &str,
        istio_csv: &str,
        extra_ports: &[u16],
    ) -> Result<StreamSpec, String> {
        let wire = MeshWire::parse(manifests, k8s_csv, istio_csv, extra_ports)?;
        Ok(StreamSpec {
            mesh: wire.bundle.mesh,
            k8s_goals: wire.k8s_goals,
            istio_goals: wire.istio_goals,
            extra_ports: wire.ports.into_iter().collect(),
            bounded: false,
        })
    }

    /// Build the vocabulary for the current mesh + extra ports.
    pub fn vocab(&self) -> MeshVocab {
        MeshVocab::new(
            &self.mesh,
            self.extra_ports.iter().copied(),
            PartyId(0),
            PartyId(1),
        )
    }

    /// Build the two-party session over a prebuilt vocabulary, with
    /// tight offers iff `bounded`.
    pub fn session<'a>(&self, mv: &'a MeshVocab) -> Result<Session<'a>, StreamError> {
        let spare = self.bounded.then_some(self.extra_ports.as_slice());
        muppet_domain::mesh::session(mv, &self.k8s_goals, &self.istio_goals, spare)
            .map_err(StreamError::Goals)
    }
}

/// Why a stream push failed. The session state is left as the delta
/// left it (for [`StreamError::Delta`], untouched).
#[derive(Debug)]
pub enum StreamError {
    /// The delta was invalid against the current state.
    Delta(DeltaError),
    /// A goal table no longer translates (e.g. a row references a
    /// service a delta removed out from under it).
    Goals(String),
    /// The solve pipeline failed.
    Engine(MuppetError),
    /// The solve ran out of budget before a verdict.
    Exhausted(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Delta(e) => write!(f, "delta rejected: {e}"),
            StreamError::Goals(e) => write!(f, "goal translation failed: {e}"),
            StreamError::Engine(e) => write!(f, "solve failed: {e}"),
            StreamError::Exhausted(p) => write!(f, "solve exhausted in {p}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DeltaError> for StreamError {
    fn from(e: DeltaError) -> StreamError {
        StreamError::Delta(e)
    }
}

/// What one delta cost and changed.
#[derive(Clone, Debug)]
pub struct StreamStats {
    /// Sequence number (0 is the initial solve at session start).
    pub seq: u64,
    /// Delta kind tag (`"initial"` for the session-start solve).
    pub kind: &'static str,
    /// The canonical verdict line after this delta.
    pub verdict: String,
    /// Did the verdict change relative to the previous state?
    pub flipped: bool,
    /// Names of the formula groups this delta's solve ground and
    /// encoded: those whose encoding key the warm engine did not hold
    /// (each key once). A state the stream has been in before dirties
    /// nothing.
    pub dirtied: Vec<String>,
    /// Groups ground+encoded by this solve.
    pub groups_encoded: u64,
    /// Groups reused from the warm engine's key index.
    pub groups_reused: u64,
    /// Was the verdict the warm engine's memoized answer to a group
    /// list it had already solved, given without searching?
    pub answer_reused: bool,
    /// Did the delta force a vocabulary (universe) rebuild?
    pub vocab_rebuilt: bool,
    /// Solver variables the warm store holds after this delta,
    /// compaction included (0 right after its only engine was evicted).
    pub engine_vars: u64,
    /// Did this delta evict a warm engine dominated by retired groups
    /// (the next delta rebuilds it from the live groups)?
    pub compacted: bool,
    /// Wall-clock latency of apply + solve, in microseconds.
    pub elapsed_us: u64,
}

/// The canonical verdict line of a reconciliation: `sat` plus the
/// per-party configurations, or `unsat` plus the blamed core. Debug
/// formatting over `BTreeMap`s is deterministic, and every solve
/// produces the canonical (lex-min) model or ordered-deletion core at
/// every instance size, so equal states render byte-identical lines
/// warm or cold — the W1 lane and the differential proptests compare
/// exactly these strings.
pub fn verdict_line(rec: &Reconciliation) -> String {
    if rec.success {
        format!("sat {:?}", rec.configs)
    } else {
        format!("unsat {:?}", rec.core)
    }
}

/// A warm multi-shot solving session over a live config edit stream.
pub struct StreamSession {
    spec: StreamSpec,
    mv: MeshVocab,
    store: PreparedStore,
    seq: u64,
    verdict: String,
    prev_keys: BTreeSet<u128>,
}

impl StreamSession {
    /// Open a session: builds the vocabulary, solves the initial state
    /// (seq 0, kind `"initial"`) and leaves the engine warm.
    pub fn new(spec: StreamSpec) -> Result<(StreamSession, StreamStats), StreamError> {
        let mv = spec.vocab();
        let mut session = StreamSession {
            spec,
            mv,
            store: PreparedStore::new(),
            seq: 0,
            verdict: String::new(),
            prev_keys: BTreeSet::new(),
        };
        let stats = session.solve_current(Instant::now(), "initial", true)?;
        Ok((session, stats))
    }

    /// Apply one delta and re-solve warm. On `Err(Delta(..))` the state
    /// is untouched and the previous verdict stands.
    pub fn push(&mut self, delta: &ConfigDelta) -> Result<StreamStats, StreamError> {
        let start = Instant::now();
        let mesh_dirty = delta.apply_parts(
            &mut self.spec.mesh,
            &mut self.spec.k8s_goals,
            &mut self.spec.istio_goals,
        )?;
        if mesh_dirty {
            // Content-driven rebuild: if the edit left the universe's
            // atom content identical (e.g. a replica-scale label), the
            // warm key — and with it the live engine — is preserved.
            self.mv = self.spec.vocab();
        }
        self.solve_current(start, delta.kind(), mesh_dirty)
    }

    /// Solve the current state through the warm store and diff the
    /// group fingerprints against the previous solve.
    fn solve_current(
        &mut self,
        start: Instant,
        kind: &'static str,
        vocab_rebuilt: bool,
    ) -> Result<StreamStats, StreamError> {
        let mut session = self.spec.session(&self.mv)?;
        // Lend the warm store to this delta's session and take it back
        // before looking at the result, so an error keeps it too.
        std::mem::swap(session.store_mut(), &mut self.store);
        let sigs = session.reconcile_group_signatures(ReconcileMode::HardBounds);
        // An exact duplicate shares its encoding: name it once.
        let mut new_keys = BTreeSet::new();
        let dirtied: Vec<String> = sigs
            .iter()
            .filter(|sig| !sig.encoded && new_keys.insert(sig.key))
            .map(|sig| sig.name.clone())
            .collect();
        let (enc_before, reuse_before) = session.store().group_counters();
        let answers_before = session.store().answers_reused();
        let rec = session.reconcile(ReconcileMode::HardBounds);
        let (enc_after, reuse_after) = session.store().group_counters();
        let answer_reused = session.store().answers_reused() > answers_before;
        std::mem::swap(session.store_mut(), &mut self.store);
        let rec = rec.map_err(StreamError::Engine)?;
        if let Some(ex) = &rec.exhausted {
            return Err(StreamError::Exhausted(format!("{:?}", ex.phase)));
        }
        let verdict = verdict_line(&rec);
        let flipped = self.seq > 0 && verdict != self.verdict;
        self.prev_keys = sigs.into_iter().map(|sig| sig.key).collect();
        let compacted = self.store.compact(&self.prev_keys) > 0;
        let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let stats = StreamStats {
            seq: self.seq,
            kind,
            verdict: verdict.clone(),
            flipped,
            dirtied,
            groups_encoded: enc_after - enc_before,
            groups_reused: reuse_after - reuse_before,
            answer_reused,
            vocab_rebuilt,
            engine_vars: self.store.num_vars() as u64,
            compacted,
            elapsed_us,
        };
        self.verdict = verdict;
        self.seq += 1;
        Ok(stats)
    }

    /// The current verdict line.
    pub fn verdict(&self) -> &str {
        &self.verdict
    }

    /// Deltas solved so far, counting the initial solve.
    pub fn solves(&self) -> u64 {
        self.seq
    }

    /// The current configuration state.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Lifetime `(encoded, reused)` group counters of the warm store.
    pub fn group_counters(&self) -> (u64, u64) {
        self.store.group_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_scenario::stream::{generate_stream, StreamParams, StreamProfile};
    use muppet_scenario::{generate, ScenarioParams};

    fn small_params() -> ScenarioParams {
        ScenarioParams {
            services: 6,
            ports_per_service: 2,
            extra_ports: 2,
            istio_goals: 4,
            k8s_goals: 1,
            port_pool: 4,
            ..ScenarioParams::default()
        }
    }

    #[test]
    fn warm_stream_matches_cold_oracle() {
        let stream = generate_stream(StreamParams {
            base: small_params(),
            profile: StreamProfile::Mixed,
            deltas: 20,
            target_services: 0,
            seed: 5,
        });
        let (mut session, initial) = StreamSession::new(StreamSpec::from(&stream.base)).unwrap();
        assert_eq!(initial.kind, "initial");
        assert!(!initial.flipped);

        let mut cold = generate(stream.params.base);
        assert_eq!(
            initial.verdict,
            verdict_line(&cold.session(false).reconcile(ReconcileMode::HardBounds).unwrap())
        );
        let mut flips_seen = 0;
        for d in &stream.deltas {
            let warm = session.push(d).unwrap();
            d.apply(&mut cold).unwrap();
            let cold_rec = cold
                .session(false)
                .reconcile(ReconcileMode::HardBounds)
                .unwrap();
            assert_eq!(warm.verdict, verdict_line(&cold_rec), "delta {}", warm.seq);
            if warm.flipped {
                flips_seen += 1;
            }
        }
        assert_eq!(session.solves(), 21);
        // The warm engine actually reused groups across the stream.
        let (_, reused) = session.group_counters();
        assert!(reused > 0, "no warm group reuse across 20 deltas");
        let _ = flips_seen; // mixed streams may or may not flip; counted for debug
    }

    /// Every port of the scenario's universe: the services' ports and
    /// the spare ones.
    fn universe_ports(sc: &muppet_scenario::Scenario) -> BTreeSet<u16> {
        let mut ports: BTreeSet<u16> = sc.extra_port_list().into_iter().collect();
        for svc in sc.mesh.services() {
            ports.extend(svc.ports.iter().copied());
        }
        ports
    }

    /// Ban upserts and drops whose every retired group is content the
    /// stream has not seen: for each port of the universe, a ban on
    /// each of `All` and every single service, dropped again straight
    /// away. (A ban on a port or selector that was banned before
    /// reuses its earlier encoding.)
    fn novel_ban_toggles(sc: &muppet_scenario::Scenario) -> Vec<ConfigDelta> {
        use muppet_mesh::Selector;
        let selectors: Vec<Selector> = std::iter::once(Selector::All)
            .chain(sc.mesh.services().iter().map(|s| Selector::Name(s.name.clone())))
            .collect();
        let mut deltas = Vec::new();
        for port in universe_ports(sc) {
            for selector in &selectors {
                if sc.k8s_goals.iter().any(|g| g.port == port && &g.selector == selector) {
                    continue;
                }
                deltas.push(ConfigDelta::UpsertBan {
                    port,
                    selector: selector.clone(),
                });
                deltas.push(ConfigDelta::DropBan { port });
            }
        }
        deltas
    }

    /// Ban toggles over an unbounded mesh that keep retiring new
    /// content make the warm engine compact — and compacting must
    /// change no verdict and keep the engine within twice the size a
    /// fresh engine needs for the same state.
    #[test]
    fn compaction_bounds_the_engine_and_keeps_verdicts() {
        for seed in 0..3 {
            let params = ScenarioParams {
                services: 4,
                seed,
                ..small_params()
            };
            let mut cold = generate(params);
            let deltas = novel_ban_toggles(&cold);
            let (mut session, _) = StreamSession::new(StreamSpec::from(&cold)).unwrap();
            let mut compactions = 0;
            for d in &deltas {
                let warm = session.push(d).unwrap();
                d.apply(&mut cold).unwrap();
                let mut fresh = cold.session(false);
                let cold_rec = fresh.reconcile(ReconcileMode::HardBounds).unwrap();
                assert_eq!(warm.verdict, verdict_line(&cold_rec), "seed {seed} delta {}", warm.seq);
                let fresh_vars = fresh.store().num_vars() as u64;
                assert!(
                    warm.engine_vars <= 2 * fresh_vars,
                    "seed {seed} delta {}: warm engine holds {} vars, a fresh one {fresh_vars}",
                    warm.seq,
                    warm.engine_vars
                );
                compactions += u32::from(warm.compacted);
            }
            assert!(compactions >= 1, "seed {seed}: the engine never compacted");
        }
    }

    /// A ban toggled on and back off returns the stream to a state it
    /// has solved before, and so does moving a ban row to the end of
    /// the table, which renames it and every row after it: neither
    /// return delta encodes a group.
    #[test]
    fn toggling_a_ban_back_encodes_nothing() {
        use muppet_mesh::Selector;
        let sc = generate(small_params());
        let (mut session, _) = StreamSession::new(StreamSpec::from(&sc)).unwrap();
        let free: Vec<u16> = universe_ports(&sc)
            .into_iter()
            .filter(|&p| sc.k8s_goals.iter().all(|g| g.port != p))
            .collect();
        let ban = |port| ConfigDelta::UpsertBan {
            port,
            selector: Selector::All,
        };
        // A second row, so that moving the first renames both.
        let before = session.push(&ban(free[0])).unwrap();
        let first = sc.k8s_goals[0].clone();
        let deltas = [
            ban(free[1]),
            ConfigDelta::DropBan { port: free[1] },
            ConfigDelta::DropBan { port: first.port },
            ConfigDelta::UpsertBan {
                port: first.port,
                selector: first.selector.clone(),
            },
        ];
        let stats: Vec<StreamStats> = deltas.iter().map(|d| session.push(d).unwrap()).collect();
        assert!(stats[0].groups_encoded >= 1, "a ban on a new port is new content");
        assert_eq!(stats[0].dirtied.len() as u64, stats[0].groups_encoded);
        assert_eq!(stats[1].verdict, before.verdict);
        assert!(stats[1].answer_reused, "the state before the ban was solved already");
        for s in &stats[1..] {
            assert_eq!(s.groups_encoded, 0, "delta {} encoded {:?}", s.seq, s.dirtied);
            assert!(s.dirtied.is_empty(), "delta {} dirtied {:?}", s.seq, s.dirtied);
        }
        let ports: Vec<u16> = session.spec().k8s_goals.iter().map(|g| g.port).collect();
        assert_eq!(ports, [free[0], first.port], "the first row moved to the end");
    }

    #[test]
    fn goal_edit_dirties_one_group() {
        // A pure goal-row edit over a fixed mesh must dirty exactly the
        // edited row's group and reuse everything else.
        let sc = generate(small_params());
        let (mut session, _) = StreamSession::new(StreamSpec::from(&sc)).unwrap();
        // Retarget the row at a different concrete port (a pool port is
        // always in the universe); a concrete→concrete edit keeps the
        // vocabulary's variable allocation — and with it every other
        // group's content — untouched.
        let goal = sc.istio_goals[0].clone();
        let old_port = match goal.dst_port {
            muppet_goals::PortSpec::Port(p) => p,
            other => panic!("expected concrete port, got {other:?}"),
        };
        let new_port = (7000..7004).find(|&p| p != old_port).unwrap();
        let target = muppet_goals::IstioGoal {
            dst_port: muppet_goals::PortSpec::Port(new_port),
            ..goal
        };
        let stats = session
            .push(&ConfigDelta::UpsertGoal {
                index: 0,
                goal: target,
            })
            .unwrap();
        assert!(!stats.vocab_rebuilt);
        assert_eq!(stats.dirtied.len(), 1, "dirtied {:?}", stats.dirtied);
        assert_eq!(stats.groups_encoded, 1);
        assert!(stats.groups_reused > 0);
    }

    #[test]
    fn invalid_delta_leaves_state_untouched() {
        let sc = generate(small_params());
        let (mut session, initial) = StreamSession::new(StreamSpec::from(&sc)).unwrap();
        let before = session.spec().clone();
        let err = session
            .push(&ConfigDelta::RemoveService {
                name: "no-such-svc".into(),
            })
            .unwrap_err();
        assert!(matches!(err, StreamError::Delta(DeltaError::UnknownService(_))));
        assert_eq!(session.spec().mesh, before.mesh);
        assert_eq!(session.verdict(), initial.verdict);
        assert_eq!(session.solves(), 1);
    }
}
