//! Goal-to-formula translation (the "substitution using a formalization
//! of network and authorization policy semantics" of Sec. 4.3).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;

use muppet_logic::{simplify, Formula, RelId, Term, VarId};
use muppet_mesh::{Action, MeshVocab, ServiceUniverse};

use crate::model::{GoalParseError, IstioGoal, K8sGoal, PortSpec};

/// A named formula: the unit of blame in solver queries. The name is the
/// goal row it came from (e.g. `"k8s goal 1: DENY port 23"`).
#[derive(Clone, Debug)]
pub struct NamedFormula {
    /// Display name.
    pub name: String,
    /// The translated formula (closed).
    pub formula: Formula,
    /// Human-readable names for any quantified variables introduced,
    /// for pretty-printing.
    pub var_names: Vec<(VarId, String)>,
}

impl From<NamedFormula> for muppet::NamedGoal {
    fn from(nf: NamedFormula) -> muppet::NamedGoal {
        muppet::NamedGoal {
            name: nf.name,
            formula: nf.formula,
            var_names: nf.var_names,
            hard: true,
        }
    }
}

/// What the goal language reads of a domain: its Service/Port universe
/// (through `Deref`), the `listens` relation, the domain's `allowed`
/// semantics, and the names its two goal tables give their rows. A
/// domain whose policies decide `allowed(src, dst, port)` over a
/// [`ServiceUniverse`] implements this and gets both goal tables.
pub trait GoalVocab: Deref<Target = ServiceUniverse> {
    /// Row-name prefix of the `port,perm,selector` table (`"k8s goal"`).
    const PORT_ROWS: &'static str;
    /// Row-name prefix of the reachability table (`"istio goal"`).
    const REACH_ROWS: &'static str;

    /// `listens(Service, Port)`: the ports a destination serves.
    fn listens(&self) -> RelId;

    /// `allowed(src, dst, dport)` under the domain's policy semantics.
    fn allowed_formula(&self, src: Term, dst: Term, dport: Term) -> Formula;
}

impl GoalVocab for MeshVocab {
    const PORT_ROWS: &'static str = "k8s goal";
    const REACH_ROWS: &'static str = "istio goal";

    fn listens(&self) -> RelId {
        self.listens
    }

    fn allowed_formula(&self, src: Term, dst: Term, dport: Term) -> Formula {
        MeshVocab::allowed_formula(self, src, dst, dport)
    }
}

/// Every concrete port mentioned in the goal tables — callers must put
/// these in the [`ServiceUniverse`] port universe.
pub fn collect_goal_ports<'a>(
    k8s: impl IntoIterator<Item = &'a K8sGoal>,
    istio: &[IstioGoal],
) -> BTreeSet<u16> {
    let mut out = BTreeSet::new();
    for g in k8s {
        out.insert(g.port);
    }
    for g in istio {
        for spec in [&g.src_port, &g.dst_port] {
            if let PortSpec::Port(p) = spec {
                out.insert(*p);
            }
        }
    }
    out
}

/// Translate K8s goal rows, numbering them from 1 ([`translate_k8s_row`]).
pub fn translate_k8s_goals<V: GoalVocab>(
    goals: &[K8sGoal],
    dv: &V,
    vocab: &mut muppet_logic::Vocabulary,
) -> Result<Vec<NamedFormula>, GoalParseError> {
    goals
        .iter()
        .enumerate()
        .map(|(i, g)| translate_k8s_row(i + 1, g, dv, vocab))
        .collect()
}

/// Translate one K8s goal row, named as row `row` of its table:
///
/// * `DENY p sel`: `∀ src, dst · sel(dst) ⇒ ¬allowed(src, dst, p)`
/// * `ALLOW p sel`: `∀ src, dst · (sel(dst) ∧ listens(dst, p) ∧ src ≠ dst)
///   ⇒ allowed(src, dst, p)`
///
/// Selectors are expanded against the mesh (they are structure, not
/// configuration), so the emitted formula quantifies only over services.
pub fn translate_k8s_row<V: GoalVocab>(
    row: usize,
    g: &K8sGoal,
    dv: &V,
    vocab: &mut muppet_logic::Vocabulary,
) -> Result<NamedFormula, GoalParseError> {
    let port_atom = dv.port_atom(g.port).ok_or_else(|| GoalParseError {
        message: format!("goal port {} missing from the port universe", g.port),
    })?;
    let src = vocab.fresh_var();
    let dst = vocab.fresh_var();
    // Expand the selector over the mesh: the set of covered dsts.
    let covered: Vec<_> = dv
        .mesh()
        .select(&g.selector)
        .iter()
        .map(|s| dv.atom_of(s))
        .collect();
    let all_covered = covered.len() == dv.mesh().services().len();
    // Build the per-destination body with `dst` either a quantified
    // variable (selector covers everything — keeps the Fig. 5
    // `all dst: Service` shape) or each covered constant.
    let body_for = |dst_term: Term| match g.perm {
        Action::Deny => Formula::not(dv.allowed_formula(
            Term::Var(src),
            dst_term,
            Term::Const(port_atom),
        )),
        Action::Allow => Formula::implies(
            Formula::and([
                Formula::pred(dv.listens(), [dst_term, Term::Const(port_atom)]),
                Formula::not(Formula::Eq(Term::Var(src), dst_term)),
            ]),
            dv.allowed_formula(Term::Var(src), dst_term, Term::Const(port_atom)),
        ),
    };
    let quantified = if all_covered {
        Formula::forall(
            src,
            dv.svc_sort,
            Formula::forall(dst, dv.svc_sort, body_for(Term::Var(dst))),
        )
    } else {
        Formula::and(
            covered
                .iter()
                .map(|&d| Formula::forall(src, dv.svc_sort, body_for(Term::Const(d))))
                .collect::<Vec<_>>(),
        )
    };
    let perm = match g.perm {
        Action::Deny => "DENY",
        Action::Allow => "ALLOW",
    };
    Ok(NamedFormula {
        name: format!("{} {row}: {perm} port {}", V::PORT_ROWS, g.port),
        formula: simplify(&quantified),
        var_names: vec![(src, "src".to_string()), (dst, "dst".to_string())],
    })
}

/// Translate Istio goal rows.
///
/// Each row `src, dst, sp, dp` asserts reachability:
/// `∃ (vars) · allowed(src, dst, dp)` — with concrete ports used
/// directly, `*` cells given fresh private variables, and named `?v`
/// cells sharing one variable per name *across the whole table* (Fig. 4:
/// "the variables capturing which must be the same"). Rows connected by
/// a shared variable are merged into one named formula, because their
/// truth is coupled; independent rows stay separate for precise blame.
pub fn translate_istio_goals<V: GoalVocab>(
    goals: &[IstioGoal],
    dv: &V,
    vocab: &mut muppet_logic::Vocabulary,
) -> Result<Vec<NamedFormula>, GoalParseError> {
    // Union-find-lite over rows sharing variable names.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut var_owner: BTreeMap<String, usize> = BTreeMap::new();
    for (i, g) in goals.iter().enumerate() {
        let names: Vec<&str> = [&g.src_port, &g.dst_port]
            .into_iter()
            .filter_map(PortSpec::var_name)
            .collect();
        let mut target: Option<usize> = None;
        for n in &names {
            if let Some(&gidx) = var_owner.get(*n) {
                target = Some(match target {
                    Some(t) if t != gidx => {
                        // Merge gidx into t.
                        let moved = std::mem::take(&mut groups[gidx]);
                        groups[t].extend(moved);
                        for owner in var_owner.values_mut() {
                            if *owner == gidx {
                                *owner = t;
                            }
                        }
                        t
                    }
                    Some(t) => t,
                    None => gidx,
                });
            }
        }
        let gidx = match target {
            Some(t) => t,
            None => {
                groups.push(Vec::new());
                groups.len() - 1
            }
        };
        groups[gidx].push(i);
        for n in names {
            var_owner.insert(n.to_string(), gidx);
        }
    }

    let mut out = Vec::new();
    for rows in groups.iter().filter(|g| !g.is_empty()) {
        let mut vars: BTreeMap<String, VarId> = BTreeMap::new();
        let mut var_names = Vec::new();
        let mut order: Vec<VarId> = Vec::new();
        let mut conjuncts = Vec::new();
        for &i in rows {
            let g = &goals[i];
            let src_atom = dv.svc_atom(&g.src).ok_or_else(|| GoalParseError {
                message: format!("unknown source service {:?}", g.src),
            })?;
            let dst_atom = dv.svc_atom(&g.dst).ok_or_else(|| GoalParseError {
                message: format!("unknown destination service {:?}", g.dst),
            })?;
            // Bind both port cells (src ports bind but do not constrain).
            let mut bind = |spec: &PortSpec,
                            label: &str|
             -> Result<Term, GoalParseError> {
                match spec {
                    PortSpec::Port(p) => {
                        let atom = dv.port_atom(*p).ok_or_else(|| GoalParseError {
                            message: format!("goal port {p} missing from the port universe"),
                        })?;
                        Ok(Term::Const(atom))
                    }
                    PortSpec::Var(name) => {
                        let v = *vars.entry(name.clone()).or_insert_with(|| {
                            let v = vocab.fresh_var();
                            order.push(v);
                            var_names.push((v, name.clone()));
                            v
                        });
                        Ok(Term::Var(v))
                    }
                    PortSpec::Any => {
                        let v = vocab.fresh_var();
                        order.push(v);
                        var_names.push((v, format!("any_{label}_{i}")));
                        Ok(Term::Var(v))
                    }
                }
            };
            let _sp = bind(&g.src_port, "sp")?;
            let dp = bind(&g.dst_port, "dp")?;
            conjuncts.push(dv.allowed_formula(
                Term::Const(src_atom),
                Term::Const(dst_atom),
                dp,
            ));
        }
        let mut formula = Formula::and(conjuncts);
        for v in order.into_iter().rev() {
            formula = Formula::exists(v, dv.port_sort, formula);
        }
        let formula = simplify(&formula);
        let name = if rows.len() == 1 {
            let g = &goals[rows[0]];
            format!(
                "{} {}: {} -> {} ({})",
                V::REACH_ROWS,
                rows[0] + 1,
                g.src,
                g.dst,
                describe_port(&g.dst_port)
            )
        } else {
            format!(
                "{}s {} (coupled by shared port variables)",
                V::REACH_ROWS,
                rows.iter()
                    .map(|i| (i + 1).to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            )
        };
        out.push(NamedFormula {
            name,
            formula,
            var_names,
        });
    }
    Ok(out)
}

fn describe_port(spec: &PortSpec) -> String {
    match spec {
        PortSpec::Port(p) => format!("port {p}"),
        PortSpec::Var(v) => format!("port ∃{v}"),
        PortSpec::Any => "any port".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig2;
    use muppet_logic::evaluate_closed;
    use muppet_mesh::NetworkPolicy;

    fn mv() -> MeshVocab {
        MeshVocab::paper_example()
    }

    #[test]
    fn k8s_deny_goal_holds_iff_ban_deployed() {
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = translate_k8s_goals(&fig2(), &mv, &mut vocab).unwrap();
        assert_eq!(goals.len(), 1);
        let f = &goals[0].formula;
        // Open mesh: backend can reach frontend:23, so the DENY goal fails.
        let st = mv.structure_instance();
        assert!(!evaluate_closed(f, &st, &mv.universe).unwrap());
        // With the ban compiled in, the goal holds.
        let ban = mv
            .compile_k8s(&[NetworkPolicy::deny_port_for_all("ban", 23)])
            .unwrap();
        assert!(evaluate_closed(f, &st.union(&ban), &mv.universe).unwrap());
    }

    #[test]
    fn istio_fig3_goals_hold_on_open_mesh() {
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = translate_istio_goals(&IstioGoal::fig3(), &mv, &mut vocab).unwrap();
        assert_eq!(goals.len(), 4); // no shared vars: one group per row
        let st = mv.structure_instance();
        for g in &goals {
            assert!(
                evaluate_closed(&g.formula, &st, &mv.universe).unwrap(),
                "goal {} should hold on the open mesh",
                g.name
            );
        }
    }

    #[test]
    fn fig3_goal2_fails_under_port_ban() {
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = translate_istio_goals(&IstioGoal::fig3(), &mv, &mut vocab).unwrap();
        let st = mv.structure_instance();
        let ban = mv
            .compile_k8s(&[NetworkPolicy::deny_port_for_all("ban", 23)])
            .unwrap();
        let combined = st.union(&ban);
        let results: Vec<bool> = goals
            .iter()
            .map(|g| evaluate_closed(&g.formula, &combined, &mv.universe).unwrap())
            .collect();
        // Only the backend → frontend:23 goal (row 2) breaks.
        assert_eq!(results, vec![true, false, true, true]);
    }

    #[test]
    fn fig4_relaxed_goals_survive_port_ban() {
        // The existential port variables let the backend → frontend goal
        // be met on a different port... but only if frontend listens on
        // one. Frontend only listens on 23 in the paper mesh, so the ∃
        // must range over ports where `listens` can hold — with structure
        // fixed, the goal is *not* satisfiable by evaluation alone, which
        // is exactly why Fig. 4 relaxation needs the synthesizer to pick
        // ports harmonious with both sides. Here we check the formula
        // shape: rows 1–2 have existential quantifiers.
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = translate_istio_goals(&IstioGoal::fig4(), &mv, &mut vocab).unwrap();
        assert_eq!(goals.len(), 4);
        let quantified = goals
            .iter()
            .filter(|g| matches!(g.formula, Formula::Exists(_, _, _)))
            .count();
        assert_eq!(quantified, 2);
    }

    #[test]
    fn shared_variables_couple_rows() {
        let rows = IstioGoal::parse_csv(
            "srcService,dstService,srcPort,dstPort\n\
             test-frontend,test-backend,*,?p\n\
             test-backend,test-db,*,?p\n\
             test-db,test-backend,*,12000\n",
        )
        .unwrap();
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = translate_istio_goals(&rows, &mv, &mut vocab).unwrap();
        // Rows 1 and 2 share ?p: merged; row 3 separate.
        assert_eq!(goals.len(), 2);
        assert!(goals.iter().any(|g| g.name.contains("1+2")));
    }

    #[test]
    fn transitive_variable_sharing_merges_groups() {
        let rows = IstioGoal::parse_csv(
            "srcService,dstService,srcPort,dstPort\n\
             test-frontend,test-backend,?a,?b\n\
             test-backend,test-db,?c,?a\n\
             test-db,test-backend,?b,?c\n",
        )
        .unwrap();
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = translate_istio_goals(&rows, &mv, &mut vocab).unwrap();
        assert_eq!(goals.len(), 1);
    }

    #[test]
    fn unknown_services_and_ports_are_errors() {
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let rows = IstioGoal::parse_csv("ghost,test-db,1,16000\n").unwrap();
        assert!(translate_istio_goals(&rows, &mv, &mut vocab).is_err());
        let rows = IstioGoal::parse_csv("test-db,test-backend,1,40000\n").unwrap();
        assert!(translate_istio_goals(&rows, &mv, &mut vocab).is_err());
        let bad_port_goal = K8sGoal::parse_csv("40000,DENY,*\n").unwrap();
        assert!(translate_k8s_goals(&bad_port_goal, &mv, &mut vocab).is_err());
    }

    #[test]
    fn goal_ports_collector() {
        let k8s = fig2();
        let istio = IstioGoal::fig4();
        let ports = collect_goal_ports(&k8s, &istio);
        assert!(ports.contains(&23));
        assert!(ports.contains(&16000));
        assert!(ports.contains(&10000));
        assert!(!ports.contains(&24)); // fig4 replaced 24 with ?w
    }

    #[test]
    fn k8s_allow_goal_semantics() {
        // ALLOW 25 on test-backend: every other service must reach
        // backend:25.
        let mv = mv();
        let mut vocab = mv.vocab.clone();
        let goals = K8sGoal::parse_csv("25,ALLOW,test-backend\n").unwrap();
        let named = translate_k8s_goals(&goals, &mv, &mut vocab).unwrap();
        let st = mv.structure_instance();
        assert!(evaluate_closed(&named[0].formula, &st, &mv.universe).unwrap());
        // An Istio egress lockdown on the frontend breaks it.
        let lockdown = mv
            .compile_istio(&[muppet_mesh::AuthorizationPolicy {
                name: "fe-lockdown".into(),
                selector: muppet_mesh::Selector::Name("test-frontend".into()),
                direction: muppet_mesh::Direction::Egress,
                action: muppet_mesh::Action::Allow,
                rules: vec![], // allow nothing
            }])
            .unwrap();
        assert!(
            !evaluate_closed(&named[0].formula, &st.union(&lockdown), &mv.universe).unwrap()
        );
    }
}
