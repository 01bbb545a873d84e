//! Goal row types and their CSV readers.

use std::fmt;

use muppet_mesh::{Action, Selector};

use crate::csv::parse_csv;

/// Errors from goal-file parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoalParseError {
    /// Description, including the offending row.
    pub message: String,
}

impl fmt::Display for GoalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "goal parse error: {}", self.message)
    }
}

impl std::error::Error for GoalParseError {}

fn err(msg: impl Into<String>) -> GoalParseError {
    GoalParseError {
        message: msg.into(),
    }
}

/// A K8s administrator goal row (Fig. 2): `port, perm, selector`.
///
/// * `DENY`: no flow to `port` may reach any selected destination.
/// * `ALLOW`: every selected destination listening on `port` must be
///   reachable on it from every service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct K8sGoal {
    /// The destination port the goal constrains.
    pub port: u16,
    /// Deny or allow.
    pub perm: Action,
    /// Which destination services the goal covers.
    pub selector: Selector,
}

impl K8sGoal {
    /// Parse a `port, perm, selector` CSV document (header optional).
    pub fn parse_csv(input: &str) -> Result<Vec<K8sGoal>, GoalParseError> {
        let mut out = Vec::new();
        for rec in parse_csv(input).map_err(err)? {
            out.extend(K8sGoal::from_record(&rec)?);
        }
        Ok(out)
    }

    /// Read one CSV record of a `port, perm, selector` table; `None` for
    /// the header row.
    pub fn from_record(rec: &[String]) -> Result<Option<K8sGoal>, GoalParseError> {
        if rec.len() != 3 {
            return Err(err(format!(
                "K8s goal rows need 3 fields (port, perm, selector), got {rec:?}"
            )));
        }
        if rec[0].eq_ignore_ascii_case("port") {
            return Ok(None);
        }
        let port: u16 = rec[0]
            .parse()
            .map_err(|_| err(format!("bad port {:?}", rec[0])))?;
        let perm = match rec[1].to_ascii_uppercase().as_str() {
            "DENY" => Action::Deny,
            "ALLOW" => Action::Allow,
            other => return Err(err(format!("bad perm {other:?}"))),
        };
        Ok(Some(K8sGoal {
            port,
            perm,
            selector: parse_goal_selector(&rec[2]),
        }))
    }
}

/// A selector in a goal file: `*` (all), `ns=payments` (namespace),
/// `key=value` (label), or a bare service name.
fn parse_goal_selector(field: &str) -> Selector {
    if field == "*" || field.is_empty() {
        Selector::All
    } else if let Some((k, v)) = field.split_once('=') {
        let k = k.trim();
        let v = v.trim();
        if k == "ns" || k == "namespace" {
            Selector::Namespace(v.to_string())
        } else {
            Selector::label(k, v)
        }
    } else {
        Selector::Name(field.to_string())
    }
}

/// A port cell in an Istio goal row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortSpec {
    /// A concrete port.
    Port(u16),
    /// A named existential variable (`?w` / `∃w`); equal names must take
    /// equal values across rows (Fig. 4).
    Var(String),
    /// Fully flexible (`*`): any value, chosen independently.
    Any,
}

impl PortSpec {
    fn parse(field: &str) -> Result<PortSpec, GoalParseError> {
        if field == "*" {
            return Ok(PortSpec::Any);
        }
        if let Some(name) = field
            .strip_prefix('?')
            .or_else(|| field.strip_prefix('∃'))
            .or_else(|| field.strip_prefix('E').filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric())))
        {
            if name.is_empty() {
                return Err(err("existential port variable needs a name, e.g. ?w"));
            }
            return Ok(PortSpec::Var(name.to_string()));
        }
        field
            .parse::<u16>()
            .map(PortSpec::Port)
            .map_err(|_| err(format!("bad port spec {field:?}")))
    }

    /// The variable name, if this is a variable.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            PortSpec::Var(n) => Some(n),
            _ => None,
        }
    }
}

/// An Istio administrator goal row (Figs. 3–4):
/// `srcService, dstService, srcPort, dstPort` — the source must be able
/// to reach the destination with the given ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IstioGoal {
    /// Source service name.
    pub src: String,
    /// Destination service name.
    pub dst: String,
    /// Source-port cell. Recorded and bound, but the modeled policy
    /// subsets never constrain source ports (mirroring the real systems),
    /// so it does not affect satisfiability on its own.
    pub src_port: PortSpec,
    /// Destination-port cell.
    pub dst_port: PortSpec,
}

impl IstioGoal {
    /// Parse a `srcService, dstService, srcPort, dstPort` CSV document.
    pub fn parse_csv(input: &str) -> Result<Vec<IstioGoal>, GoalParseError> {
        let records = parse_csv(input).map_err(err)?;
        let mut out = Vec::new();
        for rec in records {
            if rec.len() != 4 {
                return Err(err(format!(
                    "Istio goal rows need 4 fields (src, dst, srcPort, dstPort), got {rec:?}"
                )));
            }
            if rec[0].eq_ignore_ascii_case("srcservice")
                || rec[0].eq_ignore_ascii_case("src")
                || rec[2].eq_ignore_ascii_case("srcport")
            {
                continue; // header
            }
            out.push(IstioGoal {
                src: rec[0].clone(),
                dst: rec[1].clone(),
                src_port: PortSpec::parse(&rec[2])?,
                dst_port: PortSpec::parse(&rec[3])?,
            });
        }
        Ok(out)
    }

    /// The paper's Fig. 3 goal table.
    pub fn fig3() -> Vec<IstioGoal> {
        IstioGoal::parse_csv(
            "srcService,dstService,srcPort,dstPort\n\
             test-frontend,test-backend,24,25\n\
             test-backend,test-frontend,26,23\n\
             test-backend,test-db,14000,16000\n\
             test-db,test-backend,10000,12000\n",
        )
        .expect("fig3 table parses")
    }

    /// The paper's Fig. 4 revised (relaxed) goal table.
    pub fn fig4() -> Vec<IstioGoal> {
        IstioGoal::parse_csv(
            "srcService,dstService,srcPort,dstPort\n\
             test-frontend,test-backend,?w,?x\n\
             test-backend,test-frontend,?y,?z\n\
             test-backend,test-db,14000,16000\n\
             test-db,test-backend,10000,12000\n",
        )
        .expect("fig4 table parses")
    }
}

/// The paper's Fig. 2 K8s goal table.
pub fn fig2() -> Vec<K8sGoal> {
    K8sGoal::parse_csv("port,perm,selector\n23,DENY,*\n").expect("fig2 table parses")
}

/// Render K8s goal rows as the CSV table [`K8sGoal::parse_csv`] reads
/// (`port,perm,selector` header) — the serialization dual, kept next
/// to the parser so the row grammar lives in one crate.
pub fn k8s_goals_csv(goals: &[K8sGoal]) -> String {
    let mut k8s = String::from("port,perm,selector\n");
    for g in goals {
        let perm = match g.perm {
            Action::Deny => "DENY",
            Action::Allow => "ALLOW",
        };
        let sel = match &g.selector {
            Selector::All => "*".to_string(),
            Selector::Namespace(ns) => format!("ns={ns}"),
            Selector::Name(n) => n.clone(),
            Selector::Labels(pairs) => pairs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .next()
                .unwrap_or_else(|| "*".to_string()),
        };
        k8s.push_str(&format!("{},{},{}\n", g.port, perm, sel));
    }
    k8s
}

/// Render Istio goal rows as the CSV table [`IstioGoal::parse_csv`]
/// reads (`srcService,dstService,srcPort,dstPort` header).
pub fn istio_goals_csv(goals: &[IstioGoal]) -> String {
    let mut istio = String::from("srcService,dstService,srcPort,dstPort\n");
    let cell = |p: &PortSpec| match p {
        PortSpec::Port(n) => n.to_string(),
        PortSpec::Var(name) => format!("?{name}"),
        PortSpec::Any => "*".to_string(),
    };
    for g in goals {
        istio.push_str(&format!(
            "{},{},{},{}\n",
            g.src,
            g.dst,
            cell(&g.src_port),
            cell(&g.dst_port)
        ));
    }
    istio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_parses() {
        let goals = fig2();
        assert_eq!(goals.len(), 1);
        assert_eq!(goals[0].port, 23);
        assert_eq!(goals[0].perm, Action::Deny);
        assert!(matches!(goals[0].selector, Selector::All));
    }

    #[test]
    fn fig3_parses() {
        let goals = IstioGoal::fig3();
        assert_eq!(goals.len(), 4);
        assert_eq!(goals[1].src, "test-backend");
        assert_eq!(goals[1].dst, "test-frontend");
        assert_eq!(goals[1].src_port, PortSpec::Port(26));
        assert_eq!(goals[1].dst_port, PortSpec::Port(23));
    }

    #[test]
    fn fig4_has_existential_vars() {
        let goals = IstioGoal::fig4();
        assert_eq!(goals[0].src_port, PortSpec::Var("w".into()));
        assert_eq!(goals[0].dst_port, PortSpec::Var("x".into()));
        assert_eq!(goals[1].dst_port, PortSpec::Var("z".into()));
        assert_eq!(goals[2].dst_port, PortSpec::Port(16000));
    }

    #[test]
    fn selectors_in_goal_files() {
        let goals =
            K8sGoal::parse_csv("80,ALLOW,app=web\n81,DENY,test-db\n82,DENY,ns=payments\n")
                .unwrap();
        assert_eq!(goals[0].selector, Selector::label("app", "web"));
        assert_eq!(goals[1].selector, Selector::Name("test-db".into()));
        assert_eq!(goals[2].selector, Selector::Namespace("payments".into()));
        assert_eq!(goals[0].perm, Action::Allow);
    }

    #[test]
    fn port_spec_variants() {
        assert_eq!(PortSpec::parse("25").unwrap(), PortSpec::Port(25));
        assert_eq!(PortSpec::parse("*").unwrap(), PortSpec::Any);
        assert_eq!(PortSpec::parse("?w").unwrap(), PortSpec::Var("w".into()));
        assert_eq!(PortSpec::parse("∃x").unwrap(), PortSpec::Var("x".into()));
        assert_eq!(PortSpec::parse("Ey").unwrap(), PortSpec::Var("y".into()));
        assert!(PortSpec::parse("?").is_err());
        assert!(PortSpec::parse("notaport").is_err());
        assert!(PortSpec::parse("70000").is_err());
        assert_eq!(PortSpec::Var("w".into()).var_name(), Some("w"));
        assert_eq!(PortSpec::Any.var_name(), None);
    }

    #[test]
    fn bad_rows_are_rejected() {
        assert!(K8sGoal::parse_csv("23,DENY\n").is_err());
        assert!(K8sGoal::parse_csv("x,DENY,*\n").is_err());
        assert!(K8sGoal::parse_csv("23,AUDIT,*\n").is_err());
        assert!(IstioGoal::parse_csv("a,b,1\n").is_err());
        assert!(IstioGoal::parse_csv("a,b,1,bad\n").is_err());
    }
}
