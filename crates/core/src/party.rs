//! Parties: administrators with goals and partial-configuration offers.

use muppet_logic::{Formula, PartialInstance, PartyId, VarId};

/// A named goal: one row of an administrator's goal table, translated to
/// a closed bounded-FOL formula. Names are the unit of blame in unsat
/// cores.
#[derive(Clone, Debug)]
pub struct NamedGoal {
    /// Display name, e.g. `"k8s goal 1: DENY port 23"`.
    pub name: String,
    /// The goal formula (closed).
    pub formula: Formula,
    /// Pretty names for quantified variables (for envelope rendering).
    pub var_names: Vec<(VarId, String)>,
    /// Hard goals must hold; soft goals may be dropped during
    /// negotiation (the goal-level analogue of the paper's "soft"
    /// configuration settings).
    pub hard: bool,
}

impl NamedGoal {
    /// A hard goal.
    pub fn hard(name: impl Into<String>, formula: Formula) -> NamedGoal {
        NamedGoal {
            name: name.into(),
            formula,
            var_names: Vec::new(),
            hard: true,
        }
    }

    /// A soft (droppable) goal.
    pub fn soft(name: impl Into<String>, formula: Formula) -> NamedGoal {
        NamedGoal {
            hard: false,
            ..NamedGoal::hard(name, formula)
        }
    }
}

// The production `From<muppet_goals::NamedFormula>` impl lives in
// `muppet-goals` (this crate is domain-free; goals is the domain side).
// Unit-test builds of this crate are a *separate* crate from the
// `muppet` rlib that dev-dependency links against, so that impl targets
// a different `NamedGoal` type here — mirror it for tests only.
#[cfg(test)]
impl From<muppet_goals::NamedFormula> for NamedGoal {
    fn from(nf: muppet_goals::NamedFormula) -> NamedGoal {
        NamedGoal {
            name: nf.name,
            formula: nf.formula,
            var_names: nf.var_names,
            hard: true,
        }
    }
}

/// An administrator participating in a Muppet session.
#[derive(Clone, Debug)]
pub struct Party {
    /// The party's id; must match the [`muppet_logic::Domain::Party`]
    /// ownership of its configuration relations.
    pub id: PartyId,
    /// Display name ("k8s-admin", "istio-admin", …).
    pub name: String,
    /// The party's behavioral goals φ.
    pub goals: Vec<NamedGoal>,
    /// The party's current offer `C??`: bounds over its own relations.
    /// An empty offer means complete flexibility (Sec. 4.1).
    pub offer: PartialInstance,
}

impl Party {
    /// A party with no goals and a fully flexible offer.
    pub fn new(id: PartyId, name: impl Into<String>) -> Party {
        Party {
            id,
            name: name.into(),
            goals: Vec::new(),
            offer: PartialInstance::new(),
        }
    }

    /// Add goals (builder style).
    pub fn with_goals(mut self, goals: impl IntoIterator<Item = NamedGoal>) -> Party {
        self.goals.extend(goals);
        self
    }

    /// Set the offer (builder style).
    pub fn with_offer(mut self, offer: PartialInstance) -> Party {
        self.offer = offer;
        self
    }

    /// The hard goals only.
    pub fn hard_goals(&self) -> impl Iterator<Item = &NamedGoal> {
        self.goals.iter().filter(|g| g.hard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let p = Party::new(PartyId(0), "k8s-admin")
            .with_goals([
                NamedGoal::hard("g1", Formula::True),
                NamedGoal::soft("g2", Formula::False),
            ])
            .with_offer(PartialInstance::new());
        assert_eq!(p.name, "k8s-admin");
        assert_eq!(p.goals.len(), 2);
        assert_eq!(p.hard_goals().count(), 1);
        assert!(p.goals[0].hard);
        assert!(!p.goals[1].hard);
    }
}
