//! Stable content fingerprints for sessions, goals and configurations.
//!
//! The hasher itself ([`Fingerprinter`]) lives in
//! [`muppet_logic::fingerprint`] so the solver's incremental engine can
//! key its group index on the same digests (DESIGN.md §13). This
//! module re-exports it and adds the session-layer walks — goals and
//! parties — as the [`FingerprintExt`] extension trait.

pub use muppet_logic::fingerprint::{hex, parse_hex, Fingerprinter};

use crate::party::{NamedGoal, Party};

/// Session-layer extension: fold goals and parties into a
/// [`Fingerprinter`] in canonical order.
pub trait FingerprintExt {
    /// Fold in a named goal: name, hardness and formula.
    fn add_goal(&mut self, g: &NamedGoal) -> &mut Self;

    /// Fold in a party: id, name, goals and offer.
    fn add_party(&mut self, p: &Party) -> &mut Self;
}

impl FingerprintExt for Fingerprinter {
    fn add_goal(&mut self, g: &NamedGoal) -> &mut Self {
        self.add_str(&g.name);
        self.add_bool(g.hard);
        self.add_hash(&g.formula)
    }

    fn add_party(&mut self, p: &Party) -> &mut Self {
        self.add_hash(&p.id);
        self.add_str(&p.name);
        self.add_u64(p.goals.len() as u64);
        for g in &p.goals {
            self.add_goal(g);
        }
        self.add_partial(&p.offer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::{Domain, Formula, PartyId, Term, Universe, Vocabulary};

    #[test]
    fn deterministic_and_sensitive() {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let a = u.add_atom(s, "a");
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s], Domain::Party(PartyId(0)));
        let goal = NamedGoal::hard("g", Formula::pred(r, [Term::Const(a)]));
        let fp = |goal: &NamedGoal| {
            let mut f = Fingerprinter::new();
            f.add_universe(&u).add_vocab(&v).add_goal(goal);
            f.digest()
        };
        assert_eq!(fp(&goal), fp(&goal), "same content, same digest");
        let other = NamedGoal::hard("g2", Formula::pred(r, [Term::Const(a)]));
        assert_ne!(fp(&goal), fp(&other), "renamed goal must differ");
        let soft = NamedGoal::soft("g", Formula::pred(r, [Term::Const(a)]));
        assert_ne!(fp(&goal), fp(&soft), "hardness is part of identity");
    }
}
