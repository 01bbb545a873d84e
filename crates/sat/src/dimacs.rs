//! DIMACS CNF reading and writing.
//!
//! Muppet itself never touches DIMACS — goals arrive as CSV and configs as
//! YAML — but the format is invaluable for debugging the grounding layer
//! (dump a query, run it through a reference solver) and for testing this
//! solver against standard instances.

use std::fmt;

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A parsed DIMACS problem: a clause list over `num_vars` variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimacsProblem {
    /// Declared variable count (1-based variables `1..=num_vars`).
    pub num_vars: usize,
    /// Clauses, as vectors of literals over 0-based [`Var`]s.
    pub clauses: Vec<Vec<Lit>>,
}

/// Upper bound on the variable count [`parse_dimacs`] accepts. An
/// absurd `p cnf` header must fail with a parse error, not drive
/// [`DimacsProblem::into_solver`] into an out-of-memory abort — this is
/// the only solver-facing path fed by raw external input.
pub const MAX_DIMACS_VARS: usize = 1 << 22;

/// Errors produced by [`parse_dimacs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimacsError {
    /// The `p cnf <vars> <clauses>` header is missing or malformed.
    BadHeader(String),
    /// A token could not be parsed as a literal.
    BadLiteral(String),
    /// A literal references a variable above the declared count.
    VarOutOfRange(i64),
    /// A clause was not terminated by `0` before end of input.
    UnterminatedClause,
    /// The declared variable count exceeds `MAX_DIMACS_VARS` (2^22).
    TooManyVars(usize),
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::BadHeader(l) => write!(f, "bad DIMACS header: {l:?}"),
            DimacsError::BadLiteral(t) => write!(f, "bad DIMACS literal: {t:?}"),
            DimacsError::VarOutOfRange(v) => write!(f, "variable {v} out of declared range"),
            DimacsError::UnterminatedClause => write!(f, "unterminated clause at end of input"),
            DimacsError::TooManyVars(n) => {
                write!(f, "declared {n} variables exceeds the {MAX_DIMACS_VARS} limit")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

/// Parse a DIMACS CNF document.
///
/// Comments (`c …`) are skipped. The declared clause count is not enforced
/// (many generators get it wrong); the declared variable count is treated
/// as a minimum and literal bounds are checked against it only when larger
/// literals do not appear.
pub fn parse_dimacs(input: &str) -> Result<DimacsProblem, DimacsError> {
    let mut num_vars: Option<usize> = None;
    let mut clauses = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    let mut max_var: usize = 0;

    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('p') {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 4 || parts[1] != "cnf" {
                return Err(DimacsError::BadHeader(line.to_string()));
            }
            let nv: usize = parts[2]
                .parse()
                .map_err(|_| DimacsError::BadHeader(line.to_string()))?;
            if nv > MAX_DIMACS_VARS {
                return Err(DimacsError::TooManyVars(nv));
            }
            // The declared clause count is not enforced, but it must at
            // least be a number — a header like `p cnf 3 -1` is hostile
            // input, not a sloppy generator.
            let _: usize = parts[3]
                .parse()
                .map_err(|_| DimacsError::BadHeader(line.to_string()))?;
            num_vars = Some(nv);
            continue;
        }
        for tok in line.split_whitespace() {
            let n: i64 = tok
                .parse()
                .map_err(|_| DimacsError::BadLiteral(tok.to_string()))?;
            if n == 0 {
                clauses.push(std::mem::take(&mut current));
            } else {
                let v = n.unsigned_abs() as usize;
                // Reject before constructing a `Var`: indexes are u32
                // internally, and a silently truncated variable would
                // corrupt the clause rather than error.
                if v > MAX_DIMACS_VARS {
                    return Err(DimacsError::VarOutOfRange(n));
                }
                max_var = max_var.max(v);
                let var = Var::from_index(v - 1);
                current.push(Lit::new(var, n > 0));
            }
        }
    }
    if !current.is_empty() {
        return Err(DimacsError::UnterminatedClause);
    }
    let declared = num_vars.ok_or_else(|| DimacsError::BadHeader("<missing>".to_string()))?;
    if max_var > declared {
        // `max_var` is bounded by MAX_DIMACS_VARS, so this conversion
        // cannot truncate; `try_from` keeps that fact checked.
        let v = i64::try_from(max_var).unwrap_or(i64::MAX);
        return Err(DimacsError::VarOutOfRange(v));
    }
    Ok(DimacsProblem {
        num_vars: declared,
        clauses,
    })
}

/// Render clauses as a DIMACS CNF document.
pub fn write_dimacs(num_vars: usize, clauses: &[Vec<Lit>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("p cnf {} {}\n", num_vars, clauses.len()));
    for c in clauses {
        for &l in c {
            let n = (l.var().index() + 1) as i64;
            let n = if l.is_positive() { n } else { -n };
            out.push_str(&n.to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

impl DimacsProblem {
    /// Load this problem into a fresh [`Solver`].
    pub fn into_solver(&self) -> Solver {
        let mut s = Solver::new();
        s.new_vars(self.num_vars);
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let p = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(p.num_vars, 3);
        assert_eq!(p.clauses.len(), 2);
        assert_eq!(p.clauses[0][1], Lit::neg(Var::from_index(1)));
    }

    #[test]
    fn parse_multiline_clause() {
        let p = parse_dimacs("p cnf 2 1\n1\n2 0\n").unwrap();
        assert_eq!(p.clauses, vec![vec![
            Lit::pos(Var::from_index(0)),
            Lit::pos(Var::from_index(1)),
        ]]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_dimacs("p cnf x 2\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            parse_dimacs("p cnf 2 1\n1 zebra 0\n"),
            Err(DimacsError::BadLiteral(_))
        ));
        assert!(matches!(
            parse_dimacs("p cnf 2 1\n1 2\n"),
            Err(DimacsError::UnterminatedClause)
        ));
        assert!(matches!(
            parse_dimacs("p cnf 1 1\n2 0\n"),
            Err(DimacsError::VarOutOfRange(_))
        ));
        assert!(matches!(
            parse_dimacs("1 0\n"),
            Err(DimacsError::BadHeader(_))
        ));
    }

    #[test]
    fn absurd_sizes_error_instead_of_exhausting_memory() {
        // A hostile header must fail at parse time, long before
        // `into_solver` would try to allocate per-variable state.
        assert!(matches!(
            parse_dimacs("p cnf 99999999999 1\n1 0\n"),
            Err(DimacsError::TooManyVars(_))
        ));
        // A hostile literal must not silently truncate to a u32 index.
        assert!(matches!(
            parse_dimacs("p cnf 2 1\n8589934593 0\n"),
            Err(DimacsError::VarOutOfRange(_))
        ));
        // The boundary itself is accepted.
        let at_cap = format!("p cnf {MAX_DIMACS_VARS} 1\n1 0\n");
        assert!(parse_dimacs(&at_cap).is_ok());
    }

    #[test]
    fn adversarial_headers_near_i32_max_are_rejected() {
        // Declared var counts that would truncate a 32-bit index must
        // error at the header, never reach allocation.
        for nv in ["2147483647", "2147483648", "4294967295", "4294967296"] {
            assert!(
                matches!(
                    parse_dimacs(&format!("p cnf {nv} 1\n1 0\n")),
                    Err(DimacsError::TooManyVars(_))
                ),
                "header var count {nv} must be rejected"
            );
        }
        // Literals at and around i32::MAX exceed the declared range and
        // the hard cap; both directions must error, not wrap.
        for lit in ["2147483647", "-2147483648", "9223372036854775807", "-9223372036854775808"] {
            assert!(
                matches!(
                    parse_dimacs(&format!("p cnf 2 1\n{lit} 0\n")),
                    Err(DimacsError::VarOutOfRange(_))
                ),
                "literal {lit} must be rejected"
            );
        }
        // A non-numeric or negative clause count is a bad header, even
        // though the value itself is unused.
        assert!(matches!(
            parse_dimacs("p cnf 3 zebra\n1 0\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            parse_dimacs("p cnf 3 -1\n1 0\n"),
            Err(DimacsError::BadHeader(_))
        ));
    }

    #[test]
    fn roundtrip() {
        let src = "p cnf 3 2\n1 -2 0\n-3 0\n";
        let p = parse_dimacs(src).unwrap();
        let out = write_dimacs(p.num_vars, &p.clauses);
        assert_eq!(parse_dimacs(&out).unwrap(), p);
    }

    #[test]
    fn into_solver_solves() {
        let p = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        let mut s = p.into_solver();
        assert!(s.solve().is_sat());
    }
}
