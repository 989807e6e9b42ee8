//! DIMACS CNF interchange.
//!
//! The de-facto exchange format of the SAT community: `p cnf <vars>
//! <clauses>` followed by zero-terminated clauses of signed 1-based
//! literals. Parsing is lenient about comments and whitespace (like most
//! solvers); emission is canonical. This makes the solver usable on
//! standard benchmark instances and lets failing chipmunk queries be
//! exported for cross-checking against any off-the-shelf solver.

use std::fmt::Write as _;

use crate::{Lit, Solver, Var, MAX_VARS};

/// A parsed CNF formula.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables declared in the header (variables are
    /// `Var(0)..Var(num_vars)`).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Load the formula into a fresh solver.
    pub fn into_solver(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Serialize in DIMACS format.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for &l in c {
                let _ = write!(out, "{l} ");
            }
            let _ = writeln!(out, "0");
        }
        out
    }
}

/// A DIMACS parse error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimacsError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DimacsError {}

/// Parse DIMACS CNF text.
///
/// Comment lines (`c …`) are skipped; the `p cnf` header is required
/// before any clause and may declare at most 2^31 variables; literals may
/// span lines; variables beyond the header count are rejected.
pub fn parse_dimacs(text: &str) -> Result<Cnf, DimacsError> {
    let mut cnf = Cnf::default();
    let mut saw_header = false;
    let mut current: Vec<Lit> = Vec::new();
    for (ln0, line) in text.lines().enumerate() {
        let ln = ln0 + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if saw_header {
                return Err(DimacsError {
                    line: ln,
                    message: "duplicate header".into(),
                });
            }
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(DimacsError {
                    line: ln,
                    message: "expected `p cnf <vars> <clauses>`".into(),
                });
            }
            let nv = parts
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .filter(|&nv| nv <= MAX_VARS)
                .ok_or(DimacsError {
                    line: ln,
                    message: "bad variable count".into(),
                })?;
            let _nc = parts
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or(DimacsError {
                    line: ln,
                    message: "bad clause count".into(),
                })?;
            cnf.num_vars = nv;
            saw_header = true;
            continue;
        }
        if !saw_header {
            return Err(DimacsError {
                line: ln,
                message: "clause before header".into(),
            });
        }
        for tok in line.split_whitespace() {
            let v: i64 = tok.parse().map_err(|_| DimacsError {
                line: ln,
                message: format!("bad literal `{tok}`"),
            })?;
            if v == 0 {
                cnf.clauses.push(std::mem::take(&mut current));
                continue;
            }
            let idx = v.unsigned_abs() as usize;
            if idx > cnf.num_vars {
                return Err(DimacsError {
                    line: ln,
                    message: format!("literal {v} exceeds declared variable count"),
                });
            }
            let var = Var((idx - 1) as u32);
            current.push(if v > 0 { Lit::pos(var) } else { Lit::neg(var) });
        }
    }
    if !current.is_empty() {
        cnf.clauses.push(current);
    }
    if !saw_header {
        return Err(DimacsError {
            line: 1,
            message: "missing `p cnf` header".into(),
        });
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn parses_and_solves_a_satisfiable_instance() {
        let text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        let mut s = cnf.into_solver();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn parses_multiline_clauses_and_trailing_clause() {
        let text = "p cnf 2 2\n1\n2 0\n-1 -2"; // last clause unterminated
        let cnf = parse_dimacs(text).unwrap();
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0].len(), 2);
    }

    #[test]
    fn unsat_instance_roundtrips() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let cnf = parse_dimacs(text).unwrap();
        let again = parse_dimacs(&cnf.to_dimacs()).unwrap();
        assert_eq!(cnf, again);
        assert_eq!(again.into_solver().solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_dimacs("").is_err());
        assert!(parse_dimacs("1 2 0")
            .unwrap_err()
            .message
            .contains("header"));
        assert!(parse_dimacs("p cnf x 2").is_err());
        let over = parse_dimacs("p cnf 1 1\n2 0\n").unwrap_err();
        assert!(over.message.contains("exceeds"));
        let dup = parse_dimacs("p cnf 1 0\np cnf 1 0\n").unwrap_err();
        assert!(dup.message.contains("duplicate"));
    }

    #[test]
    fn literals_past_the_31_bit_variable_index_do_not_alias() {
        // Both literals would otherwise lose their index's top bit and
        // read as x0; the header declaring them is refused instead.
        for text in [
            "p cnf 2147483649 1\n2147483649 0\n",
            "p cnf 4294967297 1\n4294967297 0\n",
        ] {
            let e = parse_dimacs(text).unwrap_err();
            assert!(e.message.contains("variable count"), "{e}");
        }
        assert!(parse_dimacs("p cnf 4294967295 0\n").is_err());
        let widest = parse_dimacs("p cnf 2147483648 1\n-2147483648 0\n").unwrap();
        assert_eq!(widest.clauses, vec![vec![Lit::neg(Var((1 << 31) - 1))]]);
    }

    #[test]
    fn emission_is_reparsable_for_generated_formulas() {
        let cnf = Cnf {
            num_vars: 4,
            clauses: vec![
                vec![Lit::pos(Var(0)), Lit::neg(Var(3))],
                vec![Lit::neg(Var(1)), Lit::pos(Var(2)), Lit::pos(Var(3))],
            ],
        };
        assert_eq!(parse_dimacs(&cnf.to_dimacs()).unwrap(), cnf);
    }
}
