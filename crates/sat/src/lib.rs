//! # chipmunk-sat
//!
//! A self-contained CDCL (conflict-driven clause learning) SAT solver.
//!
//! This crate is the solving substrate for the chipmunk synthesis engine:
//! the bit-vector layer (`chipmunk-bv`) bit-blasts quantifier-free
//! bit-vector formulas into CNF and decides them here. The paper this
//! workspace reproduces uses SKETCH (whose backend is a SAT solver) for
//! synthesis and Z3 (whose QF_BV backend is also bit-blasting + SAT) for
//! wide-width verification; this solver plays both roles.
//!
//! ## Features
//!
//! * Clauses stored back to back in one flat `u32` arena: a three-word
//!   header (literal count, `lbd << 2 | deleted | learnt`, activity as
//!   `f32` bits) followed by the literal codes, addressed by offset.
//!   Adding, learning, analysing and logging a clause allocate nothing of
//!   their own, and database reduction compacts the arena in place.
//! * Two-watched-literal unit propagation with blocker literals. A binary
//!   clause's watchers carry its other literal as the blocker, so it
//!   propagates or conflicts without reading the arena.
//! * 1-UIP conflict analysis with recursive clause minimization.
//! * Exponential VSIDS variable activities with an indexed binary heap.
//! * Phase saving and Luby restarts.
//! * Learnt-clause database reduction driven by LBD (glue level).
//! * Incremental solving: clauses may be added between [`Solver::solve`]
//!   calls, and solving under assumptions is supported.
//!
//! ## Example
//!
//! ```
//! use chipmunk_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a | b) & (!a | b) & (a | !b)  =>  a & b
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! s.add_clause([Lit::pos(a), Lit::neg(b)]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(a), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![warn(missing_docs)]

pub mod dimacs;
pub mod drat;
mod heap;
mod luby;
mod solver;

pub use dimacs::{parse_dimacs, Cnf, DimacsError};
pub use drat::{Certificate, CheckBudget, CheckOutcome, ProofStep};
pub use solver::{BudgetAccount, ResourceBudget, SolveResult, Solver, SolverStats};

/// The most variables a [`Lit`] can address: it packs a variable index and
/// a sign into 32 bits, so an index of 2^31 or more would lose its top bit
/// and alias a smaller variable. Both text parsers refuse a header that
/// declares more.
pub(crate) const MAX_VARS: usize = 1 << 31;

/// A propositional variable, identified by a dense index starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The variable's dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2*var + sign` where `sign == 1` means the literal is the
/// negation of the variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Build a literal from a variable and the truth value it asserts.
    ///
    /// `Lit::new(v, true)` is satisfied when `v` is true.
    #[inline]
    pub fn new(v: Var, value: bool) -> Lit {
        if value {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if this literal is a negation.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense code for indexing (`2*var + sign`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Literal from a dense code.
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "!x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // DIMACS-style signed integer, 1-based.
        let v = self.var().0 as i64 + 1;
        write!(f, "{}", if self.is_neg() { -v } else { v })
    }
}

/// Ternary truth value used for partial assignments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    Undef,
}

impl LBool {
    /// Convert from a `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Logical negation; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// `Some(bool)` if assigned.
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding_roundtrip() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::neg(v).is_neg());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!!Lit::pos(v), Lit::pos(v));
        assert_eq!(Lit::from_code(Lit::neg(v).code()), Lit::neg(v));
    }

    #[test]
    fn lit_new_polarity() {
        let v = Var(3);
        assert_eq!(Lit::new(v, true), Lit::pos(v));
        assert_eq!(Lit::new(v, false), Lit::neg(v));
    }

    #[test]
    fn lbool_ops() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::False.to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
    }

    #[test]
    fn display_is_dimacs() {
        assert_eq!(Lit::pos(Var(0)).to_string(), "1");
        assert_eq!(Lit::neg(Var(0)).to_string(), "-1");
        assert_eq!(Lit::neg(Var(41)).to_string(), "-42");
    }
}
