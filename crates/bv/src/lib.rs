//! # chipmunk-bv
//!
//! A quantifier-free bit-vector (QF_BV) layer on top of the
//! `chipmunk-sat` CDCL solver.
//!
//! The crate provides:
//!
//! * [`Circuit`] — a hash-consed bit-vector term graph with aggressive
//!   constant folding and algebraic simplification. Terms are fixed-width
//!   unsigned bit-vectors; booleans are width-1 vectors.
//! * [`Circuit::eval`] — a concrete big-step evaluator matching `u64`
//!   wrap-around semantics masked to the term width.
//! * [`Blaster`] — Tseitin bit-blasting of terms into CNF over a
//!   [`chipmunk_sat::Solver`], with per-input bindings so the same circuit
//!   can be instantiated repeatedly (with inputs fixed to counterexample
//!   constants, or wired to shared hole literals) inside one incremental
//!   solver. This is the mechanism behind the CEGIS loop in the `chipmunk`
//!   crate. Each AND, XOR and MUX gate is hashed on its normalized inputs
//!   and built at most once per gate table.
//! * [`GateSolver`] — a solver that keeps one gate table for its whole
//!   life, so every copy of a circuit blasted into it reuses the gates an
//!   earlier copy built (the CEGIS synthesis instance's counterexample
//!   copies share their gates over hole literals).
//!
//! In the paper this workspace reproduces, SKETCH bit-blasts integer
//! programs with holes into SAT, and Z3 decides the wide-bit-width
//! verification queries; both of those roles are played by this crate
//! (bit-blasting QF_BV to SAT is the textbook decision procedure that Z3
//! itself uses for pure bit-vector goals).
//!
//! ## Example: proving `x*5 == x*4 + x`
//!
//! ```
//! use chipmunk_bv::{Circuit, BvOp, check_equiv};
//!
//! let mut c = Circuit::new(8);
//! let x = c.input("x");
//! let five = c.constant(5);
//! let lhs = c.binop(BvOp::Mul, x, five);
//! let four = c.constant(4);
//! let shifted = c.binop(BvOp::Mul, x, four);
//! let rhs = c.binop(BvOp::Add, shifted, x);
//! assert!(check_equiv(&c, lhs, rhs, None).is_none());
//! ```

#![warn(missing_docs)]

mod blast;
mod circuit;
mod equiv;

pub use blast::{assumption_lits, mk_true, Binding, Blaster, GateSolver};
pub use circuit::{BvOp, Circuit, InputId, TermId};
pub use equiv::{
    check_equiv, check_equiv_many, check_equiv_many_budgeted, Counterexample, TimedOut,
};
