//! # chipmunk-lang
//!
//! A Domino-dialect language for *packet transactions*: small imperative
//! programs that run atomically, from start to finish, on every packet
//! (Sivaraman et al., SIGCOMM 2016). This is the input language of both
//! code generators in this workspace — the synthesis-based `chipmunk`
//! compiler and the classical `chipmunk-domino` baseline.
//!
//! The crate provides:
//!
//! * a lexer and recursive-descent parser ([`parse`]), with nesting
//!   bounded by [`MAX_NESTING`],
//! * name resolution and semantic checks ([`Program`] construction),
//! * a transactional interpreter ([`Interpreter`]) defining the reference
//!   semantics `(packet, state) → (packet', state')` at any bit width,
//! * source-to-source passes ([`passes`]): hash elimination (hash results
//!   become read-only metadata fields, mirroring how PISA hash units feed
//!   the ALU grid) and constant folding,
//! * a compiler from programs to `chipmunk-bv` circuits ([`spec`]), used as
//!   the CEGIS specification,
//! * a pretty-printer (the [`std::fmt::Display`] impl of [`Program`]).
//!
//! ## Example
//!
//! ```
//! use chipmunk_lang::parse;
//!
//! let src = r#"
//!     state count = 0;
//!     if (count == 9) {
//!         count = 0;
//!         pkt.sample = 1;
//!     } else {
//!         count = count + 1;
//!         pkt.sample = 0;
//!     }
//! "#;
//! let prog = parse(src).unwrap();
//! assert_eq!(prog.state_names(), ["count"]);
//! assert_eq!(prog.field_names(), ["sample"]);
//! ```

#![warn(missing_docs)]

pub mod ast;
mod interp;
mod lexer;
mod parser;
pub mod passes;
mod pretty;
mod sema;
pub mod spec;

pub use ast::{BinOp, Expr, LValue, Program, Stmt, UnOp, VarRef};
pub use interp::{eval_binop, Interpreter, PacketState};
pub use parser::{parse, ParseError, MAX_NESTING};
pub use sema::SemaError;
