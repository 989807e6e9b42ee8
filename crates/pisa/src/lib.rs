//! # chipmunk-pisa
//!
//! A simulator for the Protocol Independent Switch Architecture (PISA) in
//! the simplified form used by the paper: all switch computation is
//! abstracted into a **2-D grid of ALUs** (Figure 2). The x axis is the
//! pipeline stage; the y axis holds, per stage, one *stateless* ALU and one
//! *stateful* ALU per PHV container. Packets enter from the left, exit to
//! the right, one packet per clock.
//!
//! * PHV containers carry packet fields between stages.
//! * **Stateless ALUs** ([`stateless`]) combine two mux-selected container
//!   values (or an immediate) with a configurable opcode; the result is the
//!   "destination" value of the ALU's own container.
//! * **Stateful ALUs** ([`stateful`]) own a register that persists across
//!   packets; their behaviour is described by a small *template* expression
//!   language with holes, so different switch hardware can be simulated by
//!   supplying different templates (§2.2 of the paper). A library of
//!   Banzai-style templates (`raw`, `pred_raw`, `if_else_raw`, `sub`,
//!   `nested_ifs`) is included.
//! * **Muxes** route container values into ALUs and ALU outputs back into
//!   containers.
//!
//! The hardware configuration record ([`PipelineConfig`]) mirrors Table 1
//! of the paper: ALU opcodes, input-mux controls, output-mux controls,
//! packet-field allocation, state-variable allocation, and immediate
//! operands. A configured [`Pipeline`] executes concretely (one packet per
//! [`Pipeline::exec`]); the same semantics can be emitted symbolically into
//! a `chipmunk-bv` circuit for synthesis and verification (see the
//! `symbolic_*` functions in [`stateless`] and [`stateful`]).

#![warn(missing_docs)]

pub mod grid;
pub mod stateful;
pub mod stateless;

pub use grid::{
    GridSpec, OutMuxSel, Pipeline, PipelineConfig, ResourceUsage, StageConfig, StatefulConfig,
    StatelessConfig,
};
pub use stateful::{AluExpr, AluPred, RelOp, StatefulAluSpec};
pub use stateless::{StatelessAluSpec, StatelessOp};
