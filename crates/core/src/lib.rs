//! # chipmunk
//!
//! A synthesis-based code generator for PISA packet-processing pipelines —
//! a from-scratch Rust reproduction of *"Autogenerating Fast
//! Packet-Processing Code Using Program Synthesis"* (HotNets 2019).
//!
//! Given a packet transaction (a `chipmunk-lang` program), a grid shape and
//! ALU descriptions (`chipmunk-pisa`), the compiler:
//!
//! 1. generates a **sketch** — a symbolic pipeline whose hardware
//!    configurations (Table 1 of the paper: ALU opcodes, mux controls,
//!    packet-field and state-variable allocations, immediates) are *holes*
//!    ([`Sketch`]);
//! 2. runs **CEGIS** (counterexample-guided inductive synthesis) to fill
//!    the holes so the pipeline is input-output equivalent to the program
//!    ([`cegis`]), with a decoupled wide-width verification pass standing in
//!    for the paper's Z3 outer loop;
//! 3. searches grid sizes **smallest-first**, so the first success uses the
//!    minimum number of pipeline stages ([`compile`]).
//!
//! ## Quick start
//!
//! ```
//! use chipmunk::{compile, CompilerOptions};
//! use chipmunk_lang::parse;
//!
//! let prog = parse(
//!     "state count;
//!      if (count == 3) { count = 0; pkt.sample = 1; }
//!      else { count = count + 1; pkt.sample = 0; }",
//! ).unwrap();
//! let opts = CompilerOptions::small_for_tests();
//! let out = compile(&prog, &opts).expect("synthesis succeeds");
//! assert_eq!(out.resources.stages_used, 1);
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod cache;
pub mod cegis;
pub mod certify;
mod search;
pub mod sketch;

pub use approx::{compile_approximate, ApproxOptions, ApproxOutcome};
pub use cache::{cache_key, canonical_text, layout_names};
pub use cegis::{
    CegisOptions, CegisStats, InfeasibleCert, SynthControl, SynthesisError, Synthesized, Verifier,
};
pub use certify::{certify_config, certify_success, CertifyReport, CertifyRequest};
pub use search::{
    compile, compile_with_control, plan_compilation, CodegenError, CodegenSuccess, CompilerOptions,
    PlanControl,
};
pub use sketch::{DecodedConfig, HoleDecl, Sketch, SketchOptions, SketchOutputs};

// The budget type appears in `CegisOptions`; re-export it so downstream
// crates can fill it without a direct chipmunk-sat dependency. The DRAT
// certificate types ride along so the serving layer and CLI can re-check
// a shipped proof without one either.
pub use chipmunk_sat::{BudgetAccount, Certificate, CheckBudget, CheckOutcome, ResourceBudget};

/// The compilation-plan data model and executor, re-exported so the
/// serving layer and CLI can fingerprint, explain, and observe plans
/// without a direct `chipmunk-plan` dependency.
pub mod plan {
    pub use chipmunk_plan::{
        panic_text, CompilePlan, PlanGroup, PlanStep, RaceMode, StepError, StepOutcome, StepReport,
        Strategy,
    };
}
