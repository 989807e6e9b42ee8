//! Approximate program synthesis — a working prototype of the paper's
//! §5.2: *"Program synthesis can provide a general method to reduce
//! program resource usage through approximation … producing approximate
//! results with bounded errors."*
//!
//! The approximation contract here is **domain restriction**: the
//! synthesized pipeline must match the specification exactly for every
//! input whose packet fields and state values lie below
//! `2^domain_width`, and may diverge outside. That buys feasibility —
//! e.g. a program whose constants exceed the hardware's immediate range
//! is *exactly* uncompilable, but compiles approximately whenever the
//! offending behaviour cannot trigger inside the domain — and the error is
//! quantified, not hoped for: [`compile_approximate`] measures the
//! full-width divergence rate by seeded sampling and reports it alongside
//! the configuration.

use chipmunk_lang::{Interpreter, PacketState, Program};
use chipmunk_trace::rng::SplitMix64;

use crate::cegis::exec_decoded;
use crate::search::{compile, CodegenError, CodegenSuccess, CompilerOptions};
use crate::sketch::Sketch;

/// Options for an approximate compilation.
#[derive(Clone, Debug)]
pub struct ApproxOptions {
    /// The exact-compilation options (grid, ALUs, CEGIS widths). The
    /// `cegis.domain_width` field is overwritten by [`ApproxOptions::domain_width`].
    pub base: CompilerOptions,
    /// Inputs are quantified over `[0, 2^domain_width)` per field/state.
    pub domain_width: u8,
    /// Samples for the full-width error estimate.
    pub error_samples: usize,
    /// Seed for error sampling.
    pub seed: u64,
}

/// An approximate compilation result.
#[derive(Clone, Debug)]
pub struct ApproxOutcome {
    /// The synthesized configuration (exact within the domain).
    pub result: CodegenSuccess,
    /// Fraction of *uniform full-width* inputs on which the pipeline
    /// diverges from the specification (0.0 = exact everywhere sampled).
    pub error_rate: f64,
    /// Fraction of uniform *in-domain* inputs that diverge — always 0.0
    /// up to sampling, kept as a sanity check.
    pub in_domain_error_rate: f64,
}

/// Compile `prog` exactly-within-domain and measure its full-width error.
pub fn compile_approximate(
    prog: &Program,
    opts: &ApproxOptions,
) -> Result<ApproxOutcome, CodegenError> {
    let mut base = opts.base.clone();
    base.cegis.domain_width = Some(opts.domain_width);
    let result = compile(prog, &base)?;

    // Measure divergence by seeded sampling at the full verification width.
    let mut hashfree = prog.clone();
    if hashfree.stmts().iter().any(|s| s.contains_hash()) {
        chipmunk_lang::passes::eliminate_hashes(&mut hashfree);
    }
    let sketch = Sketch::new(
        result.grid.clone(),
        hashfree.field_names().len(),
        hashfree.state_names().len(),
        base.sketch,
    )
    .expect("winning sketch reconstructs");
    let width = base.cegis.verify_width;
    let full_mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let dom_mask = (1u64 << opts.domain_width.min(width)) - 1;
    let interp = Interpreter::new(&hashfree, width);
    let nf = hashfree.field_names().len();
    let ns = hashfree.state_names().len();

    let rate = |mask: u64, salt: u64| -> f64 {
        let mut rng = SplitMix64(opts.seed ^ salt);
        let mut diverged = 0usize;
        for _ in 0..opts.error_samples {
            let inp = PacketState {
                fields: (0..nf).map(|_| rng.next_u64() & mask).collect(),
                states: (0..ns).map(|_| rng.next_u64() & mask).collect(),
            };
            let want = interp.exec(&inp);
            let got = exec_decoded(&hashfree, &sketch, &result.decoded, &inp, width);
            if got != want {
                diverged += 1;
            }
        }
        diverged as f64 / opts.error_samples.max(1) as f64
    };
    let error_rate = rate(full_mask, 0x0ff5e7);
    let in_domain_error_rate = rate(dom_mask, 0x1d0ca1);

    Ok(ApproxOutcome {
        result,
        error_rate,
        in_domain_error_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CompilerOptions;
    use chipmunk_lang::parse;
    use chipmunk_pisa::stateful::library;

    /// A threshold program whose constant (28) exceeds the 3-bit immediate
    /// range: exactly uncompilable, approximately compilable on the domain
    /// `< 16` where the threshold can never fire.
    fn threshold_prog() -> chipmunk_lang::Program {
        parse(
            "state hits;
             if (pkt.len > 28) { hits = hits + 1; }
             pkt.big = pkt.len > 28 ? 1 : 0;",
        )
        .unwrap()
    }

    fn base_opts() -> CompilerOptions {
        let mut o = CompilerOptions::new(library::pred_raw(3));
        o.stateless = chipmunk_pisa::StatelessAluSpec::banzai(3);
        o.max_stages = 2;
        o.cegis.verify_width = 6;
        o.cegis.screen_width = Some(5);
        o.cegis.seed = 31;
        o
    }

    #[test]
    fn exact_compilation_fails_on_oversized_constant() {
        let prog = threshold_prog();
        assert!(matches!(
            compile(&prog, &base_opts()).unwrap_err(),
            CodegenError::Infeasible(_)
        ));
    }

    #[test]
    fn approximate_compilation_succeeds_with_bounded_error() {
        let prog = threshold_prog();
        let out = compile_approximate(
            &prog,
            &ApproxOptions {
                base: base_opts(),
                domain_width: 4, // len < 16 < 28: the branch never fires
                error_samples: 800,
                seed: 3,
            },
        )
        .expect("approximately feasible");
        // Exact inside the domain …
        assert_eq!(out.in_domain_error_rate, 0.0);
        // … wrong only where len > 28 can occur: for uniform 6-bit len
        // that's 35/64 of inputs, and the config plainly never fires, so
        // the measured error must be in that ballpark and strictly between
        // 0 and 1.
        assert!(out.error_rate > 0.2, "error rate {}", out.error_rate);
        assert!(out.error_rate < 0.9, "error rate {}", out.error_rate);
        assert!(out.result.resources.stages_used >= 1);
    }

    #[test]
    fn exactly_compilable_programs_have_zero_error() {
        let prog = parse("state s; if (pkt.len > 3) { s = s + 1; }").unwrap();
        let out = compile_approximate(
            &prog,
            &ApproxOptions {
                base: base_opts(),
                domain_width: 4,
                error_samples: 600,
                seed: 5,
            },
        )
        .expect("feasible");
        // The domain already pins the interesting behaviour; with the
        // constant in range the synthesizer happens to be exact everywhere.
        assert_eq!(out.in_domain_error_rate, 0.0);
    }
}
