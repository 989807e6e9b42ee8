//! Independent certification of synthesized configurations.
//!
//! A configuration about to leave the compiler (or the serve daemon —
//! fresh, cache-hit, or name-remapped) is re-checked against the program
//! specification by *concrete differential execution*: the configured
//! grid is instantiated in the `chipmunk-pisa` hardware simulator and run
//! against the reference interpreter on the all-zeros packet, the CEGIS
//! counterexample set (the inputs the program is known to be sensitive
//! to), and a seeded random sweep at the verification width.
//!
//! This is the validation posture argued for by the switch-compiler
//! testing literature: never trust a compiler output you can simulate —
//! the hardware-model interpreter is the oracle. The check is cheap
//! (concrete execution, no solver) and shares no code path with the
//! synthesis-side encoding, so it catches bit-flips in cached results,
//! mis-wired field-to-container maps, and encoder/decoder disagreements
//! alike.

use chipmunk_lang::{Interpreter, PacketState, Program};
use chipmunk_pisa::{GridSpec, Pipeline, PipelineConfig};
use chipmunk_trace::rng::SplitMix64;

use crate::search::{CodegenSuccess, CompilerOptions};

/// Number of random-sweep inputs used by [`certify_success`].
pub const DEFAULT_SAMPLES: usize = 64;

/// Salt mixed into the CEGIS seed so the certification sweep draws
/// inputs independent of the synthesis-side initial samples.
const CERT_SEED_SALT: u64 = 0xce27_1f1c_a7e0_55ed;

/// What a successful certification checked.
#[derive(Clone, Copy, Debug)]
pub struct CertifyReport {
    /// Total concrete inputs executed differentially (all-zeros +
    /// counterexamples + random sweep).
    pub inputs_checked: usize,
}

/// Everything needed to certify one configuration against a program.
///
/// The configuration is passed as raw parts (grid, pipeline config,
/// field map) rather than a [`CodegenSuccess`] so the serving layer can
/// certify results reconstructed from cached/remapped JSON documents.
#[derive(Clone, Copy, Debug)]
pub struct CertifyRequest<'a> {
    /// The grid the configuration claims to target.
    pub grid: &'a GridSpec,
    /// The hardware configuration under test.
    pub pipeline: &'a PipelineConfig,
    /// Container index for each program field, in program field order.
    pub field_to_container: &'a [usize],
    /// CEGIS counterexamples to replay (may be empty, e.g. for cached
    /// results produced before counterexamples were recorded).
    pub counterexamples: &'a [PacketState],
    /// Semantic width at which spec and hardware must agree.
    pub width: u8,
    /// Approximate-synthesis domain: when set, agreement is only
    /// required for inputs below `2^domain_width` (§5.2 of the paper).
    pub domain_width: Option<u8>,
    /// Number of random-sweep inputs.
    pub samples: usize,
    /// Seed for the random sweep.
    pub seed: u64,
}

/// Certify a configuration against `prog` by differential execution.
///
/// Returns `Err` with a human-readable reason on the **first** failure:
/// a structurally invalid configuration (bad shapes, out-of-range
/// container indices, aliased fields — all reachable via corrupted cache
/// entries, so they are reported, never panicked on) or a semantic
/// divergence between the configured pipeline and the interpreter.
pub fn certify_config(prog: &Program, req: &CertifyRequest<'_>) -> Result<CertifyReport, String> {
    let mut sp = chipmunk_trace::span!(
        "certify.run",
        stages = req.grid.stages,
        slots = req.grid.slots,
        width = req.width,
    );
    let res = certify_config_impl(prog, req);
    if chipmunk_trace::enabled() {
        match &res {
            Ok(r) => {
                sp.record("result", "certified");
                sp.record("inputs", r.inputs_checked as u64);
            }
            Err(why) => {
                sp.record("result", "uncertified");
                sp.record("reason", why.as_str());
            }
        }
        chipmunk_trace::counter_add!("certify.runs", 1);
    }
    res
}

fn certify_config_impl(prog: &Program, req: &CertifyRequest<'_>) -> Result<CertifyReport, String> {
    let width = req.width;
    if width == 0 || width > 64 {
        return Err(format!("width {width} is outside 1..=64"));
    }
    // The oracle interprets the hash-free program (hash calls become free
    // metadata fields, exactly as the compiler sees them).
    let mut hashfree = prog.clone();
    if hashfree.stmts().iter().any(|s| s.contains_hash()) {
        chipmunk_lang::passes::eliminate_hashes(&mut hashfree);
    }
    let num_fields = hashfree.field_names().len();
    let num_states = hashfree.state_names().len();

    // --- Structural checks. A corrupted field map must become a typed
    // failure, not an out-of-bounds panic on whatever thread runs this.
    if req.field_to_container.len() != num_fields {
        return Err(format!(
            "field map covers {} fields, program has {num_fields}",
            req.field_to_container.len()
        ));
    }
    let mut used = vec![false; req.grid.slots];
    for (f, &c) in req.field_to_container.iter().enumerate() {
        if c >= req.grid.slots {
            return Err(format!(
                "field {f} mapped to container {c}, grid has {} slots",
                req.grid.slots
            ));
        }
        if used[c] {
            return Err(format!("two fields share container {c}"));
        }
        used[c] = true;
    }
    // Pipeline::new re-validates the full configuration against the grid.
    let mut pipe = Pipeline::new(req.grid.clone(), req.pipeline.clone(), num_states, width)
        .map_err(|e| format!("configuration rejected by the grid simulator: {e}"))?;

    // --- Differential execution: interpreter (spec) vs pipeline (hw).
    let interp = Interpreter::new(&hashfree, width);
    let mut check = |inp: &PacketState| -> Result<(), String> {
        if inp.fields.len() != num_fields || inp.states.len() != num_states {
            return Err(format!(
                "counterexample arity mismatch: {}/{} values for {num_fields} fields / \
                 {num_states} states",
                inp.fields.len(),
                inp.states.len()
            ));
        }
        for (v, &val) in inp.states.iter().enumerate() {
            pipe.set_state(v, val);
        }
        let mut phv = vec![0u64; req.grid.slots];
        for (f, &c) in req.field_to_container.iter().enumerate() {
            phv[c] = inp.fields[f];
        }
        let phv_out = pipe.exec(&phv);
        let got = PacketState {
            fields: req.field_to_container.iter().map(|&c| phv_out[c]).collect(),
            states: (0..num_states).map(|v| pipe.state(v)).collect(),
        };
        let want = interp.exec(inp);
        if got != want {
            return Err(format!(
                "pipeline diverges from spec on input {:?}/{:?}: hw {:?}/{:?} != spec {:?}/{:?}",
                inp.fields, inp.states, got.fields, got.states, want.fields, want.states
            ));
        }
        Ok(())
    };

    let mut checked = 0usize;
    let zero = PacketState {
        fields: vec![0; num_fields],
        states: vec![0; num_states],
    };
    check(&zero)?;
    checked += 1;
    for cex in req.counterexamples {
        check(cex)?;
        checked += 1;
    }
    // Seeded random sweep, restricted to the approximate-synthesis domain
    // when one is in force (outside it the pipeline may legally diverge).
    let eff = req.domain_width.map_or(width, |d| d.min(width));
    let mask = if eff >= 64 {
        u64::MAX
    } else {
        (1u64 << eff) - 1
    };
    let mut rng = SplitMix64(req.seed);
    for _ in 0..req.samples {
        let inp = PacketState {
            fields: (0..num_fields).map(|_| rng.next_u64() & mask).collect(),
            states: (0..num_states).map(|_| rng.next_u64() & mask).collect(),
        };
        check(&inp)?;
        checked += 1;
    }
    Ok(CertifyReport {
        inputs_checked: checked,
    })
}

/// Certify raw synthesis output before a [`CodegenSuccess`] is even
/// assembled — the gate the plan executor applies to every candidate win
/// (in a strategy race, *inside* the race, so an uncertified candidate
/// never cancels the other strategies).
///
/// `extra_inputs` are additional known-hard inputs to replay beyond the
/// run's own counterexamples — the plan executor passes the job's
/// cross-step counterexample pool, so a winner is also checked against
/// every input any earlier (failed) step was sensitive to.
pub(crate) fn certify_synthesized(
    prog: &Program,
    opts: &CompilerOptions,
    grid: &chipmunk_pisa::GridSpec,
    s: &crate::cegis::Synthesized,
    extra_inputs: &[PacketState],
) -> Result<CertifyReport, String> {
    let mut replay = s.counterexamples.clone();
    for inp in extra_inputs {
        if inp.fields.len() == prog.field_names().len()
            && inp.states.len() == prog.state_names().len()
            && !replay.contains(inp)
        {
            replay.push(inp.clone());
        }
    }
    certify_config(
        prog,
        &CertifyRequest {
            grid,
            pipeline: &s.decoded.pipeline,
            field_to_container: &s.decoded.field_to_container,
            counterexamples: &replay,
            width: opts.cegis.verify_width,
            domain_width: opts.cegis.domain_width,
            samples: DEFAULT_SAMPLES,
            seed: opts.cegis.seed ^ CERT_SEED_SALT,
        },
    )
}

/// Certify a fresh [`CodegenSuccess`] as produced by
/// [`crate::compile`], replaying its recorded CEGIS counterexamples.
pub fn certify_success(
    prog: &Program,
    opts: &CompilerOptions,
    out: &CodegenSuccess,
) -> Result<CertifyReport, String> {
    certify_config(
        prog,
        &CertifyRequest {
            grid: &out.grid,
            pipeline: &out.decoded.pipeline,
            field_to_container: &out.decoded.field_to_container,
            counterexamples: &out.counterexamples,
            width: opts.cegis.verify_width,
            domain_width: opts.cegis.domain_width,
            samples: DEFAULT_SAMPLES,
            seed: opts.cegis.seed ^ CERT_SEED_SALT,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn compiled(src: &str) -> (Program, CompilerOptions, CodegenSuccess) {
        let prog = chipmunk_lang::parse(src).unwrap();
        let opts = CompilerOptions::small_for_tests();
        let out = compile(&prog, &opts).expect("compiles");
        (prog, opts, out)
    }

    #[test]
    fn genuine_results_certify() {
        let (prog, opts, out) = compiled("state s; s = s + pkt.x; pkt.y = s;");
        let report = certify_success(&prog, &opts, &out).expect("certifies");
        // all-zeros + counterexamples + sweep
        assert!(report.inputs_checked > DEFAULT_SAMPLES);
    }

    #[test]
    fn bit_flipped_field_map_is_rejected() {
        let (prog, opts, mut out) = compiled("pkt.y = pkt.x + 1;");
        // Mis-wire: swap the two fields' containers. The result is a
        // structurally valid but semantically wrong configuration.
        out.decoded.field_to_container.swap(0, 1);
        let err = certify_success(&prog, &opts, &out).expect_err("must fail");
        assert!(err.contains("diverges"), "err: {err}");
    }

    #[test]
    fn out_of_range_container_is_a_typed_failure() {
        let (prog, opts, mut out) = compiled("pkt.y = pkt.x + 1;");
        out.decoded.field_to_container[0] = out.grid.slots + 17;
        let err = certify_success(&prog, &opts, &out).expect_err("must fail");
        assert!(err.contains("container"), "err: {err}");
    }

    #[test]
    fn aliased_fields_are_a_typed_failure() {
        let (prog, opts, mut out) = compiled("pkt.y = pkt.x + 1;");
        let c = out.decoded.field_to_container[0];
        out.decoded.field_to_container[1] = c;
        let err = certify_success(&prog, &opts, &out).expect_err("must fail");
        assert!(err.contains("share"), "err: {err}");
    }

    #[test]
    fn corrupted_pipeline_config_is_rejected() {
        let (prog, opts, mut out) = compiled("pkt.x = pkt.x + 1;");
        // Flip a bit in a stateless immediate: still structurally valid,
        // but the pipeline now computes the wrong constant.
        out.decoded.pipeline.stages[0].stateless[0].imm ^= 1;
        // Either the semantic check or (for some templates) the validator
        // must refuse — the point is: never certified.
        assert!(certify_success(&prog, &opts, &out).is_err());
    }

    #[test]
    fn wrong_stage_count_is_rejected_by_the_simulator() {
        let (prog, opts, mut out) = compiled("pkt.x = pkt.x + 1;");
        out.decoded.pipeline.stages.clear();
        let err = certify_success(&prog, &opts, &out).expect_err("must fail");
        assert!(err.contains("rejected"), "err: {err}");
    }
}
