//! CI gate for the negative half of Table 2: every `Infeasible` the
//! compiler reports on the 8-benchmark corpus must carry a DRAT
//! certificate that the in-repo checker validates independently.
//!
//! The paper's minimality claims rest on UNSAT at depth k−1. For the
//! benchmarks whose minimal depth k is ≥ 2, that exact verdict is
//! reproduced here (compile capped at k−1 stages) and its proof
//! re-checked from the shipped transcript. Benchmarks that fit in one
//! stage have a vacuous depth-0 claim — no solver runs — so their
//! Infeasible is driven through a genuinely inexpressive stateful
//! template (`raw`, unconditional read-add-write, which cannot express
//! their predicated state updates) to keep the whole corpus exercising
//! the proof pipeline.

use chipmunk::{
    compile, CegisOptions, Certificate, CheckBudget, CodegenError, CompilerOptions, InfeasibleCert,
};
use chipmunk_bench::corpus::{corpus, Benchmark, TemplateKind};
use chipmunk_pisa::StatelessAluSpec;

/// The `incremental_verify` CI binary's options (`--width 8
/// --max-stages 3`): 4-bit immediates — wide enough for every corpus
/// constant — and widths at which the whole corpus compiles in seconds.
fn bench_options(b: &Benchmark) -> CompilerOptions {
    CompilerOptions {
        max_stages: 3,
        slots: None,
        stateful: b.template.spec(4),
        stateless: StatelessAluSpec::banzai(4),
        sketch: Default::default(),
        cegis: CegisOptions {
            verify_width: 8,
            screen_width: Some(5),
            synth_input_bits: 5,
            num_initial_inputs: 4,
            max_iters: 256,
            seed: 2019 ^ 0xc0ffee,
            ..CegisOptions::default()
        },
        timeout: None,
        portfolio: false,
    }
}

/// Compile expecting an Infeasible verdict; return its certification
/// record.
fn expect_infeasible(b: &Benchmark, opts: &CompilerOptions, what: &str) -> InfeasibleCert {
    match compile(&b.program(), opts) {
        Err(CodegenError::Infeasible(cert)) => cert,
        Ok(out) => panic!(
            "{} ({what}): expected infeasible, but it compiled in {} stage(s)",
            b.name, out.resources.stages_used
        ),
        Err(e) => panic!("{} ({what}): expected infeasible, got: {e}", b.name),
    }
}

/// The acceptance bar: certified, proof shipped, and the shipped proof
/// re-validates from its transcript through the public checker — the
/// same path `chipmunkc check-proof` takes.
fn assert_proof_checked(b: &Benchmark, what: &str, cert: &InfeasibleCert) {
    assert!(
        cert.certified,
        "{} ({what}): infeasible verdict not certified: {cert:?}",
        b.name
    );
    let proof = cert.proof.as_deref().unwrap_or_else(|| {
        panic!(
            "{} ({what}): certified verdict shipped no proof: {cert:?}",
            b.name
        )
    });
    let parsed = Certificate::parse(proof)
        .unwrap_or_else(|e| panic!("{} ({what}): shipped proof does not parse: {e}", b.name));
    assert!(
        parsed.check(&CheckBudget::default()).is_valid(),
        "{} ({what}): shipped proof fails independent re-check",
        b.name
    );
}

/// For each benchmark find its minimal depth k, then certify the
/// depth-(k−1) UNSAT (k ≥ 2) or the restricted-template UNSAT (k == 1).
#[test]
fn corpus_minimal_depth_infeasibility_is_proof_checked() {
    for b in corpus() {
        // Debug builds keep tier-1 fast with one benchmark per depth
        // class; the release CI step covers all eight.
        if cfg!(debug_assertions) && !matches!(b.name, "sampling" | "blue-increase") {
            continue;
        }
        let t0 = std::time::Instant::now();
        let opts = bench_options(&b);
        let out = compile(&b.program(), &opts)
            .unwrap_or_else(|e| panic!("{}: corpus must compile: {e}", b.name));
        let k = out.resources.stages_used;
        eprintln!(
            "{}: k={k} found in {:.2}s",
            b.name,
            t0.elapsed().as_secs_f64()
        );
        let t1 = std::time::Instant::now();
        if k >= 2 {
            // The exact minimality claim of Table 2: UNSAT at k−1.
            let mut shallow = opts.clone();
            shallow.max_stages = k - 1;
            let cert = expect_infeasible(&b, &shallow, "depth k-1");
            assert_proof_checked(&b, "depth k-1", &cert);
        } else {
            // Depth-0 infeasibility is vacuous (no solver runs), so the
            // proof pipeline is exercised by an ALU that cannot express
            // the benchmark's predicated state update.
            let mut restricted = opts.clone();
            restricted.stateful = TemplateKind::Raw.spec(4);
            restricted.max_stages = 1;
            let cert = expect_infeasible(&b, &restricted, "raw template");
            assert_proof_checked(&b, "raw template", &cert);
        }
        eprintln!(
            "{}: infeasible certified in {:.2}s",
            b.name,
            t1.elapsed().as_secs_f64()
        );
    }
}
