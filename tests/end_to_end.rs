//! End-to-end integration: corpus programs through both code generators,
//! with every produced artifact validated against the reference
//! interpreter.
//!
//! Chipmunk runs use reduced verification widths so the suite stays fast
//! in debug builds; the full-width runs live in the `table2`/`figure5`
//! release binaries.

use chipmunk_suite::bench::{by_name, corpus};
use chipmunk_suite::chipmunk::{
    cegis::validate_decoded, compile as chipmunk_compile, CegisOptions, CompilerOptions, Sketch,
};
use chipmunk_suite::domino::{compile as domino_compile, DominoOptions};
use chipmunk_suite::lang::{Interpreter, PacketState};
use chipmunk_suite::pisa::StatelessAluSpec;

fn fast_chipmunk_opts(b: &chipmunk_suite::bench::Benchmark) -> CompilerOptions {
    CompilerOptions {
        max_stages: 3,
        slots: None,
        stateful: b.template.spec(4),
        stateless: StatelessAluSpec::banzai(4),
        sketch: Default::default(),
        cegis: CegisOptions {
            verify_width: 7,
            screen_width: Some(5),
            synth_input_bits: 4,
            num_initial_inputs: 3,
            max_iters: 128,
            deadline: None,
            seed: 99,
            domain_width: None,
            budget: chipmunk_suite::sat::ResourceBudget::UNLIMITED,
        },
        timeout: Some(std::time::Duration::from_secs(240)),
        portfolio: false,
    }
}

#[test]
fn every_original_compiles_under_domino_and_matches_the_interpreter() {
    for b in corpus() {
        let prog = b.program();
        let opts = DominoOptions {
            width: 10,
            stateless: StatelessAluSpec::banzai(4),
            stateful: b.template.spec(4),
        };
        let out = domino_compile(&prog, &opts)
            .unwrap_or_else(|e| panic!("{}: domino rejected original: {e}", b.name));

        let mut folded = prog.clone();
        chipmunk_suite::lang::passes::const_fold(&mut folded, 10);
        let interp = Interpreter::new(&folded, 10);
        let mut seed = 0x1234u64;
        for _ in 0..200 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let inp = PacketState {
                fields: (0..prog.field_names().len())
                    .map(|k| (seed >> (3 * k + 1)) & 0x3ff)
                    .collect(),
                states: (0..prog.state_names().len())
                    .map(|k| (seed >> (5 * k + 11)) & 0x3ff)
                    .collect(),
            };
            assert_eq!(out.exec(&inp), interp.exec(&inp), "{} diverges", b.name);
        }
    }
}

#[test]
fn fast_benchmarks_synthesize_and_validate() {
    // The cheap half of the corpus (small grids) at reduced width.
    for name in ["sampling", "detect-new-flows", "stateful-firewall"] {
        let b = by_name(name).expect("corpus");
        let prog = b.program();
        let opts = fast_chipmunk_opts(&b);
        let out = chipmunk_compile(&prog, &opts)
            .unwrap_or_else(|e| panic!("{name}: chipmunk failed: {e}"));
        assert_eq!(out.resources.stages_used, 1, "{name} should fit one stage");
        let sketch = Sketch::new(
            out.grid.clone(),
            prog.field_names().len(),
            prog.state_names().len(),
            opts.sketch,
        )
        .expect("sketch reconstructs");
        assert_eq!(
            validate_decoded(
                &prog,
                &sketch,
                &out.decoded,
                opts.cegis.verify_width,
                500,
                5
            ),
            None,
            "{name}: synthesized config diverges from spec"
        );
    }
}

#[test]
fn chipmunk_beats_domino_on_stage_count_for_firewall() {
    // The Figure 5 claim on one concrete program: the synthesized pipeline
    // is shallower than the rewrite-rule pipeline.
    let b = by_name("stateful-firewall").expect("corpus");
    let prog = b.program();
    let d = domino_compile(
        &prog,
        &DominoOptions {
            width: 7,
            stateless: StatelessAluSpec::banzai(4),
            stateful: b.template.spec(4),
        },
    )
    .expect("domino compiles the original");
    let c = chipmunk_compile(&prog, &fast_chipmunk_opts(&b)).expect("chipmunk compiles");
    assert!(
        c.resources.stages_used <= d.resources.stages_used,
        "chipmunk {} stages vs domino {}",
        c.resources.stages_used,
        d.resources.stages_used
    );
}

#[test]
fn mutations_preserve_the_table2_asymmetry_on_sampling() {
    // Chipmunk compiles every mutation; Domino rejects at least one.
    let b = by_name("sampling").expect("corpus");
    let prog = b.program();
    let muts = chipmunk_suite::mutate::mutations(&prog, 2019, 6);
    let d_opts = DominoOptions {
        width: 7,
        stateless: StatelessAluSpec::banzai(4),
        stateful: b.template.spec(4),
    };
    let mut domino_fail = 0;
    for (i, m) in muts.iter().enumerate() {
        if domino_compile(m, &d_opts).is_err() {
            domino_fail += 1;
        }
        let out = chipmunk_compile(m, &fast_chipmunk_opts(&b))
            .unwrap_or_else(|e| panic!("chipmunk failed mutation {i}: {e}\n{m}"));
        assert!(out.resources.stages_used <= 2);
    }
    assert!(
        domino_fail > 0,
        "expected the rigid matcher to reject at least one of 6 mutations"
    );
}

#[test]
fn synthesized_sampling_pipeline_streams_thousands_of_packets() {
    let b = by_name("sampling").expect("corpus");
    let prog = b.program();
    let opts = fast_chipmunk_opts(&b);
    let out = chipmunk_compile(&prog, &opts).expect("compiles");
    let mut pipe = chipmunk_suite::pisa::Pipeline::new(
        out.grid.clone(),
        out.decoded.pipeline.clone(),
        1,
        opts.cegis.verify_width,
    )
    .expect("config validates");
    let interp = Interpreter::new(&prog, opts.cegis.verify_width);
    let mut st = PacketState::zeroed(&prog);
    let mut samples = 0u64;
    for _ in 0..5000 {
        let phv = pipe.exec(&[st.fields[0]]);
        st = interp.exec(&st);
        assert_eq!(phv[0], st.fields[0]);
        samples += phv[0];
    }
    assert_eq!(samples, 500); // exactly every 10th packet
}
