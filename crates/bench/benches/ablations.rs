//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **A — canonicalization** (§3, Figure 4 of the paper): pinning packet
//!   field *i* to container *i* versus synthesizing a full field→container
//!   indicator matrix under one-hot constraints.
//! * **B — decoupled verification widths** (§3): a cheap small-width
//!   screening verifier in front of the full-width check versus verifying
//!   at full width only.
//! * **C — opcode restriction** (§3): the full Banzai stateless opcode set
//!   versus an arithmetic-only subset, on a program the subset can express.
//! * **D — verification width sweep**: how the semantic width scales
//!   synthesis time.

use std::hint::black_box;

use chipmunk::{cegis, CegisOptions, Sketch, SketchOptions};
use chipmunk_bench::by_name;
use chipmunk_bench::harness::Bench;
use chipmunk_lang::parse;
use chipmunk_pisa::{stateful::library, GridSpec, StatelessAluSpec};

fn cegis_opts(width: u8, screen: Option<u8>) -> CegisOptions {
    CegisOptions {
        verify_width: width,
        screen_width: screen,
        synth_input_bits: 4,
        num_initial_inputs: 3,
        max_iters: 128,
        deadline: None,
        seed: 13,
        domain_width: None,
        budget: chipmunk_sat::ResourceBudget::UNLIMITED,
    }
}

fn main() {
    let bench = Bench::from_env();

    // A — canonical versus free packet-field allocation.
    let mut g = bench.group("ablation_canonicalization");
    g.sample_size(10);
    let prog = parse("pkt.y = pkt.x + 2; pkt.z = pkt.x ^ pkt.y;").expect("parses");
    for (label, canonical) in [("canonical", true), ("indicator_matrix", false)] {
        g.bench(label, || {
            let grid = GridSpec::new(2, 3, library::raw(3), 3);
            let sketch = Sketch::new(
                grid,
                3,
                0,
                SketchOptions {
                    canonical_fields: canonical,
                },
            )
            .expect("sketch builds");
            let out = cegis::synthesize(black_box(&prog), &sketch, &cegis_opts(7, Some(5)))
                .expect("feasible");
            black_box(out.hole_values)
        });
    }

    // B — screening verifier on/off.
    let mut g = bench.group("ablation_screening");
    g.sample_size(10);
    let b_ = by_name("blue-increase").expect("corpus");
    let prog = b_.program();
    for (label, screen) in [("screen_at_5", Some(5u8)), ("full_width_only", None)] {
        g.bench(label, || {
            let grid = GridSpec {
                stages: 2,
                slots: 2,
                stateless: StatelessAluSpec::banzai(4),
                stateful: b_.template.spec(4),
            };
            let sketch = Sketch::new(grid, 2, 2, SketchOptions::default()).expect("builds");
            let out = cegis::synthesize(black_box(&prog), &sketch, &cegis_opts(10, screen))
                .expect("feasible");
            black_box(out.stats.iterations)
        });
    }

    // C — full versus restricted stateless opcode set.
    let mut g = bench.group("ablation_opcode_restriction");
    g.sample_size(10);
    // Pure arithmetic program: expressible by the restricted ALU.
    let prog = parse("pkt.y = pkt.x + 3; pkt.z = pkt.y - pkt.x;").expect("parses");
    for (label, spec) in [
        ("banzai_full", StatelessAluSpec::banzai(3)),
        ("arith_only", StatelessAluSpec::arith_only(3)),
    ] {
        g.bench(label, || {
            let grid = GridSpec {
                stages: 2,
                slots: 3,
                stateless: spec.clone(),
                stateful: library::raw(3),
            };
            let sketch = Sketch::new(grid, 3, 0, SketchOptions::default()).expect("builds");
            let out = cegis::synthesize(black_box(&prog), &sketch, &cegis_opts(7, Some(5)))
                .expect("feasible");
            black_box(out.hole_values)
        });
    }

    // D — semantic width sweep on sampling.
    let mut g = bench.group("ablation_width_sweep");
    g.sample_size(10);
    let b_ = by_name("sampling").expect("corpus");
    let prog = b_.program();
    for width in [6u8, 8, 10] {
        g.bench(width, || {
            let grid = GridSpec {
                stages: 1,
                slots: 1,
                stateless: StatelessAluSpec::banzai(4),
                stateful: b_.template.spec(4),
            };
            let sketch = Sketch::new(grid, 1, 1, SketchOptions::default()).expect("builds");
            let out = cegis::synthesize(black_box(&prog), &sketch, &cegis_opts(width, Some(5)))
                .expect("feasible");
            black_box(out.stats.counterexamples)
        });
    }
}
