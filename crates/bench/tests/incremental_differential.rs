//! Differential proof that the incremental (assumption-pinned, persistent
//! miter) verifier agrees with a from-scratch rebuild on the paper's
//! 8-benchmark corpus (Table 2).
//!
//! The two paths blast *different* CNFs — the incremental miter keeps
//! hole machinery symbolic while the rebuild constant-folds it away — so
//! the properties checked are semantic, not syntactic:
//!
//! 1. **Verdict agreement.** For the winning configuration and for seeded
//!    single-bit perturbations of it, `Verifier` (incremental) and
//!    `verify_at` (rebuild) return equivalent/inequivalent verdicts in
//!    lockstep.
//! 2. **Counterexample genuineness.** Any input either path returns
//!    concretely distinguishes the candidate from the spec program
//!    (`distinguishes_at`) — the paths may return *different* inputs, but
//!    never a bogus one.

use chipmunk::cegis::{distinguishes_at, verify_at};
use chipmunk::{compile, CompilerOptions, Sketch, Verifier};
use chipmunk_bench::corpus::corpus;
use chipmunk_pisa::StatelessAluSpec;

/// Fast, deterministic options for one benchmark — small verify widths so
/// the whole corpus stays inside tier-1 time even in debug builds.
fn bench_options(b: &chipmunk_bench::corpus::Benchmark) -> CompilerOptions {
    let mut opts = CompilerOptions::small_for_tests();
    opts.stateful = b.template.spec(3);
    opts.stateless = StatelessAluSpec::banzai(3);
    opts.max_stages = 3;
    opts
}

/// SplitMix64 — deterministic perturbation stream without a `rand` dep.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[test]
fn incremental_and_rebuild_verifiers_agree_on_the_corpus() {
    for (bi, b) in corpus().into_iter().enumerate() {
        // Debug builds keep tier-1 fast by covering the cheap half of the
        // corpus; release runs (the tier-1 gate builds in release first)
        // and `chipmunk-bench --bin incremental` cover all eight.
        if cfg!(debug_assertions) && !matches!(b.name, "sampling" | "detect-new-flows") {
            continue;
        }
        let prog = b.program();
        let opts = bench_options(&b);
        let out = compile(&prog, &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let sketch = Sketch::new(
            out.grid.clone(),
            prog.field_names().len(),
            prog.state_names().len(),
            opts.sketch,
        )
        .expect("winning sketch reconstructs");
        let w = opts.cegis.verify_width;
        let dw = opts.cegis.domain_width;

        // One persistent incremental instance answers every query below;
        // its state survives mixed SAT/UNSAT results, which is exactly
        // the hazard this suite guards.
        let mut inc = Verifier::new(&prog, &sketch, w, dw);

        // The winner is equivalent under both paths.
        assert_eq!(
            inc.check(&out.hole_values, None, None).unwrap(),
            None,
            "{}: winner rejected incrementally",
            b.name
        );
        assert_eq!(
            verify_at(&prog, &sketch, &out.hole_values, w, dw, None).unwrap(),
            None,
            "{}: winner rejected by rebuild",
            b.name
        );

        // Seeded single-bit perturbations: verdicts agree, and every
        // returned counterexample is genuine.
        let mut rng = 0x1ec4e5b9_u64 ^ ((bi as u64) << 32) ^ 0xd1ff;
        for round in 0..12 {
            let mut hv = out.hole_values.clone();
            let i = (splitmix(&mut rng) as usize) % hv.len();
            let bits = u64::from(sketch.holes()[i].bits.max(1));
            hv[i] ^= 1 << (splitmix(&mut rng) % bits);
            let fresh = verify_at(&prog, &sketch, &hv, w, dw, None).unwrap();
            let pinned = inc.check(&hv, None, None).unwrap();
            assert_eq!(
                fresh.is_none(),
                pinned.is_none(),
                "{} round {round}: verdicts diverge for {hv:?} \
                 (rebuild {fresh:?}, incremental {pinned:?})",
                b.name
            );
            for cex in [fresh, pinned].into_iter().flatten() {
                assert!(
                    distinguishes_at(&prog, &sketch, &hv, &cex, w),
                    "{} round {round}: bogus counterexample {cex:?} for {hv:?}",
                    b.name
                );
            }
        }

        // After all that churn the persistent instance still accepts the
        // winner.
        assert_eq!(
            inc.check(&out.hole_values, None, None).unwrap(),
            None,
            "{}: incremental verifier corrupted by earlier queries",
            b.name
        );
    }
}
