//! Differential proof that the plan-then-execute rewrite of
//! `chipmunk::compile` is behavior-identical to the historic escalation
//! loop on the paper's 8-benchmark corpus (Table 2).
//!
//! Three properties per benchmark:
//!
//! 1. **Schedule identity.** The default (non-portfolio)
//!    [`CompilePlan`] is exactly the historic schedule: one solo
//!    canonical-allocation step per depth, 1..=max_stages in order, each
//!    carrying the caller's solver budget — and the plan fingerprint is
//!    deterministic across derivations (what the serve journal keys
//!    resumable progress on).
//! 2. **Execution identity.** `compile` and `compile_with_control` with
//!    an observer produce byte-identical configurations, and the observed
//!    step sequence is a prefix of the plan: failures at depths
//!    1..k, then success at depth k+1 — smallest-first, no skipped or
//!    reordered attempts.
//! 3. **Behavioral correctness.** The winning configuration matches the
//!    program interpreter on random packets (`validate_decoded`), i.e.
//!    "behavior-identical" is anchored to the spec, not just to another
//!    compiler path.

use chipmunk::plan::{RaceMode, StepOutcome, StepReport, Strategy};
use chipmunk::{
    compile, compile_with_control, plan_compilation, CompilerOptions, PlanControl, Sketch,
};
use chipmunk_bench::corpus::corpus;
use chipmunk_pisa::StatelessAluSpec;
use std::sync::Mutex;

/// Fast, deterministic options for one benchmark — small verify widths so
/// the whole corpus stays inside tier-1 time even in debug builds.
fn bench_options(b: &chipmunk_bench::corpus::Benchmark) -> CompilerOptions {
    let mut opts = CompilerOptions::small_for_tests();
    opts.stateful = b.template.spec(3);
    opts.stateless = StatelessAluSpec::banzai(3);
    opts.max_stages = 3;
    opts
}

#[test]
fn default_plan_is_the_historic_escalation_schedule_for_every_benchmark() {
    for b in corpus() {
        let prog = b.program();
        let opts = bench_options(&b);
        let plan =
            plan_compilation(&prog, &opts).unwrap_or_else(|e| panic!("{}: no plan: {e}", b.name));
        assert_eq!(plan.steps.len(), opts.max_stages, "{}", b.name);
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.index, i, "{}", b.name);
            assert_eq!(step.stages, i + 1, "{}: depths ascend from 1", b.name);
            assert_eq!(
                step.strategy,
                Strategy::CanonicalAllocation,
                "{}: default strategy",
                b.name
            );
            assert_eq!(step.budget, opts.cegis.budget, "{}", b.name);
            assert_eq!(
                plan.groups[step.group].mode,
                RaceMode::Solo,
                "{}: no racing by default",
                b.name
            );
        }
        // Fingerprint determinism: `plan --explain` and the golden plans print it.
        let again = plan_compilation(&prog, &opts).unwrap();
        assert_eq!(plan.fingerprint(), again.fingerprint(), "{}", b.name);
    }
}

#[test]
fn compile_equals_plan_execution_and_validates_on_the_corpus() {
    for b in corpus() {
        // Debug builds keep tier-1 fast by covering the cheap half of the
        // corpus; release runs (the tier-1 gate builds in release first)
        // and the experiment binaries cover all eight.
        if cfg!(debug_assertions) && !matches!(b.name, "sampling" | "detect-new-flows") {
            continue;
        }
        let prog = b.program();
        let opts = bench_options(&b);
        let plain = compile(&prog, &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));

        let reports: Mutex<Vec<StepReport>> = Mutex::new(Vec::new());
        let obs = |r: &StepReport| reports.lock().unwrap().push(*r);
        let controlled = compile_with_control(
            &prog,
            &opts,
            PlanControl {
                observer: Some(&obs),
                ..PlanControl::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: controlled path: {e}", b.name));

        // Byte-identical configurations: same grid, same field layout,
        // same pipeline holes.
        assert_eq!(plain.grid, controlled.grid, "{}", b.name);
        assert_eq!(
            format!("{:?}", plain.decoded),
            format!("{:?}", controlled.decoded),
            "{}",
            b.name
        );
        assert_eq!(plain.hole_values, controlled.hole_values, "{}", b.name);

        // The observed steps are the plan prefix: failures strictly below
        // the winning depth, then one success at it, nothing after.
        let reports = reports.into_inner().unwrap();
        let win = plain.resources.stages_used;
        assert!(!reports.is_empty(), "{}", b.name);
        for r in &reports[..reports.len() - 1] {
            assert!(r.stages < reports[reports.len() - 1].stages, "{}", b.name);
            assert_ne!(r.outcome, StepOutcome::Success, "{}", b.name);
        }
        let last = reports.last().unwrap();
        assert_eq!(last.outcome, StepOutcome::Success, "{}", b.name);
        assert!(
            last.stages >= win,
            "{}: success at depth {} but {} stages used",
            b.name,
            last.stages,
            win
        );

        // Behavior-identical to the spec program on random packets.
        let sketch = Sketch::new(
            plain.grid.clone(),
            prog.field_names().len(),
            prog.state_names().len(),
            opts.sketch,
        )
        .expect("winning sketch reconstructs");
        assert_eq!(
            chipmunk::cegis::validate_decoded(
                &prog,
                &sketch,
                &plain.decoded,
                opts.cegis.verify_width,
                300,
                11
            ),
            None,
            "{}: pipeline diverges from the interpreter",
            b.name
        );
    }
}
