//! The compiler driver: grid-size search over CEGIS runs.
//!
//! PISA compilation is all-or-nothing (§1 of the paper): a program either
//! fits a grid or it does not. The driver therefore tries grids with 1, 2,
//! 3, … stages and returns the **first** success, which is automatically
//! the minimal pipeline depth — the reason Chipmunk's Figure 5 stage counts
//! beat Domino's and show no variance across mutations.
//!
//! Since the planner/executor split, this module is a thin adapter: it
//! resolves the program against the grid (hash elimination, slot
//! resolution), asks [`chipmunk_plan`] for a [`CompilePlan`] — the same
//! escalation schedule, reified as data — and executes it with a runner
//! that maps one [`PlanStep`] to a sketch + CEGIS attempt and a certifier
//! that gates every win through [`crate::certify`]. Portfolio mode
//! ([`CompilerOptions::portfolio`]) races hole-restriction strategies per
//! depth, first certified win cancels the rest.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chipmunk_lang::Program;
use chipmunk_pisa::{
    grid::resources_of, GridSpec, ResourceUsage, StatefulAluSpec, StatelessAluSpec,
};
use chipmunk_plan::{
    CompilePlan, ExecControl, ExecError, ExecSuccess, Observer, PlanInputs, PlanStep, StepError,
    Strategy,
};

use crate::cegis::{CegisOptions, CegisStats, InfeasibleCert, SynthesisError, Synthesized};
use crate::sketch::{DecodedConfig, Sketch, SketchOptions};

/// Options for a full compilation.
#[derive(Clone, Debug)]
pub struct CompilerOptions {
    /// Largest pipeline depth to try (Tofino has 12 stages; the paper's
    /// benchmarks fit well under that).
    pub max_stages: usize,
    /// PHV containers / ALUs per stage. Defaults to
    /// `max(#fields, #states, 1)` — the smallest grid the program can
    /// occupy.
    pub slots: Option<usize>,
    /// Stateful ALU template for the (homogeneous) grid.
    pub stateful: StatefulAluSpec,
    /// Stateless ALU description.
    pub stateless: StatelessAluSpec,
    /// Sketch construction options (canonicalization).
    pub sketch: SketchOptions,
    /// CEGIS options (verification widths, input sampling, iteration cap).
    pub cegis: CegisOptions,
    /// Overall wall-clock budget for the whole search.
    pub timeout: Option<Duration>,
    /// Portfolio search: at each depth, race the hole-restriction
    /// strategies (opcode-restricted / canonical-allocation / full-ALU) on
    /// worker threads; the first **certified** win cancels the others. No
    /// single strategy dominates across benchmarks, so the race wins on
    /// wall-clock.
    pub portfolio: bool,
}

impl CompilerOptions {
    /// Immediate-operand bit width shared by the CLI and serve defaults.
    pub const SERVICE_IMM_BITS: u8 = 4;
    /// Stateful ALU template name shared by the CLI and serve defaults.
    pub const SERVICE_TEMPLATE: &'static str = "if_else_raw";
    /// CEGIS verification width shared by the CLI and serve defaults.
    pub const SERVICE_VERIFY_WIDTH: u8 = 10;
    /// Pipeline-depth cap shared by the CLI and serve defaults.
    pub const SERVICE_MAX_STAGES: usize = 4;
    /// Wall-clock budget shared by the CLI and serve defaults.
    pub const SERVICE_TIMEOUT_MS: u64 = 300_000;

    /// Paper-like defaults for a given stateful ALU template.
    pub fn new(stateful: StatefulAluSpec) -> Self {
        CompilerOptions {
            max_stages: 6,
            slots: None,
            stateful,
            stateless: StatelessAluSpec::banzai(4),
            sketch: SketchOptions::default(),
            cegis: CegisOptions::default(),
            timeout: None,
            portfolio: false,
        }
    }

    /// The service-facing defaults shared by `chipmunkc compile`,
    /// `chipmunkc submit`, and the serve protocol decoder. Both front ends
    /// build from this single constructor so a new knob cannot silently
    /// diverge between the CLI path and the daemon path.
    pub fn service_defaults() -> Self {
        let stateful = chipmunk_pisa::stateful::library::by_name(
            Self::SERVICE_TEMPLATE,
            Self::SERVICE_IMM_BITS,
        )
        .expect("default template is in the library");
        let mut o = CompilerOptions::new(stateful);
        o.stateless = StatelessAluSpec::banzai(Self::SERVICE_IMM_BITS);
        o.cegis.verify_width = Self::SERVICE_VERIFY_WIDTH;
        o.max_stages = Self::SERVICE_MAX_STAGES;
        o.timeout = Some(Duration::from_millis(Self::SERVICE_TIMEOUT_MS));
        o
    }

    /// Small widths and grids for fast unit tests and doctests.
    pub fn small_for_tests() -> Self {
        let mut o = CompilerOptions::new(chipmunk_pisa::stateful::library::if_else_raw(3));
        o.max_stages = 2;
        o.stateless = StatelessAluSpec::banzai(3);
        o.cegis = CegisOptions {
            verify_width: 6,
            screen_width: Some(3),
            synth_input_bits: 3,
            num_initial_inputs: 3,
            max_iters: 64,
            seed: 42,
            ..CegisOptions::default()
        };
        o
    }
}

/// A successful compilation.
#[derive(Clone, Debug)]
pub struct CodegenSuccess {
    /// The synthesized hardware configuration.
    pub decoded: DecodedConfig,
    /// Raw hole values (aligned with the winning sketch's hole layout).
    pub hole_values: Vec<u64>,
    /// The grid the program was fitted to.
    pub grid: GridSpec,
    /// Resource usage — the paper's Figure 5 metrics.
    pub resources: ResourceUsage,
    /// CEGIS work counters of the winning run.
    pub stats: CegisStats,
    /// Wall time of the whole search.
    pub elapsed: Duration,
    /// Grid depths attempted: the winning depth, since depths escalate
    /// smallest-first.
    pub stages_tried: usize,
    /// The CEGIS counterexamples that shaped this result — replayed by
    /// [`crate::certify`] whenever the configuration is re-checked (e.g.
    /// after a cache hit in the serving layer).
    pub counterexamples: Vec<chipmunk_lang::PacketState>,
}

/// Why compilation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodegenError {
    /// The program shape cannot fit any grid (too many fields/states for
    /// the slot count).
    TooLarge(String),
    /// Synthesis proved the program infeasible for every grid depth up to
    /// `max_stages`. Carries the certification record of the deepest
    /// depth's UNSAT — the verdict that pins the "does not fit" claim.
    Infeasible(InfeasibleCert),
    /// The time budget or iteration caps were exhausted before a decision.
    Timeout,
    /// A search thread panicked. Carries the (truncated) panic message.
    /// This is a compiler defect surfaced as data instead of an unwinding
    /// thread, so the serving layer can answer the client and keep the
    /// worker alive.
    Internal(String),
    /// The options were self-contradictory (e.g. a verification width
    /// narrower than the sketch's widest hole) — caller error, reported
    /// before any solving starts.
    InvalidOptions(String),
    /// The synthesized configuration failed independent certification
    /// against the program spec — a compiler or cache defect caught at
    /// the last line of defense, never shipped to the caller.
    Uncertified(String),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::TooLarge(m) => write!(f, "program too large: {m}"),
            CodegenError::Infeasible(cert) => write!(
                f,
                "no grid up to max_stages fits the program ({})",
                if cert.certified {
                    "proof-certified"
                } else {
                    "unchecked"
                }
            ),
            CodegenError::Timeout => write!(f, "compilation timed out"),
            CodegenError::Internal(m) => write!(f, "internal compiler error: {m}"),
            CodegenError::InvalidOptions(m) => write!(f, "invalid options: {m}"),
            CodegenError::Uncertified(m) => {
                write!(f, "result failed certification: {m}")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// The program-dependent plan parameters: hash-eliminated program, its
/// field/state counts, and the resolved grid width.
struct ResolvedProgram {
    prog: Program,
    num_fields: usize,
    num_states: usize,
    slots: usize,
}

fn resolve_program(
    prog: &Program,
    opts: &CompilerOptions,
) -> Result<ResolvedProgram, CodegenError> {
    let mut prog = prog.clone();
    if prog.stmts().iter().any(|s| s.contains_hash()) {
        chipmunk_lang::passes::eliminate_hashes(&mut prog);
    }
    let num_fields = prog.field_names().len();
    let num_states = prog.state_names().len();
    let slots = opts
        .slots
        .unwrap_or_else(|| num_fields.max(num_states).max(1));
    if num_fields > slots || num_states > slots {
        return Err(CodegenError::TooLarge(format!(
            "{num_fields} fields / {num_states} states exceed {slots} slots"
        )));
    }
    Ok(ResolvedProgram {
        prog,
        num_fields,
        num_states,
        slots,
    })
}

fn plan_for(resolved: &ResolvedProgram, opts: &CompilerOptions) -> CompilePlan {
    chipmunk_plan::plan(&PlanInputs {
        max_stages: opts.max_stages,
        slots: resolved.slots,
        portfolio: opts.portfolio,
        budget: opts.cegis.budget,
        canonical_fields: opts.sketch.canonical_fields,
    })
}

/// Produce the [`CompilePlan`] that [`compile`] would execute for this
/// program, without running it — the `chipmunkc plan --explain` entry
/// point, and what the serving layer fingerprints for resumable jobs.
///
/// Hash calls are eliminated and the grid width resolved exactly as in
/// [`compile`], so the plan's step shapes match the attempts a real run
/// would make. Fails with [`CodegenError::TooLarge`] when no grid fits.
pub fn plan_compilation(
    prog: &Program,
    opts: &CompilerOptions,
) -> Result<CompilePlan, CodegenError> {
    Ok(plan_for(&resolve_program(prog, opts)?, opts))
}

/// How one [`PlanStep`]'s strategy specializes the caller's options: the
/// stateless ALU to sketch with and the sketch canonicalization flag.
///
/// The mapping is identity-preserving for the planner's default plans:
/// `CanonicalAllocation` with `sketch.canonical_fields == true` (and
/// `FullAlu` with it `false`) reproduce the caller's options byte-for-byte,
/// which is what makes the default plan behavior-identical to the historic
/// escalation loop.
fn strategy_config(
    opts: &CompilerOptions,
    strategy: Strategy,
) -> (StatelessAluSpec, SketchOptions) {
    match strategy {
        Strategy::CanonicalAllocation => (
            opts.stateless.clone(),
            SketchOptions {
                canonical_fields: true,
            },
        ),
        Strategy::OpcodeRestricted => (
            StatelessAluSpec::arith_only(opts.stateless.imm_bits),
            SketchOptions {
                canonical_fields: true,
            },
        ),
        Strategy::FullAlu => (
            opts.stateless.clone(),
            SketchOptions {
                canonical_fields: false,
            },
        ),
    }
}

/// Re-encode every stateless opcode of `pipeline` from `from`'s op list
/// to `base`'s, by operation identity.
///
/// Two spec-relative artifacts must not leak out of a strategy step.
/// First, the opcode hole is `opcode_bits(from)` wide, so the solver may
/// legally pick an index past the end of `from.ops`; the ALU clamps such
/// an index to the last opcode, and that clamp has to be baked in here —
/// under a wider `base` the raw index would name a real, different
/// operation. Second, the same operation generally sits at a different
/// index in each list, so indices are translated op-by-op. Steps whose
/// spec *is* the base spec are left byte-identical (the default plan's
/// behavior-equivalence guarantee). An op missing from `base` makes the
/// candidate unusable on the caller's hardware: the step reports
/// [`StepError::Infeasible`], which portfolio grouping already treats as
/// non-authoritative for restricted strategies.
fn remap_stateless_ops(
    pipeline: &mut chipmunk_pisa::grid::PipelineConfig,
    from: &StatelessAluSpec,
    base: &StatelessAluSpec,
) -> Result<(), StepError> {
    if from == base {
        return Ok(());
    }
    for stage in &mut pipeline.stages {
        for alu in &mut stage.stateless {
            let clamped = (alu.opcode as usize).min(from.ops.len().saturating_sub(1));
            let op = from.ops[clamped];
            let idx = base
                .ops
                .iter()
                .position(|o| *o == op)
                // Not a proof-backed verdict — the candidate just cannot
                // run on the caller's hardware — so never authoritative.
                .ok_or(StepError::Infeasible { certified: false })?;
            alu.opcode = idx as u64;
        }
    }
    Ok(())
}

/// Execution knobs for [`compile_with_control`] beyond the options: the
/// serving layer's cancellation flag, journal-driven resume offset, and
/// per-step progress observer.
#[derive(Default)]
pub struct PlanControl<'a> {
    /// Cooperative cancellation: when another thread sets the flag, the
    /// search stops at the next solver checkpoint.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Skip plan steps with `index < resume_from` — they already completed
    /// (without winning) in a previous run of the same plan.
    pub resume_from: usize,
    /// Invoked once per executed step with its outcome; the serving layer
    /// journals progress and attributes per-strategy metrics here.
    pub observer: Option<Observer<'a>>,
}

/// Compile a packet transaction to a PISA configuration.
///
/// Hash calls are eliminated automatically (each becomes a fresh read-only
/// metadata field, as delivered by PISA hash units).
pub fn compile(prog: &Program, opts: &CompilerOptions) -> Result<CodegenSuccess, CodegenError> {
    compile_with_control(prog, opts, PlanControl::default())
}

/// [`compile`] with a cooperative cancellation flag. When another thread
/// sets the flag, the search stops at the next solver checkpoint and
/// reports [`CodegenError::Timeout`] — the serving layer uses this for
/// per-job timeouts and abortive shutdown. Works in every plan mode (in
/// racing groups a monitor fans the external flag out to every per-step
/// flag).
pub fn compile_with_cancel(
    prog: &Program,
    opts: &CompilerOptions,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<CodegenSuccess, CodegenError> {
    compile_with_control(
        prog,
        opts,
        PlanControl {
            cancel,
            ..PlanControl::default()
        },
    )
}

/// [`compile`] with full plan-execution control: cancellation, resuming a
/// half-executed plan at its first unfinished step, and a per-step
/// observer. This is the primitive the serve daemon drives; `compile` and
/// [`compile_with_cancel`] are thin wrappers.
pub fn compile_with_control(
    prog: &Program,
    opts: &CompilerOptions,
    ctl: PlanControl<'_>,
) -> Result<CodegenSuccess, CodegenError> {
    let start = Instant::now();
    let mut search_sp = chipmunk_trace::span!(
        "search.compile",
        max_stages = opts.max_stages,
        portfolio = opts.portfolio,
    );
    let resolved = match resolve_program(prog, opts) {
        Ok(r) => r,
        Err(e) => {
            search_sp.record("result", "too_large");
            return Err(e);
        }
    };
    let plan = plan_for(&resolved, opts);
    let prog = &resolved.prog;
    // One job-wide wall-clock deadline: the sooner of the coarse timeout
    // and any caller-supplied (wire `deadline_ms`) CEGIS deadline. The
    // plan executor derives remaining-time budgets from it, and the
    // budget account pushes it down to every solver's own polling.
    let deadline = match (opts.timeout.map(|t| start + t), opts.cegis.deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let cegis_base = CegisOptions {
        deadline,
        ..opts.cegis
    };
    // Job-wide solver accounting: every plan step's synthesis and
    // verification solvers debit this one ledger, so the caller's budget
    // ceilings bound the whole compile, not each solver separately.
    let account = Arc::new(chipmunk_sat::BudgetAccount::new());
    account.set_deadline(deadline);
    // Cross-step counterexample pool: hard inputs discovered at a failed
    // depth/strategy seed the next step's initial test set, so escalation
    // and racing inherit the work already paid for.
    let cex_pool = Arc::new(std::sync::Mutex::new(Vec::new()));
    // The plan executor's StepError carries only a `certified` bit; the
    // full certification record of the *deepest* infeasible depth is
    // parked here so a final Infeasible can ship its proof to the caller.
    let infeasible_cert: std::sync::Mutex<Option<(usize, InfeasibleCert)>> =
        std::sync::Mutex::new(None);

    let runner = |step: &PlanStep,
                  cancel: Option<Arc<AtomicBool>>|
     -> Result<(Synthesized, GridSpec), StepError> {
        let (stateless, sketch_opts) = strategy_config(opts, step.strategy);
        let grid = GridSpec {
            stages: step.stages,
            slots: step.slots,
            stateless,
            stateful: opts.stateful.clone(),
        };
        let mut sp = chipmunk_trace::span!(
            "search.grid",
            stages = step.stages,
            slots = step.slots,
            strategy = step.strategy.name(),
        );
        let sketch = Sketch::new(
            grid.clone(),
            resolved.num_fields,
            resolved.num_states,
            sketch_opts,
        )
        // Structural: the sketch cannot even be constructed on this grid.
        // Deterministic and solver-free, so it needs no SAT proof to be
        // authoritative — but the certification record says so explicitly.
        .map_err(|_| {
            let cert = InfeasibleCert {
                certified: true,
                reason: Some("structural: sketch cannot be constructed on this grid".to_string()),
                ..InfeasibleCert::default()
            };
            let mut slot = infeasible_cert.lock().unwrap_or_else(|p| p.into_inner());
            match &*slot {
                Some((stages, _)) if *stages >= step.stages => {}
                _ => *slot = Some((step.stages, cert)),
            }
            StepError::Infeasible { certified: true }
        })?;
        let cegis_opts = CegisOptions {
            budget: step.budget,
            ..cegis_base
        };
        let res = crate::cegis::synthesize_with_control(
            prog,
            &sketch,
            &cegis_opts,
            crate::cegis::SynthControl {
                cancel,
                account: Some(account.clone()),
                cex_pool: Some(cex_pool.clone()),
            },
        );
        if chipmunk_trace::enabled() {
            sp.record(
                "result",
                match &res {
                    Ok(_) => "ok",
                    Err(SynthesisError::Infeasible(_)) => "infeasible",
                    Err(SynthesisError::Timeout) => "timeout",
                    Err(SynthesisError::Cancelled) => "cancelled",
                    Err(SynthesisError::InvalidOptions(_)) => "invalid_options",
                },
            );
        }
        let mut synthesized = res.map_err(|e| match e {
            SynthesisError::Infeasible(cert) => {
                let certified = cert.certified;
                let mut slot = infeasible_cert.lock().unwrap_or_else(|p| p.into_inner());
                match &*slot {
                    Some((stages, _)) if *stages >= step.stages => {}
                    _ => *slot = Some((step.stages, cert)),
                }
                StepError::Infeasible { certified }
            }
            SynthesisError::Timeout => StepError::Timeout,
            SynthesisError::Cancelled => StepError::Cancelled,
            SynthesisError::InvalidOptions(m) => StepError::InvalidOptions(m),
        })?;
        // A winner synthesized under a strategy-restricted ALU must leave
        // the step encoded against the caller's spec: downstream consumers
        // (the wire document, the result cache, serve-side recertification)
        // rebuild the grid from the caller's options and would decode the
        // restricted spec's opcode indices as different operations.
        remap_stateless_ops(
            &mut synthesized.decoded.pipeline,
            &grid.stateless,
            &opts.stateless,
        )?;
        let grid = GridSpec {
            stateless: opts.stateless.clone(),
            ..grid
        };
        Ok((synthesized, grid))
    };
    let certify = |_step: &PlanStep, candidate: &(Synthesized, GridSpec)| -> Result<(), String> {
        let (synthesized, grid) = candidate;
        // Replay the whole job's counterexample pool, not just this run's:
        // a winner must also survive the inputs earlier steps paid for.
        let pool = cex_pool.lock().unwrap().clone();
        crate::certify::certify_synthesized(prog, opts, grid, synthesized, &pool).map(|_| ())
    };

    let res = chipmunk_plan::execute(
        &plan,
        runner,
        certify,
        ExecControl {
            cancel: ctl.cancel,
            deadline,
            resume_from: ctl.resume_from,
            observer: ctl.observer,
            // Auto-detect: racing groups degrade to an ordered sequential
            // trial when the machine has no spare cores to race on.
            race_threads: None,
        },
    );
    match res {
        Ok(ExecSuccess {
            value: (synthesized, grid),
            ..
        }) => {
            let resources = resources_of(&grid, &synthesized.decoded.pipeline);
            let stages = grid.stages;
            search_sp.record("result", "ok");
            search_sp.record("stages", stages as u64);
            Ok(CodegenSuccess {
                decoded: synthesized.decoded,
                hole_values: synthesized.hole_values,
                grid,
                resources,
                stats: synthesized.stats,
                elapsed: start.elapsed(),
                stages_tried: stages,
                counterexamples: synthesized.counterexamples,
            })
        }
        Err(e) => {
            let err = match e {
                ExecError::Infeasible => {
                    let cert = infeasible_cert
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .take()
                        .map(|(_, c)| c)
                        .unwrap_or_else(|| {
                            InfeasibleCert::unchecked("no certification record retained")
                        });
                    CodegenError::Infeasible(cert)
                }
                // External cancellation keeps its historic wire meaning:
                // the caller's budget ran out either way.
                ExecError::Timeout | ExecError::Cancelled => CodegenError::Timeout,
                ExecError::InvalidOptions(m) => CodegenError::InvalidOptions(m),
                ExecError::Internal(m) => CodegenError::Internal(m),
                ExecError::Uncertified(m) => CodegenError::Uncertified(m),
            };
            search_sp.record(
                "result",
                match &err {
                    CodegenError::TooLarge(_) => "too_large",
                    CodegenError::Infeasible(_) => "infeasible",
                    CodegenError::Timeout => "timeout",
                    CodegenError::Internal(_) => "internal",
                    CodegenError::InvalidOptions(_) => "invalid_options",
                    CodegenError::Uncertified(_) => "uncertified",
                },
            );
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cegis::validate_decoded;
    use chipmunk_lang::parse;
    use chipmunk_plan::{RaceMode, StepOutcome};

    #[test]
    fn compiles_sampling_minimally() {
        let prog = parse(
            "state count;
             if (count == 3) { count = 0; pkt.sample = 1; }
             else { count = count + 1; pkt.sample = 0; }",
        )
        .unwrap();
        let opts = CompilerOptions::small_for_tests();
        let out = compile(&prog, &opts).expect("sampling fits");
        assert_eq!(out.resources.stages_used, 1);
        assert!(out.resources.max_alus_per_stage >= 1);
        // Validate end-to-end.
        let sketch = Sketch::new(
            out.grid.clone(),
            prog.field_names().len(),
            prog.state_names().len(),
            opts.sketch,
        )
        .unwrap();
        assert_eq!(
            validate_decoded(
                &prog,
                &sketch,
                &out.decoded,
                opts.cegis.verify_width,
                400,
                5
            ),
            None
        );
    }

    #[test]
    fn default_plan_mirrors_escalation_loop() {
        let prog = parse("state s; s = s + pkt.x; pkt.y = s;").unwrap();
        let opts = CompilerOptions::small_for_tests();
        let plan = plan_compilation(&prog, &opts).unwrap();
        assert_eq!(plan.steps.len(), opts.max_stages);
        assert_eq!(plan.groups.len(), opts.max_stages);
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.stages, i + 1);
            assert_eq!(step.strategy, Strategy::CanonicalAllocation);
            assert_eq!(plan.groups[step.group].mode, RaceMode::Solo);
        }
        // The strategy mapping reproduces the caller's options exactly.
        let (stateless, sketch) = strategy_config(&opts, Strategy::CanonicalAllocation);
        assert_eq!(stateless, opts.stateless);
        assert_eq!(sketch.canonical_fields, opts.sketch.canonical_fields);
    }

    #[test]
    fn restricted_opcodes_are_remapped_to_the_base_spec() {
        use chipmunk_pisa::grid::{PipelineConfig, StageConfig, StatelessConfig};
        let from = StatelessAluSpec::arith_only(4);
        let base = StatelessAluSpec::banzai(4);
        let alu = |opcode| StatelessConfig {
            opcode,
            imm: 0,
            mux_a: 0,
            mux_b: 0,
        };
        let mut pipeline = PipelineConfig {
            stages: vec![StageConfig {
                // Index 3 names SubImm in both lists; index 7 is past the
                // end of the 6-op restricted list (a 3-bit hole allows it)
                // and must clamp to PassA, not decode as banzai's Ne.
                stateless: vec![alu(3), alu(7)],
                stateful: vec![],
                out_mux: vec![],
            }],
        };
        remap_stateless_ops(&mut pipeline, &from, &base).unwrap();
        assert_eq!(pipeline.stages[0].stateless[0].opcode, 3);
        assert_eq!(pipeline.stages[0].stateless[1].opcode, 5); // PassA
                                                               // Identity specs are left untouched, raw indices included.
        let mut same = PipelineConfig {
            stages: vec![StageConfig {
                stateless: vec![alu(31)],
                stateful: vec![],
                out_mux: vec![],
            }],
        };
        remap_stateless_ops(&mut same, &base, &base).unwrap();
        assert_eq!(same.stages[0].stateless[0].opcode, 31);
        // An op the caller's ALU cannot express voids the candidate.
        let exotic = StatelessAluSpec {
            ops: vec![chipmunk_pisa::StatelessOp::Xor],
            imm_bits: 4,
        };
        let mut foreign = PipelineConfig {
            stages: vec![StageConfig {
                stateless: vec![alu(0)],
                stateful: vec![],
                out_mux: vec![],
            }],
        };
        assert!(matches!(
            remap_stateless_ops(&mut foreign, &exotic, &from),
            Err(StepError::Infeasible { certified: false })
        ));
    }

    #[test]
    fn portfolio_winners_certify_under_the_base_spec() {
        // End-to-end guard for the opcode-portability bug: a portfolio win
        // (whatever strategy produced it) must recertify from its public
        // parts with the *caller's* stateless spec, exactly as the serving
        // layer does when it rebuilds the grid from request options.
        let prog = parse("pkt.x = pkt.a;").unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.portfolio = true;
        let out = compile(&prog, &opts).expect("portfolio compile");
        assert_eq!(out.grid.stateless, opts.stateless);
        crate::certify::certify_success(&prog, &opts, &out).expect("base-spec certification");
    }

    #[test]
    fn portfolio_mode_compiles_and_certifies() {
        let prog = parse(
            "state count;
             if (count == 3) { count = 0; pkt.sample = 1; }
             else { count = count + 1; pkt.sample = 0; }",
        )
        .unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.portfolio = true;
        let plan = plan_compilation(&prog, &opts).unwrap();
        assert_eq!(plan.steps.len(), 3 * opts.max_stages);
        assert!(plan
            .groups
            .iter()
            .all(|g| g.mode == RaceMode::Strategies && g.steps.len() == 3));
        let out = compile(&prog, &opts).expect("portfolio compiles");
        // Certification is part of winning a strategy race, so any result
        // returned here passed it; the winner must still be depth-minimal.
        assert_eq!(out.resources.stages_used, 1);
    }

    #[test]
    fn observer_sees_cancelled_losers_not_failures() {
        use std::sync::Mutex;
        let prog = parse(
            "state count;
             if (count == 3) { count = 0; pkt.sample = 1; }
             else { count = count + 1; pkt.sample = 0; }",
        )
        .unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.portfolio = true;
        let reports: Mutex<Vec<(usize, StepOutcome)>> = Mutex::new(Vec::new());
        let observer = |r: &chipmunk_plan::StepReport| {
            reports.lock().unwrap().push((r.step, r.outcome));
        };
        let out = compile_with_control(
            &prog,
            &opts,
            PlanControl {
                observer: Some(&observer),
                ..PlanControl::default()
            },
        )
        .expect("portfolio compiles");
        assert_eq!(out.resources.stages_used, 1);
        let reports = reports.into_inner().unwrap();
        // Exactly the first group's three steps ran (depth 1 won).
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().any(|(_, o)| *o == StepOutcome::Success));
        // A raced-out loser is attributed as cancelled, never as a
        // timeout/failure — the stats-attribution contract.
        for (_, outcome) in &reports {
            assert!(
                matches!(
                    outcome,
                    StepOutcome::Success | StepOutcome::Cancelled | StepOutcome::Infeasible
                ),
                "unexpected outcome {outcome:?}"
            );
        }
    }

    #[test]
    fn resume_skips_completed_steps() {
        let prog = parse("state s; s = s + pkt.x; pkt.y = s;").unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.max_stages = 3;
        let full = compile(&prog, &opts).expect("fits");
        // Resuming past the winning depth must still find a (deeper)
        // solution, proving skipped steps are really skipped.
        let resumed = compile_with_control(
            &prog,
            &opts,
            PlanControl {
                resume_from: full.stages_tried,
                ..PlanControl::default()
            },
        )
        .expect("resume fits deeper");
        assert!(resumed.stages_tried > full.stages_tried);
    }

    #[test]
    fn infeasible_program_reports_infeasible() {
        let prog = parse("pkt.z = pkt.x * pkt.y;").unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.max_stages = 2;
        let err = compile(&prog, &opts).unwrap_err();
        let CodegenError::Infeasible(cert) = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        // End-to-end: the driver-level verdict carries a validated proof
        // for the deepest depth, and it re-validates from the transcript.
        assert!(cert.certified, "unchecked: {:?}", cert.reason);
        let text = cert.proof.expect("certified verdicts ship the proof");
        let parsed = chipmunk_sat::Certificate::parse(&text).expect("parses");
        assert!(parsed
            .check(&chipmunk_sat::CheckBudget::default())
            .is_valid());
    }

    #[test]
    fn too_many_fields_for_slots() {
        let prog = parse("pkt.a = pkt.b + pkt.c; pkt.d = pkt.e;").unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.slots = Some(2);
        assert!(matches!(
            compile(&prog, &opts).unwrap_err(),
            CodegenError::TooLarge(_)
        ));
        assert!(matches!(
            plan_compilation(&prog, &opts).unwrap_err(),
            CodegenError::TooLarge(_)
        ));
    }

    #[test]
    fn global_timeout_is_respected() {
        let prog = parse("state s; s = s + pkt.x; pkt.y = s;").unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        opts.timeout = Some(Duration::from_nanos(1));
        assert_eq!(compile(&prog, &opts).unwrap_err(), CodegenError::Timeout);
    }

    #[test]
    fn external_cancel_stops_all_modes() {
        let prog = parse("state s; s = s + pkt.x; pkt.y = s;").unwrap();
        let mut opts = CompilerOptions::small_for_tests();
        for portfolio in [false, true] {
            opts.portfolio = portfolio;
            let cancel = Arc::new(AtomicBool::new(true));
            assert_eq!(
                compile_with_cancel(&prog, &opts, Some(cancel)).unwrap_err(),
                CodegenError::Timeout,
                "portfolio={portfolio}"
            );
        }
    }

    #[test]
    fn service_defaults_are_stable() {
        let o = CompilerOptions::service_defaults();
        assert_eq!(o.stateful.name, "if_else_raw");
        assert_eq!(o.stateless, StatelessAluSpec::banzai(4));
        assert_eq!(o.cegis.verify_width, 10);
        assert_eq!(o.max_stages, 4);
        assert_eq!(o.timeout, Some(Duration::from_millis(300_000)));
        assert!(!o.portfolio);
    }

    #[test]
    fn hash_programs_compile_via_elimination() {
        let prog = parse("state last; last = hash(pkt.a) ; pkt.out = last;").unwrap();
        // hash(pkt.a) becomes a free metadata field; `last = field` fits raw.
        let mut opts = CompilerOptions::small_for_tests();
        opts.max_stages = 3;
        opts.slots = Some(3);
        compile(&prog, &opts).expect("hash program compiles");
    }
}
