//! Counterexample-guided inductive synthesis (CEGIS).
//!
//! This is the paper's Figure 3 loop with its §3 "outer loop" twist:
//!
//! 1. **Synthesis phase** — an incremental SAT instance holds one literal
//!    per hole bit. For every concrete test input we instantiate the sketch
//!    circuit with the inputs as constants (Equation 2) and assert that its
//!    outputs equal the reference interpreter's outputs. The spec side is
//!    *executed*, not encoded — fixing the inputs turns `S(xᵢ)` into plain
//!    constants, which is exactly why CEGIS beats solving the QBF directly
//!    (§2.3).
//! 2. **Verification phase** — the candidate hole assignment is checked
//!    against the spec for *all* inputs (Equation 3) by bit-blasting the
//!    equivalence query at the full semantic width (default 10 bits — the
//!    role Z3 plays in the paper). An optional cheap *screening* pass at a
//!    smaller width catches most bad candidates first; screening
//!    counterexamples are only fed back if they also distinguish at full
//!    width, which keeps the loop sound.
//! 3. A failed verification yields a counterexample input that joins the
//!    test set; synthesis failure (UNSAT) proves the sketch infeasible for
//!    this grid.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chipmunk_bv::{Binding, Blaster, BvOp, Circuit, TermId};
use chipmunk_lang::spec::compile_spec;
use chipmunk_lang::{Interpreter, PacketState, Program};
use chipmunk_pisa::Pipeline;
use chipmunk_sat::{
    BudgetAccount, CheckBudget, CheckOutcome, Lit, ResourceBudget, SolveResult, Solver,
};

use crate::sketch::{DecodedConfig, Sketch};

/// Hard byte budget for the synthesis solver's DRAT proof log. Overflow
/// degrades to an explicitly-flagged unchecked verdict — never a panic,
/// never silent.
const DEFAULT_PROOF_BYTES: u64 = 64 << 20;

/// Propagation ceiling for one DRAT-checker pass, layered under the
/// job-wide [`BudgetAccount`] so certification cannot blow an SLO even on
/// an otherwise-unlimited job.
const CHECK_PROPAGATION_LIMIT: u64 = 200_000_000;

/// Largest proof transcript shipped inside an [`InfeasibleCert`] (and
/// hence over the serve wire). Bigger proofs are still checked locally;
/// only the text is withheld.
const PROOF_TEXT_MAX_BYTES: usize = 4 << 20;

/// Options for one CEGIS run.
#[derive(Clone, Copy, Debug)]
pub struct CegisOptions {
    /// Semantic width: the candidate must match the spec for all inputs of
    /// this many bits (the paper verifies with Z3 at 10-bit integers).
    pub verify_width: u8,
    /// Width of the cheap screening verifier (the role of SKETCH's internal
    /// 5-bit verification in the paper). `None` disables screening — the
    /// decoupled-widths ablation.
    pub screen_width: Option<u8>,
    /// Initial concrete inputs are sampled from `[0, 2^synth_input_bits)`
    /// (SKETCH's "small input range" idea).
    pub synth_input_bits: u8,
    /// Number of random initial inputs (plus the all-zeros input).
    pub num_initial_inputs: usize,
    /// Iteration cap (each iteration adds at least one counterexample).
    pub max_iters: usize,
    /// Wall-clock deadline for the whole run.
    pub deadline: Option<Instant>,
    /// Seed for initial-input sampling.
    pub seed: u64,
    /// Approximate synthesis (the paper's §5.2): when set, the candidate
    /// only has to match the specification on inputs whose fields and
    /// states are all below `2^domain_width`. Outside that domain the
    /// synthesized pipeline may diverge — measure the divergence with
    /// [`crate::approx::compile_approximate`]. `None` (the default)
    /// demands exact equivalence over the full verification width.
    pub domain_width: Option<u8>,
    /// Hard resource ceilings on the SAT work the *whole job* performs:
    /// synthesis and verification solves debit one shared
    /// [`BudgetAccount`], so the conflict/propagation ceilings bound the
    /// cumulative spend across every solve rather than re-arming per
    /// solver (`clause_bytes` stays per-solver — it bounds live memory,
    /// not accumulated work). A tripped ceiling surfaces as
    /// [`SynthesisError::Timeout`], exactly like a wall-clock deadline —
    /// the run gives up gracefully instead of growing without bound.
    pub budget: ResourceBudget,
}

impl Default for CegisOptions {
    fn default() -> Self {
        CegisOptions {
            verify_width: 10,
            screen_width: Some(5),
            synth_input_bits: 5,
            num_initial_inputs: 4,
            max_iters: 256,
            deadline: None,
            seed: 0xc0ffee,
            domain_width: None,
            budget: ResourceBudget::UNLIMITED,
        }
    }
}

/// Work counters for a CEGIS run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CegisStats {
    /// Number of synthesis/verification iterations.
    pub iterations: usize,
    /// Counterexamples fed back (screen + full).
    pub counterexamples: usize,
    /// Counterexamples contributed by the screening verifier.
    pub screen_counterexamples: usize,
    /// Wall time in the synthesis SAT solver.
    pub synth_time: Duration,
    /// Wall time in the verification solvers.
    pub verify_time: Duration,
    /// Total wall time of the run. Invariant:
    /// `synth_time + verify_time <= total_time`.
    pub total_time: Duration,
    /// Conflicts spent by the synthesis solver.
    pub synth_conflicts: u64,
    /// Unit propagations performed by the synthesis solver.
    pub synth_propagations: u64,
    /// Conflicts spent by the verification solvers (screening + full
    /// width). Historically omitted, which made the telemetry plane
    /// under-report solver work.
    pub verify_conflicts: u64,
    /// Unit propagations performed by the verification solvers.
    pub verify_propagations: u64,
    /// Live clause-literal bytes held by the synthesis solver at the end
    /// of the run (original + learnt), the quantity bounded by
    /// `ResourceBudget::clause_bytes`.
    pub clause_bytes: u64,
    /// Resource-budget ceilings tripped across the run — synthesis and
    /// verification solvers alike.
    pub budget_trips: u64,
}

/// A successful synthesis result.
#[derive(Clone, Debug)]
pub struct Synthesized {
    /// Decoded hardware configuration.
    pub decoded: DecodedConfig,
    /// Raw hole values, aligned with [`Sketch::holes`].
    pub hole_values: Vec<u64>,
    /// The counterexample inputs the verifier fed back during the run —
    /// the inputs the program is known to be sensitive to. Certification
    /// replays exactly these (plus a random sweep) against the final
    /// configuration.
    pub counterexamples: Vec<PacketState>,
    /// Work counters.
    pub stats: CegisStats,
}

/// How trustworthy an [`SynthesisError::Infeasible`] verdict is, and why.
///
/// The terminal UNSAT behind every Infeasible is certified by pulling a
/// DRAT [`Certificate`](chipmunk_sat::Certificate) off the synthesis
/// solver and validating it with the in-repo checker. The degrade ladder
/// (DESIGN §16) is:
///
/// 1. **certified** — the proof validated; `proof` carries the transcript
///    (when small enough to ship).
/// 2. **quarantined** — the incremental proof failed its check, so the
///    verdict itself was impeached and re-derived by one from-scratch
///    solve (`fresh_resolve`), whose own proof is then checked.
/// 3. **unchecked** — no certificate exists (the proof log overflowed its
///    byte budget: `truncated`) or the check ran out of budget; `reason`
///    says which. Explicitly flagged, never silent.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InfeasibleCert {
    /// The DRAT certificate for the terminal UNSAT was validated by
    /// [`Certificate::check`](chipmunk_sat::Certificate::check).
    pub certified: bool,
    /// The first (incremental) certificate failed its check; the verdict
    /// was quarantined and re-derived from scratch.
    pub quarantined: bool,
    /// The verdict comes from a fresh from-scratch solve (the quarantine
    /// retry) rather than the incremental synthesis solver.
    pub fresh_resolve: bool,
    /// Proof logging overflowed its byte budget, so no certificate
    /// exists for this solve.
    pub truncated: bool,
    /// Lemmas (learnt-clause additions) in the certificate.
    pub lemmas: u64,
    /// Bytes of proof log the solver retained.
    pub proof_bytes: u64,
    /// Why the verdict is unchecked, when it is.
    pub reason: Option<String>,
    /// The DRAT certificate text ([`Certificate::to_text`](chipmunk_sat::Certificate::to_text)), present when
    /// validated and at most `PROOF_TEXT_MAX_BYTES` (4 MiB) long.
    pub proof: Option<String>,
}

impl InfeasibleCert {
    /// An unchecked verdict carrying only an explanation — used by layers
    /// that lost the original certificate (e.g. crossing a panic boundary
    /// or a wire protocol) but must keep the flag explicit.
    pub fn unchecked(reason: impl Into<String>) -> InfeasibleCert {
        InfeasibleCert {
            reason: Some(reason.into()),
            ..InfeasibleCert::default()
        }
    }
}

/// How one certification attempt ended (internal to the degrade ladder).
enum CertifyOutcome {
    /// Proof validated; the verdict is trustworthy.
    Certified,
    /// No certificate exists: the proof log overflowed its byte budget.
    NoProof,
    /// The certificate failed validation — the verdict is impeached.
    CheckFailed,
    /// The checker ran out of its propagation budget.
    CheckOutOfBudget,
}

/// Why synthesis did not produce a configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SynthesisError {
    /// No hole assignment satisfies all accumulated test inputs: the
    /// program does not fit this grid. Carries the certification status
    /// of the UNSAT verdict — complete-strategy depth decisions must only
    /// trust it when `certified` is set.
    Infeasible(InfeasibleCert),
    /// The deadline, iteration cap, or a resource budget was exhausted.
    Timeout,
    /// The run observed its cooperative cancellation flag and stopped —
    /// raced out by a sibling strategy (portfolio race) or an external
    /// abort. Distinct from [`SynthesisError::Timeout`] so a
    /// cancelled racing loser is never attributed as a budget failure.
    Cancelled,
    /// The options are self-inconsistent (e.g. a `verify_width` narrower
    /// than the sketch's widest hole, or outside `1..=64`). Returned as a
    /// typed error rather than panicking because options can come from
    /// untrusted serve requests.
    InvalidOptions(String),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Infeasible(cert) => write!(
                f,
                "sketch is infeasible for this grid ({})",
                if cert.certified {
                    "proof-certified"
                } else {
                    "unchecked"
                }
            ),
            SynthesisError::Timeout => write!(f, "synthesis timed out"),
            SynthesisError::Cancelled => write!(f, "synthesis was cancelled"),
            SynthesisError::InvalidOptions(why) => write!(f, "invalid options: {why}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Run CEGIS for `prog` against `sketch`.
///
/// The program must be hash-free
/// ([`chipmunk_lang::passes::eliminate_hashes`]).
pub fn synthesize(
    prog: &Program,
    sketch: &Sketch,
    opts: &CegisOptions,
) -> Result<Synthesized, SynthesisError> {
    synthesize_with_cancel(prog, sketch, opts, None)
}

/// Shared context a CEGIS run participates in beyond its own options:
/// cooperative cancellation, the job-wide solver-budget ledger, and the
/// cross-step counterexample pool. All fields default to "standalone run".
#[derive(Clone, Default)]
pub struct SynthControl {
    /// Cooperative cancellation flag: when another thread sets it, the run
    /// stops at the next solver checkpoint with
    /// [`SynthesisError::Cancelled`].
    pub cancel: Option<Arc<AtomicBool>>,
    /// Job-wide [`BudgetAccount`] shared by every solver this run creates
    /// — and, when a compile job passes the same account to each plan
    /// step, by the whole escalation. `None` creates a private account, so
    /// a standalone run is its own job.
    pub account: Option<Arc<BudgetAccount>>,
    /// Counterexample pool shared across plan steps: its contents join the
    /// initial test inputs, and every counterexample this run discovers is
    /// pushed back — even if the run later fails. A failed shallow depth
    /// thereby hands the hard inputs it paid for to the deeper retries
    /// (and to racing siblings).
    pub cex_pool: Option<Arc<Mutex<Vec<PacketState>>>>,
}

/// [`synthesize`] with a cooperative cancellation flag: when another
/// thread sets it, the run stops at the next solver checkpoint and reports
/// [`SynthesisError::Cancelled`].
pub fn synthesize_with_cancel(
    prog: &Program,
    sketch: &Sketch,
    opts: &CegisOptions,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<Synthesized, SynthesisError> {
    synthesize_with_control(
        prog,
        sketch,
        opts,
        SynthControl {
            cancel,
            ..SynthControl::default()
        },
    )
}

/// [`synthesize`] with full run control: cancellation, a shared job-wide
/// budget account, and the cross-step counterexample pool. This is the
/// primitive the plan executor drives; the other entry points are thin
/// wrappers.
pub fn synthesize_with_control(
    prog: &Program,
    sketch: &Sketch,
    opts: &CegisOptions,
    ctl: SynthControl,
) -> Result<Synthesized, SynthesisError> {
    let cancel = ctl.cancel.clone();
    let w = opts.verify_width;
    // Typed validation instead of asserts: options arrive from untrusted
    // serve requests, so a bad combination must not crash the process.
    if w == 0 || w > 64 {
        return Err(SynthesisError::InvalidOptions(format!(
            "verify_width {w} is outside the supported range 1..=64"
        )));
    }
    if w < sketch.max_hole_bits() {
        return Err(SynthesisError::InvalidOptions(format!(
            "verify_width {w} is narrower than the sketch's widest hole ({} bits); \
             selector codes would truncate",
            sketch.max_hole_bits()
        )));
    }
    let run_start = Instant::now();
    let num_fields = prog.field_names().len();
    let num_states = prog.state_names().len();
    let mut run_span = chipmunk_trace::span!(
        "cegis.run",
        holes = sketch.holes().len(),
        fields = num_fields,
        states = num_states,
        verify_width = w,
    );
    let interp = Interpreter::new(prog, w);

    // --- Build the sketch circuit once at the semantic width.
    let mut circuit = Circuit::new(w);
    let hole_terms: Vec<TermId> = sketch
        .holes()
        .iter()
        .map(|hd| circuit.input(&format!("hole_{}", hd.name)))
        .collect();
    let field_terms: Vec<TermId> = prog
        .field_names()
        .iter()
        .map(|n| circuit.input(&format!("pkt_{n}")))
        .collect();
    let state_terms: Vec<TermId> = prog
        .state_names()
        .iter()
        .map(|n| circuit.input(&format!("state_{n}")))
        .collect();
    let sk_out = sketch.symbolic(&mut circuit, &hole_terms, &field_terms, &state_terms);

    // --- Incremental synthesis solver with shared hole literals. Every
    // solver in this run (synthesis, screening, full-width verification)
    // debits the same job-wide account, so `opts.budget` is a cumulative
    // ceiling rather than a per-solver one.
    let account = ctl
        .account
        .clone()
        .unwrap_or_else(|| Arc::new(BudgetAccount::new()));
    let mut stats = CegisStats::default();
    let add_input = |solver: &mut Solver, tru: Lit, hole_bits: &[Vec<Lit>], inp: &PacketState| {
        let want = interp.exec(inp);
        let mut b = Blaster::new(solver, tru);
        sketch.bind_holes(&circuit, &hole_terms, hole_bits, &mut b);
        for (i, &t) in field_terms.iter().enumerate() {
            b.bind(circuit.input_id(t), Binding::Const(inp.fields[i]));
        }
        for (i, &t) in state_terms.iter().enumerate() {
            b.bind(circuit.input_id(t), Binding::Const(inp.states[i]));
        }
        for (outs, wants) in [
            (&sk_out.field_outs, &want.fields),
            (&sk_out.state_outs, &want.states),
        ] {
            for (k, &t) in outs.iter().enumerate() {
                let bits = b.blast(&circuit, t);
                for (bi, &lit) in bits.iter().enumerate() {
                    let expect = (wants[k] >> bi) & 1 == 1;
                    b.assert_bit(lit, expect);
                }
            }
        }
    };

    // --- Build one synthesis solver over a set of test inputs: the
    // incremental instance with shared hole literals, plus a DRAT proof
    // log so a terminal UNSAT can be certified. Packaged as a closure
    // because the certification ladder may need to reconstruct an
    // *identical but independent* instance for a from-scratch re-solve
    // (fresh literal numbering, fresh proof log). Every solver debits the
    // same job-wide account, so `opts.budget` stays a cumulative ceiling.
    let build_synth = |inputs: &[PacketState]| -> (Solver, Lit, Vec<Vec<Lit>>) {
        let mut solver = Solver::new();
        solver.enable_proof(DEFAULT_PROOF_BYTES);
        solver.set_cancel_flag(cancel.clone());
        solver.set_budget(opts.budget);
        solver.set_budget_account(Some(account.clone()));
        let tru = chipmunk_bv::mk_true(&mut solver);
        let hole_bits: Vec<Vec<Lit>> = {
            let mut b = Blaster::new(&mut solver, tru);
            sketch.fresh_hole_bits(&mut b)
        };
        // Allocation constraints involve only holes: assert once.
        if !sk_out.constraints.is_empty() {
            let mut b = Blaster::new(&mut solver, tru);
            sketch.bind_holes(&circuit, &hole_terms, &hole_bits, &mut b);
            // Fields/states are irrelevant to the constraints; bind to
            // zero so the blaster never allocates fresh input literals.
            for &t in field_terms.iter().chain(state_terms.iter()) {
                b.bind(circuit.input_id(t), Binding::Const(0));
            }
            for &ct in &sk_out.constraints {
                b.assert_term(&circuit, ct);
            }
        }
        for inp in inputs {
            add_input(&mut solver, tru, &hole_bits, inp);
        }
        (solver, tru, hole_bits)
    };

    // --- Initial test inputs: all-zeros plus seeded random small values.
    let input_bits = match opts.domain_width {
        Some(d) => opts.synth_input_bits.min(d),
        None => opts.synth_input_bits,
    };
    let small_mask = if input_bits >= w {
        circuit.mask()
    } else {
        (1u64 << input_bits) - 1
    };
    let mut rng = SplitMix64(opts.seed);
    let mut initial = vec![PacketState {
        fields: vec![0; num_fields],
        states: vec![0; num_states],
    }];
    for _ in 0..opts.num_initial_inputs {
        initial.push(PacketState {
            fields: (0..num_fields).map(|_| rng.next() & small_mask).collect(),
            states: (0..num_states).map(|_| rng.next() & small_mask).collect(),
        });
    }
    // Counterexamples inherited from earlier plan steps (failed shallower
    // depths, racing siblings): known-hard inputs for this program, valid
    // at any depth/strategy because they constrain the spec side only.
    if let Some(pool) = &ctl.cex_pool {
        for cex in pool.lock().unwrap().iter() {
            if cex.fields.len() == num_fields
                && cex.states.len() == num_states
                && !initial.contains(cex)
            {
                initial.push(cex.clone());
            }
        }
    }
    let (mut solver, tru, hole_bits) = build_synth(&initial);

    // --- Verification instances, one per width, persistent across
    // iterations (the miter is blasted once; each candidate is checked by
    // solving under assumptions that pin the hole bits).
    let mut full_verifier = Verifier::new(prog, sketch, w, opts.domain_width);
    full_verifier.set_budget(opts.budget);
    full_verifier.set_budget_account(Some(account.clone()));
    // The screen width is raised to the widest hole so selector codes
    // survive; if that reaches the full width, screening is pointless.
    let mut screen_verifier = opts
        .screen_width
        .map(|sw| sw.max(sketch.max_hole_bits()))
        .filter(|&sw| sw < w)
        .map(|sw| {
            let mut v = Verifier::new(prog, sketch, sw, opts.domain_width);
            v.set_budget(opts.budget);
            v.set_budget_account(Some(account.clone()));
            v
        });

    // --- The CEGIS loop.
    let mut cexes: Vec<PacketState> = Vec::new();
    for iter in 0..opts.max_iters {
        stats.iterations += 1;
        if cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        {
            chipmunk_trace::event!("cegis.cancelled", iter = iter);
            return Err(SynthesisError::Cancelled);
        }
        if let Some(d) = opts.deadline {
            if Instant::now() >= d {
                chipmunk_trace::event!("cegis.deadline", iter = iter, phase = "synth");
                return Err(SynthesisError::Timeout);
            }
        }
        // Synthesis phase.
        solver.set_deadline(opts.deadline);
        let t0 = Instant::now();
        let mut synth_sp = chipmunk_trace::span!("cegis.synth", iter = iter);
        let res = solver.solve(&[]);
        if chipmunk_trace::enabled() {
            synth_sp.record(
                "result",
                match res {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                },
            );
        }
        drop(synth_sp);
        stats.synth_time += t0.elapsed();
        fold_solver_stats(
            &mut stats,
            &solver,
            screen_verifier.as_ref(),
            &full_verifier,
        );
        let hole_values: Vec<u64> = match res {
            SolveResult::Unsat => {
                // The terminal UNSAT justifies Infeasible; certify it so
                // "does not fit" is as trustworthy as "here is a config".
                let mut info = InfeasibleCert::default();
                let first = certify_unsat_solver(&solver, &account, &mut info);
                if matches!(first, CertifyOutcome::CheckFailed) {
                    // An invalid proof impeaches the verdict itself:
                    // quarantine it and re-derive it once from scratch —
                    // rebuild the whole instance (own solver, literals,
                    // proof log) over every input accumulated so far,
                    // solve once, certify that.
                    info.quarantined = true;
                    info.fresh_resolve = true;
                    chipmunk_trace::event!("cegis.infeasible_quarantined", iter = iter);
                    let mut all_inputs = initial.clone();
                    all_inputs.extend(cexes.iter().cloned());
                    let (mut fs, _tru, _bits) = build_synth(&all_inputs);
                    fs.set_deadline(opts.deadline);
                    match fs.solve(&[]) {
                        SolveResult::Unsat => {
                            certify_unsat_solver(&fs, &account, &mut info);
                        }
                        SolveResult::Unknown => {
                            if cancel
                                .as_ref()
                                .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                            {
                                return Err(SynthesisError::Cancelled);
                            }
                            info.reason =
                                Some("fresh re-solve exhausted its deadline or budget".to_string());
                        }
                        SolveResult::Sat => {
                            // Soundness alarm: the from-scratch solve
                            // disagrees with the incremental verdict.
                            // Surface loudly, never certify.
                            chipmunk_trace::event!("cegis.infeasible_disagreement", iter = iter);
                            info.reason = Some(
                                "fresh re-solve found the instance satisfiable; \
                                 incremental verdict not trusted"
                                    .to_string(),
                            );
                        }
                    }
                }
                chipmunk_trace::event!(
                    "cegis.infeasible",
                    certified = info.certified,
                    quarantined = info.quarantined,
                    fresh = info.fresh_resolve,
                    lemmas = info.lemmas,
                );
                return Err(SynthesisError::Infeasible(info));
            }
            SolveResult::Unknown => {
                // The solver reports Unknown for deadlines, budgets, and
                // cancellation alike; the raised flag tells them apart.
                if cancel
                    .as_ref()
                    .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                {
                    chipmunk_trace::event!("cegis.cancelled", iter = iter);
                    return Err(SynthesisError::Cancelled);
                }
                chipmunk_trace::event!("cegis.deadline", iter = iter, phase = "synth");
                return Err(SynthesisError::Timeout);
            }
            SolveResult::Sat => {
                let dec = Blaster::new(&mut solver, tru);
                hole_bits
                    .iter()
                    .map(|bits| dec.decode(bits).expect("model is total"))
                    .collect()
            }
        };

        // Screening verification at a small width (cheap), if enabled.
        let t1 = Instant::now();
        let mut verify_sp = chipmunk_trace::span!("cegis.verify", iter = iter);
        if let Some(sv) = screen_verifier.as_mut() {
            let screen_res = sv.check(&hole_values, opts.deadline, cancel.clone());
            if let Some(cex) = screen_res? {
                // Only sound to feed back if it also distinguishes at
                // the full width.
                if distinguishes_at(prog, sketch, &hole_values, &cex, w) {
                    stats.verify_time += t1.elapsed();
                    stats.counterexamples += 1;
                    stats.screen_counterexamples += 1;
                    fold_solver_stats(
                        &mut stats,
                        &solver,
                        screen_verifier.as_ref(),
                        &full_verifier,
                    );
                    verify_sp.record("result", "cex");
                    verify_sp.record("provenance", "screen");
                    drop(verify_sp);
                    chipmunk_trace::event!("cegis.cex", iter = iter, provenance = "screen");
                    add_input(&mut solver, tru, &hole_bits, &cex);
                    share_cex(&ctl, &cex);
                    cexes.push(cex);
                    continue;
                }
            }
        }
        // Full-width verification (the paper's Z3 role).
        let cex = full_verifier.check(&hole_values, opts.deadline, cancel.clone());
        stats.verify_time += t1.elapsed();
        fold_solver_stats(
            &mut stats,
            &solver,
            screen_verifier.as_ref(),
            &full_verifier,
        );
        match cex? {
            None => {
                verify_sp.record("result", "equiv");
                drop(verify_sp);
                stats.total_time = run_start.elapsed();
                if chipmunk_trace::enabled() {
                    run_span.record("result", "ok");
                    run_span.record("iterations", stats.iterations as u64);
                    run_span.record("counterexamples", stats.counterexamples as u64);
                }
                let decoded = sketch.decode(&hole_values);
                return Ok(Synthesized {
                    decoded,
                    hole_values,
                    counterexamples: cexes,
                    stats,
                });
            }
            Some(cex) => {
                stats.counterexamples += 1;
                verify_sp.record("result", "cex");
                verify_sp.record("provenance", "full");
                drop(verify_sp);
                chipmunk_trace::event!("cegis.cex", iter = iter, provenance = "full");
                add_input(&mut solver, tru, &hole_bits, &cex);
                share_cex(&ctl, &cex);
                cexes.push(cex);
            }
        }
    }
    chipmunk_trace::event!("cegis.iter_cap", max_iters = opts.max_iters);
    Err(SynthesisError::Timeout)
}

/// Pull the DRAT certificate off an UNSAT solver and validate it,
/// recording the outcome into `info`. Checker work is charged to the
/// job-wide `account` and capped by [`CHECK_PROPAGATION_LIMIT`].
fn certify_unsat_solver(
    solver: &Solver,
    account: &Arc<BudgetAccount>,
    info: &mut InfeasibleCert,
) -> CertifyOutcome {
    info.truncated = solver.proof_truncated();
    info.proof_bytes = solver.proof_bytes();
    let Some(cert) = solver.certificate() else {
        info.reason = Some("proof log overflowed its byte budget".to_string());
        return CertifyOutcome::NoProof;
    };
    #[cfg(test)]
    let cert = tests::corrupt_if_armed(cert);
    info.lemmas = cert.num_lemmas() as u64;
    let budget = CheckBudget {
        propagations: Some(CHECK_PROPAGATION_LIMIT),
        account: Some(account.clone()),
    };
    match cert.check(&budget) {
        CheckOutcome::Valid => {
            info.certified = true;
            info.reason = None;
            let text = cert.to_text();
            if text.len() <= PROOF_TEXT_MAX_BYTES {
                info.proof = Some(text);
            }
            CertifyOutcome::Certified
        }
        CheckOutcome::Invalid(why) => {
            info.certified = false;
            info.reason = Some(format!("proof check failed: {why}"));
            CertifyOutcome::CheckFailed
        }
        CheckOutcome::OutOfBudget => {
            info.certified = false;
            info.reason = Some("proof check exhausted its propagation budget".to_string());
            CertifyOutcome::CheckOutOfBudget
        }
    }
}

/// Deposit a counterexample into the shared cross-step pool (if any), so
/// later plan steps inherit it even when this run ultimately fails.
fn share_cex(ctl: &SynthControl, cex: &PacketState) {
    if let Some(pool) = &ctl.cex_pool {
        let mut pool = pool.lock().unwrap();
        if !pool.contains(cex) {
            pool.push(cex.clone());
        }
    }
}

/// Fold the current solver work counters into `stats`: synthesis counters
/// from the persistent synthesis solver, verification counters summed over
/// the per-width verification instances, budget trips over all of them.
fn fold_solver_stats(
    stats: &mut CegisStats,
    synth: &Solver,
    screen: Option<&Verifier>,
    full: &Verifier,
) {
    let ss = synth.stats();
    stats.synth_conflicts = ss.conflicts;
    stats.synth_propagations = ss.propagations;
    stats.clause_bytes = synth.clause_bytes();
    let (mut vc, mut vp, mut vt) = full.work();
    if let Some(s) = screen {
        let (c, p, t) = s.work();
        vc += c;
        vp += p;
        vt += t;
    }
    stats.verify_conflicts = vc;
    stats.verify_propagations = vp;
    stats.budget_trips = ss.budget_trips + vt;
}

/// Check a candidate hole assignment against the program at `width`;
/// `Ok(Some(input))` is a distinguishing input. When `domain_width` is
/// set, only inputs with every field and state below `2^domain_width` are
/// quantified over (approximate synthesis, §5.2).
///
/// This is the one-shot path: the miter is blasted into a fresh solver
/// for this one query, with the holes collapsed to constants — the
/// reference the differential suites hold [`Verifier`] to. Loops that
/// check many candidates should hold a persistent [`Verifier`] instead.
pub fn verify_at(
    prog: &Program,
    sketch: &Sketch,
    hole_values: &[u64],
    width: u8,
    domain_width: Option<u8>,
    deadline: Option<Instant>,
) -> Result<Option<PacketState>, SynthesisError> {
    let m = build_miter(prog, sketch, width, domain_width);
    let mut solver = Solver::new();
    solver.set_deadline(deadline);
    let tru = chipmunk_bv::mk_true(&mut solver);
    let mut b = Blaster::new(&mut solver, tru);
    for (i, &t) in m.hole_terms.iter().enumerate() {
        b.bind(m.circuit.input_id(t), Binding::Const(hole_values[i]));
    }
    let (field_bits, state_bits) = m.assert_differs(&mut b);
    drop(b);
    match solver.solve(&[]) {
        SolveResult::Unsat => Ok(None),
        SolveResult::Unknown => Err(SynthesisError::Timeout),
        SolveResult::Sat => Ok(Some(decode_input(
            &mut solver,
            tru,
            &field_bits,
            &state_bits,
        ))),
    }
}

/// The sketch-vs-spec miter circuit at one width, plus the terms needed to
/// bind holes and decode counterexamples from a model.
struct Miter {
    circuit: Circuit,
    hole_terms: Vec<TermId>,
    field_terms: Vec<TermId>,
    state_terms: Vec<TermId>,
    diffs: Vec<TermId>,
    domain_constraints: Vec<TermId>,
}

impl Miter {
    /// With the holes already bound, assert that some output differs
    /// (inside the domain, if restricted) and realize every program input
    /// so counterexamples are total. Returns the field and state bits.
    fn assert_differs(&self, b: &mut Blaster<'_>) -> (Vec<Vec<Lit>>, Vec<Vec<Lit>>) {
        b.assert_any(&self.circuit, &self.diffs);
        for &dc in &self.domain_constraints {
            b.assert_term(&self.circuit, dc);
        }
        let mut realize = |terms: &[TermId]| -> Vec<Vec<Lit>> {
            terms.iter().map(|&t| b.blast(&self.circuit, t)).collect()
        };
        (realize(&self.field_terms), realize(&self.state_terms))
    }
}

/// Decode a counterexample input from a SAT model.
fn decode_input(
    solver: &mut Solver,
    tru: Lit,
    field_bits: &[Vec<Lit>],
    state_bits: &[Vec<Lit>],
) -> PacketState {
    let dec = Blaster::new(solver, tru);
    let decode = |bits: &[Vec<Lit>]| -> Vec<u64> {
        bits.iter()
            .map(|b| dec.decode(b).expect("total model"))
            .collect()
    };
    PacketState {
        fields: decode(field_bits),
        states: decode(state_bits),
    }
}

fn build_miter(prog: &Program, sketch: &Sketch, width: u8, domain_width: Option<u8>) -> Miter {
    let mut circuit = Circuit::new(width);
    let hole_terms: Vec<TermId> = sketch
        .holes()
        .iter()
        .map(|hd| circuit.input(&format!("hole_{}", hd.name)))
        .collect();
    let field_terms: Vec<TermId> = prog
        .field_names()
        .iter()
        .map(|n| circuit.input(&format!("pkt_{n}")))
        .collect();
    let state_terms: Vec<TermId> = prog
        .state_names()
        .iter()
        .map(|n| circuit.input(&format!("state_{n}")))
        .collect();
    let sk_out = sketch.symbolic(&mut circuit, &hole_terms, &field_terms, &state_terms);
    let spec_out = compile_spec(prog, &mut circuit, &field_terms, &state_terms);

    let mut diffs: Vec<TermId> = Vec::new();
    for (a, b) in sk_out
        .field_outs
        .iter()
        .zip(spec_out.field_outs.iter())
        .chain(sk_out.state_outs.iter().zip(spec_out.state_outs.iter()))
    {
        diffs.push(circuit.binop(BvOp::Ne, *a, *b));
    }
    // Domain restriction: the counterexample must lie inside the domain.
    let mut domain_constraints: Vec<TermId> = Vec::new();
    if let Some(d) = domain_width {
        if d < width {
            let bound = circuit.constant(1u64 << d);
            for &t in field_terms.iter().chain(state_terms.iter()) {
                domain_constraints.push(circuit.binop(BvOp::Ult, t, bound));
            }
        }
    }
    Miter {
        circuit,
        hole_terms,
        field_terms,
        state_terms,
        diffs,
        domain_constraints,
    }
}

/// A persistent, incremental verification instance at one width.
///
/// The sketch-vs-spec miter is built and bit-blasted once, with hole
/// inputs left as free literals; [`Verifier::check`] then pins the hole
/// bits to a candidate's decoded values with solver assumptions, so
/// successive queries share one solver and its learned clauses, VSIDS
/// activity, and saved phases survive across CEGIS iterations.
///
/// The verifier accumulates its solver work, honors a [`ResourceBudget`]
/// and an optional job-wide [`BudgetAccount`], and returns `Ok(None)` for
/// equivalence or `Ok(Some(cex))` with a distinguishing input.
pub struct Verifier {
    solver: Solver,
    tru: Lit,
    hole_bits: Vec<Vec<Lit>>,
    field_bits: Vec<Vec<Lit>>,
    state_bits: Vec<Vec<Lit>>,
    budget: ResourceBudget,
    account: Option<Arc<BudgetAccount>>,
    conflicts: u64,
    propagations: u64,
    budget_trips: u64,
    last_core: Vec<Lit>,
}

impl Verifier {
    /// A persistent incremental verifier for `prog`/`sketch` at `width`.
    /// The miter is blasted now; each [`Verifier::check`] is one
    /// assumption-pinned solve on the same solver.
    pub fn new(prog: &Program, sketch: &Sketch, width: u8, domain_width: Option<u8>) -> Verifier {
        let m = build_miter(prog, sketch, width, domain_width);
        let mut solver = Solver::new();
        let tru = chipmunk_bv::mk_true(&mut solver);
        let mut b = Blaster::new(&mut solver, tru);
        // Holes stay free: `fresh_hole_bits` allocates each hole at its
        // declared width and `bind_holes` zero-pads to the circuit width,
        // mirroring the synthesis encoding — so a decoded hole value
        // always fits its assumption vector.
        let hole_bits = sketch.fresh_hole_bits(&mut b);
        sketch.bind_holes(&m.circuit, &m.hole_terms, &hole_bits, &mut b);
        let (field_bits, state_bits) = m.assert_differs(&mut b);
        drop(b);
        Verifier {
            solver,
            tru,
            hole_bits,
            field_bits,
            state_bits,
            budget: ResourceBudget::UNLIMITED,
            account: None,
            conflicts: 0,
            propagations: 0,
            budget_trips: 0,
            last_core: Vec::new(),
        }
    }

    /// Install hard resource ceilings for subsequent checks.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    /// Install the shared job-wide budget ledger debited by every check.
    pub fn set_budget_account(&mut self, account: Option<Arc<BudgetAccount>>) {
        self.account = account;
    }

    /// Accumulated solver work across all checks:
    /// `(conflicts, propagations, budget_trips)`.
    pub fn work(&self) -> (u64, u64, u64) {
        (self.conflicts, self.propagations, self.budget_trips)
    }

    /// The failed-assumption core behind the most recent equivalence
    /// verdict (`Ok(None)` from [`Verifier::check`]): the subset of pinned
    /// hole-bit assumptions the solver actually needed to prove no
    /// distinguishing input exists. Makes the verdict self-describing —
    /// hole bits absent from the core did not matter. Empty after a
    /// counterexample or before any check has run.
    pub fn last_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Check one candidate hole assignment. `Ok(None)` means the candidate
    /// is equivalent to the spec at this width (within the domain, if
    /// restricted); `Ok(Some(input))` is a distinguishing input.
    pub fn check(
        &mut self,
        hole_values: &[u64],
        deadline: Option<Instant>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<Option<PacketState>, SynthesisError> {
        self.last_core.clear();
        self.solver.set_deadline(deadline);
        self.solver.set_cancel_flag(cancel.clone());
        self.solver.set_budget(self.budget);
        self.solver.set_budget_account(self.account.clone());
        let mut assumptions = Vec::new();
        for (bits, &v) in self.hole_bits.iter().zip(hole_values) {
            assumptions.extend(chipmunk_bv::assumption_lits(bits, v));
        }
        let before = self.solver.stats();
        let res = self.solver.solve(&assumptions);
        let after = self.solver.stats();
        self.conflicts += after.conflicts - before.conflicts;
        self.propagations += after.propagations - before.propagations;
        self.budget_trips += after.budget_trips - before.budget_trips;
        match res {
            SolveResult::Unsat => {
                self.last_core = self.solver.failed_assumptions().to_vec();
                Ok(None)
            }
            SolveResult::Unknown => Err(interrupt_error(&cancel)),
            SolveResult::Sat => Ok(Some(decode_input(
                &mut self.solver,
                self.tru,
                &self.field_bits,
                &self.state_bits,
            ))),
        }
    }
}

/// The solver reports Unknown for deadlines, budgets, and cancellation
/// alike; the raised flag tells them apart.
fn interrupt_error(cancel: &Option<Arc<AtomicBool>>) -> SynthesisError {
    if cancel
        .as_ref()
        .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    {
        SynthesisError::Cancelled
    } else {
        SynthesisError::Timeout
    }
}

/// Does `input` distinguish the candidate from the spec at `width`?
/// (Concrete execution — used to validate screening counterexamples, and
/// by the differential suites to check that a verifier-returned
/// counterexample is genuine rather than merely plausible.)
pub fn distinguishes_at(
    prog: &Program,
    sketch: &Sketch,
    hole_values: &[u64],
    input: &PacketState,
    width: u8,
) -> bool {
    let want = Interpreter::new(prog, width).exec(input);
    let got = exec_decoded(prog, sketch, &sketch.decode(hole_values), input, width);
    got != want
}

/// Execute a decoded configuration on one packet, mapping program fields
/// onto PHV containers and back.
pub fn exec_decoded(
    prog: &Program,
    sketch: &Sketch,
    decoded: &DecodedConfig,
    input: &PacketState,
    width: u8,
) -> PacketState {
    let grid = sketch.grid().clone();
    let slots = grid.slots;
    let num_states = prog.state_names().len();
    let mut pipe = Pipeline::new(grid, decoded.pipeline.clone(), num_states, width)
        .expect("decoded configs validate");
    for (v, &val) in input.states.iter().enumerate() {
        pipe.set_state(v, val);
    }
    let mut phv = vec![0u64; slots];
    for (f, &c) in decoded.field_to_container.iter().enumerate() {
        phv[c] = input.fields[f];
    }
    let phv_out = pipe.exec(&phv);
    PacketState {
        fields: decoded
            .field_to_container
            .iter()
            .map(|&c| phv_out[c])
            .collect(),
        states: (0..num_states).map(|v| pipe.state(v)).collect(),
    }
}

/// Differential validation of a synthesized configuration: run `samples`
/// random packets through both the interpreter and the configured pipeline
/// and report the first mismatch.
pub fn validate_decoded(
    prog: &Program,
    sketch: &Sketch,
    decoded: &DecodedConfig,
    width: u8,
    samples: usize,
    seed: u64,
) -> Option<PacketState> {
    let interp = Interpreter::new(prog, width);
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut rng = SplitMix64(seed);
    let num_fields = prog.field_names().len();
    let num_states = prog.state_names().len();
    for _ in 0..samples {
        let inp = PacketState {
            fields: (0..num_fields).map(|_| rng.next() & mask).collect(),
            states: (0..num_states).map(|_| rng.next() & mask).collect(),
        };
        let want = interp.exec(&inp);
        let got = exec_decoded(prog, sketch, decoded, &inp, width);
        if got != want {
            return Some(inp);
        }
    }
    None
}

/// Minimal deterministic RNG (SplitMix64) — keeps this crate free of the
/// `rand` dependency while staying reproducible.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SketchOptions;
    use chipmunk_pisa::stateful::library;
    use chipmunk_pisa::GridSpec;
    use chipmunk_sat::Certificate;
    use std::cell::Cell;

    thread_local! {
        /// Damage the next certificate [`certify_unsat_solver`] checks on
        /// this thread, so the quarantine ladder can be driven end to end.
        /// One-shot: the fresh re-solve that follows checks an intact proof.
        static CORRUPT_NEXT_PROOF: Cell<bool> = const { Cell::new(false) };
    }

    /// The [`CORRUPT_NEXT_PROOF`] hook: flip one literal of the first
    /// lemma. A search-free proof has no lemma to damage, so an armed
    /// hook needs an instance whose refutation takes search.
    pub(super) fn corrupt_if_armed(mut cert: Certificate) -> Certificate {
        if CORRUPT_NEXT_PROOF.with(|c| c.replace(false)) {
            let lemma = cert
                .steps
                .iter_mut()
                .find_map(|step| match step {
                    chipmunk_sat::ProofStep::Add(lits) if !lits.is_empty() => Some(lits),
                    _ => None,
                })
                .expect("the armed proof has a lemma to damage");
            lemma[0] = !lemma[0];
        }
        cert
    }

    fn fast_opts() -> CegisOptions {
        CegisOptions {
            verify_width: 6,
            screen_width: Some(3),
            synth_input_bits: 3,
            num_initial_inputs: 3,
            max_iters: 64,
            deadline: None,
            seed: 42,
            domain_width: None,
            budget: ResourceBudget::UNLIMITED,
        }
    }

    fn synth_ok(src: &str, grid: GridSpec, opts: &CegisOptions) -> Synthesized {
        let prog = chipmunk_lang::parse(src).unwrap();
        let sketch = Sketch::new(
            grid,
            prog.field_names().len(),
            prog.state_names().len(),
            SketchOptions::default(),
        )
        .unwrap();
        let out = synthesize(&prog, &sketch, opts).expect("synthesis should succeed");
        // Defense in depth: differential-validate the result.
        assert_eq!(
            validate_decoded(&prog, &sketch, &out.decoded, opts.verify_width, 500, 7),
            None,
            "synthesized config diverges from spec"
        );
        out
    }

    #[test]
    fn synthesizes_identity_program() {
        let g = GridSpec::new(1, 2, library::raw(2), 2);
        synth_ok("pkt.y = pkt.x;", g, &fast_opts());
    }

    #[test]
    fn synthesizes_increment() {
        let g = GridSpec::new(1, 1, library::raw(2), 2);
        synth_ok("pkt.x = pkt.x + 1;", g, &fast_opts());
    }

    #[test]
    fn synthesizes_stateful_accumulator() {
        // s += pkt.x; needs one raw stateful ALU.
        let g = GridSpec::new(1, 2, library::raw(2), 2);
        synth_ok("state s; s = s + pkt.x;", g, &fast_opts());
    }

    #[test]
    fn synthesizes_sampling_with_if_else_raw() {
        let g = GridSpec::new(2, 2, library::if_else_raw(3), 3);
        let out = synth_ok(
            "state count;
             if (count == 5) { count = 0; pkt.sample = 1; }
             else { count = count + 1; pkt.sample = 0; }",
            g,
            &fast_opts(),
        );
        assert!(out.stats.iterations >= 1);
    }

    #[test]
    fn stats_time_accounting_is_consistent() {
        let g = GridSpec::new(2, 2, library::if_else_raw(3), 3);
        let out = synth_ok(
            "state count;
             if (count == 5) { count = 0; pkt.sample = 1; }
             else { count = count + 1; pkt.sample = 0; }",
            g,
            &fast_opts(),
        );
        let s = out.stats;
        assert!(
            s.synth_time + s.verify_time <= s.total_time,
            "phase times exceed total: synth {:?} + verify {:?} > total {:?}",
            s.synth_time,
            s.verify_time,
            s.total_time,
        );
        // Every iteration but the successful last one feeds back exactly
        // one counterexample; initial inputs are not counterexamples.
        assert_eq!(s.iterations, s.counterexamples + 1);
        assert!(s.screen_counterexamples <= s.counterexamples);
    }

    #[test]
    fn infeasible_when_grid_too_weak() {
        // x*y is not expressible by add/sub ALUs on a 1-stage grid.
        let prog = chipmunk_lang::parse("pkt.z = pkt.x * pkt.y;").unwrap();
        let g = GridSpec::new(1, 3, library::raw(2), 2);
        let sketch = Sketch::new(g, 3, 0, SketchOptions::default()).unwrap();
        let err = synthesize(&prog, &sketch, &fast_opts()).unwrap_err();
        assert!(matches!(err, SynthesisError::Infeasible(_)), "got {err:?}");
    }

    #[test]
    fn infeasible_verdict_is_proof_certified() {
        // The default path must ship a DRAT certificate that the in-repo
        // checker validates — independently re-checked here from the
        // transcript text, exactly as a downstream consumer would.
        let prog = chipmunk_lang::parse("pkt.z = pkt.x * pkt.y;").unwrap();
        let g = GridSpec::new(1, 3, library::raw(2), 2);
        let sketch = Sketch::new(g, 3, 0, SketchOptions::default()).unwrap();
        let err = synthesize(&prog, &sketch, &fast_opts()).unwrap_err();
        let SynthesisError::Infeasible(cert) = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        assert!(
            cert.certified,
            "incremental infeasibility must certify: {:?}",
            cert.reason
        );
        assert!(!cert.quarantined);
        assert!(!cert.fresh_resolve);
        assert!(!cert.truncated);
        assert!(cert.proof_bytes > 0);
        let text = cert.proof.expect("certified verdicts ship the proof");
        let parsed = Certificate::parse(&text).expect("transcript parses");
        assert!(
            parsed.check(&CheckBudget::default()).is_valid(),
            "shipped transcript must re-validate"
        );
    }

    /// A corrupted incremental proof is *rejected* by the checker, the
    /// verdict is quarantined, and one fresh re-solve re-derives the
    /// infeasibility with a proof that does validate — the caller still
    /// gets a certified verdict, and the record shows the whole journey.
    #[test]
    fn corrupted_incremental_proof_is_quarantined_and_fresh_resolved() {
        // A refutation that needs search, so the proof has lemmas to damage.
        let prog = chipmunk_lang::parse("pkt.z = pkt.x * pkt.y;").unwrap();
        let g = GridSpec::new(2, 3, library::if_else_raw(3), 3);
        let sketch = Sketch::new(g, 3, 0, SketchOptions::default()).unwrap();
        CORRUPT_NEXT_PROOF.with(|c| c.set(true));
        let err = synthesize(&prog, &sketch, &fast_opts()).unwrap_err();
        assert!(
            !CORRUPT_NEXT_PROOF.with(Cell::get),
            "the incremental proof was never checked"
        );
        let SynthesisError::Infeasible(cert) = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        assert!(cert.quarantined, "{cert:?}");
        assert!(cert.fresh_resolve, "{cert:?}");
        assert!(
            cert.certified,
            "the fresh re-solve must re-certify: {cert:?}"
        );
        let text = cert
            .proof
            .expect("the re-certified verdict ships its proof");
        assert!(
            Certificate::parse(&text)
                .unwrap()
                .check(&CheckBudget::default())
                .is_valid(),
            "shipped proof must re-validate independently"
        );
    }

    /// A starved proof byte budget truncates the log; certification then
    /// degrades to an explicitly unchecked verdict with the overflow
    /// named — never a panic, never silent.
    #[test]
    fn truncated_proof_log_degrades_to_an_explicit_unchecked_verdict() {
        use chipmunk_sat::Var;
        // Five pigeons, four holes: UNSAT, and its 45 clauses alone
        // overflow a 512-byte log.
        let (pigeons, holes) = (5, 4);
        let mut solver = Solver::new();
        solver.enable_proof(512);
        let vars: Vec<Var> = (0..pigeons * holes).map(|_| solver.new_var()).collect();
        let p = |i: usize, j: usize| Lit::pos(vars[i * holes + j]);
        for i in 0..pigeons {
            solver.add_clause((0..holes).map(|j| p(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in i1 + 1..pigeons {
                    solver.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
        let mut info = InfeasibleCert::default();
        let outcome = certify_unsat_solver(&solver, &Arc::new(BudgetAccount::new()), &mut info);
        assert!(matches!(outcome, CertifyOutcome::NoProof));
        assert!(info.truncated, "{info:?}");
        assert!(!info.certified, "{info:?}");
        assert!(info.proof.is_none(), "{info:?}");
        let reason = info.reason.as_deref().expect("unchecked verdict says why");
        assert!(reason.contains("overflow"), "reason: {reason}");
    }

    #[test]
    fn budget_tripped_synthesis_is_timeout_never_infeasible() {
        // Regression (satellite of the certified-infeasibility work): a
        // budget-tripped solve reports Unknown, which must surface as
        // Timeout, never Infeasible — even with proof logging active. The
        // propagation ceiling is 1, so any solve that actually *searches*
        // trips before concluding anything. The instances therefore must
        // not be refutable at clause-addition time: the 1-stage `raw` mul
        // grid from `infeasible_when_grid_too_weak` is disqualified — its
        // contradiction surfaces through level-zero unit propagation
        // while clauses are added, before any budget is consulted, and
        // that free UNSAT is legitimately certified regardless of budget.
        let budget = ResourceBudget {
            conflicts: Some(1),
            propagations: Some(1),
            ..ResourceBudget::UNLIMITED
        };
        let opts = CegisOptions {
            budget,
            ..fast_opts()
        };
        // A feasible instance: synthesis has to search for a candidate,
        // trips the ledger, and must not claim anything.
        let prog = chipmunk_lang::parse("pkt.x = pkt.x + pkt.y;").unwrap();
        let g = GridSpec::new(1, 2, library::raw(2), 2);
        let sketch = Sketch::new(g, 2, 0, SketchOptions::default()).unwrap();
        let err = synthesize(&prog, &sketch, &opts).unwrap_err();
        assert_eq!(err, SynthesisError::Timeout, "feasible instance");
        // A genuinely infeasible instance whose refutation needs real
        // search (mul on a two-stage predicated grid takes thousands of
        // conflicts unbudgeted): the ledger runs dry mid-way, and the
        // starved solve must degrade to Timeout, not to a bogus verdict.
        let prog = chipmunk_lang::parse("pkt.z = pkt.x * pkt.y;").unwrap();
        let g = GridSpec::new(2, 3, library::if_else_raw(3), 3);
        let sketch = Sketch::new(g, 3, 0, SketchOptions::default()).unwrap();
        let err = synthesize(&prog, &sketch, &opts).unwrap_err();
        assert_eq!(err, SynthesisError::Timeout, "infeasible instance");
    }

    #[test]
    fn incremental_equivalence_verdicts_carry_a_core() {
        let prog = chipmunk_lang::parse("pkt.x = pkt.x + 1;").unwrap();
        let g = GridSpec::new(1, 1, library::raw(2), 2);
        let sketch = Sketch::new(g, 1, 0, SketchOptions::default()).unwrap();
        let opts = fast_opts();
        let out = synthesize(&prog, &sketch, &opts).expect("synthesis succeeds");
        let mut inc = Verifier::new(&prog, &sketch, opts.verify_width, None);
        assert_eq!(inc.check(&out.hole_values, None, None).unwrap(), None);
        // Equivalence was proved under pinned-hole assumptions, so the
        // failed-assumption core names the hole bits that mattered.
        assert!(
            !inc.last_core().is_empty(),
            "equivalence verdict should be self-describing"
        );
        // A counterexample verdict has no core.
        let mut bad = out.hole_values.clone();
        bad[0] ^= 1;
        if inc.check(&bad, None, None).unwrap().is_some() {
            assert!(inc.last_core().is_empty());
        }
    }

    #[test]
    fn deadline_yields_timeout() {
        let prog = chipmunk_lang::parse("state s; s = s + pkt.x;").unwrap();
        let g = GridSpec::new(2, 2, library::nested_ifs(3), 3);
        let sketch = Sketch::new(g, 1, 1, SketchOptions::default()).unwrap();
        let opts = CegisOptions {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..fast_opts()
        };
        let err = synthesize(&prog, &sketch, &opts).unwrap_err();
        assert_eq!(err, SynthesisError::Timeout);
    }

    #[test]
    fn narrow_verify_width_is_a_typed_error() {
        // Regression: this used to be a reachable assert!, which a serve
        // request with a small `width` could use to kill a worker.
        let prog = chipmunk_lang::parse("pkt.x = pkt.x + 1;").unwrap();
        let g = GridSpec::new(1, 1, library::raw(2), 2);
        let sketch = Sketch::new(g, 1, 0, SketchOptions::default()).unwrap();
        let opts = CegisOptions {
            verify_width: 1,
            ..fast_opts()
        };
        let err = synthesize(&prog, &sketch, &opts).unwrap_err();
        assert!(
            matches!(err, SynthesisError::InvalidOptions(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn out_of_range_verify_width_is_a_typed_error() {
        let prog = chipmunk_lang::parse("pkt.x = pkt.x + 1;").unwrap();
        let g = GridSpec::new(1, 1, library::raw(2), 2);
        let sketch = Sketch::new(g, 1, 0, SketchOptions::default()).unwrap();
        for w in [0u8, 65, 255] {
            let opts = CegisOptions {
                verify_width: w,
                ..fast_opts()
            };
            let err = synthesize(&prog, &sketch, &opts).unwrap_err();
            assert!(
                matches!(err, SynthesisError::InvalidOptions(_)),
                "width {w}: got {err:?}"
            );
        }
    }

    #[test]
    fn tiny_resource_budget_yields_timeout() {
        let prog = chipmunk_lang::parse("state s; s = s + pkt.x;").unwrap();
        let g = GridSpec::new(2, 2, library::nested_ifs(3), 3);
        let sketch = Sketch::new(g, 1, 1, SketchOptions::default()).unwrap();
        let opts = CegisOptions {
            budget: ResourceBudget {
                conflicts: Some(1),
                propagations: Some(1),
                ..ResourceBudget::UNLIMITED
            },
            ..fast_opts()
        };
        let err = synthesize(&prog, &sketch, &opts).unwrap_err();
        assert_eq!(err, SynthesisError::Timeout);
        // Deterministic: the same tiny budget gives the same outcome.
        let err2 = synthesize(&prog, &sketch, &opts).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn job_budget_is_cumulative_across_all_solves() {
        // Regression for the per-solver budget bug: verification solvers
        // used to re-arm the full ceiling on every iteration, so a run
        // could overspend its "hard" budget by ~iterations×. With the
        // job-wide account, total spend across every solve the run
        // performs (synthesis + screening + full-width verification)
        // never exceeds the configured ceiling.
        let prog = chipmunk_lang::parse("state s; s = s + pkt.x;").unwrap();
        let g = GridSpec::new(2, 2, library::nested_ifs(3), 3);
        let sketch = Sketch::new(g, 1, 1, SketchOptions::default()).unwrap();
        let opts = CegisOptions {
            budget: ResourceBudget {
                conflicts: Some(5),
                propagations: Some(20_000),
                ..ResourceBudget::UNLIMITED
            },
            ..fast_opts()
        };
        let account = Arc::new(BudgetAccount::new());
        let err = synthesize_with_control(
            &prog,
            &sketch,
            &opts,
            SynthControl {
                account: Some(account.clone()),
                ..SynthControl::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SynthesisError::Timeout);
        assert!(
            account.conflicts() <= 5,
            "job spent {} conflicts against a 5-conflict ceiling",
            account.conflicts()
        );
        assert!(
            account.propagations() <= 20_000,
            "job spent {} propagations against a 20k ceiling",
            account.propagations()
        );
    }

    #[test]
    fn stats_report_verification_work() {
        let g = GridSpec::new(2, 2, library::if_else_raw(3), 3);
        let out = synth_ok(
            "state count;
             if (count == 5) { count = 0; pkt.sample = 1; }
             else { count = count + 1; pkt.sample = 0; }",
            g,
            &fast_opts(),
        );
        // Every run ends with at least one full-width verification solve,
        // and the verifier always propagates its assumption/unit clauses.
        assert!(out.stats.verify_propagations > 0);
        assert!(out.stats.synth_propagations > 0);
    }

    #[test]
    fn incremental_verifier_agrees_with_rebuild() {
        // The persistent assumption-pinned verifier and the from-scratch
        // rebuild must return the same verdict for any candidate — and
        // any counterexample either returns must concretely distinguish.
        let prog = chipmunk_lang::parse("pkt.x = pkt.x + 1;").unwrap();
        let g = GridSpec::new(1, 1, library::raw(2), 2);
        let sketch = Sketch::new(g, 1, 0, SketchOptions::default()).unwrap();
        let opts = fast_opts();
        let w = opts.verify_width;
        let out = synthesize(&prog, &sketch, &opts).expect("synthesis succeeds");

        let mut inc = Verifier::new(&prog, &sketch, w, None);
        assert_eq!(
            inc.check(&out.hole_values, None, None).unwrap(),
            None,
            "winner must verify incrementally"
        );
        assert_eq!(
            verify_at(&prog, &sketch, &out.hole_values, w, None, None).unwrap(),
            None,
            "winner must verify from scratch"
        );

        // Seeded single-bit perturbations of the winner: verdicts agree,
        // and the persistent instance stays sound across mixed SAT/UNSAT
        // queries (the incremental hazard this suite guards).
        let mut rng = SplitMix64(0xfeed);
        for round in 0..16 {
            let mut hv = out.hole_values.clone();
            let i = (rng.next() as usize) % hv.len();
            let bits = sketch.holes()[i].bits.max(1);
            hv[i] ^= 1 << (rng.next() % bits as u64);
            let fresh = verify_at(&prog, &sketch, &hv, w, None, None).unwrap();
            let pinned = inc.check(&hv, None, None).unwrap();
            assert_eq!(
                fresh.is_none(),
                pinned.is_none(),
                "round {round}: verdicts diverge for {hv:?} (fresh {fresh:?}, pinned {pinned:?})"
            );
            for cex in [fresh, pinned].into_iter().flatten() {
                assert!(
                    distinguishes_at(&prog, &sketch, &hv, &cex, w),
                    "round {round}: {cex:?} does not distinguish {hv:?}"
                );
            }
        }
        // Re-check the winner after all that: still equivalent.
        assert_eq!(inc.check(&out.hole_values, None, None).unwrap(), None);
    }

    #[test]
    fn cex_pool_seeds_and_collects() {
        let src = "state count;
                   if (count == 5) { count = 0; pkt.sample = 1; }
                   else { count = count + 1; pkt.sample = 0; }";
        let prog = chipmunk_lang::parse(src).unwrap();
        let g = GridSpec::new(2, 2, library::if_else_raw(3), 3);
        let sketch = Sketch::new(g, 1, 1, SketchOptions::default()).unwrap();
        let pool = Arc::new(Mutex::new(Vec::new()));
        let ctl = |pool: &Arc<Mutex<Vec<PacketState>>>| SynthControl {
            cex_pool: Some(pool.clone()),
            ..SynthControl::default()
        };
        let out1 = synthesize_with_control(&prog, &sketch, &fast_opts(), ctl(&pool))
            .expect("first run succeeds");
        assert_eq!(
            pool.lock().unwrap().len(),
            out1.counterexamples.len(),
            "every discovered counterexample lands in the pool"
        );
        // A second run seeded with the pool starts from the hard inputs
        // the first run paid for, so it never feeds one of them back as a
        // fresh counterexample again.
        let out2 = synthesize_with_control(&prog, &sketch, &fast_opts(), ctl(&pool))
            .expect("seeded run succeeds");
        assert_eq!(
            validate_decoded(&prog, &sketch, &out2.decoded, 6, 300, 5),
            None
        );
        for cex in &out2.counterexamples {
            assert!(
                !out1.counterexamples.contains(cex),
                "pool-seeded run rediscovered {cex:?}"
            );
        }
        assert!(out2.stats.iterations <= out1.stats.iterations);
    }

    #[test]
    fn screening_disabled_still_works() {
        let g = GridSpec::new(1, 1, library::raw(2), 2);
        let opts = CegisOptions {
            screen_width: None,
            ..fast_opts()
        };
        synth_ok("pkt.x = pkt.x + 2;", g, &opts);
    }

    #[test]
    fn non_canonical_field_allocation_synthesizes() {
        let prog = chipmunk_lang::parse("pkt.y = pkt.x + 1;").unwrap();
        let g = GridSpec::new(1, 2, library::raw(2), 2);
        let sketch = Sketch::new(
            g,
            2,
            0,
            SketchOptions {
                canonical_fields: false,
            },
        )
        .unwrap();
        let out = synthesize(&prog, &sketch, &fast_opts()).expect("succeeds");
        // The allocation must be injective.
        let mut seen = std::collections::HashSet::new();
        for &c in &out.decoded.field_to_container {
            assert!(seen.insert(c), "two fields share container {c}");
        }
        assert_eq!(
            validate_decoded(&prog, &sketch, &out.decoded, 6, 300, 3),
            None
        );
    }
}
