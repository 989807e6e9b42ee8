//! # chipmunk-plan
//!
//! Compilation reified as data. The paper's driver is a fixed escalation
//! loop — try a 1-stage grid, then 2, then 3 — hard-coded in the compiler.
//! This crate splits that loop into three explicit pieces:
//!
//! * a [`CompilePlan`]: an ordered list of [`PlanStep`]s (each a grid depth
//!   × width × [`Strategy`] with a per-step solver [`ResourceBudget`]),
//!   partitioned into [`PlanGroup`]s that run one after another;
//! * a planner ([`plan`]) that produces the plan from the caller's search
//!   parameters;
//! * an [`execute`] function that runs the plan, every group through one
//!   runner: the group's steps run one at a time on the calling thread,
//!   or race on worker threads when the machine has cores to spare
//!   ([`ExecControl::race_threads`]). Either way the first certified win
//!   settles the group — racing losers stop through the solver's
//!   cooperative cancellation flags, later steps never start — so the
//!   same plan gives the same outcomes with no oversubscription.
//!
//! The split is what makes portfolio search possible (no single
//! hole-restriction strategy dominates across benchmarks, so racing them —
//! the K2 insight — wins on wall-clock), and it makes plans *resumable*:
//! a [`CompilePlan::fingerprint`] plus a completed-step index journaled by
//! the serving layer is enough to restart a half-executed plan at its
//! first unfinished step after a crash.
//!
//! This crate knows nothing about sketches or CEGIS: [`execute`] is
//! generic over a *runner* callback that maps one step to a synthesis
//! attempt and a *certifier* callback that accepts or rejects a win. The
//! `chipmunk` core crate supplies both.

#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use chipmunk_sat::ResourceBudget;

// ---------------------------------------------------------------------------
// Plan data model
// ---------------------------------------------------------------------------

/// A hole-restriction strategy for one synthesis attempt. Strategies trade
/// search-space size against completeness; the ablation data shows none
/// dominates across programs, which is why racing them pays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// The caller's stateless ALU with canonical (first-fit) packet-field
    /// allocation — the symmetry-broken default. Complete: canonical
    /// allocation only breaks a container-permutation symmetry, it never
    /// loses solutions.
    CanonicalAllocation,
    /// Arithmetic-only stateless opcodes with canonical allocation —
    /// smaller holes, much faster when the program fits, but *incomplete*:
    /// an infeasibility verdict under this strategy proves nothing about
    /// the full ALU.
    OpcodeRestricted,
    /// The full stateless ALU with free (one-hot) field allocation — no
    /// restriction on either axis. Complete, and occasionally faster than
    /// the canonical encoding on allocation-sensitive programs.
    FullAlu,
}

impl Strategy {
    /// Stable wire/display name (used by `plan --explain`, golden plans,
    /// the journal, and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::CanonicalAllocation => "canonical-allocation",
            Strategy::OpcodeRestricted => "opcode-restricted",
            Strategy::FullAlu => "full-alu",
        }
    }

    /// Can an `Infeasible` verdict under this strategy be trusted as a
    /// verdict about the grid itself?
    pub fn is_complete(self) -> bool {
        !matches!(self, Strategy::OpcodeRestricted)
    }
}

/// One synthesis attempt: a grid shape plus the strategy and solver budget
/// to attack it with.
#[derive(Clone, Copy, Debug)]
pub struct PlanStep {
    /// Position in [`CompilePlan::steps`] — the unit of journaled progress.
    pub index: usize,
    /// Grid depth (pipeline stages) of this attempt.
    pub stages: usize,
    /// Grid width (PHV containers / ALUs per stage).
    pub slots: usize,
    /// Hole-restriction strategy.
    pub strategy: Strategy,
    /// Solver resource ceilings for this step. The conflict and
    /// propagation ceilings are *job-wide* in practice: the executor's
    /// caller threads one shared `BudgetAccount` through every step of a
    /// compile, so a step inherits whatever the earlier steps already
    /// spent rather than re-arming the full ceiling.
    pub budget: ResourceBudget,
    /// Index of the [`PlanGroup`] this step belongs to.
    pub group: usize,
}

/// How the steps of one group are driven.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaceMode {
    /// A single step, run inline on the calling thread.
    Solo,
    /// Steps at the *same depth* with different strategies race; the first
    /// **certified** win cancels every other step in the group, and so
    /// does an `Infeasible` verdict from a *complete* strategy — the
    /// depth is settled either way, so the group never waits out a
    /// loser's UNSAT proof.
    Strategies,
}

impl RaceMode {
    /// Stable wire/display name (used by `plan --explain` and the plan
    /// fingerprint).
    pub fn name(self) -> &'static str {
        match self {
            RaceMode::Solo => "solo",
            RaceMode::Strategies => "race-strategies",
        }
    }
}

/// A set of steps executed together; groups run in plan order.
#[derive(Clone, Debug)]
pub struct PlanGroup {
    /// Drive mode.
    pub mode: RaceMode,
    /// Indices into [`CompilePlan::steps`].
    pub steps: Vec<usize>,
}

/// An ordered compilation schedule.
#[derive(Clone, Debug, Default)]
pub struct CompilePlan {
    /// All steps, in execution order (group by group).
    pub steps: Vec<PlanStep>,
    /// Group structure over `steps`.
    pub groups: Vec<PlanGroup>,
}

impl CompilePlan {
    /// Deterministic 64-bit fingerprint of the plan structure, rendered as
    /// 16 hex digits. Two plans with the same fingerprint schedule the
    /// same attempts in the same order — the property the serving layer's
    /// journal relies on to resume a half-executed plan after a restart.
    pub fn fingerprint(&self) -> String {
        let mut text = String::new();
        for g in &self.groups {
            text.push_str(g.mode.name());
            text.push('[');
            for &si in &g.steps {
                let s = &self.steps[si];
                text.push_str(&format!(
                    "{}:{}x{}:{}:{};",
                    s.index,
                    s.stages,
                    s.slots,
                    s.strategy.name(),
                    budget_text(&s.budget),
                ));
            }
            text.push(']');
        }
        format!("{:016x}", fnv1a64(text.as_bytes()))
    }

    /// Human-readable rendering, the `chipmunkc plan --explain` output.
    /// The format is stable: golden-plan tests diff it verbatim.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} steps in {} groups, fingerprint {}\n",
            self.steps.len(),
            self.groups.len(),
            self.fingerprint()
        ));
        for (gi, g) in self.groups.iter().enumerate() {
            out.push_str(&format!("group {gi} ({})\n", g.mode.name()));
            for &si in &g.steps {
                let s = &self.steps[si];
                out.push_str(&format!(
                    "  step {}: depth {} x {} slots  strategy {}  budget {}\n",
                    s.index,
                    s.stages,
                    s.slots,
                    s.strategy.name(),
                    budget_text(&s.budget),
                ));
            }
        }
        out
    }
}

fn budget_text(b: &ResourceBudget) -> String {
    if !b.is_limited() {
        return "unlimited".to_string();
    }
    let mut parts = Vec::new();
    if let Some(c) = b.conflicts {
        parts.push(format!("conflicts={c}"));
    }
    if let Some(p) = b.propagations {
        parts.push(format!("propagations={p}"));
    }
    if let Some(by) = b.clause_bytes {
        parts.push(format!("bytes={by}"));
    }
    parts.join(",")
}

/// FNV-1a 64-bit — tiny, deterministic, dependency-free.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

/// Everything the planner needs to know about a compilation request.
/// (Deliberately *not* the compiler's option struct: this crate stays
/// below the sketch/CEGIS layer, so the core crate converts.)
#[derive(Clone, Copy, Debug)]
pub struct PlanInputs {
    /// Largest pipeline depth to schedule.
    pub max_stages: usize,
    /// Grid width (already resolved against the program's field/state
    /// counts by the caller).
    pub slots: usize,
    /// Race strategies within each depth, first certified win takes all.
    pub portfolio: bool,
    /// Solver budget applied to every step.
    pub budget: ResourceBudget,
    /// Does the caller's sketch use canonical field allocation? Decides
    /// which strategy reproduces the caller's options exactly in
    /// non-portfolio plans.
    pub canonical_fields: bool,
}

/// Produce the schedule for one compilation.
///
/// * Default: one solo step per depth `1..=max_stages`, smallest first —
///   byte-for-byte the paper's escalation loop.
/// * `portfolio`: per depth, a strategy-racing group of
///   opcode-restricted / canonical-allocation / full-ALU; depths still
///   escalate smallest-first so the result stays depth-minimal.
pub fn plan(inputs: &PlanInputs) -> CompilePlan {
    let mut p = CompilePlan::default();
    let default_strategy = if inputs.canonical_fields {
        Strategy::CanonicalAllocation
    } else {
        Strategy::FullAlu
    };
    let push = |p: &mut CompilePlan, stages: usize, strategy: Strategy, group: usize| {
        let index = p.steps.len();
        p.steps.push(PlanStep {
            index,
            stages,
            slots: inputs.slots,
            strategy,
            budget: inputs.budget,
            group,
        });
        index
    };
    if inputs.portfolio {
        for stages in 1..=inputs.max_stages {
            let group = p.groups.len();
            let steps = [
                Strategy::OpcodeRestricted,
                Strategy::CanonicalAllocation,
                Strategy::FullAlu,
            ]
            .into_iter()
            .map(|s| push(&mut p, stages, s, group))
            .collect();
            p.groups.push(PlanGroup {
                mode: RaceMode::Strategies,
                steps,
            });
        }
    } else {
        for stages in 1..=inputs.max_stages {
            let group = p.groups.len();
            let steps = vec![push(&mut p, stages, default_strategy, group)];
            p.groups.push(PlanGroup {
                mode: RaceMode::Solo,
                steps,
            });
        }
    }
    p
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Why one step did not produce a result (reported by the runner).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepError {
    /// Synthesis proved the sketch infeasible for this step's grid. The
    /// verdict is meaningful only from a [`Strategy::is_complete`]
    /// strategy; `certified` records whether the solver's UNSAT came
    /// with a proof the in-repo DRAT checker validated. Certification is
    /// *authority*, not admissibility: only a certified verdict settles
    /// a depth early — its group's racing or later steps are cancelled —
    /// and only a certified verdict outranks a sibling's timeout. An
    /// uncertified one merely classifies the group once every sibling has
    /// drained decisively, and reaches the caller explicitly flagged
    /// unchecked (the degrade ladder's contract: never silent, never a
    /// masqueraded timeout).
    Infeasible {
        /// The UNSAT behind this verdict carries a validated proof.
        certified: bool,
    },
    /// A deadline, iteration cap, or resource budget ran out.
    Timeout,
    /// The step observed its cancellation flag and stopped.
    Cancelled,
    /// The options are self-inconsistent — deterministic across steps, so
    /// the whole plan fails fast.
    InvalidOptions(String),
}

/// How one executed step ended — fed to the progress observer so the
/// serving layer can journal completed steps and attribute per-strategy
/// metrics (a cancelled racing loser must not be recorded as a failure).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The step synthesized a result (it may still lose the race).
    Success,
    /// Conclusively infeasible for this step's grid and strategy.
    Infeasible,
    /// Budget/deadline exhaustion.
    Timeout,
    /// Cancelled — by a racing winner or an external abort.
    Cancelled,
    /// Self-inconsistent options.
    InvalidOptions,
    /// The step panicked (isolated, reported as data).
    Panicked,
    /// The step synthesized a result that failed certification.
    Uncertified,
}

impl StepOutcome {
    /// Stable display name (journal records, metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            StepOutcome::Success => "success",
            StepOutcome::Infeasible => "infeasible",
            StepOutcome::Timeout => "timeout",
            StepOutcome::Cancelled => "cancelled",
            StepOutcome::InvalidOptions => "invalid_options",
            StepOutcome::Panicked => "panicked",
            StepOutcome::Uncertified => "uncertified",
        }
    }
}

/// One completed step, as seen by the progress observer.
#[derive(Clone, Copy, Debug)]
pub struct StepReport {
    /// Index of the step in the plan.
    pub step: usize,
    /// Grid depth of the step.
    pub stages: usize,
    /// Strategy of the step.
    pub strategy: Strategy,
    /// How it ended.
    pub outcome: StepOutcome,
    /// Wall time the step ran for.
    pub elapsed: Duration,
}

/// Why the whole plan failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Every depth was conclusively infeasible.
    Infeasible,
    /// Budgets or deadlines ran out before a verdict.
    Timeout,
    /// The external cancellation flag stopped the plan.
    Cancelled,
    /// Deterministic caller error, reported from the first step.
    InvalidOptions(String),
    /// A step panicked and no other step decided the plan. Carries a
    /// bounded panic message naming the step's depth.
    Internal(String),
    /// A winning step's result failed certification.
    Uncertified(String),
}

/// A won plan: the winning step index and the runner's result.
#[derive(Debug)]
pub struct ExecSuccess<T> {
    /// Index into [`CompilePlan::steps`] of the winning step.
    pub step: usize,
    /// The runner's result for that step.
    pub value: T,
}

/// Observer callback: invoked once per step of every group the executor
/// starts, in completion order — racing steps, and steps a settled or
/// cancelled group never ran, included.
pub type Observer<'a> = &'a (dyn Fn(&StepReport) + Sync);

/// Execution knobs.
#[derive(Default)]
pub struct ExecControl<'a> {
    /// External cooperative cancellation (abortive shutdown, per-job
    /// timeouts). A step run on the calling thread gets this flag itself;
    /// a monitor forwards it to a racing group's flag.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline of the whole plan; a timed-out step past the
    /// deadline ends the plan instead of escalating, and a step that would
    /// start past it is reported `Timeout` without running.
    pub deadline: Option<Instant>,
    /// Skip steps with `index < resume_from` — they already completed
    /// (without success) in a previous run of the same plan, per the
    /// serving layer's journal.
    pub resume_from: usize,
    /// Progress observer.
    pub observer: Option<Observer<'a>>,
    /// OS threads a group may occupy; `None` auto-detects the machine's
    /// available parallelism. Above one, a group's steps race, one thread
    /// per step; otherwise they run one at a time in plan order on the
    /// calling thread, and a group stops at the first event that would
    /// cancel its racing siblings. Concurrent racing on one core only
    /// time-slices competing solvers, making every race run at the sum of
    /// its members instead of their minimum.
    pub race_threads: Option<usize>,
}

impl ExecControl<'_> {
    fn effective_race_threads(&self) -> usize {
        self.race_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// Assumed worst-case solver throughput used to convert remaining
/// wall-clock into resource ceilings. Deliberately generous — the
/// wall-clock deadline stays the primary bound; the derived budget only
/// cuts off a solver so deep in a hard instance that it stopped hitting
/// the deadline polls (e.g. one monster conflict analysis).
pub const DEADLINE_CONFLICTS_PER_SEC: u64 = 100_000;
/// See [`DEADLINE_CONFLICTS_PER_SEC`].
pub const DEADLINE_PROPAGATIONS_PER_SEC: u64 = 100_000_000;
/// A live deadline always buys at least this many conflicts, so a job
/// admitted with milliseconds to spare still makes observable progress
/// instead of being zero-budgeted into a spurious `Timeout`.
pub const DEADLINE_MIN_CONFLICTS: u64 = 64;
/// See [`DEADLINE_MIN_CONFLICTS`].
pub const DEADLINE_MIN_PROPAGATIONS: u64 = 100_000;

/// Convert the time remaining until a job's deadline into per-step
/// solver ceilings, min-merged with the explicitly configured budget so
/// an operator's `--budget-*` caps still hold when they are tighter.
///
/// Derivation happens at *execution* time (the runner wrapper in
/// [`execute`]), never in the planner: plan fingerprints must not
/// depend on how much of the deadline the queue already consumed, or
/// crash-recovery replay would see a different plan than it journaled.
pub fn budget_for_remaining(remaining: Duration, explicit: ResourceBudget) -> ResourceBudget {
    let millis = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
    let conflicts =
        (millis.saturating_mul(DEADLINE_CONFLICTS_PER_SEC) / 1000).max(DEADLINE_MIN_CONFLICTS);
    let propagations = (millis.saturating_mul(DEADLINE_PROPAGATIONS_PER_SEC) / 1000)
        .max(DEADLINE_MIN_PROPAGATIONS);
    ResourceBudget {
        conflicts: Some(explicit.conflicts.map_or(conflicts, |c| c.min(conflicts))),
        propagations: Some(
            explicit
                .propagations
                .map_or(propagations, |p| p.min(propagations)),
        ),
        clause_bytes: explicit.clause_bytes,
    }
}

/// Run `plan`. `runner` maps one step to a synthesis attempt; `certify`
/// accepts or rejects a candidate win (its `Err` carries the reason).
///
/// Groups run in plan order, each through the same runner whatever its
/// [`RaceMode`]: the group's unfinished steps go out in plan order to one
/// worker on the calling thread, or — when [`ExecControl::race_threads`]
/// allows racing — to one scoped thread per step. Every step runs
/// panic-isolated and certifies its own candidate, so only a certified
/// win takes a group; an uncertified candidate drops out, and a group
/// whose candidates all failed certification fails the plan.
pub fn execute<T, R, C>(
    plan: &CompilePlan,
    runner: R,
    certify: C,
    ctl: ExecControl<'_>,
) -> Result<ExecSuccess<T>, ExecError>
where
    T: Send,
    R: Fn(&PlanStep, Option<Arc<AtomicBool>>) -> Result<T, StepError> + Sync,
    C: Fn(&PlanStep, &T) -> Result<(), String> + Sync,
{
    // Deadline-aware budget tightening: when the plan has a wall-clock
    // deadline, every step launch re-derives its solver budget from the
    // time *remaining at that moment*, so a job never burns conflicts
    // past its client's patience. Steps launched later in the plan get
    // proportionally smaller ceilings; explicit budgets still cap.
    let deadline = ctl.deadline;
    let runner = |step: &PlanStep, cancel: Option<Arc<AtomicBool>>| -> Result<T, StepError> {
        match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                let tightened = PlanStep {
                    budget: budget_for_remaining(remaining, step.budget),
                    ..*step
                };
                runner(&tightened, cancel)
            }
            None => runner(step, cancel),
        }
    };
    let mut saw_timeout = false;
    let mut panicked: Option<String> = None;
    for group in &plan.groups {
        // Resume: a group whose steps all completed in a previous run of
        // this plan is skipped wholesale (the journal only records steps
        // that finished *without* winning).
        if group.steps.iter().all(|&si| si < ctl.resume_from) {
            continue;
        }
        if ctl.cancelled() {
            return Err(ExecError::Cancelled);
        }
        match run_group(plan, group, &runner, &certify, &ctl)? {
            GroupVerdict::Won(success) => return Ok(success),
            GroupVerdict::Infeasible => {}
            GroupVerdict::Timeout => {
                saw_timeout = true;
                if ctl.deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(ExecError::Timeout);
                }
            }
            GroupVerdict::Panicked(msg) => {
                if panicked.is_none() {
                    panicked = Some(msg);
                }
            }
        }
    }
    if saw_timeout {
        Err(ExecError::Timeout)
    } else if let Some(msg) = panicked {
        Err(ExecError::Internal(msg))
    } else {
        Err(ExecError::Infeasible)
    }
}

enum GroupVerdict<T> {
    Won(ExecSuccess<T>),
    /// Conclusively infeasible at this group's depth(s); escalate.
    Infeasible,
    /// Undecided for budget/deadline reasons; escalate, but remember.
    Timeout,
    /// Undecided because a step panicked; escalate, but remember.
    Panicked(String),
}

fn observe(ctl: &ExecControl<'_>, step: &PlanStep, outcome: StepOutcome, started: Instant) {
    chipmunk_trace::event!(
        "plan.step",
        step = step.index as u64,
        stages = step.stages as u64,
        strategy = step.strategy.name(),
        outcome = outcome.name(),
    );
    if let Some(obs) = ctl.observer {
        obs(&StepReport {
            step: step.index,
            stages: step.stages,
            strategy: step.strategy,
            outcome,
            elapsed: started.elapsed(),
        });
    }
}

/// What a group's steps reported, folded in as each one ends.
struct Tally<T> {
    winner: Option<ExecSuccess<T>>,
    invalid: Option<String>,
    uncertified: Option<String>,
    panicked: Option<String>,
    /// A complete strategy's proof-checked `Infeasible`.
    proven_infeasible: bool,
    /// A complete strategy's `Infeasible` without a checked proof.
    unproven_infeasible: bool,
    /// A `Timeout` that no cancellation explains.
    timeout: bool,
}

/// Run the unfinished steps (`index >= resume_from`) of one group.
///
/// The steps go out in plan order to N workers: N is the number of steps
/// when [`ExecControl::race_threads`] is above one, and 1 otherwise. One
/// worker runs them one after another on the calling thread, each with
/// the caller's own cancel flag, and starts no thread — that is both the
/// solo step and the one-core trial of a strategies group (plan order
/// puts the cheapest, most restricted strategy first). More workers race:
/// one scoped thread per step, each given the group's flag, plus a
/// monitor that forwards the caller's flag to it.
///
/// The group has one cancel flag. The first certified win raises it, and
/// so does a proof-certified `Infeasible` from a complete strategy: no
/// sibling can win a space the unrestricted (or symmetry-broken-only)
/// encoding proved empty, so the group never waits out a loser's UNSAT
/// proof. An unchecked verdict has no such authority, and a sibling that
/// already synthesized a candidate still certifies and wins — a concrete
/// certified artifact outranks any verdict. A step that would start after
/// the group's or the caller's flag is up is reported `Cancelled` without
/// running, one that would start past the deadline `Timeout`, and a
/// `Timeout` returned after the group's flag is up counts as a cancelled
/// loser. The observer sees every step exactly once, so per-strategy
/// attribution and the serve daemon's `portfolio_cancelled` accounting do
/// not depend on the worker count.
fn run_group<T, R, C>(
    plan: &CompilePlan,
    group: &PlanGroup,
    runner: &R,
    certify: &C,
    ctl: &ExecControl<'_>,
) -> Result<GroupVerdict<T>, ExecError>
where
    T: Send,
    R: Fn(&PlanStep, Option<Arc<AtomicBool>>) -> Result<T, StepError> + Sync,
    C: Fn(&PlanStep, &T) -> Result<(), String> + Sync,
{
    let steps: Vec<&PlanStep> = group
        .steps
        .iter()
        .map(|&si| &plan.steps[si])
        .filter(|step| step.index >= ctl.resume_from)
        .collect();
    let settled = Arc::new(AtomicBool::new(false));
    let tally = Mutex::new(Tally {
        winner: None,
        invalid: None,
        uncertified: None,
        panicked: None,
        proven_infeasible: false,
        unproven_infeasible: false,
        timeout: false,
    });
    let lock = || tally.lock().unwrap_or_else(PoisonError::into_inner);
    let run = |step: &PlanStep, cancel: Option<Arc<AtomicBool>>| {
        let started = Instant::now();
        let outcome = if settled.load(Ordering::Relaxed) || ctl.cancelled() {
            StepOutcome::Cancelled
        } else if ctl.deadline.is_some_and(|d| started >= d) {
            lock().timeout = true;
            StepOutcome::Timeout
        } else {
            let res = catch_unwind(AssertUnwindSafe(|| {
                let value = runner(step, cancel)?;
                Ok(certify(step, &value).map(|()| value))
            }));
            let mut t = lock();
            match res {
                Err(payload) => {
                    t.panicked.get_or_insert_with(|| {
                        let msg = panic_text(payload.as_ref());
                        format!("search thread for depth {} panicked: {msg}", step.stages)
                    });
                    StepOutcome::Panicked
                }
                Ok(Ok(Ok(value))) => {
                    if t.winner.is_none() {
                        t.winner = Some(ExecSuccess {
                            step: step.index,
                            value,
                        });
                        settled.store(true, Ordering::Relaxed);
                    }
                    // A later certified success that lost the race is
                    // still a success for attribution purposes.
                    StepOutcome::Success
                }
                Ok(Ok(Err(why))) => {
                    t.uncertified.get_or_insert(why);
                    StepOutcome::Uncertified
                }
                Ok(Err(StepError::Infeasible { certified })) => {
                    if step.strategy.is_complete() {
                        if certified {
                            t.proven_infeasible = true;
                            settled.store(true, Ordering::Relaxed);
                        } else {
                            t.unproven_infeasible = true;
                        }
                    }
                    StepOutcome::Infeasible
                }
                Ok(Err(StepError::Timeout)) if settled.load(Ordering::Relaxed) => {
                    StepOutcome::Cancelled
                }
                Ok(Err(StepError::Timeout)) => {
                    t.timeout = true;
                    StepOutcome::Timeout
                }
                Ok(Err(StepError::Cancelled)) => StepOutcome::Cancelled,
                Ok(Err(StepError::InvalidOptions(m))) => {
                    t.invalid.get_or_insert(m);
                    StepOutcome::InvalidOptions
                }
            }
        };
        observe(ctl, step, outcome, started);
    };
    if steps.len() > 1 && ctl.effective_race_threads() > 1 {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if let Some(external) = &ctl.cancel {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        if external.load(Ordering::Relaxed) {
                            settled.store(true, Ordering::Relaxed);
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
            }
            let run = &run;
            let handles: Vec<_> = steps
                .iter()
                .map(|&step| {
                    let flag = settled.clone();
                    scope.spawn(move || run(step, Some(flag)))
                })
                .collect();
            for handle in handles {
                handle.join().expect("steps isolate their panics");
            }
            done.store(true, Ordering::Relaxed);
        });
    } else {
        for &step in &steps {
            run(step, ctl.cancel.clone());
        }
    }
    let t = tally.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(success) = t.winner {
        return Ok(GroupVerdict::Won(success));
    }
    if let Some(m) = t.invalid {
        return Err(ExecError::InvalidOptions(m));
    }
    if ctl.cancelled() {
        return Err(ExecError::Cancelled);
    }
    if let Some(why) = t.uncertified {
        // Candidates synthesized but none certified: surface the defect
        // instead of silently escalating to a deeper grid.
        return Err(ExecError::Uncertified(why));
    }
    Ok(if t.proven_infeasible {
        // A complete strategy *proved* the depth infeasible; losers that
        // timed out do not weaken that checked verdict.
        GroupVerdict::Infeasible
    } else if t.timeout {
        GroupVerdict::Timeout
    } else if let Some(msg) = t.panicked {
        GroupVerdict::Panicked(msg)
    } else if t.unproven_infeasible {
        // A complete strategy's UNSAT without a checked proof never
        // settles the group or outranks a timeout, but once every step
        // ended decisively it is the honest classification — the caller's
        // record is explicitly flagged unchecked rather than the verdict
        // being erased.
        GroupVerdict::Infeasible
    } else {
        // Only incomplete strategies reported Infeasible — inconclusive.
        GroupVerdict::Timeout
    })
}

/// Short, bounded rendering of a `catch_unwind` payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    const MAX: usize = 200;
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    if msg.len() > MAX {
        let mut cut = MAX;
        while !msg.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &msg[..cut])
    } else {
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(max_stages: usize) -> PlanInputs {
        PlanInputs {
            max_stages,
            slots: 3,
            portfolio: false,
            budget: ResourceBudget::UNLIMITED,
            canonical_fields: true,
        }
    }

    fn ok_at<'a>(
        depth: usize,
    ) -> impl Fn(&PlanStep, Option<Arc<AtomicBool>>) -> Result<usize, StepError> + Sync + 'a {
        move |step, _| {
            if step.stages == depth {
                Ok(step.index)
            } else {
                Err(StepError::Infeasible { certified: true })
            }
        }
    }

    fn certify_all(_: &PlanStep, _: &usize) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn default_plan_is_the_escalation_loop() {
        let p = plan(&inputs(4));
        assert_eq!(p.steps.len(), 4);
        assert_eq!(p.groups.len(), 4);
        for (i, s) in p.steps.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.stages, i + 1);
            assert_eq!(s.strategy, Strategy::CanonicalAllocation);
            assert_eq!(p.groups[s.group].mode, RaceMode::Solo);
        }
    }

    #[test]
    fn portfolio_plan_races_strategies_per_depth() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(2)
        });
        assert_eq!(p.groups.len(), 2);
        for g in &p.groups {
            assert_eq!(g.mode, RaceMode::Strategies);
            assert_eq!(g.steps.len(), 3);
            let depths: Vec<usize> = g.steps.iter().map(|&i| p.steps[i].stages).collect();
            assert!(depths.windows(2).all(|w| w[0] == w[1]));
        }
        // One incomplete + two complete strategies per depth.
        let complete = p.groups[0]
            .steps
            .iter()
            .filter(|&&i| p.steps[i].strategy.is_complete())
            .count();
        assert_eq!(complete, 2);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = plan(&inputs(3));
        let b = plan(&inputs(3));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = plan(&inputs(4));
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = plan(&PlanInputs {
            portfolio: true,
            ..inputs(3)
        });
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
    }

    #[test]
    fn explain_mentions_every_step() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(2)
        });
        let text = p.explain();
        assert!(text.contains(&p.fingerprint()));
        for s in &p.steps {
            assert!(text.contains(&format!("step {}:", s.index)), "{text}");
        }
        assert!(text.contains("opcode-restricted"));
        assert!(text.contains("full-alu"));
    }

    #[test]
    fn solo_escalation_returns_first_feasible_depth() {
        let p = plan(&inputs(4));
        let won = execute(&p, ok_at(3), certify_all, ExecControl::default()).expect("wins");
        assert_eq!(p.steps[won.step].stages, 3);
    }

    #[test]
    fn strategy_race_first_certified_win_cancels_losers() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        let runner = |step: &PlanStep, flag: Option<Arc<AtomicBool>>| {
            match step.strategy {
                // The restricted strategy wins instantly.
                Strategy::OpcodeRestricted => Ok(step.index),
                // The others grind until cancelled.
                _ => {
                    let flag = flag.expect("racing steps get a flag");
                    for _ in 0..5000 {
                        if flag.load(Ordering::Relaxed) {
                            return Err(StepError::Cancelled);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(StepError::Timeout)
                }
            }
        };
        let reports: Mutex<Vec<StepReport>> = Mutex::new(Vec::new());
        let obs = |r: &StepReport| reports.lock().unwrap().push(*r);
        let won = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                observer: Some(&obs),
                race_threads: Some(3),
                ..ExecControl::default()
            },
        )
        .expect("wins");
        assert_eq!(p.steps[won.step].strategy, Strategy::OpcodeRestricted);
        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), 3);
        let cancelled = reports
            .iter()
            .filter(|r| r.outcome == StepOutcome::Cancelled)
            .count();
        assert_eq!(cancelled, 2, "losers must be attributed as cancelled");
    }

    #[test]
    fn uncertified_strategy_win_drops_out_and_race_continues() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        // Restricted synthesizes a bogus result fast; canonical is right.
        // (Full-ALU must not report Infeasible here: a complete strategy's
        // infeasibility cancels the race — covered by its own test below.)
        let runner = |step: &PlanStep, flag: Option<Arc<AtomicBool>>| match step.strategy {
            Strategy::OpcodeRestricted => Ok(step.index),
            Strategy::CanonicalAllocation => {
                std::thread::sleep(Duration::from_millis(30));
                if flag.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    return Err(StepError::Cancelled);
                }
                Ok(step.index)
            }
            Strategy::FullAlu => Err(StepError::Timeout),
        };
        let certify = |step: &PlanStep, _: &usize| {
            if step.strategy == Strategy::OpcodeRestricted {
                Err("bogus".to_string())
            } else {
                Ok(())
            }
        };
        let won = execute(
            &p,
            runner,
            certify,
            ExecControl {
                race_threads: Some(3),
                ..ExecControl::default()
            },
        )
        .expect("canonical wins");
        assert_eq!(p.steps[won.step].strategy, Strategy::CanonicalAllocation);
    }

    #[test]
    fn incomplete_infeasibility_does_not_prove_the_depth_infeasible() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        // Restricted says infeasible; complete strategies time out.
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| match step.strategy {
            Strategy::OpcodeRestricted => Err(StepError::Infeasible { certified: true }),
            _ => Err(StepError::Timeout),
        };
        for race_threads in [Some(3), Some(1)] {
            let err = execute(
                &p,
                runner,
                certify_all,
                ExecControl {
                    race_threads,
                    ..ExecControl::default()
                },
            )
            .unwrap_err();
            assert_eq!(err, ExecError::Timeout, "race_threads {race_threads:?}");
        }
    }

    #[test]
    fn complete_infeasibility_cancels_racing_siblings_early() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        // Canonical proves the depth infeasible instantly; the siblings
        // would grind for 5 s. The group must not wait them out: the
        // authoritative verdict cancels them, and the plan fails
        // Infeasible in far less than their natural runtime.
        let runner = |step: &PlanStep, flag: Option<Arc<AtomicBool>>| match step.strategy {
            Strategy::CanonicalAllocation => {
                Err::<usize, StepError>(StepError::Infeasible { certified: true })
            }
            _ => {
                let flag = flag.expect("racing steps get a flag");
                for _ in 0..5000 {
                    if flag.load(Ordering::Relaxed) {
                        return Err(StepError::Cancelled);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(StepError::Timeout)
            }
        };
        let reports: Mutex<Vec<StepReport>> = Mutex::new(Vec::new());
        let obs = |r: &StepReport| reports.lock().unwrap().push(*r);
        let t0 = Instant::now();
        let err = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                observer: Some(&obs),
                race_threads: Some(3),
                ..ExecControl::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Infeasible);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "siblings were waited out instead of cancelled"
        );
        let reports = reports.into_inner().unwrap();
        let cancelled = reports
            .iter()
            .filter(|r| r.outcome == StepOutcome::Cancelled)
            .count();
        assert_eq!(
            cancelled, 2,
            "both siblings must be attributed as cancelled"
        );
    }

    #[test]
    fn complete_infeasibility_escalates_then_reports_infeasible() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(2)
        });
        let runner = |_: &PlanStep, _: Option<Arc<AtomicBool>>| {
            Err::<usize, StepError>(StepError::Infeasible { certified: true })
        };
        for race_threads in [Some(3), Some(1)] {
            let err = execute(
                &p,
                runner,
                certify_all,
                ExecControl {
                    race_threads,
                    ..ExecControl::default()
                },
            )
            .unwrap_err();
            assert_eq!(err, ExecError::Infeasible, "race_threads {race_threads:?}");
        }
    }

    #[test]
    fn sequential_portfolio_stops_at_the_first_win() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        // One core: the group must try strategies one at a time in plan
        // order and never invoke a sibling once the group is settled.
        let ran: Mutex<Vec<Strategy>> = Mutex::new(Vec::new());
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| {
            ran.lock().unwrap().push(step.strategy);
            match step.strategy {
                Strategy::OpcodeRestricted => Ok(step.index),
                _ => panic!("sibling ran after the group was settled"),
            }
        };
        let reports: Mutex<Vec<StepReport>> = Mutex::new(Vec::new());
        let obs = |r: &StepReport| reports.lock().unwrap().push(*r);
        let won = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                observer: Some(&obs),
                race_threads: Some(1),
                ..ExecControl::default()
            },
        )
        .expect("wins");
        assert_eq!(p.steps[won.step].strategy, Strategy::OpcodeRestricted);
        assert_eq!(*ran.lock().unwrap(), vec![Strategy::OpcodeRestricted]);
        // Attribution is mode-independent: the unrun siblings are
        // reported cancelled, exactly like concurrent racing losers.
        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), 3);
        let cancelled = reports
            .iter()
            .filter(|r| r.outcome == StepOutcome::Cancelled)
            .count();
        assert_eq!(cancelled, 2);
    }

    #[test]
    fn sequential_portfolio_skips_siblings_after_authoritative_infeasible() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        // Restricted can't decide (incomplete), canonical proves the
        // depth infeasible; full-ALU must never run.
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| match step.strategy {
            Strategy::OpcodeRestricted => {
                Err::<usize, StepError>(StepError::Infeasible { certified: true })
            }
            Strategy::CanonicalAllocation => Err(StepError::Infeasible { certified: true }),
            Strategy::FullAlu => panic!("full-ALU ran after an authoritative verdict"),
        };
        let reports: Mutex<Vec<StepReport>> = Mutex::new(Vec::new());
        let obs = |r: &StepReport| reports.lock().unwrap().push(*r);
        let err = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                observer: Some(&obs),
                race_threads: Some(1),
                ..ExecControl::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Infeasible);
        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].strategy, Strategy::FullAlu);
        assert_eq!(reports[2].outcome, StepOutcome::Cancelled);
    }

    #[test]
    fn uncertified_infeasibility_still_surfaces_as_infeasible_when_all_drain() {
        // Degrade-ladder contract: when every step ends in an UNSAT that
        // merely lacks a validated proof (log truncated, checker out of
        // budget) and nothing timed out, the classification is still
        // Infeasible in every mode — the caller receives the record
        // explicitly flagged unchecked rather than a masqueraded Timeout,
        // which would make a truncated proof log erase the verdict class
        // entirely.
        let runner = |_: &PlanStep, _: Option<Arc<AtomicBool>>| {
            Err::<usize, StepError>(StepError::Infeasible { certified: false })
        };
        let plans = [
            plan(&inputs(2)),
            plan(&PlanInputs {
                portfolio: true,
                ..inputs(2)
            }),
        ];
        for p in &plans {
            for race_threads in [Some(3), Some(1)] {
                let err = execute(
                    p,
                    runner,
                    certify_all,
                    ExecControl {
                        race_threads,
                        ..ExecControl::default()
                    },
                )
                .unwrap_err();
                assert_eq!(err, ExecError::Infeasible, "race_threads {race_threads:?}");
            }
        }
    }

    #[test]
    fn uncertified_infeasibility_never_outranks_a_sibling_timeout() {
        // The authority half of the certification bit: a *checked* UNSAT
        // from a complete strategy outranks racing losers' timeouts; an
        // unchecked one does not — the depth stays inconclusive.
        for (certified, want) in [(true, ExecError::Infeasible), (false, ExecError::Timeout)] {
            let p = plan(&PlanInputs {
                portfolio: true,
                ..inputs(1)
            });
            let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| match step.strategy {
                Strategy::CanonicalAllocation => {
                    Err::<usize, StepError>(StepError::Infeasible { certified })
                }
                _ => Err(StepError::Timeout),
            };
            for race_threads in [Some(3), Some(1)] {
                let err = execute(
                    &p,
                    runner,
                    certify_all,
                    ExecControl {
                        race_threads,
                        ..ExecControl::default()
                    },
                )
                .unwrap_err();
                assert_eq!(
                    err, want,
                    "certified {certified} race_threads {race_threads:?}"
                );
            }
        }
    }

    #[test]
    fn sequential_portfolio_runs_every_sibling_after_unchecked_infeasible() {
        // The sequential analogue of "no cancellation authority": after
        // canonical's *unchecked* UNSAT, the remaining strategy must still
        // run (and may win, disproving the claim) — contrast with
        // `sequential_portfolio_skips_siblings_after_authoritative_infeasible`.
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| match step.strategy {
            Strategy::CanonicalAllocation => Err(StepError::Infeasible { certified: false }),
            Strategy::FullAlu => Ok(step.index),
            Strategy::OpcodeRestricted => Err(StepError::Infeasible { certified: false }),
        };
        let won = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                race_threads: Some(1),
                ..ExecControl::default()
            },
        )
        .expect("full-ALU must get its turn and win");
        assert_eq!(p.steps[won.step].strategy, Strategy::FullAlu);
    }

    #[test]
    fn uncertified_infeasibility_does_not_cancel_racing_siblings() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        // Canonical (a complete strategy) reports an *unchecked*
        // infeasibility instantly; full-ALU keeps racing and wins. A
        // certified verdict would have cancelled it.
        let runner = |step: &PlanStep, flag: Option<Arc<AtomicBool>>| match step.strategy {
            Strategy::CanonicalAllocation => Err(StepError::Infeasible { certified: false }),
            Strategy::FullAlu => {
                std::thread::sleep(Duration::from_millis(50));
                if flag.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    return Err(StepError::Cancelled);
                }
                Ok(step.index)
            }
            Strategy::OpcodeRestricted => Err(StepError::Timeout),
        };
        let won = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                race_threads: Some(3),
                ..ExecControl::default()
            },
        )
        .expect("full-ALU wins despite the unchecked verdict");
        assert_eq!(p.steps[won.step].strategy, Strategy::FullAlu);
    }

    #[test]
    fn external_cancel_stops_the_plan() {
        let p = plan(&inputs(3));
        let cancel = Arc::new(AtomicBool::new(true));
        let err = execute(
            &p,
            ok_at(1),
            certify_all,
            ExecControl {
                cancel: Some(cancel),
                ..ExecControl::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn resume_skips_completed_groups() {
        let p = plan(&inputs(4));
        let ran: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| {
            ran.lock().unwrap().push(step.index);
            if step.stages == 4 {
                Ok(step.index)
            } else {
                Err(StepError::Infeasible { certified: true })
            }
        };
        let won = execute(
            &p,
            runner,
            certify_all,
            ExecControl {
                resume_from: 2,
                ..ExecControl::default()
            },
        )
        .expect("wins");
        assert_eq!(p.steps[won.step].stages, 4);
        assert_eq!(*ran.lock().unwrap(), vec![2, 3], "steps 0 and 1 skipped");

        // A resumed strategies group skips its finished prefix too, raced
        // or not: step 0 (opcode-restricted) never runs again.
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(1)
        });
        for race_threads in [Some(3), Some(1)] {
            let ran: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| {
                ran.lock().unwrap().push(step.index);
                match step.strategy {
                    Strategy::CanonicalAllocation => Ok(step.index),
                    _ => Err(StepError::Timeout),
                }
            };
            let won = execute(
                &p,
                runner,
                certify_all,
                ExecControl {
                    resume_from: 1,
                    race_threads,
                    ..ExecControl::default()
                },
            )
            .expect("wins");
            assert_eq!(p.steps[won.step].strategy, Strategy::CanonicalAllocation);
            let ran = ran.into_inner().unwrap();
            assert!(!ran.contains(&0), "race_threads {race_threads:?}: {ran:?}");
        }
    }

    #[test]
    fn panicked_racing_step_is_reported_not_masked() {
        let portfolio = plan(&PlanInputs {
            portfolio: true,
            ..inputs(3)
        });
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| -> Result<usize, StepError> {
            if step.stages == 2 {
                panic!("injected depth-2 panic");
            }
            Err(StepError::Infeasible { certified: true })
        };
        // The default plan's solo steps are isolated the same way.
        for p in [&portfolio, &plan(&inputs(3))] {
            for race_threads in [Some(3), Some(1)] {
                let ctl = ExecControl {
                    race_threads,
                    ..ExecControl::default()
                };
                match execute(p, runner, certify_all, ctl).unwrap_err() {
                    ExecError::Internal(msg) => {
                        assert!(msg.contains("depth 2"), "{msg}");
                        assert!(msg.contains("injected depth-2 panic"), "{msg}");
                    }
                    other => {
                        panic!("race_threads {race_threads:?}: expected Internal, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn panic_does_not_mask_timeout_in_strategy_race() {
        let p = plan(&PlanInputs {
            portfolio: true,
            ..inputs(2)
        });
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| -> Result<usize, StepError> {
            if step.stages == 1 {
                panic!("injected depth-1 panic");
            }
            Err(StepError::Timeout)
        };
        for race_threads in [Some(3), Some(1)] {
            let ctl = ExecControl {
                race_threads,
                ..ExecControl::default()
            };
            let err = execute(&p, runner, certify_all, ctl).unwrap_err();
            assert_eq!(err, ExecError::Timeout, "race_threads {race_threads:?}");
        }
    }

    #[test]
    fn solo_uncertified_win_fails_the_plan() {
        let p = plan(&inputs(2));
        let certify = |_: &PlanStep, _: &usize| Err("diverges".to_string());
        let err = execute(&p, ok_at(1), certify, ExecControl::default()).unwrap_err();
        assert_eq!(err, ExecError::Uncertified("diverges".to_string()));
    }

    /// Tiny xorshift so the property sweep is deterministic without
    /// pulling in a dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn deadline_budget_is_monotone_never_zero_and_saturates() {
        let mut rng = 0x51ab_2026_u64;
        for _ in 0..500 {
            let lo_ms = xorshift(&mut rng) % 600_000;
            let hi_ms = lo_ms + xorshift(&mut rng) % 600_000;
            let explicit = ResourceBudget {
                conflicts: xorshift(&mut rng)
                    .is_multiple_of(2)
                    .then(|| 1 + xorshift(&mut rng) % 10_000_000),
                propagations: xorshift(&mut rng)
                    .is_multiple_of(2)
                    .then(|| 1 + xorshift(&mut rng) % 1_000_000_000),
                clause_bytes: xorshift(&mut rng)
                    .is_multiple_of(2)
                    .then(|| xorshift(&mut rng)),
            };
            let lo = budget_for_remaining(Duration::from_millis(lo_ms), explicit);
            let hi = budget_for_remaining(Duration::from_millis(hi_ms), explicit);

            // Never zero for a live deadline: even zero remaining time
            // buys the floor, so a near-expired job still does work and
            // gets cut by the wall-clock poll, not a zero budget.
            assert!(lo.conflicts.unwrap() >= 1);
            assert!(lo.propagations.unwrap() >= 1);

            // Monotone in remaining time.
            assert!(hi.conflicts.unwrap() >= lo.conflicts.unwrap());
            assert!(hi.propagations.unwrap() >= lo.propagations.unwrap());

            // Saturates at the explicit ceilings when both are set, and
            // never invents a clause-bytes cap.
            for b in [&lo, &hi] {
                if let Some(c) = explicit.conflicts {
                    assert!(b.conflicts.unwrap() <= c);
                }
                if let Some(p) = explicit.propagations {
                    assert!(b.propagations.unwrap() <= p);
                }
                assert_eq!(b.clause_bytes, explicit.clause_bytes);
            }
        }
        // Large remaining time with no explicit cap reaches exactly the
        // derived rate product (no overflow, no silent clamping).
        let wide = budget_for_remaining(Duration::from_secs(300), ResourceBudget::UNLIMITED);
        assert_eq!(wide.conflicts, Some(300 * DEADLINE_CONFLICTS_PER_SEC));
        assert_eq!(wide.propagations, Some(300 * DEADLINE_PROPAGATIONS_PER_SEC));
    }

    #[test]
    fn executor_tightens_step_budgets_under_a_deadline() {
        let p = plan(&inputs(1));
        let seen = Mutex::new(Vec::new());
        let runner = |step: &PlanStep, _: Option<Arc<AtomicBool>>| -> Result<usize, StepError> {
            seen.lock().unwrap().push(step.budget);
            Ok(step.index)
        };
        let ctl = ExecControl {
            deadline: Some(Instant::now() + Duration::from_secs(5)),
            ..ExecControl::default()
        };
        execute(&p, runner, certify_all, ctl).unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 1);
        // The plan said UNLIMITED, but the executed step carried derived
        // ceilings bounded by the 5s window.
        let b = seen[0];
        assert!(b.conflicts.unwrap() <= 5 * DEADLINE_CONFLICTS_PER_SEC);
        assert!(b.propagations.unwrap() <= 5 * DEADLINE_PROPAGATIONS_PER_SEC);
        // No deadline → budget untouched.
        let seen2 = Mutex::new(Vec::new());
        let runner2 = |step: &PlanStep, _: Option<Arc<AtomicBool>>| -> Result<usize, StepError> {
            seen2.lock().unwrap().push(step.budget);
            Ok(step.index)
        };
        execute(&p, runner2, certify_all, ExecControl::default()).unwrap();
        assert_eq!(seen2.into_inner().unwrap()[0], ResourceBudget::UNLIMITED);
    }
}
