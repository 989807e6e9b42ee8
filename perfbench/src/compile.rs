//! `corpus-compile`: the 8 Table 2 programs, each compiled fresh
//! in-process under CEGIS seeds drawn from the workload seed, one job at a
//! time on one thread, every result certified.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chipmunk::cegis::validate_decoded;
use chipmunk::plan::{StepOutcome, StepReport};
use chipmunk::{
    certify_success, compile_with_control, CegisStats, CodegenError, CodegenSuccess,
    CompilerOptions, PlanControl, ResourceBudget, Sketch, SketchOptions,
};
use chipmunk_bench::corpus::{corpus, Benchmark};
use chipmunk_bv::{Blaster, Circuit, TermId};
use chipmunk_lang::Program;
use chipmunk_pisa::StatelessAluSpec;
use chipmunk_trace::rng::Xoshiro256;

use crate::stats::{geomean, mean, peak_rss_mb, repeat_setup, restart_peak_rss};
use crate::tap::{SatTotals, Tap};
use crate::Outcome;

/// Compile settings of the workload (the Table 2 configuration).
pub const WIDTH: u8 = 10;
pub const IMM: u8 = 4;
pub const SCREEN: u8 = 5;
pub const MAX_STAGES: usize = 4;

/// The per-job limit: a job-wide ceiling on unit propagations (synthesis,
/// verification and proof checking together). A work ceiling rather than
/// a wall-clock one keeps every job's outcome a function of its seed, so
/// work counters repeat exactly. When the benchmark was written, a
/// two-stage program reached it after 0.3–1 s on a 2-core x86-64 machine,
/// undecided on every recorded seed, while the one-stage programs decide
/// well below it. On the two-stage programs this workload therefore
/// measures how fast the compiler spends a fixed amount of solver work,
/// not how much search their compile needs.
pub const JOB_PROPAGATIONS: u64 = 1_000_000;

/// Programs compiled once during set-up, before anything is timed.
const WARM_UP: [&str; 4] = ["rcp", "stateful-firewall", "sampling", "detect-new-flows"];

/// Random packets replayed through the interpreter and the configured
/// pipeline for every result, on top of certification.
const VALIDATE_SAMPLES: usize = 256;

/// One corpus program, parsed and hash-eliminated.
pub struct Prepared {
    pub bench: Benchmark,
    pub prog: Program,
}

pub fn prepare() -> Vec<Prepared> {
    corpus()
        .into_iter()
        .map(|bench| Prepared {
            prog: bench.program(),
            bench,
        })
        .collect()
}

pub fn options(b: &Benchmark, cegis_seed: u64) -> CompilerOptions {
    let mut o = CompilerOptions::new(b.template.spec(IMM));
    o.stateless = StatelessAluSpec::banzai(IMM);
    o.max_stages = MAX_STAGES;
    o.cegis.verify_width = WIDTH;
    o.cegis.screen_width = Some(SCREEN);
    o.cegis.seed = cegis_seed;
    o.cegis.budget = ResourceBudget {
        propagations: Some(JOB_PROPAGATIONS),
        ..ResourceBudget::UNLIMITED
    };
    o
}

/// What one compile job produced.
pub struct Job {
    pub program: usize,
    pub seed: u64,
    pub wall: Duration,
    /// Decided within the limit.
    pub decided: bool,
    /// Why the output failed its checks, if it did.
    pub error: Option<String>,
    pub stages: usize,
    pub alus: usize,
    pub stats: CegisStats,
    pub steps: Vec<StepReport>,
    pub certify: Duration,
    pub blast: Option<BlastStats>,
    /// Solver work of the job's `sat.solve` spans; counted under a tap only.
    pub sat: SatTotals,
    /// Peak resident set while the job compiled, in MiB.
    pub rss_mb: f64,
}

impl Job {
    /// Work counters that must repeat exactly for the same code and seed:
    /// the depth and outcome of every plan step, the code's size, the CEGIS
    /// counters, the `bv` size and the solver work. A job the limit cut has
    /// no CEGIS counters or code, but still has its steps and solver work.
    pub fn signature(&self) -> Vec<u64> {
        let s = &self.stats;
        let blast = self.blast.unwrap_or_default();
        let mut sig = vec![
            self.decided as u64,
            self.stages as u64,
            self.alus as u64,
            s.iterations as u64,
            s.synth_conflicts,
            s.synth_propagations,
            s.verify_conflicts,
            s.verify_propagations,
            blast.clauses,
            self.sat.solves,
            self.sat.conflicts,
            self.sat.decisions,
            self.sat.propagations,
        ];
        sig.extend(
            self.steps
                .iter()
                .flat_map(|r| [r.stages as u64, r.outcome as u64]),
        );
        sig
    }
}

/// Size and time of bit-blasting a winner's symbolic sketch circuit.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlastStats {
    pub time: Duration,
    pub clauses: u64,
    pub vars: u64,
}

/// Compile one job and check its output. Under a `tap` the job also
/// records its solver work and bit-blasts the winning sketch for the `bv`
/// layer metrics.
pub fn run_job(p: &Prepared, index: usize, seed: u64, tap: Option<&Tap>) -> Job {
    let opts = options(&p.bench, seed);
    let steps: Mutex<Vec<StepReport>> = Mutex::new(Vec::new());
    let observe = |r: &StepReport| steps.lock().expect("observer lock").push(*r);
    if let Some(t) = tap {
        t.take();
    }
    restart_peak_rss();
    let t0 = Instant::now();
    let res = compile_with_control(
        &p.prog,
        &opts,
        PlanControl {
            observer: Some(&observe),
            ..PlanControl::default()
        },
    );
    let wall = t0.elapsed();
    let rss_mb = peak_rss_mb();
    let mut job = Job {
        program: index,
        seed,
        wall,
        decided: false,
        error: None,
        stages: 0,
        alus: 0,
        stats: CegisStats::default(),
        steps: steps.into_inner().expect("observer lock"),
        certify: Duration::ZERO,
        blast: None,
        sat: SatTotals::default(),
        rss_mb,
    };
    match res {
        Ok(out) => {
            job.decided = true;
            job.stages = out.grid.stages;
            job.alus = out.resources.total_alus;
            job.stats = out.stats;
            let c0 = Instant::now();
            job.error = check_success(p, &opts, &out).err();
            job.certify = c0.elapsed();
            if tap.is_some() && job.error.is_none() {
                job.blast = Some(blast_winner(p, &out));
            }
        }
        // The per-job limit was hit: undecided, not wrong.
        Err(CodegenError::Timeout) => {}
        Err(e) => job.error = Some(format!("{}: {e}", p.bench.name)),
    }
    if let Some(t) = tap {
        job.sat = t.take();
    }
    job
}

/// Certify a result and replay random packets through it against the
/// interpreter.
pub fn check_success(
    p: &Prepared,
    opts: &CompilerOptions,
    out: &CodegenSuccess,
) -> Result<(), String> {
    let name = p.bench.name;
    certify_success(&p.prog, opts, out).map_err(|e| format!("{name}: uncertified: {e}"))?;
    if out.grid.stages > MAX_STAGES {
        return Err(format!("{name}: {} stages exceed the cap", out.grid.stages));
    }
    let sketch = winning_sketch(p, out)?;
    match validate_decoded(
        &p.prog,
        &sketch,
        &out.decoded,
        WIDTH,
        VALIDATE_SAMPLES,
        opts.cegis.seed ^ 0x5eed,
    ) {
        None => Ok(()),
        Some(inp) => Err(format!("{name}: diverges from the interpreter on {inp:?}")),
    }
}

/// The sketch the default solo plan's winner was synthesized against.
pub fn winning_sketch(p: &Prepared, out: &CodegenSuccess) -> Result<Sketch, String> {
    Sketch::new(
        out.grid.clone(),
        p.prog.field_names().len(),
        p.prog.state_names().len(),
        SketchOptions::default(),
    )
    .map_err(|e| format!("{}: winning sketch: {e:?}", p.bench.name))
}

/// A circuit with one free input per hole, packet field and state
/// variable, as `Sketch::symbolic` takes them.
pub struct SketchCircuit {
    pub c: Circuit,
    pub holes: Vec<TermId>,
    pub fields: Vec<TermId>,
    pub states: Vec<TermId>,
}

pub fn sketch_circuit(p: &Prepared, sketch: &Sketch) -> SketchCircuit {
    let mut c = Circuit::new(WIDTH);
    let mut inputs = |prefix: &str, n: usize| -> Vec<TermId> {
        (0..n).map(|i| c.input(&format!("{prefix}{i}"))).collect()
    };
    let holes = inputs("hole", sketch.holes().len());
    let fields = inputs("pkt", p.prog.field_names().len());
    let states = inputs("state", p.prog.state_names().len());
    SketchCircuit {
        c,
        holes,
        fields,
        states,
    }
}

/// Bit-blast the winner's `Sketch::symbolic` circuit with free holes and
/// inputs: the size of one CEGIS instance of this program.
fn blast_winner(p: &Prepared, out: &CodegenSuccess) -> BlastStats {
    let Ok(sketch) = winning_sketch(p, out) else {
        return BlastStats::default();
    };
    let mut sc = sketch_circuit(p, &sketch);
    let outs = sketch.symbolic(&mut sc.c, &sc.holes, &sc.fields, &sc.states);
    let t0 = Instant::now();
    let mut solver = chipmunk_sat::Solver::new();
    let tru = chipmunk_bv::mk_true(&mut solver);
    let mut b = Blaster::new(&mut solver, tru);
    for &t in outs
        .field_outs
        .iter()
        .chain(&outs.state_outs)
        .chain(&outs.constraints)
    {
        std::hint::black_box(b.blast(&sc.c, t));
    }
    drop(b);
    BlastStats {
        time: t0.elapsed(),
        clauses: solver.num_clauses() as u64,
        vars: solver.num_vars() as u64,
    }
}

/// The job list: round-robin over the corpus in Table 2 order, one CEGIS
/// seed per job drawn from the workload seed.
pub struct Schedule {
    rng: Xoshiro256,
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        Schedule {
            rng: Xoshiro256::seed_from_u64(seed ^ 0xc0de_c0de),
        }
    }

    pub fn round(&mut self) -> Vec<u64> {
        (0..corpus().len()).map(|_| self.rng.next_u64()).collect()
    }
}

/// Run whole rounds, untapped, until `budget` has passed (at least one).
pub fn run_rounds(progs: &[Prepared], seed: u64, budget: Duration) -> Vec<Job> {
    let mut sched = Schedule::new(seed);
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.is_empty() || start.elapsed() < budget {
        for (i, s) in sched.round().into_iter().enumerate() {
            jobs.push(run_job(&progs[i], i, s, None));
        }
    }
    jobs
}

/// Re-run exactly the jobs of an earlier pass under `tap`.
fn rerun(progs: &[Prepared], jobs: &[Job], tap: &Tap) -> Vec<Job> {
    jobs.iter()
        .map(|j| run_job(&progs[j.program], j.program, j.seed, Some(tap)))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: parse and hash-eliminate the corpus, plan every program, and
    // warm up with one fixed-seed compile of each one-stage program.
    let (progs, setup_s) = repeat_setup(|_| {
        let progs = prepare();
        for (i, p) in progs.iter().enumerate() {
            let opts = options(&p.bench, 0);
            std::hint::black_box(chipmunk::plan_compilation(&p.prog, &opts).ok());
            if WARM_UP.contains(&p.bench.name) {
                if let Some(e) = run_job(p, i, 1, None).error {
                    return Err(format!("set-up compile: {e}"));
                }
            }
        }
        Ok(progs)
    })?;
    out.e2e("setup_s", setup_s);

    // Traced, a third of the time runs untraced and its jobs then run twice
    // under the tap: the first traced pass gives the layer metrics, and the
    // second must repeat its work counters exactly.
    let budget = Duration::from_secs(seconds);
    let jobs = run_rounds(&progs, seed, if traced { budget / 3 } else { budget });
    summarize(&mut out, &jobs);

    if traced {
        let tap = Tap::install();
        let first = rerun(&progs, &jobs, &tap);
        let second = rerun(&progs, &jobs, &tap);
        drop(tap);
        for (a, b) in first.iter().zip(&second) {
            if a.signature() != b.signature() {
                out.fail(format!(
                    "nondeterministic work counters: {} seed {:#x}: {:?} then {:?}",
                    progs[a.program].bench.name,
                    a.seed,
                    a.signature(),
                    b.signature()
                ));
            }
        }
        for j in first.iter().chain(&second) {
            if let Some(e) = &j.error {
                out.fail(e.clone());
            }
        }
        out.attempted += (first.len() + second.len()) as u64;
        let wall = |js: &[Job]| js.iter().map(|j| j.wall.as_secs_f64()).sum::<f64>();
        layers(&mut out, &first, wall(&first) / wall(&jobs) - 1.0);
    }
    Ok(out)
}

fn summarize(out: &mut Outcome, jobs: &[Job]) {
    let n = jobs.len() as f64;
    let walls: Vec<f64> = jobs.iter().map(|j| ms(j.wall)).collect();
    let ok = jobs.iter().filter(|j| j.error.is_none()).count() as f64;
    let decided = jobs
        .iter()
        .filter(|j| j.decided && j.error.is_none())
        .count() as f64;
    for j in jobs {
        if let Some(e) = &j.error {
            out.fail(e.clone());
        }
    }
    out.attempted += jobs.len() as u64;
    let rounds = n / corpus().len() as f64;
    let geo = geomean(&walls).unwrap_or(0.0);
    out.e2e("ok_share", ok / n);
    out.e2e("goodput", decided / n);
    out.e2e("geomean_ms", geo);
    out.e2e("mean_ms", mean(&walls));
    let sum = |f: fn(&Job) -> usize| jobs.iter().map(f).sum::<usize>() as f64 / rounds;
    out.detail("jobs", n, "count");
    out.detail("compile_geomean_ms", geo, "ms");
    out.detail(
        "compile_total_s",
        walls.iter().sum::<f64>() / 1e3 / rounds,
        "s",
    );
    out.detail("decided_share", decided / n, "1");
    out.detail("stages_sum", sum(|j| j.stages), "count");
    out.detail("alus_sum", sum(|j| j.alus), "count");
    out.detail("error_rate", 1.0 - ok / n, "1");
    // Per program, so a reader can see which programs the limit cut.
    let mut per: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for j in jobs {
        per.entry(j.program).or_default().push(ms(j.wall));
    }
    // Memory: the mean over jobs of each job's own peak. How much a job
    // needs depends on its trajectory, so one run's largest job, or even
    // one program's median job, moves by 40% between seeds.
    out.e2e(
        "peak_rss_mb",
        mean(&jobs.iter().map(|j| j.rss_mb).collect::<Vec<_>>()),
    );
    let names = corpus();
    for (p, w) in per {
        out.note(format!(
            "{:20} jobs {:3}  geomean {:9.1} ms",
            names[p].name,
            w.len(),
            geomean(&w).unwrap_or(0.0)
        ));
    }
}

fn layers(out: &mut Outcome, jobs: &[Job], overhead: f64) {
    let n = jobs.len() as f64;
    let mut sat = SatTotals::default();
    for j in jobs {
        sat.add(&j.sat);
    }
    let decided: Vec<&Job> = jobs.iter().filter(|j| j.decided).collect();
    let nd = decided.len().max(1) as f64;
    let per_job = |x: f64| x / n;
    let solve_s = sat.solve_us as f64 / 1e6;
    out.layer("sat.conflicts", per_job(sat.conflicts as f64));
    out.layer("sat.propagations", per_job(sat.propagations as f64));
    out.layer("sat.decisions", per_job(sat.decisions as f64));
    out.layer(
        "sat.props_per_s",
        sat.propagations as f64 / solve_s.max(1e-9),
    );
    out.layer(
        "sat.conflicts_per_s",
        sat.conflicts as f64 / solve_s.max(1e-9),
    );
    out.layer("sat.synth_ms", per_job(sat.synth_us as f64 / 1e3));
    out.layer("sat.verify_ms", per_job(sat.verify_us as f64 / 1e3));
    out.layer("sat.unsat_ms", per_job(sat.unsat_us as f64 / 1e3));

    let dsum = |f: &dyn Fn(&Job) -> f64| decided.iter().map(|j| f(j)).sum::<f64>() / nd;
    let blast = |j: &Job| j.blast.unwrap_or_default();
    out.layer("bv.blast_ms", dsum(&|j| ms(blast(j).time)));
    out.layer("bv.clauses", dsum(&|j| blast(j).clauses as f64));
    out.layer("bv.vars", dsum(&|j| blast(j).vars as f64));

    let synth = dsum(&|j| ms(j.stats.synth_time));
    let verify = dsum(&|j| ms(j.stats.verify_time));
    out.layer("cegis.iterations", dsum(&|j| j.stats.iterations as f64));
    out.layer(
        "cegis.counterexamples",
        dsum(&|j| j.stats.counterexamples as f64),
    );
    out.layer("cegis.synth_ms", synth);
    out.layer("cegis.verify_ms", verify);
    out.layer("cegis.synth_share", synth / (synth + verify).max(1e-9));
    out.layer(
        "cegis.synth_conflicts",
        dsum(&|j| j.stats.synth_conflicts as f64),
    );
    out.layer(
        "cegis.verify_conflicts",
        dsum(&|j| j.stats.verify_conflicts as f64),
    );

    let steps_ms = |j: &Job| j.steps.iter().map(|s| ms(s.elapsed)).sum::<f64>();
    out.layer(
        "plan.steps",
        jobs.iter().map(|j| j.steps.len() as f64).sum::<f64>() / n,
    );
    // Time in the steps that proved their depth infeasible: the
    // depth-(k-1) step of a k-stage winner, and the shallower depths of a
    // job the limit cut.
    out.layer(
        "plan.infeasible_step_ms",
        jobs.iter()
            .flat_map(|j| &j.steps)
            .filter(|s| s.outcome == StepOutcome::Infeasible)
            .map(|s| ms(s.elapsed))
            .sum::<f64>()
            / n,
    );
    out.layer(
        "plan.overhead_ms",
        jobs.iter().map(|j| ms(j.wall) - steps_ms(j)).sum::<f64>() / n,
    );
    out.layer("certify.ms", dsum(&|j| ms(j.certify)));
    out.layer(
        "code.stages_sum",
        jobs.iter().map(|j| j.stages as f64).sum::<f64>(),
    );
    out.layer(
        "code.alus_sum",
        jobs.iter().map(|j| j.alus as f64).sum::<f64>(),
    );
    out.layer("trace.overhead", overhead);
}
