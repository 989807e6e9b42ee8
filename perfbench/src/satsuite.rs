//! `sat-suite`: a frozen DIMACS suite solved by fresh solvers with proof
//! logging on, every answer checked (models against every clause, UNSAT
//! answers by the DRAT checker).
//!
//! For each corpus program the suite holds four instances, generated once
//! by `gen-suite` from public APIs only:
//!
//! * `synth` — the final synthesis query over the winner's counterexamples
//!   (SAT);
//! * `verify` — the verification miter with holes pinned to the certified
//!   winner (UNSAT);
//! * `perturbed` — the same miter pinned to a one-bit perturbation of the
//!   winner that changes its behaviour (SAT);
//! * `infeasible` — the depth-(k−1) infeasibility query taken from the
//!   shipped DRAT certificate (UNSAT); a one-stage program, which has no
//!   depth-0 query, uses a one-stage query with the Raw template instead.
//!
//! `suite/manifest.json` lists the files with their expected verdicts and
//! a content hash; the runner refuses a suite whose hash changed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chipmunk::cache::fnv1a64;
use chipmunk::cegis::validate_decoded;
use chipmunk::{compile, Certificate, CheckBudget, CheckOutcome, CodegenError, Sketch};
use chipmunk_bench::corpus::TemplateKind;
use chipmunk_bv::{assumption_lits, mk_true, Binding, Blaster, BvOp, TermId};
use chipmunk_lang::{Interpreter, PacketState};
use chipmunk_sat::{parse_dimacs, Cnf, Lit, SolveResult, Solver, SolverStats};
use chipmunk_trace::json::Json;

use crate::compile::{options, prepare, sketch_circuit, winning_sketch, Prepared, WIDTH};
use crate::stats::{geomean, mean, repeat_setup};
use crate::tap::Tap;
use crate::Outcome;

/// Proof-log byte limit, the synthesis solver's default.
const PROOF_BYTES: u64 = 64 << 20;
/// Propagation ceiling of one DRAT check.
const CHECK_PROPAGATIONS: u64 = 1_000_000_000;
/// Per-instance limit: an answer later than this is undecided.
const SOLVE_LIMIT: Duration = Duration::from_secs(20);
/// CEGIS seed the suite was generated with.
const GEN_SEED: u64 = 2019;

fn suite_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("suite")
}

/// One frozen instance.
pub struct Instance {
    pub file: String,
    pub class: String,
    pub expect_sat: bool,
    pub cnf: Cnf,
}

fn verdict_name(sat: bool) -> &'static str {
    if sat {
        "sat"
    } else {
        "unsat"
    }
}

/// One manifest entry with its text: file, class, expected verdict
/// (`true` for SAT) and DIMACS text.
type Entry = (String, String, bool, String);

/// Content hash over every instance's name, class, verdict and text.
fn suite_hash(entries: &[Entry]) -> String {
    let mut all = String::new();
    for (file, class, sat, text) in entries {
        all.push_str(&format!("{file}\n{class}\n{}\n", verdict_name(*sat)));
        all.push_str(text);
    }
    format!("{:016x}", fnv1a64(all.as_bytes()))
}

/// Read the suite's files, refusing them when their content hash changed.
fn read_suite() -> Result<Vec<Entry>, String> {
    let dir = suite_dir();
    let manifest = std::fs::read_to_string(dir.join("manifest.json"))
        .map_err(|e| format!("cannot read the suite manifest: {e}"))?;
    let doc = Json::parse(&manifest).map_err(|e| format!("bad manifest: {e}"))?;
    let list = doc
        .get("instances")
        .and_then(Json::as_arr)
        .ok_or("manifest has no instances")?;
    let mut entries = Vec::new();
    for inst in list {
        let s = |k: &str| {
            inst.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("manifest entry without `{k}`"))
        };
        let (file, class, expect) = (s("file")?, s("class")?, s("expect")?);
        let text = std::fs::read_to_string(dir.join(&file))
            .map_err(|e| format!("cannot read {file}: {e}"))?;
        entries.push((file, class, expect == "sat", text));
    }
    let want = doc.get("hash").and_then(Json::as_str).unwrap_or("");
    let got = suite_hash(&entries);
    if want != got {
        return Err(format!(
            "suite content hash is {got}, the manifest froze {want}: refusing a changed suite"
        ));
    }
    Ok(entries)
}

/// Parse every instance of a suite [`read_suite`] checked.
fn parse_suite(entries: &[Entry]) -> Result<Vec<Instance>, String> {
    entries
        .iter()
        .map(|(file, class, expect_sat, text)| {
            Ok(Instance {
                file: file.clone(),
                class: class.clone(),
                expect_sat: *expect_sat,
                cnf: parse_dimacs(text).map_err(|e| format!("{file}: {e}"))?,
            })
        })
        .collect()
}

/// Does the model satisfy every clause?
pub fn model_satisfies(cnf: &Cnf, value: impl Fn(Lit) -> Option<bool>) -> bool {
    cnf.clauses
        .iter()
        .all(|c| c.iter().any(|&l| value(l) == Some(true)))
}

/// One solve of one instance, with its output check.
pub struct Solved {
    /// `Some(true)` SAT, `Some(false)` UNSAT, `None` undecided.
    pub verdict: Option<bool>,
    pub time: Duration,
    pub stats: SolverStats,
    pub proof_bytes: u64,
    pub check_time: Duration,
    /// Why the answer is wrong or unchecked, if it is.
    pub error: Option<String>,
}

/// Solve `cnf` with a fresh proof-logging solver and check the answer
/// against `expect_sat`: a model must satisfy every clause, an UNSAT
/// answer must pass the DRAT check.
pub fn solve_and_check(cnf: &Cnf, expect_sat: bool) -> Solved {
    let t0 = Instant::now();
    let mut s = Solver::new();
    s.enable_proof(PROOF_BYTES);
    for _ in 0..cnf.num_vars {
        s.new_var();
    }
    for c in &cnf.clauses {
        s.add_clause(c.iter().copied());
    }
    s.set_deadline(Some(t0 + SOLVE_LIMIT));
    let res = s.solve(&[]);
    let time = t0.elapsed();
    let c0 = Instant::now();
    let (verdict, error) = match res {
        SolveResult::Unknown => (None, None),
        SolveResult::Sat if !expect_sat => (Some(true), Some("SAT, expected UNSAT".into())),
        SolveResult::Unsat if expect_sat => (Some(false), Some("UNSAT, expected SAT".into())),
        SolveResult::Sat => {
            let ok = model_satisfies(cnf, |l| s.lit_model_value(l));
            (Some(true), (!ok).then(|| "model falsifies a clause".into()))
        }
        SolveResult::Unsat => {
            let check = match s.certificate() {
                None => Some("no proof (log truncated)".into()),
                Some(cert) => match cert.check(&CheckBudget {
                    propagations: Some(CHECK_PROPAGATIONS),
                    account: None,
                }) {
                    CheckOutcome::Valid => None,
                    CheckOutcome::Invalid(why) => Some(format!("DRAT check failed: {why}")),
                    CheckOutcome::OutOfBudget => Some("DRAT check out of budget".into()),
                },
            };
            (Some(false), check)
        }
    };
    Solved {
        verdict,
        time,
        stats: s.stats(),
        proof_bytes: s.proof_bytes(),
        check_time: c0.elapsed(),
        error,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Solve every instance once, in suite order.
fn pass(suite: &[Instance]) -> Vec<Solved> {
    suite
        .iter()
        .map(|i| solve_and_check(&i.cnf, i.expect_sat))
        .collect()
}

/// Passes over the suite until `budget` has passed (at least one).
fn passes(suite: &[Instance], budget: Duration) -> Vec<Vec<Solved>> {
    let start = Instant::now();
    let mut all = Vec::new();
    while all.is_empty() || start.elapsed() < budget {
        all.push(pass(suite));
    }
    all
}

pub fn run(_seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    // The suite is frozen, so the seed has nothing to draw; every run
    // solves the same instances in the same order.
    let mut out = Outcome::default();
    // Reading the files and checking their hash is the benchmark's own
    // work; set-up is parsing the frozen DIMACS text.
    let entries = read_suite()?;
    let (suite, setup_s) = repeat_setup(|_| parse_suite(&entries))?;
    out.e2e("setup_s", setup_s);
    let budget = Duration::from_secs(seconds);
    let runs = passes(&suite, if traced { budget / 2 } else { budget });
    summarize(&mut out, &suite, &runs);
    if traced {
        let tap = Tap::install();
        let again: Vec<Vec<Solved>> = (0..runs.len()).map(|_| pass(&suite)).collect();
        drop(tap);
        for (a, b) in runs.iter().flatten().zip(again.iter().flatten()) {
            let key = |s: &Solved| (s.verdict, s.stats.conflicts, s.stats.propagations);
            if key(a) != key(b) {
                out.fail(format!(
                    "nondeterministic solver work: {:?} then {:?}",
                    key(a),
                    key(b)
                ));
            }
        }
        for (inst, s) in suite.iter().cycle().zip(again.iter().flatten()) {
            if let Some(e) = &s.error {
                out.fail(format!("{}: {e}", inst.file));
            }
        }
        out.attempted += again.iter().map(Vec::len).sum::<usize>() as u64;
        let total =
            |r: &[Vec<Solved>]| -> f64 { r.iter().flatten().map(|s| s.time.as_secs_f64()).sum() };
        let overhead: f64 = total(&again) / total(&runs) - 1.0;
        layers(&mut out, &suite, &again, overhead);
    }
    Ok(out)
}

fn summarize(out: &mut Outcome, suite: &[Instance], runs: &[Vec<Solved>]) {
    let mut ok = 0usize;
    let mut decided = 0usize;
    for run in runs {
        for (inst, s) in suite.iter().zip(run) {
            match &s.error {
                Some(e) => out.fail(format!("{}: {e}", inst.file)),
                None => {
                    ok += 1;
                    decided += s.verdict.is_some() as usize;
                }
            }
        }
    }
    let n = runs.len() * suite.len();
    out.attempted += n as u64;
    // Per instance, the fastest of its passes: every pass does the same
    // work, so the fastest is the one least disturbed by other load on the
    // machine.
    let per: Vec<f64> = (0..suite.len())
        .map(|i| {
            runs.iter()
                .map(|r| ms(r[i].time))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let pass_s: Vec<f64> = runs
        .iter()
        .map(|r| r.iter().map(|s| s.time.as_secs_f64()).sum())
        .collect();
    let geo = geomean(&per).unwrap_or(0.0);
    out.e2e("ok_share", ok as f64 / n as f64);
    out.e2e("goodput", decided as f64 / n as f64);
    out.e2e("geomean_ms", geo);
    out.e2e("mean_ms", mean(&per));
    out.detail("passes", runs.len() as f64, "count");
    out.detail(
        "suite_solve_s",
        pass_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    out.detail("suite_geomean_ms", geo, "ms");
    out.detail("error_rate", 1.0 - ok as f64 / n as f64, "1");
    for (inst, t) in suite.iter().zip(&per) {
        out.note(format!("{:40} {:5} {:9.2} ms", inst.file, inst.class, t));
    }
}

fn layers(out: &mut Outcome, suite: &[Instance], runs: &[Vec<Solved>], overhead: f64) {
    let all: Vec<(&Instance, &Solved)> = runs.iter().flat_map(|r| suite.iter().zip(r)).collect();
    let n = all.len() as f64;
    let sum = |f: &dyn Fn(&Solved) -> f64| all.iter().map(|(_, s)| f(s)).sum::<f64>();
    let solve_s = sum(&|s| s.time.as_secs_f64());
    let class_ms = |classes: &[&str]| {
        let t: Vec<f64> = all
            .iter()
            .filter(|(i, _)| classes.contains(&i.class.as_str()))
            .map(|(_, s)| ms(s.time))
            .collect();
        mean(&t)
    };
    let unsat: Vec<f64> = all
        .iter()
        .filter(|(_, s)| s.verdict == Some(false))
        .map(|(_, s)| ms(s.check_time))
        .collect();
    out.layer("sat.conflicts", sum(&|s| s.stats.conflicts as f64) / n);
    out.layer(
        "sat.propagations",
        sum(&|s| s.stats.propagations as f64) / n,
    );
    out.layer("sat.decisions", sum(&|s| s.stats.decisions as f64) / n);
    out.layer(
        "sat.props_per_s",
        sum(&|s| s.stats.propagations as f64) / solve_s,
    );
    out.layer(
        "sat.conflicts_per_s",
        sum(&|s| s.stats.conflicts as f64) / solve_s,
    );
    out.layer("sat.synth_ms", class_ms(&["synth"]));
    out.layer("sat.verify_ms", class_ms(&["verify", "perturbed"]));
    out.layer("sat.unsat_ms", class_ms(&["infeasible"]));
    out.layer("sat.proof_bytes", sum(&|s| s.proof_bytes as f64) / n);
    out.layer("sat.drat_check_ms", mean(&unsat));
    out.layer("trace.overhead", overhead);
}

// ---------------------------------------------------------------------
// Generation (`gen-suite`), run once; the output is committed.

/// The CNF a proof-logging solver was given, read back off its log.
fn cnf_of(s: &Solver) -> Cnf {
    let cert = s
        .certificate()
        .expect("proof logging is on and untruncated");
    Cnf {
        num_vars: cert.num_vars as usize,
        clauses: cert.clauses,
    }
}

fn logging_solver() -> (Solver, Lit) {
    let mut s = Solver::new();
    s.enable_proof(u64::MAX);
    let tru = mk_true(&mut s);
    (s, tru)
}

/// The synthesis query over `inputs`: shared hole bits, one copy of the
/// sketch per input with outputs pinned to the interpreter's answer.
fn synth_query(p: &Prepared, sketch: &Sketch, inputs: &[PacketState]) -> Cnf {
    let mut sc = sketch_circuit(p, sketch);
    let outs = sketch.symbolic(&mut sc.c, &sc.holes, &sc.fields, &sc.states);
    let interp = Interpreter::new(&p.prog, WIDTH);
    let (mut s, tru) = logging_solver();
    let bits = sketch.fresh_hole_bits(&mut Blaster::new(&mut s, tru));
    let bind_inputs = |b: &mut Blaster<'_>, inp: &PacketState| {
        sketch.bind_holes(&sc.c, &sc.holes, &bits, b);
        for (t, v) in sc.fields.iter().zip(&inp.fields) {
            b.bind(sc.c.input_id(*t), Binding::Const(*v));
        }
        for (t, v) in sc.states.iter().zip(&inp.states) {
            b.bind(sc.c.input_id(*t), Binding::Const(*v));
        }
    };
    if !outs.constraints.is_empty() {
        let mut b = Blaster::new(&mut s, tru);
        bind_inputs(&mut b, &PacketState::zeroed(&p.prog));
        for &ct in &outs.constraints {
            b.assert_term(&sc.c, ct);
        }
    }
    for inp in inputs {
        let want = interp.exec(inp);
        let mut b = Blaster::new(&mut s, tru);
        bind_inputs(&mut b, inp);
        for (terms, values) in [
            (&outs.field_outs, &want.fields),
            (&outs.state_outs, &want.states),
        ] {
            for (&t, &v) in terms.iter().zip(values) {
                for (k, lit) in b.blast(&sc.c, t).into_iter().enumerate() {
                    b.assert_bit(lit, (v >> k) & 1 == 1);
                }
            }
        }
    }
    cnf_of(&s)
}

/// The sketch-vs-spec miter with every hole pinned to `holes`.
fn pinned_miter(p: &Prepared, sketch: &Sketch, holes: &[u64]) -> Cnf {
    let mut sc = sketch_circuit(p, sketch);
    let outs = sketch.symbolic(&mut sc.c, &sc.holes, &sc.fields, &sc.states);
    let spec = chipmunk_lang::spec::compile_spec(&p.prog, &mut sc.c, &sc.fields, &sc.states);
    let diffs: Vec<TermId> = outs
        .field_outs
        .iter()
        .zip(&spec.field_outs)
        .chain(outs.state_outs.iter().zip(&spec.state_outs))
        .map(|(&a, &b)| sc.c.binop(BvOp::Ne, a, b))
        .collect();
    let (mut s, tru) = logging_solver();
    let bits = {
        let mut b = Blaster::new(&mut s, tru);
        let bits = sketch.fresh_hole_bits(&mut b);
        sketch.bind_holes(&sc.c, &sc.holes, &bits, &mut b);
        b.assert_any(&sc.c, &diffs);
        for &t in sc.fields.iter().chain(&sc.states) {
            b.blast(&sc.c, t);
        }
        bits
    };
    for (b, &v) in bits.iter().zip(holes) {
        for l in assumption_lits(b, v) {
            s.add_clause([l]);
        }
    }
    cnf_of(&s)
}

/// The first single-bit flip of the winner that changes its behaviour.
fn perturb(p: &Prepared, sketch: &Sketch, holes: &[u64]) -> Option<Vec<u64>> {
    for (i, h) in sketch.holes().iter().enumerate() {
        for k in 0..h.bits {
            let mut flipped = holes.to_vec();
            flipped[i] ^= 1 << k;
            let differs = std::panic::catch_unwind(|| {
                validate_decoded(&p.prog, sketch, &sketch.decode(&flipped), WIDTH, 512, 7).is_some()
            });
            if matches!(differs, Ok(true)) {
                return Some(flipped);
            }
        }
    }
    None
}

/// The depth-(k−1) UNSAT query, from the certificate an infeasible compile
/// ships. One-stage programs use the plain read-add-write template at one
/// stage instead, which none of them fits.
fn infeasible_query(p: &Prepared, stages: usize) -> Result<Cnf, String> {
    let mut opts = options(&p.bench, GEN_SEED);
    opts.cegis.budget = chipmunk::ResourceBudget::UNLIMITED;
    if stages >= 2 {
        opts.max_stages = stages - 1;
    } else {
        opts.stateful = TemplateKind::Raw.spec(crate::compile::IMM);
        opts.max_stages = 1;
    }
    let cert = match compile(&p.prog, &opts) {
        Err(CodegenError::Infeasible(cert)) => cert,
        Ok(_) => return Err("the shallower grid unexpectedly fits".into()),
        Err(e) => return Err(format!("expected infeasible, got {e}")),
    };
    let text = cert.proof.ok_or("infeasible verdict shipped no proof")?;
    let cert = Certificate::parse(&text)?;
    let mut clauses = cert.clauses;
    clauses.extend(cert.hypotheses.iter().map(|&h| vec![h]));
    Ok(Cnf {
        num_vars: cert.num_vars as usize,
        clauses,
    })
}

/// Generate the suite into `perfbench/suite` with its manifest.
pub fn generate() -> Result<(), String> {
    let dir = suite_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for p in prepare() {
        let name = p.bench.name;
        let mut opts = options(&p.bench, GEN_SEED);
        opts.cegis.budget = chipmunk::ResourceBudget::UNLIMITED;
        let t0 = Instant::now();
        let out = compile(&p.prog, &opts).map_err(|e| format!("{name}: {e}"))?;
        crate::compile::check_success(&p, &opts, &out)?;
        eprintln!(
            "{name}: {} stage(s) in {:.1?}",
            out.grid.stages,
            t0.elapsed()
        );
        let sketch = winning_sketch(&p, &out)?;
        let mut inputs = vec![PacketState::zeroed(&p.prog)];
        inputs.extend(out.counterexamples.iter().cloned());
        let flipped = perturb(&p, &sketch, &out.hole_values)
            .ok_or(format!("{name}: no single-bit flip changes the winner"))?;
        let queries = [
            ("synth", true, synth_query(&p, &sketch, &inputs)),
            ("verify", false, pinned_miter(&p, &sketch, &out.hole_values)),
            ("perturbed", true, pinned_miter(&p, &sketch, &flipped)),
            (
                "infeasible",
                false,
                infeasible_query(&p, out.grid.stages).map_err(|e| format!("{name}: {e}"))?,
            ),
        ];
        for (class, sat, cnf) in queries {
            // Each instance must have the verdict the manifest will claim.
            let solved = solve_and_check(&cnf, sat);
            if let Some(e) = solved
                .error
                .or(solved.verdict.is_none().then(|| "undecided".into()))
            {
                return Err(format!("{name} {class}: {e}"));
            }
            let file = format!("{name}.{class}.cnf");
            let text = cnf.to_dimacs();
            std::fs::write(dir.join(&file), &text).map_err(|e| e.to_string())?;
            eprintln!(
                "  {file}: {} vars, {} clauses, {} in {:.1?}",
                cnf.num_vars,
                cnf.clauses.len(),
                verdict_name(sat),
                solved.time
            );
            entries.push((file, class.to_string(), sat, text));
        }
    }
    let instances: Vec<Json> = entries
        .iter()
        .map(|(file, class, sat, _)| {
            Json::obj([
                ("file", Json::from(file.as_str())),
                ("class", Json::from(class.as_str())),
                ("expect", Json::from(verdict_name(*sat))),
            ])
        })
        .collect();
    let manifest = Json::obj([
        ("hash", Json::from(suite_hash(&entries))),
        ("width", Json::from(WIDTH)),
        ("cegis_seed", Json::from(GEN_SEED)),
        ("instances", Json::Arr(instances)),
    ]);
    std::fs::write(dir.join("manifest.json"), manifest.to_pretty() + "\n")
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnf(num_vars: usize, clauses: &[&[i32]]) -> Cnf {
        let text = format!(
            "p cnf {num_vars} {}\n{}",
            clauses.len(),
            clauses
                .iter()
                .map(|c| format!(
                    "{} 0\n",
                    c.iter().map(i32::to_string).collect::<Vec<_>>().join(" ")
                ))
                .collect::<String>()
        );
        parse_dimacs(&text).unwrap()
    }

    #[test]
    fn model_check_rejects_a_falsified_clause() {
        let f = cnf(2, &[&[1, 2], &[-1]]);
        let model = |l: Lit| Some(l.is_neg() == (l.var().index() == 0));
        assert!(model_satisfies(&f, model));
        let wrong = |l: Lit| Some(!l.is_neg());
        assert!(!model_satisfies(&f, wrong));
        // An unassigned literal satisfies nothing.
        assert!(!model_satisfies(&f, |_| None));
    }

    #[test]
    fn verdicts_are_checked_against_the_expectation() {
        let sat = cnf(2, &[&[1, 2], &[-1, 2]]);
        let unsat = cnf(1, &[&[1], &[-1]]);
        let ok = solve_and_check(&sat, true);
        assert_eq!((ok.verdict, ok.error.is_none()), (Some(true), true));
        let ok = solve_and_check(&unsat, false);
        assert_eq!((ok.verdict, ok.error.is_none()), (Some(false), true));
        // A wrong expectation is an error in either direction.
        assert!(solve_and_check(&sat, false).error.is_some());
        assert!(solve_and_check(&unsat, true).error.is_some());
    }

    #[test]
    fn unsat_answers_pass_the_drat_check() {
        // Pigeonhole 3 into 2: UNSAT with a non-trivial proof.
        let php = cnf(
            6,
            &[
                &[1, 2],
                &[3, 4],
                &[5, 6],
                &[-1, -3],
                &[-1, -5],
                &[-3, -5],
                &[-2, -4],
                &[-2, -6],
                &[-4, -6],
            ],
        );
        let s = solve_and_check(&php, false);
        assert_eq!(s.verdict, Some(false));
        assert!(s.error.is_none(), "{:?}", s.error);
    }

    #[test]
    fn a_changed_suite_hashes_differently() {
        let e = |text: &str, sat: bool| {
            vec![(
                "a.cnf".to_string(),
                "synth".to_string(),
                sat,
                text.to_string(),
            )]
        };
        let h = suite_hash(&e("p cnf 1 1\n1 0\n", true));
        assert_eq!(h, suite_hash(&e("p cnf 1 1\n1 0\n", true)));
        assert_ne!(h, suite_hash(&e("p cnf 1 1\n-1 0\n", true)));
        assert_ne!(h, suite_hash(&e("p cnf 1 1\n1 0\n", false)));
    }
}
