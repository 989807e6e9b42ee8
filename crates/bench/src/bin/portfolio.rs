//! Portfolio racing vs. fixed-strategy plans: wall-clock over the
//! 8-benchmark corpus (EXPERIMENTS.md "Portfolio racing" table).
//!
//! Three plans per program, same options otherwise:
//!
//!   canonical    the default solo plan — one canonical-allocation step
//!                per depth, smallest-first (the historic escalation loop)
//!   full-alu     the same schedule with field canonicalization off
//!                (`sketch.canonical_fields = false`)
//!   portfolio    `--portfolio`: per depth, opcode-restricted ×
//!                canonical-allocation × full-alu race and the first
//!                *certified* win cancels the rest
//!
//! Opcode-restricted has no solo row: it is incomplete (a program needing
//! comparisons is Infeasible under the arithmetic-only spec), so the
//! planner only ever runs it inside a racing group where a loss is
//! non-authoritative.
//!
//! Every winner — portfolio included — is independently re-checked with
//! `chipmunk::certify::certify_success`; an uncertified result fails the
//! whole run. The binary exits non-zero if portfolio loses to the best
//! single fixed strategy on corpus-total wall-clock.
//!
//! Usage:
//!   portfolio [--width BITS] [--max-stages K] [--timeout SECS] [--seed S]
//!             [--program NAME]...

use std::sync::Mutex;
use std::time::{Duration, Instant};

use chipmunk::plan::{StepOutcome, StepReport};
use chipmunk::{compile_with_control, CegisOptions, CompilerOptions, PlanControl};
use chipmunk_bench::corpus::{corpus, Benchmark};
use chipmunk_pisa::StatelessAluSpec;

struct Config {
    verify_width: u8,
    max_stages: usize,
    timeout_secs: u64,
    seed: u64,
    programs: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            verify_width: 10,
            max_stages: 4,
            timeout_secs: 120,
            seed: 2019,
            programs: Vec::new(),
        }
    }
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--width" => cfg.verify_width = val("--width").parse().expect("width"),
            "--max-stages" => cfg.max_stages = val("--max-stages").parse().expect("max-stages"),
            "--timeout" => cfg.timeout_secs = val("--timeout").parse().expect("timeout"),
            "--seed" => cfg.seed = val("--seed").parse().expect("seed"),
            "--program" => cfg.programs.push(val("--program")),
            other => panic!("unknown argument `{other}`"),
        }
    }
    cfg
}

fn options(b: &Benchmark, cfg: &Config) -> CompilerOptions {
    CompilerOptions {
        max_stages: cfg.max_stages,
        slots: None,
        stateful: b.template.spec(4),
        stateless: StatelessAluSpec::banzai(4),
        sketch: Default::default(),
        cegis: CegisOptions {
            verify_width: cfg.verify_width,
            screen_width: Some(5),
            synth_input_bits: 5,
            num_initial_inputs: 4,
            max_iters: 256,
            seed: cfg.seed ^ 0xc0ffee,
            ..CegisOptions::default()
        },
        timeout: Some(Duration::from_secs(cfg.timeout_secs)),
        portfolio: false,
    }
}

struct Cell {
    seconds: f64,
    stages: usize,
    /// Strategy of the winning step (interesting in portfolio mode).
    winner: &'static str,
}

/// One compile under `opts`, certified, with the winning step's strategy
/// captured via the plan observer.
fn run(name: &str, label: &str, opts: &CompilerOptions) -> Cell {
    let b = corpus()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark exists");
    let prog = b.program();
    let winner: Mutex<Option<StepReport>> = Mutex::new(None);
    let obs = |r: &StepReport| {
        if r.outcome == StepOutcome::Success {
            *winner.lock().unwrap() = Some(*r);
        }
    };
    let t0 = Instant::now();
    let out = compile_with_control(
        &prog,
        opts,
        PlanControl {
            observer: Some(&obs),
            ..PlanControl::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name} [{label}]: compile failed: {e}"));
    let seconds = t0.elapsed().as_secs_f64();
    chipmunk::certify::certify_success(&prog, opts, &out)
        .unwrap_or_else(|e| panic!("{name} [{label}]: UNCERTIFIED winner: {e}"));
    let winner = winner
        .lock()
        .unwrap()
        .expect("a successful compile reports a Success step");
    Cell {
        seconds,
        stages: out.resources.stages_used,
        winner: winner.strategy.name(),
    }
}

fn main() {
    let cfg = parse_args();
    let names: Vec<&'static str> = corpus()
        .into_iter()
        .map(|b| b.name)
        .filter(|n| cfg.programs.is_empty() || cfg.programs.iter().any(|p| p == n))
        .collect();
    eprintln!(
        "Portfolio sweep: {} programs, width {}, max stages {}, timeout {}s …",
        names.len(),
        cfg.verify_width,
        cfg.max_stages,
        cfg.timeout_secs
    );

    let mut rows = Vec::new();
    let (mut tot_canon, mut tot_full, mut tot_port) = (0.0, 0.0, 0.0);
    for name in &names {
        let b = corpus().into_iter().find(|b| b.name == *name).unwrap();
        let base = options(&b, &cfg);

        let canon = run(name, "canonical", &base);

        let mut fopts = base.clone();
        fopts.sketch.canonical_fields = false;
        let full = run(name, "full-alu", &fopts);

        let mut popts = base.clone();
        popts.portfolio = true;
        let port = run(name, "portfolio", &popts);

        eprintln!(
            "  {name}: canonical {:.2}s  full-alu {:.2}s  portfolio {:.2}s (winner {})",
            canon.seconds, full.seconds, port.seconds, port.winner
        );
        tot_canon += canon.seconds;
        tot_full += full.seconds;
        tot_port += port.seconds;
        rows.push((name.to_string(), canon, full, port));
    }

    println!(
        "| program | stages | canonical (s) | full-alu (s) | portfolio (s) | portfolio winner |"
    );
    println!("|---|---|---|---|---|---|");
    for (name, canon, full, port) in &rows {
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {} |",
            name, port.stages, canon.seconds, full.seconds, port.seconds, port.winner
        );
    }
    let best_single = tot_canon.min(tot_full);
    println!("| **total** | | **{tot_canon:.2}** | **{tot_full:.2}** | **{tot_port:.2}** | |");
    eprintln!(
        "corpus total: canonical {tot_canon:.2}s, full-alu {tot_full:.2}s, \
         portfolio {tot_port:.2}s (best single {best_single:.2}s)"
    );
    if tot_port >= best_single {
        eprintln!("FAIL: portfolio did not beat the best single fixed strategy");
        std::process::exit(1);
    }
    eprintln!(
        "portfolio beats the best single fixed strategy by {:.1}% (all winners certified)",
        100.0 * (best_single - tot_port) / best_single
    );
}
