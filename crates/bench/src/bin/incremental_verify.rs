//! Incremental vs rebuild-per-query CEGIS verification (EXPERIMENTS.md
//! "Incremental verification" table).
//!
//! A full CEGIS run is a noisy yardstick for the verifier alone: the two
//! verifiers return different (equally valid) counterexamples, so CEGIS
//! loops driven by them diverge after the first query and stop doing
//! comparable work. This binary therefore measures the verifier on an
//! *identical* workload — replay. Per benchmark: compile once, then build
//! a fixed candidate list (the winner plus seeded single-bit
//! perturbations) and answer every query twice —
//!
//! ```text
//! rebuild       verify_at per candidate: blast a fresh miter with the
//!               hole values baked in as constants (the pre-incremental
//!               behavior of every iteration)
//! incremental   one persistent Verifier (construction included in its
//!               time): miter blasted once, holes free, each candidate
//!               pinned by solve-under-assumptions
//! ```
//!
//! Verdicts must agree on every query. The binary exits non-zero if
//! incremental loses to rebuild on corpus-total replay time. The compile
//! wall-clock is reported alongside, for information only.
//!
//! Usage:
//!   incremental_verify [--width BITS] [--max-stages K] [--timeout SECS]
//!                      [--seed S] [--queries N] [--program NAME]...

use std::time::{Duration, Instant};

use chipmunk::cegis::verify_at;
use chipmunk::{compile, CegisOptions, CompilerOptions, Sketch, Verifier};
use chipmunk_bench::corpus::{corpus, Benchmark};
use chipmunk_pisa::StatelessAluSpec;

struct Config {
    verify_width: u8,
    max_stages: usize,
    timeout_secs: u64,
    seed: u64,
    queries: usize,
    programs: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            verify_width: 10,
            max_stages: 4,
            timeout_secs: 120,
            seed: 2019,
            queries: 24,
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
            "--queries" => cfg.queries = val("--queries").parse().expect("queries"),
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

/// SplitMix64 — deterministic perturbation stream without a `rand` dep.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

struct Row {
    name: String,
    stages: usize,
    queries: usize,
    inequivalent: usize,
    rebuild_secs: f64,
    incremental_secs: f64,
    compile_secs: f64,
}

fn main() {
    let cfg = parse_args();
    let names: Vec<&'static str> = corpus()
        .into_iter()
        .map(|b| b.name)
        .filter(|n| cfg.programs.is_empty() || cfg.programs.iter().any(|p| p == n))
        .collect();
    eprintln!(
        "Incremental-verification sweep: {} programs, width {}, {} replay queries each …",
        names.len(),
        cfg.verify_width,
        cfg.queries
    );

    let mut rows = Vec::new();
    let (mut tot_rebuild, mut tot_inc, mut tot_compile) = (0.0, 0.0, 0.0);
    for name in &names {
        let b = corpus().into_iter().find(|b| b.name == *name).unwrap();
        let prog = b.program();
        let opts = options(&b, &cfg);

        let t0 = Instant::now();
        let out = compile(&prog, &opts).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        let compile_secs = t0.elapsed().as_secs_f64();

        // The replay workload: winner + seeded single-bit perturbations.
        let sketch = Sketch::new(
            out.grid.clone(),
            prog.field_names().len(),
            prog.state_names().len(),
            opts.sketch,
        )
        .expect("winning sketch reconstructs");
        let mut rng = cfg.seed ^ 0xd1ff;
        let mut candidates = vec![out.hole_values.clone()];
        while candidates.len() < cfg.queries {
            let mut hv = out.hole_values.clone();
            let i = (splitmix(&mut rng) as usize) % hv.len();
            let bits = u64::from(sketch.holes()[i].bits.max(1));
            hv[i] ^= 1 << (splitmix(&mut rng) % bits);
            candidates.push(hv);
        }
        let w = opts.cegis.verify_width;
        let dw = opts.cegis.domain_width;

        let t0 = Instant::now();
        let rebuild_verdicts: Vec<bool> = candidates
            .iter()
            .map(|hv| {
                verify_at(&prog, &sketch, hv, w, dw, None)
                    .expect("rebuild verify")
                    .is_none()
            })
            .collect();
        let rebuild_secs = t0.elapsed().as_secs_f64();

        // The persistent instance's one-time blast is part of its cost.
        let t0 = Instant::now();
        let mut verifier = Verifier::new(&prog, &sketch, w, dw);
        let inc_verdicts: Vec<bool> = candidates
            .iter()
            .map(|hv| {
                verifier
                    .check(hv, None, None)
                    .expect("incremental verify")
                    .is_none()
            })
            .collect();
        let incremental_secs = t0.elapsed().as_secs_f64();

        assert_eq!(
            rebuild_verdicts, inc_verdicts,
            "{name}: verdicts diverge between verifier modes"
        );
        let inequivalent = inc_verdicts.iter().filter(|v| !**v).count();
        eprintln!(
            "  {name}: replay {:.3}s incremental vs {:.3}s rebuild \
             ({} queries, {} inequivalent; compile {:.2}s)",
            incremental_secs,
            rebuild_secs,
            candidates.len(),
            inequivalent,
            compile_secs
        );
        tot_rebuild += rebuild_secs;
        tot_inc += incremental_secs;
        tot_compile += compile_secs;
        rows.push(Row {
            name: name.to_string(),
            stages: out.resources.stages_used,
            queries: candidates.len(),
            inequivalent,
            rebuild_secs,
            incremental_secs,
            compile_secs,
        });
    }

    println!(
        "| program | stages | queries (ineq.) | incremental (s) | rebuild (s) | \
         speedup | compile (s) |"
    );
    println!("|---|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {} ({}) | {:.3} | {:.3} | {:.1}× | {:.2} |",
            r.name,
            r.stages,
            r.queries,
            r.inequivalent,
            r.incremental_secs,
            r.rebuild_secs,
            r.rebuild_secs / r.incremental_secs.max(1e-9),
            r.compile_secs
        );
    }
    println!(
        "| **total** | | | **{tot_inc:.3}** | **{tot_rebuild:.3}** | **{:.1}×** | \
         **{tot_compile:.2}** |",
        tot_rebuild / tot_inc.max(1e-9)
    );
    eprintln!(
        "corpus-total replay: incremental {tot_inc:.3}s, rebuild {tot_rebuild:.3}s \
         (compile: {tot_compile:.2}s)"
    );
    if tot_inc > tot_rebuild {
        eprintln!("FAIL: incremental verification lost to rebuild-per-query");
        std::process::exit(1);
    }
    eprintln!(
        "incremental verification is {:.1}× rebuild on the same query workload",
        tot_rebuild / tot_inc.max(1e-9)
    );
}
