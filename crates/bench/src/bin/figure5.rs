//! Regenerate the paper's Figure 5: pipeline stages and max ALUs per stage
//! used by Chipmunk and Domino (mean ± stddev over variants both compile).
//!
//! Usage: same flags as `table2`; `--load PATH` reuses a JSON produced by
//! `table2 --json PATH` instead of re-running the sweep.

use chipmunk_bench::{
    outcomes_from_json_str, render_figure5, run_experiments, ExperimentConfig, VariantOutcome,
};

fn main() {
    chipmunk_trace::init_from_env();
    let mut cfg = ExperimentConfig::default();
    let mut load: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => cfg.seed = val("--seed").parse().expect("seed"),
            "--mutations" => {
                cfg.mutations_per_program = val("--mutations").parse().expect("mutations")
            }
            "--timeout" => cfg.timeout_secs = val("--timeout").parse().expect("timeout"),
            "--width" => cfg.verify_width = val("--width").parse().expect("width"),
            "--max-stages" => cfg.max_stages = val("--max-stages").parse().expect("max-stages"),
            "--threads" => cfg.threads = val("--threads").parse().expect("threads"),
            "--program" => cfg.programs.push(val("--program")),
            "--load" => load = Some(val("--load")),
            "--trace" => chipmunk_trace::init_jsonl(&val("--trace")).expect("open trace file"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let outcomes: Vec<VariantOutcome> = match load {
        Some(path) => outcomes_from_json_str(&std::fs::read_to_string(&path).expect("read json"))
            .expect("parse json"),
        None => {
            eprintln!(
                "Running Figure 5 sweep: {} mutations/program, width {} …",
                cfg.mutations_per_program, cfg.verify_width
            );
            run_experiments(&cfg)
        }
    };
    chipmunk_trace::flush();
    println!("{}", render_figure5(&outcomes));
}
