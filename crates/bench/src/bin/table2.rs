//! Regenerate the paper's Table 2: code-generation rate and time for
//! Chipmunk and Domino over 8 programs × N semantics-preserving mutations.
//!
//! Usage:
//!   table2 [--seed S] [--mutations N] [--timeout SECS] [--width BITS]
//!          [--max-stages K] [--program NAME]... [--threads T] [--json PATH]
//!          [--trace PATH.jsonl]

use chipmunk_bench::{outcomes_to_json, render_table2, run_experiments, ExperimentConfig};

fn parse_args() -> (ExperimentConfig, Option<String>) {
    let mut cfg = ExperimentConfig::default();
    let mut json = None;
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
            "--json" => json = Some(val("--json")),
            "--trace" => chipmunk_trace::init_jsonl(&val("--trace")).expect("open trace file"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    (cfg, json)
}

fn main() {
    chipmunk_trace::init_from_env();
    let (cfg, json) = parse_args();
    eprintln!(
        "Running Table 2 sweep: {} mutations/program, width {}, timeout {}s …",
        cfg.mutations_per_program, cfg.verify_width, cfg.timeout_secs
    );
    let outcomes = run_experiments(&cfg);
    chipmunk_trace::flush();
    if let Some(path) = json {
        std::fs::write(&path, outcomes_to_json(&outcomes).to_pretty()).expect("write json");
        eprintln!("wrote {path}");
    }
    println!("{}", render_table2(&outcomes));
}
