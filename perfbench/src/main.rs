//! The chipmunk-rs benchmark: end-to-end and per-layer metrics on three
//! workloads. See `perfbench/README.md` for the workloads, the metrics, and
//! which end-to-end metric each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-compile|sat-suite|serve-mutants \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- gen-suite
//! cargo run --release --manifest-path perfbench/Cargo.toml -- spread
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod compile;
mod satsuite;
mod serve;
mod spread;
mod stats;
mod tap;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "1"),
    ("goodput", "1"),
    ("geomean_ms", "ms"),
    ("mean_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run; a layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.synth_ms", "ms"),
    ("sat.verify_ms", "ms"),
    ("sat.unsat_ms", "ms"),
    ("sat.proof_bytes", "bytes"),
    ("sat.drat_check_ms", "ms"),
    ("bv.blast_ms", "ms"),
    ("bv.clauses", "count"),
    ("bv.vars", "count"),
    ("cegis.iterations", "count"),
    ("cegis.counterexamples", "count"),
    ("cegis.synth_ms", "ms"),
    ("cegis.verify_ms", "ms"),
    ("cegis.synth_share", "1"),
    ("cegis.synth_conflicts", "count"),
    ("cegis.verify_conflicts", "count"),
    ("plan.steps", "count"),
    ("plan.infeasible_step_ms", "ms"),
    ("plan.overhead_ms", "ms"),
    ("certify.ms", "ms"),
    ("code.stages_sum", "count"),
    ("code.alus_sum", "count"),
    ("lang.parse_us", "us"),
    ("lang.canonicalize_us", "us"),
    ("cache.key_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.certify_ms", "ms"),
    ("serve.remap_ms", "ms"),
    ("serve.hit_rate", "1"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.hit_samples", "count"),
    ("serve.miss_samples", "count"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead", "1"),
];

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    details: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Count one operation whose output failed its checks.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// A workload-specific figure printed for readers above the result.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("gen-suite") => {
            return match satsuite::generate() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gen-suite: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("spread") => return spread::record(),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "corpus-compile" => compile::run(args.seed, args.seconds, args.trace),
        "sat-suite" => satsuite::run(args.seed, args.seconds, args.trace),
        "serve-mutants" => serve::run(args.seed, args.seconds, args.trace),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(out) => report(out, args.trace),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn report(mut out: Outcome, trace: bool) -> ExitCode {
    if !out.e2e.contains_key("peak_rss_mb") {
        out.e2e("peak_rss_mb", stats::peak_rss_mb());
    }
    for line in &out.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &out.details {
        println!("# {name} = {value} {unit}");
    }
    for why in out.failures.iter().take(20) {
        println!("# FAILED: {why}");
    }
    let (list, values) = if trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = values.get(name).copied().unwrap_or(0.0);
        // Not-a-number and negative zero print as plain 0.
        let value = if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        };
        println!("# {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use chipmunk_trace::json::Json;

    /// The metric lists printed here and the ones `BENCHMARK.json` declares
    /// must name the same metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [
            ("end_to_end", super::END_TO_END),
            ("per_layer", super::PER_LAYER),
        ] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap();
                    (s("name"), s("unit"))
                })
                .collect();
            assert_eq!(declared, list.to_vec(), "{key}");
        }
    }
}
