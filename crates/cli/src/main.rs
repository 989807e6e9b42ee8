//! `chipmunkc` — the command-line front end of the chipmunk-rs workspace.
//!
//! ```text
//! chipmunkc compile  <file> [--template T] [--imm N] [--width W] [--max-stages K] [--timeout S] [--portfolio] [--slots N] [--json] [--check-proofs] [--trace OUT.jsonl]
//! chipmunkc check-proof <file>
//! chipmunkc plan     <file> [same compile flags] [--explain] [--json]
//! chipmunkc domino   <file> [--template T] [--imm N] [--width W]
//! chipmunkc repair   <file> [--template T] [--imm N] [--depth D] [--trace OUT.jsonl]
//! chipmunkc mutate   <file> [--n N] [--seed S]
//! chipmunkc superopt <file> [--imm N] [--width W] [--max-len L] [--full-alu] [--trace OUT.jsonl]
//! chipmunkc run      <file> [--template T] [--packets N] [--width W] [--trace CSV]
//! chipmunkc trace-report <file.jsonl>
//! chipmunkc serve    [--addr H:P] [--workers N] [--queue-cap N] [--cache-dir DIR] [--cache-max-entries N] [--max-conns N] [--idle-timeout S] [--metrics-addr H:P] [--slow-ms N] [--default-deadline-ms N] [--deadline-grace-ms N] [--brownout-p95-ms N] [--shed-below-priority P] [--watchdog-escalate-ms N] [--trace OUT.jsonl]
//! chipmunkc submit   <file> [--addr H:P] [--template T] [--imm N] [--width W] [--max-stages K] [--timeout S] [--deadline-ms N] [--portfolio] [--priority P] [--trace ID] [--json]
//! chipmunkc submit   --batch <file>... [--addr H:P] [shared compile flags] [--progress] [--json]
//! chipmunkc submit   --status | --stats | --shutdown | --shutdown-now [--addr H:P]
//! chipmunkc cache    [--stats | --compact | --clear] [--addr H:P]
//! chipmunkc trace    --job <trace-id> [--addr H:P] [--json]
//! chipmunkc top      [--addr H:P] [--watch SECS] [--json]
//! ```
//!
//! Flags are checked before any subcommand runs: an unknown flag is an
//! error that names it.
//!
//! `compile --trace OUT.jsonl` records a structured execution trace of the
//! whole synthesis stack (CEGIS iterations, SAT solves, bit-blasting,
//! grid-size escalation) as JSON Lines; `trace-report` renders a per-phase
//! time and work breakdown from such a file. Setting the `CHIPMUNK_TRACE`
//! environment variable (a path, or `stderr`) enables the same tracing for
//! every subcommand.
//!
//! `run --trace` replays a CSV packet trace (header row = packet-field
//! names; one packet per line) through the synthesized pipeline instead of
//! random packets, cross-checking every output against the interpreter.
//!
//! `submit --batch` pipelines every listed file over one connection —
//! each request carries an `id`, responses stream back in completion
//! order, and the results are reassembled into input order — so a whole
//! mutation suite costs one round of connection setup (`--progress`
//! prints a running done/cached/failed tally to stderr). `cache`
//! inspects or maintains the running server's result cache (`--compact`
//! rewrites `results.jsonl` down to the retained entries; `--clear`
//! empties both tiers).
//!
//! `plan --explain` prints the compilation schedule that `compile` with
//! the same flags would execute — one line per synthesis attempt
//! (depth × strategy × solver budget), the group structure, and the plan
//! fingerprint the daemon journals for crash-resumable jobs — without
//! solving anything. `compile --portfolio` / `submit --portfolio` race
//! the hole-restriction strategies at each depth and keep the first
//! *certified* winner; `submit --priority P` (0–9) pops ahead of
//! lower-priority jobs in the daemon's queue.
//!
//! Overload control: `submit --deadline-ms N` gives the job an
//! end-to-end deadline the daemon propagates into per-step solver
//! budgets (and the retrying client will not sleep past); `serve
//! --default-deadline-ms` applies one to every job that does not bring
//! its own. `serve --brownout-p95-ms N` degrades service when the
//! queue-wait p95 crosses N ms — cache hits still serve, but fresh work
//! below `--shed-below-priority` is refused with `busy` and a
//! `retry_after_ms` pacing hint. A full queue sheds the youngest
//! lowest-priority queued job (typed `shed` error) to admit a
//! higher-priority newcomer.
//!
//! The daemon's telemetry plane: `serve --metrics-addr H:P` exposes
//! Prometheus text exposition at `/metrics`; `serve --slow-ms N` dumps
//! the span tree of any job slower than N ms to stderr. `submit --trace
//! ID` tags a submission with a caller-chosen trace id (the server
//! assigns one otherwise — every response carries it back); `trace
//! --job ID` prints that job's buffered span tree from the daemon, and
//! `top` renders live latency percentiles, outcome counts, cache hit
//! rate, and solver totals (`--watch SECS` refreshes in a loop).
//!
//! `<file>` holds a packet transaction in the Domino dialect. Templates:
//! `raw`, `pred_raw`, `if_else_raw` (default), `sub`, `nested_ifs`.

use std::process::ExitCode;
use std::time::Duration;

use chipmunk::{compile, layout_names, CompilerOptions};
use chipmunk_domino::{compile as domino_compile, DominoOptions};
use chipmunk_lang::{parse, Interpreter, PacketState, Program};
use chipmunk_pisa::{stateful::library, Pipeline, StatefulAluSpec, StatelessAluSpec};
use chipmunk_repair::{suggest, RepairOptions};
use chipmunk_superopt::{superoptimize, SuperoptOptions};
use chipmunk_trace::json::Json;

struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "batch",
    "check-proofs",
    "clear",
    "compact",
    "explain",
    "full-alu",
    "json",
    "portfolio",
    "progress",
    "shutdown",
    "shutdown-now",
    "stats",
    "status",
];

/// Flags that take one value. Any flag in neither list is an error: were
/// it guessed value-taking, a typo would silently swallow the next flag.
const VALUE_FLAGS: &[&str] = &[
    "addr",
    "brownout-p95-ms",
    "budget-bytes",
    "budget-conflicts",
    "budget-propagations",
    "cache-dir",
    "cache-max-entries",
    "deadline-grace-ms",
    "deadline-ms",
    "default-deadline-ms",
    "depth",
    "idle-timeout",
    "imm",
    "job",
    "journal-dir",
    "max-conns",
    "max-len",
    "max-stages",
    "metrics-addr",
    "n",
    "packets",
    "priority",
    "queue-cap",
    "retries",
    "seed",
    "shed-below-priority",
    "slots",
    "slow-ms",
    "template",
    "timeout",
    "trace",
    "watch",
    "watchdog-escalate-ms",
    "width",
    "workers",
];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    flags.push((name.to_string(), String::new()));
                } else if VALUE_FLAGS.contains(&name) {
                    let v = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), v));
                } else {
                    return Err(format!("unknown flag `--{name}`\n{}", usage()));
                }
            } else {
                positional.push(a);
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }
}

fn template(name: &str, imm: u8) -> Result<StatefulAluSpec, String> {
    library::by_name(name, imm).ok_or_else(|| format!("unknown template `{name}`"))
}

/// Build [`CompilerOptions`] from the shared compile flags, starting from
/// [`CompilerOptions::service_defaults`] — the same constructor the serve
/// protocol decoder fills gaps from, so a local `compile`, a `plan`, and
/// a daemon `submit` with the same flags resolve to the same options.
fn compile_options_from_args(args: &Args) -> Result<CompilerOptions, String> {
    let imm: u8 = args.num("imm", CompilerOptions::SERVICE_IMM_BITS)?;
    let mut opts = CompilerOptions::service_defaults();
    opts.stateful = template(
        args.get("template")
            .unwrap_or(CompilerOptions::SERVICE_TEMPLATE),
        imm,
    )?;
    opts.stateless = StatelessAluSpec::banzai(imm);
    opts.cegis.verify_width = args.num("width", CompilerOptions::SERVICE_VERIFY_WIDTH)?;
    opts.cegis.budget = budget_from_args(args)?;
    opts.max_stages = args.num("max-stages", CompilerOptions::SERVICE_MAX_STAGES)?;
    if let Some(slots) = args.get("slots") {
        let n: usize = slots
            .parse()
            .map_err(|_| format!("--slots: bad value `{slots}`"))?;
        opts.slots = Some(n);
    }
    opts.timeout = Some(Duration::from_secs(
        args.num("timeout", CompilerOptions::SERVICE_TIMEOUT_MS / 1000)?,
    ));
    opts.portfolio = args.has("portfolio");
    Ok(opts)
}

/// The `--budget-*` solver resource ceilings shared by `compile`, `run`,
/// and `submit`. `0` (the default) means unlimited; a tripped ceiling
/// surfaces as a `timeout`-class error instead of unbounded solving.
fn budget_from_args(args: &Args) -> Result<chipmunk::ResourceBudget, String> {
    let ceiling = |name: &str| -> Result<Option<u64>, String> {
        Ok(match args.num::<u64>(name, 0)? {
            0 => None,
            n => Some(n),
        })
    };
    Ok(chipmunk::ResourceBudget {
        conflicts: ceiling("budget-conflicts")?,
        propagations: ceiling("budget-propagations")?,
        clause_bytes: ceiling("budget-bytes")?,
    })
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&src).map_err(|e| format!("{path}:{e}"))
}

fn usage() -> String {
    "usage: chipmunkc <compile|plan|domino|repair|mutate|superopt|run|trace-report|serve|submit|cache|trace|top|check-proof> <file> [options]\n\
     see `chipmunkc help` or the crate docs for options"
        .to_string()
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = match argv.next() {
        Some(c) => c,
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let res = match cmd.as_str() {
        "compile" => cmd_compile(&args),
        "plan" => cmd_plan(&args),
        "domino" => cmd_domino(&args),
        "repair" => cmd_repair(&args),
        "mutate" => cmd_mutate(&args),
        "superopt" => cmd_superopt(&args),
        "run" => cmd_run(&args),
        "trace-report" => cmd_trace_report(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "cache" => cmd_cache(&args),
        "trace" => cmd_trace(&args),
        "top" => cmd_top(&args),
        "check-proof" => cmd_check_proof(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    // Every subcommand can trace (via `CHIPMUNK_TRACE` or `--trace`);
    // drain the buffered sink exactly once on the way out.
    chipmunk_trace::flush();
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn file_arg(args: &Args) -> Result<&str, String> {
    args.positional
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| "missing <file> argument".to_string())
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("trace") {
        chipmunk_trace::init_jsonl(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    let prog = load(file_arg(args)?)?;
    let opts = compile_options_from_args(args)?;
    let out = compile(&prog, &opts);
    chipmunk_trace::flush();
    let out = match out {
        Ok(out) => out,
        Err(chipmunk::CodegenError::Infeasible(cert)) => {
            return Err(report_infeasible(&cert, args.has("check-proofs")));
        }
        Err(e) => return Err(e.to_string()),
    };
    eprintln!(
        "compiled in {:.2?}: {} stage(s), max {} ALU(s)/stage, {} total ALU(s)",
        out.elapsed,
        out.resources.stages_used,
        out.resources.max_alus_per_stage,
        out.resources.total_alus
    );
    if args.has("json") {
        // `fields` / `states` name the indices of `field_to_container`
        // (hash calls add metadata fields, so this can be longer than the
        // source's field list) — same shape as a serve result document.
        let (fields, states) = layout_names(&prog);
        let names = |ns: Vec<String>| Json::Arr(ns.into_iter().map(Json::from).collect());
        let doc = Json::obj([
            (
                "grid",
                Json::obj([
                    ("stages", Json::from(out.grid.stages)),
                    ("slots", Json::from(out.grid.slots)),
                ]),
            ),
            ("resources", out.resources.to_json()),
            ("fields", names(fields)),
            ("states", names(states)),
            (
                "field_to_container",
                Json::Arr(
                    out.decoded
                        .field_to_container
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect(),
                ),
            ),
            ("pipeline", out.decoded.pipeline.to_json()),
        ]);
        println!("{}", doc.to_pretty());
    }
    Ok(())
}

/// Render an infeasible verdict for the terminal. With `check` (the
/// `--check-proofs` flag) the shipped DRAT certificate is re-validated
/// by the in-process checker before the verdict is reported, and a
/// missing or invalid proof becomes a loud error of its own — the mode
/// CI runs so every "cannot fit in k stages" stays trustworthy.
fn report_infeasible(cert: &chipmunk::InfeasibleCert, check: bool) -> String {
    let message = chipmunk::CodegenError::Infeasible(cert.clone()).to_string();
    if !check {
        return message;
    }
    let Some(text) = &cert.proof else {
        let why = cert.reason.as_deref().unwrap_or("no proof text retained");
        return format!("--check-proofs: no proof to re-check ({why}); verdict was: {message}");
    };
    let parsed = match chipmunk::Certificate::parse(text) {
        Ok(c) => c,
        Err(e) => return format!("--check-proofs: shipped proof does not parse: {e}"),
    };
    match parsed.check(&chipmunk::CheckBudget::default()) {
        chipmunk::CheckOutcome::Valid => {
            eprintln!(
                "proof: {} lemma(s), {} byte(s), re-checked valid",
                parsed.num_lemmas(),
                text.len()
            );
            message
        }
        chipmunk::CheckOutcome::Invalid(why) => {
            format!("--check-proofs: shipped proof did NOT validate: {why}")
        }
        chipmunk::CheckOutcome::OutOfBudget => {
            "--check-proofs: proof re-check ran out of budget".to_string()
        }
    }
}

/// `chipmunkc check-proof <file>` — parse a DRAT certificate (the
/// `proof` field of an infeasible response, saved to a file) and run the
/// in-repo checker over it. Exits 0 iff the certificate is valid.
fn cmd_check_proof(args: &Args) -> Result<(), String> {
    let path = file_arg(args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cert = chipmunk::Certificate::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match cert.check(&chipmunk::CheckBudget::default()) {
        chipmunk::CheckOutcome::Valid => {
            println!(
                "{path}: valid UNSAT certificate ({} clause(s), {} hypothesis(es), {} lemma(s))",
                cert.clauses.len(),
                cert.hypotheses.len(),
                cert.num_lemmas()
            );
            Ok(())
        }
        chipmunk::CheckOutcome::Invalid(why) => Err(format!("{path}: INVALID certificate: {why}")),
        chipmunk::CheckOutcome::OutOfBudget => {
            Err(format!("{path}: proof check ran out of budget"))
        }
    }
}

/// `chipmunkc plan <file> [compile flags] [--explain|--json]` — show the
/// [`CompilePlan`](chipmunk::plan::CompilePlan) that `compile` with the
/// same flags would execute, without running any of it. `--explain` (the
/// default) prints the stable human rendering that golden-plan tests
/// diff verbatim; `--json` prints the same schedule structurally.
fn cmd_plan(args: &Args) -> Result<(), String> {
    let prog = load(file_arg(args)?)?;
    let opts = compile_options_from_args(args)?;
    let plan = chipmunk::plan_compilation(&prog, &opts).map_err(|e| e.to_string())?;
    if args.has("json") {
        let steps: Vec<Json> = plan
            .steps
            .iter()
            .map(|s| {
                Json::obj([
                    ("index", Json::from(s.index)),
                    ("stages", Json::from(s.stages)),
                    ("slots", Json::from(s.slots)),
                    ("strategy", Json::from(s.strategy.name())),
                    ("group", Json::from(s.group)),
                ])
            })
            .collect();
        let groups: Vec<Json> = plan
            .groups
            .iter()
            .map(|g| {
                Json::obj([
                    ("mode", Json::from(g.mode.name())),
                    (
                        "steps",
                        Json::Arr(g.steps.iter().map(|&i| Json::from(i)).collect()),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("fingerprint", Json::from(plan.fingerprint().as_str())),
            ("steps", Json::Arr(steps)),
            ("groups", Json::Arr(groups)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        print!("{}", plan.explain());
    }
    Ok(())
}

/// Default address shared by `serve` and `submit`.
const SERVE_ADDR: &str = "127.0.0.1:7919";

fn cmd_serve(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("trace") {
        chipmunk_trace::init_jsonl(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    let defaults = chipmunk_serve::ServerConfig::default();
    let config = chipmunk_serve::ServerConfig {
        addr: args.get("addr").unwrap_or(SERVE_ADDR).to_string(),
        workers: args.num("workers", defaults.workers.max(1))?,
        queue_capacity: args.num("queue-cap", 64)?,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
        // 0 = unbounded; anything else is an LRU entry cap on both tiers.
        cache_max_entries: match args.num("cache-max-entries", 0usize)? {
            0 => None,
            n => Some(n),
        },
        max_connections: args.num("max-conns", defaults.max_connections)?,
        // 0 = wait forever; anything else is a per-socket idle deadline.
        idle_timeout: match args.num("idle-timeout", 60u64)? {
            0 => None,
            secs => Some(Duration::from_secs(secs)),
        },
        journal_dir: args.get("journal-dir").map(std::path::PathBuf::from),
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        // 0 = never; anything else dumps span trees of slower jobs.
        slow_ms: match args.num("slow-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        // 0 = no default; jobs without their own deadline_ms wait forever.
        default_deadline_ms: match args.num("default-deadline-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        deadline_grace_ms: args.num("deadline-grace-ms", defaults.deadline_grace_ms)?,
        // 0 = brownout disabled; anything else is the queue-wait p95
        // threshold (ms) that trips degraded service.
        brownout_p95_ms: match args.num("brownout-p95-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        shed_below_priority: args.num("shed-below-priority", defaults.shed_below_priority)?,
        watchdog_escalate_ms: args.num("watchdog-escalate-ms", defaults.watchdog_escalate_ms)?,
    };
    let handle =
        chipmunk_serve::start(&config).map_err(|e| format!("bind {}: {e}", config.addr))?;
    eprintln!(
        "chipmunk-serve listening on {} ({} worker(s), queue {} deep, cache {})",
        handle.local_addr(),
        config.workers,
        config.queue_capacity,
        config
            .cache_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "in-memory".to_string()),
    );
    // Separate line: restart supervisors parse the `listening on` prefix.
    if let Some(metrics) = handle.metrics_addr() {
        eprintln!("chipmunk-serve metrics on http://{metrics}/metrics");
    }
    handle.join();
    chipmunk_trace::flush();
    eprintln!("chipmunk-serve stopped");
    Ok(())
}

/// The `options` object shared by single and batch submissions.
/// The request `options` object for `submit`, built from the same flag
/// names and [`CompilerOptions`] service-default constants as the local
/// compile path — the defaults themselves live in one place
/// ([`CompilerOptions::service_defaults`]), which both this encoder and
/// the serve protocol decoder resolve against.
fn submit_options(args: &Args) -> Result<Json, String> {
    let mut options = vec![
        (
            "imm",
            Json::from(args.num::<u8>("imm", CompilerOptions::SERVICE_IMM_BITS)?),
        ),
        (
            "width",
            Json::from(args.num::<u8>("width", CompilerOptions::SERVICE_VERIFY_WIDTH)?),
        ),
        (
            "max_stages",
            Json::from(args.num::<usize>("max-stages", CompilerOptions::SERVICE_MAX_STAGES)?),
        ),
        (
            "timeout_ms",
            Json::from(
                args.num::<u64>("timeout", CompilerOptions::SERVICE_TIMEOUT_MS / 1000)? * 1000,
            ),
        ),
        (
            "template",
            Json::from(
                args.get("template")
                    .unwrap_or(CompilerOptions::SERVICE_TEMPLATE),
            ),
        ),
        ("portfolio", Json::Bool(args.has("portfolio"))),
    ];
    if let Some(slots) = args.get("slots") {
        let n: usize = slots
            .parse()
            .map_err(|_| format!("--slots: bad value `{slots}`"))?;
        options.push(("slots", Json::from(n)));
    }
    // Only sent when asked for: an absent field takes the server's
    // `--default-deadline-ms` (or no deadline at all).
    if let Some(ms) = args.get("deadline-ms") {
        let n: u64 = ms
            .parse()
            .map_err(|_| format!("--deadline-ms: bad value `{ms}`"))?;
        options.push(("deadline_ms", Json::from(n)));
    }
    let budget = budget_from_args(args)?;
    for (key, ceiling) in [
        ("budget_conflicts", budget.conflicts),
        ("budget_propagations", budget.propagations),
        ("budget_bytes", budget.clause_bytes),
    ] {
        if let Some(n) = ceiling {
            options.push((key, Json::from(n)));
        }
    }
    Ok(Json::obj(options))
}

/// The caller-side retry budget matching `--deadline-ms`: once a job
/// carries an end-to-end deadline, sleeping past it chasing `busy`
/// bounces is wasted time, so the retrying client gets the same bound.
fn client_deadline(args: &Args) -> Result<Option<Duration>, String> {
    match args.get("deadline-ms") {
        None => Ok(None),
        Some(ms) => ms
            .parse::<u64>()
            .map(|n| Some(Duration::from_millis(n)))
            .map_err(|_| format!("--deadline-ms: bad value `{ms}`")),
    }
}

/// The `--priority` queue level for `submit` (0–9, default 0): higher
/// levels pop from the daemon's job queue first, FIFO within a level.
fn priority_from_args(args: &Args) -> Result<u8, String> {
    let p: u8 = args.num("priority", 0)?;
    if p > chipmunk_serve::protocol::MAX_PRIORITY {
        return Err(format!(
            "--priority must be 0..={}",
            chipmunk_serve::protocol::MAX_PRIORITY
        ));
    }
    Ok(p)
}

/// The retry policy for `submit` commands: bounded exponential backoff
/// with full jitter, tunable via `--retries` (0 disables). The jitter
/// seed mixes in the process id so concurrent suite runs bounced by the
/// same busy window fan out instead of reconnecting in lockstep.
fn retry_policy(args: &Args) -> Result<chipmunk_serve::RetryPolicy, String> {
    let mut policy = chipmunk_serve::RetryPolicy::default();
    policy.max_retries = args.num("retries", policy.max_retries)?;
    policy.seed ^= u64::from(std::process::id());
    Ok(policy)
}

/// Pipeline every listed file over one connection: send all requests up
/// front (id = input index), then collect responses — which may arrive in
/// completion order, e.g. cache hits first — and reassemble by id.
/// Every file gets a per-file outcome (an unreadable file or a failed
/// compile does not abort the rest), and any failure makes the exit
/// status non-zero with a summary.
fn cmd_submit_batch(args: &Args, addr: &str) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err("submit --batch needs at least one <file>".to_string());
    }
    let options = submit_options(args)?;
    // Read everything up front; a poisoned file becomes that file's
    // outcome instead of stopping the suite at first failure.
    let mut outcomes: Vec<Option<Json>> = Vec::with_capacity(args.positional.len());
    let mut programs: Vec<String> = Vec::new();
    let mut submitted_idx: Vec<usize> = Vec::new();
    for (i, path) in args.positional.iter().enumerate() {
        match std::fs::read_to_string(path) {
            Ok(source) => {
                outcomes.push(None);
                programs.push(source);
                submitted_idx.push(i);
            }
            Err(e) => outcomes.push(Some(Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::from("io")),
                ("message", Json::from(format!("{path}: {e}").as_str())),
            ]))),
        }
    }
    if !programs.is_empty() {
        let mut client = chipmunk_serve::RetryingClient::new(addr, retry_policy(args)?);
        client.set_priority(priority_from_args(args)?);
        client.set_deadline(client_deadline(args)?);
        let responses = if args.has("progress") {
            client.pipeline_with_progress(&programs, &options, |p| {
                eprintln!(
                    "progress: {}/{} done ({} cached, {} failed{})",
                    p.done,
                    p.total,
                    p.cached,
                    p.failed,
                    if p.retries > 0 {
                        format!(", {} retried", p.retries)
                    } else {
                        String::new()
                    },
                );
            })
        } else {
            client.pipeline(&programs, &options)
        }
        .map_err(|e| format!("{addr}: {e} (is `chipmunkc serve` running?)"))?;
        if client.retries() > 0 {
            eprintln!("(retried {} transient failure(s))", client.retries());
        }
        for (slot, resp) in submitted_idx.into_iter().zip(responses) {
            outcomes[slot] = Some(resp);
        }
    }
    let mut failures = 0usize;
    for (path, resp) in args.positional.iter().zip(&outcomes) {
        let resp = resp.as_ref().expect("every file has an outcome");
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            let cached = resp.get("cached").and_then(Json::as_bool) == Some(true);
            eprintln!(
                "{path}: {} in {} ms (queued {} ms), key {}",
                if cached { "cache hit" } else { "compiled" },
                resp.get("synth_ms").and_then(Json::as_u64).unwrap_or(0),
                resp.get("wait_ms").and_then(Json::as_u64).unwrap_or(0),
                resp.get("key").and_then(Json::as_str).unwrap_or("?"),
            );
        } else {
            failures += 1;
            eprintln!(
                "{path}: error: {} ({})",
                resp.get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("request failed"),
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown"),
            );
        }
    }
    if args.has("json") {
        let all: Vec<Json> = outcomes.into_iter().map(Option::unwrap).collect();
        println!("{}", Json::Arr(all).to_pretty());
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} submissions failed",
            args.positional.len()
        ));
    }
    Ok(())
}

fn cmd_cache(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or(SERVE_ADDR);
    let action = match (args.has("compact"), args.has("clear")) {
        (true, true) => return Err("pick one of --compact / --clear".to_string()),
        (true, false) => "compact",
        (false, true) => "clear",
        (false, false) => "stats",
    };
    let mut client = chipmunk_serve::Client::connect(addr)
        .map_err(|e| format!("connect {addr}: {e} (is `chipmunkc serve` running?)"))?;
    let response = client.cache(action).map_err(|e| format!("{addr}: {e}"))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "server: {} ({})",
            response
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("request failed"),
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
        ));
    }
    println!("{}", response.to_pretty());
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or(SERVE_ADDR);
    if args.has("batch") {
        return cmd_submit_batch(args, addr);
    }
    let response = if args.has("status")
        || args.has("stats")
        || args.has("shutdown")
        || args.has("shutdown-now")
    {
        // Control ops are not retried: probing or stopping a server that
        // is down should say so immediately.
        let mut client = chipmunk_serve::Client::connect(addr)
            .map_err(|e| format!("connect {addr}: {e} (is `chipmunkc serve` running?)"))?;
        if args.has("status") {
            client.status()
        } else if args.has("stats") {
            client.stats()
        } else {
            client.shutdown(args.has("shutdown-now"))
        }
        .map_err(|e| format!("{addr}: {e}"))?
    } else {
        // Compiles are idempotent under the content-addressed cache, so
        // transient failures (busy, queue_full, a reset connection) are
        // retried with jittered backoff.
        let path = file_arg(args)?;
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let options = submit_options(args)?;
        let priority = priority_from_args(args)?;
        if let Some(trace_id) = args.get("trace") {
            // A caller-chosen trace id pins one submission to one server
            // span tree, so retrying under the same id would conflate
            // attempts — this path submits exactly once.
            let mut client = chipmunk_serve::Client::connect(addr)
                .map_err(|e| format!("connect {addr}: {e} (is `chipmunkc serve` running?)"))?;
            client.set_priority(priority);
            client
                .compile_traced(&source, options, Some(trace_id))
                .map_err(|e| format!("{addr}: {e}"))?
        } else {
            let mut client = chipmunk_serve::RetryingClient::new(addr, retry_policy(args)?);
            client.set_priority(priority);
            client.set_deadline(client_deadline(args)?);
            let resp = client
                .compile(&source, &options)
                .map_err(|e| format!("{addr}: {e} (is `chipmunkc serve` running?)"))?;
            if client.retries() > 0 {
                eprintln!("(retried {} transient failure(s))", client.retries());
            }
            resp
        }
    };
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "server: {} ({})",
            response
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("request failed"),
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
        ));
    }
    if let Some(cached) = response.get("cached").and_then(Json::as_bool) {
        eprintln!(
            "{} in {} ms (queued {} ms), key {}, trace {}",
            if cached { "cache hit" } else { "compiled" },
            response.get("synth_ms").and_then(Json::as_u64).unwrap_or(0),
            response.get("wait_ms").and_then(Json::as_u64).unwrap_or(0),
            response.get("key").and_then(Json::as_str).unwrap_or("?"),
            response.get("trace").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    if args.has("json") || response.get("cached").is_none() {
        println!("{}", response.to_pretty());
    }
    Ok(())
}

/// Render one span-tree node as an indented line plus its events, then
/// recurse into its children. `fields` are the open-time annotations,
/// `close_fields` (after `=>`) the ones recorded at close; a node with
/// no `dur_us` is still open (or its close expired from the ring).
fn render_span_tree(node: &Json, depth: usize) {
    let pad = "  ".repeat(depth);
    let name = node.get("span").and_then(Json::as_str).unwrap_or("?");
    let dur = match node.get("dur_us").and_then(Json::as_u64) {
        Some(us) => format!("{:.1} ms", us as f64 / 1000.0),
        None => "open".to_string(),
    };
    let mut line = format!("{pad}{name} [{dur}]");
    if let Some(f) = node.get("fields") {
        line.push(' ');
        line.push_str(&f.to_compact());
    }
    if let Some(f) = node.get("close_fields") {
        line.push_str(" => ");
        line.push_str(&f.to_compact());
    }
    println!("{line}");
    if let Some(Json::Arr(events)) = node.get("events") {
        for ev in events {
            println!(
                "{pad}  · {} {}",
                ev.get("span").and_then(Json::as_str).unwrap_or("?"),
                ev.get("fields").map(Json::to_compact).unwrap_or_default(),
            );
        }
    }
    if let Some(Json::Arr(children)) = node.get("children") {
        for child in children {
            render_span_tree(child, depth + 1);
        }
    }
}

/// `chipmunkc trace --job <trace-id>`: fetch the buffered span tree for
/// one job from the daemon's trace ring and print it indented (or raw
/// with `--json`).
fn cmd_trace(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or(SERVE_ADDR);
    let trace_id = args
        .get("job")
        .ok_or_else(|| "trace needs --job <trace-id>".to_string())?;
    let mut client = chipmunk_serve::Client::connect(addr)
        .map_err(|e| format!("connect {addr}: {e} (is `chipmunkc serve` running?)"))?;
    let response = client.trace(trace_id).map_err(|e| format!("{addr}: {e}"))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "server: {} ({})",
            response
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("request failed"),
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
        ));
    }
    if response.get("found").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "no buffered spans for trace id `{trace_id}` (expired from the ring, or never seen)"
        ));
    }
    let tree = response
        .get("tree")
        .ok_or_else(|| "server sent no span tree".to_string())?;
    if args.has("json") {
        println!("{}", tree.to_pretty());
    } else {
        println!("trace {trace_id}");
        render_span_tree(tree, 0);
    }
    Ok(())
}

/// One `top` frame: latency percentiles per stage, outcome counts,
/// cache hit rate, solver totals, and the daemon's queue state.
fn render_top(resp: &Json) {
    let count = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "jobs: {} submitted, {} completed, {} failed, {} served from cache",
        count(resp, "submitted"),
        count(resp, "completed"),
        count(resp, "failed"),
        count(resp, "served_cached"),
    );
    let hit_rate = match resp.get("cache_hit_rate").and_then(Json::as_f64) {
        Some(r) => format!("{:.1}%", r * 100.0),
        None => "n/a".to_string(),
    };
    println!(
        "queue: {} deep, {} in flight; cache hit rate {}",
        count(resp, "queue_depth"),
        count(resp, "in_flight"),
        hit_rate,
    );
    if let Some(outcomes) = resp.get("outcomes") {
        println!(
            "outcomes: fresh={} cached={} remapped={} failed={}",
            count(outcomes, "fresh"),
            count(outcomes, "cached"),
            count(outcomes, "remapped"),
            count(outcomes, "failed"),
        );
    }
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "latency", "count", "p50", "p95", "p99"
    );
    let ms = |summary: &Json, key: &str| match summary.get(key).and_then(Json::as_u64) {
        Some(us) => format!("{:.1} ms", us as f64 / 1000.0),
        None => "-".to_string(),
    };
    for stage in ["queue_wait", "compile", "certify", "remap", "e2e"] {
        match resp.get("stages").and_then(|s| s.get(stage)) {
            Some(summary) if !matches!(summary, Json::Null) => println!(
                "{:<12} {:>8} {:>10} {:>10} {:>10}",
                stage,
                count(summary, "count"),
                ms(summary, "p50_us"),
                ms(summary, "p95_us"),
                ms(summary, "p99_us"),
            ),
            _ => println!("{stage:<12} {:>8} {:>10} {:>10} {:>10}", 0, "-", "-", "-"),
        }
    }
    if let Some(solver) = resp.get("solver") {
        println!(
            "solver: {} conflicts, {} propagations, {} clause bytes, {} budget trips",
            count(solver, "conflicts"),
            count(solver, "propagations"),
            count(solver, "clause_bytes"),
            count(solver, "budget_trips"),
        );
        println!(
            "verify: {} conflicts, {} propagations",
            count(solver, "verify_conflicts"),
            count(solver, "verify_propagations"),
        );
    }
    match resp.get("metrics_addr").and_then(Json::as_str) {
        Some(addr) => println!("metrics: http://{addr}/metrics"),
        None => println!("metrics: disabled"),
    }
    println!(
        "trace ring: {} span record(s) buffered, {} dropped",
        count(resp, "trace_buffered"),
        count(resp, "trace_dropped"),
    );
}

/// `chipmunkc top`: render the daemon's `telemetry` op — latency SLO
/// percentiles, outcome counts, cache hit rate, and solver totals.
/// `--watch SECS` reconnects and redraws in a loop.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or(SERVE_ADDR);
    let watch: u64 = args.num("watch", 0)?;
    loop {
        let mut client = chipmunk_serve::Client::connect(addr)
            .map_err(|e| format!("connect {addr}: {e} (is `chipmunkc serve` running?)"))?;
        let response = client.telemetry().map_err(|e| format!("{addr}: {e}"))?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "server: {} ({})",
                response
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("request failed"),
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown"),
            ));
        }
        if args.has("json") {
            println!("{}", response.to_pretty());
        } else {
            println!("chipmunk-serve @ {addr}");
            render_top(&response);
        }
        if watch == 0 {
            return Ok(());
        }
        println!();
        std::thread::sleep(Duration::from_secs(watch));
    }
}

fn cmd_trace_report(args: &Args) -> Result<(), String> {
    let path = file_arg(args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = chipmunk_trace::report::summarize(&text);
    print!("{}", report.render());
    Ok(())
}

fn cmd_domino(args: &Args) -> Result<(), String> {
    let prog = load(file_arg(args)?)?;
    let imm: u8 = args.num("imm", 4)?;
    let opts = DominoOptions {
        width: args.num("width", 10)?,
        stateless: StatelessAluSpec::banzai(imm),
        stateful: template(args.get("template").unwrap_or("if_else_raw"), imm)?,
    };
    let out = domino_compile(&prog, &opts).map_err(|e| e.to_string())?;
    println!(
        "compiled: {} stage(s), max {} ALU(s)/stage, {} total ALU(s)",
        out.resources.stages_used, out.resources.max_alus_per_stage, out.resources.total_alus
    );
    Ok(())
}

fn cmd_repair(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("trace") {
        chipmunk_trace::init_jsonl(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    let prog = load(file_arg(args)?)?;
    let imm: u8 = args.num("imm", 4)?;
    let mut opts = RepairOptions::new(DominoOptions {
        width: args.num("width", 10)?,
        stateless: StatelessAluSpec::banzai(imm),
        stateful: template(args.get("template").unwrap_or("if_else_raw"), imm)?,
    });
    opts.max_depth = args.num("depth", 2)?;
    match suggest(&prog, &opts) {
        Ok(hint) => {
            println!(
                "repairable with {} rewrite(s) {:?} — suggested program:\n\n{}",
                hint.steps.len(),
                hint.steps,
                hint.program
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_mutate(args: &Args) -> Result<(), String> {
    let mut prog = load(file_arg(args)?)?;
    chipmunk_lang::passes::eliminate_hashes(&mut prog);
    let n: usize = args.num("n", 5)?;
    let seed: u64 = args.num("seed", 2019)?;
    for (i, m) in chipmunk_mutate::mutations(&prog, seed, n)
        .iter()
        .enumerate()
    {
        println!("// mutation {i}\n{m}");
    }
    Ok(())
}

fn cmd_superopt(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("trace") {
        chipmunk_trace::init_jsonl(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    let prog = load(file_arg(args)?)?;
    let imm: u8 = args.num("imm", 4)?;
    let alu = if args.has("full-alu") {
        StatelessAluSpec::banzai(imm)
    } else {
        StatelessAluSpec::arith_only(imm)
    };
    let mut opts = SuperoptOptions::new(alu);
    opts.width = args.num("width", 8)?;
    opts.max_len = args.num("max-len", 4)?;
    let out = superoptimize(&prog, &opts).map_err(|e| e.to_string())?;
    println!(
        "optimal: {} instruction(s) (shorter lengths proven impossible)\n{}",
        out.instrs.len(),
        out.listing()
    );
    Ok(())
}

/// Parse a CSV packet trace: header = field names (any order, a subset is
/// allowed — missing fields stay 0), one packet per row.
fn load_trace(path: &str, prog: &Program) -> Result<Vec<Vec<u64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| format!("{path}: empty trace"))?;
    let cols: Vec<usize> = header
        .split(',')
        .map(|name| {
            let name = name.trim();
            prog.field_names()
                .iter()
                .position(|f| f == name)
                .ok_or_else(|| format!("{path}: unknown field `{name}` in header"))
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for (ln, line) in lines.enumerate() {
        let mut fields = vec![0u64; prog.field_names().len()];
        for (ci, cell) in line.split(',').enumerate() {
            let f = *cols
                .get(ci)
                .ok_or_else(|| format!("{path}:{}: too many columns", ln + 2))?;
            fields[f] = cell
                .trim()
                .parse()
                .map_err(|_| format!("{path}:{}: bad value `{}`", ln + 2, cell.trim()))?;
        }
        out.push(fields);
    }
    Ok(out)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let prog = load(file_arg(args)?)?;
    let imm: u8 = 4;
    let mut opts = CompilerOptions::new(template(
        args.get("template").unwrap_or("if_else_raw"),
        imm,
    )?);
    opts.cegis.verify_width = args.num("width", 10)?;
    opts.cegis.budget = budget_from_args(args)?;
    opts.timeout = Some(Duration::from_secs(args.num("timeout", 300)?));
    let out = compile(&prog, &opts).map_err(|e| e.to_string())?;
    let mut hashfree = prog.clone();
    if hashfree.stmts().iter().any(|s| s.contains_hash()) {
        chipmunk_lang::passes::eliminate_hashes(&mut hashfree);
    }
    let width: u8 = args.num("width", 10)?;
    let trace: Option<Vec<Vec<u64>>> = match args.get("trace") {
        None => None,
        Some(path) => Some(load_trace(path, &hashfree)?),
    };
    let n: usize = trace
        .as_ref()
        .map(|t| t.len())
        .unwrap_or(args.num("packets", 10)?);
    let mut pipe = Pipeline::new(
        out.grid.clone(),
        out.decoded.pipeline.clone(),
        hashfree.state_names().len(),
        width,
    )
    .map_err(|e| e.to_string())?;
    let interp = Interpreter::new(&hashfree, width);
    let mut st = PacketState::zeroed(&hashfree);
    println!("pkt | {} | states", hashfree.field_names().join(" "));
    let mut s = 0x5eedu64;
    for k in 0..n {
        match &trace {
            Some(t) => st.fields.copy_from_slice(&t[k]),
            None => {
                // Random read-only inputs; written fields start at 0.
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                for (i, v) in st.fields.iter_mut().enumerate() {
                    *v = (s >> (7 * i + 3)) & ((1 << width.min(10)) - 1);
                }
            }
        }
        let mut phv = vec![0u64; out.grid.slots];
        for (f, &c) in out.decoded.field_to_container.iter().enumerate() {
            phv[c] = st.fields[f];
        }
        let phv_out = pipe.exec(&phv);
        st = interp.exec(&st);
        let hw: Vec<u64> = out
            .decoded
            .field_to_container
            .iter()
            .map(|&c| phv_out[c])
            .collect();
        if hw != st.fields {
            return Err(format!(
                "packet {k}: hardware {hw:?} != spec {:?}",
                st.fields
            ));
        }
        println!("{k:>3} | {:?} | {:?}", hw, st.states);
    }
    eprintln!("hardware matched the specification on all {n} packets");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    /// Satellite guarantee of the defaults dedup: a flagless local
    /// `compile` and a flagless `submit` decoded by the serve protocol
    /// materialize the *same* `CompilerOptions` — both paths resolve
    /// against `CompilerOptions::service_defaults`, so a new knob cannot
    /// silently diverge between the CLI and the daemon.
    #[test]
    fn cli_and_protocol_default_options_are_identical() {
        let local = compile_options_from_args(&argv(&[])).unwrap();
        let wire = submit_options(&argv(&[])).unwrap();
        let decoded = chipmunk_serve::JobOptions::from_json(&wire)
            .unwrap()
            .to_compiler_options()
            .unwrap();
        assert_eq!(format!("{local:?}"), format!("{decoded:?}"));
        // And both are the service defaults themselves.
        assert_eq!(
            format!("{local:?}"),
            format!("{:?}", CompilerOptions::service_defaults())
        );
    }

    /// The shared flags reach both paths identically too.
    #[test]
    fn cli_and_protocol_flagged_options_agree() {
        let flags = [
            "--imm",
            "3",
            "--width",
            "6",
            "--max-stages",
            "2",
            "--timeout",
            "5",
            "--template",
            "raw",
            "--portfolio",
        ];
        let local = compile_options_from_args(&argv(&flags)).unwrap();
        let decoded =
            chipmunk_serve::JobOptions::from_json(&submit_options(&argv(&flags)).unwrap())
                .unwrap()
                .to_compiler_options()
                .unwrap();
        assert!(local.portfolio && decoded.portfolio);
        assert_eq!(format!("{local:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn priority_flag_is_validated() {
        assert_eq!(priority_from_args(&argv(&[])).unwrap(), 0);
        assert_eq!(priority_from_args(&argv(&["--priority", "9"])).unwrap(), 9);
        assert!(priority_from_args(&argv(&["--priority", "10"])).is_err());
    }
}
