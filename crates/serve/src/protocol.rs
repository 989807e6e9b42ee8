//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request; a client may
//! pipeline many requests on one connection. Grammar (each `<…>` a
//! single line):
//!
//! ```text
//! request  := compile | poll | status | stats | cache | shutdown
//!           | trace | telemetry
//! compile  := {"op":"compile","id":<scalar>?,"trace":<string>?,
//!              "priority":<int 0..=9>?,
//!              "program":<string>,"options":<options>?}
//! poll     := {"op":"poll","id":<scalar>?,"program":<string>,"options":<options>?}
//! status   := {"op":"status","id":<scalar>?}
//! stats    := {"op":"stats","id":<scalar>?}
//! cache    := {"op":"cache","id":<scalar>?,"action":"stats"|"compact"|"clear"?}
//! shutdown := {"op":"shutdown","id":<scalar>?,"mode":"drain"|"abort"?}
//! trace    := {"op":"trace","id":<scalar>?,"trace":<string>}
//! telemetry:= {"op":"telemetry","id":<scalar>?}
//! options  := {"template":<string>?,"imm":<int>?,"width":<int>?,
//!              "screen_width":<int>?,"synth_input_bits":<int>?,
//!              "num_initial_inputs":<int>?,"max_iters":<int>?,"seed":<int>?,
//!              "max_stages":<int>?,"slots":<int>?,"timeout_ms":<int>?,
//!              "deadline_ms":<int>?,"portfolio":<bool>?,
//!              "budget_conflicts":<int>?,
//!              "budget_propagations":<int>?,"budget_bytes":<int>?}
//! ```
//!
//! **Priorities.** A compile may carry a `priority` (0–9, default 0):
//! the job queue pops the highest level first, FIFO within a level. The
//! priority rides in the journal's `accepted` record so replayed jobs
//! keep their place, but it is *not* part of the cache key — it changes
//! when a job runs, never what it means.
//!
//! **Trace propagation.** A compile may carry a client-chosen `trace`
//! string (≤ 128 chars); the daemon assigns one otherwise. The id is
//! echoed as the `trace` field of every response for that job, recorded
//! in the job journal's `accepted`/`completed` records, and attached to
//! the job's `serve.job` span, under which the per-job `cegis.*`/`sat.*`
//! spans nest. The `trace` op looks a recent job's full span tree up by
//! that id from the daemon's in-memory ring buffer; `telemetry` returns
//! rolling latency percentiles (queue wait, compile, certify, remap,
//! end-to-end), per-outcome job counts, and cumulative solver gauges,
//! plus every figure `stats` reports (the ledger, the cache hit rate, the
//! gauges) under the same names.
//!
//! `poll` is a compile-shaped lookup that never enqueues work: it answers
//! `{"ok":true,"found":true,…}` with the (certified) cached result for the
//! same program+options, or `{"ok":true,"found":false}`. Clients use it to
//! collect results of jobs the daemon recovered from its journal after a
//! crash, without risking a duplicate compile.
//!
//! **Pipelining and ordering.** A request may carry a client-chosen `id`
//! (any JSON scalar — string or number), echoed verbatim as the `id`
//! field of its response line. Control responses (`status`, `stats`,
//! `cache`, `shutdown`, and every request-level error) are written in
//! request order, but `compile` responses stream back **in completion
//! order** — a cache hit overtakes a synthesis run submitted before it.
//! Clients pipelining more than one compile on a connection must match
//! responses by `id`; a lockstep client (one request outstanding) needs
//! no ids and sees the classic one-in-one-out behavior.
//!
//! Responses always carry `"ok"`: successes are `{"ok":true,…}`, failures
//! `{"ok":false,"error":<code>,"message":<string>}` with codes `parse`,
//! `bad_request`, `too_large`, `infeasible`, `timeout`, `queue_full`,
//! `busy` (connection limit reached — sent once on accept, then the
//! connection closes), `io` (a cache maintenance action hit the disk),
//! `internal` (the compiler panicked or its worker died mid-job; the
//! worker pool has been respawned and the compile is safe to retry),
//! `uncertified` (a synthesized configuration failed the independent
//! certification check and was withheld — a compiler defect surfaced as
//! data), `expired` (the job's deadline elapsed before a worker could
//! finish — or even start — it), `shed` (the queue evicted this job to
//! admit a higher-priority one under saturation), `shutting_down`.
//!
//! **Deadlines.** A compile may carry `deadline_ms`: the total
//! wall-clock time the client is willing to wait, measured from
//! admission and covering queue wait, synthesis, and certification. The
//! daemon defaults it from `--default-deadline-ms` when absent. Unlike
//! `timeout_ms` (which bounds only the compile step), the deadline also
//! expires jobs still in the queue, and the plan executor converts the
//! *remaining* time into per-step solver budgets. Like `timeout_ms` it
//! is excluded from the cache key. A `busy` or `queue_full` rejection
//! issued during brownout may carry `retry_after_ms`, the daemon's
//! estimate of when capacity will return; retrying clients should wait
//! at least that long.
//!
//! An `infeasible` failure additionally carries `certified` (true when
//! the daemon re-checked a DRAT proof of the verdict before serving
//! it), `quarantined`/`fresh_resolve` (the degrade ladder the verdict
//! travelled), `proof_lemmas`/`proof_bytes`, a `proof` field holding the
//! certificate text when one was retained, and `unchecked_reason` when
//! it was not — see [`infeasible_response`].
//!
//! Unknown `options` keys are ignored, so a request or journal record
//! from an older client — say, one carrying the removed `parallel`
//! flag — still decodes and runs the default plan.
//!
//! The three `budget_*` options are hard solver resource ceilings
//! (conflicts, unit propagations, learnt-clause/arena bytes); a job that
//! trips one fails with the `timeout` code, exactly like a wall-clock
//! deadline, and is excluded from the cache key (budgets bound the
//! *work*, not the meaning of the answer).
//!
//! **Untrusted input.** Everything in this module runs on raw client
//! bytes, so the whole non-test file is compiled under
//! `deny(clippy::unwrap_used)` / `expect_used` / `panic`: malformed input
//! must flow out as a typed `parse`/`bad_request` response, never unwind
//! a connection thread. Two bounds keep hostile input from exhausting the
//! daemon, and both answer `parse`: a request line longer than 1 MiB gets
//! one error line with no `id` (nothing was decoded) and its connection
//! is closed; a `program` nested deeper than
//! [`chipmunk_lang::MAX_NESTING`] levels is refused by the parser, before
//! any pass recurses over it.
//!
//! A compile success's `result` object carries `fields` and `states`
//! name arrays naming the indices of `field_to_container` — always in the
//! *requester's* first-use order, even when the result is served from
//! cache on behalf of a differently-numbered equivalent program (see
//! [`remap_result`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use chipmunk::{CodegenError, CodegenSuccess, CompilerOptions, InfeasibleCert, ResourceBudget};
use chipmunk_lang::PacketState;
use chipmunk_pisa::{stateful::library, PipelineConfig, StatefulAluSpec, StatelessAluSpec};
use chipmunk_trace::json::Json;

/// A decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Compile a packet transaction (source text) under the given options.
    Compile {
        /// Domino-dialect source of the program.
        program: String,
        /// Knobs; anything omitted takes the server default.
        options: JobOptions,
        /// Client-supplied trace id; the server assigns one when absent.
        trace: Option<String>,
        /// Queue priority (0–9, default 0); higher pops first.
        priority: u8,
    },
    /// Cache-only lookup for the same program+options — answers from the
    /// result cache (certified) or reports `found: false`; never compiles.
    Poll {
        /// Domino-dialect source of the program.
        program: String,
        /// Knobs; anything omitted takes the server default.
        options: JobOptions,
    },
    /// Liveness + queue occupancy probe.
    Status,
    /// Counter snapshot (cache hits/misses, synth time, rejects, …).
    Stats,
    /// Inspect or maintain the result cache.
    Cache {
        /// What to do to the cache.
        action: CacheAction,
    },
    /// Stop the server: `abort = false` drains queued jobs first,
    /// `abort = true` cancels in-flight synthesis and fails queued jobs.
    Shutdown {
        /// Cancel in-flight work instead of draining.
        abort: bool,
    },
    /// Look up the span tree of a recent job by its trace id.
    Trace {
        /// The trace id to look up (as echoed in a compile response).
        trace: String,
    },
    /// Rolling latency percentiles, cache hit rate, and solver gauges.
    Telemetry,
}

/// The maintenance verb of a `cache` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheAction {
    /// Report entry counts, bounds, evictions, disk lines, compactions.
    Stats,
    /// Rewrite `results.jsonl` down to the retained entries.
    Compact,
    /// Drop every entry from both tiers.
    Clear,
}

/// One parsed request line: the echoed `id` (if any) plus the decoded
/// request or the error to answer with. The `id` is extracted even when
/// decoding fails, so a pipelining client can match the error to its
/// request — only a line that is not a JSON object at all has no `id`.
pub struct Incoming {
    /// Client-chosen correlation token, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The request, or the message for a `parse` / `bad_request` error.
    pub request: Result<Request, String>,
}

/// Parse one request line, keeping the `id` separate from the outcome.
pub fn parse_line(line: &str) -> Incoming {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => {
            return Incoming {
                id: None,
                request: Err(e.to_string()),
            }
        }
    };
    let id = match doc.get("id") {
        None | Some(Json::Null) => None,
        Some(v @ (Json::Str(_) | Json::U64(_) | Json::I64(_))) => Some(v.clone()),
        Some(_) => {
            return Incoming {
                id: None,
                request: Err("`id` must be a string or an integer".to_string()),
            }
        }
    };
    Incoming {
        id,
        request: decode_request(&doc),
    }
}

/// Echo `id` (when present) as the first field of a response object.
pub fn with_id(response: Json, id: Option<Json>) -> Json {
    match (response, id) {
        (Json::Obj(mut pairs), Some(id)) => {
            pairs.insert(0, ("id".to_string(), id));
            Json::Obj(pairs)
        }
        (response, _) => response,
    }
}

/// Per-job compilation knobs, mirroring `chipmunkc compile` flags.
#[derive(Clone, Debug, Default)]
pub struct JobOptions {
    /// Stateful ALU template name (`raw`, `pred_raw`, `if_else_raw`, …).
    pub template: Option<String>,
    /// Immediate-operand bit width for both ALU kinds.
    pub imm: Option<u8>,
    /// CEGIS verification width.
    pub width: Option<u8>,
    /// Screening-verifier width (`None` keeps the default).
    pub screen_width: Option<u8>,
    /// Initial-input sampling width.
    pub synth_input_bits: Option<u8>,
    /// Number of random initial inputs.
    pub num_initial_inputs: Option<usize>,
    /// CEGIS iteration cap.
    pub max_iters: Option<usize>,
    /// Sampling seed.
    pub seed: Option<u64>,
    /// Deepest grid to try.
    pub max_stages: Option<usize>,
    /// PHV containers / ALUs per stage.
    pub slots: Option<usize>,
    /// Per-job wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Total time the client will wait (queue + compile + certify),
    /// measured from admission. Server-defaulted when absent; excluded
    /// from the cache key. See the module doc's **Deadlines** section.
    pub deadline_ms: Option<u64>,
    /// Race hole-restriction strategies per depth; the first certified
    /// win cancels the rest.
    pub portfolio: Option<bool>,
    /// Hard ceiling on SAT conflicts per solver run.
    pub budget_conflicts: Option<u64>,
    /// Hard ceiling on unit propagations per solver run.
    pub budget_propagations: Option<u64>,
    /// Hard ceiling on clause-arena bytes per solver.
    pub budget_bytes: Option<u64>,
}

fn alu_template(name: &str, imm: u8) -> Result<StatefulAluSpec, String> {
    library::by_name(name, imm).ok_or_else(|| format!("unknown template `{name}`"))
}

fn get_num<T: TryFrom<u64>>(obj: &Json, key: &str) -> Result<Option<T>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
            T::try_from(n)
                .map(Some)
                .map_err(|_| format!("`{key}` out of range"))
        }
    }
}

impl JobOptions {
    /// Decode from the `options` object of a compile request.
    pub fn from_json(obj: &Json) -> Result<JobOptions, String> {
        if !matches!(obj, Json::Obj(_)) {
            return Err("`options` must be an object".to_string());
        }
        let template = match obj.get("template") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("`template` must be a string")?.to_string()),
        };
        let portfolio = match obj.get("portfolio") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_bool().ok_or("`portfolio` must be a bool")?),
        };
        Ok(JobOptions {
            template,
            imm: get_num(obj, "imm")?,
            width: get_num(obj, "width")?,
            screen_width: get_num(obj, "screen_width")?,
            synth_input_bits: get_num(obj, "synth_input_bits")?,
            num_initial_inputs: get_num(obj, "num_initial_inputs")?,
            max_iters: get_num(obj, "max_iters")?,
            seed: get_num(obj, "seed")?,
            max_stages: get_num(obj, "max_stages")?,
            slots: get_num(obj, "slots")?,
            timeout_ms: get_num(obj, "timeout_ms")?,
            deadline_ms: get_num(obj, "deadline_ms")?,
            portfolio,
            budget_conflicts: get_num(obj, "budget_conflicts")?,
            budget_propagations: get_num(obj, "budget_propagations")?,
            budget_bytes: get_num(obj, "budget_bytes")?,
        })
    }

    /// Serialize back to the wire `options` object (only the fields that
    /// are set) — the inverse of [`JobOptions::from_json`], used by the
    /// job journal to make accepted jobs replayable across a restart.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut num = |k: &str, v: Option<u64>| {
            if let Some(v) = v {
                pairs.push((k.to_string(), Json::from(v)));
            }
        };
        num("imm", self.imm.map(u64::from));
        num("width", self.width.map(u64::from));
        num("screen_width", self.screen_width.map(u64::from));
        num("synth_input_bits", self.synth_input_bits.map(u64::from));
        num(
            "num_initial_inputs",
            self.num_initial_inputs.map(|v| v as u64),
        );
        num("max_iters", self.max_iters.map(|v| v as u64));
        num("seed", self.seed);
        num("max_stages", self.max_stages.map(|v| v as u64));
        num("slots", self.slots.map(|v| v as u64));
        num("timeout_ms", self.timeout_ms);
        num("deadline_ms", self.deadline_ms);
        num("budget_conflicts", self.budget_conflicts);
        num("budget_propagations", self.budget_propagations);
        num("budget_bytes", self.budget_bytes);
        if let Some(t) = &self.template {
            pairs.push(("template".to_string(), Json::from(t.as_str())));
        }
        if let Some(p) = self.portfolio {
            pairs.push(("portfolio".to_string(), Json::Bool(p)));
        }
        Json::Obj(pairs)
    }

    /// Materialize full [`CompilerOptions`], filling gaps from
    /// [`CompilerOptions::service_defaults`] — the single constructor the
    /// CLI builds from too, so the two paths cannot diverge.
    pub fn to_compiler_options(&self) -> Result<CompilerOptions, String> {
        let imm = self.imm.unwrap_or(CompilerOptions::SERVICE_IMM_BITS);
        let template = self
            .template
            .as_deref()
            .unwrap_or(CompilerOptions::SERVICE_TEMPLATE);
        let mut opts = CompilerOptions::service_defaults();
        opts.stateful = alu_template(template, imm)?;
        opts.stateless = StatelessAluSpec::banzai(imm);
        if let Some(w) = self.width {
            opts.cegis.verify_width = w;
        }
        if let Some(w) = self.screen_width {
            opts.cegis.screen_width = Some(w);
        }
        if let Some(b) = self.synth_input_bits {
            opts.cegis.synth_input_bits = b;
        }
        if let Some(n) = self.num_initial_inputs {
            opts.cegis.num_initial_inputs = n;
        }
        if let Some(n) = self.max_iters {
            opts.cegis.max_iters = n;
        }
        if let Some(s) = self.seed {
            opts.cegis.seed = s;
        }
        opts.cegis.budget = ResourceBudget {
            conflicts: self.budget_conflicts,
            propagations: self.budget_propagations,
            clause_bytes: self.budget_bytes,
        };
        if let Some(m) = self.max_stages {
            opts.max_stages = m;
        }
        opts.slots = self.slots;
        if let Some(t) = self.timeout_ms {
            opts.timeout = Some(std::time::Duration::from_millis(t));
        }
        opts.portfolio = self.portfolio.unwrap_or(false);
        Ok(opts)
    }
}

/// Parse one request line (convenience wrapper over [`parse_line`] that
/// drops the `id`).
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_line(line).request
}

fn decode_request(doc: &Json) -> Result<Request, String> {
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing `op` field")?;
    match op {
        "compile" | "poll" => {
            let program = doc
                .get("program")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{op} needs a `program` string"))?
                .to_string();
            let options = match doc.get("options") {
                None | Some(Json::Null) => JobOptions::default(),
                Some(o) => JobOptions::from_json(o)?,
            };
            Ok(if op == "poll" {
                Request::Poll { program, options }
            } else {
                Request::Compile {
                    program,
                    options,
                    trace: decode_trace_id(doc)?,
                    priority: decode_priority(doc)?,
                }
            })
        }
        "status" => Ok(Request::Status),
        "stats" => Ok(Request::Stats),
        "cache" => {
            let action = match doc.get("action").and_then(Json::as_str) {
                None | Some("stats") => CacheAction::Stats,
                Some("compact") => CacheAction::Compact,
                Some("clear") => CacheAction::Clear,
                Some(other) => return Err(format!("unknown cache action `{other}`")),
            };
            Ok(Request::Cache { action })
        }
        "shutdown" => {
            let abort = match doc.get("mode").and_then(Json::as_str) {
                None | Some("drain") => false,
                Some("abort") => true,
                Some(other) => return Err(format!("unknown shutdown mode `{other}`")),
            };
            Ok(Request::Shutdown { abort })
        }
        "trace" => {
            let trace =
                decode_trace_id(doc)?.ok_or("trace needs a `trace` id string".to_string())?;
            Ok(Request::Trace { trace })
        }
        "telemetry" => Ok(Request::Telemetry),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Highest queue priority a client may request.
pub const MAX_PRIORITY: u8 = 9;

fn decode_priority(doc: &Json) -> Result<u8, String> {
    let p: u8 = get_num(doc, "priority")?.unwrap_or(0);
    if p > MAX_PRIORITY {
        return Err(format!("`priority` must be 0..={MAX_PRIORITY}"));
    }
    Ok(p)
}

/// Longest trace id accepted from a client; longer ids are a
/// `bad_request`, so a hostile client cannot bloat the journal or the
/// span store with megabyte correlation tokens.
pub const MAX_TRACE_ID_LEN: usize = 128;

fn decode_trace_id(doc: &Json) -> Result<Option<String>, String> {
    match doc.get("trace") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let s = v.as_str().ok_or("`trace` must be a string")?;
            if s.is_empty() {
                return Err("`trace` must be non-empty".to_string());
            }
            if s.len() > MAX_TRACE_ID_LEN {
                return Err(format!("`trace` longer than {MAX_TRACE_ID_LEN} bytes"));
            }
            Ok(Some(s.to_string()))
        }
    }
}

/// Echo a job's trace id as a leading field of a response object (the
/// `id` echo from [`with_id`] still ends up first — the server applies
/// `with_trace` before `with_id`).
pub fn with_trace(response: Json, trace: &str) -> Json {
    match response {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("trace".to_string(), Json::from(trace)));
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// Build a failure response line.
pub fn error_response(code: &str, message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(code)),
        ("message", Json::from(message)),
    ])
}

/// Build a failure response carrying a `retry_after_ms` backoff hint —
/// used by brownout refusals so well-behaved clients pace their retries
/// to the server's estimate of when capacity frees up.
pub fn error_response_retry(code: &str, message: &str, retry_after_ms: u64) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(code)),
        ("message", Json::from(message)),
        ("retry_after_ms", Json::U64(retry_after_ms)),
    ])
}

/// Build the failure response for an infeasible verdict, carrying its
/// certification record. `certified` is the trust bit clients key on:
/// true means an in-process DRAT checker validated an UNSAT proof of
/// the deepest depth tried, so "cannot fit in k stages" is as
/// trustworthy as a shipped configuration. `proof` is the certificate
/// text when one was retained (re-checkable with `chipmunkc
/// check-proof`); `unchecked_reason` says why when it was not.
pub fn infeasible_response(message: &str, cert: &InfeasibleCert) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::from("infeasible")),
        ("message".to_string(), Json::from(message)),
        ("certified".to_string(), Json::from(cert.certified)),
        ("quarantined".to_string(), Json::from(cert.quarantined)),
        ("fresh_resolve".to_string(), Json::from(cert.fresh_resolve)),
        ("proof_lemmas".to_string(), Json::from(cert.lemmas)),
        ("proof_bytes".to_string(), Json::from(cert.proof_bytes)),
    ];
    if let Some(reason) = &cert.reason {
        pairs.push(("unchecked_reason".to_string(), Json::from(reason.as_str())));
    }
    if let Some(proof) = &cert.proof {
        pairs.push(("proof".to_string(), Json::from(proof.as_str())));
    }
    Json::Obj(pairs)
}

/// The error code a [`CodegenError`] maps to on the wire.
pub fn codegen_error_code(e: &CodegenError) -> &'static str {
    match e {
        CodegenError::TooLarge(_) => "too_large",
        CodegenError::Infeasible(_) => "infeasible",
        CodegenError::Timeout => "timeout",
        CodegenError::Internal(_) => "internal",
        CodegenError::InvalidOptions(_) => "bad_request",
        CodegenError::Uncertified(_) => "uncertified",
    }
}

/// Serialize a successful compilation: the decoded configuration in the
/// same shape as `chipmunkc compile --json`.
///
/// `fields` / `states` are the compiled program's name lists in index
/// order (see [`chipmunk::layout_names`]); they make the document
/// self-describing, which is what lets a cache hit be remapped to a
/// requester whose program numbers the same names differently
/// ([`remap_result`]).
pub fn result_doc(out: &CodegenSuccess, fields: &[String], states: &[String]) -> Json {
    let names = |ns: &[String]| Json::Arr(ns.iter().map(|n| Json::from(n.as_str())).collect());
    let nums = |vs: &[u64]| Json::Arr(vs.iter().map(|&v| Json::from(v)).collect());
    Json::obj([
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
        // The CEGIS counterexamples that shaped this result, in the same
        // field/state index order as the name lists above. Certification
        // replays them on every later serve of this entry — they are the
        // inputs the program is known to be sensitive to.
        (
            "counterexamples",
            Json::Arr(
                out.counterexamples
                    .iter()
                    .map(|c| Json::obj([("fields", nums(&c.fields)), ("states", nums(&c.states))]))
                    .collect(),
            ),
        ),
        // Work gauges of the synthesis run that *produced* this document.
        // They travel with the cache entry, so a cached or remapped serve
        // reports what the result originally cost, not zero.
        (
            "stats",
            Json::obj([
                ("iterations", Json::from(out.stats.iterations as u64)),
                (
                    "counterexamples",
                    Json::from(out.stats.counterexamples as u64),
                ),
                ("synth_conflicts", Json::from(out.stats.synth_conflicts)),
                (
                    "synth_propagations",
                    Json::from(out.stats.synth_propagations),
                ),
                ("verify_conflicts", Json::from(out.stats.verify_conflicts)),
                (
                    "verify_propagations",
                    Json::from(out.stats.verify_propagations),
                ),
                ("clause_bytes", Json::from(out.stats.clause_bytes)),
                ("budget_trips", Json::from(out.stats.budget_trips)),
            ]),
        ),
    ])
}

fn str_arr<'a>(doc: &'a Json, key: &str) -> Option<Vec<&'a str>> {
    doc.get(key)?
        .as_arr()?
        .iter()
        .map(Json::as_str)
        .collect::<Option<Vec<_>>>()
}

/// Adapt a cached result document to a requester's own field numbering.
///
/// The cache key hashes the *canonicalized* program, which orders
/// operands by field **name** — so two submitters can share a key while
/// numbering fields differently (indices follow first use). The cached
/// `field_to_container` is in the producer's index space; serving it
/// verbatim would mis-wire the requester's fields into the wrong PHV
/// containers. This permutes it into the requester's index space by
/// matching names. The pipeline document itself needs no rewrite: it
/// lives in container space, which is absolute hardware state.
///
/// State order cannot differ between key-equal programs (declarations
/// print at the top of the canonical text in index order), and field name
/// *sets* cannot differ either — so any mismatch here means the entry is
/// not actually equivalent (legacy cache line or an FNV collision).
/// Returns `None` in that case; callers treat it as a miss and recompile.
pub fn remap_result(cached: &Json, fields: &[String], states: &[String]) -> Option<Json> {
    let cached_fields = str_arr(cached, "fields")?;
    let cached_states = str_arr(cached, "states")?;
    if cached_states.len() != states.len()
        || cached_states.iter().zip(states).any(|(a, b)| a != b)
        || cached_fields.len() != fields.len()
    {
        return None;
    }
    if cached_fields.iter().zip(fields).all(|(a, b)| a == b) {
        return Some(cached.clone());
    }
    let f2c = cached
        .get("field_to_container")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<_>>>()?;
    if f2c.len() != cached_fields.len() {
        return None;
    }
    // requester index -> producer index, by name.
    let perm: Vec<usize> = fields
        .iter()
        .map(|name| cached_fields.iter().position(|c| c == name))
        .collect::<Option<_>>()?;
    let remapped: Vec<Json> = perm.iter().map(|&p| Json::from(f2c[p])).collect();
    let Json::Obj(pairs) = cached else {
        return None;
    };
    Some(Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = match k.as_str() {
                    "fields" => Json::Arr(fields.iter().map(|n| Json::from(n.as_str())).collect()),
                    "field_to_container" => Json::Arr(remapped.clone()),
                    // Counterexample inputs are per-field values in the
                    // producer's index space; permute them like the field
                    // map (states cannot be reordered between key-equal
                    // programs). A malformed list becomes empty rather
                    // than being served producer-ordered — certification
                    // still runs its random sweep.
                    "counterexamples" => {
                        Json::Arr(remap_counterexamples(v, &perm).unwrap_or_default())
                    }
                    _ => v.clone(),
                };
                (k.clone(), v)
            })
            .collect(),
    ))
}

/// Permute each counterexample's `fields` array into the requester's
/// index space (`perm[i]` = producer index of the requester's field `i`).
fn remap_counterexamples(v: &Json, perm: &[usize]) -> Option<Vec<Json>> {
    v.as_arr()?
        .iter()
        .map(|cex| {
            let fields = cex.get("fields")?.as_arr()?;
            if fields.len() != perm.len() {
                return None;
            }
            let permuted: Vec<Json> = perm.iter().map(|&p| fields[p].clone()).collect();
            Some(Json::obj([
                ("fields", Json::Arr(permuted)),
                (
                    "states",
                    cex.get("states").cloned().unwrap_or(Json::Arr(vec![])),
                ),
            ]))
        })
        .collect()
}

/// A result document decoded back into the pieces certification needs.
/// Everything here came over the wire or off disk, so decoding is fully
/// defensive: any missing or ill-typed piece is an `Err`, never a panic.
pub struct WireResult {
    /// Grid depth the configuration targets.
    pub stages: usize,
    /// PHV containers / ALUs per stage.
    pub slots: usize,
    /// Container index per program field, requester index order.
    pub field_to_container: Vec<usize>,
    /// The hardware configuration.
    pub pipeline: PipelineConfig,
    /// Recorded CEGIS counterexamples (empty for legacy entries).
    pub counterexamples: Vec<PacketState>,
}

/// Decode a [`result_doc`]-shaped document (fresh, cached, or remapped)
/// for re-certification before it is served.
pub fn decode_result(doc: &Json) -> Result<WireResult, String> {
    let grid = doc.get("grid").ok_or("result has no `grid`")?;
    let dim = |k: &str| -> Result<usize, String> {
        grid.get(k)
            .and_then(Json::as_u64)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| format!("grid has no usable `{k}`"))
    };
    let stages = dim("stages")?;
    let slots = dim("slots")?;
    let field_to_container = doc
        .get("field_to_container")
        .and_then(Json::as_arr)
        .ok_or("result has no `field_to_container` array")?
        .iter()
        .map(|v| v.as_u64().and_then(|c| usize::try_from(c).ok()))
        .collect::<Option<Vec<_>>>()
        .ok_or("`field_to_container` holds a non-index value")?;
    let pipeline =
        PipelineConfig::from_json(doc.get("pipeline").ok_or("result has no `pipeline`")?)
            .map_err(|e| format!("bad pipeline document: {e}"))?;
    let vals = |cex: &Json, k: &str| -> Result<Vec<u64>, String> {
        cex.get(k)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("counterexample has no `{k}` array"))?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("counterexample `{k}` holds a non-integer"))
    };
    let counterexamples = match doc.get("counterexamples").and_then(Json::as_arr) {
        None => Vec::new(), // legacy entry: the random sweep still runs
        Some(arr) => arr
            .iter()
            .map(|cex| {
                Ok(PacketState {
                    fields: vals(cex, "fields")?,
                    states: vals(cex, "states")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(WireResult {
        stages,
        slots,
        field_to_container,
        pipeline,
        counterexamples,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_compile_request() {
        let line = r#"{"op":"compile","program":"pkt.x = pkt.a;","options":{"template":"raw","imm":3,"width":6,"max_stages":2,"timeout_ms":5000,"parallel":true}}"#;
        match parse_request(line).unwrap() {
            Request::Compile {
                program,
                options,
                trace,
                priority,
            } => {
                assert_eq!(program, "pkt.x = pkt.a;");
                assert_eq!(trace, None);
                assert_eq!(priority, 0);
                assert_eq!(options.template.as_deref(), Some("raw"));
                let co = options.to_compiler_options().unwrap();
                assert_eq!(co.cegis.verify_width, 6);
                assert_eq!(co.max_stages, 2);
                assert_eq!(co.timeout, Some(std::time::Duration::from_secs(5)));
                // `parallel` names a removed mode; requests from older
                // clients that still carry it decode and run the default
                // plan.
                assert!(!co.portfolio);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_priority_and_portfolio() {
        let line = r#"{"op":"compile","program":"pkt.x = pkt.a;","priority":7,"options":{"portfolio":true}}"#;
        match parse_request(line).unwrap() {
            Request::Compile {
                options, priority, ..
            } => {
                assert_eq!(priority, 7);
                assert_eq!(options.portfolio, Some(true));
                let co = options.to_compiler_options().unwrap();
                assert!(co.portfolio);
                // portfolio survives the journal round trip.
                let back = JobOptions::from_json(&options.to_json()).unwrap();
                assert_eq!(back.portfolio, Some(true));
            }
            other => panic!("wrong request: {other:?}"),
        }
        // Out-of-range or ill-typed priorities are bad requests.
        for bad in [
            r#"{"op":"compile","program":"x","priority":10}"#,
            r#"{"op":"compile","program":"x","priority":-1}"#,
            r#"{"op":"compile","program":"x","priority":"high"}"#,
            r#"{"op":"compile","program":"x","options":{"portfolio":3}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn defaults_match_the_shared_service_constructor() {
        // A bare options object must materialize exactly the shared
        // service defaults — the anti-divergence contract.
        let co = JobOptions::default().to_compiler_options().unwrap();
        let want = CompilerOptions::service_defaults();
        assert_eq!(format!("{co:?}"), format!("{want:?}"));
    }

    #[test]
    fn parses_control_requests() {
        assert!(matches!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown { abort: false }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","mode":"abort"}"#).unwrap(),
            Request::Shutdown { abort: true }
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"program":"x"}"#,
            r#"{"op":"fry"}"#,
            r#"{"op":"compile"}"#,
            r#"{"op":"compile","program":"x","options":{"imm":-1}}"#,
            r#"{"op":"compile","program":"x","options":{"template":7}}"#,
            r#"{"op":"shutdown","mode":"later"}"#,
            r#"{"op":"cache","action":"defrost"}"#,
            r#"{"op":"status","id":[1,2]}"#,
            r#"{"op":"compile","program":"x","trace":7}"#,
            r#"{"op":"compile","program":"x","trace":""}"#,
            r#"{"op":"trace"}"#,
            r#"{"op":"trace","trace":42}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn trace_ids_parse_echo_and_bound() {
        // A compile may carry a trace id; the new ops decode too.
        match parse_request(r#"{"op":"compile","program":"x","trace":"t-1"}"#).unwrap() {
            Request::Compile { trace, .. } => assert_eq!(trace.as_deref(), Some("t-1")),
            other => panic!("wrong request: {other:?}"),
        }
        match parse_request(r#"{"op":"trace","trace":"t-1"}"#).unwrap() {
            Request::Trace { trace } => assert_eq!(trace, "t-1"),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"telemetry"}"#).unwrap(),
            Request::Telemetry
        ));
        // Oversized ids are rejected, not truncated.
        let long = format!(
            r#"{{"op":"compile","program":"x","trace":"{}"}}"#,
            "a".repeat(MAX_TRACE_ID_LEN + 1)
        );
        assert!(parse_request(&long).is_err());
        // with_trace prepends the echo; with_id applied after still wins
        // the first position.
        let resp = with_trace(Json::obj([("ok", Json::Bool(true))]), "t-9");
        let resp = with_id(resp, Some(Json::from(3u64)));
        assert_eq!(resp.to_compact(), r#"{"id":3,"trace":"t-9","ok":true}"#);
    }

    #[test]
    fn parses_cache_requests() {
        for (line, want) in [
            (r#"{"op":"cache"}"#, CacheAction::Stats),
            (r#"{"op":"cache","action":"stats"}"#, CacheAction::Stats),
            (r#"{"op":"cache","action":"compact"}"#, CacheAction::Compact),
            (r#"{"op":"cache","action":"clear"}"#, CacheAction::Clear),
        ] {
            match parse_request(line).unwrap() {
                Request::Cache { action } => assert_eq!(action, want, "{line}"),
                other => panic!("wrong request for {line}: {other:?}"),
            }
        }
    }

    #[test]
    fn ids_are_extracted_and_echoed() {
        // String and integer ids survive; a missing or null id is absent.
        let inc = parse_line(r#"{"op":"status","id":"job-7"}"#);
        assert_eq!(inc.id, Some(Json::from("job-7")));
        assert!(matches!(inc.request, Ok(Request::Status)));
        let inc = parse_line(r#"{"op":"stats","id":42}"#);
        assert_eq!(inc.id, Some(Json::from(42u64)));
        let inc = parse_line(r#"{"op":"stats","id":null}"#);
        assert_eq!(inc.id, None);

        // The id is recovered even when the request itself is bad, so the
        // error can be matched to its request.
        let inc = parse_line(r#"{"op":"fry","id":9}"#);
        assert_eq!(inc.id, Some(Json::from(9u64)));
        assert!(inc.request.is_err());

        // with_id prepends the echo; no id leaves the response untouched.
        let resp = with_id(
            Json::obj([("ok", Json::Bool(true))]),
            Some(Json::from(9u64)),
        );
        assert_eq!(resp.get("id"), Some(&Json::from(9u64)));
        assert_eq!(resp.to_compact(), r#"{"id":9,"ok":true}"#);
        let bare = with_id(Json::obj([("ok", Json::Bool(true))]), None);
        assert_eq!(bare.get("id"), None);
    }

    fn cached_doc(fields: &[&str], states: &[&str], f2c: &[u64]) -> Json {
        Json::obj([
            ("grid", Json::obj([("stages", Json::from(1u64))])),
            (
                "fields",
                Json::Arr(fields.iter().map(|&n| Json::from(n)).collect()),
            ),
            (
                "states",
                Json::Arr(states.iter().map(|&n| Json::from(n)).collect()),
            ),
            (
                "field_to_container",
                Json::Arr(f2c.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("pipeline", Json::obj([("stages", Json::Arr(vec![]))])),
        ])
    }

    fn names(ns: &[&str]) -> Vec<String> {
        ns.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn remap_is_identity_for_matching_orders() {
        let doc = cached_doc(&["x", "a", "b"], &["s"], &[0, 1, 2]);
        let out = remap_result(&doc, &names(&["x", "a", "b"]), &names(&["s"])).unwrap();
        assert_eq!(out, doc);
    }

    #[test]
    fn remap_permutes_field_to_container_by_name() {
        // Producer numbered x,b,a,y (first use in `pkt.x = pkt.b | pkt.a;
        // pkt.y = pkt.a;`); canonical mode pinned field i to container i.
        let doc = cached_doc(&["x", "b", "a", "y"], &[], &[0, 1, 2, 3]);
        // Requester submitted the commuted form: numbering x,a,b,y.
        let out = remap_result(&doc, &names(&["x", "a", "b", "y"]), &names(&[])).unwrap();
        let f2c: Vec<u64> = out
            .get("field_to_container")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        // Requester's a (their index 1) lives where the producer put a
        // (container 2), and vice versa for b.
        assert_eq!(f2c, [0, 2, 1, 3]);
        let fields: Vec<&str> = out
            .get("fields")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(fields, ["x", "a", "b", "y"]);
        // Container-space sections pass through untouched.
        assert_eq!(out.get("pipeline"), doc.get("pipeline"));
        assert_eq!(out.get("grid"), doc.get("grid"));
    }

    #[test]
    fn remap_rejects_non_equivalent_entries() {
        let doc = cached_doc(&["x", "a"], &["s"], &[0, 1]);
        // Different name set (collision or corruption): miss.
        assert!(remap_result(&doc, &names(&["x", "z"]), &names(&["s"])).is_none());
        // Different field count: miss.
        assert!(remap_result(&doc, &names(&["x", "a", "b"]), &names(&["s"])).is_none());
        // Different state order: miss.
        assert!(remap_result(&doc, &names(&["x", "a"]), &names(&["t"])).is_none());
        // Legacy entry without name lists: miss.
        let legacy = Json::obj([(
            "field_to_container",
            Json::Arr(vec![Json::from(0u64), Json::from(1u64)]),
        )]);
        assert!(remap_result(&legacy, &names(&["x", "a"]), &names(&[])).is_none());
    }

    #[test]
    fn unknown_template_is_a_bad_request() {
        let o = JobOptions {
            template: Some("quantum".into()),
            ..JobOptions::default()
        };
        assert!(o.to_compiler_options().is_err());
    }

    /// Tiny deterministic generator for the property tests below.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        /// Fisher–Yates permutation of `0..n`.
        fn permutation(&mut self, n: usize) -> Vec<usize> {
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, self.below(i + 1));
            }
            p
        }
    }

    /// A producer-side result document with `k` fields, a random field
    /// map, and random counterexamples — the parts remapping touches.
    fn random_doc(rng: &mut Lcg, field_names: &[String], cexes: usize) -> Json {
        let k = field_names.len();
        let spare = rng.below(3);
        let f2c = rng.permutation(k.max(1) + spare); // slots ≥ fields
        let cex = |rng: &mut Lcg| {
            Json::obj([
                (
                    "fields",
                    Json::Arr((0..k).map(|_| Json::from(rng.next() % 64)).collect()),
                ),
                ("states", Json::Arr(vec![Json::from(rng.next() % 64)])),
            ])
        };
        Json::obj([
            ("grid", Json::obj([("stages", Json::from(1u64))])),
            (
                "fields",
                Json::Arr(field_names.iter().map(|n| Json::from(n.as_str())).collect()),
            ),
            ("states", Json::Arr(vec![Json::from("s")])),
            (
                "field_to_container",
                Json::Arr(f2c.iter().take(k).map(|&c| Json::from(c)).collect()),
            ),
            ("pipeline", Json::obj([("stages", Json::Arr(vec![]))])),
            (
                "counterexamples",
                Json::Arr((0..cexes).map(|_| cex(rng)).collect()),
            ),
        ])
    }

    fn u64s(doc: &Json, key: &str) -> Vec<u64> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect()
    }

    /// Property: for a random field permutation, remapping producer →
    /// requester → producer is the identity, the permuted field map and
    /// counterexamples satisfy `out[i] == orig[perm[i]]`, and states are
    /// never reordered.
    #[test]
    fn remap_round_trips_under_random_permutations() {
        let mut rng = Lcg(0x5eed_2026_0807);
        for case in 0..200 {
            let k = 1 + rng.below(7);
            let producer: Vec<String> = (0..k).map(|i| format!("f{i}")).collect();
            let cexes = rng.below(4);
            let doc = random_doc(&mut rng, &producer, cexes);
            // perm[i] = producer index of the requester's field i.
            let perm = rng.permutation(k);
            let requester: Vec<String> = perm.iter().map(|&p| producer[p].clone()).collect();
            let states = vec!["s".to_string()];

            let out = remap_result(&doc, &requester, &states)
                .unwrap_or_else(|| panic!("case {case}: equivalent doc must remap"));
            // Field map: requester's field i lands in the container the
            // producer assigned to the same-named field.
            let f2c_in = u64s(&doc, "field_to_container");
            let f2c_out = u64s(&out, "field_to_container");
            for i in 0..k {
                assert_eq!(f2c_out[i], f2c_in[perm[i]], "case {case} field {i}");
            }
            // Counterexamples: per-field values follow the same
            // permutation; state values are untouched.
            let cex_in = doc.get("counterexamples").unwrap().as_arr().unwrap();
            let cex_out = out.get("counterexamples").unwrap().as_arr().unwrap();
            assert_eq!(cex_in.len(), cex_out.len(), "case {case}");
            for (a, b) in cex_in.iter().zip(cex_out) {
                let (fa, fb) = (u64s(a, "fields"), u64s(b, "fields"));
                for i in 0..k {
                    assert_eq!(fb[i], fa[perm[i]], "case {case} cex field {i}");
                }
                assert_eq!(u64s(a, "states"), u64s(b, "states"), "case {case}");
            }
            // Round trip: remapping back to the producer's ordering
            // reproduces the original document exactly.
            let back = remap_result(&out, &producer, &states)
                .unwrap_or_else(|| panic!("case {case}: round trip must remap"));
            assert_eq!(back, doc, "case {case}: round trip is not the identity");
        }
    }

    /// Property: a requester whose name set differs (renamed, missing, or
    /// extra field) is a miss, never a mis-remap.
    #[test]
    fn remap_refuses_random_non_equivalent_name_sets() {
        let mut rng = Lcg(0xbad_5eed);
        for case in 0..100 {
            let k = 2 + rng.below(6);
            let producer: Vec<String> = (0..k).map(|i| format!("f{i}")).collect();
            let doc = random_doc(&mut rng, &producer, 1);
            let states = vec!["s".to_string()];
            let mut requester = producer.clone();
            match case % 3 {
                0 => requester[rng.below(k)] = "zz".to_string(), // renamed
                1 => {
                    requester.truncate(k - 1); // missing
                }
                _ => requester.push("extra".to_string()), // extra
            }
            assert!(
                remap_result(&doc, &requester, &states).is_none(),
                "case {case}: non-equivalent names must miss"
            );
        }
    }

    /// A malformed counterexample list (wrong arity) degrades to an empty
    /// list on remap — never served producer-ordered.
    #[test]
    fn malformed_counterexamples_degrade_to_empty_on_remap() {
        let producer = names(&["a", "b"]);
        let mut doc = random_doc(&mut Lcg(1), &producer, 0);
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "counterexamples" {
                    *v = Json::Arr(vec![Json::obj([
                        ("fields", Json::Arr(vec![Json::from(1u64)])), // arity 1 != 2
                        ("states", Json::Arr(vec![])),
                    ])]);
                }
            }
        }
        let out = remap_result(&doc, &names(&["b", "a"]), &names(&["s"])).unwrap();
        assert_eq!(
            out.get("counterexamples"),
            Some(&Json::Arr(vec![])),
            "malformed counterexamples must be dropped: {out}"
        );
    }
}
