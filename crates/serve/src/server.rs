//! The compilation daemon: accept loop, worker pool, shutdown machinery.
//!
//! Thread structure (per connection, the handler is split so one socket
//! can carry many jobs in flight):
//!
//! ```text
//! accept loop ──spawns──▶ reader (parse + cache-check + enqueue;
//!                         never blocks on a worker)
//!                             │ fast paths (cache hit, control ops,
//!                             │ typed errors) answer immediately ─┐
//!                             │ queue.try_push(Job{reply})        │
//!                             ▼                                   │
//!                      bounded job queue  ◀── backpressure        │
//!                             │                                   │
//!                 worker pool (N threads) — compile_with_control  │
//!                             │                                   │
//!                     job.reply.send(response) ──▶ per-connection │
//!                                                 reply channel ◀─┘
//!                                                     │
//!                                          writer thread → socket
//! ```
//!
//! Every response is tagged with the request's client-chosen `id` (when
//! given), so compile responses may stream back in completion order and
//! still be matched up; control responses keep request order because the
//! reader answers them inline through the same channel.
//!
//! Shutdown (`drain`): stop accepting, close the queue, let workers finish
//! what is queued, then exit. Shutdown (`abort`): additionally raise the
//! shared cancellation flag — in-flight CEGIS runs stop at the next solver
//! checkpoint — and fail all still-queued jobs with `shutting_down`.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chipmunk::plan::{StepOutcome, Strategy};
use chipmunk::{
    cache_key, certify_config, compile_with_control, layout_names, plan_compilation, Certificate,
    CertifyRequest, CheckBudget, CodegenError, CompilerOptions, InfeasibleCert, PlanControl,
};
use chipmunk_lang::{parse, Program};
use chipmunk_pisa::GridSpec;
use chipmunk_trace::json::Json;

use crate::cache::ResultCache;
use crate::faults::{self, FaultKind};
use crate::journal::Journal;
use crate::metrics::{
    self, Family, MetricsServer, Outcome, Stage, Strat, Telemetry, OUTCOMES, STAGES,
};
use crate::protocol::{
    codegen_error_code, decode_result, error_response, infeasible_response, parse_line,
    remap_result, result_doc, with_id, with_trace, CacheAction, Incoming, JobOptions, Request,
};
use crate::queue::{Bounded, PushError};
use crate::trace_store::TraceStore;

/// Salt mixed into the job's CEGIS seed for the serve-side certification
/// sweep, so it draws inputs independent of both the synthesis-side
/// initial samples and the in-compiler certification pass.
const SERVE_CERT_SEED_SALT: u64 = 0x5e1e_c7ab_1e0b_5e55;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads. `0` is allowed (jobs queue but never run) — useful
    /// for deterministic backpressure tests.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it get `queue_full`.
    pub queue_capacity: usize,
    /// Directory for the on-disk cache tier (`None` = memory-only).
    pub cache_dir: Option<PathBuf>,
    /// Result-cache entry bound; past it the least-recently-used entry is
    /// evicted (`None` = unbounded). Applies to both tiers: the JSONL
    /// file is compacted down to the retained set.
    pub cache_max_entries: Option<usize>,
    /// Concurrent connection handlers. A connection accepted beyond this
    /// is answered with one `busy` error line and closed, so idle or slow
    /// clients cannot exhaust threads (the bounded queue already protects
    /// compute).
    pub max_connections: usize,
    /// Per-socket read deadline: a connection whose client sends nothing
    /// for this long **and has no job in flight** is dropped (`None` =
    /// wait forever). Does not bound compilation itself — a client
    /// silently waiting for its pipelined jobs is not idle.
    pub idle_timeout: Option<Duration>,
    /// Directory for the write-ahead job journal (`None` = no journal).
    /// With a journal, accepted jobs survive a daemon kill: on restart,
    /// jobs that were accepted but never answered are replayed into the
    /// queue, their results land in the cache, and clients collect them
    /// with the `poll` op. Stats report them as `recovered`.
    pub journal_dir: Option<PathBuf>,
    /// Bind address for the Prometheus text-exposition endpoint (`None`
    /// consults the `CHIPMUNK_METRICS_ADDR` environment variable; empty /
    /// unset = no endpoint). A bind failure degrades to stats-only — the
    /// daemon logs it and keeps serving.
    pub metrics_addr: Option<String>,
    /// Slow-job threshold in milliseconds: a job whose end-to-end time
    /// meets it has its span tree dumped to stderr (`None` = never).
    pub slow_ms: Option<u64>,
    /// Default per-request deadline in milliseconds, applied to compiles
    /// that carry no `deadline_ms` of their own (`None` = no default —
    /// jobs without a deadline wait and run as long as they need).
    pub default_deadline_ms: Option<u64>,
    /// Slack past a job's deadline before the watchdog hard-cancels it.
    /// Covers cancellation-poll latency, so an answer landing "just
    /// after" the deadline is still delivered rather than killed.
    pub deadline_grace_ms: u64,
    /// Brownout trigger: when the rolling queue-wait p95 crosses this
    /// many milliseconds the daemon enters brownout (`None` = brownout
    /// disabled). Exit uses hysteresis at half the threshold.
    pub brownout_p95_ms: Option<u64>,
    /// During brownout, compiles with priority strictly below this get
    /// cache-hit-only service: a miss is answered `busy` with a
    /// `retry_after_ms` hint instead of being queued. The default (0)
    /// never degrades anyone — priorities are non-negative.
    pub shed_below_priority: i32,
    /// How long after a watchdog hard-cancel the solver may keep running
    /// before the watchdog gives up on cooperation: the job is answered
    /// `expired`, the stuck worker abandoned, and a replacement spawned.
    pub watchdog_escalate_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(4),
            queue_capacity: 64,
            cache_dir: None,
            cache_max_entries: None,
            max_connections: 64,
            idle_timeout: Some(Duration::from_secs(60)),
            journal_dir: None,
            metrics_addr: None,
            slow_ms: None,
            default_deadline_ms: None,
            deadline_grace_ms: 1000,
            brownout_p95_ms: None,
            shed_below_priority: 0,
            watchdog_escalate_ms: 2000,
        }
    }
}

/// How the Prometheus exposition types a reported figure: a counter is
/// exposed as `chipmunk_serve_<name>_total`, a gauge as
/// `chipmunk_serve_<name>`.
enum Kind {
    Counter,
    Gauge,
}

/// One figure the daemon reports: its name (the `stats` and `telemetry`
/// key, and the exposition's metric name), its exposition kind, and its
/// value. The exposition shows a boolean as 0/1 and leaves out a `null`
/// (a figure that does not apply, or not yet) and a string.
type Figure = (&'static str, Kind, Json);

/// A ledger cell read as a wire value.
trait Reading {
    fn reading(&self) -> Json;
}

impl Reading for AtomicU64 {
    fn reading(&self) -> Json {
        Json::from(self.load(Ordering::Relaxed))
    }
}

impl Reading for AtomicBool {
    fn reading(&self) -> Json {
        Json::Bool(self.load(Ordering::Relaxed))
    }
}

/// Declares [`Stats`] and its name→value listing from one list, so each
/// ledger figure is named exactly once.
macro_rules! ledger {
    ($($(#[$doc:meta])* $name:ident: $cell:ty = $kind:ident,)*) => {
        /// The daemon's ledger. Conservation invariant: once the server
        /// quiesces, `submitted == completed + failed + drained + panicked +
        /// expired + shed` — every admitted job is answered exactly once,
        /// and [`ReplyHandle::settle`] is the only code that moves those six
        /// terminal counters.
        #[derive(Default)]
        struct Stats {
            $($(#[$doc])* $name: $cell,)*
        }

        impl Stats {
            /// Every ledger figure, in declaration order.
            fn listing(&self) -> Vec<Figure> {
                vec![$((stringify!($name), Kind::$kind, self.$name.reading()),)*]
            }
        }
    };
}

ledger! {
    /// Jobs admitted to the queue: fresh submissions and journal replays.
    submitted: AtomicU64 = Counter,
    /// Admitted jobs answered with a result. A worker serving a queued
    /// twin from cache counts here and in `served_cached`.
    completed: AtomicU64 = Counter,
    /// Admitted jobs answered with a compile error or an uncertified
    /// result.
    failed: AtomicU64 = Counter,
    /// Queued jobs failed by abortive shutdown instead of running.
    drained: AtomicU64 = Counter,
    /// Jobs answered with an `internal` error because the compile call
    /// panicked (isolated) or the worker running them died (its
    /// [`ReplyHandle`] answered on drop).
    panicked: AtomicU64 = Counter,
    /// Jobs answered with the `expired` error: their deadline elapsed in
    /// the queue, mid-compile (the solver yielded to the watchdog's
    /// cancel), or at watchdog escalation.
    expired: AtomicU64 = Counter,
    /// Queued jobs evicted under saturation to admit a higher-priority
    /// newcomer, answered with the `shed` error.
    shed: AtomicU64 = Counter,
    /// Worst end-to-end latency (ms) over answered admitted jobs, abort
    /// drains excepted — the overload soak asserts it never exceeds
    /// deadline + grace + the escalation bound.
    e2e_ms_max: AtomicU64 = Gauge,
    /// Worker threads respawned after a pool member died or was
    /// abandoned by the watchdog.
    workers_respawned: AtomicU64 = Counter,
    /// Responses served from the result cache: the reader's fast path,
    /// `poll`, and the worker's after-the-wait re-check. Fast-path serves
    /// never count as `submitted` (they are not queued).
    served_cached: AtomicU64 = Counter,
    rejected_full: AtomicU64 = Counter,
    rejected_busy: AtomicU64 = Counter,
    synth_ms_total: AtomicU64 = Counter,
    synth_ms_max: AtomicU64 = Gauge,
    wait_ms_total: AtomicU64 = Counter,
    /// Journal-replayed jobs re-queued (or already answered in cache) at
    /// startup. Replayed jobs also count as `submitted` when they enter
    /// the queue, so the conservation invariant covers them.
    recovered: AtomicU64 = Counter,
    /// Result documents that passed the serve-side certification check
    /// before leaving the daemon (fresh, cache-hit, and polled).
    certified: AtomicU64 = Counter,
    /// Result documents that failed certification (each one is also
    /// quarantined if it came from the cache).
    uncertified: AtomicU64 = Counter,
    /// Cache entries removed from both tiers after failing certification.
    quarantined: AtomicU64 = Counter,
    /// Racing portfolio steps cancelled because a sibling strategy won.
    /// Spent search, not failures — kept out of `failed` by construction.
    portfolio_cancelled: AtomicU64 = Counter,
    /// Infeasible verdicts served with a DRAT proof the daemon itself
    /// re-checked before the response left the process.
    infeasible_certified: AtomicU64 = Counter,
    /// Infeasible verdicts served explicitly unchecked — the proof was
    /// truncated, lost to an I/O fault, failed its re-check, or proof
    /// logging was disabled. Never silent: the response says why.
    infeasible_unchecked: AtomicU64 = Counter,
    /// The configured metrics endpoint failed to bind and the daemon is
    /// running stats-only (the `metrics_io` degradation).
    metrics_degraded: AtomicBool = Gauge,
    /// Watchdog hard-cancels: jobs past deadline+grace whose cancel flag
    /// was raised. Most yield cooperatively and count only here.
    watchdog_cancelled: AtomicU64 = Counter,
    /// Watchdog escalations: the solver ignored its cancel flag past the
    /// escalation bound, so the job was answered `expired`, its worker
    /// abandoned, and a replacement spawned.
    watchdog_escalations: AtomicU64 = Counter,
    /// Brownout entries (queue-wait p95 crossed the threshold).
    brownout_entered: AtomicU64 = Counter,
    /// Brownout exits (p95 fell below half the threshold, or the rolling
    /// window drained).
    brownout_exited: AtomicU64 = Counter,
    /// Compiles refused during brownout (cache-miss, low priority):
    /// answered `busy` with a `retry_after_ms` hint. Never `submitted`,
    /// so outside the conservation law by construction.
    brownout_busy: AtomicU64 = Counter,
}

/// Microseconds elapsed since `since`.
fn micros(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// How an admitted job ended: which terminal counter its settle moves.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    /// Answered with a result, served as the outcome says (`fresh`,
    /// `cached` or `remapped`).
    Completed(Outcome),
    Failed,
    Drained,
    Panicked,
    Expired,
    Shed,
}

impl Verdict {
    /// The outcome label of the job's latency samples.
    fn outcome(self) -> Outcome {
        match self {
            Verdict::Completed(outcome) => outcome,
            _ => Outcome::Failed,
        }
    }
}

/// Where a job's single response goes — the owning connection's reply
/// channel — and what its answer settles in the ledger: the job's spec
/// family and admission time. Consuming `settle` or `refuse` ties the
/// request `id` to the response and releases the connection's in-flight
/// slot, so the reader's idle-timeout check sees the reply strictly after
/// it is on the channel.
///
/// Dropping a handle unanswered — the job vanished with a dying worker,
/// or was discarded with the queue — is itself an answer: the client gets
/// a structured `internal` error and the job settles as `panicked`, so no
/// client ever waits forever and the conservation invariant survives
/// worker deaths. Its journal record stays pending, so the job replays
/// on the next start.
struct ReplyHandle {
    tx: mpsc::Sender<Json>,
    pending: Arc<AtomicUsize>,
    stats: Arc<Stats>,
    telemetry: Arc<Telemetry>,
    /// Responses handed to connection writers but not yet flushed
    /// ([`Shared::unwritten`]); [`ServerHandle::join`] waits on it.
    unwritten: Arc<AtomicUsize>,
    id: Option<Json>,
    /// The job's trace id, echoed on whatever response answers it —
    /// including the `internal` error a dropped handle synthesizes.
    trace: Option<String>,
    /// Spec family label for the job's latency samples.
    family: Family,
    /// When the job was admitted: the start of its end-to-end latency.
    admitted: Instant,
    answered: bool,
}

impl ReplyHandle {
    /// Answer an admitted job: the only code that moves one of the six
    /// terminal counters. It also records the job's one end-to-end
    /// sample and raises `e2e_ms_max`, except for an abort drain, whose
    /// latency is the operator's choice, not the scheduler's.
    fn settle(mut self, verdict: Verdict, response: Json) {
        self.record(verdict);
        self.deliver(response);
    }

    /// Answer a push the queue refused. The job was never admitted, so no
    /// terminal counter moves.
    fn refuse(mut self, response: Json) {
        self.deliver(response);
    }

    fn record(&self, verdict: Verdict) {
        let s = &self.stats;
        let terminal = match verdict {
            Verdict::Completed(_) => &s.completed,
            Verdict::Failed => &s.failed,
            Verdict::Drained => &s.drained,
            Verdict::Panicked => &s.panicked,
            Verdict::Expired => &s.expired,
            Verdict::Shed => &s.shed,
        };
        terminal.fetch_add(1, Ordering::Relaxed);
        let e2e_us = micros(self.admitted);
        self.telemetry
            .record(Stage::EndToEnd, verdict.outcome(), self.family, e2e_us);
        if verdict != Verdict::Drained {
            s.e2e_ms_max.fetch_max(e2e_us / 1000, Ordering::Relaxed);
        }
    }

    fn deliver(&mut self, response: Json) {
        if self.answered {
            return;
        }
        self.answered = true;
        let response = match self.trace.take() {
            Some(trace) => with_trace(response, &trace),
            None => response,
        };
        queue_response(&self.unwritten, &self.tx, with_id(response, self.id.take()));
        self.pending.fetch_sub(1, Ordering::Release);
    }
}

/// Settle an admitted job ([`ReplyHandle::settle`]), then complete its
/// journal record: strictly after the answer is on the reply channel, so
/// a crash between the two replays an already-answered job (a harmless
/// recompute into the cache) instead of dropping an unanswered one.
fn settle(shared: &Shared, key: &str, reply: ReplyHandle, verdict: Verdict, response: Json) {
    reply.settle(verdict, response);
    journal_done(shared, key);
}

/// Hand a response to a connection's writer thread, keeping the global
/// unflushed count exact: the count rises before the send so a racing
/// [`ServerHandle::join`] can never observe zero while a response is in
/// a channel, and falls back immediately if the writer is already gone
/// (the send fails and nothing will ever be flushed).
fn queue_response(unwritten: &AtomicUsize, tx: &mpsc::Sender<Json>, doc: Json) {
    unwritten.fetch_add(1, Ordering::AcqRel);
    if tx.send(doc).is_err() {
        unwritten.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.answered {
            self.record(Verdict::Panicked);
            self.deliver(error_response(
                "internal",
                "worker died while running this job; the pool has been respawned — safe to retry",
            ));
        }
    }
}

/// A compile-shaped request resolved for the cache: the parsed program,
/// its options, its cache key, and the requester's field / state names
/// in index order (the layout `compile` will use), which cached results
/// are remapped into.
struct Resolved {
    program: Program,
    opts: CompilerOptions,
    key: String,
    fields: Vec<String>,
    states: Vec<String>,
}

/// Parse and key a compile-shaped request, or the error response that
/// answers it.
fn resolve(source: &str, options: &JobOptions) -> Result<Resolved, Json> {
    let program = parse(source).map_err(|e| error_response("parse", &format!("program: {e}")))?;
    let opts = options
        .to_compiler_options()
        .map_err(|e| error_response("bad_request", &e))?;
    let key = cache_key(&program, &opts);
    let (fields, states) = layout_names(&program);
    Ok(Resolved {
        program,
        opts,
        key,
        fields,
        states,
    })
}

struct Job {
    req: Resolved,
    /// The job's trace id: client-supplied, server-assigned, or (for a
    /// replayed job) recovered from the journal. Stamped on the
    /// `serve.job` span so nested compile spans correlate with it.
    trace: String,
    /// Fingerprint of the job's compile plan (None when planning failed —
    /// the worker will surface the same error).
    plan_fp: Option<String>,
    /// First plan step to execute: 0 for fresh jobs; for a replayed job,
    /// the journaled progress of the *same* (fingerprint-checked) plan.
    resume_from: usize,
    /// Absolute wall-clock deadline (admission time + the request's
    /// `deadline_ms`, or the server default). `None` = the client waits
    /// forever. Replayed jobs get a fresh full window from replay time —
    /// their original client is gone and the compile runs for the cache.
    deadline: Option<Instant>,
    reply: ReplyHandle,
}

/// One in-flight compile as the watchdog sees it. Registered by the
/// worker just before the compile call, removed just after. The reply
/// handle lives in a shared slot so exactly one of {worker, watchdog}
/// answers: whoever takes it first wins, the other sees `None`.
struct WatchEntry {
    key: String,
    deadline: Option<Instant>,
    /// Per-job cooperative cancel flag, passed to the compile. Raised by
    /// the watchdog at deadline+grace and fanned to by abortive shutdown.
    cancel: Arc<AtomicBool>,
    /// The job's answer-exactly-once handle.
    reply: Arc<Mutex<Option<ReplyHandle>>>,
    /// When the watchdog raised `cancel`; escalation triggers once this
    /// is older than the escalation bound.
    cancelled_at: Option<Instant>,
}

struct Shared {
    queue: Bounded<Job>,
    cache: ResultCache,
    journal: Option<Journal>,
    stats: Arc<Stats>,
    stopping: AtomicBool,
    abort: Arc<AtomicBool>,
    in_flight: AtomicUsize,
    conns: AtomicUsize,
    max_conns: usize,
    idle_timeout: Option<Duration>,
    workers: usize,
    /// Workers currently alive (incremented before spawn, decremented by
    /// each worker's [`WorkerGuard`] even when it dies by panic). The
    /// dispatch-time watchdog compares this against `workers`.
    live_workers: AtomicUsize,
    /// Monotonic worker name counter, so respawned threads are
    /// distinguishable in traces from the ones they replace.
    next_worker: AtomicUsize,
    /// Join handles for every worker ever spawned (initial pool +
    /// respawns). Drained by [`ServerHandle::join`].
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Responses queued to connection writer threads but not yet written
    /// to (or abandoned with) their sockets. Connection writers are
    /// detached, so [`ServerHandle::join`] waits on this count — without
    /// it the process can exit between a shutdown ack entering the reply
    /// channel and the writer flushing it, and the client sees a bare
    /// connection reset instead of the ack.
    unwritten: Arc<AtomicUsize>,
    addr: SocketAddr,
    /// Rolling latency histograms and solver gauges.
    telemetry: Arc<Telemetry>,
    /// Ring buffer of recent trace records, fed by a tee.
    trace_store: Arc<TraceStore>,
    /// The running exposition endpoint, if one bound. Shut down first,
    /// joined by [`ServerHandle::join`].
    metrics: Mutex<Option<MetricsServer>>,
    /// Sequence for server-assigned trace ids.
    next_trace: AtomicU64,
    /// Slow-job threshold in milliseconds (`None` = never dump).
    slow_ms: Option<u64>,
    /// Server-wide default for requests that carry no `deadline_ms`.
    default_deadline_ms: Option<u64>,
    /// Grace past the deadline before the watchdog hard-cancels.
    deadline_grace: Duration,
    /// Queue-wait p95 threshold that trips brownout (`None` = disabled).
    brownout_p95_ms: Option<u64>,
    /// During brownout, cache-missing jobs below this priority get `busy`.
    shed_below_priority: i32,
    /// How long after a watchdog cancel a solver may keep running before
    /// the worker is abandoned and respawned.
    watchdog_escalate: Duration,
    /// Whether the server is currently degraded (brownout).
    brownout: AtomicBool,
    /// Sliding window of recent queue-wait samples (ms), recorded at
    /// dequeue; its p95 drives the brownout state machine.
    wait_window: metrics::RollingWindow,
    /// In-flight compiles visible to the watchdog, keyed by a local id.
    watch: Mutex<HashMap<u64, WatchEntry>>,
    /// Sequence for watch-registry ids.
    next_watch: AtomicU64,
}

fn lock_watch(shared: &Shared) -> std::sync::MutexGuard<'_, HashMap<u64, WatchEntry>> {
    match shared.watch.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Decrements the live-worker count when a worker exits — normally or by
/// unwinding — so the watchdog sees the true pool size.
struct WorkerGuard(Arc<Shared>);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::AcqRel);
    }
}

fn lock_handles(shared: &Shared) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    match shared.worker_handles.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Spawn one worker thread. The live count is reserved *before* the
/// thread starts so two concurrent watchdog checks cannot both spawn for
/// the same deficit.
fn spawn_worker(shared: &Arc<Shared>, handles: &mut Vec<JoinHandle<()>>) {
    let idx = shared.next_worker.fetch_add(1, Ordering::Relaxed);
    shared.live_workers.fetch_add(1, Ordering::AcqRel);
    let sh = shared.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("chipmunk-worker-{idx}"))
        .spawn(move || {
            let _guard = WorkerGuard(sh.clone());
            worker_loop(&sh);
        });
    match spawned {
        Ok(h) => handles.push(h),
        Err(_) => {
            shared.live_workers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Watchdog, run on every job dispatch: if the pool is below its
/// configured size (a worker died), respawn the missing workers. Cheap
/// when healthy — one atomic load.
fn ensure_workers(shared: &Arc<Shared>) {
    if shared.workers == 0 || shared.live_workers.load(Ordering::Acquire) >= shared.workers {
        return;
    }
    let mut handles = lock_handles(shared);
    while shared.live_workers.load(Ordering::Acquire) < shared.workers {
        spawn_worker(shared, &mut handles);
        shared
            .stats
            .workers_respawned
            .fetch_add(1, Ordering::Relaxed);
        chipmunk_trace::counter_add!("serve.worker.respawned", 1);
    }
}

/// Decrements the live-connection count when the last thread of a
/// connection exits (or when its thread failed to spawn and the closure
/// is dropped unrun).
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::Release);
    }
}

/// A running server: its address plus the threads to join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    /// Token of the trace tee feeding [`Shared::trace_store`]; removed on
    /// join so a later server in the same process does not feed it.
    tee_token: u64,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound metrics-endpoint address, or `None` when the endpoint is
    /// disabled or degraded to stats-only after a bind failure.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        lock_metrics(&self.shared).as_ref().map(MetricsServer::addr)
    }

    /// Trigger shutdown programmatically (same as a `shutdown` request).
    pub fn shutdown(&self, abort: bool) {
        begin_shutdown(&self.shared, abort);
    }

    /// Block until the accept loop and every worker have exited. Workers
    /// respawned by the watchdog are joined too — the handle list is
    /// drained until it stays empty.
    pub fn join(self) {
        let _ = self.accept.join();
        loop {
            let handles = std::mem::take(&mut *lock_handles(&self.shared));
            if handles.is_empty() {
                break;
            }
            for w in handles {
                let _ = w.join();
            }
        }
        // Connection writer threads are detached, so joining the accept
        // loop and workers does not prove the last responses reached their
        // sockets — in particular the shutdown ack, which is queued just
        // before teardown begins. Wait (bounded: a wedged socket must not
        // pin the process) for the unflushed count to settle so a caller
        // that exits right after `join` never eats an already-produced
        // response.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.unwritten.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Take the endpoint out before joining it: a scrape in progress
        // renders the report, which reads the endpoint's address.
        let metrics = lock_metrics(&self.shared).take();
        if let Some(metrics) = metrics {
            metrics.begin_shutdown();
            metrics.join();
        }
        chipmunk_trace::remove_tee(self.tee_token);
    }
}

fn lock_metrics(shared: &Shared) -> std::sync::MutexGuard<'_, Option<MetricsServer>> {
    match shared.metrics.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Bind, spawn the worker pool and the accept loop, and return immediately.
pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    faults::init_from_env();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let (journal, replay) = match &config.journal_dir {
        Some(dir) => {
            let (j, replay) = Journal::open(dir)?;
            (Some(j), replay)
        }
        None => (None, Vec::new()),
    };
    let shared = Arc::new(Shared {
        queue: Bounded::new(config.queue_capacity),
        cache: ResultCache::open_bounded(config.cache_dir.as_deref(), config.cache_max_entries)?,
        journal,
        stats: Arc::new(Stats::default()),
        stopping: AtomicBool::new(false),
        abort: Arc::new(AtomicBool::new(false)),
        in_flight: AtomicUsize::new(0),
        conns: AtomicUsize::new(0),
        max_conns: config.max_connections,
        idle_timeout: config.idle_timeout,
        workers: config.workers,
        live_workers: AtomicUsize::new(0),
        next_worker: AtomicUsize::new(0),
        worker_handles: Mutex::new(Vec::new()),
        unwritten: Arc::new(AtomicUsize::new(0)),
        addr,
        telemetry: Arc::new(Telemetry::new()),
        trace_store: TraceStore::new(crate::trace_store::DEFAULT_CAPACITY),
        metrics: Mutex::new(None),
        next_trace: AtomicU64::new(1),
        slow_ms: config.slow_ms,
        default_deadline_ms: config.default_deadline_ms,
        deadline_grace: Duration::from_millis(config.deadline_grace_ms),
        brownout_p95_ms: config.brownout_p95_ms,
        shed_below_priority: config.shed_below_priority,
        watchdog_escalate: Duration::from_millis(config.watchdog_escalate_ms),
        brownout: AtomicBool::new(false),
        wait_window: metrics::RollingWindow::new(Duration::from_secs(5), 512),
        watch: Mutex::new(HashMap::new()),
        next_watch: AtomicU64::new(0),
    });
    // The trace store sees the live record stream from here on: the
    // `trace` op, the slow-job log, and kill-restart correlation all read
    // from it. The tee is removed when the handle is joined.
    let tee_token = shared.trace_store.install();
    start_metrics_endpoint(&shared, config);
    {
        let mut handles = lock_handles(&shared);
        for _ in 0..config.workers {
            spawn_worker(&shared, &mut handles);
        }
        let sh = shared.clone();
        if let Ok(h) = std::thread::Builder::new()
            .name("chipmunk-watchdog".to_string())
            .spawn(move || watchdog_loop(&sh))
        {
            handles.push(h);
        }
    }
    replay_journal(&shared, replay);
    let accept = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("chipmunk-accept".to_string())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn accept loop")
    };
    Ok(ServerHandle {
        shared,
        accept,
        tee_token,
    })
}

/// Bind and start the exposition endpoint when one is configured (flag
/// first, then the `CHIPMUNK_METRICS_ADDR` environment variable). A bind
/// failure — including an injected `metrics_io` fault — is a logged
/// degradation to stats-only, never a startup error: losing observability
/// must not cost availability. The render closure holds a weak reference
/// so the endpoint does not keep a dead server's telemetry alive.
fn start_metrics_endpoint(shared: &Arc<Shared>, config: &ServerConfig) {
    let addr = config
        .metrics_addr
        .clone()
        .or_else(|| std::env::var("CHIPMUNK_METRICS_ADDR").ok())
        .filter(|a| !a.is_empty());
    let Some(addr) = addr else { return };
    let weak = Arc::downgrade(shared);
    let render: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || {
        weak.upgrade()
            .map(|shared| render_exposition(&shared))
            .unwrap_or_default()
    });
    match metrics::serve_exposition(&addr, render) {
        Ok(server) => {
            *lock_metrics(shared) = Some(server);
        }
        Err(e) => {
            shared.stats.metrics_degraded.store(true, Ordering::Relaxed);
            eprintln!(
                "chipmunk-serve: metrics endpoint on {addr} unavailable ({e}); \
                 continuing stats-only"
            );
        }
    }
}

/// Re-queue every journaled job a previous process accepted but never
/// answered. Replayed jobs carry a *discard* reply handle (their client
/// is gone — the receiver half of a fresh channel is dropped immediately),
/// so the compile runs for its cache side effect; the original submitter
/// collects the result with the `poll` op. Each replayed job counts as
/// `recovered`, and as `submitted` when it enters the queue, so the
/// conservation invariant keeps holding: a worker answers it as usual.
fn replay_journal(shared: &Arc<Shared>, replay: Vec<crate::journal::PendingJob>) {
    for pending in replay {
        let Some(journal) = &shared.journal else {
            return;
        };
        let Ok(req) = resolve(&pending.program, &pending.options) else {
            // Unparseable journal record: nothing can be owed for it.
            journal.completed(&pending.key);
            continue;
        };
        shared.stats.recovered.fetch_add(1, Ordering::Relaxed);
        chipmunk_trace::counter_add!("serve.journal.recovered", 1);
        if shared.cache.peek(&req.key).is_some() {
            // Answered before the crash (or by a twin): the poll op will
            // find it — nothing left to recompute.
            journal.completed(&pending.key);
            continue;
        }
        // The replayed job keeps its original trace id (when the journal
        // recorded one), so telemetry from the recompile correlates with
        // the pre-crash submission.
        let trace = pending
            .trace
            .clone()
            .unwrap_or_else(|| next_trace_id(shared));
        // Journaled plan progress is honored only when this daemon derives
        // the *same* plan fingerprint the previous one journaled — a
        // planner (or options) change restarts the plan from step 0.
        let plan_fp = plan_compilation(&req.program, &req.opts)
            .ok()
            .map(|p| p.fingerprint());
        let resume_from = match (&plan_fp, &pending.plan) {
            (Some(derived), Some(journaled)) if derived == journaled => pending.resume_from,
            _ => 0,
        };
        if resume_from > 0 {
            chipmunk_trace::event!(
                "serve.journal.resume",
                key = pending.key.as_str(),
                step = resume_from as u64,
            );
        }
        let priority = pending.priority;
        let (tx, _rx) = mpsc::channel::<Json>();
        let family = family_of(&req.states);
        let job = Job {
            req,
            trace,
            plan_fp,
            resume_from,
            reply: ReplyHandle {
                tx,
                pending: Arc::new(AtomicUsize::new(1)),
                stats: shared.stats.clone(),
                telemetry: shared.telemetry.clone(),
                unwritten: shared.unwritten.clone(),
                id: None,
                trace: None,
                family,
                admitted: Instant::now(),
                answered: false,
            },
            // A fresh full deadline window from replay time: the original
            // client is gone, and the recompile runs to settle the journal
            // and warm the cache — an already-elapsed window would expire
            // every replayed job at dequeue and defeat the at-least-once
            // promise.
            deadline: pending
                .options
                .deadline_ms
                .or(shared.default_deadline_ms)
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
        };
        match shared
            .queue
            .try_push_with_priority(job, i32::from(priority))
        {
            Ok(()) => {
                shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
                // Queue can't take it now: leave the journal record
                // pending so the *next* restart retries, and answer the
                // discard handle so it does not count as panicked.
                shared.stats.recovered.fetch_sub(1, Ordering::Relaxed);
                job.reply.refuse(error_response(
                    "queue_full",
                    "replay deferred to next start",
                ));
            }
        }
    }
}

/// Mark `key` answered in the journal (no-op without one). Called by
/// [`settle`] and after a refused push — but *not* when a worker dies
/// mid-job: that job's journal record stays pending and replays on the
/// next start, which is exactly the at-least-once retry the `internal`
/// error promises the client.
fn journal_done(shared: &Shared, key: &str) {
    if let Some(journal) = &shared.journal {
        journal.completed(key);
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Relaxed) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_read_timeout(shared.idle_timeout);
        // Responses are whole lines written as they are ready; without
        // this, Nagle's algorithm holds a pipelined response behind the
        // client's delayed ACK of the previous one.
        let _ = stream.set_nodelay(true);
        // Reserve a connection slot in one atomic step: a separate
        // load-then-increment lets two simultaneous accepts both pass the
        // check and exceed the cap.
        let reserved = shared
            .conns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < shared.max_conns).then_some(n + 1)
            })
            .is_ok();
        if !reserved {
            shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.conn.rejected", 1);
            let _ = write_line(
                &mut stream,
                &error_response("busy", "connection limit reached; retry later"),
            );
            continue;
        }
        let guard = ConnGuard(shared.clone());
        // Connection handlers are detached: they end when the client
        // disconnects (or its idle timeout expires), and any pending reply
        // channel they hold is answered by the draining workers before
        // those exit.
        let _ = std::thread::Builder::new()
            .name("chipmunk-conn".to_string())
            .spawn(move || handle_connection(stream, guard));
    }
}

fn begin_shutdown(shared: &Arc<Shared>, abort: bool) {
    if shared.stopping.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    if abort {
        shared.abort.store(true, Ordering::SeqCst);
        for job in shared.queue.drain_now() {
            // An abort drain is a deliberate answer ("shutting_down"), not
            // a crash: settling completes the journal record so the job
            // does not replay on the next start against the operator's
            // intent.
            let stopping = error_response("shutting_down", "job aborted by shutdown");
            settle(shared, &job.req.key, job.reply, Verdict::Drained, stopping);
        }
        // Fan the abort out to every in-flight compile's per-job cancel
        // flag — compiles launched before the abort carry their own flag,
        // not the shared one.
        for entry in lock_watch(shared).values() {
            entry.cancel.store(true, Ordering::SeqCst);
        }
    }
    shared.queue.close();
    if let Some(metrics) = &*lock_metrics(shared) {
        metrics.begin_shutdown();
    }
    // Wake the accept loop out of `accept()` with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

/// One connection: a reader (this thread) and a writer thread joined by a
/// reply channel. The reader never blocks on a worker, so the socket can
/// carry any number of jobs in flight; the writer streams responses back
/// as they are produced.
fn handle_connection(stream: TcpStream, guard: ConnGuard) {
    let shared = guard.0.clone();
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Json>();
    // The writer owns the connection slot: it is the last thread to touch
    // the socket (workers may still be finishing this connection's jobs
    // after the reader sees EOF), so the slot frees only when every
    // accepted job has been answered or dropped.
    let unwritten = shared.unwritten.clone();
    let spawned = std::thread::Builder::new()
        .name("chipmunk-conn-write".to_string())
        .spawn(move || {
            let _guard = guard;
            let mut writer = writer;
            // Every message consumed from the channel — written, failed to
            // write, or drained after a failure — settles one unit of the
            // global unflushed count that `queue_response` raised.
            while let Ok(doc) = rx.recv() {
                if faults::armed() && faults::fired(FaultKind::ConnReset) {
                    // Simulate the connection dying just before this
                    // response hit the wire: tear the socket down (the
                    // reader's next read fails too) and drain like a real
                    // write failure.
                    unwritten.fetch_sub(1, Ordering::AcqRel);
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    for _ in rx.iter() {
                        unwritten.fetch_sub(1, Ordering::AcqRel);
                    }
                    break;
                }
                let written = write_line(&mut writer, &doc);
                unwritten.fetch_sub(1, Ordering::AcqRel);
                if written.is_err() {
                    // Client gone: stop writing, but keep draining so
                    // worker sends land somewhere until their handles drop.
                    for _ in rx.iter() {
                        unwritten.fetch_sub(1, Ordering::AcqRel);
                    }
                    break;
                }
            }
        });
    if spawned.is_err() {
        return;
    }
    let pending = Arc::new(AtomicUsize::new(0));
    read_loop(stream, &shared, &tx, &pending);
    // Dropping `tx` lets the writer exit once the last in-flight job
    // (each holds a Sender clone) has replied.
}

/// The longest request line the reader buffers (corpus programs are
/// under 250 bytes). A longer one is answered `parse` and its connection
/// closed, so a client streaming without a newline cannot grow the
/// daemon's memory.
const MAX_LINE_BYTES: usize = 1 << 20;

fn read_loop(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<Json>,
    pending: &Arc<AtomicUsize>,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..pos]);
                    handle_line(line.trim(), shared, tx, pending);
                }
                if buf.len() > MAX_LINE_BYTES {
                    // Nothing was decoded, so the answer has no `id`; the
                    // rest of the stream cannot be framed, so close.
                    let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                    queue_response(&shared.unwritten, tx, error_response("parse", &message));
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // The idle deadline fired. A client waiting on in-flight
                // jobs is not idle — keep reading; replies are written by
                // the writer thread regardless.
                if pending.load(Ordering::Acquire) == 0 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // A final unterminated line is still a request (`lines()` semantics).
    if !buf.is_empty() {
        let line = String::from_utf8_lossy(&buf).to_string();
        handle_line(line.trim(), shared, tx, pending);
    }
}

fn handle_line(
    line: &str,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<Json>,
    pending: &Arc<AtomicUsize>,
) {
    if line.is_empty() {
        return;
    }
    let Incoming { id, request } = parse_line(line);
    let op = match &request {
        Err(_) => "invalid",
        Ok(Request::Status) => "status",
        Ok(Request::Stats) => "stats",
        Ok(Request::Cache { .. }) => "cache",
        Ok(Request::Shutdown { .. }) => "shutdown",
        Ok(Request::Compile { .. }) => "compile",
        Ok(Request::Poll { .. }) => "poll",
        Ok(Request::Trace { .. }) => "trace",
        Ok(Request::Telemetry) => "telemetry",
    };
    chipmunk_trace::event!("serve.request", op = op);
    let response = match request {
        Err(e) => error_response("parse", &e),
        Ok(Request::Status) => status_response(shared),
        Ok(Request::Stats) => stats_response(shared),
        Ok(Request::Cache { action }) => cache_response(shared, action),
        Ok(Request::Shutdown { abort }) => {
            // Queue the ack first, then trigger: channel FIFO guarantees
            // the client sees the ack even as the server tears down.
            let mode = if abort { "abort" } else { "drain" };
            let ack = Json::obj([("ok", Json::Bool(true)), ("stopping", Json::from(mode))]);
            queue_response(&shared.unwritten, tx, with_id(ack, id));
            begin_shutdown(shared, abort);
            return;
        }
        Ok(Request::Compile {
            program,
            options,
            trace,
            priority,
        }) => {
            start_compile(shared, &program, &options, trace, priority, tx, pending, id);
            return;
        }
        Ok(Request::Poll { program, options }) => poll_response(shared, &program, &options),
        Ok(Request::Trace { trace }) => trace_response(shared, &trace),
        Ok(Request::Telemetry) => telemetry_response(shared),
    };
    queue_response(&shared.unwritten, tx, with_id(response, id));
}

/// Mint a server-assigned trace id: the daemon's pid plus a process-wide
/// sequence, so ids stay unique across a kill-restart pair sharing a
/// journal.
fn next_trace_id(shared: &Shared) -> String {
    format!(
        "{:08x}-{:04x}",
        std::process::id(),
        shared.next_trace.fetch_add(1, Ordering::Relaxed)
    )
}

/// Spec family label: does the program touch stateful registers?
fn family_of(states: &[String]) -> Family {
    if states.is_empty() {
        Family::Stateless
    } else {
        Family::Stateful
    }
}

/// Whether a cached document's name layout differs from the requester's —
/// i.e. serving it required an actual name remap (outcome `remapped`)
/// rather than a verbatim cache read (outcome `cached`).
fn layout_differs(cached: &Json, fields: &[String], states: &[String]) -> bool {
    let differs = |key: &str, want: &[String]| match cached.get(key) {
        Some(Json::Arr(names)) => {
            names.len() != want.len()
                || names
                    .iter()
                    .zip(want)
                    .any(|(n, w)| n.as_str() != Some(w.as_str()))
        }
        _ => true,
    };
    differs("fields", fields) || differs("states", states)
}

/// Serve-side certification: re-check a result *document* (cache hit,
/// name-remapped twin, or freshly encoded) against the submitted program
/// by differential execution before it leaves the daemon. The grid is
/// reconstructed from the document's shape plus the requester's ALU
/// specs — sound because those specs are part of the cache key. Runs
/// under panic isolation: certification is the last line of defense
/// against corrupted documents, so even a panic in the decoder must
/// become a typed refusal, not a dead reader thread.
fn certify_wire(program: &Program, opts: &CompilerOptions, doc: &Json) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let wire = decode_result(doc)?;
        let grid = GridSpec {
            stages: wire.stages,
            slots: wire.slots,
            stateless: opts.stateless.clone(),
            stateful: opts.stateful.clone(),
        };
        certify_config(
            program,
            &CertifyRequest {
                grid: &grid,
                pipeline: &wire.pipeline,
                field_to_container: &wire.field_to_container,
                counterexamples: &wire.counterexamples,
                width: opts.cegis.verify_width,
                domain_width: opts.cegis.domain_width,
                samples: chipmunk::certify::DEFAULT_SAMPLES,
                seed: opts.cegis.seed ^ SERVE_CERT_SEED_SALT,
            },
        )
        .map(|_| ())
    }))
    .unwrap_or_else(|_| Err("certification panicked on this document".to_string()))
}

/// How many unit propagations the serve-side proof re-check may spend
/// before degrading the verdict to unchecked instead of blocking a
/// worker. Mirrors the compiler-side check budget.
const RECHECK_PROPAGATION_LIMIT: u64 = 200_000_000;

/// Serve-side proof certification — the infeasibility twin of
/// [`certify_wire`]: the DRAT certificate text that rides the response
/// is re-parsed and re-checked in-process before the verdict leaves the
/// daemon, so a bug between the solver's in-memory proof and its
/// serialization cannot ship a trusted-but-wrong "cannot fit in k
/// stages". The `proof_io` fault fires here: losing the proof at
/// materialization degrades the verdict to explicitly unchecked — never
/// a panic, never a silently-trusted claim. A verdict that is certified
/// but carries no proof text (the certificate was too large to ship)
/// keeps its compiler-side check, which already ran in this process.
fn recheck_infeasible(shared: &Shared, mut cert: InfeasibleCert) -> InfeasibleCert {
    fn degrade(cert: &mut InfeasibleCert, why: String) {
        cert.certified = false;
        cert.proof = None;
        cert.reason = Some(why);
    }
    if faults::armed() && faults::fired(FaultKind::ProofIo) {
        chipmunk_trace::counter_add!("serve.proof.io_failed", 1);
        degrade(
            &mut cert,
            "proof I/O fault while materializing the certificate; verdict degraded to unchecked"
                .to_string(),
        );
    } else if cert.certified {
        if let Some(text) = cert.proof.clone() {
            let rechecked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let parsed =
                    Certificate::parse(&text).map_err(|e| format!("proof re-parse failed: {e}"))?;
                match parsed.check(&CheckBudget {
                    propagations: Some(RECHECK_PROPAGATION_LIMIT),
                    account: None,
                }) {
                    chipmunk::CheckOutcome::Valid => Ok(()),
                    chipmunk::CheckOutcome::OutOfBudget => {
                        Err("proof re-check exhausted its propagation budget".to_string())
                    }
                    chipmunk::CheckOutcome::Invalid(why) => {
                        Err(format!("proof re-check failed: {why}"))
                    }
                }
            }))
            .unwrap_or_else(|_| Err("proof re-check panicked on this certificate".to_string()));
            if let Err(why) = rechecked {
                chipmunk_trace::counter_add!("serve.proof.recheck_failed", 1);
                degrade(&mut cert, why);
            }
        }
    }
    if cert.certified {
        shared
            .stats
            .infeasible_certified
            .fetch_add(1, Ordering::Relaxed);
    } else {
        shared
            .stats
            .infeasible_unchecked
            .fetch_add(1, Ordering::Relaxed);
        chipmunk_trace::counter_add!("serve.proof.unchecked", 1);
    }
    cert
}

/// A certified cache serve: the document in the requester's layout, how
/// it was served (`cached`, or `remapped` when serving renamed anything),
/// and the remap and certify times for the caller's stage samples.
struct Served {
    doc: Json,
    outcome: Outcome,
    remap_us: u64,
    certify_us: u64,
}

/// Serve `req` from the cache — the reader's fast path, `poll`, and the
/// worker's after-the-wait re-check all come here. The entry is remapped
/// into the requester's layout (the key equates programs whose canonical
/// *texts* match, which is name-based, so the requester may number the
/// same fields differently; an entry that cannot be remapped is a miss),
/// the `corrupt` fault is applied when armed, and the document is
/// certified. A document that fails certification is quarantined from
/// both tiers and `None` is returned: the caller treats it as a miss.
/// `lookup` says whether this counts as a cache lookup (hit or miss); the
/// worker's re-check does not, so one request counts once.
fn serve_cached(shared: &Shared, req: &Resolved, lookup: bool) -> Option<Served> {
    let mut outcome = Outcome::Cached;
    let mut remap_us = 0;
    let adapt = |cached: Json| {
        let started = Instant::now();
        if layout_differs(&cached, &req.fields, &req.states) {
            outcome = Outcome::Remapped;
        }
        let doc = remap_result(&cached, &req.fields, &req.states);
        remap_us = micros(started);
        doc
    };
    let doc = if lookup {
        shared.cache.get_adapted(&req.key, adapt)
    } else {
        shared.cache.peek(&req.key).and_then(adapt)
    }?;
    let doc = if faults::armed() && faults::fired(FaultKind::CacheCorrupt) {
        faults::corrupt_doc(&doc)
    } else {
        doc
    };
    let started = Instant::now();
    let certified = certify_wire(&req.program, &req.opts, &doc);
    let certify_us = micros(started);
    let s = &shared.stats;
    match certified {
        Ok(()) => {
            s.certified.fetch_add(1, Ordering::Relaxed);
            s.served_cached.fetch_add(1, Ordering::Relaxed);
            Some(Served {
                doc,
                outcome,
                remap_us,
                certify_us,
            })
        }
        Err(why) => {
            s.uncertified.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.certify.failed", 1);
            if shared.cache.remove(&req.key) {
                s.quarantined.fetch_add(1, Ordering::Relaxed);
                chipmunk_trace::counter_add!("serve.cache.quarantined", 1);
            }
            let mut sp = chipmunk_trace::span!("serve.quarantine", key = req.key.as_str());
            sp.record("reason", why.as_str());
            None
        }
    }
}

/// The reader-side half of a compile: parse, check the cache, enqueue.
/// Fast paths (cache hit, bad request, backpressure) answer immediately
/// through the reply channel; an enqueued job answers later through its
/// [`ReplyHandle`] when a worker finishes it.
#[allow(clippy::too_many_arguments)]
fn start_compile(
    shared: &Arc<Shared>,
    source: &str,
    options: &JobOptions,
    client_trace: Option<String>,
    priority: u8,
    tx: &mpsc::Sender<Json>,
    pending: &Arc<AtomicUsize>,
    id: Option<Json>,
) {
    let accepted = Instant::now();
    // Every compile request gets a trace id — the client's when supplied,
    // a minted one otherwise — echoed on whatever response answers it.
    let trace = client_trace.unwrap_or_else(|| next_trace_id(shared));
    let answer = |resp: Json, id: Option<Json>| {
        queue_response(&shared.unwritten, tx, with_id(with_trace(resp, &trace), id));
    };
    // Watchdog: every compile request checks the pool, not just the ones
    // that reach the queue — otherwise a stream of cache hits would never
    // replace a dead worker, and the first miss would find a shrunken pool.
    ensure_workers(shared);
    let req = match resolve(source, options) {
        Ok(req) => req,
        Err(response) => return answer(response, id),
    };
    let family = family_of(&req.states);
    if let Some(hit) = serve_cached(shared, &req, true) {
        let t = &shared.telemetry;
        t.record(Stage::Remap, hit.outcome, family, hit.remap_us);
        t.record(Stage::Certify, hit.outcome, family, hit.certify_us);
        t.record(Stage::EndToEnd, hit.outcome, family, micros(accepted));
        return answer(success_response(&req.key, true, 0, 0, hit.doc), id);
    }
    // A miss, or a quarantined entry: the request goes to the queue — one
    // retry, compiled from scratch.
    //
    // Brownout gate — after the cache check, so degraded service still
    // serves hits; cache-missing work below the shed priority is refused
    // with a pacing hint instead of deepening the backlog.
    update_brownout(shared);
    if shared.brownout.load(Ordering::Relaxed) && i32::from(priority) < shared.shed_below_priority {
        shared.stats.brownout_busy.fetch_add(1, Ordering::Relaxed);
        shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
        chipmunk_trace::counter_add!("serve.brownout.busy", 1);
        return answer(
            crate::protocol::error_response_retry(
                "busy",
                "server is browned out; low-priority work refused",
                retry_after_estimate(shared),
            ),
            id,
        );
    }
    if shared.stopping.load(Ordering::Relaxed) {
        return answer(
            error_response("shutting_down", "server is shutting down"),
            id,
        );
    }
    // Reserve the in-flight slot before the push: the matching decrement
    // runs when the [`ReplyHandle`] answers, on whichever path that is.
    pending.fetch_add(1, Ordering::AcqRel);
    // The plan fingerprint is journaled with the accept so a restarted
    // daemon can check journaled step progress against the plan *it*
    // derives before resuming mid-plan.
    let plan_fp = plan_compilation(&req.program, &req.opts)
        .ok()
        .map(|p| p.fingerprint());
    let job = Job {
        req,
        trace: trace.clone(),
        plan_fp,
        resume_from: 0,
        reply: ReplyHandle {
            tx: tx.clone(),
            pending: pending.clone(),
            stats: shared.stats.clone(),
            telemetry: shared.telemetry.clone(),
            unwritten: shared.unwritten.clone(),
            id,
            trace: Some(trace.clone()),
            family,
            admitted: accepted,
            answered: false,
        },
        deadline: options
            .deadline_ms
            .or(shared.default_deadline_ms)
            .map(|ms| accepted + Duration::from_millis(ms)),
    };
    // Write-ahead: the journal must know about the job before the queue
    // does, or a crash between the two loses it. The trace id rides the
    // record so a replay keeps the correlation.
    if let Some(journal) = &shared.journal {
        journal.accepted(
            &job.req.key,
            source,
            options,
            Some(&job.trace),
            priority,
            job.plan_fp.as_deref(),
        );
    }
    let (job, refusal) = match shared
        .queue
        .try_push_with_priority(job, i32::from(priority))
    {
        Ok(()) => {
            shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::histogram_record!("serve.queue.depth", shared.queue.depth() as u64);
            return;
        }
        Err(PushError::Full(job)) => {
            // Saturation: before refusing, try to make room by shedding
            // the youngest queued job of strictly lower priority. The
            // victim was admitted (counted `submitted` at its own push),
            // so it settles as `shed`, keeping the ledger balanced; the
            // newcomer then retries the push once.
            let mut job = job;
            if let Some(victim) = shared.queue.shed_lowest_below(i32::from(priority)) {
                chipmunk_trace::counter_add!("serve.queue.shed", 1);
                let shed = crate::protocol::error_response_retry(
                    "shed",
                    "evicted by a higher-priority job under saturation",
                    retry_after_estimate(shared),
                );
                settle(shared, &victim.req.key, victim.reply, Verdict::Shed, shed);
                match shared
                    .queue
                    .try_push_with_priority(job, i32::from(priority))
                {
                    Ok(()) => {
                        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(PushError::Full(j)) | Err(PushError::Closed(j)) => job = j,
                }
            }
            shared.stats.rejected_full.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.queue.rejected", 1);
            let capacity = shared.queue.capacity();
            let full = format!("queue at capacity ({capacity}); retry later");
            (job, error_response("queue_full", &full))
        }
        Err(PushError::Closed(job)) => (
            job,
            error_response("shutting_down", "server is shutting down"),
        ),
    };
    // A refusal is a terminal answer: nothing is owed, so the write-ahead
    // record completes immediately.
    job.reply.refuse(refusal);
    journal_done(shared, &job.req.key);
}

/// The `poll` op: a cache-only lookup for a compile-shaped request.
/// Never enqueues — the response is `found:false` when the result is not
/// (yet) available. This is how a client whose daemon was killed collects
/// the answer after the journal replay recompiles it. Polled results go
/// through the same certification gate as every other served document.
fn poll_response(shared: &Shared, source: &str, options: &JobOptions) -> Json {
    let req = match resolve(source, options) {
        Ok(req) => req,
        Err(response) => return response,
    };
    // A quarantined entry reports not-found, so the client resubmits.
    let served = serve_cached(shared, &req, true);
    let mut doc = vec![
        ("ok", Json::Bool(true)),
        ("found", Json::Bool(served.is_some())),
        ("key", Json::from(req.key.as_str())),
    ];
    if let Some(hit) = served {
        doc.extend([("cached", Json::Bool(true)), ("result", hit.doc)]);
    }
    Json::obj(doc)
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if faults::armed() && faults::fired(FaultKind::WorkerDeath) {
            // Deliberately *outside* the isolation below: exercises the
            // real worker-death path — ReplyHandle::drop answers the job,
            // WorkerGuard fixes the live count, the watchdog respawns.
            panic!("injected fault: worker death");
        }
        // Panic isolation for the whole job: whatever escapes run_job
        // (the compile call has its own message-preserving layer inside)
        // is absorbed here so the worker survives; an unanswered job is
        // answered by its ReplyHandle on drop. `run_job` returning false
        // means the watchdog already answered the job and respawned a
        // replacement — this thread leaves the pool.
        let keep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(shared, job)))
            .unwrap_or(true);
        if !keep {
            break;
        }
    }
}

/// Run one dequeued job to completion. Returns `false` when the watchdog
/// escalated past this worker (answered the client and respawned a
/// replacement) — the caller must then exit the pool.
fn run_job(shared: &Arc<Shared>, job: Job) -> bool {
    let mut job = job;
    let (family, admitted) = (job.reply.family, job.reply.admitted);
    let wait_us = micros(admitted);
    let wait_ms = wait_us / 1000;
    shared
        .stats
        .wait_ms_total
        .fetch_add(wait_ms, Ordering::Relaxed);
    chipmunk_trace::histogram_record!("serve.queue.wait_ms", wait_ms);
    // Every dequeue feeds the brownout window — it is queue wait, not
    // service time, that signals the backlog outrunning capacity.
    shared.wait_window.record(wait_ms);
    update_brownout(shared);
    // One latency sample per stage lands here once the outcome is known
    // (the end-to-end one when the job settles); the compile sample
    // carries the winning strategy's label.
    let observe =
        |outcome: Outcome, strat: Strat, compile_us: u64, certify_us: u64, remap_us: u64| {
            let t = &shared.telemetry;
            t.record(Stage::QueueWait, outcome, family, wait_us);
            t.record_strat(Stage::Compile, outcome, family, strat, compile_us);
            t.record(Stage::Certify, outcome, family, certify_us);
            t.record(Stage::Remap, outcome, family, remap_us);
        };
    if shared.abort.load(Ordering::Relaxed) {
        // Popped after the abort drain: still a drained job.
        observe(Outcome::Failed, Strat::Na, 0, 0, 0);
        let stopping = error_response("shutting_down", "job aborted by shutdown");
        settle(shared, &job.req.key, job.reply, Verdict::Drained, stopping);
        return true;
    }
    // Deadline-aware admission at dequeue: a job whose whole window
    // elapsed in the queue would spend solver time on an answer nobody is
    // waiting for — refuse it with a typed error before it reaches the
    // compiler.
    if job.deadline.map(|d| Instant::now() >= d).unwrap_or(false) {
        chipmunk_trace::counter_add!("serve.job.expired", 1);
        observe(Outcome::Failed, Strat::Na, 0, 0, 0);
        let expired = error_response("expired", "deadline passed while the job queued");
        settle(shared, &job.req.key, job.reply, Verdict::Expired, expired);
        return true;
    }
    // A twin of this job may have been compiled while it queued. Like
    // every cache serve, the hit is certified first; a corrupt entry is
    // quarantined and this worker falls through to compile from scratch.
    if let Some(hit) = serve_cached(shared, &job.req, false) {
        observe(hit.outcome, Strat::Na, 0, hit.certify_us, hit.remap_us);
        let response = success_response(&job.req.key, true, 0, wait_ms, hit.doc);
        let verdict = Verdict::Completed(hit.outcome);
        settle(shared, &job.req.key, job.reply, verdict, response);
        return true;
    }
    if faults::armed() && faults::fired(FaultKind::SolverStall) {
        std::thread::sleep(faults::stall_duration());
    }
    // Thread the remaining wall-clock window into the compile: the CEGIS
    // deadline min-merges with any timeout-derived one inside the
    // compiler, flows into the shared budget account, and the plan
    // executor derives remaining-time-aware per-step resource budgets
    // from it at each step launch.
    job.req.opts.cegis.deadline = match (job.req.opts.cegis.deadline, job.deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    // Register with the watchdog before the compile starts. The per-job
    // cancel flag replaces the global abort flag as the compile's
    // cooperative cancellation channel; shutdown fans out to it, and the
    // watchdog raises it at deadline+grace.
    let cancel = Arc::new(AtomicBool::new(false));
    let reply_slot = Arc::new(Mutex::new(Some(job.reply)));
    let watch_id = shared.next_watch.fetch_add(1, Ordering::Relaxed);
    lock_watch(shared).insert(
        watch_id,
        WatchEntry {
            key: job.req.key.clone(),
            deadline: job.deadline,
            cancel: cancel.clone(),
            reply: reply_slot.clone(),
            cancelled_at: None,
        },
    );
    // Close the race with an abortive shutdown whose fan-out ran before
    // this entry existed.
    if shared.abort.load(Ordering::SeqCst) {
        cancel.store(true, Ordering::SeqCst);
    }
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    // The job span carries the trace id, so every `cegis.*` / `sat.*`
    // span the compile emits on this thread nests under a span that names
    // it — the `trace` op and the slow-job log key off that field.
    let mut sp = chipmunk_trace::span!(
        "serve.job",
        key = job.req.key.as_str(),
        trace = job.trace.as_str(),
        family = family.as_str(),
    );
    let started = Instant::now();
    // The plan observer runs on this thread once per executed step. It
    // journals finished (non-winning) steps so a kill-restart resumes
    // mid-plan, counts cancelled portfolio losers separately from
    // failures, and remembers the winning strategy for the compile-stage
    // latency label.
    let win_strat = AtomicUsize::new(3); // STRATS index of Strat::Na
    let observer = |report: &chipmunk::plan::StepReport| {
        let (strat, idx) = match report.strategy {
            Strategy::CanonicalAllocation => (Strat::Canonical, 0),
            Strategy::OpcodeRestricted => (Strat::Restricted, 1),
            Strategy::FullAlu => (Strat::Full, 2),
        };
        match report.outcome {
            StepOutcome::Success => {
                win_strat.store(idx, Ordering::Relaxed);
            }
            StepOutcome::Cancelled => {
                // A racing loser another strategy beat: spent search, not
                // a failure — it gets its own outcome label and counter.
                shared
                    .stats
                    .portfolio_cancelled
                    .fetch_add(1, Ordering::Relaxed);
                chipmunk_trace::counter_add!("serve.portfolio.cancelled", 1);
                shared.telemetry.record_strat(
                    Stage::Compile,
                    Outcome::Cancelled,
                    family,
                    strat,
                    report.elapsed.as_micros() as u64,
                );
            }
            StepOutcome::Infeasible | StepOutcome::Timeout => {
                // Finished without winning: journal it so a restart
                // resumes at the first unfinished step.
                if let (Some(journal), Some(fp)) = (&shared.journal, job.plan_fp.as_deref()) {
                    journal.step(&job.req.key, fp, report.step);
                }
            }
            _ => {}
        }
    };
    // Message-preserving panic isolation around the compile itself: a
    // panicking synthesis pass becomes a structured `internal` response
    // carrying the (truncated) panic text.
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if faults::armed() && faults::fired(FaultKind::CompilePanic) {
            panic!("injected fault: compile panic");
        }
        if faults::armed() && faults::fired(FaultKind::ClockStall) {
            // A stall that never observes the cooperative cancel flag —
            // the shape of a wedged solver. Only the watchdog's
            // escalation path (answer, abandon worker, respawn) gets the
            // client an answer before this sleep ends.
            std::thread::sleep(faults::stall_duration());
        }
        compile_with_control(
            &job.req.program,
            &job.req.opts,
            PlanControl {
                cancel: Some(cancel.clone()),
                resume_from: job.resume_from,
                observer: Some(&observer),
            },
        )
    }));
    let compile_us = micros(started);
    let synth_ms = compile_us / 1000;
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    lock_watch(shared).remove(&watch_id);
    let taken = {
        let mut slot = reply_slot.lock().unwrap_or_else(|p| p.into_inner());
        slot.take()
    };
    let Some(reply) = taken else {
        // The watchdog already answered this job `expired` and respawned
        // a replacement: whatever the overrunning compile produced is
        // discarded — caching it would hand out a result the proof
        // pipeline never re-checked against a live client — and this
        // thread leaves the pool to settle the worker count.
        drop(sp);
        return false;
    };
    chipmunk_trace::histogram_record!("serve.job.synth_ms", synth_ms);
    shared
        .stats
        .synth_ms_total
        .fetch_add(synth_ms, Ordering::Relaxed);
    shared
        .stats
        .synth_ms_max
        .fetch_max(synth_ms, Ordering::Relaxed);
    // Queue-wait vs compile split as numeric close fields, so
    // `trace-report` can aggregate them per span.
    sp.record("wait_ms", wait_ms);
    sp.record("synth_ms", synth_ms);
    let mut fresh_certify_us = 0u64;
    let (response, verdict) = match res {
        Ok(Ok(out)) => {
            // The producing run's solver cost feeds the gauges whether or
            // not certification accepts the document — the work was done.
            shared.telemetry.record_solver(
                out.stats.synth_conflicts,
                out.stats.synth_propagations,
                out.stats.verify_conflicts,
                out.stats.verify_propagations,
                out.stats.clause_bytes,
                out.stats.budget_trips,
            );
            // `compile` certified the in-memory result; certifying the
            // *encoded* document additionally covers the wire/cache
            // serialization path, so what enters the cache is exactly
            // what was proven.
            let result = result_doc(&out, &job.req.fields, &job.req.states);
            let certify_started = Instant::now();
            let certified = certify_wire(&job.req.program, &job.req.opts, &result);
            fresh_certify_us = micros(certify_started);
            match certified {
                Ok(()) => {
                    shared.stats.certified.fetch_add(1, Ordering::Relaxed);
                    sp.record("result", "ok");
                    shared.cache.put(&job.req.key, &result);
                    (
                        success_response(&job.req.key, false, synth_ms, wait_ms, result),
                        Verdict::Completed(Outcome::Fresh),
                    )
                }
                Err(why) => {
                    shared.stats.uncertified.fetch_add(1, Ordering::Relaxed);
                    sp.record("result", "uncertified");
                    (
                        error_response(
                            "uncertified",
                            &format!("result failed certification: {why}"),
                        ),
                        Verdict::Failed,
                    )
                }
            }
        }
        Ok(Err(e)) => {
            let code = if shared.abort.load(Ordering::Relaxed) {
                "shutting_down"
            } else if matches!(e, CodegenError::Timeout)
                && job.deadline.map(|d| Instant::now() >= d).unwrap_or(false)
            {
                // The compile stopped because the propagated deadline ran
                // out (watchdog cancel or budget exhaustion) — to the
                // client that is `expired`, not a generic timeout.
                "expired"
            } else {
                codegen_error_code(&e)
            };
            let verdict = if code == "expired" {
                chipmunk_trace::counter_add!("serve.job.expired", 1);
                Verdict::Expired
            } else {
                Verdict::Failed
            };
            sp.record("result", code);
            let response = match e {
                CodegenError::Infeasible(cert) if code == "infeasible" => {
                    let cert = recheck_infeasible(shared, cert);
                    let message = CodegenError::Infeasible(cert.clone()).to_string();
                    sp.record("proof_certified", cert.certified);
                    infeasible_response(&message, &cert)
                }
                e => error_response(code, &e.to_string()),
            };
            (response, verdict)
        }
        Err(payload) => {
            chipmunk_trace::counter_add!("serve.job.panicked", 1);
            sp.record("result", "internal");
            (
                error_response(
                    "internal",
                    &format!(
                        "compiler panicked: {} — safe to retry",
                        faults::panic_message(payload.as_ref())
                    ),
                ),
                Verdict::Panicked,
            )
        }
    };
    // Close the job span before the telemetry sample and the slow-job
    // check: the dumped tree then includes the root's duration.
    drop(sp);
    let win = match win_strat.load(Ordering::Relaxed) {
        0 => Strat::Canonical,
        1 => Strat::Restricted,
        2 => Strat::Full,
        _ => Strat::Na,
    };
    observe(verdict.outcome(), win, compile_us, fresh_certify_us, 0);
    let e2e_ms = micros(admitted) / 1000;
    settle(shared, &job.req.key, reply, verdict, response);
    if let Some(slow_ms) = shared.slow_ms {
        if e2e_ms >= slow_ms {
            let tree = shared
                .trace_store
                .job_tree(&job.trace)
                .map(|t| t.to_compact())
                .unwrap_or_else(|| "null".to_string());
            eprintln!(
                "chipmunk-serve: slow job key={} trace={} e2e_ms={e2e_ms} (threshold {slow_ms}ms) spans={tree}",
                job.req.key, job.trace,
            );
        }
    }
    true
}

/// Estimate how long a refused client should wait before retrying:
/// roughly the backlog drained at the average observed compile rate,
/// clamped to a sane band.
fn retry_after_estimate(shared: &Shared) -> u64 {
    let completed = shared.stats.completed.load(Ordering::Relaxed).max(1);
    let avg_synth_ms = shared.stats.synth_ms_total.load(Ordering::Relaxed) / completed;
    let depth = shared.queue.depth() as u64;
    let workers = shared.workers.max(1) as u64;
    (depth.saturating_mul(avg_synth_ms.max(1)) / workers).clamp(100, 10_000)
}

/// Brownout state machine, driven by the queue-wait p95 over a sliding
/// window. Enter when the p95 crosses the configured threshold; exit
/// with hysteresis, once the p95 falls to half the threshold (or the
/// window drains empty). Called from dequeue, admission, and the
/// watchdog tick, so the state keeps moving even when traffic stops.
fn update_brownout(shared: &Shared) {
    let Some(threshold) = shared.brownout_p95_ms else {
        return;
    };
    if shared.brownout.load(Ordering::Relaxed) {
        let clear = match shared.wait_window.percentile(95.0) {
            None => true,
            Some(p95) => p95 <= threshold / 2,
        };
        if clear && shared.brownout.swap(false, Ordering::Relaxed) {
            shared.stats.brownout_exited.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.brownout.exited", 1);
            chipmunk_trace::event!("serve.brownout", state = "exit");
        }
    } else {
        // Require a few samples before tripping: one slow dequeue after
        // an idle stretch is not overload.
        let trip = shared.wait_window.len() >= 4
            && shared
                .wait_window
                .percentile(95.0)
                .map(|p95| p95 >= threshold)
                .unwrap_or(false);
        if trip && !shared.brownout.swap(true, Ordering::Relaxed) {
            shared
                .stats
                .brownout_entered
                .fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.brownout.entered", 1);
            chipmunk_trace::event!("serve.brownout", state = "enter");
        }
    }
}

/// The watchdog thread: ticks the brownout state machine and sweeps the
/// in-flight registry for jobs past deadline + grace. Exits once
/// shutdown has begun and no queued or in-flight work remains.
fn watchdog_loop(shared: &Arc<Shared>) {
    loop {
        update_brownout(shared);
        sweep_watchdog(shared);
        // Exit once shutdown has begun and no compile can still need
        // escalation: the registry is empty and either the queue is too
        // or there are no workers to ever dequeue what remains (a
        // zero-worker daemon closed in drain mode keeps its queue).
        if shared.stopping.load(Ordering::Relaxed)
            && lock_watch(shared).is_empty()
            && (shared.queue.depth() == 0 || shared.workers == 0)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One watchdog sweep over the in-flight registry.
///
/// Stage 1 (hard cancel): any compile past deadline + grace gets its
/// cooperative cancel flag raised; the solver notices at its next poll
/// and unwinds as a timeout, which `run_job` maps to `expired`.
///
/// Stage 2 (escalation): if the solver still has not yielded after the
/// escalation bound, the watchdog takes the job's reply handle — the
/// worker sees the empty slot when the compile finally returns and
/// exits the pool — answers the client with a typed `expired` error,
/// and spawns a replacement worker so capacity is restored immediately.
fn sweep_watchdog(shared: &Arc<Shared>) {
    let now = Instant::now();
    let mut escalate: Vec<WatchEntry> = Vec::new();
    {
        let mut watch = lock_watch(shared);
        let mut ripe = Vec::new();
        for (&id, entry) in watch.iter_mut() {
            let Some(deadline) = entry.deadline else {
                continue;
            };
            match entry.cancelled_at {
                None => {
                    if now >= deadline + shared.deadline_grace {
                        entry.cancel.store(true, Ordering::SeqCst);
                        entry.cancelled_at = Some(now);
                        shared
                            .stats
                            .watchdog_cancelled
                            .fetch_add(1, Ordering::Relaxed);
                        chipmunk_trace::counter_add!("serve.watchdog.cancelled", 1);
                        chipmunk_trace::event!("serve.watchdog.cancel", key = entry.key.as_str(),);
                    }
                }
                Some(at) => {
                    if now.saturating_duration_since(at) >= shared.watchdog_escalate {
                        ripe.push(id);
                    }
                }
            }
        }
        // Removed under the lock, acted on outside it — spawning threads
        // and sending replies must not hold the registry.
        for id in ripe {
            if let Some(entry) = watch.remove(&id) {
                escalate.push(entry);
            }
        }
    }
    for entry in escalate {
        let taken = {
            let mut g = entry.reply.lock().unwrap_or_else(|p| p.into_inner());
            g.take()
        };
        // `None` means the worker finished in the race window and already
        // answered — no escalation needed, nothing to respawn.
        let Some(reply) = taken else { continue };
        shared
            .stats
            .watchdog_escalations
            .fetch_add(1, Ordering::Relaxed);
        chipmunk_trace::counter_add!("serve.watchdog.escalated", 1);
        chipmunk_trace::event!("serve.watchdog.escalate", key = entry.key.as_str());
        // The worker abandoned here exits on its own once the stuck
        // compile returns; its replacement starts now so capacity does
        // not wait on the stall clearing. Respawn before answering so a
        // client reacting to the reply observes the restored pool.
        {
            let mut handles = lock_handles(shared);
            spawn_worker(shared, &mut handles);
        }
        shared
            .stats
            .workers_respawned
            .fetch_add(1, Ordering::Relaxed);
        chipmunk_trace::counter_add!("serve.worker.respawned", 1);
        let expired = error_response(
            "expired",
            "deadline exceeded and the solver did not yield to cancellation; \
             worker abandoned and respawned — safe to retry",
        );
        settle(shared, &entry.key, reply, Verdict::Expired, expired);
    }
}

fn success_response(key: &str, cached: bool, synth_ms: u64, wait_ms: u64, result: Json) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("cached", Json::Bool(cached)),
        ("key", Json::from(key)),
        ("synth_ms", Json::from(synth_ms)),
        ("wait_ms", Json::from(wait_ms)),
        ("result", result),
    ])
}

fn status_response(shared: &Shared) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        (
            "state",
            Json::from(if shared.stopping.load(Ordering::Relaxed) {
                "stopping"
            } else {
                "running"
            }),
        ),
        ("queue_depth", Json::from(shared.queue.depth())),
        ("queue_capacity", Json::from(shared.queue.capacity())),
        ("workers", Json::from(shared.workers)),
        (
            "live_workers",
            Json::from(shared.live_workers.load(Ordering::Relaxed)),
        ),
        (
            "in_flight",
            Json::from(shared.in_flight.load(Ordering::Relaxed)),
        ),
        (
            "connections",
            Json::from(shared.conns.load(Ordering::Relaxed)),
        ),
        ("max_connections", Json::from(shared.max_conns)),
        ("cache_entries", Json::from(shared.cache.len())),
    ])
}

/// Every figure the daemon reports, each named once here or in the
/// [`Stats`] list: the ledger, the cache's and the journal's counters,
/// and the gauges. The `stats` and `telemetry` ops and the Prometheus
/// exposition all render this list.
fn report(shared: &Shared) -> Vec<Figure> {
    use Kind::{Counter, Gauge};
    let (cache, traces) = (&shared.cache, &shared.trace_store);
    let (hits, misses) = (cache.hits(), cache.misses());
    // Over every lookup so far; `null` before the first one.
    let hit_rate = match hits + misses {
        0 => Json::Null,
        lookups => Json::from(hits as f64 / lookups as f64),
    };
    // `null` without a journal.
    let (pending, journal_errors) = match &shared.journal {
        Some(j) => (Json::from(j.pending_len()), Json::from(j.errors())),
        None => (Json::Null, Json::Null),
    };
    let addr = lock_metrics(shared).as_ref().map(|m| m.addr().to_string());
    let load = |cell: &AtomicUsize| Json::from(cell.load(Ordering::Relaxed));
    let mut figures = shared.stats.listing();
    figures.extend([
        ("cache_hits", Counter, Json::from(hits)),
        ("cache_misses", Counter, Json::from(misses)),
        ("cache_hit_rate", Gauge, hit_rate),
        ("cache_entries", Gauge, Json::from(cache.len())),
        ("evictions", Counter, Json::from(cache.evictions())),
        ("disk_lines", Gauge, Json::from(cache.disk_lines())),
        ("compactions", Counter, Json::from(cache.compactions())),
        ("degraded", Gauge, Json::Bool(cache.degraded())),
        ("disk_errors", Counter, Json::from(cache.disk_errors())),
        ("journal_pending", Gauge, pending),
        ("journal_errors", Counter, journal_errors),
        ("brownout", Gauge, shared.brownout.reading()),
        ("queue_depth", Gauge, Json::from(shared.queue.depth())),
        ("in_flight", Gauge, load(&shared.in_flight)),
        ("connections", Gauge, load(&shared.conns)),
        ("live_workers", Gauge, load(&shared.live_workers)),
        ("metrics_addr", Gauge, addr.map_or(Json::Null, Json::from)),
        ("trace_buffered", Gauge, Json::from(traces.len())),
        ("trace_dropped", Counter, Json::from(traces.dropped())),
    ]);
    figures
}

/// A response object: `head`, then every [`report`] figure.
fn reported(shared: &Shared, head: Vec<(&'static str, Json)>) -> Json {
    let figures = report(shared)
        .into_iter()
        .map(|(name, _, value)| (name, value));
    Json::obj(head.into_iter().chain(figures))
}

fn stats_response(shared: &Shared) -> Json {
    reported(shared, vec![("ok", Json::Bool(true))])
}

/// The `trace` op: the buffered span tree for a job's trace id.
/// `found:false` when the ring no longer (or never) holds it.
fn trace_response(shared: &Shared, trace: &str) -> Json {
    match shared.trace_store.job_tree(trace) {
        Some(tree) => Json::obj([
            ("ok", Json::Bool(true)),
            ("found", Json::Bool(true)),
            ("trace", Json::from(trace)),
            ("tree", tree),
        ]),
        None => Json::obj([
            ("ok", Json::Bool(true)),
            ("found", Json::Bool(false)),
            ("trace", Json::from(trace)),
        ]),
    }
}

/// The `telemetry` op: per-stage latency summaries (merged across
/// outcomes and families), per-outcome job counts, solver totals, and
/// every [`report`] figure — everything `chipmunkc top` renders, in one
/// response.
fn telemetry_response(shared: &Shared) -> Json {
    let t = &shared.telemetry;
    let outcomes = OUTCOMES.map(|o| (o.as_str(), Json::from(t.count(Stage::EndToEnd, o))));
    let solver = t.solver_totals().map(|(name, v)| (name, Json::from(v)));
    reported(
        shared,
        vec![
            ("ok", Json::Bool(true)),
            (
                "stages",
                Json::obj(STAGES.map(|s| (s.as_str(), t.stage_summary(s)))),
            ),
            ("outcomes", Json::obj(outcomes)),
            ("solver", Json::obj(solver)),
        ],
    )
}

/// Render the Prometheus exposition for the scrape endpoint: the
/// telemetry histograms and solver totals, then every [`report`] figure
/// that is a number (a flag as 0/1).
fn render_exposition(shared: &Shared) -> String {
    let (mut counters, mut gauges) = (Vec::new(), Vec::new());
    for (name, kind, value) in report(shared) {
        match (kind, value) {
            (_, Json::Bool(flag)) => gauges.push((name, f64::from(u8::from(flag)))),
            (Kind::Counter, value) => counters.extend(value.as_u64().map(|v| (name, v))),
            (Kind::Gauge, value) => gauges.extend(value.as_f64().map(|v| (name, v))),
        }
    }
    metrics::render_exposition(&shared.telemetry, &counters, &gauges)
}

fn cache_response(shared: &Shared, action: CacheAction) -> Json {
    let cache = &shared.cache;
    match action {
        CacheAction::Stats => Json::obj([
            ("ok", Json::Bool(true)),
            ("entries", Json::from(cache.len())),
            (
                "capacity",
                cache.capacity().map(Json::from).unwrap_or(Json::Null),
            ),
            ("hits", Json::from(cache.hits())),
            ("misses", Json::from(cache.misses())),
            ("evictions", Json::from(cache.evictions())),
            ("disk_lines", Json::from(cache.disk_lines())),
            ("compactions", Json::from(cache.compactions())),
            ("degraded", Json::Bool(cache.degraded())),
            ("disk_errors", Json::from(cache.disk_errors())),
        ]),
        CacheAction::Compact => match cache.compact() {
            Ok((before, after)) => Json::obj([
                ("ok", Json::Bool(true)),
                ("lines_before", Json::from(before)),
                ("lines_after", Json::from(after)),
            ]),
            Err(e) => error_response("io", &format!("compaction failed: {e}")),
        },
        CacheAction::Clear => match cache.clear() {
            Ok(cleared) => Json::obj([("ok", Json::Bool(true)), ("cleared", Json::from(cleared))]),
            Err(e) => error_response("io", &format!("clear failed: {e}")),
        },
    }
}

fn write_line(w: &mut TcpStream, doc: &Json) -> std::io::Result<()> {
    use std::io::Write;
    let mut line = doc.to_compact();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Resolve a user-supplied address string early, for friendlier CLI errors.
pub fn resolve_addr(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))
}
