//! Daemon telemetry: rolling latency histograms, solver gauges, and a
//! zero-dependency Prometheus text-exposition endpoint.
//!
//! The daemon records one sample per job into a fixed grid of
//! [`chipmunk_trace::metrics::Histogram`]s — stage × outcome × spec
//! family — so percentile estimates here carry the same guarantee as the
//! trace layer's: monotone in `p` and within one bucket of the exact
//! sample quantile.
//!
//! Labels:
//!
//! - **stage** — which part of a job's life the sample times:
//!   `queue_wait` (accepted → popped by a worker), `compile` (the
//!   synthesis call), `certify` (serve-side certification of the outgoing
//!   document), `remap` (name-remapping a cached document onto the
//!   requester's layout), `e2e` (accepted → answer queued).
//! - **outcome** — `fresh` (compiled by a worker), `cached` (served from
//!   the cache with the requester's own layout), `remapped` (served from
//!   a twin's cache entry under different field names), `failed` (any
//!   error answer), `cancelled` (a portfolio loser stopped because a
//!   sibling strategy won — per plan step, never a job answer).
//! - **family** — `stateless` (the program touches packet fields only) or
//!   `stateful` (it reads or writes register state).
//! - **strategy** — which synthesis strategy produced the sample:
//!   `canonical` (canonical allocation), `restricted` (opcode-restricted
//!   ALU), `full` (full ALU), or `na` when no single strategy applies
//!   (queue wait, cache serves, failures without a winner).
//!
//! The exposition endpoint is a deliberately tiny hand-rolled HTTP/1.1
//! listener (`GET /metrics` → `text/plain; version=0.0.4`); everything
//! else is 404. It runs on its own thread, degrades to stats-only when
//! the socket cannot be bound (the daemon keeps serving — losing
//! observability must never cost availability), and is exercised under
//! fault injection by the `metrics_io` chaos kind.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chipmunk_trace::json::Json;
use chipmunk_trace::metrics::{percentile_of, Histogram};

use crate::faults::{self, FaultKind};

/// The quantiles every summary exposes.
pub const QUANTILES: [(f64, &str); 3] = [(50.0, "0.5"), (95.0, "0.95"), (99.0, "0.99")];

/// Which part of a job's life a latency sample times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Accepted (journaled/enqueued) until a worker pops the job.
    QueueWait,
    /// The synthesis call itself.
    Compile,
    /// Serve-side certification of an outgoing document.
    Certify,
    /// Name-remapping a cached document onto the requester's layout.
    Remap,
    /// Accepted until the answer is queued to the connection writer.
    EndToEnd,
}

/// All stages, in exposition order.
pub const STAGES: [Stage; 5] = [
    Stage::QueueWait,
    Stage::Compile,
    Stage::Certify,
    Stage::Remap,
    Stage::EndToEnd,
];

impl Stage {
    /// The `stage` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Compile => "compile",
            Stage::Certify => "certify",
            Stage::Remap => "remap",
            Stage::EndToEnd => "e2e",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Compile => 1,
            Stage::Certify => 2,
            Stage::Remap => 3,
            Stage::EndToEnd => 4,
        }
    }
}

/// How the job was answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Compiled from scratch by a worker.
    Fresh,
    /// Served from the cache with the requester's own field layout.
    Cached,
    /// Served from a twin's cache entry under different field names.
    Remapped,
    /// Any error answer (uncertified, typed failure, panic).
    Failed,
    /// A racing portfolio step stopped because a sibling won. Recorded
    /// per cancelled *step*, never as a job answer — a loser is spent
    /// search, not a failure, and must not pollute the failure latency
    /// distribution.
    Cancelled,
}

/// All outcomes, in exposition order.
pub const OUTCOMES: [Outcome; 5] = [
    Outcome::Fresh,
    Outcome::Cached,
    Outcome::Remapped,
    Outcome::Failed,
    Outcome::Cancelled,
];

impl Outcome {
    /// The `outcome` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Fresh => "fresh",
            Outcome::Cached => "cached",
            Outcome::Remapped => "remapped",
            Outcome::Failed => "failed",
            Outcome::Cancelled => "cancelled",
        }
    }

    fn index(self) -> usize {
        match self {
            Outcome::Fresh => 0,
            Outcome::Cached => 1,
            Outcome::Remapped => 2,
            Outcome::Failed => 3,
            Outcome::Cancelled => 4,
        }
    }
}

/// Whether the submitted program touches register state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Packet fields only.
    Stateless,
    /// Reads or writes stateful registers.
    Stateful,
}

/// Both families, in exposition order.
pub const FAMILIES: [Family; 2] = [Family::Stateless, Family::Stateful];

impl Family {
    /// The `family` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Stateless => "stateless",
            Family::Stateful => "stateful",
        }
    }

    fn index(self) -> usize {
        match self {
            Family::Stateless => 0,
            Family::Stateful => 1,
        }
    }
}

/// Which synthesis strategy a latency sample is attributed to. Mirrors
/// `chipmunk::plan::Strategy` (the conversion lives in the server, so the
/// metrics module stays self-contained), plus `Na` for samples no single
/// strategy produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strat {
    /// Canonical field-to-container allocation.
    Canonical,
    /// Opcode-restricted (arithmetic-only) ALU grammar.
    Restricted,
    /// The full ALU grammar with free allocation.
    Full,
    /// No single strategy applies (queue wait, cache serves, failures).
    Na,
}

/// All strategy labels, in exposition order.
pub const STRATS: [Strat; 4] = [Strat::Canonical, Strat::Restricted, Strat::Full, Strat::Na];

impl Strat {
    /// The `strategy` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Strat::Canonical => "canonical",
            Strat::Restricted => "restricted",
            Strat::Full => "full",
            Strat::Na => "na",
        }
    }

    fn index(self) -> usize {
        match self {
            Strat::Canonical => 0,
            Strat::Restricted => 1,
            Strat::Full => 2,
            Strat::Na => 3,
        }
    }
}

/// One labeled histogram cell: log2 buckets plus an exact sum, all
/// lock-free (a scrape may tear between buckets and sum, which is the
/// usual Prometheus contract for concurrently updated summaries).
#[derive(Default)]
struct Cell {
    hist: Histogram,
    sum: AtomicU64,
}

impl Cell {
    fn record(&self, v: u64) {
        self.hist.record(v);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (Vec<u64>, u64) {
        (self.hist.snapshot(), self.sum.load(Ordering::Relaxed))
    }
}

/// The daemon's rolling telemetry: latency histograms per
/// (stage, outcome, family, strategy) plus cumulative solver-cost gauges.
pub struct Telemetry {
    cells: Vec<Cell>, // row-major over (stage, outcome, family, strategy)
    /// Synthesis-solver SAT conflicts across all fresh compiles.
    pub solver_conflicts: AtomicU64,
    /// Synthesis-solver SAT propagations across all fresh compiles.
    pub solver_propagations: AtomicU64,
    /// Verification-solver SAT conflicts across all fresh compiles.
    pub solver_verify_conflicts: AtomicU64,
    /// Verification-solver SAT propagations across all fresh compiles.
    pub solver_verify_propagations: AtomicU64,
    /// Learnt-clause bytes held at the end of each fresh compile, summed.
    pub solver_clause_bytes: AtomicU64,
    /// Solver resource-budget ceilings hit across all fresh compiles.
    pub solver_budget_trips: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty telemetry grid.
    pub fn new() -> Telemetry {
        Telemetry {
            cells: (0..STAGES.len() * OUTCOMES.len() * FAMILIES.len() * STRATS.len())
                .map(|_| Cell::default())
                .collect(),
            solver_conflicts: AtomicU64::new(0),
            solver_propagations: AtomicU64::new(0),
            solver_verify_conflicts: AtomicU64::new(0),
            solver_verify_propagations: AtomicU64::new(0),
            solver_clause_bytes: AtomicU64::new(0),
            solver_budget_trips: AtomicU64::new(0),
        }
    }

    fn cell(&self, stage: Stage, outcome: Outcome, family: Family, strat: Strat) -> &Cell {
        &self.cells[stage.index() * (OUTCOMES.len() * FAMILIES.len() * STRATS.len())
            + outcome.index() * (FAMILIES.len() * STRATS.len())
            + family.index() * STRATS.len()
            + strat.index()]
    }

    /// Record one latency sample, in microseconds, with no strategy
    /// attribution (`strategy="na"`).
    pub fn record(&self, stage: Stage, outcome: Outcome, family: Family, micros: u64) {
        self.record_strat(stage, outcome, family, Strat::Na, micros);
    }

    /// Record one strategy-attributed latency sample, in microseconds.
    pub fn record_strat(
        &self,
        stage: Stage,
        outcome: Outcome,
        family: Family,
        strat: Strat,
        micros: u64,
    ) {
        self.cell(stage, outcome, family, strat).record(micros);
    }

    /// Fold one fresh compile's solver cost into the gauges, split into
    /// synthesis-side and verification-side SAT work.
    #[allow(clippy::too_many_arguments)]
    pub fn record_solver(
        &self,
        conflicts: u64,
        propagations: u64,
        verify_conflicts: u64,
        verify_propagations: u64,
        clause_bytes: u64,
        trips: u64,
    ) {
        self.solver_conflicts
            .fetch_add(conflicts, Ordering::Relaxed);
        self.solver_propagations
            .fetch_add(propagations, Ordering::Relaxed);
        self.solver_verify_conflicts
            .fetch_add(verify_conflicts, Ordering::Relaxed);
        self.solver_verify_propagations
            .fetch_add(verify_propagations, Ordering::Relaxed);
        self.solver_clause_bytes
            .fetch_add(clause_bytes, Ordering::Relaxed);
        self.solver_budget_trips.fetch_add(trips, Ordering::Relaxed);
    }

    /// Merge every (outcome, family, strategy) cell of `stage` into one
    /// bucket vector (log2 buckets merge by addition). Returns
    /// `(buckets, sum, count)`.
    pub fn stage_merged(&self, stage: Stage) -> (Vec<u64>, u64, u64) {
        let mut buckets = Histogram::new().snapshot();
        let mut sum = 0u64;
        for outcome in OUTCOMES {
            for family in FAMILIES {
                for strat in STRATS {
                    let (b, s) = self.cell(stage, outcome, family, strat).snapshot();
                    for (acc, v) in buckets.iter_mut().zip(b.iter()) {
                        *acc += v;
                    }
                    sum = sum.saturating_add(s);
                }
            }
        }
        let count = buckets.iter().sum();
        (buckets, sum, count)
    }

    /// Samples recorded for one (stage, outcome) pair across families and
    /// strategies.
    pub fn count(&self, stage: Stage, outcome: Outcome) -> u64 {
        let mut n = 0u64;
        for family in FAMILIES {
            for strat in STRATS {
                n += self.cell(stage, outcome, family, strat).hist.count();
            }
        }
        n
    }

    /// The stage percentiles as a JSON object (`p50_us`/`p95_us`/`p99_us`
    /// upper-bound estimates plus `count` and `sum_us`), for the
    /// `telemetry` protocol op. `Json::Null` when the stage is empty.
    pub fn stage_summary(&self, stage: Stage) -> Json {
        let (buckets, sum, count) = self.stage_merged(stage);
        if count == 0 {
            return Json::Null;
        }
        let q = |p: f64| Json::from(percentile_of(&buckets, p).unwrap_or(0));
        Json::obj([
            ("count", Json::from(count)),
            ("sum_us", Json::from(sum)),
            ("p50_us", q(50.0)),
            ("p95_us", q(95.0)),
            ("p99_us", q(99.0)),
        ])
    }
}

/// A sliding window of timestamped samples for the brownout detector.
///
/// The [`Telemetry`] histograms are *cumulative* — their percentiles can
/// only converge, never fall back, so a p95 computed from them would
/// keep the daemon in brownout forever after one bad burst. Brownout
/// entry/exit must react to *recent* load only, so queue-wait samples
/// also land here: a fixed-capacity ring where anything older than the
/// horizon is expired at both record and query time. An idle daemon's
/// window drains to empty, which the state machine reads as "no
/// pressure" — the deterministic exit path the soak test relies on.
pub struct RollingWindow {
    horizon: Duration,
    capacity: usize,
    samples: Mutex<VecDeque<(Instant, u64)>>,
}

impl RollingWindow {
    /// A window keeping at most `capacity` samples, each for `horizon`.
    pub fn new(horizon: Duration, capacity: usize) -> RollingWindow {
        RollingWindow {
            horizon,
            capacity: capacity.max(1),
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Record a sample now.
    pub fn record(&self, value: u64) {
        self.record_at(Instant::now(), value);
    }

    /// Record a sample with an explicit timestamp (tests inject synthetic
    /// clocks; production code uses [`RollingWindow::record`]).
    pub fn record_at(&self, now: Instant, value: u64) {
        let mut g = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        while g
            .front()
            .is_some_and(|&(t, _)| now.saturating_duration_since(t) > self.horizon)
        {
            g.pop_front();
        }
        if g.len() == self.capacity {
            g.pop_front();
        }
        g.push_back((now, value));
    }

    /// Nearest-rank percentile over the live (unexpired) samples, or
    /// `None` when the window is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.percentile_at(Instant::now(), p)
    }

    /// [`RollingWindow::percentile`] with an explicit "now".
    pub fn percentile_at(&self, now: Instant, p: f64) -> Option<u64> {
        let mut live = self.live_at(now);
        if live.is_empty() {
            return None;
        }
        live.sort_unstable();
        let rank = ((p / 100.0) * live.len() as f64).ceil() as usize;
        Some(live[rank.clamp(1, live.len()) - 1])
    }

    /// Number of live (unexpired) samples.
    pub fn len(&self) -> usize {
        self.live_at(Instant::now()).len()
    }

    /// Is the window empty of live samples?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn live_at(&self, now: Instant) -> Vec<u64> {
        let g = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        g.iter()
            .filter(|&&(t, _)| now.saturating_duration_since(t) <= self.horizon)
            .map(|&(_, v)| v)
            .collect()
    }
}

/// Escape a Prometheus label value: backslash, double quote, newline.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render the full text exposition (format version 0.0.4): the latency
/// summaries (empty cells are skipped), the solver gauges, and the
/// caller-supplied counters and gauges (serve stats, cache hit rate).
/// Output order is deterministic — fixed iteration order, no maps.
pub fn render_exposition(
    telemetry: &Telemetry,
    counters: &[(&str, u64)],
    gauges: &[(&str, f64)],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP chipmunk_serve_latency_us Per-stage job latency in microseconds.\n");
    out.push_str("# TYPE chipmunk_serve_latency_us summary\n");
    for stage in STAGES {
        for outcome in OUTCOMES {
            for family in FAMILIES {
                for strat in STRATS {
                    let (buckets, sum) = telemetry.cell(stage, outcome, family, strat).snapshot();
                    let count: u64 = buckets.iter().sum();
                    if count == 0 {
                        continue;
                    }
                    let labels = format!(
                        "stage=\"{}\",outcome=\"{}\",family=\"{}\",strategy=\"{}\"",
                        escape_label(stage.as_str()),
                        escape_label(outcome.as_str()),
                        escape_label(family.as_str()),
                        escape_label(strat.as_str()),
                    );
                    for (p, q) in QUANTILES {
                        let est = percentile_of(&buckets, p).unwrap_or(0);
                        out.push_str(&format!(
                            "chipmunk_serve_latency_us{{{labels},quantile=\"{q}\"}} {est}\n"
                        ));
                    }
                    out.push_str(&format!(
                        "chipmunk_serve_latency_us_sum{{{labels}}} {sum}\n"
                    ));
                    out.push_str(&format!(
                        "chipmunk_serve_latency_us_count{{{labels}}} {count}\n"
                    ));
                }
            }
        }
    }
    let solver: [(&str, &AtomicU64); 6] = [
        ("conflicts", &telemetry.solver_conflicts),
        ("propagations", &telemetry.solver_propagations),
        ("verify_conflicts", &telemetry.solver_verify_conflicts),
        ("verify_propagations", &telemetry.solver_verify_propagations),
        ("clause_bytes", &telemetry.solver_clause_bytes),
        ("budget_trips", &telemetry.solver_budget_trips),
    ];
    for (name, v) in solver {
        out.push_str(&format!(
            "# TYPE chipmunk_serve_solver_{name}_total counter\n\
             chipmunk_serve_solver_{name}_total {}\n",
            v.load(Ordering::Relaxed)
        ));
    }
    for (name, v) in counters {
        out.push_str(&format!(
            "# TYPE chipmunk_serve_{name}_total counter\nchipmunk_serve_{name}_total {v}\n"
        ));
    }
    for (name, v) in gauges {
        out.push_str(&format!(
            "# TYPE chipmunk_serve_{name} gauge\nchipmunk_serve_{name} {v}\n"
        ));
    }
    out
}

/// The running metrics endpoint: its bound address plus the thread to
/// join. Created by [`serve_exposition`].
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl MetricsServer {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the listener thread to exit and wake it out of `accept`.
    pub fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the listener thread has exited ([`begin_shutdown`]
    /// first, or this blocks on the next `accept`).
    ///
    /// [`begin_shutdown`]: MetricsServer::begin_shutdown
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

/// Bind `addr` and serve `GET /metrics` from `render` on a dedicated
/// thread. A bind failure is returned to the caller, who degrades to
/// stats-only; the `metrics_io` fault kind injects one here so chaos
/// tests can prove that degradation. Per-connection I/O errors just drop
/// that connection.
pub fn serve_exposition(
    addr: &str,
    render: Arc<dyn Fn() -> String + Send + Sync>,
) -> std::io::Result<MetricsServer> {
    if faults::armed() && faults::fired(FaultKind::MetricsIo) {
        return Err(std::io::Error::other(
            "injected fault: metrics socket broken",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("chipmunk-metrics".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = serve_one(stream, &render);
            }
        })?;
    Ok(MetricsServer {
        addr: bound,
        stop,
        handle,
    })
}

/// Answer one HTTP connection: read the request head, route on the
/// request line. Kept synchronous on the listener thread — a scrape is a
/// few kilobytes and the endpoint is not in any serving path.
fn serve_one(
    mut stream: TcpStream,
    render: &Arc<dyn Fn() -> String + Send + Sync>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) =
        if method == "GET" && path.split('?').next() == Some("/metrics") {
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render(),
            )
        } else {
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found: try GET /metrics\n".to_string(),
            )
        };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk_trace::metrics::bucket_upper_bound;

    #[test]
    fn label_escaping_covers_the_three_special_characters() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("line\nbreak"), "line\\nbreak");
    }

    /// Golden exposition: a fixed set of samples renders to an exact,
    /// byte-stable document. Guards both the format and the deterministic
    /// output order the CI scrape check relies on.
    #[test]
    fn exposition_format_is_byte_stable() {
        let t = Telemetry::new();
        // Three e2e/fresh/stateless samples in distinct buckets.
        t.record(Stage::EndToEnd, Outcome::Fresh, Family::Stateless, 100);
        t.record(Stage::EndToEnd, Outcome::Fresh, Family::Stateless, 200);
        t.record(Stage::EndToEnd, Outcome::Fresh, Family::Stateless, 3000);
        // One cached/stateful queue-wait sample.
        t.record(Stage::QueueWait, Outcome::Cached, Family::Stateful, 7);
        // One cancelled portfolio loser, attributed to its strategy.
        t.record_strat(
            Stage::Compile,
            Outcome::Cancelled,
            Family::Stateless,
            Strat::Restricted,
            50,
        );
        t.record_solver(5, 40, 2, 9, 1024, 1);
        let text = render_exposition(
            &t,
            &[
                ("submitted", 4),
                ("infeasible_certified", 2),
                ("infeasible_unchecked", 1),
            ],
            &[("cache_hit_rate", 0.25)],
        );
        let expected = "\
# HELP chipmunk_serve_latency_us Per-stage job latency in microseconds.
# TYPE chipmunk_serve_latency_us summary
chipmunk_serve_latency_us{stage=\"queue_wait\",outcome=\"cached\",family=\"stateful\",strategy=\"na\",quantile=\"0.5\"} 7
chipmunk_serve_latency_us{stage=\"queue_wait\",outcome=\"cached\",family=\"stateful\",strategy=\"na\",quantile=\"0.95\"} 7
chipmunk_serve_latency_us{stage=\"queue_wait\",outcome=\"cached\",family=\"stateful\",strategy=\"na\",quantile=\"0.99\"} 7
chipmunk_serve_latency_us_sum{stage=\"queue_wait\",outcome=\"cached\",family=\"stateful\",strategy=\"na\"} 7
chipmunk_serve_latency_us_count{stage=\"queue_wait\",outcome=\"cached\",family=\"stateful\",strategy=\"na\"} 1
chipmunk_serve_latency_us{stage=\"compile\",outcome=\"cancelled\",family=\"stateless\",strategy=\"restricted\",quantile=\"0.5\"} 63
chipmunk_serve_latency_us{stage=\"compile\",outcome=\"cancelled\",family=\"stateless\",strategy=\"restricted\",quantile=\"0.95\"} 63
chipmunk_serve_latency_us{stage=\"compile\",outcome=\"cancelled\",family=\"stateless\",strategy=\"restricted\",quantile=\"0.99\"} 63
chipmunk_serve_latency_us_sum{stage=\"compile\",outcome=\"cancelled\",family=\"stateless\",strategy=\"restricted\"} 50
chipmunk_serve_latency_us_count{stage=\"compile\",outcome=\"cancelled\",family=\"stateless\",strategy=\"restricted\"} 1
chipmunk_serve_latency_us{stage=\"e2e\",outcome=\"fresh\",family=\"stateless\",strategy=\"na\",quantile=\"0.5\"} 255
chipmunk_serve_latency_us{stage=\"e2e\",outcome=\"fresh\",family=\"stateless\",strategy=\"na\",quantile=\"0.95\"} 4095
chipmunk_serve_latency_us{stage=\"e2e\",outcome=\"fresh\",family=\"stateless\",strategy=\"na\",quantile=\"0.99\"} 4095
chipmunk_serve_latency_us_sum{stage=\"e2e\",outcome=\"fresh\",family=\"stateless\",strategy=\"na\"} 3300
chipmunk_serve_latency_us_count{stage=\"e2e\",outcome=\"fresh\",family=\"stateless\",strategy=\"na\"} 3
# TYPE chipmunk_serve_solver_conflicts_total counter
chipmunk_serve_solver_conflicts_total 5
# TYPE chipmunk_serve_solver_propagations_total counter
chipmunk_serve_solver_propagations_total 40
# TYPE chipmunk_serve_solver_verify_conflicts_total counter
chipmunk_serve_solver_verify_conflicts_total 2
# TYPE chipmunk_serve_solver_verify_propagations_total counter
chipmunk_serve_solver_verify_propagations_total 9
# TYPE chipmunk_serve_solver_clause_bytes_total counter
chipmunk_serve_solver_clause_bytes_total 1024
# TYPE chipmunk_serve_solver_budget_trips_total counter
chipmunk_serve_solver_budget_trips_total 1
# TYPE chipmunk_serve_submitted_total counter
chipmunk_serve_submitted_total 4
# TYPE chipmunk_serve_infeasible_certified_total counter
chipmunk_serve_infeasible_certified_total 2
# TYPE chipmunk_serve_infeasible_unchecked_total counter
chipmunk_serve_infeasible_unchecked_total 1
# TYPE chipmunk_serve_cache_hit_rate gauge
chipmunk_serve_cache_hit_rate 0.25
";
        assert_eq!(text, expected);
    }

    /// Merging cells adds their buckets, and the merged percentile is the
    /// upper bound of the bucket holding the sample (`bucket_upper_bound`).
    #[test]
    fn stage_merge_sums_cells_and_preserves_percentile_bounds() {
        let t = Telemetry::new();
        for v in [1u64, 2, 4, 8, 1000] {
            t.record(Stage::Compile, Outcome::Fresh, Family::Stateless, v);
            t.record(Stage::Compile, Outcome::Failed, Family::Stateful, v);
        }
        let (buckets, sum, count) = t.stage_merged(Stage::Compile);
        assert_eq!(count, 10);
        assert_eq!(sum, 2030);
        let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|p| percentile_of(&buckets, p).unwrap());
        assert!(p50 <= p95 && p95 <= p99);
        // The p99 estimate is the upper bound of the bucket holding 1000.
        assert_eq!(p99, bucket_upper_bound(10));
        assert_eq!(t.count(Stage::Compile, Outcome::Fresh), 5);
        assert_eq!(t.count(Stage::Compile, Outcome::Failed), 5);
        assert_eq!(t.count(Stage::Compile, Outcome::Cached), 0);
    }

    #[test]
    fn stage_summary_reports_counts_and_is_null_when_empty() {
        let t = Telemetry::new();
        assert_eq!(t.stage_summary(Stage::Remap), Json::Null);
        t.record(Stage::Remap, Outcome::Remapped, Family::Stateless, 12);
        let s = t.stage_summary(Stage::Remap);
        assert_eq!(s.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("sum_us").and_then(Json::as_u64), Some(12));
        assert_eq!(s.get("p50_us").and_then(Json::as_u64), Some(15));
    }

    /// Satellite of the portfolio work: a cancelled racing loser is its
    /// own outcome — it must never be counted among failures.
    #[test]
    fn cancelled_samples_are_distinct_from_failures() {
        let t = Telemetry::new();
        t.record_strat(
            Stage::Compile,
            Outcome::Cancelled,
            Family::Stateless,
            Strat::Full,
            10,
        );
        assert_eq!(t.count(Stage::Compile, Outcome::Failed), 0);
        assert_eq!(t.count(Stage::Compile, Outcome::Cancelled), 1);
    }

    #[test]
    fn rolling_window_percentiles_and_expiry() {
        let w = RollingWindow::new(Duration::from_secs(5), 100);
        let t0 = Instant::now();
        assert_eq!(w.percentile_at(t0, 95.0), None);
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            w.record_at(t0, v);
        }
        // Nearest-rank: p50 of 10 samples is the 5th, p95 the 10th.
        assert_eq!(w.percentile_at(t0, 50.0), Some(50));
        assert_eq!(w.percentile_at(t0, 95.0), Some(100));
        // Within the horizon the samples are still live...
        assert_eq!(
            w.percentile_at(t0 + Duration::from_secs(5), 95.0),
            Some(100)
        );
        // ...one tick past it the window has drained — brownout exit.
        assert_eq!(w.percentile_at(t0 + Duration::from_secs(6), 95.0), None);
        // Newer samples push the estimate back up without the old ones.
        w.record_at(t0 + Duration::from_secs(7), 7);
        assert_eq!(w.percentile_at(t0 + Duration::from_secs(7), 95.0), Some(7));
    }

    #[test]
    fn rolling_window_capacity_evicts_oldest() {
        let w = RollingWindow::new(Duration::from_secs(60), 3);
        let t0 = Instant::now();
        for v in [1u64, 2, 3, 4] {
            w.record_at(t0, v);
        }
        // Capacity 3: the 1 fell out; p0..p100 over {2,3,4}.
        assert_eq!(w.percentile_at(t0, 1.0), Some(2));
        assert_eq!(w.percentile_at(t0, 100.0), Some(4));
    }

    #[test]
    fn http_listener_serves_metrics_and_404s_everything_else() {
        let _f = crate::faults::test_lock();
        let render: Arc<dyn Fn() -> String + Send + Sync> =
            Arc::new(|| "chipmunk_serve_up 1\n".to_string());
        let server = serve_exposition("127.0.0.1:0", render).unwrap();
        let addr = server.addr();
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = get("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.ends_with("chipmunk_serve_up 1\n"));
        let missing = get("/other");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.begin_shutdown();
        server.join();
    }
}
