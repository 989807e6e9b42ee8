//! # chipmunk-trace
//!
//! Zero-dependency structured tracing and metrics for the chipmunk
//! synthesis stack, plus the JSON and deterministic-RNG substrate the rest
//! of the workspace uses in place of `serde`/`rand` (the build sandbox has
//! no crates.io access).
//!
//! ## Model
//!
//! * **Spans** are RAII regions with nesting ([`span!`] returns a guard;
//!   dropping it emits a `close` record with the duration). Guards accept
//!   extra fields at close time via [`SpanGuard::record`].
//! * **Events** are point-in-time records ([`event!`]).
//! * **Counters / histograms** are process-wide atomics
//!   ([`counter_add!`], [`histogram_record!`]), snapshotted into the trace
//!   by [`flush`].
//!
//! ## Sinks
//!
//! Tracing is off by default and costs one relaxed atomic load plus a
//! branch per site. It is enabled by
//!
//! * [`init_from_env`], which reads the `CHIPMUNK_TRACE` environment
//!   variable — a file path for a JSONL sink, or `stderr` / `pretty` for a
//!   human-readable stderr sink. The library never reads the environment
//!   on its own: `chipmunkc`, `table2` and `figure5` call this first thing
//!   in `main`; or
//! * an explicit [`init_jsonl`] / [`init_stderr`] call (the CLI's
//!   `--trace FILE` flag), or
//! * an in-process **tee** ([`add_tee`]): a live subscriber that receives
//!   every record as a JSON document, independently of any sink. The serve
//!   daemon's ring-buffered span store uses this, so per-job span trees are
//!   available over the wire without configuring a trace file.
//!
//! ## JSONL schema
//!
//! One object per line:
//!
//! ```json
//! {"ts_us":123,"kind":"open","span":"cegis.synth","id":7,"parent":3,"fields":{"iter":2}}
//! {"ts_us":456,"kind":"close","span":"cegis.synth","id":7,"dur_us":333,"fields":{"conflicts":41}}
//! {"ts_us":789,"kind":"event","span":"cegis.cex","parent":3,"fields":{"source":"screen"}}
//! {"ts_us":999,"kind":"counter","span":"sat.propagations","fields":{"value":123456}}
//! ```
//!
//! `ts_us` is microseconds since trace initialization; `kind` is one of
//! `open`, `close`, `event`, `counter`, `histogram`; `span` is the span or
//! event name; `fields` carries site-specific data. `close` records add
//! `dur_us`. Schema changes must stay additive — `chipmunkc trace-report`
//! and external tooling parse these lines.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use json::Json;

const STATE_DISABLED: u8 = 0;
const STATE_PRETTY: u8 = 1;
const STATE_JSONL: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_DISABLED);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A live subscriber to the record stream. Receives every record as the
/// same JSON document the JSONL sink would write. Callbacks run with the
/// tee registry locked, so they must be cheap and must not trace.
pub type TeeFn = dyn Fn(&Json) + Send + Sync;

/// Fast-path switch mirroring the registry: true iff at least one tee is
/// installed, so [`enabled`] stays one extra relaxed load.
static TEE_ACTIVE: AtomicBool = AtomicBool::new(false);
static TEES: Mutex<Vec<(u64, std::sync::Arc<TeeFn>)>> = Mutex::new(Vec::new());
static NEXT_TEE_ID: AtomicU64 = AtomicU64::new(1);

/// Subscribe `f` to the live record stream, independently of any file or
/// stderr sink (the in-process span store of `chipmunk-serve` uses this to
/// keep a ring buffer of recent records without forcing a JSONL file).
/// Returns a token for [`remove_tee`]. While any tee is installed,
/// [`enabled`] reports true even with no sink configured.
pub fn add_tee(f: std::sync::Arc<TeeFn>) -> u64 {
    epoch();
    let id = NEXT_TEE_ID.fetch_add(1, Ordering::Relaxed);
    let mut tees = TEES.lock().unwrap_or_else(|e| e.into_inner());
    tees.push((id, f));
    TEE_ACTIVE.store(true, Ordering::Relaxed);
    id
}

/// Unsubscribe a tee installed by [`add_tee`]. Unknown tokens are ignored.
pub fn remove_tee(id: u64) {
    let mut tees = TEES.lock().unwrap_or_else(|e| e.into_inner());
    tees.retain(|(tid, _)| *tid != id);
    TEE_ACTIVE.store(!tees.is_empty(), Ordering::Relaxed);
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Is tracing enabled? A sink or a tee is installed.
#[inline]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) >= STATE_PRETTY || TEE_ACTIVE.load(Ordering::Relaxed)
}

/// Install the sink the `CHIPMUNK_TRACE` environment variable names:
/// `stderr` or `pretty` for the stderr tree, any other non-empty value a
/// JSONL file path. A path that cannot be opened is reported on stderr and
/// leaves tracing off. Binaries call this first thing in `main`, so a
/// `--trace` flag parsed later replaces the sink.
pub fn init_from_env() {
    match std::env::var("CHIPMUNK_TRACE") {
        Ok(v) if v == "stderr" || v == "pretty" => init_stderr(),
        Ok(path) if !path.is_empty() => {
            if let Err(e) = init_jsonl(&path) {
                eprintln!("chipmunk-trace: cannot open CHIPMUNK_TRACE={path}: {e}");
            }
        }
        _ => {}
    }
}

/// Send the trace to `path` as JSON Lines. Replaces any active sink.
pub fn init_jsonl(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    init_jsonl_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Send the trace to an arbitrary writer as JSON Lines (used by tests to
/// capture output in memory). Replaces any active sink.
pub fn init_jsonl_writer(w: Box<dyn Write + Send>) {
    epoch();
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(w);
    STATE.store(STATE_JSONL, Ordering::Relaxed);
}

/// Send a human-readable trace to stderr. Replaces any active sink.
pub fn init_stderr() {
    epoch();
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None; // pretty mode writes stderr directly
    STATE.store(STATE_PRETTY, Ordering::Relaxed);
}

/// Turn tracing off and drop the sink (flushing it first).
pub fn disable() {
    flush();
    STATE.store(STATE_DISABLED, Ordering::Relaxed);
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Snapshot all registered counters and histograms into the trace and
/// flush the sink. Call at the end of a traced run (the CLI and bench
/// binaries do).
pub fn flush() {
    if !enabled() {
        return;
    }
    for (name, value) in metrics::counter_snapshot() {
        emit(Record {
            kind: "counter",
            span: name,
            id: None,
            parent: None,
            dur_us: None,
            fields: vec![("value", Json::U64(value))],
        });
    }
    for (name, buckets) in metrics::histogram_snapshot() {
        let nonzero: Vec<Json> = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(bit, &c)| Json::Arr(vec![Json::U64(bit as u64), Json::U64(c)]))
            .collect();
        emit(Record {
            kind: "histogram",
            span: name,
            id: None,
            parent: None,
            dur_us: None,
            fields: vec![("buckets", Json::Arr(nonzero))],
        });
    }
    if let Some(w) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
        let _ = w.flush();
    }
}

struct Record {
    kind: &'static str,
    span: &'static str,
    id: Option<u64>,
    parent: Option<u64>,
    dur_us: Option<u64>,
    fields: Vec<(&'static str, Json)>,
}

fn emit(r: Record) {
    let state = STATE.load(Ordering::Relaxed);
    let ts = now_us();
    if state == STATE_PRETTY {
        // Open records are emitted before the span is pushed and close
        // records after it is popped, so the stack length is already the
        // ancestor count in every case.
        let depth = SPAN_STACK.with(|s| s.borrow().len());
        let pad = "  ".repeat(depth);
        let mut line = format!(
            "[{:>10.3}ms] {pad}{:<5} {}",
            ts as f64 / 1000.0,
            r.kind,
            r.span
        );
        if let Some(d) = r.dur_us {
            line.push_str(&format!(" ({:.3}ms)", d as f64 / 1000.0));
        }
        for (k, v) in &r.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
        // Fall through: tees observe the record stream in every mode.
    }
    let tee = TEE_ACTIVE.load(Ordering::Relaxed);
    if state != STATE_JSONL && !tee {
        return;
    }
    let mut pairs: Vec<(String, Json)> = vec![
        ("ts_us".to_string(), Json::U64(ts)),
        ("kind".to_string(), Json::from(r.kind)),
        ("span".to_string(), Json::from(r.span)),
    ];
    if let Some(id) = r.id {
        pairs.push(("id".to_string(), Json::U64(id)));
    }
    if let Some(p) = r.parent {
        pairs.push(("parent".to_string(), Json::U64(p)));
    }
    if let Some(d) = r.dur_us {
        pairs.push(("dur_us".to_string(), Json::U64(d)));
    }
    if !r.fields.is_empty() {
        pairs.push((
            "fields".to_string(),
            Json::Obj(
                r.fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ));
    }
    let doc = Json::Obj(pairs);
    if tee {
        let tees = TEES.lock().unwrap_or_else(|e| e.into_inner());
        for (_, f) in tees.iter() {
            f(&doc);
        }
    }
    if state == STATE_JSONL {
        let mut line = doc.to_compact();
        line.push('\n');
        if let Some(w) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
            let _ = w.write_all(line.as_bytes());
        }
    }
}

/// RAII guard for an open span. Dropping it emits the `close` record.
pub struct SpanGuard {
    id: u64, // 0 = inert (tracing was disabled at open)
    name: &'static str,
    start: u64,
    fields: Vec<(&'static str, Json)>,
}

impl SpanGuard {
    /// A guard that does nothing — what [`span!`] returns when tracing is
    /// disabled.
    pub fn inert() -> SpanGuard {
        SpanGuard {
            id: 0,
            name: "",
            start: 0,
            fields: Vec::new(),
        }
    }

    /// Attach a field to the eventual `close` record (e.g. a result or a
    /// work counter known only at the end of the region).
    pub fn record(&mut self, key: &'static str, value: impl Into<Json>) {
        if self.id != 0 {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st.iter().rposition(|&x| x == self.id) {
                st.truncate(pos);
            }
        });
        emit(Record {
            kind: "close",
            span: self.name,
            id: Some(self.id),
            parent: None,
            dur_us: Some(now_us().saturating_sub(self.start)),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Open a span. Use through [`span!`], which skips the call entirely when
/// tracing is disabled.
pub fn span_with(name: &'static str, fields: Vec<(&'static str, Json)>) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let start = now_us();
    emit(Record {
        kind: "open",
        span: name,
        id: Some(id),
        parent,
        dur_us: None,
        fields,
    });
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        id,
        name,
        start,
        fields: Vec::new(),
    }
}

/// Emit a point event. Use through [`event!`].
pub fn event_with(name: &'static str, fields: Vec<(&'static str, Json)>) {
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    emit(Record {
        kind: "event",
        span: name,
        id: None,
        parent,
        dur_us: None,
        fields,
    });
}

/// Open a named span with optional `key = value` fields:
///
/// ```
/// let mut sp = chipmunk_trace::span!("cegis.synth", iter = 3usize);
/// sp.record("conflicts", 17u64);
/// drop(sp);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_with(
                $name,
                vec![$((stringify!($k), $crate::json::Json::from($v))),*],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

/// Emit a named point event with optional `key = value` fields.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event_with(
                $name,
                vec![$((stringify!($k), $crate::json::Json::from($v))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Sink tests share the process-global tracer; serialize them.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[derive(Clone, Default)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture_trace(f: impl FnOnce()) -> Vec<Json> {
        let cap = Capture::default();
        init_jsonl_writer(Box::new(cap.clone()));
        f();
        flush();
        disable();
        let bytes = cap.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("utf-8")
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| Json::parse(l).expect("each line parses"))
            .collect()
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lines = capture_trace(|| {
            let mut outer = span!("outer", depth = 1u64);
            {
                let _inner = span!("inner");
                event!("ping", n = 7u64);
            }
            outer.record("result", "ok");
        });
        let kinds: Vec<&str> = lines
            .iter()
            .filter_map(|l| l.get("kind").and_then(Json::as_str))
            .collect();
        // open(outer) open(inner) event close(inner) close(outer) [+flush records]
        assert_eq!(
            &kinds[..5],
            &["open", "open", "event", "close", "close"],
            "{lines:?}"
        );
        let open_outer = &lines[0];
        let open_inner = &lines[1];
        let outer_id = open_outer.get("id").unwrap().as_u64().unwrap();
        assert_eq!(
            open_inner.get("parent").unwrap().as_u64().unwrap(),
            outer_id,
            "inner span must record outer as parent"
        );
        assert_eq!(
            lines[2].get("parent").unwrap().as_u64(),
            open_inner.get("id").unwrap().as_u64(),
            "event nests under the innermost span"
        );
        // close(inner) comes before close(outer), and ids match the opens.
        assert_eq!(lines[3].get("span").unwrap().as_str(), Some("inner"));
        assert_eq!(lines[4].get("span").unwrap().as_str(), Some("outer"));
        assert_eq!(lines[4].get("id").unwrap().as_u64(), Some(outer_id));
        // Recorded close fields survive.
        assert_eq!(
            lines[4]
                .get("fields")
                .unwrap()
                .get("result")
                .unwrap()
                .as_str(),
            Some("ok")
        );
        // Every record carries the schema-stable keys.
        for l in &lines {
            assert!(l.get("ts_us").unwrap().as_u64().is_some());
            assert!(l.get("kind").unwrap().as_str().is_some());
            assert!(l.get("span").unwrap().as_str().is_some());
        }
        // Close records carry durations.
        assert!(lines[3].get("dur_us").unwrap().as_u64().is_some());
    }

    #[test]
    fn timestamps_and_durations_are_monotonic() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lines = capture_trace(|| {
            let _sp = span!("tick");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let close = lines
            .iter()
            .find(|l| l.get("kind").unwrap().as_str() == Some("close"))
            .expect("close record");
        assert!(close.get("dur_us").unwrap().as_u64().unwrap() >= 1_000);
        let ts: Vec<u64> = lines
            .iter()
            .filter_map(|l| l.get("ts_us").and_then(Json::as_u64))
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn disabled_tracing_emits_nothing_and_guards_are_inert() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let mut sp = span!("ghost");
        sp.record("x", 1u64);
        event!("ghost.event");
        drop(sp);
        // Re-enable and confirm the ghost span left no residue.
        let lines = capture_trace(|| {
            event!("real");
        });
        assert!(lines
            .iter()
            .all(|l| l.get("span").unwrap().as_str() != Some("ghost")));
    }

    #[test]
    fn tracing_survives_a_panic_while_emitting() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A writer that panics on its first write poisons SINK's mutex if
        // the panic unwinds through `emit`. Tracing must keep working for
        // every later record instead of aborting the process on
        // `expect("trace sink")`.
        struct PanicOnce {
            fired: bool,
            inner: Capture,
        }
        impl Write for PanicOnce {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if !self.fired {
                    self.fired = true;
                    panic!("injected sink failure");
                }
                self.inner.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.inner.flush()
            }
        }
        let cap = Capture::default();
        init_jsonl_writer(Box::new(PanicOnce {
            fired: false,
            inner: cap.clone(),
        }));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            event!("poison.trigger");
        }));
        assert!(poisoned.is_err(), "first write must panic");
        // The lock is now poisoned; emitting and flushing must recover.
        event!("poison.survivor");
        flush();
        disable();
        let bytes = cap.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let text = String::from_utf8(bytes).expect("utf-8");
        assert!(
            text.contains("poison.survivor"),
            "post-panic records must reach the sink: {text}"
        );
    }

    #[test]
    fn tees_observe_records_without_a_sink() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let seen: Arc<StdMutex<Vec<Json>>> = Arc::default();
        let seen2 = seen.clone();
        let id = add_tee(Arc::new(move |doc: &Json| {
            seen2
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(doc.clone());
        }));
        assert!(enabled(), "an installed tee must enable tracing");
        {
            let _sp = span!("tee.span", n = 3u64);
            event!("tee.event");
        }
        remove_tee(id);
        assert!(!enabled(), "removing the last tee disables tracing again");
        event!("tee.after"); // must not reach the removed tee
        let records = seen.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let names: Vec<String> = records
            .iter()
            .filter_map(|r| r.get("span").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(names, ["tee.span", "tee.event", "tee.span"], "{records:?}");
        let open = &records[0];
        let close = &records[2];
        assert_eq!(open.get("kind").and_then(Json::as_str), Some("open"));
        assert_eq!(close.get("kind").and_then(Json::as_str), Some("close"));
        assert_eq!(
            open.get("id").and_then(Json::as_u64),
            close.get("id").and_then(Json::as_u64)
        );
        assert!(close.get("dur_us").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn flush_snapshots_counters() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lines = capture_trace(|| {
            counter_add!("test.flush.counter", 11);
            histogram_record!("test.flush.hist", 9);
        });
        let counter = lines
            .iter()
            .find(|l| l.get("span").unwrap().as_str() == Some("test.flush.counter"))
            .expect("counter snapshot");
        assert_eq!(counter.get("kind").unwrap().as_str(), Some("counter"));
        assert!(
            counter
                .get("fields")
                .unwrap()
                .get("value")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 11
        );
        assert!(lines
            .iter()
            .any(|l| l.get("span").unwrap().as_str() == Some("test.flush.hist")));
    }
}
