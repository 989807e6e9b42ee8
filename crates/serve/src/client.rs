//! A tiny blocking client for the serve protocol, plus a retrying
//! wrapper with bounded exponential backoff for transient failures.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use chipmunk_trace::json::Json;
use chipmunk_trace::rng::Xoshiro256;

/// One connection to a chipmunk-serve daemon.
///
/// The lockstep helpers ([`request`](Client::request) and friends) write
/// a line and read a line. For pipelining, use [`send`](Client::send) to
/// queue any number of requests — each tagged with a client-chosen `id` —
/// and [`recv`](Client::recv) to collect the responses; compile responses
/// arrive in completion order, so match them by the echoed `id`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    priority: u8,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are whole lines; send each one now rather than waiting
        // for the ACK of the previous one (Nagle's algorithm).
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            priority: 0,
        })
    }

    /// Queue priority (0–9) stamped on every subsequent compile request;
    /// 0 (the default) omits the field and takes the server default.
    pub fn set_priority(&mut self, priority: u8) {
        self.priority = priority;
    }

    /// Write one request line without waiting for the response.
    pub fn send(&mut self, doc: &Json) -> std::io::Result<()> {
        let mut line = doc.to_compact();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Read the next response line, whichever request it answers.
    pub fn recv(&mut self) -> std::io::Result<Json> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(response.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response: {e}"),
            )
        })
    }

    /// Send one request document and read the matching response line.
    pub fn request(&mut self, doc: &Json) -> std::io::Result<Json> {
        self.send(doc)?;
        self.recv()
    }

    /// Submit a program for compilation. `options` is the request's
    /// `options` object (pass `Json::Obj(vec![])` for server defaults).
    pub fn compile(&mut self, program: &str, options: Json) -> std::io::Result<Json> {
        self.compile_traced(program, options, None)
    }

    /// Submit a program with a client-chosen trace id. The server echoes
    /// it on the response, stamps it on the job's span tree (query with
    /// [`trace`](Client::trace)), and journals it with the job.
    pub fn compile_traced(
        &mut self,
        program: &str,
        options: Json,
        trace: Option<&str>,
    ) -> std::io::Result<Json> {
        let mut pairs = vec![
            ("op", Json::from("compile")),
            ("program", Json::from(program)),
            ("options", options),
        ];
        if let Some(trace) = trace {
            pairs.push(("trace", Json::from(trace)));
        }
        if self.priority > 0 {
            pairs.push(("priority", Json::from(self.priority)));
        }
        self.request(&Json::obj(pairs))
    }

    /// Fetch the buffered span tree for a job's trace id (`found:false`
    /// when the server's ring buffer no longer holds it).
    pub fn trace(&mut self, trace_id: &str) -> std::io::Result<Json> {
        self.request(&Json::obj([
            ("op", Json::from("trace")),
            ("trace", Json::from(trace_id)),
        ]))
    }

    /// Fetch the live telemetry summary: per-stage latency percentiles,
    /// per-outcome job counts, cache hit rate, and solver gauges.
    pub fn telemetry(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj([("op", Json::from("telemetry"))]))
    }

    /// Poll for a compile-shaped request's result without enqueueing a
    /// job: `found:true` with the certified result document when the
    /// cache has it, `found:false` otherwise. This is how a client
    /// collects a result recompiled by the journal replay after a daemon
    /// crash.
    pub fn poll(&mut self, program: &str, options: Json) -> std::io::Result<Json> {
        self.request(&Json::obj([
            ("op", Json::from("poll")),
            ("program", Json::from(program)),
            ("options", options),
        ]))
    }

    /// Queue a compile request tagged with `id` without waiting; pair
    /// with [`recv`](Client::recv) and match responses by the echoed id.
    pub fn send_compile(&mut self, id: Json, program: &str, options: Json) -> std::io::Result<()> {
        let mut pairs = vec![
            ("op", Json::from("compile")),
            ("id", id),
            ("program", Json::from(program)),
            ("options", options),
        ];
        if self.priority > 0 {
            pairs.push(("priority", Json::from(self.priority)));
        }
        self.send(&Json::obj(pairs))
    }

    /// Probe liveness and queue occupancy.
    pub fn status(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj([("op", Json::from("status"))]))
    }

    /// Fetch the counter snapshot.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj([("op", Json::from("stats"))]))
    }

    /// Run a cache maintenance action: `"stats"`, `"compact"`, `"clear"`.
    pub fn cache(&mut self, action: &str) -> std::io::Result<Json> {
        self.request(&Json::obj([
            ("op", Json::from("cache")),
            ("action", Json::from(action)),
        ]))
    }

    /// Ask the server to stop (`abort` cancels in-flight work).
    pub fn shutdown(&mut self, abort: bool) -> std::io::Result<Json> {
        self.request(&Json::obj([
            ("op", Json::from("shutdown")),
            ("mode", Json::from(if abort { "abort" } else { "drain" })),
        ]))
    }
}

/// Bounded exponential backoff with full jitter.
///
/// Attempt `k` sleeps a uniform draw from `[0, min(cap, base·2^k)]` —
/// full jitter, so a burst of clients bounced by the same `busy` window
/// does not reconverge on the server in lockstep.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = this + 1).
    pub max_retries: u32,
    /// Backoff ceiling for the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter stream. Two clients with different seeds fan
    /// out; one seed reproduces one schedule exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32, rng: &mut Xoshiro256) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let nanos = ceiling.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.gen_u64_below(nanos + 1))
    }
}

/// Is this I/O failure worth retrying? Connection churn (a reset socket,
/// a server mid-restart, a `busy` bounce surfaced as an error) is; a
/// protocol violation or a hard local failure is not.
fn transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Is this *response* a transient server condition (retry after backoff)
/// rather than a verdict about the program? `shed` — evicted by a
/// higher-priority job under saturation — is transient too: the program
/// was never judged.
fn retryable_response(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(false)
        && matches!(
            resp.get("error").and_then(Json::as_str),
            Some("busy") | Some("queue_full") | Some("shed")
        )
}

/// The server's pacing hint on a brownout/shed refusal, when present.
fn retry_hint_ms(resp: &Json) -> Option<u64> {
    resp.get("retry_after_ms").and_then(Json::as_u64)
}

/// A compile client that retries transient failures — `busy` bounces,
/// `queue_full` backpressure, and connection resets — with bounded
/// exponential backoff and full jitter, reconnecting as needed.
///
/// Retrying a compile is safe by construction: compiles are idempotent
/// under the content-addressed result cache, so a job whose response was
/// lost to a reset is re-requested and (usually) served from cache.
/// Errors that are verdicts about the program (`parse`, `infeasible`,
/// `timeout`, …) are returned immediately, never retried.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    rng: Xoshiro256,
    conn: Option<Client>,
    retries: u64,
    priority: u8,
    /// Total wall-clock budget across every retry of a batch; once it
    /// elapses, transient responses become terminal instead of being
    /// resubmitted. `None` retries on the policy's count alone.
    deadline: Option<Duration>,
}

impl RetryingClient {
    /// Create a client for `addr` (connects lazily on first use).
    pub fn new(addr: &str, policy: RetryPolicy) -> RetryingClient {
        let rng = Xoshiro256::seed_from_u64(policy.seed);
        RetryingClient {
            addr: addr.to_string(),
            policy,
            rng,
            conn: None,
            retries: 0,
            priority: 0,
            deadline: None,
        }
    }

    /// Bound the total time a batch may spend retrying (backoff sleeps
    /// included). Pair this with the job-side `deadline_ms` option so a
    /// caller with an end-to-end deadline never sleeps past it chasing
    /// `busy` bounces.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Retries performed so far (for reporting).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Queue priority (0–9) for every subsequent compile, surviving
    /// reconnects; 0 (the default) takes the server default.
    pub fn set_priority(&mut self, priority: u8) {
        self.priority = priority;
        if let Some(c) = self.conn.as_mut() {
            c.set_priority(priority);
        }
    }

    fn ensure(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            let mut c = Client::connect(self.addr.as_str())?;
            c.set_priority(self.priority);
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Submit one program, retrying transient failures. Returns the
    /// terminal response (which may still be `busy`/`queue_full` if every
    /// retry was exhausted) or the last I/O error.
    pub fn compile(&mut self, program: &str, options: &Json) -> std::io::Result<Json> {
        let mut v = self.pipeline(std::slice::from_ref(&program.to_string()), options)?;
        Ok(v.pop().unwrap_or(Json::Null))
    }

    /// Pipeline a batch of programs over one connection, retrying
    /// transient failures per job. Jobs are tagged with their index as
    /// the request `id`; the returned vector is in input order, one
    /// terminal response per program. After a connection reset, only the
    /// still-unanswered jobs are resubmitted.
    pub fn pipeline(&mut self, programs: &[String], options: &Json) -> std::io::Result<Vec<Json>> {
        self.pipeline_with_progress(programs, options, |_| {})
    }

    /// [`pipeline`](RetryingClient::pipeline), reporting progress after
    /// every pass: the callback sees the terminal-answer tally so far
    /// (jobs cleared for retry are not counted until they settle).
    pub fn pipeline_with_progress(
        &mut self,
        programs: &[String],
        options: &Json,
        mut progress: impl FnMut(BatchProgress),
    ) -> std::io::Result<Vec<Json>> {
        let mut answers: Vec<Option<Json>> = (0..programs.len()).map(|_| None).collect();
        let mut attempt = 0u32;
        let mut reported = usize::MAX;
        let started = Instant::now();
        loop {
            let pending: Vec<usize> = answers
                .iter()
                .enumerate()
                .filter(|(_, a)| a.is_none())
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                break;
            }
            let pass = pipeline_pass(self.ensure(), &pending, programs, options, &mut answers);
            // Retry budget: the policy's attempt count AND (when set) the
            // caller's wall-clock deadline must both have room.
            let budget_left = match self.deadline {
                Some(dl) => started.elapsed() < dl,
                None => true,
            };
            // A transient response is only terminal once retries run out;
            // otherwise clear it so the next pass resubmits that job. The
            // server's `retry_after_ms` pacing hint (brownout refusals)
            // stretches the next backoff when it asks for more patience.
            let mut need_retry = false;
            let mut hint_ms = 0u64;
            if attempt < self.policy.max_retries && budget_left {
                for slot in answers.iter_mut() {
                    if slot.as_ref().is_some_and(retryable_response) {
                        if let Some(ms) = slot.as_ref().and_then(retry_hint_ms) {
                            hint_ms = hint_ms.max(ms);
                        }
                        *slot = None;
                        need_retry = true;
                    }
                }
            }
            let snapshot = BatchProgress::tally(&answers, self.retries);
            if snapshot.done != reported {
                reported = snapshot.done;
                progress(snapshot);
            }
            match pass {
                Ok(()) if !need_retry => break,
                Ok(()) => {}
                Err(e) => {
                    self.conn = None;
                    if !transient_io(&e) || attempt >= self.policy.max_retries || !budget_left {
                        return Err(e);
                    }
                }
            }
            let mut delay = self
                .policy
                .backoff(attempt, &mut self.rng)
                .max(Duration::from_millis(hint_ms));
            if let Some(dl) = self.deadline {
                // Never sleep past the caller's deadline: the final
                // attempt fires just before it rather than after.
                delay = delay.min(dl.saturating_sub(started.elapsed()));
            }
            self.retries += 1;
            attempt += 1;
            std::thread::sleep(delay);
        }
        Ok(answers
            .into_iter()
            .map(|a| a.unwrap_or(Json::Null))
            .collect())
    }
}

/// A snapshot of a pipelined batch, handed to the progress callback of
/// [`RetryingClient::pipeline_with_progress`] after each pass.
#[derive(Clone, Copy, Debug)]
pub struct BatchProgress {
    /// Jobs with a terminal answer.
    pub done: usize,
    /// Jobs in the batch.
    pub total: usize,
    /// Terminal successes served from the cache.
    pub cached: usize,
    /// Terminal failures.
    pub failed: usize,
    /// Transport retries performed so far.
    pub retries: u64,
}

impl BatchProgress {
    fn tally(answers: &[Option<Json>], retries: u64) -> BatchProgress {
        let mut done = 0;
        let mut cached = 0;
        let mut failed = 0;
        for a in answers.iter().flatten() {
            done += 1;
            match a.get("ok").and_then(Json::as_bool) {
                Some(true) => {
                    if a.get("cached").and_then(Json::as_bool) == Some(true) {
                        cached += 1;
                    }
                }
                _ => failed += 1,
            }
        }
        BatchProgress {
            done,
            total: answers.len(),
            cached,
            failed,
            retries,
        }
    }
}

/// One send-all/receive-all pass over a (re)connected socket. Fills
/// `answers` as responses arrive; any I/O error aborts the pass and the
/// caller decides whether to reconnect and go again.
fn pipeline_pass(
    conn: std::io::Result<&mut Client>,
    pending: &[usize],
    programs: &[String],
    options: &Json,
    answers: &mut [Option<Json>],
) -> std::io::Result<()> {
    let c = conn?;
    for &i in pending {
        c.send_compile(Json::from(i as u64), &programs[i], options.clone())?;
    }
    let mut outstanding = pending.len();
    while outstanding > 0 {
        let resp = c.recv()?;
        let id = resp.get("id").and_then(Json::as_u64);
        let Some(i) = id.map(|v| v as usize) else {
            // An id-less error line is connection-scoped — `busy` is the
            // one the server sends before closing. Surface it as a
            // transient I/O error so the caller reconnects after backoff.
            if resp.get("error").and_then(Json::as_str) == Some("busy") {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "server busy; connection closed",
                ));
            }
            continue;
        };
        if i < answers.len() && answers[i].is_none() {
            answers[i] = Some(resp);
            outstanding -= 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_never_exceeds_the_cap() {
        let policy = RetryPolicy {
            max_retries: 32,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(400),
            seed: 7,
        };
        let mut rng = Xoshiro256::seed_from_u64(policy.seed);
        for attempt in 0..64 {
            let d = policy.backoff(attempt, &mut rng);
            assert!(
                d <= policy.cap,
                "attempt {attempt}: backoff {d:?} exceeds cap {:?}",
                policy.cap
            );
        }
    }

    #[test]
    fn backoff_jitters_within_the_exponential_ceiling() {
        let policy = RetryPolicy::default();
        // Early attempts: the ceiling is base·2^k, below the cap.
        for attempt in 0..5u32 {
            let ceiling = policy.base * 2u32.pow(attempt);
            let mut rng = Xoshiro256::seed_from_u64(99 + u64::from(attempt));
            let mut seen_nonzero = false;
            for _ in 0..200 {
                let d = policy.backoff(attempt, &mut rng);
                assert!(
                    d <= ceiling,
                    "attempt {attempt}: {d:?} above ceiling {ceiling:?}"
                );
                seen_nonzero |= d > Duration::ZERO;
            }
            // Full jitter is uniform on [0, ceiling]: 200 draws that are
            // all zero would mean the jitter is broken, not unlucky.
            assert!(seen_nonzero, "attempt {attempt}: jitter stuck at zero");
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_fixed_seed() {
        let policy = RetryPolicy::default();
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..10).map(|k| policy.backoff(k, &mut rng)).collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
        assert_ne!(
            schedule(42),
            schedule(43),
            "different seeds must fan out (same schedule is astronomically unlikely)"
        );
    }

    #[test]
    fn zero_ceiling_backoff_is_zero() {
        let policy = RetryPolicy {
            max_retries: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 1,
        };
        let mut rng = Xoshiro256::seed_from_u64(1);
        assert_eq!(policy.backoff(0, &mut rng), Duration::ZERO);
        assert_eq!(policy.backoff(31, &mut rng), Duration::ZERO);
    }

    #[test]
    fn shed_and_busy_are_retryable_and_carry_the_pacing_hint() {
        let shed = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::from("shed")),
            ("retry_after_ms", Json::U64(750)),
        ]);
        assert!(retryable_response(&shed));
        assert_eq!(retry_hint_ms(&shed), Some(750));
        let busy = Json::obj([("ok", Json::Bool(false)), ("error", Json::from("busy"))]);
        assert!(retryable_response(&busy));
        assert_eq!(retry_hint_ms(&busy), None, "hint is optional");
        let expired = Json::obj([("ok", Json::Bool(false)), ("error", Json::from("expired"))]);
        assert!(
            !retryable_response(&expired),
            "an expired deadline is a verdict about this request, not server churn"
        );
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let policy = RetryPolicy::default();
        let mut rng = Xoshiro256::seed_from_u64(5);
        // 2^attempt would overflow u32 far before 10_000; min(16) clamps.
        let d = policy.backoff(10_000, &mut rng);
        assert!(d <= policy.cap);
    }
}
