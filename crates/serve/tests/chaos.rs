//! Chaos and fault-injection tests: seeded fault schedules against a real
//! server, asserting the pool survives panics and worker deaths, the cache
//! and the journal degrade and re-attach, clients retry through resets,
//! and the job conservation invariant (`submitted == completed + failed +
//! drained + panicked + expired + shed`) holds under load.
//!
//! Fault state is process-global (`chipmunk_serve::faults`), so this suite
//! lives in its own test binary and every test serializes on [`FAULT_LOCK`].
//! Each test prints its fault plan with `eprintln!` so a failure in CI shows
//! the exact seed/schedule to reproduce it with.

use chipmunk_serve::durable::REATTACH_EVERY;
use chipmunk_serve::{
    faults, server, Client, JobOptions, Journal, ResultCache, RetryPolicy, RetryingClient,
    ServerConfig,
};
use chipmunk_trace::json::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes tests: fault plans and their occurrence counters are global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A previous test's failed assert poisons the lock; the fault state it
    // guards is re-installed by each test, so the poison carries no meaning.
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms fault injection when dropped, even if the test panics, so one
/// failure does not leak an armed schedule into the next test.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm();
    }
}

/// Install `spec` and print it, returning the disarm guard.
///
/// A `seed=N` clause in the `CHIPMUNK_FAULTS` environment variable
/// overrides the spec's baked-in seed (the parser takes the last `seed=`
/// clause): CI sweeps several seeds through the whole suite, shifting the
/// timing of probabilistic faults while keeping every `kind@occurrence`
/// schedule — and the assertions that depend on it — deterministic. The
/// effective plan is printed so a failing run names its exact reproducer.
fn arm(spec: &str) -> Disarm {
    let mut spec = spec.to_string();
    if let Some(seed) = std::env::var("CHIPMUNK_FAULTS").ok().and_then(|env| {
        env.split(';')
            .rev()
            .find_map(|c| c.trim().strip_prefix("seed=").map(str::to_string))
    }) {
        spec.push_str(&format!(";seed={seed}"));
    }
    eprintln!("fault plan (reproduce with CHIPMUNK_FAULTS): {spec}");
    faults::install(&spec).expect("fault spec parses");
    Disarm
}

/// Small widths so a debug-build CEGIS run finishes in well under a second.
fn fast_options() -> Json {
    Json::obj([
        ("imm", Json::from(3u64)),
        ("width", Json::from(6u64)),
        ("screen_width", Json::from(3u64)),
        ("synth_input_bits", Json::from(3u64)),
        ("num_initial_inputs", Json::from(3u64)),
        ("max_iters", Json::from(64u64)),
        ("seed", Json::from(42u64)),
        ("max_stages", Json::from(2u64)),
        ("timeout_ms", Json::from(60_000u64)),
    ])
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("chipmunk-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn u64_field(resp: &Json, key: &str) -> u64 {
    resp.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {resp}"))
}

/// Both sides of each conservation identity, read from one `telemetry`
/// response (which carries the ledger): `submitted` against `completed +
/// failed + drained + panicked + expired + shed`, and `outcomes.failed`
/// against `failed + drained + panicked + expired + shed` — every admitted
/// job that did not complete recorded one `failed` end-to-end sample.
fn ledger_sides(telemetry: &Json) -> [(u64, u64); 2] {
    let unfinished: u64 = ["failed", "drained", "panicked", "expired", "shed"]
        .iter()
        .map(|k| u64_field(telemetry, k))
        .sum();
    let failed_samples = telemetry
        .get("outcomes")
        .map(|o| u64_field(o, "failed"))
        .unwrap_or_else(|| panic!("not a telemetry response: {telemetry}"));
    [
        (
            u64_field(telemetry, "submitted"),
            u64_field(telemetry, "completed") + unfinished,
        ),
        (failed_samples, unfinished),
    ]
}

/// Both conservation identities of [`ledger_sides`] hold.
fn assert_conservation(telemetry: &Json) {
    let [jobs, failed] = ledger_sides(telemetry);
    assert_eq!(jobs.0, jobs.1, "job conservation violated: {telemetry}");
    assert_eq!(
        failed.0, failed.1,
        "outcomes.failed must equal failed + drained + panicked + expired + shed: {telemetry}"
    );
}

/// A `telemetry` response once every submitted job has reached a terminal
/// state, for tests whose clients retry: a job whose client already got
/// its answer through a retry may still be compiling, so `submitted` can
/// lead the terminal counters for a while. Polls until both identities
/// hold; a leaked job never balances, so after the bounded wait the last
/// snapshot is returned for [`assert_conservation`] to fail on.
fn settled_stats(control: &mut Client) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let telemetry = control.telemetry().unwrap();
        if ledger_sides(&telemetry).iter().all(|(a, b)| a == b) || Instant::now() >= deadline {
            return telemetry;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Acceptance: an injected compile panic yields a structured `internal`
/// error, bumps `panicked`, leaves the pool at full strength (the worker
/// survived — no respawn needed), and the same daemon then completes 100
/// further jobs, with conservation intact.
#[test]
fn injected_compile_panic_yields_internal_error_and_pool_survives() {
    let _l = lock();
    let _d = arm("seed=7;panic@0");
    let dir = tmpdir("acceptance");
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    // First fresh compile hits the injected panic inside the worker's
    // isolation layer: the client gets a structured verdict, not a hang.
    let victim = "pkt.out = pkt.a + pkt.b;";
    let resp = client.compile(victim, fast_options()).unwrap();
    assert!(!ok(&resp), "panicked job must not report ok: {resp}");
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("internal"));
    let msg = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(
        msg.contains("injected fault: compile panic"),
        "panic text not preserved: {msg}"
    );
    assert!(msg.contains("safe to retry"), "missing retry hint: {msg}");

    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "panicked"), 1);
    assert_eq!(u64_field(&stats, "workers_respawned"), 0);
    let status = client.status().unwrap();
    assert_eq!(u64_field(&status, "live_workers"), 2, "worker must survive");

    // Fault exhausted (only occurrence 0 panics): the very same program now
    // compiles — a panicked job really is safe to retry.
    faults::disarm();
    let retried = client.compile(victim, fast_options()).unwrap();
    assert!(ok(&retried), "retry of panicked job failed: {retried}");

    // 99 more jobs on the same daemon (10 distinct sources, then repeats
    // exercising the cache fast path).
    for i in 1..100 {
        let prog = format!("pkt.x = pkt.a{};", i % 10);
        let resp = client.compile(&prog, fast_options()).unwrap();
        assert!(ok(&resp), "job {i} failed after panic recovery: {resp}");
    }

    // `submitted` counts queued jobs only (admission-time cache hits are
    // answered without entering the queue), so assert the shape rather
    // than an exact count: exactly one panic, no failures, and every other
    // queued job completed.
    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "panicked"), 1);
    assert_eq!(u64_field(&stats, "failed"), 0);
    assert_eq!(
        u64_field(&stats, "completed"),
        u64_field(&stats, "submitted") - 1,
        "all queued jobs except the panicked one must complete: {stats}"
    );
    assert_conservation(&client.telemetry().unwrap());
    let status = client.status().unwrap();
    assert_eq!(u64_field(&status, "live_workers"), 2);

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that dies outside the isolation layer still answers its job
/// (via the reply handle's drop), and the watchdog respawns the pool on the
/// next dispatch.
#[test]
fn worker_death_answers_the_job_and_pool_respawns() {
    let _l = lock();
    let _d = arm("seed=11;worker_death@0");
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    let resp = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(!ok(&resp), "dead worker's job must not report ok: {resp}");
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("internal"));
    let msg = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(msg.contains("worker died"), "unexpected message: {msg}");

    // Wait until the dead worker's guard has decremented the live count —
    // the client's response races the thread's final unwind.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = client.status().unwrap();
        if u64_field(&status, "live_workers") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "worker never unwound: {status}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The next dispatch trips the watchdog: a fresh worker is spawned and
    // runs the job to completion.
    faults::disarm();
    let resp = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(ok(&resp), "job after respawn failed: {resp}");

    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "panicked"), 1);
    assert!(u64_field(&stats, "workers_respawned") >= 1);
    assert_conservation(&client.telemetry().unwrap());
    let status = client.status().unwrap();
    assert_eq!(u64_field(&status, "live_workers"), 1);

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
}

/// A failed append degrades the cache to memory-only (nothing lost, nothing
/// propagated); the periodic compaction probe re-attaches the disk tier with
/// the full retained set — including everything put while degraded.
#[test]
fn cache_degrades_on_disk_error_and_reattaches() {
    let _l = lock();
    let _d = arm("seed=3;disk_io@0");
    let dir = tmpdir("degrade");
    let cache = ResultCache::open(Some(dir.as_path())).expect("cache opens");

    let result = Json::obj([("pipeline", Json::from("p"))]);
    cache.put("k0", &result);
    assert!(cache.degraded(), "failed append must degrade the disk tier");
    assert!(cache.disk_errors() >= 1);
    assert_eq!(
        cache.get("k0"),
        Some(result.clone()),
        "tier 1 keeps the entry"
    );

    // Disk healthy again (fault exhausted); the 16th degraded put triggers
    // the re-attach probe, whose full rewrite recovers the tier.
    faults::disarm();
    for i in 1..=REATTACH_EVERY {
        cache.put(&format!("k{i}"), &result);
    }
    assert!(!cache.degraded(), "re-attach probe should have recovered");

    // Everything put while degraded made it to disk: a fresh process sees
    // the complete retained set.
    drop(cache);
    let reopened = ResultCache::open(Some(dir.as_path())).expect("cache reopens");
    assert_eq!(reopened.len() as u64, REATTACH_EVERY + 1);
    for i in 0..=REATTACH_EVERY {
        assert_eq!(
            reopened.get(&format!("k{i}")),
            Some(result.clone()),
            "k{i} lost"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal degrades and re-attaches the way the cache does: a failed
/// write-ahead append degrades it while the job stays pending in memory,
/// and the re-attach probe's rewrite puts every pending job on disk,
/// including the ones accepted while degraded.
#[test]
fn journal_degrades_on_disk_error_and_reattaches() {
    let _l = lock();
    let _d = arm("seed=3;disk_io@0");
    let dir = tmpdir("journal-degrade");
    let (journal, replay) = Journal::open(dir.as_path()).expect("journal opens");
    assert!(replay.is_empty());
    let accept = |i: u64| {
        let opts = JobOptions::default();
        journal.accepted(&format!("k{i}"), "pkt.a = pkt.b;", &opts, None, 0, None);
    };

    accept(0);
    assert!(journal.degraded(), "failed append must degrade the journal");
    assert!(journal.errors() >= 1);
    assert_eq!(journal.pending_len(), 1, "the job stays pending in memory");

    // Disk healthy again (fault exhausted); the 16th skipped append
    // triggers the re-attach probe.
    faults::disarm();
    for i in 1..=REATTACH_EVERY {
        accept(i);
    }
    assert!(!journal.degraded(), "re-attach probe should have recovered");

    drop(journal);
    let (_, replay) = Journal::open(dir.as_path()).expect("journal reopens");
    let keys: Vec<String> = replay.into_iter().map(|p| p.key).collect();
    let expected: Vec<String> = (0..=REATTACH_EVERY).map(|i| format!("k{i}")).collect();
    assert_eq!(
        keys, expected,
        "every accepted job replays, in accept order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill mid-compaction (stale temp file, or an I/O error during the
/// rewrite) never corrupts the committed file: reopening sees every entry,
/// and the garbage temp file is not adopted.
#[test]
fn cache_kill_mid_compaction_reopens_cleanly() {
    let _l = lock();
    let dir = tmpdir("midcompact");
    let result = Json::obj([("pipeline", Json::from("p"))]);
    {
        let cache = ResultCache::open(Some(dir.as_path())).expect("cache opens");
        cache.put("a", &result);
        cache.put("b", &result);
    }
    // Simulate a crash between writing the temp file and the rename.
    std::fs::write(dir.join("results.jsonl.tmp"), b"GARBAGE {not json").unwrap();
    let cache = ResultCache::open(Some(dir.as_path())).expect("reopen after crash");
    assert_eq!(
        cache.len(),
        2,
        "committed entries survive a torn compaction"
    );
    assert_eq!(cache.get("a"), Some(result.clone()));
    assert_eq!(cache.get("b"), Some(result.clone()));

    // An I/O error *during* compaction: the error surfaces to the explicit
    // caller, the tier degrades, and the committed file is untouched.
    let _d = arm("seed=13;disk_io@0");
    assert!(
        cache.compact().is_err(),
        "injected compaction fault must surface"
    );
    assert!(cache.degraded());
    faults::disarm();
    drop(cache);
    let reopened = ResultCache::open(Some(dir.as_path())).expect("cache reopens");
    assert_eq!(reopened.len(), 2, "failed compaction must not lose entries");
    assert_eq!(reopened.get("a"), Some(result.clone()));
    assert_eq!(reopened.get("b"), Some(result));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retrying client rides out a connection reset mid-pipeline: it
/// reconnects, resubmits only the unanswered jobs, and returns a terminal
/// response for every program.
#[test]
fn pipeline_retries_through_connection_reset() {
    let _l = lock();
    let _d = arm("seed=5;reset@0");
    let dir = tmpdir("reset");
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    let programs: Vec<String> = (0..4).map(|i| format!("pkt.p{i} = pkt.a;")).collect();
    let mut client = RetryingClient::new(
        &addr,
        RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
            seed: 1,
        },
    );
    let answers = client.pipeline(&programs, &fast_options()).unwrap();
    assert_eq!(answers.len(), programs.len());
    for (i, resp) in answers.iter().enumerate() {
        assert!(
            ok(resp),
            "program {i} has no ok response after retry: {resp}"
        );
    }
    assert!(
        client.retries() >= 1,
        "the injected reset must cost a retry"
    );

    faults::disarm();
    let mut control = Client::connect(handle.local_addr()).expect("control connects");
    assert_conservation(&settled_stats(&mut control));
    let ack = control.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos load: a seeded schedule mixing compile panics, a worker death,
/// cache disk errors, probabilistic connection resets, and a solver stall,
/// under concurrent retrying clients. The server stays up, every client gets
/// a terminal response for every job, the pool returns to full strength, and
/// job conservation holds.
#[test]
fn chaos_load_conserves_jobs_and_server_survives() {
    let _l = lock();
    let _d = arm("seed=1234;panic@2;worker_death@5;disk_io@0;reset%0.08;stall@3;stall_ms=10");
    let dir = tmpdir("chaosload");
    let handle = server::start(&ServerConfig {
        workers: 3,
        queue_capacity: 32,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    // Structurally distinct programs so the load mixes fresh compiles with
    // cache traffic rather than collapsing onto one key.
    let sources = [
        "pkt.x = pkt.a;",
        "pkt.x = pkt.a + pkt.b;",
        "state s; s = s + 1; pkt.out = s;",
        "pkt.x = pkt.a + 1;",
        "pkt.x = pkt.a + 2;",
        "pkt.x = pkt.b + pkt.a; pkt.y = pkt.a;",
    ];
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let addr = addr.clone();
            let programs: Vec<String> = (0..6)
                .map(|i| sources[(t as usize + i) % sources.len()].to_string())
                .collect();
            std::thread::spawn(move || {
                let mut client = RetryingClient::new(
                    &addr,
                    RetryPolicy {
                        max_retries: 10,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(20),
                        seed: 0xC0FFEE + t,
                    },
                );
                let answers = client
                    .pipeline(&programs, &fast_options())
                    .expect("client must get terminal responses despite chaos");
                assert_eq!(answers.len(), programs.len());
                for resp in &answers {
                    assert!(
                        resp.get("ok").and_then(Json::as_bool).is_some(),
                        "non-terminal response: {resp}"
                    );
                }
                answers.iter().filter(|r| !ok(r)).count()
            })
        })
        .collect();
    let mut not_ok = 0usize;
    for t in threads {
        not_ok += t.join().expect("client thread must not die");
    }
    // Failures are allowed (a job caught by the panic or worker-death fault
    // answers `internal`), but they are structured verdicts, counted above.
    eprintln!("chaos load: {not_ok} of 24 jobs answered with a structured error");

    // Quiet phase: disarm and nudge the watchdog until the pool is back to
    // full strength (respawn happens on dispatch, and the dead worker's
    // unwind races our control requests).
    faults::disarm();
    let mut control = Client::connect(handle.local_addr()).expect("control connects");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let nudge = control.compile(sources[0], fast_options()).unwrap();
        assert!(
            nudge.get("ok").and_then(Json::as_bool).is_some(),
            "non-terminal nudge response: {nudge}"
        );
        let status = control.status().unwrap();
        assert!(ok(&status), "server must stay up: {status}");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("running"));
        if u64_field(&status, "live_workers") == 3 {
            break;
        }
        assert!(Instant::now() < deadline, "pool never recovered: {status}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = settled_stats(&mut control);
    assert_conservation(&stats);
    assert!(
        u64_field(&stats, "disk_errors") >= 1,
        "cache fault must be counted"
    );
    assert!(stats.get("degraded").and_then(Json::as_bool).is_some());

    let ack = control.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance for the certification gate: a bit-flipped cache entry (the
/// `corrupt` fault fires exactly once on a cache-served document) is
/// *never* served. The daemon detects the divergence, quarantines the
/// entry from both tiers, and recompiles the job from scratch — so the
/// client sees a correct, freshly-certified result, with the whole
/// incident visible in stats.
#[test]
fn corrupted_cache_entry_is_quarantined_and_recompiled() {
    let _l = lock();
    let dir = tmpdir("corrupt");
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    // Populate the cache with a genuine result (fresh compiles are
    // certified too — `certified` counts it).
    let victim = "pkt.out = pkt.a + pkt.b;";
    let first = client.compile(victim, fast_options()).unwrap();
    assert!(ok(&first), "baseline compile failed: {first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));

    // Now arm the corruption fault: the next cache-served document gets a
    // bit flipped before certification sees it.
    let _d = arm("seed=5;corrupt@0");
    let second = client.compile(victim, fast_options()).unwrap();
    assert!(
        ok(&second),
        "client must get a correct result despite the corrupt entry: {second}"
    );
    // Served fresh, not from cache: the corrupted entry was quarantined
    // and the job fell through to a from-scratch recompile.
    assert_eq!(
        second.get("cached").and_then(Json::as_bool),
        Some(false),
        "a corrupted entry must never be served as a cache hit: {second}"
    );
    // The recompiled documents must agree — zero wrong configs served.
    assert_eq!(
        first
            .get("result")
            .and_then(|r| r.get("field_to_container")),
        second
            .get("result")
            .and_then(|r| r.get("field_to_container")),
        "recompile diverged from baseline"
    );

    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "uncertified"), 1, "stats: {stats}");
    assert_eq!(u64_field(&stats, "quarantined"), 1, "stats: {stats}");
    // Both fresh compiles were certified on their way out.
    assert_eq!(u64_field(&stats, "certified"), 2, "stats: {stats}");
    assert_conservation(&client.telemetry().unwrap());

    // Fault exhausted: the re-cached entry now serves as a normal
    // (certified) cache hit.
    faults::disarm();
    let third = client.compile(victim, fast_options()).unwrap();
    assert!(ok(&third), "post-recovery hit failed: {third}");
    assert_eq!(third.get("cached").and_then(Json::as_bool), Some(true));
    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "certified"), 3);
    assert_eq!(u64_field(&stats, "served_cached"), 1);
    assert_conservation(&client.telemetry().unwrap());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A broken metrics socket (the `metrics_io` fault fires at bind time)
/// degrades the daemon to stats-only instead of killing it: no metrics
/// endpoint is advertised, `stats` reports `metrics_degraded: true`, and
/// compiles keep being served.
#[test]
fn broken_metrics_socket_degrades_to_stats_only() {
    let _l = lock();
    let _d = arm("seed=9;metrics_io@0");
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server must start despite the broken metrics socket");
    assert!(
        handle.metrics_addr().is_none(),
        "a failed bind must not advertise an endpoint"
    );

    let mut client = Client::connect(handle.local_addr()).expect("client connects");
    let resp = client.compile("pkt.deg = pkt.a;", fast_options()).unwrap();
    assert!(ok(&resp), "stats-only daemon must still compile: {resp}");

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("metrics_degraded").and_then(Json::as_bool),
        Some(true),
        "stats must surface the degradation: {stats}"
    );
    // The telemetry op keeps working — only the HTTP exposition is gone.
    let t = client.telemetry().unwrap();
    assert!(ok(&t), "telemetry op must survive degradation: {t}");
    assert!(
        matches!(t.get("metrics_addr"), Some(Json::Null)),
        "degraded endpoint must report a null address: {t}"
    );
    assert_conservation(&client.telemetry().unwrap());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
}

/// Acceptance for the `proof_io` fault: losing an infeasibility proof at
/// materialization degrades the verdict to an explicitly-unchecked one —
/// the response still says `infeasible`, but with `certified:false`, a
/// reason, and no proof — while the daemon stays intact: the very next
/// infeasible compile (fault exhausted) ships a checker-validated proof
/// again, and the job conservation law holds throughout.
#[test]
fn proof_io_fault_degrades_to_unchecked_infeasible_and_daemon_survives() {
    let _l = lock();
    let _d = arm("seed=13;proof_io@0");
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    // Multiplication has no ALU support at this size: infeasible.
    let degraded = client
        .compile("pkt.z = pkt.x * pkt.y;", fast_options())
        .unwrap();
    assert_eq!(
        degraded.get("error").and_then(Json::as_str),
        Some("infeasible"),
        "the verdict itself must survive the proof fault: {degraded}"
    );
    assert_eq!(
        degraded.get("certified").and_then(Json::as_bool),
        Some(false),
        "a lost proof must clear the trust bit: {degraded}"
    );
    assert!(
        degraded.get("proof").is_none(),
        "a lost proof must not ship: {degraded}"
    );
    let reason = degraded
        .get("unchecked_reason")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("degraded verdict must say why: {degraded}"));
    assert!(reason.contains("proof I/O"), "reason: {reason}");

    // Fault exhausted: the daemon is intact and the same program (failures
    // are never cached) now comes back proof-certified.
    let certified = client
        .compile("pkt.z = pkt.x * pkt.y;", fast_options())
        .unwrap();
    assert_eq!(
        certified.get("error").and_then(Json::as_str),
        Some("infeasible")
    );
    assert_eq!(
        certified.get("certified").and_then(Json::as_bool),
        Some(true),
        "fault exhausted, proof must certify again: {certified}"
    );
    assert!(certified.get("proof").and_then(Json::as_str).is_some());

    // Feasible work still compiles on the same daemon.
    let alive = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(ok(&alive), "daemon wedged after proof fault: {alive}");

    let stats = client.stats().unwrap();
    assert_eq!(
        u64_field(&stats, "infeasible_unchecked"),
        1,
        "stats: {stats}"
    );
    assert_eq!(
        u64_field(&stats, "infeasible_certified"),
        1,
        "stats: {stats}"
    );
    assert_conservation(&client.telemetry().unwrap());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
}

/// Portfolio racing under an armed fault schedule: jobs compiled with
/// `portfolio: true` race one step per strategy, and the losers a winner
/// cancels are **not** failures — they appear in `portfolio_cancelled`
/// while `failed` stays at zero, and the job-level conservation law
/// (`submitted == completed + failed + drained + panicked + expired +
/// shed`) is untouched
/// by any number of per-step cancellations. One injected compile panic
/// rides along to prove the two accounting planes stay separate.
#[test]
fn portfolio_losers_are_cancelled_not_failed_and_jobs_conserve() {
    let _l = lock();
    let _d = arm("seed=21;panic@1");
    let dir = tmpdir("portfolio");
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    let portfolio_options = || {
        let Json::Obj(mut pairs) = fast_options() else {
            unreachable!("fast_options returns an object")
        };
        pairs.push(("portfolio".to_string(), Json::Bool(true)));
        Json::Obj(pairs)
    };
    let sources = [
        "pkt.x = pkt.a;",
        "pkt.x = pkt.a + pkt.b;",
        "pkt.x = pkt.a + 1;",
        "pkt.y = pkt.b; pkt.x = pkt.a;",
    ];
    let mut internal = 0usize;
    for (i, src) in sources.iter().enumerate() {
        let resp = client.compile(src, portfolio_options()).unwrap();
        if ok(&resp) {
            assert!(
                resp.get("result").and_then(|r| r.get("pipeline")).is_some(),
                "portfolio winner missing pipeline: {resp}"
            );
        } else {
            // Only the injected panic may fail a job here — and it is
            // accounted as `panicked`, never as a cancelled-loser artifact.
            assert_eq!(
                resp.get("error").and_then(Json::as_str),
                Some("internal"),
                "job {i} failed for an unexpected reason: {resp}"
            );
            internal += 1;
        }
    }
    assert_eq!(internal, 1, "exactly the injected panic should fail");

    faults::disarm();
    let stats = client.stats().unwrap();
    // Cancelled racing losers are spent search inside a *completed* job:
    // they never surface as job-level failures.
    assert_eq!(u64_field(&stats, "failed"), 0, "stats: {stats}");
    assert_eq!(u64_field(&stats, "panicked"), 1, "stats: {stats}");
    // The counter exists and is consistent: each completed portfolio job
    // raced three strategies per depth, so losers can only have been
    // cancelled or finished on their own — never failed the job.
    let cancelled = u64_field(&stats, "portfolio_cancelled");
    eprintln!("portfolio chaos: {cancelled} racing losers cancelled");
    assert_conservation(&client.telemetry().unwrap());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write-ahead journal: a job accepted by a daemon that goes down
/// before answering is replayed by the next daemon on the same journal
/// directory, its result lands in the cache, and the client collects it
/// with the `poll` op. `recovered` accounts for the replay and the
/// conservation law holds on the new daemon.
#[test]
fn journal_replays_unfinished_jobs_into_the_next_daemon() {
    let _l = lock();
    faults::disarm();
    let dir = tmpdir("journal");
    let cache_dir = dir.join("cache");
    let journal_dir = dir.join("journal");
    let victim = "state s; s = s + pkt.x; pkt.y = s;";

    // Daemon A has *zero* workers: the accepted job is journaled and
    // queued but can never be answered — the in-process stand-in for a
    // daemon killed mid-job.
    {
        let handle = server::start(&ServerConfig {
            workers: 0,
            queue_capacity: 8,
            cache_dir: Some(cache_dir.clone()),
            journal_dir: Some(journal_dir.clone()),
            ..ServerConfig::default()
        })
        .expect("daemon A starts");
        let mut client = Client::connect(handle.local_addr()).expect("client connects");
        client
            .send_compile(Json::from(1u64), victim, fast_options())
            .expect("job submits");
        // The write-ahead record is durable before the job enters the
        // queue, so once the queue reports it, the journal has it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let status = client.status().unwrap();
            if u64_field(&status, "queue_depth") == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "job never queued: {status}");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown(false);
        handle.join();
        // The undelivered job is dropped with the queue; its journal
        // record stays pending.
    }

    // Daemon B on the same directories replays the journal: the job is
    // recompiled into the cache by the worker pool.
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(cache_dir.clone()),
        journal_dir: Some(journal_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("daemon B starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    let result = loop {
        let resp = client.poll(victim, fast_options()).unwrap();
        assert!(ok(&resp), "poll must not error: {resp}");
        if resp.get("found").and_then(Json::as_bool) == Some(true) {
            break resp;
        }
        assert!(
            Instant::now() < deadline,
            "replayed job never completed: {resp}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        result
            .get("result")
            .and_then(|r| r.get("pipeline"))
            .is_some(),
        "polled result missing pipeline: {result}"
    );

    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "recovered"), 1, "stats: {stats}");
    assert_eq!(u64_field(&stats, "submitted"), 1, "stats: {stats}");
    assert_eq!(u64_field(&stats, "completed"), 1, "stats: {stats}");
    assert_eq!(u64_field(&stats, "journal_pending"), 0, "stats: {stats}");
    assert_conservation(&client.telemetry().unwrap());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: a worker whose compile ignores cooperative cancellation
/// (the `clock_stall` fault freezes it while *disregarding* the cancel
/// flag) is caught by the watchdog. Stage one cancels at
/// deadline+grace; when the solver still does not yield within the
/// escalation bound, stage two abandons the worker, answers the client
/// with a typed `expired` error, and respawns the pool slot — all while
/// the daemon keeps serving and the abandoned result is never cached.
#[test]
fn clock_stall_escalates_to_worker_respawn_with_typed_error() {
    let _l = lock();
    // Stall the first compile for 1500 ms, immune to cancellation. With a
    // 100 ms deadline, 100 ms grace, and a 100 ms escalation bound, the
    // watchdog cancels at ~200 ms and abandons the worker at ~300 ms —
    // long before the stall releases.
    let _d = arm("seed=17;clock_stall@0;stall_ms=1500");
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: None,
        default_deadline_ms: Some(100),
        deadline_grace_ms: 100,
        watchdog_escalate_ms: 100,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let stalled = "pkt.frozen = pkt.a + pkt.b;";
    let started = Instant::now();
    let resp = client.compile(stalled, fast_options()).unwrap();
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("expired"),
        "watchdog must answer with a typed expired error: {resp}"
    );
    let msg = resp.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        msg.contains("did not yield"),
        "message must name the escalation: {resp}"
    );
    // The client was answered by the watchdog, not by the 1500 ms stall.
    assert!(
        started.elapsed() < Duration::from_millis(1200),
        "watchdog answer took {:?} — escalation did not fire",
        started.elapsed()
    );

    let stats = client.stats().unwrap();
    assert_eq!(u64_field(&stats, "expired"), 1);
    assert_eq!(u64_field(&stats, "watchdog_cancelled"), 1);
    assert_eq!(u64_field(&stats, "watchdog_escalations"), 1);
    assert!(u64_field(&stats, "workers_respawned") >= 1);
    assert_conservation(&client.telemetry().unwrap());

    // The pool heals: once the stall releases, the abandoned worker
    // notices its reply was taken and exits, settling back to one live
    // worker (the respawn).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.status().unwrap();
        if u64_field(&status, "live_workers") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "pool never settled: {status}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The abandoned compile's result was discarded, never cached: the
    // same program (now fault-free — the schedule fired once) compiles
    // fresh on the respawned worker. An explicit per-request deadline
    // overrides the daemon's tight 100 ms default, which exists only to
    // trip the watchdog above.
    let roomy = {
        let Json::Obj(mut pairs) = fast_options() else {
            unreachable!("fast_options returns an object")
        };
        pairs.push(("deadline_ms".to_string(), Json::from(60_000u64)));
        Json::Obj(pairs)
    };
    let retry = client.compile(stalled, roomy.clone()).unwrap();
    assert!(ok(&retry), "post-respawn compile failed: {retry}");
    assert_eq!(retry.get("cached").and_then(Json::as_bool), Some(false));

    // And the daemon is intact for unrelated work.
    let other = client.compile("pkt.fine = pkt.c;", roomy).unwrap();
    assert!(ok(&other), "daemon wedged after escalation: {other}");
    assert_conservation(&client.telemetry().unwrap());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
}
