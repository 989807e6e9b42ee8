//! Crash-durability test for the job journal, against real processes: a
//! `chipmunkc serve` daemon is SIGKILLed mid-job, a second daemon on the
//! same directories replays the journal, and the client collects the
//! recompiled result with the `poll` op. The conservation law
//! (`submitted == completed + failed + drained + panicked`) must hold on
//! the restarted daemon with the replayed job accounted as `recovered`.
//! Every daemon is killed and reaped when its test ends, on every exit
//! path ([`Daemon`]). A daemon given an invalid fault plan refuses to
//! start.

use std::io::{BufRead, BufReader, Read};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chipmunk_serve::Client;
use chipmunk_trace::json::Json;

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("chipmunkc-kill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A spawned daemon that is killed and reaped when dropped, so a failing
/// assertion cannot leave it running.
struct Daemon(Child);

impl Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `chipmunkc serve` on an ephemeral port and return the daemon
/// plus the address it announced on stderr.
fn spawn_serve(dir: &Path, faults: Option<&str>) -> (Daemon, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chipmunkc"));
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--cache-dir",
        dir.join("cache").to_str().unwrap(),
        "--journal-dir",
        dir.join("journal").to_str().unwrap(),
    ])
    .stderr(Stdio::piped());
    match faults {
        Some(spec) => {
            eprintln!("fault plan (reproduce with CHIPMUNK_FAULTS): {spec}");
            cmd.env("CHIPMUNK_FAULTS", spec);
        }
        None => {
            cmd.env_remove("CHIPMUNK_FAULTS");
        }
    }
    cmd.env_remove("CHIPMUNK_TRACE");
    let mut child = Daemon(cmd.spawn().expect("serve spawns"));
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve announces its address")
            .expect("stderr readable");
        eprintln!("serve: {line}");
        if let Some(rest) = line.strip_prefix("chipmunk-serve listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

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

fn u64_field(resp: &Json, key: &str) -> u64 {
    resp.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {resp}"))
}

#[test]
fn sigkilled_daemon_replays_journal_and_poll_collects_the_result() {
    let dir = scratch("replay");
    let victim = "state s; s = s + pkt.x; pkt.y = s;";

    // Daemon A: its single worker stalls for two minutes on the first
    // job, so the job is journaled (write-ahead, fsync'd) but guaranteed
    // unanswered when the SIGKILL lands.
    let (mut daemon_a, addr_a) = spawn_serve(&dir, Some("seed=1;stall@0;stall_ms=120000"));
    let mut client = Client::connect(&addr_a).expect("client connects to daemon A");
    client
        .send_compile(Json::from(1u64), victim, fast_options())
        .expect("job submits");
    // The write-ahead record hits the journal before the job enters the
    // queue; wait until it is on disk, then kill without ceremony.
    let journal_file = dir.join("journal").join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&journal_file).unwrap_or_default();
        if text.contains("\"rec\":\"accepted\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job never journaled");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon_a.kill().expect("SIGKILL daemon A");
    let _ = daemon_a.wait();
    drop(client);

    // Daemon B on the same directories: the journal replay re-queues the
    // job and the worker pool recompiles it into the cache.
    let (mut daemon_b, addr_b) = spawn_serve(&dir, None);
    let mut client = Client::connect(&addr_b).expect("client connects to daemon B");
    let deadline = Instant::now() + Duration::from_secs(120);
    let polled = loop {
        let resp = client.poll(victim, fast_options()).expect("poll works");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "poll must not error: {resp}"
        );
        if resp.get("found").and_then(Json::as_bool) == Some(true) {
            break resp;
        }
        assert!(
            Instant::now() < deadline,
            "replayed job never completed: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        polled
            .get("result")
            .and_then(|r| r.get("pipeline"))
            .is_some(),
        "polled result missing pipeline: {polled}"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(u64_field(&stats, "recovered"), 1, "stats: {stats}");
    assert_eq!(u64_field(&stats, "journal_pending"), 0, "stats: {stats}");
    // Conservation on the restarted daemon: the replayed job is the only
    // submission and it completed.
    assert_eq!(
        u64_field(&stats, "submitted"),
        u64_field(&stats, "completed")
            + u64_field(&stats, "failed")
            + u64_field(&stats, "drained")
            + u64_field(&stats, "panicked"),
        "conservation violated: {stats}"
    );
    assert_eq!(u64_field(&stats, "submitted"), 1, "stats: {stats}");

    let ack = client.shutdown(false).expect("shutdown");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    let status = daemon_b.wait().expect("daemon B exits");
    assert!(status.success(), "daemon B exit: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: the shutdown ack must be flushed to the socket before the
/// daemon process exits. Connection writer threads are detached, so
/// joining the accept loop and the workers alone proves nothing about
/// queued responses; after a journal replay the scheduling reliably lost
/// that race and the client saw a bare connection reset instead of the
/// ack. Every round restores the pending journal record so every daemon
/// start performs a replay.
#[test]
fn shutdown_ack_survives_journal_replay() {
    let dir = scratch("shutdown-ack");
    let victim = "pkt.p0 = pkt.a;";

    // Produce one pending journal record: the single worker stalls, so
    // the accepted job is journaled but unanswered when the kill lands.
    let (mut daemon_a, addr_a) = spawn_serve(&dir, Some("seed=1;stall@0;stall_ms=120000"));
    let mut client = Client::connect(&addr_a).expect("client connects to daemon A");
    client
        .send_compile(Json::from(1u64), victim, fast_options())
        .expect("job submits");
    let journal_file = dir.join("journal").join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(&journal_file).unwrap_or_default();
        if text.contains("\"rec\":\"accepted\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job never journaled");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon_a.kill().expect("SIGKILL daemon A");
    let _ = daemon_a.wait();
    drop(client);
    let pending = std::fs::read_to_string(&journal_file).expect("journal snapshot");

    for round in 0..5 {
        // Restore the pending record (the previous round's replay marked
        // it completed) and drop the cache so the replay does real work.
        std::fs::write(&journal_file, &pending).expect("journal restored");
        let _ = std::fs::remove_dir_all(dir.join("cache"));
        let (mut daemon, addr) = spawn_serve(&dir, None);
        let mut client = Client::connect(&addr).expect("client connects");
        let ack = client
            .shutdown(false)
            .unwrap_or_else(|e| panic!("round {round}: shutdown ack lost: {e}"));
        assert_eq!(
            ack.get("ok").and_then(Json::as_bool),
            Some(true),
            "round {round}: {ack}"
        );
        let status = daemon.wait().expect("daemon exits");
        assert!(status.success(), "round {round}: exit {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An invalid `CHIPMUNK_FAULTS` plan is refused: the daemon exits non-zero
/// within seconds and names the clause it could not read, instead of
/// serving with no faults (which would let a typo test nothing).
#[test]
fn an_invalid_fault_plan_is_refused() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env("CHIPMUNK_FAULTS", "frobnicate@1")
            .env_remove("CHIPMUNK_TRACE")
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("daemon status") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "a daemon with an invalid fault plan kept running"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let _ = daemon
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr);
    assert!(!status.success(), "{stderr}");
    assert!(stderr.contains("frobnicate"), "{stderr}");
}
