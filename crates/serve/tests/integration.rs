//! End-to-end tests: real TCP server on an ephemeral port, real client.

use chipmunk_serve::{server, Client, ServerConfig};
use chipmunk_trace::json::Json;

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
    let d = std::env::temp_dir().join(format!("chipmunk-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn round_trip_cache_hits_and_stats() {
    let dir = tmpdir("roundtrip");
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("client connects");

    // First submission: a real synthesis run.
    let base = "state s; s = s + 1; pkt.out = s;";
    let first = client.compile(base, fast_options()).unwrap();
    assert!(ok(&first), "first compile failed: {first}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let key = first.get("key").and_then(Json::as_str).unwrap().to_string();
    let result = first.get("result").unwrap().clone();
    assert!(result.get("pipeline").is_some());

    // Identical resubmission: a cache hit with the identical decoded config.
    let second = client.compile(base, fast_options()).unwrap();
    assert!(ok(&second), "second compile failed: {second}");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("key").and_then(Json::as_str), Some(key.as_str()));
    assert_eq!(second.get("result").unwrap(), &result);

    // A semantics-preserving mutant (commuted operand, added identity):
    // canonicalization maps it to the same key, so it also hits.
    let mutant = "state s; s = 1 + s; pkt.out = s + 0;";
    let third = client.compile(mutant, fast_options()).unwrap();
    assert!(ok(&third), "mutant compile failed: {third}");
    assert_eq!(third.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(third.get("key").and_then(Json::as_str), Some(key.as_str()));
    assert_eq!(third.get("result").unwrap(), &result);

    // Status reflects the pool configuration.
    let status = client.status().unwrap();
    assert!(ok(&status));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("running"));
    assert_eq!(status.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(status.get("queue_capacity").and_then(Json::as_u64), Some(8));

    // Stats: one real job, two cache hits, synth time accounted.
    let stats = client.stats().unwrap();
    assert!(ok(&stats));
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("cache_entries").and_then(Json::as_u64), Some(1));
    let synth_total = stats.get("synth_ms_total").and_then(Json::as_u64).unwrap();
    let synth_max = stats.get("synth_ms_max").and_then(Json::as_u64).unwrap();
    assert!(synth_max <= synth_total);

    // Graceful shutdown drains and the threads actually exit.
    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    assert_eq!(ack.get("stopping").and_then(Json::as_str), Some("drain"));
    handle.join();

    // A restarted server reloads the on-disk tier: still a hit.
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let warm = client.compile(base, fast_options()).unwrap();
    assert!(ok(&warm), "warm compile failed: {warm}");
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("result").unwrap(), &result);
    client.shutdown(false).unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The requester's `fields` array names the indices of its
/// `field_to_container`; returns the portable name → container map.
fn field_containers(result: &Json) -> std::collections::BTreeMap<String, u64> {
    let names = result.get("fields").unwrap().as_arr().unwrap();
    let conts = result.get("field_to_container").unwrap().as_arr().unwrap();
    assert_eq!(names.len(), conts.len());
    names
        .iter()
        .zip(conts)
        .map(|(n, c)| (n.as_str().unwrap().to_string(), c.as_u64().unwrap()))
        .collect()
}

#[test]
fn cache_hits_are_remapped_to_the_requesters_field_numbering() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // First-use order x, b, a, y.
    let base = "pkt.x = pkt.b + pkt.a; pkt.y = pkt.a;";
    let first = client.compile(base, fast_options()).unwrap();
    assert!(ok(&first), "base compile failed: {first}");
    let result = first.get("result").unwrap();
    let fields: Vec<&str> = result
        .get("fields")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(fields, ["x", "b", "a", "y"]);

    // The commuted mutant numbers its fields x, a, b, y — same canonical
    // text, same key, but the producer's field_to_container is in a
    // different index space. The hit must come back remapped so that each
    // *name* still maps to the container the producer wired it to.
    let mutant = "pkt.x = pkt.a + pkt.b; pkt.y = pkt.a;";
    let second = client.compile(mutant, fast_options()).unwrap();
    assert!(ok(&second), "mutant compile failed: {second}");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second.get("key").and_then(Json::as_str),
        first.get("key").and_then(Json::as_str)
    );
    let remapped = second.get("result").unwrap();
    let fields: Vec<&str> = remapped
        .get("fields")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(fields, ["x", "a", "b", "y"], "requester's own numbering");
    assert_eq!(
        field_containers(result),
        field_containers(remapped),
        "every field name must keep its producer-assigned container"
    );
    // The pipeline itself is container-space hardware state: untouched.
    assert_eq!(result.get("pipeline"), remapped.get("pipeline"));
    assert_eq!(result.get("grid"), remapped.get("grid"));

    client.shutdown(false).unwrap();
    handle.join();
}

/// Tentpole acceptance: one connection carries many jobs in flight.
/// 16 compile requests — half hits on a pre-warmed key, half fresh — go
/// out before any response is read; every response comes back tagged with
/// its request's `id` (completion order, so out-of-order is expected and
/// allowed) and reassembles correctly.
#[test]
fn pipelined_requests_are_matched_by_id() {
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 32,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Warm the cache with the program the even-numbered requests repeat.
    let warm = "state s; s = s + 1; pkt.out = s;";
    let first = client.compile(warm, fast_options()).unwrap();
    assert!(ok(&first), "warm compile failed: {first}");

    // Pipeline all 16 before reading anything: evens re-submit the warm
    // program (served from cache by the reader, overtaking the fresh
    // synthesis runs), odds are distinct fresh programs.
    let n = 16u64;
    let program = |i: u64| {
        if i.is_multiple_of(2) {
            warm.to_string()
        } else {
            format!("pkt.x = pkt.a{i};")
        }
    };
    for i in 0..n {
        client
            .send_compile(Json::from(i), &program(i), fast_options())
            .unwrap();
    }
    let mut seen: Vec<Option<Json>> = vec![None; n as usize];
    let mut arrival_ids = Vec::new();
    for _ in 0..n {
        let resp = client.recv().unwrap();
        let id = resp
            .get("id")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("response without id: {resp}"));
        arrival_ids.push(id);
        assert!(
            seen[id as usize].replace(resp).is_none(),
            "duplicate response for id {id}"
        );
    }
    for (i, resp) in seen.iter().enumerate() {
        let resp = resp.as_ref().expect("every id answered exactly once");
        assert!(ok(resp), "request {i} failed: {resp}");
        assert!(resp.get("result").and_then(|r| r.get("pipeline")).is_some());
        if i.is_multiple_of(2) {
            assert_eq!(
                resp.get("cached").and_then(Json::as_bool),
                Some(true),
                "warm resubmission {i} missed the cache"
            );
            assert_eq!(
                resp.get("key").and_then(Json::as_str),
                first.get("key").and_then(Json::as_str)
            );
        }
    }
    // Not asserted (scheduling-dependent), but overwhelmingly the cache
    // hits overtake the fresh compiles — record it for debugging.
    eprintln!("arrival order: {arrival_ids:?}");

    let stats = client.stats().unwrap();
    // Evens (and the warm-up's twin-coalesced serves, if any) were served
    // from cache; every queued job is conserved.
    assert!(stats.get("served_cached").and_then(Json::as_u64).unwrap() >= n / 2);
    let submitted = stats.get("submitted").and_then(Json::as_u64).unwrap();
    let completed = stats.get("completed").and_then(Json::as_u64).unwrap();
    let failed = stats.get("failed").and_then(Json::as_u64).unwrap();
    let drained = stats.get("drained").and_then(Json::as_u64).unwrap();
    assert_eq!(submitted, completed + failed + drained);

    client.shutdown(false).unwrap();
    handle.join();
}

/// Tentpole acceptance: the cache bound evicts LRU entries, the on-demand
/// compaction shrinks `results.jsonl` to exactly the retained set, and a
/// restarted server serves the retained entries warm.
#[test]
fn bounded_cache_evicts_compacts_and_restarts_with_retained_entries() {
    let dir = tmpdir("bounded");
    let programs = [
        "pkt.p0 = pkt.a;",
        "pkt.p1 = pkt.a;",
        "pkt.p2 = pkt.a;",
        "pkt.p3 = pkt.a;",
    ];
    let mut keys = Vec::new();
    {
        let handle = server::start(&ServerConfig {
            workers: 1,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            cache_max_entries: Some(2),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for p in &programs {
            let resp = client.compile(p, fast_options()).unwrap();
            assert!(ok(&resp), "compile failed: {resp}");
            assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(false));
            keys.push(resp.get("key").and_then(Json::as_str).unwrap().to_string());
        }
        // Past the bound: two entries retained, two evicted, and the
        // append-only disk tier still carries all four lines.
        let cs = client.cache("stats").unwrap();
        assert!(ok(&cs));
        assert_eq!(cs.get("entries").and_then(Json::as_u64), Some(2));
        assert_eq!(cs.get("capacity").and_then(Json::as_u64), Some(2));
        assert_eq!(cs.get("evictions").and_then(Json::as_u64), Some(2));
        assert_eq!(cs.get("disk_lines").and_then(Json::as_u64), Some(4));

        // Evicted entries really are misses now (and recompiling them
        // re-evicts the then-LRU entries — not asserted further here).
        let again = client.compile(programs[0], fast_options()).unwrap();
        assert!(ok(&again));
        assert_eq!(again.get("cached").and_then(Json::as_bool), Some(false));

        // On-demand compaction rewrites the file down to the retained set.
        let compacted = client.cache("compact").unwrap();
        assert!(ok(&compacted), "compact failed: {compacted}");
        assert_eq!(
            compacted.get("lines_before").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(compacted.get("lines_after").and_then(Json::as_u64), Some(2));

        client.shutdown(false).unwrap();
        handle.join();
    }

    // The compacted file holds exactly the two retained keys: p3 and the
    // re-compiled p0 (the recompile evicted p2, after p0/p1 went earlier).
    let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    let retained: Vec<&str> = text
        .lines()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("key")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .map(|s| {
            keys.iter()
                .position(|k| *k == s)
                .map(|i| ["p0", "p1", "p2", "p3"][i])
                .unwrap()
        })
        .collect();
    let mut sorted = retained.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, ["p0", "p3"], "retained set after compaction");

    // A restarted server reloads only the retained entries and serves
    // them warm.
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(dir.clone()),
        cache_max_entries: Some(2),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.get("cache_entries").and_then(Json::as_u64), Some(2));
    for p in [programs[0], programs[3]] {
        let resp = client.compile(p, fast_options()).unwrap();
        assert!(ok(&resp));
        assert_eq!(
            resp.get("cached").and_then(Json::as_bool),
            Some(true),
            "retained entry {p} not served warm"
        );
    }
    client.shutdown(false).unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: reserving a connection slot is one atomic step,
/// so a stampede of simultaneous connects can never exceed the cap. All
/// admitted clients hold their slots until every attempt has resolved, so
/// exactly `max_connections` of them are served.
#[test]
fn connection_cap_holds_under_a_stampede() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    let handle = server::start(&ServerConfig {
        workers: 0,
        queue_capacity: 1,
        cache_dir: None,
        max_connections: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();

    let total = 32;
    let served = Arc::new(AtomicUsize::new(0));
    let busy = Arc::new(AtomicUsize::new(0));
    // +1 so the main thread can observe "everyone resolved" before any
    // admitted client releases its slot.
    let resolved = Arc::new(Barrier::new(total + 1));
    let threads: Vec<_> = (0..total)
        .map(|_| {
            let (served, busy, resolved) = (served.clone(), busy.clone(), resolved.clone());
            std::thread::spawn(move || {
                // Keep the connection alive until the barrier — dropping
                // it early would recycle the slot mid-stampede.
                let mut conn = Client::connect(addr).ok();
                let outcome = conn.as_mut().and_then(|c| c.status().ok());
                match outcome {
                    Some(resp) if ok(&resp) => served.fetch_add(1, Ordering::Relaxed),
                    Some(resp) => {
                        assert_eq!(resp.get("error").and_then(Json::as_str), Some("busy"));
                        busy.fetch_add(1, Ordering::Relaxed)
                    }
                    // Hard connect/read failure (shouldn't happen locally).
                    None => busy.fetch_add(1, Ordering::Relaxed),
                };
                resolved.wait(); // hold the slot (or the refusal) here
                drop(conn);
            })
        })
        .collect();
    resolved.wait();
    let (served, busy) = (served.load(Ordering::Relaxed), busy.load(Ordering::Relaxed));
    assert_eq!(served + busy, total, "an attempt vanished");
    assert_eq!(
        served, 4,
        "cap violated or slots lost: {served} served, {busy} busy"
    );
    for t in threads {
        t.join().unwrap();
    }

    // Slots are reclaimed afterwards; one of them shuts the server down.
    let mut control = None;
    for _ in 0..200 {
        if let Ok(mut c) = Client::connect(addr) {
            if c.status().is_ok_and(|s| ok(&s)) {
                control = Some(c);
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    control
        .expect("no slot reclaimed after the stampede")
        .shutdown(true)
        .unwrap();
    handle.join();
}

/// Satellite regression: the job-flow counters conserve every submitted
/// job (`submitted == completed + failed + drained`) and cache-hit serves
/// are visible through `served_cached`.
#[test]
fn stats_conserve_jobs_across_completion_failure_and_drain() {
    // Phase 1: a live worker — completions, a failure, and a fast-path
    // cache serve.
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let fresh = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(ok(&fresh), "fresh compile failed: {fresh}");
    let hit = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    let infeasible = client
        .compile("pkt.z = pkt.x * pkt.y;", fast_options())
        .unwrap();
    assert_eq!(
        infeasible.get("error").and_then(Json::as_str),
        Some("infeasible")
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("drained").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("served_cached").and_then(Json::as_u64), Some(1));
    // The one failure was an infeasibility, served proof-certified.
    assert_eq!(
        stats.get("infeasible_certified").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        stats.get("infeasible_unchecked").and_then(Json::as_u64),
        Some(0)
    );
    client.shutdown(false).unwrap();
    handle.join();

    // Phase 2: no workers — pipelined jobs sit in the queue until an
    // abortive shutdown drains them; they must land in `drained`, not
    // vanish.
    let handle = server::start(&ServerConfig {
        workers: 0,
        queue_capacity: 8,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut submitter = Client::connect(handle.local_addr()).unwrap();
    for i in 0..3u64 {
        submitter
            .send_compile(Json::from(i), &format!("pkt.x = pkt.a{i};"), fast_options())
            .unwrap();
    }
    let mut control = Client::connect(handle.local_addr()).unwrap();
    loop {
        let status = control.status().unwrap();
        if status.get("queue_depth").and_then(Json::as_u64) == Some(3) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let ack = control.shutdown(true).unwrap();
    assert!(ok(&ack));
    // All three pipelined jobs come back failed with `shutting_down`,
    // each tagged with its id.
    let mut ids = Vec::new();
    for _ in 0..3 {
        let resp = submitter.recv().unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("shutting_down")
        );
        ids.push(resp.get("id").and_then(Json::as_u64).unwrap());
    }
    ids.sort_unstable();
    assert_eq!(ids, [0, 1, 2]);
    // The stopping server still answers stats on the live connection.
    let stats = control.stats().unwrap();
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("drained").and_then(Json::as_u64), Some(3));
    handle.join();
}

#[test]
fn excess_connections_get_a_busy_error_and_slots_are_reclaimed() {
    use std::io::BufRead;

    let handle = server::start(&ServerConfig {
        workers: 0,
        queue_capacity: 1,
        cache_dir: None,
        max_connections: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();

    // Two round-trips prove both handlers are accepted and live.
    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    assert!(ok(&c1.status().unwrap()));
    assert!(ok(&c2.status().unwrap()));

    // The third connection is answered with one busy line and closed —
    // read it raw, without sending anything.
    let third = std::net::TcpStream::connect(addr).unwrap();
    let mut line = String::new();
    std::io::BufReader::new(third).read_line(&mut line).unwrap();
    let refused = Json::parse(line.trim_end()).unwrap();
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(refused.get("error").and_then(Json::as_str), Some("busy"));

    let stats = c1.stats().unwrap();
    assert_eq!(stats.get("rejected_busy").and_then(Json::as_u64), Some(1));

    // Closing a client frees its slot (the handler notices EOF and exits);
    // a fresh connection is then served again.
    drop(c2);
    let mut served = false;
    for _ in 0..200 {
        if let Ok(mut c) = Client::connect(addr) {
            if c.status().is_ok_and(|s| ok(&s)) {
                served = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(served, "freed connection slot was never reused");

    c1.shutdown(true).unwrap();
    handle.join();
}

#[test]
fn idle_connections_are_dropped_after_the_read_timeout() {
    let handle = server::start(&ServerConfig {
        workers: 0,
        queue_capacity: 1,
        cache_dir: None,
        idle_timeout: Some(std::time::Duration::from_millis(100)),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();

    // An active client inside the deadline works normally.
    let mut idle = Client::connect(addr).unwrap();
    assert!(ok(&idle.status().unwrap()));

    // …but after sitting silent past the deadline, the server has hung up.
    std::thread::sleep(std::time::Duration::from_millis(400));
    assert!(
        idle.status().is_err(),
        "idle connection survived the read timeout"
    );

    let mut control = Client::connect(addr).unwrap();
    control.shutdown(true).unwrap();
    handle.join();
}

#[test]
fn full_queue_gets_typed_backpressure_and_abort_fails_queued_jobs() {
    // No workers: jobs queue forever, making the full/abort path
    // deterministic.
    let handle = server::start(&ServerConfig {
        workers: 0,
        queue_capacity: 1,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();

    // The first job occupies the only queue slot; its handler blocks
    // waiting for a worker, so run it on a helper thread.
    let blocked = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.compile("pkt.x = pkt.a;", fast_options()).unwrap()
    });
    // Wait until the job is actually queued.
    let mut control = Client::connect(addr).unwrap();
    loop {
        let status = control.status().unwrap();
        if status.get("queue_depth").and_then(Json::as_u64) == Some(1) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The second job is refused with a typed error, not a hang.
    let mut c2 = Client::connect(addr).unwrap();
    let refused = c2.compile("pkt.y = pkt.b;", fast_options()).unwrap();
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("queue_full")
    );

    // Abortive shutdown fails the queued job instead of running it.
    let ack = control.shutdown(true).unwrap();
    assert_eq!(ack.get("stopping").and_then(Json::as_str), Some("abort"));
    let aborted = blocked.join().unwrap();
    assert_eq!(aborted.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        aborted.get("error").and_then(Json::as_str),
        Some("shutting_down")
    );
    handle.join();
}

#[test]
fn compile_errors_are_reported_not_fatal() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Unparseable program.
    let bad = client.compile("pkt.x = = 3;", fast_options()).unwrap();
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(bad.get("error").and_then(Json::as_str), Some("parse"));

    // Malformed request line.
    let garbage = client.request(&Json::from("just a string")).unwrap();
    assert_eq!(garbage.get("error").and_then(Json::as_str), Some("parse"));

    // Infeasible program (multiplication has no ALU support at this size).
    let infeasible = client
        .compile("pkt.z = pkt.x * pkt.y;", fast_options())
        .unwrap();
    assert_eq!(infeasible.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        infeasible.get("error").and_then(Json::as_str),
        Some("infeasible")
    );
    // The verdict is proof-certified and ships a re-checkable DRAT
    // certificate: "cannot fit" is as trustworthy as a config.
    assert_eq!(
        infeasible.get("certified").and_then(Json::as_bool),
        Some(true),
        "infeasible verdict not certified: {infeasible}"
    );
    let proof = infeasible
        .get("proof")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("certified verdict shipped no proof: {infeasible}"));
    let cert = chipmunk::Certificate::parse(proof).unwrap();
    assert!(cert.check(&chipmunk::CheckBudget::default()).is_valid());

    // The connection and server survive all of it.
    let alive = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(ok(&alive), "server wedged: {alive}");
    client.shutdown(false).unwrap();
    handle.join();
}

/// Size-shaped options above their ceilings are answered `bad_request`
/// before the daemon plans anything: one request must not make it build a
/// plan step per requested stage, or a sketch per requested slot or
/// initial input. A zero depth, which plans no step, is refused too.
#[test]
fn options_above_their_ceilings_are_bad_requests() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let initial_inputs = chipmunk::CegisOptions::MAX_INITIAL_INPUTS as u64 + 1;
    for (key, value) in [
        ("max_stages", 0),
        ("max_stages", 100_000),
        ("slots", 100_000),
        ("num_initial_inputs", initial_inputs),
    ] {
        let resp = client
            .compile("pkt.x = pkt.a;", options_with(&[(key, Json::from(value))]))
            .unwrap();
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{key} {value}: {resp}"
        );
    }
    let alive = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(ok(&alive), "server wedged: {alive}");
    client.shutdown(false).unwrap();
    handle.join();
}

/// `fast_options()` plus extra request fields.
fn options_with(extra: &[(&str, Json)]) -> Json {
    let Json::Obj(mut pairs) = fast_options() else {
        unreachable!("fast_options returns an object")
    };
    for (k, v) in extra {
        pairs.retain(|(existing, _)| existing != k);
        pairs.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(pairs)
}

/// The extended conservation law, both sides read from one `telemetry`
/// response (which carries the ledger):
/// `submitted == completed + failed + drained + panicked + expired + shed`,
/// and every admitted job that did not complete recorded one `failed`
/// end-to-end sample, so `outcomes.failed` equals the five failure
/// counters' sum.
fn assert_conserved(telemetry: &Json) {
    let f = |k: &str| {
        telemetry
            .get(k)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing u64 field {k:?} in {telemetry}"))
    };
    let unfinished = f("failed") + f("drained") + f("panicked") + f("expired") + f("shed");
    assert_eq!(
        f("submitted"),
        f("completed") + unfinished,
        "job conservation violated: {telemetry}"
    );
    assert_eq!(
        telemetry
            .get("outcomes")
            .and_then(|o| o.get("failed"))
            .and_then(Json::as_u64),
        Some(unfinished),
        "outcomes.failed must equal failed + drained + panicked + expired + shed: {telemetry}"
    );
}

/// Tentpole: a job whose deadline elapses while it queues is refused with
/// a typed `expired` error at dequeue — no solver time is spent on an
/// answer nobody is waiting for — and the expiry is conserved in stats.
#[test]
fn queue_expired_jobs_get_a_typed_error_without_compiling() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Job 0: a real compile that occupies the only worker for well over a
    // millisecond. Job 1 rides the same pipelined connection with a 1 ms
    // deadline, so its whole window elapses behind job 0.
    client
        .send_compile(Json::from(0u64), "pkt.x = pkt.a + pkt.b;", fast_options())
        .unwrap();
    client
        .send_compile(
            Json::from(1u64),
            "pkt.y = pkt.b + 1;",
            options_with(&[("deadline_ms", Json::from(1u64))]),
        )
        .unwrap();
    let mut by_id = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let resp = client.recv().unwrap();
        by_id.insert(resp.get("id").and_then(Json::as_u64).unwrap(), resp);
    }
    assert!(
        ok(&by_id[&0]),
        "the occupying job must succeed: {}",
        by_id[&0]
    );
    assert_eq!(
        by_id[&1].get("error").and_then(Json::as_str),
        Some("expired"),
        "queued-past-deadline job must expire: {}",
        by_id[&1]
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("expired").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    assert_conserved(&client.telemetry().unwrap());

    // The expired program was never compiled, so a deadline-free
    // resubmission is a fresh compile, not a cache hit.
    let retry = client
        .compile("pkt.y = pkt.b + 1;", fast_options())
        .unwrap();
    assert!(ok(&retry), "post-expiry retry failed: {retry}");
    assert_eq!(retry.get("cached").and_then(Json::as_bool), Some(false));

    client.shutdown(false).unwrap();
    handle.join();
}

/// Satellite regression: results that timed out (or expired) are never
/// admitted into either cache tier. The cache key deliberately excludes
/// timeouts, deadlines, and budgets, so a poisoned entry from a starved
/// run would be served to well-resourced twins forever — this pins the
/// gate shut.
#[test]
fn timed_out_results_never_enter_the_cache() {
    let dir = tmpdir("timeout-cache");
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // A 1 ms timeout starves the compile before its first solve.
    let victim = "state s; s = s + pkt.x; pkt.y = s;";
    let starved = client
        .compile(victim, options_with(&[("timeout_ms", Json::from(1u64))]))
        .unwrap();
    assert_eq!(
        starved.get("error").and_then(Json::as_str),
        Some("timeout"),
        "starved compile must time out: {starved}"
    );

    // Nothing entered either tier: the poll op (same key — the key
    // ignores timeouts) finds no entry, and the entry count is zero.
    let polled = client.poll(victim, fast_options()).unwrap();
    assert_eq!(
        polled.get("found").and_then(Json::as_bool),
        Some(false),
        "a timeout left a cache entry behind: {polled}"
    );
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("cache_entries").and_then(Json::as_u64),
        Some(0),
        "cache must be empty after a timeout: {stats}"
    );

    // The same program with a sane timeout compiles fresh — and only
    // *that* certified result is cached.
    let healthy = client.compile(victim, fast_options()).unwrap();
    assert!(ok(&healthy), "healthy recompile failed: {healthy}");
    assert_eq!(healthy.get("cached").and_then(Json::as_bool), Some(false));
    let hit = client.compile(victim, fast_options()).unwrap();
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_conserved(&client.telemetry().unwrap());

    client.shutdown(false).unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole: sustained queue wait trips the brownout state machine —
/// fresh low-priority work is refused `busy` with a `retry_after_ms`
/// pacing hint while cache hits and high-priority work keep serving.
#[test]
fn brownout_refuses_low_priority_work_with_a_pacing_hint() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 16,
        cache_dir: None,
        // Any sustained wait trips brownout; priorities below 5 shed.
        brownout_p95_ms: Some(1),
        shed_below_priority: 5,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut feeder = Client::connect(handle.local_addr()).unwrap();
    // High priority so the feeder jobs themselves are never refused by
    // the brownout they cause.
    feeder.set_priority(5);
    for i in 0..5u64 {
        feeder
            .send_compile(
                Json::from(i),
                &format!("pkt.w{i} = pkt.a + pkt.b;"),
                fast_options(),
            )
            .unwrap();
    }
    for _ in 0..5 {
        let resp = feeder.recv().unwrap();
        assert!(ok(&resp), "feeder job failed: {resp}");
    }

    // Five dequeues produced five wait samples, four of them the length
    // of a real compile: the queue-wait p95 is far past 1 ms.
    let mut low = Client::connect(handle.local_addr()).unwrap();
    let refused = low.compile("pkt.nope = pkt.a;", fast_options()).unwrap();
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("busy"),
        "brownout must refuse fresh low-priority work: {refused}"
    );
    let hint = refused
        .get("retry_after_ms")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("brownout refusal must carry a pacing hint: {refused}"));
    assert!((100..=10_000).contains(&hint), "hint out of band: {hint}");

    let stats = low.stats().unwrap();
    assert_eq!(stats.get("brownout").and_then(Json::as_bool), Some(true));
    assert!(stats.get("brownout_entered").and_then(Json::as_u64) >= Some(1));
    assert!(stats.get("brownout_busy").and_then(Json::as_u64) >= Some(1));

    // Degraded, not dark: cache hits still serve at any priority…
    let hit = low
        .compile("pkt.w0 = pkt.a + pkt.b;", fast_options())
        .unwrap();
    assert!(ok(&hit), "brownout must still serve cache hits: {hit}");
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    // …and work at or above the shed priority is still admitted.
    low.set_priority(5);
    let admitted = low.compile("pkt.nope = pkt.a;", fast_options()).unwrap();
    assert!(
        ok(&admitted),
        "high-priority work must pass brownout: {admitted}"
    );
    assert_conserved(&low.telemetry().unwrap());

    low.shutdown(false).unwrap();
    handle.join();
}

/// Tentpole: a saturated queue sheds the youngest lowest-priority queued
/// job — typed `shed` answer with a pacing hint — to admit a
/// higher-priority newcomer, and the ledger conserves both.
#[test]
fn saturation_sheds_the_youngest_lowest_priority_job() {
    let handle = server::start(&ServerConfig {
        workers: 0,
        queue_capacity: 2,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut low = Client::connect(addr).unwrap();
    low.send_compile(Json::from(0u64), "pkt.x = pkt.a;", fast_options())
        .unwrap();
    low.send_compile(Json::from(1u64), "pkt.y = pkt.b;", fast_options())
        .unwrap();
    let mut control = Client::connect(addr).unwrap();
    loop {
        let status = control.status().unwrap();
        if status.get("queue_depth").and_then(Json::as_u64) == Some(2) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // A priority-5 job against the full queue evicts the *youngest* of
    // the priority-0 entries (id 1) and takes its slot.
    let mut high = Client::connect(addr).unwrap();
    high.set_priority(5);
    high.send_compile(Json::from(9u64), "pkt.z = pkt.c;", fast_options())
        .unwrap();
    let shed = low.recv().unwrap();
    assert_eq!(shed.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(
        shed.get("error").and_then(Json::as_str),
        Some("shed"),
        "victim must get a typed shed error: {shed}"
    );
    assert!(
        shed.get("retry_after_ms").and_then(Json::as_u64).is_some(),
        "shed answer must carry a pacing hint: {shed}"
    );

    // The victim is answered just before the newcomer's retried push is
    // counted, so poll until the ledger shows all three submissions.
    let stats = loop {
        let stats = control.stats().unwrap();
        if stats.get("submitted").and_then(Json::as_u64) == Some(3) {
            break stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(stats.get("shed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(2));

    // Abort: the two surviving queued jobs (old id 0, new id 9) drain.
    control.shutdown(true).unwrap();
    let aborted = low.recv().unwrap();
    assert_eq!(aborted.get("id").and_then(Json::as_u64), Some(0));
    assert_eq!(
        aborted.get("error").and_then(Json::as_str),
        Some("shutting_down")
    );
    let aborted = high.recv().unwrap();
    assert_eq!(aborted.get("id").and_then(Json::as_u64), Some(9));
    let stats = control.stats().unwrap();
    assert_eq!(stats.get("drained").and_then(Json::as_u64), Some(2));
    // The shed victim and both abort drains each recorded one `failed`
    // end-to-end sample.
    let telemetry = control.telemetry().unwrap();
    assert_eq!(
        telemetry
            .get("outcomes")
            .and_then(|o| o.get("failed"))
            .and_then(Json::as_u64),
        Some(3),
        "{telemetry}"
    );
    assert_conserved(&telemetry);
    handle.join();
}

/// A program nested past the Domino parser's bound is a `parse` error,
/// not a stack overflow that aborts the daemon: 1,000 parentheses make a
/// 2 KB request, and the same daemon then compiles as usual.
#[test]
fn deeply_nested_program_is_a_parse_error() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let deep = format!("pkt.x = {}pkt.a{};", "(".repeat(1000), ")".repeat(1000));
    let refused = client.compile(&deep, fast_options()).unwrap();
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("parse"),
        "{refused}"
    );
    let compiled = client.compile("pkt.x = pkt.a;", fast_options()).unwrap();
    assert!(ok(&compiled), "daemon must keep compiling: {compiled}");
    client.shutdown(false).unwrap();
    handle.join();
}

/// A request line past the 1 MiB bound is answered once, with a `parse`
/// error that has no `id` (nothing was decoded), and its connection is
/// closed; the daemon serves the next connection.
#[test]
fn overlong_request_line_is_refused_and_closed() {
    use std::io::{BufRead, BufReader, Write};
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    sock.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    sock.write_all(&vec![b'x'; (1 << 20) + 1]).unwrap();
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("an over-long line must be answered");
    let refused = Json::parse(line.trim()).unwrap();
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("parse"),
        "{refused}"
    );
    assert!(refused.get("id").is_none(), "{refused}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "the connection must close: {line:?}"
    );

    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(ok(&client.status().unwrap()));
    client.shutdown(false).unwrap();
    handle.join();
}

/// A journal from a daemon that resumed plans mid-way: the `accepted`
/// record carries the plan fingerprint, and a `step` record marks every
/// plan step finished — what that daemon left when every step ended
/// `Timeout` and it died before writing `completed`. A replayed job
/// compiles as a fresh submission would, from the plan's first step, so
/// the poll finds the same depth a fresh compile gives and nothing is
/// answered infeasible.
#[test]
fn a_replayed_job_recompiles_its_whole_plan() {
    use std::time::{Duration, Instant};

    let dir = tmpdir("replay-whole-plan");
    let journal_dir = dir.join("journal");
    std::fs::create_dir_all(&journal_dir).unwrap();
    let source = "pkt.x = pkt.a + pkt.b;";
    let options = chipmunk_serve::JobOptions::from_json(&fast_options()).unwrap();
    let program = chipmunk_lang::parse(source).unwrap();
    let opts = options.to_compiler_options().unwrap();
    let fresh = chipmunk::compile(&program, &opts).expect("a fresh compile fits");
    let plan = chipmunk::plan_compilation(&program, &opts).unwrap();
    let key = chipmunk::cache_key(&program, &opts);
    let fp = plan.fingerprint();
    let mut journal = Json::obj([
        ("rec", Json::from("accepted")),
        ("key", Json::from(key.as_str())),
        ("program", Json::from(source)),
        ("options", options.to_json()),
        ("trace", Json::from("t-replay")),
        ("plan", Json::from(fp.as_str())),
    ])
    .to_compact();
    for step in &plan.steps {
        let record = Json::obj([
            ("rec", Json::from("step")),
            ("key", Json::from(key.as_str())),
            ("plan", Json::from(fp.as_str())),
            ("step", Json::from(step.index)),
        ]);
        journal.push('\n');
        journal.push_str(&record.to_compact());
    }
    journal.push('\n');
    std::fs::write(journal_dir.join("journal.jsonl"), journal).unwrap();

    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_dir: Some(dir.join("cache")),
        journal_dir: Some(journal_dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let result = loop {
        let polled = client.poll(source, fast_options()).unwrap();
        if polled.get("found").and_then(Json::as_bool) == Some(true) {
            break polled
                .get("result")
                .cloned()
                .expect("a found poll has a result");
        }
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("infeasible_unchecked").and_then(Json::as_u64),
            Some(0),
            "{stats}"
        );
        assert!(
            Instant::now() < deadline,
            "the replayed job never answered: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let stages = result
        .get("grid")
        .and_then(|g| g.get("stages"))
        .and_then(Json::as_u64);
    assert_eq!(stages, Some(fresh.grid.stages as u64), "{result}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("recovered").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("infeasible_unchecked").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    client.shutdown(false).unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
