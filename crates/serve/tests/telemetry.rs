//! Telemetry-plane integration tests: end-to-end trace-id correlation
//! (response ↔ journal ↔ span tree, including across a kill-restart
//! replay), the Prometheus metrics endpoint under pipelined batch load,
//! and the `telemetry` protocol op behind `chipmunkc top`.

use chipmunk_serve::{server, Client, RetryPolicy, RetryingClient, ServerConfig};
use chipmunk_trace::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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
    let d = std::env::temp_dir().join(format!(
        "chipmunk-serve-telemetry-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Parse `journal.jsonl`, returning every record of kind `rec` whose
/// `trace` field equals `trace`.
fn journal_records(dir: &std::path::Path, rec: &str, trace: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap_or_default();
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|d| {
            d.get("rec").and_then(Json::as_str) == Some(rec)
                && d.get("trace").and_then(Json::as_str) == Some(trace)
        })
        .collect()
}

/// Wait until the journal holds a `completed` record for `trace` (it is
/// appended after the response is delivered, so a reader races it).
fn await_completed_record(dir: &std::path::Path, trace: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(rec) = journal_records(dir, "completed", trace).pop() {
            return rec;
        }
        assert!(
            Instant::now() < deadline,
            "no completed journal record for trace {trace:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// True when `node` or any descendant is a span whose name starts with
/// `prefix`.
fn tree_has_span(node: &Json, prefix: &str) -> bool {
    if node
        .get("span")
        .and_then(Json::as_str)
        .is_some_and(|s| s.starts_with(prefix))
    {
        return true;
    }
    match node.get("children") {
        Some(Json::Arr(children)) => children.iter().any(|c| tree_has_span(c, prefix)),
        _ => false,
    }
}

/// Acceptance: one traced submission is correlated end to end. The
/// client-chosen trace id comes back on the response, rides both journal
/// records, and names a buffered span tree in which the job's `serve.job`
/// root nests the CEGIS work that solved it.
#[test]
fn trace_id_correlates_response_journal_and_span_tree() {
    let dir = tmpdir("correlate");
    let journal_dir = dir.join("journal");
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        journal_dir: Some(journal_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    let resp = client
        .compile_traced("pkt.x = pkt.a;", fast_options(), Some("corr-1"))
        .unwrap();
    assert!(ok(&resp), "compile failed: {resp}");
    assert_eq!(
        resp.get("trace").and_then(Json::as_str),
        Some("corr-1"),
        "response must echo the client trace id: {resp}"
    );

    // Both journal records carry the id.
    assert_eq!(
        journal_records(&journal_dir, "accepted", "corr-1").len(),
        1,
        "accepted record must carry the trace id"
    );
    await_completed_record(&journal_dir, "corr-1");

    // The span tree is queryable under the same id, rooted at the job
    // span (closed, so it has a duration and its wait/synth split) with
    // the CEGIS work nested inside.
    let traced = client.trace("corr-1").unwrap();
    assert!(ok(&traced), "trace op failed: {traced}");
    assert_eq!(traced.get("found").and_then(Json::as_bool), Some(true));
    let tree = traced.get("tree").expect("found:true carries a tree");
    assert_eq!(tree.get("span").and_then(Json::as_str), Some("serve.job"));
    assert_eq!(
        tree.get("fields")
            .and_then(|f| f.get("trace"))
            .and_then(Json::as_str),
        Some("corr-1")
    );
    assert!(tree.get("dur_us").is_some(), "job span must be closed");
    assert!(
        tree.get("close_fields")
            .and_then(|f| f.get("synth_ms"))
            .is_some(),
        "close fields must carry the wait/synth split: {tree}"
    );
    assert!(
        tree_has_span(tree, "cegis."),
        "cegis spans must nest under the job: {tree}"
    );

    // An unknown id is a found:false answer, not an error.
    let missing = client.trace("no-such-trace").unwrap();
    assert!(ok(&missing));
    assert_eq!(missing.get("found").and_then(Json::as_bool), Some(false));

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A submission without a client trace id still gets one: the server
/// assigns it, echoes it, and the id resolves to the job's span tree.
#[test]
fn server_assigns_a_trace_id_when_the_client_sends_none() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    let resp = client.compile("pkt.y = pkt.b;", fast_options()).unwrap();
    assert!(ok(&resp), "compile failed: {resp}");
    let trace = resp
        .get("trace")
        .and_then(Json::as_str)
        .expect("server must assign a trace id")
        .to_string();
    assert!(!trace.is_empty());

    let traced = client.trace(&trace).unwrap();
    assert_eq!(traced.get("found").and_then(Json::as_bool), Some(true));

    // The admission-time cache fast path answers without a job span but
    // still echoes a (fresh) trace id.
    let hit = client.compile("pkt.y = pkt.b;", fast_options()).unwrap();
    assert!(ok(&hit), "cache hit failed: {hit}");
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert!(hit.get("trace").and_then(Json::as_str).is_some());

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
}

/// Server-assigned trace ids are unique per process, not per daemon: two
/// daemons in one process mint distinct ids, and since every daemon's
/// trace store sees the whole process's spans, each daemon's `trace` op
/// must still answer with its own job's tree.
#[test]
fn two_daemons_in_one_process_mint_distinct_trace_ids() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    let daemons = [
        server::start(&config).expect("server A starts"),
        server::start(&config).expect("server B starts"),
    ];
    let mut jobs = Vec::new();
    for (handle, program) in daemons.iter().zip(["pkt.x = pkt.a;", "pkt.y = pkt.a + 1;"]) {
        let mut client = Client::connect(handle.local_addr()).expect("client connects");
        let resp = client.compile(program, fast_options()).unwrap();
        assert!(ok(&resp), "compile failed: {resp}");
        let field = |name: &str| {
            resp.get(name)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("response has no `{name}`: {resp}"))
                .to_string()
        };
        jobs.push((client, field("trace"), field("key")));
    }
    assert_ne!(jobs[0].1, jobs[1].1, "both daemons minted one trace id");
    for (client, trace, key) in &mut jobs {
        let traced = client.trace(trace).unwrap();
        let tree = traced.get("tree").expect("the job's tree is found");
        assert_eq!(
            tree.get("fields")
                .and_then(|f| f.get("key"))
                .and_then(Json::as_str),
            Some(key.as_str()),
            "trace {trace} answered with another daemon's job: {tree}"
        );
    }
    for ((mut client, _, _), handle) in jobs.into_iter().zip(daemons) {
        assert!(ok(&client.shutdown(false).unwrap()));
        handle.join();
    }
}

/// Trace correlation across a crash: a job accepted (under a client
/// trace id) by a daemon that dies before answering is replayed by the
/// next daemon **under the same trace id** — the replayed job's span
/// tree and the `completed` journal record written by daemon B both
/// carry the id daemon A accepted.
#[test]
fn trace_id_survives_kill_restart_replay() {
    let dir = tmpdir("replay");
    let cache_dir = dir.join("cache");
    let journal_dir = dir.join("journal");
    let victim = "state t; t = t + pkt.x; pkt.y = t;";

    // Daemon A has zero workers: the job is journaled and queued but can
    // never be answered — the in-process stand-in for a killed daemon.
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
            .send(&Json::obj([
                ("op", Json::from("compile")),
                ("id", Json::from(1u64)),
                ("program", Json::from(victim)),
                ("options", fast_options()),
                ("trace", Json::from("boot-7")),
            ]))
            .expect("job submits");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let status = client.status().unwrap();
            if status.get("queue_depth").and_then(Json::as_u64) == Some(1) {
                break;
            }
            assert!(Instant::now() < deadline, "job never queued: {status}");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown(false);
        handle.join();
    }
    assert_eq!(
        journal_records(&journal_dir, "accepted", "boot-7").len(),
        1,
        "daemon A must journal the trace id with the accepted record"
    );

    // Daemon B replays the journal; the recompiled job keeps the id.
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
    loop {
        let resp = client.poll(victim, fast_options()).unwrap();
        assert!(ok(&resp), "poll must not error: {resp}");
        if resp.get("found").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replayed job never completed: {resp}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Daemon B's completed record echoes the id daemon A accepted …
    await_completed_record(&journal_dir, "boot-7");
    // … and the replayed job's span tree is live under it on daemon B.
    let traced = client.trace("boot-7").unwrap();
    assert_eq!(
        traced.get("found").and_then(Json::as_bool),
        Some(true),
        "replayed job's spans must carry the original trace id: {traced}"
    );
    let tree = traced.get("tree").unwrap();
    assert_eq!(tree.get("span").and_then(Json::as_str), Some("serve.job"));

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Split an HTTP/1.1 response into (status line, body).
fn scrape(addr: std::net::SocketAddr) -> (String, String) {
    let mut sock = TcpStream::connect(addr).expect("metrics endpoint accepts");
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    sock.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a body");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Every non-comment exposition line must be `name[{labels}] value`
/// with a parseable finite value and balanced label braces.
fn assert_parseable_exposition(body: &str) {
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in line {line:?}"));
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in line {line:?}"));
        assert!(v.is_finite(), "non-finite value in line {line:?}");
        let name = match name_part.split_once('{') {
            Some((n, labels)) => {
                assert!(labels.ends_with('}'), "unbalanced labels in line {line:?}");
                n
            }
            None => name_part,
        };
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition has no samples:\n{body}");
}

/// The value of the first sample line matching every needle, if any.
fn sample_value(body: &str, needles: &[&str]) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| needles.iter().all(|n| l.contains(n)))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// Acceptance: under pipelined batch load the metrics endpoint serves
/// parseable Prometheus text exposition with populated latency
/// histograms — non-zero p50/p95/p99 for the end-to-end stage — and a
/// cache hit rate; the `telemetry` op agrees.
#[test]
fn batch_load_populates_metrics_exposition_and_telemetry() {
    let dir = tmpdir("batchload");
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_dir: Some(dir.clone()),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let metrics_addr = handle.metrics_addr().expect("metrics endpoint is up");
    let addr = handle.local_addr().to_string();

    // Duplicates inside the batch exercise the key-twin path; the second
    // pass turns the whole batch into cache traffic.
    let distinct = [
        "pkt.m0 = pkt.a;",
        "pkt.m1 = pkt.a + pkt.b;",
        "pkt.m2 = pkt.a + 1;",
    ];
    let programs: Vec<String> = distinct
        .iter()
        .chain(distinct.iter())
        .map(|s| s.to_string())
        .collect();
    let mut client = RetryingClient::new(&addr, RetryPolicy::default());
    for pass in 0..2 {
        let answers = client.pipeline(&programs, &fast_options()).unwrap();
        for (i, resp) in answers.iter().enumerate() {
            assert!(ok(resp), "pass {pass} program {i} failed: {resp}");
        }
    }

    let (status, body) = scrape(metrics_addr);
    assert!(status.contains("200"), "scrape failed: {status}");
    assert_parseable_exposition(&body);

    // End-to-end histograms are populated with non-zero percentiles.
    for quantile in ["0.5", "0.95", "0.99"] {
        let v = sample_value(
            &body,
            &[
                "chipmunk_serve_latency_us{",
                "stage=\"e2e\"",
                &format!("quantile=\"{quantile}\""),
            ],
        )
        .unwrap_or_else(|| panic!("no e2e quantile {quantile} sample in:\n{body}"));
        assert!(v > 0.0, "e2e p{quantile} must be non-zero, got {v}");
    }
    let e2e_count = sample_value(&body, &["chipmunk_serve_latency_us_count", "stage=\"e2e\""])
        .expect("e2e count sample");
    assert!(e2e_count >= 1.0);
    let hit_rate =
        sample_value(&body, &["chipmunk_serve_cache_hit_rate "]).expect("hit-rate gauge");
    assert!(
        hit_rate > 0.0 && hit_rate <= 1.0,
        "second pass must score cache hits, got rate {hit_rate}"
    );
    assert!(
        sample_value(&body, &["chipmunk_serve_solver_conflicts_total"]).is_some(),
        "solver gauges must be exported:\n{body}"
    );

    // The `telemetry` op (behind `chipmunkc top`) reports the same plane.
    let mut control = Client::connect(handle.local_addr()).expect("control connects");
    let t = control.telemetry().unwrap();
    assert!(ok(&t), "telemetry op failed: {t}");
    let e2e = t
        .get("stages")
        .and_then(|s| s.get("e2e"))
        .expect("e2e stage summary");
    assert!(
        e2e.get("count").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "telemetry e2e count empty: {t}"
    );
    assert!(
        e2e.get("p50_us").and_then(Json::as_u64).unwrap_or(0) > 0,
        "telemetry e2e p50 must be non-zero: {t}"
    );
    assert!(
        t.get("outcomes")
            .and_then(|o| o.get("fresh"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "fresh outcome count empty: {t}"
    );
    assert!(
        t.get("cache_hit_rate")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "telemetry hit rate empty: {t}"
    );
    assert_eq!(
        t.get("metrics_addr").and_then(Json::as_str),
        Some(metrics_addr.to_string().as_str())
    );
    assert!(
        t.get("trace_buffered").and_then(Json::as_u64).unwrap_or(0) > 0,
        "trace ring must hold span records after load: {t}"
    );

    // One vocabulary: every integer or boolean `stats` figure has an
    // exposition sample of the same value (a flag as 0/1), named
    // `chipmunk_serve_<key>_total` or `chipmunk_serve_<key>`.
    // `connections` counts the asking connection. The trace tee is
    // process-wide, so the trace-ring figures move with other tests'
    // spans: each sample must lie between the stats read just before and
    // just after the scrape, which for a figure at rest is equality.
    let before = control.stats().unwrap();
    let (_, body) = scrape(metrics_addr);
    let after = control.stats().unwrap();
    let number = |v: &Json| match v {
        Json::Bool(flag) => Some(f64::from(u8::from(*flag))),
        Json::U64(n) => Some(*n as f64),
        _ => None,
    };
    let Json::Obj(figures) = &before else {
        panic!("stats is an object: {before}")
    };
    for (key, value) in figures {
        let Some(first) = number(value) else { continue };
        if key == "ok" || key == "connections" {
            continue;
        }
        let sample = [
            format!("chipmunk_serve_{key}_total "),
            format!("chipmunk_serve_{key} "),
        ]
        .iter()
        .find_map(|name| body.lines().find_map(|l| l.strip_prefix(name.as_str())))
        .unwrap_or_else(|| panic!("stats figure {key:?} has no exposition sample:\n{body}"));
        let sample: f64 = sample.parse().unwrap();
        let last = after.get(key).and_then(number).unwrap();
        assert!(
            first.min(last) <= sample && sample <= first.max(last),
            "{key}: exposition {sample}, stats {first} then {last}"
        );
    }

    let ack = control.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exposition endpoint answers 404 for any other path and keeps the
/// daemon's stats op in agreement (`metrics_degraded: false`).
#[test]
fn metrics_endpoint_404s_unknown_paths_and_stats_agree() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_capacity: 8,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let metrics_addr = handle.metrics_addr().expect("metrics endpoint is up");

    let mut sock = TcpStream::connect(metrics_addr).unwrap();
    sock.write_all(b"GET /other HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    sock.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 404"), "expected 404, got: {raw}");

    let mut client = Client::connect(handle.local_addr()).expect("client connects");
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("metrics_degraded").and_then(Json::as_bool),
        Some(false),
        "healthy endpoint must not report degraded: {stats}"
    );

    let ack = client.shutdown(false).unwrap();
    assert!(ok(&ack));
    handle.join();
}
