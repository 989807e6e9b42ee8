//! `serve-mutants`: an in-process daemon on loopback (one worker, disk
//! cache tier and job journal in a scratch directory of the checkout)
//! driven by an open-loop generator at a fixed offered rate.
//!
//! Most requests are seeded mutants of corpus programs whose cache entries
//! were warmed during set-up, so they are reads; a fixed share are corpus
//! programs with their constants redrawn inside the immediate range, which
//! the daemon has not seen, so they compile, are journaled and inserted.
//! One thread sends every request on its due time over one pipelined
//! connection; a second thread reads the responses. Each request is timed
//! from when it was due.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chipmunk::{cache_key, certify_config, CertifyRequest, CompilerOptions};
use chipmunk_bench::corpus::corpus;
use chipmunk_lang::{parse, Program};
use chipmunk_pisa::{GridSpec, StatelessAluSpec};
use chipmunk_serve::client::Client;
use chipmunk_serve::protocol::{decode_result, JobOptions};
use chipmunk_serve::server::{start, ServerConfig, ServerHandle};
use chipmunk_trace::json::Json;
use chipmunk_trace::rng::Xoshiro256;

use crate::compile::{IMM, MAX_STAGES, SCREEN, WIDTH};
use crate::stats::{geomean, mean, open_loop, percentile, repeat_setup, restart_peak_rss};
use crate::tap::Tap;
use crate::Outcome;

/// The corpus programs the requests are drawn from: the ones whose warm
/// compile is fast enough to repeat in every set-up.
const PROGRAMS: [&str; 4] = ["rcp", "stateful-firewall", "sampling", "detect-new-flows"];
/// The programs writes are drawn from: rcp's compile takes up to ten
/// times longer than the others', and a few such writes would decide the
/// mean latency of a run.
const WRITE_PROGRAMS: [&str; 3] = ["stateful-firewall", "sampling", "detect-new-flows"];
/// Offered load, requests per second.
const RATE: f64 = 40.0;
/// Mutants drawn per program; those sharing the warm cache key are kept.
const MUTANTS: usize = 24;
/// Latency limits for goodput: the hit limit is the limit on `hit_p99`.
const HIT_LIMIT: Duration = Duration::from_millis(50);
const MISS_LIMIT: Duration = Duration::from_secs(5);
/// CEGIS seed carried in every request's options.
const REQUEST_SEED: u64 = 1;

/// One corpus program as served: its wire options, the options the daemon
/// derives from them, and the stage count of a fresh in-process compile.
struct Base {
    prog: Program,
    options: Json,
    compiler: CompilerOptions,
    key: String,
    stages: usize,
    /// Source texts of mutants that share `key`.
    mutants: Vec<String>,
}

fn base(name: &str, seed: u64) -> Result<Base, String> {
    let b = corpus()
        .into_iter()
        .find(|b| b.name == name)
        .ok_or(format!("{name} is not in the corpus"))?;
    let prog = b.program();
    let options = Json::obj([
        ("template", Json::from(b.template.spec(IMM).name)),
        ("imm", Json::from(IMM)),
        ("width", Json::from(WIDTH)),
        ("screen_width", Json::from(SCREEN)),
        ("max_stages", Json::from(MAX_STAGES)),
        ("seed", Json::from(REQUEST_SEED)),
    ]);
    let compiler = JobOptions::from_json(&options)?.to_compiler_options()?;
    let key = cache_key(&prog, &compiler);
    let fresh = chipmunk::compile(&prog, &compiler).map_err(|e| format!("{name}: {e}"))?;
    let mutants = chipmunk_mutate::mutations(&prog, seed, MUTANTS)
        .into_iter()
        .filter(|m| cache_key(m, &compiler) == key)
        .map(|m| m.to_string())
        .collect::<Vec<_>>();
    if mutants.is_empty() {
        return Err(format!("{name}: no mutant shares the warm cache key"));
    }
    Ok(Base {
        prog,
        options,
        compiler,
        key,
        stages: fresh.grid.stages,
        mutants,
    })
}

/// `text` with the constant of every comparison replaced by `c`. The
/// programs served compare against one threshold each (the firewall
/// tests the same one twice), so the program keeps its shape and its
/// stage count while its semantics change.
fn redraw_threshold(text: &str, c: u64) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find(|ch: char| ch.is_ascii_digit()) {
        let (head, tail) = rest.split_at(pos);
        let digits = tail.len()
            - tail
                .trim_start_matches(|ch: char| ch.is_ascii_digit())
                .len();
        let before = head.trim_end();
        let is_word = head.ends_with(|ch: char| ch.is_ascii_alphanumeric() || ch == '_');
        let compared = ["==", "!=", "<=", ">=", "<", ">"]
            .iter()
            .any(|op| before.ends_with(op));
        out.push_str(head);
        if compared && !is_word {
            out.push_str(&c.to_string());
        } else {
            out.push_str(&tail[..digits]);
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// One scheduled request.
struct Request {
    base: usize,
    text: String,
    miss: bool,
}

/// Every write of a run: each write program with every other threshold of
/// the immediate range, under the reads' options. All of them are sent in
/// every run (in an order drawn from the seed), so each run does the same
/// write work.
fn writes(bases: &[Base]) -> Vec<Request> {
    let mut out = Vec::new();
    for (b, base) in bases.iter().enumerate() {
        if !WRITE_PROGRAMS.contains(&PROGRAMS[b]) {
            continue;
        }
        for c in 0..1u64 << IMM {
            let text = redraw_threshold(&base.prog.to_string(), c);
            let prog = parse(&text).expect("a redrawn corpus program parses");
            if cache_key(&prog, &base.compiler) != base.key {
                out.push(Request {
                    base: b,
                    text,
                    miss: true,
                });
            }
        }
    }
    out
}

/// The request stream: `n` requests, the writes spread evenly through it
/// in a seeded order, every other request a seeded mutant.
fn schedule(bases: &[Base], seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5e7e);
    let mut misses = writes(bases);
    for i in (1..misses.len()).rev() {
        misses.swap(i, rng.gen_usize(i + 1));
    }
    misses.truncate(n / 4);
    let m = misses.len();
    let mut misses = misses.into_iter();
    let mut next_miss = 0;
    (0..n)
        .map(|i| {
            if next_miss < m && i == (2 * next_miss + 1) * n / (2 * m) {
                next_miss += 1;
                return misses.next().expect("one write per slot");
            }
            let b = rng.gen_usize(bases.len());
            let pool = &bases[b].mutants;
            Request {
                base: b,
                text: pool[rng.gen_usize(pool.len())].clone(),
                miss: false,
            }
        })
        .collect()
}

/// A daemon with its scratch directory; dropping it shuts the daemon
/// down, waits for it, and removes the directory, on every exit path.
struct Daemon {
    handle: Option<ServerHandle>,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: usize) -> Result<Daemon, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_dir: Some(dir.join("cache")),
            journal_dir: Some(dir.join("journal")),
            metrics_addr: Some(String::new()),
            ..ServerConfig::default()
        };
        let handle = start(&config).map_err(|e| format!("daemon start: {e}"))?;
        Ok(Daemon {
            handle: Some(handle),
            dir,
        })
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.handle
            .as_ref()
            .expect("running until dropped")
            .local_addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown(true);
            h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Start a daemon, warm its cache with every base program, and draw the
/// mutant pools.
fn set_up(tag: usize, seed: u64) -> Result<(Daemon, Vec<Base>), String> {
    let daemon = Daemon::start(tag)?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    let mut bases = Vec::new();
    for (i, name) in PROGRAMS.iter().enumerate() {
        let b = base(name, seed.wrapping_add(i as u64))?;
        let resp = client
            .compile(&b.prog.to_string(), b.options.clone())
            .map_err(|e| e.to_string())?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("warm compile of {name}: {}", resp.to_compact()));
        }
        bases.push(b);
    }
    Ok((daemon, bases))
}

/// A response as the reader saw it.
struct Answer {
    latency: Duration,
    late: Duration,
    doc: Json,
}

/// Offer `reqs` at `RATE` over one pipelined connection.
fn drive(daemon: &Daemon, bases: &[Base], reqs: &[Request]) -> Result<Vec<Answer>, String> {
    let stream = TcpStream::connect(daemon.addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let quickack = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new((0..reqs.len()).map(|_| None).collect());
    let sent: Mutex<Vec<Duration>> = Mutex::new(vec![Duration::ZERO; reqs.len()]);
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let rx = s.spawn(|| -> Result<(), String> {
            let mut line = String::new();
            for _ in 0..reqs.len() {
                line.clear();
                if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                    return Err("the daemon closed the connection".into());
                }
                let done = start.elapsed();
                // Acknowledge at once: a delayed ACK would hold the daemon's
                // next response behind Nagle's algorithm until our next
                // request, adding one send interval to every read.
                let _ = std::os::linux::net::TcpStreamExt::set_quickack(&quickack, true);
                let doc = Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
                let id = doc
                    .get("id")
                    .and_then(Json::as_u64)
                    .and_then(|i| usize::try_from(i).ok())
                    .filter(|&i| i < reqs.len())
                    .ok_or("response without a request id")?;
                let due = interval * id as u32;
                let t = open_loop(due, sent.lock().expect("sent lock")[id], done);
                answers.lock().expect("answers lock")[id] = Some(Answer {
                    latency: t.latency,
                    late: t.late,
                    doc,
                });
            }
            Ok(())
        });
        let mut result = Ok(());
        for (i, r) in reqs.iter().enumerate() {
            let due = interval * i as u32;
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            sent.lock().expect("sent lock")[i] = start.elapsed();
            let mut line = Json::obj([
                ("op", Json::from("compile")),
                ("id", Json::from(i)),
                ("program", Json::from(r.text.as_str())),
                ("options", bases[r.base].options.clone()),
            ])
            .to_compact();
            line.push('\n');
            if let Err(e) = writer.write_all(line.as_bytes()) {
                result = Err(e.to_string());
                break;
            }
        }
        if result.is_err() {
            // Unblock the reader.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let read = rx
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        result.and(read)
    })?;
    answers
        .into_inner()
        .expect("answers lock")
        .into_iter()
        .map(|a| a.ok_or_else(|| "a request was never answered".to_string()))
        .collect()
}

/// Check one answer; `Err` says why it is wrong.
fn check(bases: &[Base], req: &Request, doc: &Json, certify: &mut Duration) -> Result<(), String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused: {}", doc.to_compact()));
    }
    let cached = doc.get("cached").and_then(Json::as_bool) == Some(true);
    if cached == req.miss {
        return Err(format!(
            "expected a cache {}, got the other",
            if req.miss { "miss" } else { "hit" }
        ));
    }
    let wire = decode_result(doc.get("result").ok_or("no result document")?)?;
    let prog = parse(&req.text).map_err(|e| format!("request does not parse: {e}"))?;
    let b = &bases[req.base];
    let grid = GridSpec {
        stages: wire.stages,
        slots: wire.slots,
        stateless: StatelessAluSpec::banzai(IMM),
        stateful: b.compiler.stateful.clone(),
    };
    let t0 = Instant::now();
    certify_config(
        &prog,
        &CertifyRequest {
            grid: &grid,
            pipeline: &wire.pipeline,
            field_to_container: &wire.field_to_container,
            counterexamples: &wire.counterexamples,
            width: WIDTH,
            domain_width: None,
            samples: chipmunk::certify::DEFAULT_SAMPLES,
            seed: REQUEST_SEED ^ 0xc11e,
        },
    )
    .map_err(|e| format!("served document fails certification: {e}"))?;
    *certify += t0.elapsed();
    let fresh = if req.miss {
        chipmunk::compile(&prog, &b.compiler)
            .map_err(|e| format!("fresh compile: {e}"))?
            .grid
            .stages
    } else {
        b.stages
    };
    if wire.stages != fresh {
        return Err(format!(
            "served {} stages, a fresh compile needs {fresh}",
            wire.stages
        ));
    }
    Ok(())
}

/// Latencies and checks of one phase of the load.
struct Phase {
    hits: Vec<f64>,
    misses: Vec<f64>,
    late: Vec<f64>,
    all: Vec<f64>,
    ok: usize,
    good: usize,
    certify: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure(
    out: &mut Outcome,
    daemon: &Daemon,
    bases: &[Base],
    reqs: &[Request],
) -> Result<Phase, String> {
    let answers = drive(daemon, bases, reqs)?;
    let mut p = Phase {
        hits: Vec::new(),
        misses: Vec::new(),
        late: Vec::new(),
        all: Vec::new(),
        ok: 0,
        good: 0,
        certify: Duration::ZERO,
    };
    for (req, a) in reqs.iter().zip(&answers) {
        let lat = ms(a.latency);
        p.all.push(lat);
        p.late.push(ms(a.late));
        match check(bases, req, &a.doc, &mut p.certify) {
            Ok(()) => {
                p.ok += 1;
                let limit = if req.miss { MISS_LIMIT } else { HIT_LIMIT };
                p.good += (a.latency <= limit) as usize;
                if req.miss {
                    p.misses.push(lat);
                } else {
                    p.hits.push(lat);
                }
            }
            Err(e) => out.fail(format!("request {}: {e}", req.text.replace('\n', " "))),
        }
    }
    out.attempted += reqs.len() as u64;
    Ok(p)
}

/// Mean milliseconds per sample of one telemetry stage between two
/// snapshots.
fn stage_ms(before: &Json, after: &Json, stage: &str) -> f64 {
    let get = |doc: &Json, k: &str| {
        doc.get("stages")
            .and_then(|s| s.get(stage))
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let n = get(after, "count") - get(before, "count");
    if n > 0.0 {
        (get(after, "sum_us") - get(before, "sum_us")) / n / 1e3
    } else {
        0.0
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((daemon, bases), setup_s) = repeat_setup(|tag| set_up(tag, seed))?;
    out.e2e("setup_s", setup_s);
    // Memory is the peak while serving: what the dropped set-ups left in
    // the allocator varies from run to run.
    restart_peak_rss();
    load(&mut out, &daemon, &bases, seed, seconds, traced)?;
    Ok(out)
}

fn load(
    out: &mut Outcome,
    daemon: &Daemon,
    bases: &[Base],
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(), String> {
    let n = (RATE * seconds as f64).round().max(2.0) as usize;
    let reqs = schedule(bases, seed, n);
    let (first, second) = if traced {
        reqs.split_at(n / 2)
    } else {
        (&reqs[..], &reqs[..0])
    };
    let a = measure(out, daemon, bases, first)?;
    summarize(out, &a);
    if traced {
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        let before = client.telemetry().map_err(|e| e.to_string())?;
        let tap = Tap::install();
        let b = measure(out, daemon, bases, second)?;
        let sat = tap.totals();
        drop(tap);
        let after = client.telemetry().map_err(|e| e.to_string())?;
        layers(out, bases, second, &b, sat, &before, &after);
        let hit = |p: &Phase| geomean(&p.hits).unwrap_or(0.0);
        out.layer("trace.overhead", hit(&b) / hit(&a) - 1.0);
    }
    Ok(())
}

fn summarize(out: &mut Outcome, p: &Phase) {
    let n = p.all.len() as f64;
    out.e2e("ok_share", p.ok as f64 / n);
    out.e2e("goodput", p.good as f64 / n);
    out.e2e("geomean_ms", geomean(&p.all).unwrap_or(0.0));
    out.e2e("mean_ms", mean(&p.all));
    let pct = |xs: &[f64], q: f64| percentile(xs, q).map_or((0.0, 0), |p| (p.value, p.samples));
    for (name, xs, q) in [
        ("hit_p50_ms", &p.hits, 50.0),
        ("hit_p99_ms", &p.hits, 99.0),
        ("miss_p50_ms", &p.misses, 50.0),
        ("gen_late_p99_ms", &p.late, 99.0),
    ] {
        let (v, samples) = pct(xs, q);
        out.detail(name, v, "ms");
        out.note(format!("{name} over {samples} samples"));
    }
    out.detail("goodput", p.good as f64 / n, "1");
    out.detail("error_rate", 1.0 - p.ok as f64 / n, "1");
}

fn layers(
    out: &mut Outcome,
    bases: &[Base],
    reqs: &[Request],
    p: &Phase,
    sat: crate::tap::SatTotals,
    before: &Json,
    after: &Json,
) {
    let n = reqs.len() as f64;
    // The front end's share of a hit, timed over the same request stream.
    let (mut parse_t, mut canon_t, mut key_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for r in reqs {
        let t0 = Instant::now();
        let Ok(prog) = parse(&r.text) else { continue };
        let t1 = Instant::now();
        std::hint::black_box(chipmunk::canonical_text(&prog, WIDTH));
        let t2 = Instant::now();
        std::hint::black_box(cache_key(&prog, &bases[r.base].compiler));
        let t3 = Instant::now();
        parse_t += t1 - t0;
        canon_t += t2 - t1;
        key_t += t3 - t2;
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
    out.layer("lang.parse_us", us(parse_t));
    out.layer("lang.canonicalize_us", us(canon_t));
    out.layer("cache.key_us", us(key_t));
    out.layer("certify.ms", ms(p.certify) / p.ok.max(1) as f64);
    out.layer("serve.queue_wait_ms", stage_ms(before, after, "queue_wait"));
    out.layer("serve.compile_ms", stage_ms(before, after, "compile"));
    out.layer("serve.certify_ms", stage_ms(before, after, "certify"));
    out.layer("serve.remap_ms", stage_ms(before, after, "remap"));
    out.layer(
        "serve.hit_rate",
        after
            .get("cache_hit_rate")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    let pct = |xs: &[f64], q: f64| percentile(xs, q).map_or(0.0, |p| p.value);
    out.layer("serve.hit_p50_ms", pct(&p.hits, 50.0));
    out.layer("serve.hit_p99_ms", pct(&p.hits, 99.0));
    out.layer("serve.miss_p50_ms", pct(&p.misses, 50.0));
    out.layer("serve.hit_samples", p.hits.len() as f64);
    out.layer("serve.miss_samples", p.misses.len() as f64);
    out.layer("gen.late_p99_ms", pct(&p.late, 99.0));
    let solve_s = sat.solve_us as f64 / 1e6;
    out.layer("sat.conflicts", sat.conflicts as f64 / n);
    out.layer("sat.propagations", sat.propagations as f64 / n);
    out.layer("sat.decisions", sat.decisions as f64 / n);
    if solve_s > 0.0 {
        out.layer("sat.props_per_s", sat.propagations as f64 / solve_s);
        out.layer("sat.conflicts_per_s", sat.conflicts as f64 / solve_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redraw_replaces_only_compared_constants() {
        let text = "state count;\nif (count == 9) {\n  count = 0;\n  pkt.s1 = 1;\n}\npkt.b = pkt.a < 12 ? 1 : 0;\n";
        let out = redraw_threshold(text, 3);
        assert_eq!(
            out,
            "state count;\nif (count == 3) {\n  count = 0;\n  pkt.s1 = 1;\n}\npkt.b = pkt.a < 3 ? 1 : 0;\n"
        );
        // Every corpus program served still parses after a redraw.
        for name in PROGRAMS {
            let b = corpus().into_iter().find(|b| b.name == name).unwrap();
            let text = redraw_threshold(&b.program().to_string(), 15);
            assert!(parse(&text).is_ok(), "{name}: {text}");
        }
    }
}
