//! Deterministic fault injection for the serve stack.
//!
//! Production code never fails on demand, which makes fault-handling
//! paths the least-tested code in the tree. This module lets tests (and
//! brave operators) inject faults at precise, reproducible points:
//!
//! * **compile panics** — a worker's compile call panics mid-job,
//! * **worker deaths** — a worker thread dies *outside* its panic
//!   isolation, exercising the supervisor/respawn path,
//! * **disk I/O errors** — an append, rewrite or reopen of the result
//!   cache's or the job journal's file fails as if the disk were full,
//!   exercising degraded mode ([`crate::durable`]),
//! * **solver stalls** — an artificial delay before a compile, for
//!   building up queue depth under test,
//! * **connection resets** — a connection's socket is torn down just
//!   before a response write, exercising client retry,
//! * **cache corruption** — a cached result document is bit-flipped just
//!   before it would be served, exercising result certification and
//!   cache quarantine,
//! * **metrics I/O errors** — the metrics endpoint fails to bind,
//!   proving a broken metrics socket degrades to stats-only without
//!   touching compile traffic,
//! * **proof I/O errors** — the materialization of an infeasibility
//!   proof fails as it is attached to a result document, proving a lost
//!   proof degrades to an explicitly-unchecked verdict instead of a
//!   crash or a silently-trusted one,
//! * **clock stalls** — a compile freezes *ignoring* its cooperative
//!   cancel flag, simulating a solver stuck inside one monster
//!   propagation; proves the watchdog escalates past cancellation to
//!   worker respawn and still answers the client with a typed error.
//!
//! # Plan syntax
//!
//! A plan is a `;`-separated list of clauses:
//!
//! ```text
//! seed=42;panic@0,3;disk_io@1;reset%0.05;stall@2;stall_ms=20
//! ```
//!
//! * `<kind>@i,j,...` — fire at those 0-based *occurrence indices* of the
//!   kind's injection site (the 0th, 3rd, ... time the site is reached).
//! * `<kind>%p` — additionally fire each occurrence with probability `p`,
//!   drawn from a [`Xoshiro256`] stream seeded by `seed` (default 0).
//! * `stall_ms=N` — duration of an injected stall (default 50 ms).
//! * Kinds: `panic`, `worker_death`, `disk_io`, `stall`, `reset`,
//!   `corrupt`, `metrics_io`, `proof_io`, `clock_stall`.
//!
//! A plan belongs to one daemon. `ServerConfig::faults` holds its spec;
//! `server::start` parses it into one [`FaultPlan`], refuses an invalid
//! one, and prints it with its seed so any failure is reproducible. Every
//! injection site of that daemon (its result cache's and journal's durable
//! logs, its metrics endpoint, its connection writers and its workers)
//! shares the plan's occurrence counters and seeded stream, and no other
//! daemon in the process sees them, so tests that arm plans run in
//! parallel. `chipmunkc serve` reads the spec from `CHIPMUNK_FAULTS`. With
//! no plan, each site costs one branch on an empty handle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use chipmunk_trace::rng::Xoshiro256;

/// The kinds of fault that can be injected. Each kind has one injection
/// site in the serve stack and its own occurrence counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic inside a worker's (isolated) compile call.
    CompilePanic,
    /// Kill a worker thread outside its panic isolation.
    WorkerDeath,
    /// Fail a disk append, rewrite or reopen of a durable log (the result
    /// cache's or the job journal's file).
    DiskIo,
    /// Sleep for `stall_ms` before starting a compile.
    SolverStall,
    /// Tear down a connection's socket before a response write.
    ConnReset,
    /// Bit-flip a cached result document before it is served.
    CacheCorrupt,
    /// Fail the metrics endpoint's bind, degrading the daemon to
    /// stats-only.
    MetricsIo,
    /// Fail the materialization of an infeasibility proof as it is
    /// attached to a result document, exercising the degrade to an
    /// explicitly-unchecked verdict.
    ProofIo,
    /// Freeze a compile for `stall_ms` *ignoring* the cooperative cancel
    /// flag — a solver stuck inside one monster propagation. Unlike
    /// [`FaultKind::SolverStall`] (which delays before the compile and
    /// yields to cancellation), this exercises the watchdog's escalation
    /// path: cancel doesn't bite, so the worker must be abandoned and
    /// respawned.
    ClockStall,
}

const NUM_KINDS: usize = 9;

impl FaultKind {
    fn from_name(s: &str) -> Option<FaultKind> {
        Some(match s {
            "panic" => FaultKind::CompilePanic,
            "worker_death" => FaultKind::WorkerDeath,
            "disk_io" => FaultKind::DiskIo,
            "stall" => FaultKind::SolverStall,
            "reset" => FaultKind::ConnReset,
            "corrupt" => FaultKind::CacheCorrupt,
            "metrics_io" => FaultKind::MetricsIo,
            "proof_io" => FaultKind::ProofIo,
            "clock_stall" => FaultKind::ClockStall,
            _ => return None,
        })
    }
}

/// A parsed plan and its run-time state.
struct Schedule {
    seed: u64,
    /// Sorted explicit occurrence indices, per kind.
    explicit: [Vec<u64>; NUM_KINDS],
    /// Per-occurrence firing probability, per kind (0.0 = never).
    prob: [f64; NUM_KINDS],
    stall: Duration,
    /// Times each kind's injection site has been reached.
    counters: [AtomicU64; NUM_KINDS],
    rng: Mutex<Xoshiro256>,
}

/// One daemon's fault plan (see the module docs). The default plan is
/// empty and fires nothing. Clones share one schedule: the daemon hands a
/// clone to each of its injection sites.
#[derive(Clone, Default)]
pub struct FaultPlan(Option<Arc<Schedule>>);

impl FaultPlan {
    /// Parse a plan spec (see the module docs for the syntax). An error
    /// names the clause it could not read.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut explicit: [Vec<u64>; NUM_KINDS] = Default::default();
        let mut prob = [0.0f64; NUM_KINDS];
        let mut stall = Duration::from_millis(50);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                seed = v
                    .parse()
                    .map_err(|_| format!("bad seed in clause `{clause}`"))?;
            } else if let Some(v) = clause.strip_prefix("stall_ms=") {
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad stall_ms in clause `{clause}`"))?;
                stall = Duration::from_millis(ms);
            } else if let Some((name, idxs)) = clause.split_once('@') {
                let kind = FaultKind::from_name(name)
                    .ok_or_else(|| format!("unknown fault kind `{name}` in clause `{clause}`"))?;
                for part in idxs.split(',') {
                    let i: u64 = part.trim().parse().map_err(|_| {
                        format!("bad occurrence index `{part}` in clause `{clause}`")
                    })?;
                    explicit[kind as usize].push(i);
                }
            } else if let Some((name, p)) = clause.split_once('%') {
                let kind = FaultKind::from_name(name)
                    .ok_or_else(|| format!("unknown fault kind `{name}` in clause `{clause}`"))?;
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("bad probability in clause `{clause}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of [0,1] in clause `{clause}`"));
                }
                prob[kind as usize] = p;
            } else {
                return Err(format!("unrecognized clause `{clause}`"));
            }
        }
        for idxs in &mut explicit {
            idxs.sort_unstable();
            idxs.dedup();
        }
        Ok(FaultPlan(Some(Arc::new(Schedule {
            seed,
            explicit,
            prob,
            stall,
            counters: Default::default(),
            rng: Mutex::new(Xoshiro256::seed_from_u64(seed)),
        }))))
    }

    /// Record one occurrence of `kind`'s injection site and report whether
    /// the plan says this occurrence should fault. Always false for the
    /// empty plan.
    pub fn fired(&self, kind: FaultKind) -> bool {
        let Some(s) = &self.0 else {
            return false;
        };
        let k = kind as usize;
        let occurrence = s.counters[k].fetch_add(1, Ordering::Relaxed);
        if s.explicit[k].binary_search(&occurrence).is_ok() {
            return true;
        }
        let p = s.prob[k];
        p > 0.0
            && s.rng
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .gen_bool(p)
    }

    /// Duration of an injected stall (`stall_ms`, default 50 ms; zero for
    /// the empty plan, which never stalls).
    pub fn stall(&self) -> Duration {
        self.0.as_ref().map_or(Duration::ZERO, |s| s.stall)
    }

    /// The seed of the plan's probability stream (0 when none was given).
    pub fn seed(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.seed)
    }
}

/// Deterministically bit-flip one value of a cached result document — the
/// payload of a fired [`FaultKind::CacheCorrupt`]. Prefers a
/// `field_to_container` entry (XOR 1 mis-wires a field into a different
/// PHV container, the nastiest silent corruption) and falls back to the
/// first integer found anywhere; a document with no integers comes back
/// unchanged. Never panics: it runs on the serving path.
pub fn corrupt_doc(doc: &chipmunk_trace::json::Json) -> chipmunk_trace::json::Json {
    use chipmunk_trace::json::Json;
    fn flip_first_int(doc: &Json) -> (Json, bool) {
        match doc {
            Json::U64(v) => (Json::U64(v ^ 1), true),
            Json::I64(v) => (Json::I64(v ^ 1), true),
            Json::Arr(items) => {
                let mut out = Vec::with_capacity(items.len());
                let mut flipped = false;
                for it in items {
                    if flipped {
                        out.push(it.clone());
                    } else {
                        let (v, f) = flip_first_int(it);
                        out.push(v);
                        flipped = f;
                    }
                }
                (Json::Arr(out), flipped)
            }
            Json::Obj(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                let mut flipped = false;
                for (k, v) in pairs {
                    if flipped {
                        out.push((k.clone(), v.clone()));
                    } else {
                        let (v, f) = flip_first_int(v);
                        out.push((k.clone(), v));
                        flipped = f;
                    }
                }
                (Json::Obj(out), flipped)
            }
            other => (other.clone(), false),
        }
    }
    if let (Some(f2c), Json::Obj(pairs)) = (doc.get("field_to_container"), doc) {
        let (flipped, did) = flip_first_int(f2c);
        if did {
            return Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| {
                        if k == "field_to_container" {
                            (k.clone(), flipped.clone())
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            );
        }
    }
    flip_first_int(doc).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_empty_plan_fires_nothing() {
        let plan = FaultPlan::default();
        assert!(!plan.fired(FaultKind::CompilePanic));
        assert!(!plan.fired(FaultKind::DiskIo));
    }

    #[test]
    fn explicit_indices_fire_exactly_once_each() {
        let plan = FaultPlan::parse("panic@0,2").unwrap();
        assert!(plan.fired(FaultKind::CompilePanic)); // occurrence 0
        assert!(!plan.fired(FaultKind::CompilePanic)); // 1
        assert!(plan.fired(FaultKind::CompilePanic)); // 2
        assert!(!plan.fired(FaultKind::CompilePanic)); // 3

        // Other kinds are untouched by the panic clause.
        assert!(!plan.fired(FaultKind::ConnReset));
    }

    #[test]
    fn probability_schedule_is_reproducible_from_seed() {
        let run = || {
            let plan = FaultPlan::parse("seed=99;disk_io%0.5").unwrap();
            (0..32)
                .map(|_| plan.fired(FaultKind::DiskIo))
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.5 over 32 draws should fire");
        assert!(a.iter().any(|&x| !x));
    }

    #[test]
    fn stall_duration_comes_from_plan() {
        let plan = FaultPlan::parse("stall@0;stall_ms=7").unwrap();
        assert_eq!(plan.stall(), Duration::from_millis(7));
    }

    #[test]
    fn corrupt_kind_parses_and_fires() {
        let plan = FaultPlan::parse("corrupt@0").unwrap();
        assert!(plan.fired(FaultKind::CacheCorrupt));
        assert!(!plan.fired(FaultKind::CacheCorrupt));
    }

    #[test]
    fn metrics_io_kind_parses_and_fires() {
        let plan = FaultPlan::parse("metrics_io@0").unwrap();
        assert!(plan.fired(FaultKind::MetricsIo));
        assert!(!plan.fired(FaultKind::MetricsIo));
        // Independent of the compile-path kinds.
        assert!(!plan.fired(FaultKind::CompilePanic));
    }

    #[test]
    fn proof_io_kind_parses_and_fires() {
        let plan = FaultPlan::parse("proof_io@0").unwrap();
        assert!(plan.fired(FaultKind::ProofIo));
        assert!(!plan.fired(FaultKind::ProofIo));
        // Independent of the compile-path kinds.
        assert!(!plan.fired(FaultKind::CompilePanic));
    }

    #[test]
    fn clock_stall_kind_parses_and_fires() {
        let plan = FaultPlan::parse("clock_stall@0;stall_ms=5").unwrap();
        assert!(plan.fired(FaultKind::ClockStall));
        assert!(!plan.fired(FaultKind::ClockStall));
        assert_eq!(plan.stall(), Duration::from_millis(5));
        // Independent of the cancellable pre-compile stall.
        assert!(!plan.fired(FaultKind::SolverStall));
    }

    /// Clones share one schedule (the daemon's sites), and separately
    /// parsed plans share nothing (two daemons).
    #[test]
    fn clones_share_occurrences_and_parsed_plans_do_not() {
        let a = FaultPlan::parse("panic@1").unwrap();
        let b = FaultPlan::parse("panic@1").unwrap();
        assert!(!a.clone().fired(FaultKind::CompilePanic)); // a's occurrence 0
        assert!(a.fired(FaultKind::CompilePanic)); // a's occurrence 1
        assert!(!b.fired(FaultKind::CompilePanic)); // b's occurrence 0
    }

    #[test]
    fn corrupt_doc_flips_a_field_container_bit() {
        use chipmunk_trace::json::Json;
        let doc = Json::obj([
            ("grid", Json::obj([("stages", Json::from(2u64))])),
            (
                "field_to_container",
                Json::Arr(vec![Json::from(0u64), Json::from(1u64)]),
            ),
        ]);
        let bad = corrupt_doc(&doc);
        assert_ne!(bad, doc);
        // The flip lands in the field map, not the untouched sections.
        assert_eq!(bad.get("grid"), doc.get("grid"));
        let f2c = bad.get("field_to_container").unwrap().as_arr().unwrap();
        assert_eq!(f2c[0].as_u64(), Some(1));
        assert_eq!(f2c[1].as_u64(), Some(1));
        // Deterministic: the same document corrupts the same way.
        assert_eq!(corrupt_doc(&doc), bad);
        // No integers anywhere: unchanged, no panic.
        let empty = Json::obj([("name", Json::from("x"))]);
        assert_eq!(corrupt_doc(&empty), empty);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "frobnicate@1",
            "panic@x",
            "seed=no",
            "panic%1.5",
            "stall_ms=ten",
            "justnoise",
        ] {
            assert!(
                FaultPlan::parse(bad).is_err(),
                "spec `{bad}` should be rejected"
            );
        }
    }
}
