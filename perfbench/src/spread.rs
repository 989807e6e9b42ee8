//! `spread`: how much a re-draw of CEGIS trajectories moves
//! `corpus-compile`. The corpus is compiled under two disjoint seed lists
//! and the per-program geometric means are compared; the record is
//! written to `perfbench/trajectory_spread.json`, so a later change can
//! tell a real gain from a lucky re-draw.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use chipmunk_bench::corpus::corpus;
use chipmunk_trace::json::Json;

use crate::compile::{prepare, run_job, Schedule, JOB_PROPAGATIONS};
use crate::stats::geomean;

/// Rounds over the corpus per seed list.
const ROUNDS: usize = 5;
/// Workload seeds of the two lists.
const LISTS: [u64; 2] = [1, 2];

pub fn record() -> ExitCode {
    let progs = prepare();
    let names: Vec<&str> = corpus().iter().map(|b| b.name).collect();
    // walls[list][program] in ms, decided[list][program]
    let mut walls = vec![vec![Vec::new(); names.len()]; LISTS.len()];
    let mut decided = vec![vec![0usize; names.len()]; LISTS.len()];
    let mut seen = BTreeSet::new();
    for (l, &seed) in LISTS.iter().enumerate() {
        let mut sched = Schedule::new(seed);
        for _ in 0..ROUNDS {
            for (i, s) in sched.round().into_iter().enumerate() {
                assert!(seen.insert(s), "seed lists overlap");
                let job = run_job(&progs[i], i, s, None);
                if let Some(e) = job.error {
                    eprintln!("spread: {e}");
                    return ExitCode::FAILURE;
                }
                walls[l][i].push(job.wall.as_secs_f64() * 1e3);
                decided[l][i] += job.decided as usize;
            }
        }
    }
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let g: Vec<f64> = (0..LISTS.len())
            .map(|l| geomean(&walls[l][i]).unwrap_or(0.0))
            .collect();
        let (lo, hi) = (g[0].min(g[1]), g[0].max(g[1]));
        let spread = if lo > 0.0 { hi / lo - 1.0 } else { 0.0 };
        println!(
            "{name:20} geomean {:9.1} ms | {:9.1} ms  spread {:5.1}%  decided {}/{} | {}/{}",
            g[0],
            g[1],
            spread * 100.0,
            decided[0][i],
            ROUNDS,
            decided[1][i],
            ROUNDS
        );
        rows.push(Json::obj([
            ("program", Json::from(*name)),
            (
                "geomean_ms",
                Json::Arr(g.iter().map(|&v| Json::from(round1(v))).collect()),
            ),
            (
                "decided",
                Json::Arr(decided.iter().map(|d| Json::from(d[i])).collect()),
            ),
            ("spread", Json::from(round3(spread))),
        ]));
    }
    let all: Vec<f64> = (0..LISTS.len())
        .map(|l| geomean(&walls[l].concat()).unwrap_or(0.0))
        .collect();
    let doc = Json::obj([
        (
            "what",
            Json::from(
                "corpus-compile under two disjoint CEGIS seed lists: per-program geometric \
                 mean of job wall-clock under each list, and their ratio minus one",
            ),
        ),
        (
            "workload_seeds",
            Json::Arr(LISTS.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("rounds_per_list", Json::from(ROUNDS)),
        ("job_propagations", Json::from(JOB_PROPAGATIONS)),
        (
            "corpus_geomean_ms",
            Json::Arr(all.iter().map(|&v| Json::from(round1(v))).collect()),
        ),
        ("programs", Json::Arr(rows)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("trajectory_spread.json");
    if let Err(e) = std::fs::write(&path, doc.to_pretty() + "\n") {
        eprintln!("spread: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}
