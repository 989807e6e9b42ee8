//! A write-ahead job journal: accepted work survives a daemon crash.
//!
//! Every compile job the server accepts is appended here **before** it
//! enters the queue (`accepted` record, fsync'd — write-ahead), and again
//! when it has been answered (`completed` record). A killed daemon
//! restarts, replays the journal, and re-enqueues every job that was
//! accepted but never completed; the recompiled results land in the
//! result cache, where the original submitter collects them with the
//! `poll` protocol op. A replayed job compiles exactly as a fresh
//! submission with the same options would: its whole plan, from the
//! first step.
//!
//! Format: `journal.jsonl` in the journal directory, one record per line:
//!
//! ```text
//! {"rec":"accepted","key":"<16 hex>","program":<string>,"options":{…},
//!  "trace":<string>?,"priority":<int>?}
//! {"rec":"completed","key":"<16 hex>","trace":<string>?}
//! ```
//!
//! The `trace` field is the job's trace id (client-supplied or
//! server-assigned). It rides both records so a job can be correlated
//! with its telemetry across a crash: the replayed job keeps the original
//! trace id, and the `completed` record written by the *next* daemon
//! still names it. `priority` rides the accepted record so a replayed
//! job keeps its queue position class.
//!
//! Journals written by daemons that resumed plans mid-way also hold
//! `step` records and a `plan` field on `accepted` records. Loading reads
//! past both, and the next compaction drops them.
//!
//! Records are keyed by the job's content-addressed cache key, so twin
//! submissions collapse into one pending entry and one replay. A
//! `completed` record is written for *every* terminal answer — success,
//! typed failure, even a drain at shutdown — because "pending" means "a
//! client was promised an answer that was never produced", not "the
//! compile succeeded". Jobs that die with a worker write no `completed`
//! record and replay on the next start, which is exactly the at-least-once
//! retry the client was told is safe.
//!
//! The file is a durable log ([`crate::durable`]), the same crash-safe
//! JSONL file as the result cache's: only `accepted` appends are fsync'd
//! (losing a `completed` line merely causes one redundant recompile),
//! torn or corrupt lines are skipped on load, and compaction, which drops
//! completed jobs, rewrites the file crash-safely. I/O errors never
//! propagate into the serving path: the journal degrades, keeps tracking
//! pending jobs in memory, and re-attaches the way the cache does, with
//! every pending job back on disk.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use chipmunk_trace::json::Json;

use crate::durable::DurableLog;
use crate::faults::FaultPlan;
use crate::protocol::JobOptions;

/// A journaled job that was accepted but never answered: replay it.
pub struct PendingJob {
    /// Content-addressed cache key of the job.
    pub key: String,
    /// The submitted program source.
    pub program: String,
    /// The submitted compile options.
    pub options: JobOptions,
    /// Trace id of the original submission, if one was journaled.
    pub trace: Option<String>,
    /// Queue priority of the original submission (0 when not journaled).
    pub priority: u8,
}

/// The journal's in-memory view: what the live records say.
#[derive(Default)]
struct State {
    /// Pending `accepted` records by key (the full record document).
    pending: HashMap<String, Json>,
    /// Keys in first-accepted order, possibly holding completed keys and
    /// repeats (a key completed and accepted again) until [`State::prune`].
    order: Vec<String>,
}

impl State {
    /// The first accept of a key wins: twin submissions share one pending
    /// entry and one replay.
    fn accept(&mut self, key: &str, doc: &Json) {
        if !self.pending.contains_key(key) {
            self.order.push(key.to_string());
            self.pending.insert(key.to_string(), doc.clone());
        }
    }

    /// Fold one record read back from the file into the state. Older
    /// daemons' `step` records and `plan` fields are read past.
    fn load(&mut self, mut doc: Json) {
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(name, _)| name != "plan");
        }
        let (Some(rec), Some(key)) = (
            doc.get("rec").and_then(Json::as_str),
            doc.get("key").and_then(Json::as_str),
        ) else {
            return;
        };
        match rec {
            "accepted" => self.accept(key, &doc),
            "completed" => {
                self.pending.remove(key);
            }
            _ => {}
        }
    }

    /// Drop completed keys and repeats from `order`, keeping
    /// first-accepted order, so each pending job has one entry.
    fn prune(&mut self) {
        let mut seen = HashSet::new();
        self.order
            .retain(|k| self.pending.contains_key(k) && seen.insert(k.clone()));
    }

    /// The live records in file order: the pending `accepted` records.
    fn records(&self) -> Vec<Json> {
        self.order
            .iter()
            .filter_map(|key| self.pending.get(key).cloned())
            .collect()
    }

    /// The pending job journaled under `key`, or `None` when its record
    /// cannot be decoded.
    fn pending_job(&self, key: &str) -> Option<PendingJob> {
        let doc = self.pending.get(key)?;
        let program = doc.get("program").and_then(Json::as_str)?.to_string();
        let options = match doc.get("options") {
            None | Some(Json::Null) => JobOptions::default(),
            Some(o) => JobOptions::from_json(o).ok()?,
        };
        Some(PendingJob {
            key: key.to_string(),
            program,
            options,
            trace: doc.get("trace").and_then(Json::as_str).map(str::to_string),
            priority: doc
                .get("priority")
                .and_then(Json::as_u64)
                .and_then(|v| u8::try_from(v).ok())
                .unwrap_or(0),
        })
    }
}

/// The write-ahead journal. All operations are crash-tolerant and
/// serving-path-safe: an I/O error degrades the journal instead of
/// failing the request that touched it.
pub struct Journal {
    state: Mutex<State>,
    log: DurableLog,
}

impl Journal {
    /// Open (or create) `dir/journal.jsonl`, returning the journal plus
    /// every job accepted by a previous process but never completed, in
    /// first-accepted order. The file is compacted down to those pending
    /// records so completed history does not accumulate across restarts.
    /// Disk faults are drawn from `faults`.
    pub fn open(dir: &Path, faults: FaultPlan) -> std::io::Result<(Journal, Vec<PendingJob>)> {
        let mut state = State::default();
        let log = DurableLog::open(&dir.join("journal.jsonl"), faults, |doc| state.load(doc))?;
        state.prune();
        let replay = state
            .order
            .iter()
            .filter_map(|key| state.pending_job(key))
            .collect();
        // Completed history and damaged lines are dead weight the next
        // start would re-read: compact them away now.
        let dead = log.lines() > state.pending.len() as u64;
        let journal = Journal {
            state: Mutex::new(state),
            log,
        };
        if dead {
            let _ = journal.compact();
        }
        Ok((journal, replay))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `doc` to the log, compacting (or probing a re-attach) when
    /// the log asks. The caller holds the state lock, which the log's
    /// lock always follows.
    fn write(&self, state: &mut State, doc: &Json, sync: bool) {
        if self.log.append(doc, sync, state.pending.len()) {
            let _ = self.rewrite(state);
        }
    }

    fn rewrite(&self, state: &mut State) -> std::io::Result<()> {
        state.prune();
        self.log.rewrite(state.records()).map(drop)
    }

    /// Write-ahead record: `key` was accepted and owes an answer. Fsync'd
    /// — after this returns, a killed daemon will replay the job. The
    /// trace id (when given) rides the record so the replayed job keeps
    /// its correlation across the restart; for twin submissions sharing a
    /// key, the first accept's trace id wins. `priority` keeps the job's
    /// queue class across a restart.
    pub fn accepted(
        &self,
        key: &str,
        program: &str,
        options: &JobOptions,
        trace: Option<&str>,
        priority: u8,
    ) {
        let mut pairs = vec![
            ("rec", Json::from("accepted")),
            ("key", Json::from(key)),
            ("program", Json::from(program)),
            ("options", options.to_json()),
        ];
        if let Some(t) = trace {
            pairs.push(("trace", Json::from(t)));
        }
        if priority > 0 {
            pairs.push(("priority", Json::from(u64::from(priority))));
        }
        let doc = Json::obj(pairs);
        let mut state = self.lock();
        state.accept(key, &doc);
        self.write(&mut state, &doc, true);
    }

    /// Terminal record: `key` has been answered (by any outcome). The
    /// record echoes the trace id journaled by the matching `accepted`.
    pub fn completed(&self, key: &str) {
        let mut state = self.lock();
        let Some(accepted) = state.pending.remove(key) else {
            return; // unknown or already-completed key: nothing owed
        };
        let mut pairs = vec![("rec", Json::from("completed")), ("key", Json::from(key))];
        if let Some(t) = accepted.get("trace").and_then(Json::as_str) {
            pairs.push(("trace", Json::from(t)));
        }
        self.write(&mut state, &Json::obj(pairs), false);
    }

    /// Rewrite the journal down to its pending records (crash-safe, see
    /// [`crate::durable`]). Also the degraded-mode recovery path: a
    /// full successful rewrite re-attaches the file.
    pub fn compact(&self) -> std::io::Result<()> {
        self.rewrite(&mut self.lock())
    }

    /// Jobs currently owed an answer.
    pub fn pending_len(&self) -> usize {
        self.lock().pending.len()
    }

    /// Lines currently in the journal file (pending + not-yet-compacted
    /// history).
    pub fn lines(&self) -> u64 {
        self.log.lines()
    }

    /// I/O errors absorbed so far.
    pub fn errors(&self) -> u64 {
        self.log.errors()
    }

    /// Whether writes are currently disabled after an I/O error.
    pub fn degraded(&self) -> bool {
        self.log.degraded()
    }

    /// Completed compaction passes.
    pub fn compactions(&self) -> u64 {
        self.log.rewrites()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "chipmunk-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Open `dir`'s journal with no fault plan.
    fn open(dir: &Path) -> (Journal, Vec<PendingJob>) {
        Journal::open(dir, FaultPlan::default()).unwrap()
    }

    fn opts_with_width(w: u8) -> JobOptions {
        JobOptions {
            width: Some(w),
            ..JobOptions::default()
        }
    }

    #[test]
    fn unfinished_jobs_replay_in_accept_order() {
        let dir = tmpdir("replay");
        {
            let (j, replay) = open(&dir);
            assert!(replay.is_empty());
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &opts_with_width(6),
                Some("t-abc"),
                0,
            );
            j.accepted("k2", "pkt.c = pkt.d;", &opts_with_width(7), None, 0);
            j.accepted("k3", "pkt.e = pkt.f;", &JobOptions::default(), None, 0);
            j.completed("k2");
        }
        let (j, replay) = open(&dir);
        let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["k1", "k3"]);
        assert_eq!(replay[0].program, "pkt.a = pkt.b;");
        assert_eq!(replay[0].options.width, Some(6));
        assert_eq!(replay[0].trace.as_deref(), Some("t-abc"));
        assert_eq!(replay[1].options.width, None);
        assert_eq!(replay[1].trace, None);
        // Startup compaction dropped the completed pair.
        assert_eq!(j.lines(), 2);
        assert_eq!(j.pending_len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_accepts_replay_once() {
        let dir = tmpdir("dup");
        {
            let (j, _) = open(&dir);
            j.accepted("k", "pkt.a = pkt.b;", &JobOptions::default(), None, 0);
            j.accepted("k", "pkt.a = pkt.b;", &JobOptions::default(), None, 0);
        }
        let (_, replay) = open(&dir);
        assert_eq!(replay.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lines_and_stray_completions_are_tolerated() {
        let dir = tmpdir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("journal.jsonl"),
            concat!(
                "{\"rec\":\"completed\",\"key\":\"ghost\"}\n",
                "{\"rec\":\"accepted\",\"key\":\"k1\",\"program\":\"pkt.a = pkt.b;\"}\n",
                "{\"rec\":\"accepted\",\"key\":\"k2\",\"prog", // torn mid-append
            ),
        )
        .unwrap();
        let (j, replay) = open(&dir);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].key, "k1");
        // Journal still accepts new records after the damage.
        j.accepted("k3", "pkt.x = pkt.y;", &JobOptions::default(), None, 0);
        assert_eq!(j.pending_len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash can tear a record inside a multi-byte character: comments
    /// and client trace ids reach the journal as raw UTF-8. Loading stops
    /// at the unreadable tail, and the startup rewrite drops it, so a job
    /// accepted after the restart does not land behind it and vanish from
    /// the next replay.
    #[test]
    fn a_tail_torn_inside_a_multibyte_character_does_not_swallow_later_records() {
        let dir = tmpdir("tornutf8");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes =
            b"{\"rec\":\"accepted\",\"key\":\"k1\",\"program\":\"pkt.a = pkt.b;\"}\n".to_vec();
        let torn = "{\"rec\":\"accepted\",\"key\":\"k2\",\"trace\":\"caf\u{e9}\"}\n";
        let cut = torn.find('\u{e9}').unwrap() + 1; // between the bytes of 'é'
        bytes.extend(&torn.as_bytes()[..cut]);
        std::fs::write(dir.join("journal.jsonl"), &bytes).unwrap();
        {
            let (j, replay) = open(&dir);
            let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
            assert_eq!(keys, ["k1"]);
            j.accepted("k3", "pkt.x = pkt.y;", &JobOptions::default(), None, 0);
        }
        let (_, replay) = open(&dir);
        let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(
            keys,
            ["k1", "k3"],
            "the job accepted after the tear is lost"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// If reopening the file after a rewrite's rename fails, the journal
    /// degrades instead of appending to the unlinked old file; a job
    /// accepted meanwhile is on disk after the next successful rewrite.
    #[test]
    fn a_failed_reopen_after_a_rewrite_degrades_until_the_next_rewrite() {
        let dir = tmpdir("reopen");
        // Occurrence 0 is k1's write-ahead append, 1 the rewrite's temp
        // file, 2 the reopen.
        let (j, _) = Journal::open(&dir, FaultPlan::parse("disk_io@2").unwrap()).unwrap();
        let opts = JobOptions::default();
        j.accepted("k1", "pkt.a = pkt.b;", &opts, None, 0);
        let failed = j.compact();
        assert!(failed.is_err(), "the failed reopen must surface");
        assert!(j.degraded());
        assert_eq!(j.errors(), 1);
        j.accepted("k2", "pkt.c = pkt.d;", &opts, None, 0);
        j.compact().unwrap();
        assert!(!j.degraded());
        drop(j);
        let (_, replay) = open(&dir);
        let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["k1", "k2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A key accepted, completed and accepted again before a compaction
    /// is one pending job with one `accepted` line after it.
    #[test]
    fn a_reaccepted_key_compacts_to_one_line() {
        let dir = tmpdir("reaccept");
        let (j, _) = open(&dir);
        let opts = JobOptions::default();
        j.accepted("k", "pkt.a = pkt.b;", &opts, None, 0);
        j.completed("k");
        j.accepted("k", "pkt.a = pkt.b;", &opts, None, 0);
        j.compact().unwrap();
        assert_eq!((j.lines(), j.pending_len()), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_heavy_journals_self_compact() {
        let dir = tmpdir("selfcompact");
        let (j, _) = open(&dir);
        for i in 0..40 {
            let key = format!("k{i}");
            j.accepted(&key, "pkt.a = pkt.b;", &JobOptions::default(), None, 0);
            j.completed(&key);
        }
        assert!(j.compactions() >= 1);
        assert!(j.lines() <= 18, "journal unbounded: {} lines", j.lines());
        assert_eq!(j.pending_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_records_echo_the_accepted_trace_id() {
        let dir = tmpdir("traceecho");
        {
            let (j, _) = open(&dir);
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-1"),
                3,
            );
            // Twin submission: the first accept's trace id wins.
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-2"),
                0,
            );
            j.completed("k1");
        }
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let completed: Vec<Json> = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|d| d.get("rec").and_then(Json::as_str) == Some("completed"))
            .collect();
        assert_eq!(completed.len(), 1);
        assert_eq!(
            completed[0].get("trace").and_then(Json::as_str),
            Some("t-1")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_round_trip_through_the_journal() {
        let dir = tmpdir("opts");
        let opts = JobOptions {
            template: Some("raw".into()),
            imm: Some(3),
            width: Some(8),
            max_stages: Some(2),
            timeout_ms: Some(5000),
            budget_conflicts: Some(1000),
            budget_propagations: Some(2000),
            budget_bytes: Some(1 << 20),
            ..JobOptions::default()
        };
        {
            let (j, _) = open(&dir);
            j.accepted("k", "pkt.a = pkt.b;", &opts, None, 0);
        }
        let (_, replay) = open(&dir);
        let got = &replay[0].options;
        assert_eq!(got.template, opts.template);
        assert_eq!(got.imm, opts.imm);
        assert_eq!(got.width, opts.width);
        assert_eq!(got.max_stages, opts.max_stages);
        assert_eq!(got.timeout_ms, opts.timeout_ms);
        assert_eq!(got.budget_conflicts, opts.budget_conflicts);
        assert_eq!(got.budget_propagations, opts.budget_propagations);
        assert_eq!(got.budget_bytes, opts.budget_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn priority_rides_the_accepted_record() {
        let dir = tmpdir("prio");
        {
            let (j, _) = open(&dir);
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-p"),
                7,
            );
        }
        let (_, replay) = open(&dir);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].priority, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Journals from daemons that resumed plans mid-way carry `step`
    /// records and a `plan` fingerprint on `accepted`: the job replays
    /// as written, and a compaction leaves neither behind.
    #[test]
    fn step_records_and_plan_fields_are_ignored_on_load_and_compacted_away() {
        let dir = tmpdir("stepcompat");
        std::fs::create_dir_all(&dir).unwrap();
        let fp = "0123456789abcdef";
        let mut text = format!(
            "{{\"rec\":\"accepted\",\"key\":\"k\",\"program\":\"pkt.a = pkt.b;\",\
             \"options\":{{\"width\":6}},\"trace\":\"t-s\",\"priority\":2,\"plan\":\"{fp}\"}}\n"
        );
        for step in 0..3 {
            text.push_str(&format!(
                "{{\"rec\":\"step\",\"key\":\"k\",\"plan\":\"{fp}\",\"step\":{step}}}\n"
            ));
        }
        std::fs::write(dir.join("journal.jsonl"), text).unwrap();
        let (j, replay) = open(&dir);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].program, "pkt.a = pkt.b;");
        assert_eq!(replay[0].options.width, Some(6));
        assert_eq!(replay[0].trace.as_deref(), Some("t-s"));
        assert_eq!(replay[0].priority, 2);
        j.compact().unwrap();
        assert_eq!(j.lines(), 1);
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let doc = Json::parse(text.trim_end()).unwrap();
        assert_eq!(doc.get("rec").and_then(Json::as_str), Some("accepted"));
        assert_eq!(doc.get("plan"), None, "{text}");
        assert!(!text.contains("\"step\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
