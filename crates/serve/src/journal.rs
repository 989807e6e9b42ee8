//! A write-ahead job journal: accepted work survives a daemon crash.
//!
//! Every compile job the server accepts is appended here **before** it
//! enters the queue (`accepted` record, fsync'd — write-ahead), and again
//! when it has been answered (`completed` record). A killed daemon
//! restarts, replays the journal, and re-enqueues every job that was
//! accepted but never completed; the recompiled results land in the
//! result cache, where the original submitter collects them with the
//! `poll` protocol op.
//!
//! Format: `journal.jsonl` in the journal directory, one record per line:
//!
//! ```text
//! {"rec":"accepted","key":"<16 hex>","program":<string>,"options":{…},
//!  "trace":<string>?,"priority":<int>?,"plan":"<16 hex>"?}
//! {"rec":"step","key":"<16 hex>","plan":"<16 hex>","step":<int>}
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
//! **Plan progress.** `plan` on the accepted record is the fingerprint of
//! the job's [`CompilePlan`](chipmunk::plan::CompilePlan); each `step`
//! record marks one plan step that finished *without producing the
//! answer* (the winning step writes `completed` instead). On replay, the
//! contiguous prefix of journaled steps becomes
//! [`PendingJob::resume_from`], so a kill-restart resumes a half-executed
//! plan at its first unfinished step instead of redoing solved depths —
//! but only when the replaying daemon re-derives the *same* fingerprint
//! (the server checks; a planner change restarts the plan from step 0).
//! Step records are flushed but not fsync'd: losing one merely repeats a
//! step, the same at-least-once discipline as `completed`.
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

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use chipmunk_trace::json::Json;

use crate::durable::DurableLog;
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
    /// Fingerprint of the plan the previous daemon was executing.
    pub plan: Option<String>,
    /// First plan step not journaled as finished — where to resume,
    /// *provided* the replaying daemon re-derives the same `plan`
    /// fingerprint.
    pub resume_from: usize,
}

/// Journaled per-plan progress of one pending job.
#[derive(Default)]
struct StepProgress {
    /// Completed (non-winning) step indices, deduplicated.
    done: BTreeSet<usize>,
}

impl StepProgress {
    /// Length of the contiguous completed prefix `0..n` — the safe
    /// resume offset (a hole means that step never finished; everything
    /// after it must re-run because groups execute in order).
    fn resume_from(&self) -> usize {
        let mut n = 0;
        while self.done.contains(&n) {
            n += 1;
        }
        n
    }
}

/// The journal's in-memory view: what the live records say.
#[derive(Default)]
struct State {
    /// Pending `accepted` records by key (the full record document).
    pending: HashMap<String, Json>,
    /// Per-key plan progress (only meaningful while the key is pending;
    /// keyed by (job key → plan fingerprint, finished steps)).
    steps: HashMap<String, (String, StepProgress)>,
    /// Keys in first-accepted order, possibly holding completed stragglers
    /// (filtered against `pending` when used).
    order: Vec<String>,
}

fn step_record(key: &str, plan: &str, step: usize) -> Json {
    Json::obj([
        ("rec", Json::from("step")),
        ("key", Json::from(key)),
        ("plan", Json::from(plan)),
        ("step", Json::from(step as u64)),
    ])
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

    /// Forget `key`'s pending record and its progress, returning the
    /// record.
    fn complete(&mut self, key: &str) -> Option<Json> {
        self.steps.remove(key);
        self.pending.remove(key)
    }

    /// Fold one record read back from the file into the state.
    fn load(&mut self, doc: Json) {
        let (Some(rec), Some(key)) = (
            doc.get("rec").and_then(Json::as_str),
            doc.get("key").and_then(Json::as_str),
        ) else {
            return;
        };
        match rec {
            "accepted" => self.accept(key, &doc),
            "step" => {
                let (Some(plan), Some(step)) = (
                    doc.get("plan").and_then(Json::as_str),
                    doc.get("step")
                        .and_then(Json::as_u64)
                        .and_then(|v| usize::try_from(v).ok()),
                ) else {
                    return;
                };
                // Progress only counts against the plan it was made under;
                // a fingerprint change voids it.
                let entry = self
                    .steps
                    .entry(key.to_string())
                    .or_insert_with(|| (plan.to_string(), StepProgress::default()));
                if entry.0 == plan {
                    entry.1.done.insert(step);
                }
            }
            "completed" => {
                self.complete(key);
            }
            _ => {}
        }
    }

    /// Lines a compacted file holds: the pending `accepted` records plus
    /// their step records.
    fn live(&self) -> usize {
        let steps: usize = self.steps.values().map(|(_, p)| p.done.len()).sum();
        self.pending.len() + steps
    }

    /// The live records in file order; step progress follows its
    /// `accepted` record, so a compaction keeps a later crash resumable.
    fn records(&self) -> Vec<Json> {
        let mut records = Vec::new();
        for key in &self.order {
            let Some(accepted) = self.pending.get(key) else {
                continue;
            };
            records.push(accepted.clone());
            if let Some((plan, prog)) = self.steps.get(key) {
                records.extend(prog.done.iter().map(|&step| step_record(key, plan, step)));
            }
        }
        records
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
        let journaled_plan = doc.get("plan").and_then(Json::as_str);
        let (plan, resume_from) = match (journaled_plan, self.steps.get(key)) {
            // Progress is only trusted when the step records' fingerprint
            // matches the accepted record's.
            (Some(p), Some((sp, prog))) if p == sp => (Some(p.to_string()), prog.resume_from()),
            (p, _) => (p.map(str::to_string), 0),
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
            plan,
            resume_from,
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
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<PendingJob>)> {
        let mut state = State::default();
        let log = DurableLog::open(&dir.join("journal.jsonl"), |doc| state.load(doc))?;
        state.steps.retain(|k, _| state.pending.contains_key(k));
        // A completed-then-reaccepted key appears in `order` once per
        // accept; replay must see it once, and only while it is pending.
        let mut seen = HashSet::new();
        state
            .order
            .retain(|k| state.pending.contains_key(k) && seen.insert(k.clone()));
        let replay = state
            .order
            .iter()
            .filter_map(|key| state.pending_job(key))
            .collect();
        // Completed history and damaged lines are dead weight the next
        // start would re-read: compact them away now.
        let dead = log.lines() > state.live() as u64;
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
        if self.log.append(doc, sync, state.live()) {
            let _ = self.rewrite(state);
        }
    }

    fn rewrite(&self, state: &mut State) -> std::io::Result<()> {
        state.order.retain(|k| state.pending.contains_key(k));
        self.log.rewrite(state.records()).map(drop)
    }

    /// Write-ahead record: `key` was accepted and owes an answer. Fsync'd
    /// — after this returns, a killed daemon will replay the job. The
    /// trace id (when given) rides the record so the replayed job keeps
    /// its correlation across the restart; for twin submissions sharing a
    /// key, the first accept's trace id wins. `priority` keeps the job's
    /// queue class across a restart; `plan` is the compile-plan
    /// fingerprint later `step` records will be checked against.
    pub fn accepted(
        &self,
        key: &str,
        program: &str,
        options: &JobOptions,
        trace: Option<&str>,
        priority: u8,
        plan: Option<&str>,
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
        if let Some(p) = plan {
            pairs.push(("plan", Json::from(p)));
        }
        let doc = Json::obj(pairs);
        let mut state = self.lock();
        state.accept(key, &doc);
        self.write(&mut state, &doc, true);
    }

    /// Progress record: plan step `step` of the plan fingerprinted `plan`
    /// finished without producing the answer. Flushed but not fsync'd —
    /// losing one repeats a step, which is safe. Ignored for keys that are
    /// not pending or whose journaled fingerprint disagrees (a replan
    /// voids old progress).
    pub fn step(&self, key: &str, plan: &str, step: usize) {
        let mut state = self.lock();
        if !state.pending.contains_key(key) {
            return;
        }
        let entry = state
            .steps
            .entry(key.to_string())
            .or_insert_with(|| (plan.to_string(), StepProgress::default()));
        if entry.0 != plan {
            // New plan for the same key: previous progress is void.
            *entry = (plan.to_string(), StepProgress::default());
        }
        if !entry.1.done.insert(step) {
            return; // already journaled
        }
        self.write(&mut state, &step_record(key, plan, step), false);
    }

    /// Terminal record: `key` has been answered (by any outcome). The
    /// record echoes the trace id journaled by the matching `accepted`.
    pub fn completed(&self, key: &str) {
        let mut state = self.lock();
        let Some(accepted) = state.complete(key) else {
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

    fn opts_with_width(w: u8) -> JobOptions {
        JobOptions {
            width: Some(w),
            ..JobOptions::default()
        }
    }

    #[test]
    fn unfinished_jobs_replay_in_accept_order() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("replay");
        {
            let (j, replay) = Journal::open(&dir).unwrap();
            assert!(replay.is_empty());
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &opts_with_width(6),
                Some("t-abc"),
                0,
                None,
            );
            j.accepted("k2", "pkt.c = pkt.d;", &opts_with_width(7), None, 0, None);
            j.accepted(
                "k3",
                "pkt.e = pkt.f;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
            j.completed("k2");
        }
        let (j, replay) = Journal::open(&dir).unwrap();
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
        let _f = crate::faults::test_lock();
        let dir = tmpdir("dup");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted("k", "pkt.a = pkt.b;", &JobOptions::default(), None, 0, None);
            j.accepted("k", "pkt.a = pkt.b;", &JobOptions::default(), None, 0, None);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lines_and_stray_completions_are_tolerated() {
        let _f = crate::faults::test_lock();
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
        let (j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].key, "k1");
        // Journal still accepts new records after the damage.
        j.accepted(
            "k3",
            "pkt.x = pkt.y;",
            &JobOptions::default(),
            None,
            0,
            None,
        );
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
        let _f = crate::faults::test_lock();
        let dir = tmpdir("tornutf8");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes =
            b"{\"rec\":\"accepted\",\"key\":\"k1\",\"program\":\"pkt.a = pkt.b;\"}\n".to_vec();
        let torn = "{\"rec\":\"accepted\",\"key\":\"k2\",\"trace\":\"caf\u{e9}\"}\n";
        let cut = torn.find('\u{e9}').unwrap() + 1; // between the bytes of 'é'
        bytes.extend(&torn.as_bytes()[..cut]);
        std::fs::write(dir.join("journal.jsonl"), &bytes).unwrap();
        {
            let (j, replay) = Journal::open(&dir).unwrap();
            let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
            assert_eq!(keys, ["k1"]);
            j.accepted(
                "k3",
                "pkt.x = pkt.y;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
        }
        let (_, replay) = Journal::open(&dir).unwrap();
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
        let _f = crate::faults::test_lock();
        let dir = tmpdir("reopen");
        let (j, _) = Journal::open(&dir).unwrap();
        let opts = JobOptions::default();
        j.accepted("k1", "pkt.a = pkt.b;", &opts, None, 0, None);
        // Occurrence 0 is the rewrite's temp file, 1 the reopen.
        crate::faults::install("disk_io@1").unwrap();
        let failed = j.compact();
        crate::faults::disarm();
        assert!(failed.is_err(), "the failed reopen must surface");
        assert!(j.degraded());
        assert_eq!(j.errors(), 1);
        j.accepted("k2", "pkt.c = pkt.d;", &opts, None, 0, None);
        j.compact().unwrap();
        assert!(!j.degraded());
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["k1", "k2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_heavy_journals_self_compact() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("selfcompact");
        let (j, _) = Journal::open(&dir).unwrap();
        for i in 0..40 {
            let key = format!("k{i}");
            j.accepted(
                &key,
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
            j.completed(&key);
        }
        assert!(j.compactions() >= 1);
        assert!(j.lines() <= 18, "journal unbounded: {} lines", j.lines());
        assert_eq!(j.pending_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_records_echo_the_accepted_trace_id() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("traceecho");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-1"),
                3,
                None,
            );
            // Twin submission: the first accept's trace id wins.
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-2"),
                0,
                None,
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
        let _f = crate::faults::test_lock();
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
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted("k", "pkt.a = pkt.b;", &opts, None, 0, None);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
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
    fn priority_and_plan_ride_the_accepted_record() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("prio");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-p"),
                7,
                Some("deadbeefdeadbeef"),
            );
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].priority, 7);
        assert_eq!(replay[0].plan.as_deref(), Some("deadbeefdeadbeef"));
        assert_eq!(replay[0].resume_from, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_steps_become_the_resume_offset() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("resume");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            j.step("k", fp, 1);
            j.step("k", fp, 1); // duplicate: journaled once
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay[0].resume_from, 2, "contiguous prefix 0..2 done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hole_in_the_step_sequence_stops_the_resume_prefix() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("hole");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            j.step("k", fp, 2); // step 1 never finished
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay[0].resume_from, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_plan_fingerprint_voids_journaled_progress() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("fpmismatch");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some("aaaaaaaaaaaaaaaa"),
            );
            // Step records from some other plan (e.g. a planner change
            // between accept and crash): must not be trusted.
            j.step("k", "bbbbbbbbbbbbbbbb", 0);
            j.step("k", "bbbbbbbbbbbbbbbb", 1);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay[0].resume_from, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn step_progress_survives_compaction() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("stepcompact");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            // Force churn so a compaction definitely runs.
            for i in 0..40 {
                let key = format!("churn{i}");
                j.accepted(
                    &key,
                    "pkt.c = pkt.d;",
                    &JobOptions::default(),
                    None,
                    0,
                    None,
                );
                j.completed(&key);
            }
            assert!(j.compactions() >= 1);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].resume_from, 1, "step lost in compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_clears_step_progress() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("stepclear");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            j.completed("k");
            // Re-accept the same key: old progress must not leak into the
            // fresh job.
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].resume_from, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
