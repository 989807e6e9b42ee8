//! The crash-safe JSONL file behind the result cache and the job journal.
//!
//! A `DurableLog` is an append-only file of JSON records, one per line.
//! Its owner keeps the live records in memory and can list them at any
//! time; the log owns everything the file needs to survive crashes and
//! disk faults, the owner owns what the records mean.
//!
//! **Load.** `DurableLog::open` hands every complete record to the
//! owner, in file order. A torn line (a crash mid-append leaves a line
//! without its newline) or a corrupt one is skipped. An unreadable line
//! (an I/O error, broken UTF-8) stops the load and keeps what was read.
//! Each of these still counts as a line of the file, so an owner that
//! rewrites whenever the file holds more lines than it has live records
//! also rewrites past the damage; otherwise the next append would land
//! behind a line the next load cannot read.
//!
//! **Append.** One record goes to the OS in one write, fsync'd only when
//! the caller asks (the journal's write-ahead `accepted` records).
//!
//! **Rewrite.** `DurableLog::rewrite` replaces the file with the owner's
//! live records: a temp file, fsync'd, renamed over the old file, then
//! reopened for append. A crash at any point leaves either the old file or
//! the new one, never a mix.
//!
//! **Directory sync.** A create or a rename is durable only once the
//! directory holding the file is fsync'd, so `open` syncs it after creating
//! the file and a rewrite after its rename; otherwise a power cut could
//! undo a rewrite, and with it a record fsync'd into the new file. A
//! filesystem that rejects a directory fsync (`EINVAL`) has nothing to
//! sync, which counts as success; any other error fails `open` like a
//! failed create, and fails a rewrite like any other rewrite error.
//!
//! **Degrade and re-attach.** Any I/O error (an append, a rewrite, or the
//! reopen after a rewrite's rename) detaches the file: the error is
//! counted, the log reports itself degraded, and appends are skipped.
//! The owner still holds every live record, so nothing is lost.
//! Every [`REATTACH_EVERY`]th skipped append asks the owner for a rewrite;
//! the first that succeeds re-attaches the file with every live record on
//! disk.
//!
//! **Compaction.** Appends accumulate dead lines (evicted cache entries,
//! completed jobs). An append asks the owner for a rewrite once the file
//! holds more than `max(2·live, 16)` lines, which keeps it near twice the
//! live set; the floor stops tiny live sets from rewriting on every
//! append.
//!
//! An owner takes its own state lock before the log's, so a rewrite sees
//! a consistent live set. Every disk fault is injected here
//! ([`FaultKind::DiskIo`], counted on the fault plan the owner passes to
//! `open`: the daemon's, shared by its cache and its journal), and this is
//! the one module allowed to fsync or rename a file (`clippy.toml`).

#![allow(clippy::disallowed_methods)]

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use chipmunk_trace::json::Json;

use crate::faults::{FaultKind, FaultPlan};

/// While degraded, every this-many-th skipped append asks the owner for a
/// rewrite: the re-attach probe.
pub const REATTACH_EVERY: u64 = 16;

/// Fsync the directory holding `path`, so a create or rename in it
/// survives a power cut (see the module docs).
fn sync_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    match File::open(dir)?.sync_all() {
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => Ok(()),
        synced => synced,
    }
}

/// An append-only JSONL file with crash-safe rewrites that degrades
/// instead of failing (see the module docs).
pub(crate) struct DurableLog {
    path: PathBuf,
    /// The append handle; `None` once a rewrite renamed the file but could
    /// not reopen it, so nothing is ever appended to the unlinked file.
    file: Mutex<Option<File>>,
    /// Lines in the file, live or dead, readable or not.
    lines: AtomicU64,
    degraded: AtomicBool,
    /// Appends skipped while degraded, for the re-attach cadence.
    skipped: AtomicU64,
    errors: AtomicU64,
    rewrites: AtomicU64,
    faults: FaultPlan,
}

impl DurableLog {
    /// Open (or create) the log at `path`, creating its directory, and
    /// pass each complete record in the file to `each`, oldest first. The
    /// directory is fsync'd, so a newly created file survives a power cut.
    /// Disk faults are drawn from `faults`.
    pub fn open(
        path: &Path,
        faults: FaultPlan,
        mut each: impl FnMut(Json),
    ) -> std::io::Result<DurableLog> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut lines = 0u64;
        if let Ok(f) = File::open(path) {
            let mut reader = BufReader::new(f);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        lines += 1;
                        if line.ends_with('\n') {
                            if let Ok(doc) = Json::parse(&line) {
                                each(doc);
                            }
                        }
                    }
                    // Past an unreadable line the reader's position means
                    // nothing: stop, and count it so the owner rewrites.
                    Err(_) => {
                        lines += 1;
                        break;
                    }
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        sync_dir(path)?;
        Ok(DurableLog {
            path: path.to_path_buf(),
            file: Mutex::new(Some(file)),
            lines: AtomicU64::new(lines),
            degraded: AtomicBool::new(false),
            skipped: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rewrites: AtomicU64::new(0),
            faults,
        })
    }

    /// The one injection point for every disk operation of the log.
    fn injected_fault(&self) -> std::io::Result<()> {
        if self.faults.fired(FaultKind::DiskIo) {
            return Err(std::io::Error::other("injected disk_io fault"));
        }
        Ok(())
    }

    /// Append `record`, fsync'd when `sync` is set. Never fails: an I/O
    /// error degrades the log, and a degraded log skips the append (the
    /// owner still holds the record). Returns whether the owner, now
    /// holding `live` live records, should [`rewrite`](DurableLog::rewrite)
    /// the log: to compact it, or to probe a re-attach.
    #[must_use]
    pub fn append(&self, record: &Json, sync: bool, live: usize) -> bool {
        if self.degraded() {
            let skipped = self.skipped.fetch_add(1, Ordering::Relaxed) + 1;
            return skipped.is_multiple_of(REATTACH_EVERY);
        }
        let mut line = record.to_compact();
        line.push('\n');
        let appended = (|| -> std::io::Result<u64> {
            self.injected_fault()?;
            let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            let file = file
                .as_mut()
                .ok_or_else(|| std::io::Error::other("log file detached"))?;
            file.write_all(line.as_bytes())?;
            if sync {
                file.sync_data()?;
            }
            Ok(self.lines.fetch_add(1, Ordering::Relaxed) + 1)
        })();
        match appended {
            Ok(lines) => lines > (2 * live as u64).max(16),
            Err(_) => {
                self.fail();
                false
            }
        }
    }

    /// Replace the file with `records`, the owner's live set, crash-safely
    /// (temp file, fsync, rename, directory fsync, reopen). Success
    /// re-attaches a degraded log; failure degrades it and is returned too,
    /// for an owner that reports it. Returns `(lines_before, lines_after)`.
    pub fn rewrite(&self, records: impl IntoIterator<Item = Json>) -> std::io::Result<(u64, u64)> {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let before = self.lines();
        let rewritten = (|| -> std::io::Result<u64> {
            self.injected_fault()?;
            let tmp_path = self.path.with_extension("jsonl.tmp");
            let mut tmp = BufWriter::new(File::create(&tmp_path)?);
            let mut after = 0u64;
            for record in records {
                writeln!(tmp, "{record}")?;
                after += 1;
            }
            tmp.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp_path, &self.path)?;
            // The old handle points at the unlinked file: drop it first, so
            // a failed reopen leaves no handle to append through.
            *file = None;
            self.lines.store(after, Ordering::Relaxed);
            sync_dir(&self.path)?;
            self.injected_fault()?;
            *file = Some(OpenOptions::new().append(true).open(&self.path)?);
            Ok(after)
        })();
        match rewritten {
            Ok(after) => {
                self.degraded.store(false, Ordering::Relaxed);
                self.skipped.store(0, Ordering::Relaxed);
                self.rewrites.fetch_add(1, Ordering::Relaxed);
                Ok((before, after))
            }
            Err(e) => {
                self.fail();
                Err(e)
            }
        }
    }

    fn fail(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Lines in the file, live or dead: the figure a rewrite shrinks back
    /// to the live set.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Whether the file is detached after an I/O error.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// I/O errors absorbed so far (appends, rewrites, and reopens).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Successful rewrites.
    pub fn rewrites(&self) -> u64 {
        self.rewrites.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "chipmunk-serve-durable-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d.join("log.jsonl")
    }

    fn open(path: &Path) -> (DurableLog, Vec<Json>) {
        let mut docs = Vec::new();
        let log = DurableLog::open(path, FaultPlan::default(), |doc| docs.push(doc)).unwrap();
        (log, docs)
    }

    fn rec(v: u64) -> Json {
        Json::obj([("v", Json::from(v))])
    }

    /// A record whose newline never reached the disk is torn even when
    /// its JSON is complete: it is skipped but counted, so the owner's
    /// rewrite gives the next append a line of its own.
    #[test]
    fn a_record_without_its_newline_is_torn() {
        let path = tmpfile("newline");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"v\":1}\nnot json\n{\"v\":2}").unwrap();
        let (log, docs) = open(&path);
        assert_eq!(docs, [rec(1)]);
        assert_eq!(log.lines(), 3);
        assert_eq!(log.rewrite(docs).unwrap(), (3, 1));
        assert!(!log.append(&rec(3), false, 2));
        drop(log);
        let (log, docs) = open(&path);
        assert_eq!(docs, [rec(1), rec(3)]);
        assert_eq!((log.lines(), log.rewrites()), (2, 0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Appends ask for a compaction once the file passes twice the live
    /// set, with a floor of 16 lines.
    #[test]
    fn appends_ask_for_a_rewrite_past_twice_the_live_set() {
        let path = tmpfile("trigger");
        let (log, _) = open(&path);
        for i in 0..16 {
            assert!(!log.append(&rec(i), false, 1), "line {i} under the floor");
        }
        assert!(log.append(&rec(16), false, 1));
        assert!(!log.append(&rec(17), false, 9), "18 lines of 9 live");
        assert!(log.append(&rec(18), false, 9));
        assert_eq!(log.lines(), 19);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
