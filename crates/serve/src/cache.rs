//! The two-tier compilation result cache.
//!
//! Tier 1 is an in-memory LRU map from content hash (see
//! [`chipmunk::cache_key`]) to the serialized result document. Tier 2 is
//! `results.jsonl` under the server's `--cache-dir`, a durable log
//! ([`crate::durable`]) loaded into tier 1 at startup, so a restarted
//! daemon keeps its warm cache. Each line is
//! `{"key":"<16 hex>","result":{…}}`. The log owns the file mechanics:
//! torn-line tolerance, crash-safe rewrites, and degrading to memory-only
//! on a disk error, re-attaching later with nothing lost, since every
//! entry still lives in tier 1.
//!
//! **Bounds.** With `max_entries` set, tier 1 holds at most that many
//! results; inserting past the bound evicts the least-recently-used entry
//! (every `get`/`peek` is a use). The file stays append-only between
//! compactions, so it can hold lines for evicted keys;
//! [`ResultCache::compact`] rewrites it to the retained in-memory set,
//! dropping evicted, duplicate, and corrupt lines. Compaction runs at
//! startup when loading found anything worth dropping, automatically when
//! the file grows past twice the retained set, and on demand (the `cache`
//! protocol op).
//!
//! **Write conflicts.** `put` is first-write-wins: a duplicate `put`
//! under an existing key changes neither tier, so memory and disk cannot
//! diverge when two workers race to finish twin jobs.
//!
//! Only *successful* compilations are cached: failures may be budget
//! artifacts (timeouts) and are cheap to re-derive when they are not
//! (the infeasibility proof re-runs).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chipmunk_trace::json::Json;

use crate::durable::DurableLog;

/// One retained result plus its recency stamp.
struct Entry {
    result: Json,
    /// Monotonic use stamp; the smallest stamp is the LRU victim.
    tick: u64,
}

/// Tier 1: the map plus an LRU index (`tick → key`, ticks are unique).
struct Mem {
    map: HashMap<String, Entry>,
    lru: BTreeMap<u64, String>,
    next_tick: u64,
}

impl Mem {
    fn new() -> Mem {
        Mem {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            next_tick: 0,
        }
    }

    /// Move `key`'s stamp to most-recent. No-op for unknown keys.
    fn touch(&mut self, key: &str) {
        if let Some(e) = self.map.get_mut(key) {
            self.lru.remove(&e.tick);
            e.tick = self.next_tick;
            self.lru.insert(e.tick, key.to_string());
            self.next_tick += 1;
        }
    }

    /// Insert if absent (first-write-wins). Returns whether it inserted.
    fn insert_fresh(&mut self, key: &str, result: &Json) -> bool {
        if self.map.contains_key(key) {
            return false;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.map.insert(
            key.to_string(),
            Entry {
                result: result.clone(),
                tick,
            },
        );
        self.lru.insert(tick, key.to_string());
        true
    }

    /// Drop LRU entries until at most `max` remain; returns how many went.
    fn evict_to(&mut self, max: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > max {
            let Some((&tick, _)) = self.lru.iter().next() else {
                break;
            };
            let key = self.lru.remove(&tick).expect("lru index entry");
            self.map.remove(&key);
            evicted += 1;
        }
        evicted
    }
}

/// One `results.jsonl` line.
fn record(key: &str, result: &Json) -> Json {
    Json::obj([("key", Json::from(key)), ("result", result.clone())])
}

/// A content-addressed result store: in-memory LRU map + optional JSONL
/// file.
pub struct ResultCache {
    mem: Mutex<Mem>,
    log: Option<DurableLog>,
    /// Tier-1 entry bound (`None` = unbounded).
    max_entries: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Open an unbounded cache (see [`ResultCache::open_bounded`]).
    pub fn open(dir: Option<&Path>) -> std::io::Result<ResultCache> {
        ResultCache::open_bounded(dir, None)
    }

    /// Open a cache holding at most `max_entries` results (`None` =
    /// unbounded). With a directory, existing entries in
    /// `dir/results.jsonl` are loaded (first occurrence of a key wins,
    /// matching `put`) and new entries appended; without, the cache is
    /// memory-only. Damaged lines are skipped or end the load, as the
    /// durable log ([`crate::durable`]) describes. If the file holds
    /// anything the retained set does not (damage, duplicate keys,
    /// entries past the bound), it is compacted at once so the waste is
    /// not reloaded forever.
    pub fn open_bounded(
        dir: Option<&Path>,
        max_entries: Option<usize>,
    ) -> std::io::Result<ResultCache> {
        let mut mem = Mem::new();
        let log = match dir {
            None => None,
            Some(dir) => Some(DurableLog::open(&dir.join("results.jsonl"), |doc| {
                if let (Some(key), Some(result)) =
                    (doc.get("key").and_then(Json::as_str), doc.get("result"))
                {
                    mem.insert_fresh(key, result);
                }
            })?),
        };
        let evictions = max_entries.map_or(0, |max| mem.evict_to(max));
        let cache = ResultCache {
            mem: Mutex::new(mem),
            log,
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(evictions),
        };
        if cache.disk_lines() > cache.len() as u64 {
            // Best-effort: a failure degrades the log and leaves the old
            // file, which is exactly what was loaded.
            let _ = cache.compact();
        }
        Ok(cache)
    }

    /// Look up a key, updating the hit/miss counters.
    pub fn get(&self, key: &str) -> Option<Json> {
        self.get_adapted(key, Some)
    }

    /// Look up a key and pass the stored document through `adapt` — a
    /// lookup only counts as a hit if `adapt` accepts it. The serving
    /// layer uses this to remap a cached result into the requester's own
    /// field numbering; an entry that cannot be remapped (legacy line,
    /// hash collision) is a miss and the job recompiles.
    pub fn get_adapted(&self, key: &str, adapt: impl FnOnce(Json) -> Option<Json>) -> Option<Json> {
        let found = self.peek(key).and_then(adapt);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.cache.hit", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.cache.miss", 1);
        }
        found
    }

    /// Look up a key without touching the hit/miss counters (used by
    /// workers re-checking after a queue wait, so one logical request
    /// counts once). Still refreshes the entry's LRU recency.
    pub fn peek(&self, key: &str) -> Option<Json> {
        let mut mem = self.mem.lock().expect("cache poisoned");
        mem.touch(key);
        mem.map.get(key).map(|e| e.result.clone())
    }

    /// Store a result under `key`, in memory and (if configured) on disk.
    ///
    /// First-write-wins: if the key is already present, *neither* tier
    /// changes — replacing only the memory tier would make a restart
    /// silently revert the answer, and key-equal results are equivalent
    /// by construction, so the first one is as good as any.
    pub fn put(&self, key: &str, result: &Json) {
        let (evicted, live) = {
            let mut mem = self.mem.lock().expect("cache poisoned");
            if !mem.insert_fresh(key, result) {
                return;
            }
            let evicted = self.max_entries.map_or(0, |max| mem.evict_to(max));
            (evicted, mem.map.len())
        };
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            chipmunk_trace::counter_add!("serve.cache.evicted", evicted);
        }
        if let Some(log) = &self.log {
            if log.append(&record(key, result), false, live) {
                let _ = self.compact();
            }
        }
    }

    /// Rewrite `results.jsonl` to exactly the retained in-memory entries
    /// (in LRU order, oldest first), dropping evicted / duplicate /
    /// corrupt lines, with the durable log's crash safety. A
    /// success also re-attaches a degraded disk tier; a failure degrades
    /// it and is returned for the on-demand `cache --compact` op to
    /// report. Returns `(lines_before, lines_after)`; memory-only caches
    /// return `(0, 0)` without touching anything.
    pub fn compact(&self) -> std::io::Result<(u64, u64)> {
        let Some(log) = &self.log else {
            return Ok((0, 0));
        };
        // Lock order everywhere: the map before the log.
        let mem = self.mem.lock().expect("cache poisoned");
        let res = log.rewrite(
            mem.lru
                .values()
                .map(|key| record(key, &mem.map[key].result)),
        );
        if res.is_ok() {
            chipmunk_trace::counter_add!("serve.cache.compacted", 1);
        }
        res
    }

    /// Drop every entry from both tiers. Returns how many entries went.
    pub fn clear(&self) -> std::io::Result<u64> {
        let dropped = {
            let mut mem = self.mem.lock().expect("cache poisoned");
            let n = mem.map.len() as u64;
            mem.map.clear();
            mem.lru.clear();
            n
        };
        self.compact()?;
        Ok(dropped)
    }

    /// Quarantine: drop one entry from **both** tiers. Used when a cached
    /// result fails certification — the entry must not be served again,
    /// even after a restart, so the disk tier is compacted down to the
    /// retained set (best-effort: a failing disk degrades the tier as
    /// usual, and the entry is still gone from memory, which is the tier
    /// lookups read). Returns whether the key was present.
    pub fn remove(&self, key: &str) -> bool {
        let removed = {
            let mut mem = self.mem.lock().expect("cache poisoned");
            match mem.map.remove(key) {
                Some(entry) => {
                    mem.lru.remove(&entry.tick);
                    true
                }
                None => false,
            }
        };
        if removed {
            let _ = self.compact();
        }
        removed
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache poisoned").map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.max_entries
    }

    /// Counted lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Counted lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to keep the cache under its bound (including any
    /// dropped while loading an over-bound file at startup).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Completed compaction passes (startup, automatic, and on-demand).
    pub fn compactions(&self) -> u64 {
        self.log.as_ref().map_or(0, DurableLog::rewrites)
    }

    /// Lines currently in `results.jsonl` (0 for memory-only caches).
    /// Exceeds [`len`](ResultCache::len) by the evicted / duplicate /
    /// corrupt lines a compaction would drop.
    pub fn disk_lines(&self) -> u64 {
        self.log.as_ref().map_or(0, DurableLog::lines)
    }

    /// Whether the disk tier is detached after an I/O error (memory-only
    /// degraded mode). Always false for caches opened without a
    /// directory — they have no tier to lose.
    pub fn degraded(&self) -> bool {
        self.log.as_ref().is_some_and(DurableLog::degraded)
    }

    /// Disk I/O errors absorbed so far (failed appends and compactions).
    pub fn disk_errors(&self) -> u64 {
        self.log.as_ref().map_or(0, DurableLog::errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("chipmunk-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn doc(v: u64) -> Json {
        Json::obj([("v", Json::from(v))])
    }

    #[test]
    fn memory_only_cache_round_trips() {
        let c = ResultCache::open(None).unwrap();
        assert_eq!(c.get("k1"), None);
        let doc = Json::obj([("stages", Json::from(2u64))]);
        c.put("k1", &doc);
        assert_eq!(c.get("k1"), Some(doc));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // Compaction and clear are safe without a disk tier.
        assert_eq!(c.compact().unwrap(), (0, 0));
        assert_eq!(c.clear().unwrap(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn disk_cache_survives_reopen() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("reopen");
        let doc = Json::obj([("stages", Json::from(3u64))]);
        {
            let c = ResultCache::open(Some(&dir)).unwrap();
            c.put("deadbeef00000000", &doc);
        }
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek("deadbeef00000000"), Some(doc));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped_on_load() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("results.jsonl"),
            "{\"key\":\"aa\",\"result\":{\"v\":1}}\nnot json\n{\"nokey\":true}\n",
        )
        .unwrap();
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.peek("aa").is_some());
        // The startup pass compacted the garbage away.
        assert_eq!(c.disk_lines(), 1);
        let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a mid-file *read* error (not just a corrupt
    /// line) must not abort `open` — keep what parsed, stay appendable.
    #[test]
    fn unreadable_line_stops_the_load_but_not_the_cache() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("unreadable");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = b"{\"key\":\"aa\",\"result\":{\"v\":1}}\n".to_vec();
        bytes.extend(b"\xff\xfe\xff broken utf-8 \xff\n");
        bytes.extend(b"{\"key\":\"bb\",\"result\":{\"v\":2}}\n");
        std::fs::write(dir.join("results.jsonl"), &bytes).unwrap();
        let c = ResultCache::open(Some(&dir)).unwrap();
        // Loading stopped at the unreadable line; the prefix survived.
        assert_eq!(c.len(), 1);
        assert!(c.peek("aa").is_some());
        // …and the cache still accepts and persists fresh entries.
        c.put("cc", &doc(3));
        drop(c);
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.peek("aa").is_some());
        assert!(c.peek("cc").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_write_one_disk_line() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("dedup");
        let doc = Json::obj([("v", Json::from(1u64))]);
        {
            let c = ResultCache::open(Some(&dir)).unwrap();
            c.put("k", &doc);
            c.put("k", &doc);
        }
        let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a duplicate `put` must not replace the
    /// in-memory value while skipping the disk append — that leaves the
    /// tiers disagreeing until a restart silently reverts the answer.
    /// First write wins in *both* tiers.
    #[test]
    fn duplicate_put_leaves_both_tiers_agreeing() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("fww");
        {
            let c = ResultCache::open(Some(&dir)).unwrap();
            c.put("k", &doc(1));
            c.put("k", &doc(2)); // racing twin: ignored everywhere
            assert_eq!(c.peek("k"), Some(doc(1)));
        }
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert_eq!(c.peek("k"), Some(doc(1)), "restart must agree with memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Racing duplicate puts from many threads: whatever value won, both
    /// tiers agree on it after a reopen.
    #[test]
    fn racing_duplicate_puts_keep_tiers_consistent() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("race");
        let winner = {
            let c = std::sync::Arc::new(ResultCache::open(Some(&dir)).unwrap());
            let threads: Vec<_> = (0..8)
                .map(|i| {
                    let c = c.clone();
                    std::thread::spawn(move || c.put("k", &doc(i)))
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            c.peek("k").unwrap()
        };
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek("k"), Some(winner));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let c = ResultCache::open_bounded(None, Some(2)).unwrap();
        c.put("a", &doc(1));
        c.put("b", &doc(2));
        assert!(c.get("a").is_some()); // refresh a: b is now LRU
        c.put("c", &doc(3)); // evicts b
        assert_eq!(c.evictions(), 1);
        assert!(c.peek("a").is_some());
        assert!(c.peek("b").is_none());
        assert!(c.peek("c").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn compaction_drops_evicted_entries_from_disk() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("compact");
        {
            let c = ResultCache::open_bounded(Some(&dir), Some(2)).unwrap();
            for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
                c.put(k, &doc(i as u64));
            }
            assert_eq!(c.len(), 2);
            assert_eq!(c.evictions(), 2);
            assert_eq!(c.disk_lines(), 4); // appends accumulate…
            let (before, after) = c.compact().unwrap();
            assert_eq!((before, after), (4, 2)); // …until compaction
            assert_eq!(c.disk_lines(), 2);
            assert!(c.compactions() >= 1);
            // The fresh append handle still works post-rename.
            c.put("e", &doc(9));
            assert_eq!(c.disk_lines(), 3);
        }
        let c = ResultCache::open_bounded(Some(&dir), Some(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.peek("a").is_none());
        assert!(c.peek("b").is_none());
        for k in ["c", "d", "e"] {
            assert!(c.peek(k).is_some(), "lost retained key {k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_compaction_shrinks_an_over_bound_file() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("startbound");
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!("{{\"key\":\"k{i}\",\"result\":{{\"v\":{i}}}}}\n"));
        }
        text.push_str("{\"key\":\"k0\",\"result\":{\"v\":99}}\n"); // duplicate
        std::fs::write(dir.join("results.jsonl"), text).unwrap();
        let c = ResultCache::open_bounded(Some(&dir), Some(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.disk_lines(), 3);
        // First occurrence of k0 won, but k0/k1 were the LRU victims.
        assert!(c.peek("k0").is_none());
        for k in ["k2", "k3", "k4"] {
            assert!(c.peek(k).is_some(), "lost retained key {k}");
        }
        let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_both_tiers() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("clear");
        {
            let c = ResultCache::open(Some(&dir)).unwrap();
            c.put("a", &doc(1));
            c.put("b", &doc(2));
            assert_eq!(c.clear().unwrap(), 2);
            assert!(c.is_empty());
            assert_eq!(c.disk_lines(), 0);
        }
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert!(c.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_quarantines_from_both_tiers() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("quarantine");
        {
            let c = ResultCache::open(Some(&dir)).unwrap();
            c.put("good", &doc(1));
            c.put("bad", &doc(2));
            assert!(c.remove("bad"), "present key must report removed");
            assert!(!c.remove("bad"), "second remove is a no-op");
            assert!(!c.remove("ghost"), "unknown key is a no-op");
            assert_eq!(c.len(), 1);
            assert!(c.get("bad").is_none());
            assert!(c.get("good").is_some());
            // The disk tier forgot it too (compacted to the retained set).
            assert_eq!(c.disk_lines(), 1);
        }
        // …so a restart cannot resurrect the quarantined entry.
        let c = ResultCache::open(Some(&dir)).unwrap();
        assert!(c.get("bad").is_none());
        assert!(c.get("good").is_some());
        // LRU index stays coherent after the removal: filling past a
        // bound still evicts cleanly.
        let bounded = ResultCache::open_bounded(None, Some(2)).unwrap();
        bounded.put("a", &doc(1));
        bounded.put("b", &doc(2));
        assert!(bounded.remove("a"));
        bounded.put("c", &doc(3));
        bounded.put("d", &doc(4));
        assert_eq!(bounded.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_bounds_the_disk_tier() {
        let _f = crate::faults::test_lock();
        let dir = tmpdir("autocompact");
        let c = ResultCache::open_bounded(Some(&dir), Some(4)).unwrap();
        for i in 0..200u64 {
            c.put(&format!("k{i}"), &doc(i));
        }
        assert_eq!(c.len(), 4);
        // The file never grows far past 2 × bound (plus the slack floor).
        assert!(
            c.disk_lines() <= 17,
            "disk tier unbounded: {} lines",
            c.disk_lines()
        );
        assert!(c.compactions() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
