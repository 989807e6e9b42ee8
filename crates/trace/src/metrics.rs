//! Process-wide counters and histograms.
//!
//! Counters are `static` atomics registered once per call site via the
//! [`counter_add!`](crate::counter_add) macro, so the hot-path cost with
//! tracing disabled is one relaxed load and a branch. Snapshots are
//! appended to the trace on [`crate::flush`] as `kind = "counter"` records
//! and aggregated by `chipmunkc trace-report`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A power-of-two-bucketed histogram of `u64` samples (bucket `k` counts
/// values with bit length `k`, i.e. `v == 0 → bucket 0`, otherwise
/// `bucket = 64 - v.leading_zeros()`).
pub struct Histogram {
    buckets: [AtomicU64; 65],
}

impl Histogram {
    /// An empty histogram, usable in `static` position.
    #[allow(clippy::declare_interior_mutable_const)]
    pub const fn new() -> Self {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; 65],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket counts (index = bit length of the sample).
    pub fn snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    /// Estimate the `p`-th percentile (`0 < p <= 100`) of the recorded
    /// samples. See [`percentile_of`] for the estimation rule; returns
    /// `None` for an empty histogram.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        percentile_of(&self.snapshot(), p)
    }
}

/// The largest sample value a bucket can hold: bucket `b` counts samples
/// of bit length `b`, so its inclusive upper bound is `2^b - 1` (bucket 0
/// holds only the value 0, and the last bucket saturates at `u64::MAX`).
pub fn bucket_upper_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        1..=63 => (1u64 << b) - 1,
        _ => u64::MAX,
    }
}

/// Estimate the `p`-th percentile from a bucket snapshot (as produced by
/// [`Histogram::snapshot`]).
///
/// The estimate uses the nearest-rank rule — rank `⌈p/100 · n⌉`, clamped
/// to at least 1 — walks the cumulative counts to the bucket containing
/// that rank, and reports the bucket's upper bound. The estimate is
/// therefore monotone in `p` and always lands in the same power-of-two
/// bucket as the exact nearest-rank quantile: a bounded, predictable
/// error in exchange for constant memory.
pub fn percentile_of(buckets: &[u64], p: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0 * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (b, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(bucket_upper_bound(b));
        }
    }
    Some(u64::MAX)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

static COUNTERS: Mutex<Vec<(&'static str, &'static Counter)>> = Mutex::new(Vec::new());
static HISTOGRAMS: Mutex<Vec<(&'static str, &'static Histogram)>> = Mutex::new(Vec::new());

/// Register a counter for inclusion in snapshots. Idempotent per counter;
/// the macro layer registers each call site's own counter once, and call
/// sites that share a name are summed in [`counter_snapshot`].
pub fn register_counter(name: &'static str, c: &'static Counter) {
    let mut v = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    if !v.iter().any(|(_, r)| std::ptr::eq(*r, c)) {
        v.push((name, c));
    }
}

/// Register a histogram for inclusion in snapshots. Idempotent per
/// histogram; call sites that share a name are merged in
/// [`histogram_snapshot`].
pub fn register_histogram(name: &'static str, h: &'static Histogram) {
    let mut v = HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
    if !v.iter().any(|(_, r)| std::ptr::eq(*r, h)) {
        v.push((name, h));
    }
}

/// Every counter name with the sum of its call sites' values, sorted by
/// name.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (n, c) in COUNTERS.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        *totals.entry(*n).or_default() += c.get();
    }
    totals.into_iter().collect()
}

/// Every histogram name with its call sites' buckets added together,
/// sorted by name.
pub fn histogram_snapshot() -> Vec<(&'static str, Vec<u64>)> {
    let mut merged: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (n, h) in HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let buckets = merged.entry(*n).or_insert_with(|| vec![0; 65]);
        for (total, b) in buckets.iter_mut().zip(h.snapshot()) {
            *total += b;
        }
    }
    merged.into_iter().collect()
}

/// Bump a named counter when tracing is enabled.
///
/// ```
/// chipmunk_trace::counter_add!("sat.conflicts", 3);
/// ```
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static C: $crate::metrics::Counter = $crate::metrics::Counter::new();
            static REG: ::std::sync::Once = ::std::sync::Once::new();
            REG.call_once(|| $crate::metrics::register_counter($name, &C));
            C.add($n as u64);
        }
    }};
}

/// Record a sample in a named histogram when tracing is enabled.
#[macro_export]
macro_rules! histogram_record {
    ($name:literal, $v:expr) => {{
        if $crate::enabled() {
            static H: $crate::metrics::Histogram = $crate::metrics::Histogram::new();
            static REG: ::std::sync::Once = ::std::sync::Once::new();
            REG.call_once(|| $crate::metrics::register_histogram($name, &H));
            H.record($v as u64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        static C: Counter = Counter::new();
        register_counter("test.counter.alpha", &C);
        C.add(2);
        C.add(3);
        let snap = counter_snapshot();
        let (_, v) = snap
            .iter()
            .find(|(n, _)| *n == "test.counter.alpha")
            .expect("registered");
        assert!(*v >= 5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1 << 40); // bucket 41
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[2], 2);
        assert_eq!(snap[41], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn percentiles_on_known_samples() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None, "empty histogram has no p50");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        // rank(p50) = 3 → sample 3 → bucket 2 → upper bound 3.
        assert_eq!(h.percentile(50.0), Some(3));
        // rank(p99) = 5 → sample 1000 → bucket 10 → upper bound 1023.
        assert_eq!(h.percentile(99.0), Some(1023));
        assert_eq!(h.percentile(0.0), Some(1), "p0 clamps to rank 1");
    }

    #[test]
    fn bucket_upper_bounds_bracket_their_samples() {
        for v in [0u64, 1, 2, 3, 4, 255, 256, 1 << 40, u64::MAX] {
            let b = (64 - v.leading_zeros()) as usize;
            assert!(v <= bucket_upper_bound(b), "v={v} bucket={b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "v={v} bucket={b}");
            }
        }
    }

    /// Property: on random inputs the bucketed estimate is monotone in `p`
    /// and lands within one bucket boundary of the exact nearest-rank
    /// quantile (same power-of-two bucket, never below the exact value).
    #[test]
    fn percentile_estimates_are_monotone_and_bucket_accurate() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0x5105_0902);
        for case in 0..200 {
            let n = 1 + (rng.next_u64() % 500) as usize;
            // Mix of magnitudes so many buckets are exercised.
            let shift = rng.next_u64() % 48;
            let samples: Vec<u64> = (0..n).map(|_| rng.next_u64() >> shift).collect();
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let ps = [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
            let mut prev = 0u64;
            for &p in &ps {
                let est = h.percentile(p).expect("non-empty");
                assert!(
                    est >= prev,
                    "case {case}: estimate not monotone at p{p}: {est} < {prev}"
                );
                prev = est;
                let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let exact_bucket = (64 - exact.leading_zeros()) as usize;
                assert_eq!(
                    est,
                    bucket_upper_bound(exact_bucket),
                    "case {case}: p{p} estimate {est} strays from the bucket \
                     of the exact quantile {exact} (n={n})"
                );
                assert!(est >= exact, "case {case}: estimate below exact");
            }
        }
    }

    #[test]
    fn call_sites_that_share_a_name_are_summed() {
        // Two call sites of one name, as two `counter_add!` sites have:
        // one bumps it by 1 and the other by 10, five times each.
        static ONE: Counter = Counter::new();
        static TEN: Counter = Counter::new();
        register_counter("test.counter.shared", &ONE);
        register_counter("test.counter.shared", &TEN);
        for _ in 0..5 {
            ONE.add(1);
            TEN.add(10);
        }
        let shared: Vec<u64> = counter_snapshot()
            .into_iter()
            .filter(|(n, _)| *n == "test.counter.shared")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(shared, [55]);

        static SMALL: Histogram = Histogram::new();
        static LARGE: Histogram = Histogram::new();
        register_histogram("test.histogram.shared", &SMALL);
        register_histogram("test.histogram.shared", &LARGE);
        SMALL.record(1);
        LARGE.record(1);
        LARGE.record(1 << 20);
        let merged: Vec<Vec<u64>> = histogram_snapshot()
            .into_iter()
            .filter(|(n, _)| *n == "test.histogram.shared")
            .map(|(_, b)| b)
            .collect();
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0][1], merged[0][21]), (2, 1));
        assert_eq!(merged[0].iter().sum::<u64>(), 3);
    }

    #[test]
    fn duplicate_registration_is_ignored() {
        static C: Counter = Counter::new();
        register_counter("test.counter.dup", &C);
        register_counter("test.counter.dup", &C);
        let n = counter_snapshot()
            .iter()
            .filter(|(n, _)| *n == "test.counter.dup")
            .count();
        assert_eq!(n, 1);
    }
}
