//! Small statistics helpers shared by the workloads: nearest-rank
//! percentiles that carry their sample count, geometric means, and the
//! open-loop lateness accounting of the serve load generator, and the
//! timing of repeated set-ups.

use std::time::{Duration, Instant};

/// A percentile together with the number of samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`, which need not be
/// sorted. `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    Some(Percentile {
        value: sorted[idx],
        samples: sorted.len(),
    })
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of strictly positive samples; `None` when the sample is
/// empty or holds a value that is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Timing of one open-loop request, all offsets from the start of the
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopTiming {
    /// Response time counted from when the request was due, so a stall
    /// charges its wait to every request queued behind it.
    pub latency: Duration,
    /// How late the generator sent the request (0 when on time).
    pub late: Duration,
}

/// Account one open-loop request that was due at `due`, sent at `sent` and
/// answered at `done`.
pub fn open_loop(due: Duration, sent: Duration, done: Duration) -> OpenLoopTiming {
    OpenLoopTiming {
        latency: done.saturating_sub(due),
        late: sent.saturating_sub(due),
    }
}

/// How many times a workload sets up in one run.
pub const SETUPS: usize = 7;

/// Set up [`SETUPS`] times, dropping each set-up before the next is timed;
/// return the last set-up and the fastest time in seconds. Set-up does the
/// same work every time, so the fastest is the one least disturbed by
/// other load on the machine.
pub fn repeat_setup<T, E>(mut set_up: impl FnMut(usize) -> Result<T, E>) -> Result<(T, f64), E> {
    let mut kept = None;
    let mut fastest = f64::INFINITY;
    for i in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(set_up(i)?);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS > 0"), fastest))
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start a new peak-RSS window: hand the allocator's free pages back to
/// the kernel, then restart the `VmHWM` watermark at the current resident
/// set, so the next [`peak_rss_mb`] covers only what runs from here on
/// rather than what the allocator kept from earlier work.
pub fn restart_peak_rss() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count by value and
        // only returns free heap pages to the kernel; no live allocation
        // is touched.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn percentile_uses_nearest_rank_and_reports_sample_count() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 50.0,
                samples: 100
            }
        );
        assert_eq!(percentile(&xs, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 100.0);
        // A tiny sample: p99 of three values is the largest.
        let p = percentile(&[3.0, 1.0, 2.0], 99.0).unwrap();
        assert_eq!(
            p,
            Percentile {
                value: 3.0,
                samples: 3
            }
        );
        assert_eq!(percentile(&[7.0], 1.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn geomean_matches_hand_values_and_rejects_non_positive() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert!(geomean(&[1.0, -2.0]).is_none());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // Requests due every 10 ms; the first one stalls the connection
        // for 35 ms, so the next three are sent late.
        let t0 = open_loop(ms(0), ms(0), ms(35));
        assert_eq!(
            t0,
            OpenLoopTiming {
                latency: ms(35),
                late: ms(0)
            }
        );
        let t1 = open_loop(ms(10), ms(35), ms(36));
        assert_eq!(t1.latency, ms(26), "latency counts from the due time");
        assert_eq!(t1.late, ms(25));
        // An on-time request reports no lateness.
        let t4 = open_loop(ms(40), ms(40), ms(41));
        assert_eq!(
            t4,
            OpenLoopTiming {
                latency: ms(1),
                late: ms(0)
            }
        );
        // Clocks never run backwards into negative durations.
        assert_eq!(open_loop(ms(50), ms(49), ms(48)).latency, ms(0));
    }

    #[test]
    fn repeat_setup_keeps_the_last_set_up_and_stops_at_an_error() {
        let mut calls = Vec::new();
        let (last, secs) = repeat_setup(|i| -> Result<usize, ()> {
            calls.push(i);
            Ok(i)
        })
        .unwrap();
        assert_eq!(last, SETUPS - 1);
        assert_eq!(calls, (0..SETUPS).collect::<Vec<_>>());
        assert!(secs.is_finite() && secs >= 0.0);
        assert_eq!(
            repeat_setup(|i| if i == 2 { Err(i) } else { Ok(()) }),
            Err(2)
        );
    }
}
