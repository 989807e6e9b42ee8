//! Synthetic packet-trace generation for the corpus programs.
//!
//! The paper's benchmarks are *algorithmic* packet programs (§2.1): their
//! interesting behaviour only shows up on traces with realistic temporal
//! structure — bursts separated by idle gaps for flowlet switching, mostly
//! in-order sequence numbers with occasional swaps for reorder detection,
//! a sprinkle of congestion signals for BLUE. This module generates such
//! traces deterministically from a seed, keyed by the *names* of a
//! program's packet fields, so one generator serves every benchmark (and
//! any user program that follows the same naming conventions).
//!
//! | field name | generated behaviour |
//! |---|---|
//! | `arrival`, `now` | monotone clock; bursts of 2–6 packets, idle gaps |
//! | `seq` | increasing, with adjacent swaps at ~6% (injected reordering) |
//! | `hash_0`.. | stable per-burst value (a "flow" sticks to its hash) |
//! | `dir`, `drop`, `ecn`, `refill`, `mark` | Bernoulli 0/1 |
//! | `size`, `len`, `bytes`, `rtt` | uniform in the low range |
//! | anything else | uniform over the width |

use chipmunk_lang::Program;
use chipmunk_trace::rng::SplitMix64;

/// Deterministic trace generator.
pub struct Workload {
    seed: u64,
    width: u8,
}

struct Rng(SplitMix64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

impl Workload {
    /// A generator for traces of `width`-bit field values.
    pub fn new(seed: u64, width: u8) -> Workload {
        assert!((1..=64).contains(&width));
        Workload { seed, width }
    }

    /// Generate `n` packets for `prog`: one `Vec<u64>` of field values per
    /// packet, indexed like [`Program::field_names`]. Deterministic in the
    /// seed.
    pub fn generate(&self, prog: &Program, n: usize) -> Vec<Vec<u64>> {
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let names = prog.field_names();
        let mut rng = Rng(SplitMix64(self.seed));
        let mut clock: u64 = rng.below(8);
        let mut seq: u64 = 0;
        let mut burst_left: u64 = 0;
        let mut flow_hash: u64 = rng.next() & mask;
        let mut out: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut pending_swap: Option<usize> = None;

        for k in 0..n {
            // Burst structure drives the clock and the flow hash.
            if burst_left == 0 {
                burst_left = 2 + rng.below(5);
                clock = clock.wrapping_add(5 + rng.below(20));
                flow_hash = rng.next() & mask;
            } else {
                clock = clock.wrapping_add(rng.below(3));
            }
            burst_left -= 1;
            seq = seq.wrapping_add(1);

            let pkt: Vec<u64> = names
                .iter()
                .map(|name| {
                    let v = match name.as_str() {
                        "arrival" | "now" => clock,
                        "seq" => seq,
                        n2 if n2.starts_with("hash") => flow_hash,
                        "dir" | "drop" | "ecn" | "refill" | "mark" => u64::from(rng.chance(35)),
                        "size" | "len" | "bytes" | "rtt" => rng.below(16),
                        _ => rng.next(),
                    };
                    v & mask
                })
                .collect();
            out.push(pkt);

            // Inject reordering: swap this packet with the previous one at
            // ~6%, never twice in a row.
            if k > 0 && pending_swap.is_none() && rng.chance(6) {
                pending_swap = Some(k);
            } else if let Some(i) = pending_swap.take() {
                if i + 1 == k {
                    out.swap(i, k);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::by_name;

    #[test]
    fn traces_are_deterministic_and_masked() {
        let b = by_name("flowlet-switching").unwrap();
        let prog = b.program();
        let w = Workload::new(7, 10);
        let t1 = w.generate(&prog, 200);
        let t2 = w.generate(&prog, 200);
        assert_eq!(t1, t2);
        assert_ne!(t1, Workload::new(8, 10).generate(&prog, 200));
        for pkt in &t1 {
            assert_eq!(pkt.len(), prog.field_names().len());
            for &v in pkt {
                assert!(v < 1024);
            }
        }
    }

    #[test]
    fn clock_fields_are_monotone_within_reason() {
        let b = by_name("blue-increase").unwrap();
        let prog = b.program();
        let idx = prog
            .field_names()
            .iter()
            .position(|n| n == "now")
            .expect("field");
        let trace = Workload::new(3, 10).generate(&prog, 300);
        // Wrapping aside (10-bit clock), consecutive samples mostly ascend.
        let ascents = trace.windows(2).filter(|w| w[1][idx] >= w[0][idx]).count();
        assert!(ascents * 10 >= trace.len() * 8, "clock too jumpy");
    }

    #[test]
    fn sequence_numbers_contain_injected_reordering() {
        let b = by_name("detect-reordering").unwrap();
        let prog = b.program();
        let idx = prog
            .field_names()
            .iter()
            .position(|n| n == "seq")
            .expect("field");
        let trace = Workload::new(11, 10).generate(&prog, 1000);
        let inversions = trace
            .windows(2)
            .filter(|w| w[1][idx] < w[0][idx] && w[0][idx] - w[1][idx] < 5)
            .count();
        assert!(inversions > 5, "no reordering injected ({inversions})");
        assert!(inversions < 200, "too much reordering ({inversions})");
    }

    #[test]
    fn bursts_share_a_hash_and_gaps_change_it() {
        let b = by_name("flowlet-switching").unwrap();
        let prog = b.program();
        let names = prog.field_names();
        let h = names.iter().position(|n| n == "hash_0").unwrap();
        let a = names.iter().position(|n| n == "arrival").unwrap();
        let trace = Workload::new(5, 10).generate(&prog, 400);
        let mut same_when_close = 0;
        let mut total_close = 0;
        for w in trace.windows(2) {
            let gap = w[1][a].wrapping_sub(w[0][a]) & 1023;
            if gap < 4 {
                total_close += 1;
                if w[1][h] == w[0][h] {
                    same_when_close += 1;
                }
            }
        }
        assert!(total_close > 50);
        // Within a burst the flow hash is stable (modulo injected swaps).
        assert!(same_when_close * 10 >= total_close * 9);
    }
}
