//! End-to-end times in units of a reference host.
//!
//! The benchmark runs on shared hosts whose speed changes through
//! contention the guest cannot see (CPU time grows with wall time, so
//! measuring CPU time does not help): a fixed computation flips between
//! a fast and a ~60% slower state every 10–300 ms, and the share of
//! time spent slow drifts over minutes. The benchmark therefore times a
//! fixed reference computation, which shares no code with OWL, between
//! operations — about a tenth as long as the operations took, at least
//! once — and scales the wall time of each operation and set-up by
//! [`REFERENCE_MS`] over the mean of the reference timings taken within
//! [`WINDOW`] of it. A reported time is the time the operation would
//! take on a host where the reference computation takes
//! [`REFERENCE_MS`]: a change to OWL moves it as it moves the wall time,
//! while the host's drift moves both and cancels. The raw wall times are
//! printed in the detail line.

use crate::gen::SplitMix64;
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference computation's time on the reference host, ms.
pub const REFERENCE_MS: f64 = 1.0;

/// Reference timings this close to a value's time span scale it: long
/// enough to average over many fast/slow flips, short next to the
/// drift of the slow share.
const WINDOW: Duration = Duration::from_millis(2500);

/// Pause between two reference timings of one [`Paced::pace`], so that
/// they sample the host at different moments.
const GAP: Duration = Duration::from_millis(10);

/// The reference computation and its scratch memory, allocated once
/// so that the allocator's state, which OWL's work leaves behind, does
/// not enter its timing.
#[derive(Debug)]
struct Reference {
    /// 256 KiB, about a core's L2 cache.
    table: Vec<u64>,
    map: HashMap<u64, u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: vec![0; 1 << 15],
            map: HashMap::with_capacity(4096),
        }
    }
}

impl Reference {
    /// One run: random reads and writes over the table and hash-map
    /// updates — the kinds of work OWL's interpreter, detectors and
    /// verifiers do — from a fixed seed, allocating nothing. Returns a
    /// value derived from all of it, so none of it can be optimized
    /// away.
    fn work(&mut self) -> u64 {
        let mut rng = SplitMix64::new(0x0c0f_fee0);
        let mask = self.table.len() - 1;
        self.table.fill(0);
        self.map.clear();
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            let x = rng.next_u64();
            self.table[x as usize & mask] = self.table[x as usize & mask].wrapping_add(x);
            acc ^= self.table[(x >> 20) as usize & mask];
            if i % 8 == 0 {
                *self.map.entry(x & 4095).or_insert(0) += 1;
            }
        }
        acc ^ self.map.len() as u64
    }

    /// The host's current speed: the median wall time, ms, of three
    /// runs, after one untimed run that brings the scratch memory into
    /// the caches whatever ran before.
    fn time_ms(&mut self) -> f64 {
        black_box(self.work());
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(self.work());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&runs).expect("three runs")
    }
}

/// A wall time and the span it was measured over.
#[derive(Clone, Copy, Debug)]
struct Timed {
    value: f64,
    start: Instant,
    end: Instant,
}

/// Set-up and operation wall times, and reference timings taken
/// between them.
#[derive(Debug, Default)]
pub struct Paced {
    reference: Reference,
    /// When each reference timing was taken, and its ms.
    samples: Vec<(Instant, f64)>,
    /// Set-up seconds.
    setups: Vec<Timed>,
    /// Operation milliseconds.
    ops: Vec<Timed>,
}

impl Paced {
    /// Times the reference computation for about a tenth of `busy`, the
    /// time the operations since the last call took, every [`GAP`], and
    /// at least once.
    pub fn pace(&mut self, busy: Duration) {
        let until = Instant::now() + busy / 10;
        loop {
            let ms = self.reference.time_ms();
            self.samples.push((Instant::now(), ms));
            if Instant::now() + GAP >= until {
                return;
            }
            std::thread::sleep(GAP);
        }
    }

    /// Records a set-up that started at `start` and took `secs`.
    pub fn setup(&mut self, secs: f64, start: Instant) {
        self.setups.push(Timed {
            value: secs,
            start,
            end: Instant::now(),
        });
    }

    /// Records an operation that took `ms` and ran within the span from
    /// `start` until now.
    pub fn op(&mut self, ms: f64, start: Instant) {
        self.ops.push(Timed {
            value: ms,
            start,
            end: Instant::now(),
        });
    }

    /// The reference timings, ms.
    pub fn samples(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ms)| ms).collect()
    }

    /// Set-up wall times as recorded.
    pub fn setups_wall(&self) -> Vec<f64> {
        self.setups.iter().map(|t| t.value).collect()
    }

    /// Operation wall times as recorded.
    pub fn ops_wall(&self) -> Vec<f64> {
        self.ops.iter().map(|t| t.value).collect()
    }

    /// Set-up times scaled to the reference host.
    pub fn setups_scaled(&self) -> Vec<f64> {
        self.setups.iter().map(|t| self.scaled(t)).collect()
    }

    /// Operation times scaled to the reference host.
    pub fn ops_scaled(&self) -> Vec<f64> {
        self.ops.iter().map(|t| self.scaled(t)).collect()
    }

    /// `t`'s value scaled by the mean reference timing within [`WINDOW`]
    /// of its span, or by the nearest timing if none is that close.
    fn scaled(&self, t: &Timed) -> f64 {
        let distance = |at: Instant| {
            if at < t.start {
                t.start - at
            } else {
                at.saturating_duration_since(t.end)
            }
        };
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| distance(at) <= WINDOW)
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            near.extend(
                self.samples
                    .iter()
                    .min_by_key(|&&(at, _)| distance(at))
                    .map(|&(_, ms)| ms),
            );
        }
        if near.is_empty() {
            return t.value;
        }
        t.value * REFERENCE_MS * near.len() as f64 / near.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_takes_time() {
        let mut r = Reference::default();
        let first = r.work();
        assert_eq!(r.work(), first);
        assert!(r.time_ms() > 0.0);
    }

    #[test]
    fn pace_samples_for_a_tenth_of_the_busy_time() {
        let mut p = Paced::default();
        p.pace(Duration::ZERO);
        assert_eq!(p.samples().len(), 1, "at least one timing");
        // A 200 ms budget holds more than one timing unless a single
        // one takes most of it.
        p.pace(Duration::from_secs(2));
        assert!(p.samples().len() >= 2, "{} timings", p.samples().len());
    }

    #[test]
    fn values_scale_by_the_timings_near_them() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let span = |value, start, end| Timed {
            value,
            start: at(start),
            end: at(end),
        };
        let p = Paced {
            samples: vec![(at(0), 2.0), (at(1000), 4.0), (at(10_000), 8.0)],
            ..Paced::default()
        };
        // Within 2.5 s of the first two timings only: their mean is 3.
        assert!((p.scaled(&span(9.0, 100, 900)) - 3.0).abs() < 1e-12);
        // Nothing within 2.5 s: the nearest timing, 8.
        assert!((p.scaled(&span(16.0, 6000, 7000)) - 2.0).abs() < 1e-12);
        assert_eq!(Paced::default().scaled(&span(7.0, 0, 1)), 7.0);
    }
}
