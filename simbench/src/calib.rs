//! Host-speed probe: a fixed kernel timed between repetitions, so that
//! host times can be scaled to a reference host speed.
//!
//! On a shared host the simulator's speed swings by a third or more for
//! seconds to minutes at a time while neighbours contend for the
//! machine: for its caches and memory, and for the core itself. The
//! probe does the kind of work the simulator does — hashing,
//! a data-dependent branch, and independent random reads over an
//! L1-sized, an L2-sized and a larger-than-L2 region, with writes to the
//! largest — so it slows when the simulator does. Over 8 minutes of
//! repetitions of `8C-1` and of `1C-parser`, the hot loop's time and the
//! probe's correlated at 0.70 and 0.74, and scaling cut the spread of
//! repetition times (quartile distance over median) from 0.25–0.28 to
//! 0.14.
//!
//! A repetition's scale is [`REFERENCE_S`] over the mean of the probes
//! run just before and just after it; host times multiplied by it read
//! as seconds on the reference host at its usual speed. The probes sit
//! only at the ends of a repetition, so they track the host best when a
//! repetition is short: every workload's takes about 0.5–1.5 s.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 4 MiB of `u32`, twice one core's L2 on the reference
/// host. The L1 and L2 regions are its first 16 KiB and 1 MiB.
const TABLE: usize = 1 << 20;
const L1_REGION: usize = 1 << 12;
const L2_REGION: usize = 1 << 18;

/// Kernel steps per probe (about 20 ms on the reference host).
const STEPS: u64 = 2_000_000;

/// The probe's time on the reference host, a 2-vCPU Intel Xeon VM at
/// 2.1 GHz (2 MiB L2 per core): about its median there, which ranged
/// from 17 to 24 ms over runs.
pub const REFERENCE_S: f64 = 0.02;

/// The probe kernel and its table.
pub struct Probe {
    table: Vec<u32>,
}

impl Probe {
    /// Builds the table (same contents on every run).
    pub fn new() -> Probe {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let table = (0..TABLE)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u32
            })
            .collect();
        Probe { table }
    }

    /// Runs the kernel once; returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut h = 0x243f_6a88_85a3_08d3u64;
        let mut acc = 0u32;
        for k in 0..STEPS {
            h = (h ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let a = (h >> 12) as usize & (L1_REGION - 1);
            let b = (h >> 24) as usize & (L2_REGION - 1);
            let c = (h >> 44) as usize & (TABLE - 1);
            let x = self.table[a]
                .wrapping_add(self.table[b])
                .wrapping_add(self.table[c]);
            if x & 3 == 0 {
                acc = acc.wrapping_add(x);
            } else {
                self.table[c ^ 1] ^= x;
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// The probe, timed once at the start and once after every repetition.
pub struct HostSpeed {
    probe: Probe,
    times: Vec<f64>,
}

impl HostSpeed {
    /// Builds the probe and times it once.
    pub fn new() -> HostSpeed {
        let mut probe = Probe::new();
        let first = probe.time();
        HostSpeed {
            probe,
            times: vec![first],
        }
    }

    /// Times the probe again and returns the scale for the repetition
    /// run since the previous probe.
    pub fn scale_since_last(&mut self) -> f64 {
        let before = self.times[self.times.len() - 1];
        let after = self.probe.time();
        self.times.push(after);
        REFERENCE_S * 2.0 / (before + after)
    }

    /// Every probe time so far, in seconds.
    pub fn probe_times(&self) -> &[f64] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_come_from_the_probes_around_a_repetition() {
        let mut host = HostSpeed::new();
        for _ in 0..3 {
            let scale = host.scale_since_last();
            let t = host.probe_times();
            let (before, after) = (t[t.len() - 2], t[t.len() - 1]);
            assert!(before > 0.0 && after.is_finite() && after > 0.0, "{t:?}");
            assert_eq!(scale, REFERENCE_S * 2.0 / (before + after));
        }
        assert_eq!(host.probe_times().len(), 4);
    }
}
