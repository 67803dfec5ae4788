//! Seeded generator of the open-loop replay trace.
//!
//! The replay workload needs a memory trace the simulator has never
//! seen, made only from the benchmark seed: a mix of reads and writes,
//! half of them walking sequential streams (which the AMB prefetcher
//! can use) and half landing on random lines (which it cannot), with
//! exponentially distributed gaps at a fixed mean inter-arrival time.
//! The output is the CSV that `MemoryTrace::from_csv` parses, so the
//! parse is part of the measured set-up.

use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed, seedable stream. Owned here so the
/// generated trace never changes with a dependency's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shape of a generated trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceGen {
    /// Records to emit.
    pub records: usize,
    /// Probability that a record is a write.
    pub write_share: f64,
    /// Probability that a record continues a sequential stream (the
    /// rest pick a uniformly random line).
    pub stream_share: f64,
    /// Mean gap between consecutive arrivals, in picoseconds.
    pub mean_gap_ps: f64,
    /// Concurrent sequential streams; stream `i` issues as core `i`.
    pub streams: u32,
    /// Random lines fall in `[0, footprint_lines)`.
    pub footprint_lines: u64,
}

/// A generated trace: its CSV text and what it holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneratedTrace {
    /// `arrival_ps,kind,line,core` rows behind a header.
    pub csv: String,
    /// Read (`R`) records.
    pub reads: u64,
    /// Write (`W`) records.
    pub writes: u64,
    /// Arrival of the last record, in picoseconds.
    pub last_arrival_ps: u64,
}

impl TraceGen {
    /// Emits the trace for `seed`; the same seed gives the same bytes.
    pub fn generate(&self, seed: u64) -> GeneratedTrace {
        let mut rng = SplitMix64::new(seed);
        // Streams start at random, well separated 4 KiB-aligned bases.
        let mut cursors: Vec<u64> = (0..self.streams)
            .map(|_| (rng.next_u64() % self.footprint_lines) & !63)
            .collect();
        let mut csv = String::with_capacity(self.records * 24 + 32);
        csv.push_str("arrival_ps,kind,line,core\n");
        let (mut reads, mut writes, mut at) = (0, 0, 0u64);
        for _ in 0..self.records {
            // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
            let gap = -(1.0 - rng.next_f64()).ln() * self.mean_gap_ps;
            at += gap.round() as u64;
            let write = rng.next_f64() < self.write_share;
            let (line, core) = if rng.next_f64() < self.stream_share {
                let s = (rng.next_u64() % u64::from(self.streams)) as usize;
                let line = cursors[s] % self.footprint_lines;
                cursors[s] += 1;
                (line, s as u32)
            } else {
                (rng.next_u64() % self.footprint_lines, self.streams)
            };
            if write {
                writes += 1;
            } else {
                reads += 1;
            }
            let kind = if write { 'W' } else { 'R' };
            writeln!(csv, "{at},{kind},{line},{core}").expect("writing to a String cannot fail");
        }
        GeneratedTrace {
            csv,
            reads,
            writes,
            last_arrival_ps: at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TraceGen {
        TraceGen {
            records: 20_000,
            write_share: 1.0 / 3.0,
            stream_share: 0.5,
            mean_gap_ps: 5_000.0,
            streams: 4,
            footprint_lines: 1 << 22,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let g = shape();
        assert_eq!(g.generate(7), g.generate(7));
        assert_ne!(g.generate(7).csv, g.generate(8).csv);
    }

    #[test]
    fn hits_the_configured_write_share_and_rate() {
        let g = shape();
        for seed in [1, 2, 3] {
            let t = g.generate(seed);
            assert_eq!(t.reads + t.writes, g.records as u64);
            let share = t.writes as f64 / g.records as f64;
            assert!((share - g.write_share).abs() < 0.02, "write share {share}");
            let mean_gap = t.last_arrival_ps as f64 / g.records as f64;
            let rel = (mean_gap - g.mean_gap_ps).abs() / g.mean_gap_ps;
            assert!(rel < 0.03, "mean gap {mean_gap} ps");
        }
    }

    #[test]
    fn csv_parses_back_record_for_record() {
        let t = shape().generate(11);
        let trace = fbd_core::MemoryTrace::from_csv(t.csv.as_bytes()).expect("well-formed CSV");
        assert_eq!(trace.len() as u64, t.reads + t.writes);
        let writes = trace
            .records()
            .iter()
            .filter(|r| r.kind == fbd_types::request::AccessKind::Write)
            .count() as u64;
        assert_eq!(writes, t.writes);
        assert_eq!(
            trace.records().last().map(|r| r.arrival.as_ps()),
            Some(t.last_arrival_ps)
        );
    }
}
