//! A hardware stream prefetcher at the shared L2 (extension).
//!
//! The paper evaluates AMB prefetching together with *software* cache
//! prefetching and argues (§5.4) that hardware prefetching would
//! compose similarly. This module provides the hardware half of that
//! claim: a classic stream detector in the spirit of predictor-directed
//! stream buffers — it watches the L2 demand-miss stream, confirms
//! ascending unit-stride streams after two hits (with a small window to
//! tolerate out-of-order misses), and then runs `degree` lines ahead of
//! each confirmed stream.

use fbd_types::LineAddr;

/// Concurrent streams the prefetcher tracks.
const STREAMS: usize = 8;

/// Lines fetched ahead once a stream is confirmed.
const DEGREE: u64 = 4;

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Next line the stream expects to be demanded.
    expected: u64,
    /// +1 or −1 line per step.
    direction: i64,
    /// Confirmations observed (≥ 2 ⇒ prefetching).
    confidence: u8,
    /// Last line already requested ahead.
    issued_until: u64,
    /// Replacement clock.
    last_used: u64,
}

/// Stream-detecting hardware prefetcher: 8 streams, each run 4 lines
/// ahead once confirmed.
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    tick: u64,
}

impl StreamPrefetcher {
    /// An empty stream table.
    pub(crate) fn new() -> StreamPrefetcher {
        StreamPrefetcher {
            streams: Vec::with_capacity(STREAMS),
            tick: 0,
        }
    }

    /// Observes a demand miss and returns the lines to prefetch (empty
    /// until a stream is confirmed).
    pub fn on_demand_miss(&mut self, line: LineAddr) -> Vec<LineAddr> {
        self.tick += 1;
        let tick = self.tick;
        let addr = line.as_u64();

        // Does this miss continue a tracked stream (within a small
        // window, to tolerate slightly out-of-order misses)?
        if let Some(s) = self.streams.iter_mut().find(|s| {
            let delta = addr as i64 - s.expected as i64;
            (0..4).contains(&(delta * s.direction))
        }) {
            s.expected = (addr as i64 + s.direction) as u64;
            s.confidence = s.confidence.saturating_add(1);
            s.last_used = tick;
            if s.confidence >= 2 {
                let start = s.issued_until.max(addr);
                let target = (addr as i64 + (DEGREE as i64) * s.direction) as u64;
                let mut out = Vec::new();
                let mut next = (start as i64 + s.direction) as u64;
                while out.len() < DEGREE as usize && next != target.wrapping_add(1) {
                    out.push(LineAddr::new(next));
                    if next == target {
                        break;
                    }
                    next = (next as i64 + s.direction) as u64;
                }
                s.issued_until = target;
                return out;
            }
            return Vec::new();
        }

        // New candidate streams in both directions replace the coldest
        // entry.
        let slot = if self.streams.len() < STREAMS {
            self.streams.push(Stream {
                expected: 0,
                direction: 1,
                confidence: 0,
                issued_until: 0,
                last_used: 0,
            });
            self.streams.len() - 1
        } else {
            self.streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("non-empty table")
        };
        self.streams[slot] = Stream {
            expected: addr + 1,
            direction: 1,
            confidence: 1,
            issued_until: addr,
            last_used: tick,
        };
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new()
    }

    #[test]
    fn single_miss_trains_without_prefetching() {
        let mut p = pf();
        assert!(p.on_demand_miss(LineAddr::new(100)).is_empty());
    }

    #[test]
    fn second_sequential_miss_confirms_stream() {
        let mut p = pf();
        assert!(p.on_demand_miss(LineAddr::new(100)).is_empty());
        let out = p.on_demand_miss(LineAddr::new(101));
        assert_eq!(
            out,
            vec![
                LineAddr::new(102),
                LineAddr::new(103),
                LineAddr::new(104),
                LineAddr::new(105)
            ]
        );
    }

    #[test]
    fn confirmed_stream_runs_ahead_without_duplicates() {
        let mut p = pf();
        p.on_demand_miss(LineAddr::new(100));
        p.on_demand_miss(LineAddr::new(101)); // issues 102..=105
        let out = p.on_demand_miss(LineAddr::new(102));
        assert_eq!(out, vec![LineAddr::new(106)], "only the new frontier line");
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = pf();
        for line in [5u64, 1000, 37, 99999, 12, 40000, 777, 123456] {
            assert!(p.on_demand_miss(LineAddr::new(line)).is_empty());
        }
    }

    #[test]
    fn tracks_multiple_streams_concurrently() {
        let mut p = pf();
        p.on_demand_miss(LineAddr::new(100));
        p.on_demand_miss(LineAddr::new(5000));
        let a = p.on_demand_miss(LineAddr::new(101));
        let b = p.on_demand_miss(LineAddr::new(5001));
        assert!(!a.is_empty());
        assert!(!b.is_empty());
        assert_eq!(b[0], LineAddr::new(5002));
    }

    #[test]
    fn cold_streams_get_replaced() {
        let mut p = pf();
        // Fill the table, then one more candidate evicts the coldest
        // (the 100-stream).
        for k in 0..=STREAMS as u64 {
            p.on_demand_miss(LineAddr::new(100 * (k + 1)));
        }
        // The 100-stream is gone: its continuation trains from scratch.
        assert!(p.on_demand_miss(LineAddr::new(101)).is_empty());
    }

    #[test]
    fn tolerates_small_gaps_in_the_stream() {
        let mut p = pf();
        p.on_demand_miss(LineAddr::new(100));
        p.on_demand_miss(LineAddr::new(101));
        // Miss 103 (skipping 102, e.g. it hit in L2) still continues.
        let out = p.on_demand_miss(LineAddr::new(103));
        assert!(!out.is_empty());
        assert_eq!(*out.last().unwrap(), LineAddr::new(107));
    }
}
