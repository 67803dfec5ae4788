//! A single-resource reservation timeline.
//!
//! Links and buses in the simulator are resources that carry one thing at
//! a time. A [`Timeline`] hands out non-overlapping time windows aligned
//! to clock edges, filling gaps left by earlier reservations (a short
//! command can slip between two long data transfers, which is exactly
//! how the FB-DIMM southbound link interleaves commands and write data).

use std::collections::VecDeque;

use fbd_types::search::partition_point_from_back;
use fbd_types::time::{Dur, Time};

/// How far behind the newest reservation the timeline keeps history.
/// Reservations this far in the past can no longer be disturbed by new
/// traffic (the memory controller issues work in near-time order), so
/// intervals older than this are pruned and their span treated as busy.
const PRUNE_WINDOW: Dur = Dur::from_ps(5_000_000); // 5 µs

/// A single-resource timeline handing out non-overlapping busy windows.
///
/// # Examples
///
/// ```
/// use fbd_link::timeline::Timeline;
/// use fbd_types::time::{Dur, Time};
///
/// let mut tl = Timeline::new(Dur::from_ns(3));
/// let a = tl.reserve(Time::ZERO, Dur::from_ns(6));
/// let b = tl.reserve(Time::ZERO, Dur::from_ns(6));
/// assert_eq!(a, Time::ZERO);
/// assert_eq!(b, Time::from_ns(6)); // queued behind the first window
/// ```
#[derive(Clone, Debug)]
pub struct Timeline {
    clock: Dur,
    /// Sorted, disjoint busy intervals `[start, end)`.
    busy: VecDeque<(Time, Time)>,
    /// Everything before this instant is permanently unavailable.
    horizon: Time,
}

impl Timeline {
    /// Creates an idle timeline whose reservations start on multiples of
    /// `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is zero.
    pub fn new(clock: Dur) -> Timeline {
        assert!(!clock.is_zero(), "clock period must be non-zero");
        // Every caller reserves whole clocks, and `insert` merges
        // touching intervals, so each kept interval and the gap after
        // it span at least two clocks. The pruning in `reserve` thus
        // bounds the deque to one `PRUNE_WINDOW` of such pairs plus a
        // short scheduled-ahead tail. Reserving that bound up front
        // keeps reservations off the allocator for the whole run (the
        // steady-state allocation gate in `fig_throughput`).
        let cap = (PRUNE_WINDOW.as_ps() / (2 * clock.as_ps())) as usize + 256;
        Timeline {
            clock,
            busy: VecDeque::with_capacity(cap),
            horizon: Time::ZERO,
        }
    }

    /// Earliest start (on a clock edge, not before `not_before` or the
    /// prune horizon) of a free window of length `duration`.
    ///
    /// Pure: does not reserve.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn probe(&self, not_before: Time, duration: Dur) -> Time {
        assert!(!duration.is_zero(), "reservation must be non-zero");
        let mut start = not_before.max(self.horizon).align_up(self.clock);
        // The intervals are sorted and disjoint, so their ends never
        // decrease. One ending at or before `start` can neither hold the
        // window nor push it later, so the scan starts after all of them.
        // Probes land near the newest interval, so the search starts there.
        let first = partition_point_from_back(&self.busy, |&(_, e)| e <= start);
        for &(b_start, b_end) in self.busy.range(first..) {
            if start + duration <= b_start {
                break; // fits in the gap before this interval
            }
            if start < b_end {
                start = b_end.align_up(self.clock);
            }
        }
        start
    }

    /// Reference for [`probe`](Self::probe): the same gap search
    /// scanning every interval from the oldest.
    #[cfg(test)]
    fn probe_linear(&self, not_before: Time, duration: Dur) -> Time {
        let mut start = not_before.max(self.horizon).align_up(self.clock);
        for &(b_start, b_end) in &self.busy {
            if start + duration <= b_start {
                break;
            }
            if start < b_end {
                start = b_end.align_up(self.clock);
            }
        }
        start
    }

    /// Reserves the earliest free window of length `duration` at or after
    /// `not_before`; returns its start.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn reserve(&mut self, not_before: Time, duration: Dur) -> Time {
        let start = self.probe(not_before, duration);
        self.insert(start, start + duration);
        self.prune(start);
        start
    }

    /// Reserves a window at exactly `start` (which must be free and on a
    /// clock edge) — used when a previously probed window is committed.
    ///
    /// # Panics
    ///
    /// Panics if the window is not actually free.
    #[cfg(test)]
    fn reserve_at(&mut self, start: Time, duration: Dur) {
        let got = self.probe(start, duration);
        assert!(
            got == start,
            "window at {start} no longer free (next free {got})"
        );
        self.insert(start, start + duration);
        self.prune(start);
    }

    /// Adds the free window `[start, end)`, merged with the neighbours
    /// it touches. The kept intervals never touch one another, so the
    /// new window can join only the interval just before it and the one
    /// just after it; back-to-back reservations, the common case, extend
    /// a neighbour in place instead of shifting the deque.
    fn insert(&mut self, start: Time, end: Time) {
        // The first interval starting after `start`, and the one before.
        let idx = partition_point_from_back(&self.busy, |&(s, _)| s <= start);
        let left = idx.checked_sub(1).filter(|&i| self.busy[i].1 >= start);
        let right = (idx < self.busy.len() && end >= self.busy[idx].0).then_some(idx);
        debug_assert!(
            idx == 0 || self.busy[idx - 1].1 <= start,
            "overlapping reservations"
        );
        debug_assert!(
            idx == self.busy.len() || end <= self.busy[idx].0,
            "overlapping reservations"
        );
        match (left, right) {
            (Some(l), Some(r)) => {
                self.busy[l].1 = self.busy[r].1;
                self.busy.remove(r);
            }
            (Some(l), None) => self.busy[l].1 = end,
            (None, Some(r)) => self.busy[r].0 = start,
            (None, None) => self.busy.insert(idx, (start, end)),
        }
    }

    /// Reference for [`insert`](Self::insert): insert, then merge every
    /// touching pair from the new window's left neighbour to the end.
    #[cfg(test)]
    fn insert_linear(&mut self, start: Time, end: Time) {
        let idx = partition_point_from_back(&self.busy, |&(s, _)| s <= start);
        self.busy.insert(idx, (start, end));
        let mut i = idx.saturating_sub(1);
        while i + 1 < self.busy.len() {
            let (s1, e1) = self.busy[i];
            let (s2, e2) = self.busy[i + 1];
            debug_assert!(e1 <= s2 || s1 == s2, "overlapping reservations");
            if e1 >= s2 {
                self.busy[i] = (s1, e1.max(e2));
                self.busy.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    fn prune(&mut self, latest_start: Time) {
        let cutoff = Time::from_ps(latest_start.as_ps().saturating_sub(PRUNE_WINDOW.as_ps()));
        while let Some(&(_, end)) = self.busy.front() {
            if end <= cutoff {
                self.horizon = self.horizon.max(end);
                self.busy.pop_front();
            } else {
                break;
            }
        }
    }

    /// Instant after which the timeline is completely free.
    #[cfg(test)]
    fn free_after(&self) -> Time {
        self.busy.back().map_or(self.horizon, |&(_, end)| end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline::new(Dur::from_ns(3))
    }

    #[test]
    fn reservations_queue_in_order() {
        let mut t = tl();
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::ZERO);
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::from_ns(6));
        assert_eq!(
            t.reserve(Time::from_ns(30), Dur::from_ns(6)),
            Time::from_ns(30)
        );
    }

    #[test]
    fn starts_align_to_clock_edges() {
        let mut t = tl();
        assert_eq!(
            t.reserve(Time::from_ns(4), Dur::from_ns(6)),
            Time::from_ns(6)
        );
    }

    #[test]
    fn short_reservation_fills_gap() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6)); // [0,6)
        t.reserve(Time::from_ns(12), Dur::from_ns(6)); // [12,18)
                                                       // A 6 ns window fits exactly in [6,12).
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::from_ns(6));
        // Nothing remains before 18.
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(3)), Time::from_ns(18));
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(3)); // [0,3)
        t.reserve(Time::from_ns(6), Dur::from_ns(6)); // [6,12)
                                                      // 6 ns does not fit in [3,6).
        assert_eq!(t.reserve(Time::ZERO, Dur::from_ns(6)), Time::from_ns(12));
    }

    #[test]
    fn probe_is_pure() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6));
        let p1 = t.probe(Time::ZERO, Dur::from_ns(6));
        let p2 = t.probe(Time::ZERO, Dur::from_ns(6));
        assert_eq!(p1, p2);
        t.reserve_at(p1, Dur::from_ns(6));
        assert_eq!(t.probe(Time::ZERO, Dur::from_ns(6)), Time::from_ns(12));
    }

    #[test]
    #[should_panic(expected = "no longer free")]
    fn reserve_at_rejects_taken_window() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6));
        t.reserve_at(Time::from_ns(3), Dur::from_ns(6));
    }

    #[test]
    fn free_after_ends_at_the_last_reservation() {
        let mut t = tl();
        t.reserve(Time::ZERO, Dur::from_ns(6));
        t.reserve(Time::ZERO, Dur::from_ns(2));
        assert_eq!(t.free_after(), Time::from_ns(8)); // [0,6) then [6,8)
    }

    /// SplitMix64, the seeded sequence of the differential test.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn gap_search_matches_the_linear_reference() {
        let clk = Dur::from_ns(3);
        let mut t = tl();
        let mut rng = Mix(1);
        let mut now = Time::ZERO;
        for _ in 0..4_000 {
            let len = clk * (1 + rng.below(3));
            let not_before = match rng.below(4) {
                // In order, behind the last window.
                0 => t.free_after(),
                // From behind the horizon.
                1 => Time::ZERO,
                // Ahead of `now`, leaving gaps for later ones to fill.
                _ => now + Dur::from_ps(500 * rng.below(120)),
            };
            let at = t.probe(not_before, len);
            assert_eq!(at, t.probe_linear(not_before, len));
            if rng.below(2) == 0 {
                t.reserve_at(at, len);
            } else {
                assert_eq!(t.reserve(not_before, len), at);
            }
            now += Dur::from_ps(500 * rng.below(36));
            // Probe around `now`, reaching back past the older windows.
            for _ in 0..4 {
                let len = clk * (1 + rng.below(3));
                let back = Dur::from_ps(500 * rng.below(200));
                let not_before = Time::from_ps(now.as_ps().saturating_sub(back.as_ps()));
                assert_eq!(
                    t.probe(not_before, len),
                    t.probe_linear(not_before, len),
                    "window of {len} not before {not_before}"
                );
            }
        }
        assert!(t.horizon > Time::ZERO, "the history was never pruned");
    }

    #[test]
    fn in_place_merge_matches_the_linear_reference() {
        let clk = Dur::from_ns(3);
        let (mut fast, mut slow) = (tl(), tl());
        let mut rng = Mix(7);
        let mut now = Time::ZERO;
        // Windows joining no neighbour, the left one, the right one, both.
        let mut cases = [0u32; 4];
        for _ in 0..20_000 {
            let len = clk * (1 + rng.below(3));
            let n = fast.busy.len() as u64;
            let not_before = match rng.below(4) {
                // Back-to-back behind the newest window.
                0 => fast.free_after(),
                // Ending where one of the newest windows starts, which
                // fills the gap before it when the gap is `len` long.
                1 if n > 0 => {
                    let (s, _) = fast.busy[(n - 1 - rng.below(n.min(16))) as usize];
                    Time::from_ps(s.as_ps().saturating_sub(len.as_ps()))
                }
                // Ahead of the newest window, leaving a gap.
                2 => fast.free_after() + clk * (1 + rng.below(8)),
                _ => now + Dur::from_ps(500 * rng.below(60)),
            };
            let at = fast.probe(not_before, len);
            assert_eq!(at, slow.probe(not_before, len));
            let left = fast.busy.iter().any(|&(_, e)| e == at);
            let right = fast.busy.iter().any(|&(s, _)| s == at + len);
            cases[2 * usize::from(left) + usize::from(right)] += 1;
            fast.insert(at, at + len);
            fast.prune(at);
            slow.insert_linear(at, at + len);
            slow.prune(at);
            assert_eq!(fast.busy, slow.busy, "after reserving {len} at {at}");
            assert_eq!(fast.horizon, slow.horizon);
            now += Dur::from_ps(500 * rng.below(24));
        }
        assert!(
            cases.iter().all(|&n| n >= 100),
            "every merge case is exercised: {cases:?}"
        );
        assert!(fast.horizon > Time::ZERO, "the history was never pruned");
    }

    #[test]
    fn pruning_keeps_timeline_bounded() {
        let mut t = tl();
        for i in 0..10_000u64 {
            t.reserve(Time::from_ns(i * 30), Dur::from_ns(6));
        }
        assert!(
            t.busy.len() < 1_000,
            "deque grew unboundedly: {}",
            t.busy.len()
        );
        // Reservations far in the past get bumped to the horizon, never lost.
        let start = t.reserve(Time::ZERO, Dur::from_ns(3));
        assert!(start >= t.horizon);
    }
}
