//! The DDR2 data bus between a set of DRAM chips and whatever drives them
//! (an AMB in FB-DIMM, or the memory controller in the DDR2 baseline).
//!
//! The bus is bidirectional and time-multiplexed: one burst at a time,
//! with a one-clock turnaround bubble between bursts of different
//! directions. Burst windows are scheduled *out of order* — a later
//! request whose data is ready sooner may claim a gap left between two
//! already-scheduled bursts, which is what a real controller's
//! column-command scheduling achieves.
//!
//! The write-to-read `tWTR` constraint is *not* enforced here — it is a
//! rank-level rule and lives in [`crate::bank::BankArray`], so that on a
//! shared channel a read to one DIMM only pays the bus turnaround after
//! a write to another DIMM.
//!
//! In FB-DIMM every DIMM has a private bus (one `DataBus` per DIMM); in
//! the conventional DDR2 baseline all DIMMs on a channel share one bus
//! (one `DataBus` per channel). The scope is chosen by how many ranks
//! the caller puts in one [`RankGroup`](crate::RankGroup), which is
//! exactly the bandwidth asymmetry the paper's AMB prefetching exploits.

use std::collections::VecDeque;

use fbd_types::search::partition_point_from_back;
use fbd_types::time::{Dur, Time};

use crate::command::ColKind;

/// How far behind the newest burst the bus keeps history; bursts this
/// old can no longer be displaced by new traffic.
const PRUNE_WINDOW: Dur = Dur::from_ps(5_000_000); // 5 µs

/// A bidirectional DRAM data bus with gap-filling (out-of-order) burst
/// scheduling and direction-turnaround modelling.
#[derive(Clone, Debug)]
pub struct DataBus {
    clock: Dur,
    /// Scheduled bursts `[start, end, dir)`, sorted and disjoint.
    bursts: VecDeque<(Time, Time, ColKind)>,
    /// Everything before this instant is permanently unavailable.
    horizon: Time,
}

impl DataBus {
    /// Creates an idle bus with the given DRAM clock period.
    pub fn new(clock: Dur) -> DataBus {
        assert!(!clock.is_zero(), "clock period must be non-zero");
        // The pruning in `commit` bounds the deque to the bursts inside
        // one `PRUNE_WINDOW` (each at least a clock long, pairwise
        // disjoint) plus a short scheduled-ahead tail. Reserving that
        // bound up front keeps `commit` off the allocator for the whole
        // run (the steady-state allocation gate in `fig_throughput`).
        let cap = (PRUNE_WINDOW.as_ps() / clock.as_ps()) as usize + 256;
        DataBus {
            clock,
            bursts: VecDeque::with_capacity(cap),
            horizon: Time::ZERO,
        }
    }

    /// Gap the burst `[start, start+len)` of direction `dir` must keep
    /// from neighbour `n` (one clock when directions differ).
    fn bubble(&self, dir: ColKind, n: ColKind) -> Dur {
        if dir == n {
            Dur::ZERO
        } else {
            self.clock
        }
    }

    /// Earliest instant at or after `desired` where a burst of `len` in
    /// direction `dir` fits — possibly in a gap between already
    /// scheduled bursts.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn earliest_fit(&self, dir: ColKind, desired: Time, len: Dur) -> Time {
        assert!(!len.is_zero(), "burst length must be non-zero");
        let mut start = desired.max(self.horizon);
        // The bursts are sorted and disjoint, so their ends never
        // decrease. A burst ending at least a clock (the largest bubble)
        // before `start` can neither hold the new burst nor push it
        // later, so the scan starts after all of them. Queries land
        // near the newest burst, so the search starts there.
        let first = partition_point_from_back(&self.bursts, |&(_, e, _)| e + self.clock <= start);
        for &(b_start, b_end, b_dir) in self.bursts.range(first..) {
            // Room before this burst (respecting its turnaround bubble)?
            if start + len + self.bubble(dir, b_dir) <= b_start {
                return start;
            }
            // Otherwise the candidate moves past this burst.
            let after = b_end + self.bubble(dir, b_dir);
            if after > start {
                start = after;
            }
        }
        start
    }

    /// Reference for [`earliest_fit`](Self::earliest_fit): the same gap
    /// search scanning every burst from the oldest.
    #[cfg(test)]
    fn earliest_fit_linear(&self, dir: ColKind, desired: Time, len: Dur) -> Time {
        let mut start = desired.max(self.horizon);
        for &(b_start, b_end, b_dir) in &self.bursts {
            if start + len + self.bubble(dir, b_dir) <= b_start {
                return start;
            }
            start = start.max(b_end + self.bubble(dir, b_dir));
        }
        start
    }

    /// Records a committed burst occupying `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the burst overlaps another or violates
    /// a turnaround bubble — committing a plan computed against stale
    /// bus state is a caller bug.
    pub fn commit(&mut self, dir: ColKind, start: Time, end: Time) {
        debug_assert!(end > start, "empty data burst");
        debug_assert!(
            self.earliest_fit(dir, start, end - start) == start,
            "data burst overlaps another or violates turnaround"
        );
        let idx = partition_point_from_back(&self.bursts, |&(s, _, _)| s <= start);
        self.bursts.insert(idx, (start, end, dir));
        // Prune bursts too old to matter.
        let cutoff = Time::from_ps(start.as_ps().saturating_sub(PRUNE_WINDOW.as_ps()));
        while let Some(&(_, e, _)) = self.bursts.front() {
            if e <= cutoff {
                self.horizon = self.horizon.max(e);
                self.bursts.pop_front();
            } else {
                break;
            }
        }
    }

    /// Instant after which the bus is completely free.
    pub fn free_at(&self) -> Time {
        self.bursts.back().map_or(self.horizon, |&(_, e, _)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> DataBus {
        DataBus::new(Dur::from_ns(3))
    }

    #[test]
    fn idle_bus_accepts_any_start() {
        let b = bus();
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::from_ns(5), Dur::from_ns(6)),
            Time::from_ns(5)
        );
    }

    #[test]
    fn same_direction_bursts_back_to_back() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(10), Time::from_ns(16));
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::ZERO, Dur::from_ns(6)),
            Time::ZERO,
            "a 6 ns burst fits in the gap before [10,16)"
        );
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::from_ns(12), Dur::from_ns(6)),
            Time::from_ns(16)
        );
    }

    #[test]
    fn direction_change_costs_one_clock() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(10), Time::from_ns(16));
        // A write wanting to start at 12 must clear [10,16) plus 3 ns.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ns(12), Dur::from_ns(6)),
            Time::from_ns(19)
        );
        // And a write before it needs to end 3 ns before 10.
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::ZERO, Dur::from_ns(6)),
            Time::ZERO,
            "[0,6) + 3 ns bubble + [10,16) read is legal"
        );
        assert_eq!(
            b.earliest_fit(ColKind::Write, Time::from_ns(2), Dur::from_ns(6)),
            Time::from_ns(19),
            "[2,8) would leave only 2 ns before the read"
        );
    }

    #[test]
    fn gap_filling_schedules_out_of_order() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(0), Time::from_ns(6));
        b.commit(ColKind::Read, Time::from_ns(30), Time::from_ns(36));
        // A later request claims the hole between them.
        let at = b.earliest_fit(ColKind::Read, Time::from_ns(6), Dur::from_ns(6));
        assert_eq!(at, Time::from_ns(6));
        b.commit(ColKind::Read, at, at + Dur::from_ns(6));
        // Next fit lands after 12 within the remaining hole.
        assert_eq!(
            b.earliest_fit(ColKind::Read, Time::ZERO, Dur::from_ns(6)),
            Time::from_ns(12)
        );
    }

    #[test]
    fn free_at_ends_at_the_last_burst() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(0), Time::from_ns(6));
        b.commit(ColKind::Read, Time::from_ns(6), Time::from_ns(12));
        assert_eq!(b.free_at(), Time::from_ns(12));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    #[cfg(debug_assertions)]
    fn overlapping_commit_panics_in_debug() {
        let mut b = bus();
        b.commit(ColKind::Read, Time::from_ns(0), Time::from_ns(6));
        b.commit(ColKind::Read, Time::from_ns(3), Time::from_ns(9));
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

        fn dir(&mut self) -> ColKind {
            if self.below(2) == 0 {
                ColKind::Read
            } else {
                ColKind::Write
            }
        }
    }

    #[test]
    fn gap_search_matches_the_linear_reference() {
        let clk = Dur::from_ns(3);
        let mut b = bus();
        let mut rng = Mix(1);
        let mut now = Time::ZERO;
        for _ in 0..4_000 {
            let dir = rng.dir();
            let len = clk * (1 + rng.below(3));
            let desired = match rng.below(4) {
                // In order, behind the last burst.
                0 => b.free_at(),
                // From behind the horizon.
                1 => Time::ZERO,
                // Ahead of `now`, leaving gaps for later ones to fill.
                _ => now + Dur::from_ps(500 * rng.below(120)),
            };
            let at = b.earliest_fit(dir, desired, len);
            assert_eq!(at, b.earliest_fit_linear(dir, desired, len));
            b.commit(dir, at, at + len);
            now += Dur::from_ps(500 * rng.below(36));
            // Probe around `now`, reaching back past the older bursts.
            for _ in 0..4 {
                let (dir, len) = (rng.dir(), clk * (1 + rng.below(3)));
                let back = Dur::from_ps(500 * rng.below(200));
                let desired = Time::from_ps(now.as_ps().saturating_sub(back.as_ps()));
                assert_eq!(
                    b.earliest_fit(dir, desired, len),
                    b.earliest_fit_linear(dir, desired, len),
                    "{dir:?} burst of {len} wanting {desired}"
                );
            }
        }
        assert!(b.horizon > Time::ZERO, "the history was never pruned");
    }

    /// A bus holding a full prune window of history, wrapped in its
    /// ring, queried from the horizon up to past the newest burst.
    #[test]
    fn gap_search_matches_the_linear_reference_over_a_full_window() {
        let clk = Dur::from_ns(3);
        let mut b = bus();
        let mut rng = Mix(5);
        let mut at = Time::ZERO;
        // Bursts with gaps of zero to three clocks: each fits only
        // where it is put. Stop once the history spans the whole window
        // and wraps around the end of the ring.
        while b.horizon == Time::ZERO || b.bursts.as_slices().1.len() < 100 {
            let dir = rng.dir();
            let len = clk * (1 + rng.below(2));
            at = b.earliest_fit(dir, at + clk * rng.below(4), len);
            b.commit(dir, at, at + len);
        }
        let span = b.free_at() - b.horizon;
        assert!(span >= PRUNE_WINDOW, "history spans only {span}");
        for _ in 0..4_000 {
            let (dir, len) = (rng.dir(), clk * (1 + rng.below(3)));
            let back = Dur::from_ps(rng.below(span.as_ps() + 20_000));
            let desired =
                Time::from_ps((b.free_at().as_ps() + 10_000).saturating_sub(back.as_ps()));
            assert_eq!(
                b.earliest_fit(dir, desired, len),
                b.earliest_fit_linear(dir, desired, len),
                "{dir:?} burst of {len} wanting {desired}"
            );
        }
    }

    #[test]
    fn pruning_keeps_the_burst_list_bounded() {
        let mut b = bus();
        for i in 0..10_000u64 {
            let t = Time::from_ns(i * 10);
            b.commit(ColKind::Read, t, t + Dur::from_ns(6));
        }
        assert!(b.bursts.len() < 1_000, "burst list grew unboundedly");
    }
}
