//! The out-of-order core timing model.
//!
//! A first-order model of how an 8-issue OoO core (Table 1) converts
//! memory behaviour into runtime, in the tradition of trace-driven DRAM
//! studies:
//!
//! * instructions commit at a benchmark-specific base rate
//!   (`time_per_instr`) while no L2 miss blocks the ROB head;
//! * a demand-load L2 miss blocks commit when the commit cursor reaches
//!   it (*stall-on-use*), so independent misses inside the ROB window
//!   overlap — memory-level parallelism falls out naturally;
//! * the ROB bounds how far fetch may run ahead of commit, which bounds
//!   the number of misses that can overlap.
//!
//! Commit progress is computed analytically (piecewise-linear in time),
//! so the core costs O(1) per memory event regardless of instruction
//! count. The same closed form gives the first instant commit reaches a
//! given index, so the complex can ask when a ROB-stalled operation
//! fits, and the core caches when it commits its budget.

use std::collections::VecDeque;

use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;

/// An in-flight demand load, in program order.
#[derive(Clone, Copy, Debug)]
struct PendingLoad {
    /// Absolute instruction index of the load.
    idx: u64,
    line: LineAddr,
    /// Fill-arrival time, once known.
    done: Option<Time>,
}

/// The commit/ROB engine of one core.
#[derive(Clone, Debug)]
pub struct OooCore {
    tpi: Dur,
    rob: u64,
    budget: u64,
    /// Instruction index from which commit proceeds unobstructed...
    free_idx: u64,
    /// ...starting at this instant.
    free_time: Time,
    /// Demand-load misses in program order.
    blocking: VecDeque<PendingLoad>,
    /// Commit may not reach this instruction index: it has not been
    /// fetched yet (fetch is stalled on MSHR capacity). Maintained by
    /// the complex.
    fetch_barrier: Option<u64>,
    /// `reach_time(budget)`: the first instant the budget is committed
    /// under the current state. Every mutator recomputes it.
    done_at: Time,
}

impl OooCore {
    /// Creates a core that commits one instruction per `tpi` at best, has
    /// a `rob`-instruction reorder window, and finishes after `budget`
    /// committed instructions.
    ///
    /// # Panics
    ///
    /// Panics if `tpi` is zero or `rob`/`budget` are zero.
    pub fn new(tpi: Dur, rob: u64, budget: u64) -> OooCore {
        assert!(!tpi.is_zero(), "time per instruction must be non-zero");
        assert!(rob > 0, "ROB must be non-empty");
        assert!(budget > 0, "instruction budget must be non-zero");
        let mut core = OooCore {
            tpi,
            rob,
            budget,
            free_idx: 0,
            free_time: Time::ZERO,
            // Every pending load lies inside the ROB window, so `rob`
            // entries keep the miss path off the allocator.
            blocking: VecDeque::with_capacity(rob as usize),
            fetch_barrier: None,
            done_at: Time::NEVER,
        };
        core.done_at = core.reach_time(budget);
        core
    }

    /// Instructions committed by instant `now`.
    pub fn commit_idx(&self, now: Time) -> u64 {
        // Between a load's retirement and `free_time` (one tpi later) the
        // retired load is the newest committed instruction.
        let mut idx = if now >= self.free_time {
            self.free_idx
                .saturating_add((now - self.free_time) / self.tpi)
        } else {
            self.free_idx.saturating_sub(1)
        };
        if let Some(front) = self.blocking.front() {
            idx = idx.min(front.idx);
        }
        if let Some(barrier) = self.fetch_barrier {
            idx = idx.min(barrier);
        }
        idx.min(self.budget)
    }

    /// The first instant at which [`commit_idx`](Self::commit_idx)
    /// reaches `target` if the state does not change, or [`Time::NEVER`]
    /// while a pending load, the fetch barrier or the budget caps commit
    /// below it.
    fn reach_time(&self, target: u64) -> Time {
        if self.blocking.front().is_some_and(|l| l.idx < target)
            || self.fetch_barrier.is_some_and(|b| b < target)
            || self.budget < target
        {
            return Time::NEVER;
        }
        if target < self.free_idx {
            // Already reached: before `free_time` commit sits at
            // `free_idx - 1`, after it at `free_idx` or beyond.
            return Time::ZERO;
        }
        // Commit passes `free_idx` at `free_time` and gains one
        // instruction per `tpi` from there.
        self.tpi
            .checked_mul(target - self.free_idx)
            .and_then(|d| self.free_time.as_ps().checked_add(d.as_ps()))
            .map_or(Time::NEVER, Time::from_ps)
    }

    /// Declares that the instruction at `idx` has not been fetched, so
    /// commit cannot reach it (`None` clears the barrier). Set by the
    /// complex while an operation waits for MSHR capacity.
    pub fn set_fetch_barrier(&mut self, idx: Option<u64>) {
        if self.fetch_barrier != idx {
            self.fetch_barrier = idx;
            self.done_at = self.reach_time(self.budget);
        }
    }

    /// True once the budget has been committed.
    pub fn done(&self, now: Time) -> bool {
        debug_assert_eq!(
            now >= self.done_at,
            self.commit_idx(now) >= self.budget,
            "cached done instant {} is stale at {now}",
            self.done_at
        );
        now >= self.done_at
    }

    /// When the core will commit its budget, assuming no *new* blocking
    /// loads appear. `None` while an incomplete load blocks the path.
    pub fn projected_done_time(&self, now: Time) -> Option<Time> {
        if self.blocking.front().is_some_and(|l| l.idx < self.budget) {
            return None;
        }
        if self.fetch_barrier.is_some_and(|b| b < self.budget) {
            return None;
        }
        let t = if self.budget <= self.free_idx {
            self.free_time
        } else {
            self.free_time + self.tpi * (self.budget - self.free_idx)
        };
        Some(t.max(now))
    }

    /// Can an operation at absolute instruction index `idx` enter the
    /// ROB at `now`?
    pub fn can_fetch(&self, idx: u64, now: Time) -> bool {
        idx < self.commit_idx(now).saturating_add(self.rob)
    }

    /// The first instant [`can_fetch`](Self::can_fetch) holds for `idx`
    /// if the state does not change: when commit reaches
    /// `idx + 1 - rob`. [`Time::NEVER`] while a pending load, the fetch
    /// barrier or the budget caps commit below that point.
    pub fn fetch_at(&self, idx: u64) -> Time {
        self.reach_time((idx + 1).saturating_sub(self.rob))
    }

    /// Earliest instant an op at `idx` will fit in the ROB, assuming no
    /// further completions. `None` when an incomplete load blocks commit
    /// before the required point (the core must wait for a fill).
    pub fn fetch_ready_time(&self, idx: u64) -> Option<Time> {
        let target = (idx + 1).saturating_sub(self.rob);
        if target <= self.free_idx {
            return Some(self.free_time);
        }
        if self.blocking.front().is_some_and(|l| l.idx < target) {
            return None;
        }
        Some(self.free_time + self.tpi * (target - self.free_idx))
    }

    /// Registers a demand-load L2 miss at instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of program order.
    pub fn push_blocking_load(&mut self, idx: u64, line: LineAddr) {
        assert!(
            self.blocking.back().is_none_or(|l| l.idx < idx) && idx >= self.free_idx,
            "loads must arrive in program order"
        );
        self.blocking.push_back(PendingLoad {
            idx,
            line,
            done: None,
        });
        self.done_at = self.reach_time(self.budget);
    }

    /// Marks every pending load on `line` as filled at `at` (misses to
    /// one line merge), then settles commit progress up to `at`.
    pub fn complete_line(&mut self, line: LineAddr, at: Time) {
        for l in &mut self.blocking {
            if l.line == line && l.done.is_none() {
                l.done = Some(at);
            }
        }
        self.settle(at);
    }

    /// Retires completed loads whose fill time has passed, advancing the
    /// free-commit point.
    pub fn settle(&mut self, now: Time) {
        while let Some(front) = self.blocking.front() {
            let Some(done) = front.done else { break };
            if done > now {
                break;
            }
            // Commit reaches the load...
            let reach = if front.idx <= self.free_idx {
                self.free_time
            } else {
                self.free_time + self.tpi * (front.idx - self.free_idx)
            };
            // ...and retires it once both commit and the fill arrive.
            let unblock = reach.max(done);
            self.free_idx = front.idx + 1;
            self.free_time = unblock + self.tpi;
            self.blocking.pop_front();
        }
        self.done_at = self.reach_time(self.budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OooCore {
        /// Number of in-flight demand loads.
        pub(crate) fn blocking_loads(&self) -> usize {
            self.blocking.len()
        }
    }

    const TPI: Dur = Dur::from_ps(125); // base IPC 2 at 4 GHz

    fn core() -> OooCore {
        OooCore::new(TPI, 196, 1_000_000)
    }

    #[test]
    fn unobstructed_commit_is_linear() {
        let c = core();
        assert_eq!(c.commit_idx(Time::ZERO), 0);
        assert_eq!(c.commit_idx(Time::from_ps(1_250)), 10);
        assert_eq!(c.commit_idx(Time::from_ns(125)), 1_000);
    }

    #[test]
    fn blocking_load_caps_commit() {
        let mut c = core();
        c.push_blocking_load(100, LineAddr::new(7));
        // Commit would reach 100 at 12.5 ns and stops there.
        assert_eq!(c.commit_idx(Time::from_ns(100)), 100);
        // Fill at 80 ns: load retires, commit resumes from 101 at 80 ns + tpi.
        c.complete_line(LineAddr::new(7), Time::from_ns(80));
        assert_eq!(c.commit_idx(Time::from_ns(80)), 100);
        let at = Time::from_ns(80) + TPI + TPI * 9;
        assert_eq!(c.commit_idx(at), 110);
    }

    #[test]
    fn fill_before_commit_reaches_load_is_free() {
        let mut c = core();
        c.push_blocking_load(1_000, LineAddr::new(7));
        // Fill arrives at 10 ns, commit reaches idx 1000 only at 125 µs...
        c.complete_line(LineAddr::new(7), Time::from_ns(10));
        // ...so the load costs nothing: commit stays linear.
        assert_eq!(c.commit_idx(Time::from_ps(125 * 2_000)), 2_000);
    }

    #[test]
    fn overlapping_misses_share_the_stall() {
        let mut c = core();
        c.push_blocking_load(10, LineAddr::new(1));
        c.push_blocking_load(11, LineAddr::new(2));
        // Both fill at 100 ns (overlapped service).
        c.complete_line(LineAddr::new(1), Time::from_ns(100));
        c.complete_line(LineAddr::new(2), Time::from_ns(100));
        // First retires at 100 ns (+tpi); second was already filled, so it
        // retires back-to-back rather than serializing another 100 ns.
        let t = Time::from_ns(100) + TPI * 2;
        assert_eq!(c.commit_idx(t), 12);
    }

    #[test]
    fn rob_bounds_fetch_distance() {
        let mut c = core();
        c.push_blocking_load(0, LineAddr::new(1));
        // Commit stuck at 0; ops inside the 196-window fetch, beyond not.
        assert!(c.can_fetch(195, Time::from_ns(1_000)));
        assert!(!c.can_fetch(196, Time::from_ns(1_000)));
        // Blocked until the fill: no timed wake possible.
        assert_eq!(c.fetch_ready_time(196), None);
        c.complete_line(LineAddr::new(1), Time::from_ns(50));
        assert!(c.can_fetch(196, Time::from_ns(50) + TPI));
    }

    #[test]
    fn fetch_ready_time_is_exact_without_blocking() {
        let c = core();
        // Op at idx 500 fits when commit reaches 305 = (500+1)-196,
        // i.e. at 305 * 125 ps.
        let t = c.fetch_ready_time(500).unwrap();
        assert_eq!(t, Time::from_ps(305 * 125));
        assert!(c.can_fetch(500, t));
        assert!(!c.can_fetch(500, t - Dur::from_ps(125)));
    }

    #[test]
    fn merged_loads_fill_together() {
        let mut c = core();
        c.push_blocking_load(5, LineAddr::new(9));
        c.push_blocking_load(6, LineAddr::new(9));
        c.complete_line(LineAddr::new(9), Time::from_ns(40));
        assert_eq!(c.blocking_loads(), 0);
    }

    #[test]
    fn budget_caps_commit_and_projects_finish() {
        let mut c = OooCore::new(TPI, 196, 100);
        assert_eq!(c.commit_idx(Time::from_ns(1_000_000)), 100);
        assert!(c.done(Time::from_ps(125 * 100)));
        assert_eq!(
            c.projected_done_time(Time::ZERO),
            Some(Time::from_ps(125 * 100))
        );
        c.push_blocking_load(50, LineAddr::new(1));
        assert_eq!(c.projected_done_time(Time::ZERO), None);
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

    /// The first instant `holds` is true, by bisection over all of
    /// time ([`Time::NEVER`] if it never is); `holds` must be monotone.
    fn first_instant(holds: impl Fn(Time) -> bool) -> Time {
        let (mut lo, mut hi) = (0u64, u64::MAX);
        if !holds(Time::from_ps(hi)) {
            return Time::NEVER;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if holds(Time::from_ps(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Time::from_ps(lo)
    }

    /// Checks the cached done instant and `fetch_at` against the first
    /// instants found by bisecting `commit_idx`.
    fn check_instants(c: &OooCore, probe_idx: &[u64]) {
        let done = first_instant(|t| c.commit_idx(t) >= c.budget);
        assert_eq!(c.done_at, done, "done instant of {c:?}");
        // `Time::NEVER` stands for "not within time"; no run gets there.
        for at in [done, Time::from_ps(done.as_ps().saturating_sub(1))]
            .into_iter()
            .filter(|&at| at < Time::NEVER)
        {
            assert_eq!(c.done(at), c.commit_idx(at) >= c.budget);
        }
        for &idx in probe_idx {
            let fits = first_instant(|t| c.can_fetch(idx, t));
            assert_eq!(c.fetch_at(idx), fits, "fetch instant of op {idx} in {c:?}");
        }
    }

    /// Seeded sequences of loads, fills (merged ones too), fetch
    /// barriers and settles, on budgets small enough that loads and
    /// barriers land on both sides of the budget; after every mutation
    /// the cached instants must equal the bisected ones.
    #[test]
    fn cached_instants_match_bisected_commit() {
        let mut rng = Mix(3);
        for round in 0..60 {
            let budget = 1 + rng.below(if round % 2 == 0 { 400 } else { 4_000 });
            let mut c = OooCore::new(TPI, 196, budget);
            let mut cursor = 0u64;
            let mut now = Time::ZERO;
            let mut lines: Vec<LineAddr> = Vec::new();
            for _ in 0..80 {
                match rng.below(5) {
                    0 | 1 => {
                        cursor = cursor.max(c.free_idx) + rng.below(150);
                        let line = match lines.last() {
                            Some(&l) if rng.below(4) == 0 => l,
                            _ => LineAddr::new(rng.below(1 << 20)),
                        };
                        c.push_blocking_load(cursor, line);
                        lines.push(line);
                        cursor += 1;
                    }
                    2 if !lines.is_empty() => {
                        now += Dur::from_ps(125 * rng.below(400));
                        let line = lines.swap_remove(rng.below(lines.len() as u64) as usize);
                        c.complete_line(line, now);
                    }
                    3 => {
                        let barrier = (rng.below(3) != 0).then(|| cursor + rng.below(300));
                        c.set_fetch_barrier(barrier);
                    }
                    _ => {
                        now += Dur::from_ps(125 * rng.below(100));
                        c.settle(now);
                    }
                }
                let probes = [
                    cursor,
                    cursor + rng.below(400),
                    c.free_idx + rng.below(200),
                    rng.below(budget + 400),
                ];
                check_instants(&c, &probes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_load_registration_rejected() {
        let mut c = core();
        c.push_blocking_load(10, LineAddr::new(1));
        c.push_blocking_load(9, LineAddr::new(2));
    }
}
