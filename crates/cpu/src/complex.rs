//! The processor complex: cores, the shared L2, and miss handling.
//!
//! This is the boundary the memory subsystem sees. The complex pulls
//! operations from each core's trace, runs them through the shared L2,
//! merges same-line misses (MSHR semantics), bounds per-core and global
//! miss concurrency, turns dirty evictions into writebacks, and converts
//! software prefetch instructions into non-blocking prefetch reads
//! (dropped when software prefetching is disabled).

use fbd_types::config::{CpuConfig, L2_WAYS};
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::stats::CoreStats;
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, LineMap, RequestId};

use crate::cache::{L2Cache, L2Outcome};
use crate::core::OooCore;
use crate::hw_prefetch::StreamPrefetcher;
use crate::trace::{OpKind, TraceOp, TraceSource};

/// Core clock period (Table 1: 4 GHz).
const CLOCK: Dur = Dur::from_ps(250);

/// Reorder buffer capacity in instructions (Table 1).
const ROB_ENTRIES: u64 = 196;

/// Outstanding data-miss capacity per core, the L1D MSHRs (Table 1).
const DATA_MSHRS: u32 = 32;

/// Shared L2 hit latency in core cycles (Table 1).
const L2_HIT_CYCLES: u64 = 15;

struct CoreRunner {
    core: OooCore,
    trace: Box<dyn TraceSource>,
    /// The next operation, peeked but not yet admitted to the ROB, with
    /// its absolute instruction index.
    pending: Option<(u64, TraceOp)>,
    fetched_idx: u64,
    outstanding: u32,
    trace_done: bool,
    /// A ROB-stalled core is parked until the first instant its pending
    /// operation fits; advancing it earlier would change nothing. A
    /// completion naming the core unparks it ([`Time::ZERO`]).
    parked_until: Time,
    /// [`wake_inputs`](Self::wake_inputs) as of the core's last
    /// advance. A parked core's state cannot change until a completion
    /// unparks it, so these stay current for every core.
    wake_inputs: (Option<Time>, Option<Time>),
    stats: CoreStats,
}

impl CoreRunner {
    /// What [`CpuComplex::next_wake`] reads of this core: when the
    /// pending operation fits the ROB (`fetch_ready_time`) and the
    /// projected finish before it is clamped to the present.
    fn wake_inputs(&self) -> (Option<Time>, Option<Time>) {
        (
            self.pending
                .and_then(|(idx, _)| self.core.fetch_ready_time(idx)),
            self.core.projected_done_time(Time::ZERO),
        )
    }
}

/// Post-warm-up snapshot of the state [`CpuComplex::warm_l2`] mutates:
/// the shared L2 and every core's trace position (including its RNG and
/// reuse history). Produced by [`CpuComplex::warm_snapshot`], consumed
/// by [`CpuComplex::warm_restore`].
pub struct WarmState {
    l2: L2Cache,
    traces: Vec<(Box<dyn TraceSource>, bool)>,
}

impl std::fmt::Debug for WarmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmState")
            .field("cores", &self.traces.len())
            .finish_non_exhaustive()
    }
}

/// Book-keeping for one in-flight line fill.
#[derive(Debug, Default)]
struct InFlightEntry {
    /// Core indices holding an MSHR slot on this line (issuer + merged
    /// loads), released on fill.
    slots: Vec<usize>,
    /// Core indices with a *blocking load* waiting on this line.
    waiters: Vec<usize>,
}

impl std::fmt::Debug for CoreRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreRunner")
            .field("core", &self.core)
            .field("trace", &self.trace.name())
            .field("fetched_idx", &self.fetched_idx)
            .field("outstanding", &self.outstanding)
            .finish_non_exhaustive()
    }
}

/// Cores + shared L2 + MSHRs.
#[derive(Debug)]
pub struct CpuComplex {
    cores: Vec<CoreRunner>,
    l2: L2Cache,
    /// In-flight lines and who waits on them.
    in_flight: LineMap<InFlightEntry>,
    /// Retired [`InFlightEntry`]s kept for reuse so the steady-state
    /// miss path never allocates (their `slots`/`waiters` capacity
    /// survives the round trip; the pool is bounded by the L2 MSHR
    /// count).
    entry_pool: Vec<InFlightEntry>,
    next_req_id: u64,
    l2_mshrs: usize,
    software_prefetch: bool,
    hw_prefetcher: Option<StreamPrefetcher>,
}

impl CpuComplex {
    /// Builds the complex from a validated configuration and one trace
    /// per core; every core runs until it commits `budget` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores as usize`, if the
    /// configuration is invalid, or if `budget` is zero.
    pub fn new(cfg: &CpuConfig, traces: Vec<Box<dyn TraceSource>>, budget: u64) -> CpuComplex {
        cfg.validate().expect("invalid CPU configuration");
        assert_eq!(
            traces.len(),
            cfg.cores as usize,
            "one trace per core required"
        );
        let cores = traces
            .into_iter()
            .map(|trace| CoreRunner {
                core: OooCore::new(trace.time_per_instr(), ROB_ENTRIES, budget),
                trace,
                pending: None,
                fetched_idx: 0,
                outstanding: 0,
                trace_done: false,
                parked_until: Time::ZERO,
                wake_inputs: (None, None),
                stats: CoreStats::default(),
            })
            .collect();
        CpuComplex {
            cores,
            l2: L2Cache::new(u64::from(cfg.l2_bytes), L2_WAYS as usize),
            // The map never holds more than `l2_mshrs` lines, and every
            // entry is recycled through the pool; seeding the pool with
            // that bound (and each entry's index lists with room for
            // every core) keeps the miss path off the allocator once
            // the run reaches steady state. Removals leave tombstones,
            // and a table that runs out of free slots while more than
            // half full grows; room for twice the bound keeps it at
            // most half full, so it only ever rehashes in place.
            in_flight: LineMap::with_capacity_and_hasher(
                2 * (cfg.l2_mshrs as usize + 1),
                Default::default(),
            ),
            entry_pool: (0..cfg.l2_mshrs as usize + 1)
                .map(|_| InFlightEntry {
                    slots: Vec::with_capacity(cfg.cores as usize * 4),
                    waiters: Vec::with_capacity(cfg.cores as usize * 4),
                })
                .collect(),
            next_req_id: 0,
            l2_mshrs: cfg.l2_mshrs as usize,
            software_prefetch: cfg.software_prefetch,
            hw_prefetcher: cfg.hw_prefetch.then(StreamPrefetcher::new),
        }
    }

    /// Delay between a line completing at the memory controller and the
    /// waiting load being usable at the core (L2 fill/forward): the L2
    /// hit latency.
    pub fn fill_latency(&self) -> Dur {
        CLOCK * L2_HIT_CYCLES
    }

    /// Fast-forwards every core's trace through the L2 (no timing, no
    /// memory requests) to populate the cache before measurement — the
    /// standard warm-up that makes capacity evictions (and therefore
    /// writeback traffic) present from the first measured instruction.
    pub fn warm_l2(&mut self, ops_per_core: u64) {
        let n = self.cores.len();
        for _ in 0..ops_per_core {
            for i in 0..n {
                let runner = &mut self.cores[i];
                if runner.trace_done {
                    continue;
                }
                let Some(op) = runner.trace.next_op() else {
                    runner.trace_done = true;
                    continue;
                };
                if op.kind == OpKind::Prefetch && !self.software_prefetch {
                    continue;
                }
                self.l2.access(op.line, op.kind == OpKind::Store);
            }
        }
    }

    /// Snapshots everything [`warm_l2`](Self::warm_l2) mutates — the
    /// shared L2 and each core's trace state — so a runner can reuse
    /// one warm-up across runs with identical warm inputs. Returns
    /// `None` if any trace source cannot clone itself.
    pub fn warm_snapshot(&self) -> Option<WarmState> {
        let mut traces = Vec::with_capacity(self.cores.len());
        for r in &self.cores {
            traces.push((r.trace.clone_box()?, r.trace_done));
        }
        Some(WarmState {
            l2: self.l2.clone(),
            traces,
        })
    }

    /// Restores a [`warm_snapshot`](Self::warm_snapshot) into this
    /// complex, replacing the L2 contents and trace positions with the
    /// snapshotted ones — byte-identical to having replayed the same
    /// warm-up. Returns `false` (leaving `self` untouched) on a shape
    /// mismatch or an uncloneable source.
    pub fn warm_restore(&mut self, state: &WarmState) -> bool {
        if state.traces.len() != self.cores.len() {
            return false;
        }
        let mut cloned = Vec::with_capacity(state.traces.len());
        for (trace, done) in &state.traces {
            match trace.clone_box() {
                Some(t) => cloned.push((t, *done)),
                None => return false,
            }
        }
        self.l2 = state.l2.clone();
        for (runner, (trace, done)) in self.cores.iter_mut().zip(cloned) {
            runner.trace = trace;
            runner.trace_done = done;
        }
        true
    }

    fn fresh_id(&mut self) -> RequestId {
        let id = RequestId(self.next_req_id);
        self.next_req_id += 1;
        id
    }

    /// Advances every core to `now`, appending the memory requests that
    /// become ready to `requests` (not cleared first, so the event loop
    /// reuses one scratch `Vec`). Returns the earliest future instant at
    /// which a core can make progress without any memory response
    /// (ROB-stall expiry or projected finish).
    ///
    /// Parked cores are skipped: until its park expires or a completion
    /// names it, a ROB-stalled core's pending operation cannot fit.
    pub fn advance_into(&mut self, now: Time, requests: &mut Vec<MemRequest>) -> Option<Time> {
        for i in 0..self.cores.len() {
            if now < self.cores[i].parked_until {
                debug_assert!(
                    self.cores[i]
                        .pending
                        .is_some_and(|(idx, _)| !self.cores[i].core.can_fetch(idx, now)),
                    "core {i} parked while it could fetch"
                );
                continue;
            }
            self.advance_core(i, now, requests);
        }
        self.next_wake(now)
    }

    /// [`advance_into`](Self::advance_into) without parking: every core
    /// is advanced. The reference the parked pump is checked against.
    #[cfg(test)]
    fn advance_all_into(&mut self, now: Time, requests: &mut Vec<MemRequest>) -> Option<Time> {
        for i in 0..self.cores.len() {
            self.advance_core(i, now, requests);
        }
        self.next_wake(now)
    }

    fn advance_core(&mut self, i: usize, now: Time, requests: &mut Vec<MemRequest>) {
        self.fetch_ops(i, now, requests);
        let runner = &mut self.cores[i];
        runner.wake_inputs = runner.wake_inputs();
    }

    /// Admits core `i`'s operations to the ROB until one must wait.
    fn fetch_ops(&mut self, i: usize, now: Time, requests: &mut Vec<MemRequest>) {
        self.cores[i].core.settle(now);
        loop {
            if self.cores[i].pending.is_none() {
                let runner = &mut self.cores[i];
                match runner.trace.next_op() {
                    Some(op) => {
                        let idx = runner.fetched_idx + op.gap;
                        runner.pending = Some((idx, op));
                    }
                    None => {
                        runner.trace_done = true;
                        runner.core.set_fetch_barrier(None);
                        return;
                    }
                }
            }
            let (idx, op) = self.cores[i].pending.expect("just filled");
            let runner = &mut self.cores[i];
            let fits_at = runner.core.fetch_at(idx);
            debug_assert_eq!(now >= fits_at, runner.core.can_fetch(idx, now));
            if now < fits_at {
                // ROB full; a timed or response-driven wake follows. The
                // unfetched op also bars commit from passing it (it lies
                // past the commit point the op waits for, so `fits_at`
                // holds), and the core parks until the op fits.
                runner.core.set_fetch_barrier(Some(idx));
                runner.parked_until = fits_at;
                return;
            }
            if !self.execute_op(i, idx, op, now, requests) {
                // MSHR pressure; retried on the next response. Commit
                // must not run past the stalled, unfetched operation.
                self.cores[i].core.set_fetch_barrier(Some(idx));
                return;
            }
            let runner = &mut self.cores[i];
            runner.pending = None;
            runner.fetched_idx = idx + 1;
            runner.core.set_fetch_barrier(None);
        }
    }

    /// Runs one operation through the L2; returns false when it must
    /// wait for MSHR capacity.
    fn execute_op(
        &mut self,
        i: usize,
        idx: u64,
        op: TraceOp,
        now: Time,
        requests: &mut Vec<MemRequest>,
    ) -> bool {
        if op.kind == OpKind::Prefetch && !self.software_prefetch {
            return true; // executed as a no-op instruction
        }
        let present = self.l2.contains(op.line);
        let inflight = self.in_flight.contains_key(&op.line);
        let needs_request = !present && !inflight;
        let needs_slot = needs_request || (inflight && op.kind == OpKind::Load);
        let mshrs_full = (needs_slot && self.cores[i].outstanding >= DATA_MSHRS)
            || (needs_request && self.in_flight.len() >= self.l2_mshrs);
        if mshrs_full {
            // A software prefetch never stalls the pipeline: hardware
            // drops it when no MSHR is available.
            return op.kind == OpKind::Prefetch;
        }

        self.cores[i].stats.l2_accesses += 1;
        if op.kind == OpKind::Prefetch && (present || inflight) {
            return true; // useless prefetch: drop
        }

        // Allocate-at-issue: the access installs the line; the fill
        // arrives later via `complete`.
        let outcome = self.l2.access(op.line, op.kind == OpKind::Store);
        match (outcome, inflight) {
            (L2Outcome::Hit, false) => {
                // Genuine hit; absorbed by the base commit rate.
            }
            (L2Outcome::Hit, true) => {
                // The line is still being fetched (e.g. by a prefetch):
                // a load must wait for it — this is prefetch timeliness.
                if op.kind == OpKind::Load {
                    self.cores[i].core.push_blocking_load(idx, op.line);
                    let entry = self.in_flight.get_mut(&op.line).expect("checked in flight");
                    entry.slots.push(i);
                    entry.waiters.push(i);
                    self.cores[i].outstanding += 1;
                }
            }
            (L2Outcome::Miss { writeback }, _) => {
                debug_assert!(!inflight, "in-flight lines are present in L2");
                self.cores[i].stats.l2_misses += 1;
                self.cores[i].outstanding += 1;
                let kind = match op.kind {
                    OpKind::Load | OpKind::Store => AccessKind::DemandRead,
                    OpKind::Prefetch => AccessKind::SoftwarePrefetch,
                };
                let id = self.fresh_id();
                requests.push(MemRequest::new(id, CoreId(i as u32), kind, op.line, now));
                let mut entry = self.entry_pool.pop().unwrap_or_default();
                entry.slots.push(i);
                if op.kind == OpKind::Load {
                    self.cores[i].core.push_blocking_load(idx, op.line);
                    entry.waiters.push(i);
                }
                self.in_flight.insert(op.line, entry);
                if let Some(victim) = writeback {
                    let id = self.fresh_id();
                    requests.push(MemRequest::new(
                        id,
                        CoreId(i as u32),
                        AccessKind::Write,
                        victim,
                        now,
                    ));
                }
                // Train the optional hardware stream prefetcher on the
                // demand-miss stream and issue its suggestions.
                if op.kind != OpKind::Prefetch {
                    self.run_hw_prefetcher(i, op.line, now, requests);
                }
            }
        }
        true
    }

    /// Feeds a demand miss to the hardware prefetcher and issues the
    /// suggested lines (bounded by L2 MSHR capacity; suggestions are
    /// dropped, never stalled on).
    fn run_hw_prefetcher(
        &mut self,
        i: usize,
        miss: fbd_types::LineAddr,
        now: Time,
        requests: &mut Vec<MemRequest>,
    ) {
        let Some(pf) = self.hw_prefetcher.as_mut() else {
            return;
        };
        for line in pf.on_demand_miss(miss) {
            if self.l2.contains(line)
                || self.in_flight.contains_key(&line)
                || self.in_flight.len() >= self.l2_mshrs
            {
                continue;
            }
            // Allocate-at-issue, like every other fill. Evictions from
            // prefetch allocations write back as usual.
            let outcome = self.l2.access(line, false);
            let id = self.fresh_id();
            requests.push(MemRequest::new(
                id,
                CoreId(i as u32),
                AccessKind::HardwarePrefetch,
                line,
                now,
            ));
            let entry = self.entry_pool.pop().unwrap_or_default();
            self.in_flight.insert(line, entry);
            if let L2Outcome::Miss {
                writeback: Some(victim),
            } = outcome
            {
                let id = self.fresh_id();
                requests.push(MemRequest::new(
                    id,
                    CoreId(i as u32),
                    AccessKind::Write,
                    victim,
                    now,
                ));
            }
        }
    }

    /// Delivers a completed line fill. `now` must already include the
    /// L2 fill latency (schedule the delivery at
    /// `completion + fill_latency()`).
    pub fn complete(&mut self, line: LineAddr, now: Time) {
        if let Some(mut entry) = self.in_flight.remove(&line) {
            // Every waiter holds a slot too, so this unparks every core
            // whose commit or MSHR count the fill changes.
            for &i in &entry.slots {
                self.cores[i].outstanding = self.cores[i].outstanding.saturating_sub(1);
                self.cores[i].parked_until = Time::ZERO;
            }
            for &i in &entry.waiters {
                self.cores[i].core.complete_line(line, now);
            }
            entry.slots.clear();
            entry.waiters.clear();
            self.entry_pool.push(entry);
        }
    }

    /// Retires a fill whose data never arrived (a corrupted prefetch
    /// transfer dropped under fault injection). MSHR slots are freed
    /// and waiters woken exactly like [`complete`](Self::complete) —
    /// a real controller would re-issue demand accesses that merged
    /// into the dead prefetch; waking them at drop time is the modeling
    /// grace for that — but the L2 frame allocated at issue is
    /// invalidated, so the next access to the line misses again.
    pub fn complete_dropped(&mut self, line: LineAddr, now: Time) {
        self.complete(line, now);
        self.l2.invalidate(line);
    }

    fn next_wake(&self, now: Time) -> Option<Time> {
        let mut wake: Option<Time> = None;
        let mut push = |t: Time| {
            wake = Some(wake.map_or(t, |w| w.min(t)));
        };
        for runner in &self.cores {
            debug_assert_eq!(runner.wake_inputs, runner.wake_inputs());
            let (fits, finish) = runner.wake_inputs;
            if let Some(t) = fits.filter(|&t| t > now) {
                push(t);
            }
            if let Some(t) = finish {
                push(t.max(now + CLOCK));
            }
        }
        wake
    }

    /// True once any core has committed its budget (the paper's stop
    /// condition: "the simulation stops when one processor core commits
    /// 100 million instructions").
    pub fn any_done(&self, now: Time) -> bool {
        self.cores.iter().any(|r| r.core.done(now))
    }

    /// Final per-core statistics at the end instant.
    pub fn finish(&mut self, end: Time) -> Vec<CoreStats> {
        self.cores
            .iter_mut()
            .map(|r| {
                r.core.settle(end);
                r.stats.instructions = r.core.commit_idx(end);
                r.stats.cycles = (end - Time::ZERO) / CLOCK;
                r.stats
            })
            .collect()
    }

    /// Instantaneous miss-handling occupancy: (distinct in-flight lines
    /// holding L2 MSHRs, per-core MSHR slots in use summed over cores).
    /// Telemetry gauges; sampling this has no timing effect.
    pub fn occupancy(&self) -> (usize, u64) {
        (
            self.in_flight.len(),
            self.cores.iter().map(|r| u64::from(r.outstanding)).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::StridedTrace;
    use fbd_types::config::CpuConfig;

    /// What one [`CpuComplex::advance_into`] call produced.
    #[derive(Debug)]
    struct Advance {
        requests: Vec<MemRequest>,
        next_wake: Option<Time>,
    }

    impl CpuComplex {
        fn advance(&mut self, now: Time) -> Advance {
            let mut requests = Vec::new();
            let next_wake = self.advance_into(now, &mut requests);
            Advance {
                requests,
                next_wake,
            }
        }
    }

    fn cfg(cores: u32) -> CpuConfig {
        CpuConfig::paper_default(cores)
    }

    #[test]
    fn paper_constants() {
        assert_eq!(CLOCK, Dur::from_ps(250));
        assert_eq!(ROB_ENTRIES, 196);
        assert_eq!(DATA_MSHRS, 32);
        assert_eq!(L2_HIT_CYCLES, 15);
        let cpx = CpuComplex::new(&cfg(1), vec![strided(1, 1, 1)], 1);
        assert_eq!(cpx.fill_latency(), Dur::from_ps(3_750));
    }

    fn strided(count: u64, stride: u64, gap: u64) -> Box<dyn TraceSource> {
        Box::new(StridedTrace::new(count, stride, gap, Dur::from_ps(125)))
    }

    #[test]
    fn misses_produce_demand_reads() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(4, 1000, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 4);
        assert!(adv
            .requests
            .iter()
            .all(|r| r.kind == AccessKind::DemandRead));
        // Distinct ids, distinct lines.
        let ids: std::collections::HashSet<_> = adv.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn repeated_line_hits_after_fill() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(3, 0, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        // First access misses; the rest wait on the same line (merged).
        assert_eq!(adv.requests.len(), 1);
        cpx.complete(LineAddr::new(0), Time::from_ns(60));
        let adv2 = cpx.advance(Time::from_ns(60));
        assert!(adv2.requests.is_empty());
        assert!(cpx.l2.contains(LineAddr::new(0)));
    }

    #[test]
    fn dropped_fill_uncaches_the_line_but_frees_the_mshr() {
        // Two accesses to the same line, far enough apart in the
        // instruction stream that the second only reaches the L2 after
        // the first's fill resolves (ROB-blocked, like
        // `rob_limits_outstanding_run_ahead`).
        let requests_after = |dropped: bool| -> Vec<LineAddr> {
            let mut cpx = CpuComplex::new(&cfg(1), vec![strided(2, 0, 100)], 1_000_000);
            let adv = cpx.advance(Time::ZERO);
            assert_eq!(adv.requests.len(), 1);
            let line = adv.requests[0].line;
            if dropped {
                cpx.complete_dropped(line, Time::from_ns(60));
            } else {
                cpx.complete(line, Time::from_ns(60));
            }
            // Either way the MSHR is free and the stalled core resumed.
            assert_eq!(cpx.occupancy(), (0, 0));
            let mut out = Vec::new();
            let mut at = Time::from_ns(60);
            for _ in 0..5 {
                let adv = cpx.advance(at);
                out.extend(adv.requests.iter().map(|r| r.line));
                let Some(wake) = adv.next_wake else { break };
                at = wake;
            }
            out
        };
        // A delivered fill leaves the line cached: the second access hits.
        assert!(requests_after(false).is_empty());
        // A dropped fill leaves it uncached: the second access misses
        // and re-requests it (the fault-injection hit-rate shift).
        assert_eq!(requests_after(true), [LineAddr::new(0)]);
    }

    #[test]
    fn rob_limits_outstanding_run_ahead() {
        // Gap 100: ops sit at instruction indices 100, 201, 302, ...
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(100, 1000, 100)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        // At t=0 commit is at 0; only idx 100 < 196 fits the ROB.
        assert_eq!(adv.requests.len(), 1);
        // The op at 201 fits once commit reaches 6 — a timed wake.
        let wake = adv.next_wake.expect("ROB stall expires by time");
        assert_eq!(wake, Time::from_ps(6 * 125));
        let adv2 = cpx.advance(wake);
        assert_eq!(adv2.requests.len(), 1);
        // The op at 302 needs commit ≥ 107, but commit is capped at the
        // outstanding miss (idx 100): only a fill can unblock it.
        let adv3 = cpx.advance(Time::from_ns(50));
        assert!(adv3.requests.is_empty());
        assert_eq!(adv3.next_wake, None, "blocked on a miss, not on time");
        let line = adv.requests[0].line;
        cpx.complete(line, Time::from_ns(60));
        // Commit resumes at 101 and reaches 107 six instructions later;
        // only then does idx 302 fit the window.
        let adv4 = cpx.advance(Time::from_ns(60));
        assert!(adv4.requests.is_empty());
        let wake = adv4.next_wake.expect("timed ROB wake after fill");
        let adv5 = cpx.advance(wake);
        assert_eq!(adv5.requests.len(), 1);
    }

    #[test]
    fn mshr_limit_bounds_outstanding_misses() {
        // Gap 0: unbounded run-ahead except for MSHRs (32).
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(100, 1000, 0)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 32);
    }

    #[test]
    fn writebacks_emitted_for_dirty_victims() {
        // Tiny L2 to force evictions quickly.
        let mut cfg = cfg(1);
        cfg.l2_bytes = 4 * 64; // 1 set... 4 ways × 64 B
        struct StoreTrace(u64);
        impl TraceSource for StoreTrace {
            fn next_op(&mut self) -> Option<TraceOp> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(TraceOp {
                    gap: 1,
                    kind: OpKind::Store,
                    line: LineAddr::new(self.0 * 17),
                })
            }
            fn time_per_instr(&self) -> Dur {
                Dur::from_ps(125)
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let mut cpx = CpuComplex::new(&cfg, vec![Box::new(StoreTrace(10))], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        let writes = adv
            .requests
            .iter()
            .filter(|r| r.kind == AccessKind::Write)
            .count();
        assert!(writes >= 5, "dirty evictions must write back, got {writes}");
    }

    #[test]
    fn software_prefetch_issues_and_merges() {
        struct PfThenLoad(u8);
        impl TraceSource for PfThenLoad {
            fn next_op(&mut self) -> Option<TraceOp> {
                self.0 += 1;
                match self.0 {
                    1 => Some(TraceOp {
                        gap: 0,
                        kind: OpKind::Prefetch,
                        line: LineAddr::new(42),
                    }),
                    2 => Some(TraceOp {
                        gap: 50,
                        kind: OpKind::Load,
                        line: LineAddr::new(42),
                    }),
                    _ => None,
                }
            }
            fn time_per_instr(&self) -> Dur {
                Dur::from_ps(125)
            }
            fn name(&self) -> &str {
                "pf-then-load"
            }
        }
        let mut cpx = CpuComplex::new(&cfg(1), vec![Box::new(PfThenLoad(0))], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        // One prefetch request; the load merges onto it.
        assert_eq!(adv.requests.len(), 1);
        assert_eq!(adv.requests[0].kind, AccessKind::SoftwarePrefetch);
        // Before the fill, commit is blocked at the load.
        assert_eq!(cpx.cores[0].core.blocking_loads(), 1);
        cpx.complete(LineAddr::new(42), Time::from_ns(30));
        assert_eq!(cpx.cores[0].core.blocking_loads(), 0);

        // With software prefetching off, the prefetch disappears and the
        // load itself misses.
        let mut cfg_off = cfg(1);
        cfg_off.software_prefetch = false;
        let mut cpx = CpuComplex::new(&cfg_off, vec![Box::new(PfThenLoad(0))], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 1);
        assert_eq!(adv.requests[0].kind, AccessKind::DemandRead);
    }

    #[test]
    fn next_wake_projects_finish_when_idle() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(1, 1, 5)], 100);
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 1);
        cpx.complete(LineAddr::new(0), Time::from_ns(63));
        let adv = cpx.advance(Time::from_ns(63));
        // Trace done, nothing blocking: finish is projectable.
        assert!(adv.next_wake.is_some());
        let stats = cpx.finish(adv.next_wake.unwrap());
        assert_eq!(stats[0].instructions, 100);
        assert!(stats[0].cycles > 0);
        assert!(cpx.any_done(adv.next_wake.unwrap()));
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let _ = CpuComplex::new(&cfg(2), vec![strided(1, 1, 1)], 100);
    }

    #[test]
    fn hardware_prefetcher_issues_ahead_of_streams() {
        let mut c = cfg(1);
        c.hw_prefetch = true;
        // Unit-stride loads: after two misses the prefetcher should run
        // ahead.
        let mut cpx = CpuComplex::new(&c, vec![strided(4, 1, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        let hw = adv
            .requests
            .iter()
            .filter(|r| r.kind == AccessKind::HardwarePrefetch)
            .count();
        assert!(hw >= 4, "expected stream prefetches, got {hw}");
        // Later demand to a prefetched line merges instead of re-missing.
        let demand = adv
            .requests
            .iter()
            .filter(|r| r.kind == AccessKind::DemandRead)
            .count();
        assert!(demand < 4, "prefetched lines must absorb later demands");
    }

    #[test]
    fn occupancy_tracks_in_flight_lines_and_slots() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(4, 1000, 10)], 1_000_000);
        assert_eq!(cpx.occupancy(), (0, 0));
        let adv = cpx.advance(Time::ZERO);
        assert_eq!(adv.requests.len(), 4);
        assert_eq!(cpx.occupancy(), (4, 4));
        cpx.complete(adv.requests[0].line, Time::from_ns(60));
        assert_eq!(cpx.occupancy(), (3, 3));
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

    /// Loads, stores and software prefetches at seeded gaps (often past
    /// the ROB), over a line pool small enough that cores re-hit and
    /// merge on each other's lines.
    struct SeededTrace {
        rng: Mix,
        tpi: Dur,
    }

    impl TraceSource for SeededTrace {
        fn next_op(&mut self) -> Option<TraceOp> {
            let rng = &mut self.rng;
            let kind = match rng.below(10) {
                0..=6 => OpKind::Load,
                7 | 8 => OpKind::Store,
                _ => OpKind::Prefetch,
            };
            let gap = match rng.below(4) {
                0 => rng.below(4),
                1 => 150 + rng.below(400),
                _ => rng.below(120),
            };
            Some(TraceOp {
                gap,
                kind,
                line: LineAddr::new(rng.below(1 << 14)),
            })
        }
        fn time_per_instr(&self) -> Dur {
            self.tpi
        }
        fn name(&self) -> &str {
            "seeded"
        }
    }

    /// Runs a seeded eight-core complex against fills that return after
    /// seeded latencies, pumping it as the event loop does (at its wakes
    /// and after each fill), once with parking and once with every core
    /// advanced on every pump. The requests, their order, every wake and
    /// the stop instant must be identical.
    #[test]
    fn parked_pumping_matches_advancing_every_core() {
        let run = |parked: bool| {
            let mut c = cfg(8);
            c.l2_bytes = 64 * 1024; // small, so lines miss and write back
            let traces: Vec<Box<dyn TraceSource>> = (0..8)
                .map(|i| {
                    Box::new(SeededTrace {
                        rng: Mix(100 + i),
                        // Base IPC 2 down to 0.5 at 4 GHz.
                        tpi: Dur::from_ps(125 * (1 + i % 4)),
                    }) as Box<dyn TraceSource>
                })
                .collect();
            let mut cpx = CpuComplex::new(&c, traces, 40_000);
            let mut latency = Mix(9);
            // Pending wakes (`None`) and fills (`Some(line)`).
            let mut events: Vec<(Time, Option<LineAddr>)> = vec![(Time::ZERO, None)];
            let mut log = Vec::new();
            let mut now = Time::ZERO;
            let mut buf = Vec::new();
            let mut parked_pumps = 0;
            while !cpx.any_done(now) {
                events.sort_by(|a, b| b.cmp(a));
                let (at, fill) = events.pop().expect("deadlock: no event left");
                now = at;
                match fill {
                    Some(line) if latency.below(16) == 0 => cpx.complete_dropped(line, now),
                    Some(line) => cpx.complete(line, now),
                    None => {}
                }
                parked_pumps += cpx.cores.iter().filter(|r| now < r.parked_until).count();
                let wake = if parked {
                    cpx.advance_into(now, &mut buf)
                } else {
                    cpx.advance_all_into(now, &mut buf)
                };
                for r in buf.drain(..) {
                    if r.kind != AccessKind::Write {
                        let lat = Dur::from_ps(1_000 * (40 + latency.below(400)));
                        events.push((now + lat, Some(r.line)));
                    }
                    log.push((r.id, r.core, r.kind, r.line, r.arrival));
                }
                if let Some(w) = wake {
                    if !events.contains(&(w, None)) {
                        events.push((w, None));
                    }
                }
                let wake = wake.unwrap_or(Time::NEVER);
                log.push((
                    RequestId(u64::MAX),
                    CoreId(0),
                    AccessKind::Write,
                    LineAddr::new(0),
                    wake,
                ));
            }
            (log, now, cpx.finish(now), parked_pumps)
        };
        let (log, end, stats, parked_pumps) = run(true);
        let (ref_log, ref_end, ref_stats, _) = run(false);
        assert!(log.len() > 5_000, "too short a run: {}", log.len());
        assert!(
            parked_pumps > 10_000,
            "cores were rarely parked: {parked_pumps}"
        );
        assert_eq!(log.len(), ref_log.len());
        for (n, (a, b)) in log.iter().zip(&ref_log).enumerate() {
            assert_eq!(a, b, "entry {n} differs");
        }
        assert_eq!(end, ref_end);
        assert_eq!(stats, ref_stats);
    }

    #[test]
    fn hardware_prefetcher_off_by_default() {
        let mut cpx = CpuComplex::new(&cfg(1), vec![strided(4, 1, 10)], 1_000_000);
        let adv = cpx.advance(Time::ZERO);
        assert!(adv
            .requests
            .iter()
            .all(|r| r.kind != AccessKind::HardwarePrefetch));
    }
}
