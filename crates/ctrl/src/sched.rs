//! Memory-access scheduling: the hit-first policy with read priority
//! (paper §4.1, after Rixner et al., reference 18 of the paper).
//!
//! The scheduler reorders pending transactions:
//!
//! 1. reads are scheduled before writes, unless the number of pending
//!    writes exceeds a threshold (then writes drain);
//! 2. among candidates, "hits" go first — row-buffer hits in open-page
//!    mode, AMB-cache hits when prefetching is on (both can be served
//!    without a new bank activation);
//! 3. ties break by age (oldest first).
//!
//! The scheduler itself is policy only: the caller classifies each entry
//! (it knows the bank and AMB-cache state) and the scheduler picks.

use fbd_types::config::{MemoryConfig, MemoryTech};
use fbd_types::request::AccessKind;
use fbd_types::RequestId;

use crate::queue::QueueEntry;

/// Service class of one queued transaction, as seen by the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedClass {
    /// Can be served without a new activation (row-buffer hit or
    /// AMB-cache hit). Highest priority.
    Hit,
    /// Needs an activation and its bank could accept one now.
    Ready,
    /// Its bank is busy (activation window, precharge, tRC).
    NotReady,
}

/// A pluggable, per-channel request-reordering policy (the trait-object
/// form of the scheduling interface; [`crate::schedulers`] publishes
/// implementations by name).
///
/// The controller collects the channel's schedulable entries and a
/// `classify` callback that knows the bank and AMB-cache state; the
/// policy picks the next transaction (or `None` when `candidates` is
/// empty). Policies may keep state across picks (e.g. write-drain
/// hysteresis), which is why `pick` takes `&mut self`.
pub trait SchedulerPolicy: Send + std::fmt::Debug {
    /// Picks the next transaction among `candidates` (already filtered
    /// to one channel and to schedulable arrivals). The slice is a
    /// caller-owned scratch buffer of copied entries, so policies can
    /// scan it repeatedly without allocating.
    ///
    /// An empty `candidates` slice must return `None` and leave the
    /// policy unchanged: the controller's idle decisions are idempotent
    /// (see `MemorySystem::decide_into`), and the event loop skips their
    /// repeats.
    fn pick(
        &mut self,
        candidates: &[QueueEntry],
        classify: &mut dyn FnMut(&QueueEntry) -> SchedClass,
    ) -> Option<RequestId>;
}

/// A named, registerable [`SchedulerPolicy`] factory (see
/// [`crate::schedulers`] for the registry).
pub trait SchedulerSpec: Send + Sync + std::fmt::Debug {
    /// Stable registry name (e.g. `hit-first`).
    fn name(&self) -> &'static str;
    /// One-line human description for listings.
    fn description(&self) -> &'static str;
    /// Builds one per-channel policy instance for `cfg` (write-drain
    /// threshold, bus technology, …).
    fn build(&self, cfg: &MemoryConfig) -> Box<dyn SchedulerPolicy>;
}

/// Which kinds the scheduler should consider this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Reads,
    Writes,
}

/// The hit-first scheduling policy for one channel.
///
/// Write draining has hysteresis: once the pending-write count reaches
/// the threshold the scheduler *stays* in drain mode until writes fall
/// to half the threshold, so the expensive bus turnaround (tWTR) is paid
/// once per batch instead of once per write.
#[derive(Clone, Copy, Debug)]
pub struct HitFirstScheduler {
    write_drain_threshold: usize,
    hysteresis: bool,
    draining: bool,
}

impl HitFirstScheduler {
    /// Creates the policy with the given write-drain threshold and batch
    /// hysteresis (use hysteresis for shared-bus channels where each
    /// read/write turnaround costs tWTR; skip it for FB-DIMM, whose
    /// write path is independent).
    ///
    /// # Panics
    ///
    /// Panics if `write_drain_threshold` is zero.
    pub fn new(write_drain_threshold: usize, hysteresis: bool) -> HitFirstScheduler {
        assert!(write_drain_threshold > 0, "threshold must be non-zero");
        HitFirstScheduler {
            write_drain_threshold,
            hysteresis,
            draining: false,
        }
    }

    /// Picks the next transaction among `candidates` (the caller filters
    /// to one channel), classifying each entry with `classify`. Two
    /// passes over the slice, no allocation.
    ///
    /// Returns `None` when `candidates` is empty, before touching the
    /// write-drain state.
    pub fn pick<F>(&mut self, candidates: &[QueueEntry], mut classify: F) -> Option<RequestId>
    where
        F: FnMut(&QueueEntry) -> SchedClass,
    {
        if candidates.is_empty() {
            return None;
        }
        let writes = candidates
            .iter()
            .filter(|e| e.req.kind == AccessKind::Write)
            .count();
        let reads = candidates.len() - writes;
        if writes >= self.write_drain_threshold {
            self.draining = true;
        } else if writes <= self.write_drain_threshold / 2 || !self.hysteresis {
            self.draining = false;
        }
        let over_threshold = writes >= self.write_drain_threshold;
        let phase = if (self.draining && writes > 0) || over_threshold || reads == 0 {
            Phase::Writes
        } else {
            Phase::Reads
        };
        candidates
            .iter()
            .filter(|e| match phase {
                Phase::Reads => e.req.kind != AccessKind::Write,
                Phase::Writes => e.req.kind == AccessKind::Write,
            })
            .min_by_key(|e| (classify(e), e.seq))
            .map(|e| e.req.id)
    }
}

impl SchedulerPolicy for HitFirstScheduler {
    fn pick(
        &mut self,
        candidates: &[QueueEntry],
        classify: &mut dyn FnMut(&QueueEntry) -> SchedClass,
    ) -> Option<RequestId> {
        HitFirstScheduler::pick(self, candidates, |e| classify(e))
    }
}

/// Registry entry for the paper's hit-first policy.
#[derive(Debug)]
pub struct HitFirstSpec;

impl SchedulerSpec for HitFirstSpec {
    fn name(&self) -> &'static str {
        "hit-first"
    }
    fn description(&self) -> &'static str {
        "hit-first with read priority and write-drain threshold (paper §4.1)"
    }
    fn build(&self, cfg: &MemoryConfig) -> Box<dyn SchedulerPolicy> {
        Box::new(HitFirstScheduler::new(
            cfg.write_drain_threshold as usize,
            // Batch-drain writes only on the shared DDR2 bus, where
            // every direction change costs tWTR.
            cfg.tech == MemoryTech::Ddr2,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappedAddr;
    use fbd_types::request::{CoreId, MemRequest};
    use fbd_types::time::Time;
    use fbd_types::LineAddr;

    fn entry(id: u64, kind: AccessKind, seq: u64, bank: u32) -> QueueEntry {
        QueueEntry {
            req: MemRequest::new(
                RequestId(id),
                CoreId(0),
                kind,
                LineAddr::new(id),
                Time::ZERO,
            ),
            mapped: MappedAddr {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank,
                row: 0,
                col_line: 0,
            },
            seq,
        }
    }

    fn sched() -> HitFirstScheduler {
        HitFirstScheduler::new(4, true)
    }

    #[test]
    fn empty_queue_yields_none() {
        let empty: Vec<QueueEntry> = Vec::new();
        let picked = sched().pick(&empty, |_| SchedClass::Ready);
        assert_eq!(picked, None);
    }

    #[test]
    fn reads_go_before_older_writes() {
        let entries = [
            entry(1, AccessKind::Write, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 0),
        ];
        let picked = sched().pick(&entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(2)));
    }

    #[test]
    fn hits_go_before_older_non_hits() {
        let entries = [
            entry(1, AccessKind::DemandRead, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 1),
        ];
        let picked = sched().pick(&entries, |e| {
            if e.mapped.bank == 1 {
                SchedClass::Hit
            } else {
                SchedClass::Ready
            }
        });
        assert_eq!(picked, Some(RequestId(2)));
    }

    #[test]
    fn age_breaks_ties_within_a_class() {
        let entries = [
            entry(5, AccessKind::DemandRead, 7, 0),
            entry(6, AccessKind::DemandRead, 3, 0),
        ];
        let picked = sched().pick(&entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(6)));
    }

    #[test]
    fn drain_mode_has_hysteresis() {
        let mut s = sched(); // threshold 4, low watermark 2
        let mut entries: Vec<QueueEntry> =
            (0..4).map(|i| entry(i, AccessKind::Write, i, 0)).collect();
        entries.push(entry(10, AccessKind::DemandRead, 10, 0));
        // 4 writes trigger draining.
        assert_eq!(s.pick(&entries, |_| SchedClass::Ready), Some(RequestId(0)));
        entries.remove(0);
        // 3 writes remain: still above the low watermark → keep draining
        // even though a read is available.
        assert_eq!(s.pick(&entries, |_| SchedClass::Ready), Some(RequestId(1)));
        entries.remove(0);
        // 2 writes: at the watermark → back to reads.
        assert_eq!(s.pick(&entries, |_| SchedClass::Ready), Some(RequestId(10)));
    }

    #[test]
    fn without_hysteresis_reads_resume_immediately() {
        let mut s = HitFirstScheduler::new(4, false);
        let mut entries: Vec<QueueEntry> =
            (0..4).map(|i| entry(i, AccessKind::Write, i, 0)).collect();
        entries.push(entry(10, AccessKind::DemandRead, 10, 0));
        // At the threshold a write drains...
        assert_eq!(s.pick(&entries, |_| SchedClass::Ready), Some(RequestId(0)));
        entries.remove(0);
        // ...but with hysteresis off the next pick returns to reads.
        assert_eq!(s.pick(&entries, |_| SchedClass::Ready), Some(RequestId(10)));
    }

    #[test]
    fn write_pressure_flips_to_write_drain() {
        let mut entries: Vec<QueueEntry> =
            (0..4).map(|i| entry(i, AccessKind::Write, i, 0)).collect();
        entries.push(entry(10, AccessKind::DemandRead, 10, 0));
        let picked = sched().pick(&entries, |_| SchedClass::Ready);
        assert_eq!(
            picked,
            Some(RequestId(0)),
            "4 writes ≥ threshold: drain oldest write"
        );
    }

    #[test]
    fn writes_drain_when_no_reads_pending() {
        let entries = [entry(1, AccessKind::Write, 0, 0)];
        let picked = sched().pick(&entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(1)));
    }

    #[test]
    fn software_prefetch_counts_as_a_read() {
        let entries = [
            entry(1, AccessKind::Write, 0, 0),
            entry(2, AccessKind::SoftwarePrefetch, 1, 0),
        ];
        let picked = sched().pick(&entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(2)));
    }

    #[test]
    fn ready_beats_not_ready() {
        let entries = [
            entry(1, AccessKind::DemandRead, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 1),
        ];
        let picked = sched().pick(&entries, |e| {
            if e.mapped.bank == 0 {
                SchedClass::NotReady
            } else {
                SchedClass::Ready
            }
        });
        assert_eq!(picked, Some(RequestId(2)));
    }
}
