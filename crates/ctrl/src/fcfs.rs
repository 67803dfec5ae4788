//! First-come-first-served scheduling — the registry's extension proof.
//!
//! FCFS is the classic baseline the paper compares hit-first against:
//! requests are served strictly in arrival order, ignoring row-buffer
//! and AMB-cache state. It is implemented *outside* the core policy as
//! a wrapper that feeds [`HitFirstScheduler`] a constant classification,
//! which collapses the hit-first ordering key `(class, seq)` to plain
//! age while keeping the read/write phase machinery (write drain still
//! applies — a real FCFS controller still batches writes).
//!
//! Nothing in the controller or memory system knows this policy exists;
//! it is reachable only through the [`crate::schedulers`] registry. Use
//! it as the template for new policies: one file plus one `register`
//! call. A policy's `pick` sees only the channel's ready prefix, every
//! entry already schedulable and in age order, and returns an index
//! into it; the controller's queue works out which entries are ready.

use fbd_types::config::{MemoryConfig, MemoryTech};

use crate::queue::QueueEntry;
use crate::sched::{
    HitFirstScheduler, SchedClass, SchedulerPolicy, SchedulerSpec, WRITE_DRAIN_THRESHOLD,
};

/// Strict arrival-order policy (oldest schedulable request first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FcfsScheduler {
    inner: HitFirstScheduler,
}

impl FcfsScheduler {
    /// Creates the policy; the parameters configure the write-drain
    /// behaviour exactly as for [`HitFirstScheduler::new`].
    ///
    /// # Panics
    ///
    /// Panics if `write_drain_threshold` is zero.
    pub fn new(write_drain_threshold: usize, hysteresis: bool) -> FcfsScheduler {
        FcfsScheduler {
            inner: HitFirstScheduler::new(write_drain_threshold, hysteresis),
        }
    }
}

impl FcfsScheduler {
    /// [`HitFirstScheduler::pick_full_scan`] with every entry a `Hit`.
    #[cfg(test)]
    pub(crate) fn pick_full_scan(
        &mut self,
        bucket: &[QueueEntry],
        now: fbd_types::time::Time,
        overhead: fbd_types::time::Dur,
    ) -> Option<usize> {
        self.inner
            .pick_full_scan(bucket, now, overhead, |_| SchedClass::Hit)
    }
}

impl SchedulerPolicy for FcfsScheduler {
    fn pick(
        &mut self,
        ready: &[QueueEntry],
        _classify: &mut dyn FnMut(&QueueEntry) -> SchedClass,
    ) -> Option<usize> {
        // A constant class makes (class, seq) order pure arrival order;
        // making it `Hit` stops the pick at the oldest entry of the
        // phase.
        self.inner.pick(ready, |_| SchedClass::Hit)
    }
}

/// Registry entry for the FCFS baseline.
#[derive(Debug)]
pub struct FcfsSpec;

impl SchedulerSpec for FcfsSpec {
    fn name(&self) -> &'static str {
        "fcfs"
    }
    fn description(&self) -> &'static str {
        "first-come-first-served in arrival order (ignores row/AMB state)"
    }
    fn build(&self, cfg: &MemoryConfig) -> Box<dyn SchedulerPolicy> {
        Box::new(FcfsScheduler::new(
            WRITE_DRAIN_THRESHOLD,
            cfg.tech == MemoryTech::Ddr2,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappedAddr;
    use fbd_types::request::{AccessKind, CoreId, MemRequest};
    use fbd_types::time::Time;
    use fbd_types::{LineAddr, RequestId};

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

    #[test]
    fn fcfs_ignores_hit_classification() {
        // An AMB/row hit arriving later must NOT jump the queue.
        let entries = [
            entry(1, AccessKind::DemandRead, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 1),
        ];
        let mut classify = |e: &QueueEntry| {
            if e.mapped.bank == 1 {
                SchedClass::Hit
            } else {
                SchedClass::NotReady
            }
        };
        let mut s = FcfsScheduler::new(4, false);
        assert_eq!(s.pick(&entries, &mut classify), Some(0));
    }

    #[test]
    fn fcfs_still_prioritises_reads_until_writes_drain() {
        // Same phase machinery as hit-first: one write does not block
        // a younger read on FB-DIMM (independent write path).
        let entries = [
            entry(1, AccessKind::Write, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 0),
        ];
        let mut classify = |_: &QueueEntry| SchedClass::Ready;
        let mut s = FcfsScheduler::new(4, false);
        assert_eq!(s.pick(&entries, &mut classify), Some(1));
    }

    #[test]
    fn spec_builds_from_config() {
        let cfg = MemoryConfig::fbdimm_default();
        let mut policy = FcfsSpec.build(&cfg);
        let empty: Vec<QueueEntry> = Vec::new();
        assert_eq!(policy.pick(&empty, &mut |_| SchedClass::Ready), None);
    }
}
