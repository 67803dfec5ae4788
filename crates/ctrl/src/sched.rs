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

use crate::queue::QueueEntry;

/// Pending writes that switch the hit-first and FCFS policies from
/// read priority to draining writes (paper §4.1).
pub(crate) const WRITE_DRAIN_THRESHOLD: usize = 16;

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
/// The controller hands over the channel's schedulable entries and a
/// `classify` callback that knows the bank and AMB-cache state; the
/// policy picks the next transaction (or `None` when there is none).
/// Policies may keep state across picks (e.g. write-drain hysteresis),
/// which is why `pick` takes `&mut self`.
pub trait SchedulerPolicy: Send + std::fmt::Debug {
    /// Picks the next transaction among `ready` and returns its index
    /// there. `ready` is the ready prefix of one channel's bucket
    /// ([`TransactionQueue::ready`](crate::TransactionQueue::ready)):
    /// every entry in it is schedulable, in age (`seq`) order, and the
    /// returned index is also the bucket index that
    /// [`TransactionQueue::take`](crate::TransactionQueue::take)
    /// consumes. Policies read it in place.
    ///
    /// With `ready` empty the pick must return `None` and leave the
    /// policy unchanged: the controller's idle decisions are idempotent
    /// (see `MemorySystem::decide_into`), and the event loop skips
    /// their repeats.
    fn pick(
        &mut self,
        ready: &[QueueEntry],
        classify: &mut dyn FnMut(&QueueEntry) -> SchedClass,
    ) -> Option<usize>;
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

    /// Picks the next transaction among `ready` (see
    /// [`SchedulerPolicy::pick`]), classifying entries with `classify`.
    /// Two passes over `ready` in place: the first counts reads and
    /// writes, the second walks the chosen kind oldest first and stops
    /// at the first [`SchedClass::Hit`], so only entries up to it are
    /// classified.
    ///
    /// Returns `None` when `ready` is empty, before touching the
    /// write-drain state.
    pub fn pick<F>(&mut self, ready: &[QueueEntry], mut classify: F) -> Option<usize>
    where
        F: FnMut(&QueueEntry) -> SchedClass,
    {
        debug_assert!(
            ready.windows(2).all(|w| w[0].seq < w[1].seq),
            "bucket out of age order"
        );
        if ready.is_empty() {
            return None;
        }
        let writes = ready
            .iter()
            .filter(|e| e.req.kind == AccessKind::Write)
            .count();
        let reads = ready.len() - writes;
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
        // Oldest first, so the first entry of the best class met is the
        // minimum of (class, seq); nothing beats the first hit.
        let mut best: Option<(SchedClass, usize)> = None;
        for (i, e) in ready.iter().enumerate() {
            let in_phase = match phase {
                Phase::Reads => e.req.kind != AccessKind::Write,
                Phase::Writes => e.req.kind == AccessKind::Write,
            };
            if !in_phase {
                continue;
            }
            let class = classify(e);
            if class == SchedClass::Hit {
                return Some(i);
            }
            if best.is_none_or(|(b, _)| class < b) {
                best = Some((class, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// A pick over the whole `bucket` that skips entries not
    /// [`schedulable`](QueueEntry::schedulable) at `now`, needing no
    /// arrival order: the reference the ready-prefix pick is checked
    /// against.
    #[cfg(test)]
    pub(crate) fn pick_full_scan<F>(
        &mut self,
        bucket: &[QueueEntry],
        now: fbd_types::time::Time,
        overhead: fbd_types::time::Dur,
        mut classify: F,
    ) -> Option<usize>
    where
        F: FnMut(&QueueEntry) -> SchedClass,
    {
        let (mut reads, mut writes) = (0usize, 0usize);
        for e in bucket.iter().filter(|e| e.schedulable(now, overhead)) {
            if e.req.kind == AccessKind::Write {
                writes += 1;
            } else {
                reads += 1;
            }
        }
        if reads + writes == 0 {
            return None;
        }
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
        let mut best: Option<(SchedClass, usize)> = None;
        for (i, e) in bucket.iter().enumerate() {
            let in_phase = match phase {
                Phase::Reads => e.req.kind != AccessKind::Write,
                Phase::Writes => e.req.kind == AccessKind::Write,
            };
            if !in_phase || !e.schedulable(now, overhead) {
                continue;
            }
            let class = classify(e);
            if class == SchedClass::Hit {
                return Some(i);
            }
            if best.is_none_or(|(b, _)| class < b) {
                best = Some((class, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

impl SchedulerPolicy for HitFirstScheduler {
    fn pick(
        &mut self,
        ready: &[QueueEntry],
        classify: &mut dyn FnMut(&QueueEntry) -> SchedClass,
    ) -> Option<usize> {
        HitFirstScheduler::pick(self, ready, |e| classify(e))
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
            WRITE_DRAIN_THRESHOLD,
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
    use crate::queue::TransactionQueue;
    use crate::FcfsScheduler;
    use fbd_types::request::{CoreId, MemRequest};
    use fbd_types::time::{Dur, Time};
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

    fn sched() -> HitFirstScheduler {
        HitFirstScheduler::new(4, true)
    }

    /// Picks among `entries`, all taken as ready; returns the picked id.
    fn pick_id(
        s: &mut HitFirstScheduler,
        entries: &[QueueEntry],
        classify: impl FnMut(&QueueEntry) -> SchedClass,
    ) -> Option<RequestId> {
        s.pick(entries, classify).map(|i| entries[i].req.id)
    }

    #[test]
    fn paper_constants() {
        assert_eq!(crate::CONTROLLER_OVERHEAD, Dur::from_ns(12));
        assert_eq!(WRITE_DRAIN_THRESHOLD, 16);
    }

    #[test]
    fn empty_queue_yields_none() {
        let empty: Vec<QueueEntry> = Vec::new();
        let picked = pick_id(&mut sched(), &empty, |_| SchedClass::Ready);
        assert_eq!(picked, None);
    }

    #[test]
    fn reads_go_before_older_writes() {
        let entries = [
            entry(1, AccessKind::Write, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 0),
        ];
        let picked = pick_id(&mut sched(), &entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(2)));
    }

    #[test]
    fn hits_go_before_older_non_hits() {
        let entries = [
            entry(1, AccessKind::DemandRead, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 1),
        ];
        let picked = pick_id(&mut sched(), &entries, |e| {
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
            entry(6, AccessKind::DemandRead, 3, 0),
            entry(5, AccessKind::DemandRead, 7, 0),
        ];
        let picked = pick_id(&mut sched(), &entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(6)));
    }

    #[test]
    fn drain_mode_has_hysteresis() {
        let mut s = sched(); // threshold 4, low watermark 2
        let mut entries: Vec<QueueEntry> =
            (0..4).map(|i| entry(i, AccessKind::Write, i, 0)).collect();
        entries.push(entry(10, AccessKind::DemandRead, 10, 0));
        // 4 writes trigger draining.
        assert_eq!(
            pick_id(&mut s, &entries, |_| SchedClass::Ready),
            Some(RequestId(0))
        );
        entries.remove(0);
        // 3 writes remain: still above the low watermark → keep draining
        // even though a read is available.
        assert_eq!(
            pick_id(&mut s, &entries, |_| SchedClass::Ready),
            Some(RequestId(1))
        );
        entries.remove(0);
        // 2 writes: at the watermark → back to reads.
        assert_eq!(
            pick_id(&mut s, &entries, |_| SchedClass::Ready),
            Some(RequestId(10))
        );
    }

    #[test]
    fn without_hysteresis_reads_resume_immediately() {
        let mut s = HitFirstScheduler::new(4, false);
        let mut entries: Vec<QueueEntry> =
            (0..4).map(|i| entry(i, AccessKind::Write, i, 0)).collect();
        entries.push(entry(10, AccessKind::DemandRead, 10, 0));
        // At the threshold a write drains...
        assert_eq!(
            pick_id(&mut s, &entries, |_| SchedClass::Ready),
            Some(RequestId(0))
        );
        entries.remove(0);
        // ...but with hysteresis off the next pick returns to reads.
        assert_eq!(
            pick_id(&mut s, &entries, |_| SchedClass::Ready),
            Some(RequestId(10))
        );
    }

    #[test]
    fn write_pressure_flips_to_write_drain() {
        let mut entries: Vec<QueueEntry> =
            (0..4).map(|i| entry(i, AccessKind::Write, i, 0)).collect();
        entries.push(entry(10, AccessKind::DemandRead, 10, 0));
        let picked = pick_id(&mut sched(), &entries, |_| SchedClass::Ready);
        assert_eq!(
            picked,
            Some(RequestId(0)),
            "4 writes ≥ threshold: drain oldest write"
        );
    }

    #[test]
    fn writes_drain_when_no_reads_pending() {
        let entries = [entry(1, AccessKind::Write, 0, 0)];
        let picked = pick_id(&mut sched(), &entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(1)));
    }

    #[test]
    fn software_prefetch_counts_as_a_read() {
        let entries = [
            entry(1, AccessKind::Write, 0, 0),
            entry(2, AccessKind::SoftwarePrefetch, 1, 0),
        ];
        let picked = pick_id(&mut sched(), &entries, |_| SchedClass::Ready);
        assert_eq!(picked, Some(RequestId(2)));
    }

    #[test]
    fn ready_beats_not_ready() {
        let entries = [
            entry(1, AccessKind::DemandRead, 0, 0),
            entry(2, AccessKind::DemandRead, 1, 1),
        ];
        let picked = pick_id(&mut sched(), &entries, |e| {
            if e.mapped.bank == 0 {
                SchedClass::NotReady
            } else {
                SchedClass::Ready
            }
        });
        assert_eq!(picked, Some(RequestId(2)));
    }

    #[test]
    fn unschedulable_entries_are_neither_picked_nor_counted() {
        let (now, overhead) = (Time::from_ns(100), Dur::from_ns(10));
        // Four writes reach the drain threshold and the read at 95 ns
        // is a hit, but only the write at 50 ns and the read at 60 ns
        // have cleared the overhead by 100 ns.
        let mut q = TransactionQueue::new(1, 8);
        for (id, kind, bank, ns) in [
            (1, AccessKind::Write, 0, 50),
            (2, AccessKind::DemandRead, 0, 60),
            (3, AccessKind::DemandRead, 1, 95),
            (4, AccessKind::Write, 0, 95),
            (5, AccessKind::Write, 0, 95),
            (6, AccessKind::Write, 0, 95),
        ] {
            let mut e = entry(id, kind, 0, bank);
            e.req.arrival = Time::from_ns(ns);
            q.push(e.req, e.mapped);
        }
        let mut hit_on_bank_1 = |e: &QueueEntry| {
            if e.mapped.bank == 1 {
                SchedClass::Hit
            } else {
                SchedClass::NotReady
            }
        };
        let cleared = now + Dur::from_ns(5);
        for mut policy in [
            Box::new(sched()) as Box<dyn SchedulerPolicy>,
            Box::new(FcfsScheduler::new(4, true)),
        ] {
            // One schedulable write is below the threshold: reads go,
            // and the only schedulable read is the one at 60 ns. One
            // picosecond before the rest clear, that still holds.
            for at in [now, cleared - Dur::from_ps(1)] {
                let ready = q.ready(0, at, overhead);
                assert_eq!(ready.len(), 2, "{policy:?}");
                assert_eq!(
                    policy.pick(ready, &mut hit_on_bank_1),
                    Some(1),
                    "{policy:?}"
                );
            }
            // Once they clear, all four writes count and drain.
            let ready = q.ready(0, cleared, overhead);
            assert_eq!(
                policy.pick(ready, &mut hit_on_bank_1),
                Some(0),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn a_pick_with_nothing_schedulable_leaves_the_drain_state_alone() {
        let overhead = Dur::from_ns(10);
        let mut q = TransactionQueue::new(1, 8);
        for i in 0..4 {
            let e = entry(i, AccessKind::Write, i, 0);
            q.push(e.req, e.mapped);
        }
        for hysteresis in [false, true] {
            for drained in [false, true] {
                let mut s = HitFirstScheduler::new(4, hysteresis);
                if drained {
                    s.pick(q.ready(0, Time::from_ns(10), overhead), |_| {
                        SchedClass::Ready
                    });
                }
                let before = s.draining;
                assert_eq!(before, drained);
                // Empty, and every entry still inside the overhead.
                assert_eq!(s.pick(&[], |_| SchedClass::Ready), None);
                let ready = q.ready(0, Time::from_ns(9), overhead);
                assert!(ready.is_empty());
                assert_eq!(s.pick(ready, |_| SchedClass::Ready), None);
                assert_eq!(s.draining, before, "hysteresis {hysteresis}");
            }
        }
    }

    /// SplitMix64, for a reproducible operation stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn buckets_stay_in_age_order_and_the_pick_is_the_oldest_best() {
        let overhead = Dur::from_ns(12);
        let mut rng = 7u64;
        let mut q = TransactionQueue::new(2, 16);
        let mut scheds = [
            HitFirstScheduler::new(4, true),
            HitFirstScheduler::new(4, true),
        ];
        let mut now = Time::ZERO;
        // The class is a pure function of the entry, as a classifier
        // sees the bank and AMB state frozen during one pick.
        let classify = |e: &QueueEntry| match (e.req.line.as_u64() ^ u64::from(e.mapped.bank)) % 3 {
            0 => SchedClass::Hit,
            1 => SchedClass::Ready,
            _ => SchedClass::NotReady,
        };
        let (mut next_id, mut takes, mut backlogged) = (0, 0, 0);
        for step in 0..4_000 {
            let r = splitmix(&mut rng);
            if !r.is_multiple_of(3) {
                // Arrivals overfill the queue, so takes admit backlog.
                let kind = if (r >> 8).is_multiple_of(3) {
                    AccessKind::Write
                } else {
                    AccessKind::DemandRead
                };
                let mut e = entry(next_id, kind, 0, ((r >> 16) % 8) as u32);
                e.req.line = LineAddr::new((r >> 24) % 1024);
                e.req.arrival = now;
                e.mapped.channel = ((r >> 40) % 2) as u32;
                q.push(e.req, e.mapped);
                next_id += 1;
            }
            now += Dur::from_ns((r >> 48) % 8);
            backlogged = backlogged.max(q.backlog_len());
            for ch in 0..2u32 {
                let bucket = q.bucket(ch);
                assert!(
                    bucket
                        .windows(2)
                        .all(|w| w[0].seq < w[1].seq && w[0].req.arrival <= w[1].req.arrival),
                    "step {step}: channel {ch} out of age or arrival order"
                );
                // Brute force: the schedulable entries of the phase the
                // counts select, minimised by (class, seq).
                let ready: Vec<&QueueEntry> = bucket
                    .iter()
                    .filter(|e| e.req.arrival + overhead <= now)
                    .collect();
                let writes = ready
                    .iter()
                    .filter(|e| e.req.kind == AccessKind::Write)
                    .count();
                let mut reference = scheds[ch as usize];
                let want = (!ready.is_empty()).then(|| {
                    if writes >= 4 {
                        reference.draining = true;
                    } else if writes <= 2 {
                        reference.draining = false;
                    }
                    let drain =
                        (reference.draining && writes > 0) || writes >= 4 || writes == ready.len();
                    ready
                        .iter()
                        .filter(|e| (e.req.kind == AccessKind::Write) == drain)
                        .min_by_key(|e| (classify(e), e.seq))
                        .map(|e| e.req.id)
                        .expect("the phase has an entry")
                });
                let s = &mut scheds[ch as usize];
                let picked = s.pick(q.ready(ch, now, overhead), classify);
                assert_eq!(picked.map(|i| bucket[i].req.id), want, "step {step}");
                assert_eq!(s.draining, reference.draining, "step {step}");
                // Take the pick a fifth of the time, so arrivals
                // outpace takes and the backlog fills; now and then
                // take from anywhere in the bucket instead.
                let take = match picked {
                    Some(i) if (r >> 56) % 10 < 2 => Some(i),
                    _ if !bucket.is_empty() && (r >> 52).is_multiple_of(16) => {
                        Some((r >> 32) as usize % bucket.len())
                    }
                    _ => None,
                };
                if let Some(i) = take {
                    q.take(ch, i);
                    takes += 1;
                }
            }
        }
        assert!(
            takes > 1_000 && backlogged > 50,
            "{takes} takes, {backlogged} backlogged"
        );
    }

    /// One arrival-sorted bucket, a drain state, an instant and an
    /// overhead, all drawn from `rng`, with a class per entry.
    #[test]
    fn the_ready_prefix_pick_matches_the_full_scan() {
        let mut rng = 11u64;
        let (mut picks, mut empty, mut partial, mut drained) = (0, 0, 0, 0);
        for case in 0..3_000 {
            let r = splitmix(&mut rng);
            let len = (r % 40) as usize;
            let mut q = TransactionQueue::new(1, 64);
            let mut at = Time::from_ns(r >> 58);
            let mut classes = Vec::with_capacity(len + 8);
            for id in 0..len as u64 + 8 {
                let x = splitmix(&mut rng);
                // Runs of equal arrivals, and gaps of up to 15 ns.
                if !x.is_multiple_of(3) {
                    at += Dur::from_ps(x % 15_000);
                }
                let kind = match (x >> 16) % 8 {
                    0..=2 => AccessKind::Write,
                    3 => AccessKind::SoftwarePrefetch,
                    _ => AccessKind::DemandRead,
                };
                let mut e = entry(id, kind, 0, 0);
                e.req.arrival = at;
                q.push(e.req, e.mapped);
                classes.push(match (x >> 24) % 3 {
                    0 => SchedClass::Hit,
                    1 => SchedClass::Ready,
                    _ => SchedClass::NotReady,
                });
            }
            // Takes from anywhere leave gaps in `seq`.
            for _ in 0..8 {
                let x = splitmix(&mut rng);
                let n = q.bucket(0).len();
                q.take(0, x as usize % n);
            }
            let bucket = q.bucket(0);
            let classify = |e: &QueueEntry| classes[e.req.id.0 as usize];
            let overhead = Dur::from_ps((r >> 8) % 20_000);
            // From before the first arrival to past the last.
            let last = bucket.last().map_or(Time::ZERO, |e| e.req.arrival);
            let now = Time::from_ps((r >> 20) % (last.as_ps() + 30_000));
            let threshold = 1 + (r >> 40) as usize % 6;
            let hysteresis = (r >> 50).is_multiple_of(2);
            let mut hit_first = HitFirstScheduler::new(threshold, hysteresis);
            hit_first.draining = (r >> 51).is_multiple_of(2);
            drained += usize::from(hit_first.draining);
            let mut fcfs = FcfsScheduler::new(threshold, hysteresis);
            // Seed FCFS's drain state the same way: a pick over that
            // many ready writes drains, over none it leaves it alone.
            if hit_first.draining {
                let writes: Vec<QueueEntry> = (0..threshold as u64)
                    .map(|i| entry(i, AccessKind::Write, i, 0))
                    .collect();
                fcfs.pick(&writes, &mut |_| SchedClass::Hit);
            }
            let ready = q.ready(0, now, overhead);
            assert!(bucket[ready.len()..]
                .iter()
                .all(|e| !e.schedulable(now, overhead)));
            empty += usize::from(ready.is_empty());
            partial += usize::from(!ready.is_empty() && ready.len() < bucket.len());
            let mut reference = hit_first;
            let want = reference.pick_full_scan(bucket, now, overhead, classify);
            assert_eq!(hit_first.pick(ready, classify), want, "case {case}");
            assert_eq!(hit_first, reference, "case {case}");
            let mut reference = fcfs;
            let want = reference.pick_full_scan(bucket, now, overhead);
            let got = SchedulerPolicy::pick(&mut fcfs, ready, &mut |e| classify(e));
            assert_eq!(got, want, "case {case}: fcfs");
            assert_eq!(fcfs, reference, "case {case}: fcfs");
            picks += usize::from(want.is_some());
        }
        assert!(
            picks > 1_000 && empty > 200 && partial > 1_000 && drained > 1_000,
            "{picks} picks, {empty} empty, {partial} partial, {drained} drained"
        );
    }
}
