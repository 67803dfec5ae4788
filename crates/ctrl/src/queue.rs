//! The memory controller's transaction queue (Table 1: "memory buffer,
//! 64 entries").
//!
//! Requests wait here until their channel's scheduler picks them. The
//! queue owns channel membership: admitted entries live in one bucket
//! per logical channel, all under the one shared capacity, so a
//! decision touches only its own channel's bucket. It also owns
//! back-pressure: a request that arrives while the queue is full joins
//! a FIFO backlog, and each [`take`](TransactionQueue::take) admits
//! backlog entries until the queue is full again. An entry's age `seq`
//! is assigned when it is admitted, so it orders entries across every
//! bucket, and each bucket stays in `seq` order: admission appends and
//! [`take`](TransactionQueue::take) closes the gap it leaves.
//!
//! Requests must be pushed in arrival order ([`push`](TransactionQueue::push)
//! panics otherwise). Admission follows push order, so each bucket is
//! sorted by arrival as well as by `seq`, and the entries that have
//! cleared the controller's decode overhead form a prefix of it
//! ([`ready`](TransactionQueue::ready)).

use std::collections::VecDeque;

use fbd_types::request::MemRequest;
use fbd_types::time::{Dur, Time};

use crate::mapping::MappedAddr;

/// Fixed scheduling/queueing overhead at the controller (Table 1:
/// 12 ns): a transaction becomes schedulable this long after it
/// arrives.
pub const CONTROLLER_OVERHEAD: Dur = Dur::from_ns(12);

/// A queued transaction: the request plus its decoded location and an
/// admission sequence number for age-based tie-breaking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueEntry {
    /// The transaction.
    pub req: MemRequest,
    /// Decoded {channel, DIMM, bank, row, column}.
    pub mapped: MappedAddr,
    /// Admission order (smaller = older); unique across the queue.
    pub seq: u64,
}

impl QueueEntry {
    /// How long the transaction has been queued as of `at` (zero if
    /// `at` precedes its arrival) — the controller-queueing stage of
    /// the latency profile.
    pub fn queue_wait(&self, at: Time) -> Dur {
        at.saturating_since(self.req.arrival)
    }

    /// True once the controller's decode `overhead` has passed since
    /// arrival (`arrival + overhead <= now`): only then may a scheduler
    /// pick the entry. [`TransactionQueue::ready`] hands schedulers the
    /// bucket's prefix of such entries.
    #[inline]
    pub fn schedulable(&self, now: Time, overhead: Dur) -> bool {
        self.req.arrival + overhead <= now
    }
}

/// Bounded, per-channel-bucketed transaction queue with an unbounded
/// FIFO backlog behind it.
#[derive(Clone, Debug)]
pub struct TransactionQueue {
    /// Admitted entries, one bucket per logical channel, oldest first.
    buckets: Vec<Vec<QueueEntry>>,
    /// Requests that arrived while the queue was full, oldest first.
    backlog: VecDeque<(MemRequest, MappedAddr)>,
    /// Backlogged requests per channel.
    backlogged: Vec<usize>,
    /// Admitted entries over all buckets.
    len: usize,
    capacity: usize,
    next_seq: u64,
    /// Arrival of the last pushed request.
    last_arrival: Time,
}

impl TransactionQueue {
    /// Creates an empty queue for `channels` logical channels sharing
    /// `capacity` entries. Every bucket is reserved to the full
    /// capacity (all entries may map to one channel), so admission
    /// never allocates, and so is the backlog.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `capacity` is zero.
    pub fn new(channels: usize, capacity: usize) -> TransactionQueue {
        assert!(channels > 0, "a queue needs at least one channel");
        assert!(capacity > 0, "queue capacity must be non-zero");
        TransactionQueue {
            buckets: (0..channels)
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            // A closed loop backlogs at most a few requests per core;
            // room for a full queue's worth keeps it off the allocator.
            backlog: VecDeque::with_capacity(capacity),
            backlogged: vec![0; channels],
            len: 0,
            capacity,
            next_seq: 0,
            last_arrival: Time::ZERO,
        }
    }

    /// Enqueues a transaction: admitted when there is room, otherwise
    /// appended to the backlog.
    ///
    /// # Panics
    ///
    /// Panics if `req` arrives before the previously pushed request.
    pub fn push(&mut self, req: MemRequest, mapped: MappedAddr) {
        // A bucket out of arrival order would hide ready entries behind
        // an unready one.
        assert!(
            req.arrival >= self.last_arrival,
            "request pushed with an arrival before the previous request's"
        );
        self.last_arrival = req.arrival;
        if self.len < self.capacity {
            debug_assert!(self.backlog.is_empty(), "backlog waits for room");
            self.admit(req, mapped);
        } else {
            self.backlogged[mapped.channel as usize] += 1;
            self.backlog.push_back((req, mapped));
        }
    }

    fn admit(&mut self, req: MemRequest, mapped: MappedAddr) {
        self.buckets[mapped.channel as usize].push(QueueEntry {
            req,
            mapped,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        self.len += 1;
    }

    /// Removes and returns the entry at `index` in channel `ch`'s
    /// bucket (the index a scheduler's pick returns), keeping the rest
    /// in age order, then admits backlogged requests (oldest first)
    /// until the queue is full again.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the bucket's bounds.
    pub fn take(&mut self, ch: u32, index: usize) -> QueueEntry {
        let entry = self.buckets[ch as usize].remove(index);
        self.len -= 1;
        while self.len < self.capacity {
            let Some((req, mapped)) = self.backlog.pop_front() else {
                break;
            };
            self.backlogged[mapped.channel as usize] -= 1;
            self.admit(req, mapped);
        }
        entry
    }

    /// Channel `ch`'s admitted entries in age (`seq`) and arrival
    /// order, oldest first (the queue-depth gauge is its length).
    pub fn bucket(&self, ch: u32) -> &[QueueEntry] {
        &self.buckets[ch as usize]
    }

    /// Channel `ch`'s schedulable entries at `now`: the prefix of its
    /// [`bucket`](Self::bucket) whose decode `overhead` has passed
    /// ([`QueueEntry::schedulable`]), found by binary search. The entry
    /// right after the prefix, if any, is the next to become
    /// schedulable.
    pub fn ready(&self, ch: u32, now: Time, overhead: Dur) -> &[QueueEntry] {
        let bucket = &self.buckets[ch as usize];
        &bucket[..bucket.partition_point(|e| e.schedulable(now, overhead))]
    }

    /// True if channel `ch` has an admitted or a backlogged request.
    pub fn has_work(&self, ch: u32) -> bool {
        !self.buckets[ch as usize].is_empty() || self.backlogged[ch as usize] > 0
    }

    /// Admitted transactions over all channels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is admitted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Requests waiting in the backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::request::{AccessKind, CoreId};
    use fbd_types::{LineAddr, RequestId};

    fn req(id: u64) -> MemRequest {
        MemRequest::new(
            RequestId(id),
            CoreId(0),
            AccessKind::DemandRead,
            LineAddr::new(id),
            Time::ZERO,
        )
    }

    fn on(ch: u32) -> MappedAddr {
        MappedAddr {
            channel: ch,
            dimm: 0,
            rank: 0,
            bank: 0,
            row: 0,
            col_line: 0,
        }
    }

    fn ids(q: &TransactionQueue, ch: u32) -> Vec<u64> {
        let mut ids: Vec<u64> = q.bucket(ch).iter().map(|e| e.req.id.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn buckets_hold_only_their_channel() {
        let mut q = TransactionQueue::new(3, 4);
        q.push(req(1), on(0));
        q.push(req(2), on(1));
        q.push(req(3), on(1));
        assert_eq!(ids(&q, 0), vec![1]);
        assert_eq!(ids(&q, 1), vec![2, 3]);
        assert!(q.bucket(2).is_empty());
        assert!(!q.has_work(2));
    }

    #[test]
    fn capacity_is_shared_across_buckets() {
        let mut q = TransactionQueue::new(2, 2);
        q.push(req(1), on(0));
        q.push(req(2), on(1));
        assert_eq!(q.len(), 2);
        // Channel 1's bucket is reserved to the full capacity, but the
        // two entries already use up the shared capacity.
        q.push(req(3), on(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.backlog_len(), 1);
        assert_eq!(ids(&q, 1), vec![2]);
    }

    #[test]
    fn push_never_fails() {
        let mut q = TransactionQueue::new(1, 1);
        for id in 0..100 {
            q.push(req(id), on(0));
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.backlog_len(), 99);
        for id in 0..100 {
            assert_eq!(q.take(0, 0).req.id.0, id);
        }
        assert!(q.is_empty());
        assert_eq!(q.backlog_len(), 0);
    }

    #[test]
    fn take_admits_the_backlog_in_fifo_order_and_stamps_seq_then() {
        let mut q = TransactionQueue::new(2, 2);
        q.push(req(1), on(0));
        q.push(req(2), on(0));
        q.push(req(3), on(1));
        q.push(req(4), on(0));
        assert_eq!(q.backlog_len(), 2);
        let first = q.take(0, 0);
        assert_eq!((first.req.id.0, first.seq), (1, 0));
        // One slot freed: only the oldest backlogged request enters,
        // and it is the third admission.
        assert_eq!(q.backlog_len(), 1);
        let admitted = q.bucket(1)[0];
        assert_eq!((admitted.req.id.0, admitted.seq), (3, 2));
        assert_eq!(q.take(0, 0).req.id.0, 2);
        let admitted = q.bucket(0)[0];
        assert_eq!((admitted.req.id.0, admitted.seq), (4, 3));
        assert_eq!(q.backlog_len(), 0);
    }

    #[test]
    fn has_work_counts_a_backlogged_only_channel() {
        let mut q = TransactionQueue::new(2, 1);
        q.push(req(1), on(1));
        q.push(req(2), on(0));
        assert!(q.bucket(0).is_empty());
        assert!(q.has_work(0), "channel 0's only request is backlogged");
        assert_eq!(q.take(1, 0).req.id.0, 1);
        assert_eq!(ids(&q, 0), vec![2]);
        assert!(q.has_work(0));
        assert!(!q.has_work(1));
    }

    #[test]
    fn sequence_numbers_record_age() {
        let mut q = TransactionQueue::new(2, 4);
        q.push(req(10), on(0));
        q.push(req(11), on(1));
        q.push(req(12), on(0));
        let seq = |ch: u32, id: u64| {
            q.bucket(ch)
                .iter()
                .find(|e| e.req.id.0 == id)
                .map(|e| e.seq)
        };
        assert_eq!(
            (seq(0, 10), seq(1, 11), seq(0, 12)),
            (Some(0), Some(1), Some(2))
        );
        // Backlogged requests burn no sequence number until admitted.
        let mut q = TransactionQueue::new(1, 1);
        q.push(req(1), on(0));
        q.push(req(2), on(0));
        q.take(0, 0);
        assert_eq!(q.bucket(0)[0].seq, 1);
    }

    #[test]
    fn take_frees_space_and_returns_entry() {
        let mut q = TransactionQueue::new(2, 3);
        q.push(req(1), on(0));
        q.push(req(2), on(1));
        q.push(req(3), on(0));
        assert_eq!(q.take(0, 0).req.id.0, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(ids(&q, 0), vec![3]);
        assert_eq!(ids(&q, 1), vec![2]);
        q.push(req(4), on(0));
        assert_eq!(q.backlog_len(), 0, "the freed slot admits directly");
    }

    #[test]
    fn take_keeps_the_bucket_in_age_order() {
        let mut q = TransactionQueue::new(1, 8);
        for id in 0..6 {
            q.push(req(id), on(0));
        }
        assert_eq!(q.take(0, 2).req.id.0, 2);
        assert_eq!(q.take(0, 0).req.id.0, 0);
        q.push(req(6), on(0));
        let order: Vec<(u64, u64)> = q.bucket(0).iter().map(|e| (e.req.id.0, e.seq)).collect();
        assert_eq!(order, vec![(1, 1), (3, 3), (4, 4), (5, 5), (6, 6)]);
    }

    #[test]
    fn ready_prefix_ends_where_the_overhead_has_not_passed() {
        let overhead = Dur::from_ns(12);
        let mut q = TransactionQueue::new(2, 8);
        for (id, ns, ch) in [(1, 10, 0), (2, 20, 0), (3, 20, 1), (4, 20, 0), (5, 30, 0)] {
            let mut r = req(id);
            r.arrival = Time::from_ns(ns);
            q.push(r, on(ch));
        }
        let ready = |q: &TransactionQueue, ch: u32, now: Time| -> Vec<u64> {
            q.ready(ch, now, overhead)
                .iter()
                .map(|e| e.req.id.0)
                .collect()
        };
        // Exactly at `arrival + overhead` an entry is ready; one
        // picosecond earlier it is not, and neither is anything behind.
        let at_20 = Time::from_ns(20) + overhead;
        assert_eq!(ready(&q, 0, at_20), vec![1, 2, 4]);
        assert_eq!(ready(&q, 0, at_20 - Dur::from_ps(1)), vec![1]);
        assert_eq!(ready(&q, 1, at_20), vec![3]);
        assert_eq!(ready(&q, 1, at_20 - Dur::from_ps(1)), Vec::<u64>::new());
        assert_eq!(ready(&q, 0, Time::from_ns(30) + overhead), vec![1, 2, 4, 5]);
        assert_eq!(ready(&q, 0, Time::ZERO), Vec::<u64>::new());
        // A take keeps the rest a prefix.
        q.take(0, 1);
        assert_eq!(ready(&q, 0, at_20), vec![1, 4]);
    }

    #[test]
    #[should_panic(expected = "arrival before the previous request's")]
    fn push_rejects_an_arrival_that_goes_backwards() {
        let mut q = TransactionQueue::new(2, 1);
        let mut late = req(1);
        late.arrival = Time::from_ns(5);
        q.push(late, on(0));
        // Backlogged or not, and on another channel, order is global.
        q.push(req(2), on(1));
    }

    #[test]
    #[should_panic(expected = "index")]
    fn take_past_the_bucket_panics() {
        let mut q = TransactionQueue::new(2, 2);
        q.push(req(1), on(0));
        q.take(1, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = TransactionQueue::new(1, 0);
    }
}
