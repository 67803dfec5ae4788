//! The event queue driving the simulation loop.
//!
//! Two interchangeable implementations sit behind [`EventQueue`]:
//!
//! * [`EventWheel`] — the default: a windowed calendar queue ("event
//!   wheel") with power-of-two time buckets, a two-level occupancy
//!   bitmap for O(1) next-event lookup, and an overflow heap for events
//!   beyond the window. Identical `(time, event)` entries pushed with
//!   `dedup` (or [`push_n`](EventQueue::push_n)) are collapsed into one
//!   slot entry carrying a multiplicity count, so e.g. a channel is
//!   never enqueued twice for the same instant — the count preserves how
//!   many times the handler must run. Overflow-heap entries carry their
//!   count too, so a multiplicity push past the window is one heap
//!   operation.
//! * a plain `BinaryHeap<Reverse<(Time, T)>>` — the seed implementation,
//!   kept as the unbatched differential reference: it stores every push
//!   (`push_n` pushes `n` copies) and pops them one at a time. Select it
//!   with the environment variable `FBD_EVENT_QUEUE=heap`; the
//!   golden-parity suite byte-compares the two.
//!
//! Both pop events in strictly nondecreasing `(Time, T)` order, with
//! same-timestamp events ordered by `T`'s `Ord`, which is what makes the
//! byte-identity gate possible. The wheel keeps each bucket ordered by
//! the full `(Time, T)` key as entries arrive: an insert scans back from
//! the bucket's latest entry to its place (new events are nearly always
//! the latest, so the scan usually stops at once) and merges a deduped
//! push into an identical entry on the way; a pop takes the bucket's
//! head and advances a per-bucket head index, never scanning.
//!
//! *Ties.* Two entries with the same `(Time, T)` key can sit in one
//! bucket only if at least one was pushed without `dedup`, and then the
//! wheel may pop them in either order, while the heap pops the copies
//! one by one. That cannot change a result: a caller that runs the
//! handler `count` times per pop, with nothing between runs that depends
//! on how the runs are split into pops, sees the same sequence of
//! handler runs whichever identical entry pops first. The simulation
//! loop is such a caller: it dedups every decision push, so a bucket
//! holds at most one entry per decision key, and the identical entries
//! of its non-deduped pushes (completions, the front end's wake) differ
//! only in their counts and are handled `count` times with no
//! forwarding break between runs.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use fbd_types::time::Time;

/// log2 of the bucket width in picoseconds: 4096 ps ≈ 1.4 DDR2-667
/// clocks, so a bucket rarely holds more than a handful of events.
const SLOT_SHIFT: u32 = 12;
/// Number of buckets in the window (power of two): 1024 × 4096 ps ≈
/// 4.2 µs, wide enough for read completions, refresh and telemetry
/// sampling deadlines; later events overflow to a heap and re-bucket
/// when the window advances.
const SLOTS: usize = 1024;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Occupancy bitmap: one bit per slot, 64 slots per word.
const OCC_WORDS: usize = SLOTS / 64;
/// Initial capacity of each bucket (512 KiB total for the simulation
/// loop's 32 B entries: a 16 B `Event`, its 8 B time and 4 B count,
/// padded). A 4096 ps bucket holds at most a couple of clock edges'
/// worth of events per channel, so growth past this is rare, and a full
/// bucket with popped entries at its front is compacted instead of
/// grown — pre-sizing keeps the steady-state hot loop allocation-free
/// (the ring reuses bucket capacity as the window wraps).
const SLOT_CAP: usize = 16;

/// One bucket (or overflow) entry: an event plus how many identical
/// pushes it stands for (always 1 unless pushed with `dedup` or
/// [`EventWheel::push_n`]).
type Entry<T> = (Time, T, u32);

/// One time bucket: its live entries are `entries[head..]`, ascending
/// by `(Time, T)`; `entries[..head]` were popped and are dead.
#[derive(Debug)]
struct Bucket<T> {
    entries: Vec<Entry<T>>,
    head: usize,
}

/// Windowed calendar queue keyed on clock-aligned time buckets.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// Ring of buckets; index = absolute slot & [`SLOT_MASK`].
    slots: Vec<Bucket<T>>,
    /// Two-level occupancy: bit per slot (ring index order).
    occ: [u64; OCC_WORDS],
    /// First absolute slot of the current window.
    wbase: u64,
    /// Absolute slot scanning resumes from (invariant: every queued
    /// event lives at a slot ≥ `cursor`, because events are never
    /// scheduled in the past).
    cursor: u64,
    /// Entries currently in the ring (not counting `overflow`).
    len: usize,
    /// Events beyond the window with their counts; strictly later than
    /// everything in the ring (their absolute slot is ≥ `wbase + SLOTS`).
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T: Ord + Copy> Default for EventWheel<T> {
    fn default() -> EventWheel<T> {
        EventWheel::new()
    }
}

impl<T: Ord + Copy> EventWheel<T> {
    /// An empty wheel with its window based at time zero.
    pub fn new() -> EventWheel<T> {
        EventWheel {
            slots: std::iter::repeat_with(|| Bucket {
                entries: Vec::with_capacity(SLOT_CAP),
                head: 0,
            })
            .take(SLOTS)
            .collect(),
            occ: [0; OCC_WORDS],
            wbase: 0,
            cursor: 0,
            len: 0,
            overflow: BinaryHeap::with_capacity(256),
        }
    }

    fn abs_slot(at: Time) -> u64 {
        at.as_ps() >> SLOT_SHIFT
    }

    /// Queues `ev` at `at`. With `dedup`, an identical `(at, ev)` entry
    /// already in its bucket absorbs the push by incrementing its count
    /// instead of storing a second entry.
    pub fn push(&mut self, at: Time, ev: T, dedup: bool) {
        self.insert(at, ev, 1, dedup);
    }

    /// Queues `ev` at `at` standing for `n` identical deduped pushes: an
    /// identical entry absorbs it by adding `n` to its count. `n == 0`
    /// queues nothing.
    pub fn push_n(&mut self, at: Time, ev: T, n: u32) {
        if n > 0 {
            self.insert(at, ev, n, true);
        }
    }

    fn insert(&mut self, at: Time, ev: T, n: u32, dedup: bool) {
        let abs = Self::abs_slot(at);
        // An ordered bucket would silently misorder an event in the past.
        assert!(abs >= self.cursor, "event scheduled before the cursor");
        if abs >= self.wbase + SLOTS as u64 {
            self.overflow.push(Reverse((at, ev, n)));
            return;
        }
        let idx = (abs & SLOT_MASK) as usize;
        let b = &mut self.slots[idx];
        // Scan back from the latest live entry to the first one not
        // after (at, ev); an identical one absorbs a deduped push, and a
        // non-deduped copy goes after it.
        let mut pos = b.entries.len();
        while pos > b.head {
            let e = &mut b.entries[pos - 1];
            match e.0.cmp(&at).then_with(|| e.1.cmp(&ev)) {
                Ordering::Greater => pos -= 1,
                Ordering::Equal if dedup => {
                    e.2 += n;
                    return;
                }
                _ => break,
            }
        }
        if pos == b.head && b.head > 0 {
            // Before every live entry: reuse the dead slot in front.
            b.head -= 1;
            b.entries[b.head] = (at, ev, n);
        } else {
            if b.entries.len() == b.entries.capacity() && b.head > 0 {
                // Full with dead entries in front: compact, don't grow.
                b.entries.drain(..b.head);
                pos -= b.head;
                b.head = 0;
            }
            b.entries.insert(pos, (at, ev, n));
        }
        self.len += 1;
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// Removes and returns the minimum `(Time, T)` entry with its
    /// multiplicity count, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        loop {
            if self.len == 0 {
                if self.overflow.is_empty() {
                    return None;
                }
                self.advance_window();
                continue;
            }
            let abs = self.next_occupied().expect("len > 0 implies a set bit");
            let idx = (abs & SLOT_MASK) as usize;
            let b = &mut self.slots[idx];
            // The bucket is ordered, so its head is its minimum.
            let entry = b.entries[b.head];
            b.head += 1;
            if b.head == b.entries.len() {
                b.entries.clear();
                b.head = 0;
                self.occ[idx >> 6] &= !(1u64 << (idx & 63));
            }
            self.len -= 1;
            self.cursor = abs;
            return Some(entry);
        }
    }

    /// First occupied absolute slot at or after the cursor, found by
    /// scanning the bitmap a word at a time. The ring wraps only at
    /// word boundaries (SLOTS is a multiple of 64), so each word covers
    /// a contiguous absolute-slot range.
    fn next_occupied(&self) -> Option<u64> {
        let end = self.wbase + SLOTS as u64;
        let mut abs = self.cursor.max(self.wbase);
        while abs < end {
            let idx = (abs & SLOT_MASK) as usize;
            let bit = (idx & 63) as u32;
            let word = self.occ[idx >> 6] & (!0u64 << bit);
            if word != 0 {
                return Some(abs + u64::from(word.trailing_zeros() - bit));
            }
            abs += u64::from(64 - bit);
        }
        None
    }

    /// Re-bases the (empty) ring at the earliest overflow event and
    /// moves every overflow event that now fits into the window.
    fn advance_window(&mut self) {
        debug_assert_eq!(self.len, 0);
        let Some(Reverse((first, ..))) = self.overflow.peek() else {
            return;
        };
        self.wbase = Self::abs_slot(*first);
        self.cursor = self.wbase;
        let end = self.wbase + SLOTS as u64;
        while let Some(Reverse((at, ..))) = self.overflow.peek() {
            if Self::abs_slot(*at) >= end {
                break;
            }
            let Reverse((at, ev, n)) = self.overflow.pop().expect("peeked");
            // Re-bucket with dedup so duplicates that met in the
            // overflow heap collapse like direct pushes would.
            self.insert(at, ev, n, true);
        }
    }
}

/// The simulation's event queue: the wheel by default, the seed binary
/// heap when `FBD_EVENT_QUEUE=heap` (differential/parity mode).
#[derive(Debug)]
pub enum EventQueue<T> {
    /// The calendar-queue implementation (default).
    Wheel(EventWheel<T>),
    /// The seed `BinaryHeap` implementation (`FBD_EVENT_QUEUE=heap`).
    Heap(BinaryHeap<Reverse<(Time, T)>>),
}

impl<T: Ord + Copy> EventQueue<T> {
    /// Selects the implementation from `FBD_EVENT_QUEUE` (`wheel` is
    /// the default; `heap` selects the seed implementation).
    pub fn from_env() -> EventQueue<T> {
        match std::env::var("FBD_EVENT_QUEUE") {
            Ok(v) if v == "heap" => EventQueue::Heap(BinaryHeap::new()),
            _ => EventQueue::Wheel(EventWheel::new()),
        }
    }

    /// Queues `ev` at `at`; `dedup` lets the wheel collapse identical
    /// same-instant entries into one multiplicity-counted entry (the
    /// heap ignores it and stores duplicates, as the seed did).
    pub fn push(&mut self, at: Time, ev: T, dedup: bool) {
        match self {
            EventQueue::Wheel(w) => w.push(at, ev, dedup),
            EventQueue::Heap(h) => h.push(Reverse((at, ev))),
        }
    }

    /// Queues `ev` at `at` as `n` identical deduped pushes: the wheel
    /// adds `n` to one entry's count, the heap stores `n` copies (so it
    /// still pops, and its caller still runs, every one). `n == 0`
    /// queues nothing.
    pub fn push_n(&mut self, at: Time, ev: T, n: u32) {
        match self {
            EventQueue::Wheel(w) => w.push_n(at, ev, n),
            EventQueue::Heap(h) => {
                for _ in 0..n {
                    h.push(Reverse((at, ev)));
                }
            }
        }
    }

    /// Pops the minimum `(Time, T)` entry and the number of times its
    /// handler must run (> 1 only for deduped wheel entries).
    pub fn pop(&mut self) -> Option<(Time, T, u32)> {
        match self {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Heap(h) => h.pop().map(|Reverse((at, ev))| (at, ev, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    /// Drains `q` into a flat (time, ev) list, expanding counts.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, ev, n)) = q.pop() {
            for _ in 0..n {
                out.push((at.as_ps(), ev));
            }
        }
        out
    }

    #[test]
    fn wheel_matches_heap_on_scrambled_input() {
        // Deterministic scramble across buckets, bucket collisions,
        // same-timestamp events and window overflow.
        let mut evs: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            evs.push((x % 50_000_000, (x >> 32) as u32 % 7));
            if i % 5 == 0 {
                // Exact same-timestamp collisions with distinct events.
                evs.push((evs.last().unwrap().0, 3));
            }
        }
        let mut wheel = EventQueue::Wheel(EventWheel::new());
        let mut heap = EventQueue::<u32>::Heap(BinaryHeap::new());
        for &(ps, ev) in &evs {
            wheel.push(t(ps), ev, false);
            heap.push(t(ps), ev, false);
        }
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    /// A wheel and the reference heap fed the same pushes; each pop
    /// takes one wheel entry and as many heap entries as its count, and
    /// records both count-expanded.
    struct Twins {
        wheel: EventWheel<u32>,
        heap: EventQueue<u32>,
        got: Vec<(u64, u32)>,
        want: Vec<(u64, u32)>,
    }

    impl Twins {
        fn push(&mut self, at: u64, ev: u32, n: u32, dedup: bool) {
            if dedup {
                self.wheel.push_n(t(at), ev, n);
                self.heap.push_n(t(at), ev, n);
            } else {
                self.wheel.push(t(at), ev, false);
                self.heap.push(t(at), ev, false);
            }
        }

        /// The popped time, or `None` once the wheel is empty.
        fn pop(&mut self) -> Option<u64> {
            let Some((at, ev, n)) = self.wheel.pop() else {
                assert_eq!(self.heap.pop(), None, "the heap outlived the wheel");
                return None;
            };
            for _ in 0..n {
                self.got.push((at.as_ps(), ev));
                let (h_at, h_ev, _) = self.heap.pop().expect("the heap ran dry first");
                self.want.push((h_at.as_ps(), h_ev));
            }
            Some(at.as_ps())
        }
    }

    #[test]
    fn wheel_matches_heap_with_deduped_pushes_interleaved_with_pops() {
        // Events 0..8 stand for deduped decisions; 100.. for completions
        // and 200.. for far-future events, pushed without dedup (so
        // identical copies meet) or counted.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut q = Twins {
            wheel: EventWheel::new(),
            heap: EventQueue::Heap(BinaryHeap::new()),
            got: Vec::new(),
            want: Vec::new(),
        };

        // One bucket past SLOT_CAP: fill it, pop a few so dead entries
        // sit in front, then push more. A push before every live entry
        // reuses the dead slot in front; one after them into the full
        // bucket compacts it in place; the later ones grow it.
        let base = 40 << SLOT_SHIFT;
        for i in 0..SLOT_CAP as u64 {
            q.push(base + 100 * i, (i % 8) as u32, 1, false);
        }
        let mut now = 0;
        for _ in 0..4 {
            now = q.pop().unwrap();
        }
        let bucket = &q.wheel.slots[40];
        assert_eq!((bucket.head, bucket.entries.len()), (4, SLOT_CAP));
        q.push(now + 50, 3, 1, false);
        assert_eq!(q.wheel.slots[40].head, 3);
        q.push(base + 100 * SLOT_CAP as u64, 3, 1, false);
        let bucket = &q.wheel.slots[40];
        assert_eq!((bucket.head, bucket.entries.capacity()), (0, SLOT_CAP));
        for i in 0..2 * SLOT_CAP as u64 {
            let at = now + rand(base + 4096 - now);
            q.push(at, rand(8) as u32, 1 + (i % 3) as u32, i % 2 == 0);
        }
        assert!(q.wheel.slots[40].entries.len() > SLOT_CAP);

        for _ in 0..6_000 {
            // Deduped decisions at now, into the bucket being popped
            // (some sorting before the entry just popped), and a counted
            // one a few clocks on.
            q.push(now, rand(8) as u32, 1, true);
            q.push(
                now + 3_000 * rand(4),
                rand(8) as u32,
                1 + rand(3) as u32,
                true,
            );
            // A completion 60–600 ns ahead; now and then a copy of it.
            let done = now + 60_000 + rand(540_000);
            let ev = 100 + rand(4) as u32;
            q.push(done, ev, 1, false);
            if rand(10) == 0 {
                q.push(done, ev, 1, false);
            }
            // Past the window, re-bucketed when the window advances.
            if rand(40) == 0 {
                let far = now + 5_000_000 + rand(50_000_000);
                q.push(far, 200 + rand(2) as u32, 1, rand(2) == 0);
            }
            for _ in 0..rand(6) {
                match q.pop() {
                    Some(at) => now = at,
                    None => break,
                }
            }
        }
        while q.pop().is_some() {}
        assert!(q.got.len() > 20_000, "only {} events popped", q.got.len());
        assert!(q.wheel.wbase > 0, "the window never advanced");
        assert_eq!(q.got, q.want);
    }

    #[test]
    fn same_timestamp_events_pop_in_event_order() {
        // Determinism gate: equal times order by the event's Ord, no
        // matter the push order, in both implementations.
        for queue in [
            &mut EventQueue::Wheel(EventWheel::new()),
            &mut EventQueue::<u32>::Heap(BinaryHeap::new()),
        ] {
            for ev in [4u32, 1, 3, 0, 2] {
                queue.push(t(1000), ev, false);
                queue.push(t(500), ev, false);
            }
            assert_eq!(
                drain(queue),
                vec![
                    (500, 0),
                    (500, 1),
                    (500, 2),
                    (500, 3),
                    (500, 4),
                    (1000, 0),
                    (1000, 1),
                    (1000, 2),
                    (1000, 3),
                    (1000, 4),
                ]
            );
        }
    }

    #[test]
    fn dedup_collapses_identical_entries_preserving_count() {
        let mut w = EventWheel::new();
        for _ in 0..3 {
            w.push(t(777), 5u32, true);
        }
        w.push(t(777), 6, true); // different event: its own entry
        w.push(t(778), 5, true); // different time: its own entry
        assert_eq!(w.pop(), Some((t(777), 5, 3)));
        assert_eq!(w.pop(), Some((t(777), 6, 1)));
        assert_eq!(w.pop(), Some((t(778), 5, 1)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_with_pushes_at_now() {
        // The hot-loop pattern: pop an event, then push new work at the
        // very same instant; the wheel must surface it before anything
        // later, exactly like the heap.
        let mut w = EventWheel::new();
        w.push(t(10_000), 1u32, false);
        w.push(t(20_000), 2, false);
        assert_eq!(w.pop(), Some((t(10_000), 1, 1)));
        w.push(t(10_000), 0, false); // pushed "at now" after the pop
        assert_eq!(w.pop(), Some((t(10_000), 0, 1)));
        assert_eq!(w.pop(), Some((t(20_000), 2, 1)));
    }

    #[test]
    fn window_advances_through_sparse_far_future_events() {
        let mut w = EventWheel::new();
        // Several events each far outside the previous window.
        let times = [1u64, 10_000_000, 400_000_000, 400_000_001, 9_000_000_000];
        for (i, &ps) in times.iter().enumerate() {
            w.push(t(ps), i as u32, false);
        }
        let got: Vec<u64> = std::iter::from_fn(|| w.pop())
            .map(|e| e.0.as_ps())
            .collect();
        assert_eq!(got, times);
    }

    #[test]
    fn push_n_drains_like_n_deduped_pushes_on_both_queues() {
        // In the window and past it, and zero counts (in the window and
        // past it) that queue nothing.
        let cases = [
            (t(5_000), 2u32, 3u32),
            (t(200_000_000), 1, 4),
            (t(9_000), 0, 0),
            (t(300_000_000), 0, 0),
        ];
        let kinds = || {
            [
                EventQueue::Wheel(EventWheel::new()),
                EventQueue::<u32>::Heap(BinaryHeap::new()),
            ]
        };
        for (mut batched, mut single) in kinds().into_iter().zip(kinds()) {
            for &(at, ev, n) in &cases {
                batched.push_n(at, ev, n);
                for _ in 0..n {
                    single.push(at, ev, true);
                }
            }
            let want: Vec<(u64, u32)> = [(5_000, 2); 3]
                .into_iter()
                .chain([(200_000_000, 1); 4])
                .collect();
            assert_eq!(drain(&mut single), want);
            assert_eq!(drain(&mut batched), want);
        }
    }

    #[test]
    fn overflow_count_rebuckets_and_merges_with_a_direct_push() {
        // A counted push past the window is one overflow entry; once the
        // window reaches it, a direct push at the same key joins it.
        let far = t(100_000_000);
        let mut w = EventWheel::new();
        w.push_n(far, 9u32, 3);
        w.push(t(99_999_000), 8, false);
        assert_eq!(w.overflow.len(), 2);
        assert_eq!(w.pop(), Some((t(99_999_000), 8, 1)));
        w.push(far, 9, true);
        assert_eq!(w.pop(), Some((far, 9, 4)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn duplicates_split_across_window_and_overflow_still_merge() {
        let mut w = EventWheel::new();
        // Both pushes far beyond the initial window -> overflow heap;
        // after the window advances they must merge into one entry.
        w.push(t(100_000_000), 9u32, true);
        w.push(t(100_000_000), 9, true);
        assert_eq!(w.pop(), Some((t(100_000_000), 9, 2)));
        assert_eq!(w.pop(), None);
    }
}
