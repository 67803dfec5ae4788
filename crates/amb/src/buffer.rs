//! The AMB cache (prefetch buffer).
//!
//! A small SRAM attached to each AMB, holding prefetched cachelines
//! (paper §3.2). The *data* lives on the DIMM; the *tags* live in the
//! memory controller — but both sides describe the same content, so
//! the simulator keeps one structure per AMB, owned by the controller's
//! channel that drives the AMB.
//!
//! Replacement is FIFO by default: "LRU is not suitable for AMB cache
//! because a hit block may be cached in the processor and will not be
//! accessed soon." LRU is implemented for the ablation study.

use std::collections::VecDeque;

use fbd_types::config::{AmbPrefetchConfig, Replacement};
use fbd_types::{LineAddr, LineSet};

/// What a prefetch buffer has served and taken in so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchCounts {
    /// Reads served from the buffer.
    pub hits: u64,
    /// Lines inserted (a duplicate refreshes its position and still
    /// counts: it consumed fetch bandwidth).
    pub inserted: u64,
    /// Resident lines displaced by insertions; evictions of never-used
    /// lines are the waste the paper's prefetch-efficiency metric
    /// exposes.
    pub evicted: u64,
}

impl std::iter::Sum for PrefetchCounts {
    fn sum<I: Iterator<Item = PrefetchCounts>>(counts: I) -> PrefetchCounts {
        counts.fold(PrefetchCounts::default(), |a, b| PrefetchCounts {
            hits: a.hits + b.hits,
            inserted: a.inserted + b.inserted,
            evicted: a.evicted + b.evicted,
        })
    }
}

/// Tag state of one AMB's prefetch buffer.
#[derive(Clone, Debug)]
pub struct PrefetchBuffer {
    /// Per-set queues ordered oldest-first (FIFO insertion order; LRU
    /// recency order when the ablation policy is active).
    sets: Vec<VecDeque<LineAddr>>,
    /// Every line held in `sets`, so a lookup is one probe and a set
    /// is walked only when the line is there.
    index: LineSet,
    ways: usize,
    replacement: Replacement,
    counts: PrefetchCounts,
}

impl PrefetchBuffer {
    /// Builds a buffer from the prefetcher configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero entries, ways not
    /// dividing entries) — call [`AmbPrefetchConfig::validate`] first.
    pub fn new(cfg: &AmbPrefetchConfig) -> PrefetchBuffer {
        cfg.validate().expect("invalid AMB prefetch configuration");
        let entries = cfg.cache_lines as usize;
        let ways = cfg.associativity.ways(cfg.cache_lines) as usize;
        let num_sets = entries / ways;
        PrefetchBuffer {
            sets: vec![VecDeque::with_capacity(ways); num_sets],
            // Removals leave tombstones; once they use up the free
            // slots the table rehashes in place if at most half full,
            // and grows otherwise. Room for twice the lines keeps it at
            // most half full, so churn never reallocates it.
            index: LineSet::with_capacity_and_hasher(2 * entries, Default::default()),
            ways,
            replacement: cfg.replacement,
            counts: PrefetchCounts::default(),
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.as_u64() % self.sets.len() as u64) as usize
    }

    /// Where `line` sits in its set, which must hold it.
    fn position(set: &VecDeque<LineAddr>, line: LineAddr) -> usize {
        set.iter()
            .position(|&l| l == line)
            .expect("indexed line is in its set")
    }

    /// True if `line` is present. No replacement-state side effects.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.index.contains(&line)
    }

    /// Records a demand hit on `line`; returns whether it was present.
    ///
    /// Under FIFO this is equivalent to [`contains`](Self::contains);
    /// under LRU the line is moved to most-recently-used.
    pub fn on_hit(&mut self, line: LineAddr) -> bool {
        if !self.index.contains(&line) {
            return false;
        }
        self.counts.hits += 1;
        if self.replacement == Replacement::Lru {
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            set.remove(Self::position(set, line));
            set.push_back(line);
        }
        true
    }

    /// Inserts `line`, evicting the set's oldest (FIFO) or
    /// least-recently-used (LRU) entry if the set is full. Returns the
    /// evicted line, if any. Inserting a line already present refreshes
    /// its queue position without duplicating it.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.counts.inserted += 1;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if self.index.contains(&line) {
            set.remove(Self::position(set, line));
            set.push_back(line);
            return None;
        }
        let evicted = if set.len() == self.ways {
            set.pop_front()
        } else {
            None
        };
        set.push_back(line);
        if let Some(old) = evicted {
            self.index.remove(&old);
            self.counts.evicted += 1;
        }
        self.index.insert(line);
        evicted
    }

    /// Records the prefetched lines of a group fetch landing in the
    /// buffer.
    pub fn fill(&mut self, lines: impl IntoIterator<Item = LineAddr>) {
        for line in lines {
            self.insert(line);
        }
    }

    /// Removes `line` (a processor write made the prefetched copy
    /// stale). Returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if !self.index.remove(&line) {
            return false;
        }
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.remove(Self::position(set, line));
        true
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Hits, insertions and evictions since the buffer was built.
    pub fn counts(&self) -> PrefetchCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PrefetchBuffer {
        pub(crate) fn len(&self) -> usize {
            self.index.len()
        }

        fn is_empty(&self) -> bool {
            self.index.is_empty()
        }
    }
    use fbd_types::config::{Associativity, Replacement};

    fn cfg(entries: u32, assoc: Associativity, replacement: Replacement) -> AmbPrefetchConfig {
        AmbPrefetchConfig {
            cache_lines: entries,
            associativity: assoc,
            replacement,
            region_lines: 2,
            ..AmbPrefetchConfig::paper_default()
        }
    }

    fn full_fifo(entries: u32) -> PrefetchBuffer {
        PrefetchBuffer::new(&cfg(entries, Associativity::Full, Replacement::Fifo))
    }

    #[test]
    fn insert_then_hit() {
        let mut buf = full_fifo(4);
        assert!(!buf.contains(LineAddr::new(10)));
        assert_eq!(buf.insert(LineAddr::new(10)), None);
        assert!(buf.contains(LineAddr::new(10)));
        assert!(buf.on_hit(LineAddr::new(10)));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn fifo_evicts_oldest_regardless_of_hits() {
        let mut buf = full_fifo(2);
        buf.insert(LineAddr::new(1));
        buf.insert(LineAddr::new(2));
        // Hit on 1 must NOT protect it under FIFO.
        assert!(buf.on_hit(LineAddr::new(1)));
        let evicted = buf.insert(LineAddr::new(3));
        assert_eq!(evicted, Some(LineAddr::new(1)));
        assert!(buf.contains(LineAddr::new(2)));
        assert!(buf.contains(LineAddr::new(3)));
    }

    #[test]
    fn lru_hit_protects_entry() {
        let mut buf = PrefetchBuffer::new(&cfg(2, Associativity::Full, Replacement::Lru));
        buf.insert(LineAddr::new(1));
        buf.insert(LineAddr::new(2));
        assert!(buf.on_hit(LineAddr::new(1)));
        let evicted = buf.insert(LineAddr::new(3));
        assert_eq!(evicted, Some(LineAddr::new(2)));
        assert!(buf.contains(LineAddr::new(1)));
    }

    #[test]
    fn duplicate_insert_does_not_grow_or_evict() {
        let mut buf = full_fifo(2);
        buf.insert(LineAddr::new(1));
        buf.insert(LineAddr::new(2));
        assert_eq!(buf.insert(LineAddr::new(2)), None);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn direct_mapped_conflicts_within_set() {
        let mut buf = PrefetchBuffer::new(&cfg(4, Associativity::Direct, Replacement::Fifo));
        // Lines 0 and 4 collide in a 4-set direct-mapped buffer.
        buf.insert(LineAddr::new(0));
        assert_eq!(buf.insert(LineAddr::new(4)), Some(LineAddr::new(0)));
        // Lines 1..3 occupy other sets without conflict.
        assert_eq!(buf.insert(LineAddr::new(1)), None);
        assert_eq!(buf.insert(LineAddr::new(2)), None);
        assert_eq!(buf.insert(LineAddr::new(3)), None);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), 4);
    }

    #[test]
    fn set_associative_uses_way_capacity() {
        let mut buf = PrefetchBuffer::new(&cfg(4, Associativity::Ways(2), Replacement::Fifo));
        // 2 sets × 2 ways. Lines 0, 2, 4 map to set 0.
        buf.insert(LineAddr::new(0));
        buf.insert(LineAddr::new(2));
        assert_eq!(buf.insert(LineAddr::new(4)), Some(LineAddr::new(0)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut buf = full_fifo(4);
        buf.insert(LineAddr::new(7));
        assert!(buf.invalidate(LineAddr::new(7)));
        assert!(!buf.contains(LineAddr::new(7)));
        assert!(!buf.invalidate(LineAddr::new(7)));
        assert!(buf.is_empty());
    }

    #[test]
    fn fill_reports_inserted_and_evicted() {
        let mut buf = full_fifo(4);
        let counts = |inserted, evicted| PrefetchCounts {
            hits: 0,
            inserted,
            evicted,
        };
        buf.fill([1, 2, 3].map(LineAddr::new));
        assert_eq!(buf.counts(), counts(3, 0));
        assert_eq!(buf.len(), 3);
        // A line already resident still counts as inserted, and the
        // buffer does not grow.
        buf.fill([LineAddr::new(3)]);
        assert_eq!(buf.counts(), counts(4, 0));
        assert_eq!(buf.len(), 3);
        assert!(buf.contains(LineAddr::new(1)));
        // Hits count only lines the buffer holds.
        assert!(buf.on_hit(LineAddr::new(1)));
        assert!(!buf.on_hit(LineAddr::new(9)));
        assert_eq!(buf.counts().hits, 1);
    }

    #[test]
    fn overfilling_a_buffer_counts_evictions() {
        let mut buf = PrefetchBuffer::new(&AmbPrefetchConfig::paper_default());
        let capacity = buf.capacity() as u64;
        buf.fill((0..2 * capacity).map(LineAddr::new));
        assert_eq!(buf.counts().inserted, 2 * capacity);
        assert_eq!(buf.counts().evicted, capacity);
        assert_eq!(buf.len() as u64, capacity);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut buf = full_fifo(8);
        for i in 0..100 {
            buf.insert(LineAddr::new(i));
            assert!(buf.len() <= 8);
        }
        assert_eq!(buf.len(), 8);
        // The survivors are the 8 most recent.
        for i in 92..100 {
            assert!(buf.contains(LineAddr::new(i)));
        }
    }

    /// The buffer before its line index: the same per-set queues, with
    /// every lookup a linear scan of the line's set.
    struct Linear {
        sets: Vec<VecDeque<LineAddr>>,
        ways: usize,
        replacement: Replacement,
    }

    impl Linear {
        fn new(cfg: &AmbPrefetchConfig) -> Linear {
            let ways = cfg.associativity.ways(cfg.cache_lines) as usize;
            Linear {
                sets: vec![VecDeque::new(); cfg.cache_lines as usize / ways],
                ways,
                replacement: cfg.replacement,
            }
        }

        fn set(&mut self, line: LineAddr) -> &mut VecDeque<LineAddr> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line.as_u64() % n) as usize]
        }

        fn position(&mut self, line: LineAddr) -> Option<usize> {
            self.set(line).iter().position(|&l| l == line)
        }

        fn contains(&mut self, line: LineAddr) -> bool {
            self.set(line).contains(&line)
        }

        fn on_hit(&mut self, line: LineAddr) -> bool {
            let Some(pos) = self.position(line) else {
                return false;
            };
            if self.replacement == Replacement::Lru {
                let set = self.set(line);
                set.remove(pos);
                set.push_back(line);
            }
            true
        }

        fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
            let (pos, ways) = (self.position(line), self.ways);
            let set = self.set(line);
            if let Some(pos) = pos {
                set.remove(pos);
                set.push_back(line);
                return None;
            }
            let evicted = if set.len() == ways {
                set.pop_front()
            } else {
                None
            };
            set.push_back(line);
            evicted
        }

        fn invalidate(&mut self, line: LineAddr) -> bool {
            let Some(pos) = self.position(line) else {
                return false;
            };
            self.set(line).remove(pos);
            true
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
    fn indexed_buffer_matches_the_linear_reference() {
        let shapes = [
            Associativity::Full,
            Associativity::Ways(4),
            Associativity::Direct,
        ];
        let mut seed = 1u64;
        for replacement in [Replacement::Fifo, Replacement::Lru] {
            for assoc in shapes {
                let cfg = cfg(64, assoc, replacement);
                let mut buf = PrefetchBuffer::new(&cfg);
                let mut reference = Linear::new(&cfg);
                let index_capacity = buf.index.capacity();
                for step in 0..6_000 {
                    let r = splitmix(&mut seed);
                    // 256 candidate lines over a 64-line buffer: about a
                    // quarter of lookups hit. Stride them by 64 lines in
                    // half the draws, so they also pile into one set.
                    let pick = (r >> 8) % 256;
                    let line = LineAddr::new(if r & 0x10 == 0 { pick } else { pick * 64 });
                    let what = match r % 4 {
                        0 => {
                            assert_eq!(buf.insert(line), reference.insert(line));
                            "insert"
                        }
                        1 => {
                            assert_eq!(buf.on_hit(line), reference.on_hit(line));
                            "on_hit"
                        }
                        2 => {
                            assert_eq!(buf.contains(line), reference.contains(line));
                            "contains"
                        }
                        _ => {
                            assert_eq!(buf.invalidate(line), reference.invalidate(line));
                            "invalidate"
                        }
                    };
                    assert_eq!(
                        buf.sets, reference.sets,
                        "{replacement:?} {assoc:?}: step {step} {what} {line}"
                    );
                    assert_eq!(buf.len(), reference.sets.iter().map(VecDeque::len).sum());
                }
                assert_eq!(
                    buf.index.capacity(),
                    index_capacity,
                    "{replacement:?} {assoc:?}: churn resized the line index"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid AMB prefetch configuration")]
    fn invalid_config_rejected() {
        let _ = PrefetchBuffer::new(&cfg(3, Associativity::Full, Replacement::Fifo));
    }
}
