//! The shared L2 cache (Table 1: 4 MB, 4-way, 64 B lines).
//!
//! Write-back, write-allocate, true-LRU. The cache filters the cores'
//! access streams; only misses (and dirty evictions) reach the memory
//! controller. Fill timing is handled by the CPU complex — this module
//! is the content/replacement model.

use fbd_types::LineAddr;

/// Result of an L2 access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2Outcome {
    /// Line present.
    Hit,
    /// Line absent; it has been allocated, evicting a dirty line that
    /// must be written back if `writeback` is set.
    Miss {
        /// Dirty victim that must be written to memory.
        writeback: Option<LineAddr>,
    },
}

/// Valid bit of a [`Way`]'s packed metadata.
const VALID: u64 = 1;
/// Dirty bit of a [`Way`]'s packed metadata.
const DIRTY: u64 = 2;
/// The recency stamp occupies the bits above dirty/valid.
const LRU_SHIFT: u32 = 2;

/// One way frame: the line address plus packed metadata
/// (`lru << 2 | dirty << 1 | valid`; 0 = empty frame). 16 bytes, so a
/// 4-way set is one cache line of the *host* — the warm-up and access
/// paths scan a set without pointer chasing.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    line: u64,
    meta: u64,
}

/// A set-associative, write-back, write-allocate cache.
///
/// Storage is one flat `Way` array (sets contiguous) rather than a
/// `Vec` per set. Replacement behavior is identical to the boxed-set
/// form: recency stamps are unique, so the LRU victim is the unique
/// minimum, and an empty frame (packed metadata 0) orders before every
/// valid frame — exactly the "set not yet full" case.
#[derive(Clone, Debug)]
pub struct L2Cache {
    store: Vec<Way>,
    num_sets: usize,
    ways: usize,
    /// `num_sets - 1` when the set count is a power of two (the Table 1
    /// geometry): the set index is then a mask instead of a `u64`
    /// modulo on the hottest path in warm-up.
    set_mask: Option<u64>,
    tick: u64,
}

impl L2Cache {
    /// Creates a cache of `bytes` capacity and `ways` associativity with
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible
    /// into `ways`-way sets of 64-byte lines, or fewer than one set).
    pub fn new(bytes: u64, ways: usize) -> L2Cache {
        let line = fbd_types::CACHE_LINE_BYTES;
        assert!(ways > 0, "associativity must be non-zero");
        assert!(
            bytes.is_multiple_of(ways as u64 * line) && bytes >= ways as u64 * line,
            "capacity must be a positive multiple of ways * line size"
        );
        let num_sets = (bytes / line / ways as u64) as usize;
        L2Cache {
            store: vec![Way::default(); num_sets * ways],
            num_sets,
            ways,
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            tick: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => (line.as_u64() & mask) as usize,
            None => (line.as_u64() % self.num_sets as u64) as usize,
        }
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = self.set_index(line) * self.ways;
        base..base + self.ways
    }

    /// Accesses `line`, allocating it on a miss. `write` marks the line
    /// dirty (stores and write-allocate fills).
    ///
    /// The 4-way case (Table 1 geometry) runs a branchless fixed-width
    /// scan: the hit way and the minimum-metadata victim are selected
    /// with conditional moves, leaving one well-predicted hit/miss
    /// branch. An early-exit scan mispredicts on nearly every access
    /// (the hit way's position is uniform), which dominated warm-up
    /// cost on this model.
    pub fn access(&mut self, line: LineAddr, write: bool) -> L2Outcome {
        self.tick += 1;
        let fresh = (self.tick << LRU_SHIFT) | VALID | if write { DIRTY } else { 0 };
        let target = line.as_u64();
        let base = self.set_index(line) * self.ways;
        if self.ways == 4 {
            let set: &mut [Way; 4] = (&mut self.store[base..base + 4]).try_into().unwrap();
            let mut hit = usize::MAX;
            let mut victim = 0usize;
            let mut victim_meta = set[0].meta;
            for (i, w) in set.iter().enumerate() {
                // Straight-line selects; the compiler lowers both `if`s
                // to cmov so no way-position branch exists to mispredict.
                if (w.line == target) & (w.meta & VALID != 0) {
                    hit = i;
                }
                if w.meta < victim_meta {
                    victim_meta = w.meta;
                    victim = i;
                }
            }
            if hit != usize::MAX {
                set[hit].meta = fresh | (set[hit].meta & DIRTY);
                return L2Outcome::Hit;
            }
            let writeback = (victim_meta & (VALID | DIRTY) == VALID | DIRTY)
                .then(|| LineAddr::new(set[victim].line));
            set[victim] = Way {
                line: target,
                meta: fresh,
            };
            return L2Outcome::Miss { writeback };
        }
        let set = &mut self.store[base..base + self.ways];
        // One pass: find the hit or remember the minimum-metadata way.
        // Empty frames (meta 0) order before valid ones, and recency
        // stamps are unique, so the minimum is an empty frame when one
        // exists and the unique LRU entry otherwise.
        let mut victim = 0;
        let mut victim_meta = u64::MAX;
        for (i, w) in set.iter_mut().enumerate() {
            if w.meta & VALID != 0 && w.line == target {
                w.meta = fresh | (w.meta & DIRTY);
                return L2Outcome::Hit;
            }
            if w.meta < victim_meta {
                victim_meta = w.meta;
                victim = i;
            }
        }
        let writeback = (victim_meta & (VALID | DIRTY) == VALID | DIRTY)
            .then(|| LineAddr::new(set[victim].line));
        set[victim] = Way {
            line: target,
            meta: fresh,
        };
        L2Outcome::Miss { writeback }
    }

    /// Pure presence check (no LRU update).
    pub fn contains(&self, line: LineAddr) -> bool {
        let range = self.set_range(line);
        let target = line.as_u64();
        self.store[range]
            .iter()
            .any(|w| w.meta & VALID != 0 && w.line == target)
    }

    /// Removes `line` if present *and clean*; returns whether it was
    /// removed. Used when a fill is dropped after allocation (corrupted
    /// prefetch data under fault injection): the allocated frame holds
    /// no valid data, but a line dirtied by an intervening store must
    /// not lose its data and stays.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let range = self.set_range(line);
        let target = line.as_u64();
        if let Some(w) = self.store[range]
            .iter_mut()
            .find(|w| w.meta & (VALID | DIRTY) == VALID && w.line == target)
        {
            w.meta = 0;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L2Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        L2Cache::new(512, 2)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(
            c.access(LineAddr::new(1), false),
            L2Outcome::Miss { writeback: None }
        );
        assert_eq!(c.access(LineAddr::new(1), false), L2Outcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 collide in set 0 of a 4-set cache.
        c.access(LineAddr::new(0), false);
        c.access(LineAddr::new(4), false);
        c.access(LineAddr::new(0), false); // touch 0: now 4 is LRU
        c.access(LineAddr::new(8), false); // evicts 4
        assert!(c.contains(LineAddr::new(0)));
        assert!(!c.contains(LineAddr::new(4)));
        assert!(c.contains(LineAddr::new(8)));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        c.access(LineAddr::new(0), true); // dirty
        c.access(LineAddr::new(4), false);
        let out = c.access(LineAddr::new(8), false); // evicts 0 (LRU, dirty)
        assert_eq!(
            out,
            L2Outcome::Miss {
                writeback: Some(LineAddr::new(0))
            }
        );
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = small();
        c.access(LineAddr::new(0), false);
        c.access(LineAddr::new(4), false);
        let out = c.access(LineAddr::new(8), false);
        assert_eq!(out, L2Outcome::Miss { writeback: None });
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = small();
        c.access(LineAddr::new(0), false);
        c.access(LineAddr::new(0), true); // store hit dirties the line
        c.access(LineAddr::new(4), false);
        let out = c.access(LineAddr::new(8), false);
        assert_eq!(
            out,
            L2Outcome::Miss {
                writeback: Some(LineAddr::new(0))
            }
        );
    }

    #[test]
    fn invalidate_removes_clean_lines_only() {
        let mut c = small();
        c.access(LineAddr::new(0), false); // clean
        c.access(LineAddr::new(4), true); // dirty
        assert!(c.invalidate(LineAddr::new(0)));
        assert!(!c.contains(LineAddr::new(0)));
        // Dirty lines keep their data; absent lines are a no-op.
        assert!(!c.invalidate(LineAddr::new(4)));
        assert!(c.contains(LineAddr::new(4)));
        assert!(!c.invalidate(LineAddr::new(8)));
    }

    #[test]
    fn table1_geometry_constructs() {
        let c = L2Cache::new(4 << 20, 4);
        // 4 MB / 64 B / 4 ways = 16384 sets.
        assert_eq!(c.num_sets, 16_384);
        assert_eq!(c.store.len(), 16_384 * 4);
        // Power-of-two set count -> mask-indexed.
        assert_eq!(c.set_mask, Some(16_383));
    }

    #[test]
    fn non_power_of_two_set_count_falls_back_to_modulo() {
        // 3 sets × 2 ways × 64 B.
        let mut c = L2Cache::new(3 * 2 * 64, 2);
        assert_eq!(c.set_mask, None);
        // Lines 1 and 4 collide (both mod 3 == 1); 2 does not.
        c.access(LineAddr::new(1), false);
        c.access(LineAddr::new(4), false);
        c.access(LineAddr::new(2), false);
        assert!(c.contains(LineAddr::new(1)));
        assert!(c.contains(LineAddr::new(4)));
        assert!(c.contains(LineAddr::new(2)));
    }

    /// The flat-array rewrite must behave exactly like the seed's
    /// Vec-per-set model (find-hit, push-until-full, unique-min-LRU
    /// victim): drive both with the same scrambled access stream and
    /// compare every outcome.
    #[test]
    fn flat_storage_matches_reference_model() {
        #[derive(Clone, Copy)]
        struct RefEntry {
            line: u64,
            dirty: bool,
            lru: u64,
        }
        struct RefCache {
            sets: Vec<Vec<RefEntry>>,
            ways: usize,
            tick: u64,
        }
        impl RefCache {
            fn access(&mut self, line: u64, write: bool) -> (bool, Option<u64>) {
                self.tick += 1;
                let tick = self.tick;
                let idx = (line % self.sets.len() as u64) as usize;
                let set = &mut self.sets[idx];
                if let Some(e) = set.iter_mut().find(|e| e.line == line) {
                    e.lru = tick;
                    e.dirty |= write;
                    return (true, None);
                }
                let mut wb = None;
                if set.len() == self.ways {
                    let victim = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.lru)
                        .map(|(i, _)| i)
                        .unwrap();
                    let evicted = set.swap_remove(victim);
                    if evicted.dirty {
                        wb = Some(evicted.line);
                    }
                }
                set.push(RefEntry {
                    line,
                    dirty: write,
                    lru: tick,
                });
                (false, wb)
            }
        }

        // 16 sets × 4 ways, heavy conflict pressure from a 64-line
        // footprint; xorshift for a deterministic scramble.
        let mut flat = L2Cache::new(16 * 4 * 64, 4);
        let mut reference = RefCache {
            sets: vec![Vec::new(); 16],
            ways: 4,
            tick: 0,
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut hits = 0;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 64;
            let write = x & (1 << 40) != 0;
            let want = reference.access(line, write);
            let got = match flat.access(LineAddr::new(line), write) {
                L2Outcome::Hit => (true, None),
                L2Outcome::Miss { writeback } => (false, writeback.map(|l| l.as_u64())),
            };
            assert_eq!(got, want, "diverged on line {line} write {write}");
            hits += u64::from(got.0);
            // Occasionally invalidate a clean line, as dropped fills do.
            if x.is_multiple_of(97) {
                let victim = (x >> 8) % 64;
                let ref_idx = (victim % 16) as usize;
                let ref_removed = reference.sets[ref_idx]
                    .iter()
                    .position(|e| e.line == victim && !e.dirty)
                    .map(|pos| {
                        reference.sets[ref_idx].swap_remove(pos);
                    })
                    .is_some();
                assert_eq!(flat.invalidate(LineAddr::new(victim)), ref_removed);
            }
        }
        assert!(hits > 0 && hits < 20_000, "stream must exercise both paths");
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = L2Cache::new(100, 3);
    }
}
