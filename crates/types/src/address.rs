//! Cacheline addresses and prefetch regions.
//!
//! The memory hierarchy works at two granularities:
//!
//! * line-granular [`LineAddr`] — one 64-byte L2 cache block, the unit
//!   the CPU model requests and the memory subsystem transfers;
//! * [`RegionId`] — a group of `K` consecutive lines, the unit the AMB
//!   prefetcher fetches (paper §3.2).
//!
//! # Examples
//!
//! ```
//! use fbd_types::address::{LineAddr, CACHE_LINE_BYTES};
//!
//! // The line holding byte 0x1_0040.
//! let line = LineAddr::new(0x1_0040 / CACHE_LINE_BYTES);
//! assert_eq!(line.as_u64(), 0x401);
//! // Block 6 of the paper's Figure 2 example: its 4-line region holds 4..=7.
//! let region = LineAddr::new(6).region(4);
//! assert_eq!(region.lines(4).collect::<Vec<_>>(),
//!            (4..8).map(LineAddr::new).collect::<Vec<_>>());
//! ```

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// Size of an L2 cache block / memory transfer unit, in bytes (Table 1).
pub const CACHE_LINE_BYTES: u64 = 64;

/// A cacheline-granular address (byte address divided by 64).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line number.
    #[inline]
    pub const fn new(line: u64) -> LineAddr {
        LineAddr(line)
    }

    /// Raw line number.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The prefetch region this line falls in, for regions of
    /// `region_lines` cachelines.
    ///
    /// # Panics
    ///
    /// Panics if `region_lines` is zero.
    #[inline]
    pub fn region(self, region_lines: u64) -> RegionId {
        assert!(region_lines > 0, "region size must be non-zero");
        RegionId(self.0 / region_lines)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A fast hasher for [`LineAddr`] keys: one multiply by an odd 64-bit
/// constant, then the product's high half folded into its low half.
///
/// The fold matters: the table picks a bucket from the hash's low bits,
/// and the low bits of a bare product depend only on the key's low
/// bits, so lines a power-of-two stride apart would share a bucket.
/// Not resistant to chosen keys, which a simulator does not face; use
/// it only for maps nothing iterates, since their order is arbitrary.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

impl LineHasher {
    /// 2^64 / φ, odd: consecutive keys land far apart.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds [`LineHasher`]s (stateless, so every map hashes alike).
pub type LineBuildHasher = BuildHasherDefault<LineHasher>;

/// A map keyed by cacheline, hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<LineAddr, V, LineBuildHasher>;

/// A set of cachelines, hashed with [`LineHasher`].
pub type LineSet = HashSet<LineAddr, LineBuildHasher>;

/// Identifier of a `K`-line prefetch region (paper §3.2).
///
/// Region `r` of size `K` covers lines `r*K .. (r+1)*K`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u64);

impl RegionId {
    /// Iterator over all lines in the region, demanded-line order not
    /// applied (callers reorder so the demanded line goes first).
    pub fn lines(self, region_lines: u64) -> impl Iterator<Item = LineAddr> {
        let base = self.0 * region_lines;
        (base..base + region_lines).map(LineAddr)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_hash(line: u64) -> u64 {
        use core::hash::BuildHasher;
        LineBuildHasher::default().hash_one(LineAddr::new(line))
    }

    #[test]
    fn line_hash_spreads_strided_lines_over_low_bits() {
        // A table of 256 buckets indexes by the low 8 bits. Lines a
        // power-of-two stride apart must not pile into a few buckets: a
        // bare product of lines 64 apart has its low 6 bits zero, so
        // it would use 4 of the 256.
        for stride in [1u64, 4, 64, 4096] {
            let buckets: HashSet<u64> = (0..64).map(|i| line_hash(i * stride) & 0xff).collect();
            assert!(
                buckets.len() >= 40,
                "stride {stride}: 64 lines hit only {} of 256 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn line_map_is_a_plain_map() {
        let mut map: LineMap<u32> = LineMap::default();
        let mut set = LineSet::default();
        for i in 0..1000u64 {
            map.insert(LineAddr::new(i * 64), i as u32);
            set.insert(LineAddr::new(i * 64));
        }
        assert_eq!(map.get(&LineAddr::new(640)), Some(&10));
        assert!(set.contains(&LineAddr::new(64_000 - 64)));
        assert!(!set.contains(&LineAddr::new(1)));
        assert_eq!(line_hash(7), line_hash(7), "stateless: same key, same hash");
    }

    #[test]
    fn region_math_matches_paper_figure2() {
        // Paper Figure 2: with 4-line regions, demanded block 6 prefetches
        // blocks 4, 5 and 7 (the rest of region 1).
        let demanded = LineAddr::new(6);
        let region = demanded.region(4);
        assert_eq!(region, LineAddr::new(4).region(4));
        assert_ne!(region, LineAddr::new(8).region(4));
        let rest: Vec<u64> = region
            .lines(4)
            .filter(|l| *l != demanded)
            .map(LineAddr::as_u64)
            .collect();
        assert_eq!(rest, vec![4, 5, 7]);
    }

    #[test]
    fn region_base_line_round_trips() {
        for k in [2u64, 4, 8] {
            for line in 0..64u64 {
                let l = LineAddr::new(line);
                let lines: Vec<LineAddr> = l.region(k).lines(k).collect();
                let base = lines[0];
                assert_eq!(lines.len() as u64, k);
                assert_eq!(base.as_u64() % k, 0);
                assert!(base <= l);
                assert!(l.as_u64() < base.as_u64() + k);
                assert_eq!(base.region(k), l.region(k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_region_size_rejected() {
        let _ = LineAddr::new(1).region(0);
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(format!("{}", LineAddr::new(1)), "line:0x1");
        assert_eq!(format!("{}", LineAddr::new(9).region(4)), "region:0x2");
    }
}
