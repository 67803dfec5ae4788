//! The Advanced Memory Buffer's prefetch buffer.
//!
//! This crate implements the data side of the paper's AMB cache: the
//! [`PrefetchBuffer`] holding prefetched cachelines with FIFO
//! replacement. The DRAM devices an AMB drives, and the group fetch that
//! fills the buffer, are `fbd_dram::RankGroup`; each channel of the
//! memory system (`fbd-core`) keeps one buffer per AMB as the
//! controller-resident tags and consults it before sending a command.
//!
//! # Examples
//!
//! The buffer keeps prefetched lines until FIFO replacement evicts them
//! or a store invalidates them:
//!
//! ```
//! use fbd_amb::PrefetchBuffer;
//! use fbd_types::config::AmbPrefetchConfig;
//! use fbd_types::LineAddr;
//!
//! let mut buf = PrefetchBuffer::new(&AmbPrefetchConfig::paper_default());
//! assert_eq!(buf.insert(LineAddr::new(7)), None);
//! assert!(buf.on_hit(LineAddr::new(7)));
//! assert!(buf.invalidate(LineAddr::new(7)));
//! assert!(!buf.contains(LineAddr::new(7)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;

pub use buffer::{PrefetchBuffer, PrefetchCounts};

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use fbd_types::config::{AmbPrefetchConfig, Associativity, Replacement};
    use fbd_types::LineAddr;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        /// Under any mix of inserts, hits and invalidates, the buffer
        /// never exceeds capacity, never holds duplicates, and answers
        /// `contains` consistently with the operation history.
        #[test]
        fn buffer_capacity_and_consistency(
            ops in proptest::collection::vec((0u8..3, 0u64..64), 1..300),
            entries_log in 2u32..6,
            ways_sel in 0u8..3,
        ) {
            let entries = 1u32 << entries_log;
            let associativity = match ways_sel {
                0 => Associativity::Direct,
                1 => Associativity::Ways(2),
                _ => Associativity::Full,
            };
            let cfg = AmbPrefetchConfig {
                cache_lines: entries,
                associativity,
                replacement: Replacement::Fifo,
                ..AmbPrefetchConfig::paper_default()
            };
            let mut buf = PrefetchBuffer::new(&cfg);
            let mut model: HashSet<u64> = HashSet::new();
            for (op, line) in ops {
                let l = LineAddr::new(line);
                match op {
                    0 => {
                        let evicted = buf.insert(l);
                        model.insert(line);
                        if let Some(e) = evicted {
                            model.remove(&e.as_u64());
                        }
                    }
                    1 => {
                        let hit = buf.on_hit(l);
                        prop_assert_eq!(hit, model.contains(&line));
                    }
                    _ => {
                        let was = buf.invalidate(l);
                        prop_assert_eq!(was, model.remove(&line));
                    }
                }
                prop_assert!(buf.len() <= buf.capacity());
                prop_assert_eq!(buf.len(), model.len());
            }
        }
    }
}
