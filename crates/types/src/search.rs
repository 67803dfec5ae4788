//! Searching sorted reservation histories from their newest end.
//!
//! The data buses and link timelines keep a few microseconds of sorted
//! reservations, but nearly every query lands within a few entries of
//! the newest one. A galloping search from the back finds the same
//! index as a binary search over the whole history in a handful of
//! probes, however long the history is.

use std::collections::VecDeque;

/// The index of the first item of `items` for which `pred` is false,
/// assuming `pred` is true for a prefix and false for the rest — the
/// same index [`VecDeque::partition_point`] returns.
///
/// The search gallops from the back, doubling its step until it finds
/// an item that satisfies `pred`, then bisects the last step, so it
/// costs `O(log d)` probes for an answer `d` items from the end.
///
/// # Examples
///
/// ```
/// use std::collections::VecDeque;
/// use fbd_types::search::partition_point_from_back;
///
/// let ends: VecDeque<u64> = (0..100).map(|i| 10 * i).collect();
/// assert_eq!(partition_point_from_back(&ends, |&e| e <= 975), 98);
/// assert_eq!(partition_point_from_back(&ends, |&e| e <= 5), 1);
/// ```
pub fn partition_point_from_back<T>(
    items: &VecDeque<T>,
    mut pred: impl FnMut(&T) -> bool,
) -> usize {
    // The newest items sit in the back slice (which is empty unless the
    // ring wraps). If any of them passes, every older item passes too.
    let (front, back) = items.as_slices();
    match gallop(back, &mut pred) {
        0 => gallop(front, &mut pred),
        n => front.len() + n,
    }
}

/// [`partition_point_from_back`] over one contiguous slice.
fn gallop<T>(items: &[T], pred: &mut impl FnMut(&T) -> bool) -> usize {
    // Every item at or after `hi` fails `pred`.
    let mut hi = items.len();
    let mut step = 1;
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if pred(&items[probe]) {
            let lo = probe + 1;
            return lo + items[lo..hi].partition_point(|x| pred(x));
        }
        hi = probe;
        step *= 2;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn empty_and_single_item_histories() {
        let empty: VecDeque<u64> = VecDeque::new();
        assert_eq!(partition_point_from_back(&empty, |_| true), 0);
        let one: VecDeque<u64> = VecDeque::from([7]);
        assert_eq!(partition_point_from_back(&one, |&x| x <= 7), 1);
        assert_eq!(partition_point_from_back(&one, |&x| x < 7), 0);
    }

    /// Seeded sorted histories, grown at the back and pruned at the
    /// front like a bus's so the ring wraps, queried at every distance
    /// from the newest end, including before the oldest item and past
    /// the newest; each answer must equal `partition_point`'s.
    #[test]
    fn matches_partition_point_on_seeded_wrapped_histories() {
        let mut rng = Mix(7);
        for capacity in [1usize, 2, 3, 17, 64, 1_700] {
            let mut items: VecDeque<u64> = VecDeque::with_capacity(capacity);
            let mut last = 0u64;
            let mut wrapped = false;
            for _ in 0..6 * capacity + 40 {
                if items.len() == capacity || (!items.is_empty() && rng.below(3) == 0) {
                    items.pop_front();
                }
                // Ties too: a history may hold equal keys.
                last += rng.below(4);
                items.push_back(last);
                wrapped |= !items.as_slices().1.is_empty();
                let newest = *items.back().unwrap();
                for _ in 0..6 {
                    let back = match rng.below(4) {
                        0 => rng.below(4),
                        1 => rng.below(64),
                        _ => rng.below(4 * capacity as u64 + 8),
                    };
                    let key = (newest + 2).saturating_sub(back);
                    assert_eq!(
                        partition_point_from_back(&items, |&x| x <= key),
                        items.partition_point(|&x| x <= key),
                        "key {key} over {items:?}"
                    );
                    assert_eq!(
                        partition_point_from_back(&items, |&x| x < key),
                        items.partition_point(|&x| x < key),
                    );
                }
            }
            assert!(capacity < 3 || wrapped, "the ring never wrapped");
        }
    }
}
