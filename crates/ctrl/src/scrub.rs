//! Patrol scrubbing: rate-limited background read-verify-rewrite
//! sweeps over recently touched lines.
//!
//! Scrubbing is the repair half of the silent-corruption story: a CRC
//! escape leaves a line poisoned in DRAM with nobody the wiser, and
//! only a background sweep (or an overwrite) can make it clean again
//! before a demand read consumes it. The policy here decides *which*
//! line to verify and *when*; the memory system executes the sweep as
//! real traffic (a read, plus a rewrite when the line turns out
//! poisoned) through the ordinary channel datapath, so its bandwidth
//! and energy costs are modeled rather than assumed free.
//!
//! Patrol is deliberately opportunistic: the controller polls it only
//! at idle decision points, so scrub traffic never displaces a
//! schedulable demand access and never creates wake-up events of its
//! own. A saturated channel therefore scrubs rarely — which is the
//! real trade-off patrol scrubbing makes.

use fbd_types::config::{MemoryConfig, ScrubPolicyKind};
use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;

/// Lines a patrol ring remembers. Old entries are overwritten FIFO; a
/// line evicted before its sweep simply waits for its next observation
/// (patrol is best-effort by construction).
const PATROL_RING: usize = 1024;

/// Round-robin patrol over one channel's recently touched lines, one
/// sweep per `scrub_interval_ns` at most.
///
/// The ring deliberately tracks *observed* lines rather than walking
/// the whole address space: a full-capacity walk at DIMM scale would
/// take longer than any simulated window, while the recently touched
/// set is exactly where poisoned lines (which arrive via real
/// transfers) live.
#[derive(Clone, Debug)]
pub struct PatrolScrub {
    interval: Dur,
    ring: Vec<LineAddr>,
    /// Next ring slot `observe` overwrites.
    write: usize,
    /// Next ring slot `next_scrub` sweeps.
    sweep: usize,
    /// When the previous sweep was dispatched (rate-limit clock).
    last: Option<Time>,
}

impl PatrolScrub {
    /// Creates one channel's patrol with at most one sweep per
    /// `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (validated at config level).
    pub fn new(interval: Dur) -> PatrolScrub {
        assert!(!interval.is_zero(), "scrub interval must be non-zero");
        PatrolScrub {
            interval,
            ring: Vec::with_capacity(PATROL_RING),
            write: 0,
            sweep: 0,
            last: None,
        }
    }

    /// Builds one channel's scrub policy as `cfg.faults.scrub` selects:
    /// a patrol at `scrub_interval_ns`, or `None` when scrubbing is off.
    pub fn for_config(cfg: &MemoryConfig) -> Option<PatrolScrub> {
        match cfg.faults.scrub {
            ScrubPolicyKind::None => None,
            ScrubPolicyKind::Patrol => {
                Some(PatrolScrub::new(Dur::from_ns(cfg.faults.scrub_interval_ns)))
            }
        }
    }

    /// Notes a line the controller just serviced — the candidate pool
    /// the sweeps walk. Called on the hot path: O(1) and
    /// allocation-free once the ring is full.
    pub fn observe(&mut self, line: LineAddr) {
        if self.ring.len() < PATROL_RING {
            self.ring.push(line);
        } else {
            self.ring[self.write] = line;
            self.write = (self.write + 1) % PATROL_RING;
        }
    }

    /// Asks for a line to scrub at an idle decision point. `None` means
    /// no sweep is due (rate limit, or nothing observed yet). A returned
    /// line counts as dispatched: the cursor and rate-limit clock
    /// advance. Returning `None` leaves the policy unchanged, so a
    /// repeated idle decision at the same `now` gets `None` again (the
    /// event loop skips such repeats).
    pub fn next_scrub(&mut self, now: Time) -> Option<LineAddr> {
        if self.ring.is_empty() {
            return None;
        }
        if let Some(last) = self.last {
            if now.saturating_since(last) < self.interval {
                return None;
            }
        }
        let line = self.ring[self.sweep % self.ring.len()];
        self.sweep = (self.sweep + 1) % PATROL_RING.max(self.ring.len());
        self.last = Some(now);
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scrub_never_sweeps() {
        let mut cfg = MemoryConfig::fbdimm_default();
        assert_eq!(cfg.faults.scrub, ScrubPolicyKind::None);
        assert!(PatrolScrub::for_config(&cfg).is_none());
        // The same config with patrol selected does sweep.
        cfg.faults.scrub = ScrubPolicyKind::Patrol;
        let mut p = PatrolScrub::for_config(&cfg).expect("patrol builds a policy");
        assert_eq!(p.interval, Dur::from_ns(cfg.faults.scrub_interval_ns));
        p.observe(LineAddr::new(7));
        assert_eq!(p.next_scrub(Time::from_ns(1)), Some(LineAddr::new(7)));
    }

    #[test]
    fn patrol_waits_for_an_observation() {
        let mut p = PatrolScrub::new(Dur::from_ns(100));
        assert_eq!(p.next_scrub(Time::from_ns(500)), None);
        p.observe(LineAddr::new(42));
        assert_eq!(p.next_scrub(Time::from_ns(500)), Some(LineAddr::new(42)));
    }

    #[test]
    fn patrol_rate_limits_per_channel() {
        let mut chans = [0, 1].map(|_| PatrolScrub::new(Dur::from_ns(100)));
        chans[0].observe(LineAddr::new(1));
        chans[1].observe(LineAddr::new(2));
        assert!(chans[0].next_scrub(Time::from_ns(10)).is_some());
        // Channel 0 just swept: due again only after the interval.
        assert_eq!(chans[0].next_scrub(Time::from_ns(50)), None);
        assert!(chans[0].next_scrub(Time::from_ns(110)).is_some());
        // Channel 1's clock is independent.
        assert!(chans[1].next_scrub(Time::from_ns(50)).is_some());
    }

    #[test]
    fn patrol_round_robins_the_ring() {
        let mut p = PatrolScrub::new(Dur::from_ns(1));
        for l in [3u64, 5, 9] {
            p.observe(LineAddr::new(l));
        }
        let mut seen = Vec::new();
        for i in 0..6u64 {
            seen.push(p.next_scrub(Time::from_ns(10 + i * 10)).unwrap());
        }
        let want: Vec<LineAddr> = [3u64, 5, 9, 3, 5, 9].map(LineAddr::new).into();
        assert_eq!(seen, want);
    }

    #[test]
    fn patrol_ring_overwrites_oldest_at_capacity() {
        let mut p = PatrolScrub::new(Dur::from_ns(1));
        for l in 0..(PATROL_RING as u64 + 3) {
            p.observe(LineAddr::new(l));
        }
        // Ring is full; slots 0..3 now hold the newest three lines.
        assert_eq!(p.ring.len(), PATROL_RING);
        assert_eq!(p.ring[0], LineAddr::new(PATROL_RING as u64));
        assert_eq!(p.ring[3], LineAddr::new(3));
    }
}
