//! The conventional DDR2 channel used as the paper's baseline.
//!
//! Unlike FB-DIMM, a DDR2 channel is a stub bus shared by all DIMMs: one
//! command bus carrying a single command per clock, and one bidirectional
//! data bus (the bus of the channel's one `fbd_dram::RankGroup`). This
//! module provides the command-bus arbitration; the data bus itself lives
//! in the DRAM crate because its timing rules (tWTR, turnaround) are DRAM
//! rules.

use fbd_types::config::MemoryConfig;
use fbd_types::time::{Dur, Time};

use crate::timeline::Timeline;

/// The shared command bus of one logical DDR2 channel.
///
/// A ganged pair of physical channels receives broadcast commands, so a
/// logical channel still carries one command per clock.
#[derive(Clone, Debug)]
pub struct Ddr2CommandBus {
    bus: Timeline,
    slot: Dur,
}

impl Ddr2CommandBus {
    /// Builds the command bus for one logical channel.
    pub fn new(cfg: &MemoryConfig) -> Ddr2CommandBus {
        let clock = cfg.data_rate.clock_period();
        Ddr2CommandBus {
            bus: Timeline::new(clock),
            slot: clock,
        }
    }

    /// Reserves the next free command slot at or after `not_before`;
    /// returns the slot's start (the command issue instant).
    pub fn issue(&mut self, not_before: Time) -> Time {
        self.bus.reserve(not_before, self.slot)
    }

    /// Reserves `n` command slots in order, each at least one slot after
    /// the previous, starting at or after `not_before`; returns the first
    /// slot's start. Used for the ACT+CAS pair of one access, whose
    /// timing the bank plan derives from the first command.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn issue_many(&mut self, not_before: Time, n: usize) -> Time {
        assert!(n > 0, "issue_many needs at least one command");
        let first = self.issue(not_before);
        let mut t = first + self.slot;
        for _ in 1..n {
            t = self.issue(t) + self.slot;
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::MemoryConfig;

    #[test]
    fn one_command_per_clock() {
        let mut bus = Ddr2CommandBus::new(&MemoryConfig::ddr2_default());
        let a = bus.issue(Time::ZERO);
        let b = bus.issue(Time::ZERO);
        assert_eq!(a, Time::ZERO);
        assert_eq!(b, Time::from_ns(3));
    }

    #[test]
    fn issue_many_strictly_orders_slots() {
        let mut bus = Ddr2CommandBus::new(&MemoryConfig::ddr2_default());
        bus.issue(Time::from_ns(15)); // a slot already taken mid-sequence
        assert_eq!(bus.issue_many(Time::from_ns(10), 3), Time::from_ns(12));
        // The three commands took 12, 18 and 21 (15 was busy), in order;
        // the gap before 12 stays free.
        assert_eq!(bus.issue(Time::from_ns(12)), Time::from_ns(24));
        assert_eq!(bus.issue(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn contention_pushes_later_requests() {
        let mut bus = Ddr2CommandBus::new(&MemoryConfig::ddr2_default());
        bus.issue_many(Time::ZERO, 4); // occupies 0,3,6,9
        assert_eq!(bus.issue(Time::from_ns(4)), Time::from_ns(12));
    }
}
