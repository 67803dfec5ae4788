//! Refresh management.
//!
//! The controller delegates *when* each DIMM refreshes to a
//! [`StaggeredRefresh`]; the memory system owns *what happens*
//! (occupying the banks for tRFC and charging the power model). The
//! manager emits [`RefreshOp`]s for every deadline at or before `now`,
//! in a deterministic order, so the timing outcome is identical to an
//! inlined deadline loop. Each channel of the memory system owns one,
//! built only when the config's `refresh.enabled` switch is on; the
//! paper's runs leave it off.

use fbd_types::config::MemoryConfig;
use fbd_types::time::{Dur, Time};

/// One refresh the manager has scheduled: DIMM `dimm` is busy for
/// `t_rfc` starting at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshOp {
    /// DIMM index within the channel.
    pub dimm: u32,
    /// When the refresh starts.
    pub at: Time,
    /// How long every rank of the DIMM stays busy.
    pub t_rfc: Dur,
}

/// One channel's per-DIMM deadlines, staggered: DIMM `i` first
/// refreshes at `(tREFI / n) * (i + 1)` and every `tREFI` after, as real
/// controllers stagger refresh so the whole subsystem never stalls at
/// once.
#[derive(Clone, Debug)]
pub struct StaggeredRefresh {
    t_refi: Dur,
    t_rfc: Dur,
    /// `deadlines[dimm]` = next refresh instant.
    deadlines: Vec<Time>,
}

impl StaggeredRefresh {
    /// Creates one channel's manager for `cfg`'s geometry and refresh
    /// timings.
    pub fn new(cfg: &MemoryConfig) -> StaggeredRefresh {
        let n = u64::from(cfg.dimms_per_channel);
        StaggeredRefresh {
            t_refi: cfg.refresh.t_refi,
            t_rfc: cfg.refresh.t_rfc,
            deadlines: (0..n)
                .map(|i| Time::ZERO + (cfg.refresh.t_refi / n) * (i + 1))
                .collect(),
        }
    }

    /// Appends to `out` every refresh whose deadline is at or before
    /// `now`, advancing the internal deadlines. Ops are emitted DIMM by
    /// DIMM, oldest deadline first within a DIMM.
    ///
    /// Deadlines move strictly past `now`, so a second call at the
    /// same `now` appends nothing and changes nothing (the event loop
    /// skips repeated idle decisions on this basis).
    pub fn due(&mut self, now: Time, out: &mut Vec<RefreshOp>) {
        for (dimm, due) in self.deadlines.iter_mut().enumerate() {
            while *due <= now {
                out.push(RefreshOp {
                    dimm: dimm as u32,
                    at: *due,
                    t_rfc: self.t_rfc,
                });
                *due += self.t_refi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemoryConfig {
        // fbdimm_default ships with refresh off (the paper's setting);
        // these tests exercise the enabled path.
        MemoryConfig {
            refresh: fbd_types::config::RefreshConfig::ddr2_1gb(),
            ..MemoryConfig::fbdimm_default()
        }
    }

    #[test]
    fn staggered_deadlines_match_the_documented_offsets() {
        let c = cfg();
        let mut m = StaggeredRefresh::new(&c);
        let n = u64::from(c.dimms_per_channel);
        let step = c.refresh.t_refi / n;
        // Just before the first deadline: nothing due.
        let mut ops = Vec::new();
        m.due(Time::ZERO + step - Dur::from_ps(1), &mut ops);
        assert!(ops.is_empty());
        // At the last first-round deadline: one op per DIMM, staggered.
        m.due(Time::ZERO + step * n, &mut ops);
        assert_eq!(ops.len(), c.dimms_per_channel as usize);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.dimm, i as u32);
            assert_eq!(op.at, Time::ZERO + step * (i as u64 + 1));
            assert_eq!(op.t_rfc, c.refresh.t_rfc);
        }
    }

    #[test]
    fn deadlines_advance_by_t_refi_and_are_per_channel() {
        let c = cfg();
        // Each channel owns a manager.
        let mut chans = [StaggeredRefresh::new(&c), StaggeredRefresh::new(&c)];
        let mut ops = Vec::new();
        let far = Time::ZERO + c.refresh.t_refi * 2;
        chans[0].due(far, &mut ops);
        // Two full rounds per DIMM by 2*tREFI.
        assert_eq!(ops.len(), 2 * c.dimms_per_channel as usize);
        // Channel 1 is untouched by channel 0's drain.
        ops.clear();
        chans[1].due(far, &mut ops);
        assert_eq!(ops.len(), 2 * c.dimms_per_channel as usize);
        // Re-polling channel 0 at the same instant yields nothing new.
        ops.clear();
        chans[0].due(far, &mut ops);
        assert!(ops.is_empty());
    }
}
