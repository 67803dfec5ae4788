//! Pluggable refresh management.
//!
//! The controller delegates *when* each DIMM refreshes to a
//! [`RefreshManager`]; the memory system owns *what happens* (occupying
//! the banks for tRFC and charging the power model). The manager emits
//! [`RefreshOp`]s for every deadline at or before `now`, in a
//! deterministic order, so the timing outcome is identical to an
//! inlined deadline loop.
//!
//! Two managers ship by default (see [`crate::refresh_managers`]):
//! `staggered` — the paper-default policy that offsets each DIMM's
//! deadline by `tREFI / n` so the subsystem never refreshes all at once
//! — and `none` for refresh-free ablations.

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

/// Decides when each DIMM of each channel refreshes.
pub trait RefreshManager: Send + std::fmt::Debug {
    /// Whether this manager ever emits refreshes. The controller skips
    /// the per-decision call entirely when this is `false`.
    fn is_active(&self) -> bool;

    /// Appends to `out` every refresh on channel `ch` whose deadline is
    /// at or before `now`, advancing the internal deadlines. Ops are
    /// emitted DIMM by DIMM, oldest deadline first within a DIMM.
    ///
    /// Deadlines must move strictly past `now`, so a second call at the
    /// same `now` appends nothing and changes nothing (the event loop
    /// skips repeated idle decisions on this basis).
    fn due(&mut self, ch: u32, now: Time, out: &mut Vec<RefreshOp>);
}

/// Refresh disabled (ablation mode).
#[derive(Clone, Copy, Debug)]
pub struct NoRefresh;

impl RefreshManager for NoRefresh {
    fn is_active(&self) -> bool {
        false
    }
    fn due(&mut self, _ch: u32, _now: Time, _out: &mut Vec<RefreshOp>) {}
}

/// Per-DIMM deadlines staggered across the channel: DIMM `i` first
/// refreshes at `(tREFI / n) * (i + 1)` and every `tREFI` after, as real
/// controllers stagger refresh so the whole subsystem never stalls at
/// once.
#[derive(Clone, Debug)]
pub struct StaggeredRefresh {
    t_refi: Dur,
    t_rfc: Dur,
    /// `deadlines[channel][dimm]` = next refresh instant.
    deadlines: Vec<Vec<Time>>,
}

impl StaggeredRefresh {
    /// Creates the manager for `cfg`'s geometry and refresh timings.
    pub fn new(cfg: &MemoryConfig) -> StaggeredRefresh {
        let n = u64::from(cfg.dimms_per_channel);
        let per_channel: Vec<Time> = (0..n)
            .map(|i| Time::ZERO + (cfg.refresh.t_refi / n) * (i + 1))
            .collect();
        StaggeredRefresh {
            t_refi: cfg.refresh.t_refi,
            t_rfc: cfg.refresh.t_rfc,
            deadlines: vec![per_channel; cfg.logical_channels as usize],
        }
    }
}

impl RefreshManager for StaggeredRefresh {
    fn is_active(&self) -> bool {
        true
    }
    fn due(&mut self, ch: u32, now: Time, out: &mut Vec<RefreshOp>) {
        for (dimm, due) in self.deadlines[ch as usize].iter_mut().enumerate() {
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

/// A named, registerable [`RefreshManager`] factory (see
/// [`crate::refresh_managers`] for the registry).
pub trait RefreshSpec: Send + Sync + std::fmt::Debug {
    /// Stable registry name (e.g. `staggered`).
    fn name(&self) -> &'static str;
    /// One-line human description for listings.
    fn description(&self) -> &'static str;
    /// Builds the manager for `cfg`.
    fn build(&self, cfg: &MemoryConfig) -> Box<dyn RefreshManager>;
}

/// Registry entry for [`StaggeredRefresh`].
#[derive(Debug)]
pub struct StaggeredSpec;

impl RefreshSpec for StaggeredSpec {
    fn name(&self) -> &'static str {
        "staggered"
    }
    fn description(&self) -> &'static str {
        "per-DIMM deadlines offset by tREFI/n (paper default)"
    }
    fn build(&self, cfg: &MemoryConfig) -> Box<dyn RefreshManager> {
        // Honour the config's master switch: composing `staggered` onto
        // a refresh-disabled config must not invent refreshes.
        if cfg.refresh.enabled {
            Box::new(StaggeredRefresh::new(cfg))
        } else {
            Box::new(NoRefresh)
        }
    }
}

/// Registry entry for [`NoRefresh`].
#[derive(Debug)]
pub struct NoRefreshSpec;

impl RefreshSpec for NoRefreshSpec {
    fn name(&self) -> &'static str {
        "none"
    }
    fn description(&self) -> &'static str {
        "refresh disabled (ablation)"
    }
    fn build(&self, _cfg: &MemoryConfig) -> Box<dyn RefreshManager> {
        Box::new(NoRefresh)
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
        m.due(0, Time::ZERO + step - Dur::from_ps(1), &mut ops);
        assert!(ops.is_empty());
        // At the last first-round deadline: one op per DIMM, staggered.
        m.due(0, Time::ZERO + step * n, &mut ops);
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
        let mut m = StaggeredRefresh::new(&c);
        let mut ops = Vec::new();
        let far = Time::ZERO + c.refresh.t_refi * 2;
        m.due(0, far, &mut ops);
        // Two full rounds per DIMM by 2*tREFI.
        assert_eq!(ops.len(), 2 * c.dimms_per_channel as usize);
        // Channel 1 is untouched by channel 0's drain.
        ops.clear();
        m.due(1, far, &mut ops);
        assert_eq!(ops.len(), 2 * c.dimms_per_channel as usize);
        // Re-polling channel 0 at the same instant yields nothing new.
        ops.clear();
        m.due(0, far, &mut ops);
        assert!(ops.is_empty());
    }

    #[test]
    fn staggered_spec_respects_the_disabled_switch() {
        let mut c = cfg();
        assert!(StaggeredSpec.build(&c).is_active());
        c.refresh.enabled = false;
        assert!(!StaggeredSpec.build(&c).is_active());
        assert!(
            !StaggeredSpec
                .build(&MemoryConfig::fbdimm_default())
                .is_active(),
            "the paper default keeps refresh off"
        );
        assert!(!NoRefreshSpec.build(&cfg()).is_active());
    }
}
