//! Column operations and access plans.
//!
//! The controller/AMB side *plans* an access first (a pure computation
//! answering "when could this access happen, and what row operations does
//! it need?") and then *commits* the chosen plan, which mutates bank and
//! bus state. The plan/commit split lets the scheduler compare candidate
//! requests (hit-first policy) without side effects.

use fbd_types::time::{Dur, Time};

/// Direction of a column access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColKind {
    /// Column read (CAS).
    Read,
    /// Column write (CAS-W).
    Write,
}

impl ColKind {
    /// True for reads.
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, ColKind::Read)
    }
}

/// One column access to be planned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnOp {
    /// Read or write.
    pub kind: ColKind,
    /// Issue auto-precharge with this column access (close-page mode, or
    /// the final access of a prefetch group fetch).
    pub auto_precharge: bool,
    /// Time the data burst occupies the DRAM data bus. With ganged
    /// channels each physical DIMM transfers 32 B of the 64 B line:
    /// 2 DRAM clocks at 16 B/clock.
    pub burst: Dur,
}

/// A fully resolved access: every DRAM command time and the data window.
///
/// Produced by [`BankArray::plan`](crate::bank::BankArray::plan); apply it
/// with [`BankArray::commit`](crate::bank::BankArray::commit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessPlan {
    /// Target bank index within the DIMM.
    pub bank: usize,
    /// Target row.
    pub row: u32,
    /// Explicit precharge needed to close a conflicting open row
    /// (open-page mode only).
    pub pre_at: Option<Time>,
    /// Activate command time, if the row was not already open.
    pub act_at: Option<Time>,
    /// Column command time.
    pub cmd_at: Time,
    /// First data beat on the DRAM data bus.
    pub data_start: Time,
    /// End of the data burst.
    pub data_end: Time,
    /// The column operation this plan realizes.
    pub op: ColumnOp,
}

impl AccessPlan {
    /// True if this access needed a row activation (a "bank miss").
    pub fn is_row_miss(&self) -> bool {
        self.act_at.is_some()
    }

    /// Instant the bank started serving this access: the activate when
    /// the row had to be opened, otherwise the column command. Time
    /// before this is bank-availability wait (or, on FB-DIMM, the AMB
    /// buffering a posted write until its bank can take the drain).
    pub fn service_start(&self) -> Time {
        self.act_at.unwrap_or(self.cmd_at)
    }

    /// Instant the first DRAM command of this plan issues: the
    /// precharge when a conflicting row must close, else the activate,
    /// else the column command. Time before this is queueing/bank wait,
    /// not DRAM service.
    pub fn first_cmd_at(&self) -> Time {
        self.pre_at.or(self.act_at).unwrap_or(self.cmd_at)
    }

    /// The DRAM commands this plan issues, in time order, as
    /// `(mnemonic, at)` pairs: an explicit `PRE` and/or `ACT` when the
    /// access needs them, then the column command — `RD`/`WR`, or
    /// `RDA`/`WRA` when it carries auto-precharge. Event tracers
    /// consume this instead of re-deriving command times from fields.
    pub fn commands(&self) -> impl Iterator<Item = (&'static str, Time)> {
        let col = match (self.op.kind, self.op.auto_precharge) {
            (ColKind::Read, false) => "RD",
            (ColKind::Read, true) => "RDA",
            (ColKind::Write, false) => "WR",
            (ColKind::Write, true) => "WRA",
        };
        self.pre_at
            .map(|t| ("PRE", t))
            .into_iter()
            .chain(self.act_at.map(|t| ("ACT", t)))
            .chain(core::iter::once((col, self.cmd_at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_kind_classification() {
        assert!(ColKind::Read.is_read());
        assert!(!ColKind::Write.is_read());
    }

    #[test]
    fn plan_row_miss_detection() {
        let op = ColumnOp {
            kind: ColKind::Read,
            auto_precharge: true,
            burst: Dur::from_ns(6),
        };
        let mut plan = AccessPlan {
            bank: 0,
            row: 1,
            pre_at: None,
            act_at: Some(Time::from_ns(10)),
            cmd_at: Time::from_ns(25),
            data_start: Time::from_ns(40),
            data_end: Time::from_ns(46),
            op,
        };
        assert!(plan.is_row_miss());
        plan.act_at = None;
        assert!(!plan.is_row_miss());
    }

    #[test]
    fn commands_list_in_time_order() {
        let op = ColumnOp {
            kind: ColKind::Read,
            auto_precharge: true,
            burst: Dur::from_ns(6),
        };
        let mut plan = AccessPlan {
            bank: 0,
            row: 1,
            pre_at: Some(Time::from_ns(2)),
            act_at: Some(Time::from_ns(17)),
            cmd_at: Time::from_ns(32),
            data_start: Time::from_ns(47),
            data_end: Time::from_ns(53),
            op,
        };
        let cmds: Vec<_> = plan.commands().collect();
        assert_eq!(
            cmds,
            [
                ("PRE", Time::from_ns(2)),
                ("ACT", Time::from_ns(17)),
                ("RDA", Time::from_ns(32)),
            ]
        );

        plan.pre_at = None;
        plan.act_at = None;
        plan.op.auto_precharge = false;
        plan.op.kind = ColKind::Write;
        let cmds: Vec<_> = plan.commands().collect();
        assert_eq!(cmds, [("WR", Time::from_ns(32))]);
    }
}
