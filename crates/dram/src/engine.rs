//! The access engine: the DRAM devices behind one data bus, as a
//! [`RankGroup`].
//!
//! Both datapaths drive the same DDR2 ranks; they differ only in how
//! many ranks share a data bus. In FB-DIMM each DIMM's AMB drives its
//! own ranks over a private bus, so a channel holds one [`RankGroup`]
//! per DIMM. In the DDR2 baseline every rank of the channel sits on the
//! controller's one shared bus, so the channel is a single group. That
//! difference in bus scope is the bandwidth asymmetry the paper's AMB
//! prefetching exploits (§3.2).
//!
//! Each rank is an independent timing domain (its own tRRD, tFAW and
//! tWTR windows), while only one rank of the group transfers at a time.
//! The group executes three operations for the AMB or controller in
//! front of it:
//!
//! * [`access`](RankGroup::access) — one column read or write, planned
//!   and committed at once;
//! * [`fetch_group`](RankGroup::fetch_group) — the paper's group fetch:
//!   one activation followed by K pipelined column reads on one row,
//!   the demanded line first;
//! * [`refresh`](RankGroup::refresh) — an all-bank auto-refresh of one
//!   rank.
//!
//! Data timing is *cut-through*: a read's data exists for the AMB's
//! northbound forwarding (or the DDR2 controller) at the burst start,
//! [`AccessPlan::data_start`].

use fbd_types::config::DramTimings;
use fbd_types::stats::DramOpCounts;
use fbd_types::time::{Dur, Time};

use crate::bank::BankArray;
use crate::bus::DataBus;
use crate::command::{AccessPlan, ColKind, ColumnOp};

/// `n` ranks of [`BankArray`] behind one [`DataBus`], with a fixed
/// burst length and page policy.
#[derive(Clone, Debug)]
pub struct RankGroup {
    ranks: Vec<BankArray>,
    bus: DataBus,
    burst: Dur,
    close_page: bool,
}

impl RankGroup {
    /// Creates `ranks` ranks of `banks` logical banks each on one bus.
    ///
    /// `burst` is the bus time of one 64-byte line (on a ganged DIMM
    /// pair, each DIMM carries half of it); `close_page` selects
    /// auto-precharge on the final column access of every operation.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` or `banks` is zero, or the clock period is
    /// zero.
    pub fn new(
        ranks: usize,
        banks: usize,
        timings: DramTimings,
        clock: Dur,
        burst: Dur,
        close_page: bool,
    ) -> RankGroup {
        assert!(ranks > 0, "a rank group must have at least one rank");
        RankGroup {
            ranks: (0..ranks)
                .map(|_| BankArray::new(banks, timings, clock))
                .collect(),
            bus: DataBus::new(clock),
            burst,
            close_page,
        }
    }

    /// The banks of `rank`, for the scheduler's classification (open
    /// row, earliest activate, write-to-read turnaround) and per-rank
    /// operation counts.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank(&self, rank: usize) -> &BankArray {
        &self.ranks[rank]
    }

    fn op(&self, kind: ColKind, auto_precharge: bool) -> ColumnOp {
        ColumnOp {
            kind,
            auto_precharge,
            burst: self.burst,
        }
    }

    /// Plans and commits one column access of `kind` to `(rank, bank,
    /// row)` whose commands may not issue before `not_before`, and
    /// returns the committed plan.
    pub fn access(
        &mut self,
        rank: usize,
        bank: usize,
        row: u32,
        kind: ColKind,
        not_before: Time,
    ) -> AccessPlan {
        let op = self.op(kind, self.close_page);
        let plan = self.ranks[rank].plan(bank, row, op, not_before, &self.bus);
        self.ranks[rank].commit(&plan, &mut self.bus);
        plan
    }

    /// Performs the group fetch: one activation (if needed) plus
    /// `lines` pipelined column reads on one row, demanded line first.
    /// Close-page mode auto-precharges with the final column access, so
    /// the whole group costs a single ACT/PRE pair.
    ///
    /// Returns the demanded line's plan and the instant the last line
    /// finishes on the bus.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn fetch_group(
        &mut self,
        rank: usize,
        bank: usize,
        row: u32,
        lines: u32,
        not_before: Time,
    ) -> (AccessPlan, Time) {
        assert!(lines > 0, "group fetch needs at least one line");
        let mut first = None;
        let mut fill_done = Time::ZERO;
        for i in 0..lines {
            let op = self.op(ColKind::Read, self.close_page && i == lines - 1);
            let plan = self.ranks[rank].plan(bank, row, op, not_before, &self.bus);
            self.ranks[rank].commit(&plan, &mut self.bus);
            first.get_or_insert(plan);
            fill_done = plan.data_end;
        }
        (first.expect("at least one line"), fill_done)
    }

    /// Performs an all-bank auto-refresh of `rank` requested at `at`;
    /// returns when its banks become usable again.
    pub fn refresh(&mut self, rank: usize, at: Time, t_rfc: Dur) -> Time {
        self.ranks[rank].refresh_all(at, t_rfc)
    }

    /// DRAM operation counters summed over the group's ranks.
    pub fn ops(&self) -> DramOpCounts {
        let mut total = DramOpCounts::default();
        for r in &self.ranks {
            total.merge(r.ops());
        }
        total
    }

    /// Rank-active time summed over the group's ranks (for static-power
    /// accounting).
    pub fn active_time(&self) -> Dur {
        self.ranks.iter().map(BankArray::active_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLK: Dur = Dur::from_ns(3);
    const BURST: Dur = Dur::from_ns(6);

    /// One close-page FB-DIMM: a single rank on the AMB's private bus.
    fn dimm() -> RankGroup {
        RankGroup::new(1, 4, DramTimings::ddr2_table2(), CLK, BURST, true)
    }

    fn read(g: &mut RankGroup, rank: usize, bank: usize, row: u32, at: Time) -> AccessPlan {
        g.access(rank, bank, row, ColKind::Read, at)
    }

    #[test]
    fn single_read_data_ready_after_rcd_plus_cl() {
        let mut d = dimm();
        let out = read(&mut d, 0, 0, 5, Time::from_ns(15));
        // ACT@15, RD@30, data@45 — the DRAM part of the 63 ns budget.
        assert_eq!(out.data_start, Time::from_ns(45));
        assert!(out.is_row_miss());
        assert_eq!(out.act_at, Some(Time::from_ns(15)));
        assert_eq!(out.cmd_at, Time::from_ns(30));
        assert_eq!(out.data_end, Time::from_ns(51));
        assert_eq!(d.ops().act_pre, 1);
        assert_eq!(d.ops().col_reads, 1);
    }

    #[test]
    fn group_fetch_single_activation_k_columns() {
        let mut d = dimm();
        let (out, fill_done) = d.fetch_group(0, 0, 5, 4, Time::from_ns(15));
        assert_eq!(out.data_start, Time::from_ns(45));
        assert_eq!(out.act_at, Some(Time::from_ns(15)));
        assert_eq!(out.cmd_at, Time::from_ns(30));
        // Demanded line is not delayed by the prefetch columns.
        let mut d2 = dimm();
        let single = read(&mut d2, 0, 0, 5, Time::from_ns(15));
        assert_eq!(out.data_start, single.data_start);
        // 4 bursts of 6 ns pipelined back-to-back.
        assert_eq!(fill_done, Time::from_ns(45 + 24));
        assert_eq!(d.ops().act_pre, 1);
        assert_eq!(d.ops().col_reads, 4);
    }

    #[test]
    fn group_fetch_delays_next_access_to_same_bank() {
        let mut d = dimm();
        d.fetch_group(0, 0, 5, 8, Time::ZERO);
        let out = read(&mut d, 0, 0, 6, Time::ZERO);
        // The bank reopens only after the group's auto-precharge.
        let mut d2 = dimm();
        read(&mut d2, 0, 0, 5, Time::ZERO);
        let after_single = read(&mut d2, 0, 0, 6, Time::ZERO);
        assert!(out.data_start > after_single.data_start);
    }

    #[test]
    fn open_page_second_read_is_row_hit() {
        let mut d = RankGroup::new(1, 4, DramTimings::ddr2_table2(), CLK, BURST, false);
        let first = read(&mut d, 0, 0, 5, Time::ZERO);
        assert!(first.is_row_miss());
        assert!(d.rank(0).is_row_open(0, 5));
        let second = read(&mut d, 0, 0, 5, Time::ZERO);
        assert!(!second.is_row_miss());
        assert_eq!(second.act_at, None);
        assert_eq!(d.ops().act_pre, 1);
    }

    #[test]
    fn write_then_read_separated_by_turnaround() {
        let mut d = dimm();
        let wr = d.access(0, 0, 1, ColKind::Write, Time::ZERO);
        // ACT@0, WR@15, data 27..33.
        assert_eq!(wr.act_at, Some(Time::ZERO));
        assert_eq!(wr.cmd_at, Time::from_ns(15));
        assert_eq!(wr.data_start, Time::from_ns(27));
        assert_eq!(wr.data_end, Time::from_ns(33));
        let rd = read(&mut d, 0, 1, 1, Time::ZERO);
        // RD cmd ≥ 33 + tWTR(9) = 42, data at 57.
        assert_eq!(rd.data_start, Time::from_ns(57));
        assert_eq!(d.ops().col_writes, 1);
    }

    #[test]
    fn ranks_are_independent_timing_domains() {
        let mut d = RankGroup::new(2, 4, DramTimings::ddr2_table2(), CLK, BURST, true);
        // Same bank index on two different ranks: no tRC between them.
        let a = read(&mut d, 0, 0, 5, Time::ZERO);
        let b = read(&mut d, 1, 0, 5, Time::ZERO);
        // Rank 1's activate is not held back by rank 0's tRC; only the
        // shared data bus orders the bursts.
        assert!(
            b.data_start < Time::from_ns(54 + 30),
            "rank 1 delayed by rank 0's tRC"
        );
        assert!(
            b.data_start >= a.data_start + Dur::from_ns(6),
            "bus must serialize bursts"
        );
        // Ops are summed over ranks.
        assert_eq!(d.ops().act_pre, 2);
    }

    #[test]
    fn same_rank_same_bank_still_pays_trc() {
        let mut d = RankGroup::new(2, 4, DramTimings::ddr2_table2(), CLK, BURST, true);
        read(&mut d, 0, 0, 5, Time::ZERO);
        let b = read(&mut d, 0, 0, 6, Time::ZERO);
        assert!(
            b.data_start >= Time::from_ns(54 + 30),
            "tRC must apply within a rank"
        );
    }

    #[test]
    fn ddr2_channel_group_shares_one_bus_across_dimms() {
        // A DDR2 channel of 2 single-rank DIMMs is one group of 2 ranks
        // (slot `dimm * ranks + rank`) behind the controller's bus.
        let mut ch = RankGroup::new(2, 4, DramTimings::ddr2_table2(), CLK, BURST, true);
        let a = read(&mut ch, 0, 0, 5, Time::ZERO);
        let b = read(&mut ch, 1, 0, 5, Time::ZERO);
        // Both activate at once (tRC and tRRD are per rank), but the
        // second DIMM's burst queues behind the first on the one bus.
        assert_eq!(a.act_at, b.act_at);
        assert_eq!(b.data_start, a.data_end);
        // Each DIMM's own tRC still holds: DIMM 0 reopens bank 0 only a
        // full tRC (54 ns) after its first activate.
        let c = read(&mut ch, 0, 0, 6, Time::ZERO);
        assert_eq!(c.act_at, Some(Time::from_ns(54)));
        assert_eq!(ch.rank(0).ops().act_pre, 2);
        assert_eq!(ch.rank(1).ops().act_pre, 1);
        // Three one-burst reads, serialized on the one bus: the bus is
        // free once the last of them ends.
        for p in [a, b, c] {
            assert_eq!(p.data_end - p.data_start, BURST);
        }
        assert!(c.data_start >= b.data_end);
        assert_eq!(ch.bus.free_at(), c.data_end);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = RankGroup::new(0, 4, DramTimings::ddr2_table2(), CLK, BURST, true);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_group_rejected() {
        let mut d = dimm();
        d.fetch_group(0, 0, 5, 0, Time::ZERO);
    }

    #[test]
    fn refresh_blocks_only_its_rank() {
        let mut g = RankGroup::new(2, 4, DramTimings::ddr2_table2(), CLK, BURST, true);
        let done = g.refresh(0, Time::ZERO, Dur::from_ns(128));
        assert_eq!(done, Time::from_ns(128));
        assert!(g.rank(0).earliest_act(0) >= done);
        assert_eq!(g.rank(1).earliest_act(0), Time::ZERO);
        assert_eq!(g.ops().refreshes, 1);
    }
}
