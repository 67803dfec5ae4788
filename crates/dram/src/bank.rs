//! Logical DRAM banks of one DIMM and their timing state machines.
//!
//! A *logical bank* gangs the same physical bank across all chips of a
//! rank (paper §3.2); all timing rules of Table 2 are enforced here:
//!
//! * `tRC` between activates to the same bank;
//! * `tRRD` between activates (or precharges) to *different* banks;
//! * `tRCD` from activate to column command;
//! * `tRAS` / `tRPD` / `tWPD` before a precharge may begin;
//! * `tRP` from precharge to the next activate;
//! * column/data timing (`tCL`, `tWL`) plus data-bus occupancy and
//!   `tWTR`, delegated to [`DataBus`].
//!
//! The API is plan/commit: [`BankArray::plan`] is pure and answers "when
//! would this access complete"; [`BankArray::commit`] applies a plan.

use fbd_types::config::DramTimings;
use fbd_types::stats::DramOpCounts;
use fbd_types::time::{Dur, Time};

use crate::bus::DataBus;
use crate::command::{AccessPlan, ColKind, ColumnOp};

/// Timing state of one logical bank.
#[derive(Clone, Copy, Debug)]
struct BankState {
    /// Currently open row, if any.
    row: Option<u32>,
    /// Earliest next ACT (respects tRP after precharge and tRC).
    act_ready: Time,
    /// Earliest column command to the open row (act + tRCD).
    col_ready: Time,
    /// Earliest precharge (max of tRAS after ACT, tRPD after RD, tWPD
    /// after WR).
    pre_ready: Time,
    /// Last activate time (for tRC).
    last_act: Time,
}

impl BankState {
    fn new() -> BankState {
        BankState {
            row: None,
            act_ready: Time::ZERO,
            col_ready: Time::ZERO,
            pre_ready: Time::ZERO,
            last_act: Time::ZERO,
        }
    }
}

/// The logical banks of one DIMM, with inter-bank timing constraints.
#[derive(Clone, Debug)]
pub struct BankArray {
    banks: Vec<BankState>,
    timings: DramTimings,
    clock: Dur,
    /// Last ACT to any bank (tRRD).
    last_act_any: Option<Time>,
    /// Last PRE to any bank (tRRD applies to PRE-PRE across banks too).
    last_pre_any: Option<Time>,
    /// End of the last write burst to this rank (tWTR: write data end to
    /// the next read command, a rank-level rule).
    last_write_end: Option<Time>,
    /// The four most recent ACT times on this rank (tFAW window).
    recent_acts: [Option<Time>; 4],
    /// Union of busy windows (rows open / data moving), for
    /// state-residency static-power accounting.
    active_time: Dur,
    busy_until: Time,
    ops: DramOpCounts,
}

impl BankArray {
    /// Creates `banks` idle banks with the given timings and DRAM clock.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or the clock period is zero.
    pub fn new(banks: usize, timings: DramTimings, clock: Dur) -> BankArray {
        assert!(banks > 0, "a DIMM must have at least one bank");
        assert!(!clock.is_zero(), "clock period must be non-zero");
        BankArray {
            banks: vec![BankState::new(); banks],
            timings,
            clock,
            last_act_any: None,
            last_pre_any: None,
            last_write_end: None,
            recent_acts: [None; 4],
            active_time: Dur::ZERO,
            busy_until: Time::ZERO,
            ops: DramOpCounts::default(),
        }
    }

    /// True if `row` is currently open in `bank` (row-buffer hit for the
    /// hit-first scheduler).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn is_row_open(&self, bank: usize, row: u32) -> bool {
        self.banks[bank].row == Some(row)
    }

    /// DRAM operation counters accumulated by committed plans.
    pub fn ops(&self) -> &DramOpCounts {
        &self.ops
    }

    /// Earliest instant `bank` could accept an activate (respects tRP,
    /// tRC and the cross-bank tRRD window). Used by bank-readiness-aware
    /// scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn earliest_act(&self, bank: usize) -> Time {
        self.banks[bank]
            .act_ready
            .max(self.t_rrd_after(self.last_act_any))
            .max(self.t_faw_ready())
    }

    /// Performs an all-bank auto-refresh requested at `at`: waits for
    /// every open row to become precharge-able, closes all rows, and
    /// blocks every bank for `t_rfc`. Returns the instant the banks are
    /// usable again.
    ///
    /// # Panics
    ///
    /// Panics if `t_rfc` is zero.
    pub fn refresh_all(&mut self, at: Time, t_rfc: Dur) -> Time {
        assert!(!t_rfc.is_zero(), "tRFC must be non-zero");
        let mut start = at;
        for b in &self.banks {
            if b.row.is_some() {
                // Must precharge the open row first.
                start = start.max(b.pre_ready + self.timings.t_rp);
            } else {
                // Wait out any in-progress precharge (conservatively,
                // until the bank could accept an activate).
                start = start.max(b.act_ready);
            }
        }
        let start = start.align_up(self.clock);
        let done = start + t_rfc;
        for b in &mut self.banks {
            b.row = None;
            b.act_ready = b.act_ready.max(done);
            b.col_ready = b.col_ready.max(done);
        }
        self.note_busy(start, done);
        self.ops.refreshes += 1;
        done
    }

    /// Earliest instant a read *command* may issue on this rank given
    /// the write-to-read turnaround (tWTR after the last write burst).
    pub fn read_turnaround_until(&self) -> Time {
        match self.last_write_end {
            Some(we) => we + self.timings.t_wtr,
            None => Time::ZERO,
        }
    }

    /// Plans a column access to `(bank, row)` that may not begin before
    /// `not_before`, against the current bank state and `bus` occupancy.
    ///
    /// The returned plan holds every command time and the data window.
    /// Planning is pure: neither the banks nor the bus are modified.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or the burst length is zero.
    pub fn plan(
        &self,
        bank: usize,
        row: u32,
        op: ColumnOp,
        not_before: Time,
        bus: &DataBus,
    ) -> AccessPlan {
        assert!(!op.burst.is_zero(), "burst length must be non-zero");
        let t = &self.timings;
        let clk = self.clock;
        let start = not_before.align_up(clk);
        let b = &self.banks[bank];

        let mut pre_at = None;
        let mut act_at = None;
        let col_ready;
        match b.row {
            Some(open) if open == row => {
                col_ready = b.col_ready;
            }
            Some(_) => {
                // Row conflict (open-page mode): precharge, then activate.
                let p = start
                    .max(b.pre_ready)
                    .max(self.t_rrd_after(self.last_pre_any))
                    .align_up(clk);
                pre_at = Some(p);
                let a = (p + t.t_rp)
                    .max(b.act_ready)
                    .max(b.last_act + t.t_rc)
                    .max(self.t_rrd_after(self.last_act_any))
                    .max(self.t_faw_ready())
                    .align_up(clk);
                act_at = Some(a);
                col_ready = a + t.t_rcd;
            }
            None => {
                let a = start
                    .max(b.act_ready)
                    .max(self.t_rrd_after(self.last_act_any))
                    .max(self.t_faw_ready())
                    .align_up(clk);
                act_at = Some(a);
                col_ready = a + t.t_rcd;
            }
        }

        let mut cmd_at = start.max(col_ready).align_up(clk);
        let data_latency = match op.kind {
            ColKind::Read => t.t_cl,
            ColKind::Write => t.t_wl,
        };
        if op.kind == ColKind::Read {
            if let Some(we) = self.last_write_end {
                cmd_at = cmd_at.max(we + t.t_wtr).align_up(clk);
            }
        }
        // Push the command until its whole data window fits on the bus
        // (possibly into a gap between already-scheduled bursts).
        loop {
            let data_start = cmd_at + data_latency;
            let ok_at = bus.earliest_fit(op.kind, data_start, op.burst);
            if ok_at <= data_start {
                break;
            }
            cmd_at = (cmd_at + (ok_at - data_start)).align_up(clk);
        }
        let data_start = cmd_at + data_latency;

        AccessPlan {
            bank,
            row,
            pre_at,
            act_at,
            cmd_at,
            data_start,
            data_end: data_start + op.burst,
            op,
        }
    }

    fn t_rrd_after(&self, last: Option<Time>) -> Time {
        match last {
            Some(t) => t + self.timings.t_rrd,
            None => Time::ZERO,
        }
    }

    /// Earliest instant a fifth activate may issue: tFAW after the
    /// fourth-most-recent ACT on this rank.
    fn t_faw_ready(&self) -> Time {
        if self.timings.t_faw.is_zero() {
            return Time::ZERO;
        }
        match self.recent_acts[3] {
            Some(fourth) => fourth + self.timings.t_faw,
            None => Time::ZERO,
        }
    }

    /// Total time this rank spent active (row open or transferring) —
    /// the active-standby residency for static-power estimation.
    pub fn active_time(&self) -> Dur {
        self.active_time
    }

    fn note_busy(&mut self, start: Time, end: Time) {
        let begin = start.max(self.busy_until);
        if end > begin {
            self.active_time += end - begin;
            self.busy_until = end;
        }
    }

    fn note_act(&mut self, at: Time) {
        // Keep the four most recent ACT times, newest first.
        self.recent_acts.rotate_right(1);
        self.recent_acts[0] = Some(at);
    }

    fn bump(slot: &mut Option<Time>, at: Time) {
        *slot = Some(slot.map_or(at, |prev| prev.max(at)));
    }

    /// Applies `plan` to the bank and bus state and updates the DRAM
    /// operation counters.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the plan is stale (violates the current
    /// bank timing state) — plans must be committed against the same
    /// state they were computed from.
    pub fn commit(&mut self, plan: &AccessPlan, bus: &mut DataBus) {
        let t = self.timings;
        if let Some(p) = plan.pre_at {
            debug_assert!(
                p >= self.banks[plan.bank].pre_ready,
                "stale plan: pre too early"
            );
            Self::bump(&mut self.last_pre_any, p);
        }
        if let Some(a) = plan.act_at {
            let b = &mut self.banks[plan.bank];
            debug_assert!(a >= b.act_ready, "stale plan: act too early");
            b.last_act = a;
            b.act_ready = a + t.t_rc;
            b.col_ready = a + t.t_rcd;
            b.pre_ready = a + t.t_ras;
            b.row = Some(plan.row);
            Self::bump(&mut self.last_act_any, a);
            self.note_act(a);
            self.ops.act_pre += 1;
        }
        let b = &mut self.banks[plan.bank];
        debug_assert!(
            b.row == Some(plan.row),
            "stale plan: row not open at commit"
        );
        debug_assert!(plan.cmd_at >= b.col_ready, "stale plan: column too early");
        match plan.op.kind {
            ColKind::Read => {
                self.ops.col_reads += 1;
                b.pre_ready = b.pre_ready.max(plan.cmd_at + t.t_rpd);
            }
            ColKind::Write => {
                self.ops.col_writes += 1;
                b.pre_ready = b.pre_ready.max(plan.cmd_at + t.t_wpd);
                Self::bump(&mut self.last_write_end, plan.data_end);
            }
        }
        let mut window_end = plan.data_end;
        if plan.op.auto_precharge {
            let pre_at = b.pre_ready;
            b.row = None;
            b.act_ready = b.act_ready.max(pre_at + t.t_rp);
            Self::bump(&mut self.last_pre_any, pre_at);
            window_end = window_end.max(pre_at + t.t_rp);
        }
        let window_start = plan.pre_at.or(plan.act_at).unwrap_or(plan.cmd_at);
        self.note_busy(window_start, window_end);
        bus.commit(plan.op.kind, plan.data_start, plan.data_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLK: Dur = Dur::from_ns(3);

    fn array() -> BankArray {
        BankArray::new(4, DramTimings::ddr2_table2(), CLK)
    }

    fn bus() -> DataBus {
        DataBus::new(CLK)
    }

    fn read_ap() -> ColumnOp {
        ColumnOp {
            kind: ColKind::Read,
            auto_precharge: true,
            burst: Dur::from_ns(6),
        }
    }

    #[test]
    fn cold_read_takes_act_plus_rcd_plus_cl() {
        let a = array();
        let b = bus();
        let plan = a.plan(0, 7, read_ap(), Time::ZERO, &b);
        assert_eq!(plan.act_at, Some(Time::ZERO));
        assert_eq!(plan.cmd_at, Time::from_ns(15)); // tRCD
        assert_eq!(plan.data_start, Time::from_ns(30)); // + tCL
        assert_eq!(plan.data_end, Time::from_ns(36));
        assert!(plan.is_row_miss());
    }

    #[test]
    fn auto_precharge_closes_row_and_enforces_trc_cycle() {
        let mut a = array();
        let mut b = bus();
        let p1 = a.plan(0, 7, read_ap(), Time::ZERO, &b);
        a.commit(&p1, &mut b);
        assert!(!a.is_row_open(0, 7));
        // Next ACT same bank: pre at max(tRAS=39, rd@15+tRPD=24)=39, +tRP=54.
        let p2 = a.plan(0, 9, read_ap(), Time::ZERO, &b);
        assert_eq!(p2.act_at, Some(Time::from_ns(54)));
        // And tRC (54) is also satisfied exactly.
    }

    #[test]
    fn t_rrd_separates_activates_to_different_banks() {
        let mut a = array();
        let mut b = bus();
        let p1 = a.plan(0, 1, read_ap(), Time::ZERO, &b);
        a.commit(&p1, &mut b);
        let p2 = a.plan(1, 1, read_ap(), Time::ZERO, &b);
        assert_eq!(p2.act_at, Some(Time::from_ns(9))); // tRRD
    }

    #[test]
    fn open_page_row_hit_skips_activation() {
        let mut a = array();
        let mut b = bus();
        let open_read = ColumnOp {
            auto_precharge: false,
            ..read_ap()
        };
        let p1 = a.plan(0, 7, open_read, Time::ZERO, &b);
        a.commit(&p1, &mut b);
        assert!(a.is_row_open(0, 7));
        let p2 = a.plan(0, 7, open_read, Time::from_ns(20), &b);
        assert_eq!(p2.act_at, None);
        assert!(!p2.is_row_miss());
        // Only bus occupancy orders the second burst after the first.
        assert!(p2.data_start >= p1.data_end);
    }

    #[test]
    fn open_page_conflict_inserts_precharge() {
        let mut a = array();
        let mut b = bus();
        let open_read = ColumnOp {
            auto_precharge: false,
            ..read_ap()
        };
        let p1 = a.plan(0, 7, open_read, Time::ZERO, &b);
        a.commit(&p1, &mut b);
        let p2 = a.plan(0, 8, open_read, Time::ZERO, &b);
        // PRE cannot issue before tRAS (39 ns after ACT@0).
        assert_eq!(p2.pre_at, Some(Time::from_ns(39)));
        assert_eq!(p2.act_at, Some(Time::from_ns(54))); // +tRP
    }

    #[test]
    fn write_then_read_respects_t_wtr() {
        let mut a = array();
        let mut b = bus();
        let write = ColumnOp {
            kind: ColKind::Write,
            auto_precharge: true,
            burst: Dur::from_ns(6),
        };
        let pw = a.plan(0, 1, write, Time::ZERO, &b);
        a.commit(&pw, &mut b);
        // WR cmd at 15 (tRCD), data 27..33 (tWL=12). Read cmd ≥ 33+9=42.
        assert_eq!(pw.data_start, Time::from_ns(27));
        let pr = a.plan(1, 1, read_ap(), Time::ZERO, &b);
        assert_eq!(pr.cmd_at, Time::from_ns(42));
    }

    #[test]
    fn pipelined_reads_to_different_banks_share_the_bus() {
        let mut a = array();
        let mut b = bus();
        let p1 = a.plan(0, 1, read_ap(), Time::ZERO, &b);
        a.commit(&p1, &mut b);
        let p2 = a.plan(1, 1, read_ap(), Time::ZERO, &b);
        a.commit(&p2, &mut b);
        // Data windows must not overlap.
        assert!(p2.data_start >= p1.data_end);
        // And the second access did not need to wait a full tRC.
        assert!(p2.cmd_at < Time::from_ns(54));
    }

    #[test]
    fn group_fetch_pipelines_column_accesses_on_one_row() {
        // The AMB prefetch group: 1 ACT + K column reads, last with AP.
        let mut a = array();
        let mut b = bus();
        let k = 4;
        let mut plans = Vec::new();
        for i in 0..k {
            let op = ColumnOp {
                kind: ColKind::Read,
                auto_precharge: i == k - 1,
                burst: Dur::from_ns(6),
            };
            let p = a.plan(0, 3, op, Time::ZERO, &b);
            a.commit(&p, &mut b);
            plans.push(p);
        }
        // Exactly one activation, K column reads.
        assert_eq!(a.ops().act_pre, 1);
        assert_eq!(a.ops().col_reads, 4);
        // Bursts are contiguous on the bus: 6 ns apart each.
        for w in plans.windows(2) {
            assert_eq!(w[1].data_start, w[0].data_end);
        }
        assert_eq!(plans[0].data_start, Time::from_ns(30));
        assert_eq!(plans[3].data_end, Time::from_ns(54));
    }

    #[test]
    fn op_counters_track_reads_and_writes() {
        let mut a = array();
        let mut b = bus();
        let p = a.plan(0, 1, read_ap(), Time::ZERO, &b);
        a.commit(&p, &mut b);
        let write = ColumnOp {
            kind: ColKind::Write,
            auto_precharge: true,
            burst: Dur::from_ns(6),
        };
        let p = a.plan(1, 1, write, Time::ZERO, &b);
        a.commit(&p, &mut b);
        assert_eq!(a.ops().act_pre, 2);
        assert_eq!(a.ops().col_reads, 1);
        assert_eq!(a.ops().col_writes, 1);
        assert_eq!(a.ops().col_total(), 2);
    }

    #[test]
    fn t_faw_limits_activate_bursts() {
        // 8 banks so tRC never masks the four-activate window.
        let mut a = BankArray::new(8, DramTimings::ddr2_table2(), CLK);
        let mut b = bus();
        let mut acts = Vec::new();
        for bank in 0..5 {
            let p = a.plan(bank, 1, read_ap(), Time::ZERO, &b);
            acts.push(p.act_at.expect("close page activates"));
            a.commit(&p, &mut b);
        }
        // First four ACTs are tRRD-paced: 0, 9, 18, 27 ns.
        assert_eq!(acts[3], Time::from_ns(27));
        // The fifth must wait tFAW (37.5 ns) after the first.
        assert!(
            acts[4] >= Time::ZERO + DramTimings::ddr2_table2().t_faw,
            "fifth ACT at {} violates tFAW",
            acts[4]
        );
    }

    #[test]
    fn t_faw_zero_disables_the_window() {
        let mut t = DramTimings::ddr2_table2();
        t.t_faw = Dur::ZERO;
        let mut a = BankArray::new(8, t, CLK);
        let mut b = bus();
        let mut acts = Vec::new();
        for bank in 0..5 {
            let p = a.plan(bank, 1, read_ap(), Time::ZERO, &b);
            acts.push(p.act_at.expect("activates"));
            a.commit(&p, &mut b);
        }
        // Pure tRRD pacing: fifth ACT at 36 ns < 37.5 ns.
        assert_eq!(acts[4], Time::from_ns(36));
    }

    #[test]
    fn refresh_blocks_all_banks_for_trfc() {
        let mut a = array();
        let mut b = bus();
        let done = a.refresh_all(Time::from_ns(30), Dur::from_ns(128));
        assert_eq!(done, Time::from_ns(158));
        assert_eq!(a.ops().refreshes, 1);
        // The next access to any bank waits for the refresh to finish.
        let p = a.plan(2, 1, read_ap(), Time::ZERO, &b);
        assert_eq!(p.act_at, Some(Time::from_ns(159).align_up(CLK)));
        a.commit(&p, &mut b);
    }

    #[test]
    fn refresh_waits_for_open_rows_to_precharge() {
        let mut a = array();
        let mut b = bus();
        let open_read = ColumnOp {
            auto_precharge: false,
            ..read_ap()
        };
        let p = a.plan(0, 7, open_read, Time::ZERO, &b);
        a.commit(&p, &mut b); // row open; pre_ready = tRAS = 39 ns
        let done = a.refresh_all(Time::ZERO, Dur::from_ns(128));
        // PRE earliest at 39, +tRP 15 -> refresh starts at 54.
        assert_eq!(done, Time::from_ns(54 + 128));
        assert!(!a.is_row_open(0, 7), "refresh closes all rows");
    }

    #[test]
    #[should_panic(expected = "tRFC")]
    fn refresh_rejects_zero_trfc() {
        let mut a = array();
        a.refresh_all(Time::ZERO, Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankArray::new(0, DramTimings::ddr2_table2(), CLK);
    }

    #[test]
    fn builds_from_a_registered_timing_spec() {
        // The extension substrate's table reaches the devices purely by
        // registry name — no bank-array code mentions DDR3-1066.
        let cfg = fbd_types::substrate::substrates()
            .get("ddr3-1066")
            .expect("ddr3-1066 substrate is registered")
            .config();
        let t = cfg.timings;
        let clk = cfg.data_rate.clock_period();
        let a = BankArray::new(4, t, clk);
        let p = a.plan(0, 3, read_ap(), Time::ZERO, &DataBus::new(clk));
        // First access to an idle bank: ACT at 0, READ at tRCD, data at
        // tRCD + CL — straight from the spec's table.
        assert_eq!(p.act_at, Some(Time::ZERO));
        assert_eq!(p.cmd_at, Time::ZERO + t.t_rcd);
        assert_eq!(p.data_start, Time::ZERO + t.t_rcd + t.t_cl);
    }
}
