//! DRAM power estimation (paper §5.5).
//!
//! The paper counts row and column accesses in simulation and feeds them
//! to the Micron DDR2 system-power calculator, arriving at a ≈4:1 ratio
//! of energy between one activate/precharge pair and one column access
//! (DDR2-667, close page, 70 % bandwidth utilization). This crate
//! reproduces both routes:
//!
//! * [`PowerModel::from_params`] computes per-operation energies from
//!   IDD-style datasheet currents, the same way the Micron calculator
//!   does;
//! * [`PowerModel::paper_ratio`] uses the paper's calibrated 4:1 weights
//!   directly.
//!
//! Beyond the paper's dynamic-only accounting, [`EnergyModel`] extends
//! the methodology to a full energy pipeline: per-mode background
//! energy from power-mode residencies ([`modes`]), refresh energy, and
//! AMB core/link power, rolled up into a single [`EnergyReport`] broken
//! down by component and by rank.
//!
//! # Examples
//!
//! The defining trade-off of AMB prefetching: fewer activations, more
//! column accesses. With 4:1 weights, trading one ACT/PRE for up to four
//! column accesses breaks even:
//!
//! ```
//! use fbd_power::PowerModel;
//! use fbd_types::stats::DramOpCounts;
//!
//! let model = PowerModel::paper_ratio();
//! let baseline = DramOpCounts { act_pre: 100, col_reads: 100, col_writes: 0, refreshes: 0 };
//! // K=4 group fetches with 50% coverage: 50 fewer ACTs, 100 extra columns.
//! let with_ap = DramOpCounts { act_pre: 50, col_reads: 200, col_writes: 0, refreshes: 0 };
//! let ratio = model.normalized(&with_ap, &baseline);
//! assert!(ratio < 1.0, "net saving expected, got {ratio}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod modes;

pub use modes::{ModeResidency, ModeSpan, PowerMode, PowerModeTracker};

use fbd_types::stats::DramOpCounts;
use fbd_types::time::Dur;

/// Datasheet-style current/voltage parameters for one DDR2 device
/// generation, as consumed by the Micron power calculator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramPowerParams {
    /// Activate-precharge cycling current (one bank, back-to-back tRC).
    pub idd0_ma: f64,
    /// Active standby current (all banks open, no I/O).
    pub idd3n_ma: f64,
    /// Burst read current.
    pub idd4r_ma: f64,
    /// Burst write current.
    pub idd4w_ma: f64,
    /// Refresh burst current.
    pub idd5_ma: f64,
    /// Supply voltage.
    pub vdd_v: f64,
    /// ACT-to-ACT minimum (energy window of one ACT/PRE pair).
    pub t_rc: Dur,
    /// Data-bus time of one column access's burst.
    pub burst: Dur,
    /// Refresh cycle time (energy window of one all-bank refresh).
    pub t_rfc: Dur,
}

impl DramPowerParams {
    /// Representative DDR2-667 datasheet values (Micron 1 Gb parts),
    /// which yield close to the paper's 4:1 ACT-PRE:column ratio.
    pub fn micron_ddr2_667() -> DramPowerParams {
        DramPowerParams {
            idd0_ma: 90.0,
            idd3n_ma: 35.0,
            idd4r_ma: 145.0,
            idd4w_ma: 155.0,
            idd5_ma: 235.0,
            vdd_v: 1.8,
            t_rc: Dur::from_ns(54),
            burst: Dur::from_ns(6),
            t_rfc: Dur::from_ns(128),
        }
    }

    /// Representative DDR3-1333 datasheet values (Micron 1 Gb parts,
    /// 1.5 V): higher currents over a shorter tRC, with the burst
    /// window halved by the doubled data rate. Matches the
    /// `fbdimm_ddr3` substrate's DDR3-1333 timing set.
    pub fn micron_ddr3_1333() -> DramPowerParams {
        DramPowerParams {
            idd0_ma: 95.0,
            idd3n_ma: 45.0,
            idd4r_ma: 180.0,
            idd4w_ma: 185.0,
            idd5_ma: 215.0,
            vdd_v: 1.5,
            t_rc: Dur::from_ps(49_500),
            burst: Dur::from_ns(3),
            t_rfc: Dur::from_ns(110),
        }
    }
}

/// Per-operation dynamic-energy weights for the memory devices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    e_act_pre_nj: f64,
    e_col_read_nj: f64,
    e_col_write_nj: f64,
    e_refresh_nj: f64,
}

/// Standby powers of one rank's devices, for state-residency static
/// energy (extension beyond the paper, which models dynamic energy
/// only).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StandbyPower {
    /// Active standby (row open / transferring): IDD3N-class.
    pub active_mw: f64,
    /// Precharge standby (idle, clock running): IDD2N-class.
    pub idle_mw: f64,
    /// Precharge power-down (CKE low): IDD2P-class.
    pub powerdown_mw: f64,
}

impl StandbyPower {
    /// Representative DDR2-667 values per rank (IDD3N 35 mA, IDD2N
    /// 30 mA, IDD2P 7 mA at 1.8 V).
    pub fn micron_ddr2_667() -> StandbyPower {
        StandbyPower {
            active_mw: 63.0,
            idle_mw: 54.0,
            powerdown_mw: 12.6,
        }
    }

    /// Representative DDR3-1333 values per rank (IDD3N 45 mA, IDD2N
    /// 42 mA, IDD2P 12 mA at 1.5 V).
    pub fn micron_ddr3_1333() -> StandbyPower {
        StandbyPower {
            active_mw: 67.5,
            idle_mw: 63.0,
            powerdown_mw: 18.0,
        }
    }

    /// Background energy (nJ) of one rank with the given per-mode
    /// residency: active time at `active_mw`, precharge standby at
    /// `idle_mw`, precharge power-down at `powerdown_mw`.
    pub fn residency_energy(&self, r: &ModeResidency) -> f64 {
        // mW × ns = pJ; divide by 1000 for nJ.
        (self.active_mw * r.active.as_ns_f64()
            + self.idle_mw * r.standby.as_ns_f64()
            + self.powerdown_mw * r.powerdown.as_ns_f64())
            / 1_000.0
    }

    /// Static energy (nJ) of one rank that was active for `active` out
    /// of `elapsed`, with idle periods either in precharge standby or
    /// (when `powerdown` is set) in precharge power-down.
    ///
    /// # Panics
    ///
    /// Panics if `active` exceeds `elapsed`.
    pub fn static_energy(&self, active: Dur, elapsed: Dur, powerdown: bool) -> f64 {
        assert!(active <= elapsed, "active time cannot exceed elapsed time");
        let idle = elapsed - active;
        let idle_mw = if powerdown {
            self.powerdown_mw
        } else {
            self.idle_mw
        };
        // mW × ns = pJ; divide by 1000 for nJ.
        (self.active_mw * active.as_ns_f64() + idle_mw * idle.as_ns_f64()) / 1_000.0
    }
}

impl PowerModel {
    /// Derives per-operation energies from datasheet currents, Micron
    /// calculator style: the incremental current over active standby,
    /// integrated over the operation's window.
    pub fn from_params(p: &DramPowerParams) -> PowerModel {
        let act_pre = (p.idd0_ma - p.idd3n_ma) * p.vdd_v * p.t_rc.as_ns_f64() * 1e-3;
        let col_rd = (p.idd4r_ma - p.idd3n_ma) * p.vdd_v * p.burst.as_ns_f64() * 1e-3;
        let col_wr = (p.idd4w_ma - p.idd3n_ma) * p.vdd_v * p.burst.as_ns_f64() * 1e-3;
        let refresh = (p.idd5_ma - p.idd3n_ma) * p.vdd_v * p.t_rfc.as_ns_f64() * 1e-3;
        PowerModel {
            e_act_pre_nj: act_pre,
            e_col_read_nj: col_rd,
            e_col_write_nj: col_wr,
            e_refresh_nj: refresh,
        }
    }

    /// The paper's calibrated weights: one ACT/PRE pair costs four column
    /// accesses.
    pub fn paper_ratio() -> PowerModel {
        PowerModel {
            e_act_pre_nj: 4.0,
            e_col_read_nj: 1.0,
            e_col_write_nj: 1.0,
            // One all-bank refresh costs roughly two ACT/PRE pairs of a
            // single bank at the calibrated scale (4 banks refreshed,
            // amortized window).
            e_refresh_nj: 8.0,
        }
    }

    /// Energy of `n` activate/precharge pairs.
    pub fn activation_energy(&self, n: u64) -> f64 {
        n as f64 * self.e_act_pre_nj
    }

    /// Energy of the column bursts: `reads` read bursts plus `writes`
    /// write bursts.
    pub fn burst_energy(&self, reads: u64, writes: u64) -> f64 {
        reads as f64 * self.e_col_read_nj + writes as f64 * self.e_col_write_nj
    }

    /// Energy of `n` all-bank refreshes.
    pub fn refresh_energy(&self, n: u64) -> f64 {
        n as f64 * self.e_refresh_nj
    }

    /// Total dynamic energy for a set of operation counts, in the
    /// model's energy units (nJ for [`from_params`](Self::from_params)).
    pub fn dynamic_energy(&self, ops: &DramOpCounts) -> f64 {
        ops.act_pre as f64 * self.e_act_pre_nj
            + ops.col_reads as f64 * self.e_col_read_nj
            + ops.col_writes as f64 * self.e_col_write_nj
            + ops.refreshes as f64 * self.e_refresh_nj
    }

    /// Dynamic energy of `ops` normalized to `baseline` (the paper's
    /// Figure 13 metric). Returns 1.0 when the baseline is empty.
    pub fn normalized(&self, ops: &DramOpCounts, baseline: &DramOpCounts) -> f64 {
        let base = self.dynamic_energy(baseline);
        if base == 0.0 {
            1.0
        } else {
            self.dynamic_energy(ops) / base
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::paper_ratio()
    }
}

/// Power drawn by one Advanced Memory Buffer, split into the buffer
/// core (SerDes, pass-through logic, prefetch cache) and the
/// point-to-point link I/O. Zero for a conventional DDR2 channel,
/// which has no buffer chip.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AmbPowerParams {
    /// AMB core power per DIMM (mW).
    pub core_mw: f64,
    /// Southbound + northbound link I/O power per DIMM (mW).
    pub link_mw: f64,
}

impl AmbPowerParams {
    /// Representative first-generation AMB numbers: ≈4 W per DIMM
    /// (1.5 W core + 2.5 W links), the figure that made FB-DIMM power a
    /// headline concern and motivates the paper's §6 savings.
    pub fn fbdimm_typical() -> AmbPowerParams {
        AmbPowerParams {
            core_mw: 1_500.0,
            link_mw: 2_500.0,
        }
    }

    /// No buffer chip (DDR2 shared-bus channel).
    pub const fn none() -> AmbPowerParams {
        AmbPowerParams {
            core_mw: 0.0,
            link_mw: 0.0,
        }
    }

    /// Total AMB power per DIMM (mW).
    pub fn total_mw(&self) -> f64 {
        self.core_mw + self.link_mw
    }
}

/// One rank's activity over a run: what it did (operation counts) and
/// when it was in which power mode (residency). The input record of
/// [`EnergyModel::report`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RankActivity {
    /// Logical channel index.
    pub channel: u32,
    /// DIMM index within the channel.
    pub dimm: u32,
    /// Rank index within the DIMM.
    pub rank: u32,
    /// DRAM operations the rank executed.
    pub ops: DramOpCounts,
    /// Per-mode time split over the run.
    pub residency: ModeResidency,
}

/// Energy attributed to one rank, alongside the activity it came from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankEnergy {
    /// Logical channel index.
    pub channel: u32,
    /// DIMM index within the channel.
    pub dimm: u32,
    /// Rank index within the DIMM.
    pub rank: u32,
    /// DRAM operations the rank executed.
    pub ops: DramOpCounts,
    /// Per-mode time split over the run.
    pub residency: ModeResidency,
    /// Dynamic energy (activation + burst + refresh), nJ.
    pub dynamic_nj: f64,
    /// Per-mode background energy, nJ.
    pub background_nj: f64,
}

/// Total energy of one run, broken down by component and by rank.
///
/// All component fields are in nanojoules and sum to
/// [`total_nj`](Self::total_nj). Produced by [`EnergyModel::report`];
/// flows through `RunResult`, the `--stats-json` document and the
/// telemetry registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Name of the IDD current set that produced the report (e.g.
    /// `"micron_ddr2_667"`), so a mismatched substrate/current-set
    /// pairing is visible in the stats instead of silent. Empty on a
    /// default-constructed report.
    pub current_set: String,
    /// Run length the report covers.
    pub elapsed: Dur,
    /// Activate/precharge energy of all ranks, nJ.
    pub activation_nj: f64,
    /// Column-burst (read + write) energy of all ranks, nJ.
    pub burst_nj: f64,
    /// Refresh energy of all ranks, nJ.
    pub refresh_nj: f64,
    /// Per-mode background (standby) energy of all ranks, nJ.
    pub background_nj: f64,
    /// AMB core + link energy of all buffered DIMMs, nJ (zero on DDR2).
    pub amb_nj: f64,
    /// Per-rank breakdown; the component totals above are its sums.
    pub ranks: Vec<RankEnergy>,
}

impl EnergyReport {
    /// Total energy (all components), nJ.
    pub fn total_nj(&self) -> f64 {
        self.activation_nj + self.burst_nj + self.refresh_nj + self.background_nj + self.amb_nj
    }

    /// Dynamic DRAM energy (activation + burst + refresh), nJ.
    pub fn dynamic_nj(&self) -> f64 {
        self.activation_nj + self.burst_nj + self.refresh_nj
    }

    /// DRAM-device energy (dynamic + background, excluding AMBs), nJ.
    pub fn dram_nj(&self) -> f64 {
        self.dynamic_nj() + self.background_nj
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.total_nj() * 1e-9
    }

    /// Average total power over the run, in watts (0 for an empty run).
    pub fn avg_power_w(&self) -> f64 {
        let secs = self.elapsed.as_ns_f64() * 1e-9;
        if secs > 0.0 {
            self.total_j() / secs
        } else {
            0.0
        }
    }

    /// Background share of the DRAM-device energy (0 when no DRAM
    /// energy was spent). At low utilization this dominates — the §6
    /// observation that motivates power-aware scheduling.
    pub fn background_fraction(&self) -> f64 {
        let dram = self.dram_nj();
        if dram > 0.0 {
            self.background_nj / dram
        } else {
            0.0
        }
    }
}

/// The full energy model: per-operation dynamic energies, per-mode
/// background powers and AMB power, combined into an [`EnergyReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Per-operation dynamic energies (nJ).
    pub dynamic: PowerModel,
    /// Per-mode background powers of one rank (mW).
    pub background: StandbyPower,
    /// AMB power per buffered DIMM (mW).
    pub amb: AmbPowerParams,
    /// Name of the IDD current set behind `dynamic`/`background`,
    /// propagated into every [`EnergyReport`] this model produces.
    pub current_set: &'static str,
}

impl EnergyModel {
    /// Micron DDR2-667 datasheet model. `buffered` selects whether the
    /// DIMMs carry AMBs (FB-DIMM) or not (conventional DDR2).
    pub fn micron_ddr2_667(buffered: bool) -> EnergyModel {
        EnergyModel {
            dynamic: PowerModel::from_params(&DramPowerParams::micron_ddr2_667()),
            background: StandbyPower::micron_ddr2_667(),
            amb: if buffered {
                AmbPowerParams::fbdimm_typical()
            } else {
                AmbPowerParams::none()
            },
            current_set: "micron_ddr2_667",
        }
    }

    /// Micron DDR3-1333 datasheet model, for the `fbdimm_ddr3`
    /// substrate. `buffered` selects whether the DIMMs carry AMBs
    /// (FB-DIMM) or not.
    pub fn micron_ddr3_1333(buffered: bool) -> EnergyModel {
        EnergyModel {
            dynamic: PowerModel::from_params(&DramPowerParams::micron_ddr3_1333()),
            background: StandbyPower::micron_ddr3_1333(),
            amb: if buffered {
                AmbPowerParams::fbdimm_typical()
            } else {
                AmbPowerParams::none()
            },
            current_set: "micron_ddr3_1333",
        }
    }

    /// Rolls per-rank activity up into the run's [`EnergyReport`].
    /// `amb_dimms` is the number of buffered DIMMs in the subsystem
    /// (their core + link power burns for the whole run).
    pub fn report(&self, ranks: &[RankActivity], elapsed: Dur, amb_dimms: u32) -> EnergyReport {
        let mut out = EnergyReport {
            current_set: self.current_set.to_string(),
            elapsed,
            amb_nj: self.amb.total_mw() * elapsed.as_ns_f64() * f64::from(amb_dimms) / 1_000.0,
            ranks: Vec::with_capacity(ranks.len()),
            ..EnergyReport::default()
        };
        for r in ranks {
            let activation = self.dynamic.activation_energy(r.ops.act_pre);
            let burst = self.dynamic.burst_energy(r.ops.col_reads, r.ops.col_writes);
            let refresh = self.dynamic.refresh_energy(r.ops.refreshes);
            let background = self.background.residency_energy(&r.residency);
            out.activation_nj += activation;
            out.burst_nj += burst;
            out.refresh_nj += refresh;
            out.background_nj += background;
            out.ranks.push(RankEnergy {
                channel: r.channel,
                dimm: r.dimm,
                rank: r.rank,
                ops: r.ops,
                residency: r.residency,
                dynamic_nj: activation + burst + refresh,
                background_nj: background,
            });
        }
        out
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::micron_ddr2_667(true)
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use fbd_types::time::Time;
    use proptest::prelude::*;

    proptest! {
        /// Total energy is monotone in the run length: extending a run
        /// never reduces any component (background keeps accruing in
        /// some mode, the dynamic ops are fixed, AMB power keeps
        /// burning).
        #[test]
        fn total_energy_is_monotone_in_run_length(
            windows in proptest::collection::vec((0u64..5_000, 1u64..200), 0..24),
            len_a in 1u64..10_000,
            len_b in 1u64..10_000,
        ) {
            let (short, long) = if len_a <= len_b {
                (len_a, len_b)
            } else {
                (len_b, len_a)
            };
            let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
            for (start, len) in windows {
                tracker.note_busy(Time::from_ns(start), Time::from_ns(start + len));
            }
            let model = EnergyModel::micron_ddr2_667(true);
            let ops = DramOpCounts {
                act_pre: 10,
                col_reads: 12,
                col_writes: 4,
                refreshes: 1,
            };
            let rank_at = |end: u64| RankActivity {
                channel: 0,
                dimm: 0,
                rank: 0,
                ops,
                residency: tracker.residency(Time::from_ns(end)),
            };
            let r_short = model.report(&[rank_at(short)], Dur::from_ns(short), 4);
            let r_long = model.report(&[rank_at(long)], Dur::from_ns(long), 4);
            prop_assert!(r_long.total_nj() >= r_short.total_nj() - 1e-9);
            prop_assert!(r_long.background_nj >= r_short.background_nj - 1e-9);
            prop_assert!(r_long.amb_nj >= r_short.amb_nj - 1e-9);
            // Residency accounting stays exact at both lengths.
            prop_assert_eq!(
                tracker.residency(Time::from_ns(long)).total(),
                Dur::from_ns(long)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PowerModel {
        /// Ratio of ACT/PRE energy to (read) column energy.
        fn act_to_col_ratio(&self) -> f64 {
            self.e_act_pre_nj / self.e_col_read_nj
        }
    }

    #[test]
    fn micron_params_give_roughly_four_to_one() {
        let model = PowerModel::from_params(&DramPowerParams::micron_ddr2_667());
        let ratio = model.act_to_col_ratio();
        assert!((3.5..5.0).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn paper_ratio_is_exactly_four() {
        assert_eq!(PowerModel::paper_ratio().act_to_col_ratio(), 4.0);
    }

    #[test]
    fn dynamic_energy_weighs_ops() {
        let m = PowerModel::paper_ratio();
        let ops = DramOpCounts {
            act_pre: 10,
            col_reads: 8,
            col_writes: 2,
            refreshes: 0,
        };
        assert_eq!(m.dynamic_energy(&ops), 50.0);
    }

    #[test]
    fn normalized_against_baseline() {
        let m = PowerModel::paper_ratio();
        let base = DramOpCounts {
            act_pre: 100,
            col_reads: 100,
            col_writes: 0,
            refreshes: 0,
        };
        let same = m.normalized(&base, &base);
        assert!((same - 1.0).abs() < 1e-12);
        let empty = DramOpCounts::default();
        assert_eq!(m.normalized(&base, &empty), 1.0);
    }

    #[test]
    fn paper_section55_four_core_example_saves_power() {
        // §5.5: for four-core workloads with 4-line interleaving the
        // ACT/PRE count drops ~33% while column accesses rise ~41%.
        let m = PowerModel::paper_ratio();
        let base = DramOpCounts {
            act_pre: 1000,
            col_reads: 1000,
            col_writes: 0,
            refreshes: 0,
        };
        let ap = DramOpCounts {
            act_pre: 667,
            col_reads: 1412,
            col_writes: 0,
            refreshes: 0,
        };
        let norm = m.normalized(&ap, &base);
        assert!(norm < 0.90, "expected >10% saving, got {norm:.3}");
    }

    #[test]
    fn excessive_column_overhead_can_cost_power() {
        // §5.5 extreme case: 8-line interleaving on 8 cores *increases*
        // power when extra columns outweigh saved activations.
        let m = PowerModel::paper_ratio();
        let base = DramOpCounts {
            act_pre: 1000,
            col_reads: 1000,
            col_writes: 0,
            refreshes: 0,
        };
        let ap = DramOpCounts {
            act_pre: 900,
            col_reads: 2000,
            col_writes: 0,
            refreshes: 0,
        };
        assert!(m.normalized(&ap, &base) > 1.0);
    }

    #[test]
    fn static_energy_accounts_residency_and_powerdown() {
        use fbd_types::time::Dur;
        let sp = StandbyPower::micron_ddr2_667();
        // Fully active for 1 µs: 63 mW × 1000 ns = 63 nJ.
        let e = sp.static_energy(Dur::from_ns(1_000), Dur::from_ns(1_000), false);
        assert!((e - 63.0).abs() < 1e-9);
        // Half active, no power-down: 31.5 + 27 = 58.5 nJ.
        let e = sp.static_energy(Dur::from_ns(500), Dur::from_ns(1_000), false);
        assert!((e - 58.5).abs() < 1e-9);
        // Half active with power-down idle: 31.5 + 6.3 = 37.8 nJ.
        let e = sp.static_energy(Dur::from_ns(500), Dur::from_ns(1_000), true);
        assert!((e - 37.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn static_energy_rejects_bad_residency() {
        use fbd_types::time::Dur;
        let sp = StandbyPower::micron_ddr2_667();
        let _ = sp.static_energy(Dur::from_ns(2), Dur::from_ns(1), false);
    }

    #[test]
    fn micron_per_op_energies_match_hand_computation() {
        // E = (IDD − IDD3N) × VDD × window. With the datasheet values:
        //   ACT/PRE: (90 − 35) mA × 1.8 V × 54 ns = 5.346 nJ
        //   RD burst: (145 − 35) mA × 1.8 V × 6 ns = 1.188 nJ
        //   WR burst: (155 − 35) mA × 1.8 V × 6 ns = 1.296 nJ
        //   Refresh: (235 − 35) mA × 1.8 V × 128 ns = 46.08 nJ
        let m = PowerModel::from_params(&DramPowerParams::micron_ddr2_667());
        assert!((m.activation_energy(1) - 5.346).abs() < 1e-9);
        assert!((m.burst_energy(1, 0) - 1.188).abs() < 1e-9);
        assert!((m.burst_energy(0, 1) - 1.296).abs() < 1e-9);
        assert!((m.refresh_energy(1) - 46.08).abs() < 1e-9);
        // Component methods agree with the lump-sum path.
        let ops = DramOpCounts {
            act_pre: 7,
            col_reads: 11,
            col_writes: 3,
            refreshes: 2,
        };
        let parts = m.activation_energy(ops.act_pre)
            + m.burst_energy(ops.col_reads, ops.col_writes)
            + m.refresh_energy(ops.refreshes);
        assert!((parts - m.dynamic_energy(&ops)).abs() < 1e-9);
    }

    #[test]
    fn residency_energy_weighs_each_mode() {
        use fbd_types::time::Dur;
        let sp = StandbyPower::micron_ddr2_667();
        let r = ModeResidency {
            active: Dur::from_ns(1_000),
            standby: Dur::from_ns(500),
            powerdown: Dur::from_ns(2_000),
        };
        // 63 mW × 1000 ns + 54 mW × 500 ns + 12.6 mW × 2000 ns
        //   = 63 000 + 27 000 + 25 200 pJ = 115.2 nJ.
        assert!((sp.residency_energy(&r) - 115.2).abs() < 1e-9);
        // Matches static_energy when the idle split is all-standby.
        let all_standby = ModeResidency {
            active: Dur::from_ns(400),
            standby: Dur::from_ns(600),
            powerdown: Dur::ZERO,
        };
        let via_static = sp.static_energy(Dur::from_ns(400), Dur::from_ns(1_000), false);
        assert!((sp.residency_energy(&all_standby) - via_static).abs() < 1e-9);
    }

    #[test]
    fn report_components_sum_to_total() {
        use fbd_types::time::Dur;
        let model = EnergyModel::micron_ddr2_667(true);
        let rank = |ch: u32, d: u32| RankActivity {
            channel: ch,
            dimm: d,
            rank: 0,
            ops: DramOpCounts {
                act_pre: 100,
                col_reads: 150,
                col_writes: 50,
                refreshes: 4,
            },
            residency: ModeResidency {
                active: Dur::from_ns(4_000),
                standby: Dur::from_ns(3_000),
                powerdown: Dur::from_ns(3_000),
            },
        };
        let ranks = [rank(0, 0), rank(0, 1), rank(1, 0)];
        let report = model.report(&ranks, Dur::from_ns(10_000), 8);
        let sum = report.activation_nj
            + report.burst_nj
            + report.refresh_nj
            + report.background_nj
            + report.amb_nj;
        assert!((sum - report.total_nj()).abs() < 1e-9);
        // Per-rank energies roll up to the component totals.
        let dynamic: f64 = report.ranks.iter().map(|r| r.dynamic_nj).sum();
        let background: f64 = report.ranks.iter().map(|r| r.background_nj).sum();
        assert!((dynamic - report.dynamic_nj()).abs() < 1e-9);
        assert!((background - report.background_nj).abs() < 1e-9);
        // AMB power: 4 W × 8 DIMMs × 10 µs = 320 µJ = 320 000 nJ.
        assert!((report.amb_nj - 320_000.0).abs() < 1e-6);
        // Average power is total energy over the 10 µs run.
        let expect_w = report.total_j() / 10e-6;
        assert!((report.avg_power_w() - expect_w).abs() < 1e-9);
    }

    #[test]
    fn ddr3_1333_current_set_is_distinct_and_named() {
        use fbd_types::time::Dur;
        let ddr2 = EnergyModel::micron_ddr2_667(true);
        let ddr3 = EnergyModel::micron_ddr3_1333(true);
        assert_eq!(ddr2.current_set, "micron_ddr2_667");
        assert_eq!(ddr3.current_set, "micron_ddr3_1333");
        assert_ne!(
            ddr3.dynamic, ddr2.dynamic,
            "DDR3 must not reuse DDR2 weights"
        );
        assert_ne!(ddr3.background, ddr2.background);
        // The report names the current set that produced it.
        let ranks = [RankActivity {
            channel: 0,
            dimm: 0,
            rank: 0,
            ops: DramOpCounts {
                act_pre: 10,
                col_reads: 20,
                col_writes: 10,
                refreshes: 1,
            },
            residency: ModeResidency {
                active: Dur::from_ns(500),
                standby: Dur::from_ns(300),
                powerdown: Dur::from_ns(200),
            },
        }];
        let report = ddr3.report(&ranks, Dur::from_ns(1_000), 1);
        assert_eq!(report.current_set, "micron_ddr3_1333");
        // Components still sum to the total under the new set.
        let sum = report.activation_nj
            + report.burst_nj
            + report.refresh_nj
            + report.background_nj
            + report.amb_nj;
        assert!((sum - report.total_nj()).abs() < 1e-9);
        // Same activity costs different dynamic energy under each set
        // (shorter tRC/burst windows at 1.5 V vs 1.8 V).
        let ddr2_report = ddr2.report(&ranks, Dur::from_ns(1_000), 1);
        assert_eq!(ddr2_report.current_set, "micron_ddr2_667");
        assert_ne!(report.dynamic_nj(), ddr2_report.dynamic_nj());
    }

    #[test]
    fn ddr2_model_has_no_amb_energy() {
        use fbd_types::time::Dur;
        let model = EnergyModel::micron_ddr2_667(false);
        let report = model.report(&[], Dur::from_ns(1_000), 0);
        assert_eq!(report.amb_nj, 0.0);
        assert_eq!(report.total_nj(), 0.0);
        assert_eq!(report.avg_power_w(), 0.0);
        assert_eq!(report.background_fraction(), 0.0);
    }

    #[test]
    fn empty_run_reports_zero_power() {
        let model = EnergyModel::micron_ddr2_667(true);
        let report = model.report(&[], Dur::ZERO, 8);
        assert_eq!(report.total_nj(), 0.0);
        assert_eq!(report.avg_power_w(), 0.0);
    }

    #[test]
    fn background_dominates_an_idle_rank() {
        use fbd_types::time::Dur;
        let model = EnergyModel::micron_ddr2_667(true);
        // One lone read in a 100 µs run: nearly all DRAM energy is
        // background (the §6 low-utilization observation).
        let elapsed = Dur::from_ns(100_000);
        let ranks = [RankActivity {
            channel: 0,
            dimm: 0,
            rank: 0,
            ops: DramOpCounts {
                act_pre: 1,
                col_reads: 1,
                col_writes: 0,
                refreshes: 0,
            },
            residency: ModeResidency {
                active: Dur::from_ns(60),
                standby: Dur::from_ns(30),
                powerdown: Dur::from_ns(99_910),
            },
        }];
        let report = model.report(&ranks, elapsed, 1);
        assert!(report.background_fraction() > 0.9);
    }

    #[test]
    fn write_energy_slightly_above_read() {
        let m = PowerModel::from_params(&DramPowerParams::micron_ddr2_667());
        let rd_only = DramOpCounts {
            act_pre: 0,
            col_reads: 1,
            col_writes: 0,
            refreshes: 0,
        };
        let wr_only = DramOpCounts {
            act_pre: 0,
            col_reads: 0,
            col_writes: 1,
            refreshes: 0,
        };
        assert!(m.dynamic_energy(&wr_only) > m.dynamic_energy(&rd_only));
    }
}
