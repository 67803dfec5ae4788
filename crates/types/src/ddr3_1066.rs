//! The DDR3-1066 substrate — the worked example of adding a substrate
//! in one file (DESIGN.md §14).
//!
//! Everything the new substrate needs lives here: the timing table
//! (clock-aligned to the 1.875 ns DDR3-1066 device clock) and the
//! [`Substrate`] preset composing it onto the FB-DIMM channel. The
//! only line outside this file is the `register` call in
//! [`crate::substrate`].

use crate::config::{DramTimings, MemoryConfig};
use crate::substrate::Substrate;
use crate::time::{DataRate, Dur};

impl DramTimings {
    /// Representative DDR3-1066 (CL7) timings. Every value is a
    /// multiple of the 1.875 ns clock so commands land on clock edges.
    pub const fn ddr3_1066() -> DramTimings {
        DramTimings {
            t_rp: Dur::from_ps(13_125),  // 7 clocks
            t_rcd: Dur::from_ps(13_125), // 7 clocks
            t_cl: Dur::from_ps(13_125),  // CL7
            t_rc: Dur::from_ps(50_625),  // 27 clocks = tRAS + tRP
            t_rrd: Dur::from_ps(7_500),  // 4 clocks
            t_rpd: Dur::from_ps(7_500),  // tRTP, 4 clocks
            t_wtr: Dur::from_ps(7_500),  // 4 clocks
            t_ras: Dur::from_ps(37_500), // 20 clocks
            t_wl: Dur::from_ps(11_250),  // CWL6
            t_wpd: Dur::from_ps(33_750), // WL + burst + tWR, 18 clocks
            t_faw: Dur::from_ps(37_500), // 20 clocks (2 KB page parts)
        }
    }
}

/// FB-DIMM carrying DDR3-1066 devices: the paper's default geometry at
/// the intermediate DDR3 speed grade.
#[derive(Debug)]
pub struct Ddr3_1066Substrate;

impl Substrate for Ddr3_1066Substrate {
    fn name(&self) -> &'static str {
        "ddr3-1066"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM carrying DDR3-1066 devices"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr3-1066"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig {
            data_rate: DataRate::MTS1066,
            timings: DramTimings::ddr3_1066(),
            ..MemoryConfig::fbdimm_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_1066_timings_validate_and_align_to_the_clock() {
        let t = DramTimings::ddr3_1066();
        t.validate().expect("table must be self-consistent");
        let clk = DataRate::MTS1066.clock_period().as_ps();
        for (name, d) in [
            ("t_rp", t.t_rp),
            ("t_rcd", t.t_rcd),
            ("t_cl", t.t_cl),
            ("t_rc", t.t_rc),
            ("t_rrd", t.t_rrd),
            ("t_rpd", t.t_rpd),
            ("t_wtr", t.t_wtr),
            ("t_ras", t.t_ras),
            ("t_wl", t.t_wl),
            ("t_wpd", t.t_wpd),
            ("t_faw", t.t_faw),
        ] {
            assert_eq!(d.as_ps() % clk, 0, "{name} is not clock-aligned");
        }
        // Strictly faster than DDR2-667 on the row cycle, slower than
        // DDR3-1333 (the speed-grade ordering the sweep relies on).
        assert!(t.t_rc < DramTimings::ddr2_table2().t_rc);
        assert!(t.t_rc > DramTimings::ddr3_1333().t_rc);
    }

    #[test]
    fn substrate_composes_the_1066_table_onto_fbdimm() {
        let cfg = Ddr3_1066Substrate.config();
        cfg.validate().expect("preset must validate");
        assert!(cfg.tech.is_fbdimm());
        assert_eq!(cfg.data_rate, DataRate::MTS1066);
        assert_eq!(cfg.timings, DramTimings::ddr3_1066());
    }
}
