//! Composable substrates: named system presets behind a registry
//! (DESIGN.md §14).
//!
//! A [`Substrate`] is a complete memory-subsystem preset (geometry,
//! technology, DRAM timing table and data rate, prefetcher) selectable
//! by its stable string name. The four paper systems (`ddr2`, `fbd`,
//! `fbd-ap`, `fbd-apfl`), the DDR3-1333 extension (`fbd-ddr3`) and the
//! DDR3-1066 extension (`ddr3-1066`, defined entirely in
//! [`ddr3_1066`](crate::ddr3_1066)) are all registry entries; adding a
//! new substrate is one new file plus one `register` line below — no
//! edits to the simulator core.
//!
//! # Examples
//!
//! ```
//! use fbd_types::config::DramTimings;
//! use fbd_types::substrate::substrates;
//!
//! let fbd = substrates().get("fbd-ap").unwrap();
//! assert!(fbd.config().amb.is_enabled());
//! assert_eq!(fbd.timing_spec(), "ddr2-667");
//! assert_eq!(fbd.config().timings, DramTimings::ddr2_table2());
//! ```

use std::sync::OnceLock;

use crate::config::{AmbPrefetchMode, MemoryConfig};
use crate::ddr3_1066::Ddr3_1066Substrate;
use crate::registry::Registry;

/// A complete memory-subsystem preset: a [`MemoryConfig`] (which embeds
/// its DRAM timing table and data rate) under a stable name.
pub trait Substrate: Send + Sync + std::fmt::Debug {
    /// Stable registry/CLI name (e.g. `fbd-ap`).
    fn name(&self) -> &'static str;
    /// One-line human description for listings.
    fn description(&self) -> &'static str;
    /// Name of the DRAM timing table the preset's configuration embeds
    /// (e.g. `ddr2-667`), as substrate listings print it.
    fn timing_spec(&self) -> &'static str;
    /// The full memory configuration.
    fn config(&self) -> MemoryConfig;
}

/// The paper's conventional DDR2 shared-bus baseline.
#[derive(Debug)]
pub struct Ddr2Baseline;

impl Substrate for Ddr2Baseline {
    fn name(&self) -> &'static str {
        "ddr2"
    }
    fn description(&self) -> &'static str {
        "conventional DDR2-667 shared-bus baseline"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::ddr2_default()
    }
}

/// Plain FB-DIMM (AMB prefetching off).
#[derive(Debug)]
pub struct FbdBaseline;

impl Substrate for FbdBaseline {
    fn name(&self) -> &'static str {
        "fbd"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM/DDR2-667, AMB prefetching off"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::fbdimm_default()
    }
}

/// FB-DIMM with the paper's default AMB prefetcher (K=4).
#[derive(Debug)]
pub struct FbdAmbPrefetch;

impl Substrate for FbdAmbPrefetch {
    fn name(&self) -> &'static str {
        "fbd-ap"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM/DDR2-667 with AMB prefetching (K=4)"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::fbdimm_with_prefetch()
    }
}

/// FB-DIMM prefetching under the full-latency ablation (AMB hits pay
/// the full DRAM latency; isolates the bandwidth effect).
#[derive(Debug)]
pub struct FbdAmbPrefetchFullLatency;

impl Substrate for FbdAmbPrefetchFullLatency {
    fn name(&self) -> &'static str {
        "fbd-apfl"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM AMB prefetching, full-latency ablation"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr2-667"
    }
    fn config(&self) -> MemoryConfig {
        let mut m = MemoryConfig::fbdimm_with_prefetch();
        m.amb.mode = AmbPrefetchMode::FullLatency;
        m
    }
}

/// FB-DIMM carrying DDR3-1333 devices.
#[derive(Debug)]
pub struct FbdDdr3;

impl Substrate for FbdDdr3 {
    fn name(&self) -> &'static str {
        "fbd-ddr3"
    }
    fn description(&self) -> &'static str {
        "FB-DIMM carrying DDR3-1333 devices"
    }
    fn timing_spec(&self) -> &'static str {
        "ddr3-1333"
    }
    fn config(&self) -> MemoryConfig {
        MemoryConfig::fbdimm_ddr3()
    }
}

/// The substrate registry: every named preset a run can be composed
/// from. Registration order is the CLI listing order.
pub fn substrates() -> &'static Registry<dyn Substrate> {
    static SUBSTRATES: OnceLock<Registry<dyn Substrate>> = OnceLock::new();
    SUBSTRATES.get_or_init(|| {
        let mut r = Registry::new("substrate");
        r.register(Ddr2Baseline.name(), &Ddr2Baseline as &dyn Substrate);
        r.register(FbdBaseline.name(), &FbdBaseline);
        r.register(FbdAmbPrefetch.name(), &FbdAmbPrefetch);
        r.register(FbdAmbPrefetchFullLatency.name(), &FbdAmbPrefetchFullLatency);
        r.register(FbdDdr3.name(), &FbdDdr3);
        r.register(Ddr3_1066Substrate.name(), &Ddr3_1066Substrate);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_substrate_validates() {
        for (name, sub) in substrates().iter() {
            assert_eq!(name, sub.name());
            sub.config()
                .validate()
                .unwrap_or_else(|e| panic!("substrate `{name}` invalid: {e}"));
            assert!(!sub.timing_spec().is_empty());
            assert!(!sub.description().is_empty());
        }
    }

    #[test]
    fn registry_matches_the_config_constructors() {
        // The four paper systems must resolve to exactly the configs the
        // `MemoryConfig` constructors build (FBD-APFL: the prefetching
        // preset in full-latency mode).
        let mut apfl = MemoryConfig::fbdimm_with_prefetch();
        apfl.amb.mode = AmbPrefetchMode::FullLatency;
        for (name, expected) in [
            ("ddr2", MemoryConfig::ddr2_default()),
            ("fbd", MemoryConfig::fbdimm_default()),
            ("fbd-ap", MemoryConfig::fbdimm_with_prefetch()),
            ("fbd-apfl", apfl),
        ] {
            let composed = substrates().get(name).unwrap().config();
            assert_eq!(expected, composed, "preset `{name}` diverged");
        }
    }

    #[test]
    fn extension_substrates_are_registered() {
        assert!(substrates().get("fbd-ddr3").is_some());
        assert!(substrates().get("ddr3-1066").is_some());
        assert!(substrates().get("ddr5").is_none());
    }
}
