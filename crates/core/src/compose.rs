//! The composition of one memory system: which registered substrate
//! and scheduler it is built from.
//!
//! A [`Composition`] holds the names a [`MemoryConfig`] cannot carry.
//! [`MemorySystem::compose`](crate::MemorySystem::compose) resolves
//! the scheduler against its registry and builds the system;
//! [`Composition::from_config`] recovers the substrate label from a
//! plain config. The scheduler is not part of a config: it is always
//! chosen by name, and defaults to the registry's `hit-first`. The
//! address mapper, refresh manager and scrub policy have no names to
//! choose: they follow the config.

use fbd_types::config::MemoryConfig;
use fbd_types::substrate::substrates;

/// Registry names selecting the pluggable parts of a memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Composition {
    /// Substrate (timing + channel preset) name, or `custom` when the
    /// config matches no registered preset.
    pub substrate: &'static str,
    /// Scheduling policy name (`hit-first`, `fcfs`, …).
    pub scheduler: &'static str,
}

impl Composition {
    /// Recovers the composition a plain config describes: the substrate
    /// by preset equality (`custom` if none matches) and the default
    /// `hit-first` scheduler.
    pub fn from_config(cfg: &MemoryConfig) -> Composition {
        let substrate = substrates()
            .iter()
            .find(|(_, s)| s.config() == *cfg)
            .map_or("custom", |(name, _)| name);
        Composition {
            substrate,
            scheduler: "hit-first",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_round_trip_to_their_registry_names() {
        for name in ["ddr2", "fbd", "fbd-ap", "fbd-apfl", "fbd-ddr3"] {
            let cfg = substrates().get(name).expect("registered").config();
            let c = Composition::from_config(&cfg);
            assert_eq!(c.substrate, name);
            assert_eq!(c.scheduler, "hit-first");
            assert!(!cfg.refresh.enabled, "the paper runs without refresh");
        }
    }

    #[test]
    fn unrecognised_configs_are_custom() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.queue_capacity += 1;
        let c = Composition::from_config(&cfg);
        assert_eq!(c.substrate, "custom");
    }

    #[test]
    fn refresh_switch_is_reflected() {
        // Refresh is a config switch, not a composition name: turning it
        // on leaves every preset, so the label reads `custom`.
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();
        let c = Composition::from_config(&cfg);
        assert_eq!(c.substrate, "custom");
    }
}
