//! The name-keyed registry of the controller's scheduling policies.
//!
//! The registry publishes `&'static` spec objects keyed by a stable
//! name, so a policy can be selected from a string (`--scheduler fcfs`)
//! without the core knowing the concrete types. Adding a policy means
//! one new file implementing [`SchedulerSpec`] plus one `register` call
//! here — no enum edits, no controller edits. The address mapper,
//! refresh manager and scrub policy have no alternatives to choose
//! between: the memory system builds them straight from its config.

use std::sync::OnceLock;

use fbd_types::Registry;

use crate::fcfs::FcfsSpec;
use crate::sched::{HitFirstSpec, SchedulerSpec};

/// All registered scheduling policies, in registration order
/// (`hit-first` first — it is the paper default).
pub fn schedulers() -> &'static Registry<dyn SchedulerSpec> {
    static REG: OnceLock<Registry<dyn SchedulerSpec>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut r: Registry<dyn SchedulerSpec> = Registry::new("scheduler");
        r.register(HitFirstSpec.name(), &HitFirstSpec as &dyn SchedulerSpec);
        r.register(FcfsSpec.name(), &FcfsSpec);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::MemoryConfig;

    #[test]
    fn default_policies_are_registered_first() {
        assert_eq!(schedulers().names().next(), Some("hit-first"));
    }

    #[test]
    fn every_entry_builds_for_the_paper_default_config() {
        let cfg = MemoryConfig::fbdimm_with_prefetch();
        for (_, spec) in schedulers().iter() {
            let _ = spec.build(&cfg);
        }
    }

    #[test]
    fn the_extension_scheduler_is_reachable_by_name_only() {
        let spec = schedulers().get("fcfs").expect("fcfs must be registered");
        assert_eq!(spec.name(), "fcfs");
        assert!(schedulers().get("round-robin").is_none());
        assert_eq!(schedulers().available(), "hit-first|fcfs");
    }
}
