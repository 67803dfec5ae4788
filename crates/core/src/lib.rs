//! `fbd-core` — the full-system simulator for DRAM-level (AMB)
//! prefetching on Fully-Buffered DIMM.
//!
//! This crate wires the workspace's substrates into the systems the
//! paper evaluates:
//!
//! * **FBD** — FB-DIMM channels, no prefetching;
//! * **FBD-AP** — FB-DIMM with region-based AMB prefetching (the
//!   contribution);
//! * **FBD-APFL** — the full-latency ablation isolating the
//!   bandwidth-utilization gain;
//! * **DDR2** — the conventional shared-bus baseline.
//!
//! # Examples
//!
//! Run the `swim` workload on FB-DIMM with and without AMB prefetching,
//! and compare DRAM energy:
//!
//! ```
//! use fbd_core::RunSpec;
//!
//! let base = RunSpec::paper_default(1)
//!     .workload("1C-swim")
//!     .budget(20_000)
//!     .seed(7);
//! let fbd = base.clone().with_prefetch(false).run();
//! let with_ap = base.with_prefetch(true).run();
//!
//! assert!(with_ap.mem.amb_hits > 0, "streaming workload must hit the AMB cache");
//! assert!(with_ap.energy.total_nj() > 0.0);
//! assert!(fbd.energy.total_nj() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compose;
mod engine;
pub mod events;
pub mod experiment;
pub mod memsys;
pub mod parallel;
pub mod system;
pub mod trace_io;

pub use compose::Composition;
pub use experiment::{reference_ipcs, smt_speedup, ExperimentConfig, RunSpec, Warmup};
use fbd_telemetry::host::BuildInfo;
pub use memsys::{ChannelCounters, DecideResult, Issued, MemorySystem};
pub use parallel::parallel_map;
pub use system::{RunResult, System, MAX_SIM_TIME};
pub use trace_io::{drive, replay, MemoryTrace, ReplayResult, TraceRecord};

/// Build provenance baked in at compile time by `build.rs`: crate
/// version, git SHA (with `-dirty` suffix), rustc version and cargo
/// profile. Attached to every [`RunResult`]'s host report and printed
/// by `fbdsim version`; fields fall back to `"unknown"` when git is
/// unavailable at build time.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION").to_string(),
        git_sha: env!("FBD_GIT_SHA").to_string(),
        rustc: env!("FBD_RUSTC").to_string(),
        profile: env!("FBD_PROFILE").to_string(),
    }
}
