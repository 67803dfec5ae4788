//! Shared vocabulary types for the `fbdimm` simulator workspace.
//!
//! This crate defines the time base, addresses, memory transactions,
//! configuration structures (the paper's Tables 1 and 2) and statistics
//! primitives used by every other crate in the workspace, plus the
//! search shared by the sorted reservation histories. It has no
//! dependencies and no simulation logic of its own.
//!
//! # Examples
//!
//! Build the paper's default system configuration and inspect it:
//!
//! ```
//! use fbd_types::config::SystemConfig;
//!
//! let cfg = SystemConfig::paper_default(4);
//! cfg.validate()?;
//! assert_eq!(cfg.cpu.cores, 4);
//! assert_eq!(cfg.mem.lines_per_page(), 128);
//! # Ok::<(), fbd_types::error::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod config;
pub mod ddr3_1066;
pub mod error;
pub mod registry;
pub mod request;
pub mod search;
pub mod stats;
pub mod substrate;
pub mod time;

pub use address::{LineAddr, LineMap, LineSet, RegionId, CACHE_LINE_BYTES};
pub use config::{
    AmbPrefetchConfig, AmbPrefetchMode, Associativity, CpuConfig, DramTimings, FaultConfig,
    FaultMode, Interleaving, MemoryConfig, MemoryTech, PagePolicy, Replacement, SystemConfig,
};
pub use error::ConfigError;
pub use registry::Registry;
pub use request::{
    AccessKind, CoreId, MemRequest, MemResponse, ReqClass, RequestId, ServiceKind, Stage,
    StageBreakdown, StageStamper, REQ_CLASSES, STAGES,
};
pub use stats::{CoreStats, DramOpCounts, EpochSeries, LatencyHistogram, LatencyStat, MemStats};
pub use time::{DataRate, Dur, Time};
