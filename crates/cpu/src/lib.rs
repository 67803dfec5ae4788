//! The processor-side timing model: out-of-order cores, the shared L2
//! cache, MSHR semantics and software prefetch handling.
//!
//! The paper drives its memory subsystem with M5 running SPEC2000 Alpha
//! binaries; this crate is the substitution described in DESIGN.md §4 —
//! a first-order OoO commit model (ROB-window stall-on-use with
//! memory-level parallelism) fed by deterministic synthetic traces from
//! `fbd-workloads`.
//!
//! # Examples
//!
//! Run a tiny strided workload through the complex and watch a miss
//! stream form:
//!
//! ```
//! use fbd_cpu::{CpuComplex, OpKind, TraceOp, TraceSource};
//! use fbd_types::address::LineAddr;
//! use fbd_types::config::CpuConfig;
//! use fbd_types::time::{Dur, Time};
//!
//! /// Eight loads 100 lines apart, ten instructions apart.
//! struct Strided(u64);
//!
//! impl TraceSource for Strided {
//!     fn next_op(&mut self) -> Option<TraceOp> {
//!         (self.0 < 8).then(|| {
//!             self.0 += 1;
//!             TraceOp { gap: 10, kind: OpKind::Load, line: LineAddr::new(self.0 * 100) }
//!         })
//!     }
//!     fn time_per_instr(&self) -> Dur {
//!         Dur::from_ps(125)
//!     }
//!     fn name(&self) -> &str {
//!         "strided"
//!     }
//! }
//!
//! let trace: Box<dyn TraceSource> = Box::new(Strided(0));
//! let mut cpx = CpuComplex::new(&CpuConfig::paper_default(1), vec![trace], 1_000_000);
//! let mut requests = Vec::new();
//! cpx.advance_into(Time::ZERO, &mut requests);
//! assert_eq!(requests.len(), 8); // all 8 distant lines miss the L2
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod complex;
pub mod core;
pub mod hw_prefetch;
pub mod trace;

pub use cache::{L2Cache, L2Outcome};
pub use complex::{CpuComplex, WarmState};
pub use core::OooCore;
pub use hw_prefetch::StreamPrefetcher;
pub use trace::{OpKind, TraceOp, TraceSource};
