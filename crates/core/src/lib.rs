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
//! let fbd = base.clone().substrate("fbd").run();
//! let with_ap = base.substrate("fbd-ap").run();
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

/// The prefetch information table (paper §3.2): "the memory controller
/// holds the tag part of the cache and the AMBs hold the data part".
/// Each channel of the [`MemorySystem`] keeps these tags as one
/// `PrefetchBuffer` per DIMM; the tests drive them through the memory
/// system's public API.
#[cfg(test)]
mod info_table {
    mod tests {
        use crate::MemorySystem;
        use fbd_amb::PrefetchBuffer;
        use fbd_ctrl::InterleavedMapper;
        use fbd_telemetry::{MetricValue, TelemetryConfig};
        use fbd_types::config::MemoryConfig;
        use fbd_types::request::{AccessKind, CoreId, MemRequest, RequestId};
        use fbd_types::{LineAddr, Time};

        /// Serves one request, arriving at `id` µs, on an idle channel.
        fn serve(mem: &mut MemorySystem, id: u64, kind: AccessKind, line: u64) {
            let at = Time::from_ns(1_000 * id);
            let req = MemRequest::new(RequestId(id), CoreId(0), kind, LineAddr::new(line), at);
            let (ch, ready) = mem.submit(req);
            assert_eq!(mem.decide(ch, ready).issued.len(), 1, "line {line} issues");
            mem.complete(ch);
        }

        /// The first line of `n` distinct prefetch regions on the given
        /// channel and DIMM.
        fn regions_on(cfg: &MemoryConfig, channel: u32, dimm: u32, n: usize) -> Vec<u64> {
            let mapper = InterleavedMapper::new(cfg);
            let k = u64::from(cfg.amb.region_lines);
            (0..)
                .map(|r| r * k)
                .filter(|&l| {
                    let m = mapper.map(LineAddr::new(l));
                    (m.channel, m.dimm) == (channel, dimm)
                })
                .take(n)
                .collect()
        }

        #[test]
        fn fill_reports_inserted_and_evicted() {
            let cfg = MemoryConfig::fbdimm_with_prefetch();
            let k = u64::from(cfg.amb.region_lines);
            let capacity = PrefetchBuffer::new(&cfg.amb).capacity() as u64;
            let mut mem = MemorySystem::new(&cfg);
            mem.enable_telemetry(&TelemetryConfig::default());
            // Enough group fetches on one DIMM to overfill its buffer.
            let n = capacity / (k - 1) + 2;
            let starts = regions_on(&cfg, 0, 0, n as usize);
            serve(&mut mem, 0, AccessKind::DemandRead, starts[0]);
            assert_eq!(mem.stats().lines_prefetched, k - 1);
            assert_eq!(mem.stats().prefetch_evictions, 0);
            for (i, &line) in starts.iter().enumerate().skip(1) {
                serve(&mut mem, i as u64, AccessKind::DemandRead, line);
            }
            let evicted = n * (k - 1) - capacity;
            assert_eq!(mem.stats().lines_prefetched, n * (k - 1));
            assert_eq!(mem.stats().prefetch_evictions, evicted);
            // The registry publishes the same total at finish.
            let tel = mem.finish_telemetry(Time::from_ns(1_000 * (n + 1)));
            let reg = tel.expect("telemetry enabled").registry;
            let id = reg.lookup("amb.prefetch.evictions").expect("metric");
            assert_eq!(reg.value(id), MetricValue::Counter(evicted));
        }

        #[test]
        fn invalidate_on_write() {
            let cfg = MemoryConfig::fbdimm_with_prefetch();
            let line = regions_on(&cfg, 1, 3, 1)[0];
            let mut mem = MemorySystem::new(&cfg);
            serve(&mut mem, 0, AccessKind::DemandRead, line);
            // The store makes the prefetched copy of `line + 1` stale:
            // reading it goes to the devices, its neighbour still hits.
            serve(&mut mem, 1, AccessKind::Write, line + 1);
            serve(&mut mem, 2, AccessKind::DemandRead, line + 1);
            assert_eq!(mem.stats().amb_hits, 0);
            serve(&mut mem, 3, AccessKind::DemandRead, line + 2);
            assert_eq!(mem.stats().amb_hits, 1);
        }

        #[test]
        fn resident_lines_counts_across_buffers() {
            let cfg = MemoryConfig::fbdimm_with_prefetch();
            let k = u64::from(cfg.amb.region_lines);
            let mut mem = MemorySystem::new(&cfg);
            let starts = [
                regions_on(&cfg, 0, 0, 1)[0],
                regions_on(&cfg, 0, 2, 1)[0],
                regions_on(&cfg, 1, 2, 1)[0],
            ];
            for (i, &line) in starts.iter().enumerate() {
                serve(&mut mem, i as u64, AccessKind::DemandRead, line);
            }
            // Every prefetched line stays resident in its own DIMM's
            // buffer, so each one later hits.
            let mut id = starts.len() as u64;
            for &line in &starts {
                for fill in line + 1..line + k {
                    serve(&mut mem, id, AccessKind::DemandRead, fill);
                    id += 1;
                }
            }
            let s = mem.stats();
            assert_eq!(s.lines_prefetched, 3 * (k - 1));
            assert_eq!(s.amb_hits, 3 * (k - 1));
            let per_channel: Vec<u64> = mem.channel_counters().iter().map(|c| c.amb_hits).collect();
            assert_eq!(per_channel[..2], [2 * (k - 1), k - 1]);
        }
    }
}
