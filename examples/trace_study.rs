//! Trace-driven memory study: capture one workload's memory-request
//! stream, then replay the *identical* stream against every memory
//! configuration — isolating the memory subsystem from CPU feedback,
//! the way trace-driven DRAM studies work.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fbd-core --example trace_study [benchmark]
//! ```

use fbd_core::experiment::ExperimentConfig;
use fbd_core::{replay, System};
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_workloads::Workload;

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "applu".to_string());
    if fbd_workloads::by_name(&bench).is_none() {
        eprintln!("unknown benchmark `{bench}`");
        std::process::exit(1);
    }
    let exp = ExperimentConfig {
        seed: 42,
        budget: 150_000,
        ..Default::default()
    };

    // Capture the stream once, on the plain FB-DIMM system.
    let workload = Workload::new(format!("1C-{bench}"), &[&bench]);
    let mut sys = System::new(
        &SystemConfig::paper_default(1),
        workload.traces(exp.seed),
        exp.budget,
    );
    sys.warm(140_000); // fill the L2 so writeback traffic is present
    sys.enable_trace_capture();
    let result = sys.run();
    let trace = result.trace.expect("capture enabled");
    println!(
        "captured {} transactions from `{bench}` ({} demand reads, {} prefetch reads, {} writes)",
        trace.len(),
        result.mem.demand_reads,
        result.mem.sw_prefetch_reads,
        result.mem.writes
    );
    println!();

    // Replay the identical stream everywhere.
    let apfl = substrates().get("fbd-apfl").expect("registered").config();
    let systems = [
        ("DDR2", MemoryConfig::ddr2_default()),
        ("FBD", MemoryConfig::fbdimm_default()),
        ("FBD-AP", MemoryConfig::fbdimm_with_prefetch()),
        ("FBD-APFL", apfl),
        ("FBD/DDR3", MemoryConfig::fbdimm_ddr3()),
    ];
    println!("system     avg latency   ACT/PRE   columns   AMB hits");
    for (name, mem) in systems {
        let r = replay(&mem, &trace);
        println!(
            "{name:<9}  {:>8.1} ns  {:>8}  {:>8}  {:>9}",
            r.mem.read_latency.mean().map_or(0.0, |d| d.as_ns_f64()),
            r.mem.dram_ops.act_pre,
            r.mem.dram_ops.col_total(),
            r.mem.amb_hits
        );
    }
    println!();
    println!("Identical arrival times everywhere (open-loop): latency and DRAM-operation");
    println!("differences are purely the memory subsystem's doing.");
}
