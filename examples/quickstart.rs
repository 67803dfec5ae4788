//! Quickstart: simulate one memory-intensive program on FB-DIMM with and
//! without AMB prefetching and print the headline comparison.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fbd-core --example quickstart
//! ```

use fbd_core::RunSpec;

fn main() {
    // A deterministic run: seed 42, 200k instructions. `swim` is the
    // most bandwidth-hungry of the paper's twelve SPEC2000-like
    // profiles — an ideal showcase for DRAM-level prefetching. The
    // base spec is the paper's default system (Table 1): 4 GHz core,
    // 4 MB shared L2, two logical FB-DIMM channels at 667 MT/s, close
    // page.
    let base = RunSpec::paper_default(1)
        .workload("1C-swim")
        .seed(42)
        .budget(200_000);

    // Baseline: FB-DIMM without prefetching (cacheline interleaving).
    let baseline = base.clone().substrate("fbd").run();

    // The paper's proposal: region-based AMB prefetching — every demand
    // miss fetches its 4-line region into the AMB's 4 KB prefetch buffer
    // with a single DRAM activation (multi-cacheline interleaving).
    let with_ap = base.clone().substrate("fbd-ap").run();

    println!("swim on FB-DIMM, {} instructions:", base.exp().budget);
    println!();
    println!("                         FBD     FBD-AP");
    println!(
        "  IPC                  {:>6.3}     {:>6.3}",
        baseline.cores[0].ipc(),
        with_ap.cores[0].ipc()
    );
    println!(
        "  avg read latency     {:>5.1}ns    {:>5.1}ns",
        baseline.avg_read_latency_ns(),
        with_ap.avg_read_latency_ns()
    );
    println!(
        "  utilized bandwidth   {:>5.2}GB/s  {:>5.2}GB/s",
        baseline.bandwidth_gbps(),
        with_ap.bandwidth_gbps()
    );
    println!(
        "  DRAM ACT/PRE pairs   {:>7}    {:>7}",
        baseline.mem.dram_ops.act_pre, with_ap.mem.dram_ops.act_pre
    );
    println!();
    println!(
        "  prefetch coverage  {:.1}%   efficiency {:.1}%",
        with_ap.mem.prefetch_coverage() * 100.0,
        with_ap.mem.prefetch_efficiency() * 100.0
    );
    let speedup = with_ap.cores[0].ipc() / baseline.cores[0].ipc();
    println!(
        "  speedup from AMB prefetching: {:+.1}%",
        (speedup - 1.0) * 100.0
    );
    println!(
        "  memory energy        {:>6.1}µJ   {:>6.1}µJ  ({:.2} W vs {:.2} W avg)",
        baseline.energy.total_nj() / 1_000.0,
        with_ap.energy.total_nj() / 1_000.0,
        baseline.energy.avg_power_w(),
        with_ap.energy.avg_power_w()
    );
}
