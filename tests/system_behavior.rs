//! End-to-end behaviour of the simulated systems on real workloads.

use fbd_core::experiment::ExperimentConfig;
use fbd_core::{RunResult, RunSpec};
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_workloads::{four_core_workloads, Workload};

fn exp(budget: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: 42,
        budget,
        ..Default::default()
    }
}

fn run(cfg: SystemConfig, w: &Workload, exp: ExperimentConfig) -> RunResult {
    RunSpec::new(cfg)
        .with_workload(w.clone())
        .experiment(exp)
        .run()
}

fn fbd(cores: u32) -> SystemConfig {
    SystemConfig::paper_default(cores)
}

fn fbd_ap(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.mem = MemoryConfig::fbdimm_with_prefetch();
    cfg
}

#[test]
fn runs_are_deterministic() {
    let w = Workload::new("1C-equake", &["equake"]);
    let a = run(fbd(1), &w, exp(50_000));
    let b = run(fbd(1), &w, exp(50_000));
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.cores[0].instructions, b.cores[0].instructions);
    assert_eq!(a.mem.demand_reads, b.mem.demand_reads);
    assert_eq!(a.mem.dram_ops, b.mem.dram_ops);
}

#[test]
fn amb_prefetching_speeds_up_streaming_workloads() {
    let w = Workload::new("1C-swim", &["swim"]);
    let base = run(fbd(1), &w, exp(100_000));
    let ap = run(fbd_ap(1), &w, exp(100_000));
    let speedup = ap.cores[0].ipc() / base.cores[0].ipc();
    assert!(speedup > 1.05, "swim speedup {speedup:.3} too small");
    // The gain comes with shorter average latency and higher bandwidth.
    assert!(ap.avg_read_latency_ns() < base.avg_read_latency_ns());
    assert!(ap.bandwidth_gbps() > base.bandwidth_gbps());
}

#[test]
fn amb_prefetching_never_slows_down_irregular_workloads_much() {
    // The paper reports no workload with negative speedup.
    let w = Workload::new("1C-parser", &["parser"]);
    let base = run(fbd(1), &w, exp(100_000));
    let ap = run(fbd_ap(1), &w, exp(100_000));
    let speedup = ap.cores[0].ipc() / base.cores[0].ipc();
    assert!(speedup > 0.99, "parser speedup {speedup:.3} went negative");
}

#[test]
fn coverage_respects_region_upper_bound() {
    for (k, bound) in [(2u32, 0.5), (4, 0.75), (8, 0.875)] {
        let mut cfg = fbd_ap(1);
        cfg.mem.amb.region_lines = k;
        cfg.mem.interleaving = fbd_types::config::Interleaving::MultiCacheline { lines: k };
        let w = Workload::new("1C-swim", &["swim"]);
        let r = run(cfg, &w, exp(60_000));
        let cov = r.mem.prefetch_coverage();
        assert!(
            cov <= bound + 1e-9,
            "K={k}: coverage {cov:.3} above bound {bound}"
        );
        assert!(
            cov > 0.2,
            "K={k}: coverage {cov:.3} implausibly low for swim"
        );
    }
}

#[test]
fn group_fetch_trades_activates_for_columns() {
    // The power-saving mechanism: fewer ACT/PRE pairs, more column
    // accesses, per §5.5.
    let w = Workload::new("1C-mgrid", &["mgrid"]);
    let base = run(fbd(1), &w, exp(60_000));
    let ap = run(fbd_ap(1), &w, exp(60_000));
    let per_read_act_base = base.mem.dram_ops.act_pre as f64 / base.mem.total_reads() as f64;
    let per_read_act_ap = ap.mem.dram_ops.act_pre as f64 / ap.mem.total_reads() as f64;
    assert!(
        per_read_act_ap < per_read_act_base,
        "activations per read must drop"
    );
    let per_read_col_base = base.mem.dram_ops.col_reads as f64 / base.mem.total_reads() as f64;
    let per_read_col_ap = ap.mem.dram_ops.col_reads as f64 / ap.mem.total_reads() as f64;
    assert!(
        per_read_col_ap > per_read_col_base,
        "column reads per read must rise"
    );
}

#[test]
fn full_latency_ablation_sits_between_base_and_ap() {
    let w = Workload::new("1C-applu", &["applu"]);
    let base = run(fbd(1), &w, exp(80_000));
    let mut apfl_cfg = fbd(1);
    apfl_cfg.mem = substrates().get("fbd-apfl").expect("registered").config();
    let apfl = run(apfl_cfg, &w, exp(80_000));
    let ap = run(fbd_ap(1), &w, exp(80_000));
    let (b, f, a) = (base.cores[0].ipc(), apfl.cores[0].ipc(), ap.cores[0].ipc());
    assert!(f >= b * 0.99, "APFL ({f:.3}) must not lose to FBD ({b:.3})");
    assert!(a >= f * 0.99, "AP ({a:.3}) must not lose to APFL ({f:.3})");
    assert!(a > b, "AP must beat FBD on a streaming workload");
}

#[test]
fn multicore_run_uses_all_cores() {
    let w = four_core_workloads().remove(0); // 4C-1: all streaming
    let r = run(fbd(4), &w, exp(40_000));
    assert_eq!(r.cores.len(), 4);
    // All cores made progress; at least one hit the budget.
    assert!(r.cores.iter().all(|c| c.instructions > 10_000));
    assert!(r.cores.iter().any(|c| c.instructions == 40_000));
    // Multiprogramming pushed bandwidth well above single-core levels.
    assert!(
        r.bandwidth_gbps() > 8.0,
        "got {:.2} GB/s",
        r.bandwidth_gbps()
    );
}

#[test]
fn bandwidth_saturates_below_peak() {
    let w = four_core_workloads().remove(0);
    let cfg = fbd(4);
    let r = run(cfg, &w, exp(40_000));
    let peak = cfg.mem.peak_total_bandwidth_gbps();
    assert!(
        r.bandwidth_gbps() < peak,
        "utilized {:.2} ≥ peak {:.2}",
        r.bandwidth_gbps(),
        peak
    );
}

#[test]
fn software_prefetching_helps_streaming_code() {
    let w = Workload::new("1C-swim", &["swim"]);
    let mut no_sp = fbd(1);
    no_sp.cpu.software_prefetch = false;
    let without = run(no_sp, &w, exp(80_000));
    let with = run(fbd(1), &w, exp(80_000));
    assert!(
        with.cores[0].ipc() > without.cores[0].ipc() * 1.02,
        "SP must help swim: {:.3} vs {:.3}",
        with.cores[0].ipc(),
        without.cores[0].ipc()
    );
}

#[test]
fn queueing_raises_latency_above_idle() {
    let w = Workload::new("1C-swim", &["swim"]);
    let r = run(fbd(1), &w, exp(60_000));
    assert!(
        r.avg_read_latency_ns() > 63.0,
        "queueing must add to the 63 ns idle latency"
    );
    assert!(
        r.avg_read_latency_ns() < 200.0,
        "single-core latency implausibly high"
    );
}
