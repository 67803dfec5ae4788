//! Shape-regression tests: quick checks that the paper's central claims
//! keep reproducing. These are scaled-down versions of the figure
//! benches (few workloads, small budgets) so `cargo test` guards the
//! reproduction itself, not just the components.

use std::collections::HashMap;

use fbd_core::experiment::{reference_ipcs, smt_speedup, ExperimentConfig};
use fbd_core::{RunResult, RunSpec};
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_workloads::Workload;

fn exp() -> ExperimentConfig {
    ExperimentConfig {
        seed: 42,
        budget: 80_000,
        ..Default::default()
    }
}

fn run(cfg: SystemConfig, w: &Workload, exp: ExperimentConfig) -> RunResult {
    RunSpec::new(cfg)
        .with_workload(w.clone())
        .experiment(exp)
        .run()
}

fn cfg(mem: MemoryConfig, cores: u32) -> SystemConfig {
    let mut c = SystemConfig::paper_default(cores);
    c.mem = mem;
    c
}

/// A small representative sample: two streaming FP, one irregular
/// integer benchmark.
const SAMPLE: [&str; 3] = ["swim", "facerec", "vortex"];

fn refs() -> HashMap<String, f64> {
    reference_ipcs(&cfg(MemoryConfig::ddr2_default(), 1), &SAMPLE, &exp())
}

fn avg_speedup(mem: MemoryConfig, refs: &HashMap<String, f64>) -> f64 {
    let mut total = 0.0;
    for name in SAMPLE {
        let w = Workload::new(format!("1C-{name}"), &[name]);
        let r = run(cfg(mem, 1), &w, exp());
        total += smt_speedup(&w, &r, refs);
    }
    total / SAMPLE.len() as f64
}

#[test]
fn figure7_shape_ap_beats_fbd_significantly() {
    let refs = refs();
    let fbd = avg_speedup(MemoryConfig::fbdimm_default(), &refs);
    let ap = avg_speedup(MemoryConfig::fbdimm_with_prefetch(), &refs);
    let gain = ap / fbd - 1.0;
    // Paper: +16% average; accept a generous band around it.
    assert!(gain > 0.08, "AP gain {gain:.3} collapsed");
    assert!(gain < 0.60, "AP gain {gain:.3} implausibly large");
}

#[test]
fn figure9_shape_apfl_sits_between() {
    let refs = refs();
    let fbd = avg_speedup(MemoryConfig::fbdimm_default(), &refs);
    let apfl_mem = substrates().get("fbd-apfl").expect("registered").config();
    let apfl = avg_speedup(apfl_mem, &refs);
    let ap = avg_speedup(MemoryConfig::fbdimm_with_prefetch(), &refs);
    assert!(
        apfl > fbd * 1.01,
        "bandwidth-utilization gain missing: {apfl:.3} vs {fbd:.3}"
    );
    assert!(
        ap > apfl * 1.005,
        "latency-reduction gain missing: {ap:.3} vs {apfl:.3}"
    );
}

#[test]
fn figure8_shape_k_trades_coverage_for_efficiency() {
    let w = Workload::new("1C-swim", &["swim"]);
    let mut prev_cov = 0.0;
    let mut prev_eff = 1.0;
    for k in [2u32, 4, 8] {
        let mut mem = MemoryConfig::fbdimm_with_prefetch();
        mem.amb.region_lines = k;
        mem.interleaving = fbd_types::config::Interleaving::MultiCacheline { lines: k };
        let r = run(cfg(mem, 1), &w, exp());
        let cov = r.mem.prefetch_coverage();
        let eff = r.mem.prefetch_efficiency();
        assert!(
            cov > prev_cov,
            "coverage must rise with K (K={k}: {cov:.3})"
        );
        assert!(
            eff < prev_eff,
            "efficiency must fall with K (K={k}: {eff:.3})"
        );
        prev_cov = cov;
        prev_eff = eff;
    }
}

#[test]
fn figure13_shape_default_k_saves_dynamic_energy() {
    let model = fbd_power::PowerModel::paper_ratio();
    let w = Workload::new("1C-mgrid", &["mgrid"]);
    let base = run(cfg(MemoryConfig::fbdimm_default(), 1), &w, exp());
    let ap = run(cfg(MemoryConfig::fbdimm_with_prefetch(), 1), &w, exp());
    let norm = model.normalized(&ap.mem.dram_ops, &base.mem.dram_ops);
    // Paper: ~30% single-core saving at K=4; require at least 10%.
    assert!(norm < 0.90, "dynamic-energy saving collapsed: {norm:.3}");
}

#[test]
fn figure12_shape_ap_and_sp_are_complementary() {
    let name = "swim";
    let w = Workload::new(format!("1C-{name}"), &[name]);
    let ipc_of = |ap: bool, sp: bool| {
        let mut c = cfg(
            if ap {
                MemoryConfig::fbdimm_with_prefetch()
            } else {
                MemoryConfig::fbdimm_default()
            },
            1,
        );
        c.cpu.software_prefetch = sp;
        run(c, &w, exp()).cores[0].ipc()
    };
    let none = ipc_of(false, false);
    let ap = ipc_of(true, false) / none;
    let sp = ipc_of(false, true) / none;
    let both = ipc_of(true, true) / none;
    assert!(ap > 1.02, "AP alone must help swim: {ap:.3}");
    assert!(sp > 1.02, "SP alone must help swim: {sp:.3}");
    assert!(
        both > ap.max(sp),
        "AP+SP ({both:.3}) must beat either alone"
    );
}

#[test]
fn multicore_ap_gain_holds_at_four_cores() {
    let refs = reference_ipcs(
        &cfg(MemoryConfig::ddr2_default(), 1),
        &["wupwise", "swim", "mgrid", "applu"],
        &exp(),
    );
    let w = fbd_workloads::four_core_workloads().remove(0); // 4C-1
    let base = run(cfg(MemoryConfig::fbdimm_default(), 4), &w, exp());
    let ap = run(cfg(MemoryConfig::fbdimm_with_prefetch(), 4), &w, exp());
    let gain = smt_speedup(&w, &ap, &refs) / smt_speedup(&w, &base, &refs) - 1.0;
    assert!(gain > 0.08, "4-core AP gain {gain:.3} collapsed");
}
