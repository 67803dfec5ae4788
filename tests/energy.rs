//! End-to-end tests of the DRAM energy model: the per-run
//! [`EnergyReport`](fbd_power::EnergyReport) must reflect what the
//! simulated memory system actually did, and the paper's power-saving
//! claim (§5.5) must reproduce — AMB prefetching cuts row activations,
//! and with them total DRAM energy, on streaming workloads.

use fbd_core::RunSpec;
use fbd_types::config::MemoryConfig;

#[test]
fn prefetch_cuts_activations_and_total_energy_on_streaming() {
    let base = RunSpec::paper_default(1)
        .workload("1C-swim")
        .budget(60_000)
        .seed(42);
    let off = base.clone().substrate("fbd").run();
    let on = base.substrate("fbd-ap").run();

    assert!(
        on.mem.dram_ops.act_pre < off.mem.dram_ops.act_pre,
        "AP must activate fewer rows on swim: {} vs {}",
        on.mem.dram_ops.act_pre,
        off.mem.dram_ops.act_pre
    );
    assert!(
        on.energy.total_nj() < off.energy.total_nj(),
        "AP must lower total memory energy on swim: {:.0} nJ vs {:.0} nJ",
        on.energy.total_nj(),
        off.energy.total_nj()
    );
    // The saving has the right provenance: less activation energy for
    // the same committed instructions.
    assert!(on.energy.activation_nj < off.energy.activation_nj);
}

#[test]
fn report_components_are_consistent() {
    let r = RunSpec::paper_default(1)
        .workload("1C-mgrid")
        .budget(40_000)
        .run();
    let e = &r.energy;
    let sum = e.activation_nj + e.burst_nj + e.refresh_nj + e.background_nj + e.amb_nj;
    assert!((sum - e.total_nj()).abs() < 1e-6 * e.total_nj());
    assert!(e.total_nj() > 0.0);
    assert!(e.avg_power_w() > 0.0);
    // Every rank's mode residency accounts for the full run.
    for rank in &e.ranks {
        let res = rank.residency;
        assert_eq!(res.total(), r.elapsed, "rank residency must span the run");
    }
    // The per-rank split sums back to the report's DRAM totals.
    let dyn_sum: f64 = e.ranks.iter().map(|r| r.dynamic_nj).sum();
    let bg_sum: f64 = e.ranks.iter().map(|r| r.background_nj).sum();
    assert!((dyn_sum - e.dynamic_nj()).abs() < 1e-6 * e.dynamic_nj().max(1.0));
    assert!((bg_sum - e.background_nj).abs() < 1e-6 * e.background_nj.max(1.0));
}

#[test]
fn ddr2_runs_report_no_amb_energy() {
    let r = RunSpec::paper_default(1)
        .workload("1C-swim")
        .memory(MemoryConfig::ddr2_default())
        .budget(30_000)
        .run();
    assert_eq!(r.energy.amb_nj, 0.0, "DDR2 DIMMs carry no AMB");
    assert!(r.energy.total_nj() > 0.0);
}

#[test]
fn fbdimm_runs_carry_amb_link_power() {
    let r = RunSpec::paper_default(1)
        .workload("1C-swim")
        .budget(30_000)
        .run();
    assert!(r.energy.amb_nj > 0.0, "FB-DIMM channels pay AMB power");
}

#[test]
fn background_dominates_at_low_utilization() {
    // Low utilization = a light workload on an overprovisioned memory
    // system: one core running the integer benchmark `parser` against
    // four FB-DIMM channels. Most ranks idle most of the time, so
    // static background energy must dominate the DRAM total (the
    // effect Figure 13's low-utilization bars show). A streaming
    // workload on the same system keeps the ranks busy and must sit
    // well below that.
    let frac = |workload: &str| {
        let mut spec = RunSpec::paper_default(1).workload(workload).budget(40_000);
        spec.system_mut().mem.logical_channels = 4;
        spec.run().energy.background_fraction()
    };
    let light = frac("1C-parser");
    let heavy = frac("1C-swim");
    assert!(
        light > 0.5,
        "background fraction {light:.2} should dominate a low-utilization run"
    );
    assert!(
        light > heavy,
        "background share must fall as utilization rises: {light:.2} vs {heavy:.2}"
    );
}

#[test]
fn longer_runs_spend_more_energy() {
    let base = RunSpec::paper_default(1).workload("1C-swim").seed(7);
    let short = base.clone().budget(20_000).run();
    let long = base.budget(60_000).run();
    assert!(long.energy.total_nj() > short.energy.total_nj());
    assert!(long.energy.background_nj > short.energy.background_nj);
}
