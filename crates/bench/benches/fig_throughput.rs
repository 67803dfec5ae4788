//! Host-throughput trajectory bench: how fast the simulator itself
//! runs, per paper system and workload intensity, with the host
//! profiler's evidence that its own overhead is within budget.
//!
//! Method: run the four paper systems (DDR2, FBD, FBD-AP, FBD-APFL)
//! against three single-core workloads of increasing memory intensity
//! (`1C-parser` low, `1C-equake` medium, `1C-swim` high), each with an
//! enabled [`HostProfiler`], and record wall time, simulated-cycles/sec,
//! instructions/sec and the per-phase wall-time breakdown. Rows run
//! sequentially so each row's wall clock is unshared.
//!
//! The overhead section then certifies the profiler cost claims: a run
//! with an attached-but-disabled profiler must be within 2% of a run
//! with no profiler at all, and an *enabled* profiler within 10% (min
//! of 5 trials each) — stride-sampled marks keep the enabled hot path
//! off the monotonic clock on most iterations.
//!
//! When built with `--features alloc-count`, a final section counts
//! heap allocations across the steady-state window of the hot loop
//! (after the first 1000 retired requests, until the budget is
//! exhausted) for `1C-swim` on DDR2 and on FBD-AP, for `8C-1` on
//! FBD-AP and for a long `1C-parser` on DDR2, and asserts each count is
//! exactly zero.
//!
//! Output: `BENCH_throughput.json` in `$FBD_OUT_DIR` (or the working
//! directory), which is created before the first row runs. The file is
//! rewritten after each section (rows, overhead, steady), so a gate
//! that fails keeps the sections measured before it. CI runs this
//! on a small budget, checks every row has a finite positive
//! cycles/sec and a phase-fraction sum ≥ 0.95, and compares the
//! geomean cycles/sec against a committed baseline.

use std::sync::Arc;
use std::time::Instant;

use fbd_bench::*;
use fbd_core::experiment::default_budget;
use fbd_core::{RunResult, RunSpec};
use fbd_telemetry::host::HostProfiler;
use fbd_telemetry::Json;

/// Count every heap allocation so the steady-state section below can
/// certify the hot loop allocates nothing per retired request.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: fbd_telemetry::host::alloc::CountingAlloc = fbd_telemetry::host::alloc::CountingAlloc;

/// Workloads by rising memory intensity (ops per 1000 instructions:
/// parser 10, equake 18, swim 30).
const WORKLOADS: [(&str, &str); 3] = [
    ("1C-parser", "low"),
    ("1C-equake", "medium"),
    ("1C-swim", "high"),
];

const VARIANTS: [Variant; 4] = [
    Variant::Ddr2,
    Variant::Fbd,
    Variant::FbdAp,
    Variant::FbdApfl,
];

/// Overhead trials per configuration; the minimum is reported (least
/// scheduler noise).
const OVERHEAD_TRIALS: usize = 5;

fn throughput_row(variant: Variant, workload: &str, intensity: &str) -> (Json, f64) {
    let spec = RunSpec::new(system(variant, 1))
        .workload(workload)
        .experiment(experiment())
        .host_profiler(Arc::new(HostProfiler::enabled()));
    let r: RunResult = spec.run();
    let h = &r.host;
    let cps = h.cycles_per_sec();
    let frac_sum = h.phase_fraction_sum();
    // Self-check the acceptance invariants where the number is made,
    // so a regression fails loudly even outside CI.
    assert!(
        cps.is_finite() && cps > 0.0,
        "{} on {workload}: cycles/sec must be finite and positive, got {cps}",
        variant.label()
    );
    assert!(
        frac_sum >= 0.95,
        "{} on {workload}: phase fractions explain only {frac_sum:.3} of wall time",
        variant.label()
    );
    println!(
        "  {:<9} {workload:<10} {intensity:<7} {:>9.3}s wall  {:>12.0} cyc/s  {:>12.0} instr/s",
        variant.label(),
        h.wall.as_secs_f64(),
        cps,
        h.instr_per_sec()
    );
    let phases: Vec<(String, Json)> = h
        .phases
        .iter()
        .map(|(label, d)| {
            let frac = if h.wall.as_secs_f64() > 0.0 {
                d.as_secs_f64() / h.wall.as_secs_f64()
            } else {
                0.0
            };
            ((*label).to_string(), Json::from(frac))
        })
        .collect();
    let counters: Vec<(String, Json)> = h
        .counters
        .iter()
        .map(|(label, n)| ((*label).to_string(), Json::from(*n)))
        .collect();
    let row = Json::Obj(vec![
        ("system".into(), Json::from(variant.label())),
        ("workload".into(), Json::from(workload)),
        ("intensity".into(), Json::from(intensity)),
        ("wall_s".into(), Json::from(h.wall.as_secs_f64())),
        ("sim_cycles".into(), Json::from(h.sim_cycles)),
        ("instructions".into(), Json::from(h.instructions)),
        ("cycles_per_sec".into(), Json::from(cps)),
        ("instr_per_sec".into(), Json::from(h.instr_per_sec())),
        ("phase_fraction_sum".into(), Json::from(frac_sum)),
        ("phase_fractions".into(), Json::Obj(phases)),
        ("counters".into(), Json::Obj(counters)),
    ]);
    (row, cps)
}

/// One timed run of `spec`.
fn wall_s(spec: &RunSpec) -> f64 {
    let t = Instant::now();
    let r = spec.run();
    // Keep the result alive past the clock read so drop cost is
    // excluded from every arm equally.
    let elapsed = t.elapsed().as_secs_f64();
    drop(r);
    elapsed
}

/// Per-arm minimum wall time over [`OVERHEAD_TRIALS`] rounds, with the
/// arms interleaved round-robin inside each round: host-machine speed
/// drifts on the scale of seconds, so back-to-back blocks of one arm
/// would attribute that drift to the profiler. Interleaving exposes
/// every arm to the same drift.
fn min_walls(specs: &[&RunSpec]) -> Vec<f64> {
    let mut mins = vec![f64::INFINITY; specs.len()];
    for _ in 0..OVERHEAD_TRIALS {
        for (min, spec) in mins.iter_mut().zip(specs) {
            *min = min.min(wall_s(spec));
        }
    }
    mins
}

fn overhead_section() -> Json {
    // Big enough that the `none` arm's min-of-5 wall is at least about
    // 100 ms (0.15 s for 1C-swim on FBD-AP on a 2-vCPU VM), so the 2 ms
    // floor below cannot hide a 2% cost.
    let exp = fbd_core::experiment::ExperimentConfig {
        budget: default_budget().max(2_000_000),
        ..experiment()
    };
    let base = RunSpec::new(system(Variant::FbdAp, 1))
        .workload("1C-swim")
        .experiment(exp);
    // One untimed warm-up run so page faults and lazy init are paid
    // before any arm is measured.
    drop(base.run());
    let disabled = base
        .clone()
        .host_profiler(Arc::new(HostProfiler::disabled()));
    let enabled = base
        .clone()
        .host_profiler(Arc::new(HostProfiler::enabled()));
    let mins = min_walls(&[&base, &disabled, &enabled]);
    let (none_s, disabled_s, enabled_s) = (mins[0], mins[1], mins[2]);
    let disabled_ratio = disabled_s / none_s;
    let enabled_ratio = enabled_s / none_s;
    println!(
        "overhead (min of {OVERHEAD_TRIALS}, {} instr): none {none_s:.3}s, \
         disabled profiler {disabled_s:.3}s ({:+.2}%), enabled {enabled_s:.3}s ({:+.2}%)",
        exp.budget,
        (disabled_ratio - 1.0) * 100.0,
        (enabled_ratio - 1.0) * 100.0
    );
    // The zero-cost gate: an attached-but-disabled profiler must be
    // free. A 2ms absolute floor keeps sub-millisecond smoke budgets
    // from tripping on scheduler jitter alone.
    assert!(
        disabled_s <= none_s * 1.02 + 0.002,
        "disabled host profiler costs {:.2}% (> 2% budget)",
        (disabled_ratio - 1.0) * 100.0
    );
    // The enabled profiler is allowed real cost, but stride-sampled
    // marks must keep it under 10% (the pre-sampling hot path cost
    // ≈40%). Same absolute floor as above for tiny budgets.
    assert!(
        enabled_s <= none_s * 1.10 + 0.002,
        "enabled host profiler costs {:.2}% (> 10% budget)",
        (enabled_ratio - 1.0) * 100.0
    );
    Json::Obj(vec![
        ("trials".into(), Json::from(OVERHEAD_TRIALS)),
        ("budget".into(), Json::from(exp.budget)),
        ("none_s".into(), Json::from(none_s)),
        ("disabled_s".into(), Json::from(disabled_s)),
        ("enabled_s".into(), Json::from(enabled_s)),
        ("disabled_ratio".into(), Json::from(disabled_ratio)),
        ("enabled_ratio".into(), Json::from(enabled_ratio)),
    ])
}

/// Runs the steady-state allocation gate covers, as (system, workload,
/// cores, label, least budget per core): one core streaming `1C-swim`
/// on the DDR2 baseline (shared command and data bus) and on FBD-AP
/// (link, AMB prefetch); eight cores of `8C-1` on FBD-AP, which keep
/// the transaction queue full and churn the AMB tags and the L2 MSHR
/// table hardest; and one core of `1C-parser` on DDR2 for 2M
/// instructions, long enough for a rank's power-mode tracker to see
/// thousands of distinct busy spans (close page rarely merges them), so
/// a tracker that kept its history would grow in the window.
const STEADY_RUNS: [(Variant, &str, u32, &str, u64); 4] = [
    (Variant::Ddr2, "1C-swim", 1, "DDR2", 100_000),
    (Variant::FbdAp, "1C-swim", 1, "FBD-AP", 100_000),
    (Variant::FbdAp, "8C-1", 8, "FBD-AP 8C-1", 100_000),
    (Variant::Ddr2, "1C-parser", 1, "DDR2 1C-parser", 2_000_000),
];

/// Runs each of `STEADY_RUNS` under the counting allocator and returns
/// the allocation counts across its steady-state window (started after
/// 1000 retired requests, closed when the loop exits), asserting each
/// is exactly zero. Requires `--features alloc-count`; without it the
/// section reports `null` and gates nothing.
fn steady_alloc_section() -> Json {
    // Each budget is big enough to retire well over the 1000 requests
    // that open the steady-state window (1C-swim ≈ 30 memory ops / 1000
    // instr); it is per core. `budget` reports the short rows' budget.
    let exp_for = |least: u64| fbd_core::experiment::ExperimentConfig {
        budget: default_budget().max(least),
        ..experiment()
    };
    let mut total = Some(0);
    let mut systems = Vec::new();
    for (variant, workload, cores, label, least) in STEADY_RUNS {
        let exp = exp_for(least);
        let spec = RunSpec::new(system(variant, cores))
            .workload(workload)
            .experiment(exp)
            .host_profiler(Arc::new(HostProfiler::enabled()));
        let r: RunResult = spec.run();
        let steady = r.host.steady_allocations;
        match steady {
            Some(n) => {
                println!(
                    "{label}: steady-state allocations (after first 1000 retired requests): {n}"
                );
                assert_eq!(
                    n, 0,
                    "{label}: the hot loop allocated {n} times in steady state (must be allocation-free)"
                );
            }
            None => println!(
                "{label}: steady-state allocations: not measured (build with --features alloc-count)"
            ),
        }
        total = total.zip(steady).map(|(t, n)| t + n);
        systems.push((label.to_string(), steady.map_or(Json::Null, Json::from)));
    }
    Json::Obj(vec![
        ("budget".into(), Json::from(exp_for(100_000).budget)),
        // Summed over `systems`, so one key gates them all.
        (
            "steady_allocations".into(),
            total.map_or(Json::Null, Json::from),
        ),
        ("systems".into(), Json::Obj(systems)),
    ])
}

fn main() {
    let out = JsonOut::from_env("BENCH_throughput.json");
    let exp = fbd_bench::experiment();
    banner(
        "Throughput",
        "host simulation throughput per system and workload intensity",
        &exp,
    );

    let mut rows = Vec::new();
    let mut cps_all = Vec::new();
    for (workload, intensity) in WORKLOADS {
        for variant in VARIANTS {
            let (row, cps) = throughput_row(variant, workload, intensity);
            rows.push(row);
            cps_all.push(cps);
        }
    }
    let geomean = (cps_all.iter().map(|c| c.ln()).sum::<f64>() / cps_all.len() as f64).exp();
    println!(
        "geomean {geomean:.0} simulated cycles per host second over {} rows",
        rows.len()
    );

    // The document is rewritten after each section, so a later gate's
    // panic leaves the sections before it on disk.
    let mut doc = vec![
        ("budget".into(), Json::from(exp.budget)),
        ("geomean_cycles_per_sec".into(), Json::from(geomean)),
        ("build".into(), fbd_core::build_info().to_json()),
        ("rows".into(), Json::Arr(rows)),
    ];
    out.write(&Json::Obj(doc.clone()));
    doc.push(("overhead".into(), overhead_section()));
    out.write(&Json::Obj(doc.clone()));
    doc.push(("steady".into(), steady_alloc_section()));
    out.write(&Json::Obj(doc));
}
