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
//! The overhead section then certifies the profiler cost claim: a run
//! with a profiler attached must be within 10% of a run with none,
//! since stride-sampled marks keep the hot path off the monotonic clock
//! on most iterations. The bound applies to the median over 15 rounds
//! of the profiled wall over the unprofiled wall of the same round; a
//! round alternates four runs of each arm.
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

/// Overhead rounds. Each round times both arms [`RUNS_PER_ROUND`]
/// times and yields one paired ratio.
const OVERHEAD_ROUNDS: usize = 15;

/// Runs of each arm per round, alternating between the arms, so that
/// the host's short slowdowns fall on every arm of a round alike.
const RUNS_PER_ROUND: usize = 4;

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

/// Wall times over [`OVERHEAD_ROUNDS`] rounds, one list per arm: a
/// round's entry is the sum of its [`RUNS_PER_ROUND`] runs of the arm.
/// Within a round the arms alternate run by run, each pass starting one
/// arm later than the pass before, so no arm always runs first; host
/// speed drifts on the scale of seconds, so the arms of one round see
/// about the same host.
fn round_walls(specs: &[&RunSpec]) -> Vec<Vec<f64>> {
    let arms = specs.len();
    let mut walls = vec![Vec::with_capacity(OVERHEAD_ROUNDS); arms];
    for round in 0..OVERHEAD_ROUNDS {
        let mut sums = vec![0.0; arms];
        for pass in 0..RUNS_PER_ROUND {
            for k in 0..arms {
                let arm = (round * RUNS_PER_ROUND + pass + k) % arms;
                sums[arm] += wall_s(specs[arm]);
            }
        }
        for (arm, sum) in walls.iter_mut().zip(sums) {
            arm.push(sum);
        }
    }
    walls
}

/// The first quartile, median and third quartile of `v` (linear
/// interpolation between order statistics).
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    })
}

fn quartiles_json(q: [f64; 3]) -> Json {
    Json::Arr(q.map(Json::from).to_vec())
}

fn overhead_section() -> Json {
    // Big enough that a round's `none` wall is about 0.3 s (1C-swim on
    // FBD-AP on a 2-vCPU VM), so the floor below is about 0.6%.
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
    let enabled = base
        .clone()
        .host_profiler(Arc::new(HostProfiler::enabled()));
    let walls = round_walls(&[&base, &enabled]);
    // Paired per round: a round's arms share the host's speed of the
    // moment, which the ratio divides out.
    let ratios: Vec<f64> = walls[1].iter().zip(&walls[0]).map(|(a, n)| a / n).collect();
    let [none_q, enabled_q] = [0, 1].map(|arm| quartiles(&walls[arm]));
    let enabled_rq = quartiles(&ratios);
    let enabled_ratio = enabled_rq[1];
    // A 2 ms absolute floor, as a fraction of the `none` arm's median
    // round wall, keeps timer and scheduler granularity from deciding.
    let floor = 0.002 / none_q[1];
    println!(
        "overhead (median of {OVERHEAD_ROUNDS} rounds of {RUNS_PER_ROUND} runs, {} instr): \
         none {:.3}s, \
         enabled profiler {:.3}s ({:+.2}% [{:+.2}..{:+.2}])",
        exp.budget,
        none_q[1],
        enabled_q[1],
        (enabled_ratio - 1.0) * 100.0,
        (enabled_rq[0] - 1.0) * 100.0,
        (enabled_rq[2] - 1.0) * 100.0,
    );
    // The profiler is allowed real cost, but stride-sampled marks must
    // keep it under 10% (the pre-sampling hot path cost ≈40%).
    assert!(
        enabled_ratio <= 1.10 + floor,
        "enabled host profiler costs {:.2}% (> 10% budget)",
        (enabled_ratio - 1.0) * 100.0
    );
    Json::Obj(vec![
        ("rounds".into(), Json::from(OVERHEAD_ROUNDS)),
        ("runs_per_round".into(), Json::from(RUNS_PER_ROUND)),
        ("budget".into(), Json::from(exp.budget)),
        // Medians over the rounds (walls are round sums), then
        // [p25, median, p75] of each arm's round wall and ratio.
        ("none_s".into(), Json::from(none_q[1])),
        ("enabled_s".into(), Json::from(enabled_q[1])),
        ("enabled_ratio".into(), Json::from(enabled_ratio)),
        ("floor".into(), Json::from(floor)),
        ("none_s_quartiles".into(), quartiles_json(none_q)),
        ("enabled_s_quartiles".into(), quartiles_json(enabled_q)),
        ("enabled_ratio_quartiles".into(), quartiles_json(enabled_rq)),
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
