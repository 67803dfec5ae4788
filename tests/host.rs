//! Integration tests for host-side observability: the profiler's
//! phase-partition invariant on a real run, build provenance and the
//! `LogHistogram` merge algebra that the live dashboard and throughput
//! bench depend on.

use std::sync::Arc;

use fbd_core::RunSpec;
use fbd_telemetry::host::{Counter, HostProfiler, Phase};
use fbd_telemetry::{Json, LogHistogram};
use fbd_types::time::Dur;

fn spec() -> RunSpec {
    RunSpec::paper_default(1).workload("1C-swim").budget(20_000)
}

#[test]
fn profiled_run_partitions_wall_time_and_counts_the_hot_loop() {
    let profiler = Arc::new(HostProfiler::enabled());
    let r = spec().host_profiler(Arc::clone(&profiler)).run();
    let h = &r.host;
    assert!(h.enabled);
    assert!(!h.wall.is_zero());
    // The acceptance invariant: the per-phase breakdown explains at
    // least 95% of measured wall time (by construction it is ~100%).
    let sum = h.phase_fraction_sum();
    assert!((0.95..=1.05).contains(&sum), "phase fractions sum to {sum}");
    assert!(h.cycles_per_sec() > 0.0 && h.cycles_per_sec().is_finite());
    assert!(h.instr_per_sec() > 0.0);
    assert_eq!(h.instructions, 20_000);
    assert!(h.sim_cycles > 0);
    // Hot-loop counters moved: events, scheduling decisions, retired
    // requests, DRAM commands and FBD link frames all fired; no faults
    // were injected, so no link retries.
    for c in [
        Counter::Events,
        Counter::Decisions,
        Counter::RequestsRetired,
        Counter::DramCommands,
        Counter::FramesSent,
    ] {
        assert!(profiler.counter(c) > 0, "counter {c:?} never moved");
    }
    assert_eq!(profiler.counter(Counter::Retries), 0);
    // An idle decision runs once for all its same-instant duplicates
    // (about 4.2 decisions per retired request when each re-ran).
    let decisions = profiler.counter(Counter::Decisions);
    let retired = profiler.counter(Counter::RequestsRetired);
    assert!(
        decisions as f64 <= 3.5 * retired as f64,
        "{decisions} decisions for {retired} retired requests"
    );
    // DRAM commands reconcile with the device statistics.
    assert_eq!(
        profiler.counter(Counter::DramCommands),
        r.mem.dram_ops.act_pre * 2 + r.mem.dram_ops.col_total() + r.mem.dram_ops.refreshes
    );
    // The simulation phases dominate; setup/harness are overhead.
    let hot: f64 = [
        Phase::Cpu,
        Phase::Controller,
        Phase::Datapath,
        Phase::Warmup,
    ]
    .iter()
    .map(|&p| profiler.phase(p).as_secs_f64())
    .sum();
    assert!(
        hot > 0.5 * h.wall.as_secs_f64(),
        "simulation phases cover only {:.0}% of wall time",
        100.0 * hot / h.wall.as_secs_f64()
    );
}

#[test]
fn unprofiled_run_still_carries_build_provenance() {
    let r = spec().run();
    assert!(!r.host.enabled);
    assert_eq!(r.host.wall, std::time::Duration::ZERO);
    // Build provenance is compiled in, not measured, so it is present
    // on every result.
    assert_eq!(r.host.build.version, env!("CARGO_PKG_VERSION"));
    assert!(!r.host.build.git_sha.is_empty());
    assert!(!r.host.build.rustc.is_empty());
    assert!(!r.host.build.profile.is_empty());
    let doc = r.host.to_json();
    assert_eq!(doc.get("enabled"), Some(&Json::Bool(false)));
    assert!(doc.get("build").is_some());
}

#[test]
fn build_info_matches_compile_time_environment() {
    let b = fbd_core::build_info();
    assert_eq!(b.version, env!("CARGO_PKG_VERSION"));
    // `git_sha` is either a real short hash (12 hex chars, optional
    // `-dirty`) or the `unknown` fallback — never empty.
    assert!(
        b.git_sha == "unknown"
            || b.git_sha
                .trim_end_matches("-dirty")
                .chars()
                .all(|c| c.is_ascii_hexdigit()),
        "unexpected git sha {:?}",
        b.git_sha
    );
    assert!(b.rustc == "unknown" || b.rustc.starts_with("rustc"));
    assert!(["debug", "release", "unknown"].contains(&b.profile.as_str()));
}

/// `LogHistogram::merge` is associative (and commutative in effect):
/// the telemetry pipeline relies on this to fold per-epoch and
/// per-shard histograms in whatever order the runners finish.
#[test]
fn log_histogram_merge_is_associative() {
    let hist = |samples: &[u64]| {
        let mut h = LogHistogram::new();
        for &ns in samples {
            h.record(Dur::from_ns(ns));
        }
        h
    };
    let a = hist(&[3, 17, 17, 250]);
    let b = hist(&[1, 90_000, 4]);
    let c = hist(&[42, 42, 7_777_777]);

    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);

    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);

    assert_eq!(left, right);
    assert_eq!(left.count(), 10);

    // The empty histogram is the identity on both sides.
    let mut with_empty = a.clone();
    with_empty.merge(&LogHistogram::new());
    assert_eq!(with_empty, a);
    let mut from_empty = LogHistogram::new();
    from_empty.merge(&a);
    assert_eq!(from_empty, a);
}
