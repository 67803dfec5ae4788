//! Criterion microbenchmarks for the simulator's hot paths: address
//! mapping, AMB-cache operations, DRAM plan/commit, AMB region fetches,
//! link reservations and a short end-to-end run. These track the
//! *simulator's* performance (simulation throughput), complementing the
//! figure benches that track the *simulated system's* performance.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fbd_core::experiment::ExperimentConfig;
use fbd_core::RunSpec;
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;
use fbd_workloads::Workload;

fn bench_mapping(c: &mut Criterion) {
    let mapper = fbd_ctrl_mapper();
    let mut line = 0u64;
    c.bench_function("mapping/map", |b| {
        b.iter(|| {
            line = line.wrapping_add(977);
            black_box(mapper.map(LineAddr::new(line)))
        })
    });
}

fn fbd_ctrl_mapper() -> fbd_ctrl::InterleavedMapper {
    fbd_ctrl::InterleavedMapper::new(&MemoryConfig::fbdimm_with_prefetch())
}

fn bench_amb_cache(c: &mut Criterion) {
    let cfg = fbd_types::config::AmbPrefetchConfig::paper_default();
    let mut buf = fbd_amb::PrefetchBuffer::new(&cfg);
    let mut line = 0u64;
    c.bench_function("amb_cache/insert_lookup", |b| {
        b.iter(|| {
            line = line.wrapping_add(3);
            buf.insert(LineAddr::new(line % 256));
            black_box(buf.on_hit(LineAddr::new((line + 1) % 256)))
        })
    });
}

fn bench_dram_plan_commit(c: &mut Criterion) {
    let timings = fbd_types::config::DramTimings::ddr2_table2();
    c.bench_function("dram/plan_commit_close_page", |b| {
        let mut banks = fbd_dram::BankArray::new(4, timings, Dur::from_ns(3));
        let mut bus = fbd_dram::DataBus::new(Dur::from_ns(3));
        let mut now = Time::ZERO;
        let mut bank = 0usize;
        b.iter(|| {
            bank = (bank + 1) % 4;
            let op = fbd_dram::ColumnOp {
                kind: fbd_dram::ColKind::Read,
                auto_precharge: true,
                burst: Dur::from_ns(6),
            };
            let plan = banks.plan(bank, 7, op, now, &bus);
            banks.commit(&plan, &mut bus);
            now = plan.data_end;
            black_box(plan.cmd_at)
        })
    });
}

fn bench_amb_fetch_group(c: &mut Criterion) {
    let timings = fbd_types::config::DramTimings::ddr2_table2();
    c.bench_function("amb/fetch_group", |b| {
        let mut dimm = fbd_amb::AmbDimm::new(4, timings, Dur::from_ns(3), Dur::from_ns(6), true);
        let mut now = Time::ZERO;
        let mut bank = 0usize;
        b.iter(|| {
            bank = (bank + 1) % 4;
            // A K = 4 region fetch per demand miss, each arriving as the
            // previous one's demanded line is ready, so the private bus
            // keeps a full prune window of history behind the fills.
            let out = dimm.fetch_group_at(0, bank, 7, 4, now);
            now = out.demanded_ready;
            black_box(out.fill_done)
        })
    });
}

fn bench_timeline(c: &mut Criterion) {
    c.bench_function("link/timeline_reserve", |b| {
        let mut tl = fbd_link::Timeline::new(Dur::from_ns(3));
        let mut t = Time::ZERO;
        b.iter(|| {
            t += Dur::from_ns(9);
            black_box(tl.reserve(t, Dur::from_ns(6)))
        })
    });
}

fn bench_full_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.sample_size(10);
    let exp = ExperimentConfig {
        seed: 42,
        budget: 20_000,
        ..Default::default()
    };
    let w = Workload::new("1C-swim", &["swim"]);
    let mut cfg = SystemConfig::paper_default(1);
    cfg.mem = MemoryConfig::fbdimm_with_prefetch();
    // Telemetry off (the default): the registry/sampler/tracer cost is
    // one pointer test per transaction. Compare the two series to bound
    // the off-path overhead.
    let spec = RunSpec::new(cfg).with_workload(w.clone()).experiment(exp);
    group.bench_function("swim_20k_instructions", |b| {
        b.iter(|| black_box(spec.run().elapsed))
    });
    group.bench_function("swim_20k_instructions_telemetry", |b| {
        let tc = fbd_telemetry::TelemetryConfig {
            sample_interval: Some(cfg.mem.data_rate.clock_period() * 512),
            trace: true,
        };
        // Same automatic L2 warm-up as `RunSpec::run`, so the two
        // series differ only in instrumentation.
        let l2_lines = u64::from(cfg.cpu.l2_bytes) / fbd_types::CACHE_LINE_BYTES;
        let warmup = 2 * l2_lines / u64::from(cfg.cpu.cores);
        b.iter(|| {
            let mut sys = fbd_core::System::new(&cfg, w.traces(exp.seed), exp.budget);
            sys.warm(warmup);
            sys.enable_telemetry(&tc);
            black_box(sys.run().elapsed)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mapping,
    bench_amb_cache,
    bench_dram_plan_commit,
    bench_amb_fetch_group,
    bench_timeline,
    bench_full_system
);
criterion_main!(benches);
