//! Criterion microbenchmarks for the simulator's hot paths: address
//! mapping, AMB-cache operations and tag lookups, the hit-first
//! scheduler pick, DRAM plan/commit, the data-bus gap search over a
//! full history window, AMB region fetches, a rank's power-mode
//! tracker over a close-page stream, the event wheel under a
//! closed-loop push/pop stream, link reservations, an
//! eight-core CPU pump with seven cores parked, one read/write
//! transaction through the memory system on FBD-AP and on DDR2, and a
//! short end-to-end run. These track the
//! *simulator's* performance (simulation throughput), complementing the
//! figure benches that track the *simulated system's* performance.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fbd_amb::PrefetchBuffer;
use fbd_core::experiment::ExperimentConfig;
use fbd_core::RunSpec;
use fbd_ctrl::{MappedAddr, QueueEntry, SchedClass, TransactionQueue};
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::request::{AccessKind, CoreId, MemRequest, RequestId};
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

/// Lookups in a full 64-line fully associative AMB buffer (the
/// paper's default), alternating a resident and an absent line.
fn bench_amb_would_hit(c: &mut Criterion) {
    let mut buf = PrefetchBuffer::new(&MemoryConfig::fbdimm_with_prefetch().amb);
    buf.fill((0..64).map(|i| LineAddr::new(4 * i)));
    let mut i = 0u64;
    c.bench_function("amb_cache/would_hit", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            // Even `i`: a resident line; odd: the line after it.
            let line = LineAddr::new(4 * (i % 64) + (i & 1));
            black_box(buf.contains(line))
        })
    });
}

/// Hit-first picks over a 32-entry bucket (every fourth entry a write,
/// below the drain threshold), classified as the controller does: an
/// AMB-cache hit first, then bank state. Every AMB buffer is full, and
/// only the 16th read's line is among its lines.
///
/// - `sched/pick_hit_first`: every entry is schedulable (a full
///   closed-loop queue), so the pick meets 15 non-hits before its hit.
/// - `sched/pick_deep_queue`: entries arrive 20 ns apart and only the
///   two oldest have cleared the controller overhead, the shape of an
///   open-loop replay whose trace is admitted up front; the pick
///   chooses between those two.
fn bench_sched_pick(c: &mut Criterion) {
    let cfg = MemoryConfig::fbdimm_with_prefetch();
    let queue = |gap: Dur| {
        let mut q = TransactionQueue::new(1, cfg.queue_capacity as usize);
        for i in 0..32u64 {
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::DemandRead
            };
            let line = LineAddr::new(97 * i);
            let arrival = Time::ZERO + gap * i;
            let mapped = MappedAddr {
                channel: 0,
                dimm: (i % cfg.dimms_per_channel as u64) as u32,
                rank: 0,
                bank: (i % 8) as u32,
                row: i as u32,
                col_line: 0,
            };
            q.push(
                MemRequest::new(RequestId(i), CoreId(0), kind, line, arrival),
                mapped,
            );
        }
        q
    };
    let (full, deep) = (queue(Dur::ZERO), queue(Dur::from_ns(20)));
    let mut amb = vec![PrefetchBuffer::new(&cfg.amb); cfg.dimms_per_channel as usize];
    for buf in &mut amb {
        buf.fill((0..64).map(|i| LineAddr::new(1_000_000 + i)));
    }
    let hit = &full.bucket(0)[20];
    amb[hit.mapped.dimm as usize].fill([hit.req.line]);
    let mut classify = |e: &QueueEntry| {
        let buf = amb.get(e.mapped.dimm as usize);
        if e.req.kind.is_read() && buf.is_some_and(|b| b.contains(e.req.line)) {
            SchedClass::Hit
        } else if e.mapped.bank.is_multiple_of(2) {
            SchedClass::Ready
        } else {
            SchedClass::NotReady
        }
    };
    let mut sched = fbd_ctrl::schedulers()
        .get("hit-first")
        .expect("registered")
        .build(&cfg);
    // Each iteration finds the ready prefix and picks from it, as a
    // decision does.
    let overhead = fbd_ctrl::CONTROLLER_OVERHEAD;
    let mut pick = |q: &TransactionQueue, now: Time| {
        sched.pick(black_box(q).ready(0, now, overhead), &mut classify)
    };
    let now = Time::from_ns(100);
    assert_eq!(pick(&full, now), Some(20));
    c.bench_function("sched/pick_hit_first", |b| {
        b.iter(|| black_box(pick(&full, now)))
    });
    // Entries 0 and 1 are ready: bank 0 is `Ready`, bank 1 `NotReady`.
    let now = Time::from_ns(20) + overhead;
    assert_eq!(pick(&deep, now), Some(0));
    c.bench_function("sched/pick_deep_queue", |b| {
        b.iter(|| black_box(pick(&deep, now)))
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

/// Gap searches on a data bus holding a full prune window of
/// back-to-back reads, each wanting to start a few bursts before the
/// newest one ends, as the controller's requests do.
fn bench_dram_earliest_fit(c: &mut Criterion) {
    let clock = Dur::from_ns(3);
    let burst = Dur::from_ns(6);
    let mut bus = fbd_dram::DataBus::new(clock);
    // 5 µs of 6 ns bursts with a clock between them, then a little more
    // so the oldest are pruned.
    let mut at = Time::ZERO;
    for _ in 0..600 {
        bus.commit(fbd_dram::ColKind::Read, at, at + burst);
        at = at + burst + clock;
    }
    let newest = bus.free_at();
    let mut i = 0u64;
    c.bench_function("dram/earliest_fit_full_window", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let desired = newest - Dur::from_ns(9 * (i % 4));
            black_box(bus.earliest_fit(fbd_dram::ColKind::Read, black_box(desired), burst))
        })
    });
}

fn bench_amb_fetch_group(c: &mut Criterion) {
    let timings = fbd_types::config::DramTimings::ddr2_table2();
    c.bench_function("amb/fetch_group", |b| {
        let mut dimm =
            fbd_dram::RankGroup::new(1, 4, timings, Dur::from_ns(3), Dur::from_ns(6), true);
        let mut now = Time::ZERO;
        let mut bank = 0usize;
        b.iter(|| {
            bank = (bank + 1) % 4;
            // A K = 4 region fetch per demand miss, each arriving as the
            // previous one's demanded line is ready, so the private bus
            // keeps a full prune window of history behind the fills.
            let (demanded, fill_done) = dimm.fetch_group(0, bank, 7, 4, now);
            now = demanded.data_start;
            black_box(fill_done)
        })
    });
}

/// One rank's power-mode tracker fed a close-page DDR2-like stream:
/// each decision plans one 42 ns ACT-to-burst window a few ns ahead
/// (every eighth waits for its bank and lands past the next few), at a
/// pitch that leaves standby gaps and power-down gaps, runs a 127.5 ns
/// refresh window every tREFI (7.8 µs) first when one is due, and
/// settles the tracker at the decision instant.
fn bench_power_note_busy(c: &mut Criterion) {
    let (t_refi, t_rfc) = (Dur::from_ns(7_800), Dur::from_ps(127_500));
    c.bench_function("power/note_busy", |b| {
        let mut tracker = fbd_power::PowerModeTracker::new(Dur::from_ns(30));
        let mut now = Time::ZERO;
        let mut refresh_at = Time::ZERO + t_refi;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now += Dur::from_ns(if i.is_multiple_of(3) { 120 } else { 50 });
            if refresh_at <= now {
                tracker.note_busy(refresh_at, refresh_at + t_rfc);
                tracker.settle(now, |span| {
                    black_box(span);
                });
                refresh_at += t_refi;
            }
            let start = now + Dur::from_ns(if i.is_multiple_of(8) { 200 } else { 3 });
            tracker.note_busy(start, start + Dur::from_ns(42));
            tracker.settle(now, |span| {
                black_box(span);
            });
            black_box(tracker.unsettled())
        })
    });
}

/// A 16-byte stand-in for the closed simulation loop's crate-private
/// event, with its variants in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum WheelEvent {
    Decide(u32),
    ReadDone(u32, u64, bool),
    WriteDone(u32),
    Wake,
}

/// The event wheel under a seeded stream shaped like `mc8-fbdap`'s, on
/// a 3 ns clock: eight channels keep up to 16 transfers in flight each.
/// A completion pushes a deduped decision for its channel at its own
/// instant. A decision with room issues one transfer (a read, every
/// fourth a write) completing 60–600 ns ahead, pushes its channel's
/// next decision 1–3 clocks on through `push_n`, a deduped decision for
/// another channel at once and, one time in four, a front-end wake a
/// few clocks on; a full channel's decision is idle. One
/// iteration pops until a decision issues: one simulated request, with
/// about three deduped decision pushes, one completion push and a few
/// pops, over buckets 1–12 entries deep.
fn bench_event_wheel(c: &mut Criterion) {
    use fbd_core::events::EventWheel;
    const CLK: u64 = 3_000;
    const CHANNELS: u32 = 8;
    const IN_FLIGHT: u32 = 16;
    assert_eq!(std::mem::size_of::<WheelEvent>(), 16);
    c.bench_function("events/wheel_push_pop", |b| {
        let mut q = EventWheel::new();
        let mut in_flight = [0u32; CHANNELS as usize];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for ch in 0..CHANNELS {
            q.push(Time::ZERO, WheelEvent::Decide(ch), true);
        }
        let mut line = 0u64;
        b.iter(|| loop {
            let (now, ev, _) = q.pop().expect("completions keep the stream going");
            match ev {
                WheelEvent::Decide(ch) if in_flight[ch as usize] < IN_FLIGHT => {
                    in_flight[ch as usize] += 1;
                    line += 1;
                    let done = now + Dur::from_ps(CLK * (20 + rand(181)));
                    let ev = if line.is_multiple_of(4) {
                        WheelEvent::WriteDone(ch)
                    } else {
                        WheelEvent::ReadDone(ch, line, false)
                    };
                    q.push(done, ev, false);
                    let next = now + Dur::from_ps(CLK * (1 + rand(3)));
                    q.push_n(next, WheelEvent::Decide(ch), 1 + rand(2) as u32);
                    let other = rand(u64::from(CHANNELS)) as u32;
                    q.push(now, WheelEvent::Decide(other), true);
                    if rand(4) == 0 {
                        let wake = now + Dur::from_ps(CLK * (1 + rand(8)));
                        q.push(wake, WheelEvent::Wake, false);
                    }
                    break black_box(now);
                }
                WheelEvent::ReadDone(ch, line, dropped) => {
                    black_box((line, dropped));
                    in_flight[ch as usize] -= 1;
                    q.push(now, WheelEvent::Decide(ch), true);
                }
                WheelEvent::WriteDone(ch) => {
                    in_flight[ch as usize] -= 1;
                    q.push(now, WheelEvent::Decide(ch), true);
                }
                WheelEvent::Decide(_) | WheelEvent::Wake => {}
            }
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

/// A trace of loads to `line`, `line + stride`, ... spaced `gap`
/// instructions apart, without end.
#[derive(Clone)]
struct Stream {
    line: u64,
    stride: u64,
    gap: u64,
}

impl fbd_cpu::TraceSource for Stream {
    fn next_op(&mut self) -> Option<fbd_cpu::TraceOp> {
        let line = LineAddr::new(self.line);
        self.line += self.stride;
        Some(fbd_cpu::TraceOp {
            gap: self.gap,
            kind: fbd_cpu::OpKind::Load,
            line,
        })
    }
    fn time_per_instr(&self) -> Dur {
        Dur::from_ps(125)
    }
    fn name(&self) -> &str {
        "stream"
    }
}

/// One pump of an eight-core complex with no fills returning: seven
/// cores sit ROB-stalled behind a miss (parked), and core 0 re-tries a
/// load that waits for one of its 32 MSHRs (never parked).
fn bench_cpu_pump(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default(8).cpu;
    let traces = (0..8u64)
        .map(|i| -> Box<dyn fbd_cpu::TraceSource> {
            Box::new(match i {
                // Every load merges onto the first line's miss.
                0 => Stream {
                    line: 0,
                    stride: 0,
                    gap: 0,
                },
                // Five misses fill the 196-entry ROB; the first blocks
                // commit short of where the sixth would fit.
                _ => Stream {
                    line: i << 20,
                    stride: 1,
                    gap: 40,
                },
            })
        })
        .collect();
    let mut cpx = fbd_cpu::CpuComplex::new(&cfg, traces, u64::MAX);
    let mut requests = Vec::new();
    // At 10 ns every core has fetched all it can before a fill.
    let mut now = Time::from_ns(10);
    cpx.advance_into(Time::ZERO, &mut requests);
    cpx.advance_into(now, &mut requests);
    assert_eq!(
        requests.len(),
        1 + 7 * 5,
        "one miss for core 0, five per other core"
    );
    c.bench_function("cpu/pump_8c", |b| {
        b.iter(|| {
            now += Dur::from_ns(1);
            let wake = cpx.advance_into(now, &mut requests);
            debug_assert_eq!(requests.len(), 1 + 7 * 5, "no core gets further");
            black_box(wake)
        })
    });
}

/// One transaction per iteration through the memory system's public
/// path (`submit`, `decide_into` at its ready instant, `complete`), on
/// an otherwise idle channel: a sequential read stream with every
/// fourth transaction a write to a separate region. On FBD-AP the reads
/// alternate group fetches and AMB hits; on DDR2 every transaction takes
/// the shared-bus access.
fn bench_memsys_decide(c: &mut Criterion) {
    for (name, cfg) in [
        ("memsys/decide_fbd_ap", MemoryConfig::fbdimm_with_prefetch()),
        ("memsys/decide_ddr2", MemoryConfig::ddr2_default()),
    ] {
        c.bench_function(name, |b| {
            let mut mem = fbd_core::MemorySystem::new(&cfg);
            let mut issued = Vec::new();
            let (mut now, mut i) = (Time::ZERO, 0u64);
            b.iter(|| {
                i += 1;
                let (kind, line) = if i % 4 == 0 {
                    (AccessKind::Write, (1 << 20) + i)
                } else {
                    (AccessKind::DemandRead, i)
                };
                let req = MemRequest::new(RequestId(i), CoreId(0), kind, LineAddr::new(line), now);
                let (ch, ready) = mem.submit(req);
                issued.clear();
                mem.decide_into(ch, ready, &mut issued);
                assert_eq!(issued.len(), 1, "an idle channel issues at once");
                mem.complete(ch);
                // The next transaction arrives as this one completes.
                now = match issued[0] {
                    fbd_core::Issued::Read { resp } => resp.completion,
                    fbd_core::Issued::Write { done } => done,
                };
                black_box(now)
            })
        });
    }
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
    bench_amb_would_hit,
    bench_sched_pick,
    bench_dram_plan_commit,
    bench_dram_earliest_fit,
    bench_amb_fetch_group,
    bench_power_note_busy,
    bench_event_wheel,
    bench_timeline,
    bench_cpu_pump,
    bench_memsys_decide,
    bench_full_system
);
criterion_main!(benches);
