//! End-to-end telemetry: a full simulated run with the registry, epoch
//! sampler, and event tracer enabled, cross-checked against the
//! simulator's own statistics.

use std::collections::HashMap;

use fbd_core::experiment::ExperimentConfig;
use fbd_core::{drive, MemorySystem, System};
use fbd_telemetry::{json, Json, MetricValue, TelemetryConfig};
use fbd_types::config::{MemoryConfig, ScrubPolicyKind, SystemConfig};
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::stats::DramOpCounts;
use fbd_types::substrate::substrates;
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, RequestId};
use fbd_workloads::Workload;

fn fbd_ap(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.mem = MemoryConfig::fbdimm_with_prefetch();
    cfg
}

fn run_with_telemetry(cfg: &SystemConfig, budget: u64) -> fbd_core::RunResult {
    let w = Workload::new("1C-swim", &["swim"]);
    let exp = ExperimentConfig {
        budget,
        ..ExperimentConfig::default()
    };
    let mut sys = System::new(cfg, w.traces(exp.seed), exp.budget);
    sys.enable_telemetry(&TelemetryConfig {
        sample_interval: Some(Dur::from_ns(2_000)),
        trace: true,
    });
    sys.run()
}

fn counter(r: &fbd_core::RunResult, path: &str) -> u64 {
    let tel = r.telemetry.as_ref().expect("telemetry enabled");
    let id = tel
        .registry
        .lookup(path)
        .unwrap_or_else(|| panic!("metric {path} missing"));
    match tel.registry.value(id) {
        MetricValue::Counter(n) => n,
        other => panic!("{path} is not a counter: {other:?}"),
    }
}

fn gauge(r: &fbd_core::RunResult, path: &str) -> f64 {
    let tel = r.telemetry.as_ref().expect("telemetry enabled");
    let id = tel
        .registry
        .lookup(path)
        .unwrap_or_else(|| panic!("metric {path} missing"));
    match tel.registry.value(id) {
        MetricValue::Gauge(v) => v,
        other => panic!("{path} is not a gauge: {other:?}"),
    }
}

/// fbd-ap with fault injection, patrol scrub, fail-back and re-issue
/// armed, so the run carries scrub and re-issue traffic.
fn fbd_ap_with_recovery() -> SystemConfig {
    let mut cfg = fbd_ap(1);
    let f = &mut cfg.mem.faults;
    f.ber = 1e-3;
    f.seed = 7;
    f.crc_bits = 4;
    f.scrub = ScrubPolicyKind::Patrol;
    f.scrub_interval_ns = 200;
    f.failback_quiet_ns = 2_000;
    f.reissue_budget = 8;
    cfg
}

#[test]
fn registry_agrees_with_simulator_statistics() {
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let mut cfg = SystemConfig::paper_default(1);
        cfg.mem = substrates().get(system).expect("known system").config();
        registry_agrees(system, &cfg);
    }
    registry_agrees("fbd-ap with recovery", &fbd_ap_with_recovery());
}

/// Runs 1C-swim on `cfg` with telemetry and checks every published
/// metric against the statistics it is read from.
fn registry_agrees(system: &str, cfg: &SystemConfig) {
    let r = run_with_telemetry(cfg, 20_000);
    let tel = r.telemetry.as_ref().expect("telemetry enabled");

    // Channel counters mirror the always-on ones and the global stats.
    let nch = cfg.mem.logical_channels;
    let total_reads: u64 = (0..nch)
        .map(|c| counter(&r, &format!("chan{c}.reads")))
        .sum();
    let total_writes: u64 = (0..nch)
        .map(|c| counter(&r, &format!("chan{c}.writes")))
        .sum();
    let total_bytes: u64 = (0..nch)
        .map(|c| counter(&r, &format!("chan{c}.bytes")))
        .sum();
    let all_reads = r.mem.demand_reads + r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads;
    assert_eq!(total_reads, all_reads, "{system}");
    assert_eq!(total_writes, r.mem.writes, "{system}");
    assert_eq!(total_bytes, r.mem.data_bytes, "{system}");
    for (c, counts) in r.channels.iter().enumerate() {
        assert_eq!(counts.reads, counter(&r, &format!("chan{c}.reads")));
        assert_eq!(counts.writes, counter(&r, &format!("chan{c}.writes")));
        assert_eq!(counts.bytes, counter(&r, &format!("chan{c}.bytes")));
        assert_eq!(counts.amb_hits, counter(&r, &format!("chan{c}.amb_hits")));
    }

    // Each DIMM's counters are its ranks' operation counts.
    for c in 0..nch {
        for d in 0..cfg.mem.dimms_per_channel {
            let mut ops = DramOpCounts::default();
            for rank in r
                .energy
                .ranks
                .iter()
                .filter(|e| (e.channel, e.dimm) == (c, d))
            {
                ops.merge(&rank.ops);
            }
            let dimm = format!("chan{c}.dimm{d}");
            assert_eq!(
                counter(&r, &format!("{dimm}.acts")),
                ops.act_pre,
                "{system} {dimm}"
            );
            assert_eq!(counter(&r, &format!("{dimm}.col_reads")), ops.col_reads);
            assert_eq!(counter(&r, &format!("{dimm}.col_writes")), ops.col_writes);
        }
    }

    // AMB prefetching observables.
    assert_eq!(counter(&r, "amb.prefetch.hits"), r.mem.amb_hits, "{system}");
    assert_eq!(counter(&r, "amb.prefetch.fills"), r.mem.lines_prefetched);
    assert_eq!(
        counter(&r, "amb.prefetch.evictions"),
        r.mem.prefetch_evictions
    );
    if cfg.mem.amb.is_enabled() {
        assert!(
            r.mem.amb_hits > 0,
            "swim on {system} must hit the AMB cache"
        );
    } else {
        assert_eq!(r.mem.lines_prefetched, 0, "{system} prefetches nothing");
    }

    // The latency accumulator saw exactly the demand reads.
    let id = tel.registry.lookup("mem.read_latency").expect("registered");
    let MetricValue::Latency { count, mean, .. } = tel.registry.value(id) else {
        panic!("mem.read_latency is not a latency metric");
    };
    assert_eq!(count, r.mem.demand_reads, "{system}");
    let mean_ns = mean.map_or(0.0, |d| d.as_ns_f64());
    assert!(
        (mean_ns - r.avg_read_latency_ns()).abs() < 1e-6,
        "{system}: registry mean {mean_ns} vs stats mean {}",
        r.avg_read_latency_ns()
    );

    // Power residency gauges tile the whole run on every DIMM.
    let elapsed_ns = r.elapsed.as_ns_f64();
    for c in 0..nch {
        for d in 0..cfg.mem.dimms_per_channel {
            let total = gauge(&r, &format!("chan{c}.dimm{d}.power.active_ns"))
                + gauge(&r, &format!("chan{c}.dimm{d}.power.standby_ns"))
                + gauge(&r, &format!("chan{c}.dimm{d}.power.powerdown_ns"));
            assert!(
                (total - elapsed_ns).abs() < 0.5,
                "{system}: chan{c}.dimm{d} residency {total} ns != elapsed {elapsed_ns} ns"
            );
        }
    }

    // Recovery traffic shows up in the error gauges when it ran.
    if let Some(f) = &r.faults {
        assert!(f.counters.scrub_reads > 0, "{system} scrubs");
        assert!(
            f.counters.reissued > 0,
            "{system} re-issues dropped prefetches"
        );
        assert_eq!(
            gauge(&r, "errors.scrub_reads"),
            f.counters.scrub_reads as f64
        );
        assert_eq!(gauge(&r, "errors.reissued"), f.counters.reissued as f64);
    }
}

#[test]
fn sampler_and_tracer_collect_over_the_run() {
    let r = run_with_telemetry(&fbd_ap(1), 20_000);
    let tel = r.telemetry.as_ref().expect("telemetry enabled");

    let sampler = tel.sampler.as_ref().expect("sampling enabled");
    assert!(
        sampler.rows().len() >= 2,
        "expected multiple epochs, got {}",
        sampler.rows().len()
    );
    // Rows are time-ordered and the final flush lands at run end.
    for pair in sampler.rows().windows(2) {
        assert!(pair[0].at < pair[1].at);
    }
    // Counters are cumulative: the last row's chan0.reads matches the final value.
    let csv = sampler.to_csv(&tel.registry);
    assert!(
        csv.starts_with("time_ns,"),
        "csv header missing: {}",
        &csv[..40.min(csv.len())]
    );
    assert!(csv.lines().count() == sampler.rows().len() + 1);

    let tracer = tel.tracer.as_ref().expect("tracing enabled");
    assert!(!tracer.is_empty());
    let doc = tracer.to_chrome_trace();
    // Round-trip through text to exercise the writer and parser.
    let parsed = json::parse(&doc.to_json()).expect("trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(
        events.len() > tracer.len(),
        "metadata events must be present"
    );
    // The run produced link, dram, amb and power events.
    for cat in ["link", "dram", "amb", "power", "ctrl"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat)),
            "no {cat} events in trace"
        );
    }
}

#[test]
fn telemetry_off_costs_nothing_and_returns_none() {
    let w = Workload::new("1C-swim", &["swim"]);
    let cfg = fbd_ap(1);
    let sys = System::new(&cfg, w.traces(42), 20_000);
    let r = sys.run();
    assert!(r.telemetry.is_none());
    // Always-on channel counters still work without telemetry.
    let bytes: u64 = r.channels.iter().map(|c| c.bytes).sum();
    assert_eq!(bytes, r.mem.data_bytes);
    assert!(r.channel_bandwidth_gbps().iter().sum::<f64>() > 0.0);
}

#[test]
fn telemetry_runs_are_deterministic() {
    let a = run_with_telemetry(&fbd_ap(1), 10_000);
    let b = run_with_telemetry(&fbd_ap(1), 10_000);
    let ta = a.telemetry.expect("telemetry enabled");
    let tb = b.telemetry.expect("telemetry enabled");
    assert_eq!(
        ta.registry.to_json().to_json(),
        tb.registry.to_json().to_json()
    );
    assert_eq!(
        ta.tracer.expect("tracing").to_chrome_trace().to_json(),
        tb.tracer.expect("tracing").to_chrome_trace().to_json()
    );
}

/// Drives `requests` through `cfg` open-loop twice, plain and sampling
/// every `interval`; asserts the two runs agree and returns the finish
/// instant and the sampled run's epoch rows taken by the loop.
fn drive_plain_and_sampled(
    cfg: &MemoryConfig,
    requests: impl Iterator<Item = MemRequest> + Clone,
    interval: Dur,
) -> (Time, Vec<fbd_telemetry::SampleRow>) {
    let mut plain = MemorySystem::new(cfg);
    let plain_finished = drive(&mut plain, requests.clone());
    let mut sampled = MemorySystem::new(cfg);
    sampled.enable_telemetry(&TelemetryConfig {
        sample_interval: Some(interval),
        trace: false,
    });
    let finished = drive(&mut sampled, requests);
    // Sampling observes the run without moving it.
    assert_eq!(finished, plain_finished);
    assert_eq!(sampled.stats(), plain.stats());
    let tel = sampled.telemetry().expect("telemetry enabled");
    let rows = tel.sampler.as_ref().expect("sampling enabled").rows();
    (finished, rows.to_vec())
}

#[test]
fn sampled_open_loop_ends_with_an_epoch_series_and_unchanged_results() {
    // 500 requests at one per 4 ns, every third a write, alternating
    // between a sequential stream and scattered lines.
    let requests = (0..500u64).map(|i| {
        let kind = if i % 3 == 2 {
            AccessKind::Write
        } else {
            AccessKind::DemandRead
        };
        let line = if i % 2 == 0 { 4096 + i } else { i * 7919 };
        MemRequest::new(
            RequestId(i),
            CoreId(0),
            kind,
            LineAddr::new(line),
            Time::from_ns(i * 4),
        )
    });
    let interval = Dur::from_ns(100);
    let cfg = MemoryConfig::fbdimm_with_prefetch();
    let (finished, rows) = drive_plain_and_sampled(&cfg, requests, interval);
    // One snapshot per elapsed epoch, taken by the loop itself.
    let epochs = (finished - Time::ZERO) / interval;
    assert!(
        rows.len() as u64 + 1 >= epochs && rows.len() as u64 <= epochs,
        "{} rows over {epochs} epochs",
        rows.len()
    );
    for pair in rows.windows(2) {
        assert_eq!(pair[1].at - pair[0].at, interval);
    }

    // A one-entry queue leaves a read admitted from the backlog with no
    // decision queued for its channel; the end-of-events wake serves it
    // at the last event's instant, sampled or not.
    let mut cfg = MemoryConfig::fbdimm_with_prefetch();
    cfg.queue_capacity = 1;
    let mapper = fbd_ctrl::InterleavedMapper::new(&cfg);
    let line_on = |ch: u32| {
        (0..)
            .map(LineAddr::new)
            .find(|l| mapper.map(*l).channel == ch)
            .expect("every channel maps some line")
    };
    let reads = [line_on(1), line_on(0)].map(|line| {
        MemRequest::new(
            RequestId(line.as_u64()),
            CoreId(0),
            AccessKind::DemandRead,
            line,
            Time::ZERO,
        )
    });
    let (_, rows) = drive_plain_and_sampled(&cfg, reads.into_iter(), Dur::from_ns(10));
    assert!(!rows.is_empty());
}

#[test]
fn final_epoch_row_reads_the_queue_and_in_flight_counts_at_the_end() {
    // Eight reads wait in the queue at the periodic snapshot; one
    // decision per channel then issues some of them before the run
    // ends. The final row must show the counts at the end, not repeat
    // the snapshot's.
    let cfg = MemoryConfig::fbdimm_with_prefetch();
    let mut sys = MemorySystem::new(&cfg);
    sys.enable_telemetry(&TelemetryConfig {
        sample_interval: Some(Dur::from_ns(100)),
        trace: false,
    });
    let nch = cfg.logical_channels as usize;
    let mut queued = vec![0; nch];
    for i in 0..8u64 {
        let line = LineAddr::new(i * 7919);
        let req = MemRequest::new(
            RequestId(i),
            CoreId(0),
            AccessKind::DemandRead,
            line,
            Time::ZERO,
        );
        let (ch, _) = sys.submit(req);
        queued[ch as usize] += 1;
    }
    sys.sample_telemetry(Time::from_ns(100));
    let mut in_flight = vec![0; nch];
    for ch in 0..nch {
        let mut issued = Vec::new();
        sys.decide_into(ch as u32, Time::from_ns(100), &mut issued);
        in_flight[ch] = issued.len();
        queued[ch] -= issued.len();
    }
    assert!(in_flight.iter().sum::<usize>() > 0, "the decisions issue");

    let tel = sys
        .finish_telemetry(Time::from_ns(150))
        .expect("telemetry enabled");
    let rows = tel.sampler.as_ref().expect("sampling enabled").rows();
    let [.., snapshot, last] = rows else {
        panic!("{} rows, want the snapshot and the final one", rows.len());
    };
    assert_eq!(
        (snapshot.at, last.at),
        (Time::from_ns(100), Time::from_ns(150))
    );
    let column = |path: &str| {
        tel.registry
            .iter()
            .position(|(p, _)| p == path)
            .unwrap_or_else(|| panic!("metric {path} missing"))
    };
    for ch in 0..nch {
        let depth = column(&format!("chan{ch}.queue_depth"));
        let inflight = column(&format!("chan{ch}.inflight"));
        assert_eq!(
            last.values[depth], queued[ch] as f64,
            "chan{ch}.queue_depth"
        );
        assert_eq!(
            last.values[inflight], in_flight[ch] as f64,
            "chan{ch}.inflight"
        );
    }
}

/// A traced 4C-1 run at budget 20k on `mem`.
fn traced_4c1(mem: MemoryConfig) -> fbd_core::RunResult {
    fbd_core::RunSpec::paper_default(4)
        .workload("4C-1")
        .memory(mem)
        .budget(20_000)
        .telemetry(TelemetryConfig {
            sample_interval: None,
            trace: true,
        })
        .run()
}

/// A span on one bank track: start and end in whole picoseconds (the
/// trace carries microseconds), and the command name.
type BankSpan = (u64, u64, String);

/// Each bank track's spans, keyed by `(pid, tid)`.
type BankTracks = HashMap<(u64, u64), Vec<BankSpan>>;

/// The bank tracks (`tid >= 10000`) of `r`'s trace: their metadata
/// names, and each track's `X` spans keyed by `(pid, tid)`, sorted.
fn bank_tracks(r: fbd_core::RunResult) -> (Vec<String>, BankTracks) {
    let doc = r
        .telemetry
        .and_then(|t| t.tracer)
        .expect("tracing enabled")
        .to_chrome_trace();
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).expect(key);
    let text = |e: Option<&Json>| e.and_then(Json::as_str).expect("a string").to_string();
    let ps = |us: f64| (us * 1e6).round() as u64;
    let mut tracks = BankTracks::new();
    let mut names = Vec::new();
    for e in events {
        let tid = e.get("tid").and_then(Json::as_f64).unwrap_or(0.0);
        if tid < 10_000.0 {
            continue;
        }
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => names.push(text(e.get("args").and_then(|a| a.get("name")))),
            Some("X") => {
                let start = ps(num(e, "ts"));
                tracks
                    .entry((num(e, "pid") as u64, tid as u64))
                    .or_default()
                    .push((start, start + ps(num(e, "dur")), text(e.get("name"))));
            }
            _ => {}
        }
    }
    for list in tracks.values_mut() {
        list.sort_unstable();
    }
    (names, tracks)
}

/// Asserts that no two spans named by `keep` overlap on one bank track
/// and returns how many such spans the tracks hold.
fn assert_disjoint(system: &str, tracks: &BankTracks, keep: impl Fn(&str) -> bool) -> usize {
    let mut spans = 0;
    for list in tracks.values() {
        let kept: Vec<&BankSpan> = list.iter().filter(|s| keep(&s.2)).collect();
        spans += kept.len();
        for pair in kept.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "{system}: bank spans {:?} and {:?} overlap on one track",
                pair[0],
                pair[1]
            );
        }
    }
    spans
}

#[test]
fn two_rank_bank_tracks_never_overlap() {
    use fbd_types::substrate::substrates;
    for system in ["ddr2", "fbd"] {
        let mut mem = substrates().get(system).expect("registered").config();
        mem.ranks_per_dimm = 2;
        let (names, tracks) = bank_tracks(traced_4c1(mem));
        assert!(
            names.iter().any(|n| n == "dimm0 rank1 bank0"),
            "{system}: two-rank bank tracks are named by rank"
        );
        let spans = assert_disjoint(system, &tracks, |_| true);
        assert!(spans > 0, "{system}: no bank spans traced");
    }
}

/// An open-page FB-DIMM row conflict's precharge is drawn on its bank
/// track, as on DDR2, since the power model charges it active on both.
/// Each `PRE` runs up to its own `ACT`, and a bank's row commands never
/// overlap. (Open-page column spans may: a row hit's column command
/// issues while the previous burst is still in flight, and the bank
/// can precharge before the last burst ends.)
#[test]
fn open_page_row_conflicts_draw_their_precharge() {
    use fbd_types::config::{Interleaving, PagePolicy};
    use fbd_types::substrate::substrates;
    let mut mem = substrates().get("fbd").expect("registered").config();
    mem.page_policy = PagePolicy::OpenPage;
    mem.interleaving = Interleaving::Page;
    let (_, tracks) = bank_tracks(traced_4c1(mem));
    let row_cmd = |name: &str| name == "PRE" || name == "ACT";
    assert!(assert_disjoint("fbd", &tracks, row_cmd) > 0);
    let mut pres = 0;
    for list in tracks.values() {
        for (i, (_, end, name)) in list.iter().enumerate() {
            if name == "PRE" {
                pres += 1;
                assert!(
                    list[i + 1..].iter().any(|(s, _, n)| n == "ACT" && s == end),
                    "fbd: a PRE ending at {end} ps is not followed by its ACT"
                );
            }
        }
    }
    assert!(pres > 0, "fbd: no PRE spans traced");
}
