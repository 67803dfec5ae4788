//! Memory-trace capture and replay.
//!
//! A [`MemoryTrace`] is the stream of transactions the processor complex
//! handed to the memory controller during a run: arrival time, kind,
//! cacheline, issuing core. Traces serialize to a simple CSV so they can
//! be archived, inspected, or produced by external tools, and can be
//! *replayed* against any memory configuration with
//! [`replay`] — the classic trace-driven mode of DRAM simulators.
//!
//! Caveat (inherent to trace-driven evaluation): a replayed trace does
//! not model CPU feedback — arrival times are frozen at their recorded
//! values, so a faster memory system shows lower latency but cannot pull
//! requests in earlier. Use full-system runs for performance claims and
//! replay for memory-subsystem analysis.

use std::io::{self, BufRead, Write};

use fbd_faults::FaultReport;
use fbd_telemetry::StageProfile;
use fbd_types::config::MemoryConfig;
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::stats::MemStats;
use fbd_types::time::{Dur, Time};
use fbd_types::{LineAddr, RequestId};

use crate::engine::{Engine, Event, FrontEnd};
use crate::events::EventQueue;
use crate::memsys::{ChannelCounters, MemorySystem};
use crate::system::MAX_SIM_TIME;

/// One recorded memory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival at the memory controller.
    pub arrival: Time,
    /// Transaction kind.
    pub kind: AccessKind,
    /// Target cacheline.
    pub line: LineAddr,
    /// Issuing core.
    pub core: CoreId,
}

/// A captured stream of memory transactions, in arrival order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryTrace {
    records: Vec<TraceRecord>,
}

/// Error from parsing a trace CSV.
#[derive(Debug)]
pub struct ParseTraceError {
    line: usize,
    reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

fn kind_code(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::DemandRead => "R",
        AccessKind::SoftwarePrefetch => "P",
        AccessKind::HardwarePrefetch => "H",
        AccessKind::Write => "W",
    }
}

fn kind_from_code(code: &str) -> Option<AccessKind> {
    Some(match code {
        "R" => AccessKind::DemandRead,
        "P" => AccessKind::SoftwarePrefetch,
        "H" => AccessKind::HardwarePrefetch,
        "W" => AccessKind::Write,
        _ => return None,
    })
}

impl MemoryTrace {
    /// An empty trace.
    pub fn new() -> MemoryTrace {
        MemoryTrace::default()
    }

    /// Appends a record (records must arrive in non-decreasing time, the
    /// order [`replay`] submits them in).
    ///
    /// # Panics
    ///
    /// Panics if `arrival` goes backwards.
    pub fn push(&mut self, record: TraceRecord) {
        assert!(
            self.records
                .last()
                .is_none_or(|r| r.arrival <= record.arrival),
            "trace records must be time-ordered"
        );
        self.records.push(record);
    }

    /// The recorded transactions.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Writes the trace as CSV: `arrival_ps,kind,line,core`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn to_csv<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "arrival_ps,kind,line,core")?;
        for r in &self.records {
            writeln!(
                out,
                "{},{},{},{}",
                r.arrival.as_ps(),
                kind_code(r.kind),
                r.line.as_u64(),
                r.core.0
            )?;
        }
        Ok(())
    }

    /// Parses a trace from the CSV produced by [`to_csv`](Self::to_csv).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line on any
    /// malformed row, an arrival past [`MAX_SIM_TIME`] or an arrival
    /// earlier than the previous row's, and propagates I/O errors as
    /// parse errors.
    pub fn from_csv<R: BufRead>(mut input: R) -> Result<MemoryTrace, ParseTraceError> {
        let mut trace = MemoryTrace::new();
        // One buffer for every row: `lines()` would allocate a `String`
        // per record.
        let mut buf = String::new();
        for i in 0.. {
            let err = |reason: &str| ParseTraceError {
                line: i + 1,
                reason: reason.to_string(),
            };
            buf.clear();
            if input.read_line(&mut buf).map_err(|e| err(&e.to_string()))? == 0 {
                break;
            }
            // Strip the terminator as `lines()` does: `\n` or `\r\n`.
            let line = buf.strip_suffix('\n').unwrap_or(&buf);
            let line = line.strip_suffix('\r').unwrap_or(line);
            if i == 0 && line.starts_with("arrival_ps") {
                continue; // header
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let arrival: u64 = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| err("bad arrival"))?;
            if arrival > MAX_SIM_TIME.as_ps() {
                return Err(err("arrival past the 1 s simulated-time limit"));
            }
            let arrival = Time::from_ps(arrival);
            if trace.records.last().is_some_and(|r| r.arrival > arrival) {
                return Err(err("arrival before the previous record's"));
            }
            let kind = fields
                .next()
                .and_then(|f| kind_from_code(f.trim()))
                .ok_or_else(|| err("bad kind"))?;
            let line_addr: u64 = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| err("bad line"))?;
            let core: u32 = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| err("bad core"))?;
            trace.push(TraceRecord {
                arrival,
                kind,
                line: LineAddr::new(line_addr),
                core: CoreId(core),
            });
        }
        Ok(trace)
    }
}

/// Result of replaying a trace against a memory configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayResult {
    /// Memory statistics of the replay.
    pub mem: MemStats,
    /// Energy breakdown of the replay (the report names the IDD
    /// current set matching the substrate).
    pub energy: fbd_power::EnergyReport,
    /// Instant the last transaction completed.
    pub finished: Time,
    /// Stage × request-class latency attribution over the replayed
    /// reads and writes.
    pub profile: StageProfile,
    /// Always-on per-channel traffic counters, indexed by channel.
    pub channels: Vec<ChannelCounters>,
    /// Error/recovery summary when the configuration enabled fault
    /// injection (`None` on a no-fault replay).
    pub faults: Option<FaultReport>,
}

impl ReplayResult {
    /// Utilized bandwidth over the replay.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.mem
            .utilized_bandwidth_gbps(self.finished.saturating_since(Time::ZERO))
    }
}

/// Replays `trace` against a fresh memory subsystem built from `cfg`,
/// keeping the recorded arrival times (open-loop). The records are
/// submitted in trace order, which [`MemoryTrace`] keeps in arrival
/// order, as [`MemorySystem::submit`] requires.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn replay(cfg: &MemoryConfig, trace: &MemoryTrace) -> ReplayResult {
    replay_on(EventQueue::from_env(), cfg, trace).0
}

/// [`replay`] on a given event queue; also returns the number of event
/// handler runs.
fn replay_on(
    events: EventQueue<Event>,
    cfg: &MemoryConfig,
    trace: &MemoryTrace,
) -> (ReplayResult, u64) {
    let mut mem = MemorySystem::new(cfg);
    let requests = trace
        .records()
        .iter()
        .enumerate()
        .map(|(i, r)| MemRequest::new(RequestId(i as u64), r.core, r.kind, r.line, r.arrival));
    let mut engine = Engine::new(events, 0);
    engine.run(&mut mem, &mut Stream(Some(requests)));
    let finished = engine.finished;
    let result = ReplayResult {
        energy: mem.energy_report(finished),
        finished,
        profile: mem.latency_profile().clone(),
        channels: mem.channel_counters(),
        faults: mem.fault_report(finished),
        mem: mem.finish_stats(),
    };
    (result, engine.runs)
}

/// Runs `requests` through `mem` open-loop: submits every request up
/// front (each keeps its own arrival time), then runs decisions and
/// completions on the shared event loop until `mem` drains (a channel
/// left with work when the events run out is woken at the last event
/// time). Takes telemetry epoch snapshots when `mem` samples. Returns
/// the instant the last issued transaction completed ([`Time::ZERO`] if
/// none was issued).
///
/// This is the open-loop front end of [`replay`]; use it directly to
/// drive a hand-built [`MemorySystem`] (e.g. one with telemetry
/// enabled) from a synthetic request stream.
///
/// # Panics
///
/// Panics if `requests` are not in arrival order: each is handed to
/// [`MemorySystem::submit`] in turn.
pub fn drive(mem: &mut MemorySystem, requests: impl IntoIterator<Item = MemRequest>) -> Time {
    let mut engine = Engine::new(EventQueue::from_env(), 0);
    engine.run(mem, &mut Stream(Some(requests.into_iter())));
    engine.finished
}

/// An open-loop request stream: submits every request on the first
/// pump and is never done, so the run ends when `mem` drains.
struct Stream<I>(Option<I>);

impl<I: Iterator<Item = MemRequest>> FrontEnd for Stream<I> {
    const COMPLETIONS_FIRST: bool = true;

    fn pump(&mut self, _now: Time, out: &mut Vec<MemRequest>) -> Option<Time> {
        if let Some(requests) = self.0.take() {
            out.extend(requests);
        }
        None
    }
}

/// Dur helper for the replay result (re-exported convenience).
pub fn elapsed(result: &ReplayResult) -> Dur {
    result.finished.saturating_since(Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryTrace {
        let mut t = MemoryTrace::new();
        for i in 0..20u64 {
            t.push(TraceRecord {
                arrival: Time::from_ns(i * 50),
                kind: if i % 5 == 4 {
                    AccessKind::Write
                } else {
                    AccessKind::DemandRead
                },
                line: LineAddr::new(i * 7),
                core: CoreId((i % 2) as u32),
            });
        }
        t
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn push_rejects_an_arrival_that_goes_backwards() {
        let mut t = sample();
        t.push(TraceRecord {
            arrival: Time::from_ns(1),
            ..t.records()[0]
        });
    }

    #[test]
    fn csv_round_trips() {
        let t = sample();
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let back = MemoryTrace::from_csv(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn malformed_csv_reports_line() {
        let bad = "arrival_ps,kind,line,core\n123,X,4,0\n";
        let err = MemoryTrace::from_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        assert!(err.to_string().contains("bad kind"));
    }

    #[test]
    fn truncated_row_reports_line_not_panics() {
        // A row cut off mid-record (e.g. a truncated download) must
        // surface as a parse error naming the offset, never a panic.
        let bad = "arrival_ps,kind,line,core\n100,R,7,0\n200,W";
        let err = MemoryTrace::from_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("bad line"), "{err}");
        // Missing only the core field.
        let bad = "arrival_ps,kind,line,core\n100,R,7\n";
        let err = MemoryTrace::from_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("bad core"), "{err}");
        // Binary garbage on the first data row.
        let mut bytes = b"arrival_ps,kind,line,core\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0x00, b'\n']);
        let err = MemoryTrace::from_csv(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn replay_reports_faults_only_when_injecting() {
        let t = sample();
        let clean = replay(&MemoryConfig::fbdimm_default(), &t);
        assert!(clean.faults.is_none());
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = 1e-4;
        let faulted = replay(&cfg, &t);
        let report = faulted.faults.expect("fault injection was on");
        assert!(report.counters.injected > 0, "{report:?}");
        assert_eq!(report.counters.detected, report.counters.injected);
    }

    #[test]
    fn replay_serves_every_transaction() {
        let t = sample();
        let result = replay(&MemoryConfig::fbdimm_default(), &t);
        assert_eq!(result.mem.demand_reads, 16);
        assert_eq!(result.mem.writes, 4);
        assert!(result.finished > Time::from_ns(950));
        assert!(result.bandwidth_gbps() > 0.0);
    }

    #[test]
    fn drive_serves_a_request_admitted_from_the_backlog() {
        // A one-entry queue: the channel-1 read is admitted, the
        // channel-0 read waits in the backlog. Channel 0's only decision
        // runs while its read is still backlogged; taking the channel-1
        // entry admits it later, with no decision of channel 0 left.
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.queue_capacity = 1;
        let mapper = fbd_ctrl::InterleavedMapper::new(&cfg);
        let line_on = |ch: u32| {
            (0..)
                .map(LineAddr::new)
                .find(|l| mapper.map(*l).channel == ch)
                .unwrap()
        };
        let read = |id: u64, line: LineAddr| {
            MemRequest::new(
                RequestId(id),
                CoreId(0),
                AccessKind::DemandRead,
                line,
                Time::ZERO,
            )
        };
        let mut mem = MemorySystem::new(&cfg);
        let finished = drive(&mut mem, [read(0, line_on(1)), read(1, line_on(0))]);
        assert!(!mem.has_work(0), "channel 0's read was never issued");
        assert_eq!(mem.stats().demand_reads, 2);
        assert!(finished > Time::ZERO);
    }

    /// A seeded open-loop read/write trace: exponential gaps of mean
    /// 20 ns, a third writes, half the records from four sequential
    /// streams and half from random lines.
    fn rw_trace(records: u64, seed: u64) -> MemoryTrace {
        let mut x = seed;
        let mut uniform = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut streams = [1u64 << 12, 1 << 16, 1 << 18, 1 << 20];
        let mut t = MemoryTrace::new();
        let mut at_ps = 0.0;
        for _ in 0..records {
            at_ps += -(1.0 - uniform()).ln() * 20_000.0;
            let kind = if uniform() < 1.0 / 3.0 {
                AccessKind::Write
            } else {
                AccessKind::DemandRead
            };
            let (line, core) = if uniform() < 0.5 {
                let s = (uniform() * 4.0) as usize;
                streams[s] += 1;
                (streams[s], s as u32)
            } else {
                ((uniform() * (1u64 << 22) as f64) as u64, 0)
            };
            t.push(TraceRecord {
                arrival: Time::from_ps(at_ps as u64),
                kind,
                line: LineAddr::new(line),
                core: CoreId(core),
            });
        }
        t
    }

    /// The wheel runs an idle decision once for all its same-instant
    /// duplicates; the heap runs every one. Results must not differ,
    /// under faults, scrub, fail-back and re-issue.
    fn assert_forwarding_matches_the_unbatched_heap(substrate: &str) {
        use fbd_types::config::{FaultConfig, ScrubPolicyKind};
        let trace = rw_trace(3_000, 0x9e37_79b9_7f4a_7c15);
        let mut cfg = fbd_types::substrate::substrates()
            .get(substrate)
            .expect("registered substrate")
            .config();
        cfg.faults = FaultConfig {
            ber: 1e-3,
            seed: 1,
            crc_bits: 4,
            scrub: ScrubPolicyKind::Patrol,
            scrub_interval_ns: 200,
            failback_quiet_ns: 2_000,
            reissue_budget: 8,
            ..FaultConfig::off()
        };
        let wheel = EventQueue::Wheel(crate::events::EventWheel::new());
        let (wheel, wheel_runs) = replay_on(wheel, &cfg, &trace);
        let heap = EventQueue::Heap(std::collections::BinaryHeap::new());
        let (heap, heap_runs) = replay_on(heap, &cfg, &trace);
        assert_eq!(wheel, heap, "{substrate}");
        // Linear: about one completion, one issuing decision and three
        // idle ones per record (~5.6 runs here), where re-running every
        // duplicate costs about n/2 decisions per record.
        let per_record = wheel_runs as f64 / trace.len() as f64;
        assert!(per_record <= 8.0, "{substrate}: {per_record} runs/record");
        assert!(heap_runs > 100 * wheel_runs, "{substrate}");
    }

    #[test]
    fn forwarded_idle_decisions_match_the_heap_on_fbd_ap() {
        assert_forwarding_matches_the_unbatched_heap("fbd-ap");
    }

    #[test]
    fn forwarded_idle_decisions_match_the_heap_on_ddr2() {
        assert_forwarding_matches_the_unbatched_heap("ddr2");
    }

    #[test]
    fn replay_is_deterministic_and_config_sensitive() {
        let t = sample();
        let a = replay(&MemoryConfig::fbdimm_default(), &t);
        let b = replay(&MemoryConfig::fbdimm_default(), &t);
        assert_eq!(a.finished, b.finished);
        // Prefetching changes the DRAM operation mix on the same trace.
        let ap = replay(&MemoryConfig::fbdimm_with_prefetch(), &t);
        assert!(ap.mem.lines_prefetched > 0);
    }
}
