//! Traced copies of the simulator's two event loops.
//!
//! `System::run` and `fbd_core::replay` keep their loop state private,
//! so the traced run re-assembles each loop from the same public calls
//! in the same order — `CpuComplex::advance_into/complete`,
//! `MemorySystem::submit/decide_into/complete/has_work` and
//! `EventQueue::push/pop` for `System::run`; `submit/decide/complete/
//! has_work` and the same `BinaryHeap` for `replay` — and times every
//! call from outside. The copies must stay
//! step-for-step faithful: the benchmark rejects a traced run whose
//! simulated result differs in any bit from the untraced run's.
//!
//! Spans are not nested (each wraps one call made from the loop body),
//! so a span's self time is its whole duration, and loop time under no
//! span is the loop's own bookkeeping plus timer overhead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use fbd_core::events::EventQueue;
use fbd_core::{Issued, MemoryTrace, ReplayResult, RunResult};
use fbd_cpu::{CpuComplex, TraceSource};
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::request::MemRequest;
use fbd_types::time::Time;
use fbd_types::{LineAddr, RequestId};

/// A timed public entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `CpuComplex::advance_into`.
    CpuAdvance,
    /// `CpuComplex::complete` / `complete_dropped`.
    CpuComplete,
    /// `MemorySystem::submit`.
    MemSubmit,
    /// `MemorySystem::decide_into` / `decide`.
    MemDecide,
    /// `MemorySystem::complete`.
    MemComplete,
    /// `MemorySystem::has_work`.
    MemHasWork,
    /// Event-queue push.
    EvPush,
    /// Event-queue pop.
    EvPop,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 8] = [
        Op::CpuAdvance,
        Op::CpuComplete,
        Op::MemSubmit,
        Op::MemDecide,
        Op::MemComplete,
        Op::MemHasWork,
        Op::EvPush,
        Op::EvPop,
    ];

    /// Metric-name stem (`<layer>.<call>`).
    pub const fn name(self) -> &'static str {
        match self {
            Op::CpuAdvance => "cpu.advance",
            Op::CpuComplete => "cpu.complete",
            Op::MemSubmit => "memsys.submit",
            Op::MemDecide => "memsys.decide",
            Op::MemComplete => "memsys.complete",
            Op::MemHasWork => "memsys.has_work",
            Op::EvPush => "events.push",
            Op::EvPop => "events.pop",
        }
    }

    /// The layer the op belongs to.
    pub const fn layer(self) -> &'static str {
        match self {
            Op::CpuAdvance | Op::CpuComplete => "cpu",
            Op::MemSubmit | Op::MemDecide | Op::MemComplete | Op::MemHasWork => "memsys",
            Op::EvPush | Op::EvPop => "events",
        }
    }
}

/// Per-op call counts and summed span time, plus the counts the
/// per-layer ratios need.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Calls per op, indexed like [`Op::ALL`].
    pub calls: [u64; 8],
    /// Summed span time per op.
    pub time: [Duration; 8],
    /// Transactions issued by all decisions.
    pub issued: u64,
    /// Handler runs (pop multiplicities summed).
    pub handler_runs: u64,
    /// Requests the cores emitted.
    pub requests_emitted: u64,
    /// The hot loop, to the stop condition (replay: from the first
    /// submit).
    pub loop_time: Duration,
    /// Result collection after the loop.
    pub collect_time: Duration,
}

impl Spans {
    /// Runs `f` as one span of `op`.
    #[inline]
    fn time<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.time[op as usize] += t.elapsed();
        self.calls[op as usize] += 1;
        r
    }

    /// Calls made to `op`.
    pub fn calls_of(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    /// Seconds spent in `op`.
    pub fn secs_of(&self, op: Op) -> f64 {
        self.time[op as usize].as_secs_f64()
    }

    /// Seconds of the hot loop covered by no span.
    pub fn unattributed_s(&self) -> f64 {
        let spans: Duration = self.time.iter().sum();
        self.loop_time.saturating_sub(spans).as_secs_f64()
    }
}

/// `System`'s private event type, same variants, fields and order, so
/// `(Time, Event)` keys compare — and pop — exactly as there. Its last
/// variant, the telemetry `Sample`, is left out: the benchmark runs
/// without sampling, so it is never queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Decide(u32),
    ReadDone(u32, LineAddr, bool),
    WriteDone(u32),
    CpuWake,
}

/// The closed-loop system, built like `System::composed` builds it.
pub struct Closed {
    cpu: CpuComplex,
    mem: fbd_core::MemorySystem,
    events: EventQueue<Event>,
    now: Time,
    req_buf: Vec<MemRequest>,
    issued_buf: Vec<Issued>,
    cpu_wake_at: Time,
    spans: Spans,
}

impl Closed {
    /// Builds the system from a configuration, composition and traces.
    ///
    /// # Errors
    ///
    /// Returns the configuration or composition error `System::composed`
    /// would.
    pub fn new(
        cfg: &SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        budget: u64,
        comp: &fbd_core::Composition,
    ) -> Result<Closed, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        let mem = fbd_core::MemorySystem::compose(&cfg.mem, comp)?;
        Ok(Closed {
            cpu: CpuComplex::new(&cfg.cpu, traces, budget),
            mem,
            events: EventQueue::from_env(),
            now: Time::ZERO,
            req_buf: Vec::with_capacity(cfg.cpu.l2_mshrs as usize * 2 + 64),
            issued_buf: Vec::with_capacity(64),
            cpu_wake_at: Time::ZERO,
            spans: Spans::default(),
        })
    }

    /// The L2 warm-up `System::warm` runs.
    pub fn warm(&mut self, ops_per_core: u64) {
        self.cpu.warm_l2(ops_per_core);
    }

    fn push(&mut self, at: Time, ev: Event) {
        let dedup = matches!(ev, Event::Decide(_));
        let events = &mut self.events;
        self.spans.time(Op::EvPush, || events.push(at, ev, dedup));
    }

    fn pump_cpu(&mut self) {
        let mut reqs = std::mem::take(&mut self.req_buf);
        let (cpu, now) = (&mut self.cpu, self.now);
        let next_wake = self
            .spans
            .time(Op::CpuAdvance, || cpu.advance_into(now, &mut reqs));
        self.spans.requests_emitted += reqs.len() as u64;
        for req in reqs.drain(..) {
            let mem = &mut self.mem;
            let (ch, ready) = self.spans.time(Op::MemSubmit, || mem.submit(req));
            self.push(ready.max(self.now), Event::Decide(ch));
        }
        self.req_buf = reqs;
        if let Some(wake) = next_wake {
            if wake > self.now && (self.cpu_wake_at <= self.now || wake < self.cpu_wake_at) {
                self.push(wake, Event::CpuWake);
                self.cpu_wake_at = wake;
            }
        }
    }

    fn run_decision(&mut self, ch: u32) {
        let mut issued = std::mem::take(&mut self.issued_buf);
        let (mem, now) = (&mut self.mem, self.now);
        let next = self
            .spans
            .time(Op::MemDecide, || mem.decide_into(ch, now, &mut issued));
        self.spans.issued += issued.len() as u64;
        for i in issued.drain(..) {
            match i {
                Issued::Read { resp } => {
                    self.push(
                        resp.completion,
                        Event::ReadDone(ch, resp.line, resp.dropped),
                    );
                }
                Issued::Write { done } => self.push(done.max(self.now), Event::WriteDone(ch)),
            }
        }
        self.issued_buf = issued;
        if let Some(next) = next {
            self.push(next.max(self.now), Event::Decide(ch));
        }
    }

    fn has_work(&mut self, ch: u32) -> bool {
        let mem = &self.mem;
        self.spans.time(Op::MemHasWork, || mem.has_work(ch))
    }

    fn mem_complete(&mut self, ch: u32) {
        let mem = &mut self.mem;
        self.spans.time(Op::MemComplete, || mem.complete(ch));
    }

    /// Runs to the stop condition, exactly as `System::run`, and
    /// returns its result with the spans recorded on the way.
    ///
    /// # Panics
    ///
    /// Panics where `System::run` would (deadlock, time limit).
    pub fn run(mut self) -> (RunResult, Spans) {
        let start = Instant::now();
        self.pump_cpu();
        assert_eq!(
            self.mem.next_sample_due(),
            Time::NEVER,
            "the benchmark runs without telemetry sampling"
        );
        'run: loop {
            let events = &mut self.events;
            let Some((at, ev, count)) = self.spans.time(Op::EvPop, || events.pop()) else {
                panic!("simulation deadlock: no events pending and no core finished");
            };
            assert!(at <= Time::from_ns(1_000_000_000), "safety time limit");
            self.now = self.now.max(at);
            for _ in 0..count {
                self.spans.handler_runs += 1;
                match ev {
                    Event::Decide(ch) => self.run_decision(ch),
                    Event::ReadDone(ch, line, dropped) => {
                        self.mem_complete(ch);
                        let deliver = self.now + self.cpu.fill_latency();
                        let cpu = &mut self.cpu;
                        self.spans.time(Op::CpuComplete, || {
                            if dropped {
                                cpu.complete_dropped(line, deliver);
                            } else {
                                cpu.complete(line, deliver);
                            }
                        });
                        self.pump_cpu();
                        if self.has_work(ch) {
                            self.push(self.now, Event::Decide(ch));
                        }
                    }
                    Event::WriteDone(ch) => {
                        self.mem_complete(ch);
                        if self.has_work(ch) {
                            self.push(self.now, Event::Decide(ch));
                        }
                    }
                    Event::CpuWake => self.pump_cpu(),
                }
                if self.cpu.any_done(self.now) {
                    break 'run;
                }
            }
        }
        let collect = Instant::now();
        self.spans.loop_time = collect - start;
        let elapsed = self.now - Time::ZERO;
        let cores = self.cpu.finish(self.now);
        let telemetry = self.mem.finish_telemetry(self.now);
        let mem = self.mem.finish_stats();
        let result = RunResult {
            elapsed,
            cores,
            mem,
            channels: self.mem.channel_counters().to_vec(),
            energy: self.mem.energy_report(self.now),
            profile: self.mem.latency_profile().clone(),
            faults: self.mem.fault_report(self.now),
            trace: None,
            telemetry,
            host: Default::default(),
        };
        self.spans.collect_time = collect.elapsed();
        (result, self.spans)
    }
}

/// `fbd_core::replay`, step for step, with spans.
///
/// # Panics
///
/// Panics if the configuration is invalid, as `replay` does.
pub fn replay(cfg: &MemoryConfig, trace: &MemoryTrace) -> (ReplayResult, Spans) {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Done(u32),
        Decide(u32),
    }
    let mut s = Spans::default();
    let mut mem = fbd_core::MemorySystem::new(cfg);
    let start = Instant::now();
    let mut events: BinaryHeap<Reverse<(Time, Ev)>> = BinaryHeap::new();
    for (i, r) in trace.records().iter().enumerate() {
        let req = MemRequest::new(RequestId(i as u64), r.core, r.kind, r.line, r.arrival);
        let (ch, ready) = s.time(Op::MemSubmit, || mem.submit(req));
        s.time(Op::EvPush, || events.push(Reverse((ready, Ev::Decide(ch)))));
    }
    let mut finished = Time::ZERO;
    while let Some(Reverse((t, ev))) = s.time(Op::EvPop, || events.pop()) {
        s.handler_runs += 1;
        match ev {
            Ev::Decide(ch) => {
                let result = s.time(Op::MemDecide, || mem.decide(ch, t));
                s.issued += result.issued.len() as u64;
                for issued in result.issued {
                    let done = match issued {
                        Issued::Read { resp } => resp.completion,
                        Issued::Write { done } => done,
                    };
                    finished = finished.max(done);
                    s.time(Op::EvPush, || {
                        events.push(Reverse((done.max(t), Ev::Done(ch))))
                    });
                }
                if let Some(next) = result.next_decision {
                    s.time(Op::EvPush, || {
                        events.push(Reverse((next.max(t), Ev::Decide(ch))))
                    });
                }
            }
            Ev::Done(ch) => {
                s.time(Op::MemComplete, || mem.complete(ch));
                if s.time(Op::MemHasWork, || mem.has_work(ch)) {
                    s.time(Op::EvPush, || events.push(Reverse((t, Ev::Decide(ch)))));
                }
            }
        }
    }
    let collect = Instant::now();
    s.loop_time = collect - start;
    let result = ReplayResult {
        energy: mem.energy_report(finished),
        finished,
        profile: mem.latency_profile().clone(),
        channels: mem.channel_counters().to_vec(),
        faults: mem.fault_report(finished),
        mem: mem.finish_stats(),
    };
    s.collect_time = collect.elapsed();
    (result, s)
}
