//! The one event loop, shared by closed-loop runs and open-loop replay.
//!
//! [`Engine::run`] couples a [`FrontEnd`] to a [`MemorySystem`] on one
//! [`EventQueue`]. The processor complex is the closed-loop front end
//! ([`crate::System`]); an open-loop request stream, submitted up front,
//! is the other ([`crate::drive`], [`crate::replay`]).

use fbd_telemetry::host::{Counter, HostHandle, Phase};
use fbd_telemetry::Telemetry;
use fbd_types::request::MemRequest;
use fbd_types::time::Time;
use fbd_types::LineAddr;

use crate::events::EventQueue;
use crate::memsys::{Issued, MemorySystem};
use crate::trace_io::{MemoryTrace, TraceRecord};

/// Retired requests after which the run is considered to be in
/// allocation steady state (every pool and scratch buffer has hit its
/// high-water mark); the `alloc-count` gate measures from here.
const STEADY_RETIRED: u64 = 1_000;

/// A source of memory requests driving the loop.
pub(crate) trait FrontEnd {
    /// Whether a transfer's completion sorts before a decision at the
    /// same instant. Open-loop replay completes first and the closed
    /// loop decides first; each order is pinned by the goldens.
    const COMPLETIONS_FIRST: bool;

    /// Appends the requests ready at `now` to `out` and returns when the
    /// front end next wants to be pumped without a completion.
    fn pump(&mut self, now: Time, out: &mut Vec<MemRequest>) -> Option<Time>;

    /// A read of `line` completed at the controller at `now`; `dropped`
    /// marks a transfer whose northbound data was lost to a fault.
    fn read_done(&mut self, _now: Time, _line: LineAddr, _dropped: bool) {}

    /// Whether the run stops at `now` (by default it runs until no
    /// event is left).
    fn done(&self, _now: Time) -> bool {
        false
    }

    /// Sets the front end's own gauges before an epoch snapshot.
    fn set_gauges(&self, _tel: &mut Telemetry) {}
}

/// An event of the loop. Same-instant events pop in variant order, so a
/// [`FrontEnd::COMPLETIONS_FIRST`] front end's completions (`Done`) run
/// before decisions, and the closed loop's (`ReadDone`, `WriteDone`)
/// after them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    /// A completions-first front end's transfer finished on a channel.
    Done(u32),
    /// Run a scheduling decision for a logical channel.
    Decide(u32),
    /// A read completed (line, dropped northbound data).
    ReadDone(u32, LineAddr, bool),
    /// A write finished at the devices.
    WriteDone(u32),
    /// The front end's self-wake.
    Wake,
}

/// The loop's state; after [`run`](Self::run) its public fields say how
/// the run ended.
#[derive(Debug)]
pub(crate) struct Engine {
    events: EventQueue<Event>,
    /// The instant of the last event handled.
    pub now: Time,
    /// When the last issued transfer completed (or [`Time::ZERO`]).
    pub finished: Time,
    /// Event handler runs, epoch snapshots included.
    pub runs: u64,
    /// Records every request handed to the controller, when set.
    pub capture: Option<MemoryTrace>,
    /// Receives phase marks and hot-loop counters.
    pub host: HostHandle,
    retired: u64,
    /// Earliest outstanding [`Event::Wake`], or a past time when none is
    /// queued. A later wake would only be a no-op pump: the earlier one
    /// re-pumps and re-schedules.
    wake_at: Time,
    /// Next telemetry epoch deadline ([`Time::NEVER`] when not sampling).
    sample_due: Time,
    /// Scratch buffers reused so the steady-state loop never allocates.
    req_buf: Vec<MemRequest>,
    issued_buf: Vec<Issued>,
}

impl Engine {
    /// A loop on `events` that has not run; `max_pump` sizes the pump
    /// scratch to the front end's per-pump ceiling.
    pub(crate) fn new(events: EventQueue<Event>, max_pump: usize) -> Engine {
        Engine {
            events,
            now: Time::ZERO,
            finished: Time::ZERO,
            runs: 0,
            capture: None,
            host: HostHandle::off(),
            retired: 0,
            wake_at: Time::ZERO,
            sample_due: Time::NEVER,
            req_buf: Vec::with_capacity(max_pump),
            issued_buf: Vec::with_capacity(64),
        }
    }

    /// Runs `front` against `mem` until the front end is done or no
    /// event is left.
    ///
    /// Epoch snapshots are deadlines rather than events: each is taken
    /// when the first event past it pops, which orders it after every
    /// event at its own instant, and a drained queue ends the run without
    /// one. Sampling thus never moves the end-of-events wake.
    pub(crate) fn run<F: FrontEnd>(&mut self, mem: &mut MemorySystem, front: &mut F) {
        self.sample_due = mem.next_sample_due();
        self.pump(mem, front);
        'run: loop {
            let Some((at, ev, count)) = self.events.pop() else {
                // Out of events with work left: a request admitted from
                // the backlog by another channel's take, after every
                // decision of its own channel had run. Wake each such
                // channel now.
                let mut woke = false;
                for ch in 0..mem.config().logical_channels {
                    if mem.has_work(ch) {
                        self.events.push(self.now, Event::Decide(ch), true);
                        woke = true;
                    }
                }
                if !woke {
                    break;
                }
                continue;
            };
            while self.sample_due < at {
                self.now = self.sample_due;
                self.sample(mem, front);
                if front.done(self.now) {
                    break 'run;
                }
            }
            self.now = self.now.max(at);
            // `count` > 1 only for deduped same-instant decisions. The
            // heap pops those back to back, so re-running the handler —
            // with the finish check between runs, which the handler
            // cannot perturb — reproduces it exactly. An idle decision
            // forwards the runs left instead.
            for i in 0..count {
                self.runs += 1;
                self.host.bump(Counter::Events);
                let mut forwarded = false;
                match ev {
                    Event::Decide(ch) => forwarded = self.decide::<F>(mem, ch, count - i),
                    Event::Done(ch) | Event::ReadDone(ch, ..) | Event::WriteDone(ch) => {
                        mem.complete(ch);
                        if let Event::ReadDone(_, line, dropped) = ev {
                            front.read_done(self.now, line, dropped);
                            self.pump(mem, front);
                        }
                        if mem.has_work(ch) {
                            self.events.push(self.now, Event::Decide(ch), true);
                        }
                        self.host.bump(Counter::RequestsRetired);
                        self.retired += 1;
                        if self.retired == STEADY_RETIRED {
                            self.host.note_steady_start();
                        }
                        self.host.mark_sampled(Phase::Controller);
                    }
                    Event::Wake => self.pump(mem, front),
                }
                if front.done(self.now) {
                    break 'run;
                }
                if forwarded {
                    break;
                }
            }
        }
        // Stats collection after the loop legitimately allocates.
        self.host.note_steady_end();
    }

    /// Pulls new requests from the front end, submits them with their
    /// channel decisions, and schedules the front end's next wake.
    fn pump<F: FrontEnd>(&mut self, mem: &mut MemorySystem, front: &mut F) {
        let next_wake = front.pump(self.now, &mut self.req_buf);
        self.host.mark_sampled(Phase::Cpu);
        for req in self.req_buf.drain(..) {
            if let Some(trace) = self.capture.as_mut() {
                trace.push(TraceRecord {
                    arrival: req.arrival,
                    kind: req.kind,
                    line: req.line,
                    core: req.core,
                });
            }
            let (ch, ready) = mem.submit(req);
            self.events
                .push(ready.max(self.now), Event::Decide(ch), true);
        }
        if let Some(wake) = next_wake {
            if wake > self.now && (self.wake_at <= self.now || wake < self.wake_at) {
                self.events.push(wake, Event::Wake, false);
                self.wake_at = wake;
            }
        }
        self.host.mark_sampled(Phase::Controller);
    }

    /// Runs one decision for `ch`, the first of `runs` identical queued
    /// tokens. Returns `true` when it issued nothing: an idle decision is
    /// idempotent at `now` (see [`MemorySystem::decide_into`]), so the
    /// other `runs - 1` would each issue nothing and push the same next
    /// decision; that push carries all `runs` and the caller skips them.
    fn decide<F: FrontEnd>(&mut self, mem: &mut MemorySystem, ch: u32, runs: u32) -> bool {
        let next_decision = mem.decide_into(ch, self.now, &mut self.issued_buf);
        let idle = self.issued_buf.is_empty();
        for issued in self.issued_buf.drain(..) {
            let (at, ev) = match issued {
                Issued::Read { resp } if F::COMPLETIONS_FIRST => (resp.completion, Event::Done(ch)),
                Issued::Write { done } if F::COMPLETIONS_FIRST => (done, Event::Done(ch)),
                Issued::Read { resp } => (
                    resp.completion,
                    Event::ReadDone(ch, resp.line, resp.dropped),
                ),
                Issued::Write { done } => (done, Event::WriteDone(ch)),
            };
            // A completion never lands between the runs of a deduped
            // decision, which the loop's count replay relies on.
            assert!(at > self.now, "a transfer completes after its decision");
            self.finished = self.finished.max(at);
            self.events.push(at.max(self.now), ev, false);
        }
        if let Some(next) = next_decision {
            let n = if idle { runs } else { 1 };
            self.events.push_n(next.max(self.now), Event::Decide(ch), n);
        }
        self.host.mark_sampled(Phase::Controller);
        self.host.bump(Counter::Decisions);
        idle
    }

    /// Takes an epoch snapshot at `now`; the next is due strictly later.
    fn sample<F: FrontEnd>(&mut self, mem: &mut MemorySystem, front: &F) {
        self.runs += 1;
        self.host.bump(Counter::Events);
        if let Some(tel) = mem.telemetry_mut() {
            front.set_gauges(tel);
        }
        mem.sample_telemetry(self.now);
        self.sample_due = mem.next_sample_due();
        self.host.mark_sampled(Phase::Telemetry);
    }
}
