//! The complete memory subsystem: controller policy wired to a datapath.
//!
//! One [`MemorySystem`] owns the address mapper and the transaction
//! queue, and orchestrates one channel per logical channel.
//! The queue is Table 1's single 64-entry buffer: it keeps which entry
//! belongs to which channel (one bucket each, under the shared
//! capacity) and the FIFO backlog of requests that arrived while it was
//! full. Everything else a channel's decisions touch is the channel's
//! own: its scheduler, its AMBs' prefetch-buffer tags (paper §3.2: "the
//! memory controller holds the tag part of the cache"), its refresh
//! manager and patrol scrub, its ranks' power-mode trackers, its
//! dropped-prefetch re-issue queue, its read and write counts, its link
//! and its DRAM devices. The devices are the same on both datapaths, a
//! table of [`RankGroup`]s indexed by the `dimm * ranks + rank` slot;
//! only their bus scope and the link in front differ:
//!
//! * **FB-DIMM**: southbound/northbound links ([`fbd_link::FbdChannel`])
//!   in front of one group per DIMM, each on its AMB's private bus;
//! * **DDR2** baseline: a shared command bus
//!   ([`fbd_link::Ddr2CommandBus`]) in front of one group holding every
//!   rank of the channel on the shared data bus.
//!
//! The subsystem is driven by *decision events*: at each decision
//! instant for a channel its scheduler picks the best ready transaction
//! in the channel's bucket (hit-first, read-priority) and issues it,
//! reserving link/bus/bank time and computing the completion
//! analytically. Taking the entry out of the queue admits backlogged
//! requests before it executes. One decision issues at most one
//! transaction (a DDR2 write drain is the exception), and the next
//! decision follows one command slot later, so scheduling stays
//! fine-grained.
//!
//! Every transaction, read or write, on either datapath, runs through
//! one `MemorySystem::execute`: its counters once, then the only
//! substrate branch, a match on the channel's link with three arms
//! (FB-DIMM read with the AMB prefetch buffer in front of the devices,
//! FB-DIMM posted write, DDR2 access), then the power, recovery,
//! statistics and latency-profile bookkeeping once.
//!
//! Each reported count has one increment site, in the component doing
//! the work: a channel counts its reads and writes, each AMB's
//! [`PrefetchBuffer`] its hits, insertions and evictions, each rank its
//! DRAM operations. [`MemStats`] folds them in when it is read, and the
//! telemetry registry is written from them at each epoch snapshot and
//! at finish.

use std::collections::VecDeque;

use fbd_amb::{PrefetchBuffer, PrefetchCounts};
use fbd_ctrl::{
    schedulers, InterleavedMapper, MappedAddr, PatrolScrub, QueueEntry, RefreshOp, SchedClass,
    SchedulerPolicy, StaggeredRefresh, TransactionQueue, CONTROLLER_OVERHEAD,
};
use fbd_dram::{AccessPlan, ColKind, RankGroup};
use fbd_faults::{FaultCounters, FaultReport, SilentErrorReport};
use fbd_link::{Ddr2CommandBus, FbdChannel, LinkXfer};
use fbd_power::{EnergyModel, EnergyReport, ModeSpan, PowerModeTracker, RankActivity};
use fbd_telemetry::host::{Counter, HostHandle, Phase};
use fbd_telemetry::{
    tid_bank, tid_dimm, tid_power, Json, MetricId, StageProfile, Telemetry, TelemetryConfig,
    Tracer, TID_NORTH, TID_SOUTH,
};
use fbd_types::config::{AmbPrefetchMode, MemoryConfig, MemoryTech, PagePolicy};
use fbd_types::request::{
    AccessKind, CoreId, MemRequest, MemResponse, ReqClass, RequestId, ServiceKind, Stage,
    StageBreakdown,
};
use fbd_types::stats::{DramOpCounts, LatencyStat, MemStats};
use fbd_types::time::{DataRate, Dur, Time};
use fbd_types::{LineAddr, LineSet, CACHE_LINE_BYTES};

use crate::compose::Composition;

/// Reads in flight per logical channel before the controller stops
/// issuing and waits for completions. Bounds how far reservations run
/// ahead of service, keeping hit-first reordering effective.
const MAX_INFLIGHT_PER_CHANNEL: u32 = 16;

/// Idle timeout of the power-mode residency model: a rank idle longer
/// than this is assumed to be dropped into precharge power-down by the
/// controller (CKE low); shorter gaps stay in precharge standby.
const POWERDOWN_AFTER: Dur = Dur::from_ns(30);

/// An issued transaction, as reported to the simulation engine.
#[derive(Clone, Copy, Debug)]
pub enum Issued {
    /// A read; `resp.completion` is when the critical line reaches the
    /// controller.
    Read {
        /// The completed response.
        resp: MemResponse,
    },
    /// A write; `done` is when its data finishes at the devices.
    Write {
        /// Completion instant (frees the in-flight slot).
        done: Time,
    },
}

/// Outcome of one scheduling decision.
///
/// A decision usually issues at most one transaction; on a shared-bus
/// (DDR2) channel a triggered write drain commits the whole batch in one
/// decision so the following reads' activates overlap the write burst.
#[derive(Clone, Debug, Default)]
pub struct DecideResult {
    /// The transactions issued (empty if none was ready).
    pub issued: Vec<Issued>,
    /// When this channel should next run a decision (None: wait for a
    /// new arrival or a completion).
    pub next_decision: Option<Time>,
}

/// What carries a channel's commands (and, on FB-DIMM, its data) to
/// the DRAM devices.
enum Link {
    /// Southbound/northbound FB-DIMM links to the AMBs.
    Fbd(FbdChannel),
    /// The DDR2 baseline's shared command bus.
    Ddr2(Ddr2CommandBus),
}

/// A channel's DRAM devices: one [`RankGroup`] per data bus, holding
/// `group_ranks` consecutive `dimm * ranks + rank` slots each.
struct Devices {
    groups: Vec<RankGroup>,
    /// Ranks per DIMM.
    ranks: u32,
    group_ranks: usize,
}

impl Devices {
    /// The slot of `(dimm, rank)`, which also indexes the channel's
    /// power-mode trackers.
    fn slot(&self, dimm: u32, rank: u32) -> usize {
        (dimm * self.ranks + rank) as usize
    }

    /// The group serving `slot` and the slot's rank index within it.
    fn at(&self, slot: usize) -> (&RankGroup, usize) {
        (
            &self.groups[slot / self.group_ranks],
            slot % self.group_ranks,
        )
    }

    /// [`at`](Self::at), mutably.
    fn at_mut(&mut self, slot: usize) -> (&mut RankGroup, usize) {
        (
            &mut self.groups[slot / self.group_ranks],
            slot % self.group_ranks,
        )
    }

    /// The bank state the scheduler classifies `m` by: whether its row
    /// is open, the earliest instant its bank can take an ACT, and the
    /// end of its rank's write-to-read turnaround.
    fn bank_state(&self, m: &MappedAddr) -> (bool, Time, Time) {
        let (group, rank) = self.at(self.slot(m.dimm, m.rank));
        let (rank, bank) = (group.rank(rank), m.bank as usize);
        (
            rank.is_row_open(bank, m.row),
            rank.earliest_act(bank),
            rank.read_turnaround_until(),
        )
    }
}

/// One logical channel's controller and datapath state. Which queued
/// transactions belong to it is kept by the shared
/// [`TransactionQueue`], in this channel's bucket.
struct Channel {
    link: Link,
    devices: Devices,
    inflight: u32,
    /// The channel's scheduling policy (drain-mode state is
    /// per-channel).
    sched: Box<dyn SchedulerPolicy>,
    /// Always-on per-rank power-mode trackers, indexed by
    /// [`Devices::slot`], settled at each decision that notes a busy
    /// window (see [`settle_power`]). They feed
    /// [`MemorySystem::energy_report`] and, when telemetry runs, the
    /// residency gauges and power trace tracks.
    power: Vec<PowerModeTracker>,
    /// Dropped prefetch returns remembered for idle-slot re-issue
    /// (bounded by the recovery state's budget; stays empty unless
    /// re-issue is configured).
    reissue: VecDeque<LineAddr>,
    /// The tags of each AMB's prefetch buffer, indexed by DIMM; empty
    /// when AMB prefetching is off, so `amb.get(dimm)` is `None`
    /// exactly then.
    amb: Vec<PrefetchBuffer>,
    /// Decides when each DIMM refreshes; `None` when the config turns
    /// refresh off.
    refresh: Option<StaggeredRefresh>,
    /// Patrol scrubbing; `None` unless the config selects it.
    scrub: Option<PatrolScrub>,
    /// Read transactions issued (all read kinds).
    reads: u64,
    /// Write transactions issued.
    writes: u64,
}

impl Channel {
    /// The channel's traffic counters: its own reads and writes, one
    /// line of data each, and its AMBs' hits.
    fn counters(&self) -> ChannelCounters {
        ChannelCounters {
            reads: self.reads,
            writes: self.writes,
            bytes: (self.reads + self.writes) * CACHE_LINE_BYTES,
            amb_hits: self.prefetch().hits,
        }
    }

    /// The counts of every AMB prefetch buffer on the channel.
    fn prefetch(&self) -> PrefetchCounts {
        self.amb.iter().map(PrefetchBuffer::counts).sum()
    }

    /// DRAM operations of DIMM `dimm`, summed over its ranks.
    fn dimm_ops(&self, dimm: u32) -> DramOpCounts {
        let mut total = DramOpCounts::default();
        for r in 0..self.devices.ranks {
            let (group, rank) = self.devices.at(self.devices.slot(dimm, r));
            total.merge(group.rank(rank).ops());
        }
        total
    }
}

/// Always-on per-channel traffic counters, read from the channel's own
/// counts, so per-channel bandwidth is available to exporters even when
/// telemetry was never enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Read transactions issued on this channel (all read kinds).
    pub reads: u64,
    /// Write transactions issued on this channel.
    pub writes: u64,
    /// Data moved over this channel, in bytes.
    pub bytes: u64,
    /// Reads served from an AMB prefetch cache on this channel.
    pub amb_hits: u64,
}

/// Registry handles for one DIMM's metrics.
struct DimmIds {
    acts: MetricId,
    reads: MetricId,
    writes: MetricId,
    power_active_ns: MetricId,
    power_standby_ns: MetricId,
    power_powerdown_ns: MetricId,
}

/// Registry handles for one channel's metrics.
struct ChanIds {
    reads: MetricId,
    writes: MetricId,
    bytes: MetricId,
    amb_hits: MetricId,
    queue_depth: MetricId,
    inflight: MetricId,
    dimms: Vec<DimmIds>,
}

/// Telemetry state attached to a [`MemorySystem`] when enabled: the
/// registry/sampler/tracer plus the pre-registered metric handles.
/// Boxed behind an `Option` so the telemetry-off hot path pays one
/// pointer test. The transaction path only draws trace events through
/// it; the registry's values are written by [`MemTel::publish`] from
/// the model's own counters.
struct MemTel {
    tel: Telemetry,
    chans: Vec<ChanIds>,
    read_latency: MetricId,
    pf_fills: MetricId,
    pf_evictions: MetricId,
    pf_hits: MetricId,
}

impl MemTel {
    /// Writes the registry's counters, gauges and read-latency
    /// accumulator from the model's own state: each channel's traffic
    /// and prefetch counts, queue depth and in-flight count, each DIMM's
    /// rank operations, every buffer's prefetch counts and the
    /// demand-read latency statistic.
    fn publish(
        &mut self,
        channels: &[Channel],
        queue: &TransactionQueue,
        read_latency: LatencyStat,
    ) {
        let reg = &mut self.tel.registry;
        for ((ch, c), ids) in (0u32..).zip(channels).zip(&self.chans) {
            let counts = c.counters();
            reg.set_counter(ids.reads, counts.reads);
            reg.set_counter(ids.writes, counts.writes);
            reg.set_counter(ids.bytes, counts.bytes);
            reg.set_counter(ids.amb_hits, counts.amb_hits);
            reg.set(ids.queue_depth, queue.bucket(ch).len() as f64);
            reg.set(ids.inflight, f64::from(c.inflight));
            for (d, dimm) in (0u32..).zip(&ids.dimms) {
                let ops = c.dimm_ops(d);
                reg.set_counter(dimm.acts, ops.act_pre);
                reg.set_counter(dimm.reads, ops.col_reads);
                reg.set_counter(dimm.writes, ops.col_writes);
            }
        }
        let prefetch: PrefetchCounts = channels.iter().map(Channel::prefetch).sum();
        reg.set_counter(self.pf_fills, prefetch.inserted);
        reg.set_counter(self.pf_evictions, prefetch.evicted);
        reg.set_counter(self.pf_hits, prefetch.hits);
        reg.set_latency(self.read_latency, read_latency);
    }

    /// A link transfer on the southbound (command `cmd` or write data
    /// `wdata`) or northbound (`data`) track `tid`: the corrupted slots
    /// its replay attempts consumed (shown under fault injection), then
    /// the delivering slot.
    fn link_frames(&mut self, name: &'static str, ch: u32, tid: u32, xfer: &LinkXfer) {
        if let Some(tr) = self.tel.tracer.as_mut() {
            for f in &xfer.failed {
                tr.complete("retry", "link", ch, tid, f.start, f.dur, vec![]);
            }
            let slot = xfer.slot;
            tr.complete(name, "link", ch, tid, slot.start, slot.dur, vec![]);
        }
    }

    /// A committed single-line access to `m` at device slot `slot`:
    /// draws its command spans on the serving bank's track, the row
    /// commands (`PRE`, `ACT`) and then the column command through its
    /// burst. DDR2 (`ddr2`) names the column command as issued
    /// (`RDA`/`WRA` under close page); FB-DIMM draws a plain `RD`/`WR`.
    fn dram_access(&mut self, m: &MappedAddr, slot: usize, plan: &AccessPlan, ddr2: bool) {
        let Some(tr) = self.tel.tracer.as_mut() else {
            return;
        };
        let ch = m.channel;
        let tid = tid_bank(slot, plan.bank);
        row_commands(tr, ch, tid, plan);
        let col = match (ddr2, plan.op.kind.is_read()) {
            (true, _) => plan.commands().last().expect("a column command").0,
            (false, true) => "RD",
            (false, false) => "WR",
        };
        let span = plan.data_end - plan.cmd_at;
        tr.complete(col, "dram", ch, tid, plan.cmd_at, span, vec![]);
    }

    /// A K-line group fetch (one ACT, K pipelined column reads) for `m`
    /// at device slot `slot` whose demanded line was `first` and whose
    /// last line ended at `fill_done`, prefetching the other K−1 lines;
    /// command spans land on the serving bank's track.
    fn group_fetch(
        &mut self,
        m: &MappedAddr,
        slot: usize,
        first: &AccessPlan,
        lines: u32,
        fill_done: Time,
    ) {
        if let Some(tr) = self.tel.tracer.as_mut() {
            let ch = m.channel;
            let tid = tid_bank(slot, first.bank);
            row_commands(tr, ch, tid, first);
            tr.complete(
                format!("RDx{lines}"),
                "dram",
                ch,
                tid,
                first.cmd_at,
                fill_done - first.cmd_at,
                vec![("prefetched", Json::from(u64::from(lines - 1)))],
            );
        }
    }
}

/// Draws `plan`'s row commands on bank track `tid` of channel `ch`: the
/// `PRE` of an open-page row conflict and the `ACT`, each up to the
/// next command. The caller draws the column command.
fn row_commands(tr: &mut Tracer, ch: u32, tid: u32, plan: &AccessPlan) {
    let mut cmds = plan.commands().peekable();
    while let Some((name, at)) = cmds.next() {
        if let Some(&(_, next)) = cmds.peek() {
            tr.complete(name, "dram", ch, tid, at, next - at, vec![]);
        }
    }
}

/// Settles rank `slot`'s power-mode tracker on channel `ch` at
/// `frontier`, drawing each span it folds on the rank's power track
/// when a tracer runs.
///
/// `frontier` is the deciding instant `now`. No later busy window of
/// the channel starts before it: refreshes run first in every decision,
/// so each refresh deadline still pending is later than `now`, and
/// every command of a bank plan is at or after the plan's
/// `not_before`, which is at or after `now`.
fn settle_power(
    tracker: &mut PowerModeTracker,
    frontier: Time,
    mut tracer: Option<&mut Tracer>,
    ch: u32,
    slot: usize,
) {
    tracker.settle(frontier, |span| {
        if let Some(tr) = tracer.as_deref_mut() {
            power_span(tr, ch, slot, span);
        }
    });
}

/// Draws one power-mode span of rank `slot` on channel `ch`.
fn power_span(tr: &mut Tracer, ch: u32, slot: usize, span: ModeSpan) {
    let (label, tid) = (span.mode.label(), tid_power(slot));
    tr.complete(label, "power", ch, tid, span.start, span.dur(), vec![]);
}

/// Controller-originated requests (scrub sweeps, prefetch re-issues)
/// take ids in the top half of the id space so they can never collide
/// with core-originated ids.
const SYNTH_ID_BASE: u64 = 1 << 63;

/// Counts a link transfer's frames (the delivering one plus every
/// corrupted attempt) and its retries on the host profiler.
fn count_frames(host: &HostHandle, xfer: &LinkXfer) {
    let failed = xfer.failed.len() as u64;
    host.add(Counter::FramesSent, 1 + failed);
    if failed > 0 {
        host.add(Counter::Retries, failed);
    }
}

/// Closed-loop recovery state shared by every channel: the poison set
/// fed by CRC escapes, the recovery counters and the dropped-prefetch
/// re-issue budget (the scrub policies and re-issue queues themselves
/// are per [`Channel`]).
///
/// Lives behind an `Option` that stays `None` unless fault injection
/// with a finite CRC, scrubbing, or re-issue is configured, so the
/// default hot path pays one pointer test and every export stays
/// byte-identical to a build without this subsystem.
#[derive(Debug)]
struct Reliability {
    /// Lines whose last transfer escaped the CRC: silently corrupted
    /// in memory until a clean overwrite or a scrub repairs them.
    poisoned: LineSet,
    /// Bound on each channel's re-issue queue.
    reissue_budget: usize,
    /// Controller-side recovery counters (scrub/re-issue activity),
    /// merged with the link counters into the run's fault report.
    counters: FaultCounters,
    /// Demand-consumption and scrub-repair outcomes. `poisoned_lines`
    /// is derived from the live set when the report is taken.
    silent: SilentErrorReport,
    /// Monotone id/sequence source for synthesized queue entries.
    synth: u64,
}

impl Reliability {
    /// The controller-side half of the run's fault report: scrub and
    /// re-issue counters plus the silent-corruption outcome.
    fn report(&self) -> FaultReport {
        let mut silent = self.silent;
        silent.poisoned_lines = self.poisoned.len() as u64;
        FaultReport {
            counters: self.counters,
            degraded: Dur::ZERO,
            silent,
        }
    }
}

/// The full memory subsystem behind the processor complex.
pub struct MemorySystem {
    cfg: MemoryConfig,
    mapper: InterleavedMapper,
    /// The shared Table 1 buffer: per-channel buckets plus the backlog.
    queue: TransactionQueue,
    /// Scratch buffer reused across [`Self::run_refreshes`] calls.
    refresh_buf: Vec<RefreshOp>,
    /// Closed-loop recovery state; `None` unless a CRC-escape model,
    /// scrubbing, or prefetch re-issue is configured.
    reliability: Option<Box<Reliability>>,
    channels: Vec<Channel>,
    stats: MemStats,
    tel: Option<Box<MemTel>>,
    /// Always-on stage × request-class latency attribution over every
    /// completed read. Cheap (fixed-size histograms, no allocation per
    /// read), so it needs no telemetry flag; `fbdsim profile` and the
    /// stats exporter read it back after the run.
    profile: StageProfile,
    clock: Dur,
    /// Host-side profiler handle (no-op unless a profiler is attached).
    host: HostHandle,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("tech", &self.cfg.tech)
            .field("channels", &self.channels.len())
            .field("queued", &self.queue.len())
            .field("backlogged", &self.queue.backlog_len())
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Builds the subsystem for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &MemoryConfig) -> MemorySystem {
        MemorySystem::compose(cfg, &Composition::from_config(cfg))
            .expect("invalid memory configuration")
    }

    /// Builds the subsystem from an explicit [`Composition`]: the
    /// named scheduler is resolved against its registry, and the
    /// address mapper, refresh manager and scrub policy are built from
    /// `cfg`. This is how a string-selected scheduler (`--scheduler
    /// fcfs`) reaches the controller without the core naming its type.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown scheduler (with the
    /// available registry names) or the configuration error.
    pub fn compose(cfg: &MemoryConfig, comp: &Composition) -> Result<MemorySystem, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        let sched_spec = schedulers().get(comp.scheduler).ok_or_else(|| {
            format!(
                "unknown scheduler `{}` (available: {})",
                comp.scheduler,
                schedulers().available()
            )
        })?;
        let clock = cfg.data_rate.clock_period();
        let lines_per_clock_bytes = 16 * u64::from(cfg.phys_per_logical);
        let burst_clocks = (CACHE_LINE_BYTES).div_ceil(lines_per_clock_bytes);
        let burst = clock * burst_clocks;
        let close_page = cfg.page_policy == PagePolicy::ClosePage;
        let slots = (cfg.dimms_per_channel * cfg.ranks_per_dimm) as usize;
        let channels: Vec<Channel> = (0..cfg.logical_channels)
            .map(|ch| {
                // An AMB drives each DIMM's ranks over a private bus; the
                // DDR2 controller drives every rank over one shared bus.
                let (link, group_ranks) = match cfg.tech {
                    MemoryTech::FbDimm { .. } => (
                        Link::Fbd(FbdChannel::for_channel(cfg, ch)),
                        cfg.ranks_per_dimm as usize,
                    ),
                    MemoryTech::Ddr2 => (Link::Ddr2(Ddr2CommandBus::new(cfg)), slots),
                };
                let groups = (0..slots / group_ranks)
                    .map(|_| {
                        RankGroup::new(
                            group_ranks,
                            cfg.banks_per_dimm as usize,
                            cfg.timings,
                            clock,
                            burst,
                            close_page,
                        )
                    })
                    .collect();
                Channel {
                    link,
                    devices: Devices {
                        groups,
                        ranks: cfg.ranks_per_dimm,
                        group_ranks,
                    },
                    inflight: 0,
                    sched: sched_spec.build(cfg),
                    // Built with `repeat_with`, not `vec![x; n]`: cloning
                    // a tracker drops its pre-reserved span capacity
                    // (VecDeque::clone allocates exactly `len`), which
                    // would put `note_busy` back on the allocator in the
                    // hot loop.
                    power: std::iter::repeat_with(|| PowerModeTracker::new(POWERDOWN_AFTER))
                        .take(slots)
                        .collect(),
                    reissue: VecDeque::new(),
                    amb: if cfg.amb.is_enabled() {
                        vec![PrefetchBuffer::new(&cfg.amb); cfg.dimms_per_channel as usize]
                    } else {
                        Vec::new()
                    },
                    refresh: cfg.refresh.enabled.then(|| StaggeredRefresh::new(cfg)),
                    scrub: PatrolScrub::for_config(cfg),
                    reads: 0,
                    writes: 0,
                }
            })
            .collect();
        let reliability = if cfg.faults.recovery_active() {
            Some(Box::new(Reliability {
                poisoned: LineSet::default(),
                reissue_budget: cfg.faults.reissue_budget as usize,
                counters: FaultCounters::default(),
                silent: SilentErrorReport::default(),
                synth: 0,
            }))
        } else {
            None
        };
        Ok(MemorySystem {
            mapper: InterleavedMapper::new(cfg),
            queue: TransactionQueue::new(
                cfg.logical_channels as usize,
                cfg.queue_capacity as usize,
            ),
            refresh_buf: Vec::new(),
            reliability,
            channels,
            stats: MemStats::default(),
            tel: None,
            profile: StageProfile::new(),
            clock,
            cfg: *cfg,
            host: HostHandle::off(),
        })
    }

    /// Attaches the host-side profiler handle (shared with the system's
    /// event loop); the scheduler and datapath mark their phases into
    /// it. See [`crate::System::set_host_profiler`].
    pub fn set_host_profiler(&mut self, host: HostHandle) {
        self.host = host;
    }

    /// Turns on telemetry collection for the rest of the run: registers
    /// the per-channel / per-DIMM metrics and names the trace tracks
    /// (one power track per rank). Call it before the first decision:
    /// power-mode spans are drawn as they settle, so spans settled
    /// earlier are missing from the trace.
    ///
    /// # Panics
    ///
    /// Panics if `config.sample_interval` is `Some(Dur::ZERO)`.
    pub fn enable_telemetry(&mut self, config: &TelemetryConfig) {
        let mut tel = Telemetry::new(config);
        let ndimm = self.cfg.dimms_per_channel;
        let ranks = self.cfg.ranks_per_dimm;
        let nbank = self.cfg.banks_per_dimm;
        let chans: Vec<ChanIds> = (0..self.cfg.logical_channels)
            .map(|c| {
                if let Some(tr) = tel.tracer.as_mut() {
                    tr.name_process(c, &format!("chan{c}"));
                    tr.name_track(c, TID_SOUTH, "southbound");
                    tr.name_track(c, TID_NORTH, "northbound");
                    for d in 0..ndimm {
                        tr.name_track(c, tid_dimm(d as usize), &format!("dimm{d} amb"));
                        // Each rank's banks and power mode get tracks of
                        // their own; one rank per DIMM names them by DIMM.
                        for r in 0..ranks {
                            let slot = (d * ranks + r) as usize;
                            let (rank, power) = if ranks == 1 {
                                (String::new(), format!("dimm{d} power"))
                            } else {
                                (format!(" rank{r}"), format!("dimm{d}.rank{r} power"))
                            };
                            for b in 0..nbank {
                                let label = format!("dimm{d}{rank} bank{b}");
                                tr.name_track(c, tid_bank(slot, b as usize), &label);
                            }
                            tr.name_track(c, tid_power(slot), &power);
                        }
                    }
                }
                ChanIds {
                    reads: tel.registry.counter(&format!("chan{c}.reads")),
                    writes: tel.registry.counter(&format!("chan{c}.writes")),
                    bytes: tel.registry.counter(&format!("chan{c}.bytes")),
                    amb_hits: tel.registry.counter(&format!("chan{c}.amb_hits")),
                    queue_depth: tel.registry.gauge(&format!("chan{c}.queue_depth")),
                    inflight: tel.registry.gauge(&format!("chan{c}.inflight")),
                    dimms: (0..ndimm)
                        .map(|d| DimmIds {
                            acts: tel.registry.counter(&format!("chan{c}.dimm{d}.acts")),
                            reads: tel.registry.counter(&format!("chan{c}.dimm{d}.col_reads")),
                            writes: tel.registry.counter(&format!("chan{c}.dimm{d}.col_writes")),
                            power_active_ns: tel
                                .registry
                                .gauge(&format!("chan{c}.dimm{d}.power.active_ns")),
                            power_standby_ns: tel
                                .registry
                                .gauge(&format!("chan{c}.dimm{d}.power.standby_ns")),
                            power_powerdown_ns: tel
                                .registry
                                .gauge(&format!("chan{c}.dimm{d}.power.powerdown_ns")),
                        })
                        .collect(),
                }
            })
            .collect();
        let read_latency = tel.registry.latency("mem.read_latency");
        let pf_fills = tel.registry.counter("amb.prefetch.fills");
        let pf_evictions = tel.registry.counter("amb.prefetch.evictions");
        let pf_hits = tel.registry.counter("amb.prefetch.hits");
        self.tel = Some(Box::new(MemTel {
            tel,
            chans,
            read_latency,
            pf_fills,
            pf_evictions,
            pf_hits,
        }));
    }

    /// The telemetry state, when enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_ref().map(|t| &t.tel)
    }

    /// Mutable telemetry state, when enabled (e.g. to register extra
    /// metrics in the shared registry).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.tel.as_mut().map(|t| &mut t.tel)
    }

    /// Always-on per-channel traffic counters, indexed by channel.
    pub fn channel_counters(&self) -> Vec<ChannelCounters> {
        self.channels.iter().map(Channel::counters).collect()
    }

    /// The always-on stage × request-class latency-attribution profile
    /// over every read and posted write completed so far.
    pub fn latency_profile(&self) -> &StageProfile {
        &self.profile
    }

    /// The fault-injection summary for the run so far, evaluated at
    /// `end` (degraded-width residency accrues until then), merged over
    /// every channel, plus the controller's recovery overlay (scrub and
    /// re-issue counters, silent-corruption outcome). `None` when both
    /// fault injection and recovery are off — the stats schema stays
    /// byte-identical to a no-fault run. A scrub-only run at zero BER
    /// reports `Some` so its traffic is visible.
    pub fn fault_report(&self, end: Time) -> Option<FaultReport> {
        let mut out: Option<FaultReport> = None;
        for c in &self.channels {
            if let Link::Fbd(link) = &c.link {
                if let Some(r) = link.fault_report(end) {
                    match out.as_mut() {
                        Some(acc) => acc.merge(&r),
                        None => out = Some(r),
                    }
                }
            }
        }
        if let Some(rel) = self.reliability.as_deref() {
            let overlay = rel.report();
            match out.as_mut() {
                Some(acc) => acc.merge(&overlay),
                None => out = Some(overlay),
            }
        }
        out
    }

    /// When the next telemetry epoch snapshot is due ([`Time::NEVER`]
    /// when telemetry or sampling is off).
    pub fn next_sample_due(&self) -> Time {
        self.tel
            .as_ref()
            .map_or(Time::NEVER, |t| t.tel.next_sample_due())
    }

    /// Takes an epoch snapshot: publishes the model's counters and
    /// gauges into the registry, emits the queue-depth / in-flight
    /// counter trace events, then samples every metric.
    pub fn sample_telemetry(&mut self, now: Time) {
        let Some(t) = self.tel.as_deref_mut() else {
            return;
        };
        t.publish(&self.channels, &self.queue, self.stats.read_latency);
        if let Some(tr) = t.tel.tracer.as_mut() {
            for (ch, c) in (0u32..).zip(&self.channels) {
                let depth = self.queue.bucket(ch).len() as f64;
                tr.counter("queue_depth", "ctrl", ch, TID_SOUTH, now, depth);
                tr.counter(
                    "inflight",
                    "ctrl",
                    ch,
                    TID_SOUTH,
                    now,
                    f64::from(c.inflight),
                );
            }
        }
        t.tel.sample(now);
    }

    /// Ends telemetry at `end` and takes it out of the subsystem:
    /// publishes the model's counters and gauges, resolves power-mode residencies
    /// and the energy report into the registry, draws each rank's
    /// power-mode spans not yet settled (when tracing), then flushes the
    /// final partial epoch. Call it before [`Self::finish_stats`], which
    /// moves out the read-latency statistic it publishes.
    pub fn finish_telemetry(&mut self, end: Time) -> Option<Telemetry> {
        let mut mt = self.tel.take()?;
        mt.publish(&self.channels, &self.queue, self.stats.read_latency);
        let (registry, mut tracer) = (&mut mt.tel.registry, mt.tel.tracer.as_mut());
        for (ch, (c, ids)) in (0u32..).zip(self.channels.iter().zip(&mt.chans)) {
            for (d, dimm) in (0u32..).zip(&ids.dimms) {
                let mut res = fbd_power::ModeResidency::default();
                for r in 0..self.cfg.ranks_per_dimm {
                    let slot = c.devices.slot(d, r);
                    let rr = c.power[slot].residency(end);
                    res.active += rr.active;
                    res.standby += rr.standby;
                    res.powerdown += rr.powerdown;
                    if let Some(tr) = tracer.as_deref_mut() {
                        for span in c.power[slot].spans(end) {
                            power_span(tr, ch, slot, span);
                        }
                    }
                }
                registry.set(dimm.power_active_ns, res.active.as_ns_f64());
                registry.set(dimm.power_standby_ns, res.standby.as_ns_f64());
                registry.set(dimm.power_powerdown_ns, res.powerdown.as_ns_f64());
            }
        }
        let energy = self.energy_report(end);
        let mut gauges = vec![
            ("energy.activation_nj", energy.activation_nj),
            ("energy.burst_nj", energy.burst_nj),
            ("energy.refresh_nj", energy.refresh_nj),
            ("energy.background_nj", energy.background_nj),
            ("energy.amb_nj", energy.amb_nj),
            ("energy.total_nj", energy.total_nj()),
            ("energy.avg_power_w", energy.avg_power_w()),
        ];
        // Error/recovery gauges exist only when fault injection ran, so
        // a zero-BER run exports a byte-identical registry.
        if let Some(fr) = self.fault_report(end) {
            let (c, s) = (&fr.counters, &fr.silent);
            gauges.extend([
                ("errors.injected", c.injected as f64),
                ("errors.detected", c.detected as f64),
                ("errors.retried", c.retried as f64),
                ("errors.retry_exhausted", c.retry_exhausted as f64),
                ("errors.failovers", c.failovers as f64),
                ("errors.dropped_prefetch", c.dropped_prefetch as f64),
                ("errors.degraded_ns", fr.degraded.as_ns_f64()),
                ("errors.escaped", c.escaped as f64),
                ("errors.probes", c.probes as f64),
                ("errors.failbacks", c.failbacks as f64),
                ("errors.reissued", c.reissued as f64),
                ("errors.scrub_reads", c.scrub_reads as f64),
                ("errors.scrub_rewrites", c.scrub_rewrites as f64),
                ("errors.silent.poisoned_lines", s.poisoned_lines as f64),
                ("errors.silent.demand_consumed", s.demand_consumed as f64),
                ("errors.silent.scrubbed_clean", s.scrubbed_clean as f64),
            ]);
        }
        for (path, value) in gauges {
            let id = registry.gauge(path);
            registry.set(id, value);
        }
        mt.tel.finish(end);
        Some(mt.tel)
    }

    /// Submits a request. Returns the instant it becomes schedulable
    /// (arrival plus the controller's fixed overhead) and its channel, so
    /// the engine can schedule a decision.
    ///
    /// Requests must be submitted in arrival order: each channel's queue
    /// bucket then stays sorted by arrival, and a decision picks from its
    /// ready prefix ([`TransactionQueue::ready`]).
    ///
    /// # Panics
    ///
    /// Panics if `req` arrives before the previously submitted request.
    pub fn submit(&mut self, req: MemRequest) -> (u32, Time) {
        let mapped = self.mapper.map(req.line);
        let ready = req.arrival + CONTROLLER_OVERHEAD;
        self.queue.push(req, mapped);
        (mapped.channel, ready)
    }

    /// True if any transaction is queued (or backlogged) for channel
    /// `ch`, or a dropped prefetch is waiting for an idle-slot re-issue.
    pub fn has_work(&self, ch: u32) -> bool {
        self.queue.has_work(ch) || !self.channels[ch as usize].reissue.is_empty()
    }

    /// A completion was observed on `ch`: release its in-flight slot.
    pub fn complete(&mut self, ch: u32) {
        let c = &mut self.channels[ch as usize];
        c.inflight = c.inflight.saturating_sub(1);
    }

    /// Issues any refresh whose deadline has passed on channel `ch`.
    /// A refresh occupies every rank of the DIMM for `t_rfc`, which
    /// counts as busy time for the power-mode residency model; once
    /// every due window is noted, each refreshed rank's tracker settles
    /// at `now`.
    fn run_refreshes(&mut self, ch: u32, now: Time) {
        let channel = &mut self.channels[ch as usize];
        let Some(refresh) = channel.refresh.as_mut() else {
            return;
        };
        let ranks = self.cfg.ranks_per_dimm;
        let mut ops = std::mem::take(&mut self.refresh_buf);
        ops.clear();
        refresh.due(now, &mut ops);
        for op in &ops {
            for r in 0..ranks {
                let i = channel.devices.slot(op.dimm, r);
                let (group, rank) = channel.devices.at_mut(i);
                group.refresh(rank, op.at, op.t_rfc);
                channel.power[i].note_busy(op.at, op.at + op.t_rfc);
            }
        }
        for op in &ops {
            for r in 0..ranks {
                let i = channel.devices.slot(op.dimm, r);
                let tracer = self.tel.as_deref_mut().and_then(|t| t.tel.tracer.as_mut());
                settle_power(&mut channel.power[i], now, tracer, ch, i);
            }
        }
        self.refresh_buf = ops;
    }

    /// Runs one scheduling decision for channel `ch` at `now`.
    ///
    /// Convenience wrapper over [`Self::decide_into`] that allocates a
    /// fresh result; the hot loop uses `decide_into` with a reused
    /// buffer instead.
    pub fn decide(&mut self, ch: u32, now: Time) -> DecideResult {
        let mut issued = Vec::new();
        let next_decision = self.decide_into(ch, now, &mut issued);
        DecideResult {
            issued,
            next_decision,
        }
    }

    /// Runs one scheduling decision for channel `ch` at `now`, pushing
    /// issued transactions into `issued` (not cleared first) and
    /// returning when the channel should next decide (`None`: wait for
    /// a new arrival or a completion).
    ///
    /// # Idempotence
    ///
    /// A decision that issues nothing can be repeated at the same `now`
    /// with no effect: the repeat finds no refresh due (the first call
    /// moved the deadlines past `now`), no schedulable entry (the
    /// scheduler leaves its state alone when it finds none), no re-issue
    /// and no scrub due (`next_scrub` returned `None` without advancing),
    /// so it issues nothing, changes no state and returns the same
    /// instant. The event loop relies on this to run such a decision once
    /// for all its same-instant duplicates, as long as nothing else
    /// touches this memory system between them.
    pub fn decide_into(&mut self, ch: u32, now: Time, issued: &mut Vec<Issued>) -> Option<Time> {
        self.run_refreshes(ch, now);
        if self.channels[ch as usize].inflight >= MAX_INFLIGHT_PER_CHANNEL {
            self.host.mark_sampled(Phase::Controller);
            return None;
        }
        let picked = match self.pick_for(ch, now) {
            Ok(picked) => picked,
            Err(ready) => {
                // The channel has an idle slot: recovery work (a prefetch
                // re-issue, then a due scrub sweep) may claim it. Demand
                // traffic always won the pick above, so recovery never
                // displaces a schedulable transaction.
                if self.reliability.is_some() {
                    if let Some(next) = self.dispatch_recovery(ch, now, issued) {
                        self.host.mark_sampled(Phase::Datapath);
                        return Some(next);
                    }
                }
                // Nothing picked now. The bucket is in arrival order, so
                // the entry right after the ready prefix is the next to
                // become schedulable (a backlogged one enters the bucket
                // when some channel's take admits it).
                let overhead = CONTROLLER_OVERHEAD;
                let next = self
                    .queue
                    .bucket(ch)
                    .get(ready)
                    .map(|e| e.req.arrival + overhead);
                self.host.mark_sampled(Phase::Controller);
                return next;
            }
        };
        let entry = self.queue.take(ch, picked);
        let first_is_write = entry.req.kind == AccessKind::Write;
        // Everything up to the pick is controller work; the execute
        // calls below are the transaction's datapath.
        self.host.mark_sampled(Phase::Controller);
        self.issue(entry, now, issued);
        // Burst the write drain on a shared-bus channel: commit the whole
        // batch in one decision so the next reads' ACT/tRCD pipeline
        // overlaps the write burst on the data bus (what a real
        // controller's command scheduler achieves). A picked read stays
        // queued and resumes at the next decision.
        if first_is_write && self.cfg.tech == MemoryTech::Ddr2 {
            while self.channels[ch as usize].inflight < MAX_INFLIGHT_PER_CHANNEL {
                match self.pick_for(ch, now) {
                    Ok(next) if self.queue.bucket(ch)[next].req.kind == AccessKind::Write => {
                        let entry = self.queue.take(ch, next);
                        self.issue(entry, now, issued);
                    }
                    _ => break,
                }
            }
        }
        self.host.mark_sampled(Phase::Datapath);
        Some(self.next_slot(now))
    }

    /// Executes a taken entry and counts it in flight on its channel.
    fn issue(&mut self, entry: QueueEntry, now: Time, issued: &mut Vec<Issued>) {
        let ch = entry.mapped.channel as usize;
        issued.push(self.execute(entry, now));
        self.channels[ch].inflight += 1;
    }

    /// Applies channel `ch`'s scheduling policy to its bucket's ready
    /// prefix and returns the picked entry's index there, which is its
    /// bucket index; the entry stays queued until
    /// [`TransactionQueue::take`] (which also admits backlogged requests
    /// into the freed slot before anything executes). With nothing
    /// picked it returns the prefix's length instead.
    fn pick_for(&mut self, ch: u32, now: Time) -> Result<usize, usize> {
        let ready = self.queue.ready(ch, now, CONTROLLER_OVERHEAD);
        let chan = &mut self.channels[ch as usize];
        let (devices, amb) = (&chan.devices, &chan.amb);
        // Bank-readiness window: a bank that can accept an ACT soon
        // keeps the data bus busy; one deep in its tRC/precharge window
        // would stall it.
        let slack = self.clock * 2;
        let mut classify = |e: &QueueEntry| -> SchedClass {
            if e.req.kind.is_read()
                && amb
                    .get(e.mapped.dimm as usize)
                    .is_some_and(|b| b.contains(e.req.line))
            {
                return SchedClass::Hit;
            }
            let (row_open, act_at, wtr_until) = devices.bank_state(&e.mapped);
            // A read into a rank still inside its write-to-read
            // turnaround would stall; prefer ranks past it.
            let wtr_blocked = e.req.kind.is_read() && wtr_until > now + slack;
            if row_open && !wtr_blocked {
                SchedClass::Hit
            } else if act_at <= now + slack && !wtr_blocked {
                SchedClass::Ready
            } else {
                SchedClass::NotReady
            }
        };
        chan.sched.pick(ready, &mut classify).ok_or(ready.len())
    }

    /// The earliest instant after `now` at which another command can be
    /// scheduled on this channel (one command slot later).
    fn next_slot(&self, now: Time) -> Time {
        match self.cfg.tech {
            MemoryTech::FbDimm { .. } => now + (self.clock * 2) / 3,
            MemoryTech::Ddr2 => now + self.clock,
        }
    }

    /// Builds a controller-originated queue entry (scrub sweep or
    /// prefetch re-issue) for `line`, with a synthesized id in the
    /// reserved top-half id space. Arrival is `now`, so the entry
    /// carries no queueing history.
    fn synth_entry(&mut self, kind: AccessKind, line: LineAddr, now: Time) -> QueueEntry {
        let rel = self
            .reliability
            .as_deref_mut()
            .expect("recovery state exists");
        let n = rel.synth;
        rel.synth += 1;
        QueueEntry {
            req: MemRequest::new(RequestId(SYNTH_ID_BASE + n), CoreId(0), kind, line, now),
            mapped: self.mapper.map(line),
            seq: SYNTH_ID_BASE + n,
        }
    }

    /// Tries to fill an idle decision slot with recovery work: a
    /// dropped-prefetch re-issue first (it has a consumer-visible hole
    /// to repair), then a due scrub sweep. A sweep that lands on a
    /// poisoned line issues the repair rewrite in the same decision.
    /// Returns the next decision instant when something was issued.
    fn dispatch_recovery(&mut self, ch: u32, now: Time, issued: &mut Vec<Issued>) -> Option<Time> {
        if let Some(line) = self.channels[ch as usize].reissue.pop_front() {
            let entry = self.synth_entry(AccessKind::HardwarePrefetch, line, now);
            debug_assert_eq!(
                entry.mapped.channel, ch,
                "re-issued lines stay on their channel"
            );
            self.issue(entry, now, issued);
            let rel = self
                .reliability
                .as_deref_mut()
                .expect("recovery state exists");
            rel.counters.reissued += 1;
            return Some(self.next_slot(now));
        }
        let line = self.channels[ch as usize].scrub.as_mut()?.next_scrub(now)?;
        let entry = self.synth_entry(AccessKind::HardwarePrefetch, line, now);
        debug_assert_eq!(
            entry.mapped.channel, ch,
            "scrub lines stay on their channel"
        );
        self.issue(entry, now, issued);
        let rel = self
            .reliability
            .as_deref_mut()
            .expect("recovery state exists");
        rel.counters.scrub_reads += 1;
        // Verify half of read-verify-rewrite: a poisoned line gets a
        // clean rewrite (ordinary posted-write traffic, so its link,
        // bank and energy costs are modeled).
        if rel.poisoned.remove(&line) {
            rel.silent.scrubbed_clean += 1;
            rel.counters.scrub_rewrites += 1;
            let entry = self.synth_entry(AccessKind::Write, line, now);
            self.issue(entry, now, issued);
        }
        Some(self.next_slot(now))
    }

    /// Executes a taken entry, read or write, on either datapath.
    ///
    /// The transaction is counted once, then crosses its channel's link
    /// and devices in the one substrate branch: an FB-DIMM read (command
    /// south, AMB hit, group fetch or plain access, data north), an
    /// FB-DIMM posted write (write data south, drained by the AMB), or a
    /// DDR2 access (commands on the shared bus, burst on the shared data
    /// bus). Each arm stamps its own stages; the outcome then feeds the
    /// power tracker, the recovery state, the statistics and the
    /// latency profile once.
    ///
    /// `entry` is always on the deciding channel (picks come from its
    /// bucket; scrub and re-issue lines stay on their channel), so
    /// `now` is that channel's decision instant, and the rank's power
    /// tracker settles at it (see [`settle_power`]).
    fn execute(&mut self, entry: QueueEntry, now: Time) -> Issued {
        let m = entry.mapped;
        let req = entry.req;
        let write = req.kind == AccessKind::Write;
        match req.kind {
            AccessKind::DemandRead => self.stats.demand_reads += 1,
            AccessKind::SoftwarePrefetch => self.stats.sw_prefetch_reads += 1,
            AccessKind::HardwarePrefetch => self.stats.hw_prefetch_reads += 1,
            // Only the channel counts writes; `fold_counters` sums them.
            AccessKind::Write => {}
        }
        let chan = &mut self.channels[m.channel as usize];
        if write {
            chan.writes += 1;
            // A store makes any prefetched copy stale.
            if let Some(buf) = chan.amb.get_mut(m.dimm as usize) {
                buf.invalidate(req.line);
            }
        } else {
            chan.reads += 1;
        }

        // Stage-resolved latency attribution: the stamper's cursor walks
        // the request's lifecycle from arrival to completion (a posted
        // write's last data beat at the devices), charging each interval
        // to exactly one stage, so the stage durations sum to the
        // end-to-end latency by construction. Retry time (replay backoff
        // and corrupted slots under fault injection) is charged to its
        // own stage at each link crossing.
        let mut st = StageBreakdown::stamper(req.arrival);
        let slot = chan.devices.slot(m.dimm, m.rank);
        let (group, rank) = chan.devices.at_mut(slot);
        let (bank, row) = (m.bank as usize, m.row);
        // The arms yield the completion, the service, whether a prefetch
        // return was dropped or a transfer escaped the CRC, and the
        // devices' access plan with the end of its busy window (none for
        // an AMB hit).
        let (done, mut service, dropped, escaped, dram) = match (&mut chan.link, write) {
            (Link::Fbd(link), false) => {
                st.to(Stage::CtrlQueue, req.arrival + entry.queue_wait(now));
                let cmd = link.send_command_checked(now);
                count_frames(&self.host, &cmd);
                st.to(Stage::SouthLink, cmd.first_done);
                st.to(Stage::Retry, cmd.slot.done);
                let cmd_at_amb = cmd.slot.done;
                if let Some(t) = self.tel.as_deref_mut() {
                    t.link_frames("cmd", m.channel, TID_SOUTH, &cmd);
                }
                let mut buf = chan.amb.get_mut(m.dimm as usize);
                let hit = buf.as_mut().is_some_and(|b| b.on_hit(req.line));
                // Each service leaves the demanded line at the AMB at
                // `ready`; all three then share the northbound return.
                let (ready, service, dram) = if hit {
                    let data_ready = match self.cfg.amb.mode {
                        // FBD-APFL: charge the full DRAM latency without
                        // touching the bank (Figure 9's ablation).
                        AmbPrefetchMode::FullLatency => {
                            cmd_at_amb + self.cfg.timings.t_rcd + self.cfg.timings.t_cl
                        }
                        _ => cmd_at_amb,
                    };
                    st.to(Stage::AmbProc, data_ready);
                    // A read served from the AMB, with no DRAM access.
                    if let Some(tr) = self.tel.as_deref_mut().and_then(|t| t.tel.tracer.as_mut()) {
                        let tid = tid_dimm(m.dimm as usize);
                        tr.instant("amb_hit", "amb", m.channel, tid, cmd_at_amb, vec![]);
                    }
                    (data_ready, ServiceKind::AmbCacheHit, None)
                } else if let Some(buf) = buf {
                    // Group fetch: demanded line first, K−1 fills.
                    let k = self.cfg.amb.region_lines;
                    let (first, fill_done) = group.fetch_group(rank, bank, row, k, cmd_at_amb);
                    st.to(Stage::DramWait, first.service_start());
                    st.to(Stage::DramAct, first.cmd_at);
                    st.to(Stage::DramCas, first.data_start);
                    let region = req.line.region(u64::from(k));
                    let fills = region.lines(u64::from(k)).filter(|l| *l != req.line);
                    buf.fill(fills);
                    if let Some(t) = self.tel.as_deref_mut() {
                        t.group_fetch(&m, slot, &first, k, fill_done);
                    }
                    let service = ServiceKind::DramAccessWithPrefetch;
                    (first.data_start, service, Some((first, fill_done)))
                } else {
                    let plan = group.access(rank, bank, row, ColKind::Read, cmd_at_amb);
                    st.to(Stage::DramWait, plan.service_start());
                    st.to(Stage::DramAct, plan.cmd_at);
                    st.to(Stage::DramCas, plan.data_start);
                    if let Some(t) = self.tel.as_deref_mut() {
                        t.dram_access(&m, slot, &plan, false);
                    }
                    let dram = Some((plan, plan.data_end));
                    (plan.data_start, ServiceKind::DramAccess, dram)
                };
                // Under the controller's recovery policy a corrupted
                // northbound transfer for a prefetch read is dropped
                // instead of replayed.
                let droppable = fbd_ctrl::droppable(req.kind);
                let north = link.return_read_data_checked(m.dimm, ready, droppable);
                count_frames(&self.host, &north);
                st.to(Stage::NorthQueue, north.first_start);
                st.to(Stage::NorthLink, north.first_done);
                st.to(Stage::Retry, north.slot.done);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.link_frames("data", m.channel, TID_NORTH, &north);
                }
                let escaped = cmd.escaped || north.escaped;
                (north.slot.done, service, north.dropped, escaped, dram)
            }
            (Link::Fbd(link), true) => {
                st.to(Stage::CtrlQueue, req.arrival + entry.queue_wait(now));
                let wdata = link.send_write_data_checked(now);
                count_frames(&self.host, &wdata);
                st.to(Stage::SouthLink, wdata.first_done);
                st.to(Stage::Retry, wdata.slot.done);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.link_frames("wdata", m.channel, TID_SOUTH, &wdata);
                }
                let plan = group.access(rank, bank, row, ColKind::Write, wdata.slot.done);
                // The AMB buffers the posted write until its bank can
                // take the drain, so bank-availability wait is AMB
                // buffering here, not DRAM time: the DRAM stages start
                // at the first drain command.
                st.to(Stage::AmbProc, plan.service_start());
                st.to(Stage::DramAct, plan.cmd_at);
                st.to(Stage::DramCas, plan.data_end);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.dram_access(&m, slot, &plan, false);
                }
                (
                    plan.data_end,
                    ServiceKind::DramAccess,
                    false,
                    wdata.escaped,
                    Some((plan, plan.data_end)),
                )
            }
            (Link::Ddr2(cmd), _) => {
                // An open-row hit needs only the column command on the
                // shared command bus; anything else needs ACT + CAS.
                let n_cmds = if group.rank(rank).is_row_open(bank, row) {
                    1
                } else {
                    2
                };
                let first_cmd = cmd.issue_many(now, n_cmds);
                let kind = if write { ColKind::Write } else { ColKind::Read };
                let plan = group.access(rank, bank, row, kind, first_cmd);
                // Command-bus slot wait is queueing, the bank's
                // precharge/turnaround window is DRAM wait, then the
                // ACT→CAS→burst pipeline maps onto the DRAM stages with
                // the data burst standing in for the return link.
                st.to(Stage::CtrlQueue, plan.first_cmd_at());
                st.to(Stage::DramWait, plan.service_start());
                st.to(Stage::DramAct, plan.cmd_at);
                st.to(Stage::DramCas, plan.data_start);
                st.to(Stage::NorthLink, plan.data_end);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.dram_access(&m, slot, &plan, true);
                }
                (
                    plan.data_end,
                    ServiceKind::DramAccess,
                    false,
                    false,
                    Some((plan, plan.data_end)),
                )
            }
        };
        if let Some((plan, busy_end)) = dram {
            // The rank is busy from its first command: a row conflict's
            // PRE counts, as its energy is charged over tRC.
            debug_assert!(
                plan.first_cmd_at() >= now,
                "a plan starts after its decision"
            );
            let tracker = &mut chan.power[slot];
            tracker.note_busy(plan.first_cmd_at(), busy_end);
            let tracer = self.tel.as_deref_mut().and_then(|t| t.tel.tracer.as_mut());
            settle_power(tracker, now, tracer, m.channel, slot);
            // A plain read that found its row open is a row-buffer hit.
            if !write && service == ServiceKind::DramAccess && !plan.is_row_miss() {
                self.stats.row_hits += 1;
                service = ServiceKind::RowBufferHit;
            }
        }

        // Silent-corruption bookkeeping: an escaped transfer poisons
        // the line, and a clean overwrite repairs it; a demand read that
        // sees escaped or already-poisoned data has consumed silent
        // corruption (the failure the scrubber exists to pre-empt).
        // Dropped prefetch returns are remembered for idle-slot
        // re-issue, and every serviced line feeds the scrub policy's
        // candidate pool.
        let demand = req.kind == AccessKind::DemandRead;
        if let Some(scrub) = chan.scrub.as_mut() {
            scrub.observe(req.line);
        }
        if let Some(rel) = self.reliability.as_deref_mut() {
            if escaped {
                rel.poisoned.insert(req.line);
            } else if write {
                rel.poisoned.remove(&req.line);
            }
            if demand && (escaped || rel.poisoned.contains(&req.line)) {
                rel.silent.demand_consumed += 1;
            }
            if dropped && chan.reissue.len() < rel.reissue_budget {
                chan.reissue.push_back(req.line);
            }
        }
        let latency = done - req.arrival;
        if demand {
            self.stats.read_latency.record(latency);
            self.stats.read_latency_hist.record(latency);
        }
        self.stats.bandwidth_series.record(done, CACHE_LINE_BYTES);
        let stages = st.finish();
        debug_assert_eq!(
            stages.total(),
            latency,
            "stage stamps must cover the whole transaction lifecycle"
        );
        self.profile
            .record(ReqClass::of(req.kind, service), &stages, latency);
        if write {
            return Issued::Write { done };
        }
        Issued::Read {
            resp: MemResponse {
                id: req.id,
                core: req.core,
                line: req.line,
                kind: req.kind,
                completion: done,
                service,
                stages,
                dropped,
            },
        }
    }

    /// Statistics accumulated so far, with the channels' traffic, the
    /// prefetch buffers' counts and every rank's DRAM operations folded
    /// in.
    ///
    /// This clones the stats struct (including its histogram and series
    /// buffers) — fine for diagnostics and tests, but a finished run
    /// should move them out once via [`Self::finish_stats`] instead.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats.clone();
        self.fold_counters(&mut s);
        s
    }

    /// Moves the accumulated statistics out (the channel, prefetch and
    /// DRAM counters folded in) without cloning the histogram and
    /// bandwidth-series buffers. Call once when the run is over; the
    /// internal stats are left empty.
    pub fn finish_stats(&mut self) -> MemStats {
        let mut s = std::mem::take(&mut self.stats);
        self.fold_counters(&mut s);
        s
    }

    fn fold_counters(&self, s: &mut MemStats) {
        for c in &self.channels {
            for g in &c.devices.groups {
                s.dram_ops.merge(&g.ops());
                s.dram_active_time += g.active_time();
            }
            let prefetch = c.prefetch();
            s.amb_hits += prefetch.hits;
            s.lines_prefetched += prefetch.inserted;
            s.prefetch_evictions += prefetch.evicted;
            let counters = c.counters();
            s.writes += counters.writes;
            s.data_bytes += counters.bytes;
        }
    }

    /// The end-to-end energy report for the run so far, evaluated at
    /// `end`: per-rank operation counts and power-mode residencies fed
    /// through the Micron [`EnergyModel`] matching the substrate's data
    /// rate (DDR3 currents for the DDR3-speed substrates, DDR2-667
    /// otherwise), with AMB core/link power included on FB-DIMM
    /// subsystems. The report names the current set it used.
    pub fn energy_report(&self, end: Time) -> EnergyReport {
        let buffered = matches!(self.cfg.tech, MemoryTech::FbDimm { .. });
        let ddr3 = matches!(self.cfg.data_rate, DataRate::MTS1333 | DataRate::MTS1066);
        let model = if ddr3 {
            EnergyModel::micron_ddr3_1333(buffered)
        } else {
            EnergyModel::micron_ddr2_667(buffered)
        };
        let ranks = self.cfg.ranks_per_dimm;
        let mut activity = Vec::with_capacity(
            (self.cfg.logical_channels * self.cfg.dimms_per_channel * ranks) as usize,
        );
        for (ch, c) in self.channels.iter().enumerate() {
            for d in 0..self.cfg.dimms_per_channel {
                for r in 0..ranks {
                    let slot = c.devices.slot(d, r);
                    let (group, rank) = c.devices.at(slot);
                    activity.push(RankActivity {
                        channel: ch as u32,
                        dimm: d,
                        rank: r,
                        ops: *group.rank(rank).ops(),
                        residency: c.power[slot].residency(end),
                    });
                }
            }
        }
        let amb_dimms = if buffered {
            self.cfg.logical_channels * self.cfg.dimms_per_channel
        } else {
            0
        };
        model.report(&activity, end - Time::ZERO, amb_dimms)
    }

    /// The configuration this subsystem was built from.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::ScrubPolicyKind;

    fn demand(id: u64, line: u64, at: Time) -> MemRequest {
        MemRequest::new(
            RequestId(id),
            CoreId(0),
            AccessKind::DemandRead,
            LineAddr::new(line),
            at,
        )
    }

    #[test]
    fn scrub_sweeps_issue_traffic_on_a_clean_channel() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        cfg.faults.scrub = ScrubPolicyKind::Patrol;
        cfg.faults.scrub_interval_ns = 10;
        let mut mem = MemorySystem::new(&cfg);
        let (ch, ready) = mem.submit(demand(1, 0, Time::ZERO));
        let r = mem.decide(ch, ready);
        assert_eq!(r.issued.len(), 1, "the demand read issues first");
        mem.complete(ch);
        // Channel idle, one line observed: the next decision sweeps it.
        let r = mem.decide(ch, Time::from_ns(1_000));
        assert_eq!(r.issued.len(), 1, "the idle slot runs a scrub read");
        assert!(r.next_decision.is_some());
        let fr = mem
            .fault_report(Time::from_ns(2_000))
            .expect("scrub-only runs still report recovery activity");
        assert_eq!(fr.counters.scrub_reads, 1);
        assert_eq!(
            fr.counters.scrub_rewrites, 0,
            "a clean line needs no rewrite"
        );
        assert_eq!(fr.counters.injected, 0);
        assert_eq!(fr.silent, SilentErrorReport::default());
        // Scrub traffic is attributed to the hw-prefetch class, so the
        // stage-sum invariant ran on it (debug_assert in execute).
        let s = mem.stats();
        assert_eq!(s.hw_prefetch_reads, 1);
    }

    #[test]
    fn an_idle_decision_waits_for_the_next_arrival() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        let mut mem = MemorySystem::new(&cfg);
        let overhead = CONTROLLER_OVERHEAD;
        mem.submit(demand(1, 0, Time::from_ns(50)));
        let (ch, ready) = mem.submit(demand(2, 4, Time::from_ns(80)));
        let r = mem.decide(ch, Time::from_ns(10));
        assert!(r.issued.is_empty());
        assert_eq!(r.next_decision, Some(Time::from_ns(50) + overhead));
        let r = mem.decide(ch, Time::from_ns(50) + overhead);
        assert_eq!(r.issued.len(), 1);
        mem.complete(ch);
        let r = mem.decide(ch, Time::from_ns(60) + overhead);
        assert!(r.issued.is_empty());
        assert_eq!(r.next_decision, Some(ready));
    }

    #[test]
    #[should_panic(expected = "arrival before the previous request's")]
    fn submit_rejects_an_arrival_before_the_previous_request() {
        let mut mem = MemorySystem::new(&MemoryConfig::fbdimm_default());
        mem.submit(demand(1, 0, Time::from_ns(20)));
        mem.submit(demand(2, 1, Time::from_ns(10)));
    }

    #[test]
    fn dropped_prefetches_are_reissued_in_idle_slots() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        cfg.faults.ber = 1.0; // every northbound prefetch return drops
        cfg.faults.seed = 7;
        cfg.faults.reissue_budget = 4;
        let mut mem = MemorySystem::new(&cfg);
        let (ch, ready) = mem.submit(MemRequest::new(
            RequestId(1),
            CoreId(0),
            AccessKind::HardwarePrefetch,
            LineAddr::new(3),
            Time::ZERO,
        ));
        let r = mem.decide(ch, ready);
        assert_eq!(r.issued.len(), 1);
        let Issued::Read { resp } = r.issued[0] else {
            panic!("a prefetch read was issued");
        };
        assert!(resp.dropped, "at BER 1.0 the prefetch return is dropped");
        mem.complete(ch);
        assert!(mem.has_work(ch), "a remembered drop counts as pending work");
        let r = mem.decide(ch, Time::from_ns(5_000));
        assert_eq!(r.issued.len(), 1, "the idle slot re-issues the drop");
        let fr = mem
            .fault_report(Time::from_ns(10_000))
            .expect("faulted run");
        assert_eq!(fr.counters.reissued, 1);
        assert!(fr.counters.dropped_prefetch >= 1);
    }

    #[test]
    fn open_page_row_conflicts_charge_the_precharge_as_active_on_both_datapaths() {
        use fbd_types::config::Interleaving;
        for mut cfg in [MemoryConfig::ddr2_default(), MemoryConfig::fbdimm_default()] {
            cfg.page_policy = PagePolicy::OpenPage;
            cfg.interleaving = Interleaving::Page;
            let mut mem = MemorySystem::new(&cfg);
            let home = mem.mapper.map(LineAddr::new(0));
            let bank = |m: &MappedAddr| (m.channel, m.dimm, m.rank, m.bank);
            let conflict = (1..)
                .map(LineAddr::new)
                .find(|&l| {
                    let m = mem.mapper.map(l);
                    bank(&m) == bank(&home) && m.row != home.row
                })
                .expect("some line shares the bank on another row");
            let ch = home.channel as usize;
            let slot = mem.channels[ch].devices.slot(home.dimm, home.rank);
            // Active residency of the bank's rank after one read of
            // `line` arriving at `at` on an otherwise idle channel.
            let mut active_after = |id: u64, line: LineAddr, at: Time| {
                let req =
                    MemRequest::new(RequestId(id), CoreId(0), AccessKind::DemandRead, line, at);
                let (c, ready) = mem.submit(req);
                assert_eq!(mem.decide(c, ready).issued.len(), 1);
                mem.complete(c);
                mem.channels[ch].power[slot]
                    .residency(at + Dur::from_ns(1_000))
                    .active
            };
            // The first read opens the row (ACT..burst); the conflict
            // closes it first, so its window is one tRP longer.
            let opened = active_after(0, LineAddr::new(0), Time::ZERO);
            let both = active_after(1, conflict, Time::from_ns(300));
            assert_eq!(
                both - opened,
                opened + cfg.timings.t_rp,
                "{:?}: the conflict's PRE..ACT window is active time",
                cfg.tech
            );
        }
    }

    /// Each rank's power-mode tracker folds its history as it settles,
    /// so a long close-page stream (whose busy windows rarely merge)
    /// leaves only the spans past the last decision unsettled, however
    /// long the run. Refresh is on, so refreshed ranks settle too.
    #[test]
    fn power_trackers_stay_small_over_a_long_close_page_stream() {
        let mut cfg = MemoryConfig::ddr2_default();
        cfg.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();
        assert_eq!(cfg.page_policy, PagePolicy::ClosePage);
        let mut mem = MemorySystem::new(&cfg);
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut line = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % (1 << 24)
        };
        let (mut at, mut most, mut noted) = (Time::ZERO, 0, 0);
        for chunk in 0..20 {
            let reqs: Vec<MemRequest> = (0..1_000)
                .map(|i| {
                    let id = chunk * 1_000 + i;
                    let kind = if id % 4 == 3 {
                        AccessKind::Write
                    } else {
                        AccessKind::DemandRead
                    };
                    let arrival = at + Dur::from_ns(12 * i);
                    MemRequest::new(
                        RequestId(id),
                        CoreId(0),
                        kind,
                        LineAddr::new(line()),
                        arrival,
                    )
                })
                .collect();
            at = crate::drive(&mut mem, reqs) + Dur::from_ns(100);
            let trackers = mem.channels.iter().flat_map(|c| &c.power);
            most = most.max(trackers.map(|t| t.unsettled()).max().expect("ranks"));
        }
        for c in &mem.channels {
            noted += c.power.iter().map(|t| t.noted()).sum::<usize>();
        }
        let stats = mem.stats();
        assert_eq!(stats.total_reads() + stats.writes, 20_000);
        assert!(noted > 20_000, "every access and refresh is noted");
        assert!(most <= 24, "a tracker held {most} unsettled spans");
    }

    #[test]
    fn refresh_runs_only_when_the_config_enables_it() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();
        // One idle decision two refresh intervals in drains two rounds
        // of channel 0's staggered deadlines: every rank of every DIMM.
        let refreshes = |cfg: &MemoryConfig| {
            let mut mem = MemorySystem::new(cfg);
            let _ = mem.decide(0, Time::ZERO + cfg.refresh.t_refi * 2);
            mem.stats().dram_ops.refreshes
        };
        let rounds = 2 * u64::from(cfg.dimms_per_channel * cfg.ranks_per_dimm);
        assert_eq!(refreshes(&cfg), rounds);
        cfg.refresh.enabled = false;
        assert_eq!(refreshes(&cfg), 0);
        assert_eq!(
            refreshes(&MemoryConfig::fbdimm_default()),
            0,
            "the paper default keeps refresh off"
        );
    }

    #[test]
    fn escapes_poison_lines_and_patrol_scrub_repairs_them() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.logical_channels = 1;
        cfg.faults.ber = 1.0; // every frame corrupt ...
        cfg.faults.crc_bits = 1; // ... and half the corruptions escape
        cfg.faults.seed = 42;
        cfg.faults.scrub_interval_ns = 10;
        for scrub in ScrubPolicyKind::ALL {
            cfg.faults.scrub = scrub;
            let mut mem = MemorySystem::new(&cfg);
            let mut t = Time::ZERO;
            for i in 0..50 {
                t = Time::from_ns(1_000 * (i + 1));
                let (ch, _) = mem.submit(demand(i, 5, t));
                let r = mem.decide(ch, t + CONTROLLER_OVERHEAD);
                assert_eq!(r.issued.len(), 1);
                mem.complete(ch);
            }
            let fr = mem.fault_report(t).expect("faulted run");
            assert!(fr.counters.escaped > 0, "a 1-bit CRC lets escapes through");
            assert_eq!(
                fr.counters.detected + fr.counters.escaped,
                fr.counters.injected,
                "every injection is either detected or escaped"
            );
            assert_eq!(fr.silent.poisoned_lines, 1, "line 5 is poisoned");
            assert!(
                fr.silent.demand_consumed > 0,
                "later demand reads consumed the poisoned line"
            );
            let r = mem.decide(0, t + Dur::from_ns(1_000));
            let fr = mem.fault_report(t + Dur::from_ns(2_000)).expect("report");
            if scrub == ScrubPolicyKind::None {
                // Poison tracking alone never sweeps: the idle slot
                // stays idle and the line stays poisoned.
                assert!(r.issued.is_empty(), "no scrub policy, no sweep");
                assert_eq!(fr.counters.scrub_reads, 0);
                assert_eq!(fr.silent.poisoned_lines, 1);
                continue;
            }
            // An idle decision sweeps the (only) observed line and
            // repairs it with a rewrite in the same decision.
            assert!(r.issued.len() >= 2, "scrub read plus repair rewrite");
            assert!(fr.silent.scrubbed_clean >= 1);
            assert!(fr.counters.scrub_rewrites >= 1);
        }
    }
}
