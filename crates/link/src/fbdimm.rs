//! The FB-DIMM channel: southbound and northbound links and the AMB
//! daisy chain (paper §2).
//!
//! Both links are unidirectional and independently scheduled by the
//! memory controller. Per 6 ns frame (two DRAM clocks at 667 MT/s) a
//! physical southbound link carries three commands *or* one command plus
//! 16 bytes of write data; a physical northbound link carries 32 bytes of
//! read data. Two physical channels ganged into a logical channel move a
//! whole 64-byte line per frame time northbound, and commands are
//! broadcast to both members of the gang.
//!
//! The daisy chain adds a per-AMB forwarding delay. Without Variable Read
//! Latency (the paper's default) every access is charged the delay of the
//! farthest DIMM; with VRL the delay depends on the DIMM's position.

use fbd_faults::{backoff_slots, probe_delay, FaultCounters, FaultProcess, FaultReport, LinkDir};
use fbd_types::config::{MemoryConfig, MemoryTech};
use fbd_types::time::{Dur, Time};
use fbd_types::CACHE_LINE_BYTES;

use crate::timeline::Timeline;

/// Payload bits per southbound frame per physical link: 10 lanes × 12
/// transfers (the FB-DIMM frame format; CRC exposure scales with it).
const SOUTH_BITS_PER_FRAME: u32 = 120;

/// Payload bits per northbound frame per physical link: 14 lanes × 12
/// transfers.
const NORTH_BITS_PER_FRAME: u32 = 168;

/// A granted link reservation: where the transfer sits on the wire and
/// when its payload is usable at the far end.
///
/// `start`/`dur` describe link *occupancy* (what an event tracer draws
/// on the frame timeline); `done` is the *latency* endpoint — command
/// arrival at the AMBs southbound, the critical line's arrival at the
/// controller northbound — which includes transit and daisy-chain
/// delays that occupy no link time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSlot {
    /// First instant the transfer occupies the link.
    pub start: Time,
    /// Time the transfer occupies the link.
    pub dur: Dur,
    /// When the payload is available at the receiver.
    pub done: Time,
}

/// A link transfer after CRC checking and recovery: the final granted
/// slot plus everything the recovery machinery did to get there.
///
/// When fault injection is off (or the transfer sailed through clean)
/// this is just the plain [`LinkSlot`] with no retry history.
#[derive(Clone, Debug)]
pub struct LinkXfer {
    /// The delivering reservation — the successful replay, or the
    /// corrupted original for a dropped prefetch transfer.
    pub slot: LinkSlot,
    /// Start of the *first* attempt (the queue-wait boundary; replays
    /// never start earlier than this).
    pub first_start: Time,
    /// `done` of the *first* attempt: the stage boundary up to which
    /// time is charged to the link stage; everything between this and
    /// `slot.done` is retry time.
    pub first_done: Time,
    /// Corrupted attempts that occupied the wire before the delivering
    /// one, in issue order (for the trace's retry track).
    pub failed: Vec<LinkSlot>,
    /// Replay attempts performed.
    pub retries: u32,
    /// True when the corrupted transfer was dropped instead of replayed
    /// (northbound prefetch data under the AMB drop rule).
    pub dropped: bool,
    /// True when this transfer exhausted its retry budget and forced
    /// the lane fail-over.
    pub failover: bool,
    /// True when the transfer was corrupted but aliased past the CRC
    /// check: it delivered on clean timing, silently carrying bad data
    /// (the consumer must poison the line).
    pub escaped: bool,
}

impl LinkXfer {
    /// A transfer that needed no recovery.
    fn clean(slot: LinkSlot) -> LinkXfer {
        LinkXfer {
            slot,
            first_start: slot.start,
            first_done: slot.done,
            failed: Vec::new(),
            retries: 0,
            dropped: false,
            failover: false,
            escaped: false,
        }
    }
}

/// The kind of transfer being recovered (which primitive to replay).
#[derive(Clone, Copy, Debug)]
enum XferKind {
    Command,
    WriteData,
    ReadData { dimm: u32 },
}

impl XferKind {
    fn dir(self) -> LinkDir {
        match self {
            XferKind::Command | XferKind::WriteData => LinkDir::South,
            XferKind::ReadData { .. } => LinkDir::North,
        }
    }
}

/// Frames one fail-back probe pattern occupies (a short training
/// sequence the controller sends on the mapped-out lane).
const PROBE_FRAMES: u64 = 4;

/// Per-AMB daisy-chain forwarding delay (Table 1: 3 ns).
const AMB_HOP_DELAY: Dur = Dur::from_ns(3);

/// Replay attempts per frame before the controller declares the lane
/// dead and fails over to degraded width.
const MAX_RETRIES: u32 = 4;

/// Fail-back probes per degradation episode before the lane is left
/// degraded for good.
const FAILBACK_MAX_PROBES: u32 = 6;

/// Successful fail-backs allowed per direction before a flapping lane
/// is pinned degraded (the fail-back hysteresis).
const FAILBACK_MAX_FLAPS: u32 = 3;

/// Per-channel fault state: one error process per link direction plus
/// the recovery bookkeeping.
#[derive(Clone, Debug)]
struct ChannelFaults {
    processes: [FaultProcess; 2],
    /// Injection live per direction; cleared by fail-over (the bad lane
    /// is mapped out, the surviving lanes are assumed healthy) and
    /// restored by a successful fail-back probe.
    live: [bool; 2],
    /// When each direction dropped to the degraded lane map.
    degraded_since: [Option<Time>; 2],
    counters: FaultCounters,
    /// Earliest instant the next fail-back probe may run per direction;
    /// `None` when no probe is pending (lane healthy, fail-back
    /// disabled, or the probe/flap budget is spent).
    probe_at: [Option<Time>; 2],
    /// Failed probes since this direction degraded (drives the
    /// exponential probe schedule).
    probe_count: [u32; 2],
    /// Completed fail-overs *after* a fail-back per direction — the
    /// flap count; lanes that keep flapping stay failed for good.
    flaps: [u32; 2],
    /// Degraded residency of closed degradation spans (spans still open
    /// at end of run are added by [`FbdChannel::fault_report`]).
    degraded_total: Dur,
    /// Quiet period before the first re-probe; zero disables fail-back.
    failback_quiet: Dur,
}

/// One logical FB-DIMM channel's southbound + northbound links.
#[derive(Clone, Debug)]
pub struct FbdChannel {
    south: Timeline,
    north: Timeline,
    /// Time one command occupies the southbound link (a frame carries 3).
    cmd_slot: Dur,
    /// Southbound time for a full line of write data.
    write_slot: Dur,
    /// Northbound time for a full line of read data.
    read_slot: Dur,
    /// Transit latency of a command from controller onto the chain.
    cmd_transit: Dur,
    /// Frame time (backoff and error-process draws are frame-granular).
    frame: Dur,
    chain: DaisyChain,
    /// Fault injection state; `None` keeps the fault-free path
    /// bit-identical to a build without the fault layer.
    faults: Option<Box<ChannelFaults>>,
}

/// Per-AMB daisy-chain delay model.
#[derive(Clone, Copy, Debug)]
pub struct DaisyChain {
    hop: Dur,
    dimms: u32,
    vrl: bool,
}

impl DaisyChain {
    /// Creates a chain of `dimms` AMBs with `hop` forwarding delay each.
    ///
    /// # Panics
    ///
    /// Panics if `dimms` is zero.
    pub fn new(hop: Dur, dimms: u32, vrl: bool) -> DaisyChain {
        assert!(dimms > 0, "a channel must have at least one DIMM");
        DaisyChain { hop, dimms, vrl }
    }

    /// Total AMB forwarding delay charged to an access of DIMM `dimm`.
    ///
    /// Without VRL this is the farthest DIMM's delay regardless of the
    /// target (fixed read latency); with VRL it is proportional to the
    /// target's position.
    ///
    /// # Panics
    ///
    /// Panics if `dimm` is out of range.
    pub fn amb_delay(&self, dimm: u32) -> Dur {
        assert!(dimm < self.dimms, "dimm {dimm} out of range");
        if self.vrl {
            self.hop * u64::from(dimm + 1)
        } else {
            self.hop * u64::from(self.dimms)
        }
    }
}

impl FbdChannel {
    /// Builds logical channel `channel` from the memory configuration.
    /// The index seeds the per-channel fault streams, so different
    /// channels see independent (but reproducible) error patterns.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not an FB-DIMM one.
    pub fn for_channel(cfg: &MemoryConfig, channel: u32) -> FbdChannel {
        let vrl = match cfg.tech {
            MemoryTech::FbDimm { vrl } => vrl,
            MemoryTech::Ddr2 => panic!("FbdChannel requires an FB-DIMM configuration"),
        };
        let clock = cfg.data_rate.clock_period();
        let frame = clock * 2;
        let gang = u64::from(cfg.phys_per_logical);
        // Northbound: 32 B per frame per physical link.
        let frames_per_line_north = (CACHE_LINE_BYTES / 32).div_ceil(gang);
        // Southbound: 16 B per frame per physical link.
        let frames_per_line_south = (CACHE_LINE_BYTES / 16).div_ceil(gang);
        let faults = cfg.faults.is_active().then(|| {
            let bits = |per_link: u32| per_link * cfg.phys_per_logical;
            Box::new(ChannelFaults {
                processes: [
                    FaultProcess::new(
                        &cfg.faults,
                        channel,
                        LinkDir::South,
                        bits(SOUTH_BITS_PER_FRAME),
                    ),
                    FaultProcess::new(
                        &cfg.faults,
                        channel,
                        LinkDir::North,
                        bits(NORTH_BITS_PER_FRAME),
                    ),
                ],
                live: [true; 2],
                degraded_since: [None; 2],
                counters: FaultCounters::default(),
                probe_at: [None; 2],
                probe_count: [0; 2],
                flaps: [0; 2],
                degraded_total: Dur::ZERO,
                failback_quiet: Dur::from_ns(cfg.faults.failback_quiet_ns),
            })
        });
        // Southbound slots are command-sized (3 per frame) so that three
        // commands really fit in one frame; northbound slots are
        // clock-sized.
        FbdChannel {
            south: Timeline::new(frame / 3),
            north: Timeline::new(clock),
            cmd_slot: frame / 3,
            write_slot: frame * frames_per_line_south,
            read_slot: frame * frames_per_line_north,
            cmd_transit: clock,
            frame,
            chain: DaisyChain::new(AMB_HOP_DELAY, cfg.dimms_per_channel, vrl),
            faults,
        }
    }

    /// Sends a command southbound at or after `not_before`; the slot's
    /// `done` is the instant the command *arrives at the AMBs* (send
    /// slot + transit).
    pub fn send_command(&mut self, not_before: Time) -> LinkSlot {
        let start = self.south.reserve(not_before, self.cmd_slot);
        LinkSlot {
            start,
            dur: self.cmd_slot,
            done: start + self.cmd_transit,
        }
    }

    /// Streams a line of write data southbound at or after `not_before`;
    /// the slot's `done` is the instant the last byte arrives at the
    /// AMBs.
    pub fn send_write_data(&mut self, not_before: Time) -> LinkSlot {
        let start = self.south.reserve(not_before, self.write_slot);
        LinkSlot {
            start,
            dur: self.write_slot,
            done: start + self.write_slot + self.cmd_transit,
        }
    }

    /// Returns a line of read data northbound from DIMM `dimm`. The AMB
    /// cuts the data through as it is produced, so the transfer may start
    /// at `data_ready` (when the first beats exist at the AMB); the
    /// critical line reaches the controller after the northbound frame
    /// plus the daisy-chain delay.
    ///
    /// The slot's `done` is the completion instant at the controller.
    pub fn return_read_data(&mut self, dimm: u32, data_ready: Time) -> LinkSlot {
        let start = self.north.reserve(data_ready, self.read_slot);
        LinkSlot {
            start,
            dur: self.read_slot,
            done: start + self.read_slot + self.chain.amb_delay(dimm),
        }
    }

    /// Like [`send_command`](Self::send_command), but subject to the
    /// channel's fault process: a corrupted command frame is replayed
    /// with bounded retries and exponential backoff. Identical to the
    /// unchecked call when fault injection is off.
    pub fn send_command_checked(&mut self, not_before: Time) -> LinkXfer {
        self.transfer(XferKind::Command, not_before, false)
    }

    /// Like [`send_write_data`](Self::send_write_data), but subject to
    /// the fault process (write data must be delivered, so corrupted
    /// frames always replay).
    pub fn send_write_data_checked(&mut self, not_before: Time) -> LinkXfer {
        self.transfer(XferKind::WriteData, not_before, false)
    }

    /// Like [`return_read_data`](Self::return_read_data), but subject to
    /// the fault process. `droppable` marks prefetch data: a corrupted
    /// droppable transfer is *not* replayed — the AMB/controller just
    /// discards it (the line is not cached) and the returned transfer
    /// has [`LinkXfer::dropped`] set. Demand data always replays.
    pub fn return_read_data_checked(
        &mut self,
        dimm: u32,
        data_ready: Time,
        droppable: bool,
    ) -> LinkXfer {
        self.transfer(XferKind::ReadData { dimm }, data_ready, droppable)
    }

    /// Issues one wire occupancy of `kind` (shared by the first attempt
    /// and every replay; replays pick up degraded slot widths
    /// automatically because the slot fields themselves are degraded).
    fn issue(&mut self, kind: XferKind, not_before: Time) -> LinkSlot {
        match kind {
            XferKind::Command => self.send_command(not_before),
            XferKind::WriteData => self.send_write_data(not_before),
            XferKind::ReadData { dimm } => self.return_read_data(dimm, not_before),
        }
    }

    /// Frames a transfer of `kind` currently occupies (error-process
    /// draws are per frame; a command rides in one frame).
    fn frames_of(&self, kind: XferKind) -> u64 {
        let dur = match kind {
            XferKind::Command => return 1,
            XferKind::WriteData => self.write_slot,
            XferKind::ReadData { .. } => self.read_slot,
        };
        dur.as_ps().div_ceil(self.frame.as_ps()).max(1)
    }

    /// Draws the fault process for one attempt of `kind`; false when
    /// injection is off or the direction already failed over.
    fn draw(&mut self, kind: XferKind) -> bool {
        let frames = self.frames_of(kind);
        let dir = kind.dir();
        match self.faults.as_mut() {
            Some(f) if f.live[dir.index()] => f.processes[dir.index()].corrupt_transfer(frames),
            _ => false,
        }
    }

    /// Maps out the failed lane on `dir` at `at`: injection stops (the
    /// defective lane is gone), and the direction's transfers widen to
    /// twice their slot time — the half-width lane map carries half the
    /// bandwidth until a fail-back probe (if enabled) restores it.
    fn fail_over(&mut self, dir: LinkDir, at: Time) {
        let f = self.faults.as_mut().expect("fail-over without faults");
        f.counters.failovers += 1;
        f.live[dir.index()] = false;
        f.degraded_since[dir.index()].get_or_insert(at);
        // Schedule the first re-probe after the quiet period —
        // unless fail-back is off or this lane has flapped too often
        // (hysteresis: a repeat offender stays failed).
        f.probe_count[dir.index()] = 0;
        f.probe_at[dir.index()] = (!f.failback_quiet.is_zero()
            && f.flaps[dir.index()] < FAILBACK_MAX_FLAPS)
            .then(|| at + f.failback_quiet);
        match dir {
            LinkDir::South => {
                self.cmd_slot = self.cmd_slot * 2;
                self.write_slot = self.write_slot * 2;
            }
            LinkDir::North => self.read_slot = self.read_slot * 2,
        }
    }

    /// Runs a due fail-back probe on `dir`, if any: a short training
    /// pattern on the mapped-out lane. A clean probe restores the
    /// full-width lane map (and re-arms injection — the lane may fail
    /// again, which counts as a flap); a corrupted one reschedules on
    /// the bounded exponential probe schedule until the probe budget is
    /// spent. Probes are opportunistic — they piggyback on the next
    /// transfer at or after their due time, costing no link occupancy.
    fn maybe_failback(&mut self, dir: LinkDir, now: Time) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let i = dir.index();
        match f.probe_at[i] {
            Some(due) if due <= now && !f.live[i] => {}
            _ => return,
        }
        f.counters.probes += 1;
        // A stuck-lane defect is permanent silicon damage: its probes
        // never pass. Transient processes re-draw the error stream.
        let clean = !f.processes[i].is_stuck() && !f.processes[i].corrupt_transfer(PROBE_FRAMES);
        if clean {
            f.counters.failbacks += 1;
            f.flaps[i] += 1;
            f.live[i] = true;
            f.probe_at[i] = None;
            f.probe_count[i] = 0;
            if let Some(since) = f.degraded_since[i].take() {
                f.degraded_total += now.saturating_since(since);
            }
            match dir {
                LinkDir::South => {
                    self.cmd_slot = self.cmd_slot / 2;
                    self.write_slot = self.write_slot / 2;
                }
                LinkDir::North => self.read_slot = self.read_slot / 2,
            }
        } else {
            f.probe_count[i] += 1;
            f.probe_at[i] = (f.probe_count[i] < FAILBACK_MAX_PROBES)
                .then(|| now + probe_delay(f.failback_quiet, f.probe_count[i]));
        }
    }

    /// The CRC/retry state machine around one wire transfer: detect a
    /// corrupted attempt, replay it after exponential backoff, and
    /// escalate to lane fail-over when the retry budget runs out.
    fn transfer(&mut self, kind: XferKind, not_before: Time, droppable: bool) -> LinkXfer {
        self.maybe_failback(kind.dir(), not_before);
        let first = self.issue(kind, not_before);
        if self.faults.is_none() {
            return LinkXfer::clean(first);
        }
        let mut xfer = LinkXfer::clean(first);
        if !self.draw(kind) {
            return xfer;
        }
        let f = self.faults.as_mut().expect("checked above");
        f.counters.injected += 1;
        if f.processes[kind.dir().index()].escapes() {
            // The corruption aliased to a valid CRC codeword: the
            // transfer delivers on clean timing, silently bad.
            f.counters.escaped += 1;
            xfer.escaped = true;
            return xfer;
        }
        f.counters.detected += 1;
        if droppable {
            f.counters.dropped_prefetch += 1;
            xfer.dropped = true;
            return xfer;
        }
        let mut attempt = 0u32;
        let mut prev = first;
        loop {
            if attempt >= MAX_RETRIES {
                // Retry budget exhausted: declare the lane dead, fail
                // over to the degraded map, and force-deliver on it
                // (injection is off for this direction from here on).
                let f = self.faults.as_mut().expect("checked above");
                f.counters.retry_exhausted += 1;
                let dir = kind.dir();
                self.fail_over(dir, prev.start + prev.dur);
                let slot = self.issue(kind, prev.start + prev.dur);
                xfer.failed.push(prev);
                xfer.retries = attempt + 1;
                xfer.failover = true;
                xfer.slot = slot;
                self.faults
                    .as_mut()
                    .expect("checked above")
                    .counters
                    .retried += 1;
                return xfer;
            }
            // Back off 2^attempt frame slots from the end of the failed
            // occupancy, then replay.
            let backoff = self.frame * backoff_slots(attempt);
            let slot = self.issue(kind, prev.start + prev.dur + backoff);
            let f = self.faults.as_mut().expect("checked above");
            f.counters.retried += 1;
            xfer.failed.push(prev);
            attempt += 1;
            if !self.draw(kind) {
                xfer.retries = attempt;
                xfer.slot = slot;
                return xfer;
            }
            let f = self.faults.as_mut().expect("checked above");
            f.counters.injected += 1;
            if f.processes[kind.dir().index()].escapes() {
                // A corrupted *replay* aliasing through: accepted as
                // the delivering attempt, silently bad.
                f.counters.escaped += 1;
                xfer.escaped = true;
                xfer.retries = attempt;
                xfer.slot = slot;
                return xfer;
            }
            f.counters.detected += 1;
            prev = slot;
        }
    }

    /// End-of-run fault summary: counters plus the degraded-width
    /// residency of both directions up to `end`. `None` when fault
    /// injection is off.
    pub fn fault_report(&self, end: Time) -> Option<FaultReport> {
        self.faults.as_deref().map(|f| FaultReport {
            counters: f.counters,
            degraded: f.degraded_total
                + f.degraded_since
                    .iter()
                    .flatten()
                    .map(|&since| end.saturating_since(since))
                    .sum(),
            silent: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::config::MemoryConfig;

    impl LinkXfer {
        /// Time between the first attempt's completion boundary and the
        /// delivering one: what the controller charges to `retry`.
        fn retry_time(&self) -> Dur {
            self.slot.done.saturating_since(self.first_done)
        }
    }

    impl FbdChannel {
        /// The channel's error/recovery counters, when fault injection
        /// is active.
        fn fault_counters(&self) -> Option<&FaultCounters> {
            self.faults.as_deref().map(|f| &f.counters)
        }
    }

    fn channel() -> FbdChannel {
        FbdChannel::for_channel(&MemoryConfig::fbdimm_default(), 0)
    }

    #[test]
    fn default_slots_match_paper_decomposition() {
        let ch = channel();
        // Ganged pair at 667 MT/s: 64 B northbound in one 6 ns frame.
        assert_eq!(ch.read_slot, Dur::from_ns(6));
        // Write data: 64 B at 2×16 B per frame = 2 frames = 12 ns.
        assert_eq!(ch.write_slot, Dur::from_ns(12));
        // Commands: 3 per 6 ns frame.
        assert_eq!(ch.cmd_slot, Dur::from_ns(2));
        assert_eq!(ch.cmd_transit, Dur::from_ns(3));
    }

    #[test]
    fn command_arrival_includes_transit() {
        let mut ch = channel();
        let slot = ch.send_command(Time::from_ns(12));
        assert_eq!(slot.start, Time::from_ns(12));
        assert_eq!(slot.dur, Dur::from_ns(2));
        assert_eq!(slot.done, Time::from_ns(15));
    }

    #[test]
    fn no_vrl_charges_farthest_dimm_delay() {
        let chain = DaisyChain::new(Dur::from_ns(3), 4, false);
        assert_eq!(chain.amb_delay(0), Dur::from_ns(12));
        assert_eq!(chain.amb_delay(3), Dur::from_ns(12));
    }

    #[test]
    fn vrl_delay_scales_with_position() {
        let chain = DaisyChain::new(Dur::from_ns(3), 4, true);
        assert_eq!(chain.amb_delay(0), Dur::from_ns(3));
        assert_eq!(chain.amb_delay(3), Dur::from_ns(12));
    }

    #[test]
    fn read_return_composes_frame_and_chain() {
        let mut ch = channel();
        // Data ready at the AMB at 45 ns → 45 + 6 (frame) + 12 (chain).
        let slot = ch.return_read_data(2, Time::from_ns(45));
        assert_eq!(slot.start, Time::from_ns(45));
        assert_eq!(slot.dur, Dur::from_ns(6));
        assert_eq!(slot.done, Time::from_ns(63));
    }

    #[test]
    fn northbound_serializes_concurrent_returns() {
        let mut ch = channel();
        let d1 = ch.return_read_data(0, Time::from_ns(45));
        let d2 = ch.return_read_data(1, Time::from_ns(45));
        assert_eq!(d1.done, Time::from_ns(63));
        assert_eq!(d2.done, Time::from_ns(69)); // queued one frame later
        assert_eq!(d2.start, d1.start + d1.dur, "frames must be back to back");
    }

    #[test]
    fn southbound_interleaves_commands_between_write_data() {
        let mut ch = channel();
        let w = ch.send_write_data(Time::ZERO); // occupies [0,12)
        assert_eq!(w.start, Time::ZERO);
        assert_eq!(w.dur, Dur::from_ns(12));
        assert_eq!(w.done, Time::from_ns(15));
        let c = ch.send_command(Time::ZERO);
        assert_eq!(c.start, Time::from_ns(12)); // first free slot after data
        assert_eq!(c.done, Time::from_ns(15)); // slot [12,14) + 3 transit
    }

    #[test]
    #[should_panic(expected = "FB-DIMM configuration")]
    fn ddr2_config_rejected() {
        let _ = FbdChannel::for_channel(&MemoryConfig::ddr2_default(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_dimm_rejected() {
        let chain = DaisyChain::new(Dur::from_ns(3), 4, false);
        let _ = chain.amb_delay(4);
    }

    fn faulty_channel(ber: f64) -> FbdChannel {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = ber;
        FbdChannel::for_channel(&cfg, 0)
    }

    #[test]
    fn paper_constants() {
        assert_eq!(AMB_HOP_DELAY, Dur::from_ns(3));
        assert_eq!(MAX_RETRIES, 4);
        assert_eq!(FAILBACK_MAX_PROBES, 6);
        assert_eq!(FAILBACK_MAX_FLAPS, 3);
    }

    #[test]
    fn checked_calls_match_unchecked_when_faults_off() {
        let mut plain = channel();
        let mut checked = channel();
        assert!(checked.fault_counters().is_none());
        assert!(checked.fault_report(Time::from_ns(100)).is_none());
        for t in [0u64, 0, 7, 30] {
            let a = plain.send_command(Time::from_ns(t));
            let b = checked.send_command_checked(Time::from_ns(t));
            assert_eq!(a, b.slot);
            assert_eq!(b.retry_time(), Dur::ZERO);
            assert!(!b.dropped && b.failed.is_empty());
        }
        let a = plain.return_read_data(1, Time::from_ns(50));
        let b = checked.return_read_data_checked(1, Time::from_ns(50), true);
        assert_eq!(a, b.slot);
    }

    #[test]
    fn certain_corruption_retries_with_backoff_then_fails_over() {
        // BER 1 corrupts every frame, so the first command exhausts its
        // retry budget and forces the southbound fail-over.
        let mut ch = faulty_channel(1.0);
        let xfer = ch.send_command_checked(Time::ZERO);
        let replays = MAX_RETRIES as usize;
        assert!(xfer.failover);
        assert_eq!(xfer.retries as usize, replays + 1); // + the forced delivery
        assert_eq!(xfer.failed.len(), replays + 1); // original + corrupted replays
        assert!(xfer.retry_time() > Dur::ZERO);
        // Backoff: replay 1 waits 1 frame (6 ns) after the 2 ns slot,
        // replay 2 waits 2 frames after that.
        assert_eq!(xfer.failed[1].start, Time::from_ns(8));
        assert_eq!(xfer.failed[2].start, Time::from_ns(22));
        let c = ch.fault_counters().unwrap();
        assert_eq!(c.failovers, 1);
        assert_eq!(c.retry_exhausted, 1);
        assert_eq!(c.injected, replays as u64 + 1);
        assert_eq!(c.detected, c.injected);
        // Post-fail-over the southbound lane map is half width: command
        // slots doubled, and injection on that direction is over.
        assert_eq!(ch.cmd_slot, Dur::from_ns(4));
        assert_eq!(ch.write_slot, Dur::from_ns(24));
        // The last replay ends at 100 ns, where the lane fails over.
        let clean = ch.send_command_checked(Time::from_ns(200));
        assert!(clean.failed.is_empty());
        assert_eq!(
            ch.fault_report(Time::from_ns(200)).unwrap().degraded,
            Dur::from_ns(100)
        );
    }

    #[test]
    fn corrupted_prefetch_data_is_dropped_not_retried() {
        let mut ch = faulty_channel(1.0);
        let xfer = ch.return_read_data_checked(0, Time::from_ns(45), true);
        assert!(xfer.dropped);
        assert_eq!(xfer.retries, 0);
        assert_eq!(xfer.retry_time(), Dur::ZERO);
        // The wire was still occupied by the corrupted frame.
        assert_eq!(xfer.slot.start, Time::from_ns(45));
        let c = ch.fault_counters().unwrap();
        assert_eq!(c.dropped_prefetch, 1);
        assert_eq!(c.retried, 0);
        // Demand data on the same channel replays instead.
        let demand = ch.return_read_data_checked(0, Time::from_ns(100), false);
        assert!(!demand.dropped);
        assert!(demand.retries > 0);
    }

    #[test]
    fn escaped_transfers_deliver_silently_on_clean_timing() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = 1.0; // every frame corrupt
        cfg.faults.crc_bits = 1; // ...and half the corruptions alias
        let mut ch = FbdChannel::for_channel(&cfg, 0);
        let mut escaped = 0u32;
        for i in 0..64u64 {
            let xfer = ch.send_command_checked(Time::from_ns(i * 1_000));
            if xfer.escaped {
                escaped += 1;
                assert!(!xfer.dropped && !xfer.failover);
            }
        }
        assert!(escaped > 0, "p=0.5 escapes over 64 transfers must hit");
        let c = ch.fault_counters().unwrap();
        assert_eq!(c.escaped + c.detected, c.injected);
        assert!(c.escaped >= u64::from(escaped));
    }

    #[test]
    fn ideal_crc_keeps_the_fault_stream_unchanged() {
        // crc_bits = 0 must not consume extra rng draws: the recovery
        // timeline is bit-identical to a build that never asks about
        // escapes (the zero-cost-when-disabled contract at link level).
        let run = |crc_bits: u32| {
            let mut cfg = MemoryConfig::fbdimm_default();
            cfg.faults.ber = 0.01;
            cfg.faults.crc_bits = crc_bits;
            let mut ch = FbdChannel::for_channel(&cfg, 0);
            (0..200u64)
                .map(|i| ch.send_command_checked(Time::from_ns(i * 40)).slot.done)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0));
    }

    #[test]
    fn failback_restores_full_width_after_clean_probe() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = 1e-9; // healthy lane: probes pass
        cfg.faults.failback_quiet_ns = 500;
        let mut ch = FbdChannel::for_channel(&cfg, 0);
        ch.fail_over(LinkDir::South, Time::from_ns(100));
        assert_eq!(ch.cmd_slot, Dur::from_ns(4));
        // Before the quiet period elapses nothing probes.
        let _ = ch.send_command_checked(Time::from_ns(200));
        assert_eq!(ch.fault_counters().unwrap().probes, 0);
        assert_eq!(ch.cmd_slot, Dur::from_ns(4));
        // The first transfer past the due time piggybacks the probe;
        // the clean lane comes back at full width.
        let xfer = ch.send_command_checked(Time::from_ns(700));
        assert_eq!(xfer.slot.dur, Dur::from_ns(2), "restored width applies");
        let c = ch.fault_counters().unwrap();
        assert_eq!(c.probes, 1);
        assert_eq!(c.failbacks, 1);
        assert_eq!(ch.cmd_slot, Dur::from_ns(2));
        assert_eq!(ch.write_slot, Dur::from_ns(12));
        // The closed degradation span (100 ns → 700 ns) is residency.
        let report = ch.fault_report(Time::from_ns(10_000)).unwrap();
        assert_eq!(report.degraded, Dur::from_ns(600));
    }

    #[test]
    fn failed_probes_follow_the_bounded_schedule_then_give_up() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = 1.0; // lane still broken: every probe fails
        cfg.faults.failback_quiet_ns = 1_000;
        let mut ch = FbdChannel::for_channel(&cfg, 0);
        // BER 1 fails the first command over immediately.
        let _ = ch.send_command_checked(Time::ZERO);
        assert_eq!(ch.fault_counters().unwrap().failovers, 1);
        // Drive transfers far apart so every pending probe comes due.
        for i in 1..100u64 {
            let _ = ch.send_command_checked(Time::from_ns(i * 100_000));
        }
        let c = ch.fault_counters().unwrap();
        assert_eq!(
            c.probes,
            u64::from(FAILBACK_MAX_PROBES),
            "probe budget bounds the schedule"
        );
        assert_eq!(c.failbacks, 0);
        assert_eq!(ch.cmd_slot, Dur::from_ns(4), "lane stays degraded");
    }

    #[test]
    fn flapping_lanes_stay_failed() {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.faults.ber = 1e-9;
        cfg.faults.failback_quiet_ns = 500;
        let mut ch = FbdChannel::for_channel(&cfg, 0);
        let flaps = u64::from(FAILBACK_MAX_FLAPS);
        // Each of the first degradations fails back after the quiet
        // period.
        for k in 0..flaps {
            let at = Time::from_ns(100 + k * 1_000);
            ch.fail_over(LinkDir::North, at);
            let _ = ch.return_read_data_checked(0, at + Dur::from_ns(600), false);
            assert_eq!(ch.fault_counters().unwrap().failbacks, k + 1);
            assert_eq!(ch.read_slot, Dur::from_ns(6));
        }
        // The next degradation finds the flap budget spent: no probe is
        // ever scheduled and the lane stays at half width.
        let at = Time::from_ns(100 + flaps * 1_000);
        ch.fail_over(LinkDir::North, at);
        for i in 1..50u64 {
            let _ = ch.return_read_data_checked(0, at + Dur::from_ns(i * 100_000), false);
        }
        let c = ch.fault_counters().unwrap();
        assert_eq!(c.probes, flaps, "no probes after the flap budget is spent");
        assert_eq!(c.failbacks, flaps);
        assert_eq!(ch.read_slot, Dur::from_ns(12));
    }

    #[test]
    fn fault_recovery_is_deterministic_per_seed() {
        let run = || {
            let mut ch = faulty_channel(0.01);
            let mut dones = Vec::new();
            for i in 0..200u64 {
                dones.push(ch.send_command_checked(Time::from_ns(i * 40)).slot.done);
                dones.push(
                    ch.return_read_data_checked(0, Time::from_ns(i * 40 + 10), false)
                        .slot
                        .done,
                );
            }
            (dones, ch.fault_counters().copied().unwrap())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.any(), "1% frame corruption over 400 transfers must hit");
    }
}
