//! The full-system simulation engine.
//!
//! The processor complex (`fbd-cpu`) drives the memory subsystem
//! ([`crate::memsys::MemorySystem`]) as the closed-loop front end of
//! the one event loop: cores emit requests, channel decision events
//! schedule them, completions flow back and unblock commit. The run
//! ends when any core commits its instruction budget (the paper's stop
//! condition).

use fbd_cpu::{CpuComplex, TraceSource};
use fbd_faults::FaultReport;
use fbd_power::EnergyReport;
use fbd_telemetry::host::{Counter, HostHandle, HostReport, Phase};
use fbd_telemetry::{SampleObserver, StageProfile, Telemetry, TelemetryConfig};
use fbd_types::config::SystemConfig;
use fbd_types::request::MemRequest;
use fbd_types::stats::{CoreStats, MemStats};
use fbd_types::time::{Dur, Time};
use fbd_types::LineAddr;

use crate::compose::Composition;
use crate::engine::{Engine, FrontEnd};
use crate::events::EventQueue;
use crate::memsys::{ChannelCounters, MemorySystem};
use crate::trace_io::MemoryTrace;

/// Safety valve: closed-loop runs that exceed this much simulated time
/// abort (a deadlock bug, not a slow workload), and trace files may not
/// schedule an arrival past it.
pub const MAX_SIM_TIME: Time = Time::from_ns(1_000_000_000); // 1 s

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Simulated time at which the first core finished its budget.
    pub elapsed: Dur,
    /// Per-core execution statistics.
    pub cores: Vec<CoreStats>,
    /// Memory-subsystem statistics.
    pub mem: MemStats,
    /// Always-on per-channel traffic counters, indexed by channel.
    pub channels: Vec<ChannelCounters>,
    /// The run's energy breakdown (activation, burst, refresh,
    /// background, AMB) from the Micron energy model matching the
    /// substrate's data rate; the report names the IDD current set it
    /// used.
    pub energy: EnergyReport,
    /// The captured transaction trace, when capture was enabled.
    pub trace: Option<MemoryTrace>,
    /// The run's telemetry (registry, epoch time-series, event trace),
    /// when telemetry was enabled.
    pub telemetry: Option<Telemetry>,
    /// Stage × request-class latency attribution over every completed
    /// read and posted write (always collected; see
    /// [`MemorySystem::latency_profile`](crate::MemorySystem::latency_profile)).
    pub profile: StageProfile,
    /// Error/recovery summary when fault injection was configured
    /// (`None` on a no-fault run, so downstream exports stay identical).
    pub faults: Option<FaultReport>,
    /// Host-side profile of the run: wall-clock phase breakdown, event
    /// counters, and simulated-cycles/sec throughput (a disabled
    /// default report when no profiler was attached).
    pub host: HostReport,
}

impl RunResult {
    /// Utilized bandwidth in GB/s over the run.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.mem.utilized_bandwidth_gbps(self.elapsed)
    }

    /// Average demand-read latency in nanoseconds.
    pub fn avg_read_latency_ns(&self) -> f64 {
        self.mem.read_latency.mean().map_or(0.0, |d| d.as_ns_f64())
    }

    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(CoreStats::ipc).collect()
    }

    /// Per-channel utilized bandwidth in GB/s over the run.
    pub fn channel_bandwidth_gbps(&self) -> Vec<f64> {
        let secs = self.elapsed.as_ns_f64() * 1e-9;
        self.channels
            .iter()
            .map(|c| {
                if secs > 0.0 {
                    c.bytes as f64 * 1e-9 / secs
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Demand-read latency percentile in nanoseconds (0 until reads
    /// complete).
    pub fn read_latency_percentile_ns(&self, q: f64) -> f64 {
        self.mem
            .read_latency_hist
            .percentile(q)
            .map_or(0.0, |d| d.as_ns_f64())
    }
}

/// A complete simulated system, ready to run.
#[derive(Debug)]
pub struct System {
    cpu: CpuComplex,
    mem: MemorySystem,
    engine: Engine,
}

/// The processor complex is the closed-loop front end.
impl FrontEnd for CpuComplex {
    const COMPLETIONS_FIRST: bool = false;

    fn pump(&mut self, now: Time, out: &mut Vec<MemRequest>) -> Option<Time> {
        self.advance_into(now, out)
    }

    fn read_done(&mut self, now: Time, line: LineAddr, dropped: bool) {
        // Software prefetches and demand reads both fill the L2; the
        // complex routes waiters by line.
        let deliver = now + self.fill_latency();
        if dropped {
            self.complete_dropped(line, deliver);
        } else {
            self.complete(line, deliver);
        }
    }

    fn done(&self, now: Time) -> bool {
        assert!(
            now <= MAX_SIM_TIME,
            "simulation exceeded the safety time limit"
        );
        self.any_done(now)
    }

    fn set_gauges(&self, tel: &mut Telemetry) {
        let (lines, slots) = self.occupancy();
        let reg = &mut tel.registry;
        let mshr = reg.gauge("cpu.l2_mshr_occupancy");
        reg.set(mshr, lines as f64);
        let outstanding = reg.gauge("cpu.outstanding_misses");
        reg.set(outstanding, slots as f64);
    }
}

impl System {
    /// Builds a system from a validated configuration and one trace per
    /// core; the run ends when a core commits `budget` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does
    /// not match the core count.
    pub fn new(cfg: &SystemConfig, traces: Vec<Box<dyn TraceSource>>, budget: u64) -> System {
        System::composed(cfg, traces, budget, &Composition::from_config(&cfg.mem))
            .expect("invalid system configuration")
    }

    /// Like [`new`](Self::new), but composes the memory subsystem from
    /// an explicit [`Composition`] of registry names.
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid configuration field or the
    /// unresolved registry name.
    ///
    /// # Panics
    ///
    /// Panics if the trace count does not match the core count.
    pub fn composed(
        cfg: &SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        budget: u64,
        comp: &Composition,
    ) -> Result<System, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        let mem = MemorySystem::compose(&cfg.mem, comp)?;
        Ok(System {
            cpu: CpuComplex::new(&cfg.cpu, traces, budget),
            mem,
            // Sized to the per-pump ceiling: every L2 MSHR missing at
            // once, each with a dirty writeback, plus prefetcher
            // suggestions.
            engine: Engine::new(EventQueue::from_env(), cfg.cpu.l2_mshrs as usize * 2 + 64),
        })
    }

    /// Attaches a host-side profiler: the event loop marks phase
    /// boundaries and bumps hot-loop counters into it, and
    /// [`RunResult::host`] carries its report. Without this call every
    /// instrumentation site is a no-op branch.
    pub fn set_host_profiler(&mut self, host: HostHandle) {
        self.mem.set_host_profiler(host.clone());
        self.engine.host = host;
    }

    /// Attaches a [`SampleObserver`] notified with every epoch-sampler
    /// row — requires telemetry sampling to already be enabled (no-op
    /// otherwise).
    pub fn set_sample_observer(&mut self, observer: SampleObserver) {
        if let Some(tel) = self.mem.telemetry_mut() {
            tel.observer = observer;
        }
    }

    /// Records every transaction handed to the memory controller; the
    /// trace is returned in [`RunResult::trace`].
    pub fn enable_trace_capture(&mut self) {
        self.engine.capture = Some(MemoryTrace::new());
    }

    /// Turns on telemetry for the run: the memory subsystem registers
    /// its metrics and tracks, the processor registers its occupancy
    /// gauges, and (when sampling is configured) the event loop takes
    /// epoch snapshots. The collected [`Telemetry`] is returned in
    /// [`RunResult::telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `config.sample_interval` is `Some(Dur::ZERO)`.
    pub fn enable_telemetry(&mut self, config: &TelemetryConfig) {
        self.mem.enable_telemetry(config);
        self.cpu
            .set_gauges(self.mem.telemetry_mut().expect("just enabled"));
    }

    /// Fast-forwards each trace through the L2 for `ops_per_core`
    /// operations so capacity evictions (writeback traffic) are present
    /// from the start; usable on a constructed system before `run`.
    pub fn warm(&mut self, ops_per_core: u64) {
        self.cpu.warm_l2(ops_per_core);
    }

    /// Snapshots the post-warm-up CPU state (L2 contents and trace
    /// positions); see [`fbd_cpu::CpuComplex::warm_snapshot`].
    pub fn warm_snapshot(&self) -> Option<fbd_cpu::WarmState> {
        self.cpu.warm_snapshot()
    }

    /// Restores a snapshot taken by [`Self::warm_snapshot`] —
    /// byte-identical to replaying the same warm-up. Returns `false`
    /// and leaves the system untouched if the snapshot does not fit.
    pub fn warm_restore(&mut self, state: &fbd_cpu::WarmState) -> bool {
        self.cpu.warm_restore(state)
    }

    /// Runs the simulation to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if the system deadlocks (no events while no core can
    /// finish) or exceeds the safety time limit — both indicate bugs,
    /// not workload properties.
    pub fn run(mut self) -> RunResult {
        self.engine.run(&mut self.mem, &mut self.cpu);
        let now = self.engine.now;
        assert!(
            self.cpu.any_done(now),
            "simulation deadlock: no events pending and no core finished"
        );
        let elapsed = now - Time::ZERO;
        let cores = self.cpu.finish(now);
        let telemetry = self.mem.finish_telemetry(now);
        let mem = self.mem.finish_stats();
        let ops = &mem.dram_ops;
        // ACT/PRE are counted as pairs; expand to individual commands.
        self.engine.host.set(
            Counter::DramCommands,
            ops.act_pre * 2 + ops.col_total() + ops.refreshes,
        );
        let instructions: u64 = cores.iter().map(|c| c.instructions).sum();
        self.engine.host.mark(Phase::Finish);
        let mut host = self.engine.host.finish_report(
            elapsed,
            self.mem.config().data_rate.clock_period(),
            instructions,
        );
        host.build = crate::build_info();
        RunResult {
            elapsed,
            cores,
            mem,
            channels: self.mem.channel_counters(),
            energy: self.mem.energy_report(now),
            profile: self.mem.latency_profile().clone(),
            faults: self.mem.fault_report(now),
            trace: self.engine.capture,
            telemetry,
            host,
        }
    }
}
