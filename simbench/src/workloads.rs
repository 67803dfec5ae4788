//! The benchmark's workloads and one measured repetition of each.
//!
//! A repetition is one whole workload run as a user of the simulator
//! pays for it: set-up (closed loop: build the system and cold-warm its
//! L2; replay: parse the trace CSV), the hot loop, and result
//! collection. The untraced repetition calls the simulator's own entry
//! points (`System::run`, `fbd_core::replay`); the traced one runs the
//! mirror loops of [`crate::mirror`] on the same inputs.

use std::time::Instant;

use fbd_core::{Composition, MemoryTrace, RunSpec, System};
use fbd_types::config::{FaultConfig, MemoryConfig, ScrubPolicyKind, SystemConfig};
use fbd_types::substrate::substrates;
use fbd_types::time::Dur;

use crate::gen::{GeneratedTrace, TraceGen};
use crate::mirror::{self, Spans};
use crate::sim::SimOutcome;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `8C-1` on `fbd-ap`: eight MSHR-limited cores keep the 64-entry
    /// transaction queue full, so scheduler decisions dominate.
    Mc8FbdAp,
    /// `1C-parser` on `ddr2`: one latency-bound core on the shared bus;
    /// a shallow queue and no link or AMB work.
    ParserDdr2,
    /// Open-loop replay of a generated read/write trace on `fbd-ap`
    /// with the full fault-recovery lifecycle armed.
    ReplayRwFaults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Mc8FbdAp,
        Workload::ParserDdr2,
        Workload::ReplayRwFaults,
    ];

    /// The name `--workload` takes.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Mc8FbdAp => "mc8-fbdap",
            Workload::ParserDdr2 => "parser-ddr2",
            Workload::ReplayRwFaults => "replay-rw-faults",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The substrate the workload runs on.
    pub const fn substrate(self) -> &'static str {
        match self {
            Workload::Mc8FbdAp | Workload::ReplayRwFaults => "fbd-ap",
            Workload::ParserDdr2 => "ddr2",
        }
    }

    /// The inputs for `seed`, at full size.
    pub fn inputs(self, seed: u64) -> Inputs {
        self.inputs_scaled(seed, 1.0)
    }

    /// The inputs for `seed` with the run length scaled by `scale`
    /// (tests use short runs; the benchmark always uses 1.0).
    pub fn inputs_scaled(self, seed: u64, scale: f64) -> Inputs {
        let scaled = |n: f64| (n * scale).round().max(1.0) as u64;
        match self {
            Workload::Mc8FbdAp => Inputs::closed("8C-1", self.substrate(), scaled(1e6), seed),
            Workload::ParserDdr2 => {
                Inputs::closed("1C-parser", self.substrate(), scaled(40e6), seed)
            }
            Workload::ReplayRwFaults => {
                let gen = TraceGen {
                    records: scaled(REPLAY_RECORDS as f64) as usize,
                    ..REPLAY_SHAPE
                };
                let mut cfg = config_of(self.substrate()).mem;
                // The full error lifecycle at the CI soak settings.
                cfg.faults = FaultConfig {
                    ber: 1e-3,
                    seed,
                    crc_bits: 4,
                    scrub: ScrubPolicyKind::Patrol,
                    scrub_interval_ns: 200,
                    failback_quiet_ns: 2_000,
                    reissue_budget: 8,
                    ..FaultConfig::off()
                };
                Inputs::Replay {
                    clock: cfg.data_rate.clock_period(),
                    cfg,
                    trace: gen.generate(seed),
                }
            }
        }
    }
}

/// Replay records at full size. The replay's work grows quadratically
/// with the record count: this many take about half a second, short
/// enough for the host-speed probes around a repetition to track the
/// host's speed during it (at 4000 records, about 2 s, they did not).
pub const REPLAY_RECORDS: usize = 2_000;

/// Shape of the generated replay trace (record count aside): a third
/// writes, half streaming, one arrival every 20 ns on average. At this
/// rate the channels rarely hit their in-flight limit, so the replay's
/// decision chains live to the end of the trace and its work (~1000
/// decisions per record at full size) hardly depends on the seed; at
/// 10 ns the limit cut chains at random and the work varied by a third
/// between seeds.
pub const REPLAY_SHAPE: TraceGen = TraceGen {
    records: 0,
    write_share: 1.0 / 3.0,
    stream_share: 0.5,
    mean_gap_ps: 20_000.0,
    streams: 4,
    footprint_lines: 1 << 22,
};

fn config_of(substrate: &str) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(1);
    cfg.mem = substrates()
        .get(substrate)
        .expect("benchmark substrates are registered")
        .config();
    cfg
}

/// Everything one repetition needs, made from the seed before timing.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// A closed-loop run.
    Closed {
        /// System configuration (core count matches the workload).
        cfg: SystemConfig,
        /// Registry composition `fbdsim run --system` would use.
        comp: Composition,
        /// The CPU workload (trace generators).
        workload: fbd_workloads::Workload,
        /// Workload-generator seed.
        seed: u64,
        /// Instructions per core.
        budget: u64,
        /// L2 warm-up operations per core (`Warmup::Auto`'s rule).
        warm_ops: u64,
    },
    /// An open-loop replay.
    Replay {
        /// Memory configuration, faults armed.
        cfg: MemoryConfig,
        /// Memory clock period.
        clock: Dur,
        /// The generated trace.
        trace: GeneratedTrace,
    },
}

impl Inputs {
    fn closed(workload: &str, substrate: &str, budget: u64, seed: u64) -> Inputs {
        let spec = RunSpec::paper_default(1)
            .workload(workload)
            .substrate(substrate)
            .budget(budget)
            .seed(seed);
        let cfg = *spec.system();
        let l2_lines = u64::from(cfg.cpu.l2_bytes) / fbd_types::CACHE_LINE_BYTES;
        Inputs::Closed {
            comp: spec.composition(),
            workload: spec.workload_ref().expect("just selected").clone(),
            warm_ops: 2 * l2_lines / u64::from(cfg.cpu.cores),
            cfg,
            seed,
            budget,
        }
    }
}

/// Host timings and simulated outcome of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Set-up before the first simulated event.
    pub setup_s: f64,
    /// Of which the L2 warm-up (closed loop only, else 0).
    pub warm_s: f64,
    /// Of which the trace CSV parse (replay only, else 0).
    pub parse_s: f64,
    /// The simulator call: hot loop plus result collection.
    pub loop_s: f64,
    /// Set-up plus the simulator call.
    pub run_s: f64,
    /// Host-speed scale for the host times above (see [`crate::calib`]);
    /// 1 until the caller has probed around the repetition.
    pub scale: f64,
    /// What was simulated.
    pub sim: SimOutcome,
    /// Spans, for a traced repetition.
    pub spans: Option<Spans>,
}

/// Runs one repetition, traced through the mirror loops or not.
///
/// # Errors
///
/// Returns a message when the inputs do not build a valid system or
/// the trace does not parse.
pub fn run_rep(inputs: &Inputs, traced: bool) -> Result<Rep, String> {
    match inputs {
        Inputs::Closed {
            cfg,
            comp,
            workload,
            seed,
            budget,
            warm_ops,
        } => {
            let clock = cfg.mem.data_rate.clock_period();
            let t0 = Instant::now();
            let traces = workload.traces(*seed);
            let (result, spans, warm_s, t1) = if traced {
                let mut sys = mirror::Closed::new(cfg, traces, *budget, comp)?;
                let w = Instant::now();
                sys.warm(*warm_ops);
                let warm_s = w.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let (result, spans) = sys.run();
                (result, Some(spans), warm_s, t1)
            } else {
                let mut sys = System::composed(cfg, traces, *budget, comp)?;
                let w = Instant::now();
                sys.warm(*warm_ops);
                let warm_s = w.elapsed().as_secs_f64();
                let t1 = Instant::now();
                (sys.run(), None, warm_s, t1)
            };
            let t2 = Instant::now();
            Ok(Rep {
                setup_s: (t1 - t0).as_secs_f64(),
                warm_s,
                parse_s: 0.0,
                loop_s: (t2 - t1).as_secs_f64(),
                run_s: (t2 - t0).as_secs_f64(),
                scale: 1.0,
                sim: SimOutcome::from_run(&result, clock),
                spans,
            })
        }
        Inputs::Replay { cfg, clock, trace } => {
            let t0 = Instant::now();
            let parsed = MemoryTrace::from_csv(trace.csv.as_bytes()).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let (result, spans) = if traced {
                let (r, s) = mirror::replay(cfg, &parsed);
                (r, Some(s))
            } else {
                (fbd_core::replay(cfg, &parsed), None)
            };
            let t2 = Instant::now();
            let mut sim = SimOutcome::from_replay(&result, *clock);
            // Every generated record must come back as a served demand
            // read or write; controller-made scrub/re-issue traffic is
            // counted apart.
            let (reads, writes) = (result.mem.demand_reads, result.mem.writes);
            let scrub_writes = result.faults.map_or(0, |f| f.counters.scrub_rewrites);
            if parsed.len() as u64 != trace.reads + trace.writes
                || reads != trace.reads
                || writes != trace.writes + scrub_writes
            {
                sim.failures.push(format!(
                    "replay lost records: generated {}R/{}W, parsed {}, served {reads}R/{writes}W \
                     ({scrub_writes} scrub rewrites)",
                    trace.reads,
                    trace.writes,
                    parsed.len()
                ));
            }
            Ok(Rep {
                setup_s: (t1 - t0).as_secs_f64(),
                warm_s: 0.0,
                parse_s: (t1 - t0).as_secs_f64(),
                loop_s: (t2 - t1).as_secs_f64(),
                run_s: (t2 - t0).as_secs_f64(),
                scale: 1.0,
                sim,
                spans,
            })
        }
    }
}
