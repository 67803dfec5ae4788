//! Simulated outputs of one run: the `sim.*` and per-layer simulated
//! values, the output checks on them, and the fingerprint a perf change
//! uses to show it left the simulation byte-identical.
//!
//! Everything here is a pure function of the simulator's result types,
//! so the untraced (`System::run`, `replay`) and traced (mirror-loop)
//! runs reduce through the same code.

use fbd_core::{ReplayResult, RunResult};
use fbd_faults::FaultReport;
use fbd_power::EnergyReport;
use fbd_telemetry::StageProfile;
use fbd_types::request::{Stage, REQ_CLASSES};
use fbd_types::stats::{CoreStats, MemStats};
use fbd_types::time::Dur;

/// A named simulated value with its unit (`sim_ns` marks simulated, not
/// host, nanoseconds).
pub type Value = (&'static str, f64, &'static str);

/// What one run simulated, reduced to the values the benchmark reports
/// and checks.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Memory-clock cycles in `elapsed`.
    pub cycles: f64,
    /// Transactions the memory system served (reads and writes in the
    /// stage profile): the denominator of host ns per request.
    pub served: u64,
    /// `sim.*` and simulated per-layer values, in a fixed order.
    pub values: Vec<Value>,
    /// Failed output checks, as messages (empty when all hold).
    pub failures: Vec<String>,
}

/// The parts of a `RunResult` / `ReplayResult` the reduction reads.
struct Parts<'a> {
    elapsed: Dur,
    clock: Dur,
    cores: &'a [CoreStats],
    mem: &'a MemStats,
    energy: &'a EnergyReport,
    profile: &'a StageProfile,
    faults: Option<&'a FaultReport>,
}

impl SimOutcome {
    /// Reduces a closed-loop run; `clock` is the memory clock period.
    pub fn from_run(r: &RunResult, clock: Dur) -> SimOutcome {
        SimOutcome::reduce(&Parts {
            elapsed: r.elapsed,
            clock,
            cores: &r.cores,
            mem: &r.mem,
            energy: &r.energy,
            profile: &r.profile,
            faults: r.faults.as_ref(),
        })
    }

    /// Reduces a replay; `clock` is the memory clock period.
    pub fn from_replay(r: &ReplayResult, clock: Dur) -> SimOutcome {
        SimOutcome::reduce(&Parts {
            elapsed: fbd_core::trace_io::elapsed(r),
            clock,
            cores: &[],
            mem: &r.mem,
            energy: &r.energy,
            profile: &r.profile,
            faults: r.faults.as_ref(),
        })
    }

    fn reduce(p: &Parts<'_>) -> SimOutcome {
        let mem = p.mem;
        let reads = p.profile.reads();
        let writes = p.profile.writes();
        let served = reads + writes;
        let per_served = |x: f64| if served == 0 { 0.0 } else { x / served as f64 };
        // Mean simulated time per served transaction spent in `stage`.
        let stage_ns = |stage: Stage| {
            per_served(
                REQ_CLASSES
                    .iter()
                    .map(|&c| p.profile.stage(c, stage).total_ns())
                    .sum(),
            )
        };
        let ops = &mem.dram_ops;
        let commands = ops.act_pre * 2 + ops.col_total() + ops.refreshes;
        let instructions: u64 = p.cores.iter().map(|c| c.instructions).sum();
        let (l2_misses, l2_accesses) = p
            .cores
            .iter()
            .fold((0, 0), |(m, a), c| (m + c.l2_misses, a + c.l2_accesses));
        let ipc = p.cores.iter().map(CoreStats::ipc).fold(0.0, |a, b| a + b);
        let pct = |q: f64| {
            mem.read_latency_hist
                .percentile(q)
                .map_or(0.0, |d| d.as_ns_f64())
        };
        let c = p.faults.map(|f| f.counters).unwrap_or_default();
        let values: Vec<Value> = vec![
            ("sim.elapsed_ns", p.elapsed.as_ns_f64(), "sim_ns"),
            ("sim.instructions", instructions as f64, "count"),
            ("sim.ipc", ipc, "instr/cycle"),
            ("sim.reads", mem.total_reads() as f64, "count"),
            ("sim.writes", mem.writes as f64, "count"),
            (
                "sim.read_samples",
                mem.read_latency_hist.count() as f64,
                "count",
            ),
            ("sim.read_p50_ns", pct(0.5), "sim_ns"),
            ("sim.read_p99_ns", pct(0.99), "sim_ns"),
            (
                "sim.bandwidth_gbps",
                mem.utilized_bandwidth_gbps(p.elapsed),
                "GB/s",
            ),
            ("cpu.l2_miss_ratio", ratio(l2_misses, l2_accesses), "ratio"),
            ("ctrl.queue_wait_ns", stage_ns(Stage::CtrlQueue), "sim_ns"),
            ("link.south_ns", stage_ns(Stage::SouthLink), "sim_ns"),
            ("link.north_queue_ns", stage_ns(Stage::NorthQueue), "sim_ns"),
            ("link.north_ns", stage_ns(Stage::NorthLink), "sim_ns"),
            ("amb.hits", mem.amb_hits as f64, "count"),
            ("amb.lines_prefetched", mem.lines_prefetched as f64, "count"),
            (
                "amb.prefetch_efficiency",
                mem.prefetch_efficiency(),
                "ratio",
            ),
            ("amb.coverage", mem.prefetch_coverage(), "ratio"),
            ("amb.proc_ns", stage_ns(Stage::AmbProc), "sim_ns"),
            ("dram.wait_ns", stage_ns(Stage::DramWait), "sim_ns"),
            ("dram.act_pre", ops.act_pre as f64, "count"),
            ("dram.col_reads", ops.col_reads as f64, "count"),
            ("dram.col_writes", ops.col_writes as f64, "count"),
            (
                "dram.cmds_per_request",
                per_served(commands as f64),
                "ratio",
            ),
            ("power.dynamic_nj", p.energy.dynamic_nj(), "nJ"),
            ("power.background_nj", p.energy.background_nj, "nJ"),
            ("power.amb_nj", p.energy.amb_nj, "nJ"),
            ("power.nj_per_access", per_served(p.energy.total_nj()), "nJ"),
            ("faults.injected", c.injected as f64, "count"),
            ("faults.detected", c.detected as f64, "count"),
            ("faults.escaped", c.escaped as f64, "count"),
            ("faults.retried", c.retried as f64, "count"),
            ("faults.failovers", c.failovers as f64, "count"),
            ("faults.failbacks", c.failbacks as f64, "count"),
            ("faults.reissued", c.reissued as f64, "count"),
            ("faults.scrub_reads", c.scrub_reads as f64, "count"),
            ("faults.retry_ns", stage_ns(Stage::Retry), "sim_ns"),
        ];
        let mut failures = Vec::new();
        if p.profile.mismatches() != 0 || p.profile.write_mismatches() != 0 {
            failures.push(format!(
                "stage sums differ from end-to-end latency: {} reads, {} writes",
                p.profile.mismatches(),
                p.profile.write_mismatches()
            ));
        }
        if c.detected + c.escaped != c.injected {
            failures.push(format!(
                "fault accounting: detected {} + escaped {} != injected {}",
                c.detected, c.escaped, c.injected
            ));
        }
        if served == 0 {
            failures.push("the run served no memory transactions".into());
        }
        SimOutcome {
            cycles: p.elapsed.as_ps() as f64 / p.clock.as_ps() as f64,
            served,
            values,
            failures,
        }
    }

    /// The value named `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.0 == name)
            .map_or(0.0, |v| v.1)
    }

    /// FNV-1a over every simulated value's exact bit pattern, cut to
    /// 48 bits so it survives a JSON number unchanged. Equal
    /// fingerprints mean byte-identical simulated results.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(&self.served.to_le_bytes());
        for (name, value, _) in &self.values {
            eat(name.as_bytes());
            eat(&value.to_bits().to_le_bytes());
        }
        h & ((1 << 48) - 1)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
