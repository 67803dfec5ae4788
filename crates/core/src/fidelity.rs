//! Fidelity dispatch: accurate (cycle-stepped), fast (calibrated
//! analytic model), and auto (fast grid + accurate Pareto re-run).
//!
//! The fast path delegates to [`fbd_model`] and converts its
//! [`Prediction`] into the same [`RunResult`] surface the cycle
//! simulator produces — per-core IPCs, latency stats, a synthesized
//! per-stage [`StageProfile`], channel counters and an energy report —
//! so every consumer (CLI stats JSON, benches, tests) works unchanged.
//!
//! Calibration ([`calibrate`]) runs a small Latin-hypercube set of
//! configurations through the cycle-accurate core, fits the model's
//! three parameters, and measures held-out error bounds. Results are
//! cached per (workload, run-control, core-count) under the spec's
//! [`canonical hash`](RunSpec::canonical_hash), so one `sweep` pays
//! the accurate runs once no matter how many points it predicts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use fbd_model::{
    calibration_configs, predict, CalibrationReport, Calibrator, Observation, ObservedPoint,
    Prediction,
};
use fbd_telemetry::host::{HostHandle, Phase};
use fbd_telemetry::{StageProfile, Telemetry};
use fbd_types::config::SystemConfig;
use fbd_types::request::{ReqClass, StageBreakdown, STAGES};
use fbd_types::stats::{CoreStats, MemStats};
use fbd_types::time::{Dur, Time};
use fbd_workloads::mixes::Workload;

use crate::experiment::RunSpec;
use crate::memsys::ChannelCounters;
use crate::parallel::parallel_map;
use crate::system::RunResult;

/// Which simulation engine services a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fidelity {
    /// The cycle-stepped reference simulator (the default).
    #[default]
    Accurate,
    /// The calibrated analytic queue model.
    Fast,
    /// Fast for the whole grid, then accurate re-runs of the
    /// IPC/energy Pareto frontier, merged with per-point tags.
    Auto,
}

impl Fidelity {
    /// Parses a CLI fidelity name.
    pub fn by_name(name: &str) -> Option<Fidelity> {
        match name {
            "accurate" => Some(Fidelity::Accurate),
            "fast" => Some(Fidelity::Fast),
            "auto" => Some(Fidelity::Auto),
            _ => None,
        }
    }

    /// The tag written into per-point grid JSON.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Accurate => "accurate",
            Fidelity::Fast => "fast",
            Fidelity::Auto => "auto",
        }
    }
}

/// A fitted model plus the held-out error bounds that must accompany
/// every fast-fidelity output.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Fitted parameters and per-metric mean/max relative errors.
    pub report: CalibrationReport,
}

/// Cycle-accurate runs used to fit the model parameters.
pub const CALIBRATION_FIT_POINTS: usize = 10;
/// Cycle-accurate runs held out to measure the error bounds.
pub const CALIBRATION_HOLDOUT_POINTS: usize = 4;

fn cache() -> &'static Mutex<HashMap<u64, Arc<Calibration>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<Calibration>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The spec the calibration cache is keyed on: workload, run control
/// and core count, with the swept system dimensions normalized away
/// (a calibration is reused across every system variant of a grid).
fn cache_key(spec: &RunSpec, workload: &Workload) -> u64 {
    let base = RunSpec::new(SystemConfig::paper_default(workload.cores()))
        .with_workload(workload.clone())
        .experiment(*spec.exp())
        .canonical_hash();
    // Substrates are not a normalized-away sweep dimension: a spec
    // composed on a different substrate must not reuse another's
    // calibration, so its label is folded into the key.
    base ^ fnv1a(spec.composition().substrate)
}

fn fnv1a(s: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn observe(result: &RunResult) -> Observation {
    let instr: u64 = result.cores.iter().map(|c| c.instructions).sum();
    let per = |n: u64| {
        if instr == 0 {
            0.0
        } else {
            n as f64 / instr as f64
        }
    };
    Observation {
        ipc_sum: result.ipcs().iter().sum(),
        read_latency_ns: result.avg_read_latency_ns(),
        bandwidth_gbps: result.bandwidth_gbps(),
        energy_nj: result.energy.total_nj(),
        demand_per_instr: per(result.mem.demand_reads),
        swpf_per_instr: per(result.mem.sw_prefetch_reads),
        write_per_instr: per(result.mem.writes),
    }
}

/// Calibrates the analytic model for `spec`'s workload and run control
/// (cached): runs the Latin-hypercube fit and holdout sets through the
/// cycle-accurate core in parallel, fits the three model parameters by
/// least squares, and measures held-out error bounds.
///
/// # Errors
///
/// Returns an error if the spec has no workload.
pub fn calibrate(spec: &RunSpec) -> Result<Arc<Calibration>, String> {
    let workload = spec
        .workload_ref()
        .ok_or("no workload selected; call .workload()/.with_workload() first")?;
    let key = cache_key(spec, workload);
    if let Some(cal) = cache().lock().unwrap().get(&key) {
        return Ok(Arc::clone(cal));
    }

    let exp = *spec.exp();
    let base = SystemConfig::paper_default(workload.cores());
    let fit_systems = calibration_configs(&base, exp.seed, CALIBRATION_FIT_POINTS);
    let holdout_systems = calibration_configs(
        &base,
        exp.seed ^ 0x517c_c1b7_2722_0a95,
        CALIBRATION_HOLDOUT_POINTS,
    );
    let all: Vec<SystemConfig> = fit_systems
        .iter()
        .chain(&holdout_systems)
        .cloned()
        .collect();
    let observations = parallel_map(&all, |system| {
        let result = RunSpec::new(*system)
            .with_workload(workload.clone())
            .experiment(exp)
            .run();
        observe(&result)
    });
    let points: Vec<ObservedPoint> = all
        .into_iter()
        .zip(observations)
        .map(|(system, observation)| ObservedPoint {
            system,
            observation,
        })
        .collect();
    let (fit, holdout) = points.split_at(CALIBRATION_FIT_POINTS);

    let calibrator = Calibrator::new(workload, exp.budget).substrate(spec.composition().substrate);
    let params = calibrator.fit(fit);
    let report = calibrator.report(params, fit.len(), holdout);
    let cal = Arc::new(Calibration { report });
    cache().lock().unwrap().insert(key, Arc::clone(&cal));
    Ok(cal)
}

impl RunSpec {
    /// Runs the spec through the calibrated analytic model instead of
    /// the cycle simulator, returning the same [`RunResult`] surface.
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as
    /// [`try_run`](RunSpec::try_run).
    pub fn try_run_fast(&self, cal: &Calibration) -> Result<RunResult, String> {
        self.validate().map_err(|e| e.to_string())?;
        let workload = self
            .workload_ref()
            .ok_or("no workload selected; call .workload()/.with_workload() first")?;
        if self.system().cpu.cores != workload.cores() {
            return Err(format!(
                "system has {} cores but workload {} needs {}",
                self.system().cpu.cores,
                workload.name(),
                workload.cores()
            ));
        }
        let prediction = predict(
            self.system(),
            workload,
            self.exp().budget,
            &cal.report.params,
        );
        Ok(result_from_prediction(self, &prediction, cal))
    }

    /// Panicking variant of [`try_run_fast`](Self::try_run_fast),
    /// mirroring [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec.
    pub fn run_fast(&self, cal: &Calibration) -> RunResult {
        self.try_run_fast(cal)
            .unwrap_or_else(|e| panic!("invalid run spec: {e}"))
    }
}

fn breakdown(stage_means: &[Dur; STAGES.len()]) -> StageBreakdown {
    let mut b = StageBreakdown::ZERO;
    for (stage, dur) in STAGES.iter().zip(stage_means) {
        b.add(*stage, *dur);
    }
    b
}

/// Splits `total` proportionally to `part`/`whole` (used to apportion
/// AMB hits between demand and software-prefetch reads).
fn proportion(total: u64, part: u64, whole: u64) -> u64 {
    if whole == 0 {
        0
    } else {
        (total as u128 * part as u128 / whole as u128) as u64
    }
}

fn result_from_prediction(spec: &RunSpec, p: &Prediction, cal: &Calibration) -> RunResult {
    let reads = p.reads();
    let demand_hits = proportion(p.amb_hits, p.demand_reads, reads);
    let swpf_hits = p.amb_hits - demand_hits;
    let demand_misses = p.demand_reads - demand_hits;
    let swpf_misses = p.sw_prefetch_reads - swpf_hits;

    let mut mem = MemStats {
        demand_reads: p.demand_reads,
        sw_prefetch_reads: p.sw_prefetch_reads,
        writes: p.writes,
        amb_hits: p.amb_hits,
        lines_prefetched: p.lines_prefetched,
        data_bytes: p.data_bytes,
        dram_active_time: p.dram_busy,
        dram_ops: p.dram_ops,
        ..MemStats::default()
    };
    mem.read_latency.record_n(p.miss_latency, demand_misses);
    mem.read_latency.record_n(p.hit_latency, demand_hits);
    mem.read_latency_hist
        .record_n(p.miss_latency, demand_misses);
    mem.read_latency_hist.record_n(p.hit_latency, demand_hits);

    let mut profile = StageProfile::new();
    let miss = breakdown(&p.miss_stages);
    let hit = breakdown(&p.hit_stages);
    let write = breakdown(&p.write_stages);
    profile.record_n(ReqClass::Demand, &miss, miss.total(), demand_misses);
    profile.record_n(ReqClass::SwPrefetch, &miss, miss.total(), swpf_misses);
    profile.record_n(ReqClass::AmbHit, &hit, hit.total(), p.amb_hits);
    profile.record_n(ReqClass::Write, &write, write.total(), p.writes);

    let telemetry = spec.telemetry_config().map(|tc| {
        let mut tel = Telemetry::new(tc);
        let reg = &mut tel.registry;
        let gauges: [(&str, f64); 14] = [
            ("model.ipc_sum", p.ipc_sum()),
            ("model.amb_hit_rate", p.hit_rate),
            ("model.latency_ns", p.demand_latency.as_ns_f64()),
            ("model.util.bank", p.util.bank),
            ("model.util.north", p.util.north),
            ("model.util.south", p.util.south),
            (
                "model.params.service_inflation",
                cal.report.params.service_inflation,
            ),
            ("model.params.hit_scaling", cal.report.params.hit_scaling),
            ("model.params.contention", cal.report.params.contention),
            ("model.err.ipc.mean_rel", cal.report.ipc.mean_rel),
            ("model.err.ipc.max_rel", cal.report.ipc.max_rel),
            ("model.err.latency.mean_rel", cal.report.latency.mean_rel),
            (
                "model.err.bandwidth.mean_rel",
                cal.report.bandwidth.mean_rel,
            ),
            ("model.err.energy.mean_rel", cal.report.energy.mean_rel),
        ];
        for (path, value) in gauges {
            let id = reg.gauge(path);
            reg.set(id, value);
        }
        // The analytic model has no event loop to drive epoch
        // snapshots, so synthesize the sampler's time axis directly:
        // one row per interval boundary over the predicted duration
        // (capped — a pathological interval must not OOM), closed by
        // the usual end-of-run flush. Rows carry the model gauges, so
        // downstream consumers (CSV export, the live dashboard, the
        // monotonicity tests) see the same row shape as an accurate
        // run.
        if let Some(interval) = tc.sample_interval {
            const MAX_SYNTH_ROWS: u64 = 10_000;
            let end = Time::ZERO + p.elapsed;
            let mut at = Time::ZERO + interval;
            let mut rows = 0;
            while at < end && rows < MAX_SYNTH_ROWS {
                tel.sample(at);
                at += interval;
                rows += 1;
            }
            tel.finish(end);
        }
        tel
    });

    let host_handle = spec
        .host_profiler_ref()
        .map_or_else(HostHandle::off, |p| HostHandle::new(Arc::clone(p)));
    // Everything since the profiler's last mark — prediction and result
    // synthesis — is the analytic model's time.
    host_handle.mark(Phase::Model);
    let instructions: u64 = p.cores.iter().map(|c| c.instructions).sum();
    let mut host = host_handle.finish_report(
        p.elapsed,
        spec.system().mem.data_rate.clock_period(),
        instructions,
    );
    host.build = crate::build_info();

    RunResult {
        elapsed: p.elapsed,
        cores: p
            .cores
            .iter()
            .map(|c| CoreStats {
                instructions: c.instructions,
                cycles: c.cycles,
                l2_misses: c.l2_misses,
                l2_accesses: c.l2_accesses,
            })
            .collect(),
        mem,
        channels: p
            .channels
            .iter()
            .map(|c| ChannelCounters {
                reads: c.reads,
                writes: c.writes,
                bytes: c.bytes,
                amb_hits: c.amb_hits,
            })
            .collect(),
        energy: p.energy.clone(),
        trace: None,
        telemetry,
        profile,
        faults: None,
        host,
    }
}

/// Indices of the Pareto frontier of `points` = `(ipc_sum,
/// energy_nj)`: maximize IPC, minimize energy. A point survives unless
/// some other point is at least as good on both axes and strictly
/// better on one.
///
/// # Examples
///
/// ```
/// use fbd_core::fidelity::pareto_frontier;
/// let pts = [(2.0, 100.0), (1.0, 50.0), (1.5, 120.0), (0.5, 60.0)];
/// assert_eq!(pareto_frontier(&pts), vec![0, 1]);
/// ```
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut frontier = Vec::new();
    'candidates: for (i, &(ipc_i, energy_i)) in points.iter().enumerate() {
        for (j, &(ipc_j, energy_j)) in points.iter().enumerate() {
            let dominates = j != i
                && ipc_j >= ipc_i
                && energy_j <= energy_i
                && (ipc_j > ipc_i || energy_j < energy_i);
            if dominates {
                continue 'candidates;
            }
        }
        frontier.push(i);
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_names_round_trip() {
        for f in [Fidelity::Accurate, Fidelity::Fast, Fidelity::Auto] {
            assert_eq!(Fidelity::by_name(f.label()), Some(f));
        }
        assert_eq!(Fidelity::by_name("quick"), None);
    }

    #[test]
    fn pareto_keeps_only_undominated_points() {
        let pts = [(1.0, 10.0), (2.0, 20.0), (1.5, 30.0), (2.0, 10.0)];
        // (2.0, 10.0) dominates everything else.
        assert_eq!(pareto_frontier(&pts), vec![3]);
        // Identical points both survive.
        let dup = [(1.0, 10.0), (1.0, 10.0)];
        assert_eq!(pareto_frontier(&dup), vec![0, 1]);
        assert!(pareto_frontier(&[]).is_empty());
    }
}
