//! Statistics primitives shared by all simulator components.
//!
//! These are plain accumulators — cheap to update on the simulation fast
//! path, with derived metrics (means, rates, GB/s) computed at reporting
//! time. The paper's evaluation metrics (average read latency, utilized
//! bandwidth, prefetch coverage/efficiency, ACT/PRE and column-access
//! counts for the power model) are all built from these.

use core::fmt;

use crate::time::Dur;

/// Running sum/count/max accumulator for latencies.
///
/// # Examples
///
/// ```
/// use fbd_types::stats::LatencyStat;
/// use fbd_types::time::Dur;
///
/// let mut lat = LatencyStat::default();
/// lat.record(Dur::from_ns(63));
/// lat.record(Dur::from_ns(33));
/// assert_eq!(lat.count(), 2);
/// assert_eq!(lat.mean(), Some(Dur::from_ns(48)));
/// assert_eq!(lat.max(), Some(Dur::from_ns(63)));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStat {
    sum_ps: u128,
    count: u64,
    max_ps: u64,
}

impl LatencyStat {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: Dur) {
        self.sum_ps += u128::from(sample.as_ps());
        self.count += 1;
        self.max_ps = self.max_ps.max(sample.as_ps());
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<Dur> {
        if self.count == 0 {
            None
        } else {
            Some(Dur::from_ps((self.sum_ps / u128::from(self.count)) as u64))
        }
    }

    /// Largest sample, or `None` if no samples were recorded.
    pub fn max(&self) -> Option<Dur> {
        if self.count == 0 {
            None
        } else {
            Some(Dur::from_ps(self.max_ps))
        }
    }
}

impl fmt::Display for LatencyStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(f, "mean {mean} over {} samples", self.count),
            None => f.write_str("no samples"),
        }
    }
}

/// A log-scaled latency histogram for percentile reporting.
///
/// Buckets are 4 ns wide up to 256 ns, then 32 ns wide up to 2 µs, with
/// one overflow bucket — resolution where the action is (the 33–63 ns
/// idle latencies and the queueing region) and bounded memory.
///
/// # Examples
///
/// ```
/// use fbd_types::stats::LatencyHistogram;
/// use fbd_types::time::Dur;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [33u64, 63, 63, 120] {
///     h.record(Dur::from_ns(ns));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5).unwrap() >= Dur::from_ns(60));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// 64 fine buckets (4 ns) + 55 coarse buckets (32 ns) + overflow.
    buckets: Vec<u64>,
    count: u64,
}

const FINE_BUCKETS: usize = 64;
const FINE_WIDTH_PS: u64 = 4_000;
const COARSE_BUCKETS: usize = 55;
const COARSE_WIDTH_PS: u64 = 32_000;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; FINE_BUCKETS + COARSE_BUCKETS + 1],
            count: 0,
        }
    }

    fn bucket_of(sample: Dur) -> usize {
        let ps = sample.as_ps();
        let fine_span = FINE_BUCKETS as u64 * FINE_WIDTH_PS;
        if ps < fine_span {
            (ps / FINE_WIDTH_PS) as usize
        } else {
            let coarse = (ps - fine_span) / COARSE_WIDTH_PS;
            FINE_BUCKETS + (coarse as usize).min(COARSE_BUCKETS)
        }
    }

    /// Upper edge of a bucket (used as the percentile estimate).
    fn bucket_edge(idx: usize) -> Dur {
        if idx < FINE_BUCKETS {
            Dur::from_ps((idx as u64 + 1) * FINE_WIDTH_PS)
        } else {
            let coarse = (idx - FINE_BUCKETS) as u64;
            Dur::from_ps(FINE_BUCKETS as u64 * FINE_WIDTH_PS + (coarse + 1) * COARSE_WIDTH_PS)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Dur) {
        self.buckets[Self::bucket_of(sample)] += 1;
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1), or `None`
    /// if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<Dur> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Self::bucket_edge(i));
            }
        }
        Some(Self::bucket_edge(self.buckets.len() - 1))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Bytes-per-epoch time series, for bandwidth-over-time reporting.
///
/// # Examples
///
/// ```
/// use fbd_types::stats::EpochSeries;
/// use fbd_types::time::{Dur, Time};
///
/// let mut s = EpochSeries::new(Dur::from_ns(1_000)); // 1 µs epochs
/// s.record(Time::from_ns(100), 64);
/// s.record(Time::from_ns(1_500), 128);
/// let gbps = s.series_gbps();
/// assert_eq!(gbps.len(), 2);
/// assert!((gbps[0] - 0.064).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSeries {
    epoch: Dur,
    buckets: Vec<u64>,
}

impl EpochSeries {
    /// Creates an empty series with the given epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(epoch: Dur) -> EpochSeries {
        assert!(!epoch.is_zero(), "epoch must be non-zero");
        EpochSeries {
            epoch,
            // Pre-reserve so the always-on bandwidth series doesn't
            // reallocate while the hot loop runs (4096 default-length
            // epochs ≈ 4 ms of simulated time, ~32 KiB; growth past
            // that doubles, so later reallocations are rare).
            buckets: Vec::with_capacity(4096),
        }
    }

    /// Adds `bytes` transferred at instant `at`.
    pub fn record(&mut self, at: crate::time::Time, bytes: u64) {
        let idx = (at.as_ps() / self.epoch.as_ps()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    /// The configured epoch length.
    pub fn epoch(&self) -> Dur {
        self.epoch
    }

    /// Per-epoch bandwidth in GB/s.
    pub fn series_gbps(&self) -> Vec<f64> {
        let secs = self.epoch.as_secs_f64();
        self.buckets
            .iter()
            .map(|&b| b as f64 / secs / 1e9)
            .collect()
    }
}

impl Default for EpochSeries {
    /// One-microsecond epochs.
    fn default() -> Self {
        EpochSeries::new(Dur::from_ps(1_000_000))
    }
}

/// DRAM operation counters, the inputs to the power model (paper §5.5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramOpCounts {
    /// Activate/precharge *pairs* (close-page auto-precharge makes their
    /// counts equal, so they are counted as pairs).
    pub act_pre: u64,
    /// Column read accesses (including prefetch fills).
    pub col_reads: u64,
    /// Column write accesses.
    pub col_writes: u64,
    /// All-bank auto-refresh operations (zero when refresh is disabled,
    /// as in the paper).
    pub refreshes: u64,
}

impl DramOpCounts {
    /// Total column accesses.
    pub fn col_total(&self) -> u64 {
        self.col_reads + self.col_writes
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &DramOpCounts) {
        self.act_pre += other.act_pre;
        self.col_reads += other.col_reads;
        self.col_writes += other.col_writes;
        self.refreshes += other.refreshes;
    }
}

/// Memory-subsystem statistics for one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Demand reads served.
    pub demand_reads: u64,
    /// Software-prefetch reads served.
    pub sw_prefetch_reads: u64,
    /// Hardware-prefetch reads served (extension; zero in paper
    /// configurations).
    pub hw_prefetch_reads: u64,
    /// Writes retired to DRAM.
    pub writes: u64,
    /// Reads (demand or software prefetch) served from the AMB prefetch
    /// buffer.
    pub amb_hits: u64,
    /// Cachelines prefetched into AMB caches (the K−1 extra lines of
    /// each group fetch).
    pub lines_prefetched: u64,
    /// Prefetched lines displaced from AMB caches by later fills.
    pub prefetch_evictions: u64,
    /// Row-buffer hits (open-page mode only).
    pub row_hits: u64,
    /// Demand-read latency distribution (controller arrival → critical
    /// data at controller).
    pub read_latency: LatencyStat,
    /// Demand-read latency histogram, for percentile reporting.
    pub read_latency_hist: LatencyHistogram,
    /// Data bytes moved on the processor-visible channel (reads +
    /// writes), for utilized-bandwidth reporting.
    pub data_bytes: u64,
    /// Bandwidth-over-time series (1 µs epochs).
    pub bandwidth_series: EpochSeries,
    /// Summed rank-active time across all ranks (static-power input;
    /// compare against `ranks × elapsed`).
    pub dram_active_time: Dur,
    /// DRAM operation counters for the power model.
    pub dram_ops: DramOpCounts,
}

impl MemStats {
    /// Prefetch coverage: fraction of reads served from the AMB cache
    /// (`#prefetch_hit / #read`, paper §5.2). Bounded by (K−1)/K for
    /// K-line regions, since every region's first read fetches it.
    pub fn prefetch_coverage(&self) -> f64 {
        ratio(self.amb_hits, self.total_reads())
    }

    /// Prefetch efficiency (accuracy): fraction of prefetched lines that
    /// were later demanded (`#prefetch_hit / #prefetch`, paper §5.2).
    pub fn prefetch_efficiency(&self) -> f64 {
        ratio(self.amb_hits, self.lines_prefetched)
    }

    /// Utilized bandwidth in GB/s over a run of length `elapsed`.
    pub fn utilized_bandwidth_gbps(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.data_bytes as f64 / elapsed.as_secs_f64() / 1e9
        }
    }

    /// All reads (demand + software/hardware prefetch).
    pub fn total_reads(&self) -> u64 {
        self.demand_reads + self.sw_prefetch_reads + self.hw_prefetch_reads
    }
}

/// Per-core execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions committed.
    pub instructions: u64,
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Demand L2 misses issued by this core.
    pub l2_misses: u64,
    /// L2 accesses by this core (for miss-rate reporting).
    pub l2_accesses: u64,
}

impl CoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=100u64 {
            h.record(Dur::from_ns(ns));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 >= Dur::from_ns(50) && p50 <= Dur::from_ns(56), "{p50}");
        let p99 = h.percentile(0.99).unwrap();
        assert!(p99 >= Dur::from_ns(99) && p99 <= Dur::from_ns(104), "{p99}");
        assert!(h.percentile(1.0).unwrap() >= Dur::from_ns(100));
    }

    #[test]
    fn histogram_coarse_and_overflow_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(Dur::from_ns(500)); // coarse region
        h.record(Dur::from_ns(100_000)); // overflow
        assert_eq!(h.count(), 2);
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 >= Dur::from_ns(500) && p50 < Dur::from_ns(560), "{p50}");
        assert!(h.percentile(1.0).unwrap() >= Dur::from_ns(2_000));
    }

    #[test]
    fn histogram_empty_is_none() {
        assert_eq!(LatencyHistogram::new().percentile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_bad_quantile() {
        let _ = LatencyHistogram::new().percentile(0.0);
    }

    #[test]
    fn epoch_series_buckets() {
        use crate::time::Time;
        let mut a = EpochSeries::new(Dur::from_ns(1_000));
        a.record(Time::from_ns(0), 640);
        a.record(Time::from_ns(999), 360);
        a.record(Time::from_ns(2_500), 1_000);
        let gbps = a.series_gbps();
        assert_eq!(gbps.len(), 3);
        assert!((gbps[0] - 1.0).abs() < 1e-9);
        assert_eq!(gbps[1], 0.0);
        assert!((gbps[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stat_empty_is_none() {
        let lat = LatencyStat::default();
        assert_eq!(lat.mean(), None);
        assert_eq!(lat.max(), None);
        assert_eq!(format!("{lat}"), "no samples");
    }

    #[test]
    fn latency_stat_extreme_samples_do_not_overflow() {
        // The per-sample ceiling is u64::MAX picoseconds; the u128 sum
        // keeps means exact even when several such samples accumulate.
        let huge = Dur::from_ps(u64::MAX);
        let mut lat = LatencyStat::default();
        lat.record(huge);
        lat.record(huge);
        lat.record(huge);
        assert_eq!(lat.count(), 3);
        assert_eq!(lat.mean(), Some(huge));
        assert_eq!(lat.max(), Some(huge));
    }

    #[test]
    fn coverage_and_efficiency_definitions() {
        let stats = MemStats {
            demand_reads: 100,
            amb_hits: 50,
            lines_prefetched: 150,
            ..MemStats::default()
        };
        assert!((stats.prefetch_coverage() - 0.5).abs() < 1e-12);
        assert!((stats.prefetch_efficiency() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_give_zero() {
        let stats = MemStats::default();
        assert_eq!(stats.prefetch_coverage(), 0.0);
        assert_eq!(stats.prefetch_efficiency(), 0.0);
        assert_eq!(stats.utilized_bandwidth_gbps(Dur::ZERO), 0.0);
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn bandwidth_computation() {
        let stats = MemStats {
            data_bytes: 64_000,
            ..MemStats::default()
        };
        // 64 kB in 10 µs = 6.4 GB/s.
        let bw = stats.utilized_bandwidth_gbps(Dur::from_ns(10_000));
        assert!((bw - 6.4).abs() < 1e-9, "{bw}");
    }

    #[test]
    fn core_stats_rates() {
        let c = CoreStats {
            instructions: 100,
            cycles: 50,
            l2_misses: 10,
            l2_accesses: 40,
        };
        assert!((c.ipc() - 2.0).abs() < 1e-12);
    }
}
