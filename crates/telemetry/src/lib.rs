//! Telemetry for the FB-DIMM simulator: metric registry, epoch
//! time-series sampler, and cycle-level Chrome-trace event tracer.
//!
//! The simulator's components keep their own counters; this crate is
//! the *observability* layer on top:
//!
//! - [`MetricRegistry`] — named counters / gauges / latency
//!   accumulators under hierarchical dot paths such as
//!   `chan0.dimm2.bank5.act_count` or `amb.prefetch.hits`.
//! - [`EpochSampler`] — snapshots every registered metric each epoch of
//!   simulated time into an in-memory time-series, exportable as CSV or
//!   JSON.
//! - [`Tracer`] — southbound/northbound frame slots, DRAM commands,
//!   AMB hits, and power-mode transitions as Chrome Trace Event Format
//!   JSON, loadable in Perfetto (one track per channel / DIMM lane).
//! - [`hist`] — log-bucketed latency histograms and the
//!   stage × request-class latency-attribution profile behind
//!   `fbdsim profile`, with folded-stack (flamegraph) and JSON
//!   exporters.
//! - [`json`] — the dependency-free JSON value/writer/parser the
//!   exporters are built on.
//!
//! The registry is a view of the model's own counters, not a second
//! set of them: the simulator writes each metric's running total with
//! an absolute setter ([`MetricRegistry::set_counter`],
//! [`MetricRegistry::set`], [`MetricRegistry::set_latency`]) just before
//! each epoch snapshot and at finish, so every reported count has one
//! increment site, in the component that does the work. Reading the
//! registry between snapshots therefore shows the last snapshot.
//!
//! Everything is opt-in: a [`Telemetry`] built from the default
//! [`TelemetryConfig`] allocates no sampler and no tracer. Between
//! snapshots the simulator's only obligation is a `tracer.is_some()`
//! branch at trace emission sites.
//!
//! # Examples
//!
//! ```
//! use fbd_telemetry::{Telemetry, TelemetryConfig};
//! use fbd_types::time::{Dur, Time};
//!
//! let mut tel = Telemetry::new(&TelemetryConfig {
//!     sample_interval: Some(Dur::from_ns(1000)),
//!     trace: true,
//! });
//! let acts = tel.registry.counter("chan0.acts");
//! // The model counts its own activates ...
//! let mut activates = 0;
//! activates += 1;
//! if let Some(tracer) = tel.tracer.as_mut() {
//!     tracer.complete("ACT", "dram", 0, 10, Time::from_ns(5), Dur::from_ns(12), vec![]);
//! }
//! // ... and publishes the total before the final snapshot.
//! tel.registry.set_counter(acts, activates);
//! tel.finish(Time::from_ns(1500));
//! assert_eq!(tel.sampler.unwrap().rows()[0].values, vec![1.0]);
//! ```

pub mod hist;
pub mod host;
pub mod json;
pub mod live;
pub mod registry;
pub mod sampler;
pub mod trace;

pub use hist::{LogHistogram, StageProfile};
pub use host::{BuildInfo, Counter, HostHandle, HostProfiler, HostReport, Phase};
pub use json::Json;
pub use registry::{MetricId, MetricKind, MetricRegistry, MetricValue};
pub use sampler::{EpochSampler, SampleRow};
pub use trace::{tid_bank, tid_dimm, tid_power, Tracer, PID_SYSTEM, TID_NORTH, TID_SOUTH};

use std::fmt;
use std::sync::Arc;

use fbd_types::time::{Dur, Time};

/// What to collect during a run. The default collects nothing beyond
/// the (always-on, near-free) metric registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Snapshot all metrics every this much simulated time.
    pub sample_interval: Option<Dur>,
    /// Record cycle-level events for Chrome-trace export.
    pub trace: bool,
}

/// The callback type a [`SampleObserver`] wraps.
type SampleCallback = dyn Fn(&SampleRow, &MetricRegistry) + Send + Sync;

/// An optional callback invoked with each freshly taken
/// [`SampleRow`] (and the registry for name lookups) — how the live
/// dashboard watches a run in flight without the simulator knowing
/// anything about terminals. Cloning shares the same callback.
#[derive(Clone, Default)]
pub struct SampleObserver(Option<Arc<SampleCallback>>);

impl SampleObserver {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&SampleRow, &MetricRegistry) + Send + Sync + 'static) -> SampleObserver {
        SampleObserver(Some(Arc::new(f)))
    }

    /// The default no-op observer.
    pub fn none() -> SampleObserver {
        SampleObserver(None)
    }

    /// True when a callback is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    fn notify(&self, row: &SampleRow, registry: &MetricRegistry) {
        if let Some(f) = &self.0 {
            f(row, registry);
        }
    }
}

impl fmt::Debug for SampleObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SampleObserver")
            .field(&self.0.as_ref().map(|_| "..."))
            .finish()
    }
}

/// Per-run telemetry state: the registry plus optional collectors.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    pub registry: MetricRegistry,
    pub sampler: Option<EpochSampler>,
    pub tracer: Option<Tracer>,
    /// Notified after every epoch snapshot (see [`SampleObserver`]).
    pub observer: SampleObserver,
}

impl Telemetry {
    /// Builds telemetry for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.sample_interval` is `Some(Dur::ZERO)`
    /// (see [`EpochSampler::new`]).
    pub fn new(config: &TelemetryConfig) -> Telemetry {
        Telemetry {
            registry: MetricRegistry::new(),
            sampler: config.sample_interval.map(EpochSampler::new),
            tracer: config.trace.then(Tracer::new),
            observer: SampleObserver::none(),
        }
    }

    /// When the next epoch snapshot is due ([`Time::NEVER`] if sampling
    /// is off) — the event loop uses this to schedule sample events.
    pub fn next_sample_due(&self) -> Time {
        self.sampler
            .as_ref()
            .map_or(Time::NEVER, EpochSampler::next_due)
    }

    /// Takes an epoch snapshot if sampling is enabled, notifying the
    /// attached [`SampleObserver`] (if any) with the new row.
    pub fn sample(&mut self, now: Time) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.sample(now, &self.registry);
            if let Some(row) = sampler.rows().last() {
                self.observer.notify(row, &self.registry);
            }
        }
    }

    /// Ends the run at `end`: flushes the final partial epoch and
    /// notifies the observer with the closing row.
    pub fn finish(&mut self, end: Time) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.finish(end, &self.registry);
            if let Some(row) = sampler.rows().last() {
                self.observer.notify(row, &self.registry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_collects_nothing() {
        let tel = Telemetry::new(&TelemetryConfig::default());
        assert!(tel.sampler.is_none());
        assert!(tel.tracer.is_none());
        assert_eq!(tel.next_sample_due(), Time::NEVER);
    }

    #[test]
    fn sampling_lifecycle() {
        let mut tel = Telemetry::new(&TelemetryConfig {
            sample_interval: Some(Dur::from_ns(50)),
            trace: false,
        });
        let c = tel.registry.counter("reads");
        assert_eq!(tel.next_sample_due(), Time::from_ns(50));

        tel.registry.set_counter(c, 2);
        tel.sample(Time::from_ns(50));
        tel.registry.set_counter(c, 3);
        tel.finish(Time::from_ns(75));

        let rows = tel.sampler.as_ref().unwrap().rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].values, vec![3.0]);
    }

    #[test]
    fn observer_sees_every_row() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let mut tel = Telemetry::new(&TelemetryConfig {
            sample_interval: Some(Dur::from_ns(50)),
            trace: false,
        });
        assert!(!tel.observer.is_attached());
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        tel.observer = SampleObserver::new(move |_row, _reg| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        assert!(tel.observer.is_attached());
        tel.registry.counter("reads");
        tel.sample(Time::from_ns(50));
        tel.sample(Time::from_ns(100));
        tel.finish(Time::from_ns(120));
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }
}
