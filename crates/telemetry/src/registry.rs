//! Metric registry: named counters, gauges, and latency accumulators.
//!
//! Metrics live under hierarchical dot-separated paths mirroring the
//! simulated topology, e.g. `chan0.dimm2.bank5.act_count` or
//! `amb.prefetch.hits`. Registration returns a dense [`MetricId`]
//! handle; writes through a handle are an array index away, so code
//! that holds its ids pays no hashing when it publishes. Every write
//! is absolute (a counter's running total, a gauge's value, a latency
//! accumulator's samples): the model keeps the counts and the registry
//! shows them. Ids are append-only and never invalidated, which the
//! epoch sampler relies on to keep its rows position-aligned.

use std::collections::HashMap;
use std::fmt;

use fbd_types::stats::LatencyStat;
use fbd_types::time::Dur;

use crate::json::Json;

/// Dense handle to a registered metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

/// What a metric accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Last-written instantaneous value (queue depth, occupancy).
    Gauge,
    /// Latency accumulator (count / mean / max).
    Latency,
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(u64),
    Gauge(f64),
    Latency(LatencyStat),
}

/// A point-in-time reading of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Count, mean, and max of the recorded latencies.
    Latency {
        count: u64,
        mean: Option<Dur>,
        max: Option<Dur>,
    },
}

impl MetricValue {
    /// The reading as a plain number for tabular export: counters and
    /// gauges verbatim, latency accumulators as mean nanoseconds.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(n) => *n as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Latency { mean, .. } => mean.map_or(0.0, Dur::as_ns_f64),
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Counter(n) => write!(f, "{n}"),
            MetricValue::Gauge(v) => write!(f, "{v}"),
            MetricValue::Latency { count, mean, max } => write!(
                f,
                "n={count} mean={:.1}ns max={:.1}ns",
                mean.map_or(0.0, Dur::as_ns_f64),
                max.map_or(0.0, Dur::as_ns_f64),
            ),
        }
    }
}

/// The metric store. One per simulation run.
#[derive(Clone, Debug, Default)]
pub struct MetricRegistry {
    slots: Vec<Slot>,
    paths: Vec<String>,
    index: HashMap<String, MetricId>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Registers (or re-resolves) a counter at `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is already registered with a different kind.
    pub fn counter(&mut self, path: &str) -> MetricId {
        self.register(path, MetricKind::Counter)
    }

    /// Registers (or re-resolves) a gauge at `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is already registered with a different kind.
    pub fn gauge(&mut self, path: &str) -> MetricId {
        self.register(path, MetricKind::Gauge)
    }

    /// Registers (or re-resolves) a latency accumulator at `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is already registered with a different kind.
    pub fn latency(&mut self, path: &str) -> MetricId {
        self.register(path, MetricKind::Latency)
    }

    fn register(&mut self, path: &str, kind: MetricKind) -> MetricId {
        if let Some(&id) = self.index.get(path) {
            assert_eq!(
                self.kind(id),
                kind,
                "metric {path:?} already registered as {:?}",
                self.kind(id)
            );
            return id;
        }
        let id = MetricId(u32::try_from(self.slots.len()).expect("too many metrics"));
        self.slots.push(match kind {
            MetricKind::Counter => Slot::Counter(0),
            MetricKind::Gauge => Slot::Gauge(0.0),
            MetricKind::Latency => Slot::Latency(LatencyStat::default()),
        });
        self.paths.push(path.to_string());
        self.index.insert(path.to_string(), id);
        id
    }

    /// Sets a counter to the running total `n`.
    #[inline]
    pub fn set_counter(&mut self, id: MetricId, n: u64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Counter(v) => *v = n,
            other => panic!("set_counter on non-counter metric {:?}", kind_of(other)),
        }
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: f64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Gauge(v) => *v = value,
            other => panic!("set on non-gauge metric {:?}", kind_of(other)),
        }
    }

    /// Sets a latency accumulator to the samples `stat` holds.
    #[inline]
    pub fn set_latency(&mut self, id: MetricId, stat: LatencyStat) {
        match &mut self.slots[id.0 as usize] {
            Slot::Latency(v) => *v = stat,
            other => panic!("set_latency on non-latency metric {:?}", kind_of(other)),
        }
    }

    /// The kind registered for `id`.
    pub fn kind(&self, id: MetricId) -> MetricKind {
        kind_of(&self.slots[id.0 as usize])
    }

    /// Resolves a path to its id, if registered.
    pub fn lookup(&self, path: &str) -> Option<MetricId> {
        self.index.get(path).copied()
    }

    /// Current reading of one metric.
    pub fn value(&self, id: MetricId) -> MetricValue {
        match &self.slots[id.0 as usize] {
            Slot::Counter(n) => MetricValue::Counter(*n),
            Slot::Gauge(v) => MetricValue::Gauge(*v),
            Slot::Latency(stat) => MetricValue::Latency {
                count: stat.count(),
                mean: stat.mean(),
                max: stat.max(),
            },
        }
    }

    /// Number of registered metrics. Ids `0..len` are all valid.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// All metrics in registration order as `(path, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> + '_ {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_str(), self.value(MetricId(i as u32))))
    }

    /// All metrics as a JSON object, paths sorted for stable output.
    /// Latency accumulators expand into `.count` / `.mean_ns` / `.max_ns`
    /// leaves so consumers never need to parse a compound value.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::with_capacity(self.len());
        for (path, value) in self.iter() {
            match value {
                MetricValue::Counter(n) => fields.push((path.to_string(), Json::from(n))),
                MetricValue::Gauge(v) => fields.push((path.to_string(), Json::Num(v))),
                MetricValue::Latency { count, mean, max } => {
                    fields.push((format!("{path}.count"), Json::from(count)));
                    fields.push((
                        format!("{path}.mean_ns"),
                        Json::Num(mean.map_or(0.0, Dur::as_ns_f64)),
                    ));
                    fields.push((
                        format!("{path}.max_ns"),
                        Json::Num(max.map_or(0.0, Dur::as_ns_f64)),
                    ));
                }
            }
        }
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(fields)
    }
}

/// Reconstructs the id for a dense index in `0..registry.len()`.
pub(crate) fn metric_id_from_index(i: usize) -> MetricId {
    MetricId(u32::try_from(i).expect("too many metrics"))
}

fn kind_of(slot: &Slot) -> MetricKind {
    match slot {
        Slot::Counter(_) => MetricKind::Counter,
        Slot::Gauge(_) => MetricKind::Gauge,
        Slot::Latency(_) => MetricKind::Latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_update_read_back() {
        let mut reg = MetricRegistry::new();
        let acts = reg.counter("chan0.dimm0.bank0.act_count");
        let depth = reg.gauge("ctrl.queue.depth");
        let lat = reg.latency("mem.read_latency");

        let mut stat = LatencyStat::default();
        stat.record(Dur::from_ns(40));
        stat.record(Dur::from_ns(60));

        reg.set_counter(acts, 3);
        reg.set_counter(acts, 5);
        reg.set(depth, 7.0);
        reg.set_latency(lat, stat);

        assert_eq!(reg.value(acts), MetricValue::Counter(5));
        assert_eq!(reg.value(depth), MetricValue::Gauge(7.0));
        assert_eq!(
            reg.value(lat),
            MetricValue::Latency {
                count: 2,
                mean: Some(Dur::from_ns(50)),
                max: Some(Dur::from_ns(60)),
            }
        );
    }

    #[test]
    fn reregistration_returns_same_id() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("amb.prefetch.hits");
        let b = reg.counter("amb.prefetch.hits");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.lookup("amb.prefetch.hits"), Some(a));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let mut reg = MetricRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn json_export_is_sorted_and_expands_latency() {
        let mut reg = MetricRegistry::new();
        let lat = reg.latency("z.lat");
        reg.counter("a.count");
        let mut stat = LatencyStat::default();
        stat.record(Dur::from_ns(10));
        reg.set_latency(lat, stat);
        let json = reg.to_json();
        let Json::Obj(fields) = &json else {
            panic!("expected object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["a.count", "z.lat.count", "z.lat.max_ns", "z.lat.mean_ns"]
        );
        assert_eq!(json.get("z.lat.mean_ns").unwrap().as_f64(), Some(10.0));
    }
}
