//! Epoch sampler: periodic snapshots of the metric registry.
//!
//! Every `interval` of simulated time the driver calls
//! [`EpochSampler::sample`], which appends one row of readings for every
//! registered metric. Metrics may be registered after sampling has
//! started; earlier rows are implicitly zero for late-registered
//! columns, which works because [`MetricId`](crate::MetricId)s are
//! dense and append-only.
//! At the end of a run, [`EpochSampler::finish`] flushes one final row
//! for the partial epoch so no tail activity is lost.

use fbd_types::time::{Dur, Time};

use crate::json::Json;
use crate::registry::MetricRegistry;

/// One snapshot row: the sample instant plus a reading per metric id.
#[derive(Clone, Debug)]
pub struct SampleRow {
    /// When the snapshot was taken.
    pub at: Time,
    /// Readings indexed by [`MetricId`](crate::MetricId); shorter than
    /// the final metric
    /// count when metrics registered after this row was taken.
    pub values: Vec<f64>,
}

/// Time-series collector over a [`MetricRegistry`].
#[derive(Clone, Debug)]
pub struct EpochSampler {
    interval: Dur,
    next_due: Time,
    last_sample: Option<Time>,
    rows: Vec<SampleRow>,
}

impl EpochSampler {
    /// Creates a sampler firing every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero — a zero epoch would make the
    /// sampler due at every instant and the series meaningless.
    pub fn new(interval: Dur) -> EpochSampler {
        assert!(interval > Dur::ZERO, "sample interval must be non-zero");
        EpochSampler {
            interval,
            next_due: Time::ZERO + interval,
            last_sample: None,
            rows: Vec::new(),
        }
    }

    /// The next instant at which [`sample`](Self::sample) should run.
    pub fn next_due(&self) -> Time {
        self.next_due
    }

    /// Takes one snapshot at `now` and schedules the next epoch.
    pub fn sample(&mut self, now: Time, registry: &MetricRegistry) {
        self.push_row(now, registry);
        while self.next_due <= now {
            self.next_due += self.interval;
        }
    }

    /// Flushes the final partial epoch: if simulated time advanced past
    /// the last snapshot, one more row is taken at `end` so the series
    /// always covers the whole run. When the last periodic sample landed
    /// exactly at `end`, that row is re-taken instead of duplicated, so
    /// metrics registered or updated between the last sample and the end
    /// of the run (end-of-run `energy.*` and residency gauges) still
    /// appear in the series. Harmless to call twice.
    pub fn finish(&mut self, end: Time, registry: &MetricRegistry) {
        if self.last_sample == Some(end) {
            self.rows.pop();
            self.push_row(end, registry);
        } else if self.last_sample.is_some() || end > Time::ZERO {
            self.push_row(end, registry);
        }
    }

    fn push_row(&mut self, at: Time, registry: &MetricRegistry) {
        let values = (0..registry.len())
            .map(|i| {
                registry
                    .value(crate::registry::metric_id_from_index(i))
                    .as_f64()
            })
            .collect();
        self.rows.push(SampleRow { at, values });
        self.last_sample = Some(at);
    }

    /// All rows collected so far, oldest first.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Renders the series as CSV: a `time_ns` column plus one column
    /// per metric path. Rows taken before a metric registered report 0.
    pub fn to_csv(&self, registry: &MetricRegistry) -> String {
        let mut out = String::from("time_ns");
        for (path, _) in registry.iter() {
            out.push(',');
            out.push_str(&csv_field(path));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{}", row.at.as_ns_f64()));
            for i in 0..registry.len() {
                let v = row.values.get(i).copied().unwrap_or(0.0);
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the series as a JSON object with `interval_ns`,
    /// `columns` (metric paths) and `rows` (`[time_ns, v0, v1, ...]`).
    pub fn to_json(&self, registry: &MetricRegistry) -> Json {
        let columns = Json::Arr(registry.iter().map(|(path, _)| Json::from(path)).collect());
        let rows = Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    let mut cells = Vec::with_capacity(registry.len() + 1);
                    cells.push(Json::Num(row.at.as_ns_f64()));
                    for i in 0..registry.len() {
                        cells.push(Json::Num(row.values.get(i).copied().unwrap_or(0.0)));
                    }
                    Json::Arr(cells)
                })
                .collect(),
        );
        Json::Obj(vec![
            ("interval_ns".into(), Json::Num(self.interval.as_ns_f64())),
            ("columns".into(), columns),
            ("rows".into(), rows),
        ])
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        let _ = EpochSampler::new(Dur::ZERO);
    }

    #[test]
    fn samples_advance_next_due_past_now() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("c");
        let mut s = EpochSampler::new(Dur::from_ns(100));
        assert_eq!(s.next_due(), Time::from_ns(100));

        reg.set_counter(c, 1);
        s.sample(Time::from_ns(100), &reg);
        assert_eq!(s.next_due(), Time::from_ns(200));

        // A late sample (driver slipped two epochs) still lands the next
        // due time strictly in the future.
        reg.set_counter(c, 5);
        s.sample(Time::from_ns(350), &reg);
        assert_eq!(s.next_due(), Time::from_ns(400));

        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[0].values, vec![1.0]);
        assert_eq!(s.rows()[1].values, vec![5.0]);
    }

    #[test]
    fn finish_flushes_partial_epoch() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("c");
        let mut s = EpochSampler::new(Dur::from_ns(100));

        reg.set_counter(c, 2);
        s.sample(Time::from_ns(100), &reg);
        reg.set_counter(c, 3);
        // Run ends mid-epoch at 130 ns: the tail must not be dropped.
        s.finish(Time::from_ns(130), &reg);
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[1].at, Time::from_ns(130));
        assert_eq!(s.rows()[1].values, vec![3.0]);

        // Calling finish again at the same instant adds nothing.
        s.finish(Time::from_ns(130), &reg);
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn finish_refreshes_row_when_sample_landed_at_end() {
        // Regression: a run whose length is an exact multiple of the
        // epoch takes its last periodic sample at `end`; gauges set
        // after that (end-of-run energy totals) must still make the
        // final row instead of being silently dropped.
        let mut reg = MetricRegistry::new();
        let c = reg.counter("c");
        let mut s = EpochSampler::new(Dur::from_ns(100));

        reg.set_counter(c, 2);
        s.sample(Time::from_ns(100), &reg);
        s.sample(Time::from_ns(200), &reg);

        let e = reg.gauge("energy.total_nj");
        reg.set(e, 42.0);
        s.finish(Time::from_ns(200), &reg);

        assert_eq!(s.rows().len(), 2, "row replaced, not duplicated");
        assert_eq!(s.rows()[1].at, Time::from_ns(200));
        assert_eq!(s.rows()[1].values, vec![2.0, 42.0]);

        // Still idempotent.
        s.finish(Time::from_ns(200), &reg);
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn finish_on_empty_run_records_nothing_at_zero() {
        let reg = MetricRegistry::new();
        let mut s = EpochSampler::new(Dur::from_ns(100));
        s.finish(Time::ZERO, &reg);
        assert!(s.rows().is_empty());
    }

    #[test]
    fn late_registered_metrics_pad_earlier_rows() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("a");
        let mut s = EpochSampler::new(Dur::from_ns(10));
        reg.set_counter(a, 1);
        s.sample(Time::from_ns(10), &reg);

        let b = reg.gauge("b");
        reg.set(b, 9.0);
        s.sample(Time::from_ns(20), &reg);

        let csv = s.to_csv(&reg);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ns,a,b");
        assert_eq!(lines[1], "10,1,0");
        assert_eq!(lines[2], "20,1,9");

        let json = s.to_json(&reg);
        let rows = json.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap().len(), 3);
        assert_eq!(rows[0].as_array().unwrap()[2].as_f64(), Some(0.0));
    }
}
