//! Log-bucketed latency histograms and the stage × request-class
//! latency-attribution profile.
//!
//! [`LogHistogram`] covers the full `u64`-picosecond range with ~12.5%
//! relative resolution (8 sub-buckets per octave, HDR style), so one
//! fixed-size histogram serves both sub-nanosecond link slots and
//! millisecond-scale queueing tails. Histograms are mergeable across
//! epochs, runs and request classes.
//!
//! [`StageProfile`] aggregates the per-read
//! [`StageBreakdown`]s the memory
//! controller stamps into one histogram per stage × request class,
//! plus per-class end-to-end and DRAM-bank-time histograms. It exports
//! a folded-stack text form (`flamegraph.pl` / speedscope compatible)
//! and a JSON breakdown object for the stats document.

use fbd_types::request::{ReqClass, Stage, StageBreakdown, REQ_CLASSES, STAGES};
use fbd_types::time::Dur;

use crate::json::Json;

/// Sub-buckets per octave: 2^3 = 8, giving ≤ 12.5% bucket width.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Buckets: exact values below 2^SUB_BITS, then 8 per octave up to
/// the top of the `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Index of the bucket holding `ps`.
fn bucket_of(ps: u64) -> usize {
    if ps < SUB_COUNT {
        return ps as usize;
    }
    let msb = 63 - ps.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (ps >> shift) & (SUB_COUNT - 1);
    (((msb - SUB_BITS + 1) as u64 * SUB_COUNT) + sub) as usize
}

/// Largest value stored in bucket `i` (the reported percentile edge).
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        return i;
    }
    let octave = i / SUB_COUNT; // = msb - SUB_BITS + 1
    let sub = i % SUB_COUNT;
    let shift = (octave - 1) as u32;
    // Bucket spans [ (8+sub) << shift, (8+sub+1) << shift ).
    ((SUB_COUNT + sub + 1) << shift).wrapping_sub(1)
}

/// Log-bucketed latency histogram with exact count/sum/max and upper
/// bucket-edge percentiles, mergeable across epochs and classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ps: u128,
    max_ps: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ps: 0,
            max_ps: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Dur) {
        let ps = sample.as_ps();
        self.counts[bucket_of(ps)] += 1;
        self.count += 1;
        self.sum_ps += u128::from(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.sum_ps as f64 / 1_000.0
    }

    /// Exact mean sample, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns() / self.count as f64
        }
    }

    /// Largest sample recorded ([`Dur::ZERO`] when empty).
    pub fn max(&self) -> Dur {
        Dur::from_ps(self.max_ps)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// where the cumulative count reaches `q · count`, clamped to the
    /// exact maximum. [`Dur::ZERO`] when empty.
    pub fn percentile(&self, q: f64) -> Dur {
        if self.count == 0 {
            return Dur::ZERO;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Dur::from_ps(bucket_upper(i).min(self.max_ps));
            }
        }
        self.max()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Summary object: `count`, `total_ns`, `mean_ns`, `p50_ns`,
    /// `p90_ns`, `p99_ns`, `max_ns`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::from(self.count)),
            ("total_ns".into(), Json::from(self.total_ns())),
            ("mean_ns".into(), Json::from(self.mean_ns())),
            (
                "p50_ns".into(),
                Json::from(self.percentile(0.50).as_ns_f64()),
            ),
            (
                "p90_ns".into(),
                Json::from(self.percentile(0.90).as_ns_f64()),
            ),
            (
                "p99_ns".into(),
                Json::from(self.percentile(0.99).as_ns_f64()),
            ),
            ("max_ns".into(), Json::from(self.max().as_ns_f64())),
        ])
    }
}

/// Latency-attribution aggregate over a run: one [`LogHistogram`] per
/// stage × request class, plus per-class end-to-end and DRAM-bank-time
/// histograms, and mismatch counters proving the attribution
/// invariant (stage durations sum to the observed end-to-end latency).
/// Read classes and the posted-write class share the same stage grid
/// but are counted and surfaced separately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// `[class][stage]`, dense by `ReqClass::index` / `Stage::index`.
    stages: Vec<LogHistogram>,
    /// Per-class end-to-end latency.
    e2e: Vec<LogHistogram>,
    /// Per-class total DRAM-bank time (wait + ACT + CAS) per request.
    dram: Vec<LogHistogram>,
    /// Reads whose stage sum did not equal the end-to-end latency.
    mismatches: u64,
    /// Writes whose stage sum did not equal the end-to-end latency.
    write_mismatches: u64,
}

impl StageProfile {
    /// An empty profile.
    pub fn new() -> StageProfile {
        StageProfile {
            stages: vec![LogHistogram::new(); ReqClass::COUNT * Stage::COUNT],
            e2e: vec![LogHistogram::new(); ReqClass::COUNT],
            dram: vec![LogHistogram::new(); ReqClass::COUNT],
            mismatches: 0,
            write_mismatches: 0,
        }
    }

    fn slot(&self, class: ReqClass, stage: Stage) -> usize {
        class.index() * Stage::COUNT + stage.index()
    }

    /// Records one completed request: its class, stamped stage
    /// breakdown, and end-to-end latency. A breakdown whose stages do
    /// not sum to `end_to_end` counts as a mismatch (the attribution
    /// invariant the profile exists to prove); read and write
    /// mismatches are tallied separately.
    pub fn record(&mut self, class: ReqClass, stages: &StageBreakdown, end_to_end: Dur) {
        if self.stages.is_empty() {
            *self = StageProfile::new();
        }
        if stages.total() != end_to_end {
            if class.is_write() {
                self.write_mismatches += 1;
            } else {
                self.mismatches += 1;
            }
        }
        for (stage, dur) in stages.iter() {
            let i = self.slot(class, stage);
            self.stages[i].record(dur);
        }
        self.e2e[class.index()].record(end_to_end);
        self.dram[class.index()].record(stages.dram_total());
    }

    /// The histogram for one stage of one class (empty histogram when
    /// nothing was recorded).
    pub fn stage(&self, class: ReqClass, stage: Stage) -> &LogHistogram {
        static EMPTY: std::sync::OnceLock<LogHistogram> = std::sync::OnceLock::new();
        if self.stages.is_empty() {
            return EMPTY.get_or_init(LogHistogram::new);
        }
        &self.stages[self.slot(class, stage)]
    }

    /// The end-to-end latency histogram of one class.
    pub fn end_to_end(&self, class: ReqClass) -> &LogHistogram {
        static EMPTY: std::sync::OnceLock<LogHistogram> = std::sync::OnceLock::new();
        if self.e2e.is_empty() {
            return EMPTY.get_or_init(LogHistogram::new);
        }
        &self.e2e[class.index()]
    }

    /// The per-read DRAM-bank-time histogram of one class.
    pub fn dram_bank(&self, class: ReqClass) -> &LogHistogram {
        static EMPTY: std::sync::OnceLock<LogHistogram> = std::sync::OnceLock::new();
        if self.dram.is_empty() {
            return EMPTY.get_or_init(LogHistogram::new);
        }
        &self.dram[class.index()]
    }

    /// Total reads recorded, over all read classes.
    pub fn reads(&self) -> u64 {
        REQ_CLASSES
            .iter()
            .filter(|c| !c.is_write())
            .map(|c| self.end_to_end(*c).count())
            .sum()
    }

    /// Total posted writes recorded.
    pub fn writes(&self) -> u64 {
        self.end_to_end(ReqClass::Write).count()
    }

    /// Reads whose stage durations did not sum to the end-to-end
    /// latency (0 proves the attribution invariant for the whole run).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Writes whose stage durations did not sum to the end-to-end
    /// latency (the same invariant, proven for the write path).
    pub fn write_mismatches(&self) -> u64 {
        self.write_mismatches
    }

    /// Folded-stack (flamegraph-compatible) text: one
    /// `read;<class>;<stage> <nanoseconds>` (or `write;…` for the
    /// posted-write class) line per non-empty class × stage cell,
    /// weighted by total time spent in the stage. Feed to
    /// `flamegraph.pl` or import into speedscope.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for class in REQ_CLASSES {
            if self.end_to_end(class).is_empty() {
                continue;
            }
            let root = if class.is_write() { "write" } else { "read" };
            for stage in STAGES {
                let h = self.stage(class, stage);
                let ns = h.total_ns().round() as u64;
                if ns == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{};{};{} {}\n",
                    root,
                    class.label(),
                    stage.label(),
                    ns
                ));
            }
        }
        out
    }

    /// The histogram-summary object of one class: `count`,
    /// `end_to_end`, `dram_bank`, and per-stage summaries.
    fn class_json(&self, class: ReqClass) -> Json {
        let stages: Vec<(String, Json)> = STAGES
            .iter()
            .map(|s| (s.label().to_string(), self.stage(class, *s).to_json()))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::from(self.end_to_end(class).count())),
            ("end_to_end".into(), self.end_to_end(class).to_json()),
            ("dram_bank".into(), self.dram_bank(class).to_json()),
            ("stages".into(), Json::Obj(stages)),
        ])
    }

    /// The per-stage breakdown object embedded in the stats JSON:
    /// `reads`, `mismatches`, and per non-empty read class the
    /// end-to-end, DRAM-bank and per-stage histogram summaries under
    /// `classes` — plus a `writes` object carrying the same summaries
    /// for the posted-write class.
    pub fn to_json(&self) -> Json {
        let mut classes = Vec::new();
        for class in REQ_CLASSES {
            if class.is_write() || self.end_to_end(class).is_empty() {
                continue;
            }
            classes.push((class.label().to_string(), self.class_json(class)));
        }
        let writes = match self.class_json(ReqClass::Write) {
            Json::Obj(mut fields) => {
                fields.insert(1, ("mismatches".into(), Json::from(self.write_mismatches)));
                Json::Obj(fields)
            }
            other => other,
        };
        Json::Obj(vec![
            ("reads".into(), Json::from(self.reads())),
            ("mismatches".into(), Json::from(self.mismatches)),
            ("classes".into(), Json::Obj(classes)),
            ("writes".into(), writes),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_types::time::Time;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value lands in a bucket whose bounds contain it, and
        // bucket indices are non-decreasing in the value.
        let mut last = 0;
        for ps in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(ps);
            assert!(b >= last || ps < 4096, "bucket order broke at {ps}");
            assert!(bucket_upper(b) >= ps, "upper edge below value at {ps}");
            if b > 0 {
                assert!(bucket_upper(b - 1) < ps, "value below bucket at {ps}");
            }
            last = if ps < 4096 { b } else { last };
            assert!(b < BUCKETS);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for ns in [0u64, 1, 2, 3] {
            h.record(Dur::from_ps(ns));
        }
        assert_eq!(h.percentile(0.5), Dur::from_ps(1));
        assert_eq!(h.percentile(1.0), Dur::from_ps(3));
        assert_eq!(h.max(), Dur::from_ps(3));
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(Dur::from_ns(i));
        }
        for (q, exact_ns) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.percentile(q).as_ns_f64();
            let err = (got - exact_ns).abs() / exact_ns;
            assert!(err <= 0.125, "p{q}: got {got} want ~{exact_ns}");
        }
        assert_eq!(h.percentile(1.0), Dur::from_ns(1000));
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ns() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn all_zero_samples_report_zero_percentiles() {
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(Dur::ZERO);
        }
        assert_eq!(h.percentile(0.5), Dur::ZERO);
        assert_eq!(h.percentile(0.99), Dur::ZERO);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..500u64 {
            let d = Dur::from_ps(i * 37);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    fn breakdown(queue_ns: u64, cas_ns: u64) -> StageBreakdown {
        let mut st = StageBreakdown::stamper(Time::ZERO);
        st.to(Stage::CtrlQueue, Time::from_ns(queue_ns));
        st.to(Stage::DramCas, Time::from_ns(queue_ns + cas_ns));
        st.finish()
    }

    #[test]
    fn profile_records_per_class_and_detects_mismatches() {
        let mut p = StageProfile::new();
        let b = breakdown(10, 30);
        p.record(ReqClass::Demand, &b, Dur::from_ns(40));
        p.record(ReqClass::AmbHit, &breakdown(5, 0), Dur::from_ns(5));
        // Deliberately inconsistent: stages sum to 40, e2e says 50.
        p.record(ReqClass::Demand, &b, Dur::from_ns(50));
        assert_eq!(p.reads(), 3);
        assert_eq!(p.mismatches(), 1);
        assert_eq!(p.end_to_end(ReqClass::Demand).count(), 2);
        assert_eq!(p.stage(ReqClass::Demand, Stage::DramCas).count(), 2);
        assert_eq!(p.dram_bank(ReqClass::AmbHit).max(), Dur::ZERO);
        assert_eq!(p.end_to_end(ReqClass::SwPrefetch).count(), 0);
    }

    #[test]
    fn default_profile_is_usable() {
        // `Default` (all-empty vecs) must behave like `new()`.
        let mut p = StageProfile::default();
        assert_eq!(p.reads(), 0);
        assert!(p.stage(ReqClass::Demand, Stage::CtrlQueue).is_empty());
        assert!(p.to_folded().is_empty());
        p.record(ReqClass::Demand, &breakdown(1, 2), Dur::from_ns(3));
        assert_eq!(p.reads(), 1);
    }

    #[test]
    fn folded_lines_are_well_formed() {
        let mut p = StageProfile::new();
        p.record(ReqClass::Demand, &breakdown(10, 30), Dur::from_ns(40));
        p.record(ReqClass::AmbHit, &breakdown(7, 0), Dur::from_ns(7));
        p.record(ReqClass::Write, &breakdown(4, 20), Dur::from_ns(24));
        let folded = p.to_folded();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("frame + weight");
            let frames: Vec<&str> = stack.split(';').collect();
            assert!(
                frames[0] == "read" || frames[0] == "write",
                "bad root frame in {line}"
            );
            assert_eq!(frames.len(), 3);
            let w: u64 = weight.parse().expect("integer weight");
            assert!(w > 0, "zero-weight line {line}");
        }
        assert!(folded.contains("read;demand;queue 10\n"));
        assert!(folded.contains("read;demand;dram_cas 30\n"));
        assert!(folded.contains("read;amb_hit;queue 7\n"));
        assert!(folded.contains("write;write;queue 4\n"));
        assert!(folded.contains("write;write;dram_cas 20\n"));
        // AMB hits spent no DRAM time, so no dram frame for that class.
        assert!(!folded.contains("amb_hit;dram"));
    }

    #[test]
    fn json_covers_only_populated_classes() {
        let mut p = StageProfile::new();
        p.record(ReqClass::Demand, &breakdown(10, 30), Dur::from_ns(40));
        let doc = p.to_json();
        assert_eq!(doc.get("reads").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("mismatches").and_then(Json::as_f64), Some(0.0));
        let classes = doc.get("classes").unwrap();
        let demand = classes.get("demand").expect("demand present");
        assert!(classes.get("swpf").is_none(), "empty class omitted");
        assert!(
            classes.get("write").is_none(),
            "write class lives under `writes`, not `classes`"
        );
        let e2e = demand.get("end_to_end").unwrap();
        assert_eq!(e2e.get("count").and_then(Json::as_f64), Some(1.0));
        let stages = demand.get("stages").unwrap();
        assert!(stages.get("queue").is_some());
        assert!(stages.get("north").is_some());
        // Round-trips through the writer/parser.
        let back = crate::json::parse(&doc.to_json()).unwrap();
        assert_eq!(back.get("reads").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn json_writes_object_tracks_the_write_class() {
        let mut p = StageProfile::new();
        p.record(ReqClass::Demand, &breakdown(10, 30), Dur::from_ns(40));
        // The writes object is always present, even with zero writes,
        // so consumers can rely on its shape.
        let doc = p.to_json();
        let writes = doc.get("writes").expect("writes object present");
        assert_eq!(writes.get("count").and_then(Json::as_f64), Some(0.0));

        p.record(ReqClass::Write, &breakdown(5, 25), Dur::from_ns(30));
        // Deliberately inconsistent write: stages sum 30, e2e says 31.
        p.record(ReqClass::Write, &breakdown(5, 25), Dur::from_ns(31));
        assert_eq!(p.writes(), 2);
        assert_eq!(p.write_mismatches(), 1);
        assert_eq!(p.mismatches(), 0, "write mismatch must not count as read");
        assert_eq!(p.reads(), 1, "write records must not count as reads");
        let doc = p.to_json();
        let writes = doc.get("writes").expect("writes object present");
        assert_eq!(writes.get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(writes.get("mismatches").and_then(Json::as_f64), Some(1.0));
        assert!(writes.get("end_to_end").is_some());
        assert!(writes.get("dram_bank").is_some());
        let stages = writes.get("stages").expect("per-stage summaries");
        assert_eq!(
            stages
                .get("dram_cas")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
