//! Cycle-level event tracer emitting Chrome Trace Event Format JSON.
//!
//! Events collect in memory during the run and export as a
//! `{"traceEvents": [...]}` document loadable by Perfetto or
//! `chrome://tracing`. Tracks follow the convention used throughout the
//! simulator: `pid` is the FB-DIMM channel (or [`PID_SYSTEM`] for
//! system-wide tracks), `tid` selects the lane within it — southbound
//! frames, northbound frames, per-DIMM DRAM commands, power modes —
//! named via metadata events so the viewer shows
//! `chan0 / southbound` instead of raw ids.
//!
//! Chrome traces use **microsecond** timestamps; simulated picoseconds
//! divide by 10^6 at export, keeping full `u64` precision in memory.

use fbd_types::time::{Dur, Time};

use crate::json::Json;

/// `pid` for tracks that span the whole system rather than one channel.
pub const PID_SYSTEM: u32 = 1000;

/// `tid` of the southbound-frame track within a channel.
pub const TID_SOUTH: u32 = 0;
/// `tid` of the northbound-frame track within a channel.
pub const TID_NORTH: u32 = 1;
/// `tid` of the DRAM command track for DIMM `d` within a channel.
pub fn tid_dimm(dimm: usize) -> u32 {
    10 + dimm as u32
}
/// `tid` of the power-mode track for the rank in device slot `slot`
/// (`dimm * ranks_per_dimm + rank`) within a channel.
pub fn tid_power(slot: usize) -> u32 {
    100 + slot as u32
}
/// `tid` of the DRAM command track for `bank` of the rank in device
/// slot `slot` (`dimm * ranks_per_dimm + rank`) within a channel, so
/// each rank's banks draw on tracks of their own. Bank tracks start at
/// 10 000 so they sort below the per-DIMM and power tracks; 100 tids
/// are reserved per slot.
pub fn tid_bank(slot: usize, bank: usize) -> u32 {
    10_000 + slot as u32 * 100 + bank as u32
}

/// One trace event argument: a key plus a JSON-able value.
pub type Arg = (&'static str, Json);

#[derive(Clone, Debug)]
enum Phase {
    /// `ph:"X"` — a span with a duration.
    Complete { dur: Dur },
    /// `ph:"i"` — a point-in-time marker.
    Instant,
    /// `ph:"C"` — a counter series rendered as an area chart.
    Counter,
}

#[derive(Clone, Debug)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    phase: Phase,
    ts: Time,
    pid: u32,
    tid: u32,
    args: Vec<Arg>,
}

/// In-memory event collector; one per traced run.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    /// (pid, tid, name) metadata registered via the track helpers.
    tracks: Vec<(u32, u32, String)>,
    /// (pid, name) metadata registered via [`Tracer::name_process`].
    processes: Vec<(u32, String)>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Names the process-level track `pid` (e.g. `chan0`).
    pub fn name_process(&mut self, pid: u32, name: &str) {
        if !self.processes.iter().any(|(p, _)| *p == pid) {
            self.processes.push((pid, name.to_string()));
        }
    }

    /// Names the thread-level track `(pid, tid)` (e.g. `southbound`).
    pub fn name_track(&mut self, pid: u32, tid: u32, name: &str) {
        if !self.tracks.iter().any(|(p, t, _)| *p == pid && *t == tid) {
            self.tracks.push((pid, tid, name.to_string()));
        }
    }

    /// Records a span of `dur` starting at `start`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        start: Time,
        dur: Dur,
        args: Vec<Arg>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            phase: Phase::Complete { dur },
            ts: start,
            pid,
            tid,
            args,
        });
    }

    /// Records a point event at `at`.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        at: Time,
        args: Vec<Arg>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            phase: Phase::Instant,
            ts: at,
            pid,
            tid,
            args,
        });
    }

    /// Records a counter reading at `at`; the viewer draws the series
    /// named `name` on track `(pid, tid)` as a stacked area chart.
    pub fn counter(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u32,
        at: Time,
        value: f64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            phase: Phase::Counter,
            ts: at,
            pid,
            tid,
            args: vec![("value", Json::Num(value))],
        });
    }

    /// Number of events recorded so far (excluding track metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Exports the Chrome Trace Event Format document. Events are
    /// ordered by track and then by non-decreasing timestamp, with all
    /// metadata events first.
    pub fn to_chrome_trace(&self) -> Json {
        let mut out: Vec<Json> =
            Vec::with_capacity(self.events.len() + self.tracks.len() + self.processes.len());
        for (pid, name) in &self.processes {
            out.push(metadata("process_name", *pid, None, name));
        }
        for (pid, tid, name) in &self.tracks {
            out.push(metadata("thread_name", *pid, Some(*tid), name));
        }

        let mut order: Vec<usize> = (0..self.events.len()).collect();
        // Stable sort: same-track same-ts events keep emission order.
        order.sort_by_key(|&i| {
            let e = &self.events[i];
            (e.pid, e.tid, e.ts)
        });
        for i in order {
            out.push(self.events[i].to_json());
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(out)),
            ("displayTimeUnit".into(), Json::from("ns")),
        ])
    }
}

fn metadata(kind: &str, pid: u32, tid: Option<u32>, name: &str) -> Json {
    let mut fields = vec![
        ("name".into(), Json::from(kind)),
        ("ph".into(), Json::from("M")),
        ("pid".into(), Json::from(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), Json::from(tid)));
    }
    fields.push((
        "args".into(),
        Json::Obj(vec![("name".into(), Json::from(name))]),
    ));
    Json::Obj(fields)
}

/// Picoseconds to the microsecond floats Chrome traces expect.
fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("cat".into(), Json::from(self.cat)),
            (
                "ph".into(),
                Json::from(match self.phase {
                    Phase::Complete { .. } => "X",
                    Phase::Instant => "i",
                    Phase::Counter => "C",
                }),
            ),
            ("ts".into(), Json::Num(ps_to_us(self.ts.as_ps()))),
            ("pid".into(), Json::from(self.pid)),
            ("tid".into(), Json::from(self.tid)),
        ];
        if let Phase::Complete { dur } = self.phase {
            fields.push(("dur".into(), Json::Num(ps_to_us(dur.as_ps()))));
        }
        if let Phase::Instant = self.phase {
            // Thread-scoped instants render as small arrows on the track.
            fields.push(("s".into(), Json::from("t")));
        }
        if !self.args.is_empty() {
            fields.push((
                "args".into(),
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn export_orders_by_track_then_time() {
        let mut t = Tracer::new();
        t.complete(
            "RD",
            "dram",
            0,
            tid_dimm(0),
            Time::from_ns(30),
            Dur::from_ns(15),
            vec![],
        );
        t.complete(
            "frame",
            "link",
            0,
            TID_SOUTH,
            Time::from_ns(12),
            Dur::from_ns(6),
            vec![],
        );
        t.complete(
            "ACT",
            "dram",
            0,
            tid_dimm(0),
            Time::from_ns(10),
            Dur::from_ns(12),
            vec![],
        );
        t.instant("hit", "amb", 0, TID_SOUTH, Time::from_ns(40), vec![]);

        let doc = t.to_chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut last: Option<(f64, f64, f64)> = None;
        for e in events {
            if e.get("ph").unwrap().as_str() == Some("M") {
                continue;
            }
            let key = (
                e.get("pid").unwrap().as_f64().unwrap(),
                e.get("tid").unwrap().as_f64().unwrap(),
                e.get("ts").unwrap().as_f64().unwrap(),
            );
            if let Some(prev) = last {
                assert!(key >= prev, "events out of order: {prev:?} then {key:?}");
            }
            last = Some(key);
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let mut t = Tracer::new();
        t.complete(
            "x",
            "c",
            1,
            2,
            Time::from_ns(2500),
            Dur::from_ns(500),
            vec![],
        );
        let doc = t.to_chrome_trace();
        let e = &doc.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("ts").unwrap().as_f64(), Some(2.5));
        assert_eq!(e.get("dur").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn metadata_names_tracks_once() {
        let mut t = Tracer::new();
        t.name_process(0, "chan0");
        t.name_process(0, "chan0");
        t.name_track(0, TID_SOUTH, "southbound");
        t.name_track(0, TID_SOUTH, "southbound");
        let doc = t.to_chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        assert_eq!(
            metas[1].get("args").unwrap().get("name").unwrap().as_str(),
            Some("southbound")
        );
    }

    #[test]
    fn export_round_trips_through_parser() {
        let mut t = Tracer::new();
        t.name_process(0, "chan0");
        t.counter("queue_depth", "ctrl", PID_SYSTEM, 0, Time::from_ns(10), 3.0);
        t.complete(
            "ACT",
            "dram",
            0,
            tid_dimm(1),
            Time::from_ns(10),
            Dur::from_ns(12),
            vec![("bank", Json::from(5u32))],
        );
        let text = t.to_chrome_trace().to_json_pretty(1);
        let back = json::parse(&text).expect("exporter must emit valid JSON");
        assert_eq!(
            back.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );
    }
}
