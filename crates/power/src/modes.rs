//! Power-mode residency tracking (CKE power-down modelling).
//!
//! The dynamic-energy model in the crate root counts operations; this
//! module reconstructs *when* each rank was busy and what low-power
//! state it occupied in between. The model is the standard DDR idle
//! timeout: after a rank has been idle for `powerdown_after`, the
//! controller drops CKE and the rank enters precharge power-down until
//! the next command. Shorter gaps stay in precharge standby.
//!
//! [`PowerModeTracker`] is fed busy windows (`note_busy`) in any order
//! — the simulator discovers them as accesses are planned, not in time
//! order — and produces a merged, gap-classified span list plus
//! per-mode residency totals. The spans feed the telemetry tracer's
//! power tracks; the residency feeds [`StandbyPower`]-style static
//! energy accounting.
//!
//! The tracker does not keep the run's history. Its owner calls
//! [`PowerModeTracker::settle`] with a *frontier*, an instant no later
//! window will start before; every span that such a window cannot
//! change is then folded into a running [`ModeResidency`] and handed to
//! a sink (the tracer, when one runs). Only the spans past the frontier
//! stay, so memory per rank is constant however long the run, and the
//! result is exactly what classifying the whole merged history at the
//! end would give. This follows gem5's DRAM power-down model (Jagtap et
//! al.), which keeps a running per-rank total updated at each state
//! change rather than replaying a stored history.
//!
//! [`StandbyPower`]: crate::StandbyPower

use std::collections::VecDeque;

use fbd_types::time::{Dur, Time};

/// The power state of one rank over a span of time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerMode {
    /// Executing or holding a row open for an access (IDD3N-class).
    Active,
    /// Idle with CKE high, ready to accept a command (IDD2N-class).
    Standby,
    /// Idle with CKE low after the idle timeout (IDD2P-class).
    PowerDown,
}

impl PowerMode {
    /// Short stable label for traces and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            PowerMode::Active => "active",
            PowerMode::Standby => "standby",
            PowerMode::PowerDown => "powerdown",
        }
    }
}

/// One contiguous interval spent in a single power mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModeSpan {
    /// Span start (inclusive).
    pub start: Time,
    /// Span end (exclusive).
    pub end: Time,
    /// Mode held throughout the span.
    pub mode: PowerMode,
}

impl ModeSpan {
    /// Length of the span.
    pub fn dur(&self) -> Dur {
        self.end - self.start
    }
}

/// Time spent in each power mode over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModeResidency {
    /// Total active time.
    pub active: Dur,
    /// Total precharge-standby time.
    pub standby: Dur,
    /// Total precharge-power-down time.
    pub powerdown: Dur,
}

impl ModeResidency {
    /// `active + standby + powerdown` — equals the run length.
    pub fn total(&self) -> Dur {
        self.active + self.standby + self.powerdown
    }

    /// Adds `span`'s length to its mode's total.
    fn add(&mut self, span: ModeSpan) {
        let total = match span.mode {
            PowerMode::Active => &mut self.active,
            PowerMode::Standby => &mut self.standby,
            PowerMode::PowerDown => &mut self.powerdown,
        };
        *total += span.dur();
    }
}

/// Merged spans to pre-reserve per tracker. A settled tracker holds its
/// newest span plus the spans that start after the frontier, which are
/// bounded by the transactions in flight on the channel (11 at most on
/// the paper workloads), so this keeps `note_busy` off the allocator in
/// the hot loop (the steady-state allocation gate in `fig_throughput`).
/// A tracker that is never settled grows the deque normally.
const MERGED_CAP: usize = 32;

/// Reconstructs one rank's power-mode timeline from its busy windows.
#[derive(Clone, Debug)]
pub struct PowerModeTracker {
    powerdown_after: Dur,
    /// Busy windows merged as they arrive and not yet folded: sorted by
    /// start, pairwise disjoint and non-touching, all after `cursor`.
    /// Interval union is order-independent, so this holds exactly what
    /// sort-then-merge over the raw windows would produce past
    /// `cursor`, without storing one entry per `note_busy` call.
    busy: VecDeque<(Time, Time)>,
    /// Residency over `[0, cursor)`, folded in by [`Self::settle`].
    folded: ModeResidency,
    /// End of the folded prefix: the end of the last folded span.
    cursor: Time,
    /// Raw (non-empty) windows noted, for diagnostics.
    noted: u64,
}

impl PowerModeTracker {
    /// Creates a tracker with the given idle timeout: a gap longer than
    /// `powerdown_after` spends the excess in power-down.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero (every gap would power down
    /// instantly, which no controller does — disable tracking instead).
    pub fn new(powerdown_after: Dur) -> PowerModeTracker {
        assert!(
            powerdown_after > Dur::ZERO,
            "power-down timeout must be non-zero"
        );
        PowerModeTracker {
            powerdown_after,
            busy: VecDeque::with_capacity(MERGED_CAP),
            folded: ModeResidency::default(),
            cursor: Time::ZERO,
            noted: 0,
        }
    }

    /// Records that the rank was busy over `[start, end)`. Windows may
    /// arrive out of order and may overlap; empty windows are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty window starts before the folded prefix's
    /// end: [`Self::settle`] was given a frontier past it, so the
    /// residency folded so far would be wrong.
    pub fn note_busy(&mut self, start: Time, end: Time) {
        if end <= start {
            return;
        }
        assert!(
            start >= self.cursor,
            "busy window at {start:?} starts before the settled prefix ends at {:?}",
            self.cursor
        );
        self.noted += 1;
        // Merge into the sorted disjoint set. Touching counts as
        // overlapping (`[0,10)` + `[10,20)` is one active span), same
        // as the `s <= last_end` rule the batch merge used.
        if let Some(&mut (last_start, ref mut last_end)) = self.busy.back_mut() {
            // Hot path: windows almost always land at or after the
            // newest span (accesses are planned roughly in time order).
            if start >= last_start {
                if start <= *last_end {
                    *last_end = (*last_end).max(end);
                } else {
                    self.busy.push_back((start, end));
                }
                return;
            }
        } else {
            self.busy.push_back((start, end));
            return;
        }
        // Out-of-order window: splice it into place. `lo` is the first
        // span that could overlap (its end reaches back to `start`).
        let lo = self.busy.partition_point(|&(_, e)| e < start);
        if lo == self.busy.len() || self.busy[lo].0 > end {
            // Fits entirely in a gap (or before the first span).
            self.busy.insert(lo, (start, end));
            return;
        }
        // Overlaps spans `lo..hi`: collapse them into one.
        let hi = self.busy.partition_point(|&(s, _)| s <= end);
        let merged = (start.min(self.busy[lo].0), end.max(self.busy[hi - 1].1));
        self.busy[lo] = merged;
        self.busy.drain(lo + 1..hi);
    }

    /// Folds every span that no window starting at or after `frontier`
    /// can change into the running residency, handing each folded
    /// [`ModeSpan`] to `sink` in time order.
    ///
    /// While the second unfolded span starts at or before `frontier`,
    /// the first one and the idle gap before it are final: a window
    /// starting at or after `frontier` lies past the second span's
    /// start, so it cannot fall in the gap, touch the first span's end
    /// or move the second span's start. The caller must therefore
    /// never note a window starting before `frontier` afterwards; the
    /// newest span is always kept, so the tracker still knows the last
    /// busy end.
    pub fn settle(&mut self, frontier: Time, mut sink: impl FnMut(ModeSpan)) {
        while self.busy.len() >= 2 && self.busy[1].0 <= frontier {
            let (start, end) = self.busy.pop_front().expect("two unfolded spans");
            let folded = &mut self.folded;
            walk(self.powerdown_after, self.cursor, start, end, |span| {
                folded.add(span);
                sink(span);
            });
            self.cursor = end;
        }
    }

    /// Number of busy windows noted so far (pre-merge).
    pub fn noted(&self) -> usize {
        self.noted as usize
    }

    /// Number of merged busy spans not yet folded by [`Self::settle`],
    /// the tracker's only variable-size storage.
    pub fn unsettled(&self) -> usize {
        self.busy.len()
    }

    /// Walks the unfolded timeline from the folded prefix's end to
    /// `run_end`: active spans are the merged busy windows (clamped to
    /// `run_end`); each idle gap is standby for up to the timeout, then
    /// power-down.
    ///
    /// # Panics
    ///
    /// Panics if `run_end` is before the folded prefix's end.
    fn tail(&self, run_end: Time, mut f: impl FnMut(ModeSpan)) {
        assert!(
            run_end >= self.cursor,
            "run end {run_end:?} is before the settled prefix ends at {:?}",
            self.cursor
        );
        let mut cursor = self.cursor;
        for &(s, e) in &self.busy {
            if s >= run_end {
                break;
            }
            walk(self.powerdown_after, cursor, s, e.min(run_end), &mut f);
            cursor = e;
            if cursor >= run_end {
                break;
            }
        }
        walk(self.powerdown_after, cursor, run_end, run_end, f);
    }

    /// The mode timeline from the end of the folded prefix to `run_end`
    /// (from `Time::ZERO` when [`Self::settle`] folded nothing): active
    /// spans are the merged busy windows; each idle gap is standby for
    /// up to the timeout, then power-down. Spans are contiguous,
    /// time-ordered, and never empty. The leading gap before the first
    /// access is classified like any other idle period. Together with
    /// the spans `settle` handed out, they cover `[0, run_end)`.
    ///
    /// # Panics
    ///
    /// Panics if `run_end` is before the folded prefix's end.
    pub fn spans(&self, run_end: Time) -> Vec<ModeSpan> {
        let mut out = Vec::new();
        self.tail(run_end, |span| out.push(span));
        out
    }

    /// Per-mode totals over `[0, run_end)`; always sums to `run_end`.
    ///
    /// # Panics
    ///
    /// Panics if `run_end` is before the folded prefix's end.
    pub fn residency(&self, run_end: Time) -> ModeResidency {
        let mut r = self.folded;
        self.tail(run_end, |span| r.add(span));
        r
    }
}

/// Hands `f` the spans of one idle gap `[from, start)` and the busy
/// span `[start, end)` after it: standby for up to `powerdown_after`,
/// then power-down, then active. Empty pieces are skipped.
fn walk(powerdown_after: Dur, from: Time, start: Time, end: Time, mut f: impl FnMut(ModeSpan)) {
    if start > from {
        let standby_end = start.min(from + powerdown_after);
        f(ModeSpan {
            start: from,
            end: standby_end,
            mode: PowerMode::Standby,
        });
        if start > standby_end {
            f(ModeSpan {
                start: standby_end,
                end: start,
                mode: PowerMode::PowerDown,
            });
        }
    }
    if end > start {
        f(ModeSpan {
            start,
            end,
            mode: PowerMode::Active,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_ns(ns)
    }

    #[test]
    fn idle_rank_is_standby_then_powerdown() {
        let tracker = PowerModeTracker::new(Dur::from_ns(30));
        let spans = tracker.spans(t(100));
        assert_eq!(
            spans,
            vec![
                ModeSpan {
                    start: t(0),
                    end: t(30),
                    mode: PowerMode::Standby
                },
                ModeSpan {
                    start: t(30),
                    end: t(100),
                    mode: PowerMode::PowerDown
                },
            ]
        );
        let r = tracker.residency(t(100));
        assert_eq!(r.standby, Dur::from_ns(30));
        assert_eq!(r.powerdown, Dur::from_ns(70));
        assert_eq!(r.total(), Dur::from_ns(100));
    }

    #[test]
    fn short_gaps_stay_in_standby() {
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(0), t(10));
        tracker.note_busy(t(20), t(40)); // 10 ns gap < timeout
        let spans = tracker.spans(t(40));
        assert_eq!(
            spans,
            vec![
                ModeSpan {
                    start: t(0),
                    end: t(10),
                    mode: PowerMode::Active
                },
                ModeSpan {
                    start: t(10),
                    end: t(20),
                    mode: PowerMode::Standby
                },
                ModeSpan {
                    start: t(20),
                    end: t(40),
                    mode: PowerMode::Active
                },
            ]
        );
    }

    #[test]
    fn overlapping_out_of_order_windows_merge() {
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(50), t(70));
        tracker.note_busy(t(10), t(30));
        tracker.note_busy(t(25), t(55)); // bridges both
        tracker.note_busy(t(60), t(60)); // empty: ignored
        assert_eq!(tracker.noted(), 3);
        let spans = tracker.spans(t(70));
        assert_eq!(
            spans,
            vec![
                ModeSpan {
                    start: t(0),
                    end: t(10),
                    mode: PowerMode::Standby
                },
                ModeSpan {
                    start: t(10),
                    end: t(70),
                    mode: PowerMode::Active
                },
            ]
        );
    }

    #[test]
    fn long_gap_splits_at_the_timeout() {
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(0), t(10));
        tracker.note_busy(t(100), t(110));
        let r = tracker.residency(t(110));
        assert_eq!(r.active, Dur::from_ns(20));
        assert_eq!(r.standby, Dur::from_ns(30));
        assert_eq!(r.powerdown, Dur::from_ns(60));
        // Spans are contiguous and ordered.
        let spans = tracker.spans(t(110));
        for pair in spans.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(spans.first().unwrap().start, t(0));
        assert_eq!(spans.last().unwrap().end, t(110));
    }

    #[test]
    fn busy_past_run_end_is_clamped() {
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(90), t(150));
        let spans = tracker.spans(t(100));
        assert_eq!(spans.last().unwrap().end, t(100));
        assert_eq!(tracker.residency(t(100)).total(), Dur::from_ns(100));
        // A window entirely past the end contributes nothing.
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(200), t(250));
        assert_eq!(tracker.residency(t(100)).active, Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_timeout_rejected() {
        let _ = PowerModeTracker::new(Dur::ZERO);
    }

    /// The batch reference: sort-then-merge over the raw windows, as
    /// the tracker did before it merged them as they arrived.
    fn batch_merge(raw: &[(Time, Time)]) -> Vec<(Time, Time)> {
        let mut raw: Vec<_> = raw.iter().copied().filter(|(s, e)| e > s).collect();
        raw.sort();
        let mut merged: Vec<(Time, Time)> = Vec::new();
        for (s, e) in raw {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }

    /// The batch reference timeline over `[0, run_end)`: the tracker's
    /// `spans` before it folded its history as it settled.
    fn batch_spans(powerdown_after: Dur, raw: &[(Time, Time)], run_end: Time) -> Vec<ModeSpan> {
        let mut out = Vec::new();
        let mut cursor = Time::ZERO;
        let push_idle = |out: &mut Vec<ModeSpan>, from: Time, to: Time| {
            if to <= from {
                return;
            }
            let standby_end = to.min(from + powerdown_after);
            out.push(ModeSpan {
                start: from,
                end: standby_end,
                mode: PowerMode::Standby,
            });
            if to > standby_end {
                out.push(ModeSpan {
                    start: standby_end,
                    end: to,
                    mode: PowerMode::PowerDown,
                });
            }
        };
        for (s, e) in batch_merge(raw) {
            if s >= run_end {
                break;
            }
            push_idle(&mut out, cursor, s);
            out.push(ModeSpan {
                start: s,
                end: e.min(run_end),
                mode: PowerMode::Active,
            });
            cursor = e;
            if cursor >= run_end {
                break;
            }
        }
        push_idle(&mut out, cursor, run_end);
        out
    }

    /// The batch reference residency: per-mode sums of `spans`.
    fn batch_residency(spans: &[ModeSpan]) -> ModeResidency {
        let mut r = ModeResidency::default();
        for span in spans {
            match span.mode {
                PowerMode::Active => r.active += span.dur(),
                PowerMode::Standby => r.standby += span.dur(),
                PowerMode::PowerDown => r.powerdown += span.dur(),
            }
        }
        r
    }

    /// Deterministic pseudo-random draws in `0..m` (LCG).
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        }
    }

    /// The incremental union in `note_busy` must reproduce what
    /// sort-then-merge over the raw windows produces, for any arrival
    /// order — that identity is what lets the tracker avoid storing one
    /// entry per window.
    #[test]
    fn incremental_union_matches_batch_merge() {
        // Deterministic pseudo-random windows, heavy on overlaps,
        // touches and out-of-order arrivals.
        let mut next = lcg(0x9e37_79b9_7f4a_7c15);
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        let mut raw = Vec::new();
        for i in 0..2000 {
            // A mostly-forward cursor with occasional far jumps back,
            // mimicking command-ahead scheduling vs. late write drains.
            let base = i * 7 + next(40);
            let back = if next(10) == 0 { next(200) } else { next(12) };
            let start = base.saturating_sub(back);
            let end = start + 1 + next(25);
            tracker.note_busy(t(start), t(end));
            raw.push((t(start), t(end)));
        }
        let merged: Vec<_> = tracker.busy.iter().copied().collect();
        assert_eq!(merged, batch_merge(&raw));
        assert_eq!(tracker.noted(), 2000);
        let end = t(2000 * 7 + 100);
        assert_eq!(tracker.residency(end).total(), end - Time::ZERO);
        assert_eq!(tracker.spans(end), batch_spans(Dur::from_ns(30), &raw, end));
    }

    /// Folding as the tracker settles must reproduce the batch timeline
    /// exactly: after every step, the spans `settle` handed out plus
    /// `spans(run_end)`, and `residency(run_end)`, equal the batch
    /// reference over every window noted so far, for several run ends
    /// at or past the frontier. The windows follow the contract memsys
    /// keeps: each starts at or after the frontier of the last settle,
    /// in order, out of order (behind a window planned far ahead),
    /// touching and overlapping, plus long refresh-like windows that
    /// came due since the last settle.
    #[test]
    fn settled_timeline_matches_batch_reference() {
        let powerdown_after = Dur::from_ns(30);
        for seed in [1, 7, 0x9e37_79b9_7f4a_7c15] {
            let mut next = lcg(seed);
            let mut tracker = PowerModeTracker::new(powerdown_after);
            let mut raw = Vec::new();
            let mut folded = Vec::new();
            let mut frontier = 0;
            let mut last_end = 0;
            for _ in 0..600 {
                let prev = frontier;
                frontier += next(12);
                let (start, len) = match next(10) {
                    // Refresh-like: due in `[prev, frontier]`.
                    0 => (prev + next(frontier - prev + 1), 128),
                    // Planned far ahead of the windows that follow.
                    1 => (frontier + next(300), 1 + next(25)),
                    // Just past the frontier: touches and overlaps.
                    _ => (frontier + next(20), 1 + next(25)),
                };
                tracker.note_busy(t(start), t(start + len));
                raw.push((t(start), t(start + len)));
                last_end = last_end.max(start + len);
                tracker.settle(t(frontier), |span| folded.push(span));
                for run_end in [frontier, frontier + next(50), last_end, last_end + 100] {
                    let run_end = t(run_end);
                    let want = batch_spans(powerdown_after, &raw, run_end);
                    let mut got = folded.clone();
                    got.extend(tracker.spans(run_end));
                    assert_eq!(got, want, "seed {seed}: timeline to {run_end:?}");
                    assert_eq!(tracker.residency(run_end), batch_residency(&want));
                }
            }
            assert!(!folded.is_empty(), "seed {seed}: settle folded nothing");
            assert!(
                tracker.unsettled() < raw.len() / 10,
                "seed {seed}: {} spans still unsettled",
                tracker.unsettled()
            );
        }
    }

    #[test]
    #[should_panic(expected = "before the settled prefix")]
    fn a_window_before_the_settled_prefix_panics() {
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(0), t(10));
        tracker.note_busy(t(20), t(30));
        tracker.note_busy(t(40), t(50));
        tracker.settle(t(45), |_| {});
        assert_eq!(tracker.unsettled(), 1, "only the newest span stays");
        tracker.note_busy(t(25), t(35));
    }

    #[test]
    #[should_panic(expected = "before the settled prefix")]
    fn a_run_end_before_the_settled_prefix_panics() {
        let mut tracker = PowerModeTracker::new(Dur::from_ns(30));
        tracker.note_busy(t(0), t(10));
        tracker.note_busy(t(20), t(30));
        tracker.settle(t(20), |_| {});
        let _ = tracker.residency(t(5));
    }
}
