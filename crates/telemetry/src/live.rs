//! Terminal rendering primitives for the `fbdsim --live` dashboard.
//!
//! The dashboard itself (layout, input handling, redraw loop) lives in
//! the CLI; this module holds the pure text widgets — sparkline, bar
//! gauge, SI-scaled numbers, compact durations — so they are
//! unit-testable without a TTY and reusable by future frontends (the
//! planned job-server streaming UI renders the same rows).
//!
//! All widgets return plain `String`s of exactly the requested width
//! (the redraw loop overdraws in place, so ragged lines would leave
//! stale characters behind).

use std::time::Duration;

/// Unicode block elements from "lower eighth" to "full block".
const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders the last `width` values as a one-line sparkline, scaled to
/// the max of the *visible window* (so a spike early in a long run does
/// not flatten the rest of the plot forever). Non-finite values and an
/// all-zero window render as the lowest block; missing leading values
/// pad with spaces so the line is always `width` chars.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let start = values.len().saturating_sub(width);
    let window = &values[start..];
    let max = window
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    let mut out = String::with_capacity(width * 3);
    for _ in window.len()..width {
        out.push(' ');
    }
    for &v in window {
        if max > 0.0 && v.is_finite() && v > 0.0 {
            let level = ((v / max) * 8.0).ceil() as usize;
            out.push(BLOCKS[level.clamp(1, 8) - 1]);
        } else {
            out.push(BLOCKS[0]);
        }
    }
    out
}

/// Renders `frac` (clamped to 0..=1) as a `width`-char bar gauge with
/// eighth-block resolution on the leading edge.
pub fn bar(frac: f64, width: usize) -> String {
    let frac = if frac.is_finite() {
        frac.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let eighths = (frac * (width as f64) * 8.0).round() as usize;
    let full = eighths / 8;
    let rem = eighths % 8;
    let mut out = String::with_capacity(width * 3);
    for _ in 0..full {
        out.push('█');
    }
    if rem > 0 && full < width {
        out.push(BLOCKS[rem - 1]);
    }
    while out.chars().count() < width {
        out.push(' ');
    }
    out
}

/// Formats a value with an SI magnitude suffix in ≤ 5 visible chars of
/// number (`"3.21M"`, `"456k"`, `"7.2G"`, `"12"`).
pub fn si(value: f64) -> String {
    if !value.is_finite() {
        return "-".into();
    }
    let neg = value < 0.0;
    let v = value.abs();
    let (scaled, suffix) = if v >= 1e12 {
        (v / 1e12, "T")
    } else if v >= 1e9 {
        (v / 1e9, "G")
    } else if v >= 1e6 {
        (v / 1e6, "M")
    } else if v >= 1e3 {
        (v / 1e3, "k")
    } else {
        (v, "")
    };
    let digits = if scaled >= 100.0 || (suffix.is_empty() && scaled == scaled.trunc()) {
        0
    } else if scaled >= 10.0 {
        1
    } else {
        2
    };
    format!(
        "{}{:.*}{}",
        if neg { "-" } else { "" },
        digits,
        scaled,
        suffix
    )
}

/// Formats a wall-clock duration compactly: `"873ms"`, `"4.3s"`,
/// `"2m07s"`, `"1h04m"`.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1000.0)
    } else if secs < 60.0 {
        format!("{secs:.1}s")
    } else if secs < 3600.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!(
            "{}h{:02}m",
            (secs / 3600.0) as u64,
            ((secs % 3600.0) / 60.0) as u64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_is_fixed_width_and_scaled() {
        let s = sparkline(&[1.0, 2.0, 4.0, 8.0], 4);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().last(), Some('█'));
        // Short history pads on the left.
        let s = sparkline(&[5.0], 4);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with("   "));
        // Long history shows only the trailing window, rescaled to it.
        let s = sparkline(&[100.0, 1.0, 1.0], 2);
        assert_eq!(s, "██");
    }

    #[test]
    fn sparkline_handles_degenerate_input() {
        assert_eq!(sparkline(&[], 3), "   ");
        assert_eq!(sparkline(&[0.0, 0.0], 2).chars().count(), 2);
        assert_eq!(sparkline(&[f64::NAN, 1.0], 2).chars().count(), 2);
    }

    #[test]
    fn bar_clamps_and_fills() {
        assert_eq!(bar(0.0, 4), "    ");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(2.5, 4), "████");
        assert_eq!(bar(f64::NAN, 4), "    ");
        assert_eq!(bar(0.5, 4).chars().count(), 4);
        assert!(bar(0.5, 4).starts_with("██"));
    }

    #[test]
    fn si_scales_magnitudes() {
        assert_eq!(si(12.0), "12");
        assert_eq!(si(4_560.0), "4.56k");
        assert_eq!(si(3_210_000.0), "3.21M");
        assert_eq!(si(7_200_000_000.0), "7.20G");
        assert_eq!(si(1.5e13), "15.0T");
        assert_eq!(si(-2_000.0), "-2.00k");
        assert_eq!(si(f64::INFINITY), "-");
    }

    #[test]
    fn durations_format_compactly() {
        assert_eq!(fmt_duration(Duration::from_millis(873)), "873ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(4.31)), "4.3s");
        assert_eq!(fmt_duration(Duration::from_secs(127)), "2m07s");
        assert_eq!(fmt_duration(Duration::from_secs(3840)), "1h04m");
    }
}
