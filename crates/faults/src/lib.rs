//! Deterministic link fault injection for the FB-DIMM channel.
//!
//! Real FB-DIMM links protect every southbound/northbound frame with a
//! CRC; the controller replays corrupted frames and, on persistent
//! failure, degrades the channel to a reduced-width lane map. This
//! crate provides the *error process* side of that protocol: a seeded,
//! reproducible per-link bit-error stream ([`FaultProcess`]), the retry
//! backoff schedule ([`backoff_slots`]), and the counter/report types
//! ([`FaultCounters`], [`FaultReport`]) the recovery machinery in
//! `fbd-link`/`fbd-core` aggregates.
//!
//! Determinism contract: a process draws one pseudo-random number per
//! frame from a [SplitMix64] stream derived from `(seed, channel,
//! direction)` only. Two runs with the same configuration therefore
//! corrupt exactly the same frames, regardless of host, thread
//! scheduling or sweep ordering — the property the
//! `--fault-seed` CLI contract and the determinism tests rely on.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use fbd_types::config::{FaultConfig, FaultMode};
use fbd_types::time::Dur;

/// Direction of an FB-DIMM link (each logical channel has one of each).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// Controller → DIMMs: command and write-data frames.
    South,
    /// DIMMs → controller: read-data frames.
    North,
}

impl LinkDir {
    /// Dense index (south first).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            LinkDir::South => 0,
            LinkDir::North => 1,
        }
    }
}

/// Sebastiano Vigna's SplitMix64: tiny, full-period, and statistically
/// solid for simulation use — and dependency-free, which keeps the
/// fault layer out of the vendored-`rand` surface.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Folds `v` into the stream position (domain separation between
    /// per-channel / per-direction streams sharing one user seed).
    fn absorb(&mut self, v: u64) {
        self.state ^= v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        self.next_u64();
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Frames corrupted per trigger in [`FaultMode::Burst`], the triggering
/// frame included.
const BURST_FRAMES: u32 = 4;

/// The seeded bit-error process of one link direction.
///
/// One process exists per `(channel, direction)` pair; each transferred
/// frame consumes exactly one draw, so the corruption pattern is a pure
/// function of the configuration — see the crate docs for the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct FaultProcess {
    /// Per-frame corruption probability derived from the BER and the
    /// frame payload width.
    p_frame: f64,
    /// Probability that a *corrupted* transfer aliases to a valid CRC
    /// codeword and sails through undetected (0.0 for the ideal CRC).
    p_escape: f64,
    mode: FaultMode,
    rng: SplitMix64,
    /// Remaining frames of a running burst (includes none of the
    /// trigger frame; decremented per subsequent frame).
    burst_left: u32,
    /// Set once a stuck-lane defect has triggered: every later frame is
    /// corrupt until the controller fails the lane over.
    stuck: bool,
}

impl FaultProcess {
    /// Builds the error process for one link direction.
    ///
    /// `bits_per_frame` is the number of payload bits a frame carries on
    /// this direction (wider frames are proportionally more exposed):
    /// the per-frame corruption probability is
    /// `1 − (1 − ber)^bits_per_frame`.
    ///
    /// When `cfg.crc_bits` is non-zero the CRC is no longer ideal: a
    /// corrupted transfer escapes detection with probability
    /// [`escape_probability`] and the consumer must track the resulting
    /// silent corruption (see [`SilentErrorReport`]).
    pub fn new(cfg: &FaultConfig, channel: u32, dir: LinkDir, bits_per_frame: u32) -> FaultProcess {
        let mut rng = SplitMix64::new(cfg.seed);
        rng.absorb(u64::from(channel).wrapping_add(1));
        rng.absorb(dir.index() as u64 + 1);
        let p_frame = 1.0 - (1.0 - cfg.ber).powi(bits_per_frame as i32);
        FaultProcess {
            p_frame,
            p_escape: escape_probability(cfg, bits_per_frame),
            mode: cfg.mode,
            rng,
            burst_left: 0,
            stuck: false,
        }
    }

    /// Subjects one frame to the error process; true means the frame
    /// arrives with a CRC error.
    pub fn corrupt_frame(&mut self) -> bool {
        if self.stuck {
            // Defect persists; keep the stream position moving so the
            // post-fail-over draws stay aligned across configurations.
            self.rng.next_f64();
            return true;
        }
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.rng.next_f64();
            return true;
        }
        let hit = self.rng.next_f64() < self.p_frame;
        if hit {
            match self.mode {
                FaultMode::Ber => {}
                FaultMode::Burst => self.burst_left = BURST_FRAMES - 1,
                FaultMode::StuckLane => self.stuck = true,
            }
        }
        hit
    }

    /// Subjects a multi-frame transfer to the error process; true means
    /// at least one of its `frames` arrived corrupted (the CRC check
    /// fails the transfer as a whole and the controller replays it).
    pub fn corrupt_transfer(&mut self, frames: u64) -> bool {
        let mut any = false;
        for _ in 0..frames {
            // No short-circuit: every frame consumes its draw so the
            // stream position is independent of earlier outcomes.
            any |= self.corrupt_frame();
        }
        any
    }

    /// Decides whether a transfer the error process just corrupted
    /// slips past the CRC check (the caller invokes this once per
    /// *corrupted* transfer, before entering the retry path).
    ///
    /// Stream-alignment contract: the decision consumes a draw only
    /// when the escape probability is non-zero — under the default
    /// ideal CRC (`crc_bits == 0`) this is a pure `false` and the
    /// corruption pattern stays bit-identical to earlier releases.
    pub fn escapes(&mut self) -> bool {
        if self.p_escape <= 0.0 {
            return false;
        }
        self.rng.next_f64() < self.p_escape
    }

    /// True once a stuck-lane defect has latched.
    pub fn is_stuck(&self) -> bool {
        self.stuck
    }
}

/// Probability that a corrupted transfer aliases to a valid codeword of
/// a `crc_bits`-bit CRC and escapes detection.
///
/// A random error pattern aliases with probability `2^-crc_bits`. The
/// one error class a well-chosen CRC *never* misses is the single-bit
/// flip, so under the random-BER mode the aliasing chance is scaled by
/// the conditional probability that a corrupted frame carries two or
/// more flipped bits: with `p_single = bits · ber · (1−ber)^(bits−1)`,
/// `p_escape = ((p_frame − p_single) / p_frame) · 2^-crc_bits`. Burst
/// and stuck-lane defects always span many bits, so they alias at the
/// full `2^-crc_bits` rate. `crc_bits == 0` encodes the ideal
/// (never-aliasing) CRC of the original model and yields exactly 0.
pub fn escape_probability(cfg: &FaultConfig, bits_per_frame: u32) -> f64 {
    if cfg.crc_bits == 0 {
        return 0.0;
    }
    let alias = 0.5f64.powi(cfg.crc_bits as i32);
    match cfg.mode {
        FaultMode::Ber => {
            let bits = bits_per_frame as f64;
            let p_frame = 1.0 - (1.0 - cfg.ber).powi(bits_per_frame as i32);
            if p_frame <= 0.0 {
                return 0.0;
            }
            let p_single = bits * cfg.ber * (1.0 - cfg.ber).powi(bits_per_frame as i32 - 1);
            let p_multi = (p_frame - p_single).max(0.0);
            (p_multi / p_frame) * alias
        }
        FaultMode::Burst | FaultMode::StuckLane => alias,
    }
}

/// Fail-back probe schedule: after a lane degrades, the controller
/// waits `quiet` before the first re-probe and doubles the wait after
/// every failed probe, capped at `quiet · 2^6` (mirroring the retry
/// backoff cap). `attempt` is 0-based.
pub fn probe_delay(quiet: Dur, attempt: u32) -> Dur {
    quiet * (1u64 << attempt.min(MAX_BACKOFF_CAP))
}

/// Exponential backoff before replaying a corrupted frame: the
/// controller waits `2^attempt` frame slots (capped at [`MAX_BACKOFF_SLOTS`])
/// before retry `attempt` (0-based).
pub fn backoff_slots(attempt: u32) -> u64 {
    (1u64 << attempt.min(MAX_BACKOFF_CAP)).min(MAX_BACKOFF_SLOTS)
}

/// Cap on the backoff exponent (2^6 = 64 frame slots ≈ 384 ns at the
/// paper's 6 ns frame time).
const MAX_BACKOFF_CAP: u32 = 6;

/// Longest backoff in frame slots.
pub const MAX_BACKOFF_SLOTS: u64 = 64;

/// Running error/recovery counters of one link (or an aggregate of
/// several — see [`FaultCounters::merge`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transfers that arrived with at least one corrupted frame.
    pub injected: u64,
    /// Corrupted transfers the CRC check caught. Under the default
    /// ideal CRC (`crc_bits == 0`) this equals `injected`; with a
    /// finite CRC, `detected + escaped == injected`.
    pub detected: u64,
    /// Corrupted transfers that aliased past the CRC check (silent
    /// corruption; see [`SilentErrorReport`] for the line-level view).
    pub escaped: u64,
    /// Replay attempts issued (one transfer may retry several times).
    pub retried: u64,
    /// Transfers whose retry budget ran out (each escalates fail-over).
    pub retry_exhausted: u64,
    /// Lane fail-overs performed.
    pub failovers: u64,
    /// Corrupted northbound *prefetch* transfers dropped instead of
    /// retried (the AMB interplay rule: the line is simply not cached).
    pub dropped_prefetch: u64,
    /// Fail-back probe transfers sent on degraded lanes.
    pub probes: u64,
    /// Lanes restored to full width after a clean probe.
    pub failbacks: u64,
    /// Dropped prefetch lines the controller re-issued in idle slots.
    pub reissued: u64,
    /// Background patrol-scrub read sweeps performed.
    pub scrub_reads: u64,
    /// Scrub sweeps that found a poisoned line and rewrote it clean.
    pub scrub_rewrites: u64,
}

impl FaultCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.escaped += other.escaped;
        self.retried += other.retried;
        self.retry_exhausted += other.retry_exhausted;
        self.failovers += other.failovers;
        self.dropped_prefetch += other.dropped_prefetch;
        self.probes += other.probes;
        self.failbacks += other.failbacks;
        self.reissued += other.reissued;
        self.scrub_reads += other.scrub_reads;
        self.scrub_rewrites += other.scrub_rewrites;
    }

    /// True when any error was injected.
    pub fn any(&self) -> bool {
        self.injected > 0
    }
}

/// End-of-run silent-corruption summary: what the CRC escapes did to
/// memory contents, as tracked by the controller's poison set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SilentErrorReport {
    /// Lines still carrying undetected corruption at end of run
    /// (escaped in, never scrubbed or overwritten).
    pub poisoned_lines: u64,
    /// Demand reads that consumed silently corrupted data — the
    /// failures an application would actually observe.
    pub demand_consumed: u64,
    /// Poisoned lines a patrol scrub caught and rewrote clean before
    /// any demand read touched them.
    pub scrubbed_clean: u64,
}

impl SilentErrorReport {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SilentErrorReport) {
        self.poisoned_lines += other.poisoned_lines;
        self.demand_consumed += other.demand_consumed;
        self.scrubbed_clean += other.scrubbed_clean;
    }

    /// True when any silent-corruption activity was recorded.
    pub fn any(&self) -> bool {
        self.poisoned_lines > 0 || self.demand_consumed > 0 || self.scrubbed_clean > 0
    }
}

/// End-of-run fault summary: the aggregated counters plus how long the
/// run spent on degraded (half-width) lane maps, summed over link
/// directions — two directions degraded for the same second contribute
/// two seconds of residency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Aggregated error/recovery counters over every link.
    pub counters: FaultCounters,
    /// Summed degraded-width residency across link directions.
    pub degraded: Dur,
    /// Silent-corruption outcome (all-zero under the ideal CRC).
    pub silent: SilentErrorReport,
}

impl FaultReport {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &FaultReport) {
        self.counters.merge(&other.counters);
        self.degraded += other.degraded;
        self.silent.merge(&other.silent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultProcess {
        fn p_frame(&self) -> f64 {
            self.p_frame
        }

        fn p_escape(&self) -> f64 {
            self.p_escape
        }
    }

    fn cfg(ber: f64, mode: FaultMode) -> FaultConfig {
        FaultConfig {
            ber,
            seed: 42,
            mode,
            ..FaultConfig::off()
        }
    }

    #[test]
    fn same_stream_is_bit_identical() {
        let c = cfg(1e-4, FaultMode::Ber);
        let mut a = FaultProcess::new(&c, 0, LinkDir::North, 168);
        let mut b = FaultProcess::new(&c, 0, LinkDir::North, 168);
        let pa: Vec<bool> = (0..10_000).map(|_| a.corrupt_frame()).collect();
        let pb: Vec<bool> = (0..10_000).map(|_| b.corrupt_frame()).collect();
        assert_eq!(pa, pb);
        assert!(pa.iter().any(|&x| x), "1e-4 over 168-bit frames must hit");
    }

    #[test]
    fn streams_differ_by_channel_and_direction() {
        let c = cfg(1e-3, FaultMode::Ber);
        let take = |ch, dir| -> Vec<bool> {
            let mut p = FaultProcess::new(&c, ch, dir, 168);
            (0..4_000).map(|_| p.corrupt_frame()).collect()
        };
        let base = take(0, LinkDir::North);
        assert_ne!(base, take(1, LinkDir::North));
        assert_ne!(base, take(0, LinkDir::South));
    }

    #[test]
    fn extreme_rates_behave() {
        let mut never = FaultProcess::new(&cfg(0.0, FaultMode::Ber), 0, LinkDir::South, 120);
        assert!((0..1_000).all(|_| !never.corrupt_frame()));
        assert_eq!(never.p_frame(), 0.0);
        let mut always = FaultProcess::new(&cfg(1.0, FaultMode::Ber), 0, LinkDir::South, 120);
        assert!((0..100).all(|_| always.corrupt_frame()));
    }

    #[test]
    fn frame_probability_grows_with_width() {
        let c = cfg(1e-5, FaultMode::Ber);
        let narrow = FaultProcess::new(&c, 0, LinkDir::South, 120);
        let wide = FaultProcess::new(&c, 0, LinkDir::North, 336);
        assert!(wide.p_frame() > narrow.p_frame());
        // First-order check: p ≈ bits · ber at small rates.
        assert!((narrow.p_frame() - 120.0 * 1e-5).abs() < 1e-6);
    }

    #[test]
    fn burst_corrupts_a_run_of_frames() {
        assert_eq!(BURST_FRAMES, 4);
        let mut p = FaultProcess::new(&cfg(0.02, FaultMode::Burst), 0, LinkDir::North, 168);
        let pattern: Vec<bool> = (0..50_000).map(|_| p.corrupt_frame()).collect();
        let first = pattern.iter().position(|&x| x).expect("some trigger");
        // The trigger plus the next three frames form the burst.
        assert!(pattern[first..first + 4].iter().all(|&x| x));
    }

    #[test]
    fn stuck_lane_latches_forever() {
        let mut p = FaultProcess::new(&cfg(0.05, FaultMode::StuckLane), 0, LinkDir::South, 120);
        let mut seen = false;
        for _ in 0..100_000 {
            let hit = p.corrupt_frame();
            if seen {
                assert!(hit, "stuck lane must stay corrupt");
            }
            seen |= hit;
        }
        assert!(seen && p.is_stuck());
    }

    #[test]
    fn transfer_draw_count_is_outcome_independent() {
        // All frames draw even after an early corruption, keeping the
        // stream aligned for later transfers.
        let c = cfg(1e-3, FaultMode::Ber);
        let mut p = FaultProcess::new(&c, 0, LinkDir::North, 168);
        let mut q = FaultProcess::new(&c, 0, LinkDir::North, 168);
        let mut corrupted = 0;
        for _ in 0..1_000 {
            let one_by_one = (0..12).fold(false, |any, _| q.corrupt_frame() | any);
            let hit = p.corrupt_transfer(12);
            assert_eq!(hit, one_by_one);
            corrupted += u32::from(hit);
        }
        assert!(corrupted > 0 && corrupted < 1_000, "{corrupted}");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_slots(0), 1);
        assert_eq!(backoff_slots(1), 2);
        assert_eq!(backoff_slots(2), 4);
        assert_eq!(backoff_slots(6), MAX_BACKOFF_SLOTS);
        assert_eq!(backoff_slots(40), MAX_BACKOFF_SLOTS);
    }

    #[test]
    fn counters_and_reports_merge() {
        let a = FaultCounters {
            injected: 3,
            detected: 2,
            escaped: 1,
            retried: 5,
            retry_exhausted: 1,
            failovers: 1,
            dropped_prefetch: 2,
            probes: 4,
            failbacks: 1,
            reissued: 2,
            scrub_reads: 9,
            scrub_rewrites: 1,
        };
        let silent = SilentErrorReport {
            poisoned_lines: 1,
            demand_consumed: 2,
            scrubbed_clean: 3,
        };
        let mut total = FaultReport {
            counters: a,
            degraded: Dur::from_ns(10),
            silent,
        };
        total.merge(&FaultReport {
            counters: a,
            degraded: Dur::from_ns(5),
            silent,
        });
        assert_eq!(total.counters.injected, 6);
        assert_eq!(total.counters.escaped, 2);
        assert_eq!(total.counters.retried, 10);
        assert_eq!(total.counters.probes, 8);
        assert_eq!(total.counters.failbacks, 2);
        assert_eq!(total.counters.reissued, 4);
        assert_eq!(total.counters.scrub_reads, 18);
        assert_eq!(total.counters.scrub_rewrites, 2);
        assert_eq!(total.degraded, Dur::from_ns(15));
        assert_eq!(total.silent.poisoned_lines, 2);
        assert_eq!(total.silent.demand_consumed, 4);
        assert_eq!(total.silent.scrubbed_clean, 6);
        assert!(total.counters.any());
        assert!(total.silent.any());
        assert!(!FaultCounters::default().any());
        assert!(!SilentErrorReport::default().any());
    }

    #[test]
    fn ideal_crc_never_escapes_and_draws_nothing() {
        let mut p = FaultProcess::new(&cfg(1.0, FaultMode::Ber), 0, LinkDir::North, 168);
        assert_eq!(p.p_escape(), 0.0);
        // The escape decision must not advance the rng stream: the
        // corruption pattern with interleaved escapes() calls must
        // match the pattern without them (the parity contract).
        let mut q = p.clone();
        let with: Vec<bool> = (0..64)
            .map(|_| {
                let hit = p.corrupt_frame();
                if hit {
                    assert!(!p.escapes());
                }
                hit
            })
            .collect();
        let without: Vec<bool> = (0..64).map(|_| q.corrupt_frame()).collect();
        assert_eq!(with, without);
    }

    #[test]
    fn finite_crc_escapes_at_the_aliasing_rate() {
        let mut c = cfg(0.05, FaultMode::Burst);
        c.crc_bits = 1; // aliases half the time — easy to observe
        let mut p = FaultProcess::new(&c, 0, LinkDir::North, 168);
        assert_eq!(p.p_escape(), 0.5);
        let escapes = (0..10_000).filter(|_| p.escapes()).count();
        assert!(
            (4_000..6_000).contains(&escapes),
            "p=0.5 over 10k draws: got {escapes}"
        );
    }

    #[test]
    fn ber_escape_probability_excludes_single_bit_flips() {
        let mut c = cfg(1e-5, FaultMode::Ber);
        c.crc_bits = 8;
        // At tiny BER almost every corrupted frame is a single flip,
        // which the CRC always catches: escape ≪ the 2^-8 aliasing.
        let p = escape_probability(&c, 168);
        assert!(p > 0.0 && p < 0.5f64.powi(8) * 0.01, "p_escape = {p}");
        // At BER 0.5 multi-bit patterns dominate: escape ≈ 2^-8.
        c.ber = 0.5;
        let p = escape_probability(&c, 168);
        assert!((p - 0.5f64.powi(8)).abs() < 1e-4, "p_escape = {p}");
        // Degenerate: zero BER corrupts nothing, so nothing escapes.
        c.ber = 0.0;
        assert_eq!(escape_probability(&c, 168), 0.0);
    }

    #[test]
    fn probe_delay_doubles_then_caps() {
        let quiet = Dur::from_ns(1_000);
        assert_eq!(probe_delay(quiet, 0), quiet);
        assert_eq!(probe_delay(quiet, 1), Dur::from_ns(2_000));
        assert_eq!(probe_delay(quiet, 3), Dur::from_ns(8_000));
        assert_eq!(probe_delay(quiet, 6), Dur::from_ns(64_000));
        assert_eq!(probe_delay(quiet, 40), Dur::from_ns(64_000));
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Backoff is bounded by the cap, monotone non-decreasing in
        /// the attempt number, and starts at one slot.
        #[test]
        fn backoff_is_bounded_and_monotone(attempt in 0u32..1_000) {
            let slots = backoff_slots(attempt);
            prop_assert!(slots >= 1);
            prop_assert!(slots <= MAX_BACKOFF_SLOTS);
            prop_assert!(slots <= backoff_slots(attempt + 1));
        }

        /// The probe schedule is bounded (quiet · 64), monotone
        /// non-decreasing, and never shorter than the quiet period.
        #[test]
        fn probe_schedule_is_bounded_and_monotone(
            quiet_ns in 1u64..1_000_000,
            attempt in 0u32..1_000,
        ) {
            let quiet = Dur::from_ns(quiet_ns);
            let d = probe_delay(quiet, attempt);
            prop_assert!(d >= quiet);
            prop_assert!(d <= quiet * MAX_BACKOFF_SLOTS);
            prop_assert!(d <= probe_delay(quiet, attempt + 1));
        }

        /// The corruption stream is a pure function of (seed, channel,
        /// direction): re-building the process replays it exactly.
        #[test]
        fn stream_is_deterministic_from_seed(
            seed in any::<u64>(),
            channel in 0u32..8,
            ber in 1e-7f64..1e-2,
        ) {
            let c = FaultConfig { ber, seed, ..FaultConfig::off() };
            let mut a = FaultProcess::new(&c, channel, LinkDir::North, 168);
            let mut b = FaultProcess::new(&c, channel, LinkDir::North, 168);
            let pa: Vec<bool> = (0..512).map(|_| a.corrupt_frame()).collect();
            let pb: Vec<bool> = (0..512).map(|_| b.corrupt_frame()).collect();
            prop_assert_eq!(pa, pb);
        }

        /// Escape probabilities are valid probabilities under any
        /// configuration, and exactly zero for the ideal CRC.
        #[test]
        fn escape_probability_is_a_probability(
            ber in 0.0f64..=1.0,
            crc_bits in 0u32..=64,
            bits in 1u32..512,
        ) {
            for mode in [FaultMode::Ber, FaultMode::Burst, FaultMode::StuckLane] {
                let c = FaultConfig { ber, crc_bits, mode, ..FaultConfig::off() };
                let p = escape_probability(&c, bits);
                prop_assert!((0.0..=1.0).contains(&p), "p_escape = {}", p);
                if crc_bits == 0 {
                    prop_assert_eq!(p, 0.0);
                }
            }
        }
    }

    /// Golden vectors for the SplitMix64 core: the first outputs of the
    /// reference implementation (seed 0 and seed 42) plus the absorbed
    /// per-link stream head. Pinning exact u64s catches any platform or
    /// refactor drift in the generator — every determinism contract in
    /// the fault layer sits on these numbers.
    #[test]
    fn splitmix64_matches_reference_vectors() {
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
        let mut g = SplitMix64::new(42);
        assert_eq!(g.next_u64(), 0xBDD7_3226_2FEB_6E95);
        // The absorbed stream (seed 42, channel 0, north) is equally
        // pinned: FaultProcess draws must never silently shift.
        let c = FaultConfig {
            ber: 0.5,
            seed: 42,
            ..FaultConfig::off()
        };
        let mut p = FaultProcess::new(&c, 0, LinkDir::North, 168);
        let head: Vec<bool> = (0..8).map(|_| p.corrupt_frame()).collect();
        let again: Vec<bool> = {
            let mut q = FaultProcess::new(&c, 0, LinkDir::North, 168);
            (0..8).map(|_| q.corrupt_frame()).collect()
        };
        assert_eq!(head, again);
    }
}
