//! System configuration: the contents of the paper's Table 1 (pipeline and
//! memory subsystem) and Table 2 (DRAM timing parameters), plus the AMB
//! prefetching knobs varied in the sensitivity studies (Figures 8, 11, 13).
//!
//! The paper's default setting is available via
//! [`SystemConfig::paper_default`]; every experiment of the evaluation
//! section is a small perturbation of it.

use crate::error::ConfigError;
use crate::time::{DataRate, Dur};

/// DRAM timing parameters (Table 2 of the paper, DDR2 at 667 MT/s).
///
/// All values are absolute durations; the simulator quantizes command
/// issue to DRAM clock edges, so with the paper's parameters (integer
/// multiples of 3 ns at 667 MT/s) no rounding occurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramTimings {
    /// PRE to ACT to the same bank.
    pub t_rp: Dur,
    /// ACT command to RD command to the same bank.
    pub t_rcd: Dur,
    /// RD command to first read data beat (CAS latency).
    pub t_cl: Dur,
    /// ACT command to ACT command to the same bank.
    pub t_rc: Dur,
    /// ACT to ACT (or PRE to PRE) to *different* banks.
    pub t_rrd: Dur,
    /// RD command to PRE command to the same bank.
    pub t_rpd: Dur,
    /// End of write data to RD command (write-to-read turnaround).
    pub t_wtr: Dur,
    /// ACT command to PRE command (row-access minimum) for reads.
    pub t_ras: Dur,
    /// WR command to first write data beat (write latency).
    pub t_wl: Dur,
    /// WR command to PRE command to the same bank.
    pub t_wpd: Dur,
    /// Four-activate window: at most four ACTs to one rank within this
    /// span (zero disables; Table 2 omits it, so the paper's preset
    /// enables the JEDEC DDR2 value).
    pub t_faw: Dur,
}

impl DramTimings {
    /// The paper's Table 2 values.
    pub const fn ddr2_table2() -> DramTimings {
        DramTimings {
            t_rp: Dur::from_ns(15),
            t_rcd: Dur::from_ns(15),
            t_cl: Dur::from_ns(15),
            t_rc: Dur::from_ns(54),
            t_rrd: Dur::from_ns(9),
            t_rpd: Dur::from_ns(9),
            t_wtr: Dur::from_ns(9),
            t_ras: Dur::from_ns(39),
            t_wl: Dur::from_ns(12),
            t_wpd: Dur::from_ns(36),
            t_faw: Dur::from_ps(37_500),
        }
    }

    /// Representative DDR3-1333 timings (CL9 parts, 1.5 ns clock): the
    /// paper's footnote 1 anticipates FB-DIMM carrying DDR3, so the
    /// simulator provides the substrate as an extension.
    pub const fn ddr3_1333() -> DramTimings {
        DramTimings {
            t_rp: Dur::from_ps(13_500),
            t_rcd: Dur::from_ps(13_500),
            t_cl: Dur::from_ps(13_500),
            t_rc: Dur::from_ps(49_500),
            t_rrd: Dur::from_ps(6_000),
            t_rpd: Dur::from_ps(7_500),
            t_wtr: Dur::from_ps(7_500),
            t_ras: Dur::from_ps(36_000),
            t_wl: Dur::from_ps(12_000),
            t_wpd: Dur::from_ps(31_500),
            t_faw: Dur::from_ps(30_000),
        }
    }

    /// Checks internal consistency of the timing set.
    ///
    /// # Errors
    ///
    /// Returns an error if any timing is zero, or if derived constraints
    /// are inconsistent (`tRC < tRAS + tRP`, `tRAS < tRCD`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fields: [(&'static str, Dur); 10] = [
            ("t_rp", self.t_rp),
            ("t_rcd", self.t_rcd),
            ("t_cl", self.t_cl),
            ("t_rc", self.t_rc),
            ("t_rrd", self.t_rrd),
            ("t_rpd", self.t_rpd),
            ("t_wtr", self.t_wtr),
            ("t_ras", self.t_ras),
            ("t_wl", self.t_wl),
            ("t_wpd", self.t_wpd),
        ];
        for (name, value) in fields {
            if value.is_zero() {
                return Err(ConfigError::new(name, "must be non-zero"));
            }
        }
        // t_faw may be zero (disabled) but must exceed tRRD when set.
        if !self.t_faw.is_zero() && self.t_faw < self.t_rrd {
            return Err(ConfigError::new(
                "t_faw",
                "must be at least t_rrd when enabled",
            ));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(ConfigError::new("t_rc", "must be at least t_ras + t_rp"));
        }
        if self.t_ras < self.t_rcd {
            return Err(ConfigError::new("t_ras", "must be at least t_rcd"));
        }
        if self.t_cl > self.t_rc {
            return Err(ConfigError::new("t_cl", "must not exceed t_rc"));
        }
        if self.t_rc < self.t_rcd + self.t_cl {
            return Err(ConfigError::new(
                "t_rc",
                "must be at least t_rcd + t_cl (the read pipeline must fit \
                 in one row cycle)",
            ));
        }
        Ok(())
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        DramTimings::ddr2_table2()
    }
}

/// Row-buffer management policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Auto-precharge after every column access (the paper's default;
    /// required by cacheline and multi-cacheline interleaving).
    #[default]
    ClosePage,
    /// Leave the row open after access (used with page interleaving).
    OpenPage,
}

/// How the physical address space is laid out across channels, DIMMs and
/// banks (paper §3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Interleaving {
    /// Consecutive cachelines round-robin over {channel, DIMM, bank}.
    #[default]
    Cacheline,
    /// Groups of `lines` consecutive cachelines stay in one DRAM row;
    /// groups round-robin over {channel, DIMM, bank}. Required by AMB
    /// prefetching so a region is one row's worth of column accesses.
    MultiCacheline {
        /// Group size in cachelines (the paper's K, 2–8).
        lines: u32,
    },
    /// Whole DRAM pages round-robin over {channel, DIMM, bank}.
    Page,
}

impl Interleaving {
    /// The contiguity granularity in cachelines: how many consecutive
    /// lines map to the same DRAM row before moving to the next bank.
    pub fn group_lines(self, lines_per_page: u32) -> u32 {
        match self {
            Interleaving::Cacheline => 1,
            Interleaving::MultiCacheline { lines } => lines,
            Interleaving::Page => lines_per_page,
        }
    }
}

/// Associativity of the AMB prefetch buffer's tag structure (held at the
/// memory controller; paper §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// Direct-mapped.
    Direct,
    /// N-way set associative.
    Ways(u32),
    /// Fully associative (the paper's default).
    Full,
}

impl Associativity {
    /// Number of ways given a total entry count.
    pub fn ways(self, entries: u32) -> u32 {
        match self {
            Associativity::Direct => 1,
            Associativity::Ways(n) => n,
            Associativity::Full => entries,
        }
    }
}

/// Replacement policy of the AMB cache.
///
/// The paper uses FIFO: "LRU is not suitable for AMB cache because a hit
/// block may be cached in the processor and will not be accessed soon."
/// LRU is provided for the ablation study.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// First-in first-out (the paper's choice).
    #[default]
    Fifo,
    /// Least-recently-used (ablation only).
    Lru,
}

/// Operating mode of the AMB prefetcher.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AmbPrefetchMode {
    /// No prefetching: plain FB-DIMM (the paper's "FBD").
    #[default]
    Off,
    /// Region-based AMB prefetching (the paper's "FBD-AP").
    Normal,
    /// AMB Prefetching with Full Latency: hits skip the DRAM bank work
    /// but are charged the full miss idle latency. Isolates the
    /// bandwidth-utilization gain (the paper's "FBD-APFL", Figure 9).
    FullLatency,
}

/// Configuration of the region-based AMB prefetcher (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmbPrefetchConfig {
    /// Operating mode.
    pub mode: AmbPrefetchMode,
    /// Region size K in cachelines (2–8 in the paper's experiments).
    pub region_lines: u32,
    /// AMB cache capacity per AMB, in 64-byte blocks (default 64 = 4 KB).
    pub cache_lines: u32,
    /// Tag-structure associativity.
    pub associativity: Associativity,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl AmbPrefetchConfig {
    /// Prefetching disabled (plain FB-DIMM).
    pub const fn off() -> AmbPrefetchConfig {
        AmbPrefetchConfig {
            mode: AmbPrefetchMode::Off,
            region_lines: 4,
            cache_lines: 64,
            associativity: Associativity::Full,
            replacement: Replacement::Fifo,
        }
    }

    /// The paper's default: K=4, 64 blocks (4 KB), fully associative,
    /// FIFO replacement.
    pub const fn paper_default() -> AmbPrefetchConfig {
        AmbPrefetchConfig {
            mode: AmbPrefetchMode::Normal,
            region_lines: 4,
            cache_lines: 64,
            associativity: Associativity::Full,
            replacement: Replacement::Fifo,
        }
    }

    /// True when any prefetching variant is active.
    pub const fn is_enabled(&self) -> bool {
        !matches!(self.mode, AmbPrefetchMode::Off)
    }

    /// Checks the prefetcher parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the region size or cache size is zero or not a
    /// power of two, if the cache cannot hold one region, or if the
    /// associativity does not divide the entry count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.region_lines.is_power_of_two() {
            return Err(ConfigError::new("region_lines", "must be a power of two"));
        }
        if !self.cache_lines.is_power_of_two() {
            return Err(ConfigError::new("cache_lines", "must be a power of two"));
        }
        if self.is_enabled() && self.cache_lines < self.region_lines {
            return Err(ConfigError::new(
                "cache_lines",
                "AMB cache must hold at least one region",
            ));
        }
        let ways = self.associativity.ways(self.cache_lines);
        if ways == 0 || ways > self.cache_lines || !self.cache_lines.is_multiple_of(ways) {
            return Err(ConfigError::new(
                "associativity",
                format!("{ways} ways must divide {} entries", self.cache_lines),
            ));
        }
        Ok(())
    }
}

impl Default for AmbPrefetchConfig {
    fn default() -> Self {
        AmbPrefetchConfig::off()
    }
}

/// DRAM refresh parameters.
///
/// The paper (like most academic studies of its era) ignores refresh;
/// a production memory controller cannot. When enabled, every DIMM
/// receives an all-bank auto-refresh every `t_refi` on average, during
/// which its banks are unavailable for `t_rfc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Master switch (off to match the paper).
    pub enabled: bool,
    /// Average refresh interval (DDR2: 7.8 µs).
    pub t_refi: Dur,
    /// Refresh cycle time — banks blocked this long (DDR2 1 Gb: 127.5 ns,
    /// rounded to a clock multiple here).
    pub t_rfc: Dur,
}

impl RefreshConfig {
    /// Refresh disabled (the paper's setting).
    pub const fn off() -> RefreshConfig {
        RefreshConfig {
            enabled: false,
            t_refi: Dur::from_ns(7_800),
            t_rfc: Dur::from_ns(128),
        }
    }

    /// JEDEC DDR2 values for 1 Gb devices.
    pub const fn ddr2_1gb() -> RefreshConfig {
        RefreshConfig {
            enabled: true,
            t_refi: Dur::from_ns(7_800),
            t_rfc: Dur::from_ns(128),
        }
    }

    /// Checks the refresh parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if enabled with a zero interval, or if the
    /// refresh cycle does not fit in the interval.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.enabled {
            if self.t_refi.is_zero() {
                return Err(ConfigError::new("refresh.t_refi", "must be non-zero"));
            }
            if self.t_rfc.is_zero() || self.t_rfc >= self.t_refi {
                return Err(ConfigError::new(
                    "refresh.t_rfc",
                    "must be non-zero and shorter than t_refi",
                ));
            }
        }
        Ok(())
    }
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig::off()
    }
}

/// Shape of the injected bit-error process on the FB-DIMM links.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// Independent per-frame corruption at the configured bit-error
    /// rate (the memoryless baseline model).
    #[default]
    Ber,
    /// Correlated errors: each triggered corruption also corrupts the
    /// next few frames on the same link direction (electrical transients
    /// spanning several frame times).
    Burst,
    /// A persistent lane defect: the first triggered corruption leaves
    /// the link direction corrupting *every* frame until the controller
    /// escalates to lane fail-over.
    StuckLane,
}

impl FaultMode {
    /// Resolves a fault mode by its stable CLI name: `ber`, `burst` or
    /// `stuck-lane`. Returns `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<FaultMode> {
        match name {
            "ber" => Some(FaultMode::Ber),
            "burst" => Some(FaultMode::Burst),
            "stuck-lane" => Some(FaultMode::StuckLane),
            _ => None,
        }
    }
}

/// Patrol-scrubbing policy selector: the memory system builds an
/// `fbd_ctrl::PatrolScrub` for [`Patrol`](Self::Patrol) and nothing for
/// [`None`](Self::None).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScrubPolicyKind {
    /// No background scrubbing (the default; zero-cost off path).
    #[default]
    None,
    /// Rate-limited patrol sweeps over the observed line footprint:
    /// background read-verify passes in idle scheduler slots, with a
    /// rewrite when the verify finds a latent corrupted line.
    Patrol,
}

impl ScrubPolicyKind {
    /// Every policy, in the order CLI listings name them.
    pub const ALL: [ScrubPolicyKind; 2] = [ScrubPolicyKind::None, ScrubPolicyKind::Patrol];

    /// Resolves a scrub policy by its stable CLI name: `none` or
    /// `patrol`. Returns `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<ScrubPolicyKind> {
        ScrubPolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The stable CLI name of this policy.
    pub const fn name(self) -> &'static str {
        match self {
            ScrubPolicyKind::None => "none",
            ScrubPolicyKind::Patrol => "patrol",
        }
    }
}

/// Fault-injection configuration for the FB-DIMM channel links.
///
/// When active (`ber > 0`), every southbound/northbound frame is
/// subjected to a deterministic seeded bit-error process; the
/// controller detects corrupted frames via the frame CRC and recovers
/// by bounded replay with exponential backoff, escalating to per-lane
/// fail-over (degraded frame width) when retries are exhausted.
/// Ignored by the DDR2 baseline, which has no frame CRC.
///
/// The recovery-side knobs close the lifecycle loop: `crc_bits`
/// models imperfect detection (silent corruption), `scrub` converts
/// latent corrupted lines back to clean, `failback_quiet_ns` lets a
/// degraded lane probe its way back to full width, and
/// `reissue_budget` re-fetches prefetch lines whose northbound
/// returns were dropped. All four default off, so the default config
/// is byte-identical to the pre-recovery model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Raw bit-error rate per transferred bit (0 disables injection;
    /// real FB-DIMM channels target < 1e-12, interesting simulation
    /// regimes are 1e-8 .. 1e-4).
    pub ber: f64,
    /// Seed of the deterministic error process. Streams are derived per
    /// (seed, channel, link direction), so runs are bit-reproducible
    /// regardless of sweep ordering.
    pub seed: u64,
    /// Shape of the error process.
    pub mode: FaultMode,
    /// Effective CRC strength in check bits: a corrupted frame escapes
    /// detection with probability ~2^-crc_bits (scaled by the
    /// multi-bit-error fraction in [`FaultMode::Ber`] mode, since a
    /// single-bit error never aliases a CRC). 0 models the ideal CRC
    /// of the original fault model: every corruption is detected.
    pub crc_bits: u32,
    /// Background patrol-scrub policy ([`ScrubPolicyKind::None`] off).
    pub scrub: ScrubPolicyKind,
    /// Minimum gap between two scrub reads on one channel, in ns
    /// (the patrol rate limit).
    pub scrub_interval_ns: u64,
    /// Quiet period before a failed-over lane direction is first
    /// re-probed, in ns; later probes back off exponentially
    /// (`fbd-faults`' bounded probe schedule). 0 disables fail-back:
    /// a degraded lane stays degraded for the rest of the run.
    pub failback_quiet_ns: u64,
    /// Dropped prefetch returns the controller remembers per channel
    /// and re-issues in idle scheduler slots. 0 disables re-issue.
    pub reissue_budget: u32,
}

impl FaultConfig {
    /// Injection disabled (the default; matches the paper's perfect
    /// channel).
    pub const fn off() -> FaultConfig {
        FaultConfig {
            ber: 0.0,
            seed: 1,
            mode: FaultMode::Ber,
            crc_bits: 0,
            scrub: ScrubPolicyKind::None,
            scrub_interval_ns: 600,
            failback_quiet_ns: 0,
            reissue_budget: 0,
        }
    }

    /// True when the error process is live (non-zero BER).
    pub fn is_active(&self) -> bool {
        self.ber > 0.0
    }

    /// True when any recovery-side policy needs controller state even
    /// if the error process itself is off (patrol scrubbing costs
    /// bandwidth on a clean channel too).
    pub fn recovery_active(&self) -> bool {
        self.scrub != ScrubPolicyKind::None
            || (self.is_active() && (self.reissue_budget > 0 || self.crc_bits > 0))
    }

    /// Checks the fault parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the BER is not a probability, or if the
    /// CRC strength, scrub interval or fail-back quiet period is out of
    /// range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.ber.is_finite() || !(0.0..=1.0).contains(&self.ber) {
            return Err(ConfigError::new(
                "faults.ber",
                "must be a probability in [0, 1]",
            ));
        }
        if self.crc_bits > 64 {
            return Err(ConfigError::new("faults.crc_bits", "must be at most 64"));
        }
        if self.scrub != ScrubPolicyKind::None && self.scrub_interval_ns == 0 {
            return Err(ConfigError::new(
                "faults.scrub_interval_ns",
                "must be non-zero when scrubbing is active",
            ));
        }
        if Dur::checked_from_ns(self.scrub_interval_ns).is_none() {
            return Err(ConfigError::new(
                "faults.scrub_interval_ns",
                "must fit in 64-bit picoseconds",
            ));
        }
        // Fail-back probes back off to 64 quiet periods
        // (`fbd_faults::probe_delay`) and are scheduled at `now + delay`,
        // so the quiet period keeps twice that much headroom.
        if Dur::checked_from_ns(self.failback_quiet_ns)
            .and_then(|quiet| quiet.checked_mul(128))
            .is_none()
        {
            return Err(ConfigError::new(
                "faults.failback_quiet_ns",
                "must fit in 64-bit picoseconds after the 64x probe back-off",
            ));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// Which memory technology the channel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoryTech {
    /// Conventional DDR2 channel: shared command bus and shared
    /// bidirectional data bus (the paper's baseline).
    Ddr2,
    /// Fully-Buffered DIMM: southbound/northbound links, AMB per DIMM.
    FbDimm {
        /// Variable Read Latency: when true, a DIMM's link latency
        /// depends on its daisy-chain position; when false, every DIMM is
        /// charged the latency of the farthest one (the paper's default).
        vrl: bool,
    },
}

impl MemoryTech {
    /// FB-DIMM without variable read latency (the paper's default).
    pub const FBDIMM: MemoryTech = MemoryTech::FbDimm { vrl: false };

    /// True for the FB-DIMM variants.
    pub const fn is_fbdimm(self) -> bool {
        matches!(self, MemoryTech::FbDimm { .. })
    }
}

impl Default for MemoryTech {
    fn default() -> Self {
        MemoryTech::FBDIMM
    }
}

/// Memory subsystem configuration (Table 1, memory rows).
///
/// Geometry note: the paper gangs two *physical* channels into one
/// *logical* channel — a 64-byte line is split 32 B + 32 B across the
/// pair, which transfer in lockstep. The simulator models logical
/// channels whose per-line transfer time is that of half a line on one
/// physical channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryConfig {
    /// Channel technology (DDR2 baseline or FB-DIMM).
    pub tech: MemoryTech,
    /// Per-physical-channel data rate.
    pub data_rate: DataRate,
    /// Number of logical channels (paper default: 2).
    pub logical_channels: u32,
    /// Physical channels ganged per logical channel (paper default: 2).
    pub phys_per_logical: u32,
    /// DIMMs per physical channel (paper default: 4).
    pub dimms_per_channel: u32,
    /// Ranks per DIMM (paper's Figure 2 example uses one; multi-rank
    /// DIMMs add bank-level parallelism behind one AMB).
    pub ranks_per_dimm: u32,
    /// Logical DRAM banks per rank (paper default: 4 per DIMM).
    pub banks_per_dimm: u32,
    /// Rows per bank (sets the simulated capacity).
    pub rows_per_bank: u32,
    /// Logical DRAM page (row) size in bytes: chip page size times chips
    /// per rank. 8 KB here, i.e. 128 cachelines per row.
    pub page_bytes: u32,
    /// DRAM timing parameters (Table 2).
    pub timings: DramTimings,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Address interleaving scheme.
    pub interleaving: Interleaving,
    /// Permutation-based bank indexing (XOR the bank index with low row
    /// bits), after Zhang, Zhu and Zhang (the paper's reference 26) —
    /// spreads row-conflict
    /// hotspots across banks under open-page policies. Off in every
    /// paper experiment.
    pub xor_permutation: bool,
    /// AMB prefetcher configuration (FB-DIMM only).
    pub amb: AmbPrefetchConfig,
    /// Transaction queue capacity (Table 1: memory buffer, 64 entries).
    pub queue_capacity: u32,
    /// DRAM refresh (off to match the paper).
    pub refresh: RefreshConfig,
    /// Link fault injection (off by default; FB-DIMM only).
    pub faults: FaultConfig,
}

impl MemoryConfig {
    /// The paper's default FB-DIMM memory subsystem: 2 logical channels
    /// (4 physical at 667 MT/s, ganged in pairs), 4 DIMMs per channel,
    /// 4 banks per DIMM, close page, cacheline interleaving, prefetching
    /// off.
    pub fn fbdimm_default() -> MemoryConfig {
        MemoryConfig {
            tech: MemoryTech::FBDIMM,
            data_rate: DataRate::MTS667,
            logical_channels: 2,
            phys_per_logical: 2,
            dimms_per_channel: 4,
            ranks_per_dimm: 1,
            banks_per_dimm: 4,
            rows_per_bank: 16_384,
            page_bytes: 8_192,
            timings: DramTimings::ddr2_table2(),
            page_policy: PagePolicy::ClosePage,
            interleaving: Interleaving::Cacheline,
            xor_permutation: false,
            amb: AmbPrefetchConfig::off(),
            queue_capacity: 64,
            refresh: RefreshConfig::off(),
            faults: FaultConfig::off(),
        }
    }

    /// The paper's DDR2 baseline: identical geometry, conventional
    /// shared-bus channels (no AMBs).
    pub fn ddr2_default() -> MemoryConfig {
        MemoryConfig {
            tech: MemoryTech::Ddr2,
            ..MemoryConfig::fbdimm_default()
        }
    }

    /// FB-DIMM with the paper's default AMB prefetcher (K=4, 4 KB, fully
    /// associative, FIFO) and the matching 4-cacheline interleaving.
    pub fn fbdimm_with_prefetch() -> MemoryConfig {
        let mut cfg = MemoryConfig::fbdimm_default();
        cfg.amb = AmbPrefetchConfig::paper_default();
        cfg.interleaving = Interleaving::MultiCacheline { lines: 4 };
        cfg
    }

    /// FB-DIMM carrying DDR3-1333 devices (extension; the paper's
    /// footnote 1 anticipates this generation).
    pub fn fbdimm_ddr3() -> MemoryConfig {
        MemoryConfig {
            data_rate: crate::time::DataRate::MTS1333,
            timings: DramTimings::ddr3_1333(),
            ..MemoryConfig::fbdimm_default()
        }
    }

    /// Cachelines per DRAM row.
    pub fn lines_per_page(&self) -> u32 {
        self.page_bytes / crate::address::CACHE_LINE_BYTES as u32
    }

    /// Peak read bandwidth in GB/s: per-physical-channel DDR2 bandwidth
    /// times physical channel count (the FB-DIMM northbound link is
    /// provisioned to match one DDR2 channel).
    pub fn peak_read_bandwidth_gbps(&self) -> f64 {
        self.data_rate.channel_bandwidth_gbps()
            * f64::from(self.logical_channels * self.phys_per_logical)
    }

    /// Peak total bandwidth in GB/s. For FB-DIMM the southbound write
    /// path adds half a channel's bandwidth on top of the read path
    /// (paper §2); DDR2 shares one bus for reads and writes.
    pub fn peak_total_bandwidth_gbps(&self) -> f64 {
        match self.tech {
            MemoryTech::Ddr2 => self.peak_read_bandwidth_gbps(),
            MemoryTech::FbDimm { .. } => self.peak_read_bandwidth_gbps() * 1.5,
        }
    }

    /// Checks geometry, timing and prefetcher parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: power-of-two geometry
    /// fields, non-zero capacities, prefetcher consistency (the region
    /// size must match multi-cacheline interleaving when prefetching is
    /// on), and page-policy/interleaving pairing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.timings.validate()?;
        self.amb.validate()?;
        self.refresh.validate()?;
        self.faults.validate()?;
        let pow2_fields = [
            ("logical_channels", self.logical_channels),
            ("phys_per_logical", self.phys_per_logical),
            ("ranks_per_dimm", self.ranks_per_dimm),
            ("banks_per_dimm", self.banks_per_dimm),
            ("rows_per_bank", self.rows_per_bank),
            ("page_bytes", self.page_bytes),
        ];
        for (name, value) in pow2_fields {
            if !value.is_power_of_two() {
                return Err(ConfigError::new(name, "must be a power of two"));
            }
        }
        // DIMM counts need not be a power of two: the address mapper
        // round-robins groups by modular arithmetic, not bit slicing,
        // so 3- or 6-DIMM channels decode exactly (the bank-permutation
        // XOR touches only the bank index, which stays a power of two).
        if self.dimms_per_channel == 0 {
            return Err(ConfigError::new("dimms_per_channel", "must be non-zero"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must be non-zero"));
        }
        if self.lines_per_page() == 0 {
            return Err(ConfigError::new(
                "page_bytes",
                "must hold at least one line",
            ));
        }
        if let Interleaving::MultiCacheline { lines } = self.interleaving {
            if !lines.is_power_of_two() {
                return Err(ConfigError::new(
                    "interleaving",
                    "multi-cacheline group must be a power of two",
                ));
            }
            if lines > self.lines_per_page() {
                return Err(ConfigError::new(
                    "interleaving",
                    "multi-cacheline group cannot exceed a DRAM page",
                ));
            }
        }
        if self.amb.is_enabled() {
            if !self.tech.is_fbdimm() {
                return Err(ConfigError::new(
                    "amb",
                    "AMB prefetching requires FB-DIMM channels",
                ));
            }
            match self.interleaving {
                Interleaving::MultiCacheline { lines } if lines == self.amb.region_lines => {}
                Interleaving::Page => {}
                _ => {
                    return Err(ConfigError::new(
                        "interleaving",
                        "AMB prefetching requires multi-cacheline interleaving with \
                         group size equal to the prefetch region, or page interleaving",
                    ));
                }
            }
        }
        match (self.page_policy, self.interleaving) {
            (PagePolicy::OpenPage, Interleaving::Cacheline)
            | (PagePolicy::OpenPage, Interleaving::MultiCacheline { .. }) => {
                return Err(ConfigError::new(
                    "page_policy",
                    "open page mode should be used with page interleaving (paper §3.2)",
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::fbdimm_default()
    }
}

/// Shared L2 associativity (Table 1: 4-way).
pub const L2_WAYS: u32 = 4;

/// Processor configuration (Table 1, pipeline rows).
///
/// The simulator's core model is a first-order out-of-order timing model
/// (see `fbd-cpu`). Only what an experiment varies is a field: the
/// clock, ROB size, data MSHRs and L2 hit latency are `fbd-cpu`
/// constants, the L2 associativity is [`L2_WAYS`], and commit runs at
/// each benchmark's base rate, so the paper's 8-issue width has no
/// field either.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuConfig {
    /// Number of cores (1/2/4/8 in the paper).
    pub cores: u32,
    /// Shared L2 capacity in bytes.
    pub l2_bytes: u32,
    /// Shared L2 MSHR count (bounds total outstanding misses).
    pub l2_mshrs: u32,
    /// Execute software prefetch instructions (the paper's default: on).
    pub software_prefetch: bool,
    /// Run the hardware stream prefetcher at the L2 (an extension
    /// beyond the paper, off in every paper experiment: §5.4 predicts
    /// AMB prefetching composes with hardware prefetching the way it
    /// composes with software prefetching).
    pub hw_prefetch: bool,
}

impl CpuConfig {
    /// The paper's Table 1 processor with `cores` cores: shared 4 MB L2
    /// with 64 L2 MSHRs, software prefetching on.
    pub fn paper_default(cores: u32) -> CpuConfig {
        CpuConfig {
            cores,
            l2_bytes: 4 << 20,
            l2_mshrs: 64,
            software_prefetch: true,
            hw_prefetch: false,
        }
    }

    /// Checks processor parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the core or L2 MSHR count is zero or the L2
    /// capacity is not a whole number of [`L2_WAYS`]-line sets.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("cores", "must be non-zero"));
        }
        if self.l2_mshrs == 0 {
            return Err(ConfigError::new("l2_mshrs", "must be non-zero"));
        }
        let line = crate::address::CACHE_LINE_BYTES as u32;
        if self.l2_bytes == 0 || !self.l2_bytes.is_multiple_of(L2_WAYS * line) {
            return Err(ConfigError::new(
                "l2_bytes",
                "must be a non-zero multiple of ways * line size",
            ));
        }
        Ok(())
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::paper_default(1)
    }
}

/// Full system configuration: processor plus memory subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SystemConfig {
    /// Processor side.
    pub cpu: CpuConfig,
    /// Memory side.
    pub mem: MemoryConfig,
}

impl SystemConfig {
    /// The paper's default FB-DIMM system with `cores` cores.
    pub fn paper_default(cores: u32) -> SystemConfig {
        SystemConfig {
            cpu: CpuConfig::paper_default(cores),
            mem: MemoryConfig::fbdimm_default(),
        }
    }

    /// Validates both halves.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`CpuConfig::validate`] or
    /// [`MemoryConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cpu.validate()?;
        self.mem.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_timings_validate() {
        let t = DramTimings::ddr2_table2();
        t.validate().unwrap();
        assert_eq!(t.t_rc, Dur::from_ns(54));
        assert_eq!(t.t_ras + t.t_rp, Dur::from_ns(54));
    }

    #[test]
    fn inconsistent_timings_rejected() {
        let mut t = DramTimings::ddr2_table2();
        t.t_rc = Dur::from_ns(40);
        assert_eq!(t.validate().unwrap_err().field(), "t_rc");
        let mut t = DramTimings::ddr2_table2();
        t.t_ras = Dur::from_ns(10);
        assert_eq!(t.validate().unwrap_err().field(), "t_ras");
        let mut t = DramTimings::ddr2_table2();
        t.t_cl = Dur::ZERO;
        assert_eq!(t.validate().unwrap_err().field(), "t_cl");
        // CAS latency exceeding the whole row cycle is nonsense.
        let mut t = DramTimings::ddr2_table2();
        t.t_cl = Dur::from_ns(60);
        assert_eq!(t.validate().unwrap_err().field(), "t_cl");
        // The read pipeline (ACT→RD→data) must fit in one row cycle.
        let mut t = DramTimings::ddr2_table2();
        t.t_rcd = Dur::from_ns(15);
        t.t_cl = Dur::from_ns(45);
        t.t_rc = Dur::from_ns(54);
        assert_eq!(t.validate().unwrap_err().field(), "t_rc");
        let mut t = DramTimings::ddr2_table2();
        t.t_faw = Dur::from_ns(1);
        assert_eq!(t.validate().unwrap_err().field(), "t_faw");
    }

    #[test]
    fn fault_config_validation() {
        let off = FaultConfig::off();
        assert!(!off.is_active());
        off.validate().unwrap();

        let mut f = FaultConfig::off();
        f.ber = 1e-6;
        assert!(f.is_active());
        f.validate().unwrap();

        f.ber = 1.5;
        assert_eq!(f.validate().unwrap_err().field(), "faults.ber");
        f.ber = f64::NAN;
        assert_eq!(f.validate().unwrap_err().field(), "faults.ber");
        f.ber = -0.1;
        assert_eq!(f.validate().unwrap_err().field(), "faults.ber");

        // A bad fault block fails the whole memory config.
        let mut m = MemoryConfig::fbdimm_default();
        m.faults.ber = 2.0;
        assert_eq!(m.validate().unwrap_err().field(), "faults.ber");
    }

    #[test]
    fn recovery_config_validation() {
        // All recovery knobs default off and validate.
        let off = FaultConfig::off();
        assert!(!off.recovery_active());

        let mut f = FaultConfig::off();
        f.crc_bits = 65;
        assert_eq!(f.validate().unwrap_err().field(), "faults.crc_bits");
        // crc_bits alone (no BER) needs no controller state.
        f.crc_bits = 8;
        f.validate().unwrap();
        assert!(!f.recovery_active());
        f.ber = 1e-5;
        assert!(f.recovery_active());

        let mut f = FaultConfig::off();
        f.scrub = ScrubPolicyKind::Patrol;
        assert!(f.recovery_active(), "scrubbing costs bandwidth even clean");
        for interval in [0, u64::MAX, u64::MAX / 1_000 + 1] {
            f.scrub_interval_ns = interval;
            assert_eq!(
                f.validate().unwrap_err().field(),
                "faults.scrub_interval_ns"
            );
        }
        f.scrub_interval_ns = u64::MAX / 1_000;
        f.validate().unwrap();

        let mut f = FaultConfig::off();
        f.failback_quiet_ns = 2_000;
        f.validate().unwrap();
        for quiet in [u64::MAX, u64::MAX / 1_000 + 1, u64::MAX / 1_000] {
            f.failback_quiet_ns = quiet;
            assert_eq!(
                f.validate().unwrap_err().field(),
                "faults.failback_quiet_ns"
            );
        }
        f.failback_quiet_ns = u64::MAX / 128_000;
        f.validate().unwrap();

        let mut f = FaultConfig::off();
        f.ber = 1e-5;
        f.reissue_budget = 8;
        assert!(f.recovery_active());
        f.validate().unwrap();
    }

    #[test]
    fn fault_mode_names_round_trip() {
        assert_eq!(FaultMode::by_name("ber"), Some(FaultMode::Ber));
        assert_eq!(FaultMode::by_name("burst"), Some(FaultMode::Burst));
        assert_eq!(FaultMode::by_name("stuck-lane"), Some(FaultMode::StuckLane));
        assert_eq!(FaultMode::by_name("bogus"), None);
    }

    #[test]
    fn scrub_policy_names_round_trip() {
        for kind in ScrubPolicyKind::ALL {
            assert_eq!(ScrubPolicyKind::by_name(kind.name()), Some(kind));
        }
        assert_eq!(ScrubPolicyKind::by_name("bogus"), None);
    }

    #[test]
    fn ddr3_timings_validate_and_scale() {
        let t = DramTimings::ddr3_1333();
        t.validate().unwrap();
        // Every DDR3 latency is at or below its DDR2 counterpart.
        let d2 = DramTimings::ddr2_table2();
        assert!(t.t_cl <= d2.t_cl);
        assert!(t.t_rc <= d2.t_rc);
        // And all are multiples of the 1.5 ns DDR3-1333 clock.
        use crate::time::DataRate;
        let clk = DataRate::MTS1333.clock_period().as_ps();
        for v in [t.t_rp, t.t_rcd, t.t_cl, t.t_rc, t.t_rrd, t.t_ras, t.t_wl] {
            assert_eq!(v.as_ps() % clk, 0, "{v} not clock-aligned");
        }
        MemoryConfig::fbdimm_ddr3().validate().unwrap();
    }

    #[test]
    fn paper_defaults_validate() {
        for cores in [1, 2, 4, 8] {
            SystemConfig::paper_default(cores).validate().unwrap();
        }
        MemoryConfig::ddr2_default().validate().unwrap();
        MemoryConfig::fbdimm_with_prefetch().validate().unwrap();
    }

    #[test]
    fn default_geometry_matches_table1() {
        let m = MemoryConfig::fbdimm_default();
        assert_eq!(m.logical_channels, 2);
        assert_eq!(m.phys_per_logical, 2);
        assert_eq!(m.dimms_per_channel, 4);
        assert_eq!(m.banks_per_dimm, 4);
        assert_eq!(m.queue_capacity, 64);
        assert_eq!(m.lines_per_page(), 128);
        let c = CpuConfig::paper_default(1);
        assert_eq!(c.l2_bytes, 4 << 20);
        assert_eq!(L2_WAYS, 4);
        assert_eq!(c.l2_mshrs, 64);
    }

    #[test]
    fn bandwidth_matches_paper_section2() {
        // Paper §3.1 example at 800 MT/s: one DDR2 channel is 6.4 GB/s.
        let mut m = MemoryConfig::fbdimm_default();
        m.data_rate = DataRate::MTS800;
        m.logical_channels = 1;
        m.phys_per_logical = 1;
        assert!((m.peak_read_bandwidth_gbps() - 6.4).abs() < 1e-9);
        // FB-DIMM total adds the half-rate southbound path: 9.6 GB/s.
        assert!((m.peak_total_bandwidth_gbps() - 9.6).abs() < 1e-9);
        m.tech = MemoryTech::Ddr2;
        assert!((m.peak_total_bandwidth_gbps() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn prefetch_requires_fbdimm_and_matching_interleaving() {
        let mut m = MemoryConfig::fbdimm_with_prefetch();
        m.tech = MemoryTech::Ddr2;
        assert_eq!(m.validate().unwrap_err().field(), "amb");

        let mut m = MemoryConfig::fbdimm_with_prefetch();
        m.interleaving = Interleaving::Cacheline;
        assert_eq!(m.validate().unwrap_err().field(), "interleaving");

        let mut m = MemoryConfig::fbdimm_with_prefetch();
        m.interleaving = Interleaving::MultiCacheline { lines: 8 };
        assert_eq!(m.validate().unwrap_err().field(), "interleaving");

        // Page interleaving with open page is an allowed prefetch pairing.
        let mut m = MemoryConfig::fbdimm_with_prefetch();
        m.interleaving = Interleaving::Page;
        m.page_policy = PagePolicy::OpenPage;
        m.validate().unwrap();
    }

    #[test]
    fn open_page_with_cacheline_interleaving_rejected() {
        let mut m = MemoryConfig::fbdimm_default();
        m.page_policy = PagePolicy::OpenPage;
        assert_eq!(m.validate().unwrap_err().field(), "page_policy");
    }

    #[test]
    fn amb_config_validation() {
        let mut a = AmbPrefetchConfig::paper_default();
        a.validate().unwrap();
        a.region_lines = 3;
        assert_eq!(a.validate().unwrap_err().field(), "region_lines");
        let mut a = AmbPrefetchConfig::paper_default();
        a.cache_lines = 2;
        assert_eq!(a.validate().unwrap_err().field(), "cache_lines");
        let mut a = AmbPrefetchConfig::paper_default();
        a.associativity = Associativity::Ways(3);
        assert_eq!(a.validate().unwrap_err().field(), "associativity");
    }

    #[test]
    fn associativity_way_counts() {
        assert_eq!(Associativity::Direct.ways(64), 1);
        assert_eq!(Associativity::Ways(4).ways(64), 4);
        assert_eq!(Associativity::Full.ways(64), 64);
    }

    #[test]
    fn interleaving_group_lines() {
        assert_eq!(Interleaving::Cacheline.group_lines(128), 1);
        assert_eq!(
            Interleaving::MultiCacheline { lines: 4 }.group_lines(128),
            4
        );
        assert_eq!(Interleaving::Page.group_lines(128), 128);
    }

    #[test]
    fn cpu_validation_rejects_bad_l2_geometry() {
        let mut c = CpuConfig::paper_default(4);
        c.l2_bytes = 100;
        assert_eq!(c.validate().unwrap_err().field(), "l2_bytes");
        let mut c = CpuConfig::paper_default(4);
        c.cores = 0;
        assert_eq!(c.validate().unwrap_err().field(), "cores");
    }
}
