//! Memory transactions exchanged between the CPU side and the memory
//! controller.
//!
//! A [`MemRequest`] is one cacheline-granular transaction (the L2 cache
//! has already filtered the access stream, so every request here is an L2
//! miss or a writeback). The controller answers reads with a
//! [`MemResponse`] carrying completion timing; writes are posted and do
//! not generate responses.

use core::fmt;

use crate::address::LineAddr;
use crate::time::{Dur, Time};

/// Identifies a processor core in a multi-core configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Unique, monotonically increasing transaction identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The kind of memory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read caused by an L2 load/store miss. The issuing core
    /// eventually stalls on the response.
    DemandRead,
    /// A read issued on behalf of a software prefetch instruction that
    /// missed the L2. Non-blocking for the core.
    SoftwarePrefetch,
    /// A read issued by the (optional) hardware stream prefetcher at the
    /// L2. Non-blocking for the core.
    HardwarePrefetch,
    /// A dirty-line writeback from the L2 (posted; no response).
    Write,
}

impl AccessKind {
    /// True for the read kinds (they return data on the northbound
    /// link / data bus; writes only consume command + write bandwidth).
    #[inline]
    pub const fn is_read(self) -> bool {
        !matches!(self, AccessKind::Write)
    }

    /// True for the non-blocking prefetch reads (software or hardware).
    #[inline]
    pub const fn is_prefetch(self) -> bool {
        matches!(
            self,
            AccessKind::SoftwarePrefetch | AccessKind::HardwarePrefetch
        )
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::DemandRead => "read",
            AccessKind::SoftwarePrefetch => "swpf",
            AccessKind::HardwarePrefetch => "hwpf",
            AccessKind::Write => "write",
        };
        f.write_str(s)
    }
}

/// One cacheline-granular memory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique transaction id.
    pub id: RequestId,
    /// Issuing core (writes carry the core whose L2 eviction produced
    /// them; used only for accounting).
    pub core: CoreId,
    /// Transaction kind.
    pub kind: AccessKind,
    /// Target cacheline.
    pub line: LineAddr,
    /// Instant the request arrived at the memory controller queue.
    pub arrival: Time,
}

impl MemRequest {
    /// Convenience constructor.
    pub fn new(
        id: RequestId,
        core: CoreId,
        kind: AccessKind,
        line: LineAddr,
        arrival: Time,
    ) -> Self {
        MemRequest {
            id,
            core,
            kind,
            line,
            arrival,
        }
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} by {} @{}",
            self.id, self.kind, self.line, self.core, self.arrival
        )
    }
}

/// How a read was ultimately served (for coverage/efficiency accounting
/// and the latency-decomposition experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Served by DRAM bank access (ACT + CAS, close page) — the common
    /// path without prefetching.
    DramAccess,
    /// Served from the AMB prefetch buffer (paper: "prefetch hit").
    AmbCacheHit,
    /// Served by DRAM, and the access also triggered a K-line group
    /// prefetch into the AMB cache.
    DramAccessWithPrefetch,
    /// Row-buffer hit under open-page policy (no ACT needed).
    RowBufferHit,
}

impl ServiceKind {
    /// True if the demanded data came from the AMB prefetch buffer.
    #[inline]
    pub const fn is_amb_hit(self) -> bool {
        matches!(self, ServiceKind::AmbCacheHit)
    }
}

/// One lifecycle stage of a read transaction, in pipeline order.
///
/// The controller stamps every read at each stage boundary so the
/// per-stage durations provably sum to the end-to-end latency (see
/// [`StageBreakdown`]). Stages a particular path does not exercise
/// (e.g. the DRAM stages of an AMB prefetch-buffer hit, or the link
/// stages of the DDR2 baseline) simply record zero time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the controller's transaction queue (arrival until the
    /// scheduler issues the transaction; includes the controller's
    /// fixed overhead).
    CtrlQueue,
    /// Southbound FB-DIMM link: waiting for a command slot, the frame
    /// itself, and transit onto the daisy chain.
    SouthLink,
    /// AMB processing. Zero for cut-through DRAM accesses; the
    /// prefetch-buffer lookup/serve time on AMB hits (non-zero only in
    /// the FBD-APFL full-latency ablation).
    AmbProc,
    /// Waiting for the DRAM bank to accept the first command (tRC /
    /// precharge recovery, bus turnaround, pending refresh).
    DramWait,
    /// Row activation: ACT command until the column command (tRCD).
    DramAct,
    /// Column access: CAS until the first data beats exist (tCL).
    DramCas,
    /// Data ready at the AMB but waiting for a free northbound frame
    /// slot (the response-queue drain).
    NorthQueue,
    /// Northbound return: the data frame plus daisy-chain forwarding
    /// delay. On the DDR2 baseline this is the data-bus burst.
    NorthLink,
    /// Link-level recovery: time spent replaying CRC-corrupted frames
    /// (bounded retries with exponential backoff, plus the fail-over
    /// escalation). Zero unless fault injection is active; may
    /// accumulate on both directions of one transaction.
    Retry,
}

/// All stages, in pipeline order (the order folded stacks and JSON
/// breakdowns are emitted in).
pub const STAGES: [Stage; Stage::COUNT] = [
    Stage::CtrlQueue,
    Stage::SouthLink,
    Stage::AmbProc,
    Stage::DramWait,
    Stage::DramAct,
    Stage::DramCas,
    Stage::NorthQueue,
    Stage::NorthLink,
    Stage::Retry,
];

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 9;

    /// Dense index of this stage (its position in [`STAGES`]).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Stage::CtrlQueue => 0,
            Stage::SouthLink => 1,
            Stage::AmbProc => 2,
            Stage::DramWait => 3,
            Stage::DramAct => 4,
            Stage::DramCas => 5,
            Stage::NorthQueue => 6,
            Stage::NorthLink => 7,
            Stage::Retry => 8,
        }
    }

    /// Short machine-readable label (folded-stack frame / JSON key).
    pub const fn label(self) -> &'static str {
        match self {
            Stage::CtrlQueue => "queue",
            Stage::SouthLink => "south",
            Stage::AmbProc => "amb",
            Stage::DramWait => "dram_wait",
            Stage::DramAct => "dram_act",
            Stage::DramCas => "dram_cas",
            Stage::NorthQueue => "north_queue",
            Stage::NorthLink => "north",
            Stage::Retry => "retry",
        }
    }

    /// True for the three DRAM-bank service stages (wait + ACT + CAS).
    #[inline]
    pub const fn is_dram(self) -> bool {
        matches!(self, Stage::DramWait | Stage::DramAct | Stage::DramCas)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-stage durations of one read; the stages sum to the end-to-end
/// latency by construction (build one with [`StageBreakdown::stamper`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    durs: [Dur; Stage::COUNT],
}

impl StageBreakdown {
    /// A breakdown with every stage at zero.
    pub const ZERO: StageBreakdown = StageBreakdown {
        durs: [Dur::ZERO; Stage::COUNT],
    };

    /// Starts stamping a read that arrived at `start`; advance the
    /// stamper through each stage boundary in order.
    pub fn stamper(start: Time) -> StageStamper {
        StageStamper {
            cursor: start,
            breakdown: StageBreakdown::ZERO,
        }
    }

    /// Time spent in `stage`.
    #[inline]
    pub fn get(&self, stage: Stage) -> Dur {
        self.durs[stage.index()]
    }

    /// Adds `dur` to `stage`.
    #[inline]
    pub fn add(&mut self, stage: Stage, dur: Dur) {
        self.durs[stage.index()] += dur;
    }

    /// Sum over all stages — equals the end-to-end latency when the
    /// breakdown was stamped through to completion.
    pub fn total(&self) -> Dur {
        self.durs.iter().copied().sum()
    }

    /// Total DRAM-bank service time (wait + ACT + CAS) — the component
    /// AMB prefetching removes from the read path.
    pub fn dram_total(&self) -> Dur {
        STAGES
            .iter()
            .filter(|s| s.is_dram())
            .map(|s| self.get(*s))
            .sum()
    }

    /// `(stage, duration)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Dur)> + '_ {
        STAGES.iter().map(move |s| (*s, self.get(*s)))
    }
}

/// Cursor-based builder for a [`StageBreakdown`]: each call to
/// [`to`](Self::to) charges the time from the previous boundary to
/// `at` against one stage. Boundaries are clamped monotone, so the
/// finished breakdown always sums exactly to `final boundary − start`.
#[derive(Clone, Copy, Debug)]
pub struct StageStamper {
    cursor: Time,
    breakdown: StageBreakdown,
}

impl StageStamper {
    /// Charges `stage` with the time from the previous boundary to
    /// `at`; out-of-order boundaries charge zero rather than
    /// underflowing.
    pub fn to(&mut self, stage: Stage, at: Time) {
        let at = at.max(self.cursor);
        self.breakdown.add(stage, at.saturating_since(self.cursor));
        self.cursor = at;
    }

    /// The breakdown stamped so far.
    pub fn finish(self) -> StageBreakdown {
        self.breakdown
    }
}

/// Attribution class of a completed transaction: the request kind,
/// refined by whether the AMB prefetch buffer served it. Reads split
/// into four classes; posted writes form one class of their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqClass {
    /// Demand read served by DRAM.
    Demand,
    /// Software-prefetch read served by DRAM.
    SwPrefetch,
    /// Hardware-prefetch read served by DRAM.
    HwPrefetch,
    /// Any read served from the AMB prefetch buffer.
    AmbHit,
    /// Posted write, measured accept-to-drain (arrival to the moment
    /// its data finishes at the devices).
    Write,
}

/// All request classes, in display order (read classes first).
pub const REQ_CLASSES: [ReqClass; ReqClass::COUNT] = [
    ReqClass::Demand,
    ReqClass::SwPrefetch,
    ReqClass::HwPrefetch,
    ReqClass::AmbHit,
    ReqClass::Write,
];

impl ReqClass {
    /// Number of classes.
    pub const COUNT: usize = 5;

    /// Classifies a completed transaction. Writes are always
    /// [`ReqClass::Write`]; for reads, AMB hits take precedence over
    /// the request kind: a demand read served from the prefetch buffer
    /// is an [`ReqClass::AmbHit`].
    pub fn of(kind: AccessKind, service: ServiceKind) -> ReqClass {
        if kind == AccessKind::Write {
            return ReqClass::Write;
        }
        if service.is_amb_hit() {
            return ReqClass::AmbHit;
        }
        match kind {
            AccessKind::DemandRead => ReqClass::Demand,
            AccessKind::SoftwarePrefetch => ReqClass::SwPrefetch,
            AccessKind::HardwarePrefetch => ReqClass::HwPrefetch,
            AccessKind::Write => unreachable!("handled above"),
        }
    }

    /// Dense index of this class (its position in [`REQ_CLASSES`]).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ReqClass::Demand => 0,
            ReqClass::SwPrefetch => 1,
            ReqClass::HwPrefetch => 2,
            ReqClass::AmbHit => 3,
            ReqClass::Write => 4,
        }
    }

    /// True for the posted-write class.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, ReqClass::Write)
    }

    /// Short machine-readable label (folded-stack frame / JSON key).
    pub const fn label(self) -> &'static str {
        match self {
            ReqClass::Demand => "demand",
            ReqClass::SwPrefetch => "swpf",
            ReqClass::HwPrefetch => "hwpf",
            ReqClass::AmbHit => "amb_hit",
            ReqClass::Write => "write",
        }
    }
}

impl fmt::Display for ReqClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Completion record for a read transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemResponse {
    /// The transaction this answers.
    pub id: RequestId,
    /// Issuing core.
    pub core: CoreId,
    /// Target cacheline.
    pub line: LineAddr,
    /// Kind of the original request.
    pub kind: AccessKind,
    /// Instant the critical data reached the memory controller.
    pub completion: Time,
    /// How the read was served.
    pub service: ServiceKind,
    /// True when the northbound data frame was corrupted and the
    /// transfer was dropped instead of retried (prefetch frames under
    /// fault injection): the line must not be cached.
    pub dropped: bool,
    /// Per-stage latency attribution; sums to `completion − arrival`.
    pub stages: StageBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn access_kind_read_classification() {
        assert!(AccessKind::DemandRead.is_read());
        assert!(AccessKind::SoftwarePrefetch.is_read());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn stage_indices_match_order() {
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in REQ_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn stamper_sums_exactly_to_span() {
        let mut st = StageBreakdown::stamper(Time::from_ns(10));
        st.to(Stage::CtrlQueue, Time::from_ns(14));
        st.to(Stage::SouthLink, Time::from_ns(19));
        // An out-of-order boundary charges zero instead of underflowing.
        st.to(Stage::AmbProc, Time::from_ns(15));
        st.to(Stage::DramCas, Time::from_ns(40));
        let b = st.finish();
        assert_eq!(b.get(Stage::CtrlQueue), Dur::from_ns(4));
        assert_eq!(b.get(Stage::SouthLink), Dur::from_ns(5));
        assert_eq!(b.get(Stage::AmbProc), Dur::ZERO);
        assert_eq!(b.get(Stage::DramCas), Dur::from_ns(21));
        assert_eq!(b.total(), Dur::from_ns(30));
        assert_eq!(b.dram_total(), Dur::from_ns(21));
    }

    #[test]
    fn req_class_amb_hit_takes_precedence() {
        assert_eq!(
            ReqClass::of(AccessKind::DemandRead, ServiceKind::AmbCacheHit),
            ReqClass::AmbHit
        );
        assert_eq!(
            ReqClass::of(AccessKind::DemandRead, ServiceKind::DramAccessWithPrefetch),
            ReqClass::Demand
        );
        assert_eq!(
            ReqClass::of(AccessKind::SoftwarePrefetch, ServiceKind::DramAccess),
            ReqClass::SwPrefetch
        );
        assert_eq!(
            ReqClass::of(AccessKind::HardwarePrefetch, ServiceKind::RowBufferHit),
            ReqClass::HwPrefetch
        );
    }

    #[test]
    fn req_class_writes_have_their_own_class() {
        for service in [
            ServiceKind::DramAccess,
            ServiceKind::RowBufferHit,
            ServiceKind::AmbCacheHit,
        ] {
            assert_eq!(ReqClass::of(AccessKind::Write, service), ReqClass::Write);
        }
        assert!(ReqClass::Write.is_write());
        assert_eq!(ReqClass::Write.index(), ReqClass::COUNT - 1);
        assert_eq!(ReqClass::Write.label(), "write");
        for class in REQ_CLASSES {
            assert_eq!(class.is_write(), class == ReqClass::Write);
        }
    }

    #[test]
    fn service_kind_hit_classification() {
        assert!(ServiceKind::AmbCacheHit.is_amb_hit());
        assert!(!ServiceKind::DramAccess.is_amb_hit());
        assert!(!ServiceKind::DramAccessWithPrefetch.is_amb_hit());
        assert!(!ServiceKind::RowBufferHit.is_amb_hit());
    }

    #[test]
    fn request_display_mentions_all_parts() {
        let req = MemRequest::new(
            RequestId(7),
            CoreId(2),
            AccessKind::Write,
            LineAddr::new(9),
            Time::from_ns(1),
        );
        let s = format!("{req}");
        assert!(s.contains("req#7"));
        assert!(s.contains("write"));
        assert!(s.contains("core2"));
    }
}
