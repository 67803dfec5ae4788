//! The access-trace abstraction feeding each simulated core.
//!
//! A trace is the stream of memory operations that *reach the shared L2*
//! (the per-core L1s are folded into the generator — see DESIGN.md §4),
//! annotated with the number of committed instructions between
//! consecutive operations. `fbd-workloads` provides the SPEC2000-like
//! synthetic implementations.

use fbd_types::time::Dur;
use fbd_types::LineAddr;

/// Kind of one traced memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A demand load; an L2 miss blocks commit when it reaches the ROB
    /// head (stall-on-use).
    Load,
    /// A store; write-allocate but never blocks commit (retires through
    /// the store queue).
    Store,
    /// A software prefetch instruction (compiler-inserted); never blocks
    /// commit, dropped when software prefetching is disabled.
    Prefetch,
}

/// One memory operation in a core's instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Instructions committed between the previous operation and this
    /// one (the operation itself counts as one further instruction).
    pub gap: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Target cacheline.
    pub line: LineAddr,
}

/// A source of memory operations for one core.
///
/// Implementations must be deterministic for reproducible experiments.
/// The `Send` bound lets snapshots of trace state be held in a
/// process-wide warm-up cache shared between test threads.
pub trait TraceSource: Send {
    /// Produces the next operation, or `None` when the trace ends.
    fn next_op(&mut self) -> Option<TraceOp>;

    /// Base commit time per instruction when no L2 miss stalls commit.
    /// This folds in the benchmark's inherent ILP and L1/L2-hit costs.
    fn time_per_instr(&self) -> Dur;

    /// Human-readable benchmark name (e.g. `"swim"`).
    fn name(&self) -> &str;

    /// Clones this source's complete state (position, RNG, reuse
    /// history), or `None` when the implementation cannot snapshot
    /// itself. Sources that support this let the runner reuse one L2
    /// warm-up across runs with identical warm inputs instead of
    /// replaying it.
    fn clone_box(&self) -> Option<Box<dyn TraceSource>> {
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A trivial trace for tests: strided loads with a fixed gap.
    #[derive(Clone, Debug)]
    pub(crate) struct StridedTrace {
        next_line: u64,
        stride: u64,
        gap: u64,
        remaining: u64,
        tpi: Dur,
    }

    impl StridedTrace {
        /// `count` loads, `stride` lines apart, `gap` instructions apart, at
        /// `tpi` base time per instruction.
        pub(crate) fn new(count: u64, stride: u64, gap: u64, tpi: Dur) -> StridedTrace {
            StridedTrace {
                next_line: 0,
                stride,
                gap,
                remaining: count,
                tpi,
            }
        }
    }

    impl TraceSource for StridedTrace {
        fn next_op(&mut self) -> Option<TraceOp> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let line = LineAddr::new(self.next_line);
            self.next_line += self.stride;
            Some(TraceOp {
                gap: self.gap,
                kind: OpKind::Load,
                line,
            })
        }

        fn time_per_instr(&self) -> Dur {
            self.tpi
        }

        fn name(&self) -> &str {
            "strided-test"
        }

        fn clone_box(&self) -> Option<Box<dyn TraceSource>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn strided_trace_produces_count_ops() {
        let mut t = StridedTrace::new(3, 4, 10, Dur::from_ps(125));
        let ops: Vec<TraceOp> = std::iter::from_fn(|| t.next_op()).collect();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].line, LineAddr::new(0));
        assert_eq!(ops[1].line, LineAddr::new(4));
        assert_eq!(ops[2].line, LineAddr::new(8));
        assert!(ops.iter().all(|o| o.gap == 10 && o.kind == OpKind::Load));
        assert_eq!(t.time_per_instr(), Dur::from_ps(125));
        assert_eq!(t.name(), "strided-test");
    }
}
