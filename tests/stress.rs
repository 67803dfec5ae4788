//! Stress and failure-injection tests: pathological access patterns
//! must degrade gracefully (correct accounting, bounded behaviour), not
//! deadlock or corrupt statistics.

use fbd_core::experiment::{ExperimentConfig, Warmup};
use fbd_core::{RunResult, RunSpec, System};
use fbd_cpu::{OpKind, TraceOp, TraceSource};
use fbd_types::config::{MemoryConfig, SystemConfig};
use fbd_types::time::Dur;
use fbd_types::LineAddr;
use fbd_workloads::Workload;

fn run(cfg: SystemConfig, w: &Workload, exp: ExperimentConfig) -> RunResult {
    RunSpec::new(cfg)
        .with_workload(w.clone())
        .experiment(exp)
        .run()
}

/// A trace that hammers lines mapping to one single DRAM bank.
#[derive(Debug)]
struct HotspotTrace {
    next: u64,
    stride: u64,
    remaining: u64,
}

impl TraceSource for HotspotTrace {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let line = self.next;
        self.next += self.stride;
        Some(TraceOp {
            gap: 2,
            kind: OpKind::Load,
            line: LineAddr::new(line),
        })
    }

    fn time_per_instr(&self) -> Dur {
        Dur::from_ps(125)
    }

    fn name(&self) -> &str {
        "hotspot"
    }
}

/// A trace that is only stores (write-allocate + writeback pressure).
#[derive(Debug)]
struct StoreFlood {
    next: u64,
    remaining: u64,
}

impl TraceSource for StoreFlood {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.next += 1;
        Some(TraceOp {
            gap: 1,
            kind: OpKind::Store,
            line: LineAddr::new(self.next * 3),
        })
    }

    fn time_per_instr(&self) -> Dur {
        Dur::from_ps(125)
    }

    fn name(&self) -> &str {
        "store-flood"
    }
}

#[test]
fn single_bank_hotspot_is_trc_bound_not_deadlocked() {
    // Under cacheline interleaving, consecutive groups cycle over
    // 2 ch × 4 dimms × 4 banks = 32 banks, and 128 lines fill a row;
    // stride 32*128 = 4096 lines revisits the same bank, new row.
    let cfg = SystemConfig::paper_default(1);
    let trace = Box::new(HotspotTrace {
        next: 0,
        stride: 4096,
        remaining: 3_000,
    });
    let result = System::new(&cfg, vec![trace], 9_000).run();
    // Every access conflicts: the bank's tRC (54 ns) bounds throughput.
    // 3000 back-to-back conflicting accesses ≥ ~2999 × 54 ns of DRAM time.
    assert!(
        result.elapsed >= Dur::from_ns(54) * 2_900,
        "{:?}",
        result.elapsed
    );
    assert_eq!(result.mem.demand_reads, 3_000);
    // And the average latency reflects heavy queueing, bounded by the
    // transaction queue + MSHR depth (not unbounded).
    assert!(result.avg_read_latency_ns() > 100.0);
    assert!(result.avg_read_latency_ns() < 5_000.0);
}

#[test]
fn store_flood_generates_writebacks_and_completes() {
    let cfg = SystemConfig::paper_default(1);
    // 140k ops: enough to fill the 64k-line L2 and keep evicting.
    let trace = Box::new(StoreFlood {
        next: 0,
        remaining: 140_000,
    });
    let mut sys = System::new(&cfg, vec![trace], 80_000);
    sys.warm(70_000); // fill the L2 with dirty lines first
    let result = sys.run();
    // Stores are non-blocking, so commit finishes at the base rate; the
    // memory system must still have served a stream of write-allocate
    // reads AND pushed dirty victims back out at a comparable rate.
    assert!(
        result.mem.demand_reads > 3_000,
        "{}",
        result.mem.demand_reads
    );
    assert!(
        result.mem.writes * 2 > result.mem.demand_reads,
        "writebacks missing: {} writes vs {} reads",
        result.mem.writes,
        result.mem.demand_reads
    );
}

#[test]
fn request_accounting_is_conserved() {
    // Demand reads at the controller equal L2 misses from the cores
    // (no requests lost in the queue/backlog path, none double-counted).
    let exp = ExperimentConfig {
        seed: 7,
        budget: 120_000,
        warmup: Warmup::Ops(0),
    };
    let w = Workload::new("1C-equake", &["equake"]);
    let r = run(SystemConfig::paper_default(1), &w, exp);
    let issued = r.cores[0].l2_misses;
    // Some requests may still be in flight at the stop instant, but the
    // controller can never have served more than were issued, and the
    // gap is bounded by the outstanding window.
    assert!(r.mem.total_reads() <= issued);
    assert!(
        issued - r.mem.total_reads() <= 64 + 64,
        "{} vs {}",
        issued,
        r.mem.total_reads()
    );
}

#[test]
fn amb_hit_latency_never_below_33ns() {
    let exp = ExperimentConfig {
        seed: 11,
        budget: 60_000,
        ..Default::default()
    };
    let mut cfg = SystemConfig::paper_default(1);
    cfg.mem = MemoryConfig::fbdimm_with_prefetch();
    let w = Workload::new("1C-swim", &["swim"]);
    let r = run(cfg, &w, exp);
    // The fastest possible read is the 33 ns idle AMB hit; the
    // histogram's lowest occupied bucket must respect it.
    let p001 = r
        .mem
        .read_latency_hist
        .percentile(0.001)
        .expect("reads completed");
    assert!(
        p001 >= Dur::from_ns(32),
        "fastest read {p001} beats physics"
    );
}

#[test]
fn deep_queue_spill_preserves_all_requests() {
    // Tiny transaction queue keeps a constant backlog; nothing is lost.
    let mut cfg = SystemConfig::paper_default(2);
    cfg.mem.queue_capacity = 4;
    let exp = ExperimentConfig {
        seed: 3,
        budget: 40_000,
        warmup: Warmup::Ops(0),
    };
    let w = fbd_workloads::two_core_workloads().remove(0);
    let r = run(cfg, &w, exp);
    assert!(r.mem.demand_reads > 300);
    assert!(r.cores.iter().any(|c| c.instructions == 40_000));
}

#[test]
fn zero_memory_workload_finishes_by_projection() {
    // A trace with no memory operations at all: the run must end at the
    // projected finish time, not deadlock.
    #[derive(Debug)]
    struct Empty;
    impl TraceSource for Empty {
        fn next_op(&mut self) -> Option<TraceOp> {
            None
        }
        fn time_per_instr(&self) -> Dur {
            Dur::from_ps(125)
        }
        fn name(&self) -> &str {
            "empty"
        }
    }
    let cfg = SystemConfig::paper_default(1);
    let r = System::new(&cfg, vec![Box::new(Empty)], 1_000).run();
    assert_eq!(r.cores[0].instructions, 1_000);
    // 1000 instructions at 125 ps each.
    assert_eq!(r.elapsed, Dur::from_ps(125 * 1_000));
    assert_eq!(r.mem.total_reads(), 0);
}

#[test]
fn refresh_costs_a_little_throughput_and_counts_ops() {
    let w = Workload::new("1C-swim", &["swim"]);
    let exp = ExperimentConfig {
        seed: 5,
        budget: 80_000,
        ..Default::default()
    };
    let base_cfg = SystemConfig::paper_default(1);
    let mut refresh_cfg = base_cfg;
    refresh_cfg.mem.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();

    let base = run(base_cfg, &w, exp);
    let with_refresh = run(refresh_cfg, &w, exp);

    assert_eq!(
        base.mem.dram_ops.refreshes, 0,
        "paper config has no refresh"
    );
    assert!(
        with_refresh.mem.dram_ops.refreshes > 0,
        "refreshes must occur"
    );
    // Refresh overhead is tRFC/tREFI ≈ 1.6% of each DIMM's time: a small
    // but strictly non-negative slowdown.
    let ratio = with_refresh.cores[0].ipc() / base.cores[0].ipc();
    assert!(ratio <= 1.001, "refresh cannot speed things up: {ratio:.4}");
    assert!(
        ratio > 0.90,
        "refresh overhead implausibly large: {ratio:.4}"
    );
    // Roughly one refresh per DIMM per tREFI of elapsed time.
    let expected = (with_refresh.elapsed.as_ns_f64() / 7_800.0) * 8.0; // 2 ch × 4 dimms
    let got = with_refresh.mem.dram_ops.refreshes as f64;
    assert!(
        (got - expected).abs() / expected < 0.3,
        "refresh count {got} far from expected {expected:.0}"
    );
}

#[test]
fn two_rank_dimms_run_and_add_bank_parallelism() {
    let w = Workload::new("1C-swim", &["swim"]);
    let exp = ExperimentConfig {
        seed: 9,
        budget: 60_000,
        ..Default::default()
    };
    let one = SystemConfig::paper_default(1);
    let mut two = one;
    two.mem.ranks_per_dimm = 2;
    let r1 = run(one, &w, exp);
    let r2 = run(two, &w, exp);
    // More banks behind the same channels: never slower, usually faster
    // (fewer bank conflicts).
    assert!(
        r2.cores[0].ipc() >= r1.cores[0].ipc() * 0.99,
        "2 ranks slower than 1: {:.3} vs {:.3}",
        r2.cores[0].ipc(),
        r1.cores[0].ipc()
    );
}
