//! Calibration tests: the paper's idle-latency decomposition, exactly.
//!
//! Paper §5.2: with the default 667 MT/s configuration, an idle FB-DIMM
//! read takes 63 ns (12 controller + 3 southbound command + 15 tRCD +
//! 15 tCL + 6 data transfer + 12 AMB daisy chain) and an AMB-cache hit
//! takes 33 ns (the 30 ns of DRAM work eliminated).

use fbd_core::memsys::{Issued, MemorySystem};
use fbd_types::config::{MemoryConfig, MemoryTech};
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::substrate::substrates;
use fbd_types::time::Time;
use fbd_types::{LineAddr, RequestId};

fn read_req(id: u64, line: u64, at: Time) -> MemRequest {
    MemRequest::new(
        RequestId(id),
        CoreId(0),
        AccessKind::DemandRead,
        LineAddr::new(line),
        at,
    )
}

fn issue_read(mem: &mut MemorySystem, req: MemRequest) -> Time {
    let (ch, ready) = mem.submit(req);
    let mut result = mem.decide(ch, ready);
    match result.issued.pop().expect("request must issue") {
        Issued::Read { resp } => resp.completion,
        Issued::Write { .. } => panic!("expected a read"),
    }
}

#[test]
fn fbdimm_idle_read_latency_is_exactly_63ns() {
    let mut mem = MemorySystem::new(&MemoryConfig::fbdimm_default());
    let completion = issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    assert_eq!(completion, Time::from_ns(63));
}

#[test]
fn amb_cache_hit_idle_latency_is_exactly_33ns() {
    let mut mem = MemorySystem::new(&MemoryConfig::fbdimm_with_prefetch());
    // Demand miss on line 0 group-fetches lines 0..4; lines 1-3 land in
    // the AMB cache.
    let first = issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    assert_eq!(
        first,
        Time::from_ns(63),
        "miss path unchanged by prefetching"
    );
    // A later, isolated read of line 1 hits the AMB cache: 33 ns.
    let arrival = Time::from_ns(300);
    let completion = issue_read(&mut mem, read_req(1, 1, arrival));
    assert_eq!(completion - arrival, fbd_types::time::Dur::from_ns(33));
}

#[test]
fn full_latency_ablation_hit_costs_miss_latency() {
    let cfg = substrates().get("fbd-apfl").expect("registered").config();
    let mut mem = MemorySystem::new(&cfg);
    issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    let arrival = Time::from_ns(300);
    let completion = issue_read(&mut mem, read_req(1, 1, arrival));
    // FBD-APFL: hits skip the bank but are charged the full 63 ns.
    assert_eq!(completion - arrival, fbd_types::time::Dur::from_ns(63));
    // And the hit really did skip the DRAM: only the group fetch's ops.
    let ops = mem.stats().dram_ops;
    assert_eq!(ops.act_pre, 1);
    assert_eq!(ops.col_reads, 4);
}

#[test]
fn ddr2_idle_read_latency_is_exactly_48ns() {
    // No southbound command transit and no AMB chain: 12 + 15 + 15 + 6.
    let mut mem = MemorySystem::new(&MemoryConfig::ddr2_default());
    let completion = issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    assert_eq!(completion, Time::from_ns(48));
}

#[test]
fn vrl_shortens_close_dimms_only() {
    let mut cfg = MemoryConfig::fbdimm_default();
    cfg.tech = MemoryTech::FbDimm { vrl: true };
    let mut mem = MemorySystem::new(&cfg);
    // Line 0 maps to DIMM 0 — with VRL its chain delay is 3 ns, not 12.
    let completion = issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    assert_eq!(completion, Time::from_ns(54));
}

#[test]
fn second_dimm_same_latency_without_vrl() {
    let mut mem = MemorySystem::new(&MemoryConfig::fbdimm_default());
    // Cacheline interleaving: channels cycle first, then DIMMs; line 2
    // sits on channel 0, DIMM 1.
    let completion = issue_read(&mut mem, read_req(0, 2, Time::ZERO));
    assert_eq!(
        completion,
        Time::from_ns(63),
        "fixed read latency without VRL"
    );
}

#[test]
fn amb_prefetch_does_not_delay_the_demanded_line() {
    // The group fetch returns the demanded line first: its latency must
    // equal the plain miss latency, for any K.
    for k in [2u32, 4, 8] {
        let mut cfg = MemoryConfig::fbdimm_with_prefetch();
        cfg.amb.region_lines = k;
        cfg.interleaving = fbd_types::config::Interleaving::MultiCacheline { lines: k };
        let mut mem = MemorySystem::new(&cfg);
        let completion = issue_read(&mut mem, read_req(0, 0, Time::ZERO));
        assert_eq!(completion, Time::from_ns(63), "K={k}");
    }
}

#[test]
fn ddr2_open_page_row_hit_is_exactly_33ns() {
    // Open-page DDR2: a row hit skips the activation entirely:
    // 12 controller + 15 tCL + 6 data = 33 ns.
    let mut cfg = MemoryConfig::ddr2_default();
    cfg.page_policy = fbd_types::config::PagePolicy::OpenPage;
    cfg.interleaving = fbd_types::config::Interleaving::Page;
    let mut mem = MemorySystem::new(&cfg);
    // Page interleaving: lines 0 and 1 share a row.
    let first = issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    assert_eq!(first, Time::from_ns(48), "cold access pays the activation");
    let arrival = Time::from_ns(300);
    let completion = issue_read(&mut mem, read_req(1, 1, arrival));
    assert_eq!(completion - arrival, fbd_types::time::Dur::from_ns(33));
    assert_eq!(mem.stats().row_hits, 1);
    assert_eq!(
        mem.stats().dram_ops.act_pre,
        1,
        "one activation serves both"
    );
}

#[test]
fn ddr2_open_page_row_conflict_pays_precharge() {
    let mut cfg = MemoryConfig::ddr2_default();
    cfg.page_policy = fbd_types::config::PagePolicy::OpenPage;
    cfg.interleaving = fbd_types::config::Interleaving::Page;
    let mut mem = MemorySystem::new(&cfg);
    issue_read(&mut mem, read_req(0, 0, Time::ZERO)); // opens row 0
                                                      // A line on the same bank but a different row: page interleaving
                                                      // revisits a bank every (2 ch × 4 dimms × 4 banks) = 32 pages.
    let conflict_line = 32 * 128;
    let arrival = Time::from_ns(300);
    let completion = issue_read(&mut mem, read_req(1, conflict_line, arrival));
    // 12 + tRP(15) + tRCD(15) + tCL(15) + 6 = 63 ns.
    assert_eq!(completion - arrival, fbd_types::time::Dur::from_ns(63));
    assert_eq!(mem.stats().row_hits, 0);
}

#[test]
fn fbdimm_open_page_row_hit_is_exactly_48ns() {
    // FB-DIMM open page: 63 − 15 (activation skipped) = 48 ns.
    let mut cfg = MemoryConfig::fbdimm_default();
    cfg.page_policy = fbd_types::config::PagePolicy::OpenPage;
    cfg.interleaving = fbd_types::config::Interleaving::Page;
    let mut mem = MemorySystem::new(&cfg);
    issue_read(&mut mem, read_req(0, 0, Time::ZERO));
    let arrival = Time::from_ns(300);
    let completion = issue_read(&mut mem, read_req(1, 1, arrival));
    assert_eq!(completion - arrival, fbd_types::time::Dur::from_ns(48));
}

#[test]
fn write_invalidates_prefetched_copy() {
    let mut mem = MemorySystem::new(&MemoryConfig::fbdimm_with_prefetch());
    issue_read(&mut mem, read_req(0, 0, Time::ZERO)); // prefetches 1..4
                                                      // A writeback of line 1 makes the AMB copy stale.
    let wr = MemRequest::new(
        RequestId(1),
        CoreId(0),
        AccessKind::Write,
        LineAddr::new(1),
        Time::from_ns(200),
    );
    let (ch, ready) = mem.submit(wr);
    mem.decide(ch, ready);
    // The next read of line 1 must MISS (fresh DRAM access), not hit.
    let arrival = Time::from_ns(600);
    let completion = issue_read(&mut mem, read_req(2, 1, arrival));
    assert_eq!(completion - arrival, fbd_types::time::Dur::from_ns(63));
    assert_eq!(mem.stats().amb_hits, 0);
}
