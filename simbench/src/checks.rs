//! The paper's idle-latency anchors, checked on every benchmark run by
//! driving a lone request through `MemorySystem` (paper §5.2: 63 ns for
//! an FB-DIMM read, 33 ns for an AMB-buffer hit, 48 ns on DDR2).

use fbd_core::memsys::{Issued, MemorySystem};
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::substrate::substrates;
use fbd_types::time::Time;
use fbd_types::{LineAddr, RequestId};

/// Issues one demand read of `line` at `at` on an otherwise idle
/// system and returns its latency in ns (`None` if nothing issued).
fn lone_read(mem: &mut MemorySystem, id: u64, line: u64, at: Time) -> Option<u64> {
    let req = MemRequest::new(
        RequestId(id),
        CoreId(0),
        AccessKind::DemandRead,
        LineAddr::new(line),
        at,
    );
    let (ch, ready) = mem.submit(req);
    match mem.decide(ch, ready).issued.pop()? {
        Issued::Read { resp } => Some((resp.completion - at).as_ps() / 1_000),
        Issued::Write { .. } => None,
    }
}

fn memory(substrate: &str) -> MemorySystem {
    MemorySystem::new(
        &substrates()
            .get(substrate)
            .expect("paper substrates are registered")
            .config(),
    )
}

/// Checks the three anchors; returns one message per failed anchor.
pub fn idle_latency_anchors() -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |what: &str, got: Option<u64>, want: u64| {
        if got != Some(want) {
            failures.push(format!(
                "{what}: idle latency {got:?} ns, paper says {want} ns"
            ));
        }
    };
    expect(
        "fbd read",
        lone_read(&mut memory("fbd"), 0, 0, Time::ZERO),
        63,
    );
    // A miss on line 0 group-fetches its region into the AMB buffer; a
    // later lone read of line 1 hits there.
    let mut ap = memory("fbd-ap");
    expect("fbd-ap miss", lone_read(&mut ap, 0, 0, Time::ZERO), 63);
    expect(
        "fbd-ap hit",
        lone_read(&mut ap, 1, 1, Time::from_ns(300)),
        33,
    );
    expect(
        "ddr2 read",
        lone_read(&mut memory("ddr2"), 0, 0, Time::ZERO),
        48,
    );
    failures
}

#[cfg(test)]
mod tests {
    #[test]
    fn anchors_hold() {
        assert_eq!(super::idle_latency_anchors(), Vec::<String>::new());
    }
}
