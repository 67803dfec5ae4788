//! Diagnostic: issue a dense read/write flood straight into the memory
//! system and measure achieved bandwidth against the theoretical peak.

use fbd_core::{drive, MemorySystem};
use fbd_types::config::MemoryConfig;
use fbd_types::request::{AccessKind, CoreId, MemRequest};
use fbd_types::time::Time;
use fbd_types::{LineAddr, RequestId};

fn run(label: &str, cfg: MemoryConfig, stride: u64, write_every: u64) {
    let mut mem = MemorySystem::new(&cfg);
    let n = 20_000u64;
    let requests = (0..n).map(|i| {
        let kind = if write_every > 0 && i % write_every == write_every - 1 {
            AccessKind::Write
        } else {
            AccessKind::DemandRead
        };
        MemRequest::new(
            RequestId(i),
            CoreId(0),
            kind,
            LineAddr::new(i * stride),
            Time::from_ns(i / 4),
        )
    });
    let last = drive(&mut mem, requests);
    let bytes = n * 64;
    let secs = (last - Time::ZERO).as_secs_f64();
    println!(
        "{label}: {:.2} GB/s ({} reqs in {:.1} us)",
        bytes as f64 / secs / 1e9,
        n,
        secs * 1e6
    );
}

fn main() {
    for (label, stride, we) in [
        ("sequential reads", 1u64, 0u64),
        ("random-ish reads (stride 97)", 97, 0),
        ("reads + 25% writes (stride 97)", 97, 4),
    ] {
        for rate in [
            fbd_types::time::DataRate::MTS667,
            fbd_types::time::DataRate::MTS800,
        ] {
            let mut d = MemoryConfig::ddr2_default();
            d.logical_channels = 1;
            d.data_rate = rate;
            run(&format!("DDR2 1ch {rate} {label}"), d, stride, we);
            let mut f = MemoryConfig::fbdimm_default();
            f.logical_channels = 1;
            f.data_rate = rate;
            run(&format!("FBD  1ch {rate} {label}"), f, stride, we);
        }
    }
}
