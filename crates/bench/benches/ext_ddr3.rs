//! Extension experiment: FB-DIMM carrying DDR3 devices.
//!
//! The paper's footnote 1 notes that "future FB-DIMM will also support
//! DDR3 bus and DRAM." This bench runs the next-generation substrate
//! (DDR3-1333, CL9) under the same workloads and asks whether AMB
//! prefetching's value survives the faster devices — the key question
//! being that DDR3 doubles channel bandwidth but barely moves
//! activation latency, so the bank-conflict relief AP provides should
//! still pay.

use fbd_bench::*;
use fbd_core::smt_speedup;
use fbd_types::config::{AmbPrefetchConfig, Interleaving, MemoryConfig, SystemConfig};

fn ddr3_fbd(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.mem = MemoryConfig::fbdimm_ddr3();
    cfg
}

fn ddr3_fbd_ap(cores: u32) -> SystemConfig {
    let mut cfg = ddr3_fbd(cores);
    cfg.mem.amb = AmbPrefetchConfig::paper_default();
    cfg.mem.interleaving = Interleaving::MultiCacheline { lines: 4 };
    cfg
}

fn main() {
    let exp = fbd_bench::experiment();
    banner(
        "Extension",
        "FB-DIMM with DDR3-1333 devices (paper footnote 1)",
        &exp,
    );
    let refs = references(Variant::Ddr2, &exp);

    let mut rows = vec![vec![
        "group".to_string(),
        "DDR2 FBD".to_string(),
        "DDR2 FBD-AP".to_string(),
        "DDR3 FBD".to_string(),
        "DDR3 FBD-AP".to_string(),
        "AP gain on DDR3".to_string(),
    ]];
    let grouped = run_grouped(
        |cores| {
            vec![
                ("DDR2 FBD".to_string(), system(Variant::Fbd, cores)),
                ("DDR2 FBD-AP".to_string(), system(Variant::FbdAp, cores)),
                ("DDR3 FBD".to_string(), ddr3_fbd(cores)),
                ("DDR3 FBD-AP".to_string(), ddr3_fbd_ap(cores)),
            ]
        },
        &exp,
    );
    for (group, workloads, results) in grouped {
        let avg = |label: &str| {
            let v: Vec<f64> = workloads
                .iter()
                .map(|w| {
                    results
                        .iter()
                        .find(|((c, n), _)| c == label && n == w.name())
                        .map(|(_, r)| smt_speedup(w, r, &refs))
                        .expect("run")
                })
                .collect();
            mean(&v)
        };
        let (d2, d2ap, d3, d3ap) = (
            avg("DDR2 FBD"),
            avg("DDR2 FBD-AP"),
            avg("DDR3 FBD"),
            avg("DDR3 FBD-AP"),
        );
        rows.push(vec![
            group.to_string(),
            f3(d2),
            f3(d2ap),
            f3(d3),
            f3(d3ap),
            pct(d3ap / d3),
        ]);
        let _ = d2ap;
    }
    emit_table("ext_ddr3", &rows);
    println!();
    println!("question under test: does AMB prefetching's gain survive the DDR3 generation?");
}
