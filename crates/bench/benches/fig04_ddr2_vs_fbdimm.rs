//! Figure 4: SMT speedup of 1-, 2-, 4- and 8-core execution with DDR2
//! and FB-DIMM memory systems.
//!
//! Reference points: each program's single-threaded execution on DDR2,
//! so the single-core DDR2 bars are 1.0 by construction. Expected shape
//! (paper §5.1): DDR2 slightly ahead for 1–2 cores (shorter idle
//! latency), FB-DIMM ahead for 4–8 cores (more usable bandwidth).

use fbd_bench::*;
use fbd_core::smt_speedup;

fn main() {
    let exp = fbd_bench::experiment();
    banner("Figure 4", "SMT speedup, DDR2 vs FB-DIMM", &exp);

    let refs = references(Variant::Ddr2, &exp);

    let mut rows = vec![vec![
        "workload".to_string(),
        "DDR2".to_string(),
        "FBD".to_string(),
        "FBD vs DDR2".to_string(),
    ]];
    let grouped = run_grouped(
        |cores| {
            vec![
                ("DDR2".to_string(), system(Variant::Ddr2, cores)),
                ("FBD".to_string(), system(Variant::Fbd, cores)),
            ]
        },
        &exp,
    );
    for (group, workloads, results) in grouped {
        let mut ddr2 = Vec::new();
        let mut fbd = Vec::new();
        for w in &workloads {
            let s_ddr2 = results
                .iter()
                .find(|((c, n), _)| c == "DDR2" && n == w.name())
                .map(|(_, r)| smt_speedup(w, r, &refs))
                .expect("run exists");
            let s_fbd = results
                .iter()
                .find(|((c, n), _)| c == "FBD" && n == w.name())
                .map(|(_, r)| smt_speedup(w, r, &refs))
                .expect("run exists");
            ddr2.push(s_ddr2);
            fbd.push(s_fbd);
            rows.push(vec![
                w.name().to_string(),
                f3(s_ddr2),
                f3(s_fbd),
                pct(s_fbd / s_ddr2),
            ]);
        }
        rows.push(vec![
            format!("avg {group}"),
            f3(mean(&ddr2)),
            f3(mean(&fbd)),
            pct(mean(&fbd) / mean(&ddr2)),
        ]);
        rows.push(Vec::new());
    }
    emit_table("fig04_ddr2_vs_fbdimm", &rows);
    println!();
    println!("paper: single −1.5%, dual −0.6%, four +1.1%, eight +6.0% (FBD vs DDR2 averages)");
}
