//! Figure 7: overall performance of AMB prefetching — SMT speedup of
//! FB-DIMM with (FBD-AP) and without (FBD) prefetching, per workload.
//!
//! Reference points: each program alone on single-core two-logical-
//! channel DDR2 (the default geometry). Expected shape (paper §5.2):
//! FBD-AP beats FBD on *every* workload, averaging +16.0% / +19.4% /
//! +16.3% / +15.0% on 1/2/4/8 cores, and FBD-AP also beats DDR2 on
//! single-core workloads (unlike plain FBD).

use fbd_bench::*;
use fbd_core::smt_speedup;

fn main() {
    let exp = fbd_bench::experiment();
    banner("Figure 7", "FBD vs FBD-AP SMT speedup", &exp);

    let refs = references(Variant::Ddr2, &exp);
    let mut rows = vec![vec![
        "workload".to_string(),
        "FBD".to_string(),
        "FBD-AP".to_string(),
        "AP gain".to_string(),
    ]];
    let mut negative = Vec::new();
    let grouped = run_grouped(
        |cores| {
            vec![
                ("FBD".to_string(), system(Variant::Fbd, cores)),
                ("FBD-AP".to_string(), system(Variant::FbdAp, cores)),
            ]
        },
        &exp,
    );
    for (group, workloads, results) in grouped {
        let (mut base, mut ap) = (vec![], vec![]);
        for w in &workloads {
            let s_base = results
                .iter()
                .find(|((c, n), _)| c == "FBD" && n == w.name())
                .map(|(_, r)| smt_speedup(w, r, &refs))
                .expect("run");
            let s_ap = results
                .iter()
                .find(|((c, n), _)| c == "FBD-AP" && n == w.name())
                .map(|(_, r)| smt_speedup(w, r, &refs))
                .expect("run");
            if s_ap < s_base {
                negative.push(w.name().to_string());
            }
            base.push(s_base);
            ap.push(s_ap);
            rows.push(vec![
                w.name().to_string(),
                f3(s_base),
                f3(s_ap),
                pct(s_ap / s_base),
            ]);
        }
        rows.push(vec![
            format!("avg {group}"),
            f3(mean(&base)),
            f3(mean(&ap)),
            pct(mean(&ap) / mean(&base)),
        ]);
        rows.push(Vec::new());
    }
    emit_table("fig07_amb_prefetch", &rows);
    println!();
    println!("paper: average AP gains +16.0% / +19.4% / +16.3% / +15.0% (1/2/4/8 cores); no workload negative");
    if negative.is_empty() {
        println!("reproduced: no workload has negative speedup");
    } else {
        println!(
            "NOTE: negative speedups observed on: {}",
            negative.join(", ")
        );
    }
}
