//! Figure 12: interaction of AMB prefetching (AP) with software cache
//! prefetching (SP) — relative SMT speedup of AP, SP and AP+SP over a
//! system with neither.
//!
//! Expected shape (paper §5.4): SP alone beats AP alone on 1–4 cores but
//! fades with core count (below AP at 8 cores); AP+SP ≈ AP + SP — the
//! two prefetchers are complementary.

use fbd_bench::*;
use fbd_core::smt_speedup;

fn main() {
    let exp = fbd_bench::experiment();
    banner("Figure 12", "AMB prefetching vs software prefetching", &exp);

    // References: single-core DDR2 with software prefetching *off*, so
    // the "none" system normalizes near 1.0.
    let mut ref_cfg = system(Variant::Ddr2, 1);
    ref_cfg.cpu.software_prefetch = false;
    let refs = {
        let names = benchmark_names();
        let ipcs = parallel_map(&names, |name| {
            fbd_core::experiment::reference_ipcs(&ref_cfg, &[name], &exp)
                .remove(*name)
                .expect("reference")
        });
        names
            .into_iter()
            .map(String::from)
            .zip(ipcs)
            .collect::<std::collections::HashMap<_, _>>()
    };

    let mut rows = vec![vec![
        "group".to_string(),
        "none".to_string(),
        "AP".to_string(),
        "SP".to_string(),
        "AP+SP".to_string(),
        "AP+SP vs AP·SP".to_string(),
    ]];
    let grouped = run_grouped(
        |cores| {
            let mk = |ap: bool, sp: bool| {
                let mut cfg = system(if ap { Variant::FbdAp } else { Variant::Fbd }, cores);
                cfg.cpu.software_prefetch = sp;
                cfg
            };
            vec![
                ("none".to_string(), mk(false, false)),
                ("AP".to_string(), mk(true, false)),
                ("SP".to_string(), mk(false, true)),
                ("AP+SP".to_string(), mk(true, true)),
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
        let none = avg("none");
        let (ap, sp, both) = (avg("AP") / none, avg("SP") / none, avg("AP+SP") / none);
        // Additivity check: AP+SP speedup vs the product of the
        // individual speedups (1.0 = perfectly complementary).
        let additivity = both / (ap * sp);
        rows.push(vec![
            group.to_string(),
            "1.000".to_string(),
            f3(ap),
            f3(sp),
            f3(both),
            f3(additivity),
        ]);
    }
    emit_table("fig12_sw_prefetch", &rows);
    println!();
    println!("paper: SP > AP on 1-4 cores, AP > SP at 8 cores; AP+SP close to the sum of the individual gains");
}
