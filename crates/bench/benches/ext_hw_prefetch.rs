//! Extension experiment: AMB prefetching under *hardware* cache
//! prefetching.
//!
//! The paper evaluates AMB prefetching with software prefetching and
//! predicts (§5.4): "We believe AMB prefetching will improve performance
//! similarly if hardware prefetching is used." This bench tests that
//! prediction with a stream prefetcher at the shared L2: it repeats the
//! Figure 12 matrix with HP (hardware prefetch) in place of SP.

use fbd_bench::*;
use fbd_core::smt_speedup;

fn main() {
    let exp = fbd_bench::experiment();
    banner(
        "Extension",
        "AMB prefetching × hardware stream prefetching (paper §5.4 prediction)",
        &exp,
    );

    // References: single-core DDR2 with no prefetching of any kind.
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
        "HP".to_string(),
        "AP+HP".to_string(),
        "AP+HP vs AP·HP".to_string(),
    ]];
    let grouped = run_grouped(
        |cores| {
            let mk = |ap: bool, hp: bool| {
                let mut cfg = system(if ap { Variant::FbdAp } else { Variant::Fbd }, cores);
                cfg.cpu.software_prefetch = false; // isolate HP from SP
                if hp {
                    cfg.cpu.hw_prefetch = true;
                }
                cfg
            };
            vec![
                ("none".to_string(), mk(false, false)),
                ("AP".to_string(), mk(true, false)),
                ("HP".to_string(), mk(false, true)),
                ("AP+HP".to_string(), mk(true, true)),
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
        let (ap, hp, both) = (avg("AP") / none, avg("HP") / none, avg("AP+HP") / none);
        rows.push(vec![
            group.to_string(),
            "1.000".to_string(),
            f3(ap),
            f3(hp),
            f3(both),
            f3(both / (ap * hp)),
        ]);
    }
    emit_table("ext_hw_prefetch", &rows);
    println!();
    println!("prediction under test: AP's gain should survive HP roughly the way it survives SP (Figure 12)");
}
