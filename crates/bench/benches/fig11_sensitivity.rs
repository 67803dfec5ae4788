//! Figure 11: sensitivity of AMB-prefetching performance to the region
//! size (#CL), prefetch-buffer size and set associativity, normalized to
//! the default setting (4 CL, 64 entries, fully associative).
//!
//! Expected shape (paper §5.3): 1–2 cores prefer larger K; 4 CL is best
//! for 4–8 cores; 32–128 entries perform within a few percent; two-way
//! associativity reaches ≥98% of fully associative, direct mapping only
//! 87–95%.

use fbd_bench::*;
use fbd_core::smt_speedup;
use fbd_types::config::Associativity;

fn main() {
    let exp = fbd_bench::experiment();
    banner(
        "Figure 11",
        "sensitivity to #CL, buffer size, associativity",
        &exp,
    );

    let points: Vec<(String, u32, u32, Associativity)> = vec![
        ("#CL=2".into(), 2, 64, Associativity::Full),
        ("#CL=4 (default)".into(), 4, 64, Associativity::Full),
        ("#CL=8".into(), 8, 64, Associativity::Full),
        ("#entry=32".into(), 4, 32, Associativity::Full),
        ("#entry=128".into(), 4, 128, Associativity::Full),
        ("Set=1(direct)".into(), 4, 64, Associativity::Direct),
        ("Set=2".into(), 4, 64, Associativity::Ways(2)),
        ("Set=4".into(), 4, 64, Associativity::Ways(4)),
    ];
    let refs = references(Variant::Ddr2, &exp);

    let mut rows = vec![{
        let mut h = vec!["config".to_string()];
        h.extend(workload_groups().iter().map(|(g, _)| g.to_string()));
        h
    }];
    let mut table: Vec<Vec<String>> = points.iter().map(|(l, _, _, _)| vec![l.clone()]).collect();
    let grouped = run_grouped(
        |cores| {
            points
                .iter()
                .map(|(label, k, e, a)| (label.clone(), ap_system(cores, *k, *e, *a)))
                .collect()
        },
        &exp,
    );
    for (_, workloads, results) in grouped {
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
        let default = avg("#CL=4 (default)");
        for (i, (label, _, _, _)) in points.iter().enumerate() {
            table[i].push(f3(avg(label) / default));
        }
    }
    rows.extend(table);
    emit_table("fig11_sensitivity", &rows);
    println!();
    println!("paper: all normalized to #CL=4/64-entry/full; direct mapping 95.3/90.5/87.4/87.0%, two-way ≥98%");
}
