//! Figure 9: decomposition of the AMB-prefetching performance gain into
//! bandwidth-utilization improvement and idle-latency reduction, via the
//! FBD-APFL ablation (hits skip the bank but are charged full latency).
//!
//! FBD→FBD-APFL isolates the bandwidth-utilization gain;
//! FBD-APFL→FBD-AP isolates the latency-reduction gain. Expected shape
//! (paper §5.2): the two gains are comparable, with bandwidth
//! utilization mattering more as cores increase (8.2/10.1/8.5/9.2% vs
//! 7.1/8.5/7.2/5.3% on 1/2/4/8 cores).

use fbd_bench::*;
use fbd_core::smt_speedup;

fn main() {
    let exp = fbd_bench::experiment();
    banner("Figure 9", "gain decomposition via FBD-APFL", &exp);

    let refs = references(Variant::Ddr2, &exp);
    let mut rows = vec![vec![
        "group".to_string(),
        "FBD".to_string(),
        "FBD-APFL".to_string(),
        "FBD-AP".to_string(),
        "bandwidth gain".to_string(),
        "latency gain".to_string(),
    ]];
    let grouped = run_grouped(
        |cores| {
            vec![
                ("FBD".to_string(), system(Variant::Fbd, cores)),
                ("FBD-APFL".to_string(), system(Variant::FbdApfl, cores)),
                ("FBD-AP".to_string(), system(Variant::FbdAp, cores)),
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
        let (base, apfl, ap) = (avg("FBD"), avg("FBD-APFL"), avg("FBD-AP"));
        rows.push(vec![
            group.to_string(),
            f3(base),
            f3(apfl),
            f3(ap),
            pct(apfl / base),
            pct(ap / apfl),
        ]);
    }
    emit_table("fig09_gain_decomposition", &rows);
    println!();
    println!(
        "paper: bandwidth gains 8.2/10.1/8.5/9.2%, latency gains 7.1/8.5/7.2/5.3% (1/2/4/8 cores)"
    );
}
