//! Figure 6: bandwidth impact on performance — sweeping the channel
//! data rate (533/667/800 MT/s) and the number of logical channels
//! (1/2/4) for both DDR2 and FB-DIMM.
//!
//! Expected shape (paper §5.1): performance rises with both knobs;
//! multi-core workloads gain far more from extra channels (paper: +75%
//! from 1→2 channels on 8 cores vs +8.8% on 1 core).

use fbd_bench::*;
use fbd_core::smt_speedup;
use fbd_types::time::DataRate;

fn main() {
    let exp = fbd_bench::experiment();
    banner(
        "Figure 6",
        "performance vs data rate and channel count",
        &exp,
    );

    let refs = references(Variant::Ddr2, &exp);
    let rates = [
        ("533MT/s", DataRate::MTS533),
        ("667MT/s", DataRate::MTS667),
        ("800MT/s", DataRate::MTS800),
    ];
    let channel_counts = [1u32, 2, 4];

    let grouped = run_grouped(
        |cores| {
            let mut configs = Vec::new();
            for variant in [Variant::Ddr2, Variant::Fbd] {
                for (rate_label, rate) in rates {
                    for ch in channel_counts {
                        let cfg = with_channels_and_rate(system(variant, cores), ch, rate);
                        configs.push((format!("{}/{}/{}ch", variant.label(), rate_label, ch), cfg));
                    }
                }
            }
            configs
        },
        &exp,
    );
    for (group, workloads, results) in grouped {
        let mut rows = vec![vec![
            group.to_string(),
            "1ch".to_string(),
            "2ch".to_string(),
            "4ch".to_string(),
        ]];
        for variant in [Variant::Ddr2, Variant::Fbd] {
            for (rate_label, _) in rates {
                let mut cells = vec![format!("{} {}", variant.label(), rate_label)];
                for ch in channel_counts {
                    let label = format!("{}/{}/{}ch", variant.label(), rate_label, ch);
                    let speedups: Vec<f64> = workloads
                        .iter()
                        .map(|w| {
                            let r = &results
                                .iter()
                                .find(|((c, n), _)| *c == label && n == w.name())
                                .expect("run")
                                .1;
                            smt_speedup(w, r, &refs)
                        })
                        .collect();
                    cells.push(f3(mean(&speedups)));
                }
                rows.push(cells);
            }
        }
        emit_table(&format!("fig06_bandwidth_scaling_{group}"), &rows);
        println!();
    }
    println!("paper: FBD 533→667 gains 12.7% (1-core) / 20.5% (4-core); 1→2 channels gains 8.8% (1-core) / 75.1% (8-core)");
}
