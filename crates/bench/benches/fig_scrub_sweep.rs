//! Reliability-lifecycle figure: what the closed error loop costs and
//! what it buys.
//!
//! Sweeps link bit-error rate against patrol-scrub aggressiveness on
//! all four paper systems and reports IPC, p99 demand-read latency,
//! total energy, and the undetected-error rate (CRC escapes per
//! injected corruption). When errors are injected the full recovery
//! loop is armed — 8 CRC check bits (so a realistic escape channel
//! exists), lane fail-back after a 2 µs quiet period, and an 8-line
//! prefetch re-issue budget — matching the CLI's
//! `--crc-bits 8 --failback 2000 --reissue 8` spelling.
//!
//! Expected shape: scrubbing is pure overhead at BER 0 (bandwidth and
//! energy, no benefit); as BER grows, faster patrol intervals convert
//! poisoned lines back to clean between demand touches, trading a
//! small IPC/energy cost for a lower standing poisoned-line count.
//! DDR2 has no serial links, so its error counters stay zero and only
//! the scrub-traffic overhead registers.
//!
//! Output: `BENCH_scrub_sweep.json` in `$FBD_OUT_DIR` (or the working
//! directory), which is created before the first point runs. Every
//! metric is asserted finite, and every point asserts the
//! stage-sum-equals-latency invariant with scrub and re-issue traffic
//! in flight.

use fbd_bench::*;
use fbd_telemetry::Json;
use fbd_types::config::{ScrubPolicyKind, SystemConfig};

const BERS: [f64; 3] = [0.0, 1e-5, 1e-4];
/// (label, patrol interval in ns; 0 = scrubbing off).
const SCRUBS: [(&str, u64); 3] = [("off", 0), ("patrol-300", 300), ("patrol-3000", 3000)];
const WORKLOAD: &str = "4C-1";

fn sweep_config(variant: Variant, cores: u32, ber: f64, scrub_interval_ns: u64) -> SystemConfig {
    let mut cfg = system(variant, cores);
    cfg.mem.faults.ber = ber;
    if ber > 0.0 {
        cfg.mem.faults.crc_bits = 8;
        cfg.mem.faults.failback_quiet_ns = 2000;
        cfg.mem.faults.reissue_budget = 8;
    }
    if scrub_interval_ns > 0 {
        cfg.mem.faults.scrub = ScrubPolicyKind::Patrol;
        cfg.mem.faults.scrub_interval_ns = scrub_interval_ns;
    }
    cfg.validate().expect("sweep point validates");
    cfg
}

fn main() {
    let out = JsonOut::from_env("BENCH_scrub_sweep.json");
    let exp = fbd_bench::experiment();
    banner(
        "Scrub sweep",
        "IPC, p99 latency, energy and undetected-error rate vs BER x scrub rate",
        &exp,
    );

    let workload = fbd_workloads::find(WORKLOAD).expect("paper workload");
    let workloads = vec![workload];
    let cores = workloads[0].cores();

    let mut rows = vec![vec![
        "system".to_string(),
        "BER".to_string(),
        "scrub".to_string(),
        "mean IPC".to_string(),
        "p99 read ns".to_string(),
        "energy uJ".to_string(),
        "undetected rate".to_string(),
        "scrub reads".to_string(),
        "rewrites".to_string(),
        "reissued".to_string(),
    ]];
    let mut points = Vec::new();
    for variant in [
        Variant::Ddr2,
        Variant::Fbd,
        Variant::FbdAp,
        Variant::FbdApfl,
    ] {
        let configs: Vec<(String, SystemConfig)> = BERS
            .iter()
            .flat_map(|&ber| {
                SCRUBS.iter().map(move |&(slabel, interval)| {
                    (
                        format!("{ber:.0e}/{slabel}"),
                        sweep_config(variant, cores, ber, interval),
                    )
                })
            })
            .collect();
        let results = run_matrix(&configs, &workloads, &exp);
        for ((label, _), r) in &results {
            let ipc = mean(&r.ipcs());
            let p99 = r.read_latency_percentile_ns(0.99);
            let energy_uj = r.energy.total_nj() / 1_000.0;
            // One escaped corruption per injected one would be rate
            // 1.0; a clean channel reports 0 by convention.
            let (injected, escaped, scrub_reads, scrub_rewrites, reissued, poisoned) = r
                .faults
                .as_ref()
                .map(|fr| {
                    (
                        fr.counters.injected,
                        fr.counters.escaped,
                        fr.counters.scrub_reads,
                        fr.counters.scrub_rewrites,
                        fr.counters.reissued,
                        fr.silent.poisoned_lines,
                    )
                })
                .unwrap_or_default();
            let undetected = escaped as f64 / injected.max(1) as f64;
            // The stamped-lifecycle invariant must survive synthesized
            // scrub/re-issue traffic: every read's stage durations sum
            // to its end-to-end latency.
            assert_eq!(
                r.profile.mismatches(),
                0,
                "{} {label}: stage-sum invariant violated",
                variant.label()
            );
            for (name, v) in [
                ("ipc", ipc),
                ("p99", p99),
                ("energy", energy_uj),
                ("undetected", undetected),
            ] {
                assert!(
                    v.is_finite(),
                    "{} {label}: {name} must be finite, got {v}",
                    variant.label()
                );
            }
            let (ber_label, scrub_label) = label.split_once('/').expect("label shape");
            rows.push(vec![
                variant.label().to_string(),
                ber_label.to_string(),
                scrub_label.to_string(),
                f3(ipc),
                f2(p99),
                f2(energy_uj),
                format!("{undetected:.2e}"),
                scrub_reads.to_string(),
                scrub_rewrites.to_string(),
                reissued.to_string(),
            ]);
            points.push(Json::Obj(vec![
                ("system".into(), Json::from(variant.label())),
                ("ber".into(), Json::from(ber_label)),
                ("scrub".into(), Json::from(scrub_label)),
                ("mean_ipc".into(), Json::from(ipc)),
                ("p99_read_ns".into(), Json::from(p99)),
                ("energy_uj".into(), Json::from(energy_uj)),
                ("undetected_rate".into(), Json::from(undetected)),
                ("injected".into(), Json::from(injected)),
                ("escaped".into(), Json::from(escaped)),
                ("scrub_reads".into(), Json::from(scrub_reads)),
                ("scrub_rewrites".into(), Json::from(scrub_rewrites)),
                ("reissued".into(), Json::from(reissued)),
                ("poisoned_lines".into(), Json::from(poisoned)),
            ]));
        }
    }
    emit_table("fig_scrub_sweep", &rows);
    println!();
    println!(
        "model: BER>0 arms the full loop (crc-bits 8, failback 2000ns, reissue 8); \
         scrub sweeps ride idle scheduler slots only"
    );

    let doc = Json::Obj(vec![
        ("workload".into(), Json::from(WORKLOAD)),
        ("budget".into(), Json::from(exp.budget)),
        ("points".into(), Json::Arr(points)),
    ]);
    out.write(&doc);
}
