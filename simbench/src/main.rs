//! `simbench` — the FB-DIMM simulator's host-performance benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole repetitions of one workload (see [`workloads`]) for about
//! `--seconds`, checks every repetition's outputs, and prints each
//! metric by name with its unit, ending with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, timed on the simulator's own
//! entry points; with `--trace 1` they are the per-layer ones from
//! traced mirror-loop repetitions interleaved with untraced ones, whose
//! simulated results must match bit for bit. End-to-end host times are
//! scaled to a reference host speed by probes run between repetitions
//! (see [`calib`]). Exits 1 when any check
//! fails, 2 on bad arguments. See README.md for how to read the output.

mod calib;
mod checks;
mod gen;
mod mirror;
mod sim;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fbd_telemetry::json::Json;

use mirror::Op;
use stats::{median, quartiles};
use workloads::{run_rep, Inputs, Rep, Workload};

/// Fewest timed repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A reported metric.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Human-readable spread (`p25 .. p75, n=`) for timed metrics.
    spread: Option<String>,
}

impl Metric {
    fn plain(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            spread: None,
        }
    }

    /// The median of `samples`, with their quartiles as the spread.
    fn timed(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric {
            spread: Some(format!("p25 {q1:.6} .. p75 {q3:.6}, n={}", samples.len())),
            ..Metric::plain(name, median(samples), unit)
        }
    }
}

/// Repetition bookkeeping: what ran, what failed and why.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    /// Fingerprint of the first repetition; every later one must match.
    fingerprint: Option<u64>,
}

impl Ledger {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.reasons.push(why);
    }

    /// Runs and checks one repetition; `None` when it failed outright.
    fn rep(&mut self, inputs: &Inputs, traced: bool) -> Option<Rep> {
        self.attempted += 1;
        let rep = match catch_unwind(AssertUnwindSafe(|| run_rep(inputs, traced))) {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => {
                self.fail(format!("repetition did not run: {e}"));
                return None;
            }
            Err(_) => {
                self.fail("repetition panicked".into());
                return None;
            }
        };
        let fp = rep.sim.fingerprint();
        let mut failures = rep.sim.failures.clone();
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if first != fp => failures.push(format!(
                "{} repetition simulated a different result (fingerprint {fp:012x}, first \
                 {first:012x}; elapsed {} ns, instructions {}, reads {}, writes {}, energy {} nJ)",
                if traced { "traced" } else { "untraced" },
                rep.sim.get("sim.elapsed_ns"),
                rep.sim.get("sim.instructions"),
                rep.sim.get("sim.reads"),
                rep.sim.get("sim.writes"),
                rep.sim.get("power.dynamic_nj")
                    + rep.sim.get("power.background_nj")
                    + rep.sim.get("power.amb_nj"),
            )),
            Some(_) => {}
        }
        if failures.is_empty() {
            Some(rep)
        } else {
            self.fail(failures.join("; "));
            None
        }
    }
}

/// End-to-end metrics over untraced repetitions, host times scaled to
/// the reference host speed.
fn end_to_end(reps: &[Rep], peak_rss: f64) -> Vec<Metric> {
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    vec![
        Metric::timed(
            "sim_cycles_per_s",
            &col(&|r| r.sim.cycles / (r.loop_s * r.scale)),
            "cycles/s",
        ),
        Metric::timed(
            "host_ns_per_request",
            &col(&|r| r.loop_s * r.scale * 1e9 / r.sim.served as f64),
            "ns",
        ),
        Metric::timed("setup_s", &col(&|r| r.setup_s * r.scale), "s"),
        Metric::timed("run_s", &col(&|r| r.run_s * r.scale), "s"),
        Metric::plain("peak_rss_mb", peak_rss, "MB"),
    ]
}

/// Per-layer metrics from traced repetitions (`traced`) and the
/// untraced ones interleaved with them (`plain`).
fn per_layer(traced: &[Rep], plain: &[Rep]) -> Vec<Metric> {
    let spans: Vec<&mirror::Spans> = traced.iter().filter_map(|r| r.spans.as_ref()).collect();
    let first = spans[0];
    let col = |f: &dyn Fn(&mirror::Spans) -> f64| spans.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut out = Vec::new();
    for op in Op::ALL {
        let calls = first.calls_of(op);
        out.push(Metric::plain(
            &format!("{}.calls", op.name()),
            calls as f64,
            "count",
        ));
        out.push(Metric::timed(
            &format!("{}.s", op.name()),
            &col(&|s| s.secs_of(op)),
            "s",
        ));
        out.push(Metric::timed(
            &format!("{}.ns_per_call", op.name()),
            &col(&|s| {
                if calls == 0 {
                    0.0
                } else {
                    s.secs_of(op) * 1e9 / calls as f64
                }
            }),
            "ns",
        ));
    }
    for layer in ["cpu", "events", "memsys"] {
        out.push(Metric::timed(
            &format!("{layer}.share"),
            &col(&|s| {
                Op::ALL
                    .iter()
                    .filter(|op| op.layer() == layer)
                    .map(|&op| s.secs_of(op))
                    .sum::<f64>()
                    / s.loop_time.as_secs_f64()
            }),
            "fraction",
        ));
    }
    let served = traced[0].sim.served;
    let decides = first.calls_of(Op::MemDecide);
    out.extend([
        Metric::plain("memsys.issue_ratio", per(first.issued, decides), "ratio"),
        Metric::plain("memsys.decides_per_request", per(decides, served), "ratio"),
        Metric::plain(
            "events.handler_runs_per_pop",
            per(first.handler_runs, first.calls_of(Op::EvPop)),
            "ratio",
        ),
        Metric::plain(
            "cpu.requests_emitted",
            first.requests_emitted as f64,
            "count",
        ),
        Metric::timed(
            "cpu.warm_s",
            &traced.iter().map(|r| r.warm_s).collect::<Vec<_>>(),
            "s",
        ),
        Metric::timed(
            "trace_io.parse_s",
            &traced.iter().map(|r| r.parse_s).collect::<Vec<_>>(),
            "s",
        ),
        Metric::timed(
            "loop.unattributed_share",
            &col(&|s| s.unattributed_s() / s.loop_time.as_secs_f64()),
            "fraction",
        ),
        Metric::timed(
            "loop.collect_s",
            &col(&|s| s.collect_time.as_secs_f64()),
            "s",
        ),
        Metric::plain(
            "trace_overhead",
            median(&traced.iter().map(|r| r.loop_s).collect::<Vec<_>>())
                / median(&plain.iter().map(|r| r.loop_s).collect::<Vec<_>>()),
            "ratio",
        ),
    ]);
    let sim = &traced[0].sim;
    out.extend(
        sim.values
            .iter()
            .map(|&(name, value, unit)| Metric::plain(name, value, unit)),
    );
    out.push(Metric::plain(
        "sim.fingerprint",
        sim.fingerprint() as f64,
        "hash",
    ));
    out
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 when the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "simbench: {e}\nusage: simbench --workload <name> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let inputs = args.workload.inputs(args.seed);
    let mut ledger = Ledger::default();

    // The paper's idle-latency anchors count as one attempted check.
    ledger.attempted += 1;
    let anchors = checks::idle_latency_anchors();
    if !anchors.is_empty() {
        ledger.fail(anchors.join("; "));
    }

    let started = Instant::now();
    // One untimed repetition first: page-faults in the heap and code
    // and pins the fingerprint every timed repetition must match.
    let warmed = ledger.rep(&inputs, false).is_some();
    // Every repetition simulates the same thing, so the first one's
    // peak is the run's; read it before the probe's table adds to it.
    let peak_rss = peak_rss_mb();
    let mut host = calib::HostSpeed::new();
    // A repetition that passed its checks, scaled by the probes around it.
    let mut measured = |ledger: &mut Ledger, traced: bool| {
        ledger.rep(&inputs, traced).map(|mut r| {
            r.scale = host.scale_since_last();
            r
        })
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while warmed && ledger.failed == 0 && (plain.len() < MIN_REPS || started.elapsed() < budget) {
        if args.trace {
            // Alternate which side of a pair runs first, so drift in
            // host speed does not bias the overhead ratio.
            let traced_first = traced.len() % 2 == 0;
            for is_traced in [traced_first, !traced_first] {
                match measured(&mut ledger, is_traced) {
                    Some(r) if is_traced => traced.push(r),
                    Some(r) => plain.push(r),
                    None => break,
                }
            }
        } else {
            match measured(&mut ledger, false) {
                Some(r) => plain.push(r),
                None => break,
            }
        }
    }

    let complete = ledger.failed == 0 && !plain.is_empty() && (!args.trace || !traced.is_empty());
    let mut metrics = Vec::new();
    if complete {
        metrics = if args.trace {
            per_layer(&traced, &plain)
        } else {
            end_to_end(&plain, peak_rss)
        };
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            ledger.fail(format!("metric {} is not finite", m.name));
        }
    }

    println!(
        "simbench {} seed={} trace={} repetitions={} (+1 untimed)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        plain.len() + traced.len()
    );
    if complete && args.trace {
        for m in end_to_end(&plain, peak_rss) {
            println!("  untraced {:<22} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    if complete {
        let unscaled = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        println!(
            "  host speed: probe median {:.6} s (reference {} s, n={}); unscaled medians: \
             {:.3} cycles/s, {:.3} ns/request, setup {:.6} s, run {:.6} s",
            median(host.probe_times()),
            calib::REFERENCE_S,
            host.probe_times().len(),
            unscaled(&|r| r.sim.cycles / r.loop_s),
            unscaled(&|r| r.loop_s * 1e9 / r.sim.served as f64),
            unscaled(&|r| r.setup_s),
            unscaled(&|r| r.run_s),
        );
    }
    for m in &metrics {
        let spread = m
            .spread
            .as_deref()
            .map_or(String::new(), |s| format!("  ({s})"));
        println!("  {:<32} {:>18.6} {}{spread}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<32} {:>18.6} fraction ({} of {} attempted)",
        "failed_share",
        ledger.failed as f64 / ledger.attempted as f64,
        ledger.failed,
        ledger.attempted
    );
    if let Some(fp) = ledger.fingerprint {
        println!("  simulation fingerprint {fp:012x}");
    }
    for why in &ledger.reasons {
        println!("  FAILED: {why}");
    }
    let correct = ledger.failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(ledger.attempted as f64)),
        ("failed".into(), Json::Num(ledger.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .filter(|_| correct)
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_telemetry::json::{self, Json};

    /// One untraced and one traced repetition of `w`, shortened.
    fn short_pair(w: Workload) -> (Rep, Rep) {
        let inputs = w.inputs_scaled(3, 0.02);
        let plain = run_rep(&inputs, false).expect("untraced repetition runs");
        let traced = run_rep(&inputs, true).expect("traced repetition runs");
        (plain, traced)
    }

    #[test]
    fn mirror_loops_reproduce_the_simulator_exactly() {
        for w in Workload::ALL {
            let (plain, traced) = short_pair(w);
            assert!(
                plain.sim.failures.is_empty(),
                "{w:?}: {:?}",
                plain.sim.failures
            );
            assert_eq!(plain.sim.values, traced.sim.values, "{w:?}");
            assert_eq!(plain.sim.fingerprint(), traced.sim.fingerprint(), "{w:?}");
            assert!(plain.sim.served > 0, "{w:?} served nothing");
        }
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let ok = |n: &str| {
            !n.is_empty()
                && n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        };
        for w in Workload::ALL {
            let (plain, traced) = short_pair(w);
            let e2e = end_to_end(std::slice::from_ref(&plain), 1.0);
            let layers = per_layer(std::slice::from_ref(&traced), std::slice::from_ref(&plain));
            for (emitted, key) in [(e2e, "end_to_end"), (layers, "per_layer")] {
                for m in &emitted {
                    assert!(ok(&m.name), "bad metric name {:?}", m.name);
                }
                let got: Vec<(String, String)> = emitted
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, declared(&doc, key), "{w:?} {key}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "parser-ddr2",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(ok.workload, Workload::ParserDdr2);
        assert!(ok.trace && ok.seed == 4 && ok.seconds == 2.0);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "mc8-fbdap", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "mc8-fbdap", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }
}
