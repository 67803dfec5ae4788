//! Golden-parity suite for the composable substrate API and the event
//! queue.
//!
//! The registry path must be a pure re-plumbing: selecting a system
//! through `--substrate` (registry spelling) must produce stats JSON
//! byte-identical to the historical `--system` spelling on every paper
//! system, with and without fault injection; the registry's `fcfs` and
//! `hit-first` schedulers must be observably different policies; and
//! the extension entries (`ddr3-1066`, `fcfs`) must be reachable by
//! name only, with their names echoed in the stats document's
//! composition metadata.
//!
//! The event wheel must likewise be a pure re-plumbing of the event
//! queue: every run under the default calendar queue must produce
//! stats JSON byte-identical to the same run forced onto the seed
//! binary heap with `FBD_EVENT_QUEUE=heap` — across the four paper
//! systems and under fault injection.
//! Open-loop trace replay drives the same queue, so `fbdsim replay` of
//! a recorded trace must print byte-identical reports under both.
//!
//! Last, cross-commit goldens: the runs below must reproduce the outputs
//! committed under `tests/golden/` byte for byte (host timings
//! stripped), so a refactor is checked against the code it replaced.
//! A library-level golden does the same for the memory layouts the CLI
//! cannot select (two ranks per DIMM, refresh on, open page).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use fbd_core::{RunResult, RunSpec};
use fbd_telemetry::{json, Json, TelemetryConfig};
use fbd_types::config::{Interleaving, MemoryConfig, PagePolicy, RefreshConfig};
use fbd_types::stats::DramOpCounts;
use fbd_types::substrate::substrates;

const BUDGET: &str = "5000";

fn fbdsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbdsim"))
        .args(args)
        .output()
        .expect("fbdsim runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// A scratch path no other call shares: tests run on parallel threads,
/// and two runs that differ only in their extra flags must not write
/// (and delete) each other's output file.
fn tmp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fbdsim-parity-{}-{n}-{name}", std::process::id()))
}

/// Removes every `host` object (top-level and per-point) and
/// re-serializes: the host block carries wall-clock timings that
/// legitimately differ between two invocations of the same run, so
/// byte-identity is asserted on everything else.
fn strip_host(text: &str) -> String {
    fn strip(j: &mut Json) {
        match j {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != "host");
                for (_, v) in fields.iter_mut() {
                    strip(v);
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut doc = json::parse(text).expect("well-formed stats JSON");
    strip(&mut doc);
    doc.to_json_pretty(2)
}

/// Runs `fbdsim run` selecting `system` through `flag` (`--system` or
/// `--substrate`) with `envs` set, and returns the pretty-printed
/// stats JSON bytes with the wall-clock-bearing `host` object
/// stripped.
fn stats_via_env(flag: &str, system: &str, extra: &[&str], envs: &[(&str, &str)]) -> String {
    let tag = envs.iter().map(|(_, v)| *v).collect::<Vec<_>>().join("-");
    let path = tmp_path(&format!(
        "{}-{system}-{tag}.json",
        flag.trim_start_matches('-')
    ));
    let path_s = path.to_str().unwrap().to_string();
    let mut args = vec![
        "run",
        "--workload",
        "1C-swim",
        flag,
        system,
        "--budget",
        BUDGET,
        "--stats-json",
        &path_s,
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_fbdsim"))
        .args(&args)
        .envs(envs.iter().copied())
        .output()
        .expect("fbdsim runs");
    assert_eq!(
        exit_code(&out),
        0,
        "fbdsim {args:?} (env {envs:?}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    strip_host(&text)
}

/// [`stats_via_env`] with no environment overrides.
fn stats_via(flag: &str, system: &str, extra: &[&str]) -> String {
    stats_via_env(flag, system, extra, &[])
}

#[test]
fn substrate_flag_is_byte_identical_to_system_flag_on_all_paper_systems() {
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let old = stats_via("--system", system, &[]);
        let new = stats_via("--substrate", system, &[]);
        assert_eq!(
            old, new,
            "`--substrate {system}` diverged from `--system {system}`"
        );
        // The parity is not vacuous: the document names the substrate.
        let doc = json::parse(&old).expect("well-formed stats JSON");
        let comp = doc.get("composition").expect("composition metadata");
        assert_eq!(
            comp.get("substrate").and_then(Json::as_str),
            Some(system),
            "composition must echo the selected substrate"
        );
    }
}

#[test]
fn parity_holds_under_fault_injection() {
    // Fault flags mutate the config away from the registered preset;
    // the substrate label and the output bytes must both survive that.
    let faults = ["--fault-ber", "1e-5", "--fault-seed", "3"];
    for system in ["fbd", "fbd-ap"] {
        let old = stats_via("--system", system, &faults);
        let new = stats_via("--substrate", system, &faults);
        assert_eq!(old, new, "fault-injected `{system}` runs diverged");
        let doc = json::parse(&old).expect("well-formed stats JSON");
        assert!(doc.get("errors").is_some(), "faulted run reports errors");
        let comp = doc.get("composition").expect("composition metadata");
        assert_eq!(comp.get("substrate").and_then(Json::as_str), Some(system));
    }
}

#[test]
fn explicit_reliability_off_spellings_are_byte_identical_to_absent() {
    // Every off spelling of the recovery knobs must stay on the
    // zero-cost path: same bytes as a run with no flags at all, and no
    // `errors` object grown.
    let baseline = stats_via("--system", "fbd-ap", &[]);
    assert!(
        !baseline.contains("\"errors\""),
        "clean baseline must not carry an errors object"
    );
    for extra in [
        &["--scrub", "none"][..],
        &["--fault-ber", "0"],
        &["--fault-ber", "0", "--crc-bits", "0"],
        &["--fault-ber", "0", "--failback", "0"],
        &["--fault-ber", "0", "--reissue", "0"],
        &[
            "--fault-ber",
            "0",
            "--crc-bits",
            "0",
            "--scrub",
            "none",
            "--failback",
            "0",
            "--reissue",
            "0",
        ],
    ] {
        let off = stats_via("--system", "fbd-ap", extra);
        assert_eq!(
            baseline, off,
            "off spelling {extra:?} must not change a byte"
        );
    }
}

#[test]
fn parity_holds_with_the_full_reliability_lifecycle_armed() {
    let flags = [
        "--fault-ber",
        "1e-4",
        "--fault-seed",
        "3",
        "--crc-bits",
        "4",
        "--scrub",
        "patrol",
        "--failback",
        "2000",
        "--reissue",
        "8",
    ];
    let old = stats_via("--system", "fbd-ap", &flags);
    let new = stats_via("--substrate", "fbd-ap", &flags);
    assert_eq!(old, new, "armed lifecycle diverged between spellings");
    let doc = json::parse(&old).expect("well-formed stats JSON");
    let errors = doc.get("errors").expect("armed run reports errors");
    assert!(
        errors.get("silent").is_some(),
        "silent-corruption accounting must be exported"
    );
}

#[test]
fn explicit_default_scheduler_is_byte_identical_to_none() {
    let implicit = stats_via("--system", "fbd-ap", &[]);
    let explicit = stats_via("--system", "fbd-ap", &["--scheduler", "hit-first"]);
    assert_eq!(
        implicit, explicit,
        "spelling out the default scheduler must not change a byte"
    );
}

/// The scalar results that tell two runs apart (RunResult has no
/// blanket equality).
fn fingerprint(r: &RunResult) -> (f64, Vec<f64>, u64, u64, u64, f64) {
    (
        r.elapsed.as_ns_f64(),
        r.ipcs(),
        r.mem.demand_reads,
        r.mem.writes,
        r.mem.dram_ops.act_pre,
        r.energy.total_nj(),
    )
}

#[test]
fn registry_fcfs_and_hit_first_are_observably_different() {
    // A four-core mix keeps the transaction queue deep enough that
    // hit-first actually reorders (a 1-core stream rarely gives the
    // scheduler more than one ready candidate), so selecting `fcfs` by
    // name must reach a different policy than the default.
    let base = || {
        RunSpec::paper_default(4)
            .workload("4C-1")
            .memory(substrates().get("fbd").unwrap().config())
            .budget(20_000)
            .seed(42)
    };
    let fcfs = base().try_scheduler("fcfs").expect("registered").run();
    let hit_first = base().run();
    assert_ne!(
        fingerprint(&hit_first),
        fingerprint(&fcfs),
        "fcfs and hit-first must be observably different policies"
    );
}

#[test]
fn extension_substrate_and_scheduler_compose_by_name_only() {
    // ddr3-1066 and fcfs exist only as registry entries — no enum
    // variant, no core edits. A run composed from both must work and
    // must echo both names in the stats metadata.
    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--substrate",
        "ddr3-1066",
        "--scheduler",
        "fcfs",
        "--budget",
        BUDGET,
        "--json",
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "ddr3-1066 + fcfs run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("stats JSON");
    let comp = doc.get("composition").expect("composition metadata");
    assert_eq!(
        comp.get("substrate").and_then(Json::as_str),
        Some("ddr3-1066")
    );
    assert_eq!(comp.get("scheduler").and_then(Json::as_str), Some("fcfs"));
    assert!(
        doc.get("ipc_sum").and_then(Json::as_f64).unwrap() > 0.0,
        "the composed system must actually retire instructions"
    );
}

#[test]
fn unknown_registry_names_exit_2_with_the_available_list() {
    let out = fbdsim(&["run", "--workload", "1C-swim", "--substrate", "ddr9"]);
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown substrate `ddr9`"), "{err}");
    assert!(err.contains("available:"), "{err}");
    assert!(
        err.contains("ddr3-1066"),
        "listing names the entries: {err}"
    );

    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd",
        "--scheduler",
        "elevator",
    ]);
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheduler `elevator`"), "{err}");
    assert!(err.contains("hit-first|fcfs"), "{err}");
}

const WHEEL: &[(&str, &str)] = &[("FBD_EVENT_QUEUE", "wheel")];
const HEAP: &[(&str, &str)] = &[("FBD_EVENT_QUEUE", "heap")];

#[test]
fn event_wheel_is_byte_identical_to_seed_heap_on_all_paper_systems() {
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let wheel = stats_via_env("--system", system, &[], WHEEL);
        let heap = stats_via_env("--system", system, &[], HEAP);
        assert_eq!(
            wheel, heap,
            "event wheel diverged from the seed heap on `{system}`"
        );
    }
}

#[test]
fn event_wheel_heap_parity_holds_under_fault_injection() {
    // Fault injection exercises the drop/retry event paths (extra
    // ReadDone orderings and redundant Decide wakeups — exactly where
    // the wheel's dedup could go wrong).
    let faults = ["--fault-ber", "1e-5", "--fault-seed", "3"];
    let wheel = stats_via_env("--system", "fbd-ap", &faults, WHEEL);
    let heap = stats_via_env("--system", "fbd-ap", &faults, HEAP);
    assert_eq!(wheel, heap, "faulted run diverged between queue kinds");
    let doc = json::parse(&wheel).expect("well-formed stats JSON");
    assert!(doc.get("errors").is_some(), "faulted run reports errors");
}

#[test]
fn event_wheel_heap_parity_holds_with_recovery_traffic() {
    // Scrub sweeps and prefetch re-issue ride idle Decide events, so
    // they are exactly the traffic that would expose a queue-ordering
    // difference between the wheel and the seed heap.
    let flags = [
        "--fault-ber",
        "1e-4",
        "--fault-seed",
        "3",
        "--crc-bits",
        "4",
        "--scrub",
        "patrol",
        "--reissue",
        "8",
    ];
    let wheel = stats_via_env("--system", "fbd-ap", &flags, WHEEL);
    let heap = stats_via_env("--system", "fbd-ap", &flags, HEAP);
    assert_eq!(wheel, heap, "recovery traffic diverged between queues");
}

#[test]
fn replay_is_byte_identical_under_wheel_and_heap() {
    let trace = tmp_path("replay-trace.csv");
    let trace_s = trace.to_str().unwrap();
    let out = fbdsim(&[
        "record",
        "--workload",
        "1C-swim",
        "--system",
        "fbd",
        "--budget",
        BUDGET,
        "--out",
        trace_s,
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "record failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay = |system: &str, envs: &[(&str, &str)]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fbdsim"))
            .args(["replay", "--trace", trace_s, "--system", system])
            .envs(envs.iter().copied())
            .output()
            .expect("fbdsim runs");
        assert_eq!(
            exit_code(&out),
            0,
            "replay on `{system}` (env {envs:?}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 report")
    };
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let wheel = replay(system, WHEEL);
        let heap = replay(system, HEAP);
        assert_eq!(
            wheel, heap,
            "replay on `{system}` diverged between queue kinds"
        );
        assert!(wheel.contains("read latency"), "{wheel}");
    }
    std::fs::remove_file(&trace).ok();
}

#[test]
fn system_and_substrate_flags_are_mutually_exclusive() {
    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd",
        "--substrate",
        "fbd",
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("aliases"));
}

// ---------------------------------------------------------------------
// Cross-commit goldens.
//
// The tests above compare two spellings (or two event queues) inside
// one binary, so a change to what gets simulated passes them as long as
// both sides move together. These compare against outputs committed
// under `tests/golden/`, so a refactor that must be bit-identical is
// checked against the code it replaced. The runs are chosen to reach
// the controller's backlog (requests that arrive while the 64-entry
// queue is full), fault recovery, a non-default scheduler and open-loop
// replay on every paper system.

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file)
}

/// The first JSON path at which `a` and `b` differ (`$` is the root),
/// or `None` when they are equal.
fn first_difference(a: &Json, b: &Json, path: &str) -> Option<String> {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (i, (ka, va)) in fa.iter().enumerate() {
                let Some((kb, vb)) = fb.get(i) else {
                    return Some(format!("{path}.{ka}"));
                };
                if ka != kb {
                    return Some(format!("{path}.{ka}"));
                }
                if let Some(p) = first_difference(va, vb, &format!("{path}.{ka}")) {
                    return Some(p);
                }
            }
            (fa.len() != fb.len()).then(|| format!("{path}.{}", fb[fa.len()].0))
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                if let Some(p) = first_difference(va, vb, &format!("{path}[{i}]")) {
                    return Some(p);
                }
            }
            (xa.len() != xb.len()).then(|| format!("{path}[{}]", xa.len().min(xb.len())))
        }
        _ => (a != b).then(|| path.to_string()),
    }
}

/// Runs `fbdsim <args>` and returns its stdout, failing the test on a
/// non-zero exit.
fn stdout_of(args: &[&str]) -> String {
    let out = fbdsim(args);
    assert_eq!(
        exit_code(&out),
        0,
        "fbdsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn read_golden(file: &str) -> String {
    let path = golden_path(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs `fbdsim <args>` (which print one stats JSON document) and
/// checks the host-stripped document against `tests/golden/<file>`,
/// byte for byte after both are re-serialized by the same writer.
fn assert_json_golden(file: &str, args: &[&str]) {
    let fresh = strip_host(&stdout_of(args));
    let golden = strip_host(&read_golden(file));
    if fresh != golden {
        let a = json::parse(&golden).expect("golden JSON");
        let b = json::parse(&fresh).expect("fresh JSON");
        let at = first_difference(&a, &b, "$").unwrap_or_else(|| "$".into());
        panic!(
            "`fbdsim {}` no longer matches tests/golden/{file}: first difference at {at}\n\
             regenerate (only for an intended change of results) with:\n  \
             cargo run --release --offline --bin fbdsim -- {} | jq 'del(..|.host?)' > tests/golden/{file}",
            args.join(" "),
            args.join(" "),
        );
    }
}

/// Runs `fbdsim compare <args> --json` against a JSON golden.
fn assert_compare_golden(file: &str, args: &[&str]) {
    let mut full = vec!["compare"];
    full.extend_from_slice(args);
    full.push("--json");
    assert_json_golden(file, &full);
}

/// Checks `fresh` against the text golden `tests/golden/<file>` and
/// names the first differing line and the command that regenerates it.
fn assert_text_golden(file: &str, fresh: &str, regenerate: &str) {
    let golden = read_golden(file);
    if fresh != golden {
        let (n, (want, got)) = golden
            .lines()
            .chain(std::iter::repeat(""))
            .zip(fresh.lines().chain(std::iter::repeat("")))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .expect("the texts differ somewhere");
        panic!(
            "output no longer matches tests/golden/{file}: first difference on line {}\n  \
             golden: {want}\n  fresh:  {got}\n\
             regenerate (only for an intended change of results) with:\n  {regenerate}",
            n + 1,
        );
    }
}

/// The human `run` report without its `  host ` line, whose wall-clock
/// figures legitimately differ between two invocations.
fn without_host_line(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("  host "))
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// Checks the stdout of `fbdsim <args>` against a text golden; with
/// `strip_host`, the human report's `  host ` line is dropped first.
fn assert_stdout_golden(file: &str, args: &[&str], strip_host: bool) {
    let mut fresh = stdout_of(args);
    let mut regenerate = format!(
        "cargo run --release --offline --bin fbdsim -- {}",
        args.join(" ")
    );
    if strip_host {
        fresh = without_host_line(&fresh);
        regenerate.push_str(" | grep -v '^  host '");
    }
    assert_text_golden(file, &fresh, &format!("{regenerate} > tests/golden/{file}"));
}

#[test]
fn golden_compare_8c1_with_a_backlogged_queue() {
    assert_compare_golden(
        "compare_8c1.json",
        &["--workload", "8C-1", "--budget", "100000"],
    );
}

#[test]
fn golden_compare_4c1_with_the_recovery_lifecycle_armed() {
    assert_compare_golden(
        "compare_4c1_faults.json",
        &[
            "--workload",
            "4C-1",
            "--budget",
            "100000",
            "--fault-ber",
            "1e-3",
            "--fault-seed",
            "7",
            "--crc-bits",
            "4",
            "--scrub",
            "patrol",
            "--scrub-interval-ns",
            "200",
            "--failback",
            "2000",
            "--reissue",
            "8",
        ],
    );
}

#[test]
fn golden_compare_4c1_under_fcfs() {
    assert_compare_golden(
        "compare_4c1_fcfs.json",
        &[
            "--workload",
            "4C-1",
            "--budget",
            "20000",
            "--scheduler",
            "fcfs",
        ],
    );
}

#[test]
fn golden_replay_of_an_8c1_trace_on_every_paper_system() {
    const FILE: &str = "replay_8c1.txt";
    let trace = tmp_path("golden-8c1.csv");
    let trace_s = trace.to_str().unwrap();
    let rec = [
        "record",
        "--workload",
        "8C-1",
        "--system",
        "fbd-ap",
        "--budget",
        "20000",
        "--out",
        trace_s,
    ];
    let out = fbdsim(&rec);
    assert_eq!(
        exit_code(&out),
        0,
        "record failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut fresh = String::new();
    for system in ["ddr2", "fbd", "fbd-ap", "fbd-apfl"] {
        let out = fbdsim(&["replay", "--trace", trace_s, "--system", system]);
        assert_eq!(
            exit_code(&out),
            0,
            "replay on `{system}` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        fresh.push_str(&String::from_utf8(out.stdout).expect("UTF-8 report"));
    }
    std::fs::remove_file(&trace).ok();
    let regenerate = format!(
        "cargo run --release --offline --bin fbdsim -- {} && \
         for s in ddr2 fbd fbd-ap fbd-apfl; do target/release/fbdsim replay --trace target/golden-8c1.csv --system $s; done > tests/golden/{FILE}",
        rec.join(" ").replace(trace_s, "target/golden-8c1.csv"),
    );
    assert_text_golden(FILE, &fresh, &regenerate);
}

// CLI goldens: every subcommand that resolves run options (`run`,
// `profile`, `sweep`, `compare`) in each output format it offers —
// human, CSV and JSON — at budget 20000, so the option resolver and
// the run path behind them are checked against the code they replaced.

const FAULT_LIFECYCLE: &[&str] = &[
    "--fault-ber",
    "1e-3",
    "--fault-seed",
    "7",
    "--crc-bits",
    "4",
    "--scrub",
    "patrol",
    "--scrub-interval-ns",
    "200",
    "--failback",
    "2000",
    "--reissue",
    "8",
];

fn with_faults(args: &[&'static str]) -> Vec<&'static str> {
    args.iter().chain(FAULT_LIFECYCLE).copied().collect()
}

#[test]
fn golden_run_4c1_with_the_recovery_lifecycle_armed() {
    let args = [
        "run",
        "--workload",
        "4C-1",
        "--system",
        "fbd-ap",
        "--budget",
        "20000",
    ];
    assert_stdout_golden("run_4c1_faults.txt", &with_faults(&args), true);
    let mut csv = with_faults(&args);
    csv.push("--csv");
    assert_stdout_golden("run_4c1_faults.csv", &csv, false);
}

#[test]
fn golden_run_json_with_metrics_and_series() {
    assert_json_golden(
        "run_1c_swim_series.json",
        &[
            "run",
            "--workload",
            "1C-swim",
            "--substrate",
            "fbd-ap",
            "--budget",
            "20000",
            "--sample-interval",
            "256",
            "--json",
        ],
    );
}

#[test]
fn golden_run_json_with_metrics_and_series_on_ddr2() {
    assert_json_golden(
        "run_1c_swim_ddr2_series.json",
        &[
            "run",
            "--workload",
            "1C-swim",
            "--substrate",
            "ddr2",
            "--budget",
            "20000",
            "--sample-interval",
            "256",
            "--json",
        ],
    );
}

/// Per-epoch metrics under scrub and re-issue traffic, with the
/// `errors.*` gauges in the final row.
#[test]
fn golden_run_json_with_metrics_and_series_under_the_recovery_lifecycle() {
    let args = [
        "run",
        "--workload",
        "4C-1",
        "--system",
        "fbd-ap",
        "--budget",
        "20000",
        "--sample-interval",
        "128",
        "--json",
    ];
    assert_json_golden("run_4c1_faults_series.json", &with_faults(&args));
}

#[test]
fn golden_profile_table_and_folded_stacks() {
    let folded = tmp_path("golden-profile.folded");
    let folded_s = folded.to_str().unwrap();
    let args = [
        "profile",
        "--workload",
        "1C-swim",
        "--budget",
        "20000",
        "--folded-out",
        folded_s,
    ];
    let table = stdout_of(&args);
    let stacks = std::fs::read_to_string(&folded).expect("folded file written");
    std::fs::remove_file(&folded).ok();
    let regenerate = format!(
        "cargo run --release --offline --bin fbdsim -- {} > tests/golden/profile_1c_swim.txt",
        args.join(" ")
            .replace(folded_s, "tests/golden/profile_1c_swim.folded"),
    );
    assert_text_golden("profile_1c_swim.txt", &table, &regenerate);
    assert_text_golden("profile_1c_swim.folded", &stacks, &regenerate);
}

#[test]
fn golden_sweep_json() {
    assert_json_golden(
        "sweep_1c_mgrid_k.json",
        &[
            "sweep",
            "--workload",
            "1C-mgrid",
            "--knob",
            "k",
            "--budget",
            "20000",
            "--json",
        ],
    );
}

#[test]
fn golden_compare_csv() {
    assert_stdout_golden(
        "compare_1c_swim.csv",
        &[
            "compare",
            "--workload",
            "1C-swim",
            "--budget",
            "20000",
            "--csv",
        ],
        false,
    );
}

// Layout golden: the memory layouts no CLI golden reaches (two ranks
// per DIMM, refresh on, open page) on the DDR2 and FB-DIMM datapaths.
// They are exactly where the per-rank device indexing, refresh and the
// per-rank energy fold live, so each is pinned through the library.

/// The three layouts of [`golden_layouts_4c1`] applied to `base`.
fn layouts(base: MemoryConfig) -> [(&'static str, MemoryConfig); 3] {
    let mut ranks2 = base;
    ranks2.ranks_per_dimm = 2;
    let mut refresh = base;
    refresh.refresh = RefreshConfig::ddr2_1gb();
    let mut all = ranks2;
    all.refresh = RefreshConfig::ddr2_1gb();
    all.page_policy = PagePolicy::OpenPage;
    all.interleaving = Interleaving::Page;
    [
        ("ranks2", ranks2),
        ("refresh", refresh),
        ("ranks2_refresh_open_page", all),
    ]
}

/// The device-level results of one run: elapsed time, DRAM operation
/// counts and active time, per-rank energy, the stage profile and the
/// telemetry registry.
fn layout_fingerprint(r: &RunResult) -> Json {
    let ops = |o: &DramOpCounts| {
        Json::Obj(vec![
            ("act_pre".into(), Json::from(o.act_pre)),
            ("col_reads".into(), Json::from(o.col_reads)),
            ("col_writes".into(), Json::from(o.col_writes)),
            ("refreshes".into(), Json::from(o.refreshes)),
        ])
    };
    let ranks = r
        .energy
        .ranks
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("channel".into(), Json::from(e.channel)),
                ("dimm".into(), Json::from(e.dimm)),
                ("rank".into(), Json::from(e.rank)),
                ("ops".into(), ops(&e.ops)),
                ("active_ps".into(), Json::from(e.residency.active.as_ps())),
                ("standby_ps".into(), Json::from(e.residency.standby.as_ps())),
                (
                    "powerdown_ps".into(),
                    Json::from(e.residency.powerdown.as_ps()),
                ),
                ("dynamic_nj".into(), Json::from(e.dynamic_nj)),
                ("background_nj".into(), Json::from(e.background_nj)),
            ])
        })
        .collect();
    let registry = r
        .telemetry
        .as_ref()
        .expect("telemetry was enabled")
        .registry
        .to_json();
    Json::Obj(vec![
        ("elapsed_ps".into(), Json::from(r.elapsed.as_ps())),
        ("dram_ops".into(), ops(&r.mem.dram_ops)),
        (
            "dram_active_time_ps".into(),
            Json::from(r.mem.dram_active_time.as_ps()),
        ),
        ("rank_energy".into(), Json::Arr(ranks)),
        ("profile".into(), r.profile.to_json()),
        ("registry".into(), registry),
    ])
}

#[test]
fn golden_layouts_4c1() {
    const FILE: &str = "layouts_4c1.json";
    let mut doc = Vec::new();
    for system in ["ddr2", "fbd", "fbd-ap"] {
        let base = substrates().get(system).expect("registered").config();
        for (layout, mem) in layouts(base) {
            let r = RunSpec::paper_default(4)
                .workload("4C-1")
                .memory(mem)
                .budget(20_000)
                .telemetry(TelemetryConfig::default())
                .run();
            doc.push((format!("{system}/{layout}"), layout_fingerprint(&r)));
        }
    }
    let fresh = Json::Obj(doc).to_json_pretty(2);
    let golden = golden_path(FILE);
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if fresh != want {
        let out = tmp_path(FILE);
        std::fs::write(&out, &fresh).expect("fresh layouts written");
        let at = match (json::parse(&want), json::parse(&fresh)) {
            (Ok(a), Ok(b)) => first_difference(&a, &b, "$").unwrap_or_else(|| "$".into()),
            _ => "$ (golden missing or unreadable)".into(),
        };
        panic!(
            "layout results no longer match tests/golden/{FILE}: first difference at {at}\n\
             the fresh document is {}; copy it over the golden only for an intended change of results",
            out.display()
        );
    }
}
