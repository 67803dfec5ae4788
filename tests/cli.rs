//! Contract tests for the `fbdsim` binary: exit codes, flag
//! validation, and the shape of the `--stats-json`/`--json` exporters
//! on `run`, `compare` and `sweep`.

use std::path::PathBuf;
use std::process::{Command, Output};

use fbd_telemetry::{json, Json};

fn fbdsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbdsim"))
        .args(args)
        .output()
        .expect("fbdsim runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fbdsim-cli-{}-{name}", std::process::id()))
}

/// The energy object every stats document must carry: five components
/// that sum to the total.
fn assert_energy_consistent(doc: &Json) {
    let energy = doc.get("energy").expect("stats carry an energy object");
    let get = |k: &str| energy.get(k).and_then(Json::as_f64).expect(k);
    let sum = get("activation_nj")
        + get("burst_nj")
        + get("refresh_nj")
        + get("background_nj")
        + get("amb_nj");
    let total = get("total_nj");
    assert!(
        (sum - total).abs() < 1e-6 * total.max(1.0),
        "components {sum} != total {total}"
    );
    assert!(total > 0.0);
    assert!(get("avg_power_w") > 0.0);
}

#[test]
fn list_substrates_prints_every_registry_entry() {
    let out = fbdsim(&["list-substrates"]);
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    for name in ["ddr2", "fbd", "fbd-ap", "fbd-apfl", "fbd-ddr3", "ddr3-1066"] {
        assert!(text.contains(name), "listing must name `{name}`:\n{text}");
    }
    // Each entry carries its timing spec and key parameters.
    assert!(text.contains("ddr2-667"), "{text}");
    assert!(text.contains("MT/s"), "{text}");
    assert!(text.contains("tCL"), "{text}");
}

#[test]
fn list_schedulers_prints_every_registry_entry() {
    let out = fbdsim(&["list-schedulers"]);
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    assert!(text.contains("hit-first"), "{text}");
    assert!(text.contains("fcfs"), "{text}");
}

#[test]
fn compare_accepts_a_substrate_list_and_rejects_unknown_names() {
    let path = tmp_path("compare-substrates.json");
    let out = fbdsim(&[
        "compare",
        "--workload",
        "1C-swim",
        "--substrate",
        "fbd,fbd-ap",
        "--budget",
        "2000",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("well-formed JSON");
    let points = doc.get("points").and_then(Json::as_array).expect("points");
    let systems: Vec<&str> = points
        .iter()
        .map(|p| p.get("system").and_then(Json::as_str).expect("system"))
        .collect();
    assert_eq!(systems, ["fbd", "fbd-ap"]);

    let out = fbdsim(&[
        "compare",
        "--workload",
        "1C-swim",
        "--substrate",
        "fbd,ddr9",
    ]);
    assert_eq!(exit_code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown substrate `ddr9`"), "{err}");
    assert!(err.contains("available:"), "{err}");
}

#[test]
fn sweep_rebases_on_the_selected_substrate() {
    let path = tmp_path("sweep-substrate.json");
    let out = fbdsim(&[
        "sweep",
        "--workload",
        "1C-swim",
        "--knob",
        "k",
        "--substrate",
        "fbd-ddr3",
        "--budget",
        "2000",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("well-formed JSON");
    let points = doc.get("points").and_then(Json::as_array).expect("points");
    assert_eq!(points.len(), 3, "the k knob expands to three points");
    for p in points {
        let label = p.get("system").and_then(Json::as_str).expect("label");
        assert!(label.starts_with("fbd-ddr3/"), "{label}");
        let comp = p.get("composition").expect("composition metadata");
        assert_eq!(
            comp.get("substrate").and_then(Json::as_str),
            Some("fbd-ddr3")
        );
    }

    let out = fbdsim(&[
        "sweep",
        "--workload",
        "1C-swim",
        "--knob",
        "k",
        "--substrate",
        "ddr9",
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown substrate `ddr9`"));
}

#[test]
fn no_arguments_is_a_usage_error() {
    assert_eq!(exit_code(&fbdsim(&[])), 2);
    assert_eq!(exit_code(&fbdsim(&["frobnicate"])), 2);
}

#[test]
fn unknown_options_exit_2_on_run_compare_and_sweep() {
    for cmd in [
        vec![
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--bogus",
            "x",
        ],
        vec!["compare", "--workload", "1C-swim", "--bogus", "x"],
        vec!["compare", "--workload", "1C-swim", "--timeline"],
        vec![
            "sweep",
            "--workload",
            "1C-swim",
            "--knob",
            "k",
            "--bogus",
            "x",
        ],
        vec![
            "record",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--out",
            "t.csv",
            "--json",
        ],
        vec![
            "replay", "--trace", "t.csv", "--system", "fbd", "--budget", "1",
        ],
        vec![
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--budget",
            "2000",
            "--budget",
            "5",
        ],
        vec!["compare", "--workload", "1C-swim", "--csv", "--csv"],
        // The simulator has one model, so no option selects one.
        vec![
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--fidelity",
            "fast",
        ],
        vec!["compare", "--workload", "1C-swim", "--fidelity", "fast"],
        vec![
            "sweep",
            "--workload",
            "1C-swim",
            "--knob",
            "k",
            "--fidelity",
            "fast",
        ],
    ] {
        let out = fbdsim(&cmd);
        assert_eq!(
            exit_code(&out),
            2,
            "`fbdsim {}` must be a usage error, stderr: {}",
            cmd.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        // The usage error never runs the simulation.
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    for cmd in [
        &["list"][..],
        &[
            "compare",
            "--workload",
            "1C-swim",
            "--budget",
            "2000",
            "--csv",
        ],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_fbdsim"))
            .args(cmd)
            .stdout(writer)
            .output()
            .expect("fbdsim runs");
        assert_eq!(
            exit_code(&out),
            0,
            "`fbdsim {}` into a closed pipe: {}",
            cmd.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stderr.is_empty(),
            "a closed stdout is not an error: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_workload_or_system_fails_cleanly() {
    // Bad names are usage errors (exit 2) with a diagnostic, never a
    // partial run or a panic.
    let out = fbdsim(&["run", "--workload", "9C-nope", "--system", "fbd"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
    let out = fbdsim(&["run", "--workload", "1C-swim", "--system", "ddr5"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown system"));
    let out = fbdsim(&["profile", "--workload", "9C-nope"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn bad_numeric_arguments_are_usage_errors() {
    for cmd in [
        &[
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--budget",
            "abc",
        ][..],
        &[
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--budget",
            "0",
        ],
        &[
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--seed",
            "x",
        ],
        &[
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--fault-ber",
            "2",
        ],
        &[
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--fault-ber",
            "oops",
        ],
        &[
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd",
            "--fault-ber",
            "1e-6",
            "--fault-mode",
            "cosmic",
        ],
        &["compare", "--workload", "1C-swim", "--fault-seed", "7"],
        // Time options whose picosecond value overflows a u64 (once an
        // overflow panic in debug builds, silently wrapped in release).
        &[
            "run",
            "--workload",
            "4C-1",
            "--substrate",
            "fbd-ap",
            "--budget",
            "3000",
            "--scrub",
            "patrol",
            "--scrub-interval-ns",
            "18446744073709551615",
        ],
        &[
            "run",
            "--workload",
            "4C-1",
            "--substrate",
            "fbd-ap",
            "--budget",
            "3000",
            "--fault-ber",
            "1e-3",
            "--failback",
            "18446744073709551615",
        ],
        // Fits in picoseconds, but not once the probe back-off
        // multiplies it (a stuck lane fails over and probes).
        &[
            "run",
            "--workload",
            "4C-1",
            "--substrate",
            "fbd-ap",
            "--budget",
            "3000",
            "--fault-ber",
            "0.05",
            "--fault-mode",
            "stuck-lane",
            "--failback",
            "18446744073709551",
        ],
        &[
            "run",
            "--workload",
            "1C-swim",
            "--substrate",
            "fbd-ap",
            "--sample-interval",
            "18446744073709551615",
        ],
    ] {
        let out = fbdsim(cmd);
        assert_eq!(
            exit_code(&out),
            2,
            "`fbdsim {}` must be a usage error, stderr: {}",
            cmd.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stderr.is_empty(),
            "usage errors carry a diagnostic: {cmd:?}"
        );
    }
}

#[test]
fn replay_rejects_malformed_traces_with_a_diagnostic() {
    // A truncated row, and an arrival that goes backwards (once a debug
    // assertion panic, silently replayed by release builds).
    for (name, bad_row) in [("truncated", "200,W"), ("backwards", "50,R,2,0")] {
        let path = tmp_path(&format!("corrupt-{name}.csv"));
        std::fs::write(
            &path,
            format!("arrival_ps,kind,line,core\n100,R,7,0\n{bad_row}\n"),
        )
        .unwrap();
        let out = fbdsim(&[
            "replay",
            "--trace",
            path.to_str().unwrap(),
            "--system",
            "fbd",
        ]);
        std::fs::remove_file(&path).ok();
        assert_eq!(exit_code(&out), 2, "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("line 3"),
            "{name}: diagnostic names the line: {err}"
        );
    }
}

#[test]
fn replay_rejects_arrivals_past_the_simulated_time_limit() {
    // One far past the 1 s limit (once an allocation abort), and
    // `u64::MAX` ps (once a wrapped clock "finishing" at 0.06 µs).
    for arrival in ["18446744073000000000", "18446744073709551615"] {
        let path = tmp_path(&format!("far-{arrival}.csv"));
        std::fs::write(
            &path,
            format!("arrival_ps,kind,line,core\n100,R,7,0\n{arrival},R,5,0\n"),
        )
        .unwrap();
        let out = fbdsim(&[
            "replay",
            "--trace",
            path.to_str().unwrap(),
            "--system",
            "fbd",
        ]);
        std::fs::remove_file(&path).ok();
        assert_eq!(exit_code(&out), 2, "arrival {arrival}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("line 3"), "diagnostic names the line: {err}");
        assert!(err.contains("limit"), "diagnostic names the limit: {err}");
    }
}

#[test]
fn run_stats_json_has_a_consistent_energy_object() {
    let path = tmp_path("run.json");
    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd-ap",
        "--budget",
        "5000",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0);
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("well-formed JSON");
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("1C-swim"));
    assert_eq!(doc.get("system").and_then(Json::as_str), Some("fbd-ap"));
    assert_energy_consistent(&doc);
}

#[test]
fn profile_reports_full_attribution_and_writes_folded_stacks() {
    let folded_path = tmp_path("profile.folded");
    let out = fbdsim(&[
        "profile",
        "--workload",
        "1C-swim",
        "--budget",
        "5000",
        "--folded-out",
        folded_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        text.contains("stage sums match end-to-end latency for 100.0% of reads"),
        "read attribution check line missing:\n{text}"
    );
    assert!(
        text.contains("stage sums match end-to-end latency for 100.0% of writes"),
        "write attribution check line missing:\n{text}"
    );
    assert!(text.contains("latency attribution for 1C-swim on fbd-ap"));
    // The per-class tables cover both directions: at least one read
    // class and the posted-write class must print attribution rows.
    assert!(
        text.contains("writes)"),
        "write attribution table missing:\n{text}"
    );
    let folded = std::fs::read_to_string(&folded_path).expect("folded file written");
    std::fs::remove_file(&folded_path).ok();
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("frame + weight");
        assert_eq!(stack.split(';').count(), 3, "bad folded line: {line}");
        assert!(
            stack.starts_with("read;") || stack.starts_with("write;"),
            "bad root frame: {line}"
        );
        weight.parse::<u64>().expect("integer weight");
    }
    assert!(folded.lines().any(|l| l.starts_with("read;")));
    assert!(
        folded.lines().any(|l| l.starts_with("write;")),
        "folded export must carry write frames:\n{folded}"
    );
}

#[test]
fn profile_rejects_unknown_options() {
    let out = fbdsim(&["profile", "--workload", "1C-swim", "--trace-out", "x.json"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn compare_stats_json_covers_every_system() {
    let path = tmp_path("compare.json");
    let out = fbdsim(&[
        "compare",
        "--workload",
        "1C-swim",
        "--budget",
        "5000",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0);
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("well-formed JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("compare"));
    let points = doc.get("points").and_then(Json::as_array).expect("points");
    let systems: Vec<&str> = points
        .iter()
        .map(|p| p.get("system").and_then(Json::as_str).expect("system"))
        .collect();
    assert_eq!(systems, ["ddr2", "fbd", "fbd-ap", "fbd-apfl"]);
    for p in points {
        assert_energy_consistent(p);
    }
}

#[test]
fn version_prints_build_provenance_on_every_spelling() {
    let canonical = fbdsim(&["version"]);
    assert_eq!(exit_code(&canonical), 0);
    let text = String::from_utf8(canonical.stdout.clone()).expect("utf-8 version line");
    assert!(
        text.starts_with(&format!("fbdsim {} (", env!("CARGO_PKG_VERSION"))),
        "version line must lead with the crate version: {text}"
    );
    assert!(text.contains("profile)"), "{text}");
    assert!(canonical.stderr.is_empty());
    for alias in ["--version", "-V"] {
        let out = fbdsim(&[alias]);
        assert_eq!(exit_code(&out), 0, "`fbdsim {alias}` failed");
        assert_eq!(out.stdout, canonical.stdout, "`{alias}` diverged");
    }
}

/// The `host` object every stats document must carry: an enabled
/// profiler with a finite throughput, a phase breakdown explaining
/// ≥95% of wall time, and build provenance.
fn assert_host_observability(doc: &Json) {
    let host = doc.get("host").expect("stats carry a host object");
    assert_eq!(host.get("enabled"), Some(&Json::Bool(true)));
    assert!(host.get("wall_s").and_then(Json::as_f64).expect("wall_s") > 0.0);
    let cps = host
        .get("cycles_per_sec")
        .and_then(Json::as_f64)
        .expect("cycles_per_sec");
    assert!(cps.is_finite() && cps > 0.0, "cycles_per_sec {cps}");
    let frac_sum = host
        .get("phase_fraction_sum")
        .and_then(Json::as_f64)
        .expect("phase_fraction_sum");
    assert!(frac_sum >= 0.95, "phases explain only {frac_sum} of wall");
    let phases = host.get("phases").expect("phase breakdown");
    assert!(matches!(phases, Json::Obj(fields) if !fields.is_empty()));
    assert!(host.get("counters").is_some());
    let build = host.get("build").expect("build provenance");
    for key in ["version", "git_sha", "rustc", "profile"] {
        let v = build.get(key).and_then(Json::as_str).expect(key);
        assert!(!v.is_empty(), "build.{key} must not be empty");
    }
    assert_eq!(
        build.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
}

#[test]
fn run_stats_json_carries_host_observability() {
    let out = fbdsim(&[
        "run",
        "--workload",
        "1C-swim",
        "--system",
        "fbd-ap",
        "--budget",
        "5000",
        "--json",
    ]);
    assert_eq!(exit_code(&out), 0);
    let doc = json::parse(String::from_utf8(out.stdout).unwrap().trim()).expect("stats JSON");
    assert_host_observability(&doc);
}

#[test]
fn compare_stats_json_carries_session_and_per_point_host_objects() {
    let out = fbdsim(&[
        "compare",
        "--workload",
        "1C-swim",
        "--budget",
        "2000",
        "--json",
    ]);
    assert_eq!(exit_code(&out), 0);
    let doc = json::parse(String::from_utf8(out.stdout).unwrap().trim()).expect("stats JSON");
    // Session-level host: wall time, aggregate throughput, provenance.
    let host = doc.get("host").expect("grid documents carry a host object");
    assert!(host.get("wall_s").and_then(Json::as_f64).expect("wall_s") > 0.0);
    assert!(host.get("build").is_some());
    // And every point carries its own full host breakdown.
    let points = doc.get("points").and_then(Json::as_array).expect("points");
    assert_eq!(points.len(), 4);
    for p in points {
        assert_host_observability(p);
    }
}

/// Removes every `host` object (top-level and per-point) and
/// re-serializes, so byte-identity can be asserted across runs whose
/// wall-clock timings legitimately differ.
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
    let mut doc = json::parse(text.trim()).expect("well-formed stats JSON");
    strip(&mut doc);
    doc.to_json_pretty(2)
}

#[test]
fn live_flag_is_inert_when_output_is_piped() {
    // `--live` requires a terminal on stderr. Under pipes (this test,
    // CI, redirection) it must change nothing: no dashboard frames or
    // control sequences on stderr, and stdout byte-identical to the
    // same run without the flag (modulo the wall-clock host block).
    let args = |live: bool| {
        let mut v = vec![
            "run",
            "--workload",
            "1C-swim",
            "--system",
            "fbd-ap",
            "--budget",
            "5000",
            "--json",
        ];
        if live {
            v.push("--live");
        }
        v
    };
    let plain = fbdsim(&args(false));
    let live = fbdsim(&args(true));
    assert_eq!(exit_code(&plain), 0);
    assert_eq!(exit_code(&live), 0);
    assert!(
        live.stderr.is_empty(),
        "piped --live run must keep stderr clean: {}",
        String::from_utf8_lossy(&live.stderr)
    );
    assert_eq!(
        strip_host(&String::from_utf8(plain.stdout).unwrap()),
        strip_host(&String::from_utf8(live.stdout).unwrap()),
        "piped --live output must match the plain run"
    );

    // Same contract on a grid command.
    let out = fbdsim(&[
        "compare",
        "--workload",
        "1C-swim",
        "--budget",
        "2000",
        "--live",
        "--json",
    ]);
    assert_eq!(exit_code(&out), 0);
    assert!(
        out.stderr.is_empty(),
        "piped --live compare must keep stderr clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sweep_json_stdout_covers_every_grid_point() {
    let out = fbdsim(&[
        "sweep",
        "--workload",
        "1C-swim",
        "--knob",
        "k",
        "--budget",
        "5000",
        "--json",
    ]);
    assert_eq!(exit_code(&out), 0);
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // `--json` means the document is the only stdout output.
    let doc = json::parse(text.trim()).expect("well-formed JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("sweep"));
    let points = doc.get("points").and_then(Json::as_array).expect("points");
    assert_eq!(points.len(), 3, "knob k sweeps three region sizes");
    for p in points {
        let label = p.get("system").and_then(Json::as_str).unwrap();
        assert!(label.starts_with("fbd-ap/k="), "unexpected label {label}");
        assert_energy_consistent(p);
    }
}
