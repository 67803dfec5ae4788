//! `fbdsim` — command-line experiment runner for the FB-DIMM AMB
//! prefetching simulator.
//!
//! ```text
//! fbdsim list
//! fbdsim list-substrates
//! fbdsim list-schedulers
//! fbdsim run     --workload 4C-1 --substrate fbd-ap [--scheduler fcfs] [--budget N] [--seed N]
//!                [--csv] [--json] [--stats-json stats.json] [--trace-out trace.json]
//! fbdsim profile --workload 1C-swim [--system fbd-ap] [--folded-out folded.txt]
//! fbdsim compare --workload 1C-swim [--substrate a,b,c] [--budget N] [--csv]
//! fbdsim sweep   --workload 1C-mgrid --knob {k|entries|assoc|channels|rate|grid} [--csv]
//! ```
//!
//! Substrates come from the `fbd_types::substrate::substrates()`
//! registry (`fbdsim list-substrates` prints them); `--system` is an
//! exact alias of `--substrate` on `run` for backward compatibility.
//! Workloads: the paper's Table 3 mixes (`2C-1` … `8C-3`) and the
//! single-program workloads (`1C-<benchmark>`).
//!
//! Every subcommand goes through one front end: [`Args::parse`] checks
//! its options against one table, [`resolve`] turns them into the
//! [`RunSpec`]s it runs, and [`run_grid`] executes them (`run`,
//! `profile` and `record` as a one-point grid). All stdout goes through
//! the writer `main` hands down, so a closed pipe ends the command
//! quietly.

use std::io::{ErrorKind, IsTerminal, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fbd_core::{parallel_map, Warmup};
use fbd_core::{RunResult, RunSpec};
use fbd_ctrl::schedulers;
use fbd_telemetry::host::{Counter, HostProfiler, PHASES};
use fbd_telemetry::live::{bar, fmt_duration, si, sparkline};
use fbd_telemetry::{Json, LogHistogram, SampleObserver, TelemetryConfig};
use fbd_types::config::{
    Associativity, FaultConfig, FaultMode, Interleaving, ScrubPolicyKind, SystemConfig,
};
use fbd_types::request::{REQ_CLASSES, STAGES};
use fbd_types::substrate::substrates;
use fbd_types::time::{DataRate, Dur};
use fbd_workloads::{paper_workloads, Workload};

fn usage_text() -> String {
    "usage:\n  fbdsim list\n  fbdsim list-substrates\n  fbdsim list-schedulers\n  fbdsim version\n  \
     fbdsim run --workload <name> --substrate <name> [--scheduler <name>] \
     [--budget N] [--seed N]\n             [--csv] [--json] [--timeline] [--live] \
     [--stats-json <file>] [--trace-out <file>] [--sample-interval <cycles>]\n  \
     fbdsim profile --workload <name> [--system <name>] [--budget N] [--seed N] [--json]\n             \
     [--folded-out <file>] [--stats-json <file>]\n  \
     fbdsim compare --workload <name> [--substrate <a,b,c>] [--scheduler <name>] [--budget N] \
     [--seed N] [--csv] [--json] [--live] [--stats-json <file>]\n  \
     fbdsim sweep --workload <name> --knob <k|entries|assoc|channels|rate|grid> \
     [--substrate <name>] [--scheduler <name>]\n             [--budget N] [--seed N] \
     [--csv] [--json] [--live] [--stats-json <file>]\n  \
     fbdsim record --workload <name> --system <name> --out <trace.csv> [--budget N] [--seed N]\n  \
     fbdsim replay --trace <trace.csv> --system <name>\n\n\
     substrate options:\n  \
     --substrate <name>         registered memory substrate (see `fbdsim list-substrates`);\n                             \
     on run, --system is an exact alias; on compare, a\n                             \
     comma-separated list replaces the default paper grid\n  \
     --scheduler <name>         registered scheduling policy (see `fbdsim list-schedulers`;\n                             \
     default hit-first)\n\n\
     statistics options:\n  \
     --stats-json <file>        write machine-readable statistics as JSON (run: one\n                             \
     document; compare/sweep: one document covering every grid point)\n  \
     --json                     print the same statistics JSON to stdout\n\n\
     telemetry options (run):\n  \
     --trace-out <file>         write a Chrome-trace (Perfetto-loadable) event trace\n  \
     --sample-interval <cycles> snapshot all metrics every N memory-clock cycles\n\n\
     display options (run/compare/sweep):\n  \
     --live                     live stderr dashboard while the simulation runs: host\n                             \
     throughput sparkline, per-phase wall-time bars, grid\n                             \
     progress and hot-loop counters (requires a terminal on\n                             \
     stderr, silently off otherwise; `q` + Enter detaches)\n\n\
     fault-injection options (run/profile/compare/sweep):\n  \
     --fault-ber <rate>         channel bit-error rate in [0,1] (0 = injection off)\n  \
     --fault-seed <n>           error-process seed (default 1)\n  \
     --fault-mode <mode>        ber|burst|stuck-lane (default ber)\n\n\
     reliability options (run/profile/compare/sweep):\n  \
     --crc-bits <n>             effective CRC strength in check bits; corrupted frames\n                             \
     escape detection with probability ~2^-n (0 = ideal CRC,\n                             \
     every corruption detected; requires --fault-ber)\n  \
     --scrub <policy>           background scrub policy: none|patrol (default none;\n                             \
     patrol costs bandwidth even on a clean channel)\n  \
     --scrub-interval-ns <n>    per-channel patrol rate limit in ns (default 600;\n                             \
     requires --scrub patrol)\n  \
     --failback <quiet-ns>      re-probe failed-over lanes after this quiet period with\n                             \
     bounded exponential backoff (0 = fail-over is permanent;\n                             \
     requires --fault-ber)\n  \
     --reissue <budget>         dropped prefetch returns remembered per channel and\n                             \
     re-issued in idle slots (0 = off; requires --fault-ber)\n\n\
     profile options:\n  \
     --folded-out <file>        write folded stacks (flamegraph.pl / speedscope input)"
        .to_string()
}

/// Option groups the subcommands' accepted spellings are built from, so
/// every shared option is spelled once.
const RUN_CONTROL: &[&str] = &["workload", "budget", "seed"];
const FAULT_KEYS: &[&str] = &[
    "fault-ber",
    "fault-seed",
    "fault-mode",
    "crc-bits",
    "scrub",
    "scrub-interval-ns",
    "failback",
    "reissue",
];
/// Substrate, scheduler and statistics options shared by `run`,
/// `compare` and `sweep`.
const GRID_KEYS: &[&str] = &["substrate", "scheduler", "stats-json"];
const GRID_FLAGS: &[&str] = &["csv", "json", "live"];

/// The value-taking options and boolean flags `cmd` accepts, or `None`
/// for a subcommand that reads no options.
fn accepted(cmd: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    let (keys, flags): (&[&[&str]], &[&[&str]]) = match cmd {
        "run" => (
            &[
                RUN_CONTROL,
                FAULT_KEYS,
                GRID_KEYS,
                &["system", "trace-out", "sample-interval"],
            ],
            &[GRID_FLAGS, &["timeline"]],
        ),
        "profile" => (
            &[
                RUN_CONTROL,
                FAULT_KEYS,
                &["system", "folded-out", "stats-json"],
            ],
            &[&["json"]],
        ),
        "compare" => (&[RUN_CONTROL, FAULT_KEYS, GRID_KEYS], &[GRID_FLAGS]),
        "sweep" => (
            &[RUN_CONTROL, FAULT_KEYS, GRID_KEYS, &["knob"]],
            &[GRID_FLAGS],
        ),
        "record" => (&[RUN_CONTROL, &["system", "out"]], &[]),
        "replay" => (&[&["trace", "system"]], &[]),
        _ => return None,
    };
    Some((keys.concat(), flags.concat()))
}

/// Why a subcommand stopped early: its diagnostic is already on stderr
/// and this is the exit code, or writing to stdout failed.
#[derive(Debug)]
enum Fail {
    Exit(ExitCode),
    Stdout(std::io::Error),
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail::Stdout(e)
    }
}

/// A subcommand's outcome; `Ok` exits 0.
type Outcome = Result<(), Fail>;

/// Reports bad user input: a usage error, exit 2.
fn bad(msg: impl std::fmt::Display) -> Fail {
    eprintln!("{msg}");
    Fail::Exit(ExitCode::from(2))
}

/// Reports a failed run or an unwritable output file: exit 1.
fn failed(msg: impl std::fmt::Display) -> Fail {
    eprintln!("{msg}");
    Fail::Exit(ExitCode::FAILURE)
}

fn usage() -> Fail {
    bad(usage_text())
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Outcome {
    std::fs::write(path, contents).map_err(|e| failed(format!("cannot write {path}: {e}")))
}

/// The `--key value` pairs and bare `--flag`s after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Splits the options and, for a subcommand that reads options,
    /// rejects any it does not accept: unknown or repeated options,
    /// value-taking options missing their value and boolean flags given
    /// one are usage errors, so a typo never silently runs with defaults.
    fn parse(cmd: &str, raw: &[String]) -> Result<Args, Fail> {
        let mut args = Args {
            pairs: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let key = a.strip_prefix("--").ok_or_else(usage)?.to_string();
            match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => args.pairs.push((key, v.clone())),
                None => args.flags.push(key),
            }
        }
        let Some((keys, flags)) = accepted(cmd) else {
            return Ok(args);
        };
        let given = args.pairs.iter().map(|(k, _)| (k.as_str(), true));
        let given = given.chain(args.flags.iter().map(|f| (f.as_str(), false)));
        let mut seen = Vec::new();
        for (k, valued) in given {
            let problem = if seen.contains(&k) {
                format!("--{k} given more than once")
            } else if valued && flags.contains(&k) {
                format!("--{k} does not take a value")
            } else if !valued && keys.contains(&k) {
                format!("--{k} requires a value")
            } else if !keys.contains(&k) && !flags.contains(&k) {
                format!("unknown option `--{k}` for `fbdsim {cmd}`")
            } else {
                seen.push(k);
                continue;
            };
            eprintln!("{problem}");
            return Err(usage());
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// `--key`'s value read with `parse` (`None` rejects it), or
    /// `default` when the option is absent. A rejected value is a usage
    /// error saying what `--key` must be.
    fn parsed<T>(
        &self,
        key: &str,
        what: &str,
        default: T,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, Fail> {
        self.get(key).map_or(Ok(default), |v| {
            parse(v).ok_or_else(|| bad(format!("--{key} must be {what}, got `{v}`")))
        })
    }
}

fn number<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn positive(v: &str) -> Option<u64> {
    number(v).filter(|&n| n > 0)
}

fn all_workloads() -> Vec<Workload> {
    let (c1, c2, c4, c8) = paper_workloads();
    c1.into_iter().chain(c2).chain(c4).chain(c8).collect()
}

/// The run options `run`/`profile`/`compare`/`sweep`/`record` share,
/// resolved once. `base` holds the workload, scheduler, budget and
/// seed; [`Resolved::on`] adds a substrate and the fault options for
/// each point.
struct Resolved {
    base: RunSpec,
    faults: Option<FaultConfig>,
    /// Epoch-sampler cadence in memory-clock cycles: `--sample-interval`,
    /// or the `--live` dashboard's default.
    sample_cycles: Option<u64>,
    /// `--trace-out` asks for an event trace.
    trace: bool,
    /// `--live` with a terminal on stderr; otherwise the flag is silently
    /// inert, so piped output stays byte-identical to a run without it.
    live: bool,
}

/// Resolves the run options; a bad value is a usage error already
/// reported on stderr.
fn resolve(args: &Args) -> Result<Resolved, Fail> {
    let wname = args.get("workload").ok_or_else(usage)?;
    let mut base = RunSpec::paper_default(1)
        .try_workload(wname)
        .map_err(|e| bad(format!("{e} (try `fbdsim list`)")))?;
    if let Some(name) = args.get("scheduler") {
        base = base.try_scheduler(name).map_err(bad)?;
    }
    let exp = *base.exp();
    let budget = args.parsed(
        "budget",
        "a positive instruction count",
        exp.budget,
        positive,
    )?;
    let seed = args.parsed("seed", "an unsigned integer", exp.seed, number)?;
    let base = base.budget(budget).seed(seed);
    let faults = fault_options(args)?;
    let trace = args.get("trace-out").is_some();
    // The dashboard's throughput meter rides on the epoch sampler, so a
    // live run without an explicit cadence gets the default one.
    let live = args.has_flag("live") && std::io::stderr().is_terminal();
    let sample_cycles = args
        .parsed("sample-interval", "a positive cycle count", None, |v| {
            positive(v).map(Some)
        })?
        .or(live.then_some(LIVE_SAMPLE_CYCLES));
    Ok(Resolved {
        base,
        faults,
        sample_cycles,
        trace,
        live,
    })
}

impl Resolved {
    /// The spec for one point on the registered substrate `name`, given
    /// with `--{flag}` (the diagnostic names the spelling the user typed).
    fn on(&self, flag: &str, name: &str) -> Result<RunSpec, Fail> {
        let mut spec = self
            .base
            .clone()
            .try_substrate(name)
            .map_err(|_| unknown_substrate(flag, name))?;
        if let Some(fc) = self.faults {
            spec.system_mut().mem.faults = fc;
        }
        Ok(spec)
    }

    /// The telemetry a point on `spec` runs with, if any: the sampler
    /// cadence converted at `spec`'s memory clock, plus tracing. A
    /// cadence too long to represent is a usage error.
    fn telemetry(&self, spec: &RunSpec) -> Result<Option<TelemetryConfig>, Fail> {
        if self.sample_cycles.is_none() && !self.trace {
            return Ok(None);
        }
        let sample_interval = match self.sample_cycles {
            None => None,
            Some(c) => Some(clock(spec).checked_mul(c).ok_or_else(|| {
                bad(format!(
                    "--sample-interval {c} cycles overflows the simulated clock"
                ))
            })?),
        };
        Ok(Some(TelemetryConfig {
            sample_interval,
            trace: self.trace,
        }))
    }
}

/// The memory-clock period of `spec`'s system.
fn clock(spec: &RunSpec) -> Dur {
    spec.system().mem.data_rate.clock_period()
}

fn unknown_substrate(flag: &str, name: &str) -> Fail {
    bad(format!(
        "unknown {flag} `{name}` (available: {})",
        substrates().available()
    ))
}

/// The substrate a subcommand runs on and the flag that named it:
/// `--system` or `--substrate` (exact aliases where both are accepted,
/// so their outputs are byte-identical), else `default`.
fn substrate_option<'a>(
    args: &'a Args,
    default: Option<&'a str>,
) -> Result<(&'static str, &'a str), Fail> {
    match (args.get("system"), args.get("substrate"), default) {
        (Some(_), Some(_), _) => Err(bad("--system and --substrate are aliases; give only one")),
        (Some(s), None, _) => Ok(("system", s)),
        (None, Some(s), _) | (None, None, Some(s)) => Ok(("substrate", s)),
        (None, None, None) => Err(usage()),
    }
}

/// Resolves the fault-injection and reliability options. `Ok(None)`
/// means neither injection nor any recovery policy was requested (the
/// channel models stay on the zero-cost no-fault path).
///
/// `--scrub` stands alone — patrol scrubbing costs bandwidth on a
/// clean channel too, so it is meaningful without an error process.
/// The other reliability knobs shape how errors are detected or
/// recovered from, so they require `--fault-ber`.
fn fault_options(args: &Args) -> Result<Option<FaultConfig>, Fail> {
    if args.get("fault-ber").is_none() {
        for key in [
            "fault-seed",
            "fault-mode",
            "crc-bits",
            "failback",
            "reissue",
        ] {
            if args.get(key).is_some() {
                return Err(bad(format!("--{key} requires --fault-ber")));
            }
        }
    }
    if args.get("scrub-interval-ns").is_some() && args.get("scrub") != Some("patrol") {
        return Err(bad("--scrub-interval-ns requires --scrub patrol"));
    }
    if args.get("fault-ber").is_none() && args.get("scrub").is_none() {
        return Ok(None);
    }
    let off = FaultConfig::off();
    let scrub = match args.get("scrub") {
        None => off.scrub,
        Some(v) => ScrubPolicyKind::by_name(v).ok_or_else(|| {
            let names = ScrubPolicyKind::ALL.map(ScrubPolicyKind::name);
            bad(format!(
                "unknown scrub policy `{v}` (available: {})",
                names.join("|")
            ))
        })?,
    };
    let fc = FaultConfig {
        ber: args.parsed("fault-ber", "a bit-error rate in [0, 1]", off.ber, |v| {
            number(v).filter(|b| (0.0..=1.0).contains(b))
        })?,
        seed: args.parsed("fault-seed", "an unsigned integer", off.seed, number)?,
        mode: args.parsed(
            "fault-mode",
            "ber, burst or stuck-lane",
            off.mode,
            FaultMode::by_name,
        )?,
        crc_bits: args.parsed("crc-bits", "an integer in [0, 64]", off.crc_bits, |v| {
            number(v).filter(|&b| b <= 64)
        })?,
        scrub,
        scrub_interval_ns: args.parsed(
            "scrub-interval-ns",
            "a positive nanosecond count",
            off.scrub_interval_ns,
            positive,
        )?,
        failback_quiet_ns: args.parsed(
            "failback",
            "a quiet period in ns (0 = off)",
            off.failback_quiet_ns,
            number,
        )?,
        reissue_budget: args.parsed(
            "reissue",
            "a per-channel line budget (0 = off)",
            off.reissue_budget,
            number,
        )?,
    };
    fc.validate().map_err(bad)?;
    Ok(Some(fc))
}

/// Throttled `done/total/ETA` progress meter for grid commands. It
/// prints to stderr only when both stderr *and* stdout are terminals
/// (so piped and CI output stays byte-identical on either stream) and
/// never while the `--live` dashboard owns stderr.
struct Progress {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    start: Instant,
    last: Mutex<Option<Instant>>,
}

impl Progress {
    const THROTTLE_MS: u128 = 100;

    fn new(total: usize, live: bool) -> Progress {
        Progress {
            enabled: !live && std::io::stderr().is_terminal() && std::io::stdout().is_terminal(),
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            last: Mutex::new(None),
        }
    }

    /// Records one finished grid point; safe to call from worker
    /// threads. The final point always prints (then clears the line).
    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        {
            let mut last = self.last.lock().unwrap();
            let due = last.is_none_or(|t| now.duration_since(t).as_millis() >= Self::THROTTLE_MS);
            if !due && done != self.total {
                return;
            }
            *last = Some(now);
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = elapsed / done as f64 * (self.total - done) as f64;
        let mut err = std::io::stderr();
        if done == self.total {
            // Clear the meter so the report that follows starts clean.
            let _ = write!(err, "\r{:64}\r", "");
        } else {
            let _ = write!(
                err,
                "\r  {done}/{} points, {elapsed:.0}s elapsed, ETA {eta:.0}s ",
                self.total
            );
        }
        let _ = err.flush();
    }
}

/// Sample cadence driving the `--live` dashboard when the user gave no
/// `--sample-interval`: one telemetry snapshot (and one throughput
/// observation) every 1024 memory-clock cycles.
const LIVE_SAMPLE_CYCLES: u64 = 1024;

/// Shared state behind the `--live` dashboard: the simulation threads
/// write it (per-point [`HostProfiler`]s, sampler observers, the done
/// counter) and the render thread reads it a few times per second.
struct LiveState {
    workload: String,
    total: usize,
    done: AtomicUsize,
    /// Labeled per-point profilers, registered as grid points start.
    points: Mutex<Vec<(String, Arc<HostProfiler>)>>,
    /// Total simulated picoseconds advanced across all points, fed by
    /// the per-point sample observers.
    sim_ps: AtomicU64,
    /// Memory-clock period (ps) for converting simulated time to
    /// cycles; grids use the first point's clock.
    clock_ps: u64,
    /// Set by the stdin reader when the user types `q` + Enter: the
    /// dashboard erases itself and stops drawing, the run continues.
    detached: AtomicBool,
}

impl LiveState {
    fn new(workload: &str, total: usize, clock: fbd_types::time::Dur) -> Arc<LiveState> {
        Arc::new(LiveState {
            workload: workload.to_string(),
            total,
            done: AtomicUsize::new(0),
            points: Mutex::new(Vec::new()),
            sim_ps: AtomicU64::new(0),
            clock_ps: clock.as_ps().max(1),
            detached: AtomicBool::new(false),
        })
    }

    fn register(&self, label: &str, profiler: Arc<HostProfiler>) {
        self.points
            .lock()
            .expect("live points poisoned")
            .push((label.to_string(), profiler));
    }

    /// A sampler observer accumulating one point's simulated-time
    /// progress into the shared total (each point keeps its own
    /// last-seen instant, so concurrent points compose additively).
    fn observer(self: &Arc<Self>) -> SampleObserver {
        let state = Arc::clone(self);
        let last_ps = Mutex::new(0u64);
        SampleObserver::new(move |row, _| {
            let mut last = last_ps.lock().expect("observer state poisoned");
            let ps = row.at.as_ps();
            state
                .sim_ps
                .fetch_add(ps.saturating_sub(*last), Ordering::Relaxed);
            *last = ps;
        })
    }

    fn point_done(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

/// The `--live` dashboard: a render thread that redraws a small stderr
/// panel ~5×/second (throughput sparkline, per-phase wall-time bars,
/// grid progress, hot-loop counters) while the simulation runs, then
/// erases it so the report that follows starts clean. Callers only
/// construct one when stderr is a terminal; without one, a `--live`
/// run's output is byte-identical to a run without the flag.
struct LiveDashboard {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveDashboard {
    const FRAME_MS: u64 = 200;
    /// Sparkline history window (frames) kept for the throughput row.
    const HISTORY: usize = 32;

    fn start(state: Arc<LiveState>) -> LiveDashboard {
        // `q` + Enter detaches. The reader thread blocks on stdin, so
        // it is left detached (it dies with the process) and is only
        // spawned when stdin is interactive.
        if std::io::stdin().is_terminal() {
            let st = Arc::clone(&state);
            std::thread::spawn(move || {
                let mut line = String::new();
                loop {
                    line.clear();
                    match std::io::stdin().read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) if line.trim() == "q" => {
                            st.detached.store(true, Ordering::Relaxed);
                            return;
                        }
                        Ok(_) => {}
                    }
                }
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || Self::render_loop(&state, &stop))
        };
        LiveDashboard {
            stop,
            thread: Some(thread),
        }
    }

    fn render_loop(state: &LiveState, stop: &AtomicBool) {
        let start = Instant::now();
        let mut history: Vec<f64> = Vec::new();
        let mut last_ps = 0u64;
        let mut last_frame = start;
        let mut drawn = 0usize;
        loop {
            let stopping = stop.load(Ordering::Relaxed);
            if state.detached.load(Ordering::Relaxed) {
                Self::erase(&mut drawn);
                return;
            }
            let now = Instant::now();
            let ps = state.sim_ps.load(Ordering::Relaxed);
            let dt = now.duration_since(last_frame).as_secs_f64();
            if dt > 0.0 {
                let cycles = ps.saturating_sub(last_ps) as f64 / state.clock_ps as f64;
                history.push(cycles / dt);
                if history.len() > Self::HISTORY {
                    history.remove(0);
                }
            }
            last_ps = ps;
            last_frame = now;
            if stopping {
                Self::erase(&mut drawn);
                return;
            }
            Self::draw(state, start, &history, ps, &mut drawn);
            std::thread::sleep(Duration::from_millis(Self::FRAME_MS));
        }
    }

    /// Renders one frame: erases the previous panel (cursor-up + clear
    /// to end of screen), then prints the new one.
    fn draw(state: &LiveState, start: Instant, history: &[f64], sim_ps: u64, drawn: &mut usize) {
        let mut frame = String::new();
        if *drawn > 0 {
            frame.push_str(&format!("\x1b[{}A\x1b[J", *drawn));
        }
        let done = state.done.load(Ordering::Relaxed).min(state.total);
        let mut lines = vec![format!(
            "  {} live   {done}/{} point(s)   {} elapsed   (q⏎ detaches)",
            state.workload,
            state.total,
            fmt_duration(start.elapsed())
        )];
        let current = history.last().copied().unwrap_or(0.0);
        let total_cycles = sim_ps as f64 / state.clock_ps as f64;
        let avg = total_cycles / start.elapsed().as_secs_f64().max(1e-9);
        lines.push(format!(
            "  sim speed   {}  {}cyc/s now, {}cyc/s avg",
            sparkline(history, Self::HISTORY),
            si(current),
            si(avg)
        ));
        // Aggregate phases and counters across every registered point.
        let points = state.points.lock().expect("live points poisoned");
        let mut phases = [Duration::ZERO; PHASES.len()];
        let mut counts = [0u64; fbd_telemetry::host::COUNTERS.len()];
        for (_, prof) in points.iter() {
            for (slot, d) in phases.iter_mut().zip(prof.phase_snapshot()) {
                *slot += d;
            }
            for (slot, &(c, _)) in counts.iter_mut().zip(&fbd_telemetry::host::COUNTERS) {
                *slot += prof.counter(c);
            }
        }
        drop(points);
        let busy: Duration = phases.iter().sum();
        if !busy.is_zero() {
            for (&(_, label), d) in PHASES.iter().zip(&phases) {
                if d.is_zero() {
                    continue;
                }
                let frac = d.as_secs_f64() / busy.as_secs_f64();
                lines.push(format!(
                    "  {label:<11} {} {:>5.1}%",
                    bar(frac, 24),
                    frac * 100.0
                ));
            }
        }
        lines.push(format!(
            "  counters    {} events, {} retired, {} frames, {} retries",
            si(counts[Counter::Events as usize] as f64),
            si(counts[Counter::RequestsRetired as usize] as f64),
            si(counts[Counter::FramesSent as usize] as f64),
            si(counts[Counter::Retries as usize] as f64),
        ));
        for l in &lines {
            frame.push_str(l);
            // Clear to end of line so shrinking lines leave no residue.
            frame.push_str("\x1b[K\n");
        }
        *drawn = lines.len();
        let mut err = std::io::stderr();
        let _ = err.write_all(frame.as_bytes());
        let _ = err.flush();
    }

    fn erase(drawn: &mut usize) {
        if *drawn > 0 {
            let mut err = std::io::stderr();
            let _ = write!(err, "\x1b[{}A\x1b[J", *drawn);
            let _ = err.flush();
            *drawn = 0;
        }
    }
}

/// Dropping the dashboard stops the render thread and waits for it to
/// erase the panel.
impl Drop for LiveDashboard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Runs a labeled grid through the simulator — the one execution path
/// of every subcommand that simulates (`run`, `profile` and `record`
/// run a one-point grid). Results come back in grid order; a point
/// that fails to run is a diagnostic and exit 1.
///
/// Every point runs with its own enabled [`HostProfiler`] (created at
/// run time, so a point's wall clock starts when *it* starts), which is
/// where the `host` object in every stats document comes from. With
/// `--live`, the dashboard draws while the grid runs and every point's
/// sampler observer feeds its shared throughput meter.
fn run_grid(grid: &[(String, RunSpec)], opts: &Resolved) -> Result<Vec<RunResult>, Fail> {
    let Some((_, first)) = grid.first() else {
        return Ok(Vec::new());
    };
    let telemetry = grid
        .iter()
        .map(|(_, spec)| opts.telemetry(spec))
        .collect::<Result<Vec<_>, Fail>>()?;
    let live = opts
        .live
        .then(|| LiveState::new(workload_name(first), grid.len(), clock(first)));
    let _dashboard = live.as_ref().map(|s| LiveDashboard::start(Arc::clone(s)));
    let progress = Progress::new(grid.len(), live.is_some());
    let points: Vec<_> = grid.iter().zip(telemetry).collect();
    let results = parallel_map(&points, |((label, spec), telemetry)| {
        let profiler = Arc::new(HostProfiler::enabled());
        let mut point = spec.clone().host_profiler(Arc::clone(&profiler));
        if let Some(tc) = *telemetry {
            point = point.telemetry(tc);
        }
        if let Some(state) = &live {
            state.register(label, profiler);
            point = point.sample_observer(state.observer());
        }
        let r = point.try_run();
        progress.tick();
        if let Some(state) = &live {
            state.point_done();
        }
        r.map_err(|e| format!("{label}: {e}"))
    });
    results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(failed)
}

fn workload_name(spec: &RunSpec) -> &str {
    spec.workload_ref().map_or("", Workload::name)
}

/// The fields of the machine-readable statistics document written by
/// `--stats-json` and printed by `--json`: everything the human report shows, plus the
/// full metric registry and epoch time-series when telemetry ran.
fn stats_document(label: &str, spec: &RunSpec, r: &RunResult) -> Vec<(String, Json)> {
    let comp = spec.composition();
    let refresh = if spec.system().mem.refresh.enabled {
        "staggered"
    } else {
        "none"
    };
    let ipc_sum: f64 = r.ipcs().iter().sum();
    let bw = r.channel_bandwidth_gbps();
    let channels: Vec<Json> = r
        .channels
        .iter()
        .zip(&bw)
        .enumerate()
        .map(|(c, (counts, gbps))| {
            Json::Obj(vec![
                ("channel".into(), Json::from(c)),
                ("reads".into(), Json::from(counts.reads)),
                ("writes".into(), Json::from(counts.writes)),
                ("bytes".into(), Json::from(counts.bytes)),
                ("amb_hits".into(), Json::from(counts.amb_hits)),
                ("bandwidth_gbps".into(), Json::from(*gbps)),
            ])
        })
        .collect();
    let max_ns = r.mem.read_latency.max().map_or(0.0, |d| d.as_ns_f64());
    let mut fields = vec![
        ("workload".to_string(), Json::from(workload_name(spec))),
        ("system".to_string(), Json::from(label)),
        (
            "composition".to_string(),
            Json::Obj(vec![
                ("substrate".into(), Json::from(comp.substrate)),
                ("scheduler".into(), Json::from(comp.scheduler)),
                // The mapper and refresh manager follow the config.
                ("mapper".into(), Json::from("interleaved")),
                ("refresh".into(), Json::from(refresh)),
            ]),
        ),
        ("elapsed_ns".to_string(), Json::from(r.elapsed.as_ns_f64())),
        ("ipc_sum".to_string(), Json::from(ipc_sum)),
        (
            "ipc".to_string(),
            Json::Arr(r.ipcs().into_iter().map(Json::from).collect()),
        ),
        ("bandwidth_gbps".to_string(), Json::from(r.bandwidth_gbps())),
        (
            "traffic".to_string(),
            Json::Obj(vec![
                ("demand_reads".into(), Json::from(r.mem.demand_reads)),
                (
                    "sw_prefetch_reads".into(),
                    Json::from(r.mem.sw_prefetch_reads),
                ),
                (
                    "hw_prefetch_reads".into(),
                    Json::from(r.mem.hw_prefetch_reads),
                ),
                ("writes".into(), Json::from(r.mem.writes)),
                ("data_bytes".into(), Json::from(r.mem.data_bytes)),
            ]),
        ),
        ("channels".to_string(), Json::Arr(channels)),
        (
            "read_latency".to_string(),
            Json::Obj(vec![
                ("count".into(), Json::from(r.mem.read_latency.count())),
                ("mean_ns".into(), Json::from(r.avg_read_latency_ns())),
                ("max_ns".into(), Json::from(max_ns)),
                (
                    "p50_ns".into(),
                    Json::from(r.read_latency_percentile_ns(0.50)),
                ),
                (
                    "p95_ns".into(),
                    Json::from(r.read_latency_percentile_ns(0.95)),
                ),
                (
                    "p99_ns".into(),
                    Json::from(r.read_latency_percentile_ns(0.99)),
                ),
            ]),
        ),
        (
            "prefetch".to_string(),
            Json::Obj(vec![
                ("amb_hits".into(), Json::from(r.mem.amb_hits)),
                (
                    "lines_prefetched".into(),
                    Json::from(r.mem.lines_prefetched),
                ),
                ("coverage".into(), Json::from(r.mem.prefetch_coverage())),
                ("efficiency".into(), Json::from(r.mem.prefetch_efficiency())),
            ]),
        ),
        (
            "dram".to_string(),
            Json::Obj(vec![
                ("act_pre".into(), Json::from(r.mem.dram_ops.act_pre)),
                ("col_reads".into(), Json::from(r.mem.dram_ops.col_reads)),
                ("col_writes".into(), Json::from(r.mem.dram_ops.col_writes)),
                ("refreshes".into(), Json::from(r.mem.dram_ops.refreshes)),
            ]),
        ),
        (
            "energy".to_string(),
            Json::Obj(vec![
                (
                    "current_set".into(),
                    Json::from(r.energy.current_set.as_str()),
                ),
                ("activation_nj".into(), Json::from(r.energy.activation_nj)),
                ("burst_nj".into(), Json::from(r.energy.burst_nj)),
                ("refresh_nj".into(), Json::from(r.energy.refresh_nj)),
                ("background_nj".into(), Json::from(r.energy.background_nj)),
                ("amb_nj".into(), Json::from(r.energy.amb_nj)),
                ("total_nj".into(), Json::from(r.energy.total_nj())),
                ("total_j".into(), Json::from(r.energy.total_j())),
                ("avg_power_w".into(), Json::from(r.energy.avg_power_w())),
                (
                    "background_fraction".into(),
                    Json::from(r.energy.background_fraction()),
                ),
            ]),
        ),
    ];
    // Present only when fault injection ran, so a no-fault run's
    // document stays byte-identical to one from a build without the
    // fault flags.
    if let Some(fr) = &r.faults {
        fields.push((
            "errors".to_string(),
            Json::Obj(vec![
                ("injected".into(), Json::from(fr.counters.injected)),
                ("detected".into(), Json::from(fr.counters.detected)),
                ("retried".into(), Json::from(fr.counters.retried)),
                (
                    "retry_exhausted".into(),
                    Json::from(fr.counters.retry_exhausted),
                ),
                ("escaped".into(), Json::from(fr.counters.escaped)),
                ("failovers".into(), Json::from(fr.counters.failovers)),
                (
                    "dropped_prefetch".into(),
                    Json::from(fr.counters.dropped_prefetch),
                ),
                ("degraded_ns".into(), Json::from(fr.degraded.as_ns_f64())),
                ("probes".into(), Json::from(fr.counters.probes)),
                ("failbacks".into(), Json::from(fr.counters.failbacks)),
                ("reissued".into(), Json::from(fr.counters.reissued)),
                ("scrub_reads".into(), Json::from(fr.counters.scrub_reads)),
                (
                    "scrub_rewrites".into(),
                    Json::from(fr.counters.scrub_rewrites),
                ),
                (
                    "silent".into(),
                    Json::Obj(vec![
                        (
                            "poisoned_lines".into(),
                            Json::from(fr.silent.poisoned_lines),
                        ),
                        (
                            "demand_consumed".into(),
                            Json::from(fr.silent.demand_consumed),
                        ),
                        (
                            "scrubbed_clean".into(),
                            Json::from(fr.silent.scrubbed_clean),
                        ),
                    ]),
                ),
            ]),
        ));
    }
    fields.push(("latency_stages".to_string(), r.profile.to_json()));
    if let Some(tel) = &r.telemetry {
        fields.push(("metrics".to_string(), tel.registry.to_json()));
        if let Some(sampler) = &tel.sampler {
            fields.push(("series".to_string(), sampler.to_json(&tel.registry)));
        }
    }
    // Host-side observability: wall time, per-phase breakdown,
    // throughput and build provenance. Always present; wall-clock
    // fields are the one nondeterministic part of the document, so
    // byte-comparing consumers strip this key.
    fields.push(("host".to_string(), r.host.to_json()));
    fields
}

const CSV_HEADER: &str =
    "workload,system,ipc_sum,bandwidth_gbps,avg_latency_ns,p50_ns,p95_ns,p99_ns,\
     demand_reads,prefetch_reads,writes,amb_hits,coverage,efficiency,act_pre,col_accesses,\
     energy_total_nj,avg_power_w";

fn report(
    out: &mut impl Write,
    label: &str,
    spec: &RunSpec,
    r: &RunResult,
    csv: bool,
) -> std::io::Result<()> {
    let ipc_sum: f64 = r.ipcs().iter().sum();
    if csv {
        writeln!(
            out,
            "{},{},{:.4},{:.3},{:.2},{:.2},{:.2},{:.2},{},{},{},{},{:.4},{:.4},{},{},{:.1},{:.3}",
            workload_name(spec),
            label,
            ipc_sum,
            r.bandwidth_gbps(),
            r.avg_read_latency_ns(),
            r.read_latency_percentile_ns(0.50),
            r.read_latency_percentile_ns(0.95),
            r.read_latency_percentile_ns(0.99),
            r.mem.demand_reads,
            r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads,
            r.mem.writes,
            r.mem.amb_hits,
            r.mem.prefetch_coverage(),
            r.mem.prefetch_efficiency(),
            r.mem.dram_ops.act_pre,
            r.mem.dram_ops.col_total(),
            r.energy.total_nj(),
            r.energy.avg_power_w(),
        )?;
    } else {
        writeln!(out, "{} on {}:", workload_name(spec), label)?;
        writeln!(out, "  IPC sum            {ipc_sum:.3}")?;
        writeln!(out, "  bandwidth          {:.2} GB/s", r.bandwidth_gbps())?;
        writeln!(
            out,
            "  read latency       avg {:.1} / p50 {:.0} / p95 {:.0} / p99 {:.0} ns",
            r.avg_read_latency_ns(),
            r.read_latency_percentile_ns(0.50),
            r.read_latency_percentile_ns(0.95),
            r.read_latency_percentile_ns(0.99)
        )?;
        writeln!(
            out,
            "  traffic            {} demand reads, {} prefetch reads, {} writes",
            r.mem.demand_reads,
            r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads,
            r.mem.writes
        )?;
        if r.mem.amb_hits > 0 || r.mem.lines_prefetched > 0 {
            writeln!(
                out,
                "  AMB prefetching    {} hits, coverage {:.1}%, efficiency {:.1}%",
                r.mem.amb_hits,
                r.mem.prefetch_coverage() * 100.0,
                r.mem.prefetch_efficiency() * 100.0
            )?;
        }
        writeln!(
            out,
            "  DRAM operations    {} ACT/PRE, {} column accesses",
            r.mem.dram_ops.act_pre,
            r.mem.dram_ops.col_total()
        )?;
        writeln!(
            out,
            "  energy             {:.2} µJ total ({:.2} W avg), {:.0}% DRAM background",
            r.energy.total_nj() / 1_000.0,
            r.energy.avg_power_w(),
            r.energy.background_fraction() * 100.0
        )?;
        if let Some(fr) = &r.faults {
            writeln!(
                out,
                "  channel faults     {} injected, {} retried, {} exhausted, {} failovers, \
                 {} prefetch drops",
                fr.counters.injected,
                fr.counters.retried,
                fr.counters.retry_exhausted,
                fr.counters.failovers,
                fr.counters.dropped_prefetch
            )?;
            if fr.counters.failovers > 0 {
                writeln!(
                    out,
                    "                     degraded-width residency {:.1} µs",
                    fr.degraded.as_ns_f64() / 1_000.0
                )?;
            }
            if fr.counters.escaped > 0 || fr.silent.any() {
                writeln!(
                    out,
                    "  silent errors      {} CRC escapes, {} poisoned lines at end, \
                     {} demand reads consumed one, {} scrubbed clean",
                    fr.counters.escaped,
                    fr.silent.poisoned_lines,
                    fr.silent.demand_consumed,
                    fr.silent.scrubbed_clean
                )?;
            }
            if fr.counters.scrub_reads > 0 {
                writeln!(
                    out,
                    "  patrol scrubbing   {} verify reads, {} rewrites",
                    fr.counters.scrub_reads, fr.counters.scrub_rewrites
                )?;
            }
            if fr.counters.probes > 0 || fr.counters.failbacks > 0 {
                writeln!(
                    out,
                    "  lane fail-back     {} probes, {} fail-backs",
                    fr.counters.probes, fr.counters.failbacks
                )?;
            }
            if fr.counters.reissued > 0 {
                writeln!(
                    out,
                    "  prefetch re-issue  {} dropped returns re-fetched",
                    fr.counters.reissued
                )?;
            }
        }
        if r.host.enabled {
            let mut top: Vec<(&str, Duration)> = r
                .host
                .phases
                .iter()
                .filter(|(_, d)| !d.is_zero())
                .map(|&(l, d)| (l, d))
                .collect();
            top.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
            let top: Vec<String> = top
                .iter()
                .take(2)
                .map(|(l, d)| {
                    format!(
                        "{l} {:.0}%",
                        100.0 * d.as_secs_f64() / r.host.wall.as_secs_f64().max(1e-12)
                    )
                })
                .collect();
            writeln!(
                out,
                "  host               {} wall, {}cyc/s, {}instr/s ({})",
                fmt_duration(r.host.wall),
                si(r.host.cycles_per_sec()),
                si(r.host.instr_per_sec()),
                top.join(", ")
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn cmd_list(out: &mut impl Write) -> Outcome {
    let names: Vec<&str> = substrates().names().collect();
    writeln!(out, "systems: {}", names.join(" "))?;
    writeln!(out)?;
    writeln!(out, "workloads:")?;
    for w in all_workloads() {
        let names: Vec<&str> = w.benchmarks().iter().map(|b| b.name).collect();
        writeln!(
            out,
            "  {:<12} {} core(s): {}",
            w.name(),
            w.cores(),
            names.join(", ")
        )?;
    }
    Ok(())
}

/// Prints every registered substrate with its timing spec and the key
/// Table-2 parameters, in registration order.
fn cmd_list_substrates(out: &mut impl Write) -> Outcome {
    writeln!(
        out,
        "substrates (select with --substrate; --system is an alias on run):"
    )?;
    for (name, sub) in substrates().iter() {
        let cfg = sub.config();
        let t = &cfg.timings;
        writeln!(out, "  {:<10} {}", name, sub.description())?;
        writeln!(
            out,
            "             {} @ {:.0} MT/s, tCL {:.2} / tRCD {:.2} / tRP {:.2} ns, \
             {} channel(s) x {} DIMM(s)",
            sub.timing_spec(),
            cfg.data_rate.mega_transfers(),
            t.t_cl.as_ns_f64(),
            t.t_rcd.as_ns_f64(),
            t.t_rp.as_ns_f64(),
            cfg.logical_channels,
            cfg.dimms_per_channel,
        )?;
    }
    Ok(())
}

/// Prints every registered scheduling policy, in registration order.
fn cmd_list_schedulers(out: &mut impl Write) -> Outcome {
    writeln!(
        out,
        "schedulers (select with --scheduler on run/compare/sweep):"
    )?;
    for (name, spec) in schedulers().iter() {
        writeln!(out, "  {:<10} {}", name, spec.description())?;
    }
    Ok(())
}

fn cmd_run(args: &Args, out: &mut impl Write) -> Outcome {
    let opts = resolve(args)?;
    let (flag, name) = substrate_option(args, None)?;
    let grid = [(name.to_string(), opts.on(flag, name)?)];
    let results = run_grid(&grid, &opts)?;
    let (label, spec) = &grid[0];
    let r = &results[0];
    let doc = || Json::Obj(stats_document(label, spec, r));
    let csv = args.has_flag("csv");
    if args.has_flag("json") {
        writeln!(out, "{}", doc().to_json())?;
    } else {
        if csv {
            writeln!(out, "{CSV_HEADER}")?;
        }
        report(out, label, spec, r, csv)?;
    }
    if let Some(path) = args.get("stats-json") {
        write_file(path, doc().to_json_pretty(2))?;
    }
    if let Some(path) = args.get("trace-out") {
        let Some(tracer) = r.telemetry.as_ref().and_then(|t| t.tracer.as_ref()) else {
            return Err(failed("internal error: --trace-out ran without a tracer"));
        };
        write_file(path, tracer.to_chrome_trace().to_json_pretty(1))?;
    }
    if args.has_flag("timeline") {
        writeln!(
            out,
            "bandwidth over time ({} epochs):",
            r.mem.bandwidth_series.epoch()
        )?;
        for (i, gbps) in r.mem.bandwidth_series.series_gbps().iter().enumerate() {
            let bar = "#".repeat((gbps * 2.0).round() as usize);
            writeln!(out, "  {:>5} µs  {gbps:>6.2} GB/s  {bar}", i)?;
        }
    }
    Ok(())
}

/// One row of the per-stage attribution table.
fn stage_row(label: &str, h: &LogHistogram, e2e_total_ns: f64) -> String {
    let share = if e2e_total_ns > 0.0 {
        100.0 * h.total_ns() / e2e_total_ns
    } else {
        0.0
    };
    format!(
        "    {label:<12} {:>12.1} {:>9.2} {:>8.1} {:>8.1} {share:>6.1}%",
        h.total_ns(),
        h.mean_ns(),
        h.percentile(0.50).as_ns_f64(),
        h.percentile(0.99).as_ns_f64(),
    )
}

/// Runs one workload and prints the stage-resolved latency attribution:
/// per request class, where every nanosecond of read and write latency
/// went.
fn cmd_profile(args: &Args, out: &mut impl Write) -> Outcome {
    let opts = resolve(args)?;
    let (flag, name) = substrate_option(args, Some("fbd-ap"))?;
    let grid = [(name.to_string(), opts.on(flag, name)?)];
    let results = run_grid(&grid, &opts)?;
    let (label, spec) = &grid[0];
    let r = &results[0];
    let doc = || Json::Obj(stats_document(label, spec, r));
    let p = &r.profile;
    if args.has_flag("json") {
        writeln!(out, "{}", doc().to_json())?;
    } else {
        writeln!(
            out,
            "latency attribution for {} on {}:",
            workload_name(spec),
            label
        )?;
        let reads = p.reads();
        let matched = reads - p.mismatches();
        let pct = if reads > 0 {
            100.0 * matched as f64 / reads as f64
        } else {
            100.0
        };
        writeln!(
            out,
            "  stage sums match end-to-end latency for {pct:.1}% of reads ({matched}/{reads})"
        )?;
        let writes = p.writes();
        let wmatched = writes - p.write_mismatches();
        let wpct = if writes > 0 {
            100.0 * wmatched as f64 / writes as f64
        } else {
            100.0
        };
        writeln!(
            out,
            "  stage sums match end-to-end latency for {wpct:.1}% of writes ({wmatched}/{writes})"
        )?;
        writeln!(out)?;
        for class in REQ_CLASSES {
            let e2e = p.end_to_end(class);
            if e2e.is_empty() {
                continue;
            }
            writeln!(
                out,
                "  {} ({} {})  e2e mean {:.1} / p50 {:.0} / p90 {:.0} / p99 {:.0} / max {:.0} ns",
                class.label(),
                e2e.count(),
                if class.is_write() { "writes" } else { "reads" },
                e2e.mean_ns(),
                e2e.percentile(0.50).as_ns_f64(),
                e2e.percentile(0.90).as_ns_f64(),
                e2e.percentile(0.99).as_ns_f64(),
                e2e.max().as_ns_f64(),
            )?;
            writeln!(
                out,
                "    {:<12} {:>12} {:>9} {:>8} {:>8} {:>7}",
                "stage", "total ns", "mean ns", "p50 ns", "p99 ns", "share"
            )?;
            // Skip only stages with no recorded events: a stage whose
            // share rounds to 0.0% (e.g. `retry` on a clean channel)
            // still prints when its event count is nonzero.
            for stage in STAGES {
                let h = p.stage(class, stage);
                if h.is_empty() {
                    continue;
                }
                writeln!(out, "{}", stage_row(stage.label(), h, e2e.total_ns()))?;
            }
            writeln!(out)?;
        }
    }
    if let Some(path) = args.get("folded-out") {
        write_file(path, p.to_folded())?;
    }
    if let Some(path) = args.get("stats-json") {
        write_file(path, doc().to_json_pretty(2))?;
    }
    Ok(())
}

/// The tail `compare` and `sweep` share: runs the grid, reports every
/// point in grid order (unless `--json`), and emits one statistics
/// document whose `points` array holds the full per-run document of
/// every point.
fn emit_grid(
    cmd: &str,
    args: &Args,
    opts: &Resolved,
    grid: &[(String, RunSpec)],
    out: &mut impl Write,
) -> Outcome {
    let session_start = Instant::now();
    let results = run_grid(grid, opts)?;
    let host = session_host_json(session_start, &results);
    let (json, csv) = (args.has_flag("json"), args.has_flag("csv"));
    if csv && !json {
        writeln!(out, "{CSV_HEADER}")?;
    }
    let mut points = Vec::new();
    for ((label, spec), r) in grid.iter().zip(&results) {
        if !json {
            report(out, label, spec, r, csv)?;
        }
        points.push(Json::Obj(stats_document(label, spec, r)));
    }
    let doc = Json::Obj(vec![
        ("command".to_string(), Json::from(cmd)),
        (
            "workload".to_string(),
            Json::from(workload_name(&opts.base)),
        ),
        ("host".to_string(), host),
        ("points".to_string(), Json::Arr(points)),
    ]);
    if json {
        writeln!(out, "{}", doc.to_json())?;
    }
    match args.get("stats-json") {
        Some(path) => write_file(path, doc.to_json_pretty(2)),
        None => Ok(()),
    }
}

/// The grid-level `host` object on `compare`/`sweep` documents: the
/// whole command's wall time and aggregate simulation throughput plus
/// build provenance. Per-point phase breakdowns live in each point's
/// own `host` object.
fn session_host_json(start: Instant, results: &[RunResult]) -> Json {
    let wall = start.elapsed().as_secs_f64();
    let cycles: u64 = results.iter().map(|r| r.host.sim_cycles).sum();
    let instructions: u64 = results.iter().map(|r| r.host.instructions).sum();
    let per_sec = |n: u64| {
        if wall > 0.0 {
            n as f64 / wall
        } else {
            0.0
        }
    };
    let mut fields = vec![
        ("wall_s".to_string(), Json::from(wall)),
        ("sim_cycles".to_string(), Json::from(cycles)),
        ("instructions".to_string(), Json::from(instructions)),
        ("cycles_per_sec".to_string(), Json::from(per_sec(cycles))),
        (
            "instr_per_sec".to_string(),
            Json::from(per_sec(instructions)),
        ),
    ];
    if let Some(rss) = fbd_telemetry::host::peak_rss_bytes() {
        fields.push(("peak_rss_bytes".to_string(), Json::from(rss)));
    }
    fields.push(("build".to_string(), fbd_core::build_info().to_json()));
    Json::Obj(fields)
}

fn cmd_compare(args: &Args, out: &mut impl Write) -> Outcome {
    let opts = resolve(args)?;
    // Every grid point is an independent simulation: `run_grid` runs
    // them across all cores, then they are reported strictly in grid
    // order so the output stays byte-for-byte deterministic.
    // `--substrate a,b,c` replaces the default paper grid.
    let names = args.get("substrate").unwrap_or("ddr2,fbd,fbd-ap,fbd-apfl");
    let grid = names
        .split(',')
        .map(str::trim)
        .map(|name| Ok((name.to_string(), opts.on("substrate", name)?)))
        .collect::<Result<Vec<_>, Fail>>()?;
    emit_grid("compare", args, &opts, &grid, out)
}

fn cmd_sweep(args: &Args, out: &mut impl Write) -> Outcome {
    let opts = resolve(args)?;
    let knob = args.get("knob").ok_or_else(usage)?;
    // `--substrate` re-bases the sweep on any registered preset; the
    // default is the paper's fbd-ap system.
    let (flag, name) = substrate_option(args, Some("fbd-ap"))?;
    let base = opts.on(flag, name)?;
    let Some(points) = sweep_points(knob, name, *base.system()) else {
        return Err(bad(format!(
            "unknown knob `{knob}` (k|entries|assoc|channels|rate|grid)"
        )));
    };
    let grid: Vec<(String, RunSpec)> = points
        .into_iter()
        .map(|(label, cfg)| {
            let mut spec = base.clone();
            *spec.system_mut() = cfg;
            (label, spec)
        })
        .collect();
    emit_grid("sweep", args, &opts, &grid, out)
}

/// The labeled configuration grid a `sweep` knob expands to, or `None`
/// for an unknown knob. Labels carry the base substrate's name. The
/// `grid` knob is the 64-point cross product (entries × channels × k ×
/// rate), which crosses the four design knobs in one command.
fn sweep_points(knob: &str, name: &str, base: SystemConfig) -> Option<Vec<(String, SystemConfig)>> {
    let points: Vec<(String, SystemConfig)> = match knob {
        "k" => [2u32, 4, 8]
            .iter()
            .map(|&k| {
                let mut c = base;
                c.mem.amb.region_lines = k;
                c.mem.interleaving = Interleaving::MultiCacheline { lines: k };
                (format!("{name}/k={k}"), c)
            })
            .collect(),
        "entries" => [32u32, 64, 128]
            .iter()
            .map(|&e| {
                let mut c = base;
                c.mem.amb.cache_lines = e;
                (format!("{name}/entries={e}"), c)
            })
            .collect(),
        "assoc" => vec![
            ("direct", Associativity::Direct),
            ("2way", Associativity::Ways(2)),
            ("4way", Associativity::Ways(4)),
            ("full", Associativity::Full),
        ]
        .into_iter()
        .map(|(l, a)| {
            let mut c = base;
            c.mem.amb.associativity = a;
            (format!("{name}/{l}"), c)
        })
        .collect(),
        "channels" => [1u32, 2, 4]
            .iter()
            .map(|&n| {
                let mut c = base;
                c.mem.logical_channels = n;
                (format!("{name}/{n}ch"), c)
            })
            .collect(),
        "rate" => [
            ("533", DataRate::MTS533),
            ("667", DataRate::MTS667),
            ("800", DataRate::MTS800),
        ]
        .iter()
        .map(|&(l, r)| {
            let mut c = base;
            c.mem.data_rate = r;
            (format!("{name}/{l}MT"), c)
        })
        .collect(),
        "grid" => {
            let mut pts = Vec::new();
            for &entries in &[32u32, 64, 128, 256] {
                for &channels in &[1u32, 2, 4, 8] {
                    for &k in &[2u32, 4] {
                        for &(label, rate) in
                            &[("667", DataRate::MTS667), ("800", DataRate::MTS800)]
                        {
                            let mut c = base;
                            c.mem.amb.cache_lines = entries;
                            c.mem.amb.region_lines = k;
                            c.mem.interleaving = Interleaving::MultiCacheline { lines: k };
                            c.mem.logical_channels = channels;
                            c.mem.data_rate = rate;
                            pts.push((format!("{name}/e{entries}-{channels}ch-k{k}-{label}MT"), c));
                        }
                    }
                }
            }
            pts
        }
        _ => return None,
    };
    Some(points)
}

fn cmd_record(args: &Args, out: &mut impl Write) -> Outcome {
    let opts = resolve(args)?;
    let (flag, name) = substrate_option(args, None)?;
    let path = args.get("out").ok_or_else(usage)?;
    // Record the raw access stream: no L2 warm-up, so the trace starts
    // at the first transaction (matching the historical behavior of
    // `System::new`).
    let spec = opts.on(flag, name)?.warmup(Warmup::Ops(0)).capture_trace();
    let mut results = run_grid(&[(name.to_string(), spec)], &opts)?;
    let Some(trace) = results.remove(0).trace else {
        return Err(failed("internal error: record ran without trace capture"));
    };
    let mut file = std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .map_err(|e| failed(format!("cannot create {path}: {e}")))?;
    trace
        .to_csv(&mut file)
        .and_then(|()| file.flush())
        .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "recorded {} transactions from {} on {} to {}",
        trace.len(),
        workload_name(&opts.base),
        name,
        path
    )?;
    Ok(())
}

fn cmd_replay(args: &Args, out: &mut impl Write) -> Outcome {
    let path = args.get("trace").ok_or_else(usage)?;
    let (flag, name) = substrate_option(args, None)?;
    let substrate = substrates()
        .get(name)
        .ok_or_else(|| unknown_substrate(flag, name))?;
    let file = std::fs::File::open(path).map_err(|e| failed(format!("cannot open {path}: {e}")))?;
    // Malformed input is the user's to fix, like any other bad
    // argument: report the offending line and exit 2.
    let trace = fbd_core::MemoryTrace::from_csv(std::io::BufReader::new(file))
        .map_err(|e| bad(format!("cannot parse {path}: {e}")))?;
    let result = fbd_core::replay(&substrate.config(), &trace);
    writeln!(out, "replayed {} transactions on {}:", trace.len(), name)?;
    writeln!(
        out,
        "  finished at        {:.2} µs",
        result.finished.as_ns_f64() / 1_000.0
    )?;
    writeln!(
        out,
        "  bandwidth          {:.2} GB/s",
        result.bandwidth_gbps()
    )?;
    writeln!(
        out,
        "  read latency       avg {:.1} ns",
        result
            .mem
            .read_latency
            .mean()
            .map_or(0.0, |d| d.as_ns_f64())
    )?;
    writeln!(
        out,
        "  DRAM operations    {} ACT/PRE, {} column accesses",
        result.mem.dram_ops.act_pre,
        result.mem.dram_ops.col_total()
    )?;
    if result.mem.amb_hits > 0 {
        writeln!(
            out,
            "  AMB prefetching    {} hits, coverage {:.1}%",
            result.mem.amb_hits,
            result.mem.prefetch_coverage() * 100.0
        )?;
    }
    writeln!(
        out,
        "  energy             {:.2} µJ total ({:.2} W avg)",
        result.energy.total_nj() / 1_000.0,
        result.energy.avg_power_w()
    )?;
    Ok(())
}

/// Prints build provenance: crate version, git SHA, rustc and profile
/// (the same `build` object every stats JSON document embeds).
fn cmd_version(out: &mut impl Write) -> Outcome {
    let b = fbd_core::build_info();
    writeln!(
        out,
        "fbdsim {} ({}, {}, {} profile)",
        b.version, b.git_sha, b.rustc, b.profile
    )?;
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let outcome = match argv.split_first() {
        Some((cmd, raw)) => dispatch(cmd, raw, &mut out),
        None => Err(usage()),
    };
    match outcome.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Exit(code)) => code,
        // A closed stdout (`fbdsim list | head -1`) ends the command
        // quietly, as it does any Unix filter.
        Err(Fail::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Fail::Stdout(e)) => {
            eprintln!("cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs subcommand `cmd`; all of its stdout goes through `out`.
fn dispatch(cmd: &str, raw: &[String], out: &mut impl Write) -> Outcome {
    let args = Args::parse(cmd, raw)?;
    match cmd {
        "help" | "--help" | "-h" => Ok(writeln!(out, "{}", usage_text())?),
        "version" | "--version" | "-V" => cmd_version(out),
        "list" => cmd_list(out),
        "list-substrates" => cmd_list_substrates(out),
        "list-schedulers" => cmd_list_schedulers(out),
        "run" => cmd_run(&args, out),
        "profile" => cmd_profile(&args, out),
        "compare" => cmd_compare(&args, out),
        "sweep" => cmd_sweep(&args, out),
        "record" => cmd_record(&args, out),
        "replay" => cmd_replay(&args, out),
        _ => Err(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, raw: &[&str]) -> Result<Args, Fail> {
        let v: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(cmd, &v)
    }

    /// `run`'s options resolved from `--workload 1C-swim` plus `extra`.
    fn run_opts(extra: &[&str]) -> Result<Resolved, Fail> {
        let mut raw = vec!["--workload", "1C-swim"];
        raw.extend_from_slice(extra);
        resolve(&parse("run", &raw)?)
    }

    fn faults(raw: &[&str]) -> Result<Option<FaultConfig>, Fail> {
        fault_options(&parse("run", raw)?)
    }

    #[test]
    fn parses_pairs_and_flags() {
        let args = parse(
            "run",
            &["--workload", "1C-swim", "--csv", "--budget", "1000"],
        )
        .unwrap();
        assert_eq!(args.get("workload"), Some("1C-swim"));
        assert_eq!(args.get("budget"), Some("1000"));
        assert!(args.has_flag("csv"));
        assert!(!args.has_flag("timeline"));
        assert_eq!(args.get("missing"), None);
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(parse("run", &["stray"]).is_err());
        assert!(parse("run", &["--budget", "1", "stray"]).is_err());
        // Subcommands that read no options ignore them, but still
        // reject a positional argument.
        assert!(parse("list", &["--anything"]).is_ok());
        assert!(parse("list", &["stray"]).is_err());
    }

    #[test]
    fn trailing_flag_parses() {
        let args = parse("run", &["--csv"]).unwrap();
        assert!(args.has_flag("csv"));
    }

    #[test]
    fn workloads_and_systems_resolve() {
        let opts = run_opts(&[]).unwrap();
        // Every registered substrate resolves, including the extension
        // entries that exist only in the registry.
        for s in ["ddr2", "fbd", "fbd-ap", "fbd-apfl", "fbd-ddr3", "ddr3-1066"] {
            opts.on("substrate", s).expect(s).validate().unwrap();
        }
        assert!(opts.on("substrate", "ddr5").is_err());
        let spec = resolve(&parse("run", &["--workload", "4C-1"]).unwrap())
            .unwrap()
            .on("system", "fbd")
            .unwrap();
        assert_eq!(
            spec.system().cpu.cores,
            4,
            "the workload sets the core count"
        );
        assert!(resolve(&parse("run", &["--workload", "9C-1"]).unwrap()).is_err());
        assert!(resolve(&parse("run", &[]).unwrap()).is_err());
    }

    #[test]
    fn scheduler_flag_resolves_against_the_registry() {
        // Absent means the paper's hit-first policy.
        let scheduler = |extra: &[&str]| {
            let spec = run_opts(extra)?.on("substrate", "fbd-ap")?;
            Ok::<_, Fail>(spec.composition().scheduler)
        };
        assert_eq!(scheduler(&[]).unwrap(), "hit-first");
        for name in ["hit-first", "fcfs"] {
            assert_eq!(scheduler(&["--scheduler", name]).unwrap(), name);
        }
        assert!(scheduler(&["--scheduler", "round-robin"]).is_err());
    }

    #[test]
    fn composition_metadata_reflects_the_selection() {
        let comp = run_opts(&["--scheduler", "fcfs"])
            .unwrap()
            .on("substrate", "fbd-ap")
            .unwrap()
            .composition();
        assert_eq!(comp.substrate, "fbd-ap");
        assert_eq!(comp.scheduler, "fcfs");
        // The substrate label survives a config edit (e.g. fault
        // injection) that makes the config diverge from the preset.
        let mut spec = RunSpec::paper_default(1).try_substrate("fbd-ap").unwrap();
        spec.system_mut().mem.faults.ber = 1e-6;
        assert_eq!(spec.composition().substrate, "fbd-ap");
        let spec = run_opts(&["--fault-ber", "1e-6"])
            .unwrap()
            .on("system", "fbd-ap")
            .unwrap();
        assert_eq!(spec.system().mem.faults.ber, 1e-6);
        assert_eq!(spec.composition().substrate, "fbd-ap");
    }

    #[test]
    fn telemetry_flags_resolve() {
        // No telemetry flags: instrumentation stays off entirely.
        let opts = run_opts(&[]).unwrap();
        assert_eq!((opts.sample_cycles, opts.trace), (None, false));
        // `--trace-out` alone turns tracing on without sampling.
        let opts = run_opts(&["--trace-out", "/tmp/t.json"]).unwrap();
        assert_eq!((opts.sample_cycles, opts.trace), (None, true));
        // `--sample-interval` is in memory-clock cycles.
        let opts = run_opts(&["--sample-interval", "512"]).unwrap();
        assert_eq!((opts.sample_cycles, opts.trace), (Some(512), false));
    }

    #[test]
    fn telemetry_rejects_bad_sample_intervals() {
        for bad in ["0", "-5", "abc", "1.5", "18446744073709551615"] {
            let telemetry = run_opts(&["--sample-interval", bad])
                .and_then(|opts| opts.telemetry(&opts.on("substrate", "fbd-ap")?));
            assert!(telemetry.is_err(), "interval `{bad}` must be rejected");
        }
    }

    #[test]
    fn stats_document_matches_run_result() {
        let spec = run_opts(&[])
            .unwrap()
            .on("substrate", "fbd-ap")
            .unwrap()
            .budget(20_000);
        let cfg = *spec.system();
        let tc = TelemetryConfig {
            sample_interval: Some(cfg.mem.data_rate.clock_period() * 512),
            trace: true,
        };
        let r = spec.clone().telemetry(tc).run();
        let doc = Json::Obj(stats_document("fbd-ap", &spec, &r));
        // The document round-trips through its own writer and parser.
        let parsed = fbd_telemetry::json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some("1C-swim")
        );
        // The composition object names every pluggable part.
        let c = parsed.get("composition").expect("composition present");
        assert_eq!(c.get("substrate").and_then(Json::as_str), Some("fbd-ap"));
        assert_eq!(c.get("scheduler").and_then(Json::as_str), Some("hit-first"));
        assert_eq!(c.get("mapper").and_then(Json::as_str), Some("interleaved"));
        assert_eq!(c.get("refresh").and_then(Json::as_str), Some("none"));
        // Summed channel bandwidth agrees with the scalar headline.
        let chans = parsed.get("channels").and_then(Json::as_array).unwrap();
        assert_eq!(chans.len(), cfg.mem.logical_channels as usize);
        let reads: f64 = chans
            .iter()
            .map(|c| c.get("reads").and_then(Json::as_f64).unwrap())
            .sum();
        let all_reads = r.mem.demand_reads + r.mem.sw_prefetch_reads + r.mem.hw_prefetch_reads;
        assert_eq!(reads as u64, all_reads);
        // Latency, prefetch, and DRAM operation fields mirror MemStats.
        let lat = parsed.get("read_latency").unwrap();
        assert_eq!(
            lat.get("count").and_then(Json::as_f64),
            Some(r.mem.demand_reads as f64)
        );
        let mean = lat.get("mean_ns").and_then(Json::as_f64).unwrap();
        assert!((mean - r.avg_read_latency_ns()).abs() < 1e-6);
        let pf = parsed.get("prefetch").unwrap();
        assert_eq!(
            pf.get("amb_hits").and_then(Json::as_f64),
            Some(r.mem.amb_hits as f64)
        );
        let dram = parsed.get("dram").unwrap();
        assert_eq!(
            dram.get("act_pre").and_then(Json::as_f64),
            Some(r.mem.dram_ops.act_pre as f64)
        );
        assert_eq!(dram.get("refreshes").and_then(Json::as_f64), Some(0.0));
        // The energy object is always present and internally consistent:
        // the five components sum to the reported total.
        let energy = parsed.get("energy").unwrap();
        let component_sum: f64 = [
            "activation_nj",
            "burst_nj",
            "refresh_nj",
            "background_nj",
            "amb_nj",
        ]
        .iter()
        .map(|k| energy.get(k).and_then(Json::as_f64).unwrap())
        .sum();
        let total = energy.get("total_nj").and_then(Json::as_f64).unwrap();
        assert!((component_sum - total).abs() < 1e-6 * total.max(1.0));
        assert!(total > 0.0);
        assert!(energy.get("avg_power_w").and_then(Json::as_f64).unwrap() > 0.0);
        // The active IDD current set is named (fbd-ap runs DDR2-667).
        assert_eq!(
            energy.get("current_set").and_then(Json::as_str),
            Some("micron_ddr2_667")
        );
        // The latency attribution is always present: its read count
        // covers every read class and no read violated the stage-sum
        // invariant.
        let stages = parsed.get("latency_stages").unwrap();
        assert_eq!(
            stages.get("reads").and_then(Json::as_f64),
            Some(all_reads as f64)
        );
        assert_eq!(stages.get("mismatches").and_then(Json::as_f64), Some(0.0));
        // The write attribution mirrors the read side: every retired
        // write is stamped and none violated the stage-sum invariant.
        let writes = stages.get("writes").expect("writes object present");
        assert_eq!(
            writes.get("count").and_then(Json::as_f64),
            Some(r.mem.writes as f64)
        );
        assert_eq!(writes.get("mismatches").and_then(Json::as_f64), Some(0.0));
        // Telemetry ran, so the registry and time-series are attached.
        assert!(parsed.get("metrics").is_some());
        assert!(parsed.get("series").is_some());
        // Without telemetry those sections are absent.
        let doc = Json::Obj(stats_document("fbd-ap", &spec, &spec.run()));
        assert!(doc.get("metrics").is_none());
        assert!(doc.get("series").is_none());
        // With refresh switched on, the composition names the staggered
        // manager and its refreshes reach the DRAM counters.
        let mut on = spec.clone();
        on.system_mut().mem.refresh = fbd_types::config::RefreshConfig::ddr2_1gb();
        let doc = Json::Obj(stats_document("fbd-ap", &on, &on.run()));
        let c = doc.get("composition").expect("composition present");
        assert_eq!(c.get("refresh").and_then(Json::as_str), Some("staggered"));
        let dram = doc.get("dram").unwrap();
        let refreshes = dram.get("refreshes").and_then(Json::as_f64).unwrap();
        assert!(refreshes > 0.0, "refreshes: {refreshes}");
    }

    #[test]
    fn unknown_options_are_usage_errors_on_every_subcommand() {
        let bogus = ["--workload", "1C-swim", "--bogus", "x"];
        for cmd in ["run", "profile", "compare", "sweep", "record", "replay"] {
            assert!(parse(cmd, &bogus).is_err(), "{cmd}");
        }
        assert!(parse("compare", &["--workload", "1C-swim", "--timeline"]).is_err());
        // A value-taking option with no value, and a boolean flag given
        // a value, are both rejected.
        assert!(parse("compare", &["--workload"]).is_err());
        assert!(parse("compare", &["--csv", "yes"]).is_err());
        for key in
            FAULT_KEYS
                .iter()
                .chain(&["scheduler", "stats-json", "trace-out", "sample-interval"])
        {
            let flag = format!("--{key}");
            assert!(parse("run", &[&flag, "--csv"]).is_err(), "bare {flag}");
            assert!(parse("run", &[&flag]).is_err(), "trailing bare {flag}");
        }
        // A repeated option is rejected, not silently resolved to one
        // of its values.
        assert!(parse("run", &["--budget", "2000", "--budget", "5"]).is_err());
        assert!(parse("compare", &["--csv", "--csv"]).is_err());
        // The happy path stays accepted.
        let ok = ["--workload", "1C-swim", "--csv", "--stats-json", "s.json"];
        assert!(parse("compare", &ok).is_ok());
    }

    #[test]
    fn experiment_flags_override_defaults() {
        let opts = run_opts(&["--budget", "123", "--seed", "9"]).unwrap();
        assert_eq!(opts.base.exp().budget, 123);
        assert_eq!(opts.base.exp().seed, 9);
        // Bad numbers are usage errors, not silent defaults.
        for bad in [
            &["--budget", "abc"][..],
            &["--budget", "0"],
            &["--budget", "-5"],
            &["--seed", "x"],
        ] {
            assert!(run_opts(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fault_flags_resolve() {
        // No fault flags: injection stays off entirely.
        assert!(faults(&["--workload", "1C-swim"]).unwrap().is_none());
        // --fault-ber alone uses the seed/mode defaults.
        let fc = faults(&["--fault-ber", "1e-6"]).unwrap().unwrap();
        assert_eq!(fc.ber, 1e-6);
        assert_eq!(fc.seed, FaultConfig::off().seed);
        assert_eq!(fc.mode, FaultMode::Ber);
        assert!(fc.is_active());
        // All three spelled out.
        let fc = faults(&[
            "--fault-ber",
            "0.001",
            "--fault-seed",
            "7",
            "--fault-mode",
            "stuck-lane",
        ])
        .unwrap()
        .unwrap();
        assert_eq!((fc.ber, fc.seed, fc.mode), (0.001, 7, FaultMode::StuckLane));
        // `--fault-ber 0` explicitly disables injection (still Some so
        // it overrides a preset, but inactive).
        let fc = faults(&["--fault-ber", "0"]).unwrap().unwrap();
        assert!(!fc.is_active());
    }

    #[test]
    fn reliability_flags_resolve() {
        // `--scrub patrol` stands alone: clean-channel scrubbing needs
        // no error process.
        let fc = faults(&["--scrub", "patrol"]).unwrap().unwrap();
        assert_eq!(fc.scrub, ScrubPolicyKind::Patrol);
        assert!(!fc.is_active());
        assert!(fc.recovery_active());
        assert_eq!(fc.scrub_interval_ns, FaultConfig::off().scrub_interval_ns);
        // `--scrub none` is an explicit off: Some so it overrides a
        // preset, but the zero-cost path stays selected.
        let fc = faults(&["--scrub", "none"]).unwrap().unwrap();
        assert_eq!(fc, FaultConfig::off());
        assert!(!fc.recovery_active());
        // The interval rides on patrol.
        let fc = faults(&["--scrub", "patrol", "--scrub-interval-ns", "250"])
            .unwrap()
            .unwrap();
        assert_eq!(fc.scrub_interval_ns, 250);
        // The full lifecycle spelled out on one error process.
        let fc = faults(&[
            "--fault-ber",
            "1e-5",
            "--crc-bits",
            "8",
            "--scrub",
            "patrol",
            "--failback",
            "2000",
            "--reissue",
            "8",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(fc.crc_bits, 8);
        assert_eq!(fc.scrub, ScrubPolicyKind::Patrol);
        assert_eq!(fc.failback_quiet_ns, 2000);
        assert_eq!(fc.reissue_budget, 8);
        assert!(fc.recovery_active());
        fc.validate().unwrap();
        // Explicit zeros keep the configuration byte-identical to the
        // defaults (the parity contract for the off spellings).
        let fc = faults(&[
            "--fault-ber",
            "0",
            "--crc-bits",
            "0",
            "--failback",
            "0",
            "--reissue",
            "0",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(fc, FaultConfig::off());
    }

    #[test]
    fn reliability_flags_reject_bad_values() {
        for bad in [
            // Unknown or malformed values.
            &["--fault-ber", "1e-6", "--crc-bits", "65"][..],
            &["--fault-ber", "1e-6", "--crc-bits", "-1"],
            &["--fault-ber", "1e-6", "--crc-bits", "x"],
            &["--scrub", "demand"],
            &["--scrub", "patrol", "--scrub-interval-ns", "0"],
            &["--scrub", "patrol", "--scrub-interval-ns", "abc"],
            &["--fault-ber", "1e-6", "--failback", "-3"],
            &["--fault-ber", "1e-6", "--reissue", "many"],
            // Detection/recovery shaping without an error process.
            &["--crc-bits", "8"],
            &["--failback", "2000"],
            &["--reissue", "8"],
            // The patrol rate limit without patrol.
            &["--scrub-interval-ns", "250"],
            &["--scrub", "none", "--scrub-interval-ns", "250"],
        ] {
            assert!(faults(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn a_failing_grid_point_is_an_exit_1_diagnostic() {
        let opts = run_opts(&["--budget", "1000"]).unwrap();
        let good = opts.on("substrate", "fbd").unwrap();
        let mut broken = good.clone();
        broken.system_mut().mem.logical_channels = 0;
        let grid = [("ok".to_string(), good), ("broken".to_string(), broken)];
        match run_grid(&grid, &opts) {
            Err(Fail::Exit(code)) => assert_eq!(code, ExitCode::FAILURE),
            other => panic!("expected exit 1, got {:?}", other.map(|r| r.len())),
        }
    }

    #[test]
    fn sweep_grid_knob_expands_to_64_valid_points() {
        let base = *run_opts(&[])
            .unwrap()
            .on("substrate", "fbd-ap")
            .unwrap()
            .system();
        let points = sweep_points("grid", "fbd-ap", base).unwrap();
        assert_eq!(points.len(), 64);
        let labels: std::collections::HashSet<&str> =
            points.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), 64, "labels must be unique");
        for (label, cfg) in &points {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(label.starts_with("fbd-ap/"), "{label}");
        }
        // The single-knob sweeps still expand, and typos stay rejected.
        assert_eq!(sweep_points("k", "fbd-ap", base).unwrap().len(), 3);
        assert!(sweep_points("voltage", "fbd-ap", base).is_none());
    }

    #[test]
    fn fault_flags_reject_bad_values() {
        for bad in [
            &["--fault-ber", "nope"][..],
            &["--fault-ber", "-0.1"],
            &["--fault-ber", "1.5"],
            &["--fault-ber", "inf"],
            &["--fault-ber", "nan"],
            &["--fault-ber", "1e-6", "--fault-seed", "x"],
            &["--fault-ber", "1e-6", "--fault-mode", "cosmic"],
            // Dependent flags without the rate are a usage error.
            &["--fault-seed", "7"],
            &["--fault-mode", "burst"],
        ] {
            assert!(faults(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
