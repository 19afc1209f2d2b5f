//! `perfbench`: the end-to-end and per-layer benchmark of the atomicity
//! workspace. See `README.md` beside this crate for the workloads, the
//! metrics and why each exists.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! A run starts with set-up probes, then repeats fixed-size trials of the
//! workload, each in a fresh child process (`perfbench trial ...`), until
//! the next trial would overrun `--seconds`. One process per trial gives every trial the same cold
//! set-up (synthesized tables included) and its own resident-memory
//! baseline. With `--trace 1` the run alternates untraced and traced
//! trials and reports the per-layer metrics, the tracing overhead among
//! them. The last line of standard output is the JSON result; the exit
//! code is non-zero if any correctness check failed.

mod dist;
mod durable;
mod engine;
mod heap;
mod report;
mod stats;
mod trace;
mod trial;
mod workload;

use atomicity_bench::Engine;
use engine::Shape;
use report::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trial::Trial;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Which code a workload drives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Engine(Shape, Engine),
    Durable,
    Dist,
}

/// A workload and its trial size: logical transactions per client
/// (engines), transfers per writer (durable) or client ticks (dist).
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    kind: Kind,
    size: usize,
    /// The size of one longer trial the traced run adds, for a cost that
    /// only shows in long runs and is too unsteady to time end to end.
    long: Option<usize>,
}

const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "hot-account.dynamic",
        kind: Kind::Engine(Shape::HotAccount, Engine::Dynamic),
        size: 20_000,
        long: None,
    },
    Workload {
        name: "hot-account.static",
        kind: Kind::Engine(Shape::HotAccount, Engine::Static),
        size: 2_000,
        long: None,
    },
    Workload {
        name: "hot-account.hybrid",
        kind: Kind::Engine(Shape::HotAccount, Engine::Hybrid),
        size: 20_000,
        long: None,
    },
    Workload {
        name: "wide-map.dynamic",
        kind: Kind::Engine(Shape::WideMap, Engine::Dynamic),
        size: 1_000,
        long: Some(5_000),
    },
    Workload {
        name: "wide-map.static",
        kind: Kind::Engine(Shape::WideMap, Engine::Static),
        size: 50,
        long: None,
    },
    Workload {
        name: "wide-map.hybrid",
        kind: Kind::Engine(Shape::WideMap, Engine::Hybrid),
        size: 1_000,
        long: None,
    },
    Workload {
        name: "durable-restart",
        kind: Kind::Durable,
        size: 250,
        long: None,
    },
    Workload {
        name: "sharded-2pc",
        kind: Kind::Dist,
        size: 100,
        long: None,
    },
];

/// Set-up probes a run starts with: trials of the smallest size whose
/// set-up time alone is kept. A probe costs a process start and one
/// set-up (tens of milliseconds at most), so many are cheap, and the
/// median over them and the full trials' set-ups is steady even where a
/// set-up takes microseconds. They also warm the page cache before the
/// first timed trial.
const SETUP_PROBES: u64 = 61;

/// Share of a run spent on untimed warm-up trials after the set-up
/// probes. The host gives a virtual machine that has been idle or
/// waiting on its disk more speed for some seconds (a sharded-2pc trial
/// run after 30 s of idling read 6.9k txn/s, and 5.4k ten seconds
/// later), so without a warm-up a run's figures would depend on what ran
/// before it.
const WARMUP_SHARE: f64 = 0.25;

fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Runs one trial of `w` in this process.
fn run_trial(w: Workload, seed: u64, size: usize, traced: bool, out_dir: &Path) -> Trial {
    if traced {
        trace::enable();
    }
    match w.kind {
        Kind::Engine(shape, engine) => engine::run(shape, engine, seed, size, traced),
        Kind::Durable => {
            let dir = out_dir.join(format!("wal-{}", std::process::id()));
            durable::run(seed, size, &dir, traced)
        }
        Kind::Dist => dist::run(seed, size as u64),
    }
}

/// The smallest trial that still goes through the whole set-up.
fn probe_size(w: Workload) -> usize {
    match w.kind {
        Kind::Durable => durable::IN_DOUBT_PER_WRITER + 1,
        Kind::Engine(..) | Kind::Dist => 1,
    }
}

/// Spawns this executable as a trial child and parses its result.
fn spawn_trial(
    w: Workload,
    seed: u64,
    size: usize,
    traced: bool,
    spans: Option<&Path>,
    out_dir: &Path,
) -> Result<Trial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["trial", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--size", &size.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let out = cmd.output().map_err(|e| format!("spawn trial: {e}"))?;
    // A trial's diagnostics (a panicking background thread, say) are
    // passed on even when the trial itself succeeded.
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "trial of {} (seed {seed}) exited with {}",
            w.name, out.status
        ));
    }
    Trial::decode(&String::from_utf8_lossy(&out.stdout))
}

/// What one workload's run produced.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let start = Instant::now();
    let ticks0 = trial::cpu_ticks();
    let mut setup: Vec<f64> = Vec::new();
    for probe in 0..SETUP_PROBES {
        let t = spawn_trial(
            w,
            workload::trial_seed(seed, 1_000 + probe),
            probe_size(w),
            false,
            None,
            out_dir,
        )?;
        setup.push(t.setup_s);
    }
    // Warm-up trials are checked like any other; only their timings are
    // left out.
    let mut warmup: Vec<Trial> = Vec::new();
    while start.elapsed().as_secs_f64() < seconds * WARMUP_SHARE {
        let tseed = workload::trial_seed(seed, 2_000 + warmup.len() as u64);
        warmup.push(spawn_trial(w, tseed, w.size, false, None, out_dir)?);
    }
    // The long trial's certifier drain (finding 4 in README.md), untraced.
    let long = match w.long.filter(|_| traced) {
        Some(size) => {
            let tseed = workload::trial_seed(seed, 3_000);
            Some(spawn_trial(w, tseed, size, false, None, out_dir)?)
        }
        None => None,
    };
    let trials_start = Instant::now();
    // (trial seed, traced, result), in launch order.
    let mut runs: Vec<(u64, bool, Trial)> = Vec::new();
    // The traced run needs one trial of each kind; sharded-2pc needs two
    // of one seed to check replay.
    let min_trials = if traced || matches!(w.kind, Kind::Dist) {
        2
    } else {
        1
    };
    let mut i: u64 = 0;
    loop {
        let trace_this = traced && i % 2 == 1;
        // sharded-2pc alternates two seeds so each seed's replay can be
        // compared; the other workloads draw a fresh seed per trial.
        let tseed = match w.kind {
            Kind::Dist => workload::trial_seed(seed, i % 2),
            _ => workload::trial_seed(seed, i),
        };
        let spans = (i == 1 && trace_this).then(|| out_dir.join(format!("spans-{}.tsv", w.name)));
        let t = spawn_trial(w, tseed, w.size, trace_this, spans.as_deref(), out_dir)?;
        runs.push((tseed, trace_this, t));
        i += 1;
        let per_trial = trials_start.elapsed().as_secs_f64() / i as f64;
        if i >= min_trials && start.elapsed().as_secs_f64() + per_trial > seconds {
            break;
        }
    }
    setup.extend(runs.iter().map(|r| r.2.setup_s));

    let checked = || runs.iter().map(|r| &r.2).chain(&warmup).chain(&long);
    let mut errors: Vec<String> = checked().flat_map(|t| t.errors.clone()).collect();
    if matches!(w.kind, Kind::Dist) {
        errors.extend(replay_mismatches(&runs));
    }
    for e in &errors {
        eprintln!("{}: correctness check failed: {e}", w.name);
    }
    let trials = |traced_kind: bool| -> Vec<Trial> {
        runs.iter()
            .filter(|r| r.1 == traced_kind)
            .map(|r| r.2.clone())
            .collect()
    };
    let (traced_trials, untraced) = (trials(true), trials(false));
    let metrics = if traced {
        report::layers(&traced_trials, &untraced, long.as_ref())
    } else {
        report::end_to_end(&untraced, &setup)
    };
    for m in &metrics {
        println!("{} {} = {} {} (n={})", w.name, m.name, m.value, m.unit, m.n);
    }
    let mut lat: Vec<f64> = untraced
        .iter()
        .flat_map(|t| t.lat_ns.iter().map(|&n| n as f64 / 1e3))
        .collect();
    let qs: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999]
        .iter()
        .map(|&p| {
            format!(
                "p{}={:.1}",
                p * 100.0,
                stats::quantile(&mut lat, p).unwrap_or(0.0)
            )
        })
        .collect();
    println!("{} latency_us {} (n={})", w.name, qs.join(" "), lat.len());
    // Not a metric: it tells a slow run on a busy host from a slow program.
    let ticks1 = trial::cpu_ticks();
    let stolen = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    println!("{} host_steal_pct {:.1}", w.name, 100.0 * stolen);
    Ok(RunResult {
        correct: errors.is_empty(),
        attempted: checked().map(|t| t.attempted).sum(),
        failed: checked().map(|t| t.failed).sum(),
        metrics,
    })
}

/// Every sharded-2pc trial of one seed must replay to the same trace and
/// final state.
fn replay_mismatches(runs: &[(u64, bool, Trial)]) -> Vec<String> {
    let mut seen: std::collections::BTreeMap<u64, (Option<f64>, Option<f64>)> =
        std::collections::BTreeMap::new();
    let mut errors = Vec::new();
    for (seed, _, t) in runs {
        let key = (
            t.values.get("dist.trace_hash").copied(),
            t.values.get("dist.state_digest").copied(),
        );
        match seen.get(seed) {
            Some(first) if *first != key => errors.push(format!(
                "two runs of seed {seed} diverged: (trace_hash, state_digest) {first:?} then {key:?}"
            )),
            Some(_) => {}
            None => {
                seen.insert(*seed, key);
            }
        }
    }
    errors
}

/// Command-line options (`--key value` pairs after an optional mode).
struct Args {
    trial_mode: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Option<usize>,
    out_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let trial_mode = raw.first().is_some_and(|a| a == "trial");
    if trial_mode || raw.first().is_some_and(|a| a == "run") {
        raw.remove(0);
    }
    let mut args = Args {
        trial_mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        spans: None,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--size" => args.size = Some(value.parse().map_err(|e| bad(&e))?),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload != "all" && find(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{}`; expected all or one of {}",
            args.workload,
            names.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn trial_main(args: &Args) -> ExitCode {
    let w = find(&args.workload).expect("validated in parse_args");
    let traced = args.trace;
    let mut t = run_trial(
        w,
        args.seed,
        args.size.unwrap_or(w.size),
        traced,
        &args.out_dir,
    );
    if traced {
        let spans = trace::take_all();
        report::span_values(&mut t, &spans);
        if let Some(path) = &args.spans {
            if let Err(e) = trace::write_tsv(path, &spans) {
                eprintln!("write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", t.encode());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    if args.trial_mode {
        return trial_main(&args);
    }
    let selected: Vec<Workload> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![find(&args.workload).expect("validated in parse_args")]
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: available_parallelism={parallelism} seed={} seconds={}",
        args.seed, args.seconds
    );
    let mut results = Vec::new();
    for w in &selected {
        match run_workload(*w, args.seed, args.seconds, args.trace, &args.out_dir) {
            Ok(r) => results.push((w.name, r)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = results.iter().all(|(_, r)| r.correct);
    let attempted = results.iter().map(|(_, r)| r.attempted).sum();
    let failed = results.iter().map(|(_, r)| r.failed).sum();
    let metrics: Vec<Metric> = if let [(_, only)] = results.as_slice() {
        only.metrics.clone()
    } else {
        results
            .iter()
            .flat_map(|(name, r)| {
                r.metrics.iter().map(move |m| Metric {
                    name: format!("{name}/{}", m.name),
                    ..m.clone()
                })
            })
            .collect()
    };
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_checks_on_a_small_trial() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        for w in WORKLOADS {
            for size in [probe_size(w), probe_size(w) + 10] {
                let t = run_trial(w, 7, size, false, &dir);
                assert!(t.errors.is_empty(), "{}: {:?}", w.name, t.errors);
                assert_eq!(t.failed, 0, "{}", w.name);
                assert!(t.committed > 0 && t.wall_s > 0.0, "{}", w.name);
                assert!(t.setup_s > 0.0, "{}", w.name);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_check_flags_a_diverging_seed() {
        let run = |seed, hash: f64| {
            let mut t = Trial::default();
            t.set("dist.trace_hash", hash);
            t.set("dist.state_digest", 1.0);
            (seed, false, t)
        };
        assert!(replay_mismatches(&[run(1, 5.0), run(2, 6.0), run(1, 5.0)]).is_empty());
        assert_eq!(
            replay_mismatches(&[run(1, 5.0), run(2, 6.0), run(1, 7.0)]).len(),
            1
        );
    }
}
