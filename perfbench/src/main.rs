//! The engine's benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <sparse-asgd|saga-remote|serve-msgd> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The program runs repetitions — set-up plus one solver run at a fixed
//! update budget, each in a fresh child process of this same executable —
//! until `--seconds` have passed, checks every repetition's outputs, and
//! prints a report whose last line is one JSON object. With `--trace 0`
//! its metrics are the end-to-end figures of untraced repetitions; with
//! `--trace 1` repetitions alternate untraced and traced, a last untraced
//! one runs the layer probes, and the metrics are the per-layer figures.
//! It exits 1 when a correctness check fails. See README.md.

mod host;
mod probes;
mod record;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use record::{Metric, Record};
use workloads::{Kind, Mode};

/// Untraced repetitions below which a run keeps going past `--seconds`.
const MIN_REPS: usize = 3;
/// No repetition starts after this much time, and a repetition that takes
/// longer than `REP_TIMEOUT` (twenty times a normal one) is abandoned, so a
/// run ends well within the three minutes it is allowed even if the
/// program hangs.
const HARD_STOP: Duration = Duration::from_secs(60);
const REP_TIMEOUT: Duration = Duration::from_secs(45);
/// Where spans and scratch files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child: run one repetition this way and print its record.
    child: Option<(Mode, PathBuf)>,
}

const USAGE: &str =
    "usage: perfbench --workload <sparse-asgd|saga-remote|serve-msgd> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut mode = None;
    let mut scratch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s < 0.0 {
                    return Err(format!("--seconds must be at least 0, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--child" => {
                mode = Some(Mode::parse(&value).ok_or_else(|| format!("unknown mode {value}"))?)
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let child = match (mode, scratch) {
        (Some(m), Some(dir)) => Some((m, dir)),
        (None, None) => None,
        _ => return Err("--child and --scratch go together".into()),
    };
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: match (seconds, &child) {
            (Some(s), _) => s,
            (None, Some(_)) => 0.0,
            (None, None) => return Err("--seconds is required".into()),
        },
        trace,
        child,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match &args.child {
        Some((mode, scratch)) => {
            // Detached on purpose: it either ends a hung repetition or dies
            // with the process.
            std::thread::spawn(|| {
                std::thread::sleep(REP_TIMEOUT);
                eprintln!("repetition timed out after {REP_TIMEOUT:?}");
                std::process::exit(3);
            });
            workloads::run_rep(args.kind, args.seed, *mode, scratch, &spans_path(&args)).map(
                |record| {
                    print!("{}", record.to_text());
                    true
                },
            )
        }
        None => coordinate(&args),
    };
    match outcome {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.kind.name());
            std::process::exit(1);
        }
    }
}

fn spans_path(args: &Args) -> PathBuf {
    Path::new(OUT_DIR).join(format!("spans-{}-seed{}.csv", args.kind.name(), args.seed))
}

/// Runs one repetition in a child process and parses its record.
fn run_child(args: &Args, mode: Mode, i: usize) -> Result<Record, String> {
    let scratch = Path::new(OUT_DIR).join(format!("scratch-{}-{i}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", mode.name()])
        .arg("--scratch")
        .arg(&scratch)
        .output();
    let _ = std::fs::remove_dir_all(&scratch);
    let out = out.map_err(|e| format!("cannot run a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "repetition {i} ({}) exited with {}: {}",
            mode.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Record::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Runs repetitions until `--seconds` have passed and at least `MIN_REPS`
/// untraced ones ran (alternating untraced and traced with `--trace 1`,
/// then one untraced repetition that runs the layer probes), and prints
/// the report.
fn coordinate(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let start = Instant::now();
    let stolen0 = host::stolen_s();
    let mut reps: Vec<Record> = Vec::new();
    loop {
        let i = reps.len();
        let mode = if args.trace && i % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        reps.push(run_child(args, mode, i)?);
        // With tracing, the probes repetition below is one more untraced
        // one, and the loop has run a traced one by the time this holds.
        let untraced = reps.iter().filter(|r| !r.traced).count();
        let enough = untraced + args.trace as usize >= MIN_REPS;
        if (enough && start.elapsed().as_secs_f64() >= args.seconds) || start.elapsed() >= HARD_STOP
        {
            break;
        }
    }
    if args.trace {
        reps.push(run_child(args, Mode::Probes, reps.len())?);
    }
    // Share of the machine's CPU time the hypervisor took while this run
    // measured: the host noise every wall-clock figure here carries.
    let steal_share =
        (host::stolen_s() - stolen0) / (start.elapsed().as_secs_f64() * host::parallelism() as f64);

    println!("perfbench {}", provenance(args));
    for (i, r) in reps.iter().enumerate() {
        println!(
            "rep {i}{}: setup {:.4} s, run {:.4} s, {:.1} updates/s, objective {:.6} -> {:.6}, peak rss {:.1} MB",
            if r.traced { " (traced)" } else { "" },
            r.setup_s,
            r.run_s,
            r.updates as f64 / r.run_s,
            r.f0,
            r.final_objective,
            r.peak_rss_mb,
        );
    }
    let failures: Vec<&String> = reps.iter().flat_map(|r| &r.failures).collect();
    for f in &failures {
        println!("check failed: {f}");
    }

    let untraced: Vec<&Record> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Record> = reps.iter().filter(|r| r.traced).collect();
    let (attempted, failed) = ops(&reps);
    let mut e2e = end_to_end(&untraced, attempted, failed);
    e2e.report
        .push(metric("host.steal_share", steal_share, "ratio"));
    let metrics = if args.trace {
        let mut m = per_layer(&traced);
        let overhead =
            median(traced.iter().map(|r| r.run_s)) / median(untraced.iter().map(|r| r.run_s));
        m.push(metric("trace.overhead_ratio", overhead, "ratio"));
        m.extend(reps.iter().flat_map(|r| r.probes.iter().cloned()));
        println!(
            "spans of the last traced run: {}",
            spans_path(args).display()
        );
        m
    } else {
        e2e.gated
    };
    for (name, value, unit) in e2e.report.iter().chain(&metrics) {
        println!("metric {name} = {value} {unit}");
    }

    let correct = failures.is_empty();
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok(correct)
}

fn provenance(args: &Args) -> String {
    let k = args.kind;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"update_budget\": {}, \"engine\": \"{}\", \"transport\": \"{}\", \"workers\": {}, \"available_parallelism\": {}, \"build_profile\": \"{}\", \"cpu\": \"{}\"}}",
        k.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        k.budget(),
        k.engine(),
        k.transport(),
        workloads::WORKERS,
        host::parallelism(),
        host::profile(),
        host::cpu_model().replace('"', "'"),
    )
}

/// Operations attempted and failed over every repetition: submitted tasks,
/// served reads and checkpoint saves; lost tasks, non-finite reads and
/// failed saves.
fn ops(reps: &[Record]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for r in reps {
        attempted += r.submitted + r.reads + r.saves_ok + r.saves_failed;
        failed += r.lost_tasks + r.failed_reads + r.saves_failed;
    }
    (attempted, failed)
}

struct EndToEnd {
    /// The metrics `BENCHMARK.json` bounds, in its order.
    gated: Vec<Metric>,
    /// Further figures printed by name for the reader.
    report: Vec<Metric>,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    (name.to_string(), value, unit.to_string())
}

fn end_to_end(reps: &[&Record], attempted: u64, failed: u64) -> EndToEnd {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.updates as f64 / r.run_s).collect();
    let gated = vec![
        metric("updates_per_s", median(rate.iter().copied()), "1/s"),
        metric(
            "final_objective",
            median(reps.iter().map(|r| r.final_objective)),
            "loss",
        ),
        metric("setup_s", median(setup.iter().copied()), "s"),
        metric(
            "peak_rss_mb",
            median(reps.iter().map(|r| r.peak_rss_mb)),
            "MB",
        ),
    ];
    let mut read_us: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.read_us.iter().copied())
        .collect();
    read_us.sort_by(f64::total_cmp);
    let report = vec![
        metric("repetitions", reps.len() as f64, "count"),
        metric("updates_per_s.min", fold(&rate, f64::min), "1/s"),
        metric("updates_per_s.max", fold(&rate, f64::max), "1/s"),
        metric("setup_s.max", fold(&setup, f64::max), "s"),
        metric(
            "failed_op_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("reads", read_us.len() as f64, "count"),
        metric("read_p50_us", percentile(&read_us, 0.50), "us"),
        metric("read_p99_us", percentile(&read_us, 0.99), "us"),
        metric(
            "reads_per_s",
            median(reps.iter().map(|r| r.reads as f64 / r.run_s)),
            "1/s",
        ),
    ];
    EndToEnd { gated, report }
}

/// Per-layer figures: the median over traced repetitions of each figure,
/// and dispatch percentiles pooled over their tasks.
fn per_layer(reps: &[&Record]) -> Vec<Metric> {
    let mut dispatch: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.dispatch_us.iter().copied())
        .collect();
    dispatch.sort_by(f64::total_cmp);
    let mut out: Vec<Metric> = reps[0]
        .layers
        .iter()
        .map(|(name, _, unit)| {
            let values = reps
                .iter()
                .filter_map(|r| r.layers.iter().find(|m| &m.0 == name).map(|m| m.1));
            (name.clone(), median(values), unit.clone())
        })
        .collect();
    out.insert(
        1,
        metric(
            "sparklet.dispatch_p50_us",
            percentile(&dispatch, 0.50),
            "us",
        ),
    );
    out.insert(
        2,
        metric(
            "sparklet.dispatch_p99_us",
            percentile(&dispatch, 0.99),
            "us",
        ),
    );
    out
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted `v` (0 when empty).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn fold(v: &[f64], f: fn(f64, f64) -> f64) -> f64 {
    v.iter().copied().reduce(f).unwrap_or(0.0)
}
