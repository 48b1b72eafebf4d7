//! The benchmark command that `BENCHMARK.json` names.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <file>] [--trace-out <file>] [--scale <k>]
//! benchmark selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form measures one workload and prints, as the last line of
//! stdout, one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when a result was wrong or missing.
//! `selfcheck` runs every workload twice, each in a fresh child process,
//! and compares the two sets against the bounds.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hmts::obs::json;
use hmts_perfledger::ledger::report::{json_string, Better, MetricDef, END_TO_END, PER_LAYER};
use hmts_perfledger::ledger::run::{end_to_end, traced, RunConfig};
use hmts_perfledger::ledger::workloads::Workload;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--out <file>] [--trace-out <file>] [--scale <k>]\n       \
                     benchmark selfcheck [--seed <n>] [--seconds <s>]";

struct Args {
    selfcheck: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        selfcheck: false,
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        scale: 1.0,
        out: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<f64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                let known = || Workload::ALL.map(Workload::name).join(", ");
                args.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value}; the workloads are {}", known())
                })?);
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("--seed: not an integer: {value}"))?
            }
            "--seconds" => args.seconds = number()?,
            "--scale" => args.scale = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0 && args.scale > 0.0 && args.scale <= 100.0) {
        return Err("--seconds must lie in (0, 600] and --scale in (0, 100]".into());
    }
    Ok(args)
}

/// Spans go next to the executable unless `--trace-out` says otherwise:
/// inside the checkout's build directory, which `.gitignore` names.
fn default_trace_out(w: Workload) -> Option<PathBuf> {
    let dir = std::env::current_exe().ok()?.parent()?.join("perfledger-trace");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("{}.jsonl", w.name())))
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the `--out` record says about where its numbers come from.
fn context(args: &Args, w: Workload) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", json_string(w.name())),
        ("trace", args.trace.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("scale", args.scale.to_string()),
        ("cores", cores.to_string()),
        ("commit", json_string(&tool_version("git", &["rev-parse", "--short", "HEAD"]))),
        ("rustc", json_string(&tool_version("rustc", &["--version"]))),
        (
            "engine_config",
            json_string(
                "EngineConfig::default() with pace_sources (paced passes only) and clock \
                 overridden; obs enabled in traced passes only",
            ),
        ),
    ]
}

fn measure(args: &Args, w: Workload) -> Result<ExitCode, String> {
    let trace_out = match (&args.trace_out, args.trace) {
        (Some(path), _) => Some(path.clone()),
        (None, true) => default_trace_out(w),
        (None, false) => None,
    };
    let cfg = RunConfig {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        trace_out,
    };
    let (outcome, defs) =
        if args.trace { (traced(&cfg), PER_LAYER) } else { (end_to_end(&cfg), END_TO_END) };
    for d in defs {
        if let Some(v) = outcome.value(d.name) {
            eprintln!("{:<18} {:<46} {v:>16.4} {}", w.name(), d.name, d.unit);
        }
    }
    if let Some(path) = &args.out {
        let record = outcome.record(defs, &context(args, w))?;
        std::fs::write(path, record)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", outcome.result_line(defs)?);
    if outcome.failed > 0 {
        eprintln!("benchmark: {} of {} results failed", outcome.failed, outcome.attempted);
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process and returns its end-to-end
/// metrics, or what went wrong.
fn child_metrics(w: Workload, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(line)?;
    END_TO_END
        .iter()
        .map(|d| {
            result
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{}: no {}", w.name(), d.name))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(d: &MetricDef, first: f64, second: f64) -> f64 {
    match d.better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let mut rounds = Vec::new();
    for round in 1..=2 {
        let mut set = Vec::new();
        for w in Workload::ALL {
            eprintln!("selfcheck: set {round}, {}", w.name());
            set.push(child_metrics(w, args)?);
        }
        rounds.push(set);
    }
    let mut ok = true;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differs", "bound"
    );
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        for (j, d) in END_TO_END.iter().enumerate() {
            let (a, b) = (rounds[0][i][j], rounds[1][i][j]);
            let bound = d.bound.expect("end-to-end metrics are bounded");
            // Either set may be the worse one: the spread, not a direction.
            let differs = worsening(d, a, b).max(worsening(d, b, a));
            let verdict = if differs > bound { "  EXCEEDS" } else { "" };
            ok &= differs <= bound;
            println!(
                "{:<18} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name(),
                d.name,
                differs * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: this is a debug build; measure with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.selfcheck, args.workload) {
        (true, _) => selfcheck(&args),
        (false, Some(w)) => measure(&args, w),
        (false, None) => Err(format!("--workload is required\n{USAGE}")),
    };
    run.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
