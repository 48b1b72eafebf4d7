//! Shared harness for the figure-reproduction binaries.
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation
//! (§6): it runs the workload, prints the figure's series as CSV to stdout,
//! writes the same CSV under `results/`, and prints a short "who wins"
//! summary. All binaries accept:
//!
//! * `--scale <k>`   — time-compress the workload by `k` (default per
//!   binary; `--paper` forces the paper's literal parameters),
//! * `--out <dir>`   — results directory (default `results/`),
//! * `--seed <n>`    — workload seed,
//! * `--quick`       — a fast smoke configuration for CI,
//! * `--metrics <dir>` — run with observability enabled and write a
//!   Prometheus metrics snapshot, a JSON scheduler-event journal, and a
//!   CSV sampler series under `<dir>` (binaries that support it).

pub mod fig9;
pub mod obsrun;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hmts::prelude::Timestamp;
use hmts::streams::metrics::TimeSeries;

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Time-compression factor (meaning is per-figure; 1.0 = paper scale).
    pub scale: f64,
    /// Use the paper's literal parameters (overrides `scale`).
    pub paper: bool,
    /// Quick smoke mode.
    pub quick: bool,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Observability snapshot directory (`--metrics <dir>`); `None`
    /// leaves observability disabled.
    pub metrics: Option<PathBuf>,
    /// Tuple-trace output directory (`--trace <dir>`); `None` leaves
    /// per-tuple tracing disabled. Binaries that support it run the
    /// workload with sampled tracing and write a Chrome/Perfetto
    /// `trace.json` plus a per-operator `latency_breakdown.csv` there.
    pub trace: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 0.0,
            paper: false,
            quick: false,
            out: PathBuf::from("results"),
            seed: 1,
            metrics: None,
            trace: None,
        }
    }
}

/// Parses `std::env::args` with a per-binary default scale.
pub fn parse_args(default_scale: f64) -> Args {
    let mut args = Args { scale: default_scale, ..Args::default() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"))
            }
            "--paper" => args.paper = true,
            "--quick" => args.quick = true,
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"))
            }
            "--out" => {
                args.out = PathBuf::from(it.next().unwrap_or_else(|| die("--out needs a path")))
            }
            "--metrics" => {
                args.metrics =
                    Some(PathBuf::from(it.next().unwrap_or_else(|| die("--metrics needs a path"))))
            }
            "--trace" => {
                args.trace =
                    Some(PathBuf::from(it.next().unwrap_or_else(|| die("--trace needs a path"))))
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --scale <k> | --paper | --quick | --seed <n> | --out <dir> \
                     | --metrics <dir> | --trace <dir>"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown option {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Writes `contents` to `<out>/<name>` (creating the directory) and echoes
/// it to stdout between BEGIN/END markers so harness output is
/// self-contained.
pub fn emit_csv(out: &Path, name: &str, contents: &str) {
    std::fs::create_dir_all(out).expect("create results directory");
    let path = out.join(name);
    std::fs::write(&path, contents).expect("write CSV");
    println!("--- BEGIN {name} ---");
    print!("{contents}");
    println!("--- END {name} (written to {}) ---", path.display());
}

/// Renders aligned columns for terminal summaries.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
        }
        out.push('\n');
    };
    render(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    render(&mut out, &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        render(&mut out, row);
    }
    out
}

/// Converts a cumulative-count timeline into an achieved-rate series by
/// finite differences over windows of at least `min_dt` seconds — the
/// measurement behind the paper's Fig. 6 ("input rate over time").
pub fn rate_series(timeline: &TimeSeries, min_dt: f64) -> Vec<(f64, f64)> {
    let samples = timeline.samples();
    let mut out = Vec::new();
    let mut last: Option<(Timestamp, f64)> = None;
    for &(t, v) in samples {
        match last {
            None => last = Some((t, v)),
            Some((lt, lv)) => {
                let dt = t.as_secs_f64() - lt.as_secs_f64();
                if dt >= min_dt {
                    out.push((t.as_secs_f64(), (v - lv) / dt));
                    last = Some((t, v));
                }
            }
        }
    }
    out
}

/// Renders `(x, column...)` rows as CSV.
pub fn csv_from_rows(header: &str, rows: &[Vec<f64>]) -> String {
    let mut s = String::from(header);
    s.push('\n');
    for row in rows {
        let mut first = true;
        for v in row {
            if !first {
                s.push(',');
            }
            let _ = write!(s, "{v}");
            first = false;
        }
        s.push('\n');
    }
    s
}

/// Formats seconds compactly for summaries.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["mode", "time"],
            &[vec!["di".into(), "1.0s".into()], vec!["gts_long_name".into(), "2.0s".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("mode"));
        assert!(lines[2].starts_with("di "));
    }

    #[test]
    fn rate_series_differentiates() {
        let mut ts = TimeSeries::new("emitted");
        for i in 0..=10u64 {
            ts.record(Timestamp::from_secs(i), (i * 100) as f64);
        }
        let rates = rate_series(&ts, 0.5);
        assert_eq!(rates.len(), 10);
        for (_, r) in rates {
            assert!((r - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rate_series_respects_min_dt() {
        let mut ts = TimeSeries::new("emitted");
        for i in 0..=100u64 {
            ts.record(Timestamp::from_millis(i * 100), i as f64);
        }
        let rates = rate_series(&ts, 1.0);
        assert_eq!(rates.len(), 10);
    }

    #[test]
    fn csv_rows_render() {
        let csv = csv_from_rows("x,y", &[vec![1.0, 2.0], vec![3.0, 4.5]]);
        assert_eq!(csv, "x,y\n1,2\n3,4.5\n");
    }

    #[test]
    fn fmt_secs_picks_unit() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(2.5e-7), "0.25µs");
    }
}
