//! **Figure 10 — HMTS vs GTS: number of results over time.**
//!
//! The same experiment as Fig. 9 (see `hmts_bench::fig9`), reporting the
//! cumulative result count per strategy. Paper results: FIFO produces
//! results continuously and earlier than Chain (which delays the expensive
//! group while the cheap group has input); HMTS produces results
//! "significantly earlier" than both and completes at ≈162 s vs ≈260 s.

use hmts_bench::fig9::{run_all, Fig9Run};
use hmts_bench::{emit_csv, fmt_secs, parse_args, table};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(1.0);
    let m = if args.paper { 10 } else { 1 };
    eprintln!("fig10: simulating {} elements on 2 virtual cores...", 70_000 * m);
    let runs = run_all(m, args.seed);

    let mut csv = String::from("strategy,time_s,results\n");
    for Fig9Run { name, result } in &runs {
        for &(t, n) in &result.output_timeline {
            let _ = writeln!(csv, "{name},{t:.3},{n}");
        }
    }
    emit_csv(&args.out, "fig10_results.csv", &csv);

    // Time to reach fractions of the final result count.
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let total = r.result.outputs.max(1);
            let t_at = |frac: f64| {
                let target = (total as f64 * frac).ceil() as u64;
                r.result
                    .output_timeline
                    .iter()
                    .find(|(_, n)| *n >= target)
                    .map(|(t, _)| fmt_secs(*t))
                    .unwrap_or_else(|| "-".into())
            };
            vec![
                r.name.to_string(),
                r.result.outputs.to_string(),
                t_at(0.25),
                t_at(0.5),
                t_at(0.75),
                fmt_secs(r.result.completion_time),
            ]
        })
        .collect();
    println!(
        "\n{}",
        table(&["strategy", "results", "t(25%)", "t(50%)", "t(75%)", "completion"], &rows)
    );
    println!(
        "Paper's claims to check: identical final result counts; HMTS reaches every \
         fraction earliest; FIFO reaches them earlier than Chain; completion ≈162 s \
         (HMTS) vs ≈260 s (GTS)."
    );

    // `--trace <dir>`: re-run the same chain on the real engine under the
    // two-partition HMTS plan with sampled per-tuple tracing, writing a
    // Perfetto timeline plus the queue-wait/processing attribution.
    if let Some(dir) = &args.trace {
        hmts_bench::obsrun::run_traced(dir, args.seed);
    }
}
