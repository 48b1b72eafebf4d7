//! **Figure 11 — Capacities of three VO-construction algorithms.**
//!
//! Paper setup (§6.7): run three queue-placement algorithms — the paper's
//! stall-avoiding Algorithm 1, the simplified segment strategy, and a
//! Chain-based construction — "on random DAGs, varying the number of nodes
//! from 10 to 1000", and report the average capacity of the produced VOs,
//! negative and positive parts shown separately. Paper result: all three
//! produce few, under-utilized VOs, but Algorithm 1's average *negative*
//! capacity is far smaller in magnitude (its VOs rarely stall).

use hmts::prelude::*;
use hmts::workload::random_dag::{random_cost_graph, RandomDagConfig};
use hmts_bench::{csv_from_rows, emit_csv, parse_args, table};

fn main() {
    let args = parse_args(1.0);
    let sizes: Vec<usize> =
        if args.quick { vec![10, 50, 100] } else { vec![10, 20, 50, 100, 200, 500, 1000] };
    let graphs_per_size = if args.quick { 5 } else { 20 };

    type Algo = (&'static str, fn(&CostGraph) -> Vec<Vec<usize>>);
    let algos: [Algo; 3] = [
        ("stall_avoiding", stall_avoiding),
        ("segment", simplified_segment),
        ("chain", chain_based),
    ];

    let mut csv_rows = Vec::new();
    let mut rows = Vec::new();
    for &n in &sizes {
        // Accumulate per-algorithm: avg over graphs of (avg neg cap, avg
        // pos cap, #VOs).
        let mut acc = [[0.0f64; 3]; 3];
        for g_idx in 0..graphs_per_size {
            let g = random_cost_graph(&RandomDagConfig::new(
                n,
                args.seed.wrapping_add((n as u64) << 16).wrapping_add(g_idx),
            ));
            for (a, (_, algo)) in algos.iter().enumerate() {
                let report = evaluate(&g, &algo(&g));
                acc[a][0] += report.avg_negative_capacity;
                acc[a][1] += report.avg_positive_capacity;
                acc[a][2] += report.vos as f64;
            }
        }
        for a in &mut acc {
            for v in a.iter_mut() {
                *v /= graphs_per_size as f64;
            }
        }
        csv_rows.push(vec![
            n as f64, acc[0][0], acc[0][1], acc[0][2], acc[1][0], acc[1][1], acc[1][2], acc[2][0],
            acc[2][1], acc[2][2],
        ]);
        rows.push(vec![
            n.to_string(),
            format!("{:.4}", acc[0][0]),
            format!("{:.4}", acc[1][0]),
            format!("{:.4}", acc[2][0]),
            format!("{:.4}", acc[0][1]),
            format!("{:.4}", acc[1][1]),
            format!("{:.4}", acc[2][1]),
            format!("{:.0}/{:.0}/{:.0}", acc[0][2], acc[1][2], acc[2][2]),
        ]);
        eprintln!(
            "n={n}: avg negative capacity — alg1 {:.4}, segment {:.4}, chain {:.4}",
            acc[0][0], acc[1][0], acc[2][0]
        );
    }

    emit_csv(
        &args.out,
        "fig11_capacity.csv",
        &csv_from_rows(
            "nodes,alg1_neg_s,alg1_pos_s,alg1_vos,segment_neg_s,segment_pos_s,segment_vos,chain_neg_s,chain_pos_s,chain_vos",
            &csv_rows,
        ),
    );
    println!(
        "\n{}",
        table(
            &[
                "nodes",
                "neg(alg1)",
                "neg(segment)",
                "neg(chain)",
                "pos(alg1)",
                "pos(segment)",
                "pos(chain)",
                "VOs a/s/c"
            ],
            &rows
        )
    );
    println!(
        "Paper's claim to check: every algorithm leaves positive capacity unused \
         (VOs are not fully utilized), but Algorithm 1's average negative capacity \
         is much closer to zero than the segment and chain constructions'."
    );

    // `--trace <dir>`: the capacity sweep itself never executes a query, so
    // the traced run replays the Fig. 9/10 chain under the two-VO HMTS
    // placement and writes the Perfetto timeline + latency attribution.
    if let Some(dir) = &args.trace {
        hmts_bench::obsrun::run_traced(dir, args.seed);
    }
}
