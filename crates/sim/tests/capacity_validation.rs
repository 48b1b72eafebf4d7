//! Validates the capacity analyzer's M/G/1 latency predictions against the
//! discrete-event simulator's ground truth.
//!
//! The simulator is configured as the cleanest queueing system it can
//! express: OTS threading (every operator a dedicated thread on its own
//! core, so stations never contend for CPU), all overheads zeroed, batch
//! size 1, and Poisson arrivals. Each operator is then an M/D/1 station
//! (deterministic service), which is exactly what the analyzer models with
//! `service_cv2 = 0`. Downstream stations see smoothed (non-Poisson)
//! departures, so predictions are approximate by design — the tolerances
//! below (mean within ±40%, p99 within a factor of 2) are the documented
//! accuracy envelope from DESIGN.md §8.2.

use hmts_graph::cost::CostGraph;
use hmts_obs::capacity::{analyze, CapacityConfig, TopologySpec};
use hmts_obs::registry::MetricValue;
use hmts_sim::{simulate, SimConfig, SimPolicy, SplitMix64};

/// Poisson arrival schedule: exponential gaps at `rate` el/s.
fn poisson_schedule(count: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / rate;
        out.push(t);
    }
    out
}

/// Zero-overhead simulator config: virtual time advances only through
/// operator service, so latencies are pure queueing + service.
fn ideal_machine(cores: usize) -> SimConfig {
    SimConfig {
        cores,
        ctx_switch: 0.0,
        ctx_switch_per_thread: 0.0,
        queue_op: 0.0,
        di_call: 0.0,
        dispatch: 0.0,
        batch: 1,
        ..SimConfig::default()
    }
}

#[test]
fn mg1_prediction_matches_simulated_tandem_queue() {
    // source (8000/s) -> a (80us) -> b (50us): rho_a = 0.64, rho_b = 0.40.
    let rate = 8_000.0;
    let (cost_a, cost_b) = (80e-6, 50e-6);
    let g = CostGraph::from_parts(
        3,
        vec![(0, 1), (1, 2)],
        vec![0.0, cost_a, cost_b],
        vec![1.0, 1.0, 1.0],
        vec![Some(rate), None, None],
    );
    let schedule = poisson_schedule(40_000, rate, 0x5EED);
    let sim = simulate(&g, &[schedule], &SimPolicy::ots(&g), &ideal_machine(2));
    assert!(sim.latencies.len() > 30_000, "sinks reached: {}", sim.latencies.len());
    let sim_mean = sim.latency_mean().expect("mean");
    let sim_p99 = sim.latency_quantile(0.99).expect("p99");

    // Feed the analyzer the same facts the live engine would publish.
    let metrics: Vec<(String, MetricValue)> = vec![
        ("source.src.rate".into(), MetricValue::Gauge(rate as i64)),
        ("node.a.cost_ns".into(), MetricValue::Gauge((cost_a * 1e9) as i64)),
        ("node.a.selectivity_ppm".into(), MetricValue::Gauge(1_000_000)),
        ("node.b.cost_ns".into(), MetricValue::Gauge((cost_b * 1e9) as i64)),
        ("node.b.selectivity_ppm".into(), MetricValue::Gauge(1_000_000)),
    ];
    let topo = TopologySpec {
        nodes: vec!["src".into(), "a".into(), "b".into()],
        sources: vec![0],
        edges: vec![(0, 1), (1, 2)],
        // OTS: every operator its own partition, so both are stations.
        partitions: vec![vec![1], vec![2]],
        queues: Vec::new(),
    };
    let cfg = CapacityConfig { service_cv2: 0.0 };
    let report = analyze(&metrics, &topo, &cfg);

    assert_eq!(report.bottleneck.as_deref(), Some("a"));
    assert!((report.max_rho - 0.64).abs() < 0.02, "max_rho {}", report.max_rho);
    let path = &report.paths[0];
    let pred_mean = path.mean_ns * 1e-9;
    let pred_p99 = path.p99_ns * 1e-9;

    let mean_err = (pred_mean - sim_mean).abs() / sim_mean;
    assert!(
        mean_err < 0.40,
        "predicted mean {pred_mean:.6}s vs simulated {sim_mean:.6}s ({:.0}% off)",
        mean_err * 100.0
    );
    let p99_ratio = pred_p99 / sim_p99;
    assert!(
        (0.5..=2.0).contains(&p99_ratio),
        "predicted p99 {pred_p99:.6}s vs simulated {sim_p99:.6}s (ratio {p99_ratio:.2})"
    );
}

#[test]
fn prediction_tracks_load_sweep() {
    // The prediction must move the right way: higher arrival rate means
    // strictly higher simulated *and* predicted latency, with the accuracy
    // envelope holding at every utilization level tested.
    let cost = 70e-6;
    for &rate in &[4_000.0, 8_000.0, 12_000.0] {
        let g = CostGraph::from_parts(
            2,
            vec![(0, 1)],
            vec![0.0, cost],
            vec![1.0, 1.0],
            vec![Some(rate), None],
        );
        let schedule = poisson_schedule(30_000, rate, 0xACE5);
        let sim = simulate(&g, &[schedule], &SimPolicy::ots(&g), &ideal_machine(1));
        let sim_mean = sim.latency_mean().expect("mean");

        let metrics: Vec<(String, MetricValue)> = vec![
            ("source.src.rate".into(), MetricValue::Gauge(rate as i64)),
            ("node.op.cost_ns".into(), MetricValue::Gauge((cost * 1e9) as i64)),
            ("node.op.selectivity_ppm".into(), MetricValue::Gauge(1_000_000)),
        ];
        let topo = TopologySpec {
            nodes: vec!["src".into(), "op".into()],
            sources: vec![0],
            edges: vec![(0, 1)],
            partitions: vec![vec![1]],
            queues: Vec::new(),
        };
        let cfg = CapacityConfig { service_cv2: 0.0 };
        let report = analyze(&metrics, &topo, &cfg);
        let pred_mean = report.paths[0].mean_ns * 1e-9;
        let err = (pred_mean - sim_mean).abs() / sim_mean;
        assert!(
            err < 0.40,
            "rate {rate}: predicted {pred_mean:.6}s vs simulated {sim_mean:.6}s \
             ({:.0}% off)",
            err * 100.0
        );
        // Headroom is measured against the bottleneck: 1 / rho.
        let expected_headroom = 1.0 / (rate * cost);
        assert!(
            (report.headroom - expected_headroom).abs() / expected_headroom < 0.05,
            "rate {rate}: headroom {} want {expected_headroom}",
            report.headroom
        );
    }
}

#[test]
fn latency_helpers_expose_ground_truth() {
    // An unloaded single-op chain: every element's latency is exactly the
    // service time, so mean == p99 == cost.
    let cost = 10e-6;
    let g = CostGraph::from_parts(
        2,
        vec![(0, 1)],
        vec![0.0, cost],
        vec![1.0, 1.0],
        vec![Some(100.0), None],
    );
    let schedule: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
    let sim = simulate(&g, &[schedule], &SimPolicy::ots(&g), &ideal_machine(1));
    assert_eq!(sim.latencies.len(), 100);
    assert!((sim.latency_mean().unwrap() - cost).abs() < 1e-12);
    assert!((sim.latency_quantile(0.99).unwrap() - cost).abs() < 1e-12);
    assert!((sim.latency_quantile(0.0).unwrap() - cost).abs() < 1e-12);
}
