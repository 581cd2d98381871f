//! Reduced-size runs of every workload, untraced and traced, plus the
//! agreement of `BENCHMARK.json` with the metrics the benchmark reports.

use membench::{run, Options, Size, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> membench::Run {
    let opts = Options { seed: 5, seconds: 0.05, trace, size: Size::SMOKE };
    let result = run(workload, &opts).expect("workload runs");
    assert!(result.correct, "{workload:?} (trace {trace}) failed: {:?}", result.failures);
    let tally = result.outcome.tally;
    assert!(tally.sent > 0 && tally.failed == 0, "{workload:?}: {tally:?}");
    result
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for (workload, _) in Workload::ALL {
        let metrics = smoke(workload, false).outcome.metrics;
        for (name, _) in END_TO_END {
            let value = metrics.get(name).expect("reported");
            assert!(value > 0.0, "{workload:?}: {name} = {value}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer() {
    let serve = smoke(Workload::Serve1c, true).outcome.metrics;
    let fleet = smoke(Workload::Fleet2c, true).outcome.metrics;
    let lifetime = smoke(Workload::LifetimeQuick, true).outcome.metrics;
    for metrics in [&serve, &fleet, &lifetime] {
        assert_eq!(metrics.iter().count(), PER_LAYER.len());
        assert!(metrics.get("obs.trace_events").unwrap() > 0.0);
    }
    for name in ["serve.boundaries", "serve.remaps", "serve.deploy_ms", "crossbar.map.busy_ms"] {
        assert!(serve.get(name).unwrap() > 0.0, "serve_1c: {name}");
    }
    assert_eq!(serve.get("serve.batch_size.mean"), Some(1.0));
    for name in ["fleet.deploy_ms", "fleet.routed_max_share", "fleet_wear_imbalance"] {
        assert!(fleet.get(name).unwrap() > 0.0, "fleet_2c: {name}");
    }
    for name in ["crossbar.tune.iterations", "lifetime.sessions", "lifetime_gain_stat"] {
        assert!(lifetime.get(name).unwrap() > 0.0, "lifetime_quick: {name}");
    }
    // Layers that do not run on a workload report zero.
    assert_eq!(lifetime.get("serve.boundaries"), Some(0.0));
    assert_eq!(serve.get("lifetime.sessions"), Some(0.0));
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let compact: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (_, name) in Workload::ALL {
        assert!(compact.contains(&format!("\"name\":\"{name}\",\"why\"")), "{name}");
    }
    let listed = compact.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists extra metrics");
}
