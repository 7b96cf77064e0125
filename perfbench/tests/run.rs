//! Short real runs against an in-process daemon: the metric names match
//! `BENCHMARK.json`, and the traced ledger closes.

use mffv_perfbench::bench::{run, Args};
use mffv_perfbench::gen::Workload;

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|part| {
            let quoted = part.split('"').nth(1).expect("a quoted name");
            quoted.to_string()
        })
        .collect()
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let outcome = run(Args {
        workload: Workload::ServeHot,
        seed: 5,
        seconds: 0.5,
        trace: false,
    });
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, declared("end_to_end"));
    assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
}

#[test]
fn traced_ledger_closes_and_reports_outside_exec() {
    let outcome = run(Args {
        workload: Workload::ServeHot,
        seed: 5,
        seconds: 1.0,
        trace: true,
    });
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, declared("per_layer"));

    let ledger = outcome.ledger.expect("a traced run has a ledger");
    let whole = ledger.latency_ms;
    assert!(whole > 0.0);
    assert!((ledger.top_level_sum() - whole).abs() <= 1e-9 * whole);

    // The transport remainder is its own row and its own metric, never
    // folded into the engine's or the solver's share.
    let outside = ledger.get("serve.outside_exec_ms").expect("row present");
    let metric = outcome
        .metrics
        .iter()
        .find(|m| m.name == "serve.outside_exec_ms")
        .expect("metric present");
    assert_eq!(metric.value, outside);
    let exec = outcome
        .metrics
        .iter()
        .find(|m| m.name == "engine.exec_ms")
        .expect("metric present")
        .value;
    assert!(outside > 0.0 && exec > 0.0);
}
