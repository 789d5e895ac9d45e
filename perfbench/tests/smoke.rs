//! A tiny-size run of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names is emitted with its unit, and every reference
//! check and shadow replay passes.

use coach_perfbench::{run, Options, Report, Scale, Workload};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("string value") + 1;
                let close = open + rest[open..].find('"').expect("string closes");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    })
}

fn assert_complete(report: &Report, declared: &[(String, String)], label: &str) {
    for (name, outcome) in &report.checks {
        assert!(outcome.is_ok(), "{label}: check {name} failed: {outcome:?}");
    }
    assert!(report.correct(), "{label}: not correct");
    assert!(report.attempted > 0, "{label}: nothing attempted");
    assert_eq!(report.failed, 0, "{label}: failed requests");
    let emitted: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        emitted, declared,
        "{label}: metrics differ from BENCHMARK.json"
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{label}: {} = {}", m.name, m.value);
    }
    let line = report.json_line();
    assert!(line.starts_with("{\"correct\": true"), "{label}: {line}");
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in Workload::ALL {
        let untraced = tiny(workload, false);
        assert_complete(&untraced, &end_to_end, workload.name());
        for name in [
            "placed_per_s",
            "setup_s",
            "peak_bytes_per_vm",
            "accepted_share",
        ] {
            let v = untraced.value(name).expect("emitted");
            assert!(v > 0.0, "{}: {name} = {v}", workload.name());
        }
        let traced = tiny(workload, true);
        assert_complete(&traced, &per_layer, &format!("{} traced", workload.name()));
        assert!(traced.value("schedule.place_calls").expect("emitted") > 0.0);
        assert!(traced.value("account.samples").expect("emitted") > 0.0);
    }
}
