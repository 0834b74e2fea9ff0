//! Smoke runs of every workload at its small shape: each run must pass its
//! correctness checks and print every metric `BENCHMARK.json` names, with
//! the unit it declares.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines().filter_map(|line| Some((field(line, "name")?, field(line, "unit")?))).collect()
}

fn run(workload: &str, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_pond-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "smoke"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
        assert!(result.contains("\"failed\": 0, "), "{result}");
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for (name, unit) in metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = result.find(&entry).unwrap_or_else(|| panic!("{workload}: no {name}"));
            let rest = &result[at + entry.len()..];
            let unit_field = format!(", \"unit\": \"{unit}\"}}");
            let value = &rest[..rest.find(&unit_field).unwrap_or_else(|| {
                panic!("{workload}: {name} lacks unit {unit}: {}", &rest[..60.min(rest.len())])
            })];
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn octopus512_day_smoke_prints_every_metric() {
    check("octopus512-day");
}

#[test]
fn octopus16_long_smoke_prints_every_metric() {
    check("octopus16-long");
}

#[test]
fn octopus16_drill_smoke_prints_every_metric() {
    check("octopus16-drill");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_pond-perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
