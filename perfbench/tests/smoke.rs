//! Smoke mode: every workload at tiny sizes, untraced and traced. Every
//! named metric must be emitted, finite and carry a unit, and the answer
//! and durability checks must pass.

use std::process::Command;

use perfbench::{run, Config, END_TO_END, GATED, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> Config {
    Config { workload: workload.into(), seed: 7, seconds: 1.2, trace, smoke: true }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    // One test runs them all in sequence: the runs read deltas of
    // process-wide counters, so they must not overlap.
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = run(&smoke(workload, trace)).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let what = format!("{workload} trace={trace}");
            assert!(r.correct, "{what}: {:#?}", r.lines);
            assert!(r.attempted > 0, "{what}");
            assert_eq!(r.failed, 0, "{what}: {:#?}", r.lines);
            let expect = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expect.to_vec(), "{what}");
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
                assert!(!m.unit.is_empty(), "{what}: {} has no unit", m.name);
                if !trace {
                    assert!(m.value > 0.0, "{what}: end-to-end {} is {}", m.name, m.value);
                }
            }
            assert!(r.json().starts_with("{\"correct\": true, "), "{what}");
        }
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in WORKLOADS {
        let listed = text.contains(&format!("\"name\": \"{w}\""));
        assert_eq!(listed, GATED.contains(&w), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "metric {name} ({unit})");
    }
}

#[test]
fn cli_prints_the_result_last_and_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let args = ["--workload", "oltp_cold", "--seed", "3", "--seconds", "1", "--trace", "0"];
    let out = Command::new(bin).args(args).arg("--smoke").output().expect("run perfbench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"setup_s\": {\"value\": "), "{last}");

    let out = Command::new(bin).args(["--workload", "nope"]).output().expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
