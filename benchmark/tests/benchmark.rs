//! The benchmark's own tests: the metric catalogue agrees with
//! `BENCHMARK.json`, and a one-day smoke run of each workload passes
//! the output check and emits every named metric with its unit.
//!
//! The smoke runs simulate a full day per workload; run them with
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use ah_trace::check::{parse_json, Json};
use repo_benchmark::cli;
use repo_benchmark::layers;
use repo_benchmark::report::{Outcome, END_TO_END, PER_LAYER};
use repo_benchmark::workload::{Kind, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn entries(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is not an array") };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name").to_string();
            (name, m.get("unit").and_then(Json::as_str).map(str::to_string))
        })
        .collect()
}

fn catalogue(c: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    c.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let doc = manifest();
    let workloads: Vec<String> = entries(&doc, "workloads").into_iter().map(|e| e.0).collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
    assert_eq!(entries(&doc, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(entries(&doc, "per_layer"), catalogue(&PER_LAYER));
}

/// A fresh output directory for one test, removed by the caller.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test output directory");
    dir
}

fn smallest(kind: Kind) -> Workload {
    Workload { kind, days: 1, seed: 42 }
}

/// Every catalogue metric appears once, in order, with its unit and a
/// finite value; `positive` names the metrics that must be above 0.
fn assert_complete(o: &Outcome, cat: &[(&str, &str)], positive: impl Fn(&str) -> bool) {
    assert!(o.correct, "output check failed");
    assert_eq!(o.failed, 0);
    assert!(o.attempted >= 1);
    let got: Vec<(&str, &str)> = o.metrics.iter().map(|(n, u, _)| (*n, *u)).collect();
    assert_eq!(got, cat.to_vec());
    for (name, _, v) in &o.metrics {
        assert!(v.is_finite(), "{name} = {v}");
        assert!(!positive(name) || *v > 0.0, "{name} = {v} must be positive");
    }
    let parsed = parse_json(&o.to_json()).expect("result line is JSON");
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
}

fn smoke_timed(kind: Kind) {
    let dir = scratch(&format!("timed-{}", kind.name()));
    let exe = Path::new(env!("CARGO_BIN_EXE_repo-benchmark"));
    let o = cli::timed(&smallest(kind), Duration::ZERO, 1, &dir, exe);
    std::fs::remove_dir_all(&dir).ok();
    assert_complete(&o, &END_TO_END, |_| true);
}

fn smoke_traced(kind: Kind) {
    let dir = scratch(&format!("traced-{}", kind.name()));
    let o = layers::run(&smallest(kind), Duration::ZERO, &dir).expect("traced pass runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_complete(&o, &PER_LAYER, |n| n.ends_with("_s") && n != "pipeline.unattributed_s");
}

#[test]
fn darknet_smoke_run_passes_the_output_check() {
    smoke_timed(Kind::Darknet);
}

#[test]
fn vantage_smoke_run_passes_the_output_check() {
    smoke_timed(Kind::Vantage);
}

#[test]
fn darknet_traced_pass_matches_the_end_to_end_report() {
    smoke_traced(Kind::Darknet);
}

#[test]
fn vantage_traced_pass_matches_the_end_to_end_report() {
    smoke_traced(Kind::Vantage);
}

#[test]
fn cli_takes_the_benchmark_arguments_and_rejects_others() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let a = cli::parse(&args("--workload vantage --seed 7 --seconds 30 --trace 1")).expect("valid");
    assert_eq!(a.workload, Workload::new(Kind::Vantage, 7));
    assert_eq!((a.seconds, a.trace), (30, true));
    for bad in [
        "--workload journal --seed 1 --seconds 1 --trace 0",
        "--workload darknet --seed x --seconds 1 --trace 0",
        "--workload darknet --seed 1 --seconds 1 --trace 2",
        "--workload darknet --seconds 1 --trace 0",
        "--workload darknet --seed 1 --bogus 1",
        "--workload",
    ] {
        assert!(cli::parse(&args(bad)).is_err(), "accepted {bad:?}");
    }
}
