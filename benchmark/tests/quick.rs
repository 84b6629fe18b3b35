//! `run.sh --quick` smoke: a two-round run of the real rig against the real
//! gateway emits every metric `BENCHMARK.json` names, and nothing else.

// The rig is a binary; borrow its JSON module rather than grow a library.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("list present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn quick_run(root: &Path, workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_loadrig"))
        .current_dir(root)
        // The rig must scrub gateway knobs: were this one to reach the
        // gateway, no page would be long enough to stream.
        .env("DBGW_STREAM_WATERMARK", "1000000000")
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("rig runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "rig failed: {}\n{}",
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

#[test]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&spec).expect("BENCHMARK.json parses");
    for (workload, trace, list) in [
        ("write_mix", "0", "end_to_end"),
        ("big_report", "1", "per_layer"),
    ] {
        let result = quick_run(root, workload, trace);
        let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let emitted: Vec<(String, String)> = result
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no value"
                );
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(emitted, declared(&spec, list), "--trace {trace}");
        // Pinning itself to half the CPUs must not make the generator count
        // only that half: a saturated phase has min(nproc, 2) connections.
        let record = root.join(format!(
            "benchmark/out/result-{workload}-seed7-trace{trace}.json"
        ));
        let record = Json::parse(&std::fs::read_to_string(record).unwrap()).unwrap();
        let load_threads = record.get("provenance").unwrap().get("load_threads");
        let nproc = std::thread::available_parallelism().unwrap().get();
        assert_eq!(
            load_threads.and_then(Json::as_f64),
            Some(nproc.min(2) as f64)
        );
        if trace == "1" {
            let streamed = result
                .get("metrics")
                .unwrap()
                .get("cgi.http.responses_streamed");
            let streamed = streamed.and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(streamed.unwrap() > 0.0, "a DBGW_* knob reached the gateway");
        }
    }
    let names: Vec<String> = spec
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(
        names,
        ["small_page", "scan_report", "big_report", "write_mix"]
    );
}
