//! Runs every workload of `BENCHMARK.json` in `--quick` mode, untraced and
//! traced, and holds the output against the contract: the last line of
//! standard output is one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, and the metrics are exactly the
//! declared ones, each once, with its unit — nothing unnamed.

use std::process::Command;

use atim_autotune::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let field = |m: &Json, key: &str| m.get(key).unwrap().as_str().unwrap().to_string();
    let metrics = list.as_arr().unwrap().iter();
    metrics
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_exactly_once_per_workload() {
    let benchmark = benchmark_json();
    let workloads = benchmark.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), 6);
    for workload in workloads {
        let workload = workload.get("name").unwrap().as_str().unwrap();
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--quick"])
                .env("ATIM_MEASURE_THREADS", "not-a-number") // must be stripped
                .output()
                .unwrap();
            let context = format!("{workload} --trace {trace}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(output.status.success(), "{context}: {stderr}");
            let stdout = String::from_utf8(output.stdout).unwrap();
            let lines: Vec<&str> = stdout.lines().collect();
            let (last, rows) = lines.split_last().unwrap();
            let result = Json::parse(last).unwrap();

            let Json::Obj(fields) = &result else {
                panic!("{context}: not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert!(
                result.get("correct").unwrap().as_bool().unwrap(),
                "{context}"
            );
            assert!(
                result.get("attempted").unwrap().as_i64().unwrap() >= 1,
                "{context}"
            );
            assert_eq!(
                result.get("failed").unwrap().as_i64().unwrap(),
                0,
                "{context}"
            );

            let Json::Obj(metrics) = result.get("metrics").unwrap() else {
                panic!("{context}: metrics is not an object")
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let Json::Obj(fields) = m else {
                        panic!("{context}: {name}")
                    };
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["value", "unit"], "{context}: {name}");
                    assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
                    (
                        name.clone(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            // Same names, same order, same units: each once, nothing else.
            assert_eq!(
                emitted,
                names_and_units(benchmark.get(section).unwrap()),
                "{context}"
            );

            // One human-readable `workload metric value unit` row per metric.
            assert_eq!(rows.len(), emitted.len(), "{context}");
            for (row, (name, unit)) in rows.iter().zip(&emitted) {
                let words: Vec<&str> = row.split_whitespace().collect();
                assert_eq!(&words[..2], [workload, name.as_str()], "{context}");
                assert_eq!(words[3], unit, "{context}: {row}");
            }
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.get("value").unwrap().as_f64().unwrap();
                    assert!(
                        value > 0.0,
                        "{context}: end-to-end metric {name} is {value}"
                    );
                }
            }
        }
    }
}
