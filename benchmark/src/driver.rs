//! `perf_ledger run` and `perf_ledger compare`: whole sets of runs.
//!
//! `run` executes every workload of `BENCHMARK.json` in a fresh child
//! process each (sequentially, so memory peaks are per workload), once
//! untraced and once traced, and writes `out/results.json`.  `compare`
//! holds two such files against each end-to-end metric's bound.

use std::path::Path;
use std::process::{Command, Stdio};

use atim_autotune::Json;

use crate::registry::{MetricDef, Registry};

/// Units of metrics that the program computes rather than clocks: they must
/// repeat exactly between two sets of runs of one commit.
const EXACT_UNITS: [&str; 3] = ["count", "bytes", "sim_ms"];

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub quick: bool,
}

/// Runs `args.repeat` full sets; two sets are compared against each other
/// (the stability check).  Returns whether everything passed.
pub fn run_sets(registry: &Registry, out_dir: &Path, args: &RunArgs) -> bool {
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let mut ok = true;
    let mut files = Vec::new();
    for set in 0..args.repeat {
        let (results, passed) = run_set(registry, args);
        ok &= passed;
        // A quick set never overwrites a real one.
        let prefix = if args.quick { "quick_" } else { "" };
        let name = if set == 0 {
            format!("{prefix}results.json")
        } else {
            format!("{prefix}results_{set}.json")
        };
        let path = out_dir.join(name);
        std::fs::write(&path, results.to_string()).expect("write the results file");
        eprintln!("perf_ledger: wrote {}", path.display());
        files.push(path);
    }
    if let [first, second] = files.as_slice() {
        ok &= compare(registry, first, second);
    }
    ok
}

fn run_set(registry: &Registry, args: &RunArgs) -> (Json, bool) {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in &registry.workloads {
        let mut entry = Vec::new();
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdout(Stdio::piped());
            if args.quick {
                command.arg("--quick");
            }
            let output = command.output().expect("start a workload's child process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().and_then(|line| Json::parse(line).ok());
            for line in lines {
                println!("{line}");
            }
            let Some(result) = last.filter(|_| output.status.success()) else {
                eprintln!(
                    "perf_ledger: {workload} --trace {trace} FAILED ({})",
                    output.status
                );
                ok = false;
                continue;
            };
            if trace == "0" {
                for key in ["correct", "attempted", "failed"] {
                    entry.push((
                        key.to_string(),
                        result.get(key).cloned().unwrap_or(Json::Null),
                    ));
                }
            }
            entry.push((
                section.to_string(),
                result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((workload.clone(), Json::Obj(entry)));
    }
    let results = Json::Obj(vec![
        ("env".into(), environment(args)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    (results, ok)
}

/// What the numbers depend on besides the code.
fn environment(args: &RunArgs) -> Json {
    let stdout_of = |program: &str, arguments: &[&str]| {
        Command::new(program)
            .args(arguments)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("rustc".into(), Json::Str(stdout_of("rustc", &["-V"]))),
        ("nproc".into(), Json::Int(cores as i64)),
        ("commit".into(), Json::Str(stdout_of("git", &["rev-parse", "HEAD"]))),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        (
            "simulated_metrics".into(),
            Json::Str(
                "simulator unvalidated, no error figure: the repo holds no UPMEM hardware reference"
                    .into(),
            ),
        ),
    ])
}

fn value_of(results: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints one row per end-to-end metric and workload — reference value,
/// new value, worsening, bound — and one per computed per-layer metric
/// that differs.  Returns whether everything is within bounds.
pub fn compare(registry: &Registry, a_path: &Path, b_path: &Path) -> bool {
    let load = |path: &Path| -> Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
    };
    let (a, b) = (load(a_path), load(b_path));
    let mut ok = true;
    println!("workload metric reference new worsening bound verdict");
    for workload in &registry.workloads {
        for def in &registry.end_to_end {
            let pair = value_of(&a, workload, "end_to_end", &def.name).zip(value_of(
                &b,
                workload,
                "end_to_end",
                &def.name,
            ));
            let Some((va, vb)) = pair else {
                println!("{workload} {} missing", def.name);
                ok = false;
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worsening(def, va, vb);
            let within = worse <= bound;
            ok &= within;
            println!(
                "{workload} {} {va} {vb} {:+.3}% {:.1}% {}",
                def.name,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        for def in &registry.per_layer {
            if !EXACT_UNITS.contains(&def.unit.as_str()) {
                continue;
            }
            let va = value_of(&a, workload, "per_layer", &def.name);
            let vb = value_of(&b, workload, "per_layer", &def.name);
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                println!(
                    "{workload} {} {va:?} {vb:?} computed value differs",
                    def.name
                );
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&def(false), 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&def(false), 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&def(true), 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&def(true), 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_only_out_of_bound_worsening() {
        let registry = Registry::load();
        let dir = std::env::temp_dir().join(format!("perf_ledger_compare_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, scale: f64| {
            let workloads = registry
                .workloads
                .iter()
                .map(|w| {
                    let metrics = |defs: &[MetricDef], scale: f64| {
                        Json::Obj(
                            defs.iter()
                                .map(|d| {
                                    let worse = if d.higher_is_better {
                                        1.0 / scale
                                    } else {
                                        scale
                                    };
                                    let value = Json::Float(100.0 * worse);
                                    (d.name.clone(), Json::Obj(vec![("value".into(), value)]))
                                })
                                .collect(),
                        )
                    };
                    let sections = vec![
                        (
                            "end_to_end".to_string(),
                            metrics(&registry.end_to_end, scale),
                        ),
                        ("per_layer".to_string(), metrics(&registry.per_layer, 1.0)),
                    ];
                    (w.clone(), Json::Obj(sections))
                })
                .collect();
            let path = dir.join(name);
            let doc = Json::Obj(vec![("workloads".into(), Json::Obj(workloads))]);
            std::fs::write(&path, doc.to_string()).unwrap();
            path
        };
        let reference = file("a.json", 1.0);
        // 0.05 % worse everywhere: inside even the tightest bound.
        assert!(compare(&registry, &reference, &file("b.json", 1.0005)));
        // Better is never out of bound.
        assert!(compare(&registry, &reference, &file("c.json", 0.5)));
        // 30 % worse: outside every bound.
        assert!(!compare(&registry, &reference, &file("d.json", 1.3)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
