//! Perf-smoke snapshot of the simulator's bytecode fast path.
//!
//! Measures candidate-measurement wall-clock on the Fig. 9 MMTV/GEMV
//! workload shapes with the fast path (`ATIM_SIM_FASTPATH`) off vs on, and
//! writes a `BENCH_fastpath.json` snapshot so the perf trajectory is tracked
//! across PRs (CI runs this after the criterion smoke).
//!
//! Knobs:
//!
//! * `ATIM_SNAPSHOT_OUT` overrides the output path.
//! * `ATIM_SNAPSHOT_FULL=1` uses the full paper shapes instead of the
//!   CI-sized ones.
//! * `ATIM_SNAPSHOT_BASELINE=<path>` compares the run against a committed
//!   baseline snapshot (`crates/bench/baselines/fastpath_baseline.json` in
//!   CI) and **exits non-zero when any workload's fast-path time per
//!   candidate regresses by more than 2×** — machine-to-machine noise is
//!   well inside that budget, a lost `O(n)`→`O(1)` loop summary is not.

use std::time::Instant;

use atim_autotune::{Cancellation, Json, MeasureOutcome, Measurer, ScheduleConfig};
use atim_core::prelude::*;

fn candidate_batch(def: &ComputeDef, hw: &UpmemConfig) -> Vec<Trace> {
    let base = ScheduleConfig::default_for(def, hw);
    (0..6)
        .map(|i| {
            ScheduleConfig {
                spatial_dpus: vec![16 << (i % 3)],
                tasklets: [8, 12, 16][i % 3],
                cache_elems: [32, 64, 128][(i / 2) % 3],
                ..base.clone()
            }
            .to_trace(def)
        })
        .collect()
}

/// One batch through the job path, exactly as the tuner sends it.
fn measure_all(backend: &SimBackend, def: &ComputeDef, batch: &[Trace]) -> Vec<MeasureOutcome> {
    BackendMeasurer::new(backend, def, "upmem", 0).measure(batch, &Cancellation::none())
}

fn time_batch(backend: &SimBackend, def: &ComputeDef, batch: &[Trace]) -> f64 {
    let start = Instant::now();
    let results = measure_all(backend, def, batch);
    assert!(
        results
            .iter()
            .any(|r| matches!(r, MeasureOutcome::Measured(_))),
        "no candidate measured for {}",
        def.name
    );
    start.elapsed().as_secs_f64()
}

fn main() {
    let full = std::env::var("ATIM_SNAPSHOT_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let hw = UpmemConfig::default();
    let workloads: Vec<ComputeDef> = if full {
        vec![
            ComputeDef::mmtv("mmtv", 64, 512, 256),
            ComputeDef::gemv("gemv", 8192, 1024, 1.0),
        ]
    } else {
        vec![
            ComputeDef::mmtv("mmtv", 16, 128, 128),
            ComputeDef::gemv("gemv", 2048, 512, 1.0),
        ]
    };

    let slow =
        SimBackend::with_threads(hw.clone(), CompileOptions::default(), 1).with_fastpath(false);
    let fast =
        SimBackend::with_threads(hw.clone(), CompileOptions::default(), 1).with_fastpath(true);

    let mut rows = Vec::new();
    for def in &workloads {
        let batch = candidate_batch(def, &hw);
        // Results must agree bit-for-bit; only the wall-clock differs.
        assert_eq!(
            measure_all(&slow, def, &batch),
            measure_all(&fast, def, &batch),
            "fast path changed a measurement for {}",
            def.name
        );
        let slow_s = time_batch(&slow, def, &batch);
        let fast_s = time_batch(&fast, def, &batch);
        let speedup = slow_s / fast_s.max(1e-12);
        eprintln!(
            "{:>6}: slow {slow_s:.3}s  fast {fast_s:.3}s  speedup {speedup:.1}x",
            def.name
        );
        rows.push(Json::Obj(vec![
            ("workload".into(), Json::Str(def.name.clone())),
            ("candidates".into(), Json::Int(batch.len() as i64)),
            ("slow_s".into(), Json::Float(slow_s)),
            ("fast_s".into(), Json::Float(fast_s)),
            ("speedup".into(), Json::Float(speedup)),
        ]));
    }
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("fastpath".into())),
        ("full".into(), Json::Bool(full)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    let out = std::env::var("ATIM_SNAPSHOT_OUT").unwrap_or_else(|_| "BENCH_fastpath.json".into());
    std::fs::write(&out, format!("{doc}\n")).expect("write snapshot");
    println!("{doc}");
    eprintln!("# wrote {out}");

    if let Ok(baseline_path) = std::env::var("ATIM_SNAPSHOT_BASELINE") {
        let regressions = check_against_baseline(&doc, &baseline_path);
        if regressions > 0 {
            eprintln!("# {regressions} fast-path perf regression(s) vs {baseline_path}");
            std::process::exit(1);
        }
        eprintln!("# perf within 2x of baseline {baseline_path}");
    }
}

/// Per-workload `(fast seconds per candidate, slow/fast speedup)` rows.
fn row_metrics(doc: &Json) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_arr().map(<[Json]>::to_vec));
    for row in rows.ok().into_iter().flatten() {
        let workload = row
            .get("workload")
            .and_then(|w| w.as_str().map(String::from));
        let fast_s = row.get("fast_s").and_then(|v| v.as_f64());
        let candidates = row.get("candidates").and_then(|v| v.as_f64());
        let speedup = row.get("speedup").and_then(|v| v.as_f64());
        if let (Ok(workload), Ok(fast_s), Ok(candidates), Ok(speedup)) =
            (workload, fast_s, candidates, speedup)
        {
            out.push((workload, fast_s / candidates.max(1.0), speedup));
        }
    }
    out
}

/// Compares the current snapshot against a committed baseline; returns the
/// number of regressions.  A workload regresses when **both** its
/// per-candidate fast-path time exceeds 2× the baseline's *and* its
/// same-host slow/fast speedup fell below half the baseline's — the first
/// gate is what the budget is stated in, the second is machine-neutral, so
/// a merely slower CI runner (which shifts slow and fast times equally)
/// cannot trip the gate, while a lost loop summary (which collapses the
/// speedup) cannot hide behind a faster one.  A missing or unreadable
/// baseline only warns, but a provided baseline with **zero comparable
/// workloads** (schema drift) counts as a failure rather than a silent
/// pass.
fn check_against_baseline(doc: &Json, baseline_path: &str) -> usize {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("# warning: cannot read baseline {baseline_path}: {err}");
            return 0;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("# warning: cannot parse baseline {baseline_path}: {err}");
            return 0;
        }
    };
    let base = row_metrics(&baseline);
    let mut regressions = 0;
    let mut compared = 0;
    for (workload, now_s, now_speedup) in row_metrics(doc) {
        let Some((_, base_s, base_speedup)) = base.iter().find(|(w, _, _)| *w == workload) else {
            eprintln!("# warning: workload {workload} missing from baseline");
            continue;
        };
        compared += 1;
        let time_ratio = now_s / base_s.max(1e-12);
        let speedup_ratio = now_speedup / base_speedup.max(1e-12);
        eprintln!(
            "# {workload}: {:.1} ms/candidate vs baseline {:.1} ms ({time_ratio:.2}x); \
             speedup {now_speedup:.1}x vs baseline {base_speedup:.1}x ({speedup_ratio:.2}x)",
            now_s * 1e3,
            base_s * 1e3,
        );
        if time_ratio > 2.0 && speedup_ratio < 0.5 {
            eprintln!(
                "# FAIL: {workload} fast path regressed \
                 ({time_ratio:.2}x time, {speedup_ratio:.2}x speedup)"
            );
            regressions += 1;
        }
    }
    if compared == 0 {
        eprintln!(
            "# FAIL: no workloads comparable against {baseline_path} — \
             snapshot/baseline schema drift would otherwise pass silently"
        );
        regressions += 1;
    }
    regressions
}
