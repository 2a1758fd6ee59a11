//! Fig. 15 — autotuning overheads: per-iteration tuning time and the spread
//! of candidate execution times, UPMEM (ATiM) vs CPU autotuning (§8).
//!
//! Tuning wall-clock here is the real time spent by this harness per
//! 64-trial iteration (dominated by candidate simulation), mirroring how the
//! paper's measurement is dominated by on-hardware runs; the CPU column uses
//! the host roofline model as the candidate execution time.  Each iteration
//! is tuned twice — once with a closure measurer timing one candidate at a
//! time and once through the backend adapter (`Backend::measure_jobs` on
//! `ATIM_MEASURE_THREADS` workers, behind the memo) — so the output shows
//! the tuning-cost win of batching directly.

use atim_autotune::{tune, MemoMeasurer, Trace, TuningOptions};
use atim_core::prelude::*;
use std::time::Instant;

fn main() {
    let session = atim_bench::session();
    let def = ComputeDef::mtv("mtv", 4096, 4096);
    let iterations = 8usize;
    let per_iter = 64usize;
    let threads = atim_core::measure::default_measure_threads();

    println!("# Fig 15 (left): per-iteration tuning wall-clock (seconds)");
    println!(
        "# sequential = closure measurer, one candidate at a time (no memo); batch = \
         backend adapter with {threads} threads + cross-round memo"
    );
    println!("iteration,upmem_seq_tuning_s,upmem_par_tuning_s,cpu_tuning_s");
    let mut all_candidates: Vec<f64> = Vec::new();
    let mut total_seq = 0.0;
    let mut total_par = 0.0;
    for it in 0..iterations {
        let options = TuningOptions {
            trials: per_iter,
            population: 64,
            measure_per_round: 16,
            seed: 0x100 + it as u64,
            ..TuningOptions::default()
        };
        let mut candidate_ms: Vec<f64> = Vec::new();
        let mut measurer = |trace: &Trace| {
            let latency = session.measure(trace, &def)?;
            candidate_ms.push(latency * 1e3);
            Some(latency)
        };
        let start = Instant::now();
        let seq_result = tune(&def, session.hardware(), &options, &mut measurer);
        let seq_s = start.elapsed().as_secs_f64();

        let mut backend = BackendMeasurer::new(session.backend(), &def, "upmem", options.seed);
        let mut batch = MemoMeasurer::new(&mut backend);
        let start = Instant::now();
        let par_result = tune(&def, session.hardware(), &options, &mut batch);
        let par_s = start.elapsed().as_secs_f64();
        assert_eq!(
            seq_result.best, par_result.best,
            "parallel measurement must not change the tuning result"
        );

        // CPU autotuning iteration: measuring 64 CPU candidates, each costing
        // roughly the roofline latency of the kernel.
        let cpu_candidate = atim_sim::cpu::cpu_autotuned(&def, session.hardware()).time_s;
        let cpu_s = cpu_candidate * per_iter as f64;
        println!("{it},{seq_s:.3},{par_s:.3},{cpu_s:.3}");
        total_seq += seq_s;
        total_par += par_s;
        all_candidates.extend(candidate_ms);
    }
    println!(
        "# total: sequential {total_seq:.2}s, batch subsystem {total_par:.2}s \
         ({:.2}x; includes both thread fan-out and memoization)",
        total_seq / total_par.max(1e-9)
    );

    println!();
    println!("# Fig 15 (right): candidate kernel execution times (ms, log-scale in the paper)");
    println!("candidate,upmem_candidate_ms");
    for (i, ms) in all_candidates.iter().enumerate() {
        println!("{i},{ms:.4}");
    }
    let min = all_candidates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = all_candidates.iter().cloned().fold(0.0f64, f64::max);
    println!();
    println!(
        "# candidate spread: min={min:.3} ms, max={max:.3} ms, ratio={:.1}x",
        max / min
    );
}
