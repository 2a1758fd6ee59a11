//! Criterion benchmarks of the autotuning loop itself: candidate generation,
//! verification, cost-model ranking and measurement (the machinery behind
//! Fig. 14/15).

use atim_autotune::{tune, MemoMeasurer, ScheduleConfig, Trace, TuningOptions};
use atim_core::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_verifier(c: &mut Criterion) {
    let def = ComputeDef::gemv("gemv", 4096, 4096, 1.0);
    let hw = UpmemConfig::default();
    let cfg = ScheduleConfig {
        spatial_dpus: vec![256],
        reduce_dpus: 8,
        tasklets: 16,
        cache_elems: 64,
        use_cache: true,
        unroll: true,
        host_threads: 16,
        parallel_transfer: true,
    };
    c.bench_function("verify_candidate", |b| {
        b.iter(|| atim_autotune::verify_trace(&cfg.to_trace(&def), &def, &hw).unwrap())
    });
}

fn bench_small_tuning_session(c: &mut Criterion) {
    let session = Session::default();
    let def = ComputeDef::mtv("mtv", 1024, 1024);
    let options = TuningOptions {
        trials: 16,
        population: 16,
        measure_per_round: 8,
        ..TuningOptions::default()
    };
    let mut group = c.benchmark_group("tuning_session");
    // A full (if small) tuning session per iteration: keep the sample count
    // low so `cargo bench` stays quick.
    group.sample_size(10);
    group.bench_function("tune_16_trials_mtv_1k", |b| {
        b.iter(|| {
            let mut measurer = |t: &Trace| session.measure(t, &def);
            tune(&def, session.hardware(), &options, &mut measurer)
        })
    });
    group.bench_function("tune_backend_jobs_16_trials_mtv_1k", |b| {
        b.iter(|| {
            // Fresh measurer per iteration so the memo cache does not carry
            // over between timed runs.
            let mut backend = BackendMeasurer::new(session.backend(), &def, "upmem", options.seed);
            let mut measurer = MemoMeasurer::new(&mut backend);
            tune(&def, session.hardware(), &options, &mut measurer)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_verifier, bench_small_tuning_session);
criterion_main!(benches);
