//! Criterion micro-bench of the measurement fast path: the same timing-only
//! kernel execution through the tree interpreter, the compiled bytecode, and
//! the optimized bytecode the simulator measures on (constant folding,
//! affine fusion, hoisting and timing-only loop summarization).
//!
//! This is the per-candidate unit of work the autotuner repeats thousands of
//! times, so the ratios here translate directly into trials-per-budget.
//! The `timing_kernel` group also runs a tail-clamped RED kernel, whose
//! tightened chunk loop the summarizer applies in range-split pieces.
//! The `transfer_programs` group does the same for the host-transfer
//! programs, whose `for dpu… for row… transfer` nests the summarizer
//! collapses level by level.

use atim_autotune::ScheduleConfig;
use atim_core::prelude::*;
use atim_sim::stats::TransferCounters;
use atim_sim::{SimMode, UpmemMachine};
use atim_tir::eval::{CompiledProgram, CompiledRunner, ExecMode, Interpreter, MemoryStore};
use atim_tir::schedule::Lowered;
use criterion::{criterion_group, criterion_main, Criterion};

// `CountingTracer` is the tir-level stand-in for the simulator's DPU
// counters; alias it so the intent reads clearly at the call sites.
use atim_tir::eval::CountingTracer as KernelCounters;

fn lowered_gemv() -> Lowered {
    let session = Session::default();
    let def = ComputeDef::gemv("gemv", 2048, 512, 1.0);
    // No unrolling: the 64-element WRAM compute loop stays a loop, which is
    // the shape the timing-only summarizer collapses (unrolled bodies
    // already dispatch few loop iterations and gain little).
    let cfg = ScheduleConfig {
        spatial_dpus: vec![64],
        reduce_dpus: 4,
        tasklets: 12,
        cache_elems: 64,
        use_cache: true,
        unroll: false,
        host_threads: 16,
        parallel_transfer: true,
    };
    session.compile_config(&cfg, &def).unwrap().lowered
}

/// The ledger's worst RED 2^20 candidate: 20 tasklets split 2^18 elements
/// per DPU unevenly, so the PIM-aware passes tighten the 2-element cache
/// loop to `min(2, E − origin)` and the chunk loop summarizes in pieces.
fn lowered_red_tail_clamped() -> Lowered {
    let session = Session::default();
    let def = ComputeDef::red("red", 1 << 20);
    let cfg = ScheduleConfig {
        reduce_dpus: 4,
        tasklets: 20,
        cache_elems: 2,
        use_cache: true,
        ..ScheduleConfig::default_for(&def, &UpmemConfig::default())
    };
    session.compile_config(&cfg, &def).unwrap().lowered
}

/// Runs one DPU's kernel through a runner on `program`.
fn run_kernel(lowered: &Lowered, dpu: usize, program: &CompiledProgram) -> KernelCounters {
    let (linear, coords) = &lowered.grid.enumerate()[dpu];
    let mut tracer = KernelCounters::default();
    let mut runner = CompiledRunner::new(program);
    runner.set_dpu(*linear);
    for (dim, coord) in lowered.grid.dims.iter().zip(coords) {
        runner.bind(&dim.var, *coord);
    }
    runner
        .run(&mut MemoryStore::new(), &mut tracer, ExecMode::TimingOnly)
        .unwrap();
    tracer
}

/// Runs one DPU's kernel in timing-only mode through `run`, asserting it
/// traced a non-trivial amount of work.
fn bench_kernel_engines(c: &mut Criterion) {
    let lowered = lowered_gemv();
    let (linear, coords) = lowered.grid.enumerate()[0].clone();
    let compiled = CompiledProgram::compile(&lowered.kernel.body);
    let optimized = compiled.optimize();

    let mut group = c.benchmark_group("timing_kernel");
    // The tail-clamped RED kernel on its last DPU, reference vs measured.
    let red = lowered_red_tail_clamped();
    let last = red.grid.enumerate().len() - 1;
    let red_compiled = CompiledProgram::compile(&red.kernel.body);
    let red_optimized = red_compiled.optimize();
    let expect = run_kernel(&red, last, &red_compiled);
    assert!(expect.dma_requests >= 1 << 17, "{expect:?}");
    assert_eq!(run_kernel(&red, last, &red_optimized), expect);
    for (name, program) in [
        ("red_tail_clamped/compiled", &red_compiled),
        ("red_tail_clamped/compiled_fastpath", &red_optimized),
    ] {
        group.bench_function(name, |b| b.iter(|| run_kernel(&red, last, program)));
    }
    group.bench_function("interpreter", |b| {
        b.iter(|| {
            let mut store = MemoryStore::new();
            let mut tracer = KernelCounters::default();
            let mut interp = Interpreter::new(&mut store, &mut tracer, ExecMode::TimingOnly);
            interp.set_dpu(linear);
            for (dim, coord) in lowered.grid.dims.iter().zip(&coords) {
                interp.bind(&dim.var, *coord);
            }
            interp.run(&lowered.kernel.body).unwrap();
            tracer
        })
    });
    for (name, program) in [("compiled", &compiled), ("compiled_fastpath", &optimized)] {
        group.bench_function(name, |b| b.iter(|| run_kernel(&lowered, 0, program)));
    }
    group.finish();
}

/// Whole timing-only measurements (transfers + kernel + reduction) on the
/// unoptimized reference vs the measured engine — the end-to-end
/// per-candidate cost.
fn bench_full_measurement(c: &mut Criterion) {
    let lowered = lowered_gemv();
    let machine = UpmemMachine::new(UpmemConfig::default());
    let mut group = c.benchmark_group("timing_measurement");
    group.bench_function("slowpath", |b| {
        b.iter(|| {
            machine
                .run_reference(&lowered, &[], SimMode::TimingOnly)
                .unwrap()
        })
    });
    group.bench_function("fastpath", |b| {
        b.iter(|| machine.run(&lowered, &[], SimMode::TimingOnly).unwrap())
    });
    group.finish();
}

/// The h2d (setup + per-launch) and d2h programs of one candidate in
/// timing-only mode, unoptimized (`reference`) vs as measured (`run`): an
/// aligned MTV on all 2048 DPUs, where every level summarizes, and the
/// misaligned GPT-J MMTV, whose boundary guards and tail clamps keep some
/// levels iterating.
fn bench_transfer_programs(c: &mut Criterion) {
    let session = Session::default();
    let mtv = ComputeDef::mtv("mtv", 4096, 4096);
    let mtv_cfg = ScheduleConfig {
        spatial_dpus: vec![256],
        reduce_dpus: 8,
        ..ScheduleConfig::default_for(&mtv, &UpmemConfig::default())
    };
    let mmtv = ComputeDef::mmtv("mmtv", 64, 100, 256);
    let mmtv_cfg = ScheduleConfig {
        spatial_dpus: vec![64, 16],
        reduce_dpus: 2,
        ..ScheduleConfig::default_for(&mmtv, &UpmemConfig::default())
    };
    let mut group = c.benchmark_group("transfer_programs");
    for (name, cfg, def) in [
        ("mtv_aligned", mtv_cfg, mtv),
        ("mmtv_misaligned", mmtv_cfg, mmtv),
    ] {
        let lowered = session.compile_config(&cfg, &def).unwrap().lowered;
        let stmts = [&lowered.h2d_setup, &lowered.h2d, &lowered.d2h];
        let reference = stmts.map(CompiledProgram::compile);
        let optimized = stmts.map(|stmt| CompiledProgram::compile(stmt).optimize());
        let count = |programs: &[CompiledProgram; 3]| {
            let mut counters = TransferCounters::default();
            for program in programs {
                CompiledRunner::new(program)
                    .run(&mut MemoryStore::new(), &mut counters, ExecMode::TimingOnly)
                    .unwrap();
            }
            counters
        };
        assert!(count(&reference).h2d_calls > 0 && count(&reference).d2h_calls > 0);
        assert_eq!(count(&reference), count(&optimized));
        group.bench_function(&format!("{name}/reference"), |b| {
            b.iter(|| count(&reference))
        });
        group.bench_function(&format!("{name}/run"), |b| b.iter(|| count(&optimized)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_engines,
    bench_full_measurement,
    bench_transfer_programs
);
criterion_main!(benches);
