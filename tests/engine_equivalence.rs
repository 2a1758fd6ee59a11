//! Pins the one measured engine against its reference.
//!
//! `UpmemMachine::run` executes every program as
//! `CompiledProgram::compile(..).optimize()` — constant folding, affine
//! fusion, guard hoisting and timing-only loop summaries.  Every latency
//! the tuner sees rests on that optimizer preserving event counts, so this
//! suite runs the *unoptimized* bytecode (`UpmemMachine::run_reference`)
//! next to it and demands identical results, on a matrix the per-crate
//! equivalence tests only sample:
//!
//! * all ten workload kinds (incl. batched GEMM, attention, int8 GEMV) on
//!   shrunken, mostly misaligned shapes, with a check that the
//!   transfer-bound cells really put summarized host-transfer loops in
//!   front of the comparison,
//! * all three resident schedule-space generators,
//! * seeded sampled traces that pass the verifier,
//! * compiled with the default PIM-aware passes and with none
//!   (`OptLevel::NoOpt` leaves every boundary guard in the kernel),
//! * the whole `ExecutionReport` in `TimingOnly`, report + output tensor in
//!   `Full`,
//! * long, tail-clamped RED and VA kernels whose chunk loops summarize in
//!   several pieces (with a check that some piece really ended early).

use atim_autotune::verify_trace;
use atim_core::prelude::*;
use atim_core::{compile_config, compile_trace};
use atim_sim::UpmemMachine;
use atim_tir::eval::{CompiledProgram, CompiledRunner, ExecMode, MemoryStore, NoTrace};
use atim_workloads::data::generate_inputs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Traces compared per (workload, generator) cell, and the floor below
/// which a cell counts as not covered.
const TRACES_PER_CELL: usize = 8;
const MIN_TRACES_PER_CELL: usize = 4;

/// Both compile pipelines the engines must agree under.
fn pipelines() -> [CompileOptions; 2] {
    [
        CompileOptions::default(),
        CompileOptions {
            opt_level: OptLevel::NoOpt,
            parallel_transfer: true,
        },
    ]
}

/// Runs one module on both engines in both modes and compares everything
/// they return.
fn assert_engines_agree(machine: &UpmemMachine, module: &CompiledModule, what: &str) {
    let lowered = &module.lowered;
    let fast = machine.run(lowered, &[], SimMode::TimingOnly).unwrap();
    let slow = machine
        .run_reference(lowered, &[], SimMode::TimingOnly)
        .unwrap();
    assert_eq!(fast.report, slow.report, "{what}: timing-only report");

    let inputs = generate_inputs(module.def(), 7);
    let fast = machine.run(lowered, &inputs, SimMode::Full).unwrap();
    let slow = machine
        .run_reference(lowered, &inputs, SimMode::Full)
        .unwrap();
    assert_eq!(fast.report, slow.report, "{what}: full report");
    assert!(fast.output.is_some(), "{what}: full mode returns a tensor");
    assert_eq!(fast.output, slow.output, "{what}: output tensor");
}

#[test]
fn optimized_bytecode_matches_the_reference_on_every_workload_and_generator() {
    // 64 DPUs: room for spatial × rfactor grids, small enough that `Full`
    // mode interprets every DPU of every candidate twice.
    let hw = UpmemConfig {
        ranks: 4,
        dpus_per_rank: 16,
        ..UpmemConfig::default()
    };
    let machine = UpmemMachine::new(hw.clone());
    let shapes: [(WorkloadKind, &[i64]); 11] = [
        (WorkloadKind::Va, &[1000]),
        (WorkloadKind::Red, &[900]),
        (WorkloadKind::Mtv, &[36, 44]),
        (WorkloadKind::Ttv, &[3, 12, 20]),
        (WorkloadKind::Mmtv, &[4, 10, 24]),
        (WorkloadKind::Geva, &[776]),
        (WorkloadKind::Gemv, &[28, 36]),
        (WorkloadKind::Bgemm, &[2, 6, 8, 12]),
        (WorkloadKind::Attn, &[2, 10, 12]),
        // 1-byte operands: the reduction extent keeps 8-byte-aligned even
        // divisors, or the divisor-snapping space has no DMA-legal tile.
        (WorkloadKind::Qgemv, &[36, 48]),
        // The ledger's misaligned MMTV 64×100×256, shrunk (last: the cell
        // index seeds each cell's traces).
        (WorkloadKind::Mmtv, &[8, 50, 32]),
    ];
    for kind in WorkloadKind::ALL {
        assert!(shapes.iter().any(|(k, _)| *k == kind), "{kind:?} uncovered");
    }

    for (w, (kind, shape)) in shapes.into_iter().enumerate() {
        let def = Workload::new(kind, shape.to_vec()).compute_def();
        for (g, id) in RESIDENT_GENERATOR_IDS.into_iter().enumerate() {
            let generator = resolve_generator(id).expect("resident id");
            let mut rng = StdRng::seed_from_u64(0xE6 + (w * 16 + g) as u64);
            let (mut compared, mut summarized_h2d_loops) = (0, 0);
            for attempt in 0..64 {
                if compared == TRACES_PER_CELL {
                    break;
                }
                let with_rfactor = def.has_reduce() && attempt % 2 == 0;
                let trace = generator.sample(&mut rng, &def, &hw, with_rfactor);
                if verify_trace(&trace, &def, &hw).is_err() {
                    continue;
                }
                for options in pipelines() {
                    let module = compile_trace(&trace, &def, options, &hw).unwrap();
                    let what = format!("{}/{id}/{:?}/{trace}", def.name, options.opt_level);
                    assert_engines_agree(&machine, &module, &what);
                    summarized_h2d_loops += CompiledProgram::compile(&module.lowered.h2d)
                        .optimize()
                        .summarized_loops();
                }
                compared += 1;
            }
            assert!(
                compared >= MIN_TRACES_PER_CELL,
                "{}/{id}: only {compared} sampled traces passed the verifier",
                def.name
            );
            // The comparison above is vacuous for transfer summaries unless
            // the transfer-bound workloads' h2d programs carry some.
            if matches!(
                kind,
                WorkloadKind::Mtv | WorkloadKind::Mmtv | WorkloadKind::Gemv
            ) {
                assert!(
                    summarized_h2d_loops >= 1,
                    "{}/{id}: no h2d transfer loop was marked summarizable",
                    def.name
                );
            }
        }
    }
}

/// The two Fig. 9 cases (and their six-candidate batch) the retired
/// fast-path perf snapshot asserted bit-identity on, on the full 2048-DPU
/// machine.
#[test]
fn optimized_bytecode_matches_the_reference_on_the_snapshot_batches() {
    let hw = UpmemConfig::default();
    let machine = UpmemMachine::new(hw.clone());
    for def in [
        ComputeDef::mmtv("mmtv", 16, 128, 128),
        ComputeDef::gemv("gemv", 2048, 512, 1.0),
    ] {
        let base = ScheduleConfig::default_for(&def, &hw);
        for i in 0..6 {
            let config = ScheduleConfig {
                spatial_dpus: vec![16 << (i % 3)],
                tasklets: [8, 12, 16][i % 3],
                cache_elems: [32, 64, 128][(i / 2) % 3],
                ..base.clone()
            };
            for options in pipelines() {
                let module = compile_config(&config, &def, options, &hw).unwrap();
                let what = format!("{}/{config:?}/{:?}", def.name, options.opt_level);
                assert_engines_agree(&machine, &module, &what);
            }
        }
    }
}

/// RED and VA just past 2^16 elements on at most four DPUs, with tasklet
/// splits that leave the last tasklet a short tail: the PIM-aware passes
/// tighten the cache loop to `min(cache, E − origin)`, so each tasklet's
/// chunk loop summarizes as a full-tile piece and ends with its tail.
#[test]
fn tail_clamped_kernels_match_the_reference_in_pieces() {
    let hw = UpmemConfig {
        ranks: 1,
        dpus_per_rank: 4,
        ..UpmemConfig::default()
    };
    let machine = UpmemMachine::new(hw.clone());
    let mut split_pieces = 0;
    for (kind, elems) in [
        (WorkloadKind::Red, (1 << 16) + 37),
        (WorkloadKind::Va, (1 << 16) + 11),
    ] {
        let def = Workload::new(kind, vec![elems]).compute_def();
        let base = ScheduleConfig::default_for(&def, &hw);
        for (dpus, tasklets, cache_elems) in [(4, 20, 2), (2, 12, 16), (3, 20, 8), (1, 12, 4)] {
            let config = match kind {
                WorkloadKind::Red => ScheduleConfig {
                    reduce_dpus: dpus,
                    ..base.clone()
                },
                _ => ScheduleConfig {
                    spatial_dpus: vec![dpus],
                    ..base.clone()
                },
            };
            let config = ScheduleConfig {
                tasklets,
                cache_elems,
                use_cache: true,
                ..config
            };
            for options in pipelines() {
                let module = compile_config(&config, &def, options, &hw).unwrap();
                let what = format!("{}/{config:?}/{:?}", def.name, options.opt_level);
                assert_engines_agree(&machine, &module, &what);

                let lowered = &module.lowered;
                let kernel = CompiledProgram::compile(&lowered.kernel.body).optimize();
                for (linear, coords) in lowered.grid.enumerate() {
                    let mut runner = CompiledRunner::new(&kernel);
                    runner.set_dpu(linear);
                    for (dim, coord) in lowered.grid.dims.iter().zip(&coords) {
                        runner.bind(&dim.var, *coord);
                    }
                    runner
                        .run(&mut MemoryStore::new(), &mut NoTrace, ExecMode::TimingOnly)
                        .unwrap();
                    split_pieces += runner.split_pieces();
                }
            }
        }
    }
    assert!(
        split_pieces >= 1,
        "no summarized piece ended before its loop did"
    );
}
