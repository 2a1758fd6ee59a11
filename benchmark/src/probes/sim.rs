//! `atim-sim`: the three simulated phases of one timing-only measurement,
//! called the way `UpmemMachine::run` calls them.

use atim_sim::dpu::run_dpu;
use atim_sim::stats::{HostCounters, TransferCounters};
use atim_sim::timing::{host_loop_time, transfer_time};
use atim_sim::UpmemConfig;
use atim_tir::eval::{CompiledProgram, CompiledRunner, ExecMode, MemoryStore, Tracer};
use atim_tir::schedule::Lowered;
use atim_tir::stmt::TransferDir;

use super::tir::Programs;

fn run_host(program: &CompiledProgram, tracer: &mut dyn Tracer) {
    CompiledRunner::new(program)
        .run(&mut MemoryStore::new(), tracer, ExecMode::TimingOnly)
        .expect("a measured candidate's host program runs");
}

/// Host→DPU: the one-time weight load and the per-launch transfer program.
/// Returns the simulated seconds of the per-launch transfers.
pub fn h2d(programs: &Programs, lowered: &Lowered, hw: &UpmemConfig) -> f64 {
    run_host(&programs.h2d_setup, &mut TransferCounters::default());
    let mut counters = TransferCounters::default();
    run_host(&programs.h2d, &mut counters);
    transfer_time(TransferDir::H2D, &counters, lowered.grid.num_dpus(), hw)
}

/// The kernel on the first, middle and last DPU of the grid.  Returns the
/// simulated kernel seconds (slowest DPU) and the simulated DPU instructions
/// executed over the three.
pub fn kernel(programs: &Programs, lowered: &Lowered, hw: &UpmemConfig) -> (f64, u64) {
    let all = lowered.grid.enumerate();
    let n = all.len();
    let mut picks = vec![0];
    if n > 2 {
        picks.push(n / 2);
    }
    if n > 1 {
        picks.push(n - 1);
    }
    let mut store = MemoryStore::new();
    let (mut slowest, mut instructions) = (0.0f64, 0);
    for (linear, coords) in picks.into_iter().map(|i| &all[i]) {
        let run = run_dpu(
            &mut store,
            lowered,
            &programs.kernel,
            *linear,
            coords,
            ExecMode::TimingOnly,
            hw,
        )
        .expect("a measured candidate's kernel runs");
        slowest = slowest.max(run.cycles);
        instructions += run.instructions;
    }
    (
        slowest * hw.cycle_time() + hw.launch_overhead_s,
        instructions,
    )
}

/// DPU→host transfers and the host's final reduction.  Returns the
/// simulated seconds of each.
pub fn d2h(programs: &Programs, lowered: &Lowered, hw: &UpmemConfig) -> (f64, f64) {
    let mut counters = TransferCounters::default();
    run_host(&programs.d2h, &mut counters);
    let d2h_s = transfer_time(TransferDir::D2H, &counters, lowered.grid.num_dpus(), hw);
    let reduce_s = programs.host_reduce.as_ref().map_or(0.0, |reduce| {
        let mut counters = HostCounters::default();
        run_host(reduce, &mut counters);
        host_loop_time(&counters, lowered.host_threads, hw)
    });
    (d2h_s, reduce_s)
}
