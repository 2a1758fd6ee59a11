//! Functional execution of a [`Lowered`] program.
//!
//! This is a hardware-agnostic executor: it runs the host transfer
//! programs, every DPU's kernel, and the host reduction in sequence on the
//! compiled bytecode ([`CompiledProgram`]) and returns the output tensor.
//! The UPMEM simulator in `atim-sim` performs the same steps on the same
//! evaluator but attaches its timing model; keeping this simple executor
//! here lets the `atim-tir` test-suite validate lowering correctness without
//! depending on the simulator.

use crate::error::Result;
use crate::eval::{CompiledProgram, CompiledRunner, ExecMode, MemoryStore, NoTrace};
use crate::stmt::Stmt;

use super::lowered::Lowered;

/// Compiles and runs one host-side program (transfers, final reduction).
fn run_host(stmt: &Stmt, store: &mut MemoryStore) -> Result<()> {
    let program = CompiledProgram::compile(stmt);
    CompiledRunner::new(&program).run(store, &mut NoTrace, ExecMode::Functional)
}

/// Executes a lowered program functionally and returns the output tensor.
///
/// `inputs` must match the lengths declared by the compute definition.
///
/// # Errors
/// Propagates evaluator errors (out-of-bounds accesses indicate a lowering
/// bug and surface here).
///
/// # Panics
/// Panics if `inputs.len()` differs from the number of declared inputs.
pub fn execute_functional(lowered: &Lowered, inputs: &[Vec<f32>]) -> Result<Vec<f32>> {
    assert_eq!(
        inputs.len(),
        lowered.global_inputs.len(),
        "input count mismatch"
    );
    let mut store = MemoryStore::new();
    for (buf, data) in lowered.global_inputs.iter().zip(inputs) {
        store.alloc_with(buf, 0, data);
    }
    store.alloc(&lowered.global_output, 0);
    if let Some(p) = &lowered.partial_output {
        store.alloc(p, 0);
    }
    // Pre-allocate MRAM tiles for every DPU (zero-filled: this provides the
    // "local padding" guarantee the DMA-aware pass relies on).
    for (linear, _) in lowered.grid.enumerate() {
        for tile in &lowered.mram_inputs {
            store.alloc(&tile.buf, linear);
        }
        store.alloc(&lowered.mram_output.buf, linear);
    }

    // Host-to-DPU transfers (constant tensors first, then per-launch data).
    run_host(&lowered.h2d_setup, &mut store)?;
    run_host(&lowered.h2d, &mut store)?;

    // Kernel execution, one DPU at a time.  The kernel body is pre-lowered
    // once and the flat program reused for every DPU context.
    let kernel = CompiledProgram::compile(&lowered.kernel.body);
    let mut runner = CompiledRunner::new(&kernel);
    for (linear, coords) in lowered.grid.enumerate() {
        runner.set_dpu(linear);
        for (dim, coord) in lowered.grid.dims.iter().zip(&coords) {
            runner.bind(&dim.var, *coord);
        }
        runner.run(&mut store, &mut NoTrace, ExecMode::Functional)?;
    }

    // DPU-to-host transfers.
    run_host(&lowered.d2h, &mut store)?;

    // Host final reduction.
    if let Some(reduce) = &lowered.host_reduce {
        run_host(reduce, &mut store)?;
    }

    Ok(store
        .read_all(&lowered.global_output, 0)
        .map(|s| s.to_vec())
        .unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::ComputeDef;
    use crate::schedule::{Attach, Binding, Schedule};

    fn test_inputs(def: &ComputeDef) -> Vec<Vec<f32>> {
        (0..def.inputs.len())
            .map(|t| {
                (0..def.input_len(t))
                    .map(|i| ((i * 7 + t * 13) % 11) as f32 - 3.0)
                    .collect()
            })
            .collect()
    }

    fn check(def: ComputeDef, sch: Schedule) {
        let inputs = test_inputs(&def);
        let expect = def.reference(&inputs);
        let lowered = sch.lower().unwrap();
        let got = execute_functional(&lowered, &inputs).unwrap();
        assert_eq!(got.len(), expect.len());
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() < 1e-3,
                "mismatch at {i}: got {g}, expected {e} ({})",
                lowered.def.name
            );
        }
    }

    #[test]
    fn va_default_schedule_matches_reference() {
        let def = ComputeDef::va("va", 37);
        let sch = Schedule::new(def.clone());
        check(def, sch);
    }

    #[test]
    fn va_distributed_misaligned_matches_reference() {
        let def = ComputeDef::va("va", 100);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loop_refs()[0];
        let (i_dpu, i_in) = sch.split(i, 16).unwrap();
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        let (i_t, i_c) = sch.split(i_in, 4).unwrap();
        sch.bind(i_t, Binding::Tasklet).unwrap();
        sch.cache_read(0, Attach::At(i_t)).unwrap();
        sch.cache_read(1, Attach::At(i_t)).unwrap();
        sch.cache_write(Attach::At(i_t)).unwrap();
        let _ = i_c;
        check(def, sch);
    }

    #[test]
    fn mtv_2d_tiling_with_rfactor_matches_reference() {
        let def = ComputeDef::mtv("mtv", 30, 50);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let k = sch.loops_of_axis(1)[0];
        let (i_dpu, i_in) = sch.split(i, 8).unwrap();
        let (k_dpu, k_in) = sch.split(k, 16).unwrap();
        sch.rfactor(k_dpu).unwrap();
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        sch.bind(k_dpu, Binding::DpuY).unwrap();
        sch.reorder(&[i_dpu, k_dpu, i_in, k_in]).unwrap();
        sch.cache_read(0, Attach::At(i_in)).unwrap();
        sch.cache_read(1, Attach::At(i_in)).unwrap();
        sch.cache_write(Attach::At(i_in)).unwrap();
        sch.parallel_host(4);
        check(def, sch);
    }

    #[test]
    fn mtv_misaligned_both_axes_matches_reference() {
        // 7x40 with a 2x16 tile, as in the paper's Fig. 8 example.
        let def = ComputeDef::mtv("mtv", 7, 40);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let k = sch.loops_of_axis(1)[0];
        let (i_dpu, i_in) = sch.split(i, 4).unwrap();
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        let (i_t, i_c) = sch.split(i_in, 2).unwrap();
        sch.bind(i_t, Binding::Tasklet).unwrap();
        let (k_o, k_i) = sch.split(k, 16).unwrap();
        sch.reorder(&[i_dpu, i_t, i_c, k_o, k_i]).unwrap();
        sch.cache_read(0, Attach::At(k_o)).unwrap();
        sch.cache_read(1, Attach::At(k_o)).unwrap();
        sch.cache_write(Attach::At(i_c)).unwrap();
        check(def, sch);
    }

    #[test]
    fn red_hierarchical_reduction_matches_reference() {
        let def = ComputeDef::red("red", 200);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let (i_dpu, i_in) = sch.split(i, 32).unwrap();
        sch.rfactor(i_dpu).unwrap();
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        let (i_t, _) = sch.split(i_in, 8).unwrap();
        sch.bind(i_t, Binding::Tasklet).unwrap();
        sch.parallel_host(2);
        check(def, sch);
    }

    #[test]
    fn geva_matches_reference() {
        let def = ComputeDef::geva("geva", 45, 2.0, -1.5);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loop_refs()[0];
        let (i_dpu, i_in) = sch.split(i, 8).unwrap();
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        sch.cache_read(0, Attach::At(i_in)).unwrap();
        check(def, sch);
    }

    #[test]
    fn ttv_matches_reference() {
        let def = ComputeDef::ttv("ttv", 6, 10, 12);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let j = sch.loops_of_axis(1)[0];
        let (j_dpu, j_in) = sch.split(j, 4).unwrap();
        sch.bind(i, Binding::DpuX).unwrap();
        sch.bind(j_dpu, Binding::DpuY).unwrap();
        sch.reorder(&[i, j_dpu, j_in]).unwrap();
        check(def, sch);
    }

    #[test]
    fn mmtv_matches_reference() {
        let def = ComputeDef::mmtv("mmtv", 4, 9, 16);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let j = sch.loops_of_axis(1)[0];
        let k = sch.loops_of_axis(2)[0];
        let (j_dpu, j_in) = sch.split(j, 4).unwrap();
        sch.bind(i, Binding::DpuX).unwrap();
        sch.bind(j_dpu, Binding::DpuY).unwrap();
        sch.reorder(&[i, j_dpu, j_in, k]).unwrap();
        let (j_t, j_c) = sch.split(j_in, 2).unwrap();
        sch.bind(j_t, Binding::Tasklet).unwrap();
        sch.cache_read(1, Attach::At(j_c)).unwrap();
        sch.cache_write(Attach::At(j_c)).unwrap();
        check(def, sch);
    }

    #[test]
    fn gemv_single_dpu_matches_reference() {
        let def = ComputeDef::gemv("gemv", 24, 24, 1.5);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let (i_t, _) = sch.split(i, 8).unwrap();
        sch.bind(i_t, Binding::Tasklet).unwrap();
        check(def, sch);
    }
}
