//! The simulated UPMEM machine: orchestrates transfers, kernel launches and
//! host reduction for a lowered program and produces an
//! [`ExecutionReport`].

use atim_tir::error::{Result, TirError};
use atim_tir::eval::{CompiledProgram, CompiledRunner, ExecMode, MemoryStore, Tracer};
use atim_tir::schedule::Lowered;
use atim_tir::stmt::{Stmt, TransferDir};

use crate::config::UpmemConfig;
use crate::dpu::{run_dpu, DpuRun};
use crate::stats::{ExecutionReport, HostCounters, TransferCounters};
use crate::timing::{host_loop_time, transfer_time};

/// How faithfully to execute the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Execute every DPU functionally and return the output tensor.  Use for
    /// correctness tests and small workloads.
    #[default]
    Full,
    /// Do not move tensor data; execute the host programs in timing-only
    /// mode and only a set of representative DPUs (first, middle, last) for
    /// the kernel, taking the slowest as the kernel latency.  Counts are
    /// exact for the simulated DPUs; the output tensor is not produced.
    /// Use for the large benchmark shapes.
    ///
    /// Inherits the affine-guards-only contract of
    /// [`ExecMode::TimingOnly`]: loads yield `0.0`, so only programs free
    /// of data-dependent control flow (everything the schedule lowering
    /// emits) count identically to [`SimMode::Full`].
    TimingOnly,
}

/// Result of simulating one offloaded execution.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The output tensor (present in [`SimMode::Full`] only).
    pub output: Option<Vec<f32>>,
    /// Timing and profiling report.
    pub report: ExecutionReport,
}

/// The simulated UPMEM server.
#[derive(Debug, Clone)]
pub struct UpmemMachine {
    config: UpmemConfig,
}

impl Default for UpmemMachine {
    fn default() -> Self {
        UpmemMachine::new(UpmemConfig::default())
    }
}

impl UpmemMachine {
    /// Creates a machine with the given hardware configuration.
    pub fn new(config: UpmemConfig) -> Self {
        UpmemMachine { config }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &UpmemConfig {
        &self.config
    }

    /// Runs a lowered program on the optimized bytecode: every program is
    /// compiled to a flat instruction buffer and put through the
    /// event-count-preserving optimizer, whose loop summaries collapse
    /// timing-only iterations into bulk events (functional runs execute
    /// summarized loops normally).
    ///
    /// In [`SimMode::Full`], `inputs` must contain one vector per declared
    /// input; in [`SimMode::TimingOnly`] the inputs are ignored and may be
    /// empty.
    ///
    /// # Errors
    /// Fails if the program uses more DPUs than the machine has, or on
    /// interpreter errors (which indicate lowering bugs).
    pub fn run(&self, lowered: &Lowered, inputs: &[Vec<f32>], mode: SimMode) -> Result<SimResult> {
        self.run_with(lowered, inputs, mode, |stmt| {
            CompiledProgram::compile(stmt).optimize()
        })
    }

    /// [`UpmemMachine::run`] on the *unoptimized* bytecode — the reference
    /// the optimizer is checked against.  Equivalence tests only, never
    /// measurement.
    ///
    /// # Errors
    /// As [`UpmemMachine::run`].
    #[doc(hidden)]
    pub fn run_reference(
        &self,
        lowered: &Lowered,
        inputs: &[Vec<f32>],
        mode: SimMode,
    ) -> Result<SimResult> {
        self.run_with(lowered, inputs, mode, CompiledProgram::compile)
    }

    fn run_with(
        &self,
        lowered: &Lowered,
        inputs: &[Vec<f32>],
        mode: SimMode,
        prepare: impl Fn(&Stmt) -> CompiledProgram,
    ) -> Result<SimResult> {
        let num_dpus = lowered.grid.num_dpus();
        if num_dpus > self.config.total_dpus() as i64 {
            return Err(TirError::Internal(format!(
                "schedule uses {num_dpus} DPUs but the machine has {}",
                self.config.total_dpus()
            )));
        }

        let exec_mode = match mode {
            SimMode::Full => ExecMode::Functional,
            SimMode::TimingOnly => ExecMode::TimingOnly,
        };

        let mut store = MemoryStore::new();
        if mode == SimMode::Full {
            if inputs.len() != lowered.global_inputs.len() {
                return Err(TirError::Internal(format!(
                    "expected {} inputs, got {}",
                    lowered.global_inputs.len(),
                    inputs.len()
                )));
            }
            for (buf, data) in lowered.global_inputs.iter().zip(inputs) {
                store.alloc_with(buf, 0, data);
            }
            store.alloc(&lowered.global_output, 0);
            if let Some(p) = &lowered.partial_output {
                store.alloc(p, 0);
            }
            for (linear, _) in lowered.grid.enumerate() {
                for tile in &lowered.mram_inputs {
                    store.alloc(&tile.buf, linear);
                }
                store.alloc(&lowered.mram_output.buf, linear);
            }
        }

        // Every program is pre-lowered to a flat instruction buffer once per
        // launch; the kernel program in particular is reused across DPUs.
        let run_flat = |stmt: &Stmt, store: &mut MemoryStore, tracer: &mut dyn Tracer| {
            CompiledRunner::new(&prepare(stmt)).run(store, tracer, exec_mode)
        };

        // --- Host -> DPU transfers ------------------------------------------
        // Constant tensors (weights) are loaded once at setup time and are
        // reported separately from the per-launch transfer cost.
        let mut setup_counters = TransferCounters::default();
        run_flat(&lowered.h2d_setup, &mut store, &mut setup_counters)?;
        let setup_h2d_s = transfer_time(TransferDir::H2D, &setup_counters, num_dpus, &self.config);
        let mut h2d_counters = TransferCounters::default();
        run_flat(&lowered.h2d, &mut store, &mut h2d_counters)?;
        let h2d_s = transfer_time(TransferDir::H2D, &h2d_counters, num_dpus, &self.config);

        // --- Kernel execution -------------------------------------------------
        let kernel = prepare(&lowered.kernel.body);
        let all = lowered.grid.enumerate();
        let selected: Vec<&(i64, Vec<i64>)> = match mode {
            SimMode::Full => all.iter().collect(),
            SimMode::TimingOnly => {
                let n = all.len();
                let mut picks = vec![0usize];
                if n > 2 {
                    picks.push(n / 2);
                }
                if n > 1 {
                    picks.push(n - 1);
                }
                picks.dedup();
                picks.iter().map(|&i| &all[i]).collect()
            }
        };
        let mut slowest = DpuRun::default();
        for (linear, coords) in selected {
            let run = run_dpu(
                &mut store,
                lowered,
                &kernel,
                *linear,
                coords,
                exec_mode,
                &self.config,
            )?;
            if run.cycles > slowest.cycles {
                slowest = run;
            }
        }
        let kernel_s = slowest.cycles * self.config.cycle_time() + self.config.launch_overhead_s;

        // --- DPU -> host transfers ---------------------------------------------
        let mut d2h_counters = TransferCounters::default();
        run_flat(&lowered.d2h, &mut store, &mut d2h_counters)?;
        let d2h_s = transfer_time(TransferDir::D2H, &d2h_counters, num_dpus, &self.config);

        // --- Host final reduction ------------------------------------------------
        let mut reduce_s = 0.0;
        if let Some(reduce) = &lowered.host_reduce {
            let mut host_counters = HostCounters::default();
            run_flat(reduce, &mut store, &mut host_counters)?;
            reduce_s = host_loop_time(&host_counters, lowered.host_threads, &self.config);
        }

        let output = if mode == SimMode::Full {
            store
                .read_all(&lowered.global_output, 0)
                .map(|s| s.to_vec())
        } else {
            None
        };

        let report = ExecutionReport {
            h2d_s,
            setup_h2d_s,
            kernel_s,
            d2h_s,
            reduce_s,
            num_dpus,
            tasklets: lowered.kernel.tasklets,
            instructions: slowest.instructions,
            dpu: slowest.counters,
            breakdown: slowest.breakdown,
            h2d_bytes: h2d_counters.h2d_bytes + setup_counters.h2d_bytes,
            d2h_bytes: d2h_counters.d2h_bytes,
            wram_bytes: lowered.kernel.wram_bytes,
        };
        Ok(SimResult { output, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DpuCounters;
    use atim_passes::pipeline::{optimize_kernel, OptLevel};
    use atim_tir::buffer::MemScope;
    use atim_tir::compute::ComputeDef;
    use atim_tir::schedule::{Attach, Binding, Schedule};

    fn inputs_for(def: &ComputeDef) -> Vec<Vec<f32>> {
        (0..def.inputs.len())
            .map(|t| {
                (0..def.input_len(t))
                    .map(|i| ((i * 3 + t) % 9) as f32 - 4.0)
                    .collect()
            })
            .collect()
    }

    fn mtv_schedule(
        m: i64,
        k: i64,
        dpus_i: i64,
        dpus_k: i64,
        tasklets: i64,
        cache: i64,
    ) -> Schedule {
        let def = ComputeDef::mtv("mtv", m, k);
        let mut sch = Schedule::new(def);
        let i = sch.loops_of_axis(0)[0];
        let kk = sch.loops_of_axis(1)[0];
        let (i_dpu, i_in) = sch.split(i, (m + dpus_i - 1) / dpus_i).unwrap();
        let (k_dpu, k_in) = sch.split(kk, (k + dpus_k - 1) / dpus_k).unwrap();
        sch.rfactor(k_dpu).unwrap();
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        sch.bind(k_dpu, Binding::DpuY).unwrap();
        let (i_t, i_c) = sch
            .split(i_in, ((m + dpus_i - 1) / dpus_i + tasklets - 1) / tasklets)
            .unwrap();
        sch.bind(i_t, Binding::Tasklet).unwrap();
        let (k_o, k_i) = sch.split(k_in, cache).unwrap();
        sch.reorder(&[i_dpu, k_dpu, i_t, i_c, k_o, k_i]).unwrap();
        sch.cache_read(0, Attach::At(k_o)).unwrap();
        sch.cache_read(1, Attach::At(k_o)).unwrap();
        sch.cache_write(Attach::At(i_c)).unwrap();
        sch.parallel_host(8);
        sch
    }

    #[test]
    fn full_simulation_matches_reference_and_reports_time() {
        let machine = UpmemMachine::new(UpmemConfig::small());
        let sch = mtv_schedule(32, 64, 4, 2, 2, 16);
        let def = sch.def().clone();
        let lowered = sch.lower().unwrap();
        let inputs = inputs_for(&def);
        let result = machine.run(&lowered, &inputs, SimMode::Full).unwrap();
        let expect = def.reference(&inputs);
        let got = result.output.unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-2, "{g} vs {e}");
        }
        let r = &result.report;
        assert!(r.kernel_s > 0.0);
        assert!(r.h2d_s > 0.0);
        assert!(r.d2h_s > 0.0);
        assert!(r.reduce_s > 0.0);
        assert_eq!(r.num_dpus, 8);
        assert!(r.instructions > 0);
        assert!(r.h2d_bytes > 0);
    }

    #[test]
    fn timing_only_mode_agrees_with_full_mode_on_kernel_time() {
        let machine = UpmemMachine::new(UpmemConfig::small());
        // Aligned shapes: every DPU does identical work, so the sampled
        // timing must match the exhaustive one exactly.
        let sch = mtv_schedule(32, 64, 4, 2, 2, 16);
        let def = sch.def().clone();
        let lowered = sch.lower().unwrap();
        let inputs = inputs_for(&def);
        let full = machine.run(&lowered, &inputs, SimMode::Full).unwrap();
        let fast = machine.run(&lowered, &[], SimMode::TimingOnly).unwrap();
        assert!(fast.output.is_none());
        let a = full.report.kernel_s;
        let b = fast.report.kernel_s;
        assert!((a - b).abs() / a < 1e-9, "kernel times differ: {a} vs {b}");
        assert_eq!(full.report.h2d_bytes, fast.report.h2d_bytes);
    }

    /// The acceptance pin of the bytecode fast path: identical reports (all
    /// latency components, counters and byte totals) from the optimized
    /// program and from the unoptimized reference — on aligned shapes,
    /// misaligned shapes (whose guarded kernels exercise hoisting and the
    /// summarizer fallback) and in both simulation modes.
    #[test]
    fn fastpath_reports_are_bit_identical_to_the_slow_path() {
        let machine = UpmemMachine::new(UpmemConfig::small());
        for (m, k) in [(32, 64), (70, 90), (33, 47)] {
            let sch = mtv_schedule(m, k, 4, 2, 2, 16);
            let def = sch.def().clone();
            let lowered = sch.lower().unwrap();
            let inputs = inputs_for(&def);
            for mode in [SimMode::Full, SimMode::TimingOnly] {
                let ins: &[Vec<f32>] = if mode == SimMode::Full { &inputs } else { &[] };
                let a = machine.run_reference(&lowered, ins, mode).unwrap();
                let b = machine.run(&lowered, ins, mode).unwrap();
                assert_eq!(
                    a.report, b.report,
                    "fastpath report diverges for {m}x{k} in {mode:?}"
                );
                assert_eq!(a.output, b.output, "fastpath output diverges for {m}x{k}");
            }
        }
    }

    /// Pins the cost of transfer simulation without a clock: the aligned
    /// MTV 4096×4096 on all 2048 DPUs moves its 32768 weight rows and 2048
    /// vector slices through a handful of tracer invocations (one bulk
    /// batch per nest), not one per row.
    #[test]
    fn aligned_transfer_nests_reach_the_tracer_in_a_handful_of_calls() {
        /// Forwards to the real counters, counting every invocation (host
        /// programs emit no event kind beyond these).
        #[derive(Default)]
        struct Counted {
            counters: TransferCounters,
            invocations: u64,
        }
        impl Tracer for Counted {
            fn alu(&mut self, _n: usize) {
                self.invocations += 1;
            }
            fn loop_enter(&mut self) {
                self.invocations += 1;
            }
            fn loop_iter(&mut self) {
                self.invocations += 1;
                self.counters.loop_iter();
            }
            fn host_transfer(&mut self, dir: TransferDir, dpu: i64, bytes: usize, parallel: bool) {
                self.invocations += 1;
                self.counters.host_transfer(dir, dpu, bytes, parallel);
            }
            fn bulk(&mut self, events: &atim_tir::eval::BulkEvents) {
                self.invocations += 1;
                self.counters.bulk(events);
            }
        }

        let lowered = mtv_schedule(4096, 4096, 256, 8, 16, 64).lower().unwrap();
        assert_eq!(lowered.grid.num_dpus(), 2048);
        for (program, calls, bytes) in [
            (&lowered.h2d_setup, 2048 * 16, 4096 * 4096 * 4),
            (&lowered.h2d, 2048, 2048 * 512 * 4),
        ] {
            let mut seen = Counted::default();
            CompiledRunner::new(&CompiledProgram::compile(program).optimize())
                .run(&mut MemoryStore::new(), &mut seen, ExecMode::TimingOnly)
                .unwrap();
            let mut reference = TransferCounters::default();
            CompiledRunner::new(&CompiledProgram::compile(program))
                .run(
                    &mut MemoryStore::new(),
                    &mut reference,
                    ExecMode::TimingOnly,
                )
                .unwrap();
            assert_eq!(seen.counters, reference);
            assert_eq!((reference.h2d_calls, reference.h2d_bytes), (calls, bytes));
            assert!(seen.invocations < 64, "{} invocations", seen.invocations);
        }
    }

    /// Pins the cost of kernel simulation without a clock: the ledger's
    /// worst RED 2^20 candidate (`reduce_dpus=4, tasklets=20,
    /// cache_elems=2`, cached), whose tightened chunk loop
    /// `min(2, E − origin)` once interpreted ~13 M instructions per
    /// measurement, reaches the DPU tracer in under 256 invocations on
    /// every DPU — one bulk piece per tasklet plus the last tasklet's tail —
    /// with the reference's counters.
    #[test]
    fn tail_clamped_red_kernel_reaches_the_tracer_in_a_bounded_number_of_calls() {
        /// Forwards to the real counters, counting every invocation.
        #[derive(Default)]
        struct Counted {
            counters: DpuCounters,
            invocations: u64,
        }
        impl Tracer for Counted {
            fn alu(&mut self, n: usize) {
                self.invocations += 1;
                self.counters.alu(n);
            }
            fn load(&mut self, scope: MemScope, bytes: usize) {
                self.invocations += 1;
                self.counters.load(scope, bytes);
            }
            fn store(&mut self, scope: MemScope, bytes: usize) {
                self.invocations += 1;
                self.counters.store(scope, bytes);
            }
            fn branch(&mut self, taken: bool) {
                self.invocations += 1;
                self.counters.branch(taken);
            }
            fn loop_enter(&mut self) {
                self.invocations += 1;
                self.counters.loop_enter();
            }
            fn loop_iter(&mut self) {
                self.invocations += 1;
                self.counters.loop_iter();
            }
            fn dma(&mut self, bytes: usize) {
                self.invocations += 1;
                self.counters.dma(bytes);
            }
            fn barrier(&mut self) {
                self.invocations += 1;
                self.counters.barrier();
            }
            fn bulk(&mut self, events: &atim_tir::eval::BulkEvents) {
                self.invocations += 1;
                self.counters.bulk(events);
            }
        }

        let n = 1 << 20;
        let mut sch = Schedule::new(ComputeDef::red("red", n));
        let i = sch.loops_of_axis(0)[0];
        let (r_dpu, r_in) = sch.split(i, n / 4).unwrap();
        sch.rfactor(r_dpu).unwrap();
        sch.bind(r_dpu, Binding::DpuY).unwrap();
        let (t, rest) = sch.split(r_in, (n / 4 + 19) / 20).unwrap();
        sch.bind(t, Binding::Tasklet).unwrap();
        let (chunk, elem) = sch.split(rest, 2).unwrap();
        sch.reorder(&[r_dpu, t, chunk, elem]).unwrap();
        sch.cache_read(0, Attach::At(chunk)).unwrap();
        sch.parallel_host(8);
        let mut lowered = sch.lower().unwrap();
        let (kernel, _) = optimize_kernel(lowered.kernel.body.clone(), OptLevel::DmaLtBh);
        lowered.kernel.body = kernel;

        let optimized = CompiledProgram::compile(&lowered.kernel.body).optimize();
        let reference = CompiledProgram::compile(&lowered.kernel.body);
        let grid = lowered.grid.enumerate();
        assert_eq!(grid.len(), 4);
        for (linear, coords) in grid {
            let run = |program: &CompiledProgram, tracer: &mut dyn Tracer| {
                let mut runner = CompiledRunner::new(program);
                runner.set_dpu(linear);
                for (dim, coord) in lowered.grid.dims.iter().zip(&coords) {
                    runner.bind(&dim.var, *coord);
                }
                runner
                    .run(&mut MemoryStore::new(), tracer, ExecMode::TimingOnly)
                    .unwrap();
            };
            let mut seen = Counted::default();
            run(&optimized, &mut seen);
            let mut expect = DpuCounters::default();
            run(&reference, &mut expect);
            assert_eq!(seen.counters, expect, "DPU {linear}");
            // 2^18 elements per DPU, two per chunk-loop iteration.
            assert!(expect.dma_requests >= (n / 8) as u64, "{expect:?}");
            assert!(
                seen.invocations < 256,
                "DPU {linear}: {} invocations",
                seen.invocations
            );
        }

        let machine = UpmemMachine::default();
        let fast = machine.run(&lowered, &[], SimMode::TimingOnly).unwrap();
        let slow = machine
            .run_reference(&lowered, &[], SimMode::TimingOnly)
            .unwrap();
        assert_eq!(fast.report, slow.report);
    }

    #[test]
    fn too_many_dpus_is_an_error() {
        let machine = UpmemMachine::new(UpmemConfig::small()); // 16 DPUs
        let def = ComputeDef::va("va", 1 << 14);
        let mut sch = Schedule::new(def);
        let i = sch.loop_refs()[0];
        let (i_dpu, _) = sch.split(i, 8).unwrap(); // 2048 DPUs
        sch.bind(i_dpu, Binding::DpuX).unwrap();
        let lowered = sch.lower().unwrap();
        assert!(machine.run(&lowered, &[], SimMode::TimingOnly).is_err());
    }

    #[test]
    fn wrong_input_count_is_an_error() {
        let machine = UpmemMachine::new(UpmemConfig::small());
        let sch = mtv_schedule(16, 16, 2, 2, 2, 4);
        let lowered = sch.lower().unwrap();
        assert!(machine.run(&lowered, &[], SimMode::Full).is_err());
    }

    #[test]
    fn more_tasklets_speed_up_the_kernel() {
        let machine = UpmemMachine::new(UpmemConfig::small());
        let slow = mtv_schedule(64, 64, 2, 1, 1, 16);
        let fast = mtv_schedule(64, 64, 2, 1, 8, 16);
        let r1 = machine
            .run(&slow.lower().unwrap(), &[], SimMode::TimingOnly)
            .unwrap();
        let r2 = machine
            .run(&fast.lower().unwrap(), &[], SimMode::TimingOnly)
            .unwrap();
        assert!(r2.report.kernel_s < r1.report.kernel_s);
    }
}
