//! Pluggable measurement backends: how a [`crate::Session`] compiles, times
//! and executes candidate schedules.
//!
//! The autotuner never cares *where* a latency number comes from — the
//! paper measures on UPMEM hardware, this reproduction measures on the
//! cycle-approximate simulator, tests use a closed-form analytic model, and
//! a future deployment could measure over the network on a real PIM box.
//! [`Backend`] is that seam: everything above it (sessions, tuning drivers,
//! logs, figure harnesses) is backend-agnostic.
//!
//! Two implementations ship in-tree:
//!
//! * [`SimBackend`] — the default: compiles with the PIM-aware passes and
//!   times candidates on the simulated UPMEM machine, fanning each batch of
//!   jobs across `std::thread::scope` workers (`ATIM_MEASURE_THREADS`).
//! * [`AnalyticBackend`] — a deterministic closed-form latency model with
//!   the same optimum shape as the simulator (more DPUs/tasklets and
//!   mid-sized WRAM tiles win).  It never interprets a kernel, so tuning
//!   against it is thousands of times faster — ideal for tests and for
//!   exercising the tuning loop itself.
//!
//! A backend measures in exactly two forms: [`Backend::measure`] times one
//! candidate in-process, and [`Backend::measure_jobs`] answers a batch of
//! routable [`MeasureJob`]s slot-aligned, checking the [`Cancellation`]
//! before each.  The tuner reaches the batch form through
//! [`crate::measure::BackendMeasurer`].

use std::sync::atomic::{AtomicUsize, Ordering};

use atim_autotune::{Cancellation, MeasureJob, MeasureOutcome, MeasureReport, Trace};
use atim_sim::{ExecutionReport, SimMode, SimResult, UpmemConfig, UpmemMachine};
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result;
use atim_tir::schedule::execute_functional;

use crate::compiler::{compile_trace, CompileOptions, CompiledModule};
use crate::measure::default_measure_threads;

/// Compiles, times and executes candidate schedules for one target machine.
///
/// Implementations must be `Send + Sync`: batch measurement fans out across
/// threads, and a [`crate::Session`] can be shared or cloned freely.
pub trait Backend: Send + Sync {
    /// A short human-readable backend name (for logs and diagnostics).
    fn name(&self) -> &str;

    /// The machine this backend targets.
    fn hardware(&self) -> &UpmemConfig;

    /// A stable identity of *what produces this backend's latencies*: the
    /// backend name plus the machine-configuration fingerprint.  This is the
    /// `machine` coordinate of a schedule-cache key
    /// ([`atim_autotune::CacheKey`]) — schedules tuned on the simulator for
    /// one machine must never be served for another machine, or for the
    /// analytic model's very different latency surface.
    ///
    /// The default derives the fingerprint from [`Backend::name`] and
    /// [`Backend::hardware`]; override it only when a backend's measurements
    /// depend on state outside its `UpmemConfig` (a remote fleet would mix
    /// in its worker identity, for example).
    fn fingerprint(&self) -> String {
        format!(
            "{}/{}",
            self.name(),
            atim_autotune::machine_fingerprint(self.hardware())
        )
    }

    /// The compile options applied to every module.
    fn compile_options(&self) -> CompileOptions;

    /// Compiles one candidate trace.
    ///
    /// # Errors
    /// Propagates trace application and lowering errors.
    fn compile(&self, trace: &Trace, def: &ComputeDef) -> Result<CompiledModule> {
        compile_trace(trace, def, self.compile_options(), self.hardware())
    }

    /// Times a compiled module without moving tensor data.
    ///
    /// # Errors
    /// Fails if the module exceeds the machine's resources.
    fn time(&self, module: &CompiledModule) -> Result<ExecutionReport>;

    /// Executes a compiled module with real data.
    ///
    /// # Errors
    /// Propagates runtime errors (resource limits, bad input shapes).
    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> Result<SimResult>;

    /// Measures the end-to-end latency of one candidate, or `None` when the
    /// candidate fails to compile or run — exactly the signal the autotuner
    /// expects for bad candidates.
    fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        let module = self.compile(trace, def).ok()?;
        self.time(&module).ok().map(|r| r.total_s())
    }

    /// Measures a batch of serializable [`MeasureJob`]s, one report per job
    /// **in input order**, each echoing its job's id.  `cancel` is checked
    /// before each job: once it triggers, the remaining jobs come back as
    /// [`MeasureOutcome::Skipped`] instead of being measured.
    ///
    /// A job carries the workload/generator/seed context a shared-nothing
    /// worker needs, so a dispatching backend (the fleet) can forward it to
    /// another process.  The default measures the already-materialized
    /// traces sequentially through [`Backend::measure`]; backends override
    /// it to parallelize or route.
    fn measure_jobs(
        &self,
        jobs: &[MeasureJob],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureReport> {
        jobs.iter()
            .map(|job| MeasureReport::new(job.id, measure_job(self, job, def, cancel)))
            .collect()
    }

    /// Worker-pool observability: how many workers are alive, how many jobs
    /// are in flight, how many were re-queued after a worker died.  `None`
    /// for purely in-process backends; the fleet backend reports its pool.
    fn fleet_stats(&self) -> Option<crate::fleet::FleetStats> {
        None
    }
}

/// One in-process job: [`MeasureOutcome::Skipped`] once `cancel` has
/// triggered, the job's trace through [`Backend::measure`] otherwise.
fn measure_job<B: Backend + ?Sized>(
    backend: &B,
    job: &MeasureJob,
    def: &ComputeDef,
    cancel: &Cancellation,
) -> MeasureOutcome {
    if cancel.cancelled() {
        MeasureOutcome::Skipped
    } else {
        MeasureOutcome::from_result(backend.measure(&job.trace, def))
    }
}

/// The default backend: the cycle-approximate UPMEM simulator.
///
/// `measure_jobs` fans the batch over a dynamic work queue of
/// `std::thread::scope` workers — candidates vary wildly in simulation cost
/// (the Fig. 15 spread), so static chunking would leave workers idle.
/// Results land in per-job slots, making parallel measurement bit-identical
/// to sequential measurement.
#[derive(Debug, Clone)]
pub struct SimBackend {
    options: CompileOptions,
    machine: UpmemMachine,
    threads: usize,
}

impl SimBackend {
    /// Creates a simulator backend with [`default_measure_threads`] workers.
    ///
    /// # Panics
    /// Panics when `ATIM_MEASURE_THREADS` is set to an invalid value (zero
    /// or non-numeric); see [`crate::measure::default_measure_threads`].
    pub fn new(hw: UpmemConfig, options: CompileOptions) -> Self {
        Self::with_threads(hw, options, default_measure_threads())
    }

    /// Creates a simulator backend with an explicit worker count
    /// (1 = sequential).
    ///
    /// # Panics
    /// Panics when `threads` is zero — the same fail-loudly contract as
    /// the `ATIM_MEASURE_THREADS` environment knob; pass 1 for sequential
    /// measurement.
    pub fn with_threads(hw: UpmemConfig, options: CompileOptions, threads: usize) -> Self {
        assert!(
            threads > 0,
            "SimBackend measurement thread count must be positive (use 1 for sequential)"
        );
        SimBackend {
            machine: UpmemMachine::new(hw),
            options,
            threads,
        }
    }

    /// Number of worker threads batches fan out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The simulated machine measurements run on.
    pub fn machine(&self) -> &UpmemMachine {
        &self.machine
    }
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::new(UpmemConfig::default(), CompileOptions::default())
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &str {
        "upmem-sim"
    }

    fn hardware(&self) -> &UpmemConfig {
        self.machine.config()
    }

    fn compile_options(&self) -> CompileOptions {
        self.options
    }

    fn time(&self, module: &CompiledModule) -> Result<ExecutionReport> {
        self.machine
            .run(&module.lowered, &[], SimMode::TimingOnly)
            .map(|result| result.report)
    }

    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> Result<SimResult> {
        self.machine.run(&module.lowered, inputs, SimMode::Full)
    }

    fn measure_jobs(
        &self,
        jobs: &[MeasureJob],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureReport> {
        // Every worker checks the cancellation before claiming the next
        // job, so a wall-clock deadline or a fired token stops the batch
        // within one in-flight candidate per worker.
        let workers = self.threads.min(jobs.len());
        let mut outcomes: Vec<MeasureOutcome> = vec![MeasureOutcome::Skipped; jobs.len()];
        if workers <= 1 {
            for (slot, job) in outcomes.iter_mut().zip(jobs) {
                *slot = measure_job(self, job, def, cancel);
            }
        } else {
            let next = AtomicUsize::new(0);
            let chunks: Vec<(usize, MeasureOutcome)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                let Some(job) = jobs.get(k) else { break };
                                local.push((k, measure_job(self, job, def, cancel)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("measurement worker panicked"))
                    .collect()
            });
            for (k, outcome) in chunks {
                outcomes[k] = outcome;
            }
        }
        jobs.iter()
            .zip(outcomes)
            .map(|(job, outcome)| MeasureReport::new(job.id, outcome))
            .collect()
    }
}

/// A deterministic analytic latency model — the pluggable stand-in backend
/// for tests, demos and search-quality studies.
///
/// The latency formula rewards DPU and tasklet parallelism, mid-sized WRAM
/// caching tiles and hierarchical reduction, and penalizes transfer volume
/// — the same qualitative optimum as the simulator, at closed-form cost.
/// Candidates requesting more DPUs or tasklets than the machine has fail to
/// "measure", mirroring the verifier/runtime rejection path.
///
/// `compile` and `execute` remain fully functional (real lowering, real
/// functional interpretation), so a session on this backend still produces
/// correct tensors; only the *timing* is synthetic.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    hw: UpmemConfig,
    options: CompileOptions,
}

impl AnalyticBackend {
    /// Creates an analytic backend for a machine.
    pub fn new(hw: UpmemConfig) -> Self {
        AnalyticBackend {
            hw,
            options: CompileOptions::default(),
        }
    }

    /// Creates an analytic backend with explicit compile options.
    pub fn with_options(hw: UpmemConfig, options: CompileOptions) -> Self {
        AnalyticBackend { hw, options }
    }

    /// The closed-form latency of one candidate (seconds), read off the
    /// trace's decisions.
    fn latency(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        if trace.num_dpus() > self.hw.total_dpus() as i64
            || trace.tasklets() > self.hw.max_tasklets as i64
            || trace.tasklets() < 1
        {
            return None;
        }
        let work = def.total_flops() as f64;
        let dpus = trace.num_dpus() as f64;
        // The DPU pipeline saturates at 11 tasklets, as on real UPMEM parts.
        let tasklets = trace.tasklets().min(11) as f64;
        let kernel = work / (dpus * tasklets);
        let cache_penalty = if trace.use_cache() {
            1.0 + (64.0 - trace.cache_elems() as f64).abs() / 256.0
        } else {
            20.0
        };
        let reduce_bonus = if trace.uses_rfactor() { 0.7 } else { 1.0 };
        let transfer = (def.total_bytes() as f64).sqrt() / 50.0 + dpus * 0.001;
        Some((kernel * cache_penalty * reduce_bonus + transfer) * 1e-6)
    }
}

impl Backend for AnalyticBackend {
    fn name(&self) -> &str {
        "analytic"
    }

    fn hardware(&self) -> &UpmemConfig {
        &self.hw
    }

    fn compile_options(&self) -> CompileOptions {
        self.options
    }

    fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        // Closed form only: no compilation, no interpretation.  Candidates
        // whose trace cannot even apply still count as failures.
        self.latency(trace, def)
            .filter(|_| trace.apply(def).is_ok())
    }

    fn time(&self, module: &CompiledModule) -> Result<ExecutionReport> {
        // Reconstruct an approximate report from the module shape: the
        // analytic model has no per-phase breakdown, so everything lands in
        // `kernel_s`.
        let def = module.def();
        let dpus = module.num_dpus().max(1);
        let work = def.total_flops() as f64;
        let kernel_s = (work / dpus as f64 + (def.total_bytes() as f64).sqrt() / 50.0) * 1e-6;
        Ok(ExecutionReport {
            kernel_s,
            num_dpus: dpus,
            ..ExecutionReport::default()
        })
    }

    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> Result<SimResult> {
        let output = execute_functional(&module.lowered, inputs)?;
        let report = self.time(module)?;
        Ok(SimResult {
            output: Some(output),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::BackendMeasurer;
    use atim_autotune::{Measurer, ScheduleConfig};
    use atim_workloads::data::{generate_inputs, results_match};

    /// One batch through the job path, as the tuner sends it.
    fn measure_all(
        backend: &dyn Backend,
        batch: &[Trace],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureOutcome> {
        BackendMeasurer::new(backend, def, "upmem", 0).measure(batch, cancel)
    }

    #[test]
    fn sim_backend_parallel_and_sequential_batches_agree() {
        let def = ComputeDef::mtv("mtv", 96, 64);
        let seq = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 1);
        let par = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 4);
        let base = ScheduleConfig::default_for(&def, seq.hardware());
        let batch: Vec<Trace> = (0..6)
            .map(|i| {
                ScheduleConfig {
                    spatial_dpus: vec![1 << (i % 4)],
                    tasklets: 1 + i,
                    ..base.clone()
                }
                .to_trace(&def)
            })
            .collect();
        let none = Cancellation::none();
        let sequential = measure_all(&seq, &batch, &def, &none);
        assert!(sequential
            .iter()
            .any(|o| matches!(o, MeasureOutcome::Measured(_))));
        assert_eq!(sequential, measure_all(&par, &batch, &def, &none));
    }

    #[test]
    fn sim_backend_batches_fill_every_slot_in_candidate_order() {
        let def = ComputeDef::mtv("mtv", 64, 48);
        let backend = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 3);
        let good = ScheduleConfig::default_for(&def, backend.hardware()).to_trace(&def);
        let bad = ScheduleConfig {
            spatial_dpus: vec![4096], // exceeds the 16-DPU small machine
            ..ScheduleConfig::default_for(&def, backend.hardware())
        }
        .to_trace(&def);
        let batch = [good.clone(), bad, good];
        let results = measure_all(&backend, &batch, &def, &Cancellation::none());
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0], MeasureOutcome::Measured(_)));
        assert_eq!(
            results[1],
            MeasureOutcome::Failed,
            "impossible candidate must fail"
        );
        assert_eq!(results[0], results[2], "duplicates measure identically");
    }

    #[test]
    fn cancelled_batches_skip_remaining_candidates() {
        use atim_autotune::CancelToken;
        let def = ComputeDef::mtv("mtv", 64, 48);
        let backend = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 2);
        let base = ScheduleConfig::default_for(&def, backend.hardware());
        let batch: Vec<Trace> = (0..4)
            .map(|i| {
                ScheduleConfig {
                    tasklets: 1 + i,
                    ..base.clone()
                }
                .to_trace(&def)
            })
            .collect();
        // A pre-fired token skips everything.
        let token = CancelToken::new();
        token.cancel();
        let cancel = Cancellation::new(Some(token), None);
        let outcomes = measure_all(&backend, &batch, &def, &cancel);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| *o == MeasureOutcome::Skipped));
        // No cancellation: every slot measured, matching one-at-a-time
        // measurement.
        let free = measure_all(&backend, &batch, &def, &Cancellation::none());
        for (outcome, trace) in free.iter().zip(&batch) {
            assert_eq!(
                *outcome,
                MeasureOutcome::from_result(backend.measure(trace, &def))
            );
        }
    }

    /// What the unoptimized reference bytecode measures for every candidate
    /// of a batch, in the tuner's outcome vocabulary.  Each candidate that
    /// runs is also checked report-for-report against the measured engine.
    fn reference_outcomes(
        backend: &SimBackend,
        batch: &[Trace],
        def: &ComputeDef,
    ) -> Vec<MeasureOutcome> {
        batch
            .iter()
            .map(|trace| {
                let reference = backend.compile(trace, def).and_then(|module| {
                    let machine = backend.machine();
                    let slow = machine.run_reference(&module.lowered, &[], SimMode::TimingOnly)?;
                    let fast = machine.run(&module.lowered, &[], SimMode::TimingOnly)?;
                    assert_eq!(slow.report, fast.report, "fastpath report diverges");
                    Ok(slow.report.total_s())
                });
                MeasureOutcome::from_result(reference.ok())
            })
            .collect()
    }

    /// The fast path must not change a single measurement: identical
    /// latencies for every candidate of a batch, measured engine vs the
    /// unoptimized reference.
    #[test]
    fn fastpath_measurements_are_bit_identical() {
        let def = ComputeDef::mtv("mtv", 96, 64);
        let backend = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 1);
        let base = ScheduleConfig::default_for(&def, backend.hardware());
        let batch: Vec<Trace> = (0..5)
            .map(|i| {
                ScheduleConfig {
                    spatial_dpus: vec![1 << (i % 4)],
                    tasklets: 1 + i,
                    cache_elems: 8 << (i % 3),
                    ..base.clone()
                }
                .to_trace(&def)
            })
            .collect();
        let slow_results = reference_outcomes(&backend, &batch, &def);
        assert!(slow_results
            .iter()
            .any(|o| matches!(o, MeasureOutcome::Measured(_))));
        assert_eq!(
            slow_results,
            measure_all(&backend, &batch, &def, &Cancellation::none())
        );
    }

    /// The fast-path follow-up from the roadmap: misaligned shapes lower to
    /// boundary-*guarded* kernel loops, which the timing-only summarizer now
    /// accepts when the guard is monotone affine.  The measurements must
    /// stay bit-identical to the unoptimized reference, and the guarded
    /// loops must actually be marked summarizable.
    #[test]
    fn fastpath_matches_slow_path_on_misaligned_gemv_and_summarizes_guards() {
        let def = ComputeDef::gemv("gemv", 97, 103, 1.5);
        let backend = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 1);
        let base = ScheduleConfig::default_for(&def, backend.hardware());
        // Odd tilings so every split is misaligned and boundary checks land
        // in the kernel.
        let batch: Vec<Trace> = [(4i64, 48i64), (8, 24), (2, 96), (4, 32)]
            .iter()
            .map(|&(dpus, cache)| {
                ScheduleConfig {
                    spatial_dpus: vec![dpus],
                    reduce_dpus: 2,
                    tasklets: 6,
                    cache_elems: cache,
                    ..base.clone()
                }
                .to_trace(&def)
            })
            .collect();
        let slow_results = reference_outcomes(&backend, &batch, &def);
        let fast_results = measure_all(&backend, &batch, &def, &Cancellation::none());
        assert!(slow_results
            .iter()
            .any(|o| matches!(o, MeasureOutcome::Measured(_))));
        assert_eq!(slow_results, fast_results, "fastpath must be bit-identical");

        // Without boundary-check hoisting the guards stay in the kernel —
        // and the summarizer must now accept (some of) those guarded loops.
        let unhoisted = CompileOptions {
            opt_level: atim_passes::OptLevel::NoOpt,
            parallel_transfer: true,
        };
        let module = compile_trace(&batch[0], &def, unhoisted, backend.hardware()).unwrap();
        let counts = module.lowered.kernel.body.count_nodes();
        assert!(
            counts.branches > 0,
            "a misaligned unhoisted GEMV kernel must contain boundary guards"
        );
        let program =
            atim_tir::eval::CompiledProgram::compile(&module.lowered.kernel.body).optimize();
        assert!(
            program.summarized_loops() >= 1,
            "boundary-guarded misaligned GEMV loops must be summarizable"
        );
    }

    /// Functional execution and timing-only measurement of one module agree
    /// on the machine shape and the kernel time, and the tensor is right.
    #[test]
    fn execute_and_time_agree_on_structure() {
        let def = ComputeDef::gemv("gemv", 96, 128, 1.5);
        let cfg = ScheduleConfig {
            spatial_dpus: vec![4],
            reduce_dpus: 2,
            tasklets: 4,
            cache_elems: 32,
            use_cache: true,
            unroll: false,
            host_threads: 2,
            parallel_transfer: true,
        };
        let module = crate::compiler::compile_config(
            &cfg,
            &def,
            CompileOptions::default(),
            &UpmemConfig::default(),
        )
        .unwrap();
        let backend = SimBackend::new(UpmemConfig::small(), CompileOptions::default());
        assert_eq!(backend.hardware().total_dpus(), 16);
        let inputs = generate_inputs(&def, 11);
        let run = backend.execute(&module, &inputs).unwrap();
        let expect = def.reference(&inputs);
        assert!(results_match(run.output.as_ref().unwrap(), &expect, 128));
        let timed = backend.time(&module).unwrap();
        assert_eq!(timed.num_dpus, run.report.num_dpus);
        assert!((timed.kernel_s - run.report.kernel_s).abs() / run.report.kernel_s < 1e-6);
    }

    #[test]
    fn analytic_backend_prefers_parallelism_and_rejects_oversubscription() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let backend = AnalyticBackend::new(UpmemConfig::default());
        let small = ScheduleConfig {
            spatial_dpus: vec![4],
            ..ScheduleConfig::default_for(&def, backend.hardware())
        };
        let large = ScheduleConfig {
            spatial_dpus: vec![512],
            ..small.clone()
        };
        let lat_small = backend.measure(&small.to_trace(&def), &def).unwrap();
        let lat_large = backend.measure(&large.to_trace(&def), &def).unwrap();
        assert!(lat_large < lat_small, "more DPUs must be faster");

        let impossible = ScheduleConfig {
            spatial_dpus: vec![4096],
            ..small
        };
        assert!(backend.measure(&impossible.to_trace(&def), &def).is_none());
    }

    #[test]
    fn analytic_backend_still_executes_correct_tensors() {
        let def = ComputeDef::mtv("mtv", 24, 36);
        let backend = AnalyticBackend::new(UpmemConfig::default());
        let cfg = ScheduleConfig::default_for(&def, backend.hardware());
        let module = backend.compile(&cfg.to_trace(&def), &def).unwrap();
        let inputs = generate_inputs(&def, 3);
        let run = backend.execute(&module, &inputs).unwrap();
        let expect = def.reference(&inputs);
        assert!(results_match(run.output.as_ref().unwrap(), &expect, 36));
        assert!(run.report.kernel_s > 0.0);
    }
}
