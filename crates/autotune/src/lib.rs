//! # atim-autotune — search-based code generation for UPMEM
//!
//! The autotuning framework of the ATiM paper (§5.2): it explores the
//! **joint search space** of host-side decisions (how tensors are tiled and
//! distributed across DPUs, whether reduction is hierarchical, how the host
//! post-processes) and kernel-side decisions (tasklet parallelism, WRAM
//! caching tile sizes and locations, unrolling).
//!
//! * [`trace`] — the search space's currency: [`trace::Trace`]s, ordered
//!   replayable lists of schedule primitives plus `Sample*` instructions
//!   carrying the recorded [`trace::Decision`]s (TVM MetaSchedule's
//!   trace-based design, extended with the UPMEM primitives).
//! * [`generator`] — pluggable [`generator::SpaceGenerator`]s emit sketch
//!   traces; [`generator::UpmemSketchGenerator`] reproduces ATiM's joint
//!   host/kernel sketch (Fig. 6) and is the default.
//! * [`space`] — the legacy [`space::ScheduleConfig`] knob vector, kept as
//!   the conversion layer (fixed baseline configs, v1-log shimming).
//! * [`job`] — the serializable measurement contract
//!   ([`job::MeasureJob`] / [`job::MeasureReport`]): a candidate plus the
//!   workload/generator/seed context a shared-nothing worker needs to
//!   measure it bit-identically, the unit the `atim-core` measurement
//!   fleet routes over the wire.
//! * [`verifier`] — the UPMEM code verifier (§5.2.4): rejects candidate
//!   traces that exceed WRAM/MRAM capacity, the tasklet limit or the DPU
//!   count before they are ever measured.
//! * [`cost_model`] — the learned cost models ranking candidates: a
//!   pluggable [`cost_model::CostEstimator`] seam with a resident ridge
//!   regression over trace-derived features (retrained from measured
//!   candidates each round); the `atim-model` crate plugs gradient-boosted
//!   trees into the same seam (`ATIM_COST_MODEL=gbdt`).
//! * [`search`] — the balanced evolutionary search (§5.2.3): decision
//!   mutation/crossover from a best-candidate database, balanced sampling
//!   of `rfactor`/non-`rfactor` design spaces in the early trials (keyed on
//!   each trace's rfactor decision), and an adaptive ε-greedy schedule.
//! * [`session`] — the resumable [`session::TuningSession`]: the same loop
//!   split into `next_batch`/`record_outcomes` steps, driven under a
//!   [`session::Budget`] (trials, wall-clock, early-stop) with streaming
//!   [`session::TuningObserver`] callbacks.
//! * [`tuner`] — the measurement contract and the blocking driver [`tune`]
//!   on top of the session: a [`tuner::Measurer`] turns one round's batch of
//!   traces into slot-aligned [`tuner::MeasureOutcome`]s, so the caller
//!   decides how candidates are timed (a `FnMut(&Trace) -> Option<f64>`
//!   closure is one; the `atim-core` crate's adapter measures each batch on
//!   the simulated UPMEM machine across worker threads or processes), and
//!   [`tuner::MemoMeasurer`] is the one memo/dedup/warm-start layer over it.
//! * [`json`] / [`log`] — dependency-free JSON persistence:
//!   [`log::TuneLog`] saves a search, reloads it in a fresh process, replays
//!   it straight to a result, or warm-starts a new search from its records.
//! * [`cache`] — the fleet-wide memo on top of the logs: a durable,
//!   concurrency-safe [`cache::ScheduleCache`] keyed on
//!   `(workload, shape, machine fingerprint, generator)` that resolves
//!   already-tuned workloads without a single measurement, and ships with
//!   your program (`ATIM_SCHEDULE_CACHE`).
//!
//! # Example
//!
//! An incremental tuning session against an analytic measurer (tests and
//! demos do exactly this; `atim-core` substitutes real simulated
//! measurements), persisted to a log and replayed:
//!
//! ```
//! use atim_autotune::log::TuneLog;
//! use atim_autotune::session::{Budget, NullObserver, TuningSession};
//! use atim_autotune::{MemoMeasurer, Trace, TuningOptions};
//! use atim_sim::UpmemConfig;
//! use atim_tir::compute::ComputeDef;
//!
//! let def = ComputeDef::mtv("mtv", 64, 64);
//! let hw = UpmemConfig::small();
//! let options = TuningOptions {
//!     trials: 8,
//!     population: 8,
//!     measure_per_round: 4,
//!     ..TuningOptions::default()
//! };
//! // Analytic stand-in: reward DPU parallelism (read off the trace's
//! // decisions; the simulator backend in `atim-core` compiles and runs the
//! // trace instead).
//! let mut measurer = |t: &Trace| Some(1.0 / t.num_dpus() as f64);
//! let mut session = TuningSession::new(&def, &hw, &options).unwrap();
//! let result = session.run(&mut measurer, &Budget::unlimited(), &mut NullObserver);
//! assert!(result.best.is_some());
//!
//! // The search is durable: encode, decode, and the result survives.
//! let log = TuneLog::new(&def.name, options.seed, result);
//! let reloaded = TuneLog::from_json_str(&log.to_json_string()).unwrap();
//! assert_eq!(reloaded.to_result().best, log.to_result().best);
//!
//! // Warm start: the same search over a memo seeded from the log re-drives
//! // the identical trajectory without measuring anything again.
//! let mut warm = MemoMeasurer::seeded(&mut measurer, reloaded.memo());
//! let mut session = TuningSession::new(&def, &hw, &options).unwrap();
//! let resumed = session.run(&mut warm, &Budget::unlimited(), &mut NullObserver);
//! assert_eq!(resumed.best, log.to_result().best);
//! assert_eq!(warm.fresh(), 0);
//! ```

pub mod cache;
pub mod cost_model;
pub mod generator;
pub mod job;
pub mod json;
pub mod log;
pub mod search;
pub mod session;
pub mod sketch;
pub mod space;
pub mod trace;
pub mod tuner;
pub mod verifier;

pub use cache::{
    append_entry, machine_fingerprint, sketch_structure_hash, CacheEntry, CacheError, CacheKey,
    ScheduleCache, SCHEDULE_CACHE_ENV,
};
pub use cost_model::{
    featurize, CostEstimator, CostModel, CostModelKind, COST_MODEL_ENV, NUM_FEATURES,
};
pub use generator::{SpaceGenerator, UpmemSketchGenerator};
pub use job::{MeasureJob, MeasureReport, EXEC_TIMING};
pub use json::{Json, JsonCodec, JsonError};
pub use log::{StreamingTuneLog, TuneLog, TuneLogError, TuneLogWriter};
pub use session::{
    validate_options, Budget, NullObserver, StopReason, TuningError, TuningObserver, TuningSession,
};
pub use sketch::{
    generator_from_env, resolve_generator, HardwareNativeGenerator, TiledSketchGenerator,
    HW_NATIVE_SKETCH, RESIDENT_GENERATOR_IDS, SPACE_GENERATOR_ENV, TILED_SKETCH,
};
pub use space::ScheduleConfig;
pub use trace::{Decision, Instruction, Trace};
pub use tuner::{
    tune, CancelToken, Cancellation, MeasureOutcome, Measurer, MemoMeasurer, TuningOptions,
    TuningRecord, TuningResult,
};
pub use verifier::{verify_trace, VerifyError};
