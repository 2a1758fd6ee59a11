//! The session-based public API: one [`Session`] per target machine, built
//! once and reused across compiles, tuning runs and executions.
//!
//! A session ties a [`Backend`] (how candidates are compiled/timed/executed
//! — the simulator by default, an analytic model for tests, anything
//! user-provided for real hardware) to the autotuning stack.  Tuning
//! follows the paper's "search ~1000 trials once, then reuse the tuned
//! program" workflow end to end:
//!
//! * [`Session::tune`] — blocking search, validated options, typed errors.
//! * [`Session::tune_observed`] — the same search under a
//!   [`Budget`] (trials / wall-clock / early-stop) with streaming
//!   [`TuningObserver`] callbacks.
//! * [`Session::tune_warm`] — resume from a [`TuneLog`]: known
//!   measurements are answered from the log, only new candidates touch the
//!   backend.
//! * [`Session::replay`] — skip searching entirely: rebuild the
//!   [`TunedModule`] a saved log describes (tune once, serve many).
//! * [`Session::tune_cached`] / [`Session::cached`] — the fleet-wide form
//!   of replay: resolve an already-tuned `(workload, shape, machine,
//!   generator)` key from a persistent
//!   [`ScheduleCache`] without a single
//!   measurement, and record fresh tuning wins back into it.  Ship the
//!   cache file with your program (`ATIM_SCHEDULE_CACHE`) and cold start
//!   becomes a lookup.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use atim_autotune::log::TuneLog;
use atim_autotune::session::{Budget, NullObserver, TuningError, TuningObserver, TuningSession};
use atim_autotune::{
    CacheEntry, CacheKey, CostModelKind, MemoMeasurer, ScheduleCache, ScheduleConfig,
    SpaceGenerator, Trace, TuningOptions, TuningResult, UpmemSketchGenerator,
};
use atim_model::GbdtModel;
use atim_sim::{ExecutionReport, SimResult, UpmemConfig};
use atim_tir::compute::ComputeDef;
use atim_tir::error::{Result as TirResult, TirError};

use crate::backend::{Backend, SimBackend};
use crate::compiler::{CompileOptions, CompiledModule};
use crate::measure::BackendMeasurer;
use crate::tuned::TunedModule;

/// Errors surfaced by session-level operations that span tuning and
/// compilation.
#[derive(Debug)]
pub enum SessionError {
    /// The tuning options were inconsistent (caught at session start).
    Tuning(TuningError),
    /// Compilation or execution failed.
    Tir(TirError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Tuning(e) => write!(f, "{e}"),
            SessionError::Tir(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<TuningError> for SessionError {
    fn from(e: TuningError) -> Self {
        SessionError::Tuning(e)
    }
}

impl From<TirError> for SessionError {
    fn from(e: TirError) -> Self {
        SessionError::Tir(e)
    }
}

/// Builder for [`Session`].
///
/// `hardware` and `compile_options` configure the default simulator
/// backend; providing an explicit [`SessionBuilder::backend`] overrides
/// both (the backend then defines the machine it measures on).
#[derive(Default)]
pub struct SessionBuilder {
    hw: Option<UpmemConfig>,
    compile_options: Option<CompileOptions>,
    backend: Option<Arc<dyn Backend>>,
    measure_threads: Option<usize>,
    generator: Option<Arc<dyn SpaceGenerator>>,
    cache_path: Option<PathBuf>,
    cache: Option<Arc<Mutex<ScheduleCache>>>,
    cost_model: Option<CostModelKind>,
    pretrained: Option<GbdtModel>,
    pretrained_path: Option<PathBuf>,
}

impl SessionBuilder {
    /// Targets a machine configuration (default: the paper's 2048-DPU
    /// UPMEM server).
    pub fn hardware(mut self, hw: UpmemConfig) -> Self {
        self.hw = Some(hw);
        self
    }

    /// Sets the compile options applied to every module (default: all three
    /// PIM-aware passes plus rank-parallel transfers).
    pub fn compile_options(mut self, options: CompileOptions) -> Self {
        self.compile_options = Some(options);
        self
    }

    /// Sets an explicit worker-thread count for the default simulator
    /// backend (1 = sequential; `build` panics on 0, matching the
    /// fail-loudly `ATIM_MEASURE_THREADS` contract).  Ignored when a
    /// custom backend is given.
    pub fn measure_threads(mut self, threads: usize) -> Self {
        self.measure_threads = Some(threads);
        self
    }

    /// Plugs in a custom measurement backend, replacing the default
    /// simulator (and any `hardware`/`compile_options` set on the builder).
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backend = Some(Arc::new(backend));
        self
    }

    /// Like [`SessionBuilder::backend`] for an already-shared backend.
    pub fn backend_arc(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Plugs in a custom schedule-space generator, replacing the default
    /// UPMEM sketch: every tuning run of the session proposes candidates
    /// from this generator's sketches.
    pub fn space_generator(mut self, generator: impl SpaceGenerator + 'static) -> Self {
        self.generator = Some(Arc::new(generator));
        self
    }

    /// Like [`SessionBuilder::space_generator`] for an already-shared
    /// generator.
    pub fn space_generator_arc(mut self, generator: Arc<dyn SpaceGenerator>) -> Self {
        self.generator = Some(generator);
        self
    }

    /// Attaches a persistent [`ScheduleCache`] backed by `path`: tuning
    /// wins are appended there, and [`Session::cached`] /
    /// [`Session::tune_cached`] resolve hits from it without measuring.
    /// The file is created on the first recorded win; a missing file is an
    /// empty cache, not an error.
    pub fn schedule_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Like [`SessionBuilder::schedule_cache`] for an already-loaded,
    /// shared cache (the tuning server shares one across sessions).
    pub fn schedule_cache_shared(mut self, cache: Arc<Mutex<ScheduleCache>>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Selects the cost estimator every tuning run of the session ranks
    /// candidates with: the resident ridge regression (the default) or the
    /// gradient-boosted trees from `atim-model`.  When not set explicitly,
    /// the `ATIM_COST_MODEL` environment variable chooses (`build` panics
    /// loudly on an invalid value, matching the `ATIM_MEASURE_THREADS`
    /// contract).
    pub fn cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost_model = Some(kind);
        self
    }

    /// Warm-starts every tuning run from a pretrained gradient-boosted
    /// model (implies [`CostModelKind::Gbdt`]): the search ranks its very
    /// first round with the transferred model instead of a cold estimator,
    /// and online per-round updates refine a per-run copy.  Train one with
    /// the `atim-train` binary on a TuneLog corpus.
    pub fn pretrained_cost_model(mut self, model: GbdtModel) -> Self {
        self.pretrained = Some(model);
        self.cost_model = Some(CostModelKind::Gbdt);
        self
    }

    /// Like [`SessionBuilder::pretrained_cost_model`], loading the model
    /// from a file saved by `atim-train` / [`GbdtModel::save`] at `build`
    /// time (panicking loudly when the file is unreadable or corrupt).
    pub fn pretrained_cost_model_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.pretrained_path = Some(path.into());
        self.cost_model = Some(CostModelKind::Gbdt);
        self
    }

    /// Builds the session.
    ///
    /// When no cache was configured explicitly, the `ATIM_SCHEDULE_CACHE`
    /// environment variable names the cache file to attach (the "ship the
    /// cache with your program" mode).  When no space generator was
    /// configured explicitly, the `ATIM_SPACE_GENERATOR` environment
    /// variable selects one of the resident generators (`upmem`, `tiled`,
    /// `hw-native`); unset keeps the UPMEM sketch default.
    ///
    /// # Panics
    /// Panics when the default simulator backend is constructed while
    /// `ATIM_MEASURE_THREADS` holds an invalid value (zero or non-numeric),
    /// when no cost model was chosen explicitly and `ATIM_COST_MODEL` holds
    /// an invalid value, when no space generator was chosen explicitly and
    /// `ATIM_SPACE_GENERATOR` holds an unknown id, when a configured
    /// pretrained model file cannot be read or parsed, or when a configured
    /// cache file exists but cannot be read or parsed — corrupt
    /// configuration fails loudly rather than silently tuning with
    /// something else.
    pub fn build(self) -> Session {
        let cost_model = match self.cost_model {
            Some(kind) => kind,
            None => CostModelKind::from_env()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or_default(),
        };
        let pretrained = match (self.pretrained, self.pretrained_path) {
            (Some(model), _) => Some(Arc::new(model)),
            (None, Some(path)) => {
                let model = GbdtModel::load(&path).unwrap_or_else(|e| {
                    panic!(
                        "pretrained cost model {} is unreadable: {e}",
                        path.display()
                    )
                });
                Some(Arc::new(model))
            }
            (None, None) => None,
        };
        let backend = match self.backend {
            Some(backend) => backend,
            None => {
                let hw = self.hw.unwrap_or_default();
                let options = self.compile_options.unwrap_or_default();
                Arc::new(match self.measure_threads {
                    Some(threads) => SimBackend::with_threads(hw, options, threads),
                    None => SimBackend::new(hw, options),
                })
            }
        };
        let cache = match (self.cache, self.cache_path) {
            (Some(cache), _) => Some(cache),
            (None, Some(path)) => {
                let cache = ScheduleCache::open(&path).unwrap_or_else(|e| {
                    panic!("schedule cache {} is unreadable: {e}", path.display())
                });
                Some(Arc::new(Mutex::new(cache)))
            }
            (None, None) => ScheduleCache::from_env()
                .unwrap_or_else(|e| {
                    panic!(
                        "schedule cache named by {} is unreadable: {e}",
                        atim_autotune::SCHEDULE_CACHE_ENV
                    )
                })
                .map(|c| Arc::new(Mutex::new(c))),
        };
        let generator = match self.generator {
            Some(generator) => generator,
            None => atim_autotune::generator_from_env()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or_else(|| Arc::new(UpmemSketchGenerator)),
        };
        Session {
            backend,
            generator,
            cache,
            cost_model,
            pretrained,
        }
    }
}

/// The ATiM compiler + autotuner + runtime session for one target machine.
///
/// Cloning is cheap (the backend is shared), and every method takes
/// `&self`, so one session can serve many workloads — or many threads —
/// concurrently.
#[derive(Clone)]
pub struct Session {
    backend: Arc<dyn Backend>,
    generator: Arc<dyn SpaceGenerator>,
    cache: Option<Arc<Mutex<ScheduleCache>>>,
    cost_model: CostModelKind,
    pretrained: Option<Arc<GbdtModel>>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend.name())
            .field("dpus", &self.backend.hardware().total_dpus())
            .finish()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new(UpmemConfig::default())
    }
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Creates a session on the default simulator backend for a machine.
    ///
    /// # Panics
    /// Panics when `ATIM_MEASURE_THREADS` holds an invalid value (zero or
    /// non-numeric).
    pub fn new(hw: UpmemConfig) -> Self {
        Session::builder().hardware(hw).build()
    }

    /// Creates a session with explicit compile options (used by the
    /// ablation benchmarks).
    pub fn with_options(hw: UpmemConfig, compile_options: CompileOptions) -> Self {
        Session::builder()
            .hardware(hw)
            .compile_options(compile_options)
            .build()
    }

    /// The target machine configuration.
    pub fn hardware(&self) -> &UpmemConfig {
        self.backend.hardware()
    }

    /// The compile options applied to every module.
    pub fn compile_options(&self) -> CompileOptions {
        self.backend.compile_options()
    }

    /// The measurement backend.
    pub fn backend(&self) -> &dyn Backend {
        &*self.backend
    }

    /// The schedule-space generator tuning runs propose candidates from.
    pub fn space_generator(&self) -> &Arc<dyn SpaceGenerator> {
        &self.generator
    }

    /// The cost estimator kind tuning runs rank candidates with.
    pub fn cost_model(&self) -> CostModelKind {
        self.cost_model
    }

    /// The pretrained gradient-boosted model tuning runs warm-start from,
    /// if one was configured.
    pub fn pretrained_cost_model(&self) -> Option<&Arc<GbdtModel>> {
        self.pretrained.as_ref()
    }

    /// Builds one run's [`TuningSession`], attaching the selected cost
    /// estimator (each run boosts a private copy of any pretrained model,
    /// so concurrent runs never share mutable estimator state).
    fn tuning_session(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
    ) -> Result<TuningSession, TuningError> {
        let session = TuningSession::with_generator(
            def,
            self.hardware(),
            options,
            Arc::clone(&self.generator),
        )?;
        Ok(match self.cost_model {
            CostModelKind::Ridge => session,
            CostModelKind::Gbdt => {
                let model = self
                    .pretrained
                    .as_ref()
                    .map(|m| (**m).clone())
                    .unwrap_or_default();
                session.with_cost_estimator(Box::new(model))
            }
        })
    }

    /// The attached schedule cache, if any.
    pub fn schedule_cache(&self) -> Option<&Arc<Mutex<ScheduleCache>>> {
        self.cache.as_ref()
    }

    /// The cache coordinates of a workload on this session: its kind and
    /// exact shape, the backend's machine fingerprint, and the space
    /// generator's id.  Two sessions produce the same key exactly when a
    /// schedule tuned on one is valid and optimal-as-measured on the other.
    pub fn cache_key(&self, def: &ComputeDef) -> CacheKey {
        CacheKey::new(def, self.backend.fingerprint(), self.generator.name())
    }

    /// Resolves a workload straight from the attached [`ScheduleCache`],
    /// performing **zero** candidate measurements: on a hit the cached
    /// best trace is re-materialized through the session's generator and
    /// wrapped in a [`TunedModule`] carrying the cached latency.  `None`
    /// when no cache is attached, the key misses, or the cached trace no
    /// longer materializes for `def` (a stale entry is a miss, not an
    /// error).
    ///
    /// Hits are structure-verified: an entry whose generator id matches
    /// but whose trace carries a different decision-site skeleton than
    /// this session's generator produces for `def` (a generator-id
    /// collision, or an entry written by an incompatible generator
    /// version) is reported on stderr and treated as a miss, never
    /// silently re-materialized.
    pub fn cached(&self, def: &ComputeDef) -> Option<TunedModule> {
        let cache = self.cache.as_ref()?;
        let key = self.cache_key(def);
        let expected = self
            .generator
            .sketches(def, self.hardware())
            .first()
            .map(atim_autotune::sketch_structure_hash);
        let entry = {
            let cache = cache.lock().expect("schedule cache poisoned");
            let entry = match &expected {
                Some(expected) => match cache.lookup_verified(&key, expected) {
                    Ok(entry) => entry,
                    Err(e) => {
                        eprintln!("atim: schedule cache entry rejected: {e}");
                        None
                    }
                },
                None => cache.lookup(&key),
            };
            entry?.clone()
        };
        let trace = self
            .generator
            .materialize(&entry.trace, def, self.hardware())
            .ok()?;
        let result = TuningResult {
            best: Some((trace, entry.latency_s)),
            history: Vec::new(),
            measured: 0,
            failed: 0,
            rejected: 0,
        };
        Some(TunedModule::new(def.clone(), result, self.hardware()))
    }

    /// Tunes through the cache: a hit returns immediately (zero
    /// measurements, see [`Session::cached`]); a miss runs the full search
    /// and records the win back into the cache for every later process.
    ///
    /// # Errors
    /// Returns a [`TuningError`] when `options` is inconsistent.
    pub fn tune_cached(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
    ) -> Result<TunedModule, TuningError> {
        self.tune_cached_observed(def, options, &Budget::unlimited(), &mut NullObserver)
    }

    /// [`Session::tune_cached`] under a [`Budget`] with streaming
    /// [`TuningObserver`] callbacks.  Cache hits return before the observer
    /// sees a single trial.
    ///
    /// # Errors
    /// Returns a [`TuningError`] when `options` is inconsistent.
    pub fn tune_cached_observed(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
        budget: &Budget,
        observer: &mut dyn TuningObserver,
    ) -> Result<TunedModule, TuningError> {
        atim_autotune::validate_options(options)?;
        if let Some(hit) = self.cached(def) {
            return Ok(hit);
        }
        self.tune_observed(def, options, budget, observer)
    }

    /// Records a tuning result's best schedule into the attached cache (a
    /// no-op without one, or when the result found nothing).  Cache I/O
    /// failures are reported on stderr but never fail the tuning run that
    /// produced the result.
    fn record_best(&self, def: &ComputeDef, seed: u64, result: &TuningResult) {
        let (Some(cache), Some((trace, latency_s))) = (self.cache.as_ref(), result.best.as_ref())
        else {
            return;
        };
        let entry = CacheEntry {
            key: self.cache_key(def),
            trace: trace.clone(),
            latency_s: *latency_s,
            seed,
        };
        if let Err(e) = cache.lock().expect("schedule cache poisoned").record(entry) {
            eprintln!("atim: schedule cache write failed (result kept in memory): {e}");
        }
    }

    /// Compiles a candidate trace for a computation.
    ///
    /// # Errors
    /// Propagates trace application and lowering errors.
    pub fn compile(&self, trace: &Trace, def: &ComputeDef) -> TirResult<CompiledModule> {
        self.backend.compile(trace, def)
    }

    /// Compiles a knob-vector configuration — the convenience form of
    /// [`Session::compile`] for fixed baseline configs.
    ///
    /// # Errors
    /// Propagates schedule instantiation and lowering errors.
    pub fn compile_config(
        &self,
        config: &ScheduleConfig,
        def: &ComputeDef,
    ) -> TirResult<CompiledModule> {
        self.backend.compile(&config.to_trace(def), def)
    }

    /// Times a compiled module without moving tensor data.
    ///
    /// # Errors
    /// Fails if the module exceeds the machine's resources.
    pub fn time(&self, module: &CompiledModule) -> TirResult<ExecutionReport> {
        self.backend.time(module)
    }

    /// Executes a compiled module with real data.
    ///
    /// # Errors
    /// Propagates runtime errors (resource limits, bad input shapes).
    pub fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> TirResult<SimResult> {
        self.backend.execute(module, inputs)
    }

    /// Measures the end-to-end latency of a candidate trace, or `None` for
    /// candidates that fail to compile or run.
    pub fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        self.backend.measure(trace, def)
    }

    /// Measures a knob-vector configuration — the convenience form of
    /// [`Session::measure`] for fixed baseline configs.
    pub fn measure_config(&self, config: &ScheduleConfig, def: &ComputeDef) -> Option<f64> {
        self.backend.measure(&config.to_trace(def), def)
    }

    /// Runs the full autotuning flow for a computation — the blocking
    /// convenience form of [`Session::tune_observed`].
    ///
    /// # Errors
    /// Returns a [`TuningError`] when `options` is inconsistent; the
    /// options are validated before any search work happens.
    pub fn tune(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
    ) -> Result<TunedModule, TuningError> {
        self.tune_observed(def, options, &Budget::unlimited(), &mut NullObserver)
    }

    /// Runs the autotuning flow under a [`Budget`] with streaming
    /// [`TuningObserver`] callbacks (one `on_trial` per measured
    /// candidate).
    ///
    /// Measurement goes through the session's backend one round-sized batch
    /// of jobs at a time, behind a cross-round `trace → latency` memo, so
    /// re-proposed candidates never re-measure.
    ///
    /// # Errors
    /// Returns a [`TuningError`] when `options` is inconsistent.
    pub fn tune_observed(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
        budget: &Budget,
        observer: &mut dyn TuningObserver,
    ) -> Result<TunedModule, TuningError> {
        self.search(def, options, HashMap::new(), budget, observer)
    }

    /// Runs the autotuning flow warm-started from a [`TuneLog`]: every
    /// measurement the log already contains is answered from it, so a
    /// search interrupted after *k* of *n* trials resumes for the remaining
    /// *n − k* — and, with the log's original options and seed, converges
    /// to the identical result an uninterrupted search would have found.
    ///
    /// # Errors
    /// Returns a [`TuningError`] when `options` is inconsistent.
    pub fn tune_warm(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
        log: &TuneLog,
        budget: &Budget,
        observer: &mut dyn TuningObserver,
    ) -> Result<TunedModule, TuningError> {
        self.search(def, options, log.memo(), budget, observer)
    }

    /// One search: the backend adapter behind the memo/dedup layer (seeded
    /// with `known` measurements), driven by a fresh [`TuningSession`]; the
    /// win is recorded into the attached cache.
    fn search(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
        known: HashMap<Trace, f64>,
        budget: &Budget,
        observer: &mut dyn TuningObserver,
    ) -> Result<TunedModule, TuningError> {
        let mut session = self.tuning_session(def, options)?;
        let mut backend =
            BackendMeasurer::new(self.backend(), def, self.generator.name(), options.seed);
        let mut measurer = MemoMeasurer::seeded(&mut backend, known);
        let result = session.run(&mut measurer, budget, observer);
        self.record_best(def, options.seed, &result);
        Ok(TunedModule::new(def.clone(), result, self.hardware()))
    }

    /// Replays a saved [`TuneLog`] straight to a [`TunedModule`] without
    /// re-searching — the "tune once, serve many" path.  The returned
    /// module carries the log's best configuration, latency and full
    /// history, exactly as the original tuning session produced them.
    pub fn replay(&self, def: &ComputeDef, log: &TuneLog) -> TunedModule {
        TunedModule::new(def.clone(), log.to_result(), self.hardware())
    }

    /// Convenience: tune, compile the best schedule and return both.
    ///
    /// # Errors
    /// Returns a [`SessionError`] for invalid options or a failing
    /// compilation of the winning configuration.
    pub fn tune_and_compile(
        &self,
        def: &ComputeDef,
        options: &TuningOptions,
    ) -> std::result::Result<(TunedModule, CompiledModule), SessionError> {
        let tuned = self.tune(def, options)?;
        let module = self.compile(tuned.best_trace(), def)?;
        Ok((tuned, module))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use atim_autotune::session::StopReason;
    use atim_autotune::TuningRecord;
    use atim_workloads::data::{generate_inputs, results_match};

    #[test]
    fn end_to_end_tune_compile_execute() {
        let session = Session::new(UpmemConfig::small());
        let def = ComputeDef::mtv("mtv", 120, 96);
        let options = TuningOptions {
            trials: 12,
            population: 12,
            measure_per_round: 6,
            ..TuningOptions::default()
        };
        let (tuned, module) = session.tune_and_compile(&def, &options).unwrap();
        assert!(tuned.best_latency_s().is_finite());
        assert!(tuned.measured() > 0);
        let inputs = generate_inputs(&def, 5);
        let run = session.execute(&module, &inputs).unwrap();
        let expect = def.reference(&inputs);
        assert!(results_match(run.output.as_ref().unwrap(), &expect, 96));
        assert!(run.report.total_s() > 0.0);
    }

    #[test]
    fn invalid_options_return_typed_errors_before_any_search() {
        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .build();
        let def = ComputeDef::mtv("mtv", 64, 64);
        let err = session
            .tune(
                &def,
                &TuningOptions {
                    trials: 0,
                    ..TuningOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, TuningError::ZeroTrials);
        let err = session
            .tune(
                &def,
                &TuningOptions {
                    measure_per_round: 100,
                    population: 10,
                    ..TuningOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, TuningError::MeasureExceedsPopulation { .. }));
    }

    #[test]
    fn pluggable_backend_drives_the_whole_session() {
        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .build();
        assert_eq!(session.backend().name(), "analytic");
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let tuned = session.tune(&def, &TuningOptions::quick()).unwrap();
        assert!(tuned.best_latency_s().is_finite());
        // The analytic optimum rewards DPU parallelism.
        assert!(tuned.best_trace().num_dpus() >= 64);
    }

    #[test]
    fn observer_streams_one_trial_callback_per_measurement() {
        #[derive(Default)]
        struct Count {
            trials: usize,
            finish: Option<StopReason>,
        }
        impl TuningObserver for Count {
            fn on_trial(&mut self, _record: &TuningRecord) {
                self.trials += 1;
            }
            fn on_finish(&mut self, _result: &atim_autotune::TuningResult, reason: StopReason) {
                self.finish = Some(reason);
            }
        }
        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .build();
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let mut obs = Count::default();
        let tuned = session
            .tune_observed(
                &def,
                &TuningOptions::quick(),
                &Budget::unlimited(),
                &mut obs,
            )
            .unwrap();
        assert_eq!(obs.trials, tuned.measured());
        assert_eq!(obs.finish, Some(StopReason::SearchComplete));
    }

    #[test]
    fn replay_reproduces_the_tuned_module_without_searching() {
        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .build();
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let options = TuningOptions::quick();
        let tuned = session.tune(&def, &options).unwrap();
        let log = TuneLog::new(&def.name, options.seed, tuned.result().clone());

        let reloaded = TuneLog::from_json_str(&log.to_json_string()).unwrap();
        let replayed = session.replay(&def, &reloaded);
        assert_eq!(replayed.best_config(), tuned.best_config());
        assert_eq!(replayed.best_latency_s(), tuned.best_latency_s());
        assert_eq!(replayed.history(), tuned.history());
    }

    /// Same seed ⇒ a parallel-measuring session and a sequential one
    /// produce an identical best configuration and an identical history
    /// (same configs, same latencies, same order).  This pins the
    /// slot-indexed batch contract end-to-end, not just for one batch.
    #[test]
    fn parallel_tuning_is_deterministic_and_matches_sequential() {
        let def = ComputeDef::mtv("mtv", 96, 64);
        let options = TuningOptions {
            trials: 12,
            population: 12,
            measure_per_round: 6,
            ..TuningOptions::default()
        };
        let sequential = Session::builder()
            .hardware(UpmemConfig::small())
            .measure_threads(1)
            .build()
            .tune(&def, &options)
            .unwrap();
        let parallel = Session::builder()
            .hardware(UpmemConfig::small())
            .measure_threads(4)
            .build()
            .tune(&def, &options)
            .unwrap();
        assert_eq!(sequential.best_config(), parallel.best_config());
        assert_eq!(
            sequential.history(),
            parallel.history(),
            "histories must be bit-identical"
        );
        assert_eq!(sequential.measured(), parallel.measured());
        assert_eq!(sequential.failed(), parallel.failed());
        assert_eq!(sequential.rejected(), parallel.rejected());
    }

    /// [`SimBackend`] with `time` — and so the default `measure` /
    /// `measure_jobs` built on it — answered by the unoptimized reference
    /// bytecode.
    struct ReferenceBackend(SimBackend);

    impl Backend for ReferenceBackend {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn hardware(&self) -> &UpmemConfig {
            self.0.hardware()
        }
        fn compile_options(&self) -> CompileOptions {
            self.0.compile_options()
        }
        fn time(&self, module: &CompiledModule) -> TirResult<ExecutionReport> {
            let machine = self.0.machine();
            Ok(machine
                .run_reference(&module.lowered, &[], atim_sim::SimMode::TimingOnly)?
                .report)
        }
        fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> TirResult<SimResult> {
            self.0.execute(module, inputs)
        }
    }

    /// Same seed ⇒ tuning through the bytecode fast path chooses the
    /// identical schedule with identical reported latencies as tuning on
    /// the unoptimized reference — the fast path only changes how fast the
    /// simulator produces each measurement.
    #[test]
    fn fastpath_tuning_is_bit_identical_to_the_slow_path() {
        let def = ComputeDef::mtv("mtv", 96, 64);
        let options = TuningOptions {
            trials: 10,
            population: 10,
            measure_per_round: 5,
            ..TuningOptions::default()
        };
        let backend = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 2);
        let tune = |session: Session| session.tune(&def, &options).unwrap();
        let slow = tune(
            Session::builder()
                .backend(ReferenceBackend(backend.clone()))
                .build(),
        );
        let fast = tune(Session::builder().backend(backend).build());
        assert_eq!(slow.best_config(), fast.best_config());
        assert_eq!(slow.best_latency_s(), fast.best_latency_s());
        assert_eq!(
            slow.history(),
            fast.history(),
            "histories must be bit-identical"
        );
        assert_eq!(slow.failed(), fast.failed());
        assert_eq!(slow.rejected(), fast.rejected());
    }

    /// Tuning with a cache attached persists the win; a fresh session on
    /// the same cache file resolves it with zero measurements and the
    /// identical best schedule and latency.
    #[test]
    fn cache_hits_resolve_without_measuring() {
        let path = std::env::temp_dir().join("atim_session_cache_hit_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let options = TuningOptions::quick();

        let tuned = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .schedule_cache(&path)
            .build()
            .tune(&def, &options)
            .unwrap();
        assert!(tuned.measured() > 0);

        let fresh = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .schedule_cache(&path)
            .build();
        let hit = fresh.cached(&def).expect("tuned key must hit");
        assert_eq!(hit.measured(), 0, "cache hits must not measure");
        assert!(hit.history().is_empty());
        assert_eq!(hit.best_config(), tuned.best_config());
        assert_eq!(hit.best_latency_s(), tuned.best_latency_s());

        // tune_cached on the same key is also a pure hit.
        let via_tune = fresh.tune_cached(&def, &options).unwrap();
        assert_eq!(via_tune.measured(), 0);
        assert_eq!(via_tune.best_latency_s(), tuned.best_latency_s());
        let _ = std::fs::remove_file(&path);
    }

    /// Different shapes, machines and generators occupy different cache
    /// slots: a hit for one key never leaks to a neighbouring one.
    #[test]
    fn cache_misses_on_any_differing_coordinate() {
        let path = std::env::temp_dir().join("atim_session_cache_miss_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .schedule_cache(&path)
            .build();
        session.tune_cached(&def, &TuningOptions::quick()).unwrap();

        // Same workload kind, different shape.
        let other_shape = ComputeDef::mtv("mtv", 512, 1024);
        assert!(session.cached(&other_shape).is_none());

        // Same shape, different machine.
        let other_machine = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::small()))
            .schedule_cache(&path)
            .build();
        assert!(other_machine.cached(&def).is_none());

        // Invalid options still fail before the cache answers.
        let err = session
            .tune_cached(
                &def,
                &TuningOptions {
                    trials: 0,
                    ..TuningOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, TuningError::ZeroTrials);
        let _ = std::fs::remove_file(&path);
    }

    /// A session on the tiled sketch generator tunes, records its win
    /// under the `"tiled"` cache coordinate, and a fresh session on the
    /// same generator resolves it without measuring — while the upmem
    /// generator's coordinate stays a miss (no cross-generator leakage).
    #[test]
    fn tiled_generator_sessions_cache_under_their_own_key() {
        use atim_autotune::TiledSketchGenerator;
        let path = std::env::temp_dir().join("atim_session_tiled_cache_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let options = TuningOptions::quick();

        let tuned = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .space_generator(TiledSketchGenerator::default())
            .schedule_cache(&path)
            .build()
            .tune(&def, &options)
            .unwrap();
        assert!(tuned.measured() > 0);

        let fresh = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .space_generator(TiledSketchGenerator::default())
            .schedule_cache(&path)
            .build();
        assert_eq!(fresh.cache_key(&def).generator, "tiled");
        let hit = fresh.cached(&def).expect("tuned key must hit");
        assert_eq!(hit.measured(), 0, "cache hits must not measure");
        assert_eq!(hit.best_latency_s(), tuned.best_latency_s());

        // The default (upmem) generator occupies a different slot.
        let upmem = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .schedule_cache(&path)
            .build();
        assert!(upmem.cached(&def).is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// An entry whose generator id matches but whose trace carries a
    /// foreign decision-site skeleton (a generator-id collision) is
    /// rejected by the structure-verified lookup: a miss, never a silent
    /// re-materialization of the wrong space's trace.
    #[test]
    fn cached_rejects_structure_collisions_under_a_matching_id() {
        use atim_autotune::TiledSketchGenerator;
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .space_generator(TiledSketchGenerator::default())
            .schedule_cache_shared(Arc::new(Mutex::new(ScheduleCache::new())))
            .build();

        // Forge a collision: the tiled session's key, an upmem-skeleton
        // trace (as if a foreign generator had claimed the id "tiled").
        let foreign = UpmemSketchGenerator
            .sketches(&def, session.hardware())
            .into_iter()
            .next()
            .unwrap();
        let entry = CacheEntry {
            key: session.cache_key(&def),
            trace: foreign,
            latency_s: 1e-3,
            seed: 0,
        };
        session
            .schedule_cache()
            .unwrap()
            .lock()
            .unwrap()
            .record(entry)
            .unwrap();
        assert!(
            session.cached(&def).is_none(),
            "a colliding skeleton must be a loud miss, not a hit"
        );
    }

    /// Ridge stays the default estimator; opting into the GBDT changes the
    /// session's ranking model but tuning stays fixed-seed deterministic.
    #[test]
    fn gbdt_cost_model_tunes_deterministically() {
        assert_eq!(
            Session::default().cost_model(),
            CostModelKind::Ridge,
            "ridge must stay the default"
        );
        let def = ComputeDef::mtv("mtv", 96, 64);
        let options = TuningOptions {
            trials: 12,
            population: 12,
            measure_per_round: 6,
            ..TuningOptions::default()
        };
        let tune = || {
            let session = Session::builder()
                .hardware(UpmemConfig::small())
                .cost_model(CostModelKind::Gbdt)
                .build();
            assert_eq!(session.cost_model(), CostModelKind::Gbdt);
            session.tune(&def, &options).unwrap()
        };
        let a = tune();
        let b = tune();
        assert_eq!(a.best_config(), b.best_config());
        assert_eq!(a.history(), b.history(), "histories must be bit-identical");
        assert_eq!(a.best_latency_s().to_bits(), b.best_latency_s().to_bits());
    }

    #[test]
    fn pretrained_cost_model_attaches_and_survives_reuse() {
        use atim_autotune::CostEstimator;
        use atim_model::GbdtParams;

        // A tiny pretrained model: any trained ensemble works here.
        let samples: Vec<([f64; atim_autotune::NUM_FEATURES], f64)> = (0..16)
            .map(|i| {
                let mut x = [0.0; atim_autotune::NUM_FEATURES];
                x[0] = (i % 4) as f64;
                (x, 1e-3 * (1.0 + x[0]))
            })
            .collect();
        let mut model = GbdtModel::new(GbdtParams::default());
        model.fit(&samples);
        assert!(model.is_trained());

        let session = Session::builder()
            .backend(AnalyticBackend::new(UpmemConfig::default()))
            .pretrained_cost_model(model)
            .build();
        assert_eq!(session.cost_model(), CostModelKind::Gbdt);
        let trees = session.pretrained_cost_model().unwrap().num_trees();

        // Two runs on different shapes both start from the same pretrained
        // model: per-run boosting must never mutate the shared copy.
        let quick = TuningOptions::quick();
        session
            .tune(&ComputeDef::mtv("mtv", 512, 512), &quick)
            .unwrap();
        session
            .tune(&ComputeDef::mtv("mtv", 1024, 256), &quick)
            .unwrap();
        assert_eq!(
            session.pretrained_cost_model().unwrap().num_trees(),
            trees,
            "runs boost private copies, not the shared pretrained model"
        );
    }

    #[test]
    fn sessions_are_cloneable_and_debuggable() {
        let session = Session::default();
        let clone = session.clone();
        assert_eq!(clone.hardware().total_dpus(), 2048);
        let dbg = format!("{session:?}");
        assert!(dbg.contains("upmem-sim"), "{dbg}");
    }
}
