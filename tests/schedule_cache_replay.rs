//! Replay-equivalence pin: for every paper workload, resolving an
//! already-tuned key from the `ScheduleCache` on a *fresh* `Session` is
//! bit-identical — same trace, same reported latency — to replaying the
//! original `TuneLog`, and performs **zero** candidate measurements.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use atim_autotune::log::TuneLog;
use atim_autotune::session::{Budget, NullObserver};
use atim_autotune::{Cancellation, MeasureJob, MeasureReport, Trace, TuningOptions};
use atim_core::{AnalyticBackend, Backend, CompileOptions, CompiledModule, Session};
use atim_sim::{ExecutionReport, SimResult, UpmemConfig};
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result as TirResult;
use atim_workloads::{Workload, WorkloadKind};

/// Delegates to the analytic backend while counting every call that could
/// measure a candidate — the proof that the cache-hit path touches the
/// backend zero times.
struct CountingBackend {
    inner: AnalyticBackend,
    measurements: AtomicUsize,
}

impl CountingBackend {
    fn new() -> Arc<Self> {
        Arc::new(CountingBackend {
            inner: AnalyticBackend::new(UpmemConfig::default()),
            measurements: AtomicUsize::new(0),
        })
    }

    fn measurements(&self) -> usize {
        self.measurements.load(Ordering::SeqCst)
    }
}

impl Backend for CountingBackend {
    fn name(&self) -> &str {
        self.inner.name() // same fingerprint as the session that tuned
    }
    fn hardware(&self) -> &UpmemConfig {
        self.inner.hardware()
    }
    fn compile_options(&self) -> CompileOptions {
        self.inner.compile_options()
    }
    fn time(&self, module: &CompiledModule) -> TirResult<ExecutionReport> {
        self.measurements.fetch_add(1, Ordering::SeqCst);
        self.inner.time(module)
    }
    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> TirResult<SimResult> {
        self.inner.execute(module, inputs)
    }
    fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        self.measurements.fetch_add(1, Ordering::SeqCst);
        self.inner.measure(trace, def)
    }
    fn measure_jobs(
        &self,
        jobs: &[MeasureJob],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureReport> {
        self.measurements.fetch_add(jobs.len(), Ordering::SeqCst);
        self.inner.measure_jobs(jobs, def, cancel)
    }
}

/// One modest shape per workload kind (the analytic backend is closed-form,
/// so the exact sizes only pick distinct cache keys).
fn shape_for(kind: WorkloadKind) -> Vec<i64> {
    match kind.rank() {
        1 => vec![1 << 20],
        2 => vec![1024, 512],
        3 => vec![32, 64, 512],
        _ => vec![8, 32, 64, 128],
    }
}

#[test]
fn cache_resolution_is_bit_identical_to_tune_log_replay_per_workload() {
    let path = std::env::temp_dir().join("atim_replay_equivalence_test.jsonl");
    let _ = std::fs::remove_file(&path);
    let options = TuningOptions::quick();

    for kind in WorkloadKind::ALL {
        let def = Workload::new(kind, shape_for(kind))
            .try_compute_def()
            .unwrap();

        // Tune once, persisting both artifacts a fleet would ship: the
        // schedule cache entry and the full tune log.
        let tuning_backend = CountingBackend::new();
        let tuning = Session::builder()
            .backend_arc(tuning_backend.clone())
            .schedule_cache(&path)
            .build();
        let tuned = tuning.tune(&def, &options).unwrap();
        assert!(tuned.measured() > 0, "{kind}: the search must measure");
        // A miss sends every recorded trial to the backend exactly once: no
        // second measurement path hides behind the job batch.
        assert_eq!(
            tuning_backend.measurements(),
            tuned.measured() + tuned.failed(),
            "{kind}: jobs seen by the backend must equal the recorded trials"
        );
        let log = TuneLog::new(&def.name, options.seed, tuned.result().clone());
        let log = TuneLog::from_json_str(&log.to_json_string()).unwrap();

        // A warm start over the run's full log re-drives the trajectory from
        // the memo: only the candidates the log cannot answer (the failures
        // it does not record — none, when nothing failed) are sent again.
        let jobs_before_warm = tuning_backend.measurements();
        let warm = tuning
            .tune_warm(
                &def,
                &options,
                &log,
                &Budget::unlimited(),
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(warm.history(), tuned.history());
        assert_eq!(
            tuning_backend.measurements() - jobs_before_warm,
            tuned.failed(),
            "{kind}: a full-log warm start must send zero jobs for logged trials"
        );

        // A fresh session resolves the cache with zero backend activity.
        let backend = CountingBackend::new();
        let fresh = Session::builder()
            .backend_arc(backend.clone())
            .schedule_cache(&path)
            .build();
        let cached = fresh
            .cached(&def)
            .unwrap_or_else(|| panic!("{kind}: tuned key must resolve from the shipped cache"));
        assert_eq!(
            backend.measurements(),
            0,
            "{kind}: cache resolution must perform zero measurements"
        );
        assert_eq!(cached.measured(), 0);
        assert!(cached.history().is_empty());

        // Bit-identical to direct log replay: same trace, same latency.
        let replayed = fresh.replay(&def, &log);
        assert_eq!(
            cached.best_trace().decisions().collect::<Vec<_>>(),
            replayed.best_trace().decisions().collect::<Vec<_>>(),
            "{kind}: cached trace must match the replayed one"
        );
        assert_eq!(cached.best_config(), replayed.best_config());
        assert_eq!(
            cached.best_latency_s().to_bits(),
            replayed.best_latency_s().to_bits(),
            "{kind}: latency must be bit-identical"
        );
        // And to the original tuning run.
        assert_eq!(cached.best_config(), tuned.best_config());
        assert_eq!(
            cached.best_latency_s().to_bits(),
            tuned.best_latency_s().to_bits()
        );

        // tune_cached on the fresh session is the same pure hit.
        let via_tune = fresh.tune_cached(&def, &options).unwrap();
        assert_eq!(backend.measurements(), 0, "{kind}: tune_cached re-measured");
        assert_eq!(
            via_tune.best_latency_s().to_bits(),
            cached.best_latency_s().to_bits()
        );
    }

    let _ = std::fs::remove_file(&path);
}

/// The same pin end-to-end on the *simulated* machine: real measurements
/// during the tune, zero afterwards, identical module from cache and log.
#[test]
fn cache_resolution_matches_replay_on_the_simulator() {
    let path = std::env::temp_dir().join("atim_replay_equivalence_sim_test.jsonl");
    let _ = std::fs::remove_file(&path);
    let def = ComputeDef::mtv("mtv", 120, 96);
    let options = TuningOptions {
        trials: 8,
        population: 8,
        measure_per_round: 4,
        ..TuningOptions::default()
    };

    let tuned = Session::builder()
        .hardware(UpmemConfig::small())
        .schedule_cache(&path)
        .build()
        .tune(&def, &options)
        .unwrap();
    let log = TuneLog::new(&def.name, options.seed, tuned.result().clone());

    let fresh = Session::builder()
        .hardware(UpmemConfig::small())
        .schedule_cache(&path)
        .build();
    let cached = fresh.cached(&def).expect("sim-tuned key must hit");
    let replayed = fresh.replay(&def, &log);
    assert_eq!(cached.measured(), 0);
    assert_eq!(cached.best_config(), replayed.best_config());
    assert_eq!(
        cached.best_latency_s().to_bits(),
        replayed.best_latency_s().to_bits()
    );

    // The cached module compiles and runs to the same reference result.
    let module = fresh.compile(cached.best_trace(), &def).unwrap();
    let report = fresh.time(&module).unwrap();
    assert!(report.total_s() > 0.0);

    let _ = std::fs::remove_file(&path);
}
