//! Measurement-fleet integration: distributed tuning must be
//! **bit-identical** to the sequential in-process path, and must survive
//! workers being SIGKILLed mid-round without losing or duplicating a
//! single trial.
//!
//! Worker processes are this test binary re-invoked with
//! `ATIM_FLEET_TEST_CHILD` set (the same `current_exe` trick as
//! `schedule_cache_stress.rs`), so the suite needs no pre-built
//! `atim-worker` binary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atim_autotune::{
    CancelToken, Cancellation, MeasureOutcome, Measurer, ScheduleConfig, TuningOptions,
};
use atim_core::fleet::{BackendSpec, FleetBackend, FleetOptions};
use atim_core::{Backend, BackendMeasurer, Session};
use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_workloads::{Workload, WorkloadKind};

/// Address handoff to re-invoked children; its presence turns the
/// `fleet_child_worker` "test" into a worker process.
const CHILD_ENV: &str = "ATIM_FLEET_TEST_CHILD";

/// Re-invoked child entry point: serve fleet jobs until the fleet hangs
/// up.  A no-op in the parent test run (the variable is unset).
#[test]
fn fleet_child_worker() {
    let Ok(addr) = std::env::var(CHILD_ENV) else {
        return;
    };
    atim_core::fleet::worker_connect(&addr).expect("child worker failed");
}

/// Fleet options that spawn workers by re-invoking this test binary.
fn reinvoke_options(delay_ms: Option<u64>) -> FleetOptions {
    let exe = std::env::current_exe().expect("current_exe");
    let args = vec![
        "fleet_child_worker".to_string(),
        "--exact".to_string(),
        "--nocapture".to_string(),
    ];
    let mut envs = vec![(CHILD_ENV.to_string(), "{addr}".to_string())];
    if let Some(ms) = delay_ms {
        envs.push(("ATIM_WORKER_DELAY_MS".to_string(), ms.to_string()));
    }
    FleetOptions {
        command: Some((exe, args)),
        envs,
        job_timeout: Duration::from_secs(60),
        connect_timeout: Duration::from_secs(30),
        // Keep reconnect cycles snappy under test.
        reconnect_backoff: Duration::from_millis(20),
        reconnect_backoff_cap: Duration::from_millis(100),
        ..FleetOptions::default()
    }
}

fn spawn_fleet(workers: usize, delay_ms: Option<u64>) -> FleetBackend {
    let fleet = FleetBackend::spawn(
        BackendSpec::analytic(UpmemConfig::small()),
        workers,
        reinvoke_options(delay_ms),
    )
    .expect("fleet spawn");
    assert_eq!(
        fleet.workers_alive(),
        workers,
        "every spawned worker must pass the configure handshake"
    );
    fleet
}

fn paper_defs() -> Vec<ComputeDef> {
    [
        (WorkloadKind::Va, vec![4096]),
        (WorkloadKind::Red, vec![4096]),
        (WorkloadKind::Mtv, vec![96, 64]),
        (WorkloadKind::Ttv, vec![16, 16, 32]),
        (WorkloadKind::Mmtv, vec![8, 16, 32]),
        (WorkloadKind::Geva, vec![2048]),
        (WorkloadKind::Gemv, vec![96, 64]),
    ]
    .into_iter()
    .map(|(kind, shape)| Workload::new(kind, shape).compute_def())
    .collect()
}

fn options() -> TuningOptions {
    TuningOptions {
        trials: 16,
        population: 16,
        measure_per_round: 8,
        ..TuningOptions::default()
    }
}

fn assert_identical_results(
    fleet_session: &Session,
    sequential: &Session,
    def: &ComputeDef,
    label: &str,
) {
    let fast = fleet_session.tune(def, &options()).expect("fleet tune");
    let slow = sequential.tune(def, &options()).expect("sequential tune");
    let (fr, sr) = (fast.result(), slow.result());
    assert_eq!(
        fr.best, sr.best,
        "{label}/{}: best must be bit-identical",
        def.name
    );
    assert_eq!(
        fr.history, sr.history,
        "{label}/{}: trial history must be bit-identical",
        def.name
    );
    assert_eq!(fr.measured, sr.measured, "{label}/{}", def.name);
    assert_eq!(fr.failed, sr.failed, "{label}/{}", def.name);
    assert_eq!(fr.rejected, sr.rejected, "{label}/{}", def.name);
    for (i, record) in fr.history.iter().enumerate() {
        assert_eq!(
            record.trial, i,
            "{label}/{}: history must stay dense",
            def.name
        );
    }
}

fn analytic_session() -> Session {
    Session::builder()
        .backend_arc(BackendSpec::analytic(UpmemConfig::small()).build().into())
        .build()
}

/// The headline regression bar: fixed-seed tuning through 1-, 2- and
/// 4-worker fleets produces bit-identical `TuningResult`s to the
/// sequential in-process path, for every paper workload kind.
#[test]
fn fleet_tuning_is_bit_identical_to_sequential_for_every_paper_workload() {
    let sequential = analytic_session();
    for workers in [1usize, 2, 4] {
        let fleet = spawn_fleet(workers, None);
        let session = Session::builder().backend(fleet).build();
        for def in paper_defs() {
            assert_identical_results(&session, &sequential, &def, &format!("{workers}w"));
        }
    }
}

/// SIGKILLing a worker while jobs are in flight must neither lose nor
/// duplicate a trial: the dead worker's job is re-queued on a live worker
/// and the result stays bit-identical to sequential tuning.
#[test]
fn killing_a_worker_mid_round_loses_and_duplicates_nothing() {
    let def = ComputeDef::mtv("mtv", 96, 64);
    let fleet = Arc::new(spawn_fleet(3, Some(60)));
    let session = Session::builder().backend_arc(fleet.clone()).build();

    let killer = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            // Wait until the round is genuinely under way (workers hold
            // in-flight jobs), then kill one process mid-measurement.
            let deadline = Instant::now() + Duration::from_secs(30);
            while fleet.stats().jobs_in_flight < 2 {
                assert!(Instant::now() < deadline, "round never started");
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(30));
            assert!(fleet.kill_worker(2), "third worker must exist to kill");
        })
    };

    let tuned = session.tune(&def, &options()).expect("fleet tune");
    killer.join().expect("killer thread");

    let sequential = analytic_session();
    let slow = sequential.tune(&def, &options()).expect("sequential tune");
    assert_eq!(tuned.result().best, slow.result().best);
    assert_eq!(
        tuned.result().history,
        slow.result().history,
        "a worker kill must not change a single measurement"
    );
    for (i, record) in tuned.result().history.iter().enumerate() {
        assert_eq!(record.trial, i, "budget accounting must stay dense");
    }

    let stats = fleet.stats();
    assert!(
        stats.jobs_requeued >= 1,
        "the dead worker's in-flight job must have been re-queued, stats: {stats:?}"
    );
    // Self-healing: the supervisor respawns the killed worker and
    // re-handshakes, so the fleet ends the run back at full strength.
    assert!(
        stats.reconnects >= 1,
        "the killed worker must have been respawned and re-handshaken, stats: {stats:?}"
    );
    assert_eq!(
        stats.workers_alive, 3,
        "a healed fleet is back at full strength, stats: {stats:?}"
    );
}

/// With every worker dead and reconnection disabled the fleet degrades to
/// in-process measurement: the run still completes, still bit-identical
/// to sequential, and both workers end up retired.
#[test]
fn a_fleet_with_all_workers_dead_degrades_to_in_process() {
    let def = ComputeDef::mtv("mtv", 96, 64);
    let fleet = FleetBackend::spawn(
        BackendSpec::analytic(UpmemConfig::small()),
        2,
        FleetOptions {
            // A zero budget restores the pre-supervision semantics: the
            // first fault retires the worker instead of respawning it.
            reconnect_attempts: 0,
            ..reinvoke_options(None)
        },
    )
    .expect("fleet spawn");
    let fleet = Arc::new(fleet);
    fleet.kill_worker(0);
    fleet.kill_worker(1);
    let session = Session::builder().backend_arc(fleet.clone()).build();
    let tuned = session.tune(&def, &options()).expect("degraded tune");

    let sequential = analytic_session();
    let slow = sequential.tune(&def, &options()).expect("sequential tune");
    assert_eq!(tuned.result().best, slow.result().best);
    assert_eq!(tuned.result().history, slow.result().history);
    let stats = fleet.stats();
    assert_eq!(
        stats.workers_alive, 0,
        "both deaths must be detected once dispatch touches the sockets"
    );
    assert_eq!(
        stats.workers_retired, 2,
        "a zero reconnect budget retires workers on their first fault"
    );
}

/// The fleet composes with `CancelToken`: a fired token skips candidates
/// instead of dispatching them.
#[test]
fn fleet_batches_respect_cancellation() {
    let def = ComputeDef::mtv("mtv", 64, 48);
    let fleet = spawn_fleet(1, None);
    let base = ScheduleConfig::default_for(&def, fleet.hardware());
    let batch: Vec<_> = (0..4)
        .map(|i| {
            ScheduleConfig {
                tasklets: 1 + i,
                ..base.clone()
            }
            .to_trace(&def)
        })
        .collect();
    let token = CancelToken::new();
    token.cancel();
    let cancel = Cancellation::new(Some(token), None);
    let outcomes = BackendMeasurer::new(&fleet, &def, "upmem", 0).measure(&batch, &cancel);
    assert!(outcomes.iter().all(|o| *o == MeasureOutcome::Skipped));
    assert_eq!(fleet.stats().jobs_requeued, 0);
}

/// Fleet sessions share schedule-cache entries with sequential sessions:
/// a win tuned through the fleet resolves as a cache hit in a plain
/// in-process session (same fingerprint, same key).
#[test]
fn fleet_tuning_wins_serve_sequential_cache_hits() {
    let def = ComputeDef::mtv("mtv", 96, 64);
    let dir = std::env::temp_dir().join(format!("atim-fleet-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cache dir");
    let path = dir.join("cache.jsonl");

    let fleet = spawn_fleet(2, None);
    let fleet_session = Session::builder()
        .backend(fleet)
        .schedule_cache(&path)
        .build();
    let tuned = fleet_session
        .tune_cached(&def, &options())
        .expect("fleet tune_cached");

    let sequential = Session::builder()
        .backend_arc(BackendSpec::analytic(UpmemConfig::small()).build().into())
        .schedule_cache(&path)
        .build();
    let hit = sequential
        .cached(&def)
        .expect("the fleet's win must hit for the sequential session");
    assert_eq!(hit.best_trace(), tuned.best_trace());
    std::fs::remove_dir_all(&dir).ok();
}
