//! Chaos suite for the self-healing fleet: every recovery path —
//! scheduled worker deaths, silent stalls, torn frames, handshake skew,
//! poison-job quarantine, and a SIGKILLed worker restarted on the same
//! port — must leave tuning results **bit-identical** to the sequential
//! in-process path, with the healing pinned by [`FleetStats`] counters.
//!
//! Faults are injected through the deterministic `ATIM_FLEET_FAULTS`
//! plan ([`FaultPlan`](atim_core::fleet::FaultPlan)), set only in the
//! environment of the worker child processes (re-invocations of this
//! test binary, the same `current_exe` trick as `fleet.rs`).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atim_autotune::{Cancellation, MeasureOutcome, Measurer, ScheduleConfig, Trace, TuningOptions};
use atim_core::fleet::{BackendSpec, FleetBackend, FleetOptions, FAULTS_ENV};
use atim_core::{Backend, BackendMeasurer, Session};
use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;

/// One batch through the job path, exactly as the tuner sends it.
fn measure_all(backend: &dyn Backend, batch: &[Trace], def: &ComputeDef) -> Vec<MeasureOutcome> {
    BackendMeasurer::new(backend, def, "upmem", 0).measure(batch, &Cancellation::none())
}

/// Fleet address handoff for `--connect`-style children (spawn mode).
const CONNECT_ENV: &str = "ATIM_CHAOS_CONNECT";
/// Listen address handoff for `--listen`-style children (attach mode).
const LISTEN_ENV: &str = "ATIM_CHAOS_LISTEN";

/// Re-invoked child entry point; a no-op in the parent run.  Faulty exits
/// (a torn frame ends the connection with an error) are deliberate, so
/// errors are not propagated to the harness.
#[test]
fn chaos_child() {
    if let Ok(addr) = std::env::var(CONNECT_ENV) {
        let _ = atim_core::fleet::worker_connect(&addr);
    } else if let Ok(addr) = std::env::var(LISTEN_ENV) {
        let _ = atim_core::fleet::worker_listen(&addr);
    }
}

fn reinvoke_command() -> (std::path::PathBuf, Vec<String>) {
    let exe = std::env::current_exe().expect("current_exe");
    let args = vec![
        "chaos_child".to_string(),
        "--exact".to_string(),
        "--nocapture".to_string(),
    ];
    (exe, args)
}

/// Spawn-mode options with a fault plan injected into the workers'
/// environment (and only theirs), plus heartbeat/backoff settings tight
/// enough to keep stall detection and reconnect cycles test-fast.
fn chaos_options(faults: &str) -> FleetOptions {
    FleetOptions {
        command: Some(reinvoke_command()),
        envs: vec![
            (CONNECT_ENV.to_string(), "{addr}".to_string()),
            (FAULTS_ENV.to_string(), faults.to_string()),
        ],
        job_timeout: Duration::from_secs(60),
        connect_timeout: Duration::from_secs(30),
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_window: Duration::from_millis(300),
        reconnect_backoff: Duration::from_millis(20),
        reconnect_backoff_cap: Duration::from_millis(100),
        ..FleetOptions::default()
    }
}

fn options() -> TuningOptions {
    TuningOptions {
        trials: 16,
        population: 16,
        measure_per_round: 8,
        ..TuningOptions::default()
    }
}

fn spec() -> BackendSpec {
    BackendSpec::analytic(UpmemConfig::small())
}

fn sequential_session() -> Session {
    Session::builder()
        .backend_arc(spec().build().into())
        .build()
}

/// A child process killed (and reaped) when the test ends, pass or fail.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts a `--listen`-mode worker child on `addr`, optionally with a
/// fault plan in its environment.
fn spawn_listen_child(addr: SocketAddr, faults: Option<&str>) -> KillOnDrop {
    let (exe, args) = reinvoke_command();
    let mut command = Command::new(exe);
    command
        .args(args)
        .env(LISTEN_ENV, addr.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(faults) = faults {
        command.env(FAULTS_ENV, faults);
    }
    KillOnDrop(command.spawn().expect("spawn listen child"))
}

/// Reserves a localhost port by binding and immediately releasing it.
fn free_port_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("reserve port")
        .local_addr()
        .expect("local addr")
}

/// Waits until something accepts connections on `addr`.  The probe
/// connection closes without sending a configure frame, which the worker
/// treats as a clean disconnect — no handshake (or fault budget) is
/// consumed.
fn wait_listening(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("worker at {addr} never started listening: {e}"),
        }
    }
}

/// The chaos matrix: workers that die on schedule, stall silently
/// (caught by the heartbeat window, not the job deadline), or tear a
/// frame mid-write.  Every plan must heal through respawn +
/// re-handshake, requeue the faulted jobs, and change nothing about the
/// tuning result.  Respawned processes restart their fault counters, so
/// each replacement worker faults again — several full recovery cycles
/// per plan.
#[test]
fn fault_matrix_tuning_stays_bit_identical_to_sequential() {
    let def = ComputeDef::mtv("mtv", 96, 64);
    let slow = sequential_session()
        .tune(&def, &options())
        .expect("sequential tune");
    for faults in ["die:2", "stall:1", "torn:2"] {
        let fleet =
            Arc::new(FleetBackend::spawn(spec(), 2, chaos_options(faults)).expect("fleet spawn"));
        let session = Session::builder().backend_arc(fleet.clone()).build();
        let fast = session
            .tune(&def, &options())
            .unwrap_or_else(|e| panic!("{faults}: fleet tune failed: {e}"));
        assert_eq!(
            fast.result().best,
            slow.result().best,
            "{faults}: best must be bit-identical"
        );
        assert_eq!(
            fast.result().history,
            slow.result().history,
            "{faults}: trial history must be bit-identical"
        );
        let stats = fleet.stats();
        assert!(
            stats.jobs_requeued >= 1,
            "{faults}: the faulted job must have been re-queued, stats: {stats:?}"
        );
        assert!(
            stats.reconnects >= 1,
            "{faults}: at least one worker must have reconnected and \
             re-handshaken, stats: {stats:?}"
        );
    }
}

/// A poison job — one that kills every worker it reaches — is pulled out
/// of the requeue loop after `poison_threshold` worker deaths and
/// measured in-process, so the batch completes with ground-truth
/// outcomes instead of grinding the fleet into retirement.
#[test]
fn a_poison_job_is_quarantined_after_killing_k_workers() {
    let def = ComputeDef::mtv("mtv", 64, 48);
    // Job ids are batch slots: `poison:1` makes every worker die the
    // moment it receives slot 1.
    let mut fleet_options = chaos_options("poison:1");
    fleet_options.poison_threshold = 2;
    let fleet = FleetBackend::spawn(spec(), 2, fleet_options).expect("fleet spawn");

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
    let outcomes = measure_all(&fleet, &batch, &def);
    let expected = measure_all(&*spec().build(), &batch, &def);
    assert_eq!(
        outcomes, expected,
        "quarantine must fall back to ground truth"
    );

    let stats = fleet.stats();
    assert_eq!(
        stats.jobs_quarantined, 1,
        "the poison job must have been quarantined, stats: {stats:?}"
    );
    assert_eq!(
        stats.jobs_requeued, 1,
        "a poison job is re-queued at most threshold - 1 times, stats: {stats:?}"
    );
    assert!(
        stats.reconnects >= 1,
        "the killed workers must have been respawned, stats: {stats:?}"
    );
}

/// In spawn mode a handshake-skew plan can never heal — every respawned
/// process re-corrupts its first handshake — so the fleet counts the
/// skew, retires the workers, and degrades to in-process measurement
/// without corrupting a single result.
#[test]
fn handshake_skew_degrades_to_in_process_without_corrupting_results() {
    let def = ComputeDef::mtv("mtv", 96, 64);
    let mut fleet_options = chaos_options("skew-fingerprint:1");
    fleet_options.reconnect_attempts = 1;
    let fleet = Arc::new(FleetBackend::spawn(spec(), 2, fleet_options).expect("fleet spawn"));
    let session = Session::builder().backend_arc(fleet.clone()).build();
    let fast = session.tune(&def, &options()).expect("degraded tune");
    let slow = sequential_session()
        .tune(&def, &options())
        .expect("sequential tune");
    assert_eq!(fast.result().best, slow.result().best);
    assert_eq!(fast.result().history, slow.result().history);

    let stats = fleet.stats();
    assert!(
        stats.fingerprint_skews >= 2,
        "every handshake attempt must be counted as skew, stats: {stats:?}"
    );
    assert_eq!(
        stats.workers_retired, 2,
        "unhealable workers must retire, stats: {stats:?}"
    );
    assert_eq!(stats.workers_alive, 0, "stats: {stats:?}");
}

/// Attach-mode skew *can* heal: the worker process survives its own
/// corrupted handshake, so the supervisor's redial gets a clean one.
/// Covers both identity axes: backend fingerprint and build version.
#[test]
fn attached_worker_handshake_skew_heals_on_reconnect() {
    for (faults, check) in [
        (
            "skew-fingerprint:1",
            (|s: &atim_core::FleetStats| s.fingerprint_skews)
                as fn(&atim_core::FleetStats) -> usize,
        ),
        ("skew-build:1", |s: &atim_core::FleetStats| s.version_skews),
    ] {
        let def = ComputeDef::mtv("mtv", 64, 48);
        let addr = free_port_addr();
        let _child = spawn_listen_child(addr, Some(faults));
        wait_listening(addr);

        let mut fleet_options = chaos_options(faults);
        fleet_options.command = None;
        fleet_options.envs.clear();
        fleet_options.lenient_attach = true;
        let fleet = FleetBackend::attach(spec(), &[addr], fleet_options).expect("lenient attach");
        let stats = fleet.stats();
        assert_eq!(
            stats.workers_alive, 0,
            "{faults}: the skewed handshake must be rejected, stats: {stats:?}"
        );
        assert_eq!(check(&stats), 1, "{faults}: stats: {stats:?}");

        let base = ScheduleConfig::default_for(&def, fleet.hardware());
        let batch: Vec<_> = (0..3)
            .map(|i| {
                ScheduleConfig {
                    tasklets: 1 + i,
                    ..base.clone()
                }
                .to_trace(&def)
            })
            .collect();
        let outcomes = measure_all(&fleet, &batch, &def);
        assert_eq!(
            outcomes,
            measure_all(&*spec().build(), &batch, &def),
            "{faults}: healed measurement must stay bit-identical"
        );

        let stats = fleet.stats();
        assert!(
            stats.reconnects >= 1,
            "{faults}: the clean re-handshake must have healed the worker, \
             stats: {stats:?}"
        );
        assert_eq!(stats.workers_alive, 1, "{faults}: stats: {stats:?}");
        assert_eq!(
            check(&stats),
            1,
            "{faults}: the healed handshake must not re-count, stats: {stats:?}"
        );
    }
}

/// The supervised-restart scenario: an attached worker is SIGKILLed, a
/// replacement is started on the *same* port, and the fleet's next round
/// reconnects and re-handshakes to it.  The replacement's bind races the
/// dead worker's lingering socket — `worker_listen` retries
/// `AddrInUse`, and the fleet's first write to the dead connection
/// resets that socket — so the handoff needs no cooperation from the
/// dying process.
#[test]
fn a_sigkilled_attached_worker_restarted_on_the_same_port_rehandshakes() {
    let def = ComputeDef::mtv("mtv", 64, 48);
    let addr = free_port_addr();
    let mut child = spawn_listen_child(addr, None);
    wait_listening(addr);

    let mut fleet_options = chaos_options("");
    fleet_options.command = None;
    fleet_options.envs.clear();
    fleet_options.reconnect_attempts = 8;
    let fleet = FleetBackend::attach(spec(), &[addr], fleet_options).expect("attach");

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
    let expected = measure_all(&*spec().build(), &batch, &def);
    assert_eq!(measure_all(&fleet, &batch, &def), expected);
    assert_eq!(fleet.stats().reconnects, 0);

    // SIGKILL the worker, then restart it on the same port.
    child.0.kill().expect("kill worker");
    let _ = child.0.wait();
    let _replacement = spawn_listen_child(addr, None);

    assert_eq!(
        measure_all(&fleet, &batch, &def),
        expected,
        "results must be bit-identical across the restart"
    );
    let stats = fleet.stats();
    assert!(
        stats.reconnects >= 1,
        "the fleet must have re-handshaken with the replacement, stats: {stats:?}"
    );
    assert_eq!(
        stats.workers_alive, 1,
        "the replacement must be healthy, stats: {stats:?}"
    );
    assert_eq!(stats.workers_retired, 0, "stats: {stats:?}");
}
