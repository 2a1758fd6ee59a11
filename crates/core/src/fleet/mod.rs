//! A self-healing localhost measurement fleet behind the [`Backend`]
//! trait.
//!
//! The tuning loop's wall-clock is measurement-bound; PRs 2/4 made each
//! candidate cheaper, this module makes measurement *horizontally*
//! scalable: a [`FleetBackend`] fans each round's [`MeasureJob`]s across N
//! `atim-worker` processes over the same length-prefixed JSON frames
//! ([`atim_wire`]) the tuning daemon speaks — the distributed RPC-tracker
//! design of "Learning to Optimize Tensor Programs", on `std::net` alone.
//!
//! # Determinism
//!
//! Fleet measurement is **bit-identical to sequential** for fixed seeds:
//!
//! * results land in per-job slots indexed by batch position, so the tuner
//!   observes the same latencies in the same order regardless of which
//!   worker answered first (the same slot-indexed contract as
//!   [`SimBackend`](crate::backend::SimBackend)'s thread fan-out);
//! * each worker rebuilds the *same* backend from the serialized
//!   [`BackendSpec`] and proves it during a versioned handshake: protocol
//!   version, build version and the backend
//!   [`fingerprint`](Backend::fingerprint) must all match, and each kind
//!   of skew is counted separately in [`FleetStats`] and surfaced as a
//!   typed [`FleetError`];
//! * jobs a worker cannot reproduce exactly (an unknown generator, a
//!   workload whose `(name, shape)` coordinates do not round-trip to the
//!   original `ComputeDef`) are never dispatched: they fall back to the
//!   in-process backend, which is the ground truth.
//!
//! # Self-healing
//!
//! Every worker lives under a supervisor that tracks it through typed
//! [`WorkerState`]s.  A fault — EOF, torn frame, expired deadline, lost
//! heartbeat, failed ping — marks the worker `Suspect`; before its next
//! job the supervisor runs a bounded reconnect cycle with capped
//! deterministic exponential backoff ([`backoff_delay`]), re-running the
//! full configure handshake, and only an exhausted cycle retires the
//! worker.  Meanwhile the faulted job goes back to the *front* of the
//! shared queue.  Silent hangs are caught early: workers emit `heartbeat`
//! frames during long measurements, so a worker that goes quiet for a
//! heartbeat window is declared hung without waiting out the (much
//! longer) job deadline.
//!
//! A *poison job* — one that kills [`FleetOptions::poison_threshold`]
//! workers in a row — is pulled out of the requeue loop, quarantined, and
//! measured in-process with bounded retries, so one pathological
//! candidate cannot grind the fleet down.  When every worker is gone the
//! remaining jobs are measured in-process: a fleet degrades to exactly
//! the single-process behavior instead of failing a tuning run.  Nothing
//! is lost and nothing is duplicated: the trial history stays dense.
//!
//! # Fault injection
//!
//! The recovery paths are not best-effort folklore; each is pinned by
//! tests driving the deterministic [`FaultPlan`] harness
//! (`ATIM_FLEET_FAULTS`), which makes workers die on schedule, stall
//! silently, emit torn frames, or corrupt their handshake identity —
//! while tuned results stay bit-identical to sequential.

mod backoff;
mod error;
mod faults;
mod spec;
mod supervisor;
mod worker;

pub use backoff::backoff_delay;
pub use error::FleetError;
pub use faults::{FaultAction, FaultPlan, FAULTS_ENV};
pub use spec::BackendSpec;
pub use supervisor::WorkerState;
pub use worker::{run_worker, worker_connect, worker_listen};

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use atim_autotune::{
    Cancellation, Json, MeasureJob, MeasureOutcome, MeasureReport, SpaceGenerator, Trace,
    UpmemSketchGenerator,
};
use atim_sim::{ExecutionReport, SimResult, UpmemConfig};
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result as TirResult;
use atim_wire::write_frame;
use atim_workloads::{Workload, WorkloadKind};

use crate::backend::Backend;
use crate::compiler::{CompileOptions, CompiledModule};

use supervisor::{ReconnectTarget, RoundCtx, WorkerSupervisor};

/// The fleet protocol version announced (and required) in the configure
/// handshake.  Version 2 added protocol/build announcement, heartbeat
/// negotiation and ping/pong frames.
pub const PROTOCOL_VERSION: u64 = 2;

/// The build version this fleet/worker was compiled from, announced in
/// the handshake so build skew across machines is a typed, counted
/// condition instead of a silent measurement hazard.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Environment variable selecting the fleet size: unset or `0` measures
/// in-process, `N` spawns N local worker processes.
pub const WORKERS_ENV: &str = "ATIM_FLEET_WORKERS";

/// Environment variable overriding the worker binary the fleet spawns
/// (default: an `atim-worker` next to the current executable).
pub const WORKER_BIN_ENV: &str = "ATIM_WORKER_BIN";

/// Fault-injection knob for tests: a worker sleeps this many milliseconds
/// before measuring each job, widening the window in which a kill lands
/// mid-round.  Unset (the default) adds no delay.
pub const WORKER_DELAY_ENV: &str = "ATIM_WORKER_DELAY_MS";

/// Environment variable overriding [`FleetOptions::job_timeout`], in
/// milliseconds.  Must be a positive integer; invalid values fail loudly.
pub const JOB_TIMEOUT_ENV: &str = "ATIM_FLEET_JOB_TIMEOUT_MS";

/// Environment variable overriding [`FleetOptions::heartbeat_interval`],
/// in milliseconds (`0` disables heartbeats and round pings).  The
/// heartbeat window follows as `max(4 × interval, 250 ms)`.  Invalid
/// values fail loudly.
pub const HEARTBEAT_ENV: &str = "ATIM_FLEET_HEARTBEAT_MS";

/// Worker-pool observability counters, surfaced through
/// [`Backend::fleet_stats`] and the tuning daemon's stats reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Workers currently believed alive.
    pub workers_alive: usize,
    /// Jobs dispatched to a worker and not yet answered.
    pub jobs_in_flight: usize,
    /// Jobs re-queued after their worker died (cumulative).
    pub jobs_requeued: usize,
    /// Successful reconnect + re-handshake cycles (cumulative).
    pub reconnects: usize,
    /// Workers permanently retired after an exhausted reconnect cycle
    /// (cumulative).
    pub workers_retired: usize,
    /// Handshakes rejected because the worker's backend fingerprint did
    /// not match (cumulative).
    pub fingerprint_skews: usize,
    /// Handshakes rejected for protocol- or build-version skew
    /// (cumulative).
    pub version_skews: usize,
    /// Jobs quarantined for in-process measurement after killing too many
    /// workers (cumulative).
    pub jobs_quarantined: usize,
}

/// Knobs for [`FleetBackend::spawn`] / [`FleetBackend::attach`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Deadline for one dispatched job (write + measure + reply).  A
    /// worker missing it is treated as dead and its job re-queued; size it
    /// for the slowest single candidate, not the whole round.
    pub job_timeout: Duration,
    /// Deadline for a spawned worker to connect and complete its
    /// configure handshake.
    pub connect_timeout: Duration,
    /// How long a shutdown frame may block during fleet teardown before
    /// the worker is killed anyway.
    pub shutdown_timeout: Duration,
    /// How often a measuring worker emits heartbeat frames (and how often
    /// idle connections are pinged at the start of a round).
    /// [`Duration::ZERO`] disables heartbeats and pings, restoring the
    /// single job deadline as the only liveness signal.
    pub heartbeat_interval: Duration,
    /// How long a dispatched job may go without *any* frame (heartbeat or
    /// report) before the worker is declared silently hung.  Clamped to
    /// at least `heartbeat_interval`.
    pub heartbeat_window: Duration,
    /// Reconnect attempts per fault before a worker is retired.  `0`
    /// restores the pre-supervision behavior: first fault retires.
    pub reconnect_attempts: u32,
    /// Base delay of the reconnect backoff schedule (attempt 0 is always
    /// immediate; see [`backoff_delay`]).
    pub reconnect_backoff: Duration,
    /// Cap of the reconnect backoff schedule.
    pub reconnect_backoff_cap: Duration,
    /// A job that has killed this many distinct workers is quarantined:
    /// pulled from the requeue loop and measured in-process.  Clamped to
    /// at least 1.
    pub poison_threshold: u32,
    /// In-process re-measure attempts for a quarantined job whose first
    /// in-process measurement fails.
    pub quarantine_retries: u32,
    /// When attaching, tolerate workers whose initial handshake fails
    /// (they start `Suspect` and are healed by the first round's
    /// reconnect cycle) instead of failing `attach` outright.
    pub lenient_attach: bool,
    /// Override for the worker command line: `(program, args)`, where
    /// every occurrence of `{addr}` in an argument is replaced by the
    /// fleet's listen address.  Tests use this to re-invoke the current
    /// test binary; `None` runs `atim-worker --connect {addr}` with the
    /// binary resolved next to the current executable (or from
    /// `ATIM_WORKER_BIN`).
    pub command: Option<(PathBuf, Vec<String>)>,
    /// Extra environment variables for spawned workers, with the same
    /// `{addr}` substitution in values.
    pub envs: Vec<(String, String)>,
    /// The space-generator id jobs are routed to workers under (announced
    /// in the configure handshake; jobs carrying any other id fall back
    /// to in-process measurement).  Must name a resident generator —
    /// workers rebuild it from the id alone.  `None` follows
    /// `ATIM_SPACE_GENERATOR`, defaulting to the UPMEM sketch.
    pub space_generator: Option<String>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            job_timeout: Duration::from_secs(300),
            connect_timeout: Duration::from_secs(10),
            shutdown_timeout: Duration::from_millis(200),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_window: Duration::from_secs(2),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(100),
            reconnect_backoff_cap: Duration::from_secs(2),
            poison_threshold: 3,
            quarantine_retries: 1,
            lenient_attach: false,
            command: None,
            envs: Vec::new(),
            space_generator: None,
        }
    }
}

impl FleetOptions {
    /// Default options with the environment overrides applied:
    /// [`JOB_TIMEOUT_ENV`] and [`HEARTBEAT_ENV`].
    ///
    /// # Panics
    /// Panics with a descriptive message on invalid values — an explicitly
    /// misconfigured knob must never be silently ignored.
    pub fn from_env() -> Self {
        let mut options = FleetOptions::default();
        if let Ok(raw) = std::env::var(JOB_TIMEOUT_ENV) {
            match raw.trim().parse::<u64>() {
                Ok(ms) if ms > 0 => options.job_timeout = Duration::from_millis(ms),
                _ => panic!(
                    "{JOB_TIMEOUT_ENV} must be a positive integer of milliseconds, \
                     got \"{raw}\""
                ),
            }
        }
        if let Ok(raw) = std::env::var(HEARTBEAT_ENV) {
            match raw.trim().parse::<u64>() {
                Ok(ms) => {
                    options.heartbeat_interval = Duration::from_millis(ms);
                    options.heartbeat_window = Duration::from_millis((ms * 4).max(250));
                }
                Err(_) => panic!(
                    "{HEARTBEAT_ENV} must be a non-negative integer of milliseconds \
                     (0 disables heartbeats), got \"{raw}\""
                ),
            }
        }
        options
    }
}

/// Parses `ATIM_FLEET_WORKERS`: `None` when unset or `0` (measure
/// in-process), `Some(n)` to run an n-worker fleet.
///
/// # Panics
/// Panics with a descriptive message on non-numeric values — an explicitly
/// misconfigured knob must never be silently ignored.
pub fn workers_from_env() -> Option<usize> {
    let raw = std::env::var(WORKERS_ENV).ok()?;
    match raw.trim().parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(_) => panic!(
            "{WORKERS_ENV} must be a non-negative integer, got \"{raw}\" \
             (0 or unset measures in-process)"
        ),
    }
}

/// Locates the `atim-worker` binary: `ATIM_WORKER_BIN` when set, otherwise
/// a sibling of the current executable (searching the executable's
/// directory and its parent, which covers `target/<profile>/`,
/// `target/<profile>/deps/` and `target/<profile>/examples/`).
fn resolve_worker_bin() -> io::Result<PathBuf> {
    if let Ok(path) = std::env::var(WORKER_BIN_ENV) {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe()?;
    let name = format!("atim-worker{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        // Test and example binaries live one or two levels below the
        // profile directory that holds the worker bin.
        if d.file_name().is_some_and(|n| n == "target") {
            break;
        }
        dir = d.parent();
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!(
            "no atim-worker binary next to {} (build it with \
             `cargo build -p atim-core --bin atim-worker`, or set {WORKER_BIN_ENV})",
            exe.display()
        ),
    ))
}

/// The stored recipe for (re)spawning worker processes.
struct SpawnTarget {
    program: PathBuf,
    args: Vec<String>,
    addr: SocketAddr,
}

/// Cumulative fleet counters (all relaxed: observability, not
/// synchronization).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) alive: AtomicUsize,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) requeued: AtomicUsize,
    pub(crate) reconnects: AtomicUsize,
    pub(crate) retired: AtomicUsize,
    pub(crate) fingerprint_skews: AtomicUsize,
    pub(crate) version_skews: AtomicUsize,
    pub(crate) quarantined: AtomicUsize,
}

/// A [`Backend`] that fans measurement jobs across supervised local worker
/// processes.
///
/// Everything except measurement — compilation, timing of an explicit
/// module, functional execution, the cache fingerprint — delegates to the
/// in-process backend built from the same [`BackendSpec`], so a fleet
/// session is a drop-in replacement for a sequential one (including shared
/// schedule-cache keys).
pub struct FleetBackend {
    inner: Box<dyn Backend>,
    spec: BackendSpec,
    generator: String,
    options: FleetOptions,
    supervisors: Mutex<Vec<WorkerSupervisor>>,
    children: Mutex<Vec<Option<Child>>>,
    listener: Option<TcpListener>,
    spawn_target: Option<SpawnTarget>,
    respawn_lock: Mutex<()>,
    ping_seq: AtomicUsize,
    counters: Counters,
}

impl std::fmt::Debug for FleetBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBackend")
            .field("inner", &self.inner.name())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FleetBackend {
    /// Spawns `workers` local worker processes and hands each the spec
    /// over a versioned configure handshake.  Workers that fail to spawn,
    /// connect in time, or pass verification start `Suspect` with a
    /// diagnostic on stderr — the first round's reconnect cycle retries
    /// them (zero healthy workers still degrades to in-process
    /// measurement).
    ///
    /// # Errors
    /// Fails only when the listener cannot bind or the worker binary
    /// cannot be resolved — a *degraded* fleet is not an error, an
    /// unlaunchable one is.
    pub fn spawn(spec: BackendSpec, workers: usize, options: FleetOptions) -> io::Result<Self> {
        let mut fleet = Self::empty(spec, options);
        if workers == 0 {
            return Ok(fleet);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (program, args) = match &fleet.options.command {
            Some((program, args)) => (program.clone(), args.clone()),
            None => (
                resolve_worker_bin()?,
                vec!["--connect".to_string(), "{addr}".to_string()],
            ),
        };
        fleet.listener = Some(listener);
        fleet.spawn_target = Some(SpawnTarget {
            program,
            args,
            addr,
        });

        // Spawn, accept and handshake one worker at a time so each child
        // process is paired with the supervisor (and child slot) that owns
        // its lifecycle — respawns must kill the right process.
        let deadline = Instant::now() + fleet.options.connect_timeout;
        let mut supervisors = Vec::with_capacity(workers);
        let mut children = Vec::with_capacity(workers);
        let mut healthy = 0;
        for index in 0..workers {
            match fleet.spawn_child() {
                Ok(child) => children.push(Some(child)),
                Err(e) => {
                    eprintln!("atim-fleet: failed to spawn worker {index}: {e}");
                    children.push(None);
                    supervisors.push(WorkerSupervisor::suspect(index, ReconnectTarget::Spawn));
                    continue;
                }
            }
            match fleet.accept_one(deadline).and_then(|s| fleet.handshake(s)) {
                Ok(stream) => {
                    healthy += 1;
                    supervisors.push(WorkerSupervisor::healthy(
                        index,
                        ReconnectTarget::Spawn,
                        stream,
                    ));
                }
                Err(e) => {
                    eprintln!(
                        "atim-fleet: worker {index} rejected ({e}); \
                         will retry during the next round"
                    );
                    supervisors.push(WorkerSupervisor::suspect(index, ReconnectTarget::Spawn));
                }
            }
        }
        if healthy < workers {
            eprintln!(
                "atim-fleet: {healthy}/{workers} workers verified at startup; \
                 the rest will be healed (or retired) by reconnect cycles"
            );
        }
        fleet.counters.alive.store(healthy, Ordering::Relaxed);
        *fleet.supervisors.lock().unwrap() = supervisors;
        *fleet.children.lock().unwrap() = children;
        Ok(fleet)
    }

    /// Attaches to already-running workers listening on `addrs` (started
    /// with `atim-worker --listen`), configuring each with the spec.
    ///
    /// # Errors
    /// Fails when a worker cannot be reached or rejects the handshake —
    /// explicitly named workers are expected to exist.  With
    /// [`FleetOptions::lenient_attach`] such workers start `Suspect`
    /// instead and are retried by the first round's reconnect cycle.
    pub fn attach(
        spec: BackendSpec,
        addrs: &[SocketAddr],
        options: FleetOptions,
    ) -> io::Result<Self> {
        let fleet = Self::empty(spec, options);
        let mut supervisors = Vec::with_capacity(addrs.len());
        let mut healthy = 0;
        for (index, addr) in addrs.iter().enumerate() {
            let target = ReconnectTarget::Attach(*addr);
            let attempt = TcpStream::connect_timeout(addr, fleet.options.connect_timeout)
                .map_err(FleetError::Io)
                .and_then(|stream| fleet.handshake(stream));
            match attempt {
                Ok(stream) => {
                    healthy += 1;
                    supervisors.push(WorkerSupervisor::healthy(index, target, stream));
                }
                Err(e) if fleet.options.lenient_attach => {
                    eprintln!(
                        "atim-fleet: worker {index} at {addr} rejected ({e}); \
                         will retry during the next round"
                    );
                    supervisors.push(WorkerSupervisor::suspect(index, target));
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        }
        fleet.counters.alive.store(healthy, Ordering::Relaxed);
        *fleet.supervisors.lock().unwrap() = supervisors;
        Ok(fleet)
    }

    /// Builds a fleet from the `ATIM_FLEET_WORKERS` environment knob
    /// (with [`FleetOptions::from_env`] overrides): `None` when the knob
    /// is unset or `0` (callers should use their in-process backend
    /// directly).
    ///
    /// # Panics
    /// Panics when the knob is set but the fleet cannot launch (bad value,
    /// missing worker binary, unbindable listener) — an explicitly
    /// requested fleet must never silently degrade to nothing at startup.
    pub fn from_env(spec: BackendSpec) -> Option<Self> {
        let workers = workers_from_env()?;
        Some(
            Self::spawn(spec, workers, FleetOptions::from_env()).unwrap_or_else(|e| {
                panic!("{WORKERS_ENV}={workers}: failed to launch the measurement fleet: {e}")
            }),
        )
    }

    fn empty(spec: BackendSpec, options: FleetOptions) -> Self {
        let generator = match &options.space_generator {
            Some(id) => {
                assert!(
                    atim_autotune::resolve_generator(id).is_some(),
                    "fleet space generator {id:?} is not a resident generator \
                     (workers rebuild it from the id alone); known ids: {:?}",
                    atim_autotune::RESIDENT_GENERATOR_IDS
                );
                id.clone()
            }
            None => atim_autotune::generator_from_env()
                .unwrap_or_else(|e| panic!("{e}"))
                .map(|g| g.name().to_string())
                .unwrap_or_else(|| SpaceGenerator::name(&UpmemSketchGenerator).to_string()),
        };
        FleetBackend {
            inner: spec.build(),
            spec,
            generator,
            options,
            supervisors: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
            listener: None,
            spawn_target: None,
            respawn_lock: Mutex::new(()),
            ping_seq: AtomicUsize::new(0),
            counters: Counters::default(),
        }
    }

    /// Spawns one worker child process from the stored spawn recipe.
    pub(crate) fn spawn_child(&self) -> io::Result<Child> {
        let target = self.spawn_target.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                "fleet has no spawn command (attached workers reconnect by redialing)",
            )
        })?;
        let substitute = |s: &str| s.replace("{addr}", &target.addr.to_string());
        let mut command = Command::new(&target.program);
        command
            .args(target.args.iter().map(|a| substitute(a)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        for (key, value) in &self.options.envs {
            command.env(key, substitute(value));
        }
        command.spawn()
    }

    /// Accepts one worker connection from the fleet listener before
    /// `deadline`.
    pub(crate) fn accept_one(&self, deadline: Instant) -> Result<TcpStream, FleetError> {
        let listener = self.listener.as_ref().ok_or_else(|| {
            FleetError::Handshake("fleet has no listener for spawned workers".into())
        })?;
        loop {
            match listener.accept() {
                Ok((stream, _)) => return Ok(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(FleetError::ConnectTimeout(self.options.connect_timeout));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(FleetError::Io(e)),
            }
        }
    }

    /// Current worker-pool counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            workers_alive: self.counters.alive.load(Ordering::Relaxed),
            jobs_in_flight: self.counters.in_flight.load(Ordering::Relaxed),
            jobs_requeued: self.counters.requeued.load(Ordering::Relaxed),
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
            workers_retired: self.counters.retired.load(Ordering::Relaxed),
            fingerprint_skews: self.counters.fingerprint_skews.load(Ordering::Relaxed),
            version_skews: self.counters.version_skews.load(Ordering::Relaxed),
            jobs_quarantined: self.counters.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of workers currently believed alive.
    pub fn workers_alive(&self) -> usize {
        self.counters.alive.load(Ordering::Relaxed)
    }

    /// A snapshot of every supervised worker's health state (spawn/attach
    /// order).  Mid-round the supervisors are owned by the dispatch
    /// threads and the snapshot is empty.
    pub fn worker_states(&self) -> Vec<WorkerState> {
        self.supervisors
            .lock()
            .unwrap()
            .iter()
            .map(|sup| sup.state)
            .collect()
    }

    /// Fault injection for chaos tests: SIGKILLs the `index`-th spawned
    /// worker process (spawn order).  Returns whether a process was
    /// killed.  The death is *detected* at the next dispatch to that
    /// worker, which re-queues the in-flight job and starts a reconnect
    /// cycle — exactly the path a real worker crash takes.
    pub fn kill_worker(&self, index: usize) -> bool {
        let mut children = self.children.lock().unwrap();
        match children.get_mut(index).and_then(|slot| slot.as_mut()) {
            Some(child) => {
                let killed = child.kill().is_ok();
                let _ = child.wait();
                killed
            }
            None => false,
        }
    }

    /// Whether a job can be reproduced bit-identically by a worker that
    /// only receives the job's serialized form.
    fn remotable(&self, job: &MeasureJob, def: &ComputeDef) -> bool {
        job.exec == atim_autotune::EXEC_TIMING
            && job.generator == self.generator
            && WorkloadKind::parse(&job.workload)
                .map(|kind| Workload::new(kind, job.shape.clone()))
                .and_then(|w| w.try_compute_def())
                .is_some_and(|resolved| resolved == *def)
    }
}

impl Drop for FleetBackend {
    fn drop(&mut self) {
        // Ask nicely first: a shutdown frame lets workers exit cleanly.
        let shutdown = Json::Obj(vec![("type".into(), Json::Str("shutdown".into()))]);
        for sup in self.supervisors.get_mut().unwrap().iter_mut() {
            if let Some(stream) = sup.conn.as_mut() {
                let _ = stream.set_write_timeout(Some(self.options.shutdown_timeout));
                let _ = write_frame(stream, &shutdown);
            }
            sup.conn = None;
        }
        for child in self.children.get_mut().unwrap().iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Backend for FleetBackend {
    fn name(&self) -> &str {
        "fleet"
    }

    fn hardware(&self) -> &UpmemConfig {
        self.inner.hardware()
    }

    /// Delegates to the in-process backend: a fleet produces the *same*
    /// latencies as its inner backend (that is the whole contract), so it
    /// must share schedule-cache entries with sequential sessions instead
    /// of fragmenting the cache by worker topology.
    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn compile_options(&self) -> CompileOptions {
        self.inner.compile_options()
    }

    fn time(&self, module: &CompiledModule) -> TirResult<ExecutionReport> {
        self.inner.time(module)
    }

    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> TirResult<SimResult> {
        self.inner.execute(module, inputs)
    }

    fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        self.inner.measure(trace, def)
    }

    fn measure_jobs(
        &self,
        jobs: &[MeasureJob],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureReport> {
        let results = Mutex::new(vec![None; jobs.len()]);
        let pending: Mutex<VecDeque<(usize, u32)>> = Mutex::new(
            (0..jobs.len())
                .filter(|&i| self.remotable(&jobs[i], def))
                .map(|i| (i, 0))
                .collect(),
        );
        let refused: Mutex<Vec<usize>> = Mutex::new(
            (0..jobs.len())
                .filter(|&i| !self.remotable(&jobs[i], def))
                .collect(),
        );
        let quarantined: Mutex<Vec<usize>> = Mutex::new(Vec::new());

        let mut supervisors = std::mem::take(&mut *self.supervisors.lock().unwrap());
        let usable = supervisors
            .iter()
            .any(|sup| sup.state != WorkerState::Retired);
        if usable && !pending.lock().unwrap().is_empty() {
            let ctx = RoundCtx {
                jobs,
                pending: &pending,
                results: &results,
                refused: &refused,
                quarantined: &quarantined,
                cancel,
            };
            std::thread::scope(|scope| {
                for sup in supervisors.iter_mut() {
                    if sup.state == WorkerState::Retired {
                        continue;
                    }
                    let ctx = &ctx;
                    scope.spawn(move || self.supervisor_round(sup, ctx));
                }
            });
        }
        *self.supervisors.lock().unwrap() = supervisors;

        // Everything the fleet could not (or no longer can) measure runs
        // on the in-process backend, in ascending slot order: leftover
        // queue entries (all workers died, or none existed), refused jobs,
        // quarantined jobs, and — via the inner backend's own cancellation
        // check — anything a fired token should skip.
        let quarantined: Vec<usize> = quarantined.into_inner().unwrap();
        let mut local: Vec<usize> = pending
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|(slot, _)| slot)
            .collect();
        local.extend(refused.into_inner().unwrap());
        local.extend(quarantined.iter().copied());
        local.sort_unstable();
        if !local.is_empty() {
            let batch: Vec<MeasureJob> = local.iter().map(|&i| jobs[i].clone()).collect();
            let reports = self.inner.measure_jobs(&batch, def, cancel);
            let mut results = results.lock().unwrap();
            for (&slot, report) in local.iter().zip(reports) {
                results[slot] = Some(report.outcome);
            }
        }

        // Bounded in-process retries for quarantined jobs whose first
        // local measurement failed (the deterministic backends make this
        // rare, but quarantine exists precisely for pathological jobs).
        if self.options.quarantine_retries > 0 {
            let mut results = results.lock().unwrap();
            for &slot in &quarantined {
                let mut retries = 0;
                while matches!(results[slot], Some(MeasureOutcome::Failed))
                    && retries < self.options.quarantine_retries
                {
                    retries += 1;
                    eprintln!(
                        "atim-fleet: quarantined job {} failed in-process; \
                         retry {retries}/{}",
                        jobs[slot].id, self.options.quarantine_retries
                    );
                    let report =
                        self.inner
                            .measure_jobs(std::slice::from_ref(&jobs[slot]), def, cancel);
                    if let Some(report) = report.into_iter().next() {
                        results[slot] = Some(report.outcome);
                    }
                }
            }
        }

        results
            .into_inner()
            .unwrap()
            .into_iter()
            .zip(jobs)
            .map(|(outcome, job)| {
                MeasureReport::new(
                    job.id,
                    outcome.expect("every fleet job must resolve to an outcome"),
                )
            })
            .collect()
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;

    #[test]
    fn zero_worker_fleets_measure_in_process() {
        use atim_autotune::ScheduleConfig;
        let def = ComputeDef::mtv("mtv", 64, 48);
        let fleet = FleetBackend::spawn(
            BackendSpec::analytic(UpmemConfig::small()),
            0,
            FleetOptions::default(),
        )
        .unwrap();
        let inner = AnalyticBackend::new(UpmemConfig::small());
        let trace = ScheduleConfig::default_for(&def, inner.hardware()).to_trace(&def);
        let job = MeasureJob::timing_for_def(0, &def, "upmem", 0, trace);
        let none = Cancellation::none();
        assert_eq!(
            fleet.measure_jobs(std::slice::from_ref(&job), &def, &none),
            inner.measure_jobs(&[job], &def, &none)
        );
        assert_eq!(fleet.stats(), FleetStats::default());
        assert_eq!(fleet.fingerprint(), inner.fingerprint());
        assert!(fleet.worker_states().is_empty());
    }

    #[test]
    fn fleet_workers_env_parses_like_the_other_knobs() {
        // The env itself is process-global; exercise the parser contract
        // through a scoped set/remove.  Invalid values are covered by the
        // panic contract (not exercised here to keep the env clean).
        assert!(workers_from_env().is_none() || std::env::var(WORKERS_ENV).is_ok());
    }

    #[test]
    fn default_options_keep_heartbeats_distinct_from_job_deadlines() {
        let options = FleetOptions::default();
        assert!(options.heartbeat_window < options.job_timeout);
        assert!(options.heartbeat_interval < options.heartbeat_window);
        assert!(options.poison_threshold >= 1);
        assert!(options.reconnect_attempts >= 1);
    }

    #[test]
    fn remotability_rejects_foreign_defs_and_exec_modes() {
        let fleet = FleetBackend::spawn(
            BackendSpec::analytic(UpmemConfig::small()),
            0,
            FleetOptions::default(),
        )
        .unwrap();
        let def = ComputeDef::mtv("mtv", 64, 48);
        let trace =
            atim_autotune::ScheduleConfig::default_for(&def, fleet.hardware()).to_trace(&def);
        let good = MeasureJob::timing_for_def(0, &def, "upmem", 0, trace.clone());
        assert!(fleet.remotable(&good, &def));

        // A GEMV with a non-canonical scalar does not round-trip through
        // (name, shape) — it must never be dispatched to a worker.
        let custom = ComputeDef::gemv("gemv", 97, 103, 1.5);
        let custom_trace =
            atim_autotune::ScheduleConfig::default_for(&custom, fleet.hardware()).to_trace(&custom);
        let custom_job = MeasureJob::timing_for_def(0, &custom, "upmem", 0, custom_trace);
        assert!(!fleet.remotable(&custom_job, &custom));

        let mut functional = good.clone();
        functional.exec = "functional".into();
        assert!(!fleet.remotable(&functional, &def));

        let mut foreign_generator = good;
        foreign_generator.generator = "custom".into();
        assert!(!fleet.remotable(&foreign_generator, &def));
    }
}
