//! Set-up of one workload: sessions, the seeded schedule-cache file, the
//! in-process server.  Building a [`Fixture`] is what `setup_s` times.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use atim_autotune::{
    resolve_generator, CacheEntry, CostModelKind, ScheduleCache, SpaceGenerator, TuningOptions,
};
use atim_core::{AnalyticBackend, Session, SessionBuilder};
use atim_serve::{serve, Client, ServeOptions, ServerHandle, TuneRequest};
use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_workloads::{Workload, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{BackendKind, Spec};

/// Measurement threads of every simulator session: the box has two cores,
/// and nothing else in the benchmark spawns load threads.
pub const MEASURE_THREADS: usize = 2;

/// Entries a cold start resolves and compiles: the tuned operator and the
/// first seeded entries.
pub const COLD_START_SHAPES: usize = 16;

/// One seeded schedule-cache entry.
pub struct Seeded {
    pub workload: Workload,
    pub def: ComputeDef,
    pub latency_s: f64,
}

/// Everything the phases of one workload run against.
pub struct Fixture {
    pub hw: UpmemConfig,
    pub def: ComputeDef,
    /// One cache-less tuning session per schedule space of the spec.
    pub tuners: Vec<Session>,
    /// A simulator session on the deployed space: re-times and executes
    /// best traces whatever backend the tuning measured on.
    pub judge: Session,
    /// The deployed space and backend with the cache file attached; the
    /// server serves a clone of it.
    pub deploy: Session,
    pub cache_path: PathBuf,
    pub seeded: Vec<Seeded>,
    server: Option<ServerHandle>,
    pub client: Client,
    dir: PathBuf,
}

impl Fixture {
    /// Sets one workload up under `dir` (created, and removed on drop).
    pub fn build(spec: &Spec, seed: u64, dir: &Path) -> Fixture {
        std::fs::create_dir_all(dir).expect("create the run's temp dir");
        let hw = UpmemConfig::default();
        let def = spec.workload.compute_def();
        let generators: Vec<Arc<dyn SpaceGenerator>> = spec
            .generators
            .iter()
            .map(|id| resolve_generator(id).expect("resident generator id"))
            .collect();
        let tuners: Vec<Session> = generators
            .iter()
            .map(|g| session_builder(&hw, g, spec.backend).build())
            .collect();
        let judge = session_builder(&hw, &generators[0], BackendKind::Sim).build();

        let cache_path = dir.join("schedule_cache.jsonl");
        let seeded = seed_cache_file(&cache_path, &tuners[0], spec, seed);
        let deploy = session_builder(&hw, &generators[0], spec.backend)
            .schedule_cache(&cache_path)
            .build();
        let server = serve(deploy.clone(), "127.0.0.1:0", ServeOptions::default())
            .expect("bind the in-process server");
        let client = Client::new(server.addr());

        let fixture = Fixture {
            hw,
            def,
            tuners,
            judge,
            deploy,
            cache_path,
            seeded,
            server: Some(server),
            client,
            dir: dir.to_path_buf(),
        };
        fixture.warm_up(spec);
        fixture
    }

    /// Touches every path once before anything is timed: a short tuning per
    /// space, and hits in-process and through the server.
    fn warm_up(&self, spec: &Spec) {
        let options = TuningOptions {
            trials: spec.tune.trials.min(128),
            ..spec.tune.clone()
        };
        for tuner in &self.tuners {
            tuner
                .tune(&self.def, &options)
                .expect("valid tuning options");
        }
        for entry in self.seeded.iter().take(8) {
            assert!(
                self.deploy.cached(&entry.def).is_some(),
                "seeded entry must hit"
            );
            let reply = self.client.tune(&hit_request(&entry.workload));
            assert!(
                reply.expect("server reply").cache_hit,
                "seeded entry must hit"
            );
        }
    }

    pub fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server runs until drop")
    }

    /// A scratch file path inside the fixture's temp dir.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The operators a cold start resolves: the tuned one, then seeded ones.
    pub fn cold_start_defs(&self) -> Vec<&ComputeDef> {
        std::iter::once(&self.def)
            .chain(self.seeded.iter().map(|s| &s.def))
            .take(COLD_START_SHAPES)
            .collect()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A session builder with every knob a session would otherwise read from an
/// `ATIM_*` variable set explicitly.
pub fn session_builder(
    hw: &UpmemConfig,
    generator: &Arc<dyn SpaceGenerator>,
    backend: BackendKind,
) -> SessionBuilder {
    let builder = Session::builder()
        .hardware(hw.clone())
        .measure_threads(MEASURE_THREADS)
        .space_generator_arc(Arc::clone(generator))
        .cost_model(CostModelKind::Ridge);
    match backend {
        BackendKind::Sim => builder,
        BackendKind::Analytic => builder.backend(AnalyticBackend::new(hw.clone())),
    }
}

/// A request that a cached entry answers.  The budget is tiny so that a
/// miss — a bug — comes back quickly, as `cache_hit: false`.
pub fn hit_request(workload: &Workload) -> TuneRequest {
    TuneRequest {
        trials: 4,
        population: 4,
        measure_per_round: 4,
        ..TuneRequest::new(workload.kind.name(), workload.shape.clone())
    }
}

/// Writes `spec.cache_entries` distinct MTV shapes — none of them the spec's
/// own operator, whose tuned schedule is deployed under its key later — into
/// a fresh cache file through `ScheduleCache::record`, under `session`'s
/// cache coordinates.  The
/// entries a cold start compiles carry their space's default sketch — a
/// deployed cache holds tuned schedules, never unverified ones, and the
/// compile cost then varies with the seeded shape alone; the rest of the
/// population is sampled from the space.
fn seed_cache_file(path: &Path, session: &Session, spec: &Spec, seed: u64) -> Vec<Seeded> {
    let entries = spec.cache_entries;
    let mut rng = StdRng::seed_from_u64(seed);
    let hw = session.hardware().clone();
    let generator = session.space_generator();
    let mut cache = ScheduleCache::open(path).expect("fresh cache file");
    let mut shapes = std::collections::HashSet::from([spec.workload.shape.clone()]);
    let mut seeded = Vec::with_capacity(entries);
    while seeded.len() < entries {
        let shape = vec![8 * rng.gen_range(8..=256i64), 8 * rng.gen_range(8..=256i64)];
        if !shapes.insert(shape.clone()) {
            continue;
        }
        let workload = Workload::new(WorkloadKind::Mtv, shape);
        let def = workload.compute_def();
        let trace = if seeded.len() < COLD_START_SHAPES {
            let sketches = generator.sketches(&def, &hw);
            sketches.into_iter().next().expect("the space has a sketch")
        } else {
            let with_rfactor = rng.gen_bool(0.5);
            generator.sample(&mut rng, &def, &hw, with_rfactor)
        };
        let latency_s = 1e-4 * (1.0 + rng.gen_range(0..10_000) as f64 / 1e3);
        let entry = CacheEntry {
            key: session.cache_key(&def),
            trace,
            latency_s,
            seed,
        };
        cache.record(entry).expect("append to the cache file");
        seeded.push(Seeded {
            workload,
            def,
            latency_s,
        });
    }
    seeded
}
