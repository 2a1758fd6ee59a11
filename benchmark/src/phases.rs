//! The phases of a workload's lifecycle.  Each one is a closed loop with one
//! client: the next operation starts when the previous one has returned.
//! Phases know nothing about tracing; they return wall-clock samples, which
//! the traced run turns into spans afterwards.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atim_autotune::{CacheEntry, ScheduleCache};
use atim_core::TunedModule;
use atim_sim::ExecutionReport;
use atim_workloads::{Workload, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{hit_request, session_builder, Fixture};
use crate::spec::{BackendKind, Spec, TUNE_SEED};

/// The request-order RNG of a run, a stream apart from the one that seeds
/// the cache population.
pub fn request_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15)
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
}

impl Sample {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

pub fn micros(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.secs() * 1e6).collect()
}

pub fn millis(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.secs() * 1e3).collect()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let start = Instant::now();
    let out = f();
    (
        out,
        Sample {
            start,
            end: Instant::now(),
        },
    )
}

/// When a phase stops: the end-to-end run gives each phase a share of
/// `--seconds`, the traced run fixed counts so its counters repeat exactly.
/// Every phase performs at least one operation.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Until the time is spent, or `cap` operations were made.
    Time {
        budget: Duration,
        cap: usize,
    },
    Count(usize),
}

impl Limit {
    fn reached(&self, started: Instant, done: usize) -> bool {
        if done == 0 {
            return false;
        }
        match *self {
            Limit::Time { budget, cap } => done >= cap || started.elapsed() >= budget,
            Limit::Count(n) => done >= n,
        }
    }
}

/// Operations attempted and failed, and whether every output checked out.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub incorrect: bool,
}

impl Tally {
    /// Counts one operation of the program.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perf_ledger: FAILED operation: {what}");
        }
    }

    /// Counts one check of the program's output.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.op(ok, what);
        self.incorrect |= !ok;
    }
}

/// The tuning phase's result: wall-clock per repetition (summed over the
/// spec's schedule spaces) and the first repetition's module per space.
pub struct Tuning {
    pub walls_s: Vec<f64>,
    pub tuned: Vec<TunedModule>,
}

/// Repeats `Session::tune` over the spec's schedule spaces.  Every
/// repetition runs the same search, so it must return the same best trace
/// and the bit-identical latency.
pub fn tune_phase(fx: &Fixture, spec: &Spec, limit: Limit, tally: &mut Tally) -> Tuning {
    let started = Instant::now();
    let mut out = Tuning {
        walls_s: Vec::new(),
        tuned: Vec::new(),
    };
    while !limit.reached(started, out.walls_s.len()) {
        let mut wall = 0.0;
        for (space, tuner) in fx.tuners.iter().enumerate() {
            let (tuned, sample) = timed(|| tuner.tune(&fx.def, &spec.tune));
            let tuned = tuned.expect("valid tuning options");
            wall += sample.secs();
            tally.attempted += (tuned.measured() + tuned.failed()) as u64;
            tally.failed += tuned.failed() as u64;
            match out.tuned.get(space) {
                None => out.tuned.push(tuned),
                Some(first) => tally.check(
                    first.best_trace() == tuned.best_trace()
                        && first.best_latency_s().to_bits() == tuned.best_latency_s().to_bits(),
                    "repeated tuning returns the identical best trace and latency",
                ),
            }
        }
        out.walls_s.push(wall);
    }
    out
}

/// The best schedule over the spec's spaces, re-timed on the simulator.
pub struct Best {
    /// Index into the spec's generators.
    pub space: usize,
    pub report: ExecutionReport,
}

/// Re-times every space's best trace via `Session::compile` +
/// `Session::time` on the simulator and keeps the fastest.  Where the tuning
/// itself measured on the simulator, the re-timed latency must be the
/// tuner's, bit for bit.
pub fn judge_best(fx: &Fixture, spec: &Spec, tuning: &Tuning, tally: &mut Tally) -> Best {
    let mut best: Option<Best> = None;
    for (space, tuned) in tuning.tuned.iter().enumerate() {
        let report = fx
            .judge
            .compile(tuned.best_trace(), &fx.def)
            .and_then(|module| fx.judge.time(&module));
        tally.op(
            report.is_ok(),
            "the best trace compiles and runs on the simulator",
        );
        let Ok(report) = report else { continue };
        if spec.backend == BackendKind::Sim {
            tally.check(
                report.total_s().to_bits() == tuned.best_latency_s().to_bits(),
                "the re-timed best latency equals the tuner's",
            );
        }
        if best
            .as_ref()
            .map_or(true, |b| report.total_s() < b.report.total_s())
        {
            best = Some(Best { space, report });
        }
    }
    best.expect("at least one space's best trace runs")
}

/// Records the deployed space's best schedule into the cache file, then
/// checks that the in-process lookup and the server both answer with it.
pub fn deploy_best(fx: &Fixture, spec: &Spec, tuning: &Tuning, tally: &mut Tally) {
    let tuned = &tuning.tuned[0];
    let entry = CacheEntry {
        key: fx.deploy.cache_key(&fx.def),
        trace: tuned.best_trace().clone(),
        latency_s: tuned.best_latency_s(),
        seed: TUNE_SEED,
    };
    let cache = fx
        .deploy
        .schedule_cache()
        .expect("deploy session has a cache");
    let recorded = cache.lock().expect("cache lock").record(entry);
    tally.op(matches!(recorded, Ok(true)), "record the tuned schedule");
    let hit = fx.deploy.cached(&fx.def);
    tally.check(
        hit.is_some_and(|h| {
            h.best_trace() == tuned.best_trace()
                && h.best_latency_s().to_bits() == tuned.best_latency_s().to_bits()
        }),
        "the cache resolves the tuned schedule",
    );
    let reply = fx.client.tune(&hit_request(&spec.workload));
    tally.check(
        reply.is_ok_and(|r| {
            r.cache_hit && r.latency_s.to_bits() == tuned.best_latency_s().to_bits()
        }),
        "the server resolves the tuned schedule",
    );
}

/// Cold starts: a fresh `Session` opens the cache file, resolves the hot
/// operators and compiles each — what a deployed program pays before its
/// first kernel launch.
pub fn cold_start_phase(fx: &Fixture, spec: &Spec, limit: Limit, tally: &mut Tally) -> Vec<Sample> {
    let defs = fx.cold_start_defs();
    let started = Instant::now();
    let mut samples = Vec::new();
    while !limit.reached(started, samples.len()) {
        let (ok, sample) = timed(|| {
            let session = session_builder(&fx.hw, fx.deploy.space_generator(), spec.backend)
                .schedule_cache(&fx.cache_path)
                .build();
            defs.iter().all(|def| {
                session
                    .cached(def)
                    .is_some_and(|hit| session.compile(hit.best_trace(), def).is_ok())
            })
        });
        tally.op(ok, "cold start resolves and compiles every hot operator");
        samples.push(sample);
    }
    samples
}

/// In-process `Session::cached` hits over the whole seeded population, in
/// seeded order.
pub fn hit_phase(fx: &Fixture, rng: &mut StdRng, limit: Limit, tally: &mut Tally) -> Vec<Sample> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while !limit.reached(started, samples.len()) {
        let entry = &fx.seeded[rng.gen_range(0..fx.seeded.len())];
        let (hit, sample) = timed(|| fx.deploy.cached(&entry.def));
        tally.check(
            hit.is_some_and(|h| h.best_latency_s().to_bits() == entry.latency_s.to_bits()),
            "cached lookup returns the seeded entry",
        );
        samples.push(sample);
    }
    samples
}

/// The serve phase's samples and what the server counted meanwhile.
pub struct Served {
    pub samples: Vec<Sample>,
    pub requests: usize,
    pub cache_hits: usize,
}

/// `Client::tune` hits against the in-process server, one TCP connection
/// per request; the server's own counters must grow by exactly the requests
/// sent.  Keep `limit` at or below a few thousand requests per server:
/// closed connections linger in TIME_WAIT.
pub fn serve_phase(fx: &Fixture, rng: &mut StdRng, limit: Limit, tally: &mut Tally) -> Served {
    let before = fx.server().stats();
    let started = Instant::now();
    let mut samples = Vec::new();
    while !limit.reached(started, samples.len()) {
        let entry = &fx.seeded[rng.gen_range(0..fx.seeded.len())];
        let request = hit_request(&entry.workload);
        let (reply, sample) = timed(|| fx.client.tune(&request));
        tally.check(
            reply.is_ok_and(|r| r.cache_hit && r.latency_s.to_bits() == entry.latency_s.to_bits()),
            "server answers the seeded entry from the cache",
        );
        samples.push(sample);
    }
    let after = fx.server().stats();
    let served = Served {
        requests: after.requests - before.requests,
        cache_hits: after.cache_hits - before.cache_hits,
        samples,
    };
    tally.check(
        served.requests == served.samples.len() && served.cache_hits == served.samples.len(),
        "the server counted every request as a cache hit",
    );
    served
}

/// Samples of the churn phase; one `blocks`/`compacts`/`reopens` element
/// per repetition.
#[derive(Default)]
pub struct Churn {
    pub records: Vec<Sample>,
    /// The whole block: lookups, records, compaction and reopen.
    pub blocks: Vec<Sample>,
    pub compacts: Vec<Sample>,
    pub reopens: Vec<Sample>,
    /// Size of the compacted file.
    pub file_bytes: u64,
}

/// Cache churn on a fresh copy of the cache file per repetition: a block of
/// `spec.churn_block` operations, four `Session::cached` lookups to one
/// `ScheduleCache::record` (alternating new keys and improvements of
/// existing ones, each appended to the file), then `compact` and re-`open`.
pub fn churn_phase(
    fx: &Fixture,
    spec: &Spec,
    rng: &mut StdRng,
    limit: Limit,
    tally: &mut Tally,
) -> Churn {
    let started = Instant::now();
    let mut out = Churn::default();
    while !limit.reached(started, out.blocks.len()) {
        let path = fx.scratch(&format!("churn_{}.jsonl", out.blocks.len()));
        std::fs::copy(&fx.cache_path, &path).expect("copy the cache file");
        let cache = ScheduleCache::open(&path).expect("open the copied cache");
        let keys_before = cache.len();
        let cache = Arc::new(Mutex::new(cache));
        let session = session_builder(&fx.hw, fx.deploy.space_generator(), spec.backend)
            .schedule_cache_shared(Arc::clone(&cache))
            .build();

        // Prepared outside the timed block: sampling a trace is the
        // generator's work, not the cache's.
        let mut latency: Vec<f64> = fx.seeded.iter().map(|s| s.latency_s).collect();
        let records = planned_records(
            fx,
            &session,
            spec.churn_block / 5,
            &mut latency.clone(),
            rng,
        );
        let new_keys = records
            .iter()
            .filter(|(improves, _)| improves.is_none())
            .count();
        let mut records = records.into_iter();

        let block_start = Instant::now();
        for op in 0..spec.churn_block {
            if op % 5 == 4 {
                let (improves, entry) = records.next().expect("one record per five operations");
                if let Some(index) = improves {
                    latency[index] = entry.latency_s;
                }
                let (recorded, sample) = timed(|| cache.lock().expect("cache lock").record(entry));
                tally.op(
                    matches!(recorded, Ok(true)),
                    "record wins its key and is appended",
                );
                out.records.push(sample);
            } else {
                let index = rng.gen_range(0..fx.seeded.len());
                let hit = session.cached(&fx.seeded[index].def);
                tally.check(
                    hit.is_some_and(|h| h.best_latency_s().to_bits() == latency[index].to_bits()),
                    "lookup under churn returns the key's current best",
                );
            }
        }
        let (compacted, compact) = timed(|| cache.lock().expect("cache lock").compact());
        tally.op(compacted.is_ok(), "compact the cache file");
        let (reopened, reopen) = timed(|| ScheduleCache::open(&path));
        out.blocks.push(Sample {
            start: block_start,
            end: reopen.end,
        });
        out.compacts.push(compact);
        out.reopens.push(reopen);

        let survived = reopened.is_ok_and(|reopened| {
            reopened.len() == keys_before + new_keys
                && fx.seeded.iter().zip(&latency).all(|(seeded, best)| {
                    reopened
                        .lookup(&session.cache_key(&seeded.def))
                        .is_some_and(|e| e.latency_s.to_bits() == best.to_bits())
                })
        });
        tally.check(
            survived,
            "the compacted file reopens with every key's best entry",
        );
        out.file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    out
}

/// `count` entries to record, alternating a new key and an improvement of a
/// seeded key (`Some(index)`, with a latency just below the key's current
/// best as tracked in `latency`).
fn planned_records(
    fx: &Fixture,
    session: &atim_core::Session,
    count: usize,
    latency: &mut [f64],
    rng: &mut StdRng,
) -> Vec<(Option<usize>, CacheEntry)> {
    let cache = session.schedule_cache().expect("churn session has a cache");
    let cache = cache.lock().expect("cache lock");
    (0..count)
        .map(|j| {
            if j % 2 == 0 {
                // Seeded shapes stay at or below 2048 per axis.
                let def =
                    Workload::new(WorkloadKind::Mtv, vec![2056 + 8 * j as i64, 64]).compute_def();
                let trace = session.space_generator().sample(rng, &def, &fx.hw, false);
                let entry = CacheEntry {
                    key: session.cache_key(&def),
                    trace,
                    latency_s: 1e-3,
                    seed: TUNE_SEED,
                };
                (None, entry)
            } else {
                let index = rng.gen_range(0..fx.seeded.len());
                let key = session.cache_key(&fx.seeded[index].def);
                latency[index] *= 0.999;
                let entry = CacheEntry {
                    trace: cache.lookup(&key).expect("seeded key").trace.clone(),
                    key,
                    latency_s: latency[index],
                    seed: TUNE_SEED,
                };
                (Some(index), entry)
            }
        })
        .collect()
}
