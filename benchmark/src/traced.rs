//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! It tunes once per schedule space, takes the candidates the tuning
//! measured — the real candidate distribution — and replays each through
//! the layers by calling their public functions, one root span per
//! candidate and one child span per stage.  Operation counts are fixed
//! (not time-bound) so that every counter repeats exactly.  End-to-end
//! metrics are never taken from this run.

use std::path::Path;
use std::time::Instant;

use atim_autotune::{resolve_generator, SpaceGenerator, TuningRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::baselines;
use crate::check::output_gate;
use crate::fixture::{hit_request, Fixture};
use crate::phases::{
    churn_phase, cold_start_phase, deploy_best, hit_phase, judge_best, micros, millis, request_rng,
    serve_phase, tune_phase, Best, Limit, Sample, Tally, Tuning,
};
use crate::probes;
use crate::registry::Registry;
use crate::report::RunOutput;
use crate::span::Spans;
use crate::spec::{BackendKind, Spec};
use crate::stats::percentile;

const COLD_STARTS: usize = 20;
const HITS: usize = 5000;
const SERVE_REQUESTS: usize = 2000;
const COMPILES: usize = 200;
const CACHE_OPENS: usize = 20;
/// Calls per sample where one call is too short to time alone.
const BATCH: usize = 100;
const BATCHES: usize = 50;

/// Exact counters summed over the traced candidate set.
#[derive(Default)]
struct Counts {
    lowered_nodes: usize,
    bytecode_insts: usize,
    summarized_loops: usize,
    dma_loops_converted: usize,
    checks_removed: usize,
    loops_tightened: usize,
    branches_hoisted: usize,
    transfer_loops_coalesced: usize,
    dpu_instructions: u64,
    latency_sum_s: f64,
}

/// What the sections of a traced run write into.
struct Ledger<'r> {
    out: RunOutput<'r>,
    spans: Spans,
}

impl Ledger<'_> {
    /// One root span per operation a phase timed.
    fn spans_of(&mut self, name: &'static str, layer: &'static str, samples: &[Sample]) {
        for sample in samples {
            self.spans
                .record(None, name, layer, sample.start, sample.end);
        }
    }
}

/// Times `calls` calls of `f`, one sample each, in units of `per_second`
/// per second (1e6: µs).
fn time_calls(calls: usize, per_second: f64, mut f: impl FnMut()) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * per_second
        })
        .collect()
}

pub fn run<'r>(
    spec: &Spec,
    seed: u64,
    registry: &'r Registry,
    tmp: &Path,
    trace_file: &Path,
) -> RunOutput<'r> {
    let mut ledger = Ledger {
        out: RunOutput::new(spec.name, &registry.per_layer),
        spans: Spans::new(),
    };
    let fx = Fixture::build(spec, seed, &tmp.join("setup"));

    // The tunings whose histories are replayed.
    let tuning = tune_phase(&fx, spec, Limit::Count(1), &mut ledger.out.tally);
    candidate_stages(&mut ledger, &fx, spec, &tuning);
    search_stages(&mut ledger, &fx, spec, &tuning, seed);
    let best = deployed_schedule(&mut ledger, &fx, spec, &tuning);
    cache_and_serve(&mut ledger, &fx, spec, seed);
    wire(&mut ledger, &fx, spec, &tuning);

    let best_trace = tuning.tuned[best.space].best_trace();
    let gate = output_gate(
        &fx,
        spec,
        best.space,
        best_trace,
        seed,
        &mut ledger.out.tally,
    );
    ledger
        .out
        .metrics
        .emit("workloads.reference_s", gate.reference_s);
    ledger
        .out
        .metrics
        .emit("core.execute_check_s", gate.execute_s);

    std::fs::create_dir_all(trace_file.parent().expect("trace file has a directory"))
        .and_then(|()| ledger.spans.write_json(trace_file, spec.name))
        .expect("write the trace file");
    ledger.out
}

/// Replays every measured candidate stage by stage under spans, then
/// measures the same candidates through `Session::measure`, untraced: the
/// difference is what the stages do not explain.
fn candidate_stages(ledger: &mut Ledger, fx: &Fixture, spec: &Spec, tuning: &Tuning) {
    let (def, hw) = (&fx.def, &fx.hw);
    let options = fx.judge.compile_options();
    let mut counts = Counts::default();
    for record in tuning.tuned.iter().flat_map(|tuned| tuned.history()) {
        let spans = &mut ledger.spans;
        let root = spans.open(None, "candidate", "core");
        let schedule = spans.timed(Some(root), "tir.apply", "tir", || {
            probes::tir::apply(&record.trace, def)
        });
        let latency_s = if spec.backend == BackendKind::Analytic {
            // The closed-form backend applies the trace and nothing else.
            record.latency_s
        } else {
            let mut lowered = spans.timed(Some(root), "tir.lower", "tir", || {
                probes::tir::lower(&schedule)
            });
            counts.lowered_nodes += probes::tir::lowered_nodes(&lowered);
            let kernel = spans.timed(Some(root), "passes.kernel", "passes", || {
                probes::passes::kernel(&mut lowered, options)
            });
            counts.dma_loops_converted += kernel.dma.loops_converted;
            counts.checks_removed += kernel.dma.checks_removed;
            counts.loops_tightened += kernel.tighten.loops_tightened;
            counts.branches_hoisted += kernel.hoist.branches_hoisted;
            counts.transfer_loops_coalesced +=
                spans.timed(Some(root), "passes.transfer", "passes", || {
                    probes::passes::transfers(&mut lowered, options)
                });
            let programs = spans.timed(Some(root), "tir.bytecode", "tir", || {
                probes::tir::bytecode(&lowered)
            });
            counts.bytecode_insts += programs.insts();
            counts.summarized_loops += programs.summarized_loops();
            let h2d_s = spans.timed(Some(root), "sim.h2d", "sim", || {
                probes::sim::h2d(&programs, &lowered, hw)
            });
            let (kernel_s, instructions) = spans.timed(Some(root), "sim.kernel", "sim", || {
                probes::sim::kernel(&programs, &lowered, hw)
            });
            counts.dpu_instructions += instructions;
            let (d2h_s, reduce_s) = spans.timed(Some(root), "sim.d2h", "sim", || {
                probes::sim::d2h(&programs, &lowered, hw)
            });
            h2d_s + kernel_s + d2h_s + reduce_s
        };
        spans.close(root);
        counts.latency_sum_s += latency_s;
        ledger.out.tally.check(
            latency_s.to_bits() == record.latency_s.to_bits(),
            "the staged replay reproduces the tuner's latency",
        );
    }

    for (metric, stage) in [
        ("tir.apply_us", "tir.apply"),
        ("tir.lower_us", "tir.lower"),
        ("tir.bytecode_us", "tir.bytecode"),
        ("passes.kernel_us", "passes.kernel"),
        ("passes.transfer_us", "passes.transfer"),
        ("sim.h2d_us", "sim.h2d"),
        ("sim.kernel_us", "sim.kernel"),
        ("sim.d2h_us", "sim.d2h"),
    ] {
        let durations = ledger.spans.durations_us(stage);
        ledger.out.timing(metric, &durations);
    }
    for (name, count) in [
        ("tir.lowered_nodes", counts.lowered_nodes),
        ("tir.bytecode_insts", counts.bytecode_insts),
        ("tir.summarized_loops", counts.summarized_loops),
        ("passes.dma_loops_converted", counts.dma_loops_converted),
        ("passes.checks_removed", counts.checks_removed),
        ("passes.loops_tightened", counts.loops_tightened),
        ("passes.branches_hoisted", counts.branches_hoisted),
        (
            "passes.transfer_loops_coalesced",
            counts.transfer_loops_coalesced,
        ),
    ] {
        ledger.out.metrics.emit(name, count as f64);
    }
    ledger
        .out
        .metrics
        .emit("sim.latency_sum_ms", counts.latency_sum_s * 1e3);

    let mut measure_us = Vec::new();
    for (tuner, tuned) in fx.tuners.iter().zip(&tuning.tuned) {
        for record in tuned.history() {
            let started = Instant::now();
            let latency_s = probes::core::measure(tuner, &record.trace, def);
            measure_us.push(started.elapsed().as_secs_f64() * 1e6);
            ledger.out.tally.check(
                latency_s.to_bits() == record.latency_s.to_bits(),
                "measuring a candidate again returns the tuner's latency",
            );
        }
    }
    let measure_sum_us: f64 = measure_us.iter().sum();
    let tune_wall_s = tuning.walls_s[0];
    ledger.out.timing("core.measure_us", &measure_us);
    let metrics = &mut ledger.out.metrics;
    metrics.emit("core.measure_p95_us", percentile(&measure_us, 95.0));
    metrics.emit("core.measure_share", measure_sum_us / 1e6 / tune_wall_s);

    // Host time each layer was busy over the whole candidate set, as a share
    // of the untraced measurements.  Medians hide where the time goes when a
    // few candidates dominate (RED).
    let busy_us = |stages: &[&str]| -> f64 {
        let durations = stages
            .iter()
            .flat_map(|stage| ledger.spans.durations_us(stage));
        durations.sum::<f64>()
    };
    let mut attributed_us = 0.0;
    for (name, stages) in [
        ("tir.share", &["tir.apply", "tir.lower", "tir.bytecode"][..]),
        ("passes.share", &["passes.kernel", "passes.transfer"]),
        ("sim.h2d_share", &["sim.h2d"]),
        ("sim.kernel_share", &["sim.kernel"]),
        ("sim.d2h_share", &["sim.d2h"]),
    ] {
        let busy = busy_us(stages);
        metrics.emit(name, busy / measure_sum_us);
        attributed_us += busy;
    }
    metrics.emit(
        "core.unattributed_share",
        1.0 - attributed_us / measure_sum_us,
    );
    let kernel_host_s = busy_us(&["sim.kernel"]) / 1e6;
    metrics.emit(
        "sim.kernel_minstr_per_s",
        if kernel_host_s > 0.0 {
            counts.dpu_instructions as f64 / 1e6 / kernel_host_s
        } else {
            0.0
        },
    );
}

/// The tuner's counters and its own stages (elaboration, mutation, the
/// verifier, features, both cost models) on this tuning's candidates.
fn search_stages(ledger: &mut Ledger, fx: &Fixture, spec: &Spec, tuning: &Tuning, seed: u64) {
    let (mut measured, mut rejected, mut failed) = (0, 0, 0);
    for tuned in &tuning.tuned {
        measured += tuned.measured();
        rejected += tuned.rejected();
        failed += tuned.failed();
    }
    let metrics = &mut ledger.out.metrics;
    metrics.emit("autotune.measured", measured as f64);
    metrics.emit("autotune.rejected", rejected as f64);
    metrics.emit("autotune.failed", failed as f64);
    metrics.emit(
        "autotune.accept_ratio",
        measured as f64 / (measured + rejected) as f64,
    );
    metrics.emit(
        "autotune.search_us_per_trial",
        tuning.walls_s[0] * 1e6 / measured as f64,
    );

    let mut search = SearchSamples::default();
    for (id, tuned) in spec.generators.iter().zip(&tuning.tuned) {
        let generator = resolve_generator(id).expect("resident generator id");
        search.probe(fx, &*generator, tuned.history(), seed);
    }
    ledger
        .out
        .timing("autotune.elaborate_us", &search.elaborate_us);
    ledger.out.timing("autotune.mutate_us", &search.mutate_us);
    ledger.out.timing("autotune.verify_us", &search.verify_us);
    ledger
        .out
        .timing("autotune.featurize_us", &search.featurize_us);
    ledger
        .out
        .timing("autotune.cost_fit_ms", &search.cost_fit_ms);
    ledger
        .out
        .timing("autotune.cost_predict_us", &search.cost_predict_us);
    ledger.out.timing("model.gbdt_fit_ms", &search.gbdt_fit_ms);
    ledger
        .out
        .timing("model.gbdt_predict_us", &search.gbdt_predict_us);
}

/// The best schedule's simulated breakdown, the PrIM denominator, the cost
/// of compiling it; then deploys it into the cache.
fn deployed_schedule(ledger: &mut Ledger, fx: &Fixture, spec: &Spec, tuning: &Tuning) -> Best {
    let best = judge_best(fx, spec, tuning, &mut ledger.out.tally);
    let metrics = &mut ledger.out.metrics;
    metrics.emit("sim.best_h2d_ms", best.report.h2d_s * 1e3);
    metrics.emit("sim.best_kernel_ms", best.report.kernel_s * 1e3);
    metrics.emit("sim.best_d2h_ms", best.report.d2h_s * 1e3);
    metrics.emit("sim.best_reduce_ms", best.report.reduce_s * 1e3);
    metrics.emit("sim.best_dpus", best.report.num_dpus as f64);
    metrics.emit(
        "baselines.prim_ms",
        baselines::prim_ms(fx, spec, &mut ledger.out.tally),
    );
    let best_trace = tuning.tuned[best.space].best_trace();
    let compile_us = time_calls(COMPILES, 1e6, || {
        probes::core::compile(&fx.judge, best_trace, &fx.def)
    });
    ledger.out.timing("core.compile_us", &compile_us);
    deploy_best(fx, spec, tuning, &mut ledger.out.tally);
    best
}

/// The cache and serve phases at fixed counts, one span per operation, and
/// the schedule cache's own operations.
fn cache_and_serve(ledger: &mut Ledger, fx: &Fixture, spec: &Spec, seed: u64) {
    let mut rng = request_rng(seed);
    let cold = cold_start_phase(fx, spec, Limit::Count(COLD_STARTS), &mut ledger.out.tally);
    ledger.spans_of("core.cold_start", "core", &cold);
    let hits = hit_phase(fx, &mut rng, Limit::Count(HITS), &mut ledger.out.tally);
    ledger.spans_of("core.cached", "core", &hits);
    ledger
        .out
        .metrics
        .emit("core.cached_p99_us", percentile(&micros(&hits), 99.0));

    let served = serve_phase(
        fx,
        &mut rng,
        Limit::Count(SERVE_REQUESTS),
        &mut ledger.out.tally,
    );
    ledger.spans_of("serve.hit", "serve", &served.samples);
    let metrics = &mut ledger.out.metrics;
    metrics.emit(
        "serve.hit_p99_us",
        percentile(&micros(&served.samples), 99.0),
    );
    metrics.emit("serve.requests", served.requests as f64);
    metrics.emit("serve.cache_hits", served.cache_hits as f64);

    let churn = churn_phase(fx, spec, &mut rng, Limit::Count(1), &mut ledger.out.tally);
    ledger.spans_of("autotune.cache_record", "autotune", &churn.records);
    ledger.spans_of("autotune.cache_compact", "autotune", &churn.compacts);
    ledger
        .out
        .timing("autotune.cache_compact_ms", &millis(&churn.compacts));
    ledger
        .out
        .metrics
        .emit("autotune.cache_file_bytes", churn.file_bytes as f64);

    let opens = time_calls(CACHE_OPENS, 1e3, || {
        std::hint::black_box(probes::autotune::cache_open(&fx.cache_path));
    });
    ledger.out.timing("autotune.cache_open_ms", &opens);
    let lookups = lookup_us(fx, &mut rng, &mut ledger.out.tally);
    ledger.out.timing("autotune.cache_lookup_us", &lookups);
}

/// Frame encoding and decoding of the messages of one cache-hit exchange
/// and one measurement job.
fn wire(ledger: &mut Ledger, fx: &Fixture, spec: &Spec, tuning: &Tuning) {
    let tuned = &tuning.tuned[0];
    let messages = probes::wire::messages(
        hit_request(&spec.workload),
        &fx.def,
        spec.generators[0],
        tuned.best_trace(),
        tuned.best_latency_s(),
    );
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let mut frame_bytes = 0;
    for _ in 0..SERVE_REQUESTS {
        let started = Instant::now();
        let frames = probes::wire::encode(&messages);
        encode_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let round_trips = probes::wire::decode(&frames, &messages);
        decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        ledger
            .out
            .tally
            .check(round_trips, "frames decode to the messages they encode");
        frame_bytes = frames.iter().map(Vec::len).sum();
    }
    ledger.out.timing("wire.encode_us", &encode_us);
    ledger.out.timing("wire.decode_us", &decode_us);
    ledger
        .out
        .metrics
        .emit("wire.frame_bytes", frame_bytes as f64);
}

/// Per-call samples of the search-side stages, pooled over the spec's
/// schedule spaces.
#[derive(Default)]
struct SearchSamples {
    elaborate_us: Vec<f64>,
    mutate_us: Vec<f64>,
    verify_us: Vec<f64>,
    featurize_us: Vec<f64>,
    cost_fit_ms: Vec<f64>,
    cost_predict_us: Vec<f64>,
    gbdt_fit_ms: Vec<f64>,
    gbdt_predict_us: Vec<f64>,
}

impl SearchSamples {
    /// Elaborates and mutates as many candidates as the tuning measured,
    /// verifies both (rejects included, as in the search), then refits both
    /// cost models on the tuning's own samples, round by round.
    fn probe(
        &mut self,
        fx: &Fixture,
        generator: &dyn SpaceGenerator,
        history: &[TuningRecord],
        seed: u64,
    ) {
        let (def, hw) = (&fx.def, &fx.hw);
        let us = |started: Instant| started.elapsed().as_secs_f64() * 1e6;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(history.len());
        for (index, record) in history.iter().enumerate() {
            let started = Instant::now();
            let sampled = probes::autotune::sample(generator, &mut rng, def, hw, index);
            probes::autotune::materialize(generator, &sampled, def, hw);
            self.elaborate_us.push(us(started));
            let started = Instant::now();
            let mutated = probes::autotune::mutate(generator, &mut rng, def, hw, &record.trace);
            self.mutate_us.push(us(started));
            for candidate in [&sampled, &mutated] {
                let started = Instant::now();
                std::hint::black_box(probes::autotune::verify(candidate, def, hw));
                self.verify_us.push(us(started));
            }
            let started = Instant::now();
            let features = probes::autotune::features(&record.trace, def, hw);
            self.featurize_us.push(us(started));
            samples.push((features, record.latency_s));
        }

        // One refit per search round on the cumulative samples.
        let round = 16;
        let mut gbdt = probes::model::new();
        for seen in (round..=samples.len()).step_by(round) {
            let started = Instant::now();
            std::hint::black_box(probes::autotune::cost_fit(&samples[..seen]));
            self.cost_fit_ms.push(us(started) / 1e3);
            let started = Instant::now();
            probes::model::fit(&mut gbdt, &samples[..seen]);
            self.gbdt_fit_ms.push(us(started) / 1e3);
        }
        let ridge = probes::autotune::cost_fit(&samples);
        for _ in 0..BATCHES {
            let started = Instant::now();
            probes::autotune::cost_predict_all(&ridge, &samples);
            self.cost_predict_us
                .push(us(started) / samples.len() as f64);
            let started = Instant::now();
            probes::model::predict_all(&gbdt, &samples);
            self.gbdt_predict_us
                .push(us(started) / samples.len() as f64);
        }
    }
}

/// `lookup_verified` alone, in batches of [`BATCH`] over seeded keys.
fn lookup_us(fx: &Fixture, rng: &mut StdRng, tally: &mut Tally) -> Vec<f64> {
    let cache = fx
        .deploy
        .schedule_cache()
        .expect("deploy session has a cache");
    let cache = cache.lock().expect("cache lock");
    let generator = &**fx.deploy.space_generator();
    (0..BATCHES)
        .map(|_| {
            let probes: Vec<_> = (0..BATCH)
                .map(|_| {
                    let def = &fx.seeded[rng.gen_range(0..fx.seeded.len())].def;
                    let expected = probes::autotune::expected_structure(generator, def, &fx.hw);
                    (fx.deploy.cache_key(def), expected)
                })
                .collect();
            let started = Instant::now();
            let hits = probes
                .iter()
                .filter(|(key, expected)| probes::autotune::cache_lookup(&cache, key, expected))
                .count();
            let us = started.elapsed().as_secs_f64() * 1e6 / BATCH as f64;
            tally.check(hits == BATCH, "verified lookups hit every seeded key");
            us
        })
        .collect()
}
