//! `atim-autotune`: sketch elaboration, mutation, the verifier, features,
//! the ridge cost model and the schedule cache.

use std::path::Path;

use atim_autotune::{
    featurize, sketch_structure_hash, verify_trace, CacheKey, CostModel, ScheduleCache,
    SpaceGenerator, Trace, NUM_FEATURES,
};
use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use rand::rngs::StdRng;

pub type Sample = ([f64; NUM_FEATURES], f64);

/// `SpaceGenerator::sample`, alternating the rfactor space like the tuner.
pub fn sample(
    generator: &dyn SpaceGenerator,
    rng: &mut StdRng,
    def: &ComputeDef,
    hw: &UpmemConfig,
    index: usize,
) -> Trace {
    generator.sample(
        rng,
        def,
        hw,
        generator.supports_rfactor(def) && index % 2 == 0,
    )
}

/// `SpaceGenerator::materialize` of the candidate's decisions alone, as
/// when a trace comes back from a log, the cache or the wire.
pub fn materialize(
    generator: &dyn SpaceGenerator,
    trace: &Trace,
    def: &ComputeDef,
    hw: &UpmemConfig,
) {
    let decisions = Trace::from_decisions(trace.sketch(), trace.decisions());
    let trace = generator.materialize(&decisions, def, hw);
    std::hint::black_box(trace.expect("a sampled candidate re-materializes"));
}

/// `SpaceGenerator::mutate`.
pub fn mutate(
    generator: &dyn SpaceGenerator,
    rng: &mut StdRng,
    def: &ComputeDef,
    hw: &UpmemConfig,
    base: &Trace,
) -> Trace {
    generator.mutate(rng, def, hw, base)
}

/// `verify_trace` (apply + lower + resource checks); whether it accepted.
pub fn verify(trace: &Trace, def: &ComputeDef, hw: &UpmemConfig) -> bool {
    verify_trace(trace, def, hw).is_ok()
}

/// `featurize`.
pub fn features(trace: &Trace, def: &ComputeDef, hw: &UpmemConfig) -> [f64; NUM_FEATURES] {
    featurize(trace, def, hw)
}

/// `CostModel::train` from scratch, as the tuner does after every round.
pub fn cost_fit(samples: &[Sample]) -> CostModel {
    let mut model = CostModel::new();
    model.train(samples);
    model
}

/// `CostModel::predict` for a batch of candidates.
pub fn cost_predict_all(model: &CostModel, samples: &[Sample]) {
    for (features, _) in samples {
        std::hint::black_box(model.predict(features));
    }
}

/// `ScheduleCache::open`: read and merge the whole file.
pub fn cache_open(path: &Path) -> ScheduleCache {
    ScheduleCache::open(path).expect("the cache file opens")
}

/// The structure hash `lookup_verified` expects for `def` in a space.
pub fn expected_structure(
    generator: &dyn SpaceGenerator,
    def: &ComputeDef,
    hw: &UpmemConfig,
) -> String {
    let sketch = generator.sketches(def, hw).into_iter().next();
    sketch_structure_hash(&sketch.expect("the space has a sketch"))
}

/// `ScheduleCache::lookup_verified` alone: no generator, no materialization.
pub fn cache_lookup(cache: &ScheduleCache, key: &CacheKey, expected: &str) -> bool {
    matches!(cache.lookup_verified(key, expected), Ok(Some(_)))
}
