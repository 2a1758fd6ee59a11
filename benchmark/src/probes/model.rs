//! `atim-model`: the gradient-boosted cost model.

use atim_autotune::{CostEstimator, NUM_FEATURES};
use atim_model::GbdtModel;

pub type Sample = ([f64; NUM_FEATURES], f64);

/// A fresh model with the default hyperparameters.
pub fn new() -> GbdtModel {
    GbdtModel::default()
}

/// One online update, as the tuner issues after every round with the
/// cumulative sample set.
pub fn fit(model: &mut GbdtModel, samples: &[Sample]) {
    model.fit(samples);
}

/// Predictions for a batch of candidates.
pub fn predict_all(model: &GbdtModel, samples: &[Sample]) {
    for (features, _) in samples {
        std::hint::black_box(model.predict(features));
    }
}
