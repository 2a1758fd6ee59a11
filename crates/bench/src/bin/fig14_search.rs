//! Fig. 14 — autotuning efficiency of the balanced sampling and adaptive
//! ε-greedy strategies, individually and combined, against TVM's default
//! evolutionary search (§7.4), swept under **both cost estimators** (the
//! resident ridge regression and the gradient-boosted trees from
//! `atim-model`).
//!
//! Streams the best-so-far throughput (GFLOPS) every few trials for each
//! estimator × strategy pair *as tuning progresses* — each pair runs as a
//! [`TuningSession`] with a [`TuningObserver`] printing records the moment
//! they are measured — plus the wall-clock tuning cost of each sweep.
//! Candidates are measured by the batch-parallel simulator backend
//! (`ATIM_MEASURE_THREADS` workers); each sweep gets a *fresh* measurer so
//! the per-sweep wall-clock numbers are comparable (no memo carry-over
//! between sweeps).  Use `ATIM_TRIALS` to change the budget (default 200;
//! the paper uses 1000), and `ATIM_COST_MODEL=ridge|gbdt` to restrict the
//! sweep to one estimator.

use atim_autotune::search::SearchStrategy;
use atim_autotune::session::{Budget, TuningObserver, TuningSession};
use atim_autotune::{CostModelKind, MemoMeasurer, TuningOptions, TuningRecord};
use atim_core::prelude::*;
use atim_model::GbdtModel;
use std::time::Instant;

/// Streams `estimator,strategy,trial,best_gflops` lines while the search
/// runs.
struct ConvergenceStream {
    estimator: &'static str,
    name: &'static str,
    flops: f64,
    step: usize,
    last: Option<TuningRecord>,
}

impl TuningObserver for ConvergenceStream {
    fn on_trial(&mut self, record: &TuningRecord) {
        if record.trial % self.step == 0 {
            println!(
                "{},{},{},{:.2}",
                self.estimator,
                self.name,
                record.trial,
                self.flops / record.best_so_far_s / 1e9
            );
        }
        self.last = Some(record.clone());
    }
}

fn main() {
    let session = atim_bench::session();
    let trials = atim_bench::trials_from_env_or(200);
    let def = ComputeDef::gemv("gemv", 4096, 4096, 1.0);
    let flops = def.total_flops() as f64;

    let estimators: Vec<CostModelKind> = match CostModelKind::from_env() {
        Ok(Some(kind)) => vec![kind],
        Ok(None) => vec![CostModelKind::Ridge, CostModelKind::Gbdt],
        Err(e) => panic!("{e}"),
    };
    let strategies = [
        ("None (default TVM)", SearchStrategy::tvm_default()),
        (
            "Balanced sampling",
            SearchStrategy {
                balanced_sampling: true,
                adaptive_epsilon: false,
                ..SearchStrategy::default()
            },
        ),
        (
            "Adaptive epsilon-greedy",
            SearchStrategy {
                balanced_sampling: false,
                adaptive_epsilon: true,
                ..SearchStrategy::default()
            },
        ),
        ("All (ATiM)", SearchStrategy::default()),
    ];

    println!(
        "# Fig 14: best-so-far GFLOPS vs number of trials (GEMV 4096x4096), {} measurement threads",
        atim_core::measure::default_measure_threads()
    );
    println!("estimator,strategy,trial,best_gflops");
    for &estimator in &estimators {
        for (name, strategy) in &strategies {
            let options = TuningOptions {
                trials,
                population: 64,
                measure_per_round: 16,
                seed: 0xF19,
                strategy: strategy.clone(),
            };
            // Fresh measurer per sweep: the cross-round memo still speeds up
            // re-proposed candidates *within* a sweep, but no measurement
            // cost leaks between sweeps, keeping the wall-clock lines
            // comparable.
            let mut tuning = TuningSession::new(&def, session.hardware(), &options)
                .expect("harness tuning options are valid");
            let mut backend = BackendMeasurer::new(
                session.backend(),
                &def,
                tuning.generator().name(),
                options.seed,
            );
            let mut measurer = MemoMeasurer::new(&mut backend);
            if estimator == CostModelKind::Gbdt {
                tuning = tuning.with_cost_estimator(Box::new(GbdtModel::default()));
            }
            let mut stream = ConvergenceStream {
                estimator: estimator.name(),
                name,
                flops,
                step: (trials / 20).max(1),
                last: None,
            };
            let start = Instant::now();
            let result = tuning.run(&mut measurer, &Budget::unlimited(), &mut stream);
            let wall_s = start.elapsed().as_secs_f64();
            if let Some(last) = stream.last.take().filter(|r| r.trial % stream.step != 0) {
                println!(
                    "{},{name},{},{:.2}",
                    estimator.name(),
                    last.trial,
                    flops / last.best_so_far_s / 1e9
                );
            }
            println!(
                "# {}/{name}: wall-clock {wall_s:.2}s for {} measured + {} failed trials \
                 ({} distinct configs, {} memo hits)",
                estimator.name(),
                result.measured,
                result.failed,
                measurer.cache_len(),
                measurer.cache_hits()
            );
        }
    }
}
