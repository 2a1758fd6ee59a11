//! The resumable tuning session: Fig. 6's loop split into inspectable steps.
//!
//! [`TuningSession`] owns the search state (design space, RNG, candidate
//! database, cost model, history) and exposes the loop one round at a time:
//! [`TuningSession::next_batch`] generates, verifies and ranks the next
//! round's candidates, the caller measures them however it likes, and
//! [`TuningSession::record_outcomes`] feeds the results back.  The
//! convenience driver [`TuningSession::run`] ties the two together with a
//! [`Measurer`], a [`Budget`] (trial, wall-clock and early-stop limits) and a
//! [`TuningObserver`] that streams progress as it happens.
//!
//! Because the session never hides its state behind a blocking call, a
//! caller can pause between rounds, persist the history to a
//! [`crate::log::TuneLog`], change the measurement backend, or stop on any
//! condition the [`Budget`] does not already cover.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost_model::{featurize, CostEstimator, CostModel, NUM_FEATURES};
use crate::generator::{SpaceGenerator, UpmemSketchGenerator};
use crate::search::CandidateDb;
use crate::trace::Trace;
use crate::tuner::{
    CancelToken, Cancellation, MeasureOutcome, Measurer, TuningOptions, TuningRecord, TuningResult,
};
use crate::verifier::verify_trace;

/// A typed error raised when a tuning session is configured incorrectly.
///
/// Every variant is detected *at session start* ([`TuningSession::new`]), so
/// an invalid configuration can never silently mis-loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuningError {
    /// `trials` was zero: the session would never measure anything.
    ZeroTrials,
    /// `population` was zero: no candidates would ever be generated.
    ZeroPopulation,
    /// `measure_per_round` was zero: rounds would never consume the budget.
    ZeroMeasurePerRound,
    /// `measure_per_round` exceeded `population`: the ranking can never fill
    /// a round's measurement quota.
    MeasureExceedsPopulation {
        /// The configured candidates-measured-per-round.
        measure_per_round: usize,
        /// The configured candidates-generated-per-round.
        population: usize,
    },
    /// An unknown cost-estimator name (typically from `ATIM_COST_MODEL`):
    /// the session would silently tune with the wrong model.
    InvalidCostModel {
        /// The rejected estimator name.
        value: String,
    },
    /// An unknown space-generator id (typically from
    /// `ATIM_SPACE_GENERATOR`): the session would silently search the
    /// wrong schedule space.
    InvalidSpaceGenerator {
        /// The rejected generator id.
        value: String,
    },
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuningError::ZeroTrials => {
                write!(f, "invalid tuning options: trials must be > 0")
            }
            TuningError::ZeroPopulation => {
                write!(f, "invalid tuning options: population must be > 0")
            }
            TuningError::ZeroMeasurePerRound => {
                write!(f, "invalid tuning options: measure_per_round must be > 0")
            }
            TuningError::MeasureExceedsPopulation {
                measure_per_round,
                population,
            } => write!(
                f,
                "invalid tuning options: measure_per_round ({measure_per_round}) must not \
                 exceed population ({population})"
            ),
            TuningError::InvalidCostModel { value } => write!(
                f,
                "invalid cost model {value:?}: {} must be \"ridge\" or \"gbdt\"",
                crate::cost_model::COST_MODEL_ENV
            ),
            TuningError::InvalidSpaceGenerator { value } => write!(
                f,
                "invalid space generator {value:?}: {} must be one of {:?}",
                crate::sketch::SPACE_GENERATOR_ENV,
                crate::sketch::RESIDENT_GENERATOR_IDS
            ),
        }
    }
}

impl std::error::Error for TuningError {}

/// Validates tuning options, returning the first violated constraint.
///
/// # Errors
/// Returns the corresponding [`TuningError`] variant when `trials`,
/// `population` or `measure_per_round` is zero, or when `measure_per_round`
/// exceeds `population`.
pub fn validate_options(options: &TuningOptions) -> Result<(), TuningError> {
    if options.trials == 0 {
        return Err(TuningError::ZeroTrials);
    }
    if options.population == 0 {
        return Err(TuningError::ZeroPopulation);
    }
    if options.measure_per_round == 0 {
        return Err(TuningError::ZeroMeasurePerRound);
    }
    if options.measure_per_round > options.population {
        return Err(TuningError::MeasureExceedsPopulation {
            measure_per_round: options.measure_per_round,
            population: options.population,
        });
    }
    Ok(())
}

/// Limits on how long one [`TuningSession::run`] call may keep searching,
/// *in addition to* the session's own trial target
/// ([`TuningOptions::trials`]).
///
/// All limits are optional and combine with "whichever hits first"
/// semantics.  The default is [`Budget::unlimited`], which defers entirely
/// to the session's trial target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Stop after this many *successful* measurements within this `run`
    /// call (failures never consume budget, matching the trial accounting
    /// of [`TuningResult`]).
    pub max_trials: Option<usize>,
    /// Stop once this much wall-clock time has elapsed.  The deadline is
    /// threaded into the measurer as a [`Cancellation`], so the run stops
    /// *mid-round*; a measurer that ignores it still stops at the next
    /// round boundary.
    pub max_wall_clock: Option<Duration>,
    /// Early-stop: give up after this many successful measurements in a row
    /// without improving the best latency.
    pub stall_trials: Option<usize>,
    /// Cooperative cancellation: when this token fires, the run stops — in
    /// the middle of a round.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits beyond the session's own trial target.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limits successful measurements within one `run` call.
    pub fn trials(n: usize) -> Self {
        Budget {
            max_trials: Some(n),
            ..Budget::default()
        }
    }

    /// Limits wall-clock time of one `run` call.
    pub fn wall_clock(limit: Duration) -> Self {
        Budget {
            max_wall_clock: Some(limit),
            ..Budget::default()
        }
    }

    /// Adds a trial limit to an existing budget.
    pub fn with_trials(mut self, n: usize) -> Self {
        self.max_trials = Some(n);
        self
    }

    /// Adds a wall-clock limit to an existing budget.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.max_wall_clock = Some(limit);
        self
    }

    /// Adds an early-stop window: stop after `n` successful measurements
    /// without a new best.
    pub fn with_early_stop(mut self, n: usize) -> Self {
        self.stall_trials = Some(n);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: firing it (from any thread)
    /// stops the run mid-round.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Why a [`TuningSession::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The session reached its [`TuningOptions::trials`] target (or ran out
    /// of rounds without finding new verifiable candidates).
    SearchComplete,
    /// [`Budget::max_trials`] was hit.
    TrialBudget,
    /// [`Budget::max_wall_clock`] was hit.
    WallClock,
    /// [`Budget::stall_trials`] measurements passed without improvement.
    EarlyStop,
    /// The [`Budget::cancel`] token was fired.
    Cancelled,
}

/// Streaming callbacks fired by [`TuningSession::record_outcomes`] and
/// [`TuningSession::run`] as the search progresses.
///
/// Every method has an empty default body, so observers implement only what
/// they care about.  Exactly one [`TuningObserver::on_trial`] call is fired
/// per successful measurement.
pub trait TuningObserver {
    /// A new search round began: `measured` trials done so far.
    fn on_round_start(&mut self, round: usize, measured: usize) {
        let _ = (round, measured);
    }

    /// One candidate was measured successfully (one call per trial).
    fn on_trial(&mut self, record: &TuningRecord) {
        let _ = record;
    }

    /// One candidate failed to build or run (does not consume budget).
    fn on_trial_failed(&mut self, trace: &Trace) {
        let _ = trace;
    }

    /// The best latency improved; `record` is the trial that improved it.
    fn on_best_improved(&mut self, record: &TuningRecord) {
        let _ = record;
    }

    /// A `run` call finished with the given result and reason.
    fn on_finish(&mut self, result: &TuningResult, reason: StopReason) {
        let _ = (result, reason);
    }
}

/// The do-nothing observer (the default for callers that only want the
/// final [`TuningResult`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TuningObserver for NullObserver {}

/// A resumable autotuning session over one workload on one machine.
///
/// Holds every piece of state the Fig. 6 loop accumulates — candidate
/// database, cost-model training samples, per-trial history — and exposes
/// the loop incrementally.  Dropping the session between `run` calls loses
/// nothing: persist [`TuningSession::result`] to a
/// [`crate::log::TuneLog`] and warm-start a future session from it.
pub struct TuningSession {
    def: ComputeDef,
    hw: UpmemConfig,
    options: TuningOptions,
    generator: Arc<dyn SpaceGenerator>,
    rng: StdRng,
    db: CandidateDb,
    model: Box<dyn CostEstimator>,
    samples: Vec<([f64; NUM_FEATURES], f64)>,
    history: Vec<TuningRecord>,
    measured: usize,
    failed: usize,
    rejected: usize,
    round: usize,
    max_rounds: usize,
}

impl fmt::Debug for TuningSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TuningSession")
            .field("workload", &self.def.name)
            .field("measured", &self.measured)
            .field("failed", &self.failed)
            .field("rejected", &self.rejected)
            .field("round", &self.round)
            .finish()
    }
}

impl TuningSession {
    /// Creates a session over the default UPMEM sketch space, validating
    /// the options up front.
    ///
    /// # Errors
    /// Returns a [`TuningError`] when the options are inconsistent (zero
    /// trials/population/measure-per-round, or a per-round quota larger
    /// than the population).
    pub fn new(
        def: &ComputeDef,
        hw: &UpmemConfig,
        options: &TuningOptions,
    ) -> Result<Self, TuningError> {
        Self::with_generator(def, hw, options, Arc::new(UpmemSketchGenerator))
    }

    /// Creates a session over a custom [`SpaceGenerator`] — the pluggable
    /// seam for new workload families and sketch designs.
    ///
    /// # Errors
    /// Returns a [`TuningError`] when the options are inconsistent, exactly
    /// as [`TuningSession::new`].
    pub fn with_generator(
        def: &ComputeDef,
        hw: &UpmemConfig,
        options: &TuningOptions,
        generator: Arc<dyn SpaceGenerator>,
    ) -> Result<Self, TuningError> {
        validate_options(options)?;
        let max_rounds = options.trials * 8 / options.measure_per_round + 8;
        Ok(TuningSession {
            def: def.clone(),
            hw: hw.clone(),
            options: options.clone(),
            generator,
            rng: StdRng::seed_from_u64(options.seed),
            db: CandidateDb::new(),
            model: Box::new(CostModel::new()),
            samples: Vec::new(),
            history: Vec::new(),
            measured: 0,
            failed: 0,
            rejected: 0,
            round: 0,
            max_rounds,
        })
    }

    /// Replaces the session's cost estimator — the pluggable seam for
    /// learned models beyond the default ridge regression (the `atim-model`
    /// crate's gradient-boosted trees enter here).
    ///
    /// A pretrained estimator (e.g. a corpus-trained global model) is used
    /// as-is until the first round's measurements arrive, so a fresh session
    /// on an unseen shape ranks its very first batch with transferred
    /// knowledge instead of measuring blind.  Samples already recorded in
    /// this session (seeded or measured) are immediately fit into the new
    /// estimator.
    pub fn with_cost_estimator(mut self, estimator: Box<dyn CostEstimator>) -> Self {
        self.model = estimator;
        if !self.samples.is_empty() {
            self.model.fit(&self.samples);
        }
        self
    }

    /// The cost estimator currently ranking this session's candidates.
    pub fn cost_estimator(&self) -> &dyn CostEstimator {
        &*self.model
    }

    /// The workload this session tunes.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The options the session was created with.
    pub fn options(&self) -> &TuningOptions {
        &self.options
    }

    /// The space generator proposing this session's candidates.
    pub fn generator(&self) -> &Arc<dyn SpaceGenerator> {
        &self.generator
    }

    /// Successful measurements so far (the consumed trial budget).
    pub fn measured(&self) -> usize {
        self.measured
    }

    /// Failed measurements so far (not charged against the budget).
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Candidates rejected by the UPMEM verifier so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Per-trial history so far.
    pub fn history(&self) -> &[TuningRecord] {
        &self.history
    }

    /// The best trace and latency found so far.
    pub fn best(&self) -> Option<(&Trace, f64)> {
        self.db.best().map(|e| (&e.trace, e.latency_s))
    }

    /// Whether the session has reached its trial target or exhausted its
    /// round allowance.
    pub fn finished(&self) -> bool {
        self.measured >= self.options.trials || self.round >= self.max_rounds
    }

    /// Generates, verifies and cost-model-ranks the next round's batch of
    /// candidates to measure (at most `measure_per_round`, never more than
    /// the remaining trial budget).
    ///
    /// Returns `None` once the session is [`TuningSession::finished`].
    /// Rounds whose entire population is rejected by the verifier are
    /// skipped internally (they consume round allowance, as the blocking
    /// driver always did, but produce no batch).
    pub fn next_batch(&mut self) -> Option<Vec<Trace>> {
        loop {
            if self.finished() {
                return None;
            }
            self.round += 1;
            let progress = self.measured as f64 / self.options.trials as f64;
            let epsilon = self.options.strategy.epsilon_at(progress);
            let balanced = self.options.strategy.balanced_at(progress);
            let crossover = self.options.strategy.crossover_prob;

            // --- Design space generation + evolution --------------------------
            // Exploitation mutates (or, with `crossover_prob` set, crosses
            // over) the *decisions* of database parents; exploration samples
            // fresh traces from the generator's sketches.
            let mut candidates: Vec<Trace> = Vec::with_capacity(self.options.population);
            let parents = self.db.top_k(16, balanced);
            for i in 0..self.options.population {
                let with_rfactor = self.generator.supports_rfactor(&self.def) && i % 2 == 0;
                let explore = parents.is_empty() || self.rng.gen_bool(epsilon);
                let cand = if explore {
                    self.generator
                        .sample(&mut self.rng, &self.def, &self.hw, with_rfactor)
                } else {
                    let parent = parents[self.rng.gen_range(0..parents.len())];
                    // The crossover coin is only tossed when the knob is on,
                    // so the default configuration consumes the exact RNG
                    // sequence of the pre-trace tuner (fixed-seed replays).
                    if crossover > 0.0 && parents.len() >= 2 && self.rng.gen_bool(crossover) {
                        let other = parents[self.rng.gen_range(0..parents.len())];
                        self.generator.crossover(
                            &mut self.rng,
                            &self.def,
                            &self.hw,
                            &parent.trace,
                            &other.trace,
                        )
                    } else {
                        self.generator
                            .mutate(&mut self.rng, &self.def, &self.hw, &parent.trace)
                    }
                };
                candidates.push(cand);
            }

            // --- Verification -------------------------------------------------
            let mut verified: Vec<Trace> = Vec::new();
            let mut seen: HashSet<Trace> = HashSet::with_capacity(candidates.len());
            for cand in candidates {
                if self.db.contains(&cand) || !seen.insert(cand.clone()) {
                    continue;
                }
                match verify_trace(&cand, &self.def, &self.hw) {
                    Ok(_) => verified.push(cand),
                    Err(_) => self.rejected += 1,
                }
            }
            if verified.is_empty() {
                continue;
            }

            // --- Cost-model ranking -------------------------------------------
            // Equal predicted scores (every candidate, while the model is
            // untrained) break on trace identity, so the measured prefix is
            // a function of *which* candidates survived — not of generation
            // order, the estimator implementation, or platform float
            // quirks.
            let mut ranked: Vec<(f64, String, Trace)> = verified
                .into_iter()
                .map(|c| {
                    let score = self.model.predict(&featurize(&c, &self.def, &self.hw));
                    (score, c.to_string(), c)
                })
                .collect();
            ranked.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.cmp(&b.1))
            });

            let budget = self
                .options
                .measure_per_round
                .min(self.options.trials - self.measured);
            return Some(
                ranked
                    .into_iter()
                    .take(budget)
                    .map(|(_, _, cand)| cand)
                    .collect(),
            );
        }
    }

    /// Records one measured batch (outcomes slot-aligned with `batch`),
    /// updating the database, history and cost model, and firing one
    /// observer callback per candidate.  [`MeasureOutcome::Skipped`]
    /// candidates are ignored entirely (not failures, not trials — a later
    /// round may re-propose them).
    ///
    /// # Panics
    /// Panics if `outcomes.len() != batch.len()` — a measurer must return
    /// one outcome per candidate.
    pub fn record_outcomes(
        &mut self,
        batch: &[Trace],
        outcomes: Vec<MeasureOutcome>,
        observer: &mut dyn TuningObserver,
    ) {
        assert_eq!(
            outcomes.len(),
            batch.len(),
            "Measurer must return one outcome per candidate"
        );
        for (cand, outcome) in batch.iter().zip(outcomes) {
            let latency = match outcome {
                MeasureOutcome::Measured(latency) => latency,
                MeasureOutcome::Failed => {
                    self.failed += 1;
                    observer.on_trial_failed(cand);
                    continue;
                }
                MeasureOutcome::Skipped => continue,
            };
            let improved = self
                .db
                .best()
                .map(|e| latency < e.latency_s)
                .unwrap_or(true);
            self.samples
                .push((featurize(cand, &self.def, &self.hw), latency));
            self.db.insert(cand.clone(), latency);
            let record = TuningRecord {
                trial: self.measured,
                trace: cand.clone(),
                latency_s: latency,
                best_so_far_s: self.db.best().map(|e| e.latency_s).unwrap_or(latency),
            };
            self.measured += 1;
            observer.on_trial(&record);
            if improved {
                observer.on_best_improved(&record);
            }
            self.history.push(record);
        }
        self.model.fit(&self.samples);
    }

    /// Seeds the session with previously measured trials (e.g. from a
    /// [`crate::log::TuneLog`]) *without* consuming trial budget: the
    /// records enter the candidate database and cost-model training set so
    /// the evolutionary search mutates from known-good parents immediately.
    ///
    /// For bit-exact reproduction of an interrupted run, prefer replaying
    /// the log through a [`crate::tuner::MemoMeasurer::seeded`] wrapper
    /// instead — that path re-drives the identical search trajectory while
    /// answering known measurements from the log.
    pub fn seed_database(&mut self, records: &[TuningRecord]) {
        for rec in records {
            if self.db.contains(&rec.trace) {
                continue;
            }
            self.samples
                .push((featurize(&rec.trace, &self.def, &self.hw), rec.latency_s));
            self.db.insert(rec.trace.clone(), rec.latency_s);
        }
        self.model.fit(&self.samples);
    }

    /// Snapshot of the tuning result so far.
    pub fn result(&self) -> TuningResult {
        TuningResult {
            best: self.db.best().map(|e| (e.trace.clone(), e.latency_s)),
            history: self.history.clone(),
            measured: self.measured,
            failed: self.failed,
            rejected: self.rejected,
        }
    }

    /// Drives the session until the trial target, the budget, or the search
    /// space is exhausted, measuring through `measurer` and streaming
    /// progress to `observer`.
    ///
    /// Can be called repeatedly: each call applies `budget` afresh to the
    /// work done *within that call*, so `run(.., &Budget::trials(10), ..)`
    /// twice performs (up to) 20 measured trials in total.
    pub fn run(
        &mut self,
        measurer: &mut dyn Measurer,
        budget: &Budget,
        observer: &mut dyn TuningObserver,
    ) -> TuningResult {
        let start = Instant::now();
        let deadline = budget.max_wall_clock.map(|limit| start + limit);
        let cancellation = Cancellation::new(budget.cancel.clone(), deadline);
        let measured_at_start = self.measured;
        let mut best_at_last_improvement = self.db.best().map(|e| e.latency_s);
        let mut trials_since_improvement = 0usize;
        let reason = loop {
            if let Some(max) = budget.max_trials {
                if self.measured - measured_at_start >= max {
                    break StopReason::TrialBudget;
                }
            }
            if cancellation.token_cancelled() {
                break StopReason::Cancelled;
            }
            if cancellation.deadline_passed() {
                break StopReason::WallClock;
            }
            if let Some(stall) = budget.stall_trials {
                if trials_since_improvement >= stall {
                    break StopReason::EarlyStop;
                }
            }
            let Some(batch) = self.next_batch() else {
                break StopReason::SearchComplete;
            };
            observer.on_round_start(self.round, self.measured);
            let measured_before = self.measured;
            let outcomes = measurer.measure(&batch, &cancellation);
            let skipped = outcomes
                .iter()
                .filter(|o| matches!(o, MeasureOutcome::Skipped))
                .count();
            self.record_outcomes(&batch, outcomes, observer);
            // Early-stop accounting: count trials since the last new best.
            let new_best = self.db.best().map(|e| e.latency_s);
            if new_best != best_at_last_improvement {
                best_at_last_improvement = new_best;
                trials_since_improvement = 0;
            } else {
                trials_since_improvement += self.measured - measured_before;
            }
            // A measurer that skipped candidates observed the cancellation
            // mid-round; stop without starting another round.
            if skipped > 0 {
                break if cancellation.token_cancelled() {
                    StopReason::Cancelled
                } else {
                    StopReason::WallClock
                };
            }
        };
        let result = self.result();
        observer.on_finish(&result, reason);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analytic(def: &ComputeDef) -> impl FnMut(&Trace) -> Option<f64> {
        let work = def.total_flops() as f64;
        move |t: &Trace| {
            let dpus = t.num_dpus() as f64;
            let tasklets = t.tasklets().min(11) as f64;
            Some((work / (dpus * tasklets) + dpus * 0.001) * 1e-6)
        }
    }

    #[test]
    fn validation_catches_every_inconsistency() {
        let ok = TuningOptions::quick();
        assert!(validate_options(&ok).is_ok());
        assert_eq!(
            validate_options(&TuningOptions {
                trials: 0,
                ..ok.clone()
            }),
            Err(TuningError::ZeroTrials)
        );
        assert_eq!(
            validate_options(&TuningOptions {
                population: 0,
                ..ok.clone()
            }),
            Err(TuningError::ZeroPopulation)
        );
        assert_eq!(
            validate_options(&TuningOptions {
                measure_per_round: 0,
                ..ok.clone()
            }),
            Err(TuningError::ZeroMeasurePerRound)
        );
        let err = validate_options(&TuningOptions {
            measure_per_round: 64,
            population: 8,
            ..ok
        })
        .unwrap_err();
        assert_eq!(
            err,
            TuningError::MeasureExceedsPopulation {
                measure_per_round: 64,
                population: 8
            }
        );
        assert!(err.to_string().contains("64"));
    }

    #[test]
    fn untrained_ranking_orders_the_batch_by_trace_identity() {
        // Round one ranks with an untrained model: every candidate ties, so
        // the batch must come out in trace-identity order — a deterministic
        // prefix that does not depend on generation order.
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let mut session = TuningSession::new(&def, &hw, &TuningOptions::quick()).unwrap();
        let batch = session.next_batch().expect("first round yields a batch");
        assert!(batch.len() > 1, "need ties to exercise the tie-break");
        let keys: Vec<String> = batch.iter().map(|t| t.to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "equal scores must order by trace identity");
    }

    #[test]
    fn tie_breaking_makes_the_first_batch_estimator_independent() {
        // Two estimators that are untrained (and return *different* neutral
        // constants) must still measure the identical first batch: the
        // tie-break keys on the candidates, not on the estimator.
        struct Constant(f64);
        impl crate::cost_model::CostEstimator for Constant {
            fn name(&self) -> &'static str {
                "constant"
            }
            fn is_trained(&self) -> bool {
                false
            }
            fn fit(&mut self, _samples: &[([f64; NUM_FEATURES], f64)]) {}
            fn predict(&self, _features: &[f64; NUM_FEATURES]) -> f64 {
                self.0
            }
        }
        use crate::cost_model::NUM_FEATURES;
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut a = TuningSession::new(&def, &hw, &opts)
            .unwrap()
            .with_cost_estimator(Box::new(Constant(1.0)));
        let mut b = TuningSession::new(&def, &hw, &opts)
            .unwrap()
            .with_cost_estimator(Box::new(Constant(42.0)));
        assert_eq!(a.cost_estimator().name(), "constant");
        assert_eq!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn invalid_cost_model_error_names_the_env_var() {
        let err = crate::cost_model::CostModelKind::parse("nonsense").unwrap_err();
        assert_eq!(
            err,
            TuningError::InvalidCostModel {
                value: "nonsense".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("ATIM_COST_MODEL"), "{msg}");
        assert!(msg.contains("nonsense"), "{msg}");
    }

    #[test]
    fn incremental_session_matches_the_blocking_driver() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 32,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut m1 = analytic(&def);
        let blocking = crate::tuner::tune(&def, &hw, &opts, &mut m1);

        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let mut m2 = analytic(&def);
        while let Some(batch) = session.next_batch() {
            let outcomes = m2.measure(&batch, &Cancellation::none());
            session.record_outcomes(&batch, outcomes, &mut NullObserver);
        }
        let incremental = session.result();
        assert_eq!(blocking.best, incremental.best);
        assert_eq!(blocking.history, incremental.history);
        assert_eq!(blocking.measured, incremental.measured);
        assert_eq!(blocking.failed, incremental.failed);
        assert_eq!(blocking.rejected, incremental.rejected);
    }

    #[test]
    fn observer_sees_one_callback_per_measured_trial() {
        #[derive(Default)]
        struct Counter {
            rounds: usize,
            trials: usize,
            failures: usize,
            improvements: usize,
            finished: usize,
        }
        impl TuningObserver for Counter {
            fn on_round_start(&mut self, _round: usize, _measured: usize) {
                self.rounds += 1;
            }
            fn on_trial(&mut self, _record: &TuningRecord) {
                self.trials += 1;
            }
            fn on_trial_failed(&mut self, _trace: &Trace) {
                self.failures += 1;
            }
            fn on_best_improved(&mut self, _record: &TuningRecord) {
                self.improvements += 1;
            }
            fn on_finish(&mut self, _result: &TuningResult, _reason: StopReason) {
                self.finished += 1;
            }
        }

        let def = ComputeDef::mtv("mtv", 512, 512);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let mut calls = 0usize;
        let mut measurer = |t: &Trace| -> Option<f64> {
            calls += 1;
            if calls % 5 == 0 {
                None
            } else {
                Some(1.0 / t.num_dpus() as f64)
            }
        };
        let mut obs = Counter::default();
        let result = session.run(&mut measurer, &Budget::unlimited(), &mut obs);
        assert_eq!(obs.trials, result.measured, "one on_trial per measurement");
        assert_eq!(obs.failures, result.failed);
        assert!(obs.improvements >= 1);
        assert!(obs.rounds >= 1);
        assert_eq!(obs.finished, 1);
    }

    #[test]
    fn trial_budget_pauses_and_resumes_without_losing_state() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 32,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut m = analytic(&def);
        let fresh = crate::tuner::tune(&def, &hw, &opts, &mut m);

        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let mut m1 = analytic(&def);
        let partial = session.run(&mut m1, &Budget::trials(16), &mut NullObserver);
        assert!(partial.measured >= 16 && partial.measured < 32);
        // Resume: the second run picks up exactly where the first stopped.
        let mut m2 = analytic(&def);
        let full = session.run(&mut m2, &Budget::unlimited(), &mut NullObserver);
        assert_eq!(full.measured, 32);
        assert_eq!(full.best, fresh.best);
        assert_eq!(full.history, fresh.history);
    }

    #[test]
    fn wall_clock_budget_stops_the_run() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 1_000_000,
            population: 16,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let mut m = analytic(&def);
        let result = session.run(
            &mut m,
            &Budget::wall_clock(Duration::from_millis(50)),
            &mut NullObserver,
        );
        assert!(result.measured < 1_000_000, "wall clock must stop the run");
    }

    #[test]
    fn early_stop_fires_when_the_best_stalls() {
        struct Reason(Option<StopReason>);
        impl TuningObserver for Reason {
            fn on_finish(&mut self, _result: &TuningResult, reason: StopReason) {
                self.0 = Some(reason);
            }
        }
        let def = ComputeDef::mtv("mtv", 256, 256);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 200,
            population: 16,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        // A constant measurer can never improve after the first trial.
        let mut m = |_: &Trace| -> Option<f64> { Some(1.0) };
        let mut obs = Reason(None);
        let result = session.run(&mut m, &Budget::unlimited().with_early_stop(12), &mut obs);
        assert!(result.measured < 200);
        assert_eq!(obs.0, Some(StopReason::EarlyStop));
    }

    #[test]
    fn cancel_token_stops_mid_round_without_recording_skipped_candidates() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 64,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        struct Reason(Option<StopReason>);
        impl TuningObserver for Reason {
            fn on_finish(&mut self, _result: &TuningResult, reason: StopReason) {
                self.0 = Some(reason);
            }
        }
        let token = CancelToken::new();
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        // Fire the token after three measurements: the round (8 candidates)
        // must stop early, and the skipped candidates must not be recorded
        // as trials or failures.
        let fire = token.clone();
        let mut calls = 0usize;
        let mut measurer = move |_: &Trace| -> Option<f64> {
            calls += 1;
            if calls == 3 {
                fire.cancel();
            }
            Some(calls as f64 * 1e-6)
        };
        let mut obs = Reason(None);
        let result = session.run(
            &mut measurer,
            &Budget::unlimited().with_cancel_token(token.clone()),
            &mut obs,
        );
        assert_eq!(obs.0, Some(StopReason::Cancelled));
        assert_eq!(result.measured, 3, "only pre-cancellation trials count");
        assert_eq!(result.failed, 0, "skipped candidates are not failures");
        assert!(token.is_cancelled());
        // The session is still resumable after cancellation.
        let mut more = |_: &Trace| -> Option<f64> { Some(1e-3) };
        let resumed = session.run(&mut more, &Budget::trials(5), &mut NullObserver);
        // The trial budget is checked between rounds, so the resumed run
        // completes at least 5 more trials (up to one full extra round).
        assert!(
            resumed.measured >= 8 && resumed.measured <= 3 + 8,
            "resumed {} trials",
            resumed.measured
        );
    }

    #[test]
    fn wall_clock_budget_stops_mid_round_with_cancellation_aware_measurers() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 1_000_000,
            population: 64,
            measure_per_round: 64,
            ..TuningOptions::default()
        };
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let mut measurer = |t: &Trace| -> Option<f64> {
            std::thread::sleep(Duration::from_millis(10));
            Some(1.0 / t.num_dpus() as f64)
        };
        let result = session.run(
            &mut measurer,
            &Budget::wall_clock(Duration::from_millis(35)),
            &mut NullObserver,
        );
        // Pre-cancellation behavior measured at least one full 64-candidate
        // round (~640 ms); the intra-round deadline stops after a handful.
        assert!(
            result.measured < 64,
            "wall clock must stop inside the first round, measured {}",
            result.measured
        );
        assert!(result.measured >= 1);
    }

    #[test]
    fn seeding_the_database_biases_the_search() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let good = crate::space::ScheduleConfig::default_for(&def, &hw).to_trace(&def);
        session.seed_database(&[TuningRecord {
            trial: 0,
            trace: good.clone(),
            latency_s: 1e-6,
            best_so_far_s: 1e-6,
        }]);
        assert_eq!(session.best().unwrap().0, &good);
        assert_eq!(session.measured(), 0, "seeding consumes no trial budget");
    }

    #[test]
    fn custom_space_generators_drive_the_whole_session() {
        use crate::generator::SpaceGenerator;
        use crate::trace::{Decision, Instruction, Trace};
        use atim_tir::schedule::Binding;

        /// A miniature foreign sketch: split the first axis across a sampled
        /// number of DPUs, nothing else.
        struct RowSplitGenerator;
        impl RowSplitGenerator {
            fn build(def: &ComputeDef, dpus: i64) -> Trace {
                let extent = def.axes[0].extent;
                let dpus = dpus.clamp(1, extent);
                let mut insts = vec![Instruction::SampleInt {
                    site: "dpus".into(),
                    value: dpus,
                }];
                insts.push(Instruction::GetLoop { axis: 0, dst: 0 });
                if dpus > 1 {
                    let factor = (extent + dpus - 1) / dpus;
                    insts.push(Instruction::Split {
                        lv: 0,
                        factor,
                        outer: 1,
                        inner: 2,
                    });
                    insts.push(Instruction::Bind {
                        lv: 1,
                        binding: Binding::DpuX,
                    });
                }
                insts.push(Instruction::ParallelHost { threads: 1 });
                insts.push(Instruction::ParallelTransfer { enabled: true });
                Trace::new("row-split", insts, 3)
            }
        }
        impl SpaceGenerator for RowSplitGenerator {
            fn name(&self) -> &str {
                "row-split"
            }
            fn sketches(&self, def: &ComputeDef, _hw: &UpmemConfig) -> Vec<Trace> {
                vec![Self::build(def, 1)]
            }
            fn sample(
                &self,
                rng: &mut StdRng,
                def: &ComputeDef,
                _hw: &UpmemConfig,
                _with_rfactor: bool,
            ) -> Trace {
                Self::build(def, 1i64 << rng.gen_range(0..6))
            }
            fn mutate(
                &self,
                rng: &mut StdRng,
                def: &ComputeDef,
                hw: &UpmemConfig,
                _base: &Trace,
            ) -> Trace {
                self.sample(rng, def, hw, false)
            }
            fn materialize(
                &self,
                trace: &Trace,
                def: &ComputeDef,
                _hw: &UpmemConfig,
            ) -> atim_tir::error::Result<Trace> {
                let dpus = trace.int_decision("dpus").unwrap_or(1);
                Ok(Self::build(def, dpus))
            }
            fn supports_rfactor(&self, _def: &ComputeDef) -> bool {
                false
            }
        }

        let def = ComputeDef::va("va", 4096);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut session =
            TuningSession::with_generator(&def, &hw, &opts, Arc::new(RowSplitGenerator)).unwrap();
        assert_eq!(session.generator().name(), "row-split");
        let mut measurer =
            |t: &Trace| -> Option<f64> { Some(1.0 / t.int_decision("dpus").unwrap_or(1) as f64) };
        let result = session.run(&mut measurer, &Budget::unlimited(), &mut NullObserver);
        let (best, _) = result.best.expect("search finds a candidate");
        assert_eq!(best.sketch(), "row-split");
        assert_eq!(
            best.int_decision("dpus"),
            Some(32),
            "the analytic optimum is the largest sampled DPU count"
        );
        // Decisions survive the record path and key the history.
        assert!(result
            .history
            .iter()
            .all(|r| r.trace.int_decision("dpus").is_some()));
        let _ = Decision::Int(1);
    }

    #[test]
    fn crossover_probability_mixes_parent_decisions_and_still_converges() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 24,
            population: 16,
            measure_per_round: 8,
            strategy: crate::search::SearchStrategy {
                crossover_prob: 0.5,
                ..Default::default()
            },
            ..TuningOptions::default()
        };
        let mut session = TuningSession::new(&def, &hw, &opts).unwrap();
        let mut m = analytic(&def);
        let result = session.run(&mut m, &Budget::unlimited(), &mut NullObserver);
        assert_eq!(result.measured, 24);
        assert!(result.best_latency().is_finite());
    }
}
