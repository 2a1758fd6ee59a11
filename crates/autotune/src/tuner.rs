//! The autotuning driver: design-space generation → verification → cost-model
//! ranking → measurement → database/model update (Fig. 6's loop).
//!
//! Measurement — the stage that dominates tuning cost, exactly as in AutoTVM
//! — has one contract: the tuner hands each round's ranked slice to a
//! [`Measurer`] as one batch and gets slot-aligned [`MeasureOutcome`]s back.
//! Implementations are free to fan the batch out (`atim-core`'s
//! `BackendMeasurer` routes it through `Backend::measure_jobs`, which the
//! simulator spreads over worker threads and the fleet over worker
//! processes); a plain `FnMut(&Trace) -> Option<f64>` closure is a
//! [`Measurer`] too, measuring one candidate at a time.  [`MemoMeasurer`] is
//! the one memo + in-batch-dedup layer, wrapped around either.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;

use crate::search::SearchStrategy;
use crate::session::{Budget, NullObserver, TuningSession};
use crate::trace::Trace;

/// A shareable cooperative-cancellation flag.
///
/// Cloning shares the flag: cancel from any thread (a signal handler, a UI,
/// a supervisor) and every [`Measurer`] stops before its next candidate.
/// Attach one to a [`Budget`] through its `with_cancel_token` builder
/// method.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; observable from every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// The combined stop condition threaded through every measured batch: an
/// optional caller-owned [`CancelToken`] plus an optional deadline (derived
/// from [`Budget::max_wall_clock`]
/// by [`TuningSession::run`], so a wall-clock budget stops *mid-round*
/// instead of only between rounds).
#[derive(Debug, Clone, Default)]
pub struct Cancellation {
    token: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl Cancellation {
    /// A condition that never triggers.
    pub fn none() -> Self {
        Self::default()
    }

    /// Combines an optional token and an optional deadline.
    pub fn new(token: Option<CancelToken>, deadline: Option<Instant>) -> Self {
        Cancellation { token, deadline }
    }

    /// Whether measurement should stop before the next candidate.
    pub fn cancelled(&self) -> bool {
        self.token_cancelled() || self.deadline_passed()
    }

    /// Whether the caller's token requested cancellation.
    pub fn token_cancelled(&self) -> bool {
        self.token
            .as_ref()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    }

    /// Whether the deadline has passed.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.map(|d| Instant::now() >= d).unwrap_or(false)
    }
}

/// Per-candidate outcome of a measured batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureOutcome {
    /// The candidate measured successfully (latency in seconds).
    Measured(f64),
    /// The candidate failed to build or run (does not consume trial budget).
    Failed,
    /// Measurement was cancelled before this candidate ran; the candidate is
    /// *not* recorded and may be re-proposed by a later round.
    Skipped,
}

impl MeasureOutcome {
    /// Converts the single-candidate signal (`Some(latency)` / `None`).
    pub fn from_result(result: Option<f64>) -> Self {
        match result {
            Some(latency) => MeasureOutcome::Measured(latency),
            None => MeasureOutcome::Failed,
        }
    }
}

/// How a round's candidates get their latencies.
///
/// The tuning loop never depends on measurement *order within a batch*, only
/// on the returned slots, so implementations are free to measure candidates
/// concurrently as long as results land at the index of their candidate.
/// Given a deterministic per-candidate measurement this makes parallel
/// tuning bit-identical to sequential tuning.
pub trait Measurer {
    /// Measures every candidate, returning one outcome per candidate **in
    /// input order** (`result[i]` belongs to `traces[i]`).  Implementations
    /// check `cancel` before each candidate; candidates not measured because
    /// it triggered come back as [`MeasureOutcome::Skipped`].
    fn measure(&mut self, traces: &[Trace], cancel: &Cancellation) -> Vec<MeasureOutcome>;
}

/// A closure timing one candidate (`None` = failed to build or run) measures
/// a batch one candidate at a time — how analytic test measurers take part
/// in the batch contract.
impl<F> Measurer for F
where
    F: FnMut(&Trace) -> Option<f64>,
{
    fn measure(&mut self, traces: &[Trace], cancel: &Cancellation) -> Vec<MeasureOutcome> {
        traces
            .iter()
            .map(|trace| {
                if cancel.cancelled() {
                    MeasureOutcome::Skipped
                } else {
                    MeasureOutcome::from_result(self(trace))
                }
            })
            .collect()
    }
}

/// One memoized measurement: the answer, and whether a log supplied it.
struct MemoEntry {
    result: Option<f64>,
    from_log: bool,
}

/// The one memo + in-batch-dedup layer over any [`Measurer`], keyed on trace
/// identity (sketch + decision list).
///
/// * **In-batch deduplication** — duplicates within one batch resolve to a
///   single inner measurement.
/// * **Cross-round memoization** — every answer (failures included) is
///   remembered: the evolutionary search can re-propose a candidate whose
///   measurement previously *failed* (successes are deduplicated by the
///   candidate database), and repeated runs over one instance skip
///   re-measurement entirely.
/// * **Log seeding** ([`MemoMeasurer::seeded`]) — measurements recorded in a
///   [`crate::log::TuneLog`] pre-fill the memo, so driving a fresh
///   [`TuningSession`] (same options, same seed) through the wrapper
///   re-creates the original search trajectory bit-for-bit while only
///   candidates the log does not contain reach the inner measurer: an
///   interrupted search "resumes" at the cost of the remaining measurements.
///
/// Memo answers are free and honored even when `cancel` has triggered; only
/// candidates that need the inner measurer respect it, and a
/// [`MeasureOutcome::Skipped`] candidate is never memoized, so a later round
/// measures it for real.
pub struct MemoMeasurer<'a> {
    inner: &'a mut dyn Measurer,
    memo: HashMap<Trace, MemoEntry>,
    cache_hits: usize,
    replayed: usize,
    fresh: usize,
}

impl<'a> MemoMeasurer<'a> {
    /// Wraps `inner` with an empty memo.
    pub fn new(inner: &'a mut dyn Measurer) -> Self {
        Self::seeded(inner, HashMap::new())
    }

    /// Wraps `inner` with a memo pre-filled from a log
    /// ([`crate::log::TuneLog::memo`]).
    pub fn seeded(inner: &'a mut dyn Measurer, log_memo: HashMap<Trace, f64>) -> Self {
        let from_log = |latency| MemoEntry {
            result: Some(latency),
            from_log: true,
        };
        MemoMeasurer {
            inner,
            memo: log_memo
                .into_iter()
                .map(|(trace, latency)| (trace, from_log(latency)))
                .collect(),
            cache_hits: 0,
            replayed: 0,
            fresh: 0,
        }
    }

    /// Number of distinct traces in the memo (seeded or measured).
    pub fn cache_len(&self) -> usize {
        self.memo.len()
    }

    /// Number of candidates answered from the memo instead of the inner
    /// measurer.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Number of candidates answered by an entry seeded from a log (a
    /// subset of [`MemoMeasurer::cache_hits`]).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Number of distinct candidates the inner measurer answered (measured
    /// or failed, not skipped).
    pub fn fresh(&self) -> usize {
        self.fresh
    }
}

impl Measurer for MemoMeasurer<'_> {
    fn measure(&mut self, traces: &[Trace], cancel: &Cancellation) -> Vec<MeasureOutcome> {
        // First pass: answer from the memo, and pick one representative per
        // distinct unknown trace (first-occurrence order).
        let mut out: Vec<Option<MeasureOutcome>> = Vec::with_capacity(traces.len());
        let mut misses: Vec<Trace> = Vec::new();
        let mut miss_of: HashMap<&Trace, usize> = HashMap::new();
        for trace in traces {
            let hit = self.memo.get(trace).map(|entry| {
                self.cache_hits += 1;
                self.replayed += usize::from(entry.from_log);
                MeasureOutcome::from_result(entry.result)
            });
            if hit.is_none() {
                if let Entry::Vacant(slot) = miss_of.entry(trace) {
                    slot.insert(misses.len());
                    misses.push(trace.clone());
                }
            }
            out.push(hit);
        }
        if misses.is_empty() {
            return out.into_iter().flatten().collect();
        }

        let measured = self.inner.measure(&misses, cancel);
        assert_eq!(
            measured.len(),
            misses.len(),
            "Measurer must return one outcome per candidate"
        );
        for (trace, outcome) in misses.into_iter().zip(&measured) {
            let result = match *outcome {
                MeasureOutcome::Measured(latency) => Some(latency),
                MeasureOutcome::Failed => None,
                MeasureOutcome::Skipped => continue,
            };
            self.fresh += 1;
            let from_log = false;
            self.memo.insert(trace, MemoEntry { result, from_log });
        }
        // Unknown slots (duplicates included) follow their representative —
        // or are skipped alongside it.
        out.into_iter()
            .zip(traces)
            .map(|(hit, trace)| hit.unwrap_or_else(|| measured[miss_of[trace]]))
            .collect()
    }
}

/// Tuning options.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOptions {
    /// Total number of hardware measurements (the paper uses 1000 trials).
    pub trials: usize,
    /// Candidates generated per search round.
    pub population: usize,
    /// Candidates measured per round (the top of the cost-model ranking).
    pub measure_per_round: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Search strategy (balanced sampling + adaptive ε by default).
    pub strategy: SearchStrategy,
}

impl Default for TuningOptions {
    fn default() -> Self {
        TuningOptions {
            trials: 128,
            population: 64,
            measure_per_round: 16,
            seed: 0xA71B,
            strategy: SearchStrategy::default(),
        }
    }
}

impl TuningOptions {
    /// A small budget suitable for tests and quick demos.
    pub fn quick() -> Self {
        TuningOptions {
            trials: 24,
            population: 24,
            measure_per_round: 8,
            ..Self::default()
        }
    }
}

/// One measured trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningRecord {
    /// Trial index: dense over *successful* measurements, so
    /// `history[i].trial == i` always holds.
    pub trial: usize,
    /// The measured candidate trace.
    pub trace: Trace,
    /// Measured latency in seconds.
    pub latency_s: f64,
    /// Best latency observed up to and including this trial.
    pub best_so_far_s: f64,
}

/// Result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The best trace found, with its latency (absent only if every
    /// measurement failed).
    pub best: Option<(Trace, f64)>,
    /// Per-trial history (for convergence plots like the paper's Fig. 14).
    /// One record per successful measurement; `history.len() == measured`.
    pub history: Vec<TuningRecord>,
    /// Number of successful measurements.  Only these count against the
    /// trial budget.
    pub measured: usize,
    /// Number of measurements that failed to build or run.  Failures are
    /// reported here instead of being charged against the trial budget.
    pub failed: usize,
    /// Number of candidates rejected by the UPMEM verifier before
    /// measurement.
    pub rejected: usize,
}

impl TuningResult {
    /// Best latency in seconds (infinity if nothing was measured).
    pub fn best_latency(&self) -> f64 {
        self.best.as_ref().map(|(_, l)| *l).unwrap_or(f64::INFINITY)
    }
}

/// Runs the full autotuning loop for one workload.
///
/// Candidates are generated from the two design spaces (with and without
/// `rfactor`), filtered by the UPMEM verifier, ranked by the cost model and
/// handed to `measurer` one round-sized batch at a time; measurements feed
/// the best-candidate database and retrain the cost model every round.
///
/// Only *successful* measurements consume the trial budget; failures are
/// tallied in [`TuningResult::failed`].
///
/// This is the blocking convenience wrapper around [`TuningSession`]: it
/// creates a session and drives it to completion with an unlimited
/// [`Budget`] and no observer.  Use [`TuningSession`] directly for
/// incremental driving, streaming progress, wall-clock budgets, early-stop
/// or warm-started searches.
///
/// # Panics
/// Panics if `options` is inconsistent (see
/// [`crate::session::validate_options`]); use [`TuningSession::new`] for a
/// typed error instead.
pub fn tune(
    def: &ComputeDef,
    hw: &UpmemConfig,
    options: &TuningOptions,
    measurer: &mut dyn Measurer,
) -> TuningResult {
    let mut session =
        TuningSession::new(def, hw, options).unwrap_or_else(|err| panic!("tune: {err}"));
    session.run(measurer, &Budget::unlimited(), &mut NullObserver)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An analytic measurer with a known optimum: latency is minimized by
    /// using many DPUs, many tasklets and a mid-sized caching tile, with a
    /// penalty for skipping rfactor on reduction-heavy shapes.
    fn analytic_measure(def: &ComputeDef) -> impl FnMut(&Trace) -> Option<f64> {
        let work = def.total_flops() as f64;
        move |t: &Trace| {
            let dpus = t.num_dpus() as f64;
            let tasklets = t.tasklets().min(11) as f64;
            let kernel = work / (dpus * tasklets);
            let cache_penalty = if t.use_cache() {
                1.0 + (64.0 - t.cache_elems() as f64).abs() / 256.0
            } else {
                20.0
            };
            let reduce_bonus = if t.uses_rfactor() { 0.7 } else { 1.0 };
            let transfer = work.sqrt() / 50.0 + dpus * 0.001;
            Some((kernel * cache_penalty * reduce_bonus + transfer) * 1e-6)
        }
    }

    #[test]
    fn tuner_converges_toward_good_configurations() {
        let def = ComputeDef::mtv("mtv", 4096, 4096);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 64,
            population: 32,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut measurer = analytic_measure(&def);
        let result = tune(&def, &hw, &opts, &mut measurer);
        assert_eq!(result.measured, 64);
        let (best, best_lat) = result.best.clone().unwrap();
        assert!(best_lat.is_finite());
        // The analytic optimum wants lots of DPUs and tasklets and caching.
        assert!(best.num_dpus() >= 256, "best used {} DPUs", best.num_dpus());
        assert!(best.tasklets() >= 8);
        assert!(best.use_cache());
        // Convergence: the best at the end is no worse than the first trial.
        let first = result.history.first().unwrap().latency_s;
        assert!(result.best_latency() <= first);
        // History is monotone in best_so_far.
        let mut prev = f64::INFINITY;
        for rec in &result.history {
            assert!(rec.best_so_far_s <= prev + 1e-15);
            prev = rec.best_so_far_s;
        }
    }

    #[test]
    fn verifier_rejections_are_counted() {
        let def = ComputeDef::mtv("mtv", 8192, 8192);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut measurer = analytic_measure(&def);
        let result = tune(&def, &hw, &opts, &mut measurer);
        // Some random candidates will exceed WRAM or DPU limits for this
        // shape; the exact number is seed-dependent but must be tracked.
        assert!(result.measured > 0);
        assert_eq!(result.history.len(), result.measured);
        let _ = result.rejected;
    }

    #[test]
    fn failed_measurements_do_not_poison_the_database() {
        let def = ComputeDef::va("va", 1 << 20);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut calls = 0usize;
        let mut measurer = |_: &Trace| -> Option<f64> {
            calls += 1;
            if calls % 2 == 0 {
                None
            } else {
                Some(calls as f64 * 1e-6)
            }
        };
        let result = tune(&def, &hw, &opts, &mut measurer);
        assert!(result.best.is_some());
        // Failures are reported separately and do not consume trial budget:
        // every budgeted trial is a successful measurement.
        assert_eq!(result.measured, opts.trials);
        assert!(result.failed > 0);
        assert_eq!(result.history.len(), result.measured);
        // Trial indices stay dense even though every other measurement fails.
        for (i, rec) in result.history.iter().enumerate() {
            assert_eq!(rec.trial, i);
        }
        // The failed latencies never entered the database.
        assert!(result.best_latency().is_finite());
    }

    #[test]
    fn all_failing_measurers_terminate_with_zero_measured() {
        let def = ComputeDef::va("va", 1 << 16);
        let hw = UpmemConfig::default();
        let opts = TuningOptions::quick();
        let mut measurer = |_: &Trace| -> Option<f64> { None };
        let result = tune(&def, &hw, &opts, &mut measurer);
        assert!(result.best.is_none());
        assert_eq!(result.measured, 0);
        assert!(result.history.is_empty());
        assert!(result.failed > 0);
    }

    #[test]
    fn batch_and_sequential_measurement_agree() {
        struct CountingBatch<F: FnMut(&Trace) -> Option<f64>> {
            inner: F,
            max_batch: usize,
            batches: usize,
        }
        impl<F: FnMut(&Trace) -> Option<f64>> Measurer for CountingBatch<F> {
            fn measure(&mut self, traces: &[Trace], cancel: &Cancellation) -> Vec<MeasureOutcome> {
                self.batches += 1;
                self.max_batch = self.max_batch.max(traces.len());
                self.inner.measure(traces, cancel)
            }
        }

        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let opts = TuningOptions {
            trials: 32,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut seq = analytic_measure(&def);
        let sequential = tune(&def, &hw, &opts, &mut seq);
        let mut batch = CountingBatch {
            inner: analytic_measure(&def),
            max_batch: 0,
            batches: 0,
        };
        let batched = tune(&def, &hw, &opts, &mut batch);
        // Identical search trajectory: same history, same best.
        assert_eq!(sequential.history, batched.history);
        assert_eq!(sequential.best, batched.best);
        // Batches respect the per-round measurement budget.
        assert!(batch.batches > 1);
        assert!(batch.max_batch <= opts.measure_per_round);
        assert!(batched.measured <= opts.trials);
    }

    #[test]
    fn strategies_affect_the_search_but_all_converge() {
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let hw = UpmemConfig::default();
        for strategy in [SearchStrategy::default(), SearchStrategy::tvm_default()] {
            let opts = TuningOptions {
                trials: 40,
                population: 24,
                measure_per_round: 8,
                strategy,
                ..TuningOptions::default()
            };
            let mut measurer = analytic_measure(&def);
            let result = tune(&def, &hw, &opts, &mut measurer);
            assert!(result.best_latency().is_finite());
        }
    }
}
