//! Bridging [`Backend`]s into the autotuner's measurement contract.
//!
//! The tuning loop's cost is dominated by measurements (the paper performs
//! ~1000 per workload).  [`BackendMeasurer`] is the adapter between the two
//! halves of the one batch path: it stamps each trace of a round into a
//! routable [`MeasureJob`], hands the batch to [`Backend::measure_jobs`] and
//! returns the slot-aligned outcomes as an [`atim_autotune::Measurer`].
//!
//! Memoization and in-batch deduplication live *above* this layer, in
//! [`atim_autotune::MemoMeasurer`] (which [`crate::Session`] wraps around
//! the adapter); parallelism lives *below* it, in `measure_jobs` itself:
//! results land in per-job slots, so the tuner observes the same latencies
//! in the same order as a sequential measurer would — tuning with the
//! parallel backend is bit-identical to tuning sequentially
//! (`parallel_tuning_is_deterministic_and_matches_sequential` in
//! `crate::session`'s tests pins this for a whole tuning run).

use atim_autotune::{Cancellation, MeasureJob, MeasureOutcome, Measurer, Trace};
use atim_tir::compute::ComputeDef;

use crate::backend::Backend;

/// Environment variable overriding the number of measurement worker threads.
pub const THREADS_ENV: &str = "ATIM_MEASURE_THREADS";

/// Parses an `ATIM_MEASURE_THREADS` value.
///
/// # Errors
/// Rejects zero and non-numeric values with a message naming the variable
/// — misconfigured environments must fail loudly, not silently fall back
/// to a default thread count.
fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got \"{raw}\" \
             (set it to 1 for sequential measurement)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got \"{raw}\""
        )),
    }
}

/// Number of measurement workers: `ATIM_MEASURE_THREADS` if set, otherwise
/// the machine's available parallelism.
///
/// # Panics
/// Panics with a descriptive message when `ATIM_MEASURE_THREADS` is set to
/// an invalid value (`0`, negative, or non-numeric).  An explicitly
/// misconfigured knob must never be silently ignored.
pub fn default_measure_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => parse_threads(&raw).unwrap_or_else(|msg| panic!("{msg}")),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// A [`Measurer`] over a [`Backend`]: every batch round-trips through the
/// serializable job form, which an in-process backend unwraps again (free)
/// and a routing backend (the fleet) forwards to a worker.
pub struct BackendMeasurer<'a> {
    backend: &'a dyn Backend,
    def: &'a ComputeDef,
    generator: String,
    seed: u64,
}

impl<'a> BackendMeasurer<'a> {
    /// Creates a measurer for one workload on one backend that stamps each
    /// [`MeasureJob`] with the search's generator id and seed — a routing
    /// backend uses that context to decide whether a worker can reproduce
    /// the measurement.
    pub fn new(
        backend: &'a dyn Backend,
        def: &'a ComputeDef,
        generator: impl Into<String>,
        seed: u64,
    ) -> Self {
        BackendMeasurer {
            backend,
            def,
            generator: generator.into(),
            seed,
        }
    }
}

impl Measurer for BackendMeasurer<'_> {
    fn measure(&mut self, traces: &[Trace], cancel: &Cancellation) -> Vec<MeasureOutcome> {
        let jobs: Vec<MeasureJob> = traces
            .iter()
            .enumerate()
            .map(|(slot, trace)| {
                MeasureJob::timing_for_def(
                    slot as u64,
                    self.def,
                    self.generator.clone(),
                    self.seed,
                    trace.clone(),
                )
            })
            .collect();
        let reports = self.backend.measure_jobs(&jobs, self.def, cancel);
        assert_eq!(
            reports.len(),
            jobs.len(),
            "Backend::measure_jobs must return one report per job"
        );
        reports
            .into_iter()
            .enumerate()
            .map(|(slot, report)| {
                assert_eq!(
                    report.id, slot as u64,
                    "Backend::measure_jobs must echo job ids in input order"
                );
                report.outcome
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::compiler::CompileOptions;
    use atim_sim::UpmemConfig;

    #[test]
    fn batches_fill_every_slot_in_candidate_order() {
        use atim_autotune::{MemoMeasurer, ScheduleConfig};
        let backend = SimBackend::with_threads(UpmemConfig::small(), CompileOptions::default(), 3);
        let def = ComputeDef::mtv("mtv", 64, 48);
        let good_cfg = ScheduleConfig::default_for(&def, backend.hardware());
        let good = good_cfg.to_trace(&def);
        let bad = ScheduleConfig {
            spatial_dpus: vec![4096], // exceeds the 16-DPU small machine
            ..good_cfg
        }
        .to_trace(&def);
        let batch = vec![good.clone(), bad.clone(), good.clone()];
        let mut adapter = BackendMeasurer::new(&backend, &def, "upmem", 0);
        let mut measurer = MemoMeasurer::new(&mut adapter);
        let results = measurer.measure(&batch, &Cancellation::none());
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0], MeasureOutcome::Measured(_)));
        assert_eq!(
            results[1],
            MeasureOutcome::Failed,
            "impossible candidate must fail"
        );
        assert_eq!(results[0], results[2]);
        // Both distinct configs (including the failure) are memoized, and
        // the duplicate never reached the backend.
        assert_eq!(measurer.cache_len(), 2);
        assert_eq!(measurer.fresh(), 2);
        let hits_before = measurer.cache_hits();
        let again = measurer.measure(&batch, &Cancellation::none());
        assert_eq!(again, results);
        assert_eq!(measurer.cache_hits(), hits_before + 3);
        assert_eq!(measurer.replayed(), 0, "nothing was seeded from a log");
    }

    #[test]
    fn thread_count_parsing_fails_loudly_on_invalid_values() {
        // The env itself is process-global, so test the parser directly.
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8), "whitespace is tolerated");
        for bad in ["0", "abc", "", "-2", "1.5"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains(THREADS_ENV) && err.contains("positive integer"),
                "{bad:?} -> {err}"
            );
        }
        assert!(default_measure_threads() >= 1);
    }
}
