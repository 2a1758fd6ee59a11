//! # atim-bench — experiment harnesses for every table and figure
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the full index and `EXPERIMENTS.md` for
//! recorded results):
//!
//! | Binary              | Paper artifact |
//! |----------------------|----------------|
//! | `fig03_motivation`   | Fig. 3 (caching tile / tiling scheme / #DPUs sweeps) |
//! | `fig04_boundary`     | Fig. 4 (boundary-check impact, CPU vs UPMEM) |
//! | `fig09_tensor_ops`   | Fig. 9 (7 tensor ops × sizes × 5 configurations) |
//! | `table3_params`      | Table 3 (autotuned parameters) |
//! | `fig10_gptj`         | Fig. 10 (GPT-J 6B/30B MTV + MMTV) |
//! | `fig11_mmtv_sweep`   | Fig. 11 (MMTV speedup vs spatial size) |
//! | `fig12_pim_opts`     | Fig. 12 (PIM-aware optimization ablation) |
//! | `fig13_breakdown`    | Fig. 13 (DPU cycle breakdown under the ablation) |
//! | `fig14_search`       | Fig. 14 (balanced search convergence) |
//! | `fig15_tuning_cost`  | Fig. 15 (per-iteration tuning cost) |
//! | `sketch_spaces`      | Schedule-space comparison: every resident generator × workload (incl. batched GEMM / attention / int8) |
//!
//! The library part provides the shared measurement helpers: running every
//! baseline configuration and ATiM's autotuned configuration through the
//! same compile + simulate pipeline, on one shared [`Session`].
//!
//! Harness knobs (environment variables):
//!
//! * `ATIM_TRIALS` — autotuning trials per workload (default 48; the paper
//!   uses 1000, which also works but takes correspondingly longer).  Must
//!   be a positive integer; anything else aborts naming the variable.
//! * `ATIM_FULL` — set to `1` to run every paper size; by default the larger
//!   256/512 MB presets are skipped to keep a full harness sweep short.
//! * `ATIM_TUNE_LOG` — a directory for persistent tuning logs.  Each tuned
//!   workload streams its search there one flushed record per trial;
//!   re-running a harness **replays** a complete log instead of
//!   re-searching (tune once, serve many runs) and **resumes** an
//!   incomplete one left by a crash via warm-start.
//! * `ATIM_FLEET_WORKERS` — fan each tuning round's measurements across N
//!   local `atim-worker` processes (default: unset, in-process).  Results
//!   are bit-identical to in-process measurement; dead workers degrade the
//!   fleet gracefully instead of failing a sweep.
//!
//! # Example
//!
//! ```
//! use atim_bench::{select_sizes, trials_from_env};
//! use atim_workloads::ops::presets_for;
//! use atim_workloads::WorkloadKind;
//!
//! // Harness knobs come from the environment (`ATIM_TRIALS`, `ATIM_FULL`),
//! // so only assert what holds for any setting: filtering never grows the
//! // sweep.
//! let all = presets_for(WorkloadKind::Va);
//! let sizes = select_sizes(presets_for(WorkloadKind::Va));
//! assert!(sizes.len() <= all.len());
//! println!("sweep: {} sizes x {} trials", sizes.len(), trials_from_env());
//! ```

use std::path::PathBuf;

use atim_autotune::{ScheduleConfig, StreamingTuneLog, Trace, TuneLog, TuningOptions};
use atim_baselines::prim::{prim_default, prim_e_candidates, prim_search_candidates};
use atim_baselines::simplepim::{adjust_report, simplepim_config, SimplePimOverheads};
use atim_core::prelude::*;
use atim_sim::ExecutionReport;
use atim_workloads::Workload;

/// Environment variable naming a directory for persistent tuning logs.
pub const TUNE_LOG_ENV: &str = "ATIM_TUNE_LOG";

/// The shared harness session: the paper-sized simulated machine, measured
/// in-process by default, or across an `ATIM_FLEET_WORKERS`-sized fleet of
/// local worker processes.  Either way the measured latencies — and hence
/// every figure — are bit-identical; the fleet only changes wall-clock.
///
/// # Panics
/// Panics when `ATIM_FLEET_WORKERS` is set but the fleet cannot launch
/// (an explicitly requested fleet must never silently degrade to nothing),
/// and on invalid `ATIM_MEASURE_THREADS` values like [`Session::default`].
pub fn session() -> Session {
    match FleetBackend::from_env(BackendSpec::sim(UpmemConfig::default())) {
        Some(fleet) => {
            eprintln!(
                "atim-bench: measuring on a fleet of {} worker process(es)",
                fleet.workers_alive()
            );
            Session::builder().backend(fleet).build()
        }
        None => Session::default(),
    }
}

/// A harness session tuning from one **explicit** resident schedule space
/// (`"upmem"`, `"tiled"`, `"hw-native"`), used by the generator-comparison
/// sweeps.  Like [`session`], an `ATIM_FLEET_WORKERS`-sized fleet measures
/// when requested — its workers are configured for the same generator, so
/// the sweep's jobs stay fleet-remotable.
///
/// # Panics
/// Panics on an unknown generator id, and on fleet-launch failure like
/// [`session`].
pub fn session_for_generator(id: &str) -> Session {
    let generator = resolve_generator(id).unwrap_or_else(|| {
        panic!("unknown space generator {id:?}; known ids: {RESIDENT_GENERATOR_IDS:?}")
    });
    let builder = match atim_core::fleet::workers_from_env() {
        Some(workers) => {
            let mut options = FleetOptions::from_env();
            options.space_generator = Some(id.to_string());
            let fleet =
                FleetBackend::spawn(BackendSpec::sim(UpmemConfig::default()), workers, options)
                    .unwrap_or_else(|e| {
                        panic!("failed to launch the measurement fleet for {id:?}: {e}")
                    });
            Session::builder().backend(fleet)
        }
        None => Session::builder().hardware(UpmemConfig::default()),
    };
    builder.space_generator_arc(generator).build()
}

/// Environment variable overriding the harnesses' autotuning trial budget.
const TRIALS_ENV: &str = "ATIM_TRIALS";

/// Parses an `ATIM_TRIALS` value.
///
/// # Errors
/// Rejects zero and non-numeric values with a message naming the variable
/// — a misconfigured budget must fail loudly, not silently tune 48 trials
/// (or reach the tuner as a `ZeroTrials` panic).
fn parse_trials(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{TRIALS_ENV} must be a positive integer, got \"{raw}\""
        )),
    }
}

/// Number of autotuning trials used by the harnesses: `ATIM_TRIALS` if
/// set, otherwise 48.
///
/// # Panics
/// As [`trials_from_env_or`].
pub fn trials_from_env() -> usize {
    trials_from_env_or(48)
}

/// `ATIM_TRIALS` if set, otherwise `default` — for harnesses whose
/// unattended budget differs from the shared 48.
///
/// # Panics
/// Panics with a descriptive message when `ATIM_TRIALS` is set to an
/// invalid value (`0`, negative, or non-numeric).
pub fn trials_from_env_or(default: usize) -> usize {
    match std::env::var(TRIALS_ENV) {
        Ok(raw) => parse_trials(&raw).unwrap_or_else(|msg| panic!("{msg}")),
        Err(_) => default,
    }
}

/// Whether the harness should run every paper-sized preset.
pub fn full_from_env() -> bool {
    std::env::var("ATIM_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Filters size presets according to `ATIM_FULL`.
pub fn select_sizes(all: Vec<(String, Workload)>) -> Vec<(String, Workload)> {
    if full_from_env() {
        all
    } else {
        all.into_iter()
            .filter(|(label, _)| label == "4MB" || label == "64MB")
            .collect()
    }
}

/// The tuning-log path for one workload under `ATIM_TUNE_LOG`, or `None`
/// when the knob is unset.  The file name keys on the workload kind, the
/// *exact shape* and the trial budget — the human-readable size label
/// rounds to whole megabytes, so distinct shapes (e.g. GPT-J's
/// `[16,512,256]` and `[64,128,256]` MMTVs) would collide under it and
/// silently replay each other's searches.
pub fn tune_log_path(workload: &Workload, trials: usize) -> Option<PathBuf> {
    tune_log_path_for(workload, trials, "upmem")
}

/// [`tune_log_path`] keyed additionally on the schedule-space generator:
/// the default `"upmem"` space keeps the legacy
/// `{kind}_{shape}_t{trials}.json` name (existing corpora stay valid),
/// while other generators append their id so a generator-comparison sweep
/// never replays a different space's search as its own.
pub fn tune_log_path_for(workload: &Workload, trials: usize, generator: &str) -> Option<PathBuf> {
    let dir = std::env::var(TUNE_LOG_ENV).ok()?;
    let shape: Vec<String> = workload.shape.iter().map(|d| d.to_string()).collect();
    let suffix = if generator == "upmem" {
        String::new()
    } else {
        format!("_{generator}")
    };
    Some(PathBuf::from(dir).join(format!(
        "{}_{}_t{trials}{suffix}.json",
        workload.kind,
        shape.join("x")
    )))
}

/// One evaluated configuration of one workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Configuration label (`PrIM`, `PrIM(E)`, `PrIM+search`, `SimplePIM`,
    /// `ATiM`, `CPU`).
    pub config: String,
    /// Timing report (empty for the CPU baseline except `kernel_s`).
    pub report: ExecutionReport,
}

impl Measurement {
    /// Total latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.report.total_ms()
    }
}

/// Times one candidate trace of a workload (timing-only simulation).
/// Returns `None` when the candidate cannot run on the machine.
pub fn time_trace(
    session: &Session,
    workload: &Workload,
    trace: &Trace,
) -> Option<ExecutionReport> {
    let def = workload.compute_def();
    let module = session.compile(trace, &def).ok()?;
    session.time(&module).ok()
}

/// Times one knob-vector configuration (the form the PrIM/SimplePIM
/// baselines are expressed in).
pub fn time_config(
    session: &Session,
    workload: &Workload,
    cfg: &ScheduleConfig,
) -> Option<ExecutionReport> {
    time_trace(session, workload, &cfg.to_trace(&workload.compute_def()))
}

/// Times the PrIM default configuration.
pub fn prim_report(session: &Session, workload: &Workload) -> Option<ExecutionReport> {
    time_config(
        session,
        workload,
        &prim_default(workload, session.hardware()),
    )
}

/// Times the best configuration of the PrIM(E) DPU-count grid.
pub fn prim_e_report(session: &Session, workload: &Workload) -> Option<ExecutionReport> {
    best_of(
        session,
        workload,
        prim_e_candidates(workload, session.hardware()),
    )
}

/// Times the best configuration of the PrIM+search grid (DPU count ×
/// tasklets × caching tile).
pub fn prim_search_report(session: &Session, workload: &Workload) -> Option<ExecutionReport> {
    best_of(
        session,
        workload,
        prim_search_candidates(workload, session.hardware()),
    )
}

/// Times the SimplePIM framework (1-D workloads only).
pub fn simplepim_report(session: &Session, workload: &Workload) -> Option<ExecutionReport> {
    if !atim_baselines::simplepim::supports(workload.kind) {
        return None;
    }
    let cfg = simplepim_config(workload, session.hardware());
    let base = time_config(session, workload, &cfg)?;
    Some(adjust_report(
        workload,
        &base,
        &SimplePimOverheads::default(),
    ))
}

/// CPU-autotuned latency wrapped in a report (kernel time only: there is no
/// offload, so every transfer component is zero).
pub fn cpu_report(workload: &Workload, hw: &UpmemConfig) -> ExecutionReport {
    let est = atim_baselines::cpu::cpu_latency(workload, hw);
    ExecutionReport {
        kernel_s: est.time_s,
        ..Default::default()
    }
}

/// Autotunes ATiM for a workload — or, when `ATIM_TUNE_LOG` names a
/// directory holding a log for this workload and budget, replays the saved
/// search without re-searching.
///
/// Fresh searches are **streamed** to the log path one trial at a time
/// (JSON-lines with per-record flushes), so a crashed or interrupted harness
/// loses at most the trial being written.  An incomplete log found on the
/// next run is not discarded: the search warm-starts from its records —
/// replaying the recorded prefix bit-identically, measuring only the
/// remainder — while re-streaming the completed log to the same path.
pub fn atim_tuned(session: &Session, workload: &Workload, trials: usize) -> TunedModule {
    let def = workload.compute_def();
    let options = TuningOptions {
        trials,
        population: (trials * 2).clamp(16, 128),
        measure_per_round: (trials / 4).clamp(4, 16),
        ..TuningOptions::default()
    };
    let log_path = tune_log_path_for(workload, trials, session.space_generator().name());
    let mut resume: Option<TuneLog> = None;
    if let Some(path) = &log_path {
        if let Ok(log) = TuneLog::load(path) {
            // A log recorded for a different workload (stale file, renamed
            // preset) must never be replayed as this one.
            if log.workload == def.name {
                if log.complete {
                    return session.replay(&def, &log);
                }
                eprintln!(
                    "# resuming interrupted tuning log {} ({} recorded trials)",
                    path.display(),
                    log.len()
                );
                resume = Some(log);
            } else {
                eprintln!(
                    "# warning: ignoring tuning log {} recorded for workload \"{}\" \
                     (expected \"{}\")",
                    path.display(),
                    log.workload,
                    def.name
                );
            }
        }
    }
    // A fresh search streams straight to the log path (there is nothing to
    // lose); a *resumed* search streams to a sibling temp file and renames
    // it over the original only after finishing, so the already-persisted
    // prefix survives even if the resumed run crashes too.
    let stream_path = log_path.as_ref().map(|path| {
        if resume.is_some() {
            path.with_extension("json.tmp")
        } else {
            path.clone()
        }
    });
    let mut observer: Box<dyn TuningObserver> = match &stream_path {
        Some(path) => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).ok();
            }
            match StreamingTuneLog::create(path, &def.name, options.seed) {
                Ok(stream) => Box::new(stream),
                Err(err) => {
                    eprintln!(
                        "# warning: cannot stream tuning log {}: {err}",
                        path.display()
                    );
                    Box::new(NullObserver)
                }
            }
        }
        None => Box::new(NullObserver),
    };
    let tuned = match &resume {
        Some(log) => session.tune_warm(&def, &options, log, &Budget::unlimited(), &mut *observer),
        None => session.tune_observed(&def, &options, &Budget::unlimited(), &mut *observer),
    };
    drop(observer);
    if resume.is_some() {
        if let (Some(tmp), Some(path)) = (&stream_path, &log_path) {
            if tmp != path {
                if let Err(err) = std::fs::rename(tmp, path) {
                    eprintln!(
                        "# warning: could not finalize resumed tuning log {}: {err}",
                        path.display()
                    );
                }
            }
        }
    }
    tuned.expect("harness tuning options are valid")
}

/// Autotunes ATiM for a workload and times the best trace.
pub fn atim_report(
    session: &Session,
    workload: &Workload,
    trials: usize,
) -> (Trace, ExecutionReport) {
    let tuned = atim_tuned(session, workload, trials);
    let trace = tuned.best_trace().clone();
    let report = time_trace(session, workload, &trace).unwrap_or_default();
    (trace, report)
}

fn best_of(
    session: &Session,
    workload: &Workload,
    candidates: Vec<ScheduleConfig>,
) -> Option<ExecutionReport> {
    candidates
        .into_iter()
        .filter_map(|c| time_config(session, workload, &c))
        .min_by(|a, b| {
            a.total_s()
                .partial_cmp(&b.total_s())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// Runs every configuration of Fig. 9/10 for one workload.
pub fn evaluate_workload(
    session: &Session,
    workload: &Workload,
    trials: usize,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    if let Some(r) = prim_report(session, workload) {
        out.push(Measurement {
            config: "PrIM".into(),
            report: r,
        });
    }
    if let Some(r) = prim_e_report(session, workload) {
        out.push(Measurement {
            config: "PrIM(E)".into(),
            report: r,
        });
    }
    if let Some(r) = prim_search_report(session, workload) {
        out.push(Measurement {
            config: "PrIM+search".into(),
            report: r,
        });
    }
    if let Some(r) = simplepim_report(session, workload) {
        out.push(Measurement {
            config: "SimplePIM".into(),
            report: r,
        });
    }
    let (_, r) = atim_report(session, workload, trials);
    out.push(Measurement {
        config: "ATiM".into(),
        report: r,
    });
    out.push(Measurement {
        config: "CPU".into(),
        report: cpu_report(workload, session.hardware()),
    });
    out
}

/// Prints a CSV-style results table normalized to the first PIM entry
/// (PrIM), in the style of the paper's Fig. 9/10 bars plus the CPU-speedup
/// line.
pub fn print_normalized_table(title: &str, workload: &Workload, rows: &[Measurement]) {
    println!("# {title} — {}", workload.label());
    println!("config,h2d_ms,kernel_ms,d2h_reduce_ms,total_ms,normalized_to_prim,speedup_over_cpu");
    let prim_total = rows
        .iter()
        .find(|m| m.config == "PrIM")
        .map(|m| m.total_ms())
        .unwrap_or(f64::NAN);
    let cpu_total = rows
        .iter()
        .find(|m| m.config == "CPU")
        .map(|m| m.total_ms())
        .unwrap_or(f64::NAN);
    for m in rows {
        let r = &m.report;
        println!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.3},{:.2}",
            m.config,
            r.h2d_s * 1e3,
            r.kernel_s * 1e3,
            (r.d2h_s + r.reduce_s) * 1e3,
            m.total_ms(),
            m.total_ms() / prim_total,
            cpu_total / m.total_ms(),
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use atim_workloads::WorkloadKind;

    #[test]
    fn evaluate_small_workload_produces_all_configs() {
        let session = Session::default();
        let w = Workload::new(WorkloadKind::Va, vec![1 << 16]);
        let rows = evaluate_workload(&session, &w, 8);
        let names: Vec<&str> = rows.iter().map(|m| m.config.as_str()).collect();
        assert!(names.contains(&"PrIM"));
        assert!(names.contains(&"PrIM+search"));
        assert!(names.contains(&"SimplePIM"));
        assert!(names.contains(&"ATiM"));
        assert!(names.contains(&"CPU"));
        assert!(rows.iter().all(|m| m.total_ms() > 0.0));
    }

    #[test]
    fn simplepim_is_skipped_for_matrix_workloads() {
        let session = Session::default();
        let w = Workload::new(WorkloadKind::Mtv, vec![512, 512]);
        assert!(simplepim_report(&session, &w).is_none());
        assert!(prim_report(&session, &w).is_some());
    }

    #[test]
    fn trial_budget_parsing_fails_loudly_on_invalid_values() {
        // The env itself is process-global, so test the parser directly.
        assert_eq!(parse_trials("48"), Ok(48));
        assert_eq!(parse_trials(" 8 "), Ok(8), "whitespace is tolerated");
        for bad in ["0", "abc", "", "-1", "1e3"] {
            let err = parse_trials(bad).unwrap_err();
            assert!(
                err.contains(TRIALS_ENV) && err.contains("positive integer"),
                "{bad:?} -> {err}"
            );
        }
        // Every harness budget goes through that parser; only the fallback
        // for an unset variable differs (fig14_search sweeps 200).
        if std::env::var(TRIALS_ENV).is_err() {
            assert_eq!(trials_from_env(), 48);
            assert_eq!(trials_from_env_or(200), 200);
        }
    }

    #[test]
    fn env_knobs_have_defaults() {
        assert!(trials_from_env() > 0);
        let sizes = select_sizes(atim_workloads::ops::presets_for(WorkloadKind::Mtv));
        assert!(!sizes.is_empty());
    }

    #[test]
    fn tune_log_paths_key_on_workload_and_budget() {
        // The env var is process-global; only exercise the pure layout
        // logic by checking the None path here.
        if std::env::var(TUNE_LOG_ENV).is_err() {
            let w = Workload::new(WorkloadKind::Mtv, vec![64, 64]);
            assert!(tune_log_path(&w, 8).is_none());
        }
    }
}
