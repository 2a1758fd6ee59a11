//! Durable tuning logs: save a search, reload it in a fresh process, and
//! either **replay** it straight to a result (tune once, serve many) or
//! **warm-start** a new search from its measurements.
//!
//! The log is the first-class artifact of autotuning — exactly the
//! AutoTVM-style record log downstream systems build on — so it is encoded
//! as plain JSON ([`crate::json`]) with a format version, the workload
//! name, the RNG seed and the full [`TuningResult`] (best candidate plus
//! per-trial history).
//!
//! Warm-starting reuses the determinism of the whole stack: a
//! [`MemoMeasurer`](crate::tuner::MemoMeasurer) seeded with [`TuneLog::memo`]
//! answers measurements recorded in the log without touching the backend, so
//! re-running a session with the *same options and seed* re-drives the
//! identical search trajectory while only paying for measurements the log
//! does not already contain.  An interrupted 1000-trial search resumed this
//! way converges to the same best configuration as an uninterrupted one.

use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use crate::json::{Json, JsonCodec, JsonError};
use crate::session::TuningObserver;
use crate::trace::Trace;
use crate::tuner::{TuningRecord, TuningResult};

/// The current log format version (bumped on breaking schema changes).
///
/// * **v1** — candidates as `ScheduleConfig` knob objects.
/// * **v2** — candidates as [`Trace`]s (sketch tag + decision list).
///
/// Loaders accept both: v1 candidates are shimmed into decisions-only
/// traces, which compare, hash and re-materialize identically — so a v1
/// `ATIM_TUNE_LOG` directory replays and warm-starts bit-identically under
/// the v2 codec.
pub const TUNE_LOG_VERSION: i64 = 2;

/// The oldest format version the loaders still understand.
pub const MIN_TUNE_LOG_VERSION: i64 = 1;

/// The `format` tag of the streaming (JSON-lines) log layout written by
/// [`TuneLogWriter`].
const STREAM_FORMAT: &str = "trial-stream";

/// A persisted tuning run: workload identity, seed, and the full result.
///
/// Two on-disk layouts decode to this type:
///
/// * the **document** layout ([`TuneLog::save`]): one self-contained JSON
///   object, written after the search finishes;
/// * the **streaming** layout ([`TuneLogWriter`]): a header line followed by
///   one flushed JSON line per measured trial and a closing summary line, so
///   a crashed session loses at most the trial that was being written.  A
///   truncated trailing line is tolerated on load; a missing summary line
///   marks the log [`TuneLog::complete`]` == false` (resume it with
///   [`crate::session::TuningSession`] + a seeded
///   [`MemoMeasurer`](crate::tuner::MemoMeasurer)).
#[derive(Debug, Clone)]
pub struct TuneLog {
    /// Format version (see [`TUNE_LOG_VERSION`]).
    pub version: i64,
    /// Name of the workload the log was tuned for (matches
    /// `ComputeDef::name`; replaying against a different workload is the
    /// caller's responsibility to guard).
    pub workload: String,
    /// RNG seed of the tuning options that produced the log.  Warm-starting
    /// reproduces the original trajectory only when re-run with this seed.
    pub seed: u64,
    /// Whether the log records a finished search.  Document-layout logs are
    /// always complete; a streaming log is complete only when its summary
    /// line was written (i.e. the session did not crash mid-search).
    pub complete: bool,
    /// The recorded result: best candidate, per-trial history and counters.
    pub result: TuningResult,
}

/// Errors raised while loading or decoding a [`TuneLog`].
#[derive(Debug)]
pub enum TuneLogError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file contents are not a valid tuning log.
    Parse(JsonError),
    /// The log has a format version this build does not understand.
    UnsupportedVersion(i64),
}

impl fmt::Display for TuneLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneLogError::Io(e) => write!(f, "tune log I/O error: {e}"),
            TuneLogError::Parse(e) => write!(f, "tune log parse error: {e}"),
            TuneLogError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "tune log version {v} is not supported (expected {TUNE_LOG_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for TuneLogError {}

impl From<std::io::Error> for TuneLogError {
    fn from(e: std::io::Error) -> Self {
        TuneLogError::Io(e)
    }
}

impl From<JsonError> for TuneLogError {
    fn from(e: JsonError) -> Self {
        TuneLogError::Parse(e)
    }
}

impl TuneLog {
    /// Packages a finished (or paused) tuning result as a log.
    pub fn new(workload: impl Into<String>, seed: u64, result: TuningResult) -> Self {
        TuneLog {
            version: TUNE_LOG_VERSION,
            workload: workload.into(),
            seed,
            complete: true,
            result,
        }
    }

    /// The best trace and latency recorded in the log.
    pub fn best(&self) -> Option<(&Trace, f64)> {
        self.result.best.as_ref().map(|(c, l)| (c, *l))
    }

    /// Number of recorded (successful) trials.
    pub fn len(&self) -> usize {
        self.result.history.len()
    }

    /// Whether the log holds no trials.
    pub fn is_empty(&self) -> bool {
        self.result.history.is_empty()
    }

    /// The `trace → latency` memo of every recorded measurement — the seed
    /// of [`MemoMeasurer::seeded`](crate::tuner::MemoMeasurer::seeded), for
    /// anything that wants to skip re-measuring known candidates.  Keys use trace identity (sketch +
    /// decisions), so decisions-only entries loaded from a log answer for
    /// the materialized traces a live search proposes.
    pub fn memo(&self) -> HashMap<Trace, f64> {
        self.result
            .history
            .iter()
            .map(|r| (r.trace.clone(), r.latency_s))
            .collect()
    }

    /// Reconstructs the [`TuningResult`] recorded in the log — replaying a
    /// tuned workload without re-searching.
    pub fn to_result(&self) -> TuningResult {
        self.result.clone()
    }

    /// Serializes the log to JSON text (one self-contained document).
    pub fn to_json_string(&self) -> String {
        Json::Obj(vec![
            ("version".into(), Json::Int(self.version)),
            ("workload".into(), Json::Str(self.workload.clone())),
            // u64 seeds can exceed what a JSON double represents exactly, so
            // the seed travels as a decimal string.
            ("seed".into(), Json::Str(self.seed.to_string())),
            ("result".into(), self.result.to_json()),
        ])
        .to_string()
    }

    /// Parses a log from text, accepting both the document layout and the
    /// streaming (JSON-lines) layout.
    ///
    /// # Errors
    /// Returns a [`TuneLogError`] on malformed JSON, schema mismatches or an
    /// unsupported format version.  A *truncated trailing line* of a
    /// streaming log (the crash signature the layout exists for) is not an
    /// error: the damaged line is dropped and the log loads as incomplete.
    pub fn from_json_str(text: &str) -> Result<Self, TuneLogError> {
        let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        let header = Json::parse(first)?;
        let is_stream = header
            .get("format")
            .ok()
            .and_then(|f| f.as_str().ok().map(|s| s == STREAM_FORMAT))
            .unwrap_or(false);
        if is_stream {
            return Self::from_stream_str(text, &header);
        }
        let json = Json::parse(text)?;
        let version = json.get("version")?.as_i64()?;
        if !(MIN_TUNE_LOG_VERSION..=TUNE_LOG_VERSION).contains(&version) {
            return Err(TuneLogError::UnsupportedVersion(version));
        }
        Ok(TuneLog {
            version,
            workload: json.get("workload")?.as_str()?.to_string(),
            seed: parse_seed(&json)?,
            complete: true,
            result: TuningResult::from_json(json.get("result")?)?,
        })
    }

    /// Decodes the streaming layout: `header` is the already-parsed first
    /// line, the remaining non-empty lines are per-trial records plus an
    /// optional closing summary.
    fn from_stream_str(text: &str, header: &Json) -> Result<Self, TuneLogError> {
        let version = header.get("version")?.as_i64()?;
        if !(MIN_TUNE_LOG_VERSION..=TUNE_LOG_VERSION).contains(&version) {
            return Err(TuneLogError::UnsupportedVersion(version));
        }
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .skip(1)
            .collect();
        let mut history: Vec<TuningRecord> = Vec::new();
        let mut summary: Option<(usize, usize)> = None;
        for (k, line) in lines.iter().enumerate() {
            let decoded = Json::parse(line).and_then(|json| {
                if json.get("summary").is_ok() {
                    Ok(Some((
                        json.get("failed")?.as_usize()?,
                        json.get("rejected")?.as_usize()?,
                    )))
                } else {
                    TuningRecord::from_json(&json).map(|r| {
                        history.push(r);
                        None
                    })
                }
            });
            match decoded {
                Ok(Some(s)) => summary = Some(s),
                Ok(None) => {}
                // A damaged *last* line is the expected crash signature;
                // damage anywhere else is real corruption.
                Err(_) if k + 1 == lines.len() => break,
                Err(e) => return Err(TuneLogError::Parse(e)),
            }
        }
        // Reconstruct the result the recording session held: the best entry
        // is the earliest strictly-smallest latency, matching the candidate
        // database's tie-breaking.
        let best = history
            .iter()
            .fold(None::<(&Trace, f64)>, |best, r| match best {
                Some((_, l)) if l <= r.latency_s => best,
                _ => Some((&r.trace, r.latency_s)),
            })
            .map(|(c, l)| (c.clone(), l));
        let (failed, rejected) = summary.unwrap_or((0, 0));
        Ok(TuneLog {
            version,
            workload: header.get("workload")?.as_str()?.to_string(),
            seed: parse_seed(header)?,
            complete: summary.is_some(),
            result: TuningResult {
                best,
                measured: history.len(),
                history,
                failed,
                rejected,
            },
        })
    }

    /// Writes the log to a file.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TuneLogError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json_string().as_bytes())?;
        file.write_all(b"\n")?;
        Ok(())
    }

    /// Reads a log from a file.
    ///
    /// # Errors
    /// Returns a [`TuneLogError`] on I/O failures or malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TuneLogError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Self::from_json_str(&text)
    }
}

/// Decodes the decimal-string `seed` field shared by both layouts.
fn parse_seed(json: &Json) -> Result<u64, TuneLogError> {
    Ok(json
        .get("seed")?
        .as_str()?
        .parse::<u64>()
        .map_err(|_| JsonError {
            message: "seed must be a decimal u64 string".into(),
            offset: None,
        })?)
}

/// Incremental writer of the streaming log layout: one flushed JSON line
/// per measured trial, so a crash loses at most the record being written.
///
/// Layout: a header line (version, workload, seed, format tag), then one
/// [`TuningRecord`] line per trial, then — only on [`TuneLogWriter::finish`]
/// — a summary line carrying the failure/rejection counters.  The file is
/// readable by [`TuneLog::load`] at every point in between.
#[derive(Debug)]
pub struct TuneLogWriter {
    file: std::fs::File,
    records: usize,
}

impl TuneLogWriter {
    /// Creates (truncating) the log file and writes the header line.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn create(path: impl AsRef<Path>, workload: &str, seed: u64) -> Result<Self, TuneLogError> {
        let mut file = std::fs::File::create(path)?;
        let header = Json::Obj(vec![
            ("version".into(), Json::Int(TUNE_LOG_VERSION)),
            ("workload".into(), Json::Str(workload.to_string())),
            ("seed".into(), Json::Str(seed.to_string())),
            ("format".into(), Json::Str(STREAM_FORMAT.into())),
        ]);
        writeln!(file, "{header}")?;
        file.flush()?;
        Ok(TuneLogWriter { file, records: 0 })
    }

    /// Appends one trial record and flushes it to disk.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn append(&mut self, record: &TuningRecord) -> Result<(), TuneLogError> {
        writeln!(self.file, "{}", record.to_json())?;
        self.file.flush()?;
        self.records += 1;
        Ok(())
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether no records were appended yet.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Writes the closing summary line, marking the log complete.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn finish(mut self, result: &TuningResult) -> Result<(), TuneLogError> {
        let summary = Json::Obj(vec![
            ("summary".into(), Json::Bool(true)),
            ("measured".into(), Json::Int(result.measured as i64)),
            ("failed".into(), Json::Int(result.failed as i64)),
            ("rejected".into(), Json::Int(result.rejected as i64)),
        ]);
        writeln!(self.file, "{summary}")?;
        self.file.flush()?;
        Ok(())
    }
}

/// A [`TuningObserver`] that streams every measured trial to a
/// [`TuneLogWriter`] as it happens and finalizes the log on the first
/// `on_finish`.
///
/// I/O failures never abort the search: the first write error is reported to
/// stderr and further writes are disabled (the partial log remains loadable).
#[derive(Debug)]
pub struct StreamingTuneLog {
    writer: Option<TuneLogWriter>,
}

impl StreamingTuneLog {
    /// Creates the underlying log file; see [`TuneLogWriter::create`].
    ///
    /// # Errors
    /// Propagates I/O errors from creating the file.
    pub fn create(path: impl AsRef<Path>, workload: &str, seed: u64) -> Result<Self, TuneLogError> {
        Ok(StreamingTuneLog {
            writer: Some(TuneLogWriter::create(path, workload, seed)?),
        })
    }

    /// Records streamed so far.
    pub fn recorded(&self) -> usize {
        self.writer.as_ref().map(TuneLogWriter::len).unwrap_or(0)
    }
}

impl TuningObserver for StreamingTuneLog {
    fn on_trial(&mut self, record: &TuningRecord) {
        if let Some(writer) = &mut self.writer {
            if let Err(err) = writer.append(record) {
                eprintln!("# warning: tuning log write failed, disabling streaming: {err}");
                self.writer = None;
            }
        }
    }

    fn on_finish(&mut self, result: &TuningResult, _reason: crate::session::StopReason) {
        if let Some(writer) = self.writer.take() {
            if let Err(err) = writer.finish(result) {
                eprintln!("# warning: tuning log finalization failed: {err}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Budget, NullObserver, TuningSession};
    use crate::space::ScheduleConfig;
    use crate::tuner::{MemoMeasurer, TuningOptions, TuningRecord};
    use atim_sim::UpmemConfig;
    use atim_tir::compute::ComputeDef;

    fn analytic(def: &ComputeDef) -> impl FnMut(&Trace) -> Option<f64> {
        let work = def.total_flops() as f64;
        move |t: &Trace| {
            let dpus = t.num_dpus() as f64;
            let tasklets = t.tasklets().min(11) as f64;
            let cache = if t.use_cache() { 1.0 } else { 8.0 };
            Some((work / (dpus * tasklets) * cache + dpus * 0.001) * 1e-6)
        }
    }

    fn sample_log() -> TuneLog {
        let trace = ScheduleConfig {
            spatial_dpus: vec![64],
            reduce_dpus: 4,
            tasklets: 16,
            cache_elems: 32,
            use_cache: true,
            unroll: true,
            host_threads: 4,
            parallel_transfer: true,
        }
        .to_decision_trace();
        TuneLog::new(
            "mtv",
            0xDEAD_BEEF_DEAD_BEEF,
            TuningResult {
                best: Some((trace.clone(), 5e-4)),
                history: vec![TuningRecord {
                    trial: 0,
                    trace,
                    latency_s: 5e-4,
                    best_so_far_s: 5e-4,
                }],
                measured: 1,
                failed: 2,
                rejected: 3,
            },
        )
    }

    #[test]
    fn log_round_trips_through_json_text() {
        let log = sample_log();
        let back = TuneLog::from_json_str(&log.to_json_string()).unwrap();
        assert_eq!(back.version, TUNE_LOG_VERSION);
        assert_eq!(back.workload, "mtv");
        assert_eq!(back.seed, 0xDEAD_BEEF_DEAD_BEEF);
        assert_eq!(back.result.best, log.result.best);
        assert_eq!(back.result.history, log.result.history);
        assert_eq!(back.result.failed, 2);
        assert_eq!(back.result.rejected, 3);
    }

    #[test]
    fn log_round_trips_through_a_file() {
        let log = sample_log();
        let path = std::env::temp_dir().join("atim_log_roundtrip_test.json");
        log.save(&path).unwrap();
        let back = TuneLog::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.result.best, log.result.best);
        assert_eq!(back.result.history, log.result.history);
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let mut text = sample_log().to_json_string();
        text = text.replace("\"version\":2", "\"version\":999");
        match TuneLog::from_json_str(&text) {
            Err(TuneLogError::UnsupportedVersion(999)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn streaming_logs_round_trip_and_mark_completion() {
        let log = sample_log();
        let path = std::env::temp_dir().join("atim_stream_roundtrip_test.jsonl");
        let mut writer = TuneLogWriter::create(&path, &log.workload, log.seed).unwrap();
        for record in &log.result.history {
            writer.append(record).unwrap();
        }

        // Before the summary line: loadable, but incomplete.
        let partial = TuneLog::load(&path).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.workload, log.workload);
        assert_eq!(partial.seed, log.seed);
        assert_eq!(partial.result.history, log.result.history);
        assert_eq!(partial.result.failed, 0, "counters unknown before summary");

        // Re-write with a finish: complete, counters restored.
        let mut writer = TuneLogWriter::create(&path, &log.workload, log.seed).unwrap();
        for record in &log.result.history {
            writer.append(record).unwrap();
        }
        writer.finish(&log.result).unwrap();
        let full = TuneLog::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(full.complete);
        assert_eq!(full.result.best, log.result.best);
        assert_eq!(full.result.history, log.result.history);
        assert_eq!(full.result.failed, log.result.failed);
        assert_eq!(full.result.rejected, log.result.rejected);
    }

    #[test]
    fn truncated_trailing_lines_lose_at_most_one_record() {
        let log = sample_log();
        let path = std::env::temp_dir().join("atim_stream_truncated_test.jsonl");
        let mut writer = TuneLogWriter::create(&path, &log.workload, log.seed).unwrap();
        let record = &log.result.history[0];
        writer.append(record).unwrap();
        writer.append(record).unwrap();
        drop(writer);
        // Simulate a crash mid-write: append half a record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let half = &record.to_json().to_string()[..20];
        text.push_str(half);
        std::fs::write(&path, &text).unwrap();

        let loaded = TuneLog::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!loaded.complete);
        assert_eq!(loaded.len(), 2, "the damaged trailing record is dropped");
        assert_eq!(loaded.result.history[0], *record);

        // Corruption *before* the end is a real error, not a truncation.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = "{broken".into();
        let err = TuneLog::from_json_str(&lines.join("\n")).unwrap_err();
        assert!(matches!(err, TuneLogError::Parse(_)));
    }

    #[test]
    fn interrupted_streams_resume_via_warm_start_to_the_fresh_result() {
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let hw = UpmemConfig::default();
        let options = TuningOptions {
            trials: 32,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut m = analytic(&def);
        let fresh = crate::tuner::tune(&def, &hw, &options, &mut m);

        // "Crash" after 16 trials: the streaming log has those records and
        // no summary line.
        let path = std::env::temp_dir().join("atim_stream_resume_test.jsonl");
        let mut writer = TuneLogWriter::create(&path, &def.name, options.seed).unwrap();
        for record in &fresh.history[..16] {
            writer.append(record).unwrap();
        }
        drop(writer);

        let log = TuneLog::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!log.complete);
        assert_eq!(log.len(), 16);

        let mut session = TuningSession::new(&def, &hw, &options).unwrap();
        let mut m2 = analytic(&def);
        let mut warm = MemoMeasurer::seeded(&mut m2, log.memo());
        let resumed = session.run(&mut warm, &Budget::unlimited(), &mut NullObserver);
        assert_eq!(resumed.best, fresh.best);
        assert_eq!(resumed.history, fresh.history);
        assert!(warm.replayed() >= 8, "the streamed prefix must be reused");
    }

    #[test]
    fn logs_truncated_mid_record_inside_a_round_resume_to_the_fresh_result() {
        // Regression: the resume path was only exercised with logs cut at a
        // round boundary (16 records with measure_per_round = 8).  A real
        // crash lands anywhere — here 13 complete records (mid-round) plus a
        // torn half-record (mid-append).  The loader must drop exactly the
        // torn line, report the log incomplete, and a warm start from it
        // must still reproduce the fresh trajectory bit-for-bit.
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let hw = UpmemConfig::default();
        let options = TuningOptions {
            trials: 32,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };
        let mut m = analytic(&def);
        let fresh = crate::tuner::tune(&def, &hw, &options, &mut m);
        assert!(fresh.history.len() >= 14, "need a second round to cut into");

        let path = std::env::temp_dir().join("atim_stream_midrecord_resume_test.jsonl");
        let mut writer = TuneLogWriter::create(&path, &def.name, options.seed).unwrap();
        for record in &fresh.history[..13] {
            writer.append(record).unwrap();
        }
        drop(writer);
        // The crash tears the 14th record partway through the append.
        let torn = fresh.history[13].to_json().to_string();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, &text).unwrap();

        let log = TuneLog::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!log.complete, "a log without a summary is incomplete");
        assert_eq!(log.len(), 13, "only the torn record is lost");
        assert_eq!(log.result.history, fresh.history[..13]);

        let mut session = TuningSession::new(&def, &hw, &options).unwrap();
        let mut m2 = analytic(&def);
        let mut warm = MemoMeasurer::seeded(&mut m2, log.memo());
        let resumed = session.run(&mut warm, &Budget::unlimited(), &mut NullObserver);
        assert_eq!(resumed.best, fresh.best);
        assert_eq!(resumed.history, fresh.history);
        assert!(
            warm.replayed() >= 13,
            "every surviving record must be answered from the log"
        );
        assert!(
            warm.fresh() < fresh.measured,
            "resume must measure strictly less than a fresh search"
        );
    }

    #[test]
    fn warm_start_reproduces_the_fresh_search_trajectory() {
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let hw = UpmemConfig::default();
        let options = TuningOptions {
            trials: 32,
            population: 24,
            measure_per_round: 8,
            ..TuningOptions::default()
        };

        // Fresh, uninterrupted search.
        let mut m = analytic(&def);
        let fresh = crate::tuner::tune(&def, &hw, &options, &mut m);

        // Interrupted search: stop after ~half the budget and persist.
        let mut partial_session = TuningSession::new(&def, &hw, &options).unwrap();
        let mut m1 = analytic(&def);
        let partial = partial_session.run(&mut m1, &Budget::trials(16), &mut NullObserver);
        let log = TuneLog::new(&def.name, options.seed, partial);

        // Warm-started search: same options + seed, log answers the prefix.
        let mut session = TuningSession::new(&def, &hw, &options).unwrap();
        let mut m2 = analytic(&def);
        let mut warm = MemoMeasurer::seeded(&mut m2, log.memo());
        let resumed = session.run(&mut warm, &Budget::unlimited(), &mut NullObserver);

        assert_eq!(resumed.best, fresh.best, "warm start must match fresh");
        assert_eq!(resumed.history, fresh.history);
        assert!(
            warm.replayed() >= log.len() / 2,
            "the log prefix must be reused"
        );
        assert!(
            warm.fresh() < fresh.measured,
            "warm start must measure strictly less than a fresh search"
        );
    }
}
