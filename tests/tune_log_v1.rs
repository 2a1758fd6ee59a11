//! Backward compatibility of the v2 (trace-based) tuning-log codec against
//! **committed v1 fixtures** generated by the pre-trace implementation:
//!
//! * `tests/fixtures/tune_log_v1.json` — document layout, the first 16
//!   trials of a 32-trial mtv-2048×2048 search (seed = the default
//!   `TuningOptions` seed) against the analytic measurer below.
//! * `tests/fixtures/tune_log_v1_stream.jsonl` — the same prefix in the
//!   streaming layout with no summary line (the crash signature).
//! * `tests/fixtures/tune_log_v1_full.json` — the uninterrupted 32-trial
//!   search, i.e. the ground truth a resumed search must reproduce.
//!
//! The fixtures must keep **loading** (v1 configs shim into decision
//! traces), **replaying** (identical result, bit-exact latencies) and
//! **warm-starting** (a fresh v2 session resumed from the v1 prefix lands
//! exactly on the committed full-search result).

use atim_autotune::log::TuneLog;
use atim_autotune::session::{Budget, NullObserver, TuningSession};
use atim_autotune::{MemoMeasurer, ScheduleConfig, Trace, TuningOptions};
use atim_core::prelude::*;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The exact analytic latency model the fixtures were generated with
/// (knob-vector form), evaluated from a trace's decisions.
fn fixture_latency(def: &ComputeDef, t: &Trace) -> Option<f64> {
    let work = def.total_flops() as f64;
    let dpus = t.num_dpus() as f64;
    let tasklets = t.tasklets().min(11) as f64;
    let cache = if t.use_cache() { 1.0 } else { 8.0 };
    Some((work / (dpus * tasklets) * cache + dpus * 0.001) * 1e-6)
}

fn fixture_def() -> ComputeDef {
    ComputeDef::mtv("mtv", 2048, 2048)
}

fn fixture_options() -> TuningOptions {
    TuningOptions {
        trials: 32,
        population: 24,
        measure_per_round: 8,
        ..TuningOptions::default()
    }
}

#[test]
fn v1_document_fixture_loads_and_replays_bit_identically() {
    let log = TuneLog::from_json_str(&fixture("tune_log_v1.json")).expect("v1 log loads");
    assert_eq!(
        log.version, 1,
        "the fixture's recorded version is preserved"
    );
    assert_eq!(log.workload, "mtv");
    assert_eq!(log.seed, fixture_options().seed);
    assert!(log.complete);
    assert_eq!(log.len(), 16);

    // Every v1 config shims into a decisions-only UPMEM trace whose knob
    // view recovers the original values, and the recorded latencies match
    // re-evaluating the fixture's analytic model on those knobs bit-exactly.
    let def = fixture_def();
    for rec in &log.result.history {
        let cfg = ScheduleConfig::from_trace(&rec.trace).expect("v1 records carry UPMEM knobs");
        assert_eq!(rec.trace, cfg.to_decision_trace());
        let expect = fixture_latency(&def, &rec.trace).unwrap();
        assert_eq!(
            rec.latency_s.to_bits(),
            expect.to_bits(),
            "trial {}: fixture latency diverges from its model",
            rec.trial
        );
    }

    // Replay through the session API: identical best and history.
    let session = Session::default();
    let replayed = session.replay(&def, &log);
    let (best, best_lat) = log.best().expect("fixture has a best");
    assert_eq!(replayed.best_trace(), best);
    assert_eq!(replayed.best_latency_s().to_bits(), best_lat.to_bits());
    assert_eq!(replayed.history(), &log.result.history[..]);

    // The replayed best compiles and executes through the real simulator.
    let module = session
        .compile(replayed.best_trace(), &def)
        .expect("replayed v1 best compiles");
    assert!(module.num_dpus() >= 1);
}

#[test]
fn v1_stream_fixture_loads_as_incomplete_with_the_same_records() {
    let doc = TuneLog::from_json_str(&fixture("tune_log_v1.json")).unwrap();
    let stream = TuneLog::from_json_str(&fixture("tune_log_v1_stream.jsonl")).unwrap();
    assert_eq!(stream.version, 1);
    assert!(
        !stream.complete,
        "no summary line: the crash signature loads as incomplete"
    );
    assert_eq!(stream.result.history, doc.result.history);
    assert_eq!(stream.best().map(|(t, l)| (t.clone(), l)), {
        doc.best().map(|(t, l)| (t.clone(), l))
    });
}

#[test]
fn v1_fixtures_warm_start_to_the_committed_full_search() {
    let def = fixture_def();
    let options = fixture_options();
    let hw = UpmemConfig::default();
    let full = TuneLog::from_json_str(&fixture("tune_log_v1_full.json")).expect("full fixture");
    assert_eq!(full.len(), 32);

    for name in ["tune_log_v1.json", "tune_log_v1_stream.jsonl"] {
        let prefix = TuneLog::from_json_str(&fixture(name)).expect("prefix fixture");
        let mut session = TuningSession::new(&def, &hw, &options).unwrap();
        let mut measure = |t: &Trace| fixture_latency(&def, t);
        let mut warm = MemoMeasurer::seeded(&mut measure, prefix.memo());
        let resumed = session.run(&mut warm, &Budget::unlimited(), &mut NullObserver);

        assert_eq!(resumed.measured, 32, "{name}: resumed to the full budget");
        assert!(
            warm.replayed() >= 16,
            "{name}: the committed 16-trial prefix must be answered from the log"
        );
        assert_eq!(
            resumed.history, full.result.history,
            "{name}: resumed history must equal the committed full search"
        );
        assert_eq!(
            resumed.best, full.result.best,
            "{name}: resumed best must equal the committed full search"
        );
        let (_, resumed_lat) = resumed.best.unwrap();
        let (_, full_lat) = full.result.best.clone().unwrap();
        assert_eq!(resumed_lat.to_bits(), full_lat.to_bits());
    }
}

/// Regenerates the three committed fixtures by driving the *reference*
/// search (the same algorithm [`TuningSession`] implements, measured by
/// [`fixture_latency`]) and re-encoding its records in the v1 knob-vector
/// layout.  Run manually after any trajectory-affecting search change
/// (ranking, tie-breaking, RNG consumption):
///
/// ```text
/// cargo test --test tune_log_v1 -- --ignored regenerate_v1_fixtures
/// ```
#[test]
#[ignore = "fixture generator — run manually after trajectory-affecting search changes"]
fn regenerate_v1_fixtures() {
    use atim_autotune::json::{encode_f64, Json, JsonCodec};
    use atim_autotune::TuningRecord;

    let def = fixture_def();
    let options = fixture_options();
    let hw = UpmemConfig::default();
    let mut session = TuningSession::new(&def, &hw, &options).unwrap();
    let mut measure = |t: &Trace| fixture_latency(&def, t);
    let prefix = session.run(&mut measure, &Budget::trials(16), &mut NullObserver);
    assert_eq!(prefix.measured, 16, "the prefix fixture holds 16 trials");
    let full = session.run(&mut measure, &Budget::unlimited(), &mut NullObserver);
    assert_eq!(full.measured, 32, "the full fixture holds 32 trials");

    let v1_record = |r: &TuningRecord| -> Json {
        let cfg = ScheduleConfig::from_trace(&r.trace).expect("UPMEM sketch record");
        Json::Obj(vec![
            ("trial".into(), Json::Int(r.trial as i64)),
            ("config".into(), cfg.to_json()),
            ("latency_s".into(), encode_f64(r.latency_s)),
            ("best_so_far_s".into(), encode_f64(r.best_so_far_s)),
        ])
    };
    let v1_document = |result: &atim_autotune::TuningResult| -> String {
        let (best_trace, best_lat) = result.best.as_ref().expect("search finds a best");
        let best_cfg = ScheduleConfig::from_trace(best_trace).expect("UPMEM sketch best");
        Json::Obj(vec![
            ("version".into(), Json::Int(1)),
            ("workload".into(), Json::Str(def.name.clone())),
            ("seed".into(), Json::Str(options.seed.to_string())),
            (
                "result".into(),
                Json::Obj(vec![
                    (
                        "best".into(),
                        Json::Obj(vec![
                            ("config".into(), best_cfg.to_json()),
                            ("latency_s".into(), encode_f64(*best_lat)),
                        ]),
                    ),
                    (
                        "history".into(),
                        Json::Arr(result.history.iter().map(v1_record).collect()),
                    ),
                    ("measured".into(), Json::Int(result.measured as i64)),
                    ("failed".into(), Json::Int(result.failed as i64)),
                    ("rejected".into(), Json::Int(result.rejected as i64)),
                ]),
            ),
        ])
        .to_string()
    };

    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(
        format!("{dir}/tune_log_v1.json"),
        v1_document(&prefix) + "\n",
    )
    .unwrap();
    std::fs::write(
        format!("{dir}/tune_log_v1_full.json"),
        v1_document(&full) + "\n",
    )
    .unwrap();

    // The streaming fixture: header + one line per prefix record, no
    // summary (the crash signature).
    let header = Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        ("workload".into(), Json::Str(def.name.clone())),
        ("seed".into(), Json::Str(options.seed.to_string())),
        ("format".into(), Json::Str("trial-stream".into())),
    ]);
    let mut stream = header.to_string();
    stream.push('\n');
    for record in &prefix.history {
        stream.push_str(&v1_record(record).to_string());
        stream.push('\n');
    }
    std::fs::write(format!("{dir}/tune_log_v1_stream.jsonl"), stream).unwrap();
}

#[test]
fn v1_fixture_reencodes_as_v2_and_round_trips() {
    let v1 = TuneLog::from_json_str(&fixture("tune_log_v1.json")).unwrap();
    let reencoded = TuneLog::new(&v1.workload, v1.seed, v1.to_result());
    let text = reencoded.to_json_string();
    assert!(
        text.contains("\"version\":2") && text.contains("\"decisions\""),
        "re-encoding writes the v2 trace layout"
    );
    let back = TuneLog::from_json_str(&text).unwrap();
    assert_eq!(back.version, 2);
    assert_eq!(back.result.history, v1.result.history);
    assert_eq!(back.result.best, v1.result.best);
}
