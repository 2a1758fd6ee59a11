//! Pins the rule engine against an independent implementation:
//!
//! 1. **Schedule equivalence** — for every workload kind, the traces the
//!    `UpmemSketchGenerator` elaborates through the `upmem` rule set
//!    instantiate the *same schedules* (same lowered programs, structurally
//!    identical) as `ScheduleConfig::instantiate` — the sketch written out
//!    by hand against `Schedule`, sharing no code with the rule engine.
//!    (Until the `upmem` space became a rule set this compared two copies
//!    of the same hand-written text; `upmem_sketch_golden.rs` keeps the
//!    deleted copy's output as a fixture.)
//! 2. **Tuned-result equivalence** — for a fixed seed, the trace-based
//!    `TuningSession` drives the *identical search trajectory* (same
//!    candidates in the same order, same latencies, same best, same
//!    failure/rejection counters) as a faithful reimplementation of the
//!    pre-trace tuning loop over `ScheduleConfig`s, verified through
//!    `instantiate`.

use atim_autotune::cost_model::{featurize_config, CostModel, NUM_FEATURES};
use atim_autotune::session::{Budget, NullObserver, TuningSession};
use atim_autotune::verifier::verify_lowered;
use atim_autotune::{
    ScheduleConfig, SpaceGenerator, Trace, TuningOptions, UpmemSketchGenerator, VerifyError,
};
use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Renders a value's `Debug` output with process-global identifiers
/// (`Var { id }`, `BufferId(n)`) rewritten to first-occurrence ordinals, so
/// two structurally identical programs built at different times compare
/// equal.
fn normalized_debug(value: &impl std::fmt::Debug) -> String {
    // `loop_id` values are schedule-local (not process-global) and already
    // comparable; mask the field so the `id: ` scan below skips it.
    let text = format!("{value:?}").replace("loop_id: ", "loopid· ");
    let mut out = String::with_capacity(text.len());
    let mut var_ids: Vec<String> = Vec::new();
    let mut buf_ids: Vec<String> = Vec::new();
    let mut rest = text.as_str();
    while let Some(pos) = rest.find("id: ").map(|p| (p, "id: ")).or(None) {
        let (at, tag) = pos;
        // Only rewrite numeric ids directly after the tag.
        out.push_str(&rest[..at + tag.len()]);
        rest = &rest[at + tag.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() {
            continue;
        }
        rest = &rest[digits.len()..];
        let ord = match var_ids.iter().position(|d| *d == digits) {
            Some(i) => i,
            None => {
                var_ids.push(digits);
                var_ids.len() - 1
            }
        };
        out.push_str(&format!("#{ord}"));
    }
    out.push_str(rest);
    // Second pass: BufferId(n).
    let text = out;
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find("BufferId(") {
        out.push_str(&rest[..at + "BufferId(".len()]);
        rest = &rest[at + "BufferId(".len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        rest = &rest[digits.len()..];
        let ord = match buf_ids.iter().position(|d| *d == digits) {
            Some(i) => i,
            None => {
                buf_ids.push(digits);
                buf_ids.len() - 1
            }
        };
        out.push_str(&format!("#{ord}"));
    }
    out.push_str(rest);
    out
}

/// The knob vector the default generator samples: the pre-trace tuner's
/// `sample_knobs` draw (same RNG consumption), read back out of its trace.
fn sample_config(
    rng: &mut StdRng,
    def: &ComputeDef,
    hw: &UpmemConfig,
    with_rfactor: bool,
) -> ScheduleConfig {
    let trace = UpmemSketchGenerator.sample(rng, def, hw, with_rfactor);
    ScheduleConfig::from_trace(&trace).expect("upmem trace carries knobs")
}

/// One knob of `base` re-drawn by the default generator (`mutate_knobs`).
fn mutate_config(
    rng: &mut StdRng,
    def: &ComputeDef,
    hw: &UpmemConfig,
    base: &ScheduleConfig,
) -> ScheduleConfig {
    let trace = UpmemSketchGenerator.mutate(rng, def, hw, &base.to_trace(def));
    ScheduleConfig::from_trace(&trace).expect("upmem trace carries knobs")
}

fn paper_workloads() -> Vec<ComputeDef> {
    vec![
        ComputeDef::va("va", 1 << 16),
        ComputeDef::red("red", 1 << 14),
        ComputeDef::mtv("mtv", 512, 768),
        ComputeDef::mmtv("mmtv", 8, 64, 128),
        ComputeDef::ttv("ttv", 6, 96, 64),
        ComputeDef::geva("geva", 10_000, 1.5, -0.5),
        ComputeDef::gemv("gemv", 384, 640, 2.0),
        ComputeDef::bgemm("bgemm", 4, 16, 16, 32),
        ComputeDef::attn("attn", 8, 32, 64),
        ComputeDef::qgemv("qgemv", 128, 160),
        // Deliberately awkward, misaligned shapes.
        ComputeDef::mtv("mtv_odd", 33, 47),
        ComputeDef::gemv("gemv_odd", 97, 103, 0.5),
        ComputeDef::bgemm("bgemm_odd", 3, 10, 7, 20),
        ComputeDef::attn("attn_odd", 5, 12, 24),
    ]
}

/// Every sampled knob vector, applied through the rule-built trace, must
/// produce the identical lowered program as the hand-written `instantiate`
/// — and un-instantiable vectors must fail on both paths.
#[test]
fn traces_instantiate_the_same_schedules_as_schedule_config() {
    let hw = UpmemConfig::default();
    let mut rng = StdRng::seed_from_u64(0xE9);
    for def in paper_workloads() {
        let mut compared = 0;
        for trial in 0..24 {
            let cfg = sample_config(&mut rng, &def, &hw, trial % 2 == 0);
            let reference = cfg.instantiate(&def);
            let trace = cfg.to_trace(&def);
            let via_trace = trace.apply(&def);
            match (reference, via_trace) {
                (Ok(want), Ok(got)) => {
                    // The schedule and its lowering are structurally
                    // identical (Debug covers loops, bindings, caching
                    // directives, grid, kernels, transfer programs) up to
                    // process-global Var/Buffer identifiers.
                    assert_eq!(
                        normalized_debug(&want),
                        normalized_debug(&got),
                        "{}: schedules diverge for {cfg:?}",
                        def.name
                    );
                    let want_low = want.lower();
                    let got_low = got.lower();
                    match (want_low, got_low) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(
                                normalized_debug(&a),
                                normalized_debug(&b),
                                "{}: lowered programs diverge for {cfg:?}",
                                def.name
                            );
                        }
                        (a, b) => assert_eq!(
                            a.is_err(),
                            b.is_err(),
                            "{}: lowering outcome diverges for {cfg:?}",
                            def.name
                        ),
                    }
                    compared += 1;
                }
                (want, got) => {
                    assert_eq!(
                        want.is_err(),
                        got.is_err(),
                        "{}: instantiation outcome diverges for {cfg:?}",
                        def.name
                    );
                }
            }
            // The decisions-only twin re-materializes to the same identity.
            assert_eq!(cfg.to_decision_trace(), trace);
            assert_eq!(ScheduleConfig::from_trace(&trace), Some(cfg));
        }
        assert!(compared >= 8, "{}: too few comparable samples", def.name);
    }
}

/// The pre-trace verifier semantics, inlined: raw-knob pre-checks, then
/// `instantiate` + `lower` + the structural checks.
fn old_verify(cfg: &ScheduleConfig, def: &ComputeDef, hw: &UpmemConfig) -> Result<(), VerifyError> {
    if cfg.tasklets > hw.max_tasklets as i64 {
        return Err(VerifyError::TooManyTasklets {
            requested: cfg.tasklets,
            limit: hw.max_tasklets as i64,
        });
    }
    if cfg.num_dpus() > hw.total_dpus() as i64 {
        return Err(VerifyError::TooManyDpus {
            requested: cfg.num_dpus(),
            available: hw.total_dpus() as i64,
        });
    }
    let sch = cfg
        .instantiate(def)
        .map_err(|e| VerifyError::Invalid(e.to_string()))?;
    let lowered = sch
        .lower()
        .map_err(|e| VerifyError::Invalid(e.to_string()))?;
    verify_lowered(&lowered, hw)
}

struct OldEntry {
    config: ScheduleConfig,
    latency_s: f64,
}

/// A faithful reimplementation of the pre-trace tuning loop (the Fig. 6
/// driver exactly as it shipped before this migration): knob-vector
/// sampling/mutation, config-keyed dedup and database, knob-vector
/// features, old verifier order.
struct OldTuner {
    entries: Vec<OldEntry>,
    measured_set: HashSet<ScheduleConfig>,
}

impl OldTuner {
    fn top_k(&self, k: usize, balanced: bool) -> Vec<&OldEntry> {
        if !balanced {
            return self.entries.iter().take(k).collect();
        }
        let half = k.div_ceil(2);
        let with: Vec<&OldEntry> = self
            .entries
            .iter()
            .filter(|e| e.config.uses_rfactor())
            .take(half)
            .collect();
        let without: Vec<&OldEntry> = self
            .entries
            .iter()
            .filter(|e| !e.config.uses_rfactor())
            .take(half)
            .collect();
        let mut out = Vec::with_capacity(k);
        out.extend(with);
        out.extend(without);
        if out.len() < k {
            for e in &self.entries {
                if out.len() >= k {
                    break;
                }
                if !out.iter().any(|x| std::ptr::eq(*x, e)) {
                    out.push(e);
                }
            }
        }
        out.truncate(k);
        out
    }

    fn insert(&mut self, config: ScheduleConfig, latency_s: f64) {
        self.measured_set.insert(config.clone());
        let at = self.entries.partition_point(|e| e.latency_s <= latency_s);
        self.entries.insert(at, OldEntry { config, latency_s });
    }
}

struct OldResult {
    history: Vec<(ScheduleConfig, f64, f64)>,
    best: Option<(ScheduleConfig, f64)>,
    measured: usize,
    failed: usize,
    rejected: usize,
}

fn old_tune(
    def: &ComputeDef,
    hw: &UpmemConfig,
    options: &TuningOptions,
    measure: &mut dyn FnMut(&ScheduleConfig) -> Option<f64>,
) -> OldResult {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut db = OldTuner {
        entries: Vec::new(),
        measured_set: HashSet::new(),
    };
    let mut model = CostModel::new();
    let mut samples: Vec<([f64; NUM_FEATURES], f64)> = Vec::new();
    let mut history = Vec::new();
    let (mut measured, mut failed, mut rejected) = (0usize, 0usize, 0usize);
    let max_rounds = options.trials * 8 / options.measure_per_round + 8;
    let mut round = 0usize;
    while measured < options.trials && round < max_rounds {
        round += 1;
        let progress = measured as f64 / options.trials as f64;
        let epsilon = options.strategy.epsilon_at(progress);
        let balanced = options.strategy.balanced_at(progress);

        let mut candidates: Vec<ScheduleConfig> = Vec::with_capacity(options.population);
        {
            let parents = db.top_k(16, balanced);
            for i in 0..options.population {
                let with_rfactor = def.has_reduce() && i % 2 == 0;
                let explore = parents.is_empty() || rng.gen_bool(epsilon);
                let cand = if explore {
                    sample_config(&mut rng, def, hw, with_rfactor)
                } else {
                    let parent = parents[rng.gen_range(0..parents.len())];
                    mutate_config(&mut rng, def, hw, &parent.config)
                };
                candidates.push(cand);
            }
        }

        let mut verified: Vec<ScheduleConfig> = Vec::new();
        let mut seen: HashSet<ScheduleConfig> = HashSet::with_capacity(candidates.len());
        for cand in candidates {
            if db.measured_set.contains(&cand) || !seen.insert(cand.clone()) {
                continue;
            }
            match old_verify(&cand, def, hw) {
                Ok(()) => verified.push(cand),
                Err(_) => rejected += 1,
            }
        }
        if verified.is_empty() {
            continue;
        }

        // Equal scores break on trace identity, mirroring the session's
        // deterministic ranking tie-break.
        let mut ranked: Vec<(f64, String, ScheduleConfig)> = verified
            .into_iter()
            .map(|c| {
                let score = model.predict(&featurize_config(&c, def, hw));
                let key = c.to_decision_trace().to_string();
                (score, key, c)
            })
            .collect();
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        let budget = options.measure_per_round.min(options.trials - measured);
        for (_, _, cand) in ranked.into_iter().take(budget) {
            match measure(&cand) {
                Some(latency) => {
                    samples.push((featurize_config(&cand, def, hw), latency));
                    db.insert(cand.clone(), latency);
                    let best = db.entries.first().map(|e| e.latency_s).unwrap_or(latency);
                    history.push((cand, latency, best));
                    measured += 1;
                }
                None => failed += 1,
            }
        }
        model.train(&samples);
    }
    OldResult {
        best: db.entries.first().map(|e| (e.config.clone(), e.latency_s)),
        history,
        measured,
        failed,
        rejected,
    }
}

fn analytic(def: &ComputeDef) -> impl Fn(&ScheduleConfig) -> Option<f64> {
    let work = def.total_flops() as f64;
    move |cfg: &ScheduleConfig| {
        if cfg.tasklets > 24 {
            return None;
        }
        let dpus = cfg.num_dpus() as f64;
        let tasklets = cfg.tasklets.min(11) as f64;
        let cache = if cfg.use_cache {
            1.0 + (64.0 - cfg.cache_elems as f64).abs() / 256.0
        } else {
            12.0
        };
        let bonus = if cfg.uses_rfactor() { 0.8 } else { 1.0 };
        Some((work / (dpus * tasklets) * cache * bonus + dpus * 0.002) * 1e-6)
    }
}

/// Fixed seed ⇒ the trace-based session reproduces the pre-trace tuner's
/// trajectory bit-for-bit: candidates, order, latencies, best, counters.
#[test]
fn fixed_seed_tuning_matches_the_pre_trace_tuner() {
    let hw = UpmemConfig::default();
    for (def, trials) in [
        (ComputeDef::mtv("mtv", 2048, 2048), 48),
        (ComputeDef::gemv("gemv", 1024, 768, 1.0), 32),
        (ComputeDef::va("va", 1 << 18), 24),
    ] {
        let options = TuningOptions {
            trials,
            population: 32,
            measure_per_round: 8,
            ..TuningOptions::default()
        };

        let f = analytic(&def);
        let mut old_measure = |cfg: &ScheduleConfig| f(cfg);
        let old = old_tune(&def, &hw, &options, &mut old_measure);

        let mut session = TuningSession::new(&def, &hw, &options).unwrap();
        let mut new_measure = |t: &Trace| -> Option<f64> {
            let cfg = ScheduleConfig::from_trace(t).expect("upmem trace carries knobs");
            f(&cfg)
        };
        let new = session.run(&mut new_measure, &Budget::unlimited(), &mut NullObserver);

        assert_eq!(new.measured, old.measured, "{}: measured", def.name);
        assert_eq!(new.failed, old.failed, "{}: failed", def.name);
        assert_eq!(new.rejected, old.rejected, "{}: rejected", def.name);
        assert_eq!(new.history.len(), old.history.len(), "{}", def.name);
        for (i, (rec, (old_cfg, old_lat, old_best))) in
            new.history.iter().zip(&old.history).enumerate()
        {
            assert_eq!(
                ScheduleConfig::from_trace(&rec.trace).as_ref(),
                Some(old_cfg),
                "{}: trial {i} proposes a different candidate",
                def.name
            );
            assert_eq!(
                rec.latency_s.to_bits(),
                old_lat.to_bits(),
                "{}: trial {i} latency",
                def.name
            );
            assert_eq!(
                rec.best_so_far_s.to_bits(),
                old_best.to_bits(),
                "{}: trial {i} best-so-far",
                def.name
            );
        }
        let (new_best, new_lat) = new.best.expect("search succeeds");
        let (old_best, old_lat) = old.best.expect("search succeeds");
        assert_eq!(ScheduleConfig::from_trace(&new_best), Some(old_best));
        assert_eq!(new_lat.to_bits(), old_lat.to_bits());
    }
}

/// A reduction axis of extent 1 cannot be distributed: the rule engine and
/// the reference both degrade to "no rfactor" (both hand-written copies used
/// to `clamp(2, 1)` and abort the tuner), and a whole quick search over such
/// a workload runs to completion.
#[test]
fn reduce_axis_of_extent_one_degrades_to_no_rfactor() {
    let hw = UpmemConfig::default();
    for def in [ComputeDef::mtv("m", 8, 1), ComputeDef::red("r", 1)] {
        let mut rng = StdRng::seed_from_u64(0x0E);
        for trial in 0..16 {
            let sampled = UpmemSketchGenerator.sample(&mut rng, &def, &hw, true);
            let trace = if trial % 2 == 0 {
                sampled
            } else {
                UpmemSketchGenerator.mutate(&mut rng, &def, &hw, &sampled)
            };
            let cfg = ScheduleConfig::from_trace(&trace).expect("upmem trace carries knobs");
            let got = trace.apply(&def).expect("rule-built trace applies");
            assert!(!got.has_rfactor(), "{}: {cfg:?}", def.name);
            let want = cfg.instantiate(&def).expect("reference instantiates");
            assert_eq!(
                normalized_debug(&want),
                normalized_debug(&got),
                "{}: schedules diverge for {cfg:?}",
                def.name
            );
        }

        let mut session = TuningSession::new(&def, &hw, &TuningOptions::quick()).unwrap();
        let f = analytic(&def);
        let mut measure = |t: &Trace| -> Option<f64> {
            f(&ScheduleConfig::from_trace(t).expect("upmem trace carries knobs"))
        };
        let result = session.run(&mut measure, &Budget::unlimited(), &mut NullObserver);
        assert!(result.best.is_some(), "{}: search found nothing", def.name);
    }
}
