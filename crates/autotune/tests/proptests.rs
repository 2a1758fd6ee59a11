//! Property tests of the tuning-log persistence layer: JSON encode→decode
//! must be the identity for every `ScheduleConfig`, `Trace`, `TuningRecord`,
//! `TuningResult` and `TuneLog` the tuner can produce — and of the one
//! memo/dedup measurement wrapper (`MemoMeasurer`).

use std::collections::{HashMap, HashSet};

use atim_autotune::json::{Json, JsonCodec};
use atim_autotune::log::TuneLog;
use atim_autotune::{
    CacheEntry, CacheKey, CancelToken, Cancellation, Decision, MeasureOutcome, Measurer,
    MemoMeasurer, ScheduleCache, ScheduleConfig, Trace, TuningRecord, TuningResult,
};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

/// Builds an arbitrary-but-plausible `ScheduleConfig` from raw case inputs.
fn config_from(
    dpu_seed: u64,
    axes: usize,
    reduce_pow: u32,
    tasklets: i64,
    cache_pow: u32,
    flags: u8,
    host_pow: u32,
) -> ScheduleConfig {
    let spatial_dpus: Vec<i64> = (0..axes)
        .map(|j| 1i64 << ((dpu_seed >> (4 * j)) % 12))
        .collect();
    ScheduleConfig {
        spatial_dpus,
        reduce_dpus: 1i64 << reduce_pow,
        tasklets,
        cache_elems: 1i64 << cache_pow,
        use_cache: flags & 1 != 0,
        unroll: flags & 2 != 0,
        host_threads: 1usize << host_pow,
        parallel_transfer: flags & 4 != 0,
    }
}

/// A finite, positive latency derived from arbitrary bits: the exact kind of
/// awkward doubles (subnormal-adjacent, many significant digits) the
/// shortest-round-trip encoding must preserve bit-for-bit.
fn latency_from(bits: u64) -> f64 {
    let mantissa = (bits % 900_719_925_474_099) as f64 + 1.0;
    let exponent = ((bits >> 50) % 24) as i32 - 12;
    mantissa * 10f64.powi(exponent) * 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schedule_config_json_round_trip_is_identity(
        dpu_seed in 0u64..u64::MAX,
        axes in 1usize..4,
        reduce_pow in 0u32..7,
        tasklets in 1i64..25,
        cache_pow in 1u32..9,
        flags in 0u8..8,
        host_pow in 0u32..6,
    ) {
        let cfg = config_from(dpu_seed, axes, reduce_pow, tasklets, cache_pow, flags, host_pow);
        let text = cfg.to_json().to_string();
        let back = ScheduleConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(cfg, back);
    }

    #[test]
    fn tuning_record_json_round_trip_is_identity(
        dpu_seed in 0u64..u64::MAX,
        trial in 0usize..1_000_000,
        latency_bits in 0u64..u64::MAX,
        best_bits in 0u64..u64::MAX,
    ) {
        let record = TuningRecord {
            trial,
            trace: config_from(dpu_seed, 2, 3, 16, 6, 5, 3).to_decision_trace(),
            latency_s: latency_from(latency_bits),
            best_so_far_s: latency_from(best_bits),
        };
        let text = record.to_json().to_string();
        let back = TuningRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(record.trial, back.trial);
        prop_assert_eq!(&record.trace, &back.trace);
        prop_assert_eq!(record.latency_s.to_bits(), back.latency_s.to_bits());
        prop_assert_eq!(record.best_so_far_s.to_bits(), back.best_so_far_s.to_bits());
    }

    #[test]
    fn trace_json_round_trip_is_identity(
        sketch_seed in 0u64..4,
        sites in 1usize..12,
        value_seed in 0u64..u64::MAX,
    ) {
        // Random traces over random decision sites — not just the UPMEM
        // sketch's — must survive the codec with identity (Eq and Hash)
        // intact.
        let sketch = ["upmem", "custom", "sketch-α", "with \"quotes\""][sketch_seed as usize];
        let decisions: Vec<(String, Decision)> = (0..sites)
            .map(|i| {
                let bits = value_seed.rotate_left(7 * i as u32);
                let site = format!("site_{i}.{}", bits % 10);
                let decision = if bits % 3 == 0 {
                    Decision::Bool(bits % 2 == 0)
                } else {
                    Decision::Int((bits % 100_000) as i64 - 50_000)
                };
                (site, decision)
            })
            .collect();
        let trace = Trace::from_decisions(sketch, decisions);
        let text = trace.to_json().to_string();
        let back = Trace::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.sketch(), trace.sketch());
        let pairs: Vec<(String, Decision)> =
            trace.decisions().map(|(s, d)| (s.to_string(), d)).collect();
        let back_pairs: Vec<(String, Decision)> =
            back.decisions().map(|(s, d)| (s.to_string(), d)).collect();
        prop_assert_eq!(pairs, back_pairs);
    }

    #[test]
    fn materialized_upmem_traces_round_trip_to_their_decision_twin(
        dpu_seed in 0u64..u64::MAX,
        axes in 1usize..3,
        reduce_pow in 0u32..7,
        tasklets in 1i64..25,
        cache_pow in 1u32..9,
        flags in 0u8..8,
    ) {
        use atim_tir::compute::ComputeDef;
        let cfg = config_from(dpu_seed, axes, reduce_pow, tasklets, cache_pow, flags, 2);
        let def = if axes == 1 {
            ComputeDef::va("va", 4096)
        } else {
            ComputeDef::mtv("mtv", 512, 256)
        };
        let full = cfg.to_trace(&def);
        let back = Trace::from_json(&Json::parse(&full.to_json().to_string()).unwrap()).unwrap();
        // The codec persists decisions only, and identity is decisions-only,
        // so the decoded twin is equal and recovers the exact knob vector.
        prop_assert_eq!(&back, &full);
        prop_assert_eq!(ScheduleConfig::from_trace(&back), Some(cfg));
    }

    #[test]
    fn tune_log_json_round_trip_is_identity(
        dpu_seed in 0u64..u64::MAX,
        records in 0usize..8,
        latency_bits in 0u64..u64::MAX,
        failed in 0usize..100,
        rejected in 0usize..100,
        seed in 0u64..u64::MAX,
        has_best in 0u8..2,
    ) {
        let history: Vec<TuningRecord> = (0..records)
            .map(|i| {
                let latency = latency_from(latency_bits.wrapping_add(i as u64 * 0x9E37_79B9));
                TuningRecord {
                    trial: i,
                    trace: config_from(dpu_seed.wrapping_add(i as u64), 1 + i % 3, 2, 8, 5, i as u8 % 8, 2)
                        .to_decision_trace(),
                    latency_s: latency,
                    best_so_far_s: latency,
                }
            })
            .collect();
        let best = if has_best == 1 && !history.is_empty() {
            Some((history[0].trace.clone(), history[0].latency_s))
        } else {
            None
        };
        let result = TuningResult {
            best,
            history,
            measured: records,
            failed,
            rejected,
        };
        let log = TuneLog::new("proptest-workload \"escaped\"", seed, result);
        let back = TuneLog::from_json_str(&log.to_json_string()).unwrap();
        prop_assert_eq!(&back.workload, &log.workload);
        prop_assert_eq!(back.seed, log.seed);
        prop_assert_eq!(&back.result.best, &log.result.best);
        prop_assert_eq!(&back.result.history, &log.result.history);
        prop_assert_eq!(back.result.measured, log.result.measured);
        prop_assert_eq!(back.result.failed, log.result.failed);
        prop_assert_eq!(back.result.rejected, log.result.rejected);
    }
}

/// Builds an arbitrary cache entry; `key_bits` selects the coordinates,
/// `entry_bits` the payload, so callers control key collisions precisely.
fn cache_entry_from(key_bits: u64, entry_bits: u64) -> CacheEntry {
    CacheEntry {
        key: CacheKey {
            workload: format!("wl{}", key_bits % 5),
            shape: (0..1 + key_bits % 3)
                .map(|i| 1 + ((key_bits >> (8 * i)) % 4096) as i64)
                .collect(),
            machine: format!("sim/{:016x}", key_bits.rotate_left(17)),
            generator: if key_bits & 64 != 0 {
                "upmem-sketch"
            } else {
                "custom"
            }
            .into(),
        },
        trace: config_from(
            entry_bits,
            2,
            3,
            1 + (entry_bits % 24) as i64,
            6,
            entry_bits as u8 % 8,
            2,
        )
        .to_decision_trace(),
        latency_s: latency_from(entry_bits),
        seed: entry_bits.rotate_right(9),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_entry_json_round_trip_is_identity(
        key_bits in 0u64..u64::MAX,
        entry_bits in 0u64..u64::MAX,
    ) {
        let entry = cache_entry_from(key_bits, entry_bits);
        let text = entry.to_json().to_string();
        let back = CacheEntry::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, entry);
    }

    /// Serialize → parse is lossless for whole files, for any mix of
    /// distinct and colliding keys.
    #[test]
    fn cache_file_round_trip_preserves_every_winner(
        seed_bits in 0u64..u64::MAX,
        entries in 1usize..12,
    ) {
        let mut cache = ScheduleCache::new();
        for i in 0..entries {
            let bits = seed_bits.wrapping_add(i as u64 * 0x9E37_79B9);
            cache.insert(cache_entry_from(bits % 97, bits));
        }
        let back = ScheduleCache::from_json_lines(&cache.to_json_lines()).unwrap();
        prop_assert_eq!(back.len(), cache.len());
        for entry in cache.entries() {
            prop_assert_eq!(back.lookup(&entry.key), Some(entry));
        }
    }

    /// A cache file truncated mid-append — any byte boundary inside its
    /// final line — still loads, recovering every completed line, exactly
    /// like the streaming `TuneLog` tolerance.
    #[test]
    fn truncated_cache_files_recover_all_complete_lines(
        seed_bits in 0u64..u64::MAX,
        entries in 1usize..8,
        cut_bits in 0u64..u64::MAX,
    ) {
        // Distinct keys so the recovered count is exactly the line count.
        let all: Vec<CacheEntry> = (0..entries)
            .map(|i| cache_entry_from(i as u64, seed_bits.wrapping_add(i as u64 * 0x9E37_79B9)))
            .collect();
        let mut text = String::new();
        for entry in &all {
            text.push_str(&entry.to_json().to_string());
            text.push('\n');
        }
        let last_line_start = text[..text.len() - 1].rfind('\n').map_or(0, |p| p + 1);
        // Cut anywhere strictly inside the last line (a torn final append).
        let span = text.len() - last_line_start - 1;
        let cut = last_line_start + 1 + (cut_bits % span.max(1) as u64) as usize;
        let torn = &text[..cut.min(text.len() - 1)];

        let recovered = ScheduleCache::from_json_lines(torn).unwrap();
        prop_assert_eq!(recovered.len(), entries - 1);
        for entry in &all[..entries - 1] {
            prop_assert_eq!(recovered.lookup(&entry.key), Some(entry));
        }
    }

    /// The merged view of a cache is a pure function of its entry *set*:
    /// replaying the same entries in opposite orders elects the same
    /// winner (the strictly-better-latency, deterministically tie-broken
    /// one) for every key.
    #[test]
    fn winner_selection_is_append_order_independent(
        seed_bits in 0u64..u64::MAX,
        entries in 1usize..10,
        keys in 1u64..4,
    ) {
        let all: Vec<CacheEntry> = (0..entries)
            .map(|i| {
                let bits = seed_bits.wrapping_add(i as u64 * 0xC2B2_AE35);
                cache_entry_from(bits % keys, bits)
            })
            .collect();
        let mut forward = ScheduleCache::new();
        let mut backward = ScheduleCache::new();
        for entry in &all {
            forward.insert(entry.clone());
        }
        for entry in all.iter().rev() {
            backward.insert(entry.clone());
        }
        prop_assert_eq!(forward.len(), backward.len());
        for entry in forward.entries() {
            prop_assert_eq!(backward.lookup(&entry.key), Some(entry));
        }
    }
}

/// Size of the trace pool the memo properties draw batches from.
const POOL: usize = 8;

/// The `id`-th trace of the pool.
fn pool_trace(id: usize) -> Trace {
    Trace::from_decisions("pool", vec![("id".to_string(), Decision::Int(id as i64))])
}

/// What the deterministic inner measurer answers for pool trace `id`: every
/// third trace fails, the rest measure a latency unique to the trace.
fn inner_answer(id: usize) -> MeasureOutcome {
    if id % 3 == 0 {
        MeasureOutcome::Failed
    } else {
        MeasureOutcome::Measured(1e-3 * (1 + id) as f64)
    }
}

/// The latency a log seeded for pool trace `id` — distinguishable from
/// anything the inner measurer answers.
fn seeded_latency(id: usize) -> f64 {
    100.0 + id as f64
}

/// A batch of `len` pool ids (duplicates included) unpacked from `bits`.
fn batch_ids(bits: u64, len: usize) -> Vec<usize> {
    (0..len)
        .map(|i| (bits >> (3 * i)) as usize % POOL)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The single memo/dedup layer: random batches with duplicates, an
    /// inner measurer that fails on some traces and counts its calls, a
    /// random subset pre-seeded as a log memo, and a cancellation firing
    /// after `fire_after` inner calls (0 = before the first).
    #[test]
    fn memo_measurer_dedups_memoizes_and_never_caches_skips(
        seed_mask in 0u64..(1 << POOL),
        fire_after in 0usize..12,
        batch_bits in 0u64..u64::MAX,
        len_bits in 0u64..u64::MAX,
    ) {
        let seeded: HashSet<usize> = (0..POOL).filter(|id| seed_mask >> id & 1 == 1).collect();
        let log_memo: HashMap<Trace, f64> = seeded
            .iter()
            .map(|&id| (pool_trace(id), seeded_latency(id)))
            .collect();

        let token = CancelToken::new();
        if fire_after == 0 {
            token.cancel();
        }
        let fire = token.clone();
        let mut calls = [0usize; POOL];
        let mut total = 0usize;
        // A closure measurer: the blanket impl checks the cancellation
        // between candidates.
        let mut inner = |trace: &Trace| -> Option<f64> {
            let id = trace.int_decision("id").unwrap() as usize;
            calls[id] += 1;
            total += 1;
            if total == fire_after {
                fire.cancel();
            }
            match inner_answer(id) {
                MeasureOutcome::Measured(latency) => Some(latency),
                _ => None,
            }
        };
        let mut memo = MemoMeasurer::seeded(&mut inner, log_memo);
        prop_assert_eq!(memo.cache_len(), seeded.len());

        // The traces with a memoized answer, tracked independently.
        let mut known: HashSet<usize> = seeded.clone();
        let cancel = Cancellation::new(Some(token), None);
        // Three rounds under the (eventually fired) token, then the whole
        // pool under a condition that never triggers.
        let mut rounds: Vec<(Vec<usize>, Cancellation)> = (0..3)
            .map(|round| {
                let len = 1 + (len_bits >> (4 * round)) as usize % 10;
                (batch_ids(batch_bits.rotate_left(21 * round), len), cancel.clone())
            })
            .collect();
        rounds.push(((0..POOL).chain(0..POOL).collect(), Cancellation::none()));

        for (ids, cancel) in rounds {
            let batch: Vec<Trace> = ids.iter().map(|&id| pool_trace(id)).collect();
            let hits_before = memo.cache_hits();
            let replayed_before = memo.replayed();
            let outcomes = memo.measure(&batch, &cancel);
            // Slot-aligned: one outcome per candidate, each the answer of
            // *its* trace — from the log when seeded (even when cancelled
            // before the first call), from the inner measurer otherwise.
            prop_assert_eq!(outcomes.len(), batch.len());
            let mut by_trace: HashMap<usize, MeasureOutcome> = HashMap::new();
            for (&id, &outcome) in ids.iter().zip(&outcomes) {
                if seeded.contains(&id) {
                    prop_assert_eq!(outcome, MeasureOutcome::Measured(seeded_latency(id)));
                } else if outcome != MeasureOutcome::Skipped {
                    prop_assert_eq!(outcome, inner_answer(id));
                }
                // Duplicates follow their representative — skipped ones too.
                prop_assert_eq!(*by_trace.entry(id).or_insert(outcome), outcome);
            }
            // Exactly the slots whose trace was already memoized are memo
            // hits: nothing skipped earlier is answered from the memo.
            let expected_hits = ids.iter().filter(|id| known.contains(id)).count();
            prop_assert_eq!(memo.cache_hits() - hits_before, expected_hits);
            let expected_replays = ids.iter().filter(|id| seeded.contains(id)).count();
            prop_assert_eq!(memo.replayed() - replayed_before, expected_replays);
            known.extend(
                by_trace
                    .iter()
                    .filter(|(_, outcome)| **outcome != MeasureOutcome::Skipped)
                    .map(|(&id, _)| id),
            );
            prop_assert_eq!(memo.cache_len(), known.len());
        }

        // The uncancelled final round measured whatever was still unknown,
        // so the inner measurer saw every unseeded trace exactly once across
        // all rounds, and no seeded trace ever.
        prop_assert_eq!(memo.fresh(), POOL - seeded.len());
        drop(memo);
        for (id, &count) in calls.iter().enumerate() {
            prop_assert_eq!(count, usize::from(!seeded.contains(&id)), "trace {}", id);
        }
    }
}

/// Exhaustive-ish float round-trip over deterministically generated bit
/// patterns, independent of the proptest strategies above.
#[test]
fn f64_shortest_round_trip_holds_for_many_bit_patterns() {
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    for _ in 0..4096 {
        let bits = (0u64..u64::MAX).new_tree(&mut runner).unwrap().current();
        let v = f64::from_bits(bits);
        if !v.is_finite() {
            continue;
        }
        let text = Json::Float(v).to_string();
        let back = Json::parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(v.to_bits(), back.to_bits(), "{v:?} -> {text}");
    }
}
