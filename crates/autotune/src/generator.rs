//! Pluggable schedule-space generators: how sketch [`Trace`]s are emitted,
//! sampled, mutated and re-materialized.
//!
//! A [`SpaceGenerator`] owns one *sketch family*: given a workload and a
//! machine it emits traces whose `Sample*` instructions are the free
//! decision sites the evolutionary search explores.  The default
//! [`UpmemSketchGenerator`] is ATiM's joint host/kernel sketch (Fig. 6).
//! Its *structure* is the [`upmem_rules`] rule set, elaborated by the same
//! rule engine as the `tiled` and `hw-native` spaces; what this module adds
//! is the space's *policy* — the pre-trace tuner's knob samplers
//! ([`ScheduleConfig::default_for`], `sample_knobs`, `mutate_knobs`), whose
//! draws answer the rule set's sites through the `Decider` impl on
//! `&ScheduleConfig`.  `tests/upmem_sketch_golden.rs` pins the elaborated
//! traces against the hand-written sketch they replaced, and
//! `tests/trace_equivalence.rs` against the independent
//! `ScheduleConfig::instantiate` reference.  Custom workload families plug
//! in by implementing the trait and handing it to
//! [`crate::session::TuningSession::with_generator`] (or
//! `SessionBuilder::space_generator` in `atim-core`).
//!
//! Materialization is the one non-obvious move: the *structural* part of a
//! trace (splits, binds, caching) is a deterministic function of its
//! decisions, so mutating a decision drops the structure and re-derives it
//! via [`SpaceGenerator::materialize`].  This is also how decisions-only
//! traces decoded from tuning logs come back to life.

use std::collections::HashMap;

use atim_sim::UpmemConfig;
use atim_tir::compute::{AxisKind, ComputeDef};
use atim_tir::error::{Result, TirError};
use rand::rngs::StdRng;
use rand::Rng;

use crate::sketch::upmem_rules;
use crate::space::{mutate_knobs, sample_knobs, ScheduleConfig};
use crate::trace::{Decision, Trace, UPMEM_SKETCH};

/// Canonical decision-site names of the UPMEM sketch.
pub mod site {
    /// Prefix of the per-spatial-axis DPU-count sites (`spatial_dpus.0`,
    /// `spatial_dpus.1`, ...).
    pub const SPATIAL_DPUS_PREFIX: &str = "spatial_dpus.";
    /// DPUs assigned to the reduction axis (1 = no rfactor).
    pub const REDUCE_DPUS: &str = "reduce_dpus";
    /// Tasklets per DPU.
    pub const TASKLETS: &str = "tasklets";
    /// Elements per WRAM caching tile.
    pub const CACHE_ELEMS: &str = "cache_elems";
    /// Whether WRAM staging is generated at all.
    pub const USE_CACHE: &str = "use_cache";
    /// Whether the innermost loop is unrolled.
    pub const UNROLL: &str = "unroll";
    /// Host threads for post-processing.
    pub const HOST_THREADS: &str = "host_threads";
    /// Whether host transfers use the rank-parallel push path.
    pub const PARALLEL_TRANSFER: &str = "parallel_transfer";
}

/// Emits, samples and evolves sketch traces for one workload family.
///
/// Implementations must be `Send + Sync` so a session can be shared across
/// threads.  All methods are deterministic functions of their inputs (the
/// RNG included), which is what keeps tuning replayable and logs
/// warm-startable.
pub trait SpaceGenerator: Send + Sync {
    /// A short generator name (diagnostics; also a good sketch tag).
    fn name(&self) -> &str;

    /// The sketch traces of this family with default decisions — one per
    /// structurally distinct sketch (the UPMEM generator emits the
    /// non-`rfactor` and, when the workload reduces, the `rfactor` sketch).
    fn sketches(&self, def: &ComputeDef, hw: &UpmemConfig) -> Vec<Trace>;

    /// Samples a complete (materialized) trace, optionally forcing the
    /// `rfactor` design space.
    fn sample(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        with_rfactor: bool,
    ) -> Trace;

    /// Mutates one decision of a trace (the evolutionary search's mutation
    /// operator) and re-materializes it.
    fn mutate(&self, rng: &mut StdRng, def: &ComputeDef, hw: &UpmemConfig, base: &Trace) -> Trace;

    /// Re-derives the structural instructions of a decisions-only trace
    /// (e.g. one decoded from a [`crate::log::TuneLog`]).
    ///
    /// # Errors
    /// Fails when the decisions cannot instantiate a schedule for `def`.
    fn materialize(&self, trace: &Trace, def: &ComputeDef, hw: &UpmemConfig) -> Result<Trace>;

    /// Whether the workload has an `rfactor` design space at all.
    fn supports_rfactor(&self, def: &ComputeDef) -> bool {
        def.has_reduce()
    }

    /// Crosses over two parent traces: each decision site present in both
    /// parents is drawn from one of them uniformly, then the child is
    /// re-materialized.  Falls back to cloning `a` when the mix cannot
    /// materialize.
    fn crossover(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        a: &Trace,
        b: &Trace,
    ) -> Trace {
        let other: HashMap<String, Decision> =
            b.decisions().map(|(s, d)| (s.to_string(), d)).collect();
        let mixed: Vec<(String, Decision)> = a
            .decisions()
            .map(|(s, d)| {
                let pick = match other.get(s) {
                    Some(&bd) if rng.gen_bool(0.5) => bd,
                    _ => d,
                };
                (s.to_string(), pick)
            })
            .collect();
        let child = Trace::from_decisions(a.sketch().to_string(), mixed);
        self.materialize(&child, def, hw)
            .unwrap_or_else(|_| a.clone())
    }
}

/// The default generator: ATiM's UPMEM sketch (Fig. 6) as traces.
///
/// Sampling and mutation draw from the pre-trace tuner's knob
/// distributions bit-for-bit (same RNG consumption, same ranges), so a
/// fixed seed drives the identical search trajectory the pre-trace tuner
/// drove — pinned by `tests/trace_equivalence.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpmemSketchGenerator;

impl SpaceGenerator for UpmemSketchGenerator {
    fn name(&self) -> &str {
        UPMEM_SKETCH
    }

    fn sketches(&self, def: &ComputeDef, hw: &UpmemConfig) -> Vec<Trace> {
        let base = ScheduleConfig::default_for(def, hw);
        let mut out = vec![base.to_trace(def)];
        if self.supports_rfactor(def) {
            let rfactor = ScheduleConfig {
                reduce_dpus: 2,
                ..base
            };
            out.push(rfactor.to_trace(def));
        }
        out
    }

    fn sample(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        with_rfactor: bool,
    ) -> Trace {
        let cfg = sample_knobs(
            def,
            hw.total_dpus() as i64,
            hw.max_tasklets as i64,
            rng,
            with_rfactor,
        );
        cfg.to_trace(def)
    }

    fn mutate(&self, rng: &mut StdRng, def: &ComputeDef, hw: &UpmemConfig, base: &Trace) -> Trace {
        let parent = match ScheduleConfig::from_trace(base) {
            Some(cfg) => cfg,
            // A foreign trace cannot be mutated within this sketch family;
            // fall back to a fresh sample from the matching design space.
            None => return self.sample(rng, def, hw, base.uses_rfactor()),
        };
        let child = mutate_knobs(
            def,
            hw.total_dpus() as i64,
            hw.max_tasklets as i64,
            rng,
            &parent,
        );
        child.to_trace(def)
    }

    fn materialize(&self, trace: &Trace, def: &ComputeDef, _hw: &UpmemConfig) -> Result<Trace> {
        materialize_upmem(trace, def)
    }
}

/// Materializes a decisions-only UPMEM trace for a workload.
///
/// # Errors
/// Fails when the trace lacks the UPMEM decision sites or the sketch cannot
/// instantiate for `def`.
pub fn materialize_upmem(trace: &Trace, def: &ComputeDef) -> Result<Trace> {
    let knobs = ScheduleConfig::from_trace(trace).ok_or_else(|| {
        TirError::InvalidSchedule(
            "trace lacks the UPMEM sketch decision sites; it belongs to a custom generator".into(),
        )
    })?;
    record_sketch(&knobs, def)
}

/// Records ATiM's UPMEM sketch for one knob vector as a trace: elaborates
/// [`upmem_rules`] with the knobs as the decision source.  No machine is
/// involved — the structure is a function of `(config, def)` only, which is
/// what lets [`Trace::apply`] materialize decisions-only traces on the fly.
///
/// # Errors
/// Fails when a primitive application fails (degenerate compute
/// definitions); knob values themselves are clamped at their use sites.
pub fn record_sketch(config: &ScheduleConfig, def: &ComputeDef) -> Result<Trace> {
    let mut knobs = config;
    let trace = upmem_rules().elaborate(def, None, &mut knobs)?;
    let rank = def.axes.iter().filter(|a| a.kind == AxisKind::Spatial);
    if config.spatial_dpus.len() == rank.count() {
        return Ok(trace);
    }
    // A knob vector of another rank keeps its own decision list (trace
    // identity is the decisions); only the structure follows `def`.
    let mut insts = config.to_decision_trace().insts().to_vec();
    insts.extend(trace.insts().iter().filter(|i| !i.is_sample()).cloned());
    Ok(Trace::new(UPMEM_SKETCH, insts, trace.regs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hw() -> UpmemConfig {
        UpmemConfig::default()
    }

    fn paper_workloads() -> Vec<ComputeDef> {
        vec![
            ComputeDef::va("va", 100),
            ComputeDef::red("red", 90),
            ComputeDef::mtv("mtv", 33, 47),
            ComputeDef::mmtv("mmtv", 4, 10, 24),
            ComputeDef::ttv("ttv", 3, 14, 20),
            ComputeDef::geva("geva", 77, 1.5, -0.5),
            ComputeDef::gemv("gemv", 29, 31, 2.0),
        ]
    }

    #[test]
    fn knobs_round_trip_through_decisions() {
        let cfg = ScheduleConfig {
            spatial_dpus: vec![8, 4],
            reduce_dpus: 16,
            tasklets: 12,
            cache_elems: 64,
            use_cache: true,
            unroll: false,
            host_threads: 8,
            parallel_transfer: true,
        };
        let trace = cfg.to_decision_trace();
        assert_eq!(ScheduleConfig::from_trace(&trace), Some(cfg));
    }

    #[test]
    fn sampled_traces_are_materialized_and_apply() {
        let gen = UpmemSketchGenerator;
        let mut rng = StdRng::seed_from_u64(5);
        for def in paper_workloads() {
            for trial in 0..8 {
                let trace = gen.sample(&mut rng, &def, &hw(), trial % 2 == 0);
                if trace.is_materialized() {
                    // A materialized sample always applies cleanly (the
                    // recorder already applied the same primitives once).
                    trace.apply(&def).unwrap();
                }
                // Knobs are always recoverable from the decisions.
                assert!(ScheduleConfig::from_trace(&trace).is_some());
            }
        }
    }

    #[test]
    fn sketches_cover_both_design_spaces() {
        let gen = UpmemSketchGenerator;
        let mtv = ComputeDef::mtv("mtv", 512, 512);
        let sketches = gen.sketches(&mtv, &hw());
        assert_eq!(sketches.len(), 2);
        assert!(!sketches[0].uses_rfactor());
        assert!(sketches[1].uses_rfactor());
        let va = ComputeDef::va("va", 512);
        assert_eq!(gen.sketches(&va, &hw()).len(), 1);
    }

    #[test]
    fn mutation_changes_a_decision_eventually() {
        let gen = UpmemSketchGenerator;
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let mut rng = StdRng::seed_from_u64(11);
        let base = gen.sample(&mut rng, &def, &hw(), true);
        let mut changed = false;
        for _ in 0..20 {
            if gen.mutate(&mut rng, &def, &hw(), &base) != base {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn crossover_mixes_parent_decisions() {
        let gen = UpmemSketchGenerator;
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let mut rng = StdRng::seed_from_u64(17);
        let a = gen.sample(&mut rng, &def, &hw(), true);
        let b = gen.sample(&mut rng, &def, &hw(), false);
        let child = gen.crossover(&mut rng, &def, &hw(), &a, &b);
        for (site, d) in child.decisions() {
            let from_a = a.decisions().any(|(s, pd)| s == site && pd == d);
            let from_b = b.decisions().any(|(s, pd)| s == site && pd == d);
            assert!(from_a || from_b, "decision {site}={d} from neither parent");
        }
        assert!(child.is_materialized());
    }

    #[test]
    fn materialize_rejects_foreign_traces() {
        let t = Trace::from_decisions("other", vec![("x", Decision::Int(1))]);
        let def = ComputeDef::va("va", 64);
        assert!(materialize_upmem(&t, &def).is_err());
    }
}
