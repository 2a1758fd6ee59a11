//! Sketch-rule schedule spaces: declarative rules, the three resident rule
//! sets and the generator registry.
//!
//! This module *composes* schedule spaces from declarative [`SketchRule`]s:
//! each rule elaborates one structural move (DPU/tasklet binding, `rfactor`,
//! multi-level tiling, cache placement, unrolling) and declares the decision
//! sites it leaves free.  A [`RuleSet`] runs its rules in order, asking a
//! [`Decider`] for every site it passes, and emits a fully materialized
//! [`Trace`] whose decision list leads the instruction stream — exactly the
//! shape the evolutionary search, the tuning logs and the measurement fleet
//! understand.  Every resident space is such a rule set; the rules in
//! `rules.rs` are the only place schedule structure is written.
//!
//! * [`upmem_rules`] (`"upmem"`, the default) — ATiM's joint host/kernel
//!   sketch (Fig. 6): `[BindSpatialDpus, RfactorReduce, BindTasklets,
//!   CacheTile, Unroll, HostPostprocess]`.  Its sites are the eight knobs of
//!   a [`crate::space::ScheduleConfig`], so
//!   [`crate::generator::UpmemSketchGenerator`] keeps the pre-trace tuner's
//!   knob samplers as its sampling *policy* and elaborates each drawn knob
//!   vector through this rule set for the *structure*.
//! * [`TiledSketchGenerator`] (`"tiled"`) — multi-level tiling with a
//!   configurable depth and *per-input* cache-read placement sampled as a
//!   decision, opening schedules the fixed-knob sketch cannot reach
//!   (different staging depths per operand, tile pyramids per axis).
//! * [`HardwareNativeGenerator`] (`"hw-native"`) — a Bolt-style
//!   hardware-native space: every sampled extent is snapped to a divisor of
//!   the loop it splits (tiles always divide evenly) and cache placements
//!   are demoted when their estimated WRAM footprint exceeds the budget
//!   from `UpmemConfig`, so the space contains (almost) only
//!   verifier-clean schedules.
//!
//! The *site list* of a rule set is a pure function of the workload and the
//! rule configuration — never of other decisions.  That invariant is what
//! makes decision mutation and crossover on variable-length decision lists
//! valid by construction: any two traces of the same workload share the
//! same sites, and replaying an arbitrary decision vector (clamping at use
//! sites, never rewriting the recorded values) is always well-defined and
//! idempotent.

mod native;
mod recorder;
mod rules;
mod tiled;

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;

use crate::generator::{site, SpaceGenerator, UpmemSketchGenerator};
use crate::session::TuningError;
use crate::trace::{Decision, Trace, UPMEM_SKETCH};

pub use native::{HardwareNativeGenerator, HW_NATIVE_SKETCH};
pub use rules::{RuleSet, SketchRule};
pub use tiled::{TiledSketchGenerator, TILED_SKETCH};

/// Answers the free decisions a [`RuleSet`] passes during elaboration.
///
/// The rule engine calls `int`/`flag` once per site, in canonical order,
/// and records the returned value verbatim in the trace — clamping or
/// divisor-snapping happens only at the *use* site, so replaying a trace's
/// own decisions through [`ReplayDecider`] reproduces it bit-identically.
pub trait Decider {
    /// Picks an integer decision for `site` from `choices` (`default` is
    /// the deterministic sketch value).
    fn int(&mut self, site: &str, choices: &[i64], default: i64) -> i64;
    /// Picks a boolean decision for `site` (`p_true` is the sampling
    /// probability; `default` the deterministic sketch value).
    fn flag(&mut self, site: &str, default: bool, p_true: f64) -> bool;
}

/// Random decider driving [`SpaceGenerator::sample`].
///
/// `rfactor` forces the hierarchical-reduction subspace on or off (the
/// balanced-sampling contract of the session); `None` samples it freely.
pub struct SampleDecider<'r> {
    rng: &'r mut StdRng,
    rfactor: Option<bool>,
}

impl<'r> SampleDecider<'r> {
    /// A decider drawing every site uniformly from its choice list.
    pub fn new(rng: &'r mut StdRng, rfactor: Option<bool>) -> Self {
        SampleDecider { rng, rfactor }
    }
}

impl Decider for SampleDecider<'_> {
    fn int(&mut self, site_name: &str, choices: &[i64], default: i64) -> i64 {
        if site_name == site::REDUCE_DPUS {
            match self.rfactor {
                Some(false) => return 1,
                Some(true) => {
                    let hi: Vec<i64> = choices.iter().copied().filter(|&c| c > 1).collect();
                    if hi.is_empty() {
                        return 1;
                    }
                    return hi[self.rng.gen_range(0..hi.len())];
                }
                None => {}
            }
        }
        if choices.is_empty() {
            return default;
        }
        choices[self.rng.gen_range(0..choices.len())]
    }

    fn flag(&mut self, _site: &str, _default: bool, p_true: f64) -> bool {
        self.rng.gen_bool(p_true)
    }
}

/// Replays a fixed set of decisions — those of an existing trace
/// (materialization, crossover children, decisions-only traces from logs)
/// or a hand-picked few (sketch grids); every other site takes its default,
/// so `ReplayDecider::default()` elaborates a rule set's canonical sketch.
#[derive(Debug, Default)]
pub struct ReplayDecider {
    decisions: HashMap<String, Decision>,
}

impl ReplayDecider {
    /// A decider replaying `trace`'s decision list.
    pub fn new(trace: &Trace) -> Self {
        ReplayDecider {
            decisions: trace.decisions().map(|(s, d)| (s.to_string(), d)).collect(),
        }
    }

    /// Fixes one more site.
    pub fn set(mut self, site: impl Into<String>, d: Decision) -> Self {
        self.decisions.insert(site.into(), d);
        self
    }
}

impl Decider for ReplayDecider {
    fn int(&mut self, site: &str, _choices: &[i64], default: i64) -> i64 {
        self.decisions
            .get(site)
            .and_then(|d| d.as_int())
            .unwrap_or(default)
    }

    fn flag(&mut self, site: &str, default: bool, _p_true: f64) -> bool {
        self.decisions
            .get(site)
            .and_then(|d| d.as_bool())
            .unwrap_or(default)
    }
}

/// Replays a base trace with exactly one site (by visit index) resampled —
/// the mutation operator of the rule-built generators.
pub(crate) struct MutateDecider<'r> {
    rng: &'r mut StdRng,
    base: HashMap<String, Decision>,
    target: usize,
    seen: usize,
}

impl<'r> MutateDecider<'r> {
    pub(crate) fn new(rng: &'r mut StdRng, base: &Trace, target: usize) -> Self {
        MutateDecider {
            rng,
            base: base.decisions().map(|(s, d)| (s.to_string(), d)).collect(),
            target,
            seen: 0,
        }
    }
}

impl Decider for MutateDecider<'_> {
    fn int(&mut self, site: &str, choices: &[i64], default: i64) -> i64 {
        let idx = self.seen;
        self.seen += 1;
        let current = self
            .base
            .get(site)
            .and_then(|d| d.as_int())
            .unwrap_or(default);
        if idx != self.target || choices.is_empty() {
            return current;
        }
        // Prefer a different value; a single-choice site stays put.
        let fresh: Vec<i64> = choices.iter().copied().filter(|&c| c != current).collect();
        if fresh.is_empty() {
            current
        } else {
            fresh[self.rng.gen_range(0..fresh.len())]
        }
    }

    fn flag(&mut self, site: &str, default: bool, _p_true: f64) -> bool {
        let idx = self.seen;
        self.seen += 1;
        let current = self
            .base
            .get(site)
            .and_then(|d| d.as_bool())
            .unwrap_or(default);
        if idx == self.target {
            !current
        } else {
            current
        }
    }
}

/// The rule set of the default `"upmem"` space: ATiM's joint host/kernel
/// sketch (Fig. 6).  Its decision sites are exactly the knobs of a
/// [`crate::space::ScheduleConfig`], in canonical order.
pub fn upmem_rules() -> &'static RuleSet {
    static RULES: OnceLock<RuleSet> = OnceLock::new();
    RULES.get_or_init(|| RuleSet {
        tag: UPMEM_SKETCH,
        rules: vec![
            SketchRule::BindSpatialDpus,
            SketchRule::RfactorReduce { fixed_site: true },
            SketchRule::BindTasklets,
            SketchRule::CacheTile,
            SketchRule::Unroll,
            SketchRule::HostPostprocess,
        ],
        divisors_only: false,
        wram_fit: false,
    })
}

/// Environment variable selecting the resident space generator by id
/// (`"upmem"`, `"tiled"`, `"hw-native"`).  Read by `SessionBuilder::build`
/// in `atim-core` and by fleet workers; unknown values fail loudly with
/// [`TuningError::InvalidSpaceGenerator`].
pub const SPACE_GENERATOR_ENV: &str = "ATIM_SPACE_GENERATOR";

/// The ids of the generators every binary in the tree knows how to resolve
/// (tuner, server, fleet workers, bench harness).
pub const RESIDENT_GENERATOR_IDS: [&str; 3] = [UPMEM_SKETCH, TILED_SKETCH, HW_NATIVE_SKETCH];

/// Resolves a resident generator by its id (`SpaceGenerator::name`).
///
/// This is the one id → generator mapping in the tree: sessions, cache
/// keys, measure jobs and fleet workers all round-trip generator identity
/// through it.
pub fn resolve_generator(id: &str) -> Option<Arc<dyn SpaceGenerator>> {
    match id {
        UPMEM_SKETCH => Some(Arc::new(UpmemSketchGenerator)),
        TILED_SKETCH => Some(Arc::new(TiledSketchGenerator::default())),
        HW_NATIVE_SKETCH => Some(Arc::new(HardwareNativeGenerator::default())),
        _ => None,
    }
}

/// The generator selected by [`SPACE_GENERATOR_ENV`], if the variable is
/// set.
///
/// # Errors
/// [`TuningError::InvalidSpaceGenerator`] when the variable holds an
/// unknown id — a typo must not silently fall back to the default space.
pub fn generator_from_env() -> Result<Option<Arc<dyn SpaceGenerator>>, TuningError> {
    match std::env::var(SPACE_GENERATOR_ENV) {
        Ok(raw) => match resolve_generator(raw.trim()) {
            Some(g) => Ok(Some(g)),
            None => Err(TuningError::InvalidSpaceGenerator { value: raw }),
        },
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_resident_id() {
        for id in RESIDENT_GENERATOR_IDS {
            let g = resolve_generator(id).expect("resident id must resolve");
            assert_eq!(g.name(), id, "generator name must round-trip its id");
        }
        assert!(resolve_generator("no-such-space").is_none());
    }

    #[test]
    fn resident_ids_are_distinct() {
        for (i, a) in RESIDENT_GENERATOR_IDS.iter().enumerate() {
            for b in &RESIDENT_GENERATOR_IDS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
