//! The `"tiled"` generator: multi-level tiling with sampled per-input
//! cache placement, built from [`SketchRule`]s.

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result;
use rand::rngs::StdRng;

use crate::generator::{site, SpaceGenerator};
use crate::trace::{Decision, Trace};

use super::rules::{RuleSet, SketchRule};
use super::ReplayDecider;

/// Sketch tag (and generator id) of [`TiledSketchGenerator`] traces.
pub const TILED_SKETCH: &str = "tiled";

/// Multi-level tiling sketch space.
///
/// Extends the joint UPMEM space with `levels` extra tile splits per data
/// loop (`tile.{j}.{l}` / `rtile.{l}` sites) and a *per-input* cache-read
/// placement decision (`cache.{i}`: stream, deep attach, or shallow
/// attach) — schedules the fixed-knob sketch cannot express, e.g. staging
/// only the operand that is reused while streaming the other.
#[derive(Debug, Clone)]
pub struct TiledSketchGenerator {
    rules: RuleSet,
}

impl TiledSketchGenerator {
    /// A tiled space with `levels` tile splits below the DPU/tasklet
    /// distribution (`levels = 0` degenerates to binding + caching only).
    pub fn new(levels: usize) -> Self {
        TiledSketchGenerator {
            rules: RuleSet {
                tag: TILED_SKETCH,
                rules: vec![
                    SketchRule::BindSpatialDpus,
                    SketchRule::RfactorReduce { fixed_site: false },
                    SketchRule::BindTasklets,
                    SketchRule::MultiLevelTile { levels },
                    SketchRule::CacheReads,
                    SketchRule::CacheWrite,
                    SketchRule::Unroll,
                    SketchRule::HostPostprocess,
                ],
                divisors_only: false,
                wram_fit: false,
            },
        }
    }

    /// The underlying rule set (diagnostics, docs, tests).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }
}

impl Default for TiledSketchGenerator {
    fn default() -> Self {
        TiledSketchGenerator::new(2)
    }
}

impl SpaceGenerator for TiledSketchGenerator {
    fn name(&self) -> &str {
        self.rules.tag
    }

    fn sketches(&self, def: &ComputeDef, hw: &UpmemConfig) -> Vec<Trace> {
        let mut deciders = vec![ReplayDecider::default()];
        if self.supports_rfactor(def) {
            deciders.push(ReplayDecider::default().set(site::REDUCE_DPUS, Decision::Int(2)));
        }
        deciders
            .iter_mut()
            .filter_map(|d| self.rules.elaborate(def, Some(hw), d).ok())
            .collect()
    }

    fn sample(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        with_rfactor: bool,
    ) -> Trace {
        self.rules.sample(rng, def, hw, with_rfactor)
    }

    fn mutate(&self, rng: &mut StdRng, def: &ComputeDef, hw: &UpmemConfig, base: &Trace) -> Trace {
        self.rules.mutate(rng, def, hw, base)
    }

    fn materialize(&self, trace: &Trace, def: &ComputeDef, hw: &UpmemConfig) -> Result<Trace> {
        self.rules.materialize(trace, def, hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hw() -> UpmemConfig {
        UpmemConfig::default()
    }

    #[test]
    fn sketches_are_materialized_and_tagged() {
        let gen = TiledSketchGenerator::default();
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let sketches = gen.sketches(&def, &hw());
        assert_eq!(sketches.len(), 2);
        for s in &sketches {
            assert_eq!(s.sketch(), TILED_SKETCH);
            assert!(s.is_materialized());
            s.apply(&def).unwrap();
        }
        assert!(!sketches[0].uses_rfactor());
        assert!(sketches[1].uses_rfactor());
    }

    #[test]
    fn samples_replay_bit_identically() {
        let gen = TiledSketchGenerator::default();
        let def = ComputeDef::mmtv("mmtv", 8, 64, 128);
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..16 {
            let t = gen.sample(&mut rng, &def, &hw(), trial % 2 == 0);
            let again = gen.materialize(&t, &def, &hw()).unwrap();
            assert_eq!(t.insts(), again.insts(), "trial {trial} diverged");
            assert_eq!(t.regs(), again.regs());
        }
    }

    #[test]
    fn per_input_cache_placement_sites_exist() {
        let gen = TiledSketchGenerator::default();
        let def = ComputeDef::mtv("mtv", 512, 512);
        let sketch = &gen.sketches(&def, &hw())[0];
        for i in 0..def.inputs.len() {
            assert!(
                sketch.int_decision(&format!("cache.{i}")).is_some(),
                "input {i} lacks a placement site"
            );
        }
        assert!(sketch.int_decision("tile.0.0").is_some());
        assert!(sketch.int_decision("rtile.0").is_some());
    }

    #[test]
    fn mutation_stays_in_family_and_materialized() {
        let gen = TiledSketchGenerator::default();
        let def = ComputeDef::gemv("gemv", 256, 256, 1.5);
        let mut rng = StdRng::seed_from_u64(9);
        let base = gen.sample(&mut rng, &def, &hw(), false);
        let mut changed = false;
        for _ in 0..32 {
            let m = gen.mutate(&mut rng, &def, &hw(), &base);
            assert_eq!(m.sketch(), TILED_SKETCH);
            assert!(m.is_materialized());
            changed |= m != base;
        }
        assert!(changed, "32 mutations never changed a decision");
    }

    #[test]
    fn materialize_rejects_foreign_sketches() {
        let gen = TiledSketchGenerator::default();
        let def = ComputeDef::va("va", 64);
        let foreign = Trace::from_decisions("upmem", vec![("tasklets", Decision::Int(4))]);
        assert!(gen.materialize(&foreign, &def, &hw()).is_err());
    }
}
