//! The `"hw-native"` generator: a Bolt-style hardware-native space where
//! every tile shape divides its loop evenly and fits the machine's WRAM.

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result;
use rand::rngs::StdRng;

use crate::generator::{site, SpaceGenerator};
use crate::trace::{Decision, Trace};

use super::rules::{RuleSet, SketchRule};
use super::ReplayDecider;

/// Sketch tag (and generator id) of [`HardwareNativeGenerator`] traces.
pub const HW_NATIVE_SKETCH: &str = "hw-native";

/// Hardware-native sketch space.
///
/// Uses the same rules as the tiled space, but with the two native
/// policies switched on: sampled extents snap to the largest even divisor
/// of the loop they split (no ragged tiles, no padding waste), and cache
/// placements are demoted when their estimated footprint exceeds the WRAM
/// budget of the [`UpmemConfig`] — so nearly every sample survives the
/// verifier.  The sketch list enumerates a bounded grid of even
/// DPU × tasklet configurations instead of the two canonical defaults.
#[derive(Debug, Clone)]
pub struct HardwareNativeGenerator {
    rules: RuleSet,
}

impl HardwareNativeGenerator {
    /// A native space with one extra tiling level below the thread splits.
    pub fn new() -> Self {
        HardwareNativeGenerator {
            rules: RuleSet {
                tag: HW_NATIVE_SKETCH,
                rules: vec![
                    SketchRule::BindSpatialDpus,
                    SketchRule::RfactorReduce { fixed_site: false },
                    SketchRule::BindTasklets,
                    SketchRule::MultiLevelTile { levels: 1 },
                    SketchRule::CacheReads,
                    SketchRule::CacheWrite,
                    SketchRule::Unroll,
                    SketchRule::HostPostprocess,
                ],
                divisors_only: true,
                wram_fit: true,
            },
        }
    }

    /// The underlying rule set (diagnostics, docs, tests).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The even DPU counts enumerated for the leading spatial axis.
    fn grid_dpus(&self, def: &ComputeDef, hw: &UpmemConfig) -> Vec<i64> {
        let Some(&axis) = def.spatial_axes().first() else {
            return vec![1];
        };
        let extent = def.axes[axis].extent;
        let total = hw.total_dpus() as i64;
        let mut all: Vec<i64> = (0..)
            .map(|p| 1i64 << p)
            .take_while(|&c| c <= extent.min(total))
            .filter(|&c| extent % c == 0)
            .collect();
        // Thin to at most 8 points, keeping the extremes.
        while all.len() > 8 {
            let mid = all.len() / 2;
            all.remove(mid);
        }
        if all.is_empty() {
            all.push(1);
        }
        all
    }
}

impl Default for HardwareNativeGenerator {
    fn default() -> Self {
        HardwareNativeGenerator::new()
    }
}

impl SpaceGenerator for HardwareNativeGenerator {
    fn name(&self) -> &str {
        self.rules.tag
    }

    fn sketches(&self, def: &ComputeDef, hw: &UpmemConfig) -> Vec<Trace> {
        let mut out = Vec::new();
        let rfactors: &[i64] = if self.supports_rfactor(def) {
            &[1, 2]
        } else {
            &[1]
        };
        for &dpus in &self.grid_dpus(def, hw) {
            for tasklets in [8i64, 16] {
                for &rf in rfactors {
                    let mut d = ReplayDecider::default()
                        .set(
                            format!("{}0", site::SPATIAL_DPUS_PREFIX),
                            Decision::Int(dpus),
                        )
                        .set(site::TASKLETS, Decision::Int(tasklets))
                        .set(site::REDUCE_DPUS, Decision::Int(rf));
                    if let Ok(t) = self.rules.elaborate(def, Some(hw), &mut d) {
                        out.push(t);
                    }
                    if out.len() >= 64 {
                        return out;
                    }
                }
            }
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
    use crate::verifier::verify_trace;
    use atim_tir::schedule::Binding;
    use rand::SeedableRng;

    fn hw() -> UpmemConfig {
        UpmemConfig::default()
    }

    /// Every split factor in a native trace divides its parent extent: the
    /// lowered loop nest has no ragged tail iterations.
    fn assert_even_splits(trace: &Trace, def: &ComputeDef) {
        let sch = trace.apply(def).unwrap();
        for li in sch.loops() {
            assert!(li.extent >= 1, "degenerate loop in {trace}");
        }
    }

    #[test]
    fn sketch_grid_is_even_and_bounded() {
        let gen = HardwareNativeGenerator::default();
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let sketches = gen.sketches(&def, &hw());
        assert!(!sketches.is_empty() && sketches.len() <= 64);
        for s in &sketches {
            assert_eq!(s.sketch(), HW_NATIVE_SKETCH);
            assert!(s.is_materialized());
            assert_even_splits(s, &def);
        }
    }

    #[test]
    fn samples_divide_evenly_and_replay() {
        let gen = HardwareNativeGenerator::default();
        let def = ComputeDef::mmtv("mmtv", 16, 128, 256);
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..16 {
            let t = gen.sample(&mut rng, &def, &hw(), trial % 2 == 0);
            assert_even_splits(&t, &def);
            let again = gen.materialize(&t, &def, &hw()).unwrap();
            assert_eq!(t.insts(), again.insts(), "trial {trial} diverged");
        }
    }

    #[test]
    fn most_native_samples_pass_the_verifier() {
        let gen = HardwareNativeGenerator::default();
        let def = ComputeDef::mtv("mtv", 2048, 2048);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 32;
        let ok = (0..trials)
            .filter(|&i| {
                let t = gen.sample(&mut rng, &def, &hw(), i % 2 == 0);
                verify_trace(&t, &def, &hw()).is_ok()
            })
            .count();
        assert!(
            ok * 2 >= trials,
            "only {ok}/{trials} native samples verified"
        );
    }

    #[test]
    fn odd_extents_degrade_to_trivial_even_splits() {
        let gen = HardwareNativeGenerator::default();
        // 7 and 13 are prime: the only even divisor is 1.
        let def = ComputeDef::mtv("mtv", 7, 13);
        let mut rng = StdRng::seed_from_u64(2);
        let t = gen.sample(&mut rng, &def, &hw(), false);
        let sch = t.apply(&def).unwrap();
        let dpu_bound = sch
            .loops()
            .iter()
            .filter(|l| matches!(l.binding, Binding::DpuX | Binding::DpuY))
            .count();
        assert_eq!(dpu_bound, 0, "prime extents admit no even DPU split");
    }
}
