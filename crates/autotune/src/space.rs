//! The knob-vector view of the default UPMEM design space.
//!
//! The tuning stack searches over [`crate::trace::Trace`]s — sampled
//! schedule traces emitted by a [`crate::generator::SpaceGenerator`].
//! [`ScheduleConfig`] is the named knob vector of the default `upmem`
//! space: the eight decision sites of the [`crate::sketch::upmem_rules`]
//! rule set as a struct.  It carries the space's sampling *policy*
//! (`default_for`, `sample_knobs`, `mutate_knobs` — the pre-trace tuner's
//! distributions, draw for draw), expresses fixed baseline configurations
//! (PrIM, SimplePIM), shims v1 tuning logs into traces
//! ([`ScheduleConfig::to_decision_trace`]) and reads the knobs back out of a
//! trace ([`ScheduleConfig::from_trace`]).  The schedule *structure* behind
//! a knob vector is elaborated by the rule engine; the one hand-written copy
//! left, [`ScheduleConfig::instantiate`], is a test reference.  Each knob
//! maps one-to-one onto the schedule-primitive sequences of the paper's
//! Table 2:
//!
//! | Decision              | Primitives it controls                                |
//! |-----------------------|-------------------------------------------------------|
//! | `spatial_dpus`        | host-to-DPU data distribution (`split`/`reorder`/`bind`) |
//! | `reduce_dpus`         | reduction strategy (`rfactor` + `bind`)               |
//! | `tasklets`            | multi-level tiling (`split` + tasklet `bind`)         |
//! | `cache_elems`         | intra-DPU caching (`cache_read/write` + `compute_at`) |
//! | `use_cache`           | whether WRAM staging is generated at all              |
//! | `unroll`              | innermost-loop unrolling                              |
//! | `host_threads`        | post-processing (`split` + `parallel`)                |
//! | `parallel_transfer`   | bulk/bank-parallel transfer intrinsics (Fig. 7)       |

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result;
use atim_tir::schedule::{Attach, Binding, Schedule};
use rand::Rng;

use crate::generator::{record_sketch, site};
use crate::sketch::Decider;
use crate::trace::{Decision, Trace, UPMEM_SKETCH};

/// The named knob vector of the default UPMEM sketch — one point in the
/// joint host/kernel design space, as a struct instead of a trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleConfig {
    /// DPUs assigned to each spatial axis (one entry per spatial axis).
    pub spatial_dpus: Vec<i64>,
    /// DPUs assigned to the reduction axis (1 = no hierarchical reduction).
    pub reduce_dpus: i64,
    /// Tasklets per DPU.
    pub tasklets: i64,
    /// Elements per WRAM caching tile along the innermost loop.
    pub cache_elems: i64,
    /// Whether inputs/outputs are staged through WRAM at all.
    pub use_cache: bool,
    /// Whether the innermost loop is unrolled.
    pub unroll: bool,
    /// Host threads used for post-processing (final reduction).
    pub host_threads: usize,
    /// Whether host transfers use the rank-parallel push path.
    pub parallel_transfer: bool,
}

impl ScheduleConfig {
    /// Total number of DPUs this configuration uses.
    pub fn num_dpus(&self) -> i64 {
        self.spatial_dpus.iter().product::<i64>().max(1) * self.reduce_dpus.max(1)
    }

    /// Whether the configuration uses hierarchical (rfactor) reduction.
    pub fn uses_rfactor(&self) -> bool {
        self.reduce_dpus > 1
    }

    /// A sensible starting point for a workload: one DPU per row-ish chunk,
    /// 16 tasklets, 64-element caching tiles (PrIM-like defaults).
    pub fn default_for(def: &ComputeDef, hw: &UpmemConfig) -> Self {
        let spatial = def.spatial_axes();
        let total = hw.total_dpus() as i64;
        let mut spatial_dpus = vec![1i64; spatial.len()];
        if let Some(&first) = spatial.first() {
            spatial_dpus[0] = def.axes[first].extent.min(total).min(256);
        }
        ScheduleConfig {
            spatial_dpus,
            reduce_dpus: 1,
            tasklets: 16,
            cache_elems: 64,
            use_cache: true,
            unroll: false,
            host_threads: 8,
            parallel_transfer: true,
        }
    }

    /// The decisions-only UPMEM trace of this knob vector — the context-free
    /// `ScheduleConfig → Trace` shim (no workload needed; v1 tuning logs
    /// decode through this).  The result compares and hashes equal to the
    /// materialized trace of the same knobs.
    pub fn to_decision_trace(&self) -> Trace {
        let mut decisions: Vec<(String, Decision)> =
            Vec::with_capacity(self.spatial_dpus.len() + 7);
        for (j, &d) in self.spatial_dpus.iter().enumerate() {
            decisions.push((
                format!("{}{j}", site::SPATIAL_DPUS_PREFIX),
                Decision::Int(d),
            ));
        }
        decisions.push((site::REDUCE_DPUS.into(), Decision::Int(self.reduce_dpus)));
        decisions.push((site::TASKLETS.into(), Decision::Int(self.tasklets)));
        decisions.push((site::CACHE_ELEMS.into(), Decision::Int(self.cache_elems)));
        decisions.push((site::USE_CACHE.into(), Decision::Bool(self.use_cache)));
        decisions.push((site::UNROLL.into(), Decision::Bool(self.unroll)));
        decisions.push((
            site::HOST_THREADS.into(),
            Decision::Int(self.host_threads as i64),
        ));
        decisions.push((
            site::PARALLEL_TRANSFER.into(),
            Decision::Bool(self.parallel_transfer),
        ));
        Trace::from_decisions(UPMEM_SKETCH, decisions)
    }

    /// The fully materialized UPMEM trace of this knob vector for a
    /// workload.  Knob vectors the sketch cannot instantiate yield a
    /// decisions-only trace, which the verifier rejects — exactly as it
    /// rejected un-instantiable configs.
    pub fn to_trace(&self, def: &ComputeDef) -> Trace {
        record_sketch(self, def).unwrap_or_else(|_| self.to_decision_trace())
    }

    /// Reads the knob vector back out of a trace's decisions (the raw,
    /// unclamped values, exactly as sampled).  `None` for traces of custom
    /// space generators (which have no UPMEM knobs).
    pub fn from_trace(trace: &Trace) -> Option<Self> {
        let mut spatial_dpus = Vec::new();
        for (s, d) in trace.decisions() {
            if let Some(idx) = s.strip_prefix(site::SPATIAL_DPUS_PREFIX) {
                if idx.parse::<usize>().ok()? != spatial_dpus.len() {
                    return None;
                }
                spatial_dpus.push(d.as_int()?);
            }
        }
        Some(ScheduleConfig {
            spatial_dpus,
            reduce_dpus: trace.int_decision(site::REDUCE_DPUS)?,
            tasklets: trace.int_decision(site::TASKLETS)?,
            cache_elems: trace.int_decision(site::CACHE_ELEMS)?,
            use_cache: trace.bool_decision(site::USE_CACHE)?,
            unroll: trace.bool_decision(site::UNROLL)?,
            host_threads: usize::try_from(trace.int_decision(site::HOST_THREADS)?).ok()?,
            parallel_transfer: trace.bool_decision(site::PARALLEL_TRANSFER)?,
        })
    }

    /// Test reference, never on a production path: the ATiM sketch written
    /// out by hand against [`Schedule`], independent of the rule engine that
    /// [`ScheduleConfig::to_trace`] elaborates (`tests/trace_equivalence.rs`
    /// pins the two against each other for every workload kind).
    ///
    /// # Errors
    /// Returns an error if a primitive application fails.
    #[doc(hidden)]
    pub fn instantiate(&self, def: &ComputeDef) -> Result<Schedule> {
        let mut sch = Schedule::new(def.clone());
        let spatial_axes = def.spatial_axes();
        let reduce_axes = def.reduce_axes();

        let mut grid_loops = Vec::new();
        let mut spatial_inner = Vec::new();

        // Host-to-DPU data distribution over the spatial axes.
        for (j, &axis) in spatial_axes.iter().enumerate() {
            let dpus = self
                .spatial_dpus
                .get(j)
                .copied()
                .unwrap_or(1)
                .clamp(1, def.axes[axis].extent);
            let l = sch.loops_of_axis(axis)[0];
            if dpus > 1 {
                let inner_extent = div_ceil(def.axes[axis].extent, dpus);
                let (dpu, inner) = sch.split(l, inner_extent)?;
                sch.bind(dpu, Binding::DpuX)?;
                grid_loops.push(dpu);
                spatial_inner.push((axis, inner));
            } else {
                spatial_inner.push((axis, l));
            }
        }

        // Reduction strategy: hierarchical reduction across DPUs.
        let mut reduce_inner = None;
        if let Some(&raxis) = reduce_axes.first() {
            let l = sch.loops_of_axis(raxis)[0];
            // An axis of extent 1 cannot be distributed: no rfactor.
            let dpus = self.reduce_dpus.clamp(1, def.axes[raxis].extent);
            if dpus > 1 {
                let inner_extent = div_ceil(def.axes[raxis].extent, dpus);
                let (r_dpu, r_in) = sch.split(l, inner_extent)?;
                sch.rfactor(r_dpu)?;
                sch.bind(r_dpu, Binding::DpuY)?;
                grid_loops.push(r_dpu);
                reduce_inner = Some((raxis, r_in));
            } else {
                reduce_inner = Some((raxis, l));
            }
        }

        // Multi-level tiling: tasklets over the spatial axis with the most
        // per-DPU work (falling back to the reduction axis for pure
        // reductions).
        let mut tasklet_loop = None;
        if self.tasklets > 1 {
            let candidate = spatial_inner
                .iter()
                .enumerate()
                .max_by_key(|(_, (_, l))| sch.loop_info(*l).map(|i| i.extent).unwrap_or(0));
            if let Some((slot, &(axis, l))) = candidate {
                let extent = sch.loop_info(l)?.extent;
                if extent > 1 {
                    let per_tasklet = div_ceil(extent, self.tasklets.min(extent));
                    let (t, rest) = sch.split(l, per_tasklet)?;
                    sch.bind(t, Binding::Tasklet)?;
                    tasklet_loop = Some(t);
                    spatial_inner[slot] = (axis, rest);
                }
            } else if let Some((_, l)) = reduce_inner {
                let extent = sch.loop_info(l)?.extent;
                if extent > 1 {
                    let per_tasklet = div_ceil(extent, self.tasklets.min(extent));
                    let (t, rest) = sch.split(l, per_tasklet)?;
                    sch.bind(t, Binding::Tasklet)?;
                    tasklet_loop = Some(t);
                    reduce_inner = Some((reduce_inner.expect("checked").0, rest));
                }
            }
        }

        // Intra-DPU caching: split the innermost data loop by the caching
        // tile size so the cache chunk loop exists, then attach the caching
        // tiles there.
        let (cache_axis_loop, _is_reduce_cache) = match reduce_inner {
            Some((_, l)) => (Some(l), true),
            None => (spatial_inner.last().map(|&(_, l)| l), false),
        };
        let mut cache_attach = None;
        let mut innermost = None;
        // When the cache split consumes a spatial inner loop, remember the
        // original reference so the reorder below does not mention it.
        let mut consumed = None;
        if let Some(l) = cache_axis_loop {
            let extent = sch.loop_info(l)?.extent;
            let tile = self.cache_elems.clamp(1, extent.max(1));
            if tile < extent {
                let (outer, inner) = sch.split(l, tile)?;
                cache_attach = Some(outer);
                innermost = Some(inner);
                consumed = Some(l);
            } else {
                cache_attach = Some(l);
                innermost = Some(l);
            }
        }

        // Loop order: grid loops, tasklet loop, spatial inner loops, then the
        // cache chunk loop and the innermost loop.
        let mut order = Vec::new();
        order.extend(grid_loops.iter().copied());
        if let Some(t) = tasklet_loop {
            order.push(t);
        }
        for &(_, l) in &spatial_inner {
            if Some(l) != cache_attach && Some(l) != innermost && Some(l) != consumed {
                order.push(l);
            }
        }
        if let Some(c) = cache_attach {
            if !order.contains(&c) {
                order.push(c);
            }
        }
        if let Some(i) = innermost {
            if !order.contains(&i) {
                order.push(i);
            }
        }
        sch.reorder(&order)?;

        // Caching directives.
        if self.use_cache {
            if let Some(attach) = cache_attach {
                for input in 0..def.inputs.len() {
                    sch.cache_read(input, Attach::At(attach))?;
                }
                // The output accumulator must enclose every reduction loop, so
                // attach it at the innermost loop that is still outside the
                // reduction: the last spatial inner loop if one exists.
                if def.has_reduce() {
                    if let Some(&(_, spatial_attach)) = spatial_inner.last() {
                        if sch
                            .loops()
                            .iter()
                            .position(|li| li.id == spatial_attach.0)
                            .is_some()
                        {
                            sch.cache_write(Attach::At(spatial_attach))?;
                        }
                    }
                } else {
                    sch.cache_write(Attach::At(attach))?;
                }
            }
        }

        // Unrolling of the innermost loop.
        if self.unroll {
            if let Some(inner) = innermost {
                if cache_attach != Some(inner) {
                    sch.unroll(inner)?;
                }
            }
        }

        sch.parallel_host(self.host_threads);
        sch.set_parallel_transfer(self.parallel_transfer);
        Ok(sch)
    }
}

/// A knob vector answers the `upmem` rule set's sites directly (the inverse
/// of [`ScheduleConfig::from_trace`]); axes the vector has no entry for get
/// one DPU.
impl Decider for &ScheduleConfig {
    fn int(&mut self, name: &str, _choices: &[i64], default: i64) -> i64 {
        if let Some(j) = name.strip_prefix(site::SPATIAL_DPUS_PREFIX) {
            let entry = j.parse().ok().and_then(|j: usize| self.spatial_dpus.get(j));
            return entry.copied().unwrap_or(1);
        }
        match name {
            site::REDUCE_DPUS => self.reduce_dpus,
            site::TASKLETS => self.tasklets,
            site::CACHE_ELEMS => self.cache_elems,
            site::HOST_THREADS => self.host_threads as i64,
            _ => default,
        }
    }

    fn flag(&mut self, name: &str, default: bool, _p_true: f64) -> bool {
        match name {
            site::USE_CACHE => self.use_cache,
            site::UNROLL => self.unroll,
            site::PARALLEL_TRANSFER => self.parallel_transfer,
            _ => default,
        }
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Samples a random knob vector, optionally forcing the
/// `rfactor`/non-`rfactor` design space (the two sketches of Fig. 6) — the
/// decision distributions behind
/// [`crate::generator::UpmemSketchGenerator`]'s `sample`.
pub(crate) fn sample_knobs(
    def: &ComputeDef,
    total_dpus: i64,
    max_tasklets: i64,
    rng: &mut impl Rng,
    with_rfactor: bool,
) -> ScheduleConfig {
    let spatial = def.spatial_axes();
    let mut spatial_dpus = Vec::with_capacity(spatial.len());
    let mut budget = total_dpus;
    for &axis in &spatial {
        let extent = def.axes[axis].extent;
        let max_pow = log2_floor(extent.min(budget).max(1));
        let choice = 1i64 << rng.gen_range(0..=max_pow);
        spatial_dpus.push(choice);
        budget = (budget / choice).max(1);
    }
    let reduce_dpus = if with_rfactor && def.has_reduce() {
        let raxis = def.reduce_axes()[0];
        let extent = def.axes[raxis].extent;
        let max_pow = log2_floor(extent.min(budget).clamp(2, 64));
        1i64 << rng.gen_range(1..=max_pow.max(1))
    } else {
        1
    };
    let tasklet_choices = [1i64, 2, 4, 8, 12, 16, 20, 24];
    let tasklets = tasklet_choices[rng.gen_range(0..tasklet_choices.len())].min(max_tasklets);
    let cache_choices = [2i64, 4, 8, 16, 32, 64, 128, 256];
    let cache_elems = cache_choices[rng.gen_range(0..cache_choices.len())];
    ScheduleConfig {
        spatial_dpus,
        reduce_dpus,
        tasklets,
        cache_elems,
        use_cache: rng.gen_bool(0.9),
        unroll: rng.gen_bool(0.5),
        host_threads: 1usize << rng.gen_range(0..6),
        parallel_transfer: true,
    }
}

/// Mutates one knob of a configuration (the evolutionary search's mutation
/// operator behind [`crate::generator::UpmemSketchGenerator`]'s `mutate`).
pub(crate) fn mutate_knobs(
    def: &ComputeDef,
    total_dpus: i64,
    max_tasklets: i64,
    rng: &mut impl Rng,
    base: &ScheduleConfig,
) -> ScheduleConfig {
    let mut c = base.clone();
    match rng.gen_range(0..6) {
        0 => {
            // Re-sample one spatial DPU dimension.
            if !c.spatial_dpus.is_empty() {
                let j = rng.gen_range(0..c.spatial_dpus.len());
                let axis = def.spatial_axes()[j];
                let extent = def.axes[axis].extent;
                let max_pow = log2_floor(extent.min(total_dpus).max(1));
                c.spatial_dpus[j] = 1i64 << rng.gen_range(0..=max_pow);
            }
        }
        1 => {
            if def.has_reduce() {
                let raxis = def.reduce_axes()[0];
                let extent = def.axes[raxis].extent;
                let max_pow = log2_floor(extent.clamp(2, 64));
                c.reduce_dpus = if rng.gen_bool(0.3) {
                    1
                } else {
                    1i64 << rng.gen_range(1..=max_pow.max(1))
                };
            }
        }
        2 => {
            let choices = [1i64, 2, 4, 8, 12, 16, 20, 24];
            c.tasklets = choices[rng.gen_range(0..choices.len())].min(max_tasklets);
        }
        3 => {
            let choices = [2i64, 4, 8, 16, 32, 64, 128, 256];
            c.cache_elems = choices[rng.gen_range(0..choices.len())];
        }
        4 => c.unroll = !c.unroll,
        _ => c.host_threads = 1usize << rng.gen_range(0..6),
    }
    c
}

fn log2_floor(v: i64) -> u32 {
    63 - (v.max(1) as u64).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{SpaceGenerator, UpmemSketchGenerator};
    use atim_tir::schedule::execute_functional;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hw() -> UpmemConfig {
        UpmemConfig::default()
    }

    /// The knob vector the default generator samples (the raw, unclamped
    /// `sample_knobs` draw, read back out of its trace).
    fn sample(rng: &mut StdRng, def: &ComputeDef, with_rfactor: bool) -> ScheduleConfig {
        let trace = UpmemSketchGenerator.sample(rng, def, &hw(), with_rfactor);
        ScheduleConfig::from_trace(&trace).expect("upmem trace carries knobs")
    }

    #[test]
    fn default_config_instantiates_and_runs() {
        let def = ComputeDef::mtv("mtv", 40, 60);
        let cfg = ScheduleConfig {
            spatial_dpus: vec![4],
            reduce_dpus: 2,
            tasklets: 2,
            cache_elems: 8,
            use_cache: true,
            unroll: true,
            host_threads: 2,
            parallel_transfer: true,
        };
        let sch = cfg.instantiate(&def).unwrap();
        let lowered = sch.lower().unwrap();
        assert_eq!(lowered.grid.num_dpus(), 8);
        let inputs = atim_workloads_testdata(&def);
        let got = execute_functional(&lowered, &inputs).unwrap();
        let expect = def.reference(&inputs);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-2, "{g} vs {e}");
        }
    }

    fn atim_workloads_testdata(def: &ComputeDef) -> Vec<Vec<f32>> {
        (0..def.inputs.len())
            .map(|t| {
                (0..def.input_len(t))
                    .map(|i| ((i + t) % 5) as f32 - 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn random_samples_instantiate_and_preserve_semantics() {
        let mut rng = StdRng::seed_from_u64(7);
        for def in [
            ComputeDef::va("va", 100),
            ComputeDef::red("red", 90),
            ComputeDef::mtv("mtv", 33, 47),
            ComputeDef::mmtv("mmtv", 4, 10, 24),
            ComputeDef::ttv("ttv", 3, 14, 20),
            ComputeDef::geva("geva", 77, 1.5, -0.5),
            ComputeDef::gemv("gemv", 29, 31, 2.0),
        ] {
            let expect = def.reference(&atim_workloads_testdata(&def));
            let mut checked = 0;
            for trial in 0..12 {
                let cfg = sample(&mut rng, &def, trial % 2 == 0);
                // Skip configurations that need more DPUs than small tensors
                // provide; the verifier rejects them in the real flow.
                let Ok(sch) = cfg.instantiate(&def) else {
                    continue;
                };
                let Ok(lowered) = sch.lower() else { continue };
                if lowered.grid.num_dpus() > 512 {
                    continue;
                }
                let got = execute_functional(&lowered, &atim_workloads_testdata(&def)).unwrap();
                let tol = 1e-2 * (def.total_flops() as f32).sqrt().max(1.0);
                for (g, e) in got.iter().zip(&expect) {
                    assert!(
                        (g - e).abs() < tol,
                        "{}: {g} vs {e} (cfg {cfg:?})",
                        def.name
                    );
                }
                checked += 1;
            }
            assert!(checked >= 4, "{}: too few valid samples", def.name);
        }
    }

    #[test]
    fn sample_respects_rfactor_flag() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            assert!(!sample(&mut rng, &def, false).uses_rfactor());
            assert!(sample(&mut rng, &def, true).uses_rfactor());
        }
        // Workloads without a reduction never get rfactor.
        let va = ComputeDef::va("va", 4096);
        assert!(!sample(&mut rng, &va, true).uses_rfactor());
    }

    #[test]
    fn mutation_changes_something_eventually() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let mut rng = StdRng::seed_from_u64(11);
        let base = sample(&mut rng, &def, true);
        let parent = base.to_trace(&def);
        let mut changed = false;
        for _ in 0..20 {
            let child = UpmemSketchGenerator.mutate(&mut rng, &def, &hw(), &parent);
            if ScheduleConfig::from_trace(&child).as_ref() != Some(&base) {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn num_dpus_accounts_for_both_dimensions() {
        let c = ScheduleConfig {
            spatial_dpus: vec![8, 4],
            reduce_dpus: 16,
            tasklets: 16,
            cache_elems: 64,
            use_cache: true,
            unroll: false,
            host_threads: 8,
            parallel_transfer: true,
        };
        assert_eq!(c.num_dpus(), 8 * 4 * 16);
        assert!(c.uses_rfactor());
    }
}
