//! Pluggable schedule-space generators: how sketch [`Trace`]s are emitted,
//! sampled, mutated and re-materialized.
//!
//! A [`SpaceGenerator`] owns one *sketch family*: given a workload and a
//! machine it emits traces whose `Sample*` instructions are the free
//! decision sites the evolutionary search explores.  The default
//! [`UpmemSketchGenerator`] reproduces ATiM's joint host/kernel sketch
//! (Fig. 6) — the exact schedules the pre-trace `ScheduleConfig::instantiate`
//! built, now recorded as replayable traces (an equivalence test pins this
//! for every paper workload).  Custom workload families plug in by
//! implementing the trait and handing it to
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
use atim_tir::compute::ComputeDef;
use atim_tir::error::{Result, TirError};
use atim_tir::schedule::{Attach, Binding, LoopInfo, LoopRef, Schedule};
use rand::rngs::StdRng;
use rand::Rng;

use crate::space::{mutate_knobs, sample_knobs, ScheduleConfig};
use crate::trace::{Decision, Instruction, Trace, UPMEM_SKETCH};

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
        let mut out = vec![trace_of_config(&base, def)];
        if self.supports_rfactor(def) {
            let rfactor = ScheduleConfig {
                reduce_dpus: 2,
                ..base
            };
            out.push(trace_of_config(&rfactor, def));
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
        trace_of_config(&cfg, def)
    }

    fn mutate(&self, rng: &mut StdRng, def: &ComputeDef, hw: &UpmemConfig, base: &Trace) -> Trace {
        let parent = match knobs_of(base) {
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
        trace_of_config(&child, def)
    }

    fn materialize(&self, trace: &Trace, def: &ComputeDef, _hw: &UpmemConfig) -> Result<Trace> {
        materialize_upmem(trace, def)
    }
}

/// Extracts the UPMEM knob vector from a trace's decisions (the raw,
/// unclamped values, exactly as sampled).  `None` when the trace lacks the
/// UPMEM decision sites (a custom-generator trace).
pub fn knobs_of(trace: &Trace) -> Option<ScheduleConfig> {
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

/// The decisions-only UPMEM trace of a knob vector — the context-free
/// `ScheduleConfig → Trace` shim v1 tuning logs load through.
pub fn decision_trace_of(config: &ScheduleConfig) -> Trace {
    let mut decisions: Vec<(String, Decision)> = Vec::with_capacity(config.spatial_dpus.len() + 7);
    for (j, &d) in config.spatial_dpus.iter().enumerate() {
        decisions.push((
            format!("{}{j}", site::SPATIAL_DPUS_PREFIX),
            Decision::Int(d),
        ));
    }
    decisions.push((site::REDUCE_DPUS.into(), Decision::Int(config.reduce_dpus)));
    decisions.push((site::TASKLETS.into(), Decision::Int(config.tasklets)));
    decisions.push((site::CACHE_ELEMS.into(), Decision::Int(config.cache_elems)));
    decisions.push((site::USE_CACHE.into(), Decision::Bool(config.use_cache)));
    decisions.push((site::UNROLL.into(), Decision::Bool(config.unroll)));
    decisions.push((
        site::HOST_THREADS.into(),
        Decision::Int(config.host_threads as i64),
    ));
    decisions.push((
        site::PARALLEL_TRANSFER.into(),
        Decision::Bool(config.parallel_transfer),
    ));
    Trace::from_decisions(UPMEM_SKETCH, decisions)
}

/// The fully materialized UPMEM trace of a knob vector.  When the sketch
/// cannot instantiate for `def` (impossible factors), the decisions-only
/// trace is returned instead — the verifier will reject it, exactly as it
/// rejected un-instantiable `ScheduleConfig`s.
pub fn trace_of_config(config: &ScheduleConfig, def: &ComputeDef) -> Trace {
    record_sketch(config, def).unwrap_or_else(|_| decision_trace_of(config))
}

/// Materializes a decisions-only UPMEM trace for a workload.
///
/// # Errors
/// Fails when the trace lacks the UPMEM decision sites or the sketch cannot
/// instantiate for `def`.
pub fn materialize_upmem(trace: &Trace, def: &ComputeDef) -> Result<Trace> {
    let knobs = knobs_of(trace).ok_or_else(|| {
        TirError::InvalidSchedule(
            "trace lacks the UPMEM sketch decision sites; it belongs to a custom generator".into(),
        )
    })?;
    record_sketch(&knobs, def)
}

/// A [`Schedule`] wrapper that mirrors every applied primitive as a trace
/// [`Instruction`], mapping [`LoopRef`]s to virtual registers.  Shared by
/// [`record_sketch`] and the rule engine in [`crate::sketch`].
pub(crate) struct SketchRecorder {
    pub(crate) sch: Schedule,
    pub(crate) insts: Vec<Instruction>,
    pub(crate) regs: usize,
    reg_of: HashMap<LoopRef, usize>,
}

impl SketchRecorder {
    pub(crate) fn new(def: &ComputeDef) -> Self {
        SketchRecorder {
            sch: Schedule::new(def.clone()),
            insts: Vec::new(),
            regs: 0,
            reg_of: HashMap::new(),
        }
    }

    pub(crate) fn alloc(&mut self, l: LoopRef) -> usize {
        let r = self.regs;
        self.regs += 1;
        self.reg_of.insert(l, r);
        r
    }

    pub(crate) fn reg(&self, l: LoopRef) -> Result<usize> {
        self.reg_of.get(&l).copied().ok_or_else(|| {
            TirError::InvalidSchedule("sketch recorder referenced an untracked loop".into())
        })
    }

    pub(crate) fn get_loop(&mut self, axis: usize) -> Result<LoopRef> {
        let l = self
            .sch
            .loops_of_axis(axis)
            .first()
            .copied()
            .ok_or_else(|| TirError::InvalidSchedule(format!("no loop iterates axis {axis}")))?;
        let dst = self.alloc(l);
        self.insts.push(Instruction::GetLoop { axis, dst });
        Ok(l)
    }

    pub(crate) fn split(&mut self, l: LoopRef, factor: i64) -> Result<(LoopRef, LoopRef)> {
        let lv = self.reg(l)?;
        let (o, i) = self.sch.split(l, factor)?;
        let outer = self.alloc(o);
        let inner = self.alloc(i);
        self.insts.push(Instruction::Split {
            lv,
            factor,
            outer,
            inner,
        });
        Ok((o, i))
    }

    pub(crate) fn bind(&mut self, l: LoopRef, binding: Binding) -> Result<()> {
        let lv = self.reg(l)?;
        self.sch.bind(l, binding)?;
        self.insts.push(Instruction::Bind { lv, binding });
        Ok(())
    }

    pub(crate) fn rfactor(&mut self, l: LoopRef) -> Result<()> {
        let lv = self.reg(l)?;
        self.sch.rfactor(l)?;
        self.insts.push(Instruction::Rfactor { lv });
        Ok(())
    }

    pub(crate) fn reorder(&mut self, order: &[LoopRef]) -> Result<()> {
        let regs: Vec<usize> = order
            .iter()
            .map(|&l| self.reg(l))
            .collect::<Result<Vec<_>>>()?;
        self.sch.reorder(order)?;
        self.insts.push(Instruction::Reorder { order: regs });
        Ok(())
    }

    pub(crate) fn cache_read(&mut self, input: usize, at: LoopRef) -> Result<()> {
        let reg = self.reg(at)?;
        self.sch.cache_read(input, Attach::At(at))?;
        self.insts.push(Instruction::CacheRead { input, at: reg });
        Ok(())
    }

    pub(crate) fn cache_write(&mut self, at: LoopRef) -> Result<()> {
        let reg = self.reg(at)?;
        self.sch.cache_write(Attach::At(at))?;
        self.insts.push(Instruction::CacheWrite { at: reg });
        Ok(())
    }

    pub(crate) fn unroll(&mut self, l: LoopRef) -> Result<()> {
        let lv = self.reg(l)?;
        self.sch.unroll(l)?;
        self.insts.push(Instruction::Unroll { lv });
        Ok(())
    }

    pub(crate) fn parallel_host(&mut self, threads: usize) {
        self.sch.parallel_host(threads);
        self.insts.push(Instruction::ParallelHost { threads });
    }

    pub(crate) fn set_parallel_transfer(&mut self, enabled: bool) {
        self.sch.set_parallel_transfer(enabled);
        self.insts.push(Instruction::ParallelTransfer { enabled });
    }

    pub(crate) fn loop_info(&self, l: LoopRef) -> Result<&LoopInfo> {
        self.sch.loop_info(l)
    }
}

pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Records ATiM's UPMEM sketch for one knob vector as a trace — a faithful
/// port of the original `ScheduleConfig::instantiate` (whose body is kept,
/// deprecated, as the reference implementation the equivalence tests pin
/// this against): DPU distribution, optional hierarchical reduction,
/// tasklet binding, WRAM caching and post-processing parallelism.
///
/// # Errors
/// Fails when a primitive application fails (e.g. impossible factors); such
/// decision vectors are discarded by the verifier, as before.
pub fn record_sketch(config: &ScheduleConfig, def: &ComputeDef) -> Result<Trace> {
    let mut rec = SketchRecorder::new(def);
    // The decision list leads the trace, in canonical site order.
    rec.insts = decision_trace_of(config).insts().to_vec();

    let spatial_axes = def.spatial_axes();
    let reduce_axes = def.reduce_axes();

    let mut grid_loops = Vec::new();
    let mut spatial_inner = Vec::new();

    // Host-to-DPU data distribution over the spatial axes.
    for (j, &axis) in spatial_axes.iter().enumerate() {
        let dpus = config
            .spatial_dpus
            .get(j)
            .copied()
            .unwrap_or(1)
            .clamp(1, def.axes[axis].extent);
        let l = rec.get_loop(axis)?;
        if dpus > 1 {
            let inner_extent = div_ceil(def.axes[axis].extent, dpus);
            let (dpu, inner) = rec.split(l, inner_extent)?;
            rec.bind(dpu, Binding::DpuX)?;
            grid_loops.push(dpu);
            spatial_inner.push((axis, inner));
        } else {
            spatial_inner.push((axis, l));
        }
    }

    // Reduction strategy: hierarchical reduction across DPUs.
    let mut reduce_inner = None;
    if let Some(&raxis) = reduce_axes.first() {
        let l = rec.get_loop(raxis)?;
        if config.reduce_dpus > 1 {
            let dpus = config.reduce_dpus.clamp(2, def.axes[raxis].extent);
            let inner_extent = div_ceil(def.axes[raxis].extent, dpus);
            let (r_dpu, r_in) = rec.split(l, inner_extent)?;
            rec.rfactor(r_dpu)?;
            rec.bind(r_dpu, Binding::DpuY)?;
            grid_loops.push(r_dpu);
            reduce_inner = Some((raxis, r_in));
        } else {
            reduce_inner = Some((raxis, l));
        }
    }

    // Multi-level tiling: tasklets over the spatial axis with the most
    // per-DPU work (falling back to the reduction axis for pure reductions).
    let mut tasklet_loop = None;
    if config.tasklets > 1 {
        let candidate = spatial_inner
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, l))| rec.loop_info(*l).map(|i| i.extent).unwrap_or(0));
        if let Some((slot, &(axis, l))) = candidate {
            let extent = rec.loop_info(l)?.extent;
            if extent > 1 {
                let per_tasklet = div_ceil(extent, config.tasklets.min(extent));
                let (t, rest) = rec.split(l, per_tasklet)?;
                rec.bind(t, Binding::Tasklet)?;
                tasklet_loop = Some(t);
                spatial_inner[slot] = (axis, rest);
            }
        } else if let Some((_, l)) = reduce_inner {
            let extent = rec.loop_info(l)?.extent;
            if extent > 1 {
                let per_tasklet = div_ceil(extent, config.tasklets.min(extent));
                let (t, rest) = rec.split(l, per_tasklet)?;
                rec.bind(t, Binding::Tasklet)?;
                tasklet_loop = Some(t);
                reduce_inner = Some((reduce_inner.expect("checked").0, rest));
            }
        }
    }

    // Intra-DPU caching: split the innermost data loop by the caching tile
    // size so the cache chunk loop exists, then attach the caching tiles
    // there.
    let cache_axis_loop = match reduce_inner {
        Some((_, l)) => Some(l),
        None => spatial_inner.last().map(|&(_, l)| l),
    };
    let mut cache_attach = None;
    let mut innermost = None;
    // When the cache split consumes a spatial inner loop, remember the
    // original reference so the reorder below does not mention it.
    let mut consumed = None;
    if let Some(l) = cache_axis_loop {
        let extent = rec.loop_info(l)?.extent;
        let tile = config.cache_elems.clamp(1, extent.max(1));
        if tile < extent {
            let (outer, inner) = rec.split(l, tile)?;
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
    rec.reorder(&order)?;

    // Caching directives.
    if config.use_cache {
        if let Some(attach) = cache_attach {
            for input in 0..def.inputs.len() {
                rec.cache_read(input, attach)?;
            }
            // The output accumulator must enclose every reduction loop, so
            // attach it at the innermost loop that is still outside the
            // reduction: the last spatial inner loop if one exists.
            if def.has_reduce() {
                if let Some(&(_, spatial_attach)) = spatial_inner.last() {
                    if rec.sch.loops().iter().any(|li| li.id == spatial_attach.0) {
                        rec.cache_write(spatial_attach)?;
                    }
                }
            } else {
                rec.cache_write(attach)?;
            }
        }
    }

    // Unrolling of the innermost loop.
    if config.unroll {
        if let Some(inner) = innermost {
            if cache_attach != Some(inner) {
                rec.unroll(inner)?;
            }
        }
    }

    rec.parallel_host(config.host_threads);
    rec.set_parallel_transfer(config.parallel_transfer);
    Ok(Trace::new(UPMEM_SKETCH, rec.insts, rec.regs))
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
        let trace = decision_trace_of(&cfg);
        assert_eq!(knobs_of(&trace), Some(cfg));
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
                assert!(knobs_of(&trace).is_some());
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
