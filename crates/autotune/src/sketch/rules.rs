//! The rule engine: [`RuleSet::elaborate`] turns a [`ComputeDef`] plus a
//! decision source into a materialized sketch [`Trace`].
//!
//! Every rule records the decisions it consumes through the shared
//! [`Decider`], then applies its structural move through the
//! [`SketchRecorder`] — so traces replay through `Trace::apply`, the
//! verifier and the simulator without knowing which rule set built them.
//! All three resident spaces (`upmem`, `tiled`, `hw-native`) are rule lists
//! over the rules below; no schedule structure is written anywhere else.
//! Recorded decision values are never rewritten: invalid or oversized
//! values (from crossover mixes or hand-written logs) are clamped — or, in
//! divisor mode, snapped to the nearest even divisor — at the point of use
//! only, which keeps elaboration idempotent over its own output.

use std::borrow::Cow;

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_tir::error::{Result, TirError};
use atim_tir::schedule::{Binding, LoopRef};
use rand::rngs::StdRng;
use rand::Rng;

use crate::generator::site;
use crate::trace::{Instruction, Trace};

use super::recorder::SketchRecorder;
use super::{Decider, MutateDecider, ReplayDecider, SampleDecider};

/// One declarative structural move of a sketch space.
///
/// Rules are applied in rule-set order; the decision sites they declare
/// appear in the trace in the same order.  The site list of a rule is a
/// pure function of the workload and the rule's own configuration — never
/// of other decisions (see the module docs for why that matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchRule {
    /// Distribute every spatial axis over DPUs (`spatial_dpus.{j}` sites,
    /// bound to `DpuX`).
    BindSpatialDpus,
    /// Hierarchical reduction: split the first reduction axis across DPUs,
    /// `rfactor` the outer loop and bind it to `DpuY` (`reduce_dpus` site;
    /// 1 = single-level reduction).
    RfactorReduce {
        /// Declare the `reduce_dpus` site even for workloads without a
        /// reduction axis (the UPMEM knob vector has a fixed shape, shared
        /// with v1 tuning logs); the value is then never used.
        fixed_site: bool,
    },
    /// Split the widest per-DPU data loop over tasklets (`tasklets` site),
    /// falling back to the reduction loop for pure reductions.
    BindTasklets,
    /// Multi-level tile every per-DPU data loop: `levels` extra splits per
    /// spatial axis (`tile.{j}.{l}` sites) and per reduction chain
    /// (`rtile.{l}` sites), each with a sampled extent.
    MultiLevelTile {
        /// Tiling levels added below the DPU/tasklet splits.
        levels: usize,
    },
    /// The UPMEM sketch's WRAM tile (`cache_elems` and `use_cache` sites):
    /// split the deepest reduction loop — the last spatial loop of a
    /// non-reducing workload — by the tile size, stage every input at the
    /// resulting chunk loop and accumulate the output outside the reduction.
    CacheTile,
    /// Per-input WRAM staging with a *sampled placement* (`cache.{i}`
    /// sites): 0 = stream from MRAM, 1 = attach at the deepest unbound
    /// loop, 2 = one level further out (bigger tile, fewer refills).
    CacheReads,
    /// WRAM output accumulator (`cache_write` site), attached outside every
    /// reduction loop.
    CacheWrite,
    /// Unroll the innermost loop (`unroll` site).
    Unroll,
    /// Host-side post-processing parallelism (`host_threads` and
    /// `parallel_transfer` sites).
    HostPostprocess,
}

/// An ordered rule list plus the space-wide policies that make a sketch
/// family: the trace tag it emits, and the hardware-native toggles.
#[derive(Debug, Clone)]
pub struct RuleSet {
    /// Sketch tag (and generator id) the elaborated traces carry.
    pub tag: &'static str,
    /// The rules, applied in order.
    pub rules: Vec<SketchRule>,
    /// Snap every sampled extent to the largest divisor of the loop being
    /// split: tiles always divide evenly (the Bolt-style native space).
    pub divisors_only: bool,
    /// Demote cache placements whose estimated per-DPU WRAM footprint
    /// exceeds the [`UpmemConfig`] budget instead of leaving them for the
    /// verifier to reject.
    pub wram_fit: bool,
}

impl RuleSet {
    /// Elaborates the rule set for one workload, pulling every free
    /// decision from `decider`.
    ///
    /// `hw` bounds the choice lists offered to the decider, the tasklet
    /// count and the `wram_fit` budget; `None` is an unbounded machine, which
    /// makes the structure a function of the decisions and `def` alone (how
    /// the `upmem` knob vectors elaborate).
    ///
    /// # Errors
    /// Fails when a schedule primitive cannot apply (degenerate compute
    /// definitions); decision values themselves cannot fail — they are
    /// clamped at their use sites.
    pub fn elaborate(
        &self,
        def: &ComputeDef,
        hw: Option<&UpmemConfig>,
        decider: &mut dyn Decider,
    ) -> Result<Trace> {
        let mut e = Elab::new(def, decider, self.divisors_only);
        for rule in &self.rules {
            match *rule {
                SketchRule::BindSpatialDpus => e.bind_spatial_dpus(def, hw)?,
                SketchRule::RfactorReduce { fixed_site } => e.rfactor_reduce(def, fixed_site)?,
                SketchRule::BindTasklets => e.bind_tasklets(hw)?,
                SketchRule::MultiLevelTile { levels } => e.multi_level_tile(levels)?,
                SketchRule::CacheTile => e.cache_tile(def)?,
                SketchRule::CacheReads => e.cache_reads(def, hw, self.wram_fit)?,
                SketchRule::CacheWrite => e.cache_write(def)?,
                SketchRule::Unroll => e.unroll()?,
                SketchRule::HostPostprocess => e.host_postprocess()?,
            }
        }
        Ok(e.finish(self.tag))
    }

    /// A random trace of this space (the `SpaceGenerator::sample` of every
    /// rule-built generator): each site drawn from its sampling
    /// distribution, the `rfactor` subspace forced by `with_rfactor`.
    pub fn sample(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        with_rfactor: bool,
    ) -> Trace {
        let mut d = SampleDecider::new(rng, Some(with_rfactor));
        self.elaborate(def, Some(hw), &mut d)
            .unwrap_or_else(|_| Trace::new(self.tag, Vec::new(), 0))
    }

    /// `base` with one uniformly chosen decision site re-drawn (the
    /// `SpaceGenerator::mutate` of every rule-built generator).
    pub fn mutate(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        base: &Trace,
    ) -> Trace {
        let sites = base.decisions().count();
        if base.sketch() != self.tag || sites == 0 {
            // Foreign (or empty) traces restart from a fresh sample in the
            // matching design subspace.
            return self.sample(rng, def, hw, base.uses_rfactor());
        }
        let target = rng.gen_range(0..sites);
        let mut d = MutateDecider::new(rng, base, target);
        self.elaborate(def, Some(hw), &mut d)
            .unwrap_or_else(|_| base.clone())
    }

    /// Re-elaborates a trace of this space from its own decisions (the
    /// `SpaceGenerator::materialize` of every rule-built generator).
    ///
    /// # Errors
    /// Rejects traces tagged with another sketch family, and propagates
    /// elaboration errors.
    pub fn materialize(&self, trace: &Trace, def: &ComputeDef, hw: &UpmemConfig) -> Result<Trace> {
        if trace.sketch() != self.tag {
            return Err(TirError::InvalidSchedule(format!(
                "trace carries sketch {:?}; the {:?} generator cannot materialize it",
                trace.sketch(),
                self.tag
            )));
        }
        self.elaborate(def, Some(hw), &mut ReplayDecider::new(trace))
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Powers of two `1, 2, 4, ... <= cap` (always contains 1).
fn pow2_up_to(cap: i64) -> &'static [i64] {
    static POW2: [i64; 63] = {
        let mut table = [1i64; 63];
        let mut i = 1;
        while i < table.len() {
            table[i] = table[i - 1] * 2;
            i += 1;
        }
        table
    };
    &POW2[..=cap.max(1).ilog2() as usize]
}

/// Powers of two up to `cap` that divide `extent` evenly.
fn even_pow2(extent: i64, cap: i64) -> Vec<i64> {
    pow2_up_to(cap)
        .iter()
        .copied()
        .filter(|&c| c == 1 || (extent > 0 && extent % c == 0))
        .collect()
}

/// The largest divisor of `extent` that is `<= wanted` (>= 1).
pub(crate) fn snap_divisor(extent: i64, wanted: i64) -> i64 {
    let w = wanted.clamp(1, extent.max(1));
    (1..=w).rev().find(|d| extent % d == 0).unwrap_or(1)
}

/// Elaboration state: the recorder plus the loop roles the rules hand each
/// other (grid prefix, tasklet loop, per-axis tile chains and currents).
struct Elab<'d> {
    rec: SketchRecorder,
    decider: &'d mut dyn Decider,
    decisions: Vec<Instruction>,
    /// The rule set's divisor mode (see [`RuleSet::divisors_only`]).
    divisors_only: bool,
    /// DPU-bound loops, in outermost order.
    grid: Vec<LoopRef>,
    /// The tasklet-bound loop, if any.
    tasklet: Option<LoopRef>,
    /// Per spatial axis: tile-split outer loops, outermost first.
    chains: Vec<Vec<LoopRef>>,
    /// Per spatial axis: the current (deepest) data loop.
    cur: Vec<LoopRef>,
    /// Reduction tile-split outer loops.
    rchain: Vec<LoopRef>,
    /// The current (deepest) reduction loop.
    rcur: Option<LoopRef>,
    /// The innermost loop of a non-reducing workload's cache tile: nests
    /// after every other loop, where a reduction chain would be.
    tail: Option<LoopRef>,
    /// The clamped tasklet count (WRAM footprint estimation).
    tasklets_val: i64,
    /// Final nesting order, set by the first post-tiling rule.
    order: Option<Vec<LoopRef>>,
    /// Loops hosting a cache directive (excluded from unrolling).
    attach_used: Vec<LoopRef>,
}

impl<'d> Elab<'d> {
    fn new(def: &ComputeDef, decider: &'d mut dyn Decider, divisors_only: bool) -> Self {
        Elab {
            rec: SketchRecorder::new(def),
            decider,
            decisions: Vec::new(),
            divisors_only,
            grid: Vec::new(),
            tasklet: None,
            chains: Vec::new(),
            cur: Vec::new(),
            rchain: Vec::new(),
            rcur: None,
            tail: None,
            tasklets_val: 1,
            order: None,
            attach_used: Vec::new(),
        }
    }

    fn decide_int(&mut self, site: String, choices: &[i64], default: i64) -> i64 {
        let value = self.decider.int(&site, choices, default);
        self.decisions.push(Instruction::SampleInt { site, value });
        value
    }

    fn decide_flag(&mut self, site: String, default: bool, p_true: f64) -> bool {
        let value = self.decider.flag(&site, default, p_true);
        self.decisions.push(Instruction::SampleBool { site, value });
        value
    }

    /// The power-of-two counts `<= cap` offered for distributing `extent`
    /// (in divisor mode, only those dividing it evenly).
    fn pow2_choices(&self, extent: i64, cap: i64) -> Cow<'static, [i64]> {
        if self.divisors_only {
            Cow::Owned(even_pow2(extent, cap))
        } else {
            Cow::Borrowed(pow2_up_to(cap))
        }
    }

    /// A recorded value brought into `1..=extent` at its use site (in
    /// divisor mode, down to the largest divisor of `extent` below it).
    fn fit(&self, extent: i64, v: i64) -> i64 {
        if self.divisors_only {
            snap_divisor(extent, v)
        } else {
            v.clamp(1, extent.max(1))
        }
    }

    fn bind_spatial_dpus(&mut self, def: &ComputeDef, hw: Option<&UpmemConfig>) -> Result<()> {
        let total = hw.map_or(i64::MAX, |h| h.total_dpus() as i64);
        for (j, &axis) in def.spatial_axes().iter().enumerate() {
            let extent = def.axes[axis].extent;
            let choices = self.pow2_choices(extent, extent.min(total));
            // Default sketch: spread the first axis over up to 256 DPUs.
            let default = if j == 0 {
                choices
                    .iter()
                    .copied()
                    .filter(|&c| c <= 256)
                    .max()
                    .unwrap_or(1)
            } else {
                1
            };
            let v = self.decide_int(
                format!("{}{j}", site::SPATIAL_DPUS_PREFIX),
                &choices,
                default,
            );
            let l = self.rec.get_loop(axis)?;
            let dpus = self.fit(extent, v);
            self.chains.push(Vec::new());
            if dpus > 1 {
                let (dpu, inner) = self.rec.split(l, div_ceil(extent, dpus))?;
                self.rec.bind(dpu, Binding::DpuX)?;
                self.grid.push(dpu);
                self.cur.push(inner);
            } else {
                self.cur.push(l);
            }
        }
        Ok(())
    }

    fn rfactor_reduce(&mut self, def: &ComputeDef, fixed_site: bool) -> Result<()> {
        let Some(&raxis) = def.reduce_axes().first() else {
            if fixed_site {
                self.decide_int(site::REDUCE_DPUS.into(), &[1], 1);
            }
            return Ok(());
        };
        let extent = def.axes[raxis].extent;
        let choices = self.pow2_choices(extent, 64.min(extent));
        let v = self.decide_int(site::REDUCE_DPUS.into(), &choices, 1);
        let l = self.rec.get_loop(raxis)?;
        let dpus = self.fit(extent, v);
        if dpus > 1 {
            let (r_dpu, r_in) = self.rec.split(l, div_ceil(extent, dpus))?;
            self.rec.rfactor(r_dpu)?;
            self.rec.bind(r_dpu, Binding::DpuY)?;
            self.grid.push(r_dpu);
            self.rcur = Some(r_in);
        } else {
            self.rcur = Some(l);
        }
        Ok(())
    }

    fn bind_tasklets(&mut self, hw: Option<&UpmemConfig>) -> Result<()> {
        let maxt = hw.map_or(i64::MAX, |h| h.max_tasklets as i64);
        const CHOICES: [i64; 8] = [1, 2, 4, 8, 12, 16, 20, 24];
        let choices = &CHOICES[..CHOICES.partition_point(|&t| t <= maxt)];
        let v = self.decide_int(site::TASKLETS.into(), choices, 16.min(maxt));
        self.tasklets_val = v.clamp(1, maxt);
        if self.tasklets_val <= 1 {
            return Ok(());
        }
        // Widest per-DPU spatial loop; pure reductions use the reduce loop.
        let slot = (0..self.cur.len()).max_by_key(|&j| {
            self.rec
                .loop_info(self.cur[j])
                .map(|i| i.extent)
                .unwrap_or(0)
        });
        let Some(l) = slot.map(|j| self.cur[j]).or(self.rcur) else {
            return Ok(());
        };
        let extent = self.rec.loop_info(l)?.extent;
        let t = self.fit(extent, self.tasklets_val);
        if t <= 1 {
            return Ok(());
        }
        let (tl, rest) = self.rec.split(l, div_ceil(extent, t))?;
        self.rec.bind(tl, Binding::Tasklet)?;
        self.tasklet = Some(tl);
        match slot {
            Some(j) => self.cur[j] = rest,
            None => self.rcur = Some(rest),
        }
        Ok(())
    }

    /// One tiling level of the loop `l`: the `(outer, inner)` split by the
    /// decided extent, `None` when that extent leaves the loop whole.
    fn tile_level(
        &mut self,
        site: String,
        lvl: usize,
        l: LoopRef,
    ) -> Result<Option<(LoopRef, LoopRef)>> {
        const TILE_CHOICES: [i64; 7] = [1, 2, 4, 8, 16, 32, 64];
        // Default sketch: one level of 8-wide tiles, rest untiled.
        let v = self.decide_int(site, &TILE_CHOICES, if lvl == 0 { 8 } else { 1 });
        let extent = self.rec.loop_info(l)?.extent;
        let t = self.fit(extent, v);
        if t > 1 && t < extent {
            Ok(Some(self.rec.split(l, t)?))
        } else {
            Ok(None)
        }
    }

    fn multi_level_tile(&mut self, levels: usize) -> Result<()> {
        for j in 0..self.cur.len() {
            for lvl in 0..levels {
                let tiled = self.tile_level(format!("tile.{j}.{lvl}"), lvl, self.cur[j])?;
                if let Some((outer, inner)) = tiled {
                    self.chains[j].push(outer);
                    self.cur[j] = inner;
                }
            }
        }
        for lvl in 0..levels {
            let Some(l) = self.rcur else { break };
            if let Some((outer, inner)) = self.tile_level(format!("rtile.{lvl}"), lvl, l)? {
                self.rchain.push(outer);
                self.rcur = Some(inner);
            }
        }
        Ok(())
    }

    /// Applies the canonical nesting once: grid prefix, tasklet loop, tile
    /// chains, spatial currents, then the full reduction chain innermost
    /// (which is what lets the accumulator attach outside every reduction
    /// loop).
    fn ensure_reordered(&mut self) -> Result<()> {
        if self.order.is_some() {
            return Ok(());
        }
        let mut order = self.grid.clone();
        order.extend(self.tasklet);
        for chain in &self.chains {
            order.extend(chain.iter().copied());
        }
        order.extend(self.cur.iter().copied());
        order.extend(self.rchain.iter().copied());
        order.extend(self.rcur);
        order.extend(self.tail);
        self.rec.reorder(&order)?;
        self.order = Some(order);
        Ok(())
    }

    fn cache_tile(&mut self, def: &ComputeDef) -> Result<()> {
        const TILE_CHOICES: [i64; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
        let v = self.decide_int(site::CACHE_ELEMS.into(), &TILE_CHOICES, 64);
        let staged = self.decide_flag(site::USE_CACHE.into(), true, 0.9);
        // The data loop the tile chunks: the deepest reduction loop, else
        // the last spatial loop.
        let Some(l) = self.rcur.or(self.cur.last().copied()) else {
            return self.ensure_reordered();
        };
        let extent = self.rec.loop_info(l)?.extent;
        let tile = v.clamp(1, extent.max(1));
        let mut chunk = l;
        if tile < extent {
            let (outer, inner) = self.rec.split(l, tile)?;
            chunk = outer;
            if self.rcur.is_some() {
                self.rchain.push(outer);
                self.rcur = Some(inner);
            } else {
                *self
                    .cur
                    .last_mut()
                    .expect("chunked loop is the last current") = outer;
                self.tail = Some(inner);
            }
        }
        self.ensure_reordered()?;
        // The chunk loop is never unrolled, staged or not: only the inner
        // loop of an actual tile split is.
        self.attach_used.push(chunk);
        if !staged {
            return Ok(());
        }
        for input in 0..def.inputs.len() {
            self.rec.cache_read(input, chunk)?;
        }
        // The accumulator must enclose every reduction loop: the deepest
        // spatial loop when reducing (none for a pure reduction), else the
        // chunk loop itself.
        let accumulate_at = if def.has_reduce() {
            self.cur.last().copied()
        } else {
            Some(chunk)
        };
        if let Some(at) = accumulate_at {
            self.rec.cache_write(at)?;
        }
        Ok(())
    }

    /// Unbound attach candidates, deepest-but-one first (placement 1), then
    /// one level further out (placement 2).
    fn attach_candidates(&self) -> Result<Vec<(usize, LoopRef)>> {
        let order = self.order.as_ref().expect("reordered before caching");
        let mut cands = Vec::new();
        for idx in (0..order.len().saturating_sub(1)).rev() {
            let l = order[idx];
            if self.rec.loop_info(l)?.binding == Binding::None {
                cands.push((idx, l));
            }
            if cands.len() == 2 {
                break;
            }
        }
        Ok(cands)
    }

    /// Elements iterated inside position `idx` of the final order — the
    /// (conservative) per-tasklet staging footprint of an attach there.
    fn elems_inside(&self, idx: usize) -> Result<i64> {
        let order = self.order.as_ref().expect("reordered before caching");
        let mut elems = 1i64;
        for &l in &order[idx + 1..] {
            elems = elems.saturating_mul(self.rec.loop_info(l)?.extent.max(1));
        }
        Ok(elems)
    }

    fn cache_reads(
        &mut self,
        def: &ComputeDef,
        hw: Option<&UpmemConfig>,
        wram_fit: bool,
    ) -> Result<()> {
        self.ensure_reordered()?;
        let cands = self.attach_candidates()?;
        // Half the WRAM is the staging budget; the rest is stack + output
        // accumulators.  Split evenly across the inputs that could stage.
        let wram = hw.map_or(i64::MAX, |h| h.wram_bytes as i64);
        let budget = (wram / 2) / (def.inputs.len().max(1) as i64);
        for (i, input) in def.inputs.iter().enumerate() {
            let v = self.decide_int(format!("cache.{i}"), &[0, 1, 2], 1);
            let mut placement = v.clamp(0, 2) as usize;
            if wram_fit {
                let bytes_per_elem = input.dtype.bytes() as i64;
                while placement > 0 {
                    let Some(&(idx, _)) = cands.get(placement - 1) else {
                        placement -= 1;
                        continue;
                    };
                    let bytes = self
                        .elems_inside(idx)?
                        .saturating_mul(bytes_per_elem)
                        .saturating_mul(self.tasklets_val);
                    if bytes <= budget {
                        break;
                    }
                    placement -= 1;
                }
            }
            if placement == 0 {
                continue;
            }
            // Placement 2 falls back to the deeper candidate when only one
            // unbound loop exists.
            let Some(&(_, at)) = cands.get(placement - 1).or_else(|| cands.first()) else {
                continue;
            };
            self.rec.cache_read(i, at)?;
            if !self.attach_used.contains(&at) {
                self.attach_used.push(at);
            }
        }
        Ok(())
    }

    fn cache_write(&mut self, def: &ComputeDef) -> Result<()> {
        self.ensure_reordered()?;
        let v = self.decide_flag("cache_write".into(), true, 0.7);
        // Accumulate in WRAM only when something is staged at all —
        // mirroring the UPMEM sketch's `use_cache` coupling.
        if !v || self.attach_used.is_empty() {
            return Ok(());
        }
        let attach = if def.has_reduce() {
            // Outside every reduction loop: the deepest spatial current.
            self.cur.last().copied()
        } else {
            let order = self.order.as_ref().expect("reordered above");
            (order.len() >= 2).then(|| order[order.len() - 2])
        };
        let Some(l) = attach else {
            return Ok(());
        };
        if self.rec.loop_info(l)?.binding != Binding::None {
            return Ok(());
        }
        self.rec.cache_write(l)?;
        if !self.attach_used.contains(&l) {
            self.attach_used.push(l);
        }
        Ok(())
    }

    fn unroll(&mut self) -> Result<()> {
        self.ensure_reordered()?;
        let v = self.decide_flag(site::UNROLL.into(), false, 0.5);
        if !v {
            return Ok(());
        }
        let Some(&inner) = self.order.as_ref().expect("reordered above").last() else {
            return Ok(());
        };
        if self.attach_used.contains(&inner) || self.rec.loop_info(inner)?.binding != Binding::None
        {
            return Ok(());
        }
        self.rec.unroll(inner)
    }

    fn host_postprocess(&mut self) -> Result<()> {
        const THREAD_CHOICES: [i64; 6] = [1, 2, 4, 8, 16, 32];
        let v = self.decide_int(site::HOST_THREADS.into(), &THREAD_CHOICES, 8);
        self.rec.parallel_host(v.clamp(1, 1 << 16) as usize);
        let pt = self.decide_flag(site::PARALLEL_TRANSFER.into(), true, 0.9);
        self.rec.set_parallel_transfer(pt);
        Ok(())
    }

    /// The finished trace: the decision list leads, structure follows.
    fn finish(self, tag: &str) -> Trace {
        let mut insts = Vec::with_capacity(self.decisions.len() + self.rec.insts.len());
        insts.extend(self.decisions);
        insts.extend(self.rec.insts);
        Trace::new(tag, insts, self.rec.regs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_tables() {
        assert_eq!(pow2_up_to(1), vec![1]);
        assert_eq!(pow2_up_to(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(pow2_up_to(20), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn even_pow2_filters_non_divisors() {
        assert_eq!(even_pow2(24, 24), vec![1, 2, 4, 8]);
        assert_eq!(even_pow2(7, 7), vec![1]);
        assert_eq!(even_pow2(64, 16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn snap_divisor_finds_the_largest_even_split() {
        assert_eq!(snap_divisor(24, 10), 8);
        assert_eq!(snap_divisor(24, 24), 24);
        assert_eq!(snap_divisor(7, 6), 1);
        assert_eq!(snap_divisor(1, 64), 1);
        assert_eq!(snap_divisor(100, 30), 25);
    }
}
