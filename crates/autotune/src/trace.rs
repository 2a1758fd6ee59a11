//! Schedule traces: the trace-based search space of TVM MetaSchedule,
//! extended with ATiM's UPMEM-aware primitives (§5.2).
//!
//! A [`Trace`] is an ordered, replayable list of [`Instruction`]s.  Two kinds
//! of instruction appear:
//!
//! * **`Sample*` instructions** carry a [`Decision`] recorded at a named
//!   sampling site (`"tasklets"`, `"spatial_dpus.0"`, ...).  They are the
//!   *free variables* of a sketch: the evolutionary search mutates and
//!   crosses over these decisions, the JSON log codec persists them, and
//!   trace identity (`Eq`/`Hash`) is defined over them.
//! * **Structural instructions** mirror the schedule primitives of the
//!   paper's Table 2 (`Split`/`Bind`/`Rfactor`/`Reorder`/`CacheRead`/
//!   `CacheWrite`/`Unroll`/host parallelism/transfer mode).  Replaying them
//!   onto a fresh [`Schedule`] with [`Trace::apply`] deterministically
//!   reconstructs the candidate.  Loops are named by *virtual registers*
//!   (plain indices): `GetLoop` and `Split` define registers, later
//!   instructions consume them, so a trace is self-contained and
//!   workload-portable in a way raw [`LoopRef`]s are not.
//!
//! The structural part is a deterministic function of the decisions (a
//! [`crate::generator::SpaceGenerator`] materializes it), which is why
//! identity ignores it: a decisions-only trace — e.g. decoded from a v2
//! [`crate::log::TuneLog`], or shimmed from a v1 `ScheduleConfig` — compares
//! and hashes equal to its fully materialized twin.  [`Trace::apply`]
//! re-materializes decisions-only traces of the default UPMEM sketch on the
//! fly; traces from custom generators must be re-materialized by their
//! generator first.

use std::fmt;
use std::hash::{Hash, Hasher};

use atim_tir::compute::ComputeDef;
use atim_tir::error::{Result, TirError};
use atim_tir::schedule::{Attach, Binding, LoopRef, Schedule};

/// The sketch tag of traces produced by
/// [`crate::generator::UpmemSketchGenerator`].
pub const UPMEM_SKETCH: &str = "upmem";

/// One recorded sampling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// An integer decision (split factors, DPU/tasklet counts, tile sizes).
    Int(i64),
    /// A boolean decision (caching on/off, unrolling, transfer mode).
    Bool(bool),
}

impl Decision {
    /// The decision as an `i64`, if it is an integer.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Decision::Int(v) => Some(v),
            Decision::Bool(_) => None,
        }
    }

    /// The decision as a `bool`, if it is a boolean.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Decision::Bool(v) => Some(v),
            Decision::Int(_) => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Int(v) => write!(f, "{v}"),
            Decision::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One instruction of a [`Trace`].
///
/// Loop-valued operands (`lv`, `outer`, `inner`, `at`, `order`) are virtual
/// registers: indices into the trace's register file, defined by `GetLoop`
/// and `Split` and resolved to concrete [`LoopRef`]s during
/// [`Trace::apply`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Records an integer decision at a sampling site.
    SampleInt {
        /// Site name (stable within a sketch family).
        site: String,
        /// The recorded decision.
        value: i64,
    },
    /// Records a boolean decision at a sampling site.
    SampleBool {
        /// Site name (stable within a sketch family).
        site: String,
        /// The recorded decision.
        value: bool,
    },
    /// Loads the first loop iterating `axis` into register `dst`.
    GetLoop {
        /// Axis index in the [`ComputeDef`].
        axis: usize,
        /// Destination register.
        dst: usize,
    },
    /// Splits the loop in `lv` by `factor` into `(outer, inner)` registers.
    Split {
        /// Register of the loop being split (consumed).
        lv: usize,
        /// Inner extent of the split.
        factor: i64,
        /// Register receiving the outer loop.
        outer: usize,
        /// Register receiving the inner loop.
        inner: usize,
    },
    /// Binds the loop in `lv` to a hardware resource.
    Bind {
        /// Register of the loop.
        lv: usize,
        /// DPU grid / tasklet / unroll binding.
        binding: Binding,
    },
    /// Declares hierarchical reduction on the loop in `lv`.
    Rfactor {
        /// Register of the reduction loop.
        lv: usize,
    },
    /// Reorders the listed loops into the given relative order.
    Reorder {
        /// Registers of the loops, outermost first.
        order: Vec<usize>,
    },
    /// Stages input `input` into WRAM at the loop in `at`.
    CacheRead {
        /// Input tensor index.
        input: usize,
        /// Register of the attach loop.
        at: usize,
    },
    /// Accumulates the output in WRAM, written back at the loop in `at`.
    CacheWrite {
        /// Register of the attach loop.
        at: usize,
    },
    /// Marks the loop in `lv` for unrolling.
    Unroll {
        /// Register of the loop.
        lv: usize,
    },
    /// Sets the host post-processing thread count.
    ParallelHost {
        /// Host threads.
        threads: usize,
    },
    /// Selects rank-parallel host transfers (Fig. 7(d)).
    ParallelTransfer {
        /// Whether the rank-parallel push path is used.
        enabled: bool,
    },
}

impl Instruction {
    /// Whether this is a `Sample*` instruction (a decision site).
    pub fn is_sample(&self) -> bool {
        matches!(
            self,
            Instruction::SampleInt { .. } | Instruction::SampleBool { .. }
        )
    }

    /// The `(site, decision)` pair of a `Sample*` instruction.
    pub fn decision(&self) -> Option<(&str, Decision)> {
        match self {
            Instruction::SampleInt { site, value } => Some((site, Decision::Int(*value))),
            Instruction::SampleBool { site, value } => Some((site, Decision::Bool(*value))),
            _ => None,
        }
    }
}

/// An ordered, hashable, replayable schedule trace (sampling decisions plus
/// the structural primitives derived from them).
///
/// Identity (`Eq`/`Hash`) covers the sketch tag and the decision list only —
/// see the module docs for why.  This is what lets the candidate database,
/// the dedup set and the (log-seedable) measurement memo
/// [`crate::tuner::MemoMeasurer`] key on traces whether or not a given
/// instance happens to carry its structural instructions.
#[derive(Debug, Clone)]
pub struct Trace {
    sketch: String,
    insts: Vec<Instruction>,
    regs: usize,
}

impl Trace {
    /// Builds a trace from instructions.  `regs` is the number of virtual
    /// loop registers the structural instructions reference.
    pub fn new(sketch: impl Into<String>, insts: Vec<Instruction>, regs: usize) -> Self {
        Trace {
            sketch: sketch.into(),
            insts,
            regs,
        }
    }

    /// Builds a decisions-only (unmaterialized) trace from `(site,
    /// decision)` pairs — the form a JSON log decodes to.
    pub fn from_decisions<S: Into<String>>(
        sketch: impl Into<String>,
        decisions: impl IntoIterator<Item = (S, Decision)>,
    ) -> Self {
        let insts = decisions
            .into_iter()
            .map(|(site, decision)| {
                let site = site.into();
                match decision {
                    Decision::Int(value) => Instruction::SampleInt { site, value },
                    Decision::Bool(value) => Instruction::SampleBool { site, value },
                }
            })
            .collect();
        Trace {
            sketch: sketch.into(),
            insts,
            regs: 0,
        }
    }

    /// The sketch family tag (part of trace identity).
    pub fn sketch(&self) -> &str {
        &self.sketch
    }

    /// The instructions, in application order.
    pub fn insts(&self) -> &[Instruction] {
        &self.insts
    }

    /// Number of virtual loop registers the trace references.
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// The decision list, in trace order.
    pub fn decisions(&self) -> impl Iterator<Item = (&str, Decision)> {
        self.insts.iter().filter_map(Instruction::decision)
    }

    /// The integer decision at `site`, if present.
    pub fn int_decision(&self, site: &str) -> Option<i64> {
        self.decisions()
            .find(|(s, _)| *s == site)
            .and_then(|(_, d)| d.as_int())
    }

    /// The boolean decision at `site`, if present.
    pub fn bool_decision(&self, site: &str) -> Option<bool> {
        self.decisions()
            .find(|(s, _)| *s == site)
            .and_then(|(_, d)| d.as_bool())
    }

    /// Returns this trace with the decision at `site` replaced.  The
    /// structural instructions are dropped (they were derived from the old
    /// decisions); re-materialize through the space generator before
    /// applying.
    pub fn with_decision(&self, site: &str, decision: Decision) -> Trace {
        let decisions: Vec<(String, Decision)> = self
            .decisions()
            .map(|(s, d)| {
                if s == site {
                    (s.to_string(), decision)
                } else {
                    (s.to_string(), d)
                }
            })
            .collect();
        Trace::from_decisions(self.sketch.clone(), decisions)
    }

    /// Whether the trace carries structural instructions (i.e. can be
    /// applied directly, without re-materialization).
    pub fn is_materialized(&self) -> bool {
        self.insts.iter().any(|i| !i.is_sample())
    }

    /// Whether the trace uses hierarchical (rfactor) reduction — the
    /// decision §5.2.3's balanced sampler keys on.
    pub fn uses_rfactor(&self) -> bool {
        match self.int_decision(crate::generator::site::REDUCE_DPUS) {
            Some(v) => v > 1,
            None => self
                .insts
                .iter()
                .any(|i| matches!(i, Instruction::Rfactor { .. })),
        }
    }

    /// Total DPUs requested by the trace's raw decisions (matching the old
    /// `ScheduleConfig::num_dpus`: the *unclamped* product, which is what
    /// the verifier pre-checks against the machine's DPU count).  Traces
    /// without the UPMEM decision sites fall back to the product of
    /// DPU-bound structural split counts, or 1.
    pub fn num_dpus(&self) -> i64 {
        let spatial: i64 = self
            .decisions()
            .filter(|(s, _)| s.starts_with(crate::generator::site::SPATIAL_DPUS_PREFIX))
            .filter_map(|(_, d)| d.as_int())
            .product();
        let reduce = self
            .int_decision(crate::generator::site::REDUCE_DPUS)
            .unwrap_or(1);
        spatial.max(1) * reduce.max(1)
    }

    /// The `tasklets` decision (1 when absent).
    pub fn tasklets(&self) -> i64 {
        self.int_decision(crate::generator::site::TASKLETS)
            .unwrap_or(1)
    }

    /// The `cache_elems` decision (1 when absent).
    pub fn cache_elems(&self) -> i64 {
        self.int_decision(crate::generator::site::CACHE_ELEMS)
            .unwrap_or(1)
    }

    /// The `use_cache` decision (false when absent).
    pub fn use_cache(&self) -> bool {
        self.bool_decision(crate::generator::site::USE_CACHE)
            .unwrap_or(false)
    }

    /// Applies the trace onto a fresh [`Schedule`] for `def`, replaying
    /// every structural primitive with its recorded decisions.
    ///
    /// A decisions-only trace of the default UPMEM sketch is materialized on
    /// the fly; decisions-only traces of custom sketches must be
    /// re-materialized by their [`crate::generator::SpaceGenerator`] first.
    ///
    /// # Errors
    /// Propagates schedule-primitive errors (impossible factors, unknown
    /// loops) and rejects unmaterialized traces of unknown sketches.
    pub fn apply(&self, def: &ComputeDef) -> Result<Schedule> {
        if !self.is_materialized() {
            if self.sketch == UPMEM_SKETCH {
                let full = crate::generator::materialize_upmem(self, def)?;
                return full.apply_materialized(def);
            }
            return Err(TirError::InvalidSchedule(format!(
                "trace of sketch \"{}\" carries no structural instructions; \
                 re-materialize it through its space generator",
                self.sketch
            )));
        }
        self.apply_materialized(def)
    }

    fn apply_materialized(&self, def: &ComputeDef) -> Result<Schedule> {
        let mut sch = Schedule::new(def.clone());
        let mut regs: Vec<Option<LoopRef>> = vec![None; self.regs];
        let get = |regs: &[Option<LoopRef>], r: usize| -> Result<LoopRef> {
            regs.get(r).copied().flatten().ok_or_else(|| {
                TirError::InvalidSchedule(format!("trace register {r} used before definition"))
            })
        };
        let set = |regs: &mut Vec<Option<LoopRef>>, r: usize, l: LoopRef| {
            if r >= regs.len() {
                regs.resize(r + 1, None);
            }
            regs[r] = Some(l);
        };
        for inst in &self.insts {
            match inst {
                Instruction::SampleInt { .. } | Instruction::SampleBool { .. } => {}
                Instruction::GetLoop { axis, dst } => {
                    let l = sch.loops_of_axis(*axis).first().copied().ok_or_else(|| {
                        TirError::InvalidSchedule(format!("no loop iterates axis {axis}"))
                    })?;
                    set(&mut regs, *dst, l);
                }
                Instruction::Split {
                    lv,
                    factor,
                    outer,
                    inner,
                } => {
                    let l = get(&regs, *lv)?;
                    let (o, i) = sch.split(l, *factor)?;
                    set(&mut regs, *outer, o);
                    set(&mut regs, *inner, i);
                }
                Instruction::Bind { lv, binding } => sch.bind(get(&regs, *lv)?, *binding)?,
                Instruction::Rfactor { lv } => sch.rfactor(get(&regs, *lv)?)?,
                Instruction::Reorder { order } => {
                    let loops: Vec<LoopRef> = order
                        .iter()
                        .map(|&r| get(&regs, r))
                        .collect::<Result<Vec<_>>>()?;
                    sch.reorder(&loops)?;
                }
                Instruction::CacheRead { input, at } => {
                    sch.cache_read(*input, Attach::At(get(&regs, *at)?))?
                }
                Instruction::CacheWrite { at } => sch.cache_write(Attach::At(get(&regs, *at)?))?,
                Instruction::Unroll { lv } => sch.unroll(get(&regs, *lv)?)?,
                Instruction::ParallelHost { threads } => sch.parallel_host(*threads),
                Instruction::ParallelTransfer { enabled } => sch.set_parallel_transfer(*enabled),
            }
        }
        Ok(sch)
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.sketch == other.sketch && self.decisions().eq(other.decisions())
    }
}

impl Eq for Trace {}

impl Hash for Trace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.sketch.hash(state);
        for (site, decision) in self.decisions() {
            site.hash(state);
            decision.hash(state);
        }
    }
}

impl fmt::Display for Trace {
    /// Renders the decision list (the trace's identity) compactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.sketch)?;
        for (i, (site, decision)) in self.decisions().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{site}={decision}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions_trace() -> Trace {
        Trace::from_decisions(
            UPMEM_SKETCH,
            vec![
                ("spatial_dpus.0", Decision::Int(64)),
                ("reduce_dpus", Decision::Int(4)),
                ("tasklets", Decision::Int(16)),
                ("cache_elems", Decision::Int(32)),
                ("use_cache", Decision::Bool(true)),
                ("unroll", Decision::Bool(false)),
                ("host_threads", Decision::Int(8)),
                ("parallel_transfer", Decision::Bool(true)),
            ],
        )
    }

    #[test]
    fn identity_covers_decisions_not_structure() {
        let bare = decisions_trace();
        assert!(!bare.is_materialized());
        let def = ComputeDef::mtv("mtv", 256, 256);
        let full = crate::generator::materialize_upmem(&bare, &def).unwrap();
        assert!(full.is_materialized());
        assert_eq!(bare, full, "materialization must not change identity");
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        bare.hash(&mut h1);
        full.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());

        let other = bare.with_decision("tasklets", Decision::Int(8));
        assert_ne!(bare, other);
    }

    #[test]
    fn decision_accessors_read_sites() {
        let t = decisions_trace();
        assert_eq!(t.int_decision("tasklets"), Some(16));
        assert_eq!(t.bool_decision("use_cache"), Some(true));
        assert_eq!(t.int_decision("use_cache"), None, "type-checked access");
        assert_eq!(t.num_dpus(), 64 * 4);
        assert!(t.uses_rfactor());
        assert_eq!(t.tasklets(), 16);
        assert_eq!(t.cache_elems(), 32);
    }

    #[test]
    fn unmaterialized_upmem_traces_apply_by_rematerializing() {
        let def = ComputeDef::mtv("mtv", 256, 256);
        let sch = decisions_trace().apply(&def).unwrap();
        let lowered = sch.lower().unwrap();
        assert_eq!(lowered.grid.num_dpus(), 64 * 4);
    }

    #[test]
    fn unmaterialized_foreign_sketches_are_rejected() {
        let t = Trace::from_decisions("custom", vec![("k", Decision::Int(3))]);
        let def = ComputeDef::va("va", 64);
        let err = t.apply(&def).unwrap_err();
        assert!(err.to_string().contains("custom"), "{err}");
    }

    #[test]
    fn register_misuse_is_an_error_not_a_panic() {
        let def = ComputeDef::va("va", 64);
        let t = Trace::new("custom", vec![Instruction::Unroll { lv: 3 }], 4);
        assert!(t.apply(&def).is_err());
    }

    #[test]
    fn display_renders_the_decision_list() {
        let text = decisions_trace().to_string();
        assert!(text.starts_with("upmem{"), "{text}");
        assert!(text.contains("tasklets=16"), "{text}");
        assert!(text.contains("use_cache=true"), "{text}");
    }
}
