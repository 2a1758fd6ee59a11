//! Event-count-preserving bytecode optimization of [`CompiledProgram`]s.
//!
//! Candidate measurement executes the same kernel bytecode millions of times
//! (every loop iteration of every simulated DPU of every measured candidate),
//! so every instruction dispatched per iteration is paid for over and over.
//! [`CompiledProgram::optimize`] rewrites the flat instruction buffer to
//! dispatch far fewer instructions while reporting **exactly the same
//! [`Tracer`](super::Tracer) event totals** — the cycle model in `atim-sim`
//! consumes only those totals, so an optimized program produces bit-identical
//! latencies:
//!
//! 1. **Constant folding** — `PushInt 3, PushInt 4, Binary Add` becomes one
//!    `PushConst { 7, alu: 1 }` carrying the folded-away ALU count.
//! 2. **Affine index fusion** — `PushVar i, PushInt 64, Mul, PushVar j, Add`
//!    becomes one `AffineSum` instruction: the `i * K + j` shape of most
//!    lowered buffer indices runs as a single dispatch.
//! 3. **Dead pop elimination** — evaluate-and-discard of a folded constant
//!    collapses to an `AluOps` count bump (or vanishes entirely).
//! 4. **Loop-invariant hoisting** — pure arithmetic over variables a loop
//!    never writes is evaluated once per loop *entry* (untraced) and re-read
//!    per iteration through `PushHoisted`, which bumps the ALU count the
//!    in-loop computation would have traced.
//! 5. **Loop summarization** — loop bodies whose DMA and host-transfer sizes
//!    are provably affine in the induction variable, whose only control
//!    flow is well-nested inner loops plus *monotone* affine guards
//!    (`Lin < Inv` under Lt/Le/Gt/Ge — the boundary checks of misaligned
//!    shapes), and whose directly nested loop extents are invariant,
//!    affine, concave (`min` of affine values — the tightened extent
//!    `min(chunk, E − origin)` of a misaligned tile) or convex (`max` of
//!    affine values), are marked summarizable: in
//!    [`ExecMode::TimingOnly`](super::ExecMode), the runner splits the
//!    iteration range into constant-shape *pieces* and applies each as one
//!    closed-form [`BulkEvents`](super::BulkEvents) batch instead of
//!    iterating.  A piece `[a, b)` is accepted when the probes at
//!    iterations `a`, `a+1` and `b-1` record the same event shape (guard
//!    directions, raw nested extents, DMA and transfer *sites* in order,
//!    with equal request counts, directions and `parallel` flags) and
//!    per-site bytes that are collinear; bisection only searches for `b`.
//!    An integer function that is monotone, concave or convex and agrees at
//!    `a`, `a+1` and `b-1` is constant on `[a, b)`, so agreeing samples pin
//!    every guard and nested extent over the piece; per-site bytes are
//!    `max(0, elems)·dtype` of an affine `elems` — the clamp makes them
//!    convex, and a convex function collinear at those three points is
//!    linear in between — so the batch is exact.  Iterations that no piece
//!    covers (a clamp that bites inside the piece, or the per-entry cap on
//!    attempts) run normally.  Whole `for dpu… for row… transfer` nests of
//!    the host programs summarize level by level this way; a level whose
//!    size is the misaligned tail clamp `max(0, min(chunk, E − origin))` is
//!    not affine and keeps iterating, with its inner loops summarized.
//!
//! Divergence from the unoptimized program is limited to *error paths*: a
//! hoisted expression over an unbound variable raises its error at loop entry
//! rather than mid-first-iteration, so tracer state at the moment of the
//! error can differ.  Successful runs are pinned bit-identical (events and
//! memory) by the tests below and the property tests in `tests/proptests.rs`.

use crate::expr::BinOp;

use super::compiled::{CompiledProgram, HoistedExpr, Inst, LoopSummary};
use super::{eval_binary, eval_cmp, Value};

/// Counts of the rewrites the optimizer performed (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constant expressions folded to a single push.
    pub folded: usize,
    /// Affine index chains fused into `AffineVar`/`AffineSum` instructions.
    pub fused: usize,
    /// Evaluate-and-discard sequences eliminated.
    pub pops_eliminated: usize,
    /// Loop-invariant expressions hoisted out of loop bodies.
    pub hoisted: usize,
    /// Innermost loops marked summarizable for timing-only execution.
    pub loops_summarized: usize,
}

const MAX_PEEPHOLE_PASSES: usize = 16;
const MAX_HOIST_PASSES: usize = 64;

impl CompiledProgram {
    /// Returns an optimized copy of the program; see the module docs for the
    /// rewrites applied and the event-equivalence contract.
    pub fn optimize(&self) -> CompiledProgram {
        self.optimize_with_stats().0
    }

    /// [`CompiledProgram::optimize`], also reporting what was rewritten.
    pub fn optimize_with_stats(&self) -> (CompiledProgram, OptStats) {
        let mut insts = self.insts.clone();
        let mut hoisted = self.hoisted.clone();
        let mut stats = OptStats::default();
        for _ in 0..MAX_PEEPHOLE_PASSES {
            if !peephole(&mut insts, &mut stats) {
                break;
            }
        }
        for _ in 0..MAX_HOIST_PASSES {
            if !hoist_one_loop(&mut insts, &mut hoisted, &mut stats) {
                break;
            }
        }
        let summaries = mark_summaries(&mut insts, &mut stats);
        (
            CompiledProgram {
                insts,
                slots: self.slots.clone(),
                names: self.names.clone(),
                summaries,
                hoisted,
            },
            stats,
        )
    }
}

/// Marks every pc (plus the one-past-the-end position) that some jump
/// instruction targets.
fn jump_targets(insts: &[Inst]) -> Vec<bool> {
    let mut targets = vec![false; insts.len() + 1];
    for inst in insts {
        match inst {
            Inst::AndShortCircuit { end }
            | Inst::OrShortCircuit { end }
            | Inst::LoopEnter { end, .. } => targets[*end] = true,
            Inst::SelectBranch { else_pc } | Inst::Branch { else_pc } => targets[*else_pc] = true,
            Inst::Jump(t) => targets[*t] = true,
            Inst::LoopBack { body } => targets[*body] = true,
            _ => {}
        }
    }
    targets
}

/// Rewrites every jump target through `map` (old pc → new pc).
fn remap_targets(insts: &mut [Inst], map: &[usize]) {
    for inst in insts {
        match inst {
            Inst::AndShortCircuit { end }
            | Inst::OrShortCircuit { end }
            | Inst::LoopEnter { end, .. } => *end = map[*end],
            Inst::SelectBranch { else_pc } | Inst::Branch { else_pc } => *else_pc = map[*else_pc],
            Inst::Jump(t) => *t = map[*t],
            Inst::LoopBack { body } => *body = map[*body],
            _ => {}
        }
    }
}

/// The constant value and folded-away ALU count of a push-style instruction.
fn as_const(inst: &Inst) -> Option<(Value, u32)> {
    match inst {
        Inst::PushInt(v) => Some((Value::Int(*v), 0)),
        Inst::PushFloat(v) => Some((Value::Float(*v), 0)),
        Inst::PushConst { value, alu } => Some((*value, *alu)),
        _ => None,
    }
}

/// A single- or two-variable affine operand recognized for fusion.
#[derive(Debug, Clone, Copy)]
enum AffOp {
    Var {
        slot: u32,
        scale: i64,
        offset: i64,
        alu: u32,
    },
    Sum {
        a: u32,
        a_scale: i64,
        b: u32,
        b_scale: i64,
        offset: i64,
        alu: u32,
    },
}

impl AffOp {
    fn alu(&self) -> u32 {
        match self {
            AffOp::Var { alu, .. } | AffOp::Sum { alu, .. } => *alu,
        }
    }

    fn to_inst(self) -> Inst {
        match self {
            AffOp::Var {
                slot,
                scale,
                offset,
                alu,
            } => Inst::AffineVar {
                slot,
                scale,
                offset,
                alu,
            },
            AffOp::Sum {
                a,
                a_scale,
                b,
                b_scale,
                offset,
                alu,
            } => Inst::AffineSum {
                a,
                a_scale,
                b,
                b_scale,
                offset,
                alu,
            },
        }
    }

    /// `self ⊕ c` (or `c ⊕ self` when `const_is_lhs`) as a new affine form;
    /// `None` when the constant arithmetic would overflow i64.
    fn with_const(self, c: i64, c_alu: u32, op: BinOp, const_is_lhs: bool) -> Option<AffOp> {
        let alu = self.alu() + c_alu + 1;
        let adjust = |scale: i64, offset: i64| -> Option<(i64, i64)> {
            match op {
                BinOp::Add => Some((scale, offset.checked_add(c)?)),
                BinOp::Sub if !const_is_lhs => Some((scale, offset.checked_sub(c)?)),
                BinOp::Sub => Some((scale.checked_neg()?, c.checked_sub(offset)?)),
                BinOp::Mul => Some((scale.checked_mul(c)?, offset.checked_mul(c)?)),
                _ => None,
            }
        };
        match self {
            AffOp::Var {
                slot,
                scale,
                offset,
                ..
            } => {
                let (scale, offset) = adjust(scale, offset)?;
                Some(AffOp::Var {
                    slot,
                    scale,
                    offset,
                    alu,
                })
            }
            AffOp::Sum {
                a,
                a_scale,
                b,
                b_scale,
                offset,
                ..
            } => {
                // `c - (a·x + b·y + o)` negates both scales; multiplication
                // scales both.  Reuse `adjust` for the (b_scale, offset)
                // pair and recompute a_scale with the same rule.
                let (b_scale, offset) = adjust(b_scale, offset)?;
                let a_scale = match op {
                    BinOp::Add => a_scale,
                    BinOp::Sub if !const_is_lhs => a_scale,
                    BinOp::Sub => a_scale.checked_neg()?,
                    BinOp::Mul => a_scale.checked_mul(c)?,
                    _ => return None,
                };
                Some(AffOp::Sum {
                    a,
                    a_scale,
                    b,
                    b_scale,
                    offset,
                    alu,
                })
            }
        }
    }
}

fn as_affine(inst: &Inst) -> Option<AffOp> {
    match inst {
        Inst::PushVar(slot) => Some(AffOp::Var {
            slot: *slot,
            scale: 1,
            offset: 0,
            alu: 0,
        }),
        Inst::AffineVar {
            slot,
            scale,
            offset,
            alu,
        } => Some(AffOp::Var {
            slot: *slot,
            scale: *scale,
            offset: *offset,
            alu: *alu,
        }),
        Inst::AffineSum {
            a,
            a_scale,
            b,
            b_scale,
            offset,
            alu,
        } => Some(AffOp::Sum {
            a: *a,
            a_scale: *a_scale,
            b: *b,
            b_scale: *b_scale,
            offset: *offset,
            alu: *alu,
        }),
        _ => None,
    }
}

/// Tries to replace `lhs, rhs, Binary(op)` by one instruction.  Returns the
/// replacement and whether it was a full constant fold.
fn fuse_binary(lhs: &Inst, rhs: &Inst, op: BinOp) -> Option<(Inst, bool)> {
    if let (Some((x, nx)), Some((y, ny))) = (as_const(lhs), as_const(rhs)) {
        return Some((
            Inst::PushConst {
                value: eval_binary(op, x, y),
                alu: nx + ny + 1,
            },
            true,
        ));
    }
    if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
        return None;
    }
    if let (Some(a), Some((Value::Int(c), nc))) = (as_affine(lhs), as_const(rhs)) {
        return a.with_const(c, nc, op, false).map(|f| (f.to_inst(), false));
    }
    if let (Some((Value::Int(c), nc)), Some(a)) = (as_const(lhs), as_affine(rhs)) {
        return a.with_const(c, nc, op, true).map(|f| (f.to_inst(), false));
    }
    if matches!(op, BinOp::Add | BinOp::Sub) {
        if let (
            Some(AffOp::Var {
                slot: a,
                scale: a_scale,
                offset: oa,
                alu: na,
            }),
            Some(AffOp::Var {
                slot: b,
                scale: b_scale,
                offset: ob,
                alu: nb,
            }),
        ) = (as_affine(lhs), as_affine(rhs))
        {
            let (b_scale, ob) = if op == BinOp::Sub {
                (b_scale.checked_neg()?, ob.checked_neg()?)
            } else {
                (b_scale, ob)
            };
            return Some((
                Inst::AffineSum {
                    a,
                    a_scale,
                    b,
                    b_scale,
                    offset: oa.checked_add(ob)?,
                    alu: na + nb + 1,
                },
                false,
            ));
        }
    }
    None
}

/// One local-rewrite pass over the whole buffer; returns whether anything
/// changed.  Jump targets are recomputed per pass and rewrites never delete
/// a targeted instruction, so control flow is preserved exactly.
fn peephole(insts: &mut Vec<Inst>, stats: &mut OptStats) -> bool {
    let targets = jump_targets(insts);
    let old_len = insts.len();
    let mut out: Vec<Inst> = Vec::with_capacity(old_len);
    let mut old_pc: Vec<usize> = Vec::with_capacity(old_len);
    let mut changed = false;
    for (pc, inst) in insts.iter().enumerate() {
        out.push(inst.clone());
        old_pc.push(pc);
        while reduce_tail(&mut out, &mut old_pc, &targets, stats) {
            changed = true;
        }
    }
    if !changed {
        return false;
    }
    let mut map = vec![usize::MAX; old_len + 1];
    for (new_idx, &p) in old_pc.iter().enumerate() {
        map[p] = new_idx;
    }
    map[old_len] = out.len();
    for p in (0..old_len).rev() {
        if map[p] == usize::MAX {
            map[p] = map[p + 1];
        }
    }
    remap_targets(&mut out, &map);
    *insts = out;
    true
}

/// Tries one rewrite at the tail of the output buffer.
fn reduce_tail(
    out: &mut Vec<Inst>,
    old_pc: &mut Vec<usize>,
    targets: &[bool],
    stats: &mut OptStats,
) -> bool {
    let n = out.len();
    // [lhs, rhs, Binary/Cmp] → fold or fuse.
    if n >= 3 && !targets[old_pc[n - 1]] && !targets[old_pc[n - 2]] {
        let replacement = match &out[n - 1] {
            Inst::Binary(op) => fuse_binary(&out[n - 3], &out[n - 2], *op),
            Inst::Cmp(op) => match (as_const(&out[n - 3]), as_const(&out[n - 2])) {
                (Some((x, nx)), Some((y, ny))) => Some((
                    Inst::PushConst {
                        value: Value::Int(eval_cmp(*op, x, y) as i64),
                        alu: nx + ny + 1,
                    },
                    true,
                )),
                _ => None,
            },
            _ => None,
        };
        if let Some((inst, is_fold)) = replacement {
            if is_fold {
                stats.folded += 1;
            } else {
                stats.fused += 1;
            }
            let first = old_pc[n - 3];
            out.truncate(n - 3);
            old_pc.truncate(n - 3);
            out.push(inst);
            old_pc.push(first);
            return true;
        }
    }
    // [const, unary] → fold; [const, Pop] → eliminate.
    if n >= 2 && !targets[old_pc[n - 1]] {
        if let Some((v, nv)) = as_const(&out[n - 2]) {
            let replacement = match &out[n - 1] {
                Inst::Not => Some(Some(Inst::PushConst {
                    value: Value::Int(!v.is_true() as i64),
                    alu: nv + 1,
                })),
                Inst::Cast { to_float } => Some(Some(Inst::PushConst {
                    value: if *to_float {
                        Value::Float(v.as_float())
                    } else {
                        Value::Int(v.as_int())
                    },
                    alu: nv + 1,
                })),
                Inst::BoolCast => Some(Some(Inst::PushConst {
                    value: Value::Int(v.is_true() as i64),
                    alu: nv,
                })),
                Inst::Pop if nv == 0 => Some(None),
                Inst::Pop => Some(Some(Inst::AluOps { n: nv })),
                _ => None,
            };
            if let Some(repl) = replacement {
                let is_pop = matches!(&out[n - 1], Inst::Pop);
                if is_pop {
                    stats.pops_eliminated += 1;
                } else {
                    stats.folded += 1;
                }
                let first = old_pc[n - 2];
                out.truncate(n - 2);
                old_pc.truncate(n - 2);
                if let Some(inst) = repl {
                    out.push(inst);
                    old_pc.push(first);
                }
                return true;
            }
        }
    }
    false
}

/// A `LoopEnter` / `LoopBack` pair; body is `enter+1 .. back`.
#[derive(Debug, Clone, Copy)]
struct LoopRegion {
    enter: usize,
    back: usize,
    slot: u32,
}

fn find_loops(insts: &[Inst]) -> Vec<LoopRegion> {
    let mut loops: Vec<LoopRegion> = insts
        .iter()
        .enumerate()
        .filter_map(|(pc, inst)| match inst {
            Inst::LoopEnter { slot, end, .. } => {
                debug_assert!(matches!(insts[*end - 1], Inst::LoopBack { .. }));
                Some(LoopRegion {
                    enter: pc,
                    back: *end - 1,
                    slot: *slot,
                })
            }
            _ => None,
        })
        .collect();
    // Innermost first: smaller bodies sort ahead.
    loops.sort_by_key(|r| r.back - r.enter);
    loops
}

/// Whether a loop body has summarizable *structure*: well-nested inner
/// loops, no jump from outside landing inside it, and no control flow the
/// probe cannot model.  (Inner loops are fine — their event counts per
/// outer iteration are compared by the runtime probe.  Plain `Branch`
/// guards are admitted here and then vetted by [`dma_sizes_affine`]: only
/// *monotone* affine conditions survive, because a monotone boolean that
/// agrees at iterations `a`, `a+1` and `b-1` is constant on `[a, b)` —
/// exactly what makes the three-point probe of a piece sound.  `Select` and
/// short-circuit constructs still disqualify: their value flows into
/// arithmetic the probe cannot see.)
fn summarizable_structure(insts: &[Inst], region: &LoopRegion) -> bool {
    let (start, end) = (region.enter + 1, region.back);
    for inst in &insts[start..end] {
        if matches!(
            inst,
            Inst::SelectBranch { .. }
                | Inst::AndShortCircuit { .. }
                | Inst::OrShortCircuit { .. }
                | Inst::Jump(_)
                | Inst::EvalHoisted { .. }
        ) {
            return false;
        }
    }
    // Every jump whose target lies strictly inside the body must originate
    // inside the body (the well-nested inner loops); the defining back edge
    // targets `start`, which is fine.
    for (pc, inst) in insts.iter().enumerate() {
        let inside = pc >= start && pc < end;
        let target = match inst {
            Inst::AndShortCircuit { end: t }
            | Inst::OrShortCircuit { end: t }
            | Inst::LoopEnter { end: t, .. } => *t,
            Inst::SelectBranch { else_pc } | Inst::Branch { else_pc } => *else_pc,
            Inst::Jump(t) => *t,
            Inst::LoopBack { body } => *body,
            _ => continue,
        };
        if target > start && target < end && !inside {
            return false;
        }
        if inside && (target <= start || target > end) && pc != region.back {
            // An inner jump escaping the region would break range execution.
            return false;
        }
    }
    true
}

/// Abstract value for the DMA/transfer-size affinity analysis: invariant
/// across iterations, affine in the induction variable with invariant
/// coefficients, a *monotone boolean* of the induction variable (an
/// ordering comparison of affine operands — it flips direction at most
/// once over the iteration range), *concave* (a `min` of affine values,
/// possibly shifted by affine terms — the tightened extent
/// `min(chunk, E − origin)` of a misaligned tile), *convex* (a `max` of
/// affine values), or none of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aff {
    Inv,
    Lin,
    Mono,
    Concave,
    Convex,
    Other,
}

impl Aff {
    /// The negated value's class (`-concave` is convex).
    fn neg(self) -> Aff {
        match self {
            Aff::Concave => Aff::Convex,
            Aff::Convex => Aff::Concave,
            other => other,
        }
    }

    /// The class of `x op y` for `op` in Add/Sub/Mul/Min/Max; `Other` for
    /// every other operator unless both operands are invariant.
    fn binary(op: BinOp, x: Aff, y: Aff) -> Aff {
        use Aff::*;
        match (op, x, y) {
            (_, Inv, Inv) => Inv,
            (_, Other | Mono, _) | (_, _, Other | Mono) => Other,
            (BinOp::Sub, x, y) => Aff::binary(BinOp::Add, x, y.neg()),
            // Curvature adds up; affine terms shift it.
            (BinOp::Add, Inv | Lin, Inv | Lin) => Lin,
            (BinOp::Add, Inv | Lin, c) | (BinOp::Add, c, Inv | Lin) => c,
            (BinOp::Add, c, d) if c == d => c,
            // An invariant factor of unknown sign keeps affinity only.
            (BinOp::Mul, Inv, Lin) | (BinOp::Mul, Lin, Inv) => Lin,
            (BinOp::Min, Inv | Lin | Concave, Inv | Lin | Concave) => Concave,
            (BinOp::Max, Inv | Lin | Convex, Inv | Lin | Convex) => Convex,
            _ => Other,
        }
    }
}

/// Verifies every `Dma` and `HostTransfer` element count in the body is
/// affine in the induction variable (`max(0, ·)` of an affine value is
/// convex, which is what makes the runner's three-point probe sound), every
/// `Branch` guard condition is invariant or *monotone* affine (`Lin < Inv`
/// under Lt/Le/Gt/Ge and their negations: a monotone boolean whose samples
/// agree at `a`, `a+1` and `b-1` is constant on `[a, b)`, so matching probes
/// pin a whole piece), and every directly nested loop extent is invariant,
/// affine, concave or convex (the probes compare raw extents, which such a
/// function pins the same way).  Loops nested deeper keep invariant
/// extents: a directly nested loop may itself reach the probe as one bulk
/// batch, which would hide their extents.  Eq/Ne comparisons on affine
/// operands can flip twice and are rejected.
fn dma_sizes_affine(insts: &[Inst], region: &LoopRegion) -> bool {
    use Aff::*;
    let iter_slot = region.slot;
    let mut stack: Vec<Aff> = Vec::new();
    // Loops entered and not yet left inside the body.
    let mut depth = 0usize;
    for inst in &insts[region.enter + 1..region.back] {
        let pop = |stack: &mut Vec<Aff>| stack.pop().unwrap_or(Other);
        match inst {
            Inst::PushInt(_)
            | Inst::PushFloat(_)
            | Inst::PushConst { .. }
            | Inst::PushHoisted { .. } => stack.push(Inv),
            Inst::PushVar(s) => stack.push(if *s == iter_slot { Lin } else { Inv }),
            Inst::AffineVar { slot, .. } => stack.push(if *slot == iter_slot { Lin } else { Inv }),
            Inst::AffineSum { a, b, .. } => stack.push(if *a == iter_slot || *b == iter_slot {
                Lin
            } else {
                Inv
            }),
            Inst::Binary(op) => {
                let y = pop(&mut stack);
                let x = pop(&mut stack);
                stack.push(Aff::binary(*op, x, y));
            }
            Inst::Cmp(op) => {
                let y = pop(&mut stack);
                let x = pop(&mut stack);
                use crate::expr::CmpOp;
                stack.push(match (x, y) {
                    (Inv, Inv) => Inv,
                    // An ordering comparison of affine operands is monotone
                    // in the induction variable (the difference is affine,
                    // so its sign changes at most once).  Eq/Ne can flip
                    // twice — not monotone.
                    (Inv | Lin, Inv | Lin)
                        if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) =>
                    {
                        Mono
                    }
                    _ => Other,
                });
            }
            Inst::Not => {
                // The negation of a monotone boolean is monotone (it flips
                // at the same single point).
                let x = pop(&mut stack);
                stack.push(match x {
                    Inv => Inv,
                    Mono => Mono,
                    _ => Other,
                });
            }
            Inst::Cast { .. } | Inst::BoolCast => {
                let x = pop(&mut stack);
                stack.push(if x == Inv { Inv } else { Other });
            }
            Inst::Load { .. } => {
                // Timing-only loads push a constant 0.0, so the loaded value
                // is iteration-invariant regardless of the index.
                let _idx = pop(&mut stack);
                stack.push(Inv);
            }
            Inst::Store { .. } => {
                let _v = pop(&mut stack);
                let _idx = pop(&mut stack);
            }
            Inst::Pop => {
                let _ = pop(&mut stack);
            }
            // One rule for DMA and host transfers: only the element count
            // matters.  The offsets (and a transfer's DPU operand) are
            // ignored — timing-only execution never dereferences them — and
            // a transfer's `dir` and `parallel` are instruction constants.
            Inst::Dma { .. } | Inst::HostTransfer { .. } => {
                let elems = pop(&mut stack);
                let ignored = if matches!(inst, Inst::Dma { .. }) {
                    2
                } else {
                    3
                };
                for _ in 0..ignored {
                    pop(&mut stack);
                }
                if !matches!(elems, Inv | Lin) {
                    return false;
                }
            }
            // A guard: admissible when its condition cannot flip direction
            // more than once across the iteration range.  The runtime probe
            // then verifies the direction actually agrees at the ends of
            // each piece, which (by monotonicity) pins it constant.
            Inst::Branch { .. } => {
                let cond = pop(&mut stack);
                if cond != Inv && cond != Mono {
                    return false;
                }
            }
            // Nested loops: a direct child's extent may vary with the
            // induction variable as long as the probes' raw-extent
            // comparison pins it per piece; deeper extents must be
            // invariant.  Values of inner induction variables are `Inv` —
            // once the extents agree, the j-th event of every iteration of
            // a piece sees the same inner values.
            Inst::LoopEnter { .. } => {
                let extent = pop(&mut stack);
                let admissible = match depth {
                    0 => matches!(extent, Inv | Lin | Concave | Convex),
                    _ => extent == Inv,
                };
                if !admissible {
                    return false;
                }
                depth += 1;
            }
            Inst::LoopBack { .. } => depth -= 1,
            Inst::AluOps { .. } | Inst::Alloc { .. } | Inst::Barrier => {}
            // Anything else contradicts `summarizable_structure`.
            _ => return false,
        }
    }
    true
}

/// Marks every summarizable loop, rewriting its `LoopEnter`; returns the
/// summary table.
fn mark_summaries(insts: &mut [Inst], stats: &mut OptStats) -> Vec<LoopSummary> {
    for inst in insts.iter_mut() {
        if let Inst::LoopEnter { summary, .. } = inst {
            *summary = None;
        }
    }
    let mut summaries = Vec::new();
    for region in find_loops(insts) {
        if summarizable_structure(insts, &region) && dma_sizes_affine(insts, &region) {
            let idx = summaries.len() as u32;
            summaries.push(LoopSummary {
                body_start: (region.enter + 1) as u32,
                body_end: region.back as u32,
            });
            if let Inst::LoopEnter { summary, .. } = &mut insts[region.enter] {
                *summary = Some(idx);
            }
            stats.loops_summarized += 1;
        }
    }
    summaries
}

/// An abstract stack value during hoist-candidate collection.
#[derive(Debug, Clone, Copy)]
struct AbsVal {
    /// pc of the first instruction producing this value.
    start: usize,
    /// `Some(traced ALU count)` when the value is pure, loop-invariant and
    /// unconditionally evaluated — i.e. hoistable.
    hoist: Option<u64>,
}

impl AbsVal {
    fn opaque(start: usize) -> Self {
        AbsVal { start, hoist: None }
    }
}

/// A hoist candidate: the instruction range `[start, end)` and the ALU count
/// it traces per evaluation.
type Candidate = (usize, usize, u64);

/// Hoists loop-invariant expressions out of one loop (the innermost one with
/// candidates); returns whether a rewrite happened.
fn hoist_one_loop(
    insts: &mut Vec<Inst>,
    hoisted: &mut Vec<HoistedExpr>,
    stats: &mut OptStats,
) -> bool {
    let targets = jump_targets(insts);
    for region in find_loops(insts) {
        // Fully summarizable loops execute only a few probe iterations in
        // the hot (timing) path; leave their bodies untouched so the
        // summarizer can still match them.
        if summarizable_structure(insts, &region) && dma_sizes_affine(insts, &region) {
            continue;
        }
        let candidates = collect_candidates(insts, &region, &targets);
        if candidates.is_empty() {
            continue;
        }
        apply_hoists(insts, hoisted, &region, &candidates);
        stats.hoisted += candidates.len();
        return true;
    }
    false
}

/// Collects maximal pure, loop-invariant, unconditionally-evaluated
/// expression subtrees of at least three instructions inside a loop body.
fn collect_candidates(insts: &[Inst], region: &LoopRegion, targets: &[bool]) -> Vec<Candidate> {
    // Variables written inside the body (nested loop inductions) or by the
    // loop itself are not invariant.
    let mut written: Vec<u32> = vec![region.slot];
    for inst in &insts[region.enter + 1..region.back] {
        if let Inst::LoopEnter { slot, .. } = inst {
            written.push(*slot);
        }
    }

    let mut stack: Vec<AbsVal> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    // End of the current conditionally-executed (or nested-loop) region:
    // values produced before this pc must not be hoisted, since the
    // unoptimized program may never evaluate them.
    let mut open_until = 0usize;

    let harvest = |value: AbsVal, end: usize, candidates: &mut Vec<Candidate>| {
        if let Some(alu) = value.hoist {
            let len = end - value.start;
            if len >= 3 && alu >= 1 && (value.start + 1..end).all(|pc| !targets[pc]) {
                candidates.push((value.start, end, alu));
            }
        }
    };

    let mut pc = region.enter + 1;
    while pc < region.back {
        let in_open = pc < open_until;
        let guard = |hoist: Option<u64>| if in_open { None } else { hoist };
        match &insts[pc] {
            Inst::PushInt(_) | Inst::PushFloat(_) => stack.push(AbsVal {
                start: pc,
                hoist: guard(Some(0)),
            }),
            Inst::PushConst { alu, .. } => stack.push(AbsVal {
                start: pc,
                hoist: guard(Some(*alu as u64)),
            }),
            Inst::PushVar(s) => stack.push(AbsVal {
                start: pc,
                hoist: guard((!written.contains(s)).then_some(0)),
            }),
            Inst::AffineVar { slot, alu, .. } => stack.push(AbsVal {
                start: pc,
                hoist: guard((!written.contains(slot)).then_some(*alu as u64)),
            }),
            Inst::AffineSum { a, b, alu, .. } => stack.push(AbsVal {
                start: pc,
                hoist: guard((!written.contains(a) && !written.contains(b)).then_some(*alu as u64)),
            }),
            Inst::PushHoisted { .. } => stack.push(AbsVal::opaque(pc)),
            Inst::Binary(_) | Inst::Cmp(_) => {
                let y = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let x = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let combined = match (x.hoist, y.hoist) {
                    (Some(nx), Some(ny)) => guard(Some(nx + ny + 1)),
                    _ => None,
                };
                if combined.is_none() {
                    harvest(x, y.start, &mut candidates);
                    harvest(y, pc, &mut candidates);
                }
                stack.push(AbsVal {
                    start: x.start,
                    hoist: combined,
                });
            }
            Inst::Not | Inst::Cast { .. } | Inst::BoolCast => {
                let x = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let alu_cost = if matches!(&insts[pc], Inst::BoolCast) {
                    0
                } else {
                    1
                };
                stack.push(AbsVal {
                    start: x.start,
                    hoist: guard(x.hoist.map(|n| n + alu_cost)),
                });
            }
            Inst::Load { .. } => {
                let idx = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(idx, pc, &mut candidates);
                stack.push(AbsVal::opaque(idx.start));
            }
            Inst::Store { .. } => {
                let v = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let idx = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(idx, v.start, &mut candidates);
                harvest(v, pc, &mut candidates);
            }
            Inst::Pop => {
                let v = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(v, pc, &mut candidates);
            }
            Inst::Dma { .. } => {
                let elems = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let s_off = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let d_off = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(d_off, s_off.start, &mut candidates);
                harvest(s_off, elems.start, &mut candidates);
                harvest(elems, pc, &mut candidates);
            }
            Inst::HostTransfer { .. } => {
                let elems = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let m_off = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let g_off = stack.pop().unwrap_or(AbsVal::opaque(pc));
                let dpu = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(dpu, g_off.start, &mut candidates);
                harvest(g_off, m_off.start, &mut candidates);
                harvest(m_off, elems.start, &mut candidates);
                harvest(elems, pc, &mut candidates);
            }
            Inst::Branch { else_pc } => {
                let cond = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(cond, pc, &mut candidates);
                open_until = open_until.max(*else_pc);
            }
            Inst::AndShortCircuit { end } | Inst::OrShortCircuit { end } => {
                // Skip the whole short-circuit construct, like Select: pop
                // the lhs, push one opaque result whose region starts at the
                // lhs (so a preceding sibling's harvest range cannot swallow
                // the lhs-producing instructions).
                let lhs = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(lhs, pc, &mut candidates);
                stack.push(AbsVal::opaque(lhs.start));
                pc = *end;
                continue;
            }
            Inst::SelectBranch { else_pc } => {
                // Skip the whole select construct: simulate its net effect
                // (pop the condition, push an opaque result).
                let cond = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(cond, pc, &mut candidates);
                let construct_end = match &insts[*else_pc - 1] {
                    Inst::Jump(t) => *t,
                    _ => return Vec::new(), // unexpected shape: bail out
                };
                // The select's value region begins at its *condition*, not
                // at the branch instruction — a preceding sibling operand's
                // harvest range ends where this value starts, and must not
                // swallow the condition-producing instructions.
                stack.push(AbsVal::opaque(cond.start));
                pc = construct_end;
                continue;
            }
            Inst::Jump(t) => open_until = open_until.max(*t),
            Inst::LoopEnter { end, .. } => {
                let extent = stack.pop().unwrap_or(AbsVal::opaque(pc));
                harvest(extent, pc, &mut candidates);
                open_until = open_until.max(*end);
            }
            Inst::LoopBack { .. }
            | Inst::AluOps { .. }
            | Inst::Alloc { .. }
            | Inst::Barrier
            | Inst::EvalHoisted { .. } => {}
        }
        pc += 1;
    }
    candidates.sort_by_key(|c| c.0);
    candidates
}

/// Rewrites one loop: copies each candidate range into the hoisted-expression
/// table, replaces it in the body with `PushHoisted`, and inserts the
/// `EvalHoisted` block between the loop header and the body (the back edge is
/// re-targeted past it, so hoisted expressions evaluate once per entry).
fn apply_hoists(
    insts: &mut Vec<Inst>,
    hoisted: &mut Vec<HoistedExpr>,
    region: &LoopRegion,
    candidates: &[Candidate],
) {
    let base_idx = hoisted.len();
    for &(start, end, _) in candidates {
        hoisted.push(HoistedExpr {
            insts: insts[start..end].to_vec(),
        });
    }
    let old_len = insts.len();
    let mut out: Vec<Inst> = Vec::with_capacity(old_len + candidates.len());
    let mut map = vec![usize::MAX; old_len + 1];
    let mut next_candidate = 0usize;
    let mut pc = 0usize;
    while pc < old_len {
        if pc == region.enter + 1 {
            for k in 0..candidates.len() {
                out.push(Inst::EvalHoisted {
                    idx: (base_idx + k) as u32,
                });
            }
        }
        if next_candidate < candidates.len() && pc == candidates[next_candidate].0 {
            let (start, end, alu) = candidates[next_candidate];
            debug_assert_eq!(pc, start);
            map[pc] = out.len();
            out.push(Inst::PushHoisted {
                idx: (base_idx + next_candidate) as u32,
                alu: u32::try_from(alu).expect("hoisted ALU count fits u32"),
            });
            next_candidate += 1;
            pc = end;
            continue;
        }
        map[pc] = out.len();
        out.push(insts[pc].clone());
        pc += 1;
    }
    map[old_len] = out.len();
    for p in (0..old_len).rev() {
        if map[p] == usize::MAX {
            map[p] = map[p + 1];
        }
    }
    remap_targets(&mut out, &map);
    *insts = out;
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::buffer::{Buffer, MemScope, Var};
    use crate::dtype::DType;
    use crate::eval::compiled::MAX_PIECE_ATTEMPTS;
    use crate::eval::{CompiledRunner, CountingTracer, ExecMode, Interpreter, MemoryStore};
    use crate::expr::Expr;
    use crate::stmt::{Stmt, TransferDir};

    /// Runs `stmt` through the tree interpreter and the optimized program,
    /// asserting identical tracer counts (and, functionally, identical
    /// memory for `bufs`), then returns the optimizer stats.
    fn assert_optimized_equivalent(
        stmt: &Stmt,
        setup: impl Fn(&mut MemoryStore),
        bufs: &[&Arc<Buffer>],
    ) -> OptStats {
        let (optimized, stats) = CompiledProgram::compile(stmt).optimize_with_stats();
        for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
            let mut tree_store = MemoryStore::new();
            setup(&mut tree_store);
            let mut tree_tracer = CountingTracer::default();
            Interpreter::new(&mut tree_store, &mut tree_tracer, mode)
                .run(stmt)
                .unwrap();

            let mut opt_store = MemoryStore::new();
            setup(&mut opt_store);
            let mut opt_tracer = CountingTracer::default();
            CompiledRunner::new(&optimized)
                .run(&mut opt_store, &mut opt_tracer, mode)
                .unwrap();

            assert_eq!(tree_tracer, opt_tracer, "tracer counts diverge in {mode:?}");
            if mode == ExecMode::Functional {
                for buf in bufs {
                    assert_eq!(
                        tree_store.read_all(buf, 0),
                        opt_store.read_all(buf, 0),
                        "memory diverges for {}",
                        buf.name
                    );
                }
            }
        }
        stats
    }

    #[test]
    fn constants_fold_and_discarded_results_are_eliminated() {
        let a = Buffer::new("A", DType::F32, vec![16], MemScope::Global);
        let i = Var::new("i");
        // Store at a folded-constant index; evaluate-and-discard a constant.
        let prog = Stmt::seq(vec![
            Stmt::for_serial(
                i.clone(),
                4i64,
                Stmt::store(
                    &a,
                    Expr::var(&i).add(Expr::int(3).mul(Expr::int(2))),
                    Expr::float(1.5),
                ),
            ),
            Stmt::Evaluate(Expr::int(3).add(Expr::int(4))),
        ]);
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert!(stats.folded >= 1, "{stats:?}");
        assert_eq!(stats.pops_eliminated, 1, "{stats:?}");
    }

    #[test]
    fn affine_index_chains_fuse_into_single_instructions() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let b = Buffer::new("B", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        // The canonical lowered index shape: i*8 + j, plus offset arithmetic.
        let idx = Expr::var(&i).mul(Expr::int(8)).add(Expr::var(&j));
        let body = Stmt::store(
            &b,
            idx.clone(),
            Expr::load(&a, idx.add(Expr::int(32)).sub(Expr::int(32))).mul(Expr::float(3.0)),
        );
        let prog = Stmt::for_serial(i, 8i64, Stmt::for_serial(j, 8i64, body));
        let stats = assert_optimized_equivalent(
            &prog,
            |s| {
                s.alloc_with(&a, 0, &(0..64).map(|x| x as f32).collect::<Vec<_>>());
                s.alloc(&b, 0);
            },
            &[&a, &b],
        );
        assert!(stats.fused >= 2, "{stats:?}");
        assert!(stats.loops_summarized >= 1, "{stats:?}");
    }

    #[test]
    fn invariant_expressions_hoist_out_of_guarded_loops() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        let n = Var::new("n");
        // The inner loop is guarded by an *equality* test — non-monotone,
        // so the loop is not summarizable (monotone ordering guards now
        // are) and the hoister still processes its body.  The guard bound
        // `n*4 + n*7 - n*3` is invariant in both loops, so it hoists.
        let bound = Expr::var(&n)
            .mul(Expr::int(4))
            .add(Expr::var(&n).mul(Expr::int(7)))
            .sub(Expr::var(&n).mul(Expr::int(3)));
        let body = Stmt::if_then(
            Expr::var(&i)
                .mul(Expr::int(8))
                .add(Expr::var(&j))
                .eq_expr(bound),
            Stmt::store(
                &a,
                Expr::var(&i).mul(Expr::int(8)).add(Expr::var(&j)),
                Expr::float(2.0),
            ),
        );
        let prog = Stmt::for_serial(i, 8i64, Stmt::for_serial(j, 8i64, body));

        let (optimized, stats) = CompiledProgram::compile(&prog).optimize_with_stats();
        assert!(stats.hoisted >= 1, "{stats:?}");

        for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
            let mut tree_store = MemoryStore::new();
            tree_store.alloc(&a, 0);
            let mut tree_tracer = CountingTracer::default();
            let mut interp = Interpreter::new(&mut tree_store, &mut tree_tracer, mode);
            interp.bind(&n, 5);
            interp.run(&prog).unwrap();

            let mut opt_store = MemoryStore::new();
            opt_store.alloc(&a, 0);
            let mut opt_tracer = CountingTracer::default();
            let mut runner = CompiledRunner::new(&optimized);
            runner.bind(&n, 5);
            runner.run(&mut opt_store, &mut opt_tracer, mode).unwrap();

            assert_eq!(tree_tracer, opt_tracer, "tracer counts diverge in {mode:?}");
            assert_eq!(tree_store.read_all(&a, 0), opt_store.read_all(&a, 0));
        }
    }

    #[test]
    fn affine_dma_loops_are_summarized_with_exact_byte_totals() {
        let mram = Buffer::new("M", DType::F32, vec![1024], MemScope::Mram);
        let wram = Buffer::new("W", DType::F32, vec![1024], MemScope::Wram);
        let i = Var::new("i");
        // Per-iteration DMA size grows affinely: elems = i*2 + 4.
        let prog = Stmt::for_serial(
            i.clone(),
            16i64,
            Stmt::Dma {
                dst: wram.clone(),
                dst_off: Expr::int(0),
                src: mram.clone(),
                src_off: Expr::var(&i).mul(Expr::int(8)),
                elems: Expr::var(&i).mul(Expr::int(2)).add(Expr::int(4)),
            },
        );
        let stats = assert_optimized_equivalent(
            &prog,
            |s| {
                s.alloc(&mram, 0);
                s.alloc(&wram, 0);
            },
            &[],
        );
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
    }

    #[test]
    fn clamped_dma_sizes_fall_back_to_full_execution() {
        let mram = Buffer::new("M", DType::F32, vec![1024], MemScope::Mram);
        let wram = Buffer::new("W", DType::F32, vec![1024], MemScope::Wram);
        let i = Var::new("i");
        // elems = i - 2 clamps to zero for early iterations: statically
        // affine, but the byte totals are convex rather than linear — the
        // three-point probe must detect this and execute the loop normally.
        let prog = Stmt::for_serial(
            i.clone(),
            24i64,
            Stmt::Dma {
                dst: wram.clone(),
                dst_off: Expr::int(0),
                src: mram.clone(),
                src_off: Expr::int(0),
                elems: Expr::var(&i).sub(Expr::int(2)),
            },
        );
        let stats = assert_optimized_equivalent(
            &prog,
            |s| {
                s.alloc(&mram, 0);
                s.alloc(&wram, 0);
            },
            &[],
        );
        // The loop is *marked* summarizable (the static analysis cannot see
        // the clamp), but the runtime probe rejects it — counts still match,
        // which is what assert_optimized_equivalent verified above.
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
    }

    /// The fast-path follow-up from the roadmap: a boundary guard
    /// (`i*K + j < N`, i.e. a *monotone* affine condition) no longer
    /// disqualifies a loop from timing-only summarization.  The probe's
    /// three samples pin the guard constant, so event totals stay exact —
    /// `assert_optimized_equivalent` checks them against the tree
    /// interpreter in both modes.
    #[test]
    fn monotone_boundary_guards_are_summarized() {
        let a = Buffer::new("A", DType::F32, vec![2048], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        // The canonical misaligned-shape kernel: an inner loop of 32 whose
        // work is guarded by the flattened index against the true extent.
        // 61*32 = 1952 < 2048, so the guard is true throughout for most
        // outer iterations and false-tail only in the last — each inner
        // loop instance sees a monotone (here: constant or single-flip)
        // guard.
        let idx = Expr::var(&i).mul(Expr::int(32)).add(Expr::var(&j));
        let body = Stmt::if_then(
            idx.clone().lt(Expr::int(1999)),
            Stmt::store(&a, idx, Expr::float(1.0)),
        );
        let prog = Stmt::for_serial(i, 61i64, Stmt::for_serial(j, 32i64, body));
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert!(
            stats.loops_summarized >= 1,
            "boundary-guarded loops must be summarizable: {stats:?}"
        );
    }

    /// Inverted and invariant guards are monotone too; `Eq` guards are not.
    #[test]
    fn guard_monotonicity_is_classified_per_comparison() {
        let a = Buffer::new("A", DType::F32, vec![1024], MemScope::Global);
        let build = |cond: fn(Expr, Expr) -> Expr| {
            let i = Var::new("i");
            let body = Stmt::if_then(
                cond(Expr::var(&i).mul(Expr::int(2)), Expr::int(37)),
                Stmt::store(&a, Expr::var(&i), Expr::float(1.0)),
            );
            Stmt::for_serial(i, 24i64, body)
        };
        for (name, cond, summarizable) in [
            (
                "lt",
                (|l: Expr, r: Expr| l.lt(r)) as fn(Expr, Expr) -> Expr,
                true,
            ),
            ("le", |l: Expr, r: Expr| l.le(r), true),
            ("gt", |l: Expr, r: Expr| l.gt(r), true),
            ("ge", |l: Expr, r: Expr| l.ge(r), true),
            ("eq", |l: Expr, r: Expr| l.eq_expr(r), false),
        ] {
            let prog = build(cond);
            let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
            assert_eq!(
                stats.loops_summarized >= 1,
                summarizable,
                "{name}: {stats:?}"
            );
        }
    }

    /// Two individually-monotone guards of *opposite* direction in one body
    /// (head/tail peeling) would alias in anonymous event counts: probes at
    /// 0, 1 and n-1 each see exactly one store, yet the middle iterations
    /// see none.  The probe's branch-direction sequence comparison must
    /// detect the flips and split the range at them — the equivalence
    /// assertion fails loudly if bulk totals were ever extrapolated.
    #[test]
    fn opposite_direction_guard_pairs_cannot_alias_the_probe() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let head = Stmt::if_then(
            Expr::var(&i).lt(Expr::int(16)),
            Stmt::store(&a, Expr::int(0), Expr::float(1.0)),
        );
        let tail = Stmt::if_then(
            Expr::var(&i).ge(Expr::int(20)),
            Stmt::store(&a, Expr::int(0), Expr::float(2.0)),
        );
        let prog = Stmt::for_serial(i, 32i64, Stmt::seq(vec![head, tail]));
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        // Statically both guards are monotone, so the loop is *marked*; the
        // runtime probes split it into [0, 16) and [16, 20) and iterate the
        // last 12, which the equivalence assertion above proved exact.
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
        assert_eq!(pieces(&prog, |s| s.alloc(&a, 0)), (2, 2));
    }

    /// The same-direction multi-guard pattern of real lowered kernels (one
    /// boundary check per cache read/compute/write-back) stays summarizable
    /// and exact.
    #[test]
    fn same_condition_guard_groups_still_summarize() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let b = Buffer::new("B", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let guard =
            |body: Stmt| Stmt::if_then(Expr::var(&i).mul(Expr::int(2)).lt(Expr::int(1000)), body);
        let prog = Stmt::for_serial(
            i.clone(),
            24i64,
            Stmt::seq(vec![
                guard(Stmt::store(&a, Expr::var(&i), Expr::float(1.0))),
                guard(Stmt::store(&b, Expr::var(&i), Expr::float(2.0))),
                guard(Stmt::store(&a, Expr::var(&i), Expr::float(3.0))),
            ]),
        );
        let stats = assert_optimized_equivalent(
            &prog,
            |s| {
                s.alloc(&a, 0);
                s.alloc(&b, 0);
            },
            &[&a, &b],
        );
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
    }

    /// A guarded DMA: the guard is monotone and the transfer size affine, so
    /// the loop summarizes — and when the guard actually flips inside the
    /// range, the runtime probes detect the diverging event shape and split
    /// the range at the flip with identical totals.
    #[test]
    fn guarded_dma_loops_summarize_with_exact_totals() {
        let mram = Buffer::new("M", DType::F32, vec![4096], MemScope::Mram);
        let wram = Buffer::new("W", DType::F32, vec![64], MemScope::Wram);
        let i = Var::new("i");
        let body = Stmt::if_then(
            Expr::var(&i).mul(Expr::int(64)).lt(Expr::int(1000)),
            Stmt::Dma {
                dst: wram.clone(),
                dst_off: Expr::int(0),
                src: mram.clone(),
                src_off: Expr::var(&i).mul(Expr::int(64)),
                elems: Expr::int(64),
            },
        );
        let prog = Stmt::for_serial(i.clone(), 32i64, body);
        let stats = assert_optimized_equivalent(
            &prog,
            |s| {
                s.alloc(&mram, 0);
                s.alloc(&wram, 0);
            },
            &[],
        );
        // The guard flips at i=16: pieces [0, 16) and [16, 32), which the
        // equivalence assertion above already proved exact.
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
        let setup = |s: &mut MemoryStore| {
            s.alloc(&mram, 0);
            s.alloc(&wram, 0);
        };
        assert_eq!(pieces(&prog, setup), (2, 1));
    }

    #[test]
    fn min_max_dma_sizes_are_not_marked_summarizable() {
        let mram = Buffer::new("M", DType::F32, vec![1024], MemScope::Mram);
        let wram = Buffer::new("W", DType::F32, vec![64], MemScope::Wram);
        let i = Var::new("i");
        // The classic tail tile: elems = min(64, 1000 - i*64) is piecewise
        // linear, which the three-point probe could not soundly verify; the
        // static analysis must reject it outright.
        let prog = Stmt::for_serial(
            i.clone(),
            16i64,
            Stmt::Dma {
                dst: wram.clone(),
                dst_off: Expr::int(0),
                src: mram.clone(),
                src_off: Expr::var(&i).mul(Expr::int(64)),
                elems: Expr::int(64).min(Expr::int(1000).sub(Expr::var(&i).mul(Expr::int(64)))),
            },
        );
        let stats = assert_optimized_equivalent(
            &prog,
            |s| {
                s.alloc(&mram, 0);
                s.alloc(&wram, 0);
            },
            &[],
        );
        assert_eq!(stats.loops_summarized, 0, "{stats:?}");
    }

    /// Builds `for d in 0..dpus { for r in 0..rows { h2d(elems) } }` over
    /// buffers sized for `chunk`-element tiles; `elems` sees `(d, r)`.
    fn transfer_nest(
        dpus: i64,
        rows: i64,
        chunk: i64,
        elems: impl Fn(&Var, &Var) -> Expr,
    ) -> (Stmt, Arc<Buffer>, Arc<Buffer>) {
        let global = Buffer::new("G", DType::F32, vec![dpus * rows * chunk], MemScope::Global);
        let mram = Buffer::new("M", DType::F32, vec![rows * chunk], MemScope::Mram);
        let d = Var::new("d");
        let r = Var::new("r");
        let xfer = Stmt::HostTransfer {
            dir: TransferDir::H2D,
            dpu: Expr::var(&d),
            global: global.clone(),
            global_off: Expr::var(&d)
                .mul(Expr::int(rows))
                .add(Expr::var(&r))
                .mul(Expr::int(chunk)),
            mram: mram.clone(),
            mram_off: Expr::var(&r).mul(Expr::int(chunk)),
            elems: elems(&d, &r),
            parallel: true,
        };
        let nest = Stmt::for_serial(d, dpus, Stmt::for_serial(r, rows, xfer));
        (nest, global, mram)
    }

    /// Counts how a program's transfers reach the tracer.
    #[derive(Default)]
    struct TransferArrivals {
        scalar: usize,
        bulk_calls: u64,
    }

    impl crate::eval::Tracer for TransferArrivals {
        fn host_transfer(&mut self, _: TransferDir, _: i64, _: usize, _: bool) {
            self.scalar += 1;
        }
        fn bulk(&mut self, events: &crate::eval::BulkEvents) {
            self.bulk_calls += events.transfers.iter().map(|g| g.calls).sum::<u64>();
        }
    }

    fn arrivals(stmt: &Stmt) -> TransferArrivals {
        let mut seen = TransferArrivals::default();
        CompiledRunner::new(&CompiledProgram::compile(stmt).optimize())
            .run(&mut MemoryStore::new(), &mut seen, ExecMode::TimingOnly)
            .unwrap();
        seen
    }

    #[test]
    fn aligned_transfer_nests_summarize_at_every_level() {
        let (nest, global, mram) = transfer_nest(32, 16, 8, |_, _| Expr::int(8));
        let stats = assert_optimized_equivalent(&nest, |s| s.alloc(&global, 0), &[&global, &mram]);
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");
        // The whole nest reaches the tracer as one batch.
        let seen = arrivals(&nest);
        assert_eq!((seen.scalar, seen.bulk_calls), (0, 32 * 16));
    }

    #[test]
    fn affine_transfer_sizes_summarize_with_exact_byte_totals() {
        // Sizes grow with both loops: every level is an arithmetic series.
        let (nest, global, mram) = transfer_nest(8, 16, 32, |d, r| {
            Expr::var(d)
                .mul(Expr::int(2))
                .add(Expr::var(r))
                .add(Expr::int(1))
        });
        let stats = assert_optimized_equivalent(&nest, |s| s.alloc(&global, 0), &[&global, &mram]);
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");
        let seen = arrivals(&nest);
        assert_eq!((seen.scalar, seen.bulk_calls), (0, 8 * 16));

        // `r - 2` is statically affine but clamps to zero on the first two
        // rows: the row loop is marked, its probe sees non-collinear bytes
        // and iterates; the DPU loop above it still summarizes exactly.
        let (nest, global, mram) = transfer_nest(32, 16, 16, |_, r| Expr::var(r).sub(Expr::int(2)));
        let stats = assert_optimized_equivalent(&nest, |s| s.alloc(&global, 0), &[&global, &mram]);
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");

        // `r / 2` is not affine in `r`: only the DPU loop, where it is
        // invariant per row, is marked.
        let (nest, global, mram) =
            transfer_nest(32, 16, 8, |_, r| Expr::var(r).floordiv(Expr::int(2)));
        let stats = assert_optimized_equivalent(&nest, |s| s.alloc(&global, 0), &[&global, &mram]);
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
    }

    /// The misaligned tail clamp `max(0, min(chunk, E - d*chunk))` is not
    /// affine in `d`: that level iterates, its row loop still summarizes.
    #[test]
    fn clamped_transfer_levels_iterate_with_inner_loops_summarized() {
        let (nest, global, mram) = transfer_nest(20, 16, 8, |d, _| {
            Expr::int(0).max(Expr::int(8).min(Expr::int(100).sub(Expr::var(d).mul(Expr::int(8)))))
        });
        let stats = assert_optimized_equivalent(&nest, |s| s.alloc(&global, 0), &[&global, &mram]);
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
        let seen = arrivals(&nest);
        assert_eq!((seen.scalar, seen.bulk_calls), (0, 20 * 16));
    }

    /// Regression: a hoistable operand *preceding* a `Select` operand must
    /// not have its harvest region extended over the select's condition —
    /// that once produced a hoisted expression missing its own value and a
    /// stack underflow at runtime.
    #[test]
    fn hoisting_respects_select_sibling_operand_boundaries() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let n = Var::new("n");
        let m = Var::new("m");
        // Invariant index `n*m + n` (hoistable, 3+ insts) followed by a
        // select whose condition depends on the loop variable.
        let idx = Expr::var(&n).mul(Expr::var(&m)).add(Expr::var(&n));
        let value = Expr::Select(
            Box::new(Expr::var(&i).lt(Expr::int(4))),
            Box::new(Expr::float(1.0)),
            Box::new(Expr::float(2.0)),
        );
        let prog = Stmt::for_serial(i, 8i64, Stmt::store(&a, idx, value));

        let optimized = CompiledProgram::compile(&prog).optimize();
        for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
            let mut tree_store = MemoryStore::new();
            tree_store.alloc(&a, 0);
            let mut tree_tracer = CountingTracer::default();
            let mut interp = Interpreter::new(&mut tree_store, &mut tree_tracer, mode);
            interp.bind(&n, 3);
            interp.bind(&m, 2);
            interp.run(&prog).unwrap();

            let mut opt_store = MemoryStore::new();
            opt_store.alloc(&a, 0);
            let mut opt_tracer = CountingTracer::default();
            let mut runner = CompiledRunner::new(&optimized);
            runner.bind(&n, 3);
            runner.bind(&m, 2);
            runner.run(&mut opt_store, &mut opt_tracer, mode).unwrap();

            assert_eq!(tree_tracer, opt_tracer, "tracer counts diverge in {mode:?}");
            assert_eq!(tree_store.read_all(&a, 0), opt_store.read_all(&a, 0));
        }
    }

    /// Regression: the same boundary hazard through `&&`/`||` — the
    /// short-circuit construct's value region must start at its lhs.
    #[test]
    fn hoisting_respects_short_circuit_sibling_operand_boundaries() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let n = Var::new("n");
        let m = Var::new("m");
        let idx = Expr::var(&n).mul(Expr::var(&m)).add(Expr::var(&n));
        // Store value = (i < 4 && i > 1) as an arithmetic operand.
        let value = Expr::Cast(
            DType::F32,
            Box::new(
                Expr::var(&i)
                    .lt(Expr::int(4))
                    .and(Expr::var(&i).gt(Expr::int(1))),
            ),
        );
        let prog = Stmt::for_serial(i, 8i64, Stmt::store(&a, idx, value));

        let optimized = CompiledProgram::compile(&prog).optimize();
        for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
            let mut tree_store = MemoryStore::new();
            tree_store.alloc(&a, 0);
            let mut tree_tracer = CountingTracer::default();
            let mut interp = Interpreter::new(&mut tree_store, &mut tree_tracer, mode);
            interp.bind(&n, 3);
            interp.bind(&m, 2);
            interp.run(&prog).unwrap();

            let mut opt_store = MemoryStore::new();
            opt_store.alloc(&a, 0);
            let mut opt_tracer = CountingTracer::default();
            let mut runner = CompiledRunner::new(&optimized);
            runner.bind(&n, 3);
            runner.bind(&m, 2);
            runner.run(&mut opt_store, &mut opt_tracer, mode).unwrap();

            assert_eq!(tree_tracer, opt_tracer, "tracer counts diverge in {mode:?}");
            assert_eq!(tree_store.read_all(&a, 0), opt_store.read_all(&a, 0));
        }
    }

    /// Runs the optimized `stmt` timing-only, returning how many bulk
    /// batches reached the tracer and how many pieces ended before their
    /// loop's last iteration.
    fn pieces(stmt: &Stmt, setup: impl Fn(&mut MemoryStore)) -> (usize, u64) {
        struct Bulks(usize);
        impl crate::eval::Tracer for Bulks {
            fn bulk(&mut self, _: &crate::eval::BulkEvents) {
                self.0 += 1;
            }
        }
        let optimized = CompiledProgram::compile(stmt).optimize();
        let mut runner = CompiledRunner::new(&optimized);
        let mut store = MemoryStore::new();
        setup(&mut store);
        let mut bulks = Bulks(0);
        runner
            .run(&mut store, &mut bulks, ExecMode::TimingOnly)
            .unwrap();
        (bulks.0, runner.split_pieces())
    }

    /// A monotone guard that flips once inside a long loop: bisection finds
    /// the flip and both sides reach the tracer as exact pieces.
    #[test]
    fn a_guard_flip_splits_the_loop_into_two_exact_pieces() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        // 3·i < 100 holds for i <= 33: pieces [0, 34) and [34, 64).
        let body = Stmt::if_then(
            Expr::var(&i).mul(Expr::int(3)).lt(Expr::int(100)),
            Stmt::store(&a, Expr::var(&i), Expr::float(1.0)),
        );
        let prog = Stmt::for_serial(i, 64i64, body);
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
        assert_eq!(pieces(&prog, |s| s.alloc(&a, 0)), (2, 1));
    }

    /// The misaligned tile's tightened extent `min(chunk, E − origin)` is
    /// concave in the chunk loop: the chunk loop summarizes as one full-tile
    /// piece and iterates only over the tail.
    #[test]
    fn tail_clamped_nested_extents_summarize_in_pieces() {
        let a = Buffer::new("A", DType::F32, vec![256], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        // min(2, 150 - 2·i) is 2 for i <= 74, then 0, -2, -4, ...
        let extent = Expr::int(2).min(Expr::int(150).sub(Expr::var(&i).mul(Expr::int(2))));
        let body = Stmt::for_serial(
            j.clone(),
            extent,
            Stmt::store(
                &a,
                Expr::var(&i).mul(Expr::int(2)).add(Expr::var(&j)),
                Expr::float(1.0),
            ),
        );
        let prog = Stmt::for_serial(i, 100i64, body);
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");
        // The full-tile piece [0, 75), then one-iteration pieces while 16
        // or more iterations remain: [75, 76) … [83, 84).
        assert_eq!(pieces(&prog, |s| s.alloc(&a, 0)), (MAX_PIECE_ATTEMPTS, 1));
    }

    /// A concave nested extent that is `<= 0` at iterations 0, 1 and n-1
    /// but positive between them: every probe *enters* the inner loop zero
    /// times, so comparing entered iterations would summarize the loop as
    /// empty.  The probes compare raw extents, which differ.
    #[test]
    fn concave_extents_nonpositive_at_the_probes_count_exactly() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        let tent = Expr::var(&i)
            .sub(Expr::int(10))
            .min(Expr::int(30).sub(Expr::var(&i)));
        let prog = Stmt::for_serial(
            i,
            40i64,
            Stmt::for_serial(
                j.clone(),
                tent,
                Stmt::store(&a, Expr::var(&j), Expr::float(1.0)),
            ),
        );
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");
    }

    /// A triangular nest (the inner extent is the outer induction variable)
    /// never repeats a shape: each attempt applies one iteration, and after
    /// `MAX_PIECE_ATTEMPTS` the rest of the loop runs normally — exactly.
    #[test]
    fn triangular_loops_stay_exact_and_stop_after_the_cap() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        // The `Eq` guard keeps the inner loop itself unsummarized, so every
        // batch the tracer sees is one of the outer loop's pieces.
        let body = Stmt::if_then(
            Expr::var(&j).eq_expr(Expr::int(3)),
            Stmt::store(&a, Expr::var(&j), Expr::float(1.0)),
        );
        let prog = Stmt::for_serial(i.clone(), 64i64, Stmt::for_serial(j, Expr::var(&i), body));
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert_eq!(stats.loops_summarized, 1, "{stats:?}");
        assert_eq!(pieces(&prog, |s| s.alloc(&a, 0)), (MAX_PIECE_ATTEMPTS, 0));
    }

    /// Loops nested two levels deep keep invariant extents: a directly
    /// nested loop may reach the probe as one bulk batch, which would hide
    /// a varying grandchild extent.
    #[test]
    fn varying_extents_below_a_direct_child_are_not_marked() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let (i, j, k) = (Var::new("i"), Var::new("j"), Var::new("k"));
        let inner_extent = Expr::int(4).min(Expr::int(40).sub(Expr::var(&i)));
        let prog = Stmt::for_serial(
            i,
            48i64,
            Stmt::for_serial(
                j,
                16i64,
                Stmt::for_serial(
                    k.clone(),
                    inner_extent,
                    Stmt::store(&a, Expr::var(&k), Expr::float(1.0)),
                ),
            ),
        );
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        // `k` and `j` (whose direct child varies with an outer, invariant
        // `i`) are marked; `i` is not.
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");
    }

    /// Guards of the outer induction variable inside a nested loop that
    /// reaches the outer probe as one bulk batch: the batch carries branch
    /// counts only, and the head/tail pair below sees one store per inner
    /// iteration at outer iterations 0, 1 and n-1 but none in between.  The
    /// probes compare the guard directions of every nested piece.
    #[test]
    fn opposite_direction_guards_cannot_hide_in_nested_summaries() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        let head = Stmt::if_then(
            Expr::var(&i).lt(Expr::int(16)),
            Stmt::store(&a, Expr::var(&j), Expr::float(1.0)),
        );
        let tail = Stmt::if_then(
            Expr::var(&i).ge(Expr::int(20)),
            Stmt::store(&a, Expr::var(&j), Expr::float(2.0)),
        );
        let prog = Stmt::for_serial(
            i,
            32i64,
            Stmt::for_serial(j, 16i64, Stmt::seq(vec![head, tail])),
        );
        let stats = assert_optimized_equivalent(&prog, |s| s.alloc(&a, 0), &[&a]);
        assert_eq!(stats.loops_summarized, 2, "{stats:?}");
    }

    #[test]
    fn optimized_programs_dispatch_fewer_instructions() {
        let a = Buffer::new("A", DType::F32, vec![64], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        let idx = Expr::var(&i).mul(Expr::int(8)).add(Expr::var(&j));
        let prog = Stmt::for_serial(
            i,
            8i64,
            Stmt::for_serial(j, 8i64, Stmt::store(&a, idx, Expr::float(1.0))),
        );
        let base = CompiledProgram::compile(&prog);
        let optimized = base.optimize();
        assert!(
            optimized.len() < base.len(),
            "optimized {} vs base {}",
            optimized.len(),
            base.len()
        );
        assert!(optimized.summarized_loops() >= 1);
    }
}
