//! Pre-lowered execution of TIR programs.
//!
//! The tree-walking [`Interpreter`](super::Interpreter) re-matches on every
//! [`Stmt`]/[`Expr`] node and re-hashes every [`Var`] id on every loop
//! iteration.  That cost is invisible for one-shot functional runs but
//! dominates autotuning: one measurement interprets the same kernel body for
//! several simulated DPUs, and a tuning session performs hundreds of
//! measurements.
//!
//! [`CompiledProgram::compile`] walks the statement tree **once**, resolving
//! every variable to a dense slot index and flattening all control flow into
//! a linear instruction buffer with explicit jumps.  Executing the buffer is
//! a tight `match` loop over contiguous memory: no recursion, no hashing, no
//! re-simplification.  The program is immutable and `Send + Sync`, so one
//! compiled kernel is shared by every simulated DPU — and by every
//! measurement worker thread in the batch-parallel autotuner.
//!
//! Semantics (including the exact [`Tracer`] event sequence and the
//! [`ExecMode`] contract) are identical to the tree interpreter; the
//! equivalence tests at the bottom of this file and the property tests in
//! `tests/proptests.rs` pin that.

use std::collections::HashMap;
use std::sync::Arc;

use crate::buffer::{Buffer, Var};
use crate::error::{Result, TirError};
use crate::expr::{BinOp, CmpOp, Expr};
use crate::stmt::{Stmt, TransferDir};

use super::{
    eval_binary, eval_cmp, BulkEvents, ExecMode, MemoryStore, Tracer, TransferGroup, Value,
};

/// One flat instruction.  Expressions are compiled to stack operations,
/// statements to instructions with explicit jump targets.
///
/// The variants below the `Barrier` marker are never produced by
/// [`CompiledProgram::compile`]; they are introduced by the bytecode
/// optimizer ([`CompiledProgram::optimize`]) and carry the tracer-event
/// counts of the code they replaced, so an optimized program reports the
/// exact same event totals as the original.
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a float constant.
    PushFloat(f32),
    /// Push the value of a variable slot (error if unbound).
    PushVar(u32),
    /// Pop two values, apply a binary operator, push the result.
    Binary(BinOp),
    /// Pop two values, compare, push the boolean as an integer.
    Cmp(CmpOp),
    /// Pop one value, push its logical negation.
    Not,
    /// Pop one value, cast it.
    Cast { to_float: bool },
    /// Short-circuit `&&`: pop the lhs; if false push `0` and jump to `end`.
    AndShortCircuit { end: usize },
    /// Short-circuit `||`: pop the lhs; if true push `1` and jump to `end`.
    OrShortCircuit { end: usize },
    /// Pop a value, push `1` if it is true else `0` (rhs of `&&`/`||`).
    BoolCast,
    /// `Select`: pop the condition; fall through into the then-code or jump
    /// to the else-code.
    SelectBranch { else_pc: usize },
    /// Unconditional jump.
    Jump(usize),
    /// Pop the (already evaluated) index, load from the buffer.
    Load { buf: Arc<Buffer> },
    /// Pop value then index, store to the buffer.
    Store { buf: Arc<Buffer> },
    /// Pop and discard a value (`Stmt::Evaluate`).
    Pop,
    /// Loop header: pop the extent; save the slot, enter the loop or jump
    /// past it when the extent is not positive.  `summary` indexes
    /// [`CompiledProgram::summaries`] when the optimizer proved the body
    /// collapsible in [`ExecMode::TimingOnly`].
    LoopEnter {
        slot: u32,
        end: usize,
        summary: Option<u32>,
    },
    /// Loop back-edge: advance the induction variable or exit the loop.
    LoopBack { body: usize },
    /// `If`: pop the condition, trace the branch, jump on false.
    Branch { else_pc: usize },
    /// Scoped allocation (no-op unless functional and unallocated).
    Alloc { buf: Arc<Buffer> },
    /// Pop elems, src_off, dst_off; trace and perform the DMA.
    Dma { dst: Arc<Buffer>, src: Arc<Buffer> },
    /// Pop elems, mram_off, global_off, dpu; trace and perform the transfer.
    HostTransfer {
        dir: TransferDir,
        global: Arc<Buffer>,
        mram: Arc<Buffer>,
        parallel: bool,
    },
    /// Tasklet barrier.
    Barrier,

    // --- optimizer-introduced instructions --------------------------------
    /// Push a pre-folded constant; `alu` is the number of scalar operations
    /// the folded expression would have traced.
    PushConst { value: Value, alu: u32 },
    /// Push `var * scale + offset` — a strength-reduced affine index chain.
    AffineVar {
        slot: u32,
        scale: i64,
        offset: i64,
        alu: u32,
    },
    /// Push `a * a_scale + b * b_scale + offset` (two-variable affine form,
    /// the `i * K + j` shape of most lowered buffer indices).
    AffineSum {
        a: u32,
        a_scale: i64,
        b: u32,
        b_scale: i64,
        offset: i64,
        alu: u32,
    },
    /// Trace `n` ALU operations with no stack effect (the residue of an
    /// eliminated evaluate-and-discard sequence).
    AluOps { n: u32 },
    /// Evaluate the hoisted loop-invariant expression
    /// [`CompiledProgram::hoisted`]`[idx]` into its cache slot, untraced.
    /// Runs once per loop entry, between the loop header and the body.
    EvalHoisted { idx: u32 },
    /// Push the cached value of hoisted expression `idx`, tracing the `alu`
    /// operations the in-loop computation would have performed.
    PushHoisted { idx: u32, alu: u32 },
}

/// The instruction range of a loop body the optimizer proved summarizable:
/// well-nested, guarded only by monotone conditions, with directly nested
/// loop extents invariant, affine, concave or convex, and with all DMA and
/// host-transfer sizes affine in the induction variable (see `opt`).  In
/// [`ExecMode::TimingOnly`], the runner splits the iterations into
/// constant-shape pieces, probes the first two and the last iteration of
/// each into a scratch recorder, verifies the event deltas are linear, and
/// applies each piece as one [`BulkEvents`] batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopSummary {
    /// First instruction of the loop body.
    pub(crate) body_start: u32,
    /// One past the last body instruction (the `LoopBack`'s pc).
    pub(crate) body_end: u32,
}

/// A loop-invariant expression hoisted out of a loop body: a self-contained
/// pure instruction sequence evaluated once per loop entry (untraced) whose
/// result the body reads through [`Inst::PushHoisted`].
#[derive(Debug, Clone)]
pub(crate) struct HoistedExpr {
    pub(crate) insts: Vec<Inst>,
}

/// An active loop on the runner's loop stack.
#[derive(Debug, Clone, Copy)]
struct LoopFrame {
    slot: u32,
    extent: i64,
    iter: i64,
    prev: Option<i64>,
}

/// A [`Stmt`] tree compiled to a flat instruction buffer with dense variable
/// slots.
///
/// Compile once, run many times — across DPU contexts, bindings and
/// execution modes.  The program is immutable and `Send + Sync`.
///
/// ```
/// use atim_tir::eval::{CompiledProgram, CompiledRunner, CountingTracer, ExecMode, MemoryStore};
/// use atim_tir::{Buffer, DType, Expr, MemScope, Stmt, Var};
///
/// let a = Buffer::new("A", DType::F32, vec![8], MemScope::Global);
/// let i = Var::new("i");
/// let prog = Stmt::for_serial(i.clone(), 8i64, Stmt::store(&a, Expr::var(&i), Expr::float(1.0)));
/// let compiled = CompiledProgram::compile(&prog);
///
/// let mut store = MemoryStore::new();
/// store.alloc(&a, 0);
/// let mut tracer = CountingTracer::default();
/// CompiledRunner::new(&compiled)
///     .run(&mut store, &mut tracer, ExecMode::Functional)
///     .unwrap();
/// assert_eq!(tracer.stores, 8);
/// assert_eq!(store.read_all(&a, 0).unwrap(), &[1.0f32; 8]);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) insts: Vec<Inst>,
    /// Var id → dense slot.
    pub(crate) slots: HashMap<u32, u32>,
    /// Slot → variable name (for error messages).
    pub(crate) names: Vec<Arc<str>>,
    /// Summarizable loop bodies (filled by the optimizer).
    pub(crate) summaries: Vec<LoopSummary>,
    /// Hoisted loop-invariant expressions (filled by the optimizer).
    pub(crate) hoisted: Vec<HoistedExpr>,
}

impl CompiledProgram {
    /// Compiles a statement tree into a flat program.
    pub fn compile(stmt: &Stmt) -> CompiledProgram {
        let mut c = Compiler {
            insts: Vec::new(),
            slots: HashMap::new(),
            names: Vec::new(),
        };
        c.stmt(stmt);
        CompiledProgram {
            insts: c.insts,
            slots: c.slots,
            names: c.names,
            summaries: Vec::new(),
            hoisted: Vec::new(),
        }
    }

    /// Number of summarizable loops the optimizer marked (diagnostics).
    pub fn summarized_loops(&self) -> usize {
        self.summaries.len()
    }

    /// Number of flat instructions (for diagnostics and tests).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    fn slot_of(&self, var: &Var) -> Option<u32> {
        self.slots.get(&var.id).copied()
    }
}

struct Compiler {
    insts: Vec<Inst>,
    slots: HashMap<u32, u32>,
    names: Vec<Arc<str>>,
}

impl Compiler {
    fn slot(&mut self, var: &Var) -> u32 {
        if let Some(&s) = self.slots.get(&var.id) {
            return s;
        }
        let s = self.names.len() as u32;
        self.slots.insert(var.id, s);
        self.names.push(Arc::clone(&var.name));
        s
    }

    /// Emits a placeholder jump target, to be patched once known.
    fn emit(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        match &mut self.insts[at] {
            Inst::AndShortCircuit { end }
            | Inst::OrShortCircuit { end }
            | Inst::LoopEnter { end, .. } => *end = target,
            Inst::SelectBranch { else_pc } | Inst::Branch { else_pc } => *else_pc = target,
            Inst::Jump(t) => *t = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(v) => {
                self.emit(Inst::PushInt(*v));
            }
            Expr::Float(v) => {
                self.emit(Inst::PushFloat(*v));
            }
            Expr::Var(v) => {
                let slot = self.slot(v);
                self.emit(Inst::PushVar(slot));
            }
            Expr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Inst::Binary(*op));
            }
            Expr::Cmp(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Inst::Cmp(*op));
            }
            Expr::And(a, b) => {
                self.expr(a);
                let sc = self.emit(Inst::AndShortCircuit { end: 0 });
                self.expr(b);
                self.emit(Inst::BoolCast);
                let end = self.here();
                self.patch(sc, end);
            }
            Expr::Or(a, b) => {
                self.expr(a);
                let sc = self.emit(Inst::OrShortCircuit { end: 0 });
                self.expr(b);
                self.emit(Inst::BoolCast);
                let end = self.here();
                self.patch(sc, end);
            }
            Expr::Not(a) => {
                self.expr(a);
                self.emit(Inst::Not);
            }
            Expr::Select(c, a, b) => {
                self.expr(c);
                let sel = self.emit(Inst::SelectBranch { else_pc: 0 });
                self.expr(a);
                let skip = self.emit(Inst::Jump(0));
                let else_pc = self.here();
                self.patch(sel, else_pc);
                self.expr(b);
                let end = self.here();
                self.patch(skip, end);
            }
            Expr::Load { buf, index } => {
                self.expr(index);
                self.emit(Inst::Load {
                    buf: Arc::clone(buf),
                });
            }
            Expr::Cast(dt, a) => {
                self.expr(a);
                self.emit(Inst::Cast {
                    to_float: dt.is_float(),
                });
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Seq(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
            Stmt::Nop => {}
            Stmt::For {
                var,
                extent,
                kind: _, // parallel loop kinds execute sequentially, like the interpreter
                body,
            } => {
                self.expr(extent);
                let slot = self.slot(var);
                let enter = self.emit(Inst::LoopEnter {
                    slot,
                    end: 0,
                    summary: None,
                });
                let body_pc = self.here();
                self.stmt(body);
                self.emit(Inst::LoopBack { body: body_pc });
                let end = self.here();
                self.patch(enter, end);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                let br = self.emit(Inst::Branch { else_pc: 0 });
                self.stmt(then_branch);
                match else_branch {
                    Some(e) => {
                        let skip = self.emit(Inst::Jump(0));
                        let else_pc = self.here();
                        self.patch(br, else_pc);
                        self.stmt(e);
                        let end = self.here();
                        self.patch(skip, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(br, end);
                    }
                }
            }
            Stmt::Store { buf, index, value } => {
                self.expr(index);
                self.expr(value);
                self.emit(Inst::Store {
                    buf: Arc::clone(buf),
                });
            }
            Stmt::Alloc { buf, body } => {
                self.emit(Inst::Alloc {
                    buf: Arc::clone(buf),
                });
                self.stmt(body);
            }
            Stmt::Dma {
                dst,
                dst_off,
                src,
                src_off,
                elems,
            } => {
                self.expr(dst_off);
                self.expr(src_off);
                self.expr(elems);
                self.emit(Inst::Dma {
                    dst: Arc::clone(dst),
                    src: Arc::clone(src),
                });
            }
            Stmt::HostTransfer {
                dir,
                dpu,
                global,
                global_off,
                mram,
                mram_off,
                elems,
                parallel,
            } => {
                self.expr(dpu);
                self.expr(global_off);
                self.expr(mram_off);
                self.expr(elems);
                self.emit(Inst::HostTransfer {
                    dir: *dir,
                    global: Arc::clone(global),
                    mram: Arc::clone(mram),
                    parallel: *parallel,
                });
            }
            Stmt::Barrier => {
                self.emit(Inst::Barrier);
            }
            Stmt::Evaluate(e) => {
                self.expr(e);
                self.emit(Inst::Pop);
            }
        }
    }
}

/// Executes a [`CompiledProgram`] against a [`MemoryStore`].
///
/// Mirrors the [`Interpreter`](super::Interpreter) session API: select a DPU
/// context with [`CompiledRunner::set_dpu`], bind free variables (grid
/// coordinates) with [`CompiledRunner::bind`], then [`CompiledRunner::run`].
/// The runner owns the mutable execution state (variable slots, value stack,
/// loop stack), so many runners can share one program — including from
/// different threads.
pub struct CompiledRunner<'p> {
    prog: &'p CompiledProgram,
    vars: Vec<Option<i64>>,
    stack: Vec<Value>,
    loops: Vec<LoopFrame>,
    dpu: i64,
    /// Cached values of hoisted loop-invariant expressions.
    hoisted_vals: Vec<Option<Value>>,
    /// Summarized pieces that ended before their loop's last iteration.
    split_pieces: u64,
    /// One log per active probe of the pieces applied inside it (see
    /// `ProbeEvents::nested_pieces`).
    probe_logs: Vec<Vec<PieceDirs>>,
}

/// Minimum extent at which a summarizable loop is worth probing: the probe
/// executes three iterations plus recording overhead, so short loops (the
/// 2–8-iteration tile loops every kernel also contains) run faster straight.
const SUMMARIZE_MIN_EXTENT: i64 = 16;

/// Cap on the pieces [`CompiledRunner::summarize_pieces`] tries per loop
/// entry; the iterations left after the last piece run normally.  Lowered
/// kernels split into at most three pieces (a full-tile body, a tail whose
/// clamped extent or boundary guard bites, and the empty rest), and each
/// attempt probes at most `3 + log2(n)` iterations.
pub(crate) const MAX_PIECE_ATTEMPTS: usize = 8;

/// `(guard directions of one iteration, iterations)` of a summarized piece.
type PieceDirs = (Vec<(bool, u64)>, i64);

/// Scratch recorder for one probe iteration of a summarizable loop body.
/// Event *counts* are fixed by the instruction sequence once the guard
/// directions and raw nested extents agree; only the byte totals of DMA and
/// host-transfer *sites* can vary across iterations.  Loads/stores are run-length encoded so deeply nested bodies
/// stay compact; nested summarized loops land as one aggregated DMA site
/// and one aggregated transfer site per `(dir, parallel)` via the
/// [`Tracer::bulk`] override (sums of convex per-request byte functions are
/// convex, so the three-point check stays sound).
#[derive(Debug, Clone, Default, PartialEq)]
struct ProbeEvents {
    alu: u64,
    /// `(scope, bytes, count)` runs in event order.
    loads: Vec<(crate::buffer::MemScope, usize, u64)>,
    stores: Vec<(crate::buffer::MemScope, usize, u64)>,
    /// Guard branches evaluated (this body's own plus, via `bulk`, those of
    /// nested summarized loops).
    branches: u64,
    /// The *direction sequence* of this body's own guard branches, RLE
    /// encoded.  Compared verbatim across the three probes of a piece:
    /// every guard is statically monotone, and a monotone boolean that
    /// takes the same direction at iterations `a`, `a+1` and `b-1` is
    /// constant on `[a, b)` — so equal sequences pin every guard (even
    /// several per body, including opposite-direction pairs that would
    /// alias in the anonymous event counts) and the extrapolation stays
    /// exact.  Nested summarized pieces report theirs in `nested_pieces`.
    branch_dirs: Vec<(bool, u64)>,
    /// The raw extents of the loop headers executed (RLE), compared
    /// verbatim: every directly nested extent is statically invariant,
    /// affine, concave or convex in the induction variable, and such an
    /// integer function that agrees at iterations `a`, `a+1` and `b-1` is
    /// constant on `[a, b)`.  Counting entered iterations instead would let
    /// a concave extent that is `<= 0` at the probes hide a positive
    /// stretch between them.
    extents: Vec<(i64, u64)>,
    /// The guard directions of every nested summarized piece, in order.  A
    /// bulk batch carries branch counts only, so without these a nested
    /// piece could hide guards of this loop's induction variable flipping
    /// in opposite directions.
    nested_pieces: Vec<PieceDirs>,
    /// `(requests, total bytes)` per DMA site in event order.
    dma: Vec<(u64, u64)>,
    loop_enters: u64,
    loop_iters: u64,
    barriers: u64,
    /// Host-transfer sites in event order.  The addressed DPU and the
    /// offsets are not recorded: timing-only execution never dereferences
    /// them and no tracer's totals depend on them.
    transfers: Vec<TransferGroup>,
}

fn push_rle(
    groups: &mut Vec<(crate::buffer::MemScope, usize, u64)>,
    scope: crate::buffer::MemScope,
    bytes: usize,
    count: u64,
) {
    match groups.last_mut() {
        Some(last) if last.0 == scope && last.1 == bytes => last.2 += count,
        _ => groups.push((scope, bytes, count)),
    }
}

impl Tracer for ProbeEvents {
    fn alu(&mut self, n: usize) {
        self.alu += n as u64;
    }
    fn load(&mut self, scope: crate::buffer::MemScope, bytes: usize) {
        push_rle(&mut self.loads, scope, bytes, 1);
    }
    fn store(&mut self, scope: crate::buffer::MemScope, bytes: usize) {
        push_rle(&mut self.stores, scope, bytes, 1);
    }
    fn branch(&mut self, taken: bool) {
        self.branches += 1;
        match self.branch_dirs.last_mut() {
            Some(last) if last.0 == taken => last.1 += 1,
            _ => self.branch_dirs.push((taken, 1)),
        }
    }
    fn loop_extent(&mut self, extent: i64) {
        match self.extents.last_mut() {
            Some(last) if last.0 == extent => last.1 += 1,
            _ => self.extents.push((extent, 1)),
        }
    }
    fn loop_enter(&mut self) {
        self.loop_enters += 1;
    }
    fn loop_iter(&mut self) {
        self.loop_iters += 1;
    }
    fn dma(&mut self, bytes: usize) {
        self.dma.push((1, bytes as u64));
    }
    fn host_transfer(&mut self, dir: TransferDir, _dpu: i64, bytes: usize, parallel: bool) {
        self.transfers.push(TransferGroup {
            dir,
            parallel,
            calls: 1,
            bytes: bytes as u64,
        });
    }
    fn barrier(&mut self) {
        self.barriers += 1;
    }
    fn bulk(&mut self, events: &BulkEvents) {
        // A nested summarized loop reports here: totals are exact, and its
        // DMA and transfer traffic become aggregated sites.
        self.alu += events.alu;
        for &(scope, bytes, count) in &events.loads {
            push_rle(&mut self.loads, scope, bytes, count);
        }
        for &(scope, bytes, count) in &events.stores {
            push_rle(&mut self.stores, scope, bytes, count);
        }
        self.branches += events.branches;
        self.loop_enters += events.loop_enters;
        self.loop_iters += events.loop_iters;
        if events.dma_requests > 0 {
            self.dma.push((events.dma_requests, events.dma_bytes));
        }
        self.barriers += events.barriers;
        self.transfers.extend_from_slice(&events.transfers);
    }
}

impl ProbeEvents {
    /// The iteration-invariant part of the recording (everything but the
    /// per-site byte totals).
    fn shape_matches(&self, other: &ProbeEvents) -> bool {
        self.alu == other.alu
            && self.loads == other.loads
            && self.stores == other.stores
            && self.branches == other.branches
            && self.branch_dirs == other.branch_dirs
            && self.extents == other.extents
            && self.nested_pieces == other.nested_pieces
            && self.loop_enters == other.loop_enters
            && self.loop_iters == other.loop_iters
            && self.barriers == other.barriers
            && self.dma.len() == other.dma.len()
            && self.dma.iter().zip(&other.dma).all(|(a, b)| a.0 == b.0)
            && self.transfers.len() == other.transfers.len()
            && self
                .transfers
                .iter()
                .zip(&other.transfers)
                .all(|(a, b)| (a.dir, a.parallel, a.calls) == (b.dir, b.parallel, b.calls))
    }
}

/// The total over a piece of `n` iterations of a per-site byte count
/// sampled at its first, second and last iteration, or `None` when the
/// samples are not collinear.  Per-site bytes are `max(0, elems)·dtype` of an
/// affine `elems` (or sums of those), hence convex in the iteration index: a
/// convex function that meets a line at three points, the outer two spanning
/// the piece, is that line on the whole piece, so the arithmetic series is
/// exact.
fn series_total(n: i64, b0: u64, b1: u64, blast: u64) -> Option<u64> {
    let (n, b0) = (n as i128, b0 as i128);
    let delta = b1 as i128 - b0;
    if blast as i128 != b0 + (n - 1) * delta {
        return None;
    }
    let total = n * b0 + delta * (n * (n - 1) / 2);
    Some(u64::try_from(total).expect("negative or huge byte total"))
}

/// The closed-form events of a piece of `n` iterations whose first, second
/// and last iterations recorded `p0`, `p1` and `plast` (equal shapes), or
/// `None` when some DMA or transfer site's bytes are not collinear.  A
/// one-iteration piece passes the same recording three times.
fn piece_bulk(
    n: i64,
    p0: &ProbeEvents,
    p1: &ProbeEvents,
    plast: &ProbeEvents,
) -> Option<BulkEvents> {
    let mut dma_bytes = 0;
    let mut dma_requests_per_iter = 0;
    for ((&(requests, b0), &(_, b1)), &(_, blast)) in p0.dma.iter().zip(&p1.dma).zip(&plast.dma) {
        dma_bytes += series_total(n, b0, b1, blast)?;
        dma_requests_per_iter += requests;
    }
    let mut transfers: Vec<TransferGroup> = Vec::new();
    for ((s0, s1), slast) in p0.transfers.iter().zip(&p1.transfers).zip(&plast.transfers) {
        let bytes = series_total(n, s0.bytes, s1.bytes, slast.bytes)?;
        let calls = s0.calls * n as u64;
        match transfers
            .iter_mut()
            .find(|g| (g.dir, g.parallel) == (s0.dir, s0.parallel))
        {
            Some(g) => {
                g.calls += calls;
                g.bytes += bytes;
            }
            None => transfers.push(TransferGroup {
                calls,
                bytes,
                ..*s0
            }),
        }
    }
    let n = n as u64;
    let mut bulk = BulkEvents {
        alu: p0.alu * n,
        branches: p0.branches * n,
        loop_enters: p0.loop_enters * n,
        loop_iters: n + p0.loop_iters * n,
        dma_requests: dma_requests_per_iter * n,
        dma_bytes,
        barriers: p0.barriers * n,
        transfers,
        ..BulkEvents::default()
    };
    let group = |groups: &mut Vec<(crate::buffer::MemScope, usize, u64)>,
                 events: &[(crate::buffer::MemScope, usize, u64)]| {
        for &(scope, bytes, count) in events {
            match groups.iter_mut().find(|g| g.0 == scope && g.1 == bytes) {
                Some(g) => g.2 += count * n,
                None => groups.push((scope, bytes, count * n)),
            }
        }
    };
    group(&mut bulk.loads, &p0.loads);
    group(&mut bulk.stores, &p0.stores);
    Some(bulk)
}

impl<'p> CompiledRunner<'p> {
    /// Creates a runner with no bindings, targeting DPU context 0.
    pub fn new(prog: &'p CompiledProgram) -> Self {
        CompiledRunner {
            prog,
            vars: vec![None; prog.names.len()],
            stack: Vec::with_capacity(16),
            loops: Vec::with_capacity(8),
            dpu: 0,
            hoisted_vals: vec![None; prog.hoisted.len()],
            split_pieces: 0,
            probe_logs: Vec::new(),
        }
    }

    /// Number of timing-only loop summaries, over every run of this runner,
    /// whose range was split: pieces accepted that ended before their loop's
    /// last iteration (diagnostics and tests).
    pub fn split_pieces(&self) -> u64 {
        self.split_pieces
    }

    /// Selects the DPU context used to resolve MRAM/WRAM buffer instances.
    pub fn set_dpu(&mut self, dpu: i64) {
        self.dpu = dpu;
    }

    /// Binds a free variable (e.g. DPU grid coordinates) before running.
    /// Variables the program never references are ignored.
    pub fn bind(&mut self, var: &Var, value: i64) {
        if let Some(slot) = self.prog.slot_of(var) {
            self.vars[slot as usize] = Some(value);
        }
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("compiled program stack underflow")
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    /// Returns an error on out-of-bounds accesses, unbound variables or
    /// unallocated buffers — the same conditions as the tree interpreter.
    pub fn run<T: Tracer + ?Sized>(
        &mut self,
        store: &mut MemoryStore,
        tracer: &mut T,
        mode: ExecMode,
    ) -> Result<()> {
        self.stack.clear();
        self.loops.clear();
        self.hoisted_vals.fill(None);
        self.exec(store, tracer, mode, 0, self.prog.insts.len())
    }

    /// Executes the instruction range `[start, end)`.
    fn exec<T: Tracer + ?Sized>(
        &mut self,
        store: &mut MemoryStore,
        tracer: &mut T,
        mode: ExecMode,
        start: usize,
        end: usize,
    ) -> Result<()> {
        let prog = self.prog;
        let insts = &prog.insts;
        let mut pc = start;
        while pc < end {
            match &insts[pc] {
                Inst::PushInt(v) => self.stack.push(Value::Int(*v)),
                Inst::PushFloat(v) => self.stack.push(Value::Float(*v)),
                Inst::PushVar(slot) => match self.vars[*slot as usize] {
                    Some(v) => self.stack.push(Value::Int(v)),
                    None => {
                        return Err(TirError::UnboundVar(
                            self.prog.names[*slot as usize].to_string(),
                        ))
                    }
                },
                Inst::Binary(op) => {
                    let y = self.pop();
                    let x = self.pop();
                    tracer.alu(1);
                    self.stack.push(eval_binary(*op, x, y));
                }
                Inst::Cmp(op) => {
                    let y = self.pop();
                    let x = self.pop();
                    tracer.alu(1);
                    self.stack.push(Value::Int(eval_cmp(*op, x, y) as i64));
                }
                Inst::Not => {
                    let x = self.pop();
                    tracer.alu(1);
                    self.stack.push(Value::Int(!x.is_true() as i64));
                }
                Inst::Cast { to_float } => {
                    let x = self.pop();
                    tracer.alu(1);
                    self.stack.push(if *to_float {
                        Value::Float(x.as_float())
                    } else {
                        Value::Int(x.as_int())
                    });
                }
                Inst::AndShortCircuit { end } => {
                    let x = self.pop();
                    tracer.alu(1);
                    if !x.is_true() {
                        self.stack.push(Value::Int(0));
                        pc = *end;
                        continue;
                    }
                }
                Inst::OrShortCircuit { end } => {
                    let x = self.pop();
                    tracer.alu(1);
                    if x.is_true() {
                        self.stack.push(Value::Int(1));
                        pc = *end;
                        continue;
                    }
                }
                Inst::BoolCast => {
                    let x = self.pop();
                    self.stack.push(Value::Int(x.is_true() as i64));
                }
                Inst::SelectBranch { else_pc } => {
                    let c = self.pop();
                    tracer.alu(1);
                    if !c.is_true() {
                        pc = *else_pc;
                        continue;
                    }
                }
                Inst::Jump(target) => {
                    pc = *target;
                    continue;
                }
                Inst::Load { buf } => {
                    let idx = self.pop().as_int();
                    tracer.load(buf.scope, buf.dtype.bytes());
                    let v = if mode == ExecMode::Functional {
                        let raw = store.read_elem(buf, self.dpu, idx)?;
                        if buf.dtype.is_float() {
                            Value::Float(raw)
                        } else {
                            Value::Int(raw as i64)
                        }
                    } else {
                        Value::Float(0.0)
                    };
                    self.stack.push(v);
                }
                Inst::Store { buf } => {
                    let v = self.pop().as_float();
                    let idx = self.pop().as_int();
                    tracer.store(buf.scope, buf.dtype.bytes());
                    if mode == ExecMode::Functional {
                        store.write_elem(buf, self.dpu, idx, v)?;
                    }
                }
                Inst::Pop => {
                    self.pop();
                }
                Inst::LoopEnter {
                    slot,
                    end: loop_end,
                    summary,
                } => {
                    let n = self.pop().as_int();
                    tracer.loop_extent(n);
                    tracer.loop_enter();
                    if n <= 0 {
                        pc = *loop_end;
                        continue;
                    }
                    let prev = self.vars[*slot as usize];
                    // Iterations before `first` were applied as bulk pieces.
                    let mut first = 0;
                    if mode == ExecMode::TimingOnly && n >= SUMMARIZE_MIN_EXTENT {
                        if let Some(si) = summary {
                            let info = prog.summaries[*si as usize];
                            let summarized = self.summarize_pieces(store, tracer, *slot, n, info);
                            self.vars[*slot as usize] = prev;
                            first = summarized?;
                            if first == n {
                                pc = *loop_end;
                                continue;
                            }
                        }
                    }
                    self.loops.push(LoopFrame {
                        slot: *slot,
                        extent: n,
                        iter: first,
                        prev,
                    });
                    tracer.loop_iter();
                    self.vars[*slot as usize] = Some(first);
                }
                Inst::LoopBack { body } => {
                    let frame = self.loops.last_mut().expect("loop stack underflow");
                    frame.iter += 1;
                    if frame.iter < frame.extent {
                        tracer.loop_iter();
                        self.vars[frame.slot as usize] = Some(frame.iter);
                        pc = *body;
                        continue;
                    }
                    let frame = self.loops.pop().expect("loop stack underflow");
                    self.vars[frame.slot as usize] = frame.prev;
                }
                Inst::Branch { else_pc } => {
                    let c = self.pop().is_true();
                    tracer.branch(c);
                    if !c {
                        pc = *else_pc;
                        continue;
                    }
                }
                Inst::Alloc { buf } => {
                    if mode == ExecMode::Functional && !store.contains(buf, self.dpu) {
                        store.alloc(buf, self.dpu);
                    }
                }
                Inst::Dma { dst, src } => {
                    let n = self.pop().as_int();
                    let s_off = self.pop().as_int();
                    let d_off = self.pop().as_int();
                    let bytes = (n.max(0) as usize) * dst.dtype.bytes();
                    tracer.dma(bytes);
                    if mode == ExecMode::Functional {
                        store.copy(dst, self.dpu, d_off, src, self.dpu, s_off, n)?;
                    }
                }
                Inst::HostTransfer {
                    dir,
                    global,
                    mram,
                    parallel,
                } => {
                    let n = self.pop().as_int();
                    let m_off = self.pop().as_int();
                    let g_off = self.pop().as_int();
                    let dpu_idx = self.pop().as_int();
                    let bytes = (n.max(0) as usize) * global.dtype.bytes();
                    tracer.host_transfer(*dir, dpu_idx, bytes, *parallel);
                    if mode == ExecMode::Functional {
                        match dir {
                            TransferDir::H2D => {
                                if !store.contains(mram, dpu_idx) {
                                    store.alloc(mram, dpu_idx);
                                }
                                store.copy(mram, dpu_idx, m_off, global, 0, g_off, n)?;
                            }
                            TransferDir::D2H => {
                                store.copy(global, 0, g_off, mram, dpu_idx, m_off, n)?;
                            }
                        }
                    }
                }
                Inst::Barrier => tracer.barrier(),
                Inst::PushConst { value, alu } => {
                    if *alu > 0 {
                        tracer.alu(*alu as usize);
                    }
                    self.stack.push(*value);
                }
                Inst::AffineVar {
                    slot,
                    scale,
                    offset,
                    alu,
                } => match self.vars[*slot as usize] {
                    Some(v) => {
                        if *alu > 0 {
                            tracer.alu(*alu as usize);
                        }
                        self.stack.push(Value::Int(v * scale + offset));
                    }
                    None => {
                        return Err(TirError::UnboundVar(prog.names[*slot as usize].to_string()))
                    }
                },
                Inst::AffineSum {
                    a,
                    a_scale,
                    b,
                    b_scale,
                    offset,
                    alu,
                } => {
                    let va = self.vars[*a as usize]
                        .ok_or_else(|| TirError::UnboundVar(prog.names[*a as usize].to_string()))?;
                    let vb = self.vars[*b as usize]
                        .ok_or_else(|| TirError::UnboundVar(prog.names[*b as usize].to_string()))?;
                    if *alu > 0 {
                        tracer.alu(*alu as usize);
                    }
                    self.stack
                        .push(Value::Int(va * a_scale + vb * b_scale + offset));
                }
                Inst::AluOps { n } => tracer.alu(*n as usize),
                Inst::EvalHoisted { idx } => {
                    let value = self.eval_pure(&prog.hoisted[*idx as usize].insts)?;
                    self.hoisted_vals[*idx as usize] = Some(value);
                }
                Inst::PushHoisted { idx, alu } => {
                    if *alu > 0 {
                        tracer.alu(*alu as usize);
                    }
                    let value = self.hoisted_vals[*idx as usize]
                        .expect("EvalHoisted always precedes PushHoisted");
                    self.stack.push(value);
                }
            }
            pc += 1;
        }
        Ok(())
    }

    /// Evaluates a hoisted pure expression against the current variable
    /// bindings without touching the tracer or the main stack.
    fn eval_pure(&self, insts: &[Inst]) -> Result<Value> {
        let mut stack: Vec<Value> = Vec::with_capacity(8);
        for inst in insts {
            match inst {
                Inst::PushInt(v) => stack.push(Value::Int(*v)),
                Inst::PushFloat(v) => stack.push(Value::Float(*v)),
                Inst::PushConst { value, .. } => stack.push(*value),
                Inst::PushVar(slot) => match self.vars[*slot as usize] {
                    Some(v) => stack.push(Value::Int(v)),
                    None => {
                        return Err(TirError::UnboundVar(
                            self.prog.names[*slot as usize].to_string(),
                        ))
                    }
                },
                Inst::AffineVar {
                    slot,
                    scale,
                    offset,
                    ..
                } => match self.vars[*slot as usize] {
                    Some(v) => stack.push(Value::Int(v * scale + offset)),
                    None => {
                        return Err(TirError::UnboundVar(
                            self.prog.names[*slot as usize].to_string(),
                        ))
                    }
                },
                Inst::AffineSum {
                    a,
                    a_scale,
                    b,
                    b_scale,
                    offset,
                    ..
                } => {
                    let va = self.vars[*a as usize].ok_or_else(|| {
                        TirError::UnboundVar(self.prog.names[*a as usize].to_string())
                    })?;
                    let vb = self.vars[*b as usize].ok_or_else(|| {
                        TirError::UnboundVar(self.prog.names[*b as usize].to_string())
                    })?;
                    stack.push(Value::Int(va * a_scale + vb * b_scale + offset));
                }
                Inst::Binary(op) => {
                    let y = stack.pop().expect("hoisted expression stack underflow");
                    let x = stack.pop().expect("hoisted expression stack underflow");
                    stack.push(eval_binary(*op, x, y));
                }
                Inst::Cmp(op) => {
                    let y = stack.pop().expect("hoisted expression stack underflow");
                    let x = stack.pop().expect("hoisted expression stack underflow");
                    stack.push(Value::Int(eval_cmp(*op, x, y) as i64));
                }
                Inst::Not => {
                    let x = stack.pop().expect("hoisted expression stack underflow");
                    stack.push(Value::Int(!x.is_true() as i64));
                }
                Inst::Cast { to_float } => {
                    let x = stack.pop().expect("hoisted expression stack underflow");
                    stack.push(if *to_float {
                        Value::Float(x.as_float())
                    } else {
                        Value::Int(x.as_int())
                    });
                }
                Inst::BoolCast => {
                    let x = stack.pop().expect("hoisted expression stack underflow");
                    stack.push(Value::Int(x.is_true() as i64));
                }
                other => unreachable!("impure instruction {other:?} in hoisted expression"),
            }
        }
        Ok(stack.pop().expect("hoisted expression produced no value"))
    }

    /// Applies a summarizable loop of `n` iterations as constant-shape
    /// pieces, each reaching `tracer` as one [`BulkEvents`] batch, and
    /// returns the first iteration left for normal execution (`n` when the
    /// pieces cover the whole range).
    ///
    /// A piece starts at `lo`: iterations `lo` and `lo+1` are probed, then
    /// `n-1`; when its shape differs from `lo`'s, bisection searches for the
    /// last iteration that still matches.  The piece `[lo, hi)` is accepted
    /// only on the three-point rule at `lo`, `lo+1` and `hi-1` — equal
    /// shapes and collinear per-site bytes — so bisection is only a search,
    /// never part of the proof.  Sound because every guard is statically
    /// monotone and every directly nested loop extent invariant, affine,
    /// concave or convex (an integer function of either kind that agrees at
    /// `a`, `a+1` and `b-1` is constant on `[a, b)`, so equal shapes pin the
    /// guard directions and event counts over the piece), per-site bytes are
    /// convex (see [`series_total`]), and timing-only execution has no side
    /// effects beyond the tracer.  When `lo` and `lo+1` already differ,
    /// iteration `lo` is applied on its own and the search moves one
    /// iteration on; a piece whose bytes are not collinear ends the
    /// summary.  At most [`MAX_PIECE_ATTEMPTS`] pieces are tried per entry.
    fn summarize_pieces<T: Tracer + ?Sized>(
        &mut self,
        store: &mut MemoryStore,
        tracer: &mut T,
        slot: u32,
        n: i64,
        info: LoopSummary,
    ) -> Result<i64> {
        let mut lo = 0;
        // A recording of iteration `lo` left over from the previous attempt.
        let mut carried: Option<ProbeEvents> = None;
        for _ in 0..MAX_PIECE_ATTEMPTS {
            if n - lo < SUMMARIZE_MIN_EXTENT {
                break;
            }
            let p_lo = match carried.take() {
                Some(p) => p,
                None => self.probe(store, slot, lo, info)?,
            };
            let p_next = self.probe(store, slot, lo + 1, info)?;
            if !p_lo.shape_matches(&p_next) {
                let bulk = piece_bulk(1, &p_lo, &p_lo, &p_lo).expect("one iteration");
                self.apply_piece(tracer, &bulk, &p_lo, 1);
                lo += 1;
                carried = Some(p_next);
                continue;
            }
            let p_end = self.probe(store, slot, n - 1, info)?;
            let (hi, p_last) = if p_lo.shape_matches(&p_end) {
                (n, Some(p_end))
            } else {
                // Shapes match at `good` and differ at `bad`; `None` stands
                // for the recording of `lo+1`.
                let (mut good, mut bad) = (lo + 1, n - 1);
                let (mut p_good, mut p_bad) = (None, p_end);
                while bad - good > 1 {
                    let mid = good + (bad - good) / 2;
                    let p = self.probe(store, slot, mid, info)?;
                    if p_lo.shape_matches(&p) {
                        (good, p_good) = (mid, Some(p));
                    } else {
                        (bad, p_bad) = (mid, p);
                    }
                }
                carried = Some(p_bad);
                (bad, p_good)
            };
            let p_last = p_last.as_ref().unwrap_or(&p_next);
            let Some(bulk) = piece_bulk(hi - lo, &p_lo, &p_next, p_last) else {
                break;
            };
            self.apply_piece(tracer, &bulk, &p_lo, hi - lo);
            if hi < n {
                self.split_pieces += 1;
            }
            lo = hi;
        }
        Ok(lo)
    }

    /// Hands a piece of `iters` iterations, whose first one recorded `p`,
    /// to the tracer, and logs its guard directions for an enclosing probe.
    fn apply_piece<T: Tracer + ?Sized>(
        &mut self,
        tracer: &mut T,
        bulk: &BulkEvents,
        p: &ProbeEvents,
        iters: i64,
    ) {
        tracer.bulk(bulk);
        if let Some(log) = self.probe_logs.last_mut() {
            log.push((p.branch_dirs.clone(), iters));
        }
    }

    /// Executes iteration `iter` of a summarizable loop body into a fresh
    /// scratch recorder.
    fn probe(
        &mut self,
        store: &mut MemoryStore,
        slot: u32,
        iter: i64,
        info: LoopSummary,
    ) -> Result<ProbeEvents> {
        let mut probe = ProbeEvents::default();
        self.vars[slot as usize] = Some(iter);
        let (start, end) = (info.body_start as usize, info.body_end as usize);
        self.probe_logs.push(Vec::new());
        let ran = self.exec(store, &mut probe, ExecMode::TimingOnly, start, end);
        probe.nested_pieces = self.probe_logs.pop().expect("pushed above");
        ran.map(|()| probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemScope;
    use crate::dtype::DType;
    use crate::eval::{CountingTracer, Interpreter};

    /// Runs a statement through the tree interpreter, the compiled program
    /// and the *optimized* compiled program with identical initial stores,
    /// and asserts the traced events and final memory agree exactly.
    fn assert_equivalent(stmt: &Stmt, setup: impl Fn(&mut MemoryStore), mode: ExecMode) {
        let check_bufs: Vec<Arc<Buffer>> = collect_buffers(stmt);

        let mut tree_store = MemoryStore::new();
        setup(&mut tree_store);
        let mut tree_tracer = CountingTracer::default();
        let mut interp = Interpreter::new(&mut tree_store, &mut tree_tracer, mode);
        interp.run(stmt).unwrap();

        let prog = CompiledProgram::compile(stmt);
        for (label, program) in [("compiled", prog.clone()), ("optimized", prog.optimize())] {
            let mut flat_store = MemoryStore::new();
            setup(&mut flat_store);
            let mut flat_tracer = CountingTracer::default();
            CompiledRunner::new(&program)
                .run(&mut flat_store, &mut flat_tracer, mode)
                .unwrap();

            assert_eq!(tree_tracer, flat_tracer, "{label} tracer events diverge");
            for buf in &check_bufs {
                for dpu in 0..4 {
                    assert_eq!(
                        tree_store.read_all(buf, dpu),
                        flat_store.read_all(buf, dpu),
                        "{label} contents of {} (dpu {dpu}) diverge",
                        buf.name
                    );
                }
            }
        }
    }

    fn collect_buffers(stmt: &Stmt) -> Vec<Arc<Buffer>> {
        let mut out: Vec<Arc<Buffer>> = Vec::new();
        let mut push = |b: &Arc<Buffer>| {
            if !out.iter().any(|x| x.id == b.id) {
                out.push(Arc::clone(b));
            }
        };
        fn walk_expr(e: &Expr, push: &mut dyn FnMut(&Arc<Buffer>)) {
            match e {
                Expr::Load { buf, index } => {
                    push(buf);
                    walk_expr(index, push);
                }
                Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                    walk_expr(a, push);
                    walk_expr(b, push);
                }
                Expr::Not(a) | Expr::Cast(_, a) => walk_expr(a, push),
                Expr::Select(c, a, b) => {
                    walk_expr(c, push);
                    walk_expr(a, push);
                    walk_expr(b, push);
                }
                Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
            }
        }
        fn walk(s: &Stmt, push: &mut dyn FnMut(&Arc<Buffer>)) {
            match s {
                Stmt::Seq(v) => v.iter().for_each(|s| walk(s, push)),
                Stmt::For { extent, body, .. } => {
                    walk_expr(extent, push);
                    walk(body, push);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    walk_expr(cond, push);
                    walk(then_branch, push);
                    if let Some(e) = else_branch {
                        walk(e, push);
                    }
                }
                Stmt::Store { buf, index, value } => {
                    push(buf);
                    walk_expr(index, push);
                    walk_expr(value, push);
                }
                Stmt::Alloc { buf, body } => {
                    push(buf);
                    walk(body, push);
                }
                Stmt::Dma { dst, src, .. } => {
                    push(dst);
                    push(src);
                }
                Stmt::HostTransfer { global, mram, .. } => {
                    push(global);
                    push(mram);
                }
                Stmt::Barrier | Stmt::Evaluate(_) | Stmt::Nop => {}
            }
        }
        walk(stmt, &mut push);
        out
    }

    #[test]
    fn arithmetic_loops_and_guards_are_equivalent() {
        let a = Buffer::new("A", DType::F32, vec![16], MemScope::Global);
        let b = Buffer::new("B", DType::F32, vec![16], MemScope::Global);
        let i = Var::new("i");
        let j = Var::new("j");
        let body = Stmt::seq(vec![
            Stmt::if_then(
                Expr::var(&i)
                    .lt(Expr::int(3))
                    .and(Expr::var(&j).lt(Expr::int(4))),
                Stmt::store(
                    &b,
                    Expr::var(&i).mul(Expr::int(4)).add(Expr::var(&j)),
                    Expr::load(&a, Expr::var(&i).mul(Expr::int(4)).add(Expr::var(&j)))
                        .mul(Expr::float(2.0)),
                ),
            ),
            Stmt::if_then(
                Expr::var(&j)
                    .eq_expr(Expr::int(0))
                    .or(Expr::var(&i).eq_expr(Expr::int(0))),
                Stmt::store(&b, Expr::int(15), Expr::float(7.0)),
            ),
        ]);
        let inner = Stmt::for_serial(j, 4i64, body);
        let prog = Stmt::for_serial(i, 4i64, inner);
        let setup = |store: &mut MemoryStore| {
            let init: Vec<f32> = (0..16).map(|x| x as f32 - 8.0).collect();
            store.alloc_with(&a, 0, &init);
            store.alloc(&b, 0);
        };
        assert_equivalent(&prog, setup, ExecMode::Functional);
        assert_equivalent(&prog, setup, ExecMode::TimingOnly);
    }

    #[test]
    fn select_cast_not_and_floor_ops_are_equivalent() {
        let a = Buffer::new("A", DType::F32, vec![8], MemScope::Global);
        let i = Var::new("i");
        let value = Expr::Select(
            Box::new(Expr::Not(Box::new(Expr::var(&i).ge(Expr::int(4))))),
            Box::new(Expr::Cast(
                DType::F32,
                Box::new(Expr::var(&i).floordiv(Expr::int(3))),
            )),
            Box::new(Expr::var(&i).floormod(Expr::int(0)).min(Expr::int(9))),
        );
        let prog = Stmt::for_serial(i.clone(), 8i64, Stmt::store(&a, Expr::var(&i), value));
        let setup = |store: &mut MemoryStore| store.alloc(&a, 0);
        assert_equivalent(&prog, setup, ExecMode::Functional);
    }

    #[test]
    fn dma_and_host_transfers_are_equivalent() {
        let global = Buffer::new("G", DType::F32, vec![32], MemScope::Global);
        let mram = Buffer::new("M", DType::F32, vec![8], MemScope::Mram);
        let wram = Buffer::new("W", DType::F32, vec![4], MemScope::Wram);
        let d = Var::new("d");
        let prog = Stmt::seq(vec![
            Stmt::for_serial(
                d.clone(),
                4i64,
                Stmt::seq(vec![
                    Stmt::HostTransfer {
                        dir: TransferDir::H2D,
                        dpu: Expr::var(&d),
                        global: global.clone(),
                        global_off: Expr::var(&d).mul(Expr::int(8)),
                        mram: mram.clone(),
                        mram_off: Expr::int(0),
                        elems: Expr::int(8),
                        parallel: true,
                    },
                    Stmt::Barrier,
                ]),
            ),
            Stmt::Dma {
                dst: wram.clone(),
                dst_off: Expr::int(0),
                src: mram.clone(),
                src_off: Expr::int(2),
                elems: Expr::int(4),
            },
            Stmt::Evaluate(Expr::int(3).add(Expr::int(4))),
            Stmt::HostTransfer {
                dir: TransferDir::D2H,
                dpu: Expr::int(1),
                global: global.clone(),
                global_off: Expr::int(0),
                mram: mram.clone(),
                mram_off: Expr::int(0),
                elems: Expr::int(4),
                parallel: false,
            },
        ]);
        let setup = |store: &mut MemoryStore| {
            store.alloc_with(&global, 0, &(0..32).map(|x| x as f32).collect::<Vec<_>>());
            for dpu in 0..4 {
                store.alloc(&wram, dpu);
            }
        };
        assert_equivalent(&prog, setup, ExecMode::Functional);
        assert_equivalent(&prog, setup, ExecMode::TimingOnly);
    }

    /// A two-level transfer nest long enough to summarize at both levels,
    /// mixing directions and `parallel` flags in one body: the row loop's
    /// batch lands in the DPU loop's probe as one aggregated site per
    /// `(dir, parallel)`, with sizes affine in both induction variables.
    #[test]
    fn summarized_transfer_nests_are_equivalent() {
        let global = Buffer::new("G", DType::F32, vec![4 * 16 * 24], MemScope::Global);
        let back = Buffer::new("B", DType::F32, vec![4 * 16 * 24], MemScope::Global);
        let mram = Buffer::new("M", DType::F32, vec![16 * 24], MemScope::Mram);
        let d = Var::new("d");
        let r = Var::new("r");
        let tile = |global: &Arc<Buffer>, dir, elems: Expr, parallel| Stmt::HostTransfer {
            dir,
            dpu: Expr::var(&d).floormod(Expr::int(4)),
            global: global.clone(),
            global_off: Expr::var(&d)
                .floormod(Expr::int(4))
                .mul(Expr::int(16))
                .add(Expr::var(&r))
                .mul(Expr::int(24)),
            mram: mram.clone(),
            mram_off: Expr::var(&r).mul(Expr::int(24)),
            elems,
            parallel,
        };
        let body = Stmt::seq(vec![
            tile(
                &global,
                TransferDir::H2D,
                Expr::var(&r).add(Expr::int(1)),
                true,
            ),
            tile(&back, TransferDir::D2H, Expr::var(&d), false),
            tile(&global, TransferDir::H2D, Expr::int(3), true),
        ]);
        let prog = Stmt::for_serial(d.clone(), 20i64, Stmt::for_serial(r.clone(), 16i64, body));
        let setup = |store: &mut MemoryStore| {
            let init: Vec<f32> = (0..4 * 16 * 24).map(|x| x as f32).collect();
            store.alloc_with(&global, 0, &init);
            store.alloc(&back, 0);
        };
        assert_equivalent(&prog, setup, ExecMode::Functional);
        assert_equivalent(&prog, setup, ExecMode::TimingOnly);
        assert_eq!(
            CompiledProgram::compile(&prog)
                .optimize()
                .summarized_loops(),
            2
        );
    }

    #[test]
    fn alloc_and_zero_extent_loops_are_equivalent() {
        let w = Buffer::new("W", DType::F32, vec![4], MemScope::Wram);
        let i = Var::new("i");
        let prog = Stmt::Alloc {
            buf: w.clone(),
            body: Box::new(Stmt::for_serial(
                i.clone(),
                0i64,
                Stmt::store(&w, Expr::var(&i), Expr::float(1.0)),
            )),
        };
        assert_equivalent(&prog, |_| {}, ExecMode::Functional);
        assert_equivalent(&prog, |_| {}, ExecMode::TimingOnly);
    }

    #[test]
    fn bindings_and_dpu_context_work_like_the_interpreter() {
        let m = Buffer::new("M", DType::F32, vec![4], MemScope::Mram);
        let x = Var::new("x");
        let prog = Stmt::store(&m, Expr::var(&x), Expr::float(5.0));
        let compiled = CompiledProgram::compile(&prog);
        let mut store = MemoryStore::new();
        store.alloc(&m, 3);
        let mut tracer = CountingTracer::default();
        let mut runner = CompiledRunner::new(&compiled);
        runner.set_dpu(3);
        runner.bind(&x, 2);
        runner
            .run(&mut store, &mut tracer, ExecMode::Functional)
            .unwrap();
        assert_eq!(store.read_all(&m, 3).unwrap(), &[0.0, 0.0, 5.0, 0.0]);
        // Unbound variable errors match the interpreter's.
        let mut fresh = CompiledRunner::new(&compiled);
        let err = fresh
            .run(&mut store, &mut tracer, ExecMode::Functional)
            .unwrap_err();
        assert!(matches!(err, TirError::UnboundVar(name) if name == "x"));
    }

    #[test]
    fn out_of_bounds_errors_match() {
        let a = Buffer::new("A", DType::F32, vec![4], MemScope::Global);
        let prog = Stmt::store(&a, Expr::int(9), Expr::float(1.0));
        let compiled = CompiledProgram::compile(&prog);
        let mut store = MemoryStore::new();
        store.alloc(&a, 0);
        let mut tracer = CountingTracer::default();
        let err = CompiledRunner::new(&compiled)
            .run(&mut store, &mut tracer, ExecMode::Functional)
            .unwrap_err();
        assert!(matches!(err, TirError::OutOfBounds { .. }));
    }

    #[test]
    fn one_program_is_reusable_across_dpus_and_runs() {
        let m = Buffer::new("M", DType::F32, vec![2], MemScope::Mram);
        let i = Var::new("i");
        let prog = Stmt::for_serial(
            i.clone(),
            2i64,
            Stmt::store(&m, Expr::var(&i), Expr::float(1.0)),
        );
        let compiled = CompiledProgram::compile(&prog);
        let mut store = MemoryStore::new();
        let mut tracer = CountingTracer::default();
        let mut runner = CompiledRunner::new(&compiled);
        for dpu in 0..3 {
            store.alloc(&m, dpu);
            runner.set_dpu(dpu);
            runner
                .run(&mut store, &mut tracer, ExecMode::Functional)
                .unwrap();
        }
        for dpu in 0..3 {
            assert_eq!(store.read_all(&m, dpu).unwrap(), &[1.0, 1.0]);
        }
        assert_eq!(tracer.loop_iters, 6);
    }
}
