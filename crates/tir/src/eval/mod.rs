//! Evaluation of loop-based TIR.
//!
//! Evaluation serves two purposes:
//!
//! 1. **Functional execution** — lowered host and kernel programs are run
//!    against real buffer contents, so integration tests can compare results
//!    with a straightforward reference implementation of each workload.
//! 2. **Instrumentation** — every step reports to a [`Tracer`].  The UPMEM
//!    simulator in `atim-sim` implements `Tracer` to derive instruction,
//!    branch, DMA and transfer counts from the very same execution, so the
//!    timing model always measures the program that actually ran.
//!
//! Buffers are instantiated per *DPU context*: `Global`/`HostLocal` buffers
//! have a single instance, while `Mram`/`Wram` buffers have one instance per
//! DPU (selected by [`CompiledRunner::set_dpu`]).
//!
//! One production evaluator, two references: everything outside tests —
//! the simulator's measurements and
//! [`crate::schedule::execute_functional`] alike — runs on the [`compiled`]
//! submodule's bytecode: a [`Stmt`] tree pre-lowered once into a flat
//! instruction buffer with dense variable slots
//! ([`CompiledProgram::compile`]), which the simulator then puts through
//! the event-count-preserving optimizer ([`CompiledProgram::optimize`], see
//! [`opt`]).  The unoptimized bytecode and the tree `Interpreter` in this
//! module stay as the references that engine is tested against; the
//! interpreter has no production caller.

use std::collections::HashMap;

pub mod compiled;
pub mod opt;

pub use compiled::{CompiledProgram, CompiledRunner};
pub use opt::OptStats;

use crate::buffer::{Buffer, BufferId, MemScope, Var};
use crate::error::{Result, TirError};
use crate::expr::{BinOp, CmpOp, Expr};
use crate::stmt::{Stmt, TransferDir};
use std::sync::Arc;

/// A scalar runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (indices, booleans).
    Int(i64),
    /// 32-bit float (tensor data).
    Float(f32),
}

impl Value {
    /// Interprets the value as an integer, truncating floats.
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
        }
    }

    /// Interprets the value as a float.
    pub fn as_float(self) -> f32 {
        match self {
            Value::Int(v) => v as f32,
            Value::Float(v) => v,
        }
    }

    /// Whether the value is "true" (non-zero).
    pub fn is_true(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }
}

/// Host↔DPU transfer calls sharing a direction and a `parallel` flag, with
/// their total payload: a transfer group of a [`BulkEvents`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferGroup {
    /// Transfer direction.
    pub dir: TransferDir,
    /// Whether the calls use the rank-parallel push path.
    pub parallel: bool,
    /// Number of transfer calls.
    pub calls: u64,
    /// Total bytes across all `calls`.
    pub bytes: u64,
}

/// A batch of execution events applied at once — the closed-form summary of
/// many loop iterations that the [`compiled`] fast path produces instead of
/// executing each iteration (see [`CompiledProgram::optimize`]).
///
/// Counts are exact; what a bulk application does *not* preserve is the
/// interleaving of events within the summarized region, nor which DPU a
/// host transfer addressed (all in-tree tracers are pure counters, so they
/// cannot observe the difference).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BulkEvents {
    /// Total scalar ALU operations.
    pub alu: u64,
    /// Scalar loads as `(scope, bytes per load, count)` groups.
    pub loads: Vec<(MemScope, usize, u64)>,
    /// Scalar stores as `(scope, bytes per store, count)` groups.
    pub stores: Vec<(MemScope, usize, u64)>,
    /// Conditional branches evaluated (the guard checks of summarized
    /// boundary-guarded loops; the taken direction is not preserved — all
    /// in-tree tracers are pure counters).
    pub branches: u64,
    /// Loop headers entered (nested loops inside a summarized body).
    pub loop_enters: u64,
    /// Loop iterations (back-edge bookkeeping events).
    pub loop_iters: u64,
    /// DMA requests.
    pub dma_requests: u64,
    /// Total bytes across all `dma_requests`.
    pub dma_bytes: u64,
    /// Tasklet barriers.
    pub barriers: u64,
    /// Host↔DPU transfers, one group per `(dir, parallel)` pair.
    pub transfers: Vec<TransferGroup>,
}

/// Spreads `bytes` over `requests` events: the first takes the remainder,
/// so the total is exact and the distribution approximately even.
fn replay_spread(requests: u64, bytes: u64, mut event: impl FnMut(usize)) {
    if let Some(per) = bytes.checked_div(requests) {
        event((bytes - per * (requests - 1)) as usize);
        for _ in 1..requests {
            event(per as usize);
        }
    }
}

/// Observer of interpreter execution events.
///
/// All methods have empty default implementations so tracers only override
/// what they care about.
pub trait Tracer {
    /// `n` scalar ALU operations executed (adds, muls, compares, casts, ...).
    fn alu(&mut self, n: usize) {
        let _ = n;
    }
    /// A scalar load of `bytes` bytes from a buffer in `scope`.
    fn load(&mut self, scope: MemScope, bytes: usize) {
        let _ = (scope, bytes);
    }
    /// A scalar store of `bytes` bytes to a buffer in `scope`.
    fn store(&mut self, scope: MemScope, bytes: usize) {
        let _ = (scope, bytes);
    }
    /// A conditional branch was evaluated (taken or not).
    fn branch(&mut self, taken: bool) {
        let _ = taken;
    }
    /// The raw extent of a loop header about to be entered, reported just
    /// before [`Tracer::loop_enter`] and before a non-positive extent skips
    /// the body.  Counting tracers ignore it; the timing-only loop
    /// summarizer compares it across probe iterations (a clamped extent
    /// that is `<= 0` at every probe may still be positive between them).
    fn loop_extent(&mut self, extent: i64) {
        let _ = extent;
    }
    /// A loop was entered (header setup).
    fn loop_enter(&mut self) {}
    /// One loop iteration (back-edge bookkeeping).
    fn loop_iter(&mut self) {}
    /// A DPU-local DMA transfer between MRAM and WRAM of `bytes` bytes.
    fn dma(&mut self, bytes: usize) {
        let _ = bytes;
    }
    /// A host<->DPU transfer.
    fn host_transfer(&mut self, dir: TransferDir, dpu: i64, bytes: usize, parallel: bool) {
        let _ = (dir, dpu, bytes, parallel);
    }
    /// A tasklet barrier.
    fn barrier(&mut self) {}
    /// Many events applied at once (the summarized-loop fast path).
    ///
    /// The default replays the batch through the scalar methods, which is
    /// exact in totals (DMA and transfer bytes are spread across the
    /// requests; every replayed transfer addresses DPU 0) but costs one
    /// call per event — counting tracers should override this with O(1)
    /// arithmetic.
    fn bulk(&mut self, events: &BulkEvents) {
        if events.alu > 0 {
            self.alu(events.alu as usize);
        }
        for &(scope, bytes, count) in &events.loads {
            for _ in 0..count {
                self.load(scope, bytes);
            }
        }
        for &(scope, bytes, count) in &events.stores {
            for _ in 0..count {
                self.store(scope, bytes);
            }
        }
        for _ in 0..events.branches {
            // The per-branch direction is not recorded in a bulk batch.
            self.branch(false);
        }
        for _ in 0..events.loop_enters {
            self.loop_enter();
        }
        for _ in 0..events.loop_iters {
            self.loop_iter();
        }
        replay_spread(events.dma_requests, events.dma_bytes, |bytes| {
            self.dma(bytes)
        });
        for _ in 0..events.barriers {
            self.barrier();
        }
        for g in &events.transfers {
            replay_spread(g.calls, g.bytes, |bytes| {
                self.host_transfer(g.dir, 0, bytes, g.parallel)
            });
        }
    }
}

/// A tracer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    fn bulk(&mut self, _events: &BulkEvents) {}
}

/// A simple tracer that tallies event counts; handy for tests and static
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingTracer {
    /// Number of scalar ALU operations.
    pub alu_ops: usize,
    /// Number of scalar loads.
    pub loads: usize,
    /// Number of scalar stores.
    pub stores: usize,
    /// Number of conditional branches evaluated.
    pub branches: usize,
    /// Number of loop iterations executed.
    pub loop_iters: usize,
    /// Number of DMA requests.
    pub dma_requests: usize,
    /// Total DMA bytes.
    pub dma_bytes: usize,
    /// Number of host<->DPU transfer calls.
    pub transfers: usize,
    /// Total host<->DPU bytes.
    pub transfer_bytes: usize,
    /// Number of barriers.
    pub barriers: usize,
}

impl Tracer for CountingTracer {
    fn alu(&mut self, n: usize) {
        self.alu_ops += n;
    }
    fn load(&mut self, _scope: MemScope, _bytes: usize) {
        self.loads += 1;
    }
    fn store(&mut self, _scope: MemScope, _bytes: usize) {
        self.stores += 1;
    }
    fn branch(&mut self, _taken: bool) {
        self.branches += 1;
    }
    fn loop_iter(&mut self) {
        self.loop_iters += 1;
    }
    fn dma(&mut self, bytes: usize) {
        self.dma_requests += 1;
        self.dma_bytes += bytes;
    }
    fn host_transfer(&mut self, _dir: TransferDir, _dpu: i64, bytes: usize, _parallel: bool) {
        self.transfers += 1;
        self.transfer_bytes += bytes;
    }
    fn barrier(&mut self) {
        self.barriers += 1;
    }
    fn bulk(&mut self, events: &BulkEvents) {
        self.alu_ops += events.alu as usize;
        for &(_, _, count) in &events.loads {
            self.loads += count as usize;
        }
        for &(_, _, count) in &events.stores {
            self.stores += count as usize;
        }
        self.branches += events.branches as usize;
        self.loop_iters += events.loop_iters as usize;
        self.dma_requests += events.dma_requests as usize;
        self.dma_bytes += events.dma_bytes as usize;
        self.barriers += events.barriers as usize;
        for g in &events.transfers {
            self.transfers += g.calls as usize;
            self.transfer_bytes += g.bytes as usize;
        }
    }
}

/// Key identifying one instance of a buffer (per DPU for MRAM/WRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InstanceKey {
    buf: BufferId,
    dpu: i64,
}

/// Backing storage for every buffer instance touched during interpretation.
///
/// Instances live in an arena of slabs indexed by a `(buffer, dpu)` key, so
/// two distinct instances can be borrowed mutably at the same time: the DMA
/// copy path moves data between them without a temporary allocation, falling
/// back to an overlap-safe `copy_within` only when source and destination are
/// the *same* instance.
#[derive(Debug, Default)]
pub struct MemoryStore {
    index: HashMap<InstanceKey, usize>,
    slabs: Vec<Vec<f32>>,
    meta: HashMap<BufferId, Arc<Buffer>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(buf: &Arc<Buffer>, dpu: i64) -> InstanceKey {
        let dpu = match buf.scope {
            MemScope::Global | MemScope::HostLocal => 0,
            MemScope::Mram | MemScope::Wram => dpu,
        };
        InstanceKey { buf: buf.id, dpu }
    }

    fn insert(&mut self, buf: &Arc<Buffer>, dpu: i64, data: Vec<f32>) {
        self.meta.insert(buf.id, Arc::clone(buf));
        match self.index.entry(Self::key(buf, dpu)) {
            std::collections::hash_map::Entry::Occupied(e) => self.slabs[*e.get()] = data,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.slabs.len());
                self.slabs.push(data);
            }
        }
    }

    fn slab_of(&self, buf: &Arc<Buffer>, dpu: i64) -> Option<usize> {
        self.index.get(&Self::key(buf, dpu)).copied()
    }

    /// Allocates (or re-initializes) an instance of `buf` for DPU context
    /// `dpu`, zero-filled.
    pub fn alloc(&mut self, buf: &Arc<Buffer>, dpu: i64) {
        self.insert(buf, dpu, vec![0.0; buf.len()]);
    }

    /// Allocates an instance and copies `init` into it.
    ///
    /// # Panics
    /// Panics if `init.len()` exceeds the buffer length.
    pub fn alloc_with(&mut self, buf: &Arc<Buffer>, dpu: i64, init: &[f32]) {
        assert!(init.len() <= buf.len(), "initializer larger than buffer");
        let mut v = vec![0.0; buf.len()];
        v[..init.len()].copy_from_slice(init);
        self.insert(buf, dpu, v);
    }

    /// Whether an instance exists.
    pub fn contains(&self, buf: &Arc<Buffer>, dpu: i64) -> bool {
        self.index.contains_key(&Self::key(buf, dpu))
    }

    /// Returns the contents of a buffer instance.
    pub fn read_all(&self, buf: &Arc<Buffer>, dpu: i64) -> Option<&[f32]> {
        self.slab_of(buf, dpu).map(|i| self.slabs[i].as_slice())
    }

    /// Mutable access to a buffer instance.
    pub fn write_all(&mut self, buf: &Arc<Buffer>, dpu: i64) -> Option<&mut Vec<f32>> {
        self.slab_of(buf, dpu).map(|i| &mut self.slabs[i])
    }

    fn read_elem(&self, buf: &Arc<Buffer>, dpu: i64, idx: i64) -> Result<f32> {
        let v = &self.slabs[self
            .slab_of(buf, dpu)
            .ok_or_else(|| TirError::UnknownBuffer(buf.name.clone()))?];
        if idx < 0 || idx as usize >= v.len() {
            return Err(TirError::OutOfBounds {
                buffer: buf.name.clone(),
                index: idx,
                len: v.len(),
            });
        }
        Ok(v[idx as usize])
    }

    fn write_elem(&mut self, buf: &Arc<Buffer>, dpu: i64, idx: i64, value: f32) -> Result<()> {
        let slab = self
            .slab_of(buf, dpu)
            .ok_or_else(|| TirError::UnknownBuffer(buf.name.clone()))?;
        let v = &mut self.slabs[slab];
        if idx < 0 || idx as usize >= v.len() {
            return Err(TirError::OutOfBounds {
                buffer: buf.name.clone(),
                index: idx,
                len: v.len(),
            });
        }
        v[idx as usize] = value;
        Ok(())
    }

    /// Copies `elems` elements between two buffer instances.
    ///
    /// Distinct instances are split-borrowed out of the arena and copied
    /// directly; a same-instance copy (e.g. shifting data within one MRAM
    /// bank) uses the overlap-safe `copy_within`.  Neither path allocates.
    #[allow(clippy::too_many_arguments)] // mirrors the (dst, src) DMA tuple
    fn copy(
        &mut self,
        dst: &Arc<Buffer>,
        dst_dpu: i64,
        dst_off: i64,
        src: &Arc<Buffer>,
        src_dpu: i64,
        src_off: i64,
        elems: i64,
    ) -> Result<()> {
        if elems <= 0 {
            return Ok(());
        }
        let src_slab = self
            .slab_of(src, src_dpu)
            .ok_or_else(|| TirError::UnknownBuffer(src.name.clone()))?;
        let dst_slab = self
            .slab_of(dst, dst_dpu)
            .ok_or_else(|| TirError::UnknownBuffer(dst.name.clone()))?;
        let (s0, s1) = (src_off, src_off + elems);
        if s0 < 0 || s1 as usize > self.slabs[src_slab].len() {
            return Err(TirError::OutOfBounds {
                buffer: src.name.clone(),
                index: s1 - 1,
                len: self.slabs[src_slab].len(),
            });
        }
        let (d0, d1) = (dst_off, dst_off + elems);
        if d0 < 0 || d1 as usize > self.slabs[dst_slab].len() {
            return Err(TirError::OutOfBounds {
                buffer: dst.name.clone(),
                index: d1 - 1,
                len: self.slabs[dst_slab].len(),
            });
        }
        let (s0, s1, d0) = (s0 as usize, s1 as usize, d0 as usize);
        if src_slab == dst_slab {
            self.slabs[src_slab].copy_within(s0..s1, d0);
        } else {
            // Split the arena so both slabs can be borrowed at once.
            let (lo, hi) = self.slabs.split_at_mut(src_slab.max(dst_slab));
            let (from, to) = if src_slab < dst_slab {
                (&lo[src_slab], &mut hi[0])
            } else {
                (&hi[0], &mut lo[dst_slab])
            };
            to[d0..d0 + (s1 - s0)].copy_from_slice(&from[s0..s1]);
        }
        Ok(())
    }
}

/// Execution mode of the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Move real data: loads return actual buffer contents, stores/DMAs/
    /// transfers update them.  Used for correctness testing.
    #[default]
    Functional,
    /// Skip data movement but evaluate all control flow and trace every
    /// event.  Used by the simulator for large benchmark shapes.
    ///
    /// # Contract: affine guards only
    ///
    /// Index arithmetic over loop variables stays exact, so any branch whose
    /// condition is an *affine guard* (built from loop variables, constants
    /// and integer arithmetic — the only kind the lowering and the PIM-aware
    /// passes emit) takes the same direction as in [`ExecMode::Functional`],
    /// and instruction/DMA/transfer counts are identical between the modes.
    ///
    /// Branches whose condition inspects *tensor data* are outside this
    /// contract: [`Expr::Load`] returns `0.0` in this mode, so a
    /// data-dependent `If` evaluates its condition against zeros and may
    /// diverge from functional execution.  The branch event itself is still
    /// traced (branch *counts* match), but the direction taken — and
    /// therefore the event counts inside the guarded bodies — follow the
    /// all-zeros execution.  Programs produced by the schedule lowering never
    /// contain data-dependent control flow, which is what makes this mode
    /// safe for timing measurements.
    TimingOnly,
}

/// The tree-walking TIR interpreter: the reference for `tests/proptests.rs`
/// and the pass unit tests, never on a production path (those run
/// [`CompiledProgram`]).
#[doc(hidden)]
pub struct Interpreter<'a, T: Tracer> {
    store: &'a mut MemoryStore,
    tracer: &'a mut T,
    mode: ExecMode,
    dpu: i64,
    env: HashMap<u32, i64>,
}

impl<'a, T: Tracer> Interpreter<'a, T> {
    /// Creates an interpreter over `store`, reporting events to `tracer`.
    pub fn new(store: &'a mut MemoryStore, tracer: &'a mut T, mode: ExecMode) -> Self {
        Interpreter {
            store,
            tracer,
            mode,
            dpu: 0,
            env: HashMap::new(),
        }
    }

    /// Selects the DPU context used to resolve MRAM/WRAM buffer instances.
    pub fn set_dpu(&mut self, dpu: i64) {
        self.dpu = dpu;
    }

    /// Binds a free variable (e.g. DPU grid coordinates or the tasklet id)
    /// before running a kernel.
    pub fn bind(&mut self, var: &Var, value: i64) {
        self.env.insert(var.id, value);
    }

    /// Runs a statement tree.
    ///
    /// # Errors
    /// Returns an error on out-of-bounds accesses, unbound variables or
    /// unallocated buffers.
    pub fn run(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Seq(stmts) => {
                for s in stmts {
                    self.run(s)?;
                }
                Ok(())
            }
            Stmt::Nop => Ok(()),
            Stmt::For {
                var,
                extent,
                kind,
                body,
            } => {
                let n = self.eval(extent)?.as_int();
                self.tracer.loop_extent(n);
                self.tracer.loop_enter();
                // Tasklet / DPU / host-parallel loops are still executed
                // sequentially here; parallelism is accounted for by the
                // simulator's timing model, not the functional semantics.
                let _ = kind;
                let prev = self.env.get(&var.id).copied();
                for it in 0..n {
                    self.tracer.loop_iter();
                    self.env.insert(var.id, it);
                    self.run(body)?;
                }
                match prev {
                    Some(v) => {
                        self.env.insert(var.id, v);
                    }
                    None => {
                        self.env.remove(&var.id);
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)?.is_true();
                self.tracer.branch(c);
                if c {
                    self.run(then_branch)
                } else if let Some(e) = else_branch {
                    self.run(e)
                } else {
                    Ok(())
                }
            }
            Stmt::Store { buf, index, value } => {
                let idx = self.eval(index)?.as_int();
                let v = self.eval(value)?.as_float();
                self.tracer.store(buf.scope, buf.dtype.bytes());
                if self.mode == ExecMode::Functional {
                    self.store.write_elem(buf, self.dpu, idx, v)?;
                }
                Ok(())
            }
            Stmt::Alloc { buf, body } => {
                if self.mode == ExecMode::Functional && !self.store.contains(buf, self.dpu) {
                    self.store.alloc(buf, self.dpu);
                }
                self.run(body)
            }
            Stmt::Dma {
                dst,
                dst_off,
                src,
                src_off,
                elems,
            } => {
                let d_off = self.eval(dst_off)?.as_int();
                let s_off = self.eval(src_off)?.as_int();
                let n = self.eval(elems)?.as_int();
                let bytes = (n.max(0) as usize) * dst.dtype.bytes();
                self.tracer.dma(bytes);
                if self.mode == ExecMode::Functional {
                    self.store
                        .copy(dst, self.dpu, d_off, src, self.dpu, s_off, n)?;
                }
                Ok(())
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
                let dpu_idx = self.eval(dpu)?.as_int();
                let g_off = self.eval(global_off)?.as_int();
                let m_off = self.eval(mram_off)?.as_int();
                let n = self.eval(elems)?.as_int();
                let bytes = (n.max(0) as usize) * global.dtype.bytes();
                self.tracer.host_transfer(*dir, dpu_idx, bytes, *parallel);
                if self.mode == ExecMode::Functional {
                    match dir {
                        TransferDir::H2D => {
                            if !self.store.contains(mram, dpu_idx) {
                                self.store.alloc(mram, dpu_idx);
                            }
                            self.store.copy(mram, dpu_idx, m_off, global, 0, g_off, n)?;
                        }
                        TransferDir::D2H => {
                            self.store.copy(global, 0, g_off, mram, dpu_idx, m_off, n)?;
                        }
                    }
                }
                Ok(())
            }
            Stmt::Barrier => {
                self.tracer.barrier();
                Ok(())
            }
            Stmt::Evaluate(e) => {
                self.eval(e)?;
                Ok(())
            }
        }
    }

    /// Evaluates an expression in the current environment.
    ///
    /// # Errors
    /// Returns an error on unbound variables or out-of-bounds loads.
    pub fn eval(&mut self, expr: &Expr) -> Result<Value> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Var(v) => self
                .env
                .get(&v.id)
                .map(|x| Value::Int(*x))
                .ok_or_else(|| TirError::UnboundVar(v.name.to_string())),
            Expr::Binary(op, a, b) => {
                let x = self.eval(a)?;
                let y = self.eval(b)?;
                self.tracer.alu(1);
                Ok(eval_binary(*op, x, y))
            }
            Expr::Cmp(op, a, b) => {
                let x = self.eval(a)?;
                let y = self.eval(b)?;
                self.tracer.alu(1);
                Ok(Value::Int(eval_cmp(*op, x, y) as i64))
            }
            Expr::And(a, b) => {
                let x = self.eval(a)?;
                self.tracer.alu(1);
                if !x.is_true() {
                    return Ok(Value::Int(0));
                }
                let y = self.eval(b)?;
                Ok(Value::Int(y.is_true() as i64))
            }
            Expr::Or(a, b) => {
                let x = self.eval(a)?;
                self.tracer.alu(1);
                if x.is_true() {
                    return Ok(Value::Int(1));
                }
                let y = self.eval(b)?;
                Ok(Value::Int(y.is_true() as i64))
            }
            Expr::Not(a) => {
                let x = self.eval(a)?;
                self.tracer.alu(1);
                Ok(Value::Int(!x.is_true() as i64))
            }
            Expr::Select(c, a, b) => {
                let cv = self.eval(c)?;
                self.tracer.alu(1);
                if cv.is_true() {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            Expr::Load { buf, index } => {
                let idx = self.eval(index)?.as_int();
                self.tracer.load(buf.scope, buf.dtype.bytes());
                if self.mode == ExecMode::Functional {
                    let v = self.store.read_elem(buf, self.dpu, idx)?;
                    if buf.dtype.is_float() {
                        Ok(Value::Float(v))
                    } else {
                        Ok(Value::Int(v as i64))
                    }
                } else {
                    Ok(Value::Float(0.0))
                }
            }
            Expr::Cast(dt, a) => {
                let x = self.eval(a)?;
                self.tracer.alu(1);
                if dt.is_float() {
                    Ok(Value::Float(x.as_float()))
                } else {
                    Ok(Value::Int(x.as_int()))
                }
            }
        }
    }
}

fn eval_binary(op: BinOp, a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::FloorDiv => {
                if y == 0 {
                    0
                } else {
                    x.div_euclid(y)
                }
            }
            BinOp::FloorMod => {
                if y == 0 {
                    0
                } else {
                    x.rem_euclid(y)
                }
            }
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        }),
        _ => {
            let x = a.as_float();
            let y = b.as_float();
            // Division by zero yields 0 like the integer path (TVM's
            // convention), so mixed int/float index arithmetic cannot
            // produce a NaN where the integer path produces a number.
            Value::Float(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::FloorDiv => {
                    if y == 0.0 {
                        0.0
                    } else {
                        (x / y).floor()
                    }
                }
                BinOp::FloorMod => {
                    if y == 0.0 {
                        0.0
                    } else {
                        x - (x / y).floor() * y
                    }
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            })
        }
    }
}

fn eval_cmp(op: CmpOp, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        },
        _ => {
            let x = a.as_float();
            let y = b.as_float();
            match op {
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
            }
        }
    }
}

/// Convenience function: allocate a buffer, run a statement with no free
/// variables and return the contents of `out`.
///
/// Primarily intended for unit tests of individual passes.
///
/// # Errors
/// Propagates interpreter errors.
pub fn run_simple(
    stmt: &Stmt,
    buffers: &[(&Arc<Buffer>, Vec<f32>)],
    out: &Arc<Buffer>,
) -> Result<Vec<f32>> {
    let mut store = MemoryStore::new();
    for (buf, init) in buffers {
        store.alloc_with(buf, 0, init);
    }
    if !store.contains(out, 0) {
        store.alloc(out, 0);
    }
    let mut tracer = NoTrace;
    let mut interp = Interpreter::new(&mut store, &mut tracer, ExecMode::Functional);
    interp.run(stmt)?;
    Ok(store
        .read_all(out, 0)
        .map(|s| s.to_vec())
        .unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;

    fn vec_add_program(n: i64) -> (Arc<Buffer>, Arc<Buffer>, Arc<Buffer>, Stmt) {
        let a = Buffer::new("A", DType::F32, vec![n], MemScope::Global);
        let b = Buffer::new("B", DType::F32, vec![n], MemScope::Global);
        let c = Buffer::new("C", DType::F32, vec![n], MemScope::Global);
        let i = Var::new("i");
        let body = Stmt::store(
            &c,
            Expr::var(&i),
            Expr::load(&a, Expr::var(&i)).add(Expr::load(&b, Expr::var(&i))),
        );
        (a, b, c.clone(), Stmt::for_serial(i, n, body))
    }

    #[test]
    fn vector_add_executes() {
        let (a, b, c, prog) = vec_add_program(8);
        let av: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let bv: Vec<f32> = (0..8).map(|x| (x * 10) as f32).collect();
        let out = run_simple(&prog, &[(&a, av.clone()), (&b, bv.clone())], &c).unwrap();
        for i in 0..8 {
            assert_eq!(out[i], av[i] + bv[i]);
        }
    }

    #[test]
    fn counting_tracer_counts() {
        let (a, b, c, prog) = vec_add_program(8);
        let mut store = MemoryStore::new();
        store.alloc(&a, 0);
        store.alloc(&b, 0);
        store.alloc(&c, 0);
        let mut tracer = CountingTracer::default();
        let mut interp = Interpreter::new(&mut store, &mut tracer, ExecMode::Functional);
        interp.run(&prog).unwrap();
        assert_eq!(tracer.loop_iters, 8);
        assert_eq!(tracer.loads, 16);
        assert_eq!(tracer.stores, 8);
        assert_eq!(tracer.alu_ops, 8);
    }

    /// A tracer without a `bulk` override replays a batch event by event
    /// and must arrive at the totals the O(1) override computes.
    #[test]
    fn default_bulk_replay_matches_the_counting_override() {
        struct Replayed(CountingTracer);
        impl Tracer for Replayed {
            fn alu(&mut self, n: usize) {
                self.0.alu(n);
            }
            fn load(&mut self, scope: MemScope, bytes: usize) {
                self.0.load(scope, bytes);
            }
            fn store(&mut self, scope: MemScope, bytes: usize) {
                self.0.store(scope, bytes);
            }
            fn branch(&mut self, taken: bool) {
                self.0.branch(taken);
            }
            fn loop_iter(&mut self) {
                self.0.loop_iter();
            }
            fn dma(&mut self, bytes: usize) {
                self.0.dma(bytes);
            }
            fn host_transfer(&mut self, dir: TransferDir, dpu: i64, bytes: usize, parallel: bool) {
                self.0.host_transfer(dir, dpu, bytes, parallel);
            }
            fn barrier(&mut self) {
                self.0.barrier();
            }
        }
        let batch = BulkEvents {
            alu: 7,
            loads: vec![(MemScope::Wram, 4, 3)],
            stores: vec![(MemScope::Mram, 4, 2)],
            branches: 5,
            loop_enters: 1,
            loop_iters: 6,
            dma_requests: 3,
            dma_bytes: 100,
            barriers: 2,
            transfers: vec![
                TransferGroup {
                    dir: TransferDir::H2D,
                    parallel: true,
                    calls: 7,
                    bytes: 1001,
                },
                TransferGroup {
                    dir: TransferDir::D2H,
                    parallel: false,
                    calls: 1,
                    bytes: 0,
                },
            ],
        };
        let mut replayed = Replayed(CountingTracer::default());
        replayed.bulk(&batch);
        let mut counted = CountingTracer::default();
        counted.bulk(&batch);
        assert_eq!(replayed.0, counted);
        assert_eq!((counted.transfers, counted.transfer_bytes), (8, 1001));
    }

    #[test]
    fn timing_only_mode_counts_without_data() {
        let (a, b, c, prog) = vec_add_program(4);
        let mut store = MemoryStore::new();
        // No allocations at all: timing mode must not touch data.
        let _ = (a, b, c);
        let mut tracer = CountingTracer::default();
        let mut interp = Interpreter::new(&mut store, &mut tracer, ExecMode::TimingOnly);
        interp.run(&prog).unwrap();
        assert_eq!(tracer.loop_iters, 4);
        assert_eq!(tracer.stores, 4);
    }

    #[test]
    fn float_division_by_zero_returns_zero_like_the_integer_path() {
        for (x, y) in [
            (Value::Float(3.5), Value::Float(0.0)),
            (Value::Float(3.5), Value::Int(0)),
        ] {
            assert_eq!(eval_binary(BinOp::FloorDiv, x, y), Value::Float(0.0));
            assert_eq!(eval_binary(BinOp::FloorMod, x, y), Value::Float(0.0));
        }
        assert_eq!(
            eval_binary(BinOp::FloorDiv, Value::Int(7), Value::Int(0)),
            Value::Int(0)
        );
        assert_eq!(
            eval_binary(BinOp::FloorDiv, Value::Float(7.0), Value::Float(2.0)),
            Value::Float(3.0)
        );
    }

    /// Pins the documented [`ExecMode::TimingOnly`] contract: counts are
    /// identical to functional mode for affine guards, and data-dependent
    /// guards follow the all-zeros execution (matching branch counts, but
    /// possibly different guarded-body counts).
    #[test]
    fn timing_only_counts_match_functional_only_for_affine_guards() {
        let a = Buffer::new("A", DType::F32, vec![8], MemScope::Global);
        let b = Buffer::new("B", DType::F32, vec![8], MemScope::Global);
        let init: Vec<f32> = vec![1.0; 8];

        let counts = |prog: &Stmt, mode: ExecMode| {
            let mut store = MemoryStore::new();
            store.alloc_with(&a, 0, &init);
            store.alloc(&b, 0);
            let mut tracer = CountingTracer::default();
            let mut interp = Interpreter::new(&mut store, &mut tracer, mode);
            interp.run(prog).unwrap();
            tracer
        };

        // Affine guard: condition over the loop variable only.
        let i = Var::new("i");
        let affine = Stmt::for_serial(
            i.clone(),
            8i64,
            Stmt::if_then(
                Expr::var(&i).lt(Expr::int(5)),
                Stmt::store(&b, Expr::var(&i), Expr::load(&a, Expr::var(&i))),
            ),
        );
        assert_eq!(
            counts(&affine, ExecMode::Functional),
            counts(&affine, ExecMode::TimingOnly),
            "affine guards must count identically in both modes"
        );

        // Data-dependent guard: condition loads tensor data.  In timing-only
        // mode the load yields 0.0, so `A[i] > 0` is never taken and the
        // guarded store is never counted.
        let j = Var::new("j");
        let data_dep = Stmt::for_serial(
            j.clone(),
            8i64,
            Stmt::if_then(
                Expr::load(&a, Expr::var(&j)).gt(Expr::float(0.0)),
                Stmt::store(&b, Expr::var(&j), Expr::float(1.0)),
            ),
        );
        let full = counts(&data_dep, ExecMode::Functional);
        let timing = counts(&data_dep, ExecMode::TimingOnly);
        // Branch *events* still match: the condition is evaluated either way.
        assert_eq!(full.branches, timing.branches);
        assert_eq!(full.loads, timing.loads);
        // But the direction diverges: functional mode takes the branch (A is
        // all ones) and performs 8 stores; timing-only mode sees zeros and
        // performs none.  This is the documented contract, not a bug.
        assert_eq!(full.stores, 8);
        assert_eq!(timing.stores, 0);
    }

    #[test]
    fn same_instance_overlapping_dma_copies_like_memmove() {
        let m = Buffer::new("M", DType::F32, vec![8], MemScope::Mram);
        let mut store = MemoryStore::new();
        store.alloc_with(&m, 0, &(0..8).map(|x| x as f32).collect::<Vec<_>>());
        // Overlapping same-buffer copy: [0..4] -> [2..6].
        store.copy(&m, 0, 2, &m, 0, 0, 4).unwrap();
        assert_eq!(
            store.read_all(&m, 0).unwrap(),
            &[0.0, 1.0, 0.0, 1.0, 2.0, 3.0, 6.0, 7.0]
        );
    }

    #[test]
    fn gt_helper_exists_for_guards() {
        // `gt` is used by the timing-contract test above; keep it covered.
        let e = Expr::int(3).gt(Expr::int(2));
        assert!(matches!(e, Expr::Cmp(CmpOp::Gt, _, _)));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let a = Buffer::new("A", DType::F32, vec![4], MemScope::Global);
        let s = Stmt::store(&a, Expr::int(7), Expr::float(1.0));
        let err = run_simple(&s, &[], &a).unwrap_err();
        assert!(matches!(err, TirError::OutOfBounds { .. }));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let a = Buffer::new("A", DType::F32, vec![4], MemScope::Global);
        let i = Var::new("i");
        let s = Stmt::store(&a, Expr::var(&i), Expr::float(1.0));
        let err = run_simple(&s, &[], &a).unwrap_err();
        assert!(matches!(err, TirError::UnboundVar(_)));
    }

    #[test]
    fn dma_copies_between_scopes() {
        let mram = Buffer::new("Am", DType::F32, vec![16], MemScope::Mram);
        let wram = Buffer::new("AL", DType::F32, vec![4], MemScope::Wram);
        let mut store = MemoryStore::new();
        store.alloc_with(&mram, 2, &(0..16).map(|x| x as f32).collect::<Vec<_>>());
        store.alloc(&wram, 2);
        let dma = Stmt::Dma {
            dst: wram.clone(),
            dst_off: Expr::int(0),
            src: mram.clone(),
            src_off: Expr::int(4),
            elems: Expr::int(4),
        };
        let mut tracer = CountingTracer::default();
        let mut interp = Interpreter::new(&mut store, &mut tracer, ExecMode::Functional);
        interp.set_dpu(2);
        interp.run(&dma).unwrap();
        assert_eq!(tracer.dma_requests, 1);
        assert_eq!(tracer.dma_bytes, 16);
        assert_eq!(store.read_all(&wram, 2).unwrap(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn host_transfer_moves_tiles() {
        let global = Buffer::new("A", DType::F32, vec![8], MemScope::Global);
        let mram = Buffer::new("Am", DType::F32, vec![4], MemScope::Mram);
        let mut store = MemoryStore::new();
        store.alloc_with(&global, 0, &(0..8).map(|x| x as f32).collect::<Vec<_>>());
        let xfer = Stmt::HostTransfer {
            dir: TransferDir::H2D,
            dpu: Expr::int(1),
            global: global.clone(),
            global_off: Expr::int(4),
            mram: mram.clone(),
            mram_off: Expr::int(0),
            elems: Expr::int(4),
            parallel: false,
        };
        let mut tracer = CountingTracer::default();
        let mut interp = Interpreter::new(&mut store, &mut tracer, ExecMode::Functional);
        interp.run(&xfer).unwrap();
        assert_eq!(store.read_all(&mram, 1).unwrap(), &[4.0, 5.0, 6.0, 7.0]);
        // And back.
        let back = Stmt::HostTransfer {
            dir: TransferDir::D2H,
            dpu: Expr::int(1),
            global: global.clone(),
            global_off: Expr::int(0),
            mram: mram.clone(),
            mram_off: Expr::int(0),
            elems: Expr::int(4),
            parallel: true,
        };
        let mut tracer2 = CountingTracer::default();
        let mut interp = Interpreter::new(&mut store, &mut tracer2, ExecMode::Functional);
        interp.run(&back).unwrap();
        assert_eq!(
            &store.read_all(&global, 0).unwrap()[..4],
            &[4.0, 5.0, 6.0, 7.0]
        );
        assert_eq!(tracer2.transfer_bytes, 16);
    }

    #[test]
    fn guarded_store_respects_condition() {
        let a = Buffer::new("A", DType::F32, vec![8], MemScope::Global);
        let i = Var::new("i");
        let body = Stmt::if_then(
            Expr::var(&i).lt(Expr::int(5)),
            Stmt::store(&a, Expr::var(&i), Expr::float(1.0)),
        );
        let prog = Stmt::for_serial(i, 8i64, body);
        let out = run_simple(&prog, &[], &a).unwrap();
        assert_eq!(out, vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }
}
