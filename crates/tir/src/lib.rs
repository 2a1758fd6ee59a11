//! # atim-tir — Tensor IR for ATiM-RS
//!
//! This crate provides the tensor-level intermediate representation used by
//! the ATiM-RS reproduction of *"ATiM: Autotuning Tensor Programs for
//! Processing-in-DRAM"* (ISCA 2025).
//!
//! It mirrors the role TVM's TensorIR plays in the paper:
//!
//! * [`expr`] / [`stmt`] — loop-based TIR: expressions, statements, buffers
//!   with explicit memory scopes (host DRAM, per-DPU MRAM, per-DPU WRAM).
//! * [`compute`] — high-level computation definitions (the "TIR template" of
//!   Fig. 6): tensor shapes, spatial/reduction axes and the per-element
//!   expression.
//! * [`schedule`] — schedule primitives (`split`, `reorder`, `bind`,
//!   `cache_read`, `cache_write`, `compute_at`, `rfactor`, `parallel`,
//!   `unroll`) repurposed for joint host/kernel optimization, plus the
//!   lowering pass that produces per-DPU kernels, host transfer programs and
//!   host reduction loops.
//! * [`eval`] — one production evaluator, two references.  The evaluator
//!   is the bytecode (`eval::CompiledProgram::compile(..)`): a statement
//!   tree flattened once into an instruction buffer, reused across every
//!   simulated DPU and — for measurements — rewritten by an
//!   event-count-preserving optimizer (`.optimize()`); functional execution
//!   ([`schedule::execute_functional`]) runs on it too.  The references it
//!   is tested against are the unoptimized bytecode and the tree
//!   `eval::Interpreter` (hidden: test reference only).  All three
//!   are parameterized by a [`eval::Tracer`] so the UPMEM simulator
//!   (`atim-sim`) can attach its cycle/instruction accounting to the exact
//!   same execution that produces functional results.
//! * [`affine`] — linear-expression analysis used by the PIM-aware passes
//!   (boundary-check elimination, loop-bound tightening, branch hoisting).
//!
//! # Example
//!
//! ```
//! use atim_tir::compute::ComputeDef;
//! use atim_tir::schedule::{Binding, Schedule};
//!
//! // C[i] = sum_k A[i,k] * B[k]  (matrix-times-vector)
//! let def = ComputeDef::mtv("mtv", 64, 64);
//! let mut sch = Schedule::new(def);
//! let loops = sch.loop_refs();
//! let (i_dpu, _i_in) = sch.split(loops[0], 8).unwrap();
//! sch.bind(i_dpu, Binding::DpuX).unwrap();
//! let lowered = sch.lower().unwrap();
//! assert_eq!(lowered.grid.num_dpus(), 8);
//! ```

pub mod affine;
pub mod buffer;
pub mod compute;
pub mod dtype;
pub mod error;
pub mod eval;
pub mod expr;
pub mod printer;
pub mod schedule;
pub mod simplify;
pub mod stmt;
pub mod visit;

pub use buffer::{Buffer, BufferId, MemScope, Var};
pub use compute::{AccessExpr, AxisDef, AxisKind, ComputeDef, TensorDecl};
pub use dtype::DType;
pub use error::{Result, TirError};
pub use expr::{BinOp, CmpOp, Expr};
pub use stmt::{ForKind, Stmt, TransferDir};
