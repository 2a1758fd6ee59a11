//! # atim-sim — UPMEM DRAM-PIM functional + timing simulator
//!
//! The ATiM paper evaluates on a physical UPMEM server (2048 DPUs across 32
//! ranks of DDR4-2400 PIM DIMMs).  This crate substitutes that hardware with
//! a simulator that:
//!
//! * **executes** lowered host/kernel programs functionally (via the
//!   `atim-tir` interpreter), so results can be checked against reference
//!   implementations, and
//! * **times** the same execution with a cost model that captures the
//!   mechanisms the paper's analysis rests on:
//!   - the DPU is a 14-stage in-order multithreaded core: one instruction
//!     per cycle across tasklets, and each tasklet can issue at most once
//!     every [`config::UpmemConfig::issue_interval`] cycles (so ≥11 tasklets
//!     are needed to saturate the pipeline),
//!   - there is no branch prediction, so every boundary check costs real
//!     issue slots (§3, Fig. 4),
//!   - WRAM accesses are single-cycle, while MRAM is only reachable through
//!     DMA transfers with a fixed setup cost plus a per-byte cost, making
//!     small transfers setup-dominated (§7.3, Fig. 13),
//!   - host↔DPU transfers go through the host CPU's memory channels, with a
//!     per-SDK-call overhead and per-rank bandwidth that only parallel
//!     (push) transfers can aggregate (§2.1),
//!   - the host CPU is modelled as a memory-bandwidth-limited multicore for
//!     final reductions and the CPU baseline.
//!
//! The absolute latencies differ from the authors' testbed, but the relative
//! behaviour — who wins, by what factor, where crossovers fall — follows the
//! same mechanics.
//!
//! # Example
//!
//! ```
//! use atim_sim::{SimMode, UpmemConfig, UpmemMachine};
//! use atim_tir::compute::ComputeDef;
//! use atim_tir::schedule::Schedule;
//!
//! // Lower a vector addition and execute it functionally on a small box.
//! let def = ComputeDef::va("va", 64);
//! let lowered = Schedule::new(def).lower().unwrap();
//! let machine = UpmemMachine::new(UpmemConfig::small());
//! let inputs = vec![vec![1.0f32; 64], vec![2.0f32; 64]];
//! let result = machine.run(&lowered, &inputs, SimMode::Full).unwrap();
//! assert_eq!(result.output.unwrap()[0], 3.0);
//! assert!(result.report.total_ms() > 0.0);
//! ```

pub mod config;
pub mod cpu;
pub mod dpu;
pub mod machine;
pub mod stats;
pub mod timing;

pub use config::{PimTarget, UpmemConfig};
pub use machine::{SimMode, SimResult, UpmemMachine};
pub use stats::{CycleBreakdown, DpuCounters, ExecutionReport};
