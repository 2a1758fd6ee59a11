//! # atim-core — the ATiM compiler and runtime for (simulated) UPMEM
//!
//! This crate ties the ATiM-RS pieces into the end-to-end flow of the
//! paper's Fig. 5: design-space generation and evolutionary search
//! (`atim-autotune`), TIR lowering (`atim-tir`), PIM-aware optimization
//! (`atim-passes`), and execution/measurement on the simulated UPMEM machine
//! (`atim-sim`).
//!
//! The central type is [`Session`]: built once per target machine (with a
//! pluggable measurement [`Backend`] — the simulator by default), it tunes,
//! compiles and executes workloads, streams tuning progress through
//! observers, and persists searches as replayable
//! [`TuneLog`](atim_autotune::log::TuneLog)s:
//!
//! ```
//! use atim_core::prelude::*;
//! use atim_tir::compute::ComputeDef;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = Session::builder()
//!     .hardware(UpmemConfig::default())
//!     .build();
//! let def = ComputeDef::mtv("mtv", 256, 256);
//!
//! // Search the joint host/kernel trace space, compile the winning trace,
//! // execute it.
//! let tuned = session.tune(&def, &TuningOptions::quick())?;
//! let module = session.compile(tuned.best_trace(), &def)?;
//! let inputs = atim_workloads::data::generate_inputs(&def, 1);
//! let run = session.execute(&module, &inputs)?;
//! assert!(run.report.total_ms() > 0.0);
//!
//! // Tune once, serve many: the search is durable and replayable.
//! let log = tuned.to_log(TuningOptions::quick().seed);
//! let replayed = session.replay(&def, &log);
//! assert_eq!(replayed.best_trace(), tuned.best_trace());
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod compiler;
pub mod fleet;
pub mod measure;
pub mod session;
pub mod tuned;

pub use backend::{AnalyticBackend, Backend, SimBackend};
pub use compiler::{
    compile_config, compile_schedule, compile_trace, CompileOptions, CompiledModule,
};
pub use fleet::{
    backoff_delay, BackendSpec, FaultPlan, FleetBackend, FleetError, FleetOptions, FleetStats,
    WorkerState,
};
pub use measure::{default_measure_threads, BackendMeasurer};
pub use session::{Session, SessionBuilder, SessionError};
pub use tuned::TunedModule;

/// Commonly used re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::{
        AnalyticBackend, Backend, BackendMeasurer, BackendSpec, CompileOptions, CompiledModule,
        FleetBackend, FleetOptions, FleetStats, Session, SessionBuilder, SessionError, SimBackend,
        TunedModule,
    };
    pub use atim_autotune::log::TuneLog;
    pub use atim_autotune::session::{Budget, NullObserver, TuningError, TuningObserver};
    pub use atim_autotune::{
        resolve_generator, HardwareNativeGenerator, ScheduleConfig, SpaceGenerator,
        TiledSketchGenerator, Trace, TuningOptions, UpmemSketchGenerator, RESIDENT_GENERATOR_IDS,
        SPACE_GENERATOR_ENV,
    };
    pub use atim_passes::OptLevel;
    pub use atim_sim::{SimMode, SimResult, UpmemConfig};
    pub use atim_tir::compute::ComputeDef;
    pub use atim_workloads::{Workload, WorkloadKind};
}
