//! `atim-tir`: trace application, lowering, bytecode compilation.

use atim_autotune::Trace;
use atim_tir::compute::ComputeDef;
use atim_tir::eval::CompiledProgram;
use atim_tir::schedule::{Lowered, Schedule};
use atim_tir::stmt::Stmt;

/// `Trace::apply`.  Candidates come from a tuning's history, so they apply.
pub fn apply(trace: &Trace, def: &ComputeDef) -> Schedule {
    trace.apply(def).expect("a measured candidate applies")
}

/// `Schedule::lower`.
pub fn lower(schedule: &Schedule) -> Lowered {
    schedule.lower().expect("a measured candidate lowers")
}

/// Statement nodes (`Stmt::count_nodes`, all kinds) over every program of a
/// lowered candidate.
pub fn lowered_nodes(lowered: &Lowered) -> usize {
    programs_of(lowered)
        .map(|stmt| {
            let c = stmt.count_nodes();
            c.loops + c.branches + c.stores + c.allocs + c.dmas + c.host_transfers + c.barriers
        })
        .sum()
}

fn programs_of(lowered: &Lowered) -> impl Iterator<Item = &Stmt> {
    [
        &lowered.h2d_setup,
        &lowered.h2d,
        &lowered.kernel.body,
        &lowered.d2h,
    ]
    .into_iter()
    .chain(lowered.host_reduce.as_ref())
}

/// The optimized bytecode of every program of a candidate, as the simulator
/// prepares them on its fast path.
pub struct Programs {
    pub h2d_setup: CompiledProgram,
    pub h2d: CompiledProgram,
    pub kernel: CompiledProgram,
    pub d2h: CompiledProgram,
    pub host_reduce: Option<CompiledProgram>,
}

impl Programs {
    fn all(&self) -> impl Iterator<Item = &CompiledProgram> {
        [&self.h2d_setup, &self.h2d, &self.kernel, &self.d2h]
            .into_iter()
            .chain(self.host_reduce.as_ref())
    }

    /// Flat instructions over all programs.
    pub fn insts(&self) -> usize {
        self.all().map(CompiledProgram::len).sum()
    }

    /// Loops the optimizer marked summarizable for timing-only execution.
    pub fn summarized_loops(&self) -> usize {
        self.all().map(CompiledProgram::summarized_loops).sum()
    }
}

/// `CompiledProgram::compile(..).optimize()` for all programs.
pub fn bytecode(lowered: &Lowered) -> Programs {
    let prepare = |stmt: &Stmt| CompiledProgram::compile(stmt).optimize();
    Programs {
        h2d_setup: prepare(&lowered.h2d_setup),
        h2d: prepare(&lowered.h2d),
        kernel: prepare(&lowered.kernel.body),
        d2h: prepare(&lowered.d2h),
        host_reduce: lowered.host_reduce.as_ref().map(prepare),
    }
}
