//! `atim-passes`: the PIM-aware kernel passes and the transfer passes.

use atim_core::CompileOptions;
use atim_passes::pipeline::{optimize_kernel, optimize_transfers, PipelineStats};
use atim_tir::schedule::Lowered;

/// `optimize_kernel` on the candidate's kernel, in place.
pub fn kernel(lowered: &mut Lowered, options: CompileOptions) -> PipelineStats {
    let (body, stats) = optimize_kernel(lowered.kernel.body.clone(), options.opt_level);
    lowered.kernel.body = body;
    stats
}

/// `optimize_transfers` on both per-launch transfer programs, in place;
/// returns the transfer loops coalesced.
pub fn transfers(lowered: &mut Lowered, options: CompileOptions) -> usize {
    let (h2d, h2d_stats) = optimize_transfers(lowered.h2d.clone(), options.parallel_transfer);
    let (d2h, d2h_stats) = optimize_transfers(lowered.d2h.clone(), options.parallel_transfer);
    lowered.h2d = h2d;
    lowered.d2h = d2h;
    h2d_stats.loops_coalesced + d2h_stats.loops_coalesced
}
