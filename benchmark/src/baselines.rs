//! The denominator of `speedup_vs_prim`.

use atim_baselines::prim::prim_default;

use crate::fixture::Fixture;
use crate::phases::Tally;
use crate::spec::Spec;

/// Simulated latency, in ms, of PrIM's default (non-searched) configuration
/// for the spec's operator, through the same compile and time path as the
/// tuned schedule.
pub fn prim_ms(fx: &Fixture, spec: &Spec, tally: &mut Tally) -> f64 {
    let config = prim_default(&spec.workload, &fx.hw);
    let report = fx
        .judge
        .compile_config(&config, &fx.def)
        .and_then(|module| fx.judge.time(&module));
    tally.op(
        report.is_ok(),
        "the PrIM default configuration compiles and runs",
    );
    report.map_or(f64::NAN, |r| r.total_ms())
}
