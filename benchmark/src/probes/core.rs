//! `atim-core`: whole-candidate measurement and compilation through the
//! session, untraced.

use atim_autotune::Trace;
use atim_core::Session;
use atim_tir::compute::ComputeDef;

/// `Session::measure`: compile and time one candidate on the session's
/// backend; the simulated latency in seconds.
pub fn measure(session: &Session, trace: &Trace, def: &ComputeDef) -> f64 {
    session
        .measure(trace, def)
        .expect("a measured candidate measures again")
}

/// `Session::compile`.
pub fn compile(session: &Session, trace: &Trace, def: &ComputeDef) {
    let module = session
        .compile(trace, def)
        .expect("the best trace compiles");
    std::hint::black_box(module);
}
