//! The output gate: the tuned schedule must compute the reference result.

use std::time::Instant;

use atim_autotune::{resolve_generator, Trace};
use atim_workloads::data::{generate_inputs, results_match};

use crate::fixture::Fixture;
use crate::phases::Tally;
use crate::spec::Spec;

/// Host time the gate spent, reported for context.
pub struct GateTimes {
    /// `ComputeDef::reference` on the seeded inputs.
    pub reference_s: f64,
    /// `Session::execute`, the functional simulation.
    pub execute_s: f64,
}

/// Compiles `best`, executes it functionally on inputs generated from
/// `seed` and compares the output with `ComputeDef::reference`.
///
/// When the spec's check shape differs from the tuned shape (interpreting
/// the full operator would take minutes), the best trace's decisions are
/// re-materialized on the check shape by the generator that produced them:
/// the gate then covers that space's rules and the lowering, not the exact
/// tuned program, which is only compiled and timed.
pub fn output_gate(
    fx: &Fixture,
    spec: &Spec,
    space: usize,
    best: &Trace,
    seed: u64,
    tally: &mut Tally,
) -> GateTimes {
    let (def, trace) = if spec.check == spec.workload {
        (fx.def.clone(), Ok(best.clone()))
    } else {
        let def = spec.check.compute_def();
        let generator = resolve_generator(spec.generators[space]).expect("resident generator id");
        let shrunk = Trace::from_decisions(best.sketch(), best.decisions());
        let trace = generator.materialize(&shrunk, &def, &fx.hw);
        (def, trace)
    };
    let inputs = generate_inputs(&def, seed);
    let started = Instant::now();
    let expect = def.reference(&inputs);
    let reference_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let run = trace
        .and_then(|trace| fx.judge.compile(&trace, &def))
        .and_then(|module| fx.judge.execute(&module, &inputs));
    let execute_s = started.elapsed().as_secs_f64();

    let reduce_len: i64 = def
        .reduce_axes()
        .iter()
        .map(|&a| def.axes[a].extent)
        .product();
    let matches = run.is_ok_and(|run| {
        run.output
            .is_some_and(|got| results_match(&got, &expect, reduce_len as usize))
    });
    tally.check(matches, "the tuned schedule computes the reference output");
    GateTimes {
        reference_s,
        execute_s,
    }
}
