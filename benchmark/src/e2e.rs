//! The end-to-end run (`--trace 0`): what a user of the tuning compiler
//! feels.  Nothing here records spans.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::baselines;
use crate::check::output_gate;
use crate::fixture::Fixture;
use crate::phases::{
    churn_phase, cold_start_phase, deploy_best, hit_phase, judge_best, micros, millis, request_rng,
    serve_phase, tune_phase, Limit,
};
use crate::registry::Registry;
use crate::report::RunOutput;
use crate::spec::Spec;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Operation caps per phase.  On a fast machine a phase ends at its cap
/// before its share of `--seconds` is spent, which also bounds the memory
/// the samples take.  Requests stay well below the ephemeral port range:
/// every one is its own TCP connection and lingers in TIME_WAIT.
const COLD_START_CAP: usize = 60;
const HIT_CAP: usize = 20_000;
const SERVE_CAP: usize = 4000;
const CHURN_BLOCK_CAP: usize = 3;

pub fn run<'r>(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    registry: &'r Registry,
    tmp: &Path,
) -> RunOutput<'r> {
    let mut out = RunOutput::new(spec.name, &registry.end_to_end);

    let mut setups = Vec::new();
    let mut fixture = None;
    for rep in 0..SETUP_REPS {
        drop(fixture.take());
        let started = Instant::now();
        let dir = tmp.join(format!("setup_{rep}"));
        fixture = Some(Fixture::build(spec, seed, &dir));
        setups.push(started.elapsed().as_secs_f64());
    }
    let fx = fixture.expect("SETUP_REPS is positive");
    out.timing("setup_s", &setups);

    let share = |share: f64, cap: usize| Limit::Time {
        budget: Duration::from_secs_f64(seconds * share),
        cap,
    };
    let shares = spec.shares;
    let tally = &mut out.tally;
    let mut rng = request_rng(seed);

    let tuning = tune_phase(&fx, spec, share(shares.tune, usize::MAX), tally);
    let best = judge_best(&fx, spec, &tuning, tally);
    let prim_ms = baselines::prim_ms(&fx, spec, tally);
    deploy_best(&fx, spec, &tuning, tally);
    let cold = cold_start_phase(&fx, spec, share(shares.cold_start, COLD_START_CAP), tally);
    let hits = hit_phase(&fx, &mut rng, share(shares.hit, HIT_CAP), tally);
    let served = serve_phase(&fx, &mut rng, share(shares.serve, SERVE_CAP), tally);
    let churn = churn_phase(
        &fx,
        spec,
        &mut rng,
        share(shares.churn, CHURN_BLOCK_CAP),
        tally,
    );
    // Read before the output gate allocates the operator's tensors and the
    // functional simulation's memory image: the peak is the program's.
    let peak_rss_mb = peak_rss_mb();
    let trace = tuning.tuned[best.space].best_trace();
    output_gate(&fx, spec, best.space, trace, seed, tally);

    out.timing("tune_wall_s", &tuning.walls_s);
    out.metrics.emit("tuned_latency_ms", best.report.total_ms());
    out.metrics
        .emit("speedup_vs_prim", prim_ms / best.report.total_ms());
    out.timing("cold_start_ms", &millis(&cold));
    out.timing("cache_hit_us", &micros(&hits));
    out.timing("serve_hit_us", &micros(&served.samples));
    out.timing("cache_record_us", &micros(&churn.records));
    let rates: Vec<f64> = churn
        .blocks
        .iter()
        .map(|block| spec.churn_block as f64 / block.secs())
        .collect();
    out.timing("churn_ops_per_s", &rates);
    out.metrics.emit("peak_rss_mb", peak_rss_mb);
    out
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
