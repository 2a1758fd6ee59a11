//! `perf_ledger` — the repo's performance ledger.  See `benchmark/README.md`.

mod baselines;
mod check;
mod driver;
mod e2e;
mod fixture;
mod phases;
mod probes;
mod registry;
mod report;
mod span;
mod spec;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use registry::Registry;

const USAGE: &str = "usage:
  perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  perf_ledger run [--seed <n>] [--seconds <s>] [--repeat <k>] [--quick]
  perf_ledger compare <a.json> <b.json>";

/// Where runs leave their files: `benchmark/out`, next to this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The value following `flag`, if the flag is present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    Some(
        args.get(at + 1)
            .unwrap_or_else(|| fail(&format!("{flag} needs a value"))),
    )
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad value for {flag}: {raw}"))),
        None => default,
    }
}

fn fail(message: &str) -> ! {
    eprintln!("perf_ledger: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    // Hermetic: no `ATIM_*` knob of the caller's environment reaches the
    // program.  Done before any thread exists.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("ATIM_") {
            std::env::remove_var(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = Registry::load();
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parsed(&args, "--seed", 1);
    let seconds: f64 = parsed(&args, "--seconds", registry.run_seconds);
    if !(seconds > 0.0 && seconds <= 60.0) {
        fail("--seconds must be in (0, 60]");
    }

    match args.first().map(String::as_str) {
        Some("run") => {
            let run = driver::RunArgs {
                seed,
                seconds,
                repeat: parsed(&args, "--repeat", 1),
                quick,
            };
            return exit_code(driver::run_sets(&registry, &out_dir(), &run));
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                fail("compare takes two results files");
            };
            return exit_code(driver::compare(&registry, a.as_ref(), b.as_ref()));
        }
        _ => {}
    }

    let Some(name) = flag_value(&args, "--workload") else {
        fail("no --workload given");
    };
    let trace = match flag_value(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => fail(&format!("bad value for --trace: {other}")),
    };
    let specs = spec::specs(quick);
    let Some(spec) = specs.iter().find(|s| s.name == name) else {
        fail(&format!("unknown workload {name}"));
    };
    let tmp = out_dir().join(format!("tmp_{name}_{}", std::process::id()));
    let output = if trace {
        let prefix = if quick { "quick_" } else { "" };
        let trace_file = out_dir().join(format!("{prefix}trace_{name}.json"));
        traced::run(spec, seed, &registry, &tmp, &trace_file)
    } else {
        e2e::run(spec, seed, seconds, &registry, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    exit_code(output.print())
}

fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
