//! Pins the rule-built `upmem` sketch against the hand-written sketch it
//! replaced, instruction for instruction.
//!
//! `fixtures/upmem_sketch_golden.txt` was captured from the hand-written
//! `record_sketch` body at commit `fbd7eee` (the last commit that had one):
//! one line per (workload, knob vector) with the FNV-1a hash of
//! `format!("{:?}", trace.insts())` and the register count.  The traces are
//! now elaborated by `sketch::upmem_rules()`; this test regenerates every
//! line and compares.  The knob vectors are printed in the lines too, so the
//! seeded `sample`/`mutate` draws pin the RNG consumption of the samplers as
//! well as the structure.
//!
//! The fixture is a record of deleted code: never regenerate it from the
//! rule engine.  (`ScheduleConfig::instantiate` remains as the living,
//! independent reference — see `trace_equivalence.rs`.)

use atim_autotune::{ScheduleConfig, SpaceGenerator, Trace, UpmemSketchGenerator};
use atim_sim::UpmemConfig;
use atim_tir::compute::{AccessExpr, AxisDef, AxisKind, ComputeDef, TensorDecl};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("fixtures/upmem_sketch_golden.txt");

/// A non-reducing workload with two spatial axes — no paper kernel has that
/// shape, and it is the one where the cache chunk loop must nest *after*
/// the other spatial loops.
fn ewadd2d(name: &str, m: i64, n: i64) -> ComputeDef {
    ComputeDef {
        name: name.into(),
        axes: vec![
            AxisDef::new("i", m, AxisKind::Spatial),
            AxisDef::new("j", n, AxisKind::Spatial),
        ],
        inputs: vec![
            TensorDecl::new("A", vec![0, 1]),
            TensorDecl::new("B", vec![0, 1]),
        ],
        output: TensorDecl::new("C", vec![0, 1]),
        term: AccessExpr::input(0).add(AccessExpr::input(1)),
    }
}

/// All ten workload kinds, an aligned and a misaligned shape each.
fn workloads() -> Vec<ComputeDef> {
    vec![
        ComputeDef::va("va", 4096),
        ComputeDef::va("va_odd", 1000),
        ComputeDef::red("red", 1 << 14),
        ComputeDef::red("red_odd", 1234),
        ComputeDef::mtv("mtv", 512, 768),
        ComputeDef::mtv("mtv_odd", 33, 47),
        ComputeDef::mmtv("mmtv", 8, 64, 128),
        ComputeDef::mmtv("mmtv_odd", 6, 11, 36),
        ComputeDef::ttv("ttv", 6, 96, 64),
        ComputeDef::ttv("ttv_odd", 5, 13, 40),
        ComputeDef::geva("geva", 8192, 1.5, -0.5),
        ComputeDef::geva("geva_odd", 777, 1.5, -0.5),
        ComputeDef::gemv("gemv", 384, 640, 2.0),
        ComputeDef::gemv("gemv_odd", 97, 103, 0.5),
        ComputeDef::bgemm("bgemm", 4, 16, 16, 32),
        ComputeDef::bgemm("bgemm_odd", 3, 10, 7, 20),
        ComputeDef::attn("attn", 8, 32, 64),
        ComputeDef::attn("attn_odd", 5, 12, 24),
        ComputeDef::qgemv("qgemv", 128, 160),
        ComputeDef::qgemv("qgemv_odd", 61, 83),
        ewadd2d("ewadd2d", 64, 96),
        ewadd2d("ewadd2d_odd", 7, 13),
    ]
}

/// The knob vectors no sampler draws: degenerate, oversized, non-positive
/// and wrong-rank values, each a one-field edit of the default sketch.
fn edge_vectors(def: &ComputeDef, hw: &UpmemConfig) -> Vec<ScheduleConfig> {
    const HUGE: i64 = 1 << 40;
    let base = ScheduleConfig::default_for(def, hw);
    let rank = base.spatial_dpus.len();
    let edit = |f: &dyn Fn(&mut ScheduleConfig)| {
        let mut c = base.clone();
        f(&mut c);
        c
    };
    vec![
        base.clone(),
        edit(&|c| c.reduce_dpus = 2),
        edit(&|c| c.tasklets = 1),
        edit(&|c| c.tasklets = 0),
        edit(&|c| c.tasklets = -4),
        edit(&|c| c.tasklets = 1000),
        edit(&|c| c.cache_elems = HUGE),
        edit(&|c| c.cache_elems = 0),
        edit(&|c| c.cache_elems = -5),
        edit(&|c| c.cache_elems = 1),
        edit(&|c| {
            c.use_cache = false;
            c.unroll = true;
        }),
        edit(&|c| {
            c.cache_elems = 2;
            c.unroll = true;
        }),
        edit(&|c| {
            c.cache_elems = HUGE;
            c.unroll = true;
        }),
        edit(&|c| c.reduce_dpus = HUGE),
        edit(&|c| c.reduce_dpus = 0),
        edit(&|c| c.reduce_dpus = -3),
        edit(&|c| c.spatial_dpus = vec![HUGE; rank]),
        edit(&|c| c.spatial_dpus = vec![0; rank]),
        edit(&|c| c.spatial_dpus = vec![-2; rank]),
        edit(&|c| c.spatial_dpus = vec![3; rank]),
        // Wrong-rank vectors: missing axes default to one DPU, extra entries
        // are carried in the decision list but never used.
        edit(&|c| c.spatial_dpus.clear()),
        edit(&|c| c.spatial_dpus.push(4)),
        edit(&|c| {
            c.host_threads = 32;
            c.parallel_transfer = false;
        }),
    ]
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(def: &ComputeDef, origin: &str, trace: &Trace) -> String {
    let k = ScheduleConfig::from_trace(trace).expect("upmem trace carries knobs");
    let spatial: Vec<String> = k.spatial_dpus.iter().map(|d| d.to_string()).collect();
    let knobs = format!(
        "s=[{}] r={} t={} c={} uc={} u={} h={} pt={}",
        spatial.join(","),
        k.reduce_dpus,
        k.tasklets,
        k.cache_elems,
        k.use_cache,
        k.unroll,
        k.host_threads,
        k.parallel_transfer
    );
    let body = if trace.is_materialized() {
        format!(
            "{:016x} regs={}",
            fnv1a(&format!("{:?}", trace.insts())),
            trace.regs()
        )
    } else {
        "decisions-only".to_string()
    };
    format!("{} {origin} {knobs} -> {body}", def.name)
}

fn golden_lines() -> Vec<String> {
    let hw = UpmemConfig::default();
    let gen = UpmemSketchGenerator;
    let mut out = Vec::new();
    for (idx, def) in workloads().iter().enumerate() {
        for (i, s) in gen.sketches(def, &hw).iter().enumerate() {
            out.push(line(def, &format!("sketch{i}"), s));
        }
        // 32 seeded draws: 16 samples (alternating design spaces), each
        // followed by one mutation of itself.
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + idx as u64);
        for i in 0..16 {
            let sampled = gen.sample(&mut rng, def, &hw, i % 2 == 0);
            let mutated = gen.mutate(&mut rng, def, &hw, &sampled);
            out.push(line(def, &format!("sample{i}"), &sampled));
            out.push(line(def, &format!("mutate{i}"), &mutated));
        }
        for (i, cfg) in edge_vectors(def, &hw).iter().enumerate() {
            let trace = cfg.to_trace(def);
            // Identity is decisions-only: whatever the structure, the trace
            // carries exactly the knob vector it was built from.
            assert_eq!(ScheduleConfig::from_trace(&trace).as_ref(), Some(cfg));
            out.push(line(def, &format!("edge{i}"), &trace));
        }
    }
    out
}

#[test]
fn rule_built_upmem_traces_reproduce_the_hand_sketch_golden() {
    let got = golden_lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "golden line count");
    for (n, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "golden line {} diverges", n + 1);
    }
}

/// The golden covers what it claims to: every workload, distinct traces,
/// and — since the hand-written sketch instantiated every knob vector it was
/// given — not one `decisions-only` line.
#[test]
fn golden_fixture_is_not_vacuous() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert!(lines.len() >= 22 * (32 + 20), "{} lines", lines.len());
    for def in workloads() {
        let prefix = format!("{} ", def.name);
        assert!(lines.iter().any(|l| l.starts_with(&prefix)), "{prefix}");
    }
    assert!(!lines.iter().any(|l| l.ends_with("decisions-only")));
    let distinct: std::collections::HashSet<&str> = lines
        .iter()
        .filter_map(|l| l.split(" -> ").nth(1))
        .collect();
    assert!(
        distinct.len() > 1000,
        "only {} distinct traces",
        distinct.len()
    );
}
