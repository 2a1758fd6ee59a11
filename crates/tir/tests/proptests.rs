//! Property-based tests of the TIR core: simplification, affine analysis and
//! schedule lowering must preserve semantics for arbitrary (valid) inputs.

use std::collections::HashMap;

use atim_tir::affine::{as_linear, as_upper_bound};
use atim_tir::buffer::Var;
use atim_tir::compute::ComputeDef;
use atim_tir::eval::{
    CompiledProgram, CompiledRunner, CountingTracer, ExecMode, Interpreter, MemoryStore,
};
use atim_tir::expr::{BinOp, Expr};
use atim_tir::schedule::{execute_functional, Attach, Binding, Schedule};
use atim_tir::simplify::simplify_expr;
use atim_tir::{Buffer, DType, MemScope, Stmt};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

#[path = "common/transfer_nests.rs"]
mod transfer_nests;

/// Evaluates a data-free integer expression under a variable assignment.
fn eval_int(expr: &Expr, env: &HashMap<u32, i64>) -> i64 {
    match expr {
        Expr::Int(v) => *v,
        Expr::Float(v) => *v as i64,
        Expr::Var(v) => env[&v.id],
        Expr::Binary(op, a, b) => {
            let x = eval_int(a, env);
            let y = eval_int(b, env);
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::FloorDiv => {
                    if y == 0 {
                        0
                    } else {
                        x.div_euclid(y)
                    }
                }
                BinOp::FloorMod => {
                    if y == 0 {
                        0
                    } else {
                        x.rem_euclid(y)
                    }
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            }
        }
        Expr::Cmp(op, a, b) => {
            let x = eval_int(a, env);
            let y = eval_int(b, env);
            let r = match op {
                atim_tir::CmpOp::Lt => x < y,
                atim_tir::CmpOp::Le => x <= y,
                atim_tir::CmpOp::Gt => x > y,
                atim_tir::CmpOp::Ge => x >= y,
                atim_tir::CmpOp::Eq => x == y,
                atim_tir::CmpOp::Ne => x != y,
            };
            r as i64
        }
        Expr::And(a, b) => ((eval_int(a, env) != 0) && (eval_int(b, env) != 0)) as i64,
        Expr::Or(a, b) => ((eval_int(a, env) != 0) || (eval_int(b, env) != 0)) as i64,
        Expr::Not(a) => (eval_int(a, env) == 0) as i64,
        Expr::Select(c, a, b) => {
            if eval_int(c, env) != 0 {
                eval_int(a, env)
            } else {
                eval_int(b, env)
            }
        }
        Expr::Cast(_, a) => eval_int(a, env),
        Expr::Load { .. } => unreachable!("data-free expressions only"),
    }
}

/// Strategy: small integer expressions over two fixed variables.
fn arb_expr(vars: [Var; 2]) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::Int),
        Just(Expr::Var(vars[0].clone())),
        Just(Expr::Var(vars[1].clone())),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner, 0usize..7).prop_map(|(a, b, op)| match op {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            3 => a.min(b),
            4 => a.max(b),
            5 => a.floordiv(b),
            _ => a.floormod(b),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simplification_preserves_integer_semantics(
        seed_a in -10i64..10,
        seed_b in -10i64..10,
        expr_idx in 0u32..1,
    ) {
        // proptest closures cannot easily share the Var handles through the
        // strategy, so build them here deterministically per case.
        let _ = expr_idx;
        let i = Var::new("i");
        let j = Var::new("j");
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let expr = arb_expr([i.clone(), j.clone()])
            .new_tree(&mut runner)
            .unwrap()
            .current();
        let simplified = simplify_expr(&expr);
        let mut env = HashMap::new();
        env.insert(i.id, seed_a);
        env.insert(j.id, seed_b);
        prop_assert_eq!(eval_int(&expr, &env), eval_int(&simplified, &env));
    }

    #[test]
    fn compiled_programs_match_the_tree_interpreter(
        seed_j in -10i64..10,
        expr_seed in 0u32..64,
    ) {
        // Random guarded loop nest: both engines must produce identical
        // traced event counts and identical memory in both exec modes.
        // The Var handles cannot be threaded through a strategy, so vary
        // the expressions by advancing the deterministic sampling stream
        // `expr_seed` words before drawing the two trees.
        let i = Var::new("i");
        let j = Var::new("j");
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        for _ in 0..expr_seed {
            let _ = runner.next_u64();
        }
        let guard = arb_expr([i.clone(), j.clone()])
            .new_tree(&mut runner)
            .unwrap()
            .current();
        let value = arb_expr([i.clone(), j.clone()])
            .new_tree(&mut runner)
            .unwrap()
            .current();
        let out = Buffer::new("out", DType::F32, vec![8], MemScope::Global);
        let body = Stmt::if_then(
            guard.gt(Expr::int(0)),
            Stmt::store(&out, Expr::var(&i).floormod(Expr::int(8)), value),
        );
        let prog = Stmt::for_serial(i, 6i64, body);

        for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
            let mut tree_store = MemoryStore::new();
            tree_store.alloc(&out, 0);
            let mut tree_tracer = CountingTracer::default();
            let mut interp = Interpreter::new(&mut tree_store, &mut tree_tracer, mode);
            interp.bind(&j, seed_j);
            interp.run(&prog).unwrap();

            let compiled = CompiledProgram::compile(&prog);
            // The bytecode optimizer must preserve both the exact event
            // counts and the functional results on arbitrary kernels.
            for program in [compiled.clone(), compiled.optimize()] {
                let mut flat_store = MemoryStore::new();
                flat_store.alloc(&out, 0);
                let mut flat_tracer = CountingTracer::default();
                let mut flat = CompiledRunner::new(&program);
                flat.bind(&j, seed_j);
                flat.run(&mut flat_store, &mut flat_tracer, mode).unwrap();

                prop_assert_eq!(tree_tracer, flat_tracer);
                prop_assert_eq!(tree_store.read_all(&out, 0), flat_store.read_all(&out, 0));
            }
        }
    }

    #[test]
    fn affine_roundtrip_preserves_value(
        c0 in -50i64..50,
        c1 in -8i64..8,
        c2 in -8i64..8,
        x in -20i64..20,
        y in -20i64..20,
    ) {
        let i = Var::new("i");
        let j = Var::new("j");
        let expr = Expr::Int(c0)
            .add(Expr::var(&i).mul(Expr::Int(c1)))
            .add(Expr::var(&j).mul(Expr::Int(c2)));
        let lin = as_linear(&expr).expect("expression is affine by construction");
        prop_assert_eq!(lin.constant, c0);
        prop_assert_eq!(lin.coeff(&i), c1);
        prop_assert_eq!(lin.coeff(&j), c2);
        let back = lin.to_expr();
        let mut env = HashMap::new();
        env.insert(i.id, x);
        env.insert(j.id, y);
        prop_assert_eq!(eval_int(&expr, &env), eval_int(&back, &env));
    }

    #[test]
    fn upper_bound_normalization_is_equivalent(
        coef in 1i64..8,
        offset in -10i64..10,
        bound in -20i64..60,
        value in -30i64..30,
    ) {
        let k = Var::new("k");
        let cond = Expr::var(&k).mul(Expr::Int(coef)).add(Expr::Int(offset)).lt(Expr::Int(bound));
        let norm = as_upper_bound(&cond).expect("affine condition");
        let mut env = HashMap::new();
        env.insert(k.id, value);
        let direct = coef * value + offset < bound;
        let via_norm = eval_int(&norm.lhs.to_expr(), &env) < norm.bound;
        prop_assert_eq!(direct, via_norm);
    }

    #[test]
    fn mtv_schedules_match_reference_for_random_tilings(
        m in 3i64..40,
        k in 3i64..48,
        dpu_i in 1i64..6,
        dpu_k in 1i64..4,
        tasklets in 1i64..5,
        cache in 1i64..17,
    ) {
        let def = ComputeDef::mtv("mtv", m, k);
        let mut sch = Schedule::new(def.clone());
        let i = sch.loops_of_axis(0)[0];
        let kk = sch.loops_of_axis(1)[0];
        let mut grid = Vec::new();
        let mut i_rest = i;
        if dpu_i > 1 {
            let (i_dpu, i_in) = sch.split(i, (m + dpu_i - 1) / dpu_i).unwrap();
            sch.bind(i_dpu, Binding::DpuX).unwrap();
            grid.push(i_dpu);
            i_rest = i_in;
        }
        let mut k_rest = kk;
        if dpu_k > 1 {
            let (k_dpu, k_in) = sch.split(kk, (k + dpu_k - 1) / dpu_k).unwrap();
            sch.rfactor(k_dpu).unwrap();
            sch.bind(k_dpu, Binding::DpuY).unwrap();
            grid.push(k_dpu);
            k_rest = k_in;
        }
        let mut order = grid.clone();
        let i_extent = sch.loop_info(i_rest).unwrap().extent;
        let mut tasklet_rest = i_rest;
        if tasklets > 1 && i_extent > 1 {
            let (t, rest) = sch.split(i_rest, (i_extent + tasklets - 1) / tasklets).unwrap();
            sch.bind(t, Binding::Tasklet).unwrap();
            order.push(t);
            tasklet_rest = rest;
        }
        order.push(tasklet_rest);
        let k_extent = sch.loop_info(k_rest).unwrap().extent;
        let mut cache_attach = k_rest;
        let mut innermost = k_rest;
        if cache < k_extent {
            let (ko, ki) = sch.split(k_rest, cache).unwrap();
            cache_attach = ko;
            innermost = ki;
            order.push(ko);
            order.push(ki);
        } else {
            order.push(k_rest);
        }
        sch.reorder(&order).unwrap();
        sch.cache_read(0, Attach::At(cache_attach)).unwrap();
        sch.cache_read(1, Attach::At(cache_attach)).unwrap();
        sch.cache_write(Attach::At(tasklet_rest)).unwrap();
        let _ = innermost;

        let lowered = sch.lower().unwrap();
        let inputs: Vec<Vec<f32>> = vec![
            (0..(m * k) as usize).map(|v| ((v % 7) as f32) - 3.0).collect(),
            (0..k as usize).map(|v| ((v % 5) as f32) - 2.0).collect(),
        ];
        let got = execute_functional(&lowered, &inputs).unwrap();
        let expect = def.reference(&inputs);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() < 1e-2, "{} vs {}", g, e);
        }

        // The optimized kernel bytecode (fusion, hoisting, timing-only loop
        // summaries) must trace the exact same event counts as the baseline
        // for every randomized tiling — these counts are the only input to
        // the simulator's cycle model, so this pins latency equivalence.
        let kernel = CompiledProgram::compile(&lowered.kernel.body);
        let optimized = kernel.optimize();
        for (linear, coords) in lowered.grid.enumerate() {
            let mut base_tracer = CountingTracer::default();
            let mut opt_tracer = CountingTracer::default();
            for (program, tracer) in [(&kernel, &mut base_tracer), (&optimized, &mut opt_tracer)] {
                let mut store = MemoryStore::new();
                let mut runner = CompiledRunner::new(program);
                runner.set_dpu(linear);
                for (dim, coord) in lowered.grid.dims.iter().zip(&coords) {
                    runner.bind(&dim.var, *coord);
                }
                runner
                    .run(&mut store, tracer, ExecMode::TimingOnly)
                    .unwrap();
            }
            prop_assert_eq!(base_tracer, opt_tracer, "kernel counts diverge on DPU {}", linear);
        }
    }
}

/// Runs a generated transfer nest on `program`, returning the traced counts
/// and the final contents of every buffer instance it can touch.
fn run_transfer_nest(
    nest: &transfer_nests::TransferNest,
    program: &CompiledProgram,
    mode: ExecMode,
) -> (CountingTracer, Vec<Vec<f32>>) {
    let mut store = MemoryStore::new();
    let host: Vec<f32> = (0..nest.global.len()).map(|x| x as f32).collect();
    store.alloc_with(&nest.global, 0, &host);
    for dpu in 0..nest.dpus {
        let tile: Vec<f32> = (0..nest.mram.len())
            .map(|x| -((x as i64 + dpu) as f32))
            .collect();
        store.alloc_with(&nest.mram, dpu, &tile);
    }
    let mut tracer = CountingTracer::default();
    CompiledRunner::new(program)
        .run(&mut store, &mut tracer, mode)
        .unwrap();
    let memory = std::iter::once(store.read_all(&nest.global, 0))
        .chain((0..nest.dpus).map(|dpu| store.read_all(&nest.mram, dpu)))
        .map(|slab| slab.unwrap().to_vec())
        .collect();
    (tracer, memory)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The summarizer's acceptance predicate over host transfers: whatever
    /// `optimize` marks and the three-point probe accepts counts exactly
    /// like the unoptimized bytecode, and functional runs (which never
    /// summarize) leave identical memory.
    #[test]
    fn summarized_transfer_nests_match_the_unoptimized_bytecode(seed in 0u64..u64::MAX) {
        let nest = transfer_nests::transfer_nest(seed);
        let reference = CompiledProgram::compile(&nest.stmt);
        let optimized = reference.optimize();

        // `Eq` guards and tail clamps must not be marked; everything else
        // the generator draws must be.
        let marked = optimized.summarized_loops();
        if nest.unmarkable_levels == 0 {
            prop_assert_eq!(marked, nest.depth, "seed {}", seed);
        } else {
            prop_assert!(marked <= nest.depth - nest.unmarkable_levels, "seed {}", seed);
        }

        let (ref_counts, _) = run_transfer_nest(&nest, &reference, ExecMode::TimingOnly);
        let (opt_counts, _) = run_transfer_nest(&nest, &optimized, ExecMode::TimingOnly);
        prop_assert_eq!(ref_counts, opt_counts, "timing-only counts, seed {}", seed);

        let (ref_counts, ref_memory) = run_transfer_nest(&nest, &reference, ExecMode::Functional);
        let (opt_counts, opt_memory) = run_transfer_nest(&nest, &optimized, ExecMode::Functional);
        prop_assert_eq!(ref_counts, opt_counts, "functional counts, seed {}", seed);
        prop_assert!(ref_memory == opt_memory, "final memory, seed {}", seed);
    }
}
