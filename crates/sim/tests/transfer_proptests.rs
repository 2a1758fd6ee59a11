//! The summarizer's acceptance property at the simulator's surface: over
//! random host-transfer nests, the optimized bytecode and the unoptimized
//! reference must hand `transfer_time` the same [`TransferCounters`] — and
//! so the same latency, bit for bit.

use atim_sim::stats::TransferCounters;
use atim_sim::timing::transfer_time;
use atim_sim::UpmemConfig;
use atim_tir::eval::{CompiledProgram, CompiledRunner, ExecMode, MemoryStore};
use atim_tir::stmt::TransferDir;
use proptest::prelude::*;

// Shared with `crates/tir/tests/proptests.rs`, which also reads the buffers
// and the marking expectations.
#[allow(dead_code)]
#[path = "../../tir/tests/common/transfer_nests.rs"]
mod transfer_nests;

fn count(program: &CompiledProgram) -> TransferCounters {
    let mut counters = TransferCounters::default();
    CompiledRunner::new(program)
        .run(&mut MemoryStore::new(), &mut counters, ExecMode::TimingOnly)
        .unwrap();
    counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summarized_transfer_nests_time_like_the_unoptimized_bytecode(seed in 0u64..u64::MAX) {
        let nest = transfer_nests::transfer_nest(seed);
        let reference = CompiledProgram::compile(&nest.stmt);
        let expect = count(&reference);
        let got = count(&reference.optimize());
        prop_assert_eq!(&got, &expect, "seed {}", seed);

        let hw = UpmemConfig::default();
        for dir in [TransferDir::H2D, TransferDir::D2H] {
            prop_assert_eq!(
                transfer_time(dir, &got, nest.dpus, &hw).to_bits(),
                transfer_time(dir, &expect, nest.dpus, &hw).to_bits(),
                "{:?} time, seed {}",
                dir,
                seed
            );
        }
    }
}
