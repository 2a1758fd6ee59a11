//! The UPMEM code verifier (§5.2.4).
//!
//! UPMEM imposes much stricter constraints than CPUs/GPUs: at most 2560 DPUs
//! (2048 on the paper's server), at most 24 tasklets per DPU, 64 KB of WRAM
//! for every caching tile, 64 MB of MRAM per bank, and 8-byte alignment for
//! DMA transfers.  Candidates that violate these constraints would fail to
//! compile or run on real hardware; filtering them out *before* measurement
//! keeps the evolutionary search from wasting its measurement budget.

use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_tir::schedule::Lowered;

use crate::space::ScheduleConfig;
use crate::trace::Trace;

/// Reasons a candidate is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The DPU grid exceeds the machine's DPU count.
    TooManyDpus {
        /// DPUs requested.
        requested: i64,
        /// DPUs available.
        available: i64,
    },
    /// More tasklets than the hardware supports.
    TooManyTasklets {
        /// Tasklets requested.
        requested: i64,
        /// Hardware limit.
        limit: i64,
    },
    /// The WRAM caching tiles do not fit.
    WramOverflow {
        /// Estimated bytes required.
        required: usize,
        /// WRAM capacity.
        capacity: usize,
    },
    /// The per-DPU MRAM tiles do not fit in the bank.
    MramOverflow {
        /// Estimated bytes required.
        required: usize,
        /// MRAM capacity.
        capacity: usize,
    },
    /// A DMA/caching tile violates the 8-byte alignment requirement.
    Misalignment {
        /// Offending tile size in bytes.
        bytes: usize,
    },
    /// The schedule could not be instantiated or lowered at all.
    Invalid(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::TooManyDpus {
                requested,
                available,
            } => write!(f, "uses {requested} DPUs but only {available} exist"),
            VerifyError::TooManyTasklets { requested, limit } => {
                write!(f, "uses {requested} tasklets but the DPU supports {limit}")
            }
            VerifyError::WramOverflow { required, capacity } => {
                write!(f, "needs {required} B of WRAM but only {capacity} B exist")
            }
            VerifyError::MramOverflow { required, capacity } => {
                write!(f, "needs {required} B of MRAM but only {capacity} B exist")
            }
            VerifyError::Misalignment { bytes } => {
                write!(f, "caching tile of {bytes} B violates 8-byte DMA alignment")
            }
            VerifyError::Invalid(msg) => write!(f, "invalid schedule: {msg}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a lowered program against the hardware constraints.
pub fn verify_lowered(lowered: &Lowered, hw: &UpmemConfig) -> Result<(), VerifyError> {
    let dpus = lowered.grid.num_dpus();
    if dpus > hw.total_dpus() as i64 {
        return Err(VerifyError::TooManyDpus {
            requested: dpus,
            available: hw.total_dpus() as i64,
        });
    }
    if lowered.kernel.tasklets > hw.max_tasklets as i64 {
        return Err(VerifyError::TooManyTasklets {
            requested: lowered.kernel.tasklets,
            limit: hw.max_tasklets as i64,
        });
    }
    if lowered.kernel.wram_bytes > hw.wram_bytes {
        return Err(VerifyError::WramOverflow {
            required: lowered.kernel.wram_bytes,
            capacity: hw.wram_bytes,
        });
    }
    let mram = lowered.mram_bytes_per_dpu();
    if mram > hw.mram_bytes {
        return Err(VerifyError::MramOverflow {
            required: mram,
            capacity: hw.mram_bytes,
        });
    }
    // 8-byte DMA alignment: every MRAM tile's innermost extent must be a
    // multiple of two 4-byte elements.
    for tile in lowered
        .mram_inputs
        .iter()
        .chain(std::iter::once(&lowered.mram_output))
    {
        if let Some(&last) = tile.tile_shape.last() {
            let bytes = (last * tile.buf.dtype.bytes() as i64) as usize;
            if bytes % 8 != 0 && tile.buf.len() * tile.buf.dtype.bytes() > 8 {
                return Err(VerifyError::Misalignment { bytes });
            }
        }
    }
    Ok(())
}

/// Verifies a candidate trace by applying and lowering it, returning the
/// lowered program so callers measuring the candidate don't need to lower it
/// twice.
///
/// Traces carrying the UPMEM sketch's decision sites are pre-checked against
/// the machine's tasklet and DPU limits from their *raw* decisions (the
/// unclamped values, exactly as the knob-vector verifier always did), before
/// the more expensive apply + lower + structural checks run.  Traces of
/// custom generators skip the pre-checks; the structural checks on the
/// lowered program still enforce every limit.
pub fn verify_trace(
    trace: &Trace,
    def: &ComputeDef,
    hw: &UpmemConfig,
) -> Result<Lowered, VerifyError> {
    if let Some(config) = ScheduleConfig::from_trace(trace) {
        if config.tasklets > hw.max_tasklets as i64 {
            return Err(VerifyError::TooManyTasklets {
                requested: config.tasklets,
                limit: hw.max_tasklets as i64,
            });
        }
        if config.num_dpus() > hw.total_dpus() as i64 {
            return Err(VerifyError::TooManyDpus {
                requested: config.num_dpus(),
                available: hw.total_dpus() as i64,
            });
        }
    }
    let sch = trace
        .apply(def)
        .map_err(|e| VerifyError::Invalid(e.to_string()))?;
    let lowered = sch
        .lower()
        .map_err(|e| VerifyError::Invalid(e.to_string()))?;
    verify_lowered(&lowered, hw)?;
    Ok(lowered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atim_tir::compute::ComputeDef;

    fn base_config() -> ScheduleConfig {
        ScheduleConfig {
            spatial_dpus: vec![16],
            reduce_dpus: 2,
            tasklets: 8,
            cache_elems: 64,
            use_cache: true,
            unroll: false,
            host_threads: 4,
            parallel_transfer: true,
        }
    }

    #[test]
    fn valid_trace_passes() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let lowered = verify_trace(&base_config().to_trace(&def), &def, &hw).unwrap();
        assert_eq!(lowered.grid.num_dpus(), 32);
    }

    #[test]
    fn rejects_too_many_tasklets() {
        let def = ComputeDef::mtv("mtv", 1024, 1024);
        let hw = UpmemConfig::default();
        let mut cfg = base_config();
        cfg.tasklets = 32;
        assert!(matches!(
            verify_trace(&cfg.to_trace(&def), &def, &hw),
            Err(VerifyError::TooManyTasklets { .. })
        ));
    }

    #[test]
    fn rejects_too_many_dpus_from_raw_decisions() {
        let def = ComputeDef::mtv("mtv", 8192, 8192);
        let hw = UpmemConfig::default();
        let mut cfg = base_config();
        cfg.spatial_dpus = vec![4096];
        assert!(matches!(
            verify_trace(&cfg.to_trace(&def), &def, &hw),
            Err(VerifyError::TooManyDpus { .. })
        ));
        // The decisions-only twin is rejected identically: the pre-checks
        // read raw decisions, not materialized structure.
        assert!(matches!(
            verify_trace(&cfg.to_decision_trace(), &def, &hw),
            Err(VerifyError::TooManyDpus { .. })
        ));
    }

    #[test]
    fn rejects_wram_overflow() {
        // A huge caching tile times many tasklets cannot fit in 64 KB.
        let def = ComputeDef::mtv("mtv", 8192, 65536);
        let hw = UpmemConfig::default();
        let mut cfg = base_config();
        cfg.spatial_dpus = vec![8];
        cfg.reduce_dpus = 1;
        cfg.tasklets = 24;
        cfg.cache_elems = 4096;
        let err = verify_trace(&cfg.to_trace(&def), &def, &hw).unwrap_err();
        assert!(
            matches!(err, VerifyError::WramOverflow { .. }),
            "expected WRAM overflow, got {err}"
        );
    }

    #[test]
    fn rejects_mram_overflow() {
        // One DPU asked to hold a 512 MB matrix tile.
        let def = ComputeDef::mtv("mtv", 8192, 16384);
        let hw = UpmemConfig::default();
        let mut cfg = base_config();
        cfg.spatial_dpus = vec![1];
        cfg.reduce_dpus = 1;
        cfg.cache_elems = 64;
        let err = verify_trace(&cfg.to_trace(&def), &def, &hw).unwrap_err();
        assert!(
            matches!(err, VerifyError::MramOverflow { .. }),
            "expected MRAM overflow, got {err}"
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = VerifyError::WramOverflow {
            required: 100_000,
            capacity: 65_536,
        };
        assert!(e.to_string().contains("WRAM"));
        let e = VerifyError::TooManyDpus {
            requested: 4096,
            available: 2048,
        };
        assert!(e.to_string().contains("4096"));
    }
}
