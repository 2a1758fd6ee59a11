//! Serializable backend specification: how a worker process reconstructs
//! the measuring backend from the fleet's configure handshake.

use atim_autotune::json::encode_f64;
use atim_autotune::{Json, JsonCodec, JsonError};
use atim_passes::OptLevel;
use atim_sim::{PimTarget, UpmemConfig};

use crate::backend::{AnalyticBackend, Backend, SimBackend};
use crate::compiler::CompileOptions;

/// How a worker process reconstructs the measuring backend, serialized
/// into the fleet's configure handshake.
///
/// The spec pins everything a measurement depends on: the backend kind,
/// the full machine configuration and the compile options.  The worker
/// thread count (`ATIM_MEASURE_THREADS`) is deliberately *not* part of the
/// spec — it is measurement-invariant (pinned by the parallel-determinism
/// tests), and spawned workers inherit the parent's environment anyway.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSpec {
    /// The cycle-approximate simulator ([`SimBackend`]).
    Sim {
        /// Machine configuration.
        hw: UpmemConfig,
        /// Compile options applied to every candidate.
        options: CompileOptions,
    },
    /// The closed-form analytic model ([`AnalyticBackend`]).
    Analytic {
        /// Machine configuration.
        hw: UpmemConfig,
        /// Compile options applied to every candidate.
        options: CompileOptions,
    },
}

impl BackendSpec {
    /// A simulator spec with default compile options.
    pub fn sim(hw: UpmemConfig) -> Self {
        BackendSpec::Sim {
            hw,
            options: CompileOptions::default(),
        }
    }

    /// An analytic-model spec with default compile options.
    pub fn analytic(hw: UpmemConfig) -> Self {
        BackendSpec::Analytic {
            hw,
            options: CompileOptions::default(),
        }
    }

    /// The serialized backend-kind tag.
    fn kind(&self) -> &'static str {
        match self {
            BackendSpec::Sim { .. } => "upmem-sim",
            BackendSpec::Analytic { .. } => "analytic",
        }
    }

    /// Builds the backend this spec describes.  Called on both sides of
    /// the wire: the fleet keeps one instance as its in-process fallback,
    /// every worker builds its own — and the handshake's fingerprint
    /// comparison proves the two agree.
    pub fn build(&self) -> Box<dyn Backend> {
        match self {
            BackendSpec::Sim { hw, options } => Box::new(SimBackend::new(hw.clone(), *options)),
            BackendSpec::Analytic { hw, options } => {
                Box::new(AnalyticBackend::with_options(hw.clone(), *options))
            }
        }
    }
}

impl JsonCodec for BackendSpec {
    fn to_json(&self) -> Json {
        let (hw, options) = match self {
            BackendSpec::Sim { hw, options } | BackendSpec::Analytic { hw, options } => {
                (hw, options)
            }
        };
        Json::Obj(vec![
            ("backend".into(), Json::Str(self.kind().into())),
            ("hw".into(), hw_to_json(hw)),
            ("options".into(), compile_options_to_json(options)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let kind = json.get("backend")?.as_str()?;
        let hw = hw_from_json(json.get("hw")?)?;
        let options = compile_options_from_json(json.get("options")?)?;
        match kind {
            "upmem-sim" => Ok(BackendSpec::Sim { hw, options }),
            "analytic" => Ok(BackendSpec::Analytic { hw, options }),
            other => Err(JsonError::new(format!(
                "unknown backend kind {other:?} (expected upmem-sim or analytic)"
            ))),
        }
    }
}

fn compile_options_to_json(options: &CompileOptions) -> Json {
    Json::Obj(vec![
        (
            "opt_level".into(),
            Json::Str(options.opt_level.label().into()),
        ),
        (
            "parallel_transfer".into(),
            Json::Bool(options.parallel_transfer),
        ),
    ])
}

fn compile_options_from_json(json: &Json) -> Result<CompileOptions, JsonError> {
    let label = json.get("opt_level")?.as_str()?;
    let opt_level = OptLevel::ALL
        .iter()
        .copied()
        .find(|level| level.label() == label)
        .ok_or_else(|| JsonError::new(format!("unknown opt level {label:?}")))?;
    Ok(CompileOptions {
        opt_level,
        parallel_transfer: json.get("parallel_transfer")?.as_bool()?,
    })
}

fn hw_to_json(hw: &UpmemConfig) -> Json {
    let int = |v: usize| Json::Int(v as i64);
    let int64 = |v: u64| Json::Int(v as i64);
    Json::Obj(vec![
        ("target".into(), Json::Str("upmem".into())),
        ("ranks".into(), int(hw.ranks)),
        ("dpus_per_rank".into(), int(hw.dpus_per_rank)),
        ("max_tasklets".into(), int(hw.max_tasklets)),
        ("wram_bytes".into(), int(hw.wram_bytes)),
        ("iram_bytes".into(), int(hw.iram_bytes)),
        ("mram_bytes".into(), int(hw.mram_bytes)),
        ("dpu_freq_hz".into(), encode_f64(hw.dpu_freq_hz)),
        ("issue_interval".into(), int64(hw.issue_interval)),
        ("dma_setup_cycles".into(), int64(hw.dma_setup_cycles)),
        (
            "dma_bytes_per_cycle".into(),
            encode_f64(hw.dma_bytes_per_cycle),
        ),
        ("branch_instrs".into(), int64(hw.branch_instrs)),
        ("loop_iter_instrs".into(), int64(hw.loop_iter_instrs)),
        (
            "transfer_call_overhead_s".into(),
            encode_f64(hw.transfer_call_overhead_s),
        ),
        ("h2d_rank_bw".into(), encode_f64(hw.h2d_rank_bw)),
        ("d2h_rank_bw".into(), encode_f64(hw.d2h_rank_bw)),
        (
            "serial_transfer_bw".into(),
            encode_f64(hw.serial_transfer_bw),
        ),
        ("host_cores".into(), int(hw.host_cores)),
        ("host_mem_bw".into(), encode_f64(hw.host_mem_bw)),
        ("host_thread_bw".into(), encode_f64(hw.host_thread_bw)),
        ("host_core_flops".into(), encode_f64(hw.host_core_flops)),
        ("launch_overhead_s".into(), encode_f64(hw.launch_overhead_s)),
    ])
}

fn hw_from_json(json: &Json) -> Result<UpmemConfig, JsonError> {
    let target = json.get("target")?.as_str()?;
    if target != "upmem" {
        return Err(JsonError::new(format!(
            "unknown PIM target {target:?} (only upmem is implemented)"
        )));
    }
    let int = |field: &str| -> Result<usize, JsonError> { Ok(json.get(field)?.as_i64()? as usize) };
    let int64 = |field: &str| -> Result<u64, JsonError> { Ok(json.get(field)?.as_i64()? as u64) };
    let float = |field: &str| -> Result<f64, JsonError> { json.get(field)?.as_f64() };
    Ok(UpmemConfig {
        target: PimTarget::Upmem,
        ranks: int("ranks")?,
        dpus_per_rank: int("dpus_per_rank")?,
        max_tasklets: int("max_tasklets")?,
        wram_bytes: int("wram_bytes")?,
        iram_bytes: int("iram_bytes")?,
        mram_bytes: int("mram_bytes")?,
        dpu_freq_hz: float("dpu_freq_hz")?,
        issue_interval: int64("issue_interval")?,
        dma_setup_cycles: int64("dma_setup_cycles")?,
        dma_bytes_per_cycle: float("dma_bytes_per_cycle")?,
        branch_instrs: int64("branch_instrs")?,
        loop_iter_instrs: int64("loop_iter_instrs")?,
        transfer_call_overhead_s: float("transfer_call_overhead_s")?,
        h2d_rank_bw: float("h2d_rank_bw")?,
        d2h_rank_bw: float("d2h_rank_bw")?,
        serial_transfer_bw: float("serial_transfer_bw")?,
        host_cores: int("host_cores")?,
        host_mem_bw: float("host_mem_bw")?,
        host_thread_bw: float("host_thread_bw")?,
        host_core_flops: float("host_core_flops")?,
        launch_overhead_s: float("launch_overhead_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_round_trip_and_rebuild_identical_fingerprints() {
        for spec in [
            BackendSpec::sim(UpmemConfig::small()),
            BackendSpec::analytic(UpmemConfig::default()),
            BackendSpec::Sim {
                hw: UpmemConfig::default(),
                options: CompileOptions {
                    opt_level: OptLevel::Dma,
                    parallel_transfer: false,
                },
            },
        ] {
            let text = spec.to_json().to_string();
            let decoded = BackendSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(decoded, spec);
            assert_eq!(
                decoded.build().fingerprint(),
                spec.build().fingerprint(),
                "a worker must rebuild the exact machine the fleet measures on"
            );
        }
    }
}
