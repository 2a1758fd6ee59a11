//! Execution counters and reports.

use atim_tir::buffer::MemScope;
use atim_tir::eval::{BulkEvents, Tracer};
use atim_tir::stmt::TransferDir;

/// Raw event counters collected while interpreting a DPU kernel.
///
/// This is the simulator's [`Tracer`] implementation: the very same
/// interpretation that produces functional results also produces these
/// counts, so the timing model always measures the program that ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpuCounters {
    /// Scalar ALU operations (adds, multiplies, compares, address math).
    pub alu_ops: u64,
    /// WRAM loads.
    pub wram_loads: u64,
    /// WRAM stores.
    pub wram_stores: u64,
    /// Direct (non-DMA) accesses to MRAM-scope buffers.  The real DPU cannot
    /// load MRAM directly, so these are charged as tiny 8-byte DMA requests.
    pub mram_scalar_accesses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Loop iterations executed.
    pub loop_iters: u64,
    /// Loop headers entered.
    pub loop_enters: u64,
    /// Explicit MRAM↔WRAM DMA requests.
    pub dma_requests: u64,
    /// Total bytes moved by explicit DMA requests.
    pub dma_bytes: u64,
    /// Tasklet barriers.
    pub barriers: u64,
}

impl DpuCounters {
    /// Merges another counter set into this one (used to aggregate across
    /// DPUs or kernel phases).
    pub fn merge(&mut self, other: &DpuCounters) {
        self.alu_ops += other.alu_ops;
        self.wram_loads += other.wram_loads;
        self.wram_stores += other.wram_stores;
        self.mram_scalar_accesses += other.mram_scalar_accesses;
        self.branches += other.branches;
        self.loop_iters += other.loop_iters;
        self.loop_enters += other.loop_enters;
        self.dma_requests += other.dma_requests;
        self.dma_bytes += other.dma_bytes;
        self.barriers += other.barriers;
    }
}

impl Tracer for DpuCounters {
    fn alu(&mut self, n: usize) {
        self.alu_ops += n as u64;
    }
    fn load(&mut self, scope: MemScope, _bytes: usize) {
        match scope {
            MemScope::Wram => self.wram_loads += 1,
            MemScope::Mram => self.mram_scalar_accesses += 1,
            // Kernels never touch Global/HostLocal buffers; count them as
            // WRAM so malformed programs still get a finite estimate.
            _ => self.wram_loads += 1,
        }
    }
    fn store(&mut self, scope: MemScope, _bytes: usize) {
        match scope {
            MemScope::Wram => self.wram_stores += 1,
            MemScope::Mram => self.mram_scalar_accesses += 1,
            _ => self.wram_stores += 1,
        }
    }
    fn branch(&mut self, _taken: bool) {
        self.branches += 1;
    }
    fn loop_enter(&mut self) {
        self.loop_enters += 1;
    }
    fn loop_iter(&mut self) {
        self.loop_iters += 1;
    }
    fn dma(&mut self, bytes: usize) {
        self.dma_requests += 1;
        self.dma_bytes += bytes as u64;
    }
    fn barrier(&mut self) {
        self.barriers += 1;
    }
    fn bulk(&mut self, events: &BulkEvents) {
        self.alu_ops += events.alu;
        for &(scope, _, count) in &events.loads {
            match scope {
                MemScope::Mram => self.mram_scalar_accesses += count,
                _ => self.wram_loads += count,
            }
        }
        for &(scope, _, count) in &events.stores {
            match scope {
                MemScope::Mram => self.mram_scalar_accesses += count,
                _ => self.wram_stores += count,
            }
        }
        self.branches += events.branches;
        self.loop_enters += events.loop_enters;
        self.loop_iters += events.loop_iters;
        self.dma_requests += events.dma_requests;
        self.dma_bytes += events.dma_bytes;
        self.barriers += events.barriers;
    }
}

/// Counters for the host transfer programs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferCounters {
    /// Host→DPU SDK calls.
    pub h2d_calls: u64,
    /// Host→DPU bytes.
    pub h2d_bytes: u64,
    /// DPU→host SDK calls.
    pub d2h_calls: u64,
    /// DPU→host bytes.
    pub d2h_bytes: u64,
    /// Whether every transfer used the rank-parallel push path.
    pub all_parallel: bool,
    /// Whether any transfer was seen at all.
    pub any: bool,
    /// Host-loop iterations executed while generating the transfers (address
    /// generation cost on the host).
    pub host_loop_iters: u64,
}

impl TransferCounters {
    /// Records `calls` transfers of one direction and `parallel` flag
    /// moving `bytes` in total.
    fn record(&mut self, dir: TransferDir, parallel: bool, calls: u64, bytes: u64) {
        if !self.any {
            self.all_parallel = true;
            self.any = true;
        }
        self.all_parallel &= parallel;
        match dir {
            TransferDir::H2D => {
                self.h2d_calls += calls;
                self.h2d_bytes += bytes;
            }
            TransferDir::D2H => {
                self.d2h_calls += calls;
                self.d2h_bytes += bytes;
            }
        }
    }
}

impl Tracer for TransferCounters {
    fn host_transfer(&mut self, dir: TransferDir, _dpu: i64, bytes: usize, parallel: bool) {
        self.record(dir, parallel, 1, bytes as u64);
    }
    fn loop_iter(&mut self) {
        self.host_loop_iters += 1;
    }
    fn bulk(&mut self, events: &BulkEvents) {
        self.host_loop_iters += events.loop_iters;
        for g in &events.transfers {
            self.record(g.dir, g.parallel, g.calls, g.bytes);
        }
    }
}

/// Counters for host-side loops (final reduction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Scalar operations executed.
    pub ops: u64,
    /// Loads (from any scope).
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Loop iterations.
    pub loop_iters: u64,
}

impl Tracer for HostCounters {
    fn alu(&mut self, n: usize) {
        self.ops += n as u64;
    }
    fn load(&mut self, _scope: MemScope, _bytes: usize) {
        self.loads += 1;
    }
    fn store(&mut self, _scope: MemScope, _bytes: usize) {
        self.stores += 1;
    }
    fn loop_iter(&mut self) {
        self.loop_iters += 1;
    }
    fn bulk(&mut self, events: &BulkEvents) {
        self.ops += events.alu;
        for &(_, _, count) in &events.loads {
            self.loads += count;
        }
        for &(_, _, count) in &events.stores {
            self.stores += count;
        }
        self.loop_iters += events.loop_iters;
    }
}

/// Cycle breakdown of a single DPU's kernel execution, in the style of the
/// paper's Fig. 13 (uPIMulator categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Cycles in which an instruction was issued.
    pub issuable: f64,
    /// Cycles stalled waiting on the DMA engine / MRAM.
    pub idle_memory: f64,
    /// Cycles lost to insufficient tasklet parallelism (pipeline revolve).
    pub idle_core: f64,
}

impl CycleBreakdown {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.issuable + self.idle_memory + self.idle_core
    }

    /// Fraction of cycles in each category `(issuable, idle_mem, idle_core)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1e-12);
        (self.issuable / t, self.idle_memory / t, self.idle_core / t)
    }
}

/// Timing and profiling results of one full offloaded execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionReport {
    /// Host→DPU transfer time for per-launch (non-constant) tensors
    /// (seconds).
    pub h2d_s: f64,
    /// One-time host→DPU transfer time for constant tensors (weights).  Not
    /// included in [`ExecutionReport::total_s`] because it is amortized
    /// across launches, matching the paper's treatment (§5.4).
    pub setup_h2d_s: f64,
    /// Kernel execution time: the slowest DPU (seconds).
    pub kernel_s: f64,
    /// DPU→host transfer time (seconds).
    pub d2h_s: f64,
    /// Host final-reduction time (seconds).
    pub reduce_s: f64,
    /// Number of DPUs used.
    pub num_dpus: i64,
    /// Tasklets per DPU.
    pub tasklets: i64,
    /// Total dynamic instructions on the slowest DPU.
    pub instructions: u64,
    /// Counters of the slowest DPU.
    pub dpu: DpuCounters,
    /// Cycle breakdown of the slowest DPU.
    pub breakdown: CycleBreakdown,
    /// Total bytes moved host→DPU.
    pub h2d_bytes: u64,
    /// Total bytes moved DPU→host.
    pub d2h_bytes: u64,
    /// Estimated per-DPU WRAM usage in bytes.
    pub wram_bytes: usize,
}

impl ExecutionReport {
    /// End-to-end latency in seconds.
    pub fn total_s(&self) -> f64 {
        self.h2d_s + self.kernel_s + self.d2h_s + self.reduce_s
    }

    /// End-to-end latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_s() * 1e3
    }

    /// Kernel-only latency in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        self.kernel_s * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atim_tir::eval::TransferGroup;

    #[test]
    fn counters_merge() {
        let mut a = DpuCounters {
            alu_ops: 5,
            dma_requests: 1,
            dma_bytes: 64,
            ..Default::default()
        };
        let b = DpuCounters {
            alu_ops: 3,
            branches: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.alu_ops, 8);
        assert_eq!(a.branches, 2);
        assert_eq!(a.dma_bytes, 64);
    }

    #[test]
    fn tracer_routes_scopes() {
        let mut c = DpuCounters::default();
        Tracer::load(&mut c, MemScope::Wram, 4);
        Tracer::load(&mut c, MemScope::Mram, 4);
        Tracer::store(&mut c, MemScope::Mram, 4);
        assert_eq!(c.wram_loads, 1);
        assert_eq!(c.mram_scalar_accesses, 2);
    }

    #[test]
    fn transfer_counters_track_direction_and_parallelism() {
        let mut t = TransferCounters::default();
        Tracer::host_transfer(&mut t, TransferDir::H2D, 0, 64, true);
        Tracer::host_transfer(&mut t, TransferDir::H2D, 1, 128, true);
        Tracer::host_transfer(&mut t, TransferDir::D2H, 1, 32, false);
        assert_eq!(
            t,
            TransferCounters {
                h2d_calls: 2,
                h2d_bytes: 192,
                d2h_calls: 1,
                d2h_bytes: 32,
                all_parallel: false,
                any: true,
                host_loop_iters: 0,
            }
        );
        // A bulk batch of the same transfers is applied arithmetically.
        let mut bulk = TransferCounters::default();
        Tracer::bulk(
            &mut bulk,
            &BulkEvents {
                transfers: vec![
                    TransferGroup {
                        dir: TransferDir::H2D,
                        parallel: true,
                        calls: 2,
                        bytes: 192,
                    },
                    TransferGroup {
                        dir: TransferDir::D2H,
                        parallel: false,
                        calls: 1,
                        bytes: 32,
                    },
                ],
                ..BulkEvents::default()
            },
        );
        assert_eq!(bulk, t);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = CycleBreakdown {
            issuable: 50.0,
            idle_memory: 30.0,
            idle_core: 20.0,
        };
        let (a, m, c) = b.fractions();
        assert!((a + m + c - 1.0).abs() < 1e-9);
        assert_eq!(b.total(), 100.0);
    }

    #[test]
    fn report_total() {
        let r = ExecutionReport {
            h2d_s: 0.001,
            kernel_s: 0.002,
            d2h_s: 0.003,
            reduce_s: 0.004,
            ..Default::default()
        };
        assert!((r.total_s() - 0.010).abs() < 1e-12);
        assert!((r.total_ms() - 10.0).abs() < 1e-9);
    }
}
