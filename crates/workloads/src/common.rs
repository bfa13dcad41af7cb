//! Shared kernel infrastructure.

use dsmtx::RunResult;
use dsmtx_mem::MasterMem;
use dsmtx_paradigms::executor::ExecError;
use dsmtx_paradigms::{Paradigm, SpecKind};
use dsmtx_sim::WorkloadProfile;
use dsmtx_uva::{OwnerId, RegionAllocator, VAddr};

use crate::analysis::AnalysisPlan;

/// How to execute a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Single-threaded reference implementation.
    Sequential,
    /// The benchmark's best DSMTX plan (Table 2 paradigm) on the real
    /// runtime.
    Dsmtx {
        /// Parallel-stage worker count.
        workers: u16,
    },
    /// The TLS-only cluster baseline.
    Tls {
        /// Worker count.
        workers: u16,
    },
}

/// Input scale, so tests run small and benches run larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Outer iteration count (loop iterations / files / GoPs / …).
    pub iterations: u64,
    /// Per-iteration data size in words.
    pub unit: u64,
    /// Deterministic input seed.
    pub seed: u64,
}

impl Scale {
    /// Small scale for tests (1-CPU friendly).
    pub fn test() -> Self {
        Scale {
            iterations: 8,
            unit: 24,
            seed: 0x5EED,
        }
    }

    /// Moderate scale for benches.
    pub fn bench() -> Self {
        Scale {
            iterations: 32,
            unit: 256,
            seed: 0x5EED,
        }
    }
}

/// Table 2 metadata for one benchmark.
#[derive(Debug, Clone)]
pub struct Table2Entry {
    /// Benchmark name (e.g. "164.gzip").
    pub name: &'static str,
    /// Source suite (e.g. "SPEC CINT 2000").
    pub suite: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Parallelization paradigm of the best DSMTX plan.
    pub paradigm: Paradigm,
    /// Speculation types the plan relies on.
    pub speculation: Vec<SpecKind>,
}

/// Kernel execution failure.
#[derive(Debug)]
pub struct KernelError(pub String);

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel failed: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

impl From<ExecError> for KernelError {
    fn from(e: ExecError) -> Self {
        KernelError(e.to_string())
    }
}

/// One reproduced benchmark.
pub trait Kernel: Send + Sync {
    /// Table 2 metadata.
    fn info(&self) -> Table2Entry;
    /// Simulator profile calibrated to the paper's curves.
    fn profile(&self) -> WorkloadProfile;
    /// Executes the kernel and returns its output words.
    ///
    /// # Errors
    ///
    /// Runtime failures (thread panics, configuration errors).
    fn run(&self, mode: Mode, scale: Scale) -> Result<Vec<u64>, KernelError>;

    /// Runs the shipped Table-2 DSMTX plan at an explicit try-commit
    /// shard count and returns the full [`RunResult`] (committed memory
    /// plus report). The analyzer's certification pass reads observed
    /// conflict pages out of the report and checks them against the
    /// sites predicted from the sequential dependence graph.
    ///
    /// # Errors
    ///
    /// Runtime failures (thread panics, configuration errors).
    fn run_reported(
        &self,
        workers: u16,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError>;

    /// The analyzable description of the kernel's loop: pre-loop
    /// committed memory, the sequential recovery body, and the declared
    /// stage partition with per-iteration footprints.
    ///
    /// # Errors
    ///
    /// Address-space exhaustion while rebuilding the heap layout.
    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError>;
}

// ---------------------------------------------------------------------
// Helpers used by every kernel implementation.
// ---------------------------------------------------------------------

/// A deterministic xorshift* stream for input generation.
#[derive(Debug, Clone)]
pub struct Stream(u64);

#[allow(clippy::should_implement_trait)] // a stream of words, not an Iterator
impl Stream {
    /// Seeds the stream (zero is remapped).
    pub fn new(seed: u64) -> Self {
        Stream(seed.max(1))
    }

    /// Next pseudo-random word.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next word in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// f64 ↔ word transmutation for kernels doing floating-point math in
/// DSMTX memory.
pub fn f2w(f: f64) -> u64 {
    f.to_bits()
}

/// See [`f2w`].
pub fn w2f(w: u64) -> f64 {
    f64::from_bits(w)
}

/// The commit unit's allocator (owner 0): pre-loop sequential state.
pub fn master_heap() -> RegionAllocator {
    RegionAllocator::new(OwnerId(0))
}

/// Writes `data` into `master` starting at `base`.
pub fn store_words(master: &mut MasterMem, base: VAddr, data: &[u64]) {
    master.write_words(base, data);
}

/// Reads `len` words from `master` starting at `base`.
pub fn load_words(master: &MasterMem, base: VAddr, len: u64) -> Vec<u64> {
    let mut out = vec![0; len as usize];
    master.read_words(base, &mut out);
    out
}

/// Profiles a kernel's sequential body and builds a balanced page→shard
/// placement from the stores a worker would actually ship: runs
/// `recovery` once per iteration against `master` with recording on,
/// filters each iteration's access log through the worker-side
/// [`dsmtx::AccessFilter`] (so coalesced stores weigh once, as on the
/// wire), and greedily balances the per-page store counts over four
/// nominal shards ([`dsmtx_mem::ShardMap::balance`] — the map re-wraps
/// `% n` so it stays valid at any shard count).
///
/// Kernels with a skewed store profile call this from `plan()` and ship
/// the result in [`AnalysisPlan::shard_map`]; `run_reported` installs it
/// on the pipeline.
pub fn profiled_shard_map(
    mut master: MasterMem,
    recovery: &mut dsmtx::RecoveryFn,
    iterations: u64,
) -> dsmtx_mem::ShardMap {
    let mut filter = dsmtx::AccessFilter::new();
    let mut filtered = Vec::new();
    let mut stream = Vec::new();
    for i in 0..iterations {
        master.set_recording(true);
        let outcome = recovery(dsmtx::MtxId(i), &mut master);
        master.set_recording(false);
        let raw = master.drain_recorded();
        filter.filter_into(&raw, &mut filtered);
        stream.append(&mut filtered);
        if matches!(outcome, dsmtx::IterOutcome::Exit) {
            break;
        }
    }
    dsmtx_mem::ShardMap::balance(&stream, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_varied() {
        let mut a = Stream::new(42);
        let mut b = Stream::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert!(distinct.len() >= 15);
    }

    #[test]
    fn below_respects_bound() {
        let mut s = Stream::new(7);
        for _ in 0..100 {
            assert!(s.below(10) < 10);
        }
        assert_eq!(s.below(0), 0, "zero bound is clamped");
    }

    #[test]
    fn float_roundtrip() {
        for v in [0.0, 1.5, -3.25, f64::MAX, 1e-300] {
            assert_eq!(w2f(f2w(v)), v);
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let mut m = MasterMem::new();
        let mut heap = master_heap();
        let base = heap.alloc_words(5).unwrap();
        store_words(&mut m, base, &[1, 2, 3, 4, 5]);
        assert_eq!(load_words(&m, base, 5), vec![1, 2, 3, 4, 5]);
    }
}
