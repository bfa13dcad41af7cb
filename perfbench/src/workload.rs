//! What every workload offers the benchmark loop: sequential and DSMTX
//! runs of its loops, each checked, and reported runs for the per-layer
//! pass.

use std::time::Duration;

use dsmtx::RunReport;

/// One loop of a workload (the 11 kernels of `table2_e2e`, or the single
/// loop of a synthetic workload).
#[derive(Debug, Clone)]
pub struct Part {
    pub name: String,
    /// Runtime threads per DSMTX run: workers + try-commit shards + the
    /// commit unit. Also the party count of the recovery barrier.
    pub threads: usize,
}

/// A DSMTX run that kept its report.
pub struct Reported {
    pub wall: Duration,
    pub report: RunReport,
}

/// A workload at one scale, set up and ready to run.
pub trait Workload {
    /// The loops one round runs, in order.
    fn parts(&self) -> &[Part];
    /// Iterations of every loop.
    fn iterations(&self) -> u64;
    /// Try-commit shards.
    fn shards(&self) -> usize;
    /// One sequential run of loop `p`, timed.
    fn seq(&self, p: usize) -> Result<Duration, String>;
    /// One DSMTX run of loop `p`, timed, its output checked against the
    /// sequential reference.
    fn par(&self, p: usize) -> Result<Duration, String>;
    /// One DSMTX run of loop `p` keeping the runtime's report; `trace`
    /// switches the runtime's tracing on.
    fn reported(&self, p: usize, trace: bool) -> Result<Reported, String>;
}
