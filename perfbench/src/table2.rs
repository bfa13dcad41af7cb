//! `table2_e2e`: the 11 Table-2 kernels through `Kernel::run`, DSMTX
//! against the kernel's own sequential mode.

use std::cell::OnceCell;
use std::time::{Duration, Instant};

use dsmtx::StageRole;
use dsmtx_paradigms::set_trace_default;
use dsmtx_workloads::{all_kernels, Kernel, Mode, Scale};

use crate::loops::REPLICAS;
use crate::spans::span;
use crate::workload::{Part, Reported, Workload};

/// Per-iteration data size of every kernel, in words.
pub const UNIT: u64 = 256;

/// The kernels at one scale with their sequential outputs.
pub struct Table2 {
    kernels: Vec<Box<dyn Kernel>>,
    scale: Scale,
    reference: Vec<Vec<u64>>,
    /// Filled on first use, outside the timed set-up.
    parts: OnceCell<Vec<Part>>,
}

impl Table2 {
    /// Runs every kernel's sequential mode once for the reference output.
    pub fn setup(n: u64, seed: u64) -> Result<Self, String> {
        let scale = Scale {
            iterations: n,
            unit: UNIT,
            seed,
        };
        let kernels = all_kernels();
        let reference = kernels
            .iter()
            .map(|k| {
                span("sequential_reference", || {
                    k.run(Mode::Sequential, scale)
                        .map_err(|e| format!("{}: {e}", k.info().name))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Table2 {
            kernels,
            scale,
            reference,
            parts: OnceCell::new(),
        })
    }

    /// Runtime threads from each kernel's declared stage partition: one
    /// worker per sequential stage, `REPLICAS` per parallel or ring
    /// stage, plus one try-commit shard and the commit unit.
    fn describe(&self) -> Vec<Part> {
        self.kernels
            .iter()
            .map(|k| {
                let workers: usize = k.plan(self.scale).map_or(0, |plan| {
                    plan.stages
                        .iter()
                        .map(|s| match s.role {
                            StageRole::Sequential => 1,
                            StageRole::Parallel | StageRole::Ring => REPLICAS as usize,
                        })
                        .sum()
                });
                Part {
                    name: k.info().name.to_owned(),
                    threads: workers + 2,
                }
            })
            .collect()
    }

    fn run_checked(&self, p: usize, mode: Mode) -> Result<Duration, String> {
        let k = &self.kernels[p];
        let t = Instant::now();
        let out = span("Kernel::run", || k.run(mode, self.scale));
        let wall = t.elapsed();
        let out = out.map_err(|e| format!("{}: {e}", self.parts()[p].name))?;
        span("verify", || {
            if out == self.reference[p] {
                Ok(wall)
            } else {
                Err(format!(
                    "{}: {mode:?} output differs from the sequential output",
                    self.parts()[p].name
                ))
            }
        })
    }
}

impl Workload for Table2 {
    fn parts(&self) -> &[Part] {
        self.parts.get_or_init(|| self.describe())
    }

    fn iterations(&self) -> u64 {
        self.scale.iterations
    }

    fn shards(&self) -> usize {
        1
    }

    fn seq(&self, p: usize) -> Result<Duration, String> {
        self.run_checked(p, Mode::Sequential)
    }

    fn par(&self, p: usize) -> Result<Duration, String> {
        self.run_checked(p, Mode::Dsmtx { workers: REPLICAS })
    }

    fn reported(&self, p: usize, trace: bool) -> Result<Reported, String> {
        let k = &self.kernels[p];
        let prev = set_trace_default(trace);
        let t = Instant::now();
        let res = span("Kernel::run_reported", || {
            k.run_reported(REPLICAS, 1, self.scale)
        });
        let wall = t.elapsed();
        set_trace_default(prev);
        let res = res.map_err(|e| format!("{}: {e}", self.parts()[p].name))?;
        let got = res.report.total_iterations();
        if got != self.scale.iterations {
            return Err(format!(
                "{}: {got} of {} iterations reached committed memory",
                self.parts()[p].name,
                self.scale.iterations
            ));
        }
        Ok(Reported {
            wall,
            report: res.report,
        })
    }
}
