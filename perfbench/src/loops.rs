//! The two synthetic loops: `scatter_validate` (validation-bound
//! Spec-DOALL) and `misspec_recovery` (recovery-bound S→P→S pipeline).
//! Both run through `MtxSystem::run`; every DSMTX run is checked against
//! a replay of the loop's recovery body on `MasterMem`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, RecoveryFn, RunResult, StageFn, StageKind,
    SystemConfig, WorkerCtx,
};
use dsmtx_mem::{MasterMem, Page};
use dsmtx_uva::{OwnerId, PageId, RegionAllocator, VAddr};

use crate::spans::span;
use crate::workload::{Part, Reported, Workload};

/// Replicas of every parallel stage (at most the 2 cores the benchmark
/// is sized for).
pub const REPLICAS: u16 = 2;
/// Stores each `scatter_validate` iteration scatters, one per page.
const SCATTER_STORES: u64 = 32;
/// Try-commit shards of `scatter_validate`.
const SCATTER_SHARDS: usize = 2;
/// Every `MISSPEC_EVERY`-th iteration of `misspec_recovery` misspeculates.
const MISSPEC_EVERY: u64 = 16;

/// Which synthetic loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Scatter,
    Misspec,
}

/// A synthetic loop's inputs and layout.
struct Spec {
    shape: Shape,
    n: u64,
    input: Vec<u64>,
    input_base: VAddr,
    out_base: VAddr,
}

/// A synthetic loop with its sequential reference and configured
/// systems.
pub struct SynthLoop {
    spec: Spec,
    reference: Vec<(PageId, Page)>,
    system: MtxSystem,
    traced: MtxSystem,
    parts: [Part; 1],
}

/// splitmix64: the input generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scatter_value(x: u64, k: u64) -> u64 {
    x.rotate_left(k as u32) ^ k.wrapping_mul(0xA076_1D64_78BD_642F)
}

fn misspec_value(x: u64) -> u64 {
    x ^ 0xE703_7ED1_A0B4_28DB
}

impl SynthLoop {
    /// Generates the inputs from `seed`, computes the sequential
    /// reference and builds the systems.
    pub fn setup(shape: Shape, n: u64, seed: u64) -> Result<Self, String> {
        let spec = span("inputs", || {
            let mut state = seed;
            let input: Vec<u64> = (0..n).map(|_| splitmix(&mut state)).collect();
            let mut heap = RegionAllocator::new(OwnerId(0));
            let mut spec = Spec {
                shape,
                n,
                input,
                input_base: heap.alloc_words(n).map_err(|e| e.to_string())?,
                out_base: VAddr::from_raw(0),
            };
            spec.out_base = heap
                .alloc_words(spec.out_words())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(spec)
        })?;
        let reference = span("sequential_reference", || {
            let mut master = spec.master();
            let mut recovery = spec.recovery();
            for i in 0..n {
                recovery(MtxId(i), &mut master);
            }
            master.snapshot()
        });
        let (system, traced) = span("MtxSystem::new", || {
            let system = MtxSystem::new(&spec.config()).map_err(|e| e.to_string())?;
            // Room for every event of a traced run, so none is dropped.
            let traced = system.clone().trace(true).trace_capacity(n as usize * 1024);
            Ok::<_, String>((system, traced))
        })?;
        let threads = system.shape().n_workers() as usize + system.shape().unit_shards() + 1;
        let name = match shape {
            Shape::Scatter => "scatter",
            Shape::Misspec => "s-p-s",
        };
        Ok(SynthLoop {
            spec,
            reference,
            system,
            traced,
            parts: [Part {
                name: name.into(),
                threads,
            }],
        })
    }

    fn check(&self, res: &RunResult, misspec: bool) -> Result<(), String> {
        let (r, n) = (&res.report, self.spec.n);
        if r.total_iterations() != n {
            return Err(format!(
                "{} of {n} iterations reached committed memory",
                r.total_iterations()
            ));
        }
        let want_recoveries = match self.spec.shape {
            Shape::Misspec if misspec => n / MISSPEC_EVERY,
            _ => 0,
        };
        if r.recoveries != want_recoveries {
            return Err(format!(
                "{} recoveries, expected {want_recoveries}",
                r.recoveries
            ));
        }
        if self.spec.shape == Shape::Scatter && r.validation_conflicts != 0 {
            return Err(format!("{} validation conflicts", r.validation_conflicts));
        }
        if res.master.snapshot() != self.reference {
            return Err("committed memory differs from the sequential replay".into());
        }
        Ok(())
    }

    /// One checked DSMTX run; `misspec = false` switches the planted
    /// misspeculation of `misspec_recovery` off.
    pub fn run(&self, trace: bool, misspec: bool) -> Result<Reported, String> {
        let program = Program {
            master: self.spec.master(),
            stages: self.spec.stages(misspec),
            recovery: self.spec.recovery(),
            on_commit: None,
            iteration_limit: Some(self.spec.n),
        };
        let system = if trace { &self.traced } else { &self.system };
        let t = Instant::now();
        let res = span("MtxSystem::run", || system.run(program)).map_err(|e| e.to_string())?;
        let wall = t.elapsed();
        span("verify", || self.check(&res, misspec))?;
        Ok(Reported {
            wall,
            report: res.report,
        })
    }
}

impl Spec {
    fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::new();
        match self.shape {
            Shape::Scatter => {
                cfg.stage(StageKind::Parallel { replicas: REPLICAS })
                    .unit_shards(SCATTER_SHARDS);
            }
            Shape::Misspec => {
                cfg.stage(StageKind::Sequential)
                    .stage(StageKind::Parallel { replicas: REPLICAS })
                    .stage(StageKind::Sequential);
            }
        }
        cfg
    }

    /// Pre-loop committed memory: the input array and the zeroed output
    /// array, so the loop itself allocates no pages.
    fn master(&self) -> MasterMem {
        let mut master = MasterMem::new();
        for (i, &x) in self.input.iter().enumerate() {
            master.write(self.input_base.add_words(i as u64), x);
        }
        for w in 0..self.out_words() {
            master.write(self.out_base.add_words(w), 0);
        }
        master
    }

    fn out_words(&self) -> u64 {
        match self.shape {
            Shape::Scatter => self.n * SCATTER_STORES,
            Shape::Misspec => self.n,
        }
    }

    /// The loop body on committed memory: the sequential program and the
    /// commit unit's re-execution after a misspeculation.
    fn recovery(&self) -> RecoveryFn {
        let (input, out, n) = (self.input_base, self.out_base, self.n);
        match self.shape {
            Shape::Scatter => Box::new(move |mtx: MtxId, m: &mut MasterMem| {
                let x = m.read(input.add_words(mtx.0));
                for k in 0..SCATTER_STORES {
                    m.write(out.add_words(k * n + mtx.0), scatter_value(x, k));
                }
                IterOutcome::Continue
            }),
            Shape::Misspec => Box::new(move |mtx: MtxId, m: &mut MasterMem| {
                let x = m.read(input.add_words(mtx.0));
                m.write(out.add_words(mtx.0), misspec_value(x));
                IterOutcome::Continue
            }),
        }
    }

    fn stages(&self, misspec: bool) -> Vec<StageFn> {
        let (input, out, n) = (self.input_base, self.out_base, self.n);
        match self.shape {
            Shape::Scatter => {
                // Column-major scatter: store k of iteration i lands on
                // page k·n/512 + …, so each iteration touches
                // SCATTER_STORES distinct pages once n ≥ one page.
                let body: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let x = ctx.read(input.add_words(mtx.0))?;
                    for k in 0..SCATTER_STORES {
                        ctx.write_no_forward(out.add_words(k * n + mtx.0), scatter_value(x, k))?;
                    }
                    Ok(IterOutcome::Continue)
                });
                vec![body]
            }
            Shape::Misspec => {
                let load: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let x = ctx.read(input.add_words(mtx.0))?;
                    ctx.produce(x);
                    Ok(IterOutcome::Continue)
                });
                let compute: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let x = ctx.consume();
                    if misspec && mtx.0 % MISSPEC_EVERY == MISSPEC_EVERY - 1 {
                        return ctx.misspec();
                    }
                    ctx.produce(misspec_value(x));
                    Ok(IterOutcome::Continue)
                });
                let store: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let v = ctx.consume();
                    ctx.write_no_forward(out.add_words(mtx.0), v)?;
                    Ok(IterOutcome::Continue)
                });
                vec![load, compute, store]
            }
        }
    }
}

impl Workload for SynthLoop {
    fn parts(&self) -> &[Part] {
        &self.parts
    }

    fn iterations(&self) -> u64 {
        self.spec.n
    }

    fn shards(&self) -> usize {
        self.system.shape().unit_shards()
    }

    fn seq(&self, _p: usize) -> Result<Duration, String> {
        let mut master = self.spec.master();
        let mut recovery = self.spec.recovery();
        let t = Instant::now();
        span("sequential", || {
            for i in 0..self.spec.n {
                recovery(MtxId(i), &mut master);
            }
        });
        let wall = t.elapsed();
        std::hint::black_box(&master);
        Ok(wall)
    }

    fn par(&self, _p: usize) -> Result<Duration, String> {
        self.run(false, true).map(|r| r.wall)
    }

    fn reported(&self, _p: usize, trace: bool) -> Result<Reported, String> {
        self.run(trace, true)
    }
}
