//! `256.bzip2` — SPEC CINT2000 file compressor.
//!
//! Paper plan: `Spec-DSWP+[S, DOALL, S]` with control-flow speculation on
//! error paths and versioned block arrays. Unlike `164.gzip`, the block
//! size is known in the first stage (no Y-branch). The interesting twist
//! (§5.2): Spec-DSWP ships the whole input down the pipeline while the
//! TLS plan sends only the file descriptor — so TLS needs less bandwidth
//! and performs slightly better on this one benchmark.
//!
//! Kernel: per-block move-to-front transform followed by run-length
//! coding, with extra mixing rounds to model bzip2's higher
//! compute-per-byte. Error paths (an in-band marker) are speculated
//! untaken.

use std::sync::Arc;

use dsmtx::{
    IterOutcome, MtxId, RecoveryFn, Region, RunResult, StageId, StageRole, StageSpec, WorkerCtx,
};
use dsmtx_mem::{MasterMem, ShardMap};
use dsmtx_paradigms::paradigm::StageLabel;
use dsmtx_paradigms::{Paradigm, Pipeline, SpecKind, Tls, Tuning};
use dsmtx_sim::{
    profile::{StageProfile, StageShape},
    TlsPlan, WorkloadProfile,
};
use dsmtx_uva::VAddr;

use crate::analysis::AnalysisPlan;
use crate::common::{
    load_words, master_heap, profiled_shard_map, store_words, Kernel, KernelError, Mode, Scale,
    Stream, Table2Entry,
};

/// Rare error marker (speculated untaken).
pub const ERROR_MARKER: u64 = 0xB21B_21B2_1B21_B21B;

/// Alphabet size of the move-to-front table.
const ALPHABET: usize = 16;
/// Extra mixing rounds modelling bzip2's heavier per-word work.
const MIX_ROUNDS: u32 = 24;

/// The bzip2 kernel.
#[derive(Debug, Default)]
pub struct Bzip2;

fn mix(mut w: u64) -> u64 {
    for _ in 0..MIX_ROUNDS {
        w ^= w >> 33;
        w = w.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        w ^= w >> 29;
    }
    w
}

/// MTF + RLE with a mixing checksum; `Err(())` on the error marker.
pub(crate) fn mtf_rle_compress(block: &[u64]) -> Result<Vec<u64>, ()> {
    // Move-to-front over the block's symbol space (values mod ALPHABET).
    let mut table: Vec<u64> = (0..ALPHABET as u64).collect();
    let mut ranks = Vec::with_capacity(block.len());
    let mut checksum = 0xB217u64;
    for &w in block {
        if w == ERROR_MARKER {
            return Err(());
        }
        let sym = w % ALPHABET as u64;
        let pos = table.iter().position(|&t| t == sym).expect("in table");
        ranks.push(pos as u64);
        table.remove(pos);
        table.insert(0, sym);
        checksum = checksum.rotate_left(9) ^ mix(w);
    }
    // RLE over the ranks (MTF makes repeated symbols rank 0).
    let mut out = Vec::new();
    let mut i = 0;
    while i < ranks.len() {
        let mut run = 1;
        while i + run < ranks.len() && ranks[i + run] == ranks[i] {
            run += 1;
        }
        out.push(run as u64);
        out.push(ranks[i]);
        i += run;
    }
    out.push(checksum);
    Ok(out)
}

fn error_record(block_index: u64) -> Vec<u64> {
    vec![u64::MAX, block_index]
}

fn generate(scale: Scale, plant_error: bool) -> Vec<u64> {
    let mut s = Stream::new(scale.seed ^ 0xB2);
    let total = (scale.iterations * scale.unit) as usize;
    let mut input = Vec::with_capacity(total);
    while input.len() < total {
        let value = s.below(ALPHABET as u64 / 2); // skewed alphabet
        let run = 1 + s.below(5) as usize;
        for _ in 0..run.min(total - input.len()) {
            input.push(value);
        }
    }
    if plant_error {
        let idx = (scale.iterations / 3) * scale.unit + 2;
        input[idx as usize] = ERROR_MARKER;
    }
    input
}

fn compress_or_error(block: &[u64], index: u64) -> Vec<u64> {
    mtf_rle_compress(block).unwrap_or_else(|()| error_record(index))
}

/// Shared layout of the parallel runs. Allocation order is fixed, so
/// rebuilding it always yields the same bases — `plan()` and the runners
/// agree on addresses.
struct Layout {
    in_base: VAddr,
    stream_base: VAddr,
    cursor: VAddr,
    stream_cap: u64,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let stream_cap = n * (2 * scale.unit + 3);
    let mut heap = master_heap();
    let in_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let stream_base = heap
        .alloc_words(stream_cap)
        .map_err(|e| KernelError(e.to_string()))?;
    let cursor = heap
        .alloc_words(1)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        in_base,
        stream_base,
        cursor,
        stream_cap,
    })
}

fn initial_master(input: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.in_base, input);
    master
}

/// The shard map a DSMTX run installs: the plan's profile-guided map,
/// so that the certified run routes its skewed store stream the way the
/// analyzer weighed it. At one shard [`dsmtx_mem::route`] sends every
/// page to shard 0, so the map could not change the run, and the profile
/// (a recorded replay of the whole loop) is not built.
fn run_shard_map(input: &[u64], lay: &Layout, scale: Scale, shards: usize) -> Option<ShardMap> {
    (shards > 1).then(|| {
        profiled_shard_map(
            initial_master(input, lay),
            &mut recovery_fn(lay, scale),
            scale.iterations,
        )
    })
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (in_base, stream_base, cursor) = (lay.in_base, lay.stream_base, lay.cursor);
    let unit = scale.unit;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let block = load_words(master, in_base.add_words(mtx.0 * unit), unit);
        let record = compress_or_error(&block, mtx.0);
        let cur = master.read(cursor);
        master.write(stream_base.add_words(cur), record.len() as u64);
        for (k, &w) in record.iter().enumerate() {
            master.write(stream_base.add_words(cur + 1 + k as u64), w);
        }
        master.write(cursor, cur + 1 + record.len() as u64);
        IterOutcome::Continue
    })
}

impl Bzip2 {
    fn sequential(input: &[u64], scale: Scale) -> Vec<u64> {
        let mut stream = Vec::new();
        for b in 0..scale.iterations {
            let block = &input[(b * scale.unit) as usize..((b + 1) * scale.unit) as usize];
            let record = compress_or_error(block, b);
            stream.push(record.len() as u64);
            stream.extend(record);
        }
        let mut out = vec![stream.len() as u64];
        out.extend(stream);
        out
    }

    fn run_with_input(
        &self,
        mode: Mode,
        scale: Scale,
        input: Vec<u64>,
    ) -> Result<Vec<u64>, KernelError> {
        if let Mode::Sequential = mode {
            return Ok(Self::sequential(&input, scale));
        }
        let lay = layout(scale)?;
        let result = self.result_with_input(mode, 1, scale, input)?;
        let len = result.master.read(lay.cursor);
        assert!(len <= lay.stream_cap, "stream overflow");
        let mut out = vec![len];
        out.extend(load_words(&result.master, lay.stream_base, len));
        Ok(out)
    }

    /// The parallel paths, at an explicit try-commit shard count,
    /// returning the full run result.
    fn result_with_input(
        &self,
        mode: Mode,
        shards: usize,
        scale: Scale,
        input: Vec<u64>,
    ) -> Result<RunResult, KernelError> {
        let n = scale.iterations;
        let unit = scale.unit;
        let lay = layout(scale)?;
        let master = initial_master(&input, &lay);
        let (in_base, stream_base, cursor) = (lay.in_base, lay.stream_base, lay.cursor);
        let recovery = recovery_fn(&lay, scale);

        let result = match mode {
            Mode::Dsmtx { workers } => {
                let read = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    if mtx.0 >= n {
                        return Ok(IterOutcome::Continue);
                    }
                    for k in 0..unit {
                        let w = ctx.read_private(in_base.add_words(mtx.0 * unit + k))?;
                        ctx.produce_to(StageId(1), w);
                    }
                    Ok(IterOutcome::Continue)
                });
                let compress = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    if mtx.0 >= n {
                        return Ok(IterOutcome::Continue);
                    }
                    let block: Vec<u64> = (0..unit).map(|_| ctx.consume_from(StageId(0))).collect();
                    match mtf_rle_compress(&block) {
                        Ok(record) => {
                            ctx.produce_to(StageId(2), record.len() as u64);
                            for w in record {
                                ctx.produce_to(StageId(2), w);
                            }
                            Ok(IterOutcome::Continue)
                        }
                        Err(()) => ctx.misspec(),
                    }
                });
                let emit = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    if mtx.0 >= n {
                        return Ok(IterOutcome::Continue);
                    }
                    let len = ctx.consume_from(StageId(1));
                    let cur = ctx.read(cursor)?;
                    ctx.write_no_forward(stream_base.add_words(cur), len)?;
                    for k in 0..len {
                        let w = ctx.consume_from(StageId(1));
                        ctx.write_no_forward(stream_base.add_words(cur + 1 + k), w)?;
                    }
                    ctx.write(cursor, cur + 1 + len)?;
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new()
                    .seq(read)
                    .par(workers.max(1), compress)
                    .seq(emit)
                    .tuning(Tuning::with_unit_shards(shards))
                    .shard_map(run_shard_map(&input, &lay, scale, shards))
                    .run(master, recovery, Some(n))?
            }
            Mode::Tls { workers } => {
                // TLS ships only the block index: workers read the input
                // themselves, and the output cursor rides the ring.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    if mtx.0 >= n {
                        return Ok(IterOutcome::Continue);
                    }
                    let block: Vec<u64> = (0..unit)
                        .map(|k| ctx.read_private(in_base.add_words(mtx.0 * unit + k)))
                        .collect::<Result<_, _>>()?;
                    let record = match mtf_rle_compress(&block) {
                        Ok(r) => r,
                        Err(()) => return ctx.misspec(),
                    };
                    let cur = match ctx.sync_take().first() {
                        Some(&c) => c,
                        None => ctx.read(cursor)?,
                    };
                    ctx.write_no_forward(stream_base.add_words(cur), record.len() as u64)?;
                    for (k, &w) in record.iter().enumerate() {
                        ctx.write_no_forward(stream_base.add_words(cur + 1 + k as u64), w)?;
                    }
                    let next = cur + 1 + record.len() as u64;
                    ctx.write_no_forward(cursor, next)?;
                    ctx.sync_produce(next);
                    Ok(IterOutcome::Continue)
                });
                Tls {
                    replicas: workers.max(1),
                    tuning: Tuning::with_unit_shards(shards),
                }
                .run(master, body, recovery, Some(n))?
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(result)
    }

    /// Runs with a planted error marker.
    pub fn run_with_planted_error(
        &self,
        mode: Mode,
        scale: Scale,
    ) -> Result<Vec<u64>, KernelError> {
        self.run_with_input(mode, scale, generate(scale, true))
    }
}

impl Kernel for Bzip2 {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "256.bzip2",
            suite: "SPEC CINT 2000",
            description: "file compressor",
            paradigm: Paradigm::SpecDswp {
                stages: vec![StageLabel::S, StageLabel::Doall, StageLabel::S],
            },
            speculation: vec![SpecKind::ControlFlow, SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "256.bzip2".into(),
            // Similar data volume to gzip but much more computation, so
            // bandwidth pressure is lower (§5.3).
            iter_work: 12.0e-3,
            iterations: 4000,
            coverage: 0.99,
            stages: vec![
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.01,
                    bytes_out: 65_536.0,
                },
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.98,
                    bytes_out: 16_384.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.01,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 96.0,
            tls: TlsPlan {
                // TLS sends only the descriptor: tiny bandwidth, small
                // synchronized segment (the output append).
                sync_fraction: 0.012,
                bytes_per_iter: 64.0,
                validation_words: 96.0,
            },
            chunked: true,
            invocation: None,
        }
    }

    fn run(&self, mode: Mode, scale: Scale) -> Result<Vec<u64>, KernelError> {
        self.run_with_input(mode, scale, generate(scale, false))
    }

    fn run_reported(
        &self,
        workers: u16,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        self.result_with_input(
            Mode::Dsmtx { workers },
            unit_shards,
            scale,
            generate(scale, false),
        )
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let master = initial_master(&generate(scale, false), &lay);
        let recovery = recovery_fn(&lay, scale);
        let shard_map = profiled_shard_map(
            initial_master(&generate(scale, false), &lay),
            &mut recovery_fn(&lay, scale),
            scale.iterations,
        );
        let (in_base, stream_base, cursor) = (lay.in_base, lay.stream_base, lay.cursor);
        let (unit, stream_cap) = (scale.unit, lay.stream_cap);
        Ok(AnalysisPlan {
            name: "256.bzip2",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                StageSpec::new(
                    "read",
                    StageRole::Sequential,
                    Box::new(move |mtx| {
                        vec![Region::read("input", in_base.add_words(mtx * unit), unit)]
                    }),
                ),
                // MTF+RLE runs on a private block version; no committed
                // footprint.
                StageSpec::new("compress", StageRole::Parallel, Box::new(|_| Vec::new())),
                StageSpec::new(
                    "emit",
                    StageRole::Sequential,
                    Box::new(move |_| {
                        vec![
                            Region::read_write("cursor", cursor, 1),
                            Region::write("stream", stream_base, stream_cap),
                        ]
                    }),
                ),
            ],
            shard_map: Some(shard_map),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree() {
        let k = Bzip2;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 2 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn runs_install_the_plan_shard_map_above_one_shard_only() {
        let scale = Scale::test();
        let lay = layout(scale).unwrap();
        let input = generate(scale, false);
        assert_eq!(run_shard_map(&input, &lay, scale, 1), None);
        let plan = Bzip2.plan(scale).unwrap();
        assert!(plan.shard_map.is_some());
        for shards in [2, 4] {
            assert_eq!(run_shard_map(&input, &lay, scale, shards), plan.shard_map);
        }
        let run = Bzip2.run_reported(2, 2, scale).unwrap();
        assert_eq!(run.report.shard_stats.len(), 2);
        assert_eq!(run.report.validation_conflicts, 0);
        assert_eq!(run.report.total_iterations(), scale.iterations);
    }

    #[test]
    fn error_path_recovers() {
        let k = Bzip2;
        let scale = Scale::test();
        let seq = k.run_with_planted_error(Mode::Sequential, scale).unwrap();
        let tls = k
            .run_with_planted_error(Mode::Tls { workers: 2 }, scale)
            .unwrap();
        assert_eq!(seq, tls);
        assert!(seq.contains(&u64::MAX));
    }

    #[test]
    fn mtf_moves_repeats_to_rank_zero() {
        let out = mtf_rle_compress(&[5, 5, 5, 5]).unwrap();
        // First access: rank of 5 in the identity table, then a run of
        // three rank-0 hits.
        assert_eq!(&out[..4], &[1, 5, 3, 0]);
    }

    #[test]
    fn compression_is_content_sensitive() {
        let a = mtf_rle_compress(&[1, 2, 3]).unwrap();
        let b = mtf_rle_compress(&[3, 2, 1]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn profile_is_consistent() {
        Bzip2.profile().check();
    }
}
