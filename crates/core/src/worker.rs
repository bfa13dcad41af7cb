//! Worker threads: the Table-1 running operations.
//!
//! A worker executes the subTXs of one pipeline stage. Each iteration it:
//!
//! 1. **`begin`** (`mtx_begin`): receives the data frame of this iteration
//!    from every earlier stage — applying forwarded uncommitted stores to
//!    its private memory and buffering `mtx_produce`d user values — plus
//!    the ring frame from its predecessor replica when the stage is a
//!    synchronization ring (TLS / DOACROSS).
//! 2. Runs the stage body, which speculatively reads/writes DSMTX memory
//!    through this context. First touches of protected pages trigger
//!    Copy-On-Access round trips to the commit unit.
//! 3. **`end`** (`mtx_end`): queues the subTX's ordered access stream for
//!    the try-commit unit and its store set for the commit unit, and
//!    ships a data frame (forwards + produces) to the executor of this
//!    iteration in every later stage (`mtx_writeAll` semantics).
//!
//! Every blocking point polls the control plane so the worker can unwind
//! into the §4.3 recovery rendezvous or terminate, and ships the queued
//! validation and commit records first (`Planes`): several subTXs share
//! a packet, and no worker waits while holding records another unit
//! needs.

use std::collections::VecDeque;

use std::time::Duration;

use dsmtx_fabric::{FabricError, RecvPort, SendPort};
use dsmtx_mem::{route, AccessKind, AccessRecord, Page, PageCache, ShardMap, SpecMem};
use dsmtx_uva::{PageId, RegionAllocator, VAddr};

use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, EPOCH_UNSEEN};
use crate::ids::{MtxId, StageId, WorkerId};
use crate::poll::{wait_for, wait_for_deadline};
use crate::program::{IterOutcome, StageFn};
use crate::report::ValPlaneStats;
use crate::trace::{Role, TraceKind, TraceSink};
use crate::wire::{AccessBlock, Msg, EPOCH_NONE};

/// Fabric accounting charges one enum slot per queued item; used to state
/// what the unpacked per-record encoding would have cost on the wire.
const ITEM_BYTES: u64 = std::mem::size_of::<Msg>() as u64;

/// A write-combining store buffer over one subTX's access log.
///
/// Filters the program-ordered access stream down to the records the
/// validation and commit planes actually need, without changing any
/// verdict:
///
/// * a **load** survives only as the *first* access to its address — a
///   repeat load re-observes the same private page (nothing else writes
///   it inside the subTX), so replay would check the identical value
///   against the identical image state; a load *after a local store*
///   observes the forwarded store value, which replay reproduces
///   trivially;
/// * **stores** to the same address coalesce into the first store's
///   stream position carrying the *final* value. Every load of that
///   address at or after the first store was suppressed by the rule
///   above, so no surviving record observes an intermediate value, and
///   the end-of-stream image (what group commit applies) is unchanged.
///
/// Open-addressed table keyed on raw address bits, generation-stamped so
/// reset is O(1) between subTXs.
///
/// Public because the dependence analyzer (`dsmtx-analyze`) reuses it to
/// compute the validation-visible view of a recorded sequential access
/// stream — the same records the runtime would actually ship.
pub struct AccessFilter {
    slots: Vec<FilterSlot>,
    /// Current generation; a slot with a different stamp is empty.
    gen: u64,
    /// `slots.len() - 1`; length is a power of two.
    mask: usize,
}

#[derive(Clone, Copy)]
struct FilterSlot {
    key: u64,
    gen: u64,
    /// A load of `key` already survived (or was made redundant by a
    /// store).
    loaded: bool,
    /// Output index of the surviving store to `key`, `u32::MAX` if none.
    store_at: u32,
}

const NO_STORE: u32 = u32::MAX;

impl AccessFilter {
    /// A fresh filter (reusable across subTXs/iterations).
    pub fn new() -> Self {
        AccessFilter {
            slots: vec![
                FilterSlot {
                    key: 0,
                    gen: 0,
                    loaded: false,
                    store_at: NO_STORE,
                };
                64
            ],
            gen: 0,
            mask: 63,
        }
    }

    /// Grows the table to hold at least `2 * n` keys at < 50% load.
    fn reserve(&mut self, n: usize) {
        let want = (2 * n.max(32)).next_power_of_two();
        if want > self.slots.len() {
            self.slots = vec![
                FilterSlot {
                    key: 0,
                    gen: 0,
                    loaded: false,
                    store_at: NO_STORE,
                };
                want
            ];
            self.mask = want - 1;
            self.gen = 0;
        }
    }

    #[inline]
    fn slot_of(&mut self, key: u64) -> &mut FilterSlot {
        // Fibonacci-style multiplicative hash, taking high bits so that
        // word-aligned addresses (low 3 bits zero) still spread.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let mut i = h as usize & self.mask;
        loop {
            let s = &self.slots[i];
            if s.gen != self.gen || s.key == key {
                return &mut self.slots[i];
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Filters `records` into `out` (cleared first). Returns the number
    /// of suppressed records.
    pub fn filter_into(&mut self, records: &[AccessRecord], out: &mut Vec<AccessRecord>) -> u64 {
        out.clear();
        self.reserve(records.len());
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: old stamps would read as live.
            for s in &mut self.slots {
                s.gen = u64::MAX;
            }
            self.gen = 1;
        }
        let gen = self.gen;
        let mut filtered = 0u64;
        for r in records {
            let key = r.addr.raw();
            let s = self.slot_of(key);
            if s.gen != gen {
                *s = FilterSlot {
                    key,
                    gen,
                    loaded: false,
                    store_at: NO_STORE,
                };
            }
            match r.kind {
                AccessKind::Load => {
                    if s.loaded || s.store_at != NO_STORE {
                        filtered += 1;
                    } else {
                        s.loaded = true;
                        out.push(*r);
                    }
                }
                AccessKind::Store => {
                    if s.store_at == NO_STORE {
                        s.store_at = out.len() as u32;
                        out.push(*r);
                    } else {
                        out[s.store_at as usize].value = r.value;
                        filtered += 1;
                    }
                }
            }
        }
        filtered
    }
}

impl Default for AccessFilter {
    fn default() -> Self {
        Self::new()
    }
}

/// The execution context handed to stage bodies.
///
/// All program state must flow through this context (speculative memory,
/// produces/consumes); Rust state captured by the stage closure does not
/// roll back on misspeculation.
pub struct WorkerCtx {
    pub(crate) worker: WorkerId,
    pub(crate) stage: StageId,
    pub(crate) shape: PipelineShape,
    pub(crate) ctrl: ControlPlane,
    pub(crate) trace: TraceSink,
    role: Role,
    epoch: u64,
    /// Receive deadline under fault injection (`None` = wait forever).
    /// Converts a peer silenced by faults into [`Interrupt::FabricTimeout`].
    data_timeout: Option<Duration>,

    spec: SpecMem,
    heap: RegionAllocator,

    /// Outgoing data queues to later-stage workers (plus the ring
    /// successor, which is in the same stage).
    out: Vec<(WorkerId, SendPort<Msg>)>,
    /// Incoming data queues from earlier-stage workers (plus the ring
    /// predecessor).
    inn: Vec<(WorkerId, RecvPort<Msg>)>,
    /// The validation and commit planes this worker feeds.
    planes: Planes,
    /// Profile-guided page→shard overrides from the shared shape; pages
    /// outside the map route by the hash partition. Identical on every
    /// worker, so the partition stays agreed-upon without communication.
    shard_map: Option<ShardMap>,
    /// Copy-On-Access replies and the epoch-tagged page cache.
    coa: Coa,

    /// Packed validation/commit-plane encoding on (the default) or the
    /// legacy per-record encoding (differential baseline).
    compaction: bool,
    /// Write-combining store buffer filtering each subTX's access log.
    filter: AccessFilter,
    /// Scratch: the filtered access stream of the current subTX.
    filtered: Vec<AccessRecord>,
    /// Scratch: one packed block per try-commit shard.
    val_blocks: Vec<AccessBlock>,
    /// Scratch: the packed commit-plane store block.
    commit_block: AccessBlock,
    /// Validation-plane compaction counters (merged into the run report).
    valplane: ValPlaneStats,

    // ---- per-iteration state ----
    cur: Option<MtxId>,
    /// Speculative attempt number of the current subTX: the recovery
    /// count observed at `begin`. Propagated to every downstream unit on
    /// the wire frames so lifecycle events of a retry chain onto a new
    /// span of the same MTX.
    attempt: u32,
    /// Buffered user values per producing stage.
    users: Vec<VecDeque<u64>>,
    /// Buffered ring (synchronized-dependence) values for this iteration.
    ring_in_vals: VecDeque<u64>,
    /// Stores to forward to later stages at `end` (from [`WorkerCtx::write`]).
    forwards: Vec<(VAddr, u64)>,
    /// Stores to forward to one specific later stage
    /// (from [`WorkerCtx::write_to_stage`]).
    targeted_forwards: Vec<(StageId, VAddr, u64)>,
    /// User values produced this iteration, with their target stage.
    produces: Vec<(StageId, u64)>,
    /// Ring values produced this iteration for the successor iteration.
    ring_produces: Vec<u64>,
    /// Ring loopback when the ring stage has a single replica.
    ring_loopback: VecDeque<u64>,
    /// After a recovery at boundary *b*, iteration *b + 1* has no ring
    /// frame (its producer, iteration *b*, was re-executed by the commit
    /// unit): the executor of *b + 1* must skip the ring receive and
    /// re-derive synchronized state from committed memory.
    ring_skip: Option<MtxId>,
}

/// Everything needed to construct a [`WorkerCtx`]; assembled by the system
/// builder.
pub(crate) struct WorkerWiring {
    pub worker: WorkerId,
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceSink,
    pub heap: RegionAllocator,
    pub out: Vec<(WorkerId, SendPort<Msg>)>,
    pub inn: Vec<(WorkerId, RecvPort<Msg>)>,
    pub val_out: Vec<SendPort<Msg>>,
    pub cu_out: SendPort<Msg>,
    pub coa_in: RecvPort<Msg>,
}

impl WorkerCtx {
    pub(crate) fn new(w: WorkerWiring) -> Self {
        let stage = w.shape.stage_of(w.worker);
        let n_stages = w.shape.n_stages() as usize;
        let data_timeout = w.shape.recv_deadline();
        let compaction = w.shape.compaction();
        let shard_map = w.shape.shard_map().cloned();
        let n_shards = w.val_out.len();
        WorkerCtx {
            role: Role::Worker(w.worker.0 as u32),
            worker: w.worker,
            stage,
            shape: w.shape,
            ctrl: w.ctrl,
            trace: w.trace,
            epoch: EPOCH_UNSEEN,
            data_timeout,
            spec: SpecMem::new(),
            heap: w.heap,
            out: w.out,
            inn: w.inn,
            planes: Planes {
                val_out: w.val_out,
                cu_out: w.cu_out,
            },
            shard_map,
            coa: Coa {
                rx: w.coa_in,
                cache: PageCache::new(),
                epoch: EPOCH_NONE,
                use_cache: compaction,
                timeout: data_timeout,
            },
            compaction,
            filter: AccessFilter::new(),
            filtered: Vec::new(),
            val_blocks: vec![AccessBlock::new(); n_shards],
            commit_block: AccessBlock::new(),
            valplane: ValPlaneStats::default(),
            cur: None,
            attempt: 0,
            users: vec![VecDeque::new(); n_stages],
            ring_in_vals: VecDeque::new(),
            forwards: Vec::new(),
            targeted_forwards: Vec::new(),
            produces: Vec::new(),
            ring_produces: Vec::new(),
            ring_loopback: VecDeque::new(),
            ring_skip: None,
        }
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// The pipeline stage this worker executes.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// Replica index within the stage.
    pub fn replica(&self) -> u16 {
        self.shape.replica_of(self.worker)
    }

    /// Replica count of this worker's stage.
    pub fn replicas(&self) -> u16 {
        self.shape.kind(self.stage).replicas()
    }

    /// The worker's private UVA allocator — the hooked `malloc`/`free` of
    /// §3.3. Allocation is purely local.
    pub fn heap(&mut self) -> &mut RegionAllocator {
        &mut self.heap
    }

    // ------------------------------------------------------------------
    // Memory operations
    // ------------------------------------------------------------------

    /// Speculative load (validated by the try-commit unit).
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn read(&mut self, addr: VAddr) -> Result<u64, Interrupt> {
        let Self {
            spec,
            coa,
            planes,
            ctrl,
            epoch,
            ..
        } = self;
        spec.read(addr, |page| coa.fetch(planes, ctrl, epoch, page))
    }

    /// Unvalidated load, for data the plan knows cannot conflict (e.g.
    /// read-only after loop entry, or this worker's private scratch). This
    /// is the manual-parallelization bandwidth optimization; misuse turns
    /// detectable misspeculation into silent wrong answers.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn read_private(&mut self, addr: VAddr) -> Result<u64, Interrupt> {
        let Self {
            spec,
            coa,
            planes,
            ctrl,
            epoch,
            ..
        } = self;
        spec.read_unlogged(addr, |page| coa.fetch(planes, ctrl, epoch, page))
    }

    /// Speculative store with `mtx_writeAll` semantics: validated,
    /// committed, and forwarded to all later subTXs of this MTX.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn write(&mut self, addr: VAddr, value: u64) -> Result<(), Interrupt> {
        self.write_no_forward(addr, value)?;
        self.forwards.push((addr, value));
        Ok(())
    }

    /// Speculative store forwarded only to one later stage's subTX of
    /// this MTX (plus validation and commit) — `mtx_writeTo` with a stage
    /// destination. A bandwidth optimization over [`WorkerCtx::write`]
    /// when only one stage reads the value.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    ///
    /// # Panics
    ///
    /// Panics unless `stage` is strictly later than this worker's stage.
    pub fn write_to_stage(
        &mut self,
        stage: StageId,
        addr: VAddr,
        value: u64,
    ) -> Result<(), Interrupt> {
        assert!(
            stage > self.stage,
            "write_to_stage must target a later stage"
        );
        assert!(stage.0 < self.shape.n_stages(), "no such stage");
        self.write_no_forward(addr, value)?;
        self.targeted_forwards.push((stage, addr, value));
        Ok(())
    }

    /// Speculative store that is validated and committed but *not*
    /// forwarded to later stages (the plan knows no later subTX of this
    /// MTX reads it) — the `mtx_writeTo(commit)` pattern.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn write_no_forward(&mut self, addr: VAddr, value: u64) -> Result<(), Interrupt> {
        let Self {
            spec,
            coa,
            planes,
            ctrl,
            epoch,
            ..
        } = self;
        spec.write(addr, value, |page| coa.fetch(planes, ctrl, epoch, page))
    }

    /// Private store: stays in this worker's memory version only. Used for
    /// per-worker scratch (the memory-versioning optimization); rolled
    /// back on recovery like everything else.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn write_private(&mut self, addr: VAddr, value: u64) -> Result<(), Interrupt> {
        let Self {
            spec,
            coa,
            planes,
            ctrl,
            epoch,
            ..
        } = self;
        spec.write_unlogged(addr, value, |page| coa.fetch(planes, ctrl, epoch, page))
    }

    // ------------------------------------------------------------------
    // Pipeline data
    // ------------------------------------------------------------------

    /// Sends a user value to the next stage's subTX of this iteration
    /// (`mtx_produce`).
    ///
    /// # Panics
    ///
    /// Panics when called from the last stage.
    pub fn produce(&mut self, value: u64) {
        let next = StageId(self.stage.0 + 1);
        assert!(
            next.0 < self.shape.n_stages(),
            "produce from the last stage"
        );
        self.produces.push((next, value));
    }

    /// Sends a user value to a specific later stage.
    ///
    /// # Panics
    ///
    /// Panics unless `stage` is strictly later than this worker's stage.
    pub fn produce_to(&mut self, stage: StageId, value: u64) {
        assert!(stage > self.stage, "produce_to must target a later stage");
        assert!(stage.0 < self.shape.n_stages(), "no such stage");
        self.produces.push((stage, value));
    }

    /// Consumes a value produced by the previous stage (`mtx_consume`).
    ///
    /// # Panics
    ///
    /// Panics when no value is available — produce/consume counts are part
    /// of the parallelization plan and must match.
    pub fn consume(&mut self) -> u64 {
        assert!(self.stage.0 > 0, "consume at the first stage");
        self.consume_from(StageId(self.stage.0 - 1))
    }

    /// Consumes a value produced by `stage` for this iteration.
    ///
    /// # Panics
    ///
    /// Panics when no value is available from that stage.
    pub fn consume_from(&mut self, stage: StageId) -> u64 {
        self.try_consume_from(stage)
            .unwrap_or_else(|| panic!("no value from {stage} in {:?}", self.cur))
    }

    /// Consumes a value from `stage` if one was produced for this
    /// iteration.
    pub fn try_consume_from(&mut self, stage: StageId) -> Option<u64> {
        self.users[stage.0 as usize].pop_front()
    }

    /// Forwards a synchronized cross-iteration value to the next iteration
    /// (ring stages only: the TLS/DOACROSS mechanism).
    ///
    /// # Panics
    ///
    /// Panics when this stage is not the declared ring stage.
    pub fn sync_produce(&mut self, value: u64) {
        assert_eq!(
            self.shape.ring_stage(),
            Some(self.stage),
            "sync_produce outside the ring stage"
        );
        self.ring_produces.push(value);
    }

    /// Takes the synchronized values forwarded by the previous iteration
    /// (empty for iteration 0).
    pub fn sync_take(&mut self) -> Vec<u64> {
        self.ring_in_vals.drain(..).collect()
    }

    // ------------------------------------------------------------------
    // Speculation control
    // ------------------------------------------------------------------

    /// Declares this iteration misspeculated (`mtx_misspec`) — e.g. failed
    /// control-flow speculation — notifies the commit unit, and waits for
    /// the recovery (or termination) interrupt.
    ///
    /// # Errors
    ///
    /// Always returns an interrupt; call as `return ctx.misspec();`.
    pub fn misspec<T>(&mut self) -> Result<T, Interrupt> {
        let mtx = self.cur.expect("misspec outside an iteration");
        // Abort the subTX: nothing of it may reach the other units.
        let log = self.spec.drain_log();
        self.spec.recycle_log(log);
        self.forwards.clear();
        self.targeted_forwards.clear();
        self.produces.clear();
        self.ring_produces.clear();
        send(
            &mut self.planes.cu_out,
            Msg::WorkerMisspec {
                mtx,
                attempt: self.attempt,
            },
        )?;
        // Block until the commit unit orchestrates recovery. Earlier
        // subTXs still buffered here ship first: the commit unit reaches
        // this MTX only after committing them.
        wait_shipped(&mut self.planes, &self.ctrl, &mut self.epoch, None, || {
            Ok(None::<T>)
        })
    }

    // ------------------------------------------------------------------
    // Iteration lifecycle (used by the worker main loop; public for
    // custom executors)
    // ------------------------------------------------------------------

    /// Enters the subTX of `mtx` (`mtx_begin`): refreshes memory with the
    /// uncommitted stores of earlier subTXs and buffers their produces.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn begin(&mut self, mtx: MtxId) -> Result<(), Interrupt> {
        self.cur = Some(mtx);
        // The recovery count at entry is the attempt number: a subTX
        // re-dispatched after recovery *r* is attempt *r*, so its events
        // (and every downstream unit's, via the wire frames) land on a
        // fresh span chained to the original.
        self.attempt = self.ctrl.recoveries() as u32;
        self.trace.record(
            self.role,
            Some(mtx),
            self.attempt,
            Some(self.stage),
            TraceKind::SubTxBegin,
        );
        for s in 0..self.stage.0 {
            let src = self.shape.executor(StageId(s), mtx);
            self.recv_frame(src, mtx, false)?;
        }
        if self.shape.ring_stage() == Some(self.stage) && mtx.0 >= 1 {
            if self.ring_skip.take() == Some(mtx) {
                // The producing iteration was re-executed sequentially
                // during recovery; synchronized state must be re-derived
                // from committed memory (`sync_take` will be empty).
            } else {
                let src = self.shape.executor(self.stage, MtxId(mtx.0 - 1));
                if src == self.worker {
                    // Single-replica ring: values loop back locally.
                    // `ring_in_vals` is empty here, so the swap keeps both
                    // buffers' capacity.
                    std::mem::swap(&mut self.ring_in_vals, &mut self.ring_loopback);
                } else {
                    self.recv_frame(src, mtx, true)?;
                }
            }
        }
        // All upstream frames are in; user code runs next. The gap back
        // to SubTxBegin is this subTX's queue wait.
        self.trace.record(
            self.role,
            Some(mtx),
            self.attempt,
            Some(self.stage),
            TraceKind::ExecBegin,
        );
        Ok(())
    }

    /// Exits the subTX of `mtx` (`mtx_end`): queues the access stream for
    /// try-commit and the store set for commit, and ships data frames to
    /// later stages and the ring frame to the successor iteration.
    ///
    /// The validation and commit records ship when their batch fills or
    /// at this worker's next wait, whichever comes first; the data and
    /// ring frames ship here, because a later stage is waiting on them.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn end(&mut self, mtx: MtxId, outcome: IterOutcome) -> Result<(), Interrupt> {
        debug_assert_eq!(self.cur, Some(mtx), "end without matching begin");
        let attempt = self.attempt;
        // User code is done; everything from here to SubTxEnd is packing
        // the planes and flushing the data and ring frames.
        self.trace.record(
            self.role,
            Some(mtx),
            attempt,
            Some(self.stage),
            TraceKind::FlushBegin,
        );
        let records = self.spec.drain_log();
        let stage = self.stage;
        let exit = outcome == IterOutcome::Exit;
        let n_shards = self.planes.val_out.len();

        // What the unpacked per-record encoding would have shipped: one
        // item per access plus the per-shard framing pair on the
        // validation plane, one item per store plus the framing pair on
        // the commit plane.
        let raw_stores = records
            .iter()
            .filter(|r| r.kind == AccessKind::Store)
            .count();
        let pre_items = records.len() as u64 + 2 * n_shards as u64 + raw_stores as u64 + 2;
        self.valplane.records_pre += pre_items;
        self.valplane.bytes_pre += pre_items * ITEM_BYTES;

        if self.compaction {
            // Filter the access log through the write-combining store
            // buffer, then pack each shard's share (and the coalesced
            // store set) into block frames.
            let Self {
                filter,
                filtered,
                val_blocks,
                commit_block,
                valplane,
                shard_map,
                planes,
                ..
            } = self;
            valplane.records_filtered += filter.filter_into(&records, filtered);
            for block in val_blocks.iter_mut() {
                block.clear();
            }
            for r in filtered.iter() {
                val_blocks[route(shard_map.as_ref(), r.addr.page(), n_shards)].push(
                    r.kind,
                    r.addr.raw(),
                    r.value,
                );
            }
            commit_block.clear();
            for (addr, value) in SpecMem::stores_of(filtered) {
                commit_block.push(AccessKind::Store, addr.raw(), value);
            }

            // Validation plane: one block per shard, empty blocks
            // included so every replay cursor advances.
            for (port, block) in planes.val_out.iter_mut().zip(val_blocks.iter_mut()) {
                let block = ship_block(valplane, block);
                send(
                    port,
                    Msg::ValBlock {
                        mtx,
                        attempt,
                        stage,
                        block,
                    },
                )?;
            }

            // Commit plane: the coalesced store set and the loop-exit
            // decision in one frame.
            let block = ship_block(valplane, commit_block);
            send(
                &mut planes.cu_out,
                Msg::CommitBlock {
                    mtx,
                    attempt,
                    stage,
                    exit,
                    block,
                },
            )?;
        } else {
            // Legacy unpacked encoding: one message per record. Ships
            // exactly what the pre-side accounting counted.
            self.valplane.records_post += pre_items;
            self.valplane.bytes_post += pre_items * ITEM_BYTES;
            let Planes { val_out, cu_out } = &mut self.planes;

            // Validation streams (ordered loads + stores), split across
            // the try-commit shards by page: every shard gets the framing
            // so its replay cursor advances, each record goes only to the
            // shard owning its page. At one shard this is the original
            // single stream verbatim.
            for port in val_out.iter_mut() {
                send(
                    port,
                    Msg::SubTxBegin {
                        mtx,
                        attempt,
                        stage,
                    },
                )?;
            }
            for r in &records {
                let msg = match r.kind {
                    AccessKind::Load => Msg::Load {
                        addr: r.addr.raw(),
                        value: r.value,
                    },
                    AccessKind::Store => Msg::Store {
                        addr: r.addr.raw(),
                        value: r.value,
                    },
                };
                let s = route(self.shard_map.as_ref(), r.addr.page(), n_shards);
                send(&mut val_out[s], msg)?;
            }
            for port in val_out.iter_mut() {
                send(port, Msg::SubTxEnd { mtx, stage })?;
            }

            // Store stream to the commit unit (group transaction commit
            // input).
            send(
                cu_out,
                Msg::SubTxBegin {
                    mtx,
                    attempt,
                    stage,
                },
            )?;
            for (addr, value) in SpecMem::stores_of(&records) {
                send(
                    cu_out,
                    Msg::Store {
                        addr: addr.raw(),
                        value,
                    },
                )?;
            }
            send(
                cu_out,
                Msg::SubTxDone {
                    mtx,
                    attempt,
                    stage,
                    exit,
                },
            )?;
        }
        self.spec.recycle_log(records);
        // A full batch still queued means its transport had no room when
        // the batch filled: wait for room (shipping both planes) instead
        // of letting the queue grow without bound.
        if self.planes.backed_up() {
            self.planes.ship(&self.ctrl, &mut self.epoch)?;
        }

        // Data frames to the executor of this iteration in each later
        // stage: forwarded stores + user values.
        let Self {
            shape,
            out,
            ctrl,
            epoch,
            planes,
            forwards,
            targeted_forwards,
            produces,
            ..
        } = self;
        for t in (stage.0 + 1)..shape.n_stages() {
            let t = StageId(t);
            let port = port_to(out, shape.executor(t, mtx));
            send(port, Msg::FrameBegin { mtx })?;
            let targeted = targeted_forwards
                .iter()
                .filter(|(ts, _, _)| *ts == t)
                .map(|&(_, addr, value)| (addr, value));
            for (addr, value) in forwards.iter().copied().chain(targeted) {
                send(
                    port,
                    Msg::Forward {
                        addr: addr.raw(),
                        value,
                    },
                )?;
            }
            for &(_, value) in produces.iter().filter(|(ps, _)| *ps == t) {
                send(port, Msg::User { value })?;
            }
            send(port, Msg::FrameEnd { mtx })?;
            flush_data(ctrl, epoch, planes, port)?;
        }
        forwards.clear();
        targeted_forwards.clear();
        produces.clear();

        // Ring frame for the successor iteration.
        if self.shape.ring_stage() == Some(stage) {
            match self.shape.ring_next(self.worker) {
                None => self.ring_loopback.extend(self.ring_produces.drain(..)),
                Some(dst) => {
                    let next_mtx = MtxId(mtx.0 + 1);
                    let Self {
                        out,
                        ctrl,
                        epoch,
                        planes,
                        ring_produces,
                        ..
                    } = self;
                    let port = port_to(out, dst);
                    send(port, Msg::FrameBegin { mtx: next_mtx })?;
                    for value in ring_produces.drain(..) {
                        send(port, Msg::User { value })?;
                    }
                    send(port, Msg::FrameEnd { mtx: next_mtx })?;
                    flush_data(ctrl, epoch, planes, port)?;
                }
            }
        }

        // Reset per-iteration state.
        for q in &mut self.users {
            q.clear();
        }
        self.ring_in_vals.clear();
        self.trace.record(
            self.role,
            Some(mtx),
            attempt,
            Some(stage),
            TraceKind::SubTxEnd,
        );
        self.cur = None;
        Ok(())
    }

    fn recv_frame(&mut self, src: WorkerId, mtx: MtxId, is_ring: bool) -> Result<(), Interrupt> {
        let src_stage = self.shape.stage_of(src).0 as usize;
        let Self {
            inn,
            spec,
            users,
            ring_in_vals,
            ctrl,
            epoch,
            planes,
            data_timeout,
            ..
        } = self;
        let timeout = *data_timeout;
        let port = inn
            .iter_mut()
            .find(|(id, _)| *id == src)
            .map(|(_, p)| p)
            .unwrap_or_else(|| panic!("no data queue from {src}"));
        // A ready message is taken at once; only a miss ships the planes
        // and waits.
        let mut recv = || match port.try_consume().map_err(classify)? {
            Some(msg) => Ok(msg),
            None => wait_shipped(planes, ctrl, epoch, timeout, || {
                port.try_consume().map_err(classify)
            }),
        };

        match recv()? {
            Msg::FrameBegin { mtx: m } => {
                assert_eq!(m, mtx, "frame out of order from {src}: got {m}, want {mtx}")
            }
            other => panic!("expected FrameBegin from {src}, got {other:?}"),
        }
        loop {
            match recv()? {
                Msg::Forward { addr, value } => spec.apply_forwarded(VAddr::from_raw(addr), value),
                Msg::User { value } => {
                    if is_ring {
                        ring_in_vals.push_back(value);
                    } else {
                        users[src_stage].push_back(value);
                    }
                }
                Msg::FrameEnd { mtx: m } => {
                    assert_eq!(m, mtx, "frame end mismatch from {src}");
                    return Ok(());
                }
                other => panic!("unexpected message in frame from {src}: {other:?}"),
            }
        }
    }

    /// Blocks until an interrupt arrives (used when this worker has no
    /// iterations left under an iteration limit). The last subTXs' plane
    /// records ship here: without them the commit unit could never reach
    /// the end of the run.
    pub(crate) fn idle_until_interrupt(&mut self) -> Result<(), Interrupt> {
        wait_shipped(&mut self.planes, &self.ctrl, &mut self.epoch, None, || {
            Ok(None::<()>)
        })
    }

    /// Raises a timeout-driven recovery request on the control plane and
    /// blocks until the commit unit answers with a status change. The
    /// request, not the raiser, picks the boundary: the commit unit always
    /// recovers at its next commit so no committed-but-unapplied MTX is
    /// lost.
    ///
    /// The one worker wait that ships nothing: the round it asks for
    /// starts at the commit unit's next commit and discards every
    /// buffered record, and a plane port may be the link that just timed
    /// out.
    pub(crate) fn request_fault_recovery(&mut self) -> Interrupt {
        self.ctrl.raise_fabric_fault();
        match wait_for(&self.ctrl, &mut self.epoch, || Ok(None::<()>)) {
            Ok(()) => unreachable!("step never yields"),
            Err(intr) => intr,
        }
    }

    /// Participates in the §4.3 recovery protocol:
    /// barrier → flush queues → barrier → re-protect heap → barrier.
    ///
    /// `boundary` is the squashed MTX being re-executed by the commit
    /// unit; its successor iteration will have no ring frame.
    pub(crate) fn do_recovery(&mut self, boundary: MtxId) {
        let barrier = self.ctrl.barrier().clone();
        barrier.wait(); // B1: everyone is in recovery mode.
        for (_, port) in &mut self.out {
            port.clear();
        }
        self.planes.clear();
        for (_, port) in &mut self.inn {
            port.drain();
        }
        self.coa.rx.drain();
        barrier.wait(); // B2: all speculative queue state is gone.
        self.spec.rollback(); // Reinstate heap access protection.
        for q in &mut self.users {
            q.clear();
        }
        self.ring_in_vals.clear();
        self.ring_loopback.clear();
        self.forwards.clear();
        self.targeted_forwards.clear();
        self.produces.clear();
        self.ring_produces.clear();
        self.cur = None;
        self.filtered.clear();
        for block in &mut self.val_blocks {
            block.clear();
        }
        self.commit_block.clear();
        // The COA cache keeps its (pristine, committed) pages — that is
        // its whole value across rollbacks — but the epoch view resets so
        // the next fault on every page revalidates over the wire before
        // any local serve.
        self.coa.epoch = EPOCH_NONE;
        // Iteration boundary+1's ring producer was re-executed by the
        // commit unit: its executor must re-derive synchronized state
        // from committed memory instead of waiting for a frame.
        self.ring_skip = Some(boundary.next());
        barrier.wait(); // B3: the commit unit re-executed; recommence.
        self.epoch = EPOCH_UNSEEN;
    }

    /// COA installs performed by this worker so far.
    pub fn coa_faults(&self) -> u64 {
        self.spec.faults_served()
    }

    /// This worker's validation-plane compaction and COA-cache counters
    /// (merged across workers into [`crate::RunReport::valplane`]).
    pub fn valplane(&self) -> ValPlaneStats {
        ValPlaneStats {
            cache_hits: self.coa.cache.hits(),
            cache_misses: self.coa.cache.misses(),
            cache_stale: self.coa.cache.stale(),
            ..self.valplane.clone()
        }
    }
}

impl std::fmt::Debug for WorkerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("worker", &self.worker)
            .field("stage", &self.stage)
            .field("cur", &self.cur)
            .finish_non_exhaustive()
    }
}

/// Maps a fabric failure to the interrupt the runtime handles it with: an
/// exhausted retry budget asks for recovery, anything else means the peer
/// is gone.
pub(crate) fn classify(e: FabricError) -> Interrupt {
    match e {
        FabricError::Timeout => Interrupt::FabricTimeout,
        _ => Interrupt::ChannelDown,
    }
}

/// Buffered, non-blocking enqueue; hard errors on peer death or an
/// exhausted fault-retry budget (an overfull batch flushes eagerly).
fn send(port: &mut SendPort<Msg>, msg: Msg) -> Result<(), Interrupt> {
    port.produce(msg).map_err(classify)
}

/// One attempt at shipping a port's buffered values, as a poll step:
/// `Some(())` once nothing is pending, `None` while the transport is full
/// or an injected fault consumed the attempt.
fn try_ship(port: &mut SendPort<Msg>) -> Result<Option<()>, Interrupt> {
    match port.try_flush() {
        Ok(true) => Ok(Some(())),
        Ok(false) | Err(FabricError::Retriable) => Ok(None),
        Err(e) => Err(classify(e)),
    }
}

/// Interruptible flush: retries while the transport is full or an injected
/// fault consumed the attempt, unwinding on control-plane interrupts, a
/// dead peer, or retry-budget exhaustion.
pub(crate) fn flush_port(
    ctrl: &ControlPlane,
    epoch: &mut u64,
    port: &mut SendPort<Msg>,
) -> Result<(), Interrupt> {
    wait_for(ctrl, epoch, || try_ship(port))
}

/// The speculation planes a worker feeds: one validation stream per
/// try-commit shard, and the commit-unit stream (store sets, misspec and
/// exit events, COA requests).
///
/// A subTX's plane records are only queued at its end. They ship when a
/// batch fills or when the worker next waits, so several subTXs share one
/// packet. The invariant that keeps this live: **no worker ever blocks
/// while holding unshipped validation or commit records.** Every worker
/// wait goes through [`wait_shipped`], which ships both planes first;
/// the try-commit shards and the commit unit therefore always hold every
/// record of every subTX a worker has finished, by the time that worker
/// could be waiting on their progress.
struct Planes {
    val_out: Vec<SendPort<Msg>>,
    cu_out: SendPort<Msg>,
}

impl Planes {
    /// Plane records queued but not yet on the wire.
    fn buffered(&self) -> usize {
        self.val_out.iter().map(SendPort::buffered).sum::<usize>() + self.cu_out.buffered()
    }

    /// True when some plane port holds a full batch its transport would
    /// not take.
    fn backed_up(&self) -> bool {
        self.val_out
            .iter()
            .chain([&self.cu_out])
            .any(|port| port.buffered() >= port.batch())
    }

    /// Ships every queued plane record, waiting (interruptibly) only while
    /// a transport is full or an injected fault consumed the attempt.
    fn ship(&mut self, ctrl: &ControlPlane, epoch: &mut u64) -> Result<(), Interrupt> {
        if self.buffered() == 0 {
            return Ok(());
        }
        wait_for(ctrl, epoch, || {
            let mut shipped = true;
            for port in self.val_out.iter_mut().chain([&mut self.cu_out]) {
                shipped &= try_ship(port)?.is_some();
            }
            Ok(shipped.then_some(()))
        })
    }

    /// Discards everything queued (§4.3 "flush queues").
    fn clear(&mut self) {
        for port in &mut self.val_out {
            port.clear();
        }
        self.cu_out.clear();
    }
}

/// The worker's one way to wait: ship both planes, then poll `step` (with
/// the receive deadline `timeout`) until it yields or the control plane
/// interrupts.
fn wait_shipped<T>(
    planes: &mut Planes,
    ctrl: &ControlPlane,
    epoch: &mut u64,
    timeout: Option<Duration>,
    step: impl FnMut() -> Result<Option<T>, Interrupt>,
) -> Result<T, Interrupt> {
    planes.ship(ctrl, epoch)?;
    debug_assert_eq!(
        planes.buffered(),
        0,
        "worker waits holding unshipped plane records"
    );
    wait_for_deadline(ctrl, epoch, timeout, step)
}

/// Flushes a data or ring frame; if the transport is full, the planes
/// ship before the worker waits for room.
fn flush_data(
    ctrl: &ControlPlane,
    epoch: &mut u64,
    planes: &mut Planes,
    port: &mut SendPort<Msg>,
) -> Result<(), Interrupt> {
    if try_ship(port)?.is_some() {
        return Ok(());
    }
    wait_shipped(planes, ctrl, epoch, None, || try_ship(port))
}

/// Takes a packed block out for shipping, leaving an empty one sized from
/// it (so the next subTX's pushes do not re-grow three vectors from
/// nothing), and books it in the compaction counters.
fn ship_block(valplane: &mut ValPlaneStats, block: &mut AccessBlock) -> Box<AccessBlock> {
    let next = block.empty_like();
    let block = Box::new(std::mem::replace(block, next));
    valplane.records_post += 1;
    valplane.bytes_post += ITEM_BYTES + block.wire_bytes();
    valplane.blocks += 1;
    valplane.block_records += u64::from(block.len());
    block
}

fn port_to(ports: &mut [(WorkerId, SendPort<Msg>)], dst: WorkerId) -> &mut SendPort<Msg> {
    ports
        .iter_mut()
        .find(|(id, _)| *id == dst)
        .map(|(_, p)| p)
        .unwrap_or_else(|| panic!("no data queue to {dst}"))
}

/// Pages one COA miss asks for: the faulting page plus the pages after it
/// that the cache does not hold, up to this many in all ("page granularity
/// doubles as prefetching", §4.2).
const COA_RUN: u64 = 4;

/// A worker's Copy-On-Access client.
struct Coa {
    /// Replies from the commit unit, in request order.
    rx: RecvPort<Msg>,
    /// Epoch-tagged committed pages retained across rollbacks.
    cache: PageCache,
    /// Newest commit epoch observed on a COA reply; [`EPOCH_NONE`] until
    /// the first reply and right after a recovery (which forces the next
    /// fault on every page back over the wire for revalidation).
    epoch: u64,
    /// The page cache (and with it page runs) is on; off in the legacy
    /// unpacked protocol.
    use_cache: bool,
    /// Receive deadline under fault injection.
    timeout: Option<Duration>,
}

impl Coa {
    /// One Copy-On-Access round trip for `page`: request it from the
    /// commit unit and wait for the reply. The worker has at most one
    /// trip outstanding, so replies arrive in request order.
    ///
    /// With the cache on, the trip is skipped when the cached copy
    /// carries the newest epoch this worker has seen; otherwise the
    /// request advertises the cached tag so the commit unit can answer
    /// with a payload-free [`Msg::CoaFresh`] revalidation. The same trip
    /// also asks for the following pages of the run that the cache does
    /// not hold; they are installed with their reply epoch, so the next
    /// faults on them take the local-serve path under the same rule.
    /// Either way the worker's speculative memory receives a copy of the
    /// committed page — the cache retains its own pristine clone.
    fn fetch(
        &mut self,
        planes: &mut Planes,
        ctrl: &ControlPlane,
        epoch: &mut u64,
        page: PageId,
    ) -> Result<Page, Interrupt> {
        let have = if self.use_cache {
            let have = self.cache.epoch_of(page);
            if have.is_some() && have == Some(self.epoch) && self.epoch != EPOCH_NONE {
                // The copy was (re)validated at the newest epoch this
                // worker has observed: serve it locally. It can lag the
                // commit unit's current image, but only within the
                // freshness window every COA fetch already has — value
                // validation catches any resulting misspeculation.
                return Ok(self.cache.serve(page));
            }
            have
        } else {
            None
        };
        let ahead = (page.0 + 1..page.0 + COA_RUN)
            .map(PageId)
            .filter(|&p| self.use_cache && self.cache.epoch_of(p).is_none())
            .map(|p| (p, EPOCH_NONE));
        let mut run = 0;
        for (p, have) in std::iter::once((page, have.unwrap_or(EPOCH_NONE))).chain(ahead) {
            send(&mut planes.cu_out, Msg::CoaRequest { page: p.0, have })?;
            run += 1;
        }
        let data = match self.recv(planes, ctrl, epoch)? {
            Msg::CoaReply {
                page: p,
                epoch: e,
                data,
            } => {
                assert_eq!(p, page.0, "out-of-order COA reply");
                if self.use_cache {
                    self.epoch = e;
                    self.cache.install(page, e, (*data).clone());
                }
                *data
            }
            Msg::CoaFresh { page: p, epoch: e } => {
                assert_eq!(p, page.0, "out-of-order COA reply");
                assert!(
                    have.is_some(),
                    "CoaFresh for a request that advertised no copy"
                );
                self.epoch = e;
                self.cache.revalidate(page, e)
            }
            other => panic!("expected CoaReply, got {other:?}"),
        };
        for _ in 1..run {
            match self.recv(planes, ctrl, epoch)? {
                Msg::CoaReply {
                    page: p,
                    epoch: e,
                    data,
                } => {
                    // Replies come in request order and the commit epoch
                    // only grows, so the last reply carries the newest.
                    self.epoch = e;
                    self.cache.install(PageId(p), e, *data);
                }
                other => panic!("expected CoaReply for a page run, got {other:?}"),
            }
        }
        Ok(data)
    }

    fn recv(
        &mut self,
        planes: &mut Planes,
        ctrl: &ControlPlane,
        epoch: &mut u64,
    ) -> Result<Msg, Interrupt> {
        let rx = &mut self.rx;
        wait_shipped(planes, ctrl, epoch, self.timeout, || {
            rx.try_consume().map_err(classify)
        })
    }
}

/// The worker thread body: iterate over assigned MTXs, handling recovery
/// and termination.
pub(crate) fn worker_main(mut ctx: WorkerCtx, stage_fn: StageFn, limit: Option<u64>) -> WorkerCtx {
    let mut next = ctx.shape.next_assigned(ctx.worker, MtxId(0));
    loop {
        let exhausted = limit.is_some_and(|l| next.0 >= l);
        let result = if exhausted {
            ctx.idle_until_interrupt()
        } else {
            run_iteration(&mut ctx, next, &stage_fn)
        };
        match result {
            Ok(()) => next = ctx.shape.next_assigned(ctx.worker, next.next()),
            Err(Interrupt::Recovery { boundary }) => {
                ctx.do_recovery(boundary);
                next = ctx.shape.next_assigned(ctx.worker, boundary.next());
            }
            Err(Interrupt::Terminate) => break,
            Err(Interrupt::ChannelDown) => {
                // A peer thread is gone; convert into a typed shutdown so
                // every other thread unwinds instead of hanging.
                ctx.ctrl.report_channel_down();
                break;
            }
            Err(Interrupt::FabricTimeout) => {
                // A transfer exhausted its retry budget (or a receive
                // starved past its deadline). Ask the commit unit for a
                // recovery round and rendezvous.
                match ctx.request_fault_recovery() {
                    Interrupt::Recovery { boundary } => {
                        ctx.do_recovery(boundary);
                        next = ctx.shape.next_assigned(ctx.worker, boundary.next());
                    }
                    Interrupt::Terminate => break,
                    Interrupt::ChannelDown => {
                        ctx.ctrl.report_channel_down();
                        break;
                    }
                    Interrupt::FabricTimeout => {
                        unreachable!("deadline-free wait cannot time out")
                    }
                }
            }
        }
    }
    ctx
}

fn run_iteration(ctx: &mut WorkerCtx, mtx: MtxId, stage_fn: &StageFn) -> Result<(), Interrupt> {
    ctx.begin(mtx)?;
    let outcome = stage_fn(ctx, mtx)?;
    ctx.end(mtx, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_fabric::{
        channel, channel_faulted, CostModel, FabricStats, FaultPlan, FaultRates, RetryPolicy,
    };

    #[test]
    fn flush_port_reports_dead_peer_as_channel_down() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        // Batch larger than what we enqueue: produce only buffers, the
        // flush discovers the dropped consumer.
        let (mut tx, rx) = channel::<Msg>(8, 4);
        drop(rx);
        tx.produce(Msg::CoaRequest {
            page: 0,
            have: EPOCH_NONE,
        })
        .unwrap();
        let r = flush_port(&ctrl, &mut epoch, &mut tx);
        assert_eq!(r.unwrap_err(), Interrupt::ChannelDown);
    }

    #[test]
    fn flush_port_converts_exhausted_retries_into_fabric_timeout() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        let plan = FaultPlan::new(7, FaultRates::only_drop(1.0));
        let (mut tx, _rx) = channel_faulted::<Msg>(
            8,
            4,
            CostModel::FREE,
            FabricStats::new(),
            Some(plan.injector(0)),
            RetryPolicy {
                max_attempts: 4,
                base_backoff_us: 1,
                max_backoff_us: 1,
            },
        );
        tx.produce(Msg::CoaRequest {
            page: 0,
            have: EPOCH_NONE,
        })
        .unwrap();
        let r = flush_port(&ctrl, &mut epoch, &mut tx);
        assert_eq!(r.unwrap_err(), Interrupt::FabricTimeout);
    }

    #[test]
    fn classify_maps_fabric_errors() {
        assert_eq!(classify(FabricError::Timeout), Interrupt::FabricTimeout);
        assert_eq!(classify(FabricError::Disconnected), Interrupt::ChannelDown);
        assert_eq!(classify(FabricError::Retriable), Interrupt::ChannelDown);
    }

    /// A COA client wired to in-memory queues: returns the client, its
    /// planes, the sender the test answers on, and the receiver that sees
    /// the client's requests.
    fn coa_client() -> (Coa, Planes, SendPort<Msg>, RecvPort<Msg>) {
        let (cu_out, requests) = channel::<Msg>(64, 16);
        let (replies, rx) = channel::<Msg>(1, 16);
        let coa = Coa {
            rx,
            cache: PageCache::new(),
            epoch: EPOCH_NONE,
            use_cache: true,
            timeout: None,
        };
        let planes = Planes {
            val_out: Vec::new(),
            cu_out,
        };
        (coa, planes, replies, requests)
    }

    fn marked(word: u64) -> Page {
        let mut p = Page::zeroed();
        p.set_word(0, word);
        p
    }

    fn reply(page: u64, epoch: u64, data: Page) -> Msg {
        Msg::CoaReply {
            page,
            epoch,
            data: Box::new(data),
        }
    }

    /// Every `(page, have)` request the client has sent.
    fn requests_sent(rx: &mut RecvPort<Msg>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(msg) = rx.try_consume().unwrap() {
            match msg {
                Msg::CoaRequest { page, have } => out.push((page, have)),
                other => panic!("unexpected {other:?}"),
            }
        }
        out
    }

    #[test]
    fn coa_miss_fetches_a_run_and_the_next_faults_are_local_hits() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        let (mut coa, mut planes, mut replies, mut requests) = coa_client();
        // Page 102 is already cached (from an earlier trip): the run skips
        // it and takes 103 instead of stopping.
        coa.cache.install(PageId(102), 1, marked(1102));
        for p in [100, 101, 103] {
            replies.produce(reply(p, 3, marked(p))).unwrap();
        }
        let page = coa
            .fetch(&mut planes, &ctrl, &mut epoch, PageId(100))
            .unwrap();
        assert_eq!(page.word(0), 100);
        assert_eq!(
            requests_sent(&mut requests),
            vec![(100, EPOCH_NONE), (101, EPOCH_NONE), (103, EPOCH_NONE)],
            "one trip asks for the faulting page and the uncached rest of its run"
        );
        assert_eq!(coa.epoch, 3);

        for p in [101, 103] {
            let page = coa
                .fetch(&mut planes, &ctrl, &mut epoch, PageId(p))
                .unwrap();
            assert_eq!(page.word(0), p, "prefetched copy of page {p}");
        }
        assert_eq!(requests_sent(&mut requests), vec![], "no new CoaRequest");
        assert_eq!(planes.buffered(), 0);
        assert_eq!((coa.cache.hits(), coa.cache.misses()), (2, 4));
    }

    #[test]
    fn a_page_committed_after_its_prefetch_is_not_served_locally() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        let (mut coa, mut planes, mut replies, mut requests) = coa_client();
        // Miss on 100 at epoch 3 prefetches 101..=103.
        for p in 100..104 {
            replies.produce(reply(p, 3, marked(p))).unwrap();
        }
        coa.fetch(&mut planes, &ctrl, &mut epoch, PageId(100))
            .unwrap();
        // A later trip observes epoch 5: commits happened since the
        // prefetch, one of them to page 101.
        for p in 200..204 {
            replies.produce(reply(p, 5, marked(p))).unwrap();
        }
        coa.fetch(&mut planes, &ctrl, &mut epoch, PageId(200))
            .unwrap();
        requests_sent(&mut requests);

        // The copy of 101 is tagged 3, older than the newest epoch seen:
        // it must be revalidated over the wire, and the commit unit ships
        // the newer page.
        replies.produce(reply(101, 5, marked(7101))).unwrap();
        replies.produce(reply(104, 5, marked(104))).unwrap();
        let page = coa
            .fetch(&mut planes, &ctrl, &mut epoch, PageId(101))
            .unwrap();
        assert_eq!(page.word(0), 7101, "the committed page, not the prefetch");
        assert_eq!(
            requests_sent(&mut requests),
            vec![(101, 3), (104, EPOCH_NONE)]
        );
        // Page 102 was not committed to: a payload-free revalidation
        // serves the prefetched copy (and the run takes uncached 105).
        replies
            .produce(Msg::CoaFresh {
                page: 102,
                epoch: 5,
            })
            .unwrap();
        replies.produce(reply(105, 5, marked(105))).unwrap();
        let page = coa
            .fetch(&mut planes, &ctrl, &mut epoch, PageId(102))
            .unwrap();
        assert_eq!(page.word(0), 102);
        assert_eq!(
            requests_sent(&mut requests),
            vec![(102, 3), (105, EPOCH_NONE)]
        );
    }

    #[test]
    fn without_the_cache_a_miss_fetches_one_page() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        let (mut coa, mut planes, mut replies, mut requests) = coa_client();
        coa.use_cache = false;
        replies.produce(reply(100, 3, marked(100))).unwrap();
        let page = coa
            .fetch(&mut planes, &ctrl, &mut epoch, PageId(100))
            .unwrap();
        assert_eq!(page.word(0), 100);
        assert_eq!(requests_sent(&mut requests), vec![(100, EPOCH_NONE)]);
        assert!(coa.cache.is_empty());
    }

    #[test]
    fn ship_empties_every_plane_and_backed_up_sees_a_refused_batch() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        let (v0, mut r0) = channel::<Msg>(4, 1);
        let (cu_out, mut rc) = channel::<Msg>(4, 1);
        let mut planes = Planes {
            val_out: vec![v0],
            cu_out,
        };
        let ping = |mtx| Msg::FrameEnd { mtx: MtxId(mtx) };
        for i in 0..3 {
            send(&mut planes.val_out[0], ping(i)).unwrap();
            send(&mut planes.cu_out, ping(i)).unwrap();
        }
        assert!(!planes.backed_up());
        assert_eq!(planes.buffered(), 6);
        planes.ship(&ctrl, &mut epoch).unwrap();
        assert_eq!(planes.buffered(), 0);
        // The one-packet transport is now full: the next full batch is
        // refused and stays queued.
        for i in 0..4 {
            send(&mut planes.val_out[0], ping(i)).unwrap();
        }
        assert!(planes.backed_up());
        let mut seen = 0;
        while r0.try_consume().unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 3, "the first packet");
        planes.ship(&ctrl, &mut epoch).unwrap();
        assert!(!planes.backed_up());
        while rc.try_consume().unwrap().is_some() {}
    }

    fn rec(kind: AccessKind, addr: u64, value: u64) -> AccessRecord {
        AccessRecord {
            kind,
            addr: VAddr::from_raw(addr),
            value,
        }
    }

    fn filter(records: &[AccessRecord]) -> (Vec<AccessRecord>, u64) {
        let mut f = AccessFilter::new();
        let mut out = Vec::new();
        let n = f.filter_into(records, &mut out);
        (out, n)
    }

    /// Reference implementation of the filtering contract: first load per
    /// address (unless locally stored before), one store per address at
    /// first-store position with the final value.
    fn filter_reference(records: &[AccessRecord]) -> Vec<AccessRecord> {
        use std::collections::HashMap;
        let mut out: Vec<AccessRecord> = Vec::new();
        let mut seen_load: HashMap<u64, ()> = HashMap::new();
        let mut store_at: HashMap<u64, usize> = HashMap::new();
        for r in records {
            let key = r.addr.raw();
            match r.kind {
                AccessKind::Load => {
                    if !seen_load.contains_key(&key) && !store_at.contains_key(&key) {
                        seen_load.insert(key, ());
                        out.push(*r);
                    }
                }
                AccessKind::Store => match store_at.get(&key) {
                    Some(&i) => out[i].value = r.value,
                    None => {
                        store_at.insert(key, out.len());
                        out.push(*r);
                    }
                },
            }
        }
        out
    }

    #[test]
    fn filter_suppresses_repeat_loads_and_coalesces_stores() {
        let (out, n) = filter(&[
            rec(AccessKind::Load, 8, 5),
            rec(AccessKind::Load, 8, 5),     // repeat load: suppressed
            rec(AccessKind::Store, 8, 9),    // first store: survives here
            rec(AccessKind::Load, 8, 9),     // load after store: suppressed
            rec(AccessKind::Store, 8, 11),   // coalesces into the first store
            rec(AccessKind::Load, 16, 0),    // different address: survives
            rec(AccessKind::Store, 4096, 1), // different page: survives
        ]);
        assert_eq!(n, 3);
        assert_eq!(
            out,
            vec![
                rec(AccessKind::Load, 8, 5),
                rec(AccessKind::Store, 8, 11), // final value, first position
                rec(AccessKind::Load, 16, 0),
                rec(AccessKind::Store, 4096, 1),
            ]
        );
    }

    #[test]
    fn filter_passes_disjoint_streams_through_untouched() {
        let records: Vec<AccessRecord> = (0..100u64)
            .map(|i| {
                rec(
                    if i % 2 == 0 {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    },
                    8 * i,
                    i,
                )
            })
            .collect();
        let (out, n) = filter(&records);
        assert_eq!(n, 0);
        assert_eq!(out, records);
    }

    #[test]
    fn filter_matches_reference_on_pseudorandom_streams() {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut f = AccessFilter::new();
        let mut out = Vec::new();
        for round in 0..20 {
            let mut records = Vec::new();
            for i in 0..(50 + round * 37) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A small address universe forces heavy collisions.
                let addr = 8 * (x % 23);
                let kind = if x & 4 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                records.push(rec(kind, addr, x.wrapping_add(i)));
            }
            // Reuse one filter across rounds: generation stamping must
            // isolate subTXs from each other.
            let n = f.filter_into(&records, &mut out);
            assert_eq!(out, filter_reference(&records), "round {round}");
            assert_eq!(n as usize, records.len() - out.len());
        }
    }

    #[test]
    fn filtered_stream_preserves_final_image_and_first_observations() {
        // The soundness invariant the compaction rests on: replaying the
        // filtered stream yields the same final store image, and every
        // surviving load observes what the full stream's first load of
        // that address observed.
        let mut x = 1u64;
        let mut records = Vec::new();
        for i in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = 8 * (x % 17);
            let kind = if x & 8 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            records.push(rec(kind, addr, i));
        }
        let (out, _) = filter(&records);
        use std::collections::HashMap;
        let mut full_image: HashMap<u64, u64> = HashMap::new();
        for r in &records {
            if r.kind == AccessKind::Store {
                full_image.insert(r.addr.raw(), r.value);
            }
        }
        let mut filt_image: HashMap<u64, u64> = HashMap::new();
        for r in &out {
            if r.kind == AccessKind::Store {
                assert!(
                    !filt_image.contains_key(&r.addr.raw()),
                    "one store per address after coalescing"
                );
                filt_image.insert(r.addr.raw(), r.value);
            }
        }
        assert_eq!(full_image, filt_image);
        for r in &out {
            if r.kind == AccessKind::Load {
                let first = records
                    .iter()
                    .find(|q| q.addr == r.addr)
                    .expect("load came from the stream");
                assert_eq!(first.kind, AccessKind::Load, "no store precedes it");
                assert_eq!(first.value, r.value);
            }
        }
    }
}
