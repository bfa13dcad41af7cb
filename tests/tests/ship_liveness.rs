//! Liveness of the plane-shipping rule.
//!
//! Workers queue each subTX's validation and commit records at its end
//! and ship them only when a batch fills or when the worker next waits.
//! The rule that keeps this live is that no worker ever blocks while
//! holding unshipped plane records (a debug assertion in the worker
//! checks it at every wait). Each test here builds a run in which some
//! worker finishes subTXs and then stops sending anything else: it
//! idles at the end of an iteration limit, runs ahead past a loop exit,
//! misspeculates, or blocks on a full transport. The run must still end,
//! in seconds, with the committed memory equal to running `recovery_fn`
//! sequentially over the same iterations.
//!
//! Run them pinned to one core as well as unpinned:
//!
//! ```text
//! taskset -c 0 cargo test -q -p dsmtx-integration-tests --test ship_liveness
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, RunReport, StageFn, StageKind, SystemConfig, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_uva::{OwnerId, RegionAllocator, VAddr};

/// A stranded plane record hangs a run for good; a healthy run here
/// takes milliseconds.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Words per 4 KiB page.
const PAGE_WORDS: u64 = 512;

/// Runs the program under a watchdog and checks the committed memory
/// against `recovery` applied in iteration order from an empty memory,
/// up to `limit` iterations or the first `Exit`.
fn check<R>(
    what: &str,
    cfg: &SystemConfig,
    stages: Vec<StageFn>,
    recovery: R,
    limit: Option<u64>,
) -> RunReport
where
    R: Fn(MtxId, &mut MasterMem) -> IterOutcome + Clone + Send + 'static,
{
    let mut expected = MasterMem::new();
    let mut iterations = 0;
    loop {
        let outcome = recovery(MtxId(iterations), &mut expected);
        iterations += 1;
        if outcome == IterOutcome::Exit || Some(iterations) == limit {
            break;
        }
    }

    let system = MtxSystem::new(cfg).unwrap();
    let handle = std::thread::spawn(move || {
        system
            .run(Program {
                master: MasterMem::new(),
                stages,
                recovery: Box::new(recovery),
                on_commit: None,
                iteration_limit: limit,
            })
            .unwrap()
    });
    let deadline = Instant::now() + WATCHDOG;
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what}: run still not finished after {WATCHDOG:?} (a worker waits \
             holding unshipped plane records?)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let result = handle
        .join()
        .unwrap_or_else(|_| panic!("{what}: run panicked"));
    assert_eq!(
        result.master.snapshot(),
        expected.snapshot(),
        "{what}: committed memory differs from the sequential recovery_fn run"
    );
    assert_eq!(
        result.report.total_iterations(),
        iterations,
        "{what}: iterations lost or duplicated"
    );
    result.report
}

fn doall(replicas: u16) -> SystemConfig {
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas });
    cfg
}

fn value(mtx: MtxId) -> u64 {
    mtx.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

/// Every iteration stores to one word of a single page, so after its
/// first COA fetch a worker never waits again: the last subTXs of each
/// worker can only ship from `idle_until_interrupt`. The run also ships
/// fewer packets than the subTXs it commits, which fails if plane records
/// are flushed at every subTX end again.
#[test]
fn iteration_limited_run_ships_its_tail_from_idle() {
    const N: u64 = 32;
    let out = RegionAllocator::new(OwnerId(0)).alloc_words(N).unwrap();
    let body: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        ctx.write_no_forward(out.add_words(mtx.0), value(mtx))?;
        Ok(IterOutcome::Continue)
    });
    let recovery = move |mtx: MtxId, m: &mut MasterMem| {
        m.write(out.add_words(mtx.0), value(mtx));
        IterOutcome::Continue
    };
    let report = check("iteration limit", &doall(2), vec![body], recovery, Some(N));
    assert_eq!(report.recoveries, 0);
    assert!(
        report.stats.packets() < N,
        "{} packets for {N} subTXs: plane records are not batched",
        report.stats.packets()
    );
}

/// A loop that leaves through `IterOutcome::Exit` with no iteration
/// limit: the workers run ahead past the exit iteration without waiting,
/// so the exit MTX's records ship from a later wait or a full batch.
#[test]
fn exit_loop_with_run_ahead_workers_terminates() {
    const EXIT: u64 = 20;
    const SLOTS: u64 = 64;
    let out = RegionAllocator::new(OwnerId(0)).alloc_words(SLOTS).unwrap();
    let body: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        // Iterations past the exit are squashed; they stay on the same
        // page so they never wait on a COA fetch.
        ctx.write_no_forward(out.add_words(mtx.0 % SLOTS), value(mtx))?;
        Ok(if mtx.0 == EXIT {
            IterOutcome::Exit
        } else {
            IterOutcome::Continue
        })
    });
    let recovery = move |mtx: MtxId, m: &mut MasterMem| {
        m.write(out.add_words(mtx.0 % SLOTS), value(mtx));
        if mtx.0 == EXIT {
            IterOutcome::Exit
        } else {
            IterOutcome::Continue
        }
    };
    for replicas in [1, 2, 3] {
        let report = check(
            &format!("exit loop, {replicas} replicas"),
            &doall(replicas),
            vec![body.clone()],
            recovery,
            None,
        );
        assert_eq!(report.last_iteration, Some(MtxId(EXIT)));
    }
}

/// A misspeculation late in the run, from a worker whose earlier subTXs
/// are still queued: the commit unit can reach the squashed MTX only
/// after committing them, so `misspec` must ship them before it waits.
#[test]
fn misspec_ships_earlier_unshipped_subtxs() {
    const N: u64 = 40;
    const BAD: u64 = 33;
    let out = RegionAllocator::new(OwnerId(0)).alloc_words(N).unwrap();
    let body: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == BAD {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), value(mtx))?;
        Ok(IterOutcome::Continue)
    });
    let recovery = move |mtx: MtxId, m: &mut MasterMem| {
        m.write(out.add_words(mtx.0), value(mtx));
        IterOutcome::Continue
    };
    for replicas in [1, 2] {
        let report = check(
            &format!("misspec, {replicas} replicas"),
            &doall(replicas),
            vec![body.clone()],
            recovery,
            Some(N),
        );
        assert_eq!(report.recoveries, 1);
    }

    // The same in the sequential stage of a pipeline, whose worker also
    // waits for data frames between subTXs.
    let acc = RegionAllocator::new(OwnerId(0)).alloc_words(1).unwrap();
    let first: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        ctx.produce(value(mtx));
        Ok(IterOutcome::Continue)
    });
    let last: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let v = ctx.consume();
        if mtx.0 == BAD {
            return ctx.misspec();
        }
        let a = ctx.read(acc)?;
        ctx.write(acc, a.wrapping_add(v))?;
        Ok(IterOutcome::Continue)
    });
    let recovery = move |mtx: MtxId, m: &mut MasterMem| {
        let a = m.read(acc);
        m.write(acc, a.wrapping_add(value(mtx)));
        IterOutcome::Continue
    };
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 })
        .stage(StageKind::Sequential);
    let report = check(
        "pipeline misspec",
        &cfg,
        vec![first, last],
        recovery,
        Some(N),
    );
    assert_eq!(report.recoveries, 1);
}

/// Two try-commit shards: every subTX queues one validation block per
/// shard, and an MTX commits only once both shards validated it, so
/// every shard's queue must ship at each wait.
#[test]
fn two_shard_run_ships_every_shard() {
    const N: u64 = 48;
    const PAGES: u64 = 8;
    let base = RegionAllocator::new(OwnerId(0))
        .alloc_words(PAGES * PAGE_WORDS)
        .unwrap();
    let slot = move |mtx: MtxId, p: u64| -> VAddr { base.add_words(p * PAGE_WORDS + mtx.0) };
    let body: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        for p in 0..PAGES {
            ctx.write_no_forward(slot(mtx, p), value(mtx) ^ p)?;
        }
        Ok(IterOutcome::Continue)
    });
    let recovery = move |mtx: MtxId, m: &mut MasterMem| {
        for p in 0..PAGES {
            m.write(slot(mtx, p), value(mtx) ^ p);
        }
        IterOutcome::Continue
    };
    let mut cfg = doall(2);
    cfg.unit_shards(2);
    let report = check("2 shards", &cfg, vec![body], recovery, Some(N));
    assert_eq!(report.shard_stats.len(), 2);
    assert!(
        report.shard_stats.iter().all(|s| s.validated == N),
        "every shard validates every MTX"
    );
}

/// One-packet queues everywhere: every batch fill finds its transport
/// full at once, so workers wait on full data and plane transports (and
/// ship before each such wait) instead of queueing without bound.
#[test]
fn full_transports_never_strand_plane_records() {
    const N: u64 = 64;
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(N).unwrap();
    let out = heap.alloc_words(N).unwrap();
    let first: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        ctx.write(input.add_words(mtx.0), value(mtx))?;
        ctx.produce(mtx.0);
        Ok(IterOutcome::Continue)
    });
    let last: StageFn = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let i = ctx.consume();
        let x = ctx.read(input.add_words(i))?;
        ctx.write_no_forward(out.add_words(mtx.0), x.rotate_left(7))?;
        Ok(IterOutcome::Continue)
    });
    let recovery = move |mtx: MtxId, m: &mut MasterMem| {
        m.write(input.add_words(mtx.0), value(mtx));
        m.write(out.add_words(mtx.0), value(mtx).rotate_left(7));
        IterOutcome::Continue
    };
    for (batch, capacity) in [(1, 1), (2, 1), (64, 1)] {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 })
            .stage(StageKind::Parallel { replicas: 2 })
            .batch(batch)
            .capacity(capacity);
        check(
            &format!("batch {batch}, capacity {capacity}"),
            &cfg,
            vec![first.clone(), last.clone()],
            recovery,
            Some(N),
        );
    }
}
