//! Microtimings of single layers, taken from outside by timing calls into
//! their public functions.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use dsmtx::wire::AccessBlock;
use dsmtx::{AccessFilter, ControlPlane};
use dsmtx_fabric::{channel, Barrier};
use dsmtx_mem::{AccessKind, AccessRecord, MasterMem, PageCache, SpecMem};
use dsmtx_uva::{OwnerId, PageId, RegionAllocator, VAddr, PAGE_WORDS};

use crate::loops::splitmix;
use crate::spans::span;
use crate::stats::quantile;

/// Queue batch and capacity the kernels' executors use by default.
const DEFAULT_BATCH: usize = 64;
const DEFAULT_CAPACITY: usize = 256;

/// Unit costs of the layers, one per microtiming.
pub struct Micro {
    pub wakeup_us_p50: f64,
    pub wakeup_us_p99: f64,
    pub wakeup_samples: usize,
    pub stream_ns_per_item: f64,
    pub barrier_us: f64,
    pub coa_hit_ns: f64,
    pub coa_miss_ns: f64,
    pub commit_ns_per_word: f64,
    pub spec_rw_ns: f64,
    pub filter_ns_per_record: f64,
    pub pack_ns_per_record: f64,
    pub unpack_ns_per_record: f64,
    pub poll_ns: f64,
}

/// Runs every microtiming; `parties` is the recovery barrier's party
/// count for the workload.
pub fn measure(parties: usize, seed: u64) -> Micro {
    let (wakeup_us_p50, wakeup_us_p99, wakeup_samples) = span("fabric.wakeup", wakeup);
    let records = access_stream(seed);
    let (filter_ns_per_record, pack_ns_per_record, unpack_ns_per_record) =
        span("valplane.filter_pack_unpack", || valplane(&records));
    Micro {
        wakeup_us_p50,
        wakeup_us_p99,
        wakeup_samples,
        stream_ns_per_item: span("fabric.stream", stream),
        barrier_us: span("fabric.barrier", || barrier(parties)),
        coa_hit_ns: span("mem.coa_hit", coa_hit),
        coa_miss_ns: span("mem.coa_miss", coa_miss),
        commit_ns_per_word: span("mem.commit", commit_per_word),
        spec_rw_ns: span("mem.spec_rw", spec_rw),
        filter_ns_per_record,
        pack_ns_per_record,
        unpack_ns_per_record,
        poll_ns: span("control.poll", poll),
    }
}

fn ns_per(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// One-item ping-pong through two batch-1 queues; the echo thread is
/// blocked in `RecvPort::consume` when each ping lands. Returns the p50
/// and p99 one-way wake-up (half the round trip) in µs and the sample
/// count.
fn wakeup() -> (f64, f64, usize) {
    const WARMUP: usize = 200;
    const SAMPLES: usize = 2000;
    let (mut ping_tx, mut ping_rx) = channel::<u64>(1, 4);
    let (mut pong_tx, mut pong_rx) = channel::<u64>(1, 4);
    let echo = thread::spawn(move || {
        while let Ok(v) = ping_rx.consume() {
            if pong_tx.produce(v).and_then(|()| pong_tx.flush()).is_err() {
                return;
            }
        }
    });
    let mut one_way_us = Vec::with_capacity(SAMPLES);
    for i in 0..(WARMUP + SAMPLES) as u64 {
        let t = Instant::now();
        ping_tx.produce(i).expect("echo thread alive");
        ping_tx.flush().expect("echo thread alive");
        let v = pong_rx.consume().expect("echo thread alive");
        let rtt = t.elapsed();
        assert_eq!(v, i, "ping-pong out of order");
        if i as usize >= WARMUP {
            one_way_us.push(rtt.as_secs_f64() * 1e6 / 2.0);
        }
    }
    ping_tx.close().expect("echo thread alive");
    echo.join().expect("echo thread panicked");
    (
        quantile(&one_way_us, 0.5),
        quantile(&one_way_us, 0.99),
        one_way_us.len(),
    )
}

/// produce → flush → consume of a long stream at the default batch, with
/// the consumer on its own thread: ns per item.
fn stream() -> f64 {
    const ITEMS: u64 = 400_000;
    let (mut tx, mut rx) = channel::<u64>(DEFAULT_BATCH, DEFAULT_CAPACITY);
    let t = Instant::now();
    let consumer = thread::spawn(move || {
        let mut sum = 0u64;
        while let Ok(v) = rx.consume() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    for i in 0..ITEMS {
        tx.produce(i).expect("consumer alive");
    }
    tx.flush().expect("consumer alive");
    tx.close().expect("consumer alive");
    let sum = consumer.join().expect("consumer panicked");
    let elapsed = t.elapsed();
    assert_eq!(sum, ITEMS * (ITEMS - 1) / 2, "stream lost items");
    ns_per(elapsed, ITEMS)
}

/// One `Barrier::wait` generation with `parties` threads: µs per
/// generation.
fn barrier(parties: usize) -> f64 {
    const GENERATIONS: u64 = 2000;
    let b = Barrier::new(parties.max(1));
    let others: Vec<_> = (1..parties)
        .map(|_| {
            let b = b.clone();
            thread::spawn(move || {
                for _ in 0..GENERATIONS {
                    b.wait();
                }
            })
        })
        .collect();
    let t = Instant::now();
    for _ in 0..GENERATIONS {
        b.wait();
    }
    let elapsed = t.elapsed();
    for h in others {
        h.join().expect("barrier party panicked");
    }
    elapsed.as_secs_f64() * 1e6 / GENERATIONS as f64
}

/// The first words of `count` distinct whole pages.
fn pages(count: u64) -> Vec<VAddr> {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let base = heap.alloc_words((count + 1) * PAGE_WORDS).expect("alloc");
    let first = base.page().base();
    let first = if first == base {
        first
    } else {
        first.add_words(PAGE_WORDS)
    };
    (0..count)
        .map(|p| first.add_words(p * PAGE_WORDS))
        .collect()
}

/// A COA fetch served from the worker page cache: ns per fetch.
fn coa_hit() -> f64 {
    const PAGES: u64 = 64;
    const ROUNDS: u64 = 200;
    let mut cache = PageCache::new();
    let ids: Vec<PageId> = pages(PAGES).iter().map(|a| a.page()).collect();
    let master = MasterMem::new();
    for &id in &ids {
        cache.install(id, 1, master.page(id));
    }
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for &id in &ids {
            if cache.epoch_of(id) == Some(1) {
                black_box(cache.serve(id));
            }
        }
    }
    ns_per(t.elapsed(), PAGES * ROUNDS)
}

/// A COA fetch of an uncached page: the committed copy out of
/// `MasterMem`, installed in the page cache and faulted into a fresh
/// `SpecMem`. ns per fetch (the wire round trip is the fabric's share).
fn coa_miss() -> f64 {
    const PAGES: u64 = 64;
    const ROUNDS: u64 = 100;
    let addrs = pages(PAGES);
    let mut master = MasterMem::new();
    for (i, a) in addrs.iter().enumerate() {
        master.write(*a, i as u64 + 1);
    }
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let mut cache = PageCache::new();
        let mut spec = SpecMem::new();
        for a in &addrs {
            let page = master.page(a.page());
            cache.install(a.page(), 1, page.clone());
            let v = spec.read(*a, |_| Ok::<_, ()>(page)).expect("fetch");
            black_box(v);
        }
        black_box((&cache, &spec));
    }
    ns_per(t.elapsed(), PAGES * ROUNDS)
}

/// `MasterMem::commit_writes` of 32-word write-sets, one word per page:
/// ns per word.
fn commit_per_word() -> f64 {
    const WORDS: u64 = 32;
    const COMMITS: u64 = 20_000;
    let addrs = pages(WORDS);
    let mut master = MasterMem::new();
    for a in &addrs {
        master.write(*a, 0);
    }
    let t = Instant::now();
    for c in 0..COMMITS {
        master.commit_writes(
            addrs
                .iter()
                .enumerate()
                .map(|(k, a)| (a.add_words(c % PAGE_WORDS), c ^ k as u64)),
        );
    }
    let elapsed = t.elapsed();
    black_box(&master);
    ns_per(elapsed, WORDS * COMMITS)
}

/// A logged speculative load plus store on resident pages: ns per
/// access.
fn spec_rw() -> f64 {
    const ACCESSES_PER_SUBTX: u64 = 64;
    const SUBTXS: u64 = 20_000;
    let addrs = pages(8);
    let mut spec = SpecMem::new();
    let master = MasterMem::new();
    for a in &addrs {
        spec.read(*a, |id| Ok::<_, ()>(master.page(id)))
            .expect("fetch");
    }
    spec.drain_log();
    let t = Instant::now();
    for s in 0..SUBTXS {
        for k in 0..ACCESSES_PER_SUBTX / 2 {
            let a = addrs[(k % 8) as usize].add_words((s + k) % PAGE_WORDS);
            let v = spec.read(a, |_| Err(())).expect("resident");
            spec.write(a, v.wrapping_add(1), |_| Err(()))
                .expect("resident");
        }
        black_box(spec.drain_log());
    }
    ns_per(t.elapsed(), ACCESSES_PER_SUBTX * SUBTXS)
}

/// A subTX-shaped access stream: loads and stores over 32 pages with
/// repeats, so the filter has loads to drop and stores to coalesce.
fn access_stream(seed: u64) -> Vec<Vec<AccessRecord>> {
    const SUBTXS: usize = 256;
    const RECORDS: usize = 64;
    let addrs = pages(32);
    let mut state = seed ^ 0x5EED;
    (0..SUBTXS)
        .map(|_| {
            (0..RECORDS)
                .map(|_| {
                    let r = splitmix(&mut state);
                    let addr = addrs[(r % 32) as usize].add_words((r >> 8) % 4);
                    let kind = if r >> 63 == 0 {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    };
                    AccessRecord {
                        kind,
                        addr,
                        value: r >> 16,
                    }
                })
                .collect()
        })
        .collect()
}

/// `AccessFilter::filter_into` (ns per input record), then packing the
/// survivors into `AccessBlock`s and decoding them again (ns per packed
/// record).
fn valplane(subtxs: &[Vec<AccessRecord>]) -> (f64, f64, f64) {
    const ROUNDS: u64 = 40;
    let mut filter = AccessFilter::new();
    let mut out = Vec::new();
    let input: u64 = subtxs.iter().map(|s| s.len() as u64).sum();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for s in subtxs {
            black_box(filter.filter_into(s, &mut out));
        }
    }
    let filter_ns = ns_per(t.elapsed(), input * ROUNDS);

    let filtered: Vec<Vec<AccessRecord>> = subtxs
        .iter()
        .map(|s| {
            filter.filter_into(s, &mut out);
            out.clone()
        })
        .collect();
    let packed: u64 = filtered.iter().map(|s| s.len() as u64).sum();
    let mut blocks: Vec<AccessBlock> = filtered.iter().map(|_| AccessBlock::new()).collect();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for (block, recs) in blocks.iter_mut().zip(&filtered) {
            block.clear();
            for r in recs {
                block.push(r.kind, r.addr.raw(), r.value);
            }
        }
        black_box(&blocks);
    }
    let pack_ns = ns_per(t.elapsed(), packed * ROUNDS);

    let t = Instant::now();
    let mut decoded = 0u64;
    for _ in 0..ROUNDS {
        for block in &blocks {
            for r in block.iter() {
                decoded += 1;
                black_box(r);
            }
        }
    }
    let unpack_ns = ns_per(t.elapsed(), packed * ROUNDS);
    assert_eq!(decoded, packed * ROUNDS, "unpack lost records");
    (filter_ns, pack_ns, unpack_ns)
}

/// `ControlPlane::poll` on a running plane (the per-subTX hot path): ns
/// per poll.
fn poll() -> f64 {
    const POLLS: u64 = 2_000_000;
    let cp = ControlPlane::new(1);
    let mut seen = cp.epoch();
    let t = Instant::now();
    for _ in 0..POLLS {
        black_box(cp.poll(black_box(&mut seen)));
    }
    ns_per(t.elapsed(), POLLS)
}
