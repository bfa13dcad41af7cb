//! The commit unit's committed memory image.
//!
//! Only the commit unit executes the sequential, non-transactional portions
//! of the program, so its memory is always the single source of committed
//! truth (§3.1). Pages are created zero-filled on first write (demand
//! zero); [`MasterMem::page`] serves Copy-On-Access requests.
//!
//! Bulk paths work a page at a time: [`MasterMem::write_words`] and
//! [`MasterMem::read_words`] pay one page lookup per page spanned, and
//! [`MasterMem::commit_writes`] one per run of same-page writes, instead
//! of one per word.
//!
//! The page map is internally partitioned by [`shard_of`] into a fixed
//! number of sub-maps, a layout left from an earlier parallel group
//! commit. Reads and writes behave exactly as a single flat map would.
//! The per-word [`MasterMem::read`]/[`MasterMem::write`] path is also
//! what sequential baselines run on, so flattening the map, which would
//! speed it up, belongs with a change that re-baselines them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use dsmtx_uva::{PageId, VAddr, PAGE_WORDS};
use fxhash::{FxHashMap, FxHashSet};

use crate::page::Page;
use crate::shard::shard_of;
use crate::spec::{AccessKind, AccessRecord};

/// Fixed interior partition count of the committed page map.
const INTERNAL_SHARDS: usize = 8;

/// Committed memory: the image COA fetches from and group commit updates.
#[derive(Debug)]
pub struct MasterMem {
    /// `PageId` space hash-partitioned by `shard_of(page, INTERNAL_SHARDS)`.
    shards: Vec<FxHashMap<PageId, Page>>,
    commits_applied: u64,
    /// Pages written since the last [`MasterMem::drain_dirty`]. The
    /// commit unit turns these into per-page COA epoch stamps so worker
    /// page caches can be revalidated without shipping page payloads.
    dirty: FxHashSet<PageId>,
    /// When set, every `read`/`write` appends an [`AccessRecord`] to
    /// `recorded`. Off by default and off on every hot path: the flag is a
    /// single relaxed atomic load per access. The dependence analyzer's
    /// sequential recorder flips it on while replaying a workload's
    /// recovery body against this image.
    recording: AtomicBool,
    /// Program-order access log accumulated while `recording` is set. A
    /// `std::sync::Mutex` (not a spinlock shim) so `MasterMem` stays
    /// `Sync` and `Debug` without extra bounds; the recorder is the only
    /// contender, so the lock is always uncontended.
    recorded: Mutex<Vec<AccessRecord>>,
}

/// Splits the `len` words from `base` into per-page runs: `(page, first
/// word in page, offset into the run's data, run length)`.
///
/// # Panics
///
/// Panics, as [`VAddr::add_words`] does, if the words leave `base`'s
/// owner region.
fn page_runs(base: VAddr, len: usize) -> impl Iterator<Item = (PageId, usize, usize, usize)> {
    if let Some(last) = len.checked_sub(1) {
        base.add_words(last as u64);
    }
    let first_page = base.page();
    let first_word = base.word_in_page();
    let page_words = PAGE_WORDS as usize;
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let word = (first_word + done) % page_words;
        let page = PageId(first_page.0 + ((first_word + done) / page_words) as u64);
        let n = (len - done).min(page_words - word);
        let run = (page, word, done, n);
        done += n;
        Some(run)
    })
}

impl Default for MasterMem {
    fn default() -> Self {
        MasterMem {
            shards: vec![FxHashMap::default(); INTERNAL_SHARDS],
            commits_applied: 0,
            dirty: FxHashSet::default(),
            recording: AtomicBool::new(false),
            recorded: Mutex::new(Vec::new()),
        }
    }
}

impl MasterMem {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn map_of(&self, id: PageId) -> &FxHashMap<PageId, Page> {
        &self.shards[shard_of(id, INTERNAL_SHARDS)]
    }

    /// Reads the committed word at `addr` (zero if never written).
    #[inline]
    pub fn read(&self, addr: VAddr) -> u64 {
        let value = self
            .map_of(addr.page())
            .get(&addr.page())
            .map_or(0, |p| p.word(addr.word_in_page()));
        if self.recording.load(Ordering::Relaxed) {
            self.log(AccessKind::Load, addr, value);
        }
        value
    }

    /// Writes the committed word at `addr`, creating the page on demand.
    #[inline]
    pub fn write(&mut self, addr: VAddr, value: u64) {
        if self.recording.load(Ordering::Relaxed) {
            self.log(AccessKind::Store, addr, value);
        }
        self.page_mut(addr.page())
            .set_word(addr.word_in_page(), value);
    }

    /// The page `id` for writing, created on demand and marked dirty.
    #[inline]
    fn page_mut(&mut self, id: PageId) -> &mut Page {
        self.dirty.insert(id);
        self.shards[shard_of(id, INTERNAL_SHARDS)]
            .entry(id)
            .or_default()
    }

    /// Writes `data` to consecutive words from `base`: the same effect as
    /// one [`MasterMem::write`] per word, with one page lookup per page.
    /// While recording, it takes the per-word path so every store is
    /// logged.
    ///
    /// # Panics
    ///
    /// Panics, like per-word writes would, if the run leaves `base`'s
    /// owner region.
    pub fn write_words(&mut self, base: VAddr, data: &[u64]) {
        if self.is_recording() {
            for (i, &w) in data.iter().enumerate() {
                self.write(base.add_words(i as u64), w);
            }
            return;
        }
        for (page, word, at, n) in page_runs(base, data.len()) {
            self.page_mut(page).words_mut()[word..word + n].copy_from_slice(&data[at..at + n]);
        }
    }

    /// Fills `out` with consecutive words from `base`: the same values as
    /// one [`MasterMem::read`] per word, with one page lookup per page.
    /// While recording, it takes the per-word path so every load is
    /// logged.
    ///
    /// # Panics
    ///
    /// Panics, like per-word reads would, if the run leaves `base`'s
    /// owner region.
    pub fn read_words(&self, base: VAddr, out: &mut [u64]) {
        if self.is_recording() {
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.read(base.add_words(i as u64));
            }
            return;
        }
        for (page, word, at, n) in page_runs(base, out.len()) {
            let dst = &mut out[at..at + n];
            match self.map_of(page).get(&page) {
                Some(p) => dst.copy_from_slice(&p.words()[word..word + n]),
                None => dst.fill(0),
            }
        }
    }

    #[cold]
    fn log(&self, kind: AccessKind, addr: VAddr, value: u64) {
        self.recorded
            .lock()
            .expect("access log poisoned")
            .push(AccessRecord { kind, addr, value });
    }

    /// Turns the program-order access log on or off. While on, every
    /// [`MasterMem::read`] and [`MasterMem::write`] appends to the log the
    /// dependence analyzer later drains with
    /// [`MasterMem::drain_recorded`].
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether the access log is currently capturing.
    pub fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Drains and returns the access log accumulated since the last drain
    /// (program order). The analyzer's recorder calls this once per
    /// iteration to slice the stream at iteration boundaries.
    pub fn drain_recorded(&self) -> Vec<AccessRecord> {
        std::mem::take(&mut *self.recorded.lock().expect("access log poisoned"))
    }

    /// Returns a copy of the committed page for COA transfer.
    ///
    /// Unwritten pages read as zero pages, like fresh anonymous memory.
    pub fn page(&self, id: PageId) -> Page {
        self.map_of(id).get(&id).cloned().unwrap_or_default()
    }

    /// Applies one MTX's write-set in program order (group transaction
    /// commit): when a location is stored by several subTXs, the last
    /// update takes effect. A run of writes to one page pays one page
    /// lookup.
    pub fn commit_writes<I>(&mut self, writes: I)
    where
        I: IntoIterator<Item = (VAddr, u64)>,
    {
        if self.is_recording() {
            for (addr, value) in writes {
                self.write(addr, value);
            }
        } else {
            let mut writes = writes.into_iter().peekable();
            while let Some((addr, value)) = writes.next() {
                let id = addr.page();
                let page = self.page_mut(id);
                page.set_word(addr.word_in_page(), value);
                while let Some((addr, value)) = writes.next_if(|(a, _)| a.page() == id) {
                    page.set_word(addr.word_in_page(), value);
                }
            }
        }
        self.commits_applied += 1;
    }

    /// Number of `commit_writes` calls so far (committed MTX count).
    pub fn commits_applied(&self) -> u64 {
        self.commits_applied
    }

    /// Drains the set of pages written since the previous drain, keeping
    /// the set's capacity for the next batch. The commit unit calls this
    /// after every mutation batch (group commit, recovery re-execution)
    /// to stamp the pages with the current commit epoch for COA cache
    /// revalidation. Dropping the iterator early still empties the set.
    pub fn drain_dirty(&mut self) -> impl Iterator<Item = PageId> + '_ {
        self.dirty.drain()
    }

    /// Number of materialized (non-zero-backed) pages.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// All materialized pages as `(id, words)` pairs, sorted by page id —
    /// a canonical snapshot for differential comparison across runs.
    pub fn snapshot(&self) -> Vec<(PageId, Page)> {
        let mut pages: Vec<(PageId, Page)> = self
            .shards
            .iter()
            .flat_map(|m| m.iter().map(|(id, p)| (*id, p.clone())))
            .collect();
        pages.sort_by_key(|(id, _)| *id);
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_uva::OwnerId;

    fn a(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MasterMem::new();
        assert_eq!(m.read(a(8)), 0);
        assert_eq!(m.page(a(8).page()), Page::zeroed());
    }

    #[test]
    fn write_then_read() {
        let mut m = MasterMem::new();
        m.write(a(8), 5);
        assert_eq!(m.read(a(8)), 5);
        assert_eq!(m.read(a(16)), 0);
    }

    #[test]
    fn group_commit_last_writer_wins() {
        let mut m = MasterMem::new();
        // Two subTXs of one MTX write the same address; subTX order is
        // program order, so the later value must stick.
        m.commit_writes(vec![(a(8), 1), (a(16), 7), (a(8), 2)]);
        assert_eq!(m.read(a(8)), 2);
        assert_eq!(m.read(a(16)), 7);
        assert_eq!(m.commits_applied(), 1);
    }

    #[test]
    fn page_snapshot_is_a_copy() {
        let mut m = MasterMem::new();
        m.write(a(8), 1);
        let snap = m.page(a(8).page());
        m.write(a(8), 2);
        assert_eq!(snap.word(a(8).word_in_page()), 1, "snapshot must not alias");
        assert_eq!(m.read(a(8)), 2);
    }

    #[test]
    fn pages_materialize_on_write_only() {
        let mut m = MasterMem::new();
        let _ = m.read(a(4096 * 10));
        assert_eq!(m.resident_pages(), 0);
        m.write(a(0), 1);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn small_write_sets_stay_sequential_and_correct() {
        // Writes hop between two pages and back, so a page is reopened
        // after another one: last-writer-wins must hold across the hops.
        let mut m = MasterMem::new();
        m.commit_writes(vec![(a(8), 1), (a(4096), 5), (a(8), 2), (a(16), 3)]);
        assert_eq!(m.read(a(8)), 2);
        assert_eq!(m.read(a(16)), 3);
        assert_eq!(m.read(a(4096)), 5);
        assert_eq!(m.commits_applied(), 1);
        let mut dirty: Vec<PageId> = m.drain_dirty().collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![a(0).page(), a(4096).page()]);
        assert_eq!(m.drain_dirty().count(), 0, "drain must empty the set");
    }

    #[test]
    fn recording_captures_program_order_and_drains() {
        let mut m = MasterMem::new();
        m.write(a(8), 7); // not recorded: recording is off
        m.set_recording(true);
        assert!(m.is_recording());
        assert_eq!(m.read(a(8)), 7);
        m.write(a(16), 9);
        assert_eq!(m.read(a(16)), 9);
        m.set_recording(false);
        m.write(a(24), 1); // not recorded again
        let log = m.drain_recorded();
        assert_eq!(log.len(), 3);
        assert_eq!(
            (log[0].kind, log[0].addr, log[0].value),
            (AccessKind::Load, a(8), 7)
        );
        assert_eq!(
            (log[1].kind, log[1].addr, log[1].value),
            (AccessKind::Store, a(16), 9)
        );
        assert_eq!(
            (log[2].kind, log[2].addr, log[2].value),
            (AccessKind::Load, a(16), 9)
        );
        assert!(m.drain_recorded().is_empty(), "drain must reset the log");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut m = MasterMem::new();
        for p in [9u64, 3, 7, 1] {
            m.write(a(p * 4096), p);
        }
        let snap = m.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|(id, _)| id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use proptest::prelude::*;

    fn sorted(mut pages: Vec<PageId>) -> Vec<PageId> {
        pages.sort_unstable();
        pages
    }

    proptest! {
        /// `write_words`/`read_words` are per-word `write`/`read` run in
        /// order: the same memory, the same values read (zeros off the
        /// written pages), the same dirty pages, and — while recording —
        /// the same access log. Starts are unaligned and runs cross page
        /// boundaries.
        #[test]
        fn bulk_matches_per_word(
            ops in proptest::collection::vec((any::<bool>(), 0u64..2048, 0usize..1300, any::<u64>()), 1..24),
            recording in any::<bool>(),
        ) {
            let mut bulk = MasterMem::new();
            let mut word = MasterMem::new();
            bulk.set_recording(recording);
            word.set_recording(recording);
            for (is_write, start, len, seed) in ops {
                let base = VAddr::new(OwnerId(3), start * 8);
                if is_write {
                    let data: Vec<u64> = (0..len as u64).map(|i| seed ^ i.wrapping_mul(0x9E37)).collect();
                    bulk.write_words(base, &data);
                    for (i, &w) in data.iter().enumerate() {
                        word.write(base.add_words(i as u64), w);
                    }
                    prop_assert_eq!(
                        sorted(bulk.drain_dirty().collect()),
                        sorted(word.drain_dirty().collect())
                    );
                } else {
                    let mut got = vec![u64::MAX; len];
                    bulk.read_words(base, &mut got);
                    let want: Vec<u64> = (0..len as u64).map(|i| word.read(base.add_words(i))).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(bulk.snapshot(), word.snapshot());
            prop_assert_eq!(bulk.drain_recorded(), word.drain_recorded());
        }
    }

    #[test]
    fn bulk_read_of_unwritten_pages_is_zero_and_materializes_nothing() {
        let mut m = MasterMem::new();
        let base = VAddr::new(OwnerId(1), 4096 - 16);
        m.write(base, 9);
        let mut out = vec![u64::MAX; 1030];
        m.read_words(base, &mut out);
        assert_eq!(out[0], 9);
        assert!(out[1..].iter().all(|&w| w == 0));
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    #[should_panic]
    fn bulk_write_past_the_region_panics_like_per_word() {
        let last = VAddr::new(OwnerId(1), dsmtx_uva::addr::OFFSET_MASK & !7);
        MasterMem::new().write_words(last, &[1, 2]);
    }
}
