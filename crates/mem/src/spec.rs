//! A worker's speculative memory: page table + ordered access log.
//!
//! All speculative loads and stores of an MTX happen in the private memory
//! of the worker executing the subTX (§3.1). [`SpecMem`] wraps the page
//! table and records every access *in program order*: stores are needed for
//! uncommitted value forwarding and group commit; loads are needed for
//! value-based validation; and the interleaving matters because the
//! try-commit unit replays the stream — a load must be checked against the
//! memory image as of that point in the program, not after later stores.
//!
//! Faults are surfaced to the caller through a `fetch` closure so the
//! runtime can perform the Copy-On-Access round trip to the commit unit.
//!
//! Uncommitted values forwarded from earlier subTXs may land on pages that
//! are not yet locally resident; they are kept in a pending overlay and
//! re-applied when the page is eventually fetched, so committed page
//! content and newer forwarded words never clobber one another.

use dsmtx_uva::{PageId, VAddr};
use fxhash::FxHashMap;

use crate::page::Page;
use crate::table::PageTable;

/// Whether an access was a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Speculative load; `value` is the observed (predicted) value.
    Load,
    /// Speculative store; `value` is the stored value.
    Store,
}

/// One logged access in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Load or store.
    pub kind: AccessKind,
    /// The touched address.
    pub addr: VAddr,
    /// Stored or observed value.
    pub value: u64,
}

/// Private speculative memory of one worker.
#[derive(Debug, Default)]
pub struct SpecMem {
    table: PageTable,
    /// Forwarded words for pages not yet resident: page → (word, value) in
    /// arrival order. Fx-hashed: interior keys, replayed on the
    /// validation hot path.
    pending: FxHashMap<PageId, Vec<(usize, u64)>>,
    /// Program-ordered access log of the current subTX.
    log: Vec<AccessRecord>,
}

impl SpecMem {
    /// An empty, fully protected memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Speculatively loads the word at `addr`, logging the observation.
    ///
    /// `fetch` services a Copy-On-Access fault by producing the committed
    /// page (typically via a round trip to the commit unit).
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch`.
    pub fn read<E>(
        &mut self,
        addr: VAddr,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<u64, E> {
        let slot = self.resident(addr.page(), fetch)?;
        let value = self.table.word(slot, addr.word_in_page());
        self.log.push(AccessRecord {
            kind: AccessKind::Load,
            addr,
            value,
        });
        Ok(value)
    }

    /// Loads without logging — for reads the parallelization plan knows are
    /// speculation-free (e.g. provably loop-invariant data). Using this is
    /// an optimization the paper's manual parallelizations apply; misuse
    /// converts a detectable misspeculation into silent wrong output, so
    /// prefer [`SpecMem::read`].
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch`.
    pub fn read_unlogged<E>(
        &mut self,
        addr: VAddr,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<u64, E> {
        let slot = self.resident(addr.page(), fetch)?;
        Ok(self.table.word(slot, addr.word_in_page()))
    }

    /// Speculatively stores `value` at `addr`, logging the store.
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch` (a store to a protected page also
    /// faults, because the rest of the page must hold committed data).
    pub fn write<E>(
        &mut self,
        addr: VAddr,
        value: u64,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<(), E> {
        let slot = self.resident(addr.page(), fetch)?;
        self.table.set_word(slot, addr.word_in_page(), value);
        self.log.push(AccessRecord {
            kind: AccessKind::Store,
            addr,
            value,
        });
        Ok(())
    }

    /// Stores without logging — for per-worker private scratch (memory
    /// versioning): the value stays in this worker's version only, is
    /// never validated, forwarded, or committed, and disappears on
    /// rollback.
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch`.
    pub fn write_unlogged<E>(
        &mut self,
        addr: VAddr,
        value: u64,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<(), E> {
        let slot = self.resident(addr.page(), fetch)?;
        self.table.set_word(slot, addr.word_in_page(), value);
        Ok(())
    }

    /// Applies an uncommitted value forwarded from an earlier subTX.
    ///
    /// Not logged: the forwarding subTX already logged the store. If the
    /// page is not resident the word is kept pending and applied after the
    /// eventual COA install.
    pub fn apply_forwarded(&mut self, addr: VAddr, value: u64) {
        let page_id = addr.page();
        match self.table.slot(page_id) {
            Some(slot) => self.table.set_word(slot, addr.word_in_page(), value),
            None => self
                .pending
                .entry(page_id)
                .or_default()
                .push((addr.word_in_page(), value)),
        }
    }

    /// The slot of `page_id`, faulting it in first when it is not
    /// resident: the one page lookup every access pays.
    #[inline]
    fn resident<E>(
        &mut self,
        page_id: PageId,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<usize, E> {
        match self.table.slot(page_id) {
            Some(slot) => Ok(slot),
            None => self.fault_in(page_id, fetch),
        }
    }

    fn fault_in<E>(
        &mut self,
        page_id: PageId,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<usize, E> {
        let mut page = fetch(page_id)?;
        // Newer forwarded words override the committed image.
        if let Some(pending) = self.pending.remove(&page_id) {
            for (word, value) in pending {
                page.set_word(word, value);
            }
        }
        Ok(self.table.install_slot(page_id, page))
    }

    /// Drains the program-ordered access log (end of subTX).
    pub fn drain_log(&mut self) -> Vec<AccessRecord> {
        std::mem::take(&mut self.log)
    }

    /// Gives a drained log's buffer back, so the next subTX logs into it
    /// without re-growing from nothing. Anything logged since the drain
    /// is kept, in order.
    pub fn recycle_log(&mut self, mut log: Vec<AccessRecord>) {
        log.clear();
        log.append(&mut self.log);
        self.log = log;
    }

    /// Views the access log without draining.
    pub fn log(&self) -> &[AccessRecord] {
        &self.log
    }

    /// Extracts only the stores of `records`, preserving program order.
    pub fn stores_of(records: &[AccessRecord]) -> impl Iterator<Item = (VAddr, u64)> + '_ {
        records
            .iter()
            .filter(|r| r.kind == AccessKind::Store)
            .map(|r| (r.addr, r.value))
    }

    /// Rolls back all speculative state: re-protects every page, discards
    /// pending forwards and the access log. Returns the number of pages
    /// dropped (§4.3 step 4 re-installs access protection on the heap).
    pub fn rollback(&mut self) -> usize {
        self.pending.clear();
        self.log.clear();
        self.table.protect_all()
    }

    /// Number of COA installs performed so far.
    pub fn faults_served(&self) -> u64 {
        self.table.faults_served()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.table.resident_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use std::convert::Infallible;

    fn a(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    fn zero_fetch(_: PageId) -> Result<Page, Infallible> {
        Ok(Page::zeroed())
    }

    fn committed_fetch(value: u64) -> impl Fn(PageId) -> Result<Page, Infallible> {
        move |_| {
            let mut p = Page::zeroed();
            for w in 0..8 {
                p.set_word(w, value);
            }
            Ok(p)
        }
    }

    #[test]
    fn read_fetches_and_logs() {
        let mut m = SpecMem::new();
        let v = m.read(a(8), committed_fetch(9)).unwrap();
        assert_eq!(v, 9);
        assert_eq!(
            m.log(),
            &[AccessRecord {
                kind: AccessKind::Load,
                addr: a(8),
                value: 9
            }]
        );
        assert_eq!(m.faults_served(), 1);
        // Second read of the same page: no new fault.
        let _ = m.read(a(16), committed_fetch(9)).unwrap();
        assert_eq!(m.faults_served(), 1);
    }

    #[test]
    fn write_then_read_sees_own_store_in_order() {
        let mut m = SpecMem::new();
        let before = m.read(a(8), zero_fetch).unwrap();
        m.write(a(8), 5, zero_fetch).unwrap();
        let after = m.read(a(8), zero_fetch).unwrap();
        assert_eq!(before, 0);
        assert_eq!(after, 5);
        let log = m.drain_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].kind, AccessKind::Load);
        assert_eq!(log[0].value, 0);
        assert_eq!(log[1].kind, AccessKind::Store);
        assert_eq!(log[2].kind, AccessKind::Load);
        assert_eq!(log[2].value, 5);
        assert!(m.log().is_empty());
    }

    #[test]
    fn recycled_log_keeps_its_capacity_and_later_records() {
        let mut m = SpecMem::new();
        for i in 0..100 {
            m.write(a(8 * i), i, zero_fetch).unwrap();
        }
        let log = m.drain_log();
        let cap = log.capacity();
        m.read(a(8), zero_fetch).unwrap();
        m.recycle_log(log);
        assert_eq!(m.log().len(), 1, "the record logged after the drain");
        assert_eq!(m.log()[0].kind, AccessKind::Load);
        assert_eq!(m.drain_log().capacity(), cap);
    }

    #[test]
    fn forwarded_value_visible_before_fetch() {
        let mut m = SpecMem::new();
        // Earlier subTX forwards a store to a page we have never touched.
        m.apply_forwarded(a(8), 42);
        // The later fetch returns committed content; the forwarded word
        // must override it, other words must keep committed values.
        let v = m.read(a(8), committed_fetch(7)).unwrap();
        assert_eq!(v, 42);
        let other = m.read(a(16), committed_fetch(7)).unwrap();
        assert_eq!(other, 7);
    }

    #[test]
    fn forwarded_value_applies_directly_when_resident() {
        let mut m = SpecMem::new();
        let _ = m.read(a(8), zero_fetch).unwrap();
        m.apply_forwarded(a(8), 13);
        assert_eq!(m.read(a(8), zero_fetch).unwrap(), 13);
    }

    #[test]
    fn forwarded_values_are_not_logged() {
        let mut m = SpecMem::new();
        m.apply_forwarded(a(8), 1);
        assert!(m.log().is_empty());
    }

    #[test]
    fn later_forward_wins_over_earlier_pending() {
        let mut m = SpecMem::new();
        m.apply_forwarded(a(8), 1);
        m.apply_forwarded(a(8), 2);
        assert_eq!(m.read(a(8), zero_fetch).unwrap(), 2);
    }

    #[test]
    fn rollback_discards_everything() {
        let mut m = SpecMem::new();
        m.write(a(8), 5, zero_fetch).unwrap();
        m.apply_forwarded(a(4096 * 3), 9);
        assert_eq!(m.rollback(), 1);
        assert!(m.log().is_empty());
        assert_eq!(m.resident_pages(), 0);
        // After rollback the next access refetches committed state and the
        // pending forward is gone.
        assert_eq!(m.read(a(4096 * 3), committed_fetch(7)).unwrap(), 7);
    }

    #[test]
    fn stores_of_filters_and_orders() {
        let mut m = SpecMem::new();
        let _ = m.read(a(8), zero_fetch).unwrap();
        m.write(a(8), 1, zero_fetch).unwrap();
        m.write(a(16), 2, zero_fetch).unwrap();
        let log = m.drain_log();
        let stores: Vec<_> = SpecMem::stores_of(&log).collect();
        assert_eq!(stores, vec![(a(8), 1), (a(16), 2)]);
    }

    #[test]
    fn write_unlogged_is_private() {
        let mut m = SpecMem::new();
        m.write_unlogged(a(8), 9, zero_fetch).unwrap();
        assert!(m.log().is_empty());
        assert_eq!(m.read_unlogged(a(8), zero_fetch).unwrap(), 9);
        m.rollback();
        assert_eq!(m.read_unlogged(a(8), zero_fetch).unwrap(), 0);
    }

    #[test]
    fn read_unlogged_leaves_no_trace() {
        let mut m = SpecMem::new();
        let _ = m.read_unlogged(a(8), committed_fetch(3)).unwrap();
        assert!(m.log().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use proptest::prelude::*;
    use std::convert::Infallible;

    fn a(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off * 8)
    }

    proptest! {
        /// SpecMem behaves like a plain map from the program's perspective:
        /// any sequence of reads/writes observes exactly the last local
        /// write (or the committed value from the fetch closure).
        #[test]
        fn reads_match_reference_model(
            ops in proptest::collection::vec((0u64..2048, any::<u64>(), any::<bool>()), 1..200),
            committed in any::<u64>(),
        ) {
            let mut m = SpecMem::new();
            let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            let fetch = |_: PageId| -> Result<Page, Infallible> {
                let mut p = Page::zeroed();
                for w in 0..512 {
                    p.set_word(w, committed);
                }
                Ok(p)
            };
            for (word, value, is_write) in ops {
                if is_write {
                    m.write(a(word), value, fetch).unwrap();
                    model.insert(word, value);
                } else {
                    let got = m.read(a(word), fetch).unwrap();
                    let want = model.get(&word).copied().unwrap_or(committed);
                    prop_assert_eq!(got, want);
                }
            }
        }

        /// SpecMem against a plain map model of resident pages and
        /// pending forwards, over reads, writes, unlogged accesses,
        /// forwards and rollbacks on page ids that collide in the page
        /// table's lookup cache. Every rollback also moves the committed
        /// image on, so a page served from a stale slot after a rollback
        /// or a refetch would read the old image and fail the check.
        #[test]
        fn spec_mem_matches_map_model(
            ops in proptest::collection::vec((0u8..7, 0u64..8, 0usize..512, any::<u64>()), 1..300),
        ) {
            use std::collections::HashMap;
            let mut m = SpecMem::new();
            let mut resident: HashMap<PageId, Vec<u64>> = HashMap::new();
            let mut pending: HashMap<PageId, Vec<(usize, u64)>> = HashMap::new();
            let mut log = Vec::new();
            let mut generation = 1u64;
            let mut faults = 0u64;
            for (op, p, word, value) in ops {
                // Pages 0, 8, 16, 24 collide in the 8-entry lookup
                // cache, as do 1, 9, 17, 25.
                let id = PageId(p % 2 + (p / 2) * 8);
                let addr = id.word(word);
                let committed = |page: PageId| -> Vec<u64> {
                    (0..512).map(|w| generation << 32 | page.0 << 16 | w).collect()
                };
                let fetch = |page: PageId| -> Result<Page, Infallible> {
                    let mut out = Page::zeroed();
                    out.words_mut().copy_from_slice(&committed(page));
                    Ok(out)
                };
                if op <= 3 && !resident.contains_key(&id) {
                    let mut words = committed(id);
                    for (w, v) in pending.remove(&id).unwrap_or_default() {
                        words[w] = v;
                    }
                    resident.insert(id, words);
                    faults += 1;
                }
                match op {
                    0 => {
                        let want = resident[&id][word];
                        prop_assert_eq!(m.read(addr, fetch).unwrap(), want);
                        log.push(AccessRecord { kind: AccessKind::Load, addr, value: want });
                    }
                    1 => {
                        prop_assert_eq!(m.read_unlogged(addr, fetch).unwrap(), resident[&id][word]);
                    }
                    2 => {
                        m.write(addr, value, fetch).unwrap();
                        resident.get_mut(&id).unwrap()[word] = value;
                        log.push(AccessRecord { kind: AccessKind::Store, addr, value });
                    }
                    3 => {
                        m.write_unlogged(addr, value, fetch).unwrap();
                        resident.get_mut(&id).unwrap()[word] = value;
                    }
                    4 | 5 => {
                        m.apply_forwarded(addr, value);
                        match resident.get_mut(&id) {
                            Some(words) => words[word] = value,
                            None => pending.entry(id).or_default().push((word, value)),
                        }
                    }
                    _ => {
                        prop_assert_eq!(m.rollback(), resident.len());
                        resident.clear();
                        pending.clear();
                        log.clear();
                        generation += 1;
                    }
                }
                prop_assert_eq!(m.resident_pages(), resident.len());
                prop_assert_eq!(m.faults_served(), faults);
                prop_assert_eq!(m.log(), &log[..]);
            }
        }

        /// The access log replayed against the committed image reproduces
        /// the final private state for every written address.
        #[test]
        fn log_replay_reconstructs_state(
            ops in proptest::collection::vec((0u64..512, any::<u64>()), 1..100),
        ) {
            let mut m = SpecMem::new();
            let fetch = |_: PageId| -> Result<Page, Infallible> { Ok(Page::zeroed()) };
            for (word, value) in &ops {
                m.write(a(*word), *value, fetch).unwrap();
            }
            let log = m.drain_log();
            let mut replay: std::collections::HashMap<VAddr, u64> = Default::default();
            for (addr, value) in SpecMem::stores_of(&log) {
                replay.insert(addr, value);
            }
            for (word, _) in &ops {
                let live = m.read_unlogged(a(*word), fetch).unwrap();
                prop_assert_eq!(replay[&a(*word)], live);
            }
        }
    }
}
