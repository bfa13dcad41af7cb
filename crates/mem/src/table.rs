//! Worker page tables with access protection.
//!
//! At the start of parallel execution each worker's heap is fully
//! access-protected (§4.2): every page is [`PageState::Unmapped`]. The
//! first touch of a word on an unmapped page raises a [`PageFault`]; the
//! runtime services it by asking the commit unit for the committed page
//! (Copy-On-Access) and installing it. Rollback calls
//! [`PageTable::protect_all`], dropping all resident pages so that COA
//! refetches committed state.

use std::cell::Cell;

use dsmtx_uva::{PageId, VAddr};
use fxhash::FxHashMap;

use crate::page::Page;

/// Entries in the direct-mapped lookup cache in front of the page index.
/// A handful is enough for the interleaved input, output and scratch
/// streams a subTX walks; more would only lengthen `protect_all`.
const RECENT: usize = 8;

/// A lookup-cache entry that matches no page: page ids are at most
/// `u64::MAX / PAGE_BYTES`.
const NO_PAGE: u64 = u64::MAX;

/// Raised when an access touches a page that is not locally resident.
///
/// Carries the page that must be fetched from its home before the access
/// can retry — the software analogue of an `mprotect` fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault(pub PageId);

impl std::fmt::Display for PageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page fault on {}", self.0)
    }
}

impl std::error::Error for PageFault {}

/// Residency state of one page in a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageState {
    /// Access-protected: the next touch faults and triggers COA.
    Unmapped,
    /// Locally resident; `dirty` records whether a speculative store hit it.
    Resident {
        /// The local copy of the page.
        page: Page,
        /// True once any word was speculatively written.
        dirty: bool,
    },
}

/// A worker's page table.
///
/// Resident pages live in a slot vector; an Fx-hashed index maps each
/// page to its slot, and a small direct-mapped cache of recent
/// `page → slot` lookups sits in front of the index, so a run of accesses
/// to the same few pages pays one hash lookup per page rather than per
/// word. Pages without a slot are implicitly [`PageState::Unmapped`];
/// `protect_all` therefore just clears the slots, the index and the cache.
#[derive(Debug)]
pub struct PageTable {
    /// Page → index into `slots`.
    index: FxHashMap<PageId, u32>,
    /// Resident pages and their dirty bits.
    slots: Vec<(Page, bool)>,
    /// Direct-mapped by the low bits of the page id: `(page, slot)`, or
    /// `NO_PAGE` when empty. A `Cell` so that `read(&self)` can refill it.
    recent: [Cell<(u64, u32)>; RECENT],
    /// Pages fetched via COA since the last reset (for statistics).
    faults_served: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            index: FxHashMap::default(),
            slots: Vec::new(),
            recent: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
            faults_served: 0,
        }
    }
}

impl PageTable {
    /// An empty, fully protected table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `id`, if resident: the cache first, then the index.
    #[inline]
    pub(crate) fn slot(&self, id: PageId) -> Option<usize> {
        let entry = &self.recent[id.0 as usize % RECENT];
        let (page, slot) = entry.get();
        if page == id.0 {
            return Some(slot as usize);
        }
        let slot = *self.index.get(&id)?;
        entry.set((id.0, slot));
        Some(slot as usize)
    }

    /// The word at `index` of the page in `slot`.
    #[inline]
    pub(crate) fn word(&self, slot: usize, index: usize) -> u64 {
        self.slots[slot].0.word(index)
    }

    /// Stores into the page in `slot`, marking it dirty.
    #[inline]
    pub(crate) fn set_word(&mut self, slot: usize, index: usize, value: u64) {
        let (page, dirty) = &mut self.slots[slot];
        page.set_word(index, value);
        *dirty = true;
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PageFault`] when the containing page is unmapped.
    #[inline]
    pub fn read(&self, addr: VAddr) -> Result<u64, PageFault> {
        let page_id = addr.page();
        match self.slot(page_id) {
            Some(slot) => Ok(self.word(slot, addr.word_in_page())),
            None => Err(PageFault(page_id)),
        }
    }

    /// Writes the word at `addr`, marking the page dirty.
    ///
    /// # Errors
    ///
    /// Returns [`PageFault`] when the containing page is unmapped: DSMTX
    /// fetches the committed page even on a write so that the page's other
    /// words stay coherent.
    #[inline]
    pub fn write(&mut self, addr: VAddr, value: u64) -> Result<(), PageFault> {
        let page_id = addr.page();
        match self.slot(page_id) {
            Some(slot) => {
                self.set_word(slot, addr.word_in_page(), value);
                Ok(())
            }
            None => Err(PageFault(page_id)),
        }
    }

    /// Installs a page fetched via Copy-On-Access. The page starts clean.
    pub fn install(&mut self, id: PageId, page: Page) {
        self.install_slot(id, page);
    }

    /// [`PageTable::install`], returning the page's slot. A re-install
    /// replaces the resident copy in place.
    pub(crate) fn install_slot(&mut self, id: PageId, page: Page) -> usize {
        self.faults_served += 1;
        self.map(id, page)
    }

    /// Makes `page` the resident copy of `id` and caches the lookup.
    fn map(&mut self, id: PageId, page: Page) -> usize {
        let slot = match self.index.get(&id) {
            Some(&slot) => {
                self.slots[slot as usize] = (page, false);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("page table slot overflow");
                self.slots.push((page, false));
                self.index.insert(id, slot);
                slot
            }
        };
        self.recent[id.0 as usize % RECENT].set((id.0, slot));
        slot as usize
    }

    /// Writes a word into a page that the runtime knows is being created
    /// locally (e.g. the target of forwarded uncommitted values), mapping a
    /// zero page if absent instead of faulting.
    pub fn write_or_map_zero(&mut self, addr: VAddr, value: u64) {
        let page_id = addr.page();
        let slot = match self.slot(page_id) {
            Some(slot) => slot,
            None => self.map(page_id, Page::zeroed()),
        };
        self.set_word(slot, addr.word_in_page(), value);
    }

    /// Re-protects the entire heap: every page becomes unmapped, exactly
    /// what recovery step 4 of §4.3 does. Returns the number of pages
    /// dropped.
    pub fn protect_all(&mut self) -> usize {
        let n = self.slots.len();
        self.slots.clear();
        self.index.clear();
        for entry in &self.recent {
            entry.set((NO_PAGE, 0));
        }
        n
    }

    /// State of the page containing nothing beyond residency and dirtiness.
    pub fn state(&self, id: PageId) -> PageState {
        match self.slot(id) {
            Some(slot) => {
                let (page, dirty) = &self.slots[slot];
                PageState::Resident {
                    page: page.clone(),
                    dirty: *dirty,
                }
            }
            None => PageState::Unmapped,
        }
    }

    /// True when the page is resident.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.slot(id).is_some()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.slots.len()
    }

    /// Number of COA installs since construction.
    pub fn faults_served(&self) -> u64 {
        self.faults_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_uva::OwnerId;

    fn addr(owner: u16, off: u64) -> VAddr {
        VAddr::new(OwnerId(owner), off)
    }

    #[test]
    fn fresh_table_faults_on_read_and_write() {
        let mut t = PageTable::new();
        let a = addr(1, 64);
        assert_eq!(t.read(a), Err(PageFault(a.page())));
        assert_eq!(t.write(a, 9), Err(PageFault(a.page())));
    }

    #[test]
    fn install_then_access() {
        let mut t = PageTable::new();
        let a = addr(1, 64);
        let mut p = Page::zeroed();
        p.set_word(a.word_in_page(), 123);
        t.install(a.page(), p);
        assert_eq!(t.read(a).unwrap(), 123);
        t.write(a, 124).unwrap();
        assert_eq!(t.read(a).unwrap(), 124);
        assert!(matches!(
            t.state(a.page()),
            PageState::Resident { dirty: true, .. }
        ));
    }

    #[test]
    fn install_starts_clean() {
        let mut t = PageTable::new();
        let a = addr(0, 0);
        t.install(a.page(), Page::zeroed());
        assert!(matches!(
            t.state(a.page()),
            PageState::Resident { dirty: false, .. }
        ));
    }

    #[test]
    fn protect_all_reprotects_everything() {
        let mut t = PageTable::new();
        let a = addr(2, 0);
        let b = addr(2, 8192);
        t.install(a.page(), Page::zeroed());
        t.install(b.page(), Page::zeroed());
        assert_eq!(t.resident_pages(), 2);
        assert_eq!(t.protect_all(), 2);
        assert_eq!(t.resident_pages(), 0);
        assert_eq!(t.read(a), Err(PageFault(a.page())));
    }

    #[test]
    fn write_or_map_zero_avoids_fault() {
        let mut t = PageTable::new();
        let a = addr(3, 16);
        t.write_or_map_zero(a, 77);
        assert_eq!(t.read(a).unwrap(), 77);
        // Other words of the mapped page read as zero.
        assert_eq!(t.read(a.add_words(1)).unwrap(), 0);
    }

    #[test]
    fn faults_served_counts_installs() {
        let mut t = PageTable::new();
        assert_eq!(t.faults_served(), 0);
        t.install(addr(0, 0).page(), Page::zeroed());
        t.install(addr(0, 4096).page(), Page::zeroed());
        assert_eq!(t.faults_served(), 2);
    }

    #[test]
    fn distinct_owners_map_distinct_pages() {
        let mut t = PageTable::new();
        let a = addr(1, 0);
        let b = addr(2, 0);
        t.write_or_map_zero(a, 1);
        assert!(t.is_resident(a.page()));
        assert!(!t.is_resident(b.page()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use proptest::prelude::*;

    proptest! {
        /// The page table is exactly a lazy copy of a backing image: after
        /// installing on fault, reads always match the backing store
        /// overlaid with local writes.
        #[test]
        fn table_matches_overlay_model(
            ops in proptest::collection::vec((0u64..1024, any::<u64>(), any::<bool>()), 1..150),
            backing in any::<u64>(),
        ) {
            let mut t = PageTable::new();
            let mut model: std::collections::HashMap<u64, u64> = Default::default();
            for (word, value, is_write) in ops {
                let addr = VAddr::new(OwnerId(1), word * 8);
                if is_write {
                    if !t.is_resident(addr.page()) {
                        let mut p = Page::zeroed();
                        for w in 0..512 {
                            p.set_word(w, backing);
                        }
                        t.install(addr.page(), p);
                    }
                    t.write(addr, value).unwrap();
                    model.insert(word, value);
                } else {
                    let got = match t.read(addr) {
                        Ok(v) => v,
                        Err(PageFault(page)) => {
                            let mut p = Page::zeroed();
                            for w in 0..512 {
                                p.set_word(w, backing);
                            }
                            t.install(page, p);
                            t.read(addr).unwrap()
                        }
                    };
                    let want = model.get(&word).copied().unwrap_or(backing);
                    prop_assert_eq!(got, want);
                }
            }
            // protect_all resets everything to faulting.
            t.protect_all();
            prop_assert_eq!(t.resident_pages(), 0);
        }

        /// The slot table behaves as a plain map of resident pages under
        /// any mix of install, re-install, read, write, map-zero and
        /// protect_all — over page ids that collide in the lookup cache,
        /// so a cached slot is never served for the wrong page, after a
        /// re-install, or after protect_all.
        #[test]
        fn table_matches_map_model(
            ops in proptest::collection::vec((0u8..6, 0u64..8, 0usize..512, any::<u64>()), 1..300),
        ) {
            let mut t = PageTable::new();
            let mut model: std::collections::HashMap<PageId, Vec<u64>> = Default::default();
            let mut installs = 0u64;
            for (op, p, word, value) in ops {
                // Pages 0, RECENT, 2·RECENT, … share one cache entry, as
                // do 1, RECENT + 1, ….
                let id = PageId(p % 2 + (p / 2) * RECENT as u64);
                let addr = id.word(word);
                match op {
                    0 => {
                        let mut page = Page::zeroed();
                        for w in 0..512 {
                            page.set_word(w, value ^ w as u64);
                        }
                        t.install(id, page);
                        installs += 1;
                        model.insert(id, (0..512).map(|w| value ^ w).collect());
                    }
                    1 | 2 => {
                        let want = model.get(&id).map(|words| words[word]).ok_or(PageFault(id));
                        prop_assert_eq!(t.read(addr), want);
                    }
                    3 => {
                        let want = match model.get_mut(&id) {
                            Some(words) => {
                                words[word] = value;
                                Ok(())
                            }
                            None => Err(PageFault(id)),
                        };
                        prop_assert_eq!(t.write(addr, value), want);
                    }
                    4 => {
                        t.write_or_map_zero(addr, value);
                        model.entry(id).or_insert_with(|| vec![0; 512])[word] = value;
                    }
                    _ => {
                        prop_assert_eq!(t.protect_all(), model.len());
                        model.clear();
                    }
                }
                prop_assert_eq!(t.resident_pages(), model.len());
                prop_assert_eq!(t.is_resident(id), model.contains_key(&id));
                prop_assert_eq!(t.faults_served(), installs);
            }
        }
    }
}
