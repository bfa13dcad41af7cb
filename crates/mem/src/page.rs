//! Memory pages and page diffs.

use dsmtx_uva::PAGE_WORDS;

const WORDS: usize = PAGE_WORDS as usize;

/// One 4 KiB page: 512 eight-byte words, the unit of Copy-On-Access.
///
/// Sending a whole page in response to a single-word request is the paper's
/// constructive prefetch: nearby words are speculated to be needed soon.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    words: Box<[u64; WORDS]>,
}

impl Page {
    /// A zero-filled page, as handed out by demand-zero allocation.
    pub fn zeroed() -> Self {
        Page {
            words: Box::new([0; WORDS]),
        }
    }

    /// Reads the word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    #[inline]
    pub fn word(&self, index: usize) -> u64 {
        self.words[index]
    }

    /// Writes the word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    #[inline]
    pub fn set_word(&mut self, index: usize, value: u64) {
        self.words[index] = value;
    }

    /// All 512 words, in index order.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words[..]
    }

    /// All 512 words, mutably.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words[..]
    }

    /// Iterates over `(index, word)` pairs of non-zero words.
    pub fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w != 0)
    }

    /// Computes the word-granularity difference `self → other`.
    ///
    /// Distributed Multiversioning diffs pages like this for commit; DSMTX
    /// argues word-granularity logs beat page diffing for sparse access
    /// patterns (§6). The diff is still useful in tests as the ground truth
    /// of what changed.
    pub fn diff(&self, other: &Page) -> PageDiff {
        PageDiff {
            changes: self
                .words
                .iter()
                .zip(other.words.iter())
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, (_, b))| (i as u16, *b))
                .collect(),
        }
    }

    /// Applies a diff produced by [`Page::diff`].
    pub fn apply(&mut self, diff: &PageDiff) {
        for &(i, v) in &diff.changes {
            self.words[i as usize] = v;
        }
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nz = self.nonzero_words().count();
        write!(f, "Page({nz} nonzero words)")
    }
}

/// A sparse word-granularity page delta.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageDiff {
    changes: Vec<(u16, u64)>,
}

impl PageDiff {
    /// Number of changed words.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when the diff changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Iterates over `(word index, new value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.changes.iter().map(|&(i, v)| (i as usize, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert_eq!(p.nonzero_words().count(), 0);
        assert_eq!(p.word(0), 0);
        assert_eq!(p.word(WORDS - 1), 0);
    }

    #[test]
    fn set_and_get() {
        let mut p = Page::zeroed();
        p.set_word(7, 42);
        p.set_word(511, u64::MAX);
        assert_eq!(p.word(7), 42);
        assert_eq!(p.word(511), u64::MAX);
        assert_eq!(p.nonzero_words().count(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_page_index_panics() {
        let p = Page::zeroed();
        let _ = p.word(WORDS);
    }

    #[test]
    fn diff_then_apply_reproduces_target() {
        let mut a = Page::zeroed();
        a.set_word(3, 10);
        a.set_word(100, 20);
        let mut b = a.clone();
        b.set_word(3, 11);
        b.set_word(200, 5);
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        let mut a2 = a.clone();
        a2.apply(&d);
        assert_eq!(a2, b);
    }

    #[test]
    fn identical_pages_have_empty_diff() {
        let a = Page::zeroed();
        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Page::zeroed()).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_page() -> impl Strategy<Value = Page> {
        proptest::collection::vec((0usize..WORDS, any::<u64>()), 0..64).prop_map(|writes| {
            let mut p = Page::zeroed();
            for (i, v) in writes {
                p.set_word(i, v);
            }
            p
        })
    }

    proptest! {
        /// diff/apply is an exact inverse for arbitrary page pairs.
        #[test]
        fn diff_apply_roundtrip(a in arb_page(), b in arb_page()) {
            let d = a.diff(&b);
            let mut a2 = a.clone();
            a2.apply(&d);
            prop_assert_eq!(a2, b);
        }

        /// A diff never reports more changes than the number of differing words.
        #[test]
        fn diff_is_minimal(a in arb_page(), b in arb_page()) {
            let d = a.diff(&b);
            for (i, v) in d.iter() {
                prop_assert_ne!(a.word(i), v);
                prop_assert_eq!(b.word(i), v);
            }
        }
    }
}
