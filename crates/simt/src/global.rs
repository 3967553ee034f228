//! Global memory with write tracking.
//!
//! [`GlobalMemory`] owns the machine's word image plus a dirty-page
//! bitmap (one bit per [`PAGE_WORDS`]-word page). Its only writers —
//! [`GlobalMemory::store`], [`GlobalMemory::store_slice`] and
//! [`GlobalMemory::word_mut`] — mark the page they touch, and no
//! `&mut [u32]` view of the image leaves the type, so every write is
//! tracked by construction.
//!
//! Invariant: a clean page is all zeros. [`GlobalMemory::reset`]
//! therefore restores a freshly allocated image by zeroing only the
//! dirty pages, which is what lets a fault campaign reuse one machine
//! across trials instead of allocating a new image per trial.

use std::ops::{Index, Range};

/// Words per dirty-tracking page (4 KiB of 32-bit words).
const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();

/// The word-addressed global memory image of one machine.
pub(crate) struct GlobalMemory {
    words: Vec<u32>,
    /// One bit per page; a set bit means the page may be non-zero.
    dirty: Vec<u64>,
}

impl GlobalMemory {
    /// A zeroed image of `len` words with every page clean.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            words: vec![0; len],
            dirty: vec![0; len.div_ceil(PAGE_WORDS).div_ceil(64)],
        }
    }

    /// Number of words.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn mark_page(&mut self, page: usize) {
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    /// Writes one word. Panics if `widx` is out of range (callers
    /// bounds-check first and surface a typed error).
    #[inline]
    pub(crate) fn store(&mut self, widx: usize, v: u32) {
        self.words[widx] = v;
        self.mark_page(widx >> PAGE_SHIFT);
    }

    /// Copies `src` to `widx..widx + src.len()`. Panics if the range
    /// is out of bounds.
    #[inline]
    pub(crate) fn store_slice(&mut self, widx: usize, src: &[u32]) {
        self.words[widx..widx + src.len()].copy_from_slice(src);
        if let Some(last) = src.len().checked_sub(1) {
            for page in widx >> PAGE_SHIFT..=(widx + last) >> PAGE_SHIFT {
                self.mark_page(page);
            }
        }
    }

    /// Mutable view of one word, marking its page; `None` if out of
    /// range.
    pub(crate) fn word_mut(&mut self, widx: usize) -> Option<&mut u32> {
        if widx >= self.words.len() {
            return None;
        }
        self.mark_page(widx >> PAGE_SHIFT);
        self.words.get_mut(widx)
    }

    /// Zeroes every dirty page and marks all pages clean: afterwards
    /// the image equals [`GlobalMemory::new`] of the same length.
    pub(crate) fn reset(&mut self) {
        for (i, bits) in self.dirty.iter_mut().enumerate() {
            let mut m = std::mem::take(bits);
            while m != 0 {
                let page = i * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let start = page << PAGE_SHIFT;
                let end = (start + PAGE_WORDS).min(self.words.len());
                self.words[start..end].fill(0);
            }
        }
    }
}

impl Index<usize> for GlobalMemory {
    type Output = u32;

    #[inline]
    fn index(&self, widx: usize) -> &u32 {
        &self.words[widx]
    }
}

impl Index<Range<usize>> for GlobalMemory {
    type Output = [u32];

    #[inline]
    fn index(&self, r: Range<usize>) -> &[u32] {
        &self.words[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_exactly_what_was_written() {
        // A ragged last page and a slice spanning a page boundary.
        let len = 3 * PAGE_WORDS + 7;
        let mut m = GlobalMemory::new(len);
        m.store(5, 1);
        m.store_slice(PAGE_WORDS - 2, &[2, 3, 4]);
        *m.word_mut(len - 1).unwrap() = 9;
        assert!(m.word_mut(len).is_none());
        m.store_slice(0, &[]);
        assert_eq!(m.dirty[0], 0b1011);
        m.reset();
        assert_eq!(m.dirty[0], 0);
        assert!(m[0..len].iter().all(|&w| w == 0));
    }
}
