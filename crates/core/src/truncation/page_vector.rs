//! The per-region page vector (paper Figure 7).
//!
//! "The page vector is loosely analogous to a VM page table: the entry for
//! a page contains a dirty bit and an uncommitted reference count." We add
//! one field the paper did not need: an *unflushed* count tracking pages
//! whose committed changes still sit in the no-flush spool rather than the
//! on-disk log. Writing such a page to its segment would persist part of a
//! transaction whose log record could still be lost, breaking atomicity,
//! so incremental truncation treats unflushed like uncommitted (it can
//! clear the condition itself by flushing the spool).
//!
//! And we drop one the paper had: Figure 7's *reserved* bit, which marks a
//! page while truncation writes it out of VM. Here the segment is written
//! from a copy taken under this vector's lock in the same hold that
//! checked the two counts (`RegionInner::committed_page`), so a later
//! `set_range` cannot change what is written and there is nothing to
//! reserve.

use crate::options::PAGE_SIZE;

/// State of one page of a mapped region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageEntry {
    /// The page holds committed changes not yet applied to the segment.
    pub dirty: bool,
    /// Number of active transactions with `set_range`s touching the page.
    pub uncommitted: u32,
    /// Number of spooled (committed, unflushed) records touching the page.
    pub unflushed: u32,
}

/// Modification status for every page of one region.
#[derive(Debug, Clone)]
pub struct PageVector {
    pages: Vec<PageEntry>,
}

impl PageVector {
    /// Creates a vector for a region of `region_len` bytes.
    pub fn new(region_len: u64) -> Self {
        let n = region_len.div_ceil(PAGE_SIZE) as usize;
        Self {
            pages: vec![PageEntry::default(); n],
        }
    }

    /// Number of pages tracked.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page indices spanned by the byte range `[offset, offset + len)`.
    pub fn page_span(offset: u64, len: u64) -> std::ops::Range<usize> {
        if len == 0 {
            let p = (offset / PAGE_SIZE) as usize;
            return p..p;
        }
        let first = (offset / PAGE_SIZE) as usize;
        let last = ((offset + len - 1) / PAGE_SIZE) as usize;
        first..last + 1
    }

    /// Read access to a page entry.
    pub fn entry(&self, page: usize) -> &PageEntry {
        &self.pages[page]
    }

    /// Mutable access to a page entry.
    pub fn entry_mut(&mut self, page: usize) -> &mut PageEntry {
        &mut self.pages[page]
    }

    /// Increments the uncommitted count of `page`.
    pub fn inc_uncommitted(&mut self, page: usize) {
        self.pages[page].uncommitted += 1;
    }

    /// Decrements the uncommitted count of `page`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the count would underflow, which indicates an
    /// accounting bug.
    pub fn dec_uncommitted(&mut self, page: usize) {
        debug_assert!(self.pages[page].uncommitted > 0);
        self.pages[page].uncommitted = self.pages[page].uncommitted.saturating_sub(1);
    }

    /// Increments the unflushed count of `page`.
    pub fn inc_unflushed(&mut self, page: usize) {
        self.pages[page].unflushed += 1;
    }

    /// Decrements the unflushed count of `page`.
    pub fn dec_unflushed(&mut self, page: usize) {
        debug_assert!(self.pages[page].unflushed > 0);
        self.pages[page].unflushed = self.pages[page].unflushed.saturating_sub(1);
    }

    /// Marks one page dirty.
    pub fn mark_page_dirty(&mut self, page: usize) {
        self.pages[page].dirty = true;
    }

    /// Whether every page's committed bytes are on the segment: none
    /// dirty, none with a commit still in the spool.
    pub fn is_clean(&self) -> bool {
        self.pages.iter().all(|e| !e.dirty && e.unflushed == 0)
    }

    /// Iterates indices of dirty pages.
    pub fn dirty_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dirty)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rounds_up() {
        assert_eq!(PageVector::new(PAGE_SIZE * 3).num_pages(), 3);
        assert_eq!(PageVector::new(PAGE_SIZE * 3 + 1).num_pages(), 4);
        assert_eq!(PageVector::new(0).num_pages(), 0);
    }

    #[test]
    fn page_span_arithmetic() {
        assert_eq!(PageVector::page_span(0, 1), 0..1);
        assert_eq!(PageVector::page_span(0, PAGE_SIZE), 0..1);
        assert_eq!(PageVector::page_span(0, PAGE_SIZE + 1), 0..2);
        assert_eq!(PageVector::page_span(PAGE_SIZE - 1, 2), 0..2);
        assert_eq!(PageVector::page_span(PAGE_SIZE * 5, 10), 5..6);
        assert!(PageVector::page_span(100, 0).is_empty());
    }

    #[test]
    fn counters_and_dirty_bits() {
        let mut pv = PageVector::new(PAGE_SIZE * 4);
        pv.inc_uncommitted(1);
        pv.inc_uncommitted(1);
        pv.dec_uncommitted(1);
        assert_eq!(pv.entry(1).uncommitted, 1);

        pv.mark_page_dirty(0);
        pv.mark_page_dirty(1);
        assert!(pv.entry(0).dirty && pv.entry(1).dirty);
        assert!(!pv.entry(2).dirty);
        assert_eq!(pv.dirty_pages().collect::<Vec<_>>(), vec![0, 1]);
    }
}
