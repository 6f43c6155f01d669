//! Mapped regions of recoverable memory (§4.1).
//!
//! A region is a page-aligned slice of an external data segment copied into
//! process memory at map time ("the copying of data from external data
//! segment to virtual memory occurs when a region is mapped"). The memory
//! block is allocated once and never moves while mapped, so raw pointers
//! into it — the idiom of the original C interface — remain valid.
//!
//! Two APIs are offered:
//!
//! * a **safe API** ([`Region::read`], [`Region::write`],
//!   [`Region::modify`], typed accessors) in which every access is
//!   bounds-checked and internally synchronized, and writes implicitly
//!   declare their range to the enclosing transaction;
//! * an **unsafe API** ([`Region::base_ptr`] plus
//!   [`Transaction::set_range_ptr`](crate::Transaction::set_range_ptr))
//!   mirroring the C library for applications that lay out structs in
//!   recoverable memory directly.
//!
//! Serializability remains the application's business (§3.1): the internal
//! lock only makes individual operations atomic, exactly as the C library
//! was multi-thread safe without providing concurrency control.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::error::{Result, RvmError};
use crate::options::PAGE_SIZE;
use crate::ranges::ByteRange;
use crate::scrub::READ_CHUNK;
use crate::segment::Segment;
use crate::sync::{AtomicBool, AtomicU64, Mutex, RwLock};
use crate::truncation::page_vector::PageVector;
use crate::txn::Transaction;

/// Names a region of an external data segment for mapping (§4.2's
/// `region_desc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDescriptor {
    /// The segment's name (a path under the default resolver).
    pub segment: String,
    /// Page-aligned byte offset of the region within the segment.
    pub offset: u64,
    /// Region length; a positive multiple of the page size.
    pub len: u64,
}

impl RegionDescriptor {
    /// Describes `[offset, offset + len)` of the named segment.
    pub fn new(segment: impl Into<String>, offset: u64, len: u64) -> Self {
        Self {
            segment: segment.into(),
            offset,
            len,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        // Checked first: the alignment diagnostics below (and every
        // downstream `offset + len`, e.g. `ByteRange::at`) assume the
        // end fits in u64.
        if self.offset.checked_add(self.len).is_none() {
            return Err(RvmError::BadMapping(format!(
                "region at {} of '{}' with length {} overflows u64",
                self.offset, self.segment, self.len
            )));
        }
        if self.len == 0
            || !self.len.is_multiple_of(PAGE_SIZE)
            || !self.offset.is_multiple_of(PAGE_SIZE)
        {
            return Err(RvmError::BadMapping(format!(
                "region [{}, {}) of '{}' is not page-aligned (page size {})",
                self.offset,
                self.offset + self.len,
                self.segment,
                PAGE_SIZE
            )));
        }
        Ok(())
    }
}

/// The region's stable memory block.
///
/// Allocation is zeroed and page-aligned; the block never moves or resizes
/// while the region lives, which is what makes the pointer-based API sound
/// to offer at all.
///
/// The block is a page longer than the region and the region starts at
/// its first page boundary: an allocation aligned to the allocator's
/// minimum is a `calloc`, which leaves memory it knows is zero alone,
/// where a page-aligned one is a `posix_memalign` and a `memset` over it.
pub(crate) struct RegionMemory {
    ptr: NonNull<u8>,
    len: usize,
    /// The allocation `ptr` lies in.
    block: NonNull<u8>,
}

// SAFETY: the raw block is plain bytes; all access is synchronized either
// by `RegionInner::mem_lock` (safe API and library internals) or by the
// caller's contract (unsafe API).
unsafe impl Send for RegionMemory {}
// SAFETY: as above — shared access without external synchronization is
// forbidden by the access methods' contracts.
unsafe impl Sync for RegionMemory {}

impl RegionMemory {
    pub(crate) fn alloc(len: usize) -> Self {
        assert!(len > 0, "regions are never empty");
        // SAFETY: the layout has non-zero size.
        let raw = unsafe { alloc_zeroed(Self::layout(len)) };
        let block = NonNull::new(raw).expect("region allocation failed");
        // SAFETY: the block is a page longer than `len`, so the first
        // page boundary in it leaves `len` bytes.
        let ptr =
            unsafe { block.add(raw.addr().next_multiple_of(PAGE_SIZE as usize) - raw.addr()) };
        Self { ptr, len, block }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len + PAGE_SIZE as usize, 16).expect("valid region layout")
    }

    pub(crate) fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Validates `[offset, offset + len)` against the block, in release
    /// builds too — an out-of-bounds raw-memory access must never be one
    /// `debug_assert!` away from undefined behaviour.
    fn check(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(RvmError::OutOfRange {
                offset: offset as u64,
                len: len as u64,
                region_len: self.len as u64,
            });
        }
        Ok(())
    }

    /// Copies `buf.len()` bytes out of the block at `offset`, failing on
    /// out-of-bounds ranges.
    ///
    /// # Safety
    ///
    /// The caller must hold the region's lock (shared suffices) or
    /// otherwise guarantee no concurrent writer overlaps the range.
    pub(crate) unsafe fn copy_out(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len())?;
        // SAFETY: bounds checked above; regions of distinct allocations
        // never overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.ptr.as_ptr().add(offset),
                buf.as_mut_ptr(),
                buf.len(),
            );
        }
        Ok(())
    }

    /// [`RegionMemory::copy_out`] appending to `out`, so there is no
    /// buffer to zero first.
    ///
    /// # Safety
    ///
    /// As for [`RegionMemory::copy_out`].
    pub(crate) unsafe fn append_to(&self, at: usize, len: usize, out: &mut Vec<u8>) -> Result<()> {
        self.check(at, len)?;
        // SAFETY: bounds checked above, and the caller keeps writers off
        // the range for the call, which is as long as the slice lives.
        out.extend_from_slice(unsafe {
            std::slice::from_raw_parts(self.ptr.as_ptr().add(at), len)
        });
        Ok(())
    }

    /// Copies `data` into the block at `offset`, failing on out-of-bounds
    /// ranges.
    ///
    /// # Safety
    ///
    /// The caller must hold the region's lock exclusively (or otherwise
    /// exclude all concurrent access to the range).
    pub(crate) unsafe fn copy_in(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.check(offset, data.len())?;
        // SAFETY: bounds checked above.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.as_ptr().add(offset), data.len());
        }
        Ok(())
    }

    /// Returns a mutable slice over `[offset, offset + len)`, failing on
    /// out-of-bounds ranges.
    ///
    /// # Safety
    ///
    /// The caller must hold the region's lock exclusively for the lifetime
    /// of the slice.
    #[allow(clippy::mut_from_ref)] // exclusivity comes from the mem_lock, not &mut self
    pub(crate) unsafe fn slice_mut(&self, offset: usize, len: usize) -> Result<&mut [u8]> {
        self.check(offset, len)?;
        // SAFETY: exclusivity guaranteed by the caller; bounds checked
        // above.
        Ok(unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr().add(offset), len) })
    }
}

impl Drop for RegionMemory {
    fn drop(&mut self) {
        // SAFETY: `block` was allocated with exactly this layout in `alloc`.
        unsafe { dealloc(self.block.as_ptr(), Self::layout(self.len)) };
    }
}

/// The bit of [`RegionInner::uncommitted_txns`] an unmapped region has.
pub(crate) const UNMAPPED: u64 = 1 << 63;

/// What [`RegionInner::committed_page`] found.
pub(crate) enum PageImage {
    /// Exactly the committed, logged bytes of the page, now in the
    /// caller's buffer.
    Committed,
    /// The page was never fetched from its segment (on-demand mapping).
    Unloaded,
    /// A live transaction has declared a range on the page.
    Uncommitted,
    /// A committed change to the page is still in the spool.
    Unflushed,
}

/// Library-internal state of a mapped region.
pub(crate) struct RegionInner {
    pub(crate) id: u64,
    /// The backing segment's open handle — device, catalog and write
    /// ordering; every region of one segment holds the same one.
    pub(crate) segment: Arc<Segment>,
    pub(crate) seg_offset: u64,
    pub(crate) len: u64,
    pub(crate) mem: RegionMemory,
    /// Guards memory access for the safe API and library internals.
    pub(crate) mem_lock: RwLock<()>,
    /// Active transactions holding `set_range`s on this region, and the
    /// [`UNMAPPED`] bit: `unmap` claims a count of 0 in one
    /// compare-and-swap, so a transaction is either counted before the
    /// claim (and the unmap refused) or finds the bit and fails.
    pub(crate) uncommitted_txns: AtomicU64,
    pub(crate) page_vector: Mutex<PageVector>,
    /// `None` once fully loaded; until then, which pages still need
    /// fetching from the segment (at `map`, those below the zero mark).
    pub(crate) unloaded: Mutex<Option<Vec<bool>>>,
    /// Set, and never cleared, once `unloaded` is `None`: an eager or
    /// fully fetched region answers "is it loaded" without the mutex.
    pub(crate) fully_loaded: AtomicBool,
    /// Set (and never cleared while mapped) when unrecoverable media
    /// corruption quarantines the region: reads of loaded pages keep
    /// working, new `set_range`s fail with [`RvmError::Media`].
    pub(crate) degraded: AtomicBool,
}

impl RegionInner {
    pub(crate) fn check_mapped(&self) -> Result<()> {
        if self.uncommitted_txns.load(Ordering::Acquire) & UNMAPPED == 0 {
            Ok(())
        } else {
            Err(RvmError::Unmapped)
        }
    }

    /// Counts a transaction declaring its first range on the region,
    /// unless `unmap` has claimed the region.
    pub(crate) fn count_txn(&self) -> Result<()> {
        if self.uncommitted_txns.fetch_add(1, Ordering::AcqRel) & UNMAPPED == 0 {
            return Ok(());
        }
        self.uncommitted_txns.fetch_sub(1, Ordering::AcqRel);
        Err(RvmError::Unmapped)
    }

    /// `unmap`'s claim: sets [`UNMAPPED`] if no transaction is counted.
    pub(crate) fn claim_unmapped(&self) -> Result<()> {
        let claimed = self.uncommitted_txns.compare_exchange(
            0,
            UNMAPPED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        match claimed {
            Ok(_) => Ok(()),
            Err(now) if now & UNMAPPED != 0 => Err(RvmError::Unmapped),
            Err(uncommitted) => Err(RvmError::RegionBusy { uncommitted }),
        }
    }

    pub(crate) fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(RvmError::OutOfRange {
                offset,
                len,
                region_len: self.len,
            });
        }
        Ok(())
    }

    /// Commit-time page bookkeeping, forced-to-log flavor: marks every
    /// page in `pages` dirty under one `page_vector` hold. Part of the
    /// per-region concurrency plane — committers touching disjoint
    /// regions run this without any shared lock (the caller enqueues the
    /// pages on the global truncation queue separately, under `core`).
    pub(crate) fn note_pages_logged(&self, pages: &[usize]) {
        let mut pv = self.page_vector.lock();
        for &p in pages {
            pv.mark_page_dirty(p);
        }
    }

    /// Commit-time page bookkeeping, no-flush flavor: counts every page
    /// in `pages` as carrying unflushed spooled changes (Figure 7's
    /// unflushed reference counts), under one `page_vector` hold.
    pub(crate) fn note_pages_spooled(&self, pages: &[usize]) {
        let mut pv = self.page_vector.lock();
        for &p in pages {
            pv.inc_unflushed(p);
        }
    }

    /// Spool-drain bookkeeping: the spooled record for `pages` reached
    /// the log, so the unflushed counts drop and the pages become
    /// ordinarily dirty, under one `page_vector` hold.
    pub(crate) fn note_spool_drained(&self, pages: &[usize]) {
        let mut pv = self.page_vector.lock();
        for &p in pages {
            pv.dec_unflushed(p);
            pv.mark_page_dirty(p);
        }
    }

    /// Returns `true` once unrecoverable corruption quarantined the
    /// region.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The error writes to an already-quarantined region fail with.
    pub(crate) fn degraded_error(&self) -> RvmError {
        RvmError::Media(format!(
            "region [{}, {}) of segment '{}' is quarantined (degraded, read-only) \
             after unrecoverable media corruption",
            self.seg_offset,
            self.seg_offset + self.len,
            self.segment.name
        ))
    }

    /// Quarantines the region (once), returning the [`RvmError::Media`]
    /// describing the unrecoverable page.
    pub(crate) fn quarantine(&self, seg_page: usize) -> RvmError {
        if !self.degraded.swap(true, Ordering::AcqRel) {
            let media = &self.segment.media;
            media.regions_quarantined.fetch_add(1, Ordering::Relaxed);
        }
        RvmError::Media(format!(
            "segment '{}' page {} failed checksum verification and no replica or \
             committed image could repair it; region quarantined (read-only)",
            self.segment.name, seg_page
        ))
    }

    /// The segment page holding region page `page`: region offsets are
    /// page-aligned, so it is `seg_offset / PAGE_SIZE + page` exactly.
    pub(crate) fn seg_page(&self, page: usize) -> usize {
        (self.seg_offset / PAGE_SIZE) as usize + page
    }

    /// Ensures every page overlapping `[offset, offset + len)` holds its
    /// committed image: each run of pending pages, up to [`READ_CHUNK`]
    /// bytes, is read straight into memory with one device read
    /// ([`Segment::read_run_verified`]). `map`'s eager load is this over
    /// the whole region. A page that stays unverifiable quarantines the
    /// region, and its run stays pending, so no read sees it: a page being
    /// *loaded* is not in VM, and the live log need not hold its bytes
    /// (`unmap` left them current on the segment), so the mirror is its
    /// only donor.
    pub(crate) fn ensure_loaded(&self, offset: u64, len: u64) -> Result<()> {
        if self.fully_loaded.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut tracker = self.unloaded.lock();
        let Some(pending) = tracker.as_mut() else {
            return Ok(());
        };
        let span = PageVector::page_span(offset, len.max(1));
        let page_size = PAGE_SIZE as usize;
        let mut page = span.start;
        while page < span.end {
            let ahead = pending[page..span.end].iter().take(READ_CHUNK / page_size);
            let run = ahead.take_while(|&&unloaded| unloaded).count();
            if run > 0 {
                let _guard = self.mem_lock.write();
                // SAFETY: exclusive lock held; `slice_mut` checks bounds.
                let image = unsafe { self.mem.slice_mut(page * page_size, run * page_size) }?;
                let first = self.seg_page(page);
                let unverifiable = |i| self.quarantine(first + i);
                let failed =
                    |i, repaired: bool| repaired.then_some(()).ok_or_else(|| unverifiable(i));
                self.segment.read_run_verified(first, image, failed)?;
                pending[page..page + run].fill(false);
            }
            page += run.max(1);
        }
        if !pending.contains(&true) {
            *tracker = None;
            self.fully_loaded.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Copies the committed image of region page `page` out of VM into
    /// `buf` (one [`PAGE_SIZE`] block, untouched unless the answer is
    /// [`PageImage::Committed`]) — the one way a page leaves VM for its
    /// segment (incremental truncation's freeze, the scrubber's rewrite
    /// rung).
    ///
    /// VM holds exactly the committed, logged bytes of a page when the
    /// page is loaded (committed changes were applied at load or written
    /// since), no live transaction has declared a range on it (declared
    /// bytes may be uncommitted, or read into a record not yet durable),
    /// and no committed change to it is still in the spool (the record
    /// could be lost with half its pages written). The counts are checked
    /// and the page copied under one hold of the memory lock *and* the
    /// page vector (`core → mem_lock → page_vector`; callers hold `core`):
    /// every `set_range` takes the page vector before its caller may
    /// write, through the safe API or a raw pointer, so nothing declared
    /// after the check can reach the copy.
    pub(crate) fn committed_page(&self, page: usize, buf: &mut [u8]) -> Result<PageImage> {
        let loaded = self.fully_loaded.load(Ordering::Acquire)
            || self
                .unloaded
                .lock()
                .as_ref()
                .is_none_or(|pending| pending.get(page) == Some(&false));
        if !loaded {
            return Ok(PageImage::Unloaded);
        }
        let _mem = self.mem_lock.read();
        let pv = self.page_vector.lock();
        let entry = pv.entry(page);
        if entry.uncommitted > 0 {
            return Ok(PageImage::Uncommitted);
        }
        if entry.unflushed > 0 {
            return Ok(PageImage::Unflushed);
        }
        debug_assert_eq!(buf.len(), PAGE_SIZE as usize);
        // SAFETY: shared memory lock held; bounds checked by `copy_out`.
        unsafe { self.mem.copy_out(page * PAGE_SIZE as usize, buf) }?;
        Ok(PageImage::Committed)
    }

    /// Reads bytes with the shared lock held (library-internal).
    pub(crate) fn read_bytes(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        self.read_into([ByteRange::at(offset, len)], &mut buf);
        buf
    }

    /// Appends the bytes of `ranges`, back to back, to `out` under one
    /// hold of the shared lock: old values into a transaction's undo
    /// arena, new values into its commit record.
    pub(crate) fn read_into(&self, ranges: impl IntoIterator<Item = ByteRange>, out: &mut Vec<u8>) {
        let _guard = self.mem_lock.read();
        for r in ranges {
            // SAFETY: shared lock held; caller validated bounds.
            unsafe { self.mem.append_to(r.start as usize, r.len() as usize, out) }
                .expect("read_into callers validate bounds");
        }
    }

    /// Writes bytes with the exclusive lock held (library-internal; used
    /// by abort to restore old values).
    pub(crate) fn write_bytes(&self, offset: u64, data: &[u8]) {
        let _guard = self.mem_lock.write();
        // SAFETY: exclusive lock held; caller validated bounds.
        unsafe { self.mem.copy_in(offset as usize, data) }
            .expect("write_bytes callers validate bounds");
    }
}

/// A handle to a mapped region of recoverable memory.
///
/// Handles are cheap to clone; the region stays mapped until
/// [`Rvm::unmap`](crate::Rvm::unmap). Operations on an unmapped region
/// fail with [`RvmError::Unmapped`].
#[derive(Clone)]
pub struct Region {
    pub(crate) inner: Arc<RegionInner>,
}

impl Region {
    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.inner.len
    }

    /// Regions are never empty; provided for completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Name of the backing segment.
    pub fn segment_name(&self) -> &str {
        &self.inner.segment.name
    }

    /// Returns `true` while the region is mapped.
    pub fn is_mapped(&self) -> bool {
        self.inner.check_mapped().is_ok()
    }

    /// Number of transactions with uncommitted changes to this region —
    /// the paper's `query` information.
    pub fn uncommitted_transactions(&self) -> u64 {
        self.inner.uncommitted_txns.load(Ordering::Acquire) & !UNMAPPED
    }

    /// Number of pages tracked by the region's page vector.
    pub fn num_pages(&self) -> usize {
        self.inner.page_vector.lock().num_pages()
    }

    /// Indices of pages holding committed changes not yet applied to the
    /// external data segment (Figure 7's dirty bits).
    pub fn dirty_pages(&self) -> Vec<usize> {
        self.inner.page_vector.lock().dirty_pages().collect()
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// Reads require no RVM intervention beyond bounds checks (§4.2)
    /// (plus a first-touch fetch for on-demand regions).
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.check_mapped()?;
        self.inner.check_bounds(offset, buf.len() as u64)?;
        self.inner.ensure_loaded(offset, buf.len() as u64)?;
        let _guard = self.inner.mem_lock.read();
        // SAFETY: shared lock held and bounds checked above.
        unsafe { self.inner.mem.copy_out(offset as usize, buf) }?;
        Ok(())
    }

    /// Reads `len` bytes starting at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.inner.check_mapped()?;
        self.inner.check_bounds(offset, len)?;
        self.inner.ensure_loaded(offset, len)?;
        Ok(self.inner.read_bytes(offset, len))
    }

    /// Fetches `[offset, offset + len)` from the segment if not yet
    /// loaded (on-demand regions); a no-op otherwise. Useful to warm a
    /// region before using the pointer API.
    pub fn prefetch(&self, offset: u64, len: u64) -> Result<()> {
        self.inner.check_mapped()?;
        self.inner.check_bounds(offset, len)?;
        self.inner.ensure_loaded(offset, len)
    }

    /// Returns `true` once the whole region holds its committed image.
    pub fn is_fully_loaded(&self) -> bool {
        self.inner.fully_loaded.load(Ordering::Acquire)
    }

    /// Reads a little-endian `u32` at `offset`.
    pub fn get_u32(&self, offset: u64) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(offset, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` at `offset`.
    pub fn get_u64(&self, offset: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Transactionally writes `data` at `offset`: declares the range to
    /// `txn` (an implicit `set_range`) and updates memory.
    pub fn write(&self, txn: &mut Transaction, offset: u64, data: &[u8]) -> Result<()> {
        txn.set_range(self, offset, data.len() as u64)?;
        let _guard = self.inner.mem_lock.write();
        // SAFETY: exclusive lock held; set_range validated the bounds.
        unsafe { self.inner.mem.copy_in(offset as usize, data) }?;
        Ok(())
    }

    /// Transactionally writes a little-endian `u32`.
    pub fn put_u32(&self, txn: &mut Transaction, offset: u64, v: u32) -> Result<()> {
        self.write(txn, offset, &v.to_le_bytes())
    }

    /// Transactionally writes a little-endian `u64`.
    pub fn put_u64(&self, txn: &mut Transaction, offset: u64, v: u64) -> Result<()> {
        self.write(txn, offset, &v.to_le_bytes())
    }

    /// Declares `[offset, offset + len)` to `txn` and passes the bytes to
    /// `f` for in-place modification.
    pub fn modify<R>(
        &self,
        txn: &mut Transaction,
        offset: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        txn.set_range(self, offset, len)?;
        let _guard = self.inner.mem_lock.write();
        // SAFETY: exclusive lock held; set_range validated the bounds.
        let slice = unsafe { self.inner.mem.slice_mut(offset as usize, len as usize) }?;
        Ok(f(slice))
    }

    /// Base address of the region's memory block, for the C-style
    /// pointer API.
    ///
    /// The block is stable while the region is mapped. All mutation
    /// through this pointer must be covered by
    /// [`Transaction::set_range_ptr`](crate::Transaction::set_range_ptr)
    /// calls — "the result is disastrous" otherwise, exactly as §6 warns —
    /// and the caller takes over synchronization entirely. To catch an
    /// undeclared write while debugging, map and transact through
    /// `rvm_check::Checked`, which convicts it at commit.
    pub fn base_ptr(&self) -> *mut u8 {
        self.inner.mem.as_ptr()
    }

    /// Translates a pointer into this region to its byte offset, if it
    /// points inside the region.
    pub fn offset_of_ptr(&self, ptr: *const u8) -> Option<u64> {
        let base = self.inner.mem.as_ptr() as usize;
        let p = ptr as usize;
        if p >= base && p < base + self.inner.len as usize {
            Some((p - base) as u64)
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("segment", &self.inner.segment.name)
            .field("seg_offset", &self.inner.seg_offset)
            .field("len", &self.inner.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use rvm_storage::MemDevice;

    /// Builds a standalone mapped region over a fresh in-memory segment,
    /// for unit tests of components that need a `RegionInner`.
    pub(crate) fn make_test_region(len: u64) -> Arc<RegionInner> {
        use std::sync::atomic::AtomicU64 as Counter;
        static NEXT_ID: Counter = Counter::new(1);
        Arc::new(RegionInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            segment: Segment::for_test(Arc::new(MemDevice::with_len(len)), None),
            seg_offset: 0,
            len,
            mem: RegionMemory::alloc(len as usize),
            mem_lock: RwLock::new(()),
            uncommitted_txns: AtomicU64::new(0),
            page_vector: Mutex::new(PageVector::new(len)),
            unloaded: Mutex::new(None),
            fully_loaded: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_validation() {
        assert!(RegionDescriptor::new("s", 0, PAGE_SIZE).validate().is_ok());
        assert!(RegionDescriptor::new("s", PAGE_SIZE * 3, PAGE_SIZE * 2)
            .validate()
            .is_ok());
        assert!(RegionDescriptor::new("s", 0, 0).validate().is_err());
        assert!(RegionDescriptor::new("s", 0, 100).validate().is_err());
        assert!(RegionDescriptor::new("s", 100, PAGE_SIZE)
            .validate()
            .is_err());
    }

    #[test]
    fn memory_alloc_is_zeroed_and_aligned() {
        let mem = RegionMemory::alloc(PAGE_SIZE as usize * 2);
        assert_eq!(mem.as_ptr() as usize % PAGE_SIZE as usize, 0);
        let mut buf = vec![0xFFu8; PAGE_SIZE as usize * 2];
        // SAFETY: sole owner, bounds exact.
        unsafe { mem.copy_out(0, &mut buf) }.unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn memory_copy_round_trip() {
        let mem = RegionMemory::alloc(PAGE_SIZE as usize);
        // SAFETY: sole owner, bounds checked by construction.
        unsafe {
            mem.copy_in(100, &[1, 2, 3]).unwrap();
            let mut buf = [0u8; 3];
            mem.copy_out(100, &mut buf).unwrap();
            assert_eq!(buf, [1, 2, 3]);
            let slice = mem.slice_mut(100, 3).unwrap();
            slice[1] = 9;
            let mut buf = [0u8; 3];
            mem.copy_out(100, &mut buf).unwrap();
            assert_eq!(buf, [1, 9, 3]);
        }
    }

    #[test]
    fn memory_bounds_are_checked_in_all_builds() {
        let mem = RegionMemory::alloc(PAGE_SIZE as usize);
        let mut buf = [0u8; 8];
        // SAFETY: sole owner; the point is that bad bounds come back as
        // errors rather than debug-only assertions.
        unsafe {
            assert!(matches!(
                mem.copy_out(PAGE_SIZE as usize - 4, &mut buf),
                Err(RvmError::OutOfRange { .. })
            ));
            assert!(matches!(
                mem.copy_in(PAGE_SIZE as usize, &[1]),
                Err(RvmError::OutOfRange { .. })
            ));
            assert!(matches!(
                mem.slice_mut(usize::MAX, 2),
                Err(RvmError::OutOfRange { .. })
            ));
            // Exactly-at-the-edge accesses remain fine.
            assert!(mem.copy_in(PAGE_SIZE as usize - 1, &[7]).is_ok());
        }
    }
}
