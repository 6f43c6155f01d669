//! Media-failure detection: per-page checksum catalogs and scrub reports.
//!
//! The paper delegates media recovery to the layer below RVM ("RVM is
//! concerned solely with recovery from process and system failures...
//! media failures have to be handled by mirroring", §3.1). This module
//! supplies the detection half of that layer: every data segment carries a
//! sidecar *checksum catalog* — one CRC-32 per [`PAGE_SIZE`] page —
//! updated whenever truncation or recovery writes segment pages and
//! verified whenever mapped regions load pages and by
//! [`Rvm::scrub`](crate::Rvm::scrub) passes. The catalog is owned by its
//! segment's handle ([`Segment`](crate::segment::Segment)), the only code
//! that reads or writes either device; this module keeps the catalog
//! format and the scrub pass.
//!
//! A checksum mismatch feeds the repair ladder (`scrub_region_page`,
//! below): a healthy mirror replica first, then reconstruction from the
//! committed image (the un-truncated log span, whose contents the VM
//! image of a loaded page reproduces exactly), else quarantine of the
//! affected region into read-only degraded mode
//! ([`RvmError::Media`](crate::RvmError::Media)).
//!
//! # Catalog format
//!
//! The sidecar is named `{segment}.sums` and resolved through the same
//! [`DeviceResolver`](crate::segment::DeviceResolver) as the segment, so
//! a mirrored or fault-injected resolver covers the catalog too:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"RVMC"
//!      4     4  version (little-endian u32, currently 1)
//!      8     8  page count (little-endian u64)
//!     16     4  CRC-32 of the entry table
//!     20     4  reserved (zero)
//!     24   4*n  entry table: CRC-32 per page, little-endian
//! ```
//!
//! The table CRC makes the catalog self-verifying: a torn catalog write
//! (crash mid-persist) reads back as *invalid*, not as a sea of false
//! mismatches, and an invalid catalog is re-adopted from the current
//! segment content. Adoption is trust-on-first-use: the catalog protects
//! against rot *after* it was written, never against a segment that was
//! already wrong when first seen.
//!
//! Where it happens: recovery, an epoch and an on-demand `map` adopt the
//! pages their handle's catalog does not cover as they open it, with one
//! [`checksums_of`] pass. An eager `map` reads each page once: its load
//! adopts the region's pages from the bytes it copies into VM, one pass
//! adopts the pages below and past the region (the entry table is a
//! dense prefix), and the catalog is persisted before `map` returns. It
//! is crash-safe because nothing writes those pages in between — they
//! belong to no mapped region, so no record names them — and because a
//! crash before the persist leaves the catalog uncovering them, to be
//! adopted again from the same bytes.
//!
//! # Crash ordering
//!
//! **The log head advances only after the catalog covering the applied
//! pages is persisted** (`Segment::finish`). A crash therefore leaves a
//! catalog that is current, stale only for pages the live log span
//! re-applies, or torn (self-check fails, re-adopted).

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rvm_storage::Device;

use crate::crc::crc32;
use crate::error::Result;
use crate::options::PAGE_SIZE;
use crate::region::{PageImage, RegionInner};
use crate::rvm::{CoreGuard, RvmShared};
use crate::sync::Mutex;

const MAGIC: &[u8; 4] = b"RVMC";
const VERSION: u32 = 1;
const HEADER_SIZE: u64 = 24;
const ENTRY_SIZE: u64 = 4;

/// Extra read attempts before a checksum mismatch is treated as resident
/// corruption rather than a transient read error. A re-read costs little
/// and distinguishes rot on the medium from rot on the wire.
pub(crate) const MEDIA_READ_RETRIES: usize = 2;

/// The most bytes one read moves where a segment is read end to end:
/// map-time loads, catalog adoption and [`checksums_of`].
pub(crate) const READ_CHUNK: usize = 1 << 20;

/// Returns the sidecar catalog name for a segment name.
pub fn sidecar_name(segment: &str) -> String {
    format!("{segment}.sums")
}

/// Whether `name` is a checksum-catalog sidecar (the inverse of
/// [`sidecar_name`]). Tools walking a resolver's namespace use this to
/// tell data segments from their derived catalogs.
pub fn is_sidecar(name: &str) -> bool {
    name.ends_with(".sums")
}

/// Number of catalog pages covering a segment of `seg_len` bytes.
pub fn page_count(seg_len: u64) -> usize {
    seg_len.div_ceil(PAGE_SIZE) as usize
}

/// The little-endian `u32`s of `bytes` (a multiple of four long).
fn words(bytes: &[u8]) -> Vec<u32> {
    let word = |c: &[u8]| u32::from_le_bytes(c.try_into().unwrap_or_default());
    bytes.chunks_exact(ENTRY_SIZE as usize).map(word).collect()
}

/// A per-page checksum catalog for one data segment, backed by a sidecar
/// device.
///
/// The in-memory entry table is the source of truth between
/// [`SegmentChecksums::persist`] calls; writers update entries as they
/// write segment pages and persist once per batch, before the log head
/// moves past the covered records.
pub struct SegmentChecksums {
    dev: Arc<dyn Device>,
    entries: Mutex<Vec<u32>>,
}

impl SegmentChecksums {
    /// Opens the catalog on `dev`, covering a segment of `seg_len` bytes:
    /// the pages an empty, torn, foreign-format or short catalog does not
    /// cover are adopted from the segment's content and persisted. An
    /// instance's handle loads and adopts apart, so that an eager `map`'s
    /// load adopts the pages it reads (`Segment::adopt`).
    pub fn open(dev: Arc<dyn Device>, seg: &dyn Device, seg_len: u64) -> Result<Self> {
        let catalog = Self::load(dev)?;
        if catalog.adopt(seg, seg_len, usize::MAX)? {
            catalog.persist()?;
        }
        Ok(catalog)
    }

    /// The catalog persisted on `dev` as it is, adopting nothing: empty
    /// when `dev` holds no valid one.
    pub(crate) fn load(dev: Arc<dyn Device>) -> Result<Self> {
        let entries = Mutex::new(Self::load_readonly(dev.as_ref())?.unwrap_or_default());
        Ok(SegmentChecksums { dev, entries })
    }

    /// Reads and validates the persisted entry table without adopting
    /// anything — also the offline-tool path: unlike
    /// [`SegmentChecksums::open`] (which adopts and *writes* a catalog
    /// for an uncovered segment), this never writes the device. `None`
    /// when it holds no self-consistent catalog (empty, torn, or foreign
    /// bytes).
    pub fn load_readonly(dev: &dyn Device) -> Result<Option<Vec<u32>>> {
        let len = dev.len()?;
        if len < HEADER_SIZE {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_SIZE as usize];
        dev.read_at(0, &mut header)?;
        // magic, version, page count (low, high), table CRC, reserved
        let &[magic, version, pages_lo, pages_hi, table_crc, _] = words(&header).as_slice() else {
            return Ok(None);
        };
        let pages = u64::from(pages_hi) << 32 | u64::from(pages_lo);
        if magic != u32::from_le_bytes(*MAGIC)
            || version != VERSION
            || pages > (len - HEADER_SIZE) / ENTRY_SIZE
        {
            return Ok(None);
        }
        let mut table = vec![0u8; (pages * ENTRY_SIZE) as usize];
        dev.read_at(HEADER_SIZE, &mut table)?;
        Ok((crc32(&table) == table_crc).then(|| words(&table)))
    }

    /// Adopts, in memory, the entries of the pages below byte `end` that
    /// the catalog does not cover yet, from one [`checksums_of`] pass over
    /// `seg` that stops at page `zero_from`: a page from there on is known
    /// to be zeros (`Segment::grow_to`'s mark), and gets their CRC unread.
    /// Returns whether there were any.
    pub(crate) fn adopt(&self, seg: &dyn Device, end: u64, zero_from: usize) -> Result<bool> {
        let (known, needed) = (self.pages(), page_count(end));
        if known >= needed {
            return Ok(false);
        }
        // Checksum the new pages outside the lock; entries shrink only as a
        // grow drops a short last page no region maps, so a racing adopter
        // can only have covered a prefix of them.
        let zero_from = zero_from.clamp(known, needed);
        let mut fresh = checksums_of(seg, end, known..zero_from)?;
        let zeros = [0; PAGE_SIZE as usize];
        let (whole, short) = (crc32(&zeros), end % PAGE_SIZE);
        fresh.resize(needed - known, whole);
        if short > 0 && zero_from < needed {
            fresh[needed - known - 1] = crc32(&zeros[..short as usize]);
        }
        let mut entries = self.entries.lock();
        let adopted = entries.len() - known;
        entries.extend(fresh.into_iter().skip(adopted));
        Ok(true)
    }

    /// Stops covering pages `pages..`, in memory.
    pub(crate) fn truncate(&self, pages: usize) {
        self.entries.lock().truncate(pages);
    }

    /// Number of pages the catalog covers.
    pub fn pages(&self) -> usize {
        self.entries.lock().len()
    }

    /// The expected CRC-32 of `page`, if covered.
    pub fn expected(&self, page: usize) -> Option<u32> {
        self.entries.lock().get(page).copied()
    }

    /// Whether `data` (the page's exact current bytes) matches the
    /// catalog entry for `page`. Uncovered pages verify trivially.
    pub fn verify(&self, page: usize, data: &[u8]) -> bool {
        match self.expected(page) {
            Some(sum) => crc32(data) == sum,
            None => true,
        }
    }

    /// [`SegmentChecksums::verify`], except that the first page past the
    /// catalog's end is adopted: `data` becomes its entry. The catalog
    /// stays a dense prefix of the segment.
    pub(crate) fn verify_or_adopt(&self, page: usize, data: &[u8]) -> bool {
        let sum = crc32(data);
        let mut entries = self.entries.lock();
        if entries.len() == page {
            entries.push(sum);
        }
        entries.get(page).is_none_or(|&entry| entry == sum)
    }

    /// Records the new content of `page` in memory (call
    /// [`SegmentChecksums::persist`] before the log head advances past
    /// the records that produced it).
    pub fn update(&self, page: usize, data: &[u8]) {
        let mut entries = self.entries.lock();
        if entries.len() <= page {
            entries.resize(page + 1, 0);
        }
        entries[page] = crc32(data);
    }

    /// Writes the catalog (header + entry table) to the sidecar device
    /// and syncs it.
    pub fn persist(&self) -> Result<()> {
        let table: Vec<u8> = {
            let entries = self.entries.lock();
            entries.iter().flat_map(|e| e.to_le_bytes()).collect()
        };
        let pages = (table.len() as u64) / ENTRY_SIZE;
        let mut header = [0u8; HEADER_SIZE as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&pages.to_le_bytes());
        header[16..20].copy_from_slice(&crc32(&table).to_le_bytes());
        let needed = HEADER_SIZE + table.len() as u64;
        if self.dev.len()? < needed {
            self.dev.set_len(needed)?;
        }
        // Table first, header (with its covering CRC) last: a torn
        // persist fails the self-check instead of validating stale
        // entries against a new page count.
        self.dev.write_at(HEADER_SIZE, &table)?;
        self.dev.write_at(0, &header)?;
        self.dev.sync()?;
        Ok(())
    }

    /// Overwrites the header of a valid catalog on `dev` so the next
    /// [`SegmentChecksums::open`] re-adopts instead of trusting it — for
    /// an instance about to write the segment without maintaining sums.
    /// One header read when `dev` holds no catalog; nothing is written
    /// unless one validates (a torn or foreign one is rejected anyway).
    pub(crate) fn invalidate(dev: &dyn Device) -> Result<()> {
        if Self::load_readonly(dev)?.is_some() {
            dev.write_at(0, &[0u8; HEADER_SIZE as usize])?;
            dev.sync()?;
        }
        Ok(())
    }
}

/// CRC-32s of the current bytes of `pages` (pages of the segment, the
/// last one short where it ends) on a segment device of `seg_len` bytes,
/// read 1 MiB a call through one buffer.
pub fn checksums_of(seg: &dyn Device, seg_len: u64, pages: Range<usize>) -> Result<Vec<u32>> {
    let end = (pages.end as u64 * PAGE_SIZE).min(seg_len);
    let (mut sums, mut buf) = (Vec::with_capacity(pages.len()), Vec::new());
    for at in (pages.start as u64 * PAGE_SIZE..end).step_by(READ_CHUNK) {
        buf.resize((end - at).min(READ_CHUNK as u64) as usize, 0);
        seg.read_at(at, &mut buf)?;
        sums.extend(buf.chunks(PAGE_SIZE as usize).map(crc32));
    }
    Ok(sums)
}

/// What one scrub pass did ([`Rvm::scrub`](crate::Rvm::scrub)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages checksum-verified this pass.
    pub pages_scanned: u64,
    /// Pages whose first read failed verification.
    pub corruptions_detected: u64,
    /// Detected corruptions healed (mirror read-repair or rewrite from
    /// the committed image).
    pub corruptions_repaired: u64,
    /// Pages whose corruption survived the whole repair ladder; their
    /// regions are now quarantined (degraded, read-only).
    pub pages_quarantined: u64,
    /// Pages skipped: a live transaction or an unflushed lazy commit
    /// pinned them, a truncation in flight owned the segment writers, or
    /// their region was already quarantined. They are re-examined on the
    /// next pass.
    pub pages_skipped: u64,
}

impl ScrubReport {
    /// `true` when every detected corruption was repaired and nothing
    /// was quarantined.
    pub fn is_clean(&self) -> bool {
        self.corruptions_detected == self.corruptions_repaired && self.pages_quarantined == 0
    }
}

impl RvmShared {
    /// One scrub pass over every mapped region of a segment with a
    /// checksum catalog (see [`Rvm::scrub`](crate::Rvm::scrub)). Device
    /// failures propagate (they are *not* checksum mismatches — the
    /// media may be fine); corruption never poisons the instance, it
    /// quarantines at most the affected regions.
    pub(crate) fn scrub_pass(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let regions: Vec<Arc<RegionInner>> = self.regions.read().values().cloned().collect();
        for region in regions {
            self.scrub_region(&region, &mut report)?;
        }
        Ok(report)
    }

    /// Scrubs one region page by page, taking the core lock per page so
    /// commits interleave freely with a pass.
    fn scrub_region(&self, region: &Arc<RegionInner>, report: &mut ScrubReport) -> Result<()> {
        if !region.segment.has_catalog() {
            return Ok(());
        }
        let pages = (region.len / PAGE_SIZE) as usize;
        for page in 0..pages {
            let core = self.core.lock();
            if core.truncation.is_some() {
                // A truncation's off-lock apply owns the segment writers;
                // the rest of this region waits for the next pass.
                report.pages_skipped += (pages - page) as u64;
                return Ok(());
            }
            if region.check_mapped().is_err() || region.is_degraded() {
                report.pages_skipped += (pages - page) as u64;
                return Ok(());
            }
            self.scrub_region_page(core, region, page, report)?;
        }
        Ok(())
    }

    /// Verifies one region page against the catalog and runs the repair
    /// ladder on a mismatch: bounded re-reads and mirror read-repair
    /// (inside [`Segment::read_run_verified`](crate::segment::Segment)),
    /// then a rewrite from the committed image in VM, else quarantine.
    ///
    /// Holding `core` for the whole page excludes every other segment
    /// writer (a truncation takes the in-flight slot under `core`, and
    /// the caller found it free), so the read-check-rewrite sequence
    /// cannot race a concurrent apply to the same page.
    fn scrub_region_page(
        &self,
        _core: CoreGuard<'_>,
        region: &Arc<RegionInner>,
        page: usize,
        report: &mut ScrubReport,
    ) -> Result<()> {
        let seg_page = region.seg_page(page);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let mut failed = None;
        let note = |_, repaired| {
            failed = Some(repaired);
            Ok(())
        };
        region.segment.read_run_verified(seg_page, &mut buf, note)?;
        report.pages_scanned += 1;
        let Some(repaired) = failed else {
            return Ok(());
        };
        report.corruptions_detected += 1;
        if repaired {
            report.corruptions_repaired += 1;
            return Ok(());
        }
        // Re-reads and any mirror failed; next rung is a rewrite from the
        // committed image, when VM holds exactly that (map-time
        // truncation drained the segment's live log records before the
        // load, so nothing committed is missing from a loaded page).
        match region.committed_page(page, &mut buf)? {
            PageImage::Committed => {
                region.segment.write_page(seg_page, &buf)?;
                region.segment.finish()?;
                report.corruptions_repaired += 1;
                let media = &self.stats.media;
                media.corruptions_repaired.fetch_add(1, Ordering::Relaxed);
            }
            // VM holds uncommitted bytes, or committed ones whose record
            // is still in the spool; retry on a later pass.
            PageImage::Uncommitted | PageImage::Unflushed => report.pages_skipped += 1,
            // Unloaded and unverifiable: no healthy replica, no VM image,
            // and no log span to rebuild from — quarantine the region.
            PageImage::Unloaded => {
                report.pages_quarantined += 1;
                let _ = region.quarantine(seg_page);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::Piece;
    use crate::segment::{ApplyContext, Segment};
    use rvm_storage::{MemDevice, VerifiedRead};

    fn piece(start: u64, data: &[u8]) -> Piece<'_> {
        Piece {
            seg: 0,
            start,
            data,
        }
    }

    fn seg_with(len: u64, pattern: u8) -> Arc<MemDevice> {
        let seg = Arc::new(MemDevice::with_len(len));
        seg.write_at(0, &vec![pattern; len as usize]).unwrap();
        seg
    }

    #[test]
    fn adoption_then_reload_round_trips() {
        let seg = seg_with(PAGE_SIZE * 2 + 100, 7);
        let side: Arc<dyn Device> = Arc::new(MemDevice::with_len(0));
        let cat = SegmentChecksums::open(side.clone(), seg.as_ref(), PAGE_SIZE * 2 + 100).unwrap();
        assert_eq!(cat.pages(), 3);
        let mut page = vec![0u8; PAGE_SIZE as usize];
        seg.read_at(0, &mut page).unwrap();
        assert!(cat.verify(0, &page));
        // Adoption persisted: a second open loads, not re-adopts — mutate
        // the segment first to prove the loaded entries are the old ones.
        seg.write_at(10, &[99]).unwrap();
        let reloaded = SegmentChecksums::open(side, seg.as_ref(), PAGE_SIZE * 2 + 100).unwrap();
        seg.read_at(0, &mut page).unwrap();
        assert!(!reloaded.verify(0, &page), "entry predates the mutation");
    }

    #[test]
    fn tail_page_checksums_cover_actual_length() {
        let len = PAGE_SIZE + 123;
        let seg = seg_with(len, 5);
        let sums = checksums_of(seg.as_ref(), len, 1..2).unwrap();
        assert_eq!(sums, [crc32(&[5u8; 123])]);
        assert_eq!(page_count(len), 2);
    }

    #[test]
    fn verify_detects_a_single_flipped_bit() {
        let seg = seg_with(PAGE_SIZE, 1);
        let side: Arc<dyn Device> = Arc::new(MemDevice::with_len(0));
        let cat = SegmentChecksums::open(side, seg.as_ref(), PAGE_SIZE).unwrap();
        let mut page = vec![1u8; PAGE_SIZE as usize];
        assert!(cat.verify(0, &page));
        page[2048] ^= 0x01;
        assert!(!cat.verify(0, &page));
    }

    #[test]
    fn update_and_persist_survive_reopen() {
        let seg = seg_with(PAGE_SIZE * 2, 3);
        let side: Arc<dyn Device> = Arc::new(MemDevice::with_len(0));
        let cat = SegmentChecksums::open(side.clone(), seg.as_ref(), PAGE_SIZE * 2).unwrap();
        let new_page = vec![9u8; PAGE_SIZE as usize];
        seg.write_at(PAGE_SIZE, &new_page).unwrap();
        cat.update(1, &new_page);
        cat.persist().unwrap();
        let reloaded = SegmentChecksums::open(side, seg.as_ref(), PAGE_SIZE * 2).unwrap();
        assert!(reloaded.verify(1, &new_page));
        assert_eq!(reloaded.expected(1), Some(crc32(&new_page)));
    }

    #[test]
    fn torn_catalog_is_readopted_not_trusted() {
        let seg = seg_with(PAGE_SIZE, 4);
        let side: Arc<dyn Device> = Arc::new(MemDevice::with_len(0));
        let cat = SegmentChecksums::open(side.clone(), seg.as_ref(), PAGE_SIZE).unwrap();
        drop(cat);
        // Corrupt one entry byte without fixing the table CRC: the next
        // open must reject the catalog and re-adopt from the (clean)
        // segment rather than report false corruption.
        let mut b = [0u8; 1];
        side.read_at(HEADER_SIZE, &mut b).unwrap();
        side.write_at(HEADER_SIZE, &[b[0] ^ 0xFF]).unwrap();
        let reloaded = SegmentChecksums::open(side, seg.as_ref(), PAGE_SIZE).unwrap();
        let page = vec![4u8; PAGE_SIZE as usize];
        assert!(reloaded.verify(0, &page));
    }

    /// Pages at or past the zero mark adopt the zero-fill's CRC unread, a
    /// short last page the CRC of its own length: the entries a pass that
    /// reads them computes.
    #[test]
    fn catalog_grows_with_the_segment() {
        use rvm_storage::{FaultClock, FaultDevice};
        for end in [PAGE_SIZE * 3, PAGE_SIZE * 3 + 100] {
            let seg = seg_with(PAGE_SIZE, 6);
            let side: Arc<dyn Device> = Arc::new(MemDevice::with_len(0));
            let cat = SegmentChecksums::open(side, seg.as_ref(), PAGE_SIZE).unwrap();
            assert_eq!(cat.pages(), 1);
            seg.set_len(end).unwrap();
            let clock = FaultClock::new(Vec::new());
            let counted = FaultDevice::with_clock(seg.clone(), clock.clone());
            assert!(cat.adopt(&counted, end, 1).unwrap());
            assert_eq!(clock.ops_seen(), (0, 0, 0), "{end}: nothing read");
            let entries: Vec<u32> = (0..4).map_while(|p| cat.expected(p)).collect();
            assert_eq!(entries, checksums_of(seg.as_ref(), end, 0..4).unwrap());
        }
    }

    #[test]
    fn scrub_report_accumulates_and_judges() {
        let mut report = ScrubReport {
            pages_scanned: 10,
            corruptions_detected: 2,
            corruptions_repaired: 2,
            ..Default::default()
        };
        assert!(report.is_clean());
        report.corruptions_detected += 1;
        assert!(!report.is_clean());
        report.corruptions_repaired += 1;
        report.pages_quarantined = 1;
        assert!(!report.is_clean(), "a quarantine is never clean");
    }

    #[test]
    fn sidecar_names_are_stable() {
        assert_eq!(sidecar_name("seg"), "seg.sums");
        assert_eq!(sidecar_name("/tmp/data"), "/tmp/data.sums");
    }

    /// A handle over `seg` with a freshly adopted catalog.
    fn handle(seg: &Arc<MemDevice>) -> Arc<Segment> {
        Segment::for_test(seg.clone(), Some(Arc::new(MemDevice::with_len(0))))
    }

    /// The handle's (detected, repaired) counts so far.
    fn corruptions(segment: &Segment) -> (u64, u64) {
        let media = &segment.media;
        let detected = media.corruptions_detected.load(Ordering::Relaxed);
        (detected, media.corruptions_repaired.load(Ordering::Relaxed))
    }

    /// What the handle reads back for page 0, and how the read verified.
    fn page0(segment: &Segment) -> (Vec<u8>, VerifiedRead) {
        segment.read_page_for_test(0).unwrap()
    }

    #[test]
    fn apply_tree_keeps_catalog_exact_on_clean_pages() {
        let seg = seg_with(PAGE_SIZE * 2, 1);
        let segment = handle(&seg);
        let tree = [piece(100, &[9; 50])];
        segment
            .apply_pieces(&tree, ApplyContext::Truncation)
            .unwrap();
        segment.finish().unwrap();
        assert_eq!(corruptions(&segment), (0, 0));
        let mut page = vec![1u8; PAGE_SIZE as usize];
        page[100..150].fill(9);
        assert_eq!(page0(&segment), (page, VerifiedRead::Clean));
    }

    #[test]
    fn apply_tree_repairs_a_fully_rewritten_rotted_page() {
        let seg = seg_with(PAGE_SIZE, 2);
        let segment = handle(&seg);
        seg.write_at(50, &[0xEE]).unwrap(); // silent rot
        let tree = [piece(0, &[7; PAGE_SIZE as usize])];
        segment
            .apply_pieces(&tree, ApplyContext::Truncation)
            .unwrap();
        assert_eq!(corruptions(&segment), (1, 1));
        assert_eq!(
            page0(&segment),
            (vec![7u8; PAGE_SIZE as usize], VerifiedRead::Clean)
        );
    }

    #[test]
    fn apply_tree_keeps_a_partially_covered_rotted_page_flagged() {
        let seg = seg_with(PAGE_SIZE, 3);
        let segment = handle(&seg);
        seg.write_at(4000, &[0xEE]).unwrap(); // rot outside the tree span
        let tree = [piece(0, &[8; 64])];
        segment
            .apply_pieces(&tree, ApplyContext::Truncation)
            .unwrap();
        assert_eq!(corruptions(&segment), (1, 0));
        // Committed bytes landed, but the page still fails verification:
        // the rot was not laundered into the catalog.
        let (on_disk, read) = page0(&segment);
        assert_eq!(&on_disk[..64], &[8u8; 64]);
        assert_eq!(read, VerifiedRead::Corrupt);
    }

    #[test]
    fn an_invalidated_catalog_is_readopted_and_an_empty_sidecar_is_left_alone() {
        let seg = seg_with(PAGE_SIZE, 4);
        let side = Arc::new(MemDevice::with_len(0));
        SegmentChecksums::invalidate(side.as_ref()).unwrap();
        assert_eq!(
            side.len().unwrap(),
            0,
            "nothing to invalidate, nothing written"
        );
        SegmentChecksums::open(side.clone(), seg.as_ref(), PAGE_SIZE).unwrap();
        // The segment changes with nobody keeping sums: the catalog is
        // stale, and still validates.
        seg.write_at(10, &[99]).unwrap();
        assert!(SegmentChecksums::load_readonly(side.as_ref())
            .unwrap()
            .is_some());
        SegmentChecksums::invalidate(side.as_ref()).unwrap();
        assert!(SegmentChecksums::load_readonly(side.as_ref())
            .unwrap()
            .is_none());
        let reopened = SegmentChecksums::open(side, seg.as_ref(), PAGE_SIZE).unwrap();
        let mut page = vec![4u8; PAGE_SIZE as usize];
        page[10] = 99;
        assert!(reopened.verify(0, &page), "re-adopted from current content");
    }
}
