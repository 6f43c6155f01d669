//! External data segments (§4.1).
//!
//! A segment is the backing store for recoverable memory — "a file or a raw
//! disk partition"; the distinction is invisible to programs, so segments
//! are named by a string and resolved to a [`Device`] through a
//! [`DeviceResolver`]. The default resolver opens (or creates) regular
//! files; tests and simulations inject resolvers returning shared
//! in-memory or latency-modelled devices.
//!
//! Segment identities are small integers recorded in the log's status
//! block, so crash recovery is self-contained: it can re-resolve every
//! segment the log references without application help.
//!
//! # The handle
//!
//! An instance opens a segment once — recovery, or the first `map` or
//! epoch apply that needs it — into one [`Segment`]: the device, and the
//! checksum catalog ([`SegmentChecksums`]) if
//! [`Tuning::segment_checksums`] was on *at that moment*, the only one
//! the knob is read at. The handles live in one registry
//! ([`OpenSegments`]) and every region of a segment holds the same `Arc`.
//!
//! The handle is the only code that touches a segment device or its
//! sidecar. Bytes reach a segment from two sources — the log (recovery
//! and epoch truncation: [`Segment::apply_pieces`]) and VM (an
//! incremental step's pages, scrub's rewrite rung:
//! [`Segment::write_page`]) — and both end in [`Segment::finish`], the
//! one statement of the write ordering: segment writes → segment sync →
//! catalog persist, and **only then may the caller move the log head**.
//! Bytes leave it through [`Segment::read_run_verified`], one device
//! read per run of pages, where checksum mismatches are detected and
//! counted page by page.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rvm_storage::{Device, DeviceError, FileDevice};

use crate::error::{Result, RvmError};
use crate::log::status::StatusBlock;
use crate::options::{LoadPolicy, Tuning, PAGE_SIZE};
use crate::ranges::{clip_pieces, overlay_pieces, ByteRange, Piece};
use crate::region::{Region, RegionDescriptor, RegionInner, RegionMemory};
use crate::rvm::RvmShared;
use crate::scrub::{sidecar_name, SegmentChecksums, MEDIA_READ_RETRIES};
use crate::stats::MediaCounters;
use crate::sync::{AtomicBool, AtomicU64, Mutex, RwLock};
use crate::truncation::page_vector::PageVector;

/// The most pages one apply read or write moves: one small buffer that
/// stays in cache between read, overlay and write. Runs of 1 MiB were
/// no faster (a memory-device recovery +1.6 %, EXPERIMENTS.md E29).
const APPLY_RUN_PAGES: usize = 4;

/// Identifies a segment within one log's segment table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(u32);

impl SegmentId {
    /// Creates a segment id from its raw table index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw table index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A segment-table entry as persisted in the log status block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment's id.
    pub id: SegmentId,
    /// The name the application mapped it by (a path for file-backed
    /// segments).
    pub name: String,
    /// Smallest device length the segment has been known to need; recovery
    /// grows the device to at least this before applying changes.
    pub min_len: u64,
}

/// Resolves a segment name to a device.
///
/// Called with a name and the length the caller needs at least (the
/// library asks for 0: it grows segments itself); returns at least that.
pub type DeviceResolver =
    Arc<dyn Fn(&str, u64) -> rvm_storage::Result<Arc<dyn Device>> + Send + Sync>;

/// The default resolver: a segment name is a filesystem path, opened if it
/// exists (grown if shorter than needed) or created zero-filled.
pub fn file_resolver() -> DeviceResolver {
    Arc::new(|name: &str, min_len: u64| {
        let dev = FileDevice::open_or_create(name, min_len)?;
        if dev.len()? < min_len {
            dev.set_len(min_len)?;
        }
        Ok(Arc::new(dev) as Arc<dyn Device>)
    })
}

/// Wraps a resolver so every device it hands out injects faults from one
/// shared [`FaultClock`](rvm_storage::FaultClock) schedule.
///
/// This is the fault-injection hook for *segment* devices: recovery and
/// truncation resolve segments through the `Rvm` instance's resolver, so
/// wrapping it puts their writes on the same operation clock as a wrapped
/// log device — which is how the crash-during-recovery matrix places a
/// crash after the K-th device operation anywhere in the system.
pub fn flaky_resolver(
    inner: DeviceResolver,
    clock: Arc<rvm_storage::FaultClock>,
) -> DeviceResolver {
    Arc::new(move |name: &str, min_len: u64| {
        let dev = inner(name, min_len)?;
        Ok(Arc::new(rvm_storage::FaultDevice::with_clock(
            dev,
            Arc::clone(&clock),
        )) as Arc<dyn Device>)
    })
}

/// A resolver over named in-memory devices, for tests and simulation.
///
/// All segments resolved through clones of one `MemResolver` share the same
/// backing images, so a "reboot" (a second `Rvm::initialize`) sees the
/// state an earlier instance persisted.
///
/// # Examples
///
/// ```
/// use rvm::segment::MemResolver;
///
/// let resolver = MemResolver::new();
/// let a = resolver.resolve("seg", 4096).unwrap();
/// let b = resolver.resolve("seg", 4096).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// ```
#[derive(Clone, Default)]
pub struct MemResolver {
    devices:
        Arc<parking_lot::Mutex<std::collections::HashMap<String, Arc<rvm_storage::MemDevice>>>>,
}

impl MemResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating on first use) the named in-memory device.
    pub fn resolve(&self, name: &str, min_len: u64) -> rvm_storage::Result<Arc<dyn Device>> {
        let mut devices = self.devices.lock();
        let dev = devices
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(rvm_storage::MemDevice::with_len(min_len)))
            .clone();
        if dev.len()? < min_len {
            dev.set_len(min_len)?;
        }
        Ok(dev)
    }

    /// Returns the named device if it exists.
    pub fn get(&self, name: &str) -> Option<Arc<rvm_storage::MemDevice>> {
        self.devices.lock().get(name).cloned()
    }

    /// Converts into a [`DeviceResolver`] for [`Options`](crate::Options).
    pub fn into_resolver(self) -> DeviceResolver {
        Arc::new(move |name, min_len| self.resolve(name, min_len))
    }
}

/// Why pieces are being applied — it decides how an unverifiable,
/// partially covered page is treated (see [`Segment::apply_pieces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ApplyContext {
    /// Crash recovery re-applying the redo span: the mismatch is the
    /// crashed apply's torn write, and the post-apply page is re-adopted.
    Recovery,
    /// A live truncation over a healthy instance: the mismatch is genuine
    /// rot, and re-adopting would launder it into a fresh catalog entry.
    Truncation,
}

/// One open data segment: its device and, when the instance opened it
/// with [`Tuning::segment_checksums`] on, its checksum catalog. See the
/// module docs; every region of the segment shares one `Arc<Segment>`.
pub(crate) struct Segment {
    pub(crate) id: SegmentId,
    pub(crate) name: String,
    dev: Arc<dyn Device>,
    catalog: Option<SegmentChecksums>,
    /// Instance-wide media counters (shared with `Stats`).
    pub(crate) media: Arc<MediaCounters>,
}

impl Segment {
    /// Resolves the device as it is and the sidecar, then grows the device
    /// to `min_len`. With `checksums` the catalog is loaded as it is, for
    /// [`Segment::adopt`] to complete; without, a valid one an earlier run
    /// left would go stale yet validate: it is invalidated before a write.
    fn open(
        info: &SegmentInfo,
        min_len: u64,
        resolver: &DeviceResolver,
        checksums: bool,
        media: Arc<MediaCounters>,
    ) -> Result<Self> {
        let dev = resolver(&info.name, 0)?;
        let side = resolver(&sidecar_name(&info.name), 0)?;
        let catalog = if checksums {
            Some(SegmentChecksums::load(side)?)
        } else {
            SegmentChecksums::invalidate(side.as_ref())?;
            None
        };
        let segment = Self {
            id: info.id,
            name: info.name.clone(),
            dev,
            catalog,
            media,
        };
        segment.grow_to(min_len.max(info.min_len))?;
        Ok(segment)
    }

    /// Grows the device to hold `min_len` bytes; the new pages await
    /// adoption. A short last page's entry goes stale as it zero-extends:
    /// unless the page fails it, it is dropped and persisted first.
    fn grow_to(&self, min_len: u64) -> Result<()> {
        let len = self.dev.len()?;
        if len >= min_len {
            return Ok(());
        }
        let (page, short) = ((len / PAGE_SIZE) as usize, (len % PAGE_SIZE) as usize);
        let covered = self.catalog.as_ref().filter(|c| c.pages() > page);
        if let Some(catalog) = covered.filter(|_| short > 0) {
            let mut bytes = vec![0; short];
            self.dev.read_at(len - short as u64, &mut bytes)?;
            if catalog.verify(page, &bytes) {
                catalog.truncate(page);
                catalog.persist()?;
            }
        }
        self.dev.set_len(min_len)?;
        Ok(())
    }

    /// Pages the catalog covers (all of them without one).
    fn covered(&self) -> usize {
        self.catalog
            .as_ref()
            .map_or(usize::MAX, SegmentChecksums::pages)
    }

    /// Adoption, trust-on-first-use: entries for the pages the catalog
    /// does not cover, from one pass over the device, and a persist if it
    /// covers more than `covered` pages. Recovery, an epoch and an
    /// on-demand `map` run it on opening the handle; an eager `map` after
    /// its load, which adopts the region's pages as it reads them
    /// ([`Segment::read_run_verified`]). Until then nothing writes them:
    /// they belong to no mapped region, so no record names them.
    fn adopt(&self, covered: usize) -> Result<()> {
        let Some(catalog) = &self.catalog else {
            return Ok(());
        };
        catalog.adopt(self.dev.as_ref(), self.dev.len()?)?;
        if catalog.pages() > covered {
            catalog.persist()?;
        }
        Ok(())
    }

    /// Whether pages of this segment can be verified at all.
    pub(crate) fn has_catalog(&self) -> bool {
        self.catalog.is_some()
    }

    /// Reads segment pages `first..` into `buf` (whole pages, the last
    /// one short where the segment ends) with one device read, checks
    /// each against the catalog, and counts what it finds. That read is a
    /// page's first: one that fails goes down the ladder alone — up to
    /// [`MEDIA_READ_RETRIES`] more reads by [`Device::read_verified`],
    /// which repairs from a mirror and outlasts transient rot — and
    /// `failed(i, repaired)` hears if page `first + i` was recovered; if
    /// not, the next rung is the caller's. An error from `failed` ends the
    /// run there. Without a catalog every page is clean. The first page
    /// past the catalog's end is adopted from the bytes read: this is how
    /// an eager `map` adopts its region's pages (see [`Segment::adopt`]).
    pub(crate) fn read_run_verified(
        &self,
        first: usize,
        buf: &mut [u8],
        mut failed: impl FnMut(usize, bool) -> Result<()>,
    ) -> Result<()> {
        self.dev.read_at(first as u64 * PAGE_SIZE, buf)?;
        let Some(catalog) = &self.catalog else {
            return Ok(());
        };
        let media = &self.media;
        for (i, image) in buf.chunks_mut(PAGE_SIZE as usize).enumerate() {
            let page = first + i;
            media.pages_scrubbed.fetch_add(1, Ordering::Relaxed);
            if catalog.verify_or_adopt(page, image) {
                continue;
            }
            media.corruptions_detected.fetch_add(1, Ordering::Relaxed);
            let (at, verify) = (page as u64 * PAGE_SIZE, |b: &[u8]| catalog.verify(page, b));
            let repaired = (0..MEDIA_READ_RETRIES).try_fold(false, |ok, _| -> Result<bool> {
                Ok(ok || self.dev.read_verified(at, image, &verify)?.is_verified())
            })?;
            media
                .corruptions_repaired
                .fetch_add(u64::from(repaired), Ordering::Relaxed);
            failed(i, repaired)?;
        }
        Ok(())
    }

    /// Writes one segment's latest-wins pieces (sorted, disjoint — see
    /// [`ValueArena`](crate::ranges::ValueArena)), keeping the checksum
    /// catalog exact — the write path of recovery and epoch truncation.
    /// [`Segment::finish`] must follow.
    ///
    /// Without a catalog this is one write per piece. With one, the
    /// touched pages go in runs of consecutive pages, at most
    /// [`APPLY_RUN_PAGES`]: each run's *pre-apply* image is read under
    /// checksum scrutiny ([`Segment::read_run_verified`]) into one reused
    /// buffer, and the pieces are laid over it.
    ///
    /// A run whose pages all verified (or were repaired) is then written
    /// whole, with one write, from the buffer its new checksums are
    /// computed over. The bytes outside the pieces go back with the values
    /// just read, so however the write tears they are what they were, and
    /// the pieces' bytes are old or new exactly as under piece writes —
    /// which the live log still covers until `finish` has returned and the
    /// head has moved (the argument [`Segment::write_page`] rests on). In
    /// a run with a page that did not, each verified page is written alone.
    ///
    /// A page that did not verify gets its pieces alone, so its remainder
    /// is never copied from the buffer: the best-effort read of one
    /// mirror replica does not overwrite the others, and rot cannot be
    /// laundered into a fresh catalog entry. It gets a new checksum if the
    /// pieces rewrite it completely, or — in the [`ApplyContext::Recovery`]
    /// context — by re-adoption of the post-apply bytes (a torn page
    /// inside the redo footprint is the crash being recovered from, not
    /// rot). Otherwise the stale entry stays, and the page keeps failing
    /// verification until a mirror, a scrub rung, or quarantine resolves
    /// it.
    pub(crate) fn apply_pieces(&self, pieces: &[Piece<'_>], ctx: ApplyContext) -> Result<()> {
        let Some(catalog) = &self.catalog else {
            for piece in pieces {
                self.dev.write_at(piece.start, piece.data)?;
            }
            return Ok(());
        };
        let seg_len = self.dev.len()?;
        if let Some(last) = pieces.last().filter(|p| p.end() > seg_len) {
            // A page write stops at the device's end: refuse here what a
            // piece write would have been refused there.
            return Err(DeviceError::OutOfBounds {
                offset: last.start,
                len: last.data.len() as u64,
                device_len: seg_len,
            }
            .into());
        }
        let mut run_buf = vec![0u8; APPLY_RUN_PAGES * PAGE_SIZE as usize];
        // Pieces not yet wholly behind the walk: the first of them names
        // the next touched page.
        let mut ahead = pieces;
        let mut next_page = 0usize;
        while let Some(first) = ahead.first() {
            let first_page = next_page.max((first.start / PAGE_SIZE) as usize);
            let cap = first_page + APPLY_RUN_PAGES;
            // The run takes the next page while a piece touches it.
            let mut end_page = first_page + 1;
            for piece in ahead {
                if end_page >= cap || (piece.start / PAGE_SIZE) as usize > end_page {
                    break;
                }
                end_page = end_page.max(piece.end().div_ceil(PAGE_SIZE) as usize);
            }
            let end_page = end_page.min(cap);
            let run_start = first_page as u64 * PAGE_SIZE;
            let run_end = (end_page as u64 * PAGE_SIZE).min(seg_len);
            let run_len = (run_end - run_start) as usize;
            let buf = run_buf.get_mut(..run_len).unwrap_or_default();
            let mut unverified = 0u32; // bit `i`: page `first_page + i` failed
            self.read_run_verified(first_page, buf, |i, repaired| {
                unverified |= u32::from(!repaired) << i;
                Ok(())
            })?;
            let mixed = unverified != 0;
            for (i, image) in buf.chunks_mut(PAGE_SIZE as usize).enumerate() {
                let (page, plen) = (first_page + i, image.len());
                let page_start = page as u64 * PAGE_SIZE;
                let (_, here) = ahead.split_at(ahead.partition_point(|p| p.end() <= page_start));
                let covered_bytes = overlay_pieces(here, page_start, PAGE_SIZE, image);
                if unverified & 1 << i == 0 {
                    if mixed {
                        self.dev.write_at(page_start, image)?;
                    }
                    catalog.update(page, image);
                    continue;
                }
                for (at, part) in clip_pieces(here, page_start, PAGE_SIZE) {
                    self.dev.write_at(at, part)?;
                }
                // Rewritten whole, rot is repaired. Partly covered in
                // recovery, the post-apply page (device remainder + piece
                // data) is the committed image — re-adopted, counted as
                // detected only: a mirror had its chance in the read, and
                // rot beside the tear being redone looks the same.
                let whole = covered_bytes == plen as u64;
                let media = &self.media;
                media
                    .corruptions_repaired
                    .fetch_add(u64::from(whole), Ordering::Relaxed);
                if whole || ctx == ApplyContext::Recovery {
                    catalog.update(page, image);
                }
            }
            if !mixed {
                self.dev.write_at(run_start, buf)?;
            }
            next_page = end_page;
            let behind = ahead.iter().take_while(|p| p.end() <= run_end).count();
            ahead = ahead.get(behind..).unwrap_or_default();
        }
        Ok(())
    }

    /// Writes the whole segment page `page` and records its checksum — a
    /// page out of VM: an incremental step's, or scrub's rewrite rung.
    /// [`Segment::finish`] must follow.
    pub(crate) fn write_page(&self, page: usize, image: &[u8]) -> Result<()> {
        self.dev.write_at(page as u64 * PAGE_SIZE, image)?;
        if let Some(catalog) = &self.catalog {
            catalog.update(page, image);
        }
        Ok(())
    }

    /// Makes everything written since the last call durable: segment
    /// sync, then catalog persist. Only after it returns may the caller
    /// move the log head past the records that produced the writes; a
    /// crash before then finds them still in the live log, which rewrites
    /// the pages and recomputes their checksums before anything verifies.
    pub(crate) fn finish(&self) -> Result<()> {
        self.dev.sync()?;
        if let Some(catalog) = &self.catalog {
            catalog.persist()?;
        }
        Ok(())
    }
}

/// Segment `id`'s entry in the durable segment table, which must hold
/// its first `end` bytes. `map` persists a segment's length before any
/// record can reach into it, so a record past it is corruption: a forged
/// offset that would otherwise grow the segment without bound.
pub(crate) fn table_entry(table: &[SegmentInfo], id: SegmentId, end: u64) -> Result<&SegmentInfo> {
    let absent = || RvmError::BadLog(format!("segment id {id} is absent from the segment table"));
    let info = table.iter().find(|s| s.id == id).ok_or_else(absent)?;
    if end > info.min_len {
        let (name, len) = (&info.name, info.min_len);
        let msg =
            format!("a record writes segment '{name}' up to byte {end}, past its {len} bytes");
        return Err(RvmError::BadLog(msg));
    }
    Ok(info)
}

/// The segments this instance has opened, by raw id: the one registry.
/// Behind its own reader/writer lock so `query` reads mirror health
/// without `core`; the guard is never held across device I/O.
pub(crate) struct OpenSegments {
    resolver: DeviceResolver,
    pub(crate) media: Arc<MediaCounters>,
    handles: RwLock<HashMap<u32, Arc<Segment>>>,
}

impl OpenSegments {
    pub(crate) fn new(resolver: DeviceResolver, media: Arc<MediaCounters>) -> Self {
        Self {
            resolver,
            media,
            handles: RwLock::default(),
        }
    }

    /// [`OpenSegments::open`], then [`Segment::adopt`]: recovery's and
    /// an epoch's handle.
    pub(crate) fn get(
        &self,
        table: &[SegmentInfo],
        id: SegmentId,
        min_len: u64,
        tuning: &RwLock<Tuning>,
    ) -> Result<Arc<Segment>> {
        let segment = self.open(table, id, min_len, tuning)?;
        segment.adopt(segment.covered())?;
        Ok(segment)
    }

    /// The handle of segment `id`, grown to hold `min_len` bytes (the new
    /// pages not adopted); opened on first use from its entry in `table`
    /// (the durable segment table: the status block's at recovery,
    /// `Core::segments` after, which every caller holds). That first use
    /// is the one moment [`Tuning::segment_checksums`] is read.
    fn open(
        &self,
        table: &[SegmentInfo],
        id: SegmentId,
        min_len: u64,
        tuning: &RwLock<Tuning>,
    ) -> Result<Arc<Segment>> {
        let cached = self.handles.read().get(&id.as_u32()).cloned();
        if let Some(segment) = cached {
            segment.grow_to(min_len)?;
            return Ok(segment);
        }
        let info = table_entry(table, id, min_len)?;
        let checksums = tuning.read().segment_checksums;
        let media = self.media.clone();
        let segment = Segment::open(info, min_len, &self.resolver, checksums, media)?;
        // Double-checked insert: if another opener of the same segment
        // won the race, keep (and hand out) its handle.
        let mut handles = self.handles.write();
        Ok(handles
            .entry(id.as_u32())
            .or_insert(Arc::new(segment))
            .clone())
    }

    /// `(alive, total)` replica counts summed over every open segment on
    /// a mirrored device; plain devices contribute nothing.
    pub(crate) fn replica_health(&self) -> (usize, usize) {
        let handles = self.handles.read();
        let health = handles.values().filter_map(|s| s.dev.replica_health());
        health.fold((0, 0), |(a, t), (alive, total)| (a + alive, t + total))
    }
}

impl RvmShared {
    /// [`Rvm::map_with`](crate::Rvm::map_with) past its argument checks:
    /// one hold of the core lock.
    pub(crate) fn map_region(&self, desc: &RegionDescriptor, policy: LoadPolicy) -> Result<Region> {
        let mut core = self.core.lock();

        // Enter the segment into the durable table on first sight (or grow
        // its recorded length), and persist the table under the hold that
        // changed it, before anything can fail: the table must be durable
        // before any record references the id, and a later `map` that
        // finds the entry by name may commit such records.
        let min_len = desc.offset + desc.len;
        let (seg_id, status_dirty) = match core.segments.iter_mut().find(|s| s.name == desc.segment)
        {
            Some(info) => {
                let grew = info.min_len < min_len;
                info.min_len = info.min_len.max(min_len);
                (info.id, grew)
            }
            None => {
                if !StatusBlock::segments_fit(&core.segments, desc.segment.len()) {
                    return Err(RvmError::SegmentTableFull);
                }
                let id = SegmentId::new(core.segments.len() as u32);
                let name = desc.segment.clone();
                core.segments.push(SegmentInfo { id, name, min_len });
                (id, true)
            }
        };
        if status_dirty {
            let r = self.write_status_locked(&mut core);
            self.guard_io(r)?;
        }
        // §4.1 mapping rules: no region mapped twice, no overlap. Every
        // segment byte no mapped region covers is current on its device
        // (`Rvm::unmap` writes a region back before it leaves `regions`),
        // so the range's committed image is what the segment holds. The
        // check and the insert share this hold: of two overlapping maps,
        // one fails.
        let new_range = ByteRange::at(desc.offset, desc.len);
        let taken = self.regions.read().values().find_map(|r| {
            let existing = ByteRange::at(r.seg_offset, r.len);
            let overlaps = new_range.start < existing.end && existing.start < new_range.end;
            (r.segment.id == seg_id && overlaps).then_some(existing)
        });
        if let Some(ByteRange { start, end }) = taken {
            return Err(RvmError::BadMapping(format!(
                "[{}, {}) of '{}' overlaps the mapped region [{start}, {end})",
                new_range.start, new_range.end, desc.segment
            )));
        }

        let segment = self
            .open_segments
            .open(&core.segments, seg_id, min_len, &self.tuning)?;
        let covered = segment.covered();
        let inner = Arc::new(RegionInner {
            id: self.next_region_id.fetch_add(1, Ordering::Relaxed),
            segment: segment.clone(),
            seg_offset: desc.offset,
            len: desc.len,
            mem: RegionMemory::alloc(desc.len as usize),
            mem_lock: RwLock::new(()),
            uncommitted_txns: AtomicU64::new(0),
            page_vector: Mutex::new(PageVector::new(desc.len)),
            unloaded: Mutex::new(Some(vec![true; desc.len.div_ceil(PAGE_SIZE) as usize])),
            fully_loaded: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
        });
        // An eager load is the region's adoption: each page is read once,
        // into VM, and its entry is the CRC of those bytes. The catalog is
        // a dense prefix, so the pages below the region are adopted first.
        let loaded = match (policy, &segment.catalog) {
            (LoadPolicy::OnDemand, _) => Ok(()),
            (LoadPolicy::Eager, None) => inner.ensure_loaded(0, desc.len),
            (LoadPolicy::Eager, Some(catalog)) => catalog
                .adopt(segment.dev.as_ref(), desc.offset)
                .and_then(|_| inner.ensure_loaded(0, desc.len)),
        };
        segment.adopt(covered)?;
        loaded?;
        self.regions.write().insert(inner.id, inner.clone());
        Ok(Region { inner })
    }
}

#[cfg(test)]
use rvm_storage::VerifiedRead;

#[cfg(test)]
impl Segment {
    /// A standalone handle over `dev`, adopting a catalog on `side` if
    /// one is given.
    pub(crate) fn for_test(dev: Arc<dyn Device>, side: Option<Arc<dyn Device>>) -> Arc<Self> {
        let catalog = side.map(|side| {
            let len = dev.len().expect("len");
            SegmentChecksums::open(side, dev.as_ref(), len).expect("open catalog")
        });
        Arc::new(Self {
            id: SegmentId::new(0),
            name: "test-segment".to_owned(),
            dev,
            catalog,
            media: Arc::default(),
        })
    }

    /// Segment page `page` as a run of one, and how it verified.
    pub(crate) fn read_page_for_test(&self, page: usize) -> Result<(Vec<u8>, VerifiedRead)> {
        let mut image = vec![0u8; PAGE_SIZE as usize];
        let mut read = VerifiedRead::Clean;
        let failed = |_, repaired| {
            read = [VerifiedRead::Corrupt, VerifiedRead::Repaired][usize::from(repaired)];
            Ok(())
        };
        self.read_run_verified(page, &mut image, failed)?;
        Ok((image, read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_id_round_trip_and_display() {
        let id = SegmentId::new(7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(id.to_string(), "seg7");
    }

    #[test]
    fn mem_resolver_shares_devices_by_name() {
        let r = MemResolver::new();
        let a = r.resolve("x", 100).unwrap();
        a.write_at(0, &[42]).unwrap();
        let b = r.resolve("x", 100).unwrap();
        let mut buf = [0u8; 1];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 42);
        assert!(r.get("x").is_some());
        assert!(r.get("y").is_none());
    }

    #[test]
    fn mem_resolver_grows_devices() {
        let r = MemResolver::new();
        let a = r.resolve("x", 10).unwrap();
        assert_eq!(a.len().unwrap(), 10);
        let b = r.resolve("x", 100).unwrap();
        assert_eq!(b.len().unwrap(), 100);
    }

    #[test]
    fn flaky_resolver_injects_on_resolved_devices() {
        use rvm_storage::{FaultClock, FaultOp, FlakyFault};
        let clock = FaultClock::new(vec![FlakyFault::transient(FaultOp::Write, 1)]);
        let r = flaky_resolver(MemResolver::new().into_resolver(), clock);
        let dev = r("x", 64).unwrap();
        assert!(dev.write_at(0, &[1]).unwrap_err().is_transient());
        dev.write_at(0, &[1]).unwrap();
    }

    #[test]
    fn file_resolver_creates_and_grows() {
        let mut path = std::env::temp_dir();
        path.push(format!("rvm-seg-test-{}", std::process::id()));
        let name = path.to_str().unwrap().to_owned();
        let r = file_resolver();
        let dev = r(&name, 64).unwrap();
        assert_eq!(dev.len().unwrap(), 64);
        drop(dev);
        let dev = r(&name, 128).unwrap();
        assert_eq!(dev.len().unwrap(), 128);
        std::fs::remove_file(&path).unwrap();
    }

    /// Page writes against the reference that writes the pieces one by
    /// one: over random pre-images and random sorted disjoint pieces —
    /// short ones, ones that span pages, ones that end on the segment's
    /// short last page — the segment holds the same bytes and the
    /// catalog an exact entry for every page, in both contexts.
    #[test]
    fn page_writes_match_piece_writes_on_verified_pages() {
        use rand::{rngs::StdRng, RngCore, RngExt, SeedableRng};
        const LEN: u64 = 5 * PAGE_SIZE + 1000;
        let mut rng = StdRng::seed_from_u64(21);
        let seeded_bytes = |rng: &mut StdRng, len: u64| {
            let mut bytes = vec![0u8; len as usize];
            rng.fill_bytes(&mut bytes);
            bytes
        };
        for trial in 0..60 {
            let ctx = [ApplyContext::Recovery, ApplyContext::Truncation][trial % 2];
            let image = seeded_bytes(&mut rng, LEN);
            let mut payloads: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut at = rng.random_range(0..6000u64);
            while payloads.len() < 40 && at < LEN {
                let len = match rng.random_range(0..8) {
                    0 => rng.random_range(1..=9000u64), // spans pages
                    _ => rng.random_range(1..=300u64),
                };
                let len = len.min(LEN - at);
                payloads.push((at, seeded_bytes(&mut rng, len)));
                // Adjacent now and then, else a gap that may skip pages.
                at += len + rng.random_range(0..4u64) * rng.random_range(0..3000u64);
            }
            let pieces: Vec<Piece<'_>> = payloads
                .iter()
                .map(|(start, data)| Piece {
                    seg: 0,
                    start: *start,
                    data,
                })
                .collect();

            let reference = rvm_storage::MemDevice::from_image(image.clone());
            for piece in &pieces {
                reference.write_at(piece.start, piece.data).unwrap();
            }
            let expected = reference.snapshot();

            let dev = Arc::new(rvm_storage::MemDevice::from_image(image));
            let side = Arc::new(rvm_storage::MemDevice::with_len(0));
            let segment = Segment::for_test(dev.clone(), Some(side));
            segment.apply_pieces(&pieces, ctx).unwrap();
            segment.finish().unwrap();

            assert_eq!(dev.snapshot(), expected, "trial {trial} ({ctx:?})");
            let catalog = segment.catalog.as_ref().unwrap();
            for (page, bytes) in expected.chunks(PAGE_SIZE as usize).enumerate() {
                assert!(catalog.verify(page, bytes), "trial {trial} page {page}");
            }
            let media = &segment.media;
            assert_eq!(media.corruptions_detected.load(Ordering::Relaxed), 0);
        }
    }

    /// A page that does not verify is never written from the page buffer:
    /// with each replica of a mirror rotten in a *different* byte outside
    /// the pieces, a whole-page write would copy one replica's rot over
    /// the other's good byte. Each keeps its own remainder, the committed
    /// bytes land on both, and the stale entry keeps the page flagged.
    #[test]
    fn an_unverified_page_gets_its_pieces_alone_on_every_replica() {
        let len = 2 * PAGE_SIZE;
        let replicas: Vec<Arc<rvm_storage::MemDevice>> = (0..2)
            .map(|_| Arc::new(rvm_storage::MemDevice::from_image(vec![0x11; len as usize])))
            .collect();
        let mirror = rvm_storage::MirrorDevice::new(
            replicas
                .iter()
                .map(|r| r.clone() as Arc<dyn Device>)
                .collect(),
        )
        .unwrap();
        let side = Arc::new(rvm_storage::MemDevice::with_len(0));
        let segment = Segment::for_test(Arc::new(mirror), Some(side));
        replicas[0].write_at(3000, &[0xA0]).unwrap(); // silent rot, page 0
        replicas[1].write_at(3500, &[0xB1]).unwrap();

        let pieces = [
            Piece {
                seg: 0,
                start: 0,
                data: &[7; 64],
            },
            // Page 1 verifies: written whole, to both replicas.
            Piece {
                seg: 0,
                start: PAGE_SIZE + 10,
                data: &[8; 10],
            },
        ];
        segment
            .apply_pieces(&pieces, ApplyContext::Truncation)
            .unwrap();
        segment.finish().unwrap();

        let mut expected = vec![0x11u8; len as usize];
        expected[..64].fill(7);
        expected[PAGE_SIZE as usize + 10..PAGE_SIZE as usize + 20].fill(8);
        let mut first = expected.clone();
        first[3000] = 0xA0;
        let mut second = expected;
        second[3500] = 0xB1;
        assert!(replicas[0].snapshot() == first, "replica 0");
        assert!(replicas[1].snapshot() == second, "replica 1");

        let (_, read) = segment.read_page_for_test(0).unwrap();
        assert_eq!(read, VerifiedRead::Corrupt, "nothing was laundered");
        let (_, read) = segment.read_page_for_test(1).unwrap();
        assert_eq!(read, VerifiedRead::Clean);
        let media = &segment.media;
        assert_eq!(media.corruptions_repaired.load(Ordering::Relaxed), 0);
    }
}
