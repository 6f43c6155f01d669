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
//! Bytes leave it through [`Segment::read_page_verified`], where
//! checksum mismatches are detected and counted.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use rvm_storage::{Device, DeviceError, FileDevice, VerifiedRead};

use crate::error::{Result, RvmError};
use crate::log::status::StatusBlock;
use crate::options::{LoadPolicy, Tuning, PAGE_SIZE};
use crate::ranges::{clip_pieces, overlay_pieces, ByteRange, Piece};
use crate::region::{Region, RegionDescriptor, RegionInner, RegionMemory};
use crate::rvm::RvmShared;
use crate::scrub::{page_len, sidecar_name, SegmentChecksums, MEDIA_READ_RETRIES};
use crate::stats::MediaCounters;
use crate::truncation::page_vector::PageVector;

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
/// Called with the segment's name and the minimum length the caller needs;
/// the returned device must be at least that long.
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
        Ok(Arc::new(rvm_storage::FlakyDevice::with_clock(
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
    /// Resolves the device (at least `min_len` long) and the sidecar.
    /// With `checksums` the catalog is loaded, or adopted from the
    /// segment's current content. Without, this instance is about to
    /// write the segment and keep no sums: a valid catalog an earlier run
    /// left would go stale and still validate, so it is invalidated
    /// *now* — before the first write — and the next run re-adopts.
    fn open(
        info: &SegmentInfo,
        min_len: u64,
        resolver: &DeviceResolver,
        checksums: bool,
        media: Arc<MediaCounters>,
    ) -> Result<Self> {
        let needed = min_len.max(info.min_len);
        let dev = resolver(&info.name, needed)?;
        if dev.len()? < needed {
            dev.set_len(needed)?;
        }
        let side = resolver(&sidecar_name(&info.name), 0)?;
        let catalog = if checksums {
            Some(SegmentChecksums::open(side, dev.as_ref(), dev.len()?)?)
        } else {
            SegmentChecksums::invalidate(side.as_ref())?;
            None
        };
        Ok(Self {
            id: info.id,
            name: info.name.clone(),
            dev,
            catalog,
            media,
        })
    }

    /// Grows the device to hold `min_len` bytes and the catalog to cover
    /// the device (a later `map` reaching past what the first one saw).
    fn grow_to(&self, min_len: u64) -> Result<()> {
        if self.dev.len()? < min_len {
            self.dev.set_len(min_len)?;
        }
        if let Some(catalog) = &self.catalog {
            catalog.ensure_covers(self.dev.as_ref(), self.dev.len()?)?;
        }
        Ok(())
    }

    /// Whether pages of this segment can be verified at all.
    pub(crate) fn has_catalog(&self) -> bool {
        self.catalog.is_some()
    }

    /// Plain ranged read, no scrutiny: the one-call map-time load of a
    /// segment without a catalog.
    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        Ok(self.dev.read_at(offset, buf)?)
    }

    /// Reads segment page `page` into `buf` under checksum scrutiny and
    /// counts what it finds: mirror read-repair via
    /// [`Device::read_verified`], then up to [`MEDIA_READ_RETRIES`]
    /// re-reads to rule out transient (in-flight) corruption.
    /// [`VerifiedRead::Repaired`] means the first read failed
    /// verification but a repair or re-read recovered the page;
    /// [`VerifiedRead::Corrupt`] leaves the next rung of the repair
    /// ladder to the caller. Without a catalog every read is clean.
    pub(crate) fn read_page_verified(&self, page: usize, buf: &mut [u8]) -> Result<VerifiedRead> {
        let page_off = page as u64 * PAGE_SIZE;
        let Some(catalog) = &self.catalog else {
            self.dev.read_at(page_off, buf)?;
            return Ok(VerifiedRead::Clean);
        };
        let verify = |b: &[u8]| catalog.verify(page, b);
        let mut read = self.dev.read_verified(page_off, buf, &verify)?;
        for _ in 0..MEDIA_READ_RETRIES {
            if read.is_verified() {
                break;
            }
            read = match self.dev.read_verified(page_off, buf, &verify)? {
                VerifiedRead::Clean => VerifiedRead::Repaired,
                read => read,
            };
        }
        let media = &self.media;
        media.pages_scrubbed.fetch_add(1, Ordering::Relaxed);
        if read != VerifiedRead::Clean {
            media.corruptions_detected.fetch_add(1, Ordering::Relaxed);
        }
        if read == VerifiedRead::Repaired {
            media.corruptions_repaired.fetch_add(1, Ordering::Relaxed);
        }
        Ok(read)
    }

    /// Writes one segment's latest-wins pieces (sorted, disjoint — see
    /// [`latest_pieces`](crate::ranges::latest_pieces)), keeping the
    /// checksum catalog exact — the write path of recovery and epoch
    /// truncation. [`Segment::finish`] must follow.
    ///
    /// Without a catalog this is one write per piece. With one, every
    /// touched page's *pre-apply* image is read under checksum scrutiny
    /// ([`Segment::read_page_verified`], which counts the detections) and
    /// the pieces are laid over it, in one ascending walk through one
    /// reused page buffer.
    ///
    /// A page that verified (or was repaired) is then written once, whole,
    /// from the buffer its new checksum is computed over. The bytes
    /// outside the pieces go back with the values just read, so however
    /// the write tears they are what they were, and the pieces' bytes are
    /// old or new exactly as under piece writes — which the live log
    /// still covers until `finish` has returned and the head has moved
    /// (the argument [`Segment::write_page`] rests on).
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
        let mut page_buf = vec![0u8; PAGE_SIZE as usize];
        // Pieces not yet wholly behind the walk: the first of them names
        // the next touched page.
        let mut ahead = pieces;
        let mut next_page = 0usize;
        while let Some(first) = ahead.first() {
            let page = next_page.max((first.start / PAGE_SIZE) as usize);
            let page_start = page as u64 * PAGE_SIZE;
            let plen = page_len(seg_len, page);
            let buf = page_buf.get_mut(..plen).unwrap_or_default();
            let verified = self.read_page_verified(page, buf)?.is_verified();
            let covered_bytes = overlay_pieces(ahead, page_start, PAGE_SIZE, buf);
            if verified {
                self.dev.write_at(page_start, buf)?;
                catalog.update(page, buf);
            } else {
                for (at, part) in clip_pieces(ahead, page_start, PAGE_SIZE) {
                    self.dev.write_at(at, part)?;
                }
                if covered_bytes == plen as u64 {
                    // Rot, wherever it was, is rewritten whole: repaired.
                    let media = &self.media;
                    media.corruptions_repaired.fetch_add(1, Ordering::Relaxed);
                    catalog.update(page, buf);
                } else if ctx == ApplyContext::Recovery {
                    // Unverifiable and only partially covered, but this is
                    // the redo of a crashed apply: the tear that explains
                    // the mismatch lies inside the covered ranges just
                    // rewritten, so the post-apply page (device remainder
                    // + piece data) is the committed image — re-adopt it.
                    // Counted as detected but not repaired: a mirror
                    // already had its chance in the read, and rot that
                    // struck the uncovered remainder during the same
                    // window is indistinguishable from the tear here.
                    catalog.update(page, buf);
                }
                // else: live truncation over a partially-covered,
                // unverifiable page — the committed ranges are still
                // authoritative for their bytes, but the stale entry stays.
            }
            next_page = page + 1;
            let page_end = page_start + PAGE_SIZE;
            let behind = ahead.iter().take_while(|p| p.end() <= page_end).count();
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

    /// The handle of segment `id`, grown to hold `min_len` bytes; opened
    /// on first use from its entry in `table` (the durable segment
    /// table: the status block's at recovery, `Core::segments` after,
    /// which every caller holds). That first use is the one moment
    /// [`Tuning::segment_checksums`] is read.
    pub(crate) fn get(
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
        let info = table.iter().find(|s| s.id == id).ok_or_else(|| {
            RvmError::BadLog(format!("segment id {id} is absent from the segment table"))
        })?;
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
    /// [`Rvm::map_with`](crate::Rvm::map_with) past its argument checks.
    pub(crate) fn map_region(&self, desc: &RegionDescriptor, policy: LoadPolicy) -> Result<Region> {
        let mut core = self.core.lock();

        // Enter the segment into the durable table on first sight (or grow
        // its recorded length), and persist the table under the hold that
        // changed it, before anything can fail or release the core lock —
        // the settle below does: the table must be durable before any
        // record references the id, and a concurrent `map` that finds the
        // entry by name may commit such records.
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
        let segment = self
            .open_segments
            .get(&core.segments, seg_id, min_len, &self.tuning)?;

        // Guarantee the mapped image is the committed one. While no
        // mapped region overlaps the new range nothing can commit into
        // it, so what must reach the device first is fixed the moment
        // that is observed: the spool and the live log — both below the
        // tail once the barrier returns. Later commits to
        // *other* regions of the segment are not waited for, which bounds
        // the rounds under load. Every round releases the core lock, so
        // each looks again, and the last look shares its hold with the
        // insert below.
        let seg_raw = seg_id.as_u32();
        let new_range = ByteRange::at(desc.offset, desc.len);
        // (log offset to apply through, `next_region_id` when it was taken)
        let mut settle: Option<(u64, u64)> = None;
        loop {
            // §4.1 mapping rules: no region mapped twice, no overlap.
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
            // A `map` that completed while the lock was released may have
            // mapped, committed into and unmapped an overlapping range:
            // take the offset again.
            let maps = self.next_region_id.load(Ordering::Relaxed);
            let through = match settle {
                Some((through, seen)) if seen == maps => through,
                _ => {
                    let referenced = core.segs_in_log.contains(&seg_raw)
                        || self.spool.references(seg_id)
                        || core
                            .truncation
                            .as_ref()
                            .is_some_and(|t| t.segs.contains(&seg_raw));
                    if !referenced {
                        break;
                    }
                    MutexGuard::unlocked(&mut core, || self.flush_barrier())?;
                    settle = Some((core.wal.tail(), maps));
                    continue;
                }
            };
            if core.wal.head() >= through {
                break;
            }
            let r = self.make_log_space(&mut core);
            if !self.guard_io(r)? {
                break; // nothing live below the tail
            }
        }

        let inner = Arc::new(RegionInner {
            id: self.next_region_id.fetch_add(1, Ordering::Relaxed),
            segment,
            seg_offset: desc.offset,
            len: desc.len,
            mem: RegionMemory::alloc(desc.len as usize),
            mem_lock: RwLock::new(()),
            mapped: AtomicBool::new(true),
            uncommitted_txns: AtomicU64::new(0),
            page_vector: Mutex::new(PageVector::new(desc.len)),
            unloaded: Mutex::new(match policy {
                LoadPolicy::Eager => None,
                LoadPolicy::OnDemand => Some(vec![true; desc.len.div_ceil(PAGE_SIZE) as usize]),
            }),
            fully_loaded: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
        });
        if policy == LoadPolicy::Eager {
            inner.load_from_segment()?;
        }
        self.regions.write().insert(inner.id, inner.clone());
        Ok(Region { inner })
    }
}

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

        let mut page = vec![0u8; PAGE_SIZE as usize];
        let read = segment.read_page_verified(0, &mut page).unwrap();
        assert_eq!(read, VerifiedRead::Corrupt, "nothing was laundered");
        let read = segment.read_page_verified(1, &mut page).unwrap();
        assert_eq!(read, VerifiedRead::Clean);
        let media = &segment.media;
        assert_eq!(media.corruptions_repaired.load(Ordering::Relaxed), 0);
    }
}
