//! The truncation plane (§5.1.2).
//!
//! Truncation "is the process of reclaiming space allocated to log entries
//! by applying the changes contained in them to the recoverable data
//! segment". There is one in-flight protocol and two sources of bytes:
//!
//! 1. **Freeze** (core lock held): decide what will be applied, take it
//!    out of the page queue and take the in-flight slot
//!    ([`InFlight`], `Core::truncation`).
//! 2. **Apply** (core lock *released*): write the segments, sync them,
//!    persist their checksum catalogs — while commits keep appending.
//! 3. **Complete** (core lock reacquired): move the log head, settle the
//!    dirty bits of the pages taken at the freeze, persist the status
//!    block, free the slot and wake everyone parked on
//!    `truncation_done`.
//!
//! * **Incremental truncation** ([`incremental`], the threshold trigger)
//!   takes its bytes from VM: a *step* freezes the committed images of
//!   the pages at the head of the FIFO [`PageQueue`] of page modification
//!   descriptors (Figure 7, coordinated by the per-region
//!   [`page_vector`]), and the head follows the queue. No log scan.
//! * **Epoch truncation** ([`epoch`]) takes them from the log: the
//!   crash-recovery procedure ([`recovery::apply_span`](crate::recovery))
//!   applied to the frozen stable prefix, exactly as the paper reused its
//!   recovery code. It is the explicit `truncate()`, an `unmap`'s
//!   write-back, and what a step falls back to when the queue head is
//!   blocked or the log is full.
//!
//! One slot means one segment writer and one mover of the head at a time,
//! and one set of waiters for both mechanisms: `make_log_space`,
//! `truncate_now`, `scrub` and the trigger all look at
//! `Core::truncation` and park on `truncation_done`.
//!
//! The rest of the crate reaches in through three doors, each on the
//! caller's thread (the library spawns none): `truncate_now` (the
//! explicit call), `request_truncation` (the threshold trigger: a commit
//! that left the log above it runs steps), and `make_log_space` (a
//! holder of the core lock that cannot go on without room in the log).

mod epoch;
mod incremental;
pub mod page_vector;

pub(crate) use incremental::StepBatch;

use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::log::wal::WalCheckpoint;
use crate::region::RegionInner;
use crate::rvm::{Core, RvmShared};
use crate::sync::AtomicUsize;

/// The truncation in flight: its owner froze what it applies under the
/// core lock and is now writing segments with the lock released. Holds
/// what *other* threads need to know meanwhile; the owner keeps the rest
/// (the descriptors it took, a step's page images) to itself.
pub(crate) struct InFlight {
    /// An epoch's frozen span ends here (tail and `next_seq` of the log
    /// at the freeze), persisted in the status block until the epoch
    /// completes. `None` for an incremental step, which freezes pages,
    /// not a span, and leaves the status block alone until it completes.
    pub(crate) boundary: Option<WalCheckpoint>,
}

/// A set of library-chosen ids — region and page, segment: no caller
/// picks them, so SipHash's flood resistance buys nothing on a path every
/// flush commit takes.
pub(crate) type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// A fixed multiply-rotate hash over a key's 8-byte words, rotated at the
/// end to bring the mixed high bits down to the low ones a table indexes.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le.iter_mut().zip(word).for_each(|(to, from)| *to = *from);
            let mixed = self.0.rotate_left(5) ^ u64::from_le_bytes(le);
            self.0 = mixed.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

impl RvmShared {
    /// Takes the in-flight slot; the caller found it free under this hold
    /// of the core lock.
    fn begin_in_flight(&self, core: &mut Core, slot: InFlight) {
        debug_assert!(core.truncation.is_none(), "one truncation at a time");
        core.truncation = Some(slot);
        self.truncation_active.store(true, Ordering::Release);
    }

    /// Frees the in-flight slot. The owner notifies `truncation_done`
    /// once the outcome (poison included) is settled.
    fn end_in_flight(&self, core: &mut Core) -> Option<InFlight> {
        self.truncation_active.store(false, Ordering::Release);
        core.truncation.take()
    }

    /// Settles the dirty bits of pages whose descriptors a truncation
    /// took at its freeze and has now applied. A page not re-dirtied
    /// during the apply is clean: its latest committed bytes are on the
    /// segment. One re-enqueued by a commit that landed during the apply
    /// keeps its new descriptor and its dirty bit; one with spooled
    /// (unflushed) data stays dirty too.
    fn settle_drained(core: &Core, drained: &[PageDesc]) {
        for desc in drained {
            let requeued = core.page_queue.contains(desc.region.id, desc.page);
            if requeued && !core.hooks.clear_dirty_on_requeued {
                continue;
            }
            let mut pv = desc.region.page_vector.lock();
            let entry = pv.entry_mut(desc.page);
            if entry.unflushed == 0 {
                entry.dirty = false;
            }
        }
    }
}

/// A page modification descriptor (Figure 7): the log offset and sequence
/// number of the *first* record referencing the page since it was last
/// clean.
pub(crate) struct PageDesc {
    /// The owning region, which stays mapped while the page is dirty
    /// (`unmap` writes a dirty region back first).
    pub region: Arc<RegionInner>,
    /// Page index within the region.
    pub page: usize,
    /// Logical log offset of the first record referencing this page.
    pub offset: u64,
    /// Sequence number of that record.
    pub seq: u64,
}

/// FIFO queue of page modification descriptors.
///
/// "The queue contains no duplicate page references: a page is mentioned
/// only in the earliest descriptor in which it could appear." Because
/// records are enqueued in append order, descriptor offsets are
/// non-decreasing, so the head of the queue always bounds how far the log
/// head may advance.
#[derive(Default)]
pub(crate) struct PageQueue {
    queue: VecDeque<PageDesc>,
    queued: IdSet<(u64, usize)>,
    /// Mirror of `queue.len()`, refreshed (Relaxed) at the end of every
    /// mutator while the owning `core` lock is held. `query()` reads it
    /// through a clone of the [`PageQueue::gauge`] Arc without taking
    /// `core`.
    gauge: Arc<AtomicUsize>,
}

impl PageQueue {
    /// Handle to the lock-free length gauge.
    pub fn gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.gauge)
    }

    fn refresh_gauge(&self) {
        self.gauge.store(self.queue.len(), Ordering::Relaxed);
    }

    /// Enqueues `page` of `region` at offset `at`, unless it is queued
    /// (the earlier descriptor stands).
    pub fn enqueue(&mut self, region: &Arc<RegionInner>, page: usize, at: u64, seq: u64) {
        debug_assert!(
            self.queue.back().is_none_or(|back| back.offset <= at),
            "page descriptors are enqueued in append order"
        );
        if self.queued.insert((region.id, page)) {
            self.queue.push_back(PageDesc {
                region: Arc::clone(region),
                page,
                offset: at,
                seq,
            });
            self.refresh_gauge();
        }
    }

    /// The earliest descriptor, if any.
    pub fn front(&self) -> Option<&PageDesc> {
        self.queue.front()
    }

    /// Removes the earliest descriptor.
    pub fn pop_front(&mut self) -> Option<PageDesc> {
        let desc = self.queue.pop_front()?;
        self.queued.remove(&(desc.region.id, desc.page));
        self.refresh_gauge();
        Some(desc)
    }

    /// Whether a descriptor for `(region_id, page)` is queued.
    pub fn contains(&self, region_id: u64, page: usize) -> bool {
        self.queued.contains(&(region_id, page))
    }

    /// Removes and returns every descriptor whose offset is below
    /// `offset`. Descriptor offsets are non-decreasing, so this is a
    /// prefix of the queue. Used when an epoch truncation freezes
    /// `[head, offset)`: the drained pages are covered by the epoch apply,
    /// and commits landing *during* the apply re-enqueue their pages with
    /// offsets at or past the boundary. (A step pops its prefix one
    /// descriptor at a time, as it copies each page.)
    pub fn drain_below(&mut self, offset: u64) -> Vec<PageDesc> {
        let mut drained = Vec::new();
        while let Some(front) = self.queue.front() {
            if front.offset >= offset {
                break;
            }
            drained.push(self.pop_front().expect("front was Some"));
        }
        self.refresh_gauge();
        drained
    }

    /// Puts drained descriptors back at the queue front in their original
    /// order (the apply failed; the pages are still unapplied). A page
    /// re-enqueued meanwhile keeps its newer descriptor — the older
    /// drained one still lower-bounds it, so dropping the newer duplicate
    /// in favour of the earlier offset preserves the queue invariant.
    pub fn requeue_front(&mut self, drained: &mut Vec<PageDesc>) {
        for desc in drained.drain(..).rev() {
            if self.queued.insert((desc.region.id, desc.page)) {
                self.queue.push_front(desc);
            } else {
                // A newer descriptor for the page was enqueued while the
                // truncation was in flight; replace it with the earlier
                // one.
                if let Some(pos) = self
                    .queue
                    .iter()
                    .position(|d| d.region.id == desc.region.id && d.page == desc.page)
                {
                    self.queue.remove(pos);
                }
                self.queue.push_front(desc);
            }
        }
        self.refresh_gauge();
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The queued descriptors' log offsets, front to back.
    #[cfg(test)]
    pub fn offsets(&self) -> Vec<u64> {
        self.queue.iter().map(|d| d.offset).collect()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PAGE_SIZE;
    use crate::region::tests_support::make_test_region;

    #[test]
    fn enqueue_deduplicates_keeping_earliest() {
        let region = make_test_region(4 * PAGE_SIZE);
        let mut q = PageQueue::default();
        q.enqueue(&region, 0, 100, 1);
        q.enqueue(&region, 1, 200, 2);
        q.enqueue(&region, 0, 300, 3); // duplicate: ignored
        assert_eq!(q.len(), 2);
        let d = q.pop_front().unwrap();
        assert_eq!((d.page, d.offset, d.seq), (0, 100, 1));
        // After popping, the page may be enqueued again.
        q.enqueue(&region, 0, 400, 4);
        assert_eq!(q.len(), 2);
        assert_eq!(q.front().unwrap().page, 1);
    }

    #[test]
    fn drain_below_takes_the_offset_prefix() {
        let region = make_test_region(4 * PAGE_SIZE);
        let mut q = PageQueue::default();
        q.enqueue(&region, 0, 100, 1);
        q.enqueue(&region, 1, 200, 2);
        q.enqueue(&region, 2, 300, 3);
        let drained = q.drain_below(300);
        assert_eq!(drained.len(), 2);
        assert!(!q.contains(region.id, 0));
        assert!(!q.contains(region.id, 1));
        assert!(q.contains(region.id, 2));
        // Drained pages may be re-enqueued with new offsets.
        q.enqueue(&region, 0, 400, 4);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn requeue_front_restores_order_and_wins_over_duplicates() {
        let region = make_test_region(4 * PAGE_SIZE);
        let mut q = PageQueue::default();
        q.enqueue(&region, 0, 100, 1);
        q.enqueue(&region, 1, 200, 2);
        let mut drained = q.drain_below(u64::MAX);
        assert!(q.is_empty());
        // Page 1 re-enqueued with a newer offset while the epoch was in
        // flight; the drained (earlier) descriptor must win.
        q.enqueue(&region, 1, 900, 9);
        q.enqueue(&region, 3, 950, 10);
        q.requeue_front(&mut drained);
        assert_eq!(q.len(), 3);
        let d = q.pop_front().unwrap();
        assert_eq!((d.page, d.offset), (0, 100));
        let d = q.pop_front().unwrap();
        assert_eq!((d.page, d.offset), (1, 200));
        let d = q.pop_front().unwrap();
        assert_eq!((d.page, d.offset), (3, 950));
    }

    #[test]
    fn distinct_regions_do_not_collide() {
        let a = make_test_region(PAGE_SIZE);
        let b = make_test_region(PAGE_SIZE);
        let mut q = PageQueue::default();
        q.enqueue(&a, 0, 100, 1);
        q.enqueue(&b, 0, 200, 2);
        assert_eq!(q.len(), 2);
    }
}
