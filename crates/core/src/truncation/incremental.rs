//! Incremental truncation (Figure 7): dirty pages are written straight
//! from VM in page-queue order and the log head follows the queue — no
//! log scan. A *step* is the plane's one in-flight protocol
//! ([`super`]) with VM as the source of the bytes:
//!
//! 1. **Freeze** (core lock held): pop the queue prefix the step will
//!    write, copying each page's committed image
//!    ([`RegionInner::committed_page`]) into the one buffer the plane
//!    keeps ([`StepBatch`]), and take the in-flight slot.
//! 2. **Apply** (core lock *released*): the page writes, then each
//!    distinct segment's [`Segment::finish`](crate::segment::Segment).
//!    Commits keep
//!    appending; one that re-dirties a frozen page enqueues it again at
//!    its own offset. What reaches the segment is the frozen copy, so
//!    nothing written to VM meanwhile can.
//! 3. **Complete** (core lock reacquired): the head moves to the earliest
//!    descriptor now queued (the tail with none), the frozen
//!    pages' dirty bits are settled, the status block is written once,
//!    and the waiters are woken.
//!
//! A crash anywhere in a step recovers from the unmoved head: every
//! change to a frozen page since it was last clean is in the live log
//! (its descriptor bounded the head), so replay rebuilds whatever a torn
//! page write left. A queued page's region is always mapped: `unmap`
//! writes a dirty region back before it lets go of it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{InFlight, PageDesc};
use crate::error::{Result, RvmError};
use crate::options::{Tuning, PAGE_SIZE};
use crate::region::PageImage;
use crate::rvm::{Core, CoreGuard, RvmShared};
use crate::segment::Segment;
use crate::sync::MutexGuard;

/// Most pages one step freezes: bounds the freeze's hold of the core
/// lock and the image buffer (1 MiB).
const STEP_MAX_PAGES: usize = 256;
const PAGE: usize = PAGE_SIZE as usize;

/// What a step carries from its freeze to its completion. The plane
/// keeps one (`Core::step`) and every step reuses its allocations, so a
/// steady-state step allocates nothing per page.
#[derive(Default)]
pub(crate) struct StepBatch {
    /// The descriptors popped at the freeze, in queue order.
    drained: Vec<PageDesc>,
    /// Their committed images, [`PAGE_SIZE`] bytes each, same order, at
    /// the front of a buffer that only grows.
    images: Vec<u8>,
}

/// What a freeze found at the queue head when it stopped gathering.
enum QueueHead {
    /// Nothing (more) to write below the limit.
    Clear,
    /// Committed data still in the spool; a flush barrier unblocks it.
    Unflushed,
    /// A live transaction has declared a range on it (or it was never
    /// loaded): "incremental truncation is now blocked until the
    /// uncommitted reference count drops to zero."
    Pinned,
}

impl RvmShared {
    /// The threshold trigger: a commit that left log utilization above
    /// [`Tuning::truncation_threshold`] runs steps inline, on the
    /// committing thread. Takes the core lock itself; the caller must not
    /// hold it.
    pub(crate) fn request_truncation(&self, tuning: &Tuning) {
        let result = (|| -> Result<()> {
            let mut core = self.core.lock();
            // Re-check under the lock: another thread may have truncated
            // already, and a truncation in flight — an epoch or a step —
            // *is* the truncation this trigger asked for.
            if core.truncation.is_some() || core.wal.utilization() <= tuning.truncation_threshold {
                return Ok(());
            }
            let reclaimed =
                self.incremental_truncate(&mut core, tuning.incremental_reclaim_bytes)?;
            // Blocked with space critical: revert to epoch truncation.
            // The revert point must sit at or above the trigger threshold
            // — with a threshold above 0.95, a bare `min(0.95)` would put
            // the "critical" mark *below* the trigger and every blocked
            // trigger would look critical immediately.
            let critical = (tuning.truncation_threshold + 0.3)
                .min(0.95)
                .max(tuning.truncation_threshold);
            if reclaimed == 0 && core.truncation.is_none() && core.wal.utilization() > critical {
                self.make_log_space(&mut core)?;
            }
            Ok(())
        })();
        // Nobody is told the outcome, so the poison transition must
        // happen here or a failed truncation would go unnoticed.
        let _ = self.guard_io(result);
    }

    /// Runs steps until the head has moved `target` bytes, the queue is
    /// drained of what was logged before the call, or its head is
    /// blocked. **Releases and reacquires the core lock** around every
    /// apply. Returns bytes reclaimed.
    pub(super) fn incremental_truncate(
        &self,
        core: &mut CoreGuard<'_>,
        target: u64,
    ) -> Result<u64> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(RvmError::Poisoned);
        }
        let start_head = core.wal.head();
        // Where the head is wanted. Records appended from here on are the
        // next run's: commits landing during the applies cannot keep this
        // one going.
        let limit = start_head.saturating_add(target).min(core.wal.tail());
        loop {
            // Everything below that released the core lock may come back
            // to a truncation someone else started: it owns the head now.
            if core.truncation.is_some() || core.wal.head() >= limit {
                break;
            }
            let mut batch = std::mem::take(&mut core.step);
            let at_head = freeze_step(core, &mut batch, limit);
            // (A failed freeze put back what it had popped.)
            let stepped = !batch.drained.is_empty();
            let ran = if stepped {
                self.run_step(core, &mut batch)
            } else {
                Ok(())
            };
            batch.drained.clear();
            core.step = batch;
            ran?;
            let at_head = at_head?;
            if stepped {
                // Write on; a block is met again with nothing gathered.
                continue;
            }
            match at_head {
                // Nothing to write below the limit: the head follows the
                // queue as far as it goes.
                QueueHead::Clear => {
                    if self.follow_queue(core)? == 0 {
                        break;
                    }
                }
                // Flushing the spool is always safe and unblocks the page.
                QueueHead::Unflushed => MutexGuard::unlocked(core, || self.flush_barrier())?,
                QueueHead::Pinned => break,
            }
        }
        Ok(core.wal.head() - start_head)
    }

    /// Phases 2 and 3 around a frozen, non-empty `batch`: takes the slot,
    /// applies with the core lock released, completes and wakes the
    /// waiters. A device failure poisons the instance first.
    fn run_step(&self, core: &mut CoreGuard<'_>, batch: &mut StepBatch) -> Result<()> {
        self.begin_in_flight(core, InFlight { boundary: None });
        let applied = MutexGuard::unlocked(core, || apply_step(batch));
        let result = self.guard_io(self.complete_step(core, batch, applied));
        self.truncation_done.notify_all();
        result
    }

    /// Phase 3: ends the step in flight. Applied, the frozen pages are on
    /// their segments and the head follows the queue; failed, they are
    /// still unapplied and their descriptors go back where they were.
    fn complete_step(
        &self,
        core: &mut Core,
        batch: &mut StepBatch,
        applied: Result<()>,
    ) -> Result<()> {
        self.end_in_flight(core);
        if let Err(e) = applied {
            core.page_queue.requeue_front(&mut batch.drained);
            return Err(e);
        }
        let stats = &self.stats;
        stats.add(&stats.incremental_steps, 1);
        stats.add(&stats.pages_written_incremental, batch.drained.len() as u64);
        Self::settle_drained(core, &batch.drained);
        self.follow_queue(core).map(|_| ())
    }

    /// Moves the log head as far as the page queue allows — to the
    /// earliest descriptor queued, or to the tail with none — and
    /// persists it under the same hold: space the in-memory head frees is
    /// appended into at once. Returns bytes reclaimed.
    fn follow_queue(&self, core: &mut Core) -> Result<u64> {
        let front = core
            .page_queue
            .front()
            .filter(|_| !core.hooks.head_past_requeued);
        let (new_head, new_seq) = match front {
            Some(d) => (d.offset, d.seq),
            None => (core.wal.tail(), core.wal.next_seq()),
        };
        let head = core.wal.head();
        if new_head <= head {
            return Ok(0);
        }
        core.wal.advance_head(new_head, new_seq);
        self.write_status_locked(core)?;
        Ok(new_head - head)
    }
}

/// Phase 1: pops the descriptors below `limit` (what the head must pass
/// to get there) into `batch`, each with the committed image of its
/// page, up to [`STEP_MAX_PAGES`]. Stops at the first page that cannot be
/// frozen and says why; what was gathered before it is written first.
fn freeze_step(core: &mut Core, batch: &mut StepBatch, limit: u64) -> Result<QueueHead> {
    while batch.drained.len() < STEP_MAX_PAGES {
        let Some(front) = core.page_queue.front().filter(|d| d.offset < limit) else {
            break;
        };
        let at = batch.drained.len() * PAGE;
        if batch.images.len() < at + PAGE {
            batch.images.resize(at + PAGE, 0);
        }
        let image = batch.images.get_mut(at..at + PAGE).unwrap_or_default();
        match front.region.committed_page(front.page, image) {
            Ok(PageImage::Committed) => batch.drained.extend(core.page_queue.pop_front()),
            Ok(PageImage::Unflushed) => return Ok(QueueHead::Unflushed),
            Ok(PageImage::Uncommitted | PageImage::Unloaded) => return Ok(QueueHead::Pinned),
            Err(e) => {
                core.page_queue.requeue_front(&mut batch.drained);
                return Err(e);
            }
        }
    }
    Ok(QueueHead::Clear)
}

/// Phase 2: writes the frozen pages to their segments. Runs with the
/// core lock released. Region pages are full segment pages (mapping
/// offsets are page-aligned), so each image updates the checksum catalog
/// exactly. Regions of one segment share its handle, so the distinct
/// handles are the distinct segments: each finishes once, and the caller
/// moves the head only after this returns.
fn apply_step(batch: &StepBatch) -> Result<()> {
    for (desc, image) in batch.drained.iter().zip(batch.images.chunks_exact(PAGE)) {
        let region = &desc.region;
        region
            .segment
            .write_page(region.seg_page(desc.page), image)?;
    }
    let mut finished: Vec<&Arc<Segment>> = Vec::new();
    for PageDesc { region, .. } in &batch.drained {
        if !finished.iter().any(|s| Arc::ptr_eq(s, &region.segment)) {
            region.segment.finish()?;
            finished.push(&region.segment);
        }
    }
    Ok(())
}
