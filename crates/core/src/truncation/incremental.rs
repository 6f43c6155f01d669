//! Incremental truncation (Figure 7): dirty pages are written straight
//! from VM in page-queue order and the log head follows the queue. When
//! the queue head cannot be written — its region was unmapped — the run
//! reverts to epoch truncation through [`RvmShared::make_log_space`].

use std::sync::Arc;

use parking_lot::MutexGuard;

use crate::error::Result;
use crate::options::PAGE_SIZE;
use crate::region::{PageImage, RegionInner};
use crate::rvm::{CoreGuard, RvmShared};

/// Pages written per incremental-truncation sync batch.
const INCREMENTAL_BATCH_PAGES: usize = 32;

impl RvmShared {
    /// Incremental truncation (Figure 7): write dirty pages from VM in
    /// page-queue order, advancing the log head. Returns bytes reclaimed.
    ///
    /// Steps are batched: up to [`INCREMENTAL_BATCH_PAGES`] writable pages
    /// are written and their segment devices synced once before the head
    /// advances past all of them, so each step costs one positioning
    /// batch rather than one sync per page.
    pub(super) fn incremental_truncate_locked(
        &self,
        core: &mut CoreGuard<'_>,
        target: u64,
    ) -> Result<u64> {
        let start_head = core.wal.head();
        'outer: loop {
            // The barrier and `make_log_space` below release the core
            // lock; if an epoch truncation started in that window,
            // stop — the epoch owns the head now, and every remaining
            // queue descriptor sits at or past its boundary.
            if core.epoch.is_some() {
                break;
            }
            if core.wal.head() - start_head >= target {
                break;
            }
            if core.page_queue.is_empty() {
                // Queue drained: every *reaped*, flushed change is
                // applied, so the log is reclaimable up to its stable end
                // (in-flight batches keep their span: their pages only
                // enter the queue at reap).
                let stable = self.stable_end(core);
                if stable.tail() > core.wal.head() {
                    core.wal.advance_head(stable.tail(), stable.next_seq());
                    if stable.tail() == core.wal.tail() {
                        core.segs_in_log.clear();
                    }
                }
                break;
            }

            // Gather a batch of writable pages from the queue head, each
            // with its committed image (`RegionInner::committed_page`).
            let mut batch: Vec<(Arc<RegionInner>, usize, Vec<u8>)> = Vec::new();
            while batch.len() < INCREMENTAL_BATCH_PAGES {
                let Some(front) = core.page_queue.front() else {
                    break;
                };
                let Some(region) = front.region.upgrade() else {
                    if batch.is_empty() {
                        // The region was unmapped: its pages cannot be
                        // written from VM any more. Revert to epoch
                        // truncation (§5.1.2), which drains them.
                        if self.make_log_space(core)? {
                            continue 'outer;
                        }
                        break 'outer;
                    }
                    break;
                };
                let page = front.page;
                match region.committed_page(page)? {
                    PageImage::Committed(image) => {
                        core.page_queue.pop_front();
                        batch.push((region, page, image));
                    }
                    PageImage::Unflushed if batch.is_empty() => {
                        // Committed data still in the spool: flushing it
                        // is always safe and unblocks the page.
                        MutexGuard::unlocked(core, || self.flush_barrier())?;
                        continue 'outer;
                    }
                    // Write what was gathered first; with nothing
                    // gathered, "incremental truncation is now blocked
                    // until the uncommitted reference count drops to zero."
                    _ => break,
                }
            }
            if batch.is_empty() {
                break; // blocked at the queue head
            }

            // Write the batch to the data segments, one sync per distinct
            // device. Region pages are full segment pages (mapping offsets
            // are page-aligned), so the image updates the checksum
            // catalog exactly.
            for (region, page, image) in &batch {
                let seg_off = region.seg_offset + *page as u64 * PAGE_SIZE;
                region.seg_dev.write_at(seg_off, image)?;
                if let Some(catalog) = &region.catalog {
                    catalog.update((seg_off / PAGE_SIZE) as usize, image);
                }
            }
            let mut synced: Vec<u64> = Vec::new();
            for (region, ..) in &batch {
                if !synced.contains(&region.id) {
                    region.seg_dev.sync()?;
                    synced.push(region.id);
                }
            }
            // Persist updated catalogs (once per segment) before the head
            // advances past the records whose pages were just applied.
            let mut persisted: Vec<u32> = Vec::new();
            for (region, ..) in &batch {
                if let Some(catalog) = &region.catalog {
                    if !persisted.contains(&region.seg.as_u32()) {
                        catalog.persist()?;
                        persisted.push(region.seg.as_u32());
                    }
                }
            }
            for (region, page, _) in &batch {
                region.page_vector.lock().entry_mut(*page).dirty = false;
            }
            self.stats.add(&self.stats.incremental_steps, 1);
            self.stats
                .add(&self.stats.pages_written_incremental, batch.len() as u64);

            // Move the log head to the next descriptor's offset — capped
            // at the stable end: in-flight batches have no queue entries
            // yet, and the head must not pass their unforced records.
            let stable = self.stable_end(core);
            let (new_head, new_seq) = match core.page_queue.front() {
                Some(d) if d.offset <= core.wal.head() => (core.wal.head(), core.wal.seq_at_head()),
                Some(d) if d.offset <= stable.tail() => (d.offset, d.seq),
                _ => (stable.tail(), stable.next_seq()),
            };
            core.wal.advance_head(new_head, new_seq);
        }
        let reclaimed = core.wal.head() - start_head;
        if reclaimed > 0 {
            self.write_status_locked(core)?;
        }
        Ok(reclaimed)
    }
}
