//! Epoch truncation (§5.1.2, Figure 6): "the crash recovery procedure
//! applied to the oldest part of the log while forward processing
//! continues in the rest". It is the plane's one in-flight protocol
//! ([`super`]) with the log as the source of the bytes, whoever starts
//! it — an explicit [`Rvm::truncate`](crate::Rvm::truncate), the
//! threshold trigger in [`TruncationMode::Epoch`](crate::TruncationMode),
//! or a thread that holds the core lock and cannot go on
//! ([`RvmShared::make_log_space`]: the log is full, a `map` needs its
//! segment settled, an incremental step is blocked). Three phases:
//!
//! 1. **Freeze** (core lock held): the live span `[head, tail)` becomes
//!    the epoch. Its segment set moves into the in-flight slot
//!    ([`InFlight`]), its page-queue prefix to the owner, and the
//!    boundary is persisted in the status block — a crash from here on
//!    recovers by scanning from the unmoved head, re-applying the span
//!    idempotently.
//! 2. **Apply** (core lock *released*): [`recovery::apply_span`] scans
//!    the frozen span and writes its newest-wins trees to the data
//!    segments, while commits keep appending past `end`.
//! 3. **Complete** (core lock reacquired): the head advances to `end`,
//!    the boundary is cleared from core and status, the drained page
//!    descriptors are settled, and every thread parked on
//!    `truncation_done` is woken.
//!
//! The off-lock scan is safe because everything below the tail is fully
//! written and forced (the commit leader opens, writes, forces and
//! completes a batch within one core-lock hold), and the frozen span
//! cannot be overwritten, because free-space accounting counts it as
//! live until the head advances. The head moves only while the mover
//! owns `Core::truncation`, so two truncations — epochs or steps —
//! cannot race for it.

use std::sync::atomic::Ordering;
use std::time::Instant;

use parking_lot::MutexGuard;

use super::{InFlight, PageDesc};
use crate::error::{Result, RvmError};
use crate::recovery;
use crate::rvm::{elapsed_ns, Core, CoreGuard, RvmShared};
use crate::segment::ApplyContext;

impl RvmShared {
    /// Runs one epoch truncation over the live log. **Releases and
    /// reacquires the core lock** around the apply; the caller must
    /// re-derive whatever it read under the lock before. Returns whether
    /// the head moved — `false` when a truncation is already in flight
    /// (its owner moves the head) or nothing is live. Device failures
    /// poison the instance before the waiters are woken.
    pub(crate) fn epoch_truncate(&self, core: &mut CoreGuard<'_>) -> Result<bool> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(RvmError::Poisoned);
        }
        if core.truncation.is_some() {
            return Ok(false);
        }
        let (start, start_seq) = (core.wal.head(), core.wal.seq_at_head());
        let end = core.wal.checkpoint();
        if end.tail() <= start {
            return Ok(false);
        }
        let segs = std::mem::take(&mut core.segs_in_log);
        let drained = core.page_queue.drain_below(end.tail());
        self.begin_in_flight(
            core,
            InFlight {
                boundary: Some(end),
                segs,
            },
        );
        // Persist the boundary *before* touching any segment.
        let frozen = self.write_status_locked(core);
        let applied = frozen.and_then(|()| {
            MutexGuard::unlocked(core, || self.apply_epoch_span(start, start_seq, end.tail()))
        });
        let result = self.guard_io(self.finish_epoch(core, drained, applied));
        self.truncation_done.notify_all();
        result.map(|()| true)
    }

    /// Phase 2: applies the frozen span `[start, end)` to the data
    /// segments. Runs with the core lock released; it is taken briefly
    /// per segment to look up (or open) the handle.
    fn apply_epoch_span(&self, start: u64, start_seq: u64, end: u64) -> Result<()> {
        let applied = recovery::apply_span(
            self.dev.as_ref(),
            self.log_view.capacity,
            start,
            start_seq,
            Some(end),
            ApplyContext::Truncation,
            &mut |seg, tree_end| {
                let core = self.core.lock();
                self.open_segments
                    .get(&core.segments, seg, tree_end, &self.tuning)
            },
        )?;
        let stats = &self.stats;
        stats.add(&stats.truncation_bytes_scanned, end - start);
        stats.add(&stats.truncation_ranges_applied, applied.ranges);
        stats.add(
            &stats.truncation_bytes_applied,
            applied.report.bytes_applied,
        );
        Ok(())
    }

    /// Phase 3: ends the epoch in flight. Applied, the head advances past
    /// the span; failed (at the freeze's status write or in the apply),
    /// the span is still live and unapplied, so its segment set and
    /// drained page descriptors go back where they were.
    fn finish_epoch(
        &self,
        core: &mut Core,
        mut drained: Vec<PageDesc>,
        applied: Result<()>,
    ) -> Result<()> {
        let Some(InFlight {
            boundary: Some(end),
            segs,
        }) = self.end_in_flight(core)
        else {
            return Err(RvmError::BadLog(
                "epoch truncation lost its boundary before completing".to_owned(),
            ));
        };
        if let Err(e) = applied {
            core.segs_in_log.extend(segs);
            core.page_queue.requeue_front(&mut drained);
            return Err(e);
        }
        core.wal.advance_head(end.tail(), end.next_seq());
        Self::settle_drained(core, &drained);
        self.write_status_locked(core)?;
        self.stats.add(&self.stats.epoch_truncations, 1);
        Ok(())
    }

    /// Explicit truncation ([`Rvm::truncate`](crate::Rvm::truncate)):
    /// waits out a truncation in flight, then truncates what remains.
    pub(crate) fn truncate_now(&self) -> Result<()> {
        let mut core = self.core.lock();
        while core.truncation.is_some() {
            self.truncation_done.wait(&mut core);
        }
        self.epoch_truncate(&mut core).map(|_| ())
    }

    /// Makes room in the log for a caller that holds the core lock and
    /// cannot go on without it — an append that does not fit, a `map`
    /// that needs the segment's live records applied, an incremental
    /// truncation that is blocked. A truncation in flight (an epoch or a
    /// step) is waited out; else the caller runs the epoch itself over
    /// the live log. Both **release and reacquire the core lock**: the
    /// caller must re-derive what it read before and try again, and must
    /// hold no open batch (see `complete_batch` in [`crate::commit`]).
    /// Returns `false` — the lock never released — when there was
    /// nothing to reclaim. The time spent is `truncation_stall_ns`.
    pub(crate) fn make_log_space(&self, core: &mut CoreGuard<'_>) -> Result<bool> {
        let stall = Instant::now();
        let advanced = if core.truncation.is_some() {
            // Its owner advances the head in phase 3, which needs the
            // lock this wait releases.
            self.truncation_done.wait(core);
            Ok(true)
        } else if core.wal.tail() > core.wal.head() {
            self.epoch_truncate(core)
        } else {
            Ok(false)
        };
        self.stats
            .add(&self.stats.truncation_stall_ns, elapsed_ns(stall));
        match advanced {
            Ok(_) if self.poisoned.load(Ordering::Acquire) => Err(RvmError::Poisoned),
            advanced => advanced,
        }
    }
}
