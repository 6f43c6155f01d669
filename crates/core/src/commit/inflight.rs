//! The submitted side: batches whose writes and force have been handed
//! to the device but not yet waited, and the FIFO reap that completes
//! them.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use rvm_storage::IoToken;

use super::round::Batch;
use crate::error::{Result, RvmError};
use crate::log::wal::WalCheckpoint;
use crate::rvm::{elapsed_ns, RvmShared};

/// Batches that may be submitted-or-mid-reap at once: one force in
/// flight while the next batch stages and submits behind it.
pub(super) const PIPELINE_DEPTH: usize = 2;

/// One batch whose writes and force have been submitted to the device
/// but not yet waited. Created by the leader under the core lock;
/// consumed by the (FIFO) reap.
pub(super) struct InFlightBatch {
    pub(super) batch: Batch,
    /// The submitted staging-chunk writes, then the force covering them
    /// (none for a batch that appended nothing — its predecessors' forces
    /// cover everything below it — or under the `skip_group_force`
    /// crashmc mutation).
    pub(super) tokens: Vec<IoToken>,
}

/// State behind the pipeline lock.
#[derive(Default)]
pub(super) struct PipeState {
    /// Submitted batches awaiting their reap, oldest first.
    pub(super) in_flight: VecDeque<InFlightBatch>,
    /// Checkpoint of the batch currently being reaped (popped but not
    /// settled). Doubles as the "a reap is in progress" flag that keeps
    /// reaps FIFO, and keeps the floor visible while the front batch is
    /// out of the queue.
    pub(super) reap_floor: Option<WalCheckpoint>,
}

impl PipeState {
    /// Batches submitted and not yet settled.
    pub(super) fn depth(&self) -> usize {
        self.in_flight.len() + usize::from(self.reap_floor.is_some())
    }

    /// Claims the reap of the oldest in-flight batch: pops it and sets
    /// the reap floor, which the reaper clears when it settles. `None`
    /// while another reap is in progress or nothing is in flight.
    fn begin_reap(&mut self) -> Option<InFlightBatch> {
        if self.reap_floor.is_some() {
            return None;
        }
        let batch = self.in_flight.pop_front()?;
        self.reap_floor = Some(batch.batch.ckpt);
        Some(batch)
    }
}

/// The pipeline lock and its condvar (signalled whenever a reap
/// settles).
#[derive(Default)]
pub(crate) struct LogPipeline {
    pub(super) pipe: Mutex<PipeState>,
    pub(super) pipe_cv: Condvar,
}

impl LogPipeline {
    /// The pipeline floor: the oldest unreaped batch's pre-append
    /// checkpoint. Everything below it is fully written and forced;
    /// nothing at or above it may be treated as stable by truncation.
    /// `None` when no batch is in flight or mid-reap.
    pub(crate) fn floor(&self) -> Option<WalCheckpoint> {
        let ps = self.pipe.lock();
        // A mid-reap batch is older than anything still queued (FIFO).
        ps.reap_floor
            .or_else(|| ps.in_flight.front().map(|b| b.batch.ckpt))
    }

    /// Whether nothing is in flight and no reap is in progress.
    pub(crate) fn is_idle(&self) -> bool {
        self.pipe.lock().depth() == 0
    }
}

impl RvmShared {
    /// Waits until the in-flight queue has room for one more batch — at
    /// most [`PIPELINE_DEPTH`] may be submitted or mid-reap — reaping the
    /// oldest itself when nobody else is. Time spent here is the pipeline
    /// *stall* (`pipeline_stall_ns`): the fill could not go on until a
    /// force completed. Must be called with **no** locks held.
    pub(super) fn pipeline_wait_for_room(&self) {
        let mut stalled: Option<Instant> = None;
        let mut ps = self.pipeline.pipe.lock();
        while ps.depth() >= PIPELINE_DEPTH {
            stalled.get_or_insert_with(Instant::now);
            match ps.begin_reap() {
                Some(batch) => {
                    drop(ps);
                    self.pipeline_reap_batch(batch);
                    ps = self.pipeline.pipe.lock();
                }
                // Another thread owns the reap; it signals when it settles.
                None => self.pipeline.pipe_cv.wait(&mut ps),
            }
        }
        drop(ps);
        if let Some(t) = stalled {
            self.stats.add(&self.stats.pipeline_stall_ns, elapsed_ns(t));
        }
    }

    /// Reaps the oldest in-flight batch, waiting out a concurrent reaper
    /// first so reaps stay FIFO. No-op when the pipeline is idle. Must be
    /// called with **no** locks held.
    pub(crate) fn pipeline_reap_front(&self) {
        let mut ps = self.pipeline.pipe.lock();
        loop {
            if let Some(batch) = ps.begin_reap() {
                drop(ps);
                self.pipeline_reap_batch(batch);
                return;
            }
            if ps.reap_floor.is_none() {
                return; // idle
            }
            // Another thread owns the reap; FIFO order means waiting it
            // out is as good as reaping the front ourselves.
            self.pipeline.pipe_cv.wait(&mut ps);
        }
    }

    /// Submitted side's completion: waits the batch's writes and force
    /// with no locks held, completes it under the core lock, and releases
    /// the reap floor its caller set when popping it
    /// ([`PipeState::begin_reap`]).
    fn pipeline_reap_batch(&self, in_flight: InFlightBatch) {
        let mut io: rvm_storage::Result<()> = Ok(());
        for t in in_flight.tokens {
            let r = self.dev.wait(t);
            if io.is_ok() {
                io = r;
            }
        }
        let mut result: Result<()> = io.map_err(RvmError::from);
        if result.is_ok() && self.poisoned.load(Ordering::Acquire) {
            // An older batch failed after this one was submitted: these
            // records sit beyond an unforced hole a recovery scan cannot
            // cross, so the batch fails even though its own force
            // succeeded.
            result = Err(RvmError::Poisoned);
        }
        {
            let mut core = self.core.lock();
            self.complete_batch(&mut core, in_flight.batch, result);
        }
        {
            let mut ps = self.pipeline.pipe.lock();
            debug_assert!(ps.reap_floor.is_some());
            ps.reap_floor = None;
        }
        self.pipeline.pipe_cv.notify_all();
        // Purely an accelerant: parked waiters re-check their slots
        // sooner. Missed wakeups are impossible — a waiter that finds
        // `leader_active` false claims leadership itself, and leadership
        // release notifies under the queue lock.
        self.group.wakeup.notify_all();
    }
}
