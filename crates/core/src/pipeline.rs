//! The submitted side of the flush-commit path: batches whose writes and
//! force have been handed to the device but not yet waited.
//!
//! A flush-commit leader that has nobody to overlap with writes its
//! staged batch, forces, and completes it on its own thread (see
//! `RvmShared::leader_round`). When committers are still queued behind
//! its drain, or an earlier batch is still in flight, waiting for the
//! force would be device time during which the next batch's
//! serialization could already be running. The leader then *submits* the
//! staged writes and the force asynchronously
//! ([`Device::submit_write`](rvm_storage::Device) / `submit_sync`) and
//! hands the batch to this module as an [`InFlightBatch`]. The *next*
//! leader stages and submits its batch while the first force is still in
//! flight; completions are harvested ("reaped") strictly FIFO, and only
//! the reap — which waits the batch's tokens — acknowledges its
//! committers. Durability semantics are the same on both sides; only
//! serialization and device time overlap.
//!
//! ## Depth and who may reap
//!
//! At most [`PIPELINE_DEPTH`] batches are submitted-or-mid-reap at once
//! (double buffering): a leader about to submit first waits for room,
//! reaping the oldest batch itself if nobody else is. Any thread may
//! reap, but reaps are serialized and FIFO — the front batch is popped
//! under the pipeline lock together with setting
//! [`PipeState::reap_floor`] ([`PipeState::begin_reap`]), and no other
//! thread may pop until the reaper settles. In practice the reaper is
//! the *successor* leader (after submitting its own batch, so the fill
//! overlapped the predecessor's force), a leader that found the commit
//! queue empty (the pipeline tail), or a leader waiting for room.
//!
//! ## Failure and poison rules
//!
//! A batch whose writes or force fail fails *whole*: the WAL cursors are
//! rolled back iff nothing appended past the batch (its `end_tail` still
//! matches the WAL tail and no core-lock release intervened), and the
//! instance is poisoned — records may sit unacknowledged in the device's
//! write-behind cache. Batches submitted *after* a failed one fail with
//! `Poisoned` even if their own force succeeded: their records sit beyond
//! an unforced hole, where a recovery scan cannot reach them.
//!
//! ## The floor
//!
//! Truncation must never treat in-flight records as stable: the oldest
//! unreaped batch's pre-append checkpoint is the **pipeline floor**
//! ([`LogPipeline::floor`]), and every truncation path caps its work
//! at the log's stable end (`RvmShared::stable_end`: the floor, or the
//! tail when nothing is in flight). Everything under the floor is fully
//! written *and forced* (reaps are FIFO; inline completions and spool
//! flushes force before they release the core lock).
//!
//! Lock order: the pipeline lock (`pipe`) ranks above `core` and the
//! commit-queue `work` slots — it may be taken while `core` is held
//! (publishing a submitted batch; floor reads inside truncation), and is
//! **never** held while acquiring either. Its condvar parks on `pipe`
//! alone.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use rvm_storage::IoToken;

use crate::error::Result;
use crate::group::GroupSlot;
use crate::log::wal::{AppendInfo, WalCheckpoint};

/// Batches that may be submitted-or-mid-reap at once: one force in
/// flight while the next batch stages and submits behind it.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// A staged flush batch: what `RvmShared::complete_batch` needs once the
/// batch's writes and force have finished, whichever thread waited.
pub(crate) struct Batch {
    /// The batch members, queue order.
    pub(crate) slots: Vec<Arc<GroupSlot>>,
    /// Per-member outcome as of staging: `Ok` pending durability, or the
    /// member's own `LogFull`.
    pub(crate) outcomes: Vec<Result<AppendInfo>>,
    /// WAL cursors before this batch's appends — the rollback point and,
    /// while this batch is the oldest in flight, the pipeline floor.
    pub(crate) ckpt: WalCheckpoint,
    /// `Core::wait_generation` at the checkpoint.
    pub(crate) ckpt_gen: u64,
    /// WAL tail right after this batch's appends; a failure rolls back
    /// only if the tail still matches.
    pub(crate) end_tail: u64,
}

/// One batch whose writes and force have been submitted to the device
/// but not yet waited. Created by the leader under the core lock;
/// consumed by the (FIFO) reap.
pub(crate) struct InFlightBatch {
    pub(crate) batch: Batch,
    /// Submitted staging-chunk writes, submission order.
    pub(crate) write_tokens: Vec<IoToken>,
    /// The submitted force covering them (`None` only under the
    /// `skip_group_force` crashmc mutation).
    pub(crate) force_token: Option<IoToken>,
}

/// State behind the pipeline lock.
#[derive(Default)]
pub(crate) struct PipeState {
    /// Submitted batches awaiting their reap, oldest first.
    pub(crate) in_flight: VecDeque<InFlightBatch>,
    /// Checkpoint of the batch currently being reaped (popped but not
    /// settled). Doubles as the "a reap is in progress" flag that keeps
    /// reaps FIFO, and keeps the floor visible while the front batch is
    /// out of the queue.
    pub(crate) reap_floor: Option<WalCheckpoint>,
}

impl PipeState {
    /// Batches submitted and not yet settled.
    pub(crate) fn depth(&self) -> usize {
        self.in_flight.len() + usize::from(self.reap_floor.is_some())
    }

    /// Claims the reap of the oldest in-flight batch: pops it and sets
    /// the reap floor, which the reaper clears when it settles. `None`
    /// while another reap is in progress or nothing is in flight.
    pub(crate) fn begin_reap(&mut self) -> Option<InFlightBatch> {
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
    pub(crate) pipe: Mutex<PipeState>,
    pub(crate) pipe_cv: Condvar,
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
