//! The flush-commit queue: the leader/follower baton that amortizes log
//! forces across concurrent flush-mode commits.
//!
//! The paper's throughput ceiling is the log force — 17.4 ms per force
//! caps a one-force-per-commit path at 57.4 txn/s (§7.1.2) — so N
//! committer threads that each force go no faster than one. Group commit
//! is the classic WAL answer: committers serialize their records
//! *outside* the core lock, park them in this queue, and the first
//! committer to find no leader becomes one. The leader drains a bounded
//! batch from the queue front, stages every member in queue order under
//! the core lock, issues a **single** force for the whole group, and each
//! member receives its own
//! [`AppendInfo`](crate::log::wal::AppendInfo) through its slot once the
//! batch completes (`RvmShared::leader_round` / `complete_batch`). One
//! force per commit is a batch cap of 1 (`group_commit_max_txns`).
//!
//! Lock order: the group lock is taken either alone or *after* a slot
//! lock is released; the leader takes `core` while holding neither. Slot
//! locks nest inside `group` (committer side) and inside `core` (leader
//! side); no path acquires `group` or `core` while holding the other.
//!
//! ## Interleaving with concurrent epoch truncation
//!
//! Epoch truncation releases the core lock while applying its frozen
//! span, so a leader's batch can run *during* a truncation — that is the
//! point of the concurrent protocol. Two consequences for the leader:
//!
//! * **Making room happens inside the fill.** If the log cannot fit the
//!   next member, the leader rolls its staged appends back, calls
//!   `make_log_space` — which waits out an epoch in flight or runs one,
//!   releasing `core` either way — and stages the batch again. The
//!   leader never spins; its stall is bounded by the epoch apply, and is
//!   measured in `truncation_stall_ns`.
//! * **A released lock invalidates a checkpoint.** A batch's WAL
//!   checkpoint lets a failed force roll the whole batch back. But once
//!   the core lock has been released and reacquired — by the spool drain
//!   making space under this leader, or by anyone while a submitted
//!   batch is in flight — another thread may have appended records past
//!   the checkpoint; rolling back would destroy *their* records.
//!   `Core::wait_generation` counts those releases: a batch only rolls
//!   back if the generation is unchanged, and otherwise leaves its
//!   records in the log — harmless, since the failure path poisons the
//!   instance anyway and recovery replays only complete, committed
//!   records.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::Result;
use crate::log::record::RecordRange;
use crate::log::wal::AppendInfo;
use crate::region::RegionInner;

/// The payload a committer parks in the queue and the leader fills in.
pub(crate) struct SlotWork {
    /// The serialized new-value ranges, staged by the leader.
    pub(crate) ranges: Vec<RecordRange>,
    /// Pages to mark dirty and enqueue for truncation on success.
    pub(crate) region_pages: Vec<(Arc<RegionInner>, Vec<usize>)>,
    /// Set by the leader when the batch completes; the committer takes
    /// it. (The truncation-threshold check is no longer ferried through
    /// the slot: the committer reads the WAL cursor seqlock itself after
    /// its outcome arrives.)
    pub(crate) outcome: Option<Result<AppendInfo>>,
}

/// One committer's pending flush-mode commit.
pub(crate) struct GroupSlot {
    pub(crate) tid: u64,
    /// Unpadded record bytes this slot appends (for max-bytes batching).
    pub(crate) record_bytes: u64,
    pub(crate) work: Mutex<SlotWork>,
}

/// Queue state guarded by the group lock.
#[derive(Default)]
pub(crate) struct GroupState {
    /// Waiting committers, oldest first; durable-log order follows queue
    /// order because batches are drained from the front by one leader at
    /// a time.
    pub(crate) queue: VecDeque<Arc<GroupSlot>>,
    /// Whether some committer currently holds leadership.
    pub(crate) leader_active: bool,
}

/// The commit queue, its leadership flag, and the follower wakeup.
#[derive(Default)]
pub(crate) struct GroupCommit {
    pub(crate) state: Mutex<GroupState>,
    /// Signalled after a leader publishes a batch's outcomes and releases
    /// leadership; woken followers re-check their slot or take over.
    pub(crate) wakeup: Condvar,
}
