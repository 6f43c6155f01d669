//! The commit plane: the one way a record reaches the log.
//!
//! The paper has a single log writer — spooled or not, `end_transaction`
//! and `flush` end in the same append-and-force (§4.2, §5.1.1) — and its
//! throughput ceiling is that force: 17.4 ms per force caps a
//! one-force-per-commit path at 57.4 txn/s (§7.1.2), so N committers
//! that each force go no faster than one. Group commit is the classic
//! WAL answer, and here it is the *only* writer:
//!
//! * a **flush commit** serializes its record outside the core lock and
//!   parks it in the commit queue; the first waiter to find no leader
//!   takes the leadership baton ([`RvmShared::flush_commit_enqueue`]);
//! * a **no-flush commit** pushes its record onto the spool
//!   ([`crate::spool`]) and returns: no waiter, no shared lock;
//! * a **barrier** — [`Rvm::flush`](crate::Rvm::flush), `terminate`,
//!   spool overflow, an empty flush-mode commit, a `map` settling its
//!   segment, incremental truncation unblocking a page — is an empty
//!   flush commit: a queue slot with a waiter and no record
//!   ([`RvmShared::flush_barrier`]).
//!
//! The leader runs one bounded round ([`round`]): under the core lock it
//! stages every *member* into one buffer — the spooled records in ticket
//! order, then the claimed slots in queue order, which is the durable
//! order — writes the buffer once, forces once, and completes the batch,
//! settling every member, before it releases the lock. One force per
//! commit is a batch cap of 1 (`group_commit_max_txns` bounds waiters per
//! force; spooled records and barriers ride along uncounted).
//!
//! Before it claims, a leader that just had company waits, boundedly, for
//! it to come back — one rule, stated on `leader_round` in [`round`], of
//! which `Tuning::group_commit_wait_us` is the fixed-budget form.
//!
//! ## Who owns a record's buffers
//!
//! A record ([`SpooledTxn`]) is four flat arenas out of its transaction's
//! scratch ([`crate::txn::TxnScratch`]), filled straight from VM by
//! `commit_txn`. A **flush commit** parks them in its queue slot; the
//! claiming leader takes them, stages from them where they lie and
//! carries them in the batch's member list until `complete_batch` puts them
//! back in the slot *with* the outcome, and the committer returns them,
//! emptied, to its scratch and so to its thread's cache (a record whose
//! round failed is dropped where it lies). A **spooled record** takes its
//! arenas into the spool. The drain drops them; a record that subsumes it
//! takes them back, emptied, to its committer's scratch, so a run of
//! lazy commits that each subsume the last allocates nothing. The slot
//! stays with the committer's scratch, the claim list with the queue
//! ([`GroupState::claim`]), the member list with the core
//! (`Core::batch_members`): a steady-state round allocates nothing.
//!
//! ## Failure and poison rules
//!
//! A record that does not fit in the log fails alone with its own
//! `LogFull`; a spooled one goes back to the spool front and the rest of
//! its round — whose waiters were promised everything spooled before
//! them — fails with the same error, leaving the instance healthy. A
//! batch whose writes or force fail fails *whole*: the WAL cursors roll
//! back to its checkpoint — nothing else appended while it was open — and
//! the instance is poisoned, since records may sit unacknowledged in the
//! device's write-behind cache. Every later round, barriers included,
//! fails fast with `Poisoned` without touching the log.
//!
//! ## Making room
//!
//! Epoch truncation applies its frozen span with the core lock released,
//! so a round can run *during* a truncation. When a member does not fit
//! *right now*, one rule applies (`stage` in [`round`]): the batch staged
//! so far is closed — written, forced, completed — then
//! `make_log_space` waits out or runs an epoch, releasing `core`, and
//! the fill resumes with the rest. A batch is therefore opened, written,
//! forced and completed within one core-lock hold: truncation never
//! scans what has not been forced, everything below the tail is stable,
//! and a failed force can always roll its batch back. The leader's stall
//! is bounded by the epoch apply (`truncation_stall_ns`).
//!
//! ## Lock order
//!
//! The queue lock (`state`) is taken alone, or holding a slot's `work`
//! only to read its outcome — never with `core`: the leader claims its
//! slots, releases `state`, then takes `core`, and a barrier raised by a
//! holder of the core guard runs under `MutexGuard::unlocked`. Under
//! `core` the leader pops spool shards and locks slot `work`.

mod round;

pub(crate) use round::Member;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, RvmError};
use crate::log::record;
use crate::options::{CommitMode, Tuning};
use crate::rvm::RvmShared;
use crate::spool::SpooledTxn;
use crate::txn::{Transaction, TxnRegion};

/// Maximum record bytes staged under one force; a batch closes before
/// the member that would exceed it.
const BATCH_MAX_BYTES: u64 = 8 << 20;

/// The payload a committer parks in the queue and the leader fills in.
#[derive(Default)]
struct SlotWork {
    /// The serialized transaction, taken by the leader that claims the
    /// slot and put back, for its arenas, with the outcome; `None` from
    /// the start for a barrier, which logs nothing.
    record: Option<SpooledTxn>,
    /// Set when the slot's batch completes (or its round fails); the
    /// committer takes it.
    outcome: Option<Result<()>>,
}

/// One waiter's pending flush-mode commit or barrier. A thread keeps its
/// slot between commits: a leader sets a claimed slot's outcome exactly
/// once and never looks at the slot again, so once its owner has taken
/// the outcome the slot is the owner's to reuse, whatever clones of the
/// `Arc` a leader has yet to drop.
#[derive(Default)]
pub(crate) struct GroupSlot {
    work: Mutex<SlotWork>,
}

/// Queue state guarded by the queue lock.
#[derive(Default)]
struct GroupState {
    /// Waiting committers, oldest first; durable-log order follows queue
    /// order because batches are drained from the front by one leader at
    /// a time.
    queue: VecDeque<Arc<GroupSlot>>,
    /// Whether some committer currently holds leadership.
    leader_active: bool,
    /// Slots the previous round claimed: the company the next leader
    /// waits for ([`RvmShared::leader_round`]).
    last_claim: usize,
    /// The claim list, empty, between rounds: the leader takes it with
    /// the baton and returns it, so a round allocates none.
    claim: Vec<Arc<GroupSlot>>,
}

/// The commit queue, its leadership flag, and the follower wakeup.
#[derive(Default)]
pub(crate) struct GroupCommit {
    state: Mutex<GroupState>,
    /// Signalled after a leader publishes a batch's outcomes and releases
    /// leadership; woken followers re-check their slot or take over.
    wakeup: Condvar,
    /// Nanoseconds the last batch with more than one waiter took from
    /// close to completion — a force *in company*; 0 until one has.
    company_force_ns: AtomicU64,
}

impl RvmShared {
    /// Commits a transaction; called from [`Transaction::commit`].
    pub(crate) fn commit_txn(&self, txn: &mut Transaction, mode: CommitMode) -> Result<()> {
        if let Err(e) = self.check_live() {
            txn.rollback();
            return Err(e);
        }
        self.run_commit_check(txn);
        // `Tuning` is `Copy`: a plain read through the lock, no per-commit
        // heap clone.
        let tuning = *self.tuning.read();
        let stats = &self.stats;

        // Read the new values out of recoverable memory *now* — "new-value
        // records that reflect the current contents of the corresponding
        // ranges of memory" (§5.1.1) — straight into the record's arenas,
        // regions in id order.
        let scratch = &mut txn.scratch;
        scratch.regions.sort_unstable_by_key(|r| r.region.id);
        let mut record = std::mem::take(&mut scratch.record);
        record.tid = txn.tid; // (its ticket the spool assigns, if it goes there)
        for TxnRegion { region, bufs } in &scratch.regions {
            // The pages the logged ranges span are the pages the
            // declarations touched: coalescing moves no byte.
            let pages = &bufs.touched_pages;
            if tuning.intra_optimization {
                record.log_region(region, bufs.ranges.iter(), pages);
            } else {
                record.log_region(region, bufs.raw_ranges.iter().copied(), pages);
            }
            if mode == CommitMode::NoFlush {
                region.note_pages_spooled(pages);
            }
        }
        let net_data = record.data.len() as u64;
        if tuning.intra_optimization && txn.gross_bytes >= net_data {
            stats.add(&stats.bytes_saved_intra, txn.gross_bytes - net_data);
        }
        record.record_bytes = record::record_bytes(record.pieces());
        let record = if record.ranges.is_empty() {
            scratch.record = record;
            None
        } else {
            Some(record)
        };

        // A commit that adds nothing to the log or the spool, and drains
        // nothing, cannot have crossed the truncation threshold.
        let touches_log = record.is_some() || (mode == CommitMode::Flush && !self.spool.is_empty());
        let committed = match (mode, record) {
            // The no-flush fast path: nothing here touches the core lock.
            // The record goes to the spool plane (one shard lock), page
            // bookkeeping stays behind the per-region `page_vector`
            // locks, and the threshold check reads the WAL's published
            // view — disjoint-region no-flush commits share no lock at all.
            (CommitMode::NoFlush, Some(record)) => {
                let (saved, recycled) = self.spool.push(record, tuning.inter_optimization);
                stats.add(&stats.bytes_saved_inter, saved);
                // The arenas of a record this one subsumed are this
                // thread's to fill next.
                if let Some(back) = recycled {
                    scratch.record = back;
                }
                if self.spool.bytes() > tuning.spool_max_bytes {
                    // Spool overflow is the slow path: drain it.
                    self.flush_commit_enqueue(&mut None, &tuning, &mut scratch.slot)
                } else {
                    Ok(())
                }
            }
            (CommitMode::NoFlush, None) => Ok(()),
            // Park the record in the commit queue and share one force
            // with every concurrent flush committer. An empty transaction
            // logs nothing itself, but a flush-mode commit still promises
            // that every commit that returned before it is durable —
            // including spooled no-flush commits: it is the barrier.
            (CommitMode::Flush, mut record) => {
                let outcome = self.flush_commit_enqueue(&mut record, &tuning, &mut scratch.slot);
                // What came back is this thread's to fill again.
                if let Some(back) = record {
                    scratch.record = back;
                }
                outcome
            }
        };
        if let Err(e) = committed {
            txn.rollback();
            return Err(e);
        }
        stats.add(
            match mode {
                CommitMode::Flush => &stats.flush_commits,
                CommitMode::NoFlush => &stats.no_flush_commits,
            },
            1,
        );
        stats.add(&stats.txns_committed, 1);
        if self.truncation_active.load(Ordering::Acquire) {
            // A truncation — an epoch or a step — is applying right now;
            // this commit made progress through it.
            stats.add(&stats.commits_during_truncation, 1);
        }
        txn.release();

        if touches_log && self.log_view.snapshot().utilization > tuning.truncation_threshold {
            self.request_truncation(&tuning);
        }
        Ok(())
    }

    /// Waiter side: parks `record` — or, with `None`, a barrier — in the
    /// commit queue, then either waits for a leader to settle it or
    /// becomes the leader itself. A record that was logged comes back in
    /// `record`, and the queue slot stays in `slot` for the next call.
    ///
    /// Leadership is a baton, not a thread: the first waiter to find no
    /// active leader takes it, runs one bounded round via
    /// [`RvmShared::leader_round`], releases it, and re-checks its own
    /// slot. A waiter whose slot was left out of a bounded round simply
    /// takes the baton next, so every enqueued slot is settled after at
    /// most `queue length / max_txns` rounds and durable-log order equals
    /// queue order.
    fn flush_commit_enqueue(
        &self,
        record: &mut Option<SpooledTxn>,
        tuning: &Tuning,
        slot: &mut Option<Arc<GroupSlot>>,
    ) -> Result<()> {
        let barrier = record.is_none();
        let mut gs = self.group.state.lock();
        // Only a leader pops the spool or stages, and nobody becomes one
        // without this lock: with no leader and an empty spool, every
        // record committed so far has been settled, and a barrier has
        // nothing to wait for.
        if barrier && !gs.leader_active && self.spool.is_empty() {
            return if self.poisoned.load(Ordering::Acquire) {
                Err(RvmError::Poisoned)
            } else {
                Ok(())
            };
        }
        let slot: &Arc<GroupSlot> = slot.get_or_insert_with(Arc::default);
        slot.work.lock().record = record.take();
        gs.queue.push_back(slot.clone());
        // The queue lock is held at the top of every turn: from the push,
        // from the condvar, or from handing the baton back.
        loop {
            if gs.leader_active {
                // A leader is running (possibly carrying this slot in its
                // batch); wait for it to publish and hand off.
                self.group.wakeup.wait(&mut gs);
            } else {
                gs.leader_active = true;
                let company = gs.last_claim;
                let mut claim = std::mem::take(&mut gs.claim);
                drop(gs);
                self.leader_round(tuning, company, &mut claim);
                claim.clear();
                gs = self.group.state.lock();
                gs.claim = claim;
                gs.leader_active = false;
                self.group.wakeup.notify_all();
            }
            let mut work = slot.work.lock();
            if let Some(outcome) = work.outcome.take() {
                *record = work.record.take();
                return outcome;
            }
        }
    }

    /// The barrier: an empty flush-mode commit. On `Ok` every commit that
    /// returned before the call is durable — the spool drained, every
    /// record at or below its last one written and forced. Takes the
    /// queue lock and, as leader, the core lock: a caller that holds the
    /// core guard runs this under `MutexGuard::unlocked`.
    pub(crate) fn flush_barrier(&self) -> Result<()> {
        let tuning = *self.tuning.read();
        self.flush_commit_enqueue(&mut None, &tuning, &mut None)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::{Condvar, Mutex};
    use rvm_storage::{Device, MemDevice};

    use crate::segment::MemResolver;
    use crate::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};

    /// A log whose forces, once the gate closes, park until it opens: a
    /// leader stays in its batch's force, holding the core lock.
    #[derive(Default)]
    struct GatedForceLog {
        inner: MemDevice,
        /// (closed, a force is parked)
        gate: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl Device for GatedForceLog {
        fn len(&self) -> rvm_storage::Result<u64> {
            self.inner.len()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
            self.inner.write_at(offset, data)
        }
        fn sync(&self) -> rvm_storage::Result<()> {
            let mut gate = self.gate.lock();
            while gate.0 {
                gate.1 = true;
                self.changed.notify_all();
                self.changed.wait(&mut gate);
            }
            gate.1 = false;
            drop(gate);
            self.inner.sync()
        }
        fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
            self.inner.set_len(len)
        }
    }

    /// `PageQueue`'s invariant — descriptor offsets never decrease, which
    /// `drain_below` relies on — across a `flush()` issued while an older
    /// batch is still in its force: the drain queues behind that batch's
    /// leader, so its descriptors are enqueued after that batch's.
    #[test]
    fn flush_behind_a_batch_in_flight_enqueues_in_log_order() {
        let log = Arc::new(GatedForceLog {
            inner: MemDevice::with_len(1 << 20),
            ..GatedForceLog::default()
        });
        let rvm = Rvm::initialize(
            Options::new(log.clone())
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
            .unwrap();
        let commit = |page: u64, mode| {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region
                .put_u64(&mut txn, page * PAGE_SIZE, page + 1)
                .unwrap();
            txn.commit(mode)
        };
        log.gate.lock().0 = true;
        std::thread::scope(|s| {
            let first = s.spawn(move || commit(0, CommitMode::Flush));
            {
                let mut gate = log.gate.lock();
                while !gate.1 {
                    log.changed.wait(&mut gate);
                }
            }
            let second = s.spawn(move || commit(1, CommitMode::Flush));
            let flusher = s.spawn(|| commit(2, CommitMode::NoFlush).and_then(|()| rvm.flush()));
            while rvm.stats().no_flush_commits == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            // The flush cannot return before the batch ahead of it does.
            assert!(!flusher.is_finished());
            log.gate.lock().0 = false;
            log.changed.notify_all();
            for handle in [first, second, flusher] {
                handle.join().unwrap().unwrap();
            }
        });
        let offsets = rvm.shared.core.lock().page_queue.offsets();
        assert_eq!(offsets.len(), 3, "three pages, three records");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{offsets:?}");
    }
}
