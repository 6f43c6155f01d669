//! The leader's round: claim, fill, close, complete.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use super::{GroupSlot, BATCH_MAX_BYTES};
use crate::error::{Result, RvmError};
use crate::log::wal::{AppendInfo, WalCheckpoint};
use crate::options::Tuning;
use crate::rvm::{elapsed_ns, Core, CoreGuard, RvmShared};
use crate::spool::SpooledTxn;
use crate::stats::batch_size_bucket;
use crate::sync::Instant;

/// The shortest budget worth waiting out: yielding the processor costs a
/// system call, about a microsecond, and overshoots anything finer.
const SHORTEST_WAIT: Duration = Duration::from_micros(2);

/// One member of a batch. A flush commit has a waiter and a record, a
/// spooled lazy commit only the record, a barrier only the waiter.
pub(crate) struct Member {
    waiter: Option<Arc<GroupSlot>>,
    /// The record and where it was staged.
    record: Option<(SpooledTxn, AppendInfo)>,
}

/// The members staged under one force, and what
/// [`RvmShared::complete_batch`] needs once the batch's writes and force
/// have finished.
struct Batch {
    /// Log order. The vector is `Core::batch_members`, borrowed from the
    /// open to the completion.
    members: Vec<Member>,
    /// Unpadded record bytes staged, against [`BATCH_MAX_BYTES`].
    bytes: u64,
    /// WAL cursors before this batch's appends: the rollback point.
    ckpt: WalCheckpoint,
    /// When the batch closed, if it forces for more than one waiter: its
    /// completion times a force in company.
    closed_at: Option<Instant>,
}

impl Batch {
    /// An empty batch at the current tail. The core lock stays held from
    /// here to the completion, so everything in between is this batch's.
    fn open(core: &mut Core) -> Self {
        Batch {
            members: std::mem::take(&mut core.batch_members),
            bytes: 0,
            ckpt: core.wal.checkpoint(),
            closed_at: None,
        }
    }

    /// Adds a member to the open batch, opening one if need be.
    fn join(
        open: &mut Option<Batch>,
        core: &mut Core,
        waiter: Option<Arc<GroupSlot>>,
        record: Option<(SpooledTxn, AppendInfo)>,
    ) {
        let batch = open.get_or_insert_with(|| Batch::open(core));
        batch.members.push(Member { waiter, record });
    }
}

impl RvmShared {
    /// Leader side — the one log writer. One bounded round: waits for
    /// company, claims up to `group_commit_max_txns` slots from the queue
    /// front into `claim` and, under the core lock, stages the spooled
    /// records (spool order) and then the claimed slots (queue order)
    /// into the open batch, which [`Self::close_batch`] writes, forces and
    /// completes before the lock is released.
    ///
    /// **Waiting for company — the rule.** Sharing a force saves a whole
    /// one, so a leader whose previous round claimed `company > 1` slots
    /// gives those committers a bounded chance to come back: with no lock
    /// held it polls the queue, yielding between polls — never sleeping,
    /// which overshoots by the size of the budget — until the queue is as
    /// long as that claim or a quarter of the last force measured in
    /// company has passed. A round without company reads no clock.
    /// `group_commit_wait_us > 0` is the same step with that budget fixed
    /// and no early exit. **Worst case:** a committer whose company has
    /// left pays a quarter of a force, once — the round that timed out
    /// claimed one slot, so the next has nobody to wait for.
    pub(super) fn leader_round(
        &self,
        tuning: &Tuning,
        company: usize,
        claim: &mut Vec<Arc<GroupSlot>>,
    ) {
        let max_txns = tuning.group_commit_max_txns.max(1);
        self.accumulate(tuning, company.min(max_txns));
        {
            let mut gs = self.group.state.lock();
            let claimed = gs.queue.len().min(max_txns);
            claim.extend(gs.queue.drain(..claimed));
            gs.last_claim = claimed;
        }
        let slots = &*claim;
        if slots.is_empty() {
            return; // an earlier round settled every slot
        }

        let mut core = self.core.lock();
        let mut open: Option<Batch> = None;
        match self.stage_spool(&mut core, &mut open) {
            // The waiters were promised everything spooled before them.
            Err(e) => self.fail_waiters(slots.iter(), e),
            Ok(()) => {
                for slot in slots {
                    let record = slot.work.lock().record.take();
                    let staged = match record {
                        None => Ok(None), // a barrier: nothing to append
                        Some(txn) => self
                            .stage(&mut core, &mut open, &txn)
                            .map(|info| Some((txn, info))),
                    };
                    match staged {
                        Ok(record) => Batch::join(&mut open, &mut core, Some(slot.clone()), record),
                        // Its own failure (out of log space, say), alone.
                        Err(e) => slot.work.lock().outcome = Some(Err(e)),
                    }
                }
            }
        }
        self.close_batch(&mut core, &mut open);
    }

    /// The accumulation step of [`Self::leader_round`].
    fn accumulate(&self, tuning: &Tuning, company: usize) {
        let fixed = tuning.group_commit_wait_us > 0;
        let budget = if fixed {
            Duration::from_micros(tuning.group_commit_wait_us)
        } else if company > 1 {
            Duration::from_nanos(self.group.company_force_ns.load(Ordering::Relaxed) / 4)
        } else {
            return;
        };
        let arrived = || !fixed && self.group.state.lock().queue.len() >= company;
        if (!fixed && budget < SHORTEST_WAIT) || arrived() {
            return;
        }
        let started = Instant::now();
        while started.elapsed() < budget && !arrived() {
            std::thread::yield_now();
        }
        let stats = &self.stats;
        stats.add(&stats.group_waits, 1);
        stats.add(&stats.group_wait_ns, elapsed_ns(started));
    }

    /// Stages every spooled record, oldest first — the only code that
    /// pops the spool. A record that cannot be staged goes back to the
    /// spool front, so whoever drains next still appends in commit order.
    fn stage_spool(&self, core: &mut CoreGuard<'_>, open: &mut Option<Batch>) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            // Poisoned between enqueue and leadership (e.g. by the
            // previous batch): fail fast without touching the log.
            return Err(RvmError::Poisoned);
        }
        let mut drained = false;
        while !self.spool.is_empty() {
            let Some(txn) = self.spool.pop_front() else {
                break;
            };
            match self.stage(core, open, &txn) {
                Ok(info) => {
                    drained = true;
                    Batch::join(open, core, None, Some((txn, info)));
                }
                Err(e) => {
                    self.spool.push_front(txn);
                    return Err(e);
                }
            }
        }
        if drained {
            self.stats.add(&self.stats.spool_flushes, 1);
        }
        Ok(())
    }

    /// Stages one record into the open batch (opening one if need be).
    /// One rule for a record that does not fit *right now* — in the log,
    /// or under [`BATCH_MAX_BYTES`]: the batch staged so far closes —
    /// written, forced and completed — so no batch is open when
    /// [`Self::make_log_space`] **releases the core lock** to make room,
    /// and the fill resumes in a new batch. With nothing reclaimable the
    /// record keeps its own `LogFull` (raised before any cursor or
    /// staging mutation, so there is nothing to undo).
    fn stage(
        &self,
        core: &mut CoreGuard<'_>,
        open: &mut Option<Batch>,
        txn: &SpooledTxn,
    ) -> Result<AppendInfo> {
        if open
            .as_ref()
            .is_some_and(|b| b.bytes > 0 && b.bytes + txn.record_bytes > BATCH_MAX_BYTES)
        {
            self.close_batch(core, open);
        }
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RvmError::Poisoned);
            }
            let batch = open.get_or_insert_with(|| Batch::open(core));
            let Core { wal, staging, .. } = &mut **core;
            match wal.append_staged(txn.tid, txn.pieces(), staging) {
                Ok(info) => {
                    batch.bytes += txn.record_bytes;
                    return Ok(info);
                }
                Err(e) if wal.full_for_now(&e) => {
                    if !core.hooks.release_core_with_batch_open {
                        self.close_batch(core, open);
                    }
                    if !self.make_log_space(core)? {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Closes the open batch, if it has members: the staged bytes reach
    /// the device in one write (two on wrap) under one force — the only
    /// caller of the WAL's — and [`Self::complete_batch`] settles every
    /// member, all before the core lock is released.
    fn close_batch(&self, core: &mut CoreGuard<'_>, open: &mut Option<Batch>) {
        let Some(mut batch) = open.take().filter(|b| !b.members.is_empty()) else {
            return;
        };
        // A batch of barriers appends nothing and needs no force of its
        // own: everything below it was forced by an earlier batch.
        // `skip_group_force` (crashmc mutation hook) acknowledges a batch
        // without its durability barrier: the classic lost-commit bug the
        // model checker must be able to see.
        let force = batch.bytes > 0 && !core.hooks.skip_group_force;
        let waiters = batch.members.iter().filter(|m| m.waiter.is_some());
        if force && waiters.count() > 1 {
            batch.closed_at = Some(Instant::now());
        }
        let io = core.wal.write_staged(&core.staging).and_then(|()| {
            if force {
                core.wal.force()
            } else {
                Ok(())
            }
        });
        core.staging.clear();
        self.complete_batch(core, batch, io);
    }

    /// Completes a closed batch whose writes and force finished with
    /// `io` — the one place a batch's outcome is decided.
    ///
    /// **Condition:** the caller has held the core lock without a break
    /// since [`Batch::open`], so nothing but this batch appended past its
    /// checkpoint. `stage` keeps it by closing the batch before
    /// `make_log_space` releases the lock.
    ///
    /// On success: statistics, page-vector and page-queue bookkeeping for
    /// every record, and `Ok` to every waiter. On failure
    /// the batch fails *whole*: the WAL cursors roll back to the
    /// pre-batch checkpoint, and a device error poisons the instance,
    /// because records may sit unacknowledged in the device's
    /// write-behind cache.
    fn complete_batch(&self, core: &mut Core, mut batch: Batch, io: Result<()>) {
        let stats = &self.stats;
        if let Err(e) = io {
            // By the condition above the checkpoint is the rollback point.
            // (`skip_group_rollback`, a crashmc mutation hook, reintroduces
            // the cursors-past-unforced-records bug the rollback exists to
            // prevent.)
            if !core.hooks.skip_group_rollback {
                core.wal.rollback_to(batch.ckpt);
            }
            let e = self.guard_io(Err::<(), _>(e)).unwrap_err();
            let waiters = batch.members.iter().filter_map(|m| m.waiter.as_ref());
            self.fail_waiters(waiters, e);
            return;
        }
        if let Some(closed_at) = batch.closed_at {
            let force_ns = elapsed_ns(closed_at);
            self.group
                .company_force_ns
                .store(force_ns, Ordering::Relaxed);
        }
        // Flush commits only: spooled records and barriers ride along.
        let committed = batch
            .members
            .iter()
            .filter(|m| m.waiter.is_some() && m.record.is_some())
            .count() as u64;
        if batch.bytes > 0 {
            stats.add(&stats.log_forces, 1);
            stats.add(&stats.bytes_logged, batch.bytes);
        }
        if committed > 0 {
            stats.add(&stats.group_commit_batches, 1);
            stats.add(&stats.group_commit_txns, committed);
            if let Some(bucket) = stats
                .group_commit_batch_sizes
                .get(batch_size_bucket(committed))
            {
                stats.add(bucket, 1);
            }
        }
        for Member { waiter, record } in batch.members.drain(..) {
            let txn = record.map(|(txn, info)| {
                for (region, pages) in txn.region_pages() {
                    match &waiter {
                        Some(_) => region.note_pages_logged(pages),
                        None => region.note_spool_drained(pages),
                    }
                    for &p in pages {
                        core.page_queue.enqueue(region, p, info.offset, info.seq);
                    }
                }
                txn
            });
            // The record goes back to its committer with the outcome, for
            // its arenas; a spooled one ends here.
            if let Some(slot) = waiter {
                let mut work = slot.work.lock();
                work.record = txn;
                work.outcome = Some(Ok(()));
            }
        }
        core.batch_members = batch.members;
    }

    /// Fails `waiters` with `e`: the first receives the original error
    /// (for a lone waiter, exactly what its own call would see) and the
    /// rest the state the failure left behind — `Poisoned` after a device
    /// error, or the same `LogFull` when a spooled record ran out of log
    /// space, which leaves the instance healthy.
    fn fail_waiters<'a>(&self, waiters: impl Iterator<Item = &'a Arc<GroupSlot>>, e: RvmError) {
        let log_full = match &e {
            RvmError::LogFull { needed, capacity } => Some((*needed, *capacity)),
            _ => None,
        };
        let mut original = Some(e);
        for slot in waiters {
            let e = original.take().unwrap_or(match log_full {
                Some((needed, capacity)) => RvmError::LogFull { needed, capacity },
                None => RvmError::Poisoned,
            });
            slot.work.lock().outcome = Some(Err(e));
        }
    }
}
