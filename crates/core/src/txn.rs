//! Transactions (§4.2).
//!
//! `begin_transaction` returns a [`Transaction`]; `set_range` declares the
//! areas about to be modified; `end_transaction` (here
//! [`Transaction::commit`]) or [`Transaction::abort`] finishes it. The
//! `restore_mode` flag of the paper's `begin_transaction` is
//! [`TxnMode`]: a no-restore transaction skips the old-value copy and may
//! never abort.
//!
//! Dropping an unfinished transaction aborts it (restore mode) or merely
//! releases its bookkeeping (no-restore) — a Rust-ism the C library could
//! not offer; relying on it is poor style but never unsound.
//!
//! ## Locking
//!
//! The transaction lifecycle is plane-local until a commit needs the
//! log: `begin_transaction` is a pair of atomic counters, `set_range`
//! takes only its region's own locks (`page_vector` for the reference
//! counts, the region memory lock for the old-value capture — and, on a
//! region mapped on demand that still has pages to fetch, `unloaded`
//! first; an eager or fully fetched region answers from one atomic), and
//! abort/rollback/release undo the same per-region state; a commit also
//! reads `tuning` once, shared. A read-only
//! transaction — begin, reads, abort, or a commit that declared
//! nothing — therefore acquires the global `core` lock zero times;
//! `Rvm::core_lock_acquisitions` exists so tests can pin that, and the
//! no-flush commit of disjoint regions stays equally core-free via the
//! spool plane (see `crate::spool`).
//!
//! ## Scratch
//!
//! Every growable buffer of a transaction's life is one [`TxnScratch`],
//! taken from a per-thread cache at `begin_transaction` and put back by
//! whichever thread ends the transaction: a steady-state transaction
//! allocates nothing. Per thread, so the cache adds no lock (nor shared
//! cache line) to the paths above; at most [`CACHED_SETS`] sets, and only
//! of transactions under [`SET_CEILING`], so a huge one pins nothing;
//! emptied first — region handles dropped — so it refers to no instance.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::commit::GroupSlot;
use crate::error::{Result, RvmError};
use crate::options::{CommitMode, TxnMode};
use crate::ranges::{ByteRange, RangeSet};
use crate::region::{Region, RegionInner};
use crate::rvm::RvmShared;
use crate::spool::SpooledTxn;
use crate::truncation::page_vector::PageVector;

/// Sets a thread keeps: one is the common case, a few cover transactions
/// interleaved on one thread.
const CACHED_SETS: usize = 4;
/// A set is kept only if its transaction declared at most this many
/// bytes, counting 64 for the bookkeeping of each declaration: every
/// buffer grows by what is declared, so this bounds them all.
const SET_CEILING: u64 = 64 << 10;

thread_local! {
    static SCRATCH: RefCell<Vec<TxnScratch>> = const { RefCell::new(Vec::new()) };
}

/// One region's buffers inside a transaction.
#[derive(Default)]
pub(crate) struct RegionBufs {
    /// Coalesced modified ranges (drives old-value capture and, when intra
    /// optimization is on, the log record).
    pub(crate) ranges: RangeSet,
    /// The `set_range` calls verbatim, for the intra-off ablation.
    pub(crate) raw_ranges: Vec<ByteRange>,
    /// `(offset, start, len)` of each newly covered sub-range (restore
    /// mode only): the old value of `[offset, offset + len)` is the `len`
    /// bytes at `start` of the transaction's undo arena.
    undo: Vec<(u64, usize, usize)>,
    /// Pages whose uncommitted reference count this transaction holds,
    /// ascending — and so the pages its commit record dirties.
    pub(crate) touched_pages: Vec<usize>,
}

/// Per-region bookkeeping inside one transaction.
pub(crate) struct TxnRegion {
    pub(crate) region: Arc<RegionInner>,
    pub(crate) bufs: RegionBufs,
}

/// A transaction's buffers (see the module docs).
#[derive(Default)]
pub(crate) struct TxnScratch {
    /// The regions declared so far: one, nearly always, so a vector
    /// searched linearly. Empty while cached.
    pub(crate) regions: Vec<TxnRegion>,
    /// Emptied buffers for the next region declared.
    spare: Vec<RegionBufs>,
    /// The undo arena: old values, back to back.
    undo_data: Vec<u8>,
    /// The commit record's arenas, empty until the commit fills them.
    pub(crate) record: SpooledTxn,
    /// The commit-queue slot this thread's flush commits park in.
    pub(crate) slot: Option<Arc<GroupSlot>>,
}

impl TxnScratch {
    fn take() -> Self {
        let cached = SCRATCH.try_with(|cache| cache.borrow_mut().pop());
        cached.ok().flatten().unwrap_or_default()
    }

    /// Empties the set, region handles first, and caches it if the
    /// thread's cache has room (and still exists: a transaction may end
    /// in a thread-local destructor).
    fn put_back(mut self) {
        for TxnRegion { mut bufs, .. } in self.regions.drain(..) {
            bufs.ranges.clear();
            bufs.raw_ranges.clear();
            bufs.undo.clear();
            bufs.touched_pages.clear();
            self.spare.push(bufs);
        }
        self.undo_data.clear();
        self.record.clear();
        let _ = SCRATCH.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            (cache.len() < CACHED_SETS).then(|| cache.push(self))
        });
    }
}

/// An active transaction (the paper's `tid`).
///
/// Created by [`Rvm::begin_transaction`](crate::Rvm::begin_transaction);
/// consumed by [`Transaction::commit`] or [`Transaction::abort`].
pub struct Transaction {
    pub(crate) tid: u64,
    pub(crate) mode: TxnMode,
    pub(crate) shared: Arc<RvmShared>,
    pub(crate) scratch: TxnScratch,
    /// Sum of requested `set_range` lengths, before coalescing.
    pub(crate) gross_bytes: u64,
    pub(crate) ended: bool,
}

impl Transaction {
    pub(crate) fn new(tid: u64, mode: TxnMode, shared: Arc<RvmShared>) -> Self {
        Self {
            tid,
            mode,
            shared,
            scratch: TxnScratch::take(),
            gross_bytes: 0,
            ended: false,
        }
    }

    /// The transaction identifier.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The restore mode chosen at `begin_transaction`.
    pub fn mode(&self) -> TxnMode {
        self.mode
    }

    /// Declares that `[offset, offset + len)` of `region` is about to be
    /// modified (§4.2).
    ///
    /// In restore mode the current contents are captured so an abort can
    /// undo the changes; duplicate, overlapping, and adjacent declarations
    /// are coalesced (§5.2) and each byte is captured at most once.
    ///
    /// # Errors
    ///
    /// Arguments are validated eagerly: a zero-length range is rejected
    /// with [`RvmError::EmptyRange`] (it declares nothing and almost
    /// always means a length computation went wrong), and a range
    /// extending past the region with [`RvmError::OutOfRange`].
    pub fn set_range(&mut self, region: &Region, offset: u64, len: u64) -> Result<()> {
        if self.ended {
            return Err(RvmError::TransactionEnded);
        }
        region.inner.check_mapped()?;
        if region.inner.is_degraded() {
            // Quarantined regions are read-only: committing over a page
            // whose durable image is unverifiable could mix corrupt and
            // fresh bytes. Reads of loaded pages keep working.
            return Err(region.inner.degraded_error());
        }
        if len == 0 {
            return Err(RvmError::EmptyRange { offset });
        }
        region.inner.check_bounds(offset, len)?;
        // On-demand regions must hold the committed image before old
        // values are captured or new ones written.
        region.inner.ensure_loaded(offset, len)?;
        let s = &mut self.scratch;
        let known = s
            .regions
            .iter()
            .position(|r| r.region.id == region.inner.id);
        if known.is_none() {
            // Counted here or refused: an `unmap` cannot slip in between.
            region.inner.count_txn()?;
            let (region, bufs) = (region.inner.clone(), s.spare.pop().unwrap_or_default());
            s.regions.push(TxnRegion { region, bufs });
        }
        let stats = &self.shared.stats;
        stats.add(&stats.set_range_calls, 1);
        stats.add(&stats.bytes_set_range_gross, len);
        self.gross_bytes += len;
        let at = known.unwrap_or(s.regions.len() - 1);
        let Some(TxnRegion { region, bufs }) = s.regions.get_mut(at) else {
            return Ok(()); // unreachable: found at `at`, or just pushed there
        };
        let range = ByteRange::at(offset, len);
        bufs.raw_ranges.push(range);
        let restore = self.mode == TxnMode::Restore;
        bufs.ranges.insert_with(range, |newly| {
            if restore {
                let undo = (newly.start, s.undo_data.len(), newly.len() as usize);
                region.read_into([newly], &mut s.undo_data);
                bufs.undo.push(undo);
            }
        });

        // One uncommitted reference per (transaction, page), exactly undone
        // at commit or abort.
        let mut pv = region.page_vector.lock();
        for page in PageVector::page_span(offset, len) {
            if let Err(at) = bufs.touched_pages.binary_search(&page) {
                bufs.touched_pages.insert(at, page);
                pv.inc_uncommitted(page);
            }
        }
        drop(pv);
        Ok(())
    }

    /// Pointer-based `set_range` for the C-style API: `ptr` must point into
    /// `region`'s memory block (see [`Region::base_ptr`]).
    pub fn set_range_ptr(&mut self, region: &Region, ptr: *const u8, len: u64) -> Result<()> {
        let offset = region.offset_of_ptr(ptr).ok_or_else(|| {
            RvmError::BadMapping("pointer does not fall within the region".to_owned())
        })?;
        self.set_range(region, offset, len)
    }

    /// Commits the transaction (`end_transaction`). With
    /// [`CommitMode::Flush`] the log is forced before returning; with
    /// [`CommitMode::NoFlush`] the records are spooled (§4.2).
    ///
    /// Concurrent flush-mode commits are batched through a
    /// leader/follower queue and share a single log force (up to
    /// [`Tuning::group_commit_max_txns`](crate::Tuning) per force); this
    /// changes only latency and force count, never durability — the force
    /// still completes before `commit` returns.
    pub fn commit(mut self, mode: CommitMode) -> Result<()> {
        if self.ended {
            return Err(RvmError::TransactionEnded);
        }
        self.ended = true;
        let shared = self.shared.clone();
        shared.commit_txn(&mut self, mode)
    }

    /// Aborts the transaction, restoring the old values captured by
    /// `set_range`.
    ///
    /// # Errors
    ///
    /// A no-restore transaction cannot abort
    /// ([`RvmError::CannotAbortNoRestore`]); its bookkeeping is released
    /// but memory retains the (now unlogged and unrecoverable)
    /// modifications — the same state §6 describes for a forgotten
    /// `set_range`.
    pub fn abort(mut self) -> Result<()> {
        if self.ended {
            return Err(RvmError::TransactionEnded);
        }
        self.ended = true;
        let no_restore = self.mode == TxnMode::NoRestore;
        if !no_restore {
            self.restore_old_values();
        }
        self.release();
        let stats = &self.shared.stats;
        stats.add(&stats.txns_aborted, 1);
        if no_restore {
            Err(RvmError::CannotAbortNoRestore)
        } else {
            Ok(())
        }
    }

    /// Rolls a failed commit back: old values are restored (restore mode)
    /// and bookkeeping released, leaving memory as if the transaction had
    /// aborted. The caller was told the commit failed, so memory must not
    /// keep the modifications it was never promised.
    pub(crate) fn rollback(&mut self) {
        if self.mode == TxnMode::Restore {
            self.restore_old_values();
        }
        self.release();
    }

    /// Restores captured old values (newest capture last, restored first;
    /// captures are disjoint, so order is immaterial but kept reversed for
    /// clarity).
    pub(crate) fn restore_old_values(&mut self) {
        let TxnScratch {
            regions, undo_data, ..
        } = &mut self.scratch;
        for TxnRegion { region, bufs } in regions {
            for (offset, start, len) in bufs.undo.drain(..).rev() {
                if let Some(old) = undo_data.get(start..start + len) {
                    region.write_bytes(offset, old);
                }
            }
        }
    }

    /// Releases page references and per-region transaction counts, and
    /// hands the scratch back to the thread's cache.
    pub(crate) fn release(&mut self) {
        for TxnRegion { region, bufs } in &self.scratch.regions {
            let mut pv = region.page_vector.lock();
            for &page in &bufs.touched_pages {
                pv.dec_uncommitted(page);
            }
            drop(pv);
            region.uncommitted_txns.fetch_sub(1, Ordering::AcqRel);
        }
        let scratch = std::mem::take(&mut self.scratch);
        let declarations = scratch.regions.iter().map(|r| r.bufs.raw_ranges.len());
        if self.gross_bytes + 64 * declarations.sum::<usize>() as u64 <= SET_CEILING {
            scratch.put_back();
        }
        self.shared.active_txns.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.ended {
            self.ended = true;
            if self.mode == TxnMode::Restore {
                self.restore_old_values();
            }
            self.release();
            let stats = &self.shared.stats;
            stats.add(&stats.txns_aborted, 1);
        }
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("tid", &self.tid)
            .field("mode", &self.mode)
            .field("regions", &self.scratch.regions.len())
            .field("ended", &self.ended)
            .finish()
    }
}
