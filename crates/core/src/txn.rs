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
//! counts, the region memory lock for the old-value capture), and
//! abort/rollback/release undo the same per-region state — plus, each,
//! one load of the debug checker's gate, which leads on to the checker's
//! locks only while a check is on (`crate::check`); a commit also reads
//! `tuning` once, shared. A read-only
//! transaction — begin, reads, abort, or a commit that declared
//! nothing — therefore acquires the global `core` lock zero times;
//! `Rvm::core_lock_acquisitions` exists so tests can pin that, and the
//! no-flush commit of disjoint regions stays equally core-free via the
//! spool plane (see `crate::spool`).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::error::{Result, RvmError};
use crate::options::{CommitMode, TxnMode};
use crate::ranges::{ByteRange, RangeSet};
use crate::region::{Region, RegionInner};
use crate::rvm::RvmShared;
use crate::truncation::page_vector::PageVector;

/// Per-region bookkeeping inside one transaction.
pub(crate) struct TxnRegion {
    pub(crate) region: Arc<RegionInner>,
    /// Coalesced modified ranges (drives old-value capture and, when intra
    /// optimization is on, the log record).
    pub(crate) ranges: RangeSet,
    /// The `set_range` calls verbatim, for the intra-off ablation.
    pub(crate) raw_ranges: Vec<ByteRange>,
    /// Old values of newly covered sub-ranges (restore mode only).
    pub(crate) undo: Vec<(u64, Vec<u8>)>,
    /// Pages whose uncommitted reference count this transaction holds.
    pub(crate) touched_pages: BTreeSet<usize>,
}

impl TxnRegion {
    fn new(region: Arc<RegionInner>) -> Self {
        region.uncommitted_txns.fetch_add(1, Ordering::AcqRel);
        Self {
            region,
            ranges: RangeSet::new(),
            raw_ranges: Vec::new(),
            undo: Vec::new(),
            touched_pages: BTreeSet::new(),
        }
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
    pub(crate) regions: HashMap<u64, TxnRegion>,
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
            regions: HashMap::new(),
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
        let stats = &self.shared.stats;
        stats.add(&stats.set_range_calls, 1);
        stats.add(&stats.bytes_set_range_gross, len);
        self.gross_bytes += len;

        let entry = self
            .regions
            .entry(region.inner.id)
            .or_insert_with(|| TxnRegion::new(region.inner.clone()));
        let range = ByteRange::at(offset, len);
        entry.raw_ranges.push(range);
        let newly = entry.ranges.insert(range);

        if self.mode == TxnMode::Restore {
            for r in &newly {
                let old = entry.region.read_bytes(r.start, r.len());
                entry.undo.push((r.start, old));
            }
        }

        // One uncommitted reference per (transaction, page), exactly undone
        // at commit or abort.
        let mut pv = entry.region.page_vector.lock();
        for page in PageVector::page_span(offset, len) {
            if entry.touched_pages.insert(page) {
                pv.inc_uncommitted(page);
            }
        }
        drop(pv);
        self.shared
            .check_declared_range(self.tid, &entry.region, range);
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
        for txn_region in self.regions.values_mut() {
            for (offset, old) in txn_region.undo.drain(..).rev() {
                txn_region.region.write_bytes(offset, &old);
            }
        }
    }

    /// Releases page references and per-region transaction counts.
    pub(crate) fn release(&mut self) {
        self.shared.check_txn_ended(self.tid, &self.regions);
        for txn_region in self.regions.values() {
            let mut pv = txn_region.region.page_vector.lock();
            for &page in &txn_region.touched_pages {
                pv.dec_uncommitted(page);
            }
            drop(pv);
            txn_region
                .region
                .uncommitted_txns
                .fetch_sub(1, Ordering::AcqRel);
        }
        self.regions.clear();
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
            .field("regions", &self.regions.len())
            .field("ended", &self.ended)
            .finish()
    }
}
