//! The top-level RVM instance: initialization, mapping, flushing, and
//! truncation (Figure 4's operation set), and the state the commit
//! ([`crate::commit`]) and truncation ([`crate::truncation`]) planes
//! share.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rvm_storage::Device;

use crate::check::CheckState;
use crate::commit::{self, GroupCommit};
use crate::cursor::WalView;
use crate::error::{Result, RvmError};
use crate::log::status::{format_log, read_status, write_status, StatusBlock, LOG_AREA_START};
use crate::log::wal::{StagingBuf, Wal};
use crate::options::{LoadPolicy, MutationHooks, Options, Tuning, TxnMode};
use crate::query::QueryInfo;
use crate::recovery::{recover, RecoveryReport};
use crate::region::{Region, RegionDescriptor, RegionInner};
use crate::retry::{retry_resolver, Retrier, RetryDevice};
use crate::scrub::ScrubReport;
use crate::segment::{OpenSegments, SegmentInfo};
use crate::spool::SpoolPlane;
use crate::stats::{Stats, StatsSnapshot, TracedMutex};
use crate::truncation::{spawn_bg_thread, InFlight, PageQueue, StepBatch};
use crate::txn::Transaction;

/// The held core lock. Functions that may *release and reacquire* the
/// lock (making log space, see [`RvmShared::make_log_space`]) take this
/// guard type; functions that only mutate state take plain `&mut Core`.
pub(crate) type CoreGuard<'a> = MutexGuard<'a, Core>;

/// State guarded by the "core" lock: the WAL, the segment table, and the
/// page queue. Historically this one lock also guarded the spool, the
/// open segments, and every statistic; those now live in their own
/// concurrency planes on [`RvmShared`] (`spool`, `open_segments`,
/// `stats`, and the published `log_view` of the WAL), so `core`
/// serializes only log mutation and truncation boundaries.
pub(crate) struct Core {
    pub(crate) wal: Wal,
    status_seq: u64,
    /// The durable segment table (name and id of every segment ever
    /// mapped), as the status block carries it.
    pub(crate) segments: Vec<SegmentInfo>,
    pub(crate) page_queue: PageQueue,
    /// Segments referenced by live (untruncated) log records.
    pub(crate) segs_in_log: HashSet<u32>,
    /// The truncation in flight, if any — an epoch or an incremental
    /// step. Written only by [`crate::truncation`]; its owner alone
    /// writes segments and moves the head.
    pub(crate) truncation: Option<InFlight>,
    /// The one buffer incremental steps freeze their pages into, kept
    /// between steps for its allocations.
    pub(crate) step: StepBatch,
    /// Where the commit leader stages its batch (leadership is
    /// exclusive, so one buffer serves every round); it keeps its
    /// allocation for the next round.
    pub(crate) staging: StagingBuf,
    /// The open batch's member list between batches — empty, kept for
    /// its allocation, like `staging`.
    pub(crate) batch_members: Vec<commit::Member>,
    /// crashmc's deliberate protocol mutations; all off unless the
    /// `mutation-hooks` feature's setter flipped one.
    pub(crate) hooks: MutationHooks,
}

/// Shared library state behind [`Rvm`] handles and live transactions.
pub(crate) struct RvmShared {
    pub(crate) dev: Arc<dyn Device>,
    pub(crate) tuning: RwLock<Tuning>,
    pub(crate) stats: Stats,
    pub(crate) core: TracedMutex<Core>,
    /// The log's published `(head, tail)` (stored by `core.wal`, always
    /// under the core lock). Readers (`query`, the truncation-threshold
    /// check) snapshot it without touching `core`.
    pub(crate) log_view: Arc<WalView>,
    /// The spool plane: sharded locks + lock-free gauges (see
    /// [`crate::spool::SpoolPlane`]). No-flush commits push here without
    /// taking `core`; only the commit leader's fill pops it.
    pub(crate) spool: SpoolPlane,
    /// The segments this instance has opened (see [`crate::segment`]),
    /// from their entries in `core.segments`.
    pub(crate) open_segments: OpenSegments,
    /// Mirror of `core.page_queue.len()` (see [`PageQueue::gauge`]).
    queued_pages: Arc<AtomicUsize>,
    /// Mirror of `core.truncation.is_some()`, so `query` reports
    /// `truncation_in_flight`, and commits count
    /// `commits_during_truncation`, without the core lock.
    pub(crate) truncation_active: AtomicBool,
    /// The commit queue (see [`crate::commit`]). Its lock is never held
    /// while acquiring `core` or vice versa.
    pub(crate) group: GroupCommit,
    pub(crate) regions: RwLock<HashMap<u64, Arc<RegionInner>>>,
    /// Debug-mode checker state (snapshots, declared ranges, violations).
    /// Lock order: `regions` → `check` → region memory locks; never taken
    /// while holding `core`.
    pub(crate) check: Mutex<CheckState>,
    /// Whether the commit path's checker hooks have anything to do (see
    /// [`crate::check`]).
    pub(crate) check_armed: AtomicBool,
    next_tid: AtomicU64,
    pub(crate) next_region_id: AtomicU64,
    pub(crate) active_txns: AtomicU64,
    pub(crate) terminated: AtomicBool,
    /// Set when an unrecoverable I/O failure left the durable image ahead
    /// of what callers were told; see [`RvmError::Poisoned`].
    pub(crate) poisoned: AtomicBool,
    pub(crate) bg_wakeup: Mutex<bool>,
    pub(crate) bg_condvar: Condvar,
    /// Tells the background truncation thread to exit; set by
    /// [`Rvm::set_options`] when `background_truncation` is toggled off.
    pub(crate) bg_stop: AtomicBool,
    /// Paired with `core`: signalled whenever a truncation in flight — an
    /// epoch or a step — completes or fails. Waiters hold the core lock.
    pub(crate) truncation_done: Condvar,
}

/// A recoverable-virtual-memory instance over one log (§4.2's
/// `initialize`).
///
/// One `Rvm` corresponds to one process-wide log in the paper's design
/// (§3.3: "each process using RVM has a separate log"); nothing prevents a
/// Rust program from holding several instances over distinct logs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
/// use rvm::segment::MemResolver;
/// use rvm_storage::MemDevice;
///
/// let log = Arc::new(MemDevice::with_len(1 << 20));
/// let rvm = Rvm::initialize(
///     Options::new(log)
///         .resolver(MemResolver::new().into_resolver())
///         .create_if_empty(),
/// )
/// .unwrap();
/// let region = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)).unwrap();
/// let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
/// region.write(&mut txn, 0, b"hello").unwrap();
/// txn.commit(CommitMode::Flush).unwrap();
/// assert_eq!(region.read_vec(0, 5).unwrap(), b"hello");
/// ```
pub struct Rvm {
    pub(crate) shared: Arc<RvmShared>,
    recovery_report: RecoveryReport,
    /// The background truncation thread, if running. Behind a mutex so
    /// [`Rvm::set_options`] can spawn/stop it through `&self`.
    bg_thread: Mutex<Option<JoinHandle<()>>>,
}

/// Failure from [`Rvm::terminate`], carrying the instance back to the
/// caller.
///
/// `terminate` used to consume the instance even when it *refused* to
/// terminate (`TransactionsOutstanding`), so a caller could never end its
/// transactions and retry. On refusal the instance comes back untouched
/// and fully usable; on a shutdown I/O failure it comes back already
/// terminated, for inspection only.
pub struct TerminateFailure {
    /// The instance: untouched after a refusal, terminated after a
    /// shutdown failure.
    pub rvm: Rvm,
    /// Why termination failed.
    pub error: RvmError,
}

impl TerminateFailure {
    /// Splits into the instance and the error.
    pub fn into_parts(self) -> (Rvm, RvmError) {
        (self.rvm, self.error)
    }
}

impl std::fmt::Debug for TerminateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TerminateFailure")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for TerminateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "terminate failed: {}", self.error)
    }
}

impl std::error::Error for TerminateFailure {}

impl From<TerminateFailure> for RvmError {
    /// Propagating with `?` drops the returned instance (best-effort
    /// shutdown, as `Drop` always did) and keeps the underlying error.
    fn from(failure: TerminateFailure) -> Self {
        failure.error
    }
}

impl Rvm {
    /// Formats `dev` as an empty RVM log (the paper's `create_log`).
    pub fn create_log(dev: &dyn Device) -> Result<()> {
        format_log(dev)?;
        Ok(())
    }

    /// Initializes the library over an existing (or, with
    /// [`Options::create_if_empty`], fresh) log and runs crash recovery.
    pub fn initialize(options: Options) -> Result<Self> {
        // Every device touchpoint — the log and every resolved segment,
        // including those recovery writes to below — goes through the
        // bounded-retry layer. The counters live in `stats` so retries
        // during recovery are visible in the first `query`.
        let stats = Stats::default();
        let retrier = Retrier::new(
            options.retry,
            options.retry_sleeper.clone(),
            stats.fault.clone(),
        );
        let dev: Arc<dyn Device> = Arc::new(RetryDevice::new(options.log.clone(), retrier.clone()));
        let resolver = retry_resolver(options.resolver.clone(), retrier);
        let status = match read_status(dev.as_ref()) {
            Ok(s) => s,
            Err(_) if options.create_if_empty => format_log(dev.as_ref())?,
            Err(e) => return Err(e),
        };
        if LOG_AREA_START + status.area_len > dev.len()? {
            return Err(RvmError::BadLog(format!(
                "status block claims a record area of {} bytes but the device holds {}",
                status.area_len,
                dev.len()?
            )));
        }

        let tuning = RwLock::new(options.tuning);
        let open_segments = OpenSegments::new(resolver, stats.media.clone());
        let recovered = recover(&dev, status, &open_segments, &tuning)?;
        let status = recovered.status;
        let wal = Wal::new(
            dev.clone(),
            status.area_len,
            status.head,
            status.tail,
            status.seq_at_head,
            status.next_seq,
        );

        let log_view = wal.view.clone();
        let page_queue = PageQueue::new();
        let queued_pages = page_queue.gauge();
        let shared = Arc::new(RvmShared {
            dev,
            tuning,
            stats,
            core: TracedMutex::new(Core {
                wal,
                status_seq: status.seq,
                segments: status.segments,
                page_queue,
                segs_in_log: HashSet::new(),
                truncation: None,
                step: StepBatch::default(),
                staging: StagingBuf::new(),
                batch_members: Vec::new(),
                hooks: MutationHooks::default(),
            }),
            log_view,
            spool: SpoolPlane::new(),
            open_segments,
            queued_pages,
            truncation_active: AtomicBool::new(false),
            group: GroupCommit::default(),
            regions: RwLock::new(HashMap::new()),
            check: Mutex::new(CheckState::default()),
            check_armed: AtomicBool::new(options.tuning.checks()),
            next_tid: AtomicU64::new(1),
            next_region_id: AtomicU64::new(1),
            active_txns: AtomicU64::new(0),
            terminated: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            bg_wakeup: Mutex::new(false),
            bg_condvar: Condvar::new(),
            bg_stop: AtomicBool::new(false),
            truncation_done: Condvar::new(),
        });

        let bg_thread = options
            .tuning
            .background_truncation
            .then(|| spawn_bg_thread(&shared));

        Ok(Self {
            shared,
            recovery_report: recovered.report,
            bg_thread: Mutex::new(bg_thread),
        })
    }

    /// What crash recovery did during [`Rvm::initialize`].
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery_report
    }

    /// Whether the instance is poisoned (see [`RvmError::Poisoned`]).
    /// Reads of already-mapped regions keep working on a poisoned
    /// instance; everything that touches the log fails fast.
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// Maps a region of an external data segment into recoverable memory
    /// (§4.1). The mapped memory holds the committed image of the region,
    /// copied in eagerly (the paper's behaviour); see [`Rvm::map_with`]
    /// for on-demand loading.
    pub fn map(&self, desc: &RegionDescriptor) -> Result<Region> {
        self.map_with(desc, LoadPolicy::Eager)
    }

    /// Maps a region with an explicit [`LoadPolicy`]. On-demand mapping
    /// returns immediately and fetches pages from the segment on first
    /// access — the "copy data on demand" option §3.2 planned, which
    /// removes the startup latency of reading recoverable memory in en
    /// masse.
    pub fn map_with(&self, desc: &RegionDescriptor, policy: LoadPolicy) -> Result<Region> {
        self.shared.check_live()?;
        desc.validate()?;
        self.shared.map_region(desc, policy)
    }

    /// Unmaps a quiescent region (§4.1: no uncommitted transactions may be
    /// outstanding). Committed-but-untruncated changes remain safe in the
    /// log and spool.
    pub fn unmap(&self, region: &Region) -> Result<()> {
        region.inner.check_mapped()?;
        let uncommitted = region.inner.uncommitted_txns.load(Ordering::Acquire);
        if uncommitted > 0 {
            return Err(RvmError::RegionBusy { uncommitted });
        }
        region.inner.mapped.store(false, Ordering::Release);
        self.shared.regions.write().remove(&region.inner.id);
        Ok(())
    }

    /// Starts a transaction (§4.2 `begin_transaction`).
    pub fn begin_transaction(&self, mode: TxnMode) -> Result<Transaction> {
        self.shared.check_live()?;
        self.shared.active_txns.fetch_add(1, Ordering::AcqRel);
        let tid = self.shared.next_tid.fetch_add(1, Ordering::Relaxed);
        let txn = Transaction::new(tid, mode, self.shared.clone());
        self.shared.snapshot_for_check(tid);
        Ok(txn)
    }

    /// Forces all spooled no-flush commits to the log (§4.2 `flush`).
    ///
    /// Returns `Ok` only when every record at or below the spool's last
    /// one is written and forced: the drain is a batch like any flush
    /// commit's, so it queues behind — and fails with — the batch being
    /// written ahead of it, and a crash after an `Ok` recovers every
    /// commit that returned before the call.
    pub fn flush(&self) -> Result<()> {
        self.shared.check_live()?;
        self.shared.flush_barrier()
    }

    /// Applies every committed change in the write-ahead log to its data
    /// segment and reclaims the space (§4.2 `truncate`). Blocks until
    /// done, but runs the epoch apply with the core lock *released*, so
    /// concurrent commits keep appending in the rest of the circular log
    /// (§5.1.2: truncation proceeds "while forward processing continues").
    /// Spooled no-flush commits are *not* included — call [`Rvm::flush`]
    /// first for that.
    pub fn truncate(&self) -> Result<()> {
        self.shared.check_live()?;
        self.shared.truncate_now()
    }

    /// Current tuning options.
    pub fn options(&self) -> Tuning {
        *self.shared.tuning.read()
    }

    /// Replaces the tuning options (§4.2 `set_options`).
    ///
    /// Commit paths read the tuning once at entry, so a change applies to
    /// commits that *begin* after this call; a flush-commit leader mid
    /// batch finishes with the tuning its batch started under.
    ///
    /// Toggling `background_truncation` spawns or stops the background
    /// truncation thread accordingly (the toggle used to be silently
    /// ignored after construction). Stopping joins the thread, so a
    /// disable returns only once any truncation it is running completes.
    pub fn set_options(&self, tuning: Tuning) {
        // `bg_thread` is locked around both the tuning write and the
        // spawn/stop so concurrent `set_options` calls cannot leave the
        // thread state disagreeing with the flag.
        let mut bg = self.bg_thread.lock();
        let was_bg = {
            let mut current = self.shared.tuning.write();
            if tuning.checks() {
                // Under the write guard: see `check_txn_ended`.
                self.shared.check_armed.store(true, Ordering::Release);
            }
            std::mem::replace(&mut *current, tuning).background_truncation
        };
        if tuning.background_truncation && !was_bg {
            if bg.is_none() {
                *bg = Some(spawn_bg_thread(&self.shared));
            }
        } else if !tuning.background_truncation && was_bg {
            if let Some(handle) = bg.take() {
                self.shared.bg_stop.store(true, Ordering::Release);
                self.shared.bg_condvar.notify_all();
                let _ = handle.join();
                self.shared.bg_stop.store(false, Ordering::Release);
            }
        }
    }

    /// Installs deliberate protocol mutations for the `rvm-crashmc`
    /// model checker, which must convict each one. Not part of the API.
    #[cfg(feature = "mutation-hooks")]
    #[doc(hidden)]
    pub fn set_mutation_hooks(&self, hooks: MutationHooks) {
        self.shared.core.lock().hooks = hooks;
    }

    /// Library-wide information (§4.2 `query`).
    ///
    /// Served entirely from the lock-free planes — the atomic stats, the
    /// spool and page-queue gauges, the WAL's published view, and the
    /// open-segment registry's read lock. `query` never acquires the
    /// core lock, so it cannot be wedged behind a commit that is itself
    /// stuck on a slow or gated device.
    pub fn query(&self) -> QueryInfo {
        let check_violations = {
            let check = self.shared.check.lock();
            check.violations.clone()
        };
        let (mapped_regions, regions_degraded) = {
            let regions = self.shared.regions.read();
            (
                regions.len(),
                regions.values().filter(|r| r.is_degraded()).count(),
            )
        };
        // Mirror health: sum replica counts over every mirrored device in
        // play (the log plus open segments). Plain devices report no
        // replica health and contribute nothing.
        let (log_alive, log_total) = self.shared.dev.replica_health().unwrap_or((0, 0));
        let (seg_alive, seg_total) = self.shared.open_segments.replica_health();
        QueryInfo {
            active_transactions: self.shared.active_txns.load(Ordering::Acquire),
            mapped_regions,
            regions_degraded,
            replicas_alive: log_alive + seg_alive,
            replicas_total: log_total + seg_total,
            spooled_transactions: self.shared.spool.len(),
            spool_bytes: self.shared.spool.bytes(),
            queued_pages: self.shared.queued_pages.load(Ordering::Relaxed),
            log: self.shared.log_view.snapshot(),
            truncation_in_flight: self.shared.truncation_active.load(Ordering::Acquire),
            poisoned: self.shared.poisoned.load(Ordering::Acquire),
            check_violations,
            stats: self.shared.stats.snapshot(),
        }
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// How many times the global core lock has been acquired since
    /// `initialize` — a concurrency-plane diagnostic. Tests pin
    /// zero-shared-lock fast paths (read-only transactions, disjoint
    /// no-flush commits, `query`) by asserting the delta across an
    /// operation is zero.
    pub fn core_lock_acquisitions(&self) -> u64 {
        self.shared.core.acquisitions()
    }

    /// Verifies every mapped region's on-segment pages against their
    /// checksum catalogs, repairing what it can — one synchronous scrub
    /// pass, and the only way to run one. An application that wants
    /// periodic scrubbing calls it from a timer of its own:
    ///
    /// ```no_run
    /// # fn periodic(rvm: std::sync::Arc<rvm::Rvm>) {
    /// std::thread::spawn(move || loop {
    ///     std::thread::sleep(std::time::Duration::from_secs(60));
    ///     match rvm.scrub() {
    ///         Ok(report) if report.is_clean() => {}
    ///         Ok(report) => eprintln!("scrub: {report:?}"),
    ///         Err(_) => break, // terminated or poisoned
    ///     }
    /// });
    /// # }
    /// ```
    ///
    /// Detection requires [`Tuning::segment_checksums`](crate::Tuning)
    /// (on by default); regions of a segment this instance opened while
    /// it was off are skipped. On a
    /// mismatch the repair ladder runs: bounded re-reads (transient,
    /// in-flight corruption), mirror read-repair (when the segment device
    /// is a [`MirrorDevice`](rvm_storage::MirrorDevice)), a rewrite from
    /// the committed image in VM, and finally per-region quarantine —
    /// the region turns read-only and further writes fail with
    /// [`RvmError::Media`], while every other region keeps committing.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.shared.check_live()?;
        self.shared.scrub_pass()
    }

    /// Shuts the instance down cleanly (§4.2 `terminate`): fails if
    /// transactions are outstanding, otherwise flushes the spool and
    /// writes a final status block.
    ///
    /// On failure the instance comes back inside the
    /// [`TerminateFailure`]: after a `TransactionsOutstanding` refusal it
    /// is untouched, so the caller can end the transactions and call
    /// `terminate` again. Propagating the failure with `?` converts to
    /// the underlying [`RvmError`] and drops the instance (best-effort
    /// shutdown, as `Drop` always did).
    // The large Err is the point: the failure hands the whole instance
    // back so the caller can retry, and boxing it would change the API
    // for a cold path.
    #[allow(clippy::result_large_err)]
    pub fn terminate(mut self) -> std::result::Result<(), TerminateFailure> {
        let active = self.shared.active_txns.load(Ordering::Acquire);
        if active > 0 {
            return Err(TerminateFailure {
                rvm: self,
                error: RvmError::TransactionsOutstanding(active),
            });
        }
        match self.shutdown() {
            Ok(()) => Ok(()),
            Err(error) => Err(TerminateFailure { rvm: self, error }),
        }
    }

    fn shutdown(&mut self) -> Result<()> {
        if self.shared.terminated.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        // Wake and join the background truncation thread.
        {
            let mut flag = self.shared.bg_wakeup.lock();
            *flag = true;
            self.shared.bg_condvar.notify_all();
        }
        if let Some(handle) = self.bg_thread.lock().take() {
            let _ = handle.join();
        }
        // A poisoned instance must not touch the durable image again: the
        // surviving log already holds the committed prefix, and a final
        // status write could advance past records that never made it out.
        if self.shared.poisoned.load(Ordering::Acquire) {
            return Err(RvmError::Poisoned);
        }
        self.shared.flush_barrier()?;
        let mut core = self.shared.core.lock();
        let r = self.shared.write_status_locked(&mut core);
        self.shared.guard_io(r)?;
        Ok(())
    }
}

impl Drop for Rvm {
    fn drop(&mut self) {
        // Best-effort clean shutdown; errors cannot be reported here.
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for Rvm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rvm")
            .field(
                "terminated",
                &self.shared.terminated.load(Ordering::Acquire),
            )
            .finish()
    }
}

impl RvmShared {
    /// Fails fast on a terminated or poisoned instance.
    pub(crate) fn check_live(&self) -> Result<()> {
        if self.terminated.load(Ordering::Acquire) {
            Err(RvmError::Terminated)
        } else if self.poisoned.load(Ordering::Acquire) {
            Err(RvmError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Marks the instance poisoned (idempotent; counts once).
    fn poison(&self) {
        if !self.poisoned.swap(true, Ordering::AcqRel) {
            self.stats
                .fault
                .poisonings
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Poisons the instance if `result` is a device failure that reached
    /// here — by construction, one that survived the retry layer, so the
    /// durable image can no longer be trusted to match in-memory state.
    /// Non-device errors (`LogFull`, mapping errors, ...) pass through:
    /// they leave the log consistent and the instance usable.
    pub(crate) fn guard_io<T>(&self, result: Result<T>) -> Result<T> {
        if let Err(RvmError::Device(_)) = &result {
            self.poison();
        }
        result
    }

    /// Writes the status block from live state.
    pub(crate) fn write_status_locked(&self, core: &mut Core) -> Result<()> {
        // An epoch in flight persists its boundary; a step has none.
        let boundary = core.truncation.as_ref().and_then(|t| t.boundary);
        let mut status = StatusBlock {
            seq: core.status_seq,
            head: core.wal.head(),
            tail: core.wal.tail(),
            seq_at_head: core.wal.seq_at_head(),
            next_seq: core.wal.next_seq(),
            area_len: core.wal.capacity(),
            epoch_end: boundary.map_or(0, |b| b.tail()),
            epoch_next_seq: boundary.map_or(0, |b| b.next_seq()),
            segments: core.segments.clone(),
        };
        write_status(self.dev.as_ref(), &mut status)?;
        core.status_seq = status.seq;
        Ok(())
    }
}

pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
