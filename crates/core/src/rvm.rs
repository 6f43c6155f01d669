//! The top-level RVM instance: initialization, mapping, commit paths,
//! flushing, and truncation (Figure 4's operation set).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rvm_storage::Device;

use crate::check::{self, CheckState, CheckViolation};
use crate::cursor::WalCursor;
use crate::error::{Result, RvmError};
use crate::group::{GroupCommit, GroupSlot, SlotWork};
use crate::log::record::{self, RecordRange};
use crate::log::status::{format_log, read_status, write_status, StatusBlock, LOG_AREA_START};
use crate::log::wal::{scan_span, AppendInfo, StagingBuf, Wal, WalCheckpoint};
use crate::options::{CommitMode, LoadPolicy, MutationHooks, Options, Tuning, TxnMode, PAGE_SIZE};
use crate::pipeline::{Batch, InFlightBatch, LogPipeline, PIPELINE_DEPTH};
use crate::query::{LogInfo, QueryInfo};
use crate::ranges::{ByteRange, RangeSet};
use crate::recovery::{by_segment, latest_trees, recover, tree_end, tree_len, RecoveryReport};
use crate::region::{Region, RegionDescriptor, RegionInner, RegionMemory};
use crate::retry::{retry_resolver, Retrier, RetryDevice};
use crate::scrub::{
    apply_tree_verified, read_page_verified, sidecar_name, ApplyContext, ApplyOutcome, ScrubReport,
    SegmentChecksums,
};
use crate::segment::{DeviceResolver, SegmentId, SegmentInfo};
use crate::spool::{SpoolPlane, SpooledTxn};
use crate::stats::{batch_size_bucket, Stats, StatsSnapshot, TracedMutex};
use crate::truncation::page_vector::PageVector;
use crate::truncation::{PageDesc, PageQueue};
use crate::txn::{Transaction, TxnRegion};

/// Pages written per incremental-truncation sync batch.
const INCREMENTAL_BATCH_PAGES: usize = 32;

/// The held core lock. Functions that may *release and reacquire* the
/// lock (waiting out an in-flight epoch truncation) take this guard type;
/// functions that only mutate state take plain `&mut Core`.
type CoreGuard<'a> = MutexGuard<'a, Core>;

/// State guarded by the "core" lock: the WAL, the segment table, and the
/// page queue. Historically this one lock also guarded the spool, the
/// segment-device registry, and every statistic; those now live in their
/// own concurrency planes on [`RvmShared`] (`spool`, `seg_devices` /
/// `seg_catalogs`, `stats`, and the lock-free `cursor` view of the WAL),
/// so `core` serializes only log mutation and truncation boundaries.
pub(crate) struct Core {
    wal: Wal,
    status_seq: u64,
    segments: Vec<SegmentInfo>,
    page_queue: PageQueue,
    /// Segments referenced by live (untruncated) log records.
    segs_in_log: HashSet<u32>,
    /// The in-flight concurrent epoch truncation, if any (§5.1.2,
    /// Figure 6: the old epoch is applied to segments while forward
    /// processing continues in the rest of the log).
    epoch: Option<EpochInFlight>,
    /// Bumped by any thread that releases and reacquires the core lock
    /// mid-operation (waiting out an in-flight epoch or draining the
    /// pipeline). A flush batch compares it against the value at its WAL
    /// checkpoint: if it changed, other committers' records may have
    /// interleaved and the checkpoint is no longer a rollback point.
    wait_generation: u64,
    /// Where the flush-commit leader stages its batch (leadership is
    /// exclusive, so one buffer serves every round). Completed inline it
    /// keeps its allocation for the next round; submitted, its bytes
    /// leave with the writes.
    staging: StagingBuf,
    /// crashmc's deliberate protocol mutations; all off unless the
    /// `mutation-hooks` feature's setter flipped one.
    hooks: MutationHooks,
}

/// A concurrent epoch truncation in flight: the frozen span
/// `[wal.head(), end)` is being scanned and applied to data segments with
/// the core lock *released*. The head does not move and nothing in the
/// span can be overwritten meanwhile, because free-space accounting still
/// counts the span as live; and everything in it is fully written and
/// forced, because records are appended and forced under a single lock
/// hold.
struct EpochInFlight {
    /// Exclusive logical end of the frozen span.
    end: u64,
    /// `next_seq` the log had at `end` when the epoch was snapshotted
    /// (becomes `seq_at_head` when the head advances to `end`).
    next_seq: u64,
    /// Segments referenced by frozen-span records (restored on failure).
    segs: HashSet<u32>,
    /// Page-queue descriptors covered by the frozen span, drained at
    /// snapshot time so commits landing during the apply re-enqueue
    /// their pages with new-epoch offsets.
    drained: Vec<PageDesc>,
}

/// Shared library state behind [`Rvm`] handles and live transactions.
pub(crate) struct RvmShared {
    dev: Arc<dyn Device>,
    resolver: DeviceResolver,
    pub(crate) tuning: RwLock<Tuning>,
    pub(crate) stats: Stats,
    core: TracedMutex<Core>,
    /// Lock-free seqlock view of the WAL cursors (shared with `core.wal`,
    /// which is the only writer — always under the core lock). Readers
    /// (`query`, truncation-threshold checks) snapshot it without
    /// touching `core`.
    cursor: Arc<WalCursor>,
    /// The record area's byte capacity; immutable after `initialize`, so
    /// utilization can be derived from a cursor snapshot alone.
    log_capacity: u64,
    /// The spool plane: sharded locks + lock-free gauges (see
    /// [`crate::spool::SpoolPlane`]). No-flush commits push here without
    /// taking `core`.
    spool: SpoolPlane,
    /// Resolved segment devices, behind their own reader/writer lock so
    /// cache hits (commit bookkeeping, `query` mirror health) never take
    /// `core`. The miss path resolves by name from `core.segments`, which
    /// callers already hold.
    seg_devices: RwLock<HashMap<u32, Arc<dyn Device>>>,
    /// Checksum catalogs for resolved segments (empty with
    /// [`Tuning::segment_checksums`] off); same plane discipline as
    /// `seg_devices`.
    seg_catalogs: RwLock<HashMap<u32, Arc<SegmentChecksums>>>,
    /// Mirror of `core.page_queue.len()` (see [`PageQueue::gauge`]).
    queued_pages: Arc<AtomicUsize>,
    /// Mirror of `core.epoch.is_some()` for the *concurrent* epoch
    /// protocol, so `query` reports `truncation_in_flight` without the
    /// core lock. (The synchronous space-critical path never sets
    /// `core.epoch` and so never sets this either, same as before.)
    epoch_active: AtomicBool,
    /// The flush-commit queue (see [`crate::group`]). Its lock is never
    /// held while acquiring `core` or vice versa.
    group: GroupCommit,
    regions: RwLock<HashMap<u64, Arc<RegionInner>>>,
    /// Debug-mode checker state (snapshots, declared ranges, violations).
    /// Lock order: `regions` → `check` → region memory locks; never taken
    /// while holding `core`.
    check: Mutex<CheckState>,
    next_tid: AtomicU64,
    next_region_id: AtomicU64,
    pub(crate) active_txns: AtomicU64,
    terminated: AtomicBool,
    /// Set when an unrecoverable I/O failure left the durable image ahead
    /// of what callers were told; see [`RvmError::Poisoned`].
    poisoned: AtomicBool,
    bg_wakeup: Mutex<bool>,
    bg_condvar: Condvar,
    /// Tells the background truncation thread to exit; set by
    /// [`Rvm::set_options`] when `background_truncation` is toggled off.
    bg_stop: AtomicBool,
    /// Wakeup flag/condvar/stop for the background scrubber thread,
    /// mirroring the truncation trio above.
    scrub_wakeup: Mutex<bool>,
    scrub_condvar: Condvar,
    scrub_stop: AtomicBool,
    /// Paired with `core`: signalled whenever an in-flight epoch
    /// truncation completes or fails. Waiters hold the core lock.
    epoch_done: Condvar,
    /// True while an epoch apply is running off-lock (phase 2); commits
    /// that complete in that window count `commits_during_truncation`.
    truncating: AtomicBool,
    /// Flush batches submitted to the device but not yet reaped (see
    /// [`crate::pipeline`]); empty while leaders complete their batches
    /// inline. Its lock ranks just above `core` and is never held across
    /// an acquisition of `core`.
    pipeline: LogPipeline,
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
    shared: Arc<RvmShared>,
    recovery_report: RecoveryReport,
    /// The background truncation thread, if running. Behind a mutex so
    /// [`Rvm::set_options`] can spawn/stop it through `&self`.
    bg_thread: Mutex<Option<JoinHandle<()>>>,
    /// The background scrubber thread, if running (same discipline).
    scrub_thread: Mutex<Option<JoinHandle<()>>>,
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

        let recovered = recover(&dev, status, &resolver, options.tuning.segment_checksums)?;
        let status = recovered.status;
        let wal = Wal::new(
            dev.clone(),
            status.area_len,
            status.head,
            status.tail,
            status.seq_at_head,
            status.next_seq,
        );

        let cursor = wal.cursor();
        let log_capacity = wal.capacity();
        let page_queue = PageQueue::new();
        let queued_pages = page_queue.gauge();
        let shared = Arc::new(RvmShared {
            dev,
            resolver,
            tuning: RwLock::new(options.tuning),
            stats,
            core: TracedMutex::new(Core {
                wal,
                status_seq: status.seq,
                segments: status.segments,
                page_queue,
                segs_in_log: HashSet::new(),
                epoch: None,
                wait_generation: 0,
                staging: StagingBuf::new(),
                hooks: MutationHooks::default(),
            }),
            cursor,
            log_capacity,
            spool: SpoolPlane::new(),
            seg_devices: RwLock::new(recovered.seg_devices),
            seg_catalogs: RwLock::new(recovered.seg_catalogs),
            queued_pages,
            epoch_active: AtomicBool::new(false),
            group: GroupCommit::default(),
            regions: RwLock::new(HashMap::new()),
            check: Mutex::new(CheckState::default()),
            next_tid: AtomicU64::new(1),
            next_region_id: AtomicU64::new(1),
            active_txns: AtomicU64::new(0),
            terminated: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            bg_wakeup: Mutex::new(false),
            bg_condvar: Condvar::new(),
            bg_stop: AtomicBool::new(false),
            scrub_wakeup: Mutex::new(false),
            scrub_condvar: Condvar::new(),
            scrub_stop: AtomicBool::new(false),
            epoch_done: Condvar::new(),
            truncating: AtomicBool::new(false),
            pipeline: LogPipeline::default(),
        });

        let bg_thread = options
            .tuning
            .background_truncation
            .then(|| spawn_bg_thread(&shared));
        let scrub_thread = options
            .tuning
            .background_scrub
            .then(|| spawn_scrub_thread(&shared));

        Ok(Self {
            shared,
            recovery_report: recovered.report,
            bg_thread: Mutex::new(bg_thread),
            scrub_thread: Mutex::new(scrub_thread),
        })
    }

    /// What crash recovery did during [`Rvm::initialize`].
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery_report
    }

    fn check_live(&self) -> Result<()> {
        if self.shared.terminated.load(Ordering::Acquire) {
            Err(RvmError::Terminated)
        } else if self.shared.poisoned.load(Ordering::Acquire) {
            Err(RvmError::Poisoned)
        } else {
            Ok(())
        }
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
        self.check_live()?;
        desc.validate()?;
        let shared = &self.shared;
        let mut core = shared.core.lock();

        // Enter the segment into the durable table on first sight; the
        // table must be durable before any record references the id.
        let mut status_dirty = false;
        let seg_id = match core.segments.iter().position(|s| s.name == desc.segment) {
            Some(i) => core.segments[i].id,
            None => {
                if !StatusBlock::segments_fit(&core.segments, desc.segment.len()) {
                    return Err(RvmError::SegmentTableFull);
                }
                let id = SegmentId::new(core.segments.len() as u32);
                core.segments.push(SegmentInfo {
                    id,
                    name: desc.segment.clone(),
                    min_len: desc.offset + desc.len,
                });
                status_dirty = true;
                id
            }
        };
        {
            let info = core
                .segments
                .iter_mut()
                .find(|s| s.id == seg_id)
                .expect("segment just looked up");
            if info.min_len < desc.offset + desc.len {
                info.min_len = desc.offset + desc.len;
                status_dirty = true;
            }
        }

        // §4.1 mapping rules: no region mapped twice, no overlap.
        let new_range = ByteRange::at(desc.offset, desc.len);
        for region in shared.regions.read().values() {
            if region.seg == seg_id {
                let existing = ByteRange::at(region.seg_offset, region.len);
                if new_range.start < existing.end && existing.start < new_range.end {
                    return Err(RvmError::BadMapping(format!(
                        "[{}, {}) of '{}' overlaps the mapped region [{}, {})",
                        new_range.start, new_range.end, desc.segment, existing.start, existing.end
                    )));
                }
            }
        }

        let min_len = desc.offset + desc.len;
        let seg_dev = self.shared.segment_device(&core, seg_id, min_len)?;
        let catalog = self.shared.segment_catalog(&core, seg_id, &seg_dev)?;
        if status_dirty {
            let r = shared.write_status_locked(&mut core);
            shared.guard_io(r)?;
        }

        // A pipelined batch not yet reaped may reference this segment
        // without appearing in `segs_in_log` (membership is recorded at
        // reap): drain the pipeline so the image decision below sees a
        // settled log. Reaping needs the core lock, so release it around
        // the drain; batches are submitted under `core`, so once the
        // pipeline is idle *while we hold the lock* none can be in flight.
        while !shared.pipeline.is_idle() {
            drop(core);
            shared.pipeline_drain();
            core = shared.core.lock();
            core.wait_generation += 1;
        }

        // Guarantee the mapped image is the committed one: if live log
        // records, an in-flight epoch apply, or spooled commits reference
        // this segment, reflect them into the device first.
        let epoch_references = |core: &Core| {
            core.epoch
                .as_ref()
                .is_some_and(|e| e.segs.contains(&seg_id.as_u32()))
        };
        if core.segs_in_log.contains(&seg_id.as_u32())
            || shared.spool.references(seg_id)
            || epoch_references(&core)
        {
            // An off-lock epoch apply owns the span `[head, epoch.end)`;
            // wait it out rather than scanning a span another thread is
            // applying (the wait releases the core lock).
            while core.epoch.is_some() {
                shared.epoch_done.wait(&mut core);
            }
            if shared.poisoned.load(Ordering::Acquire) {
                return Err(RvmError::Poisoned);
            }
            if core.segs_in_log.contains(&seg_id.as_u32()) || shared.spool.references(seg_id) {
                let r = shared.flush_spool_locked(&mut core);
                shared.guard_io(r)?;
                let r = shared.epoch_truncate_locked(&mut core);
                shared.guard_io(r)?;
            }
        }

        let inner = Arc::new(RegionInner {
            id: shared.next_region_id.fetch_add(1, Ordering::Relaxed),
            seg: seg_id,
            seg_name: desc.segment.clone(),
            seg_dev,
            seg_offset: desc.offset,
            len: desc.len,
            mem: RegionMemory::alloc(desc.len as usize),
            mem_lock: RwLock::new(()),
            mapped: AtomicBool::new(true),
            uncommitted_txns: AtomicU64::new(0),
            page_vector: Mutex::new(PageVector::new(desc.len)),
            unloaded: Mutex::new(match policy {
                LoadPolicy::Eager => None,
                LoadPolicy::OnDemand => Some(vec![true; desc.len.div_ceil(PAGE_SIZE) as usize]),
            }),
            catalog,
            degraded: AtomicBool::new(false),
            media: self.shared.stats.media.clone(),
        });
        if policy == LoadPolicy::Eager {
            inner.load_from_segment()?;
        }
        shared.regions.write().insert(inner.id, inner.clone());
        Ok(Region { inner })
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
        self.check_live()?;
        self.shared.active_txns.fetch_add(1, Ordering::AcqRel);
        let tid = self.shared.next_tid.fetch_add(1, Ordering::Relaxed);
        let txn = Transaction::new(tid, mode, self.shared.clone());
        if self.shared.tuning.read().check_unlogged_writes {
            self.shared.snapshot_for_check(tid);
        }
        Ok(txn)
    }

    /// Forces all spooled no-flush commits to the log (§4.2 `flush`).
    pub fn flush(&self) -> Result<()> {
        self.check_live()?;
        let mut core = self.shared.core.lock();
        let r = self.shared.flush_spool_locked(&mut core);
        self.shared.guard_io(r)
    }

    /// Applies every committed change in the write-ahead log to its data
    /// segment and reclaims the space (§4.2 `truncate`). Blocks until
    /// done, but runs the epoch apply with the core lock *released*, so
    /// concurrent commits keep appending in the rest of the circular log
    /// (§5.1.2: truncation proceeds "while forward processing continues").
    /// Spooled no-flush commits are *not* included — call [`Rvm::flush`]
    /// first for that.
    pub fn truncate(&self) -> Result<()> {
        self.check_live()?;
        // Settle any in-flight pipelined batches first: the epoch can
        // only freeze the span below the pipeline floor, and an explicit
        // truncate promises to reclaim everything committed so far.
        self.shared.pipeline_drain();
        self.shared.epoch_truncate_concurrent(None, true)?;
        Ok(())
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
    /// `background_scrub` toggles the scrubber thread the same way.
    pub fn set_options(&self, tuning: Tuning) {
        // `bg_thread`/`scrub_thread` are locked around both the tuning
        // write and the spawn/stop so concurrent `set_options` calls
        // cannot leave the thread state disagreeing with the flags.
        let mut bg = self.bg_thread.lock();
        let mut scrub = self.scrub_thread.lock();
        let (was_bg, was_scrub) = {
            let mut t = self.shared.tuning.write();
            let was = (t.background_truncation, t.background_scrub);
            *t = tuning;
            was
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
        if tuning.background_scrub && !was_scrub {
            if scrub.is_none() {
                *scrub = Some(spawn_scrub_thread(&self.shared));
            }
        } else if !tuning.background_scrub && was_scrub {
            if let Some(handle) = scrub.take() {
                self.shared.scrub_stop.store(true, Ordering::Release);
                self.shared.scrub_condvar.notify_all();
                let _ = handle.join();
                self.shared.scrub_stop.store(false, Ordering::Release);
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
    /// spool and page-queue gauges, the WAL cursor seqlock, and the
    /// segment-device registry's read lock. `query` never acquires the
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
        // play (the log plus resolved segments). Plain devices report no
        // replica health and contribute nothing.
        let mut replicas_alive = 0usize;
        let mut replicas_total = 0usize;
        {
            let seg_devices = self.shared.seg_devices.read();
            for (alive, total) in std::iter::once(self.shared.dev.replica_health())
                .chain(seg_devices.values().map(|d| d.replica_health()))
                .flatten()
            {
                replicas_alive += alive;
                replicas_total += total;
            }
        }
        let snap = self.shared.cursor.snapshot();
        let capacity = self.shared.log_capacity;
        QueryInfo {
            active_transactions: self.shared.active_txns.load(Ordering::Acquire),
            mapped_regions,
            regions_degraded,
            replicas_alive,
            replicas_total,
            spooled_transactions: self.shared.spool.len(),
            spool_bytes: self.shared.spool.bytes(),
            queued_pages: self.shared.queued_pages.load(Ordering::Relaxed),
            log: LogInfo {
                head: snap.head,
                tail: snap.tail,
                used: snap.used(),
                capacity,
                utilization: snap.utilization(capacity),
            },
            truncation_in_flight: self.shared.epoch_active.load(Ordering::Acquire),
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
    /// pass (the background analog is
    /// [`Tuning::background_scrub`](crate::Tuning)).
    ///
    /// Detection requires [`Tuning::segment_checksums`](crate::Tuning)
    /// (on by default); regions mapped while it was off are skipped. On a
    /// mismatch the repair ladder runs: bounded re-reads (transient,
    /// in-flight corruption), mirror read-repair (when the segment device
    /// is a [`MirrorDevice`](rvm_storage::MirrorDevice)), a rewrite from
    /// the committed image in VM, and finally per-region quarantine —
    /// the region turns read-only and further writes fail with
    /// [`RvmError::Media`], while every other region keeps committing.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.check_live()?;
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
        // Wake and join the background truncation and scrubber threads.
        {
            let mut flag = self.shared.bg_wakeup.lock();
            *flag = true;
            self.shared.bg_condvar.notify_all();
        }
        if let Some(handle) = self.bg_thread.lock().take() {
            let _ = handle.join();
        }
        {
            let mut flag = self.shared.scrub_wakeup.lock();
            *flag = true;
            self.shared.scrub_condvar.notify_all();
        }
        if let Some(handle) = self.scrub_thread.lock().take() {
            let _ = handle.join();
        }
        // A poisoned instance must not touch the durable image again: the
        // surviving log already holds the committed prefix, and a final
        // status write could advance past records that never made it out.
        if self.shared.poisoned.load(Ordering::Acquire) {
            return Err(RvmError::Poisoned);
        }
        let mut core = self.shared.core.lock();
        let r = self.shared.flush_spool_locked(&mut core);
        self.shared.guard_io(r)?;
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
    fn guard_io<T>(&self, result: Result<T>) -> Result<T> {
        if let Err(RvmError::Device(_)) = &result {
            self.poison();
        }
        result
    }

    /// Resolves (and caches) the device backing a segment. The cache is
    /// the `seg_devices` registry plane; only the miss path needs `core`
    /// (for the durable name table), which every caller already holds.
    /// The registry guard is never held across device I/O.
    fn segment_device(&self, core: &Core, seg: SegmentId, min_len: u64) -> Result<Arc<dyn Device>> {
        let cached = self.seg_devices.read().get(&seg.as_u32()).cloned();
        if let Some(dev) = cached {
            if dev.len()? < min_len {
                dev.set_len(min_len)?;
            }
            return Ok(dev);
        }
        let info = core
            .segments
            .iter()
            .find(|s| s.id == seg)
            .ok_or_else(|| RvmError::BadLog(format!("unknown segment id {seg}")))?;
        let dev = (self.resolver)(&info.name, min_len.max(info.min_len))?;
        if dev.len()? < min_len {
            dev.set_len(min_len)?;
        }
        // Double-checked insert: if another resolver of the same segment
        // won the race, keep (and hand out) its entry.
        let dev = self
            .seg_devices
            .write()
            .entry(seg.as_u32())
            .or_insert(dev)
            .clone();
        Ok(dev)
    }

    /// Resolves (and caches) a segment's checksum catalog sidecar; `None`
    /// when [`Tuning::segment_checksums`] is off. A cached catalog is
    /// grown to cover a segment that grew since it was opened. Same plane
    /// discipline as [`RvmShared::segment_device`].
    fn segment_catalog(
        &self,
        core: &Core,
        seg: SegmentId,
        dev: &Arc<dyn Device>,
    ) -> Result<Option<Arc<SegmentChecksums>>> {
        if !self.tuning.read().segment_checksums {
            return Ok(None);
        }
        let cached = self.seg_catalogs.read().get(&seg.as_u32()).cloned();
        if let Some(catalog) = cached {
            catalog.ensure_covers(dev.as_ref(), dev.len()?)?;
            return Ok(Some(catalog));
        }
        let info = core
            .segments
            .iter()
            .find(|s| s.id == seg)
            .ok_or_else(|| RvmError::BadLog(format!("unknown segment id {seg}")))?;
        let side = (self.resolver)(&sidecar_name(&info.name), 0)?;
        let catalog = Arc::new(SegmentChecksums::open(side, dev.as_ref(), dev.len()?)?);
        let catalog = self
            .seg_catalogs
            .write()
            .entry(seg.as_u32())
            .or_insert(catalog)
            .clone();
        Ok(Some(catalog))
    }

    /// Log utilization from the lock-free cursor seqlock — the commit
    /// paths' truncation-threshold check, off the core lock.
    fn utilization_snapshot(&self) -> f64 {
        self.cursor.snapshot().utilization(self.log_capacity)
    }

    /// Charges a verified apply's corruption counts to the instance-wide
    /// media counters.
    fn charge_media(&self, outcome: &ApplyOutcome) {
        let media = &self.stats.media;
        media
            .corruptions_detected
            .fetch_add(outcome.corruptions_detected, Ordering::Relaxed);
        media
            .corruptions_repaired
            .fetch_add(outcome.corruptions_repaired, Ordering::Relaxed);
    }

    /// Writes the status block from live state.
    fn write_status_locked(&self, core: &mut Core) -> Result<()> {
        let mut status = StatusBlock {
            seq: core.status_seq,
            head: core.wal.head(),
            tail: core.wal.tail(),
            seq_at_head: core.wal.seq_at_head(),
            next_seq: core.wal.next_seq(),
            area_len: core.wal.capacity(),
            epoch_end: core.epoch.as_ref().map_or(0, |e| e.end),
            epoch_next_seq: core.epoch.as_ref().map_or(0, |e| e.next_seq),
            segments: core.segments.clone(),
        };
        write_status(self.dev.as_ref(), &mut status)?;
        core.status_seq = status.seq;
        Ok(())
    }

    /// Appends a record, making room as needed. With an epoch truncation
    /// in flight, the thread waits for it to free the frozen span — the
    /// wait **releases the core lock** (callers must re-validate any
    /// state derived from it; `Core::wait_generation` records that the
    /// release happened). With no epoch in flight, it falls back to the
    /// synchronous space-critical epoch truncation of §5.1.2. Both stall
    /// paths are charged to `truncation_stall_ns`.
    fn append_with_space(
        &self,
        core: &mut CoreGuard<'_>,
        tid: u64,
        ranges: &[RecordRange],
    ) -> Result<AppendInfo> {
        loop {
            let full = match core.wal.append_txn(tid, ranges) {
                // `LogFull` against less than the whole area: the record
                // does not fit right now, and truncation can make room.
                Err(e @ RvmError::LogFull { capacity, .. }) if capacity < core.wal.capacity() => e,
                result => return result,
            };
            let stall = Instant::now();
            if core.epoch.is_some() {
                // The in-flight epoch owns the head and will free the
                // frozen span when it completes; waiting releases the
                // core lock so the apply thread can finish phase 3.
                self.epoch_done.wait(core);
                core.wait_generation += 1;
                self.stats
                    .add(&self.stats.truncation_stall_ns, elapsed_ns(stall));
                if self.poisoned.load(Ordering::Acquire) {
                    return Err(RvmError::Poisoned);
                }
                continue;
            }
            let advanced = self.epoch_truncate_locked(core);
            self.stats
                .add(&self.stats.truncation_stall_ns, elapsed_ns(stall));
            if !advanced? {
                return Err(full);
            }
        }
    }

    /// `begin_transaction` hook: snapshots every fully loaded mapped
    /// region for the commit-time unlogged-write diff. On-demand regions
    /// still holding unfetched pages are skipped — a page fetch mutates
    /// memory without any transaction writing it, which the diff would
    /// misread as an unlogged write.
    fn snapshot_for_check(&self, tid: u64) {
        let regions = self.regions.read();
        let mut snaps = HashMap::new();
        for (id, region) in regions.iter() {
            if region.unloaded.lock().is_some() {
                continue;
            }
            snaps.insert(*id, region.read_bytes(0, region.len));
        }
        self.check.lock().snapshots.insert(tid, snaps);
    }

    /// Commit-time unlogged-write check: diffs each snapshotted region
    /// against current memory and subtracts every declared `set_range`
    /// interval — this transaction's own write set plus every other live
    /// transaction's (their commits will log those bytes). Whatever
    /// remains changed behind RVM's back (§6's forgotten-`set_range`
    /// disaster) and is recorded as a [`CheckViolation`].
    fn run_commit_check(&self, txn: &Transaction) {
        let (enabled, panic_on) = {
            let t = self.tuning.read();
            (t.check_unlogged_writes, t.panic_on_violation)
        };
        let regions = self.regions.read();
        let mut state = self.check.lock();
        let Some(snaps) = state.snapshots.remove(&txn.tid) else {
            return;
        };
        if !enabled {
            // Checking was turned off mid-transaction; drop the snapshot.
            return;
        }
        let mut found = Vec::new();
        let mut refresh: Vec<(u64, ByteRange, Vec<u8>)> = Vec::new();
        for (region_id, old) in &snaps {
            let Some(region) = regions.get(region_id) else {
                continue; // unmapped since begin_transaction
            };
            let current = region.read_bytes(0, region.len);
            let mut allowed = RangeSet::new();
            if let Some(txn_region) = txn.regions.get(region_id) {
                for r in txn_region.ranges.iter() {
                    allowed.insert(r);
                }
            }
            if let Some(declared) = state.declared.get(region_id) {
                for (tid, r) in declared {
                    if *tid != txn.tid {
                        allowed.insert(*r);
                    }
                }
            }
            let allowed: Vec<ByteRange> = allowed.iter().collect();
            for d in check::diff_intervals(old, &current) {
                for bad in check::subtract_ranges(d, &allowed) {
                    found.push(CheckViolation::UnloggedWrite {
                        tid: txn.tid,
                        segment: region.seg_name.clone(),
                        offset: bad.start,
                        len: bad.len(),
                    });
                    let bytes = current[bad.start as usize..bad.end as usize].to_vec();
                    refresh.push((*region_id, bad, bytes));
                }
            }
        }
        // Fold the offending bytes into the other live snapshots so one
        // unlogged write is reported once, not once per open transaction.
        for (region_id, bad, bytes) in refresh {
            for snaps in state.snapshots.values_mut() {
                if let Some(img) = snaps.get_mut(&region_id) {
                    img[bad.start as usize..bad.end as usize].copy_from_slice(&bytes);
                }
            }
        }
        self.record_check_violations(&mut state, found, panic_on);
    }

    /// `set_range` hook: records the declaration for the diff exclusion
    /// set and, with conflict checking on, flags overlaps with other live
    /// transactions' declarations (§3.1's punted data-race class).
    pub(crate) fn check_declared_range(
        &self,
        tid: u64,
        region: &Arc<RegionInner>,
        range: ByteRange,
    ) {
        let (track, conflicts, panic_on) = {
            let t = self.tuning.read();
            (
                t.check_unlogged_writes || t.check_range_conflicts,
                t.check_range_conflicts,
                t.panic_on_violation,
            )
        };
        if !track {
            return;
        }
        let mut state = self.check.lock();
        let found = {
            let entries = state.declared.entry(region.id).or_default();
            let mut found = Vec::new();
            if conflicts {
                for (other, r) in entries.iter() {
                    if *other != tid && r.start < range.end && range.start < r.end {
                        let start = range.start.max(r.start);
                        let end = range.end.min(r.end);
                        found.push(CheckViolation::RangeConflict {
                            tid,
                            other_tid: *other,
                            segment: region.seg_name.clone(),
                            offset: start,
                            len: end - start,
                        });
                    }
                }
            }
            entries.push((tid, range));
            found
        };
        self.record_check_violations(&mut state, found, panic_on);
    }

    /// Transaction-end hook (commit, abort, or drop): refreshes the other
    /// live snapshots over this transaction's declared ranges — those
    /// bytes are now either committed or restored, and must not read as
    /// unlogged at someone else's commit — then forgets the transaction.
    pub(crate) fn check_txn_ended(&self, tid: u64, regions: &HashMap<u64, TxnRegion>) {
        let mut state = self.check.lock();
        if state.snapshots.is_empty() && state.declared.is_empty() {
            return;
        }
        for (region_id, txn_region) in regions {
            if state.snapshots.values().any(|m| m.contains_key(region_id)) {
                for r in txn_region.ranges.iter() {
                    let bytes = txn_region.region.read_bytes(r.start, r.len());
                    for snaps in state.snapshots.values_mut() {
                        if let Some(img) = snaps.get_mut(region_id) {
                            img[r.start as usize..r.end as usize].copy_from_slice(&bytes);
                        }
                    }
                }
            }
            let empty = if let Some(entries) = state.declared.get_mut(region_id) {
                entries.retain(|(t, _)| *t != tid);
                entries.is_empty()
            } else {
                false
            };
            if empty {
                state.declared.remove(region_id);
            }
        }
        state.snapshots.remove(&tid);
    }

    /// Counts, stores, and (with `panic_on_violation`) panics on check
    /// violations.
    fn record_check_violations(
        &self,
        state: &mut CheckState,
        found: Vec<CheckViolation>,
        panic_on: bool,
    ) {
        if found.is_empty() {
            return;
        }
        for v in &found {
            match v {
                CheckViolation::UnloggedWrite { .. } => {
                    self.stats.add(&self.stats.check_unlogged_writes, 1)
                }
                CheckViolation::RangeConflict { .. } => {
                    self.stats.add(&self.stats.check_range_conflicts, 1)
                }
            }
        }
        let msg = panic_on.then(|| {
            found
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        });
        state.violations.extend(found);
        if let Some(msg) = msg {
            panic!("rvm check violation: {msg}");
        }
    }

    /// Commits a transaction; called from [`Transaction::commit`].
    pub(crate) fn commit_txn(
        self: &Arc<Self>,
        txn: &mut Transaction,
        mode: CommitMode,
    ) -> Result<()> {
        if self.terminated.load(Ordering::Acquire) {
            txn.rollback();
            return Err(RvmError::Terminated);
        }
        if self.poisoned.load(Ordering::Acquire) {
            txn.rollback();
            return Err(RvmError::Poisoned);
        }
        self.run_commit_check(txn);
        // `Tuning` is `Copy`: a plain read through the lock, no per-commit
        // heap clone.
        let tuning = *self.tuning.read();
        let stats = &self.stats;

        // Read the new values out of recoverable memory *now* — "new-value
        // records that reflect the current contents of the corresponding
        // ranges of memory" (§5.1.1).
        let mut ranges: Vec<RecordRange> = Vec::new();
        let mut net_data = 0u64;
        let mut region_pages: Vec<(Arc<RegionInner>, Vec<usize>)> = Vec::new();
        let mut txn_regions: Vec<_> = txn.regions.values().collect();
        txn_regions.sort_by_key(|r| r.region.id);
        for txn_region in txn_regions {
            let region = &txn_region.region;
            let use_coalesced = tuning.intra_optimization;
            let iter: Vec<ByteRange> = if use_coalesced {
                txn_region.ranges.iter().collect()
            } else {
                txn_region.raw_ranges.clone()
            };
            let mut pages = std::collections::BTreeSet::new();
            for r in &iter {
                let data = region.read_bytes(r.start, r.len());
                net_data += data.len() as u64;
                for p in PageVector::page_span(r.start, r.len()) {
                    pages.insert(p);
                }
                ranges.push(RecordRange {
                    seg: region.seg,
                    offset: region.seg_offset + r.start,
                    data,
                });
            }
            region_pages.push((region.clone(), pages.into_iter().collect()));
        }
        if tuning.intra_optimization && txn.gross_bytes >= net_data {
            stats.add(&stats.bytes_saved_intra, txn.gross_bytes - net_data);
        }

        let mut over_threshold = false;
        if !ranges.is_empty() && mode == CommitMode::Flush {
            // Park the serialized transaction in the commit queue and
            // share one force with every concurrent flush committer (see
            // `flush_commit_enqueue`).
            match self.flush_commit_enqueue(txn.tid, ranges, region_pages, &tuning) {
                Ok(()) => {
                    stats.add(&stats.flush_commits, 1);
                    over_threshold = self.utilization_snapshot() > tuning.truncation_threshold;
                }
                Err(e) => {
                    txn.rollback();
                    return Err(e);
                }
            }
        } else if !ranges.is_empty() {
            // The no-flush fast path: nothing here touches the core lock.
            // The record goes to the spool plane (one shard lock), page
            // bookkeeping stays behind the per-region `page_vector`
            // locks, and the threshold check reads the cursor seqlock —
            // disjoint-region no-flush commits share no lock at all.
            let record_bytes = record::txn_record_bytes(&ranges);
            let mut pages_list = Vec::new();
            for (region, pages) in &region_pages {
                region.note_pages_spooled(pages);
                pages_list.push((Arc::downgrade(region), pages.clone()));
            }
            let saved = self.spool.push(
                SpooledTxn {
                    tid: txn.tid,
                    ticket: 0, // assigned by the plane
                    ranges,
                    pages: pages_list,
                    record_bytes,
                },
                tuning.inter_optimization,
            );
            stats.add(&stats.bytes_saved_inter, saved);
            stats.add(&stats.no_flush_commits, 1);
            if self.spool.bytes() > tuning.spool_max_bytes {
                // Spool overflow is the slow path: drain under `core`.
                let mut core = self.core.lock();
                let r = self.flush_spool_locked(&mut core);
                drop(core);
                if let Err(e) = self.guard_io(r) {
                    txn.rollback();
                    return Err(e);
                }
            }
            over_threshold = self.utilization_snapshot() > tuning.truncation_threshold;
        } else {
            // An empty transaction logs nothing itself, but a flush-mode
            // commit still promises that every commit that returned
            // before it is durable — including spooled no-flush commits.
            // Drain the spool exactly as a non-empty flush commit would
            // (previously skipped, which silently weakened the flush
            // guarantee to "durable except what the spool still holds").
            if mode == CommitMode::Flush && !self.spool.is_empty() {
                let mut core = self.core.lock();
                let r = self.flush_spool_locked(&mut core);
                if let Err(e) = self.guard_io(r) {
                    drop(core);
                    txn.rollback();
                    return Err(e);
                }
                over_threshold = core.wal.utilization() > tuning.truncation_threshold;
            }
            stats.add(
                match mode {
                    CommitMode::Flush => &stats.flush_commits,
                    CommitMode::NoFlush => &stats.no_flush_commits,
                },
                1,
            );
        }
        stats.add(&stats.txns_committed, 1);
        // lint:allow(atomics): stats-only hint (commits_during_truncation); a stale read is fine
        if self.truncating.load(Ordering::Relaxed) {
            // An epoch apply is running off-lock right now; this commit
            // made progress through it.
            stats.add(&stats.commits_during_truncation, 1);
        }
        txn.release();

        if over_threshold {
            self.request_truncation(&tuning);
        }
        Ok(())
    }

    /// Flush-commit committer side: parks the serialized transaction in
    /// the commit queue, then either waits for a leader to commit it or
    /// becomes the leader itself. (The caller derives the truncation
    /// trigger from the cursor seqlock afterwards, as every commit path
    /// does.)
    ///
    /// Leadership is a baton, not a thread: the first committer to find
    /// no active leader takes it, runs one bounded batch via
    /// [`RvmShared::leader_round`], releases it, and re-checks its own
    /// slot. A committer whose slot was left out of a bounded batch — or
    /// whose batch is still in flight — simply takes the baton next, so
    /// every enqueued transaction is committed after at most
    /// `queue length / max_txns` rounds and durable-log order equals
    /// queue order.
    fn flush_commit_enqueue(
        self: &Arc<Self>,
        tid: u64,
        ranges: Vec<RecordRange>,
        region_pages: Vec<(Arc<RegionInner>, Vec<usize>)>,
        tuning: &Tuning,
    ) -> Result<()> {
        let slot = Arc::new(GroupSlot {
            tid,
            record_bytes: record::txn_record_bytes(&ranges),
            work: Mutex::new(SlotWork {
                ranges,
                region_pages,
                outcome: None,
            }),
        });
        self.group.state.lock().queue.push_back(slot.clone());
        loop {
            let mut gs = self.group.state.lock();
            {
                let mut work = slot.work.lock();
                if let Some(outcome) = work.outcome.take() {
                    return outcome.map(|_| ());
                }
            }
            if gs.leader_active {
                // A leader is running (possibly carrying this slot in its
                // batch); wait for it to publish and hand off.
                self.group.wakeup.wait(&mut gs);
                continue;
            }
            gs.leader_active = true;
            drop(gs);
            self.leader_round(tuning);
            self.group.state.lock().leader_active = false;
            self.group.wakeup.notify_all();
        }
    }

    /// Leader side — the one flush-commit path. One bounded batch: drains
    /// up to `group_commit_max_txns` / `group_commit_max_bytes` slots from
    /// the queue front and, under one core-lock hold, flushes the spool,
    /// checkpoints the WAL, and stages every member in queue order. The
    /// staged batch then reaches [`Self::complete_batch`] one of two ways,
    /// chosen from what the leader observes, never from an option:
    ///
    /// * **inline** — the drain emptied the commit queue and no batch is
    ///   in flight, so there is nobody to overlap with: the leader writes
    ///   the staged bytes, forces the log once, and completes the batch
    ///   before it releases the core lock;
    /// * **submitted** — otherwise: the leader *submits* the writes and
    ///   the force without waiting and queues the batch in flight, so the
    ///   next leader's fill overlaps this force; a later FIFO reap
    ///   ([`Self::pipeline_reap_batch`]) waits for the device and
    ///   completes it. See [`crate::pipeline`].
    ///
    /// Staging and submission both happen under one core-lock hold, in
    /// queue order: a successor batch must never reach the device while
    /// an earlier batch's bytes are still an unwritten hole below it, or
    /// a crash after the successor's force could strand forced records
    /// beyond a gap the recovery scan cannot cross.
    ///
    /// Failure semantics: a `LogFull` on one member fails only that
    /// member (nothing of it was staged; the others still force and
    /// commit), while a device error on the spool drain, a write, or the
    /// shared force fails the *whole* batch — see
    /// [`Self::complete_batch`].
    fn leader_round(self: &Arc<Self>, tuning: &Tuning) {
        if tuning.group_commit_wait_us > 0 {
            // Accumulation window: let concurrent committers join the
            // batch. Wall-clock only; nothing is charged to a simulated
            // clock, and no lock is held.
            std::thread::sleep(std::time::Duration::from_micros(
                tuning.group_commit_wait_us,
            ));
        }
        let max_txns = tuning.group_commit_max_txns.max(1);
        let (slots, queue_drained) = {
            let mut gs = self.group.state.lock();
            let mut slots: Vec<Arc<GroupSlot>> = Vec::new();
            let mut bytes = 0u64;
            while slots.len() < max_txns {
                match gs.queue.front() {
                    Some(front)
                        if slots.is_empty()
                            || bytes + front.record_bytes <= tuning.group_commit_max_bytes =>
                    {
                        bytes += front.record_bytes
                    }
                    _ => break,
                }
                slots.extend(gs.queue.pop_front());
            }
            (slots, gs.queue.is_empty())
        };
        if slots.is_empty() {
            // Nothing queued: this round is the pipeline tail. Stand in
            // as the reaper so in-flight committers (including, possibly,
            // this thread's own batch) get their outcomes.
            self.pipeline_reap_front();
            return;
        }
        // Only a leader puts batches in flight and leadership is
        // exclusive, so a pipeline observed idle here stays idle for the
        // rest of the round.
        let inline = queue_drained && self.pipeline.is_idle();
        if !inline {
            self.pipeline_wait_for_room();
        }

        let stats = &self.stats;
        let mut core = self.core.lock();
        let mut outcomes: Vec<Result<AppendInfo>> = Vec::with_capacity(slots.len());
        // Members truncation provably cannot make room for; on the next
        // attempt they keep their own `LogFull` instead of re-truncating
        // (guarantees the retry loop terminates).
        let mut wont_fit = vec![false; slots.len()];
        let staged: Result<(WalCheckpoint, u64)> = 'attempt: loop {
            // Any path that released the core lock restarts the fill from
            // scratch: the staged appends were rolled back first, and the
            // checkpoint below is re-taken.
            core.staging.clear();
            outcomes.clear();
            if self.poisoned.load(Ordering::Acquire) {
                // Poisoned between enqueue and leadership (e.g. by the
                // previous batch): fail fast without touching the log.
                break Err(RvmError::Poisoned);
            }
            if let Err(e) = self.flush_spool_locked(&mut core) {
                break Err(e);
            }
            let ckpt = core.wal.checkpoint();
            let ckpt_gen = core.wait_generation;
            for (slot, wont_fit) in slots.iter().zip(&mut wont_fit) {
                let work = slot.work.lock();
                let Core { wal, staging, .. } = &mut *core;
                let outcome = wal.append_txn_staged(slot.tid, &work.ranges, staging);
                // `LogFull` against less than the whole area means "does
                // not fit right now": make room and start over.
                if matches!(&outcome, Err(RvmError::LogFull { capacity, .. })
                    if *capacity < wal.capacity() && !*wont_fit)
                {
                    // Rolling back the staged cursor advances is always
                    // safe here — the core lock has been held since the
                    // checkpoint, so nothing interleaved — and nothing of
                    // this batch reached the device yet.
                    drop(work);
                    wal.rollback_to(ckpt);
                    let stall = Instant::now();
                    let advanced = if core.epoch.is_some() {
                        // The in-flight epoch owns the head and frees its
                        // span when it completes; wait it out (releases
                        // the core lock).
                        self.epoch_done.wait(&mut core);
                        core.wait_generation += 1;
                        Ok(true)
                    } else if !self.pipeline.is_idle() {
                        // Synchronous truncation can only reclaim below
                        // the pipeline floor, so drain the in-flight
                        // batches first. Reaping needs the core lock —
                        // release it around the drain, then look again:
                        // an epoch may have begun meanwhile.
                        drop(core);
                        self.pipeline_drain();
                        core = self.core.lock();
                        core.wait_generation += 1;
                        Ok(true)
                    } else {
                        self.epoch_truncate_locked(&mut core)
                    };
                    stats.add(&stats.truncation_stall_ns, elapsed_ns(stall));
                    match advanced {
                        Ok(advanced) => *wont_fit = !advanced,
                        Err(e) => break 'attempt Err(e),
                    }
                    continue 'attempt;
                }
                outcomes.push(outcome);
            }
            break Ok((ckpt, ckpt_gen));
        };
        let (ckpt, ckpt_gen) = match staged {
            Ok(staged) => staged,
            Err(e) => {
                drop(core);
                let e = self.guard_io(Err::<(), _>(e)).unwrap_err();
                self.publish_failure(&slots, outcomes, e);
                return;
            }
        };

        let appended_any = outcomes.iter().any(|o| o.is_ok());
        // `skip_group_force` (crashmc mutation hook) acknowledges the
        // batch without its durability barrier: the classic lost-commit
        // bug the model checker must be able to see.
        let force = appended_any && !core.hooks.skip_group_force;
        let batch = Batch {
            slots,
            outcomes,
            ckpt,
            ckpt_gen,
            end_tail: core.wal.tail(),
        };
        if inline || !appended_any {
            // (With nothing appended — every member individually out of
            // log space — no bytes are staged and there is nothing to
            // wait on, so the batch completes here on either side.)
            let io = core.wal.write_staged(&core.staging).and_then(|()| {
                if force {
                    core.wal.force()
                } else {
                    Ok(())
                }
            });
            self.complete_batch(&mut core, batch, io);
            return;
        }

        let Core { wal, staging, .. } = &mut *core;
        let write_tokens = wal.submit_staged(staging);
        let force_token = force.then(|| wal.submit_force());
        stats.add(&stats.pipeline_submits, 1);
        let (depth, has_predecessor) = {
            let mut ps = self.pipeline.pipe.lock();
            ps.in_flight.push_back(InFlightBatch {
                batch,
                write_tokens,
                force_token,
            });
            (ps.depth(), ps.in_flight.len() > 1)
        };
        stats
            .forces_in_flight_hw
            .fetch_max(depth as u64, Ordering::Relaxed);
        drop(core);
        // Reap the predecessor, if any: its force has been in flight
        // while this batch filled. This batch itself stays in flight so
        // the *next* leader's fill overlaps it.
        if has_predecessor {
            self.pipeline_reap_front();
        }
    }

    /// Waits until the in-flight queue has room for one more batch — at
    /// most [`PIPELINE_DEPTH`] may be submitted or mid-reap — reaping the
    /// oldest itself when nobody else is. Time spent here is the pipeline
    /// *stall* (`pipeline_stall_ns`): the fill could not start until a
    /// force completed.
    fn pipeline_wait_for_room(&self) {
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
    /// first so reaps stay FIFO. No-op when the pipeline is idle.
    fn pipeline_reap_front(&self) {
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

    /// Reaps every in-flight batch. Used by paths that need the log
    /// settled: mapping a segment the pipeline may reference, and the
    /// space-critical synchronous truncation (which can only reclaim
    /// below the pipeline floor). Must be called with **no** locks held.
    pub(crate) fn pipeline_drain(&self) {
        while !self.pipeline.is_idle() {
            self.pipeline_reap_front();
        }
    }

    /// Submitted side's completion: waits the batch's writes and force
    /// with no locks held, completes it under the core lock, and releases
    /// the reap floor its caller set when popping it
    /// ([`PipeState::begin_reap`](crate::pipeline::PipeState)).
    fn pipeline_reap_batch(&self, mut in_flight: InFlightBatch) {
        let mut io: rvm_storage::Result<()> = Ok(());
        for t in in_flight
            .write_tokens
            .drain(..)
            .chain(in_flight.force_token.take())
        {
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
        // Purely an accelerant: parked committers re-check their slots
        // sooner. Missed wakeups are impossible — a committer that finds
        // `leader_active` false claims leadership itself, and leadership
        // release notifies under the group-state lock.
        self.group.wakeup.notify_all();
    }

    /// Completes a staged batch whose writes and force finished with
    /// `io` — the one place a flush batch's outcome is decided, called
    /// with the core lock held by whichever thread waited for the device
    /// (the leader itself inline, the FIFO reap otherwise).
    ///
    /// On success: statistics, page-queue and `segs_in_log` bookkeeping,
    /// and each member's own outcome. On failure the batch fails *whole*:
    /// the WAL cursors roll back to the pre-batch checkpoint iff nothing
    /// appended past the batch, and a device error poisons the instance,
    /// because records may sit unacknowledged in the device's
    /// write-behind cache.
    fn complete_batch(&self, core: &mut Core, batch: Batch, io: Result<()>) {
        let stats = &self.stats;
        if let Err(e) = io {
            // The checkpoint is a valid rollback point only while nothing
            // appended past the batch: the tail still matches its
            // post-append position and no core-lock release (which lets
            // other committers interleave records) bumped the wait
            // generation. Otherwise the records stay in the log
            // unacknowledged — the instance poisons below.
            // (`skip_group_rollback`, a crashmc mutation hook,
            // reintroduces the cursors-past-unforced-records bug the
            // rollback exists to prevent.)
            if core.wait_generation == batch.ckpt_gen
                && core.wal.tail() == batch.end_tail
                && !core.hooks.skip_group_rollback
            {
                core.wal.rollback_to(batch.ckpt);
            }
            let e = self.guard_io(Err::<(), _>(e)).unwrap_err();
            self.publish_failure(&batch.slots, batch.outcomes, e);
            return;
        }
        let successes = batch.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        if successes > 0 {
            stats.add(&stats.log_forces, 1);
            stats.add(&stats.group_commit_batches, 1);
            stats.add(&stats.group_commit_txns, successes);
            if let Some(bucket) = stats
                .group_commit_batch_sizes
                .get(batch_size_bucket(successes))
            {
                stats.add(bucket, 1);
            }
        }
        for (slot, outcome) in batch.slots.iter().zip(batch.outcomes) {
            let mut work = slot.work.lock();
            if let Ok(info) = &outcome {
                stats.add(&stats.bytes_logged, info.record_bytes);
                for (region, pages) in &work.region_pages {
                    region.note_pages_logged(pages);
                    for &p in pages {
                        core.page_queue.enqueue(region, p, info.offset, info.seq);
                    }
                }
                for r in &work.ranges {
                    core.segs_in_log.insert(r.seg.as_u32());
                }
            }
            work.outcome = Some(outcome);
        }
    }

    /// Publishes a whole-batch failure: one member receives the original
    /// error (for a batch of one, exactly what a lone commit would see),
    /// members that individually ran out of log space keep their own
    /// `LogFull`, and the rest observe the state the failure left behind
    /// — `Poisoned` after a device error, or a reconstructed `LogFull`
    /// when the spool drain ran out of log space (which leaves the
    /// instance healthy).
    fn publish_failure(
        &self,
        slots: &[Arc<GroupSlot>],
        outcomes: Vec<Result<AppendInfo>>,
        e: RvmError,
    ) {
        let log_full = match &e {
            RvmError::LogFull { needed, capacity } => Some((*needed, *capacity)),
            _ => None,
        };
        let mut original = Some(e);
        let mut outcomes = outcomes.into_iter();
        for slot in slots {
            let result = match outcomes.next() {
                Some(Err(member_err)) => Err(member_err),
                _ => Err(original.take().unwrap_or(match log_full {
                    Some((needed, capacity)) => RvmError::LogFull { needed, capacity },
                    None => RvmError::Poisoned,
                })),
            };
            slot.work.lock().outcome = Some(result);
        }
    }

    /// Writes every spooled record to the log and forces it once. May
    /// release and reacquire the core lock if an append has to wait out
    /// an in-flight epoch truncation (see
    /// [`RvmShared::append_with_space`]).
    fn flush_spool_locked(&self, core: &mut CoreGuard<'_>) -> Result<()> {
        if self.spool.is_empty() {
            return Ok(());
        }
        let stats = &self.stats;
        let mut flushed_any = false;
        while let Some(spooled) = self.spool.pop_front() {
            let info = match self.append_with_space(core, spooled.tid, &spooled.ranges) {
                Ok(info) => info,
                Err(e) => {
                    self.spool.requeue_front(spooled);
                    return Err(e);
                }
            };
            flushed_any = true;
            stats.add(&stats.bytes_logged, info.record_bytes);
            for (weak, pages) in &spooled.pages {
                if let Some(region) = weak.upgrade() {
                    region.note_spool_drained(pages);
                    for &p in pages {
                        core.page_queue.enqueue(&region, p, info.offset, info.seq);
                    }
                }
            }
            for r in &spooled.ranges {
                core.segs_in_log.insert(r.seg.as_u32());
            }
        }
        if flushed_any {
            core.wal.force()?;
            stats.add(&stats.log_forces, 1);
            stats.add(&stats.spool_flushes, 1);
        }
        Ok(())
    }

    /// Synchronous epoch truncation (§5.1.2's "space critical" path): the
    /// recovery procedure applied to the whole live log under the core
    /// lock, without releasing it. Only legal when no concurrent epoch is
    /// in flight — the two would race for the head. Returns whether the
    /// head moved.
    fn epoch_truncate_locked(&self, core: &mut Core) -> Result<bool> {
        debug_assert!(
            core.epoch.is_none(),
            "synchronous epoch truncation with an epoch in flight"
        );
        if core.wal.used() == 0 {
            return Ok(false);
        }
        let head = core.wal.head();
        // In-flight pipelined batches past the floor are written (or still
        // being written) but not forced; only the stable prefix below the
        // floor may be scanned and reclaimed.
        let split = match self.pipeline.floor() {
            Some(f) => f.tail().min(core.wal.tail()),
            None => core.wal.tail(),
        };
        if split <= head {
            return Ok(false);
        }
        let scan = scan_span(
            core.wal.device().as_ref(),
            core.wal.capacity(),
            head,
            core.wal.seq_at_head(),
            Some(split),
        )?;

        let trees = latest_trees(&scan);
        for (seg_raw, tree) in by_segment(&trees) {
            let dev = self.segment_device(core, SegmentId::new(seg_raw), tree_end(tree))?;
            let catalog = self.segment_catalog(core, SegmentId::new(seg_raw), &dev)?;
            // Writes, syncs, and persists the catalog — all before the
            // head advance below (the scrub module's crash ordering).
            let outcome = apply_tree_verified(
                dev.as_ref(),
                catalog.as_deref(),
                tree,
                ApplyContext::Truncation,
            )?;
            self.charge_media(&outcome);
        }

        let stats = &self.stats;
        stats.add(&stats.truncation_bytes_scanned, split - head);
        stats.add(&stats.truncation_ranges_applied, trees.len() as u64);
        stats.add(&stats.truncation_bytes_applied, tree_len(&trees));
        core.wal.advance_head(scan.tail, scan.next_seq);
        if scan.tail == core.wal.tail() {
            core.segs_in_log.clear();
            core.page_queue.clear();
            for region in self.regions.read().values() {
                region.page_vector.lock().clear_dirty_where_flushed();
            }
        } else {
            // Records above the pipeline floor are still live: drop only
            // the queue prefix this epoch applied and keep the (possibly
            // overbroad — that is merely conservative) segment set.
            core.page_queue.drain_below(scan.tail);
        }
        self.write_status_locked(core)?;
        self.stats.add(&self.stats.epoch_truncations, 1);
        Ok(true)
    }

    /// Concurrent epoch truncation (§5.1.2, Figure 6: the old epoch is
    /// truncated "while forward processing continues in the rest" of the
    /// log). Three phases:
    ///
    /// 1. **Snapshot** (core lock held): freeze the span
    ///    `[head, tail)` as the epoch, take over its segment set, drain
    ///    its page-queue prefix, and persist the boundary in the status
    ///    block — a crash from here on recovers by scanning from the
    ///    unmoved head, re-applying the span idempotently.
    /// 2. **Apply** (core lock *released*): scan the frozen span, build
    ///    the newest-wins recovery trees, write them to the data segments
    ///    and sync — while commits keep appending past `end`.
    /// 3. **Complete** (core lock reacquired): advance the head to `end`,
    ///    clear the epoch from core and status, settle the drained page
    ///    descriptors, and wake every thread waiting on the epoch.
    ///
    /// The off-lock scan is safe because records are appended *and
    /// forced* under a single core-lock hold — whenever the lock is free,
    /// every byte of `[head, tail)` is a fully written record — and the
    /// frozen span cannot be overwritten, because free-space accounting
    /// counts it as live until the head advances.
    ///
    /// `threshold`: re-checked under the lock; with `Some(t)` the epoch
    /// is skipped if utilization already dropped to `t` or below (another
    /// thread truncated first). `wait_if_busy`: wait for an in-flight
    /// epoch and then truncate what remains (explicit [`Rvm::truncate`])
    /// versus return immediately (threshold triggers — the in-flight
    /// epoch *is* the truncation that was asked for). Returns whether the
    /// head moved.
    fn epoch_truncate_concurrent(
        &self,
        threshold: Option<f64>,
        wait_if_busy: bool,
    ) -> Result<bool> {
        // Phase 1: snapshot the epoch boundary under the core lock.
        let (dev, area_len, start, start_seq, end) = {
            let mut core = self.core.lock();
            while core.epoch.is_some() {
                if !wait_if_busy {
                    return Ok(false);
                }
                self.epoch_done.wait(&mut core);
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RvmError::Poisoned);
            }
            if let Some(t) = threshold {
                if core.wal.utilization() <= t {
                    return Ok(false);
                }
            }
            if core.wal.used() == 0 {
                return Ok(false);
            }
            let start = core.wal.head();
            let start_seq = core.wal.seq_at_head();
            // Freeze only the stable prefix below the pipeline floor:
            // in-flight pipelined batches are written (or still being
            // written) but not forced, and the off-lock apply requires
            // every byte of the span to be a fully written, forced record.
            let (end, next_seq, full) = match self.pipeline.floor() {
                Some(f) if f.tail() < core.wal.tail() => (f.tail(), f.next_seq(), false),
                _ => (core.wal.tail(), core.wal.next_seq(), true),
            };
            if end <= start {
                return Ok(false);
            }
            let segs = if full {
                std::mem::take(&mut core.segs_in_log)
            } else {
                // Records above the floor still reference segments; keep
                // the set (an overbroad set is merely conservative).
                core.segs_in_log.clone()
            };
            let drained = core.page_queue.drain_below(end);
            core.epoch = Some(EpochInFlight {
                end,
                next_seq,
                segs,
                drained,
            });
            self.epoch_active.store(true, Ordering::Release);
            // Persist the boundary *before* touching any segment.
            if let Err(e) = self.write_status_locked(&mut core) {
                self.abandon_epoch(&mut core);
                return self.guard_io(Err(e));
            }
            self.truncating.store(true, Ordering::Release);
            (
                core.wal.device().clone(),
                core.wal.capacity(),
                start,
                start_seq,
                end,
            )
        };

        // Phase 2: scan and apply the frozen span, off-lock.
        let applied = self.apply_epoch_span(&dev, area_len, start, start_seq, end);
        self.truncating.store(false, Ordering::Release);

        // Phase 3: reacquire to advance the head and settle the queue.
        let mut core = self.core.lock();
        let result = match applied {
            Ok(()) => {
                let epoch = core.epoch.take().expect("epoch still in flight");
                self.epoch_active.store(false, Ordering::Release);
                core.wal.advance_head(epoch.end, epoch.next_seq);
                // A drained page not re-dirtied during the apply is clean
                // now: its latest committed bytes were all in the frozen
                // span. One re-enqueued by a commit that landed during
                // the apply keeps its new descriptor and its dirty bit;
                // one with spooled (unflushed) data stays dirty too.
                for desc in &epoch.drained {
                    if core.page_queue.contains(desc.region_id, desc.page) {
                        continue;
                    }
                    if let Some(region) = desc.region.upgrade() {
                        let mut pv = region.page_vector.lock();
                        let entry = pv.entry_mut(desc.page);
                        if entry.unflushed == 0 {
                            entry.dirty = false;
                        }
                    }
                }
                self.write_status_locked(&mut core)
            }
            Err(e) => {
                self.abandon_epoch(&mut core);
                Err(e)
            }
        };
        self.epoch_done.notify_all();
        drop(core);
        self.guard_io(result)?;
        self.stats.add(&self.stats.epoch_truncations, 1);
        self.stats.add(&self.stats.epochs_truncated, 1);
        Ok(true)
    }

    /// Scans the frozen span `[start, end)` and applies its newest-wins
    /// trees to the data segments. Runs with the core lock released; the
    /// lock is taken only briefly to resolve segment devices.
    fn apply_epoch_span(
        &self,
        dev: &Arc<dyn Device>,
        area_len: u64,
        start: u64,
        start_seq: u64,
        end: u64,
    ) -> Result<()> {
        let scan = scan_span(dev.as_ref(), area_len, start, start_seq, Some(end))?;
        if scan.tail != end {
            // Everything in the span was forced before the snapshot; a
            // short scan means the log was corrupted underneath us.
            return Err(RvmError::BadLog(format!(
                "epoch scan ended at {} before the snapshotted boundary {end}",
                scan.tail
            )));
        }
        let trees = latest_trees(&scan);
        type SegTargets = Vec<(Arc<dyn Device>, Option<Arc<SegmentChecksums>>)>;
        let seg_targets: SegTargets = {
            let core = self.core.lock();
            let mut seg_targets = Vec::new();
            for (seg_raw, tree) in by_segment(&trees) {
                let dev = self.segment_device(&core, SegmentId::new(seg_raw), tree_end(tree))?;
                let catalog = self.segment_catalog(&core, SegmentId::new(seg_raw), &dev)?;
                seg_targets.push((dev, catalog));
            }
            seg_targets
        };
        for ((_, tree), (seg_dev, catalog)) in by_segment(&trees).zip(&seg_targets) {
            // Writes, syncs, and persists the catalog; the head advances
            // only after phase 3 (the scrub module's crash ordering).
            let outcome = apply_tree_verified(
                seg_dev.as_ref(),
                catalog.as_deref(),
                tree,
                ApplyContext::Truncation,
            )?;
            self.charge_media(&outcome);
        }
        let stats = &self.stats;
        stats.add(&stats.truncation_bytes_scanned, end - start);
        stats.add(&stats.truncation_ranges_applied, trees.len() as u64);
        stats.add(&stats.truncation_bytes_applied, tree_len(&trees));
        Ok(())
    }

    /// Reverts an epoch snapshot after a failure: the span is still live
    /// and unapplied, so its segment set and drained page descriptors go
    /// back where they were.
    fn abandon_epoch(&self, core: &mut Core) {
        if let Some(epoch) = core.epoch.take() {
            self.epoch_active.store(false, Ordering::Release);
            core.segs_in_log.extend(epoch.segs);
            core.page_queue.requeue_front(epoch.drained);
        }
    }

    /// Incremental truncation (Figure 7): write dirty pages from VM in
    /// page-queue order, advancing the log head. Returns bytes reclaimed.
    ///
    /// Steps are batched: up to [`INCREMENTAL_BATCH_PAGES`] writable pages
    /// are written and their segment devices synced once before the head
    /// advances past all of them, so each step costs one positioning
    /// batch rather than one sync per page.
    fn incremental_truncate_locked(&self, core: &mut CoreGuard<'_>, target: u64) -> Result<u64> {
        let start_head = core.wal.head();
        'outer: loop {
            // `flush_spool_locked` below may release the core lock while
            // waiting for space; if an epoch truncation started in that
            // window, stop — the epoch owns the head now, and every
            // remaining queue descriptor sits at or past its boundary.
            if core.epoch.is_some() {
                break;
            }
            if core.wal.head() - start_head >= target {
                break;
            }
            if core.page_queue.is_empty() {
                // Queue drained: every *reaped*, flushed change is
                // applied. The log is reclaimable up to the pipeline
                // floor; in-flight batches keep their span (their pages
                // only enter the queue at reap).
                let (tail, seq) = match self.pipeline.floor() {
                    Some(f) if f.tail() < core.wal.tail() => (f.tail(), f.next_seq()),
                    _ => (core.wal.tail(), core.wal.next_seq()),
                };
                if tail > core.wal.head() {
                    let full = tail == core.wal.tail();
                    core.wal.advance_head(tail, seq);
                    if full {
                        core.segs_in_log.clear();
                    }
                }
                break;
            }

            // Gather a batch of writable pages from the queue head.
            let mut batch: Vec<(Arc<RegionInner>, usize)> = Vec::new();
            while batch.len() < INCREMENTAL_BATCH_PAGES {
                let Some(front) = core.page_queue.front() else {
                    break;
                };
                let Some(region) = front.region.upgrade() else {
                    if batch.is_empty() {
                        // The region was unmapped: its pages cannot be
                        // written from VM any more. Revert to epoch
                        // truncation (§5.1.2).
                        self.epoch_truncate_locked(core)?;
                        break 'outer;
                    }
                    break;
                };
                let page = front.page;
                {
                    let mut pv = region.page_vector.lock();
                    let entry = *pv.entry(page);
                    if entry.uncommitted > 0 {
                        // "Incremental truncation is now blocked until
                        // the uncommitted reference count drops to zero."
                        break;
                    }
                    if entry.unflushed > 0 {
                        if !batch.is_empty() {
                            break;
                        }
                        // Committed data still in the spool: flushing it
                        // is always safe and unblocks the page.
                        drop(pv);
                        self.flush_spool_locked(core)?;
                        continue 'outer;
                    }
                    pv.entry_mut(page).reserved = true;
                }
                core.page_queue.pop_front();
                batch.push((region, page));
            }
            if batch.is_empty() {
                break; // blocked at the queue head
            }

            // Write the batch from VM to the data segments, one sync per
            // distinct device. Region pages are full segment pages
            // (mapping offsets are page-aligned), so the VM image updates
            // the checksum catalog exactly.
            for (region, page) in &batch {
                let page_off = *page as u64 * PAGE_SIZE;
                let len = PAGE_SIZE.min(region.len - page_off);
                let buf = region.read_bytes(page_off, len);
                region
                    .seg_dev
                    .write_at(region.seg_offset + page_off, &buf)?;
                if let Some(catalog) = &region.catalog {
                    catalog.update(((region.seg_offset + page_off) / PAGE_SIZE) as usize, &buf);
                }
            }
            let mut synced: Vec<u64> = Vec::new();
            for (region, _) in &batch {
                if !synced.contains(&region.id) {
                    region.seg_dev.sync()?;
                    synced.push(region.id);
                }
            }
            // Persist updated catalogs (once per segment) before the head
            // advances past the records whose pages were just applied.
            let mut persisted: Vec<u32> = Vec::new();
            for (region, _) in &batch {
                if let Some(catalog) = &region.catalog {
                    if !persisted.contains(&region.seg.as_u32()) {
                        catalog.persist()?;
                        persisted.push(region.seg.as_u32());
                    }
                }
            }
            for (region, page) in &batch {
                let mut pv = region.page_vector.lock();
                pv.entry_mut(*page).reserved = false;
                pv.entry_mut(*page).dirty = false;
            }
            self.stats.add(&self.stats.incremental_steps, 1);
            self.stats
                .add(&self.stats.pages_written_incremental, batch.len() as u64);

            // Move the log head to the next descriptor's offset — capped
            // at the pipeline floor: in-flight batches have no queue
            // entries yet, so the queue can skip straight from below the
            // floor to a later spool-flush descriptor, and the head must
            // not jump over unforced records.
            let floor = self.pipeline.floor();
            let cap = |off: u64, seq: u64| match floor {
                Some(f) if f.tail() < off => (f.tail(), f.next_seq()),
                None | Some(_) => (off, seq),
            };
            let (new_head, new_seq) = match core.page_queue.front() {
                Some(d) if d.offset > core.wal.head() => cap(d.offset, d.seq),
                Some(_) => (core.wal.head(), core.wal.seq_at_head()),
                None => cap(core.wal.tail(), core.wal.next_seq()),
            };
            core.wal.advance_head(new_head, new_seq);
        }
        let reclaimed = core.wal.head() - start_head;
        if reclaimed > 0 {
            self.write_status_locked(core)?;
        }
        Ok(reclaimed)
    }

    /// Runs the configured truncation mechanism once, in response to a
    /// threshold trigger (inline committer or the background thread).
    /// Takes the core lock itself; the caller must not hold it.
    pub(crate) fn run_triggered_truncation(&self, tuning: &Tuning) {
        // Threshold-triggered truncation swallows errors at its call
        // sites, so the poison transition must happen here or a failed
        // truncation would go entirely unnoticed.
        let result = (|| -> Result<()> {
            match tuning.truncation_mode {
                crate::options::TruncationMode::Epoch => {
                    // Concurrent protocol. If an epoch is already in
                    // flight, it *is* the truncation this trigger asked
                    // for — don't wait, just return.
                    self.epoch_truncate_concurrent(Some(tuning.truncation_threshold), false)?;
                }
                crate::options::TruncationMode::Incremental => {
                    let mut core = self.core.lock();
                    // Re-check under the lock; another committer may have
                    // truncated already. With an epoch in flight the head
                    // is owned by its completion — nothing to do inline.
                    if core.epoch.is_some() || core.wal.utilization() <= tuning.truncation_threshold
                    {
                        return Ok(());
                    }
                    let reclaimed = self
                        .incremental_truncate_locked(&mut core, tuning.incremental_reclaim_bytes)?;
                    // Blocked with space critical: revert to epoch
                    // truncation. The revert point must sit at or above
                    // the trigger threshold — with a threshold above
                    // 0.95, a bare `min(0.95)` would put the "critical"
                    // mark *below* the trigger and every blocked trigger
                    // would look critical immediately.
                    let critical = (tuning.truncation_threshold + 0.3)
                        .min(0.95)
                        .max(tuning.truncation_threshold);
                    if reclaimed == 0 && core.wal.utilization() > critical && core.epoch.is_none() {
                        self.epoch_truncate_locked(&mut core)?;
                    }
                }
            }
            Ok(())
        })();
        let _ = self.guard_io(result);
    }

    fn request_truncation(&self, tuning: &Tuning) {
        if tuning.background_truncation {
            let mut flag = self.bg_wakeup.lock();
            *flag = true;
            self.bg_condvar.notify_all();
        } else {
            self.run_triggered_truncation(tuning);
        }
    }

    /// One scrub pass over every mapped region with a checksum catalog
    /// (see [`Rvm::scrub`]). Device failures propagate (they are *not*
    /// checksum mismatches — the media may be fine); corruption never
    /// poisons the instance, it quarantines at most the affected regions.
    pub(crate) fn scrub_pass(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let regions: Vec<Arc<RegionInner>> = self.regions.read().values().cloned().collect();
        for region in regions {
            self.scrub_region(&region, &mut report)?;
        }
        Ok(report)
    }

    /// Scrubs one region page by page, taking the core lock per page so
    /// commits interleave freely with a pass.
    fn scrub_region(&self, region: &Arc<RegionInner>, report: &mut ScrubReport) -> Result<()> {
        if region.catalog.is_none() {
            return Ok(());
        }
        let pages = (region.len / PAGE_SIZE) as usize;
        for page in 0..pages {
            let core = self.core.lock();
            if core.epoch.is_some() {
                // An off-lock epoch apply owns the segment writers; the
                // rest of this region waits for the next pass.
                report.pages_skipped += (pages - page) as u64;
                return Ok(());
            }
            if !region.mapped.load(Ordering::Acquire) || region.is_degraded() {
                report.pages_skipped += (pages - page) as u64;
                return Ok(());
            }
            self.scrub_region_page(core, region, page, report)?;
        }
        Ok(())
    }

    /// Verifies one region page against the catalog and runs the repair
    /// ladder on a mismatch: bounded re-reads and mirror read-repair
    /// (inside [`read_page_verified`]), then a rewrite from the committed
    /// image in VM, else quarantine.
    ///
    /// Holding `core` for the whole page excludes every other segment
    /// writer (truncation holds `core`; the epoch apply was ruled out by
    /// the caller), so the read-check-rewrite sequence cannot race a
    /// concurrent apply to the same page.
    fn scrub_region_page(
        &self,
        _core: CoreGuard<'_>,
        region: &Arc<RegionInner>,
        page: usize,
        report: &mut ScrubReport,
    ) -> Result<()> {
        let catalog = region.catalog.as_ref().expect("caller checked");
        let media = &self.stats.media;
        let page_off = page as u64 * PAGE_SIZE;
        let seg_page = ((region.seg_offset + page_off) / PAGE_SIZE) as usize;
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let (verified, healed) =
            read_page_verified(region.seg_dev.as_ref(), catalog, seg_page, &mut buf)?;
        report.pages_scanned += 1;
        media.pages_scrubbed.fetch_add(1, Ordering::Relaxed);
        if verified {
            if healed {
                report.corruptions_detected += 1;
                report.corruptions_repaired += 1;
                media.corruptions_detected.fetch_add(1, Ordering::Relaxed);
                media.corruptions_repaired.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(());
        }
        report.corruptions_detected += 1;
        media.corruptions_detected.fetch_add(1, Ordering::Relaxed);
        // Re-reads and any mirror failed; next rung is a rewrite from the
        // committed image. A *loaded* page with no uncommitted
        // transaction activity holds exactly that image in VM: committed
        // changes were applied at load or written since, and map-time
        // truncation drained the segment's live log records before the
        // load, so nothing committed is missing from memory.
        let loaded = region
            .unloaded
            .lock()
            .as_ref()
            .is_none_or(|pending| !pending[page]);
        if loaded {
            let _mem = region.mem_lock.read();
            let uncommitted = region.page_vector.lock().entry(page).uncommitted;
            if uncommitted > 0 {
                // VM holds uncommitted bytes; retry on a later pass.
                report.pages_skipped += 1;
                return Ok(());
            }
            let len = PAGE_SIZE.min(region.len - page_off) as usize;
            let mut img = vec![0u8; len];
            // SAFETY: shared memory lock held; bounds within the region.
            unsafe { region.mem.copy_out(page_off as usize, &mut img) }?;
            region
                .seg_dev
                .write_at(region.seg_offset + page_off, &img)?;
            region.seg_dev.sync()?;
            catalog.update(seg_page, &img);
            catalog.persist()?;
            report.corruptions_repaired += 1;
            media.corruptions_repaired.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        // Unloaded and unverifiable: no healthy replica, no VM image, and
        // no log span to rebuild from — quarantine the region.
        report.pages_quarantined += 1;
        let _ = region.quarantine(seg_page);
        Ok(())
    }
}

fn background_truncation_loop(shared: Weak<RvmShared>) {
    loop {
        let Some(strong) = shared.upgrade() else {
            return;
        };
        {
            let mut flag = strong.bg_wakeup.lock();
            if !*flag {
                strong
                    .bg_condvar
                    .wait_for(&mut flag, std::time::Duration::from_millis(50));
            }
            *flag = false;
        }
        if strong.terminated.load(Ordering::Acquire) || strong.bg_stop.load(Ordering::Acquire) {
            return;
        }
        let tuning = *strong.tuning.read();
        strong.run_triggered_truncation(&tuning);
        drop(strong);
    }
}

/// Spawns the background truncation thread. The thread holds only a weak
/// reference so a dropped [`Rvm`] lets it exit on its next wakeup.
fn spawn_bg_thread(shared: &Arc<RvmShared>) -> JoinHandle<()> {
    let weak = Arc::downgrade(shared);
    std::thread::Builder::new()
        .name("rvm-truncation".to_owned())
        .spawn(move || background_truncation_loop(weak))
        .expect("failed to spawn the rvm truncation thread")
}

fn background_scrub_loop(shared: Weak<RvmShared>) {
    loop {
        let Some(strong) = shared.upgrade() else {
            return;
        };
        let interval = strong.tuning.read().scrub_interval_ms.max(1);
        {
            let mut flag = strong.scrub_wakeup.lock();
            if !*flag {
                strong
                    .scrub_condvar
                    .wait_for(&mut flag, std::time::Duration::from_millis(interval));
            }
            *flag = false;
        }
        if strong.terminated.load(Ordering::Acquire) || strong.scrub_stop.load(Ordering::Acquire) {
            return;
        }
        // A pass has no caller to report device errors to; the next tick
        // retries. A poisoned instance is left alone entirely — its
        // durable image must not be touched again.
        if !strong.poisoned.load(Ordering::Acquire) {
            let _ = strong.scrub_pass();
        }
        drop(strong);
    }
}

/// Spawns the background scrubber thread (weak reference, as above).
fn spawn_scrub_thread(shared: &Arc<RvmShared>) -> JoinHandle<()> {
    let weak = Arc::downgrade(shared);
    std::thread::Builder::new()
        .name("rvm-scrub".to_owned())
        .spawn(move || background_scrub_loop(weak))
        .expect("failed to spawn the rvm scrub thread")
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
