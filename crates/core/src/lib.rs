//! # RVM — Lightweight Recoverable Virtual Memory
//!
//! A Rust implementation of the transactional facility described in
//! M. Satyanarayanan, H. H. Mashburn, P. Kumar, D. C. Steere and
//! J. J. Kistler, *"Lightweight Recoverable Virtual Memory"*, SOSP 1993.
//!
//! RVM offers **recoverable virtual memory**: regions of memory on which
//! transactional **atomicity** and (process-failure) **permanence** are
//! guaranteed, while **serializability** and **media recovery** are
//! deliberately left to layers above and below (Figure 2 of the paper).
//! It is a library, not a server: no external process, no special
//! operating-system support — a deliberate reaction to the Camelot
//! experience the paper recounts (§2–3).
//!
//! ## The programming model
//!
//! 1. [`Rvm::initialize`] opens a write-ahead log and runs crash recovery.
//! 2. [`Rvm::map`] maps regions of named *external data segments* into
//!    memory; newly mapped data is the committed image.
//! 3. [`Rvm::begin_transaction`] starts a [`Transaction`];
//!    [`Transaction::set_range`] (or the write helpers on [`Region`])
//!    declares the bytes about to change; [`Transaction::commit`] makes
//!    the change atomic and — with [`CommitMode::Flush`] — permanent.
//! 4. [`Rvm::flush`] and [`Rvm::truncate`] expose log control for
//!    applications using lazy ([`CommitMode::NoFlush`]) commits.
//!
//! ```
//! use std::sync::Arc;
//! use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
//! use rvm::segment::MemResolver;
//! use rvm_storage::MemDevice;
//!
//! # fn main() -> rvm::Result<()> {
//! let log: Arc<MemDevice> = Arc::new(MemDevice::with_len(1 << 20));
//! let segments = MemResolver::new();
//! let rvm = Rvm::initialize(
//!     Options::new(log.clone())
//!         .resolver(segments.clone().into_resolver())
//!         .create_if_empty(),
//! )?;
//! let region = rvm.map(&RegionDescriptor::new("counters", 0, PAGE_SIZE))?;
//!
//! let mut txn = rvm.begin_transaction(TxnMode::Restore)?;
//! let n = region.get_u64(0)?;
//! region.put_u64(&mut txn, 0, n + 1)?;
//! txn.commit(CommitMode::Flush)?;
//! assert_eq!(region.get_u64(0)?, 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## What is implemented
//!
//! * Segments/regions with the §4.1 mapping rules; a safe byte/typed API
//!   plus a pointer-based unsafe-style API mirroring the C library.
//! * No-undo/redo new-value logging with single-record commits, CRC-sealed
//!   against torn writes, bidirectional scanning (Figure 5), a circular
//!   record area with a dual-copy status block (Figure 6).
//! * Crash recovery by tail→head latest-wins trees, idempotent via
//!   delayed status update (§5.1.2).
//! * Incremental **and** epoch truncation, one in-flight protocol with
//!   two sources of bytes. The threshold trigger runs incremental steps
//!   on the committing thread — dirty pages written from VM (page
//!   vector, page queue, uncommitted reference counts — Figure 7), no
//!   log scan — with
//!   automatic reversion to epoch truncation when incremental progress
//!   is blocked. Epoch truncation — recovery applied to the oldest part
//!   of the log — is what a `truncate` call, an `unmap` of a dirty
//!   region or a full log starts. Either way the segments are written
//!   with the core lock released, while commits continue.
//! * One invariant joins mapping to truncation: every segment byte that
//!   no mapped region covers is current on its device. `unmap` writes a
//!   dirty region back (a flush, then an epoch) before it lets go, so
//!   `map` only reads the segment, under one hold of the core lock.
//! * Intra- and inter-transaction log optimizations (§5.2), individually
//!   switchable for ablation.
//! * No-restore and no-flush transaction modes, `flush`/`truncate` log
//!   control, `query`/`set_options` introspection and tuning.
//! * Transient-fault tolerance: bounded retry with deterministic backoff
//!   at every device touchpoint ([`RetryPolicy`]), and fail-fast
//!   *poisoning* ([`RvmError::Poisoned`]) when an unrecoverable I/O
//!   failure lands mid-commit, keeping in-memory cursors and the durable
//!   image consistent.
//! * Group commit, the one log writer: concurrent flush-mode commits
//!   share a single log force through a leader/follower commit queue
//!   (bounded by [`Tuning::group_commit_max_txns`]), spooled no-flush
//!   commits ride the leader's batch, `flush` is an empty flush commit in
//!   the same queue, and a leader with committers still queued behind it
//!   overlaps its force with the next batch; all with per-batch
//!   statistics surfaced via `query`.
//!
//! Layered packages live in sibling crates, as the paper suggests (§8):
//! `rvm-alloc` (recoverable heap), `rvm-loader` (segment loader),
//! `rvm-nest` (nesting), `rvm-dist` (two-phase commit).
//!
//! ## Lock order (internal)
//!
//! The canonical, machine-checked order lives in `lockorder.toml` at the
//! workspace root (`rvm-lint` verifies every acquisition site against it;
//! DESIGN.md's Locking section is rendered from it). The shape, since the
//! concurrency-plane split:
//!
//! 1. `RvmShared::core` — log *mutation*, the page queue, and
//!    truncation-boundary state, the log cursors included: the WAL
//!    publishes only `head` and `tail`, as two atomics, for readers that
//!    want the log's occupancy without the lock (`cursor::WalView`).
//!    Open segments (`segment::Segment`: device and checksum catalog in
//!    one handle) live behind one `RwLock` registry, ranked just above
//!    `core`; spooled no-flush commits land under the one `SpoolPlane`
//!    lock (rank between `core` and `group-work` — the commit leader's
//!    fill pops the spool while holding `core`). Statistics
//!    are relaxed atomics with no lock at all.
//! 2. `RvmShared::regions` (read or write) — the region map.
//! 3. Per-region memory locks (`mem_lock`), then per-region
//!    `page_vector` — `committed_page` (an incremental step's freeze, the
//!    scrubber's rewrite rung) holds `core → mem_lock → page_vector` in
//!    that order across its check and copy; no path acquires
//!    `mem_lock` while holding a `page_vector`, or `core` while holding
//!    either.
//! 4. A leaf lock, never held while acquiring any of the above:
//!    `SegmentChecksums`' internal entry table.
//!
//! Non-obvious consequences:
//!
//! * The commit-queue locks (`commit::GroupCommit`) are taken only while
//!   `core` is *not* held: the leader acquires `core` after claiming its
//!   slots, and a holder of the core guard that needs the spool durable
//!   (incremental truncation) raises the barrier under
//!   `MutexGuard::unlocked`.
//! * The commit fast paths are plane-local: a no-flush commit touches
//!   only the spool lock plus per-region state (after one shared read of
//!   `tuning`); `begin_transaction`, `set_range` and abort take no shared
//!   lock at all, and `query` takes no mutex
//!   ([`Rvm::core_lock_acquisitions`] pins the `core`-free paths in tests).
//!
//! There is one in-flight truncation protocol (`truncation`): freeze
//! under `core` — the stable log prefix for an epoch, the committed
//! images of the pages at the queue head for an incremental step — take
//! the one in-flight slot (`Core::truncation`), apply with `core`
//! *released*, reacquire to advance the head. Anyone may start one —
//! `truncate`, the threshold trigger, or a holder of `core` that ran out
//! of log space (`make_log_space`, which releases the caller's guard
//! around the apply with `MutexGuard::unlocked`) — and only the slot's
//! owner writes segments or moves the head. The `truncation_done` condvar
//! waits on `core` itself (releasing it while parked), so truncation
//! never blocks commits while holding a second lock.

mod commit;
pub mod crc;
mod cursor;
mod error;
pub mod log;
mod options;
pub mod query;
pub mod ranges;
pub mod recovery;
mod region;
mod retry;
mod rvm;
pub mod scrub;
pub mod segment;
mod spool;
pub mod stats;
mod sync;
mod truncation;
mod txn;

pub use crc::crc32;
pub use error::{Result, RvmError};
#[cfg(feature = "mutation-hooks")]
#[doc(hidden)]
pub use options::MutationHooks;
pub use options::{CommitMode, LoadPolicy, Options, Tuning, TxnMode, PAGE_SIZE};
pub use query::{LogInfo, QueryInfo};
pub use recovery::{RecoveryReport, RecoveryTimes};
pub use region::{Region, RegionDescriptor};
pub use retry::{thread_sleeper, BackoffSleeper, RetryPolicy};
pub use rvm::{Rvm, TerminateFailure};
pub use scrub::{ScrubReport, SegmentChecksums};
pub use stats::StatsSnapshot;
pub use txn::Transaction;

#[cfg(test)]
pub mod models;
