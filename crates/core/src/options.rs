//! Configuration: initialization options, transaction modes, and the
//! runtime tuning knobs exposed through `set_options` (§4.2, Figure 4d).

use std::sync::Arc;

use rvm_storage::Device;

use crate::retry::{thread_sleeper, BackoffSleeper, RetryPolicy};
use crate::segment::{file_resolver, DeviceResolver};

/// Region page size; mappings must be multiples of this and page-aligned
/// (§4.1).
pub const PAGE_SIZE: u64 = 4096;

/// How a transaction treats old values (the `restore_mode` flag of
/// `begin_transaction`, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnMode {
    /// Old values are captured on `set_range`, so the transaction can
    /// abort.
    #[default]
    Restore,
    /// The application promises never to abort; RVM skips the old-value
    /// copy on `set_range`, saving time and space (§5.1.1).
    NoRestore,
}

/// Permanence of a commit (the `commit_mode` flag of `end_transaction`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// The new-value and commit records are forced to the log before the
    /// commit returns: full permanence.
    #[default]
    Flush,
    /// A "lazy" commit: records are spooled in memory and reach the log on
    /// the next `flush` — bounded persistence (§4.2), and the only mode in
    /// which inter-transaction optimizations apply (§5.2).
    NoFlush,
}

/// How a mapped region's committed image is brought into memory.
///
/// The paper's implementation copied regions in at map time, at the cost
/// of startup latency (§3.2: "a process' recoverable memory must be read
/// in en masse rather than being paged in on demand"), and planned "an
/// optional Mach external pager to copy data on demand". Without kernel
/// help, this library implements the on-demand option one level up:
/// pages are fetched from the external data segment on first access
/// through the safe API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Copy the whole region at map time (the paper's implementation).
    #[default]
    Eager,
    /// Fetch each page from the segment on first access. The pointer
    /// API ([`Region::base_ptr`](crate::Region::base_ptr)) bypasses the
    /// fetch, so on-demand regions must be accessed through the safe API
    /// or explicitly warmed with
    /// [`Region::prefetch`](crate::Region::prefetch).
    OnDemand,
}

/// Deliberate protocol mutations, installed through
/// `Rvm::set_mutation_hooks` (only under the `mutation-hooks` cargo
/// feature) or by the core's own tests; otherwise every hook stays off.
///
/// Each checker's acceptance test is double-sided: the real tree must
/// show **zero** violations, and a tree with one of these switches flipped
/// — the first two for `rvm-crashmc`, the rest for the interleaving
/// explorer (`models`) — **at least one**, proving the checker can see
/// the bug class. Not part of the public API; no stability promise.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationHooks {
    /// The flush-commit leader skips the batch's single force but still
    /// reports success: commits are acknowledged without being durable.
    /// The checker must find a crash image where an acked transaction is
    /// missing after recovery.
    pub skip_group_force: bool,
    /// A failed batch skips its WAL-cursor rollback, leaving cursors
    /// pointing past records that were never forced.
    pub skip_group_rollback: bool,
    /// A leader makes log space with its batch still open.
    pub release_core_with_batch_open: bool,
    /// A barrier returns on an empty spool while a leader is active.
    pub barrier_ignores_leader: bool,
    /// A truncation clears the dirty bit of a re-enqueued page.
    pub clear_dirty_on_requeued: bool,
    /// The log head moves to the tail whatever descriptor is queued.
    pub head_past_requeued: bool,
}

/// Runtime tuning knobs (`set_options`).
///
/// All fields are scalars, so the struct is `Copy`: the commit path reads
/// it by value instead of cloning through the lock.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// A commit that leaves log utilization above this fraction runs
    /// incremental truncation steps inline, on the committing thread
    /// (§5.1.2). At 1.0 the trigger never fires: for an application that
    /// calls [`Rvm::truncate`](crate::Rvm::truncate) itself.
    pub truncation_threshold: f64,
    /// Coalesce duplicate/overlapping/adjacent `set_range`s (§5.2).
    pub intra_optimization: bool,
    /// Let newer no-flush commits subsume older unflushed records (§5.2).
    pub inter_optimization: bool,
    /// Auto-flush the no-flush spool when it exceeds this many bytes.
    pub spool_max_bytes: u64,
    /// Bytes of log space one triggered incremental-truncation run
    /// reclaims before it hands the thread back: the step size.
    pub incremental_reclaim_bytes: u64,
    /// Maximum flush-mode commits acknowledged by one force. Concurrent
    /// flush-mode commits queue up and one leader appends every waiting
    /// transaction and forces once for the whole batch (group commit);
    /// durable-log order still matches commit order, and a lone committer
    /// is a batch of one. `1` is one force per commit. Spooled no-flush
    /// commits ride along in the leader's batch uncounted.
    pub group_commit_max_txns: usize,
    /// Accumulation window in microseconds: a new leader waits exactly
    /// this long before claiming its batch, so concurrent committers can
    /// join it — for tests and benchmarks that want batching to be
    /// deterministic. Zero (the default) leaves the wait to the leader: it
    /// waits only for company it just had — the committers of its
    /// previous round, if there was more than one — and at most a quarter
    /// of a force, adding no latency to solo commits.
    pub group_commit_wait_us: u64,
    /// Maintain a per-page checksum catalog beside each data segment:
    /// updated whenever truncation or recovery writes segment pages,
    /// verified when mapped regions load pages and by
    /// [`Rvm::scrub`](crate::Rvm::scrub) passes. The
    /// detection layer the repair ladder (mirror read-repair → log
    /// reconstruction → quarantine) rests on. On by default.
    ///
    /// Read when this instance first opens the segment (recovery, or the
    /// first `map` or truncation that touches it) and fixed for that
    /// segment from then on, for all of its regions, whatever
    /// `set_options` says later. Opened with it off, a segment's existing
    /// `.sums` catalog is invalidated; a later run with it on adopts anew.
    pub segment_checksums: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            truncation_threshold: 0.5,
            intra_optimization: true,
            inter_optimization: true,
            spool_max_bytes: 4 << 20,
            incremental_reclaim_bytes: 256 << 10,
            group_commit_max_txns: 64,
            group_commit_wait_us: 0,
            segment_checksums: true,
        }
    }
}

/// Options for [`Rvm::initialize`](crate::Rvm::initialize).
///
/// The log is specified here (the `options_desc` argument of the paper's
/// `initialize`); segments are resolved by name through the
/// [`DeviceResolver`].
#[derive(Clone)]
pub struct Options {
    /// The log device.
    pub log: Arc<dyn Device>,
    /// Resolves segment names to devices.
    pub resolver: DeviceResolver,
    /// Initial tuning (changeable later via `set_options`).
    pub tuning: Tuning,
    /// If the log device is not yet an RVM log, format it (equivalent to
    /// calling `create_log` first).
    pub create_if_empty: bool,
    /// Bounded retry of transient device faults at every touchpoint.
    pub retry: RetryPolicy,
    /// How retry backoff sleeps. Defaults to a real thread sleep; tests
    /// inject a closure that charges a simulated clock so retries are
    /// instant.
    pub retry_sleeper: BackoffSleeper,
}

impl Options {
    /// Options using the given log device and the default file-backed
    /// segment resolver.
    pub fn new(log: Arc<dyn Device>) -> Self {
        Self {
            log,
            resolver: file_resolver(),
            tuning: Tuning::default(),
            create_if_empty: false,
            retry: RetryPolicy::default(),
            retry_sleeper: thread_sleeper(),
        }
    }

    /// Replaces the segment resolver.
    pub fn resolver(mut self, resolver: DeviceResolver) -> Self {
        self.resolver = resolver;
        self
    }

    /// Replaces the tuning block.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Formats the log automatically if the device is not an RVM log.
    pub fn create_if_empty(mut self) -> Self {
        self.create_if_empty = true;
        self
    }

    /// Replaces the transient-fault retry policy.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the backoff sleeper (tests: charge a simulated clock).
    pub fn retry_sleeper(mut self, sleeper: BackoffSleeper) -> Self {
        self.retry_sleeper = sleeper;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::MemDevice;

    #[test]
    fn defaults_match_paper_expectations() {
        // Exhaustive on purpose (no `..`): a new knob cannot land without
        // stating its default here.
        let Tuning {
            truncation_threshold,
            intra_optimization,
            inter_optimization,
            spool_max_bytes,
            incremental_reclaim_bytes,
            group_commit_max_txns,
            group_commit_wait_us,
            segment_checksums,
        } = Tuning::default();
        assert!(intra_optimization && inter_optimization);
        assert!((0.0..1.0).contains(&truncation_threshold));
        assert!(spool_max_bytes > 0 && incremental_reclaim_bytes > 0);
        assert_eq!(TxnMode::default(), TxnMode::Restore);
        assert_eq!(CommitMode::default(), CommitMode::Flush);
        assert!(group_commit_max_txns > 1, "flush commits share forces");
        assert_eq!(group_commit_wait_us, 0, "solo commits pay no window");
        assert!(segment_checksums, "media detection is on by default");
    }

    #[test]
    fn tuning_is_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Tuning>();
    }

    #[test]
    fn options_builder_chains() {
        let opts = Options::new(Arc::new(MemDevice::with_len(1 << 20)))
            .tuning(Tuning {
                truncation_threshold: 0.8,
                ..Tuning::default()
            })
            .create_if_empty();
        assert!(opts.create_if_empty);
        assert_eq!(opts.tuning.truncation_threshold, 0.8);
    }

    #[test]
    fn retry_builder_chains() {
        let opts = Options::new(Arc::new(MemDevice::with_len(1 << 20)))
            .retry_policy(RetryPolicy::none())
            .retry_sleeper(Arc::new(|_| {}));
        assert_eq!(opts.retry.max_retries, 0);
        let defaults = Options::new(Arc::new(MemDevice::with_len(1 << 20)));
        assert_eq!(defaults.retry, RetryPolicy::default());
    }
}
