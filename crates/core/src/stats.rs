//! Operation statistics.
//!
//! The paper instrumented RVM "to keep track of the total volume of log
//! data eliminated by each technique" to produce Table 2 (§7.3). The same
//! counters back this library's `query` operation, the Table 2 benchmark,
//! and the optimization ablations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

/// A mutex that counts its acquisitions: the lock-order *trace hook*.
///
/// The global `core` lock wears this wrapper so tests (and the contention
/// bench) can assert that a fast path took **zero** global-lock
/// acquisitions — the concurrency-planes invariant — by diffing the
/// counter across an operation. The field keeping its original name means
/// every `core.lock()` site stays a direct, pattern-matched acquisition
/// for the rvm-lint lock-order pass; only the wrapper's internal
/// `inner.lock()` needed a pattern added to `lockorder.toml`.
#[derive(Debug, Default)]
pub(crate) struct TracedMutex<T> {
    inner: Mutex<T>,
    acquisitions: AtomicU64,
}

impl<T> TracedMutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Self {
            inner: Mutex::new(value),
            acquisitions: AtomicU64::new(0),
        }
    }

    /// Locks, counting the acquisition (Relaxed: the count orders with
    /// nothing; readers only ever diff it across quiescent points).
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }

    /// Total acquisitions so far.
    pub(crate) fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }
}

/// Number of group-commit batch-size histogram buckets; see
/// [`batch_size_bucket`].
pub const GROUP_BATCH_BUCKETS: usize = 6;

/// Maps a group-commit batch size to its histogram bucket: sizes 1, 2,
/// 3–4, 5–8, 9–16, and 17+.
pub fn batch_size_bucket(size: u64) -> usize {
    match size {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Fault-tolerance counters, shared with the retry layer.
///
/// These live behind an `Arc` because the retry wrappers around the log
/// device and segment resolver are built before the `Rvm` instance that
/// owns the [`Stats`] — both sides update the same cells.
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    /// Device operations retried after a transient failure.
    pub(crate) io_retries: AtomicU64,
    /// Device operations that ultimately succeeded after one or more
    /// transient failures.
    pub(crate) transient_faults_healed: AtomicU64,
    /// Times an instance transitioned to the poisoned state.
    pub(crate) poisonings: AtomicU64,
}

/// Media-integrity counters, shared with region load paths and the
/// scrubber.
///
/// Like [`FaultCounters`], these live behind an `Arc`: mapped regions
/// verify pages as they load them (possibly long after `query` calls
/// begin) and the scrub pass runs on its own thread — all of them update
/// the same cells the stats snapshot reads.
#[derive(Debug, Default)]
pub(crate) struct MediaCounters {
    /// Segment pages whose checksums were verified (scrub, verified
    /// loads, and the pre-images a verified apply reads).
    pub(crate) pages_scrubbed: AtomicU64,
    /// Checksum mismatches detected on segment pages.
    pub(crate) corruptions_detected: AtomicU64,
    /// Mismatches repaired (mirror read-repair or log reconstruction).
    pub(crate) corruptions_repaired: AtomicU64,
    /// Regions quarantined into degraded mode by unrecoverable pages.
    pub(crate) regions_quarantined: AtomicU64,
}

/// Live counters, updated atomically by the library.
#[derive(Debug, Default)]
pub struct Stats {
    pub(crate) txns_committed: AtomicU64,
    pub(crate) txns_aborted: AtomicU64,
    pub(crate) flush_commits: AtomicU64,
    pub(crate) no_flush_commits: AtomicU64,
    pub(crate) set_range_calls: AtomicU64,
    /// Sum of requested `set_range` lengths (before intra coalescing).
    pub(crate) bytes_set_range_gross: AtomicU64,
    /// Record bytes appended to the log (headers + data, after all
    /// optimizations, before block padding).
    pub(crate) bytes_logged: AtomicU64,
    /// Data bytes suppressed by intra-transaction optimization.
    pub(crate) bytes_saved_intra: AtomicU64,
    /// Record bytes suppressed by inter-transaction optimization.
    pub(crate) bytes_saved_inter: AtomicU64,
    pub(crate) log_forces: AtomicU64,
    /// Forced batches that carried at least one flush commit (a batch of
    /// spooled records and barriers alone is a log force, not one of
    /// these).
    pub(crate) group_commit_batches: AtomicU64,
    /// Flush-mode transactions committed through group-commit batches.
    pub(crate) group_commit_txns: AtomicU64,
    /// Batch-size histogram (additive buckets, so deltas stay field-wise).
    pub(crate) group_commit_batch_sizes: [AtomicU64; GROUP_BATCH_BUCKETS],
    /// Rounds whose leader waited for company before claiming
    /// (`leader_round`), and the nanoseconds they waited.
    pub(crate) group_waits: AtomicU64,
    pub(crate) group_wait_ns: AtomicU64,
    pub(crate) spool_flushes: AtomicU64,
    /// Completed epoch truncations (feeds both `epoch_truncations` and
    /// `epochs_truncated` of the snapshot: there is one epoch protocol).
    pub(crate) epoch_truncations: AtomicU64,
    /// Transactions that committed while a truncation's apply — an
    /// epoch's or an incremental step's — was in flight: direct evidence
    /// that truncation no longer stalls the commit path.
    pub(crate) commits_during_truncation: AtomicU64,
    /// Nanoseconds threads holding the core lock spent making log space
    /// (`RvmShared::make_log_space`: waiting out a truncation in flight
    /// or running an epoch themselves).
    pub(crate) truncation_stall_ns: AtomicU64,
    /// Log bytes scanned by epoch truncation.
    pub(crate) truncation_bytes_scanned: AtomicU64,
    /// Disjoint intervals applied to segments by epoch truncation.
    pub(crate) truncation_ranges_applied: AtomicU64,
    /// Bytes applied to segments by epoch truncation.
    pub(crate) truncation_bytes_applied: AtomicU64,
    pub(crate) incremental_steps: AtomicU64,
    pub(crate) pages_written_incremental: AtomicU64,
    /// Unlogged-write violations detected by the commit-time checker.
    pub(crate) check_unlogged_writes: AtomicU64,
    /// Overlapping `set_range` declarations from concurrent transactions.
    pub(crate) check_range_conflicts: AtomicU64,
    pub(crate) fault: Arc<FaultCounters>,
    pub(crate) media: Arc<MediaCounters>,
}

impl Stats {
    pub(crate) fn add(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            txns_committed: self.txns_committed.load(Ordering::Relaxed),
            txns_aborted: self.txns_aborted.load(Ordering::Relaxed),
            flush_commits: self.flush_commits.load(Ordering::Relaxed),
            no_flush_commits: self.no_flush_commits.load(Ordering::Relaxed),
            set_range_calls: self.set_range_calls.load(Ordering::Relaxed),
            bytes_set_range_gross: self.bytes_set_range_gross.load(Ordering::Relaxed),
            bytes_logged: self.bytes_logged.load(Ordering::Relaxed),
            bytes_saved_intra: self.bytes_saved_intra.load(Ordering::Relaxed),
            bytes_saved_inter: self.bytes_saved_inter.load(Ordering::Relaxed),
            log_forces: self.log_forces.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            group_commit_txns: self.group_commit_txns.load(Ordering::Relaxed),
            group_commit_batch_sizes: std::array::from_fn(|i| {
                self.group_commit_batch_sizes[i].load(Ordering::Relaxed)
            }),
            pipeline_submits: 0,
            pipeline_stall_ns: 0,
            group_waits: self.group_waits.load(Ordering::Relaxed),
            group_wait_ns: self.group_wait_ns.load(Ordering::Relaxed),
            spool_flushes: self.spool_flushes.load(Ordering::Relaxed),
            epoch_truncations: self.epoch_truncations.load(Ordering::Relaxed),
            epochs_truncated: self.epoch_truncations.load(Ordering::Relaxed),
            commits_during_truncation: self.commits_during_truncation.load(Ordering::Relaxed),
            truncation_stall_ns: self.truncation_stall_ns.load(Ordering::Relaxed),
            truncation_bytes_scanned: self.truncation_bytes_scanned.load(Ordering::Relaxed),
            truncation_ranges_applied: self.truncation_ranges_applied.load(Ordering::Relaxed),
            truncation_bytes_applied: self.truncation_bytes_applied.load(Ordering::Relaxed),
            incremental_steps: self.incremental_steps.load(Ordering::Relaxed),
            pages_written_incremental: self.pages_written_incremental.load(Ordering::Relaxed),
            check_unlogged_writes: self.check_unlogged_writes.load(Ordering::Relaxed),
            check_range_conflicts: self.check_range_conflicts.load(Ordering::Relaxed),
            io_retries: self.fault.io_retries.load(Ordering::Relaxed),
            transient_faults_healed: self.fault.transient_faults_healed.load(Ordering::Relaxed),
            poisonings: self.fault.poisonings.load(Ordering::Relaxed),
            pages_scrubbed: self.media.pages_scrubbed.load(Ordering::Relaxed),
            corruptions_detected: self.media.corruptions_detected.load(Ordering::Relaxed),
            corruptions_repaired: self.media.corruptions_repaired.load(Ordering::Relaxed),
            regions_quarantined: self.media.regions_quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the library's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Transactions committed (both modes).
    pub txns_committed: u64,
    /// Transactions aborted.
    pub txns_aborted: u64,
    /// Commits in flush mode.
    pub flush_commits: u64,
    /// Commits in no-flush (lazy) mode.
    pub no_flush_commits: u64,
    /// `set_range` invocations.
    pub set_range_calls: u64,
    /// Sum of requested `set_range` lengths before coalescing.
    pub bytes_set_range_gross: u64,
    /// Record bytes written to the log after optimizations.
    pub bytes_logged: u64,
    /// Data bytes suppressed by intra-transaction optimization.
    pub bytes_saved_intra: u64,
    /// Record bytes suppressed by inter-transaction optimization.
    pub bytes_saved_inter: u64,
    /// Log forces: one per batch that appended anything, whoever its
    /// members were (flush commits, spooled records, both).
    pub log_forces: u64,
    /// Forced batches that carried at least one flush commit.
    pub group_commit_batches: u64,
    /// Flush-mode transactions committed through group-commit batches.
    pub group_commit_txns: u64,
    /// Group-commit batch-size histogram: batches of size 1, 2, 3–4,
    /// 5–8, 9–16, and 17+ (see [`batch_size_bucket`]).
    pub group_commit_batch_sizes: [u64; GROUP_BATCH_BUCKETS],
    /// Always 0: every batch is completed inline by its leader. Kept,
    /// with `pipeline_stall_ns`, because the profile harness under
    /// `bench/` reads both.
    pub pipeline_submits: u64,
    /// Always 0 (see `pipeline_submits`).
    pub pipeline_stall_ns: u64,
    /// Rounds whose leader waited, before claiming its batch, for the
    /// committers it had just shared a force with (or, with
    /// `group_commit_wait_us` set, for that window).
    pub group_waits: u64,
    /// Nanoseconds those leaders waited, in total.
    pub group_wait_ns: u64,
    /// Spool drains: commit rounds that moved at least one spooled
    /// record into the log (each covers many no-flush commits).
    pub spool_flushes: u64,
    /// Completed epoch truncations.
    pub epoch_truncations: u64,
    /// The same count: every epoch runs the one protocol (apply off-lock
    /// while commits keep appending). Kept for the C API's query struct.
    pub epochs_truncated: u64,
    /// Transactions committed while a truncation's apply (an epoch's or
    /// an incremental step's) was in flight.
    pub commits_during_truncation: u64,
    /// Nanoseconds commit-path threads spent blocked on truncation.
    pub truncation_stall_ns: u64,
    /// Log bytes scanned by epoch truncation.
    pub truncation_bytes_scanned: u64,
    /// Disjoint intervals applied to segments by epoch truncation.
    pub truncation_ranges_applied: u64,
    /// Bytes applied to segments by epoch truncation.
    pub truncation_bytes_applied: u64,
    /// Incremental truncation steps completed (one freeze, apply and
    /// head advance each).
    pub incremental_steps: u64,
    /// Pages written to segments by incremental truncation.
    pub pages_written_incremental: u64,
    /// Unlogged-write violations detected by the commit-time checker
    /// (`Tuning::check_unlogged_writes`).
    pub check_unlogged_writes: u64,
    /// Overlapping `set_range` declarations from concurrent transactions
    /// (`Tuning::check_range_conflicts`).
    pub check_range_conflicts: u64,
    /// Device operations retried after a transient failure.
    pub io_retries: u64,
    /// Device operations that succeeded after transient failure(s).
    pub transient_faults_healed: u64,
    /// Times the instance transitioned to the poisoned state.
    pub poisonings: u64,
    /// Segment pages checksum-verified (scrub, loads, verified applies).
    pub pages_scrubbed: u64,
    /// Checksum mismatches detected on segment pages.
    pub corruptions_detected: u64,
    /// Mismatches repaired (mirror read-repair or log reconstruction).
    pub corruptions_repaired: u64,
    /// Regions quarantined into degraded mode.
    pub regions_quarantined: u64,
}

impl StatsSnapshot {
    /// Fraction of potential log traffic suppressed by intra-transaction
    /// optimization, as Table 2 reports it: savings divided by what the
    /// log volume would have been without any optimization.
    pub fn intra_savings_fraction(&self) -> f64 {
        let original = self.bytes_logged + self.bytes_saved_intra + self.bytes_saved_inter;
        if original == 0 {
            0.0
        } else {
            self.bytes_saved_intra as f64 / original as f64
        }
    }

    /// Fraction suppressed by inter-transaction optimization (Table 2).
    pub fn inter_savings_fraction(&self) -> f64 {
        let original = self.bytes_logged + self.bytes_saved_intra + self.bytes_saved_inter;
        if original == 0 {
            0.0
        } else {
            self.bytes_saved_inter as f64 / original as f64
        }
    }

    /// Total savings fraction (Table 2's final column).
    pub fn total_savings_fraction(&self) -> f64 {
        self.intra_savings_fraction() + self.inter_savings_fraction()
    }

    /// Log forces per flush-mode commit: the amortization ratio group
    /// commit exists to shrink. 1.0 means every flush commit paid its own
    /// force; below 1.0 forces are being shared. In mixed workloads the
    /// numerator also counts the forces of `flush()` drains, so read this
    /// on flush-dominated runs (or on a `delta_since` window).
    pub fn forces_per_flush_commit(&self) -> f64 {
        if self.flush_commits == 0 {
            0.0
        } else {
            self.log_forces as f64 / self.flush_commits as f64
        }
    }

    /// Mean transactions per group-commit batch (0 when no batch ran).
    pub fn mean_group_batch(&self) -> f64 {
        if self.group_commit_batches == 0 {
            0.0
        } else {
            self.group_commit_txns as f64 / self.group_commit_batches as f64
        }
    }

    /// Field-wise difference from an earlier snapshot.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            txns_committed: self.txns_committed - earlier.txns_committed,
            txns_aborted: self.txns_aborted - earlier.txns_aborted,
            flush_commits: self.flush_commits - earlier.flush_commits,
            no_flush_commits: self.no_flush_commits - earlier.no_flush_commits,
            set_range_calls: self.set_range_calls - earlier.set_range_calls,
            bytes_set_range_gross: self.bytes_set_range_gross - earlier.bytes_set_range_gross,
            bytes_logged: self.bytes_logged - earlier.bytes_logged,
            bytes_saved_intra: self.bytes_saved_intra - earlier.bytes_saved_intra,
            bytes_saved_inter: self.bytes_saved_inter - earlier.bytes_saved_inter,
            log_forces: self.log_forces - earlier.log_forces,
            group_commit_batches: self.group_commit_batches - earlier.group_commit_batches,
            group_commit_txns: self.group_commit_txns - earlier.group_commit_txns,
            group_commit_batch_sizes: std::array::from_fn(|i| {
                self.group_commit_batch_sizes[i] - earlier.group_commit_batch_sizes[i]
            }),
            pipeline_submits: self.pipeline_submits - earlier.pipeline_submits,
            pipeline_stall_ns: self.pipeline_stall_ns - earlier.pipeline_stall_ns,
            group_waits: self.group_waits - earlier.group_waits,
            group_wait_ns: self.group_wait_ns - earlier.group_wait_ns,
            spool_flushes: self.spool_flushes - earlier.spool_flushes,
            epoch_truncations: self.epoch_truncations - earlier.epoch_truncations,
            epochs_truncated: self.epochs_truncated - earlier.epochs_truncated,
            commits_during_truncation: self.commits_during_truncation
                - earlier.commits_during_truncation,
            truncation_stall_ns: self.truncation_stall_ns - earlier.truncation_stall_ns,
            truncation_bytes_scanned: self.truncation_bytes_scanned
                - earlier.truncation_bytes_scanned,
            truncation_ranges_applied: self.truncation_ranges_applied
                - earlier.truncation_ranges_applied,
            truncation_bytes_applied: self.truncation_bytes_applied
                - earlier.truncation_bytes_applied,
            incremental_steps: self.incremental_steps - earlier.incremental_steps,
            pages_written_incremental: self.pages_written_incremental
                - earlier.pages_written_incremental,
            check_unlogged_writes: self.check_unlogged_writes - earlier.check_unlogged_writes,
            check_range_conflicts: self.check_range_conflicts - earlier.check_range_conflicts,
            io_retries: self.io_retries - earlier.io_retries,
            transient_faults_healed: self.transient_faults_healed - earlier.transient_faults_healed,
            poisonings: self.poisonings - earlier.poisonings,
            pages_scrubbed: self.pages_scrubbed - earlier.pages_scrubbed,
            corruptions_detected: self.corruptions_detected - earlier.corruptions_detected,
            corruptions_repaired: self.corruptions_repaired - earlier.corruptions_repaired,
            regions_quarantined: self.regions_quarantined - earlier.regions_quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_fractions() {
        let snap = StatsSnapshot {
            bytes_logged: 60,
            bytes_saved_intra: 25,
            bytes_saved_inter: 15,
            ..Default::default()
        };
        assert!((snap.intra_savings_fraction() - 0.25).abs() < 1e-9);
        assert!((snap.inter_savings_fraction() - 0.15).abs() < 1e-9);
        assert!((snap.total_savings_fraction() - 0.40).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_savings() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.intra_savings_fraction(), 0.0);
        assert_eq!(snap.total_savings_fraction(), 0.0);
    }

    #[test]
    fn snapshot_and_delta() {
        let stats = Stats::default();
        stats.add(&stats.txns_committed, 5);
        stats.add(&stats.bytes_logged, 100);
        let s1 = stats.snapshot();
        stats.add(&stats.txns_committed, 3);
        let d = stats.snapshot().delta_since(&s1);
        assert_eq!(d.txns_committed, 3);
        assert_eq!(d.bytes_logged, 0);
    }

    #[test]
    fn batch_size_buckets_partition_the_sizes() {
        assert_eq!(batch_size_bucket(1), 0);
        assert_eq!(batch_size_bucket(2), 1);
        assert_eq!(batch_size_bucket(3), 2);
        assert_eq!(batch_size_bucket(4), 2);
        assert_eq!(batch_size_bucket(5), 3);
        assert_eq!(batch_size_bucket(8), 3);
        assert_eq!(batch_size_bucket(9), 4);
        assert_eq!(batch_size_bucket(16), 4);
        assert_eq!(batch_size_bucket(17), 5);
        assert_eq!(batch_size_bucket(1000), 5);
    }

    #[test]
    fn group_histogram_deltas_are_field_wise() {
        let stats = Stats::default();
        stats.add(&stats.group_commit_batches, 2);
        stats.add(&stats.group_commit_txns, 9);
        stats.add(&stats.group_commit_batch_sizes[batch_size_bucket(1)], 1);
        stats.add(&stats.group_commit_batch_sizes[batch_size_bucket(8)], 1);
        let s1 = stats.snapshot();
        stats.add(&stats.group_commit_batches, 1);
        stats.add(&stats.group_commit_txns, 3);
        stats.add(&stats.group_commit_batch_sizes[batch_size_bucket(3)], 1);
        let d = stats.snapshot().delta_since(&s1);
        assert_eq!(d.group_commit_batches, 1);
        assert_eq!(d.group_commit_txns, 3);
        assert_eq!(d.group_commit_batch_sizes, [0, 0, 1, 0, 0, 0]);
        assert!((d.mean_group_batch() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn amortization_ratio() {
        let snap = StatsSnapshot {
            flush_commits: 8,
            log_forces: 2,
            ..Default::default()
        };
        assert!((snap.forces_per_flush_commit() - 0.25).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().forces_per_flush_commit(), 0.0);
        assert_eq!(StatsSnapshot::default().mean_group_batch(), 0.0);
    }
}
