//! Results of the `query` operation (§4.2, Figure 4d).

use crate::stats::StatsSnapshot;

/// Log geometry and occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogInfo {
    /// Logical offset of the oldest live record.
    pub head: u64,
    /// Logical offset one past the newest record.
    pub tail: u64,
    /// Live bytes (`tail - head`).
    pub used: u64,
    /// Record-area capacity.
    pub capacity: u64,
    /// `used / capacity`.
    pub utilization: f64,
}

/// Library-wide information returned by [`Rvm::query`](crate::Rvm::query).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInfo {
    /// Transactions begun but not yet committed or aborted.
    pub active_transactions: u64,
    /// Currently mapped regions.
    pub mapped_regions: usize,
    /// Mapped regions quarantined into read-only degraded mode by
    /// unrecoverable media corruption (see
    /// [`RvmError::Media`](crate::RvmError::Media)).
    pub regions_degraded: usize,
    /// Healthy replicas across every mirrored device in play (the log
    /// plus resolved segments); 0 when nothing is mirrored.
    pub replicas_alive: usize,
    /// Total replicas across those mirrors; `replicas_alive <
    /// replicas_total` means a mirror is running degraded and
    /// [`MirrorDevice::readmit_replica`](rvm_storage::MirrorDevice) (or a
    /// resilver) is due.
    pub replicas_total: usize,
    /// Committed no-flush transactions awaiting a flush.
    pub spooled_transactions: usize,
    /// Record bytes awaiting a flush.
    pub spool_bytes: u64,
    /// Dirty pages queued for incremental truncation.
    pub queued_pages: usize,
    /// Whether a truncation — an epoch applying its frozen span, or an
    /// incremental step writing its frozen pages — is in flight right
    /// now (commits keep flowing past it; see
    /// [`Rvm::truncate`](crate::Rvm::truncate)).
    pub truncation_in_flight: bool,
    /// Log geometry.
    pub log: LogInfo,
    /// Whether the instance is poisoned (see
    /// [`RvmError::Poisoned`](crate::RvmError::Poisoned)).
    pub poisoned: bool,
    /// Operation counters.
    pub stats: StatsSnapshot,
}

impl QueryInfo {
    /// Mean transactions per group-commit batch (0 when no batch ran).
    pub fn mean_group_batch(&self) -> f64 {
        self.stats.mean_group_batch()
    }
}
