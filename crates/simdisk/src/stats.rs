//! Cumulative operation counters for a simulated disk.

/// Counters accumulated over the lifetime of a [`SimDisk`](crate::SimDisk).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of `read_at` calls.
    pub reads: u64,
    /// Number of `write_at` calls.
    pub writes: u64,
    /// Number of `sync` calls (including empty ones).
    pub syncs: u64,
    /// Coalesced dirty extents charged across all `sync` calls. A group
    /// commit that appends N transactions contiguously and forces once
    /// shows up as one sync and one extent, not N.
    pub sync_extents: u64,
    /// Number of non-zero-distance head movements.
    pub seeks: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

impl DiskStats {
    /// Difference between two snapshots of the same disk's stats.
    pub fn delta_since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            sync_extents: self.sync_extents - earlier.sync_extents,
            seeks: self.seeks - earlier.seeks,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = DiskStats {
            reads: 10,
            writes: 20,
            syncs: 3,
            sync_extents: 7,
            seeks: 5,
            bytes_read: 1000,
            bytes_written: 2000,
        };
        let b = DiskStats {
            reads: 4,
            writes: 8,
            syncs: 1,
            sync_extents: 2,
            seeks: 2,
            bytes_read: 400,
            bytes_written: 800,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.reads, 6);
        assert_eq!(d.writes, 12);
        assert_eq!(d.syncs, 2);
        assert_eq!(d.sync_extents, 5);
        assert_eq!(d.seeks, 3);
        assert_eq!(d.bytes_read, 600);
        assert_eq!(d.bytes_written, 1200);
    }
}
