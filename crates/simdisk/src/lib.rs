//! A latency-modelled simulated disk.
//!
//! The paper's evaluation machine (a DECstation 5000/200, §7.1) had three
//! dedicated disks — log, external data segment, and paging file — and its
//! throughput numbers are largely arithmetic over their latencies: the
//! average log force cost 17.4 ms, bounding throughput at 57.4 txn/s
//! (§7.1.2). [`SimDisk`] reproduces that arithmetic deterministically.
//!
//! # Model
//!
//! A disk has a head position, a seek curve, rotational latency, a transfer
//! rate, and a write-behind cache:
//!
//! * **reads** are serviced immediately: seek (distance-dependent) + half a
//!   rotation on average + transfer time;
//! * **writes** land in the cache (transfer time only);
//! * **sync** flushes the cache: contiguous dirty extents are coalesced and
//!   each extent costs a seek + rotational latency + transfer. This makes a
//!   small log force cost one seek + rotation (≈ 17 ms on the default
//!   parameters) regardless of how many `write_at` calls composed the
//!   record — exactly the behaviour the paper's log relies on.
//!
//! All costs are charged to the I/O account of a shared [`simclock::Clock`],
//! never to wall-clock time, so experiments are fast and deterministic.

use std::sync::Arc;

use parking_lot::Mutex;
use rvm_storage::{Device, Result};
use simclock::{Clock, SimTime};

mod params;
mod stats;

pub use params::DiskParams;
pub use stats::DiskStats;

#[derive(Debug)]
struct DiskState {
    /// Current head position in bytes (block-granular positions are not
    /// needed for latency shape).
    head: u64,
    /// Dirty extents in the write-behind cache, kept sorted and coalesced.
    pending: Vec<(u64, u64)>,
    /// Extent currently held by the read-ahead buffer.
    readahead: (u64, u64),
    stats: DiskStats,
}

/// A simulated disk: wraps any inner [`Device`] (usually a
/// [`rvm_storage::MemDevice`]) and charges modelled latency to a virtual
/// clock on every access.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rvm_storage::{Device, MemDevice};
/// use simclock::Clock;
/// use simdisk::{DiskParams, SimDisk};
///
/// let clock = Clock::new();
/// let disk = SimDisk::new(
///     Arc::new(MemDevice::with_len(1 << 20)),
///     clock.clone(),
///     DiskParams::circa_1990(),
/// );
/// disk.write_at(0, &[0u8; 256]).unwrap();
/// disk.sync().unwrap(); // a log force
/// let ms = clock.io_time().as_millis_f64();
/// assert!((15.0..20.0).contains(&ms), "log force cost {ms} ms");
/// ```
pub struct SimDisk {
    inner: Arc<dyn Device>,
    clock: Clock,
    params: DiskParams,
    state: Mutex<DiskState>,
}

impl SimDisk {
    /// Creates a simulated disk over `inner`, charging latency to `clock`.
    pub fn new(inner: Arc<dyn Device>, clock: Clock, params: DiskParams) -> Self {
        Self {
            inner,
            clock,
            params,
            state: Mutex::new(DiskState {
                head: 0,
                pending: Vec::new(),
                readahead: (0, 0),
                stats: DiskStats::default(),
            }),
        }
    }

    /// Returns a copy of the cumulative operation statistics.
    pub fn stats(&self) -> DiskStats {
        self.state.lock().stats.clone()
    }

    /// Returns the disk parameter set in use.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Returns the clock this disk charges.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Cost of a positioned access: seek from the current head to `offset`
    /// plus average rotational delay, then `len` bytes of transfer.
    ///
    /// With `in_batch` set (a non-first extent of a batched flush), a
    /// nearby extent pays
    /// only the discounted rotational wait: the elevator ordering and the
    /// track buffer let the controller write sectors as they come around
    /// instead of waiting half a revolution per extent.
    fn access_cost(&self, state: &mut DiskState, offset: u64, len: u64, in_batch: bool) -> SimTime {
        let capacity = self.params.capacity_bytes;
        let distance = state.head.abs_diff(offset);
        let seek = self.params.seek_time(distance, capacity);
        if !seek.is_zero() {
            state.stats.seeks += 1;
        }
        let rotation = if in_batch && distance < self.params.near_extent_threshold {
            SimTime::from_nanos(
                (self.params.rotational_latency().as_nanos() as f64
                    * self.params.near_extent_rotation_factor) as u64,
            )
        } else {
            self.params.rotational_latency()
        };
        let cost = seek + rotation + self.params.transfer_time(len);
        state.head = offset + len;
        cost
    }

    /// Inserts `[offset, offset + len)` into the pending extent list,
    /// coalescing overlapping or adjacent extents.
    fn add_pending(pending: &mut Vec<(u64, u64)>, offset: u64, len: u64) {
        let (mut start, mut end) = (offset, offset + len);
        pending.retain(|&(s, e)| {
            if s <= end && e >= start {
                start = start.min(s);
                end = end.max(e);
                false
            } else {
                true
            }
        });
        let idx = pending.partition_point(|&(s, _)| s < start);
        pending.insert(idx, (start, end));
    }
}

impl Device for SimDisk {
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)?;
        let mut state = self.state.lock();
        let len = buf.len() as u64;
        let (ra_start, ra_end) = state.readahead;
        let cost = if offset >= ra_start && offset + len <= ra_end {
            // Served from the drive's read-ahead buffer: streaming. The
            // window *slides* to the current stream position (it must not
            // simply grow, or it would eventually cover the whole disk).
            state.readahead = (offset, offset + len + self.params.readahead_bytes);
            state.head = offset + len;
            self.params.transfer_time(len)
        } else {
            state.readahead = (offset, offset + len + self.params.readahead_bytes);
            self.access_cost(&mut state, offset, len, false)
        };
        state.stats.reads += 1;
        state.stats.bytes_read += len;
        self.clock.charge_io(cost);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(offset, data)?;
        let len = data.len() as u64;
        let mut state = self.state.lock();
        // Into the write-behind cache: transfer over the bus only.
        Self::add_pending(&mut state.pending, offset, len);
        state.stats.writes += 1;
        state.stats.bytes_written += len;
        self.clock.charge_io(self.params.transfer_time(len));
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()?;
        let mut state = self.state.lock();
        // Flush the cache: each coalesced extent pays its positioning, the
        // extents after the first the elevator's near-extent discount.
        let pending = std::mem::take(&mut state.pending);
        let mut cost = SimTime::ZERO;
        for (i, &(s, e)) in pending.iter().enumerate() {
            cost += self.access_cost(&mut state, s, e - s, i > 0);
            state.stats.sync_extents += 1;
        }
        if !cost.is_zero() {
            cost += self.params.controller_overhead;
        }
        state.stats.syncs += 1;
        self.clock.charge_io(cost);
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::MemDevice;

    fn disk_with(params: DiskParams) -> (SimDisk, Clock) {
        let clock = Clock::new();
        let disk = SimDisk::new(
            Arc::new(MemDevice::with_len(100 << 20)),
            clock.clone(),
            params,
        );
        (disk, clock)
    }

    #[test]
    fn data_round_trips_through_the_model() {
        let (disk, _clock) = disk_with(DiskParams::circa_1990());
        disk.write_at(4096, b"hello").unwrap();
        disk.sync().unwrap();
        let mut buf = [0u8; 5];
        disk.read_at(4096, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn log_force_costs_about_17ms() {
        let (disk, clock) = disk_with(DiskParams::circa_1990());
        // Steady-state: head already parked at the log tail.
        disk.write_at(0, &[0u8; 64]).unwrap();
        disk.sync().unwrap();
        let before = clock.snapshot();
        disk.write_at(64, &[0u8; 256]).unwrap();
        disk.sync().unwrap();
        let ms = (clock.snapshot() - before).io.as_millis_f64();
        assert!(
            (15.0..20.0).contains(&ms),
            "sequential log force should cost ~17.4 ms, got {ms}"
        );
    }

    #[test]
    fn sequential_writes_coalesce_into_one_extent() {
        let (disk, clock) = disk_with(DiskParams::circa_1990());
        for i in 0..10u64 {
            disk.write_at(i * 100, &[0u8; 100]).unwrap();
        }
        let before = clock.snapshot();
        disk.sync().unwrap();
        let one_extent = (clock.snapshot() - before).io;
        assert_eq!(disk.stats().syncs, 1);

        // Ten far-scattered writes cost roughly ten seeks + rotations
        // (beyond the near-extent threshold, no elevator discount).
        let (disk2, clock2) = disk_with(DiskParams::circa_1990());
        for i in 0..10u64 {
            disk2.write_at(i * (8 << 20), &[0u8; 100]).unwrap();
        }
        let before = clock2.snapshot();
        disk2.sync().unwrap();
        let scattered = (clock2.snapshot() - before).io;
        assert!(
            scattered.as_nanos() > 5 * one_extent.as_nanos(),
            "scattered {scattered} vs sequential {one_extent}"
        );
    }

    #[test]
    fn grouped_force_costs_one_seek_and_contiguous_transfer() {
        // A group commit appends N records back to back and forces once.
        // The model must charge that like a single sequential transfer —
        // one coalesced extent, one seek — not N individual forces.
        let (disk, clock) = disk_with(DiskParams::circa_1990());
        disk.write_at(0, &[0u8; 64]).unwrap();
        disk.sync().unwrap(); // park the head at the log tail
        let parked = disk.stats();

        let before = clock.snapshot();
        for i in 0..8u64 {
            disk.write_at(64 + i * 512, &[0u8; 512]).unwrap();
        }
        disk.sync().unwrap();
        let grouped_ms = (clock.snapshot() - before).io.as_millis_f64();
        let delta = disk.stats().delta_since(&parked);
        assert_eq!(delta.syncs, 1);
        assert_eq!(delta.sync_extents, 1, "contiguous appends must coalesce");
        assert!(
            (15.0..25.0).contains(&grouped_ms),
            "a grouped force should cost about one ~17.4 ms force, got {grouped_ms}"
        );

        // The same eight records forced one at a time pay ~8 rotations.
        let (disk2, clock2) = disk_with(DiskParams::circa_1990());
        disk2.write_at(0, &[0u8; 64]).unwrap();
        disk2.sync().unwrap();
        let before = clock2.snapshot();
        for i in 0..8u64 {
            disk2.write_at(64 + i * 512, &[0u8; 512]).unwrap();
            disk2.sync().unwrap();
        }
        let serial_ms = (clock2.snapshot() - before).io.as_millis_f64();
        assert_eq!(disk2.stats().sync_extents, 1 + 8);
        assert!(
            serial_ms > 4.0 * grouped_ms,
            "serialized forces ({serial_ms} ms) should dwarf one grouped force ({grouped_ms} ms)"
        );
    }

    #[test]
    fn reads_charge_seek_plus_rotation_plus_transfer() {
        let (disk, clock) = disk_with(DiskParams::circa_1990());
        let mut buf = [0u8; 4096];
        disk.read_at(50 << 20, &mut buf).unwrap();
        let ms = clock.io_time().as_millis_f64();
        assert!(ms > 10.0, "random 4K read should cost >10 ms, got {ms}");
        assert_eq!(disk.stats().reads, 1);
        assert_eq!(disk.stats().bytes_read, 4096);
    }

    #[test]
    fn sequential_read_after_read_skips_the_seek() {
        let (disk, clock) = disk_with(DiskParams::circa_1990());
        let mut buf = [0u8; 4096];
        disk.read_at(0, &mut buf).unwrap();
        let before = clock.snapshot();
        disk.read_at(4096, &mut buf).unwrap();
        let sequential = (clock.snapshot() - before).io;
        let before = clock.snapshot();
        disk.read_at(90 << 20, &mut buf).unwrap();
        let random = (clock.snapshot() - before).io;
        assert!(random > sequential);
    }

    #[test]
    fn empty_sync_is_free() {
        let (disk, clock) = disk_with(DiskParams::circa_1990());
        disk.sync().unwrap();
        assert_eq!(clock.io_time(), SimTime::ZERO);
    }

    #[test]
    fn pending_extent_coalescing() {
        let mut pending = Vec::new();
        SimDisk::add_pending(&mut pending, 0, 10);
        SimDisk::add_pending(&mut pending, 10, 10); // adjacent
        SimDisk::add_pending(&mut pending, 5, 3); // contained
        assert_eq!(pending, vec![(0, 20)]);
        SimDisk::add_pending(&mut pending, 100, 10);
        SimDisk::add_pending(&mut pending, 50, 10);
        assert_eq!(pending, vec![(0, 20), (50, 60), (100, 110)]);
        SimDisk::add_pending(&mut pending, 15, 40); // bridges first two
        assert_eq!(pending, vec![(0, 60), (100, 110)]);
    }
}
