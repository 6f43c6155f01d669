//! Media-failure resilience by mirroring (the layer *below* RVM in the
//! paper's Figure 2).
//!
//! §3.1: "Our final simplification was to factor out resiliency to media
//! failure. Standard techniques such as mirroring can be used to achieve
//! such resiliency. Our expectation is that this functionality will most
//! likely be implemented in the device driver of a mirrored disk."
//!
//! [`MirrorDevice`] is that device driver: writes go to every replica and
//! reads are served by the first replica that still answers. Failure
//! handling distinguishes three severities:
//!
//! * **Transient errors** are retried a bounded number of times. A read
//!   that keeps failing transiently is *skipped* — served from another
//!   replica, with the flaky one left in service; a write that keeps
//!   failing transiently drops the replica (skipping a write would let
//!   the copies silently diverge).
//! * **Hard errors** drop the replica from service. A dropped replica can
//!   be brought back with [`MirrorDevice::readmit_replica`], which
//!   resilvers it from a healthy copy first.
//! * **Silent corruption** is invisible here — the mirror holds no
//!   checksums — but [`Device::read_verified`] lets a caller supply one:
//!   the mirror then tries each replica until a copy verifies and
//!   *read-repairs* the losers in place.
//!
//! RVM stacks on top unchanged — exactly the layering the paper
//! prescribes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::{Device, DeviceError, Result, VerifiedRead};

/// How many times a transiently-failing replica operation is retried
/// before the mirror gives up on it (skips the read or drops the
/// replica for a write).
const TRANSIENT_RETRIES: usize = 3;

/// Resilver copy granularity.
const RESILVER_CHUNK: usize = 1 << 16;

struct Replica {
    dev: Arc<dyn Device>,
    alive: AtomicBool,
}

/// Runs `f`, retrying bounded times while it fails transiently.
fn with_retry<T>(mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut last = None;
    for _ in 0..=TRANSIENT_RETRIES {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retry loop runs at least once"))
}

fn all_failed() -> DeviceError {
    DeviceError::Io(std::io::Error::other("all mirror replicas have failed"))
}

/// A device mirrored over two or more replicas.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rvm_storage::{Device, MemDevice, MirrorDevice};
///
/// let a = Arc::new(MemDevice::with_len(1024));
/// let b = Arc::new(MemDevice::with_len(1024));
/// let mirror = MirrorDevice::new(vec![a.clone(), b.clone()]).unwrap();
/// mirror.write_at(0, b"both").unwrap();
/// let mut buf = [0u8; 4];
/// b.read_at(0, &mut buf).unwrap();
/// assert_eq!(&buf, b"both");
/// ```
pub struct MirrorDevice {
    replicas: Vec<Replica>,
    /// Replica pages rewritten from a verified copy by `read_verified`.
    read_repairs: AtomicU64,
}

impl MirrorDevice {
    /// Builds a mirror over the replicas, which must all have the same
    /// length.
    pub fn new(devices: Vec<Arc<dyn Device>>) -> Result<MirrorDevice> {
        if devices.is_empty() {
            return Err(DeviceError::Io(std::io::Error::other(
                "a mirror needs at least one replica",
            )));
        }
        let len = devices[0].len()?;
        for dev in &devices[1..] {
            if dev.len()? != len {
                return Err(DeviceError::Io(std::io::Error::other(
                    "mirror replicas must have equal lengths",
                )));
            }
        }
        Ok(MirrorDevice {
            replicas: devices
                .into_iter()
                .map(|dev| Replica {
                    dev,
                    alive: AtomicBool::new(true),
                })
                .collect(),
            read_repairs: AtomicU64::new(0),
        })
    }

    /// Number of replicas still in service.
    pub fn alive_replicas(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.alive.load(Ordering::Acquire))
            .count()
    }

    /// Total number of replicas, in service or not.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replica pages rewritten from a verified copy by
    /// [`Device::read_verified`] read-repair.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }

    /// Marks a replica as failed (for tests and administrative action);
    /// it will no longer be read from or written to.
    pub fn fail_replica(&self, index: usize) {
        if let Some(r) = self.replicas.get(index) {
            r.alive.store(false, Ordering::Release);
        }
    }

    /// Brings a dropped replica back into service after *resilvering* it:
    /// the replica is sized to match and its full contents copied from
    /// the surviving copies, then synced, before it is marked alive.
    ///
    /// The caller must quiesce writes to the mirror for the duration —
    /// RVM's truncation paths already serialize segment writes, so the
    /// natural place to call this is between truncation epochs.
    pub fn readmit_replica(&self, index: usize) -> Result<()> {
        let target = self
            .replicas
            .get(index)
            .ok_or_else(|| DeviceError::Io(std::io::Error::other("no such replica")))?;
        if target.alive.load(Ordering::Acquire) {
            return Ok(());
        }
        let len = self.len()?;
        target.dev.set_len(len)?;
        let mut buf = vec![0u8; RESILVER_CHUNK.min(len.max(1) as usize)];
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(RESILVER_CHUNK);
            self.read_at(off, &mut buf[..n])?;
            target.dev.write_at(off, &buf[..n])?;
            off += n as u64;
        }
        target.dev.sync()?;
        target.alive.store(true, Ordering::Release);
        Ok(())
    }

    /// Runs a mutation on every alive replica. Transient failures are
    /// retried; a replica whose *write-side* operation still fails is
    /// dropped (skipping it would silently diverge the copies), but it
    /// remains eligible for [`MirrorDevice::readmit_replica`].
    fn for_each_alive(&self, mut f: impl FnMut(&Arc<dyn Device>) -> Result<()>) -> Result<()> {
        let mut any = false;
        for replica in &self.replicas {
            if !replica.alive.load(Ordering::Acquire) {
                continue;
            }
            match with_retry(|| f(&replica.dev)) {
                Ok(()) => any = true,
                Err(DeviceError::OutOfBounds {
                    offset,
                    len,
                    device_len,
                }) => {
                    // Bounds errors are deterministic, not media failures.
                    return Err(DeviceError::OutOfBounds {
                        offset,
                        len,
                        device_len,
                    });
                }
                Err(_) => replica.alive.store(false, Ordering::Release),
            }
        }
        if any {
            Ok(())
        } else {
            Err(all_failed())
        }
    }

    /// Runs a read-side operation against replicas in order until one
    /// answers. Transient failures are retried and then *skipped* — the
    /// replica stays alive, since an unanswered read diverges nothing;
    /// hard failures drop the replica.
    fn first_alive<T>(&self, mut f: impl FnMut(&Arc<dyn Device>) -> Result<T>) -> Result<T> {
        for replica in &self.replicas {
            if !replica.alive.load(Ordering::Acquire) {
                continue;
            }
            match with_retry(|| f(&replica.dev)) {
                Ok(v) => return Ok(v),
                Err(DeviceError::OutOfBounds {
                    offset,
                    len,
                    device_len,
                }) => {
                    return Err(DeviceError::OutOfBounds {
                        offset,
                        len,
                        device_len,
                    })
                }
                Err(e) if e.is_transient() => continue,
                Err(_) => replica.alive.store(false, Ordering::Release),
            }
        }
        Err(all_failed())
    }
}

impl Device for MirrorDevice {
    fn len(&self) -> Result<u64> {
        self.first_alive(|dev| dev.len())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.first_alive(|dev| dev.read_at(offset, buf))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.for_each_alive(|dev| dev.write_at(offset, data))
    }

    fn sync(&self) -> Result<()> {
        self.for_each_alive(|dev| dev.sync())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.for_each_alive(|dev| dev.set_len(len))
    }

    /// Tries each alive replica until a copy passes `verify`; replicas
    /// that answered with non-verifying bytes are then rewritten from the
    /// verified copy (read-repair). Replicas that could not be read are
    /// handled as in `read_at` (transient → skip, hard → drop) and are
    /// *not* repaired — their bytes were never seen.
    fn read_verified(
        &self,
        offset: u64,
        buf: &mut [u8],
        verify: &(dyn Fn(&[u8]) -> bool + Sync),
    ) -> Result<VerifiedRead> {
        let mut losers: Vec<usize> = Vec::new();
        let mut any_read = false;
        for (i, replica) in self.replicas.iter().enumerate() {
            if !replica.alive.load(Ordering::Acquire) {
                continue;
            }
            match with_retry(|| replica.dev.read_at(offset, buf)) {
                Ok(()) => {
                    any_read = true;
                    if verify(buf) {
                        let mut repaired = false;
                        for &j in &losers {
                            let loser = &self.replicas[j];
                            match with_retry(|| loser.dev.write_at(offset, buf)) {
                                Ok(()) => {
                                    repaired = true;
                                    self.read_repairs.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => loser.alive.store(false, Ordering::Release),
                            }
                        }
                        return Ok(if repaired {
                            VerifiedRead::Repaired
                        } else {
                            VerifiedRead::Clean
                        });
                    }
                    losers.push(i);
                }
                Err(DeviceError::OutOfBounds {
                    offset,
                    len,
                    device_len,
                }) => {
                    return Err(DeviceError::OutOfBounds {
                        offset,
                        len,
                        device_len,
                    })
                }
                Err(e) if e.is_transient() => continue,
                Err(_) => replica.alive.store(false, Ordering::Release),
            }
        }
        if any_read {
            // Every copy we could read failed verification; `buf` holds
            // the last (unverified) bytes for best-effort salvage.
            Ok(VerifiedRead::Corrupt)
        } else {
            Err(all_failed())
        }
    }

    fn replica_health(&self) -> Option<(usize, usize)> {
        Some((self.alive_replicas(), self.replica_count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashPlan, FaultClock, FaultDevice, FaultOp, FlakyFault, MemDevice};

    fn two_way() -> (MirrorDevice, Arc<MemDevice>, Arc<MemDevice>) {
        let a = Arc::new(MemDevice::with_len(1024));
        let b = Arc::new(MemDevice::with_len(1024));
        let m = MirrorDevice::new(vec![a.clone(), b.clone()]).unwrap();
        (m, a, b)
    }

    #[test]
    fn writes_reach_every_replica() {
        let (m, a, b) = two_way();
        m.write_at(10, b"mirrored").unwrap();
        m.sync().unwrap();
        let mut buf = [0u8; 8];
        a.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"mirrored");
        b.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"mirrored");
    }

    #[test]
    fn reads_survive_a_replica_failure() {
        let (m, _a, _b) = two_way();
        m.write_at(0, b"safe").unwrap();
        m.fail_replica(0);
        assert_eq!(m.alive_replicas(), 1);
        let mut buf = [0u8; 4];
        m.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"safe");
        // Writes keep going to the survivor.
        m.write_at(8, b"more").unwrap();
        assert_eq!(m.alive_replicas(), 1);
    }

    #[test]
    fn failing_replica_is_dropped_automatically() {
        let a: Arc<dyn Device> = Arc::new(FaultDevice::new(
            Arc::new(MemDevice::with_len(1024)),
            CrashPlan::lose_unsynced_at(8),
        ));
        let b = Arc::new(MemDevice::with_len(1024));
        let m = MirrorDevice::new(vec![a, b.clone()]).unwrap();
        m.write_at(0, &[1; 8]).unwrap(); // replica 0 crashes here
        assert_eq!(m.alive_replicas(), 1);
        m.write_at(8, &[2; 8]).unwrap();
        let mut buf = [0u8; 8];
        b.read_at(8, &mut buf).unwrap();
        assert_eq!(buf, [2; 8]);
    }

    #[test]
    fn all_replicas_failed_is_an_error() {
        let (m, _a, _b) = two_way();
        m.fail_replica(0);
        m.fail_replica(1);
        assert!(m.write_at(0, &[1]).is_err());
        assert!(m.read_at(0, &mut [0]).is_err());
        assert!(m.len().is_err());
    }

    #[test]
    fn bounds_errors_are_not_media_failures() {
        let (m, _a, _b) = two_way();
        assert!(matches!(
            m.write_at(2000, &[1]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert_eq!(m.alive_replicas(), 2, "no replica dropped");
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let a: Arc<dyn Device> = Arc::new(MemDevice::with_len(1024));
        let b: Arc<dyn Device> = Arc::new(MemDevice::with_len(2048));
        assert!(MirrorDevice::new(vec![a, b]).is_err());
        assert!(MirrorDevice::new(vec![]).is_err());
    }

    #[test]
    fn transient_write_failure_is_retried_not_dropped() {
        // One transient write fault: the in-place retry absorbs it.
        let flaky: Arc<dyn Device> = Arc::new(FaultDevice::with_clock(
            Arc::new(MemDevice::with_len(1024)),
            FaultClock::new(vec![FlakyFault::transient(FaultOp::Write, 1)]),
        ));
        let b = Arc::new(MemDevice::with_len(1024));
        let m = MirrorDevice::new(vec![flaky, b.clone()]).unwrap();
        m.write_at(0, b"kept").unwrap();
        assert_eq!(m.alive_replicas(), 2, "transient write must not drop");
    }

    #[test]
    fn transient_read_failure_skips_without_dropping() {
        // A long transient run on reads outlasts the retries; the read is
        // served by the other replica and the flaky one stays alive.
        let flaky: Arc<dyn Device> = Arc::new(FaultDevice::with_clock(
            Arc::new(MemDevice::with_len(1024)),
            FaultClock::new(vec![FlakyFault::transient_run(FaultOp::Read, 1, 100)]),
        ));
        let b = Arc::new(MemDevice::with_len(1024));
        let m = MirrorDevice::new(vec![flaky, b.clone()]).unwrap();
        m.write_at(0, b"served").unwrap();
        let mut buf = [0u8; 6];
        m.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"served");
        assert_eq!(m.alive_replicas(), 2, "transient reads must not drop");
    }

    #[test]
    fn persistent_transient_write_failure_drops_replica() {
        // A transient run longer than the retry budget on the write path:
        // the replica is dropped (a skipped write would diverge copies).
        let flaky: Arc<dyn Device> = Arc::new(FaultDevice::with_clock(
            Arc::new(MemDevice::with_len(1024)),
            FaultClock::new(vec![FlakyFault::transient_run(FaultOp::Write, 1, 100)]),
        ));
        let b = Arc::new(MemDevice::with_len(1024));
        let m = MirrorDevice::new(vec![flaky, b.clone()]).unwrap();
        m.write_at(0, b"x").unwrap();
        assert_eq!(m.alive_replicas(), 1);
    }

    #[test]
    fn readmit_resilvers_from_survivor() {
        let (m, a, _b) = two_way();
        m.write_at(0, b"before").unwrap();
        m.fail_replica(0);
        m.write_at(6, b" after").unwrap(); // replica 0 misses this
        m.readmit_replica(0).unwrap();
        assert_eq!(m.alive_replicas(), 2);
        let mut buf = [0u8; 12];
        a.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"before after", "resilver copied the delta");
    }

    #[test]
    fn read_verified_repairs_the_losing_replica() {
        let (m, a, b) = two_way();
        m.write_at(0, &[7u8; 16]).unwrap();
        a.write_at(3, &[0xFF]).unwrap(); // corrupt replica 0 behind the mirror's back
        let want = [7u8; 16];
        let mut buf = [0u8; 16];
        let outcome = m.read_verified(0, &mut buf, &|data| data == want).unwrap();
        assert_eq!(outcome, VerifiedRead::Repaired);
        assert_eq!(buf, want);
        assert_eq!(m.read_repairs(), 1);
        // The loser was rewritten in place.
        a.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, want);
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, want);
        // A second verified read is clean.
        let outcome = m.read_verified(0, &mut buf, &|data| data == want).unwrap();
        assert_eq!(outcome, VerifiedRead::Clean);
    }

    #[test]
    fn read_verified_reports_unrecoverable_corruption() {
        let (m, a, b) = two_way();
        m.write_at(0, &[7u8; 16]).unwrap();
        a.write_at(3, &[0xFF]).unwrap();
        b.write_at(5, &[0xFE]).unwrap();
        let want = [7u8; 16];
        let mut buf = [0u8; 16];
        let outcome = m.read_verified(0, &mut buf, &|data| data == want).unwrap();
        assert_eq!(outcome, VerifiedRead::Corrupt);
        assert!(!outcome.is_verified());
        assert_eq!(m.alive_replicas(), 2, "corruption is not a drop");
    }

    #[test]
    fn read_verified_with_seeded_rot_storm_heals() {
        // Both replicas rot independently (separate clocks): with a
        // checksum on top the mirror must serve only verified bytes.
        let want = [0x42u8; 64];
        let mk = |seed| -> Arc<dyn Device> {
            let clock = FaultClock::seeded_with_rot(seed, 0, 150);
            Arc::new(FaultDevice::with_clock(
                Arc::new(MemDevice::with_len(1024)),
                clock,
            ))
        };
        let m = MirrorDevice::new(vec![mk(1), mk(2)]).unwrap();
        // Writes themselves may rot; retry the whole write until both
        // replicas verify, so the test starts from a known-good image.
        loop {
            m.write_at(0, &want).unwrap();
            let mut buf = [0u8; 64];
            if m.read_verified(0, &mut buf, &|d| d == want).unwrap() == VerifiedRead::Clean {
                break;
            }
        }
        let mut healed = 0u32;
        for _ in 0..200 {
            let mut buf = [0u8; 64];
            let outcome = m.read_verified(0, &mut buf, &|d| d == want).unwrap();
            // A rotted read is detected and never surfaces bad bytes...
            if outcome.is_verified() {
                assert_eq!(buf, want);
            }
            if outcome == VerifiedRead::Repaired {
                healed += 1;
            }
        }
        assert!(healed > 0, "a 15% rot storm over 200 reads must repair");
        assert_eq!(m.alive_replicas(), 2);
    }

    #[test]
    fn replica_health_is_reported() {
        let (m, _a, _b) = two_way();
        assert_eq!(m.replica_health(), Some((2, 2)));
        m.fail_replica(1);
        assert_eq!(m.replica_health(), Some((1, 2)));
    }
}
