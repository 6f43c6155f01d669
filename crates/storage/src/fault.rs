//! Fault injection: one [`Device`] wrapper, [`FaultDevice`], driven by one
//! schedule, a [`FaultClock`].
//!
//! A clock models both ways the device contract of the paper (§3.3) is
//! tested:
//!
//! * **a crash** — once the clock's devices have written a byte budget (a
//!   [`CrashPlan`]) or a scheduled [`FaultKind::Crash`] fires, every later
//!   operation fails with [`DeviceError::Crashed`], and every device on the
//!   clock is rolled back to its last successful `sync`. The clock then
//!   hands out the writes it rolled back ([`FaultClock::rolled_back`]), so
//!   the crash images between "none kept" and "all kept" come from one
//!   enumerator (`rvm-images`), not from here;
//! * **flaky hardware** — the Nth read, write or sync fails with a
//!   transient or permanent [`DeviceError::Injected`], optionally for a run
//!   of K consecutive operations before healing, or silently rots its data.
//!   Schedules are explicit ([`FlakyFault`] lists) or pseudo-random from a
//!   seed, so every scenario replays bit-for-bit.
//!
//! Several devices may share one clock (a log device plus every segment
//! device resolved during recovery): they count operations and bytes
//! against one global sequence — which is what lets a crash-matrix sweep
//! place a crash after the K-th device operation *anywhere* in the system
//! — and the crash settles every one of them at the moment it fires.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::{Device, DeviceError, FaultOp, Result, TraceOp, TraceOpKind};

/// When a [`FaultDevice`] crashes: once its clock's devices have written
/// `after_bytes` bytes. The write that crosses the budget is cut at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Fire the crash once this many total bytes have been written through
    /// the device (the triggering write is the one that crosses this count).
    pub after_bytes: u64,
}

impl CrashPlan {
    /// A plan that crashes after `after_bytes` written and loses everything
    /// since the last sync.
    pub fn lose_unsynced_at(after_bytes: u64) -> Self {
        Self { after_bytes }
    }
}

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with a transient error; a retry may succeed.
    Transient,
    /// The operation fails with a permanent error; retries keep failing.
    Permanent,
    /// The clock crashes: this and every later operation fails with
    /// [`DeviceError::Crashed`].
    Crash,
    /// Silent corruption: the operation *succeeds* but its data is
    /// flipped — a rotted read returns corrupted bytes, a rotted write
    /// persists corrupted bytes on the media. Rot on a sync does nothing.
    /// This is the bit-rot fault the fail-stop kinds above cannot
    /// express; only end-to-end checksums can catch it.
    BitRot,
}

/// One scheduled fault: fail `count` operations starting at the `nth`
/// matching operation (1-based).
#[derive(Debug, Clone, Copy)]
pub struct FlakyFault {
    /// Operation to match, or `None` to count every operation on the clock.
    pub op: Option<FaultOp>,
    /// 1-based index of the first matching operation that fails.
    pub nth: u64,
    /// Number of consecutive matching operations that fail.
    pub count: u64,
    /// Failure mode.
    pub kind: FaultKind,
}

impl FlakyFault {
    /// Fail the `nth` operation of kind `op` with a transient error.
    pub fn transient(op: FaultOp, nth: u64) -> Self {
        Self::transient_run(op, nth, 1)
    }

    /// Fail `count` consecutive operations of kind `op` starting at the
    /// `nth`, each with a transient error (the device "heals" after).
    pub fn transient_run(op: FaultOp, nth: u64, count: u64) -> Self {
        FlakyFault {
            op: Some(op),
            nth,
            count,
            kind: FaultKind::Transient,
        }
    }

    /// Fail the `nth` operation of kind `op` with a permanent error.
    pub fn permanent(op: FaultOp, nth: u64) -> Self {
        FlakyFault {
            op: Some(op),
            nth,
            count: u64::MAX,
            kind: FaultKind::Permanent,
        }
    }

    /// Crash on the `nth` operation of kind `op`.
    pub fn crash(op: FaultOp, nth: u64) -> Self {
        FlakyFault {
            op: Some(op),
            nth,
            count: u64::MAX,
            kind: FaultKind::Crash,
        }
    }

    /// Crash on the `nth` operation of *any* kind, counted across every
    /// device sharing the clock. The workhorse of crash-matrix sweeps.
    pub fn crash_after_ops(nth: u64) -> Self {
        FlakyFault {
            op: None,
            nth,
            count: u64::MAX,
            kind: FaultKind::Crash,
        }
    }

    /// Silently corrupt the `nth` operation of kind `op`; see
    /// [`FaultKind::BitRot`].
    pub fn bit_rot(op: FaultOp, nth: u64) -> Self {
        Self::bit_rot_run(op, nth, 1)
    }

    /// Silently corrupt `count` consecutive operations of kind `op`
    /// starting at the `nth`.
    pub fn bit_rot_run(op: FaultOp, nth: u64, count: u64) -> Self {
        FlakyFault {
            op: Some(op),
            nth,
            count,
            kind: FaultKind::BitRot,
        }
    }
}

/// xorshift64*: advances `state` (a zero state, which would stick at
/// zero, starts from a fixed constant) and returns its next output. The
/// workspace's one generator: seeded clocks, crash-image samples and the
/// crash checker's workloads all replay bit-for-bit from their seeds.
pub fn xorshift64(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let x = state;
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// How the clock disposed of one admitted (non-failing) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admitted {
    /// The operation proceeds untouched.
    Clean,
    /// The operation proceeds but its data must be corrupted; the salt
    /// picks which byte flips, deterministically per schedule.
    Rot { salt: u64 },
}

fn op_index(op: FaultOp) -> usize {
    match op {
        FaultOp::Read => 0,
        FaultOp::Write => 1,
        FaultOp::Sync => 2,
    }
}

/// One write since its device's last successful `sync`.
struct JournalEntry {
    dev: Arc<dyn Device>,
    offset: u64,
    old: Vec<u8>,
    new: Vec<u8>,
}

struct ClockState {
    faults: Vec<FlakyFault>,
    /// Per-op counters, indexed by `FaultOp as usize`.
    seen: [u64; 3],
    /// Total operations across all ops.
    total: u64,
    /// xorshift64* state for seeded mode.
    rng: u64,
    /// In seeded mode, per-mille probability that any operation fails
    /// with a transient fault.
    per_mille: u32,
    /// In seeded mode, per-mille probability that an operation is
    /// silently corrupted ([`FaultKind::BitRot`]) when it did not fail.
    rot_per_mille: u32,
    /// The byte trigger: crash once `bytes_written` reaches it.
    after_bytes: u64,
    /// Bytes persisted through every device on the clock.
    bytes_written: u64,
    /// Every write since its device's last *successful* sync, in global
    /// write order — a failed sync is not a durability barrier. After the
    /// crash, the writes it rolled back.
    journal: Vec<JournalEntry>,
    crashed: bool,
    /// Number of faults injected so far (all kinds, bit rot included).
    injected: u64,
    /// Number of bit-rot faults injected so far.
    rotted: u64,
}

impl ClockState {
    fn new(faults: Vec<FlakyFault>) -> Self {
        ClockState {
            faults,
            seen: [0; 3],
            total: 0,
            rng: 0,
            per_mille: 0,
            rot_per_mille: 0,
            after_bytes: u64::MAX,
            bytes_written: 0,
            journal: Vec::new(),
            crashed: false,
            injected: 0,
            rotted: 0,
        }
    }

    fn alive(&self) -> Result<()> {
        if self.crashed {
            return Err(DeviceError::Crashed);
        }
        Ok(())
    }

    /// Record one operation of kind `op` and decide its fate.
    fn admit(&mut self, op: FaultOp) -> Result<Admitted> {
        self.alive()?;
        self.seen[op_index(op)] += 1;
        self.total += 1;

        let mut verdict: Option<FaultKind> = None;
        for f in &self.faults {
            let n = match f.op {
                Some(fop) if fop == op => self.seen[op_index(op)],
                Some(_) => continue,
                None => self.total,
            };
            if n >= f.nth && n - f.nth < f.count {
                verdict = Some(f.kind);
                break;
            }
        }
        if verdict.is_none() && self.per_mille > 0 {
            let roll = (xorshift64(&mut self.rng) >> 32) % 1000;
            if (roll as u32) < self.per_mille {
                verdict = Some(FaultKind::Transient);
            }
        }
        if verdict.is_none() && self.rot_per_mille > 0 {
            // A second, independent roll for the rot channel. Guarded so
            // rot-free seeded clocks keep their historical rng stream.
            let roll = (xorshift64(&mut self.rng) >> 32) % 1000;
            if (roll as u32) < self.rot_per_mille {
                verdict = Some(FaultKind::BitRot);
            }
        }

        let Some(kind) = verdict else {
            return Ok(Admitted::Clean);
        };
        self.injected += 1;
        match kind {
            FaultKind::Transient => Err(DeviceError::Injected {
                op,
                transient: true,
            }),
            FaultKind::Permanent => Err(DeviceError::Injected {
                op,
                transient: false,
            }),
            FaultKind::Crash => Err(self.crash()),
            FaultKind::BitRot => {
                self.rotted += 1;
                // Salt the corruption with the op count so each rotted
                // operation flips a different byte, deterministically per
                // schedule.
                Ok(Admitted::Rot { salt: self.total })
            }
        }
    }

    /// Fires the crash and settles every device on the clock: the journal
    /// is rolled back in reverse order, which leaves each device as it was
    /// at its last successful sync even where writes overlap. The journal
    /// stays, as the writes the crash rolled back.
    fn crash(&mut self) -> DeviceError {
        self.crashed = true;
        // A failure to roll back would leave a *more* adversarial image,
        // which recovery must tolerate anyway; ignore it.
        for entry in self.journal.iter().rev() {
            // lint:allow(device-fallibility): crash simulation rolls the device back
            let _ = entry.dev.write_at(entry.offset, &entry.old);
        }
        DeviceError::Crashed
    }
}

/// Shared fault schedule; see the [module docs](self).
pub struct FaultClock {
    state: Mutex<ClockState>,
}

impl FaultClock {
    /// A clock with an explicit fault schedule.
    pub fn new(faults: Vec<FlakyFault>) -> Arc<Self> {
        Self::with_state(ClockState::new(faults))
    }

    /// A clock that fails each operation with probability
    /// `fail_per_mille`/1000, pseudo-randomly from `seed` (xorshift64*),
    /// always with a transient fault.
    pub fn seeded(seed: u64, fail_per_mille: u32) -> Arc<Self> {
        Self::seeded_with_rot(seed, fail_per_mille, 0)
    }

    /// A clock that fails each operation with probability
    /// `fail_per_mille`/1000 (transiently) and silently corrupts each
    /// surviving operation with probability `rot_per_mille`/1000 — the
    /// seeded corruption *storm*. Both channels draw from the same
    /// xorshift64* stream, so a storm replays bit-for-bit from its seed.
    pub fn seeded_with_rot(seed: u64, fail_per_mille: u32, rot_per_mille: u32) -> Arc<Self> {
        Self::with_state(ClockState {
            rng: seed,
            per_mille: fail_per_mille.min(1000),
            rot_per_mille: rot_per_mille.min(1000),
            ..ClockState::new(Vec::new())
        })
    }

    fn with_state(state: ClockState) -> Arc<Self> {
        Arc::new(FaultClock {
            state: Mutex::new(state),
        })
    }

    /// Total operations admitted or failed so far, across all ops.
    pub fn total_ops(&self) -> u64 {
        self.state.lock().total
    }

    /// Operations of each kind seen so far, as `(reads, writes, syncs)`.
    pub fn ops_seen(&self) -> (u64, u64, u64) {
        let s = self.state.lock();
        (s.seen[0], s.seen[1], s.seen[2])
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Number of bit-rot faults injected so far.
    pub fn rotted(&self) -> u64 {
        self.state.lock().rotted
    }

    /// Whether the clock has crashed.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Crashes the clock now, as a scheduled [`FaultKind::Crash`] would:
    /// every device on it rolls back to its last successful sync, and
    /// every later operation fails with [`DeviceError::Crashed`].
    pub fn crash_now(&self) {
        let mut s = self.state.lock();
        if !s.crashed {
            s.crash();
        }
    }

    /// The writes the crash rolled back on `devices` (the devices the
    /// clock's [`FaultDevice`]s wrap), in issue order, each naming its
    /// device by its index in `devices`. Each device holds its image as
    /// of its last successful sync; these writes were pending on top of
    /// it, and any subset of them may have reached the media. Empty
    /// before the clock crashes.
    ///
    /// # Panics
    ///
    /// If a rolled-back write landed on a device `devices` does not list:
    /// its images would silently lose that write.
    pub fn rolled_back(&self, devices: &[Arc<dyn Device>]) -> Vec<TraceOp> {
        let s = self.state.lock();
        if !s.crashed {
            return Vec::new();
        }
        let op = |entry: &JournalEntry| {
            let device = devices.iter().position(|d| Arc::ptr_eq(d, &entry.dev));
            let device = device.expect("every device the crash rolled back is listed");
            let (offset, data) = (entry.offset, entry.new.clone());
            let kind = TraceOpKind::Write { offset, data };
            TraceOp {
                device: device as u32,
                kind,
            }
        };
        s.journal.iter().map(op).collect()
    }
}

/// Flips one byte of `buf`, picked by `salt`. The corruption the
/// [`FaultKind::BitRot`] fault applies: a single flipped byte, enough to
/// fail any honest checksum while staying cheap to inject.
fn rot_buf(buf: &mut [u8], salt: u64) {
    if !buf.is_empty() {
        let i = (salt % buf.len() as u64) as usize;
        buf[i] ^= 0xA5;
    }
}

/// A [`Device`] wrapper that injects the faults of its [`FaultClock`].
///
/// Writes pass through to the inner device immediately. An injected
/// failure is fail-stop: a failed `write_at` writes nothing, a failed
/// `sync` flushes nothing (and so protects nothing). The write that
/// crosses the clock's byte budget is cut at the budget, pends like any
/// other, and crashes the clock. `len` and `set_len` never inject faults
/// but do fail once the clock has crashed; a `set_len` is not rolled back.
///
/// After the crash every operation fails with [`DeviceError::Crashed`];
/// the *inner* device then holds its image as of its last successful
/// sync, and [`FaultClock::rolled_back`] names the writes that were
/// pending on it.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rvm_storage::{CrashPlan, Device, DeviceError, FaultDevice, MemDevice, TraceOpKind};
///
/// let inner = Arc::new(MemDevice::with_len(8));
/// let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(6));
/// dev.write_at(0, &[1, 2, 3, 4]).unwrap();
/// dev.sync().unwrap();
/// // This write crosses the 6-byte budget: it is cut to its first 2 bytes.
/// let err = dev.write_at(4, &[5, 6, 7, 8]).unwrap_err();
/// assert!(matches!(err, DeviceError::Crashed));
/// assert_eq!(inner.snapshot(), [1, 2, 3, 4, 0, 0, 0, 0]);
/// let pending = dev.clock().rolled_back(&[inner as Arc<dyn Device>]);
/// let data = vec![5, 6];
/// assert_eq!(pending[0].kind, TraceOpKind::Write { offset: 4, data });
/// ```
pub struct FaultDevice {
    inner: Arc<dyn Device>,
    clock: Arc<FaultClock>,
}

impl FaultDevice {
    /// Wraps `inner` with a clock of its own that crashes by `plan`.
    pub fn new(inner: Arc<dyn Device>, plan: CrashPlan) -> Self {
        let clock = FaultClock::with_state(ClockState {
            after_bytes: plan.after_bytes,
            ..ClockState::new(Vec::new())
        });
        Self::with_clock(inner, clock)
    }

    /// Wraps `inner` with a plan that never fires, useful for recording the
    /// total bytes a scenario writes before replaying it with crash points.
    pub fn recording(inner: Arc<dyn Device>) -> Self {
        Self::new(inner, CrashPlan::lose_unsynced_at(u64::MAX))
    }

    /// Wraps `inner` with an existing (possibly shared) clock.
    pub fn with_clock(inner: Arc<dyn Device>, clock: Arc<FaultClock>) -> Self {
        FaultDevice { inner, clock }
    }

    /// Total bytes written through this device's clock so far — through
    /// this device alone unless the clock is shared.
    pub fn bytes_written(&self) -> u64 {
        self.clock.state.lock().bytes_written
    }

    /// Returns `true` once the clock has crashed.
    pub fn has_crashed(&self) -> bool {
        self.clock.has_crashed()
    }

    /// The fault clock driving this device.
    pub fn clock(&self) -> Arc<FaultClock> {
        Arc::clone(&self.clock)
    }
}

impl Device for FaultDevice {
    fn len(&self) -> Result<u64> {
        self.clock.state.lock().alive()?;
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let admitted = self.clock.state.lock().admit(FaultOp::Read)?;
        self.inner.read_at(offset, buf)?;
        if let Admitted::Rot { salt } = admitted {
            rot_buf(buf, salt);
        }
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        // The clock stays locked through the write, so a crash settles
        // every device on it with no write in flight.
        let mut s = self.clock.state.lock();
        let mut rotted;
        let data = match s.admit(FaultOp::Write)? {
            Admitted::Clean => data,
            Admitted::Rot { salt } => {
                // Rot on a write persists corrupted bytes on the media.
                rotted = data.to_vec();
                rot_buf(&mut rotted, salt);
                &rotted
            }
        };
        let remaining = s.after_bytes.saturating_sub(s.bytes_written);
        let crosses = data.len() as u64 > remaining;
        let data = &data[..(data.len() as u64).min(remaining) as usize];
        if !data.is_empty() {
            let mut old = vec![0u8; data.len()];
            self.inner.read_at(offset, &mut old)?;
            self.inner.write_at(offset, data)?;
            s.journal.push(JournalEntry {
                dev: Arc::clone(&self.inner),
                offset,
                old,
                new: data.to_vec(),
            });
            s.bytes_written += data.len() as u64;
        }

        if crosses || s.bytes_written >= s.after_bytes {
            return Err(s.crash());
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let mut s = self.clock.state.lock();
        // Rot on a sync does nothing — there is no data to corrupt.
        s.admit(FaultOp::Sync)?;
        // A failure propagates *without* touching the journal: the barrier
        // did not happen, so unsynced writes stay at risk.
        self.inner.sync()?;
        s.journal
            .retain(|entry| !Arc::ptr_eq(&entry.dev, &self.inner));
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.clock.state.lock().alive()?;
        self.inner.set_len(len)
    }

    // read_verified deliberately stays the default (read then check) so an
    // injected rot is *visible* to the caller's checksum — that is the
    // whole point of the fault.

    fn replica_health(&self) -> Option<(usize, usize)> {
        self.inner.replica_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    fn image(dev: &Arc<MemDevice>) -> Vec<u8> {
        dev.snapshot()
    }

    /// The writes `dev`'s clock rolled back on `inner`, as `(offset, data)`.
    fn rolled_back(dev: &FaultDevice, inner: &Arc<MemDevice>) -> Vec<(u64, Vec<u8>)> {
        let ops = dev.clock().rolled_back(&[inner.clone() as Arc<dyn Device>]);
        let write = |op: TraceOp| match op.kind {
            TraceOpKind::Write { offset, data } => (offset, data),
            kind => panic!("a clock rolls back writes only, not {kind:?}"),
        };
        ops.into_iter().map(write).collect()
    }

    #[test]
    fn recording_never_crashes() {
        let inner = Arc::new(MemDevice::with_len(1024));
        let dev = FaultDevice::recording(inner);
        for i in 0..100 {
            dev.write_at(i, &[i as u8]).unwrap();
        }
        assert_eq!(dev.bytes_written(), 100);
        assert!(!dev.has_crashed());
    }

    #[test]
    fn torn_write_keeps_prefix() {
        // The write that crosses the budget pends cut at it.
        let inner = Arc::new(MemDevice::with_len(8));
        let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(3));
        let err = dev.write_at(0, &[1, 2, 3, 4, 5]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        assert_eq!(image(&inner), vec![0; 8]);
        assert_eq!(rolled_back(&dev, &inner), vec![(0, vec![1, 2, 3])]);
    }

    #[test]
    fn torn_write_keeps_earlier_writes_in_order() {
        let inner = Arc::new(MemDevice::with_len(16));
        let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(6));
        dev.write_at(0, &[1; 4]).unwrap();
        // Crossing write: 2 bytes of budget remain, so it pends as its
        // first 2 bytes, behind the write before it.
        let err = dev.write_at(4, &[2; 4]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        let pending = vec![(0, vec![1; 4]), (4, vec![2; 2])];
        assert_eq!(rolled_back(&dev, &inner), pending);
    }

    #[test]
    fn exact_budget_crashes_after_full_write() {
        let inner = Arc::new(MemDevice::with_len(8));
        let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(4));
        let err = dev.write_at(0, &[1, 2, 3, 4]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        assert_eq!(rolled_back(&dev, &inner), vec![(0, vec![1, 2, 3, 4])]);
    }

    #[test]
    fn lost_mode_rolls_back_to_last_sync() {
        let inner = Arc::new(MemDevice::with_len(8));
        let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(6));
        dev.write_at(0, &[1, 1]).unwrap();
        dev.sync().unwrap();
        dev.write_at(2, &[2, 2]).unwrap();
        // Crossing the budget: both unsynced writes must vanish, and the
        // clock hands both out in issue order, the second cut at the
        // budget.
        let err = dev.write_at(4, &[3, 3, 3]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        assert_eq!(image(&inner), vec![1, 1, 0, 0, 0, 0, 0, 0]);
        let pending = vec![(2, vec![2, 2]), (4, vec![3, 3])];
        assert_eq!(rolled_back(&dev, &inner), pending);
    }

    #[test]
    fn lost_mode_handles_overlapping_writes() {
        let inner = Arc::new(MemDevice::with_len(4));
        // The budget counts every byte written, including pre-sync ones:
        // 4 + 2 + 2 = 8, so the ninth byte (in the final write) crashes.
        let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(9));
        dev.write_at(0, &[1, 1, 1, 1]).unwrap();
        dev.sync().unwrap();
        dev.write_at(0, &[2, 2]).unwrap();
        dev.write_at(1, &[3, 3]).unwrap();
        let err = dev.write_at(0, &[4, 4]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        assert_eq!(image(&inner), vec![1, 1, 1, 1]);
    }

    #[test]
    fn all_operations_fail_after_crash() {
        let inner = Arc::new(MemDevice::with_len(4));
        let dev = FaultDevice::new(inner, CrashPlan::lose_unsynced_at(0));
        assert!(dev.write_at(0, &[1]).is_err());
        assert!(dev.has_crashed());
        assert!(matches!(
            dev.read_at(0, &mut [0]),
            Err(DeviceError::Crashed)
        ));
        assert!(matches!(dev.sync(), Err(DeviceError::Crashed)));
        assert!(matches!(dev.len(), Err(DeviceError::Crashed)));
        assert!(matches!(dev.set_len(8), Err(DeviceError::Crashed)));
    }

    #[test]
    fn sync_makes_writes_durable_in_lost_mode() {
        let inner = Arc::new(MemDevice::with_len(4));
        let dev = FaultDevice::new(inner.clone(), CrashPlan::lose_unsynced_at(3));
        dev.write_at(0, &[5, 5]).unwrap();
        dev.sync().unwrap();
        let err = dev.write_at(2, &[6, 6]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        // The synced bytes survive; the post-sync write is rolled back even
        // though one of its bytes was within budget.
        assert_eq!(image(&inner), vec![5, 5, 0, 0]);
        assert_eq!(rolled_back(&dev, &inner), vec![(2, vec![6])]);
    }

    #[test]
    fn devices_with_plans_of_their_own_crash_independently() {
        // One plan per device, as a crash check that gives each device
        // role its own budget does: a crash on one device neither stops
        // nor settles the other.
        let inner_a = Arc::new(MemDevice::with_len(4));
        let inner_b = Arc::new(MemDevice::with_len(4));
        let a = FaultDevice::new(inner_a.clone(), CrashPlan::lose_unsynced_at(3));
        let b = FaultDevice::new(inner_b.clone(), CrashPlan::lose_unsynced_at(8));
        b.write_at(0, &[5, 5]).unwrap();
        a.write_at(0, &[6, 6]).unwrap();
        let err = a.write_at(2, &[7, 7]).unwrap_err();
        assert!(matches!(err, DeviceError::Crashed));
        assert_eq!(image(&inner_a), vec![0; 4]);
        assert!(!b.has_crashed());
        assert_eq!(image(&inner_b), vec![5, 5, 0, 0], "b is unsettled");
        let pending = vec![(0, vec![6, 6]), (2, vec![7])];
        assert_eq!(rolled_back(&a, &inner_a), pending, "a rolled back its own");
        b.write_at(2, &[8, 8]).unwrap();
        b.sync().unwrap();
        assert_eq!((a.bytes_written(), b.bytes_written()), (3, 4));
        assert_eq!(image(&inner_b), vec![5, 5, 8, 8]);
    }
}
