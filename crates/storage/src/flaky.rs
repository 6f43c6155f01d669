//! A device wrapper that injects faults on a deterministic schedule.
//!
//! [`FlakyDevice`] complements [`FaultDevice`](crate::FaultDevice): where
//! `FaultDevice` models a single planned crash with torn writes and lost
//! unsynced data, `FlakyDevice` models *flaky* hardware — the Nth read,
//! write, or sync fails with a transient or permanent
//! [`DeviceError::Injected`], optionally for a run of K consecutive
//! operations before healing. Schedules are either explicit
//! ([`FlakyFault`] lists) or pseudo-random from a seed, so every failure
//! scenario replays bit-for-bit.
//!
//! The fault schedule lives in a shared [`FaultClock`] so several wrapped
//! devices (e.g. a log device plus every segment device resolved during
//! recovery) can count operations against one global sequence — that is
//! what lets a crash-matrix sweep place a crash after the K-th device
//! operation *anywhere* in the system.

use std::sync::{Arc, Mutex};

use crate::device::Device;
use crate::error::{DeviceError, FaultOp, Result};
use crate::fault::UnsyncedFate;

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

#[derive(Debug)]
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
    seeded: bool,
    crashed: bool,
    /// Number of faults injected so far (all kinds, bit rot included).
    injected: u64,
    /// Number of bit-rot faults injected so far.
    rotted: u64,
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

/// Shared fault schedule; see the [module docs](self).
#[derive(Debug)]
pub struct FaultClock {
    state: Mutex<ClockState>,
}

impl FaultClock {
    /// A clock with an explicit fault schedule.
    pub fn new(faults: Vec<FlakyFault>) -> Arc<Self> {
        Arc::new(FaultClock {
            state: Mutex::new(ClockState {
                faults,
                seen: [0; 3],
                total: 0,
                rng: 0,
                per_mille: 0,
                rot_per_mille: 0,
                seeded: false,
                crashed: false,
                injected: 0,
                rotted: 0,
            }),
        })
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
        Arc::new(FaultClock {
            state: Mutex::new(ClockState {
                faults: Vec::new(),
                seen: [0; 3],
                total: 0,
                rng: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
                per_mille: fail_per_mille.min(1000),
                rot_per_mille: rot_per_mille.min(1000),
                seeded: true,
                crashed: false,
                injected: 0,
                rotted: 0,
            }),
        })
    }

    /// Total operations admitted or failed so far, across all ops.
    pub fn total_ops(&self) -> u64 {
        self.state.lock().unwrap().total
    }

    /// Operations of each kind seen so far, as `(reads, writes, syncs)`.
    pub fn ops_seen(&self) -> (u64, u64, u64) {
        let s = self.state.lock().unwrap();
        (s.seen[0], s.seen[1], s.seen[2])
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().unwrap().injected
    }

    /// Number of bit-rot faults injected so far.
    pub fn rotted(&self) -> u64 {
        self.state.lock().unwrap().rotted
    }

    /// Whether the clock has hit a crash fault.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Record one operation of kind `op` and decide its fate.
    fn admit(&self, op: FaultOp) -> Result<Admitted> {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return Err(DeviceError::Crashed);
        }
        s.seen[op_index(op)] += 1;
        s.total += 1;

        let mut verdict: Option<FaultKind> = None;
        for f in &s.faults {
            let n = match f.op {
                Some(fop) if fop == op => s.seen[op_index(op)],
                Some(_) => continue,
                None => s.total,
            };
            if n >= f.nth && n - f.nth < f.count {
                verdict = Some(f.kind);
                break;
            }
        }
        if verdict.is_none() && s.seeded && s.per_mille > 0 {
            // xorshift64*
            let mut x = s.rng;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            s.rng = x;
            let roll = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) % 1000;
            if (roll as u32) < s.per_mille {
                verdict = Some(FaultKind::Transient);
            }
        }
        if verdict.is_none() && s.seeded && s.rot_per_mille > 0 {
            // A second, independent roll for the rot channel. Guarded so
            // rot-free seeded clocks keep their historical rng stream.
            let mut x = s.rng;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            s.rng = x;
            let roll = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) % 1000;
            if (roll as u32) < s.rot_per_mille {
                verdict = Some(FaultKind::BitRot);
            }
        }

        match verdict {
            None => Ok(Admitted::Clean),
            Some(kind) => {
                s.injected += 1;
                match kind {
                    FaultKind::Transient => Err(DeviceError::Injected {
                        op,
                        transient: true,
                    }),
                    FaultKind::Permanent => Err(DeviceError::Injected {
                        op,
                        transient: false,
                    }),
                    FaultKind::Crash => {
                        s.crashed = true;
                        Err(DeviceError::Crashed)
                    }
                    FaultKind::BitRot => {
                        s.rotted += 1;
                        // Salt the corruption with the op count so each
                        // rotted operation flips a different byte,
                        // deterministically per schedule.
                        Ok(Admitted::Rot { salt: s.total })
                    }
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct CrashModelState {
    /// `(offset, old, new)` of every write since the last *successful*
    /// sync — a failed sync is not a durability barrier, so it must not
    /// clear this journal.
    journal: Vec<(u64, Vec<u8>, Vec<u8>)>,
    /// Whether the configured fate has already been applied.
    settled: bool,
}

/// A [`Device`] wrapper that injects faults per a [`FaultClock`] schedule.
///
/// Failed operations are fail-stop: a failed `write_at` writes nothing,
/// a failed `sync` flushes nothing. (Torn writes are `FaultDevice`'s
/// department.) `len`, `is_empty`, and `set_len` never inject faults but
/// do fail once the clock has crashed.
///
/// ## Crash model
///
/// By default a [`FaultKind::Crash`] fault freezes the inner image as-is
/// — every write issued before the crash persists, synced or not
/// ([`UnsyncedFate::KeptInOrder`]). [`FlakyDevice::crash_model`]
/// configures the fate of *unsynced* writes instead, with the same
/// semantics as [`FaultDevice`](crate::FaultDevice): the wrapper journals
/// writes and clears the journal only on a **successful** `sync`. An
/// injected sync failure leaves the journal intact, so a later crash
/// still rolls those writes back — a failed sync never acts as a silent
/// durability barrier.
#[derive(Debug)]
pub struct FlakyDevice<D: ?Sized> {
    inner: Arc<D>,
    clock: Arc<FaultClock>,
    crash_model: Option<UnsyncedFate>,
    model_state: Mutex<CrashModelState>,
}

impl<D: Device + ?Sized> FlakyDevice<D> {
    /// Wrap `inner` with an explicit fault schedule.
    pub fn new(inner: Arc<D>, faults: Vec<FlakyFault>) -> Self {
        Self::with_clock(inner, FaultClock::new(faults))
    }

    /// Wrap `inner` with a seeded pseudo-random schedule; see
    /// [`FaultClock::seeded`].
    pub fn seeded(inner: Arc<D>, seed: u64, fail_per_mille: u32) -> Self {
        Self::with_clock(inner, FaultClock::seeded(seed, fail_per_mille))
    }

    /// Wrap `inner` with an existing (possibly shared) clock.
    pub fn with_clock(inner: Arc<D>, clock: Arc<FaultClock>) -> Self {
        FlakyDevice {
            inner,
            clock,
            crash_model: None,
            model_state: Mutex::new(CrashModelState::default()),
        }
    }

    /// Configure the fate of unsynced writes when the clock crashes; see
    /// the [crash model](#crash-model) section.
    ///
    /// `TornWrite` degrades to `KeptInOrder` here: injected failures are
    /// fail-stop (a failed write writes nothing), so there is never an
    /// in-flight write to tear.
    pub fn crash_model(mut self, fate: UnsyncedFate) -> Self {
        self.crash_model = Some(fate);
        self
    }

    /// The fault clock driving this device.
    pub fn clock(&self) -> Arc<FaultClock> {
        Arc::clone(&self.clock)
    }

    /// The wrapped device.
    pub fn inner(&self) -> Arc<D> {
        Arc::clone(&self.inner)
    }

    /// Applies the configured unsynced-write fate to the inner image if
    /// the shared clock has crashed (idempotent). Called automatically by
    /// every operation that observes the crash; tests that inspect the
    /// inner device directly call it to make sure the image is settled
    /// even when the crash fired on a *different* device sharing the
    /// clock.
    pub fn settle_crash(&self) {
        if !self.clock.has_crashed() {
            return;
        }
        let Some(fate) = self.crash_model else {
            return;
        };
        let mut s = self.model_state.lock().unwrap();
        if s.settled {
            return;
        }
        s.settled = true;
        match fate {
            UnsyncedFate::KeptInOrder | UnsyncedFate::TornWrite { .. } => {}
            UnsyncedFate::Lost => {
                for (offset, old, _) in s.journal.iter().rev() {
                    // lint:allow(device-fallibility): crash simulation builds the torn image
                    let _ = self.inner.write_at(*offset, old);
                }
                s.journal.clear();
            }
            UnsyncedFate::ArbitrarySubset { seed } => {
                let mut rng = if seed == 0 { 0x9E3779B97F4A7C15 } else { seed };
                let keep: Vec<bool> = s
                    .journal
                    .iter()
                    .map(|_| {
                        rng ^= rng >> 12;
                        rng ^= rng << 25;
                        rng ^= rng >> 27;
                        rng.wrapping_mul(0x2545F4914F6CDD1D) >> 63 == 1
                    })
                    .collect();
                for (offset, old, _) in s.journal.iter().rev() {
                    // lint:allow(device-fallibility): crash simulation builds the torn image
                    let _ = self.inner.write_at(*offset, old);
                }
                for ((offset, _, new), kept) in s.journal.iter().zip(&keep) {
                    if *kept {
                        // lint:allow(device-fallibility): crash simulation builds the torn image
                        let _ = self.inner.write_at(*offset, new);
                    }
                }
                s.journal.clear();
            }
        }
    }

    fn admit(&self, op: FaultOp) -> Result<Admitted> {
        let outcome = self.clock.admit(op);
        if matches!(outcome, Err(DeviceError::Crashed)) {
            self.settle_crash();
        }
        outcome
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

impl<D: Device + ?Sized> Device for FlakyDevice<D> {
    fn len(&self) -> Result<u64> {
        if self.clock.has_crashed() {
            self.settle_crash();
            return Err(DeviceError::Crashed);
        }
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let admitted = self.admit(FaultOp::Read)?;
        self.inner.read_at(offset, buf)?;
        if let Admitted::Rot { salt } = admitted {
            rot_buf(buf, salt);
        }
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let admitted = self.admit(FaultOp::Write)?;
        let rotted;
        let buf: &[u8] = if let Admitted::Rot { salt } = admitted {
            // Rot on a write persists corrupted bytes on the media.
            let mut copy = buf.to_vec();
            rot_buf(&mut copy, salt);
            rotted = copy;
            &rotted
        } else {
            buf
        };
        if self.crash_model.is_some() {
            let mut old = vec![0u8; buf.len()];
            self.inner.read_at(offset, &mut old)?;
            self.inner.write_at(offset, buf)?;
            self.model_state
                .lock()
                .unwrap()
                .journal
                .push((offset, old, buf.to_vec()));
            Ok(())
        } else {
            self.inner.write_at(offset, buf)
        }
    }

    fn sync(&self) -> Result<()> {
        // An injected failure propagates *without* clearing the journal:
        // the barrier did not happen, so unsynced writes stay at risk.
        // Rot on a sync does nothing — there is no data to corrupt.
        self.admit(FaultOp::Sync)?;
        self.inner.sync()?;
        self.model_state.lock().unwrap().journal.clear();
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        if self.clock.has_crashed() {
            self.settle_crash();
            return Err(DeviceError::Crashed);
        }
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
    use crate::mem::MemDevice;

    fn dev(faults: Vec<FlakyFault>) -> FlakyDevice<MemDevice> {
        FlakyDevice::new(Arc::new(MemDevice::with_len(4096)), faults)
    }

    #[test]
    fn nth_write_fails_then_heals() {
        let d = dev(vec![FlakyFault::transient(FaultOp::Write, 2)]);
        d.write_at(0, b"one").unwrap();
        let err = d.write_at(0, b"two").unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Injected {
                op: FaultOp::Write,
                transient: true
            }
        ));
        // Failed write wrote nothing.
        let mut buf = [0u8; 3];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one");
        // Healed: the next write succeeds.
        d.write_at(0, b"two").unwrap();
        assert_eq!(d.clock().injected(), 1);
    }

    #[test]
    fn transient_run_heals_after_count() {
        let d = dev(vec![FlakyFault::transient_run(FaultOp::Sync, 1, 3)]);
        for _ in 0..3 {
            assert!(d.sync().unwrap_err().is_transient());
        }
        d.sync().unwrap();
        assert_eq!(d.clock().injected(), 3);
    }

    #[test]
    fn permanent_fault_never_heals() {
        let d = dev(vec![FlakyFault::permanent(FaultOp::Read, 1)]);
        let mut buf = [0u8; 1];
        for _ in 0..5 {
            let err = d.read_at(0, &mut buf).unwrap_err();
            assert!(!err.is_transient());
        }
        // Other ops unaffected.
        d.write_at(0, b"x").unwrap();
    }

    #[test]
    fn crash_after_total_ops_sticks() {
        let d = dev(vec![FlakyFault::crash_after_ops(3)]);
        let mut buf = [0u8; 1];
        d.write_at(0, b"a").unwrap();
        d.read_at(0, &mut buf).unwrap();
        assert!(matches!(d.sync().unwrap_err(), DeviceError::Crashed));
        assert!(d.clock().has_crashed());
        assert!(matches!(
            d.write_at(0, b"b").unwrap_err(),
            DeviceError::Crashed
        ));
        assert!(matches!(d.set_len(8192).unwrap_err(), DeviceError::Crashed));
    }

    #[test]
    fn shared_clock_counts_across_devices() {
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(2)]);
        let a = FlakyDevice::with_clock(Arc::new(MemDevice::with_len(4096)), Arc::clone(&clock));
        let b = FlakyDevice::with_clock(Arc::new(MemDevice::with_len(4096)), Arc::clone(&clock));
        a.write_at(0, b"x").unwrap();
        assert!(matches!(
            b.write_at(0, b"y").unwrap_err(),
            DeviceError::Crashed
        ));
        assert_eq!(clock.total_ops(), 2);
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed| {
            let d = FlakyDevice::seeded(Arc::new(MemDevice::with_len(4096)), seed, 300);
            let mut outcomes = Vec::new();
            for i in 0..64 {
                outcomes.push(d.write_at(i % 8, b"z").is_ok());
            }
            outcomes
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let d = FlakyDevice::seeded(Arc::new(MemDevice::with_len(4096)), 7, 1000);
        assert!(d.sync().unwrap_err().is_transient());
    }

    #[test]
    fn failed_sync_is_not_a_durability_barrier() {
        // Schedule: the first sync fails transiently, then a crash on the
        // 5th total op. With a Lost crash model, *every* write since the
        // last SUCCESSFUL sync must roll back — including writes issued
        // before the failed sync.
        let inner = Arc::new(MemDevice::with_len(8));
        let d = FlakyDevice::with_clock(
            Arc::clone(&inner),
            FaultClock::new(vec![
                FlakyFault::transient(FaultOp::Sync, 1),
                FlakyFault::crash_after_ops(5),
            ]),
        )
        .crash_model(UnsyncedFate::Lost);

        d.write_at(0, &[1, 1]).unwrap(); // op 1
        assert!(d.sync().unwrap_err().is_transient()); // op 2: failed sync
        d.write_at(2, &[2, 2]).unwrap(); // op 3
        d.write_at(4, &[3, 3]).unwrap(); // op 4
        assert!(matches!(
            d.write_at(6, &[4, 4]).unwrap_err(), // op 5: crash
            DeviceError::Crashed
        ));
        // All three completed writes vanish: the failed sync protected
        // nothing.
        assert_eq!(inner.snapshot(), vec![0; 8]);
    }

    #[test]
    fn successful_sync_protects_earlier_writes() {
        let inner = Arc::new(MemDevice::with_len(8));
        let d = FlakyDevice::with_clock(
            Arc::clone(&inner),
            FaultClock::new(vec![FlakyFault::crash_after_ops(4)]),
        )
        .crash_model(UnsyncedFate::Lost);

        d.write_at(0, &[1, 1]).unwrap(); // op 1
        d.sync().unwrap(); // op 2: real barrier
        d.write_at(2, &[2, 2]).unwrap(); // op 3
        assert!(matches!(
            d.sync().unwrap_err(), // op 4: crash
            DeviceError::Crashed
        ));
        assert_eq!(inner.snapshot(), vec![1, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn default_crash_model_keeps_unsynced_writes() {
        let inner = Arc::new(MemDevice::with_len(4));
        let d = FlakyDevice::with_clock(
            Arc::clone(&inner),
            FaultClock::new(vec![FlakyFault::crash_after_ops(2)]),
        );
        d.write_at(0, &[9, 9]).unwrap();
        assert!(d.write_at(2, &[8, 8]).is_err());
        assert_eq!(inner.snapshot(), vec![9, 9, 0, 0]);
    }

    #[test]
    fn crash_on_shared_clock_settles_on_next_operation() {
        // The crash fires on device A; device B's journal must still be
        // applied when B next observes the crash (or via settle_crash).
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(3)]);
        let inner_a = Arc::new(MemDevice::with_len(4));
        let inner_b = Arc::new(MemDevice::with_len(4));
        let a = FlakyDevice::with_clock(Arc::clone(&inner_a), Arc::clone(&clock))
            .crash_model(UnsyncedFate::Lost);
        let b = FlakyDevice::with_clock(Arc::clone(&inner_b), Arc::clone(&clock))
            .crash_model(UnsyncedFate::Lost);
        b.write_at(0, &[5, 5]).unwrap(); // op 1
        a.write_at(0, &[6, 6]).unwrap(); // op 2
        assert!(a.write_at(2, &[7, 7]).is_err()); // op 3: crash, A settles
        assert_eq!(inner_a.snapshot(), vec![0; 4]);
        // B has not run an op since the crash; settle it explicitly.
        b.settle_crash();
        assert_eq!(inner_b.snapshot(), vec![0; 4]);
    }

    #[test]
    fn bit_rot_corrupts_a_read_silently() {
        let d = dev(vec![FlakyFault::bit_rot(FaultOp::Read, 2)]);
        d.write_at(0, &[7u8; 16]).unwrap();
        let mut clean = [0u8; 16];
        d.read_at(0, &mut clean).unwrap(); // read 1: clean
        assert_eq!(clean, [7u8; 16]);
        let mut rotted = [0u8; 16];
        d.read_at(0, &mut rotted).unwrap(); // read 2: rotted, but Ok
        assert_ne!(rotted, [7u8; 16]);
        assert_eq!(rotted.iter().filter(|&&b| b != 7).count(), 1);
        assert_eq!(d.clock().rotted(), 1);
        assert_eq!(d.clock().injected(), 1);
        // Healed afterwards, and the media itself was never touched.
        d.read_at(0, &mut clean).unwrap();
        assert_eq!(clean, [7u8; 16]);
    }

    #[test]
    fn bit_rot_on_write_persists_corruption() {
        let inner = Arc::new(MemDevice::with_len(4096));
        let d = FlakyDevice::with_clock(
            Arc::clone(&inner),
            FaultClock::new(vec![FlakyFault::bit_rot(FaultOp::Write, 1)]),
        );
        d.write_at(0, &[3u8; 8]).unwrap(); // succeeds, but rots the media
        let mut buf = [0u8; 8];
        inner.read_at(0, &mut buf).unwrap();
        assert_ne!(buf, [3u8; 8]);
        assert_eq!(buf.iter().filter(|&&b| b != 3).count(), 1);
        assert_eq!(d.clock().rotted(), 1);
    }

    #[test]
    fn bit_rot_on_sync_is_harmless() {
        let d = dev(vec![FlakyFault::bit_rot(FaultOp::Sync, 1)]);
        d.write_at(0, b"ok").unwrap();
        d.sync().unwrap();
        let mut buf = [0u8; 2];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ok");
        assert_eq!(d.clock().rotted(), 1);
    }

    #[test]
    fn seeded_rot_storm_is_deterministic() {
        let run = |seed| {
            let clock = FaultClock::seeded_with_rot(seed, 50, 200);
            let d = FlakyDevice::with_clock(Arc::new(MemDevice::with_len(4096)), clock);
            let mut outcomes = Vec::new();
            for i in 0..128u64 {
                let mut buf = [0u8; 4];
                d.write_at(i % 64, &[i as u8; 4]).ok();
                outcomes.push(d.read_at(i % 64, &mut buf).map(|()| buf).ok());
            }
            (outcomes, d.clock().rotted(), d.clock().injected())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let (_, rotted, injected) = run(9);
        assert!(rotted > 0, "a 20% rot storm over 256 ops must rot");
        assert!(injected > rotted, "transient channel fires too");
    }

    #[test]
    fn rot_free_seeded_clock_keeps_its_stream() {
        // seeded() must behave identically to historical behavior: the
        // rot roll is skipped entirely when rot_per_mille == 0.
        let a = FlakyDevice::seeded(Arc::new(MemDevice::with_len(4096)), 42, 300);
        let b = {
            let clock = FaultClock::seeded_with_rot(42, 300, 0);
            FlakyDevice::with_clock(Arc::new(MemDevice::with_len(4096)), clock)
        };
        for i in 0..64 {
            assert_eq!(
                a.write_at(i % 8, b"z").is_ok(),
                b.write_at(i % 8, b"z").is_ok()
            );
        }
    }

    #[test]
    fn ops_seen_counts_per_kind() {
        let d = dev(vec![]);
        let mut buf = [0u8; 1];
        d.write_at(0, b"a").unwrap();
        d.write_at(1, b"b").unwrap();
        d.read_at(0, &mut buf).unwrap();
        d.sync().unwrap();
        assert_eq!(d.clock().ops_seen(), (1, 2, 1));
        assert_eq!(d.clock().total_ops(), 4);
    }
}
