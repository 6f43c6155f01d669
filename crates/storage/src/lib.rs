//! Storage device abstraction for RVM.
//!
//! The paper (§3.3) lets a log or external data segment live in "a Unix file
//! or on a raw disk partition", with permanence resting on the correct
//! implementation of `fsync`. This crate captures exactly that contract as
//! the [`Device`] trait, plus these implementations:
//!
//! * [`FileDevice`] — a real file, synced with `fdatasync`;
//! * [`MemDevice`] — an in-memory image, handy for tests and simulation;
//! * [`FaultDevice`] — the one fault-injection wrapper, driven by a
//!   [`FaultClock`] that several devices may share: a machine crash
//!   (after a byte budget or the Nth operation; writes since the last
//!   successful `sync` are rolled back and handed out, for `rvm-images`
//!   to enumerate what else the crash may have kept) and
//!   flaky hardware (the Nth read/write/sync fails with a transient or
//!   permanent [`DeviceError::Injected`], or silently rots, on an explicit
//!   or seeded schedule). This is the engine behind the crash matrix, the
//!   transient-fault and crash-during-recovery sweeps, and the benchmark's
//!   crash check.
//! * [`TraceDevice`] — a wrapper that records every mutation into a shared
//!   [`TraceRecorder`] op-log, in global order across devices. This is the
//!   input to the `rvm-crashmc` crash-state model checker, whose images
//!   come from `rvm-images`.
//!
//! The `simdisk` crate provides a further implementation that charges seek,
//! rotation and transfer latency to a virtual clock.

mod device;
mod error;
mod fault;
mod file;
mod mem;
mod mirror;
mod null;
mod trace;

pub use device::{Device, IoToken, SharedDevice, VerifiedRead};
pub use error::{DeviceError, FaultOp, Result};
pub use fault::{xorshift64, CrashPlan, FaultClock, FaultDevice, FaultKind, FlakyFault};
pub use file::FileDevice;
pub use mem::MemDevice;
pub use mirror::MirrorDevice;
pub use null::NullDevice;
pub use trace::{TraceDevice, TraceOp, TraceOpKind, TraceRecorder};

/// The unit tests of `FaultClock` schedules.
#[cfg(test)]
mod flaky;
