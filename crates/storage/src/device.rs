//! The [`Device`] trait.

use std::io;
use std::sync::Arc;

use crate::{DeviceError, Result};

/// Outcome of a [`Device::read_verified`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifiedRead {
    /// The data read passed verification on the first attempt.
    Clean,
    /// Verified data was found, but only after at least one copy failed
    /// verification and was repaired (mirrored devices: read-repair of the
    /// losing replica).
    Repaired,
    /// No copy of the data passed verification; the buffer holds the
    /// best-effort (unverified) bytes. The caller escalates — e.g. to log
    /// reconstruction or quarantine.
    Corrupt,
}

impl VerifiedRead {
    /// `true` unless the read came back [`VerifiedRead::Corrupt`].
    pub fn is_verified(self) -> bool {
        !matches!(self, VerifiedRead::Corrupt)
    }
}

/// Completion token for an asynchronous device operation submitted with
/// [`Device::submit_write`] or [`Device::submit_sync`].
///
/// A token is either *inline* — the operation already ran synchronously at
/// submit time and the token carries its result, which [`Device::wait`]
/// simply returns — or *pending*, carrying a device-assigned completion id
/// that the submitting device resolves in its own `wait`/`poll` overrides.
/// The inline form is what the default trait methods produce, so every
/// existing [`Device`] implementation is async-capable (just without
/// overlap) for free; devices with a real asynchronous path (a thread-backed
/// file device, the simulated disk's overlapped cost model) return pending
/// tokens.
///
/// Tokens are not `Clone`: completion is consumed exactly once by `wait`.
#[derive(Debug)]
pub struct IoToken {
    id: u64,
    inline: Option<Result<()>>,
}

impl IoToken {
    /// A token for an operation that already completed at submit time with
    /// `result`. [`Device::wait`]'s default returns the stored result.
    pub fn inline(result: Result<()>) -> Self {
        IoToken {
            id: 0,
            inline: Some(result),
        }
    }

    /// A token for an in-flight operation identified by the submitting
    /// device's completion id `id`. The device that minted it must override
    /// [`Device::wait`] (and usually [`Device::poll`]) to resolve it.
    pub fn pending(id: u64) -> Self {
        IoToken { id, inline: None }
    }

    /// The completion id for pending tokens (0 for inline tokens).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `true` if the operation completed at submit time and the token
    /// carries its result.
    pub fn is_inline(&self) -> bool {
        self.inline.is_some()
    }

    /// Consumes the token, returning the inline result if there is one.
    /// Wrappers call this first and forward pending tokens to their inner
    /// device.
    pub fn into_inline(self) -> std::result::Result<Result<()>, IoToken> {
        match self.inline {
            Some(r) => Ok(r),
            None => Err(self),
        }
    }
}

/// A byte-addressable, synchronizable storage device.
///
/// This is the paper's notion of "a Unix file or a raw disk partition"
/// (§3.3): positional reads and writes plus a synchronous flush whose return
/// is the *only* durability point. RVM's permanence guarantee rests entirely
/// on the contract of [`Device::sync`]:
///
/// * data from a `write_at` that completed *before* the last successful
///   `sync` must survive a crash;
/// * data written *after* the last `sync` may be lost, and a single write
///   may be torn (a prefix persists).
///
/// Implementations must be safe to share across threads; RVM serializes
/// conflicting accesses itself but may issue reads concurrently.
pub trait Device: Send + Sync {
    /// Returns the current length of the device in bytes.
    ///
    /// This is the medium's answer, not a remembered one: a device may
    /// be grown through another handle while this one is open, and
    /// `if dev.len()? < n { dev.set_len(n)? }` must never shrink it. An
    /// implementation may remember its length to bounds-check reads and
    /// writes (see [`FileDevice`](crate::FileDevice)) as long as it asks
    /// the medium again before refusing an access. Nothing but
    /// [`Device::set_len`] on this handle may shrink a device in use.
    fn len(&self) -> Result<u64>;

    /// Returns `true` if the device has zero length.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Reads `buf.len()` bytes starting at `offset`, filling `buf` exactly.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes all of `data` starting at `offset`.
    ///
    /// Writes beyond the end of the device must fail with
    /// [`DeviceError::OutOfBounds`](crate::DeviceError::OutOfBounds)
    /// carrying the device's true length; devices are sized explicitly
    /// with [`Device::set_len`].
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;

    /// Forces all completed writes to stable storage.
    fn sync(&self) -> Result<()>;

    /// Resizes the device, zero-filling any extension.
    fn set_len(&self, len: u64) -> Result<()>;

    /// Reads `buf.len()` bytes at `offset` and checks them against
    /// `verify` (typically a checksum predicate supplied by the caller —
    /// the device itself holds no checksums).
    ///
    /// The default implementation is a plain read followed by the check.
    /// Devices holding redundant copies (see
    /// [`MirrorDevice`](crate::MirrorDevice)) override it to try each copy
    /// until one verifies, repairing the losers in place (read-repair).
    /// Wrappers should forward so the redundancy underneath stays visible.
    fn read_verified(
        &self,
        offset: u64,
        buf: &mut [u8],
        verify: &(dyn Fn(&[u8]) -> bool + Sync),
    ) -> Result<VerifiedRead> {
        self.read_at(offset, buf)?;
        Ok(if verify(buf) {
            VerifiedRead::Clean
        } else {
            VerifiedRead::Corrupt
        })
    }

    /// Replica health as `(alive, total)` for devices with internal
    /// redundancy; `None` for plain devices. Wrappers forward.
    fn replica_health(&self) -> Option<(usize, usize)> {
        None
    }

    /// Submits an asynchronous write of `data` at `offset`, returning a
    /// completion token for [`Device::wait`].
    ///
    /// The durability contract is unchanged: the write is *completed* (in
    /// the [`Device::sync`] sense) only once `wait` on its token returns.
    /// A sync submitted after a write covers that write exactly when the
    /// write was submitted first on the same device.
    ///
    /// The default runs the write synchronously and returns an inline
    /// token, so plain devices need no override. Fault-injecting wrappers
    /// evaluate their schedule here, at submit, but deliver the error at
    /// `wait` — mirroring real completion-queue semantics.
    fn submit_write(&self, offset: u64, data: Vec<u8>) -> IoToken {
        IoToken::inline(self.write_at(offset, &data))
    }

    /// Submits an asynchronous durability barrier covering every write
    /// submitted (or issued with [`Device::write_at`]) before this call,
    /// returning a completion token. The barrier has *taken effect* only
    /// once [`Device::wait`] on the token returns `Ok`.
    ///
    /// The default runs [`Device::sync`] synchronously and returns an
    /// inline token.
    fn submit_sync(&self) -> IoToken {
        IoToken::inline(self.sync())
    }

    /// Returns `true` once the operation behind `token` has completed
    /// (successfully or not); `wait` will then not block. Inline tokens
    /// are always complete.
    fn poll(&self, token: &IoToken) -> bool {
        let _ = token;
        true
    }

    /// Blocks until the operation behind `token` completes and returns its
    /// result. Must be called on the same device that minted the token.
    ///
    /// The default resolves inline tokens; devices that mint pending
    /// tokens must override it.
    fn wait(&self, token: IoToken) -> Result<()> {
        // A pending token reaches the default only when a device overrode
        // `submit_*` without overriding `wait`. Nothing here can tell
        // whether that operation ever completed, so it must not be
        // acknowledged: reporting `Ok` for an unresolved force is a lost
        // commit.
        token.into_inline().unwrap_or_else(|pending| {
            Err(DeviceError::Io(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "pending I/O token {} reached a device that does not override `wait`",
                    pending.id()
                ),
            )))
        })
    }
}

/// A reference-counted trait object for any device.
pub type SharedDevice = Arc<dyn Device>;

impl<D: Device + ?Sized> Device for Arc<D> {
    fn len(&self) -> Result<u64> {
        (**self).len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        (**self).write_at(offset, data)
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        (**self).set_len(len)
    }

    fn read_verified(
        &self,
        offset: u64,
        buf: &mut [u8],
        verify: &(dyn Fn(&[u8]) -> bool + Sync),
    ) -> Result<VerifiedRead> {
        (**self).read_verified(offset, buf, verify)
    }

    fn replica_health(&self) -> Option<(usize, usize)> {
        (**self).replica_health()
    }

    fn submit_write(&self, offset: u64, data: Vec<u8>) -> IoToken {
        (**self).submit_write(offset, data)
    }

    fn submit_sync(&self) -> IoToken {
        (**self).submit_sync()
    }

    fn poll(&self, token: &IoToken) -> bool {
        (**self).poll(token)
    }

    fn wait(&self, token: IoToken) -> Result<()> {
        (**self).wait(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    /// Mints pending tokens for its forces but inherits the default
    /// `wait`, which has no way to resolve them.
    struct ForgetsWait(MemDevice);

    impl Device for ForgetsWait {
        fn len(&self) -> Result<u64> {
            self.0.len()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.0.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.0.write_at(offset, data)
        }
        fn sync(&self) -> Result<()> {
            self.0.sync()
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.0.set_len(len)
        }
        fn submit_sync(&self) -> IoToken {
            IoToken::pending(7)
        }
    }

    #[test]
    fn default_wait_refuses_a_pending_token_it_cannot_resolve() {
        let dev = ForgetsWait(MemDevice::with_len(4096));
        // Inline tokens (the inherited `submit_write`) still resolve.
        dev.wait(dev.submit_write(0, vec![1; 8])).unwrap();
        // The never-completed force must not be acknowledged.
        let err = dev.wait(dev.submit_sync()).unwrap_err();
        assert!(!err.is_transient(), "retrying cannot resolve it: {err}");
        assert!(err.to_string().contains("pending I/O token 7"), "{err}");
    }
}
