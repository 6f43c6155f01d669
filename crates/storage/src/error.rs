//! Error type shared by all device implementations.

use std::fmt;
use std::io;

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// The device operation an injected fault fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A positional read.
    Read,
    /// A positional write.
    Write,
    /// A synchronous flush.
    Sync,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Sync => "sync",
        })
    }
}

/// An error from a storage device.
#[derive(Debug)]
pub enum DeviceError {
    /// An underlying operating-system I/O error.
    Io(io::Error),
    /// Access beyond the end of the device.
    OutOfBounds {
        /// Offset of the first byte of the rejected access.
        offset: u64,
        /// Length of the rejected access.
        len: u64,
        /// Current device length.
        device_len: u64,
    },
    /// The device hit its planned crash point (see
    /// [`FaultDevice`](crate::FaultDevice)); all subsequent operations fail
    /// with this error.
    Crashed,
    /// A fault injected by a [`FaultClock`](crate::FaultClock) schedule.
    Injected {
        /// The operation the fault fired on.
        op: FaultOp,
        /// Whether a retry of the same operation may succeed.
        transient: bool,
    },
}

impl DeviceError {
    /// Returns `true` if retrying the failed operation may succeed.
    ///
    /// This is the taxonomy a bounded retry policy keys on: injected
    /// transient faults and the retryable `io::ErrorKind`s are transient;
    /// out-of-bounds accesses, simulated crashes, permanent injected
    /// faults, and all other OS errors are not.
    pub fn is_transient(&self) -> bool {
        match self {
            DeviceError::Injected { transient, .. } => *transient,
            DeviceError::Io(err) => matches!(
                err.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            DeviceError::OutOfBounds { .. } | DeviceError::Crashed => false,
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Io(err) => write!(f, "device I/O error: {err}"),
            DeviceError::OutOfBounds {
                offset,
                len,
                device_len,
            } => write!(
                f,
                "access [{offset}, {}) out of bounds for device of length {device_len}",
                offset + len
            ),
            DeviceError::Crashed => write!(f, "device crashed (simulated)"),
            DeviceError::Injected { op, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "injected {kind} fault on {op}")
            }
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for DeviceError {
    fn from(err: io::Error) -> Self {
        DeviceError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = DeviceError::OutOfBounds {
            offset: 10,
            len: 4,
            device_len: 12,
        };
        assert_eq!(
            e.to_string(),
            "access [10, 14) out of bounds for device of length 12"
        );
        assert!(DeviceError::Crashed.to_string().contains("crashed"));
        let io_err = DeviceError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
    }

    #[test]
    fn transient_taxonomy() {
        assert!(DeviceError::Injected {
            op: FaultOp::Write,
            transient: true
        }
        .is_transient());
        assert!(!DeviceError::Injected {
            op: FaultOp::Sync,
            transient: false
        }
        .is_transient());
        assert!(DeviceError::from(io::Error::from(io::ErrorKind::Interrupted)).is_transient());
        assert!(!DeviceError::from(io::Error::other("boom")).is_transient());
        assert!(!DeviceError::Crashed.is_transient());
        assert!(!DeviceError::OutOfBounds {
            offset: 0,
            len: 1,
            device_len: 0
        }
        .is_transient());
        let e = DeviceError::Injected {
            op: FaultOp::Read,
            transient: true,
        };
        assert_eq!(e.to_string(), "injected transient fault on read");
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error as _;
        let e = DeviceError::from(io::Error::other("inner"));
        assert!(e.source().is_some());
        assert!(DeviceError::Crashed.source().is_none());
    }
}
