//! Operation tracing for crash-state enumeration.
//!
//! [`TraceDevice`] wraps any [`Device`] and records every mutation
//! (`write_at`, `sync`, `set_len`) into a shared [`TraceRecorder`].
//! Several wrapped devices — a log plus every segment device — share one
//! recorder, so the op-log captures the *global* order of durability
//! events across the whole system, which is exactly what a
//! crash-consistency model checker needs: a crash point is an index into
//! this global order, and the durable image at that point is determined
//! by each device's last `sync` before the index.
//!
//! Reads are deliberately not recorded: they cannot affect the durable
//! image, and recording them would multiply trace length without adding
//! crash states.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::{Device, Result};

/// One recorded mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOpKind {
    /// `write_at(offset, data)`.
    Write { offset: u64, data: Vec<u8> },
    /// `sync()` — the durability barrier for every earlier write on the
    /// same device.
    Sync,
    /// `set_len(len)`.
    SetLen { len: u64 },
}

/// A mutation attributed to the device that issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOp {
    /// The id assigned by [`TraceRecorder::wrap`].
    pub device: u32,
    pub kind: TraceOpKind,
}

#[derive(Debug, Default)]
struct RecorderState {
    ops: Vec<TraceOp>,
    /// `(id, name)` of every wrapped device, registration order.
    devices: Vec<(u32, String)>,
    enabled: bool,
}

/// The shared op-log behind one or more [`TraceDevice`]s.
#[derive(Debug)]
pub struct TraceRecorder {
    state: Mutex<RecorderState>,
}

impl TraceRecorder {
    /// A recorder with recording enabled.
    pub fn new() -> Arc<Self> {
        Arc::new(TraceRecorder {
            state: Mutex::new(RecorderState {
                enabled: true,
                ..RecorderState::default()
            }),
        })
    }

    /// Registers `inner` under `name` and returns the tracing wrapper.
    pub fn wrap(self: &Arc<Self>, name: &str, inner: Arc<dyn Device>) -> Arc<TraceDevice> {
        let id = {
            let mut s = self.state.lock();
            let id = s.devices.len() as u32;
            s.devices.push((id, name.to_owned()));
            id
        };
        Arc::new(TraceDevice {
            id,
            inner,
            recorder: Arc::clone(self),
        })
    }

    /// Pause recording (e.g. while formatting a log whose setup writes are
    /// part of the pre-crash base image, not the trace under test).
    pub fn set_enabled(&self, enabled: bool) {
        self.state.lock().enabled = enabled;
    }

    /// Number of ops recorded so far. Workloads read this at ack points
    /// (a flush-mode commit returning) to mark which trace prefix must be
    /// durable.
    pub fn len(&self) -> usize {
        self.state.lock().ops.len()
    }

    /// Whether no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded op-log.
    pub fn ops(&self) -> Vec<TraceOp> {
        self.state.lock().ops.clone()
    }

    /// `(id, name)` of every wrapped device, registration order.
    pub fn devices(&self) -> Vec<(u32, String)> {
        self.state.lock().devices.clone()
    }

    fn record(&self, device: u32, kind: TraceOpKind) {
        let mut s = self.state.lock();
        if s.enabled {
            s.ops.push(TraceOp { device, kind });
        }
    }
}

/// A [`Device`] wrapper that appends every mutation to a shared
/// [`TraceRecorder`]. Operations pass through to the inner device
/// unchanged; the trace records what *would* have reached the platter, in
/// global order.
pub struct TraceDevice {
    id: u32,
    inner: Arc<dyn Device>,
    recorder: Arc<TraceRecorder>,
}

impl TraceDevice {
    /// The id this device was registered under.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The wrapped device.
    pub fn inner(&self) -> Arc<dyn Device> {
        self.inner.clone()
    }

    /// The shared recorder.
    pub fn recorder(&self) -> Arc<TraceRecorder> {
        Arc::clone(&self.recorder)
    }
}

impl Device for TraceDevice {
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(offset, data)?;
        self.recorder.record(
            self.id,
            TraceOpKind::Write {
                offset,
                data: data.to_vec(),
            },
        );
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()?;
        self.recorder.record(self.id, TraceOpKind::Sync);
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)?;
        self.recorder.record(self.id, TraceOpKind::SetLen { len });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    #[test]
    fn records_global_order_across_devices() {
        let rec = TraceRecorder::new();
        let a = rec.wrap("log", Arc::new(MemDevice::with_len(64)));
        let b = rec.wrap("seg", Arc::new(MemDevice::with_len(64)));
        a.write_at(0, &[1, 2]).unwrap();
        b.write_at(8, &[3]).unwrap();
        a.sync().unwrap();
        b.set_len(128).unwrap();

        let ops = rec.ops();
        assert_eq!(ops.len(), 4);
        assert_eq!(
            ops[0],
            TraceOp {
                device: 0,
                kind: TraceOpKind::Write {
                    offset: 0,
                    data: vec![1, 2]
                }
            }
        );
        assert_eq!(ops[1].device, 1);
        assert_eq!(
            ops[2],
            TraceOp {
                device: 0,
                kind: TraceOpKind::Sync
            }
        );
        assert_eq!(
            ops[3],
            TraceOp {
                device: 1,
                kind: TraceOpKind::SetLen { len: 128 }
            }
        );
        assert_eq!(
            rec.devices(),
            vec![(0, "log".to_owned()), (1, "seg".to_owned())]
        );
    }

    #[test]
    fn reads_are_not_recorded_and_pass_through() {
        let rec = TraceRecorder::new();
        let dev = rec.wrap("log", Arc::new(MemDevice::with_len(8)));
        dev.write_at(0, &[9; 4]).unwrap();
        let mut buf = [0u8; 4];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
        assert_eq!(rec.len(), 1);
        assert_eq!(dev.len().unwrap(), 8);
    }

    #[test]
    fn disabled_recorder_traces_nothing() {
        let rec = TraceRecorder::new();
        let dev = rec.wrap("log", Arc::new(MemDevice::with_len(8)));
        rec.set_enabled(false);
        dev.write_at(0, &[1]).unwrap();
        dev.sync().unwrap();
        assert!(rec.is_empty());
        rec.set_enabled(true);
        dev.write_at(1, &[2]).unwrap();
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn failed_writes_are_not_recorded() {
        let rec = TraceRecorder::new();
        let dev = rec.wrap("log", Arc::new(MemDevice::with_len(4)));
        assert!(dev.write_at(2, &[0; 8]).is_err());
        assert!(rec.is_empty());
    }
}
