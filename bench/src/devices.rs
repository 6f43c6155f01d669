//! The devices the workloads run over: where their bytes live, the
//! wrapper that times every call the library makes on them, and the log
//! whose force costs wall time without costing CPU.

use std::collections::HashMap;
use std::ffi::{c_char, c_int, c_uint};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rvm::segment::DeviceResolver;
use rvm::Options;
use rvm_storage::{Device, FileDevice, IoToken, MemDevice, Result, VerifiedRead};

use crate::trace::{self, Kind};

/// A `MemDevice` whose `sync` sleeps: a force that is an I/O wait, which
/// frees the processor for the other clients, as a disk's does. Every
/// other method is the trait default, so it behaves like each synchronous
/// device in the tree.
pub struct ForceDelayDevice {
    inner: MemDevice,
    delay: Duration,
}

impl ForceDelayDevice {
    pub fn new(len: u64, delay: Duration) -> Self {
        Self {
            inner: MemDevice::with_len(len),
            delay,
        }
    }
}

impl Device for ForceDelayDevice {
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(offset, data)
    }

    fn sync(&self) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }
}

const WRITE: u8 = 0;
const SYNC: u8 = 1;
const READ: u8 = 2;
const OTHER: u8 = 3;

/// Times and counts every call on `inner` as a child span of whatever the
/// calling thread has open. Forwards every method of the trait, so
/// wrapping changes no behaviour — redundancy, asynchronous submission
/// and verified reads underneath stay visible to the library.
pub struct SpanDevice {
    inner: Arc<dyn Device>,
    role: u8,
}

impl SpanDevice {
    /// `role` indexes [`trace::ROLES`].
    pub fn new(inner: Arc<dyn Device>, role: usize) -> Self {
        Self {
            inner,
            role: role as u8,
        }
    }

    fn span<T>(&self, op: u8, bytes: usize, call: impl FnOnce() -> Result<T>) -> Result<T> {
        trace::enter(Kind::Dev(self.role, op));
        let result = call();
        trace::exit_io(bytes as u64, result.is_err(), 0);
        result
    }
}

impl Device for SpanDevice {
    fn len(&self) -> Result<u64> {
        self.span(OTHER, 0, || self.inner.len())
    }

    fn is_empty(&self) -> Result<bool> {
        self.span(OTHER, 0, || self.inner.is_empty())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.span(READ, buf.len(), || self.inner.read_at(offset, buf))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.span(WRITE, data.len(), || self.inner.write_at(offset, data))
    }

    fn sync(&self) -> Result<()> {
        self.span(SYNC, 0, || self.inner.sync())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.span(OTHER, 0, || self.inner.set_len(len))
    }

    fn read_verified(
        &self,
        offset: u64,
        buf: &mut [u8],
        verify: &(dyn Fn(&[u8]) -> bool + Sync),
    ) -> Result<VerifiedRead> {
        // The predicate is the library's checksum over the page: its time
        // is the caller's, not the device's.
        let verify_ns = AtomicU64::new(0);
        let timed = |bytes: &[u8]| {
            let begun = Instant::now();
            let verdict = verify(bytes);
            verify_ns.fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
            verdict
        };
        trace::enter(Kind::Dev(self.role, READ));
        let result = self.inner.read_verified(offset, buf, &timed);
        trace::exit_io(
            buf.len() as u64,
            result.is_err(),
            verify_ns.load(Ordering::Relaxed),
        );
        result
    }

    fn replica_health(&self) -> Option<(usize, usize)> {
        self.inner.replica_health()
    }

    fn submit_write(&self, offset: u64, data: Vec<u8>) -> IoToken {
        trace::enter(Kind::Dev(self.role, WRITE));
        let bytes = data.len() as u64;
        let token = self.inner.submit_write(offset, data);
        trace::exit_io(bytes, false, 0);
        token
    }

    fn submit_sync(&self) -> IoToken {
        trace::enter(Kind::Dev(self.role, SYNC));
        let token = self.inner.submit_sync();
        trace::exit_io(0, false, 0);
        token
    }

    fn poll(&self, token: &IoToken) -> bool {
        self.inner.poll(token)
    }

    fn wait(&self, token: IoToken) -> Result<()> {
        self.span(OTHER, 0, || self.inner.wait(token))
    }
}

extern "C" {
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
}

/// A `FileDevice` over an anonymous memory file: the library makes the
/// same `pwrite`/`fstat`/`fdatasync` system calls as on a disk file, but
/// no disk answers them, whose latency varied 20–60 % between runs on the
/// sandbox. Nothing is created in any directory.
fn anonymous_file(len: u64) -> std::io::Result<FileDevice> {
    // SAFETY: the name is a NUL-terminated literal that outlives the
    // call, and memfd_create has no other precondition.
    let fd = unsafe { memfd_create(c"rvm-profile".as_ptr(), 0) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: memfd_create just returned this descriptor and nothing
    // else owns it.
    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
    // FileDevice opens by path; this one names the memory file, and the
    // description FileDevice holds keeps it alive once `fd` closes.
    let dev = FileDevice::open(format!("/proc/self/fd/{}", fd.as_raw_fd()))
        .map_err(std::io::Error::other)?;
    dev.set_len(len).map_err(std::io::Error::other)?;
    Ok(dev)
}

/// What backs a workload's log, segment and checksum sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    Mem,
    /// `FileDevice`s: anonymous memory files, or real files under the
    /// given directory.
    File(Option<PathBuf>),
    /// The log is a [`ForceDelayDevice`]; segments are `MemDevice`s.
    ForceDelay(Duration),
}

fn create(
    backend: &Backend,
    files: &Mutex<Vec<PathBuf>>,
    name: &str,
    len: u64,
) -> std::io::Result<Arc<dyn Device>> {
    static NEXT_FILE: AtomicU64 = AtomicU64::new(0);
    Ok(match backend {
        Backend::ForceDelay(delay) if name == "log" => Arc::new(ForceDelayDevice::new(len, *delay)),
        Backend::Mem | Backend::ForceDelay(_) => Arc::new(MemDevice::with_len(len)),
        Backend::File(None) => Arc::new(anonymous_file(len)?),
        Backend::File(Some(dir)) => {
            let path = dir.join(format!(
                "rvm-profile-{}-{}-{name}",
                std::process::id(),
                NEXT_FILE.fetch_add(1, Ordering::Relaxed)
            ));
            let dev = FileDevice::create(&path, len).map_err(std::io::Error::other)?;
            files.lock().expect("file list").push(path);
            Arc::new(dev)
        }
    })
}

/// Puts a device handed to the library behind a wrapper, by role.
pub type Wrap = Arc<dyn Fn(usize, Arc<dyn Device>) -> Arc<dyn Device> + Send + Sync>;

/// The durable state of one RVM installation: the log and every segment
/// device the library asked for, by name. Instances come and go over it
/// (`options`), as processes do over a disk.
pub struct Store {
    backend: Backend,
    log: Arc<dyn Device>,
    segments: Mutex<Vec<(String, Arc<dyn Device>)>>,
    files: Mutex<Vec<PathBuf>>,
}

impl Store {
    pub fn new(backend: Backend, log_len: u64) -> std::io::Result<Arc<Self>> {
        let files = Mutex::new(Vec::new());
        let log = create(&backend, &files, "log", log_len)?;
        Ok(Arc::new(Self {
            backend,
            log,
            segments: Mutex::new(Vec::new()),
            files,
        }))
    }

    /// Options for one instance over this store, every device behind
    /// `wrap` (one wrapper per device for the instance's lifetime).
    pub fn options(self: &Arc<Self>, wrap: Option<Wrap>) -> Options {
        let wrap = wrap.unwrap_or_else(|| Arc::new(|_, dev| dev));
        let store = Arc::clone(self);
        let wrapped: Mutex<HashMap<String, Arc<dyn Device>>> = Mutex::new(HashMap::new());
        let log = wrap(0, Arc::clone(&self.log));
        let resolver: DeviceResolver = Arc::new(move |name, min_len| {
            let raw = {
                let mut segments = store.segments.lock().expect("segment table");
                match segments.iter().find(|(n, _)| n == name) {
                    Some((_, dev)) => Arc::clone(dev),
                    None => {
                        let dev = create(&store.backend, &store.files, name, min_len)?;
                        segments.push((name.to_owned(), Arc::clone(&dev)));
                        dev
                    }
                }
            };
            if raw.len()? < min_len {
                raw.set_len(min_len)?;
            }
            let role = if rvm::scrub::is_sidecar(name) { 2 } else { 1 };
            Ok(Arc::clone(
                wrapped
                    .lock()
                    .expect("wrapper table")
                    .entry(name.to_owned())
                    .or_insert_with(|| wrap(role, raw)),
            ))
        });
        Options::new(log).resolver(resolver).create_if_empty()
    }

    fn devices(&self) -> Vec<Arc<dyn Device>> {
        let segments = self.segments.lock().expect("segment table");
        std::iter::once(&self.log)
            .chain(segments.iter().map(|(_, dev)| dev))
            .cloned()
            .collect()
    }

    /// The bytes of every device: what a crash leaves for the next
    /// instance.
    pub fn snapshot(&self) -> Result<Vec<Vec<u8>>> {
        self.devices()
            .iter()
            .map(|dev| {
                let mut image = vec![0u8; dev.len()? as usize];
                dev.read_at(0, &mut image)?;
                Ok(image)
            })
            .collect()
    }

    /// Puts a [`snapshot`](Self::snapshot) back.
    pub fn restore(&self, images: &[Vec<u8>]) -> Result<()> {
        for (dev, image) in self.devices().iter().zip(images) {
            dev.write_at(0, image)?;
        }
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        for path in self.files.lock().expect("file list").drain(..) {
            // Nothing to do about a file that cannot be removed.
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_delay_costs_wall_time_on_sync_only() {
        let dev = ForceDelayDevice::new(4096, Duration::from_millis(5));
        let t = Instant::now();
        dev.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 3];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert!(t.elapsed() < Duration::from_millis(5));
        dev.sync().unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn span_device_counts_what_it_forwards() {
        let _sink = trace::TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        trace::take();
        let dev = SpanDevice::new(Arc::new(MemDevice::with_len(64)), 2);
        dev.write_at(8, &[7; 16]).unwrap();
        dev.wait(dev.submit_write(0, vec![1; 8])).unwrap();
        dev.wait(dev.submit_sync()).unwrap();
        assert!(dev.write_at(60, &[0; 8]).is_err());
        let mut buf = [0u8; 16];
        let slow_check = |b: &[u8]| {
            std::thread::sleep(Duration::from_millis(5));
            b == [7; 16]
        };
        let verdict = dev.read_verified(8, &mut buf, &slow_check).unwrap();
        assert_eq!(verdict, VerifiedRead::Clean);
        assert_eq!(dev.len().unwrap(), 64);

        let g = trace::take();
        let writes = g.dev(2, "write");
        assert_eq!((writes.calls, writes.bytes, writes.errors), (3, 32, 1));
        assert_eq!(g.dev(2, "sync").calls, 1);
        assert_eq!((g.dev(2, "read").calls, g.dev(2, "read").bytes), (1, 16));
        assert!(
            g.dev(2, "read").ns < 5_000_000,
            "the caller's check is not device time"
        );
        assert_eq!(g.dev(2, "other").calls, 3);
        assert_eq!(g.dev(0, "write").calls, 0);
    }

    #[test]
    fn a_store_outlives_its_instances_on_every_backend() {
        let dir = std::env::temp_dir();
        for backend in [
            Backend::Mem,
            Backend::File(None),
            Backend::File(Some(dir)),
            Backend::ForceDelay(Duration::from_micros(1)),
        ] {
            let store = Store::new(backend.clone(), 1 << 20).unwrap();
            let resolve = |opts: &Options| (opts.resolver)("seg", 8192).unwrap();
            let first = store.options(None);
            resolve(&first).write_at(100, b"durable").unwrap();
            first.log.write_at(0, b"log").unwrap();
            let images = store.snapshot().unwrap();
            assert_eq!(images.len(), 2, "{backend:?}");
            assert_eq!(images[0].len(), 1 << 20);
            resolve(&first).write_at(100, b"clobber").unwrap();
            store.restore(&images).unwrap();

            // A later instance, behind wrappers, sees the same bytes.
            let wraps = Arc::new(Mutex::new(0));
            let counter = Arc::clone(&wraps);
            let second = store.options(Some(Arc::new(move |role, dev| {
                *counter.lock().unwrap() += 1;
                Arc::new(SpanDevice::new(dev, role))
            })));
            let mut buf = [0u8; 7];
            resolve(&second).read_at(100, &mut buf).unwrap();
            assert_eq!(&buf, b"durable");
            resolve(&second).read_at(100, &mut buf).unwrap();
            assert_eq!(*wraps.lock().unwrap(), 2, "log and seg wrapped once each");
        }
    }
}
