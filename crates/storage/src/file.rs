//! File-backed device.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Device, DeviceError, Result};

/// A device backed by a regular file (or, on Unix, a raw block device node).
///
/// Durability is provided by `fdatasync`; this mirrors the paper's reliance
/// on "the correct implementation of the `fsync` system call" (§3.3).
///
/// The device remembers its length, so an in-bounds read or write is one
/// system call. The file may be *grown* through another handle at any
/// time: [`Device::len`] always asks the kernel, and an access past the
/// remembered end asks before it is refused. Shrinking the file behind an
/// open device is outside the contract, as it already was for
/// [`Device::write_at`] (a write racing the truncation re-extends the
/// file); shrink through [`Device::set_len`] on this handle, with no
/// access in flight.
///
/// Every access to the remembered length is `Relaxed`: the word publishes
/// no memory — the bytes are the kernel's, and `pread`/`pwrite` order
/// themselves — so all a stale value can do is be too *low* (a racing
/// refresh overwrote a larger one), which costs the next access one
/// `fstat`. Too *high* needs the file shrunk behind this handle.
///
/// # Examples
///
/// ```no_run
/// use rvm_storage::{Device, FileDevice};
///
/// let dev = FileDevice::create("/tmp/rvm.log", 4 << 20).unwrap();
/// dev.write_at(0, b"hello").unwrap();
/// dev.sync().unwrap();
/// ```
#[derive(Debug)]
pub struct FileDevice {
    file: File,
    /// The length this handle last learned for the file.
    len: AtomicU64,
    /// Kernel length queries made (see `kernel_len`).
    #[cfg(test)]
    len_queries: AtomicU64,
    path: PathBuf,
}

impl FileDevice {
    fn from_file(file: File, path: PathBuf) -> Result<Self> {
        Ok(Self {
            len: AtomicU64::new(file.metadata()?.len()),
            file,
            #[cfg(test)]
            len_queries: AtomicU64::new(0),
            path,
        })
    }

    /// Opens an existing file for read/write access.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        Self::from_file(file, path.as_ref().to_owned())
    }

    /// Creates (or truncates) a file of exactly `len` zero-filled bytes.
    pub fn create<P: AsRef<Path>>(path: P, len: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        file.set_len(len)?;
        Self::from_file(file, path.as_ref().to_owned())
    }

    /// Opens `path` if it exists, otherwise creates it with `len` bytes.
    /// Never truncates: of two openers racing on a fresh path one creates
    /// the file and the other opens what it created.
    pub fn open_or_create<P: AsRef<Path>>(path: P, len: u64) -> Result<Self> {
        let mut fresh = OpenOptions::new();
        match fresh.read(true).write(true).create_new(true).open(&path) {
            Ok(file) => {
                file.set_len(len)?;
                Self::from_file(file, path.as_ref().to_owned())
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Self::open(path),
            Err(e) => Err(e.into()),
        }
    }

    /// Returns the path this device was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Asks the kernel for the file's length and remembers the answer.
    fn kernel_len(&self) -> Result<u64> {
        #[cfg(test)]
        self.len_queries.fetch_add(1, Ordering::Relaxed);
        let len = self.file.metadata()?.len();
        self.len.store(len, Ordering::Relaxed);
        Ok(len)
    }

    /// Checks that `[offset, offset + len)` lies inside the file: an
    /// access that ends at or below the remembered length makes no system
    /// call; one that ends above it asks the kernel once and refreshes the
    /// word before it is refused, so growth through another handle is seen.
    fn check(&self, offset: u64, len: u64) -> Result<()> {
        let fits = |within: u64| offset.checked_add(len).is_some_and(|end| end <= within);
        if fits(self.len.load(Ordering::Relaxed)) {
            return Ok(());
        }
        let device_len = self.kernel_len()?;
        if fits(device_len) {
            return Ok(());
        }
        Err(DeviceError::OutOfBounds {
            offset,
            len,
            device_len,
        })
    }
}

impl Device for FileDevice {
    fn len(&self) -> Result<u64> {
        self.kernel_len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len() as u64)?;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check(offset, data.len() as u64)?;
        self.file.write_all_at(data, offset)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len.store(len, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rvm-storage-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn create_write_read() {
        let path = temp_path("crw");
        let dev = FileDevice::create(&path, 64).unwrap();
        assert_eq!(dev.len().unwrap(), 64);
        dev.write_at(10, b"persist").unwrap();
        dev.sync().unwrap();
        drop(dev);

        let dev = FileDevice::open(&path).unwrap();
        let mut buf = [0u8; 7];
        dev.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"persist");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounds_are_enforced() {
        let path = temp_path("bounds");
        let dev = FileDevice::create(&path, 8).unwrap();
        assert!(matches!(
            dev.write_at(6, &[0; 4]).unwrap_err(),
            DeviceError::OutOfBounds { .. }
        ));
        assert!(matches!(
            dev.read_at(9, &mut [0; 1]).unwrap_err(),
            DeviceError::OutOfBounds { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_or_create_reuses_contents() {
        let path = temp_path("ooc");
        {
            let dev = FileDevice::open_or_create(&path, 16).unwrap();
            dev.write_at(0, &[42]).unwrap();
        }
        let dev = FileDevice::open_or_create(&path, 16).unwrap();
        let mut b = [0u8; 1];
        dev.read_at(0, &mut b).unwrap();
        assert_eq!(b[0], 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_or_create_never_truncates() {
        let path = temp_path("ooc-race");
        // Two openers race on a fresh path, round after round: whichever
        // of them creates the file, the other must not empty it again, so
        // once both have returned both their bytes are there.
        for round in 1..=250u8 {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for at in [0, 8] {
                    let (path, barrier) = (&path, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let dev = FileDevice::open_or_create(path, 16).unwrap();
                        if dev.len().unwrap() < 16 {
                            dev.set_len(16).unwrap(); // opened before the creator sized it
                        }
                        dev.write_at(at, &[round]).unwrap();
                    });
                }
            });
            // A file that exists is opened as it is, whatever `len` says.
            let dev = FileDevice::open_or_create(&path, 4).unwrap();
            assert_eq!(dev.len().unwrap(), 16);
            let mut b = [0u8; 9];
            dev.read_at(0, &mut b).unwrap();
            assert_eq!((b[0], b[8]), (round, round));
            std::fs::remove_file(&path).unwrap();
        }
    }

    fn len_queries(dev: &FileDevice) -> u64 {
        dev.len_queries.load(Ordering::Relaxed)
    }

    #[test]
    fn in_bounds_accesses_never_ask_the_kernel_for_the_length() {
        let path = temp_path("len-cached");
        let dev = FileDevice::create(&path, 4096).unwrap();
        let mut buf = [0u8; 8];
        for i in 0..1000u64 {
            dev.write_at(i * 4, &i.to_le_bytes()).unwrap();
            dev.read_at(i * 4, &mut buf).unwrap();
            assert_eq!(buf, i.to_le_bytes());
        }
        dev.write_at(4088, &buf).unwrap(); // ends exactly at the end
        assert_eq!(len_queries(&dev), 0);

        // Past the remembered end: one question, and the true length in
        // the refusal.
        let err = dev.write_at(4090, &buf).unwrap_err();
        assert!(
            matches!(
                err,
                DeviceError::OutOfBounds {
                    offset: 4090,
                    len: 8,
                    device_len: 4096
                }
            ),
            "{err}"
        );
        assert_eq!(len_queries(&dev), 1);
        assert!(dev.read_at(u64::MAX, &mut buf).is_err(), "offset overflow");
        assert_eq!(len_queries(&dev), 2);

        // `set_len` stores what it set; `len` always asks.
        dev.set_len(8192).unwrap();
        dev.write_at(8184, &buf).unwrap();
        assert_eq!(len_queries(&dev), 2);
        assert_eq!(dev.len().unwrap(), 8192);
        assert_eq!(len_queries(&dev), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn growth_through_another_handle_is_seen() {
        let path = temp_path("len-grown");
        let dev = FileDevice::create(&path, 64).unwrap();
        let other = FileDevice::open(&path).unwrap();
        other.set_len(128).unwrap();
        other.write_at(120, &[7; 8]).unwrap();
        // The first handle still remembers 64: it asks once, then not again.
        let mut buf = [0u8; 8];
        dev.read_at(120, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
        dev.write_at(100, &[1; 28]).unwrap();
        assert_eq!(len_queries(&dev), 1);
        // A stale answer can never make the grow idiom truncate.
        other.set_len(256).unwrap();
        if dev.len().unwrap() < 200 {
            dev.set_len(200).unwrap();
        }
        assert_eq!(other.len().unwrap(), 256);
        std::fs::remove_file(&path).unwrap();
    }
}
