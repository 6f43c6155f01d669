//! C-compatible interface to `rvm-rs`, mirroring the original library's
//! `rvm.h`.
//!
//! The paper's RVM was a C library ("A Unix programmer thinks of RVM in
//! essentially the same way he thinks of a typical subroutine library,
//! such as the stdio package", §10), and its flagship user — the Coda
//! file system — is a C program. This crate exposes the same operation
//! set over a C ABI so existing C code bases can link against the Rust
//! implementation: opaque handles, integer return codes, and the
//! pointer-based `set_range` idiom.
//!
//! ```c
//! rvm_t*    rvm;
//! rvm_region_t* region;
//! rvm_tid_t*    tid;
//!
//! rvm_initialize("app.rvmlog", 1, &rvm);
//! rvm_map(rvm, "accounts.seg", 0, 4096, &region);
//! rvm_begin_transaction(rvm, RVM_RESTORE, &tid);
//! char* base = rvm_region_base(region);
//! rvm_set_range(tid, region, 0, 8);
//! memcpy(base, &balance, 8);
//! rvm_end_transaction(tid, RVM_FLUSH);
//! rvm_terminate(rvm);
//! ```
//!
//! Every function validates its pointers, catches panics at the FFI
//! boundary, and reports failure through [`RvmReturn`] codes decoded by
//! [`rvm_strerror`].

use std::ffi::{c_char, c_int, CStr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rvm::{CommitMode, Options, Region, RegionDescriptor, Rvm, RvmError, Transaction, TxnMode};
use rvm_storage::FileDevice;

/// Return codes of the C interface (the original's `rvm_return_t`).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvmReturn {
    /// Operation succeeded.
    RvmSuccess = 0,
    /// A required pointer argument was null or invalid UTF-8.
    RvmEInvalid = 1,
    /// Log device could not be opened or is not a valid RVM log.
    RvmELog = 2,
    /// Mapping violated the §4.1 rules (overlap, alignment, duplicates).
    RvmEMapping = 3,
    /// Offset/length outside the region.
    RvmERange = 4,
    /// Region is not mapped.
    RvmENotMapped = 5,
    /// Region has uncommitted transactions outstanding.
    RvmEBusy = 6,
    /// The transaction has already ended.
    RvmETidEnded = 7,
    /// Abort requested on a no-restore transaction.
    RvmENoRestore = 8,
    /// The log is full.
    RvmELogFull = 9,
    /// Transactions outstanding at terminate.
    RvmETxnsOutstanding = 10,
    /// Device-level I/O failure.
    RvmEIo = 11,
    /// The library instance has been terminated.
    RvmETerminated = 12,
    /// A panic was caught at the FFI boundary (library bug).
    RvmEPanic = 13,
    /// The instance is poisoned after an unrecoverable I/O failure; only
    /// reads and `rvm_query` remain usable.
    RvmEPoisoned = 14,
    /// A transient device fault exhausted its retry budget; the operation
    /// may succeed if reissued on a fresh instance.
    RvmEIoTransient = 15,
    /// Unrecoverable media corruption: the region is quarantined into
    /// read-only degraded mode (the original's `RVM_EMEDIA` territory —
    /// media recovery the paper delegated to mirroring, §2).
    RvmEMedia = 16,
}

/// `restore_mode` values for [`rvm_begin_transaction`].
pub const RVM_RESTORE: c_int = 0;
/// No-restore mode: the transaction promises never to abort.
pub const RVM_NO_RESTORE: c_int = 1;
/// `commit_mode` values for [`rvm_end_transaction`].
pub const RVM_FLUSH: c_int = 0;
/// Lazy commit: records spool until the next `rvm_flush`.
pub const RVM_NO_FLUSH: c_int = 1;

fn map_err(e: &RvmError) -> RvmReturn {
    match e {
        RvmError::Device(d) if d.is_transient() => RvmReturn::RvmEIoTransient,
        RvmError::Device(_) => RvmReturn::RvmEIo,
        RvmError::BadLog(_) => RvmReturn::RvmELog,
        RvmError::LogFull { .. } => RvmReturn::RvmELogFull,
        RvmError::BadMapping(_) | RvmError::SegmentTableFull => RvmReturn::RvmEMapping,
        RvmError::OutOfRange { .. } | RvmError::EmptyRange { .. } => RvmReturn::RvmERange,
        RvmError::Unmapped => RvmReturn::RvmENotMapped,
        RvmError::RegionBusy { .. } => RvmReturn::RvmEBusy,
        RvmError::CannotAbortNoRestore => RvmReturn::RvmENoRestore,
        RvmError::TransactionEnded => RvmReturn::RvmETidEnded,
        RvmError::TransactionsOutstanding(_) => RvmReturn::RvmETxnsOutstanding,
        RvmError::Terminated => RvmReturn::RvmETerminated,
        RvmError::Poisoned => RvmReturn::RvmEPoisoned,
        RvmError::Media(_) => RvmReturn::RvmEMedia,
    }
}

fn guarded(f: impl FnOnce() -> RvmReturn) -> RvmReturn {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(RvmReturn::RvmEPanic)
}

/// Opaque library handle.
pub struct RvmHandle {
    rvm: Rvm,
}

/// Opaque region handle.
pub struct RegionHandle {
    region: Region,
}

/// Opaque transaction handle.
///
/// The inner option is consumed by end/abort; further operations return
/// [`RvmReturn::RvmETidEnded`].
pub struct TidHandle {
    txn: Option<Transaction>,
}

// SAFETY: dereferences a caller-supplied pointer; callers of the helper
// uphold the C contract that handles come from this library and are not
// aliased mutably.
unsafe fn deref<'a, T>(p: *mut T) -> Option<&'a mut T> {
    // SAFETY: see above; null is checked here.
    unsafe { p.as_mut() }
}

fn cstr<'a>(p: *const c_char) -> Option<&'a str> {
    if p.is_null() {
        return None;
    }
    // SAFETY: the caller passes a NUL-terminated C string, per the ABI.
    unsafe { CStr::from_ptr(p) }.to_str().ok()
}

/// Formats `log_path` as an empty RVM log of `len` bytes (the paper's
/// `create_log`).
///
/// # Safety
///
/// `log_path` must be a valid NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn rvm_create_log(log_path: *const c_char, len: u64) -> RvmReturn {
    guarded(|| {
        let Some(path) = cstr(log_path) else {
            return RvmReturn::RvmEInvalid;
        };
        let dev = match FileDevice::open_or_create(path, len) {
            Ok(d) => d,
            Err(_) => return RvmReturn::RvmEIo,
        };
        match Rvm::create_log(&dev) {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Initializes the library over the log at `log_path`, running crash
/// recovery; writes the handle to `*out`.
///
/// With `create != 0` the log is formatted if absent or empty
/// (`options_desc`'s creation flag in the original).
///
/// # Safety
///
/// `log_path` must be a valid NUL-terminated string; `out` must point to
/// writable storage for one pointer.
#[no_mangle]
pub unsafe extern "C" fn rvm_initialize(
    log_path: *const c_char,
    create: c_int,
    out: *mut *mut RvmHandle,
) -> RvmReturn {
    guarded(|| {
        let Some(path) = cstr(log_path) else {
            return RvmReturn::RvmEInvalid;
        };
        if out.is_null() {
            return RvmReturn::RvmEInvalid;
        }
        let dev = match FileDevice::open_or_create(path, 4 << 20) {
            Ok(d) => d,
            Err(_) => return RvmReturn::RvmEIo,
        };
        let mut options = Options::new(Arc::new(dev));
        if create != 0 {
            options = options.create_if_empty();
        }
        match Rvm::initialize(options) {
            Ok(rvm) => {
                // SAFETY: `out` checked non-null above.
                unsafe { *out = Box::into_raw(Box::new(RvmHandle { rvm })) };
                RvmReturn::RvmSuccess
            }
            Err(e) => map_err(&e),
        }
    })
}

/// Maps `[offset, offset + len)` of the named segment; writes the region
/// handle to `*out`.
///
/// # Safety
///
/// `handle` must come from [`rvm_initialize`]; `segment` must be a valid
/// NUL-terminated string; `out` must be writable.
#[no_mangle]
pub unsafe extern "C" fn rvm_map(
    handle: *mut RvmHandle,
    segment: *const c_char,
    offset: u64,
    len: u64,
    out: *mut *mut RegionHandle,
) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(h) = (unsafe { deref(handle) }) else {
            return RvmReturn::RvmEInvalid;
        };
        let Some(segment) = cstr(segment) else {
            return RvmReturn::RvmEInvalid;
        };
        if out.is_null() {
            return RvmReturn::RvmEInvalid;
        }
        match h.rvm.map(&RegionDescriptor::new(segment, offset, len)) {
            Ok(region) => {
                // SAFETY: `out` checked non-null above.
                unsafe { *out = Box::into_raw(Box::new(RegionHandle { region })) };
                RvmReturn::RvmSuccess
            }
            Err(e) => map_err(&e),
        }
    })
}

/// Unmaps a region. The handle remains owned by the caller and must
/// still be released with [`rvm_free_region`].
///
/// # Safety
///
/// Both handles must come from this library.
#[no_mangle]
pub unsafe extern "C" fn rvm_unmap(handle: *mut RvmHandle, region: *mut RegionHandle) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let (Some(h), Some(r)) = (unsafe { deref(handle) }, unsafe { deref(region) }) else {
            return RvmReturn::RvmEInvalid;
        };
        match h.rvm.unmap(&r.region) {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Releases a region handle (the mapping itself is unaffected).
///
/// # Safety
///
/// `region` must come from [`rvm_map`] and must not be used afterwards.
#[no_mangle]
pub unsafe extern "C" fn rvm_free_region(region: *mut RegionHandle) {
    if !region.is_null() {
        // SAFETY: ownership transferred back per the contract.
        drop(unsafe { Box::from_raw(region) });
    }
}

/// Base address of the region's memory, for direct C struct access.
/// Returns null for an invalid handle.
///
/// # Safety
///
/// `region` must come from [`rvm_map`].
#[no_mangle]
pub unsafe extern "C" fn rvm_region_base(region: *mut RegionHandle) -> *mut u8 {
    // SAFETY: forwarded caller contract.
    match unsafe { deref(region) } {
        Some(r) => r.region.base_ptr(),
        None => std::ptr::null_mut(),
    }
}

/// Region length in bytes (0 for an invalid handle).
///
/// # Safety
///
/// `region` must come from [`rvm_map`].
#[no_mangle]
pub unsafe extern "C" fn rvm_region_len(region: *mut RegionHandle) -> u64 {
    // SAFETY: forwarded caller contract.
    match unsafe { deref(region) } {
        Some(r) => r.region.len(),
        None => 0,
    }
}

/// Begins a transaction; `restore_mode` is [`RVM_RESTORE`] or
/// [`RVM_NO_RESTORE`].
///
/// # Safety
///
/// `handle` must come from [`rvm_initialize`]; `out` must be writable.
#[no_mangle]
pub unsafe extern "C" fn rvm_begin_transaction(
    handle: *mut RvmHandle,
    restore_mode: c_int,
    out: *mut *mut TidHandle,
) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(h) = (unsafe { deref(handle) }) else {
            return RvmReturn::RvmEInvalid;
        };
        if out.is_null() {
            return RvmReturn::RvmEInvalid;
        }
        let mode = if restore_mode == RVM_NO_RESTORE {
            TxnMode::NoRestore
        } else {
            TxnMode::Restore
        };
        match h.rvm.begin_transaction(mode) {
            Ok(txn) => {
                // SAFETY: `out` checked non-null above.
                unsafe { *out = Box::into_raw(Box::new(TidHandle { txn: Some(txn) })) };
                RvmReturn::RvmSuccess
            }
            Err(e) => map_err(&e),
        }
    })
}

/// Declares `[offset, offset + len)` of `region` as about to be
/// modified.
///
/// # Safety
///
/// Handles must come from this library.
#[no_mangle]
pub unsafe extern "C" fn rvm_set_range(
    tid: *mut TidHandle,
    region: *mut RegionHandle,
    offset: u64,
    len: u64,
) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let (Some(t), Some(r)) = (unsafe { deref(tid) }, unsafe { deref(region) }) else {
            return RvmReturn::RvmEInvalid;
        };
        let Some(txn) = t.txn.as_mut() else {
            return RvmReturn::RvmETidEnded;
        };
        match txn.set_range(&r.region, offset, len) {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Pointer-based `set_range`, matching the original signature: `addr`
/// must point into the region's memory (see [`rvm_region_base`]).
///
/// # Safety
///
/// Handles must come from this library; `addr` need not be valid to
/// dereference (it is only translated), but must be the caller's honest
/// target address.
#[no_mangle]
pub unsafe extern "C" fn rvm_set_range_ptr(
    tid: *mut TidHandle,
    region: *mut RegionHandle,
    addr: *const u8,
    len: u64,
) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let (Some(t), Some(r)) = (unsafe { deref(tid) }, unsafe { deref(region) }) else {
            return RvmReturn::RvmEInvalid;
        };
        let Some(txn) = t.txn.as_mut() else {
            return RvmReturn::RvmETidEnded;
        };
        match txn.set_range_ptr(&r.region, addr, len) {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Commits the transaction; `commit_mode` is [`RVM_FLUSH`] or
/// [`RVM_NO_FLUSH`]. The handle is consumed but must still be released
/// with [`rvm_free_tid`].
///
/// # Safety
///
/// `tid` must come from [`rvm_begin_transaction`].
#[no_mangle]
pub unsafe extern "C" fn rvm_end_transaction(tid: *mut TidHandle, commit_mode: c_int) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(t) = (unsafe { deref(tid) }) else {
            return RvmReturn::RvmEInvalid;
        };
        let Some(txn) = t.txn.take() else {
            return RvmReturn::RvmETidEnded;
        };
        let mode = if commit_mode == RVM_NO_FLUSH {
            CommitMode::NoFlush
        } else {
            CommitMode::Flush
        };
        match txn.commit(mode) {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Aborts the transaction, restoring old values (restore mode only).
///
/// # Safety
///
/// `tid` must come from [`rvm_begin_transaction`].
#[no_mangle]
pub unsafe extern "C" fn rvm_abort_transaction(tid: *mut TidHandle) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(t) = (unsafe { deref(tid) }) else {
            return RvmReturn::RvmEInvalid;
        };
        let Some(txn) = t.txn.take() else {
            return RvmReturn::RvmETidEnded;
        };
        match txn.abort() {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Releases a transaction handle (aborting it if still active).
///
/// # Safety
///
/// `tid` must come from [`rvm_begin_transaction`] and must not be used
/// afterwards.
#[no_mangle]
pub unsafe extern "C" fn rvm_free_tid(tid: *mut TidHandle) {
    if !tid.is_null() {
        // SAFETY: ownership transferred back per the contract.
        drop(unsafe { Box::from_raw(tid) });
    }
}

/// Forces all spooled no-flush commits to the log.
///
/// # Safety
///
/// `handle` must come from [`rvm_initialize`].
#[no_mangle]
pub unsafe extern "C" fn rvm_flush(handle: *mut RvmHandle) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(h) = (unsafe { deref(handle) }) else {
            return RvmReturn::RvmEInvalid;
        };
        match h.rvm.flush() {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// Applies all committed log records to their segments and reclaims the
/// space.
///
/// # Safety
///
/// `handle` must come from [`rvm_initialize`].
#[no_mangle]
pub unsafe extern "C" fn rvm_truncate(handle: *mut RvmHandle) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(h) = (unsafe { deref(handle) }) else {
            return RvmReturn::RvmEInvalid;
        };
        match h.rvm.truncate() {
            Ok(()) => RvmReturn::RvmSuccess,
            Err(e) => map_err(&e),
        }
    })
}

/// `query` results, C layout.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
pub struct RvmQuery {
    /// Transactions begun but not ended.
    pub active_transactions: u64,
    /// Committed no-flush transactions awaiting a flush.
    pub spooled_transactions: u64,
    /// Live log bytes.
    pub log_used: u64,
    /// Log record-area capacity.
    pub log_capacity: u64,
    /// Transactions committed so far.
    pub txns_committed: u64,
    /// Record bytes written to the log.
    pub bytes_logged: u64,
    /// Log forces issued (shared across a group-commit batch).
    pub log_forces: u64,
    /// Flush-mode commits; `log_forces < flush_commits` means group
    /// commit amortized forces.
    pub flush_commits: u64,
    /// Group-commit batches completed.
    pub group_commit_batches: u64,
    /// Epochs truncated concurrently with forward processing.
    pub epochs_truncated: u64,
    /// Commits that completed while an epoch apply was running.
    pub commits_during_truncation: u64,
    /// Nanoseconds committers spent waiting on truncation for log space.
    pub truncation_stall_ns: u64,
    /// Nonzero while an epoch truncation is applying its frozen span.
    pub truncation_in_flight: u64,
    /// Healthy replicas across every mirrored device in play (0 when
    /// nothing is mirrored).
    pub replicas_alive: u64,
    /// Total replicas across those mirrors; `replicas_alive <
    /// replicas_total` means a mirror is running degraded.
    pub replicas_total: u64,
    /// Segment pages verified against their checksum catalogs by scrub
    /// passes.
    pub pages_scrubbed: u64,
    /// Checksum mismatches detected (scrub, verified reads, truncation).
    pub corruptions_detected: u64,
    /// Detected corruptions healed by the repair ladder (mirror
    /// read-repair, log reconstruction, VM rewrite).
    pub corruptions_repaired: u64,
    /// Regions quarantined into read-only degraded mode
    /// ([`RvmReturn::RvmEMedia`]).
    pub regions_quarantined: u64,
    /// Always 0: every batch completes inline (mirrors
    /// `StatsSnapshot::pipeline_submits`).
    pub pipeline_submits: u64,
    /// Always 0, like `pipeline_submits`.
    pub pipeline_stall_ns: u64,
    /// Times a group-commit leader waited for company before staging.
    pub group_waits: u64,
    /// Nanoseconds leaders spent in those waits.
    pub group_wait_ns: u64,
}

/// Fills `*out` with library state (the paper's `query`).
///
/// # Safety
///
/// `handle` must come from [`rvm_initialize`]; `out` must be writable.
#[no_mangle]
pub unsafe extern "C" fn rvm_query(handle: *mut RvmHandle, out: *mut RvmQuery) -> RvmReturn {
    guarded(|| {
        // SAFETY: forwarded caller contract.
        let Some(h) = (unsafe { deref(handle) }) else {
            return RvmReturn::RvmEInvalid;
        };
        if out.is_null() {
            return RvmReturn::RvmEInvalid;
        }
        let q = h.rvm.query();
        // SAFETY: `out` checked non-null above.
        unsafe {
            *out = RvmQuery {
                active_transactions: q.active_transactions,
                spooled_transactions: q.spooled_transactions as u64,
                log_used: q.log.used,
                log_capacity: q.log.capacity,
                txns_committed: q.stats.txns_committed,
                bytes_logged: q.stats.bytes_logged,
                log_forces: q.stats.log_forces,
                flush_commits: q.stats.flush_commits,
                group_commit_batches: q.stats.group_commit_batches,
                epochs_truncated: q.stats.epochs_truncated,
                commits_during_truncation: q.stats.commits_during_truncation,
                truncation_stall_ns: q.stats.truncation_stall_ns,
                truncation_in_flight: u64::from(q.truncation_in_flight),
                replicas_alive: q.replicas_alive as u64,
                replicas_total: q.replicas_total as u64,
                pages_scrubbed: q.stats.pages_scrubbed,
                corruptions_detected: q.stats.corruptions_detected,
                corruptions_repaired: q.stats.corruptions_repaired,
                regions_quarantined: q.stats.regions_quarantined,
                pipeline_submits: q.stats.pipeline_submits,
                pipeline_stall_ns: q.stats.pipeline_stall_ns,
                group_waits: q.stats.group_waits,
                group_wait_ns: q.stats.group_wait_ns,
            };
        }
        RvmReturn::RvmSuccess
    })
}

/// Shuts the library down cleanly and releases the handle. On error
/// (e.g. transactions outstanding) the handle is *still* released, as
/// the original `rvm_terminate` left the library unusable either way.
///
/// # Safety
///
/// `handle` must come from [`rvm_initialize`] and must not be used
/// afterwards.
#[no_mangle]
pub unsafe extern "C" fn rvm_terminate(handle: *mut RvmHandle) -> RvmReturn {
    guarded(|| {
        if handle.is_null() {
            return RvmReturn::RvmEInvalid;
        }
        // SAFETY: ownership transferred back per the contract.
        let h = unsafe { Box::from_raw(handle) };
        match h.rvm.terminate() {
            Ok(()) => RvmReturn::RvmSuccess,
            // The Rust API hands the instance back for a retry; the C
            // contract releases the handle either way, so drop it here.
            Err(failure) => map_err(&failure.error),
        }
    })
}

/// A static, NUL-terminated description of a return code.
#[no_mangle]
pub extern "C" fn rvm_strerror(code: RvmReturn) -> *const c_char {
    let s: &'static [u8] = match code {
        RvmReturn::RvmSuccess => b"success\0",
        RvmReturn::RvmEInvalid => b"invalid argument\0",
        RvmReturn::RvmELog => b"not a valid RVM log\0",
        RvmReturn::RvmEMapping => b"bad mapping\0",
        RvmReturn::RvmERange => b"offset/length out of range\0",
        RvmReturn::RvmENotMapped => b"region not mapped\0",
        RvmReturn::RvmEBusy => b"region busy\0",
        RvmReturn::RvmETidEnded => b"transaction already ended\0",
        RvmReturn::RvmENoRestore => b"no-restore transactions cannot abort\0",
        RvmReturn::RvmELogFull => b"log full\0",
        RvmReturn::RvmETxnsOutstanding => b"transactions outstanding\0",
        RvmReturn::RvmEIo => b"device I/O error\0",
        RvmReturn::RvmETerminated => b"library terminated\0",
        RvmReturn::RvmEPanic => b"internal panic\0",
        RvmReturn::RvmEPoisoned => b"instance poisoned by unrecoverable I/O failure\0",
        RvmReturn::RvmEIoTransient => b"transient device fault exhausted retries\0",
        RvmReturn::RvmEMedia => b"unrecoverable media corruption; region quarantined read-only\0",
    };
    s.as_ptr() as *const c_char
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CString;

    struct TempLog(std::path::PathBuf);

    impl TempLog {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("rvm-capi-{}-{tag}.log", std::process::id()));
            let _ = std::fs::remove_file(&p);
            Self(p)
        }

        fn c_path(&self) -> CString {
            CString::new(self.0.to_str().unwrap()).unwrap()
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn temp_seg(tag: &str) -> (CString, std::path::PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("rvm-capi-{}-{tag}.seg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        (CString::new(p.to_str().unwrap()).unwrap(), p)
    }

    #[test]
    fn full_c_lifecycle_with_crash_recovery() {
        let log = TempLog::new("life");
        let (seg, seg_path) = temp_seg("life");

        // SAFETY: test exercises the C contract with valid arguments.
        unsafe {
            // First life: write through the pointer API and "crash" by
            // leaking the handle.
            let mut h: *mut RvmHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_initialize(log.c_path().as_ptr(), 1, &mut h),
                RvmReturn::RvmSuccess
            );
            let mut r: *mut RegionHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_map(h, seg.as_ptr(), 0, 4096, &mut r),
                RvmReturn::RvmSuccess
            );
            assert_eq!(rvm_region_len(r), 4096);
            let base = rvm_region_base(r);
            assert!(!base.is_null());

            let mut tid: *mut TidHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_begin_transaction(h, RVM_RESTORE, &mut tid),
                RvmReturn::RvmSuccess
            );
            assert_eq!(rvm_set_range_ptr(tid, r, base, 8), RvmReturn::RvmSuccess);
            std::ptr::copy_nonoverlapping(c"C-durab".as_ptr().cast::<u8>(), base, 8);
            assert_eq!(rvm_end_transaction(tid, RVM_FLUSH), RvmReturn::RvmSuccess);
            rvm_free_tid(tid);

            let mut q = RvmQuery::default();
            assert_eq!(rvm_query(h, &mut q), RvmReturn::RvmSuccess);
            assert_eq!(q.txns_committed, 1);
            assert_eq!(q.flush_commits, 1);
            assert_eq!(q.log_forces, 1, "a lone flush commit still forces once");
            rvm_free_region(r);
            std::mem::forget(Box::from_raw(h)); // crash: leak the Box

            // Second life: recovery restores the committed state.
            let mut h2: *mut RvmHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_initialize(log.c_path().as_ptr(), 0, &mut h2),
                RvmReturn::RvmSuccess
            );
            let mut r2: *mut RegionHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_map(h2, seg.as_ptr(), 0, 4096, &mut r2),
                RvmReturn::RvmSuccess
            );
            let base2 = rvm_region_base(r2);
            let mut got = [0u8; 8];
            std::ptr::copy_nonoverlapping(base2, got.as_mut_ptr(), 8);
            assert_eq!(&got, b"C-durab\0");
            rvm_free_region(r2);
            assert_eq!(rvm_terminate(h2), RvmReturn::RvmSuccess);
        }
        let _ = std::fs::remove_file(seg_path);
    }

    #[test]
    fn abort_and_error_codes() {
        let log = TempLog::new("abort");
        let (seg, seg_path) = temp_seg("abort");
        // SAFETY: test exercises the C contract with valid arguments.
        unsafe {
            let mut h: *mut RvmHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_initialize(log.c_path().as_ptr(), 1, &mut h),
                RvmReturn::RvmSuccess
            );
            let mut r: *mut RegionHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_map(h, seg.as_ptr(), 0, 4096, &mut r),
                RvmReturn::RvmSuccess
            );

            // Abort restores old values.
            let mut tid: *mut TidHandle = std::ptr::null_mut();
            rvm_begin_transaction(h, RVM_RESTORE, &mut tid);
            assert_eq!(rvm_set_range(tid, r, 0, 4), RvmReturn::RvmSuccess);
            let base = rvm_region_base(r);
            base.write_bytes(0xAB, 4);
            assert_eq!(rvm_abort_transaction(tid), RvmReturn::RvmSuccess);
            // Double end is reported.
            assert_eq!(rvm_end_transaction(tid, RVM_FLUSH), RvmReturn::RvmETidEnded);
            rvm_free_tid(tid);
            assert_eq!(base.read(), 0, "abort restored the zero image");

            // Range errors: past the end and zero-length alike.
            let mut tid2: *mut TidHandle = std::ptr::null_mut();
            rvm_begin_transaction(h, RVM_RESTORE, &mut tid2);
            assert_eq!(rvm_set_range(tid2, r, 4000, 200), RvmReturn::RvmERange);
            assert_eq!(rvm_set_range(tid2, r, 100, 0), RvmReturn::RvmERange);
            assert_eq!(rvm_end_transaction(tid2, RVM_FLUSH), RvmReturn::RvmSuccess);
            // Declaring against an ended transaction is refused — the C
            // library's use-after-end bug, reported instead of ignored.
            assert_eq!(rvm_set_range(tid2, r, 0, 4), RvmReturn::RvmETidEnded);
            assert_eq!(
                rvm_set_range_ptr(tid2, r, rvm_region_base(r), 4),
                RvmReturn::RvmETidEnded
            );
            rvm_free_tid(tid2);

            // No-restore abort is refused.
            let mut tid3: *mut TidHandle = std::ptr::null_mut();
            rvm_begin_transaction(h, RVM_NO_RESTORE, &mut tid3);
            assert_eq!(rvm_abort_transaction(tid3), RvmReturn::RvmENoRestore);
            rvm_free_tid(tid3);

            rvm_free_region(r);
            assert_eq!(rvm_terminate(h), RvmReturn::RvmSuccess);
        }
        let _ = std::fs::remove_file(seg_path);
    }

    #[test]
    fn null_arguments_are_rejected_not_crashed() {
        // SAFETY: passing nulls is exactly what is being tested; the
        // functions must reject them.
        unsafe {
            let mut h: *mut RvmHandle = std::ptr::null_mut();
            assert_eq!(
                rvm_initialize(std::ptr::null(), 1, &mut h),
                RvmReturn::RvmEInvalid
            );
            assert_eq!(
                rvm_map(
                    std::ptr::null_mut(),
                    std::ptr::null(),
                    0,
                    0,
                    std::ptr::null_mut()
                ),
                RvmReturn::RvmEInvalid
            );
            assert_eq!(rvm_flush(std::ptr::null_mut()), RvmReturn::RvmEInvalid);
            assert_eq!(rvm_truncate(std::ptr::null_mut()), RvmReturn::RvmEInvalid);
            assert_eq!(
                rvm_set_range(std::ptr::null_mut(), std::ptr::null_mut(), 0, 0),
                RvmReturn::RvmEInvalid
            );
            assert!(rvm_region_base(std::ptr::null_mut()).is_null());
            rvm_free_region(std::ptr::null_mut());
            rvm_free_tid(std::ptr::null_mut());
            assert_eq!(rvm_terminate(std::ptr::null_mut()), RvmReturn::RvmEInvalid);
        }
    }

    #[test]
    fn strerror_covers_every_code() {
        for code in [
            RvmReturn::RvmSuccess,
            RvmReturn::RvmEInvalid,
            RvmReturn::RvmELog,
            RvmReturn::RvmEMapping,
            RvmReturn::RvmERange,
            RvmReturn::RvmENotMapped,
            RvmReturn::RvmEBusy,
            RvmReturn::RvmETidEnded,
            RvmReturn::RvmENoRestore,
            RvmReturn::RvmELogFull,
            RvmReturn::RvmETxnsOutstanding,
            RvmReturn::RvmEIo,
            RvmReturn::RvmETerminated,
            RvmReturn::RvmEPanic,
            RvmReturn::RvmEPoisoned,
            RvmReturn::RvmEIoTransient,
            RvmReturn::RvmEMedia,
        ] {
            let p = rvm_strerror(code);
            assert!(!p.is_null());
            // SAFETY: rvm_strerror returns a static NUL-terminated string.
            let s = unsafe { CStr::from_ptr(p) }.to_str().unwrap();
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn no_flush_then_c_flush_persists() {
        let log = TempLog::new("noflush");
        let (seg, seg_path) = temp_seg("noflush");
        // SAFETY: valid arguments throughout.
        unsafe {
            let mut h: *mut RvmHandle = std::ptr::null_mut();
            rvm_initialize(log.c_path().as_ptr(), 1, &mut h);
            let mut r: *mut RegionHandle = std::ptr::null_mut();
            rvm_map(h, seg.as_ptr(), 0, 4096, &mut r);
            let mut tid: *mut TidHandle = std::ptr::null_mut();
            rvm_begin_transaction(h, RVM_RESTORE, &mut tid);
            rvm_set_range(tid, r, 0, 4);
            rvm_region_base(r).write_bytes(0x5A, 4);
            assert_eq!(
                rvm_end_transaction(tid, RVM_NO_FLUSH),
                RvmReturn::RvmSuccess
            );
            rvm_free_tid(tid);
            let mut q = RvmQuery::default();
            rvm_query(h, &mut q);
            assert_eq!(q.spooled_transactions, 1);
            assert_eq!(rvm_flush(h), RvmReturn::RvmSuccess);
            rvm_query(h, &mut q);
            assert_eq!(q.spooled_transactions, 0);
            assert_eq!(rvm_truncate(h), RvmReturn::RvmSuccess);
            rvm_free_region(r);
            rvm_terminate(h);
        }
        // The segment file itself now holds the bytes.
        let seg_bytes = std::fs::read(&seg_path).unwrap();
        assert_eq!(&seg_bytes[..4], &[0x5A; 4]);
        let _ = std::fs::remove_file(seg_path);
    }

    /// `rvm_query` writes a whole `RvmQuery` through the caller's pointer:
    /// a header that declares fewer fields than the struct has makes every
    /// C caller's query a buffer overflow.
    #[test]
    fn the_header_declares_the_query_struct_field_for_field() {
        let header = include_str!("../include/rvm.h");
        let body = header.split("typedef struct {").nth(1).unwrap();
        let body = body.split("} rvm_query_t;").next().unwrap();
        let declared: Vec<&str> = body
            .lines()
            .filter_map(|line| line.trim().strip_prefix("uint64_t ")?.split(';').next())
            .collect();
        let debug = format!("{:?}", RvmQuery::default());
        let fields = debug
            .trim_start_matches("RvmQuery { ")
            .trim_end_matches(" }");
        let fields: Vec<&str> = fields
            .split(", ")
            .filter_map(|field| field.split(':').next())
            .collect();
        assert_eq!(declared, fields);
        assert_eq!(std::mem::size_of::<RvmQuery>(), 8 * declared.len());
        assert_eq!(fields.last(), Some(&"group_wait_ns"));
    }

    #[test]
    fn query_round_trips_pipeline_counters() {
        use rvm::segment::MemResolver;
        use rvm::{CommitMode, RegionDescriptor, Tuning, TxnMode};
        use rvm_storage::MemDevice;

        const THREADS: u64 = 4;
        // The C entry point has no tuning parameter, so build the handle
        // around a tuned instance directly — the query path is the thing
        // under test, not initialization: a batch cap below the thread
        // count, and a window for committers to pile up behind a leader.
        let rvm = Rvm::initialize(
            Options::new(Arc::new(MemDevice::with_len(4 << 20)))
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty()
                .tuning(Tuning {
                    group_commit_max_txns: 2,
                    group_commit_wait_us: 20_000,
                    ..Tuning::default()
                }),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, THREADS * 4096))
            .unwrap();
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (rvm, region, barrier) = (&rvm, &region, &barrier);
                s.spawn(move || {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region.put_u64(&mut txn, t * 4096, t + 1).unwrap();
                    barrier.wait();
                    txn.commit(CommitMode::Flush).unwrap();
                });
            }
        });
        drop(region);
        let h = Box::into_raw(Box::new(RvmHandle { rvm }));
        // SAFETY: `h` is a live handle from the Box above; pointers passed
        // to the C functions are valid for the duration of each call.
        unsafe {
            // The C-side struct must agree field-for-field with the Rust
            // query the commit counters come from.
            let expect = (*h).rvm.query();
            let mut q = RvmQuery::default();
            assert_eq!(rvm_query(h, &mut q), RvmReturn::RvmSuccess);
            // Every batch completes inline: nothing is ever submitted.
            assert_eq!((q.pipeline_submits, q.pipeline_stall_ns), (0, 0));
            assert_eq!(q.pipeline_submits, expect.stats.pipeline_submits);
            assert_eq!(q.pipeline_stall_ns, expect.stats.pipeline_stall_ns);
            assert_eq!(q.log_forces, expect.stats.log_forces);
            // With a fixed window every leader that runs a round waits it out.
            assert_eq!(q.group_waits, expect.stats.group_waits);
            assert_eq!(q.group_wait_ns, expect.stats.group_wait_ns);
            assert!(q.group_waits >= 1 && q.group_wait_ns > 0, "{q:?}");
            assert_eq!(q.flush_commits, THREADS);

            assert_eq!(rvm_terminate(h), RvmReturn::RvmSuccess);
        }
    }
}
