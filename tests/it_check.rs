//! Integration tests for the checking subsystem: the §6 unlogged-write
//! detector ("the result is disastrous" — a forgotten `set-range` was the
//! most common RVM bug) and the range-conflict detector, both through the
//! `rvm_check::Checked` wrapper, and `rvmlog verify`'s WAL invariant
//! verification.

mod common {
    include!("lib.rs");
}

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use common::World;
use rvm::log::record::{parse_header, HEADER_SIZE};
use rvm::log::status::LOG_AREA_START;
use rvm::{CommitMode, LoadPolicy, RegionDescriptor, TxnMode, PAGE_SIZE};
use rvm_check::{CheckViolation, Checked};
use rvm_logtool::LogInspector;
use rvm_storage::Device;

/// Writes a byte into mapped region memory behind the transaction's back —
/// the exact §6 bug the checker exists to catch.
fn poke_unlogged(region: &rvm::Region, offset: u64, value: u8) {
    // SAFETY: offset is within the region and nothing else touches the
    // region concurrently in these tests; this simulates application code
    // mutating recoverable memory without a covering set_range.
    unsafe {
        *region.base_ptr().add(offset as usize) = value;
    }
}

fn unlogged(tid: u64, segment: &str, offset: u64, len: u64) -> CheckViolation {
    CheckViolation::UnloggedWrite {
        tid,
        segment: segment.into(),
        offset,
        len,
    }
}

#[test]
fn unlogged_mutation_is_caught_at_commit() {
    let world = World::new(1 << 20);
    let rvm = Checked::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.write(&region, 0, &[0x11; 8]).unwrap();
    poke_unlogged(&region, 256, 0xAB);
    let tid = txn.tid();
    txn.commit(CommitMode::Flush).unwrap();

    assert_eq!(rvm.violations(), vec![unlogged(tid, "data", 256, 1)]);
}

#[test]
fn declared_ptr_mutation_is_clean() {
    let world = World::new(1 << 20);
    let rvm = Checked::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    let ptr = region.base_ptr();
    // The C-style discipline done right: declare through the pointer API,
    // then mutate in place.
    txn.set_range_ptr(&region, unsafe { ptr.add(256) }, 4)
        .unwrap();
    poke_unlogged(&region, 256, 0xAB);
    txn.commit(CommitMode::Flush).unwrap();

    assert!(rvm.violations().is_empty(), "{:?}", rvm.violations());
}

#[test]
fn panic_mode_fires_inside_commit() {
    let world = World::new(1 << 20);
    let rvm = Checked::new(world.boot()).panicking();
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.write(&region, 0, &[1; 4]).unwrap();
    poke_unlogged(&region, 512, 0xEE);
    let tid = txn.tid();
    let result = catch_unwind(AssertUnwindSafe(move || txn.commit(CommitMode::Flush)));
    let payload = result.expect_err("commit must panic on the violation");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("rvm check violation"), "panic payload: {msg}");

    // The violation is on record even though the commit never finished,
    // and the commit logged nothing: the transaction aborted as it unwound.
    assert_eq!(rvm.violations(), vec![unlogged(tid, "data", 512, 1)]);
    assert_eq!(rvm.rvm().stats().txns_committed, 0);
    assert_eq!(region.read_vec(0, 4).unwrap(), vec![0; 4]);
}

#[test]
fn overlapping_declarations_from_concurrent_txns_are_flagged() {
    let world = World::new(1 << 20);
    let rvm = Checked::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    let mut txn1 = rvm.begin_transaction(TxnMode::Restore).unwrap();
    let mut txn2 = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn1.write(&region, 100, &[1; 50]).unwrap();
    txn2.write(&region, 120, &[2; 50]).unwrap();

    let conflict = CheckViolation::RangeConflict {
        tid: txn2.tid(),
        other_tid: txn1.tid(),
        segment: "data".into(),
        offset: 120,
        len: 30,
    };
    assert_eq!(rvm.violations(), vec![conflict.clone()]);

    // RVM leaves serializability to the application (§3.1): both commits
    // succeed, and the overlap does not masquerade as an unlogged write.
    txn1.commit(CommitMode::Flush).unwrap();
    txn2.commit(CommitMode::Flush).unwrap();
    assert_eq!(rvm.violations(), vec![conflict]);
}

/// An unwrapped instance does not check: the undeclared byte commits
/// without complaint and is silently lost at the next restart — §6's
/// disaster, which only `Checked` would have reported.
#[test]
fn checker_is_off_by_default() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[3; 4]).unwrap();
    poke_unlogged(&region, 900, 0x77);
    txn.commit(CommitMode::Flush).unwrap();
    std::mem::forget(rvm); // crash

    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 4).unwrap(), vec![3; 4]);
    assert_eq!(
        region.read_vec(900, 1).unwrap(),
        vec![0],
        "the poke is lost"
    );
}

/// Wrapping a running instance checks from then on: regions mapped
/// through the wrapper are checked, transactions before it were not.
#[test]
fn set_options_enables_checking_mid_run() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    // First transaction runs unchecked.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[1; 8]).unwrap();
    poke_unlogged(&region, 700, 0x55);
    txn.commit(CommitMode::Flush).unwrap();

    let rvm = Checked::new(rvm);
    let region = rvm
        .map(&RegionDescriptor::new("more", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.write(&region, 0, &[2; 8]).unwrap();
    poke_unlogged(&region, 700, 0x55);
    let tid = txn.tid();
    txn.commit(CommitMode::Flush).unwrap();

    assert_eq!(rvm.violations(), vec![unlogged(tid, "more", 700, 1)]);
}

/// An on-demand region is checked once it is fully loaded: `begin` does
/// not fetch it, and a transaction that began before the fetch does not
/// read the fetched pages as written. The segment exists before the map,
/// or its grow would leave nothing to fetch.
#[test]
fn an_on_demand_region_is_checked_once_loaded() {
    let world = World::new(1 << 20);
    world.segments.resolve("data", 2 * PAGE_SIZE).unwrap();
    let rvm = Checked::new(world.boot());
    let desc = RegionDescriptor::new("data", 0, 2 * PAGE_SIZE);
    let region = rvm.map_with(&desc, LoadPolicy::OnDemand).unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    assert!(!region.is_fully_loaded(), "begin fetched the region");
    txn.write(&region, 0, &[1; 8]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert!(rvm.violations().is_empty(), "{:?}", rvm.violations());

    region.prefetch(0, 2 * PAGE_SIZE).unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.write(&region, 0, &[2; 8]).unwrap();
    poke_unlogged(&region, PAGE_SIZE + 100, 0x66);
    let tid = txn.tid();
    txn.commit(CommitMode::Flush).unwrap();
    let poke = unlogged(tid, "data", PAGE_SIZE + 100, 1);
    assert_eq!(rvm.violations(), vec![poke]);
}

/// A snapshot taken while another transaction's uncommitted bytes are in
/// memory is refreshed when that transaction aborts, however the two
/// interleave: the snapshot and the refresh run under one lock, so the
/// restored bytes never read as an unlogged write. One thread writes and
/// aborts, the other commits a disjoint range.
#[test]
fn an_abort_racing_a_snapshot_is_no_unlogged_write() {
    const ROUNDS: usize = 2_000;
    let world = World::new(1 << 20);
    let rvm = Checked::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();

    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..ROUNDS {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                txn.write(&region, 0, &[i as u8 | 1; 64]).unwrap();
                txn.abort().unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..ROUNDS {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                txn.write(&region, 2048, &(i as u64).to_le_bytes()).unwrap();
                txn.commit(CommitMode::Flush).unwrap();
            }
        });
    });

    assert!(rvm.violations().is_empty(), "{:?}", rvm.violations());
    assert_eq!(region.read_vec(0, 64).unwrap(), vec![0; 64]);
}

/// The acceptance pairing: corruption in a record's unchecksummed padding
/// (the reverse-displacement block) sails through `rvmlog doctor` —
/// the forward scan never reads those bytes — but `rvmlog verify`
/// convicts it.
#[test]
fn verify_convicts_padding_corruption_doctor_acquits() {
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..4u8 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 64 * i as u64, &[i + 1; 16]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        }
        std::mem::forget(rvm); // keep the log image as-is
    }

    let log = world.log.clone();
    let inspector = LogInspector::open(log.clone()).unwrap();
    let (off, _) = inspector.records().unwrap()[2];
    let mut header_buf = [0u8; HEADER_SIZE as usize];
    log.read_at(LOG_AREA_START + off, &mut header_buf).unwrap();
    let header = parse_header(&header_buf).unwrap();
    let body_end = off + HEADER_SIZE + header.payload_len as u64;
    log.write_at(LOG_AREA_START + body_end, &[0xDE, 0xAD])
        .unwrap();

    let inspector = LogInspector::open(log.clone()).unwrap();
    let doctor = inspector.doctor().unwrap();
    assert!(
        !doctor.is_damaged(),
        "doctor acquits: {:?}",
        doctor.findings
    );

    let report = rvm_check::verify(&(log as Arc<dyn Device>)).unwrap();
    assert!(!report.is_clean());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.contains("reverse-displacement block")),
        "{:?}",
        report.findings
    );
    // Recovery still works — the corruption is latent, which is exactly
    // why only `verify` can find it before it matters.
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("data", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(64, 16).unwrap(), vec![2u8; 16]);
}
