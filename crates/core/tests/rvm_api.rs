//! End-to-end tests of the public RVM API over in-memory devices.

mod common {
    include!("../../../tests/lib.rs");
}

use std::sync::Arc;

use common::{Truncator, World};

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, RvmError, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, MemDevice};

#[test]
fn committed_data_survives_a_reboot() {
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 10, b"durable").unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        // Simulated crash: drop without terminate (Drop flushes, but the
        // flush-mode commit was already forced; stronger crash tests live
        // in the workspace-level suite with FaultDevice).
    }
    let rvm = world.boot();
    assert_eq!(rvm.recovery_report().records_replayed, 1);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(10, 7).unwrap(), b"durable");
}

#[test]
fn abort_restores_old_values() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[7; 64]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[9; 64]).unwrap();
    region.write(&mut txn, 100, &[9; 8]).unwrap();
    assert_eq!(region.read_vec(0, 4).unwrap(), vec![9; 4]);
    txn.abort().unwrap();
    assert_eq!(region.read_vec(0, 64).unwrap(), vec![7; 64]);
    assert_eq!(region.read_vec(100, 8).unwrap(), vec![0; 8]);
    assert_eq!(rvm.stats().txns_aborted, 1);
}

#[test]
fn dropping_a_transaction_aborts_it() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, &[5; 16]).unwrap();
    }
    assert_eq!(region.read_vec(0, 16).unwrap(), vec![0; 16]);
    assert_eq!(rvm.query().active_transactions, 0);
    assert_eq!(region.uncommitted_transactions(), 0);
}

#[test]
fn no_restore_transactions_cannot_abort() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::NoRestore).unwrap();
    region.write(&mut txn, 0, &[1; 8]).unwrap();
    let err = txn.abort().unwrap_err();
    assert!(matches!(err, RvmError::CannotAbortNoRestore));
    // Memory keeps the modification (it cannot be undone)...
    assert_eq!(region.read_vec(0, 8).unwrap(), vec![1; 8]);
    // ...but the bookkeeping is released.
    assert_eq!(region.uncommitted_transactions(), 0);
}

#[test]
fn no_flush_commits_are_lost_on_crash_without_flush() {
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, b"lazy").unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
        assert_eq!(rvm.query().spooled_transactions, 1);
        // Hard crash: forget the instance entirely so Drop cannot flush.
        std::mem::forget(rvm);
    }
    let rvm = world.boot();
    assert_eq!(rvm.recovery_report().records_replayed, 0);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 4).unwrap(), vec![0; 4]);
}

#[test]
fn flush_bounds_the_persistence_of_no_flush_commits() {
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..5u8 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, i as u64 * 8, &[i + 1; 8]).unwrap();
            txn.commit(CommitMode::NoFlush).unwrap();
        }
        rvm.flush().unwrap();
        assert_eq!(rvm.query().spooled_transactions, 0);
        std::mem::forget(rvm);
    }
    let rvm = world.boot();
    assert_eq!(rvm.recovery_report().records_replayed, 5);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    for i in 0..5u8 {
        assert_eq!(region.read_vec(i as u64 * 8, 8).unwrap(), vec![i + 1; 8]);
    }
}

#[test]
fn truncate_applies_the_log_to_segments() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[3; 128]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert!(rvm.query().log.used > 0);

    rvm.truncate().unwrap();
    assert_eq!(rvm.query().log.used, 0);
    assert_eq!(rvm.stats().epoch_truncations, 1);

    let seg = world.segments.get("seg").unwrap();
    let mut buf = [0u8; 128];
    seg.read_at(0, &mut buf).unwrap();
    assert_eq!(buf, [3; 128]);
}

/// Both truncators at the default threshold (see [`Truncator`]).
fn truncators() -> [Truncator; 2] {
    Truncator::both(Tuning::default().truncation_threshold)
}

#[test]
fn sustained_commits_wrap_the_log_via_inline_truncation() {
    for truncator in truncators() {
        // Log area of 28 KiB; each commit takes 1.5 KiB of it.
        let world = World::new(30 * 1024);
        let rvm = world.boot_tuned(truncator.tuning());
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
            .unwrap();
        for round in 0..100u64 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            let off = (round % 16) * 1024;
            region.write(&mut txn, off, &[round as u8; 1024]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            truncator.after_commit(&rvm);
        }
        let log = rvm.query().log;
        assert!(log.tail / log.capacity >= 4, "{truncator:?}: {log:?}");
        assert!(log.head > log.capacity, "{truncator:?}: {log:?}");
        assert!(truncator.runs(&rvm) > 0, "{truncator:?}: it must truncate");
        // Final state: offsets written in the last full cycle hold their data.
        for round in 84..100u64 {
            let off = (round % 16) * 1024;
            assert_eq!(
                region.read_vec(off, 4).unwrap(),
                vec![round as u8; 4],
                "{truncator:?}: round {round}"
            );
        }
        // And it all survives a reboot.
        drop(rvm);
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
            .unwrap();
        for round in 84..100u64 {
            let off = (round % 16) * 1024;
            assert_eq!(
                region.read_vec(off, 4).unwrap(),
                vec![round as u8; 4],
                "{truncator:?}: round {round} after the reboot"
            );
        }
    }
}

#[test]
fn incremental_truncation_advances_the_head() {
    let world = World::new(64 * 1024);
    let tuning = Tuning {
        truncation_threshold: 0.2,
        incremental_reclaim_bytes: 8 * 1024,
        ..Tuning::default()
    };
    let rvm = world.boot_tuned(tuning);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 8 * PAGE_SIZE))
        .unwrap();
    for round in 0..60u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let off = (round % 8) * PAGE_SIZE;
        region.write(&mut txn, off, &[round as u8; 512]).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    let stats = rvm.stats();
    assert!(
        stats.pages_written_incremental > 0,
        "incremental steps must have run: {stats:?}"
    );
    drop(rvm);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 8 * PAGE_SIZE))
        .unwrap();
    for round in 52..60u64 {
        let off = (round % 8) * PAGE_SIZE;
        assert_eq!(region.read_vec(off, 4).unwrap(), vec![round as u8; 4]);
    }
}

#[test]
fn incremental_truncation_blocks_on_uncommitted_pages() {
    let world = World::new(64 * 1024);
    let tuning = Tuning {
        truncation_threshold: 0.05,
        incremental_reclaim_bytes: u64::MAX,
        ..Tuning::default()
    };
    let rvm = world.boot_tuned(tuning);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();

    // A long-running transaction pins page 0.
    let mut long_txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    long_txn.set_range(&region, 0, 16).unwrap();

    // Other commits to page 0 pile up in the log; truncation cannot write
    // page 0 while the long transaction holds a reference.
    for i in 0..4u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 100 + i * 16, &[1; 16]).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    assert!(rvm.query().log.used > 0, "head must be blocked");

    long_txn.commit(CommitMode::Flush).unwrap();
    rvm.truncate().unwrap();
    assert_eq!(rvm.query().log.used, 0);
}

#[test]
fn optimization_statistics_track_savings() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    // Intra: the same range declared three times logs once.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    for _ in 0..3 {
        txn.set_range(&region, 0, 100).unwrap();
    }
    region.write(&mut txn, 0, &[1; 100]).unwrap(); // a 4th declaration
    txn.commit(CommitMode::Flush).unwrap();
    let stats = rvm.stats();
    assert_eq!(stats.bytes_set_range_gross, 400);
    assert_eq!(stats.bytes_saved_intra, 300);

    // Inter: two no-flush commits of the same range keep only the newest.
    for val in [2u8, 3u8] {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 200, &[val; 50]).unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
    }
    let stats = rvm.stats();
    assert!(stats.bytes_saved_inter > 0);
    rvm.flush().unwrap();
    assert_eq!(region.read_vec(200, 4).unwrap(), vec![3; 4]);
}

#[test]
fn optimizations_can_be_disabled() {
    let world = World::new(1 << 20);
    let tuning = Tuning {
        intra_optimization: false,
        inter_optimization: false,
        ..Tuning::default()
    };
    let rvm = world.boot_tuned(tuning);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let stats = rvm.stats();
    assert_eq!(stats.bytes_saved_intra, 0);
    // Both duplicate declarations were logged: 2 range entries * (24 + 100)
    // plus header/trailer.
    assert!(stats.bytes_logged >= 2 * 124);
}

#[test]
fn mapping_rules_are_enforced() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let _a = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();
    // Overlap and duplicate mappings are rejected (§4.1).
    assert!(matches!(
        rvm.map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE)),
        Err(RvmError::BadMapping(_))
    ));
    assert!(matches!(
        rvm.map(&RegionDescriptor::new("seg", PAGE_SIZE, PAGE_SIZE)),
        Err(RvmError::BadMapping(_))
    ));
    // A disjoint region of the same segment is fine.
    let _b = rvm
        .map(&RegionDescriptor::new("seg", 2 * PAGE_SIZE, PAGE_SIZE))
        .unwrap();
    // Alignment is enforced.
    assert!(matches!(
        rvm.map(&RegionDescriptor::new("seg2", 0, 100)),
        Err(RvmError::BadMapping(_))
    ));
}

#[test]
fn unmap_requires_quiescence_and_remap_sees_committed_state() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[8; 32]).unwrap();
    assert!(matches!(
        rvm.unmap(&region),
        Err(RvmError::RegionBusy { uncommitted: 1 })
    ));
    txn.commit(CommitMode::Flush).unwrap();

    rvm.unmap(&region).unwrap();
    assert!(!region.is_mapped());
    assert!(matches!(region.read_vec(0, 4), Err(RvmError::Unmapped)));

    // Remap: the committed (but never truncated) data must be visible.
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 32).unwrap(), vec![8; 32]);
}

#[test]
fn remap_sees_spooled_no_flush_state() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[4; 16]).unwrap();
    txn.commit(CommitMode::NoFlush).unwrap();
    rvm.unmap(&region).unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 16).unwrap(), vec![4; 16]);
}

#[test]
fn pointer_api_round_trips() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let base = region.base_ptr();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    // SAFETY: single-threaded test; the pointer stays within the region.
    unsafe {
        let p = base.add(64);
        txn.set_range_ptr(&region, p, 8).unwrap();
        std::ptr::copy_nonoverlapping(b"ptr-api!".as_ptr(), p, 8);
    }
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.read_vec(64, 8).unwrap(), b"ptr-api!");

    // A pointer outside the region is rejected.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    let bogus = [0u8; 1];
    assert!(txn.set_range_ptr(&region, bogus.as_ptr(), 1).is_err());
}

#[test]
fn bounds_are_enforced() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    assert!(matches!(
        txn.set_range(&region, PAGE_SIZE - 4, 8),
        Err(RvmError::OutOfRange { .. })
    ));
    assert!(region.read_vec(PAGE_SIZE, 1).is_err());
    txn.commit(CommitMode::Flush).unwrap();
}

#[test]
fn zero_length_declarations_are_rejected_at_both_entry_points() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    assert!(matches!(
        txn.set_range(&region, 40, 0),
        Err(RvmError::EmptyRange { offset: 40 })
    ));
    // SAFETY: base + 40 is within the mapped region.
    let ptr = unsafe { region.base_ptr().add(40) };
    assert!(matches!(
        txn.set_range_ptr(&region, ptr, 0),
        Err(RvmError::EmptyRange { offset: 40 })
    ));
    // The emptiness check fires first, even off the end of the region.
    assert!(matches!(
        txn.set_range(&region, PAGE_SIZE + 1, 0),
        Err(RvmError::EmptyRange { .. })
    ));
    // Nothing was declared, so the commit logs nothing.
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(rvm.query().stats.bytes_set_range_gross, 0);
}

#[test]
fn no_restore_abort_error_still_releases_the_transaction() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    // §4.2: abort of a no-restore transaction is an error by contract —
    // memory cannot be rewound. The error must not leak bookkeeping:
    // a later transaction and termination proceed normally.
    let mut txn = rvm.begin_transaction(TxnMode::NoRestore).unwrap();
    region.write(&mut txn, 0, &[0xAA; 16]).unwrap();
    assert!(matches!(txn.abort(), Err(RvmError::CannotAbortNoRestore)));
    assert_eq!(region.uncommitted_transactions(), 0);

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[0xBB; 16]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.read_vec(0, 16).unwrap(), vec![0xBB; 16]);
    rvm.terminate().unwrap();
}

#[test]
fn multi_region_transactions_commit_atomically() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let a = rvm
        .map(&RegionDescriptor::new("segA", 0, PAGE_SIZE))
        .unwrap();
    let b = rvm
        .map(&RegionDescriptor::new("segB", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    a.write(&mut txn, 0, &[1; 8]).unwrap();
    b.write(&mut txn, 0, &[2; 8]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    drop(rvm);

    let rvm = world.boot();
    assert_eq!(rvm.recovery_report().segments_updated, 2);
    let a = rvm
        .map(&RegionDescriptor::new("segA", 0, PAGE_SIZE))
        .unwrap();
    let b = rvm
        .map(&RegionDescriptor::new("segB", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(a.read_vec(0, 8).unwrap(), vec![1; 8]);
    assert_eq!(b.read_vec(0, 8).unwrap(), vec![2; 8]);
}

#[test]
fn terminate_rejects_outstanding_transactions_and_returns_the_instance() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[1]).unwrap();

    // A refused terminate hands the instance back instead of leaking it
    // into a drop; the caller can finish the transaction and retry.
    let failure = rvm.terminate().expect_err("an open txn must refuse");
    assert!(matches!(
        failure.error,
        RvmError::TransactionsOutstanding(1)
    ));
    let rvm = failure.rvm;
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.read_vec(0, 1).unwrap(), vec![1]);
    rvm.terminate().unwrap();

    // The commit survived the failed first attempt.
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 1).unwrap(), vec![1]);
}

#[test]
fn terminate_flushes_the_spool() {
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, b"clean").unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
        rvm.terminate().unwrap();
    }
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 5).unwrap(), b"clean");
}

#[test]
fn threshold_truncation_reclaims_space() {
    use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
    use rvm::log::status::LOG_AREA_START;

    let record = (HEADER_SIZE + RANGE_ENTRY_SIZE + 512 + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);
    for truncator in Truncator::both(0.3) {
        // The 40 records cross the threshold of an area of 112.
        let world = World::new(LOG_AREA_START + 112 * record);
        let rvm = world.boot_tuned(truncator.tuning());
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..40u64 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region
                .write(&mut txn, (i % 4) * 512, &[i as u8; 512])
                .unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            truncator.after_commit(&rvm);
        }
        assert!(
            truncator.runs(&rvm) > 0,
            "{truncator:?}: it never ran: {:?}",
            rvm.query()
        );
        assert!(
            rvm.query().log.head > 0,
            "{truncator:?}: nothing was reclaimed"
        );
        rvm.terminate().unwrap();

        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 36..40u64 {
            assert_eq!(
                region.read_vec((i % 4) * 512, 512).unwrap(),
                [i as u8; 512],
                "{truncator:?}: slot {}",
                i % 4
            );
        }
    }
}

/// Forty flush commits of 512 bytes (1 KiB of log each) cycling over
/// `region`'s first 2 KiB; over a 16 KiB log at the default threshold
/// `truncator` truncates several times on the way.
fn churn(rvm: &Rvm, region: &rvm::Region, salt: u8, truncator: Truncator) {
    for i in 0..40u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let fill = [salt.wrapping_add(i as u8); 512];
        region.write(&mut txn, (i % 4) * 512, &fill).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        truncator.after_commit(rvm);
    }
}

/// The last four writes of [`churn`], as a later load must find them.
fn assert_churned(region: &rvm::Region, salt: u8, ctx: &dyn std::fmt::Debug) {
    for i in 36..40u64 {
        assert_eq!(
            region.read_vec((i % 4) * 512, 512).unwrap(),
            [salt.wrapping_add(i as u8); 512],
            "{ctx:?}: slot {}",
            i % 4
        );
    }
}

/// `segment_checksums` is read when the instance first opens a segment,
/// and answers for every region of it from then on: a region mapped after
/// the knob flipped shares the handle — catalog or none — of the region
/// mapped before, so what truncation writes for one can never go stale
/// under the other.
#[test]
fn regions_of_one_segment_share_its_catalog_whenever_they_were_mapped() {
    for truncator in truncators() {
        for at_first in [false, true] {
            let ctx = (truncator, at_first);
            let with = |segment_checksums| Tuning {
                segment_checksums,
                ..truncator.tuning()
            };
            let world = World::new(32 * 1024);
            let rvm = world.boot_tuned(with(at_first));
            let a_desc = RegionDescriptor::new("seg", 0, PAGE_SIZE);
            let a = rvm.map(&a_desc).unwrap();
            rvm.set_options(with(!at_first));
            let b = rvm
                .map(&RegionDescriptor::new("seg", PAGE_SIZE, PAGE_SIZE))
                .unwrap();
            churn(&rvm, &a, 1, truncator);
            churn(&rvm, &b, 2, truncator);
            assert!(truncator.runs(&rvm) >= 4, "{ctx:?}: {:?}", rvm.stats());

            // A load of what the truncations wrote, against the catalog
            // (if any) they kept.
            rvm.unmap(&a).unwrap();
            let a = rvm
                .map(&a_desc)
                .unwrap_or_else(|e| panic!("{ctx:?}: remap refused healthy data: {e}"));
            assert_churned(&a, 1, &ctx);
            let report = rvm.scrub().unwrap();
            assert_eq!(report.corruptions_detected, 0, "{ctx:?}: {report:?}");
            // Checked as a whole (both regions' pages) or not at all.
            let scanned = if at_first { 2 } else { 0 };
            assert_eq!(report.pages_scanned, scanned, "{ctx:?}: {report:?}");
        }
    }
}

/// Flipping `segment_checksums` under a mapped region changes nothing for
/// its segment: both truncation mechanisms keep the catalog they found at
/// the open, so a scrub never meets a page newer than its checksum.
#[test]
fn a_checksum_toggle_never_reports_rot_on_healthy_data() {
    for truncator in truncators() {
        for at_first in [true, false] {
            let ctx = (truncator, at_first);
            let with = |segment_checksums| Tuning {
                segment_checksums,
                ..truncator.tuning()
            };
            let world = World::new(32 * 1024);
            let rvm = world.boot_tuned(with(at_first));
            let a = rvm
                .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                .unwrap();
            rvm.set_options(with(!at_first));
            churn(&rvm, &a, 3, truncator);
            assert!(truncator.runs(&rvm) >= 2, "{ctx:?}: {:?}", rvm.stats());
            let report = rvm.scrub().unwrap();
            assert_eq!(report.corruptions_detected, 0, "{ctx:?}: {report:?}");
            assert_eq!(rvm.stats().corruptions_detected, 0, "{ctx:?}");
        }
    }
}

/// A run with checksums off writes segment pages it keeps no sums for. It
/// must not leave the previous run's catalog behind, valid and stale, for
/// the next run with checksums on to trust.
#[test]
fn a_run_without_checksums_does_not_poison_the_next_run_with_them() {
    for truncator in truncators() {
        let world = World::new(32 * 1024);
        let desc = RegionDescriptor::new("seg", 0, PAGE_SIZE);
        for (run, segment_checksums) in [(1u8, true), (2, false), (3, true)] {
            let rvm = world.boot_tuned(Tuning {
                segment_checksums,
                ..truncator.tuning()
            });
            let region = rvm.map(&desc).unwrap_or_else(|e| {
                panic!("{truncator:?} run {run}: map refused healthy data: {e}")
            });
            if run > 1 {
                assert_churned(&region, run - 1, &(truncator, run));
            }
            churn(&rvm, &region, run, truncator);
            assert!(
                truncator.runs(&rvm) >= 2,
                "{truncator:?} run {run}: {:?}",
                rvm.stats()
            );
            let report = rvm.scrub().unwrap();
            assert_eq!(report.corruptions_detected, 0, "{truncator:?} run {run}");
            assert_eq!(
                report.pages_scanned,
                u64::from(segment_checksums),
                "{truncator:?} run {run}: {report:?}"
            );
            // Leave nothing in the log for the next run's recovery to
            // re-apply (and re-adopt the sums of).
            rvm.truncate().unwrap();
            rvm.terminate().unwrap();
        }
    }
}

#[test]
fn query_reports_consistent_state() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let q0 = rvm.query();
    assert_eq!(q0.mapped_regions, 1);
    assert_eq!(q0.log.used, 0);

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[1; 8]).unwrap();
    assert_eq!(rvm.query().active_transactions, 1);
    txn.commit(CommitMode::NoFlush).unwrap();

    let q = rvm.query();
    assert_eq!(q.active_transactions, 0);
    assert_eq!(q.spooled_transactions, 1);
    assert!(q.spool_bytes > 0);
    assert_eq!(q.stats.no_flush_commits, 1);
}

#[test]
fn operations_fail_after_terminate_marker() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    drop(rvm);
    // The region handle outlives the instance; reads still work (memory is
    // alive) but the mapping is simply stale — no UB, no panic.
    let _ = region.read_vec(0, 4).unwrap();
}

#[test]
fn empty_transactions_commit_without_logging() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let stats = rvm.stats();
    assert_eq!(stats.txns_committed, 1);
    assert_eq!(stats.bytes_logged, 0);
    assert_eq!(rvm.query().log.used, 0);
}

#[test]
fn large_transactions_spanning_many_pages_recover() {
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 16 * PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let blob: Vec<u8> = (0..10 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        region.write(&mut txn, PAGE_SIZE, &blob).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        std::mem::forget(rvm);
    }
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 16 * PAGE_SIZE))
        .unwrap();
    let got = region.read_vec(PAGE_SIZE, 10 * PAGE_SIZE).unwrap();
    assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
}

#[test]
fn oversized_transaction_reports_log_full() {
    let world = World::new(LOG_OVERHEAD + 8 * 1024);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &vec![1u8; 12 * 1024]).unwrap();
    assert!(matches!(
        txn.commit(CommitMode::Flush),
        Err(RvmError::LogFull { .. })
    ));
}

/// Status blocks take the first 16 KiB of the log device.
const LOG_OVERHEAD: u64 = 16 * 1024;

#[test]
fn empty_flush_commit_drains_the_spool() {
    // A flush-mode commit promises everything committed before it is
    // durable — *including* spooled no-flush commits — even when the
    // flush-mode transaction itself logged nothing. Regression test: the
    // empty-commit fast path used to skip the spool drain entirely,
    // silently weakening the guarantee.
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, b"spooled payload").unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
        assert_eq!(rvm.query().spooled_transactions, 1);

        // An empty transaction committed in flush mode: no ranges, but
        // the spool must hit the log before commit returns.
        let txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        let q = rvm.query();
        assert_eq!(q.spooled_transactions, 0, "spool not drained");
        assert!(q.stats.log_forces >= 1);
        std::mem::forget(rvm); // crash: only the log survives
    }
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(
        region.read_vec(0, 15).unwrap(),
        b"spooled payload",
        "no-flush commit was not durable after an empty flush commit"
    );
}

/// One log writer: a flush commit that finds lazy commits spooled carries
/// them in its own batch — one coalesced write (two when the batch wraps
/// the log), one force — instead of draining them record by record under
/// a force of their own first.
#[test]
fn spooled_commits_ride_the_flush_commits_batch() {
    use rvm_storage::{TraceOpKind, TraceRecorder};

    let recorder = TraceRecorder::new();
    let log = recorder.wrap("log", Arc::new(MemDevice::with_len(1 << 20)));
    let rvm = Rvm::initialize(
        Options::new(log.clone())
            .resolver(MemResolver::new().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();
    let commit = |page: u64, mode| {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region
            .put_u64(&mut txn, page * PAGE_SIZE, page + 1)
            .unwrap();
        txn.commit(mode).unwrap();
    };
    (0..3).for_each(|page| commit(page, CommitMode::NoFlush));
    let (forces, traced) = (rvm.stats().log_forces, recorder.len());
    commit(3, CommitMode::Flush);

    let stats = rvm.stats();
    assert_eq!(stats.log_forces - forces, 1, "one batch, one force");
    assert_eq!(
        (stats.spool_flushes, rvm.query().spooled_transactions),
        (1, 0)
    );
    let ops = recorder.ops().split_off(traced);
    let count = |want_sync: bool| {
        ops.iter()
            .filter(|op| op.device == log.id())
            .filter(|op| matches!(op.kind, TraceOpKind::Sync) == want_sync)
            .count()
    };
    assert_eq!((count(true), count(false)), (1, 1), "{ops:?}");
}

/// What recovery writes to a segment: with a checksum catalog each run
/// of touched pages (four at most) once, whole (it has the verified run
/// in a buffer by then); without one each latest-wins piece once. The
/// same log leaves the same segment bytes either way.
#[test]
fn recovery_writes_pages_with_a_catalog_and_pieces_without() {
    use rvm_storage::{TraceOpKind, TraceRecorder};

    const PAGES: u64 = 8;
    const SLOT: u64 = 256;
    const WRITE: usize = 100;
    let never_truncate = |segment_checksums| Tuning {
        truncation_threshold: 1.0,
        segment_checksums,
        ..Tuning::default()
    };

    // One 100-byte range somewhere in every 256-byte slot, written twice
    // (the older value wholly covered): 128 disjoint pieces with gaps
    // between them. The instance crashes with all of it in the log alone.
    let world = World::new(1 << 20);
    {
        let rvm = world.boot_tuned(never_truncate(false));
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGES * PAGE_SIZE))
            .unwrap();
        for pass in 1..=2u8 {
            for slot in 0..PAGES * PAGE_SIZE / SLOT {
                let at = slot * SLOT + slot.wrapping_mul(0x9E37_79B9) % (SLOT - WRITE as u64);
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                let fill = [pass.wrapping_add(slot as u8) | 0x80; WRITE];
                region.write(&mut txn, at, &fill).unwrap();
                txn.commit(CommitMode::Flush).unwrap();
            }
        }
        assert_eq!(rvm.stats().epoch_truncations, 0);
        std::mem::forget(rvm);
    }
    let crashed_log = world.log.snapshot();

    // Recovers that log onto an empty traced segment; returns the
    // segment's bytes and the (offset, length) of every write it took.
    let recover = |checksums: bool| {
        let recorder = TraceRecorder::new();
        let segments = MemResolver::new();
        let resolver = {
            let (recorder, segments) = (recorder.clone(), segments.clone());
            Arc::new(move |name: &str, min_len: u64| {
                let traced = recorder.wrap(name, segments.resolve(name, min_len)?);
                Ok(traced as Arc<dyn Device>)
            })
        };
        let rvm = Rvm::initialize(
            Options::new(Arc::new(MemDevice::from_image(crashed_log.clone())))
                .resolver(resolver)
                .tuning(never_truncate(checksums)),
        )
        .unwrap();
        let report = rvm.recovery_report();
        assert_eq!(
            (report.records_replayed, report.bytes_applied),
            (256, 128 * WRITE as u64)
        );
        let devices = recorder.devices();
        let is_segment = |id: u32| devices.iter().any(|(d, name)| *d == id && name == "seg");
        let writes: Vec<(u64, usize)> = recorder
            .ops()
            .iter()
            .filter(|op| is_segment(op.device))
            .filter_map(|op| match &op.kind {
                TraceOpKind::Write { offset, data } => Some((*offset, data.len())),
                _ => None,
            })
            .collect();
        (segments.get("seg").unwrap().snapshot(), writes)
    };

    let (by_pieces, piece_writes) = recover(false);
    assert_eq!(piece_writes.len(), 128, "one write per piece");
    assert!(piece_writes.iter().all(|&(_, len)| len == WRITE));

    let (by_pages, page_writes) = recover(true);
    let whole_runs: Vec<_> = (0..PAGES)
        .step_by(4)
        .map(|page| (page * PAGE_SIZE, 4 * PAGE_SIZE as usize))
        .collect();
    assert_eq!(
        page_writes, whole_runs,
        "one write per run of touched pages"
    );
    assert!(by_pages == by_pieces, "segment images differ");
    assert!(by_pages.iter().filter(|&&b| b != 0).count() == 128 * WRITE);
}

mod on_demand {
    use super::*;
    use rvm::LoadPolicy;

    #[test]
    fn on_demand_region_reads_the_committed_image_lazily() {
        let world = World::new(1 << 20);
        // First incarnation persists some data and truncates it into the
        // segment.
        {
            let rvm = world.boot();
            let region = rvm
                .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
                .unwrap();
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 0, b"page zero").unwrap();
            region
                .write(&mut txn, 3 * PAGE_SIZE + 5, b"page three")
                .unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            rvm.terminate().unwrap();
        }
        let rvm = world.boot();
        let region = rvm
            .map_with(
                &RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE),
                LoadPolicy::OnDemand,
            )
            .unwrap();
        assert!(!region.is_fully_loaded());
        assert_eq!(region.read_vec(0, 9).unwrap(), b"page zero");
        assert_eq!(
            region.read_vec(3 * PAGE_SIZE + 5, 10).unwrap(),
            b"page three"
        );
        assert!(!region.is_fully_loaded(), "pages 1-2 still pending");
        region.prefetch(0, 4 * PAGE_SIZE).unwrap();
        assert!(region.is_fully_loaded());
    }

    #[test]
    fn on_demand_transactions_capture_correct_old_values() {
        let world = World::new(1 << 20);
        {
            let rvm = world.boot();
            let region = rvm
                .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                .unwrap();
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 100, &[7; 32]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            rvm.terminate().unwrap();
        }
        let rvm = world.boot();
        let region = rvm
            .map_with(
                &RegionDescriptor::new("seg", 0, PAGE_SIZE),
                LoadPolicy::OnDemand,
            )
            .unwrap();
        // The very first touch is a transactional write: the old-value
        // capture must see the *committed* image, not zeros.
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 100, &[9; 32]).unwrap();
        txn.abort().unwrap();
        assert_eq!(region.read_vec(100, 32).unwrap(), vec![7; 32]);
    }

    #[test]
    fn on_demand_commit_and_recovery_round_trip() {
        let world = World::new(1 << 20);
        {
            let rvm = world.boot();
            let region = rvm
                .map_with(
                    &RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE),
                    LoadPolicy::OnDemand,
                )
                .unwrap();
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region
                .write(&mut txn, PAGE_SIZE + 10, b"lazy but durable")
                .unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            std::mem::forget(rvm);
        }
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
            .unwrap();
        assert_eq!(
            region.read_vec(PAGE_SIZE + 10, 16).unwrap(),
            b"lazy but durable"
        );
    }

    #[test]
    fn eager_regions_report_fully_loaded() {
        let world = World::new(1 << 20);
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        assert!(region.is_fully_loaded());
        region.prefetch(0, PAGE_SIZE).unwrap();
    }
}
