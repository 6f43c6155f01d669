//! Truncation under load: wraparound, threshold triggering, incremental
//! truncation and its epoch fallback, and crashes racing truncation.

mod common {
    include!("lib.rs");
}

use std::sync::Arc;

use common::{Truncator, World};
use rvm::segment::{DeviceResolver, MemResolver};
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, MemDevice, TraceRecorder};

#[test]
fn log_wraps_many_times_under_sustained_load() {
    for truncator in Truncator::both(0.6) {
        // ~38 KiB of record area; each txn consumes 1 KiB of log.
        let world = World::new(40 * 1024);
        let rvm = world.boot_tuned(truncator.tuning());
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
            .unwrap();
        for i in 0..500u64 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region
                .write(&mut txn, (i % 8) * 512, &[(i % 251) as u8; 512])
                .unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            truncator.after_commit(&rvm);
        }
        let log = rvm.query().log;
        assert!(log.tail / log.capacity >= 10, "{truncator:?}: {log:?}");
        assert!(log.utilization <= 0.6 + 1024.0 / log.capacity as f64);
        assert!(
            truncator.runs(&rvm) >= 10,
            "{truncator:?}: {:?}",
            rvm.stats()
        );
        drop(rvm);

        // Everything still consistent after reboot.
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
            .unwrap();
        for slot in 0..8u64 {
            // The last writer of slot s was the largest i < 500 with i%8 == s.
            let i = if 496 + slot < 500 {
                496 + slot
            } else {
                488 + slot
            };
            assert_eq!(
                region.read_vec(slot * 512, 4).unwrap(),
                vec![(i % 251) as u8; 4],
                "{truncator:?}: slot {slot}"
            );
        }
    }
}

#[test]
fn explicit_truncate_empties_the_log_and_applies_data() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    for i in 0..20u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, i * 100, &[7; 100]).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    assert!(rvm.query().log.used > 0);
    rvm.truncate().unwrap();
    assert_eq!(rvm.query().log.used, 0);
    let seg = world.segments.get("seg").unwrap();
    let mut buf = vec![0u8; 100];
    seg.read_at(500, &mut buf).unwrap();
    assert_eq!(buf, vec![7; 100]);
}

#[test]
fn incremental_mode_sustains_load_and_recovers() {
    let world = World::new(128 * 1024);
    let rvm = world.boot_tuned(Tuning {
        truncation_threshold: 0.25,
        incremental_reclaim_bytes: 16 * 1024,
        ..Tuning::default()
    });
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 16 * PAGE_SIZE))
        .unwrap();
    for i in 0..400u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let off = (i % 16) * PAGE_SIZE + (i % 4) * 600;
        region
            .write(&mut txn, off, &[(i % 251) as u8; 600])
            .unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    let stats = rvm.stats();
    assert!(stats.pages_written_incremental > 0, "{stats:?}");
    drop(rvm);

    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 16 * PAGE_SIZE))
        .unwrap();
    for j in 0..16u64 {
        let i = 384 + j;
        let off = (i % 16) * PAGE_SIZE + (i % 4) * 600;
        assert_eq!(
            region.read_vec(off, 4).unwrap(),
            vec![(i % 251) as u8; 4],
            "txn {i}"
        );
    }
}

#[test]
fn incremental_blocked_by_long_transaction_falls_back_to_epoch() {
    use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
    use rvm::log::status::LOG_AREA_START;

    // A record area of 64 of the 128-byte commits below: the 60 of them
    // take it past the critical mark.
    let record = (HEADER_SIZE + RANGE_ENTRY_SIZE + 128 + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);
    let world = World::new(LOG_AREA_START + 64 * record);
    let rvm = world.boot_tuned(Tuning {
        truncation_threshold: 0.2,
        incremental_reclaim_bytes: u64::MAX,
        ..Tuning::default()
    });
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();

    // Pin page 0 with a long-running transaction, then hammer commits to
    // the same page until the log is critical: RVM must revert to epoch
    // truncation rather than fill the log.
    let mut long_txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    long_txn.set_range(&region, 0, 8).unwrap();
    for i in 0..60u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region
            .write(&mut txn, 64 + (i % 8) * 128, &[3; 128])
            .unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    let stats = rvm.stats();
    assert!(
        stats.epoch_truncations > 0,
        "epoch fallback must fire: {stats:?}"
    );
    long_txn.commit(CommitMode::Flush).unwrap();
}

/// `unmap` writes a region back before it lets go of it: the bytes of
/// its flush commit and of its lazy one are on the segment, and none of
/// its pages stays queued for a truncation that could no longer write
/// it from VM.
#[test]
fn unmap_leaves_the_committed_bytes_on_the_segment() {
    let world = World::new(64 * 1024);
    let rvm = world.boot_tuned(Tuning {
        truncation_threshold: 0.9, // no automatic triggering
        ..Tuning::default()
    });
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();
    for (value, mode) in [(1, CommitMode::Flush), (2, CommitMode::NoFlush)] {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region
            .write(&mut txn, value * PAGE_SIZE - 64, &[value as u8; 64])
            .unwrap();
        txn.commit(mode).unwrap();
    }
    assert_eq!(rvm.query().queued_pages, 1);
    rvm.unmap(&region).unwrap();

    let query = rvm.query();
    assert_eq!((query.queued_pages, query.spooled_transactions), (0, 0));
    assert_eq!(query.stats.epoch_truncations, 1, "{query:?}");
    let seg = world.segments.get("seg").unwrap().snapshot();
    assert_eq!(seg[PAGE_SIZE as usize - 64..][..64], [1; 64]);
    assert_eq!(seg[2 * PAGE_SIZE as usize - 64..], [2; 64]);
}

/// A clean region — its pages written back by a truncation — unmaps
/// with no I/O: not one write, sync or resize reaches a device.
#[test]
fn unmap_of_a_clean_region_writes_no_device_byte() {
    let recorder = TraceRecorder::new();
    let segments = MemResolver::new();
    let resolve = segments.clone().into_resolver();
    let traced = recorder.clone();
    let resolver: DeviceResolver =
        Arc::new(move |name, len| Ok(traced.wrap(name, resolve(name, len)?) as Arc<dyn Device>));
    let log = recorder.wrap("log", Arc::new(MemDevice::with_len(64 * 1024)));
    let options = Options::new(log).resolver(resolver).create_if_empty();
    let rvm = Rvm::initialize(options).unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[3; 64]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    rvm.truncate().unwrap();
    assert!(region.dirty_pages().is_empty());

    let before = recorder.len();
    rvm.unmap(&region).unwrap();
    assert_eq!(recorder.len(), before, "{:?}", &recorder.ops()[before..]);
    assert_eq!(segments.get("seg").unwrap().snapshot()[..64], [3; 64]);
}

#[test]
fn extreme_threshold_keeps_the_epoch_fallback_above_the_trigger() {
    // The trigger's "space critical" revert point is `threshold + 0.3`,
    // capped at 0.95. With a threshold above the cap (here 0.97) the
    // uncapped arithmetic would put the revert point *below* the trigger
    // — the clamp must keep it at the threshold so the invariant
    // `trigger <= critical` holds and a blocked queue still falls back to
    // epoch truncation instead of filling the log.
    let world = World::new(20 * 1024);
    let rvm = world.boot_tuned(Tuning {
        truncation_threshold: 0.97,
        incremental_reclaim_bytes: u64::MAX,
        ..Tuning::default()
    });
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();

    // Pin page 0 so incremental truncation is blocked at the queue head,
    // then push the log well past 97% utilization. Every commit must
    // keep succeeding: the revert must engage rather than return LogFull.
    let mut long_txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    long_txn.set_range(&region, 0, 8).unwrap();
    for i in 0..120u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region
            .write(&mut txn, 64 + (i % 8) * 128, &[5; 128])
            .unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    let stats = rvm.stats();
    assert!(
        stats.epoch_truncations > 0,
        "blocked incremental at >97% utilization must revert to epoch: {stats:?}"
    );
    assert!(rvm.query().log.utilization < 0.97);
    long_txn.commit(CommitMode::Flush).unwrap();
}

#[test]
fn truncation_after_no_flush_commits_requires_flush_first() {
    let world = World::new(1 << 20);
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[9; 32]).unwrap();
    txn.commit(CommitMode::NoFlush).unwrap();

    // Paper semantics: truncate covers the write-ahead log only; the
    // spooled commit is untouched.
    rvm.truncate().unwrap();
    assert_eq!(rvm.query().spooled_transactions, 1);
    let seg = world.segments.get("seg").unwrap();
    let mut buf = [0u8; 4];
    seg.read_at(0, &mut buf).unwrap();
    assert_eq!(buf, [0; 4], "spooled data must not reach the segment");

    rvm.flush().unwrap();
    rvm.truncate().unwrap();
    seg.read_at(0, &mut buf).unwrap();
    assert_eq!(buf, [9; 4]);
}

#[test]
fn crash_mid_truncation_is_recoverable() {
    use rvm_storage::{CrashPlan, FaultDevice};

    // Drive a workload whose truncation writes through a fault device on
    // the *segment* side; crashes during segment application must leave
    // the log intact so recovery replays, whatever pieces of the unsynced
    // segment writes each crash image keeps.
    for crash_at in [2000u64, 6000, 12000] {
        let log = Arc::new(MemDevice::with_len(64 * 1024));
        let seg_inner = Arc::new(MemDevice::with_len(PAGE_SIZE));
        let seg_fault = Arc::new(FaultDevice::new(
            seg_inner.clone(),
            CrashPlan::lose_unsynced_at(crash_at),
        ));
        let seg_for_resolver = seg_fault.clone();
        let resolver: rvm::segment::DeviceResolver = Arc::new(move |_n, min| {
            if seg_for_resolver.as_ref().len().unwrap_or(0) < min {
                seg_for_resolver.as_ref().set_len(min)?;
            }
            Ok(seg_for_resolver.clone() as Arc<dyn rvm_storage::Device>)
        });
        let mut committed = 0u64;
        {
            let rvm = Rvm::initialize(
                Options::new(log.clone())
                    .resolver(resolver)
                    .tuning(Tuning {
                        truncation_threshold: 0.15,
                        ..Tuning::default()
                    })
                    .create_if_empty(),
            )
            .unwrap();
            let Ok(region) = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)) else {
                std::mem::forget(rvm);
                continue;
            };
            for i in 1..=40u64 {
                let Ok(mut txn) = rvm.begin_transaction(TxnMode::Restore) else {
                    break;
                };
                if region.put_u64(&mut txn, (i % 16) * 8, i).is_err() {
                    break;
                }
                match txn.commit(CommitMode::Flush) {
                    Ok(()) => committed = i,
                    Err(_) => break,
                }
            }
            std::mem::forget(rvm);
        }

        // Reboot with each (possibly torn) segment image and intact log.
        let devices = [seg_inner as Arc<dyn rvm_storage::Device>];
        let clock = seg_fault.clock();
        rvm_images::crash_images(
            &clock,
            &devices,
            &common::sample(crash_at),
            |kept, images| {
                let world = World::new(0);
                world.log.restore(log.snapshot());
                world.segments.resolve("seg", PAGE_SIZE).unwrap();
                world
                    .segments
                    .get("seg")
                    .unwrap()
                    .restore(images[0].1.clone());
                let rvm = world.boot();
                let region = rvm
                    .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                    .unwrap();
                let recovered: Vec<u64> = (0..16).map(|s| region.get_u64(s * 8).unwrap()).collect();
                // Every acked transaction's slot holds a value >= what it
                // wrote at its last update; full prefix semantics as in the
                // crash matrix are guaranteed because the log survived.
                for i in 1..=committed {
                    let slot = (i % 16) as usize;
                    let latest_writer = (1..=committed).rev().find(|j| j % 16 == i % 16).unwrap();
                    assert_eq!(
                        recovered[slot], latest_writer,
                        "crash_at {crash_at}, kept {kept:?}: slot {slot}"
                    );
                }
                true
            },
        )
        .unwrap();
    }
}
