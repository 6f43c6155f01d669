//! The crash-point matrix: a deterministic workload is run against a
//! fault-injecting log device that crashes after N bytes written, for a
//! sweep of N, and the world reboots from the synced image the crash
//! leaves or from each of a sample of crash images (`rvm-images`) that
//! keep torn, dropped or reordered pieces of the unsynced writes. Every
//! one must satisfy the WAL contract:
//!
//! * every transaction whose flush-mode commit *returned* is present;
//! * the recovered state equals the state after some prefix of commits
//!   (atomicity: no transaction is half-applied);
//! * recovery is idempotent.

mod common {
    include!("lib.rs");
}

use std::sync::{Arc, Barrier};

use common::{
    assert_state_is_prefix, for_each_crash_image, run_txn, sample, World, INDEX_OFF, SLOT_SIZE,
};
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{CrashPlan, Device, FaultDevice, MemDevice};

/// Runs the workload over `log` until it crashes; returns the acked
/// commits.
fn run_until_crash(log: Arc<FaultDevice>, segments: &rvm::segment::MemResolver) -> u64 {
    let rvm = match Rvm::initialize(
        Options::new(log)
            .resolver(segments.clone().into_resolver())
            .create_if_empty(),
    ) {
        Ok(rvm) => rvm,
        Err(_) => return 0, // crashed during create/recovery: nothing acked
    };
    let region = match rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)) {
        Ok(r) => r,
        Err(_) => {
            std::mem::forget(rvm);
            return 0;
        }
    };
    let mut acked = 0u64;
    for i in 1..=60u64 {
        match run_txn(&rvm, &region, i) {
            Ok(()) => acked = i,
            Err(_) => break,
        }
    }
    // The machine is dead: no destructors.
    std::mem::forget(rvm);
    acked
}

/// Sweeps the crash point; after each crash, judges the synced image the
/// clock leaves, or with `every_image` each image of a sample of those the
/// crash allows.
fn crash_matrix(every_image: bool) {
    // First, record how many bytes the full scenario writes.
    let world = World::new(1 << 20);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 1..=60 {
            run_txn(&rvm, &region, i).unwrap();
        }
        rvm.terminate().unwrap();
    }
    let total_bytes = {
        // Re-run against a recording FaultDevice to count bytes.
        let segments = rvm::segment::MemResolver::new();
        let inner = Arc::new(MemDevice::with_len(1 << 20));
        let fault = Arc::new(FaultDevice::recording(inner));
        let rvm = Rvm::initialize(
            Options::new(fault.clone())
                .resolver(segments.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 1..=60 {
            run_txn(&rvm, &region, i).unwrap();
        }
        let n = fault.bytes_written();
        rvm.terminate().unwrap();
        n
    };
    assert!(total_bytes > 60 * 512, "sanity: {total_bytes}");

    // Sweep crash points across the whole run.
    let step = (total_bytes / 97).max(1); // a prime-ish sample of points
    let mut points_checked = 0;
    let mut crash_at = step / 2;
    while crash_at < total_bytes {
        let segments = rvm::segment::MemResolver::new();
        let inner = Arc::new(MemDevice::with_len(1 << 20));
        let plan = CrashPlan::lose_unsynced_at(crash_at);
        let fault = Arc::new(FaultDevice::new(inner.clone(), plan));
        let acked = run_until_crash(fault.clone(), &segments);

        // Reboot from the surviving image.
        let judge = |kept: &[bool], world: &World| {
            let rvm = Rvm::initialize(world.options()).unwrap_or_else(|e| {
                panic!("recovery failed at crash point {crash_at}, kept {kept:?}: {e}")
            });
            let region = rvm
                .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                .unwrap();
            let recovered = region.get_u64(INDEX_OFF).unwrap();
            assert!(
                recovered >= acked,
                "crash at {crash_at}, kept {kept:?}: acked {acked} but recovered only {recovered}"
            );
            assert!(recovered <= 60, "crash at {crash_at}");
            assert_state_is_prefix(&region, recovered);
        };
        if every_image {
            for_each_crash_image(&fault.clock(), &inner, &segments, &sample(crash_at), judge);
        } else {
            judge(
                &[],
                &World {
                    log: inner,
                    segments,
                },
            );
        }
        points_checked += 1;
        crash_at += step;
    }
    assert!(points_checked > 60, "checked {points_checked} crash points");
}

#[test]
fn crash_matrix_with_torn_writes() {
    crash_matrix(true);
}

#[test]
fn crash_matrix_with_lost_unsynced_writes() {
    crash_matrix(false);
}

/// Boots an RVM over `log` with a long group-commit accumulation window
/// and runs the group scenario: map, one warm-up flush commit, then
/// `n` barrier-released threads each flush-committing one slot (thread
/// `t` fills slot `t` with byte `10 + t`). Returns the number of group
/// members whose commit was acknowledged.
fn run_group_scenario(log: Arc<dyn Device>, segments: &rvm::segment::MemResolver, n: u64) -> u64 {
    let tuning = Tuning {
        group_commit_wait_us: 30_000,
        ..Tuning::default()
    };
    let rvm = match Rvm::initialize(
        Options::new(log)
            .resolver(segments.clone().into_resolver())
            .tuning(tuning)
            .create_if_empty(),
    ) {
        Ok(rvm) => Arc::new(rvm),
        Err(_) => return 0,
    };
    let region = match rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)) {
        Ok(r) => r,
        Err(_) => {
            std::mem::forget(rvm);
            return 0;
        }
    };
    if run_txn(&rvm, &region, 1).is_err() {
        std::mem::forget(rvm);
        return 0;
    }
    let barrier = Arc::new(Barrier::new(n as usize));
    let threads: Vec<_> = (0..n)
        .map(|t| {
            let rvm = Arc::clone(&rvm);
            let region = region.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut txn = rvm.begin_transaction(TxnMode::Restore)?;
                region.write(&mut txn, t * SLOT_SIZE, &[10 + t as u8; SLOT_SIZE as usize])?;
                txn.commit(CommitMode::Flush)
            })
        })
        .collect();
    let acked = threads
        .into_iter()
        .map(|t| t.join())
        .filter(|r| matches!(r, Ok(Ok(()))))
        .count() as u64;
    std::mem::forget(rvm); // the machine dies
    acked
}

#[test]
fn crash_mid_group_recovers_the_whole_group_or_none() {
    const N: u64 = 4;

    // Measure the byte window the group batch occupies on the log.
    let (before_group, after_group) = {
        let segments = rvm::segment::MemResolver::new();
        let inner = Arc::new(MemDevice::with_len(1 << 20));
        let fault = Arc::new(FaultDevice::recording(inner));
        // Warm-up happens inside; measure around the whole scenario and
        // re-derive the group window from a second recording run that
        // stops after the warm-up.
        let acked = run_group_scenario(fault.clone(), &segments, N);
        assert_eq!(acked, N, "fault-free group run must ack all members");
        let total = fault.bytes_written();

        let segments2 = rvm::segment::MemResolver::new();
        let inner2 = Arc::new(MemDevice::with_len(1 << 20));
        let fault2 = Arc::new(FaultDevice::recording(inner2));
        let acked = run_group_scenario(fault2.clone(), &segments2, 0);
        assert_eq!(acked, 0);
        (fault2.bytes_written(), total)
    };
    assert!(
        after_group > before_group + N * SLOT_SIZE,
        "group window [{before_group}, {after_group}) too small"
    );

    // Sweep a sync-barrier crash (unsynced writes lost) across the group
    // window. Wherever it lands, the recovered image must contain the
    // whole group or none of it: the members shared one force, so no
    // proper subset may be durable. The last point lies past the window,
    // whatever the group's record sizes: there the force completed.
    let step = ((after_group - before_group) / 13).max(1);
    let mut crash_at = before_group + 1;
    let mut none_seen = false;
    let mut all_seen = false;
    while crash_at <= after_group + step {
        let segments = rvm::segment::MemResolver::new();
        let inner = Arc::new(MemDevice::with_len(1 << 20));
        let fault = Arc::new(FaultDevice::new(
            inner.clone(),
            CrashPlan::lose_unsynced_at(crash_at),
        ));
        let acked = run_group_scenario(fault, &segments, N);

        let rvm = Rvm::initialize(
            Options::new(inner)
                .resolver(segments.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_at}: {e}"));
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let present: Vec<bool> = (0..N)
            .map(|t| region.read_vec(t * SLOT_SIZE, 1).unwrap()[0] == 10 + t as u8)
            .collect();
        let count = present.iter().filter(|&&p| p).count() as u64;
        assert!(
            count == 0 || count == N,
            "crash at {crash_at}: partial group recovered: {present:?}"
        );
        if count == 0 {
            none_seen = true;
        } else {
            all_seen = true;
            assert_eq!(acked, N, "members present without every ack at {crash_at}");
        }
        assert!(acked == 0 || count == N, "acked but lost at {crash_at}");
        // The warm-up commit (slot 1 <- byte 1, unless the group
        // overwrote... it did not: the group writes 10+t) must survive
        // every crash point past the warm-up force.
        assert_eq!(region.get_u64(INDEX_OFF).unwrap(), 1, "warm-up lost");
        crash_at += step;
    }
    assert!(
        none_seen && all_seen,
        "sweep never saw both outcomes (none={none_seen}, all={all_seen})"
    );
}

#[test]
fn recovery_is_idempotent_after_a_crash() {
    let segments = rvm::segment::MemResolver::new();
    let inner = Arc::new(MemDevice::with_len(1 << 20));
    // Formatting + the first status writes consume ~33 KB before the
    // first record; crash a few transactions in, inside a record.
    let fault = Arc::new(FaultDevice::new(
        inner.clone(),
        CrashPlan::lose_unsynced_at(35_600),
    ));
    let acked = run_until_crash(fault.clone(), &segments);
    assert!(acked > 0);

    // Over each image, a torn log tail among them: a second recovery over
    // the image a first one left must land in the same state.
    let mut images = 0;
    for_each_crash_image(
        &fault.clock(),
        &inner,
        &segments,
        &sample(35_600),
        |kept, world| {
            let rvm = world.boot();
            let region = rvm
                .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                .unwrap();
            let first = region.get_u64(INDEX_OFF).unwrap();
            assert!(
                first >= acked,
                "kept {kept:?}: acked {acked}, recovered {first}"
            );
            let snapshot: Vec<u8> = world.segments.get("seg").unwrap().snapshot();
            std::mem::forget(rvm); // crash immediately after recovery

            let rvm = world.boot();
            let region = rvm
                .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                .unwrap();
            assert_eq!(region.get_u64(INDEX_OFF).unwrap(), first, "kept {kept:?}");
            let again = world.segments.get("seg").unwrap().snapshot();
            assert_eq!(again, snapshot, "kept {kept:?}");
            images += 1;
        },
    );
    assert!(images > 1, "the crash tore a record");
}

#[test]
fn crash_during_spool_flush_preserves_commit_order_prefix() {
    // No-flush commits build up in the spool; the crash hits mid-flush.
    // Whatever survives, in any image the crash allows, must be a
    // *prefix* of the commit order: seeing transaction i implies seeing
    // every j < i that wrote the log before it.
    for crash_at in [600u64, 2000, 4000, 8000, 16000] {
        let segments = rvm::segment::MemResolver::new();
        let inner = Arc::new(MemDevice::with_len(1 << 20));
        let fault = Arc::new(FaultDevice::new(
            inner.clone(),
            CrashPlan::lose_unsynced_at(crash_at),
        ));
        {
            let rvm = match Rvm::initialize(
                Options::new(fault.clone())
                    .resolver(segments.clone().into_resolver())
                    .create_if_empty(),
            ) {
                Ok(rvm) => rvm,
                Err(_) => continue,
            };
            let Ok(region) = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)) else {
                std::mem::forget(rvm);
                continue;
            };
            for i in 1..=20u64 {
                let Ok(mut txn) = rvm.begin_transaction(TxnMode::Restore) else {
                    break;
                };
                if region.put_u64(&mut txn, i * 8, i).is_err() {
                    break;
                }
                if txn.commit(CommitMode::NoFlush).is_err() {
                    break;
                }
            }
            let _ = rvm.flush(); // may crash here
            std::mem::forget(rvm);
        }

        for_each_crash_image(
            &fault.clock(),
            &inner,
            &segments,
            &sample(crash_at),
            |kept, world| {
                let rvm = world.boot();
                let region = rvm
                    .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
                    .unwrap();
                // Find the highest surviving transaction, then require all
                // lower ones to be present too.
                let mut highest = 0;
                for i in 1..=20u64 {
                    if region.get_u64(i * 8).unwrap() == i {
                        highest = i;
                    }
                }
                for i in 1..=highest {
                    assert_eq!(
                    region.get_u64(i * 8).unwrap(),
                    i,
                    "crash at {crash_at}, kept {kept:?}: transaction {i} missing below survivor {highest}"
                );
                }
            },
        );
    }
}

#[test]
fn segment_data_survives_even_when_log_is_reused() {
    // Commit, truncate (data reaches the segment), crash, recover with an
    // empty log: the segment alone must carry the state.
    let world = World::new(64 * 1024);
    {
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 1..=10 {
            run_txn(&rvm, &region, i).unwrap();
        }
        rvm.truncate().unwrap();
        assert_eq!(rvm.query().log.used, 0);
        std::mem::forget(rvm);
    }
    let rvm = world.boot();
    assert_eq!(rvm.recovery_report().records_replayed, 0);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_state_is_prefix(&region, 10);
}

/// One transaction declaring 20 000 ranges — disjoint, never adjacent, so
/// its range set holds every one — commits and recovers to the
/// generator's image whether the ranges arrive ascending (each insert
/// appends) or in a seeded shuffle (each insert is a binary search and a
/// shift): a third of them are then declared again, overlapping a
/// neighbour's gap, so the set also coalesces at that size.
#[test]
fn a_transaction_of_twenty_thousand_ranges_recovers_in_either_order() {
    const RANGES: u64 = 20_000;
    const STRIDE: u64 = 48;
    let region_len = (RANGES * STRIDE).div_ceil(PAGE_SIZE) * PAGE_SIZE;
    // Range i: 16 to 39 bytes at i * STRIDE, filled with a byte of its own.
    let range = |i: u64| (i * STRIDE, 16 + (i * 7) % 24, (i * 31 + 1) as u8);
    let mut image = vec![0u8; region_len as usize];
    for i in 0..RANGES {
        let (offset, len, fill) = range(i);
        image[offset as usize..(offset + len) as usize].fill(fill);
    }
    let ascending: Vec<u64> = (0..RANGES).collect();
    let mut shuffled = ascending.clone();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for at in (1..shuffled.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        shuffled.swap(at, (x % (at as u64 + 1)) as usize);
    }
    for order in [ascending, shuffled] {
        let world = World::new(4 << 20);
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, region_len))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        for &i in &order {
            let (offset, len, fill) = range(i);
            region
                .write(&mut txn, offset, &vec![fill; len as usize])
                .unwrap();
        }
        // Re-declared, each reaching a byte into the gap behind it: the
        // byte is written with what the image holds there, zero.
        for &i in order.iter().filter(|&&i| i % 3 == 0) {
            let (offset, len, fill) = range(i);
            let mut value = vec![fill; len as usize];
            value.push(0);
            region.write(&mut txn, offset, &value).unwrap();
        }
        txn.commit(CommitMode::Flush).unwrap();
        let stats = rvm.stats();
        assert_eq!(stats.set_range_calls, RANGES + RANGES.div_ceil(3));
        assert!(stats.bytes_saved_intra > 0, "{stats:?}");
        drop(region);
        std::mem::forget(rvm);

        let rvm = world.boot();
        assert_eq!(rvm.recovery_report().records_replayed, 1);
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, region_len))
            .unwrap();
        let recovered = region.read_vec(0, region_len).unwrap();
        assert!(recovered == image, "recovered image differs");
    }
}
