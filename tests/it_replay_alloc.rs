//! Pins the replay path's allocation behaviour from outside the library:
//! a counting global allocator around `Rvm::initialize` (crash recovery),
//! which runs the same scan → tree → apply code as epoch truncation.
//!
//! This binary holds exactly one test (see `counting_alloc.rs`).

mod counting {
    include!("counting_alloc.rs");
}

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
use rvm_storage::MemDevice;

const REGION_PAGES: u64 = 16;

/// Commits `records` transactions of three ranges each over one
/// sixteen-page region, crashes, and returns how many allocations the
/// recovery of that log makes, with what it replayed.
fn allocations_to_recover(records: u64) -> (u64, usize) {
    let log = Arc::new(MemDevice::with_len(64 << 20));
    let segments = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(log.clone())
            .resolver(segments.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_PAGES * PAGE_SIZE))
        .unwrap();
    let slots = REGION_PAGES * PAGE_SIZE / 64;
    for i in 0..records {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        for k in 0..3 {
            let slot = (i * 7 + k * 331) % slots;
            region
                .write(&mut txn, slot * 64, &[(i + k) as u8; 48])
                .unwrap();
        }
        txn.commit(CommitMode::Flush).unwrap();
    }
    // The crash: the log as it is now; the segments as they were when
    // mapped (nothing was truncated into them).
    let crashed_log = log.snapshot();
    assert_eq!(rvm.query().stats.epoch_truncations, 0);
    drop(region);
    rvm.terminate().unwrap();

    let log = Arc::new(MemDevice::from_image(crashed_log));
    let options = Options::new(log).resolver(MemResolver::new().into_resolver());
    let before = counting::allocations();
    let rvm = Rvm::initialize(options).unwrap();
    let spent = counting::allocations() - before;
    let replayed = rvm.recovery_report().records_replayed;
    rvm.terminate().unwrap();
    (spent, replayed)
}

/// Recovering four times the records costs a few more chunks of log, not
/// four times the allocations: nothing on the path allocates per record,
/// per range or per tree entry.
#[test]
fn recovery_allocations_do_not_grow_with_the_record_count() {
    const N: u64 = 2_000;
    let (small, replayed_small) = allocations_to_recover(N);
    let (large, replayed_large) = allocations_to_recover(4 * N);
    assert_eq!(
        (replayed_small, replayed_large),
        (N as usize, 4 * N as usize)
    );
    // 3 MiB more log is three more 1 MiB chunks (bytes + index each); the
    // pages touched are the same sixteen. Measured: 64 and 68 allocations;
    // the commit before the borrowed replay path spent 16 201 and 64 203.
    let extra = large.saturating_sub(small);
    assert!(
        extra <= 32,
        "recovering {N} records took {small} allocations, {} took {large}",
        4 * N
    );
}
