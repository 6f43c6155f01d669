//! Pins the incremental step's allocation behaviour from outside the
//! library: a counting global allocator around the one commit whose
//! trigger runs a step. The step freezes its pages into a buffer the
//! truncation plane keeps, so once that buffer has grown, how many pages
//! a step writes must not show in how much it allocates.
//!
//! This binary holds exactly one test (see `counting_alloc.rs`).

mod counting {
    include!("counting_alloc.rs");
}

use std::sync::Arc;

use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
use rvm::log::status::LOG_AREA_START;
use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, Region, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::MemDevice;

const REGION_PAGES: u64 = 64;
/// Log space one `commit_page` record takes: one 8-byte range.
const RECORD: u64 = (HEADER_SIZE + RANGE_ENTRY_SIZE + 8 + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);

fn tuning(truncation_threshold: f64) -> Tuning {
    Tuning {
        truncation_threshold,
        ..Tuning::default()
    }
}

fn commit_page(rvm: &Rvm, region: &Region, page: u64, value: u64) {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.put_u64(&mut txn, page * PAGE_SIZE, value).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
}

/// Dirties `pages` pages with the trigger off, then arms it and returns
/// how many allocations the next commit — to a page already queued, so
/// its step writes exactly `pages` — makes, trigger and step included.
fn allocations_of_a_step(rvm: &Rvm, region: &Region, pages: u64, round: u64) -> u64 {
    rvm.set_options(tuning(0.99));
    for page in 0..pages {
        commit_page(rvm, region, page, round);
    }
    rvm.set_options(tuning(0.0001));
    let stats = rvm.stats();
    let before = counting::allocations();
    commit_page(rvm, region, 0, round + 1);
    let spent = counting::allocations() - before;
    let stats = rvm.stats().delta_since(&stats);
    assert_eq!(
        (stats.incremental_steps, stats.pages_written_incremental),
        (1, pages),
        "one step, every dirty page"
    );
    assert_eq!(rvm.query().log.used, 0, "the head followed the queue");
    spent
}

/// A steady-state step writing 64 pages allocates no more than one
/// writing 8: nothing on the path — freeze, page writes, catalog
/// updates, completion — allocates per page. Measured: 4 and 4, the
/// commit itself allocating nothing (21 and 21 while it did; the step
/// this one replaced copied every page into a fresh 4 KiB vector and
/// took two steps for 64 pages: 33 and 98).
#[test]
fn step_allocations_do_not_grow_with_the_page_count() {
    // Room for 2 048 records: every round fits, and the nine records of
    // the smallest step fill more than the armed threshold.
    let log = Arc::new(MemDevice::with_len(LOG_AREA_START + 2048 * RECORD));
    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(MemResolver::new().into_resolver())
            .tuning(tuning(0.99))
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_PAGES * PAGE_SIZE))
        .unwrap();
    // Warm-up at the larger size: the plane's buffer, the page queue and
    // the commit path's own buffers reach their working capacity.
    allocations_of_a_step(&rvm, &region, 64, 10);
    let small = allocations_of_a_step(&rvm, &region, 8, 20);
    let large = allocations_of_a_step(&rvm, &region, 64, 30);
    assert!(
        large <= small,
        "a step of 8 pages took {small} allocations, one of 64 took {large}"
    );
    drop(region);
    rvm.terminate().unwrap();
}
