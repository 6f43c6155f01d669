//! Pins the transaction path's allocation behaviour from outside the
//! library: a counting global allocator around each phase of a lone
//! committer's TPC-A-shaped transaction. Every growable buffer of a
//! transaction's life comes from a per-thread scratch set and goes back
//! to it, so after warm-up a flush commit, and an abort, allocate
//! nothing; a no-flush commit's record takes its arenas into the spool,
//! so the next one allocates those — and nothing else — anew, unless it
//! subsumes a spooled record: then it gets that record's arenas back.
//! Coda's shape — one object re-declared by consecutive no-flush commits
//! — allocates the arenas of the one record its burst leaves spooled,
//! and nothing per commit.
//!
//! This binary holds exactly one test (see `counting_alloc.rs`).

mod counting {
    include!("counting_alloc.rs");
}

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, Region, RegionDescriptor, Rvm, Transaction, TxnMode, PAGE_SIZE};
use rvm_storage::MemDevice;

const REGION_PAGES: u64 = 64;
/// The four writes of the paper's TPC-A variant: account, teller, branch
/// and history records.
const WRITES: [u64; 4] = [128, 128, 128, 64];
/// A spooled record's arenas — ranges, data, regions, pages — each
/// allocated once, at its exact size: they live in the spool until the
/// drain.
const ALLOCATIONS_PER_SPOOLED_RECORD: u64 = 4;

/// `begin_transaction` and the four writes of transaction `i`, and the
/// allocations they made.
fn begin_and_write(rvm: &Rvm, region: &Region, i: u64) -> (Transaction, u64) {
    let payload = [i as u8; 128];
    let slots = REGION_PAGES * PAGE_SIZE / 128;
    let before = counting::allocations();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    for (k, len) in WRITES.iter().enumerate() {
        let slot = (i * 7919 + k as u64 * 613) % slots;
        region
            .write(&mut txn, slot * 128, &payload[..*len as usize])
            .unwrap();
    }
    (txn, counting::allocations() - before)
}

/// Runs `end` on `rounds` transactions; returns the allocations of the
/// begin-and-write parts and of the endings.
fn phases(rvm: &Rvm, region: &Region, rounds: u64, end: impl Fn(Transaction)) -> (u64, u64) {
    let (mut writes, mut ends) = (0, 0);
    for i in 0..rounds {
        let (txn, spent) = begin_and_write(rvm, region, i);
        writes += spent;
        let before = counting::allocations();
        end(txn);
        ends += counting::allocations() - before;
    }
    (writes, ends)
}

/// One whole 2 KiB object, as Coda writes it.
const OBJECT: u64 = 2048;

/// A burst of `commits` no-flush transactions that each write all of
/// object `object`: the allocations of each one's begin-and-write and of
/// each one's commit.
fn coda_burst(rvm: &Rvm, region: &Region, object: u64, commits: u64) -> Vec<(u64, u64)> {
    let payload = [object as u8; OBJECT as usize];
    (0..commits)
        .map(|_| {
            let before = counting::allocations();
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, object * OBJECT, &payload).unwrap();
            let written = counting::allocations();
            txn.commit(CommitMode::NoFlush).unwrap();
            (written - before, counting::allocations() - written)
        })
        .collect()
}

/// Measured at the parent: 13 allocations in the writes and 13 in the
/// flush commit, every transaction.
#[test]
fn a_steady_state_transaction_allocates_nothing() {
    // A log the run never half fills: no truncation is triggered.
    let log = Arc::new(MemDevice::with_len(16 << 20));
    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(MemResolver::new().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_PAGES * PAGE_SIZE))
        .unwrap();
    let flush = |txn: Transaction| txn.commit(CommitMode::Flush).unwrap();
    let abort = |txn: Transaction| txn.abort().unwrap();
    let lazy = |txn: Transaction| txn.commit(CommitMode::NoFlush).unwrap();

    // Warm-up: the scratch set, the commit queue, the staging buffer, the
    // page queue (every page of the region enqueued once) and the spool
    // reach their working capacity.
    phases(&rvm, &region, 256, flush);
    phases(&rvm, &region, 8, abort);
    phases(&rvm, &region, 64, lazy);
    rvm.flush().unwrap();
    phases(&rvm, &region, 8, flush);

    const ROUNDS: u64 = 100;
    let flushed = phases(&rvm, &region, ROUNDS, flush);
    let aborted = phases(&rvm, &region, ROUNDS, abort);
    // Fewer than the warm-up spooled: the spool's queue has the room.
    let spooled = phases(&rvm, &region, 32, lazy);
    rvm.flush().unwrap();
    // Coda: the first commit of a burst subsumes nothing, so the spool
    // keeps its record, and the next commit allocates arenas anew; each
    // commit after that gets back those of the one it subsumes.
    coda_burst(&rvm, &region, 0, 8);
    rvm.flush().unwrap();
    let bursts: Vec<Vec<(u64, u64)>> = (1..5).map(|o| coda_burst(&rvm, &region, o, 16)).collect();
    rvm.flush().unwrap();
    let report = format!(
        "allocations as (begin + four writes, end) — flush commit: {flushed:?} over {ROUNDS}; \
         abort: {aborted:?} over {ROUNDS}; no-flush commit: {spooled:?} over 32; \
         Coda bursts of one object, per commit: {bursts:?}"
    );
    assert_eq!(flushed, (0, 0), "{report}");
    assert_eq!(aborted, (0, 0), "{report}");
    assert_eq!(spooled.0, 0, "{report}");
    assert!(spooled.1 <= 32 * ALLOCATIONS_PER_SPOOLED_RECORD, "{report}");
    for burst in &bursts {
        let (first_two, rest) = burst.split_at(2);
        assert!(rest.iter().all(|&spent| spent == (0, 0)), "{report}");
        assert!(first_two.iter().all(|&(writes, _)| writes == 0), "{report}");
        let spent: u64 = first_two.iter().map(|&(_, end)| end).sum();
        assert!(spent <= ALLOCATIONS_PER_SPOOLED_RECORD, "{report}");
    }
    assert_eq!(
        rvm.stats().epoch_truncations + rvm.stats().incremental_steps,
        0
    );
    drop(region);
    rvm.terminate().unwrap();
}
