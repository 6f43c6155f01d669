//! Pins the replay path's allocation behaviour from outside the library:
//! a counting global allocator around `Rvm::initialize` (crash recovery),
//! which runs the same scan → tree → apply code as epoch truncation.
//!
//! This binary holds exactly one test (see `counting_alloc.rs`).

mod counting {
    include!("counting_alloc.rs");
}

use std::sync::Arc;

use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
use rvm::log::wal::SCAN_CHUNK_MAX;
use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
use rvm_storage::MemDevice;

const REGION_PAGES: u64 = 16;
/// Log space one of `recover`'s records takes: three 48-byte ranges.
const RECORD: u64 =
    (HEADER_SIZE + 3 * (RANGE_ENTRY_SIZE + 48) + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);

/// What recovering one log cost.
struct Recovery {
    /// Allocations made.
    allocations: u64,
    /// The most bytes live at once above those live before it began.
    peak_bytes: u64,
    /// Records replayed.
    replayed: usize,
    /// Bytes of log between the head and the tail.
    span: u64,
}

/// Commits `records` transactions of three ranges each over one
/// sixteen-page region, crashes, and recovers that log.
fn recover(records: u64) -> Recovery {
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
    let query = rvm.query();
    assert_eq!(query.stats.epoch_truncations, 0);
    let span = query.log.used;
    drop(region);
    rvm.terminate().unwrap();

    let log = Arc::new(MemDevice::from_image(crashed_log));
    let options = Options::new(log).resolver(MemResolver::new().into_resolver());
    let before = counting::allocations();
    let live = counting::reset_peak();
    let rvm = Rvm::initialize(options).unwrap();
    let recovery = Recovery {
        allocations: counting::allocations() - before,
        peak_bytes: counting::peak_live_bytes() - live,
        replayed: rvm.recovery_report().records_replayed,
        span,
    };
    rvm.terminate().unwrap();
    recovery
}

/// Recovering four times the records over the same sixteen pages costs
/// neither four times the allocations nor the memory of the longer log:
/// nothing on the path allocates per record, per range or per tree
/// entry, and the scan holds one window of log, not the span.
#[test]
fn recovery_allocations_do_not_grow_with_the_record_count() {
    // Enough records that the shorter span, too, is read in the scan's
    // largest window.
    const N: u64 = SCAN_CHUNK_MAX / RECORD;
    let small = recover(N);
    let large = recover(4 * N);
    assert_eq!(
        (small.replayed, large.replayed),
        (N as usize, 4 * N as usize)
    );
    // The pages touched are the same sixteen, and the values kept about
    // the same 1 024 slots' worth. Measured: 66 and 69 allocations (83
    // and 86 while catalog adoption read each page into a `Vec` of its
    // own; 16 201 and 64 203 before the borrowed replay path).
    let extra = large.allocations.saturating_sub(small.allocations);
    assert!(
        extra <= 32,
        "recovering {N} records took {} allocations, {} took {}",
        small.allocations,
        4 * N,
        large.allocations
    );
    // Measured: the span grew 1 048 320 → 4 193 280 bytes and the peak
    // 1 860 091 → 2 007 547 bytes, one 1 MiB window and the values. A
    // scan that kept the span it read peaked at 2 481 571 → 5 543 043.
    let span_growth = large.span - small.span;
    let peak_growth = large.peak_bytes.saturating_sub(small.peak_bytes);
    assert!(
        peak_growth < span_growth / 8,
        "the span grew {span_growth} bytes and the peak {} -> {}",
        small.peak_bytes,
        large.peak_bytes
    );
}
