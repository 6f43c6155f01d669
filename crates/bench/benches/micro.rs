//! Criterion micro-benchmarks of the RVM primitives (real wall-clock
//! time of this implementation, complementing the virtual-time harness):
//!
//! * `set_range` — old-value capture + range coalescing;
//! * commit paths — flush (in-memory device), no-flush, no-restore;
//! * record serialization and CRC;
//! * recovery time as a function of log size;
//! * recoverable-allocator alloc/free.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, Region, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
use rvm_alloc::RvmHeap;
use rvm_storage::MemDevice;

fn world(log_bytes: u64, region_pages: u64) -> (Rvm, Region) {
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::with_len(log_bytes)))
            .resolver(MemResolver::new().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("bench", 0, region_pages * PAGE_SIZE))
        .unwrap();
    (rvm, region)
}

fn bench_set_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_range");
    for &len in &[64u64, 1024, 16384] {
        group.throughput(Throughput::Bytes(len));
        group.bench_with_input(BenchmarkId::new("restore", len), &len, |b, &len| {
            let (rvm, region) = world(64 << 20, 16);
            b.iter_batched(
                || rvm.begin_transaction(TxnMode::Restore).unwrap(),
                |mut txn| {
                    txn.set_range(&region, 0, len).unwrap();
                    txn
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("no_restore", len), &len, |b, &len| {
            let (rvm, region) = world(64 << 20, 16);
            b.iter_batched(
                || rvm.begin_transaction(TxnMode::NoRestore).unwrap(),
                |mut txn| {
                    txn.set_range(&region, 0, len).unwrap();
                    txn
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit");
    for &len in &[128u64, 4096] {
        group.throughput(Throughput::Bytes(len));
        group.bench_with_input(BenchmarkId::new("flush", len), &len, |b, &len| {
            let (rvm, region) = world(256 << 20, 16);
            let data = vec![7u8; len as usize];
            let mut i = 0u64;
            b.iter(|| {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region
                    .write(&mut txn, (i * len) % (8 * PAGE_SIZE), &data)
                    .unwrap();
                txn.commit(CommitMode::Flush).unwrap();
                i += 1;
            });
        });
        group.bench_with_input(BenchmarkId::new("no_flush", len), &len, |b, &len| {
            let (rvm, region) = world(256 << 20, 16);
            let data = vec![7u8; len as usize];
            let mut i = 0u64;
            b.iter(|| {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region
                    .write(&mut txn, (i * len) % (8 * PAGE_SIZE), &data)
                    .unwrap();
                txn.commit(CommitMode::NoFlush).unwrap();
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_commit_overhead(c: &mut Criterion) {
    // The fixed, pre-I/O cost of entering the commit path: an empty
    // transaction commits nothing, so this isolates bookkeeping such as
    // the per-commit `Tuning` read (a plain `Copy` read through the
    // RwLock; this used to heap-clone the struct on every commit).
    c.bench_function("commit_empty_no_flush", |b| {
        let (rvm, _region) = world(64 << 20, 16);
        b.iter(|| {
            let txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            txn.commit(CommitMode::NoFlush).unwrap();
        });
    });
}

fn bench_record_codec(c: &mut Criterion) {
    use rvm::log::record::{encode_txn, parse_record, RecordRange};
    use rvm::segment::SegmentId;
    let mut group = c.benchmark_group("record_codec");
    for &len in &[128u64, 4096, 65536] {
        let ranges = vec![RecordRange {
            seg: SegmentId::new(0),
            offset: 0,
            data: vec![0xAB; len as usize],
        }];
        group.throughput(Throughput::Bytes(len));
        group.bench_with_input(BenchmarkId::new("encode", len), &ranges, |b, ranges| {
            b.iter(|| encode_txn(1, 1, ranges));
        });
        let encoded = encode_txn(1, 1, &ranges);
        group.bench_with_input(BenchmarkId::new("decode", len), &encoded, |b, encoded| {
            b.iter(|| parse_record(encoded).unwrap());
        });
    }
    group.finish();

    c.bench_function("crc32_4k", |b| {
        let data = vec![0x5Au8; 4096];
        b.iter(|| rvm::crc32(&data));
    });
}

fn bench_ranges(c: &mut Criterion) {
    use rvm::ranges::{ByteRange, RangeSet};
    // One transaction declaring 10 000 disjoint ranges: quadratic if an
    // insert walks the set from its first member, n log n if it starts
    // at the new range's predecessor.
    c.bench_function("rangeset_insert_10k_disjoint", |b| {
        b.iter(|| {
            let mut set = RangeSet::new();
            for i in 0..10_000u64 {
                set.insert(ByteRange::at(i * 64, 32));
            }
            set
        });
    });
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group.sample_size(10);
    for &txns in &[100u64, 1000, 5000] {
        group.bench_with_input(BenchmarkId::new("replay", txns), &txns, |b, &txns| {
            b.iter_batched(
                || {
                    // Build a crashed world with `txns` committed records.
                    let log = Arc::new(MemDevice::with_len(64 << 20));
                    let segs = MemResolver::new();
                    let rvm = Rvm::initialize(
                        Options::new(log.clone())
                            .resolver(segs.clone().into_resolver())
                            .create_if_empty(),
                    )
                    .unwrap();
                    let region = rvm
                        .map(&RegionDescriptor::new("seg", 0, 64 * PAGE_SIZE))
                        .unwrap();
                    for i in 0..txns {
                        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                        region
                            .write(&mut txn, (i % 512) * 512, &[i as u8; 512])
                            .unwrap();
                        txn.commit(CommitMode::Flush).unwrap();
                    }
                    std::mem::forget(rvm);
                    (log, segs)
                },
                |(log, segs)| {
                    Rvm::initialize(
                        Options::new(log)
                            .resolver(segs.into_resolver())
                            .create_if_empty(),
                    )
                    .unwrap()
                },
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("heap_alloc_free", |b| {
        let (rvm, region) = world(64 << 20, 64);
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let heap = RvmHeap::format(&region, &mut txn).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        b.iter(|| {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            let a = heap.alloc(&region, &mut txn, 128).unwrap();
            heap.free(&region, &mut txn, a).unwrap();
            txn.commit(CommitMode::NoFlush).unwrap();
        });
    });
}

criterion_group!(
    benches,
    bench_set_range,
    bench_commit,
    bench_commit_overhead,
    bench_record_codec,
    bench_ranges,
    bench_recovery,
    bench_allocator
);
criterion_main!(benches);
