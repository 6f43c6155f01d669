//! Hardening tests: wire-format stability, tuning-knob behaviour,
//! segment-table limits, and adversarial log images.

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, RvmError, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, MemDevice};

fn world() -> (Arc<MemDevice>, MemResolver) {
    (Arc::new(MemDevice::with_len(2 << 20)), MemResolver::new())
}

fn boot(log: &Arc<MemDevice>, segs: &MemResolver) -> Rvm {
    Rvm::initialize(
        Options::new(log.clone())
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap()
}

fn boot_tuned(log: &Arc<MemDevice>, segs: &MemResolver, tuning: Tuning) -> Rvm {
    Rvm::initialize(
        Options::new(log.clone())
            .resolver(segs.clone().into_resolver())
            .tuning(tuning)
            .create_if_empty(),
    )
    .unwrap()
}

/// The on-disk format must not drift: a fixed transaction must encode to
/// fixed bytes at fixed offsets. If this test fails, bump the format
/// version in the status block instead of silently breaking old logs.
#[test]
fn wire_format_golden_values() {
    use rvm::log::record::{
        encode_txn, RecordRange, HEADER_SIZE, LOG_BLOCK, TRAILER_SIZE, V2_LOG_BLOCK,
    };
    use rvm::segment::SegmentId;

    assert_eq!(HEADER_SIZE, 40);
    assert_eq!(TRAILER_SIZE, 24);
    assert_eq!(LOG_BLOCK, HEADER_SIZE + TRAILER_SIZE);
    assert_eq!((LOG_BLOCK, V2_LOG_BLOCK), (64, 512));

    let buf = encode_txn(
        7,
        42,
        &[RecordRange {
            seg: SegmentId::new(3),
            offset: 0x1122_3344,
            data: vec![0xAA, 0xBB],
        }],
    );
    assert_eq!(buf.len(), 128, "one small range fits two blocks");
    // Header magic "RVM1" little-endian.
    assert_eq!(&buf[0..4], &0x5256_4D31u32.to_le_bytes());
    assert_eq!(buf[4], 1, "kind = txn");
    assert_eq!(&buf[8..16], &7u64.to_le_bytes(), "seq");
    assert_eq!(&buf[16..24], &42u64.to_le_bytes(), "tid");
    assert_eq!(&buf[24..28], &1u32.to_le_bytes(), "num_ranges");
    // Range entry at 40: seg id, offset, len.
    assert_eq!(&buf[40..44], &3u32.to_le_bytes());
    assert_eq!(&buf[48..56], &0x1122_3344u64.to_le_bytes());
    assert_eq!(&buf[56..64], &2u64.to_le_bytes());
    // Data follows the table.
    assert_eq!(&buf[64..66], &[0xAA, 0xBB]);
    // Trailer magic "RVMT" + padded length at the block end.
    assert_eq!(&buf[104..108], &0x5256_4D54u32.to_le_bytes());
    assert_eq!(&buf[120..128], &128u64.to_le_bytes());
}

/// Expands a fixture: hex digits, with `|n|` standing for `n` zero bytes.
fn fixture(rle: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, part) in rle.split('|').enumerate() {
        if i % 2 == 1 {
            out.resize(out.len() + part.parse::<usize>().unwrap(), 0);
        } else {
            out.extend(
                (0..part.len())
                    .step_by(2)
                    .map(|at| u8::from_str_radix(&part[at..at + 2], 16).unwrap()),
            );
        }
    }
    out
}

/// Images written by the commit before the slice-by-16 CRC kernel and the
/// in-place record validator (00f6058), in format version 2: one
/// transaction record and one pad record, padded to 512 bytes, one
/// status-block copy, one `.sums` catalog.
const PARENT_TXN_RECORD: &str = "\
     314d5652010000002a000000000000000700000000000000020000009b000000\
     793db57400000000010000000000000000100000000000006400000000000000\
     0200000000000000070000000000000007000000000000000001020304050607\
     08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627\
     28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041424344454647\
     48494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f6061626355555555\
     555555|293|544d565286b9cb532a000000000000000002000000000000";
const PARENT_PAD_RECORD: &str = "\
     314d56520200000009|19|c00100009070b172|452|544d5652c429a6ae09000\
     000000000000002000000000000";
const PARENT_STATUS_COPY: &str = "\
     31544154534d5652020000000000000005000000000000000006000000000000\
     0010000000000000040000000000000009000000000000000000100000000000\
     0200000000080000000000000500000000000000000000000400000000200000\
     0000000073656741030000000a0000006400000000000000646174612f736567\
     2d62|8058|c9d7acd8";
const PARENT_SUMS_CATALOG: &str = "\
     52564d43010000000300000000000000f1952c200000000007f965d420351e89\
     88f7dfb5";

/// The same transaction, the smallest pad record and the same status as
/// version 3 writes them: records padded to 64 bytes.
const DENSE_TXN_RECORD: &str = "\
     314d5652010000002a000000000000000700000000000000020000009b000000\
     793db5740000000001|8|1000000000000064000000000000000200000000000\
     000070000000000000007|8|0102030405060708090a0b0c0d0e0f1011121314\
     15161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f3031323334\
     35363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f5051525354\
     55565758595a5b5c5d5e5f6061626355555555555555|37|544d565286b9cb53\
     2a|8|01000000000000";
const DENSE_PAD_RECORD: &str = "\
     314d56520200000009|23|a1f43e0500000000544d565269df22650900000000\
     0000004000000000000000";
const DENSE_STATUS_COPY: &str = "\
     31544154534d5652030000000000000005|8|060000000000000010000000000\
     000040000000000000009|9|10000000000002000000000800000000000005|1\
     1|04000000002000000000000073656741030000000a00000064000000000000\
     00646174612f7365672d62|8058|0ed9285d";

/// A crashed version-2 log, as the build before dense records left it:
/// four flush commits to segments `segA` and `segB` (ids 0 and 1), none
/// truncated. And what that build's recovery wrote to each segment.
const PARENT_V2_LOG: &str = "\
     31544154534d5652020000000000000004|23|010000000000000001|8|20000\
     00000000002|23|0400000000100000000000007365674101000000040000000\
     01000000000000073656742|8064|c39f675e31544154534d565202000000000\
     0000003|23|010000000000000001|8|2000000000000001|23|040000000010\
     00000000000073656741|8084|482735e5314d56520100000001000000000000\
     00010000000000000001000000400000000a063b2c|20|280000000000000001\
     02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021\
     22232425262728|384|544d565203449d4401|8|02000000000000314d565201\
     0000000200000000000000020000000000000001000000220000005824c2cc|1\
     2|14000000000000000a000000000000005a5a5a5a5a5a5a5a5a5a|414|544d5\
     6522311e2ad02|8|02000000000000314d565201000000030000000000000003\
     0000000000000001000000280000008a30328c000000000100000000000000a0\
     0f0000000000001000000000000000c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3|4\
     08|544d5652280c975503|8|02000000000000314d5652010000000400000000\
     0000000400000000000000010000002000000067d76785|12|24000000000000\
     0008000000000000007777777777777777|416|544d56520f58e9d604|8|02|6\
     150|";
const PARENT_RECOVERED_SEG_A: &str = "\
     0102030405060708090a0b0c0d0e0f10111213145a5a5a5a5a5a5a5a5a5a1f20\
     212223247777777777777777|4052|";
const PARENT_RECOVERED_SEG_B: &str = "\
     |4000|c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3|80|";

/// `dense` as a version-2 build wrote it: padded on to 512 bytes, with the
/// trailer's length to match.
fn padded_to_v2(dense: &[u8]) -> Vec<u8> {
    let len = dense.len().next_multiple_of(512);
    let (body, trailer) = dense.split_at(dense.len() - 24);
    let mut out = body.to_vec();
    out.resize(len - 24, 0);
    out.extend_from_slice(&trailer[..16]);
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out
}

/// A status copy re-sealed with format `version` in place of its own.
fn with_version(mut copy: Vec<u8>, version: u64) -> Vec<u8> {
    copy[8..16].copy_from_slice(&version.to_le_bytes());
    let crc_at = copy.len() - 4;
    let crc = rvm::crc32(&copy[..crc_at]);
    copy[crc_at..].copy_from_slice(&crc.to_le_bytes());
    copy
}

/// Logs, status blocks and catalogs written before this code must read
/// back, and this code must write the same bytes but for the padding and
/// the version: the checksum kernel, the validator and the alignment
/// changed, the layout did not.
#[test]
fn images_written_by_the_parent_commit_are_reproduced_and_parse() {
    use rvm::log::record::{encode_pad, encode_txn, parse_record, RecordKind, RecordRange};
    use rvm::log::status::StatusBlock;
    use rvm::scrub::SegmentChecksums;
    use rvm::segment::{SegmentId, SegmentInfo};

    let ranges = vec![
        RecordRange {
            seg: SegmentId::new(1),
            offset: 4096,
            data: (0u8..100).collect(),
        },
        RecordRange {
            seg: SegmentId::new(2),
            offset: 7,
            data: vec![0x55; 7],
        },
    ];
    let txn = fixture(PARENT_TXN_RECORD);
    let dense = encode_txn(42, 7, &ranges);
    assert_eq!(dense, fixture(DENSE_TXN_RECORD));
    assert_eq!(padded_to_v2(&dense), txn);
    assert_eq!(parse_record(&dense), parse_record(&txn));
    let (header, decoded) = parse_record(&txn).expect("parent's record parses");
    assert_eq!(
        (header.kind, header.seq, header.tid),
        (RecordKind::Txn, 42, 7)
    );
    assert_eq!(decoded.unwrap().ranges, ranges);

    assert_eq!(encode_pad(9, 64), fixture(DENSE_PAD_RECORD));
    let pad = fixture(PARENT_PAD_RECORD);
    assert_eq!(encode_pad(9, 512), pad);
    let (header, decoded) = parse_record(&pad).expect("parent's pad parses");
    assert_eq!((header.kind, header.seq), (RecordKind::Pad, 9));
    assert!(decoded.is_none());

    let mut status = StatusBlock::fresh(1 << 20);
    status.seq = 5;
    status.head = 1536;
    status.tail = 4096;
    status.seq_at_head = 4;
    status.next_seq = 9;
    status.epoch_end = 2048;
    status.epoch_next_seq = 5;
    for (id, name, min_len) in [(0, "segA", 8192), (3, "data/seg-b", 100)] {
        status.segments.push(SegmentInfo {
            id: SegmentId::new(id),
            name: name.to_owned(),
            min_len,
        });
    }
    let copy = fixture(PARENT_STATUS_COPY);
    assert_eq!(status.encode(), fixture(DENSE_STATUS_COPY));
    assert_eq!(with_version(status.encode(), 2), copy);
    assert_eq!(StatusBlock::decode(&copy), Some(status));

    let seg_len = 2 * PAGE_SIZE + 100;
    let seg = MemDevice::with_len(seg_len);
    let image: Vec<u8> = (0..seg_len).map(|i| (i % 251) as u8).collect();
    seg.write_at(0, &image).unwrap();
    let catalog = fixture(PARENT_SUMS_CATALOG);
    let side = Arc::new(MemDevice::with_len(0));
    SegmentChecksums::open(side.clone(), &seg, seg_len).unwrap();
    assert_eq!(
        side.snapshot(),
        catalog,
        "adoption writes the parent's bytes"
    );
    let loaded = SegmentChecksums::load_readonly(&MemDevice::from_image(catalog))
        .unwrap()
        .expect("parent's catalog validates");
    assert_eq!(loaded.len(), 3);
    assert_eq!(loaded[2], rvm::crc32(&image[2 * PAGE_SIZE as usize..]));
}

/// A crashed version-2 log recovers to the segment bytes the version-2
/// build's own recovery wrote, its status comes back as version 3, and
/// the dense records appended after its 512-byte ones recover too.
#[test]
fn a_version_2_log_recovers_and_is_rewritten_as_version_3() {
    use rvm::log::status::{read_status, STATUS_A_OFFSET, STATUS_BLOCK_SIZE, STATUS_B_OFFSET};

    let log = Arc::new(MemDevice::from_image(fixture(PARENT_V2_LOG)));
    let segs = MemResolver::new();
    let rvm = boot(&log, &segs);
    assert_eq!(rvm.recovery_report().records_replayed, 4);
    let seg_image = |name: &str| {
        let dev = segs.get(name).unwrap();
        let mut image = vec![0u8; dev.len().unwrap() as usize];
        dev.read_at(0, &mut image).unwrap();
        image
    };
    assert_eq!(seg_image("segA"), fixture(PARENT_RECOVERED_SEG_A));
    assert_eq!(seg_image("segB"), fixture(PARENT_RECOVERED_SEG_B));
    let seq = read_status(log.as_ref()).unwrap().seq;
    let newest = if seq.is_multiple_of(2) {
        STATUS_A_OFFSET
    } else {
        STATUS_B_OFFSET
    };
    let mut copy = vec![0u8; STATUS_BLOCK_SIZE as usize];
    log.read_at(newest, &mut copy).unwrap();
    assert_eq!(copy[8..16], 3u64.to_le_bytes(), "rewritten as version 3");

    let region = rvm
        .map(&RegionDescriptor::new("segA", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 8, b"dense").unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let crashed = Arc::new(MemDevice::from_image(log.snapshot()));
    drop(region);
    rvm.terminate().unwrap();
    let rvm = boot(&crashed, &MemResolver::new());
    assert_eq!(rvm.recovery_report().records_replayed, 1);
}

/// A status copy whose magic and CRC hold but whose format version this
/// build does not read is refused, even with `create_if_empty`, and the
/// log is left as it was; a blank or torn status area still formats.
#[test]
fn a_log_of_an_unknown_version_is_refused_and_left_untouched() {
    use rvm::log::status::{StatusBlock, STATUS_A_OFFSET, STATUS_B_OFFSET};

    let log = Arc::new(MemDevice::with_len(2 << 20));
    let foreign = with_version(StatusBlock::fresh(1 << 20).encode(), 99);
    log.write_at(STATUS_A_OFFSET, &foreign).unwrap();
    let before = log.snapshot();
    let options = Options::new(log.clone()).resolver(MemResolver::new().into_resolver());
    let Err(RvmError::BadLog(msg)) = Rvm::initialize(options.create_if_empty()) else {
        panic!("a version-99 status must be refused");
    };
    assert!(
        msg.contains("version 99") && msg.contains("[2, 3]"),
        "{msg}"
    );
    assert!(log.snapshot() == before, "the device is untouched");

    // Torn: copy B's bytes damaged, copy A blank.
    log.write_at(STATUS_A_OFFSET, &vec![0u8; foreign.len()])
        .unwrap();
    log.write_at(STATUS_B_OFFSET, &foreign[..100]).unwrap();
    let rvm = boot(&log, &MemResolver::new());
    assert_eq!(rvm.recovery_report().records_replayed, 0);
}

#[test]
fn status_area_layout_is_stable() {
    use rvm::log::status::{LOG_AREA_START, STATUS_A_OFFSET, STATUS_BLOCK_SIZE, STATUS_B_OFFSET};
    assert_eq!(STATUS_BLOCK_SIZE, 8192);
    assert_eq!(STATUS_A_OFFSET, 0);
    assert_eq!(STATUS_B_OFFSET, 8192);
    assert_eq!(LOG_AREA_START, 16384);
}

#[test]
fn spool_max_bytes_triggers_automatic_flush() {
    let (log, segs) = world();
    let rvm = boot_tuned(
        &log,
        &segs,
        Tuning {
            spool_max_bytes: 2_000,
            ..Tuning::default()
        },
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    // Each no-flush commit spools ~600+ record bytes; the fourth must
    // push past 2000 and auto-flush.
    for i in 0..4u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, i * 600, &[1; 512]).unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
    }
    let q = rvm.query();
    assert!(q.stats.spool_flushes >= 1, "{:?}", q.stats);
    assert!(q.spool_bytes < 2_000);
}

#[test]
fn set_options_changes_behaviour_at_runtime() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    // Intra optimization on: duplicates coalesce.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let saved_before = rvm.stats().bytes_saved_intra;
    assert_eq!(saved_before, 100);

    // Turn it off: duplicates are logged verbatim.
    let mut tuning = rvm.options();
    tuning.intra_optimization = false;
    rvm.set_options(tuning);
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.set_range(&region, 0, 100).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(
        rvm.stats().bytes_saved_intra,
        saved_before,
        "no new savings"
    );
}

#[test]
fn many_segments_fill_and_overflow_the_table() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    // Names of ~40 bytes each consume ~56 bytes of table; the 8 KiB
    // status block holds ~140 such entries.
    let mut mapped = 0u32;
    let err = loop {
        let name = format!("segment-{mapped:04}-{}", "x".repeat(24));
        match rvm.map(&RegionDescriptor::new(&name, 0, PAGE_SIZE)) {
            Ok(_) => mapped += 1,
            Err(e) => break e,
        }
        assert!(mapped < 500, "table never filled");
    };
    assert!(matches!(err, RvmError::SegmentTableFull));
    assert!(mapped > 100, "plenty of segments fit first: {mapped}");

    // The instance keeps working on existing segments.
    let region = rvm
        .map(&RegionDescriptor::new(
            "segment-0000-xxxxxxxxxxxxxxxxxxxxxxxx",
            PAGE_SIZE,
            PAGE_SIZE,
        ))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[1; 8]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
}

/// A run with `segment_checksums` off overwrites the header of the valid
/// `.sums` catalog it finds — and nothing else — so the sidecar is one
/// more image without a self-consistent catalog: read-only tools see
/// none, and the next run with checksums adopts from the segment.
#[test]
fn a_sidecar_invalidated_by_a_run_without_checksums_reads_as_no_catalog() {
    use rvm::scrub::SegmentChecksums;
    let (log, segs) = world();
    let desc = RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE);
    {
        let rvm = boot(&log, &segs);
        let region = rvm.map(&desc).unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 100, &[7; 5000]).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        rvm.truncate().unwrap();
        rvm.terminate().unwrap();
    }
    let side = segs.get("seg.sums").unwrap();
    let valid = side.snapshot();
    let entries = SegmentChecksums::load_readonly(side.as_ref()).unwrap();
    assert_eq!(entries.map(|e| e.len()), Some(2));

    {
        let off = Tuning {
            segment_checksums: false,
            ..Tuning::default()
        };
        let rvm = boot_tuned(&log, &segs, off);
        rvm.map(&desc).unwrap(); // opening the segment is enough
        rvm.terminate().unwrap();
    }
    let invalidated = side.snapshot();
    assert_eq!(invalidated.len(), valid.len());
    assert_eq!(invalidated[..24], [0u8; 24], "the header is gone");
    assert_eq!(invalidated[24..], valid[24..], "the table was not touched");
    let entries = SegmentChecksums::load_readonly(side.as_ref()).unwrap();
    assert_eq!(entries, None, "no self-consistent catalog");

    // The segment did not change meanwhile, so adoption writes back the
    // very catalog the first run left.
    let rvm = boot(&log, &segs);
    let region = rvm.map(&desc).unwrap();
    assert_eq!(region.read_vec(100, 5000).unwrap(), [7; 5000]);
    assert_eq!(side.snapshot(), valid);
}

#[test]
fn garbage_log_device_is_rejected_without_create_flag() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    log.write_at(0, &[0xAB; 1024]).unwrap();
    let err = Rvm::initialize(Options::new(log)).expect_err("must fail");
    assert!(matches!(err, RvmError::BadLog(_)));
}

#[test]
fn truncated_log_device_is_rejected() {
    // Status claims a bigger area than the device holds (device shrank).
    let (log, segs) = world();
    {
        let rvm = boot(&log, &segs);
        rvm.terminate().unwrap();
    }
    log.set_len(64 * 1024).unwrap();
    let err = Rvm::initialize(
        Options::new(log)
            .resolver(segs.into_resolver())
            .create_if_empty(),
    )
    .expect_err("shrunken device must be rejected");
    assert!(matches!(err, RvmError::BadLog(_)), "{err}");
}

#[test]
fn adversarial_random_bytes_in_record_area_never_replay() {
    // Fill the record area with pseudo-random garbage: recovery must
    // find an empty log (seq/CRC checks), not crash or apply junk.
    let (log, segs) = world();
    {
        let rvm = boot(&log, &segs);
        rvm.terminate().unwrap();
    }
    let mut junk = vec![0u8; 256 * 1024];
    let mut x = 0x9E3779B97F4A7C15u64;
    for b in junk.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    log.write_at(16384, &junk).unwrap();
    let rvm = boot(&log, &segs);
    assert_eq!(rvm.recovery_report().records_replayed, 0);
}

/// A log device that counts the reads a scan issues.
struct CountingReads {
    inner: MemDevice,
    reads: std::sync::atomic::AtomicU64,
    bytes: std::sync::atomic::AtomicU64,
}

impl CountingReads {
    fn over(inner: MemDevice) -> Self {
        CountingReads {
            inner,
            reads: Default::default(),
            bytes: Default::default(),
        }
    }

    /// `(reads, bytes read)` since the last call.
    fn take(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.reads.swap(0, Relaxed), self.bytes.swap(0, Relaxed))
    }
}

impl Device for CountingReads {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        use std::sync::atomic::Ordering::Relaxed;
        self.reads.fetch_add(1, Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Relaxed);
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        self.inner.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        self.inner.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.inner.set_len(len)
    }
}

/// The forward scan reads the span in a few growing chunks, each byte at
/// most once, across the physical end of the area — and an empty log
/// costs one small read, not the area. Every record the visitor is
/// handed holds its own bytes, though the window has been refilled
/// around it many times.
#[test]
fn scan_reads_the_span_in_chunks_across_the_wrap() {
    use rvm::log::record::{borrowed, record_bytes, RecordRange, LOG_BLOCK};
    use rvm::log::status::LOG_AREA_START;
    use rvm::log::wal::{scan_forward, scan_records, StagingBuf, Wal};
    use rvm::segment::SegmentId;

    let area = 512 << 10;
    let dev = Arc::new(CountingReads::over(MemDevice::with_len(
        LOG_AREA_START + area,
    )));
    let scan = scan_records(dev.as_ref(), area, 0, 1, None, |pos, _| {
        panic!("an empty log holds no record, not one at {pos}")
    })
    .unwrap();
    assert_eq!((scan.records, scan.tail), (0, 0));
    assert_eq!(dev.take(), (1, 64 << 10), "an empty log costs one read");

    // Records of many blocks, so chunk ends fall inside records and the
    // scan has to carry a partial record into its next read.
    let record = |tid: u64| {
        vec![RecordRange {
            seg: SegmentId::new(0),
            offset: tid * 8,
            data: vec![tid as u8; 1000],
        }]
    };
    let padded = record_bytes(borrowed(&record(0))).next_multiple_of(LOG_BLOCK);
    let mut wal = Wal::new(dev.clone(), area, 0, 0, 1, 1);
    // One record at a time, staged and written as the commit plane does.
    let append = |wal: &mut Wal, tid: u64| {
        let mut staging = StagingBuf::default();
        wal.append_staged(tid, borrowed(&record(tid)), &mut staging)
            .unwrap();
        wal.write_staged(&staging).unwrap();
    };
    for tid in 1..=300 {
        append(&mut wal, tid);
    }
    // Drop the first 200 and run the tail around the physical end.
    wal.advance_head(200 * padded, 201);
    for tid in 301..=500 {
        append(&mut wal, tid);
    }
    assert!(wal.tail() > area, "the live span wraps");

    dev.take();
    let (mut tids, mut ranges) = (Vec::new(), 0);
    let span = scan_records(
        dev.as_ref(),
        area,
        wal.head(),
        wal.seq_at_head(),
        None,
        |_, view| {
            let tid = view.header().tid;
            tids.push(tid);
            for range in view.ranges() {
                assert_eq!(range.start, tid * 8);
                assert_eq!(range.data, &[tid as u8; 1000][..], "record {tid}");
                ranges += 1;
            }
        },
    )
    .unwrap();
    let (reads, bytes) = dev.take();
    assert_eq!((span.tail, span.next_seq), (wal.tail(), wal.next_seq()));
    assert_eq!((span.records, ranges, span.pads), (300, 300, 1));
    assert!(
        reads <= 6,
        "{reads} reads for a {} KiB span",
        (300 * padded) >> 10
    );
    assert!(bytes <= area, "{bytes} bytes read: no byte twice");
    assert_eq!(tids, (201..=500).collect::<Vec<u64>>());

    // The owned adapter reports the same records, and a stop offset bounds
    // the reads to the span asked for.
    let owned = scan_forward(dev.as_ref(), area, wal.head(), wal.seq_at_head(), None).unwrap();
    assert_eq!(owned.records.len(), 300);
    assert!(owned
        .records
        .iter()
        .zip(201..)
        .all(|((_, r), tid)| r.tid == tid));
    dev.take();
    let stop = wal.head() + 10 * padded;
    let short = scan_records(
        dev.as_ref(),
        area,
        wal.head(),
        wal.seq_at_head(),
        Some(stop),
        |_, _| {},
    )
    .unwrap();
    assert_eq!((short.records, short.tail), (10, stop));
    assert_eq!(dev.take(), (1, 10 * padded));
}

/// Commits `writes` as one flush transaction each over one region of
/// `region_len` bytes, hands `damage` a copy of the log as the crash
/// left it, and recovers that copy onto empty segments — so everything
/// the recovered region holds came from the log. Returns the region's
/// bytes and the records replayed.
fn commit_crash_recover(
    log_len: u64,
    region_len: u64,
    writes: &[(u64, Vec<u8>)],
    damage: impl FnOnce(&MemDevice),
) -> (Vec<u8>, usize) {
    let log = Arc::new(MemDevice::with_len(log_len));
    let segs = MemResolver::new();
    let desc = RegionDescriptor::new("seg", 0, region_len);
    let rvm = boot(&log, &segs);
    let region = rvm.map(&desc).unwrap();
    for (offset, data) in writes {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, *offset, data).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    }
    let crashed = MemDevice::from_image(log.snapshot());
    let q = rvm.query().stats;
    assert_eq!(
        (q.epoch_truncations, q.incremental_steps),
        (0, 0),
        "the log holds every write"
    );
    drop(region);
    rvm.terminate().unwrap();

    damage(&crashed);
    let rvm = boot(&Arc::new(crashed), &MemResolver::new());
    let replayed = rvm.recovery_report().records_replayed;
    let image = rvm.map(&desc).unwrap().read_vec(0, region_len).unwrap();
    (image, replayed)
}

/// `writes` applied in order over `len` zero bytes.
fn applied(len: u64, writes: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut image = vec![0u8; len as usize];
    for (offset, data) in writes {
        image[*offset as usize..][..data.len()].copy_from_slice(data);
    }
    image
}

/// A transaction record three times the scan's largest read: the window
/// grows to hold it whole, between small records read the usual way,
/// and recovery restores every byte.
#[test]
fn a_record_larger_than_the_scan_window_recovers() {
    use rvm::log::wal::SCAN_CHUNK_MAX;

    let big = 3 * SCAN_CHUNK_MAX;
    let region_len = big + 16 * PAGE_SIZE;
    let small = |i: u64| (i * 4099 % (region_len - 512), vec![i as u8 + 1; 512]);
    let mut writes: Vec<(u64, Vec<u8>)> = (0..5).map(small).collect();
    let blob: Vec<u8> = (0..big).map(|i| (i % 249) as u8).collect();
    writes.push((PAGE_SIZE + 7, blob));
    writes.extend((5..10).map(small));

    let (image, replayed) = commit_crash_recover(16 << 20, region_len, &writes, |_| {});
    assert_eq!(replayed, writes.len());
    assert!(
        image == applied(region_len, &writes),
        "recovered bytes differ"
    );
}

/// A record torn past the point where the scan's first read ends: the
/// scan refills its window to validate it, finds it torn, and ends the
/// log just before it — the records before it recovered byte for byte,
/// it and those after it not at all.
#[test]
fn a_torn_record_straddling_a_window_refill_ends_the_log() {
    use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
    use rvm::log::status::{read_status, LOG_AREA_START};
    use rvm::log::wal::scan_forward;

    let region_len = 16 * PAGE_SIZE;
    let first_read = 64 << 10;
    // Records of many blocks, spanning two first reads: one of them
    // straddles the first read's end.
    let padded = (HEADER_SIZE + RANGE_ENTRY_SIZE + 1000 + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);
    let writes: Vec<(u64, Vec<u8>)> = (0..2 * first_read / padded)
        .map(|i| (i * 1009 % (region_len - 1000), vec![i as u8 + 1; 1000]))
        .collect();
    let mut torn = None;
    let (image, replayed) = commit_crash_recover(2 << 20, region_len, &writes, |log| {
        let status = read_status(log).unwrap();
        let scan = scan_forward(log, status.area_len, status.head, status.seq_at_head, None);
        let records = scan.unwrap().records;
        let ends = records.iter().skip(1).map(|(pos, _)| *pos);
        let (k, end) = ends
            .enumerate()
            .find(|&(_, end)| end > status.head + first_read)
            .unwrap();
        let start = records[k].0;
        assert!(start < status.head + first_read, "record {k} straddles");
        // Its trailer lies past the first read.
        log.write_at(LOG_AREA_START + end - TRAILER_SIZE, &[0xEE; 4])
            .unwrap();
        torn = Some(k);
    });
    let torn = torn.unwrap();
    assert!(torn > 10, "the first read holds {torn} records");
    assert_eq!(replayed, torn);
    assert!(
        image == applied(region_len, &writes[..torn]),
        "recovered bytes differ"
    );
}

/// Status copies with a valid CRC and a hostile segment table: a name
/// length near `u32::MAX`, more entries than the block holds, a name
/// that is not UTF-8. Each is no status at all — `initialize` refuses
/// the log with an error, and nothing panics or allocates by the count.
#[test]
fn a_status_block_with_a_hostile_segment_table_is_refused() {
    use rvm::log::status::{StatusBlock, STATUS_A_OFFSET, STATUS_BLOCK_SIZE, STATUS_B_OFFSET};
    use rvm::segment::{SegmentId, SegmentInfo};

    let mut status = StatusBlock::fresh(1 << 20);
    status.segments.push(SegmentInfo {
        id: SegmentId::new(0),
        name: "seg".to_owned(),
        min_len: 4096,
    });
    let good = status.encode();
    assert_eq!(StatusBlock::decode(&good), Some(status));

    // The segment count at 64; the first entry at 84: id, name length,
    // minimum length, name.
    type Forgery<'a> = (&'a str, &'a dyn Fn(&mut Vec<u8>));
    let forgeries: [Forgery; 4] = [
        ("name length near u32::MAX", &|b| {
            b[88..92].copy_from_slice(&(u32::MAX - 3).to_le_bytes())
        }),
        ("name length one past the block", &|b| {
            let past = STATUS_BLOCK_SIZE as u32 - 84 - 16 - 4 + 1;
            b[88..92].copy_from_slice(&past.to_le_bytes())
        }),
        ("more entries than the block holds", &|b| {
            b[64..68].copy_from_slice(&u32::MAX.to_le_bytes())
        }),
        ("a name that is not UTF-8", &|b| {
            b[100..103].copy_from_slice(&[0xC3, 0x28, 0xFF])
        }),
    ];
    for (what, forge) in forgeries {
        let mut block = good.clone();
        forge(&mut block);
        let crc_at = block.len() - 4;
        let crc = rvm::crc32(&block[..crc_at]);
        block[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(StatusBlock::decode(&block), None, "{what}");

        let log = Arc::new(MemDevice::with_len(2 << 20));
        log.write_at(STATUS_A_OFFSET, &block).unwrap();
        log.write_at(STATUS_B_OFFSET, &block).unwrap();
        let err = Rvm::initialize(Options::new(log)).expect_err(what);
        assert!(matches!(err, RvmError::BadLog(_)), "{what}: {err}");
    }
}

/// Forged records with *valid* checksums and lying lengths, a log cut
/// short, a stop offset inside a record: the in-place validator ends the
/// log there (or accepts what the old two-read scan accepted) and never
/// panics.
#[test]
fn hostile_lengths_end_the_log_without_panicking() {
    use rvm::log::record::{encode_txn, parse_record, RecordRange, HEADER_SIZE, LOG_BLOCK};
    use rvm::log::status::LOG_AREA_START;
    use rvm::log::wal::scan_forward;
    use rvm::segment::SegmentId;

    let good = |seq: u64| {
        encode_txn(
            seq,
            seq,
            &[
                RecordRange {
                    seg: SegmentId::new(0),
                    offset: 0,
                    data: vec![seq as u8; 600],
                },
                RecordRange {
                    seg: SegmentId::new(0),
                    offset: 4096,
                    data: vec![seq as u8; 8],
                },
            ],
        )
    };
    // Re-seals a patched record so header CRC and record CRC hold again.
    let reseal = |image: &mut Vec<u8>| {
        let crc = rvm::crc32(&image[..32]);
        image[32..36].copy_from_slice(&crc.to_le_bytes());
        let payload = u32::from_le_bytes(image[28..32].try_into().unwrap()) as usize;
        let body = (HEADER_SIZE as usize + payload).min(image.len());
        let crc = rvm::crc32(&image[..body]);
        let trailer = image.len() - 24;
        image[trailer + 4..trailer + 8].copy_from_slice(&crc.to_le_bytes());
    };
    // An area of four records; `rec` bytes, a whole number of blocks, each.
    let rec = good(1).len() as u64;
    let area = 4 * rec;
    // Scans a log holding `good(1)`, then `second` where record 2 belongs.
    let scan_with = |second: &[u8], dev_len: u64, stop: Option<u64>| {
        let dev = MemDevice::with_len(LOG_AREA_START + area);
        dev.write_at(LOG_AREA_START, &good(1)).unwrap();
        dev.write_at(LOG_AREA_START + rec, second).unwrap();
        dev.set_len(dev_len).unwrap();
        scan_forward(&dev, area, 0, 1, stop).unwrap()
    };
    let whole = LOG_AREA_START + area;
    assert!(rec.is_multiple_of(LOG_BLOCK) && rec > LOG_BLOCK);
    assert_eq!(scan_with(&good(2), whole, None).records.len(), 2);

    type Forgery<'a> = (&'a str, &'a dyn Fn(&mut Vec<u8>));
    let forgeries: [Forgery; 5] = [
        ("payload length past the lap end", &|r| {
            r[28..32].copy_from_slice(&(1u32 << 20).to_le_bytes())
        }),
        ("payload length filling the rest of the lap", &|r| {
            r[28..32].copy_from_slice(&((3 * rec - HEADER_SIZE - 24) as u32).to_le_bytes())
        }),
        ("range table larger than the payload", &|r| {
            r[24..28].copy_from_slice(&u32::MAX.to_le_bytes())
        }),
        ("range length past the payload", &|r| {
            r[56..64].copy_from_slice(&u64::MAX.to_le_bytes())
        }),
        ("range lengths short of the payload", &|r| {
            r[56..64].copy_from_slice(&599u64.to_le_bytes())
        }),
    ];
    for (what, forge) in forgeries {
        let mut record = good(2);
        forge(&mut record);
        reseal(&mut record);
        assert!(parse_record(&record).is_none(), "{what}: parse_record");
        let scan = scan_with(&record, whole, None);
        assert_eq!(scan.records.len(), 1, "{what}");
        assert_eq!((scan.tail, scan.next_seq), (rec, 2), "{what}");
    }

    // The device ends inside record 2, and inside its header.
    for cut in [rec + LOG_BLOCK, rec + 20] {
        let scan = scan_with(&good(2), LOG_AREA_START + cut, None);
        assert_eq!((scan.records.len(), scan.tail), (1, rec));
    }
    // A record that begins below the stop offset is scanned whole.
    let scan = scan_with(&good(2), whole, Some(rec + 8));
    assert_eq!((scan.records.len(), scan.tail), (2, 2 * rec));
}

/// A record with valid checksums whose range lies past everything the
/// segment table says its segment holds — at 1 TiB (recovery used to
/// abort allocating it) and at 100 MB (it used to grow the segment to
/// that) of a one-page segment: `initialize` refuses the log with
/// `BadLog` naming the segment, and leaves the log and the segment as
/// they were.
#[test]
fn a_record_past_its_segment_table_entry_is_refused() {
    use rvm::log::record::{encode_txn, RecordRange};
    use rvm::log::status::{read_status, LOG_AREA_START};
    use rvm::log::wal::scan_forward;
    use rvm::segment::SegmentId;

    for offset in [1u64 << 40, 100_000_000] {
        let (log, segs) = world();
        let rvm = boot(&log, &segs);
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, &[1; 64]).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        let crashed = Arc::new(MemDevice::from_image(log.snapshot()));
        drop(region);
        rvm.terminate().unwrap();

        let status = read_status(crashed.as_ref()).unwrap();
        let scan = scan_forward(
            crashed.as_ref(),
            status.area_len,
            status.head,
            status.seq_at_head,
            None,
        );
        let scan = scan.unwrap();
        let forged = RecordRange {
            seg: SegmentId::new(0),
            offset,
            data: vec![7; 8],
        };
        let record = encode_txn(scan.next_seq, 99, &[forged]);
        crashed
            .write_at(LOG_AREA_START + scan.tail, &record)
            .unwrap();
        let images = || ["seg", "seg.sums"].map(|name| segs.get(name).unwrap().snapshot());
        let before = (crashed.snapshot(), images());

        let options = Options::new(crashed.clone()).resolver(segs.clone().into_resolver());
        let Err(RvmError::BadLog(msg)) = Rvm::initialize(options) else {
            panic!("a range at {offset} of a one-page segment must be refused");
        };
        assert!(
            msg.contains("'seg'") && msg.contains(&format!("{}", offset + 8)),
            "{msg}"
        );
        assert!(
            before == (crashed.snapshot(), images()),
            "devices untouched"
        );
    }
}

#[test]
fn query_region_page_accounting() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();
    assert_eq!(region.num_pages(), 4);
    assert!(region.dirty_pages().is_empty());

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, PAGE_SIZE + 10, &[1; 8]).unwrap();
    assert!(region.dirty_pages().is_empty(), "uncommitted isn't dirty");
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.dirty_pages(), vec![1]);

    rvm.truncate().unwrap();
    assert!(region.dirty_pages().is_empty(), "truncation cleaned it");
}

#[test]
fn zero_length_reads_are_fine_but_writes_are_rejected() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    // A zero-length declaration declares nothing and almost always means
    // a length computation went wrong: rejected eagerly, by name.
    assert!(matches!(
        region.write(&mut txn, 100, &[]),
        Err(RvmError::EmptyRange { offset: 100 })
    ));
    assert!(matches!(
        txn.set_range(&region, 100, 0),
        Err(RvmError::EmptyRange { offset: 100 })
    ));
    // The rejection is non-destructive: the transaction still works.
    region.write(&mut txn, 100, &[7; 4]).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.read_vec(100, 0).unwrap(), Vec::<u8>::new());
    // Edge of the region is readable at zero length.
    assert_eq!(region.read_vec(PAGE_SIZE, 0).unwrap(), Vec::<u8>::new());
}

#[test]
fn transactions_spanning_the_whole_region_commit() {
    let (log, segs) = world();
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::with_len(8 << 20)))
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("big", 0, 256 * PAGE_SIZE))
        .unwrap();
    let blob: Vec<u8> = (0..region.len()).map(|i| (i % 253) as u8).collect();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &blob).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    rvm.truncate().unwrap();
    let seg = segs.get("big").unwrap();
    let mut buf = vec![0u8; 16];
    seg.read_at(255 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, blob[255 * PAGE_SIZE as usize..][..16].to_vec());
    drop(log);
}

#[test]
fn interleaved_transactions_commit_independently() {
    let (log, segs) = world();
    let rvm = boot(&log, &segs);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    let mut t1 = rvm.begin_transaction(TxnMode::Restore).unwrap();
    let mut t2 = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut t1, 0, &[1; 16]).unwrap();
    region.write(&mut t2, 256, &[2; 16]).unwrap();
    assert_eq!(region.uncommitted_transactions(), 2);
    t1.commit(CommitMode::Flush).unwrap();
    assert_eq!(region.uncommitted_transactions(), 1);
    t2.abort().unwrap();
    assert_eq!(region.uncommitted_transactions(), 0);
    assert_eq!(region.read_vec(0, 4).unwrap(), vec![1; 4]);
    assert_eq!(region.read_vec(256, 4).unwrap(), vec![0; 4]);
}

#[test]
fn rvm_log_on_a_mirrored_device_survives_replica_failure() {
    // Figure 2's media-failure layer in action: the write-ahead log lives
    // on a two-way mirror; one replica dies mid-run; committed data stays
    // recoverable from the survivor.
    use rvm_storage::MirrorDevice;

    let replica_a = Arc::new(MemDevice::with_len(1 << 20));
    let replica_b = Arc::new(MemDevice::with_len(1 << 20));
    let mirror = Arc::new(
        MirrorDevice::new(vec![
            replica_a.clone() as Arc<dyn Device>,
            replica_b.clone() as Arc<dyn Device>,
        ])
        .unwrap(),
    );
    let segs = MemResolver::new();

    {
        let rvm = Rvm::initialize(
            Options::new(mirror.clone())
                .resolver(segs.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, b"before failure").unwrap();
        txn.commit(CommitMode::Flush).unwrap();

        // Media failure on replica A; RVM keeps running on B.
        mirror.fail_replica(0);
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 64, b"after failure").unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        std::mem::forget(rvm); // crash on top of the media failure
    }

    // Reboot from the surviving replica alone.
    let rvm = Rvm::initialize(
        Options::new(replica_b as Arc<dyn Device>)
            .resolver(segs.into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    assert_eq!(rvm.recovery_report().records_replayed, 2);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(0, 14).unwrap(), b"before failure");
    assert_eq!(region.read_vec(64, 13).unwrap(), b"after failure");
}
