//! Property-based tests (proptest) over the core invariants:
//! interval arithmetic, record codecs, crash-prefix semantics under
//! every optimization setting, optimization transparency, and
//! allocator disjointness.

mod common {
    include!("lib.rs");
}

use std::collections::BTreeMap;
use std::sync::Arc;

use common::World;
use proptest::prelude::*;
use rvm::log::record::{encode_txn, parse_record, RecordRange, LOG_BLOCK};
use rvm::log::status::StatusBlock;
use rvm::ranges::{ByteRange, Piece, RangeSet, ValueArena};
use rvm::segment::{MemResolver, SegmentId, SegmentInfo};
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_check::{Checked, IntervalMap};
use rvm_images::EnumConfig;
use rvm_reference::{Commit, History, Images, Write};
use rvm_storage::{FaultClock, FaultDevice, FaultOp, FlakyFault, MemDevice};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RangeSet against a naive bitmap: the `newly` report is exactly the
    /// bytes that were unset, and the members are the bitmap's maximal
    /// runs. Many short inserts over a wide space, so the set holds many
    /// disjoint members and an insert meets a predecessor it touches,
    /// abuts, or misses.
    #[test]
    fn rangeset_matches_naive_model(ops in prop::collection::vec((0u64..2000, 1u64..24), 1..200)) {
        let mut set = RangeSet::new();
        let mut bitmap = [false; 2024];
        for (start, len) in ops {
            let newly = set.insert(ByteRange::at(start, len));
            prop_assert!(newly.windows(2).all(|w| w[0].end < w[1].start), "newly ranges sorted, apart");
            let mut reported = [false; 2024];
            for r in &newly {
                prop_assert!(start <= r.start && r.end <= start + len && !r.is_empty());
                reported[r.start as usize..r.end as usize].fill(true);
            }
            for b in start as usize..(start + len) as usize {
                prop_assert_eq!(reported[b], !bitmap[b], "byte {}", b);
                bitmap[b] = true;
            }
        }
        let mut runs = Vec::new();
        let mut at = 0;
        while at < bitmap.len() {
            let run = bitmap[at..].iter().take_while(|&&set| set == bitmap[at]).count();
            if bitmap[at] {
                runs.push(ByteRange::at(at as u64, run as u64));
            }
            at += run;
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), runs);
        prop_assert_eq!(set.total_len(), bitmap.iter().filter(|&&b| b).count() as u64);
    }

    /// IntervalMap newest-wins equals a naive reverse-apply model.
    #[test]
    fn interval_map_matches_naive_model(writes in prop::collection::vec((0u64..300, prop::collection::vec(any::<u8>(), 1..40)), 1..20)) {
        // Newest first into the map...
        let mut map = IntervalMap::new();
        for (start, data) in writes.iter().rev() {
            map.insert_if_uncovered(*start, data);
        }
        // ...equals applying oldest first over an array.
        let mut model = vec![0u8; 400];
        for (start, data) in &writes {
            model[*start as usize..*start as usize + data.len()].copy_from_slice(data);
        }
        let mut got = vec![0u8; 400];
        map.overlay_onto(0, &mut got);
        // Bytes never written stay 0 in both.
        prop_assert_eq!(got, model);
    }

    /// The one-pass resolution replay uses yields, segment by segment,
    /// exactly the entries the incremental IntervalMap holds after the
    /// same ranges in the same (newest-first) order: same cuts, same
    /// bytes, nothing merged. Half the ranges start at one of three hot
    /// offsets and end at one of three lengths from it, so that a range
    /// a newer one at its start covers, or outlives, is common. Each
    /// range is a record of its own, kept oldest first.
    #[test]
    fn latest_pieces_match_interval_maps(
        writes in prop::collection::vec(
            (0u32..3, 0u64..300, prop::collection::vec(any::<u8>(), 0..40), 0usize..6),
            0..40
        )
    ) {
        let writes: Vec<(u32, u64, &[u8])> = writes
            .iter()
            .map(|(seg, start, data, hot)| match [8, 16, 32].get(*hot) {
                Some(&len) => (*seg, start % 3 * 100, &data[..data.len().min(len)]),
                None => (*seg, *start, &data[..]),
            })
            .collect();
        let newest_first = || writes.iter().map(|&(seg, start, data)| Piece { seg, start, data });
        let mut values = ValueArena::default();
        for p in writes.iter().rev().map(|&(seg, start, data)| Piece { seg, start, data }) {
            values.keep_record(std::iter::once(p));
        }
        let pieces = values.latest_pieces();
        let mut maps: BTreeMap<u32, IntervalMap> = BTreeMap::new();
        for p in newest_first() {
            maps.entry(p.seg).or_default().insert_if_uncovered(p.start, p.data);
        }
        let expected: Vec<(u32, u64, &[u8])> = maps
            .iter()
            .flat_map(|(seg, map)| map.iter().map(move |(start, data)| (*seg, start, data)))
            .collect();
        let got: Vec<(u32, u64, &[u8])> = pieces.iter().map(|p| (p.seg, p.start, p.data)).collect();
        prop_assert_eq!(got, expected);
    }

    /// The same contract over the whole key space, records of several
    /// ranges each: segment ids that differ above bit 11 (so the radix
    /// passes reach the segment), starts in the low bits, above bit 32,
    /// and within 300 bytes of `u64::MAX` (ends up to `u64::MAX` itself),
    /// on a grid where ranges of one start have different lengths, inside
    /// one record and across records, and others abut or nest in them.
    #[test]
    fn latest_pieces_match_interval_maps_across_the_key_space(
        records in prop::collection::vec(
            prop::collection::vec((0usize..5, 0usize..3, 0usize..8, 0usize..5, any::<u8>()), 1..8),
            0..24
        )
    ) {
        let records: Vec<Ranges> = records
            .iter()
            .map(|ranges| ranges.iter().map(|&(seg, base, off, len, fill)| resolver_range(seg, base, off, len, fill)).collect())
            .collect();
        let (got, expected) = resolve_both(&records);
        prop_assert_eq!(got, expected);
    }

    /// Record encode/decode round-trips arbitrary range sets.
    #[test]
    fn record_codec_round_trips(
        seq in 1u64..u64::MAX / 2,
        tid in any::<u64>(),
        ranges in prop::collection::vec(
            (0u32..8, 0u64..1_000_000, prop::collection::vec(any::<u8>(), 0..300)),
            0..8
        )
    ) {
        let ranges: Vec<RecordRange> = ranges
            .into_iter()
            .map(|(seg, offset, data)| RecordRange {
                seg: SegmentId::new(seg),
                offset,
                data,
            })
            .collect();
        let buf = encode_txn(seq, tid, &ranges);
        prop_assert_eq!(buf.len() as u64 % LOG_BLOCK, 0);
        let (header, decoded) = parse_record(&buf).expect("valid record parses");
        prop_assert_eq!(header.seq, seq);
        let decoded = decoded.expect("txn record");
        prop_assert_eq!(decoded.tid, tid);
        prop_assert_eq!(decoded.ranges, ranges);
    }

    /// A bit flip anywhere in the live portion of a record is detected.
    #[test]
    fn record_corruption_is_always_detected(
        data in prop::collection::vec(any::<u8>(), 1..200),
        flip_pos in any::<prop::sample::Index>(),
        flip_bit in 0u8..8
    ) {
        let ranges = vec![RecordRange { seg: SegmentId::new(0), offset: 64, data }];
        let mut buf = encode_txn(5, 9, &ranges);
        let header = rvm::log::record::parse_header(&buf).unwrap();
        let live = 40 + header.payload_len as usize; // header + payload
        let pos = flip_pos.index(live);
        buf[pos] ^= 1 << flip_bit;
        prop_assert!(parse_record(&buf).is_none(), "flip at {} undetected", pos);
    }

    /// Status blocks round-trip arbitrary segment tables.
    #[test]
    fn status_block_round_trips(
        head in 0u64..1_000_000,
        used in 0u64..1_000_000,
        names in prop::collection::vec("[a-z]{1,24}", 0..10)
    ) {
        let mut sb = StatusBlock::fresh(1 << 20);
        sb.head = head;
        sb.tail = head + used;
        for (i, name) in names.iter().enumerate() {
            sb.segments.push(SegmentInfo {
                id: SegmentId::new(i as u32),
                name: name.clone(),
                min_len: i as u64 * 4096,
            });
        }
        let decoded = StatusBlock::decode(&sb.encode()).expect("round trip");
        prop_assert_eq!(decoded, sb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash-prefix property over random workloads and tunings: after a
    /// crash at an arbitrary sync of the log, or at the end, the reference
    /// admits what recovery leaves of each crash image in a seeded sample
    /// (`rvm-images`): the log's unsynced writes torn at 64-byte sectors,
    /// dropped, or kept out of order. The segment holds 2 or 3 one-page
    /// regions, mapped in a drawn order, and each range falls in a drawn
    /// one of them, so one drain carries records of several regions.
    /// Each transaction declares
    /// ranges that may overlap, each twice: a redundant `set_range`, then
    /// the write's own. With `lazy_every` = k of 1, 3 or 7 the commits
    /// are lazy, a `flush` follows every k-th and the last, and each range
    /// starts at one of four slots, so repeats subsume the records before
    /// them, across records of other slots in a window of 3 or 7: a
    /// commit is durable once a `flush` after it has returned. The intra-
    /// and inter-transaction optimizations and the segment checksums are
    /// each on or off.
    #[test]
    fn random_workload_crash_yields_a_commit_prefix(
        txns in prop::collection::vec(
            (
                0u64..(PAGE_SIZE - 256),
                prop::collection::vec((0u64..3, 0u64..192, 1u64..64, any::<u8>()), 1..4),
            ),
            1..20
        ),
        regions in 2u64..4,
        map_order in 0usize..6,
        lazy in 0usize..4,
        crash_frac in 0.0f64..1.25,
        intra_optimization in any::<bool>(),
        inter_optimization in any::<bool>(),
        segment_checksums in any::<bool>()
    ) {
        let lazy_every = [0, 1, 3, 7][lazy];
        let tuning = Tuning {
            intra_optimization,
            inter_optimization,
            segment_checksums,
            ..Tuning::default()
        };
        let mode = if lazy_every == 0 { CommitMode::Flush } else { CommitMode::NoFlush };
        // Transaction `i`'s writes, in order, at segment offsets: region
        // `r` is the segment's page `r`.
        let writes = |i: usize| -> Vec<Write> {
            let (base, ranges) = &txns[i];
            let at = |off: u64| if lazy_every == 0 { base + off } else { (base + off) % 4 * 256 };
            ranges
                .iter()
                .map(|&(region, off, len, byte)| Write {
                    segment: "seg".into(),
                    offset: region % regions * PAGE_SIZE + at(off),
                    bytes: vec![byte; len as usize],
                })
                .collect()
        };
        // Runs the workload, counting in `acked` the commits acked so far.
        let run = |rvm: &Rvm, acked: &mut usize| -> Option<()> {
            let mut mapped = Vec::new();
            let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
            for page in orders[map_order].into_iter().filter(|&page| page < regions) {
                let desc = RegionDescriptor::new("seg", page * PAGE_SIZE, PAGE_SIZE);
                mapped.push((page, rvm.map(&desc).ok()?));
            }
            mapped.sort_by_key(|&(page, _)| page);
            for i in 0..txns.len() {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).ok()?;
                for w in writes(i) {
                    let (region, at) = (&mapped[(w.offset / PAGE_SIZE) as usize].1, w.offset % PAGE_SIZE);
                    txn.set_range(region, at, w.bytes.len() as u64).ok()?;
                    region.write(&mut txn, at, &w.bytes).ok()?;
                }
                txn.commit(mode).ok()?;
                let flush = lazy_every > 0 && ((i + 1) % lazy_every == 0 || i + 1 == txns.len());
                if flush {
                    rvm.flush().ok()?;
                }
                if lazy_every == 0 || flush {
                    *acked = i + 1;
                }
            }
            Some(())
        };
        let boot = |log: Arc<dyn rvm_storage::Device>, segments: &MemResolver| {
            Rvm::initialize(
                Options::new(log)
                    .resolver(segments.clone().into_resolver())
                    .tuning(tuning)
                    .create_if_empty(),
            )
        };
        // Dry run to count the log's syncs, at boot and in the workload.
        let (booted, syncs) = {
            let fault = Arc::new(FaultDevice::recording(Arc::new(MemDevice::with_len(1 << 20))));
            let rvm = boot(fault.clone(), &MemResolver::new()).unwrap();
            let booted = fault.clock().ops_seen().2;
            run(&rvm, &mut 0).unwrap();
            (booted, fault.clock().ops_seen().2 - booted)
        };
        // Crash run: the crash fails one of the workload's syncs, the last
        // moment of the window whose writes it leaves pending, or comes at
        // the end.
        let crash_at = booted + 1 + (syncs as f64 * crash_frac) as u64;
        let segments = MemResolver::new();
        let inner = Arc::new(MemDevice::with_len(1 << 20));
        let clock = FaultClock::new(vec![FlakyFault::crash(FaultOp::Sync, crash_at)]);
        let fault = Arc::new(FaultDevice::with_clock(inner.clone(), clock));
        let mut acked = 0;
        if let Ok(rvm) = boot(fault.clone(), &segments) {
            run(&rvm, &mut acked);
            std::mem::forget(rvm);
        }

        // Recover each image, and judge the segment by the reference.
        let commits = (0..txns.len()).map(|i| Commit {
            stream: 0,
            writes: writes(i),
            durable: i < acked,
        });
        let history = History {
            base: Images::new(),
            commits: commits.collect(),
        };
        let cfg = EnumConfig {
            sector: LOG_BLOCK as usize,
            max_pieces_per_write: 16,
            ..common::sample(crash_at)
        };
        let mut verdicts = Vec::new();
        common::for_each_crash_image(&fault.clock(), &inner, &segments, &cfg, |kept, world| {
            let rvm = boot(world.log.clone(), &world.segments).unwrap();
            let len = regions * PAGE_SIZE;
            let region = rvm.map(&RegionDescriptor::new("seg", 0, len)).unwrap();
            let image = Images::from([("seg".to_owned(), region.read_vec(0, len).unwrap())]);
            verdicts.push((kept.to_vec(), rvm_reference::admits(&history, &image)));
        });
        for (kept, verdict) in verdicts {
            prop_assert_eq!(verdict, Ok(()), "kept {:?}", kept);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inter-transaction optimization never changes recovered state.
    #[test]
    fn inter_optimization_is_semantically_transparent(
        writes in prop::collection::vec((0u64..8, 8u64..200, any::<u8>()), 1..30)
    ) {
        let mut images = Vec::new();
        for inter in [true, false] {
            let world = World::new(1 << 20);
            {
                let rvm = world.boot_tuned(Tuning {
                    inter_optimization: inter,
                    ..Tuning::default()
                });
                let region = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)).unwrap();
                for (obj, len, byte) in &writes {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region.write(&mut txn, obj * 256, &vec![*byte; *len as usize]).unwrap();
                    txn.commit(CommitMode::NoFlush).unwrap();
                }
                rvm.flush().unwrap();
                std::mem::forget(rvm); // crash
            }
            let rvm = world.boot();
            let region = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)).unwrap();
            images.push(region.read_vec(0, PAGE_SIZE).unwrap());
        }
        prop_assert_eq!(&images[0], &images[1]);
    }

    /// Allocator churn: live allocations never overlap and keep their
    /// contents byte-exact.
    #[test]
    fn allocator_never_overlaps(ops in prop::collection::vec((any::<bool>(), 1u64..400, any::<u8>()), 1..60)) {
        use rvm_alloc::RvmHeap;
        let world = World::new(4 << 20);
        let rvm = world.boot();
        let region = rvm.map(&RegionDescriptor::new("heap", 0, 32 * PAGE_SIZE)).unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let heap = RvmHeap::format(&region, &mut txn).unwrap();
        let mut live: Vec<(u64, u64, u8)> = Vec::new();
        for (i, (do_free, size, tag)) in ops.into_iter().enumerate() {
            if do_free && !live.is_empty() {
                let (off, _, _) = live.remove(i % live.len());
                heap.free(&region, &mut txn, off).unwrap();
            } else if let Ok(off) = heap.alloc(&region, &mut txn, size) {
                region.write(&mut txn, off, &vec![tag; size as usize]).unwrap();
                // No overlap with any live allocation.
                for (o, s, _) in &live {
                    prop_assert!(off + size <= *o || *o + *s <= off,
                        "[{},{}) overlaps [{},{})", off, off + size, o, o + s);
                }
                live.push((off, size, tag));
            }
        }
        for (off, size, tag) in &live {
            prop_assert_eq!(region.read_vec(*off, *size).unwrap(), vec![*tag; *size as usize]);
        }
        txn.commit(CommitMode::Flush).unwrap();
    }
}

/// Range `(seg, base, off, len)` of the resolver's key-space grid,
/// filled from `fill`.
fn resolver_range(
    seg: usize,
    base: usize,
    off: usize,
    len: usize,
    fill: u8,
) -> (u32, u64, Vec<u8>) {
    let seg = [0, 1, 2048, 1 << 20, u32::MAX][seg];
    let start = [0, 1 << 33, u64::MAX - 300][base] + [0, 8, 16, 24, 32, 100, 108, 200][off];
    let len = [8, 16, 24, 100, 1][len];
    (
        seg,
        start,
        (0..len).map(|i| fill.wrapping_add(i as u8)).collect(),
    )
}

/// Ranges as `(segment, start, value)`.
type Ranges = Vec<(u32, u64, Vec<u8>)>;

/// `records` (oldest first) resolved by a value arena, and the entries
/// of an interval map per segment after every range, newest record
/// first and each record's ranges in order.
fn resolve_both(records: &[Ranges]) -> (Ranges, Ranges) {
    let mut values = ValueArena::default();
    for record in records {
        values.keep_record(record.iter().map(|(seg, start, data)| Piece {
            seg: *seg,
            start: *start,
            data,
        }));
    }
    let got = values
        .latest_pieces()
        .iter()
        .map(|p| (p.seg, p.start, p.data.to_vec()))
        .collect();
    let mut maps: BTreeMap<u32, IntervalMap> = BTreeMap::new();
    for (seg, start, data) in records.iter().rev().flatten() {
        maps.entry(*seg)
            .or_default()
            .insert_if_uncovered(*start, data);
    }
    let expected = maps
        .iter()
        .flat_map(|(seg, map)| {
            map.iter()
                .map(move |(start, data)| (*seg, start, data.to_vec()))
        })
        .collect();
    (got, expected)
}

/// 6 000 seeded records of one to three ranges over five segments, most
/// at distinct starts so that some 12 000 values are kept — past the
/// 4 096 at which a resolver might switch strategy — resolve as the
/// interval maps do.
#[test]
fn latest_pieces_match_interval_maps_past_4096_values() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let records: Vec<Ranges> = (0..6_000)
        .map(|_| {
            (0..1 + next(3))
                .map(|_| match next(4) {
                    0 => resolver_range(
                        next(5) as usize,
                        next(3) as usize,
                        next(8) as usize,
                        next(5) as usize,
                        next(256) as u8,
                    ),
                    _ => {
                        let seg = [0, 1, 2048, 1 << 20, u32::MAX][next(5) as usize];
                        (
                            seg,
                            next(200_000),
                            vec![next(256) as u8; 1 + next(300) as usize],
                        )
                    }
                })
                .collect()
        })
        .collect();
    let (got, expected) = resolve_both(&records);
    assert!(expected.len() > 4_096, "{} pieces", expected.len());
    assert!(
        got == expected,
        "the resolve differs from the interval maps"
    );
}

/// Appends one record as the commit plane does: staged, then written.
fn append(wal: &mut rvm::log::wal::Wal, tid: u64, ranges: &[RecordRange]) -> rvm::Result<()> {
    let mut staging = rvm::log::wal::StagingBuf::default();
    wal.append_staged(tid, rvm::log::record::borrowed(ranges), &mut staging)?;
    wal.write_staged(&staging)
}

/// For each hot (segment, start) of `streamed_replay_matches_interval_maps`,
/// the first other start in each of segments 0–2 that takes its memo
/// slot.
fn memo_collisions() -> Vec<(u32, u64)> {
    let hot = (0..3u32).flat_map(|seg| [0, 100, 200].map(|start| (seg, start)));
    let pairs = hot.flat_map(|key| (0..3u32).map(move |seg| (key, seg)));
    pairs
        .filter_map(|((seg, start), other)| {
            let slot = ValueArena::memo_slot(seg, start);
            let mut starts = (0..1_000_000u64).filter(|&s| (other, s) != (seg, start));
            starts
                .find(|&s| ValueArena::memo_slot(other, s) == slot)
                .map(|s| (other, s))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// WAL wraparound invariant: any sequence of appends and truncations
    /// leaves a log whose forward scan returns exactly the un-truncated
    /// suffix of appended records, in order.
    #[test]
    fn wal_scan_always_returns_the_live_suffix(
        ops in prop::collection::vec((any::<bool>(), 50u64..900), 1..60)
    ) {
        use rvm::log::record::RecordRange;
        use rvm::log::status::LOG_AREA_START;
        use rvm::log::wal::{scan_forward, Wal};
        use std::sync::Arc as StdArc;

        let area = 16 * 1024u64;
        let dev: StdArc<dyn rvm_storage::Device> =
            StdArc::new(MemDevice::with_len(LOG_AREA_START + area));
        let mut wal = Wal::new(dev.clone(), area, 0, 0, 1, 1);
        let mut live: Vec<u64> = Vec::new(); // tids of live records
        let mut tid = 0u64;
        for (truncate, len) in ops {
            if truncate {
                // Simulate a truncation consuming everything.
                wal.advance_head(wal.tail(), wal.next_seq());
                live.clear();
            } else {
                tid += 1;
                let ranges = vec![RecordRange {
                    seg: SegmentId::new(0),
                    offset: tid * 8,
                    data: vec![tid as u8; len as usize],
                }];
                match append(&mut wal, tid, &ranges) {
                    Ok(_) => live.push(tid),
                    Err(_) => {
                        // Full: truncate and retry once (always fits then).
                        wal.advance_head(wal.tail(), wal.next_seq());
                        live.clear();
                        append(&mut wal, tid, &ranges).unwrap();
                        live.push(tid);
                    }
                }
            }
            let scan = scan_forward(dev.as_ref(), area, wal.head(), wal.seq_at_head(), None)
                .unwrap();
            let tids: Vec<u64> = scan.records.iter().map(|(_, r)| r.tid).collect();
            prop_assert_eq!(&tids, &live);
            prop_assert_eq!(scan.tail, wal.tail());
            prop_assert_eq!(scan.next_seq, wal.next_seq());
        }
    }

    /// Replay as recovery runs it — records written to a log, streamed
    /// through the scan's window into a value arena, resolved — yields
    /// exactly the entries an IntervalMap per segment holds after every
    /// range, newest record first and each record's ranges in order.
    /// Records hold several ranges that may overlap (as with the
    /// intra-transaction optimization off); ranges start at three hot
    /// offsets with three lengths (rewrites that are equal, longer and
    /// shorter), inside a hot range, at starts that share a memo slot
    /// with a hot one, or anywhere; and every record carries a bulk
    /// range, so the span is several windows long and records straddle
    /// refills.
    #[test]
    fn streamed_replay_matches_interval_maps(
        records in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u8..10, 0u32..3, 0usize..64, 0usize..4, any::<u8>(), 0usize..48),
                    0..6
                ),
                (0u64..60_000, 2_000usize..30_000, any::<u8>()),
            ),
            1..30
        )
    ) {
        use rvm::log::status::LOG_AREA_START;
        use rvm::log::wal::{scan_records, Wal};

        let collide = memo_collisions();
        let value = |fill: u8, len: usize| (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let range = |seg: u32, offset: u64, data: Vec<u8>| RecordRange {
            seg: SegmentId::new(seg),
            offset,
            data,
        };
        // Three bulk records first, so even one short record makes a span
        // longer than the first window.
        let mut log: Vec<Vec<RecordRange>> = (0..3u64)
            .map(|i| vec![range(3, i * 20_000, value(i as u8, 30_000))])
            .collect();
        for (ranges, (bulk_start, bulk_len, bulk_fill)) in &records {
            let mut record: Vec<RecordRange> = ranges
                .iter()
                .map(|&(kind, seg, pick, len_pick, fill, raw_len)| {
                    let len = [8, 16, 32, raw_len][len_pick];
                    let (seg, start) = match kind {
                        0..=3 => (seg, [0, 100, 200][pick % 3]),
                        4..=5 => collide[pick % collide.len()],
                        6..=7 => (seg, [0, 100, 200][pick % 3] + 1 + pick as u64 % 29),
                        _ => (seg, pick as u64 * 5),
                    };
                    range(seg, start, value(fill, len))
                })
                .collect();
            record.push(range(3, *bulk_start, value(*bulk_fill, *bulk_len)));
            log.push(record);
        }

        let area = 4 << 20;
        let dev = Arc::new(MemDevice::with_len(LOG_AREA_START + area));
        let mut wal = Wal::new(dev.clone(), area, 0, 0, 1, 1);
        for (tid, record) in log.iter().enumerate() {
            append(&mut wal, tid as u64, record).unwrap();
        }
        let mut values = ValueArena::default();
        let end = scan_records(dev.as_ref(), area, 0, 1, None, |_, record| {
            values.keep_record(record.ranges());
        })
        .unwrap();
        prop_assert_eq!((end.records, end.tail), (log.len(), wal.tail()));
        prop_assert!(end.tail > 64 << 10);
        let pieces = values.latest_pieces();

        let mut maps: BTreeMap<u32, IntervalMap> = BTreeMap::new();
        for r in log.iter().rev().flatten() {
            maps.entry(r.seg.as_u32()).or_default().insert_if_uncovered(r.offset, &r.data);
        }
        let expected: Vec<(u32, u64, &[u8])> = maps
            .iter()
            .flat_map(|(seg, map)| map.iter().map(move |(start, data)| (*seg, start, data)))
            .collect();
        let got: Vec<(u32, u64, &[u8])> = pieces.iter().map(|p| (p.seg, p.start, p.data)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Nested transactions against a flat model: an arbitrary tree of
    /// enter/write/commit-child/abort-child operations produces exactly
    /// the state of the equivalent model executed on a plain array.
    #[test]
    fn nested_transactions_match_a_flat_model(
        ops in prop::collection::vec((0u8..4, 0u64..56, any::<u8>()), 1..50)
    ) {
        use rvm_nest::NestedTxn;

        let world = World::new(1 << 20);
        let rvm = world.boot();
        let region = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)).unwrap();
        let mut txn = NestedTxn::begin(&rvm, TxnMode::Restore).unwrap();

        // Model: a stack of (array snapshot) per level.
        let mut model = vec![0u8; 64 * 8];
        let mut snapshots: Vec<Vec<u8>> = Vec::new();

        for (op, slot, value) in ops {
            match op {
                0 => {
                    txn.enter();
                    snapshots.push(model.clone());
                }
                1 => {
                    let data = vec![value; 8];
                    txn.write(&region, slot * 8, &data).unwrap();
                    model[(slot * 8) as usize..(slot * 8 + 8) as usize].fill(value);
                }
                2 => {
                    if txn.depth() > 1 {
                        txn.commit_child().unwrap();
                        snapshots.pop();
                    }
                }
                _ => {
                    if txn.depth() > 1 {
                        txn.abort_child().unwrap();
                        model = snapshots.pop().unwrap();
                    }
                }
            }
            let got = region.read_vec(0, 64 * 8).unwrap();
            prop_assert_eq!(&got, &model, "after op {}", op);
        }
        // Close any levels the op stream left open, committing them.
        while txn.depth() > 1 {
            txn.commit_child().unwrap();
            snapshots.pop();
        }
        txn.commit(CommitMode::Flush).unwrap();
        prop_assert_eq!(region.read_vec(0, 64 * 8).unwrap(), model);
    }

    /// State-machine harness for the unlogged-write checker: arbitrary
    /// *legal* histories — declared writes, commits, aborts, up to three
    /// interleaved transactions — never trip the checker (panic mode makes
    /// any false positive fatal), and the log left behind passes the full
    /// WAL invariant verification.
    #[test]
    fn checker_never_fires_on_legal_histories(
        ops in prop::collection::vec(
            (0u8..4, any::<prop::sample::Index>(), 0u64..2, 0u64..(PAGE_SIZE - 64), 1u64..64, any::<u8>()),
            1..60
        )
    ) {
        let world = World::new(4 << 20);
        // Overlapping declarations across transactions are legal
        // (serializability is the application's problem, §3.1).
        let rvm = Checked::new(world.boot()).allowing_overlaps().panicking();
        let regions = [
            rvm.map(&RegionDescriptor::new("a", 0, PAGE_SIZE)).unwrap(),
            rvm.map(&RegionDescriptor::new("b", 0, PAGE_SIZE)).unwrap(),
        ];
        let mut live = Vec::new();
        for (op, pick, reg, offset, len, byte) in ops {
            match op {
                0 if live.len() < 3 => {
                    live.push(rvm.begin_transaction(TxnMode::Restore).unwrap());
                }
                1 if !live.is_empty() => {
                    let t = pick.index(live.len());
                    live[t]
                        .write(&regions[reg as usize], offset, &vec![byte; len as usize])
                        .unwrap();
                }
                2 if !live.is_empty() => {
                    let t = pick.index(live.len());
                    live.remove(t).commit(CommitMode::Flush).unwrap();
                }
                3 if !live.is_empty() => {
                    let t = pick.index(live.len());
                    live.remove(t).abort().unwrap();
                }
                _ => {}
            }
        }
        for txn in live {
            txn.commit(CommitMode::Flush).unwrap();
        }
        prop_assert!(rvm.violations().is_empty(), "{:?}", rvm.violations());

        std::mem::forget(rvm.into_inner());
        let report = rvm_check::verify(
            &(world.log.clone() as Arc<dyn rvm_storage::Device>),
        ).unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.findings);
    }

    /// Intra-transaction optimization is semantically transparent: the
    /// recovered state is identical with it on or off.
    #[test]
    fn intra_optimization_is_semantically_transparent(
        writes in prop::collection::vec((0u64..480, 1u64..64, any::<u8>()), 1..20)
    ) {
        let mut images = Vec::new();
        for intra in [true, false] {
            let world = World::new(1 << 20);
            {
                let rvm = world.boot_tuned(Tuning {
                    intra_optimization: intra,
                    ..Tuning::default()
                });
                let region = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)).unwrap();
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                for (off, len, byte) in &writes {
                    // Redundant declaration then the write (write declares
                    // again): classic defensive pattern.
                    txn.set_range(&region, *off, *len).unwrap();
                    region.write(&mut txn, *off, &vec![*byte; *len as usize]).unwrap();
                }
                txn.commit(CommitMode::Flush).unwrap();
                std::mem::forget(rvm);
            }
            let rvm = world.boot();
            let region = rvm.map(&RegionDescriptor::new("seg", 0, PAGE_SIZE)).unwrap();
            images.push(region.read_vec(0, PAGE_SIZE).unwrap());
        }
        prop_assert_eq!(&images[0], &images[1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recoverable hash map against std's HashMap: arbitrary
    /// put/remove sequences agree, and the committed result survives a
    /// crash.
    #[test]
    fn recoverable_map_matches_std_hashmap(
        ops in prop::collection::vec(
            (any::<bool>(), 0u8..24, prop::collection::vec(any::<u8>(), 0..20)),
            1..60
        )
    ) {
        use rvm_alloc::RvmHeap;
        use rvm_ds::RecoverableMap;
        use std::collections::HashMap;

        let world = World::new(4 << 20);
        let base;
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        {
            let rvm = world.boot();
            let region = rvm
                .map(&RegionDescriptor::new("meta", 0, 64 * PAGE_SIZE))
                .unwrap();
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            let heap = RvmHeap::format(&region, &mut txn).unwrap();
            let map = RecoverableMap::create(&region, &heap, &mut txn, 8).unwrap();
            base = map.base();
            for (remove, key_byte, value) in &ops {
                let key = vec![*key_byte];
                if *remove {
                    let was = map.remove(&region, &heap, &mut txn, &key).unwrap();
                    prop_assert_eq!(was, model.remove(&key).is_some());
                } else {
                    map.put(&region, &heap, &mut txn, &key, value).unwrap();
                    model.insert(key, value.clone());
                }
                prop_assert_eq!(map.len(&region).unwrap(), model.len() as u64);
            }
            txn.commit(CommitMode::Flush).unwrap();
            std::mem::forget(rvm); // crash
        }
        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("meta", 0, 64 * PAGE_SIZE))
            .unwrap();
        let map = RecoverableMap::open(&region, base).unwrap();
        let mut got = map.entries(&region).unwrap();
        got.sort();
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// The GC heap: an arbitrary DAG built through root slots survives a
    /// collection with exactly the reachable objects intact.
    #[test]
    fn gc_preserves_exactly_the_reachable_graph(
        objects in prop::collection::vec(
            (prop::collection::vec(any::<prop::sample::Index>(), 0..3), 1u8..255),
            1..30
        ),
        root_picks in prop::collection::vec(any::<prop::sample::Index>(), 1..5)
    ) {
        use rvm_gc::{ObjRef, PersistentHeap};

        let world = World::new(8 << 20);
        let rvm = world.boot();
        let heap = PersistentHeap::open(&rvm, "heap", 512 * 1024).unwrap();

        // Build objects whose refs point at earlier objects (a DAG).
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let mut handles: Vec<ObjRef> = Vec::new();
        for (ref_picks, tag) in &objects {
            let refs: Vec<ObjRef> = ref_picks
                .iter()
                .filter(|_| !handles.is_empty())
                .map(|ix| handles[ix.index(handles.len())])
                .collect();
            let h = heap.alloc(&mut txn, &refs, &[*tag]).unwrap();
            handles.push(h);
        }
        // Pick roots.
        let mut root_tags = Vec::new();
        for (slot, pick) in root_picks.iter().enumerate() {
            let h = handles[pick.index(handles.len())];
            heap.set_root(&mut txn, slot as u64, h).unwrap();
            root_tags.push(h);
        }
        txn.commit(CommitMode::Flush).unwrap();

        // Model: the reachable multiset of tags via DFS over offsets.
        fn reach(heap: &PersistentHeap, at: ObjRef, seen: &mut std::collections::HashSet<u64>, tags: &mut Vec<u8>) {
            if at.is_null() || !seen.insert(at.raw()) {
                return;
            }
            tags.push(heap.payload(at).unwrap()[0]);
            for r in heap.refs(at).unwrap() {
                reach(heap, r, seen, tags);
            }
        }
        let mut want = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for slot in 0..root_picks.len() as u64 {
            reach(&heap, heap.root(slot).unwrap(), &mut seen, &mut want);
        }
        want.sort_unstable();

        let (live, _) = heap.collect(&rvm).unwrap();
        prop_assert_eq!(live as usize, want.len());

        let mut got = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for slot in 0..root_picks.len() as u64 {
            reach(&heap, heap.root(slot).unwrap(), &mut seen, &mut got);
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
