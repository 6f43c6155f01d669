//! The media-failure corruption matrix: checksummed segments under
//! injected bit rot, exercising every rung of the repair ladder.
//!
//! * single-replica rot under a mirror → scrub detects it and
//!   read-repair heals the losing replica in place;
//! * both-copies rot of a page the un-truncated WAL still covers →
//!   recovery detects the mismatch and rebuilds the page from the log;
//! * unrecoverable rot (no mirror, no log span, no VM image) →
//!   quarantine: that region alone turns read-only degraded
//!   ([`RvmError::Media`]) while other regions keep committing;
//! * a seeded rot storm over a mirrored segment → repeated scrubs
//!   converge with every detection repaired and nothing quarantined;
//! * rot under a page a lazy commit wrote → the rewrite rung waits for
//!   the flush rather than persist half of the transaction.

use std::sync::Arc;

use rvm::scrub::{sidecar_name, SegmentChecksums};
use rvm::segment::{DeviceResolver, MemResolver};
use rvm::{CommitMode, LoadPolicy, Options, RegionDescriptor, Rvm, RvmError, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, FaultClock, FaultDevice, FaultOp, FlakyFault, MemDevice, MirrorDevice};

const SEG: &str = "seg";

/// Resolver serving `SEG` from the given mirror and every other name —
/// notably the checksum sidecar — from plain in-memory devices, mirroring
/// production layouts where the catalog lives beside the data device.
fn mirrored_resolver(mirror: &Arc<MirrorDevice>, side: &MemResolver) -> DeviceResolver {
    let mirror = Arc::clone(mirror);
    let side = side.clone();
    Arc::new(move |name: &str, min_len: u64| {
        if name == SEG {
            if mirror.len()? < min_len {
                mirror.set_len(min_len)?;
            }
            Ok(Arc::clone(&mirror) as Arc<dyn Device>)
        } else {
            side.resolve(name, min_len)
        }
    })
}

fn commit_fill(rvm: &Rvm, region: &rvm::Region, offset: u64, data: &[u8]) {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, offset, data).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
}

#[test]
fn single_replica_rot_is_detected_and_read_repaired_by_scrub() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let a = Arc::new(MemDevice::with_len(1 << 16));
    let b = Arc::new(MemDevice::with_len(1 << 16));
    let mirror = Arc::new(
        MirrorDevice::new(vec![
            Arc::clone(&a) as Arc<dyn Device>,
            Arc::clone(&b) as Arc<dyn Device>,
        ])
        .unwrap(),
    );
    let side = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(mirrored_resolver(&mirror, &side))
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new(SEG, 0, 2 * PAGE_SIZE))
        .unwrap();
    commit_fill(&rvm, &region, 0, &[0x5A; PAGE_SIZE as usize]);
    // Apply the commit to the segment so the catalog covers real data.
    rvm.truncate().unwrap();

    // Silent rot on one replica only; the mirror still reports healthy.
    a.write_at(100, &[0xEE; 8]).unwrap();
    let before = rvm.query();
    assert_eq!((before.replicas_alive, before.replicas_total), (2, 2));

    let report = rvm.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.pages_scanned, 2, "{report:?}");
    assert_eq!(report.corruptions_detected, 1, "{report:?}");
    assert_eq!(report.corruptions_repaired, 1, "{report:?}");
    assert_eq!(report.pages_quarantined, 0, "{report:?}");

    // The losing replica was healed in place — both now hold committed
    // bytes — and no replica was dropped over it.
    assert_eq!(&a.snapshot()[100..108], &[0x5A; 8]);
    assert_eq!(&b.snapshot()[100..108], &[0x5A; 8]);
    assert!(mirror.read_repairs() >= 1);
    let q = rvm.query();
    assert_eq!((q.replicas_alive, q.replicas_total), (2, 2));
    assert!(q.stats.pages_scrubbed >= 2, "{:?}", q.stats);
    assert_eq!(q.stats.corruptions_detected, 1, "{:?}", q.stats);
    assert_eq!(q.stats.corruptions_repaired, 1, "{:?}", q.stats);
    assert_eq!(q.stats.regions_quarantined, 0, "{:?}", q.stats);

    // A second pass finds nothing left to repair.
    let report = rvm.scrub().unwrap();
    assert_eq!(report.corruptions_detected, 0, "{report:?}");
    rvm.terminate().unwrap();
}

#[test]
fn both_copies_rot_of_a_wal_resident_page_is_rebuilt_from_the_log() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segs = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(log.clone())
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new(SEG, 0, 2 * PAGE_SIZE))
        .unwrap();
    commit_fill(&rvm, &region, 0, &[0x5A; PAGE_SIZE as usize]);
    // The owner dies before truncating: the commit's record is still in
    // the live log span, but truncation-on-map already pushed an earlier
    // image (and its checksums) to the segment.
    std::mem::forget(rvm);

    // Rot the only copy of the segment while the machine is down.
    let seg = segs.get(SEG).unwrap();
    seg.write_at(200, &[0xEE; 16]).unwrap();

    // Recovery verifies the page against the catalog, sees the rot, and
    // the redo span rewrites the whole page — the rot never surfaces.
    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let report = rvm.recovery_report();
    assert!(report.corrupt_pages_detected >= 1, "{report:?}");
    assert_eq!(
        report.corrupt_pages_detected, report.corrupt_pages_repaired,
        "{report:?}"
    );
    let region = rvm
        .map(&RegionDescriptor::new(SEG, 0, 2 * PAGE_SIZE))
        .unwrap();
    assert_eq!(region.read_vec(200, 16).unwrap(), vec![0x5A; 16]);
    assert_eq!(&segs.get(SEG).unwrap().snapshot()[200..216], &[0x5A; 16]);

    // Scrub agrees: the rebuilt image matches its catalog everywhere.
    let report = rvm.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.corruptions_detected, 0, "{report:?}");
    rvm.terminate().unwrap();
}

#[test]
fn unrecoverable_rot_quarantines_only_its_region() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segs = MemResolver::new();
    let boot = || {
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(segs.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap()
    };
    let bad_desc = RegionDescriptor::new("bad", 0, PAGE_SIZE);
    let good_desc = RegionDescriptor::new("good", 0, PAGE_SIZE);

    // Seed committed data, truncate it to the segment, shut down clean:
    // the log holds nothing to rebuild from.
    let rvm = boot();
    let bad = rvm.map(&bad_desc).unwrap();
    commit_fill(&rvm, &bad, 0, &[0xAB; PAGE_SIZE as usize]);
    rvm.truncate().unwrap(); // drain the live span: no redo records remain
    rvm.terminate().unwrap();

    // Rot the only copy while offline. No mirror, no log span: this page
    // is unrecoverable.
    segs.get("bad").unwrap().write_at(321, &[0xEE; 8]).unwrap();

    let rvm = boot();
    // On-demand mapping defers page loads, so the rot is still latent —
    // and there is no pristine VM image to rewrite from.
    let bad = rvm.map_with(&bad_desc, LoadPolicy::OnDemand).unwrap();
    let good = rvm.map(&good_desc).unwrap();

    let report = rvm.scrub().unwrap();
    assert!(!report.is_clean(), "{report:?}");
    assert_eq!(report.pages_quarantined, 1, "{report:?}");
    assert_eq!(report.corruptions_repaired, 0, "{report:?}");

    // The rotted region is read-only degraded…
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    let err = bad.write(&mut txn, 0, &[1]).unwrap_err();
    assert!(matches!(err, RvmError::Media(_)), "{err:?}");
    txn.abort().unwrap();

    // …while the healthy region keeps committing.
    commit_fill(&rvm, &good, 0, &[0x11; 64]);
    assert_eq!(good.read_vec(0, 64).unwrap(), vec![0x11; 64]);

    let q = rvm.query();
    assert_eq!(q.regions_degraded, 1, "{q:?}");
    assert_eq!(q.mapped_regions, 2, "{q:?}");
    assert_eq!(q.stats.regions_quarantined, 1, "{:?}", q.stats);

    // A later pass skips the quarantined region instead of re-counting it.
    let report = rvm.scrub().unwrap();
    assert_eq!(report.pages_quarantined, 0, "{report:?}");
    assert!(report.pages_skipped >= 1, "{report:?}");
}

#[test]
fn seeded_rot_storm_over_a_mirror_converges_with_all_corruptions_repaired() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    // Both replicas rot independently (separate seeds, no transient
    // failures — those are it_faults territory): every read or write may
    // silently corrupt, and the checksum catalog is the only tripwire.
    let mk = |seed| -> Arc<dyn Device> {
        Arc::new(FaultDevice::with_clock(
            Arc::new(MemDevice::with_len(1 << 16)),
            FaultClock::seeded_with_rot(seed, 0, 120),
        ))
    };
    let mirror = Arc::new(MirrorDevice::new(vec![mk(11), mk(23)]).unwrap());
    let side = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(mirrored_resolver(&mirror, &side))
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new(SEG, 0, 4 * PAGE_SIZE))
        .unwrap();

    for i in 0..16u64 {
        commit_fill(&rvm, &region, (i % 8) * 512, &[0x30 + i as u8; 512]);
        if i % 5 == 4 {
            rvm.truncate().unwrap();
        }
    }
    rvm.truncate().unwrap();

    // Scrub until two consecutive passes find nothing: the storm keeps
    // rotting reads, but every detection must repair — never quarantine,
    // never surface bad bytes.
    let mut clean_passes = 0;
    for _ in 0..64 {
        let report = rvm.scrub().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.pages_quarantined, 0, "{report:?}");
        assert_eq!(
            report.corruptions_detected, report.corruptions_repaired,
            "{report:?}"
        );
        if report.corruptions_detected == 0 && report.pages_skipped == 0 {
            clean_passes += 1;
            if clean_passes == 2 {
                break;
            }
        } else {
            clean_passes = 0;
        }
    }
    assert_eq!(clean_passes, 2, "scrub never converged under the storm");

    // VM state survived the storm byte for byte.
    for i in 8..16u64 {
        assert_eq!(
            region.read_vec((i % 8) * 512, 512).unwrap(),
            vec![0x30 + i as u8; 512],
            "cell {i}"
        );
    }
    let q = rvm.query();
    assert_eq!((q.replicas_alive, q.replicas_total), (2, 2), "{q:?}");
    assert_eq!(q.stats.regions_quarantined, 0, "{:?}", q.stats);
    // Cumulative counters: a truncation-time detection is repaired by a
    // *later* scrub pass (which books its own detect/repair pair), so
    // repaired can trail detected globally — but never exceed it.
    assert!(
        q.stats.corruptions_repaired <= q.stats.corruptions_detected,
        "{:?}",
        q.stats
    );
    rvm.terminate().unwrap();
}

/// The rewrite rung writes a page's *committed, logged* image. A no-flush
/// transaction writes both pages of an unmirrored region and page 0 then
/// rots on the segment: VM is the only donor, but it holds bytes whose
/// record is still in the spool, and rewriting page 0 from it would leave
/// a crash with the lazy bytes on page 0 and not on page 1. The rung
/// waits; after `flush` it repairs.
#[test]
fn scrub_rewrite_never_persists_half_of_a_lazy_transaction() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segs = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(log.clone())
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let desc = RegionDescriptor::new(SEG, 0, 2 * PAGE_SIZE);
    let region = rvm.map(&desc).unwrap();
    commit_fill(&rvm, &region, 0, &[0x11; 2 * PAGE_SIZE as usize]);
    rvm.truncate().unwrap();

    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.write(&mut txn, 0, &[0xEE; 8]).unwrap();
    region.write(&mut txn, PAGE_SIZE, &[0xEE; 8]).unwrap();
    txn.commit(CommitMode::NoFlush).unwrap();
    let seg = segs.get(SEG).unwrap();
    seg.write_at(321, &[0x55; 8]).unwrap(); // rot page 0, clear of the range

    let report = rvm.scrub().unwrap();
    assert_eq!(report.corruptions_detected, 1, "{report:?}");
    // What a crash right now keeps of the lazy transaction: the log holds
    // no record of it, so the segment is all there is.
    let on_segment = |offset: u64| {
        let mut bytes = [0u8; 8];
        seg.read_at(offset, &mut bytes).unwrap();
        bytes
    };
    assert_eq!(
        (on_segment(0), on_segment(PAGE_SIZE)),
        ([0x11; 8], [0x11; 8]),
        "scrub persisted half of a lazy transaction: {report:?}"
    );
    assert_eq!(
        (report.corruptions_repaired, report.pages_skipped),
        (0, 1),
        "{report:?}"
    );

    rvm.flush().unwrap();
    let report = rvm.scrub().unwrap();
    assert_eq!(report.corruptions_repaired, 1, "{report:?}");
    std::mem::forget(rvm); // crash
    let rvm = Rvm::initialize(Options::new(log).resolver(segs.into_resolver())).unwrap();
    let region = rvm.map(&desc).unwrap();
    assert_eq!(region.read_vec(0, 8).unwrap(), [0xEE; 8]);
    assert_eq!(region.read_vec(PAGE_SIZE, 8).unwrap(), [0xEE; 8]);
    assert_eq!(region.read_vec(321, 8).unwrap(), [0x11; 8]);
}

/// A resolver over `segs` whose `SEG` device counts its operations on
/// `clock`; the catalog beside it is not counted.
fn counted_resolver(segs: &MemResolver, clock: &Arc<FaultClock>) -> DeviceResolver {
    let (segs, clock) = (segs.clone(), Arc::clone(clock));
    Arc::new(move |name: &str, min_len: u64| {
        let dev = segs.resolve(name, min_len)?;
        if name != SEG {
            return Ok(dev);
        }
        Ok(Arc::new(FaultDevice::with_clock(dev, Arc::clone(&clock))) as Arc<dyn Device>)
    })
}

/// A fresh instance over a 1 MiB log and `resolver`'s segments.
fn fresh_instance(resolver: DeviceResolver) -> Rvm {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    Rvm::initialize(Options::new(log).resolver(resolver).create_if_empty()).unwrap()
}

/// `segs` with `SEG` already `len` bytes long and patterned to its end,
/// and the pattern.
fn prewritten(len: u64) -> (MemResolver, Vec<u8>) {
    let segs = MemResolver::new();
    let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
    segs.resolve(SEG, len)
        .unwrap()
        .write_at(0, &pattern)
        .unwrap();
    (segs, pattern)
}

/// A first map reads a segment that already holds its region a 1 MiB
/// chunk a call, and each page once: the load that fills the region
/// adopts the catalog — one read for 64 pages, 9 for 2 049 pages. Every
/// page still counts as verified.
#[test]
fn a_first_map_reads_its_segment_a_chunk_a_call() {
    for (pages, reads) in [(64, 1), (2049, 9)] {
        let (segs, pattern) = prewritten(pages * PAGE_SIZE);
        let clock = FaultClock::new(Vec::new());
        let rvm = fresh_instance(counted_resolver(&segs, &clock));
        let region = rvm
            .map(&RegionDescriptor::new(SEG, 0, pages * PAGE_SIZE))
            .unwrap();
        assert_eq!(clock.ops_seen(), (reads, 0, 0), "{pages} pages");
        assert_eq!(rvm.stats().pages_scrubbed, pages, "{pages} pages");
        assert!(region.read_vec(0, pages * PAGE_SIZE).unwrap() == pattern);
        let (side, adopted) = sidecar_and_adopted(&segs);
        assert!(side == adopted, "{pages} pages");
        drop(region);
        rvm.terminate().unwrap();
    }
}

/// A first map that grows a fresh segment to hold its region reads none
/// of it: the grow zero-filled those pages and VM starts zeroed. None
/// counts as verified, and the catalog holds the zero pages' CRCs, as
/// adoption over the segment computes them — 2 049 pages are the TPC-A
/// benchmark's region.
#[test]
fn a_first_map_of_a_fresh_segment_reads_nothing() {
    for pages in [64, 2049] {
        let segs = MemResolver::new();
        let clock = FaultClock::new(Vec::new());
        let rvm = fresh_instance(counted_resolver(&segs, &clock));
        let region = rvm
            .map(&RegionDescriptor::new(SEG, 0, pages * PAGE_SIZE))
            .unwrap();
        assert_eq!(clock.ops_seen(), (0, 0, 0), "{pages} pages");
        assert_eq!(rvm.stats().pages_scrubbed, 0, "{pages} pages");
        let image = region.read_vec(0, pages * PAGE_SIZE).unwrap();
        assert!(image.iter().all(|&b| b == 0), "{pages} pages");
        let (side, adopted) = sidecar_and_adopted(&segs);
        assert!(side == adopted, "{pages} pages");
        drop(region);
        rvm.terminate().unwrap();
    }
}

/// A region that straddles a segment's old end reads exactly the pages
/// that held data before its map grew the segment — a short last page
/// among them — in one call, and none of the pages the grow added.
#[test]
fn a_map_across_the_old_end_reads_only_the_old_pages() {
    for (old_len, old_pages) in [(3 * PAGE_SIZE, 3), (3 * PAGE_SIZE + 100, 4)] {
        let (segs, pattern) = prewritten(old_len);
        let clock = FaultClock::new(Vec::new());
        let rvm = fresh_instance(counted_resolver(&segs, &clock));
        let region = rvm
            .map(&RegionDescriptor::new(SEG, 0, 6 * PAGE_SIZE))
            .unwrap();
        let ctx = format!("{old_len} bytes before the grow");
        assert_eq!(clock.ops_seen(), (1, 0, 0), "{ctx}");
        assert_eq!(rvm.stats().pages_scrubbed, old_pages, "{ctx}");
        let mut expected = pattern;
        expected.resize(6 * PAGE_SIZE as usize, 0);
        assert!(
            region.read_vec(0, 6 * PAGE_SIZE).unwrap() == expected,
            "{ctx}"
        );
        let (side, adopted) = sidecar_and_adopted(&segs);
        assert!(side == adopted, "{ctx}");
        drop(region);
        rvm.terminate().unwrap();
    }
}

/// A page a map took as zeros without reading it is still verified by
/// scrub: rot that lands on it after the map is detected, and repaired
/// from the zeros in VM.
#[test]
fn rot_on_a_page_a_map_took_as_zeros_is_repaired_by_scrub() {
    let segs = MemResolver::new();
    let rvm = fresh_instance(segs.clone().into_resolver());
    let region = rvm
        .map(&RegionDescriptor::new(SEG, 0, 4 * PAGE_SIZE))
        .unwrap();
    assert_eq!(rvm.stats().pages_scrubbed, 0);
    let seg = segs.get(SEG).unwrap();
    seg.write_at(2 * PAGE_SIZE + 100, &[0xEE]).unwrap();
    let report = rvm.scrub().unwrap();
    assert_eq!(report.pages_scanned, 4, "{report:?}");
    assert_eq!(report.corruptions_detected, 1, "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    assert!(seg.snapshot().iter().all(|&b| b == 0), "the rot is gone");
    assert_eq!(region.read_vec(2 * PAGE_SIZE + 100, 1).unwrap(), [0]);
    drop(region);
    rvm.terminate().unwrap();
}

/// What a map trusts of a grow: every shipped device reads an extension
/// as zeros — after a shrink too, over bytes it held before (the null
/// device holds none) — and so does a fault-injected one after a crash
/// rolled back a write it took before the shrink.
#[test]
fn every_device_zero_fills_an_extension() {
    let extends_with_zeros = |dev: &dyn Device, what: &str, kept: u8| {
        dev.set_len(64).unwrap();
        dev.write_at(0, &[0x5A; 64]).unwrap();
        dev.set_len(16).unwrap();
        dev.set_len(96).unwrap();
        let mut bytes = [0xFF; 96];
        dev.read_at(0, &mut bytes).unwrap();
        assert!(bytes[..16] == [kept; 16], "{what}: the bytes it kept");
        assert!(bytes[16..] == [0; 80], "{what}: the extension");
    };
    let mem = || Arc::new(MemDevice::with_len(0));
    extends_with_zeros(mem().as_ref(), "MemDevice", 0x5A);
    let path = std::env::temp_dir().join(format!("rvm-zero-fill-{}", std::process::id()));
    extends_with_zeros(
        &rvm_storage::FileDevice::create(&path, 0).unwrap(),
        "FileDevice",
        0x5A,
    );
    std::fs::remove_file(&path).unwrap();
    let replicas = vec![mem() as Arc<dyn Device>, mem()];
    extends_with_zeros(&MirrorDevice::new(replicas).unwrap(), "MirrorDevice", 0x5A);
    let null = rvm_storage::NullDevice::new(0);
    extends_with_zeros(&null, "NullDevice", 0);
    let disk = simdisk::SimDisk::new(
        mem(),
        simclock::Clock::new(),
        simdisk::DiskParams::circa_1990(),
    );
    extends_with_zeros(&disk, "SimDisk", 0x5A);
    let fault = FaultDevice::with_clock(mem(), FaultClock::new(Vec::new()));
    extends_with_zeros(&fault, "FaultDevice", 0x5A);

    // Durable bytes, a pending write over them, a shrink below it and a
    // grow: the crash's roll-back must not bring the old bytes back.
    let inner = mem();
    let fault = FaultDevice::with_clock(inner.clone(), FaultClock::new(Vec::new()));
    fault.set_len(64).unwrap();
    fault.write_at(0, &[0x5A; 64]).unwrap();
    fault.sync().unwrap();
    fault.write_at(8, &[0xA5; 56]).unwrap();
    fault.set_len(16).unwrap();
    fault.set_len(96).unwrap();
    fault.clock().crash_now();
    let image = inner.snapshot();
    assert!(image[..8] == [0x5A; 8], "durable bytes");
    assert!(
        image[16..] == [0; 80],
        "FaultDevice after a crash: {image:?}"
    );
}

/// The sidecar of `segs`' segment and, beside it, the one
/// [`SegmentChecksums::open`] adopts over the segment as it is now: one
/// CRC per page of its current bytes.
fn sidecar_and_adopted(segs: &MemResolver) -> (Vec<u8>, Vec<u8>) {
    let seg = segs.get(SEG).unwrap();
    let adopted = Arc::new(MemDevice::with_len(0));
    SegmentChecksums::open(adopted.clone(), seg.as_ref(), seg.len().unwrap()).unwrap();
    let side = segs.get(&sidecar_name(SEG)).unwrap();
    (side.snapshot(), adopted.snapshot())
}

/// An eager map adopts the pages it loads and, in one pass each, those
/// below and past its region: on a fresh 10-page segment of patterned
/// bytes, a region over pages 3..6 reads three times, verifies its 3
/// pages, and persists the very catalog adoption at open wrote. A second
/// map that grows the segment to 14 pages, over pages 12..14, reads
/// nothing: the gap (pages 10 and 11) and its region are the grow's
/// zeros.
#[test]
fn an_eager_map_adopts_what_it_loads_and_one_pass_around_it() {
    let segs = MemResolver::new();
    let seg = segs.resolve(SEG, 10 * PAGE_SIZE).unwrap();
    let pattern: Vec<u8> = (0..10 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    seg.write_at(0, &pattern).unwrap();
    let clock = FaultClock::new(Vec::new());
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::with_len(1 << 20)))
            .resolver(counted_resolver(&segs, &clock))
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new(SEG, 3 * PAGE_SIZE, 3 * PAGE_SIZE))
        .unwrap();
    assert_eq!(clock.ops_seen(), (3, 0, 0), "below, region, tail");
    assert_eq!(rvm.stats().pages_scrubbed, 3);
    let (side, adopted) = sidecar_and_adopted(&segs);
    assert!(side == adopted, "the first map's catalog");
    let image = region.read_vec(0, 3 * PAGE_SIZE).unwrap();
    assert!(image[..] == pattern[3 * PAGE_SIZE as usize..6 * PAGE_SIZE as usize]);

    let grown = rvm
        .map(&RegionDescriptor::new(SEG, 12 * PAGE_SIZE, 2 * PAGE_SIZE))
        .unwrap();
    assert_eq!(clock.ops_seen(), (3, 0, 0), "nothing past the old end");
    assert_eq!(rvm.stats().pages_scrubbed, 3);
    assert!(grown.read_vec(0, 2 * PAGE_SIZE).unwrap() == [0; 2 * PAGE_SIZE as usize]);
    let (side, adopted) = sidecar_and_adopted(&segs);
    assert!(side == adopted, "the grown catalog");
    drop((region, grown));
    rvm.terminate().unwrap();
}

/// A pre-existing segment of 6 000 bytes ends in a short page. Mapping
/// page 0 adopts it; mapping page 1 then zero-extends it to a whole page,
/// whose checksum is the one adopted, so it loads clean and nothing is
/// quarantined.
#[test]
fn growing_a_short_last_page_keeps_its_checksum() {
    let segs = MemResolver::new();
    let pattern: Vec<u8> = (0..6_000).map(|i| (i % 251) as u8 + 1).collect();
    segs.resolve(SEG, 0).unwrap();
    segs.get(SEG).unwrap().restore(pattern.clone());
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::with_len(1 << 20)))
            .resolver(segs.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let first = rvm.map(&RegionDescriptor::new(SEG, 0, PAGE_SIZE)).unwrap();
    let second = rvm
        .map(&RegionDescriptor::new(SEG, PAGE_SIZE, PAGE_SIZE))
        .expect("the grown page verifies");
    let mut page = pattern[PAGE_SIZE as usize..].to_vec();
    page.resize(PAGE_SIZE as usize, 0);
    assert!(second.read_vec(0, PAGE_SIZE).unwrap() == page);
    assert_eq!(rvm.stats().corruptions_detected, 0);
    assert_eq!(rvm.stats().regions_quarantined, 0);
    drop((first, second));
    rvm.terminate().unwrap();
}

/// An on-demand map still adopts at open and loads nothing until a page
/// is touched. Over a segment that holds its 64 pages that is one read
/// each; over a fresh segment its grow made, neither reads.
#[test]
fn an_on_demand_map_adopts_at_open() {
    for (written, reads) in [(true, 1), (false, 0)] {
        let segs = match written {
            true => prewritten(64 * PAGE_SIZE).0,
            false => MemResolver::new(),
        };
        let clock = FaultClock::new(Vec::new());
        let rvm = fresh_instance(counted_resolver(&segs, &clock));
        let desc = RegionDescriptor::new(SEG, 0, 64 * PAGE_SIZE);
        let region = rvm.map_with(&desc, LoadPolicy::OnDemand).unwrap();
        let ctx = if written { "written" } else { "fresh" };
        assert_eq!(clock.ops_seen(), (reads, 0, 0), "{ctx}: adoption");
        assert_eq!(rvm.stats().pages_scrubbed, 0, "{ctx}");
        region.read_vec(5 * PAGE_SIZE, 8).unwrap();
        assert_eq!(clock.ops_seen(), (2 * reads, 0, 0), "{ctx}: page 5's load");
        assert_eq!(rvm.stats().pages_scrubbed, reads, "{ctx}");
        let (side, adopted) = sidecar_and_adopted(&segs);
        assert!(side == adopted, "{ctx}");
        drop(region);
        rvm.terminate().unwrap();
    }
}

/// The catalog an eager map adopts is durable before `map` returns: rot
/// that lands on the segment after it, with the instance crashed before
/// anything else ran, is found by the next instance's map — a catalog
/// still to be adopted would have taken the rotten bytes as good.
#[test]
fn rot_after_a_first_map_is_detected_by_the_next_instance() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segs = MemResolver::new();
    let boot = || {
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(segs.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap()
    };
    let desc = RegionDescriptor::new(SEG, 0, 4 * PAGE_SIZE);
    let rvm = boot();
    let region = rvm.map(&desc).unwrap();
    std::mem::forget((region, rvm)); // crash right after the map
    segs.get(SEG)
        .unwrap()
        .write_at(2 * PAGE_SIZE + 100, &[0xEE])
        .unwrap();

    let rvm = boot();
    let err = rvm.map(&desc).unwrap_err();
    assert!(matches!(err, RvmError::Media(_)), "{err}");
    assert_eq!(rvm.stats().corruptions_detected, 1);
}

/// Recovery moves the pages a log touches in runs of at most four: a
/// transaction over 16 consecutive pages is redone with four reads and
/// four writes (sixteen of each a page at a time), then one sync.
#[test]
fn recovery_reads_and_writes_touched_pages_a_run_a_call() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segs = MemResolver::new();
    let boot = |resolver| {
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(resolver)
                .create_if_empty(),
        )
        .unwrap()
    };
    let desc = RegionDescriptor::new(SEG, 0, 20 * PAGE_SIZE);
    let rvm = boot(segs.clone().into_resolver());
    let region = rvm.map(&desc).unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    for page in 2..18 {
        region
            .write(&mut txn, page * PAGE_SIZE + 100, &[page as u8; 64])
            .unwrap();
    }
    txn.commit(CommitMode::Flush).unwrap();
    std::mem::forget(rvm); // crash: the commit is in the log alone

    let clock = FaultClock::new(Vec::new());
    let rvm = boot(counted_resolver(&segs, &clock));
    assert_eq!(rvm.recovery_report().records_replayed, 1);
    assert_eq!(clock.ops_seen(), (4, 4, 1), "(reads, writes, syncs)");
    assert_eq!(rvm.stats().pages_scrubbed, 16);
    let region = rvm.map(&desc).unwrap();
    for page in 2..18 {
        let got = region.read_vec(page * PAGE_SIZE + 100, 64).unwrap();
        assert_eq!(got, vec![page as u8; 64], "page {page}");
    }
}

/// A page that fails a run's read takes the ladder alone, and the counts
/// are what a read per page gave: in recovery's run over four pages, page
/// 1 rotten on one replica (read-repaired) and page 2 on both (detected,
/// then re-adopted under the redo); in a later map's run, page 3 rotten
/// on one replica (read-repaired).
#[test]
fn rot_in_the_middle_of_a_run_counts_as_a_read_per_page_did() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let a = Arc::new(MemDevice::with_len(4 * PAGE_SIZE));
    let b = Arc::new(MemDevice::with_len(4 * PAGE_SIZE));
    let mirror = Arc::new(
        MirrorDevice::new(vec![
            Arc::clone(&a) as Arc<dyn Device>,
            Arc::clone(&b) as Arc<dyn Device>,
        ])
        .unwrap(),
    );
    let side = MemResolver::new();
    let boot = || {
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(mirrored_resolver(&mirror, &side))
                .create_if_empty(),
        )
        .unwrap()
    };
    let desc = RegionDescriptor::new(SEG, 0, 4 * PAGE_SIZE);
    let rvm = boot();
    let region = rvm.map(&desc).unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    for page in 0..4 {
        region
            .write(&mut txn, page * PAGE_SIZE, &[0x5A; 64])
            .unwrap();
    }
    txn.commit(CommitMode::Flush).unwrap();
    std::mem::forget(rvm); // crash: the commit is in the log alone

    let rot = |dev: &MemDevice, page: u64| dev.write_at(page * PAGE_SIZE + 3000, &[0xEE]).unwrap();
    rot(&a, 1);
    rot(&a, 2);
    rot(&b, 2);
    let rvm = boot();
    let counts = |rvm: &Rvm| {
        let s = rvm.stats();
        (
            s.pages_scrubbed,
            s.corruptions_detected,
            s.corruptions_repaired,
        )
    };
    assert_eq!(counts(&rvm), (4, 2, 1), "recovery");
    let report = rvm.recovery_report();
    let recovered = (report.corrupt_pages_detected, report.corrupt_pages_repaired);
    assert_eq!(recovered, (2, 1), "{report:?}");
    assert_eq!(
        a.snapshot()[PAGE_SIZE as usize + 3000],
        0,
        "replica a's page 1 repaired"
    );

    rot(&a, 3);
    let region = rvm.map(&desc).unwrap();
    assert_eq!(counts(&rvm), (4 + 4, 2 + 1, 1 + 1), "map");
    assert_eq!(
        a.snapshot()[3 * PAGE_SIZE as usize + 3000],
        0,
        "replica a's page 3 repaired"
    );
    assert_eq!(region.read_vec(3 * PAGE_SIZE, 64).unwrap(), vec![0x5A; 64]);
    let report = rvm.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");
}

/// A run's read is its pages' first: a page it reads rotten gets two
/// more, three reads in all, as when each page was read alone. Rot on the first two of them is transient (detected,
/// repaired by a re-read); rot on all three is resident (detected, not
/// repaired), and the map that finds it fails with a media error.
#[test]
fn a_page_rotten_on_three_reads_is_corrupt_and_on_two_is_repaired() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segs = MemResolver::new();
    let desc = RegionDescriptor::new(SEG, 0, 4 * PAGE_SIZE);
    let boot = |resolver| {
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(resolver)
                .create_if_empty(),
        )
        .unwrap()
    };
    let rvm = boot(segs.clone().into_resolver());
    let region = rvm.map(&desc).unwrap();
    commit_fill(&rvm, &region, 0, &[0x5A; 4 * PAGE_SIZE as usize]);
    rvm.truncate().unwrap(); // nothing left for recovery to read
    drop(region);
    rvm.terminate().unwrap();

    for (rotten_reads, repaired) in [(2, 1), (3, 0)] {
        let clock = FaultClock::new(vec![FlakyFault::bit_rot_run(
            FaultOp::Read,
            1,
            rotten_reads,
        )]);
        let rvm = boot(counted_resolver(&segs, &clock));
        let mapped = rvm.map(&desc);
        let ctx = format!("rot on {rotten_reads} reads");
        assert_eq!(clock.ops_seen(), (3, 0, 0), "{ctx}: run read + 2 re-reads");
        let stats = rvm.stats();
        let counts = (stats.corruptions_detected, stats.corruptions_repaired);
        assert_eq!(counts, (1, repaired), "{ctx}");
        match mapped {
            Ok(region) => {
                assert_eq!(repaired, 1, "{ctx}");
                let image = region.read_vec(0, 4 * PAGE_SIZE).unwrap();
                assert!(image.iter().all(|&b| b == 0x5A), "{ctx}");
            }
            Err(e) => assert!(
                matches!(e, RvmError::Media(_)) && repaired == 0,
                "{ctx}: {e}"
            ),
        }
    }
}
