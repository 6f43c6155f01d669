//! Crash recovery (§5.1.2).
//!
//! "Crash recovery consists of RVM first reading the log from tail to
//! head, then constructing an in-memory tree of the latest committed
//! changes for each data segment encountered in the log. The trees are
//! then traversed, applying modifications in them to the corresponding
//! external data segment. Finally, the head and tail location information
//! in the log status block is updated to reflect an empty log. The
//! idempotency of recovery is achieved by delaying this step until all
//! other recovery actions are complete."
//!
//! Concretely: the forward scan streams the live span through one reused
//! window and locates the true tail (first torn record or sequence gap
//! past the durable head). As each record passes, its ranges' new values
//! are copied once into a value arena, where a newer range of the same
//! start and length overwrites the value it supersedes. The kept values
//! are then resolved, newest first, into disjoint pieces per segment, so
//! the latest committed value of every byte wins and older ones are
//! dropped without being applied. Memory follows the values kept, not the
//! log read: headers, padding and superseded values never outlive the
//! window.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rvm_storage::Device;

use crate::error::{Result, RvmError};
use crate::log::status::{write_status, StatusBlock};
use crate::log::wal::scan_records;
use crate::options::Tuning;
use crate::ranges::ValueArena;
use crate::rvm::elapsed_ns;
use crate::segment::{table_entry, ApplyContext, OpenSegments, Segment, SegmentId};
use crate::sync::{Instant, RwLock};

/// What recovery did, for inspection and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transaction records found in the log.
    pub records_replayed: usize,
    /// Bytes applied to segments (after newest-wins pruning).
    pub bytes_applied: u64,
    /// Segments written to.
    pub segments_updated: usize,
    /// Pad records skipped.
    pub pads_skipped: u64,
    /// Whether the crash interrupted an in-flight epoch truncation (the
    /// status block carried a nonzero epoch boundary). Recovery handles
    /// the span like any other live log prefix — re-applying it is
    /// idempotent — so this is diagnostic only.
    pub interrupted_epoch: bool,
    /// Segment pages recovery touched whose pre-apply image failed
    /// checksum verification (media rot surfaced during replay).
    pub corrupt_pages_detected: u64,
    /// Detected pages left with an exact catalog entry: read-repair
    /// recovered the old image, or the log span rewrote the whole page.
    pub corrupt_pages_repaired: u64,
}

/// Wall-clock nanoseconds of a replay's three phases. Apart from
/// [`RecoveryReport`], so that reports compare exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTimes {
    /// Reading the live span and keeping its values.
    pub scan_ns: u64,
    /// Resolving the kept values into per-segment trees.
    pub resolve_ns: u64,
    /// Writing the trees to their segments and making them durable.
    pub apply_ns: u64,
}

/// What [`apply_span`] did.
pub(crate) struct SpanApplied {
    /// Logical offset one past the last valid record scanned.
    pub tail: u64,
    /// Sequence number the record at `tail` would carry.
    pub next_seq: u64,
    /// Newest-wins pieces written, over all segments.
    pub ranges: u64,
    /// The counts, in recovery's terms (`interrupted_epoch` and the
    /// corrupt-page counts unset: the handles count those).
    pub report: RecoveryReport,
    pub times: RecoveryTimes,
}

/// Scans the log span from `head` (to `end`, or to the true tail) and
/// applies the latest committed change of every byte to its segment —
/// the recovery procedure, and therefore also epoch truncation, which
/// is "the crash recovery procedure applied to the oldest part of the
/// log" (§5.1.2; the paper reused its recovery code the same way).
///
/// The records' values are kept in a [`ValueArena`] as the scan passes
/// them and resolved at its end, the newest value of a byte winning; one
/// segment's sorted, disjoint pieces are one "tree". Before anything is
/// opened or written, `fits` checks every tree's segment id and end
/// against the durable segment table ([`table_entry`]); `resolve` then
/// maps a segment id and the tree's end offset to the segment's open
/// handle. Both look in the status block's table at `initialize` and in
/// `Core::segments` at run time. Each tree is written
/// ([`Segment::apply_pieces`]) and made durable ([`Segment::finish`])
/// before this returns, so the caller may move the log head past the
/// span.
pub(crate) fn apply_span(
    log: &dyn Device,
    area_len: u64,
    head: u64,
    seq_at_head: u64,
    end: Option<u64>,
    fits: &mut dyn FnMut(SegmentId, u64) -> Result<()>,
    resolve: &mut dyn FnMut(SegmentId, u64) -> Result<Arc<Segment>>,
) -> Result<SpanApplied> {
    let mut clock = Instant::now();
    let mut lap = || elapsed_ns(std::mem::replace(&mut clock, Instant::now()));
    let mut times = RecoveryTimes::default();
    let mut values = ValueArena::default();
    let scan = scan_records(log, area_len, head, seq_at_head, end, |_, record| {
        values.keep_record(record.ranges());
    })?;
    if end.is_some_and(|end| scan.tail != end) {
        // Everything below a truncation boundary was forced before it
        // was drawn; a short scan means the log was corrupted underneath.
        return Err(RvmError::BadLog(format!(
            "scan from {head} ended at {} before the boundary {end:?}",
            scan.tail
        )));
    }
    times.scan_ns = lap();
    let pieces = values.latest_pieces();
    times.resolve_ns = lap();
    let chunks = pieces.chunk_by(|a, b| a.seg == b.seg);
    let trees = chunks.filter_map(|t| Some((t, SegmentId::new(t.first()?.seg), t.last()?.end())));
    let trees: Vec<_> = trees.collect();
    for &(_, seg, end) in &trees {
        fits(seg, end)?;
    }
    let mut report = RecoveryReport {
        records_replayed: scan.records,
        bytes_applied: pieces.iter().map(|p| p.data.len() as u64).sum(),
        pads_skipped: scan.pads,
        ..RecoveryReport::default()
    };
    // A span that runs to a truncation boundary is an epoch's.
    let ctx = end.map_or(ApplyContext::Recovery, |_| ApplyContext::Truncation);
    for (tree, seg, end) in trees {
        let segment = resolve(seg, end)?;
        segment.apply_pieces(tree, ctx)?;
        segment.finish()?;
        report.segments_updated += 1;
    }
    times.apply_ns = lap();
    Ok(SpanApplied {
        tail: scan.tail,
        next_seq: scan.next_seq,
        ranges: pieces.len() as u64,
        report,
        times,
    })
}

/// Recovery output consumed by [`Rvm::initialize`](crate::Rvm::initialize).
pub(crate) struct Recovered {
    /// Post-recovery status (already written to the device; log empty).
    pub status: StatusBlock,
    pub report: RecoveryReport,
    pub times: RecoveryTimes,
}

/// Runs crash recovery over the log and returns the recovered state.
/// Every segment the live span touches is opened into `segments` — with
/// a catalog when `tuning` says so, and then the replay applies under
/// checksum scrutiny (see [`Segment::apply_pieces`]) so the catalog is
/// exact again before the status reset empties the log — and stays open
/// for the instance.
pub(crate) fn recover(
    dev: &Arc<dyn Device>,
    mut status: StatusBlock,
    segments: &OpenSegments,
    tuning: &RwLock<Tuning>,
) -> Result<Recovered> {
    let media = &segments.media;
    let corrupt_pages = || {
        let detected = media.corruptions_detected.load(Ordering::Relaxed);
        (detected, media.corruptions_repaired.load(Ordering::Relaxed))
    };
    let before = corrupt_pages();
    let applied = apply_span(
        dev.as_ref(),
        status.area_len,
        status.head,
        status.seq_at_head,
        None,
        &mut |seg, tree_end| table_entry(&status.segments, seg, tree_end).map(drop),
        &mut |seg, tree_end| segments.get(&status.segments, seg, tree_end, tuning),
    )?;

    // Only now reset the status block to an empty log (idempotency). A
    // crash mid-epoch-truncation leaves a nonzero epoch boundary in the
    // status; the scan above already covered that span, so the fields are
    // simply cleared here.
    let after = corrupt_pages();
    let report = RecoveryReport {
        interrupted_epoch: status.epoch_end != 0,
        corrupt_pages_detected: after.0 - before.0,
        corrupt_pages_repaired: after.1 - before.1,
        ..applied.report
    };
    status.head = applied.tail;
    status.tail = applied.tail;
    status.seq_at_head = applied.next_seq;
    status.next_seq = applied.next_seq;
    status.epoch_end = 0;
    status.epoch_next_seq = 0;
    write_status(dev.as_ref(), &mut status)?;

    Ok(Recovered {
        status,
        report,
        times: applied.times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::record::RecordRange;
    use crate::log::status::{format_log, read_status, LOG_AREA_START};
    use crate::log::wal::{tests::append, Wal};
    use crate::segment::{MemResolver, SegmentInfo};
    use rvm_storage::MemDevice;

    /// Recovery over `resolver`'s segments, checksums on.
    fn recover(
        dev: &Arc<dyn Device>,
        status: StatusBlock,
        resolver: &MemResolver,
    ) -> Result<Recovered> {
        let segments = OpenSegments::new(resolver.clone().into_resolver(), Arc::default());
        super::recover(dev, status, &segments, &RwLock::new(Tuning::default()))
    }

    fn setup(area_blocks: u64) -> (Arc<dyn Device>, StatusBlock, MemResolver) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::with_len(
            LOG_AREA_START + area_blocks * crate::log::record::LOG_BLOCK,
        ));
        let mut status = format_log(dev.as_ref()).unwrap();
        status.segments.push(SegmentInfo {
            id: SegmentId::new(0),
            name: "segA".to_owned(),
            min_len: 4096,
        });
        status.segments.push(SegmentInfo {
            id: SegmentId::new(1),
            name: "segB".to_owned(),
            min_len: 4096,
        });
        write_status(dev.as_ref(), &mut status).unwrap();
        (dev, status, MemResolver::new())
    }

    fn wal_for(dev: &Arc<dyn Device>, status: &StatusBlock) -> Wal {
        Wal::new(
            dev.clone(),
            status.area_len,
            status.head,
            status.tail,
            status.seq_at_head,
            status.next_seq,
        )
    }

    fn rr(seg: u32, offset: u64, data: &[u8]) -> RecordRange {
        RecordRange {
            seg: SegmentId::new(seg),
            offset,
            data: data.to_vec(),
        }
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let (dev, status, resolver) = setup(64);
        let rec = recover(&dev, status, &resolver).unwrap();
        assert_eq!(rec.report, RecoveryReport::default());
        assert!(resolver.get("segA").is_none(), "no devices touched");
    }

    #[test]
    fn latest_committed_value_wins() {
        let (dev, status, resolver) = setup(64);
        let mut wal = wal_for(&dev, &status);
        append(&mut wal, 1, &[rr(0, 0, &[1, 1, 1, 1])]).unwrap();
        append(&mut wal, 2, &[rr(0, 2, &[2, 2])]).unwrap();
        append(&mut wal, 3, &[rr(0, 3, &[3])]).unwrap();
        wal.force().unwrap();

        let rec = recover(&dev, status, &resolver).unwrap();
        assert_eq!(rec.report.records_replayed, 3);
        // Newest-wins pruning applies exactly 4 bytes, not 7.
        assert_eq!(rec.report.bytes_applied, 4);
        let seg = resolver.get("segA").unwrap();
        let mut buf = [0u8; 4];
        seg.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 2, 3]);
    }

    #[test]
    fn multiple_segments_are_applied() {
        let (dev, status, resolver) = setup(64);
        let mut wal = wal_for(&dev, &status);
        append(&mut wal, 1, &[rr(0, 0, &[7; 8]), rr(1, 100, &[9; 8])]).unwrap();
        wal.force().unwrap();
        let rec = recover(&dev, status, &resolver).unwrap();
        assert_eq!(rec.report.segments_updated, 2);
        let mut buf = [0u8; 8];
        resolver
            .get("segB")
            .unwrap()
            .read_at(100, &mut buf)
            .unwrap();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn status_is_reset_to_empty_log_and_recovery_is_idempotent() {
        let (dev, status, resolver) = setup(64);
        let mut wal = wal_for(&dev, &status);
        append(&mut wal, 1, &[rr(0, 0, &[5; 16])]).unwrap();
        wal.force().unwrap();
        let tail = wal.tail();

        let rec = recover(&dev, status, &resolver).unwrap();
        assert_eq!(rec.status.head, tail);
        assert_eq!(rec.status.tail, tail);

        // A second recovery (as if we crashed right after) finds nothing.
        let status2 = read_status(dev.as_ref()).unwrap();
        let rec2 = recover(&dev, status2, &resolver).unwrap();
        assert_eq!(rec2.report.records_replayed, 0);
        let seg = resolver.get("segA").unwrap();
        let mut buf = [0u8; 16];
        seg.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [5; 16]);
    }

    #[test]
    fn torn_tail_transaction_is_not_applied() {
        let (dev, status, resolver) = setup(64);
        let mut wal = wal_for(&dev, &status);
        append(&mut wal, 1, &[rr(0, 0, &[1; 8])]).unwrap();
        let info = append(&mut wal, 2, &[rr(0, 0, &[2; 8])]).unwrap();
        // Tear the second record.
        dev.write_at(LOG_AREA_START + info.offset + 50, &[0xFF; 4])
            .unwrap();
        let rec = recover(&dev, status, &resolver).unwrap();
        assert_eq!(rec.report.records_replayed, 1);
        let seg = resolver.get("segA").unwrap();
        let mut buf = [0u8; 8];
        seg.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1; 8], "only the intact transaction is applied");
    }

    #[test]
    fn unknown_segment_id_is_reported() {
        let (dev, status, resolver) = setup(64);
        let mut wal = wal_for(&dev, &status);
        append(&mut wal, 1, &[rr(9, 0, &[1; 4])]).unwrap();
        wal.force().unwrap();
        let Err(err) = recover(&dev, status, &resolver) else {
            panic!("recovery must fail for an unknown segment id");
        };
        assert!(matches!(err, RvmError::BadLog(_)));
    }

    /// The table says segment A reaches 100 050 bytes (a `map` grew it
    /// and crashed before the device followed): recovery grows the device
    /// to hold the range the log writes there.
    #[test]
    fn segment_device_grows_to_fit_applied_ranges() {
        let (dev, mut status, resolver) = setup(64);
        resolver.resolve("segA", 4096).unwrap();
        status.segments[0].min_len = 100_050;
        write_status(dev.as_ref(), &mut status).unwrap();
        let mut wal = wal_for(&dev, &status);
        append(&mut wal, 1, &[rr(0, 100_000, &[3; 50])]).unwrap();
        wal.force().unwrap();
        recover(&dev, status, &resolver).unwrap();
        let seg = resolver.get("segA").unwrap();
        assert!(seg.len().unwrap() >= 100_050);
    }
}
