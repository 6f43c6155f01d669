//! The no-flush commit spool and inter-transaction optimization (§5.2).
//!
//! No-flush ("lazy") commits do not force the log: their records are
//! spooled in memory and ride the next commit leader's batch — a flush
//! commit's, or the barrier a `flush` raises ([`crate::commit`]). The
//! spool is where the inter-transaction optimization lives: "if the
//! modifications being committed subsume those from an earlier unflushed
//! transaction, the older log records are discarded."
//!
//! Since the concurrency-planes split, the spool is its own plane
//! ([`SpoolPlane`]): a no-flush commit pushes its record under one of
//! [`SPOOL_SHARDS`] shard locks — never the global core lock — while
//! the leader's fill drains records in global commit order through a
//! monotone *ticket* assigned at push. Atomic length/byte gauges serve
//! `query()` and the overflow check without any lock at all.
//!
//! Dropping a spooled record must release the *unflushed* page counts it
//! holds (see
//! [`PageVector`](crate::truncation::page_vector::PageVector)), otherwise
//! incremental truncation would block forever on pages whose pending
//! records no longer exist.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::ranges::{ByteRange, Piece, SegCoverage};
use crate::region::RegionInner;
use crate::segment::SegmentId;

/// Number of spool shards. Sixteen is plenty: the shard lock is held for
/// a queue push, and records shard by segment, so disjoint-segment
/// workloads never contend.
pub(crate) const SPOOL_SHARDS: usize = 16;

/// One committed transaction's log record, not yet written: in the spool
/// (a no-flush commit) or parked in a commit-queue slot (a flush commit,
/// which never takes a ticket). Four flat arenas, filled straight from VM
/// at commit; a flush commit gets them back with its outcome.
#[derive(Default)]
pub(crate) struct SpooledTxn {
    /// Transaction id (diagnostics).
    pub tid: u64,
    /// Global push order, assigned by [`SpoolPlane::push`] under the
    /// shard lock; the drain pops shards in ticket order so the durable
    /// log preserves spool order across shards.
    pub ticket: u64,
    /// The ranges, segment-absolute, in the order they will be logged.
    pub ranges: Vec<(SegmentId, ByteRange)>,
    /// Their new values, back to back.
    pub data: Vec<u8>,
    /// The regions the record dirties, in id order, each with where its
    /// run of `pages` ends (and the next region's starts).
    pub regions: Vec<(Weak<RegionInner>, usize)>,
    /// The pages it dirties — the transaction's touched pages. A spooled
    /// record holds their unflushed counts.
    pub pages: Vec<usize>,
    /// Unpadded record size, for Table 2 accounting.
    pub record_bytes: u64,
}

impl SpooledTxn {
    /// Adds `ranges` of `region`, as VM holds them now (one hold of the
    /// region's memory lock), and the `pages` they dirty. Each arena
    /// grows at most once per call, to its exact size.
    pub fn log_region(
        &mut self,
        region: &Arc<RegionInner>,
        ranges: impl Iterator<Item = ByteRange> + Clone,
        pages: &[usize],
    ) {
        let bytes: u64 = ranges.clone().map(|r| r.len()).sum();
        self.data.reserve(bytes as usize);
        let in_segment = |r: ByteRange| ByteRange::at(region.seg_offset + r.start, r.len());
        let logged = ranges.clone().map(|r| (region.segment.id, in_segment(r)));
        self.ranges.extend(logged);
        region.read_into(ranges, &mut self.data);
        self.pages.extend_from_slice(pages);
        let region = Arc::downgrade(region);
        self.regions.push((region, self.pages.len()));
    }

    /// The ranges with their new values borrowed from the arena: what
    /// the log's encoder takes.
    pub fn pieces(&self) -> impl Iterator<Item = Piece<'_>> + Clone {
        self.ranges.iter().scan(0usize, |at, (seg, r)| {
            let data = self.data.get(*at..*at + r.len() as usize)?;
            *at += data.len();
            let (seg, start) = (seg.as_u32(), r.start);
            Some(Piece { seg, start, data })
        })
    }

    /// Each region the record dirties, with its pages.
    pub fn region_pages(&self) -> impl Iterator<Item = (&Weak<RegionInner>, &[usize])> {
        self.regions.iter().scan(0usize, |at, (region, end)| {
            let pages = self.pages.get(*at..*end)?;
            *at = *end;
            Some((region, pages))
        })
    }

    /// Empties the record, keeping the arenas' allocations.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.data.clear();
        self.regions.clear();
        self.pages.clear();
    }

    fn release_unflushed(&self) {
        for (weak, pages) in self.region_pages() {
            if let Some(region) = weak.upgrade() {
                let mut pv = region.page_vector.lock();
                for &p in pages {
                    pv.dec_unflushed(p);
                }
            }
        }
    }
}

/// FIFO of committed, unflushed transaction records (one shard's worth).
#[derive(Default)]
pub(crate) struct Spool {
    txns: VecDeque<SpooledTxn>,
    bytes: u64,
    /// What the record being pushed covers, emptied between pushes.
    coverage: SegCoverage,
}

impl Spool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of spooled records.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Total unpadded record bytes pending.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Ticket of the oldest record, if any.
    pub fn front_ticket(&self) -> Option<u64> {
        self.txns.front().map(|t| t.ticket)
    }

    /// Returns `true` if any pending record touches `seg`.
    pub fn references(&self, seg: SegmentId) -> bool {
        self.txns
            .iter()
            .any(|t| t.ranges.iter().any(|r| r.0 == seg))
    }

    /// Appends a record, first discarding any older records it subsumes
    /// when `inter_opt` is enabled. Returns the record bytes saved.
    pub fn push(&mut self, txn: SpooledTxn, inter_opt: bool) -> u64 {
        let mut saved = 0u64;
        if inter_opt && !self.txns.is_empty() {
            // Coverage of the new record, per segment.
            let coverage = &mut self.coverage;
            coverage.clear();
            for (seg, r) in &txn.ranges {
                coverage.add(seg.as_u32(), *r);
            }
            self.txns.retain(|old| {
                let mut ranges = old.ranges.iter();
                let subsumed = ranges.all(|(seg, r)| coverage.covers(seg.as_u32(), r));
                if subsumed {
                    saved += old.record_bytes;
                    old.release_unflushed();
                }
                !subsumed
            });
            self.bytes -= saved;
        }
        self.bytes += txn.record_bytes;
        self.txns.push_back(txn);
        saved
    }

    /// Removes and returns the oldest record.
    pub fn pop_front(&mut self) -> Option<SpooledTxn> {
        let txn = self.txns.pop_front()?;
        self.bytes -= txn.record_bytes;
        Some(txn)
    }

    /// Puts a record back at the front (after a failed flush attempt).
    pub fn push_front(&mut self, txn: SpooledTxn) {
        self.bytes += txn.record_bytes;
        self.txns.push_front(txn);
    }
}

/// The spool concurrency plane: [`SPOOL_SHARDS`] independently locked
/// [`Spool`]s plus lock-free gauges.
///
/// * **Push** (no-flush commit fast path): locks exactly one shard —
///   chosen by the record's first segment, so the §5.2 subsumption scan
///   stays exact for single-segment workloads — assigns the global
///   ticket *under* that lock (shard order therefore equals ticket
///   order), and updates the gauges.
/// * **Pop** (the commit leader's fill, under the core lock): finds the
///   minimum front ticket across shards and pops it, re-scanning if a
///   concurrent push's subsumption removed the chosen front. Records are
///   exposed one at a time, exactly as the single-queue spool drained.
/// * **Gauges**: `len`/`bytes` are relaxed atomics updated while the
///   shard lock is held; `query()` and the spool-overflow check read
///   them without any lock.
pub(crate) struct SpoolPlane {
    shards: Vec<Mutex<Spool>>,
    next_ticket: AtomicU64,
    len: AtomicUsize,
    bytes: AtomicU64,
}

impl SpoolPlane {
    pub fn new() -> Self {
        Self {
            shards: (0..SPOOL_SHARDS)
                .map(|_| Mutex::new(Spool::new()))
                .collect(),
            next_ticket: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The shard a record belongs to: chosen by its first segment so the
    /// subsumption scan stays exact for single-segment workloads, and
    /// deterministic so `requeue_front` returns a popped record to the
    /// shard it came from. Always `Some` — the index is reduced modulo
    /// `self.shards.len()`; the checked `get` form keeps the plane off
    /// the panic surface.
    fn shard_of(&self, txn: &SpooledTxn) -> Option<&Mutex<Spool>> {
        let idx = match txn.ranges.first() {
            Some((seg, _)) => seg.as_u32() as usize % SPOOL_SHARDS,
            None => txn.tid as usize % SPOOL_SHARDS,
        };
        self.shards.get(idx)
    }

    /// Folds one shard's before/after sizes into the gauges. Called with
    /// the shard lock held so the gauges track content transitions.
    fn apply_delta(&self, len0: usize, bytes0: u64, len1: usize, bytes1: u64) {
        if len1 >= len0 {
            self.len.fetch_add(len1 - len0, Ordering::Relaxed);
        } else {
            self.len.fetch_sub(len0 - len1, Ordering::Relaxed);
        }
        if bytes1 >= bytes0 {
            self.bytes.fetch_add(bytes1 - bytes0, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(bytes0 - bytes1, Ordering::Relaxed);
        }
    }

    /// Total spooled records (lock-free gauge).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Total pending unpadded record bytes (lock-free gauge).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spools a record under its shard's lock; see [`Spool::push`] for
    /// the subsumption semantics. Returns the record bytes saved.
    pub fn push(&self, mut txn: SpooledTxn, inter_opt: bool) -> u64 {
        let Some(shard) = self.shard_of(&txn) else {
            return 0; // unreachable: shard_of is total
        };
        let mut guard = shard.lock();
        txn.ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let (len0, bytes0) = (guard.len(), guard.bytes());
        let saved = guard.push(txn, inter_opt);
        self.apply_delta(len0, bytes0, guard.len(), guard.bytes());
        saved
    }

    /// Removes and returns the globally oldest record (minimum ticket).
    ///
    /// Never holds two shard locks at once: the scan reads each front
    /// ticket under its own lock, then re-locks the winner — if a
    /// concurrent push subsumed that front meanwhile, the scan restarts.
    pub fn pop_front(&self) -> Option<SpooledTxn> {
        loop {
            let mut best: Option<(&Mutex<Spool>, u64)> = None;
            for shard in self.shards.iter() {
                let guard = shard.lock();
                if let Some(t) = guard.front_ticket() {
                    if best.is_none_or(|(_, bt)| t < bt) {
                        best = Some((shard, t));
                    }
                }
            }
            let (shard, ticket) = best?;
            let mut guard = shard.lock();
            if guard.front_ticket() != Some(ticket) {
                // A concurrent push's subsumption removed the chosen
                // front (or requeue changed it); re-derive the minimum.
                continue;
            }
            let (len0, bytes0) = (guard.len(), guard.bytes());
            let txn = guard.pop_front();
            self.apply_delta(len0, bytes0, guard.len(), guard.bytes());
            return txn;
        }
    }

    /// Puts a record back at the front of its shard (after a failed
    /// flush attempt); its original ticket keeps it first in pop order.
    pub fn requeue_front(&self, txn: SpooledTxn) {
        let Some(shard) = self.shard_of(&txn) else {
            return; // unreachable: shard_of is total
        };
        let mut guard = shard.lock();
        let (len0, bytes0) = (guard.len(), guard.bytes());
        guard.push_front(txn);
        self.apply_delta(len0, bytes0, guard.len(), guard.bytes());
    }

    /// Returns `true` if any pending record touches `seg`.
    pub fn references(&self, seg: SegmentId) -> bool {
        self.shards.iter().any(|shard| shard.lock().references(seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record over `(offset, len)` ranges of segment `seg`.
    fn rec_over(seg: u32, ranges: &[(u64, usize)], bytes: u64) -> SpooledTxn {
        SpooledTxn {
            ranges: ranges
                .iter()
                .map(|&(offset, len)| (SegmentId::new(seg), ByteRange::at(offset, len as u64)))
                .collect(),
            data: vec![0; ranges.iter().map(|r| r.1).sum()],
            record_bytes: bytes,
            ..SpooledTxn::default()
        }
    }

    fn rec(seg: u32, offset: u64, len: usize, bytes: u64) -> SpooledTxn {
        rec_over(seg, &[(offset, len)], bytes)
    }

    /// The arenas read back as the ranges and pages that filled them,
    /// and encode to the bytes the owned form encodes to.
    #[test]
    fn arenas_read_back_as_ranges_and_pages() {
        use crate::log::record::{encode_borrowed_into, encode_txn, RecordRange};
        use crate::region::tests_support::make_test_region;

        let regions = [make_test_region(4096), make_test_region(4096)];
        let mut txn = rec_over(3, &[(64, 5), (4096, 0), (8000, 300)], 0);
        for (i, byte) in txn.data.iter_mut().enumerate() {
            *byte = i as u8;
        }
        txn.pages = vec![0, 1, 0];
        txn.regions = vec![
            (Arc::downgrade(&regions[0]), 2),
            (Arc::downgrade(&regions[1]), 3),
        ];

        let owned: Vec<RecordRange> = txn
            .pieces()
            .map(|p| RecordRange {
                seg: SegmentId::new(p.seg),
                offset: p.start,
                data: p.data.to_vec(),
            })
            .collect();
        let lens: Vec<usize> = owned.iter().map(|r| r.data.len()).collect();
        assert_eq!(lens, [5, 0, 300]);
        assert_eq!(
            owned[2].data[0], 5,
            "each range starts where the last ended"
        );
        let mut encoded = Vec::new();
        encode_borrowed_into(9, 4, txn.pieces(), &mut encoded);
        assert_eq!(encoded, encode_txn(9, 4, &owned));

        let pages: Vec<(u64, &[usize])> = txn
            .region_pages()
            .map(|(region, pages)| (region.upgrade().unwrap().id, pages))
            .collect();
        assert_eq!(
            pages,
            [(regions[0].id, &[0, 1][..]), (regions[1].id, &[0][..])]
        );
        txn.clear();
        assert_eq!(txn.pieces().count() + txn.region_pages().count(), 0);
        assert!(txn.data.capacity() >= 305);
    }

    #[test]
    fn push_and_pop_preserve_fifo_and_bytes() {
        let mut spool = Spool::new();
        spool.push(rec(0, 0, 10, 100), false);
        spool.push(rec(0, 100, 10, 120), false);
        assert_eq!(spool.len(), 2);
        assert_eq!(spool.bytes(), 220);
        let first = spool.pop_front().unwrap();
        assert_eq!(first.record_bytes, 100);
        assert_eq!(spool.bytes(), 120);
        spool.push_front(first);
        assert_eq!(spool.bytes(), 220);
        assert_eq!(spool.pop_front().unwrap().record_bytes, 100);
    }

    #[test]
    fn partial_overlap_does_not_subsume() {
        let mut spool = Spool::new();
        spool.push(rec(0, 10, 10, 100), true);
        // The second covers only [15, 20) of the first's [10, 20): the
        // older record survives.
        let saved = spool.push(rec(0, 15, 5, 50), true);
        assert_eq!(saved, 0);
        assert_eq!(spool.bytes(), 150);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn exact_and_superset_coverage_subsumes() {
        let mut spool = Spool::new();
        spool.push(rec(0, 10, 10, 100), true);
        // Exact same range: subsumes (the cp d1/* d2 case).
        let saved = spool.push(rec(0, 10, 10, 100), true);
        assert_eq!(saved, 100);
        assert_eq!(spool.len(), 1);
        // Superset subsumes too.
        let saved = spool.push(rec(0, 0, 100, 300), true);
        assert_eq!(saved, 100);
        assert_eq!(spool.len(), 1);
        assert_eq!(spool.bytes(), 300);
    }

    #[test]
    fn different_segment_never_subsumes() {
        let mut spool = Spool::new();
        spool.push(rec(0, 10, 10, 100), true);
        let saved = spool.push(rec(1, 10, 10, 100), true);
        assert_eq!(saved, 0);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn optimization_disabled_keeps_everything() {
        let mut spool = Spool::new();
        spool.push(rec(0, 10, 10, 100), false);
        let saved = spool.push(rec(0, 10, 10, 100), false);
        assert_eq!(saved, 0);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn multi_range_subsumption_requires_all_ranges_covered() {
        let mut spool = Spool::new();
        let old = rec_over(0, &[(0, 10), (100, 10)], 200);
        spool.push(old, true);
        // Covers only the first range: no subsumption.
        assert_eq!(spool.push(rec(0, 0, 10, 50), true), 0);
        assert_eq!(spool.len(), 2);
        // Covers both: subsumes the two-range record (but not the 50-byte
        // one, whose [0,10) is inside the new coverage — it IS subsumed).
        let new = rec_over(0, &[(0, 20), (90, 30)], 400);
        let saved = spool.push(new, true);
        assert_eq!(saved, 250);
        assert_eq!(spool.len(), 1);
        assert_eq!(spool.bytes(), 400);
    }

    #[test]
    fn references_checks_segments() {
        let mut spool = Spool::new();
        spool.push(rec(3, 0, 4, 10), false);
        assert!(spool.references(SegmentId::new(3)));
        assert!(!spool.references(SegmentId::new(4)));
    }

    #[test]
    fn plane_pops_in_global_ticket_order_across_shards() {
        let plane = SpoolPlane::new();
        // Segments 0, 1, 2 land in three distinct shards; interleave the
        // pushes so shard order alone would not reproduce push order.
        plane.push(rec(0, 0, 4, 10), false); // ticket 0
        plane.push(rec(1, 0, 4, 11), false); // ticket 1
        plane.push(rec(0, 8, 4, 12), false); // ticket 2
        plane.push(rec(2, 0, 4, 13), false); // ticket 3
        plane.push(rec(1, 8, 4, 14), false); // ticket 4
        assert_eq!(plane.len(), 5);
        assert_eq!(plane.bytes(), 10 + 11 + 12 + 13 + 14);
        let mut order = Vec::new();
        while let Some(t) = plane.pop_front() {
            order.push(t.record_bytes);
        }
        assert_eq!(order, vec![10, 11, 12, 13, 14]);
        assert!(plane.is_empty());
        assert_eq!(plane.bytes(), 0);
    }

    #[test]
    fn plane_requeue_front_restores_pop_order() {
        let plane = SpoolPlane::new();
        plane.push(rec(0, 0, 4, 10), false);
        plane.push(rec(1, 0, 4, 11), false);
        let first = plane.pop_front().unwrap();
        assert_eq!(first.record_bytes, 10);
        plane.requeue_front(first);
        assert_eq!(plane.len(), 2);
        assert_eq!(plane.pop_front().unwrap().record_bytes, 10);
        assert_eq!(plane.pop_front().unwrap().record_bytes, 11);
    }

    #[test]
    fn plane_gauges_track_subsumption() {
        let plane = SpoolPlane::new();
        plane.push(rec(0, 10, 10, 100), true);
        let saved = plane.push(rec(0, 0, 100, 300), true);
        assert_eq!(saved, 100);
        assert_eq!(plane.len(), 1);
        assert_eq!(plane.bytes(), 300);
    }

    #[test]
    fn plane_references_scans_every_shard() {
        let plane = SpoolPlane::new();
        plane.push(rec(3, 0, 4, 10), false);
        plane.push(rec(7, 0, 4, 10), false);
        assert!(plane.references(SegmentId::new(3)));
        assert!(plane.references(SegmentId::new(7)));
        assert!(!plane.references(SegmentId::new(4)));
    }
}
