//! The no-flush commit spool and inter-transaction optimization (§5.2).
//!
//! No-flush ("lazy") commits do not force the log: their records are
//! spooled in memory and ride the next commit leader's batch — a flush
//! commit's, or the barrier a `flush` raises ([`crate::commit`]). The
//! spool is one FIFO under one lock ([`SpoolPlane`]): a no-flush commit
//! pushes under it and never takes the core lock, and the leader's fill
//! pops it in push order, which is the order the records reach the log.
//! Relaxed gauges of its length and bytes serve `query()` and the
//! overflow check without the lock.
//!
//! The spool is where the inter-transaction optimization lives: "if the
//! modifications being committed subsume those from an earlier unflushed
//! transaction, the older log records are discarded." A push discards
//! only the *newest run* of records that its coalesced coverage covers:
//! it walks back from the tail and stops at the first record it does not
//! cover. Every discarded record is then followed, in spool order, by
//! the record that covers it, so every prefix of the durable log is still
//! the replay of a prefix of the commits: a prefix that ends at the new
//! record holds the old bytes overwritten, and one that stops before it
//! holds neither. A record spooled in between, by any thread, breaks the
//! run — discarding across it would let a torn drain keep the later
//! record without the earlier one.
//!
//! Dropping a spooled record must release the *unflushed* page counts it
//! holds (see
//! [`PageVector`](crate::truncation::page_vector::PageVector)), otherwise
//! incremental truncation would block forever on pages whose pending
//! records no longer exist.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::ranges::{ByteRange, Piece, SegCoverage};
use crate::region::RegionInner;
use crate::segment::SegmentId;
use crate::sync::{AtomicU64, AtomicUsize, Mutex};

/// One committed transaction's log record, not yet written: in the spool
/// (a no-flush commit) or parked in a commit-queue slot (a flush
/// commit). Four flat arenas, filled straight from VM at commit; a flush
/// commit gets them back with its outcome.
#[derive(Default)]
pub(crate) struct SpooledTxn {
    /// Transaction id, as the record's header carries it.
    pub tid: u64,
    /// The ranges, segment-absolute, in the order they will be logged.
    pub ranges: Vec<(SegmentId, ByteRange)>,
    /// Their new values, back to back.
    pub data: Vec<u8>,
    /// The regions the record dirties, in id order, each with where its
    /// run of `pages` ends (and the next region's starts).
    pub regions: Vec<(Arc<RegionInner>, usize)>,
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
        let end = self.pages.len();
        self.regions.push((Arc::clone(region), end));
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
    pub fn region_pages(&self) -> impl Iterator<Item = (&Arc<RegionInner>, &[usize])> {
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
        for (region, pages) in self.region_pages() {
            let mut pv = region.page_vector.lock();
            for &p in pages {
                pv.dec_unflushed(p);
            }
        }
    }
}

/// FIFO of committed, unflushed transaction records, with the §5.2
/// subsumption check. It keeps its queue's and its coverage's capacity,
/// so a spool that has held N records holds N again without allocating.
#[derive(Default)]
pub(crate) struct Spool {
    txns: VecDeque<SpooledTxn>,
    bytes: u64,
    /// What the record being pushed covers.
    coverage: SegCoverage,
}

impl Spool {
    /// Number of spooled records.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Total unpadded record bytes pending.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends a record, first discarding — when `inter_opt` is enabled —
    /// the newest run of records it subsumes (see the module doc).
    /// Returns the record bytes saved and one discarded record, emptied,
    /// for its arenas.
    pub fn push(&mut self, txn: SpooledTxn, inter_opt: bool) -> (u64, Option<SpooledTxn>) {
        let (mut saved, mut recycled) = (0u64, None);
        if inter_opt && !self.txns.is_empty() {
            self.coverage.clear();
            for (seg, r) in &txn.ranges {
                self.coverage.add(seg.as_u32(), *r);
            }
            let covers = |(seg, r): &(SegmentId, ByteRange)| self.coverage.covers(seg.as_u32(), r);
            while let Some(mut old) = self.txns.pop_back_if(|old| old.ranges.iter().all(covers)) {
                self.bytes -= old.record_bytes;
                saved += old.record_bytes;
                old.release_unflushed();
                old.clear();
                recycled.get_or_insert(old);
            }
        }
        self.bytes += txn.record_bytes;
        self.txns.push_back(txn);
        (saved, recycled)
    }

    /// Removes and returns the oldest record.
    pub fn pop_front(&mut self) -> Option<SpooledTxn> {
        let txn = self.txns.pop_front()?;
        self.bytes -= txn.record_bytes;
        Some(txn)
    }

    /// Puts a popped record back as the oldest, after a failed flush
    /// attempt.
    pub fn push_front(&mut self, txn: SpooledTxn) {
        self.bytes += txn.record_bytes;
        self.txns.push_front(txn);
    }
}

/// The spool concurrency plane: one [`Spool`] under one lock, plus
/// lock-free gauges.
///
/// * **Push** (the no-flush commit's fast path) takes the spool lock and
///   nothing else.
/// * **Pop** (the commit leader's fill, under the core lock) takes it
///   once per record, so a push can land between two pops; it lands
///   behind every record still spooled.
/// * **Gauges**: `len`/`bytes` are Relaxed atomics stored under the
///   spool lock after every change; `query()` and the spool-overflow
///   check read them without any lock.
#[derive(Default)]
pub(crate) struct SpoolPlane {
    fifo: Mutex<Spool>,
    len: AtomicUsize,
    bytes: AtomicU64,
}

impl SpoolPlane {
    /// Runs `change` on the locked spool and stores its size in the
    /// gauges, with the lock still held so the gauges track content
    /// transitions.
    fn changed<R>(&self, change: impl FnOnce(&mut Spool) -> R) -> R {
        let mut spool = self.fifo.lock();
        let out = change(&mut spool);
        self.len.store(spool.len(), Ordering::Relaxed);
        self.bytes.store(spool.bytes(), Ordering::Relaxed);
        out
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

    /// Spools a record; see [`Spool::push`] for the subsumption
    /// semantics. Returns the record bytes saved and one subsumed
    /// record's emptied arenas.
    pub fn push(&self, txn: SpooledTxn, inter_opt: bool) -> (u64, Option<SpooledTxn>) {
        self.changed(|spool| spool.push(txn, inter_opt))
    }

    /// Removes and returns the oldest record.
    pub fn pop_front(&self) -> Option<SpooledTxn> {
        self.changed(Spool::pop_front)
    }

    /// Puts a popped record back as the oldest (after a failed flush
    /// attempt), so whoever drains next still appends in commit order.
    pub fn push_front(&self, txn: SpooledTxn) {
        self.changed(|spool| spool.push_front(txn));
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::VecDeque;

    use super::*;

    thread_local! {
        /// The id of the next record made here: records are told apart
        /// by it.
        static NEXT_TID: Cell<u64> = const { Cell::new(0) };
    }

    /// A record over `(segment, offset, len)` ranges, with the next id.
    fn rec_in(ranges: &[(u32, u64, u64)], bytes: u64) -> SpooledTxn {
        let tid = NEXT_TID.get();
        NEXT_TID.set(tid + 1);
        SpooledTxn {
            tid,
            ranges: ranges
                .iter()
                .map(|&(seg, offset, len)| (SegmentId::new(seg), ByteRange::at(offset, len)))
                .collect(),
            data: vec![0; ranges.iter().map(|r| r.2 as usize).sum()],
            record_bytes: bytes,
            ..SpooledTxn::default()
        }
    }

    /// A record over `(offset, len)` ranges of segment `seg`.
    fn rec_over(seg: u32, ranges: &[(u64, usize)], bytes: u64) -> SpooledTxn {
        let ranges: Vec<_> = ranges
            .iter()
            .map(|&(at, len)| (seg, at, len as u64))
            .collect();
        rec_in(&ranges, bytes)
    }

    fn rec(seg: u32, offset: u64, len: usize, bytes: u64) -> SpooledTxn {
        rec_over(seg, &[(offset, len)], bytes)
    }

    /// The spool's record ids, oldest first.
    fn tids(spool: &Spool) -> Vec<u64> {
        spool.txns.iter().map(|t| t.tid).collect()
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
        txn.regions = vec![(regions[0].clone(), 2), (regions[1].clone(), 3)];

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
            .map(|(region, pages)| (region.id, pages))
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
        let mut spool = Spool::default();
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
        let mut spool = Spool::default();
        spool.push(rec(0, 10, 10, 100), true);
        // The second covers only [15, 20) of the first's [10, 20): the
        // older record survives.
        let (saved, recycled) = spool.push(rec(0, 15, 5, 50), true);
        assert_eq!(saved, 0);
        assert!(recycled.is_none());
        assert_eq!(spool.bytes(), 150);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn exact_and_superset_coverage_subsumes() {
        let mut spool = Spool::default();
        spool.push(rec(0, 10, 10, 100), true);
        // Exact same range: subsumes (the cp d1/* d2 case), and hands
        // back the older record's arenas, emptied.
        let (saved, recycled) = spool.push(rec(0, 10, 10, 100), true);
        assert_eq!(saved, 100);
        assert_eq!(spool.len(), 1);
        let recycled = recycled.expect("the subsumed record comes back");
        assert!(recycled.ranges.is_empty() && recycled.data.is_empty());
        assert!(recycled.ranges.capacity() >= 1 && recycled.data.capacity() >= 10);
        // Superset subsumes too.
        let saved = spool.push(rec(0, 0, 100, 300), true).0;
        assert_eq!(saved, 100);
        assert_eq!(spool.len(), 1);
        assert_eq!(spool.bytes(), 300);
    }

    #[test]
    fn different_segment_never_subsumes() {
        let mut spool = Spool::default();
        spool.push(rec(0, 10, 10, 100), true);
        let saved = spool.push(rec(1, 10, 10, 100), true).0;
        assert_eq!(saved, 0);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn optimization_disabled_keeps_everything() {
        let mut spool = Spool::default();
        spool.push(rec(0, 10, 10, 100), false);
        let saved = spool.push(rec(0, 10, 10, 100), false).0;
        assert_eq!(saved, 0);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn multi_range_subsumption_requires_all_ranges_covered() {
        let mut spool = Spool::default();
        let old = rec_over(0, &[(0, 10), (100, 10)], 200);
        spool.push(old, true);
        // Covers only the first range: no subsumption.
        assert_eq!(spool.push(rec(0, 0, 10, 50), true).0, 0);
        assert_eq!(spool.len(), 2);
        // Covers both: subsumes the two-range record (but not the 50-byte
        // one, whose [0,10) is inside the new coverage — it IS subsumed).
        let new = rec_over(0, &[(0, 20), (90, 30)], 400);
        let saved = spool.push(new, true).0;
        assert_eq!(saved, 250);
        assert_eq!(spool.len(), 1);
        assert_eq!(spool.bytes(), 400);
    }

    /// The lead's three lazy commits: A writes X, B writes Y, C rewrites
    /// X. B sits between A and C, so C discards nothing — a drain torn
    /// after B would otherwise keep B without A.
    #[test]
    fn a_record_spooled_between_keeps_the_older_one() {
        let mut spool = Spool::default();
        let (a, b) = (rec(0, 4096, 64, 100), rec(0, 0, 64, 100));
        let ids = [a.tid, b.tid];
        spool.push(a, true);
        spool.push(b, true);
        let c = rec(0, 4096, 64, 100);
        let c_id = c.tid;
        assert_eq!(spool.push(c, true).0, 0);
        assert_eq!(tids(&spool), [ids[0], ids[1], c_id]);
        // C's rewrite right behind it is a run of one: C goes, B stays.
        let d = rec(0, 4096, 64, 100);
        let d_id = d.tid;
        assert_eq!(spool.push(d, true).0, 100);
        assert_eq!(tids(&spool), [ids[0], ids[1], d_id]);
    }

    #[test]
    fn plane_requeue_front_restores_pop_order() {
        let plane = SpoolPlane::default();
        plane.push(rec(0, 0, 4, 10), false);
        plane.push(rec(1, 0, 4, 11), false);
        let first = plane.pop_front().unwrap();
        assert_eq!(first.record_bytes, 10);
        plane.push_front(first);
        assert_eq!((plane.len(), plane.bytes()), (2, 21));
        assert_eq!(plane.pop_front().unwrap().record_bytes, 10);
        assert_eq!(plane.pop_front().unwrap().record_bytes, 11);
        assert!(plane.is_empty());
    }

    #[test]
    fn plane_gauges_track_subsumption() {
        let plane = SpoolPlane::default();
        plane.push(rec(0, 10, 10, 100), true);
        let saved = plane.push(rec(0, 0, 100, 300), true).0;
        assert_eq!(saved, 100);
        assert_eq!(plane.len(), 1);
        assert_eq!(plane.bytes(), 300);
    }

    /// A model record: its id, its `(segment, offset, len)` ranges and its
    /// size.
    type ModelTxn = (u64, Vec<(u32, u64, u64)>, u64);

    /// The newest-run rule, stated on its own: the records a push may
    /// discard are the longest suffix of the spool whose every byte the
    /// push writes too, checked byte by byte.
    #[derive(Default)]
    struct ModelSpool {
        txns: VecDeque<ModelTxn>,
        bytes: u64,
    }

    impl ModelSpool {
        fn push(
            &mut self,
            tid: u64,
            ranges: &[(u32, u64, u64)],
            bytes: u64,
            inter_opt: bool,
        ) -> u64 {
            let writes = |seg: u32, byte: u64| {
                let mut ranges = ranges.iter();
                ranges.any(|&(s, at, len)| s == seg && at <= byte && byte < at + len)
            };
            let covered = |old: &ModelTxn| {
                let mut bytes = old
                    .1
                    .iter()
                    .flat_map(|&(s, at, len)| (at..at + len).map(move |b| (s, b)));
                bytes.all(|(s, b)| writes(s, b))
            };
            let keep = match inter_opt {
                true => self
                    .txns
                    .iter()
                    .rposition(|old| !covered(old))
                    .map_or(0, |i| i + 1),
                false => self.txns.len(),
            };
            let saved: u64 = self.txns.drain(keep..).map(|old| old.2).sum();
            self.bytes = self.bytes - saved + bytes;
            self.txns.push_back((tid, ranges.to_vec(), bytes));
            saved
        }

        fn pop_front(&mut self) -> Option<u64> {
            let (tid, _, bytes) = self.txns.pop_front()?;
            self.bytes -= bytes;
            Some(tid)
        }
    }

    /// 12 000 seeded operations on the spool and the model: pushes of one
    /// to four ranges over three segments — repeats of the newest
    /// record's ranges or of an older one's, ranges nested in, adjacent to
    /// or overlapping an earlier one, and fresh ones — with and without
    /// the optimization, pops, and a popped record put back. Every push
    /// saves the same bytes, hands back a record exactly when it discards
    /// one, and leaves the same records in the same order.
    #[test]
    fn spool_matches_the_newest_run_model() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let (mut spool, mut model) = (Spool::default(), ModelSpool::default());
        let mut history: Vec<(u32, u64, u64)> = vec![(0, 0, 64)];
        let mut newest: Vec<(u32, u64, u64)> = Vec::new();
        let mut held: Option<SpooledTxn> = None;
        let (mut subsumed, mut kept_older) = (0, 0);
        for op in 0..12_000u32 {
            match next(10) {
                0 | 1 => {
                    let popped = spool.pop_front();
                    let tid = popped.as_ref().map(|t| t.tid);
                    assert_eq!(tid, model.pop_front(), "op {op}: pop");
                    if held.is_none() && next(2) == 0 {
                        held = popped;
                    }
                }
                2 if held.is_some() => {
                    let txn = held.take().expect("held");
                    let ranges = txn
                        .ranges
                        .iter()
                        .map(|(s, r)| (s.as_u32(), r.start, r.len()));
                    model
                        .txns
                        .push_front((txn.tid, ranges.collect(), txn.record_bytes));
                    model.bytes += txn.record_bytes;
                    spool.push_front(txn);
                }
                _ => {
                    let mut ranges = Vec::new();
                    if next(3) == 0 {
                        ranges.extend_from_slice(&newest);
                    }
                    for _ in 0..1 + next(4) {
                        let &(seg, start, len) = &history[next(history.len() as u64) as usize];
                        let range = match next(6) {
                            0 => (seg, start, len),
                            1 => (seg, start + next(len), 1 + next(len)),
                            2 => (seg, start + len, 1 + next(64)),
                            3 => (seg, start.saturating_sub(next(32)), 1 + next(2 * len)),
                            _ => (next(3) as u32, next(4_096), 1 + next(256)),
                        };
                        ranges.push(range);
                    }
                    history.extend_from_slice(&ranges);
                    if history.len() > 64 {
                        history.drain(..32);
                    }
                    newest.clone_from(&ranges);
                    let inter_opt = next(8) != 0;
                    let txn = rec_in(&ranges, 1 + next(1_000));
                    let model_saved = model.push(txn.tid, &ranges, txn.record_bytes, inter_opt);
                    let (saved, recycled) = spool.push(txn, inter_opt);
                    assert_eq!(saved, model_saved, "op {op}: {ranges:?}");
                    assert_eq!(recycled.is_some(), saved > 0, "op {op}");
                    assert!(recycled.is_none_or(|r| r.ranges.is_empty() && r.data.is_empty()));
                    subsumed += u32::from(saved > 0);
                    kept_older += u32::from(saved > 0 && spool.len() > 1);
                }
            }
            let expected: Vec<u64> = model.txns.iter().map(|t| t.0).collect();
            assert_eq!(tids(&spool), expected, "op {op}");
            assert_eq!(
                (spool.len(), spool.bytes()),
                (model.txns.len(), model.bytes)
            );
        }
        assert!(
            subsumed > 1_000 && kept_older > 100,
            "the shapes must subsume often, and stop short of the front: {subsumed}, {kept_older}"
        );
    }

    /// What a push examines depends on the run it covers, not on how much
    /// is spooled. Under `spooled` records that the push covers sits one
    /// it does not, then one it does: the walk discards the newest, stops
    /// at the one below, and leaves every covered record under it — each
    /// of which it would have discarded, had it got that far.
    #[test]
    fn a_push_examines_what_it_covers_not_what_is_spooled() {
        for spooled in [127, 8_000] {
            let mut spool = Spool::default();
            for _ in 0..spooled {
                spool.push(rec(0, 4096, 2048, 100), false);
            }
            spool.push(rec_over(0, &[(4096, 64), (1 << 40, 8)], 100), true);
            spool.push(rec(0, 4096, 64, 100), true);
            // Two records examined: the newest discarded, the next kept.
            assert_eq!(spool.push(rec(0, 4096, 4096, 100), true).0, 100);
            assert_eq!(spool.len(), spooled + 2, "{spooled} spooled");
        }
    }
}
