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

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use crate::options::PAGE_SIZE;
use crate::ranges::{ByteRange, Piece, SegCoverage};
use crate::region::RegionInner;
use crate::segment::SegmentId;
use crate::sync::{AtomicU64, AtomicUsize, Mutex};

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
    /// The regions the record dirties, in id order, each with its id and
    /// where its run of `pages` ends (and the next region's starts).
    pub regions: Vec<(Weak<RegionInner>, u64, usize)>,
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
        self.regions.push((Arc::downgrade(region), region.id, end));
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

    /// Each region the record dirties, with its id and its pages.
    pub fn region_pages(&self) -> impl Iterator<Item = (&Weak<RegionInner>, u64, &[usize])> {
        self.regions.iter().scan(0usize, |at, (region, id, end)| {
            let pages = self.pages.get(*at..*end)?;
            *at = *end;
            Some((region, *id, pages))
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
        for (weak, _, pages) in self.region_pages() {
            if let Some(region) = weak.upgrade() {
                let mut pv = region.page_vector.lock();
                for &p in pages {
                    pv.dec_unflushed(p);
                }
            }
        }
    }
}

/// The end of a list through a spool's slots.
const NIL: usize = usize::MAX;

/// A spooled record, threaded on its spool's two lists.
struct Slot {
    txn: SpooledTxn,
    /// Its neighbours in ticket order, which is drain order.
    older: usize,
    newer: usize,
    /// The next record whose first range starts in the same page.
    next_in_page: usize,
}

/// FIFO of committed, unflushed transaction records (one shard's worth),
/// indexed for the §5.2 subsumption check. Records live in slots that
/// are reused once freed, so a spool that has held N records holds N
/// again without allocating.
pub(crate) struct Spool {
    /// Records, and freed slots holding emptied ones.
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Ends of the ticket-order list.
    oldest: usize,
    newest: usize,
    /// Per (segment, page), the first record whose first range starts in
    /// that page. A record that a push subsumes has its first range inside
    /// the push's coverage, so the pages the coverage spans list every one.
    pages: HashMap<(u32, u64), usize>,
    bytes: u64,
    /// What the record being pushed covers.
    coverage: SegCoverage,
    /// The slots the last push examined.
    found: Vec<usize>,
}

impl Spool {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            pages: HashMap::new(),
            bytes: 0,
            coverage: SegCoverage::new(),
            found: Vec::new(),
        }
    }

    /// Number of spooled records.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total unpadded record bytes pending.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Ticket of the oldest record, if any.
    pub fn front_ticket(&self) -> Option<u64> {
        self.slots.get(self.oldest).map(|slot| slot.txn.ticket)
    }

    /// Returns `true` if any pending record touches `seg`.
    pub fn references(&self, seg: SegmentId) -> bool {
        // A free slot's record has no ranges.
        let mut txns = self.slots.iter().map(|slot| &slot.txn);
        txns.any(|t| t.ranges.iter().any(|r| r.0 == seg))
    }

    /// Appends a record, first discarding any older records it subsumes
    /// when `inter_opt` is enabled. Returns the record bytes saved and
    /// one discarded record, emptied, for its arenas.
    pub fn push(&mut self, txn: SpooledTxn, inter_opt: bool) -> (u64, Option<SpooledTxn>) {
        let (mut saved, mut recycled) = (0u64, None);
        let mut found = std::mem::take(&mut self.found);
        found.clear();
        if inter_opt && self.len() > 0 {
            // Coverage of the new record, per segment, coalesced: a first
            // range lies inside one of its ranges at most, so no record
            // is found twice.
            self.coverage.clear();
            for (seg, r) in &txn.ranges {
                self.coverage.add(seg.as_u32(), *r);
            }
            for (seg, r) in self.coverage.ranges() {
                for page in r.start / PAGE_SIZE..=(r.end - 1) / PAGE_SIZE {
                    let mut at = self.pages.get(&(seg, page)).copied().unwrap_or(NIL);
                    while let Some(slot) = self.slots.get(at) {
                        if first_range(&slot.txn).is_some_and(|(_, first)| r.contains(&first)) {
                            found.push(at);
                        }
                        at = slot.next_in_page;
                    }
                }
            }
        }
        for &at in &found {
            let covers = |(seg, r): &(SegmentId, ByteRange)| self.coverage.covers(seg.as_u32(), r);
            let ranges = self.slots.get(at).map(|slot| &slot.txn.ranges);
            if ranges.is_some_and(|ranges| ranges.iter().all(covers)) {
                let mut old = self.remove(at);
                saved += old.record_bytes;
                old.release_unflushed();
                old.clear();
                recycled.get_or_insert(old);
            }
        }
        self.found = found;
        self.insert(txn);
        (saved, recycled)
    }

    /// Removes and returns the oldest record.
    pub fn pop_front(&mut self) -> Option<SpooledTxn> {
        (self.oldest != NIL).then(|| self.remove(self.oldest))
    }

    /// Adds a record: the newest for a push, the oldest for a record put
    /// back after a failed flush attempt — its ticket keeps it first.
    pub fn insert(&mut self, txn: SpooledTxn) {
        let newest = self.slots.get(self.newest);
        let (older, newer) = match newest.is_none_or(|slot| slot.txn.ticket < txn.ticket) {
            true => (self.newest, NIL),
            false => (NIL, self.oldest),
        };
        debug_assert!(older != NIL || self.front_ticket().is_none_or(|t| txn.ticket < t));
        let page = first_range(&txn).map(|(seg, first)| (seg, first.start / PAGE_SIZE));
        let at = self.free.pop().unwrap_or(self.slots.len());
        let next_in_page = page.and_then(|page| self.pages.insert(page, at));
        self.bytes += txn.record_bytes;
        let slot = Slot {
            txn,
            older,
            newer,
            next_in_page: next_in_page.unwrap_or(NIL),
        };
        match self.slots.get_mut(at) {
            Some(free) => *free = slot,
            None => self.slots.push(slot),
        }
        self.join(older, at);
        self.join(at, newer);
    }

    /// Unthreads slot `at` from both lists, frees it, and returns its
    /// record.
    fn remove(&mut self, at: usize) -> SpooledTxn {
        let Some(slot) = self.slots.get_mut(at) else {
            return SpooledTxn::default(); // unreachable: `at` is on the lists
        };
        let txn = std::mem::take(&mut slot.txn);
        let (older, newer, next) = (slot.older, slot.newer, slot.next_in_page);
        self.join(older, newer);
        // The page's list is short and singly linked: `at` is its head,
        // or the next of a record down it.
        if let Some((seg, first)) = first_range(&txn) {
            let page = (seg, first.start / PAGE_SIZE);
            match self.pages.get(&page).copied().unwrap_or(NIL) {
                head if head == at && next == NIL => {
                    self.pages.remove(&page);
                }
                head if head == at => {
                    self.pages.insert(page, next);
                }
                mut before => {
                    while let Some(slot) = self.slots.get_mut(before) {
                        if slot.next_in_page == at {
                            slot.next_in_page = next;
                            break;
                        }
                        before = slot.next_in_page;
                    }
                }
            }
        }
        self.free.push(at);
        self.bytes -= txn.record_bytes;
        txn
    }

    /// Makes `older` and `newer` neighbours in ticket order, `NIL` being
    /// either end of the list.
    fn join(&mut self, older: usize, newer: usize) {
        match self.slots.get_mut(older) {
            Some(slot) => slot.newer = newer,
            None => self.oldest = newer,
        }
        match self.slots.get_mut(newer) {
            Some(slot) => slot.older = older,
            None => self.newest = older,
        }
    }
}

/// A record's first range, with its segment's raw id: where the spool's
/// index files the record.
fn first_range(txn: &SpooledTxn) -> Option<(u32, ByteRange)> {
    let (seg, first) = txn.ranges.first()?;
    // An empty range lies in no coverage, yet an empty range is covered.
    debug_assert!(!first.is_empty(), "set_range refuses a length of 0");
    Some((seg.as_u32(), *first))
}

/// Where [`SpoolPlane::pop_front`] may pop again without a scan: shard
/// `index`, while its front ticket is below `below` — the smallest front
/// the scan saw in any other shard, or the first ticket it had not
/// handed out, whichever is smaller.
#[derive(Clone, Copy)]
pub(crate) struct PopHint {
    index: usize,
    below: u64,
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
///   The scan leaves a [`PopHint`], so a drain pops a run of records from
///   one shard with one lock each.
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

    /// Runs `change` on a locked shard and folds what it did to the
    /// shard's size into the gauges, with the lock still held so the
    /// gauges track content transitions.
    fn tracked<R>(&self, shard: &mut Spool, change: impl FnOnce(&mut Spool) -> R) -> R {
        let (len, bytes) = (shard.len(), shard.bytes());
        let out = change(shard);
        // A difference that wrapped below zero subtracts when added.
        let (len, bytes) = (
            shard.len().wrapping_sub(len),
            shard.bytes().wrapping_sub(bytes),
        );
        self.len.fetch_add(len, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
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

    /// Spools a record under its shard's lock; see [`Spool::push`] for
    /// the subsumption semantics. Returns the record bytes saved and one
    /// subsumed record's emptied arenas.
    pub fn push(&self, mut txn: SpooledTxn, inter_opt: bool) -> (u64, Option<SpooledTxn>) {
        let Some(shard) = self.shard_of(&txn) else {
            return (0, None); // unreachable: shard_of is total
        };
        let mut guard = shard.lock();
        txn.ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.tracked(&mut guard, |spool| spool.push(txn, inter_opt))
    }

    /// Removes and returns the globally oldest record (minimum ticket).
    ///
    /// Never holds two shard locks at once: the scan reads each front
    /// ticket under its own lock, then re-locks the winner — if a
    /// concurrent push subsumed that front meanwhile, the scan restarts.
    /// The scan leaves `hint` for the next call, which pops the same
    /// shard with one lock while its front is below the hint's bound.
    /// Only the drain pops or requeues, so every other shard's front can
    /// only have grown since the scan, and a shard it found empty can
    /// only have gained tickets the scan had not handed out yet.
    pub fn pop_front(&self, hint: &mut Option<PopHint>) -> Option<SpooledTxn> {
        if let Some(PopHint { index, below }) = *hint {
            if let Some(shard) = self.shards.get(index) {
                let mut guard = shard.lock();
                if guard.front_ticket().is_some_and(|t| t < below) {
                    return self.tracked(&mut guard, Spool::pop_front);
                }
            }
        }
        loop {
            // Every ticket handed out from here on is at least `unseen`.
            let unseen = self.next_ticket.load(Ordering::Relaxed);
            let mut best: Option<(usize, u64)> = None;
            let mut below = unseen;
            for (index, shard) in self.shards.iter().enumerate() {
                let Some(t) = shard.lock().front_ticket() else {
                    continue;
                };
                let loser = match best {
                    Some((_, bt)) if bt < t => t,
                    _ => best.replace((index, t)).map_or(u64::MAX, |(_, bt)| bt),
                };
                below = below.min(loser);
            }
            let (index, ticket) = best?;
            let shard = self.shards.get(index)?;
            let mut guard = shard.lock();
            if guard.front_ticket() != Some(ticket) {
                // A concurrent push's subsumption removed the chosen
                // front; re-derive the minimum.
                continue;
            }
            *hint = Some(PopHint { index, below });
            return self.tracked(&mut guard, Spool::pop_front);
        }
    }

    /// Puts a record back at the front of its shard (after a failed
    /// flush attempt); its original ticket keeps it first in pop order.
    /// Clears `hint`: the shard's front went down.
    pub fn requeue_front(&self, txn: SpooledTxn, hint: &mut Option<PopHint>) {
        *hint = None;
        let Some(shard) = self.shard_of(&txn) else {
            return; // unreachable: shard_of is total
        };
        let mut guard = shard.lock();
        self.tracked(&mut guard, |spool| spool.insert(txn));
    }

    /// Returns `true` if any pending record touches `seg`.
    pub fn references(&self, seg: SegmentId) -> bool {
        self.shards.iter().any(|shard| shard.lock().references(seg))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::VecDeque;

    use super::*;

    thread_local! {
        /// What [`SpoolPlane::push`] would assign: records made here are
        /// pushed in the order they are made.
        static NEXT_TICKET: Cell<u64> = const { Cell::new(0) };
    }

    /// A record over `(segment, offset, len)` ranges, with the next ticket.
    fn rec_in(ranges: &[(u32, u64, u64)], bytes: u64) -> SpooledTxn {
        let ticket = NEXT_TICKET.get();
        NEXT_TICKET.set(ticket + 1);
        SpooledTxn {
            ticket,
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
            (Arc::downgrade(&regions[0]), regions[0].id, 2),
            (Arc::downgrade(&regions[1]), regions[1].id, 3),
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
            .map(|(_, id, pages)| (id, pages))
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
        spool.insert(first);
        assert_eq!(spool.bytes(), 220);
        assert_eq!(spool.pop_front().unwrap().record_bytes, 100);
    }

    #[test]
    fn partial_overlap_does_not_subsume() {
        let mut spool = Spool::new();
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
        let mut spool = Spool::new();
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
        let mut spool = Spool::new();
        spool.push(rec(0, 10, 10, 100), true);
        let saved = spool.push(rec(1, 10, 10, 100), true).0;
        assert_eq!(saved, 0);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn optimization_disabled_keeps_everything() {
        let mut spool = Spool::new();
        spool.push(rec(0, 10, 10, 100), false);
        let saved = spool.push(rec(0, 10, 10, 100), false).0;
        assert_eq!(saved, 0);
        assert_eq!(spool.len(), 2);
    }

    #[test]
    fn multi_range_subsumption_requires_all_ranges_covered() {
        let mut spool = Spool::new();
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
        let mut hint = None;
        while let Some(t) = plane.pop_front(&mut hint) {
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
        let mut hint = None;
        let first = plane.pop_front(&mut hint).unwrap();
        assert_eq!(first.record_bytes, 10);
        plane.requeue_front(first, &mut hint);
        assert_eq!(plane.len(), 2);
        assert_eq!(plane.pop_front(&mut hint).unwrap().record_bytes, 10);
        assert_eq!(plane.pop_front(&mut hint).unwrap().record_bytes, 11);
    }

    /// The drain's hint pops a shard's run with one lock each, yet never
    /// ahead of a record that landed, after the scan, in a shard the scan
    /// found empty.
    #[test]
    fn plane_pops_by_hint_in_ticket_order() {
        let plane = SpoolPlane::new();
        let mut hint = None;
        let pop = |hint: &mut Option<PopHint>| plane.pop_front(hint).map(|t| t.ticket);
        plane.push(rec(0, 0, 4, 10), false); // ticket 0, shard 0
        plane.push(rec(0, 8, 4, 10), false); // 1, shard 0
        assert_eq!(pop(&mut hint), Some(0));
        // No other shard had a front: the bound is the first unseen ticket.
        assert!(hint.is_some_and(|h| (h.index, h.below) == (0, 2)));
        plane.push(rec(1, 0, 4, 10), false); // 2, in a shard found empty
        plane.push(rec(0, 16, 4, 10), false); // 3, behind 1
        plane.push(rec(2, 0, 4, 10), false); // 4
        assert_eq!(pop(&mut hint), Some(1), "below the bound: no scan");
        assert_eq!(pop(&mut hint), Some(2), "3 is not below 2: a scan");
        assert!(hint.is_some_and(|h| (h.index, h.below) == (1, 3)));
        let popped = plane.pop_front(&mut hint).unwrap();
        assert_eq!(popped.ticket, 3);
        plane.requeue_front(popped, &mut hint);
        assert!(hint.is_none(), "a requeue clears the hint");
        let order: Vec<u64> = std::iter::from_fn(|| pop(&mut hint)).collect();
        assert_eq!(order, [3, 4]);
        assert!(plane.is_empty());
    }

    #[test]
    fn plane_gauges_track_subsumption() {
        let plane = SpoolPlane::new();
        plane.push(rec(0, 10, 10, 100), true);
        let saved = plane.push(rec(0, 0, 100, 300), true).0;
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

    /// The spool before the index, kept as the model the indexed one is
    /// compared against: a push walks every spooled record.
    #[derive(Default)]
    struct ModelSpool {
        txns: VecDeque<SpooledTxn>,
        bytes: u64,
        coverage: SegCoverage,
    }

    impl ModelSpool {
        fn push(&mut self, txn: SpooledTxn, inter_opt: bool) -> u64 {
            let mut saved = 0u64;
            if inter_opt && !self.txns.is_empty() {
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
                    }
                    !subsumed
                });
                self.bytes -= saved;
            }
            self.bytes += txn.record_bytes;
            self.txns.push_back(txn);
            saved
        }

        fn pop_front(&mut self) -> Option<SpooledTxn> {
            let txn = self.txns.pop_front()?;
            self.bytes -= txn.record_bytes;
            Some(txn)
        }

        fn push_front(&mut self, txn: SpooledTxn) {
            self.bytes += txn.record_bytes;
            self.txns.push_front(txn);
        }
    }

    /// What the model needs of a record: its ticket, ranges and size.
    fn copy_of(txn: &SpooledTxn) -> SpooledTxn {
        SpooledTxn {
            ticket: txn.ticket,
            ranges: txn.ranges.clone(),
            record_bytes: txn.record_bytes,
            ..SpooledTxn::default()
        }
    }

    /// 12 000 seeded operations on the indexed spool and the model:
    /// pushes of one to four ranges over three segments — repeats, ranges
    /// nested in, adjacent to or overlapping an earlier one, and fresh
    /// ones — with and without the optimization, pops, and a popped
    /// record put back. Every push saves the same bytes, hands back a
    /// record exactly when it discards one, and leaves the same records
    /// in the same order.
    #[test]
    fn indexed_spool_matches_the_scanning_model() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let (mut spool, mut model) = (Spool::new(), ModelSpool::default());
        let mut history: Vec<(u32, u64, u64)> = vec![(0, 0, 64)];
        let mut held: Option<SpooledTxn> = None;
        let mut subsumed = 0;
        for op in 0..12_000u32 {
            match next(10) {
                0 | 1 => {
                    let popped = (spool.pop_front(), model.pop_front());
                    let tickets = (popped.0.as_ref(), popped.1.as_ref());
                    let tickets = (tickets.0.map(|t| t.ticket), tickets.1.map(|t| t.ticket));
                    assert_eq!(tickets.0, tickets.1, "op {op}: pop");
                    if held.is_none() && next(2) == 0 {
                        held = popped.0;
                    }
                }
                2 if held.is_some() => {
                    let txn = held.take().expect("held");
                    model.push_front(copy_of(&txn));
                    spool.insert(txn);
                }
                _ => {
                    let mut ranges = Vec::new();
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
                    let inter_opt = next(8) != 0;
                    let txn = rec_in(&ranges, 1 + next(1_000));
                    let model_saved = model.push(copy_of(&txn), inter_opt);
                    let (saved, recycled) = spool.push(txn, inter_opt);
                    assert_eq!(saved, model_saved, "op {op}: {ranges:?}");
                    assert_eq!(recycled.is_some(), saved > 0, "op {op}");
                    assert!(recycled.is_none_or(|r| r.ranges.is_empty() && r.data.is_empty()));
                    subsumed += u32::from(saved > 0);
                }
            }
            let expected: Vec<u64> = model.txns.iter().map(|t| t.ticket).collect();
            assert_eq!(tickets(&spool), expected, "op {op}");
            assert_eq!(
                (spool.len(), spool.bytes()),
                (model.txns.len(), model.bytes)
            );
        }
        assert!(
            subsumed > 1_000,
            "the shapes must subsume often: {subsumed}"
        );
    }

    /// The spool's tickets in drain order, checking on the way that the
    /// two lists hold exactly its records, each where it belongs.
    fn tickets(spool: &Spool) -> Vec<u64> {
        let (mut order, mut at, mut older) = (Vec::new(), spool.oldest, NIL);
        while let Some(slot) = spool.slots.get(at) {
            assert_eq!(slot.older, older);
            order.push(slot.txn.ticket);
            (older, at) = (at, slot.newer);
        }
        assert_eq!((older, order.len()), (spool.newest, spool.len()));
        let mut filed = 0;
        for (&(seg, page), &head) in &spool.pages {
            let mut at = head;
            while let Some(slot) = spool.slots.get(at) {
                let first = first_range(&slot.txn).expect("a filed record has a range");
                assert_eq!((first.0, first.1.start / PAGE_SIZE), (seg, page));
                filed += 1;
                at = slot.next_in_page;
            }
        }
        assert_eq!(filed, spool.len(), "each record on one page list");
        order
    }

    /// What a push examines depends on what it covers, not on how much
    /// is spooled.
    #[test]
    fn a_push_examines_what_it_covers_not_what_is_spooled() {
        let examined = |spooled: u64| {
            let mut spool = Spool::new();
            for i in 0..spooled {
                spool.push(rec(0, i * 4096, 2048, 100), true);
            }
            // Its first range lies in the next push's coverage; its
            // second does not.
            spool.push(
                rec_over(0, &[(5 * 4096 + 2048, 64), (1 << 40, 8)], 100),
                true,
            );
            // Covers the record at page 5 and that first range.
            assert_eq!(spool.push(rec(0, 5 * 4096, 4096, 100), true).0, 100);
            assert_eq!(spool.len() as u64, spooled + 1);
            spool.found.len()
        };
        assert_eq!(examined(127), 2);
        assert_eq!(examined(8_000), 2);
    }
}
