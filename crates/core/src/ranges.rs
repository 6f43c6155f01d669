//! Byte-range bookkeeping: coalescing range sets and latest-wins
//! resolution.
//!
//! Two mechanisms in the paper reduce to interval arithmetic:
//!
//! * **Intra-transaction optimization** (§5.2): duplicate, overlapping and
//!   adjacent `set_range` calls within one transaction are coalesced —
//!   [`RangeSet`] does this, and reports which sub-ranges were *newly*
//!   covered so old-value capture copies each byte at most once.
//! * **Recovery trees** (§5.1.2): the newest value of each byte wins.
//!   [`ValueArena`] copies each range's value once as a forward scan
//!   passes its record, overwriting in place a value a newer range of
//!   the same start and length supersedes, and then resolves the whole
//!   span at once into disjoint pieces borrowed from the arena — the form
//!   truncation and recovery replay from. The owned, incremental form
//!   (`rvm_check::IntervalMap`) is the verifier's and the inspection
//!   tools' model, which the arena is tested against.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A half-open byte range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteRange {
    /// First byte in the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl ByteRange {
    /// Creates a range from start and length.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` overflows.
    pub fn at(start: u64, len: u64) -> Self {
        Self {
            start,
            end: start.checked_add(len).expect("range end overflows u64"),
        }
    }

    /// Length of the range in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Returns `true` for an empty range.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A set of disjoint, coalesced byte ranges.
///
/// Inserting a range that duplicates, overlaps, or is adjacent to existing
/// ranges merges them into one — the intra-transaction optimization. The
/// insert reports the previously-uncovered pieces so the caller can capture
/// old values exactly once per byte.
///
/// # Examples
///
/// ```
/// use rvm::ranges::{ByteRange, RangeSet};
///
/// let mut set = RangeSet::new();
/// assert_eq!(set.insert(ByteRange::at(0, 10)), vec![ByteRange::at(0, 10)]);
/// // A duplicate is harmless and adds nothing (§5.2).
/// assert_eq!(set.insert(ByteRange::at(0, 10)), vec![]);
/// // An overlapping range contributes only its new part.
/// assert_eq!(set.insert(ByteRange::at(5, 10)), vec![ByteRange::at(10, 5)]);
/// assert_eq!(set.iter().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Ascending; invariant: disjoint and non-adjacent. A vector, not a
    /// tree: a transaction's set is short and mostly grows at the end,
    /// and [`RangeSet::clear`] keeps the allocation for the next one.
    ranges: Vec<ByteRange>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `range`, coalescing with overlapping or adjacent members.
    ///
    /// Returns the sub-ranges of `range` that were not previously covered,
    /// in ascending order (empty if `range` was already fully covered).
    pub fn insert(&mut self, range: ByteRange) -> Vec<ByteRange> {
        let mut newly = Vec::new();
        self.insert_with(range, |piece| newly.push(piece));
        newly
    }

    /// [`RangeSet::insert`] that hands each newly covered sub-range to
    /// `newly` as it finds it, ascending, instead of collecting them.
    pub fn insert_with(&mut self, range: ByteRange, mut newly: impl FnMut(ByteRange)) {
        if range.is_empty() {
            return;
        }
        // Members touching `range` — start ≤ range.end and end ≥
        // range.start — are one run `first..last`: members are disjoint
        // and ascending, so both bounds are ascending too.
        let first = self.ranges.partition_point(|m| m.end < range.start);
        if first == self.ranges.len() {
            // Past every member: ascending insertion appends.
            newly(range);
            return self.ranges.push(range);
        }
        let (mut merged, mut cursor, mut last) = (range, range.start, first);
        for m in self.ranges.iter().skip(first) {
            if m.start > range.end {
                break;
            }
            if m.start > cursor {
                newly(ByteRange::at(cursor, m.start - cursor));
            }
            cursor = cursor.max(m.end);
            merged.start = merged.start.min(m.start);
            merged.end = merged.end.max(m.end);
            last += 1;
        }
        if cursor < range.end {
            newly(ByteRange::at(cursor, range.end - cursor));
        }
        // The run collapses into `merged` (an empty run: an insertion).
        self.ranges.splice(first..last, std::iter::once(merged));
    }

    /// Returns `true` if every byte of `range` is covered.
    pub fn covers(&self, range: &ByteRange) -> bool {
        if range.is_empty() {
            return true;
        }
        // The last member starting at or before `range.start`.
        let after = self.ranges.partition_point(|m| m.start <= range.start);
        let before = self.ranges.get(..after).and_then(<[_]>::last);
        before.is_some_and(|m| m.end >= range.end)
    }

    /// Iterates the coalesced ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ByteRange> + Clone + '_ {
        self.ranges.iter().copied()
    }

    /// Total number of bytes covered.
    pub fn total_len(&self) -> u64 {
        self.ranges.iter().map(ByteRange::len).sum()
    }

    /// Number of coalesced ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` if no ranges are present.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }
}

/// Coverage of segment-absolute byte ranges, per segment id: the interval
/// arithmetic behind the spool's inter-transaction subsumption check
/// (§5.2 — "if the modifications being committed subsume those from an
/// earlier unflushed transaction, the older log records are discarded").
///
/// # Examples
///
/// ```
/// use rvm::ranges::{ByteRange, SegCoverage};
///
/// let mut cov = SegCoverage::new();
/// cov.add(7, ByteRange::at(0, 100));
/// assert!(cov.covers(7, &ByteRange::at(10, 20)));
/// assert!(!cov.covers(7, &ByteRange::at(90, 20)));
/// assert!(!cov.covers(8, &ByteRange::at(10, 20)), "different segment");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SegCoverage {
    /// A set emptied by [`SegCoverage::clear`] stays, for its allocation,
    /// and counts for nothing until added to again.
    per_seg: BTreeMap<u32, RangeSet>,
}

impl SegCoverage {
    /// Creates an empty coverage map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `range` to segment `seg`'s covered set.
    pub fn add(&mut self, seg: u32, range: ByteRange) {
        let set = self.per_seg.entry(seg).or_default();
        set.insert_with(range, |_| {});
    }

    /// Returns `true` if every byte of `range` in segment `seg` is covered.
    pub fn covers(&self, seg: u32, range: &ByteRange) -> bool {
        let set = self.per_seg.get(&seg).filter(|set| !set.is_empty());
        set.is_some_and(|set| set.covers(range))
    }

    /// Uncovers everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.per_seg.values_mut().for_each(RangeSet::clear);
    }
}

/// The new value of `[start, start + data.len())` in segment `seg`,
/// borrowed from wherever the bytes live — for replay, the value arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Piece<'a> {
    /// Raw id of the segment the bytes belong to.
    pub seg: u32,
    /// Byte offset within the segment.
    pub start: u64,
    /// The new value.
    pub data: &'a [u8],
}

impl Piece<'_> {
    /// One past the last byte the piece covers.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.data.len() as u64)
    }
}

/// Which range wins a byte: the lower rank. A newer record ranks lower,
/// and within a record an earlier range — the order of a newest-first
/// read: `(u64::MAX - record ordinal, index in the record)`.
type Rank = (u64, u32);

/// One range's new value as a [`ValueArena`] keeps it.
#[derive(Debug, Clone, Copy)]
struct Kept {
    start: u64,
    /// Its record's ordinal, the oldest record 0.
    record: u64,
    /// Its length; 0 once retired by a longer newer range at its start.
    len: usize,
    seg: u32,
    /// The range's index in its record.
    idx: u32,
    /// Where its bytes are: a block of the arena and an offset in it,
    /// which is below [`ARENA_BLOCK_MAX`] (a longer value starts a block
    /// of exactly its length).
    block: u32,
    at: u32,
}

/// A kept value's place in the resolve order, `(start, seg, index into
/// ValueArena::kept)` (an arena holds far fewer than 2³² values): 16
/// bytes to move through the radix passes instead of the value's 40.
type Key = (u64, u32, u32);

/// Bits of one radix digit: a pass's 2 048 counters stay in L1.
const DIGIT_BITS: u32 = 11;

/// Sorts `keys` by `(seg, start)`, stably: a least-significant-digit
/// radix sort whose passes cover only the bits in which some two keys
/// differ: two for 64-byte-aligned starts within one 8 MiB segment.
fn radix_sort(mut keys: Vec<Key>) -> Vec<Key> {
    // The key as one number, segment above start.
    let key_bits = |&(start, seg, _): &Key| (u128::from(seg) << 64) | u128::from(start);
    let first = keys.first().map_or(0, key_bits);
    let varying = keys.iter().fold(0, |acc, k| acc | (key_bits(k) ^ first));
    // No pass at all (`128..0`) when no bit varies.
    let (low, high) = (varying.trailing_zeros(), 128 - varying.leading_zeros());
    let mut spare = vec![Key::default(); keys.len()];
    let digit = |k: &Key, shift: u32| (key_bits(k) >> shift) as usize & ((1 << DIGIT_BITS) - 1);
    for shift in (low..high).step_by(DIGIT_BITS as usize) {
        // Each digit's first slot in the output, then the next free one.
        let mut next = [0usize; 1 << DIGIT_BITS];
        for k in &keys {
            if let Some(n) = next.get_mut(digit(k, shift)) {
                *n += 1;
            }
        }
        next.iter_mut()
            .fold(0, |at, n| at + std::mem::replace(n, at));
        for k in &keys {
            if let Some(n) = next.get_mut(digit(k, shift)) {
                if let Some(slot) = spare.get_mut(*n) {
                    *slot = *k;
                }
                *n += 1;
            }
        }
        std::mem::swap(&mut keys, &mut spare);
    }
    keys
}

/// Bytes of a [`ValueArena`]'s first block; each later one doubles, up
/// to [`ARENA_BLOCK_MAX`], and a longer value takes a block of its own.
const ARENA_BLOCK_MIN: usize = 64 << 10;
const ARENA_BLOCK_MAX: usize = 1 << 20;

/// The new values of a log span's ranges, copied into one byte arena as
/// a forward scan passes the records, oldest first, and resolved at the
/// end into "the latest committed changes for each data segment"
/// (§5.1.2). The arena's blocks fill in turn, so a value is copied once
/// and never moves, as it would at each doubling of one growing vector.
///
/// A direct-mapped memo remembers, per slot, a value kept at a (segment,
/// start) that hashes there. A range of a newer record at that start and
/// of the same length overwrites the value in place and takes its rank;
/// a longer one retires it (a value a newer range covers whole wins no
/// byte and cuts no run); a shorter one is appended beside it. A memo
/// collision only forgets, and the ranges of one record are always
/// appended: the earlier of two outranks the later.
///
/// # Examples
///
/// ```
/// use rvm::ranges::{Piece, ValueArena};
///
/// let piece = |start, data| Piece { seg: 0, start, data };
/// let mut values = ValueArena::default();
/// values.keep_record([piece(0, &[1; 8][..])].into_iter());
/// values.keep_record([piece(4, &[2; 2][..]), piece(0, &[3; 8][..])].into_iter());
/// values.keep_record([piece(4, &[4; 2][..])].into_iter());
/// let pieces = values.latest_pieces();
/// let got: Vec<(u64, &[u8])> = pieces.iter().map(|p| (p.start, p.data)).collect();
/// assert_eq!(got, [(0, &[3; 4][..]), (4, &[4; 2][..]), (6, &[3; 2][..])]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ValueArena {
    blocks: Vec<Vec<u8>>,
    kept: Vec<Kept>,
    /// Per slot, an index into `kept` (`usize::MAX`: none), allocated
    /// by the first record.
    memo: Vec<usize>,
    records: u64,
}

impl ValueArena {
    /// The memo slot a value at `start` in segment `seg` takes; values at
    /// two starts with one slot forget each other.
    pub fn memo_slot(seg: u32, start: u64) -> usize {
        let hash = (start ^ u64::from(seg).rotate_right(20)).wrapping_mul(FIB_HASH);
        (hash >> (64 - MEMO_SLOTS.ilog2())) as usize
    }

    /// Keeps the values of one record's ranges, in record order; each
    /// call is a record newer than every one before it.
    pub fn keep_record<'a>(&mut self, ranges: impl Iterator<Item = Piece<'a>>) {
        let record = self.records;
        self.records += 1;
        if self.memo.is_empty() {
            self.memo = vec![usize::MAX; MEMO_SLOTS];
        }
        for (idx, range) in ranges.enumerate() {
            let (len, idx) = (range.data.len(), u32::try_from(idx).unwrap_or(u32::MAX));
            if len == 0 {
                continue;
            }
            let slot = Self::memo_slot(range.seg, range.start);
            let last = self.memo.get(slot).and_then(|&k| self.kept.get_mut(k));
            if let Some(kept) = last.filter(|kept| {
                (kept.seg, kept.start) == (range.seg, range.start)
                    && kept.record < record
                    && kept.len <= len
            }) {
                if kept.len == len {
                    let at = kept.at as usize;
                    let block = self.blocks.get_mut(kept.block as usize);
                    if let Some(value) = block.and_then(|b| b.get_mut(at..at + len)) {
                        value.copy_from_slice(range.data);
                    }
                    (kept.record, kept.idx) = (record, idx);
                    continue;
                }
                kept.len = 0;
            }
            if let Some(last) = self.memo.get_mut(slot) {
                *last = self.kept.len();
            }
            let room = self.blocks.last().map_or(0, |b| b.capacity() - b.len());
            if room < len {
                let size = (ARENA_BLOCK_MIN << self.blocks.len().min(16)).min(ARENA_BLOCK_MAX);
                self.blocks.push(Vec::with_capacity(size.max(len)));
            }
            let block = self.blocks.len() as u32 - 1;
            let Some(bytes) = self.blocks.last_mut() else {
                continue;
            };
            let (seg, start, at) = (range.seg, range.start, bytes.len() as u32);
            self.kept.push(Kept {
                start,
                record,
                len,
                seg,
                idx,
                block,
                at,
            });
            bytes.extend_from_slice(range.data);
        }
    }

    /// Kept value `kept`, and its rank.
    fn value(&self, kept: u32) -> Option<(Piece<'_>, Rank)> {
        let k = self.kept.get(kept as usize)?;
        let (seg, start, at) = (k.seg, k.start, k.at as usize);
        let data = self.blocks.get(k.block as usize)?.get(at..at + k.len)?;
        Some((Piece { seg, start, data }, (u64::MAX - k.record, k.idx)))
    }

    /// Resolves the kept values into the pieces replay writes, borrowed
    /// from the arena: sorted by `(seg, start)`, disjoint within a
    /// segment, and exactly the entries an interval map per segment
    /// holds after a newest-wins insert of every range kept, newest
    /// record first and each record's ranges in order — one per maximal
    /// run of a range that no newer range covers, never merged with a
    /// neighbour. The values are put in `(seg, start)` order by a stable
    /// radix sort of their keys, taken newest kept first, so each run of
    /// one start comes newest record first: a kept value changes only
    /// while the memo points at it, which ends when a later value at its
    /// start is kept. Ranges of one record at one start come in reverse,
    /// and the sweep's heap, which orders by rank, puts them right.
    pub fn latest_pieces(&self) -> Vec<Piece<'_>> {
        let newest_first = self.kept.iter().enumerate().rev();
        let live = newest_first.filter(|(_, k)| k.len > 0);
        let keys = live.map(|(kept, k)| (k.start, k.seg, kept as u32));
        self.sweep(&radix_sort(keys.collect()))
    }

    /// The sweep behind [`ValueArena::latest_pieces`], over keys in
    /// `(seg, start)` order. A range that has ended wins no more,
    /// and one that a newer range outlives from its start wins nothing,
    /// so the sweep never pushes a range that the newest active one
    /// outlives, and empties its heap whenever everything in it has
    /// ended. With the heap empty, a range that ends before the next one
    /// starts is a piece whole and never enters the heap.
    fn sweep(&self, keys: &[Key]) -> Vec<Piece<'_>> {
        let mut out: Vec<Piece<'_>> = Vec::with_capacity(keys.len());
        // Ranges of the current segment that start at or before `cur`,
        // newest on top; one that has ended is dropped once it surfaces,
        // or once every range in the heap has ended.
        let mut active: BinaryHeap<Reverse<(Rank, Piece<'_>)>> = BinaryHeap::new();
        for group in keys.chunk_by(|a, b| a.1 == b.1) {
            let mut unstarted = group.iter().filter_map(|key| self.value(key.2)).peekable();
            let mut cur = 0u64;
            // Where the last range in the heap to end ends.
            let mut reach = 0u64;
            // The piece being grown, ending at `cur`: the rank and extent
            // of the range it is cut from, and where it starts.
            let mut run: Option<(Rank, Piece<'_>, u64)> = None;
            loop {
                if reach <= cur {
                    // Ranges rewritten in time order leave the ended older
                    // ones under the newer: they would never surface.
                    active.clear();
                    close_run(&mut out, run.take(), cur);
                    let Some((range, rank)) = unstarted.next() else {
                        break;
                    };
                    // Every range left starts at or after this one's start.
                    let alone = unstarted.peek().is_none_or(|(p, _)| p.start >= range.end());
                    if alone {
                        close_run(&mut out, Some((rank, range, range.start)), range.end());
                        (cur, reach) = (range.end(), range.end());
                        continue;
                    }
                    active.push(Reverse((rank, range)));
                    (cur, reach) = (range.start, range.end());
                }
                while let Some((range, rank)) = unstarted.next_if(|(p, _)| p.start <= cur) {
                    // It starts at `cur`, which the top covers if it has not
                    // ended: an older range that the top outlives wins nothing.
                    let top = active.peek();
                    if !top.is_some_and(|Reverse((r, p))| *r < rank && p.end() >= range.end()) {
                        active.push(Reverse((rank, range)));
                        reach = reach.max(range.end());
                    }
                }
                while active.peek().is_some_and(|Reverse((_, p))| p.end() <= cur) {
                    active.pop();
                }
                let next_start = unstarted.peek().map(|(p, _)| p.start);
                let Some(&Reverse((rank, newest))) = active.peek() else {
                    // Nothing covers `cur`: jump to the next range, if any.
                    close_run(&mut out, run.take(), cur);
                    match next_start {
                        Some(start) => cur = start,
                        None => break,
                    }
                    continue;
                };
                // `newest` wins from `cur` until it ends or another range
                // starts, whichever comes first.
                if run.map(|(r, ..)| r) != Some(rank) {
                    close_run(&mut out, run.replace((rank, newest, cur)), cur);
                }
                cur = next_start.map_or(newest.end(), |start| start.min(newest.end()));
            }
        }
        #[cfg(test)]
        tests::HEAP_CAPACITY.set(active.capacity());
        out
    }
}

/// Slots of a [`ValueArena`]'s memo: a span rewrites a few starts in
/// place over and over.
const MEMO_SLOTS: usize = 1024;

/// 2⁶⁴ over the golden ratio, which spreads a key into the top bits.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Emits the finished run `[start, end)` of `range` as one piece.
fn close_run<'a>(out: &mut Vec<Piece<'a>>, run: Option<(Rank, Piece<'a>, u64)>, end: u64) {
    let Some((_, range, start)) = run else {
        return;
    };
    let within = (start - range.start) as usize..(end - range.start) as usize;
    if let Some(data) = range.data.get(within).filter(|d| !d.is_empty()) {
        let seg = range.seg;
        out.push(Piece { seg, start, data });
    }
}

/// The parts of `pieces` (one segment's, sorted and disjoint) that fall
/// in `[start, start + span)`, each as its segment offset and bytes.
pub(crate) fn clip_pieces<'a>(
    pieces: &'a [Piece<'a>],
    start: u64,
    span: u64,
) -> impl Iterator<Item = (u64, &'a [u8])> {
    let end = start.saturating_add(span);
    let reaching = pieces.iter().take_while(move |p| p.start < end);
    reaching.filter_map(move |piece| {
        let from = piece.start.max(start);
        let to = piece.end().min(end);
        // Empty, or inverted (so `None`), for a piece that ends before `start`.
        let within = (from - piece.start) as usize..(to - piece.start) as usize;
        let part = piece.data.get(within)?;
        (!part.is_empty()).then_some((from, part))
    })
}

/// Copies the parts of `pieces` that fall in `[start, start + buf.len())`
/// into `buf`, leaving gaps untouched. Returns how many bytes of pieces
/// lie in `[start, start + span)`, which may reach past `buf`.
pub(crate) fn overlay_pieces(pieces: &[Piece<'_>], start: u64, span: u64, buf: &mut [u8]) -> u64 {
    let mut covered = 0;
    for (at, data) in clip_pieces(pieces, start, span) {
        covered += data.len() as u64;
        // As much of the part as `buf` holds.
        if let Some(dst) = buf.get_mut((at - start) as usize..) {
            let n = data.len().min(dst.len());
            if let (Some(src), Some(dst)) = (data.get(..n), dst.get_mut(..n)) {
                dst.copy_from_slice(src);
            }
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// The capacity [`sweep`]'s heap ended with on this
        /// thread, which bounds how deep it got, within a factor of two.
        pub(super) static HEAP_CAPACITY: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn byte_range_basics() {
        let r = ByteRange::at(10, 5);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert!(ByteRange::at(10, 0).is_empty());
    }

    #[test]
    fn rangeset_disjoint_inserts() {
        let mut set = RangeSet::new();
        assert_eq!(set.insert(ByteRange::at(0, 4)), vec![ByteRange::at(0, 4)]);
        assert_eq!(set.insert(ByteRange::at(10, 4)), vec![ByteRange::at(10, 4)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_len(), 8);
    }

    #[test]
    fn rangeset_duplicate_is_ignored() {
        let mut set = RangeSet::new();
        set.insert(ByteRange::at(0, 8));
        assert!(set.insert(ByteRange::at(0, 8)).is_empty());
        assert!(set.insert(ByteRange::at(2, 3)).is_empty());
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_len(), 8);
    }

    #[test]
    fn rangeset_adjacent_coalesce() {
        let mut set = RangeSet::new();
        set.insert(ByteRange::at(0, 4));
        assert_eq!(set.insert(ByteRange::at(4, 4)), vec![ByteRange::at(4, 4)]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap(), ByteRange { start: 0, end: 8 });
    }

    #[test]
    fn rangeset_overlap_reports_only_new_parts() {
        let mut set = RangeSet::new();
        set.insert(ByteRange::at(0, 10));
        set.insert(ByteRange::at(20, 10));
        // Bridges both, covering the gap [10, 20).
        let newly = set.insert(ByteRange::at(5, 20));
        assert_eq!(newly, vec![ByteRange { start: 10, end: 20 }]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_len(), 30);
    }

    #[test]
    fn rangeset_insert_spanning_multiple_gaps() {
        let mut set = RangeSet::new();
        set.insert(ByteRange::at(10, 2));
        set.insert(ByteRange::at(20, 2));
        set.insert(ByteRange::at(30, 2));
        let newly = set.insert(ByteRange::at(0, 40));
        assert_eq!(
            newly,
            vec![
                ByteRange { start: 0, end: 10 },
                ByteRange { start: 12, end: 20 },
                ByteRange { start: 22, end: 30 },
                ByteRange { start: 32, end: 40 },
            ]
        );
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_len(), 40);
    }

    #[test]
    fn rangeset_covers() {
        let mut set = RangeSet::new();
        set.insert(ByteRange::at(10, 10));
        assert!(set.covers(&ByteRange::at(10, 10)));
        assert!(set.covers(&ByteRange::at(12, 3)));
        assert!(!set.covers(&ByteRange::at(5, 10)));
        assert!(!set.covers(&ByteRange::at(15, 10)));
        assert!(set.covers(&ByteRange::at(15, 0)), "empty always covered");
    }

    #[test]
    fn rangeset_empty_insert_is_noop() {
        let mut set = RangeSet::new();
        assert!(set.insert(ByteRange::at(5, 0)).is_empty());
        assert!(set.is_empty());
    }

    /// The tree the set used to be, kept as the model the vector is
    /// compared against: start → end, disjoint and non-adjacent.
    #[derive(Default)]
    struct ModelSet {
        ranges: BTreeMap<u64, u64>,
    }

    impl ModelSet {
        fn insert(&mut self, range: ByteRange) -> Vec<ByteRange> {
            if range.is_empty() {
                return Vec::new();
            }
            let mut new_start = range.start;
            let mut new_end = range.end;
            let mut newly = Vec::new();
            let mut cursor = range.start;
            let first = self
                .ranges
                .range(..=range.start)
                .next_back()
                .map_or(range.start, |(&start, _)| start);
            let mut to_remove = Vec::new();
            for (&start, &end) in self.ranges.range(first..=range.end) {
                if end < range.start {
                    continue;
                }
                if start > cursor {
                    let gap_end = start.min(range.end);
                    if cursor < gap_end {
                        newly.push(ByteRange {
                            start: cursor,
                            end: gap_end,
                        });
                    }
                }
                cursor = cursor.max(end);
                new_start = new_start.min(start);
                new_end = new_end.max(end);
                to_remove.push(start);
            }
            if cursor < range.end {
                newly.push(ByteRange {
                    start: cursor,
                    end: range.end,
                });
            }
            for s in to_remove {
                self.ranges.remove(&s);
            }
            self.ranges.insert(new_start, new_end);
            newly
        }

        fn covers(&self, range: &ByteRange) -> bool {
            if range.is_empty() {
                return true;
            }
            match self.ranges.range(..=range.start).next_back() {
                Some((_, &end)) => end >= range.end,
                None => false,
            }
        }

        fn members(&self) -> Vec<ByteRange> {
            self.ranges
                .iter()
                .map(|(&start, &end)| ByteRange { start, end })
                .collect()
        }
    }

    /// 10 000 seeded inserts — duplicates, overlaps, exact adjacency,
    /// ranges spanning many members, the odd empty one — into the vector
    /// and the tree: the same newly covered pieces from every insert, and
    /// the same members, coverage answers and total after it.
    #[test]
    fn rangeset_matches_the_tree_model() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut set = RangeSet::new();
        let mut model = ModelSet::default();
        let mut history: Vec<ByteRange> = Vec::new();
        for round in 0..10_000u32 {
            if round % 2_500 == 0 {
                // Start over now and then, so sparse sets are seen too.
                set.clear();
                model = ModelSet::default();
            }
            let range = match next(8) {
                // A repeat, or a neighbour that touches one exactly.
                0 if !history.is_empty() => history[next(history.len() as u64) as usize],
                1 if !history.is_empty() => {
                    let r = history[next(history.len() as u64) as usize];
                    ByteRange::at(r.end, 1 + next(40))
                }
                2 if !history.is_empty() => {
                    let r = history[next(history.len() as u64) as usize];
                    let len = (1 + next(40)).min(r.start);
                    ByteRange::at(r.start - len, len)
                }
                // One that spans many members.
                3 => ByteRange::at(next(60_000), 200 + next(3_000)),
                _ => ByteRange::at(next(64_000), next(48)),
            };
            history.push(range);
            let newly = set.insert(range);
            assert_eq!(newly, model.insert(range), "round {round}: {range:?}");
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                model.members(),
                "round {round}: {range:?}"
            );
            assert_eq!(set.len(), model.ranges.len());
            assert_eq!(
                set.total_len(),
                model.members().iter().map(ByteRange::len).sum::<u64>()
            );
            for _ in 0..4 {
                let probe = ByteRange::at(next(64_000), next(64));
                assert_eq!(set.covers(&probe), model.covers(&probe), "{probe:?}");
            }
            assert!(set.covers(&range) && model.covers(&range));
        }
    }

    #[test]
    fn rangeset_ascending_inserts_append() {
        let mut set = RangeSet::new();
        let mut newly = 0;
        for i in 0..1_000u64 {
            set.insert_with(ByteRange::at(i * 10, 5), |_| newly += 1);
        }
        assert_eq!(set.len(), 1_000);
        assert_eq!(newly, 1_000);
        assert_eq!(set.total_len(), 5_000);
        set.clear();
        assert!(set.is_empty());
    }

    /// 30 000 copies of one 128-byte range, rewritten in place, among
    /// 30 000 distinct ranges: half under one newer wide range, half a
    /// ring of slots written in address order. The copies share a few
    /// values in the arena, and the pieces are the maximal runs of bytes
    /// one range wins, from a heap that stays shallow. Without the drops,
    /// each copy and each range under the wide one would stay in the heap
    /// until the range over it ended, and each slot of the ring, under
    /// every newer one, until the sweep left the segment.
    #[test]
    fn latest_pieces_drop_covered_ranges_early() {
        let bytes: Vec<u8> = (0..60_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let piece = |k: usize, start: u64, len: usize| Piece {
            seg: 0,
            start,
            data: &bytes[k % 1_000..k % 1_000 + len],
        };
        let wide = Piece {
            seg: 0,
            start: 0,
            data: &bytes[..],
        };
        let mut newest_first = vec![wide];
        for i in 0..30_000 {
            newest_first.push(piece(i, 200_000, 128));
            let slot = (i / 2) as u64;
            match i % 2 {
                0 => newest_first.push(piece(i + 1, slot * 4, 16)),
                _ => newest_first.push(piece(i + 1, 100_000 + (15_000 - slot) * 16, 16)),
            }
        }
        let mut values = ValueArena::default();
        for p in newest_first.iter().rev() {
            values.keep_record(std::iter::once(*p));
        }
        // 30 002 distinct values, and a copy is appended only where a
        // ring slot between two copies evicted their start from the memo.
        assert!(values.kept.len() < 30_100, "{} values", values.kept.len());
        let pieces = values.latest_pieces();
        // The model: each byte's winner is the newest range over it, and
        // a piece is a maximal run of bytes one range wins.
        let extent = newest_first.iter().map(Piece::end).max().unwrap_or(0);
        let mut winner = vec![usize::MAX; extent as usize];
        for (i, p) in newest_first.iter().enumerate() {
            let bytes = &mut winner[p.start as usize..p.end() as usize];
            bytes
                .iter_mut()
                .filter(|w| **w == usize::MAX)
                .for_each(|w| *w = i);
        }
        let mut expected: Vec<(u64, &[u8])> = Vec::new();
        let mut at = 0;
        for run in winner.chunk_by(|a, b| a == b) {
            if let Some(&i) = run.first().filter(|&&i| i != usize::MAX) {
                let p = newest_first[i];
                let from = at - p.start as usize;
                expected.push((at as u64, &p.data[from..from + run.len()]));
            }
            at += run.len();
        }
        let got: Vec<(u64, &[u8])> = pieces.iter().map(|p| (p.start, p.data)).collect();
        assert_eq!(got, expected);
        assert!(
            HEAP_CAPACITY.get() <= 16,
            "heap grew to {}",
            HEAP_CAPACITY.get()
        );
    }
}
