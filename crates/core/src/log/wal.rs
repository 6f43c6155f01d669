//! The circular log writer and its scanners.
//!
//! The record area behaves like the paper's Figure 6: a circular buffer in
//! which `head` chases `tail`. Offsets are *logical* (monotone u64); the
//! physical position is `LOG_AREA_START + logical % area_len`. Records
//! never straddle the physical end of the area — a pad record fills the
//! remainder of a lap when the next record would not fit — so every record
//! is contiguous on the device.
//!
//! Because records carry both a forward length (header) and a backward
//! length (trailer), the log can be read in either direction, matching the
//! bidirectional displacements of Figure 5. Recovery uses the forward scan
//! to locate the true tail (the first invalid record or sequence gap) and
//! then processes records newest-first; the backward scan backs the
//! post-mortem inspection tool.
//!
//! The forward scan ([`scan_span`]) reads the span in a few large reads
//! and validates each record where it lies, so what truncation and
//! recovery replay from is borrowed from those reads; [`scan_forward`]
//! copies the same result into owned records for tools and tests.

use std::sync::Arc;

use rvm_storage::Device;

use crate::cursor::WalView;
use crate::error::{Result, RvmError};
use crate::log::record::{
    self, encode_borrowed_into, encode_pad, parse_header, parse_record, validate_record,
    HeaderInfo, RecordKind, RecordRange, RecordView, TxnRecord, HEADER_SIZE, LOG_BLOCK,
    MIN_RECORD_SIZE, TRAILER_SIZE,
};
use crate::log::status::LOG_AREA_START;
use crate::ranges::Piece;

/// Result of appending one transaction record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendInfo {
    /// Logical offset of the record's first byte.
    pub offset: u64,
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// Unpadded record bytes (header + payload + trailer), the quantity
    /// Table 2 reports as "bytes written to log".
    pub record_bytes: u64,
    /// Log space consumed, padding and any pad record included.
    pub space_consumed: u64,
}

/// Staging memory for a batch of appends: encoded record bytes accumulated
/// in RAM, addressed by *physical* device offset, instead of being written
/// to the device one record at a time.
///
/// Contiguous appends coalesce into one chunk, so a whole flush batch
/// typically reaches the device as a single write (two when a pad record
/// wraps the lap: the pad fills the old lap's physical end while the
/// record restarts at the area's physical start). Every chunk lives in
/// one byte buffer, written in place by [`Wal::write_staged`], which keeps
/// its allocation across [`StagingBuf::clear`], so a reused buffer fills
/// without allocating.
#[derive(Debug, Default)]
pub struct StagingBuf {
    bytes: Vec<u8>,
    /// `(physical offset, start in bytes)` of each chunk, append order; a
    /// chunk runs to the next one's start, the last to the end of `bytes`.
    chunks: Vec<(u64, usize)>,
}

impl StagingBuf {
    /// An empty staging buffer.
    pub fn new() -> Self {
        StagingBuf::default()
    }

    /// Drops staged bytes, keeping the byte buffer's allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.chunks.clear();
    }

    /// The staged `(physical offset, bytes)` chunks, append order.
    pub fn chunks(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let ends = self
            .chunks
            .iter()
            .skip(1)
            .map(|&(_, start)| start)
            .chain(std::iter::once(self.bytes.len()));
        self.chunks
            .iter()
            .zip(ends)
            .map(|(&(phys, start), end)| (phys, self.bytes.get(start..end).unwrap_or_default()))
    }

    /// The byte buffer, positioned for bytes destined for `phys`: they
    /// extend the last chunk when they continue it on the device and
    /// start a new chunk otherwise.
    fn at(&mut self, phys: u64) -> &mut Vec<u8> {
        let continues = self
            .chunks
            .last()
            .is_some_and(|&(off, start)| off + (self.bytes.len() - start) as u64 == phys);
        if !continues {
            self.chunks.push((phys, self.bytes.len()));
        }
        &mut self.bytes
    }
}

/// A snapshot of the append cursors, taken when a batch opens so a failed
/// shared force can roll the whole batch back at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalCheckpoint {
    tail: u64,
    next_seq: u64,
}

impl WalCheckpoint {
    /// Logical tail at the time of the snapshot.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Next sequence number at the time of the snapshot.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// The circular log writer.
///
/// The four cursors are plain fields: every mutation happens through
/// `&mut Wal`, which only the holder of the core lock has. `head` and
/// `tail` are also stored into a shared `WalView` each time they move,
/// for the readers that want the log's occupancy without the lock
/// (`query()`, the commit path's truncation-threshold check).
pub struct Wal {
    dev: Arc<dyn Device>,
    area_len: u64,
    head: u64,
    tail: u64,
    seq_at_head: u64,
    next_seq: u64,
    pub(crate) view: Arc<WalView>,
}

impl Wal {
    /// Creates a writer over `dev` with geometry and positions from the
    /// status block / recovery.
    pub fn new(
        dev: Arc<dyn Device>,
        area_len: u64,
        head: u64,
        tail: u64,
        seq_at_head: u64,
        next_seq: u64,
    ) -> Self {
        debug_assert!(head <= tail && tail - head <= area_len);
        Self {
            dev,
            area_len,
            head,
            tail,
            seq_at_head,
            next_seq,
            view: Arc::new(WalView::new(head, tail, area_len)),
        }
    }

    /// Moves the tail (an append, or a rollback to at or above the head)
    /// and publishes it.
    fn set_tail(&mut self, tail: u64, next_seq: u64) {
        self.tail = tail;
        self.next_seq = next_seq;
        self.view.set_tail(tail);
    }

    /// Logical offset of the oldest live record.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Logical offset one past the newest record.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Sequence number expected at `head`.
    pub fn seq_at_head(&self) -> u64 {
        self.seq_at_head
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes of live log.
    pub fn used(&self) -> u64 {
        self.tail() - self.head()
    }

    /// Total record-area capacity.
    pub fn capacity(&self) -> u64 {
        self.area_len
    }

    /// Free space available for appends.
    pub fn free_space(&self) -> u64 {
        self.area_len - self.used()
    }

    /// Utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used() as f64 / self.area_len as f64
    }

    /// The log device.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.dev
    }

    fn phys(&self, logical: u64) -> u64 {
        LOG_AREA_START + logical % self.area_len
    }

    /// Space an append of a record with the given padded size would
    /// consume, including a pad record if the record would not fit in the
    /// current lap.
    pub fn space_needed(&self, padded_size: u64) -> u64 {
        let lap_remaining = self.area_len - self.tail() % self.area_len;
        if padded_size <= lap_remaining {
            padded_size
        } else {
            padded_size + lap_remaining
        }
    }

    /// Appends one committed transaction as a single record: stages it
    /// ([`Wal::append_txn_staged`]) and writes the staged bytes. The
    /// one-record convenience for tools and tests; the library's commit
    /// plane stages whole batches itself.
    ///
    /// The caller is responsible for ensuring space (triggering truncation
    /// as needed); see [`Wal::full_for_now`] for telling the two kinds of
    /// [`RvmError::LogFull`] apart.
    pub fn append_txn(&mut self, tid: u64, ranges: &[RecordRange]) -> Result<AppendInfo> {
        let ckpt = self.checkpoint();
        let mut staging = StagingBuf::new();
        let info = self.append_txn_staged(tid, ranges, &mut staging)?;
        if let Err(e) = self.write_staged(&staging) {
            // A failed append must leave the in-memory cursors exactly
            // where they were: if the pad record persisted but the txn
            // record did not (or either write failed outright), an
            // advanced `tail` / `next_seq` would diverge from what a
            // recovery scan of the durable image accepts. Restoring both
            // makes a failed append harmless — a healed device can simply
            // re-append, rewriting the identical pad bytes.
            self.rollback_to(ckpt);
            return Err(e);
        }
        Ok(info)
    }

    /// [`Wal::append_staged`] over owned ranges, for tools and tests.
    pub fn append_txn_staged(
        &mut self,
        tid: u64,
        ranges: &[RecordRange],
        staging: &mut StagingBuf,
    ) -> Result<AppendInfo> {
        self.append_staged(tid, record::borrowed(ranges), staging)
    }

    /// Appends one committed transaction into `staging` instead of the
    /// device: the cursors advance past the record (and a pad record, if
    /// the record does not fit in the current lap), but the encoded bytes
    /// land in RAM. The caller later pushes the whole buffer to the device
    /// with [`Wal::write_staged`]. This is the one place a record is
    /// encoded and the tail advanced.
    ///
    /// The only possible error is [`RvmError::LogFull`], raised before any
    /// cursor or staging mutation, so a failed staged append needs no
    /// rollback and leaves `staging` untouched. A record that cannot fit
    /// in the *entire* area reports the area as `capacity`; one that
    /// merely cannot fit right now reports the free space
    /// ([`Wal::full_for_now`]).
    pub fn append_staged<'a>(
        &mut self,
        tid: u64,
        ranges: impl Iterator<Item = Piece<'a>> + Clone,
        staging: &mut StagingBuf,
    ) -> Result<AppendInfo> {
        let record_bytes = record::record_bytes(ranges.clone());
        let padded = record_bytes.next_multiple_of(LOG_BLOCK);
        if padded > self.area_len {
            return Err(RvmError::LogFull {
                needed: padded,
                capacity: self.area_len,
            });
        }
        let need = self.space_needed(padded);
        if need > self.free_space() {
            return Err(RvmError::LogFull {
                needed: need,
                capacity: self.free_space(),
            });
        }

        // Pad out the current lap if the record will not fit in it.
        let lap_remaining = self.area_len - self.tail() % self.area_len;
        if padded > lap_remaining {
            debug_assert!(lap_remaining >= MIN_RECORD_SIZE);
            let pad = encode_pad(self.next_seq(), lap_remaining);
            staging.at(self.phys(self.tail())).extend_from_slice(&pad);
            self.set_tail(self.tail() + lap_remaining, self.next_seq() + 1);
        }

        let seq = self.next_seq();
        let offset = self.tail();
        let buf = staging.at(self.phys(offset));
        let staged = buf.len();
        encode_borrowed_into(seq, tid, ranges, buf);
        debug_assert_eq!((buf.len() - staged) as u64, padded);
        self.set_tail(offset + padded, seq + 1);

        Ok(AppendInfo {
            offset,
            seq,
            record_bytes,
            space_consumed: need,
        })
    }

    /// Whether `e` is an append's "does not fit *right now*": a
    /// [`RvmError::LogFull`] against less than the whole area, which
    /// truncation can cure by making room.
    pub fn full_for_now(&self, e: &RvmError) -> bool {
        matches!(e, RvmError::LogFull { capacity, .. } if *capacity < self.area_len)
    }

    /// Writes every staged chunk to the device in place, leaving `staging`
    /// (and its allocation) to the caller. The writes are *completed*, not
    /// durable — pair them with [`Wal::force`].
    pub fn write_staged(&self, staging: &StagingBuf) -> Result<()> {
        for (phys, bytes) in staging.chunks() {
            self.dev.write_at(phys, bytes)?;
        }
        Ok(())
    }

    /// Forces all appended records to stable storage (a "log force").
    pub fn force(&self) -> Result<()> {
        self.dev.sync()?;
        Ok(())
    }

    /// Captures the append cursors ahead of a group of appends.
    pub fn checkpoint(&self) -> WalCheckpoint {
        WalCheckpoint {
            tail: self.tail(),
            next_seq: self.next_seq(),
        }
    }

    /// Rolls the append cursors back to a [`WalCheckpoint`] after a group
    /// of appends whose shared force failed: none of the group's records
    /// were acknowledged, so the in-memory tail must not claim them. A
    /// healed device can re-append from the checkpoint, rewriting the
    /// identical bytes; a recovery scan of the durable image stops at the
    /// same place because nothing past the checkpoint was forced.
    ///
    /// If truncation ran *between* the checkpoint and the failure (an
    /// append mid-group made space), the head may have advanced past the
    /// checkpointed tail; the records below it were already applied to
    /// their segments and the checkpoint no longer names a valid cursor
    /// state, so the rollback is skipped — callers poison the instance on
    /// this path, which makes the stale cursors unreachable. The same
    /// guard is why the published tail never drops below the published
    /// head, which lock-free readers rely on (`cursor.rs`).
    pub fn rollback_to(&mut self, ckpt: WalCheckpoint) {
        debug_assert!(ckpt.tail <= self.tail() && ckpt.next_seq <= self.next_seq());
        if self.head() <= ckpt.tail {
            self.set_tail(ckpt.tail, ckpt.next_seq);
        }
    }

    /// Moves the head forward after truncation has applied records below
    /// `new_head` to their segments.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the head would move backward or past the tail.
    pub fn advance_head(&mut self, new_head: u64, new_seq_at_head: u64) {
        debug_assert!(new_head >= self.head && new_head <= self.tail);
        self.head = new_head;
        self.seq_at_head = new_seq_at_head;
        self.view.set_head(new_head);
    }
}

/// First read of a scan; each later read doubles, up to
/// [`SCAN_CHUNK_MAX`], so an empty or short log costs one small read and a
/// long one is read in few.
const SCAN_CHUNK_MIN: u64 = 64 << 10;
/// Largest read of a scan, unless a single record is larger.
const SCAN_CHUNK_MAX: u64 = 1 << 20;

/// One read of the record area and the transaction records validated in
/// it. A chunk never crosses the physical end of the area, and no record
/// straddles two chunks.
#[derive(Debug)]
struct SpanChunk {
    /// Logical offset of `bytes[0]`.
    base: u64,
    bytes: Vec<u8>,
    /// `(offset in bytes, header)` of each transaction record, oldest
    /// first.
    records: Vec<(usize, HeaderInfo)>,
}

impl SpanChunk {
    /// The bytes read from logical offset `pos` (at or past `base`) on.
    fn from(&self, pos: u64) -> &[u8] {
        let at = (pos - self.base) as usize;
        self.bytes.get(at..).unwrap_or_default()
    }
}

/// The live span of the log in memory: the chunks a forward scan read and
/// an index of the records it validated in them. Replay borrows every
/// byte it applies from here.
#[derive(Debug)]
pub struct LiveSpan {
    chunks: Vec<SpanChunk>,
    /// Logical offset one past the last valid record (the true tail).
    pub tail: u64,
    /// Sequence number the next appended record should carry.
    pub next_seq: u64,
    /// Pad records encountered.
    pub pads: u64,
}

impl LiveSpan {
    /// The valid committed transaction records with their logical
    /// offsets, oldest first (`.rev()` for the newest-first order replay
    /// wants).
    pub fn records(&self) -> impl DoubleEndedIterator<Item = (u64, RecordView<'_>)> + '_ {
        self.chunks.iter().flat_map(|chunk| {
            chunk.records.iter().filter_map(move |&(at, header)| {
                let view = header.layout(chunk.bytes.get(at..)?)?;
                Some((chunk.base + at as u64, view))
            })
        })
    }

    /// Number of transaction records.
    pub fn record_count(&self) -> usize {
        self.chunks.iter().map(|c| c.records.len()).sum()
    }

    /// Number of ranges over all transaction records.
    pub fn range_count(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|c| &c.records)
            .map(|(_, header)| header.num_ranges as usize)
            .sum()
    }
}

/// Everything a forward scan learns about the live log, in owned form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Valid committed transaction records, oldest first, with their
    /// logical offsets.
    pub records: Vec<(u64, TxnRecord)>,
    /// Logical offset one past the last valid record (the true tail).
    pub tail: u64,
    /// Sequence number the next appended record should carry.
    pub next_seq: u64,
    /// Pad records encountered.
    pub pads: u64,
}

/// Scans the record area forward from `head`, stopping at the first
/// invalid record, the first sequence gap, `stop_at`, or after one full
/// lap, and keeps what it read.
///
/// The area is read in chunks of [`SCAN_CHUNK_MIN`] doubling to
/// [`SCAN_CHUNK_MAX`] — never past `stop_at` unless the record in hand
/// needs it — and each record is validated where it lies: one header
/// parse, then trailer, sequence and body CRC. Device read errors abort
/// the scan with an error; torn or stale records are *expected* and
/// simply terminate it.
pub fn scan_span(
    dev: &dyn Device,
    area_len: u64,
    head: u64,
    seq_at_head: u64,
    stop_at: Option<u64>,
) -> Result<LiveSpan> {
    let mut span = LiveSpan {
        chunks: Vec::new(),
        tail: head,
        next_seq: seq_at_head,
        pads: 0,
    };
    let mut cur = SpanChunk {
        base: head,
        bytes: Vec::new(),
        records: Vec::new(),
    };
    let mut chunk_len = SCAN_CHUNK_MIN;
    let mut pos = head;
    let dev_len = dev.len()?;

    loop {
        if pos - head >= area_len || stop_at.is_some_and(|stop| pos >= stop) {
            break;
        }
        // Bytes from `pos` that are contiguous on the device (which a
        // truncated log file ends early) and still within one lap of
        // `head`: no record may be longer.
        let phys = LOG_AREA_START + pos % area_len;
        let room = (area_len - pos % area_len)
            .min(area_len - (pos - head))
            .min(dev_len.saturating_sub(phys));
        // Makes `cur` hold at least `need` bytes from `pos` on: if it
        // does not, a new chunk starting at `pos` replaces it, carrying
        // over what `cur` already read.
        let mut ensure = |cur: &mut SpanChunk, need: u64| -> Result<()> {
            let carried = cur.from(pos);
            if carried.len() as u64 >= need {
                return Ok(());
            }
            let ahead = stop_at.map_or(chunk_len, |stop| chunk_len.min(stop - pos));
            let len = need.max(ahead).min(room) as usize;
            // Zeroed by the allocator, which fresh pages already are, not
            // by a fill that the read then overwrites.
            let mut bytes = vec![0; len];
            if let Some(kept) = bytes.get_mut(..carried.len()) {
                kept.copy_from_slice(carried);
            }
            let fresh = bytes.get_mut(carried.len()..).unwrap_or_default();
            dev.read_at(phys + carried.len() as u64, fresh)?;
            let records = Vec::with_capacity(len / MIN_RECORD_SIZE as usize);
            let done = std::mem::replace(
                cur,
                SpanChunk {
                    base: pos,
                    bytes,
                    records,
                },
            );
            if !done.records.is_empty() {
                span.chunks.push(done);
            }
            chunk_len = (chunk_len * 2).min(SCAN_CHUNK_MAX);
            Ok(())
        };

        if room < HEADER_SIZE {
            break;
        }
        ensure(&mut cur, HEADER_SIZE)?;
        let Some(header) = parse_header(cur.from(pos)) else {
            break;
        };
        if header.seq != span.next_seq {
            break;
        }
        let padded = header.padded_len();
        if padded > room {
            break;
        }
        ensure(&mut cur, padded)?;
        let at = (pos - cur.base) as usize;
        let valid = cur
            .bytes
            .get(at..at + padded as usize)
            .and_then(|image| validate_record(&header, image));
        if valid.is_none() {
            break;
        }
        match header.kind {
            RecordKind::Txn => cur.records.push((at, header)),
            RecordKind::Pad => span.pads += 1,
        }
        pos += padded;
        span.next_seq += 1;
    }

    if !cur.records.is_empty() {
        span.chunks.push(cur);
    }
    span.tail = pos;
    Ok(span)
}

/// [`scan_span`] with every record copied out of the scan's buffers —
/// the form the inspection tools, the checker and the tests consume.
pub fn scan_forward(
    dev: &dyn Device,
    area_len: u64,
    head: u64,
    seq_at_head: u64,
    stop_at: Option<u64>,
) -> Result<ScanOutcome> {
    let span = scan_span(dev, area_len, head, seq_at_head, stop_at)?;
    Ok(ScanOutcome {
        records: span
            .records()
            .filter_map(|(pos, view)| Some((pos, view.to_txn()?)))
            .collect(),
        tail: span.tail,
        next_seq: span.next_seq,
        pads: span.pads,
    })
}

/// Scans the record area backward from `tail` (whose next sequence number
/// is `next_seq`) down to `head`, returning transaction records newest
/// first. This exercises the reverse displacements of Figure 5.
pub fn scan_backward(
    dev: &dyn Device,
    area_len: u64,
    head: u64,
    tail: u64,
    next_seq: u64,
) -> Result<Vec<(u64, TxnRecord)>> {
    let mut records = Vec::new();
    let mut pos = tail;
    let mut expect = next_seq;

    while pos > head {
        expect -= 1;
        let trailer_at = LOG_AREA_START + (pos - TRAILER_SIZE) % area_len;
        let mut trailer_buf = [0u8; TRAILER_SIZE as usize];
        dev.read_at(trailer_at, &mut trailer_buf)?;
        let Some(trailer) = record::parse_trailer(&trailer_buf) else {
            return Err(RvmError::BadLog(format!(
                "invalid trailer at logical offset {pos}"
            )));
        };
        if trailer.seq != expect || trailer.padded_len > pos - head {
            return Err(RvmError::BadLog(format!(
                "inconsistent trailer at logical offset {pos}"
            )));
        }
        let start = pos - trailer.padded_len;
        let mut buf = vec![0u8; trailer.padded_len as usize];
        dev.read_at(LOG_AREA_START + start % area_len, &mut buf)?;
        let Some((_, decoded)) = parse_record(&buf) else {
            return Err(RvmError::BadLog(format!(
                "invalid record at logical offset {start}"
            )));
        };
        if let Some(txn) = decoded {
            records.push((start, txn));
        }
        pos = start;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentId;
    use rvm_storage::MemDevice;

    fn mk_wal(area_len: u64) -> Wal {
        let dev = Arc::new(MemDevice::with_len(LOG_AREA_START + area_len));
        Wal::new(dev, area_len, 0, 0, 1, 1)
    }

    fn range(seg: u32, offset: u64, byte: u8, len: usize) -> RecordRange {
        RecordRange {
            seg: SegmentId::new(seg),
            offset,
            data: vec![byte; len],
        }
    }

    #[test]
    fn append_then_scan_round_trips() {
        let mut wal = mk_wal(1 << 16);
        let a = wal.append_txn(1, &[range(0, 0, 0xAA, 100)]).unwrap();
        let b = wal
            .append_txn(2, &[range(0, 100, 0xBB, 50), range(1, 0, 0xCC, 10)])
            .unwrap();
        wal.force().unwrap();
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert!(b.offset > a.offset);

        let scan = scan_forward(wal.device().as_ref(), wal.capacity(), 0, 1, None).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.tail, wal.tail());
        assert_eq!(scan.next_seq, wal.next_seq());
        assert_eq!(scan.records[0].1.tid, 1);
        assert_eq!(scan.records[1].1.ranges.len(), 2);
        assert_eq!(scan.records[1].1.ranges[1].data, vec![0xCC; 10]);
    }

    #[test]
    fn scan_of_empty_log_finds_nothing() {
        let wal = mk_wal(1 << 14);
        let scan = scan_forward(wal.device().as_ref(), wal.capacity(), 0, 1, None).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, 0);
    }

    #[test]
    fn wraparound_inserts_pad_and_scans_clean() {
        // Area of 8 blocks; records of ~3 blocks force a pad at the lap end.
        let area = 8 * LOG_BLOCK;
        let mut wal = mk_wal(area);
        // Each record: header 40 + entry 24 + 1000 + trailer 24 = 1088 -> 3 blocks.
        let r1 = wal.append_txn(1, &[range(0, 0, 1, 1000)]).unwrap();
        let r2 = wal.append_txn(2, &[range(0, 0, 2, 1000)]).unwrap();
        assert_eq!(r1.space_consumed, 3 * LOG_BLOCK);
        assert_eq!(r2.space_consumed, 3 * LOG_BLOCK);
        // Two blocks remain in the lap; the next record needs a pad first,
        // which does not fit until we truncate.
        assert!(wal.append_txn(3, &[range(0, 0, 3, 1000)]).is_err());
        // Simulate truncation of the first record.
        wal.advance_head(3 * LOG_BLOCK, 2);
        let r3 = wal.append_txn(3, &[range(0, 0, 3, 1000)]).unwrap();
        assert_eq!(r3.space_consumed, 3 * LOG_BLOCK + 2 * LOG_BLOCK);
        assert_eq!(r3.offset, 8 * LOG_BLOCK, "record starts on the next lap");

        let scan = scan_forward(
            wal.device().as_ref(),
            wal.capacity(),
            wal.head(),
            wal.seq_at_head(),
            None,
        )
        .unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.pads, 1);
        assert_eq!(scan.records[0].1.tid, 2);
        assert_eq!(scan.records[1].1.tid, 3);
        assert_eq!(scan.tail, wal.tail());
    }

    #[test]
    fn oversized_record_is_log_full() {
        let mut wal = mk_wal(4 * LOG_BLOCK);
        let err = wal.append_txn(1, &[range(0, 0, 1, 10_000)]).unwrap_err();
        assert!(matches!(err, RvmError::LogFull { .. }));
    }

    #[test]
    fn full_log_rejects_appends_until_head_moves() {
        let mut wal = mk_wal(4 * LOG_BLOCK);
        wal.append_txn(1, &[range(0, 0, 1, 800)]).unwrap(); // 2 blocks
        wal.append_txn(2, &[range(0, 0, 2, 800)]).unwrap(); // 2 blocks
        assert_eq!(wal.free_space(), 0);
        assert!(wal.append_txn(3, &[]).is_err());
        wal.advance_head(2 * LOG_BLOCK, 2);
        wal.append_txn(3, &[range(0, 0, 3, 100)]).unwrap();
    }

    #[test]
    fn stale_records_from_previous_lap_are_not_replayed() {
        let area = 8 * LOG_BLOCK;
        let mut wal = mk_wal(area);
        for tid in 1..=4u64 {
            wal.append_txn(tid, &[range(0, 0, tid as u8, 800)]).unwrap();
        }
        // Truncate everything, then write one record on the second lap.
        wal.advance_head(wal.tail(), wal.next_seq());
        wal.append_txn(9, &[range(0, 0, 9, 800)]).unwrap();
        let scan = scan_forward(
            wal.device().as_ref(),
            wal.capacity(),
            wal.head(),
            wal.seq_at_head(),
            None,
        )
        .unwrap();
        // Only the new record; the stale lap-1 records that physically
        // follow it have stale sequence numbers.
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].1.tid, 9);
    }

    #[test]
    fn scan_stops_at_stop_offset() {
        let mut wal = mk_wal(1 << 14);
        wal.append_txn(1, &[range(0, 0, 1, 10)]).unwrap();
        let split = wal.tail();
        wal.append_txn(2, &[range(0, 0, 2, 10)]).unwrap();
        let scan = scan_forward(wal.device().as_ref(), wal.capacity(), 0, 1, Some(split)).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.tail, split);
    }

    #[test]
    fn torn_tail_record_is_ignored() {
        let mut wal = mk_wal(1 << 14);
        wal.append_txn(1, &[range(0, 0, 1, 10)]).unwrap();
        let good_tail = wal.tail();
        let info = wal.append_txn(2, &[range(0, 0, 2, 300)]).unwrap();
        // Corrupt the middle of the second record, as a torn force would.
        wal.device()
            .write_at(LOG_AREA_START + info.offset + 200, &[0xEE; 8])
            .unwrap();
        let scan = scan_forward(wal.device().as_ref(), wal.capacity(), 0, 1, None).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.tail, good_tail);
        assert_eq!(scan.next_seq, 2);
    }

    #[test]
    fn failed_append_restores_cursors() {
        use rvm_storage::{FaultOp, FlakyDevice, FlakyFault};
        let area = 8 * LOG_BLOCK;
        let mem = Arc::new(MemDevice::with_len(LOG_AREA_START + area));
        // Fail the 4th write: txn 1 and 2 are writes 1-2, the pad at the
        // lap end is write 3, and the wrapped txn-3 record is write 4 —
        // the exact "pad persisted, record not" divergence window.
        let dev = Arc::new(FlakyDevice::new(
            Arc::clone(&mem),
            vec![FlakyFault::transient(FaultOp::Write, 4)],
        ));
        let mut wal = Wal::new(dev, area, 0, 0, 1, 1);
        wal.append_txn(1, &[range(0, 0, 1, 1000)]).unwrap();
        wal.append_txn(2, &[range(0, 0, 2, 1000)]).unwrap();
        wal.advance_head(3 * LOG_BLOCK, 2);
        let (tail0, seq0) = (wal.tail(), wal.next_seq());
        let err = wal.append_txn(3, &[range(0, 0, 3, 1000)]).unwrap_err();
        assert!(matches!(err, RvmError::Device(_)));
        assert_eq!(wal.tail(), tail0, "tail restored after failed append");
        assert_eq!(wal.next_seq(), seq0, "next_seq restored");
        // The device healed; re-appending succeeds (pad is rewritten
        // byte-identically) and the log scans clean.
        let info = wal.append_txn(3, &[range(0, 0, 3, 1000)]).unwrap();
        assert_eq!(info.offset, 8 * LOG_BLOCK, "record starts on next lap");
        let scan = scan_forward(
            wal.device().as_ref(),
            wal.capacity(),
            wal.head(),
            wal.seq_at_head(),
            None,
        )
        .unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].1.tid, 3);
        assert_eq!(scan.tail, wal.tail());
        assert_eq!(scan.next_seq, wal.next_seq());
    }

    #[test]
    fn failed_pad_write_restores_cursors() {
        use rvm_storage::{FaultOp, FlakyDevice, FlakyFault};
        let area = 8 * LOG_BLOCK;
        let mem = Arc::new(MemDevice::with_len(LOG_AREA_START + area));
        // Write 3 is the pad record itself.
        let dev = Arc::new(FlakyDevice::new(
            mem,
            vec![FlakyFault::transient(FaultOp::Write, 3)],
        ));
        let mut wal = Wal::new(dev, area, 0, 0, 1, 1);
        wal.append_txn(1, &[range(0, 0, 1, 1000)]).unwrap();
        wal.append_txn(2, &[range(0, 0, 2, 1000)]).unwrap();
        wal.advance_head(3 * LOG_BLOCK, 2);
        let (tail0, seq0) = (wal.tail(), wal.next_seq());
        assert!(wal.append_txn(3, &[range(0, 0, 3, 1000)]).is_err());
        assert_eq!((wal.tail(), wal.next_seq()), (tail0, seq0));
        wal.append_txn(3, &[range(0, 0, 3, 1000)]).unwrap();
    }

    #[test]
    fn group_rollback_restores_cursors_across_many_appends() {
        let mut wal = mk_wal(1 << 16);
        wal.append_txn(1, &[range(0, 0, 1, 100)]).unwrap();
        let ckpt = wal.checkpoint();
        let (tail0, seq0) = (wal.tail(), wal.next_seq());
        // A "group" of three appends whose shared force never happened.
        for tid in 2..=4u64 {
            wal.append_txn(tid, &[range(0, tid * 8, tid as u8, 200)])
                .unwrap();
        }
        assert!(wal.tail() > tail0);
        wal.rollback_to(ckpt);
        assert_eq!(wal.tail(), tail0, "tail restored to pre-group position");
        assert_eq!(wal.next_seq(), seq0, "next_seq restored");
        // Re-appending from the checkpoint rewrites the same offsets and
        // sequence numbers; the log scans clean.
        for tid in 2..=4u64 {
            wal.append_txn(tid, &[range(0, tid * 8, tid as u8, 200)])
                .unwrap();
        }
        let scan = scan_forward(wal.device().as_ref(), wal.capacity(), 0, 1, None).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.tail, wal.tail());
        assert_eq!(scan.next_seq, wal.next_seq());
    }

    #[test]
    fn group_rollback_is_skipped_when_head_passed_the_checkpoint() {
        let mut wal = mk_wal(1 << 16);
        wal.append_txn(1, &[range(0, 0, 1, 100)]).unwrap();
        let ckpt = wal.checkpoint();
        wal.append_txn(2, &[range(0, 8, 2, 100)]).unwrap();
        // Truncation mid-group applied everything and moved the head past
        // the checkpointed tail; rolling back now would put tail < head.
        wal.advance_head(wal.tail(), wal.next_seq());
        let (tail, seq) = (wal.tail(), wal.next_seq());
        wal.rollback_to(ckpt);
        assert_eq!(wal.tail(), tail, "rollback skipped: cursors unchanged");
        assert_eq!(wal.next_seq(), seq);
        assert!(wal.head() <= wal.tail(), "head/tail invariant holds");
    }

    #[test]
    fn backward_scan_matches_forward_scan() {
        let area = 16 * LOG_BLOCK;
        let mut wal = mk_wal(area);
        for tid in 1..=5u64 {
            wal.append_txn(tid, &[range(0, tid * 8, tid as u8, 100)])
                .unwrap();
        }
        let forward = scan_forward(wal.device().as_ref(), area, 0, 1, None).unwrap();
        let mut backward = scan_backward(
            wal.device().as_ref(),
            area,
            wal.head(),
            wal.tail(),
            wal.next_seq(),
        )
        .unwrap();
        backward.reverse();
        assert_eq!(forward.records, backward);
    }

    #[test]
    fn staged_append_matches_direct_append_byte_for_byte() {
        let mut direct = mk_wal(1 << 16);
        let mut staged = mk_wal(1 << 16);
        let mut buf = StagingBuf::new();
        for tid in 1..=3u64 {
            let a = direct
                .append_txn(tid, &[range(0, tid * 16, tid as u8, 120)])
                .unwrap();
            let b = staged
                .append_txn_staged(tid, &[range(0, tid * 16, tid as u8, 120)], &mut buf)
                .unwrap();
            assert_eq!(a, b, "staged append reports identical AppendInfo");
        }
        // Three contiguous records coalesce into one chunk.
        assert_eq!(buf.chunks().count(), 1);
        staged.write_staged(&buf).unwrap();
        staged.force().unwrap();

        let scan_d = scan_forward(direct.device().as_ref(), direct.capacity(), 0, 1, None).unwrap();
        let scan_s = scan_forward(staged.device().as_ref(), staged.capacity(), 0, 1, None).unwrap();
        assert_eq!(scan_d, scan_s);
        assert_eq!(staged.tail(), direct.tail());
        assert_eq!(staged.next_seq(), direct.next_seq());
    }

    #[test]
    fn staged_wraparound_pad_splits_into_two_chunks() {
        let area = 8 * LOG_BLOCK;
        let mut wal = mk_wal(area);
        let mut buf = StagingBuf::new();
        wal.append_txn_staged(1, &[range(0, 0, 1, 1000)], &mut buf)
            .unwrap();
        wal.append_txn_staged(2, &[range(0, 0, 2, 1000)], &mut buf)
            .unwrap();
        wal.advance_head(3 * LOG_BLOCK, 2);
        // Pads the lap end (contiguous with the first chunk) then wraps to
        // the physical start of the area: a second, non-contiguous chunk.
        wal.append_txn_staged(3, &[range(0, 0, 3, 1000)], &mut buf)
            .unwrap();
        assert_eq!(buf.chunks().count(), 2);
        let (wrapped_at, wrapped) = buf.chunks().nth(1).expect("two chunks");
        assert_eq!(wrapped_at, LOG_AREA_START, "wrap restarts the area");
        assert_eq!(
            wrapped.len() as u64,
            3 * LOG_BLOCK,
            "the wrapped record alone"
        );
        wal.write_staged(&buf).unwrap();
        wal.force().unwrap();

        let scan = scan_forward(
            wal.device().as_ref(),
            wal.capacity(),
            wal.head(),
            wal.seq_at_head(),
            None,
        )
        .unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.pads, 1);
        assert_eq!(scan.records[1].1.tid, 3);
        assert_eq!(scan.tail, wal.tail());
    }

    #[test]
    fn staged_log_full_leaves_cursors_and_staging_untouched() {
        let mut wal = mk_wal(4 * LOG_BLOCK);
        let mut buf = StagingBuf::new();
        wal.append_txn_staged(1, &[range(0, 0, 1, 100)], &mut buf)
            .unwrap();
        let staged = |buf: &StagingBuf| buf.chunks().map(|(_, b)| b.len()).sum::<usize>();
        let (tail0, seq0, bytes0) = (wal.tail(), wal.next_seq(), staged(&buf));
        let err = wal
            .append_txn_staged(2, &[range(0, 0, 2, 10_000)], &mut buf)
            .unwrap_err();
        assert!(matches!(err, RvmError::LogFull { .. }));
        assert_eq!(wal.tail(), tail0);
        assert_eq!(wal.next_seq(), seq0);
        assert_eq!(staged(&buf), bytes0, "failed staged append stages nothing");
    }

    #[test]
    fn backward_scan_crosses_lap_boundary() {
        let area = 8 * LOG_BLOCK;
        let mut wal = mk_wal(area);
        wal.append_txn(1, &[range(0, 0, 1, 1000)]).unwrap();
        wal.append_txn(2, &[range(0, 0, 2, 1000)]).unwrap();
        wal.advance_head(3 * LOG_BLOCK, 2);
        wal.append_txn(3, &[range(0, 0, 3, 1000)]).unwrap(); // pads + wraps
        let records = scan_backward(
            wal.device().as_ref(),
            area,
            wal.head(),
            wal.tail(),
            wal.next_seq(),
        )
        .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1.tid, 3, "newest first");
        assert_eq!(records[1].1.tid, 2);
    }
}
