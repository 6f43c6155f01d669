//! On-disk log record format (paper Figure 5).
//!
//! One record holds one committed transaction: a header, a table of range
//! descriptors, the new-value data for every range, and a trailer. The
//! trailer carries the record's padded length — the paper's "reverse
//! displacement" — so the log can be read tail→head as well as head→tail.
//!
//! Records lie back to back, each padded to a multiple of [`LOG_BLOCK`]
//! bytes so trailers sit at predictable offsets (version-2 logs padded to
//! [`V2_LOG_BLOCK`]: see [`HeaderInfo::ends_at`]). Integrity is guarded
//! twice:
//!
//! * a header CRC lets a forward scan trust the record length before
//!   reading the payload;
//! * a whole-record CRC makes the record's mere presence its commit record:
//!   a torn force fails the CRC and the transaction never happened
//!   (no-undo/redo logging never needs to undo, §5.1.1).
//!
//! A record's sequence number must be exactly one greater than its
//! predecessor's; recovery stops at the first gap, which distinguishes the
//! live tail from stale records surviving from a previous lap of the
//! circular log.
//!
//! There is one validator: [`parse_header`] checks the header,
//! [`validate_record`] checks everything else and hands back a
//! [`RecordView`] whose ranges borrow the bytes they were validated in.
//! Truncation and recovery replay straight from those views;
//! [`parse_record`] copies one into an owned [`TxnRecord`] for tools and
//! tests.

use crate::crc::crc32;
use crate::ranges::Piece;
use crate::segment::SegmentId;

/// Alignment quantum for records in the log area.
pub const LOG_BLOCK: u64 = 64;
/// The alignment a version-2 log padded its records to.
pub const V2_LOG_BLOCK: u64 = 512;
/// Size of the fixed record header.
pub const HEADER_SIZE: u64 = 40;
/// Size of one range descriptor in the range table.
pub const RANGE_ENTRY_SIZE: u64 = 24;
/// Size of the fixed record trailer.
pub const TRAILER_SIZE: u64 = 24;
/// Smallest possible record (a pad record with empty payload).
pub const MIN_RECORD_SIZE: u64 = LOG_BLOCK;

const HEADER_MAGIC: u32 = 0x5256_4D31; // "RVM1"
const TRAILER_MAGIC: u32 = 0x5256_4D54; // "RVMT"

/// Discriminates record types in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A committed transaction's new-value records.
    Txn,
    /// Filler skipping unusable space at the end of a lap of the circular
    /// area.
    Pad,
}

impl RecordKind {
    fn to_u8(self) -> u8 {
        match self {
            RecordKind::Txn => 1,
            RecordKind::Pad => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(RecordKind::Txn),
            2 => Some(RecordKind::Pad),
            _ => None,
        }
    }
}

/// One modified range inside a transaction record: the new value of
/// `[offset, offset + data.len())` within segment `seg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRange {
    /// The segment the range belongs to.
    pub seg: SegmentId,
    /// Byte offset within the segment.
    pub offset: u64,
    /// New-value bytes.
    pub data: Vec<u8>,
}

/// A fully parsed transaction record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Transaction identifier (diagnostic only; uniqueness per session).
    pub tid: u64,
    /// Record sequence number in the log.
    pub seq: u64,
    /// Modified ranges with their new values.
    pub ranges: Vec<RecordRange>,
}

/// Header fields trusted after [`parse_header`] validates magic + CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderInfo {
    /// Record type.
    pub kind: RecordKind,
    /// Sequence number.
    pub seq: u64,
    /// Transaction id.
    pub tid: u64,
    /// Number of range descriptors.
    pub num_ranges: u32,
    /// Bytes of range table + data following the header.
    pub payload_len: u32,
}

impl HeaderInfo {
    /// Total bytes the record occupies in the log, padding included.
    pub fn padded_len(&self) -> u64 {
        padded_len(self.payload_len as u64)
    }

    /// Whether `image`, the log from the record's first byte on, ends an
    /// extent of `len` in a trailer of this record: how a scan tells a
    /// version-2 record, padded further, from a dense one.
    pub fn ends_at(&self, image: &[u8], len: u64) -> bool {
        let trailer = image.get(len.saturating_sub(TRAILER_SIZE) as usize..len as usize);
        let trailer = trailer.and_then(parse_trailer);
        trailer.is_some_and(|t| t.padded_len == len && t.seq == self.seq)
    }
}

/// Trailer fields trusted after [`parse_trailer`] validates the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailerInfo {
    /// CRC over header + payload, cross-checked against the full record.
    pub record_crc: u32,
    /// Sequence number (repeated from the header).
    pub seq: u64,
    /// Total padded length of the record, for backward scans.
    pub padded_len: u64,
}

/// Rounds a payload length up to the record's total padded size.
pub fn padded_len(payload_len: u64) -> u64 {
    let raw = HEADER_SIZE + payload_len + TRAILER_SIZE;
    raw.div_ceil(LOG_BLOCK) * LOG_BLOCK
}

/// `ranges` as the encoder takes them: each range's new value borrowed.
pub fn borrowed(ranges: &[RecordRange]) -> impl Iterator<Item = Piece<'_>> + Clone {
    ranges.iter().map(|r| Piece {
        seg: r.seg.as_u32(),
        start: r.offset,
        data: &r.data,
    })
}

/// Bytes of range table + data in a transaction record over `ranges`.
fn payload_len<'a>(ranges: impl Iterator<Item = Piece<'a>>) -> u64 {
    ranges.map(|r| RANGE_ENTRY_SIZE + r.data.len() as u64).sum()
}

/// Unpadded size of a transaction record over `ranges` — header, payload
/// and trailer: the quantity Table 2 reports as "bytes written to log",
/// and what batch and spool byte limits count.
pub fn record_bytes<'a>(ranges: impl Iterator<Item = Piece<'a>>) -> u64 {
    HEADER_SIZE + payload_len(ranges) + TRAILER_SIZE
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// The little-endian `u32` at `at`, if `buf` holds one there.
pub(crate) fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(*buf.get(at..)?.first_chunk()?))
}

/// The little-endian `u64` at `at`, if `buf` holds one there.
pub(crate) fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(*buf.get(at..)?.first_chunk()?))
}

/// Appends one encoded, padded record to `out` — the one encoder, over
/// ranges borrowed from wherever their bytes live.
fn encode<'a>(
    kind: RecordKind,
    seq: u64,
    tid: u64,
    ranges: impl Iterator<Item = Piece<'a>> + Clone,
    payload_len: u64,
    out: &mut Vec<u8>,
) {
    let total = padded_len(payload_len) as usize;
    let start = out.len();
    out.resize(start + total, 0);
    let buf = &mut out[start..];
    let num_ranges = ranges.clone().count();

    // Header.
    put_u32(buf, 0, HEADER_MAGIC);
    buf[4] = kind.to_u8();
    put_u64(buf, 8, seq);
    put_u64(buf, 16, tid);
    put_u32(buf, 24, num_ranges as u32);
    put_u32(buf, 28, payload_len as u32);
    let header_crc = crc32(&buf[..32]);
    put_u32(buf, 32, header_crc);

    // Range table, then data.
    let mut entry_at = HEADER_SIZE as usize;
    let mut data_at = HEADER_SIZE as usize + num_ranges * RANGE_ENTRY_SIZE as usize;
    for range in ranges {
        put_u32(buf, entry_at, range.seg);
        put_u64(buf, entry_at + 8, range.start);
        put_u64(buf, entry_at + 16, range.data.len() as u64);
        entry_at += RANGE_ENTRY_SIZE as usize;
        buf[data_at..data_at + range.data.len()].copy_from_slice(range.data);
        data_at += range.data.len();
    }

    // Trailer at the very end of the padded extent.
    let record_crc = crc32(&buf[..HEADER_SIZE as usize + payload_len as usize]);
    let t = total - TRAILER_SIZE as usize;
    put_u32(buf, t, TRAILER_MAGIC);
    put_u32(buf, t + 4, record_crc);
    put_u64(buf, t + 8, seq);
    put_u64(buf, t + 16, total as u64);
}

/// Serializes a committed transaction as one padded record.
pub fn encode_txn(seq: u64, tid: u64, ranges: &[RecordRange]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_borrowed_into(seq, tid, borrowed(ranges), &mut buf);
    buf
}

/// [`encode_txn`] over borrowed ranges, appended to `out`: how a commit's
/// arenas are staged, with no [`RecordRange`] built on the way.
pub fn encode_borrowed_into<'a>(
    seq: u64,
    tid: u64,
    ranges: impl Iterator<Item = Piece<'a>> + Clone,
    out: &mut Vec<u8>,
) {
    let payload = payload_len(ranges.clone());
    encode(RecordKind::Txn, seq, tid, ranges, payload, out);
}

/// Serializes a pad record of exactly `total_len` bytes (which must be a
/// multiple of [`LOG_BLOCK`] and at least [`MIN_RECORD_SIZE`]).
///
/// # Panics
///
/// Panics if `total_len` is not a valid pad size.
pub fn encode_pad(seq: u64, total_len: u64) -> Vec<u8> {
    assert!(
        total_len >= MIN_RECORD_SIZE && total_len.is_multiple_of(LOG_BLOCK),
        "invalid pad length {total_len}"
    );
    let payload = total_len - HEADER_SIZE - TRAILER_SIZE;
    let mut buf = Vec::new();
    let no_ranges = std::iter::empty();
    encode(RecordKind::Pad, seq, 0, no_ranges, payload, &mut buf);
    buf
}

/// Parses and validates a record header; `buf` must hold at least
/// [`HEADER_SIZE`] bytes. Returns `None` on any inconsistency.
pub fn parse_header(buf: &[u8]) -> Option<HeaderInfo> {
    let header = buf.first_chunk::<{ HEADER_SIZE as usize }>()?;
    if le_u32(header, 0)? != HEADER_MAGIC {
        return None;
    }
    if crc32(header.get(..32)?) != le_u32(header, 32)? {
        return None;
    }
    Some(HeaderInfo {
        kind: RecordKind::from_u8(*header.get(4)?)?,
        seq: le_u64(header, 8)?,
        tid: le_u64(header, 16)?,
        num_ranges: le_u32(header, 24)?,
        payload_len: le_u32(header, 28)?,
    })
}

/// Parses and validates a record trailer; `buf` must hold exactly the last
/// [`TRAILER_SIZE`] bytes of a record. Returns `None` on any inconsistency.
pub fn parse_trailer(buf: &[u8]) -> Option<TrailerInfo> {
    let trailer = buf.first_chunk::<{ TRAILER_SIZE as usize }>()?;
    if le_u32(trailer, 0)? != TRAILER_MAGIC {
        return None;
    }
    let padded = le_u64(trailer, 16)?;
    if padded == 0 || !padded.is_multiple_of(LOG_BLOCK) {
        return None;
    }
    Some(TrailerInfo {
        record_crc: le_u32(trailer, 4)?,
        seq: le_u64(trailer, 8)?,
        padded_len: padded,
    })
}

/// A record that passed every check, borrowed from the buffer it was
/// validated in: nothing is copied until a caller asks for an owned
/// [`TxnRecord`].
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    header: HeaderInfo,
    /// The range descriptors (empty for a pad record).
    table: &'a [u8],
    /// The ranges' new values, back to back in table order.
    data: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// The record's header fields.
    pub fn header(&self) -> HeaderInfo {
        self.header
    }

    /// The modified ranges in record order, each borrowing its new value
    /// from the record's bytes. Empty for a pad record.
    pub fn ranges(&self) -> RecordRanges<'a> {
        RecordRanges {
            table: self.table,
            data: self.data,
        }
    }

    /// An owned copy of a transaction record; `None` for a pad record.
    pub fn to_txn(&self) -> Option<TxnRecord> {
        (self.header.kind == RecordKind::Txn).then(|| TxnRecord {
            tid: self.header.tid,
            seq: self.header.seq,
            ranges: self
                .ranges()
                .map(|r| RecordRange {
                    seg: SegmentId::new(r.seg),
                    offset: r.start,
                    data: r.data.to_vec(),
                })
                .collect(),
        })
    }
}

/// Iterator over a [`RecordView`]'s ranges. Stops early — leaving table
/// entries unconsumed — at a descriptor whose length overruns the data,
/// which is how [`validate_record`] detects one.
#[derive(Debug, Clone)]
pub struct RecordRanges<'a> {
    table: &'a [u8],
    data: &'a [u8],
}

impl<'a> Iterator for RecordRanges<'a> {
    type Item = Piece<'a>;

    fn next(&mut self) -> Option<Piece<'a>> {
        let (entry, table) = self
            .table
            .split_first_chunk::<{ RANGE_ENTRY_SIZE as usize }>()?;
        let len = usize::try_from(le_u64(entry, 16)?).ok()?;
        let (data, rest) = self.data.split_at_checked(len)?;
        self.table = table;
        self.data = rest;
        Some(Piece {
            seg: le_u32(entry, 0)?,
            start: le_u64(entry, 8)?,
            data,
        })
    }
}

impl HeaderInfo {
    /// Splits a record's bytes into the view's parts by the lengths this
    /// header declares, checking layout only — `record` must start at the
    /// record's first byte and hold at least header and payload.
    pub(crate) fn layout<'a>(&self, record: &'a [u8]) -> Option<RecordView<'a>> {
        let payload = record
            .get(HEADER_SIZE as usize..)?
            .get(..self.payload_len as usize)?;
        let (table, data): (&[u8], &[u8]) = match self.kind {
            RecordKind::Pad => (&[], &[]),
            RecordKind::Txn => {
                let table_len = u64::from(self.num_ranges) * RANGE_ENTRY_SIZE;
                payload.split_at_checked(usize::try_from(table_len).ok()?)?
            }
        };
        Some(RecordView {
            header: *self,
            table,
            data,
        })
    }
}

/// Validates the whole padded image `buf` of a record whose header
/// [`parse_header`] already accepted: exact length (dense or version-2),
/// trailer magic, length and sequence echo, the CRC over header and
/// payload, and — for a transaction record — that the range table and the
/// range data fill the payload exactly. Returns `None` if any check fails.
pub fn validate_record<'a>(header: &HeaderInfo, buf: &'a [u8]) -> Option<RecordView<'a>> {
    let (padded, dense) = (buf.len() as u64, header.padded_len());
    if padded != dense && padded != dense.next_multiple_of(V2_LOG_BLOCK) {
        return None;
    }
    let trailer = parse_trailer(buf.get(buf.len().checked_sub(TRAILER_SIZE as usize)?..)?)?;
    if trailer.padded_len != padded || trailer.seq != header.seq {
        return None;
    }
    let body = buf.get(..HEADER_SIZE as usize + header.payload_len as usize)?;
    if crc32(body) != trailer.record_crc {
        return None;
    }
    let view = header.layout(body)?;
    let mut ranges = view.ranges();
    ranges.by_ref().for_each(drop);
    if !ranges.table.is_empty() || !ranges.data.is_empty() {
        return None;
    }
    Some(view)
}

/// Fully validates a padded record image and, for transaction records,
/// decodes it into an owned copy. Returns `None` if any check fails;
/// `Some((header, None))` for a valid pad record.
pub fn parse_record(buf: &[u8]) -> Option<(HeaderInfo, Option<TxnRecord>)> {
    let header = parse_header(buf)?;
    let view = validate_record(&header, buf)?;
    Some((header, view.to_txn()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ranges() -> Vec<RecordRange> {
        vec![
            RecordRange {
                seg: SegmentId::new(1),
                offset: 4096,
                data: vec![0xAA; 100],
            },
            RecordRange {
                seg: SegmentId::new(2),
                offset: 0,
                data: vec![0x55; 7],
            },
        ]
    }

    #[test]
    fn txn_record_round_trips() {
        let ranges = sample_ranges();
        let buf = encode_txn(42, 7, &ranges);
        assert_eq!(buf.len() as u64 % LOG_BLOCK, 0);
        let (header, decoded) = parse_record(&buf).expect("record must parse");
        assert_eq!(header.kind, RecordKind::Txn);
        assert_eq!(header.seq, 42);
        assert_eq!(header.tid, 7);
        let decoded = decoded.expect("txn record decodes");
        assert_eq!(decoded.ranges, ranges);
        assert_eq!(decoded.seq, 42);
        assert_eq!(decoded.tid, 7);
    }

    #[test]
    fn empty_txn_record_round_trips() {
        let buf = encode_txn(1, 1, &[]);
        let (header, decoded) = parse_record(&buf).unwrap();
        assert_eq!(header.num_ranges, 0);
        assert!(decoded.unwrap().ranges.is_empty());
    }

    #[test]
    fn pad_record_round_trips() {
        for len in [MIN_RECORD_SIZE, 3 * LOG_BLOCK] {
            let buf = encode_pad(9, len);
            assert_eq!(buf.len() as u64, len);
            let (header, decoded) = parse_record(&buf).unwrap();
            assert_eq!(header.kind, RecordKind::Pad);
            assert_eq!(header.seq, 9);
            assert!(decoded.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "invalid pad length")]
    fn unaligned_pad_panics() {
        let _ = encode_pad(1, LOG_BLOCK + 1);
    }

    #[test]
    fn size_accounting_matches_encoding() {
        let ranges = sample_ranges();
        let predicted = record_bytes(borrowed(&ranges)).next_multiple_of(LOG_BLOCK);
        assert_eq!(predicted, encode_txn(1, 1, &ranges).len() as u64);
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let buf = encode_txn(3, 3, &sample_ranges());
        // Flip each byte of the live portion and verify rejection. Bytes in
        // the padding gap are not covered by a CRC, so skip them.
        let body_len = {
            let h = parse_header(&buf).unwrap();
            (HEADER_SIZE + h.payload_len as u64) as usize
        };
        for i in (0..body_len).chain(buf.len() - TRAILER_SIZE as usize..buf.len()) {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x01;
            assert!(
                parse_record(&corrupt).is_none(),
                "corruption at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn truncated_record_is_rejected() {
        let buf = encode_txn(3, 3, &sample_ranges());
        for cut in [1, HEADER_SIZE as usize, buf.len() - 1] {
            assert!(parse_record(&buf[..cut]).is_none());
        }
    }

    #[test]
    fn header_parse_rejects_bad_magic_and_kind() {
        let mut buf = encode_txn(1, 1, &[]);
        let good = parse_header(&buf);
        assert!(good.is_some());
        buf[0] ^= 0xFF;
        assert!(parse_header(&buf).is_none());
        buf[0] ^= 0xFF;
        // An unknown kind byte invalidates the header CRC, so re-forge it.
        buf[4] = 99;
        let crc = crate::crc::crc32(&buf[..32]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        assert!(parse_header(&buf).is_none(), "unknown kind rejected");
    }

    #[test]
    fn trailer_parse_validates_alignment() {
        let buf = encode_txn(5, 5, &sample_ranges());
        let t = &buf[buf.len() - TRAILER_SIZE as usize..];
        let info = parse_trailer(t).unwrap();
        assert_eq!(info.seq, 5);
        assert_eq!(info.padded_len, buf.len() as u64);
        let mut bad = t.to_vec();
        bad[16] = 1; // unaligned padded_len
        assert!(parse_trailer(&bad).is_none());
    }

    #[test]
    fn zeroed_block_parses_as_nothing() {
        let zeros = vec![0u8; LOG_BLOCK as usize];
        assert!(parse_header(&zeros).is_none());
        assert!(parse_trailer(&zeros[..TRAILER_SIZE as usize]).is_none());
    }
}
