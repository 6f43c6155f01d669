//! The log status block (§5.1.2).
//!
//! The status block records the durable head and tail of the circular
//! record area, the sequence number expected at the head, and the segment
//! table mapping segment ids to names. Two copies are kept at fixed
//! offsets and written alternately with a monotone sequence number and a
//! CRC; a torn status write therefore leaves the other copy intact, and
//! whichever valid copy has the higher sequence wins. Updating the status
//! block *last* is what makes recovery idempotent: until the update lands,
//! a re-run of recovery sees the same log.

use rvm_storage::Device;

use crate::crc::crc32;
use crate::error::{Result, RvmError};
use crate::log::record::{le_u32, le_u64};
use crate::segment::{SegmentId, SegmentInfo};

/// Size reserved for one status-block copy.
pub const STATUS_BLOCK_SIZE: u64 = 8192;
/// Offset of copy A.
pub const STATUS_A_OFFSET: u64 = 0;
/// Offset of copy B.
pub const STATUS_B_OFFSET: u64 = STATUS_BLOCK_SIZE;
/// Offset where the circular record area begins.
pub const LOG_AREA_START: u64 = 2 * STATUS_BLOCK_SIZE;

const STATUS_MAGIC: u64 = 0x5256_4D53_5441_5431; // "RVMSTAT1"
const FORMAT_VERSION: u64 = 3;
/// What `decode` reads: the record scan still reads version 2's records.
const READABLE_VERSIONS: [u64; 2] = [2, FORMAT_VERSION];

/// Byte offset of the segment table within a status copy. Bytes 68..84
/// hold the in-flight epoch boundary (`epoch_end`, `epoch_next_seq`).
const SEGMENT_TABLE_AT: usize = 84;

/// Durable bookkeeping persisted in the status area.
///
/// `head`/`tail` are *logical* offsets: monotone counters whose value
/// modulo the record-area length gives the physical position. `tail` is a
/// hint — recovery always re-derives the true tail by scanning forward
/// from `head` — but is kept accurate at truncation for inspection tools.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusBlock {
    /// Write sequence of the status block itself (picks the newer copy).
    pub seq: u64,
    /// Logical offset of the oldest live record.
    pub head: u64,
    /// Logical offset one past the newest record known at last write.
    pub tail: u64,
    /// Record sequence number expected at `head`.
    pub seq_at_head: u64,
    /// Next record sequence number to assign (hint).
    pub next_seq: u64,
    /// Length of the circular record area.
    pub area_len: u64,
    /// Exclusive logical end of an epoch truncation that was in flight
    /// when this status was written (0 = none). The span
    /// `[head, epoch_end)` was being applied to data segments off-lock;
    /// recovery treats it like any other live log prefix — scanning from
    /// `head` re-applies it idempotently — so the field is a crash
    /// *diagnostic*, not a correctness input.
    pub epoch_end: u64,
    /// `next_seq` the log had at `epoch_end` when the epoch was
    /// snapshotted (0 = none).
    pub epoch_next_seq: u64,
    /// The segment table.
    pub segments: Vec<SegmentInfo>,
}

impl StatusBlock {
    /// A fresh, empty log with the given record-area length.
    pub fn fresh(area_len: u64) -> Self {
        Self {
            seq: 0,
            head: 0,
            tail: 0,
            seq_at_head: 1,
            next_seq: 1,
            area_len,
            epoch_end: 0,
            epoch_next_seq: 0,
            segments: Vec::new(),
        }
    }

    /// Looks up a segment by name.
    pub fn segment_by_name(&self, name: &str) -> Option<&SegmentInfo> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Serializes into one status-block image.
    ///
    /// # Panics
    ///
    /// Panics if the segment table does not fit; callers bound the table
    /// via [`StatusBlock::segments_fit`].
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; STATUS_BLOCK_SIZE as usize];
        buf[0..8].copy_from_slice(&STATUS_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf[16..24].copy_from_slice(&self.seq.to_le_bytes());
        buf[24..32].copy_from_slice(&self.head.to_le_bytes());
        buf[32..40].copy_from_slice(&self.tail.to_le_bytes());
        buf[40..48].copy_from_slice(&self.seq_at_head.to_le_bytes());
        buf[48..56].copy_from_slice(&self.next_seq.to_le_bytes());
        buf[56..64].copy_from_slice(&self.area_len.to_le_bytes());
        buf[64..68].copy_from_slice(&(self.segments.len() as u32).to_le_bytes());
        buf[68..76].copy_from_slice(&self.epoch_end.to_le_bytes());
        buf[76..84].copy_from_slice(&self.epoch_next_seq.to_le_bytes());
        let mut at = SEGMENT_TABLE_AT;
        for seg in &self.segments {
            let name = seg.name.as_bytes();
            assert!(
                at + 16 + name.len() <= STATUS_BLOCK_SIZE as usize - 4,
                "segment table overflows the status block"
            );
            buf[at..at + 4].copy_from_slice(&seg.id.as_u32().to_le_bytes());
            buf[at + 4..at + 8].copy_from_slice(&(name.len() as u32).to_le_bytes());
            buf[at + 8..at + 16].copy_from_slice(&seg.min_len.to_le_bytes());
            buf[at + 16..at + 16 + name.len()].copy_from_slice(name);
            at += 16 + name.len();
        }
        let crc_at = STATUS_BLOCK_SIZE as usize - 4;
        let crc = crc32(&buf[..crc_at]);
        buf[crc_at..].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and validates one status-block image: `None` unless it is
    /// exactly one block whose CRC, magic and version hold and whose
    /// segment table — every entry's name in bounds and UTF-8 — ends
    /// before the CRC.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let body = sealed(buf)?;
        let get64 = |at: usize| le_u64(body, at);
        if !READABLE_VERSIONS.contains(&get64(8)?) {
            return None;
        }
        let n_segments = le_u32(body, 64)?;
        let mut table = body.get(SEGMENT_TABLE_AT..)?;
        let mut segments = Vec::new();
        for _ in 0..n_segments {
            let (entry, rest) = table.split_first_chunk::<16>()?;
            let name_len = usize::try_from(le_u32(entry, 4)?).ok()?;
            let (name, rest) = rest.split_at_checked(name_len)?;
            segments.push(SegmentInfo {
                id: SegmentId::new(le_u32(entry, 0)?),
                name: std::str::from_utf8(name).ok()?.to_owned(),
                min_len: le_u64(entry, 8)?,
            });
            table = rest;
        }
        Some(Self {
            seq: get64(16)?,
            head: get64(24)?,
            tail: get64(32)?,
            seq_at_head: get64(40)?,
            next_seq: get64(48)?,
            area_len: get64(56)?,
            epoch_end: get64(68)?,
            epoch_next_seq: get64(76)?,
            segments,
        })
    }

    /// Returns `true` if a segment entry with a name of `extra_name_len`
    /// bytes still fits beside `segments` in the status block.
    pub fn segments_fit(segments: &[SegmentInfo], extra_name_len: usize) -> bool {
        let used: usize =
            SEGMENT_TABLE_AT + segments.iter().map(|s| 16 + s.name.len()).sum::<usize>();
        used + 16 + extra_name_len <= STATUS_BLOCK_SIZE as usize - 4
    }
}

/// The bytes under a status image's CRC, if it and the magic hold,
/// whatever version it claims.
fn sealed(buf: &[u8]) -> Option<&[u8]> {
    let (body, crc) = buf.split_last_chunk::<4>()?;
    let sound = buf.len() == STATUS_BLOCK_SIZE as usize && crc32(body) == u32::from_le_bytes(*crc);
    (sound && le_u64(body, 0)? == STATUS_MAGIC).then_some(body)
}

/// Reads the valid status copy with the highest sequence number. A copy
/// of a version this build cannot read fails the read, whatever the other
/// copy holds: the log is another format's, not blank.
pub fn read_status(dev: &dyn Device) -> Result<StatusBlock> {
    open_status(dev, false)
}

/// [`read_status`], or — with `create`, when neither copy holds a status
/// of any version — [`format_log`].
pub(crate) fn open_status(dev: &dyn Device, create: bool) -> Result<StatusBlock> {
    let mut best: Option<StatusBlock> = None;
    for offset in [STATUS_A_OFFSET, STATUS_B_OFFSET] {
        let mut buf = vec![0u8; STATUS_BLOCK_SIZE as usize];
        if dev.read_at(offset, &mut buf).is_err() {
            continue;
        }
        let version = sealed(&buf).and_then(|body| le_u64(body, 8));
        if let Some(v) = version.filter(|v| !READABLE_VERSIONS.contains(v)) {
            return Err(RvmError::BadLog(format!(
                "log format version {v}; this build reads versions {READABLE_VERSIONS:?}"
            )));
        }
        if let Some(sb) = StatusBlock::decode(&buf) {
            if best.as_ref().is_none_or(|b| sb.seq > b.seq) {
                best = Some(sb);
            }
        }
    }
    match best {
        Some(status) => Ok(status),
        None if create => format_log(dev),
        None => Err(RvmError::BadLog("no valid status block copy".to_owned())),
    }
}

/// Writes the status block to the copy slot selected by its (incremented)
/// sequence number and syncs the device.
pub fn write_status(dev: &dyn Device, status: &mut StatusBlock) -> Result<()> {
    status.seq += 1;
    let offset = if status.seq.is_multiple_of(2) {
        STATUS_A_OFFSET
    } else {
        STATUS_B_OFFSET
    };
    dev.write_at(offset, &status.encode())?;
    dev.sync()?;
    Ok(())
}

/// Formats `dev` as an empty RVM log (the paper's `create_log`).
///
/// The record area is the device length minus the two status copies,
/// rounded down to a whole number of log blocks.
pub fn format_log(dev: &dyn Device) -> Result<StatusBlock> {
    let len = dev.len()?;
    let min = LOG_AREA_START + crate::log::record::MIN_RECORD_SIZE;
    if len < min {
        return Err(RvmError::BadLog(format!(
            "log device of {len} bytes is smaller than the minimum {min}"
        )));
    }
    let area_len =
        (len - LOG_AREA_START) / crate::log::record::LOG_BLOCK * crate::log::record::LOG_BLOCK;
    let mut status = StatusBlock::fresh(area_len);
    // Write both copies so a fresh log is valid regardless of which copy a
    // later torn write destroys. The sync between the two writes is
    // load-bearing: without it, both copies sit in the same unsynced
    // window and a single crash can tear or drop them together, leaving
    // no valid copy — the dual-copy scheme assumes at most one copy is
    // ever in flight.
    dev.write_at(STATUS_A_OFFSET, &status.encode())?;
    dev.sync()?;
    status.seq = 1;
    dev.write_at(STATUS_B_OFFSET, &status.encode())?;
    dev.sync()?;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::MemDevice;

    fn sample() -> StatusBlock {
        StatusBlock {
            seq: 5,
            head: 1024,
            tail: 4096,
            seq_at_head: 17,
            next_seq: 29,
            area_len: 1 << 20,
            epoch_end: 2048,
            epoch_next_seq: 23,
            segments: vec![
                SegmentInfo {
                    id: SegmentId::new(0),
                    name: "/data/seg0".to_owned(),
                    min_len: 8192,
                },
                SegmentInfo {
                    id: SegmentId::new(1),
                    name: "accounts".to_owned(),
                    min_len: 1 << 16,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let sb = sample();
        let decoded = StatusBlock::decode(&sb.encode()).expect("decodes");
        assert_eq!(decoded, sb);
    }

    #[test]
    fn corruption_is_rejected() {
        let buf = sample().encode();
        for i in [0usize, 20, 70, STATUS_BLOCK_SIZE as usize - 1] {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            assert!(StatusBlock::decode(&bad).is_none(), "flip at {i}");
        }
    }

    #[test]
    fn lookups() {
        let sb = sample();
        assert_eq!(
            sb.segment_by_name("accounts").unwrap().id,
            SegmentId::new(1)
        );
        assert!(sb.segment_by_name("missing").is_none());
    }

    #[test]
    fn dual_copy_read_prefers_higher_seq() {
        let dev = MemDevice::with_len(LOG_AREA_START + 4096);
        format_log(&dev).unwrap();
        let mut sb = read_status(&dev).unwrap();
        assert_eq!(sb.seq, 1);
        sb.head = 512;
        write_status(&dev, &mut sb).unwrap();
        let got = read_status(&dev).unwrap();
        assert_eq!(got.seq, 2);
        assert_eq!(got.head, 512);
    }

    #[test]
    fn torn_status_write_falls_back_to_other_copy() {
        let dev = MemDevice::with_len(LOG_AREA_START + 4096);
        format_log(&dev).unwrap();
        let mut sb = read_status(&dev).unwrap();
        sb.head = 512;
        write_status(&dev, &mut sb).unwrap(); // seq 2 -> copy A
                                              // Corrupt copy A, as a torn write would.
        dev.write_at(STATUS_A_OFFSET + 100, &[0xFF; 8]).unwrap();
        let got = read_status(&dev).unwrap();
        assert_eq!(got.seq, 1, "falls back to copy B");
        assert_eq!(got.head, 0);
    }

    fn raw_copy(dev: &MemDevice, offset: u64) -> Option<StatusBlock> {
        let mut buf = vec![0u8; STATUS_BLOCK_SIZE as usize];
        dev.read_at(offset, &mut buf).unwrap();
        StatusBlock::decode(&buf)
    }

    #[test]
    fn write_status_alternates_copies() {
        let dev = MemDevice::with_len(LOG_AREA_START + 4096);
        format_log(&dev).unwrap();
        let mut sb = read_status(&dev).unwrap();
        for i in 0..6u64 {
            sb.head = 1000 + i;
            write_status(&dev, &mut sb).unwrap();
            let a = raw_copy(&dev, STATUS_A_OFFSET).unwrap();
            let b = raw_copy(&dev, STATUS_B_OFFSET).unwrap();
            // Even seqs land in copy A, odd in copy B; the other copy
            // still holds the immediately preceding write.
            let (newer, older) = if sb.seq.is_multiple_of(2) {
                (a, b)
            } else {
                (b, a)
            };
            assert_eq!(newer.seq, sb.seq);
            assert_eq!(newer.head, 1000 + i);
            assert_eq!(older.seq, sb.seq - 1);
        }
    }

    #[test]
    fn torn_write_never_loses_both_copies() {
        // Whichever copy a torn status write destroys, the previous
        // status survives, because alternation targets the copy the last
        // write did *not*.
        for torn_copy in 0..2u64 {
            let dev = MemDevice::with_len(LOG_AREA_START + 4096);
            format_log(&dev).unwrap();
            let mut sb = read_status(&dev).unwrap();
            // Advance until the next write lands on the copy we tear.
            while (sb.seq + 1) % 2 != torn_copy {
                write_status(&dev, &mut sb).unwrap();
            }
            let prev = read_status(&dev).unwrap();
            sb.head = 12_345;
            write_status(&dev, &mut sb).unwrap();
            let target = if torn_copy == 0 {
                STATUS_A_OFFSET
            } else {
                STATUS_B_OFFSET
            };
            dev.write_at(target + 64, &[0xAB; 16]).unwrap();
            let got = read_status(&dev).unwrap();
            assert_eq!(got.seq, prev.seq, "previous status survives");
            assert_eq!(got.head, prev.head);
        }
    }

    #[test]
    fn both_copies_corrupt_is_an_error() {
        let dev = MemDevice::with_len(LOG_AREA_START + 4096);
        format_log(&dev).unwrap();
        dev.write_at(STATUS_A_OFFSET + 100, &[0xFF; 8]).unwrap();
        dev.write_at(STATUS_B_OFFSET + 100, &[0xFF; 8]).unwrap();
        assert!(matches!(read_status(&dev), Err(RvmError::BadLog(_))));
    }

    #[test]
    fn format_rejects_tiny_devices() {
        let dev = MemDevice::with_len(100);
        assert!(matches!(format_log(&dev), Err(RvmError::BadLog(_))));
    }

    #[test]
    fn format_aligns_area_len() {
        use crate::log::record::LOG_BLOCK;
        let dev = MemDevice::with_len(LOG_AREA_START + 8 * LOG_BLOCK - 24);
        let sb = format_log(&dev).unwrap();
        assert_eq!(sb.area_len, 7 * LOG_BLOCK);
    }

    #[test]
    fn format_crash_between_copies_leaves_a_valid_copy() {
        use rvm_images::{crash_images, EnumConfig};
        use rvm_storage::{CrashPlan, Device, FaultDevice};
        use std::sync::Arc;

        // Crash while format_log is writing copy B. Copy A was synced
        // first, so it must survive and read_status must succeed in every
        // image the crash allows: copy B lost, kept, or torn on a sector
        // boundary. Before the fix (one sync covering both copies) the
        // torn window spanned both writes and a crash here could leave no
        // valid copy.
        let inner: Arc<MemDevice> = Arc::new(MemDevice::with_len(LOG_AREA_START + 4096));
        let dev = FaultDevice::new(
            inner.clone(),
            CrashPlan::lose_unsynced_at(STATUS_BLOCK_SIZE + 1500),
        );
        assert!(format_log(&dev).is_err(), "the planned crash fires");
        let got = read_status(inner.as_ref()).unwrap();
        assert_eq!(got.seq, 0, "copy A (seq 0) survives copy B lost");

        let mut torn = 0;
        let devices = [inner as Arc<dyn Device>];
        crash_images(
            &dev.clock(),
            &devices,
            &EnumConfig::default(),
            |kept, images| {
                torn += usize::from(kept.contains(&true) && kept.contains(&false));
                let got = read_status(&MemDevice::from_image(images[0].1.clone())).unwrap();
                assert_eq!(got.seq, 0, "copy A (seq 0) survives copy B kept {kept:?}");
                true
            },
        )
        .unwrap();
        assert!(torn > 0, "copy B tears on a sector boundary");
    }

    #[test]
    fn status_write_sync_separates_copies() {
        use rvm_storage::{TraceOpKind, TraceRecorder};
        use std::sync::Arc;

        // Audit the write path mechanically: in the recorded op stream,
        // every pair of status-copy writes must have a sync between them —
        // no single unsynced window may contain both copies.
        let rec = TraceRecorder::new();
        let dev = rec.wrap("log", Arc::new(MemDevice::with_len(LOG_AREA_START + 4096)));
        let mut sb = format_log(dev.as_ref()).unwrap();
        for i in 0..4 {
            sb.head = 100 + i;
            write_status(dev.as_ref(), &mut sb).unwrap();
        }

        let mut copies_in_window = 0;
        for op in rec.ops() {
            match op.kind {
                TraceOpKind::Write { offset, .. }
                    if offset == STATUS_A_OFFSET || offset == STATUS_B_OFFSET =>
                {
                    copies_in_window += 1;
                    assert!(
                        copies_in_window <= 1,
                        "two status copies written without an intervening sync"
                    );
                }
                TraceOpKind::Sync => copies_in_window = 0,
                _ => {}
            }
        }
    }

    #[test]
    fn table_room_check() {
        let mut segments = Vec::new();
        assert!(StatusBlock::segments_fit(&segments, 100));
        // Fill the table almost to capacity.
        let big_name = "x".repeat(4000);
        segments.push(SegmentInfo {
            id: SegmentId::new(0),
            name: big_name.clone(),
            min_len: 0,
        });
        assert!(StatusBlock::segments_fit(&segments, 100));
        segments.push(SegmentInfo {
            id: SegmentId::new(1),
            name: big_name,
            min_len: 0,
        });
        assert!(!StatusBlock::segments_fit(&segments, 1000));
    }
}
