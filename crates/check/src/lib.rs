//! Judges of RVM that stand outside it: WAL invariant verification
//! ([`verify`]), the verifier's model of the recovery trees
//! ([`IntervalMap`]), and the `set_range` contract checker ([`Checked`]).
//!
//! `rvmlog doctor` answers "where does the live log end, and what
//! terminated it?" — it walks the forward scan and classifies the first
//! breakage. This crate asks a stronger question: *does the log image
//! satisfy every structural invariant the format promises?* Several
//! corruptions pass doctor untouched because the forward scan never looks
//! at them:
//!
//! * **Reverse-displacement canonicality.** A record's padded extent ends
//!   with the Figure-5 trailer; between the CRC-covered body and the
//!   trailer lies zero padding that *no* checksum covers. The forward
//!   scan never reads it for meaning — but the backward scan's
//!   displacement arithmetic lives in that trailing block, and the format
//!   writes it as zeros. Non-zero bytes there are silent corruption.
//! * **Bidirectional symmetry.** Scanning tail→head via reverse
//!   displacements must visit exactly the records the forward scan found
//!   (§5.1.2 reads the log tail to head; recovery depends on it).
//! * **Status-copy agreement.** The dual-copy status block (Figure 6)
//!   alternates writes; two decodable copies must carry adjacent
//!   sequence numbers and identical geometry, and neither may promise a
//!   tail or sequence number beyond what the record area holds.
//! * **Recovery algebra.** The newest-wins tree built from the records
//!   must be idempotent (applying it twice yields the same image) and
//!   equal to oldest-first sequential replay — the two formulations of
//!   §5.1.2's recovery that must agree for truncation to be safe — and
//!   the library's own one-pass resolve must keep exactly its pieces.
//!
//! [`verify`] runs all of it read-only and reports findings; the `rvmlog
//! verify` subcommand wraps it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rvm::log::record::{
    parse_header, RecordKind, HEADER_SIZE, LOG_BLOCK, TRAILER_SIZE, V2_LOG_BLOCK,
};
use rvm::log::status::{
    read_status, StatusBlock, LOG_AREA_START, STATUS_A_OFFSET, STATUS_BLOCK_SIZE, STATUS_B_OFFSET,
};
use rvm::log::wal::{scan_backward, scan_forward};
use rvm::ranges::{Piece, ValueArena};
use rvm::Result;
use rvm_storage::Device;

mod check;
mod interval_map;
pub use check::{CheckViolation, Checked, CheckedTxn};
pub use interval_map::IntervalMap;

/// What [`verify`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Record-area length.
    pub area_len: u64,
    /// Logical head of the live log.
    pub head: u64,
    /// Tail the forward scan reached.
    pub tail: u64,
    /// Live committed transaction records.
    pub live_records: usize,
    /// Pad records.
    pub pads: u64,
    /// Invariant checks that ran (for the report).
    pub checks_run: Vec<String>,
    /// Invariant violations; empty means the log verifies clean.
    pub findings: Vec<String>,
}

impl VerifyReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report, as `rvmlog verify` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "log: area {} bytes, head {}, tail {}, {} live record(s), {} pad(s)\n",
            self.area_len, self.head, self.tail, self.live_records, self.pads
        ));
        for check in &self.checks_run {
            out.push_str(&format!("checked: {check}\n"));
        }
        if self.findings.is_empty() {
            out.push_str("all invariants hold\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!("VIOLATION: {f}\n"));
            }
        }
        out
    }
}

/// Verifies every WAL structural invariant over `dev`, read-only.
///
/// Device read errors and an unreadable status block abort with `Err`;
/// everything else — however damaged — lands as findings in the report.
pub fn verify(dev: &Arc<dyn Device>) -> Result<VerifyReport> {
    let status = read_status(dev.as_ref())?;
    let mut findings = Vec::new();
    let mut checks_run = Vec::new();

    check_status_copies(dev.as_ref(), &mut findings)?;
    checks_run.push("status-copy agreement and geometry".to_owned());

    let scan = scan_forward(
        dev.as_ref(),
        status.area_len,
        status.head,
        status.seq_at_head,
        None,
    )?;

    // The status block is a hint that may lag the true tail (records are
    // forced before status updates) but must never lead it: a status
    // promising more log than the scan can read means committed data is
    // gone.
    if status.tail > scan.tail {
        findings.push(format!(
            "status block records tail {} but the forward scan ends at {}",
            status.tail, scan.tail
        ));
    }
    if status.next_seq > scan.next_seq {
        findings.push(format!(
            "status block promises sequence numbers up to {} but the log holds only up to {}",
            status.next_seq, scan.next_seq
        ));
    }
    checks_run.push("status hints never lead the scanned log".to_owned());

    check_record_extents(dev.as_ref(), &status, scan.tail, &mut findings)?;
    checks_run.push("reverse-displacement blocks are canonical (zero padding)".to_owned());

    match scan_backward(
        dev.as_ref(),
        status.area_len,
        status.head,
        scan.tail,
        scan.next_seq,
    ) {
        Ok(mut backward) => {
            backward.reverse();
            if backward != scan.records {
                findings.push(format!(
                    "bidirectional asymmetry: forward scan yields {} record(s), \
                     reverse scan yields {} and they differ",
                    scan.records.len(),
                    backward.len()
                ));
            }
        }
        Err(e) => {
            findings.push(format!(
                "bidirectional asymmetry: reverse scan fails over the forward-scanned area: {e}"
            ));
        }
    }
    checks_run.push("forward/backward scan symmetry (Figure 5 displacements)".to_owned());

    check_recovery_algebra(&scan.records, &mut findings);
    checks_run.push("tree-apply idempotence and replay equivalence".to_owned());

    Ok(VerifyReport {
        area_len: status.area_len,
        head: status.head,
        tail: scan.tail,
        live_records: scan.records.len(),
        pads: scan.pads,
        checks_run,
        findings,
    })
}

/// Dual-copy status agreement (Figure 6): decodable copies must carry
/// adjacent write sequence numbers and identical geometry, and each
/// copy's cursors must be self-consistent and block-aligned.
fn check_status_copies(dev: &dyn Device, findings: &mut Vec<String>) -> Result<()> {
    let mut copies: [Option<StatusBlock>; 2] = [None, None];
    for (i, off) in [STATUS_A_OFFSET, STATUS_B_OFFSET].iter().enumerate() {
        let mut buf = vec![0u8; STATUS_BLOCK_SIZE as usize];
        dev.read_at(*off, &mut buf)?;
        copies[i] = StatusBlock::decode(&buf);
    }
    for (i, copy) in copies.iter().enumerate() {
        let Some(s) = copy else {
            findings.push(format!("status copy {} does not decode", ['A', 'B'][i]));
            continue;
        };
        let name = ['A', 'B'][i];
        if s.area_len == 0 || s.area_len % LOG_BLOCK != 0 {
            findings.push(format!(
                "status copy {name}: record area of {} bytes is not a positive \
                 multiple of the {LOG_BLOCK}-byte log block",
                s.area_len
            ));
        }
        if s.head % LOG_BLOCK != 0 || s.tail % LOG_BLOCK != 0 {
            findings.push(format!(
                "status copy {name}: head {} / tail {} are not block-aligned",
                s.head, s.tail
            ));
        }
        if s.tail < s.head || s.tail - s.head > s.area_len {
            findings.push(format!(
                "status copy {name}: cursors head {} / tail {} do not describe \
                 a live extent within an area of {} bytes",
                s.head, s.tail, s.area_len
            ));
        }
        if s.next_seq < s.seq_at_head {
            findings.push(format!(
                "status copy {name}: next_seq {} precedes seq_at_head {}",
                s.next_seq, s.seq_at_head
            ));
        }
        // The write sequence parity selects the copy (even → A, odd → B);
        // a copy carrying the wrong parity was written to the wrong slot.
        if s.seq % 2 != i as u64 {
            findings.push(format!(
                "status copy {name}: write sequence {} has the wrong parity for this slot",
                s.seq
            ));
        }
    }
    if let [Some(a), Some(b)] = &copies {
        if a.area_len != b.area_len {
            findings.push(format!(
                "status copies disagree on the record-area length: A says {}, B says {}",
                a.area_len, b.area_len
            ));
        }
        if a.seq.abs_diff(b.seq) != 1 {
            findings.push(format!(
                "status copies carry non-adjacent write sequences {} and {}: \
                 alternation (Figure 6) was violated",
                a.seq, b.seq
            ));
        }
    }
    Ok(())
}

/// Walks every live record extent and verifies the bytes between the
/// CRC-covered body and the trailer are zero, as the encoder writes them.
///
/// This padding is the one part of a record no checksum covers — the
/// forward scan never reads it for meaning, so `doctor` cannot see
/// corruption here — yet the trailing block it sits in is exactly where
/// the backward scan's displacement arithmetic lives.
fn check_record_extents(
    dev: &dyn Device,
    status: &StatusBlock,
    tail: u64,
    findings: &mut Vec<String>,
) -> Result<()> {
    let mut pos = status.head;
    while pos < tail {
        let mut header_buf = [0u8; HEADER_SIZE as usize];
        dev.read_at(LOG_AREA_START + pos % status.area_len, &mut header_buf)?;
        let Some(header) = parse_header(&header_buf) else {
            // The forward scan already bounded `tail`; anything unreadable
            // past it is not ours to judge here.
            break;
        };
        // A version-2 log padded its records further: the trailer says.
        let dense = header.padded_len();
        let lap_end = status.area_len - pos % status.area_len;
        let mut buf = vec![0u8; dense.next_multiple_of(V2_LOG_BLOCK).min(lap_end) as usize];
        dev.read_at(LOG_AREA_START + pos % status.area_len, &mut buf)?;
        let padded = if header.ends_at(&buf, dense) {
            dense
        } else {
            buf.len() as u64
        };
        if header.kind == RecordKind::Txn {
            buf.truncate(padded as usize);
            let body_len = (HEADER_SIZE + header.payload_len as u64) as usize;
            let trailer_at = (padded - TRAILER_SIZE) as usize;
            if let Some(nonzero) = buf[body_len..trailer_at].iter().position(|&b| b != 0) {
                findings.push(format!(
                    "record at offset {} (seq {}): non-zero byte in the unchecksummed \
                     padding at extent offset {} — the reverse-displacement block is \
                     not canonical",
                    pos,
                    header.seq,
                    body_len + nonzero
                ));
            }
        }
        pos += padded;
    }
    Ok(())
}

/// Rebuilds §5.1.2's recovery trees from the live records and verifies
/// the algebra truncation relies on: tree application is idempotent, and
/// newest-wins tree-apply equals oldest-first sequential replay. The
/// library's own one-pass resolve ([`ValueArena::latest_pieces`]) must
/// yield exactly the trees' entries.
fn check_recovery_algebra(
    records: &[(u64, rvm::log::record::TxnRecord)],
    findings: &mut Vec<String>,
) {
    let mut trees: BTreeMap<u32, IntervalMap> = BTreeMap::new();
    let mut extents: HashMap<u32, u64> = HashMap::new();
    for (_, record) in records.iter().rev() {
        for range in &record.ranges {
            trees
                .entry(range.seg.as_u32())
                .or_default()
                .insert_if_uncovered(range.offset, &range.data);
            let end = range.offset + range.data.len() as u64;
            let e = extents.entry(range.seg.as_u32()).or_default();
            *e = (*e).max(end);
        }
    }
    check_resolve(records, &trees, findings);
    for (seg, tree) in &trees {
        let len = extents[seg] as usize;
        let mut once = vec![0u8; len];
        tree.overlay_onto(0, &mut once);
        let mut twice = once.clone();
        tree.overlay_onto(0, &mut twice);
        if once != twice {
            findings.push(format!(
                "segment {seg}: applying the recovery tree twice changes the image — \
                 recovery would not be idempotent"
            ));
        }
        let mut sequential = vec![0u8; len];
        for (_, record) in records {
            for range in &record.ranges {
                if range.seg.as_u32() == *seg {
                    let at = range.offset as usize;
                    sequential[at..at + range.data.len()].copy_from_slice(&range.data);
                }
            }
        }
        if once != sequential {
            findings.push(format!(
                "segment {seg}: newest-wins tree apply and oldest-first replay \
                 disagree — the recovery tree drops or misorders data"
            ));
        }
    }
}

/// Resolves `records` as replay does and reports the first piece that
/// differs from `trees`' entries.
fn check_resolve(
    records: &[(u64, rvm::log::record::TxnRecord)],
    trees: &BTreeMap<u32, IntervalMap>,
    findings: &mut Vec<String>,
) {
    let mut values = ValueArena::default();
    for (_, record) in records {
        values.keep_record(record.ranges.iter().map(|r| Piece {
            seg: r.seg.as_u32(),
            start: r.offset,
            data: &r.data,
        }));
    }
    let pieces = values.latest_pieces();
    let got: Vec<(u32, u64, &[u8])> = pieces.iter().map(|p| (p.seg, p.start, p.data)).collect();
    let entries = trees
        .iter()
        .flat_map(|(&seg, tree)| tree.iter().map(move |(s, d)| (seg, s, d)));
    let expected: Vec<(u32, u64, &[u8])> = entries.collect();
    let Some(at) = (0..got.len().max(expected.len())).find(|&i| got.get(i) != expected.get(i))
    else {
        return;
    };
    let extent = |piece: Option<&(u32, u64, &[u8])>| {
        piece.map(|&(seg, start, data)| (seg, start, data.len()))
    };
    findings.push(format!(
        "the library's resolve differs from the recovery trees at piece {at} of {}: \
         (segment, start, length) {:?} where the trees hold {:?}",
        expected.len(),
        extent(got.get(at)),
        extent(expected.get(at)),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm::segment::MemResolver;
    use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
    use rvm_storage::MemDevice;

    fn world(txns: u8) -> Arc<MemDevice> {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let rvm = Rvm::initialize(
            Options::new(log.clone())
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..txns {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 64 * i as u64, &[i + 1; 16]).unwrap();
            region.write(&mut txn, 2048, &[i; 8]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        }
        std::mem::forget(rvm);
        log
    }

    fn as_dyn(log: &Arc<MemDevice>) -> Arc<dyn Device> {
        log.clone()
    }

    #[test]
    fn clean_log_verifies_clean() {
        let log = world(5);
        let report = verify(&as_dyn(&log)).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.live_records, 5);
        assert!(report.checks_run.len() >= 5);
        assert!(report.render().contains("all invariants hold"));
    }

    /// Ranges of later transactions overlap earlier ones at other starts:
    /// the library's resolve keeps exactly the recovery trees' pieces, so
    /// the log verifies clean — a resolver that cut a piece wrongly would
    /// be reported.
    #[test]
    fn overlapping_ranges_resolve_as_the_trees_do() {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let rvm = Rvm::initialize(
            Options::new(log.clone())
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..12u8 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region
                .write(&mut txn, 40 * u64::from(i % 5), &[i + 1; 100])
                .unwrap();
            region
                .write(&mut txn, 300 + 7 * u64::from(i), &[i; 30])
                .unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        }
        std::mem::forget(rvm);
        let report = verify(&as_dyn(&log)).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.live_records, 12);
    }

    #[test]
    fn empty_log_verifies_clean() {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        Rvm::create_log(log.as_ref()).unwrap();
        let report = verify(&as_dyn(&log)).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.live_records, 0);
    }

    #[test]
    fn corrupt_reverse_displacement_padding_is_flagged() {
        let log = world(3);
        let status = read_status(log.as_ref()).unwrap();
        let scan = scan_forward(log.as_ref(), status.area_len, status.head, 1, None).unwrap();
        // Second record: poke a byte into the zero padding between the
        // CRC-covered body and the trailer. Both CRCs still verify.
        let (pos, _) = scan.records[1];
        let mut header_buf = [0u8; HEADER_SIZE as usize];
        log.read_at(LOG_AREA_START + pos, &mut header_buf).unwrap();
        let header = parse_header(&header_buf).unwrap();
        let body_end = pos + HEADER_SIZE + header.payload_len as u64;
        let trailer_at = pos + header.padded_len() - TRAILER_SIZE;
        assert!(trailer_at > body_end, "record must have padding to corrupt");
        log.write_at(LOG_AREA_START + body_end, &[0xDE]).unwrap();

        let report = verify(&as_dyn(&log)).unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.contains("reverse-displacement block")),
            "{:?}",
            report.findings
        );
        assert!(report.render().contains("VIOLATION"));
    }

    #[test]
    fn status_copy_disagreement_is_flagged() {
        let log = world(2);
        // Re-encode copy A with a far-ahead write sequence of the wrong
        // parity: both copies still decode, but alternation is broken.
        let mut buf = vec![0u8; STATUS_BLOCK_SIZE as usize];
        log.read_at(STATUS_A_OFFSET, &mut buf).unwrap();
        let mut a = StatusBlock::decode(&buf).unwrap();
        a.seq += 5;
        log.write_at(STATUS_A_OFFSET, &a.encode()).unwrap();

        let report = verify(&as_dyn(&log)).unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.contains("non-adjacent write sequences")),
            "{:?}",
            report.findings
        );
        assert!(
            report.findings.iter().any(|f| f.contains("wrong parity")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn status_tail_leading_the_log_is_flagged() {
        let log = world(2);
        // The on-disk status lags the true tail (records are forced before
        // status updates), which is legal. Forge one that *leads* the
        // scanned tail instead, in the slot `read_status` will pick.
        let status = read_status(log.as_ref()).unwrap();
        let scan = scan_forward(
            log.as_ref(),
            status.area_len,
            status.head,
            status.seq_at_head,
            None,
        )
        .unwrap();
        let off = if status.seq.is_multiple_of(2) {
            STATUS_A_OFFSET
        } else {
            STATUS_B_OFFSET
        };
        let mut forged = status.clone();
        forged.tail = scan.tail + LOG_BLOCK;
        forged.next_seq = scan.next_seq + 1;
        log.write_at(off, &forged.encode()).unwrap();

        let report = verify(&as_dyn(&log)).unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.contains("forward scan ends at")),
            "{:?}",
            report.findings
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.contains("promises sequence numbers")),
            "{:?}",
            report.findings
        );
    }
}
