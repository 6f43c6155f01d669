//! Post-mortem RVM log inspection (§6).
//!
//! "We realized that the information in RVM's log offered excellent clues
//! to the source of these corruptions. All we had to do was to save a
//! copy of the log before truncation, and to build a post-mortem tool to
//! search and display the history of modifications recorded by the log."
//!
//! This crate is that tool: it opens a log device read-only, walks the
//! live records (forward or backward — the Figure 5 bidirectional
//! displacements at work), and can filter the modification history by
//! segment and byte range. The `rvmlog` binary wraps it for files.

use std::sync::Arc;

use rvm::log::record::{parse_header, TxnRecord, HEADER_SIZE};
use rvm::log::status::{
    read_status, StatusBlock, LOG_AREA_START, STATUS_A_OFFSET, STATUS_BLOCK_SIZE, STATUS_B_OFFSET,
};
use rvm::log::wal::{scan_backward, scan_forward};
use rvm::scrub::{checksums_of, page_count, sidecar_name, SegmentChecksums};
pub use rvm::segment::DeviceResolver as Resolver;
use rvm::segment::{DeviceResolver, SegmentId};
use rvm::{Result, RvmError, PAGE_SIZE};
use rvm_check::IntervalMap;
pub use rvm_check::VerifyReport;
use rvm_storage::Device;

/// One modification of one range, as recorded in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Record sequence number.
    pub seq: u64,
    /// Transaction id.
    pub tid: u64,
    /// Logical log offset of the record.
    pub log_offset: u64,
    /// Segment written.
    pub seg: SegmentId,
    /// Segment name, if the segment table knows it.
    pub seg_name: Option<String>,
    /// Byte offset within the segment.
    pub offset: u64,
    /// The new value written.
    pub data: Vec<u8>,
}

/// What [`LogInspector::doctor`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoctorReport {
    /// Record-area length.
    pub area_len: u64,
    /// Logical head per the status block.
    pub head: u64,
    /// Tail the status block records (a hint; may trail the true tail).
    pub status_tail: u64,
    /// Tail the forward scan actually reached.
    pub scanned_tail: u64,
    /// Sequence number the next record should carry.
    pub next_seq: u64,
    /// Valid committed records found.
    pub live_records: usize,
    /// Pad records found.
    pub pads: u64,
    /// Validity of status copies A and B.
    pub status_copies_valid: [bool; 2],
    /// Damage findings; empty means the log is healthy.
    pub findings: Vec<String>,
}

impl DoctorReport {
    /// Whether any damage was found.
    pub fn is_damaged(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Human-readable report, as `rvmlog doctor` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "log: area {} bytes, head {}, scanned tail {} (status tail {}), {} live record(s), {} pad(s)\n",
            self.area_len,
            self.head,
            self.scanned_tail,
            self.status_tail,
            self.live_records,
            self.pads
        ));
        let word = |ok: bool| if ok { "valid" } else { "CORRUPT" };
        out.push_str(&format!(
            "status copies: A {}, B {}\n",
            word(self.status_copies_valid[0]),
            word(self.status_copies_valid[1])
        ));
        if self.findings.is_empty() {
            out.push_str("no damage found\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!("DAMAGE: {f}\n"));
            }
        }
        out
    }
}

/// What `rvmlog scrub` found for one segment of the log's segment table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScrub {
    /// Segment name, as the segment table records it.
    pub segment: String,
    /// Total pages the segment holds, or `None` when the segment device
    /// could not be opened.
    pub pages: Option<usize>,
    /// Pages the checksum catalog covers (0 when there is no catalog).
    pub covered: usize,
    /// Whether a valid sidecar catalog was found.
    pub catalog: bool,
    /// Pages whose current bytes fail their catalog checksum.
    pub mismatched: Vec<usize>,
}

/// The result of an offline checksum verification pass
/// ([`LogInspector::scrub_segments`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineScrubReport {
    /// Per-segment findings, in segment-table order.
    pub segments: Vec<SegmentScrub>,
}

impl OfflineScrubReport {
    /// Whether every covered page verified. Missing catalogs or
    /// unreachable segments are reported but are not corruption.
    pub fn is_clean(&self) -> bool {
        self.segments.iter().all(|s| s.mismatched.is_empty())
    }

    /// Human-readable report, as `rvmlog scrub` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut verified = 0usize;
        let mut mismatches = 0usize;
        for seg in &self.segments {
            match seg.pages {
                None => {
                    out.push_str(&format!("'{}': cannot open segment\n", seg.segment));
                    continue;
                }
                Some(pages) if !seg.catalog => {
                    out.push_str(&format!(
                        "'{}': {} page(s), no checksum catalog (nothing to verify against)\n",
                        seg.segment, pages
                    ));
                    continue;
                }
                Some(pages) => {
                    verified += seg.covered.min(pages) - seg.mismatched.len();
                    mismatches += seg.mismatched.len();
                    if seg.mismatched.is_empty() {
                        out.push_str(&format!(
                            "'{}': {} page(s), {} covered, all match\n",
                            seg.segment, pages, seg.covered
                        ));
                    } else {
                        let pages_list: Vec<String> =
                            seg.mismatched.iter().map(|p| p.to_string()).collect();
                        out.push_str(&format!(
                            "'{}': {} page(s), {} covered, {} MISMATCH (page {})\n",
                            seg.segment,
                            pages,
                            seg.covered,
                            seg.mismatched.len(),
                            pages_list.join(", ")
                        ));
                    }
                }
            }
        }
        out.push_str(&format!(
            "scrub: {verified} page(s) verified, {mismatches} mismatch(es)\n"
        ));
        out
    }
}

/// How `rvmlog salvage` disposed of one corrupt page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SalvageOutcome {
    /// The page's latest committed content was fully present in the live
    /// log span; the page was rewritten from it and the catalog updated.
    RebuiltFromLog,
    /// The live log does not cover the whole page, so no committed image
    /// of it exists offline; mapping the region will quarantine it.
    Unrecoverable,
}

/// The result of an offline repair pass ([`LogInspector::salvage_segments`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Every corrupt page found, with its disposition.
    pub findings: Vec<(String, usize, SalvageOutcome)>,
}

impl SalvageReport {
    /// Whether every corrupt page was repaired (vacuously true when none
    /// was corrupt).
    pub fn is_clean(&self) -> bool {
        self.findings
            .iter()
            .all(|(_, _, o)| *o != SalvageOutcome::Unrecoverable)
    }

    /// Human-readable report, as `rvmlog salvage` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut repaired = 0usize;
        let mut lost = 0usize;
        for (segment, page, outcome) in &self.findings {
            match outcome {
                SalvageOutcome::RebuiltFromLog => {
                    repaired += 1;
                    out.push_str(&format!(
                        "repaired: '{segment}' page {page} rebuilt from the live log span\n"
                    ));
                }
                SalvageOutcome::Unrecoverable => {
                    lost += 1;
                    out.push_str(&format!(
                        "UNRECOVERABLE: '{segment}' page {page} — the live log covers only \
                         part of the page; the region will be quarantined when mapped\n"
                    ));
                }
            }
        }
        out.push_str(&format!(
            "salvage: {repaired} page(s) repaired, {lost} unrecoverable\n"
        ));
        out
    }
}

/// Checksum-catalog coverage of one segment, as `rvmlog doctor`
/// summarizes it (coverage only — no page is read or verified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogCoverage {
    /// Segment name, as the segment table records it.
    pub segment: String,
    /// Total pages the segment holds, or `None` when the segment device
    /// could not be opened.
    pub pages: Option<usize>,
    /// Pages the catalog covers (0 when there is no catalog).
    pub covered: usize,
    /// Whether a valid sidecar catalog was found.
    pub catalog: bool,
}

impl CatalogCoverage {
    /// One line of the doctor output.
    pub fn render(&self) -> String {
        match (self.pages, self.catalog) {
            (None, _) => format!("checksum coverage: '{}' segment unreachable", self.segment),
            (Some(pages), false) => {
                format!(
                    "checksum coverage: '{}' 0/{} page(s) (no catalog)",
                    self.segment, pages
                )
            }
            (Some(pages), true) => format!(
                "checksum coverage: '{}' {}/{} page(s)",
                self.segment,
                self.covered.min(pages),
                pages
            ),
        }
    }
}

/// A read-only view over an RVM log.
pub struct LogInspector {
    dev: Arc<dyn Device>,
    status: StatusBlock,
}

impl LogInspector {
    /// Opens the log, validating its status block.
    pub fn open(dev: Arc<dyn Device>) -> Result<LogInspector> {
        let status = read_status(dev.as_ref())?;
        Ok(LogInspector { dev, status })
    }

    /// The log's status block (head/tail, segment table).
    pub fn status(&self) -> &StatusBlock {
        &self.status
    }

    /// All live committed transaction records, oldest first.
    pub fn records(&self) -> Result<Vec<(u64, TxnRecord)>> {
        let scan = scan_forward(
            self.dev.as_ref(),
            self.status.area_len,
            self.status.head,
            self.status.seq_at_head,
            None,
        )?;
        Ok(scan.records)
    }

    /// All live records, newest first, via the backward scan.
    pub fn records_backward(&self) -> Result<Vec<(u64, TxnRecord)>> {
        let scan = scan_forward(
            self.dev.as_ref(),
            self.status.area_len,
            self.status.head,
            self.status.seq_at_head,
            None,
        )?;
        scan_backward(
            self.dev.as_ref(),
            self.status.area_len,
            self.status.head,
            scan.tail,
            scan.next_seq,
        )
    }

    /// The modification history of `[offset, offset + len)` in the named
    /// segment, oldest first — the §6 debugging query.
    pub fn history(&self, segment: &str, offset: u64, len: u64) -> Result<Vec<HistoryEntry>> {
        let seg = self
            .status
            .segment_by_name(segment)
            .ok_or_else(|| RvmError::BadLog(format!("segment '{segment}' not in the log")))?
            .id;
        let mut out = Vec::new();
        for (log_offset, record) in self.records()? {
            for range in &record.ranges {
                let end = range.offset + range.data.len() as u64;
                if range.seg == seg && range.offset < offset + len && end > offset {
                    out.push(HistoryEntry {
                        seq: record.seq,
                        tid: record.tid,
                        log_offset,
                        seg: range.seg,
                        seg_name: Some(segment.to_owned()),
                        offset: range.offset,
                        data: range.data.clone(),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Read-only damage scan: walks the live record area, classifies what
    /// terminated it, and checks both status copies — without writing a
    /// byte.
    pub fn doctor(&self) -> Result<DoctorReport> {
        let mut status_copies_valid = [false; 2];
        let mut findings = Vec::new();
        for (i, off) in [STATUS_A_OFFSET, STATUS_B_OFFSET].iter().enumerate() {
            let mut buf = vec![0u8; STATUS_BLOCK_SIZE as usize];
            if self.dev.read_at(*off, &mut buf).is_ok() && StatusBlock::decode(&buf).is_some() {
                status_copies_valid[i] = true;
            } else {
                findings.push(format!(
                    "status copy {} is corrupt (the other copy carries the log)",
                    ['A', 'B'][i]
                ));
            }
        }

        let area_len = self.status.area_len;
        let head = self.status.head;
        let scan = scan_forward(
            self.dev.as_ref(),
            area_len,
            head,
            self.status.seq_at_head,
            None,
        )?;

        if scan.tail < self.status.tail {
            findings.push(format!(
                "log ends at offset {} but the status block records tail {}: \
                 {} byte(s) of committed log are unreadable",
                scan.tail,
                self.status.tail,
                self.status.tail - scan.tail
            ));
        }

        // Classify what stopped the scan. (A scan that consumed the whole
        // area stopped for capacity, not damage.)
        if scan.tail - head < area_len {
            let phys = LOG_AREA_START + scan.tail % area_len;
            let mut header_buf = [0u8; HEADER_SIZE as usize];
            self.dev.read_at(phys, &mut header_buf)?;
            match parse_header(&header_buf) {
                None if header_buf.iter().all(|&b| b == 0) => {
                    // Clean end: never-written space.
                }
                None => {
                    // Not a header. On the first lap the area beyond the
                    // tail has never held records, so bytes here mean a
                    // torn write; on later laps they may be stale data
                    // from an earlier lap, which is normal.
                    if scan.tail < area_len {
                        findings.push(format!(
                            "torn/short record at offset {}: bytes present but no valid header",
                            scan.tail
                        ));
                    }
                }
                Some(h) if h.seq == scan.next_seq => {
                    let lap_remaining = area_len - scan.tail % area_len;
                    let padded = h.padded_len();
                    if padded > lap_remaining || scan.tail - head + padded > area_len {
                        findings.push(format!(
                            "short record at offset {}: header (seq {}) claims {} bytes, \
                             more than the {} that remain",
                            scan.tail,
                            h.seq,
                            padded,
                            lap_remaining.min(area_len - (scan.tail - head))
                        ));
                    } else {
                        findings.push(format!(
                            "torn record at offset {}: valid header (seq {}, tid {}) \
                             but the payload fails its checksum",
                            scan.tail, h.seq, h.tid
                        ));
                    }
                }
                Some(h) if h.seq > scan.next_seq => {
                    findings.push(format!(
                        "sequence gap at offset {}: expected seq {}, found seq {}",
                        scan.tail, scan.next_seq, h.seq
                    ));
                }
                Some(_) => {
                    // A record with an older seq: stale data from a
                    // previous lap — a clean end.
                }
            }
        }

        Ok(DoctorReport {
            area_len,
            head,
            status_tail: self.status.tail,
            scanned_tail: scan.tail,
            next_seq: scan.next_seq,
            live_records: scan.records.len(),
            pads: scan.pads,
            status_copies_valid,
            findings,
        })
    }

    /// Offline checksum verification (`rvmlog scrub`): reads every page
    /// of every segment in the log's segment table and checks it against
    /// its sidecar checksum catalog. Never writes a byte; unreachable
    /// segments and missing catalogs are reported, not errors.
    pub fn scrub_segments(&self, resolver: &DeviceResolver) -> OfflineScrubReport {
        let segments = self
            .status
            .segments
            .iter()
            .map(|info| scrub_one(resolver, &info.name))
            .collect();
        OfflineScrubReport { segments }
    }

    /// Catalog coverage per segment, without reading any data page — the
    /// `rvmlog doctor` summary of how much of the image checksums protect.
    pub fn checksum_coverage(&self, resolver: &DeviceResolver) -> Vec<CatalogCoverage> {
        self.status
            .segments
            .iter()
            .map(|info| {
                let pages = (resolver)(&info.name, 0)
                    .and_then(|seg| seg.len())
                    .ok()
                    .map(page_count);
                let entries = (resolver)(&sidecar_name(&info.name), 0)
                    .ok()
                    .and_then(|dev| SegmentChecksums::load_readonly(dev.as_ref()).ok().flatten());
                CatalogCoverage {
                    segment: info.name.clone(),
                    pages,
                    covered: entries.as_ref().map_or(0, Vec::len),
                    catalog: entries.is_some(),
                }
            })
            .collect()
    }

    /// Offline repair (`rvmlog salvage`): scrubs every segment, then walks
    /// the same repair ladder recovery uses for each corrupt page — if the
    /// live (un-truncated) log span fully covers the page, its latest
    /// committed content is rebuilt from the log, written back, and the
    /// catalog updated; otherwise the page is reported unrecoverable and
    /// left for quarantine at the next `map`.
    pub fn salvage_segments(&self, resolver: &DeviceResolver) -> Result<SalvageReport> {
        let scrub = self.scrub_segments(resolver);
        let mut findings = Vec::new();
        if scrub.is_clean() {
            return Ok(SalvageReport { findings });
        }

        // Latest-wins content of the live span, per segment: newest record
        // first, first writer of each byte wins — the same trees recovery
        // builds before applying.
        let mut trees: std::collections::BTreeMap<SegmentId, IntervalMap> =
            std::collections::BTreeMap::new();
        let records = self.records()?;
        for (_, record) in records.iter().rev() {
            for range in &record.ranges {
                trees
                    .entry(range.seg)
                    .or_default()
                    .insert_if_uncovered(range.offset, &range.data);
            }
        }

        let empty = IntervalMap::default();
        for seg_scrub in scrub.segments.iter().filter(|s| !s.mismatched.is_empty()) {
            let name = &seg_scrub.segment;
            // The scrub report names segments from the status table, but
            // this tool runs against arbitrary (possibly corrupt) media —
            // report the inconsistency instead of panicking on it.
            let info = self.status.segment_by_name(name).ok_or_else(|| {
                RvmError::Media(format!(
                    "scrub reported segment '{name}' which is missing from the status table"
                ))
            })?;
            let seg = (resolver)(name, 0)?;
            let seg_len = seg.len()?;
            let catalog =
                SegmentChecksums::open((resolver)(&sidecar_name(name), 0)?, seg.as_ref(), seg_len)?;
            let tree = trees.get(&info.id).unwrap_or(&empty);
            let mut wrote = false;
            for &page in &seg_scrub.mismatched {
                let start = page as u64 * PAGE_SIZE;
                let plen = PAGE_SIZE.min(seg_len.saturating_sub(start));
                let covered: u64 = tree
                    .iter()
                    .map(|(off, data)| {
                        let end = off + data.len() as u64;
                        end.min(start + plen).saturating_sub(off.max(start))
                    })
                    .sum();
                if plen > 0 && covered == plen {
                    let mut buf = vec![0u8; plen as usize];
                    tree.overlay_onto(start, &mut buf);
                    seg.write_at(start, &buf)?;
                    catalog.update(page, &buf);
                    wrote = true;
                    findings.push((name.clone(), page, SalvageOutcome::RebuiltFromLog));
                } else {
                    findings.push((name.clone(), page, SalvageOutcome::Unrecoverable));
                }
            }
            if wrote {
                seg.sync()?;
                catalog.persist()?;
            }
        }
        Ok(SalvageReport { findings })
    }

    /// Full WAL invariant verification (`rvmlog verify`): everything
    /// [`LogInspector::doctor`] checks is about where the live log *ends*;
    /// this additionally proves the structural invariants the format
    /// promises — reverse-displacement canonicality, forward/backward scan
    /// symmetry, status-copy agreement, and recovery-tree idempotence.
    pub fn verify(&self) -> Result<VerifyReport> {
        rvm_check::verify(&self.dev)
    }

    /// A human-readable summary of the log.
    pub fn summary(&self) -> Result<String> {
        let records = self.records()?;
        let mut out = String::new();
        out.push_str(&format!(
            "log: area {} bytes, head {}, tail {}, {} live record(s)\n",
            self.status.area_len,
            self.status.head,
            self.status.tail,
            records.len()
        ));
        out.push_str("segments:\n");
        for seg in &self.status.segments {
            out.push_str(&format!(
                "  {}: '{}' (min length {})\n",
                seg.id, seg.name, seg.min_len
            ));
        }
        for (off, rec) in &records {
            out.push_str(&format!(
                "  @{off}: seq {} tid {} — {} range(s), {} data byte(s)\n",
                rec.seq,
                rec.tid,
                rec.ranges.len(),
                rec.ranges.iter().map(|r| r.data.len()).sum::<usize>()
            ));
        }
        Ok(out)
    }
}

/// Verifies one segment against its sidecar catalog, read-only. Errors
/// opening the segment or its catalog become per-segment report states,
/// never failures; a segment whose read errors counts every covered page
/// as a mismatch (the repair ladder is what distinguishes transient from
/// resident).
fn scrub_one(resolver: &DeviceResolver, name: &str) -> SegmentScrub {
    let unreachable = || SegmentScrub {
        segment: name.to_owned(),
        pages: None,
        covered: 0,
        catalog: false,
        mismatched: Vec::new(),
    };
    let Ok(seg) = (resolver)(name, 0) else {
        return unreachable();
    };
    let Ok(seg_len) = seg.len() else {
        return unreachable();
    };
    let pages = page_count(seg_len);
    let entries = (resolver)(&sidecar_name(name), 0)
        .ok()
        .and_then(|dev| SegmentChecksums::load_readonly(dev.as_ref()).ok().flatten());
    let Some(entries) = entries else {
        return SegmentScrub {
            segment: name.to_owned(),
            pages: Some(pages),
            covered: 0,
            catalog: false,
            mismatched: Vec::new(),
        };
    };
    let covered = entries.len().min(pages);
    let mismatched = match checksums_of(seg.as_ref(), seg_len, 0..covered) {
        Ok(sums) => (0..covered)
            .filter(|&p| sums.get(p) != entries.get(p))
            .collect(),
        Err(_) => (0..covered).collect(),
    };
    SegmentScrub {
        segment: name.to_owned(),
        pages: Some(pages),
        covered: entries.len(),
        catalog: true,
        mismatched,
    }
}

/// Formats a history entry like the `rvmlog` binary does.
pub fn format_entry(entry: &HistoryEntry) -> String {
    let preview: String = entry
        .data
        .iter()
        .take(16)
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ");
    let ellipsis = if entry.data.len() > 16 { " …" } else { "" };
    format!(
        "seq {:>6}  tid {:>6}  {}[{}..{}): {}{}",
        entry.seq,
        entry.tid,
        entry
            .seg_name
            .clone()
            .unwrap_or_else(|| entry.seg.to_string()),
        entry.offset,
        entry.offset + entry.data.len() as u64,
        preview,
        ellipsis
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm::segment::MemResolver;
    use rvm::{CommitMode, Options, RegionDescriptor, Rvm, TxnMode, PAGE_SIZE};
    use rvm_storage::MemDevice;

    /// Builds a log with a known history and "saves a copy before
    /// truncation" by never truncating.
    fn history_world() -> Arc<MemDevice> {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let rvm = Rvm::initialize(
            Options::new(log.clone())
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("meta", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..5u8 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 100, &[i; 8]).unwrap();
            if i % 2 == 0 {
                region.write(&mut txn, 300, &[0x40 + i; 4]).unwrap();
            }
            txn.commit(CommitMode::Flush).unwrap();
        }
        std::mem::forget(rvm);
        log
    }

    #[test]
    fn summary_lists_records_and_segments() {
        let log = history_world();
        let inspector = LogInspector::open(log).unwrap();
        let summary = inspector.summary().unwrap();
        assert!(summary.contains("5 live record(s)"), "{summary}");
        assert!(summary.contains("'meta'"), "{summary}");
    }

    #[test]
    fn history_filters_by_range() {
        let log = history_world();
        let inspector = LogInspector::open(log).unwrap();
        let h100 = inspector.history("meta", 100, 8).unwrap();
        assert_eq!(h100.len(), 5);
        // Oldest first: values 0..5 in order.
        for (i, entry) in h100.iter().enumerate() {
            assert_eq!(entry.data, vec![i as u8; 8]);
        }
        let h300 = inspector.history("meta", 300, 4).unwrap();
        assert_eq!(h300.len(), 3, "only even iterations wrote 300");
        let none = inspector.history("meta", 2000, 8).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn unknown_segment_is_an_error() {
        let log = history_world();
        let inspector = LogInspector::open(log).unwrap();
        assert!(inspector.history("nope", 0, 8).is_err());
    }

    #[test]
    fn backward_scan_agrees_with_forward() {
        let log = history_world();
        let inspector = LogInspector::open(log).unwrap();
        let fwd = inspector.records().unwrap();
        let mut bwd = inspector.records_backward().unwrap();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    /// Like [`history_world`] but terminated cleanly, so the status block
    /// records the true tail.
    fn terminated_world() -> Arc<MemDevice> {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let rvm = Rvm::initialize(
            Options::new(log.clone())
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("meta", 0, PAGE_SIZE))
            .unwrap();
        for i in 0..3u8 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 64, &[i; 8]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        }
        rvm.terminate().unwrap();
        log
    }

    #[test]
    fn doctor_passes_clean_log() {
        let log = history_world();
        let report = LogInspector::open(log).unwrap().doctor().unwrap();
        assert!(!report.is_damaged(), "{:?}", report.findings);
        assert_eq!(report.live_records, 5);
        assert_eq!(report.status_copies_valid, [true, true]);
        assert!(report.render().contains("no damage found"));
    }

    #[test]
    fn doctor_reports_torn_record() {
        let log = history_world();
        let inspector = LogInspector::open(log.clone()).unwrap();
        let (off, _) = inspector.records().unwrap()[2];
        // Corrupt the third record's payload; its header stays intact.
        log.write_at(LOG_AREA_START + off + HEADER_SIZE + 5, &[0xEE; 8])
            .unwrap();
        let report = LogInspector::open(log).unwrap().doctor().unwrap();
        assert!(report.is_damaged());
        assert_eq!(report.live_records, 2, "scan stops before the damage");
        assert!(
            report.findings.iter().any(|f| f.contains("torn record")),
            "{:?}",
            report.findings
        );
        assert!(report.render().contains("DAMAGE"));
    }

    #[test]
    fn doctor_detects_unreadable_committed_log() {
        let log = terminated_world();
        // Wipe the start of the record area; the status block still
        // promises records up to its recorded tail.
        log.write_at(LOG_AREA_START, &vec![0u8; 512]).unwrap();
        let report = LogInspector::open(log).unwrap().doctor().unwrap();
        assert!(report.is_damaged());
        assert!(report.status_tail > report.scanned_tail);
        assert!(
            report.findings.iter().any(|f| f.contains("unreadable")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn doctor_flags_corrupt_status_copy() {
        let log = history_world();
        log.write_at(STATUS_A_OFFSET + 32, &[0xFF; 4]).unwrap();
        // Copy B still opens the log.
        let report = LogInspector::open(log).unwrap().doctor().unwrap();
        assert!(report.is_damaged());
        assert_eq!(report.status_copies_valid, [false, true]);
        assert_eq!(report.live_records, 5, "records themselves are fine");
    }

    /// The acceptance pairing for `rvmlog verify`: corruption in the
    /// unchecksummed padding between a record's body and trailer passes
    /// `doctor` untouched (the forward scan never reads it) but breaks
    /// the reverse-displacement canonicality invariant.
    #[test]
    fn verify_catches_padding_corruption_doctor_misses() {
        let log = history_world();
        let inspector = LogInspector::open(log.clone()).unwrap();
        let (off, _) = inspector.records().unwrap()[1];
        let mut header_buf = [0u8; HEADER_SIZE as usize];
        log.read_at(LOG_AREA_START + off, &mut header_buf).unwrap();
        let header = parse_header(&header_buf).unwrap();
        let body_end = off + HEADER_SIZE + header.payload_len as u64;
        log.write_at(LOG_AREA_START + body_end, &[0xBA, 0xD1])
            .unwrap();

        let inspector = LogInspector::open(log).unwrap();
        let doctor = inspector.doctor().unwrap();
        assert!(
            !doctor.is_damaged(),
            "doctor is blind to padding corruption: {:?}",
            doctor.findings
        );
        let verify = inspector.verify().unwrap();
        assert!(!verify.is_clean());
        assert!(
            verify
                .findings
                .iter()
                .any(|f| f.contains("reverse-displacement block")),
            "{:?}",
            verify.findings
        );
    }

    #[test]
    fn verify_passes_clean_log() {
        let log = history_world();
        let report = LogInspector::open(log).unwrap().verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.live_records, 5);
        assert!(report.render().contains("all invariants hold"));
    }

    /// A world whose log fully covers page 0 of a two-page segment:
    /// catalogs are adopted at `map`, the log is never truncated, and the
    /// shared [`MemResolver`] lets the test corrupt segment bytes.
    fn media_world() -> (Arc<MemDevice>, MemResolver) {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let resolver = MemResolver::new();
        let rvm = Rvm::initialize(
            Options::new(log.clone())
                .resolver(resolver.clone().into_resolver())
                .create_if_empty(),
        )
        .unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("meta", 0, 2 * PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region
            .write(&mut txn, 0, &vec![0x5A; PAGE_SIZE as usize])
            .unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        std::mem::forget(rvm);
        (log, resolver)
    }

    #[test]
    fn scrub_passes_clean_segments_and_reports_coverage() {
        let (log, resolver) = media_world();
        let inspector = LogInspector::open(log).unwrap();
        let dr = resolver.clone().into_resolver();
        let report = inspector.scrub_segments(&dr);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].pages, Some(2));
        assert_eq!(report.segments[0].covered, 2);
        assert!(report.render().contains("all match"), "{}", report.render());

        let coverage = inspector.checksum_coverage(&dr);
        assert_eq!(coverage.len(), 1);
        assert!(coverage[0].catalog);
        assert!(
            coverage[0].render().contains("'meta' 2/2 page(s)"),
            "{}",
            coverage[0].render()
        );
    }

    #[test]
    fn scrub_detects_rot_and_salvage_rebuilds_log_covered_pages() {
        let (log, resolver) = media_world();
        let seg = resolver.resolve("meta", 0).unwrap();
        // Rot in page 0 (fully covered by the live log) and page 1
        // (never written by any committed transaction).
        seg.write_at(100, &[0xEE; 8]).unwrap();
        seg.write_at(PAGE_SIZE + 7, &[0xEE; 8]).unwrap();

        let inspector = LogInspector::open(log).unwrap();
        let dr = resolver.clone().into_resolver();
        let report = inspector.scrub_segments(&dr);
        assert!(!report.is_clean());
        assert_eq!(report.segments[0].mismatched, vec![0, 1]);
        assert!(report.render().contains("MISMATCH"), "{}", report.render());

        let salvage = inspector.salvage_segments(&dr).unwrap();
        assert_eq!(salvage.findings.len(), 2);
        assert_eq!(
            salvage.findings[0],
            ("meta".to_owned(), 0, SalvageOutcome::RebuiltFromLog)
        );
        assert_eq!(
            salvage.findings[1],
            ("meta".to_owned(), 1, SalvageOutcome::Unrecoverable)
        );
        assert!(!salvage.is_clean());

        // Page 0 carries the committed content again and verifies; page 1
        // is still rotten (nothing committed exists to rebuild it from).
        let mut buf = [0u8; 8];
        seg.read_at(100, &mut buf).unwrap();
        assert_eq!(buf, [0x5A; 8]);
        let after = inspector.scrub_segments(&dr);
        assert_eq!(after.segments[0].mismatched, vec![1]);
    }

    #[test]
    fn salvage_is_a_no_op_on_clean_segments() {
        let (log, resolver) = media_world();
        let inspector = LogInspector::open(log).unwrap();
        let dr = resolver.into_resolver();
        let salvage = inspector.salvage_segments(&dr).unwrap();
        assert!(salvage.findings.is_empty());
        assert!(salvage.is_clean());
        assert!(salvage.render().contains("0 page(s) repaired"));
    }

    #[test]
    fn entry_formatting_is_stable() {
        let entry = HistoryEntry {
            seq: 3,
            tid: 12,
            log_offset: 0,
            seg: SegmentId::new(0),
            seg_name: Some("meta".to_owned()),
            offset: 96,
            data: vec![0xAB; 20],
        };
        let line = format_entry(&entry);
        assert!(line.contains("meta[96..116)"), "{line}");
        assert!(line.contains('…'), "long data is elided: {line}");
    }
}
