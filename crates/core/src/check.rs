//! Debug-mode contract checking: unlogged-write and range-conflict
//! detection.
//!
//! §4.2's correctness contract rests entirely on the programmer calling
//! `set_range` before every mutation of recoverable memory; §6 reports
//! that when they forget, "the result is disastrous" — the committed
//! image silently diverges from virtual memory. §7 muses that VM page
//! protection could catch the mistake. This module is that safety net,
//! implemented one level up, without kernel help (in the spirit of the
//! whole library):
//!
//! * **Unlogged-write detection** — `begin_transaction` snapshots every
//!   fully loaded mapped region; commit diffs current memory against the
//!   snapshot and subtracts the union of declared `set_range` intervals
//!   (this transaction's and every other live transaction's). Whatever
//!   differs outside that union was mutated behind RVM's back.
//! * **Range-conflict detection** — overlapping `set_range` declarations
//!   from concurrent uncommitted transactions are flagged. RVM itself
//!   deliberately provides no serializability (§3.1), so an overlap is
//!   not an RVM error — but it is almost always a locking bug in the
//!   layer above, and the checker is where such bugs surface.
//!
//! Violations are recorded as [`CheckViolation`] values surfaced through
//! `query`, counted in the stats block, and — with
//! [`Tuning::panic_on_violation`](crate::Tuning) — turned into panics so
//! tests die at the first contract breach.
//!
//! # The gate
//!
//! The four hooks sit on the transaction path (`begin_transaction`,
//! `set_range`, commit, transaction end), which with both checks off —
//! the default — must not pay for them: each first loads one atomic,
//! `RvmShared::check_armed`, and returns if it is clear, taking no lock.
//! The flag is set while *a check is on, or a snapshot or declaration is
//! outstanding* (a check turned off mid-transaction still drops its
//! snapshot). It is **set** under the `tuning` write guard, by
//! `set_options` installing a tuning with a check on; **cleared** only by
//! `check_txn_ended`, under the `check` lock, when the state is empty and
//! — under the `tuning` read guard, which orders the clear against such a
//! `set_options` — both checks are off; and a hook **adds** to the state
//! only after seeing the flag set *under the `check` lock*, so nothing is
//! added behind a clear.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::ranges::{ByteRange, RangeSet};
use crate::region::RegionInner;
use crate::rvm::RvmShared;
use crate::txn::{Transaction, TxnRegion};

/// A detected violation of the RVM programming contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckViolation {
    /// Bytes of a mapped region changed during a transaction without any
    /// `set_range` covering them: the forgotten-`set_range` bug of §6.
    /// On commit these bytes are *not* logged — after a crash the
    /// recovered image would silently lose them.
    UnloggedWrite {
        /// The transaction whose commit exposed the mutation.
        tid: u64,
        /// Name of the region's backing segment.
        segment: String,
        /// Offset of the undeclared mutation within the region.
        offset: u64,
        /// Length of the undeclared mutation.
        len: u64,
    },
    /// Two concurrent uncommitted transactions declared overlapping
    /// ranges — last committer wins, which is almost never what the
    /// (missing) locking layer above RVM intended.
    RangeConflict {
        /// The transaction making the later declaration.
        tid: u64,
        /// The transaction holding the earlier overlapping declaration.
        other_tid: u64,
        /// Name of the region's backing segment.
        segment: String,
        /// Start of the overlap within the region.
        offset: u64,
        /// Length of the overlap.
        len: u64,
    },
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckViolation::UnloggedWrite {
                tid,
                segment,
                offset,
                len,
            } => write!(
                f,
                "unlogged write: txn {tid} committed while '{segment}'[{offset}..{}) \
                 changed without a covering set_range",
                offset + len
            ),
            CheckViolation::RangeConflict {
                tid,
                other_tid,
                segment,
                offset,
                len,
            } => write!(
                f,
                "range conflict: txn {tid} and txn {other_tid} both declared \
                 '{segment}'[{offset}..{})",
                offset + len
            ),
        }
    }
}

/// Library-internal checker state, guarded by one mutex in `RvmShared`.
///
/// Lock order: `regions` (RwLock) → this mutex → region `mem_lock`s.
#[derive(Default)]
pub(crate) struct CheckState {
    /// Per-transaction snapshots of every mapped region's bytes, taken at
    /// `begin_transaction` while unlogged-write detection is on, keyed
    /// `tid → region id → image`. Refreshed over a transaction's declared
    /// ranges when it ends, so concurrent committed writes never read as
    /// unlogged.
    pub(crate) snapshots: HashMap<u64, HashMap<u64, Vec<u8>>>,
    /// Live `set_range` declarations per region id, as `(tid, range)`
    /// pairs — the conflict-detection index and the diff exclusion set.
    pub(crate) declared: HashMap<u64, Vec<(u64, ByteRange)>>,
    /// Violations recorded so far (also counted in the stats block).
    pub(crate) violations: Vec<CheckViolation>,
}

/// Maximal byte intervals where `old` and `new` differ. The inputs have
/// equal length (both are images of the same region).
pub(crate) fn diff_intervals(old: &[u8], new: &[u8]) -> Vec<ByteRange> {
    debug_assert_eq!(old.len(), new.len());
    let mut out = Vec::new();
    let mut run_start: Option<usize> = None;
    for i in 0..old.len().min(new.len()) {
        match (old[i] == new[i], run_start) {
            (false, None) => run_start = Some(i),
            (true, Some(s)) => {
                out.push(ByteRange::at(s as u64, (i - s) as u64));
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        out.push(ByteRange::at(s as u64, (old.len() - s) as u64));
    }
    out
}

/// Subtracts a sorted, disjoint list of `allowed` ranges from `range`,
/// returning the uncovered remainder in order.
pub(crate) fn subtract_ranges(range: ByteRange, allowed: &[ByteRange]) -> Vec<ByteRange> {
    let mut out = Vec::new();
    let mut cursor = range.start;
    for a in allowed {
        if a.end <= cursor {
            continue;
        }
        if a.start >= range.end {
            break;
        }
        if a.start > cursor {
            out.push(ByteRange::at(cursor, a.start.min(range.end) - cursor));
        }
        cursor = cursor.max(a.end);
        if cursor >= range.end {
            return out;
        }
    }
    if cursor < range.end {
        out.push(ByteRange::at(cursor, range.end - cursor));
    }
    out
}

impl RvmShared {
    /// Whether the hooks have anything to do (see the module docs).
    fn check_is_armed(&self) -> bool {
        self.check_armed.load(Ordering::Acquire)
    }

    /// `begin_transaction` hook: with unlogged-write detection on,
    /// snapshots every fully loaded mapped region for the commit-time
    /// diff. On-demand regions still holding unfetched pages are skipped
    /// — a page fetch mutates memory without any transaction writing it,
    /// which the diff would misread as an unlogged write.
    pub(crate) fn snapshot_for_check(&self, tid: u64) {
        if !self.check_is_armed() || !self.tuning.read().check_unlogged_writes {
            return;
        }
        let regions = self.regions.read();
        let mut snaps = HashMap::new();
        for (id, region) in regions.iter() {
            if region.unloaded.lock().is_some() {
                continue;
            }
            snaps.insert(*id, region.read_bytes(0, region.len));
        }
        let mut state = self.check.lock();
        if self.check_is_armed() {
            state.snapshots.insert(tid, snaps);
        }
    }

    /// Commit-time unlogged-write check: diffs each snapshotted region
    /// against current memory and subtracts every declared `set_range`
    /// interval — this transaction's own write set plus every other live
    /// transaction's (their commits will log those bytes). Whatever
    /// remains changed behind RVM's back (§6's forgotten-`set_range`
    /// disaster) and is recorded as a [`CheckViolation`].
    pub(crate) fn run_commit_check(&self, txn: &Transaction) {
        if !self.check_is_armed() {
            return;
        }
        let (enabled, panic_on) = {
            let t = self.tuning.read();
            (t.check_unlogged_writes, t.panic_on_violation)
        };
        let regions = self.regions.read();
        let mut state = self.check.lock();
        let Some(snaps) = state.snapshots.remove(&txn.tid) else {
            return;
        };
        if !enabled {
            // Checking was turned off mid-transaction; drop the snapshot.
            return;
        }
        let mut found = Vec::new();
        let mut refresh: Vec<(u64, ByteRange, Vec<u8>)> = Vec::new();
        for (region_id, old) in &snaps {
            let Some(region) = regions.get(region_id) else {
                continue; // unmapped since begin_transaction
            };
            let current = region.read_bytes(0, region.len);
            let mut allowed = RangeSet::new();
            let declared_here = txn.scratch.regions.iter();
            for txn_region in declared_here.filter(|r| r.region.id == *region_id) {
                for r in txn_region.bufs.ranges.iter() {
                    allowed.insert(r);
                }
            }
            if let Some(declared) = state.declared.get(region_id) {
                for (tid, r) in declared {
                    if *tid != txn.tid {
                        allowed.insert(*r);
                    }
                }
            }
            let allowed: Vec<ByteRange> = allowed.iter().collect();
            for d in diff_intervals(old, &current) {
                for bad in subtract_ranges(d, &allowed) {
                    found.push(CheckViolation::UnloggedWrite {
                        tid: txn.tid,
                        segment: region.segment.name.clone(),
                        offset: bad.start,
                        len: bad.len(),
                    });
                    let bytes = current[bad.start as usize..bad.end as usize].to_vec();
                    refresh.push((*region_id, bad, bytes));
                }
            }
        }
        // Fold the offending bytes into the other live snapshots so one
        // unlogged write is reported once, not once per open transaction.
        for (region_id, bad, bytes) in refresh {
            for snaps in state.snapshots.values_mut() {
                if let Some(img) = snaps.get_mut(&region_id) {
                    img[bad.start as usize..bad.end as usize].copy_from_slice(&bytes);
                }
            }
        }
        self.record_check_violations(&mut state, found, panic_on);
    }

    /// `set_range` hook: records the declaration for the diff exclusion
    /// set and, with conflict checking on, flags overlaps with other live
    /// transactions' declarations (§3.1's punted data-race class).
    pub(crate) fn check_declared_range(
        &self,
        tid: u64,
        region: &Arc<RegionInner>,
        range: ByteRange,
    ) {
        if !self.check_is_armed() {
            return;
        }
        let (track, conflicts, panic_on) = {
            let t = self.tuning.read();
            (t.checks(), t.check_range_conflicts, t.panic_on_violation)
        };
        if !track {
            return;
        }
        let mut state = self.check.lock();
        if !self.check_is_armed() {
            return;
        }
        let found = {
            let entries = state.declared.entry(region.id).or_default();
            let mut found = Vec::new();
            if conflicts {
                for (other, r) in entries.iter() {
                    if *other != tid && r.start < range.end && range.start < r.end {
                        let start = range.start.max(r.start);
                        let end = range.end.min(r.end);
                        found.push(CheckViolation::RangeConflict {
                            tid,
                            other_tid: *other,
                            segment: region.segment.name.clone(),
                            offset: start,
                            len: end - start,
                        });
                    }
                }
            }
            entries.push((tid, range));
            found
        };
        self.record_check_violations(&mut state, found, panic_on);
    }

    /// Transaction-end hook (commit, abort, or drop): refreshes the other
    /// live snapshots over this transaction's declared ranges — those
    /// bytes are now either committed or restored, and must not read as
    /// unlogged at someone else's commit — then forgets the transaction,
    /// and clears the gate once nothing is left to do.
    pub(crate) fn check_txn_ended(&self, tid: u64, regions: &[TxnRegion]) {
        if !self.check_is_armed() {
            return;
        }
        let mut state = self.check.lock();
        for txn_region in regions {
            let region_id = &txn_region.region.id;
            if state.snapshots.values().any(|m| m.contains_key(region_id)) {
                for r in txn_region.bufs.ranges.iter() {
                    let bytes = txn_region.region.read_bytes(r.start, r.len());
                    for snaps in state.snapshots.values_mut() {
                        if let Some(img) = snaps.get_mut(region_id) {
                            img[r.start as usize..r.end as usize].copy_from_slice(&bytes);
                        }
                    }
                }
            }
            if let Entry::Occupied(mut declared) = state.declared.entry(*region_id) {
                declared.get_mut().retain(|(t, _)| *t != tid);
                if declared.get().is_empty() {
                    declared.remove();
                }
            }
        }
        state.snapshots.remove(&tid);
        if state.snapshots.is_empty() && state.declared.is_empty() {
            let tuning = self.tuning.read();
            if !tuning.checks() {
                self.check_armed.store(false, Ordering::Release);
            }
        }
    }

    /// Counts, stores, and (with `panic_on_violation`) panics on check
    /// violations.
    fn record_check_violations(
        &self,
        state: &mut CheckState,
        found: Vec<CheckViolation>,
        panic_on: bool,
    ) {
        if found.is_empty() {
            return;
        }
        for v in &found {
            match v {
                CheckViolation::UnloggedWrite { .. } => {
                    self.stats.add(&self.stats.check_unlogged_writes, 1)
                }
                CheckViolation::RangeConflict { .. } => {
                    self.stats.add(&self.stats.check_range_conflicts, 1)
                }
            }
        }
        let msg = panic_on.then(|| {
            found
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        });
        state.violations.extend(found);
        if let Some(msg) = msg {
            panic!("rvm check violation: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemResolver;
    use crate::{CommitMode, Options, Region, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
    use rvm_storage::MemDevice;

    fn instance(tuning: Tuning) -> (Arc<Rvm>, Region) {
        let options = Options::new(Arc::new(MemDevice::with_len(1 << 20)))
            .resolver(MemResolver::new().into_resolver())
            .tuning(tuning)
            .create_if_empty();
        let rvm = Rvm::initialize(options).unwrap();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        (Arc::new(rvm), region)
    }

    /// With both checks off the transaction path never touches the
    /// checker: a commit and an abort complete while another thread holds
    /// its lock for their whole length.
    #[test]
    fn the_disabled_checker_is_off_the_transaction_path() {
        let (rvm, region) = instance(Tuning::default());
        let held = rvm.shared.check.lock();
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn({
            let rvm = rvm.clone();
            move || {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region.write(&mut txn, 0, b"committed").unwrap();
                txn.commit(CommitMode::Flush).unwrap();
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region.write(&mut txn, 0, b"aborted").unwrap();
                txn.abort().unwrap();
                let _ = done.send(());
            }
        });
        let in_time = finished
            .recv_timeout(std::time::Duration::from_secs(5))
            .is_ok();
        drop(held);
        client.join().unwrap();
        assert!(in_time, "a transaction waited for the checker's lock");
    }

    /// The gate stays set while a snapshot taken under a check is
    /// outstanding, so turning the check off mid-transaction still drops
    /// it; the transaction's end then clears the gate.
    #[test]
    fn the_gate_outlives_a_check_turned_off_mid_transaction() {
        let armed = |rvm: &Rvm| rvm.shared.check_armed.load(Ordering::Acquire);
        let (rvm, region) = instance(Tuning::default());
        assert!(!armed(&rvm));
        rvm.set_options(Tuning {
            check_unlogged_writes: true,
            ..Tuning::default()
        });
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, 0, b"x").unwrap();
        rvm.set_options(Tuning::default());
        assert!(armed(&rvm), "a snapshot and a declaration are outstanding");
        txn.commit(CommitMode::Flush).unwrap();
        assert!(!armed(&rvm));
        let state = rvm.shared.check.lock();
        assert!(state.snapshots.is_empty() && state.declared.is_empty());
    }

    fn r(start: u64, end: u64) -> ByteRange {
        ByteRange::at(start, end - start)
    }

    #[test]
    fn diff_finds_maximal_runs() {
        assert!(diff_intervals(&[0; 8], &[0; 8]).is_empty());
        assert_eq!(
            diff_intervals(&[0, 0, 1, 1, 0, 1, 0, 0], &[0, 0, 2, 2, 0, 2, 0, 0]),
            vec![r(2, 4), r(5, 6)]
        );
        // Runs touching either edge close correctly.
        assert_eq!(
            diff_intervals(&[1, 0, 0, 1], &[2, 0, 0, 2]),
            vec![r(0, 1), r(3, 4)]
        );
    }

    #[test]
    fn subtraction_covers_all_cases() {
        // No exclusions: everything remains.
        assert_eq!(subtract_ranges(r(10, 20), &[]), vec![r(10, 20)]);
        // Full coverage: nothing remains.
        assert!(subtract_ranges(r(10, 20), &[r(0, 32)]).is_empty());
        // Hole in the middle.
        assert_eq!(
            subtract_ranges(r(10, 20), &[r(12, 15)]),
            vec![r(10, 12), r(15, 20)]
        );
        // Clipping at both edges plus an irrelevant range.
        assert_eq!(
            subtract_ranges(r(10, 20), &[r(0, 11), r(18, 40), r(50, 60)]),
            vec![r(11, 18)]
        );
    }

    #[test]
    fn violations_render_their_geometry() {
        let v = CheckViolation::UnloggedWrite {
            tid: 7,
            segment: "seg".into(),
            offset: 100,
            len: 8,
        };
        assert!(v.to_string().contains("[100..108)"), "{v}");
        let c = CheckViolation::RangeConflict {
            tid: 2,
            other_tid: 1,
            segment: "seg".into(),
            offset: 0,
            len: 4,
        };
        assert!(c.to_string().contains("txn 2 and txn 1"), "{c}");
    }
}
