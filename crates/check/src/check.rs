//! The `set_range` contract checker, [`Checked`].

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rvm::ranges::{ByteRange, RangeSet};
use rvm::{
    CommitMode, LoadPolicy, Region, RegionDescriptor, Result, Rvm, RvmError, Transaction, TxnMode,
};

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

/// A region's identity while it is mapped: the address of its memory.
fn key(region: &Region) -> usize {
    region.base_ptr() as usize
}

/// A live declaration: transaction, region, range.
type Declaration = (u64, usize, ByteRange);

#[derive(Default)]
struct State {
    /// The regions mapped through the wrapper.
    regions: Vec<Region>,
    /// Per live transaction, its begin-time image of each region.
    snapshots: HashMap<u64, Vec<(Region, Vec<u8>)>>,
    /// Every live declaration: the conflict index and the diff's
    /// exclusion set.
    declared: Vec<Declaration>,
    violations: Vec<CheckViolation>,
}

/// An [`Rvm`] whose regions and transactions are checked against the
/// `set_range` contract — the safety net §7 muses about for §6's
/// "disastrous" forgotten `set_range`, built on the public API so the
/// library pays nothing for it. Only regions mapped and transactions
/// begun through the wrapper are checked:
///
/// * **Unlogged writes** — a transaction snapshots every fully loaded
///   region at begin; its commit diffs memory against the snapshot and
///   subtracts every live declaration on the region, its own and other
///   live transactions'. What differs outside them was mutated behind
///   RVM's back, and would be lost in a crash.
/// * **Range conflicts** — a declaration overlapping another live
///   transaction's is flagged. RVM leaves serializability to the layer
///   above (§3.1), so this is that layer's locking bug, not RVM's.
///
/// Violations are kept ([`Checked::violations`]) and, with
/// [`Checked::panicking`], panic at once — inside the commit, before
/// anything is logged. One mutex holds the wrapper's state, and the
/// snapshot at begin, the diff at commit and the refresh of the other
/// live snapshots when a transaction ends all read region memory under
/// it: a snapshot never lands between an abort and its refresh, which
/// would keep bytes the abort already restored. A declaration is recorded
/// before it reaches RVM, so no commit reads its bytes as unlogged. RVM
/// is called with the mutex released.
pub struct Checked {
    rvm: Rvm,
    state: Mutex<State>,
    conflicts: bool,
    panicking: bool,
}

impl Checked {
    /// Wraps `rvm`, checking from now on and recording what it finds.
    pub fn new(rvm: Rvm) -> Self {
        Self {
            rvm,
            state: Mutex::default(),
            conflicts: true,
            panicking: false,
        }
    }

    /// Panics the offending thread at each violation, after recording it.
    pub fn panicking(mut self) -> Self {
        self.panicking = true;
        self
    }

    /// Stops flagging overlapping declarations, for workloads where they
    /// are legal; unlogged writes are still checked.
    pub fn allowing_overlaps(mut self) -> Self {
        self.conflicts = false;
        self
    }

    /// The wrapped instance, for everything the wrapper does not check.
    pub fn rvm(&self) -> &Rvm {
        &self.rvm
    }

    /// Unwraps the instance.
    pub fn into_inner(self) -> Rvm {
        self.rvm
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> Vec<CheckViolation> {
        self.state().violations.clone()
    }

    /// [`Rvm::map`], checking the region from now on.
    pub fn map(&self, desc: &RegionDescriptor) -> Result<Region> {
        self.map_with(desc, LoadPolicy::Eager)
    }

    /// [`Rvm::map_with`], checking the region from now on. An on-demand
    /// region is snapshotted once it is fully loaded: a page fetch
    /// changes memory that no transaction wrote.
    pub fn map_with(&self, desc: &RegionDescriptor, policy: LoadPolicy) -> Result<Region> {
        let region = self.rvm.map_with(desc, policy)?;
        self.state().regions.push(region.clone());
        Ok(region)
    }

    /// [`Rvm::begin_transaction`], snapshotting the regions.
    pub fn begin_transaction(&self, mode: TxnMode) -> Result<CheckedTxn<'_>> {
        let txn = self.rvm.begin_transaction(mode)?;
        let tid = txn.tid();
        let mut state = self.state();
        state.regions.retain(Region::is_mapped);
        let loaded = state.regions.iter().filter(|r| r.is_fully_loaded());
        let snaps = loaded
            .filter_map(|r| Some((r.clone(), r.read_vec(0, r.len()).ok()?)))
            .collect();
        state.snapshots.insert(tid, snaps);
        Ok(CheckedTxn {
            checker: self,
            txn: Some(txn),
            tid,
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a declaration and flags its overlaps with other live
    /// transactions' declarations.
    fn declare(&self, (tid, key, range): Declaration, segment: &str) {
        let mut state = self.state();
        let mut found = Vec::new();
        for &(other_tid, k, r) in state.declared.iter().filter(|_| self.conflicts) {
            if other_tid != tid && k == key && r.start < range.end && range.start < r.end {
                let offset = range.start.max(r.start);
                let len = range.end.min(r.end) - offset;
                found.push(CheckViolation::RangeConflict {
                    tid,
                    other_tid,
                    segment: segment.to_owned(),
                    offset,
                    len,
                });
            }
        }
        state.declared.push((tid, key, range));
        self.record(state, found);
    }

    /// Withdraws a declaration RVM refused.
    fn undeclare(&self, declaration: Declaration) {
        let declared = &mut self.state().declared;
        if let Some(at) = declared.iter().rposition(|d| *d == declaration) {
            declared.remove(at);
        }
    }

    /// The commit-time diff of `tid`'s snapshots against memory, less
    /// every live declaration.
    fn diff(&self, tid: u64) {
        let mut guard = self.state();
        let state = &mut *guard;
        let mut found = Vec::new();
        for (region, old) in state.snapshots.remove(&tid).unwrap_or_default() {
            let Ok(current) = region.read_vec(0, region.len()) else {
                continue; // unmapped since begin
            };
            let mut allowed = RangeSet::new();
            for (_, _, r) in state.declared.iter().filter(|d| d.1 == key(&region)) {
                allowed.insert(*r);
            }
            let allowed: Vec<ByteRange> = allowed.iter().collect();
            for d in diff_intervals(&old, &current) {
                for bad in subtract_ranges(d, &allowed) {
                    found.push(CheckViolation::UnloggedWrite {
                        tid,
                        segment: region.segment_name().into(),
                        offset: bad.start,
                        len: bad.len(),
                    });
                    // Fold the bytes into the other live snapshots, so
                    // one unlogged write is reported once.
                    let bad = bad.start as usize..bad.end as usize;
                    for (other, img) in state.snapshots.values_mut().flatten() {
                        if key(other) == key(&region) {
                            img[bad.clone()].copy_from_slice(&current[bad.clone()]);
                        }
                    }
                }
            }
        }
        self.record(guard, found);
    }

    /// Transaction end, after RVM ended it: the bytes `tid` declared are
    /// now committed or restored, so the other live snapshots take them
    /// — they must not read as unlogged at another commit — and `tid` is
    /// forgotten.
    fn end(&self, tid: u64) {
        let mut guard = self.state();
        let state = &mut *guard;
        state.snapshots.remove(&tid);
        let (mine, others): (Vec<Declaration>, _) =
            state.declared.drain(..).partition(|d| d.0 == tid);
        state.declared = others;
        for (region, img) in state.snapshots.values_mut().flatten() {
            for (_, _, r) in mine.iter().filter(|d| d.1 == key(region)) {
                // An unmapped region is never diffed again.
                let _ = region.read(r.start, &mut img[r.start as usize..r.end as usize]);
            }
        }
    }

    /// Stores `found` and, when panicking, panics with the lock released.
    fn record(&self, mut state: MutexGuard<'_, State>, found: Vec<CheckViolation>) {
        if found.is_empty() {
            return;
        }
        let msgs: Vec<String> = found.iter().map(ToString::to_string).collect();
        state.violations.extend(found);
        drop(state);
        if self.panicking {
            panic!("rvm check violation: {}", msgs.join("; "));
        }
    }
}

/// A [`Transaction`] begun through [`Checked`]: its declarations are
/// recorded and its commit is diffed. Dropped unfinished, it aborts.
pub struct CheckedTxn<'a> {
    checker: &'a Checked,
    /// `None` once committed or aborted.
    txn: Option<Transaction>,
    tid: u64,
}

impl CheckedTxn<'_> {
    /// The transaction identifier.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// [`Transaction::set_range`].
    pub fn set_range(&mut self, region: &Region, offset: u64, len: u64) -> Result<()> {
        self.declare(region, offset, len, |t| t.set_range(region, offset, len))
    }

    /// [`Transaction::set_range_ptr`].
    pub fn set_range_ptr(&mut self, region: &Region, ptr: *const u8, len: u64) -> Result<()> {
        // A pointer outside the region declares nothing: RVM refuses it.
        let offset = region.offset_of_ptr(ptr).unwrap_or(u64::MAX);
        self.declare(region, offset, len, |t| t.set_range_ptr(region, ptr, len))
    }

    /// [`Region::write`].
    pub fn write(&mut self, region: &Region, offset: u64, data: &[u8]) -> Result<()> {
        let len = data.len() as u64;
        self.declare(region, offset, len, |t| region.write(t, offset, data))
    }

    /// [`Region::modify`].
    pub fn modify<R>(
        &mut self,
        region: &Region,
        offset: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        self.declare(region, offset, len, |t| region.modify(t, offset, len, f))
    }

    /// [`Transaction::commit`], after the unlogged-write check.
    pub fn commit(mut self, mode: CommitMode) -> Result<()> {
        self.checker.diff(self.tid);
        let txn = self.txn.take().ok_or(RvmError::TransactionEnded)?;
        txn.commit(mode)
    }

    /// [`Transaction::abort`].
    pub fn abort(mut self) -> Result<()> {
        let txn = self.txn.take().ok_or(RvmError::TransactionEnded)?;
        txn.abort()
    }

    /// Records the declaration of `[offset, offset + len)`, then hands
    /// the transaction to `op`. A range RVM refuses as empty or out of
    /// bounds is not recorded; one refused for another reason is
    /// withdrawn.
    fn declare<R>(
        &mut self,
        region: &Region,
        offset: u64,
        len: u64,
        op: impl FnOnce(&mut Transaction) -> Result<R>,
    ) -> Result<R> {
        let txn = self.txn.as_mut().ok_or(RvmError::TransactionEnded)?;
        let end = offset.checked_add(len);
        let Some(end) = end.filter(|&end| len > 0 && end <= region.len()) else {
            return op(txn);
        };
        let declaration = (self.tid, key(region), ByteRange { start: offset, end });
        self.checker.declare(declaration, region.segment_name());
        op(txn).inspect_err(|_| self.checker.undeclare(declaration))
    }
}

impl Drop for CheckedTxn<'_> {
    fn drop(&mut self) {
        // An unfinished transaction aborts first, so the refresh reads
        // the bytes it restored.
        drop(self.txn.take());
        self.checker.end(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm::segment::MemResolver;
    use rvm::{Options, PAGE_SIZE};
    use rvm_storage::MemDevice;
    use std::sync::Arc;

    /// The wrapper end to end, small enough for Miri: bytes declared by
    /// each of its three kinds of declaration are clean, a poke beside
    /// them is convicted with its exact geometry.
    #[test]
    fn the_wrapper_convicts_only_the_undeclared_bytes() {
        let options = Options::new(Arc::new(MemDevice::with_len(1 << 20)))
            .resolver(MemResolver::new().into_resolver())
            .create_if_empty();
        let checked = Checked::new(Rvm::initialize(options).unwrap());
        let region = checked
            .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = checked.begin_transaction(TxnMode::Restore).unwrap();
        txn.write(&region, 0, &[1; 8]).unwrap();
        txn.modify(&region, 8, 4, |b| b.fill(3)).unwrap();
        txn.set_range(&region, 32, 8).unwrap();
        // SAFETY: in bounds, and no other thread touches the region.
        unsafe {
            *region.base_ptr().add(16) = 2;
            *region.base_ptr().add(39) = 4;
        }
        let tid = txn.tid();
        txn.commit(CommitMode::Flush).unwrap();
        let unlogged = CheckViolation::UnloggedWrite {
            tid,
            segment: "seg".into(),
            offset: 16,
            len: 1,
        };
        assert_eq!(checked.violations(), vec![unlogged]);
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
