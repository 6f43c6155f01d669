//! Concurrent truncation: commits must keep flowing while an apply — an
//! epoch's or an incremental step's — runs off-lock, and a crash at *any*
//! stage of a truncation in flight must recover every acknowledged
//! commit.
//!
//! The tests park the apply on a gated segment device (its writes or
//! syncs block until the test releases them), which holds the truncation
//! in its off-lock phase indefinitely. "Crashes" are device snapshots
//! taken while the apply is parked — byte-exact images of what a kill at
//! that instant would leave behind — rebooted into a fresh instance.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rvm::log::status::read_status;
use rvm::segment::{DeviceResolver, MemResolver};
use rvm::{
    CommitMode, Options, RegionDescriptor, Rvm, RvmError, TruncationMode, Tuning, TxnMode,
    PAGE_SIZE,
};
use rvm_storage::{Device, DeviceError, FaultOp, MemDevice};

const SLOTS: u64 = 16;
const SLOT_STRIDE: u64 = 512; // distinct pagesworth-of-separation ranges
const REGION_LEN: u64 = SLOTS * SLOT_STRIDE;
/// A log whose record area holds 32 one-block records: `commit_slot`
/// fills it within a few dozen commits.
const TINY_LOG: u64 = 32 * 1024;

/// Where the gate parks the apply.
#[derive(Clone, Copy, Debug)]
enum Park {
    /// Allow this many segment writes, then park the next one.
    Writes(u64),
    /// Allow every write, park the first sync.
    Sync,
}

struct GateState {
    allow_writes: u64,
    gate_sync: bool,
    open: bool,
    parked: bool,
}

/// A shared gate: the device side parks on it, the test side observes
/// and releases.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl GateState {
    fn closed(park: Park) -> Self {
        let (allow_writes, gate_sync) = match park {
            Park::Writes(n) => (n, false),
            Park::Sync => (u64::MAX, true),
        };
        Self {
            allow_writes,
            gate_sync,
            open: false,
            parked: false,
        }
    }
}

impl Gate {
    fn closed(park: Park) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(GateState::closed(park)),
            cv: Condvar::new(),
        })
    }

    /// Blocks the calling (device) thread if the gate says so.
    fn pass(&self, is_sync: bool) {
        let mut st = self.state.lock().unwrap();
        let blocked = if st.open {
            false
        } else if is_sync {
            st.gate_sync
        } else if st.allow_writes > 0 {
            st.allow_writes -= 1;
            false
        } else {
            true
        };
        if blocked {
            st.parked = true;
            self.cv.notify_all();
            while !st.open {
                st = self.cv.wait(st).unwrap();
            }
            st.parked = false;
        }
    }

    /// Test side: wait until the apply thread is parked at the gate.
    fn wait_parked(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.parked {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Test side: release everything, until the gate is closed again.
    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// Test side: close an open gate again, to park per `park` from now
    /// on (nothing may be parked on it).
    fn close(&self, park: Park) {
        let mut st = self.state.lock().unwrap();
        assert!(!st.parked);
        *st = GateState::closed(park);
    }
}

/// Opens the gate when dropped, so a failed assertion inside a thread
/// scope unparks the apply instead of hanging the scope's join.
struct OpenOnDrop<'a>(&'a Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A segment device whose writes and syncs pass through a [`Gate`].
struct GatedDevice {
    inner: Arc<MemDevice>,
    gate: Arc<Gate>,
}

impl Device for GatedDevice {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        self.gate.pass(false);
        self.inner.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        self.gate.pass(true);
        self.inner.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.inner.set_len(len)
    }
}

/// One world with a gated segment: the log is a plain memory device, the
/// segment `seg` parks per the gate, and every other name (sidecars,
/// other segments) resolves to a plain memory device of its own.
struct GatedWorld {
    log: Arc<MemDevice>,
    seg_inner: Arc<MemDevice>,
    gate: Arc<Gate>,
    resolver: DeviceResolver,
}

impl GatedWorld {
    fn new(log_len: u64, park: Park) -> Self {
        let seg_inner = Arc::new(MemDevice::with_len(REGION_LEN));
        let gate = Gate::closed(park);
        let gated: Arc<dyn Device> = Arc::new(GatedDevice {
            inner: seg_inner.clone(),
            gate: gate.clone(),
        });
        // The checksum sidecar stays ungated: the gate models a stuck
        // *segment*, and parking catalog maintenance would stall `map`
        // before the scenario even starts.
        let ungated = MemResolver::new();
        let resolver: DeviceResolver = Arc::new(move |name, min| {
            if name != "seg" {
                return ungated.resolve(name, min);
            }
            if gated.len()? < min {
                gated.set_len(min)?;
            }
            Ok(gated.clone())
        });
        Self {
            log: Arc::new(MemDevice::with_len(log_len)),
            seg_inner,
            gate,
            resolver,
        }
    }

    fn boot(&self) -> Rvm {
        self.boot_with_threshold(0.99)
    }

    /// A threshold of 1.0 never triggers: only a full log truncates.
    fn boot_with_threshold(&self, truncation_threshold: f64) -> Rvm {
        self.boot_tuned(Tuning {
            truncation_threshold,
            ..Tuning::default()
        })
    }

    fn boot_tuned(&self, tuning: Tuning) -> Rvm {
        Rvm::initialize(
            Options::new(self.log.clone())
                .resolver(self.resolver.clone())
                .tuning(tuning)
                .create_if_empty(),
        )
        .expect("initialize")
    }
}

/// Commits slots `1..` until an epoch truncation has completed,
/// publishing each acknowledged value through `acked`. Over a tiny log
/// with no trigger, the commit that finds the log full runs the epoch.
fn commit_until_an_epoch_completes(rvm: &Rvm, region: &rvm::Region, acked: &AtomicU64) {
    let mut i = 1;
    while rvm.stats().epoch_truncations == 0 {
        commit_slot(rvm, region, i);
        acked.store(i, Ordering::SeqCst);
        i += 1;
    }
}

/// Commits `value` into slot `value % SLOTS` (8-byte range, slots far
/// enough apart that an epoch apply without a checksum catalog makes one
/// segment write per slot; with one it writes the two pages).
fn commit_slot(rvm: &Rvm, region: &rvm::Region, value: u64) {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region
        .put_u64(&mut txn, (value % SLOTS) * SLOT_STRIDE, value)
        .unwrap();
    txn.commit(CommitMode::Flush).unwrap();
}

/// The latest value committed into `slot` after `committed` sequential
/// `commit_slot` calls (1..=committed).
fn expected_slot(slot: u64, committed: u64) -> u64 {
    (1..=committed)
        .rev()
        .find(|i| i % SLOTS == slot)
        .unwrap_or(0)
}

fn assert_slots(region: &rvm::Region, committed: u64, ctx: &str) {
    for s in 0..SLOTS {
        assert_eq!(
            region.get_u64(s * SLOT_STRIDE).unwrap(),
            expected_slot(s, committed),
            "{ctx}: slot {s}"
        );
    }
}

/// The headline property: with the epoch apply parked mid-span on the
/// gated segment, commits still complete — their latency is bounded by
/// the log force, not by the truncation. If commits serialized behind
/// the apply (the pre-concurrent behavior), this test would deadlock:
/// the gate only opens after the commits have finished.
#[test]
fn commits_progress_while_epoch_apply_is_parked() {
    let world = GatedWorld::new(256 * 1024, Park::Writes(0));
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    for i in 1..=32 {
        commit_slot(&rvm, &region, i);
    }

    std::thread::scope(|s| {
        let handle = s.spawn(|| rvm.truncate());
        world.gate.wait_parked();
        assert!(rvm.query().truncation_in_flight);

        // 16 commits land while the apply is provably stuck.
        let before = rvm.stats().commits_during_truncation;
        for i in 33..=48 {
            commit_slot(&rvm, &region, i);
        }
        let during = rvm.stats().commits_during_truncation - before;
        assert!(
            during >= 16,
            "all 16 commits ran inside the apply window, counted {during}"
        );
        assert!(rvm.query().truncation_in_flight);

        world.gate.open();
        handle.join().unwrap().unwrap();
    });

    // The epoch advanced the head past its span; only the 16 new-epoch
    // records remain live.
    let q = rvm.query();
    assert!(!q.truncation_in_flight);
    assert_eq!(rvm.stats().epochs_truncated, 1);
    assert!(q.log.used > 0, "new-epoch records stay live");
    rvm.truncate().unwrap();
    assert_eq!(rvm.query().log.used, 0);
    assert_slots(&region, 48, "after both truncations");
    drop(region);
    rvm.terminate().unwrap();

    // Reboot: the segment alone (log empty) holds every commit.
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_slots(&region, 48, "after reboot");
}

/// Who starts the epoch whose apply the crash interrupts.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Starter {
    /// An explicit `truncate()` over a roomy log.
    Truncate,
    /// A flush commit that finds a tiny log full (no trigger configured).
    LogFullCommit,
}

/// The crash matrix: snapshot the devices while the epoch apply is
/// parked at each stage — before the first segment write, after one,
/// mid-span, and after every write but before the sync — whoever started
/// the epoch, with and without commits landing in the new epoch during
/// the park (a full log admits none), and in both shapes an apply takes:
/// with a checksum catalog it writes each of the region's two pages
/// whole, so "after one" is its mid-span; without one it writes the
/// sixteen slots one by one. Reboot the snapshot; recovery must report
/// the interrupted epoch and restore every acknowledged commit.
#[test]
fn crash_at_every_stage_of_an_inflight_epoch_recovers() {
    const PAGE_WRITES: &[Park] = &[Park::Writes(0), Park::Writes(1), Park::Sync];
    const PIECE_WRITES: &[Park] = &[
        Park::Writes(0),
        Park::Writes(1),
        Park::Writes(5),
        Park::Sync,
    ];
    for starter in [Starter::Truncate, Starter::LogFullCommit] {
        for (checksums, parks) in [(true, PAGE_WRITES), (false, PIECE_WRITES)] {
            for &park in parks {
                for commits_during in [0u64, 6] {
                    if starter == Starter::LogFullCommit && commits_during > 0 {
                        continue;
                    }
                    crash_mid_epoch_and_recover(starter, checksums, park, commits_during);
                }
            }
        }
    }
}

fn crash_mid_epoch_and_recover(starter: Starter, checksums: bool, park: Park, commits_during: u64) {
    let ctx = format!(
        "{starter:?}, checksums {checksums}, park {park:?}, {commits_during} new-epoch commits"
    );
    let (log_len, truncation_threshold, preload) = match starter {
        Starter::Truncate => (256 * 1024, 0.99, 40),
        Starter::LogFullCommit => (TINY_LOG, 1.0, 0),
    };
    let world = GatedWorld::new(log_len, park);
    let rvm = world.boot_tuned(Tuning {
        truncation_threshold,
        segment_checksums: checksums,
        ..Tuning::default()
    });
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    for i in 1..=preload {
        commit_slot(&rvm, &region, i);
    }
    // Highest value whose commit has returned.
    let acked = AtomicU64::new(preload);

    let (log_image, seg_image, committed) = std::thread::scope(|s| {
        let _open = OpenOnDrop(&world.gate);
        let handle = s.spawn(|| match starter {
            Starter::Truncate => rvm.truncate().unwrap(),
            Starter::LogFullCommit => commit_until_an_epoch_completes(&rvm, &region, &acked),
        });
        world.gate.wait_parked();
        // Commits that land in the new epoch before the crash.
        for i in preload + 1..=preload + commits_during {
            commit_slot(&rvm, &region, i);
            acked.store(i, Ordering::SeqCst);
        }
        // The crash image: both devices, frozen mid-apply. The commit
        // that found the log full is not acknowledged and not in it.
        let images = (
            world.log.snapshot(),
            world.seg_inner.snapshot(),
            acked.load(Ordering::SeqCst),
        );
        world.gate.open();
        handle.join().unwrap();
        images
    });
    drop(region);
    drop(rvm);

    // Reboot the crash image.
    let crash_log = Arc::new(MemDevice::from_image(log_image));
    let segments = MemResolver::new();
    segments.resolve("seg", REGION_LEN).unwrap();
    segments.get("seg").unwrap().restore(seg_image);
    let rvm =
        Rvm::initialize(Options::new(crash_log.clone()).resolver(segments.clone().into_resolver()))
            .unwrap();
    assert!(
        rvm.recovery_report().interrupted_epoch,
        "{ctx}: the status block carried the epoch boundary"
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_slots(&region, committed, &ctx);

    // The recovered instance is fully live: commit once more and
    // reboot again over the same devices.
    commit_slot(&rvm, &region, committed + 1);
    drop(region);
    drop(rvm);
    let rvm = Rvm::initialize(Options::new(crash_log).resolver(segments.clone().into_resolver()))
        .unwrap();
    assert!(!rvm.recovery_report().interrupted_epoch, "{ctx}");
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_slots(&region, committed + 1, &ctx);
}

/// A commit that finds the log full runs the *same* epoch as everyone
/// else: it parks in the off-lock apply with the epoch visible to
/// `query`, other work that needs the core lock proceeds meanwhile, and
/// the epoch is counted once by both counters.
#[test]
fn log_full_commit_runs_the_same_epoch() {
    let world = GatedWorld::new(TINY_LOG, Park::Writes(0));
    let rvm = world.boot_with_threshold(1.0);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    let acked = AtomicU64::new(0);

    std::thread::scope(|s| {
        let _open = OpenOnDrop(&world.gate);
        let committer = s.spawn(|| commit_until_an_epoch_completes(&rvm, &region, &acked));
        world.gate.wait_parked();
        assert!(rvm.query().truncation_in_flight);
        assert_eq!(rvm.stats().epoch_truncations, 0, "parked before completing");

        // The apply is provably stuck, yet a map of another segment and
        // a no-flush commit — both need what the committer would be
        // holding if the epoch ran under the core lock — complete.
        let other = rvm
            .map(&RegionDescriptor::new("other", 0, PAGE_SIZE))
            .unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        other.put_u64(&mut txn, 0, 7).unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
        assert!(rvm.query().truncation_in_flight);

        world.gate.open();
        committer.join().unwrap();
    });

    let stats = rvm.stats();
    assert!(!rvm.query().truncation_in_flight);
    assert_eq!((stats.epoch_truncations, stats.epochs_truncated), (1, 1));
    assert!(
        stats.truncation_stall_ns > 0,
        "the committer stalled for it"
    );
    assert_slots(&region, acked.load(Ordering::SeqCst), "after the epoch");
}

/// §4.1: no two mappings may overlap — also when both `map` calls are
/// in flight at once and each releases the core lock to settle the
/// segment. An epoch over `seg`'s live records (left by an earlier
/// mapping) is parked in its apply; A maps pages `[0, 2)` and B maps
/// `[1, 3)`, and both wait the epoch out. Exactly one of them may succeed.
#[test]
fn overlapping_maps_racing_through_the_settle_cannot_both_succeed() {
    const SEG_LEN: u64 = 3 * PAGE_SIZE;
    let world = GatedWorld::new(256 * 1024, Park::Writes(0));
    let rvm = world.boot();
    let first = rvm.map(&RegionDescriptor::new("seg", 0, SEG_LEN)).unwrap();
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    first.put_u64(&mut txn, PAGE_SIZE, 42).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    rvm.unmap(&first).unwrap();
    drop(first);

    let (a, b) = std::thread::scope(|s| {
        let _open = OpenOnDrop(&world.gate);
        let truncator = s.spawn(|| rvm.truncate());
        world.gate.wait_parked();
        // Both maps have entered once each has gone for the core lock,
        // which is free (the apply runs without it, and a map that waits
        // for the epoch releases it). The assertions below hold under any
        // interleaving; the pause only makes it likely that both are
        // parked in the settle when the gate opens, which is the schedule
        // an unchecked insert would get wrong.
        let before = rvm.core_lock_acquisitions();
        let a = s.spawn(|| rvm.map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE)));
        let b = s.spawn(|| rvm.map(&RegionDescriptor::new("seg", PAGE_SIZE, 2 * PAGE_SIZE)));
        while rvm.core_lock_acquisitions() < before + 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        world.gate.open();
        truncator.join().unwrap().unwrap();
        (a.join().unwrap(), b.join().unwrap())
    });

    let refused = [&a, &b]
        .iter()
        .filter(|r| matches!(r, Err(RvmError::BadMapping(_))))
        .count();
    assert_eq!(refused, 1, "a: {a:?}, b: {b:?}");
    assert_eq!(rvm.query().mapped_regions, 1);
    // Page 1 of the segment sits at a different offset in each range.
    let (winner, page_1) = match (a, b) {
        (Ok(region), _) => (region, PAGE_SIZE),
        (_, Ok(region)) => (region, 0),
        (Err(a), Err(b)) => panic!("both refused: {a:?}, {b:?}"),
    };
    assert_eq!(winner.get_u64(page_1).unwrap(), 42, "the committed image");
}

/// A `map` settles what was committed *before* it, not what sibling
/// regions of the same segment (Coda maps several per segment) commit
/// while it waits. The map of page 1 starts the epoch over page 0's live
/// records and parks in its apply; page 0 keeps committing meanwhile.
/// Once the gate opens the map returns after that one epoch, leaving the
/// new-epoch records live — it must not chase the tail.
#[test]
fn map_of_a_sibling_region_settles_only_what_predates_it() {
    let world = GatedWorld::new(256 * 1024, Park::Writes(0));
    let rvm = world.boot();
    let first = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let commit_first = |value: u64| {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        first.put_u64(&mut txn, (value % 8) * 8, value).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
    };
    (1..=4).for_each(commit_first);

    let second = std::thread::scope(|s| {
        let _open = OpenOnDrop(&world.gate);
        let (tx, rx) = std::sync::mpsc::channel();
        let rvm = &rvm;
        s.spawn(move || {
            let mapped = rvm.map(&RegionDescriptor::new("seg", PAGE_SIZE, PAGE_SIZE));
            tx.send(mapped).unwrap();
        });
        world.gate.wait_parked();
        assert!(rvm.query().truncation_in_flight, "the map runs the epoch");
        (5..=8).for_each(commit_first);
        world.gate.open();
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("map starved behind commits to a sibling region")
            .unwrap()
    });

    assert_eq!(rvm.stats().epoch_truncations, 1, "one epoch was enough");
    assert!(rvm.query().log.used > 0, "new-epoch records stay live");
    assert_eq!(second.get_u64(0).unwrap(), 0);
    for value in 1..=8 {
        assert_eq!(first.get_u64((value % 8) * 8).unwrap(), value);
    }
}

/// A crash *after* the epoch completed (head advanced, boundary cleared)
/// is ordinary recovery: nothing to re-apply, no interrupted epoch.
#[test]
fn crash_after_epoch_completion_is_ordinary_recovery() {
    let world = GatedWorld::new(256 * 1024, Park::Writes(0));
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    for i in 1..=24 {
        commit_slot(&rvm, &region, i);
    }
    std::thread::scope(|s| {
        let handle = s.spawn(|| rvm.truncate());
        world.gate.wait_parked();
        world.gate.open();
        handle.join().unwrap().unwrap();
    });
    let (log_image, seg_image) = (world.log.snapshot(), world.seg_inner.snapshot());
    drop(region);
    std::mem::forget(rvm); // the "crash": the instance never shuts down

    let segments = MemResolver::new();
    segments.resolve("seg", REGION_LEN).unwrap();
    segments.get("seg").unwrap().restore(seg_image);
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::from_image(log_image)))
            .resolver(segments.clone().into_resolver()),
    )
    .unwrap();
    assert!(!rvm.recovery_report().interrupted_epoch);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_slots(&region, 24, "post-completion crash");
}

/// The segment table must be durable before any record can carry a new
/// segment's id — so `map` persists the entry under the hold that
/// creates it. The crash image taken the moment `map` returns already
/// lists the segment, and a record committed into it right after is
/// recovered.
#[test]
fn new_segment_is_durable_before_map_releases_the_core_lock() {
    let log = Arc::new(MemDevice::with_len(256 * 1024));
    let segments = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(log.clone())
            .resolver(segments.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let fresh = rvm
        .map(&RegionDescriptor::new("fresh", 0, PAGE_SIZE))
        .unwrap();
    let status = read_status(&MemDevice::from_image(log.snapshot())).unwrap();
    assert!(status.segments.iter().any(|seg| seg.name == "fresh"));
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    fresh.put_u64(&mut txn, 3 * 8, 4).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    let image = log.snapshot();
    drop(fresh);
    std::mem::forget(rvm); // the "crash"

    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::from_image(image))).resolver(segments.into_resolver()),
    )
    .unwrap();
    let fresh = rvm
        .map(&RegionDescriptor::new("fresh", 0, PAGE_SIZE))
        .unwrap();
    assert_eq!(fresh.get_u64(3 * 8).unwrap(), 4);
}

/// A log device whose first write once armed parks at the gate and then
/// fails for good without reaching the medium: a batch whose bytes stay
/// a hole. Every other write and force passes straight through.
struct HoleLog {
    inner: Arc<MemDevice>,
    gate: Arc<Gate>,
    armed: AtomicBool,
}

impl Device for HoleLog {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.gate.pass(false);
            return Err(DeviceError::Injected {
                op: FaultOp::Write,
                transient: false,
            });
        }
        self.inner.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        self.inner.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.inner.set_len(len)
    }
}

/// `flush()` returns `Ok` only when every record at or below the spool's
/// last one is written and forced. A flush committer's batch is in
/// flight — its leader parked in the write, holding the core lock; a
/// second thread commits lazily and calls `flush()`; then the parked
/// write fails. The drain is behind the failed batch, so it must fail
/// with it: were it to append above the unwritten batch and force on its
/// own, `flush()` would promise a record that recovery — whose scan stops
/// at the hole — can never find.
#[test]
fn flush_cannot_acknowledge_records_above_a_batch_still_in_flight() {
    let gate = Gate::closed(Park::Writes(0));
    let log = Arc::new(MemDevice::with_len(256 * 1024));
    let segments = MemResolver::new();
    let hole = Arc::new(HoleLog {
        inner: log.clone(),
        gate: gate.clone(),
        armed: AtomicBool::new(false),
    });
    let rvm = Rvm::initialize(
        Options::new(hole.clone())
            .resolver(segments.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let commit = |slot: u64, mode| {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.put_u64(&mut txn, slot * 8, slot + 1).unwrap();
        txn.commit(mode)
    };
    hole.armed.store(true, Ordering::SeqCst);

    let (flushed, image) = std::thread::scope(|s| {
        let _open = OpenOnDrop(&gate);
        let committer = s.spawn(move || commit(1, CommitMode::Flush));
        gate.wait_parked();
        let flusher = s.spawn(|| {
            commit(3, CommitMode::NoFlush).unwrap();
            let flushed = rvm.flush();
            // What a crash right after `flush()` returned would keep.
            (flushed, log.snapshot())
        });
        // Let the drain queue up behind the parked leader.
        while rvm.stats().no_flush_commits == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.open();
        let outcome = committer.join().unwrap();
        assert!(
            matches!(outcome, Err(RvmError::Device(_))),
            "the commit in the failed batch returned {outcome:?}"
        );
        flusher.join().unwrap()
    });
    assert!(rvm.is_poisoned());
    drop(region);
    std::mem::forget(rvm); // the "crash"

    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::from_image(image))).resolver(segments.into_resolver()),
    )
    .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let recovered = region.get_u64(3 * 8).unwrap();
    assert!(
        flushed.is_err() || recovered == 4,
        "flush() returned Ok, yet a crash right after it recovers {recovered} where the lazy \
         commit wrote 4: its record sits above a hole"
    );
    assert!(
        matches!(flushed, Err(RvmError::Device(_) | RvmError::Poisoned)),
        "flush() behind a failed batch returned {flushed:?}"
    );
}

/// `commit_slot` on a thread of its own, failing the test unless it
/// returns within ten seconds — which is how a commit stuck behind a
/// parked apply that holds the core lock shows up. (The caller's
/// [`OpenOnDrop`] then unparks everything.)
fn commit_slot_in_time<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    rvm: &'scope Rvm,
    region: &'scope rvm::Region,
    value: u64,
    ctx: &str,
) {
    let (tx, rx) = std::sync::mpsc::channel();
    s.spawn(move || {
        commit_slot(rvm, region, value);
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{ctx}: commit {value} is stuck behind the parked apply"));
}

/// Incremental mode whose trigger never fires; [`arm_trigger`] makes the
/// next commit run a step.
fn incremental_untriggered() -> Tuning {
    Tuning {
        truncation_mode: TruncationMode::Incremental,
        truncation_threshold: 0.99,
        ..Tuning::default()
    }
}

/// From now on every commit that leaves anything live triggers a step.
fn arm_trigger(rvm: &Rvm) {
    rvm.set_options(Tuning {
        truncation_threshold: 0.0001,
        ..rvm.options()
    });
}

/// The step is off the core lock: with its apply parked on the first
/// page write, or on the segment sync, commits return — and are counted
/// as having run during a truncation, which `query` reports in flight.
/// While the step held the core lock across its writes, the first of
/// these commits never came back.
#[test]
fn commits_progress_while_an_incremental_step_is_parked() {
    for park in [Park::Writes(0), Park::Sync] {
        let ctx = format!("park {park:?}");
        let world = GatedWorld::new(256 * 1024, park);
        let rvm = world.boot_tuned(incremental_untriggered());
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
            .unwrap();
        for i in 1..=16 {
            commit_slot(&rvm, &region, i);
        }
        arm_trigger(&rvm);

        std::thread::scope(|s| {
            let _open = OpenOnDrop(&world.gate);
            // This commit's inline trigger runs the step and parks in it.
            let stepper = s.spawn(|| commit_slot(&rvm, &region, 17));
            world.gate.wait_parked();

            let before = rvm.stats().commits_during_truncation;
            for i in 18..=25 {
                commit_slot_in_time(s, &rvm, &region, i, &ctx);
            }
            let during = rvm.stats().commits_during_truncation - before;
            assert_eq!(
                during, 8,
                "{ctx}: all 8 commits ran inside the apply window"
            );
            assert!(rvm.query().truncation_in_flight, "{ctx}");
            assert_eq!(
                rvm.stats().incremental_steps,
                0,
                "{ctx}: parked before completing"
            );

            world.gate.open();
            stepper.join().unwrap();
        });

        let (q, stats) = (rvm.query(), rvm.stats());
        assert!(!q.truncation_in_flight, "{ctx}");
        assert_eq!(
            (
                stats.incremental_steps,
                stats.pages_written_incremental,
                stats.epoch_truncations
            ),
            (1, 2, 0),
            "{ctx}"
        );
        // The step froze what 1..=17 wrote; the 8 records that landed
        // during its apply stay live, and so do the pages they dirtied.
        assert_eq!(q.log.used, 8 * 512, "{ctx}: {:?}", q.log);
        assert_slots(&region, 25, &ctx);
        drop(region);
        rvm.terminate().unwrap();

        let rvm = world.boot();
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
            .unwrap();
        assert_slots(&region, 25, &format!("{ctx}, after reboot"));
    }
}

/// The step's crash matrix: snapshot the devices while its apply is
/// parked before the first page write, after one of two, and after both
/// but before the sync, with and without commits landing during the
/// park. An earlier step has completed, so part of the image is on the
/// segment alone. A step persists nothing before it completes — no
/// boundary, the head unmoved — so recovery replays from the old head
/// over whatever the page writes left and must restore every commit
/// whose record was forced, the one whose trigger ran the step included.
#[test]
fn crash_at_every_stage_of_an_inflight_step_recovers() {
    for park in [Park::Writes(0), Park::Writes(1), Park::Sync] {
        for commits_during in [0u64, 6] {
            crash_mid_step_and_recover(park, commits_during);
        }
    }
}

fn crash_mid_step_and_recover(park: Park, commits_during: u64) {
    let ctx = format!("park {park:?}, {commits_during} commits during the apply");
    let world = GatedWorld::new(256 * 1024, park);
    world.gate.open();
    let rvm = world.boot_tuned(incremental_untriggered());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    // A first step, ungated: commits 1..=20 reach the segment and leave
    // the log.
    for i in 1..=19 {
        commit_slot(&rvm, &region, i);
    }
    arm_trigger(&rvm);
    commit_slot(&rvm, &region, 20);
    assert_eq!(rvm.stats().incremental_steps, 1, "{ctx}");
    assert_eq!(rvm.query().log.used, 0, "{ctx}");
    // Both pages dirty again, then the step the crash interrupts.
    rvm.set_options(incremental_untriggered());
    for i in 21..=39 {
        commit_slot(&rvm, &region, i);
    }
    arm_trigger(&rvm);
    world.gate.close(park);

    let (log_image, seg_image, committed) = std::thread::scope(|s| {
        let _open = OpenOnDrop(&world.gate);
        let stepper = s.spawn(|| commit_slot(&rvm, &region, 40));
        world.gate.wait_parked();
        for i in 41..41 + commits_during {
            commit_slot_in_time(s, &rvm, &region, i, &ctx);
        }
        // The crash image: both devices, frozen mid-apply. Commit 40 has
        // not returned, but its record was forced before its trigger ran.
        let images = (
            world.log.snapshot(),
            world.seg_inner.snapshot(),
            40 + commits_during,
        );
        world.gate.open();
        stepper.join().unwrap();
        images
    });
    drop(region);
    drop(rvm);

    // Reboot the crash image.
    let crash_log = Arc::new(MemDevice::from_image(log_image));
    let segments = MemResolver::new();
    segments.resolve("seg", REGION_LEN).unwrap();
    segments.get("seg").unwrap().restore(seg_image);
    let rvm =
        Rvm::initialize(Options::new(crash_log.clone()).resolver(segments.clone().into_resolver()))
            .unwrap();
    let report = rvm.recovery_report();
    assert!(!report.interrupted_epoch, "{ctx}: a step draws no boundary");
    assert_eq!(
        report.records_replayed as u64,
        20 + commits_during,
        "{ctx}: the head had not moved"
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_slots(&region, committed, &ctx);

    // The recovered instance is fully live: commit once more and
    // reboot again over the same devices.
    commit_slot(&rvm, &region, committed + 1);
    drop(region);
    drop(rvm);
    let rvm = Rvm::initialize(Options::new(crash_log).resolver(segments.clone().into_resolver()))
        .unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_slots(&region, committed + 1, &ctx);
}

/// A commit that lands while a step applies and writes to a page the
/// step froze dirties that page again: the segment gets the frozen copy,
/// without it. So the page must stay dirty and queued at the new record's
/// offset, and the head must stop there — a head that followed the stable
/// end instead would drop the one record that can redo the commit.
#[test]
fn a_commit_that_redirties_a_batched_page_keeps_its_descriptor() {
    let world = GatedWorld::new(256 * 1024, Park::Writes(0));
    let rvm = world.boot_tuned(incremental_untriggered());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    // One 512-byte record each: page 0 (slot 1) at offset 0, page 1
    // (slot 9) at 512.
    commit_slot(&rvm, &region, 1);
    commit_slot(&rvm, &region, 9);
    arm_trigger(&rvm);

    std::thread::scope(|s| {
        let _open = OpenOnDrop(&world.gate);
        // Page 0 again (slot 2, offset 1024); its trigger freezes both
        // pages and parks before the first write.
        let stepper = s.spawn(|| commit_slot(&rvm, &region, 2));
        world.gate.wait_parked();
        // Page 0 once more, at offset 1536, while the frozen copy —
        // which cannot hold it — is on its way to the segment.
        commit_slot_in_time(s, &rvm, &region, 3, "redirty");
        assert_eq!(rvm.query().queued_pages, 1, "re-enqueued during the apply");
        world.gate.open();
        stepper.join().unwrap();
    });

    let q = rvm.query();
    assert_eq!(rvm.stats().pages_written_incremental, 2);
    assert_eq!(
        region.dirty_pages(),
        [0],
        "page 0 was re-dirtied, page 1 is clean"
    );
    assert_eq!(q.queued_pages, 1, "page 0 keeps its new descriptor");
    assert_eq!(
        (q.log.head, q.log.tail),
        (1536, 2048),
        "the head stops at the record that re-dirtied page 0"
    );
    let mut on_segment = [0u8; 8];
    world
        .seg_inner
        .read_at(3 * SLOT_STRIDE, &mut on_segment)
        .unwrap();
    assert_eq!(on_segment, [0; 8], "the frozen copy predates commit 3");

    // Crash now: only the live record can bring commit 3 back.
    let (log_image, seg_image) = (world.log.snapshot(), world.seg_inner.snapshot());
    drop(region);
    std::mem::forget(rvm);
    let segments = MemResolver::new();
    segments.resolve("seg", REGION_LEN).unwrap();
    segments.get("seg").unwrap().restore(seg_image);
    let rvm = Rvm::initialize(
        Options::new(Arc::new(MemDevice::from_image(log_image))).resolver(segments.into_resolver()),
    )
    .unwrap();
    assert_eq!(rvm.recovery_report().records_replayed, 1);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    for (slot, value) in [(1, 1), (2, 2), (3, 3), (9, 9)] {
        assert_eq!(
            region.get_u64(slot * SLOT_STRIDE).unwrap(),
            value,
            "slot {slot}"
        );
    }
}

/// Incremental truncation writes a page's *committed* image, whatever
/// happens to VM while its segment writes are under way. One flush commit
/// dirties both pages of the region and its inline trigger parks on page
/// 0's segment write; a second transaction then writes page 1 and aborts.
/// The log head has passed the only record that could redo page 1, so the
/// bytes the write-back put on the segment are the bytes a crash keeps.
#[test]
fn incremental_write_back_never_carries_uncommitted_bytes() {
    let world = GatedWorld::new(256 * 1024, Park::Writes(0));
    let rvm = world.boot_tuned(Tuning {
        truncation_mode: TruncationMode::Incremental,
        truncation_threshold: 0.0001,
        ..Tuning::default()
    });
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_eq!(REGION_LEN, 2 * PAGE_SIZE);

    std::thread::scope(|s| {
        let _unpark = OpenOnDrop(&world.gate);
        let committer = s.spawn(|| {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, 0, &[0x11; 8]).unwrap();
            region.write(&mut txn, PAGE_SIZE, &[0x11; 8]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        });
        world.gate.wait_parked();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.write(&mut txn, PAGE_SIZE, &[0xEE; 8]).unwrap();
        world.gate.open();
        committer.join().unwrap();
        txn.abort().unwrap();
    });
    assert_eq!(rvm.stats().pages_written_incremental, 2);
    assert_eq!(rvm.query().log.used, 0, "the head passed the record");

    let mut on_segment = [0u8; 8];
    world.seg_inner.read_at(PAGE_SIZE, &mut on_segment).unwrap();
    assert_eq!(
        on_segment, [0x11; 8],
        "incremental truncation wrote an aborted transaction's bytes to the segment"
    );
    std::mem::forget(rvm); // crash
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, REGION_LEN))
        .unwrap();
    assert_eq!(region.read_vec(0, 8).unwrap(), [0x11; 8]);
    assert_eq!(region.read_vec(PAGE_SIZE, 8).unwrap(), [0x11; 8]);
}
