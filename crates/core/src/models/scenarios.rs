//! The scenarios [`Explorer`] runs over a real `Rvm`: in-memory devices
//! on one [`FaultClock`] that loses unsynced writes, each [`Watched`], and
//! a region of two pages per *key*; a thread commits under its own key,
//! writing the value to the first word of both pages. Setup's records go to key
//! [`PREFILLED`], and key [`UNMAPPED`]'s region is unmapped and mapped
//! again.
//!
//! The oracle, after every thread has finished: no operation failed that
//! should not have; memory holds each key's last committed value (an
//! unmapped region mapped again to look); every page with a queued
//! descriptor is dirty; and after the clock crashes and a fresh instance
//! recovers, [`rvm_reference::admits`] the segment, each key a stream of
//! its commits, durable up to the last value known durable.

use std::sync::{Arc, Mutex};

use rvm_reference::{Commit, History, Images, Write};
use rvm_storage::{Device, FaultClock, FaultDevice, FaultOp, FlakyFault, MemDevice};

use super::explore::{self, Explorer, Violation};
use crate::error::RvmError;
use crate::log::{record::padded_len, record::RANGE_ENTRY_SIZE, status::LOG_AREA_START};
use crate::options::MutationHooks;
use crate::segment::{flaky_resolver, MemResolver};
use crate::{CommitMode, Options, Region, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};

const KEYS: usize = 4;
const PREFILLED: usize = 1;
pub(super) const UNMAPPED: usize = 3;
const SLOTS: [u64; 2] = [0, PAGE_SIZE];

/// What sets a scenario apart.
#[derive(Clone, Copy, Default, PartialEq)]
pub(super) enum Twist {
    #[default]
    None,
    /// A commit to [`UNMAPPED`] races its unmap: either may be refused.
    RacingUnmap,
    /// Every sync after setup fails for good.
    FailingSync,
    /// A `flush()` that returns crashes the clock at once.
    CrashAtBarrier,
    /// A leader waits a fixed window for company.
    Wait,
    /// Every condvar wait is split (see [`Explorer::split_wait`]).
    SplitWait,
}

#[derive(Clone, Copy, Default)]
pub(super) struct Setup {
    /// Records committed in setup: three leave room for one more.
    pub prefill: u64,
    pub twist: Twist,
    pub hooks: MutationHooks,
    pub bound: usize,
}

pub(super) fn setup(prefill: u64, twist: Twist) -> Setup {
    Setup {
        prefill,
        twist,
        bound: Explorer::default().bound,
        ..Setup::default()
    }
}

impl Setup {
    pub(super) fn hooked(mut self, hook: fn(&mut MutationHooks)) -> Setup {
        hook(&mut self.hooks);
        self
    }
}

/// A device whose `read_at`, `write_at`, `sync` and `set_len` are each a
/// scheduling point on an object named for it; all but `read_at` write.
struct Watched(u64, Arc<dyn Device>);

impl Device for Watched {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.1.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        explore::point(self.0, false);
        self.1.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        explore::point(self.0, true);
        self.1.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        explore::point(self.0, true);
        self.1.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        explore::point(self.0, true);
        self.1.set_len(len)
    }
}

/// A world's devices, each by the object it is watched as; a crash writes
/// them all. An instance resolves a segment once: one name a device.
type Devices = Arc<Mutex<Vec<u64>>>;

fn watch(devices: &Devices, dev: Arc<dyn Device>) -> Arc<dyn Device> {
    let object = explore::name();
    devices.lock().unwrap().push(object);
    Arc::new(Watched(object, dev))
}

pub(super) struct World {
    setup: Setup,
    clock: Arc<FaultClock>,
    devices: Devices,
    log: Arc<MemDevice>,
    segs: MemResolver,
    rvm: Rvm,
    regions: Mutex<[Option<Region>; KEYS]>,
    /// Per key: the last value attempted, committed, known durable.
    seen: Mutex<[[u64; 3]; KEYS]>,
    errors: Mutex<Vec<String>>,
}

fn desc(key: usize) -> RegionDescriptor {
    RegionDescriptor::new("seg", 2 * key as u64 * PAGE_SIZE, 2 * PAGE_SIZE)
}

impl World {
    fn build(setup: Setup, faults: Vec<FlakyFault>) -> World {
        let clock = FaultClock::new(faults);
        let four_records = 4 * padded_len(SLOTS.len() as u64 * (RANGE_ENTRY_SIZE + 8));
        let log = Arc::new(MemDevice::with_len(LOG_AREA_START + four_records));
        let segs = MemResolver::new();
        let tuning = Tuning {
            truncation_threshold: 1.0,
            group_commit_wait_us: if setup.twist == Twist::Wait { 20 } else { 0 },
            // The catalog sits below both planes (crashmc's `bitrot` and
            // `it_media` check it); its lock would only add choices here.
            segment_checksums: false,
            ..Tuning::default()
        };
        let devices = Devices::default();
        let faulty = Arc::new(FaultDevice::with_clock(log.clone(), clock.clone()));
        let resolve = flaky_resolver(segs.clone().into_resolver(), clock.clone());
        let watched = devices.clone();
        let options =
            Options::new(watch(&devices, faulty)).resolver(Arc::new(move |name: &str, len| {
                Ok(watch(&watched, resolve(name, len)?))
            }));
        let rvm = Rvm::initialize(options.tuning(tuning).create_if_empty()).expect("initialize");
        // The last region first: the segment's length is recorded once.
        let mut regions: [Option<Region>; KEYS] = Default::default();
        for key in (0..KEYS).rev() {
            regions[key] = Some(rvm.map(&desc(key)).expect("map"));
        }
        let (regions, seen, errors) = (Mutex::new(regions), Mutex::default(), Mutex::default());
        let world = World {
            setup,
            clock,
            devices,
            log,
            segs,
            rvm,
            regions,
            seen,
            errors,
        };
        (1..=setup.prefill).for_each(|v| world.commit(PREFILLED, v, CommitMode::Flush));
        world.rvm.shared.set_hooks(setup.hooks);
        world
    }

    fn region(&self, key: usize) -> Option<Region> {
        self.regions.lock().unwrap()[key].clone()
    }

    /// Records a failure, unless the world expects failures.
    fn check(&self, what: &str, result: crate::Result<()>) -> bool {
        if let Err(e) = &result {
            let raced = matches!(e, RvmError::Unmapped | RvmError::RegionBusy { .. })
                && self.setup.twist == Twist::RacingUnmap;
            if !raced && self.setup.twist != Twist::FailingSync && !self.clock.has_crashed() {
                self.errors.lock().unwrap().push(format!("{what}: {e}"));
            }
        }
        result.is_ok()
    }

    /// Runs `op`; on `Ok` every commit that returned before it is durable.
    fn barrier(&self, what: &str, op: impl FnOnce() -> crate::Result<()>) -> bool {
        let before = self.seen.lock().unwrap().map(|[_, committed, _]| committed);
        let ok = self.check(what, op());
        for (seen, committed) in self.seen.lock().unwrap().iter_mut().zip(before) {
            seen[2] = seen[2].max(if ok { committed } else { 0 });
        }
        ok
    }

    pub(super) fn commit(&self, key: usize, v: u64, mode: CommitMode) {
        self.seen.lock().unwrap()[key][0] = v;
        let run = || {
            let region = self.region(key).ok_or(RvmError::Unmapped)?;
            let mut txn = self.rvm.begin_transaction(TxnMode::Restore)?;
            for slot in SLOTS {
                region.put_u64(&mut txn, slot, v)?;
            }
            txn.commit(mode)
        };
        let ok = match mode {
            CommitMode::Flush => self.barrier("flush commit", run),
            CommitMode::NoFlush => self.check("no-flush commit", run()),
        };
        let durable = mode == CommitMode::Flush;
        if let (true, [_, committed, known]) = (ok, &mut self.seen.lock().unwrap()[key]) {
            (*committed, *known) = (v, if durable { v } else { *known });
        }
    }

    fn flush(&self) {
        if self.barrier("flush", || self.rvm.flush()) && self.setup.twist == Twist::CrashAtBarrier {
            for object in self.devices.lock().unwrap().clone() {
                explore::point(object, true);
            }
            self.clock.crash_now();
        }
    }

    pub(super) fn unmap(&self, key: usize) {
        let region = self.region(key).expect("mapped");
        let unmapped = self.check("unmap", self.rvm.unmap(&region));
        self.regions.lock().unwrap()[key].take_if(|_| unmapped);
    }

    /// Maps `key`'s region again, if it is unmapped, and compares it with
    /// the last commit.
    fn remap(&self, key: usize) {
        if self.region(key).is_none() {
            match self.rvm.map(&desc(key)) {
                Ok(region) => self.regions.lock().unwrap()[key] = Some(region),
                Err(e) => _ = self.check("map", Err(e)),
            }
        }
        self.compare_memory(key);
    }

    fn compare_memory(&self, key: usize) {
        let committed = self.seen.lock().unwrap()[key][1];
        let Some(region) = self.region(key) else {
            return;
        };
        for got in SLOTS.map(|slot| region.get_u64(slot).unwrap_or(u64::MAX)) {
            if got != committed {
                let message = format!("key {key}: memory holds {got}, committed {committed}");
                self.errors.lock().unwrap().push(message);
            }
        }
    }

    fn verdict(&self) -> Result<(), String> {
        (0..KEYS).for_each(|key| self.remap(key));
        if let Some(error) = self.errors.lock().unwrap().first() {
            return Err(error.clone());
        }
        let core = self.rvm.shared.core.lock();
        for (key, region) in self.regions.lock().unwrap().iter().enumerate() {
            let Some(region) = region else { continue };
            let dirty = region.dirty_pages();
            let queued = |page| core.page_queue.contains(region.inner.id, page);
            if let Some(page) = (0..2).find(|page| queued(*page) && !dirty.contains(page)) {
                return Err(format!("key {key}: page {page} is queued, not dirty"));
            }
        }
        drop(core);
        self.clock.crash_now();
        let options = Options::new(self.log.clone()).resolver(self.segs.clone().into_resolver());
        drop(Rvm::initialize(options).map_err(|e| format!("recovery: {e}"))?);
        // Each key is a stream: its commit v writes v to both slots.
        let seen = *self.seen.lock().unwrap();
        let commit = |key: usize, v: u64| Commit {
            stream: key as u32,
            writes: Vec::from(SLOTS.map(|slot| Write {
                segment: "seg".into(),
                offset: 2 * key as u64 * PAGE_SIZE + slot,
                bytes: v.to_le_bytes().to_vec(),
            })),
            durable: v <= seen[key][2],
        };
        let commits = (0..KEYS).flat_map(|key| (1..=seen[key][0]).map(move |v| commit(key, v)));
        let history = History {
            base: Images::new(),
            commits: commits.collect(),
        };
        let image = Images::from([("seg".into(), self.segs.get("seg").expect("seg").snapshot())]);
        rvm_reference::admits(&history, &image).map_err(|why| format!("recovered image: {why:?}"))
    }
}

/// Explores `threads` over worlds from `given`, and prints what it found.
fn search(given: Setup, threads: &[fn(&World)]) -> Result<u64, Violation> {
    let mut faults = Vec::new();
    if given.twist == Twist::FailingSync {
        let calm = World::build(setup(given.prefill, Twist::None), Vec::new());
        let first_sync = calm.clock.ops_seen().2 + 1;
        faults.push(FlakyFault::permanent(FaultOp::Sync, first_sync));
    }
    let (bound, split_wait) = (given.bound, given.twist == Twist::SplitWait);
    let explorer = Explorer { bound, split_wait };
    let started = std::time::Instant::now();
    let found = explorer.run(
        || World::build(given, faults.clone()),
        threads,
        World::verdict,
    );
    let elapsed = started.elapsed();
    match &found {
        Ok(runs) => eprintln!("{runs} runs, {elapsed:?}"),
        Err((_, schedule)) => eprintln!("witness of {} choices, {elapsed:?}", schedule.len()),
    }
    found
}

/// Every schedule within the bound passes.
pub(super) fn safe(setup: Setup, threads: &[fn(&World)]) {
    let found = search(setup, threads);
    assert!(found.is_ok(), "{found:?}");
}

/// Some schedule fails with `message`, and the explorer says which.
pub(super) fn convicted(setup: Setup, threads: &[fn(&World)], message: &str) {
    let (found, schedule) = search(setup, threads).expect_err("the mutant must be convicted");
    assert!(found.contains(message) && !schedule.is_empty(), "{found}");
}

// The threads.

pub(super) fn flush_commit(w: &World) {
    w.commit(0, 1, CommitMode::Flush);
}

/// Two flush commits: the second reuses the `TxnScratch` that came back
/// with the first, through its queue slot if a leader ran it.
pub(super) fn flush_twice(w: &World) {
    (1..=2).for_each(|v| w.commit(0, v, CommitMode::Flush));
}

pub(super) fn flush_twice_more(w: &World) {
    (1..=2).for_each(|v| w.commit(2, v, CommitMode::Flush));
}

/// A flush commit to the prefilled region: it re-dirties pages a step
/// may have frozen.
pub(super) fn redirty(w: &World) {
    w.commit(PREFILLED, w.setup.prefill + 1, CommitMode::Flush);
}

pub(super) fn lazy_then_flush(w: &World) {
    w.commit(2, 1, CommitMode::NoFlush);
    w.flush();
}

/// Two records into a log with room for one: the second stages behind
/// the first and does not fit.
pub(super) fn lazy_then_full(w: &World) {
    w.commit(0, 1, CommitMode::NoFlush);
    w.commit(0, 2, CommitMode::Flush);
}

/// The threshold trigger's steps, as a commit above the threshold runs
/// them.
pub(super) fn step(w: &World) {
    let tuning = w.rvm.options();
    let tuning = Tuning {
        truncation_threshold: 0.0,
        ..tuning
    };
    w.rvm.shared.request_truncation(&tuning);
}

pub(super) fn truncate(w: &World) {
    w.check("truncate", w.rvm.truncate());
}

pub(super) fn lazy_then_unmap(w: &World) {
    w.commit(UNMAPPED, 1, CommitMode::NoFlush);
    w.unmap(UNMAPPED);
}

pub(super) fn lazy_then_remap(w: &World) {
    lazy_then_unmap(w);
    w.remap(UNMAPPED);
}

pub(super) fn flush_then_commit(w: &World) {
    w.flush();
    w.commit(2, 1, CommitMode::Flush);
}
