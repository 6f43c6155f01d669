//! Traced workloads: run a real [`Rvm`] instance over
//! [`TraceDevice`]-wrapped in-memory devices and capture a [`Trace`].
//!
//! Setup (log formatting, region mapping) happens with recording
//! disabled: those writes are part of each device's durable *base
//! image*, not of the execution under test. Recording is enabled just
//! before the transaction script runs; each flush-mode commit samples
//! the recorder length when it returns — the *ack point* after which a
//! crash must preserve the transaction.
//!
//! Each workload thread is one stream of the reference's history, so
//! threads write disjoint cells: the order of two threads' commits is
//! not part of the promise, and the reference refuses to judge a cell
//! two threads share.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use parking_lot::Mutex;
use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};
use rvm::segment::DeviceResolver;
use rvm::{
    CommitMode, MutationHooks, Options, Region, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE,
};
use rvm_storage::{xorshift64, Device, MemDevice, TraceDevice, TraceRecorder};

use crate::{DeviceBase, SegWrite, Trace, TxnSpec};

/// The canned workload shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three threads × three rounds of barrier-aligned flush commits under
    /// the default batch cap: every leader drains the whole queue, so
    /// each batch is written, forced and completed inline by its leader.
    GroupCommit,
    /// Commits over a small log, with explicit epoch truncations
    /// interleaved and then none, so a commit (or the spool drain ahead
    /// of it) that finds the log full starts the epoch: exercises the
    /// three-phase truncation crash windows (boundary write, segment
    /// application, status advance) whoever starts it.
    Truncation,
    /// No-flush commits spooled and flushed in batches over a small log —
    /// by `flush`, by a flush commit that carries them in its own batch,
    /// and by a drain that outgrows the free log, closes a batch, runs
    /// an epoch and resumes — with a tail of never-flushed transactions
    /// that a crash may legally drop.
    NoFlushSpool,
    /// Lazy commits that rewrite cells on the default tuning, where a
    /// commit may discard the unflushed records it subsumes: rewrites
    /// with other cells spooled between them, a consecutive run that
    /// does subsume, a drain that a log-full batch close splits, and a
    /// never-flushed tail. Unlike every other workload it writes cells
    /// more than once, so a discarded record is visible in a crash image
    /// that keeps a later one.
    Subsumption,
    /// Flush commits interleaved with deliberately aborted transactions
    /// writing poison values that must never survive recovery.
    AbortMix,
    /// Three threads of flush commits with a batch cap *below* the thread
    /// count: a leader's claim leaves committers queued for the next
    /// round, so the log sees consecutive batches back to back. The trace
    /// crashes between them — after batch A's force, before or during
    /// batch B's writes — exactly the states the committed-prefix oracle
    /// must survive.
    ConsecutiveBatches,
    /// Incremental truncation over a small log: write-back steps follow
    /// the commits, a long-running transaction pins the page at the queue
    /// head until the blocked trigger reverts to an epoch, and lazy
    /// commits block that page on `unflushed` until the step raises the
    /// barrier itself. Whatever the step writes from VM, no crash image
    /// may hold bytes of a transaction that had not committed.
    Incremental,
    /// A seeded single-threaded mix of the commit, truncation, spool and
    /// abort shapes above, over a log small enough that the default
    /// trigger's steps join the explicit and log-full epochs.
    Seeded(u64),
    /// Flush commits only, never truncating: every committed byte stays
    /// in the live log span. This is the precondition for the bit-rot
    /// oracle ([`check_trace_with_rot`](crate::check_trace_with_rot)),
    /// which flips committed segment bytes in each crash image and
    /// demands that recovery rebuild them from the log.
    BitRot,
    /// A region leaves VM current on its segment: flush and lazy commits
    /// to region A, a sibling region B mapped and committed to mid-run,
    /// A unmapped — its write-back flushes the spool and runs an epoch —
    /// then A's range mapped again and committed to, until the trigger's
    /// step writes the remapped page from VM, and an unflushed tail.
    Unmap,
}

/// Shared capture plumbing: the recorder, the raw in-memory devices
/// behind the trace wrappers, and the base images.
struct Capture {
    recorder: Arc<TraceRecorder>,
    log_mem: Arc<MemDevice>,
    log_id: u32,
    #[allow(clippy::type_complexity)]
    segs: Arc<Mutex<HashMap<String, (Arc<MemDevice>, Arc<TraceDevice>)>>>,
    bases: HashMap<u32, Vec<u8>>,
    /// The first shape the script missed ([`Trace::shape_missed`]).
    shape_missed: RefCell<Option<String>>,
}

impl Capture {
    /// Snapshots every device's current (durable) contents as its base
    /// image and starts recording.
    fn start(&mut self) {
        for (id, name) in self.recorder.devices() {
            let image = if id == self.log_id {
                self.log_mem.snapshot()
            } else {
                self.segs
                    .lock()
                    .get(&name)
                    .map(|(mem, _)| mem.snapshot())
                    .unwrap_or_default()
            };
            self.bases.insert(id, image);
        }
        self.recorder.set_enabled(true);
    }

    /// Notes whether the script reached a shape it exists to check; if
    /// not, `saw` says what it found, and the trace carries the first
    /// miss as a verdict rather than panicking before any image is judged.
    fn shape(&self, reached: bool, saw: impl FnOnce() -> String) {
        let mut missed = self.shape_missed.borrow_mut();
        if !reached && missed.is_none() {
            *missed = Some(saw());
        }
    }

    /// Stops recording and assembles the trace, so the shutdown of the
    /// instance, dropped after it, is not part of it. Devices first
    /// resolved while recording was live keep an empty base (they were
    /// created zero-filled; synthesis grows images on demand).
    fn finish(self, txns: Vec<TxnSpec>) -> Trace {
        self.recorder.set_enabled(false);
        let devices = self
            .recorder
            .devices()
            .into_iter()
            .map(|(id, name)| DeviceBase {
                is_log: id == self.log_id,
                image: self.bases.get(&id).cloned().unwrap_or_default(),
                id,
                name,
            })
            .collect();
        Trace {
            devices,
            ops: self.recorder.ops(),
            txns,
            shape_missed: self.shape_missed.into_inner(),
        }
    }
}

/// Builds a traced `Rvm`: log and every resolved segment wrapped in
/// [`TraceDevice`]s sharing one recorder (disabled until
/// [`Capture::start`]), with `hooks` installed.
fn setup(log_len: u64, tuning: Tuning, hooks: MutationHooks) -> (Capture, Rvm) {
    let recorder = TraceRecorder::new();
    recorder.set_enabled(false);
    let log_mem = Arc::new(MemDevice::with_len(log_len));
    let log = recorder.wrap("log", log_mem.clone());
    let log_id = log.id();

    type SegMap = HashMap<String, (Arc<MemDevice>, Arc<TraceDevice>)>;
    let segs: Arc<Mutex<SegMap>> = Arc::new(Mutex::new(HashMap::new()));
    let resolver: DeviceResolver = Arc::new({
        let segs = Arc::clone(&segs);
        let recorder = Arc::clone(&recorder);
        move |name: &str, min_len: u64| {
            let mut m = segs.lock();
            let (_, traced) = m
                .entry(name.to_owned())
                .or_insert_with(|| {
                    let mem = Arc::new(MemDevice::with_len(min_len));
                    let traced = recorder.wrap(name, mem.clone());
                    (mem, traced)
                })
                .clone();
            if traced.len()? < min_len {
                traced.set_len(min_len)?;
            }
            Ok(traced as Arc<dyn Device>)
        }
    });

    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(resolver)
            .tuning(tuning)
            .create_if_empty(),
    )
    .expect("workload log initializes");
    rvm.set_mutation_hooks(hooks);
    (
        Capture {
            recorder,
            log_mem,
            log_id,
            segs,
            bases: HashMap::new(),
            shape_missed: RefCell::default(),
        },
        rvm,
    )
}

/// A transaction of `thread` that wrote `data` at `offset` of segment
/// `cells`, the one segment the workloads write.
fn cells_txn(
    thread: u32,
    committed: bool,
    ack: Option<usize>,
    offset: u64,
    data: Vec<u8>,
) -> TxnSpec {
    let segment = "cells".to_owned();
    let writes = vec![SegWrite {
        segment,
        offset,
        data,
    }];
    TxnSpec {
        thread,
        committed,
        ack,
        writes,
    }
}

/// One committed flush-mode transaction writing `data` at `offset` of
/// `region`, returning its spec with the ack point.
fn flush_txn(
    rvm: &Rvm,
    recorder: &TraceRecorder,
    region: &Region,
    offset: u64,
    data: Vec<u8>,
) -> TxnSpec {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
    region.write(&mut txn, offset, &data).expect("write");
    txn.commit(CommitMode::Flush).expect("flush commit");
    cells_txn(0, true, Some(recorder.len()), offset, data)
}

/// One committed no-flush transaction writing `data` at `offset` of
/// `region`: spooled, so unacknowledged until a later flush covers it.
fn lazy_txn(rvm: &Rvm, region: &Region, offset: u64, data: Vec<u8>) -> TxnSpec {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
    region.write(&mut txn, offset, &data).expect("write");
    txn.commit(CommitMode::NoFlush).expect("no-flush commit");
    cells_txn(0, true, None, offset, data)
}

/// Transactions the [`Workload::Truncation`] script commits.
const TRUNCATION_TXNS: u64 = 16;

/// The [`Workload::Seeded`] log: a 3 KiB record area, two or three of
/// the mix's records.
const SEEDED_LOG_LEN: u64 = 19 << 10;
/// The most steps a [`Workload::Seeded`] mix draws: its 2 KiB cells fill
/// an eight-page region.
const SEEDED_CELLS: usize = 16;

/// Runs a workload and captures its trace. `hooks` injects deliberate
/// protocol mutations (all-off for real checking).
pub fn run_workload(kind: Workload, hooks: MutationHooks) -> Trace {
    match kind {
        Workload::GroupCommit => group_commit(hooks),
        Workload::Truncation => truncation(hooks),
        Workload::NoFlushSpool => no_flush_spool(hooks),
        Workload::Subsumption => subsumption(hooks),
        Workload::AbortMix => abort_mix(hooks),
        Workload::ConsecutiveBatches => consecutive_batches(hooks),
        Workload::Incremental => incremental(hooks),
        Workload::Seeded(seed) => seeded(seed, hooks),
        Workload::BitRot => bit_rot(hooks),
        Workload::Unmap => unmap(hooks),
    }
}

fn group_commit(hooks: MutationHooks) -> Trace {
    let tuning = Tuning {
        // A leader lingers so barrier-aligned committers join its batch:
        // bigger batches mean more pending pieces per crash window.
        group_commit_wait_us: 2_000,
        ..Tuning::default()
    };
    flush_commit_threads(tuning, hooks, 3, 1024, 1024 - 64, 0x41)
}

fn consecutive_batches(hooks: MutationHooks) -> Trace {
    // Records of 24 log blocks: a batch of two tears into the enumerator's
    // full eight pieces at a 128-byte sector.
    const DATA: usize = (24 * LOG_BLOCK - HEADER_SIZE - RANGE_ENTRY_SIZE - TRAILER_SIZE) as usize;
    let tuning = Tuning {
        // The leader lingers so barrier-aligned committers pile up, and
        // the batch cap splits them below the thread count: the queued
        // committers form the next round's batch, so the trace records
        // sync(A) … writes(B) … sync(B) and the enumerator crashes inside
        // every gap — including the one between batch A's completion and
        // batch B's writes.
        group_commit_wait_us: 2_000,
        group_commit_max_txns: 2,
        ..Tuning::default()
    };
    flush_commit_threads(tuning, hooks, 4, 2048, DATA, 0x61)
}

/// Three threads × `rounds` flush commits, each round's committed
/// together so a leader drains a batch: thread `t`'s `i`-th writes `len`
/// bytes of `first + idx` to cell `idx = t * rounds + i`, `cell` bytes
/// apart, in one region that holds every cell.
fn flush_commit_threads(
    tuning: Tuning,
    hooks: MutationHooks,
    rounds: u64,
    cell: u64,
    len: usize,
    first: u8,
) -> Trace {
    const THREADS: u32 = 3;
    let (mut cap, rvm) = setup(1 << 16, tuning, hooks);
    let region_len = (u64::from(THREADS) * rounds * cell).next_multiple_of(PAGE_SIZE);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, region_len))
        .expect("map cells");
    cap.start();

    let barrier = Barrier::new(THREADS as usize);
    let mut txns: Vec<TxnSpec> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let region = region.clone();
                let (rvm, recorder, barrier) = (&rvm, &*cap.recorder, &barrier);
                s.spawn(move || {
                    let mut specs = Vec::new();
                    for i in 0..rounds {
                        let idx = u64::from(t) * rounds + i;
                        let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                        let data = vec![first + idx as u8; len];
                        region.write(&mut txn, idx * cell, &data).expect("write");
                        barrier.wait();
                        txn.commit(CommitMode::Flush).expect("flush commit");
                        let ack = Some(recorder.len());
                        specs.push(cells_txn(t, true, ack, idx * cell, data));
                    }
                    specs
                })
            })
            .collect();
        for h in handles {
            txns.extend(h.join().expect("workload thread"));
        }
    });
    cap.finish(txns)
}

fn truncation(hooks: MutationHooks) -> Trace {
    // A 4 KiB record area — four of these records, so an epoch's segment
    // writes stay within the enumerator's exhaustive cap — and no
    // threshold trigger: after the two explicit truncations the commits
    // go on until the log is full, and the commit that finds no room
    // runs the epoch itself.
    let tuning = Tuning {
        truncation_threshold: 1.0,
        ..Tuning::default()
    };
    let (mut cap, rvm) = setup(20 << 10, tuning, hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 3 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut unacked: Vec<usize> = Vec::new();
    for i in 0..TRUNCATION_TXNS {
        let data = vec![0x10 + i as u8; 700];
        if i > 5 && i % 3 != 0 {
            // In the fill rounds two of three commits are lazy: the next
            // flush commit drains them, and when the second one does not
            // fit, the first is already appended — it must be forced
            // before the epoch that makes room may apply it.
            unacked.push(txns.len());
            txns.push(lazy_txn(&rvm, &region, i * 768, data));
            continue;
        }
        txns.push(flush_txn(&rvm, &cap.recorder, &region, i * 768, data));
        // A flush commit makes every commit before it durable too.
        let ack = cap.recorder.len();
        for idx in unacked.drain(..) {
            txns[idx].ack = Some(ack);
        }
        if i == 2 || i == 5 {
            rvm.truncate().expect("epoch truncation");
        }
    }
    let stats = rvm.stats();
    cap.shape(stats.epoch_truncations > 2, || {
        format!("no commit found the log full: {stats:?}")
    });

    cap.finish(txns)
}

/// Transactions the [`Workload::NoFlushSpool`] script commits, and how
/// many of them (the tail) are never flushed.
const SPOOL_TXNS: usize = 14;
const SPOOL_UNACKED_TAIL: usize = 2;

fn no_flush_spool(hooks: MutationHooks) -> Trace {
    // A 4 KiB record area — four of these records, 13 log blocks each —
    // and no threshold trigger, so a drain that runs out of log closes
    // the batch staged so far, runs the epoch itself and resumes.
    const DATA: usize = (13 * LOG_BLOCK - HEADER_SIZE - RANGE_ENTRY_SIZE - TRAILER_SIZE) as usize;
    let tuning = Tuning {
        truncation_threshold: 1.0,
        ..Tuning::default()
    };
    let (mut cap, rvm) = setup(20 << 10, tuning, hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 3 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut unacked: Vec<usize> = Vec::new();
    for i in 0..SPOOL_TXNS as u64 {
        let data = vec![0x20 + i as u8; DATA];
        if i == 6 {
            // A flush commit behind two spooled ones: one mixed batch,
            // one force — and the log is full, so its round starts with
            // an epoch.
            txns.push(flush_txn(&rvm, &cap.recorder, &region, i * 768, data));
        } else {
            unacked.push(txns.len());
            txns.push(lazy_txn(&rvm, &region, i * 768, data));
            // `flush` after 0-1 and 2-3 fills the log; after 7-11 it
            // drains five records into room for one: 7 closes a batch,
            // an epoch runs, 8-11 follow in the next.
            if ![1, 3, 11].contains(&i) {
                continue;
            }
            rvm.flush().expect("flush");
        }
        // The return of the flush (or flush commit) is the ack point for
        // every spooled commit it covered.
        let ack = cap.recorder.len();
        for idx in unacked.drain(..) {
            txns[idx].ack = Some(ack);
        }
    }
    // The last two stay unflushed: a crash may legally drop them, but
    // only as a suffix.
    assert_eq!(unacked.len(), SPOOL_UNACKED_TAIL);
    let stats = rvm.stats();
    cap.shape(
        stats.epoch_truncations >= 2 && stats.spool_flushes == 4,
        || format!("no drain found the log full: {stats:?}"),
    );

    cap.finish(txns)
}

/// The [`Workload::Subsumption`] script: per lazy commit, its cell and
/// length, and whether a `flush` follows it. Cells 0 and 1 are rewritten
/// with the other spooled between (nothing subsumes); cell 2 by a run of
/// three, each subsuming the one before; cell 3 breaks a fourth rewrite
/// of cell 2 off that run; the long commits of the third flush outgrow
/// the free log, so its drain closes a batch and resumes after an epoch;
/// the last two are never flushed.
const SUBSUMPTION_SCRIPT: [(u64, usize, bool); 16] = [
    (0, 200, false),
    (1, 200, false),
    (0, 200, true),
    (2, 200, false),
    (2, 200, false),
    (2, 300, false),
    (3, 200, false),
    (2, 300, true),
    (0, 700, false),
    (1, 700, false),
    (0, 700, false),
    (4, 700, false),
    (1, 700, false),
    (0, 700, true),
    (1, 200, false),
    (0, 200, false),
];
/// Bytes between the starts of two [`Workload::Subsumption`] cells.
const SUBSUMPTION_CELL: u64 = 768;

fn subsumption(hooks: MutationHooks) -> Trace {
    let (mut cap, rvm) = setup(20 << 10, Tuning::default(), hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut forces = Vec::new();
    for (i, &(cell, len, flush)) in SUBSUMPTION_SCRIPT.iter().enumerate() {
        let data = vec![0x21 + i as u8; len];
        let offset = cell * SUBSUMPTION_CELL;
        txns.push(lazy_txn(&rvm, &region, offset, data));
        if flush {
            let before = rvm.stats().log_forces;
            rvm.flush().expect("flush");
            forces.push(rvm.stats().log_forces - before);
            // The return of the flush is the ack point for every spooled
            // commit so far.
            let ack = cap.recorder.len();
            for t in txns.iter_mut().filter(|t| t.ack.is_none()) {
                t.ack = Some(ack);
            }
        }
    }
    // The run subsumed, and the last drain was
    // written as two batches with an epoch between them.
    let stats = rvm.stats();
    let saved = stats.bytes_saved_inter;
    let reached = saved > 0 && forces == [1, 1, 2] && stats.epoch_truncations == 1;
    cap.shape(reached, || {
        format!("saved {saved}, forces per flush {forces:?}: {stats:?}")
    });

    cap.finish(txns)
}

/// Transactions the [`Workload::Incremental`] script commits.
const INCREMENTAL_TXNS: usize = 15;

fn incremental(hooks: MutationHooks) -> Trace {
    // Eight 512-byte cells to a page, one 512-byte record to a cell,
    // eight records to the 4 KiB record area. Above 0.2 every second commit
    // triggers a write-back step; a step that is blocked with the log
    // more than half full (0.2 + 0.3) reverts to an epoch.
    const CELL: u64 = 512;
    let tuning = Tuning {
        truncation_threshold: 0.2,
        ..Tuning::default()
    };
    let (mut cap, rvm) = setup(20 << 10, tuning, hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 3 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let data = |cell: u64| vec![0x60 + cell as u8; 400];
    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut unacked: Vec<usize> = Vec::new();
    let flush = |txns: &mut Vec<TxnSpec>, unacked: &mut Vec<usize>, cell: u64| {
        let spec = flush_txn(&rvm, &cap.recorder, &region, cell * CELL, data(cell));
        // A flush commit makes every commit before it durable too.
        for idx in unacked.drain(..) {
            txns[idx].ack = spec.ack;
        }
        txns.push(spec);
    };

    // Steps follow the commits: pages 0 and 1, then pages 0 and 2.
    for cell in [0, 8, 1, 16] {
        flush(&mut txns, &mut unacked, cell);
    }
    let stats = rvm.stats();
    cap.shape(stats.incremental_steps == 2, || {
        format!("the first commits did not step twice: {stats:?}")
    });

    // The long-running transaction declares cell 2 and pins page 0; the
    // commit of cell 3 puts page 0 at the queue head. Four commits pile
    // up behind it, and the fifth finds the log 5/8 full: an epoch.
    let mut pinning = rvm.begin_transaction(TxnMode::Restore).expect("begin");
    region
        .write(&mut pinning, 2 * CELL, &data(2))
        .expect("write");
    for cell in [3, 9, 17, 10, 18] {
        flush(&mut txns, &mut unacked, cell);
    }
    let stats = rvm.stats();
    cap.shape(
        (stats.incremental_steps, stats.epoch_truncations) == (2, 1),
        || format!("the blocked trigger did not revert to an epoch: {stats:?}"),
    );

    // Page 0 is at the head again, still pinned. A lazy commit to it,
    // then the pinning transaction's own lazy commit: that one's trigger
    // finds page 0 committed but unflushed, raises the barrier, and
    // writes the page once both records are in the log.
    for cell in [4, 11] {
        flush(&mut txns, &mut unacked, cell);
    }
    unacked.push(txns.len());
    txns.push(lazy_txn(&rvm, &region, 5 * CELL, data(5)));
    pinning
        .commit(CommitMode::NoFlush)
        .expect("no-flush commit");
    unacked.push(txns.len());
    txns.push(cells_txn(0, true, None, 2 * CELL, data(2)));
    let (stats, used) = (rvm.stats(), rvm.query().log.used);
    let reached = (stats.incremental_steps, stats.spool_flushes, used) == (3, 1, 0);
    cap.shape(reached, || {
        format!("the step did not drain the spool and write the page ({used} bytes of log used): {stats:?}")
    });

    for cell in [19, 12] {
        flush(&mut txns, &mut unacked, cell);
    }
    assert_eq!(txns.len(), INCREMENTAL_TXNS);

    cap.finish(txns)
}

fn abort_mix(hooks: MutationHooks) -> Trace {
    let (mut cap, rvm) = setup(1 << 16, Tuning::default(), hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns = Vec::new();
    for i in 0..6u64 {
        if i % 3 == 2 {
            // A transaction that writes poison and aborts: its bytes
            // must never survive recovery.
            let data = vec![0xEE; 500];
            let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
            region.write(&mut txn, i * 640, &data).expect("write");
            txn.abort().expect("abort");
            txns.push(cells_txn(0, false, None, i * 640, data));
        } else {
            let data = vec![0x30 + i as u8; 500];
            txns.push(flush_txn(&rvm, &cap.recorder, &region, i * 640, data));
        }
    }

    cap.finish(txns)
}

/// Flush commits over disjoint cells with no truncation of any kind:
/// the log comfortably holds every record, so the whole committed
/// history stays in the live span. That is what makes rot injection
/// sound — a byte flipped inside any acked write's range is always
/// covered by the recovery tree, so redo must rewrite it.
fn bit_rot(hooks: MutationHooks) -> Trace {
    let (mut cap, rvm) = setup(1 << 16, Tuning::default(), hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 2 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns = Vec::new();
    for i in 0..6u64 {
        let data = vec![0x50 + i as u8; 700];
        txns.push(flush_txn(&rvm, &cap.recorder, &region, i * 768, data));
    }

    cap.finish(txns)
}

fn unmap(hooks: MutationHooks) -> Trace {
    // As in `incremental`: a 512-byte record to a 400-byte cell, eight to
    // the 4 KiB record area, and a step whenever a commit leaves it more
    // than 0.2 full.
    const CELL: u64 = 512;
    let tuning = Tuning {
        truncation_threshold: 0.2,
        ..Tuning::default()
    };
    let (mut cap, rvm) = setup(20 << 10, tuning, hooks);
    let a_desc = RegionDescriptor::new("cells", 0, PAGE_SIZE);
    let a = rvm.map(&a_desc).expect("map A");
    cap.start();

    let data = |cell: u64| vec![0x70 + cell as u8; 400];
    let recorder = &cap.recorder;
    // B's commits land at offset `at` of B, a page into the segment.
    let on_b = |b: &Region, at: u64, cell: u64| {
        let mut spec = flush_txn(&rvm, recorder, b, at, data(cell));
        spec.writes[0].offset += PAGE_SIZE;
        spec
    };
    let mut txns = vec![flush_txn(&rvm, recorder, &a, 0, data(0))];
    txns.push(lazy_txn(&rvm, &a, CELL, data(1)));
    // Mapped while recording: B grows the segment and its table entry.
    // Its commit drains A's lazy one, and its trigger steps both pages.
    let b_desc = RegionDescriptor::new("cells", PAGE_SIZE, PAGE_SIZE);
    let b = rvm.map(&b_desc).expect("map B");
    txns.push(on_b(&b, 0, 8));
    txns[1].ack = txns[2].ack;
    txns.push(lazy_txn(&rvm, &a, 2 * CELL, data(2)));
    // The unmap leaves A's bytes on the segment, so it acks the lazy
    // commit its flush drains.
    rvm.unmap(&a).expect("unmap A");
    txns[3].ack = Some(recorder.len());
    let a = rvm.map(&a_desc).expect("map A again");
    txns.push(flush_txn(&rvm, recorder, &a, 3 * CELL, data(3)));
    txns.push(on_b(&b, CELL, 9));
    txns.push(lazy_txn(&rvm, &a, 4 * CELL, data(4)));
    let stats = rvm.stats();
    cap.shape(
        (stats.epoch_truncations, stats.incremental_steps) == (1, 2),
        || format!("the unmap ran no epoch, or no step wrote the remapped page: {stats:?}"),
    );
    cap.finish(txns)
}

/// A seeded single-threaded mix: flush/no-flush/aborted transactions
/// with varied sizes, plus explicit flushes and truncations, over a
/// record area so small that the default trigger steps in every mix
/// (a shape it checks). Fully determined by the seed.
fn seeded(seed: u64, hooks: MutationHooks) -> Trace {
    let mut rng = seed;
    let (mut cap, rvm) = setup(SEEDED_LOG_LEN, Tuning::default(), hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 8 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let steps = 8 + (xorshift64(&mut rng) % 6) as usize;
    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut unacked: Vec<usize> = Vec::new();
    // A mix that logged too little for the trigger to step draws on, up
    // to the region's sixteen cells.
    for step in 0..SEEDED_CELLS {
        if step >= steps && rvm.stats().incremental_steps > 0 {
            break;
        }
        let offset = step as u64 * 2048;
        let len = 64 + (xorshift64(&mut rng) % 1200) as usize;
        let value = 1 + (step % 250) as u8;
        match xorshift64(&mut rng) % 6 {
            0..=2 => {
                let data = vec![value; len];
                let spec = flush_txn(&rvm, &cap.recorder, &region, offset, data);
                // A flush commit drains the spool first: it also acks
                // every spooled no-flush commit before it.
                let ack = spec.ack;
                txns.push(spec);
                for idx in unacked.drain(..) {
                    txns[idx].ack = ack;
                }
            }
            3 => {
                unacked.push(txns.len());
                txns.push(lazy_txn(&rvm, &region, offset, vec![value; len]));
            }
            4 => {
                let data = vec![0xEE; len];
                let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                region.write(&mut txn, offset, &data).expect("write");
                txn.abort().expect("abort");
                txns.push(cells_txn(0, false, None, offset, data));
            }
            _ => {
                if xorshift64(&mut rng).is_multiple_of(2) {
                    // `flush` forces the spool: it is the ack point for
                    // every no-flush commit so far.
                    rvm.flush().expect("flush");
                    let ack = cap.recorder.len();
                    for idx in unacked.drain(..) {
                        txns[idx].ack = Some(ack);
                    }
                } else {
                    // `truncate` only reclaims log space; it makes no
                    // promise about spooled commits, so it acks nothing.
                    rvm.truncate().expect("truncate");
                }
            }
        }
    }
    let stats = rvm.stats();
    cap.shape(stats.incremental_steps > 0, || {
        format!("seed {seed}: the trigger never stepped: {stats:?}")
    });

    cap.finish(txns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::TraceOpKind;

    #[test]
    fn truncation_workload_traces_commits_and_truncations() {
        let trace = run_workload(Workload::Truncation, MutationHooks::default());
        assert_eq!(trace.txns.len() as u64, TRUNCATION_TXNS);
        assert!(trace.txns.iter().all(|t| t.committed && t.ack.is_some()));
        let syncs = trace
            .ops
            .iter()
            .filter(|o| matches!(o.kind, TraceOpKind::Sync))
            .count() as u64;
        // A force per flush commit (ten of them) plus each truncation's
        // boundary, segment, catalog and completion syncs.
        assert!(syncs > TRUNCATION_TXNS, "got {syncs} syncs");
        // Truncation writes to the segment device mid-trace.
        let seg_id = trace
            .devices
            .iter()
            .find(|d| !d.is_log)
            .expect("segment device")
            .id;
        assert!(trace
            .ops
            .iter()
            .any(|o| o.device == seg_id && matches!(o.kind, TraceOpKind::Write { .. })));
    }

    #[test]
    fn incremental_workload_writes_pages_and_reverts_to_one_epoch() {
        let trace = run_workload(Workload::Incremental, MutationHooks::default());
        assert_eq!(trace.txns.len(), INCREMENTAL_TXNS);
        assert!(trace.txns.iter().all(|t| t.committed && t.ack.is_some()));
        // A write-back step writes whole pages, one at a time, and the
        // epoch (the workload asserts it ran) under the checksum catalog
        // writes whole runs: the five records it applies fall on three
        // consecutive pages, one write.
        let seg_id = trace
            .devices
            .iter()
            .find(|d| d.name == "cells")
            .expect("segment device")
            .id;
        let seg_writes: Vec<usize> = trace
            .ops
            .iter()
            .filter(|o| o.device == seg_id)
            .filter_map(|o| match &o.kind {
                TraceOpKind::Write { data, .. } => Some(data.len()),
                _ => None,
            })
            .collect();
        let pages = seg_writes
            .iter()
            .filter(|&&len| len == PAGE_SIZE as usize)
            .count();
        let runs = seg_writes
            .iter()
            .filter(|&&len| len == 3 * PAGE_SIZE as usize)
            .count();
        assert_eq!(
            (pages, runs, seg_writes.len()),
            (8, 1, 8 + 1),
            "{seg_writes:?}"
        );
    }

    #[test]
    fn group_commit_workload_is_multithreaded_with_monotone_thread_acks() {
        let trace = run_workload(Workload::GroupCommit, MutationHooks::default());
        assert_eq!(trace.txns.len(), 9);
        for th in 0..3u32 {
            let acks: Vec<usize> = trace
                .txns
                .iter()
                .filter(|t| t.thread == th)
                .map(|t| t.ack.expect("flush commits ack"))
                .collect();
            assert_eq!(acks.len(), 3);
            assert!(acks.windows(2).all(|w| w[0] <= w[1]), "{acks:?}");
        }
    }

    #[test]
    fn pipeline_workload_is_multithreaded_and_forces_in_batches() {
        let trace = run_workload(Workload::ConsecutiveBatches, MutationHooks::default());
        assert_eq!(trace.txns.len(), 12);
        assert!(trace.txns.iter().all(|t| t.committed && t.ack.is_some()));
        // Every batch records exactly one log sync, and twelve commits
        // over capped batches need several.
        let log_id = trace.log_base().id;
        let syncs = trace
            .ops
            .iter()
            .filter(|o| o.device == log_id && matches!(o.kind, TraceOpKind::Sync))
            .count();
        assert!(syncs >= 2, "capped batches forced only {syncs} times");
    }

    #[test]
    fn no_flush_tail_is_unacked() {
        let trace = run_workload(Workload::NoFlushSpool, MutationHooks::default());
        assert_eq!(trace.txns.len(), SPOOL_TXNS);
        let (acked, tail) = trace.txns.split_at(SPOOL_TXNS - SPOOL_UNACKED_TAIL);
        assert!(acked.iter().all(|t| t.ack.is_some()));
        assert!(tail.iter().all(|t| t.ack.is_none()));
        // The mixed batch: the flush commit and the two lazy commits
        // ahead of it share one ack point.
        assert_eq!(trace.txns[4].ack, trace.txns[6].ack);
    }

    #[test]
    fn bit_rot_workload_never_touches_the_segment() {
        let trace = run_workload(Workload::BitRot, MutationHooks::default());
        assert_eq!(trace.txns.len(), 6);
        assert!(trace.txns.iter().all(|t| t.committed && t.ack.is_some()));
        // No truncation ran, so no recorded op writes any data segment:
        // every committed byte lives only in the log's live span.
        let seg_ids: Vec<u32> = trace
            .devices
            .iter()
            .filter(|d| !d.is_log)
            .map(|d| d.id)
            .collect();
        assert!(!seg_ids.is_empty());
        assert!(trace
            .ops
            .iter()
            .all(|o| !seg_ids.contains(&o.device) || !matches!(o.kind, TraceOpKind::Write { .. })));
    }

    /// Every seed the crash-consistency property test draws steps (the
    /// workload checks it as its shape).
    #[test]
    fn every_seeded_mix_runs_the_default_trigger() {
        for seed in 1..200 {
            let trace = run_workload(Workload::Seeded(seed), MutationHooks::default());
            assert_eq!(trace.shape_missed, None);
        }
    }

    #[test]
    fn seeded_workloads_are_deterministic() {
        let a = run_workload(Workload::Seeded(7), MutationHooks::default());
        let b = run_workload(Workload::Seeded(7), MutationHooks::default());
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.txns, b.txns);
        let c = run_workload(Workload::Seeded(8), MutationHooks::default());
        assert_ne!(a.ops, c.ops, "different seeds explore different mixes");
    }

    #[test]
    fn base_images_exclude_setup_writes() {
        let trace = run_workload(Workload::AbortMix, MutationHooks::default());
        let log = trace.log_base();
        // The base log image is formatted (nonzero status area), and no
        // recorded op re-writes the format: the trace starts after setup.
        assert!(log.image.iter().any(|&b| b != 0));
        assert!(!trace.ops.is_empty());
    }
}
