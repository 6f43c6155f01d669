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
//! Every workload writes disjoint cells with values distinct from the
//! (all-zero) base, which is what lets the multi-threaded oracle decide
//! per-transaction presence by looking at bytes.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use parking_lot::Mutex;
use rvm::segment::DeviceResolver;
use rvm::{
    CommitMode, MutationHooks, Options, Region, RegionDescriptor, Rvm, TruncationMode, Tuning,
    TxnMode, PAGE_SIZE,
};
use rvm_storage::{Device, MemDevice, TraceDevice, TraceRecorder};

use crate::{xorshift64, DeviceBase, SegWrite, Trace, TxnSpec};

/// The canned workload shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three threads × three rounds of barrier-aligned flush commits under
    /// the default batch cap: every leader drains the whole queue, so
    /// each batch is written, forced and completed inline by its leader.
    /// Multi-threaded (disjoint-cell oracle).
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
    /// Flush commits interleaved with deliberately aborted transactions
    /// writing poison values that must never survive recovery.
    AbortMix,
    /// Three threads of flush commits with a batch cap *below* the thread
    /// count: a leader's claim leaves committers queued for the next
    /// round, so the log sees consecutive batches back to back. The trace
    /// crashes between them — after batch A's force, before or during
    /// batch B's writes — exactly the states the committed-prefix oracle
    /// must survive. Multi-threaded (disjoint-cell oracle).
    Pipeline,
    /// Incremental truncation over a small log: write-back steps follow
    /// the commits, a long-running transaction pins the page at the queue
    /// head until the blocked trigger reverts to an epoch, and lazy
    /// commits block that page on `unflushed` until the step raises the
    /// barrier itself. Whatever the step writes from VM, no crash image
    /// may hold bytes of a transaction that had not committed.
    Incremental,
    /// A seeded single-threaded mix of the commit, truncation, spool and
    /// abort shapes above.
    Seeded(u64),
    /// Flush commits only, never truncating: every committed byte stays
    /// in the live log span. This is the precondition for the bit-rot
    /// oracle ([`check_trace_with_rot`](crate::check_trace_with_rot)),
    /// which flips committed segment bytes in each crash image and
    /// demands that recovery rebuild them from the log.
    BitRot,
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

    /// Stops recording and assembles the trace. Devices first resolved
    /// while recording was live keep an empty base (they were created
    /// zero-filled; synthesis grows images on demand).
    fn finish(self, txns: Vec<TxnSpec>, single_threaded: bool) -> Trace {
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
            single_threaded,
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
        },
        rvm,
    )
}

/// The tuning of every workload but [`Workload::Incremental`]: the
/// threshold trigger runs epoch truncation, stated rather than inherited
/// from the library's default, so each oracle — and the distinct-state
/// counts the tests pin — keeps checking the traces it was written for.
fn epoch_tuning() -> Tuning {
    Tuning {
        truncation_mode: TruncationMode::Epoch,
        ..Tuning::default()
    }
}

/// One committed flush-mode transaction writing `data` at `offset` of
/// `region`, returning its spec with the ack point.
fn flush_txn(
    rvm: &Rvm,
    recorder: &TraceRecorder,
    region: &Region,
    segment: &str,
    thread: u32,
    offset: u64,
    data: Vec<u8>,
) -> TxnSpec {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
    region.write(&mut txn, offset, &data).expect("write");
    txn.commit(CommitMode::Flush).expect("flush commit");
    TxnSpec {
        thread,
        committed: true,
        ack: Some(recorder.len()),
        writes: vec![SegWrite {
            segment: segment.to_owned(),
            offset,
            data,
        }],
    }
}

/// One committed no-flush transaction writing `data` at `offset` of
/// `region`: spooled, so unacknowledged until a later flush covers it.
fn lazy_txn(rvm: &Rvm, region: &Region, segment: &str, offset: u64, data: Vec<u8>) -> TxnSpec {
    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
    region.write(&mut txn, offset, &data).expect("write");
    txn.commit(CommitMode::NoFlush).expect("no-flush commit");
    TxnSpec {
        thread: 0,
        committed: true,
        ack: None,
        writes: vec![SegWrite {
            segment: segment.to_owned(),
            offset,
            data,
        }],
    }
}

/// Transactions the [`Workload::Truncation`] script commits.
const TRUNCATION_TXNS: u64 = 16;

/// Runs a workload and captures its trace. `hooks` injects deliberate
/// protocol mutations (all-off for real checking).
pub fn run_workload(kind: Workload, hooks: MutationHooks) -> Trace {
    match kind {
        Workload::GroupCommit => group_commit(hooks),
        Workload::Truncation => truncation(hooks),
        Workload::NoFlushSpool => no_flush_spool(hooks),
        Workload::AbortMix => abort_mix(hooks),
        Workload::Pipeline => pipeline(hooks),
        Workload::Incremental => incremental(hooks),
        Workload::Seeded(seed) => seeded(seed, hooks),
        Workload::BitRot => bit_rot(hooks),
    }
}

fn group_commit(hooks: MutationHooks) -> Trace {
    const THREADS: u32 = 3;
    const ROUNDS: u64 = 3;
    const CELL: u64 = 1024;

    let tuning = Tuning {
        // A leader lingers so barrier-aligned committers join its batch:
        // bigger batches mean more pending pieces per crash window.
        group_commit_wait_us: 2_000,
        ..epoch_tuning()
    };
    let (mut cap, rvm) = setup(1 << 16, tuning, hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 3 * PAGE_SIZE))
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
                    for i in 0..ROUNDS {
                        let idx = t as u64 * ROUNDS + i;
                        let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                        let data = vec![0x41 + idx as u8; CELL as usize - 64];
                        region.write(&mut txn, idx * CELL, &data).expect("write");
                        // Commit together so the leader drains a batch.
                        barrier.wait();
                        txn.commit(CommitMode::Flush).expect("flush commit");
                        specs.push(TxnSpec {
                            thread: t,
                            committed: true,
                            ack: Some(recorder.len()),
                            writes: vec![SegWrite {
                                segment: "cells".into(),
                                offset: idx * CELL,
                                data,
                            }],
                        });
                    }
                    specs
                })
            })
            .collect();
        for h in handles {
            txns.extend(h.join().expect("workload thread"));
        }
    });

    let trace = cap.finish(txns, false);
    drop(rvm);
    trace
}

fn pipeline(hooks: MutationHooks) -> Trace {
    const THREADS: u32 = 3;
    const ROUNDS: u64 = 4;
    const CELL: u64 = 1024;

    let tuning = Tuning {
        // The leader lingers so barrier-aligned committers pile up, and
        // the batch cap splits them below the thread count: the queued
        // committers form the next round's batch, so the trace records
        // sync(A) … writes(B) … sync(B) and the enumerator crashes inside
        // every gap — including the one between batch A's completion and
        // batch B's writes.
        group_commit_wait_us: 2_000,
        group_commit_max_txns: 2,
        ..epoch_tuning()
    };
    let (mut cap, rvm) = setup(1 << 16, tuning, hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 3 * PAGE_SIZE))
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
                    for i in 0..ROUNDS {
                        let idx = t as u64 * ROUNDS + i;
                        let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                        let data = vec![0x61 + idx as u8; CELL as usize - 64];
                        region.write(&mut txn, idx * CELL, &data).expect("write");
                        // Commit together so batches form back to back.
                        barrier.wait();
                        txn.commit(CommitMode::Flush).expect("flush commit");
                        specs.push(TxnSpec {
                            thread: t,
                            committed: true,
                            ack: Some(recorder.len()),
                            writes: vec![SegWrite {
                                segment: "cells".into(),
                                offset: idx * CELL,
                                data,
                            }],
                        });
                    }
                    specs
                })
            })
            .collect();
        for h in handles {
            txns.extend(h.join().expect("workload thread"));
        }
    });

    let trace = cap.finish(txns, false);
    drop(rvm);
    trace
}

fn truncation(hooks: MutationHooks) -> Trace {
    // A 4 KiB record area — four of these records, so an epoch's segment
    // writes stay within the enumerator's exhaustive cap — and no
    // threshold trigger: after the two explicit truncations the commits
    // go on until the log is full, and the commit that finds no room
    // runs the epoch itself.
    let tuning = Tuning {
        truncation_threshold: 1.0,
        ..epoch_tuning()
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
            txns.push(lazy_txn(&rvm, &region, "cells", i * 768, data));
            continue;
        }
        txns.push(flush_txn(
            &rvm,
            &cap.recorder,
            &region,
            "cells",
            0,
            i * 768,
            data,
        ));
        // A flush commit makes every commit before it durable too.
        let ack = cap.recorder.len();
        for idx in unacked.drain(..) {
            txns[idx].ack = Some(ack);
        }
        if i == 2 || i == 5 {
            rvm.truncate().expect("epoch truncation");
        }
    }
    assert!(
        rvm.stats().epoch_truncations > 2,
        "no commit found the log full"
    );

    let trace = cap.finish(txns, true);
    drop(rvm);
    trace
}

/// Transactions the [`Workload::NoFlushSpool`] script commits, and how
/// many of them (the tail) are never flushed.
const SPOOL_TXNS: usize = 14;
const SPOOL_UNACKED_TAIL: usize = 2;

fn no_flush_spool(hooks: MutationHooks) -> Trace {
    // A 4 KiB record area — four of these records — and no threshold
    // trigger, so a drain that runs out of log closes the batch staged
    // so far, runs the epoch itself and resumes.
    let tuning = Tuning {
        truncation_threshold: 1.0,
        ..epoch_tuning()
    };
    let (mut cap, rvm) = setup(20 << 10, tuning, hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 3 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut unacked: Vec<usize> = Vec::new();
    for i in 0..SPOOL_TXNS as u64 {
        let data = vec![0x20 + i as u8; 600];
        if i == 6 {
            // A flush commit behind two spooled ones: one mixed batch,
            // one force — and the log is full, so its round starts with
            // an epoch.
            txns.push(flush_txn(
                &rvm,
                &cap.recorder,
                &region,
                "cells",
                0,
                i * 640,
                data,
            ));
        } else {
            unacked.push(txns.len());
            txns.push(lazy_txn(&rvm, &region, "cells", i * 640, data));
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
    assert!(
        stats.epoch_truncations >= 2 && stats.spool_flushes == 4,
        "no drain found the log full: {stats:?}"
    );

    let trace = cap.finish(txns, true);
    drop(rvm);
    trace
}

/// Transactions the [`Workload::Incremental`] script commits.
const INCREMENTAL_TXNS: usize = 15;

fn incremental(hooks: MutationHooks) -> Trace {
    // Eight 512-byte cells to a page, one log block to a record, eight
    // records to the 4 KiB record area. Above 0.2 every second commit
    // triggers a write-back step; a step that is blocked with the log
    // more than half full (0.2 + 0.3) reverts to an epoch.
    const CELL: u64 = 512;
    let tuning = Tuning {
        truncation_mode: TruncationMode::Incremental,
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
        let spec = flush_txn(
            &rvm,
            &cap.recorder,
            &region,
            "cells",
            0,
            cell * CELL,
            data(cell),
        );
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
    assert_eq!(rvm.stats().incremental_steps, 2);

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
    assert_eq!(
        (stats.incremental_steps, stats.epoch_truncations),
        (2, 1),
        "the blocked trigger did not revert to an epoch: {stats:?}"
    );

    // Page 0 is at the head again, still pinned. A lazy commit to it,
    // then the pinning transaction's own lazy commit: that one's trigger
    // finds page 0 committed but unflushed, raises the barrier, and
    // writes the page once both records are in the log.
    for cell in [4, 11] {
        flush(&mut txns, &mut unacked, cell);
    }
    unacked.push(txns.len());
    txns.push(lazy_txn(&rvm, &region, "cells", 5 * CELL, data(5)));
    pinning
        .commit(CommitMode::NoFlush)
        .expect("no-flush commit");
    unacked.push(txns.len());
    txns.push(TxnSpec {
        thread: 0,
        committed: true,
        ack: None,
        writes: vec![SegWrite {
            segment: "cells".into(),
            offset: 2 * CELL,
            data: data(2),
        }],
    });
    let stats = rvm.stats();
    assert_eq!(
        (
            stats.incremental_steps,
            stats.spool_flushes,
            rvm.query().log.used
        ),
        (3, 1, 0),
        "the step did not drain the spool and write the page: {stats:?}"
    );

    for cell in [19, 12] {
        flush(&mut txns, &mut unacked, cell);
    }
    assert_eq!(txns.len(), INCREMENTAL_TXNS);

    let trace = cap.finish(txns, true);
    drop(rvm);
    trace
}

fn abort_mix(hooks: MutationHooks) -> Trace {
    let (mut cap, rvm) = setup(1 << 16, epoch_tuning(), hooks);
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
            txns.push(TxnSpec {
                thread: 0,
                committed: false,
                ack: None,
                writes: vec![SegWrite {
                    segment: "cells".into(),
                    offset: i * 640,
                    data,
                }],
            });
        } else {
            let data = vec![0x30 + i as u8; 500];
            txns.push(flush_txn(
                &rvm,
                &cap.recorder,
                &region,
                "cells",
                0,
                i * 640,
                data,
            ));
        }
    }

    let trace = cap.finish(txns, true);
    drop(rvm);
    trace
}

/// Flush commits over disjoint cells with no truncation of any kind:
/// the log comfortably holds every record, so the whole committed
/// history stays in the live span. That is what makes rot injection
/// sound — a byte flipped inside any acked write's range is always
/// covered by the recovery tree, so redo must rewrite it.
fn bit_rot(hooks: MutationHooks) -> Trace {
    let (mut cap, rvm) = setup(1 << 16, epoch_tuning(), hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 2 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let mut txns = Vec::new();
    for i in 0..6u64 {
        let data = vec![0x50 + i as u8; 700];
        txns.push(flush_txn(
            &rvm,
            &cap.recorder,
            &region,
            "cells",
            0,
            i * 768,
            data,
        ));
    }

    let trace = cap.finish(txns, true);
    drop(rvm);
    trace
}

/// A seeded single-threaded mix: flush/no-flush/aborted transactions
/// with varied sizes, plus explicit flushes and truncations. Fully
/// determined by the seed.
fn seeded(seed: u64, hooks: MutationHooks) -> Trace {
    let mut rng = seed;
    let (mut cap, rvm) = setup(1 << 16, epoch_tuning(), hooks);
    let region = rvm
        .map(&RegionDescriptor::new("cells", 0, 8 * PAGE_SIZE))
        .expect("map cells");
    cap.start();

    let steps = 8 + (xorshift64(&mut rng) % 6) as usize;
    let mut txns: Vec<TxnSpec> = Vec::new();
    let mut unacked: Vec<usize> = Vec::new();
    for step in 0..steps {
        let offset = step as u64 * 2048;
        let len = 64 + (xorshift64(&mut rng) % 1200) as usize;
        let value = 1 + (step % 250) as u8;
        match xorshift64(&mut rng) % 6 {
            0..=2 => {
                let data = vec![value; len];
                let spec = flush_txn(&rvm, &cap.recorder, &region, "cells", 0, offset, data);
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
                txns.push(lazy_txn(&rvm, &region, "cells", offset, vec![value; len]));
            }
            4 => {
                let data = vec![0xEE; len];
                let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                region.write(&mut txn, offset, &data).expect("write");
                txn.abort().expect("abort");
                txns.push(TxnSpec {
                    thread: 0,
                    committed: false,
                    ack: None,
                    writes: vec![SegWrite {
                        segment: "cells".into(),
                        offset,
                        data,
                    }],
                });
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

    let trace = cap.finish(txns, true);
    drop(rvm);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::TraceOpKind;

    #[test]
    fn truncation_workload_traces_commits_and_truncations() {
        let trace = run_workload(Workload::Truncation, MutationHooks::default());
        assert!(trace.single_threaded);
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
        assert!(trace.single_threaded);
        assert_eq!(trace.txns.len(), INCREMENTAL_TXNS);
        assert!(trace.txns.iter().all(|t| t.committed && t.ack.is_some()));
        // A write-back step writes whole pages, and so does the epoch
        // (the workload asserts it ran) under the checksum catalog: the
        // five records it applies fall on three pages.
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
        assert_eq!(
            (pages, seg_writes.len() - pages),
            (8 + 3, 0),
            "{seg_writes:?}"
        );
    }

    #[test]
    fn group_commit_workload_is_multithreaded_with_monotone_thread_acks() {
        let trace = run_workload(Workload::GroupCommit, MutationHooks::default());
        assert!(!trace.single_threaded);
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
        let trace = run_workload(Workload::Pipeline, MutationHooks::default());
        assert!(!trace.single_threaded);
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
        assert!(trace.single_threaded);
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
