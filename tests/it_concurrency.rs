//! Multi-threaded use: the paper's RVM is "implemented to be
//! multi-threaded and to function correctly in the presence of true
//! parallelism" (§3.1) while leaving serializability to the application.
//! These tests drive concurrent transactions on disjoint data (the
//! application-level discipline) and check library-level consistency.

mod common {
    include!("lib.rs");
}

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use common::World;
use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, MemDevice};

#[test]
fn concurrent_transactions_on_disjoint_slots() {
    let world = World::new(4 << 20);
    let rvm = Arc::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 8 * PAGE_SIZE))
        .unwrap();

    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let rvm = rvm.clone();
            let region = region.clone();
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    let off = t * PAGE_SIZE + (i % 8) * 256;
                    region
                        .write(&mut txn, off, &[(t * 50 + i) as u8; 256])
                        .unwrap();
                    txn.commit(CommitMode::Flush).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = rvm.stats();
    assert_eq!(stats.txns_committed, 400);
    assert_eq!(rvm.query().active_transactions, 0);

    // Reboot: every thread's final writes are durable.
    drop(region);
    drop(Arc::try_unwrap(rvm).expect("sole owner"));
    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 8 * PAGE_SIZE))
        .unwrap();
    for t in 0..8u64 {
        for slot in 0..8u64 {
            let i = if 48 + slot < 50 { 48 + slot } else { 40 + slot };
            let off = t * PAGE_SIZE + slot * 256;
            assert_eq!(
                region.read_vec(off, 4).unwrap(),
                vec![(t * 50 + i) as u8; 4],
                "thread {t} slot {slot}"
            );
        }
    }
}

#[test]
fn group_commit_amortizes_forces_across_threads() {
    const THREADS: u64 = 8;
    const TXNS: u64 = 25;
    let world = World::new(8 << 20);
    let rvm = Arc::new(world.boot_tuned(Tuning {
        // A 2 ms accumulation window makes batching deterministic enough
        // to assert on: while a leader sleeps, the other seven threads
        // reach the queue.
        group_commit_wait_us: 2_000,
        ..Tuning::default()
    }));
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let rvm = rvm.clone();
            let region = region.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..TXNS {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region
                        .put_u64(&mut txn, t * PAGE_SIZE + (i % 16) * 8, t * 1000 + i + 1)
                        .unwrap();
                    txn.commit(CommitMode::Flush).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The amortization contract, via `query`: every commit flushed, but
    // far fewer forces than commits.
    let q = rvm.query();
    assert_eq!(q.stats.flush_commits, THREADS * TXNS);
    assert_eq!(q.stats.group_commit_txns, THREADS * TXNS);
    assert!(q.stats.group_commit_batches >= 1);
    assert!(
        q.stats.log_forces < q.stats.flush_commits,
        "forces {} not amortized over {} flush commits",
        q.stats.log_forces,
        q.stats.flush_commits
    );
    assert!(q.log_force_amortization() < 1.0);
    assert!(q.mean_group_batch() > 1.0);

    // Crash without terminating: the shared forces must have made every
    // acknowledged commit durable, and the log must verify clean.
    drop(region);
    std::mem::forget(Arc::try_unwrap(rvm).expect("sole owner"));
    let report = rvm_check::verify(&(world.log.clone() as Arc<dyn Device>)).unwrap();
    assert!(report.is_clean(), "{}", report.render());

    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();
    for t in 0..THREADS {
        // Thread t's last write to slot 8 was i == 24.
        assert_eq!(
            region.get_u64(t * PAGE_SIZE + 8 * 8).unwrap(),
            t * 1000 + 25,
            "thread {t} lost its final grouped commit"
        );
    }
}

/// A log that counts how many `sync`s are in progress at once, each
/// held open for a while so that any overlap would be seen.
struct OverlapCountingLog {
    inner: Arc<MemDevice>,
    in_sync: AtomicU64,
    max_in_sync: AtomicU64,
}

impl Device for OverlapCountingLog {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        self.inner.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        let now = self.in_sync.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_in_sync.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_micros(200));
        let synced = self.inner.sync();
        self.in_sync.fetch_sub(1, Ordering::SeqCst);
        synced
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.inner.set_len(len)
    }
}

#[test]
fn queued_committers_amortize_forces_one_at_a_time_and_recover() {
    const THREADS: u64 = 8;
    const TXNS: u64 = 25;
    let world = World::new(8 << 20);
    let log = Arc::new(OverlapCountingLog {
        inner: world.log.clone(),
        in_sync: AtomicU64::new(0),
        max_in_sync: AtomicU64::new(0),
    });
    let mut options = world.options().tuning(Tuning {
        // A 2 ms accumulation window lets committers pile up (as in the
        // group-commit test above), and a batch cap below the thread
        // count leaves committers queued behind every round.
        group_commit_wait_us: 2_000,
        group_commit_max_txns: 4,
        ..Tuning::default()
    });
    options.log = log.clone();
    let rvm = Arc::new(Rvm::initialize(options).expect("initialize"));
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let rvm = rvm.clone();
            let region = region.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..TXNS {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region
                        .put_u64(&mut txn, t * PAGE_SIZE + (i % 16) * 8, t * 1000 + i + 1)
                        .unwrap();
                    txn.commit(CommitMode::Flush).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Same amortization contract as the test above, with the leader
    // writing, forcing and completing each batch itself: never two log
    // forces at once, and nothing submitted.
    let q = rvm.query();
    assert_eq!(q.stats.flush_commits, THREADS * TXNS);
    assert_eq!(q.stats.group_commit_txns, THREADS * TXNS);
    assert!(
        q.stats.log_forces < q.stats.flush_commits,
        "forces {} not amortized over {} flush commits",
        q.stats.log_forces,
        q.stats.flush_commits
    );
    assert_eq!(
        log.max_in_sync.load(Ordering::SeqCst),
        1,
        "two forces overlapped"
    );
    assert_eq!(q.stats.pipeline_submits, 0);

    // Crash without terminating: an outcome is only published after its
    // batch's force completes, so the log must verify clean and recovery
    // must find every thread's final write.
    drop(region);
    std::mem::forget(Arc::try_unwrap(rvm).expect("sole owner"));
    let report = rvm_check::verify(&(world.log.clone() as Arc<dyn Device>)).unwrap();
    assert!(report.is_clean(), "{}", report.render());

    let rvm = world.boot();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();
    for t in 0..THREADS {
        assert_eq!(
            region.get_u64(t * PAGE_SIZE + 8 * 8).unwrap(),
            t * 1000 + 25,
            "thread {t} lost its final grouped commit"
        );
    }
}

#[test]
fn mixed_commit_modes_under_concurrency() {
    let world = World::new(4 << 20);
    let rvm = Arc::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let rvm = rvm.clone();
            let region = region.clone();
            std::thread::spawn(move || {
                for i in 0..60u64 {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region
                        .put_u64(&mut txn, t * PAGE_SIZE + (i % 32) * 8, i)
                        .unwrap();
                    let mode = if i % 3 == 0 {
                        CommitMode::Flush
                    } else {
                        CommitMode::NoFlush
                    };
                    txn.commit(mode).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    rvm.flush().unwrap();
    assert_eq!(rvm.stats().txns_committed, 240);
    assert_eq!(rvm.query().spooled_transactions, 0);
}

#[test]
fn concurrent_commits_with_background_truncation() {
    let world = World::new(96 * 1024);
    let rvm = Arc::new(world.boot_tuned(Tuning {
        background_truncation: true,
        truncation_threshold: 0.3,
        ..Tuning::default()
    }));
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 4 * PAGE_SIZE))
        .unwrap();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let rvm = rvm.clone();
            let region = region.clone();
            std::thread::spawn(move || {
                for i in 0..80u64 {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region
                        .write(&mut txn, t * PAGE_SIZE + (i % 4) * 1024, &[i as u8; 1024])
                        .unwrap();
                    txn.commit(CommitMode::Flush).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // The background thread keeps the log bounded — but it runs when it
    // is scheduled, which may be after the committers have joined: give
    // it until a deadline to bring the log back under.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let q = loop {
        let q = rvm.query();
        let settled = !q.truncation_in_flight && q.log.utilization < 0.9;
        if settled || std::time::Instant::now() > deadline {
            break q;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(!q.truncation_in_flight);
    assert!(q.log.utilization < 0.9, "utilization {}", q.log.utilization);
    assert!(q.stats.epoch_truncations > 0, "{:?}", q.stats);
    assert_eq!(q.stats.txns_committed, 320);
    Arc::try_unwrap(rvm)
        .expect("sole owner")
        .terminate()
        .unwrap();
}

#[test]
fn aborting_threads_do_not_disturb_committers() {
    let world = World::new(2 << 20);
    let rvm = Arc::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();
    let committer = {
        let rvm = rvm.clone();
        let region = region.clone();
        std::thread::spawn(move || {
            for i in 0..100u64 {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region.put_u64(&mut txn, (i % 64) * 8, i + 1).unwrap();
                txn.commit(CommitMode::Flush).unwrap();
            }
        })
    };
    let aborter = {
        let rvm = rvm.clone();
        let region = region.clone();
        std::thread::spawn(move || {
            for i in 0..100u64 {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region
                    .put_u64(&mut txn, PAGE_SIZE + (i % 64) * 8, 0xBAD)
                    .unwrap();
                txn.abort().unwrap();
            }
        })
    };
    committer.join().unwrap();
    aborter.join().unwrap();
    let stats = rvm.stats();
    assert_eq!(stats.txns_committed, 100);
    assert_eq!(stats.txns_aborted, 100);
    // The aborter's page is untouched.
    for slot in 0..64u64 {
        assert_eq!(region.get_u64(PAGE_SIZE + slot * 8).unwrap(), 0);
    }
}

/// A gate that parks log `sync` calls while closed, so a flush commit
/// can be frozen mid-force — *while its thread holds the core lock*.
struct SyncGate {
    /// (closed, parked-thread count)
    state: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl SyncGate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new((false, 0)),
            cv: Condvar::new(),
        })
    }

    /// Device side: blocks while the gate is closed.
    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        if st.0 {
            st.1 += 1;
            self.cv.notify_all();
            while st.0 {
                st = self.cv.wait(st).unwrap();
            }
            st.1 -= 1;
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().0 = true;
    }

    /// Test side: waits until a device thread is parked at the gate.
    fn wait_parked(&self) {
        let mut st = self.state.lock().unwrap();
        while st.1 == 0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = false;
        self.cv.notify_all();
    }
}

/// A log device whose `sync` passes through a [`SyncGate`].
struct GatedLog {
    inner: Arc<MemDevice>,
    gate: Arc<SyncGate>,
}

impl Device for GatedLog {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        self.inner.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        self.gate.pass();
        self.inner.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.inner.set_len(len)
    }
}

/// The lock-free-`query` regression: a flush commit parked inside its
/// log force holds the core lock for the duration, and `query` used to
/// take that lock — so an observer calling `query` during a stalled
/// commit hung with it. `query` is now served entirely from the atomic
/// stats plane, the WAL's published view, and the registry locks, so it must
/// return while the committer is still frozen — and without a single
/// core-lock acquisition of its own.
#[test]
fn query_returns_while_a_commit_is_parked_inside_its_force() {
    let gate = SyncGate::new();
    let log = Arc::new(MemDevice::with_len(2 << 20));
    let gated: Arc<dyn Device> = Arc::new(GatedLog {
        inner: log,
        gate: gate.clone(),
    });
    let rvm = Arc::new(
        Rvm::initialize(
            Options::new(gated)
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty(),
        )
        .expect("initialize"),
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();

    // Warm up (resolves the segment device off the commit path), then
    // freeze the next force.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    region.put_u64(&mut txn, 0, 1).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    gate.close();

    let committer = {
        let rvm = rvm.clone();
        let region = region.clone();
        std::thread::spawn(move || {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.put_u64(&mut txn, 8, 2).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        })
    };
    gate.wait_parked();

    // The committer is now parked inside `sync`, core lock held. A
    // watchdog channel turns the historical deadlock into a test
    // failure instead of a hang.
    let (tx, rx) = std::sync::mpsc::channel();
    let observer = {
        let rvm = rvm.clone();
        std::thread::spawn(move || {
            let before = rvm.core_lock_acquisitions();
            let q = rvm.query();
            let core_locks = rvm.core_lock_acquisitions() - before;
            tx.send((q, core_locks)).unwrap();
        })
    };
    let (q, core_locks) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("query blocked behind a parked commit");
    assert_eq!(core_locks, 0, "query touched the core lock");
    assert_eq!(q.stats.flush_commits, 1, "parked commit already counted");
    assert!(q.log.capacity > 0);
    observer.join().unwrap();

    gate.open();
    committer.join().unwrap();
    assert_eq!(rvm.stats().flush_commits, 2);
}

/// One completion, pinned by counters: a lone committer forces once per
/// commit, and committers that queue behind a leader parked in its force
/// share forces in later rounds — every batch completed by its leader,
/// none submitted.
#[test]
fn leader_completes_inline_alone_and_shares_forces_when_committers_queue() {
    const QUEUED: u64 = 8;
    let gate = SyncGate::new();
    let gated: Arc<dyn Device> = Arc::new(GatedLog {
        inner: Arc::new(MemDevice::with_len(2 << 20)),
        gate: gate.clone(),
    });
    let rvm = Arc::new(
        Rvm::initialize(
            Options::new(gated)
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty()
                .tuning(Tuning {
                    group_commit_max_txns: 2,
                    ..Tuning::default()
                }),
        )
        .expect("initialize"),
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let commit = |rvm: &Rvm, region: &rvm::Region, slot: u64, ready: &dyn Fn()| {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.put_u64(&mut txn, slot * 8, slot + 1).unwrap();
        ready();
        txn.commit(CommitMode::Flush).unwrap();
    };

    // A single committer: every round drains the queue.
    for slot in 0..20 {
        commit(&rvm, &region, slot, &|| ());
    }
    let alone = rvm.stats();
    assert_eq!(alone.flush_commits, 20);
    assert_eq!(alone.log_forces, alone.flush_commits);
    assert_eq!(alone.pipeline_submits, 0, "a lone commit was submitted");

    // Park one more lone commit inside its inline force: it holds
    // leadership (and the core lock) while the others queue up behind it.
    gate.close();
    let parked = {
        let (rvm, region) = (rvm.clone(), region.clone());
        std::thread::spawn(move || commit(&rvm, &region, 20, &|| ()))
    };
    gate.wait_parked();
    let (tx, rx) = std::sync::mpsc::channel();
    let queued: Vec<_> = (0..QUEUED)
        .map(|t| {
            let (rvm, region, tx) = (rvm.clone(), region.clone(), tx.clone());
            std::thread::spawn(move || commit(&rvm, &region, 21 + t, &|| tx.send(()).unwrap()))
        })
        .collect();
    for _ in 0..QUEUED {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("committer never reached its commit");
    }
    // Each signal precedes its enqueue by a few instructions; nothing
    // can drain the queue while the leader is parked.
    std::thread::sleep(Duration::from_millis(100));
    gate.open();
    parked.join().unwrap();
    for t in queued {
        t.join().unwrap();
    }

    let s = rvm.stats();
    assert_eq!(s.flush_commits, 21 + QUEUED);
    assert_eq!(s.pipeline_submits, 0, "{s:?}");
    assert!(
        s.log_forces < s.flush_commits,
        "queued commits shared forces"
    );
}

/// A log whose force takes 2 ms of wall time and no processor, as a
/// disk's does.
struct SlowForceLog(MemDevice);

impl Device for SlowForceLog {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.0.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        self.0.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        self.0.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        std::thread::sleep(Duration::from_millis(2));
        self.0.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.0.set_len(len)
    }
}

fn boot_over_slow_force(tuning: Tuning) -> Arc<Rvm> {
    let log: Arc<dyn Device> = Arc::new(SlowForceLog(MemDevice::with_len(4 << 20)));
    let options = Options::new(log)
        .resolver(MemResolver::new().into_resolver())
        .create_if_empty()
        .tuning(tuning);
    Arc::new(Rvm::initialize(options).expect("initialize"))
}

/// `commits` flush commits on each of `threads` threads, released
/// together, each thread on a page of its own.
fn commit_in_step(rvm: &Arc<Rvm>, region: &rvm::Region, threads: u64, commits: u64) {
    let barrier = Barrier::new(threads as usize);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..commits {
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                    region.put_u64(&mut txn, t * PAGE_SIZE, i + 1).unwrap();
                    txn.commit(CommitMode::Flush).unwrap();
                }
            });
        }
    });
}

/// Two closed-loop committers behind a force that costs wall time come
/// back to the queue within microseconds of each other, every round —
/// but the first one back used to claim at once, alone, and the two fell
/// into alternation: each commit waited out the other's force and then
/// paid its own (0.72 forces per commit, measured). A leader that just
/// had company now waits for it, so once two commits have shared a force
/// they go on sharing: one force per pair.
#[test]
fn two_closed_loop_committers_share_their_forces() {
    let rvm = boot_over_slow_force(Tuning::default());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();
    commit_in_step(&rvm, &region, 2, 150);
    let stats = rvm.stats();
    assert_eq!(stats.flush_commits, 300);
    assert!(
        stats.forces_per_flush_commit() < 0.6,
        "{} forces for 300 commits; leaders waited {} times, {} ns",
        stats.log_forces,
        stats.group_waits,
        stats.group_wait_ns
    );
    assert!(stats.group_waits > 0, "{stats:?}");
}

/// What the wait costs a committer whose company does not come back: a
/// quarter of a force, once. The round that timed out claimed one slot,
/// so the next one has no company to wait for.
#[test]
fn a_committer_whose_company_has_left_waits_at_most_once() {
    // A window long enough for two commits released together to land in
    // one round; it is closed again before the part under test.
    let windowed = Tuning {
        group_commit_wait_us: 100_000,
        ..Tuning::default()
    };
    let rvm = boot_over_slow_force(windowed);
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 2 * PAGE_SIZE))
        .unwrap();
    let shared_rounds = |rvm: &Rvm| rvm.stats().group_commit_batch_sizes[1];
    for _ in 0..20 {
        commit_in_step(&rvm, &region, 2, 1);
        if shared_rounds(&rvm) > 0 && rvm.stats().group_commit_batch_sizes[0] == 0 {
            break;
        }
    }
    // The latest round carried two commits under one 2 ms force, and its
    // company has now left for good.
    rvm.set_options(Tuning::default());
    let lone_commit = || {
        let before = rvm.stats();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.put_u64(&mut txn, 8, 7).unwrap();
        txn.commit(CommitMode::Flush).unwrap();
        rvm.stats().delta_since(&before)
    };
    let first = lone_commit();
    assert_eq!(first.group_waits, 1, "{first:?}");
    assert!(
        first.group_wait_ns >= 400_000,
        "a quarter of a 2 ms force: {first:?}"
    );
    let second = lone_commit();
    assert_eq!((second.group_waits, second.group_wait_ns), (0, 0));
    assert_eq!(second.log_forces, 1);
}

/// The read-only fast-path pin: a transaction that only reads — begin,
/// `set_range` bookkeeping, abort (or drop) — runs entirely on the
/// per-region plane, and a no-flush commit of disjoint regions runs on
/// the spool plane. Neither may acquire the global core lock even once;
/// `Rvm::core_lock_acquisitions` is the lock-order trace hook that
/// makes the claim falsifiable.
#[test]
fn read_only_and_no_flush_paths_acquire_no_global_lock() {
    let world = World::new(2 << 20);
    let rvm = world.boot();
    let a = rvm.map(&RegionDescriptor::new("a", 0, PAGE_SIZE)).unwrap();
    let b = rvm.map(&RegionDescriptor::new("b", 0, PAGE_SIZE)).unwrap();

    let before = rvm.core_lock_acquisitions();

    // Read-only, restore mode: begin, declare, read, abort.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    txn.set_range(&a, 0, 64).unwrap();
    assert_eq!(a.get_u64(0).unwrap(), 0);
    txn.abort().unwrap();

    // Read-only, no-restore mode: begin and drop.
    let txn = rvm.begin_transaction(TxnMode::NoRestore).unwrap();
    drop(txn);

    // No-flush commits on disjoint regions: the spool plane.
    for i in 0..8u64 {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        let region = if i % 2 == 0 { &a } else { &b };
        region.put_u64(&mut txn, (i % 8) * 8, i + 1).unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
    }

    assert_eq!(
        rvm.core_lock_acquisitions() - before,
        0,
        "a read-only or no-flush path took the global core lock"
    );

    // Sanity: the counter is live — a flush commit must take core.
    let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
    a.put_u64(&mut txn, 0, 99).unwrap();
    txn.commit(CommitMode::Flush).unwrap();
    assert!(rvm.core_lock_acquisitions() > before);
}

#[test]
fn query_is_safe_under_concurrent_load() {
    let world = World::new(2 << 20);
    let rvm = Arc::new(world.boot());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, PAGE_SIZE))
        .unwrap();
    let worker = {
        let rvm = rvm.clone();
        let region = region.clone();
        std::thread::spawn(move || {
            for i in 0..200u64 {
                let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
                region.put_u64(&mut txn, (i % 16) * 8, i).unwrap();
                txn.commit(CommitMode::NoFlush).unwrap();
            }
            rvm.flush().unwrap();
        })
    };
    let watcher = {
        let rvm = rvm.clone();
        std::thread::spawn(move || {
            let mut last_committed = 0;
            for _ in 0..500 {
                let q = rvm.query();
                assert!(q.stats.txns_committed >= last_committed, "monotone");
                last_committed = q.stats.txns_committed;
            }
        })
    };
    worker.join().unwrap();
    watcher.join().unwrap();
}
