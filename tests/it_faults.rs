//! The transient-fault matrix: a deterministic workload runs against a
//! flaky log device (and flaky segment devices) whose Nth operations
//! fail on a scripted or seeded schedule. The library's contract under
//! injected faults:
//!
//! * transient faults within the retry budget *heal* — every commit
//!   succeeds and the final state is identical to a fault-free run,
//!   with the healing visible in the stats counters;
//! * faults that exhaust the budget (or permanent faults) *poison* the
//!   instance: mutating operations fail fast with `RvmError::Poisoned`,
//!   reads of mapped regions keep working, and a fresh `initialize`
//!   over the same devices recovers every acknowledged commit;
//! * a crash at *any* device operation during recovery or truncation
//!   leaves an image from which re-recovery reaches the full committed
//!   state, idempotently.

mod common {
    include!("lib.rs");
}

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use common::{
    assert_state_is_prefix, for_each_crash_image, run_txn, sample, World, INDEX_OFF, SLOT_SIZE,
};
use rvm::segment::{flaky_resolver, MemResolver};
use rvm::{
    BackoffSleeper, CommitMode, Options, Region, RegionDescriptor, RetryPolicy, Rvm, RvmError,
    Tuning, TxnMode, PAGE_SIZE,
};
use rvm_storage::{FaultClock, FaultDevice, FaultOp, FlakyFault, MemDevice};

/// A sleeper that records the requested backoffs instead of sleeping, so
/// fault tests run instantly.
fn recording_sleeper() -> (BackoffSleeper, Arc<Mutex<Vec<Duration>>>) {
    let sleeps = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&sleeps);
    (Arc::new(move |d| s2.lock().unwrap().push(d)), sleeps)
}

fn descriptor() -> RegionDescriptor {
    RegionDescriptor::new("seg", 0, PAGE_SIZE)
}

/// Options for a flaky world: the log and every resolved segment device
/// share one fault clock, and retry backoff is instant.
fn flaky_options(
    log: &Arc<MemDevice>,
    segments: &MemResolver,
    clock: &Arc<FaultClock>,
    sleeper: BackoffSleeper,
) -> Options {
    Options::new(Arc::new(FaultDevice::with_clock(
        log.clone(),
        Arc::clone(clock),
    )))
    .resolver(flaky_resolver(
        segments.clone().into_resolver(),
        Arc::clone(clock),
    ))
    .retry_sleeper(sleeper)
    .create_if_empty()
}

/// Options over the bare devices (the "repaired hardware" reboot).
fn clean_options(log: &Arc<MemDevice>, segments: &MemResolver) -> Options {
    Options::new(log.clone())
        .resolver(segments.clone().into_resolver())
        .create_if_empty()
}

#[test]
fn transient_faults_heal_and_state_matches_fault_free_run() {
    const N: u64 = 25;

    // Fault-free reference run.
    let reference = {
        let world = World::new(1 << 20);
        let rvm = world.boot();
        let region = rvm.map(&descriptor()).unwrap();
        for i in 1..=N {
            run_txn(&rvm, &region, i).unwrap();
        }
        let snap = region.read_vec(0, PAGE_SIZE).unwrap();
        rvm.terminate().unwrap();
        snap
    };

    // The same run over a flaky log + flaky segments: transient faults
    // sprinkled across reads, writes, and syncs, every run shorter than
    // the default retry budget.
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    let clock = FaultClock::new(vec![
        FlakyFault::transient(FaultOp::Read, 1),
        FlakyFault::transient(FaultOp::Write, 3),
        FlakyFault::transient(FaultOp::Sync, 2),
        FlakyFault::transient_run(FaultOp::Write, 12, 2),
        FlakyFault::transient_run(FaultOp::Sync, 9, 3),
        FlakyFault::transient(FaultOp::Write, 31),
    ]);
    let (sleeper, sleeps) = recording_sleeper();
    let rvm = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    for i in 1..=N {
        run_txn(&rvm, &region, i).unwrap_or_else(|e| panic!("txn {i} failed to heal: {e}"));
    }
    assert_state_is_prefix(&region, N);
    assert_eq!(region.read_vec(0, PAGE_SIZE).unwrap(), reference);

    let q = rvm.query();
    assert!(!q.poisoned);
    assert!(q.stats.io_retries >= clock.injected(), "{q:?}");
    assert!(q.stats.transient_faults_healed > 0, "{q:?}");
    assert_eq!(q.stats.poisonings, 0, "{q:?}");
    assert!(clock.injected() > 0, "schedule never fired");
    assert!(
        !sleeps.lock().unwrap().is_empty(),
        "backoff went through the injected sleeper"
    );
    rvm.terminate().unwrap();

    // The durable image is also identical to the fault-free run.
    let rvm = Rvm::initialize(clean_options(&log, &segments)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    assert_eq!(region.read_vec(0, PAGE_SIZE).unwrap(), reference);
}

#[test]
fn exhausted_retries_poison_the_instance_and_recovery_rescues_commits() {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    // From the 30th log/segment write on, every write fails; the retry
    // budget (3) cannot outlast the run, so some commit must poison.
    let clock = FaultClock::new(vec![FlakyFault::transient_run(FaultOp::Write, 30, 1_000)]);
    let (sleeper, _) = recording_sleeper();
    let rvm = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();

    let mut acked = 0u64;
    let mut failure = None;
    for i in 1..=40u64 {
        match run_txn(&rvm, &region, i) {
            Ok(()) => acked = i,
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let failure = failure.expect("the write fault never hit a commit");
    assert!(acked > 0, "no transaction committed before the fault");
    assert!(
        matches!(failure, RvmError::Device(_)),
        "commit failed with {failure}"
    );

    // Poisoned: mutating entry points fail fast, before touching devices.
    assert!(rvm.is_poisoned());
    assert!(matches!(
        rvm.begin_transaction(TxnMode::Restore),
        Err(RvmError::Poisoned)
    ));
    assert!(matches!(rvm.flush(), Err(RvmError::Poisoned)));
    assert!(matches!(rvm.truncate(), Err(RvmError::Poisoned)));
    assert!(matches!(rvm.map(&descriptor()), Err(RvmError::Poisoned)));

    // Reads of the mapped region keep working.
    assert_state_is_prefix(&region, acked);

    let q = rvm.query();
    assert!(q.poisoned);
    assert_eq!(q.stats.poisonings, 1);
    assert!(q.stats.io_retries >= u64::from(RetryPolicy::default().max_retries));

    // Shutdown refuses to touch the durable image; the failure hands the
    // poisoned instance back for inspection before it is dropped.
    let failure = rvm.terminate().expect_err("poisoned terminate must fail");
    assert!(matches!(failure.error, RvmError::Poisoned));

    // A fresh instance over the same devices recovers every acknowledged
    // commit.
    let rvm = Rvm::initialize(clean_options(&log, &segments)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    let recovered = region.get_u64(INDEX_OFF).unwrap();
    assert!(recovered >= acked, "acked {acked}, recovered {recovered}");
    assert_state_is_prefix(&region, recovered);
    assert!(!rvm.is_poisoned());
    rvm.terminate().unwrap();
}

/// Tuning with a long group-commit accumulation window, so that
/// barrier-released committers deterministically land in one batch.
fn grouped_tuning() -> Tuning {
    Tuning {
        group_commit_wait_us: 100_000,
        ..Tuning::default()
    }
}

/// Runs the setup prefix of the group-fault scenario — initialize, map,
/// one warm-up flush commit — against `options`, returning the instance
/// and region. The prefix's device-operation counts are deterministic,
/// which lets callers schedule a fault at the first group operation.
fn group_setup(options: Options) -> (Arc<Rvm>, Region) {
    let rvm = Arc::new(Rvm::initialize(options).unwrap());
    let region = rvm.map(&descriptor()).unwrap();
    run_txn(&rvm, &region, 1).unwrap(); // warm-up: slot 1 holds byte 1
    (rvm, region)
}

/// Releases `n` threads into one flush commit each (thread `t` fills
/// slot `t` with byte `10 + t`) and collects the per-thread results.
fn run_group(rvm: &Arc<Rvm>, region: &Region, n: u64) -> Vec<rvm::Result<()>> {
    let barrier = Arc::new(Barrier::new(n as usize));
    let threads: Vec<_> = (0..n)
        .map(|t| {
            let rvm = Arc::clone(rvm);
            let region = region.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut txn = rvm.begin_transaction(TxnMode::Restore)?;
                region.write(&mut txn, t * SLOT_SIZE, &[10 + t as u8; SLOT_SIZE as usize])?;
                txn.commit(CommitMode::Flush)
            })
        })
        .collect();
    threads.into_iter().map(|t| t.join().unwrap()).collect()
}

/// Asserts slot `t` holds `expected` in every byte.
fn assert_slot(region: &Region, t: u64, expected: u8) {
    assert_eq!(
        region.read_vec(t * SLOT_SIZE, SLOT_SIZE).unwrap(),
        vec![expected; SLOT_SIZE as usize],
        "slot {t}"
    );
}

#[test]
fn failed_group_force_fails_every_member_and_poisons_once() {
    const N: u64 = 4;

    // Dry run: count device syncs consumed by the setup prefix. The next
    // sync after that is the group's shared force.
    let dry_syncs = {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(vec![]);
        let (sleeper, _) = recording_sleeper();
        let (rvm, _region) =
            group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(grouped_tuning()));
        let (_, _, syncs) = clock.ops_seen();
        std::mem::forget(rvm);
        syncs
    };
    assert!(dry_syncs > 0);

    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    let clock = FaultClock::new(vec![FlakyFault::permanent(FaultOp::Sync, dry_syncs + 1)]);
    let (sleeper, _) = recording_sleeper();
    let (rvm, region) =
        group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(grouped_tuning()));

    let results = run_group(&rvm, &region, N);

    // The shared force failed: *every* member of the batch fails — none
    // may report durability the log never achieved.
    assert_eq!(
        results.iter().filter(|r| r.is_ok()).count(),
        0,
        "a member of a failed group reported success: {results:?}"
    );
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(RvmError::Device(_)))),
        "no member surfaced the device error: {results:?}"
    );
    for r in &results {
        assert!(
            matches!(r, Err(RvmError::Device(_)) | Err(RvmError::Poisoned)),
            "unexpected member outcome: {r:?}"
        );
    }

    // One failure, one poisoning — not one per member.
    assert!(rvm.is_poisoned());
    assert_eq!(rvm.query().stats.poisonings, 1);

    // Every member's in-memory state rolled back.
    assert_slot(&region, 0, 0);
    assert_slot(&region, 1, 1); // warm-up value, not 11
    assert_slot(&region, 2, 0);
    assert_slot(&region, 3, 0);

    // Reboot on repaired hardware. The records were fully written before
    // the force failed, so recovery replays the *whole* group — and must
    // never replay a partial one.
    std::mem::forget(rvm);
    let rvm = Rvm::initialize(clean_options(&log, &segments)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    let replayed: Vec<bool> = (0..N)
        .map(|t| region.read_vec(t * SLOT_SIZE, 1).unwrap()[0] == 10 + t as u8)
        .collect();
    assert!(
        replayed.iter().all(|&p| p),
        "sync-failure group must replay whole (records persisted): {replayed:?}"
    );
}

#[test]
fn failed_group_append_recovers_none_of_the_group() {
    const N: u64 = 4;

    // Dry run: count device writes in the setup prefix; the next write is
    // the leader's first group append.
    let dry_writes = {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(vec![]);
        let (sleeper, _) = recording_sleeper();
        let (rvm, _region) =
            group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(grouped_tuning()));
        let (_, writes, _) = clock.ops_seen();
        std::mem::forget(rvm);
        writes
    };

    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    let clock = FaultClock::new(vec![FlakyFault::permanent(FaultOp::Write, dry_writes + 1)]);
    let (sleeper, _) = recording_sleeper();
    let (rvm, region) =
        group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(grouped_tuning()));

    let results = run_group(&rvm, &region, N);
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 0);
    assert!(rvm.is_poisoned());
    assert_eq!(rvm.query().stats.poisonings, 1);
    std::mem::forget(rvm);

    // No group record reached the device: recovery replays none of the
    // group, and the warm-up commit survives untouched.
    let rvm = Rvm::initialize(clean_options(&log, &segments)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    assert_state_is_prefix(&region, 1);
    for t in 0..N {
        let first = region.read_vec(t * SLOT_SIZE, 1).unwrap()[0];
        assert_ne!(
            first,
            10 + t as u8,
            "group member {t} leaked into the durable image"
        );
    }
}

/// Queued twin of the failed-group-force scenario: a batch cap below the
/// committer count leaves committers queued behind the first leader, to
/// be served in a later round. The first round's force fails: the batch
/// fails whole and its cursors roll back, the failure poisons exactly
/// once, the committers still queued fail with it, and work arriving
/// after the poison fails fast without touching the device.
#[test]
fn failed_force_before_queued_committers_rolls_back_and_poisons_once() {
    const N: u64 = 4;

    fn queued_tuning() -> Tuning {
        Tuning {
            group_commit_max_txns: 2,
            ..grouped_tuning()
        }
    }

    // Dry run: count device syncs consumed by the setup prefix. The next
    // sync after that is the first round's force.
    let dry_syncs = {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(vec![]);
        let (sleeper, _) = recording_sleeper();
        let (rvm, _region) =
            group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(queued_tuning()));
        let (_, _, syncs) = clock.ops_seen();
        std::mem::forget(rvm);
        syncs
    };
    assert!(dry_syncs > 0);

    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    let clock = FaultClock::new(vec![FlakyFault::permanent(FaultOp::Sync, dry_syncs + 1)]);
    let (sleeper, _) = recording_sleeper();
    let (rvm, region) =
        group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(queued_tuning()));
    let tail0 = rvm.query().log.tail;

    let results = run_group(&rvm, &region, N);

    // The first batch's force failed: its members fail — none may report
    // durability the log never achieved — and so does the later round.
    assert_eq!(
        results.iter().filter(|r| r.is_ok()).count(),
        0,
        "a committer reported success after the failed force: {results:?}"
    );
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(RvmError::Device(_)))),
        "no member surfaced the device error: {results:?}"
    );

    // Exactly one poisoning for the whole batch — not one per member,
    // and not one per staging buffer.
    assert!(rvm.is_poisoned());
    let q = rvm.query();
    assert_eq!(q.stats.poisonings, 1);
    assert_eq!(q.log.tail, tail0, "the failed batch's cursors rolled back");

    // Committers arriving after the poison fail fast, before any staging
    // or device work.
    let ops_at_poison = clock.total_ops();
    let late = run_group(&rvm, &region, 2);
    assert!(
        late.iter().all(|r| matches!(r, Err(RvmError::Poisoned))),
        "commit after poison: {late:?}"
    );
    assert_eq!(
        clock.total_ops(),
        ops_at_poison,
        "a poisoned instance touched the device"
    );

    // Every member's in-memory state rolled back; the matching WAL cursor
    // rollback is what keeps the next image reboot-consistent.
    assert_slot(&region, 0, 0);
    assert_slot(&region, 1, 1); // warm-up value, not 11
    assert_slot(&region, 2, 0);
    assert_slot(&region, 3, 0);

    // Reboot on repaired hardware: the records were fully written before
    // the force failed, so recovery may replay the failed batch — but
    // never a partial one, and nothing of the round that failed fast.
    std::mem::forget(rvm);
    let rvm = Rvm::initialize(clean_options(&log, &segments)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    let replayed: Vec<bool> = (0..N)
        .map(|t| region.read_vec(t * SLOT_SIZE, 1).unwrap()[0] == 10 + t as u8)
        .collect();
    let batch = queued_tuning().group_commit_max_txns;
    assert!(
        [0, batch].contains(&replayed.iter().filter(|&&p| p).count()),
        "failed batch replayed partially: {replayed:?}"
    );
}

/// `terminate()` drains the spool with the same batch `flush()` does.
/// When that batch's
/// force fails, terminate must report it and hand the poisoned instance
/// back, not write a clean-shutdown status over records never forced.
#[test]
fn terminate_fails_with_its_spool_drain() {
    // Dry run: device syncs consumed before the shutdown drain's force.
    let run = |faults: Vec<FlakyFault>| {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(faults);
        let (sleeper, _) = recording_sleeper();
        let rvm = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)).unwrap();
        let region = rvm.map(&descriptor()).unwrap();
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        region.put_u64(&mut txn, INDEX_OFF, 7).unwrap();
        txn.commit(CommitMode::NoFlush).unwrap();
        (rvm, clock)
    };
    let dry_syncs = {
        let (rvm, clock) = run(vec![]);
        std::mem::forget(rvm);
        clock.ops_seen().2
    };

    let (rvm, _clock) = run(vec![FlakyFault::permanent(FaultOp::Sync, dry_syncs + 1)]);
    let failure = rvm.terminate().expect_err("the drain's force failed");
    assert!(
        matches!(failure.error, RvmError::Device(_)),
        "terminate failed with {}",
        failure.error
    );
    assert!(failure.rvm.is_poisoned());
    assert_eq!(failure.rvm.query().stats.poisonings, 1);
}

/// Builds a log + segments image holding `n` acknowledged commits whose
/// owner crashed without terminating (the log is un-truncated).
fn build_crashed_image(n: u64) -> (Arc<MemDevice>, MemResolver) {
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    let rvm = Rvm::initialize(clean_options(&log, &segments)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    for i in 1..=n {
        run_txn(&rvm, &region, i).unwrap();
    }
    std::mem::forget(rvm); // the machine dies: no destructors
    (log, segments)
}

#[test]
fn crash_during_recovery_matrix_re_recovers_idempotently() {
    const N: u64 = 20;

    // Count the device operations a recovery (initialize + map) performs,
    // with the log and all segment devices on one shared clock.
    let (log, segments) = build_crashed_image(N);
    let clock = FaultClock::new(vec![]);
    let (sleeper, _) = recording_sleeper();
    let rvm = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    assert_state_is_prefix(&region, N);
    let total_ops = clock.total_ops();
    std::mem::forget(rvm);
    assert!(total_ops > 0);

    // Crash recovery at every single device operation.
    for k in 1..=total_ops {
        let (log, segments) = build_crashed_image(N);
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(k)]);
        let (sleeper, _) = recording_sleeper();
        if let Ok(rvm) = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)) {
            // The crash lands during map (or just after); either way
            // this incarnation is dead.
            let _ = rvm.map(&descriptor());
            std::mem::forget(rvm);
        }
        assert!(clock.has_crashed(), "crash op {k} never fired");

        // Re-recovery over each image the crash allows (a sample: the
        // synced one, the one that keeps every unsynced write in order,
        // torn and reordered ones between) reaches the full committed
        // state...
        for_each_crash_image(&clock, &log, &segments, &sample(k), |kept, world| {
            let rvm = Rvm::initialize(world.options()).unwrap_or_else(|e| {
                panic!("re-recovery failed after crash at op {k}, kept {kept:?}: {e}")
            });
            let region = rvm.map(&descriptor()).unwrap();
            assert_eq!(
                region.get_u64(INDEX_OFF).unwrap(),
                N,
                "crash at recovery op {k}, kept {kept:?}, lost committed transactions"
            );
            assert_state_is_prefix(&region, N);
            let seg_snap = world.segments.get("seg").unwrap().snapshot();
            std::mem::forget(rvm); // crash again immediately after recovery

            // ...and is idempotent: a third recovery lands in the same state.
            let rvm = world.boot();
            let region = rvm.map(&descriptor()).unwrap();
            assert_eq!(region.get_u64(INDEX_OFF).unwrap(), N);
            assert_eq!(
                world.segments.get("seg").unwrap().snapshot(),
                seg_snap,
                "recovery after crash op {k}, kept {kept:?}, is not idempotent"
            );
        });
    }
}

#[test]
fn crash_during_truncation_matrix_preserves_all_commits() {
    const N: u64 = 20;

    // Baseline: count the operation window occupied by an explicit
    // truncation after N commits.
    let log = Arc::new(MemDevice::with_len(1 << 20));
    let segments = MemResolver::new();
    let clock = FaultClock::new(vec![]);
    let (sleeper, _) = recording_sleeper();
    let rvm = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)).unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    for i in 1..=N {
        run_txn(&rvm, &region, i).unwrap();
    }
    let ops_before = clock.total_ops();
    rvm.truncate().unwrap();
    let ops_after = clock.total_ops();
    rvm.terminate().unwrap();
    assert!(ops_after > ops_before, "truncation performed no device ops");

    // Crash at every operation inside the truncation window.
    for k in (ops_before + 1)..=ops_after {
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(k)]);
        let (sleeper, _) = recording_sleeper();
        let rvm = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)).unwrap();
        let region = rvm.map(&descriptor()).unwrap();
        for i in 1..=N {
            run_txn(&rvm, &region, i)
                .unwrap_or_else(|e| panic!("txn {i} failed before crash op {k}: {e}"));
        }
        let err = rvm.truncate().unwrap_err();
        assert!(
            matches!(err, RvmError::Device(_)),
            "crash op {k}: truncate failed with {err}"
        );
        assert!(rvm.is_poisoned(), "crash op {k} did not poison");
        std::mem::forget(rvm);

        // Reboot from each image the crash allows (a sample): every
        // acknowledged commit survives.
        for_each_crash_image(&clock, &log, &segments, &sample(k), |kept, world| {
            let rvm = Rvm::initialize(world.options()).unwrap_or_else(|e| {
                panic!("recovery failed after truncation crash at op {k}, kept {kept:?}: {e}")
            });
            let region = rvm.map(&descriptor()).unwrap();
            assert_eq!(
                region.get_u64(INDEX_OFF).unwrap(),
                N,
                "truncation crash at op {k}, kept {kept:?}, lost committed transactions"
            );
            assert_state_is_prefix(&region, N);
        });
    }
}

/// Regression: a *transient* replica error under a mirror must be
/// retried (writes) or skipped (reads) without dropping the replica.
/// An earlier draft dropped a replica on its first error of any kind,
/// silently halving redundancy on every hiccup.
#[test]
fn mirrored_log_transient_faults_retry_and_skip_without_dropping_replicas() {
    use rvm_storage::{Device, MirrorDevice};
    const N: u64 = 12;

    let a_mem = Arc::new(MemDevice::with_len(1 << 20));
    let b_mem = Arc::new(MemDevice::with_len(1 << 20));
    // Transient faults on one replica only: short write runs (inside the
    // mirror's retry budget), a read hiccup (skipped to the healthy
    // replica), and a sync failure (retried).
    let clock = FaultClock::new(vec![
        FlakyFault::transient(FaultOp::Read, 2),
        FlakyFault::transient(FaultOp::Write, 5),
        FlakyFault::transient_run(FaultOp::Write, 20, 2),
        FlakyFault::transient(FaultOp::Sync, 4),
    ]);
    let a = Arc::new(FaultDevice::with_clock(a_mem.clone(), Arc::clone(&clock)));
    let mirror = Arc::new(
        MirrorDevice::new(vec![
            a as Arc<dyn Device>,
            Arc::clone(&b_mem) as Arc<dyn Device>,
        ])
        .unwrap(),
    );
    let segments = MemResolver::new();
    let rvm = Rvm::initialize(
        Options::new(mirror)
            .resolver(segments.clone().into_resolver())
            .create_if_empty(),
    )
    .unwrap();
    let region = rvm.map(&descriptor()).unwrap();
    for i in 1..=N {
        run_txn(&rvm, &region, i).unwrap_or_else(|e| panic!("txn {i} failed to heal: {e}"));
    }
    assert!(clock.injected() > 0, "fault schedule never fired");
    assert_state_is_prefix(&region, N);

    // Every fault was transient: both replicas must still be in service.
    let q = rvm.query();
    assert_eq!(
        (q.replicas_alive, q.replicas_total),
        (2, 2),
        "a transient fault dropped a replica: {q:?}"
    );
    rvm.terminate().unwrap();

    // And the retried writes really landed: both replicas carry the same
    // durable log image.
    assert_eq!(a_mem.snapshot(), b_mem.snapshot());
}

#[test]
fn seeded_fault_storms_either_heal_or_poison_recoverably() {
    const N: u64 = 25;
    for per_mille in [30u32, 400] {
        for seed in 1..=4u64 {
            let log = Arc::new(MemDevice::with_len(1 << 20));
            let segments = MemResolver::new();
            let clock = FaultClock::seeded(seed, per_mille);
            let (sleeper, _) = recording_sleeper();
            let tag = format!("seed {seed} @ {per_mille}\u{2030}");

            let mut acked = 0u64;
            let mut clean_exit = false;
            // A failed initialization means it was flooded: acked == 0.
            if let Ok(rvm) = Rvm::initialize(flaky_options(&log, &segments, &clock, sleeper)) {
                if let Ok(region) = rvm.map(&descriptor()) {
                    for i in 1..=N {
                        match run_txn(&rvm, &region, i) {
                            Ok(()) => acked = i,
                            Err(e) => {
                                assert!(
                                    rvm.is_poisoned(),
                                    "{tag}: commit failed ({e}) without poisoning"
                                );
                                break;
                            }
                        }
                    }
                }
                if acked == N {
                    // terminate consumes the instance whether or not it
                    // succeeds; the durable image must stay recoverable.
                    clean_exit = rvm.terminate().is_ok();
                } else {
                    std::mem::forget(rvm);
                }
            }

            // Whatever happened, a fresh instance over the bare devices
            // recovers a prefix containing every acknowledged commit.
            let rvm = Rvm::initialize(clean_options(&log, &segments))
                .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
            let region = rvm.map(&descriptor()).unwrap();
            let recovered = region.get_u64(INDEX_OFF).unwrap();
            assert!(
                recovered >= acked,
                "{tag}: acked {acked} but recovered {recovered}"
            );
            assert!(recovered <= N, "{tag}");
            assert_state_is_prefix(&region, recovered);
            if clean_exit {
                assert_eq!(recovered, N, "{tag}: clean run lost state");
            }
            rvm.terminate().unwrap();
        }
    }
}

/// `set_options` under load: flipping the batch cap between one force per
/// commit, tiny batches (committers left queued for later rounds) and the
/// default (leaders drain everything) while committers are queued.
/// Nothing in `set_options` touches the queue; every queued committer is
/// served by a later leader round whatever the cap has become, so
/// committers hammering flush commits through every flip must all
/// complete, with nothing lost across a reboot.
#[test]
fn batch_cap_flips_under_concurrent_committers_strand_no_batch() {
    const THREADS: u64 = 4;
    const TXNS: u64 = 60;
    let world = World::new(16 << 20);
    let tuning = |group_commit_max_txns| Tuning {
        // An accumulation window keeps batches multi-member, so a flip
        // mid-batch has members to strand.
        group_commit_wait_us: 500,
        group_commit_max_txns,
        ..Tuning::default()
    };
    let rvm = Arc::new(world.boot_tuned(tuning(64)));
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();
    let barrier = Arc::new(Barrier::new(THREADS as usize + 1));
    let committers: Vec<_> = (0..THREADS)
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

    barrier.wait();
    for &cap in [1, 2, 64, 2].iter().cycle().take(12) {
        rvm.set_options(tuning(cap));
        std::thread::sleep(Duration::from_millis(2));
    }
    for c in committers {
        c.join().unwrap();
    }

    let stats = rvm.stats();
    assert_eq!(stats.txns_committed, THREADS * TXNS);
    assert_eq!(stats.flush_commits, THREADS * TXNS);
    assert_eq!(rvm.query().active_transactions, 0);

    // Crash without terminating: every acknowledged flush commit must
    // survive, whichever cap its round ran under.
    drop(region);
    std::mem::forget(Arc::try_unwrap(rvm).expect("sole owner"));
    let rvm = Rvm::initialize(world.options()).unwrap();
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();
    for t in 0..THREADS {
        // Thread t's final write to slot 59 % 16 == 11 was i == 59.
        assert_eq!(
            region.get_u64(t * PAGE_SIZE + 11 * 8).unwrap(),
            t * 1000 + TXNS,
            "thread {t} lost a commit across batch-cap flips"
        );
    }
    rvm.terminate().unwrap();
}

/// The `skip_group_rollback` mutation hook must be convictable on both
/// sides of a batch boundary: a failed first batch, and a failed batch
/// behind one that forced. A crash image cannot show it — a
/// failed batch poisons the instance, which then never writes again — so
/// the conviction is the in-memory invariant itself: after a batch's
/// force fails with nothing appended past it, the WAL tail is back at the
/// batch's checkpoint; with the hook on, it still claims the unforced
/// records.
#[test]
fn skipped_batch_rollback_is_convicted_on_both_sides() {
    use rvm::log::record::{HEADER_SIZE, LOG_BLOCK, RANGE_ENTRY_SIZE, TRAILER_SIZE};

    /// Log space one `run_group` record takes: one slot-sized range.
    const RECORD: u64 =
        (HEADER_SIZE + RANGE_ENTRY_SIZE + SLOT_SIZE + TRAILER_SIZE).next_multiple_of(LOG_BLOCK);

    /// Runs `n` one-record committers at batch cap `cap` with the
    /// `nth_force` after setup failing; returns the WAL tail growth since
    /// setup, in records.
    fn tail_growth(cap: usize, n: u64, nth_force: u64, skip_rollback: bool) -> u64 {
        let tuning = || Tuning {
            group_commit_max_txns: cap,
            ..grouped_tuning()
        };
        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(vec![]);
        let (sleeper, _) = recording_sleeper();
        let (rvm, _region) =
            group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(tuning()));
        let (_, _, dry_syncs) = clock.ops_seen();
        std::mem::forget(rvm);

        let log = Arc::new(MemDevice::with_len(1 << 20));
        let segments = MemResolver::new();
        let clock = FaultClock::new(vec![FlakyFault::permanent(
            FaultOp::Sync,
            dry_syncs + nth_force,
        )]);
        let (sleeper, _) = recording_sleeper();
        let (rvm, region) =
            group_setup(flaky_options(&log, &segments, &clock, sleeper).tuning(tuning()));
        rvm.set_mutation_hooks(rvm::MutationHooks {
            skip_group_rollback: skip_rollback,
            ..Default::default()
        });
        let tail0 = rvm.query().log.tail;
        let results = run_group(&rvm, &region, n);
        assert!(rvm.is_poisoned(), "{results:?}");
        let q = rvm.query();
        std::mem::forget(rvm);
        (q.log.tail - tail0) / RECORD
    }

    // One batch of four, its force fails.
    assert_eq!(tail_growth(64, 4, 1, false), 0, "batch rolled back");
    assert_eq!(tail_growth(64, 4, 1, true), 4, "hook went unnoticed");
    // Batches of two then one in successive rounds; the first force
    // succeeds and the second — the last batch's — fails.
    assert_eq!(tail_growth(2, 3, 2, false), 2, "last batch rolled back");
    assert_eq!(tail_growth(2, 3, 2, true), 3, "hook went unnoticed");
}
