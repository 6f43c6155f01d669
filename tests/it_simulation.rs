//! Sanity checks of the simulation substrate and quick shape checks of
//! the benchmark harness: the paper's qualitative claims must hold even
//! on reduced sweeps (full sweeps live in the `table1`/`figure8`/
//! `figure9` binaries).

use std::sync::{Arc, Barrier};

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_bench::tpca_run::{run_cell, SweepConfig, SystemKind};
use rvm_storage::MemDevice;
use simclock::Clock;
use simdisk::{DiskOp, DiskParams, SimDisk};
use tpca::AccessPattern;

fn quick_cfg() -> SweepConfig {
    SweepConfig {
        txns_per_trial: 4_000,
        trials: 1,
        ..SweepConfig::default()
    }
}

#[test]
fn log_force_bound_holds() {
    // §7.1.2: observed best case within 15% of the 57.4 txn/s bound.
    let cfg = quick_cfg();
    let cell = run_cell(SystemKind::Rvm, 32 * 1024, AccessPattern::Sequential, &cfg);
    let tps = cell.mean_tps();
    assert!(tps < 57.5, "cannot beat the log-force bound: {tps}");
    assert!(
        tps > 57.5 * 0.80,
        "best case within ~15-20% of bound: {tps}"
    );
}

#[test]
fn rvm_beats_camelot_across_the_board() {
    let cfg = quick_cfg();
    for pattern in AccessPattern::ALL {
        for accounts in [32 * 1024u64, 262_144] {
            let rvm = run_cell(SystemKind::Rvm, accounts, pattern, &cfg).mean_tps();
            let cam = run_cell(SystemKind::Camelot, accounts, pattern, &cfg).mean_tps();
            assert!(
                rvm > cam,
                "RVM must outperform Camelot ({pattern:?}, {accounts} accounts): {rvm} vs {cam}"
            );
        }
    }
}

#[test]
fn camelot_is_locality_sensitive_at_small_sizes_and_rvm_is_not() {
    // §7.1.2: at Rmem/Pmem = 12.5%, Camelot's throughput drops from
    // sequential to localized to random; RVM's barely moves.
    let cfg = quick_cfg();
    let accounts = 32 * 1024;
    let cam_seq = run_cell(
        SystemKind::Camelot,
        accounts,
        AccessPattern::Sequential,
        &cfg,
    )
    .mean_tps();
    let cam_loc = run_cell(
        SystemKind::Camelot,
        accounts,
        AccessPattern::Localized,
        &cfg,
    )
    .mean_tps();
    let cam_rnd = run_cell(SystemKind::Camelot, accounts, AccessPattern::Random, &cfg).mean_tps();
    assert!(
        cam_seq > cam_loc && cam_loc > cam_rnd,
        "{cam_seq} > {cam_loc} > {cam_rnd}"
    );
    assert!(cam_rnd < cam_seq * 0.95, "sensitivity is material");

    let rvm_seq = run_cell(SystemKind::Rvm, accounts, AccessPattern::Sequential, &cfg).mean_tps();
    let rvm_rnd = run_cell(SystemKind::Rvm, accounts, AccessPattern::Random, &cfg).mean_tps();
    assert!(
        (rvm_seq - rvm_rnd).abs() / rvm_seq < 0.06,
        "RVM is pattern-insensitive at 12.5%: {rvm_seq} vs {rvm_rnd}"
    );
}

#[test]
fn rvm_random_throughput_knees_when_rmem_exceeds_memory() {
    let cfg = quick_cfg();
    let small = run_cell(SystemKind::Rvm, 32 * 1024, AccessPattern::Random, &cfg).mean_tps();
    let large = run_cell(SystemKind::Rvm, 425_984, AccessPattern::Random, &cfg).mean_tps();
    assert!(
        large < small * 0.85,
        "paging must bite at 162.5%: {small} -> {large}"
    );
}

#[test]
fn cpu_per_transaction_ratio_matches_figure_9() {
    // "RVM requires about half the CPU usage of Camelot" (sequential).
    let cfg = quick_cfg();
    let rvm = run_cell(SystemKind::Rvm, 32 * 1024, AccessPattern::Sequential, &cfg).mean_cpu();
    let cam = run_cell(
        SystemKind::Camelot,
        32 * 1024,
        AccessPattern::Sequential,
        &cfg,
    )
    .mean_cpu();
    let ratio = cam / rvm;
    assert!(
        (1.5..3.0).contains(&ratio),
        "Camelot/RVM CPU ratio ~2, got {ratio:.2} ({cam:.2}/{rvm:.2})"
    );
}

#[test]
fn sweeps_are_deterministic() {
    let cfg = quick_cfg();
    let a = run_cell(SystemKind::Rvm, 65_536, AccessPattern::Localized, &cfg).mean_tps();
    let b = run_cell(SystemKind::Rvm, 65_536, AccessPattern::Localized, &cfg).mean_tps();
    assert_eq!(a, b, "virtual-clock runs must be bit-for-bit repeatable");
}

#[test]
fn pipelined_forces_overlap_record_serialization_on_simdisk() {
    // The pipeline's whole point on real hardware: while one buffer's
    // force spins the platter, the next buffer's records stream over the
    // bus into the write-behind cache. The simulated disk records per-op
    // `[start, end)` intervals on the virtual timeline, so the claim is
    // checked mechanically rather than inferred from throughput totals.
    const THREADS: u64 = 8;
    const TXNS: u64 = 12;
    let clock = Clock::new();
    let disk = Arc::new(SimDisk::new(
        Arc::new(MemDevice::with_len(8 << 20)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let rvm = Arc::new(
        Rvm::initialize(
            Options::new(disk.clone())
                .resolver(MemResolver::new().into_resolver())
                .create_if_empty()
                .tuning(Tuning {
                    group_commit_wait_us: 2_000,
                    group_commit_max_txns: 4,
                    ..Tuning::default()
                }),
        )
        .expect("initialize"),
    );
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, THREADS * PAGE_SIZE))
        .unwrap();

    // Trace only the workload, not initialization/recovery I/O.
    let boot_stats = disk.stats();
    disk.set_interval_trace(true);
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
    // (Disabling the trace clears the buffer, so drain it first.)
    let intervals = disk.take_intervals();
    disk.set_interval_trace(false);

    // The pipeline engaged...
    let q = rvm.query();
    assert_eq!(q.stats.flush_commits, THREADS * TXNS);
    assert!(q.stats.pipeline_submits >= 2, "{:?}", q.stats);

    // ...and the disk saw it: queued syncs were submitted while the
    // mechanism was still busy on the previous operation,
    let delta = disk.stats().delta_since(&boot_stats);
    assert!(
        delta.overlapped_syncs > 0,
        "no sync was ever queued behind an in-flight operation: {delta:?}"
    );

    // ...and at least one force's service interval intersects a record
    // transfer (a log write) on the virtual timeline.
    let syncs: Vec<_> = intervals.iter().filter(|i| i.op == DiskOp::Sync).collect();
    let writes: Vec<_> = intervals.iter().filter(|i| i.op == DiskOp::Write).collect();
    assert!(!syncs.is_empty() && !writes.is_empty());
    assert!(
        syncs.iter().any(|s| writes.iter().any(|w| s.overlaps(w))),
        "no force overlapped record serialization across {} syncs / {} writes",
        syncs.len(),
        writes.len()
    );
}

#[test]
fn coda_workload_reproduces_table_2_bands() {
    // Scaled-down check: servers get intra-only savings around 20%;
    // the burstiest client (berlioz) gets majority inter savings.
    let profiles = coda_wl::profiles();
    let grieg = profiles.iter().find(|p| p.name == "grieg").unwrap();
    let mut p = grieg.clone();
    p.txns = 2_000;
    let row = coda_wl::run_machine(&p, 42);
    assert!(
        (15.0..30.0).contains(&row.intra_pct),
        "grieg intra {}",
        row.intra_pct
    );
    assert_eq!(row.inter_pct, 0.0);

    let berlioz = profiles.iter().find(|p| p.name == "berlioz").unwrap();
    let mut p = berlioz.clone();
    p.txns = 3_000;
    let row = coda_wl::run_machine(&p, 42);
    assert!(row.inter_pct > 45.0, "berlioz inter {}", row.inter_pct);
    assert!(row.inter_pct > row.intra_pct);
}
