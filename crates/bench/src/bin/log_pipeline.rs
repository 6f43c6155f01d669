//! Overlapped log forces: flush-commit throughput when a batch cap below
//! the committer count leaves committers queued behind every leader, over
//! the virtual disk clock.
//!
//! Each cell boots a fresh RVM over a `circa_1990` simulated log disk
//! and splits a fixed transaction budget across N committer threads on
//! disjoint pages, at a batch cap of 8. Every batch shares one force;
//! what the thread count changes is *when* the force runs. With at most
//! 8 committers a leader's drain empties the queue, so it writes, forces
//! and completes its batch itself — plain group commit — before the next
//! batch may fill. With 16, a drain leaves committers queued: the leader
//! submits batch A's force and the next leader fills and submits batch B
//! while it spins, so record serialization rides for free inside the
//! force window and queued forces earn the controller's tagged-command
//! discount. The per-cell disk stats expose the mechanism:
//! `overlapped_syncs` counts forces submitted while the mechanism was
//! still busy (always zero when every batch completes inline), and the
//! interval trace proves at least one force's service span intersected a
//! record transfer on the virtual timeline.
//!
//! Usage: `log_pipeline [--quick] [--check] [--txns N]`
//!
//! Writes `BENCH_log_pipeline.json` (machine-readable, at the repo
//! root) and `results/log_pipeline.txt` (the table). `--check` exits
//! non-zero unless the 16-thread cell exceeds 748 txn/s — the CI
//! perf-smoke gate; every run also checks that the 16-thread cell
//! overlapped its forces and that the 4-thread cell submitted nothing.

use std::sync::{Arc, Barrier};

use rvm::{CommitMode, Options, Rvm, TruncationMode, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{MemDevice, NullDevice};
use simclock::Clock;
use simdisk::{DiskOp, DiskParams, SimDisk};

/// A modest batch cap: above it (16 threads) consecutive batches exist to
/// overlap at all; at or below it (4 threads) every drain empties the
/// queue.
const BATCH_CAP: usize = 8;

/// One measured cell of the sweep.
struct Cell {
    threads: u64,
    txns: u64,
    io_ms: f64,
    txn_per_s: f64,
    log_forces: u64,
    flush_commits: u64,
    mean_batch: f64,
    pipeline_submits: u64,
    forces_in_flight_hw: u64,
    pipeline_stall_ms: f64,
    overlapped_syncs: u64,
    forces_overlapping_writes: u64,
}

/// Runs `total` flush commits split across `threads` threads, returning
/// the cell.
fn run_cell(threads: u64, total: u64) -> Cell {
    let clock = Clock::new();
    let log = Arc::new(SimDisk::new(
        Arc::new(MemDevice::with_len(256 << 20)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let data = Arc::new(SimDisk::new(
        Arc::new(NullDevice::new(0)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let resolver = rvm_bench::one_disk_resolver(data);
    let tuning = Tuning {
        group_commit_max_txns: BATCH_CAP,
        // A short accumulation window (wall-clock; the virtual disk is
        // not charged) so concurrent committers reliably share a batch.
        group_commit_wait_us: 300,
        // The resolver aliases every name onto one data disk; checksum
        // sidecars are off so catalog writes cannot land on it.
        segment_checksums: false,
        // The gate was set against epoch truncation; it keeps measuring
        // what it measured whatever the library's default is.
        truncation_mode: TruncationMode::Epoch,
        ..Tuning::default()
    };
    let rvm = Arc::new(
        Rvm::initialize(
            Options::new(log.clone())
                .resolver(resolver)
                .tuning(tuning)
                .create_if_empty(),
        )
        .expect("initialize RVM over simulated devices"),
    );
    let region = rvm
        .map(&rvm::RegionDescriptor::new("bench", 0, threads * PAGE_SIZE))
        .expect("map the benchmark region");

    let before_io = clock.io_time();
    let before_stats = rvm.stats();
    let before_disk = log.stats();
    log.set_interval_trace(true);

    let per_thread = total / threads;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let rvm = Arc::clone(&rvm);
            let region = region.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut payload = [0u8; 256];
                for i in 0..per_thread {
                    payload[..8].copy_from_slice(&(t * per_thread + i).to_le_bytes());
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                    region
                        .write(&mut txn, t * PAGE_SIZE + (i % 8) * 256, &payload)
                        .expect("write");
                    txn.commit(CommitMode::Flush).expect("commit");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("committer thread");
    }

    // Mechanical overlap evidence from the virtual timeline: forces
    // whose `[start, end)` span intersects a record transfer.
    let intervals = log.take_intervals();
    log.set_interval_trace(false);
    let forces_overlapping_writes = intervals
        .iter()
        .filter(|s| s.op == DiskOp::Sync)
        .filter(|s| {
            intervals
                .iter()
                .any(|w| w.op == DiskOp::Write && s.overlaps(w))
        })
        .count() as u64;

    let txns = per_thread * threads;
    let io_ms = (clock.io_time() - before_io).as_millis_f64();
    let stats = rvm.stats().delta_since(&before_stats);
    let disk = log.stats().delta_since(&before_disk);
    Cell {
        threads,
        txns,
        io_ms,
        txn_per_s: txns as f64 / (io_ms / 1000.0),
        log_forces: stats.log_forces,
        flush_commits: stats.flush_commits,
        mean_batch: stats.mean_group_batch(),
        pipeline_submits: stats.pipeline_submits,
        forces_in_flight_hw: stats.forces_in_flight_hw,
        pipeline_stall_ms: stats.pipeline_stall_ns as f64 / 1e6,
        overlapped_syncs: disk.overlapped_syncs,
        forces_overlapping_writes,
    }
}

fn json_cell(c: &Cell) -> String {
    format!(
        concat!(
            "    {{\"threads\": {}, \"txns\": {}, ",
            "\"io_ms\": {:.3}, \"txn_per_s\": {:.2}, \"log_forces\": {}, ",
            "\"flush_commits\": {}, \"mean_batch\": {:.2}, ",
            "\"pipeline_submits\": {}, \"forces_in_flight_hw\": {}, ",
            "\"pipeline_stall_ms\": {:.3}, \"overlapped_syncs\": {}, ",
            "\"forces_overlapping_writes\": {}}}"
        ),
        c.threads,
        c.txns,
        c.io_ms,
        c.txn_per_s,
        c.log_forces,
        c.flush_commits,
        c.mean_batch,
        c.pipeline_submits,
        c.forces_in_flight_hw,
        c.pipeline_stall_ms,
        c.overlapped_syncs,
        c.forces_overlapping_writes,
    )
}

fn main() {
    let mut total: u64 = 2048;
    let mut threads: Vec<u64> = vec![1, 2, 4, 8, 16];
    let mut check = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                total = 512;
                threads = vec![4, 16];
            }
            "--check" => check = true,
            "--txns" => {
                i += 1;
                total = args[i].parse().expect("--txns N");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let header = format!(
        "{:>7} {:>9} {:>11} {:>8} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "threads", "txn/s", "io_ms", "forces", "mean_batch", "submits", "hw", "ovl_sync", "ovl_f/w"
    );
    println!("{header}");
    let mut table = String::new();
    table.push_str(&format!(
        "overlapped log forces, {total} flush commits per cell, \
         batch cap {BATCH_CAP}, circa-1990 disk\n\n{header}\n"
    ));
    let mut cells: Vec<Cell> = Vec::new();
    for &t in &threads {
        let c = run_cell(t, total);
        let line = format!(
            "{:>7} {:>9.1} {:>11.1} {:>8} {:>10.2} {:>8} {:>8} {:>9} {:>9}",
            c.threads,
            c.txn_per_s,
            c.io_ms,
            c.log_forces,
            c.mean_batch,
            c.pipeline_submits,
            c.forces_in_flight_hw,
            c.overlapped_syncs,
            c.forces_overlapping_writes
        );
        println!("{line}");
        table.push_str(&line);
        table.push('\n');
        cells.push(c);
    }

    let at = |threads: u64| cells.iter().find(|c| c.threads == threads);
    let gate_threads = *threads.last().expect("non-empty sweep");
    let overlapped = at(gate_threads).expect("gate cell");
    let summary = format!(
        "\n{gate_threads} threads at cap {BATCH_CAP}: {:.1} txn/s, {} of {} forces overlapped\n",
        overlapped.txn_per_s, overlapped.overlapped_syncs, overlapped.log_forces
    );
    println!("{summary}");
    table.push_str(&summary);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"log_pipeline\",\n");
    json.push_str(&format!("  \"total_txns\": {total},\n"));
    json.push_str(&format!("  \"batch_cap\": {BATCH_CAP},\n"));
    json.push_str("  \"disk\": \"circa_1990\",\n");
    json.push_str(&format!(
        "  \"txn_per_s_at_{gate_threads}_threads\": {:.2},\n",
        overlapped.txn_per_s
    ));
    json.push_str("  \"cells\": [\n");
    let body: Vec<String> = cells.iter().map(json_cell).collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_log_pipeline.json", &json).expect("write JSON");
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/log_pipeline.txt", &table).expect("write table");

    // The overlap claims are structural, not thresholds: check them on
    // every run so a regression cannot hide behind a still-passing
    // throughput number.
    assert!(
        overlapped.overlapped_syncs > 0,
        "{gate_threads} threads never queued a force behind a busy mechanism"
    );
    assert!(
        overlapped.forces_overlapping_writes > 0,
        "no force overlapped record serialization"
    );
    if let Some(inline) = at(4) {
        assert_eq!(
            (inline.pipeline_submits, inline.overlapped_syncs),
            (0, 0),
            "4 committers under a cap of {BATCH_CAP} never leave one queued: \
             every batch must complete inline"
        );
    }

    if check && overlapped.txn_per_s <= 748.0 {
        eprintln!(
            "FAIL: {gate_threads} threads at cap {BATCH_CAP} reached {:.1} txn/s (need > 748)",
            overlapped.txn_per_s
        );
        std::process::exit(1);
    }
}
