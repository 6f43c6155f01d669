//! Group-commit scaling: flush-commit throughput versus thread count,
//! grouped (the default batch cap) versus one force per commit
//! (`group_commit_max_txns: 1`), over the virtual disk clock.
//!
//! Each cell boots a fresh RVM over a `circa_1990` simulated log disk,
//! splits a fixed transaction budget across N committer threads working
//! disjoint pages, and measures the virtual I/O time the log consumed.
//! One committer forcing every commit pays one ~17.4 ms force each: the
//! paper's 57 txn/s ceiling (§7.1.2). With more threads at cap 1 every
//! commit still costs a force, one at a time, so those rows sit at the
//! same ceiling (the gate uses the one-thread row). Group commit shares
//! one force per batch, so throughput scales with the achieved batch
//! size. The per-cell stats expose the mechanism: `log_forces` falls below
//! `flush_commits` and the disk sees one coalesced extent per batch
//! instead of one per commit.
//!
//! Usage: `commit_scaling [--quick] [--check] [--txns N]`
//!
//! Writes `BENCH_commit_scaling.json` (machine-readable, at the repo
//! root) and `results/commit_scaling.txt` (the table). `--check` exits
//! non-zero unless grouped throughput at 8 threads beats the one-thread,
//! one-force-per-commit ceiling by at least 4x — the CI perf-smoke gate.

use std::sync::{Arc, Barrier};

use rvm::{CommitMode, Options, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{MemDevice, NullDevice};
use simclock::Clock;
use simdisk::{DiskParams, SimDisk};

/// One measured cell of the sweep.
struct Cell {
    mode: &'static str,
    threads: u64,
    txns: u64,
    io_ms: f64,
    txn_per_s: f64,
    log_forces: u64,
    flush_commits: u64,
    batches: u64,
    mean_batch: f64,
    forces_per_commit: f64,
    syncs: u64,
    sync_extents: u64,
}

/// Runs `total` flush commits split across `threads` threads, returning
/// the cell. `grouped` keeps the default batch cap; otherwise the cap is
/// 1, one force per commit.
fn run_cell(threads: u64, total: u64, grouped: bool) -> Cell {
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
        group_commit_max_txns: if grouped {
            Tuning::default().group_commit_max_txns
        } else {
            1
        },
        // A short accumulation window (wall-clock; the virtual disk is
        // not charged) so concurrent committers reliably share a batch.
        group_commit_wait_us: if grouped { 300 } else { 0 },
        // The resolver aliases every name onto one data disk; checksum
        // sidecars are off so catalog writes cannot land on it.
        segment_checksums: false,
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

    let txns = per_thread * threads;
    let io_ms = (clock.io_time() - before_io).as_millis_f64();
    let stats = rvm.stats().delta_since(&before_stats);
    let disk = log.stats().delta_since(&before_disk);
    Cell {
        mode: if grouped { "grouped" } else { "serialized" },
        threads,
        txns,
        io_ms,
        txn_per_s: txns as f64 / (io_ms / 1000.0),
        log_forces: stats.log_forces,
        flush_commits: stats.flush_commits,
        batches: stats.group_commit_batches,
        mean_batch: stats.mean_group_batch(),
        forces_per_commit: stats.forces_per_flush_commit(),
        syncs: disk.syncs,
        sync_extents: disk.sync_extents,
    }
}

fn json_cell(c: &Cell) -> String {
    format!(
        concat!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"txns\": {}, ",
            "\"io_ms\": {:.3}, \"txn_per_s\": {:.2}, \"log_forces\": {}, ",
            "\"flush_commits\": {}, \"group_commit_batches\": {}, ",
            "\"mean_batch\": {:.2}, \"forces_per_commit\": {:.4}, ",
            "\"syncs\": {}, \"sync_extents\": {}}}"
        ),
        c.mode,
        c.threads,
        c.txns,
        c.io_ms,
        c.txn_per_s,
        c.log_forces,
        c.flush_commits,
        c.batches,
        c.mean_batch,
        c.forces_per_commit,
        c.syncs,
        c.sync_extents,
    )
}

fn main() {
    let mut total: u64 = 2048;
    let mut threads: Vec<u64> = (1..=16).collect();
    let mut check = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                total = 512;
                threads = vec![1, 2, 4, 8];
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

    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "{:<11} {:>7} {:>9} {:>11} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "mode",
        "threads",
        "txn/s",
        "io_ms",
        "forces",
        "commits",
        "batches",
        "mean_batch",
        "extents"
    );
    let mut table = String::new();
    table.push_str(&format!(
        "group-commit scaling, {total} flush commits per cell, circa-1990 disk\n\n"
    ));
    table.push_str(&format!(
        "{:<11} {:>7} {:>9} {:>11} {:>8} {:>8} {:>8} {:>10} {:>8}\n",
        "mode",
        "threads",
        "txn/s",
        "io_ms",
        "forces",
        "commits",
        "batches",
        "mean_batch",
        "extents"
    ));
    for &grouped in &[false, true] {
        for &t in &threads {
            let c = run_cell(t, total, grouped);
            let line = format!(
                "{:<11} {:>7} {:>9.1} {:>11.1} {:>8} {:>8} {:>8} {:>10.2} {:>8}",
                c.mode,
                c.threads,
                c.txn_per_s,
                c.io_ms,
                c.log_forces,
                c.flush_commits,
                c.batches,
                c.mean_batch,
                c.sync_extents
            );
            println!("{line}");
            table.push_str(&line);
            table.push('\n');
            cells.push(c);
        }
    }

    let at = |mode: &str, t: u64| {
        cells
            .iter()
            .find(|c| c.mode == mode && c.threads == t)
            .map(|c| c.txn_per_s)
    };
    let gate_threads = *threads.iter().rev().find(|&&t| t <= 8).unwrap_or(&1);
    let speedup = match (at("grouped", gate_threads), at("serialized", 1)) {
        (Some(g), Some(s)) if s > 0.0 => g / s,
        _ => 0.0,
    };
    let summary =
        format!("\ngrouped at {gate_threads} threads vs serialized at 1 thread: {speedup:.2}x\n");
    println!("{summary}");
    table.push_str(&summary);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"commit_scaling\",\n");
    json.push_str(&format!("  \"total_txns\": {total},\n"));
    json.push_str("  \"disk\": \"circa_1990\",\n");
    json.push_str(&format!(
        "  \"speedup_at_{gate_threads}_threads\": {speedup:.3},\n"
    ));
    json.push_str("  \"cells\": [\n");
    let body: Vec<String> = cells.iter().map(json_cell).collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_commit_scaling.json", &json).expect("write JSON");
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/commit_scaling.txt", &table).expect("write table");

    if check && speedup < 4.0 {
        eprintln!("FAIL: grouped@{gate_threads} is only {speedup:.2}x serialized@1 (need >= 4x)");
        std::process::exit(1);
    }
}
