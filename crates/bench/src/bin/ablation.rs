//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Truncation mechanism** (§5.1.2's "we expect incremental
//!    truncation to improve performance significantly"): epoch vs
//!    incremental truncation under a TPC-A load on real devices.
//! 2. **Intra/inter optimizations** (§5.2): log traffic with each
//!    optimization disabled, on the Coda client workload.
//! 3. **Transaction modes** (§4.2): commit latency of flush vs no-flush
//!    commits, and set-range cost of restore vs no-restore transactions,
//!    on the simulated 1993 disk.

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, RegionDescriptor, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::MemDevice;
use simclock::Clock;
use simdisk::{DiskParams, SimDisk};

fn rvm_over_simdisk(clock: &Clock, tuning: Tuning) -> Rvm {
    let log = Arc::new(SimDisk::new(
        Arc::new(MemDevice::with_len(8 << 20)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let seg_backing = Arc::new(SimDisk::new(
        Arc::new(MemDevice::with_len(16 << 20)),
        clock.clone(),
        DiskParams::circa_1990(),
    ));
    let resolver = rvm_bench::one_disk_resolver(seg_backing);
    // The resolver aliases every name onto one backing disk, so
    // checksum sidecars are off: this bench measures the paper's logged
    // paths, not catalog maintenance.
    let tuning = Tuning {
        segment_checksums: false,
        ..tuning
    };
    Rvm::initialize(
        Options::new(log)
            .resolver(resolver)
            .tuning(tuning)
            .create_if_empty(),
    )
    .expect("initialize")
}

fn truncation_ablation() {
    println!("== Ablation 1: epoch vs incremental truncation ==");
    println!("Workload: 6000 flush commits of 512 B over a 4 MiB hot set,");
    println!("8 MiB log, truncation threshold 30%. Virtual 1990s disks.");
    println!();
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>14} {:>16}",
        "mode", "txn/s", "truncations", "pages", "io ms/txn", "max pause ms"
    );
    const THRESHOLD: f64 = 0.30;
    for epochs in [true, false] {
        let clock = Clock::new();
        let tuning = Tuning {
            // The epoch row turns the trigger's steps off and truncates
            // from the commit loop instead.
            truncation_threshold: if epochs { 1.0 } else { THRESHOLD },
            incremental_reclaim_bytes: 1 << 20,
            ..Tuning::default()
        };
        let rvm = rvm_over_simdisk(&clock, tuning);
        let region = rvm
            .map(&RegionDescriptor::new("seg", 0, 1024 * PAGE_SIZE))
            .unwrap();
        let txns = 6000u64;
        let before = clock.snapshot();
        // Burstiness: the longest single commit (epoch truncation runs
        // inline and stalls the committing transaction, the "bursty
        // system performance" of Section 5.1.2).
        let mut max_pause_ms = 0.0f64;
        for i in 0..txns {
            let t0 = clock.now();
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            let off = (i % 8192) * 512;
            region.write(&mut txn, off, &[i as u8; 512]).unwrap();
            txn.commit(CommitMode::Flush).unwrap();
            if epochs && rvm.query().log.utilization > THRESHOLD {
                rvm.truncate().unwrap();
            }
            max_pause_ms = max_pause_ms.max((clock.now() - t0).as_millis_f64());
        }
        let delta = clock.snapshot() - before;
        let stats = rvm.stats();
        let label = if epochs { "epoch" } else { "incremental" };
        println!(
            "{:<14} {:>10.1} {:>12} {:>12} {:>14.2} {:>16.1}",
            label,
            txns as f64 / delta.total.as_secs_f64(),
            stats.epoch_truncations,
            stats.pages_written_incremental,
            delta.io.as_millis_f64() / txns as f64,
            max_pause_ms,
        );
    }
    println!();
}

fn optimization_ablation() {
    println!("== Ablation 2: intra/inter optimization on/off (Coda client) ==");
    println!("Workload: the 'mozart' Table 2 client profile, 2000 transactions.");
    println!();
    println!(
        "{:<18} {:>14} {:>10} {:>10}",
        "configuration", "bytes logged", "intra%", "inter%"
    );
    let base = coda_wl::profiles()
        .into_iter()
        .find(|p| p.name == "mozart")
        .map(|mut p| {
            p.txns = 2000;
            p
        })
        .unwrap();
    for (label, intra, inter) in [
        ("both on", true, true),
        ("intra only", true, false),
        ("inter only", false, true),
        ("both off", false, false),
    ] {
        let row = run_coda_with(&base, intra, inter);
        println!(
            "{:<18} {:>14} {:>9.1}% {:>9.1}%",
            label, row.0, row.1, row.2
        );
    }
    println!();
}

/// Runs a Coda profile with chosen optimization switches; returns
/// (bytes_logged, intra%, inter%).
fn run_coda_with(profile: &coda_wl::MachineProfile, intra: bool, inter: bool) -> (u64, f64, f64) {
    // Rebuild the coda run with custom tuning by temporarily patching via
    // a local RVM: reuse coda_wl::run_machine semantics through a fresh
    // run with tuning switches applied globally. The coda crate runs its
    // own RVM with defaults, so replicate its loop here with switches.
    use rand::{RngExt, SeedableRng};
    let log = Arc::new(MemDevice::with_len(256 << 20));
    let tuning = Tuning {
        intra_optimization: intra,
        inter_optimization: inter,
        ..Tuning::default()
    };
    let rvm = Rvm::initialize(
        Options::new(log)
            .resolver(MemResolver::new().into_resolver())
            .tuning(tuning)
            .create_if_empty(),
    )
    .unwrap();
    let region_len = (512 * profile.obj_size * 2).div_ceil(PAGE_SIZE) * PAGE_SIZE + PAGE_SIZE;
    let region = rvm
        .map(&RegionDescriptor::new("coda", 0, region_len))
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut burst_left = 0u64;
    let mut burst_obj = 0u64;
    let mut burst_step = 0u64;
    for committed in 0..profile.txns {
        let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
        if burst_left == 0 {
            burst_obj = rng.random_range(0..512);
            burst_step = 0;
            let p = 1.0 / profile.burst_mean.max(1.0);
            burst_left = 1;
            while burst_left < 64 && rng.random_range(0.0..1.0) > p {
                burst_left += 1;
            }
        }
        burst_left -= 1;
        burst_step += 1;
        let write_len = (profile.obj_size + burst_step * 8).min(profile.obj_size * 2);
        let base = burst_obj * profile.obj_size * 2;
        let payload = vec![(committed & 0xFF) as u8; write_len as usize];
        region.write(&mut txn, base, &payload).unwrap();
        let mut extra = (profile.obj_size as f64 * profile.dup_intensity) as u64;
        while extra > 0 {
            let len = extra.min(profile.obj_size / 2).max(16).min(write_len);
            let start = base + rng.random_range(0..=(write_len - len));
            txn.set_range(&region, start, len).unwrap();
            extra = extra.saturating_sub(len);
        }
        txn.commit(CommitMode::NoFlush).unwrap();
        if committed % 64 == 63 {
            rvm.flush().unwrap();
        }
    }
    rvm.flush().unwrap();
    let s = rvm.stats();
    (
        s.bytes_logged,
        s.intra_savings_fraction() * 100.0,
        s.inter_savings_fraction() * 100.0,
    )
}

fn mode_ablation() {
    println!("== Ablation 3: transaction modes (commit latency / set-range cost) ==");
    println!("512 B transactions on the simulated 1990s log disk.");
    println!();
    let clock = Clock::new();
    let rvm = rvm_over_simdisk(&clock, Tuning::default());
    let region = rvm
        .map(&RegionDescriptor::new("seg", 0, 64 * PAGE_SIZE))
        .unwrap();

    // Flush vs no-flush commit latency.
    for (label, mode) in [
        ("flush", CommitMode::Flush),
        ("no-flush", CommitMode::NoFlush),
    ] {
        let before = clock.snapshot();
        let n = 200u64;
        for i in 0..n {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region.write(&mut txn, (i % 64) * 512, &[1; 512]).unwrap();
            txn.commit(mode).unwrap();
        }
        let delta = clock.snapshot() - before;
        println!(
            "commit latency, {label:<9}: {:>8.3} ms/txn (I/O)",
            delta.io.as_millis_f64() / n as f64
        );
    }
    rvm.flush().unwrap();
    println!();
    println!("A no-flush commit spools in memory; its cost is deferred to the");
    println!("next flush, giving bounded persistence (Section 4.2).");
}

fn map_latency_ablation() {
    println!("== Ablation 4: map-time loading — eager vs on-demand ==");
    println!("The paper's RVM copied regions in en masse at map time, making");
    println!("startup slow (Section 3.2) and planning 'an optional external");
    println!("pager to copy data on demand'. This library implements both.");
    println!();
    println!(
        "{:<12} {:>16} {:>22}",
        "policy", "map latency", "first 100 txns (ms/txn)"
    );
    for policy in [rvm::LoadPolicy::Eager, rvm::LoadPolicy::OnDemand] {
        let clock = Clock::new();
        let rvm = rvm_over_simdisk(&clock, Tuning::default());
        let before = clock.snapshot();
        // A 12 MiB region on the 1990s data disk.
        let region = rvm
            .map_with(&RegionDescriptor::new("seg", 0, 3072 * PAGE_SIZE), policy)
            .unwrap();
        let map_latency = (clock.snapshot() - before).total;
        let before = clock.snapshot();
        for i in 0..100u64 {
            let mut txn = rvm.begin_transaction(TxnMode::Restore).unwrap();
            region
                .write(&mut txn, (i * 37 % 3072) * PAGE_SIZE, &[1; 128])
                .unwrap();
            txn.commit(CommitMode::Flush).unwrap();
        }
        let per_txn = (clock.snapshot() - before).total.as_millis_f64() / 100.0;
        let label = match policy {
            rvm::LoadPolicy::Eager => "eager",
            rvm::LoadPolicy::OnDemand => "on-demand",
        };
        println!(
            "{:<12} {:>13.1} ms {:>22.2}",
            label,
            map_latency.as_millis_f64(),
            per_txn
        );
    }
    println!();
    println!("On-demand mapping removes the multi-second startup read at the");
    println!("price of a first-touch fetch per page during early operation.");
    println!();
}

fn main() {
    truncation_ablation();
    optimization_ablation();
    map_latency_ablation();
    mode_ablation();
}
