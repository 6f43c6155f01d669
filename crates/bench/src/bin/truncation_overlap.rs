//! Commit throughput *during* truncation: does the apply hold the core
//! lock?
//!
//! A truncation that held the core lock for its whole apply — the epoch
//! before it became concurrent, the incremental step before it did —
//! drops commit throughput to zero for the duration: on the paper's
//! hardware, hundreds of milliseconds of dead air every time the log
//! crossed the threshold. The in-flight protocol releases the lock while
//! the segments are written, so commits keep flowing and only the log
//! force bounds their latency.
//!
//! This bench makes the apply phase expensive on purpose (every segment
//! write sleeps) and measures commit throughput inside truncation windows
//! versus steady state, plus commit latency split the same way, for the
//! mechanism `--mode` names: epochs, which an application thread starts
//! with `truncate()` whenever the log is above the threshold, or the
//! threshold trigger's incremental steps, inline on the committing
//! threads.
//!
//! Usage: `truncation_overlap [--mode epoch|incremental] [--quick]
//! [--check] [--txns N]`
//!
//! Writes `BENCH_truncation_overlap.json` (repo root; the last mode run,
//! named in it) and `results/truncation_overlap.txt` or
//! `results/truncation_overlap_incremental.txt`.
//! `--check` exits non-zero unless at least one truncation of the named
//! mode overlapped the run (it was seen in flight, and commits returned
//! while it was) — the CI perf-smoke gate. The during/steady ratio is
//! reported, not gated: on two cores it tripped at parent and change
//! alike (ROADMAP item 2).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rvm::{CommitMode, Options, Rvm, Tuning, TxnMode, PAGE_SIZE};
use rvm_storage::{Device, MemDevice};

/// The truncation mechanism under test.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Epochs from an application thread that calls `truncate()`.
    Epoch,
    /// The threshold trigger's steps, on the committing threads.
    Incremental,
}

/// Log utilization above which either mechanism truncates.
const THRESHOLD: f64 = 0.1;

/// A segment device that makes every write and sync cost real wall time,
/// standing in for a positioning-bound data disk.
struct SlowDevice {
    inner: Arc<MemDevice>,
    write_delay: Duration,
}

impl Device for SlowDevice {
    fn len(&self) -> rvm_storage::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> rvm_storage::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> rvm_storage::Result<()> {
        std::thread::sleep(self.write_delay);
        self.inner.write_at(offset, data)
    }
    fn sync(&self) -> rvm_storage::Result<()> {
        std::thread::sleep(self.write_delay);
        self.inner.sync()
    }
    fn set_len(&self, len: u64) -> rvm_storage::Result<()> {
        self.inner.set_len(len)
    }
}

const COMMITTERS: u64 = 2;
/// Distinct pages the workload dirties: one slow segment write each per
/// apply, so an apply costs ~PAGES * write_delay of wall time.
const PAGES: u64 = 32;

struct Measured {
    txns: u64,
    wall_s: f64,
    in_flight_s: f64,
    /// Completed truncations of the mode under test: epochs, or steps.
    truncations: u64,
    commits_during: u64,
    rate_during: f64,
    rate_steady: f64,
    ratio: f64,
    p99_during_us: f64,
    p99_steady_us: f64,
    stall_ms: f64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1000.0
}

fn run(mode: Mode, total: u64) -> Measured {
    let log = Arc::new(MemDevice::with_len(16 << 20));
    let seg: Arc<dyn Device> = Arc::new(SlowDevice {
        inner: Arc::new(MemDevice::with_len(PAGES * PAGE_SIZE)),
        write_delay: Duration::from_millis(1),
    });
    let resolver = rvm_bench::one_disk_resolver(seg.clone());
    let rvm = Arc::new(
        Rvm::initialize(
            Options::new(log)
                .resolver(resolver)
                .tuning(Tuning {
                    // Epochs are the application's: the trigger is off.
                    truncation_threshold: match mode {
                        Mode::Epoch => 1.0,
                        Mode::Incremental => THRESHOLD,
                    },
                    // One shared segment device behind every name, so
                    // checksum sidecars are off.
                    segment_checksums: false,
                    ..Tuning::default()
                })
                .create_if_empty(),
        )
        .expect("initialize"),
    );
    let region = rvm
        .map(&rvm::RegionDescriptor::new("bench", 0, PAGES * PAGE_SIZE))
        .expect("map");

    let stop = Arc::new(AtomicBool::new(false));
    let in_flight_now = Arc::new(AtomicBool::new(false));

    // Monitor: tracks when a truncation is in flight and accumulates the
    // total in-flight wall time.
    let monitor = {
        let rvm = Arc::clone(&rvm);
        let stop = Arc::clone(&stop);
        let flag = Arc::clone(&in_flight_now);
        std::thread::spawn(move || {
            let mut in_flight = Duration::ZERO;
            let mut last = Instant::now();
            while !stop.load(Ordering::Acquire) {
                let now = Instant::now();
                if flag.load(Ordering::Acquire) {
                    in_flight += now - last;
                }
                last = now;
                flag.store(rvm.query().truncation_in_flight, Ordering::Release);
                std::thread::sleep(Duration::from_micros(200));
            }
            in_flight
        })
    };

    // The application's truncating thread, polling as the monitor does.
    let truncator = (mode == Mode::Epoch).then(|| {
        let rvm = Arc::clone(&rvm);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if rvm.query().log.utilization > THRESHOLD {
                    rvm.truncate().expect("truncate");
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        })
    });

    let before = rvm.stats();
    let barrier = Arc::new(Barrier::new(COMMITTERS as usize));
    let started = Instant::now();
    let workers: Vec<_> = (0..COMMITTERS)
        .map(|t| {
            let rvm = Arc::clone(&rvm);
            let region = region.clone();
            let barrier = Arc::clone(&barrier);
            let flag = Arc::clone(&in_flight_now);
            let per_thread = total / COMMITTERS;
            std::thread::spawn(move || {
                barrier.wait();
                let mut lat_during: Vec<u64> = Vec::new();
                let mut lat_steady: Vec<u64> = Vec::new();
                let mut payload = [0u8; 64];
                for i in 0..per_thread {
                    payload[..8].copy_from_slice(&(t * per_thread + i).to_le_bytes());
                    let page = (t * per_thread + i) % PAGES;
                    let t0 = Instant::now();
                    let mut txn = rvm.begin_transaction(TxnMode::Restore).expect("begin");
                    region
                        .write(&mut txn, page * PAGE_SIZE, &payload)
                        .expect("write");
                    txn.commit(CommitMode::Flush).expect("commit");
                    let ns = t0.elapsed().as_nanos() as u64;
                    if flag.load(Ordering::Acquire) {
                        lat_during.push(ns);
                    } else {
                        lat_steady.push(ns);
                    }
                }
                (lat_during, lat_steady)
            })
        })
        .collect();
    let mut lat_during: Vec<u64> = Vec::new();
    let mut lat_steady: Vec<u64> = Vec::new();
    for w in workers {
        let (d, s) = w.join().expect("committer");
        lat_during.extend(d);
        lat_steady.extend(s);
    }
    let wall = started.elapsed();
    stop.store(true, Ordering::Release);
    let in_flight = monitor.join().expect("monitor");
    // An epoch still applying completes before the join returns, so it
    // shows up in the stats; rates below use only the committer window.
    if let Some(truncator) = truncator {
        truncator.join().expect("truncator");
    }

    let stats = rvm.stats().delta_since(&before);
    let txns = (total / COMMITTERS) * COMMITTERS;
    let wall_s = wall.as_secs_f64();
    let in_flight_s = in_flight.as_secs_f64().min(wall_s);
    let steady_s = (wall_s - in_flight_s).max(f64::EPSILON);
    let commits_during = stats.commits_during_truncation;
    let rate_during = if in_flight_s > 0.0 {
        commits_during as f64 / in_flight_s
    } else {
        0.0
    };
    let rate_steady = (txns - commits_during) as f64 / steady_s;
    lat_during.sort_unstable();
    lat_steady.sort_unstable();
    Measured {
        txns,
        wall_s,
        in_flight_s,
        truncations: match mode {
            Mode::Epoch => stats.epoch_truncations,
            Mode::Incremental => stats.incremental_steps,
        },
        commits_during,
        rate_during,
        rate_steady,
        ratio: if rate_steady > 0.0 {
            rate_during / rate_steady
        } else {
            0.0
        },
        p99_during_us: percentile(&lat_during, 0.99),
        p99_steady_us: percentile(&lat_steady, 0.99),
        stall_ms: stats.truncation_stall_ns as f64 / 1e6,
    }
}

fn main() {
    let mut total: u64 = 120_000;
    let mut check = false;
    let mut mode = Mode::Epoch;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => total = 40_000,
            "--check" => check = true,
            "--txns" => {
                i += 1;
                total = args[i].parse().expect("--txns N");
            }
            "--mode" => {
                i += 1;
                mode = match args.get(i).map(String::as_str) {
                    Some("epoch") => Mode::Epoch,
                    Some("incremental") => Mode::Incremental,
                    other => {
                        eprintln!("--mode epoch|incremental, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (label, unit) = match mode {
        Mode::Epoch => ("epoch", "epochs truncated"),
        Mode::Incremental => ("incremental", "steps completed"),
    };
    let m = run(mode, total);
    let mut table = String::new();
    table.push_str(&format!(
        "commit throughput during concurrent {label} truncation, {} commits, \
         {COMMITTERS} committers, 1 ms/segment-write apply\n\n",
        m.txns
    ));
    table.push_str(&format!("{:<26} {:>12}\n", unit, m.truncations));
    table.push_str(&format!("{:<26} {:>12.3}\n", "wall time (s)", m.wall_s));
    table.push_str(&format!(
        "{:<26} {:>12.3}\n",
        "truncation in flight (s)", m.in_flight_s
    ));
    table.push_str(&format!(
        "{:<26} {:>12}\n",
        "commits during truncation", m.commits_during
    ));
    table.push_str(&format!(
        "{:<26} {:>12.0}\n",
        "rate during (txn/s)", m.rate_during
    ));
    table.push_str(&format!(
        "{:<26} {:>12.0}\n",
        "rate steady (txn/s)", m.rate_steady
    ));
    table.push_str(&format!(
        "{:<26} {:>12.2}\n",
        "during/steady ratio", m.ratio
    ));
    table.push_str(&format!(
        "{:<26} {:>12.1}\n",
        "p99 latency during (us)", m.p99_during_us
    ));
    table.push_str(&format!(
        "{:<26} {:>12.1}\n",
        "p99 latency steady (us)", m.p99_steady_us
    ));
    table.push_str(&format!(
        "{:<26} {:>12.1}\n",
        "committer stall (ms)", m.stall_ms
    ));
    print!("{table}");

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"truncation_overlap\",\n  \"mode\": \"{}\",\n",
            "  \"txns\": {},\n  \"committers\": {},\n",
            "  \"truncations\": {},\n  \"wall_s\": {:.4},\n",
            "  \"in_flight_s\": {:.4},\n  \"commits_during_truncation\": {},\n",
            "  \"rate_during_txn_s\": {:.1},\n  \"rate_steady_txn_s\": {:.1},\n",
            "  \"during_over_steady\": {:.4},\n",
            "  \"p99_during_us\": {:.1},\n  \"p99_steady_us\": {:.1},\n",
            "  \"stall_ms\": {:.2}\n}}\n"
        ),
        label,
        m.txns,
        COMMITTERS,
        m.truncations,
        m.wall_s,
        m.in_flight_s,
        m.commits_during,
        m.rate_during,
        m.rate_steady,
        m.ratio,
        m.p99_during_us,
        m.p99_steady_us,
        m.stall_ms,
    );
    std::fs::write("BENCH_truncation_overlap.json", &json).expect("write JSON");
    std::fs::create_dir_all("results").expect("mkdir results");
    let path = match mode {
        Mode::Epoch => "results/truncation_overlap.txt",
        Mode::Incremental => "results/truncation_overlap_incremental.txt",
    };
    std::fs::write(path, &table).expect("write table");

    if check && (m.truncations == 0 || m.in_flight_s <= 0.0 || m.commits_during == 0) {
        eprintln!("FAIL: no {label} truncation overlapped the run");
        std::process::exit(1);
    }
}
