//! The five workloads and the life cycle each one runs.
//!
//! Every run is one installation's life: set-up (devices, `initialize`,
//! `map`), a commit phase, a crash (the devices' bytes as they are, with
//! nothing shut down cleanly), restarts that recover what the crash left,
//! and a check that what came back is what the generator sent. A run is
//! several such lives. The workloads differ in which phase `--seconds`
//! bounds and in the devices underneath; every one reports every
//! end-to-end metric.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rvm::log::record::{encode_txn, parse_record, RecordRange};
use rvm::log::status::read_status;
use rvm::log::wal::scan_forward;
use rvm::ranges::{ByteRange, RangeSet};
use rvm::segment::SegmentId;
use rvm::{
    CommitMode, RecoveryReport, Region, RegionDescriptor, Rvm, StatsSnapshot, TxnMode, PAGE_SIZE,
};
use rvm_storage::{CrashPlan, FaultDevice, MemDevice};

use crate::devices::{Backend, SpanDevice, Store, Wrap};
use crate::gen::{verify_prefix, SplitMix64, Stream, StreamKind, MAX_WRITE};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles, ratio, top_k_median, Json};
use crate::trace::{self, Gathered, Kind, ROLES};

/// What `--seconds` bounds, and therefore what a workload is about.
///
/// A TPC-A record takes 1024 bytes of log (608 rounded up to 512-byte
/// blocks), so the fixed counts in [`WORKLOADS`] stay under the half-full
/// threshold at which an epoch truncation would empty the log: every
/// record is live when the crash comes. Coda's tail is longer because
/// subsumption leaves about one record per burst, and how many bursts a
/// tail holds depends on the seed — more of them vary less.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timed {
    /// The commit loop; restarts recover a fixed tail of `restart_ops`
    /// transactions committed after an explicit `truncate()`.
    Commits { restart_ops: u64 },
    /// The restarts; each set-up commits a fixed load of `load_ops`
    /// transactions, and those are the commit phase.
    Recoveries { load_ops: u64 },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// What backs the log and the segments (`--file-dir` fills in where
    /// files go).
    devices: Backend,
    log_len: u64,
    stream: StreamKind,
    mode: CommitMode,
    /// `Rvm::flush()` after every this many commits of a client (0: never).
    flush_every: u64,
    /// `clamp(nproc, 2, 4)` closed-loop clients instead of one.
    concurrent: bool,
    timed: Timed,
}

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tpca_flush",
        why: "Paper's TPC-A variant, flush commits on memory devices: the CPU-only floor where the commit path, truncation and scrub do all the work and storage is a memcpy.",
        devices: Backend::Mem,
        log_len: 16 << 20,
        stream: StreamKind::Tpca,
        mode: CommitMode::Flush,
        flush_every: 0,
        concurrent: false,
        timed: Timed::Commits { restart_ops: 4096 },
    },
    Workload {
        name: "tpca_file",
        why: "The identical transaction stream over FileDevices on memory files: only storage does extra work (real pwrite/fstat/fdatasync), so tpca_file minus tpca_flush prices FileDevice.",
        devices: Backend::File(None),
        log_len: 16 << 20,
        stream: StreamKind::Tpca,
        mode: CommitMode::Flush,
        flush_every: 0,
        concurrent: false,
        timed: Timed::Commits { restart_ops: 4096 },
    },
    Workload {
        name: "tpca_group",
        why: "clamp(nproc,2,4) clients over a log whose force sleeps 200 us: the only workload where a force costs wall time but no CPU, so only group commit and overlap move it.",
        devices: Backend::ForceDelay(Duration::from_micros(200)),
        log_len: 16 << 20,
        stream: StreamKind::Tpca,
        mode: CommitMode::Flush,
        flush_every: 0,
        concurrent: true,
        timed: Timed::Commits { restart_ops: 1024 },
    },
    Workload {
        name: "coda_lazy",
        why: "Coda-client pattern, no-flush commits with flush() every 1024: whole 2 KiB objects re-declared in bursts, the only workload where intra- and inter-transaction log optimizations fire.",
        devices: Backend::Mem,
        log_len: 16 << 20,
        stream: StreamKind::Coda,
        mode: CommitMode::NoFlush,
        flush_every: 1024,
        concurrent: false,
        timed: Timed::Commits { restart_ops: 12_288 },
    },
    Workload {
        name: "recover_log",
        why: "Restart latency: recovery of a 64 MiB log holding 30000 live TPC-A records, repeated. The commit path does no work in the timed phase, so commit-path changes predict no change.",
        devices: Backend::Mem,
        log_len: 64 << 20,
        stream: StreamKind::Tpca,
        mode: CommitMode::Flush,
        flush_every: 0,
        concurrent: false,
        timed: Timed::Recoveries { load_ops: 30_000 },
    },
];

/// How long a phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    For(Duration),
    /// A fixed number of operations, so that with one client every count
    /// (forces, epochs, bytes logged) repeats exactly.
    Ops(u64),
}

pub struct Config {
    pub seed: u64,
    pub bound: Bound,
    pub traced: bool,
    /// Real files here instead of memory files, for `tpca_file`.
    pub file_dir: Option<PathBuf>,
    /// Test-only: the crash check claims one commit more than was made,
    /// which recovery cannot find; the run must then fail.
    pub lost_ack_stub: bool,
}

/// What one run of one workload found.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Reported, never gated.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// The recorded spans of a traced run.
    pub spans: Option<Json>,
}

/// Life cycles per run, each on fresh devices; the timed phase is shared
/// out among them. The sandbox's speed shifts by tens of percent for
/// seconds at a time, so every metric is sampled at this many points of
/// the run instead of in one stretch of it.
const CYCLES: u64 = 8;
/// Restarts timed after each crash of a commit workload.
const RECOVERIES: u64 = 5;
const SEGMENT: &str = "bench";

impl Workload {
    pub fn clients(&self) -> usize {
        if self.concurrent {
            std::thread::available_parallelism()
                .map_or(2, usize::from)
                .clamp(2, 4)
        } else {
            1
        }
    }

    fn backend(&self, cfg: &Config) -> Backend {
        match &self.devices {
            Backend::File(_) => Backend::File(cfg.file_dir.clone()),
            other => other.clone(),
        }
    }

    fn slice_len(&self) -> usize {
        self.stream.slice_len(self.clients() as u64) as usize
    }

    /// Every client's slice, rounded up to whole pages.
    fn region_len(&self) -> u64 {
        ((self.slice_len() * self.clients()) as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    fn streams(&self, seed: u64) -> Vec<Stream> {
        let clients = self.clients() as u64;
        (0..clients)
            .map(|c| self.stream.stream(seed, c, clients))
            .collect()
    }

    /// `initialize` + `map` over `store`.
    fn open<const T: bool>(
        &self,
        store: &Arc<Store>,
        wrap: Option<Wrap>,
    ) -> rvm::Result<(Rvm, Region)> {
        let rvm = span::<T, _>(Kind::Initialize, || Rvm::initialize(store.options(wrap)))?;
        let region = span::<T, _>(Kind::Map, || {
            rvm.map(&RegionDescriptor::new(SEGMENT, 0, self.region_len()))
        })?;
        Ok((rvm, region))
    }
}

#[inline(always)]
fn span<const T: bool, R>(kind: Kind, call: impl FnOnce() -> R) -> R {
    if T {
        trace::enter(kind);
        let result = call();
        trace::exit();
        result
    } else {
        call()
    }
}

fn span_wrap() -> Wrap {
    Arc::new(|role, dev| Arc::new(SpanDevice::new(dev, role)))
}

/// One client's part in a commit phase.
#[derive(Default)]
struct ClientRun {
    /// `begin_transaction` call to `commit` return, in ns; a periodic
    /// `flush()` is charged to the commit that issued it.
    latencies: Vec<u32>,
    user_bytes: u64,
    /// Stamp of the last transaction whose durability the library has
    /// acknowledged: its flush-mode commit, or a `flush()` after its
    /// no-flush commit, returned `Ok`.
    acked: u64,
    error: Option<String>,
    started: Option<Instant>,
    ended: Option<Instant>,
    /// Spooled transactions seen just before each `flush()` (traced).
    spool_len_sum: u64,
    flushes: u64,
}

fn client_loop<const T: bool>(
    w: &Workload,
    rvm: &Rvm,
    region: &Region,
    stream: &mut Stream,
    bound: Bound,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut payload = [0u8; MAX_WRITE];
    let started = Instant::now();
    run.started = Some(started);
    let (deadline, max_ops) = match bound {
        Bound::For(d) => (Some(started + d), u64::MAX),
        Bound::Ops(n) => (None, n),
    };
    if let Bound::Ops(n) = bound {
        run.latencies.reserve(n as usize);
    }
    let mut ended = started;
    while (run.latencies.len() as u64) < max_ops {
        let op = span::<T, _>(Kind::Gen, || {
            let op = stream.next_op();
            op.fill(&mut payload);
            op
        });
        if T {
            trace::set_txn(op.stamp);
        }
        let flush = w.flush_every > 0 && op.stamp % w.flush_every == 0;
        let begun = Instant::now();
        let result = (|| {
            let mut txn = span::<T, _>(Kind::Begin, || rvm.begin_transaction(TxnMode::Restore))?;
            for r in &op.ranges {
                span::<T, _>(Kind::Write, || {
                    if r.write {
                        region.write(&mut txn, r.offset, &payload[..r.len as usize])
                    } else {
                        txn.set_range(region, r.offset, u64::from(r.len))
                    }
                })?;
            }
            span::<T, _>(Kind::Commit, || txn.commit(w.mode))?;
            if flush {
                if T {
                    run.spool_len_sum += rvm.query().spooled_transactions as u64;
                    run.flushes += 1;
                }
                span::<T, _>(Kind::Flush, || rvm.flush())?;
            }
            rvm::Result::Ok(())
        })();
        ended = Instant::now();
        if let Err(e) = result {
            run.error = Some(format!("transaction {}: {e}", op.stamp));
            break;
        }
        let ns = (ended - begun).as_nanos();
        run.latencies.push(ns.min(u128::from(u32::MAX)) as u32);
        run.user_bytes += u64::from(op.user_bytes);
        if w.mode == CommitMode::Flush || flush {
            run.acked = op.stamp;
        }
        if deadline.is_some_and(|d| ended >= d) {
            break;
        }
    }
    run.ended = Some(ended);
    if T {
        trace::flush_thread();
    }
    run
}

/// Runs every client's loop on its own thread, released together.
fn run_clients<const T: bool>(
    w: &Workload,
    rvm: &Rvm,
    region: &Region,
    streams: &mut [Stream],
    bound: Bound,
) -> Vec<ClientRun> {
    let bound = match bound {
        Bound::Ops(n) => Bound::Ops(n / streams.len() as u64),
        timed => timed,
    };
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_loop::<T>(w, rvm, region, stream, bound)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The commit phase of a run: one loop, or the sum of several loads.
#[derive(Default)]
struct CommitPhase {
    latencies: Vec<u32>,
    commits: u64,
    user_bytes: u64,
    wall_ns: u64,
    errors: Vec<String>,
    stats: Vec<StatsSnapshot>,
    spool_len_sum: u64,
    flushes: u64,
}

impl CommitPhase {
    fn absorb(&mut self, runs: &mut [ClientRun], stats: StatsSnapshot) {
        let started = runs.iter().filter_map(|r| r.started).min();
        let ended = runs.iter().filter_map(|r| r.ended).max();
        if let (Some(s), Some(e)) = (started, ended) {
            self.wall_ns += (e - s).as_nanos() as u64;
        }
        for run in runs {
            self.commits += run.latencies.len() as u64;
            self.latencies.append(&mut run.latencies);
            self.user_bytes += run.user_bytes;
            self.errors.extend(run.error.clone());
            self.spool_len_sum += run.spool_len_sum;
            self.flushes += run.flushes;
        }
        self.stats.push(stats);
    }

    fn stat(&self, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.stats.iter().map(field).sum()
    }

    fn ns_per_txn(&self) -> f64 {
        ratio(self.wall_ns, self.commits)
    }
}

/// What the restarts after the crashes found.
#[derive(Default)]
struct RecoveryPhase {
    times_ms: Vec<f64>,
    /// Each restart's time over the records it replayed.
    us_per_record: Vec<f64>,
    /// The latest crash's report and log, for the per-layer metrics.
    report: RecoveryReport,
    log_image: Vec<u8>,
    failures: Vec<String>,
}

/// Crashes the instance and restarts over what it left. The crash is a
/// copy of every device's bytes taken before the instance learns of it,
/// so nothing is flushed, truncated or written on the way out; every
/// restart recovers that same copy, and `verify` checks the first one's
/// region.
fn crash_and_recover<const T: bool>(
    w: &Workload,
    store: &Arc<Store>,
    instance: (Rvm, Region),
    verify: impl FnOnce(&Region) -> Result<Vec<String>, String>,
    bound: Bound,
    wrap: &Option<Wrap>,
    phase: &mut RecoveryPhase,
) -> Result<(), String> {
    let images = store.snapshot().map_err(|e| e.to_string())?;
    // Whatever shutting down writes is overwritten by the first restore.
    drop(instance);
    let started = Instant::now();
    let mut restarts = 0;
    let mut verify = Some(verify);
    loop {
        store.restore(&images).map_err(|e| e.to_string())?;
        let begun = Instant::now();
        let rvm = span::<T, _>(Kind::Initialize, || {
            Rvm::initialize(store.options(wrap.clone()))
        })
        .map_err(|e| format!("recovery: {e}"))?;
        let ms = begun.elapsed().as_nanos() as f64 / 1e6;
        let records = rvm.recovery_report().records_replayed;
        phase.times_ms.push(ms);
        if records > 0 {
            phase.us_per_record.push(ms * 1e3 / records as f64);
        }
        restarts += 1;
        if let Some(verify) = verify.take() {
            phase.report = rvm.recovery_report().clone();
            let region = rvm
                .map(&RegionDescriptor::new(SEGMENT, 0, w.region_len()))
                .map_err(|e| format!("map after recovery: {e}"))?;
            phase.failures.extend(verify(&region)?);
        }
        drop(rvm);
        let done = match bound {
            Bound::For(d) => started.elapsed() >= d,
            Bound::Ops(n) => restarts >= n,
        };
        if done {
            break;
        }
    }
    phase.log_image = images.into_iter().next().expect("the log is device 0");
    Ok(())
}

/// Compares each client's slice of `region` with the replay of its
/// stream, of which at least `acked[client]` transactions and at most all
/// those issued must be there. Returns what did not match.
fn verify_clients(
    w: &Workload,
    region: &Region,
    streams: &[Stream],
    acked: &[u64],
) -> Result<Vec<String>, String> {
    let image = region
        .read_vec(0, region.len())
        .map_err(|e| format!("read recovered region: {e}"))?;
    let len = w.slice_len();
    Ok(streams
        .iter()
        .zip(acked)
        .enumerate()
        .filter_map(|(c, (stream, acked))| {
            let slice = &image[c * len..(c + 1) * len];
            verify_prefix(slice, stream.restarted(), *acked, stream.issued())
                .err()
                .map(|e| format!("client {c}: {e}"))
        })
        .collect())
}

fn acknowledged(runs: &[ClientRun]) -> Vec<u64> {
    runs.iter().map(|r| r.acked).collect()
}

/// Operations the crash check replays, and the log it replays them into:
/// small enough that they span several epoch truncations.
const CRASH_OPS: u64 = 5000;
const CRASH_LOG_LEN: u64 = 1 << 20;

/// The crash check: the workload's first operations over fault devices
/// that, at a byte count drawn from the seed, fail every later call and
/// discard the writes not yet synced — the test loses them itself, since
/// killing a process would leave them in the operating system's cache.
/// A fresh instance then recovers from the inner images and every client's
/// slice must be the replay of what it was acknowledged, give or take the
/// one commit in flight. Returns (operations attempted, failures).
fn crash_check(w: &Workload, cfg: &Config) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut pass = |budgets| match crash_pass(w, cfg, budgets) {
        Ok((ops, written, found)) => {
            attempted += ops;
            failures.extend(found);
            written
        }
        Err(e) => {
            failures.push(format!("crash check: {e}"));
            [0; 3]
        }
    };
    // No crash at first: learn how many bytes the log and the segment take.
    let written = pass([u64::MAX; 3]);
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC4A5);
    let mut budgets = [u64::MAX; 3];
    for (budget, total) in budgets.iter_mut().zip(written).take(2) {
        if total > 0 {
            *budget = 1 + rng.below(total);
        }
    }
    pass(budgets);
    (attempted, failures)
}

type PassOutcome = (u64, [u64; 3], Vec<String>);
/// The fault devices of one pass, with their roles.
type Faults = Mutex<Vec<(usize, Arc<FaultDevice>)>>;

fn crash_pass(w: &Workload, cfg: &Config, budgets: [u64; 3]) -> Result<PassOutcome, String> {
    let store = Store::new(w.backend(cfg), CRASH_LOG_LEN).map_err(|e| e.to_string())?;
    let faults: Arc<Faults> = Arc::default();
    let wrap: Wrap = {
        let faults = Arc::clone(&faults);
        Arc::new(move |role, dev| {
            let fault = Arc::new(FaultDevice::new(
                dev,
                CrashPlan::lose_unsynced_at(budgets[role]),
            ));
            faults
                .lock()
                .expect("fault list")
                .push((role, Arc::clone(&fault)));
            fault
        })
    };
    let mut streams = w.streams(cfg.seed);
    let crashing = budgets != [u64::MAX; 3];
    let runs = match w.open::<false>(&store, Some(wrap)) {
        Ok((rvm, region)) => {
            let runs = run_clients::<false>(w, &rvm, &region, &mut streams, Bound::Ops(CRASH_OPS));
            // After the crash the devices refuse whatever shutting down
            // would write.
            drop((region, rvm));
            runs
        }
        // The crash point fell inside set-up: nothing was acknowledged.
        Err(_) if crashing => streams.iter().map(|_| ClientRun::default()).collect(),
        Err(e) => return Err(format!("open: {e}")),
    };
    let mut written = [0u64; 3];
    for (role, fault) in faults.lock().expect("fault list").iter() {
        written[*role] += fault.bytes_written();
    }
    let mut failures: Vec<String> = Vec::new();
    if !crashing {
        failures.extend(runs.iter().filter_map(|r| r.error.clone()));
    }
    let mut acked = acknowledged(&runs);
    if cfg.lost_ack_stub {
        for (acked, stream) in acked.iter_mut().zip(&streams) {
            *acked = stream.issued() + 1;
        }
    }
    let (rvm, region) = w
        .open::<false>(&store, None)
        .map_err(|e| format!("recovery after the crash: {e}"))?;
    failures.extend(verify_clients(w, &region, &streams, &acked)?);
    drop((region, rvm));
    let ops = streams.iter().map(Stream::issued).sum();
    Ok((ops, written, failures))
}

/// Runs one workload once.
pub fn run(w: &'static Workload, cfg: &Config) -> Result<RunResult, String> {
    if cfg.traced {
        run_as::<true>(w, cfg)
    } else {
        run_as::<false>(w, cfg)
    }
}

fn run_as<const T: bool>(w: &'static Workload, cfg: &Config) -> Result<RunResult, String> {
    let wrap = T.then(span_wrap);
    let err = |e: rvm::RvmError| e.to_string();
    let new_store = || Store::new(w.backend(cfg), w.log_len).map_err(|e| e.to_string());
    let share = |bound: Bound| match bound {
        Bound::For(d) => Bound::For(d / CYCLES as u32),
        Bound::Ops(n) => Bound::Ops((n / CYCLES).max(1)),
    };

    let mut setup_s = Vec::new();
    let mut commit = CommitPhase::default();
    let mut recovery = RecoveryPhase::default();
    let (mut commit_trace, mut recovery_trace) = (Gathered::default(), Gathered::default());
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut untraced = CommitPhase::default();
    for cycle in 0..CYCLES {
        let seed = cfg.seed.wrapping_add(cycle);
        if T {
            // What tracing costs: the same commit loop untraced, next to
            // each traced one so that both see the machine at one speed.
            let (rvm, region) = w.open::<false>(&new_store()?, None).map_err(err)?;
            let bound = match (w.timed, share(cfg.bound)) {
                (Timed::Recoveries { load_ops }, _) => Bound::Ops(load_ops),
                (_, Bound::For(d)) => Bound::For(d / 4),
                (_, Bound::Ops(n)) => Bound::Ops((n / 4).max(1)),
            };
            let mut runs = run_clients::<false>(w, &rvm, &region, &mut w.streams(seed), bound);
            untraced.absorb(&mut runs, rvm.stats());
        }
        let begun = Instant::now();
        let store = new_store()?;
        let (rvm, region) = w.open::<T>(&store, wrap.clone()).map_err(err)?;
        setup_s.push(begun.elapsed().as_secs_f64());
        // Set-up is timed as a whole; its spans are not the commit phase's.
        trace::take();

        let (commit_bound, recover_bound) = match w.timed {
            Timed::Commits { .. } => (share(cfg.bound), Bound::Ops(RECOVERIES)),
            Timed::Recoveries { load_ops } => (Bound::Ops(load_ops), share(cfg.bound)),
        };
        let mut streams = w.streams(seed);
        let mut runs = run_clients::<T>(w, &rvm, &region, &mut streams, commit_bound);
        commit.absorb(&mut runs, rvm.stats());
        commit_trace.merge(trace::take());

        if let Timed::Commits { restart_ops } = w.timed {
            // A fixed tail for the restarts to recover: the same number
            // of transactions whatever the timed loop reached.
            rvm.truncate().map_err(err)?;
            runs = run_clients::<T>(w, &rvm, &region, &mut streams, Bound::Ops(restart_ops));
            failures.extend(runs.iter().filter_map(|r| r.error.clone()));
        }
        if w.mode == CommitMode::NoFlush {
            rvm.flush().map_err(err)?;
            for (run, stream) in runs.iter_mut().zip(&streams) {
                run.acked = stream.issued();
            }
        }
        trace::take();
        let before = recovery.times_ms.len();
        crash_and_recover::<T>(
            w,
            &store,
            (rvm, region),
            |recovered| verify_clients(w, recovered, &streams, &acknowledged(&runs)),
            recover_bound,
            &wrap,
            &mut recovery,
        )?;
        recovery_trace.merge(trace::take());
        attempted += streams.iter().map(Stream::issued).sum::<u64>()
            + (recovery.times_ms.len() - before) as u64;
    }
    failures.append(&mut commit.errors);
    failures.append(&mut recovery.failures);

    let (crash_ops, mut crash_failures) = crash_check(w, cfg);
    attempted += crash_ops;
    failures.append(&mut crash_failures);

    let recovery_ms = median(&recovery.times_ms);
    let records = recovery.report.records_replayed as u64;
    let mut sorted = std::mem::take(&mut commit.latencies);
    sorted.sort_unstable();
    let pct_us = |p: f64| percentile_us(&sorted, p);
    let epochs = commit.stat(|s| s.epoch_truncations);
    let setup = median(&setup_s);

    let mut result = RunResult {
        workload: w.name,
        traced: T,
        clients: w.clients(),
        attempted,
        failed: failures.len() as u64,
        failures,
        metrics: Vec::new(),
        diagnostics: Vec::new(),
        spans: None,
    };
    if T {
        let ctx = Layers {
            w,
            seed: cfg.seed,
            commit: &commit,
            trace: &commit_trace,
            recovery: &recovery,
            recovery_trace: &recovery_trace,
            untraced_ns_per_txn: untraced.ns_per_txn(),
            sorted: &sorted,
        };
        let values = ctx.values();
        assert_eq!(values.len(), PER_LAYER.len());
        for (m, (name, value)) in PER_LAYER.iter().zip(values) {
            assert_eq!(m.name, name, "per-layer metrics out of table order");
            result.metrics.push((m, value));
        }
        result.diagnostics = vec![
            ("commits", commit.commits as f64),
            ("traced_ns_per_txn", commit.ns_per_txn()),
            ("untraced_ns_per_txn", untraced.ns_per_txn()),
            // Everything the devices cost, summed over roles and calls.
            (
                "storage_ns_per_txn",
                ratio(
                    (0..ROLES.len()).map(|r| commit_trace.role_ns(r)).sum(),
                    commit.commits,
                ),
            ),
        ];
        commit_trace.merge(recovery_trace);
        result.spans = Some(commit_trace.spans_json());
    } else {
        let values = [
            setup,
            ratio(commit.commits * 1_000_000_000, commit.wall_ns),
            pct_us(50.0),
            ratio(commit.stat(|s| s.bytes_logged), commit.user_bytes),
            ratio(commit.stat(|s| s.log_forces), commit.commits),
            recovery_ms,
            median(&recovery.us_per_record),
        ];
        for (m, value) in END_TO_END.iter().zip(values) {
            result.metrics.push((m, value));
        }
        let (q1, q3) = if recovery.times_ms.len() >= 2 {
            quartiles(&recovery.times_ms)
        } else {
            (recovery_ms, recovery_ms)
        };
        let pause = top_k_median(&sorted, epochs as usize)
            .filter(|_| epochs >= 10)
            .map_or(0.0, |ns| f64::from(ns) / 1e6);
        result.diagnostics = vec![
            ("commits", commit.commits as f64),
            ("commit_p99_us", pct_us(99.0)),
            ("commit_p999_us", pct_us(99.9)),
            ("commit_max_ms", pct_us(100.0) / 1e3),
            ("epoch_truncations", epochs as f64),
            // Median of the K largest commit latencies, K the number of
            // epoch truncations; 0 where K < 10.
            ("trunc_pause_ms", pause),
            ("recoveries", recovery.times_ms.len() as f64),
            ("recovery_q1_ms", q1),
            ("recovery_q3_ms", q3),
            ("recovery_records", records as f64),
            ("failed_ratio", ratio(result.failed, result.attempted)),
        ];
    }
    Ok(result)
}

/// A percentile of ascending latencies in ns, as µs; 0 with no samples.
fn percentile_us(sorted: &[u32], p: f64) -> f64 {
    percentile(sorted, p).map_or(0.0, |ns| f64::from(ns) / 1e3)
}

/// Everything the per-layer metrics are computed from.
struct Layers<'a> {
    w: &'a Workload,
    seed: u64,
    commit: &'a CommitPhase,
    trace: &'a Gathered,
    recovery: &'a RecoveryPhase,
    recovery_trace: &'a Gathered,
    untraced_ns_per_txn: f64,
    sorted: &'a [u32],
}

impl Layers<'_> {
    fn values(&self) -> Vec<(&'static str, f64)> {
        let (c, t) = (self.commit, self.trace);
        let commits = c.commits;
        let stat = |f: fn(&StatsSnapshot) -> u64| c.stat(f);
        let pct_us = |p: f64| percentile_us(self.sorted, p);
        let per_txn = |n: u64| ratio(n, commits);
        let epochs = stat(|s| s.epoch_truncations);
        let per_epoch = |n: u64| ratio(n, epochs);
        let logged = stat(|s| s.bytes_logged);
        let before_savings = logged + stat(|s| s.bytes_saved_intra) + stat(|s| s.bytes_saved_inter);
        let pauses: Vec<f64> = t.pauses_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
        let replay = self.replay();
        let lazy = self.w.mode == CommitMode::NoFlush;
        let recoveries = self.recovery_trace.total(Kind::Initialize).calls;
        let per_recovery_ms = |ns: u64| ratio(ns, recoveries) / 1e6;

        let mut v = vec![
            ("client.commit_p99_us", pct_us(99.0)),
            ("client.commit_p999_us", pct_us(99.9)),
            ("client.commit_max_ms", pct_us(100.0) / 1e3),
            ("client.gen_ns", t.total(Kind::Gen).mean_ns()),
            ("txn.begin_ns", t.total(Kind::Begin).mean_ns()),
            (
                "txn.commit_self_ns",
                ratio(t.total(Kind::Commit).self_ns, t.total(Kind::Commit).calls),
            ),
            ("region.write_ns", t.total(Kind::Write).mean_ns()),
            (
                "region.set_range_calls_per_txn",
                per_txn(stat(|s| s.set_range_calls)),
            ),
            ("ranges.insert_ns", replay.insert_ns),
            (
                "ranges.intra_saved_ratio",
                ratio(stat(|s| s.bytes_saved_intra), before_savings),
            ),
            ("record.encode_ns", replay.encode_ns),
            ("record.parse_ns", replay.parse_ns),
            ("crc.ns_per_kib", replay.crc_ns_per_kib),
            ("wal.bytes_per_txn", per_txn(logged)),
            ("wal.forces", stat(|s| s.log_forces) as f64),
            ("wal.scan_ms", replay.scan_ms),
            (
                "group.batch_mean",
                ratio(
                    stat(|s| s.group_commit_txns),
                    stat(|s| s.group_commit_batches),
                ),
            ),
            (
                "group.forces_per_commit",
                ratio(stat(|s| s.log_forces), stat(|s| s.flush_commits)),
            ),
            ("pipeline.submits", stat(|s| s.pipeline_submits) as f64),
            ("pipeline.stall_ns", per_txn(stat(|s| s.pipeline_stall_ns))),
            (
                "spool.commit_ns",
                if lazy {
                    t.total(Kind::Commit).mean_ns()
                } else {
                    0.0
                },
            ),
            ("spool.flush_ms", t.total(Kind::Flush).mean_ns() / 1e6),
            ("spool.len_at_flush", ratio(c.spool_len_sum, c.flushes)),
            (
                "spool.inter_saved_ratio",
                ratio(stat(|s| s.bytes_saved_inter), before_savings),
            ),
            ("truncation.epochs", epochs as f64),
            ("truncation.pause_ms", median(&pauses)),
            (
                "truncation.wall_share",
                ratio(t.total(Kind::Truncating).ns, c.wall_ns),
            ),
            (
                "truncation.stall_ns",
                per_txn(stat(|s| s.truncation_stall_ns)),
            ),
            (
                "truncation.bytes_scanned_per_epoch",
                per_epoch(stat(|s| s.truncation_bytes_scanned)),
            ),
            (
                "truncation.bytes_applied_per_epoch",
                per_epoch(stat(|s| s.truncation_bytes_applied)),
            ),
            (
                "scrub.sums_writes_per_epoch",
                per_epoch(t.dev(2, "write").calls),
            ),
            (
                "scrub.sums_bytes_per_epoch",
                per_epoch(t.dev(2, "write").bytes),
            ),
            ("scrub.sums_write_ns", t.dev(2, "write").mean_ns()),
        ];
        const STORAGE: [[&str; 6]; 3] = [
            [
                "storage.log.write_ns",
                "storage.log.sync_ns",
                "storage.log.read_ns",
                "storage.log.writes_per_txn",
                "storage.log.syncs_per_txn",
                "storage.log.bytes_per_txn",
            ],
            [
                "storage.seg.write_ns",
                "storage.seg.sync_ns",
                "storage.seg.read_ns",
                "storage.seg.writes_per_txn",
                "storage.seg.syncs_per_txn",
                "storage.seg.bytes_per_txn",
            ],
            [
                "storage.sums.write_ns",
                "storage.sums.sync_ns",
                "storage.sums.read_ns",
                "storage.sums.writes_per_txn",
                "storage.sums.syncs_per_txn",
                "storage.sums.bytes_per_txn",
            ],
        ];
        let (mut written, mut errors) = (0, 0);
        for (role, names) in STORAGE.iter().enumerate() {
            let (write, sync, read) = (
                t.dev(role, "write"),
                t.dev(role, "sync"),
                t.dev(role, "read"),
            );
            written += write.bytes;
            errors += write.errors + sync.errors + read.errors + t.dev(role, "other").errors;
            v.extend([
                (names[0], write.mean_ns()),
                (names[1], sync.mean_ns()),
                (names[2], read.mean_ns()),
                (names[3], per_txn(write.calls)),
                (names[4], per_txn(sync.calls)),
                (names[5], per_txn(write.bytes)),
            ]);
        }
        let r = self.recovery_trace;
        v.extend([
            (
                "storage.total_bytes_per_user_byte",
                ratio(written, c.user_bytes),
            ),
            ("storage.errors", errors as f64),
            (
                "recovery.self_ms",
                per_recovery_ms(r.total(Kind::Initialize).self_ns),
            ),
            ("recovery.scan_ms", per_recovery_ms(r.role_ns(0))),
            (
                "recovery.apply_ms",
                per_recovery_ms(r.role_ns(1) + r.role_ns(2)),
            ),
            (
                "recovery.records",
                self.recovery.report.records_replayed as f64,
            ),
            (
                "recovery.bytes_applied",
                self.recovery.report.bytes_applied as f64,
            ),
            (
                "trace.overhead_pct",
                if self.untraced_ns_per_txn > 0.0 {
                    (c.ns_per_txn() / self.untraced_ns_per_txn - 1.0) * 100.0
                } else {
                    0.0
                },
            ),
            (
                "trace.coverage",
                ratio(t.top_level_ns, c.wall_ns * self.w.clients() as u64),
            ),
        ]);
        v
    }

    /// Calls single layers' public functions on the inputs the workload
    /// gave them, in isolation: what the layer costs with nothing else
    /// in the way.
    fn replay(&self) -> Replay {
        const SAMPLE: usize = 2000;
        const ROUNDS: u32 = 10;
        let mut stream = self.w.stream.stream(self.seed, 0, self.w.clients() as u64);
        let mut payload = [0u8; MAX_WRITE];
        let ops: Vec<_> = (0..SAMPLE).map(|_| stream.next_op()).collect();
        let per_call =
            |d: Duration, calls: usize| d.as_nanos() as f64 / (calls as f64 * f64::from(ROUNDS));

        // ranges: the declarations of each transaction into a fresh set.
        let declared: usize = ops.iter().map(|op| op.ranges.len()).sum();
        let begun = Instant::now();
        for _ in 0..ROUNDS {
            for op in &ops {
                let mut set = RangeSet::new();
                for r in &op.ranges {
                    black_box(set.insert(ByteRange::at(r.offset, u64::from(r.len))));
                }
                black_box(set);
            }
        }
        let insert_ns = per_call(begun.elapsed(), declared);

        // log.record: the record each transaction commits (its coalesced
        // ranges with their new values), encoded and parsed back.
        let records: Vec<Vec<RecordRange>> = ops
            .iter()
            .map(|op| {
                op.fill(&mut payload);
                let mut set = RangeSet::new();
                for r in &op.ranges {
                    set.insert(ByteRange::at(r.offset, u64::from(r.len)));
                }
                set.iter()
                    .map(|r| RecordRange {
                        seg: SegmentId::new(0),
                        offset: r.start,
                        data: payload[..r.len() as usize].to_vec(),
                    })
                    .collect()
            })
            .collect();
        let begun = Instant::now();
        let mut encoded = Vec::new();
        for _ in 0..ROUNDS {
            encoded.clear();
            for (i, ranges) in records.iter().enumerate() {
                encoded.push(black_box(encode_txn(i as u64, i as u64, black_box(ranges))));
            }
        }
        let encode_ns = per_call(begun.elapsed(), SAMPLE);
        let begun = Instant::now();
        for _ in 0..ROUNDS {
            for buf in &encoded {
                black_box(parse_record(black_box(buf)));
            }
        }
        let parse_ns = per_call(begun.elapsed(), SAMPLE);

        // crc: one catalog page.
        let page = vec![0xA5u8; PAGE_SIZE as usize];
        let begun = Instant::now();
        for _ in 0..ROUNDS {
            for _ in 0..SAMPLE {
                black_box(rvm::crc32(black_box(&page)));
            }
        }
        let crc_ns_per_kib = per_call(begun.elapsed(), SAMPLE) / (PAGE_SIZE as f64 / 1024.0);

        // log.wal: one forward scan of the log the crash left.
        let log = MemDevice::from_image(self.recovery.log_image.clone());
        let scan_ms = read_status(&log)
            .and_then(|status| {
                let begun = Instant::now();
                let scan =
                    scan_forward(&log, status.area_len, status.head, status.seq_at_head, None)?;
                black_box(scan.records.len());
                Ok(begun.elapsed().as_nanos() as f64 / 1e6)
            })
            .unwrap_or(0.0);

        Replay {
            insert_ns,
            encode_ns,
            parse_ns,
            crc_ns_per_kib,
            scan_ms,
        }
    }
}

struct Replay {
    insert_ns: f64,
    encode_ns: f64,
    parse_ns: f64,
    crc_ns_per_kib: f64,
    scan_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::stream_hash;

    fn workload(name: &str) -> &'static Workload {
        WORKLOADS.iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn tpca_flush_and_tpca_file_consume_the_identical_stream() {
        let (flush, file) = (workload("tpca_flush"), workload("tpca_file"));
        let hash = |w: &Workload| {
            w.streams(42)
                .into_iter()
                .map(|s| stream_hash(s, 10_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(hash(flush), hash(file));
        assert_ne!(hash(flush), hash(workload("coda_lazy")));
        assert_eq!(hash(flush), hash(workload("recover_log")));
    }

    fn quick(traced: bool, lost_ack_stub: bool) -> Config {
        Config {
            seed: 9,
            bound: Bound::Ops(16_384),
            traced,
            file_dir: None,
            lost_ack_stub,
        }
    }

    #[test]
    fn every_workload_runs_clean_and_reports_every_metric() {
        let _sink = trace::TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        for w in &WORKLOADS {
            let cfg = Config {
                bound: match w.timed {
                    Timed::Commits { .. } => Bound::Ops(16_384),
                    Timed::Recoveries { .. } => Bound::Ops(CYCLES),
                },
                ..quick(false, false)
            };
            let r = run(w, &cfg).unwrap();
            assert_eq!(r.failures, Vec::<String>::new(), "{}", w.name);
            assert!(r.attempted >= 16_384 + CRASH_OPS, "{}", w.name);
            let names: Vec<_> = r.metrics.iter().map(|m| m.0.name).collect();
            let table: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, table);
            for (m, value) in &r.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {} = {value}",
                    w.name,
                    m.name
                );
            }
        }
    }

    #[test]
    fn fixed_operation_counts_repeat_exactly() {
        let _sink = trace::TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        for name in ["tpca_flush", "coda_lazy"] {
            let counts = |r: &RunResult| {
                let pick = |n: &str| r.metrics.iter().find(|m| m.0.name == n).unwrap().1;
                (
                    pick("log_bytes_per_user_byte"),
                    pick("forces_per_commit"),
                    r.attempted,
                )
            };
            let a = run(workload(name), &quick(false, false)).unwrap();
            let b = run(workload(name), &quick(false, false)).unwrap();
            assert_eq!(counts(&a), counts(&b), "{name}");
        }
    }

    #[test]
    fn traced_run_prices_every_layer() {
        let _sink = trace::TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run(workload("coda_lazy"), &quick(true, false)).unwrap();
        assert_eq!(r.failures, Vec::<String>::new());
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let pick = |n: &str| r.metrics.iter().find(|m| m.0.name == n).unwrap().1;
        assert!(pick("txn.begin_ns") > 0.0);
        assert!(pick("region.write_ns") > 0.0);
        assert!(pick("spool.commit_ns") > 0.0);
        assert!(pick("spool.flush_ms") > 0.0);
        assert!(pick("ranges.intra_saved_ratio") > 0.0);
        assert!(pick("spool.inter_saved_ratio") > 0.0);
        assert!(pick("storage.log.bytes_per_txn") > 0.0);
        assert!(pick("recovery.records") > 0.0);
        assert!(pick("record.parse_ns") > 0.0);
        assert!(pick("wal.scan_ms") > 0.0);
        assert_eq!(pick("storage.errors"), 0.0);
        assert!((0.5..=1.0).contains(&pick("trace.coverage")));
        assert!(r.spans.is_some());
    }

    #[test]
    fn an_acknowledged_commit_that_recovery_cannot_find_fails_the_run() {
        let _sink = trace::TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run(workload("tpca_flush"), &quick(false, true)).unwrap();
        assert!(r.failed >= 1);
        assert!(
            r.failures.iter().all(|f| f.contains("durability")),
            "{:?}",
            r.failures
        );
    }
}
