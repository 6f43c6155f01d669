//! The oracle: run *real* recovery on a crash image and judge the
//! result.
//!
//! Three judgments per image:
//!
//! 1. **WAL invariants** — the crash image itself must pass the
//!    [`rvm_check`] verifier: every reachable crash state is a log the
//!    format's structural invariants hold for (reverse-displacement
//!    canonicality, scan symmetry, status-copy validity).
//! 2. **Recovery succeeds** — `Rvm::initialize` on the image must not
//!    error: no reachable crash state is unrecoverable.
//! 3. **Committed prefix** — [`rvm_reference::admits`] the recovered
//!    segments: each workload thread's cells hold a prefix of its
//!    committed transactions that keeps every one acknowledged by the
//!    crash point, and every other byte is the base's. A single-threaded
//!    trace is one thread, so this is an exact prefix replay.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rvm::segment::DeviceResolver;
use rvm::{Options, RetryPolicy, Rvm};
use rvm_storage::{Device, FaultClock, FaultDevice, FlakyFault, MemDevice};

use rvm_reference::{Commit, History, Images, Write};

use crate::Trace;

/// A crash image split into the recovery inputs: the log plus the
/// segment images by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashParts {
    pub log: Vec<u8>,
    pub segments: HashMap<String, Vec<u8>>,
}

/// What recovery left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    pub log: Vec<u8>,
    pub segments: HashMap<String, Vec<u8>>,
}

/// Splits an enumerator image set (recorder-id keyed) into [`CrashParts`]
/// using the trace's device table.
pub fn parts_from_images(trace: &Trace, images: &[(u32, Vec<u8>)]) -> CrashParts {
    let mut log = Vec::new();
    let mut segments = HashMap::new();
    for (id, img) in images {
        let base = trace
            .devices
            .iter()
            .find(|d| d.id == *id)
            .expect("image device is in the trace");
        if base.is_log {
            log = img.clone();
        } else {
            segments.insert(base.name.clone(), img.clone());
        }
    }
    CrashParts { log, segments }
}

/// A resolver over shared in-memory segment devices, creating missing
/// names zero-filled — the recovery-side mirror of the workload's traced
/// resolver.
fn mem_resolver(segs: &Arc<Mutex<HashMap<String, Arc<MemDevice>>>>) -> DeviceResolver {
    let segs = Arc::clone(segs);
    Arc::new(move |name: &str, min_len: u64| {
        let mut m = segs.lock();
        let dev = m
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(MemDevice::with_len(min_len)))
            .clone();
        if dev.len()? < min_len {
            dev.set_len(min_len)?;
        }
        Ok(dev as Arc<dyn Device>)
    })
}

/// Runs real recovery (`Rvm::initialize`) on a crash image.
pub fn recover(parts: &CrashParts) -> Result<Recovered, String> {
    let log = Arc::new(MemDevice::from_image(parts.log.clone()));
    let segs: Arc<Mutex<HashMap<String, Arc<MemDevice>>>> = Arc::new(Mutex::new(
        parts
            .segments
            .iter()
            .map(|(k, v)| (k.clone(), Arc::new(MemDevice::from_image(v.clone()))))
            .collect(),
    ));
    let rvm = Rvm::initialize(
        Options::new(log.clone())
            .resolver(mem_resolver(&segs))
            .retry_policy(RetryPolicy::none()),
    )
    .map_err(|e| format!("recovery failed on crash image: {e}"))?;
    let recovered = Recovered {
        log: log.snapshot(),
        segments: segs
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect(),
    };
    drop(rvm);
    Ok(recovered)
}

/// The data segments of a by-name image map. Checksum-catalog sidecars
/// are left out: they are metadata *derived* from the data segments
/// (recovery rewrites them as it applies the log), and their integrity is
/// checked by their own self-verifying format instead.
fn data(segments: &HashMap<String, Vec<u8>>) -> Images {
    segments
        .iter()
        .filter(|(name, _)| !rvm::scrub::is_sidecar(name))
        .map(|(name, image)| (name.clone(), image.clone()))
        .collect()
}

/// Zero-extended equality of two recoveries' data segments: a history
/// with no commits admits exactly its base.
fn same(a: &Recovered, b: &Recovered) -> Result<(), rvm_reference::Why> {
    let (base, commits) = (data(&a.segments), Vec::new());
    rvm_reference::admits(&History { base, commits }, &data(&b.segments))
}

/// Checks one crash image end to end. `point` is the crash point the
/// image was generated at (it determines the acked prefix).
pub fn check_image(trace: &Trace, point: usize, images: &[(u32, Vec<u8>)]) -> Result<(), String> {
    let parts = parts_from_images(trace, images);

    // 1. The crash image is a structurally valid log. One undecodable
    // status copy is a *legal* crash state — a torn in-flight status
    // write is exactly what the dual-copy protocol tolerates — so that
    // single finding is excused; anything else (including both copies
    // dead) is a violation.
    let log_dev: Arc<dyn Device> = Arc::new(MemDevice::from_image(parts.log.clone()));
    let verify = rvm_check::verify(&log_dev)
        .map_err(|e| format!("WAL verifier rejected the crash image: {e}"))?;
    let torn_copies = verify
        .findings
        .iter()
        .filter(|f| f.ends_with("does not decode"))
        .count();
    let real: Vec<&String> = verify
        .findings
        .iter()
        .filter(|f| torn_copies > 1 || !f.ends_with("does not decode"))
        .collect();
    if !real.is_empty() {
        return Err(format!(
            "WAL invariants broken in crash image: {}",
            real.iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }

    // 2. Recovery succeeds.
    let recovered = recover(&parts)?;

    // 3. Committed-prefix invariant.
    rvm_reference::admits(&history(trace, point), &data(&recovered.segments))
        .map_err(|why| format!("recovered state at crash point {point}: {why:?}"))
}

/// What a crash at `point` may leave, for [`rvm_reference::admits`]: the
/// segments' base images and each thread's committed transactions, the
/// ones acknowledged by `point` durable. Sidecars are left out, as in
/// [`data`].
fn history(trace: &Trace, point: usize) -> History {
    let base = trace
        .devices
        .iter()
        .filter(|d| !d.is_log && !rvm::scrub::is_sidecar(&d.name))
        .map(|d| (d.name.clone(), d.image.clone()))
        .collect();
    let commits = trace
        .committed()
        .map(|t| Commit {
            stream: t.thread,
            writes: t
                .writes
                .iter()
                .map(|w| Write {
                    segment: w.segment.clone(),
                    offset: w.offset,
                    bytes: w.data.clone(),
                })
                .collect(),
            durable: t.ack.is_some_and(|a| a <= point),
        })
        .collect();
    History { base, commits }
}

/// [`check_image`] plus the *scrub-convergence* assertion used by the
/// bit-rot checker: after recovery, every persisted checksum catalog must
/// match the recovered segment bytes, so an immediate scrub would find
/// nothing left to detect or repair. A catalog recovery failed to bring
/// back in sync would turn healed rot into a future false positive (or
/// mask real rot behind a checksum of rotted content that was then
/// corrected).
pub fn check_image_converged(
    trace: &Trace,
    point: usize,
    images: &[(u32, Vec<u8>)],
) -> Result<(), String> {
    check_image(trace, point, images)?;
    let recovered = recover(&parts_from_images(trace, images))?;
    for (name, img) in &recovered.segments {
        if rvm::scrub::is_sidecar(name) {
            continue;
        }
        let Some(sums_img) = recovered.segments.get(&rvm::scrub::sidecar_name(name)) else {
            continue;
        };
        let sums_dev = MemDevice::from_image(sums_img.clone());
        let entries = rvm::scrub::SegmentChecksums::load_readonly(&sums_dev)
            .map_err(|e| format!("segment '{name}': catalog unreadable after recovery: {e}"))?
            .ok_or_else(|| {
                format!("segment '{name}': catalog did not converge (torn after recovery)")
            })?;
        let seg_dev = MemDevice::from_image(img.clone());
        let len = img.len() as u64;
        let sums = rvm::scrub::checksums_of(&seg_dev, len, 0..rvm::scrub::page_count(len))
            .map_err(|e| format!("segment '{name}': unreadable: {e}"))?;
        for (page, sum) in sums.into_iter().enumerate() {
            if entries.get(page).copied() != Some(sum) {
                return Err(format!(
                    "segment '{name}' page {page}: catalog mismatch after recovery — \
                     scrub would not converge"
                ));
            }
        }
    }
    Ok(())
}

/// Satellite: recovery determinism. Recovering the same crash image twice
/// must produce byte-identical results, and a crash *during* recovery
/// (fail-stop after `k` device ops, unsynced writes lost) followed by a
/// clean recovery must converge to the same segment contents.
pub fn check_recovery_determinism(parts: &CrashParts, crash_ops: &[u64]) -> Result<(), String> {
    let a = recover(parts)?;
    let b = recover(parts)?;
    same(&a, &b).map_err(|why| format!("recovery is not deterministic (segments): {why:?}"))?;
    if a.log != b.log {
        return Err("recovery is not deterministic (log image)".into());
    }

    for &k in crash_ops {
        let crashed = crash_during_recovery(parts, k);
        let c = recover(&crashed)
            .map_err(|e| format!("re-recovery after a crash at recovery op {k} failed: {e}"))?;
        same(&a, &c).map_err(|why| {
            format!("crash during recovery at op {k} changed the recovered segments: {why:?}")
        })?;
    }
    Ok(())
}

/// Runs recovery against fail-stop devices that die after `k` ops (all
/// later ops fail, unsynced writes of the in-flight window are lost) and
/// returns the resulting durable image.
fn crash_during_recovery(parts: &CrashParts, k: u64) -> CrashParts {
    let clock = FaultClock::new(vec![FlakyFault::crash_after_ops(k)]);
    let log_mem = Arc::new(MemDevice::from_image(parts.log.clone()));
    let log = Arc::new(FaultDevice::with_clock(log_mem.clone(), clock.clone()));

    type SegMap = HashMap<String, (Arc<MemDevice>, Arc<FaultDevice>)>;
    let segs: Arc<Mutex<SegMap>> = Arc::new(Mutex::new(
        parts
            .segments
            .iter()
            .map(|(name, img)| {
                let mem = Arc::new(MemDevice::from_image(img.clone()));
                let flaky = Arc::new(FaultDevice::with_clock(mem.clone(), clock.clone()));
                (name.clone(), (mem, flaky))
            })
            .collect(),
    ));
    let resolver: DeviceResolver = Arc::new({
        let segs = Arc::clone(&segs);
        let clock = clock.clone();
        move |name: &str, min_len: u64| {
            let mut m = segs.lock();
            let (_, flaky) = m
                .entry(name.to_owned())
                .or_insert_with(|| {
                    let mem = Arc::new(MemDevice::with_len(min_len));
                    let flaky = Arc::new(FaultDevice::with_clock(mem.clone(), clock.clone()));
                    (mem, flaky)
                })
                .clone();
            if flaky.len()? < min_len {
                flaky.set_len(min_len)?;
            }
            Ok(flaky as Arc<dyn Device>)
        }
    });

    // Both outcomes are interesting: an error means the crash hit
    // mid-recovery; success means `k` exceeded recovery's op count and
    // the image below is simply the fully recovered state. Either way the
    // images are settled: the crash rolls back every device on the clock
    // as it fires.
    let _ = Rvm::initialize(
        Options::new(log)
            .resolver(resolver)
            .retry_policy(RetryPolicy::none()),
    );
    let m = segs.lock();
    CrashParts {
        log: log_mem.snapshot(),
        segments: m
            .iter()
            .map(|(name, (mem, _))| (name.clone(), mem.snapshot()))
            .collect(),
    }
}
