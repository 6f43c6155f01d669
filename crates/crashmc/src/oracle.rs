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
//! 3. **Committed prefix** — the recovered segments equal the replay of
//!    a prefix of the committed transactions, no shorter than the acked
//!    prefix (single-threaded traces, exact), or satisfy the
//!    all-or-none / acked-present / aborted-absent / per-thread-prefix
//!    invariants over disjoint write cells (multi-threaded traces).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rvm::segment::DeviceResolver;
use rvm::{Options, RetryPolicy, Rvm};
use rvm_storage::{Device, FaultClock, FaultDevice, FlakyFault, MemDevice, UnsyncedFate};

use crate::{apply_write, segment_bases, SegWrite, Trace, TxnSpec};

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

/// Reads `len` bytes at `offset` from a by-name image map, zero-extending
/// past the image's end (a shorter device reads as zeros there).
fn cell(map: &HashMap<String, Vec<u8>>, seg: &str, offset: u64, len: usize) -> Vec<u8> {
    let img: &[u8] = map.get(seg).map_or(&[], |v| v.as_slice());
    let mut out = vec![0u8; len];
    let start = (offset as usize).min(img.len());
    let end = (offset as usize + len).min(img.len());
    if end > start {
        out[..end - start].copy_from_slice(&img[start..end]);
    }
    out
}

/// Zero-extended equality over two by-name image maps. Checksum-catalog
/// sidecars are skipped: they are metadata *derived* from the data
/// segments (recovery rewrites them as it applies the log), so the
/// committed-prefix replay — which models only data writes — never
/// contains them; their integrity is checked by their own self-verifying
/// format instead.
fn images_equal(a: &HashMap<String, Vec<u8>>, b: &HashMap<String, Vec<u8>>) -> Option<String> {
    let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        if rvm::scrub::is_sidecar(name) {
            continue;
        }
        let (x, y) = (
            a.get(name).map_or(&[][..], |v| v),
            b.get(name).map_or(&[][..], |v| v),
        );
        let len = x.len().max(y.len());
        for i in 0..len {
            let (xb, yb) = (
                x.get(i).copied().unwrap_or(0),
                y.get(i).copied().unwrap_or(0),
            );
            if xb != yb {
                return Some(format!("{name}[{i}]: {xb:#04x} vs {yb:#04x}"));
            }
        }
    }
    None
}

fn matches_cell(recovered: &HashMap<String, Vec<u8>>, w: &SegWrite) -> bool {
    cell(recovered, &w.segment, w.offset, w.data.len()) == w.data
}

fn matches_base(
    recovered: &HashMap<String, Vec<u8>>,
    bases: &HashMap<String, Vec<u8>>,
    w: &SegWrite,
) -> bool {
    cell(recovered, &w.segment, w.offset, w.data.len())
        == cell(bases, &w.segment, w.offset, w.data.len())
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
    if trace.single_threaded {
        check_exact_prefix(trace, point, &recovered)
    } else {
        check_disjoint_cells(trace, point, &recovered)
    }
}

/// Exact oracle for single-threaded traces: the recovered segments must
/// equal the replay of the first `k` committed transactions for some
/// `k >= acked`.
fn check_exact_prefix(trace: &Trace, point: usize, recovered: &Recovered) -> Result<(), String> {
    let committed: Vec<&TxnSpec> = trace.committed().collect();
    // The mandatory prefix extends to the *furthest* acked transaction:
    // flush-mode commits drain the spool first, so when a commit's force
    // completed, every earlier committed transaction's record was made
    // durable with it — even ones whose own ack (a later explicit flush)
    // hadn't been observed by the workload script yet.
    let acked = committed
        .iter()
        .rposition(|t| t.ack.is_some_and(|a| a <= point))
        .map_or(0, |i| i + 1);

    let mut state = segment_bases(trace);
    for t in &committed[..acked] {
        for w in &t.writes {
            apply_write(
                state.entry(w.segment.clone()).or_default(),
                w.offset,
                &w.data,
            );
        }
    }
    for k in acked..=committed.len() {
        if k > acked {
            for w in &committed[k - 1].writes {
                apply_write(
                    state.entry(w.segment.clone()).or_default(),
                    w.offset,
                    &w.data,
                );
            }
        }
        if images_equal(&state, &recovered.segments).is_none() {
            return Ok(());
        }
    }

    // No prefix matches: report the mismatch against the mandatory
    // (acked) prefix, the strongest claim.
    let mut state = segment_bases(trace);
    for t in &committed[..acked] {
        for w in &t.writes {
            apply_write(
                state.entry(w.segment.clone()).or_default(),
                w.offset,
                &w.data,
            );
        }
    }
    let diff = images_equal(&state, &recovered.segments).unwrap_or_default();
    Err(format!(
        "recovered state matches no committed prefix ({} acked of {} committed at crash point {}); \
         vs acked prefix: {diff}",
        acked,
        committed.len(),
        point
    ))
}

/// Disjoint-cell oracle for multi-threaded traces: per-transaction
/// all-or-none, acked ⇒ present, aborted ⇒ absent, per-thread commit
/// order prefix-closed. Requires the workload to write disjoint cells
/// with values distinct from the base image.
fn check_disjoint_cells(trace: &Trace, point: usize, recovered: &Recovered) -> Result<(), String> {
    let bases = segment_bases(trace);
    let mut present: Vec<bool> = Vec::with_capacity(trace.txns.len());

    for (i, t) in trace.txns.iter().enumerate() {
        let full = t
            .writes
            .iter()
            .all(|w| matches_cell(&recovered.segments, w));
        let none = t
            .writes
            .iter()
            .all(|w| matches_base(&recovered.segments, &bases, w));
        if !full && !none {
            return Err(format!(
                "txn {i} (thread {}) is partially applied after recovery (atomicity)",
                t.thread
            ));
        }
        if !t.committed && full && !t.writes.is_empty() {
            return Err(format!(
                "aborted txn {i} (thread {}) is visible after recovery",
                t.thread
            ));
        }
        if t.committed && t.ack.is_some_and(|a| a <= point) && !full {
            return Err(format!(
                "txn {i} (thread {}) was acknowledged at op {} but is lost after a crash at op {point} \
                 (durability)",
                t.thread,
                t.ack.unwrap()
            ));
        }
        present.push(t.committed && full);
    }

    // Per-thread prefix closure: once one of a thread's committed
    // transactions is missing, every later one must be missing too
    // (durable-log order matches commit order).
    let threads: std::collections::BTreeSet<u32> = trace.txns.iter().map(|t| t.thread).collect();
    for th in threads {
        let mut gap = None;
        for (i, t) in trace.txns.iter().enumerate() {
            if t.thread != th || !t.committed {
                continue;
            }
            match (present[i], gap) {
                (false, None) => gap = Some(i),
                (true, Some(g)) => {
                    return Err(format!(
                        "thread {th}: txn {i} survived but earlier txn {g} did not \
                         (commit order not prefix-closed)"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
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
        for page in 0..rvm::scrub::page_count(len) {
            let sum = rvm::scrub::checksum_of(&seg_dev, len, page)
                .map_err(|e| format!("segment '{name}' page {page}: unreadable: {e}"))?;
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
    if let Some(diff) = images_equal(&a.segments, &b.segments) {
        return Err(format!("recovery is not deterministic (segments): {diff}"));
    }
    if a.log != b.log {
        return Err("recovery is not deterministic (log image)".into());
    }

    for &k in crash_ops {
        let crashed = crash_during_recovery(parts, k);
        let c = recover(&crashed)
            .map_err(|e| format!("re-recovery after a crash at recovery op {k} failed: {e}"))?;
        if let Some(diff) = images_equal(&a.segments, &c.segments) {
            return Err(format!(
                "crash during recovery at op {k} changed the recovered segments: {diff}"
            ));
        }
    }
    Ok(())
}

/// Runs recovery against fail-stop devices that die after `k` ops (all
/// later ops fail, unsynced writes of the in-flight window are lost) and
/// returns the resulting durable image.
fn crash_during_recovery(parts: &CrashParts, k: u64) -> CrashParts {
    let clock =
        FaultClock::new(vec![FlakyFault::crash_after_ops(k)]).crash_model(UnsyncedFate::Lost);
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
