//! # rvm-crashmc — crash-consistency model checking for RVM
//!
//! A deterministic crash-state model checker for the commit and
//! truncation protocols. The pipeline has three stages:
//!
//! 1. **Trace capture** ([`workload`]): a workload runs against a real
//!    [`Rvm`](rvm::Rvm) instance whose log and segment devices are
//!    wrapped in [`TraceDevice`](rvm_storage::TraceDevice)s sharing one
//!    [`TraceRecorder`](rvm_storage::TraceRecorder). The result is a
//!    [`Trace`]: the global order of every `write_at`/`sync`/`set_len`
//!    across all devices, each device's pre-trace durable image, and the
//!    transaction script with *ack points* — the op-log index at which
//!    each flush-mode commit returned to the application.
//!
//! 2. **Crash-image enumeration** ([`rvm_images`], the workspace's one
//!    source of crash images): every `sync` boundary (plus the end of the
//!    trace) is a crash point. At a crash point, writes covered by an
//!    earlier completed `sync` on their device are durable; writes since
//!    are *pending*, split into sector-granular pieces, and any subset of
//!    the pieces may have reached the platter — torn, dropped, or kept
//!    out of order. Small piece sets are enumerated exhaustively; large
//!    ones are sampled with seeded pseudo-randomness plus a deterministic
//!    worst-case core (all-kept, all-dropped, every single-piece drop).
//!    Images are deduplicated by hash, so the reported state count is
//!    *distinct reachable crash states*.
//!
//! 3. **Oracle** ([`oracle`]): each crash image is loaded into fresh
//!    [`MemDevice`](rvm_storage::MemDevice)s and **real recovery** runs
//!    on it (`Rvm::initialize`). The recovered state must satisfy the
//!    committed-prefix invariant, judged by [`rvm_reference::admits`]:
//!    each workload thread's cells hold some *prefix* of its committed
//!    transactions, at least as long as its acked prefix (every
//!    transaction whose commit, or a flush after it, returned before the
//!    crash point must survive), and no other byte changed. One thread
//!    makes this an exact prefix replay; over threads writing disjoint
//!    cells it is all-or-none, acked ⇒ present, aborted ⇒ never present
//!    and per-thread prefix closure. The pre-recovery crash image itself
//!    must pass the [`rvm_check`] WAL invariant verifier, and recovery
//!    must be deterministic (see [`oracle::check_recovery_determinism`]).
//!
//! The checker's acceptance is double-sided: the real tree must show
//! zero violations over every workload, and a tree with a
//! [`MutationHooks`](rvm::MutationHooks) switch flipped (e.g.
//! `skip_group_force`: acknowledge flush commits without the batch's log
//! force) must show at least one — proving the checker can see the bug
//! class each switch reintroduces.
//!
//! Traces serialize to disk ([`tracefile`]) so failing cases can be
//! re-checked post mortem: `rvmlog <trace> crashck`.

pub mod oracle;
pub mod tracefile;
pub mod workload;

use std::collections::HashSet;

use rvm_images::{enumerate_images, EnumConfig};
use rvm_storage::{xorshift64, TraceOp, TraceOpKind};

/// A device participating in a trace: identity plus its durable image at
/// the moment recording started (the pre-crash base every enumeration
/// builds on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceBase {
    /// Id assigned by the recorder; [`TraceOp::device`] refers to it.
    pub id: u32,
    /// Segment name, or the log's label.
    pub name: String,
    /// Whether this device is the WAL (exactly one per trace).
    pub is_log: bool,
    /// Durable contents when recording was enabled. Devices first
    /// resolved mid-trace start empty (they are zero-filled at creation;
    /// synthesis grows images on demand).
    pub image: Vec<u8>,
}

/// One byte range a transaction wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegWrite {
    pub segment: String,
    pub offset: u64,
    pub data: Vec<u8>,
}

/// One transaction of the workload script, in per-thread program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpec {
    /// Workload thread that ran the transaction.
    pub thread: u32,
    /// `false` for transactions the workload deliberately aborted.
    pub committed: bool,
    /// Op-log length observed when the commit (or the flush covering a
    /// no-flush commit) returned. A crash at point `c >= ack` must
    /// preserve the transaction; `None` means permanence was never
    /// promised (unflushed or aborted).
    pub ack: Option<usize>,
    pub writes: Vec<SegWrite>,
}

/// A captured execution: devices, global op order, transaction script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub devices: Vec<DeviceBase>,
    pub ops: Vec<TraceOp>,
    pub txns: Vec<TxnSpec>,
}

impl Trace {
    /// The log device's base entry.
    pub fn log_base(&self) -> &DeviceBase {
        self.devices
            .iter()
            .find(|d| d.is_log)
            .expect("trace has a log device")
    }

    /// Committed transactions in trace order.
    pub fn committed(&self) -> impl Iterator<Item = &TxnSpec> {
        self.txns.iter().filter(|t| t.committed)
    }

    /// Crash points at which a pending log write begins inside a `sector`
    /// whose bytes before it hold an acknowledged record: a durable write,
    /// forced before some transaction's acknowledgement that precedes the
    /// point. A dense log makes these — its records lie back to back, not
    /// sector-aligned — and the enumerator tears only the bytes a write
    /// covers, which is the one thing such a log assumes of the disk.
    pub fn shared_sector_points(&self, sector: u64) -> usize {
        let log = self.log_base().id;
        let acked_between = |from: usize, to: usize| {
            let mut acks = self.txns.iter().filter_map(|t| t.ack);
            acks.any(|ack| ack > from && ack <= to)
        };
        // `(start, end, sync)` of every durable write; `(start, end)` pending.
        let (mut durable, mut pending) = (Vec::<(u64, u64, usize)>::new(), Vec::new());
        let mut points = 0;
        let log_ops = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.device == log);
        for (at, op) in log_ops {
            match &op.kind {
                TraceOpKind::Write { offset, data } => {
                    pending.push((*offset, offset + data.len() as u64))
                }
                TraceOpKind::SetLen { .. } => {}
                TraceOpKind::Sync => {
                    let shares = pending.iter().any(|&(start, _)| {
                        let sector_start = start - start % sector;
                        durable.iter().any(|&(s, e, synced)| {
                            s < start && e > sector_start && acked_between(synced, at)
                        })
                    });
                    points += usize::from(shares);
                    durable.extend(pending.drain(..).map(|(s, e)| (s, e, at)));
                }
            }
        }
        points
    }
}

/// One invariant breach, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Crash point: `ops[..point]` were issued; the `sync` at `point`
    /// (if any) did not complete.
    pub point: usize,
    /// Which pending pieces the crash image kept.
    pub kept: Vec<bool>,
    /// Seed in effect when the image was generated (sampled points).
    pub seed: u64,
    pub detail: String,
}

/// What a [`check_trace`] run covered and found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Sync boundaries (plus trace end) considered.
    pub crash_points: usize,
    /// Crash points whose piece set exceeded the exhaustive cap and were
    /// sampled instead.
    pub sampled_points: usize,
    /// Images generated (before dedup).
    pub images_enumerated: u64,
    /// Distinct crash states (deduped by image hash).
    pub images_unique: u64,
    /// Recovery runs executed (deduped by image × required-prefix).
    pub recoveries_run: u64,
    /// True when every crash point was enumerated exhaustively: the
    /// report then covers *every* crash state the disk model permits.
    pub exhaustive: bool,
    /// True when every image was bit-rotted before recovery
    /// ([`check_trace_with_rot`]).
    pub rotted: bool,
    pub violations: Vec<Violation>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering (the `rvmlog crashck` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crash points:      {}{}\n",
            self.crash_points,
            if self.sampled_points > 0 {
                format!(" ({} sampled)", self.sampled_points)
            } else {
                String::new()
            }
        ));
        out.push_str(&format!(
            "crash states:      {} distinct ({} enumerated, {})\n",
            self.images_unique,
            self.images_enumerated,
            if self.exhaustive {
                "exhaustive"
            } else {
                "sampled"
            }
        ));
        if self.rotted {
            out.push_str("bit rot:           injected into every image\n");
        }
        out.push_str(&format!("recoveries run:    {}\n", self.recoveries_run));
        out.push_str(&format!("violations:        {}\n", self.violations.len()));
        for v in &self.violations {
            let kept: String = v.kept.iter().map(|&k| if k { '1' } else { '0' }).collect();
            out.push_str(&format!(
                "  @op {} seed {:#x} kept [{}]\n    {}\n",
                v.point, v.seed, kept, v.detail
            ));
        }
        out
    }
}

/// Checks every crash image of `trace` that `cfg` generates, stopping
/// after [`EnumConfig::max_violations`] breaches.
pub fn check_trace(trace: &Trace, cfg: &EnumConfig) -> Report {
    check_images(trace, cfg, None)
}

/// Like [`check_trace`], but bit-rots each crash image before handing it
/// to the oracle: one byte inside an acknowledged committed write's range
/// is flipped on the segment device, and one byte of the checksum
/// sidecar (when present) is flipped too. The committed-prefix oracle
/// then demands that recovery *heal* the rot, and an extra convergence
/// check ([`oracle::check_image_converged`]) demands that the persisted
/// catalogs match the recovered bytes — i.e. an immediate scrub would
/// find nothing left to repair.
///
/// Sound only over workloads that never truncate (e.g.
/// [`workload::Workload::BitRot`]): truncation can retire an acked write
/// from the live log span, after which redo cannot rebuild a rotted byte
/// and the oracle would report a false violation.
pub fn check_trace_with_rot(trace: &Trace, cfg: &EnumConfig) -> Report {
    check_images(trace, cfg, Some(rot_images))
}

/// What [`check_trace_with_rot`] does to a crash image before recovery.
type ImageTransform = fn(&Trace, usize, u64, &mut [(u32, Vec<u8>)]);

/// The enumerate-dedupe-recover loop of both checks: each distinct
/// recovery problem is judged once — as it is, or transformed by `rot`
/// and then also checked for convergence.
fn check_images(trace: &Trace, cfg: &EnumConfig, rot: Option<ImageTransform>) -> Report {
    let mut report = Report {
        rotted: rot.is_some(),
        ..Report::default()
    };
    let mut seen: HashSet<(u64, usize)> = HashSet::new();
    let mut violations = Vec::new();

    let bases = trace.devices.iter().map(|d| d.image.clone()).collect();
    let stats = enumerate_images(bases, &trace.ops, cfg, |point, kept, image_hash, images| {
        // The required prefix depends only on the crash point (acks are
        // monotone in the op-log), so (image, required-count) identifies
        // a recovery problem; equal pairs need only one recovery run.
        let required = trace
            .txns
            .iter()
            .filter(|t| t.ack.is_some_and(|a| a <= point))
            .count();
        if !seen.insert((image_hash, required)) {
            return true;
        }
        report.recoveries_run += 1;
        let verdict = match rot {
            None => oracle::check_image(trace, point, images),
            Some(rot) => {
                let mut rotted = images.to_vec();
                rot(trace, point, cfg.seed, &mut rotted);
                oracle::check_image_converged(trace, point, &rotted)
                    .map_err(|detail| format!("(with injected rot) {detail}"))
            }
        };
        if let Err(detail) = verdict {
            violations.push(Violation {
                point,
                kept: kept.to_vec(),
                seed: cfg.seed,
                detail,
            });
            if violations.len() >= cfg.max_violations {
                return false;
            }
        }
        true
    });

    report.crash_points = stats.crash_points;
    report.sampled_points = stats.sampled_points;
    report.images_enumerated = stats.images_enumerated;
    report.images_unique = stats.images_unique;
    report.exhaustive = stats.exhaustive;
    report.violations = violations;
    report
}

/// Flips one deterministic byte inside an acked committed write's range
/// on its segment's image, plus one byte of every checksum sidecar. No-op
/// when no transaction is acked at `point` (nothing is guaranteed
/// recoverable yet, so arbitrary rot could be legal data loss).
fn rot_images(trace: &Trace, point: usize, seed: u64, images: &mut [(u32, Vec<u8>)]) {
    let acked: Vec<&TxnSpec> = trace
        .txns
        .iter()
        .filter(|t| t.committed && t.ack.is_some_and(|a| a <= point))
        .collect();
    // No acked transaction yet ⇒ the recovery tree may be empty, in
    // which case recovery never touches the segments or their catalogs
    // and injected rot would legally persist until the next map. Only
    // crash points with committed work make the healing claim testable.
    if acked.is_empty() {
        return;
    }
    let mut rng = seed ^ (point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let txn = acked[(xorshift64(&mut rng) % acked.len() as u64) as usize];
    let write = &txn.writes[(xorshift64(&mut rng) % txn.writes.len() as u64) as usize];
    if !write.data.is_empty() {
        let byte = write.offset + xorshift64(&mut rng) % write.data.len() as u64;
        let dev = trace
            .devices
            .iter()
            .find(|d| !d.is_log && d.name == write.segment)
            .map(|d| d.id);
        if let Some(id) = dev {
            if let Some((_, img)) = images.iter_mut().find(|(i, _)| *i == id) {
                img.resize(img.len().max(byte as usize + 1), 0);
                img[byte as usize] ^= 0xA5;
            }
        }
    }
    // Rot the catalog sidecar of every segment the acked work wrote —
    // recovery is guaranteed to open those catalogs while applying the
    // tree, and must not trust one that fails its own self-check: it
    // re-adopts a fresh catalog instead.
    let rotted_sidecars: HashSet<String> = acked
        .iter()
        .flat_map(|t| t.writes.iter())
        .map(|w| rvm::scrub::sidecar_name(&w.segment))
        .collect();
    for dev in trace
        .devices
        .iter()
        .filter(|d| !d.is_log && rotted_sidecars.contains(&d.name))
    {
        if let Some((_, img)) = images.iter_mut().find(|(i, _)| *i == dev.id) {
            if !img.is_empty() {
                let byte = (xorshift64(&mut rng) % img.len() as u64) as usize;
                img[byte] ^= 0xA5;
            }
        }
    }
}
