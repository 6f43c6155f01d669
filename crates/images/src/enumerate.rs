//! Crash-image enumeration.
//!
//! A crash can happen at any instant, but only `sync` boundaries change
//! what is *guaranteed* durable: between two syncs the set of reachable
//! crash images only grows as writes accumulate, so every image reachable
//! mid-window is also reachable at the window's end with the later writes
//! dropped. Enumerating just before each `sync` (plus the end of the
//! trace) therefore covers the full image space — the prefix pruning that
//! keeps exhaustive enumeration feasible.
//!
//! At a crash point, each device's writes since its own last completed
//! `sync` are pending. Pending writes are split into sector-granular
//! *pieces*; a crash image keeps an arbitrary subset of the pieces
//! (applied in issue order): a write torn on a sector boundary (a proper
//! sub-range of its pieces), and any keep/drop pattern across writes,
//! including a later write surviving an earlier one. `set_len` is modeled
//! as ordered metadata: always applied.
//!
//! Piece counts at or under [`EnumConfig::exhaustive_piece_cap`] are
//! enumerated exhaustively (2^n subsets); larger counts are sampled:
//! a deterministic worst-case core — all kept, all dropped, every single
//! piece dropped, every single piece kept — plus seeded random masks.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use rvm_reference::apply;
use rvm_storage::{xorshift64, TraceOp, TraceOpKind};

/// Enumeration tuning. The defaults enumerate a small workload
/// exhaustively in seconds; CI uses them as-is.
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// Torn-write granularity in bytes.
    pub sector: usize,
    /// A single write contributes at most this many pieces (bigger writes
    /// get proportionally coarser pieces — sound, since coarse subsets
    /// are a subset of the fine-grained image space).
    pub max_pieces_per_write: usize,
    /// Crash points with at most this many pieces are exhaustive.
    pub exhaustive_piece_cap: u32,
    /// Random masks per sampled crash point (on top of the deterministic
    /// worst-case core).
    pub samples_per_point: usize,
    /// Seed for sampled masks; a violation report quotes it.
    pub seed: u64,
    /// Stop after this many violations.
    pub max_violations: usize,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            sector: 512,
            max_pieces_per_write: 4,
            exhaustive_piece_cap: 12,
            samples_per_point: 64,
            seed: 0xC0FF_EE00_D15C,
            max_violations: 1,
        }
    }
}

/// Coverage counters from one enumeration pass.
#[derive(Debug, Clone, Default)]
pub struct EnumStats {
    pub crash_points: usize,
    pub sampled_points: usize,
    pub images_enumerated: u64,
    /// Distinct images by hash, across all crash points.
    pub images_unique: u64,
    /// No crash point overflowed the exhaustive cap.
    pub exhaustive: bool,
}

/// One pending (unsynced) op on a device.
#[derive(Debug, Clone)]
enum Pending {
    Write { offset: u64, data: Vec<u8> },
    SetLen { len: u64 },
}

/// A keep-or-drop unit: a sector-aligned slice of one pending write.
/// `op` indexes the device's pending list; `start..start+len` its data.
#[derive(Debug, Clone, Copy)]
struct Piece {
    device: usize,
    op: usize,
    start: usize,
    len: usize,
}

/// Visits every crash image of `ops` over `bases` under `cfg`.
///
/// `bases` holds each device's durable image when `ops` began, indexed
/// by the device id its ops name. The visitor receives the crash point
/// (an index into `ops`), the kept-piece mask, a hash of the whole image
/// set (for cross-point dedup), and the per-device images keyed by id.
/// Returning `false` stops the walk.
pub fn enumerate_images<F>(
    bases: Vec<Vec<u8>>,
    ops: &[TraceOp],
    cfg: &EnumConfig,
    mut visit: F,
) -> EnumStats
where
    F: FnMut(usize, &[bool], u64, &[(u32, Vec<u8>)]) -> bool,
{
    let mut stats = EnumStats {
        exhaustive: true,
        ..EnumStats::default()
    };
    let mut unique: HashSet<u64> = HashSet::new();

    // Per-device rolling state: the durable image (as of the device's
    // last completed sync) and the pending ops since.
    let mut durable = bases;
    let mut pending: Vec<Vec<Pending>> = vec![Vec::new(); durable.len()];

    // Crash points: just before each sync, plus the end of the trace.
    let mut points: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.kind, TraceOpKind::Sync))
        .map(|(i, _)| i)
        .collect();
    points.push(ops.len());
    stats.crash_points = points.len();

    let mut next_point = 0;
    for cursor in 0..=ops.len() {
        while next_point < points.len() && points[next_point] == cursor {
            if !emit_point(
                cfg,
                cursor,
                &durable,
                &pending,
                &mut stats,
                &mut unique,
                &mut visit,
            ) {
                stats.images_unique = unique.len() as u64;
                return stats;
            }
            next_point += 1;
        }
        if cursor == ops.len() {
            break;
        }
        let op = &ops[cursor];
        let d = op.device as usize;
        match &op.kind {
            TraceOpKind::Write { offset, data } => pending[d].push(Pending::Write {
                offset: *offset,
                data: data.clone(),
            }),
            TraceOpKind::SetLen { len } => pending[d].push(Pending::SetLen { len: *len }),
            TraceOpKind::Sync => {
                // The sync completed: everything pending on this device
                // becomes durable, in order.
                let ops = std::mem::take(&mut pending[d]);
                for p in ops {
                    match p {
                        Pending::Write { offset, data } => apply(&mut durable[d], offset, &data),
                        Pending::SetLen { len } => durable[d].resize(len as usize, 0),
                    }
                }
            }
        }
    }

    stats.images_unique = unique.len() as u64;
    stats
}

/// Emits every (or a sample of) crash image at one crash point.
#[allow(clippy::too_many_arguments)]
fn emit_point<F>(
    cfg: &EnumConfig,
    point: usize,
    durable: &[Vec<u8>],
    pending: &[Vec<Pending>],
    stats: &mut EnumStats,
    unique: &mut HashSet<u64>,
    visit: &mut F,
) -> bool
where
    F: FnMut(usize, &[bool], u64, &[(u32, Vec<u8>)]) -> bool,
{
    let pieces = split_pieces(cfg, pending);
    let n = pieces.len();

    let mut try_mask = |mask: &[bool]| -> bool {
        let images = synthesize(durable, pending, &pieces, mask);
        let hash = hash_images(&images);
        stats.images_enumerated += 1;
        unique.insert(hash);
        visit(point, mask, hash, &images)
    };

    if n as u32 <= cfg.exhaustive_piece_cap {
        for bits in 0..(1u64 << n) {
            let mask: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            if !try_mask(&mask) {
                return false;
            }
        }
        return true;
    }

    stats.sampled_points += 1;
    stats.exhaustive = false;
    // Deterministic worst-case core: both extremes, then each single
    // piece dropped (a torn straggler) and each kept alone (maximal
    // reordering).
    let mut masks: Vec<Vec<bool>> = vec![vec![true; n], vec![false; n]];
    for i in 0..n.min(64) {
        let mut dropped = vec![true; n];
        dropped[i] = false;
        masks.push(dropped);
        let mut alone = vec![false; n];
        alone[i] = true;
        masks.push(alone);
    }
    let mut rng = cfg.seed ^ (point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..cfg.samples_per_point {
        let mut mask = vec![false; n];
        let mut word = 0u64;
        for (i, m) in mask.iter_mut().enumerate() {
            if i % 64 == 0 {
                word = xorshift64(&mut rng);
            }
            *m = word >> (i % 64) & 1 == 1;
        }
        masks.push(mask);
    }
    for mask in &masks {
        if !try_mask(mask) {
            return false;
        }
    }
    true
}

/// Splits every pending write into sector-aligned pieces, coarsened so no
/// single write exceeds `max_pieces_per_write`.
fn split_pieces(cfg: &EnumConfig, pending: &[Vec<Pending>]) -> Vec<Piece> {
    let mut pieces = Vec::new();
    for (device, ops) in pending.iter().enumerate() {
        for (op, p) in ops.iter().enumerate() {
            let Pending::Write { data, .. } = p else {
                continue;
            };
            let len = data.len();
            if len == 0 {
                continue;
            }
            let mut chunk = len.div_ceil(cfg.max_pieces_per_write);
            chunk = chunk.div_ceil(cfg.sector) * cfg.sector;
            let mut start = 0;
            while start < len {
                let l = chunk.min(len - start);
                pieces.push(Piece {
                    device,
                    op,
                    start,
                    len: l,
                });
                start += l;
            }
        }
    }
    pieces
}

/// Builds the per-device crash images for one kept-piece mask.
fn synthesize(
    durable: &[Vec<u8>],
    pending: &[Vec<Pending>],
    pieces: &[Piece],
    mask: &[bool],
) -> Vec<(u32, Vec<u8>)> {
    let mut images: Vec<(u32, Vec<u8>)> = (0..).zip(durable.to_vec()).collect();
    // Apply pending ops in issue order; a write lands only the kept
    // pieces of its payload (but a partially-kept write still extends the
    // image to the full write's footprint, as a torn platter write does).
    for (d, ops) in pending.iter().enumerate() {
        let img = &mut images[d].1;
        for (op_idx, p) in ops.iter().enumerate() {
            match p {
                Pending::SetLen { len } => img.resize(*len as usize, 0),
                Pending::Write { offset, data } => {
                    img.resize(img.len().max(*offset as usize + data.len()), 0);
                    for (pi, piece) in pieces.iter().enumerate() {
                        if piece.device == d && piece.op == op_idx && mask[pi] {
                            apply(
                                img,
                                offset + piece.start as u64,
                                &data[piece.start..piece.start + piece.len],
                            );
                        }
                    }
                }
            }
        }
    }
    images
}

fn hash_images(images: &[(u32, Vec<u8>)]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (id, img) in images {
        id.hash(&mut h);
        img.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(device: u32, offset: u64, data: Vec<u8>) -> TraceOp {
        TraceOp {
            device,
            kind: TraceOpKind::Write { offset, data },
        }
    }

    fn sync(device: u32) -> TraceOp {
        TraceOp {
            device,
            kind: TraceOpKind::Sync,
        }
    }

    /// Enumerates `ops` over one zeroed 8-byte device.
    fn enumerate<F>(ops: Vec<TraceOp>, cfg: &EnumConfig, visit: F) -> EnumStats
    where
        F: FnMut(usize, &[bool], u64, &[(u32, Vec<u8>)]) -> bool,
    {
        enumerate_images(vec![vec![0; 8]], &ops, cfg, visit)
    }

    #[test]
    fn one_unsynced_write_yields_kept_and_dropped_images() {
        let ops = vec![write(0, 0, vec![7; 4])];
        let mut seen = Vec::new();
        let stats = enumerate(ops, &EnumConfig::default(), |point, _, _, images| {
            seen.push((point, images[0].1.clone()));
            true
        });
        // One crash point (trace end, op index 1), one 1-piece write:
        // 2 images.
        assert_eq!(stats.crash_points, 1);
        assert_eq!(stats.images_enumerated, 2);
        assert_eq!(stats.images_unique, 2);
        assert!(stats.exhaustive);
        assert!(seen.contains(&(1, vec![0; 8])));
        assert!(seen.contains(&(1, vec![7, 7, 7, 7, 0, 0, 0, 0])));
    }

    #[test]
    fn synced_writes_are_durable_in_every_image() {
        let ops = vec![write(0, 0, vec![1; 2]), sync(0), write(0, 4, vec![2; 2])];
        let stats = enumerate(ops, &EnumConfig::default(), |point, _, _, images| {
            if point > 1 {
                // Once the sync at op 1 completed, the first write is
                // durable in every image.
                assert_eq!(&images[0].1[..2], &[1, 1], "synced write present");
            }
            true
        });
        // Crash before the sync (2 images: write kept or dropped) plus
        // trace end (2 images over the second write).
        assert_eq!(stats.crash_points, 2);
        assert_eq!(stats.images_enumerated, 4);
        assert!(stats.exhaustive);
    }

    #[test]
    fn torn_write_pieces_split_on_sector() {
        let cfg = EnumConfig {
            sector: 2,
            max_pieces_per_write: 4,
            ..EnumConfig::default()
        };
        let ops = vec![write(0, 0, vec![9; 8])];
        let mut images = 0;
        let mut torn = false;
        let stats = enumerate(ops, &cfg, |_, mask, _, imgs| {
            images += 1;
            let img = &imgs[0].1;
            if mask.iter().any(|&k| k) && mask.iter().any(|&k| !k) {
                torn = true;
                // A torn image is a sector-boundary mix of old and new.
                for (i, chunk) in img.chunks(2).enumerate() {
                    assert!(chunk == [9, 9] || chunk == [0, 0], "piece {i} mixed");
                }
            }
            true
        });
        // 8 bytes at sector 2 with cap 4 → 4 pieces → 16 subsets.
        assert_eq!(images, 16);
        assert_eq!(stats.images_unique, 16);
        assert!(torn, "partial masks produce torn images");
    }

    #[test]
    fn oversized_points_fall_back_to_sampling() {
        let cfg = EnumConfig {
            sector: 1,
            max_pieces_per_write: 64,
            exhaustive_piece_cap: 4,
            samples_per_point: 8,
            ..EnumConfig::default()
        };
        let ops = vec![write(0, 0, (0..32).map(|i| i as u8 + 1).collect())];
        let mut all_kept = false;
        let mut all_dropped = false;
        let stats = enumerate(ops, &cfg, |_, mask, _, _| {
            all_kept |= mask.iter().all(|&k| k);
            all_dropped |= mask.iter().all(|&k| !k);
            true
        });
        assert!(!stats.exhaustive);
        assert_eq!(stats.sampled_points, 1);
        assert!(all_kept && all_dropped, "worst-case core always sampled");
    }

    #[test]
    fn piece_coarsening_respects_per_write_cap() {
        let cfg = EnumConfig {
            sector: 512,
            max_pieces_per_write: 4,
            ..EnumConfig::default()
        };
        let pending = vec![vec![Pending::Write {
            offset: 0,
            data: vec![0; 8192],
        }]];
        let pieces = split_pieces(&cfg, &pending);
        assert_eq!(pieces.len(), 4);
        assert!(pieces.iter().all(|p| p.len == 2048));
        assert_eq!(pieces.iter().map(|p| p.len).sum::<usize>(), 8192);
    }
}
