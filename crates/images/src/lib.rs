//! # rvm-images — the one source of crash images
//!
//! Between two ordering points a device may make its writes durable in
//! any subset and any order (the model Marathe et al., *Persistent Memory
//! Transactions*, build on); a `sync` is the only ordering point. Every
//! checker that asks "what may a crash leave?" takes its answer from
//! here:
//!
//! * [`enumerate_images`] walks a recorded op-log (each device's durable
//!   base plus the writes, `set_len`s and syncs since) and visits, at
//!   each crash point, every subset of the pending writes' sector pieces
//!   — exhaustively below [`EnumConfig::exhaustive_piece_cap`], else a
//!   deterministic worst-case core plus seeded masks. `rvm-crashmc` runs
//!   it over its traces.
//! * [`crash_images`] does the same for a crashed
//!   [`FaultClock`](rvm_storage::FaultClock): each device as of its last
//!   sync, plus the writes the crash rolled back. Keeping every piece
//!   gives the in-order image, the write that crossed the byte budget cut
//!   at it; keeping none gives the synced one.
//!
//! The crate depends on `rvm-storage` and `rvm-reference` only, so the
//! core's own unit tests can use it.

use std::sync::Arc;

use rvm_storage::{Device, FaultClock, Result};

mod enumerate;

pub use enumerate::{enumerate_images, EnumConfig, EnumStats};

/// Visits the crash images of `devices` after their clock crashed —
/// every one, or `cfg`'s sample — crashing the clock first if it has not.
/// Each image starts from the device's image as of its last successful
/// sync (what the crash rolled it back to) and keeps a subset of the
/// pieces of the writes that were pending on it
/// ([`FaultClock::rolled_back`]). The visitor receives the kept-piece
/// mask and one image per device, keyed by its index in `devices`;
/// returning `false` stops the walk.
pub fn crash_images<F>(
    clock: &FaultClock,
    devices: &[Arc<dyn Device>],
    cfg: &EnumConfig,
    mut visit: F,
) -> Result<EnumStats>
where
    F: FnMut(&[bool], &[(u32, Vec<u8>)]) -> bool,
{
    clock.crash_now();
    let mut bases = Vec::with_capacity(devices.len());
    for dev in devices {
        let mut image = vec![0; dev.len()? as usize];
        dev.read_at(0, &mut image)?;
        bases.push(image);
    }
    let ops = clock.rolled_back(devices);
    let stats = enumerate_images(bases, &ops, cfg, |_, kept, _, images| visit(kept, images));
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use rvm_storage::{xorshift64, CrashPlan, FaultDevice, MemDevice, TraceOp, TraceOpKind};

    use super::*;

    /// Crashes one 16-byte device by `plan` after `writes` (a `None` is a
    /// sync), and returns its images as `(mask, image)`.
    fn images_after(
        plan: CrashPlan,
        writes: &[Option<(u64, &[u8])>],
        cfg: &EnumConfig,
    ) -> Vec<(Vec<bool>, Vec<u8>)> {
        let inner = Arc::new(MemDevice::with_len(16));
        let dev = FaultDevice::new(inner.clone(), plan);
        for write in writes {
            let done = match write {
                Some((offset, data)) => dev.write_at(*offset, data),
                None => dev.sync(),
            };
            if done.is_err() {
                break;
            }
        }
        let mut seen = Vec::new();
        crash_images(
            &dev.clock(),
            &[inner as Arc<dyn Device>],
            cfg,
            |kept, images| {
                seen.push((kept.to_vec(), images[0].1.clone()));
                true
            },
        )
        .unwrap();
        seen
    }

    fn image_kept(seen: &[(Vec<bool>, Vec<u8>)], kept: &[bool]) -> Vec<u8> {
        let found = seen.iter().find(|(mask, _)| mask == kept);
        found.expect("the mask was enumerated").1.clone()
    }

    #[test]
    fn images_run_from_the_synced_image_to_the_in_order_one() {
        // A synced write, an unsynced one, and one cut at the 14-byte
        // budget: 4 + 4 + 6 of its 8 bytes.
        let writes: &[Option<(u64, &[u8])>] = &[
            Some((0, &[1; 4])),
            None,
            Some((4, &[2; 4])),
            Some((8, &[3; 8])),
        ];
        let seen = images_after(
            CrashPlan::lose_unsynced_at(14),
            writes,
            &EnumConfig::default(),
        );
        assert_eq!(seen.len(), 4, "two one-piece writes pending");
        let mut in_order = vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 0, 0];
        assert_eq!(image_kept(&seen, &[true, true]), in_order);
        in_order[4..].fill(0);
        assert_eq!(
            image_kept(&seen, &[false, false]),
            in_order,
            "the synced image"
        );
        assert!(seen.iter().all(|(_, image)| image[..4] == [1; 4]));
    }

    #[test]
    fn a_crossing_write_tears_on_a_sector_boundary() {
        // The 12-byte write crosses the 10-byte budget: 10 bytes pend, in
        // 4-byte pieces, so its two whole leading sectors may persist
        // without the rest.
        let cfg = EnumConfig {
            sector: 4,
            ..EnumConfig::default()
        };
        let seen = images_after(
            CrashPlan::lose_unsynced_at(10),
            &[Some((0, &[7; 12]))],
            &cfg,
        );
        assert_eq!(seen.len(), 8, "pieces of 4, 4 and 2 bytes");
        let mut torn = vec![7; 8];
        torn.resize(16, 0);
        assert_eq!(image_kept(&seen, &[true, true, false]), torn);
    }

    #[test]
    fn a_later_write_survives_an_earlier_one_dropped() {
        let writes: &[Option<(u64, &[u8])>] = &[Some((0, &[1; 4])), Some((8, &[2; 4]))];
        let seen = images_after(
            CrashPlan::lose_unsynced_at(u64::MAX),
            writes,
            &EnumConfig::default(),
        );
        let mut later_only = vec![0; 16];
        later_only[8..12].fill(2);
        assert_eq!(image_kept(&seen, &[false, true]), later_only);
    }

    #[test]
    fn set_len_applies_in_order() {
        let op = |kind| TraceOp { device: 0, kind };
        let ops = [
            op(TraceOpKind::SetLen { len: 16 }),
            op(TraceOpKind::Write {
                offset: 12,
                data: vec![7; 4],
            }),
            op(TraceOpKind::SetLen { len: 14 }),
        ];
        let mut lens = Vec::new();
        enumerate_images(
            vec![vec![9; 8]],
            &ops,
            &EnumConfig::default(),
            |_, _, _, images| {
                lens.push(images[0].1.len());
                assert_eq!(images[0].1[..8], [9; 8]);
                true
            },
        );
        assert_eq!(
            lens,
            [14, 14],
            "the write, kept or not, is cut by the later set_len"
        );
    }

    #[test]
    fn the_same_seed_takes_the_same_sample() {
        let ops = [TraceOp {
            device: 0,
            kind: TraceOpKind::Write {
                offset: 0,
                data: (1..=32).collect(),
            },
        }];
        let sample = |seed| {
            let cfg = EnumConfig {
                sector: 1,
                max_pieces_per_write: 32,
                exhaustive_piece_cap: 4,
                samples_per_point: 8,
                seed,
                ..EnumConfig::default()
            };
            let mut masks = Vec::new();
            let base = vec![vec![0; 32]];
            let stats = enumerate_images(base, &ops, &cfg, |_, kept, _, _| {
                masks.push(kept.to_vec());
                true
            });
            assert!(!stats.exhaustive);
            masks
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    /// The samples' generator, `rvm_storage::xorshift64`.
    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..16 {
            let x = xorshift64(&mut a);
            assert_eq!(x, xorshift64(&mut b));
            assert_ne!(x, 0);
        }
        let mut z = 0;
        assert_ne!(xorshift64(&mut z), 0, "zero seed is remapped");
    }
}
