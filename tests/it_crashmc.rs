//! Crash-state model checking, end to end (`rvm-crashmc`).
//!
//! These tests run real RVM workloads against traced in-memory devices,
//! enumerate every crash image the sector-granular disk model permits,
//! recover each image with the real recovery path, and assert the
//! committed-prefix invariant. They also prove the checker has teeth:
//! a seeded mutation that skips a flush batch's log force must be
//! convicted as a durability violation.

use proptest::prelude::*;
use rvm::MutationHooks;
use rvm_crashmc::oracle::{check_recovery_determinism, parts_from_images};
use rvm_crashmc::workload::{run_workload, Workload};
use rvm_crashmc::{check_trace, check_trace_with_rot, Report};
use rvm_images::{enumerate_images, EnumConfig};

fn checked(label: &str, workload: Workload) -> Report {
    let trace = run_workload(workload, MutationHooks::default());
    let report = check_trace(&trace, &EnumConfig::default());
    assert!(report.is_clean(), "{label}:\n{}", report.render());
    report
}

/// Checks a commit workload *exhaustively* over more than 1000 distinct
/// crash states, with zero violations.
///
/// A staged batch reaches the log as one coalesced write, so at the
/// default 512-byte sector a crash point offers few torn-write pieces;
/// the commit workloads enumerate at 128-byte sectors, `pieces` per
/// write, to keep the per-point image space large while staying
/// exhaustive. Batch formation depends on thread timing, so a poorly
/// batched run (every commit forced solo) is retried — but a violation
/// on any attempt is an immediate failure.
fn commit_workload_is_exhaustive_and_clean(label: &str, workload: Workload, pieces: usize) {
    let cfg = EnumConfig {
        sector: 128,
        max_pieces_per_write: pieces,
        ..EnumConfig::default()
    };
    let mut last = None;
    for _ in 0..4 {
        let trace = run_workload(workload, MutationHooks::default());
        let report = check_trace(&trace, &cfg);
        assert!(report.is_clean(), "{label}:\n{}", report.render());
        if report.exhaustive && report.images_unique > 1000 {
            return;
        }
        last = Some(report);
    }
    panic!(
        "{label} never batched well enough for a large exhaustive state space:\n{}",
        last.unwrap().render()
    );
}

/// Every leader drains the whole queue, then writes, forces and
/// completes its batch. One write is pending per crash point (three
/// well-batched rounds in all), so it is cut finer than the capped
/// batches below.
#[test]
fn group_commit_state_space_is_exhaustive_and_clean() {
    commit_workload_is_exhaustive_and_clean("group commit", Workload::GroupCommit, 10);
}

/// Capped batches: a batch cap below the committer count serves queued
/// committers in successive rounds, so the enumerated crash images
/// include every state between batch A's force and batch B's. Recovery
/// must stop at the committed prefix in all of them.
#[test]
fn pipelined_commits_survive_every_crash_image() {
    commit_workload_is_exhaustive_and_clean("pipelined commits", Workload::ConsecutiveBatches, 8);
}

/// A dense log packs records back to back, so a record's write can begin
/// inside a sector that already holds an acknowledged record. Tearing a
/// write only within the bytes it covers, the enumerator reaches such
/// points at the 512-byte and at the 128-byte sector, exhaustively, and
/// every image recovers to a committed prefix.
#[test]
fn records_sharing_a_sector_survive_every_crash_image() {
    let trace = run_workload(Workload::BitRot, MutationHooks::default());
    for sector in [512, 128] {
        let shared = trace.shared_sector_points(sector as u64);
        assert!(shared > 0, "no crash point shares a {sector}-byte sector");
        let cfg = EnumConfig {
            sector,
            ..EnumConfig::default()
        };
        let report = check_trace(&trace, &cfg);
        assert!(report.is_clean(), "sector {sector}:\n{}", report.render());
        assert!(report.exhaustive, "sector {sector}:\n{}", report.render());
    }
}

#[test]
fn truncation_epochs_survive_every_crash_image() {
    let report = checked("truncation", Workload::Truncation);
    assert!(report.exhaustive, "{}", report.render());
    assert!(report.images_unique > 100, "{}", report.render());
}

/// Incremental truncation writes pages straight from VM: every crash
/// image between a step's page writes, its catalog persist and its status
/// write — and inside the epoch a blocked step reverts to — recovers to a
/// committed prefix, with nothing of the long-running transaction in it
/// before its commit.
#[test]
fn incremental_write_back_survives_every_crash_image() {
    let report = checked("incremental", Workload::Incremental);
    assert!(report.exhaustive, "{}", report.render());
    // A step rewrites whole pages that differ from the segment in a cell
    // or two, so most ways of tearing one leave the same image.
    assert!(report.images_unique > 50, "{}", report.render());
}

#[test]
fn no_flush_spool_crashes_lose_only_unacked_work() {
    let report = checked("no-flush spool", Workload::NoFlushSpool);
    assert!(report.exhaustive, "{}", report.render());
    // Its epochs write each touched page whole, once (88 distinct images;
    // 100-odd while they wrote the records' ranges one by one): as with
    // a step's pages, most ways of tearing one leave the same image.
    assert!(report.images_unique > 50, "{}", report.render());
}

/// Lazy commits on the default tuning that rewrite cells: whatever the
/// spool discards, every crash image — a torn drain, a drain split by a
/// log-full batch close, a lost tail — recovers to a commit prefix.
#[test]
fn subsuming_lazy_commits_recover_a_commit_prefix() {
    let cfg = EnumConfig {
        sector: 128,
        max_pieces_per_write: 8,
        ..EnumConfig::default()
    };
    let trace = run_workload(Workload::Subsumption, MutationHooks::default());
    let report = check_trace(&trace, &cfg);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.exhaustive, "{}", report.render());
    assert!(report.images_unique > 500, "{}", report.render());
}

/// A region leaves VM current on its segment: whatever a crash keeps of
/// an unmap's write-back, of a sibling's and the remapped region's
/// commits, and of the step that writes the remapped page from VM,
/// recovery shows a commit prefix.
#[test]
fn unmap_and_remap_survive_every_crash_image() {
    let cfg = EnumConfig {
        sector: 128,
        ..EnumConfig::default()
    };
    let trace = run_workload(Workload::Unmap, MutationHooks::default());
    let report = check_trace(&trace, &cfg);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.exhaustive, "{}", report.render());
}

#[test]
fn aborted_transactions_never_surface_in_any_crash_image() {
    let report = checked("abort mix", Workload::AbortMix);
    assert!(report.exhaustive, "{}", report.render());
}

/// The checker must have teeth: skipping a batch's log force (a seeded
/// mutation in the real commit path) acknowledges transactions whose
/// records were never forced, and some crash image must expose that as a
/// durability violation — whether the leader drains the queue
/// (`GroupCommit`) or leaves committers for later rounds
/// (`ConsecutiveBatches`), and also when the batch is a spool drain
/// (`NoFlushSpool`): there is
/// one log writer, so the spool's force *is* the group force, and no
/// private force of the drain's hides the mutation.
#[test]
fn model_checker_catches_a_skipped_group_force() {
    let hooks = MutationHooks {
        skip_group_force: true,
        ..MutationHooks::default()
    };
    // Every one is a lost acknowledged commit: the reference finds a
    // thread's cells holding a prefix that stops short of a durable one.
    for workload in [
        Workload::GroupCommit,
        Workload::ConsecutiveBatches,
        Workload::NoFlushSpool,
    ] {
        let trace = run_workload(workload, hooks);
        let report = check_trace(&trace, &EnumConfig::default());
        assert!(
            !report.is_clean(),
            "skip_group_force mutation went undetected on {workload:?}:\n{}",
            report.render()
        );
        let detail = &report.violations[0].detail;
        assert!(
            detail.contains("Lost"),
            "unexpected violation shape on {workload:?}: {detail}"
        );
    }
}

/// Media-failure satellite: the bit-rot workload never truncates, so
/// every committed byte stays covered by the live log span. The checker
/// flips one byte of committed segment data — plus one byte of each
/// checksum-catalog sidecar — in every enumerated crash image; recovery
/// must heal the rot (committed-prefix oracle), and afterwards the
/// persisted catalog must match the recovered bytes, so recovery and
/// scrub converge on the same image.
#[test]
fn recovery_and_scrub_converge_on_bit_rotted_crash_images() {
    let trace = run_workload(Workload::BitRot, MutationHooks::default());
    let report = check_trace_with_rot(&trace, &EnumConfig::default());
    assert!(report.exhaustive, "{}", report.render());
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.images_unique > 10, "{}", report.render());
}

/// Satellite: recovery determinism. Recovering the same crash image
/// twice yields byte-identical segments and log, and a recovery that
/// itself crashes partway (then recovers again) converges to the same
/// state. Checked over real crash images produced by the enumerator.
#[test]
fn recovery_is_deterministic_across_repeated_and_interrupted_runs() {
    let trace = run_workload(Workload::Truncation, MutationHooks::default());
    let cfg = EnumConfig::default();
    let mut picked = Vec::new();
    let mut count = 0u64;
    let bases = trace.devices.iter().map(|d| d.image.clone()).collect();
    enumerate_images(bases, &trace.ops, &cfg, |point, _, _, images| {
        if count.is_multiple_of(31) && picked.len() < 8 {
            picked.push((point, images.to_vec()));
        }
        count += 1;
        true
    });
    assert!(picked.len() >= 4, "expected several crash images to test");
    for (point, images) in &picked {
        let parts = parts_from_images(&trace, images);
        check_recovery_determinism(&parts, &[1, 4, 9])
            .unwrap_or_else(|e| panic!("crash image at op {point}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Randomized workloads (mixed flush/no-flush commits, aborts,
    /// explicit flushes, truncations) stay crash-consistent under a
    /// slightly reduced per-point enumeration budget.
    #[test]
    fn seeded_workloads_have_no_crash_consistency_violations(seed in 1u64..200) {
        let trace = run_workload(Workload::Seeded(seed), MutationHooks::default());
        let cfg = EnumConfig {
            exhaustive_piece_cap: 8,
            samples_per_point: 16,
            ..EnumConfig::default()
        };
        let report = check_trace(&trace, &cfg);
        prop_assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
    }
}
