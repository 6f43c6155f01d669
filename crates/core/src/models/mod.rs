//! Exhaustive interleaving checks of the concurrency protocols, run
//! over the real code.
//!
//! Every lock, condvar, atomic and clock reading of the core goes through
//! `crate::sync`, which in a test build names the wrappers in [`sync`].
//! [`explore::Explorer`] runs real threads over a fresh `Rvm` one at a
//! time, in every schedule partial-order reduction keeps within the
//! preemption bound — 3, or 2 for three threads — and reports a deadlock
//! (a lost wakeup), a panic, a replay that left its recorded prefix, or
//! the oracle's complaint, with the schedule that led there. The oracle
//! (`scenarios`) is the library's promise: nothing failed that should
//! not have, memory holds what was committed, and after a crash that
//! loses every unsynced write, recovery shows each thread a prefix of its
//! commits that holds every one it was told is durable.
//!
//! The commit plane's scenarios are `group_model`'s, the truncation
//! plane's `epoch_model`'s. Six seeded mutants must each be convicted:
//! four [`MutationHooks`](crate::options::MutationHooks) switches at their
//! real sites, and the explorer's `split_wait`.

pub mod explore;
#[cfg(test)]
mod scenarios;
pub mod sync;

#[cfg(test)]
mod group_model {
    mod tests {
        use crate::models::scenarios::*;

        const BATON: [fn(&World); 2] = [flush_commit, lazy_then_flush];
        const FOLLOWER: [fn(&World); 2] = [flush_commit, redirty];

        #[test]
        fn rollback_never_destroys_interleaved_records() {
            safe(setup(0, Twist::FailingSync), &FOLLOWER);
        }

        #[test]
        fn releasing_the_core_lock_with_a_batch_open_is_caught() {
            let mutant = setup(3, Twist::None).hooked(|h| h.release_core_with_batch_open = true);
            convicted(mutant, &[lazy_then_full, truncate], "boundary");
        }

        #[test]
        fn successful_batches_are_safe_in_every_interleaving() {
            safe(setup(0, Twist::None), &FOLLOWER);
        }

        #[test]
        fn baton_handoff_never_strands_a_committer() {
            safe(setup(0, Twist::CrashAtBarrier), &BATON);
            safe(setup(0, Twist::Wait), &BATON);
        }

        #[test]
        fn non_atomic_wait_loses_a_wakeup() {
            convicted(setup(0, Twist::SplitWait), &BATON, "deadlock");
        }

        #[test]
        fn barrier_that_ignores_the_leader_acknowledges_an_unlogged_record() {
            let mutant =
                setup(0, Twist::CrashAtBarrier).hooked(|h| h.barrier_ignores_leader = true);
            convicted(mutant, &BATON, "recovered");
        }

        /// Each thread's second transaction reuses the `TxnScratch` its
        /// first got back, from a leader through its queue slot if it
        /// followed.
        #[test]
        fn a_returned_scratch_carries_the_next_transaction() {
            safe(setup(0, Twist::None), &[flush_twice, flush_twice_more]);
        }

        #[test]
        fn a_follower_and_a_baton_beside_a_leader_are_safe() {
            let mut three = setup(0, Twist::None);
            three.bound = 2;
            safe(three, &[flush_commit, redirty, lazy_then_flush]);
        }
    }
}

#[cfg(test)]
mod epoch_model {
    mod tests {
        use crate::models::scenarios::*;
        use crate::CommitMode;

        const LOG_FULL: [fn(&World); 2] = [lazy_then_full, truncate];
        const REDIRTY: [fn(&World); 2] = [step, redirty];

        #[test]
        fn epoch_handshake_has_no_lost_wakeup() {
            safe(setup(3, Twist::None), &LOG_FULL);
        }

        #[test]
        fn non_atomic_wait_deadlocks_and_is_caught() {
            convicted(setup(3, Twist::SplitWait), &LOG_FULL, "deadlock");
        }

        #[test]
        fn step_commit_map_and_epoch_share_the_slot_safely() {
            safe(setup(1, Twist::None), &REDIRTY);
            safe(setup(1, Twist::None), &[step, truncate]);
        }

        #[test]
        fn clearing_dirty_on_a_requeued_page_is_caught() {
            let mutant = setup(1, Twist::None).hooked(|h| h.clear_dirty_on_requeued = true);
            convicted(mutant, &REDIRTY, "not dirty");
        }

        #[test]
        fn a_head_past_a_requeued_descriptor_is_caught() {
            let mutant = setup(1, Twist::None).hooked(|h| h.head_past_requeued = true);
            convicted(mutant, &REDIRTY, "recovered");
        }

        /// A lazy commit whose region is unmapped before a flush drains
        /// it, and the same region unmapped (written back) and mapped
        /// again beside a step: the remap racing a step.
        #[test]
        fn unmapping_keeps_every_spooled_commit() {
            safe(setup(0, Twist::None), &[lazy_then_unmap, flush_then_commit]);
            safe(setup(1, Twist::None), &[lazy_then_remap, step]);
        }

        #[test]
        fn a_step_between_a_commit_and_truncate_is_safe() {
            let mut three = setup(1, Twist::None);
            three.bound = 2;
            safe(three, &[step, redirty, truncate]);
        }

        /// A transaction's first `set_range` on a region and the region's
        /// `unmap`: the one is counted before the other looks, or fails.
        #[test]
        fn a_commit_racing_its_regions_unmap_survives_or_is_refused() {
            let commit: fn(&World) = |w| w.commit(UNMAPPED, 1, CommitMode::Flush);
            safe(
                setup(0, Twist::RacingUnmap),
                &[commit, |w| w.unmap(UNMAPPED)],
            );
        }

        /// The seam of the lost lazy commit (EXPERIMENTS.md E24): a drain
        /// after the region's `unmap`, and a step behind it.
        #[test]
        fn unmapping_between_a_flush_and_a_step_keeps_every_commit() {
            let mut three = setup(1, Twist::None);
            three.bound = 2;
            safe(three, &[lazy_then_unmap, flush_then_commit, step]);
        }
    }
}
