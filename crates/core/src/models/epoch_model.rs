//! Interleaving model of the one epoch-truncation protocol and the
//! `epoch_done` condvar + `wait_generation` handshake around it
//! (`truncation::epoch`: `epoch_truncate`, `make_log_space`,
//! `truncate_now`).
//!
//! Threads: one explicit truncator (`truncate_now`: wait out an epoch in
//! flight, then run one) and two committers appending into a log with no
//! free space, each through `make_log_space`. A committer that finds an
//! epoch in flight waits on `epoch_done` (releasing the core lock); one
//! that finds none *becomes* the truncator — freeze under the lock,
//! apply with the lock released, reacquire to complete and wake everyone
//! — so the other committer may arrive during its apply. Either way the
//! committer bumps `wait_generation` before it looks at the log again.
//!
//! Checked properties:
//!
//! * **No lost wakeup** — every schedule terminates; the explorer reports
//!   any state where a thread is parked and nothing can wake it.
//!   `notify_all` (not `notify_one`) matters here: several threads can be
//!   parked when an epoch completes.
//! * **One owner** — an epoch is frozen only while none is in flight, so
//!   no two threads ever race to move the head.
//! * **Generation discipline** — a committer that released the core lock
//!   (parked, or ran the epoch itself) must bump `wait_generation`
//!   *before* it re-derives any state from the lock (the flush-batch
//!   rollback guard depends on this).
//! * The model's own power is demonstrated by two mutations the explorer
//!   must catch: a non-atomic wait (release-then-park ⇒ deadlock) and a
//!   skipped generation bump (⇒ invariant violation).

use super::explore::Model;

const DONE: u8 = 99;
/// Wait-set bit of the explicit truncator (committers are bits 0 and 1).
const TRUNCATOR: u8 = 1 << 2;

/// See the [module docs](self).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EpochModel {
    /// Model mutation: `false` splits a committer's condvar wait into
    /// release-then-park, losing wakeups that land in between.
    pub atomic_wait: bool,
    /// Model mutation: `true` skips the `wait_generation` bump after
    /// `make_log_space` released the lock, the omission that would
    /// silently re-enable unsafe batch rollbacks.
    pub skip_gen_bump: bool,

    lock: Option<u8>,
    /// An epoch is in flight (`core.epoch.is_some()`).
    epoch: bool,
    /// A freeze found an epoch already in flight: two owners.
    double_owner: bool,
    /// Whether the log has room to append (starts false: log full).
    space: bool,
    wait_gen: u8,
    /// Bitmask of threads parked on `epoch_done`.
    waiters: u8,

    trunc_pc: u8,
    com_pc: [u8; 2],
    /// Per committer: it released the lock since it last looked at the
    /// log.
    released: [bool; 2],
    /// Per committer: it bumped `wait_gen` after its latest release.
    bumped: [bool; 2],
    /// Per committer: it appended while `released && !bumped` — the
    /// generation-discipline violation.
    bad_append: [bool; 2],
}

impl EpochModel {
    pub fn new(atomic_wait: bool, skip_gen_bump: bool) -> Self {
        EpochModel {
            atomic_wait,
            skip_gen_bump,
            lock: None,
            epoch: false,
            double_owner: false,
            space: false,
            wait_gen: 0,
            waiters: 0,
            trunc_pc: 0,
            com_pc: [0; 2],
            released: [false; 2],
            bumped: [false; 2],
            bad_append: [false; 2],
        }
    }

    /// Phase 1, under the lock: the stable span becomes the epoch.
    fn freeze(&mut self) {
        self.double_owner |= self.epoch;
        self.epoch = true;
    }

    /// Phase 3, under the lock: advance the head, free the span, wake
    /// every waiter (`notify_all`).
    fn complete(&mut self) {
        self.space = true;
        self.epoch = false;
        for j in 0..2usize {
            if self.waiters & (1 << j) != 0 {
                self.com_pc[j] = 4;
            }
        }
        if self.waiters & TRUNCATOR != 0 {
            self.trunc_pc = 0;
        }
        self.waiters = 0;
    }

    /// `truncate_now`.
    fn step_truncator(&mut self) {
        match self.trunc_pc {
            0 => {
                self.lock = Some(0);
                self.trunc_pc = 1;
            }
            1 => {
                if self.epoch {
                    // Wait the epoch in flight out (atomic release+park),
                    // then look again.
                    self.waiters |= TRUNCATOR;
                    self.lock = None;
                    self.trunc_pc = 7;
                } else if self.space {
                    // A committer already truncated: nothing is live.
                    self.lock = None;
                    self.trunc_pc = DONE;
                } else {
                    self.freeze();
                    self.trunc_pc = 2;
                }
            }
            2 => {
                self.lock = None;
                self.trunc_pc = 3;
            }
            3 => {
                // Phase 2: apply the frozen span off-lock.
                self.trunc_pc = 4;
            }
            4 => {
                self.lock = Some(0);
                self.trunc_pc = 5;
            }
            5 => {
                self.complete();
                self.trunc_pc = 6;
            }
            6 => {
                self.lock = None;
                self.trunc_pc = DONE;
            }
            _ => unreachable!("truncator stepped while blocked"),
        }
    }

    /// A committer: append, through `make_log_space` while it does not
    /// fit.
    fn step_committer(&mut self, i: usize) {
        let t = (i + 1) as u8;
        match self.com_pc[i] {
            0 => {
                self.lock = Some(t);
                self.com_pc[i] = 1;
            }
            1 => {
                if self.space {
                    if self.released[i] && !self.bumped[i] {
                        self.bad_append[i] = true;
                    }
                    self.lock = None;
                    self.com_pc[i] = DONE;
                    return;
                }
                // `make_log_space`: whichever branch runs releases the
                // lock.
                self.released[i] = true;
                self.bumped[i] = false;
                if !self.epoch {
                    // No epoch in flight: this committer runs it.
                    self.freeze();
                    self.com_pc[i] = 5;
                } else if self.atomic_wait {
                    self.waiters |= 1 << i;
                    self.lock = None;
                    self.com_pc[i] = 2;
                } else {
                    self.lock = None;
                    self.com_pc[i] = 3;
                }
            }
            3 => {
                // Buggy non-atomic wait: park after releasing the lock; a
                // notify that fired in between is lost.
                self.waiters |= 1 << i;
                self.com_pc[i] = 2;
            }
            4 => {
                // Woken: reacquire the lock, bump the generation.
                self.lock = Some(t);
                self.bump(i);
                self.com_pc[i] = 1;
            }
            5 => {
                self.lock = None;
                self.com_pc[i] = 6;
            }
            6 => {
                // Phase 2, this committer's own: the other one may arrive
                // (and park) meanwhile.
                self.com_pc[i] = 7;
            }
            7 => {
                self.lock = Some(t);
                self.com_pc[i] = 8;
            }
            8 => {
                self.complete();
                self.bump(i);
                self.com_pc[i] = 1;
            }
            _ => unreachable!("committer stepped while parked"),
        }
    }

    /// `make_log_space`'s one `wait_generation` bump.
    fn bump(&mut self, i: usize) {
        if !self.skip_gen_bump {
            self.wait_gen = self.wait_gen.wrapping_add(1);
            self.bumped[i] = true;
        }
    }
}

impl Model for EpochModel {
    fn threads(&self) -> usize {
        3
    }

    fn runnable(&self, t: usize) -> bool {
        if t == 0 {
            return match self.trunc_pc {
                DONE | 7 => false,
                0 | 4 => self.lock.is_none(),
                3 => true,
                _ => self.lock == Some(0),
            };
        }
        let i = t - 1;
        match self.com_pc[i] {
            DONE | 2 => false,
            0 | 4 | 7 => self.lock.is_none(),
            3 | 6 => true,
            _ => self.lock == Some((i + 1) as u8),
        }
    }

    fn finished(&self, t: usize) -> bool {
        if t == 0 {
            self.trunc_pc == DONE
        } else {
            self.com_pc[t - 1] == DONE
        }
    }

    fn step(&mut self, t: usize) {
        if t == 0 {
            self.step_truncator();
        } else {
            self.step_committer(t - 1);
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.double_owner {
            return Err("an epoch was frozen while another was in flight".into());
        }
        for i in 0..2 {
            if self.bad_append[i] {
                return Err(format!(
                    "committer {i} re-derived core state after releasing the lock without bumping wait_generation"
                ));
            }
        }
        let all_done = self.trunc_pc == DONE && self.com_pc.iter().all(|&pc| pc == DONE);
        if all_done {
            if self.epoch {
                return Err("epoch still in flight past termination".into());
            }
            if self.waiters != 0 {
                return Err("waiter bitmask leaked past termination".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::explore::explore;

    #[test]
    fn epoch_handshake_has_no_lost_wakeup() {
        let report = explore(EpochModel::new(true, false), 2_000_000);
        assert!(report.complete, "state space fully covered");
        assert!(
            report.violation.is_none(),
            "every schedule terminates with the generation discipline intact: {:?}",
            report.violation
        );
        assert!(report.states > 50, "nontrivial state space");
    }

    #[test]
    fn non_atomic_wait_deadlocks_and_is_caught() {
        let report = explore(EpochModel::new(false, false), 2_000_000);
        let (msg, schedule) = report
            .violation
            .expect("release-then-park must lose a wakeup in some schedule");
        assert!(msg.contains("deadlock"), "unexpected violation: {msg}");
        assert!(!schedule.is_empty());
    }

    #[test]
    fn skipped_generation_bump_is_caught() {
        let report = explore(EpochModel::new(true, true), 2_000_000);
        let (msg, _) = report
            .violation
            .expect("a skipped wait_generation bump must be flagged");
        assert!(
            msg.contains("wait_generation"),
            "unexpected violation: {msg}"
        );
    }
}
