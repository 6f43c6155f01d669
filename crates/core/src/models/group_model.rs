//! Interleaving models of the commit plane.
//!
//! Two models, two halves of the protocol:
//!
//! * [`GroupModel`] — the leader's *batch* half: a fill that, when a
//!   member does not fit, closes the batch staged so far, releases the
//!   core lock to wait out an epoch truncation, and resumes in a new
//!   batch at a fresh checkpoint; the force and completion under the
//!   lock the batch opened under; and the rollback on force failure. The
//!   property at stake is that a rollback never destroys records appended
//!   by another thread.
//! * [`BatonModel`] — the waiter's *queue* half: a flush committer and a
//!   lazy committer that spools its record and then raises a barrier;
//!   each waiter takes its outcome, waits on the queue condvar or takes
//!   the leadership baton; the leader pops the spool, settles every
//!   queued slot and hands off. The properties at stake are that every
//!   waiter observes exactly one outcome — no lost wakeup, no slot
//!   stranded, nothing published twice — and that the barrier never
//!   returns before the record spooled ahead of it is in the log.

use super::explore::Model;

const DONE: u8 = 99;

/// Leader / truncator / successor model of the batch-rollback protocol.
///
/// Threads:
/// * **0 — leader**: under the core lock, opens a batch (checkpoint) and
///   stages members A and B. A member staged while an epoch is in flight
///   "does not fit right now": the leader closes the batch staged so far
///   — written, forced and completed — waits on `truncation_done`
///   (releasing the lock) and resumes the fill in a new batch at a fresh
///   checkpoint. The last batch is written, forced and completed — on a
///   failed force, rolled back to its checkpoint — before the lock is
///   released.
/// * **1 — truncator**: the three-phase epoch truncation — snapshot
///   under the lock, apply off-lock, complete under the lock and
///   `notify_all`.
/// * **2 — successor**: the next leader, whose (small) round appends
///   without waiting and forces immediately — the thread whose record a
///   bad rollback would destroy.
///
/// The leader's stages wait whenever an epoch is in flight (modeling
/// "does not fit until the frozen span is freed"); the successor's single
/// record always fits. The rollback is unconditional, which is sound only
/// because no batch stays open across a release of the lock: the
/// mutation that releases it with the batch still open lets the
/// successor append past the checkpoint.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct GroupModel {
    /// Model mutation: `false` releases the core lock for the epoch wait
    /// with the batch still open, the bug the explorer must exhibit.
    pub close_before_release: bool,
    /// Whether the leader's last force fails (exercising the rollback
    /// path).
    pub force_fails: bool,

    lock: Option<u8>,
    epoch: bool,
    /// Appended records, in log order, by owner thread id.
    log: Vec<u8>,
    /// Length of the durable (forced) log prefix.
    forced: u8,
    /// Bitmask of threads waiting on `truncation_done`.
    epoch_waiters: u8,

    leader_pc: u8,
    /// Members staged so far, over all of the round's batches.
    staged: u8,
    ckpt_len: u8,
    leader_outcome: Option<bool>,
    rollbacks: u8,

    trunc_pc: u8,

    succ_pc: u8,
    successor_forced: bool,
}

impl GroupModel {
    pub fn new(close_before_release: bool, force_fails: bool) -> Self {
        GroupModel {
            close_before_release,
            force_fails,
            lock: None,
            epoch: false,
            log: Vec::new(),
            forced: 0,
            epoch_waiters: 0,
            leader_pc: 0,
            staged: 0,
            ckpt_len: 0,
            leader_outcome: None,
            rollbacks: 0,
            trunc_pc: 0,
            succ_pc: 0,
            successor_forced: false,
        }
    }

    fn step_leader(&mut self) {
        match self.leader_pc {
            0 => {
                self.lock = Some(0);
                self.leader_pc = 1;
            }
            1 => {
                // Open a batch: wal.checkpoint().
                self.ckpt_len = self.log.len() as u8;
                self.leader_pc = 2;
            }
            2 if self.epoch => {
                // The next member does not fit until the epoch completes:
                // close the batch staged so far (written, forced and
                // completed), then wait on truncation_done, releasing the
                // lock.
                if self.close_before_release {
                    self.forced = self.log.len() as u8;
                }
                self.epoch_waiters |= 1;
                self.lock = None;
                self.leader_pc = 20;
            }
            2 => {
                self.log.push(0);
                self.staged += 1;
                if self.staged == 2 {
                    self.leader_pc = 4;
                }
            }
            4 => {
                // Close: write and force, under the lock.
                if !self.force_fails {
                    self.forced = self.log.len() as u8;
                }
                self.leader_pc = 5;
            }
            5 => {
                // complete_batch: on failure, roll back to the checkpoint.
                if self.force_fails {
                    self.log.truncate(self.ckpt_len as usize);
                    self.forced = self.forced.min(self.ckpt_len);
                    self.rollbacks += 1;
                }
                self.leader_outcome = Some(!self.force_fails);
                self.lock = None;
                self.leader_pc = DONE;
            }
            // Woken from an epoch wait: reacquire the lock and resume the
            // fill — in a new batch, or (mutated) in the one left open.
            21 => {
                self.lock = Some(0);
                self.leader_pc = if self.close_before_release { 1 } else { 2 };
            }
            _ => unreachable!("leader stepped while blocked"),
        }
    }

    fn step_truncator(&mut self) {
        match self.trunc_pc {
            0 => {
                self.lock = Some(1);
                self.trunc_pc = 1;
            }
            1 => {
                // Phase 1: snapshot the boundary.
                self.epoch = true;
                self.trunc_pc = 2;
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
                self.lock = Some(1);
                self.trunc_pc = 5;
            }
            5 => {
                // Phase 3: advance the head, wake every epoch waiter.
                self.epoch = false;
                if self.epoch_waiters & 1 != 0 && self.leader_pc == 20 {
                    self.leader_pc = 21;
                }
                self.epoch_waiters = 0;
                self.trunc_pc = 6;
            }
            6 => {
                self.lock = None;
                self.trunc_pc = DONE;
            }
            _ => unreachable!("truncator stepped while blocked"),
        }
    }

    fn step_successor(&mut self) {
        match self.succ_pc {
            0 => {
                self.lock = Some(2);
                self.succ_pc = 1;
            }
            1 => {
                self.log.push(2);
                self.succ_pc = 2;
            }
            2 => {
                // A force makes the whole log prefix durable.
                self.forced = self.log.len() as u8;
                self.successor_forced = true;
                self.succ_pc = 3;
            }
            3 => {
                self.lock = None;
                self.succ_pc = DONE;
            }
            _ => unreachable!("flusher stepped while blocked"),
        }
    }
}

impl Model for GroupModel {
    fn threads(&self) -> usize {
        3
    }

    fn runnable(&self, t: usize) -> bool {
        match t {
            0 => match self.leader_pc {
                DONE | 20 => false,            // finished / parked on truncation_done
                0 | 21 => self.lock.is_none(), // acquire steps
                _ => self.lock == Some(0),
            },
            1 => match self.trunc_pc {
                DONE => false,
                0 | 4 => self.lock.is_none(), // phase 1 / phase 3 acquire
                3 => true,                    // the off-lock apply
                _ => self.lock == Some(1),
            },
            _ => match self.succ_pc {
                DONE => false,
                0 => self.lock.is_none(),
                _ => self.lock == Some(2),
            },
        }
    }

    fn finished(&self, t: usize) -> bool {
        match t {
            0 => self.leader_pc == DONE,
            1 => self.trunc_pc == DONE,
            _ => self.succ_pc == DONE,
        }
    }

    fn step(&mut self, t: usize) {
        match t {
            0 => self.step_leader(),
            1 => self.step_truncator(),
            _ => self.step_successor(),
        }
    }

    fn check(&self) -> Result<(), String> {
        if (self.forced as usize) > self.log.len() {
            return Err("durable prefix longer than the log".into());
        }
        if self.rollbacks > 1 {
            return Err("batch rollback ran twice".into());
        }
        if self.successor_forced && !self.log.contains(&2) {
            return Err("rollback destroyed another thread's forced record".into());
        }
        let all_done = self.leader_pc == DONE && self.trunc_pc == DONE && self.succ_pc == DONE;
        if all_done {
            if self.leader_outcome.is_none() {
                return Err("leader finished without publishing an outcome".into());
            }
            if self.epoch || self.epoch_waiters != 0 {
                return Err("epoch state leaked past termination".into());
            }
            if !self.force_fails && self.forced as usize != self.log.len() {
                return Err("successful batch left unforced records".into());
            }
        }
        Ok(())
    }
}

/// Waiter-side model of the leadership baton and follower wakeup.
///
/// Waiter 0 is a flush committer: it enqueues a slot carrying a record.
/// Waiter 1 is a lazy committer: it pushes its record onto the spool —
/// no lock, no slot — and then raises a barrier: under the queue lock it
/// returns at once if no leader is active and the spool is empty, and
/// otherwise enqueues a slot with no record. Both then loop exactly like
/// `flush_commit_enqueue`: take the outcome if published, wait on the
/// queue condvar if a leader is active, otherwise take the baton, run a
/// round (idle a bounded while for company — up to `idle_polls` looks at
/// the queue under its lock, cut short once both waiters are in it —
/// then claim the queue and pop the spool; then log what was popped
/// and publish every claimed slot), release the baton, and notify. The
/// explorer's deadlock detection doubles as the lost-wakeup check: a
/// waiter parked on the condvar after its wakeup already fired can never
/// finish.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BatonModel {
    /// Model mutation: `false` splits the condvar wait into
    /// release-then-park (the classic lost-wakeup bug); `true` parks and
    /// releases atomically, as `Condvar::wait` does.
    pub atomic_wait: bool,
    /// Model mutation: `false` lets the barrier return on an empty spool
    /// alone, without looking at `leader_active` — while a leader may
    /// hold the popped record, not yet logged.
    pub barrier_sees_leader: bool,
    /// How many times a leader looks at the queue, waiting for company,
    /// before it claims (the accumulation step); 0 claims at once.
    pub idle_polls: u8,

    lock: Option<u8>,
    /// Looks the leader of the round in progress has left.
    polls_left: u8,
    queue: Vec<u8>,
    leader_active: bool,
    /// Records in the spool, in the round leader's hands, and in the log.
    spool: u8,
    in_hand: u8,
    logged: u8,
    /// Slots the round in progress claimed.
    claimed: Vec<u8>,
    /// Times each waiter's outcome was published / whether it was taken.
    published: [u8; 2],
    outcome_taken: [bool; 2],
    /// Bitmask of waiters parked on the queue condvar.
    waiters: u8,
    pc: [u8; 2],
}

impl BatonModel {
    pub fn new(atomic_wait: bool, barrier_sees_leader: bool, idle_polls: u8) -> Self {
        BatonModel {
            atomic_wait,
            barrier_sees_leader,
            idle_polls,
            lock: None,
            polls_left: 0,
            queue: Vec::new(),
            leader_active: false,
            spool: 0,
            in_hand: 0,
            logged: 0,
            claimed: Vec::new(),
            published: [0; 2],
            outcome_taken: [false; 2],
            waiters: 0,
            // The lazy committer starts by spooling its record.
            pc: [0, 10],
        }
    }

    fn step_waiter(&mut self, i: usize) {
        match self.pc[i] {
            // The no-flush commit: one spool push, no shared lock.
            10 => {
                self.spool += 1;
                self.pc[i] = 0;
            }
            0 => {
                self.lock = Some(i as u8);
                self.pc[i] = 1;
            }
            1 => {
                let settled = self.spool == 0 && !(self.barrier_sees_leader && self.leader_active);
                if i == 1 && settled {
                    // The barrier's fast return.
                    self.outcome_taken[i] = true;
                    self.pc[i] = DONE;
                } else {
                    self.queue.push(i as u8);
                    self.pc[i] = 2;
                }
                self.lock = None;
            }
            2 => {
                self.lock = Some(i as u8);
                self.pc[i] = 3;
            }
            3 => {
                if self.published[i] > 0 {
                    self.outcome_taken[i] = true;
                    self.lock = None;
                    self.pc[i] = DONE;
                } else if self.leader_active {
                    if self.atomic_wait {
                        // Condvar::wait — park and release in one step.
                        self.waiters |= 1 << i;
                        self.lock = None;
                        self.pc[i] = 4;
                    } else {
                        // Buggy wait: release first, park later; a notify
                        // in between is lost.
                        self.lock = None;
                        self.pc[i] = 5;
                    }
                } else {
                    self.leader_active = true;
                    self.lock = None;
                    self.polls_left = self.idle_polls;
                    self.pc[i] = if self.idle_polls > 0 { 11 } else { 6 };
                }
            }
            11 => {
                // Accumulation: one look at the queue, under its lock
                // (taken and released within the step), then a yield.
                self.polls_left -= 1;
                if self.queue.len() == 2 || self.polls_left == 0 {
                    self.pc[i] = 6;
                }
            }
            5 => {
                self.waiters |= 1 << i;
                self.pc[i] = 4;
            }
            6 => {
                // Leader round, claim: the queued slots, then (under the
                // core lock, which this model leaves out) the spool.
                self.claimed = std::mem::take(&mut self.queue);
                self.in_hand = std::mem::take(&mut self.spool);
                self.pc[i] = 9;
            }
            9 => {
                // Leader round, completion: the popped records reach the
                // log and every claimed slot gets its outcome.
                self.logged += std::mem::take(&mut self.in_hand);
                for j in std::mem::take(&mut self.claimed) {
                    self.published[j as usize] += 1;
                }
                self.pc[i] = 7;
            }
            7 => {
                self.lock = Some(i as u8);
                self.pc[i] = 8;
            }
            8 => {
                self.leader_active = false;
                // notify_all
                for j in 0..2 {
                    if self.waiters & (1 << j) != 0 {
                        self.pc[j] = 2;
                    }
                }
                self.waiters = 0;
                self.lock = None;
                self.pc[i] = 2;
            }
            _ => unreachable!("waiter stepped while parked"),
        }
    }
}

impl Model for BatonModel {
    fn threads(&self) -> usize {
        2
    }

    fn runnable(&self, t: usize) -> bool {
        match self.pc[t] {
            DONE | 4 => false,
            0 | 2 | 7 | 11 => self.lock.is_none(),
            5 | 6 | 9 | 10 => true,
            _ => self.lock == Some(t as u8),
        }
    }

    fn finished(&self, t: usize) -> bool {
        self.pc[t] == DONE
    }

    fn step(&mut self, t: usize) {
        self.step_waiter(t);
    }

    fn check(&self) -> Result<(), String> {
        if self.outcome_taken[0] && self.published[0] == 0 {
            return Err("the committer took an unpublished outcome".into());
        }
        if let Some(i) = self.published.iter().position(|&n| n > 1) {
            return Err(format!("waiter {i}'s outcome was published twice"));
        }
        if self.pc[1] == DONE && self.logged == 0 {
            return Err(
                "the barrier returned before the record spooled ahead of it was logged".into(),
            );
        }
        if self.pc.iter().all(|&pc| pc == DONE) {
            if self.leader_active {
                return Err("leadership baton leaked past termination".into());
            }
            if !self.queue.is_empty() || !self.claimed.is_empty() {
                return Err("slot stranded in the queue".into());
            }
            if !(self.outcome_taken[0] && self.outcome_taken[1]) {
                return Err("a waiter finished without its outcome".into());
            }
            if self.logged != 1 {
                return Err(format!(
                    "the spooled record was logged {} times",
                    self.logged
                ));
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
    fn rollback_never_destroys_interleaved_records() {
        let report = explore(GroupModel::new(true, true), 2_000_000);
        assert!(report.complete, "state space fully covered");
        assert!(
            report.violation.is_none(),
            "the unconditional rollback is safe in every interleaving: {:?}",
            report.violation
        );
        assert!(report.states > 50, "nontrivial state space");
    }

    #[test]
    fn releasing_the_core_lock_with_a_batch_open_is_caught() {
        let report = explore(GroupModel::new(false, true), 2_000_000);
        let (msg, schedule) = report
            .violation
            .expect("a batch open across the epoch wait must lose a forced record");
        assert!(msg.contains("destroyed"), "unexpected violation: {msg}");
        assert!(
            !schedule.is_empty(),
            "violation carries its witness schedule"
        );
    }

    #[test]
    fn successful_batches_are_safe_in_every_interleaving() {
        let report = explore(GroupModel::new(true, false), 2_000_000);
        assert!(report.complete);
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    /// Every conviction holds whether the leader claims at once or
    /// idles before claiming.
    const IDLE_POLLS: [u8; 2] = [0, 2];

    #[test]
    fn baton_handoff_never_strands_a_committer() {
        for idle_polls in IDLE_POLLS {
            let report = explore(BatonModel::new(true, true, idle_polls), 2_000_000);
            assert!(report.complete, "state space fully covered");
            assert!(
                report.violation.is_none(),
                "no lost wakeup, every slot settles once, the barrier holds: {:?}",
                report.violation
            );
            assert!(report.states > 50, "nontrivial state space");
        }
    }

    #[test]
    fn non_atomic_wait_loses_a_wakeup() {
        for idle_polls in IDLE_POLLS {
            let report = explore(BatonModel::new(false, true, idle_polls), 2_000_000);
            let (msg, _) = report
                .violation
                .expect("release-then-park must deadlock in some schedule");
            assert!(msg.contains("deadlock"), "unexpected violation: {msg}");
        }
    }

    #[test]
    fn barrier_that_ignores_the_leader_acknowledges_an_unlogged_record() {
        for idle_polls in IDLE_POLLS {
            let report = explore(BatonModel::new(true, false, idle_polls), 2_000_000);
            let (msg, _) = report
                .violation
                .expect("an empty spool alone does not mean the record is in the log");
            assert!(msg.contains("barrier returned"), "unexpected: {msg}");
        }
    }
}
