//! Interleaving models of the truncation plane: [`EpochModel`], below,
//! and [`StepModel`] — the in-flight slot shared by epochs and
//! incremental steps, with a commit re-dirtying a frozen page.
//!
//! [`EpochModel`] is the one epoch-truncation protocol and the
//! `truncation_done` condvar handshake around it (`truncation::epoch`:
//! `epoch_truncate`, `make_log_space`, `truncate_now`).
//!
//! Threads: one explicit truncator (`truncate_now`: wait out an epoch in
//! flight, then run one) and two committers appending into a log with no
//! free space, each through `make_log_space`. A committer that finds an
//! epoch in flight waits on `truncation_done` (releasing the core lock);
//! one that finds none *becomes* the truncator — freeze under the lock,
//! apply with the lock released, reacquire to complete and wake everyone
//! — so the other committer may arrive during its apply. Either way the
//! committer looks at the log again once it holds the lock.
//!
//! Checked properties:
//!
//! * **No lost wakeup** — every schedule terminates; the explorer reports
//!   any state where a thread is parked and nothing can wake it.
//!   `notify_all` (not `notify_one`) matters here: several threads can be
//!   parked when an epoch completes.
//! * **One owner** — an epoch is frozen only while none is in flight, so
//!   no two threads ever race to move the head.
//! * The model's own power is demonstrated by a mutation the explorer
//!   must catch: a non-atomic wait (release-then-park ⇒ deadlock).

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

    lock: Option<u8>,
    /// An epoch is in flight (`core.truncation.is_some()`).
    epoch: bool,
    /// A freeze found an epoch already in flight: two owners.
    double_owner: bool,
    /// Whether the log has room to append (starts false: log full).
    space: bool,
    /// Bitmask of threads parked on `truncation_done`.
    waiters: u8,

    trunc_pc: u8,
    com_pc: [u8; 2],
}

impl EpochModel {
    pub fn new(atomic_wait: bool) -> Self {
        EpochModel {
            atomic_wait,
            lock: None,
            epoch: false,
            double_owner: false,
            space: false,
            waiters: 0,
            trunc_pc: 0,
            com_pc: [0; 2],
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
                    self.lock = None;
                    self.com_pc[i] = DONE;
                    return;
                }
                // `make_log_space`: whichever branch runs releases the
                // lock.
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
                // Woken: reacquire the lock and look again.
                self.lock = Some(t);
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
                self.com_pc[i] = 1;
            }
            _ => unreachable!("committer stepped while parked"),
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

/// Who holds the in-flight slot in [`StepModel`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Owner {
    Step,
    /// An epoch frozen at this log offset (exclusive).
    Epoch(u8),
}

/// The in-flight slot shared by both mechanisms (`truncation::incremental`
/// beside `truncation::epoch`): an incremental step racing a commit that
/// re-dirties the page it froze, a `map` of the same segment settling
/// through `make_log_space`, and an explicit `truncate()`.
///
/// One page, one segment. Record *i* sits at log offset *i* and carries
/// the page from version *i* to *i + 1*; the log starts with record 0
/// committed, the page dirty and queued at offset 0. The segment holds
/// the page at version `on_segment`: every record below that is applied.
///
/// Threads:
///
/// 0. the **stepper** — a threshold trigger in incremental mode: returns
///    if a truncation is in flight or the page is pinned, else freezes
///    (pops the descriptor, copies the committed image, takes the slot),
///    applies off-lock, and completes (settles the dirty bit, moves the
///    head to the earliest descriptor queued or else to the tail, wakes
///    the waiters);
/// 1. the **committer** — `set_range` on the page (pinning it), a flush
///    commit under the core lock (append, mark dirty, enqueue unless
///    queued), release;
/// 2. the **mapper** — a `map` of another region of the segment: settles
///    through the tail it first sees, each round waiting a truncation in
///    flight out or running an epoch itself, until the head is there;
/// 3. the **truncator** — `truncate_now`: waits the slot free, then runs
///    an epoch over whatever is live.
///
/// Checked at every state:
///
/// * **Nothing is reclaimed unapplied** — `head <= on_segment`: a crash
///   replays from the head, so a record below it must be on the segment.
///   This is what a head that passes a re-enqueued descriptor breaks.
/// * **Queued ⇒ dirty**, and with no truncation in flight **unapplied ⇒
///   queued at or below the first unapplied record** — the page-queue
///   invariant the head's safety rests on.
/// * **One owner** of the slot; **the map loads the committed image**
///   (`on_segment` has reached its settle offset when it finishes); and
///   every schedule terminates (no lost wakeup on `truncation_done`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StepModel {
    /// Mutation: completion clears the dirty bit of a page a commit
    /// re-enqueued during the apply.
    pub clear_dirty_on_requeued: bool,
    /// Mutation: the step's completion moves the head to the stable end
    /// whatever is queued.
    pub head_past_requeued: bool,

    lock: Option<u8>,
    slot: Option<Owner>,
    double_owner: bool,
    head: u8,
    tail: u8,
    on_segment: u8,
    /// Version of the page's committed image in VM (= records committed).
    in_vm: u8,
    dirty: bool,
    /// The page's descriptor: the offset of the first record that
    /// dirtied it since it was last clean.
    queued: Option<u8>,
    /// The committer's `set_range` is outstanding.
    uncommitted: bool,
    /// Bitmask of threads parked on `truncation_done`.
    waiters: u8,
    /// What the step froze: the image's version and the descriptor.
    frozen: Option<(u8, u8)>,
    /// Per epoch runner (mapper, truncator): the descriptor its freeze
    /// drained, if any.
    drained: [Option<u8>; 2],
    /// The offset the mapper settles through, once taken.
    through: Option<u8>,
    stale_map: bool,
    pc: [u8; 4],
}

const T_STEP: usize = 0;
const T_COMMIT: usize = 1;
const T_MAP: usize = 2;
const T_TRUNC: usize = 3;
/// Parked on `truncation_done`.
const PARKED: u8 = 90;

impl StepModel {
    pub fn new(clear_dirty_on_requeued: bool, head_past_requeued: bool) -> Self {
        StepModel {
            clear_dirty_on_requeued,
            head_past_requeued,
            lock: None,
            slot: None,
            double_owner: false,
            head: 0,
            tail: 1,
            on_segment: 0,
            in_vm: 1,
            dirty: true,
            queued: Some(0),
            uncommitted: false,
            waiters: 0,
            frozen: None,
            drained: [None; 2],
            through: None,
            stale_map: false,
            pc: [0; 4],
        }
    }

    fn take_slot(&mut self, owner: Owner) {
        self.double_owner |= self.slot.is_some();
        self.slot = Some(owner);
    }

    /// `end_in_flight` + `truncation_done.notify_all()`: every parked
    /// thread goes back for the lock.
    fn free_slot(&mut self) {
        self.slot = None;
        for t in 0..4 {
            if self.waiters & (1 << t) != 0 {
                self.pc[t] = 0;
            }
        }
        self.waiters = 0;
    }

    /// `settle_drained`: a page taken at the freeze and not re-enqueued
    /// since is clean.
    fn settle(&mut self, drained: Option<u8>) {
        if drained.is_some() && (self.queued.is_none() || self.clear_dirty_on_requeued) {
            self.dirty = false;
        }
    }

    /// `wait(core)`: atomically release the lock and park.
    fn park(&mut self, t: usize) {
        self.waiters |= 1 << t;
        self.lock = None;
        self.pc[t] = PARKED;
    }

    fn step_stepper(&mut self) {
        let t = T_STEP;
        match self.pc[t] {
            0 => {
                self.lock = Some(t as u8);
                self.pc[t] = 1;
            }
            1 => {
                // The trigger's in-flight check, then the freeze.
                let Some(offset) = self.queued.filter(|_| self.slot.is_none()) else {
                    if self.slot.is_none() {
                        // Nothing queued: the head follows the queue.
                        self.head = self.tail;
                    }
                    self.pc[t] = 6;
                    return;
                };
                if self.uncommitted {
                    self.pc[t] = 6; // pinned: blocked at the queue head
                    return;
                }
                self.queued = None;
                self.frozen = Some((self.in_vm, offset));
                self.take_slot(Owner::Step);
                self.pc[t] = 2;
            }
            2 => {
                self.lock = None;
                self.pc[t] = 3;
            }
            3 => {
                // Apply, off-lock: the frozen copy reaches the segment.
                if let Some((version, _)) = self.frozen {
                    self.on_segment = self.on_segment.max(version);
                }
                self.pc[t] = 4;
            }
            4 => {
                self.lock = Some(t as u8);
                self.pc[t] = 5;
            }
            5 => {
                let drained = self.frozen.take().map(|(_, offset)| offset);
                self.settle(drained);
                // `follow_queue`.
                self.head = match self.queued {
                    Some(offset) if !self.head_past_requeued => offset,
                    _ => self.tail,
                };
                self.free_slot();
                self.pc[t] = 6;
            }
            6 => {
                self.lock = None;
                self.pc[t] = DONE;
            }
            _ => unreachable!("stepper stepped while blocked"),
        }
    }

    fn step_committer(&mut self) {
        let t = T_COMMIT;
        match self.pc[t] {
            0 => {
                // `set_range`: region locks only.
                self.uncommitted = true;
                self.pc[t] = 1;
            }
            1 => {
                self.lock = Some(t as u8);
                self.pc[t] = 2;
            }
            2 => {
                // `complete_batch`: the record is forced; mark, enqueue.
                let offset = self.tail;
                self.tail += 1;
                self.in_vm += 1;
                self.dirty = true;
                self.queued.get_or_insert(offset);
                self.lock = None;
                self.pc[t] = 3;
            }
            3 => {
                self.uncommitted = false;
                self.pc[t] = DONE;
            }
            _ => unreachable!("committer stepped past its end"),
        }
    }

    /// The epoch's three phases for runner `r` (0: mapper, 1:
    /// truncator) from pc 2 on; `after` is where its thread goes next,
    /// lock held.
    fn step_epoch(&mut self, t: usize, r: usize, after: u8) {
        match self.pc[t] {
            2 => {
                // Freeze: the stable span, its descriptors, the slot.
                self.drained[r] = self.queued.take_if(|offset| *offset < self.tail);
                self.take_slot(Owner::Epoch(self.tail));
                self.lock = None;
                self.pc[t] = 3;
            }
            3 => {
                // Apply, off-lock: every record of the span.
                if let Some(Owner::Epoch(end)) = self.slot {
                    self.on_segment = self.on_segment.max(end);
                }
                self.pc[t] = 4;
            }
            4 => {
                self.lock = Some(t as u8);
                self.pc[t] = 5;
            }
            5 => {
                if let Some(Owner::Epoch(end)) = self.slot {
                    self.head = end;
                }
                let drained = self.drained[r].take();
                self.settle(drained);
                self.free_slot();
                self.pc[t] = after;
            }
            _ => unreachable!("epoch runner stepped while blocked"),
        }
    }

    fn step_mapper(&mut self) {
        let t = T_MAP;
        match self.pc[t] {
            0 => {
                self.lock = Some(t as u8);
                self.pc[t] = 1;
            }
            1 => {
                // One settle round under the lock.
                let through = match self.through {
                    Some(through) => through,
                    None if self.tail == self.head && self.slot.is_none() => {
                        self.pc[t] = 6; // the segment is not referenced
                        return;
                    }
                    None => *self.through.insert(self.tail),
                };
                if self.head >= through {
                    self.pc[t] = 6;
                } else if self.slot.is_some() {
                    self.park(t); // `make_log_space`: wait it out
                } else {
                    self.pc[t] = 2; // `make_log_space`: run the epoch
                }
            }
            2..=5 => self.step_epoch(t, 0, 1),
            6 => {
                // The load: the segment must hold everything committed
                // before the settle offset was taken.
                self.stale_map |= self.through.is_some_and(|t| self.on_segment < t);
                self.lock = None;
                self.pc[t] = DONE;
            }
            _ => unreachable!("mapper stepped while parked"),
        }
    }

    fn step_truncator(&mut self) {
        let t = T_TRUNC;
        match self.pc[t] {
            0 => {
                self.lock = Some(t as u8);
                self.pc[t] = 1;
            }
            1 => {
                if self.slot.is_some() {
                    self.park(t);
                } else if self.tail > self.head {
                    self.pc[t] = 2;
                } else {
                    self.pc[t] = 6;
                }
            }
            2..=5 => self.step_epoch(t, 1, 6),
            6 => {
                self.lock = None;
                self.pc[t] = DONE;
            }
            _ => unreachable!("truncator stepped while parked"),
        }
    }
}

impl Model for StepModel {
    fn threads(&self) -> usize {
        4
    }

    fn runnable(&self, t: usize) -> bool {
        match (t, self.pc[t]) {
            (_, DONE | PARKED) => false,
            // Steps that need no lock: `set_range`/release, the applies.
            (T_COMMIT, 0 | 3) | (_, 3) => true,
            // Lock acquisitions.
            (T_COMMIT, 1) | (T_STEP | T_MAP | T_TRUNC, 0 | 4) => self.lock.is_none(),
            _ => self.lock == Some(t as u8),
        }
    }

    fn finished(&self, t: usize) -> bool {
        self.pc[t] == DONE
    }

    fn step(&mut self, t: usize) {
        match t {
            T_STEP => self.step_stepper(),
            T_COMMIT => self.step_committer(),
            T_MAP => self.step_mapper(),
            _ => self.step_truncator(),
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.double_owner {
            return Err("a truncation was frozen while another was in flight".into());
        }
        if self.head > self.on_segment {
            return Err(format!(
                "the head ({}) passed a record the segment does not hold (applied below {})",
                self.head, self.on_segment
            ));
        }
        if self.queued.is_some() && !self.dirty {
            return Err("a queued page lost its dirty bit".into());
        }
        if self.slot.is_none()
            && self.on_segment < self.tail
            && self.queued.is_none_or(|offset| offset > self.on_segment)
        {
            return Err(format!(
                "record {} is unapplied with no descriptor at or below it ({:?})",
                self.on_segment, self.queued
            ));
        }
        if self.stale_map {
            return Err("the map loaded a segment missing records below its settle offset".into());
        }
        if self.pc.iter().all(|&pc| pc == DONE) && (self.slot.is_some() || self.waiters != 0) {
            return Err("a truncation or a waiter leaked past termination".into());
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
        let report = explore(EpochModel::new(true), 2_000_000);
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
        let report = explore(EpochModel::new(false), 2_000_000);
        let (msg, schedule) = report
            .violation
            .expect("release-then-park must lose a wakeup in some schedule");
        assert!(msg.contains("deadlock"), "unexpected violation: {msg}");
        assert!(!schedule.is_empty());
    }

    #[test]
    fn step_commit_map_and_epoch_share_the_slot_safely() {
        let report = explore(StepModel::new(false, false), 2_000_000);
        assert!(report.complete, "state space fully covered");
        assert!(
            report.violation.is_none(),
            "no schedule reclaims an unapplied record or strands a waiter: {:?}",
            report.violation
        );
        assert!(report.states > 500, "nontrivial: {} states", report.states);
    }

    #[test]
    fn clearing_dirty_on_a_requeued_page_is_caught() {
        let report = explore(StepModel::new(true, false), 2_000_000);
        let (msg, schedule) = report
            .violation
            .expect("a re-enqueued page must keep its dirty bit");
        assert!(msg.contains("dirty bit"), "unexpected violation: {msg}");
        assert!(schedule.contains(&1), "needs the commit: {schedule:?}");
    }

    #[test]
    fn a_head_past_a_requeued_descriptor_is_caught() {
        let report = explore(StepModel::new(false, true), 2_000_000);
        let (msg, schedule) = report
            .violation
            .expect("the head must stop at a descriptor re-enqueued during the apply");
        assert!(
            msg.contains("passed a record"),
            "unexpected violation: {msg}"
        );
        assert!(schedule.contains(&1), "needs the commit: {schedule:?}");
    }
}
