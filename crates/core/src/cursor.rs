//! The published log view: the two WAL words lock-free readers use.
//!
//! [`Wal`](crate::log::wal::Wal) owns its cursors as plain fields behind
//! `&mut self` — the core lock; there is one log writer. `query()` and the
//! commit path's truncation-threshold check want the log's occupancy
//! without that lock; they read `head` and `tail` and nothing else, so
//! those two words are all the WAL publishes, one Release store each time
//! one moves.
//!
//! The writer keeps `head <= tail <= head + capacity` at every store, the
//! head only grows, and the tail never drops below it (`Wal::rollback_to`
//! skips a checkpoint the head has passed). A reader Acquire-loads `head`,
//! `tail`, `head` and retries if the head moved:
//!
//! * the tail load follows the head store the first load read, so it sees
//!   a tail at least as new as the one that head was checked against, and
//!   every later tail is at or above a later head: `head <= tail`;
//! * the last load follows the tail store the tail load read, so it sees a
//!   head at least as new as the one that tail was checked against, and
//!   the head only grows: `tail <= head + capacity`.
//!
//! Equal first and last loads make both hold of one pair — no generation
//! word, nothing for a writer to reserve. Two loads give one bound or the
//! other, and a tail stored below the head breaks the first; the
//! interleaving model in this file's tests convicts each.

use std::sync::atomic::Ordering;

use crate::query::LogInfo;
use crate::sync::AtomicU64;

/// The shared cell. The WAL stores into it under the core lock; readers
/// take [`WalView::snapshot`]s without it.
#[derive(Debug)]
pub(crate) struct WalView {
    head: AtomicU64,
    tail: AtomicU64,
    /// The record area's byte capacity; fixed at `initialize`.
    pub(crate) capacity: u64,
}

impl WalView {
    pub(crate) fn new(head: u64, tail: u64, capacity: u64) -> Self {
        Self {
            head: AtomicU64::new(head),
            tail: AtomicU64::new(tail),
            capacity,
        }
    }

    /// Publishes a head advance; `head` is at or below the published tail.
    pub(crate) fn set_head(&self, head: u64) {
        self.head.store(head, Ordering::Release);
    }

    /// Publishes an append or a rollback; `tail` is at or above the
    /// published head and within one capacity of it.
    pub(crate) fn set_tail(&self, tail: u64) {
        self.tail.store(tail, Ordering::Release);
    }

    /// Lock-free coherent read (see the module docs).
    pub(crate) fn snapshot(&self) -> LogInfo {
        loop {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            if self.head.load(Ordering::Acquire) == head {
                let used = tail - head;
                return LogInfo {
                    head,
                    tail,
                    used,
                    capacity: self.capacity,
                    utilization: used as f64 / self.capacity.max(1) as f64,
                };
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::explore::{explore, Model};

    #[test]
    fn snapshot_sees_published_state() {
        let v = WalView::new(0, 0, 4096);
        assert_eq!(v.snapshot().used, 0);
        v.set_tail(128);
        let LogInfo { head, tail, .. } = v.snapshot();
        assert_eq!((head, tail), (0, 128));
    }

    #[test]
    fn head_advance_is_an_update_like_any_other() {
        let v = WalView::new(0, 4096, 4096);
        v.set_head(2048);
        let s = v.snapshot();
        assert_eq!((s.used, s.capacity), (2048, 4096));
        assert!((s.utilization - 0.5).abs() < 1e-9);
    }

    /// A writer fills a 256-byte log, rolls half of it back, refills and
    /// truncates, ten thousand laps; no reader may see a pair the writer
    /// never had.
    #[test]
    fn snapshots_under_contention_are_never_torn() {
        const CAP: u64 = 256;
        let v = WalView::new(0, 0, CAP);
        std::thread::scope(|s| {
            s.spawn(|| {
                for lap in 0..10_000 {
                    let base = lap * CAP;
                    for step in [64, 128, 192, 256, 128, 256] {
                        v.set_tail(base + step);
                    }
                    v.set_head(base + CAP);
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..20_000 {
                        let LogInfo { head, tail, .. } = v.snapshot();
                        assert!(head <= tail && tail - head <= CAP, "[{head}, {tail})");
                    }
                });
            }
        });
    }

    /// Every interleaving of one writer storing a word at a time and one
    /// reader, over a log of capacity 8. The writer's steps: an append, a
    /// head advance past it, a rollback to the checkpoint the head has
    /// passed (skipped), an append into the freed space, a rollback that
    /// takes it back, and the append again.
    #[derive(Clone, Default, PartialEq, Eq, Hash)]
    struct ViewModel {
        /// Mutation: the reader returns after `head`, `tail`.
        no_recheck: bool,
        /// Mutation: `rollback_to` without its `head <= ckpt.tail` guard.
        blind_rollback: bool,
        head: u8,
        tail: u8,
        /// Writer steps taken.
        w_pc: u8,
        /// Reader loads done (3 = returned), and what they saw.
        r_pc: u8,
        r_head: u8,
        r_tail: u8,
    }

    impl Model for ViewModel {
        fn threads(&self) -> usize {
            2
        }
        fn runnable(&self, t: usize) -> bool {
            !self.finished(t)
        }
        fn finished(&self, t: usize) -> bool {
            [self.w_pc == 6, self.r_pc == 3][t]
        }
        fn step(&mut self, t: usize) {
            if t == 0 {
                match self.w_pc {
                    0 | 3 | 5 => self.tail += 8,
                    1 => self.head = self.tail,
                    // `rollback_to` the checkpoint taken before step 0, then
                    // the one taken before step 3.
                    pc => {
                        let ckpt = if pc == 2 { 0 } else { 8 };
                        if self.head <= ckpt || self.blind_rollback {
                            self.tail = ckpt;
                        }
                    }
                }
                self.w_pc += 1;
                return;
            }
            self.r_pc = match self.r_pc {
                0 => {
                    self.r_head = self.head;
                    1
                }
                1 => {
                    self.r_tail = self.tail;
                    2 + u8::from(self.no_recheck)
                }
                // The re-check: if the head moved, start over.
                _ if self.head != self.r_head => 0,
                _ => 3,
            };
        }
        fn check(&self) -> Result<(), String> {
            let (head, tail) = (self.r_head, self.r_tail);
            if self.r_pc == 3 && (tail < head || tail - head > 8) {
                return Err(format!("reader returned head {head}, tail {tail}"));
            }
            Ok(())
        }
    }

    fn verdict(no_recheck: bool, blind_rollback: bool) -> Option<String> {
        let model = ViewModel {
            no_recheck,
            blind_rollback,
            ..ViewModel::default()
        };
        let report = explore(model, 10_000);
        assert!(report.complete || report.violation.is_some());
        report.violation.map(|(msg, _)| msg)
    }

    #[test]
    fn three_load_reader_never_sees_an_incoherent_pair() {
        assert_eq!(verdict(false, false), None);
    }

    #[test]
    fn reader_without_the_recheck_is_convicted() {
        let msg = verdict(true, false).expect("a stale head beside a new tail");
        assert_eq!(msg, "reader returned head 0, tail 16");
    }

    #[test]
    fn rollback_below_the_head_is_convicted() {
        let msg = verdict(false, true).expect("a tail stored below the head");
        assert_eq!(msg, "reader returned head 8, tail 0");
    }
}
