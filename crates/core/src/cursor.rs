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
//! explorer convicts each over a real `Wal` in this file's tests.

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
    use crate::log::record::LOG_BLOCK;
    use crate::log::status::LOG_AREA_START;
    use crate::log::wal::{StagingBuf, Wal, WalCheckpoint};
    use crate::models::explore::Explorer;
    use crate::ranges::Piece;
    use rvm_storage::MemDevice;
    use std::sync::Arc;

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

    /// The writer's real `Wal`, with room for one record, and its view.
    type Log = (std::sync::Mutex<Wal>, Arc<WalView>);

    fn log() -> Log {
        let dev = Arc::new(MemDevice::with_len(LOG_AREA_START + LOG_BLOCK));
        let wal = Wal::new(dev, LOG_BLOCK, 0, 0, 1, 1);
        let view = Arc::clone(&wal.view);
        (std::sync::Mutex::new(wal), view)
    }

    /// An append of one block, a head advance past it, a rollback to the
    /// checkpoint before it (skipped), an append into the freed space, a
    /// rollback that takes it back, and the append again; `roll` rolls.
    fn write_with(log: &Log, roll: fn(&mut Wal, WalCheckpoint)) {
        let wal = &mut *log.0.lock().unwrap();
        let append = |wal: &mut Wal| {
            let empty = std::iter::empty::<Piece>();
            wal.append_staged(1, empty, &mut StagingBuf::default())
                .unwrap();
        };
        let first = wal.checkpoint();
        append(wal);
        wal.advance_head(LOG_BLOCK, 2);
        roll(wal, first);
        let second = wal.checkpoint();
        append(wal);
        roll(wal, second);
        append(wal);
    }

    fn write(log: &Log) {
        write_with(log, Wal::rollback_to);
    }

    fn read(log: &Log) {
        let LogInfo { head, tail, .. } = log.1.snapshot();
        check(head, tail);
    }

    fn check(head: u64, tail: u64) {
        let coherent = head <= tail && tail - head <= LOG_BLOCK;
        assert!(coherent, "reader returned head {head}, tail {tail}");
    }

    fn verdict(threads: [fn(&Log); 2]) -> Option<String> {
        Explorer::default()
            .run(log, &threads, |_| Ok(()))
            .err()
            .map(|(m, _)| m)
    }

    #[test]
    fn three_load_reader_never_sees_an_incoherent_pair() {
        assert_eq!(verdict([write, read]), None);
    }

    #[test]
    fn reader_without_the_recheck_is_convicted() {
        let read_twice = |log: &Log| {
            let head = log.1.head.load(Ordering::Acquire);
            check(head, log.1.tail.load(Ordering::Acquire));
        };
        let msg = verdict([write, read_twice]).expect("a stale head beside a new tail");
        let torn = format!("reader returned head 0, tail {}", 2 * LOG_BLOCK);
        assert!(msg.contains(&torn), "{msg}");
    }

    #[test]
    fn rollback_below_the_head_is_convicted() {
        let blind = |log: &Log| {
            write_with(log, |wal, ckpt| {
                wal.view.set_tail(ckpt.tail());
                wal.rollback_to(ckpt);
            })
        };
        let msg = verdict([blind, read]).expect("a tail stored below the head");
        // A debug build's `tail - head` in `snapshot` overflows first.
        let torn = msg.contains("overflow") || msg.contains(&format!("head {LOG_BLOCK}, tail 0"));
        assert!(torn, "{msg}");
    }
}
