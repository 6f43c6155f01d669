//! The threshold trigger: when a commit leaves log utilization above
//! [`Tuning::truncation_threshold`], the configured mechanism runs once —
//! inline on the committing thread, or on the background thread.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use crate::error::Result;
use crate::options::{TruncationMode, Tuning};
use crate::rvm::RvmShared;

impl RvmShared {
    /// Hands a threshold crossing to the background thread, or runs the
    /// truncation inline without one.
    pub(crate) fn request_truncation(&self, tuning: &Tuning) {
        if tuning.background_truncation {
            let mut flag = self.bg_wakeup.lock();
            *flag = true;
            self.bg_condvar.notify_all();
        } else {
            self.run_triggered_truncation(tuning);
        }
    }

    /// Runs the configured truncation mechanism once. Takes the core
    /// lock itself; the caller must not hold it.
    fn run_triggered_truncation(&self, tuning: &Tuning) {
        let result = (|| -> Result<()> {
            let mut core = self.core.lock();
            // Re-check under the lock: another thread may have truncated
            // already, and a truncation in flight — an epoch or a step —
            // *is* the truncation this trigger asked for.
            if core.truncation.is_some() || core.wal.utilization() <= tuning.truncation_threshold {
                return Ok(());
            }
            if tuning.truncation_mode == TruncationMode::Epoch {
                self.epoch_truncate(&mut core)?;
                return Ok(());
            }
            let reclaimed =
                self.incremental_truncate(&mut core, tuning.incremental_reclaim_bytes)?;
            // Blocked with space critical: revert to epoch truncation.
            // The revert point must sit at or above the trigger threshold
            // — with a threshold above 0.95, a bare `min(0.95)` would put
            // the "critical" mark *below* the trigger and every blocked
            // trigger would look critical immediately.
            let critical = (tuning.truncation_threshold + 0.3)
                .min(0.95)
                .max(tuning.truncation_threshold);
            if reclaimed == 0 && core.truncation.is_none() && core.wal.utilization() > critical {
                self.make_log_space(&mut core)?;
            }
            Ok(())
        })();
        // Nobody is told the outcome, so the poison transition must
        // happen here or a failed truncation would go unnoticed.
        let _ = self.guard_io(result);
    }
}

fn background_truncation_loop(shared: Weak<RvmShared>) {
    loop {
        let Some(strong) = shared.upgrade() else {
            return;
        };
        {
            let mut flag = strong.bg_wakeup.lock();
            if !*flag {
                strong
                    .bg_condvar
                    .wait_for(&mut flag, std::time::Duration::from_millis(50));
            }
            *flag = false;
        }
        if strong.terminated.load(Ordering::Acquire) || strong.bg_stop.load(Ordering::Acquire) {
            return;
        }
        let tuning = *strong.tuning.read();
        strong.run_triggered_truncation(&tuning);
        drop(strong);
    }
}

/// Spawns the background truncation thread. The thread holds only a weak
/// reference so a dropped [`Rvm`](crate::Rvm) lets it exit on its next
/// wakeup.
pub(crate) fn spawn_bg_thread(shared: &Arc<RvmShared>) -> JoinHandle<()> {
    let weak = Arc::downgrade(shared);
    std::thread::Builder::new()
        .name("rvm-truncation".to_owned())
        .spawn(move || background_truncation_loop(weak))
        .expect("failed to spawn the rvm truncation thread")
}
