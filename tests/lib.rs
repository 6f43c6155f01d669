// Shared helpers for the workspace integration tests, `include!`d into
// each test binary as `mod common` (and into `crates/core/tests/rvm_api.rs`).

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{Options, Rvm, Tuning};
use rvm_storage::MemDevice;

/// A self-contained world: one in-memory log plus shared segments, both
/// surviving simulated reboots.
pub struct World {
    /// The log device.
    pub log: Arc<MemDevice>,
    /// Shared named segments.
    pub segments: MemResolver,
}

impl World {
    /// Creates a world with a log of `log_len` bytes.
    pub fn new(log_len: u64) -> Self {
        Self {
            log: Arc::new(MemDevice::with_len(log_len)),
            segments: MemResolver::new(),
        }
    }

    /// Options bound to this world's devices.
    pub fn options(&self) -> Options {
        Options::new(self.log.clone())
            .resolver(self.segments.clone().into_resolver())
            .create_if_empty()
    }

    /// Boots an RVM instance (running recovery).
    pub fn boot(&self) -> Rvm {
        Rvm::initialize(self.options()).expect("initialize")
    }

    /// Boots with specific tuning. (Compiled into every test binary;
    /// not all of them use it.)
    #[allow(dead_code)]
    pub fn boot_tuned(&self, tuning: Tuning) -> Rvm {
        Rvm::initialize(self.options().tuning(tuning)).expect("initialize")
    }
}

/// Who truncates a log under load once it is above a threshold: the
/// library's trigger, whose incremental steps run on the committing
/// thread, or the application, which turns the trigger off and calls
/// `truncate()` — an epoch — after each commit that left the log above
/// it. A test of what truncation achieves (the log wraps, the head
/// advances, the image survives a restart) runs under both and adds the
/// proof that this one did it.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Truncator {
    /// The trigger, at this threshold.
    Steps(f64),
    /// The application, above this threshold.
    Epochs(f64),
}

#[allow(dead_code)]
impl Truncator {
    /// Both truncators at `threshold`.
    pub fn both(threshold: f64) -> [Self; 2] {
        [Self::Steps(threshold), Self::Epochs(threshold)]
    }

    /// The default tuning with this truncator's threshold: the trigger's
    /// for steps, off (1.0) for the application's epochs.
    pub fn tuning(self) -> Tuning {
        let truncation_threshold = match self {
            Self::Steps(threshold) => threshold,
            Self::Epochs(_) => 1.0,
        };
        Tuning {
            truncation_threshold,
            ..Tuning::default()
        }
    }

    /// Call after each commit: the application's epoch, if it is due.
    pub fn after_commit(self, rvm: &Rvm) {
        if let Self::Epochs(threshold) = self {
            if rvm.query().log.utilization > threshold {
                rvm.truncate().expect("truncate");
            }
        }
    }

    /// The runs only this truncator makes.
    pub fn runs(self, rvm: &Rvm) -> u64 {
        match self {
            Self::Steps(_) => rvm.stats().incremental_steps,
            Self::Epochs(_) => rvm.stats().epoch_truncations,
        }
    }
}
