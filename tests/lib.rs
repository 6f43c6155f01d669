// Shared helpers for the workspace integration tests, `include!`d into
// each test binary as `mod common` (and into `crates/core/tests/rvm_api.rs`).

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{Options, Rvm, TruncationMode, Tuning};
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

/// Runs `test` under each of the threshold trigger's two mechanisms,
/// handing it the tuning to build on and the count of runs only that
/// mechanism makes. A test of what the trigger *achieves* — the log
/// wraps, the head advances, the image survives a restart — asserts that
/// once per mode and adds the proof that this mechanism did it.
#[allow(dead_code)]
pub fn in_both_modes(test: impl Fn(Tuning, &dyn Fn(&Rvm) -> u64)) {
    for truncation_mode in [TruncationMode::Epoch, TruncationMode::Incremental] {
        let tuning = Tuning {
            truncation_mode,
            ..Tuning::default()
        };
        test(tuning, &|rvm| match truncation_mode {
            TruncationMode::Epoch => rvm.stats().epoch_truncations,
            TruncationMode::Incremental => rvm.stats().incremental_steps,
        });
    }
}
