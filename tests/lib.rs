// Shared helpers for the workspace integration tests, `include!`d into
// each test binary as `mod common` (and into `crates/core/tests/rvm_api.rs`).

use std::sync::Arc;

use rvm::segment::MemResolver;
use rvm::{CommitMode, Options, Region, Rvm, Tuning, TxnMode};
use rvm_images::EnumConfig;
use rvm_reference::{Commit, Images, Write};
use rvm_storage::{Device, FaultClock, MemDevice};

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

/// The crash images a crash test judges at one crash point: every one
/// up to 4 pieces, else the worst-case core plus 4 masks seeded by
/// `seed`.
#[allow(dead_code)]
pub fn sample(seed: u64) -> EnumConfig {
    EnumConfig {
        exhaustive_piece_cap: 4,
        samples_per_point: 4,
        seed,
        ..EnumConfig::default()
    }
}

/// Calls `check` with the kept-piece mask and a world per crash image
/// (`cfg`'s) that `clock`'s crash leaves on `log` and on `segments`'
/// segment `seg` and its sidecar, the one segment the crash tests map:
/// every write the crash rolled back on them may survive, torn or not.
/// A recovery then leaves `log` and `segments` as the crash left them.
#[allow(dead_code)]
pub fn for_each_crash_image(
    clock: &FaultClock,
    log: &Arc<MemDevice>,
    segments: &MemResolver,
    cfg: &EnumConfig,
    mut check: impl FnMut(&[bool], &World),
) {
    let mut devices = vec![log.clone() as Arc<dyn Device>];
    let mut names = Vec::new();
    for name in ["seg".to_owned(), rvm::scrub::sidecar_name("seg")] {
        if let Some(dev) = segments.get(&name) {
            devices.push(dev);
            names.push(name);
        }
    }
    rvm_images::crash_images(clock, &devices, cfg, |kept, images| {
        let log = Arc::new(MemDevice::from_image(images[0].1.clone()));
        let segments = MemResolver::new();
        for (name, (_, image)) in names.iter().zip(&images[1..]) {
            segments.resolve(name, 0).unwrap();
            segments.get(name).unwrap().restore(image.clone());
        }
        check(kept, &World { log, segments });
        true
    })
    .expect("the crashed devices read");
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

// The canonical workload of the crash and fault matrices.

/// Slots the canonical workload cycles through.
#[allow(dead_code)]
pub const SLOTS: u64 = 16;
/// Bytes in a slot.
#[allow(dead_code)]
pub const SLOT_SIZE: u64 = 64;
/// Offset where each transaction records its own index.
#[allow(dead_code)]
pub const INDEX_OFF: u64 = 2048;

/// Runs transaction `i` of the canonical workload: fill slot `i % SLOTS`
/// with byte `i` and record `i` at INDEX_OFF, all in one transaction.
#[allow(dead_code)]
pub fn run_txn(rvm: &Rvm, region: &Region, i: u64) -> rvm::Result<()> {
    let mut txn = rvm.begin_transaction(TxnMode::Restore)?;
    region.write(
        &mut txn,
        (i % SLOTS) * SLOT_SIZE,
        &[i as u8; SLOT_SIZE as usize],
    )?;
    region.put_u64(&mut txn, INDEX_OFF, i)?;
    txn.commit(CommitMode::Flush)
}

/// Asserts the region equals the state after transactions `1..=k` of
/// the canonical workload, as the reference replays them.
#[allow(dead_code)]
pub fn assert_state_is_prefix(region: &Region, k: u64) {
    assert_eq!(region.get_u64(INDEX_OFF).unwrap(), k, "recorded index");
    let write = |offset, bytes| Write {
        segment: "region".into(),
        offset,
        bytes,
    };
    let commits: Vec<Commit> = (1..=k)
        .map(|i| Commit {
            stream: 0,
            writes: vec![
                write((i % SLOTS) * SLOT_SIZE, vec![i as u8; SLOT_SIZE as usize]),
                write(INDEX_OFF, i.to_le_bytes().to_vec()),
            ],
            durable: true,
        })
        .collect();
    let mut want = rvm_reference::replay(&Images::new(), &commits)
        .remove("region")
        .unwrap_or_default();
    let got = region.read_vec(0, INDEX_OFF + 8).unwrap();
    want.resize(got.len(), 0);
    let diff = (0..got.len()).find(|&at| got[at] != want[at]);
    assert!(diff.is_none(), "byte {diff:?} differs from prefix {k}");
}
