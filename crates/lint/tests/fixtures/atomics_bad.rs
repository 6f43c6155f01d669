//! Known-bad fixture for the atomics pass: one seeded violation per
//! sub-check. Never compiled — linted as text by tests/fixtures.rs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Planes {
    hits: AtomicU64,
    ready: AtomicBool,
    rogue: AtomicU64,
}

impl Planes {
    /// Declared counter bumped SeqCst — the perf-smell conviction.
    pub fn seqcst_counter(&self) {
        self.hits.fetch_add(1, Ordering::SeqCst);
    }

    /// Publication store weakened to Relaxed — the flag flip no longer
    /// publishes the writes before it.
    pub fn relaxed_publication_store(&self) {
        self.ready.store(true, Ordering::Relaxed);
    }

    /// CAS failure ordering weaker than the declared set.
    pub fn weakened_cas_failure(&self) -> bool {
        self.ready
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Operates on an atomic no declaration covers.
    pub fn rogue_op(&self) {
        self.rogue.store(1, Ordering::Relaxed);
    }
}
