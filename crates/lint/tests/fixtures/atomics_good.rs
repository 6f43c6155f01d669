//! Known-good fixture for the atomics pass: every role exercised with
//! its declared orderings, and the lexer decoys (raw strings, turbofish)
//! that must not be misread as atomic operations. Never compiled — linted as
//! text by tests/fixtures.rs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Planes {
    hits: AtomicU64,
    depth: AtomicU64,
    ready: AtomicBool,
    // lint:allow(atomics): scratch probe for the single-threaded bench rig
    probe: AtomicU64,
}

impl Planes {
    pub fn count(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.depth.fetch_max(3, Ordering::Relaxed);
    }

    pub fn publish(&self) {
        self.ready.store(true, Ordering::Release);
    }

    pub fn observe(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    pub fn latch(&self) -> bool {
        self.ready
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Decoys: an atomic-looking op inside a raw string, and a turbofish
    /// call that is not an atomic op at all.
    pub fn decoys(&self, s: &str) -> u64 {
        let doc = r#"counts.store(1, Ordering::Relaxed) — prose, not code"#;
        let n = s.parse::<u64>().unwrap_or(doc.len() as u64);
        // lint:allow(atomics): scratch probe for the single-threaded bench rig
        self.probe.store(n, Ordering::SeqCst);
        n
    }
}
