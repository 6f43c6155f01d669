//! Exhaustive interleaving models of the concurrency protocols.
//!
//! These are loom-style model checks: each protocol is restated as a
//! small state machine per thread over explicitly shared state, and
//! [`explore`](explore::explore) enumerates **every** schedule of the
//! thread steps (with state dedup), checking invariants at each reachable
//! state and flagging deadlocks — which is how a lost wakeup presents —
//! automatically.
//!
//! The real `loom` crate is deliberately not a dependency: the protocols
//! under test span device I/O and multi-lock phases that loom's
//! `UnsafeCell`-tracking model doesn't capture any better than an
//! explicit state machine, and the models here stay dependency-free so
//! they run in every environment (the CI loom job builds them with
//! `RUSTFLAGS="--cfg loom"`; they also build under plain `cfg(test)`).
//!
//! Two protocols are modeled here, matching the PRs that complicated the
//! durability argument (the WAL's two published words have a model of
//! their own beside them, in `cursor.rs`'s tests):
//!
//! * [`group_model`] — the commit plane. The leader's batch: a
//!   checkpoint, a fill that closes the batch and resumes in a new one
//!   whenever it must release the core lock, the single force completing
//!   while the batch is in flight, and the rollback guarded by
//!   `end_tail`/`wait_generation` — the guard is *necessary and
//!   sufficient* in the model: with it no schedule destroys another
//!   thread's appended record, and with it removed the explorer exhibits
//!   a schedule that does. And the leadership baton, with a spooled
//!   record and a barrier slot: no lost wakeup, nothing published twice,
//!   and a barrier that skips the leader check is convicted of returning
//!   before the record spooled ahead of it is logged.
//! * [`epoch_model`] — the truncation plane. The one epoch-truncation
//!   protocol and its `truncation_done` condvar handshake: a committer
//!   out of log space waits an epoch in flight out or becomes the
//!   truncator itself (lock released around the apply). No schedule
//!   deadlocks (no lost wakeup), no two epochs are ever in flight, every
//!   committer bumps `wait_generation` before re-deriving state, and
//!   breaking the wait's atomicity (release-then-sleep) is caught as a
//!   deadlock. And the slot epochs share with incremental steps
//!   (`StepModel`): a step racing a commit that re-dirties the page it
//!   froze, a `map` of the same segment and an explicit truncate — no
//!   record is reclaimed before the segment holds it, a queued page stays
//!   dirty, the map loads the committed image; clearing the dirty bit of
//!   a re-enqueued page and moving the head past its new descriptor are
//!   both convicted.

pub mod epoch_model;
pub mod explore;
pub mod group_model;
