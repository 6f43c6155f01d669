//! The one door to every lock, condvar, atomic and clock reading of the
//! core: `parking_lot`'s and `std`'s own types, or under `cfg(test)` the
//! wrappers through which `models::explore` schedules them.

#[cfg(not(test))]
pub(crate) use {
    parking_lot::{Condvar, Mutex, MutexGuard, RwLock},
    std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize},
    std::time::Instant,
};

#[cfg(test)]
pub(crate) use crate::models::sync::{
    AtomicBool, AtomicU64, AtomicUsize, Condvar, Instant, Mutex, MutexGuard, RwLock,
};
