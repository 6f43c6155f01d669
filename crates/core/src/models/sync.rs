//! What `crate::sync` names under `cfg(any(test, loom))`: `parking_lot`'s
//! locks and `std`'s atomics and clock, each wrapped to carry the name
//! the explorer knows it by ([`explore::name`]) and, on a thread of an
//! exploration, to stop at a scheduling point — at every acquire and
//! release (`MutexGuard::unlocked` included), condvar wait and notify,
//! and atomic operation that is not `Relaxed` — and to read logical time.
//! On any other thread a wrapper passes straight through.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::time::Duration;

use super::explore;

const TAKEN: &str = "guard released";

/// A mutual exclusion lock: its name and the lock.
#[derive(Debug)]
pub struct Mutex<T: ?Sized>(u64, parking_lot::Mutex<T>);

/// A held [`Mutex`]; `None` inside only while a condvar wait or
/// [`MutexGuard::unlocked`] has it released.
pub struct MutexGuard<'a, T: ?Sized>(&'a Mutex<T>, Option<parking_lot::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(explore::name(), parking_lot::Mutex::new(value))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self, Some(self.acquire()))
    }

    fn acquire(&self) -> parking_lot::MutexGuard<'_, T> {
        let taken = explore::acquire(self.0, true, || self.1.try_lock());
        taken.unwrap_or_else(|| self.1.lock())
    }
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Releases the lock for the duration of `f` and re-locks it after,
    /// as `parking_lot`'s does.
    pub fn unlocked<U>(s: &mut Self, f: impl FnOnce() -> U) -> U {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                if !explore::unwinding() {
                    self.0 .1 = Some(self.0 .0.acquire());
                }
            }
        }
        s.release();
        let _relock = Relock(s);
        f()
    }

    fn release(&mut self) {
        if self.1.take().is_some() {
            explore::released(self.0 .0, true);
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.1.as_deref().expect(TAKEN)
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.1.as_deref_mut().expect(TAKEN)
    }
}

/// A condition variable for [`Mutex`]: its name and the condvar.
pub struct Condvar(u64, parking_lot::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(explore::name(), parking_lot::Condvar::new())
    }

    pub fn wait<T>(&self, g: &mut MutexGuard<'_, T>) {
        if !explore::exploring() {
            return self.1.wait(g.1.as_mut().expect(TAKEN));
        }
        drop(g.1.take());
        explore::park(g.0 .0, self.0);
        g.1 = Some(g.0.acquire());
    }

    pub fn notify_all(&self) -> usize {
        explore::notify(self.0);
        self.1.notify_all()
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// A reader-writer lock: its name and the lock.
pub struct RwLock<T>(u64, parking_lot::RwLock<T>);

/// A held [`RwLock`]: its name, whether exclusively, and the guard.
pub struct Held<G: Deref>(u64, bool, Option<G>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(explore::name(), parking_lot::RwLock::new(value))
    }

    pub fn read(&self) -> Held<parking_lot::RwLockReadGuard<'_, T>> {
        let taken = explore::acquire(self.0, false, || self.1.try_read());
        Held(self.0, false, Some(taken.unwrap_or_else(|| self.1.read())))
    }

    pub fn write(&self) -> Held<parking_lot::RwLockWriteGuard<'_, T>> {
        let taken = explore::acquire(self.0, true, || self.1.try_write());
        Held(self.0, true, Some(taken.unwrap_or_else(|| self.1.write())))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<G: Deref> Drop for Held<G> {
    fn drop(&mut self) {
        if self.2.take().is_some() {
            explore::released(self.0, self.1);
        }
    }
}

impl<G: Deref> Deref for Held<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        self.2.as_deref().expect(TAKEN)
    }
}

impl<G: DerefMut> DerefMut for Held<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        self.2.as_deref_mut().expect(TAKEN)
    }
}

macro_rules! atomic {
    ($name:ident, $t:ty $(, $rmw:ident)*) => {
        /// An atomic: its name and the atomic.
        #[derive(Debug)]
        pub struct $name(u64, std::sync::atomic::$name);

        impl $name {
            pub fn new(value: $t) -> Self {
                $name(explore::name(), std::sync::atomic::$name::new(value))
            }
            /// A scheduling point, unless `order` publishes nothing.
            fn point(&self, order: Ordering, wrote: bool) {
                if order != Ordering::Relaxed {
                    explore::point(self.0, wrote);
                }
            }
            pub fn load(&self, order: Ordering) -> $t {
                self.point(order, false);
                self.1.load(order)
            }
            pub fn store(&self, value: $t, order: Ordering) {
                self.point(order, true);
                self.1.store(value, order)
            }
            pub fn swap(&self, value: $t, order: Ordering) -> $t {
                self.point(order, true);
                self.1.swap(value, order)
            }
            $(pub fn $rmw(&self, value: $t, order: Ordering) -> $t {
                self.point(order, true);
                self.1.$rmw(value, order)
            })*
        }

        impl Default for $name {
            fn default() -> Self {
                $name::new(Default::default())
            }
        }
    };
}

atomic!(AtomicBool, bool);
atomic!(AtomicU64, u64, fetch_add, fetch_sub);
atomic!(AtomicUsize, usize, fetch_add, fetch_sub);

/// A clock reading: logical time on an exploration thread (see
/// [`explore::now`]), so a schedule replays its waits; the wall clock
/// elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Instant(std::time::Instant);

impl Instant {
    pub fn now() -> Self {
        Instant(explore::now().unwrap_or_else(std::time::Instant::now))
    }

    pub fn elapsed(&self) -> Duration {
        Self::now().0.saturating_duration_since(self.0)
    }
}
